//! The simulated NVMM device.
//!
//! `words` is the one copy of the pool: what loads see and, for every
//! clean line, what is durable. The model of what is durable lives in
//! [`Persistence`] — a state byte per cache line, and on a `CrashSim` pool
//! the [`Shadow`] — and in each thread's own [`Domain`]. The shadow holds the
//! persisted content of the lines that are *not* clean and of no others,
//! so its size follows the unfenced lines, not the pool. The first store
//! that takes a line out of [`LINE_CLEAN`] saves the line's eight words
//! there, the fence that returns the line drops the entry, a fence that
//! finds the line rewritten since its `pwb` refreshes the entry from
//! `words` (an allowed eviction), and [`Pmem::crash`] writes the entry
//! back over each non-clean line that loses the eviction coin. The
//! sanitizer (`sanitize.rs`) reads the same state to judge footprints.
//!
//! **The exclusion rule.** A line's state and its shadow entry change
//! together, under the line's lock bit ([`LINE_LOCK`], in the state byte
//! itself): whenever the bit is free, a shadow entry exists iff the line is
//! not clean. The bit is taken by every store, once per line it overlaps
//! and held across pre-image save, word stores and the mark (a multi-line
//! `write_bytes` / `zero_range` goes line by line, one bit at a time); by
//! `pwb` for its dirty → pending step; by a fence for each line it settles;
//! and by crash, drain and resync for each non-clean line. Loads take
//! nothing. A store therefore cannot be separated from its mark: a
//! neighbour sharing the line waits for the bit before its own store or
//! `pwb`, so it can no longer fence the line clean around words that are
//! in `words` but not yet marked.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::config::{CrashPolicy, LatencyProfile, PmemConfig, SimMode};
use crate::error::PmemError;
use crate::inject::{FaultOp, Injector};
use crate::latency::spin_uncharged;
use crate::sanitize::{san_thread_id, SanViolation, SanitizeMode, Sanitizer};
use crate::stats::{Counter, PmemStats, PoolLocal, StatsSnapshot};

/// Size of a simulated CPU cache line in bytes.
pub const CACHE_LINE: u64 = 64;

const WORDS_PER_LINE: usize = (CACHE_LINE / 8) as usize;

/// The content of one cache line.
type LineWords = [u64; WORDS_PER_LINE];

/// Per-line persistence state: a store makes a line dirty, a `pwb` moves
/// it into the flushing thread's domain (pending), that thread's fence
/// makes it clean — durable — again.
pub(crate) const LINE_CLEAN: u8 = 0;
pub(crate) const LINE_DIRTY: u8 = 1;
pub(crate) const LINE_PENDING: u8 = 2;
/// The line's lock bit (see the module doc), beside the state.
const LINE_LOCK: u8 = 0x80;
/// Beside the state too, set by the first store a line ever gets: until
/// then its words are the zeros the pool was created with, and that store
/// saves them as its pre-image unread. (A fresh page read before it is
/// written takes two page faults, the second with a TLB shootdown — which
/// serialized threads loading fresh memory in different pools.)
const LINE_WRITTEN: u8 = 0x40;
const LINE_STATE: u8 = 0x03;

/// One thread's persistence domain on one pool. The thread owns it — it
/// lives in the thread's entry for the pool (`stats.rs`) — so a `pwb`
/// queues a line and a fence drains the queue without a lock: an `sfence`
/// on real hardware orders only the issuing CPU's `clwb`s, and lines left
/// in other threads' domains at a crash are as vulnerable as dirty lines.
/// A settle (crash, drain, resync) empties every domain by bumping the
/// pool's settle count; each thread empties its own at its next use.
#[derive(Default)]
pub(crate) struct Domain {
    /// The pool's settle count when this domain was last used.
    settles: u64,
    /// The write-pending queue: lines `pwb`ed since this thread's last fence.
    wpq: Vec<u64>,
    /// Sanitizer modes only: this thread has fenced and issued no `pwb`
    /// since, so its next fence orders nothing new (back-to-back fences).
    /// False in an emptied domain: a thread's first fence is never redundant.
    fenced_idle: bool,
}

impl Domain {
    /// This domain at the pool's settle count `settles`: emptied first if
    /// the pool settled since its last use.
    fn at(&mut self, settles: u64) -> &mut Domain {
        if self.settles != settles {
            self.settles = settles;
            self.wpq.clear();
            self.fenced_idle = false;
        }
        self
    }
}

/// The saved words of one slot of the [`Shadow`], on a cache line of
/// their own.
#[repr(align(64))]
struct SlotWords([AtomicU64; WORDS_PER_LINE]);

/// The tags of a bucket of [`Shadow`] slots, on one cache line: per slot,
/// [`tag_of`] the line whose entry it holds, or 0 while free.
#[repr(align(64))]
struct Bucket([AtomicU64; BUCKET_SLOTS]);

const BUCKET_SLOTS: usize = 8;
const SHADOW_BUCKETS: usize = 512;

/// In a slot's tag beside the line: the entry is all zeros, and the slot's
/// words are not written (the pre-image of a line never stored to).
const ZEROS: u64 = 1;

/// A slot's tag for `line`'s entry.
fn tag_of(line: u64) -> u64 {
    (line + 1) << 1
}

/// The persisted content of the non-clean lines, keyed by line: a table of
/// slots in which a line claims a free slot of its bucket with one CAS —
/// no mutex and no allocation while the non-clean lines are few, as they
/// are between two fences — and a map for the lines that found their
/// bucket full (a burst of unfenced stores). An *entry* is read and written
/// under its line's lock bit; tags and mutex only arbitrate between lines.
struct Shadow {
    buckets: Box<[Bucket]>,
    words: Box<[SlotWords]>,
    overflow: Mutex<HashMap<u64, LineWords>>,
}

impl Shadow {
    fn new() -> Shadow {
        Shadow {
            buckets: zeroed(SHADOW_BUCKETS),
            words: zeroed(SHADOW_BUCKETS * BUCKET_SLOTS),
            overflow: Mutex::default(),
        }
    }

    /// The slots of `line`'s bucket: each one's index and tag.
    #[inline]
    fn bucket(&self, line: u64) -> impl Iterator<Item = (usize, &AtomicU64)> {
        let hash = line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        let bucket = hash as usize % SHADOW_BUCKETS;
        (bucket * BUCKET_SLOTS..).zip(&self.buckets[bucket].0)
    }

    /// The slot holding `line`'s entry, if its bucket has it. Acquire pairs
    /// with the Release that freed a slot: its previous tenant is done with
    /// the words.
    #[inline]
    fn slot(&self, line: u64) -> Option<(usize, &AtomicU64)> {
        self.bucket(line)
            .find(|(_, tag)| tag.load(Ordering::Acquire) & !ZEROS == tag_of(line))
    }

    /// Record what is persisted of `line` (`None`: zeros): its first entry
    /// (`fresh`, the line was clean) or a newer one in place of the one it
    /// has.
    #[inline]
    fn save(&self, line: u64, persisted: Option<LineWords>, fresh: bool) {
        let new = tag_of(line) | if persisted.is_none() { ZEROS } else { 0 };
        let claim = |(_, tag): &(usize, &AtomicU64)| {
            tag.load(Ordering::Relaxed) == 0
                && tag
                    .compare_exchange(0, new, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        };
        let slot = match self.slot(line) {
            Some((slot, tag)) => {
                // Only this line's lock holder reads the flag.
                tag.store(new, Ordering::Relaxed);
                Some(slot)
            }
            None if fresh => self.bucket(line).find(claim).map(|(slot, _)| slot),
            None => None,
        };
        match (slot, persisted) {
            (Some(slot), Some(persisted)) => {
                for (word, v) in self.words[slot].0.iter().zip(persisted) {
                    word.store(v, Ordering::Relaxed);
                }
            }
            (Some(_), None) => {}
            (None, persisted) => {
                let persisted = persisted.unwrap_or_default();
                self.overflow.lock().insert(line, persisted);
            }
        }
    }

    /// `line`'s entry.
    #[inline]
    fn entry(&self, line: u64) -> Option<LineWords> {
        let Some((slot, tag)) = self.slot(line) else {
            return self.overflow.lock().get(&line).copied();
        };
        Some(if tag.load(Ordering::Relaxed) & ZEROS != 0 {
            [0; WORDS_PER_LINE]
        } else {
            std::array::from_fn(|i| self.words[slot].0[i].load(Ordering::Relaxed))
        })
    }

    /// Drop `line`'s entry, reading none of its words.
    #[inline]
    fn forget(&self, line: u64) {
        if let Some((_, tag)) = self.slot(line) {
            tag.store(0, Ordering::Release);
            return;
        }
        let mut overflow = self.overflow.lock();
        // Drained, the map gives its table back whole (a table a burst
        // grew is large enough for the allocator to unmap it; smaller
        // ones, as `shrink_to` would allocate, stay in the heap).
        if overflow.remove(&line).is_some() && overflow.is_empty() {
            *overflow = HashMap::new();
        }
    }

    /// The lines with an entry, ascending (crash draws its coins in this
    /// order, so it must not be the table's).
    fn lines(&self) -> Vec<u64> {
        let slots = self.buckets.iter().flat_map(|bucket| &bucket.0);
        let tags = slots.map(|tag| tag.load(Ordering::Acquire));
        let mut lines: Vec<u64> = tags
            .filter(|tag| *tag != 0)
            .map(|tag| (tag >> 1) - 1)
            .collect();
        lines.extend(self.overflow.lock().keys());
        lines.sort_unstable();
        lines
    }
}

/// Line states and shadow (see the module doc). Allocated for
/// [`SimMode::CrashSim`] pools and for every pool with a sanitizer mode on.
struct Persistence {
    /// One state byte per line (the benchmark's 448 MiB pools have 7.3 M).
    lines: Box<[AtomicU8]>,
    /// Sanitizer modes only: per line, the compact id of the thread whose
    /// store or `pwb` last advanced it, stamped with the state it left.
    touchers: Option<Box<[AtomicU32]>>,
    /// `CrashSim` only: without it there is nothing to roll back to.
    shadow: Option<Shadow>,
    /// Serializes fence drains, crash, drain and resync against each other.
    crash_lock: Mutex<()>,
    /// How often the pool settled: each thread's [`Domain`] is as of one
    /// count, and empty at any later one. Changed under `crash_lock`.
    settles: AtomicU64,
}

impl Persistence {
    /// Take `line`'s lock bit, waiting out another holder (a few word
    /// stores and at most one shadow update long).
    #[inline]
    fn lock(&self, line: u64) -> LineGuard<'_> {
        let byte = &self.lines[line as usize];
        loop {
            // Acquire pairs with the Release store of the holder's drop.
            let found = byte.fetch_or(LINE_LOCK, Ordering::Acquire);
            if found & LINE_LOCK == 0 {
                let (state, written) = (found & LINE_STATE, found & LINE_WRITTEN != 0);
                return LineGuard {
                    p: self,
                    line,
                    state,
                    written,
                };
            }
            while byte.load(Ordering::Relaxed) & LINE_LOCK != 0 {
                std::thread::yield_now();
            }
        }
    }
}

/// A held line lock: the state the line was found in, changed by
/// [`LineGuard::set`] and published, with the bit released, on drop.
struct LineGuard<'a> {
    p: &'a Persistence,
    line: u64,
    state: u8,
    written: bool,
}

impl LineGuard<'_> {
    /// Move the line to `state` and record the calling thread as the one
    /// that did. The stamp is written under the lock, before the state is
    /// published; a reader trusts it only while it matches the state byte,
    /// so one racing this update sees "unknown", never the wrong thread.
    #[inline]
    fn set(&mut self, state: u8) {
        self.state = state;
        if let Some(touchers) = &self.p.touchers {
            let cell = (san_thread_id() << 2) | state as u32;
            touchers[self.line as usize].store(cell, Ordering::Release);
        }
    }
}

impl Drop for LineGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        #[cfg(test)]
        tests::locked_line_pause();
        let written = if self.written { LINE_WRITTEN } else { 0 };
        self.p.lines[self.line as usize].store(self.state | written, Ordering::Release);
    }
}

/// A simulated byte-addressable non-volatile memory pool.
///
/// Thread safety: the word array is atomic, so concurrent access is memory
/// safe. Like real NVMM, the device provides no synchronization between
/// racing accesses to the *same* object — callers (the heap, the data grid)
/// bring their own locking, exactly as Infinispan does in the paper.
pub struct Pmem {
    size: u64,
    label: String,
    words: Box<[AtomicU64]>,
    /// `None` on a `Performance` pool with the sanitizer off, so the hot
    /// path pays one never-taken branch per store.
    persist: Option<Persistence>,
    latency: LatencyProfile,
    latency_on: bool,
    pub(crate) stats: PmemStats,
    injector: Injector,
    /// Persist-ordering sanitizer; `None` in `Off` mode.
    pub(crate) san: Option<Sanitizer>,
}

/// Atomic integers and structs of them: all-zero bytes are their value 0.
///
/// # Safety
///
/// Implement only for types of which the all-zero bit pattern is a value.
unsafe trait ZeroBits {}
unsafe impl ZeroBits for AtomicU8 {}
unsafe impl ZeroBits for AtomicU32 {}
unsafe impl ZeroBits for AtomicU64 {}
unsafe impl ZeroBits for SlotWords {}
unsafe impl ZeroBits for Bucket {}

/// `n` zeroed atomics (a zero line state is [`LINE_CLEAN`]), as the
/// allocator's zero pages: an array costs DRAM from the first store to
/// each of its pages on. Collecting `n` defaults does the same only where
/// the optimizer turns the loop into `calloc` — not in a debug build.
fn zeroed<T: ZeroBits>(n: usize) -> Box<[T]> {
    // SAFETY: zeroed memory is an initialized `T` for every `T: ZeroBits`.
    unsafe { Box::new_zeroed_slice(n).assume_init() }
}

impl Pmem {
    /// Create a pool per `cfg`. The size is rounded up to a whole number of
    /// cache lines; contents start zeroed (persistently so).
    pub fn new(cfg: PmemConfig) -> Arc<Pmem> {
        // Span timestamps come from the modeled device clock, which lives
        // here in jnvm-pmem; the obs crate sits below us in the graph, so
        // the clock is installed at runtime (first installation wins).
        jnvm_obs::install_clock(crate::latency::thread_charged_ns);
        let size = cfg.size.div_ceil(CACHE_LINE) * CACHE_LINE;
        let nwords = (size / 8) as usize;
        let nlines = (size / CACHE_LINE) as usize;
        let crash_sim = cfg.mode == SimMode::CrashSim;
        let san = Sanitizer::new(cfg.sanitize);
        let persist = (crash_sim || san.is_some()).then(|| Persistence {
            lines: zeroed(nlines),
            touchers: san.as_ref().map(|_| zeroed(nlines)),
            shadow: crash_sim.then(Shadow::new),
            crash_lock: Mutex::new(()),
            settles: AtomicU64::new(0),
        });
        Arc::new(Pmem {
            size,
            label: cfg.label,
            words: zeroed(nwords),
            persist,
            latency_on: !cfg.latency.is_off(),
            latency: cfg.latency,
            stats: PmemStats::default(),
            injector: Injector::default(),
            san,
        })
    }

    /// Pool size in bytes.
    pub fn len(&self) -> u64 {
        self.size
    }

    /// The device identity label from [`PmemConfig::with_label`] (empty
    /// when none was set). Multi-device harnesses use it to report which
    /// replica's device a crash plan was armed on.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True only for a zero-sized pool.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Whether crash simulation is available.
    pub fn crash_sim_enabled(&self) -> bool {
        self.shadow().is_some()
    }

    fn shadow(&self) -> Option<&Shadow> {
        self.persist.as_ref()?.shadow.as_ref()
    }

    /// The device operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the operation counters.
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Crash-point injection state (see `inject.rs`).
    pub(crate) fn injector(&self) -> &Injector {
        &self.injector
    }

    /// Bump the injected-crash counter (called by the engine only).
    pub(crate) fn record_injected_crash(&self) {
        self.stats.add(Counter::injected_crashes, 1);
    }

    /// Bump the secondary-unwind counter (called by the engine only).
    pub(crate) fn record_secondary_unwind(&self) {
        self.stats.add(Counter::secondary_unwinds, 1);
    }

    #[inline]
    pub(crate) fn check(&self, addr: u64, len: u64) {
        if addr.checked_add(len).is_none_or(|end| end > self.size) {
            panic!(
                "pmem access out of bounds: addr={addr:#x} len={len} size={}",
                self.size
            );
        }
    }

    #[inline]
    fn lines_touched(addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        (addr + len - 1) / CACHE_LINE - addr / CACHE_LINE + 1
    }

    #[inline]
    fn charge_read(&self, addr: u64, len: u64) {
        let ns = if self.latency_on {
            self.latency.read_line_ns * Self::lines_touched(addr, len)
        } else {
            0
        };
        self.stats.with_local(|local, charged| {
            local.cells.add(Counter::reads, 1);
            local.cells.add(Counter::bytes_read, len);
            charged.set(charged.get() + ns);
        });
        spin_uncharged(ns);
    }

    #[inline]
    fn charge_write(&self, len: u64) {
        self.stats.with_local(|local, _| {
            local.cells.add(Counter::writes, 1);
            local.cells.add(Counter::bytes_written, len);
        });
    }

    /// Take `line`'s lock for a store into it. On a line found clean the
    /// pre-image is saved first; the returned guard marks the line dirty
    /// when the caller drops it, after writing its words.
    #[inline]
    fn enter_store(&self, line: u64) -> Option<LineGuard<'_>> {
        let p = self.persist.as_ref()?;
        let mut held = p.lock(line);
        if held.state == LINE_CLEAN {
            if let Some(shadow) = &p.shadow {
                let pre_image = held.written.then(|| self.line_words(line));
                shadow.save(line, pre_image, true);
            }
        }
        held.written = true;
        held.set(LINE_DIRTY);
        Some(held)
    }

    /// Run `store(a, n)` over `[addr, addr + len)` one line's piece at a
    /// time, each under its line's lock.
    #[inline]
    fn store_by_line(&self, addr: u64, len: u64, mut store: impl FnMut(u64, u64)) {
        let (mut a, end) = (addr, addr + len);
        while a < end {
            let n = (CACHE_LINE - a % CACHE_LINE).min(end - a);
            let _held = self.enter_store(a / CACHE_LINE);
            store(a, n);
            a += n;
        }
    }

    // ------------------------------------------------------------------
    // Word-level raw access.
    // ------------------------------------------------------------------

    #[inline]
    fn load_word(&self, widx: usize) -> u64 {
        self.words[widx].load(Ordering::Relaxed)
    }

    #[inline]
    fn store_word(&self, widx: usize, v: u64) {
        self.words[widx].store(v, Ordering::Relaxed);
    }

    #[inline]
    fn line_words(&self, line: u64) -> LineWords {
        let base = line as usize * WORDS_PER_LINE;
        std::array::from_fn(|i| self.load_word(base + i))
    }

    /// Read an unsigned integer of `len` bytes (1, 2, 4 or 8) at any byte
    /// address, crossing word boundaries if necessary.
    #[inline]
    fn read_uint(&self, addr: u64, len: u64) -> u64 {
        self.check(addr, len);
        self.charge_read(addr, len);
        let widx = (addr / 8) as usize;
        let shift = (addr % 8) * 8;
        let mut v = self.load_word(widx) >> shift;
        if shift + len * 8 > 64 {
            // The value straddles two words.
            v |= self.load_word(widx + 1) << (64 - shift);
        }
        if len == 8 {
            v
        } else {
            v & ((1u64 << (len * 8)) - 1)
        }
    }

    /// Write an unsigned integer of `len` bytes at any byte address.
    ///
    /// Sub-word writes are read-modify-write on the containing word(s); like
    /// hardware, racing writers to the *same word* need external ordering,
    /// which upper layers provide.
    #[inline]
    fn write_uint(&self, addr: u64, len: u64, v: u64) {
        self.check(addr, len);
        if self.fault_point(FaultOp::Write, addr) {
            return;
        }
        self.charge_write(len);
        if len == 8 && addr.is_multiple_of(8) {
            let _held = self.enter_store(addr / CACHE_LINE);
            return self.store_word((addr / 8) as usize, v);
        }
        // Sub-word or unaligned: bytewise, a line at a time.
        let bytes = v.to_le_bytes();
        self.store_by_line(addr, len, |a, n| {
            self.copy_in(a, &bytes[(a - addr) as usize..][..n as usize])
        });
    }

    // ------------------------------------------------------------------
    // Typed accessors.
    // ------------------------------------------------------------------

    /// Read a `u64` at `addr` (any alignment).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Write a `u64` at `addr` (any alignment).
    #[inline]
    pub fn write_u64(&self, addr: u64, v: u64) {
        self.write_uint(addr, 8, v)
    }

    /// Read a `u32` at `addr`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_uint(addr, 4) as u32
    }

    /// Write a `u32` at `addr`.
    #[inline]
    pub fn write_u32(&self, addr: u64, v: u32) {
        self.write_uint(addr, 4, v as u64)
    }

    /// Read a `u16` at `addr`.
    #[inline]
    pub fn read_u16(&self, addr: u64) -> u16 {
        self.read_uint(addr, 2) as u16
    }

    /// Write a `u16` at `addr`.
    #[inline]
    pub fn write_u16(&self, addr: u64, v: u16) {
        self.write_uint(addr, 2, v as u64)
    }

    /// Read a single byte at `addr`.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_uint(addr, 1) as u8
    }

    /// Write a single byte at `addr`.
    #[inline]
    pub fn write_u8(&self, addr: u64, v: u8) {
        self.write_uint(addr, 1, v as u64)
    }

    /// Read an `i32` at `addr`.
    #[inline]
    pub fn read_i32(&self, addr: u64) -> i32 {
        self.read_u32(addr) as i32
    }

    /// Write an `i32` at `addr`.
    #[inline]
    pub fn write_i32(&self, addr: u64, v: i32) {
        self.write_u32(addr, v as u32)
    }

    /// Read an `i64` at `addr`.
    #[inline]
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Write an `i64` at `addr`.
    #[inline]
    pub fn write_i64(&self, addr: u64, v: i64) {
        self.write_u64(addr, v as u64)
    }

    /// Read an `f64` at `addr`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write an `f64` at `addr`.
    #[inline]
    pub fn write_f64(&self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits())
    }

    /// Fill `out` from the pool starting at `addr`.
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        let len = out.len() as u64;
        self.check(addr, len);
        self.charge_read(addr, len);
        let mut i = 0usize;
        let mut a = addr;
        // Head: bytes up to the next word boundary.
        while i < out.len() && !a.is_multiple_of(8) {
            out[i] = (self.load_word((a / 8) as usize) >> ((a % 8) * 8)) as u8;
            i += 1;
            a += 1;
        }
        // Body: whole words.
        while out.len() - i >= 8 {
            let w = self.load_word((a / 8) as usize);
            out[i..i + 8].copy_from_slice(&w.to_le_bytes());
            i += 8;
            a += 8;
        }
        // Tail.
        if i < out.len() {
            let w = self.load_word((a / 8) as usize).to_le_bytes();
            let rest = out.len() - i;
            out[i..].copy_from_slice(&w[..rest]);
        }
    }

    /// Copy `data` into the pool starting at `addr`.
    pub fn write_bytes(&self, addr: u64, data: &[u8]) {
        let len = data.len() as u64;
        self.check(addr, len);
        if self.fault_point(FaultOp::WriteBytes, addr) {
            return;
        }
        self.charge_write(len);
        self.store_by_line(addr, len, |a, n| {
            self.copy_in(a, &data[(a - addr) as usize..][..n as usize])
        });
    }

    /// The word stores of [`Pmem::write_bytes`].
    fn copy_in(&self, addr: u64, data: &[u8]) {
        let mut i = 0usize;
        let mut a = addr;
        while i < data.len() && !a.is_multiple_of(8) {
            let widx = (a / 8) as usize;
            let shift = (a % 8) * 8;
            let old = self.load_word(widx);
            let mask = 0xffu64 << shift;
            self.store_word(widx, (old & !mask) | ((data[i] as u64) << shift));
            i += 1;
            a += 1;
        }
        while data.len() - i >= 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[i..i + 8]);
            self.store_word((a / 8) as usize, u64::from_le_bytes(b));
            i += 8;
            a += 8;
        }
        if i < data.len() {
            let widx = (a / 8) as usize;
            let rest = data.len() - i;
            let mut b = self.load_word(widx).to_le_bytes();
            b[..rest].copy_from_slice(&data[i..]);
            self.store_word(widx, u64::from_le_bytes(b));
        }
    }

    /// Zero `len` bytes starting at `addr`.
    pub fn zero_range(&self, addr: u64, len: u64) {
        self.check(addr, len);
        if self.fault_point(FaultOp::Zero, addr) {
            return;
        }
        self.charge_write(len);
        let zeros = [0; CACHE_LINE as usize];
        self.store_by_line(addr, len, |a, n| self.copy_in(a, &zeros[..n as usize]));
    }

    // ------------------------------------------------------------------
    // Atomic word operations (8-byte aligned addresses only).
    // ------------------------------------------------------------------

    /// Atomically add `delta` to the aligned word at `addr`, returning the
    /// previous value. Used for the persistent bump pointer.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned or out of bounds.
    pub fn fetch_add_u64(&self, addr: u64, delta: u64) -> u64 {
        assert!(
            addr.is_multiple_of(8),
            "fetch_add_u64 requires 8-byte alignment"
        );
        self.check(addr, 8);
        if self.fault_point(FaultOp::FetchAdd, addr) {
            // Frozen: report the current value without mutating.
            return self.load_word((addr / 8) as usize);
        }
        self.charge_write(8);
        let _held = self.enter_store(addr / CACHE_LINE);
        self.words[(addr / 8) as usize].fetch_add(delta, Ordering::AcqRel)
    }

    /// Atomically compare-and-swap the aligned word at `addr`.
    ///
    /// Returns `Ok(current)` on success and `Err(actual)` on failure.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned or out of bounds.
    pub fn cas_u64(&self, addr: u64, current: u64, new: u64) -> Result<u64, u64> {
        assert!(addr.is_multiple_of(8), "cas_u64 requires 8-byte alignment");
        self.check(addr, 8);
        if self.fault_point(FaultOp::Cas, addr) {
            // Frozen: fail the swap, reporting the current value.
            return Err(self.load_word((addr / 8) as usize));
        }
        self.charge_write(8);
        // Dirty even when the swap fails, as a failed `lock cmpxchg` still
        // takes the line exclusive.
        let _held = self.enter_store(addr / CACHE_LINE);
        self.words[(addr / 8) as usize].compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
    }

    // ------------------------------------------------------------------
    // Persistence primitives (Izraelevitz et al., as adapted by the paper).
    // ------------------------------------------------------------------

    /// `pwb`: enqueue the cache line containing `addr` into the calling
    /// thread's write-pending queue (its persistence domain). Persistence
    /// is only guaranteed after a subsequent [`Pmem::pfence`] or
    /// [`Pmem::psync`] **on the same thread** — another thread's fence
    /// does not cover this `pwb`, just as another CPU's `sfence` does not
    /// order this CPU's `clwb`s.
    pub fn pwb(&self, addr: u64) {
        self.check(addr, 1);
        self.write_back(std::iter::once(addr));
    }

    /// `pwb` over every line overlapping `[addr, addr + len)`.
    pub fn pwb_range(&self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.check(addr, len);
        let lines = addr / CACHE_LINE..=(addr + len - 1) / CACHE_LINE;
        self.write_back(lines.map(|line| line * CACHE_LINE));
    }

    /// `pwb` of each of `lines` (line numbers: byte address / [`CACHE_LINE`]),
    /// in order: the same ops as one [`Pmem::pwb`] per line, with the
    /// thread's bookkeeping looked up once.
    pub fn pwb_lines(&self, lines: &[u64]) {
        for line in lines {
            self.check(line * CACHE_LINE, CACHE_LINE);
        }
        self.write_back(lines.iter().map(|line| line * CACHE_LINE));
    }

    /// The `pwb` body, over the line of each of `addrs`: a crash point
    /// each, then one thread-local access for the lot.
    #[inline]
    fn write_back(&self, addrs: impl Iterator<Item = u64> + Clone) {
        // Every crash point first: a `pwb` only moves a line from dirty to
        // pending, which a crash treats alike, so each point leaves the
        // image it would leave between the lines' `pwb`s.
        for addr in addrs.clone() {
            if self.fault_point(FaultOp::Pwb, addr) {
                return;
            }
        }
        // Read before any line is touched: a settle after this read makes
        // the lines queued below stale at the next fence.
        let settles = self
            .persist
            .as_ref()
            .map(|p| p.settles.load(Ordering::Acquire));
        let ns = if self.latency_on {
            self.latency.pwb_ns
        } else {
            0
        };
        self.stats.with_local(|local, charged| {
            for addr in addrs {
                local.cells.add(Counter::pwbs, 1);
                jnvm_obs::note_pwb();
                charged.set(charged.get() + ns);
                spin_uncharged(ns);
                if let (Some(p), Some(settles)) = (&self.persist, settles) {
                    self.write_back_line(p, addr / CACHE_LINE, local, settles);
                }
            }
        });
    }

    /// Move `line` into the calling thread's domain if it is dirty or
    /// pending in another's.
    #[inline]
    fn write_back_line(&self, p: &Persistence, line: u64, local: &mut PoolLocal, settles: u64) {
        let san = self.san.is_some();
        let mut held = p.lock(line);
        // Queue dirty lines; a line another thread already has pending
        // joins this thread's domain too (like `clwb`, flushing it again is
        // legal, and *this* thread's fence must then make it durable even
        // if the original flusher never fences).
        let was_dirty = held.state == LINE_DIRTY;
        let joined = was_dirty || held.state == LINE_PENDING;
        // Wasted work — exactly the redundancy NVTraverse reports as
        // endemic: flushing a clean line (legal), or one this thread
        // flushed itself and has not fenced since (it is already in its
        // queue; the toucher stamp says whose).
        if san && !was_dirty && (!joined || self.line_state(line).1 == san_thread_id()) {
            local.cells.add(Counter::redundant_pwbs, 1);
        }
        if joined {
            held.set(LINE_PENDING);
        }
        drop(held);
        if joined || san {
            let domain = local.domain.at(settles);
            if joined {
                domain.wpq.push(line);
            }
            if san {
                domain.fenced_idle = false;
            }
        }
    }

    /// The one fence body. Under the ADR model the paper assumes, a fenced
    /// `pwb` is durable, so the calling thread's write-pending queue settles
    /// here — and only the caller's: a fence persists the fencing thread's
    /// own pending flushes, nobody else's.
    fn fence(&self, counter: Counter, latency_ns: u64) {
        let ns = if self.latency_on { latency_ns } else { 0 };
        self.stats.with_local(|local, charged| {
            local.cells.add(counter, 1);
            charged.set(charged.get() + ns);
            spin_uncharged(ns);
            let Some(p) = &self.persist else { return };
            let _g = p.crash_lock.lock();
            let domain = local.domain.at(p.settles.load(Ordering::Relaxed));
            if self.san.is_some() && std::mem::replace(&mut domain.fenced_idle, true) {
                local.cells.add(Counter::redundant_fences, 1);
            }
            let shadow = p.shadow.as_ref();
            for line in domain.wpq.drain(..) {
                let mut held = p.lock(line);
                match held.state {
                    // Durable as it stands: nothing to roll back to any more.
                    LINE_PENDING => {
                        if let Some(shadow) = shadow {
                            shadow.forget(line);
                        }
                        held.set(LINE_CLEAN);
                    }
                    // Rewritten after its pwb: the current content is
                    // persisted (an allowed eviction) but the line stays
                    // dirty, so a later crash may still lose newer writes.
                    LINE_DIRTY => {
                        if let Some(shadow) = shadow {
                            shadow.save(line, Some(self.line_words(line)), false);
                        }
                    }
                    // Already settled by another thread that had it pending too.
                    _ => {}
                }
            }
        });
    }

    /// `pfence`: order preceding `pwb`s before succeeding ones, making the
    /// calling thread's fenced `pwb`s durable. Lines pending in *other*
    /// threads' queues stay pending.
    pub fn pfence(&self) {
        if !self.fault_point(FaultOp::Pfence, 0) {
            jnvm_obs::note_fence();
            self.fence(Counter::pfences, self.latency.pfence_ns);
        }
    }

    /// `psync`: a `pfence` that additionally waits for the write-pending
    /// queue to reach media. Identical to `pfence` in the simulator (the
    /// paper implements both with `sfence` on its Intel testbed).
    pub fn psync(&self) {
        if !self.fault_point(FaultOp::Psync, 0) {
            jnvm_obs::note_psync();
            self.fence(Counter::psyncs, self.latency.psync_ns);
        }
    }

    // ------------------------------------------------------------------
    // Persist-ordering sanitizer (see `sanitize.rs`).
    // ------------------------------------------------------------------

    /// The pool's sanitizer mode.
    pub fn sanitize_mode(&self) -> SanitizeMode {
        self.san.as_ref().map_or(SanitizeMode::Off, |s| s.mode)
    }

    /// True when line tracking is on (`Log` or `Strict`). Callers with
    /// expensive footprints should gate their construction on this.
    pub fn sanitizer_active(&self) -> bool {
        self.san.is_some()
    }

    /// Declare a labeled **ordering point**: execution passing here
    /// asserts that every cache line overlapping the declared footprint
    /// is fully persisted — written back *and* fenced on the thread that
    /// flushed it. Emitted by `jnvm-core` at FA commit and retire, by the
    /// allocator at root publishes, and by recovery after each replay
    /// worker's closing fence.
    ///
    /// Always counts into [`StatsSnapshot::ordering_points`], even in
    /// `Off` mode (the labeled count replaced the bare `pfence + psync`
    /// counter as the acked-durability denominator). With the sanitizer
    /// on, a dirty footprint line is a missing `pwb`, a write-backed line
    /// flushed by the calling thread is a missing fence, and one flushed
    /// by another thread is a cross-thread domain violation — counted in
    /// `Log` mode, fatal in `Strict`.
    ///
    /// No-op while the device is frozen by an injected crash: the ops a
    /// crash-point sweep skipped would otherwise read as violations.
    pub fn ordering_point(&self, label: &'static str, footprint: &[(u64, u64)]) {
        if self.faults_frozen() {
            return;
        }
        self.stats.add(Counter::ordering_points, 1);
        // Claims the thread's pending pwb/fence counts for this label and
        // records an instant span (one never-taken branch while obs is off).
        jnvm_obs::note_ordering_point(label);
        self.check_footprint(label, footprint, false);
    }

    /// Declare a labeled **publish point**: a durable pointer is about to
    /// be (or was just) written whose targets must at least be written
    /// back. Unlike [`Pmem::ordering_point`] this accepts lines the
    /// *calling* thread has write-backed but not yet fenced — the
    /// publishing thread's own later fence covers pointer and target
    /// together — but still flags dirty lines (a pointer to a
    /// never-flushed header) and lines pending in another thread's
    /// domain. Does not count as an ordering point.
    pub fn publish_point(&self, label: &'static str, footprint: &[(u64, u64)]) {
        if self.faults_frozen() {
            return;
        }
        self.check_footprint(label, footprint, true);
    }

    /// Violations recorded by the `Log`-mode sanitizer (empty in `Off`;
    /// `Strict` panics at the first violation instead of recording).
    pub fn san_violations(&self) -> Vec<SanViolation> {
        match &self.san {
            Some(san) => san.violations.lock().clone(),
            None => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Crash simulation.
    // ------------------------------------------------------------------

    /// Simulate a power failure.
    ///
    /// Every line not persisted via `pwb`+`pfence` *on the same thread* —
    /// dirty, or still pending in some thread's domain — survives or not as
    /// `policy` decides, asked line by line in ascending order (a given
    /// `(policy, non-clean set)` pair always produces the same post-crash
    /// state). A line that does not survive is rolled back to its persisted
    /// content, so subsequent reads observe exactly the surviving state.
    ///
    /// Returns [`PmemError::CrashSimRequired`] on a `Performance`-mode pool.
    ///
    /// Callers must quiesce writer threads first, as with a real power
    /// failure there is no meaningful "result" for racing in-flight writes.
    pub fn crash(&self, policy: &CrashPolicy) -> Result<(), PmemError> {
        self.crash_lines(policy).map(drop)
    }

    /// [`Pmem::crash`], returning how many non-clean lines it settled: the
    /// bits of a [`CrashPolicy::Keep`] mask that name a line.
    pub(crate) fn crash_lines(&self, policy: &CrashPolicy) -> Result<u32, PmemError> {
        if !self.crash_sim_enabled() {
            return Err(PmemError::CrashSimRequired);
        }
        self.stats.add(Counter::crashes, 1);
        Ok(self.settle_all(policy.survivors()))
    }

    /// Every line clean, every domain empty: the shared body of crash,
    /// orderly drain and cache resync. A non-clean line keeps its content
    /// iff `survives`, asked line by line in ascending order; otherwise it
    /// is rolled back to its shadow entry. Returns how many lines it asked
    /// about. Work is proportional to the non-clean lines (without a
    /// shadow to name them, to the pool).
    fn settle_all(&self, mut survives: impl FnMut() -> bool) -> u32 {
        let Some(p) = &self.persist else { return 0 };
        let _g = p.crash_lock.lock();
        let non_clean = match &p.shadow {
            Some(shadow) => shadow.lines(),
            None => (0..p.lines.len() as u64)
                .filter(|line| {
                    p.lines[*line as usize].load(Ordering::Acquire) & !LINE_WRITTEN != LINE_CLEAN
                })
                .collect(),
        };
        let mut asked = 0;
        for line in non_clean {
            let mut held = p.lock(line);
            if held.state == LINE_CLEAN {
                continue;
            }
            asked += 1;
            let persisted = p.shadow.as_ref().and_then(|shadow| {
                let persisted = shadow.entry(line);
                shadow.forget(line);
                persisted
            });
            if let (false, Some(persisted)) = (survives(), persisted) {
                let base = line as usize * WORDS_PER_LINE;
                for (i, word) in persisted.into_iter().enumerate() {
                    self.store_word(base + i, word);
                }
            }
            held.set(LINE_CLEAN);
        }
        // Every thread's domain is now stale: each empties its own at its
        // next `pwb` or fence (no pending lines, no fence history).
        p.settles.fetch_add(1, Ordering::Release);
        asked
    }

    /// Persist every dirty line (an orderly shutdown / eADR-style flush),
    /// regardless of which thread's domain it was pending in. On a
    /// `Performance` pool only the line state is reset.
    pub fn drain_all(&self) {
        self.settle_all(|| true);
    }

    /// Roll every non-clean line back to its persisted content, marking it
    /// clean, and empty every thread's persistence domain. On a
    /// `Performance` pool only the line state is reset.
    ///
    /// Torture harnesses call this after an injected crash once every
    /// worker thread has quiesced: a worker that entered a store just
    /// before the trigger fired may complete that store *after*
    /// [`Pmem::crash`] settled the pool — exactly like a CPU mid-store at
    /// power loss — and those ghost writes must not be visible to
    /// recovery. The persisted content (the crash image) is not touched.
    pub fn resync_cache(&self) {
        self.settle_all(|| false);
    }

    /// Direct read of the *persisted* (post-strict-crash) content of a
    /// word, bypassing the cache view. Test-support API; the cache view
    /// itself on `Performance` pools.
    pub fn media_read_u64(&self, addr: u64) -> u64 {
        assert!(
            addr.is_multiple_of(8),
            "media_read_u64 requires 8-byte alignment"
        );
        self.check(addr, 8);
        self.persistent_word((addr / 8) as usize)
    }

    pub(crate) fn persistent_word(&self, widx: usize) -> u64 {
        self.persistent_line((widx / WORDS_PER_LINE) as u64)[widx % WORDS_PER_LINE]
    }

    /// What a strict crash right now would leave of `line`: its shadow
    /// entry while it is not clean, its words otherwise.
    pub(crate) fn persistent_line(&self, line: u64) -> LineWords {
        let held = self.persist.as_ref().map(|p| p.lock(line));
        let shadowed = match (&held, self.shadow()) {
            (Some(held), Some(shadow)) if held.state != LINE_CLEAN => shadow.entry(line),
            _ => None,
        };
        shadowed.unwrap_or_else(|| self.line_words(line))
    }

    /// Set a word of a freshly created pool, persistently: every line is
    /// clean. A zero is already there — storing it would only map the page.
    pub(crate) fn restore_word(&self, widx: usize, v: u64) {
        if v != 0 {
            self.store_word(widx, v);
            if let Some(p) = &self.persist {
                p.lines[widx / WORDS_PER_LINE].store(LINE_WRITTEN, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn line_count(&self) -> u64 {
        self.size / CACHE_LINE
    }

    pub(crate) fn mode(&self) -> SimMode {
        if self.crash_sim_enabled() {
            SimMode::CrashSim
        } else {
            SimMode::Performance
        }
    }

    /// The sanitizer's read access to the model: a line's state and the
    /// compact id of the thread that brought it there (0 when a racing
    /// store or `pwb` by another thread leaves that undecided).
    pub(crate) fn line_state(&self, line: u64) -> (u8, u32) {
        let p = self.persist.as_ref().expect("the sanitizer's line model");
        let state = p.lines[line as usize].load(Ordering::Acquire) & LINE_STATE;
        let stamp = match &p.touchers {
            Some(touchers) => touchers[line as usize].load(Ordering::Acquire),
            None => 0,
        };
        let decided = stamp & 0b11 == state as u32;
        (state, if decided { stamp >> 2 } else { 0 })
    }

    /// Whether a crash right now would keep the bytes of `[lo, hi)`: every
    /// overlapped line is clean, or the overlapped words equal their shadow
    /// words. `false` on a `Performance` pool: nothing to consult.
    pub(crate) fn range_is_durable(&self, lo: u64, hi: u64) -> bool {
        self.crash_sim_enabled()
            && ((lo / 8) as usize..=((hi - 1) / 8) as usize)
                .all(|w| self.persistent_word(w) == self.load_word(w))
    }

    /// Shadow entries held right now (tests hold it against the number of
    /// non-clean lines).
    #[cfg(test)]
    pub(crate) fn shadow_entries(&self) -> usize {
        self.shadow().expect("a CrashSim pool").lines().len()
    }
}

impl std::fmt::Debug for Pmem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pmem")
            .field("size", &self.size)
            .field("mode", &self.mode())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultPlan, PmemConfig};

    fn dev(size: u64) -> Arc<Pmem> {
        Pmem::new(PmemConfig::crash_sim(size))
    }

    thread_local! {
        /// Test hook: what this thread runs each time it is about to
        /// release a line's lock bit — a store has written its words, a
        /// fence has dropped or refreshed the shadow entry, and the line's
        /// new state is not published yet.
        static LOCKED_LINE_HOOK: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn locked_line_pause() {
        LOCKED_LINE_HOOK.with(|hook| {
            if let Some(pause) = hook.borrow_mut().as_mut() {
                pause()
            }
        });
    }

    /// Run `op` on this thread with `pause` as its locked-line hook.
    fn with_pause(pause: impl FnMut() + 'static, op: impl FnOnce()) {
        LOCKED_LINE_HOOK.with(|hook| *hook.borrow_mut() = Some(Box::new(pause)));
        op();
        LOCKED_LINE_HOOK.with(|hook| *hook.borrow_mut() = None);
    }

    /// A neighbour thread B driven step by step over a channel. A step
    /// handed over from inside a pause needs the line the pausing thread
    /// holds locked, so it must not end in there: `send_mid_op` gives it
    /// time to, and `wait` — called after the paused operation — lets it
    /// end and fails the test if it had not waited.
    struct Neighbour {
        steps: std::sync::mpsc::Sender<fn(&Pmem)>,
        done: std::sync::mpsc::Receiver<()>,
        overtook: std::cell::Cell<bool>,
    }

    impl Neighbour {
        fn spawn<'s>(scope: &'s std::thread::Scope<'s, '_>, p: &'s Pmem) -> Neighbour {
            let (steps, inbox) = std::sync::mpsc::channel::<fn(&Pmem)>();
            let (ack, done) = std::sync::mpsc::channel();
            scope.spawn(move || {
                for step in inbox {
                    step(p);
                    ack.send(()).unwrap();
                }
            });
            Neighbour {
                steps,
                done,
                overtook: false.into(),
            }
        }

        fn send_mid_op(&self, step: fn(&Pmem)) {
            self.steps.send(step).unwrap();
            let grace = std::time::Duration::from_millis(50);
            self.overtook.set(self.done.recv_timeout(grace).is_ok());
        }

        fn wait(&self) {
            assert!(
                !self.overtook.get(),
                "B ran through a line lock another thread held"
            );
            self.done.recv().unwrap();
        }
    }

    fn non_clean_lines(p: &Pmem) -> usize {
        (0..p.line_count())
            .filter(|line| p.line_state(*line).0 != LINE_CLEAN)
            .count()
    }

    /// Regression (store, then mark): every store used to mark its lines
    /// dirty *before* writing its words. A neighbour sharing the line could
    /// then store, `pwb` and fence in between — persisting the line without
    /// the late words and leaving it clean — so the storing thread's own
    /// `pwb` skipped the clean line and a crash lost a store that had been
    /// flushed and fenced by the book. Thread B is handed its step from
    /// inside thread A's store, and now waits there for A's line lock.
    #[test]
    fn neighbour_flush_mid_store_does_not_lose_the_store() {
        type Store = fn(&Pmem);
        let stores: [(&str, Store, u64); 5] = [
            ("write_uint", |p| p.write_u64(0, 1), 1),
            (
                "write_bytes",
                |p| p.write_bytes(0, &[1; 8]),
                0x0101_0101_0101_0101,
            ),
            ("zero_range", |p| p.zero_range(0, 8), 0),
            ("cas_u64", |p| assert_eq!(p.cas_u64(0, 7, 9), Ok(7)), 9),
            (
                "fetch_add_u64",
                |p| assert_eq!(p.fetch_add_u64(0, 5), 7),
                12,
            ),
        ];
        for (name, store, expected) in stores {
            let p = dev(4096);
            p.write_u64(0, 7);
            p.pwb(0);
            p.pfence();
            std::thread::scope(|scope| {
                let b = std::rc::Rc::new(Neighbour::spawn(scope, &p));
                let in_pause = std::rc::Rc::clone(&b);
                // B's step: store its own word of the line, flush, fence.
                let pause = move || {
                    in_pause.send_mid_op(|p| {
                        p.write_u64(8, 2);
                        p.pwb(8);
                        p.pfence();
                    })
                };
                with_pause(pause, || store(&p));
                b.wait();
                p.pwb(0);
                p.pfence();
            });
            p.crash(&CrashPolicy::strict()).unwrap();
            assert_eq!(
                p.read_u64(0),
                expected,
                "{name}: flushed and fenced store lost"
            );
            assert_eq!(p.read_u64(8), 2, "{name}: the neighbour's own store");
        }
    }

    /// Exclusion rule, store side (1): A's first store to a clean line has
    /// saved the pre-image and written its word when neighbour B stores to
    /// the same line, flushes and fences. Without A holding the line's lock
    /// B's fence drops the entry and marks the line clean, A's late mark
    /// leaves a dirty line with no entry, and A's *next*, never flushed
    /// store survives a strict crash.
    #[test]
    fn neighbour_cannot_clean_a_line_between_pre_image_save_and_mark() {
        let p = dev(4096);
        std::thread::scope(|scope| {
            let b = std::rc::Rc::new(Neighbour::spawn(scope, &p));
            let in_pause = std::rc::Rc::clone(&b);
            let pause = move || {
                in_pause.send_mid_op(|p| {
                    p.write_u64(8, 2);
                    p.pwb(8);
                    p.pfence();
                })
            };
            with_pause(pause, || p.write_u64(0, 1));
            b.wait();
        });
        // B's fence persisted the whole line, A's word included.
        assert_eq!((non_clean_lines(&p), p.shadow_entries()), (0, 0));
        p.write_u64(0, 3);
        assert_eq!((non_clean_lines(&p), p.shadow_entries()), (1, 1));
        assert_eq!(p.media_read_u64(0), 1);
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!((p.read_u64(0), p.read_u64(8)), (1, 2));
    }

    /// Exclusion rule, store side (2): two first-storers race the save.
    /// Without the lock B also finds the line clean while A is mid-store
    /// and saves a "pre-image" that already holds A's word, which a strict
    /// crash then restores although nobody flushed it.
    #[test]
    fn racing_first_storers_save_one_pre_image() {
        let p = dev(4096);
        std::thread::scope(|scope| {
            let b = std::rc::Rc::new(Neighbour::spawn(scope, &p));
            let in_pause = std::rc::Rc::clone(&b);
            with_pause(
                move || in_pause.send_mid_op(|p| p.write_u64(8, 2)),
                || p.write_u64(0, 1),
            );
            b.wait();
        });
        assert_eq!((p.read_u64(0), p.read_u64(8)), (1, 2));
        assert_eq!((non_clean_lines(&p), p.shadow_entries()), (1, 1));
        assert_eq!((p.media_read_u64(0), p.media_read_u64(8)), (0, 0));
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!((p.read_u64(0), p.read_u64(8)), (0, 0));
    }

    /// Exclusion rule, fence side: A's fence is settling a pending line —
    /// entry dropped, clean not yet published — when B stores to it.
    /// Without the fence holding the line's lock B finds the line pending,
    /// saves nothing, and the fence then publishes clean over B's mark: a
    /// clean line holding a store nobody flushed, kept by a strict crash.
    #[test]
    fn fence_settling_a_line_excludes_a_new_first_storer() {
        let p = dev(4096);
        p.write_u64(0, 1);
        p.pwb(0);
        std::thread::scope(|scope| {
            let b = std::rc::Rc::new(Neighbour::spawn(scope, &p));
            let in_pause = std::rc::Rc::clone(&b);
            with_pause(
                move || in_pause.send_mid_op(|p| p.write_u64(8, 2)),
                || p.pfence(),
            );
            b.wait();
        });
        assert_eq!((p.read_u64(0), p.read_u64(8)), (1, 2));
        assert_eq!((non_clean_lines(&p), p.shadow_entries()), (1, 1));
        assert_eq!((p.media_read_u64(0), p.media_read_u64(8)), (1, 0));
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!((p.read_u64(0), p.read_u64(8)), (1, 0));
    }

    /// A shadow entry exists iff its line is not clean, at every quiescent
    /// point of a line's life, and nothing is left after a drain, a crash
    /// or a resync.
    #[test]
    fn shadow_entries_track_the_non_clean_lines() {
        let p = dev(4096);
        let check = |entries: usize, what: &str| {
            assert_eq!(p.shadow_entries(), entries, "{what}");
            assert_eq!(non_clean_lines(&p), entries, "{what}");
        };
        check(0, "fresh pool");
        p.write_u64(0, 1);
        p.write_u64(8, 2);
        p.write_bytes(60, &[9; 70]); // lines 0, 1 and 2
        check(3, "stores");
        p.pwb(0);
        p.pwb(64);
        check(3, "pwb keeps the entry");
        p.write_u64(64, 5); // line 1 re-dirtied after its pwb
        p.pfence();
        check(
            2,
            "fence: line 0 settled, line 1 refreshed, line 2 never flushed",
        );
        assert_eq!(p.media_read_u64(64), 5, "the allowed eviction");
        let pb = Arc::clone(&p);
        std::thread::spawn(move || {
            pb.write_u64(256, 7);
            pb.pwb(256);
        })
        .join()
        .unwrap();
        p.pfence(); // a foreign fence settles nothing of B's
        check(3, "foreign fence");
        p.drain_all();
        check(0, "drain_all");
        p.write_u64(0, 3);
        p.write_u64(512, 4);
        check(2, "stores");
        p.crash(&CrashPolicy::adversarial(1)).unwrap();
        check(0, "crash");
        p.write_u64(0, 3);
        p.resync_cache();
        check(0, "resync_cache");
    }

    #[test]
    fn round_trips_all_widths() {
        let p = dev(4096);
        p.write_u8(3, 0xab);
        p.write_u16(10, 0xbeef);
        p.write_u32(20, 0xdeadbeef);
        p.write_u64(40, 0x0123456789abcdef);
        p.write_i32(60, -42);
        p.write_i64(72, i64::MIN + 7);
        p.write_f64(80, -3.5);
        assert_eq!(p.read_u8(3), 0xab);
        assert_eq!(p.read_u16(10), 0xbeef);
        assert_eq!(p.read_u32(20), 0xdeadbeef);
        assert_eq!(p.read_u64(40), 0x0123456789abcdef);
        assert_eq!(p.read_i32(60), -42);
        assert_eq!(p.read_i64(72), i64::MIN + 7);
        assert_eq!(p.read_f64(80), -3.5);
    }

    #[test]
    fn unaligned_u64_crosses_words() {
        let p = dev(4096);
        for off in 0..8u64 {
            let addr = 100 + off;
            let v = 0x1122334455667788u64.wrapping_add(off);
            p.write_u64(addr, v);
            assert_eq!(p.read_u64(addr), v, "offset {off}");
        }
    }

    #[test]
    fn adjacent_writes_do_not_clobber() {
        let p = dev(4096);
        p.write_u8(0, 0x11);
        p.write_u8(1, 0x22);
        p.write_u16(2, 0x4433);
        p.write_u32(4, 0x88776655);
        assert_eq!(p.read_u64(0), 0x8877665544332211);
    }

    #[test]
    fn byte_slices_round_trip_unaligned() {
        let p = dev(4096);
        let data: Vec<u8> = (0..255u8).collect();
        p.write_bytes(13, &data);
        let mut out = vec![0u8; data.len()];
        p.read_bytes(13, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn zero_range_works_unaligned() {
        let p = dev(4096);
        let data = vec![0xffu8; 64];
        p.write_bytes(5, &data);
        p.zero_range(9, 41);
        let mut out = vec![0u8; 64];
        p.read_bytes(5, &mut out);
        for (i, b) in out.iter().enumerate() {
            let addr = 5 + i as u64;
            if (9..50).contains(&addr) {
                assert_eq!(*b, 0, "addr {addr}");
            } else {
                assert_eq!(*b, 0xff, "addr {addr}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let p = dev(64);
        p.write_u64(60, 1);
    }

    #[test]
    fn strict_crash_loses_unflushed_writes() {
        let p = dev(4096);
        p.write_u64(0, 77);
        p.pwb(0);
        p.pfence();
        p.write_u64(128, 88); // never flushed
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(p.read_u64(0), 77);
        assert_eq!(p.read_u64(128), 0);
    }

    #[test]
    fn pwb_without_fence_is_not_durable_under_strict_policy() {
        let p = dev(4096);
        p.write_u64(0, 1);
        p.pwb(0); // queued, never fenced
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(p.read_u64(0), 0);
    }

    #[test]
    fn lenient_crash_keeps_everything() {
        let p = dev(4096);
        p.write_u64(0, 1);
        p.write_u64(512, 2);
        p.crash(&CrashPolicy::lenient()).unwrap();
        assert_eq!(p.read_u64(0), 1);
        assert_eq!(p.read_u64(512), 2);
    }

    /// Bit `i` of a keep mask is the `i`-th non-clean line in address
    /// order, whatever order the lines were written in; `keep(0)` is the
    /// strict image and all bits set the lenient one.
    #[test]
    fn keep_mask_bits_name_non_clean_lines_in_ascending_order() {
        let image = |policy: CrashPolicy| {
            let p = dev(4096);
            p.write_u64(0, 1);
            p.pwb(0);
            p.pfence();
            for line in [5u64, 0, 2] {
                p.write_u64(line * 64 + 8, line + 10);
            }
            p.pwb(2 * 64); // pending, not fenced: still non-clean
            p.crash(&policy).unwrap();
            [0u64, 2, 5].map(|line| p.read_u64(line * 64 + 8))
        };
        assert_eq!(image(CrashPolicy::keep(0b101)), [10, 0, 15]);
        assert_eq!(image(CrashPolicy::keep(0b010)), [0, 12, 0]);
        assert_eq!(image(CrashPolicy::keep(0)), image(CrashPolicy::strict()));
        assert_eq!(image(CrashPolicy::keep(0)), [0, 0, 0]);
        assert_eq!(
            image(CrashPolicy::keep(0b111)),
            image(CrashPolicy::lenient())
        );
        assert_eq!(image(CrashPolicy::keep(0b111)), [10, 12, 15]);
    }

    #[test]
    fn adversarial_crash_is_deterministic_per_seed() {
        let mk = || {
            let p = dev(64 * 1024);
            for i in 0..100u64 {
                p.write_u64(i * 128, i + 1);
            }
            p.crash(&CrashPolicy::adversarial(42)).unwrap();
            (0..100u64).map(|i| p.read_u64(i * 128)).collect::<Vec<_>>()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        // With p=0.5 over 100 lines, some but not all survive.
        assert!(a.iter().any(|v| *v != 0));
        assert!(a.contains(&0));
    }

    #[test]
    fn fence_persists_whole_line() {
        let p = dev(4096);
        // Two values on the same 64-byte line.
        p.write_u64(192, 5);
        p.write_u64(200, 6);
        p.pwb(192);
        p.pfence();
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(p.read_u64(192), 5);
        assert_eq!(p.read_u64(200), 6);
    }

    #[test]
    fn pwb_range_covers_every_line() {
        let p = dev(4096);
        let data = vec![0xabu8; 256];
        p.write_bytes(100, &data);
        p.pwb_range(100, 256);
        p.pfence();
        p.crash(&CrashPolicy::strict()).unwrap();
        let mut out = vec![0u8; 256];
        p.read_bytes(100, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn performance_pool_stores_across_lines() {
        let p = Pmem::new(PmemConfig::perf(4096).with_sanitize(SanitizeMode::Off));
        p.write_bytes(60, &[7; 200]);
        p.zero_range(100, 100);
        p.write_u64(254, u64::MAX);
        let mut out = [0u8; 210];
        p.read_bytes(60, &mut out);
        let expected = |i: usize| match i + 60 {
            100..200 => 0,
            254..262 => 0xff,
            a if a < 260 => 7,
            _ => 0,
        };
        assert!(out.iter().enumerate().all(|(i, b)| *b == expected(i)));
    }

    #[test]
    fn crash_on_performance_pool_errors() {
        let p = Pmem::new(PmemConfig::perf(4096));
        assert!(matches!(
            p.crash(&CrashPolicy::strict()),
            Err(PmemError::CrashSimRequired)
        ));
    }

    #[test]
    fn fetch_add_and_cas() {
        let p = dev(4096);
        assert_eq!(p.fetch_add_u64(8, 5), 0);
        assert_eq!(p.fetch_add_u64(8, 3), 5);
        assert_eq!(p.read_u64(8), 8);
        assert_eq!(p.cas_u64(8, 8, 100), Ok(8));
        assert_eq!(p.cas_u64(8, 8, 200), Err(100));
    }

    #[test]
    fn stats_count_operations() {
        let p = dev(4096);
        p.reset_stats();
        p.write_u64(0, 1);
        p.read_u64(0);
        p.pwb(0);
        p.pfence();
        p.psync();
        let s = p.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.pwbs, 1);
        assert_eq!(s.pfences, 1);
        assert_eq!(s.psyncs, 1);
        assert_eq!(s.bytes_written, 8);
        assert_eq!(s.bytes_read, 8);
    }

    #[test]
    fn drain_all_persists_everything() {
        let p = dev(4096);
        p.write_u64(0, 11);
        p.write_u64(1024, 22);
        p.drain_all();
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(p.read_u64(0), 11);
        assert_eq!(p.read_u64(1024), 22);
    }

    #[test]
    fn size_rounds_up_to_line() {
        let p = Pmem::new(PmemConfig::crash_sim(100));
        assert_eq!(p.len(), 128);
    }

    #[test]
    fn rewrite_after_pwb_may_lose_only_newer_data() {
        let p = dev(4096);
        p.write_u64(0, 1);
        p.pwb(0);
        p.pfence(); // 1 is durable
        p.write_u64(0, 2); // newer, unflushed
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(p.read_u64(0), 1);
    }

    #[test]
    fn foreign_fence_does_not_persist_unfenced_pwb() {
        // Thread A pwbs without fencing; thread B fences. An sfence orders
        // only the issuing CPU's clwbs, so A's line must NOT be durable.
        // The old global write-pending queue drained A's pwb at B's fence
        // and wrongly guaranteed it.
        let p = dev(4096);
        let pa = Arc::clone(&p);
        std::thread::spawn(move || {
            pa.write_u64(0, 41);
            pa.pwb(0); // queued in A's domain, never fenced by A
        })
        .join()
        .unwrap();
        p.pfence(); // B's fence drains B's (empty) domain only
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(
            p.read_u64(0),
            0,
            "another thread's fence persisted A's un-fenced pwb"
        );
    }

    #[test]
    fn own_fence_persists_own_pwbs_only() {
        let p = dev(4096);
        let pa = Arc::clone(&p);
        std::thread::spawn(move || {
            pa.write_u64(0, 41);
            pa.pwb(0); // never fenced by A
        })
        .join()
        .unwrap();
        p.write_u64(128, 42);
        p.pwb(128);
        p.pfence();
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(p.read_u64(0), 0);
        assert_eq!(p.read_u64(128), 42);
    }

    #[test]
    fn pwb_of_pending_line_joins_callers_domain() {
        // A pwbs a line and never fences; B pwbs the same (already
        // pending) line and fences. B's clwb + sfence persists the line on
        // hardware, so it must be durable here too.
        let p = dev(4096);
        let pa = Arc::clone(&p);
        std::thread::spawn(move || {
            pa.write_u64(0, 43);
            pa.pwb(0);
        })
        .join()
        .unwrap();
        p.pwb(0);
        p.pfence();
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(p.read_u64(0), 43);
    }

    #[test]
    fn foreign_pending_lines_face_the_eviction_coin() {
        // Lenient policy: a line pending in a never-fenced thread's domain
        // may still reach media (in-flight WPQ drain at power loss).
        let p = dev(4096);
        let pa = Arc::clone(&p);
        std::thread::spawn(move || {
            pa.write_u64(0, 44);
            pa.pwb(0);
        })
        .join()
        .unwrap();
        p.crash(&CrashPolicy::lenient()).unwrap();
        assert_eq!(p.read_u64(0), 44);
    }

    /// A domain is as of one settle: what a thread `pwb`ed before a crash
    /// is gone from its queue, so its first fence after the crash persists
    /// nothing a neighbour stored since — here after a plain crash and
    /// after an injected one that pre-empted a batched `pwb` midway.
    #[test]
    fn a_fence_after_a_crash_settles_nothing_of_the_post_crash_image() {
        let neighbour_stores = |p: &Arc<Pmem>| {
            let pb = Arc::clone(p);
            std::thread::spawn(move || pb.write_u64(8, 2))
                .join()
                .unwrap();
        };
        let p = dev(4096);
        p.write_u64(0, 1);
        p.pwb(0);
        p.crash(&CrashPolicy::strict()).unwrap();
        neighbour_stores(&p);
        p.pfence();
        assert_eq!(p.media_read_u64(8), 0, "the neighbour never flushed");
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!((p.read_u64(0), p.read_u64(8)), (0, 0));

        let p = dev(4096);
        p.write_u64(0, 1);
        p.write_u64(64, 1);
        p.arm_faults(FaultPlan::crash_at(1)); // the second line's pwb
        let crashed = crate::catch_crash(|| p.pwb_lines(&[0, 1]));
        assert_eq!(crashed.map_err(|c| c.op_index), Err(1));
        p.disarm_faults();
        neighbour_stores(&p);
        p.pfence();
        assert_eq!(p.media_read_u64(8), 0, "the neighbour never flushed");
    }

    #[test]
    fn resync_cache_discards_post_crash_scribbles() {
        let p = dev(4096);
        p.write_u64(0, 7);
        p.pwb(0);
        p.pfence();
        p.crash(&CrashPolicy::strict()).unwrap();
        // Simulate a racing in-flight store landing after the crash
        // rebuilt the cache: resync must roll the cache back to media.
        p.write_u64(0, 999);
        p.write_u64(64, 999);
        p.resync_cache();
        assert_eq!(p.read_u64(0), 7);
        assert_eq!(p.read_u64(64), 0);
    }

    #[test]
    fn concurrent_writers_distinct_lines() {
        let p = dev(64 * 1024);
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let addr = (t * 1000 + i) * 8 % (64 * 1024 - 8);
                        let _ = addr; // distinct ranges per thread below
                        let a = t * 8192 + (i % 1000) * 8;
                        p.write_u64(a, t + 1);
                        p.pwb(a);
                    }
                    p.pfence();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        p.crash(&CrashPolicy::strict()).unwrap();
        for t in 0..8u64 {
            assert_eq!(p.read_u64(t * 8192), t + 1);
        }
    }
}
