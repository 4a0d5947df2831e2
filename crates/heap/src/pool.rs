//! Memory-pool allocators for small fixed-size objects (§4.4).
//!
//! A whole 256-B block per 20-byte string wastes NVMM to internal
//! fragmentation. Pool allocators pack several objects of the same size
//! class into one span. The paper pools *immutable* objects only, because
//! its failure-atomic algorithm of §4.2 copies whole blocks and two mutable
//! objects sharing one would make the in-flight copies diverge. This
//! runtime's failure-atomic blocks log the words they write, never a block
//! (DESIGN.md §3), so a slot holds any object that never grows: the map's
//! entries and the kvstore's records as well as strings and byte blobs.
//!
//! A pool **span** is [`SPAN_BYTES`](crate::SPAN_BYTES) of consecutive
//! blocks (16 at 256 B) under one header and one meta word; its slots pack
//! the rest in one geometry per class:
//!
//! ```text
//! +0   master word    id = CLASS_ID_POOL, valid = 1, next = 0
//! +8   meta word      slot payload bytes (u32) | slot count (u32)
//! +16  slot[0]        mini-header (1 word, same encoding as Table 2,
//!                     next field unused) followed by the payload
//! ...  slot[i]        right after slot[i - 1], across block boundaries —
//!                     or at the next cache line, where it would otherwise
//!                     span more lines than `max(2, ⌈(8 + payload) / 64⌉)`
//! ```
//!
//! The line rule keeps a full slot's write-back as short as its size
//! allows: a 100-B value (a 112-B slot) takes 2 lines, never 3, so a
//! field update writes back no more than it did from a 256-B pool block.
//! Slots of a line or less pack back to back.
//!
//! Slot classes are a ladder: a payload rounds up to a multiple of
//! [`POOL_CLASS_STEP`], from [`POOL_MIN_PAYLOAD`] to [`POOL_MAX_PAYLOAD`].
//! The carve writes the slot count, and nothing reads it: a span's count
//! follows from its slot class.
//!
//! Spans live in their own region at the top of the heap, below which the
//! chain blocks grow ([`BlockHeap::is_span_addr`]): an address there is a
//! pooled object's — the address of its mini-header —, any other a block
//! object's master. Recovery visits the region span by span and skips a
//! span whose master word is zero, so no word inside a span is ever read
//! as a block header. Recovery frees an empty span into the heap's
//! free-span queue, never into the block free queue; free space changes
//! regions only where the two meet, when one runs out (see
//! `BlockHeap::reserve`).
//!
//! Which slot class a span holds is also kept in DRAM, one byte per span
//! (the class index + 1, 0 while unknown), so that locating, sizing and
//! freeing a slot read nothing from the device. The byte is written when a
//! span is carved and when recovery first meets the span
//! ([`PoolManager::is_slot_addr`], [`PoolManager::scan_span`]); a lookup
//! that finds 0 reads the meta word once and fills it in. Recovery's sweep
//! clears the byte of every span it frees.
//!
//! Recovery keeps a pooled slot's liveness as one bit of a [`LiveBitmap`]
//! ([`PoolManager::new_slot_bitmap`]): bit `span × slots_max + ordinal`,
//! where `slots_max` is the slots per span of the smallest class, so every
//! class's slots fit. [`PoolManager::rebuild`] sweeps from that bitmap and
//! the table, reading no meta word.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jnvm_pmem::CACHE_LINE;
use parking_lot::Mutex;

use crate::alloc::BlockHeap;
use crate::error::HeapError;
use crate::layout::{BlockHeader, CLASS_ID_POOL, HEADER_BYTES};
use crate::scan::LiveBitmap;

/// The smallest slot payload (bytes): the first rung of the class ladder.
const POOL_MIN_PAYLOAD: u64 = 16;
/// The distance between two slot classes' payloads.
const POOL_CLASS_STEP: u64 = 8;
/// The largest slot payload: a larger object takes a chain of blocks.
const POOL_MAX_PAYLOAD: u64 = 232;
/// Slot classes on the ladder.
const CLASSES: usize = ((POOL_MAX_PAYLOAD - POOL_MIN_PAYLOAD) / POOL_CLASS_STEP + 1) as usize;
/// A span's master word and meta word, before its first slot.
const SPAN_HEAD: u64 = 16;
/// Lines of cleared mini-headers a recycled carve writes back per fence:
/// no crash point inside the carve faces more than these few non-clean
/// lines, so an every-image crash sweep can enumerate its images.
const CLEAR_LINES: usize = 8;

/// The slot payload of every class, ascending.
pub fn pool_slot_classes() -> impl Iterator<Item = u64> {
    (POOL_MIN_PAYLOAD..=POOL_MAX_PAYLOAD).step_by(POOL_CLASS_STEP as usize)
}

/// Per-size-class pool allocators over a [`BlockHeap`].
pub struct PoolManager {
    heap: Arc<BlockHeap>,
    /// Per class, the byte offset in its span of every slot, ascending.
    offsets: Vec<Box<[u32]>>,
    /// Volatile free-slot queues, one per class; rebuilt at recovery.
    queues: Vec<Mutex<VecDeque<u64>>>,
    /// The slot-class table: per span, its class index + 1, or 0 while
    /// unknown (see the module doc). Accessed `Relaxed`: a byte publishes
    /// nothing but itself, and a reader that still finds 0 reads the meta
    /// word, which the carve stored before any slot left this manager.
    slot_class: Box<[AtomicU8]>,
    /// Slots per span of the smallest class: the slot bitmap's stride.
    slots_max: u64,
}

impl PoolManager {
    /// Create the pool manager for `heap`.
    pub fn new(heap: Arc<BlockHeap>) -> PoolManager {
        // Zeroed by the allocator, not by a loop: a page of the table costs
        // DRAM only once a span in its range is known.
        // SAFETY: all-zero bytes are an `AtomicU8` of value 0.
        let slot_class = unsafe { Box::new_zeroed_slice(heap.max_spans() as usize).assume_init() };
        let offsets: Vec<Box<[u32]>> = pool_slot_classes()
            .map(|payload| slot_offsets(heap.span_bytes(), payload))
            .collect();
        let slots_max = offsets[0].len() as u64;
        PoolManager {
            heap,
            offsets,
            queues: (0..CLASSES).map(|_| Mutex::new(VecDeque::new())).collect(),
            slot_class,
            slots_max,
        }
    }

    /// The heap this manager allocates from.
    pub fn heap(&self) -> &Arc<BlockHeap> {
        &self.heap
    }

    /// Largest payload a pooled object may have.
    pub fn max_payload(&self) -> u64 {
        POOL_MAX_PAYLOAD
    }

    /// Whether `addr` refers to a pooled object (mini-header address) rather
    /// than a block object (master address): whether it lies in the span
    /// region.
    pub fn is_pooled_addr(&self, addr: u64) -> bool {
        self.heap.is_span_addr(addr)
    }

    /// Allocate a slot of at least `payload` bytes. Returns the mini-header
    /// address, and stores nothing to it: the slot's mini-header is the
    /// FREE word its last free stored, or the zero of a freshly carved
    /// slot — invalid either way, as a fresh allocation must be (§4.1.4).
    /// The caller stores the object's header: in place when it allocates
    /// outside a failure-atomic block, at commit inside one.
    pub fn alloc(&self, payload: u64) -> Result<u64, HeapError> {
        if payload > POOL_MAX_PAYLOAD {
            return Err(HeapError::ObjectTooLargeForPool(payload));
        }
        let rung = payload.max(POOL_MIN_PAYLOAD) - POOL_MIN_PAYLOAD;
        let ci = rung.div_ceil(POOL_CLASS_STEP) as usize;
        let recycled = self.queues[ci].lock().pop_front();
        match recycled {
            Some(addr) => Ok(addr),
            None => self.carve(ci),
        }
    }

    /// Carve an empty span for class index `ci`: queue every slot but the
    /// first, and return the first.
    fn carve(&self, ci: usize) -> Result<u64, HeapError> {
        let slot_payload = class_payload(ci);
        let (span, zero) = self.heap.take_span()?;
        let base = self.heap.span_addr(span);
        let pmem = self.heap.pmem();
        self.know(span, ci);
        let slots: Vec<u64> = self.slots_of(span, ci).collect();
        if !zero {
            // A span from the free-span queue holds its previous life's
            // bytes, which a header scan of the span reads as mini-headers:
            // clear every slot's, and fence before the master word below
            // can reach media — else eviction could persist the master's
            // line without another line's cleared word, and a stale word
            // that decodes as a valid header would count as a live object.
            // (A span from the cursor reads zero: its slots are free
            // already.) The clears go out [`CLEAR_LINES`] lines to a fence.
            let lines: Vec<&[u64]> = slots
                .chunk_by(|a, b| a / CACHE_LINE == b / CACHE_LINE)
                .collect();
            for lines in lines.chunks(CLEAR_LINES) {
                for line in lines {
                    line.iter().for_each(|&slot| pmem.write_u64(slot, 0));
                    pmem.pwb(line[0]);
                }
                pmem.pfence();
            }
            let footprint: Vec<(u64, u64)> = slots.iter().map(|&s| (s, HEADER_BYTES)).collect();
            pmem.ordering_point("pool-carve", &footprint);
        }
        // The master word and the meta word, neighbours on the span's first
        // line, in one store. Their line must be durable before any slot
        // inside this span is validated; pwb now, the allocating thread's
        // next pfence (always executed before an object becomes reachable)
        // orders it.
        let header = BlockHeader {
            id: CLASS_ID_POOL,
            valid: true,
            next: 0,
        };
        let mut head = [0u8; SPAN_HEAD as usize];
        head[..8].copy_from_slice(&header.encode().to_le_bytes());
        head[8..].copy_from_slice(&(slot_payload | (slots.len() as u64) << 32).to_le_bytes());
        pmem.write_bytes(base, &head);
        pmem.pwb(base);
        pmem.publish_point("pool-carve", &[(base, SPAN_HEAD)]);
        self.queues[ci].lock().extend(&slots[1..]);
        Ok(slots[0])
    }

    /// Free a pooled object: [`PoolManager::invalidate`], then
    /// [`PoolManager::release`]. Reads nothing from the device.
    ///
    /// Fails with [`HeapError::UnknownPoolClass`] if the table does not know
    /// the span and its meta word is corrupt; the slot is then invalid but
    /// never recycled.
    pub fn free(&self, addr: u64) -> Result<(), HeapError> {
        self.invalidate(addr);
        self.release(addr)
    }

    /// Persistently clear the mini-header of the pooled object at `addr`
    /// (store + `pwb`, no fence, like [`BlockHeap::invalidate_object`]). The
    /// cleared word is what a carved free slot holds; both recoveries keep
    /// only a slot whose mini-header is valid, so nothing reads the old one
    /// back.
    pub fn invalidate(&self, addr: u64) {
        self.write_mini_pwb(addr, BlockHeader::FREE);
    }

    /// Recycle the slot at `addr` through its class's free queue, touching
    /// no NVMM: the slot class comes from the DRAM table. See
    /// [`PoolManager::free`] for the error.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not lie on a slot boundary of a span — that
    /// indicates heap corruption or a non-pooled address.
    pub fn release(&self, addr: u64) -> Result<(), HeapError> {
        let span = self.heap.span_of_addr(addr);
        let ci = self.class_index(span)?;
        assert!(
            self.slot_ordinal(addr, span, ci).is_some(),
            "address {addr:#x} is not on a slot boundary"
        );
        self.queues[ci].lock().push_back(addr);
        Ok(())
    }

    /// Read the mini-header of the pooled object at `addr`.
    pub fn read_mini(&self, addr: u64) -> BlockHeader {
        BlockHeader::decode(self.heap.pmem().read_u64(addr))
    }

    /// Store the mini-header of the pooled object at `addr` (no flush).
    pub fn write_mini(&self, addr: u64, h: BlockHeader) {
        self.heap.pmem().write_u64(addr, h.encode());
    }

    fn write_mini_pwb(&self, addr: u64, h: BlockHeader) {
        self.write_mini(addr, h);
        self.heap.pmem().pwb(addr);
    }

    /// Set the validity of a pooled object and `pwb` its line (fence-free,
    /// as with [`BlockHeap::set_valid`]).
    pub fn set_valid(&self, addr: u64, valid: bool) {
        let mut h = self.read_mini(addr);
        h.valid = valid;
        self.write_mini_pwb(addr, h);
    }

    /// Slot payload capacity of the pooled object at `addr`, from the DRAM
    /// slot-class table (see [`PoolManager::free`] for the error).
    pub fn slot_payload(&self, addr: u64) -> Result<u64, HeapError> {
        Ok(class_payload(
            self.class_index(self.heap.span_of_addr(addr))?,
        ))
    }

    /// The class index the DRAM table holds for span `span`, if it knows it.
    fn known(&self, span: u64) -> Option<usize> {
        (self.slot_class[span as usize].load(Ordering::Relaxed) as usize).checked_sub(1)
    }

    /// Record that span `span` holds slots of class `ci`.
    fn know(&self, span: u64, ci: usize) {
        self.slot_class[span as usize].store(ci as u8 + 1, Ordering::Relaxed);
    }

    /// The class index of span `span`: from the DRAM table, or — on a miss
    /// — from its meta word, read once and remembered.
    ///
    /// Fails with [`HeapError::UnknownPoolClass`] if the meta word names no
    /// class of the ladder.
    fn class_index(&self, span: u64) -> Result<usize, HeapError> {
        if let Some(ci) = self.known(span) {
            return Ok(ci);
        }
        let payload = self.heap.pmem().read_u32(self.heap.span_addr(span) + 8) as u64;
        let ci = class_of_payload(payload).ok_or(HeapError::UnknownPoolClass { span, payload })?;
        self.know(span, ci);
        Ok(ci)
    }

    /// The class index of a carved span, from its master and meta words
    /// (one 16-byte read), remembered; `None` for a span that is free or
    /// corrupt.
    fn read_head(&self, span: u64) -> Option<usize> {
        let mut head = [0u8; SPAN_HEAD as usize];
        let pmem = self.heap.pmem();
        pmem.read_bytes(self.heap.span_addr(span), &mut head);
        let [master, meta] =
            [0, 8].map(|at| u64::from_le_bytes(head[at..at + 8].try_into().unwrap()));
        let ci = class_of_payload(meta as u32 as u64)
            .filter(|_| BlockHeader::decode(master).id == CLASS_ID_POOL)?;
        self.know(span, ci);
        Some(ci)
    }

    /// The ordinal in span `span`, of class index `ci`, of the slot whose
    /// mini-header is at `addr`; `None` off a slot boundary.
    fn slot_ordinal(&self, addr: u64, span: u64, ci: usize) -> Option<u64> {
        let off = u32::try_from(addr.checked_sub(self.heap.span_addr(span))?).ok()?;
        self.offsets[ci].binary_search(&off).ok().map(|i| i as u64)
    }

    /// A bitmap with one bit per slot of every span, for
    /// [`PoolManager::slot_bit`] and [`PoolManager::rebuild`].
    pub fn new_slot_bitmap(&self) -> LiveBitmap {
        LiveBitmap::new(self.heap.max_spans() * self.slots_max)
    }

    /// The slot bitmap's bit of the slot at `addr`: its span times the
    /// slots the smallest class packs in a span, plus its ordinal there.
    /// The class comes from the DRAM table (see [`PoolManager::free`]);
    /// `None` if `addr` is not a slot boundary of a span.
    pub fn slot_bit(&self, addr: u64) -> Option<u64> {
        let span = self.heap.span_of_addr(addr);
        let i = self.slot_ordinal(addr, span, self.class_index(span).ok()?)?;
        Some(span * self.slots_max + i)
    }

    /// Whether `addr` can be the mini-header address of a slot: it lies in
    /// a carved span of the heap — one the DRAM table knows, or, on a miss,
    /// whose master word says `CLASS_ID_POOL` and whose meta word names a
    /// class of the ladder (one 16-byte read, remembered) — on a slot
    /// boundary. What recovery checks before it trusts a reference word:
    /// any other word would read past the device or take a payload word of
    /// some object for a header.
    pub fn is_slot_addr(&self, addr: u64) -> bool {
        let heap = &self.heap;
        if !heap.is_span_addr(addr) || heap.block_of_addr(addr) >= heap.nblocks() {
            return false;
        }
        let span = heap.span_of_addr(addr);
        let Some(ci) = self.known(span).or_else(|| self.read_head(span)) else {
            return false;
        };
        self.slot_ordinal(addr, span, ci).is_some()
    }

    /// Recovery (§4.1.3 extension for pools): keep the slots whose bit
    /// `slot_bitmap` holds ([`PoolManager::slot_bit`]), persistently clear
    /// the rest of their spans and rebuild the free-slot queues; a span
    /// with no live slot is freed whole into the heap's free-span queue.
    ///
    /// A free span's master word is cleared, so a header scan skips the
    /// span; the rest keeps its bytes, stale slots' valid mini-headers
    /// included, until a carve clears the slot boundaries of its new class
    /// (see `carve`). An image that lost the master's clear shows the span
    /// carved as it was, which the next recovery sweeps again.
    ///
    /// Reads no live span's master or meta word: its class comes from the
    /// DRAM table the mark filled, and its slot count follows from the
    /// class.
    ///
    /// The span scan is partitioned over `threads` sweep workers, span by
    /// span (one worker is the calling thread — see
    /// [`crate::par::run_workers_timed`]). Every clear is idempotent (a
    /// crashed sweep redone from scratch converges), and each worker
    /// `pfence`s its own persistence domain. Free slots and spans enter
    /// their queues in ascending span order regardless of the thread count.
    ///
    /// Returns the live spans and each sweep worker's modeled device time.
    pub fn rebuild(&self, slot_bitmap: &LiveBitmap, threads: usize) -> (u64, Vec<Duration>) {
        let heap = &self.heap;
        let pmem = heap.pmem();
        let count = heap.span_count();
        let chunks = crate::par::partition_range(0, count, threads);
        // Each worker sweeps its `[lo, hi)` of the spans, and returns the
        // (class index, slot addr) pairs to queue and the spans it freed.
        let swept = crate::par::run_workers_timed(chunks, |(lo, hi)| {
            let (mut slots, mut spans) = (Vec::new(), Vec::new());
            for span in lo..hi {
                let bits = span * self.slots_max;
                if !slot_bitmap.any_marked(bits, bits + self.slots_max) {
                    let master = heap.span_addr(span);
                    if pmem.read_u64(master) != 0 {
                        pmem.write_u64(master, 0);
                        pmem.pwb(master);
                    }
                    self.slot_class[span as usize].store(0, Ordering::Relaxed);
                    spans.push(span);
                    continue;
                }
                // Marking a slot's bit learnt its span's class.
                let Some(ci) = self.known(span) else {
                    continue;
                };
                for (i, slot) in self.slots_of(span, ci).enumerate() {
                    if slot_bitmap.is_marked(bits + i as u64) {
                        continue;
                    }
                    if pmem.read_u64(slot) != 0 {
                        pmem.write_u64(slot, 0);
                        pmem.pwb(slot);
                    }
                    slots.push((ci, slot));
                }
            }
            // Drain this worker's write-backs (a persistence domain drains
            // only its owner's queue).
            pmem.pfence();
            (slots, spans)
        });
        let mut worker_times = Vec::with_capacity(swept.len());
        let mut free_spans = Vec::new();
        for ((slots, spans), dt) in swept {
            for (ci, slot) in slots {
                self.queues[ci].lock().push_back(slot);
            }
            free_spans.extend(spans);
            worker_times.push(dt);
        }
        let live = count - free_spans.len() as u64;
        heap.reset_spans(free_spans);
        (live, worker_times)
    }

    /// Visit the slots of span `span`, yielding each slot's mini-header
    /// address and decoded mini-header, and record the span's slot class in
    /// the DRAM table. Used by the header-scan recovery variant. Reads the
    /// span's master and meta words and nothing more if the span is free
    /// (its master word zero) or not recognizable.
    pub fn scan_span(&self, span: u64, mut f: impl FnMut(u64, BlockHeader)) {
        let Some(ci) = self.read_head(span) else {
            return;
        };
        for slot in self.slots_of(span, ci) {
            f(slot, self.read_mini(slot));
        }
    }

    /// The mini-header addresses of the slots of span `span`, of class
    /// index `ci`, in order.
    pub(crate) fn slots_of(&self, span: u64, ci: usize) -> impl Iterator<Item = u64> + '_ {
        let base = self.heap.span_addr(span);
        self.offsets[ci].iter().map(move |off| base + *off as u64)
    }

    /// Number of free slots currently queued (all classes).
    pub fn free_slots(&self) -> u64 {
        self.queues.iter().map(|q| q.lock().len() as u64).sum()
    }
}

/// The slot payload of class index `ci`.
fn class_payload(ci: usize) -> u64 {
    POOL_MIN_PAYLOAD + ci as u64 * POOL_CLASS_STEP
}

/// The class index of the slot payload `payload` read from a meta word.
fn class_of_payload(payload: u64) -> Option<usize> {
    let rung = payload.checked_sub(POOL_MIN_PAYLOAD)?;
    (payload <= POOL_MAX_PAYLOAD && rung.is_multiple_of(POOL_CLASS_STEP))
        .then_some((rung / POOL_CLASS_STEP) as usize)
}

/// The offsets of the slots of `payload` bytes in a span of `span_bytes`
/// (see the module doc): back to back from the span's head, each moved to
/// the next cache line where it would span more than its lines.
fn slot_offsets(span_bytes: u64, payload: u64) -> Box<[u32]> {
    let total = payload + HEADER_BYTES;
    let lines = total.div_ceil(CACHE_LINE).max(2) * CACHE_LINE;
    let mut offsets = Vec::new();
    let mut at = SPAN_HEAD;
    loop {
        if at % CACHE_LINE + total > lines {
            at = at.next_multiple_of(CACHE_LINE);
        }
        if at + total > span_bytes {
            return offsets.into();
        }
        offsets.push(at as u32);
        at += total;
    }
}

impl std::fmt::Debug for PoolManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolManager")
            .field("classes", &CLASSES)
            .field("span_bytes", &self.heap.span_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::HeapConfig;
    use jnvm_pmem::{catch_crash, CrashPolicy, FaultPlan, Pmem, PmemConfig};
    use std::collections::HashSet;

    fn mk() -> (Arc<BlockHeap>, PoolManager) {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let heap = BlockHeap::format(pmem, HeapConfig::default()).unwrap();
        let pm = PoolManager::new(Arc::clone(&heap));
        (heap, pm)
    }

    /// A slot of `payload` bytes holding a valid object of class `id`, its
    /// header stored and written back as an allocation outside a
    /// failure-atomic block, validated, stores it.
    fn alloc_valid(pm: &PoolManager, id: u16, payload: u64) -> u64 {
        let a = pm.alloc(payload).unwrap();
        pm.write_mini(
            a,
            BlockHeader {
                id,
                valid: true,
                next: 0,
            },
        );
        pm.heap().pmem().pwb(a);
        a
    }

    /// Slots of `payload` bytes a span of `pm`'s heap holds.
    fn per_span(pm: &PoolManager, payload: u64) -> u64 {
        pm.offsets[class_of_payload(payload).unwrap()].len() as u64
    }

    /// A recovery sweep keeping exactly the slots of `live`, as the mark
    /// of a restarted runtime would: a new manager over `heap`, which
    /// learns each live slot's class from its span's meta word.
    fn recover(heap: &Arc<BlockHeap>, live: &[u64]) -> PoolManager {
        let pm = PoolManager::new(Arc::clone(heap));
        let bits = pm.new_slot_bitmap();
        for a in live {
            bits.mark(pm.slot_bit(*a).unwrap());
        }
        pm.rebuild(&bits, 1);
        pm
    }

    #[test]
    fn the_ladder_runs_from_16_to_232_by_8() {
        let (_h, pm) = mk();
        assert_eq!(pm.max_payload(), 232);
        let classes: Vec<u64> = pool_slot_classes().collect();
        assert_eq!((classes.len(), classes[0], classes[27]), (CLASSES, 16, 232));
        for (ci, payload) in classes.iter().enumerate() {
            assert_eq!(class_of_payload(*payload), Some(ci));
            assert_eq!(class_payload(ci), *payload);
        }
        for bad in [0, 8, 17, 236, 240] {
            assert_eq!(class_of_payload(bad), None, "{bad}");
        }
    }

    #[test]
    fn alloc_packs_a_span_of_slots() {
        let (heap, pm) = mk();
        let before = heap.stats().blocks_allocated;
        // 16-byte payloads: slot total 24, (4096 - 16) / 24 = 170 per span.
        assert_eq!(per_span(&pm, 16), 170);
        let addrs: Vec<u64> = (0..170).map(|_| pm.alloc(10).unwrap()).collect();
        assert_eq!(heap.stats().blocks_allocated - before, 16, "one span");
        let spans: HashSet<u64> = addrs.iter().map(|a| heap.span_of_addr(*a)).collect();
        assert_eq!(spans.len(), 1);
        // The 171st allocation opens a second span.
        pm.alloc(10).unwrap();
        assert_eq!(heap.stats().blocks_allocated - before, 32);
    }

    /// Pooled addresses lie in the span region, at the top of the heap;
    /// chain blocks below it. Slots straddle block boundaries, and one may
    /// start on one.
    #[test]
    fn pooled_addresses_lie_in_the_span_region() {
        let (heap, pm) = mk();
        let slots: Vec<u64> = (0..20).map(|_| pm.alloc(16).unwrap()).collect();
        let chain = heap.block_addr(heap.alloc_chain(7, 8).unwrap());
        assert!(slots.iter().all(|a| pm.is_pooled_addr(*a)));
        assert!(!pm.is_pooled_addr(chain) && !pm.is_pooled_addr(0));
        assert_eq!(heap.span_of_addr(slots[0]), 0, "the top span first");
        // 16 + 10 × 24 = 256: slot 10 starts on the span's second block.
        assert_eq!(slots[10] % heap.block_size(), 0);
        assert!(pm.is_slot_addr(slots[10]));
    }

    #[test]
    fn corrupt_pool_meta_reports_unknown_class() {
        let (heap, pm) = mk();
        let a = pm.alloc(16).unwrap();
        // Scribble an impossible slot class into the span's meta word. The
        // manager that carved the span knows its class without reading it;
        // a fresh one (a reopened pool's) has to read the meta word.
        let span = heap.span_of_addr(a);
        heap.pmem().write_u32(heap.span_addr(span) + 8, 3);
        assert_eq!(pm.slot_payload(a).unwrap(), 16);
        let pm2 = PoolManager::new(Arc::clone(&heap));
        match pm2.free(a) {
            Err(HeapError::UnknownPoolClass {
                payload: 3,
                span: 0,
            }) => {}
            other => panic!("expected UnknownPoolClass, got {other:?}"),
        }
    }

    #[test]
    fn free_recycles_slot() {
        let (_h, pm) = mk();
        let a = alloc_valid(&pm, 20, 16);
        let before = pm.heap().pmem().stats();
        pm.free(a).unwrap();
        let d = pm.heap().pmem().stats().delta(&before);
        assert_eq!(pm.read_mini(a), BlockHeader::FREE, "a carved slot's word");
        // Neither the mini-header it clears nor the meta word: the slot
        // class is in the DRAM table.
        assert_eq!(d.bytes_read, 0, "bytes a free reads");
        // The freed slot queues behind the span's fresh ones.
        let seen = (0..170).any(|_| pm.alloc(16).unwrap() == a);
        assert!(seen, "freed slot was never reallocated");
    }

    /// The DRAM slot-class table holds what each span's meta word does —
    /// after carving, after recovery's `rebuild` and after the span scan
    /// `HeaderScanOnly` recovery runs — and once it knows a span, sizing and
    /// freeing its slots read nothing. A miss reads the meta word once.
    #[test]
    fn slot_class_table_matches_every_meta_word() {
        let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
        let heap = BlockHeap::format(pmem, HeapConfig::default()).unwrap();
        let pm = PoolManager::new(Arc::clone(&heap));
        // Two spans of every class, the second one partly used.
        let mut addrs = Vec::new();
        for payload in pool_slot_classes() {
            for _ in 0..per_span(&pm, payload) + 1 {
                addrs.push(alloc_valid(&pm, 9, payload));
            }
        }
        let spans: Vec<u64> = (0..heap.span_count())
            .filter(|s| heap.pmem().read_u64(heap.span_addr(*s)) != 0)
            .collect();
        assert_eq!(spans.len(), 2 * CLASSES);
        let meta = |s: u64| heap.pmem().read_u32(heap.span_addr(s) + 8) as u64;
        let agrees = |pm: &PoolManager| {
            let known = |s: &u64| pm.known(*s).map(class_payload) == Some(meta(*s));
            spans.iter().all(known)
        };
        assert!(agrees(&pm), "after carving");

        let before = heap.pmem().stats();
        for a in &addrs {
            pm.slot_payload(*a).unwrap();
        }
        pm.free(addrs[0]).unwrap();
        let d = heap.pmem().stats().delta(&before);
        assert_eq!((d.reads, d.bytes_read), (0, 0), "slot_payload and free");

        // A restarted manager knows no span until recovery reads them.
        let restarted = PoolManager::new(Arc::clone(&heap));
        assert!(spans.iter().all(|s| restarted.known(*s).is_none()));
        assert!(agrees(&recover(&heap, &addrs[1..])), "after rebuild");
        let scanned = PoolManager::new(Arc::clone(&heap));
        for s in &spans {
            scanned.scan_span(*s, |_, _| {});
        }
        assert!(agrees(&scanned), "after the span scan");

        let missed = PoolManager::new(Arc::clone(&heap));
        let before = heap.pmem().stats();
        assert_eq!(missed.slot_payload(addrs[1]).unwrap(), 16);
        assert_eq!(missed.slot_payload(addrs[2]).unwrap(), 16);
        let d = heap.pmem().stats().delta(&before);
        assert_eq!(
            (d.reads, d.bytes_read),
            (1, 4),
            "one meta word per missed span"
        );
    }

    /// Only a slot boundary of a carved span is a slot address — known to
    /// the table or, for a manager that has not met the span, read from its
    /// master and meta words — not a word past the heap, inside a chain
    /// block, inside a slot, a span's head, or a span no one carved.
    #[test]
    fn slot_addresses_are_slot_boundaries_of_spans() {
        let (heap, pm) = mk();
        let slots: Vec<u64> = (0..3).map(|_| pm.alloc(100).unwrap()).collect();
        let chain = heap.block_addr(heap.alloc_chain(7, 8).unwrap());
        let fresh = PoolManager::new(Arc::clone(&heap));
        let head = heap.span_addr(0);
        let uncarved = heap.span_addr(1) + 16;
        let past = heap.nblocks() * heap.block_size() + 16;
        for pm in [&pm, &fresh] {
            assert!(slots.iter().all(|s| pm.is_slot_addr(*s)));
            for bad in [
                slots[0] + 8,
                slots[2] + 64,
                chain + 16,
                past,
                16,
                head,
                head + 8,
            ] {
                assert!(!pm.is_slot_addr(bad), "{bad:#x}");
            }
            assert!(!pm.is_slot_addr(uncarved), "a free span");
        }
    }

    #[test]
    fn size_class_selection() {
        let (_h, pm) = mk();
        let a = pm.alloc(16).unwrap();
        let b = pm.alloc(17).unwrap();
        let c = pm.alloc(0).unwrap();
        let d = pm.alloc(232).unwrap();
        assert_eq!(pm.slot_payload(a).unwrap(), 16);
        assert_eq!(pm.slot_payload(b).unwrap(), 24);
        assert_eq!(pm.slot_payload(c).unwrap(), 16);
        assert_eq!(pm.slot_payload(d).unwrap(), 232);
        assert!(matches!(
            pm.alloc(233),
            Err(HeapError::ObjectTooLargeForPool(233))
        ));
    }

    /// An allocation stores no mini-header: a carved slot holds the zero
    /// of a fresh span, a recycled one the FREE word of its free — both
    /// invalid. Taking a recycled slot touches the device not at all.
    #[test]
    fn alloc_stores_no_mini_header() {
        let (heap, pm) = mk();
        let a = pm.alloc(232).unwrap();
        assert_eq!(pm.read_mini(a), BlockHeader::FREE, "a carved slot");
        let head = BlockHeader {
            id: 321,
            valid: false,
            next: 0,
        };
        pm.write_mini(a, head);
        pm.set_valid(a, true);
        assert_eq!(
            pm.read_mini(a),
            BlockHeader {
                valid: true,
                ..head
            }
        );
        pm.free(a).unwrap();
        let n = per_span(&pm, 232);
        let before = heap.pmem().stats();
        let again = (0..n).map(|_| pm.alloc(232).unwrap()).find(|s| *s == a);
        let d = heap.pmem().stats().delta(&before);
        assert_eq!(again, Some(a), "the freed slot comes back");
        assert_eq!((d.reads, d.writes, d.pwbs), (0, 0, 0), "a recycled slot");
        assert_eq!(pm.read_mini(a), BlockHeader::FREE, "a recycled slot");
    }

    /// A span from the cursor has never been written: carving it stores
    /// the master word and the meta word — one store, one `pwb`, no fence —
    /// and leaves every slot's zero alone. The slots read zero before and
    /// after a power failure. Reserving the span stride is the one fence.
    #[test]
    fn a_span_from_the_cursor_reads_zero_past_its_head() {
        let (heap, pm) = mk();
        let pmem = Arc::clone(heap.pmem());
        let before = pmem.stats();
        pm.alloc(232).unwrap(); // reserves the span stride
        let d = pmem.stats().delta(&before);
        assert_eq!((d.writes, d.pwbs, d.pfences), (2, 2, 1), "stride and carve");
        let before = pmem.stats();
        let a = pm.alloc(16).unwrap();
        let d = pmem.stats().delta(&before);
        assert_eq!(
            (d.writes, d.bytes_written, d.pwbs, d.pfences),
            (1, 16, 1, 0),
            "the carve of a fresh span"
        );
        let base = heap.span_addr(heap.span_of_addr(a));
        let rest = |pmem: &Pmem| {
            let mut bytes = vec![0xAAu8; (heap.span_bytes() - 16) as usize];
            pmem.read_bytes(base + 16, &mut bytes);
            bytes.iter().all(|b| *b == 0)
        };
        assert!(rest(&pmem), "before the crash");
        pmem.pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        BlockHeap::open(Arc::clone(&pmem)).unwrap();
        assert_eq!(BlockHeader::decode(pmem.read_u64(base)).id, CLASS_ID_POOL);
        assert!(rest(&pmem), "after the crash");
    }

    /// A carved span of 232-B slots, every word of its slot area a valid
    /// header word, written back and fenced: what a recovery that frees it
    /// must not leave behind a zero master word. Returns its number.
    fn stale_span(pm: &PoolManager) -> u64 {
        let heap = pm.heap();
        let span = heap.span_of_addr(pm.alloc(232).unwrap());
        let valid = BlockHeader {
            id: 7,
            valid: true,
            next: 0,
        }
        .encode();
        let body = heap.span_addr(span) + 16;
        let words: Vec<u8> = (0..(heap.span_bytes() - 16) / 8)
            .flat_map(|_| valid.to_le_bytes())
            .collect();
        heap.pmem().write_bytes(body, &words);
        heap.pmem().pwb_range(body, heap.span_bytes() - 16);
        heap.pmem().pfence();
        span
    }

    /// A span recovery frees keeps its previous life's bytes under a
    /// cleared master word. Re-carving it for another class clears every
    /// new slot's mini-header and fences before it stores the master and
    /// meta words, and after a power failure a span scan finds every slot
    /// of the new class invalid — none of the previous life's valid words
    /// at its slot boundaries.
    #[test]
    fn a_span_recovery_frees_is_re_carved_with_its_slots_cleared() {
        let (heap, pm) = mk();
        let pmem = Arc::clone(heap.pmem());
        let span = stale_span(&pm);
        let pm = recover(&heap, &[]);
        assert_eq!(heap.free_span_count(), heap.span_count());
        assert_eq!(pmem.read_u64(heap.span_addr(span)), 0, "the master word");
        let before = pmem.stats();
        let a = pm.alloc(16).unwrap();
        assert_eq!(heap.span_of_addr(a), span, "the carve recycled the span");
        let d = pmem.stats().delta(&before);
        // 170 mini-headers over the span's 64 lines, 8 to a fence, then
        // the head.
        assert_eq!((d.writes, d.pwbs, d.pfences), (171, 65, 8), "a carve");
        pmem.pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let heap2 = BlockHeap::open(Arc::clone(&pmem)).unwrap();
        let mut slots = 0;
        PoolManager::new(heap2).scan_span(span, |slot, mini| {
            assert!(!mini.valid, "slot {slot:#x}: {mini:?}");
            slots += 1;
        });
        assert_eq!(slots, 170);
    }

    /// A crash anywhere in the sweep that frees a span of stale valid
    /// words, or in the carve that takes it for another class, never shows
    /// the span carved for the new class over a stale word at one of its
    /// slot boundaries. A scan finds the span free, or carved for its old
    /// class (the sweep's clear lost, which the next recovery redoes), or
    /// carved for the new one with every slot invalid. Every point of the
    /// op stream, under the strict image, every line kept, and two
    /// adversarial images.
    #[test]
    fn a_crash_in_the_sweep_or_the_re_carve_never_shows_a_stale_slot() {
        jnvm_pmem::silence_crash_panics();
        let run = |heap: &Arc<BlockHeap>| {
            recover(heap, &[]).alloc(16).unwrap();
        };
        let total = {
            let (heap, pm) = mk();
            stale_span(&pm);
            heap.pmem().arm_faults(FaultPlan::count());
            run(&heap);
            heap.pmem().disarm_faults()
        };
        let policies = [
            CrashPolicy::strict(),
            CrashPolicy::keep(u64::MAX),
            CrashPolicy::adversarial(1),
            CrashPolicy::adversarial(2),
        ];
        for point in 0..total {
            for policy in policies {
                let (heap, pm) = mk();
                let pmem = Arc::clone(heap.pmem());
                let span = stale_span(&pm);
                pmem.arm_faults(FaultPlan::crash_at(point).with_policy(policy));
                let crashed = catch_crash(|| run(&heap)).is_err();
                pmem.disarm_faults();
                assert!(crashed, "point {point}");
                let heap2 = BlockHeap::open(Arc::clone(&pmem)).unwrap();
                let mut valid = 0;
                PoolManager::new(Arc::clone(&heap2)).scan_span(span, |_, mini| {
                    valid += mini.valid as u64;
                });
                let meta = pmem.read_u32(heap2.span_addr(span) + 8);
                assert!(valid == 0 || meta == 232, "point {point}, {policy:?}");
            }
        }
    }

    /// 256 bytes of valid header words.
    fn header_words() -> Vec<u8> {
        let valid = BlockHeader {
            id: 7,
            valid: true,
            next: 0,
        }
        .encode();
        (0..32).flat_map(|_| valid.to_le_bytes()).collect()
    }

    /// A heap of 256 blocks that one-block chains filled, freed again: each
    /// a valid object of class `CLASS_ID_POOL`, its payload a valid meta
    /// word and then valid header words, so that its invalidated master
    /// block reads as a span's head.
    fn chains_freed() -> Arc<BlockHeap> {
        let pmem = Pmem::new(PmemConfig::crash_sim(64 << 10));
        let heap = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let mut payload = header_words();
        payload[..8].copy_from_slice(&(232u64 | 17 << 32).to_le_bytes());
        let mut masters = Vec::new();
        while let Ok(b) = heap.alloc_chain(CLASS_ID_POOL, 8) {
            pmem.write_bytes(heap.payload_addr(b), &payload[..248]);
            pmem.pwb_range(heap.payload_addr(b), 248);
            heap.set_valid(b, true);
            masters.push(b);
        }
        pmem.psync();
        masters.into_iter().for_each(|b| heap.free_object(b));
        pmem.psync();
        heap
    }

    /// A heap of 256 blocks that 232-B slots filled, every one valid and
    /// its payload valid header words, then a power failure and a recovery
    /// with nothing live.
    fn spans_freed() -> Arc<BlockHeap> {
        let pmem = Pmem::new(PmemConfig::crash_sim(64 << 10));
        let heap = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let pm = PoolManager::new(Arc::clone(&heap));
        let words = header_words();
        while let Ok(a) = pm.alloc(232) {
            pmem.write_bytes(a, &words[..240]);
            pmem.pwb_range(a, 240);
        }
        pmem.psync();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let heap = BlockHeap::open(pmem).unwrap();
        heap.rebuild_free_queue(&heap.new_bitmap(), 1);
        recover(&heap, &[]);
        heap
    }

    /// Valid words found by a recovery's scans of `heap`'s media: chain
    /// headers below the bump, slot mini-headers in carved spans.
    fn valid_words(heap: &Arc<BlockHeap>) -> u64 {
        let heap = BlockHeap::open(Arc::clone(heap.pmem())).unwrap();
        let mut valid = 0;
        heap.for_each_header(|_, h| valid += h.valid as u64);
        let pm = PoolManager::new(Arc::clone(&heap));
        for span in 0..heap.span_count() {
            pm.scan_span(span, |_, h| valid += h.valid as u64);
        }
        valid
    }

    /// Free space changes regions where the two meet. A heap that chains
    /// filled and then freed carves every span it can hold from the chain
    /// blocks at the top of its region; one that spans filled, all free
    /// after a recovery, links chains through every block of them. At
    /// every crash point of the allocations up to the one that moves the
    /// span floor, under the strict image, every line kept and an
    /// adversarial one, a recovery's scans find none of the previous
    /// life's valid words as a live object.
    #[test]
    fn free_space_changes_regions_where_they_meet() {
        jnvm_pmem::silence_crash_panics();
        /// Allocate with `take` until the span floor moves.
        fn until_moved(heap: &BlockHeap, take: impl Fn() -> bool) -> bool {
            let spans = heap.span_count();
            while heap.span_count() == spans {
                if !take() {
                    return false;
                }
            }
            true
        }
        let carve = |heap: &Arc<BlockHeap>| {
            let pm = PoolManager::new(Arc::clone(heap));
            until_moved(heap, || pm.alloc(232).is_ok())
        };
        let link = |heap: &Arc<BlockHeap>| until_moved(heap, || heap.alloc_block().is_ok());
        let policies = [
            CrashPolicy::strict(),
            CrashPolicy::keep(u64::MAX),
            CrashPolicy::adversarial(1),
        ];
        type Fill = dyn Fn() -> Arc<BlockHeap>;
        type Take = dyn Fn(&Arc<BlockHeap>) -> bool;
        let cases: [(&Fill, &Take); 2] = [(&chains_freed, &carve), (&spans_freed, &link)];
        for (fill, take) in cases {
            let heap = fill();
            let pmem = Arc::clone(heap.pmem());
            assert_eq!(valid_words(&heap), 0, "the recovery freed everything");
            pmem.arm_faults(FaultPlan::count());
            assert!(take(&heap));
            let total = pmem.disarm_faults();
            for point in 0..total {
                for policy in policies {
                    let heap = fill();
                    let pmem = Arc::clone(heap.pmem());
                    pmem.arm_faults(FaultPlan::crash_at(point).with_policy(policy));
                    let crashed = catch_crash(|| take(&heap)).is_err();
                    pmem.disarm_faults();
                    assert!(crashed, "point {point}");
                    assert_eq!(valid_words(&heap), 0, "point {point}, {policy:?}");
                }
            }
        }
        // Everything the other region freed is handed out again.
        let heap = chains_freed();
        let pm = PoolManager::new(Arc::clone(&heap));
        let mut carved = HashSet::new();
        while let Ok(a) = pm.alloc(232) {
            carved.insert(heap.span_of_addr(a));
        }
        assert_eq!(carved.len() as u64, heap.max_spans(), "spans carved");
        let heap = spans_freed();
        let mut linked = 0;
        while heap.alloc_block().is_ok() {
            linked += 1;
        }
        assert_eq!(linked, heap.stats().capacity_blocks, "blocks linked");
    }

    #[test]
    fn rebuild_keeps_live_frees_dead() {
        let (heap, pm) = mk();
        let live = alloc_valid(&pm, 9, 16);
        let dead = alloc_valid(&pm, 9, 16);
        let gone = alloc_valid(&pm, 9, 100);
        heap.pmem().pfence();

        let pm2 = recover(&heap, &[live]);
        assert!(pm2.read_mini(live).valid);
        assert_eq!(heap.pmem().read_u64(dead), 0, "dead slot cleared");
        // 170 slots in the span, one live -> 169 free; the 104-B span, with
        // no live slot, is free whole — its master word clear, its class
        // forgotten —, as is every span of the stride not carved.
        assert_eq!(pm2.free_slots(), 169);
        let span = heap.span_of_addr(gone);
        assert_eq!(heap.pmem().read_u64(heap.span_addr(span)), 0);
        let free = heap.free_span_count();
        assert_eq!((pm2.known(span), free), (None, heap.span_count() - 1));
        assert_eq!(heap.span_of_addr(pm2.alloc(40).unwrap()), span);
    }

    /// Regression: `rebuild` took a pool block's slot count from its meta
    /// word, so a valid class with a corrupt count walked the sweep past
    /// its block — and cleared the neighbour's header. The count follows
    /// from the class: the neighbour span's master word survives.
    #[test]
    fn rebuild_ignores_a_corrupt_slot_count() {
        let (heap, pm) = mk();
        let live = alloc_valid(&pm, 9, 16);
        let next = alloc_valid(&pm, 9, 232);
        let span = heap.span_of_addr(live);
        assert_eq!(heap.span_of_addr(next), span + 1, "the neighbour span");
        heap.pmem().pfence();
        heap.pmem().write_u32(heap.span_addr(span) + 12, 1000);
        let master = heap.pmem().read_u64(heap.span_addr(span + 1));

        let pm2 = recover(&heap, &[live, next]);
        let after = heap.pmem().read_u64(heap.span_addr(span + 1));
        assert_eq!(after, master, "the neighbour's master word");
        assert_eq!(pm2.free_slots(), 169 + 15, "the spans' dead slots");
    }

    /// The slot geometry of every class of the ladder, at every block size
    /// a heap accepts (a span is 4 KiB, or one block when blocks are
    /// larger): slots are disjoint, lie inside their span past its head and
    /// span no more lines than the line rule allows; address → (span,
    /// ordinal) → address round-trips; every slot has its own bit of the
    /// slot bitmap; and a word one off a slot's boundary is no slot
    /// address.
    #[test]
    fn slot_geometry_holds_for_every_class_and_block_size() {
        for shift in 6..=16 {
            let block_size = 1u64 << shift;
            let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
            let heap = BlockHeap::format(pmem, HeapConfig { block_size }).unwrap();
            let pm = PoolManager::new(Arc::clone(&heap));
            let len = pm.new_slot_bitmap().len();
            let mut bits = HashSet::new();
            for (ci, payload) in pool_slot_classes().enumerate() {
                let first = pm.alloc(payload).unwrap();
                let span = heap.span_of_addr(first);
                let base = heap.span_addr(span);
                let slots: Vec<u64> = pm.slots_of(span, ci).collect();
                let n = slots.len() as u64;
                assert!(n >= 1 && slots[0] == first, "{block_size} B: {payload}");
                let lines = (8 + payload).div_ceil(64).max(2);
                let mut end = base + 16;
                for (i, &slot) in slots.iter().enumerate() {
                    let at = format!("{block_size} B blocks, {payload} B slot {i}");
                    assert!(slot >= end, "{at}: overlaps its predecessor");
                    // Back to back, or at the next line where it had to.
                    assert!(
                        slot == end || slot == end.next_multiple_of(64),
                        "{at}: a gap"
                    );
                    end = slot + 8 + payload;
                    let spanned = (end - 1) / 64 - slot / 64 + 1;
                    assert!(spanned <= lines, "{at}: spans {spanned} lines");
                    assert!(end <= base + heap.span_bytes(), "{at}: leaves its span");
                    assert_eq!(heap.span_of_addr(slot), span, "{at}");
                    assert_eq!(heap.span_of_addr(end - 1), span, "{at}");
                    let ord = pm.slot_ordinal(slot, span, ci);
                    assert_eq!(ord, Some(i as u64), "{at}");
                    assert_eq!(pm.slots_of(span, ci).nth(i), Some(slot), "{at}");
                    let bit = pm.slot_bit(slot).unwrap();
                    assert!(bit < len && bits.insert(bit), "{at}: bit {bit} of {len}");
                    assert!(pm.is_slot_addr(slot), "{at}");
                    for bad in [slot - 8, slot + 8, slot + 1] {
                        assert!(
                            !pm.is_slot_addr(bad) || slots.contains(&bad),
                            "{at}: {bad:#x}"
                        );
                    }
                }
                assert!(!pm.is_slot_addr(end), "{block_size} B: past the last slot");
            }
        }
    }

    #[test]
    fn a_span_header_is_flushed_with_the_first_fence() {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let heap = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
        let pm = PoolManager::new(Arc::clone(&heap));
        let a = alloc_valid(&pm, 9, 16);
        pmem.pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let heap2 = BlockHeap::open(Arc::clone(&pmem)).unwrap();
        let master = pmem.read_u64(heap2.span_addr(heap2.span_of_addr(a)));
        let h = BlockHeader::decode(master);
        assert_eq!((h.id, h.valid), (CLASS_ID_POOL, true));
        let pm2 = PoolManager::new(heap2);
        assert!(pm2.read_mini(a).valid);
        assert_eq!(pm2.read_mini(a).id, 9);
    }
}
