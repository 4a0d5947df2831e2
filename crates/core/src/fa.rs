//! Failure-atomic blocks (§4.2): a per-thread persistent redo log, inspired
//! by Romulus and adapted to the block heap.
//!
//! During a failure-atomic block every modification — allocation, payload
//! write, free — is recorded in a per-thread persistent log, leaving
//! original data intact. Payload writes are redirected to **in-flight block
//! copies**; reads observe them. Commit, over a group of one or more
//! blocks' logs:
//!
//! 1. `pwb` all in-flight blocks and log entries (already queued), `pfence`,
//! 2. set each log's committed flag + entry count, `pwb`, `pfence` — the
//!    durability point,
//! 3. apply: validate allocations, invalidate frees, copy in-flight
//!    payloads onto the originals, `pwb`, `pfence` — the applies must be
//!    durable *before* step 4, or a crash could persist the cleared flag
//!    while losing an applied line, and nothing would replay the torn block,
//! 4. clear each committed flag, `pwb`, `pfence` (so the logs are reusable
//!    and the blocks the group released may be recycled).
//!
//! That is 4 fences per group whatever its size. The protocol is written
//! once: [`JnvmRuntime::fa_stage`] queues step 1's write-backs,
//! [`JnvmRuntime::fa_commit_group`] runs the fences, a solo
//! [`JnvmRuntime::fa`] is a group of one, and steps 3–4 (`apply_and_retire`)
//! are also what recovery runs over each log it finds committed.
//!
//! Updates to *invalid* objects — typically objects allocated inside the
//! same block — are applied in place: if the block aborts, recovery deletes
//! them anyway.
//!
//! After a failure, committed logs are replayed and uncommitted ones
//! abandoned **before** the recovery GC runs; the GC then reaps in-flight
//! blocks and invalid allocations.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crossbeam::queue::SegQueue;
use parking_lot::Mutex;

use crate::error::JnvmError;
use crate::proxy::{Proxy, RawChain};
use crate::registry::CLASS_ID_FALOG;
use crate::runtime::{Jnvm, JnvmRuntime};

/// Initial capacity of the log directory. The directory doubles on demand
/// (see `grow_dir`), so this no longer bounds how many threads may enter
/// failure-atomic blocks over the pool's lifetime.
const DIR_CAPACITY: u64 = 64;

/// Initial log capacity in entries; logs grow on demand.
const LOG_INIT_ENTRIES: u64 = 256;

/// Entry size: kind, a, b.
const ENTRY_BYTES: u64 = 24;

/// Logical offset of the committed flag within a log's payload.
const LOG_COMMITTED: u64 = 0;
/// Logical offset of the committed entry count.
const LOG_COUNT: u64 = 8;
/// Logical offset of the first entry.
const LOG_ENTRIES: u64 = 16;

const KIND_ALLOC: u64 = 1;
const KIND_FREE: u64 = 2;
const KIND_WRITE: u64 = 3;

/// A handle on one persistent redo log.
pub(crate) struct LogHandle {
    chain: RawChain,
}

impl LogHandle {
    fn addr(&self) -> u64 {
        self.chain.blocks[0]
    }
}

/// Pool of redo logs plus the persistent log directory.
pub(crate) struct FaManager {
    free_logs: SegQueue<LogHandle>,
    /// Guards directory appends; holds the next free directory slot.
    dir_cursor: Mutex<u64>,
}

impl FaManager {
    pub(crate) fn new() -> FaManager {
        FaManager {
            free_logs: SegQueue::new(),
            dir_cursor: Mutex::new(0),
        }
    }

    /// Create the persistent log directory on a fresh pool and anchor it in
    /// root slot 2.
    pub(crate) fn create_dir(rt: &Jnvm) {
        let dir = Proxy::alloc(rt, crate::registry::CLASS_ID_FALOGDIR, 8 + DIR_CAPACITY * 8);
        dir.write_u64(0, DIR_CAPACITY);
        dir.pwb();
        dir.validate();
        rt.pmem().pfence();
        rt.heap().set_root_slot(2, dir.addr());
    }

    fn acquire_log(&self, rt: &Jnvm) -> LogHandle {
        if let Some(log) = self.free_logs.pop() {
            return log;
        }
        // Create a new log and publish it in the directory.
        let payload = LOG_ENTRIES + LOG_INIT_ENTRIES * ENTRY_BYTES;
        let log = Proxy::alloc(rt, CLASS_ID_FALOG, payload);
        log.write_u64(LOG_COMMITTED, 0);
        log.write_u64(LOG_COUNT, 0);
        log.pwb();
        log.validate();
        rt.pmem().pfence();

        let mut cursor = self.dir_cursor.lock();
        let mut dir = Proxy::open(rt, rt.heap().root_slot(2));
        let cap = dir.read_u64(0);
        if *cursor >= cap {
            grow_dir(rt, &mut dir, cap);
        }
        dir.write_u64(8 + *cursor * 8, log.addr());
        dir.pwb_field(8 + *cursor * 8, 8);
        rt.pmem().pfence();
        *cursor += 1;
        let chain = RawChain::open(rt, log.addr());
        // The directory now durably references the log; its initialized
        // committed-flag/count words must be persisted with it, or recovery
        // could chase the slot into an uninitialized log.
        rt.pmem()
            .ordering_point("log-publish", &[(chain.phys(LOG_COMMITTED), 16)]);
        LogHandle { chain }
    }

    fn release_log(&self, log: LogHandle) {
        self.free_logs.push(log);
    }

    /// After restart: replay committed logs, abandon uncommitted ones, and
    /// repopulate the volatile log pool. Returns `(replayed, abandoned)`.
    /// Must run before the recovery GC. A damaged log (unknown entry kind)
    /// surfaces as [`JnvmError::CorruptLog`] rather than aborting, so a
    /// server re-open on a damaged pool can report the failure.
    ///
    /// With `threads > 1` the committed logs are partitioned by **footprint
    /// disjointness** — the same invariant `fa_commit_group` demands of
    /// staged siblings — and independent logs replay concurrently. Logs
    /// whose entry footprints share a block form one replay unit and apply
    /// sequentially in directory-slot order inside it, so the last-writer
    /// order of the sequential pass is preserved; every replay worker
    /// `pfence`s its own persistence domain before exiting. `threads <= 1`
    /// replays inline in slot order (the sequential oracle).
    ///
    /// The third return component is the busy wall time of each replay
    /// worker (one entry when the replay ran inline); the fourth is each
    /// worker's modeled device time (latency-model nanoseconds charged —
    /// see [`jnvm_heap::par::run_workers_timed`]).
    pub(crate) fn recover_logs(
        &self,
        rt: &Jnvm,
        threads: usize,
    ) -> Result<(u64, u64, Vec<Duration>, Vec<Duration>), JnvmError> {
        let dir_addr = rt.heap().root_slot(2);
        let dir = RawChain::open(rt, dir_addr);
        let pmem = rt.pmem();
        let heap = rt.heap();
        let cap = pmem.read_u64(dir.phys(0));
        let mut cursor = self.dir_cursor.lock();

        struct LogInfo {
            slot: u64,
            chain: RawChain,
            committed: bool,
            count: u64,
        }
        let mut infos: Vec<LogInfo> = Vec::new();
        for slot in 0..cap {
            let log_addr = pmem.read_u64(dir.phys(8 + slot * 8));
            if log_addr == 0 {
                continue;
            }
            let chain = RawChain::open(rt, log_addr);
            let committed = pmem.read_u64(chain.phys(LOG_COMMITTED)) == 1;
            let count = pmem.read_u64(chain.phys(LOG_COUNT));
            infos.push(LogInfo { slot, chain, committed, count });
        }

        // Replay one committed log: steps 3–4 of the commit protocol. Both
        // are idempotent, so a crash anywhere in here re-replays on the
        // next recovery and converges.
        let replay_one = |info: &LogInfo, retired_fp: &mut Vec<(u64, u64)>| {
            let log = std::iter::once((&info.chain, info.count));
            apply_and_retire(rt, log, false, retired_fp).map(drop)
        };

        let committed_idx: Vec<usize> = infos
            .iter()
            .enumerate()
            .filter(|(_, i)| i.committed)
            .map(|(i, _)| i)
            .collect();
        let mut thread_times: Vec<Duration> = Vec::new();
        let mut device_times: Vec<Duration> = Vec::new();
        // Retire footprint of the inline replay path, validated behind the
        // closing fence (parallel workers validate their own domains).
        let mut inline_fp: Vec<(u64, u64)> = Vec::new();
        let replayed = if threads <= 1 || committed_idx.len() <= 1 {
            let t = Instant::now();
            let before = jnvm_pmem::thread_charged_ns();
            for &li in &committed_idx {
                replay_one(&infos[li], &mut inline_fp)?;
            }
            device_times.push(Duration::from_nanos(jnvm_pmem::thread_charged_ns() - before));
            thread_times.push(t.elapsed());
            committed_idx.len() as u64
        } else {
            // Block-index footprint of a committed log: every block an
            // entry reads or writes during replay.
            let footprint = |info: &LogInfo| -> HashSet<u64> {
                let mut fp = HashSet::new();
                for i in 0..info.count {
                    let (kind, a, b) = read_entry(rt, &info.chain, i);
                    match kind {
                        KIND_ALLOC | KIND_FREE => {
                            fp.insert(heap.block_of_addr(a));
                        }
                        KIND_WRITE => {
                            fp.insert(heap.block_of_addr(a));
                            fp.insert(heap.block_of_addr(b));
                        }
                        // Unknown kinds surface as CorruptLog at replay.
                        _ => {}
                    }
                }
                fp
            };
            // Union conflicting logs into replay units (members kept in
            // directory-slot order).
            let mut units: Vec<(Vec<usize>, HashSet<u64>)> = Vec::new();
            for &li in &committed_idx {
                let fp = footprint(&infos[li]);
                let overlapping: Vec<usize> = units
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, ufp))| !ufp.is_disjoint(&fp))
                    .map(|(ui, _)| ui)
                    .collect();
                match overlapping.split_first() {
                    None => units.push((vec![li], fp)),
                    Some((&first, rest)) => {
                        for &ui in rest.iter().rev() {
                            let (members, ufp) = units.remove(ui);
                            units[first].0.extend(members);
                            units[first].1.extend(ufp);
                        }
                        units[first].0.push(li);
                        units[first].1.extend(fp);
                        units[first].0.sort_unstable();
                    }
                }
            }
            let nworkers = threads.min(units.len()).max(1);
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); nworkers];
            for ui in 0..units.len() {
                buckets[ui % nworkers].push(ui);
            }
            type WorkerOut = (Result<(u64, Duration), JnvmError>, Duration);
            let results: Vec<WorkerOut> =
                jnvm_heap::par::run_workers_timed(buckets, |bucket| {
                    let t = Instant::now();
                    let mut n = 0;
                    let mut wfp: Vec<(u64, u64)> = Vec::new();
                    for ui in bucket {
                        for &li in &units[ui].0 {
                            replay_one(&infos[li], &mut wfp)?;
                            n += 1;
                        }
                    }
                    // Drain this worker's retire write-backs (a persistence
                    // domain drains only its owner's queue).
                    pmem.pfence();
                    // Every flag this worker cleared is durable in its own
                    // domain behind its own fence.
                    pmem.ordering_point("recovery-retire", &wfp);
                    Ok((n, t.elapsed()))
                });
            let mut n = 0;
            for (r, dt) in results {
                let (nr, t) = r?;
                n += nr;
                thread_times.push(t);
                device_times.push(dt);
            }
            n
        };

        let abandoned = infos.iter().filter(|i| !i.committed && i.count != 0).count() as u64;
        for info in infos {
            *cursor = info.slot + 1;
            self.free_logs.push(LogHandle { chain: info.chain });
        }
        pmem.pfence();
        if !inline_fp.is_empty() {
            // The inline replay's cleared flags are durable behind the
            // closing fence.
            pmem.ordering_point("recovery-retire", &inline_fp);
        }
        Ok((replayed, abandoned, thread_times, device_times))
    }
}

/// Double the log directory's slot count (caller holds the `dir_cursor`
/// lock). Used to be a hard panic — "directory full: too many threads" —
/// which a long-lived pool with thread churn eventually hit, since
/// directory slots are never reclaimed while their log lives.
///
/// Crash-safe ordering: the extension blocks are linked and the fresh
/// slot range is zeroed and **fenced before** the enlarged capacity is
/// published at offset 0. A crash mid-growth therefore leaves either the
/// old capacity (extension invisible to recovery) or the new capacity
/// over all-null slots — never uninitialized slots that `recover_logs`
/// would chase as log addresses.
fn grow_dir(rt: &Jnvm, dir: &mut Proxy, cap: u64) {
    let heap = rt.heap();
    let new_cap = cap * 2;
    let need = heap.blocks_for(8 + new_cap * 8);
    let have = dir.block_count() as u64;
    if need > have {
        dir.extend(need - have)
            .expect("persistent heap exhausted growing the fa log directory");
    }
    let zeros = vec![0u8; ((new_cap - cap) * 8) as usize];
    dir.write_bytes(8 + cap * 8, &zeros);
    dir.pwb_field(8 + cap * 8, zeros.len() as u64);
    rt.pmem().pfence();
    dir.write_u64(0, new_cap);
    dir.pwb_field(0, 8);
    rt.pmem().pfence();
}

/// Tracer for the log directory: every non-null slot references a log.
pub(crate) fn trace_log_dir(rt: &Jnvm, addr: u64, visit: &mut dyn FnMut(u64)) {
    let chain = RawChain::open(rt, addr);
    let cap = rt.pmem().read_u64(chain.phys(0));
    for slot in 0..cap {
        visit(chain.phys(8 + slot * 8));
    }
}

// ----------------------------------------------------------------------
// Thread-local transaction state.
// ----------------------------------------------------------------------

struct TxState {
    rt: Jnvm,
    log: LogHandle,
    count: u64,
    /// orig block byte address -> in-flight block byte address. Ordered
    /// (as is `allocated`) so the flush phase issues its write-backs in
    /// address order: crash point `i` names the same op on every run.
    redirects: BTreeMap<u64, u64>,
    /// Master addresses allocated inside this block (written in place).
    allocated: BTreeSet<u64>,
}

thread_local! {
    static TX_DEPTH: Cell<u32> = const { Cell::new(0) };
    static TX: RefCell<Option<TxState>> = const { RefCell::new(None) };
    static PHASE: Cell<CommitPhase> = const { Cell::new(CommitPhase::Idle) };
}

/// Where this thread's most recent failure-atomic block is (or was) in the
/// §4.2 commit protocol. Diagnostic only: crash-point sweeps read it after
/// an injected crash to label the point and to select interesting pool
/// states (e.g. "committed but not yet applied"). The marker is *not*
/// reset when a block unwinds — it keeps the phase the crash interrupted —
/// and is overwritten when the next outermost block starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitPhase {
    /// No commit activity since the last completed block.
    #[default]
    Idle,
    /// Inside the user closure: mutations are being redirected and logged.
    Mutate,
    /// Step 1: flushing in-flight blocks and fresh allocations.
    FlushInflight,
    /// Step 2: writing + flushing the committed flag and entry count.
    CommitPoint,
    /// Step 3: copying in-flight payloads onto the originals.
    Apply,
    /// Step 4: clearing the committed flag so the log can be reused.
    Retire,
}

impl CommitPhase {
    /// Short label for sweep tables.
    pub fn name(self) -> &'static str {
        match self {
            CommitPhase::Idle => "idle",
            CommitPhase::Mutate => "mutate",
            CommitPhase::FlushInflight => "flush-inflight",
            CommitPhase::CommitPoint => "commit-point",
            CommitPhase::Apply => "apply",
            CommitPhase::Retire => "retire",
        }
    }

    /// True once the log is durably committed: a crash here must replay
    /// the block to completion, never roll it back.
    pub fn is_committed(self) -> bool {
        matches!(self, CommitPhase::Apply | CommitPhase::Retire)
    }
}

/// This thread's current [`CommitPhase`].
pub fn commit_phase() -> CommitPhase {
    PHASE.with(|p| p.get())
}

fn set_phase(p: CommitPhase) {
    PHASE.with(|c| c.set(p));
}

/// Current failure-atomic nesting depth of this thread. This is the paper's
/// per-thread counter that every mediated accessor checks (§3.2).
#[inline]
pub fn depth() -> u32 {
    TX_DEPTH.with(|d| d.get())
}

/// Resolve a block address for a read inside a failure-atomic block.
#[inline]
pub(crate) fn redirect_read(block_addr: u64) -> u64 {
    TX.with(|tx| {
        let tx = tx.borrow();
        match tx.as_ref() {
            Some(tx) => *tx.redirects.get(&block_addr).unwrap_or(&block_addr),
            None => block_addr,
        }
    })
}

/// Resolve a block address for a write inside a failure-atomic block,
/// creating the in-flight copy and log entry on first touch.
pub(crate) fn redirect_write(rt: &Jnvm, master_addr: u64, block_addr: u64) -> u64 {
    TX.with(|tx| {
        let mut tx = tx.borrow_mut();
        let tx = tx.as_mut().expect("depth > 0 implies an active transaction");
        assert!(
            Arc::ptr_eq(&tx.rt, rt),
            "failure-atomic block active on a different runtime"
        );
        if tx.allocated.contains(&master_addr) {
            // Fresh (invalid) object: write in place (§4.2).
            return block_addr;
        }
        if let Some(inflight) = tx.redirects.get(&block_addr) {
            return *inflight;
        }
        let heap = rt.heap();
        let inflight_idx = heap.alloc_block().expect("persistent heap exhausted (in-flight block)");
        let inflight = heap.block_addr(inflight_idx);
        let pmem = rt.pmem();
        // Clear any stale header so recovery sees the copy as a free block.
        pmem.write_u64(inflight, 0);
        // Copy the original payload.
        let mut buf = vec![0u8; heap.payload_size() as usize];
        pmem.read_bytes(block_addr + 8, &mut buf);
        pmem.write_bytes(inflight + 8, &buf);
        append_entry(rt, tx, KIND_WRITE, block_addr, inflight);
        tx.redirects.insert(block_addr, inflight);
        inflight
    })
}

/// Record an allocation performed inside the active failure-atomic block
/// (no-op outside one). The object will be validated at commit.
pub(crate) fn note_alloc(rt: &Jnvm, master_addr: u64) {
    if depth() == 0 {
        return;
    }
    TX.with(|tx| {
        let mut tx = tx.borrow_mut();
        let tx = tx.as_mut().expect("depth > 0 implies an active transaction");
        append_entry(rt, tx, KIND_ALLOC, master_addr, 0);
        tx.allocated.insert(master_addr);
    });
}

/// Record a free inside the active failure-atomic block. Returns `true` if
/// the free was deferred to commit, `false` if no block is active and the
/// caller must free immediately.
pub(crate) fn note_free(rt: &Jnvm, addr: u64) -> bool {
    if depth() == 0 {
        return false;
    }
    TX.with(|tx| {
        let mut tx = tx.borrow_mut();
        let tx = tx.as_mut().expect("depth > 0 implies an active transaction");
        append_entry(rt, tx, KIND_FREE, addr, 0);
    });
    true
}

fn append_entry(rt: &Jnvm, tx: &mut TxState, kind: u64, a: u64, b: u64) {
    let logical = LOG_ENTRIES + tx.count * ENTRY_BYTES;
    // Grow the log if needed.
    while logical + ENTRY_BYTES > tx.log.chain.capacity() {
        let heap = rt.heap();
        let master_idx = heap.block_of_addr(tx.log.addr());
        let added = heap.extend_chain(master_idx, 4).expect("heap exhausted growing redo log");
        tx.log
            .chain
            .blocks
            .extend(added.into_iter().map(|bk| heap.block_addr(bk)));
    }
    let pmem = rt.pmem();
    let c = &tx.log.chain;
    // Entries are 24 bytes in a 248-byte payload: a word may straddle
    // blocks, so use segment-safe writes.
    let mut bytes = [0u8; 24];
    bytes[0..8].copy_from_slice(&kind.to_le_bytes());
    bytes[8..16].copy_from_slice(&a.to_le_bytes());
    bytes[16..24].copy_from_slice(&b.to_le_bytes());
    c.write_bytes(pmem, logical, &bytes);
    c.segments(logical, ENTRY_BYTES, |addr, len| pmem.pwb_range(addr, len));
    tx.count += 1;
}

fn read_entry(rt: &JnvmRuntime, chain: &RawChain, i: u64) -> (u64, u64, u64) {
    let mut bytes = [0u8; 24];
    chain.read_bytes(rt.pmem(), LOG_ENTRIES + i * ENTRY_BYTES, &mut bytes);
    (
        u64::from_le_bytes(bytes[0..8].try_into().expect("slice of 8")),
        u64::from_le_bytes(bytes[8..16].try_into().expect("slice of 8")),
        u64::from_le_bytes(bytes[16..24].try_into().expect("slice of 8")),
    )
}

/// Blocks a live commit may hand back to the shared allocator only once
/// its log is durably retired. Releasing them earlier is a race: another
/// thread can pop such a block from the volatile free queue and scribble
/// on it while the log is still committed on media — a crash in that
/// window replays the log and copies the scribbles (or re-invalidates the
/// other thread's allocation) onto committed state.
#[derive(Default)]
struct DeferredReclaim {
    /// Master addresses the block freed (`KIND_FREE`).
    frees: Vec<u64>,
    /// In-flight copy blocks (`KIND_WRITE` sources), by block index.
    inflight: Vec<u64>,
}

/// Steps 3–4 of the commit protocol over durably committed `logs`
/// (`(chain, entry count)` each): apply every log's entries, fence, and
/// only then clear each committed flag and queue its write-back. The
/// caller owns the closing fence and declares `retired_fp` (the cleared
/// flags, collected only while the sanitizer is on) behind it.
/// `runtime_commit` is true on a live commit, which then releases the
/// returned blocks; false during post-crash replay, where the recovery GC
/// reclaims in-flight copies and freed masters.
///
/// The applies must be durable before the flag clears: under partial line
/// eviction a crash could otherwise persist a flag-clear while losing
/// applied data, and — the log no longer being committed — nothing would
/// ever replay the torn block. Hence the fence between the two steps,
/// convicted by the ordering point right behind it.
fn apply_and_retire<'a>(
    rt: &Jnvm,
    logs: impl Iterator<Item = (&'a RawChain, u64)> + Clone,
    runtime_commit: bool,
    retired_fp: &mut Vec<(u64, u64)>,
) -> Result<DeferredReclaim, JnvmError> {
    let pmem = rt.pmem();
    let heap = rt.heap();
    let collect = pmem.sanitizer_active();
    let mut applied_fp: Vec<(u64, u64)> = Vec::new();
    let mut applied = |addr, len| {
        if collect {
            applied_fp.push((addr, len));
        }
    };
    let mut deferred = DeferredReclaim::default();
    let psize = heap.payload_size();
    let mut buf = vec![0u8; psize as usize];
    for (chain, count) in logs.clone() {
        for i in 0..count {
            let (kind, a, b) = read_entry(rt, chain, i);
            match kind {
                KIND_ALLOC => {
                    rt.set_valid_addr(a, true);
                    applied(a, 8);
                }
                KIND_FREE => deferred.frees.push(a),
                KIND_WRITE => {
                    pmem.read_bytes(b + 8, &mut buf);
                    pmem.write_bytes(a + 8, &buf);
                    pmem.pwb_range(a + 8, psize);
                    if runtime_commit {
                        deferred.inflight.push(heap.block_of_addr(b));
                    }
                    applied(a + 8, psize);
                }
                other => return Err(JnvmError::CorruptLog { kind: other }),
            }
        }
        if !runtime_commit {
            // During replay only invalidate persistently; the GC rebuilds
            // the free queue afterwards.
            for a in deferred.frees.drain(..) {
                rt.set_valid_addr(a, false);
                applied(a, 8);
            }
        }
    }
    pmem.pfence();
    let label = if runtime_commit {
        "fa-retire"
    } else {
        "recovery-retire"
    };
    pmem.ordering_point(label, &applied_fp);
    if runtime_commit {
        set_phase(CommitPhase::Retire);
    }
    for (chain, _) in logs {
        pmem.write_u64(chain.phys(LOG_COMMITTED), 0);
        pmem.pwb(chain.phys(LOG_COMMITTED));
        if collect {
            retired_fp.push((chain.phys(LOG_COMMITTED), 8));
        }
    }
    Ok(deferred)
}

impl JnvmRuntime {
    /// Execute `f` as a failure-atomic block (§4.2): it runs entirely or —
    /// if a crash intervenes — not at all. Nested calls fold into the
    /// outermost block. If `f` panics, the block aborts: in-place state is
    /// untouched, allocations are released.
    ///
    /// # Panics
    ///
    /// Panics if a block from *another* runtime is active on this thread,
    /// or on persistent-heap exhaustion.
    pub fn fa<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        if depth() > 0 {
            // Nested: `f` runs in place, the outermost block commits it.
            TX.with(|tx| {
                let tx = tx.borrow();
                let tx = tx.as_ref().expect("depth > 0 implies an active transaction");
                assert!(
                    Arc::ptr_eq(&tx.rt, self),
                    "failure-atomic block active on a different runtime"
                );
            });
            return f();
        }
        // A solo block is a commit group of one.
        let (tx, r) = self.fa_stage(f);
        self.fa_commit_group(vec![tx]);
        r
    }

    /// Explicit `faStart()`/`faEnd()` pairs are not exposed; use
    /// [`JnvmRuntime::fa`]. This reports whether the calling thread is
    /// currently inside a failure-atomic block.
    pub fn in_fa(&self) -> bool {
        depth() > 0
    }

    /// Execute `f` as a failure-atomic block whose mutations are **staged**
    /// rather than committed: every modification is logged and redirected
    /// exactly as in [`JnvmRuntime::fa`], and the in-flight payloads are
    /// queued for write-back, but no fence is issued and the log is not
    /// committed. The returned [`StagedTx`] must be handed to
    /// [`JnvmRuntime::fa_commit_group`] (with any number of siblings) to
    /// make the block durable behind a *shared* pass of fences — the group
    /// commit of the server write path. Dropping the handle aborts the
    /// block as if `f` had panicked.
    ///
    /// # Footprint discipline
    ///
    /// Staged blocks in one group redirect writes independently: two blocks
    /// touching the **same master block** each copy the pre-group payload
    /// and the last apply wins (lost update). The caller must guarantee
    /// pairwise-disjoint write footprints within a group (the kvstore
    /// committer derives this from shard/stripe disjointness);
    /// `fa_commit_group` debug-asserts it.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is already inside a failure-atomic
    /// block: staging cannot nest.
    pub fn fa_stage<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> (StagedTx, R) {
        assert_eq!(depth(), 0, "fa_stage cannot nest inside an active failure-atomic block");
        let obs_begin = jnvm_obs::span_begin();
        set_phase(CommitPhase::Mutate);
        let log = self.fa_manager().acquire_log(self);
        TX.with(|tx| {
            *tx.borrow_mut() = Some(TxState {
                rt: Arc::clone(self),
                log,
                count: 0,
                redirects: BTreeMap::new(),
                allocated: BTreeSet::new(),
            });
        });
        TX_DEPTH.with(|d| d.set(1));
        struct Guard {
            done: bool,
        }
        impl Drop for Guard {
            fn drop(&mut self) {
                TX_DEPTH.with(|d| d.set(0));
                if !self.done {
                    // `f` unwound: abort the block it was building.
                    if let Some(state) = TX.with(|tx| tx.borrow_mut().take()) {
                        abort_state(state);
                    }
                }
            }
        }
        let mut guard = Guard { done: false };
        let r = f();
        guard.done = true;
        drop(guard);
        let state = TX.with(|tx| tx.borrow_mut().take().expect("stage without transaction"));
        // Step 1 of the commit protocol, minus its fence: queue the
        // write-back of in-flight copies and fresh allocations now, on the
        // staging thread, so the group's single step-1 fence covers them
        // (per-thread persistence domains drain only the caller's queue).
        set_phase(CommitPhase::FlushInflight);
        staged_ranges(self, &state, |addr, len| self.pmem().pwb_range(addr, len));
        jnvm_obs::span_end(jnvm_obs::SpanKind::FaStage, obs_begin);
        (
            StagedTx {
                state: Some(state),
                thread: std::thread::current().id(),
            },
            r,
        )
    }

    /// Commit a group of [staged](JnvmRuntime::fa_stage) failure-atomic
    /// blocks behind **one** shared pass of the §4.2 protocol: a single
    /// step-1 fence covers every block's in-flight payloads, a single
    /// commit-point fence makes the whole group durable (this is the
    /// group's *durability point* — an acknowledgement released after this
    /// call covers every block in the group), the blocks are applied
    /// behind a single apply fence (the applies must be durable before any
    /// committed flag clears), and a single retire fence closes the pass.
    /// `K` independent commits thus cost 4 fences instead of `4K`.
    ///
    /// Blocks that staged no mutations are released for free. The order of
    /// `group` is the apply order; footprints must be pairwise disjoint
    /// (see [`JnvmRuntime::fa_stage`]).
    ///
    /// # Panics
    ///
    /// Panics if a staged block came from another thread (its queued
    /// write-backs would not be covered by this thread's fences) or from
    /// another runtime.
    pub fn fa_commit_group(self: &Arc<Self>, group: Vec<StagedTx>) {
        let me = std::thread::current().id();
        let mut states: Vec<TxState> = Vec::new();
        for mut tx in group {
            assert_eq!(
                tx.thread, me,
                "staged block committed from a different thread than staged it \
                 (per-thread persistence domains: its write-backs are not in \
                 this thread's queue)"
            );
            let state = tx.state.take().expect("staged state present until commit or drop");
            assert!(
                Arc::ptr_eq(&state.rt, self),
                "staged block belongs to a different runtime"
            );
            if state.count == 0 {
                self.fa_manager().release_log(state.log);
            } else {
                states.push(state);
            }
        }
        if states.is_empty() {
            set_phase(CommitPhase::Idle);
            return;
        }
        #[cfg(debug_assertions)]
        {
            let mut seen: HashSet<u64> = HashSet::new();
            for st in &states {
                for master in st.redirects.keys() {
                    assert!(
                        seen.insert(*master),
                        "group contains two staged blocks redirecting master block \
                         {master:#x}: footprints must be pairwise disjoint"
                    );
                }
            }
        }
        let obs_begin = jnvm_obs::span_begin();
        let pmem = self.pmem();
        let heap = self.heap();
        // 1. One fence covers every staged block's queued write-backs.
        set_phase(CommitPhase::FlushInflight);
        pmem.pfence();
        // 2. Commit point of the whole group.
        set_phase(CommitPhase::CommitPoint);
        for st in &states {
            pmem.write_u64(st.log.chain.phys(LOG_COUNT), st.count);
            pmem.write_u64(st.log.chain.phys(LOG_COMMITTED), 1);
            pmem.pwb(st.log.chain.phys(LOG_COMMITTED));
            pmem.pwb(st.log.chain.phys(LOG_COUNT));
        }
        pmem.pfence(); // ---- the group's durability point ----
        // The whole group is durably committed behind the one fence.
        let collect = pmem.sanitizer_active();
        let mut commit_fp: Vec<(u64, u64)> = Vec::new();
        if collect {
            for st in &states {
                staged_footprint(self, st, &mut commit_fp);
            }
        }
        pmem.ordering_point("fa-commit", &commit_fp);
        // 3–4. Apply every block, fence, clear every flag; then retire all
        // logs behind one closing fence.
        set_phase(CommitPhase::Apply);
        let logs = states.iter().map(|st| (&st.log.chain, st.count));
        let mut retired_fp: Vec<(u64, u64)> = Vec::new();
        let deferred = apply_and_retire(self, logs, true, &mut retired_fp)
            .expect("entries written by this commit are well-formed");
        pmem.pfence();
        pmem.ordering_point("fa-retire", &retired_fp);
        // Only now — the retire is durable, no log can replay again — may
        // the blocks this group released re-enter the shared allocator.
        for a in deferred.frees {
            self.free_addr_now(a);
        }
        for b in deferred.inflight {
            heap.push_free(b);
        }
        for st in states {
            self.fa_manager().release_log(st.log);
        }
        jnvm_obs::span_end(jnvm_obs::SpanKind::FaCommitGroup, obs_begin);
        set_phase(CommitPhase::Idle);
    }
}

/// A staged failure-atomic block: mutations logged, redirected and queued
/// for write-back, but not yet durable. Produced by
/// [`JnvmRuntime::fa_stage`]; consumed by [`JnvmRuntime::fa_commit_group`].
/// Dropping an uncommitted handle aborts the block.
pub struct StagedTx {
    state: Option<TxState>,
    thread: ThreadId,
}

impl StagedTx {
    /// Number of log entries the block staged (0 = read-only block).
    pub fn op_count(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.count)
    }
}

impl Drop for StagedTx {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            abort_state(state);
        }
    }
}

impl std::fmt::Debug for StagedTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedTx")
            .field("ops", &self.op_count())
            .finish()
    }
}

/// What step 1 of the commit protocol must persist for a staged block, as
/// `(address, length)` ranges in address order: its in-flight copies and
/// the objects it allocated (written in place with their own flushes
/// suppressed by the mediation — the commit owns their write-back).
fn staged_ranges(rt: &Jnvm, state: &TxState, mut f: impl FnMut(u64, u64)) {
    let heap = rt.heap();
    for inflight in state.redirects.values() {
        // Invariant: the in-flight header was zeroed by `redirect_write`
        // but never flushed there. It must be durable by the commit point
        // — recovery identifies in-flight copies as reclaimable precisely
        // by their zero header — and that must hold even if the header
        // ever stops sharing a cache line with the payload's first bytes,
        // so it is a range of its own rather than riding the payload's.
        f(*inflight, 8);
        f(inflight + 8, heap.payload_size());
    }
    for master in &state.allocated {
        if rt.pools().is_pooled_addr(*master) {
            f(*master, 8 + rt.pools().slot_payload(*master));
        } else {
            for b in heap.chain_blocks(heap.block_of_addr(*master)) {
                f(heap.block_addr(b), heap.block_size());
            }
        }
    }
}

/// The durable footprint a staged block's commit point is responsible
/// for, declared to the persist-ordering sanitizer: what step 1 flushed,
/// the log entries and the committed-flag/count words. Only built when the
/// sanitizer is on (see [`jnvm_pmem::Pmem::sanitizer_active`]).
fn staged_footprint(rt: &Jnvm, state: &TxState, fp: &mut Vec<(u64, u64)>) {
    staged_ranges(rt, state, |addr, len| fp.push((addr, len)));
    let c = &state.log.chain;
    c.segments(LOG_ENTRIES, state.count * ENTRY_BYTES, |addr, len| fp.push((addr, len)));
    fp.push((c.phys(LOG_COMMITTED), 8));
    fp.push((c.phys(LOG_COUNT), 8));
}

/// Abort a block from its captured state (shared by a stage whose closure
/// unwound and [`StagedTx`]'s drop).
fn abort_state(state: TxState) {
    let TxState { rt, log, redirects, allocated, .. } = state;
    let heap = rt.heap();
    // Release in-flight copies (contents irrelevant, headers already 0).
    for inflight in redirects.values() {
        heap.push_free(heap.block_of_addr(*inflight));
    }
    // Release objects allocated inside the aborted block.
    for master in &allocated {
        rt.free_addr_now(*master);
    }
    // The log was never committed; its entries are dead.
    rt.fa_manager().release_log(log);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};

    fn used_slots(rt: &Jnvm) -> u64 {
        let dir = RawChain::open(rt, rt.heap().root_slot(2));
        let cap = rt.pmem().read_u64(dir.phys(0));
        (0..cap)
            .filter(|s| rt.pmem().read_u64(dir.phys(8 + s * 8)) != 0)
            .count() as u64
    }

    /// Regression: the commit used to hand in-flight copies and freed
    /// masters back to the volatile allocator during apply, *before* the
    /// log's committed flag was durably cleared. Another thread could then
    /// allocate such a block and scribble on it; a crash in that window
    /// replays the still-committed log and copies the scribbles onto
    /// committed state (observed in the concurrent torture harness as torn
    /// record fields and off-by-a-few block accounting).
    ///
    /// Single-threaded, deterministic form of the invariant: at **every**
    /// crash point of a commit, any block referenced by a log that is
    /// still committed on media must be unavailable to the allocator.
    #[test]
    fn commit_never_recycles_blocks_while_log_is_committed_on_media() {
        use jnvm_pmem::{catch_crash, silence_crash_panics, FaultPlan};
        silence_crash_panics();
        let setup = || {
            let pmem = Pmem::new(PmemConfig::crash_sim(2 << 20));
            let rt = JnvmBuilder::new()
                .create(Arc::clone(&pmem), HeapConfig::default())
                .unwrap();
            let x = Proxy::alloc(&rt, CLASS_ID_FALOG, 16);
            x.write_u64(0, 7);
            x.pwb();
            x.validate();
            let y = Proxy::alloc(&rt, CLASS_ID_FALOG, 16);
            y.pwb();
            y.validate();
            pmem.psync();
            (pmem, rt, x, y)
        };
        let workload = |rt: &Jnvm, x: &Proxy, y: &Proxy| {
            rt.fa(|| {
                x.write_u64(0, 99); // KIND_WRITE via an in-flight copy
                rt.free_addr(y.addr()); // KIND_FREE, deferred to commit
            });
        };
        let total = {
            let (pmem, rt, x, y) = setup();
            pmem.arm_faults(FaultPlan::count());
            workload(&rt, &x, &y);
            pmem.disarm_faults()
        };
        assert!(total > 0);
        for point in 0..total {
            let (pmem, rt, x, y) = setup();
            pmem.arm_faults(FaultPlan::crash_at(point));
            let outcome = catch_crash(|| workload(&rt, &x, &y));
            pmem.disarm_faults();
            if outcome.is_ok() {
                continue;
            }
            pmem.resync_cache();
            // Every block the volatile allocator would hand out right now.
            let heap = rt.heap();
            let mut allocatable = HashSet::new();
            while let Ok(b) = heap.alloc_block() {
                allocatable.insert(b);
            }
            // Blocks referenced by logs still committed on the media image.
            let dir = RawChain::open(&rt, rt.heap().root_slot(2));
            let cap = pmem.read_u64(dir.phys(0));
            for slot in 0..cap {
                let log_addr = pmem.read_u64(dir.phys(8 + slot * 8));
                if log_addr == 0 {
                    continue;
                }
                let chain = RawChain::open(&rt, log_addr);
                if pmem.read_u64(chain.phys(LOG_COMMITTED)) != 1 {
                    continue;
                }
                let count = pmem.read_u64(chain.phys(LOG_COUNT));
                for i in 0..count {
                    let (kind, a, b) = read_entry(&rt, &chain, i);
                    if kind == KIND_WRITE {
                        assert!(
                            !allocatable.contains(&heap.block_of_addr(b)),
                            "crash point {point}: in-flight block recycled \
                             while its log is still committed on media"
                        );
                    }
                    if kind == KIND_FREE {
                        assert!(
                            !allocatable.contains(&heap.block_of_addr(a)),
                            "crash point {point}: freed master recycled \
                             while its log is still committed on media"
                        );
                    }
                }
            }
        }
    }

    fn stage_setup() -> (Arc<jnvm_pmem::Pmem>, Jnvm, Vec<Proxy>) {
        let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
        let rt = JnvmBuilder::new()
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        let objs: Vec<Proxy> = (0..4)
            .map(|i| {
                let p = Proxy::alloc(&rt, CLASS_ID_FALOG, 16);
                p.write_u64(0, i);
                p.pwb();
                p.validate();
                p
            })
            .collect();
        pmem.psync();
        (pmem, rt, objs)
    }

    /// A group of K staged blocks commits behind 4 fences total, not 4K
    /// (flush, commit point, apply — durable before any flag clears —,
    /// retire), and every block's effect lands.
    #[test]
    fn group_commit_amortizes_fences() {
        let (pmem, rt, objs) = stage_setup();
        // Pre-warm the log pool: fresh-log creation pays its own fences,
        // which would obscure the steady-state count under test.
        let fam = rt.fa_manager();
        let warm: Vec<LogHandle> = (0..objs.len()).map(|_| fam.acquire_log(&rt)).collect();
        for log in warm {
            fam.release_log(log);
        }
        let before = pmem.stats();
        let mut group = Vec::new();
        for (i, obj) in objs.iter().enumerate() {
            let (tx, ()) = rt.fa_stage(|| obj.write_u64(0, 100 + i as u64));
            assert!(tx.op_count() > 0);
            group.push(tx);
        }
        rt.fa_commit_group(group);
        let d = pmem.stats().delta(&before);
        assert_eq!(d.pfences, 4, "K staged blocks share one 4-fence pass");
        for (i, obj) in objs.iter().enumerate() {
            assert_eq!(obj.read_u64(0), 100 + i as u64);
        }
        // The logs were retired and released: a fresh block reuses them.
        rt.fa(|| objs[0].write_u64(0, 7));
        assert_eq!(objs[0].read_u64(0), 7);
    }

    /// Dropping a staged handle aborts the block: masters untouched,
    /// in-flight copies and fresh allocations released.
    #[test]
    fn dropped_stage_aborts() {
        let (_pmem, rt, objs) = stage_setup();
        let free_before = rt.heap().stats().blocks_freed;
        {
            let (_tx, _) = rt.fa_stage(|| {
                objs[0].write_u64(0, 999);
                Proxy::alloc(&rt, CLASS_ID_FALOG, 16)
            });
            // _tx dropped here, uncommitted
        }
        assert_eq!(objs[0].read_u64(0), 0, "aborted stage must not apply");
        assert!(
            rt.heap().stats().blocks_freed > free_before,
            "abort releases the in-flight copy and the fresh allocation"
        );
        // Read-only (empty) stages commit for free.
        let (tx, v) = rt.fa_stage(|| objs[1].read_u64(0));
        assert_eq!(v, 1);
        assert_eq!(tx.op_count(), 0);
        rt.fa_commit_group(vec![tx]);
    }

    /// Crash-point sweep over an entire staged group commit: at every
    /// injected crash point the group must be all-or-nothing per block —
    /// after replay each object holds either its old or its new value, and
    /// once the group's commit point is durable, *all* blocks replay.
    #[test]
    fn group_commit_crash_sweep_is_atomic_per_block() {
        use jnvm_pmem::{catch_crash, silence_crash_panics, FaultPlan};
        silence_crash_panics();
        let workload = |rt: &Jnvm, objs: &[Proxy]| {
            let mut group = Vec::new();
            for (i, obj) in objs.iter().enumerate() {
                let (tx, ()) = rt.fa_stage(|| obj.write_u64(0, 100 + i as u64));
                group.push(tx);
            }
            rt.fa_commit_group(group);
        };
        let total = {
            let (pmem, rt, objs) = stage_setup();
            pmem.arm_faults(FaultPlan::count());
            workload(&rt, &objs);
            pmem.disarm_faults()
        };
        assert!(total > 0);
        for point in 0..total {
            let (pmem, rt, objs) = stage_setup();
            let addrs: Vec<u64> = objs.iter().map(|o| o.addr()).collect();
            pmem.arm_faults(FaultPlan::crash_at(point));
            let outcome = catch_crash(|| workload(&rt, &objs));
            drop(objs);
            drop(rt);
            pmem.disarm_faults();
            if outcome.is_ok() {
                continue;
            }
            let (rt2, _report) = JnvmBuilder::new().open(Arc::clone(&pmem)).unwrap();
            let values: Vec<u64> = addrs
                .iter()
                .map(|a| Proxy::open(&rt2, *a).read_u64(0))
                .collect();
            let mut news = 0;
            for (i, v) in values.iter().enumerate() {
                let old = i as u64;
                let new = 100 + i as u64;
                assert!(
                    *v == old || *v == new,
                    "crash point {point}: object {i} torn ({v})"
                );
                if *v == new {
                    news += 1;
                }
            }
            // The group shares one commit point: after it, every block
            // replays; before it, none do.
            assert!(
                news == 0 || news == values.len(),
                "crash point {point}: group split {news}/{} — the shared \
                 durability point must make the group all-or-nothing",
                values.len()
            );
        }
    }

    #[test]
    fn log_directory_grows_past_initial_capacity() {
        let pmem = Pmem::new(PmemConfig::crash_sim(16 << 20));
        let rt = JnvmBuilder::new()
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        let fam = rt.fa_manager();
        let want = DIR_CAPACITY + 8;
        // Acquire more logs than the directory's initial capacity without
        // releasing any — the 65th acquisition used to panic ("directory
        // full: too many threads").
        let logs: Vec<LogHandle> = (0..want).map(|_| fam.acquire_log(&rt)).collect();
        let addrs: HashSet<u64> = logs.iter().map(|l| l.addr()).collect();
        assert_eq!(addrs.len() as u64, want, "every log published at a distinct address");
        let dir = RawChain::open(&rt, rt.heap().root_slot(2));
        assert_eq!(pmem.read_u64(dir.phys(0)), DIR_CAPACITY * 2, "capacity doubled");
        assert_eq!(used_slots(&rt), want);
        for log in logs {
            fam.release_log(log);
        }
        // The grown directory survives recovery: every published log is
        // found and pooled again.
        pmem.drain_all();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        drop(rt);
        let (rt2, _report) = JnvmBuilder::new().open(Arc::clone(&pmem)).unwrap();
        let fam2 = rt2.fa_manager();
        assert_eq!(used_slots(&rt2), want);
        // Acquiring that many again drains the recovered pool: no new
        // logs are created, no directory slots consumed.
        let logs2: Vec<LogHandle> = (0..want).map(|_| fam2.acquire_log(&rt2)).collect();
        assert_eq!(used_slots(&rt2), want, "recovery must repopulate the log pool");
        for log in logs2 {
            fam2.release_log(log);
        }
    }
}
