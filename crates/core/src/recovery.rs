//! The recovery procedure (§4.1.3): replay failure-atomic logs, then run a
//! recovery-time garbage collection that implements liveness by
//! reachability (§2.4) — the paper's replacement for a runtime GC.
//!
//! Two modes are provided, matching the paper's evaluation (§5.3.3):
//!
//! * [`RecoveryMode::Full`] — traverse the live object graph from the
//!   persistent roots, nullify references to invalid objects, call each
//!   class's `recover` hook, then reclaim every unreachable block.
//! * [`RecoveryMode::HeaderScanOnly`] — the *J-PFA-nogc* variant: inspect
//!   only block headers, keeping valid masters (and their chains) and
//!   freeing the rest. Correct only when the application cannot produce
//!   invalid-but-reachable objects (e.g. every allocation and its
//!   publication share one failure-atomic block).
//!
//! Both modes are **restartable**: every persistent mutation recovery
//! performs (replaying a committed log, retiring its flag, nullifying a
//! dangling reference, clearing a dead header or pool slot) is idempotent,
//! so a crash at any point inside recovery followed by a second recovery
//! converges to the same heap — with any thread count.
//!
//! Recovery has **one execution shape**: every partitioned phase hands its
//! work items to [`jnvm_heap::par::run_workers_timed`], and the sequential
//! pass is that engine with `RecoveryOptions::threads == 1` — a single
//! item, which runs on the calling thread. The phases:
//!
//! 1. **Replay** — committed logs replay on the caller, in directory-slot
//!    order (see `FaManager::recover_logs`). Not partitioned: a commit
//!    group is one log, so a committer leaves at most one committed log
//!    behind and replay is microseconds of a reopen (DESIGN.md §3).
//! 2. **Mark** — a work-stealing traversal: each worker runs DFS on a
//!    local stack, spilling half its stack to a shared overflow queue when
//!    it grows and stealing batches when starved. The unit of work is a
//!    **reference slot**, not an object: the worker that pops a slot reads
//!    it, validity-checks the target, and either nullifies the slot or
//!    claims and traces the target. (Were targets the work unit, a single
//!    wide parent — e.g. a million-element ref array — would serialize a
//!    million validity reads in the worker that traced it.) Visit-once is
//!    decided by the atomic [`jnvm_heap::LiveBitmap`] (chained objects) or
//!    a sharded claim table (pooled objects), so each object is traced and
//!    `recover`-hooked by exactly one worker; every reference slot is
//!    yielded by exactly one parent's single trace, hence nullifications
//!    never race.
//! 3. **Sweep** — pool-slot and free-queue rebuilds partition the block
//!    range per worker (see the `jnvm-heap` crate).
//!
//! Every worker that writes ends with a `pfence` of its own persistence
//! domain; the caller closes recovery with `psync`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use jnvm_heap::{LiveBitmap, CLASS_ID_POOL, REF_ADDR_MASK};
use parking_lot::Mutex;

use crate::error::JnvmError;
use crate::proxy::RawChain;
use crate::runtime::Jnvm;

/// Which recovery algorithm to run at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Graph traversal + reclamation (the default).
    #[default]
    Full,
    /// Header inspection only (J-PFA-nogc).
    HeaderScanOnly,
}

/// How to run recovery at open: the algorithm and its degree of
/// parallelism. `threads == 1` (the default) is the sequential pass — the
/// same engine with one worker — that the equivalence suite uses as its
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Which recovery algorithm to run.
    pub mode: RecoveryMode,
    /// Worker threads for mark and sweep (clamped to >= 1).
    pub threads: usize,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { mode: RecoveryMode::Full, threads: 1 }
    }
}

impl RecoveryOptions {
    /// Sequential recovery in the given mode.
    pub fn with_mode(mode: RecoveryMode) -> RecoveryOptions {
        RecoveryOptions { mode, threads: 1 }
    }

    /// Full recovery on `threads` workers.
    pub fn parallel(threads: usize) -> RecoveryOptions {
        RecoveryOptions { mode: RecoveryMode::Full, threads }
    }
}

/// What recovery did, with timings — the quantities behind Figure 11.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Mode that ran.
    pub mode_full: bool,
    /// Worker threads recovery ran with.
    pub threads: usize,
    /// Committed failure-atomic logs replayed.
    pub replayed_logs: u64,
    /// Live objects visited (Full mode) or valid masters and pool slots
    /// kept (HeaderScan).
    pub live_objects: u64,
    /// Blocks found live.
    pub live_blocks: u64,
    /// Blocks reclaimed into the free queue.
    pub freed_blocks: u64,
    /// Dangling references nullified (Full mode only).
    pub nullified_refs: u64,
    /// Wall time of log replay.
    pub log_time: Duration,
    /// Wall time of the collection pass (mark + sweep).
    pub gc_time: Duration,
    /// Wall time of the mark/traversal phase alone.
    pub mark_time: Duration,
    /// Wall time of the sweep phase (pool + free-queue rebuild) alone.
    pub sweep_time: Duration,
    /// Modeled device time of each mark worker: the latency-model
    /// nanoseconds that worker paid (all-zero on devices without a
    /// latency model).
    pub mark_thread_device_times: Vec<Duration>,
    /// Modeled critical-path duration of the mark/traversal phase: the
    /// slowest mark worker's device time.
    ///
    /// The busy-wait latency model charges each thread on its own core,
    /// so on a host with at least one core per worker these modeled
    /// figures track wall clock; on smaller hosts (a 1-CPU CI container)
    /// the spinning workers time-share and wall clock flattens while the
    /// modeled critical path still reflects how the work divided.
    pub modeled_mark_time: Duration,
    /// Modeled critical-path duration of the sweep phase (slowest pool
    /// sweeper plus slowest free-queue sweeper; the two sub-passes are
    /// sequential).
    pub modeled_sweep_time: Duration,
}

impl RecoveryReport {
    /// Modeled critical-path duration of the whole collection pass
    /// (mark + sweep) — the recovery-GC cost a machine with one core per
    /// worker would observe. See [`RecoveryReport::modeled_mark_time`].
    pub fn modeled_gc_time(&self) -> Duration {
        self.modeled_mark_time + self.modeled_sweep_time
    }
}

pub(crate) fn run(rt: &Jnvm, opts: RecoveryOptions) -> Result<RecoveryReport, JnvmError> {
    let threads = opts.threads.max(1);
    let mut report = RecoveryReport {
        mode_full: opts.mode == RecoveryMode::Full,
        threads,
        ..Default::default()
    };
    // 1. Failure-atomic logs first (§4.2).
    let t0 = Instant::now();
    let obs_replay = jnvm_obs::span_begin();
    report.replayed_logs = rt.fa_manager().recover_logs(rt)?;
    jnvm_obs::span_end(jnvm_obs::SpanKind::RecoveryReplay, obs_replay);
    report.log_time = t0.elapsed();

    // 2. Collection pass.
    let t1 = Instant::now();
    let obs_mark = jnvm_obs::span_begin();
    match opts.mode {
        RecoveryMode::Full => full_gc(rt, threads, &mut report)?,
        RecoveryMode::HeaderScanOnly => header_scan(rt, threads, &mut report),
    }
    jnvm_obs::span_end(jnvm_obs::SpanKind::RecoveryMark, obs_mark);
    report.gc_time = t1.elapsed();
    rt.pmem().psync();
    Ok(report)
}

/// Whether the reference `addr` (a masked reference word) names a valid
/// object: a valid master block of the data area, or a valid slot of a pool
/// block. Anything else — past the device, inside a chain block, off a slot
/// boundary — is dangling, and its reference is nullified.
fn object_valid(rt: &Jnvm, addr: u64) -> bool {
    let pools = rt.pools();
    if pools.is_pooled_addr(addr) {
        pools.is_slot_addr(addr) && pools.read_mini(addr).valid
    } else {
        let heap = rt.heap();
        let idx = heap.block_of_addr(addr);
        if idx < heap.data_start() || idx >= heap.nblocks() {
            return false;
        }
        heap.read_header(idx).is_valid_master()
    }
}

// ----------------------------------------------------------------------
// The work-stealing mark traversal.
// ----------------------------------------------------------------------

/// Shards of the pooled-object claim table. Pooled visit-once cannot use
/// the block bitmap (many pooled objects share one block), so claims go
/// through sharded hash sets keyed by slot address.
const CLAIM_SHARDS: usize = 64;
/// Local stack size beyond which a worker spills half to the overflow.
const SPILL_THRESHOLD: usize = 256;
/// Addresses a starved worker steals from the overflow at once.
const STEAL_BATCH: usize = 128;

struct MarkShared<'a> {
    rt: &'a Jnvm,
    bitmap: &'a LiveBitmap,
    /// Claimed pooled slots, sharded by address.
    pool_claims: Vec<Mutex<HashSet<u64>>>,
    /// Spilled work (reference-slot addresses) any starved worker may
    /// steal.
    overflow: Mutex<Vec<u64>>,
    /// Workers currently processing (not idle). Work only enters the
    /// overflow from an active worker, so `active == 0 && overflow empty`
    /// means the traversal is complete.
    active: AtomicUsize,
    /// Set on the first traversal error; workers drain and exit.
    aborted: AtomicBool,
    live_objects: AtomicU64,
    nullified_refs: AtomicU64,
}

impl MarkShared<'_> {
    fn claim(&self, addr: u64) -> bool {
        let heap = self.rt.heap();
        if self.rt.pools().is_pooled_addr(addr) {
            let shard = (addr as usize >> 3) % CLAIM_SHARDS;
            if !self.pool_claims[shard].lock().insert(addr) {
                return false;
            }
            self.bitmap.mark(heap.block_of_addr(addr));
            true
        } else {
            let idx = heap.block_of_addr(addr);
            if !self.bitmap.mark(idx) {
                return false;
            }
            for b in heap.chain_blocks(idx) {
                self.bitmap.mark(b);
            }
            true
        }
    }

    fn spill(&self, local: &mut Vec<u64>) {
        // Spill the *older* (bottom) half: breadth near the roots spreads
        // across workers while each keeps its recent, cache-warm tail.
        let keep = local.len() / 2;
        self.overflow.lock().extend(local.drain(..keep));
    }

    fn steal(&self, local: &mut Vec<u64>) -> bool {
        let mut q = self.overflow.lock();
        let take = q.len().min(STEAL_BATCH);
        if take == 0 {
            return false;
        }
        let at = q.len() - take;
        local.extend(q.drain(at..));
        true
    }

    /// Resolve one reference slot: read the stored reference, mask off any
    /// tag ([`REF_ADDR_MASK`]), validity-check the target, and either
    /// nullify the slot (dangling) or visit the target — leaving a live
    /// word, tag and all, as it was. Each slot is yielded by exactly one
    /// parent's single trace, so this runs exactly once per slot and the
    /// nullify write never races another worker.
    fn resolve_slot(
        &self,
        slot: u64,
        local: &mut Vec<u64>,
        nullified: &mut Vec<(u64, u64)>,
    ) -> Result<(), JnvmError> {
        let pmem = self.rt.pmem();
        let r = pmem.read_u64(slot);
        if r == 0 {
            return Ok(());
        }
        let addr = r & REF_ADDR_MASK;
        if object_valid(self.rt, addr) {
            self.visit(addr, local)
        } else {
            // §2.4: a reference to a partially deleted (or never
            // validated) object is nullified.
            pmem.write_u64(slot, 0);
            pmem.pwb(slot);
            if pmem.sanitizer_active() {
                nullified.push((slot, 8));
            }
            self.nullified_refs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    /// Visit one valid object: claim it, push every reference slot it
    /// holds as stealable work, and run the class's `recover` hook.
    fn visit(&self, addr: u64, local: &mut Vec<u64>) -> Result<(), JnvmError> {
        if !self.claim(addr) {
            return Ok(());
        }
        let rt = self.rt;
        self.live_objects.fetch_add(1, Ordering::Relaxed);

        let class_id = rt.class_id_of_addr(addr);
        let ops = *rt
            .registry()
            .ops_of_id(class_id)
            .ok_or_else(|| JnvmError::UnknownPersistedClass(format!("id {class_id}")))?;
        let push = |slot: u64, local: &mut Vec<u64>| {
            local.push(slot);
            if local.len() > SPILL_THRESHOLD {
                self.spill(local);
            }
        };
        if !ops.ref_offsets.is_empty() {
            let chain = RawChain::open(rt, addr);
            for off in ops.ref_offsets {
                push(chain.phys(*off), local);
            }
        }
        (ops.trace_extra)(rt, addr, &mut |slot| push(slot, local));
        (ops.recover)(rt, addr);
        Ok(())
    }

    /// One mark worker: visit its share of the roots, then drain the local
    /// slot stack, steal when starved, and retire when every worker is
    /// idle and the overflow is empty.
    fn worker(&self, roots: Vec<u64>) -> Result<(), JnvmError> {
        // An injected crash unwinds this worker as a panic, not an `Err` —
        // without raising `aborted` on the way out, workers idling in the
        // spin loop below (which touches no device line and thus never
        // feels the frozen device) would wait on `active` forever.
        struct AbortOnUnwind<'s, 'a>(&'s MarkShared<'a>);
        impl Drop for AbortOnUnwind<'_, '_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.aborted.store(true, Ordering::Relaxed);
                }
            }
        }
        let _guard = AbortOnUnwind(self);
        let mut nullified: Vec<(u64, u64)> = Vec::new();
        let result = self.traverse(roots, &mut nullified);
        if result.is_err() {
            self.aborted.store(true, Ordering::Relaxed);
        }
        // Drain this worker's nullification / recover-hook write-backs
        // (a persistence domain drains only its owner's queue).
        self.rt.pmem().pfence();
        // The slots this worker nullified are durable behind its own
        // closing fence.
        self.rt
            .pmem()
            .ordering_point("recovery-nullify", &nullified);
        result
    }

    /// The traversal proper of [`MarkShared::worker`]; returns early, with
    /// `Ok`, once another worker has aborted.
    fn traverse(&self, roots: Vec<u64>, nullified: &mut Vec<(u64, u64)>) -> Result<(), JnvmError> {
        let aborted = || self.aborted.load(Ordering::Relaxed);
        let mut local: Vec<u64> = Vec::new();
        for root in roots {
            if aborted() {
                return Ok(());
            }
            self.visit(root, &mut local)?;
        }
        loop {
            while let Some(slot) = local.pop() {
                if aborted() {
                    return Ok(());
                }
                self.resolve_slot(slot, &mut local, nullified)?;
            }
            if self.steal(&mut local) {
                continue;
            }
            // Idle protocol: deregister, then wait for either completion
            // (no active workers, empty overflow) or stealable work.
            self.active.fetch_sub(1, Ordering::SeqCst);
            loop {
                if aborted() {
                    return Ok(());
                }
                if !self.overflow.lock().is_empty() {
                    self.active.fetch_add(1, Ordering::SeqCst);
                    if self.steal(&mut local) {
                        break;
                    }
                    self.active.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                if self.active.load(Ordering::SeqCst) == 0 {
                    return Ok(());
                }
                std::thread::yield_now();
            }
        }
    }
}

fn full_gc(rt: &Jnvm, threads: usize, report: &mut RecoveryReport) -> Result<(), JnvmError> {
    let heap = rt.heap();
    let t_mark = Instant::now();
    let bitmap = heap.new_bitmap();

    // Roots: class table, root map, log directory (whose tracer yields the
    // logs). Root slots are written once at format time; all three exist.
    let roots: Vec<u64> = (0..3).map(|s| heap.root_slot(s)).filter(|a| *a != 0).collect();

    let shared = MarkShared {
        rt,
        bitmap: &bitmap,
        pool_claims: (0..CLAIM_SHARDS).map(|_| Mutex::new(HashSet::new())).collect(),
        overflow: Mutex::new(Vec::new()),
        active: AtomicUsize::new(threads),
        aborted: AtomicBool::new(false),
        live_objects: AtomicU64::new(0),
        nullified_refs: AtomicU64::new(0),
    };
    // Deal the roots round-robin among the workers. Workers beyond the
    // root count start with empty stacks and pick up spilled work from the
    // overflow as the traversal fans out.
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); threads];
    for (i, root) in roots.into_iter().enumerate() {
        stacks[i % threads].push(root);
    }
    let mut mark_device = Vec::with_capacity(threads);
    for (r, dt) in jnvm_heap::par::run_workers_timed(stacks, |s| shared.worker(s)) {
        r?;
        mark_device.push(dt);
    }
    report.live_objects = shared.live_objects.load(Ordering::Relaxed);
    report.nullified_refs = shared.nullified_refs.load(Ordering::Relaxed);
    report.modeled_mark_time = slowest(&mark_device);
    report.mark_thread_device_times = mark_device;
    report.live_blocks = bitmap.marked_count();
    report.mark_time = t_mark.elapsed();

    let live_slots: HashSet<u64> = shared
        .pool_claims
        .iter()
        .flat_map(|s| s.lock().iter().copied().collect::<Vec<u64>>())
        .collect();
    sweep(rt, &bitmap, &live_slots, threads, report);
    Ok(())
}

fn header_scan(rt: &Jnvm, threads: usize, report: &mut RecoveryReport) {
    let heap = rt.heap();
    let t_mark = Instant::now();
    let bitmap = heap.new_bitmap();

    // Pass 1 (read-only, partitioned — no pfence needed): find live pool
    // slots and valid masters; mark pool blocks with at least one live slot.
    let chunks = jnvm_heap::par::partition_range(heap.data_start(), heap.scan_end(), threads);
    let scanned = jnvm_heap::par::run_workers_timed(chunks, |(lo, hi)| {
        let mut live_slots: HashSet<u64> = HashSet::new();
        let mut masters: Vec<u64> = Vec::new();
        for idx in lo..hi {
            let h = heap.read_header(idx);
            if h.id == CLASS_ID_POOL {
                let mut any_live = false;
                rt.pools().scan_block_slots(idx, |slot, mini| {
                    if mini.id != 0 && mini.valid {
                        live_slots.insert(slot);
                        any_live = true;
                    }
                });
                if any_live {
                    bitmap.mark(idx);
                }
            } else if h.is_valid_master() {
                masters.push(idx);
            }
        }
        (live_slots, masters)
    });
    let mut live_slots: HashSet<u64> = HashSet::new();
    let mut master_lists: Vec<Vec<u64>> = Vec::new();
    let mut scan_device: Vec<Duration> = Vec::new();
    for ((slots, masters), dt) in scanned {
        report.live_objects += (slots.len() + masters.len()) as u64;
        live_slots.extend(slots);
        if !masters.is_empty() {
            master_lists.push(masters);
        }
        scan_device.push(dt);
    }

    // Pass 2 (read-only, partitioned): mark every kept master's chain.
    let chain_device: Vec<Duration> = jnvm_heap::par::run_workers_timed(master_lists, |masters| {
        for m in masters {
            for b in heap.chain_blocks(m) {
                bitmap.mark(b);
            }
        }
    })
    .into_iter()
    .map(|((), dt)| dt)
    .collect();
    report.modeled_mark_time = slowest(&scan_device) + slowest(&chain_device);
    report.mark_thread_device_times = scan_device;
    report.live_blocks = bitmap.marked_count();
    report.mark_time = t_mark.elapsed();
    sweep(rt, &bitmap, &live_slots, threads, report);
}

/// The modeled critical path of a phase: its slowest worker's device time.
fn slowest(times: &[Duration]) -> Duration {
    times.iter().max().copied().unwrap_or_default()
}

/// The sweep both modes end with: rebuild the pool-slot queues and the free
/// queue from the liveness `bitmap`.
fn sweep(
    rt: &Jnvm,
    bitmap: &LiveBitmap,
    live_slots: &HashSet<u64>,
    threads: usize,
    report: &mut RecoveryReport,
) {
    let t_sweep = Instant::now();
    let pool_device = rt.pools().rebuild(bitmap, live_slots, threads);
    let (freed, queue_device) = rt.heap().rebuild_free_queue(bitmap, threads);
    report.freed_blocks = freed;
    report.modeled_sweep_time = slowest(&pool_device) + slowest(&queue_device);
    report.sweep_time = t_sweep.elapsed();
}
