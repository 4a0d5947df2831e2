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
//! performs (replaying a committed log, retiring it by zeroing its length,
//! nullifying a dangling reference, clearing a dead header or pool slot) is
//! idempotent, so a crash at any point inside recovery followed by a second
//! recovery converges to the same heap — with any thread count.
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
//!    it, validity-checks the target — the header word that says whether
//!    it is valid also names its class, which checks the reference's tag —
//!    and either nullifies the slot or claims and traces the target.
//!    (Were targets the work unit, a single wide parent — e.g. a
//!    million-element ref array — would serialize a million validity reads
//!    in the worker that traced it.) Visit-once is
//!    decided by an atomic [`jnvm_heap::LiveBitmap`]: the block bitmap for
//!    chained objects, the slot bitmap for pooled ones (one bit per pool
//!    slot, [`jnvm_heap::PoolManager::slot_bit`]), so each object is traced
//!    and `recover`-hooked by exactly one worker; every reference slot is
//!    yielded by exactly one parent's single trace, hence nullifications
//!    never race.
//! 3. **Sweep** — the pool rebuild partitions the span region per worker,
//!    span by span, and the free-queue rebuild the chain blocks below it
//!    (see the `jnvm-heap` crate), reading liveness from the slot and the
//!    block bitmap respectively.
//!
//! Every worker that writes ends with a `pfence` of its own persistence
//! domain; the caller closes recovery with `psync`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use jnvm_heap::{LiveBitmap, REF_ADDR_MASK};
use parking_lot::Mutex;

use crate::error::JnvmError;
use crate::proxy::RawChain;
use crate::registry::ClassOps;
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
        RecoveryOptions {
            mode: RecoveryMode::Full,
            threads: 1,
        }
    }
}

impl RecoveryOptions {
    /// Sequential recovery in the given mode.
    pub fn with_mode(mode: RecoveryMode) -> RecoveryOptions {
        RecoveryOptions { mode, threads: 1 }
    }

    /// Full recovery on `threads` workers.
    pub fn parallel(threads: usize) -> RecoveryOptions {
        RecoveryOptions {
            mode: RecoveryMode::Full,
            threads,
        }
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
    /// Live objects: the pool slots marked live plus the masters kept
    /// (visited in Full mode, valid in HeaderScan).
    pub live_objects: u64,
    /// Blocks found live: the chain blocks and the blocks of every span
    /// holding a live slot.
    pub live_blocks: u64,
    /// Blocks reclaimed into the free queue.
    pub freed_blocks: u64,
    /// Dangling references nullified (Full mode only), and references whose
    /// tag their class refused ([`crate::PObject::reference_ok`]).
    pub nullified_refs: u64,
    /// Device reads of the mark/traversal phase (the header passes in
    /// HeaderScan): a delta of the device's read count, so it counts any
    /// other traffic on the device while recovery runs. Exact at one
    /// thread; more workers may each read a span's meta word when they
    /// first touch the span at once.
    pub mark_reads: u64,
    /// Device reads of log replay, counted as [`RecoveryReport::mark_reads`].
    pub replay_reads: u64,
    /// Device reads of the sweep (pool and free-queue rebuilds), counted as
    /// [`RecoveryReport::mark_reads`].
    pub sweep_reads: u64,
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
    let reads_before = rt.pmem().stats().reads;
    let obs_replay = jnvm_obs::span_begin();
    report.replayed_logs = rt.fa_manager().recover_logs(rt)?;
    jnvm_obs::span_end(jnvm_obs::SpanKind::RecoveryReplay, obs_replay);
    report.replay_reads = rt.pmem().stats().reads - reads_before;
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

/// The class id of the object the reference `addr` (a masked reference
/// word) names, if it is a valid one: a valid master block of the data
/// area below the span region, at its first byte, or a valid slot of a
/// span. Anything else — past the device, inside a chain block, off a slot
/// boundary — is dangling (`None`), and its reference is nullified. One
/// header read.
fn valid_class(rt: &Jnvm, addr: u64) -> Option<u16> {
    let pools = rt.pools();
    if pools.is_pooled_addr(addr) {
        if !pools.is_slot_addr(addr) {
            return None;
        }
        let mini = pools.read_mini(addr);
        mini.valid.then_some(mini.id)
    } else {
        let heap = rt.heap();
        let idx = heap.block_of_addr(addr);
        if addr != heap.block_addr(idx) || idx < heap.data_start() || idx >= heap.nblocks() {
            return None;
        }
        let head = heap.read_header(idx);
        head.is_valid_master().then_some(head.id)
    }
}

// ----------------------------------------------------------------------
// The work-stealing mark traversal.
// ----------------------------------------------------------------------

/// Local stack size beyond which a worker spills half to the overflow.
const SPILL_THRESHOLD: usize = 256;
/// Addresses a starved worker steals from the overflow at once.
const STEAL_BATCH: usize = 128;

struct MarkShared<'a> {
    rt: &'a Jnvm,
    bitmap: &'a LiveBitmap,
    /// Claimed pooled objects, one bit per pool slot.
    slot_bitmap: &'a LiveBitmap,
    /// Spilled work (reference-slot addresses) any starved worker may
    /// steal.
    overflow: Mutex<Vec<u64>>,
    /// Workers currently processing (not idle). Work only enters the
    /// overflow from an active worker, so `active == 0 && overflow empty`
    /// means the traversal is complete.
    active: AtomicUsize,
    /// Set on the first traversal error; workers drain and exit.
    aborted: AtomicBool,
    /// Claimed masters (the pooled objects are the slot bitmap's count).
    masters: AtomicU64,
    nullified_refs: AtomicU64,
}

impl MarkShared<'_> {
    /// Mark the object at `addr` live: a pooled one's slot bit (its span
    /// is live while one of its bits is); a master's bit, then its chain's.
    /// `false` if another visit claimed it first.
    fn claim(&self, addr: u64) -> bool {
        let heap = self.rt.heap();
        let pools = self.rt.pools();
        if pools.is_pooled_addr(addr) {
            let bit = pools.slot_bit(addr).expect("a visited slot address");
            if !self.slot_bitmap.mark(bit) {
                return false;
            }
        } else {
            let idx = heap.block_of_addr(addr);
            if !self.bitmap.mark(idx) {
                return false;
            }
            for b in heap.chain_blocks(idx) {
                self.bitmap.mark(b);
            }
            self.masters.fetch_add(1, Ordering::Relaxed);
        }
        true
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
    /// tag ([`REF_ADDR_MASK`]), validity-check the target, have its class
    /// check the tag, and either nullify the slot (dangling, or a tag the
    /// class refuses) or visit the target — leaving a live word, tag and
    /// all, as it was. Each slot is yielded by exactly one parent's single
    /// trace, so this runs exactly once per slot and the nullify write
    /// never races another worker. The tag is checked before the claim, so
    /// which of two references to one object claims it first decides
    /// nothing.
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
        let ops = valid_class(self.rt, r & REF_ADDR_MASK)
            .map(|class_id| self.ops_of(class_id))
            .transpose()?;
        if let Some(ops) = ops.filter(|ops| (ops.reference_ok)(self.rt, r)) {
            self.visit(r, &ops, local)
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

    fn ops_of(&self, class_id: u16) -> Result<ClassOps, JnvmError> {
        self.rt
            .registry()
            .ops_of_id(class_id)
            .copied()
            .ok_or_else(|| JnvmError::UnknownPersistedClass(format!("id {class_id}")))
    }

    /// Visit one valid object of class `ops`, referenced by `word`: claim
    /// it, push every reference slot it holds as stealable work, and run
    /// the class's `recover` hook.
    fn visit(&self, word: u64, ops: &ClassOps, local: &mut Vec<u64>) -> Result<(), JnvmError> {
        let addr = word & REF_ADDR_MASK;
        if !self.claim(addr) {
            return Ok(());
        }
        let rt = self.rt;

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
        (ops.trace_extra)(rt, word, &mut |slot| push(slot, local));
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
            let ops = self.ops_of(self.rt.class_id_of_addr(root))?;
            self.visit(root, &ops, &mut local)?;
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
    let reads_before = rt.pmem().stats().reads;
    let bitmap = heap.new_bitmap();
    let slot_bitmap = rt.pools().new_slot_bitmap();

    // Roots: class table, root map, log directory (whose tracer yields the
    // logs). Root slots are written once at format time; all three exist.
    let roots: Vec<u64> = (0..3)
        .map(|s| heap.root_slot(s))
        .filter(|a| *a != 0)
        .collect();

    let shared = MarkShared {
        rt,
        bitmap: &bitmap,
        slot_bitmap: &slot_bitmap,
        overflow: Mutex::new(Vec::new()),
        active: AtomicUsize::new(threads),
        aborted: AtomicBool::new(false),
        masters: AtomicU64::new(0),
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
    report.live_objects = shared.masters.load(Ordering::Relaxed) + slot_bitmap.marked_count();
    report.nullified_refs = shared.nullified_refs.load(Ordering::Relaxed);
    report.modeled_mark_time = slowest(&mark_device);
    report.mark_thread_device_times = mark_device;
    report.live_blocks = bitmap.marked_count();
    report.mark_reads = rt.pmem().stats().reads - reads_before;
    report.mark_time = t_mark.elapsed();
    sweep(rt, &bitmap, &slot_bitmap, threads, report);
    Ok(())
}

fn header_scan(rt: &Jnvm, threads: usize, report: &mut RecoveryReport) {
    let heap = rt.heap();
    let pools = rt.pools();
    let t_mark = Instant::now();
    let reads_before = rt.pmem().stats().reads;
    let bitmap = heap.new_bitmap();
    let slot_bitmap = pools.new_slot_bitmap();

    // Pass 1 (read-only, partitioned — no pfence needed): collect valid
    // masters below the bump, and mark live slots span by span above the
    // floor. Worker `i` takes the `i`-th share of either range.
    let blocks = jnvm_heap::par::partition_range(heap.data_start(), heap.scan_end(), threads);
    let spans = jnvm_heap::par::partition_range(0, heap.span_count(), threads);
    let shares = (0..blocks.len().max(spans.len()))
        .map(|i| (blocks.get(i).copied(), spans.get(i).copied()))
        .collect();
    let scanned = jnvm_heap::par::run_workers_timed(shares, |(blocks, spans)| {
        let (lo, hi) = blocks.unwrap_or_default();
        let masters: Vec<u64> = (lo..hi)
            .filter(|idx| heap.read_header(*idx).is_valid_master())
            .collect();
        let (lo, hi) = spans.unwrap_or_default();
        for span in lo..hi {
            pools.scan_span(span, |slot, mini| {
                if mini.id != 0 && mini.valid {
                    slot_bitmap.mark(pools.slot_bit(slot).expect("a scanned slot"));
                }
            });
        }
        masters
    });
    let (mut master_lists, scan_device): (Vec<Vec<u64>>, Vec<Duration>) =
        scanned.into_iter().unzip();
    let masters: usize = master_lists.iter().map(Vec::len).sum();
    report.live_objects = slot_bitmap.marked_count() + masters as u64;
    master_lists.retain(|m| !m.is_empty());

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
    report.mark_reads = rt.pmem().stats().reads - reads_before;
    report.mark_time = t_mark.elapsed();
    sweep(rt, &bitmap, &slot_bitmap, threads, report);
}

/// The modeled critical path of a phase: its slowest worker's device time.
fn slowest(times: &[Duration]) -> Duration {
    times.iter().max().copied().unwrap_or_default()
}

/// The sweep both modes end with: rebuild the pool-slot and free-span
/// queues from the `slot_bitmap`, and the free queue from the block
/// `bitmap`.
fn sweep(
    rt: &Jnvm,
    bitmap: &LiveBitmap,
    slot_bitmap: &LiveBitmap,
    threads: usize,
    report: &mut RecoveryReport,
) {
    let t_sweep = Instant::now();
    let reads_before = rt.pmem().stats().reads;
    let (live_spans, pool_device) = rt.pools().rebuild(slot_bitmap, threads);
    let (freed, queue_device) = rt.heap().rebuild_free_queue(bitmap, threads);
    report.live_blocks += live_spans * rt.heap().span_blocks();
    report.freed_blocks = freed;
    report.sweep_reads = rt.pmem().stats().reads - reads_before;
    report.modeled_sweep_time = slowest(&pool_device) + slowest(&queue_device);
    report.sweep_time = t_sweep.elapsed();
}
