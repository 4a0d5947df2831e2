//! Crash-point injection: a thread-safe counter over the device's
//! persistence-relevant operations (`write_*`, `pwb`, `pfence`, `psync`,
//! and the atomic word ops) that can trigger a simulated power failure
//! *between* any two of them.
//!
//! Ordinary crash tests call [`crate::Pmem::crash`] between whole
//! operations; persistence bugs live between the individual stores and
//! write-backs of a commit sequence (NVTraverse et al.). The engine makes
//! those interior points reachable:
//!
//! 1. Arm the device with [`FaultPlan::count`] and run the workload once —
//!    [`crate::Pmem::disarm_faults`] returns how many crash points `N` it
//!    has, and [`crate::Pmem::fault_trace`] says what each one is.
//! 2. For each `i in 0..N`: rebuild the workload's initial state, arm with
//!    [`FaultPlan::crash_at`]`(i)`, and run again. Immediately before the
//!    `i`-th operation the device simulates a power failure through the
//!    existing [`crate::Pmem::crash`] machinery and unwinds the workload
//!    with a [`CrashInjected`] panic, which [`catch_crash`] turns back into
//!    a value.
//! 3. Reopen the pool and assert the recovery invariants.
//!
//! After an injected crash the device is **frozen**: every subsequent
//! mutation or write-back is ignored until [`crate::Pmem::disarm_faults`].
//! This matters because the workload's unwind path (e.g. the
//! failure-atomic abort guard in `jnvm`) still executes and would
//! otherwise scribble post-crash writes onto the pool, making the
//! recovered state unrepresentative of a real power failure. Volatile
//! cleanup still runs; the persistent image stays exactly as the crash
//! left it.
//!
//! A power failure stops *every* CPU, not just the one whose store the
//! engine pre-empted. The first time any **other** thread touches the
//! frozen device it too unwinds, with [`CrashInjected::secondary`] set —
//! otherwise concurrent workers would keep "running past the end of the
//! world", mutating volatile state (heap free queues, metrics) that no
//! real post-crash process could observe. After its unwind a thread's
//! further device ops are skipped silently, so unwind destructors remain
//! safe to run.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::thread::ThreadId;

use parking_lot::Mutex;

use crate::config::{CrashPolicy, FaultMode, FaultPlan};
use crate::device::Pmem;

/// The kinds of persistence-relevant device operations the engine counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A `write_u8`/`u16`/`u32`/`u64` (or signed/float) store.
    Write,
    /// A `write_bytes` bulk store.
    WriteBytes,
    /// A `zero_range`.
    Zero,
    /// A `fetch_add_u64`.
    FetchAdd,
    /// A `cas_u64`.
    Cas,
    /// A `pwb` (each line of a `pwb_range` counts separately).
    Pwb,
    /// A `pfence`.
    Pfence,
    /// A `psync`.
    Psync,
}

impl FaultOp {
    /// Short lowercase label for traces and sweep tables.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Write => "write",
            FaultOp::WriteBytes => "write_bytes",
            FaultOp::Zero => "zero",
            FaultOp::FetchAdd => "fetch_add",
            FaultOp::Cas => "cas",
            FaultOp::Pwb => "pwb",
            FaultOp::Pfence => "pfence",
            FaultOp::Psync => "psync",
        }
    }
}

/// Panic payload thrown by an injected crash; catch it with [`catch_crash`].
#[derive(Debug, Clone, Copy)]
pub struct CrashInjected {
    /// 0-based index of the operation the crash pre-empted.
    pub op_index: u64,
    /// What that operation would have been.
    pub op: FaultOp,
    /// `false` on the thread whose operation hit the armed trigger;
    /// `true` when this unwind stopped *another* thread that touched the
    /// device after the power failure (its `op` is the op it attempted,
    /// `op_index` the trigger point).
    pub secondary: bool,
}

/// One counted operation, recorded in [`FaultMode::Count`] mode.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Operation kind.
    pub op: FaultOp,
    /// Byte address the operation targeted (0 for `pfence`/`psync`).
    pub addr: u64,
    /// The thread that issued it: a fence persists only its own thread's
    /// write-backs, so which thread ran an op says what a crash after it
    /// keeps.
    pub thread: ThreadId,
}

/// Internal engine state; one per device.
pub(crate) struct Injector {
    enabled: AtomicBool,
    frozen: AtomicBool,
    counter: AtomicU64,
    /// Op index to crash before; `u64::MAX` in count mode.
    trigger: AtomicU64,
    tracing: AtomicBool,
    /// Process-unique id of the current arming, compared against each
    /// thread's [`SEEN_CRASH`] to tell "this thread already unwound from
    /// this crash" (skip silently) from "fresh thread must unwind".
    crash_token: AtomicU64,
    policy: Mutex<CrashPolicy>,
    /// Non-clean lines the injected crash settled; 0 until one fires.
    crash_lines: AtomicU32,
    trace: Mutex<Vec<TraceRecord>>,
}

impl Default for Injector {
    fn default() -> Self {
        Injector {
            enabled: AtomicBool::new(false),
            frozen: AtomicBool::new(false),
            counter: AtomicU64::new(0),
            trigger: AtomicU64::new(u64::MAX),
            tracing: AtomicBool::new(false),
            crash_token: AtomicU64::new(0),
            policy: Mutex::new(CrashPolicy::strict()),
            crash_lines: AtomicU32::new(0),
            trace: Mutex::new(Vec::new()),
        }
    }
}

/// Source of process-unique crash tokens; 0 is reserved for "never saw a
/// crash" so the counter starts at 1.
static NEXT_CRASH_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The last crash token this thread unwound (or triggered) under.
    static SEEN_CRASH: Cell<u64> = const { Cell::new(0) };
}

impl Pmem {
    /// Arm the crash-point engine. Resets the op counter and trace, then
    /// counts every subsequent persistence-relevant operation; with
    /// [`FaultMode::CrashAt`]`(n)` the `n`-th one (0-based) is pre-empted
    /// by a simulated power failure and a [`CrashInjected`] panic.
    pub fn arm_faults(&self, plan: FaultPlan) {
        let inj = self.injector();
        inj.counter.store(0, Ordering::Relaxed);
        inj.frozen.store(false, Ordering::Relaxed);
        inj.crash_token.store(
            NEXT_CRASH_TOKEN.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        *inj.policy.lock() = plan.policy;
        inj.crash_lines.store(0, Ordering::Relaxed);
        inj.trace.lock().clear();
        let (trigger, tracing) = match plan.mode {
            FaultMode::Count => (u64::MAX, true),
            FaultMode::CrashAt(n) => (n, false),
        };
        inj.trigger.store(trigger, Ordering::Relaxed);
        inj.tracing.store(tracing, Ordering::Relaxed);
        inj.enabled.store(true, Ordering::Release);
    }

    /// Disarm the engine (clearing the frozen state an injected crash left
    /// behind) and return how many operations were counted while armed.
    pub fn disarm_faults(&self) -> u64 {
        let inj = self.injector();
        inj.enabled.store(false, Ordering::Release);
        inj.frozen.store(false, Ordering::Relaxed);
        inj.trigger.store(u64::MAX, Ordering::Relaxed);
        inj.tracing.store(false, Ordering::Relaxed);
        inj.counter.load(Ordering::Relaxed)
    }

    /// Operations counted since the last [`Pmem::arm_faults`].
    pub fn fault_ops(&self) -> u64 {
        self.injector().counter.load(Ordering::Relaxed)
    }

    /// True after an injected crash until the engine is disarmed; while
    /// frozen the device ignores every mutation and write-back.
    pub fn faults_frozen(&self) -> bool {
        self.injector().frozen.load(Ordering::Relaxed)
    }

    /// How many non-clean lines the injected crash since the last
    /// [`Pmem::arm_faults`] settled (0 until one fires): a
    /// [`CrashPolicy::Keep`] mask past that many bits names no further line.
    pub fn fault_crash_lines(&self) -> u32 {
        self.injector().crash_lines.load(Ordering::Relaxed)
    }

    /// The operation trace recorded by the last [`FaultMode::Count`] run.
    pub fn fault_trace(&self) -> Vec<TraceRecord> {
        self.injector().trace.lock().clone()
    }

    /// The per-operation hook. Returns `true` when the caller must skip
    /// the operation (device frozen by an earlier injected crash); does
    /// not return at all when this operation is the armed crash point.
    #[inline]
    pub(crate) fn fault_point(&self, op: FaultOp, addr: u64) -> bool {
        if !self.injector().enabled.load(Ordering::Relaxed) {
            return false;
        }
        self.fault_point_armed(op, addr)
    }

    #[cold]
    fn fault_point_armed(&self, op: FaultOp, addr: u64) -> bool {
        let inj = self.injector();
        if inj.frozen.load(Ordering::Relaxed) {
            // The device is down. A thread that already unwound from this
            // crash (or triggered it) is on its unwind/cleanup path: skip
            // the op silently. Any *other* thread is experiencing the
            // power failure for the first time — stop it too.
            let token = inj.crash_token.load(Ordering::Relaxed);
            if SEEN_CRASH.with(|c| c.get()) == token {
                return true;
            }
            SEEN_CRASH.with(|c| c.set(token));
            self.record_secondary_unwind();
            std::panic::panic_any(CrashInjected {
                op_index: inj.trigger.load(Ordering::Relaxed),
                op,
                secondary: true,
            });
        }
        let idx = inj.counter.fetch_add(1, Ordering::Relaxed);
        if inj.tracing.load(Ordering::Relaxed) {
            inj.trace.lock().push(TraceRecord {
                op,
                addr,
                thread: std::thread::current().id(),
            });
        }
        if idx == inj.trigger.load(Ordering::Relaxed) {
            // Freeze first: the crash below and the unwind after it must
            // not re-enter the engine or mutate the post-crash image.
            inj.frozen.store(true, Ordering::SeqCst);
            SEEN_CRASH.with(|c| c.set(inj.crash_token.load(Ordering::Relaxed)));
            let policy = *inj.policy.lock();
            self.record_injected_crash();
            // On a Performance pool there is nothing to roll back to; the
            // freeze + unwind still model the control-flow cut.
            let lines = self.crash_lines(&policy).unwrap_or(0);
            inj.crash_lines.store(lines, Ordering::Relaxed);
            std::panic::panic_any(CrashInjected {
                op_index: idx,
                op,
                secondary: false,
            });
        }
        false
    }
}

/// Run `f`, converting an injected-crash unwind into `Err(CrashInjected)`.
/// Any other panic is propagated unchanged.
///
/// `f` is wrapped in [`AssertUnwindSafe`]: an injected crash deliberately
/// abandons the workload's in-progress state, exactly as a power failure
/// abandons a half-executed program, and the caller is expected to discard
/// the workload context and re-derive everything from the pool.
pub fn catch_crash<R>(f: impl FnOnce() -> R) -> Result<R, CrashInjected> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<CrashInjected>() {
            Ok(ci) => Err(*ci),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

thread_local! {
    static HUSHED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII guard: while held, the hook installed by [`silence_crash_panics`]
/// swallows *every* panic on this thread, not just [`CrashInjected`].
///
/// A reader racing the exact instant a device freezes can observe the
/// crashing writer's abandoned in-DRAM state and trip a data-structure
/// invariant panic instead of a clean `CrashInjected` — expected in that
/// window, and the caller catches it, but without this guard the default
/// hook would print a backtrace for it. No effect unless
/// `silence_crash_panics` has installed the hook.
pub struct PanicHush {
    prev: bool,
}

/// Hush all panics on the current thread until the guard drops.
pub fn hush_panics() -> PanicHush {
    PanicHush {
        prev: HUSHED.with(|h| h.replace(true)),
    }
}

impl Drop for PanicHush {
    fn drop(&mut self) {
        let prev = self.prev;
        HUSHED.with(|h| h.set(prev));
    }
}

/// Install a panic hook that stays silent for [`CrashInjected`] unwinds
/// (sweeps inject hundreds of them) and for threads inside a
/// [`hush_panics`] scope, while delegating everything else to the
/// previously installed hook. Idempotent enough for test setups.
pub fn silence_crash_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let crash = info.payload().downcast_ref::<CrashInjected>().is_some();
        if !crash && !HUSHED.with(|h| h.get()) {
            prev(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PmemConfig;
    use std::sync::Arc;

    fn dev() -> Arc<Pmem> {
        Pmem::new(PmemConfig::crash_sim(4096))
    }

    /// Two fenced writes: ops are write, pwb, pfence, write, pwb, pfence.
    fn workload(p: &Pmem) {
        p.write_u64(0, 7);
        p.pwb(0);
        p.pfence();
        p.write_u64(128, 9);
        p.pwb(128);
        p.pfence();
    }

    #[test]
    fn count_mode_counts_and_traces() {
        let p = dev();
        p.arm_faults(FaultPlan::count());
        workload(&p);
        let n = p.disarm_faults();
        assert_eq!(n, 6);
        let trace = p.fault_trace();
        assert_eq!(trace.len(), 6);
        assert_eq!(trace[0].op, FaultOp::Write);
        assert_eq!(trace[1].op, FaultOp::Pwb);
        assert_eq!(trace[2].op, FaultOp::Pfence);
        assert_eq!(trace[1].addr, 0);
        assert_eq!(trace[4].addr, 128);
    }

    #[test]
    fn crash_at_every_point_yields_prefix_states() {
        silence_crash_panics();
        for i in 0..6u64 {
            let p = dev();
            p.arm_faults(FaultPlan::crash_at(i));
            let err = catch_crash(|| workload(&p)).expect_err("must crash");
            assert_eq!(err.op_index, i);
            assert!(p.faults_frozen());
            p.disarm_faults();
            // Under the strict policy, exactly the fenced prefix survives.
            let first = p.read_u64(0);
            let second = p.read_u64(128);
            if i < 3 {
                assert_eq!((first, second), (0, 0), "point {i}");
            } else {
                assert_eq!((first, second), (7, 0), "point {i}");
            }
        }
    }

    #[test]
    fn past_the_end_the_workload_completes() {
        let p = dev();
        p.arm_faults(FaultPlan::crash_at(100));
        assert!(catch_crash(|| workload(&p)).is_ok());
        assert_eq!(p.disarm_faults(), 6);
    }

    #[test]
    fn frozen_device_ignores_all_mutations() {
        silence_crash_panics();
        let p = dev();
        p.write_u64(0, 1);
        p.pwb(0);
        p.pfence();
        p.arm_faults(FaultPlan::crash_at(0));
        let _ = catch_crash(|| p.write_u64(0, 2)).expect_err("must crash");
        // The unwind path of a real workload keeps running: none of this
        // may reach the pool.
        p.write_u64(0, 3);
        p.write_bytes(8, &[0xff; 8]);
        p.zero_range(0, 8);
        assert_eq!(p.fetch_add_u64(0, 10), 1);
        assert!(p.cas_u64(0, 1, 9).is_err());
        p.pwb(0);
        p.pfence();
        p.psync();
        p.disarm_faults();
        assert_eq!(p.read_u64(0), 1);
        assert_eq!(p.read_u64(8), 0);
    }

    #[test]
    fn other_threads_unwind_after_injected_crash() {
        silence_crash_panics();
        let p = dev();
        p.arm_faults(FaultPlan::crash_at(0));
        let err = catch_crash(|| p.write_u64(0, 1)).expect_err("must crash");
        assert!(!err.secondary);
        let p2 = Arc::clone(&p);
        std::thread::spawn(move || {
            // A power failure stops every CPU: this thread's first op on
            // the frozen device must unwind too.
            let err = catch_crash(|| p2.write_u64(64, 2)).expect_err("other threads must stop");
            assert!(err.secondary);
            assert_eq!(err.op, FaultOp::Write);
            assert_eq!(
                err.op_index, 0,
                "secondary unwinds report the trigger point"
            );
            // After its own unwind the thread is quiesced; cleanup paths
            // may keep touching the device without aborting the process.
            p2.write_u64(64, 3);
            p2.pwb(64);
            p2.pfence();
        })
        .join()
        .unwrap();
        p.disarm_faults();
        assert_eq!(
            p.read_u64(64),
            0,
            "frozen device must drop all of the thread's writes"
        );
        assert_eq!(p.stats().secondary_unwinds, 1);
    }

    #[test]
    fn secondary_unwind_fires_once_per_crash() {
        silence_crash_panics();
        let p = dev();
        let worker = |p: &Arc<Pmem>| {
            let p = Arc::clone(p);
            std::thread::spawn(move || {
                catch_crash(|| p.write_u64(64, 2)).expect_err("secondary unwind")
            })
            .join()
            .unwrap()
        };
        // Two arm/crash cycles: a fresh crash token per arming means the
        // same OS thread would unwind again, and a *new* thread unwinds
        // exactly once per crash.
        for round in 0..2u64 {
            p.arm_faults(FaultPlan::crash_at(0));
            let _ = catch_crash(|| p.write_u64(0, 1)).expect_err("must crash");
            let err = worker(&p);
            assert!(err.secondary, "round {round}");
            p.disarm_faults();
        }
        assert_eq!(p.stats().secondary_unwinds, 2);
    }

    #[test]
    fn injected_crash_counts_in_stats() {
        silence_crash_panics();
        let p = dev();
        let before = p.stats();
        p.arm_faults(FaultPlan::crash_at(0));
        let _ = catch_crash(|| p.write_u64(0, 1)).expect_err("must crash");
        p.disarm_faults();
        let d = p.stats().delta(&before);
        assert_eq!(d.injected_crashes, 1);
        assert_eq!(d.crashes, 1);
    }

    #[test]
    fn disarmed_device_pays_nothing() {
        let p = dev();
        workload(&p);
        assert_eq!(p.fault_ops(), 0);
        assert!(p.fault_trace().is_empty());
    }
}
