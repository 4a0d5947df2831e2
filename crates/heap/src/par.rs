//! Fork/join helper every recovery phase runs through (heap sweeps here,
//! the mark traversal and header scan in `jnvm`): one execution shape,
//! with the sequential pass expressed as a single work item.
//!
//! The one delicate piece is crash propagation: a recovery worker that
//! races a crash-point injection ([`jnvm_pmem::FaultPlan`]) unwinds with a
//! [`CrashInjected`] panic — and `std::thread::scope` replaces a joined
//! panic payload with its own generic message, which would make the crash
//! uncatchable by [`jnvm_pmem::catch_crash`]. [`run_workers_timed`]
//! therefore catches the crash *inside* each worker and re-throws it from
//! the calling thread after every worker has quiesced, preferring the
//! primary trigger over secondary unwinds so sweep reports name the real
//! crash point. Non-crash worker panics (real bugs) propagate unchanged.

use std::time::Duration;

use jnvm_pmem::{catch_crash, thread_charged_ns, CrashInjected};

/// Split `[lo, hi)` into at most `parts` contiguous non-empty chunks.
pub fn partition_range(lo: u64, hi: u64, parts: usize) -> Vec<(u64, u64)> {
    if lo >= hi {
        return Vec::new();
    }
    let len = hi - lo;
    let parts = (parts.max(1) as u64).min(len);
    let chunk = len.div_ceil(parts);
    let mut out = Vec::with_capacity(parts as usize);
    let mut start = lo;
    while start < hi {
        let end = (start + chunk).min(hi);
        out.push((start, end));
        start = end;
    }
    out
}

/// Run `f` over `items` and collect the results in item order, each paired
/// with the worker's **modeled device time**: the
/// [`jnvm_pmem::thread_charged_ns`] delta across the worker's run, i.e. the
/// latency-model nanoseconds that worker paid. On a host with a core per
/// worker this tracks wall clock; on smaller hosts the busy-wait latency
/// model time-shares cores and wall clock flattens, while the per-worker
/// charged time still reflects how the work actually divided. All-zero on
/// devices without a latency model.
///
/// A single item runs on the calling thread — the sequential recovery pass
/// is this engine with one worker, and an injected crash inside it simply
/// unwinds the caller. Two or more items run on one scoped thread each; an
/// injected crash in any worker is re-thrown on the calling thread (primary
/// preferred over secondary) once all workers have stopped, so the caller
/// unwinds with a payload [`jnvm_pmem::catch_crash`] understands.
pub fn run_workers_timed<I, T>(items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<(T, Duration)>
where
    I: Send,
    T: Send,
{
    let timed = |item: I| {
        let before = thread_charged_ns();
        let r = f(item);
        (r, Duration::from_nanos(thread_charged_ns() - before))
    };
    if items.len() == 1 {
        return items.into_iter().map(timed).collect();
    }
    let results: Vec<Result<(T, Duration), CrashInjected>> = std::thread::scope(|s| {
        let timed = &timed;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| s.spawn(move || catch_crash(|| timed(item))))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // A non-crash panic is a real bug: propagate it unchanged.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut out = Vec::with_capacity(results.len());
    let mut crash: Option<CrashInjected> = None;
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(ci) => {
                let replace = match &crash {
                    None => true,
                    Some(held) => held.secondary && !ci.secondary,
                };
                if replace {
                    crash = Some(ci);
                }
            }
        }
    }
    if let Some(ci) = crash {
        std::panic::panic_any(ci);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_range_exactly() {
        assert_eq!(partition_range(5, 5, 4), Vec::<(u64, u64)>::new());
        assert_eq!(partition_range(0, 3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        let chunks = partition_range(16, 1016, 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.first(), Some(&(16, 266)));
        assert_eq!(chunks.last().map(|c| c.1), Some(1016));
        let covered: u64 = chunks.iter().map(|(lo, hi)| hi - lo).sum();
        assert_eq!(covered, 1000);
    }

    fn values<T>(out: Vec<(T, Duration)>) -> Vec<T> {
        out.into_iter().map(|(v, _)| v).collect()
    }

    #[test]
    fn single_item_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let out = run_workers_timed(vec![7u64], |x| (x * 10, std::thread::current().id()));
        assert_eq!(values(out), vec![(70, me)]);
        assert!(run_workers_timed(Vec::<u64>::new(), |x| x).is_empty());
    }

    #[test]
    fn several_items_run_on_distinct_threads_in_item_order() {
        let me = std::thread::current().id();
        let out = values(run_workers_timed(vec![1u64, 2, 3], |x| {
            (x * 10, std::thread::current().id())
        }));
        assert_eq!(
            out.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        let ids: std::collections::HashSet<_> = out.iter().map(|(_, id)| *id).collect();
        assert_eq!(ids.len(), 3, "one thread per item");
        assert!(!ids.contains(&me), "no item of several runs on the caller");
    }

    /// Crash at device op 2 of a store + `pwb` per item: with one item the
    /// crash unwinds the caller itself, with four it is caught in a worker
    /// and re-thrown — either way `catch_crash` on the caller sees the
    /// primary trigger.
    #[test]
    fn injected_crash_reaches_the_caller_catchably() {
        use jnvm_pmem::{silence_crash_panics, FaultPlan, Pmem, PmemConfig};
        silence_crash_panics();
        for items in [vec![0u64], vec![0, 1, 2, 3]] {
            let n = items.len();
            let pmem = Pmem::new(PmemConfig::crash_sim(4096));
            pmem.arm_faults(FaultPlan::crash_at(2));
            let outcome = catch_crash(|| {
                run_workers_timed(items, |i| {
                    for line in [i, i + 4] {
                        pmem.write_u64(line * 64, 1);
                        pmem.pwb(line * 64);
                    }
                })
            });
            pmem.disarm_faults();
            let crash = outcome.expect_err("crash must propagate to the caller");
            assert!(
                !crash.secondary,
                "{n} items: primary preferred over secondary unwinds"
            );
        }
    }
}
