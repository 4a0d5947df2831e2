//! Calibrated busy-wait latency injection.
//!
//! The device charges nanosecond-scale costs per operation. `Instant::now`
//! is itself tens of nanoseconds, so the hot path instead runs a spin loop
//! whose iteration rate is calibrated once per process.

use std::sync::OnceLock;
use std::time::Instant;

/// Total latency-model nanoseconds charged to the calling thread so far.
///
/// Every [`spin_ns`] call both busy-waits and adds to this per-thread
/// counter, so a delta around a stretch of work is that thread's *modeled*
/// time on the simulated medium — the time the thread would spend if it
/// had a dedicated core. Wall clock and this counter agree when the host
/// has a core per thread; on smaller hosts (notably 1-CPU CI containers)
/// busy-waiting threads time-share and wall clock cannot show parallel
/// speedup, while per-thread charged time still can. Zero on devices with
/// no latency model.
pub fn thread_charged_ns() -> u64 {
    crate::stats::charged_ns()
}

/// Spin-loop iterations executed per nanosecond, measured once.
fn iters_per_ns() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Warm up, then measure a fixed batch.
        spin_iters(100_000);
        let iters: u64 = 4_000_000;
        let start = Instant::now();
        spin_iters(iters);
        let elapsed = start.elapsed().as_nanos().max(1) as f64;
        (iters as f64 / elapsed).max(0.01)
    })
}

#[inline]
fn spin_iters(n: u64) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

/// Busy-wait for approximately `ns` nanoseconds.
///
/// Accuracy is best above ~50 ns; shorter waits round down to a handful of
/// spin iterations. A zero argument returns immediately.
#[inline]
pub fn spin_ns(ns: u64) {
    if ns != 0 {
        crate::stats::charge(ns);
        spin_uncharged(ns);
    }
}

/// The busy-wait of [`spin_ns`], for a device op that charged `ns` in its
/// own thread-local access.
#[inline]
pub(crate) fn spin_uncharged(ns: u64) {
    if ns != 0 {
        let iters = (ns as f64 * iters_per_ns()) as u64;
        spin_iters(iters.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn zero_is_free() {
        let start = Instant::now();
        for _ in 0..1_000_000 {
            spin_ns(0);
        }
        // A million no-ops should be far under 100ms.
        assert!(start.elapsed().as_millis() < 100);
    }

    #[test]
    fn spin_is_roughly_calibrated() {
        // We only need the right order of magnitude for the simulation, and
        // debug builds / noisy CI skew the calibration, so bounds are loose.
        spin_ns(1_000_000); // warm the calibration
        let start = Instant::now();
        spin_ns(1_000_000);
        let elapsed = start.elapsed().as_nanos() as u64;
        assert!(
            elapsed > 20_000,
            "1ms spin finished suspiciously fast: {elapsed}ns"
        );
        assert!(
            elapsed < 100_000_000,
            "1ms spin took suspiciously long: {elapsed}ns"
        );
    }
}
