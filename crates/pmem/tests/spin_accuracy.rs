//! How closely the latency model's busy-wait tracks the time it charges.
//!
//! `spin_ns` turns modeled nanoseconds into spin iterations at a rate it
//! measures once per process, at first use. A process that calibrates while
//! its core is shared, or whose core becomes shared after, spins for a wall
//! time other than the one it charges. This is a measurement, not a check:
//! it prints, per device charge of the Optane-like profile and over all of
//! them, the wall nanoseconds spent inside `spin_ns` divided by the
//! nanoseconds charged, in three scenarios — alone, with CPU hogs started
//! before the calibration, and with hogs started after it. Each scenario
//! runs in a process of its own, so that each calibrates afresh:
//!
//! ```text
//! cargo test --release -p jnvm-pmem --test spin_accuracy -- --ignored --nocapture
//! ```
//!
//! A hog is a thread spinning until told to stop; there is one per core, so
//! that the measuring thread shares a core with one.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use jnvm_pmem::{spin_ns, thread_charged_ns};

/// What a device op charges under `LatencyProfile::optane_like`: a line
/// read, a `pwb`, a `pfence`, a `psync`.
const CHARGES: [u64; 4] = [30, 70, 110, 130];

/// `spin_ns` calls timed per charge.
const CALLS: u64 = 1_000_000;

/// The scenarios, each the name of the test that runs it in its own
/// process.
const SCENARIOS: [&str; 3] = [
    "spin_alone",
    "spin_hogs_before_calibration",
    "spin_hogs_after_calibration",
];

struct Hogs {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Hogs {
    fn start() -> Hogs {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Hogs { stop, threads }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("hog thread");
        }
    }
}

/// The first `spin_ns` of the process measures the spin rate.
fn calibrate() {
    spin_ns(1);
}

/// Print the scenario's row: wall ns ÷ charged ns per charge, then over all.
fn report(scenario: &str) {
    let (mut wall_all, mut charged_all) = (0u128, 0u64);
    let mut row = format!("spin-accuracy | {scenario}");
    for ns in CHARGES {
        let charged = thread_charged_ns();
        let start = Instant::now();
        for _ in 0..CALLS {
            spin_ns(ns);
        }
        let wall = start.elapsed().as_nanos();
        let charged = thread_charged_ns() - charged;
        row += &format!(" | {ns} ns: {:.3}", wall as f64 / charged as f64);
        wall_all += wall;
        charged_all += charged;
    }
    println!("{row} | all: {:.3}", wall_all as f64 / charged_all as f64);
}

/// Whether this process was started for the one test named on its command
/// line: a scenario measures only in a process of its own.
fn own_process() -> bool {
    std::env::args().any(|a| a == "--exact")
}

#[test]
#[ignore = "a measurement: run in release with --ignored --nocapture"]
fn spin_wall_time_over_charged_time() {
    let exe = std::env::current_exe().expect("the test binary");
    for scenario in SCENARIOS {
        let out = Command::new(&exe)
            .args([
                "--ignored",
                "--exact",
                scenario,
                "--nocapture",
                "--test-threads",
                "1",
            ])
            .output()
            .expect("run the scenario's process");
        assert!(out.status.success(), "{scenario}: {out:?}");
        // The row follows the test harness's "test <name> ... " on its line.
        let stdout = String::from_utf8_lossy(&out.stdout);
        let rows = stdout
            .lines()
            .filter_map(|l| l.find("spin-accuracy |").map(|at| &l[at..]));
        rows.for_each(|row| println!("{row}"));
    }
}

#[test]
#[ignore = "one scenario of spin_wall_time_over_charged_time, in its own process"]
fn spin_alone() {
    if own_process() {
        calibrate();
        report("alone");
    }
}

#[test]
#[ignore = "one scenario of spin_wall_time_over_charged_time, in its own process"]
fn spin_hogs_before_calibration() {
    if own_process() {
        let hogs = Hogs::start();
        calibrate();
        report("hogs before calibration");
        hogs.stop();
    }
}

#[test]
#[ignore = "one scenario of spin_wall_time_over_charged_time, in its own process"]
fn spin_hogs_after_calibration() {
    if own_process() {
        calibrate();
        let hogs = Hogs::start();
        report("hogs after calibration");
        hogs.stop();
    }
}
