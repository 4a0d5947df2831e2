//! The crash/recovery throughput-timeline driver behind Figure 11.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use jnvm::{JnvmBuilder, RecoveryMode, RecoveryOptions, RecoveryReport};
use jnvm_heap::HeapConfig;
use jnvm_kvstore::CostModel;
use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};

use crate::bank::{register_tpcb, Bank, FsBank, JnvmBank, VolatileBank};

/// Which persistence design to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankKind {
    /// DRAM only; a restart begins from zeroed accounts.
    Volatile,
    /// File-per-account over the simulated DAX file system.
    Fs,
    /// J-NVM with failure-atomic transfers, full recovery GC.
    Jpfa,
    /// J-PFA with the header-scan-only recovery (J-PFA-nogc).
    JpfaNogc,
}

impl BankKind {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            BankKind::Volatile => "volatile",
            BankKind::Fs => "fs",
            BankKind::Jpfa => "jpfa",
            BankKind::JpfaNogc => "jpfa-nogc",
        }
    }
}

/// Timeline parameters (defaults are the 1/100-scaled paper setup).
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Accounts (paper: 10 M).
    pub accounts: u64,
    /// Initial balance per account.
    pub initial_balance: i64,
    /// Load-injector threads.
    pub threads: usize,
    /// Worker threads of the recovery pass at restart (mark, sweep). `1`
    /// is the sequential pass.
    pub recovery_threads: usize,
    /// Seconds of load before the crash (paper: 60 s).
    pub run_before: Duration,
    /// Seconds of load after recovery.
    pub run_after: Duration,
    /// Throughput bucket width.
    pub bucket: Duration,
    /// Persistent pool size for the J-NVM/FS designs.
    pub pool_bytes: u64,
    /// Fraction of accounts the FS design eagerly reloads at restart
    /// (Infinispan reloads its 10 % cache).
    pub fs_preload_ratio: f64,
    /// Software cost model for the FS design.
    pub costs: CostModel,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            accounts: 100_000,
            initial_balance: 100,
            threads: 4,
            recovery_threads: 1,
            run_before: Duration::from_secs(2),
            run_after: Duration::from_secs(2),
            bucket: Duration::from_millis(250),
            pool_bytes: 1 << 30,
            fs_preload_ratio: 0.1,
            costs: CostModel::default_model(),
        }
    }
}

/// What the driver measured.
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// Design under test.
    pub kind: BankKind,
    /// `(bucket start seconds, transfers completed)`.
    pub buckets: Vec<(f64, u64)>,
    /// When the crash was injected (seconds from start).
    pub crash_at: f64,
    /// Restart duration: crash to first served request (seconds).
    pub restart_duration: f64,
    /// Mean throughput before the crash (ops/s).
    pub nominal_before: f64,
    /// Mean throughput after recovery (ops/s).
    pub nominal_after: f64,
    /// Recovery report of the J-NVM designs.
    pub recovery: Option<RecoveryReport>,
    /// Whether the sum of balances was conserved across the crash
    /// (trivially false for Volatile, which restarts from zero).
    pub money_conserved: bool,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    bank: &Arc<dyn Bank>,
    accounts: u64,
    threads: usize,
    duration: Duration,
    start: Instant,
    bucket: Duration,
    buckets: &[AtomicU64],
    seed: u64,
) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..threads {
            let bank = Arc::clone(bank);
            let stop = &stop;
            let buckets = &*buckets;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ t as u64);
                while !stop.load(Ordering::Relaxed) {
                    let a = rng.random_range(0..accounts);
                    let mut b = rng.random_range(0..accounts);
                    if b == a {
                        b = (b + 1) % accounts;
                    }
                    bank.transfer(a, b, 1);
                    let idx = (start.elapsed().as_nanos() / bucket.as_nanos()) as usize;
                    if idx < buckets.len() {
                        buckets[idx].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
}

/// Run the Figure 11 experiment for one design.
pub fn run_timeline(kind: BankKind, cfg: &TimelineConfig) -> TimelineReport {
    let bucket_count = ((cfg.run_before + cfg.run_after + Duration::from_secs(120)).as_nanos()
        / cfg.bucket.as_nanos()) as usize;
    let buckets: Vec<AtomicU64> = (0..bucket_count).map(|_| AtomicU64::new(0)).collect();

    // Build the initial bank.
    let pmem = match kind {
        BankKind::Volatile => None,
        BankKind::Fs => Some(Pmem::new(PmemConfig::perf(cfg.pool_bytes))),
        BankKind::Jpfa | BankKind::JpfaNogc => Some(Pmem::new(PmemConfig::perf(cfg.pool_bytes))),
    };
    let bank: Arc<dyn Bank> = match kind {
        BankKind::Volatile => Arc::new(VolatileBank::new(cfg.accounts, cfg.initial_balance)),
        BankKind::Fs => Arc::new(FsBank::create(
            Arc::clone(pmem.as_ref().expect("fs has a pool")),
            cfg.accounts,
            cfg.initial_balance,
            cfg.costs,
        )),
        BankKind::Jpfa | BankKind::JpfaNogc => {
            let rt = register_tpcb(JnvmBuilder::new())
                .create(
                    Arc::clone(pmem.as_ref().expect("jnvm has a pool")),
                    HeapConfig::default(),
                )
                .expect("pool creation");
            Arc::new(JnvmBank::create(&rt, cfg.accounts, cfg.initial_balance).expect("bank"))
        }
    };

    let start = Instant::now();
    drive(
        &bank,
        cfg.accounts,
        cfg.threads,
        cfg.run_before,
        start,
        cfg.bucket,
        &buckets,
        7,
    );
    let crash_at = start.elapsed().as_secs_f64();
    drop(bank);

    // Crash: the device loses unflushed lines (Performance pools have no
    // crash simulation — the volatile structures being dropped and rebuilt
    // is the restart under test; CrashSim-mode atomicity is covered by the
    // unit/integration tests).
    if let Some(p) = &pmem {
        let _ = p.crash(&CrashPolicy::strict());
    }

    // Restart (timed).
    let restart_begin = Instant::now();
    let mut recovery = None;
    let bank2: Arc<dyn Bank> = match kind {
        BankKind::Volatile => Arc::new(VolatileBank::new(cfg.accounts, 0)),
        BankKind::Fs => Arc::new(FsBank::mount(
            Arc::clone(pmem.as_ref().expect("fs has a pool")),
            cfg.accounts,
            (cfg.accounts as f64 * cfg.fs_preload_ratio) as u64,
            cfg.costs,
        )),
        BankKind::Jpfa | BankKind::JpfaNogc => {
            let mode = if kind == BankKind::JpfaNogc {
                RecoveryMode::HeaderScanOnly
            } else {
                RecoveryMode::Full
            };
            let (rt, report) = register_tpcb(JnvmBuilder::new())
                .open_with_options(
                    Arc::clone(pmem.as_ref().expect("jnvm has a pool")),
                    RecoveryOptions { mode, threads: cfg.recovery_threads },
                )
                .expect("recovery");
            recovery = Some(report);
            Arc::new(JnvmBank::open(&rt).expect("bank reopen"))
        }
    };
    let restart_duration = restart_begin.elapsed().as_secs_f64();

    let money_conserved =
        bank2.total() == cfg.accounts as i64 * cfg.initial_balance && kind != BankKind::Volatile;

    drive(
        &bank2,
        cfg.accounts,
        cfg.threads,
        cfg.run_after,
        start,
        cfg.bucket,
        &buckets,
        13,
    );

    // Summaries.
    let bucket_s = cfg.bucket.as_secs_f64();
    let series: Vec<(f64, u64)> = buckets
        .iter()
        .enumerate()
        .map(|(i, b)| (i as f64 * bucket_s, b.load(Ordering::Relaxed)))
        .take_while(|(t, _)| *t < start.elapsed().as_secs_f64())
        .collect();
    let before: Vec<u64> = series
        .iter()
        .filter(|(t, _)| *t + bucket_s <= crash_at)
        .map(|(_, n)| *n)
        .collect();
    let after: Vec<u64> = series
        .iter()
        .filter(|(t, _)| *t >= crash_at + restart_duration + bucket_s)
        .map(|(_, n)| *n)
        .collect();
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64 / bucket_s
        }
    };
    TimelineReport {
        kind,
        buckets: series,
        crash_at,
        restart_duration,
        nominal_before: mean(&before),
        nominal_after: mean(&after),
        recovery,
        money_conserved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TimelineConfig {
        TimelineConfig {
            accounts: 1000,
            threads: 2,
            run_before: Duration::from_millis(300),
            run_after: Duration::from_millis(300),
            bucket: Duration::from_millis(50),
            pool_bytes: 64 << 20,
            costs: CostModel::free(),
            ..TimelineConfig::default()
        }
    }

    #[test]
    fn volatile_timeline_restarts_from_zero() {
        let r = run_timeline(BankKind::Volatile, &tiny());
        assert!(r.nominal_before > 0.0);
        assert!(!r.money_conserved, "volatile loses all balances");
        assert!(r.restart_duration < 1.0);
    }

    #[test]
    fn jpfa_timeline_conserves_money_and_recovers() {
        let r = run_timeline(BankKind::Jpfa, &tiny());
        assert!(r.nominal_before > 0.0, "server served before crash");
        assert!(r.money_conserved, "failure-atomic transfers conserve money");
        assert!(r.recovery.is_some());
        assert!(r.nominal_after > 0.0, "server served after recovery");
    }

    #[test]
    fn jpfa_nogc_recovers_faster_shape() {
        let full = run_timeline(BankKind::Jpfa, &tiny());
        let nogc = run_timeline(BankKind::JpfaNogc, &tiny());
        assert!(nogc.money_conserved);
        let full_rec = full.recovery.unwrap();
        let nogc_rec = nogc.recovery.unwrap();
        assert!(full_rec.mode_full);
        assert!(!nogc_rec.mode_full);
    }

    #[test]
    fn jpfa_timeline_with_parallel_recovery_conserves_money() {
        let cfg = TimelineConfig { recovery_threads: 4, ..tiny() };
        let r = run_timeline(BankKind::Jpfa, &cfg);
        assert!(r.money_conserved, "parallel recovery must not tear transfers");
        assert_eq!(r.recovery.expect("recovery ran").threads, 4);
    }

    #[test]
    fn fs_timeline_conserves_money() {
        let r = run_timeline(BankKind::Fs, &tiny());
        assert!(r.money_conserved);
        assert!(r.nominal_before > 0.0);
    }
}
