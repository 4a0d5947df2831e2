//! The system under test: simulated devices, the pool stacks on them, the
//! preload, the server, and the crash-and-reopen path.
//!
//! Fixed set-up (README, "Fixed set-up"): `SimMode::CrashSim` with
//! `LatencyProfile::optane_like()`, sanitizer off, 16 map shards per pool,
//! J-PFA on, grid cache 0, `ServerConfig::default()`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jnvm::{RecoveryOptions, RecoveryReport};
use jnvm_kvstore::{commit_writes, GridConfig, ShardedKv, WriteOp};
use jnvm_pmem::{CrashPolicy, LatencyProfile, Pmem, PmemConfig, SanitizeMode, StatsSnapshot};
use jnvm_server::{Server, ServerConfig, ShardHandle};

use crate::workload::Workload;

const MAP_SHARDS: usize = 16;
const PRELOAD_BATCH: usize = 64;

fn grid_cfg() -> GridConfig {
    GridConfig {
        cache_capacity: 0,
        ..GridConfig::default()
    }
}

/// Threads the harness may use at once: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Formatted and preloaded pools, one `ShardedKv` per replica position.
pub struct Rig {
    /// `pmems[replica][shard]`.
    pmems: Vec<Vec<Arc<Pmem>>>,
    /// `kvs[replica]`, each over `pmems[replica]`.
    kvs: Vec<ShardedKv>,
}

impl Rig {
    /// Format fresh pools and load `w.records` records into every replica
    /// through the group-commit path, one thread per pool.
    pub fn format_and_preload(w: &Workload) -> Rig {
        let pmems: Vec<Vec<Arc<Pmem>>> = (0..w.replicas)
            .map(|r| {
                let role = if r == 0 { "primary" } else { "backup" };
                (0..w.shards)
                    .map(|s| {
                        let mut cfg = PmemConfig::crash_sim(w.pool_bytes)
                            .with_sanitize(SanitizeMode::Off)
                            .with_label(&format!("s{s}/{role}"));
                        cfg.latency = LatencyProfile::optane_like();
                        Pmem::new(cfg)
                    })
                    .collect()
            })
            .collect();
        let kvs: Vec<ShardedKv> = pmems
            .iter()
            .map(|set| ShardedKv::create(set, MAP_SHARDS, true, grid_cfg()).expect("format pools"))
            .collect();
        let mut per_shard: Vec<Vec<WriteOp>> = vec![Vec::new(); w.shards];
        for key in 0..w.records {
            let rec = w.preload_record(key);
            per_shard[kvs[0].route(&rec.key)].push(WriteOp::Set(rec));
        }
        std::thread::scope(|s| {
            for kv in &kvs {
                for (shard, ops) in kv.shards().iter().zip(&per_shard) {
                    s.spawn(move || {
                        for batch in ops.chunks(PRELOAD_BATCH) {
                            let out = commit_writes(&shard.grid, &shard.be, batch);
                            assert!(out.results.iter().all(|&ok| ok), "preload write refused");
                        }
                    });
                }
            }
        });
        Rig { pmems, kvs }
    }

    pub fn start_server(&self) -> Server {
        let shard_sets: Vec<Vec<ShardHandle>> = (0..self.pmems[0].len())
            .map(|s| {
                self.kvs
                    .iter()
                    .map(|kv| {
                        let shard = kv.shard(s);
                        ShardHandle {
                            grid: Arc::clone(&shard.grid),
                            be: Arc::clone(&shard.be),
                            pmem: Arc::clone(&shard.pmem),
                        }
                    })
                    .collect()
            })
            .collect();
        Server::start_replicated(shard_sets, ServerConfig::default()).expect("bind server")
    }

    /// Counters summed over every device of every replica.
    pub fn device_stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for p in self.pmems.iter().flatten() {
            total.absorb(&p.stats());
        }
        total
    }

    /// One replica's store (0 = primary).
    pub fn kv(&self, replica: usize) -> &ShardedKv {
        &self.kvs[replica]
    }

    pub fn replicas(&self) -> usize {
        self.kvs.len()
    }

    /// Power-fail every device (strict: nothing unflushed survives), then
    /// reopen every replica with parallel recovery. Returns the reopened
    /// rig, the per-pool reports and the wall time of the reopens alone.
    /// The server must be shut down first: nothing else may hold the pools.
    pub fn crash_and_recover(self) -> (Rig, Vec<RecoveryReport>, Duration) {
        let Rig { pmems, kvs } = self;
        drop(kvs);
        for p in pmems.iter().flatten() {
            p.crash(&CrashPolicy::strict()).expect("crash-sim device");
        }
        let t0 = Instant::now();
        let mut reports = Vec::new();
        let kvs: Vec<ShardedKv> = pmems
            .iter()
            .map(|set| {
                let (kv, r) =
                    ShardedKv::open(set, true, grid_cfg(), RecoveryOptions::parallel(nproc()))
                        .expect("reopen after crash");
                reports.extend(r);
                kv
            })
            .collect();
        let elapsed = t0.elapsed();
        (Rig { pmems, kvs }, reports, elapsed)
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
