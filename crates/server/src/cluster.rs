//! Topology as one value: a [`Cluster`] is N shards, each a replica set of
//! R ≥ 1 full pool stacks on disjoint simulated devices. One pool is the
//! 1 × 1 cluster.
//!
//! Everything that used to be re-derived wherever a server was assembled
//! lives here once: the `s{N}/{primary|backup}` device labels, the
//! transposition between "one [`ShardedKv`] per replica position" (how
//! pools are formatted and recovered) and "one replica set per shard" (how
//! the server and the crash drivers address devices), the rule that every
//! replica position is formatted with the same `map_shards` — identical
//! routing is what lets a backup replay its primary's op stream — the
//! bounds on a topology (`shards ≥ 1`, `replicas ∈ {1, 2}`), and the grid
//! configuration every J-NVM-backed server in this workspace runs with.

use std::sync::Arc;

use jnvm::{RecoveryOptions, RecoveryReport};
use jnvm_kvstore::{GridConfig, ShardedKv};
use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig, StatsSnapshot};

use crate::server::{Server, ServerConfig, ShardHandle};

/// No volatile cache: the J-NVM backends gain nothing from one (§5.3.1),
/// and crash verifiers want to read the persistent image, not a cache.
pub(crate) fn grid_cfg() -> GridConfig {
    GridConfig { cache_capacity: 0 }
}

/// N shards × R replicas of pool stacks over fresh simulated devices.
///
/// The stacks (notably each shard's runtime) must outlive any [`Server`]
/// started over them: dropping a runtime tears down the heap its backend's
/// proxies point into. Keep the cluster alive until `Server::shutdown`
/// returns.
pub struct Cluster {
    /// `pmems[shard][replica]`; replica 0 is the primary.
    pmems: Vec<Vec<Arc<Pmem>>>,
    /// One store per replica position: `kvs[r].shard(s)` is shard `s`'s
    /// replica `r`.
    kvs: Vec<ShardedKv>,
}

impl Cluster {
    /// Format `shards × replicas` fresh pools, each on its own device
    /// built from `device` (its label is overwritten per device), and stack
    /// a backend + uncached grid on every one. `map_shards` is the
    /// per-pool map shard count (orthogonal to pool sharding). Every write
    /// is a failure-atomic block. An unservable topology is an `Err`, not a
    /// clamp: the caller asked for something else than it would get.
    pub fn create(
        shards: usize,
        replicas: usize,
        map_shards: usize,
        device: PmemConfig,
    ) -> Result<Cluster, String> {
        if shards == 0 {
            return Err("topology: shards must be at least 1".into());
        }
        if !(1..=2).contains(&replicas) {
            return Err(format!(
                "topology: replicas must be 1 (solo) or 2 (primary + backup), got {replicas}"
            ));
        }
        let pmems: Vec<Vec<Arc<Pmem>>> = (0..shards)
            .map(|s| {
                (0..replicas)
                    .map(|r| {
                        let role = if r == 0 { "primary" } else { "backup" };
                        let label = format!("s{s}/{role}");
                        Pmem::new(device.clone().with_label(&label))
                    })
                    .collect()
            })
            .collect();
        let mut cluster = Cluster {
            pmems,
            kvs: Vec::with_capacity(replicas),
        };
        for r in 0..replicas {
            let kv = ShardedKv::create(
                &cluster.replica_devices(r),
                map_shards.max(1),
                true,
                grid_cfg(),
            )
            .map_err(|e| format!("format replica {r}'s pools: {e}"))?;
            cluster.kvs.push(kv);
        }
        Ok(cluster)
    }

    /// Replica position `r`'s device of every shard, in shard order — the
    /// device list its [`ShardedKv`] is formatted and reopened over.
    fn replica_devices(&self, r: usize) -> Vec<Arc<Pmem>> {
        self.pmems.iter().map(|reps| Arc::clone(&reps[r])).collect()
    }

    /// Pool shards.
    pub fn shards(&self) -> usize {
        self.pmems.len()
    }

    /// Replicas per shard.
    pub fn replicas(&self) -> usize {
        self.pmems[0].len()
    }

    /// Every device, `pmems[shard][replica]`; replica 0 is the primary.
    pub fn pmems(&self) -> &[Vec<Arc<Pmem>>] {
        &self.pmems
    }

    /// One device, bounds-checked — where a crash target given on a
    /// command line or in a config is validated against the topology.
    pub fn device(&self, shard: usize, replica: usize) -> Result<&Arc<Pmem>, String> {
        self.pmems
            .get(shard)
            .and_then(|reps| reps.get(replica))
            .ok_or_else(|| {
                format!(
                    "topology: no device (shard {shard}, replica {replica}) in a \
                     {} shard x {} replica cluster",
                    self.shards(),
                    self.replicas()
                )
            })
    }

    /// Replica position `r`'s store over all shards (0 = the primaries).
    pub fn kv(&self, r: usize) -> &ShardedKv {
        &self.kvs[r]
    }

    /// Device counters summed over every shard and replica — replication's
    /// fence cost is real and belongs in any per-acked-write figure.
    pub fn device_stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for p in self.pmems.iter().flatten() {
            total.absorb(&p.stats());
        }
        total
    }

    /// The serving surface in the shape [`Server::start_replicated`]
    /// takes: outer vec in shard order, inner vec `[primary]` or
    /// `[primary, backup]`.
    pub fn handles(&self) -> Vec<Vec<ShardHandle>> {
        (0..self.shards())
            .map(|s| {
                self.kvs
                    .iter()
                    .map(|kv| ShardHandle::from(kv.shard(s)))
                    .collect()
            })
            .collect()
    }

    /// Start a server over this cluster (one group committer per shard).
    pub fn start(&self, cfg: ServerConfig) -> std::io::Result<Server> {
        Server::start_replicated(self.handles(), cfg)
    }

    /// Power-fail every device (strict: nothing unflushed survives) and
    /// reopen every pool through recovery — the path a real restart takes,
    /// each replica position's shards recovered concurrently. Returns one
    /// report per pool, replica-major (`reports[r * shards + s]`). The
    /// server must be shut down first: nothing else may hold the pools.
    pub fn crash_and_reopen(
        &mut self,
        opts: RecoveryOptions,
    ) -> Result<Vec<RecoveryReport>, String> {
        self.kvs.clear();
        for p in self.pmems.iter().flatten() {
            p.crash(&CrashPolicy::strict())
                .map_err(|e| format!("power-fail {}: {e}", p.label()))?;
        }
        let mut reports = Vec::with_capacity(self.shards() * self.replicas());
        for r in 0..self.replicas() {
            let (kv, recovered) = ShardedKv::open(&self.replica_devices(r), true, grid_cfg(), opts)
                .map_err(|e| format!("recover replica {r}'s pools: {e}"))?;
            self.kvs.push(kv);
            reports.extend(recovered);
        }
        Ok(reports)
    }

    /// Tear the stacks down and keep only the devices. Crash experiments
    /// call this **while the crash device is still frozen**, so unwind and
    /// drop destructors cannot repair the crash image before it is
    /// reopened.
    pub fn into_pmems(self) -> Vec<Vec<Arc<Pmem>>> {
        self.pmems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(shards: usize, replicas: usize) -> Result<Cluster, String> {
        Cluster::create(shards, replicas, 4, PmemConfig::crash_sim(8 << 20))
    }

    const KEYS: [&str; 6] = [
        "alpha",
        "key-000",
        "user:1001",
        "c0-000001",
        "drain-000",
        "s0-c003-k1",
    ];

    /// 1 × 1 and 2 × 2 are the same value with different arguments:
    /// handles come back in shard order, every device carries its
    /// `s{N}/{role}` label, and every replica position routes alike.
    #[test]
    fn builds_yield_labelled_handles_in_shard_order_with_identical_routing() {
        for (shards, replicas) in [(1, 1), (2, 2)] {
            let c = build(shards, replicas).expect("valid topology");
            assert_eq!((c.shards(), c.replicas()), (shards, replicas));
            let handles = c.handles();
            assert_eq!(handles.len(), shards);
            for (s, set) in handles.iter().enumerate() {
                assert_eq!(set.len(), replicas);
                for (r, h) in set.iter().enumerate() {
                    let role = if r == 0 { "primary" } else { "backup" };
                    assert_eq!(h.pmem.label(), format!("s{s}/{role}"));
                    assert!(Arc::ptr_eq(&h.pmem, c.device(s, r).expect("in range")));
                    assert!(Arc::ptr_eq(&h.grid, &c.kv(r).shard(s).grid));
                }
            }
            for key in KEYS {
                for r in 1..replicas {
                    assert_eq!(c.kv(r).route(key), c.kv(0).route(key), "{key} routes apart");
                }
            }
        }
    }

    #[test]
    fn crash_and_reopen_reports_every_pool() {
        let mut c = build(2, 2).expect("valid topology");
        let reports = c
            .crash_and_reopen(RecoveryOptions::parallel(2))
            .expect("recovery");
        assert_eq!(reports.len(), 4, "one report per pool");
        assert_eq!(c.handles().len(), 2, "the reopened cluster serves again");
    }

    #[test]
    fn unservable_topologies_and_targets_are_errors() {
        assert!(build(0, 1).is_err_and(|e| e.contains("shards")));
        assert!(build(1, 0).is_err_and(|e| e.contains("replicas")));
        assert!(build(1, 3).is_err_and(|e| e.contains("got 3")));
        let c = build(2, 1).expect("valid topology");
        assert!(c.device(1, 0).is_ok());
        assert!(c.device(5, 0).is_err_and(|e| e.contains("shard 5")));
        assert!(c.device(0, 1).is_err_and(|e| e.contains("replica 1")));
    }
}
