//! Sharded KV engine: key-hash routing over N independent pool shards.
//!
//! Each shard is a complete stack — device, [`jnvm::Jnvm`] runtime,
//! [`JnvmBackend`], [`DataGrid`] — and keys route to shards by the same
//! FNV-1a hash the backend uses for its in-pool map shards.
//!
//! J-NVM's decoupling makes persistent state partitionable: a proxy caches
//! block addresses within one pool, the recovery GC walks reachability from
//! one pool's root map, and the FA log manager allocates log slots in one
//! pool. The one global invariant the composition rests on is that **the
//! shards' devices are pairwise distinct** (asserted on create and open).
//! Given that, replay, mark and sweep on different shards touch disjoint
//! heaps, so [`ShardedKv::open`] recovers every shard concurrently, and a
//! committer per shard may run [`crate::commit_writes`] concurrently with
//! every other shard's committer: the group-commit exclusive-writer
//! contract is per backend, and routing guarantees a key only ever reaches
//! one backend.

use std::sync::Arc;

use jnvm::{Jnvm, JnvmBuilder, JnvmError, RecoveryOptions, RecoveryReport};
use jnvm_heap::HeapConfig;
use jnvm_pmem::Pmem;

use crate::backend::Backend;
use crate::codec::Record;
use crate::grid::{DataGrid, GridConfig};
use crate::jnvm_backend::{register_kvstore, JnvmBackend};

/// Route `key` to one of `nshards` pool shards (FNV-1a, the workspace's
/// standard key hash). Stable across runs and processes: the reopen path
/// must route every key to the shard that stored it.
pub fn shard_for_key(key: &str, nshards: usize) -> usize {
    (crate::fnv1a(key) as usize) % nshards.max(1)
}

/// One pool shard's full stack.
pub struct KvShard {
    /// The shard's device.
    pub pmem: Arc<Pmem>,
    /// The shard's runtime (own FA manager, persistence domains, recovery
    /// state).
    pub rt: Jnvm,
    /// The shard's persistent backend.
    pub be: Arc<JnvmBackend>,
    /// The shard's grid (cache + lock stripes + metrics).
    pub grid: Arc<DataGrid>,
}

/// N [`KvShard`] stacks plus the routing function.
pub struct ShardedKv {
    shards: Vec<KvShard>,
}

/// Panic on an empty device list, or unless every device is distinct from
/// every other. Two shards on one device would alias heaps and break every
/// disjointness argument the concurrent recovery (and the per-shard
/// committers above it) rely on.
fn assert_disjoint_devices(pmems: &[Arc<Pmem>]) {
    assert!(
        !pmems.is_empty(),
        "a sharded store needs at least one device"
    );
    for i in 0..pmems.len() {
        for j in i + 1..pmems.len() {
            assert!(
                !Arc::ptr_eq(&pmems[i], &pmems[j]),
                "shards {i} and {j} share one device — shard heaps must be disjoint"
            );
        }
    }
}

impl ShardedKv {
    /// Format a fresh pool on every device and stack a backend + grid on
    /// each. `map_shards` is the per-pool map shard count (the in-pool
    /// sharding that existed before multi-pool; orthogonal to routing).
    pub fn create(
        pmems: &[Arc<Pmem>],
        map_shards: usize,
        fa: bool,
        grid_cfg: GridConfig,
    ) -> Result<ShardedKv, JnvmError> {
        assert_disjoint_devices(pmems);
        let runtimes = pmems
            .iter()
            .map(|p| {
                register_kvstore(JnvmBuilder::new()).create(Arc::clone(p), HeapConfig::default())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::stack(pmems, runtimes, grid_cfg, |rt| {
            JnvmBackend::create(rt, map_shards.max(1), fa)
        })
    }

    /// Reopen every shard and re-anchor a backend + grid on each. The
    /// recovery passes run **concurrently**, one `open_with_options` per
    /// shard on its own thread (each of which may itself use several
    /// recovery workers); the result is bit-identical to recovering the
    /// shards one after another (pinned by `tests/sharded_recovery.rs`).
    ///
    /// Returns one [`RecoveryReport`] per shard, in shard order. The first
    /// shard error aborts the whole open; a shard whose recovery panics (a
    /// corrupt image) panics the open with its own payload.
    pub fn open(
        pmems: &[Arc<Pmem>],
        fa: bool,
        grid_cfg: GridConfig,
        opts: RecoveryOptions,
    ) -> Result<(ShardedKv, Vec<RecoveryReport>), JnvmError> {
        assert_disjoint_devices(pmems);
        let opened: Vec<Result<(Jnvm, RecoveryReport), JnvmError>> = std::thread::scope(|s| {
            let handles: Vec<_> = pmems
                .iter()
                .map(|p| {
                    let p = Arc::clone(p);
                    s.spawn(move || register_kvstore(JnvmBuilder::new()).open_with_options(p, opts))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let (runtimes, reports): (Vec<Jnvm>, Vec<RecoveryReport>) = opened
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let kv = Self::stack(pmems, runtimes, grid_cfg, |rt| JnvmBackend::open(rt, fa))?;
        Ok((kv, reports))
    }

    fn stack(
        pmems: &[Arc<Pmem>],
        runtimes: Vec<Jnvm>,
        grid_cfg: GridConfig,
        be_for: impl Fn(&Jnvm) -> Result<JnvmBackend, JnvmError>,
    ) -> Result<ShardedKv, JnvmError> {
        let shards = pmems
            .iter()
            .zip(runtimes)
            .map(|(pmem, rt)| {
                let be = Arc::new(be_for(&rt)?);
                let grid = Arc::new(DataGrid::new(Arc::clone(&be) as Arc<dyn Backend>, grid_cfg));
                Ok(KvShard {
                    pmem: Arc::clone(pmem),
                    rt,
                    be,
                    grid,
                })
            })
            .collect::<Result<Vec<_>, JnvmError>>()?;
        Ok(ShardedKv { shards })
    }

    /// Number of pool shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to.
    pub fn route(&self, key: &str) -> usize {
        shard_for_key(key, self.shards.len())
    }

    /// One shard's stack.
    pub fn shard(&self, i: usize) -> &KvShard {
        &self.shards[i]
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[KvShard] {
        &self.shards
    }

    /// Read `key` through its shard's grid.
    pub fn read(&self, key: &str) -> Option<Record> {
        self.shards[self.route(key)].grid.read(key)
    }

    /// Total records across shards.
    pub fn records(&self) -> usize {
        self.shards.iter().map(|s| s.grid.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{commit_writes, WriteOp};
    use jnvm_pmem::PmemConfig;

    fn devices(n: usize) -> Vec<Arc<Pmem>> {
        (0..n)
            .map(|_| Pmem::new(PmemConfig::crash_sim(16 << 20)))
            .collect()
    }

    #[test]
    fn routing_is_stable_and_reasonably_balanced() {
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            let key = format!("c0-{i:06}");
            let s = shard_for_key(&key, 4);
            assert_eq!(s, shard_for_key(&key, 4), "routing must be deterministic");
            counts[s] += 1;
        }
        for (s, c) in counts.iter().enumerate() {
            assert!(
                (500..=1500).contains(c),
                "shard {s} got {c} of 4000 keys — hash badly skewed: {counts:?}"
            );
        }
    }

    /// Golden routing pin: `shard_for_key` is FNV-1a over the key bytes,
    /// reduced mod the shard count — and it is **on-media layout**. A
    /// multi-pool image reopened after a silent hash change would scatter
    /// every key to the wrong shard's recovery pass. These values were
    /// computed independently from the 64-bit FNV-1a reference parameters
    /// (the offset basis and prime in `crate::fnv1a`); they must never
    /// change.
    #[test]
    fn shard_for_key_golden_values_are_pinned() {
        // (key, shard of 4, shard of 8)
        let golden: &[(&str, usize, usize)] = &[
            ("c0-000000", 1, 1),
            ("c0-000001", 2, 6),
            ("c1-000017", 0, 0),
            ("c3-000042", 0, 0),
            ("drain-000", 0, 4),
            ("extra-000", 0, 4),
            ("key-000", 1, 1),
            ("s0-c003-k1", 2, 2),
            ("alpha", 3, 3),
            ("bank/accounts", 0, 4),
            ("user:1001", 2, 6),
            ("Δ-unicode-key", 3, 3),
        ];
        for &(key, of4, of8) in golden {
            assert_eq!(
                shard_for_key(key, 4),
                of4,
                "{key}: routing (mod 4) changed — reopened images would scatter"
            );
            assert_eq!(
                shard_for_key(key, 8),
                of8,
                "{key}: routing (mod 8) changed — reopened images would scatter"
            );
        }
        // Single-shard degenerate case stays total.
        for &(key, ..) in golden {
            assert_eq!(shard_for_key(key, 1), 0);
        }
    }

    /// Regression: a record whose chain cycles — its slave's `next` points
    /// back at its master — made recovery's mark walk it until the block
    /// list it grew aborted the allocator. The walk is bounded by the
    /// heap's block count: the open fails, naming the chain.
    #[test]
    fn a_cyclic_record_chain_fails_the_open_instead_of_hanging() {
        use crate::jnvm_backend::PRecord;
        use jnvm_heap::BlockHeader;
        use jnvm_pmem::CrashPolicy;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let pmems = devices(1);
        let kv = ShardedKv::create(&pmems, 1, true, GridConfig::default()).unwrap();
        let shard = kv.shard(0);
        // 8 + 40 × 8 payload bytes: a two-block record.
        let wide = Record::ycsb("wide", &vec![b"v".to_vec(); 40]);
        assert!(commit_writes(&shard.grid, &shard.be, &[WriteOp::Set(wide)]).results[0]);
        let heap = shard.rt.heap();
        let id = shard.rt.registry().id_of::<PRecord>().unwrap();
        let mut masters = Vec::new();
        heap.for_each_header(|idx, h| {
            if h.is_valid_master() && h.id == id {
                masters.push(idx);
            }
        });
        let [master] = masters[..] else {
            panic!("one record, found {masters:?}")
        };
        let slave = heap.chain_blocks(master)[1];
        heap.write_header_pwb(slave, BlockHeader::slave(master));
        shard.pmem.pfence();
        drop(kv);
        pmems[0].crash(&CrashPolicy::strict()).expect("crash");

        let opts = RecoveryOptions::parallel(2);
        let open = AssertUnwindSafe(|| ShardedKv::open(&pmems, true, GridConfig::default(), opts));
        let panic = catch_unwind(open)
            .map(drop)
            .expect_err("the open must fail");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("chain does not terminate"), "{message}");
    }

    /// Every shard is its own heap: the same key written on each shard's
    /// stack directly (bypassing routing) recovers per shard.
    #[test]
    fn shards_are_independent_heaps() {
        let pmems = devices(3);
        let kv = ShardedKv::create(&pmems, 1, true, GridConfig::default()).unwrap();
        let cell = |i: usize| Record::ycsb("cell", &[format!("{}", 100 + i).into_bytes()]);
        for (i, shard) in kv.shards().iter().enumerate() {
            assert!(commit_writes(&shard.grid, &shard.be, &[WriteOp::Set(cell(i))]).results[0]);
        }
        drop(kv);
        for p in &pmems {
            p.crash(&jnvm_pmem::CrashPolicy::strict()).expect("crash");
        }
        let (kv2, reports) = ShardedKv::open(
            &pmems,
            true,
            GridConfig::default(),
            RecoveryOptions::parallel(2),
        )
        .unwrap();
        assert_eq!(reports.len(), 3);
        for (i, shard) in kv2.shards().iter().enumerate() {
            let rec = shard.grid.read("cell").expect("the record survives");
            assert_eq!(rec, cell(i), "shard {i} recovered the wrong heap");
        }
    }

    #[test]
    #[should_panic(expected = "share one device")]
    fn aliased_devices_are_rejected() {
        let p = Pmem::new(PmemConfig::crash_sim(16 << 20));
        let pmems = vec![Arc::clone(&p), p];
        let _ = ShardedKv::create(&pmems, 1, true, GridConfig::default());
    }

    #[test]
    fn sharded_create_write_reopen_roundtrip() {
        let pmems = devices(3);
        let kv = ShardedKv::create(&pmems, 8, true, GridConfig::default()).unwrap();
        // Commit through each shard's own committer path, as the server
        // does: ops grouped per shard, commit_writes per shard.
        let keys: Vec<String> = (0..60).map(|i| format!("key-{i:03}")).collect();
        let mut per_shard: Vec<Vec<WriteOp>> = vec![Vec::new(); kv.num_shards()];
        for k in &keys {
            per_shard[kv.route(k)].push(WriteOp::Set(Record::ycsb(k, &[k.as_bytes().to_vec()])));
        }
        for (s, ops) in per_shard.iter().enumerate() {
            let shard = kv.shard(s);
            let out = commit_writes(&shard.grid, &shard.be, ops);
            assert!(out.results.iter().all(|&r| r));
        }
        assert_eq!(kv.records(), keys.len());
        drop(kv);
        for p in &pmems {
            p.crash(&jnvm_pmem::CrashPolicy::strict()).expect("crash");
        }
        let (kv2, reports) = ShardedKv::open(
            &pmems,
            true,
            GridConfig::default(),
            RecoveryOptions::parallel(2),
        )
        .unwrap();
        assert_eq!(reports.len(), 3);
        for k in &keys {
            let rec = kv2.read(k).expect("record survives reopen");
            assert_eq!(rec.fields.value(0), k.as_bytes());
        }
        assert_eq!(kv2.records(), keys.len());
    }
}
