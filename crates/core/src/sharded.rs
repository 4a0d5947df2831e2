//! Sharded multi-pool runtime: N independent [`Jnvm`] runtimes over N
//! independent devices, opened and recovered as one unit.
//!
//! J-NVM's decoupling principle makes persistent state naturally
//! partitionable — a proxy caches block addresses *within one pool*, the
//! recovery GC walks reachability *from one pool's root map*, and the FA
//! log manager allocates log slots *in one pool*. Nothing ties two pools
//! together, so a sharded engine is simply N complete stacks side by
//! side: each shard keeps its own FA manager, its own per-thread
//! persistence domains, and its own recovery state. This type packages
//! the plumbing and enforces the one global invariant the composition
//! rests on: **the shards' devices are pairwise distinct**, so replay,
//! mark and sweep on different shards touch disjoint heaps and compose
//! without any new synchronization.
//!
//! Recovery fans the parallel engine out across shards: every shard runs
//! its own [`JnvmBuilder::open_with_options`] pass on its own thread
//! (each of which may itself use N recovery workers), and the reports
//! come back per shard.

use std::sync::Arc;

use jnvm_heap::HeapConfig;
use jnvm_pmem::Pmem;

use crate::error::JnvmError;
use crate::recovery::{RecoveryOptions, RecoveryReport};
use crate::runtime::{Jnvm, JnvmBuilder};

/// N independent [`Jnvm`] runtimes, one per device shard.
pub struct ShardedJnvm {
    shards: Vec<Jnvm>,
}

/// Panic unless every device is distinct from every other. Two shards on
/// one device would alias heaps and break every disjointness argument the
/// concurrent recovery (and the per-shard committers above us) rely on.
fn assert_disjoint_devices(pmems: &[Arc<Pmem>]) {
    for i in 0..pmems.len() {
        for j in i + 1..pmems.len() {
            assert!(
                !Arc::ptr_eq(&pmems[i], &pmems[j]),
                "shards {i} and {j} share one device — shard heaps must be disjoint"
            );
        }
    }
}

impl ShardedJnvm {
    /// Format one fresh pool per device and build its runtime. `register`
    /// is called once per shard to produce an identically-configured
    /// builder (the class registry must be the same on every shard — keys
    /// hash to shards, so any object may land on any of them).
    pub fn create(
        pmems: &[Arc<Pmem>],
        cfg: HeapConfig,
        register: fn(JnvmBuilder) -> JnvmBuilder,
    ) -> Result<ShardedJnvm, JnvmError> {
        assert!(!pmems.is_empty(), "a sharded runtime needs at least one device");
        assert_disjoint_devices(pmems);
        let shards = pmems
            .iter()
            .map(|p| register(JnvmBuilder::new()).create(Arc::clone(p), cfg))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedJnvm { shards })
    }

    /// Reopen every shard, running the recovery passes **concurrently** —
    /// one `open_with_options` per shard on its own thread. Shard heaps
    /// are disjoint (asserted), so the per-shard replay/mark/sweep passes
    /// compose without cross-shard synchronization; the result is
    /// bit-identical to recovering the shards one after another (pinned
    /// by `tests/sharded_recovery.rs`).
    ///
    /// Returns the runtimes plus one [`RecoveryReport`] per shard, in
    /// shard order. The first shard error aborts the whole open; a shard
    /// whose recovery panics (a corrupt image) panics the open with its own
    /// payload.
    pub fn open_with_options(
        pmems: &[Arc<Pmem>],
        opts: RecoveryOptions,
        register: fn(JnvmBuilder) -> JnvmBuilder,
    ) -> Result<(ShardedJnvm, Vec<RecoveryReport>), JnvmError> {
        assert!(!pmems.is_empty(), "a sharded runtime needs at least one device");
        assert_disjoint_devices(pmems);
        let results: Vec<Result<(Jnvm, RecoveryReport), JnvmError>> = std::thread::scope(|s| {
            let handles: Vec<_> = pmems
                .iter()
                .map(|p| {
                    let p = Arc::clone(p);
                    s.spawn(move || register(JnvmBuilder::new()).open_with_options(p, opts))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let mut shards = Vec::with_capacity(results.len());
        let mut reports = Vec::with_capacity(results.len());
        for r in results {
            let (rt, report) = r?;
            shards.push(rt);
            reports.push(report);
        }
        Ok((ShardedJnvm { shards }, reports))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's runtime.
    pub fn shard(&self, i: usize) -> &Jnvm {
        &self.shards[i]
    }

    /// All shard runtimes, in shard order.
    pub fn shards(&self) -> &[Jnvm] {
        &self.shards
    }

    /// Consume into the per-shard runtimes (for layers that wrap each
    /// shard in further per-shard state, e.g. the kvstore's backends).
    pub fn into_shards(self) -> Vec<Jnvm> {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnvm_pmem::PmemConfig;

    persistent_class! {
        pub class Cell {
            val value, set_value: i64;
        }
    }

    fn register(b: JnvmBuilder) -> JnvmBuilder {
        b.register::<Cell>()
    }

    fn devices(n: usize) -> Vec<Arc<Pmem>> {
        (0..n)
            .map(|_| Pmem::new(PmemConfig::crash_sim(4 << 20)))
            .collect()
    }

    #[test]
    fn shards_are_independent_heaps() {
        let pmems = devices(3);
        let sharded = ShardedJnvm::create(&pmems, HeapConfig::default(), register).unwrap();
        for (i, rt) in sharded.shards().iter().enumerate() {
            let c = rt.fa(|| {
                let c = Cell::alloc_uninit(rt);
                c.set_value(100 + i as i64);
                rt.root_put("cell", &c).unwrap();
                c
            });
            assert_eq!(c.value(), 100 + i as i64);
        }
        drop(sharded);
        for p in &pmems {
            p.crash(&jnvm_pmem::CrashPolicy::strict()).expect("crash");
        }
        let (reopened, reports) =
            ShardedJnvm::open_with_options(&pmems, RecoveryOptions::parallel(2), register)
                .unwrap();
        assert_eq!(reports.len(), 3);
        for (i, rt) in reopened.shards().iter().enumerate() {
            let c = rt.root_get_as::<Cell>("cell").unwrap().expect("root survives");
            assert_eq!(c.value(), 100 + i as i64, "shard {i} recovered the wrong heap");
        }
    }

    #[test]
    #[should_panic(expected = "share one device")]
    fn aliased_devices_are_rejected() {
        let p = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let pmems = vec![Arc::clone(&p), p];
        let _ = ShardedJnvm::create(&pmems, HeapConfig::default(), register);
    }
}
