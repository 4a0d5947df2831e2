//! Differential testing of the **sharded** recovery fan-out.
//!
//! The contract: recovering N shards concurrently (one recovery pass per
//! shard on its own thread, as `ShardedKv::open` does) is
//! **bit-identical on every shard's media** to recovering the same N
//! crash images one shard after another. Shard heaps are disjoint — that
//! is the whole argument — so cross-shard concurrency must be unable to
//! leak into any recovery decision.
//!
//! The crash images are made interesting the same way the single-pool
//! equivalence suite does it: committed traffic on every shard, plus a
//! crash injected mid-`commit_writes` on one shard so its image carries
//! in-flight redo logs, while the others crash cleanly at a fence
//! boundary.

use std::sync::Arc;

use jnvm_repro::jnvm::{JnvmBuilder, RecoveryOptions};
use jnvm_repro::kvstore::{
    commit_writes, register_kvstore, GridConfig, Record, ShardedKv, WriteOp,
};
use jnvm_repro::pmem::{
    catch_crash, silence_crash_panics, CrashPolicy, FaultPlan, Pmem, PmemConfig,
};

const SHARDS: usize = 3;
const POOL_BYTES: u64 = 16 << 20;

fn zero_cache() -> GridConfig {
    GridConfig { cache_capacity: 0 }
}

/// Byte-for-byte copy of the device media (post-crash image).
fn snapshot(pmem: &Arc<Pmem>) -> Vec<u8> {
    pmem.resync_cache();
    let mut img = vec![0u8; pmem.len() as usize];
    pmem.read_bytes(0, &mut img);
    img
}

/// Fresh device holding exactly `image` on media.
fn restore(image: &[u8]) -> Arc<Pmem> {
    let pmem = Pmem::new(PmemConfig::crash_sim(image.len() as u64));
    pmem.write_bytes(0, image);
    pmem.drain_all();
    pmem
}

fn assert_media_identical(a: &Arc<Pmem>, b: &Arc<Pmem>, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: device sizes differ");
    let mut addr = 0;
    while addr < a.len() {
        let (wa, wb) = (a.media_read_u64(addr), b.media_read_u64(addr));
        assert_eq!(
            wa, wb,
            "{label}: recovered media diverges at byte {addr:#x} \
             ({wa:#018x} vs {wb:#018x})"
        );
        addr += 8;
    }
}

/// Build a 3-shard store, commit a routed batch on every shard, then
/// crash shard 1 mid-commit (injected) and the others at a clean point.
/// Returns the three crash images and the keys whose durability is
/// guaranteed (the fully-committed first batch).
fn crashed_images() -> (Vec<Vec<u8>>, Vec<String>) {
    silence_crash_panics();
    let pmems: Vec<Arc<Pmem>> = (0..SHARDS)
        .map(|_| Pmem::new(PmemConfig::crash_sim(POOL_BYTES)))
        .collect();
    let kv = ShardedKv::create(&pmems, 8, true, zero_cache()).expect("create");

    // Batch 1: fully committed on every shard — the durability floor.
    let keys: Vec<String> = (0..90).map(|i| format!("key-{i:03}")).collect();
    let mut per_shard: Vec<Vec<WriteOp>> = vec![Vec::new(); SHARDS];
    for k in &keys {
        per_shard[kv.route(k)].push(WriteOp::Set(Record::ycsb(k, &[k.as_bytes().to_vec()])));
    }
    for (s, ops) in per_shard.iter().enumerate() {
        let shard = kv.shard(s);
        let out = commit_writes(&shard.grid, &shard.be, ops);
        assert!(out.results.iter().all(|&r| r), "shard {s} floor batch");
    }

    // Batch 2, shard 1 only, with a crash armed mid-commit: in-flight
    // redo logs land on that shard's image.
    let extra: Vec<WriteOp> = (0..40)
        .map(|i| format!("extra-{i:03}"))
        .filter(|k| kv.route(k) == 1)
        .map(|k| WriteOp::Set(Record::ycsb(&k, &[b"x".to_vec()])))
        .collect();
    assert!(!extra.is_empty(), "no extra keys routed to shard 1");
    pmems[1].arm_faults(FaultPlan::crash_at(50));
    let shard1 = kv.shard(1);
    let outcome = catch_crash(|| {
        commit_writes(&shard1.grid, &shard1.be, &extra);
    });
    assert!(outcome.is_err(), "point 50 must fire inside the batch");
    let injected = pmems[1].faults_frozen();
    assert!(injected);
    // Unwind destructors must not repair the crash image.
    drop(kv);
    pmems[1].disarm_faults();
    pmems[1].resync_cache();
    for p in [&pmems[0], &pmems[2]] {
        p.crash(&CrashPolicy::strict()).expect("clean crash");
    }

    (pmems.iter().map(snapshot).collect(), keys)
}

#[test]
fn concurrent_shard_recovery_is_bit_identical_to_sequential() {
    let (images, floor_keys) = crashed_images();

    // Path A: the engine's concurrent fan-out (all shards at once), each
    // shard's own pass on 2 workers.
    let pa: Vec<Arc<Pmem>> = images.iter().map(|i| restore(i)).collect();
    let (kva, reports) = ShardedKv::open(&pa, true, zero_cache(), RecoveryOptions::parallel(2))
        .expect("concurrent sharded recovery");
    assert_eq!(reports.len(), SHARDS);
    for k in &floor_keys {
        let rec = kva
            .read(k)
            .unwrap_or_else(|| panic!("{k}: committed write lost"));
        assert_eq!(
            rec.fields.value(0),
            k.as_bytes(),
            "{k}: torn after recovery"
        );
    }
    drop(kva);

    // Path B: the sequential oracle — the same per-shard pass (same
    // thread count, same backend reopen), one shard strictly after the
    // other.
    let pb: Vec<Arc<Pmem>> = images.iter().map(|i| restore(i)).collect();
    for (s, p) in pb.iter().enumerate() {
        let (rt, _report) = register_kvstore(JnvmBuilder::new())
            .open_with_options(Arc::clone(p), RecoveryOptions::parallel(2))
            .unwrap_or_else(|e| panic!("shard {s} sequential recovery: {e}"));
        let be = jnvm_repro::kvstore::JnvmBackend::open(&rt, true)
            .unwrap_or_else(|e| panic!("shard {s} backend reopen: {e}"));
        drop(be);
        drop(rt);
    }

    // The whole claim: per shard, both paths leave the same media image.
    for (s, (a, b)) in pa.iter().zip(&pb).enumerate() {
        a.drain_all();
        b.drain_all();
        assert_media_identical(a, b, &format!("shard {s}"));
    }
}

#[test]
fn sharded_reopen_rejects_aliased_devices() {
    // The disjoint-heaps assertion guards the concurrency argument at the
    // recovery boundary too, not just at create time.
    let p = Pmem::new(PmemConfig::crash_sim(1 << 20));
    let pmems = vec![Arc::clone(&p), p];
    let err = std::panic::catch_unwind(|| {
        let _ = ShardedKv::open(&pmems, true, zero_cache(), RecoveryOptions::parallel(1));
    });
    assert!(err.is_err(), "aliased devices must be rejected on open");
}
