//! Cross-crate crash-consistency tests: randomized crash points,
//! adversarial line-eviction policies, and recovery invariants — the
//! correctness core of the reproduction.

use std::sync::Arc;

use jnvm_repro::heap::HeapConfig;
use jnvm_repro::jnvm::{
    persistent_class, Jnvm, JnvmBuilder, PObject, RecoveryMode, RecoveryOptions,
};
use jnvm_repro::jpdt::{register_jpdt, PBytes, PStringHashMap};
use jnvm_repro::pmem::{CrashPolicy, Pmem, PmemConfig};

use proptest::prelude::*;

persistent_class! {
    pub class Pair {
        val left, set_left: i64;
        val right, set_right: i64;
    }
}

fn build(pmem: &Arc<Pmem>) -> Jnvm {
    register_jpdt(JnvmBuilder::new())
        .register::<Pair>()
        .create(Arc::clone(pmem), HeapConfig::default())
        .expect("pool")
}

fn reopen(pmem: &Arc<Pmem>) -> (Jnvm, jnvm_repro::jnvm::RecoveryReport) {
    register_jpdt(JnvmBuilder::new())
        .register::<Pair>()
        .open(Arc::clone(pmem))
        .expect("recovery")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever subset of unflushed cache lines survives the crash, a pair
    /// mutated only inside failure-atomic blocks keeps its sum invariant.
    #[test]
    fn fa_pair_invariant_under_adversarial_crashes(
        seed in 0u64..5000,
        ops in 1usize..30,
        crash_after in 0usize..30,
    ) {
        let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
        let rt = build(&pmem);
        let p = rt.fa(|| {
            let p = Pair::alloc_uninit(&rt);
            p.set_left(1000);
            p.set_right(1000);
            rt.root_put("pair", &p).expect("root");
            p
        });
        for i in 0..ops.min(crash_after) {
            rt.fa(|| {
                p.set_left(p.left() - i as i64);
                p.set_right(p.right() + i as i64);
            });
        }
        pmem.crash(&CrashPolicy { evict_probability: 0.5, seed }).expect("crash");
        let (rt2, _) = reopen(&pmem);
        let p2 = rt2.root_get_as::<Pair>("pair").expect("typed").expect("pair survived");
        prop_assert_eq!(p2.left() + p2.right(), 2000);
    }

    /// A persistent map keeps a consistent key set across adversarial
    /// crashes: every fenced insert survives, and recovery never produces
    /// a key with a dangling value.
    #[test]
    fn map_integrity_under_adversarial_crashes(seed in 0u64..5000, n in 1usize..40) {
        let pmem = Pmem::new(PmemConfig::crash_sim(16 << 20));
        let rt = build(&pmem);
        let map = PStringHashMap::new(&rt).expect("map");
        rt.root_put("map", &map).expect("root");
        for i in 0..n {
            let v = PBytes::new(&rt, format!("value-{i}").as_bytes()).expect("blob");
            map.put(format!("key-{i}"), v.addr()).expect("put");
        }
        pmem.crash(&CrashPolicy { evict_probability: 0.5, seed }).expect("crash");
        let (rt2, _) = reopen(&pmem);
        let map2 = rt2
            .root_get_as::<PStringHashMap>("map")
            .expect("typed")
            .expect("map survived");
        // Every put was fenced before returning, so every key must be there
        // with intact content.
        prop_assert_eq!(map2.len(), n);
        for i in 0..n {
            let v = map2.get(&format!("key-{i}"));
            prop_assert!(v.is_some(), "key-{} lost", i);
            let blob = rt2.read_pobject::<PBytes>(v.expect("present")).expect("typed blob");
            prop_assert_eq!(blob.to_vec(), format!("value-{i}").into_bytes());
        }
    }

    /// Recovery is idempotent: crashing again right after recovery (before
    /// any new work) recovers the same state.
    #[test]
    fn recovery_is_idempotent(seed in 0u64..1000) {
        let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
        let rt = build(&pmem);
        rt.fa(|| {
            let p = Pair::alloc_uninit(&rt);
            p.set_left(7);
            p.set_right(11);
            rt.root_put("p", &p).expect("root");
        });
        pmem.crash(&CrashPolicy { evict_probability: 0.3, seed }).expect("crash 1");
        let (rt2, _) = reopen(&pmem);
        let first: Option<(i64, i64)> = rt2
            .root_get_as::<Pair>("p")
            .expect("typed")
            .map(|p| (p.left(), p.right()));
        drop(rt2);
        pmem.crash(&CrashPolicy::strict()).expect("crash 2");
        let (rt3, _) = reopen(&pmem);
        let second: Option<(i64, i64)> = rt3
            .root_get_as::<Pair>("p")
            .expect("typed")
            .map(|p| (p.left(), p.right()));
        prop_assert_eq!(first, second);
    }
}

#[test]
fn repeated_crash_reopen_cycles_preserve_and_reclaim() {
    let pmem = Pmem::new(PmemConfig::crash_sim(32 << 20));
    let rt = build(&pmem);
    let map = PStringHashMap::new(&rt).expect("map");
    rt.root_put("m", &map).expect("root");
    let mut expected: Vec<(String, Vec<u8>)> = Vec::new();
    let mut rt = rt;
    let mut map = map;
    for round in 0..6 {
        // Mutate: add two keys, remove one (freeing its value).
        for j in 0..2 {
            let k = format!("r{round}-{j}");
            let v = PBytes::new(&rt, k.as_bytes()).expect("blob");
            map.put(k.clone(), v.addr()).expect("put");
            expected.push((k.clone(), k.into_bytes()));
        }
        if expected.len() > 3 {
            let (k, _) = expected.remove(0);
            let old = map.remove(&k).expect("present");
            rt.free_addr(old);
            rt.pmem().pfence();
        }
        pmem.crash(&CrashPolicy::adversarial(round)).expect("crash");
        let (nrt, report) = reopen(&pmem);
        assert!(report.live_objects > 0);
        rt = nrt;
        map = rt
            .root_get_as::<PStringHashMap>("m")
            .expect("typed")
            .expect("map survived");
        assert_eq!(map.len(), expected.len(), "round {round}");
        for (k, v) in &expected {
            let addr = map
                .get(k)
                .unwrap_or_else(|| panic!("round {round}: {k} missing"));
            assert_eq!(&rt.read_pobject::<PBytes>(addr).expect("blob").to_vec(), v);
        }
    }
}

#[test]
fn nogc_and_full_recovery_agree_on_fa_only_state() {
    // When every allocation is published within its failure-atomic block,
    // the cheap header-scan recovery is equivalent to the full GC.
    let mk = || {
        let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
        let rt = build(&pmem);
        for i in 0..10 {
            rt.fa(|| {
                let p = Pair::alloc_uninit(&rt);
                p.set_left(i);
                p.set_right(-i);
                rt.root_put(&format!("p{i}"), &p).expect("root");
            });
        }
        pmem.crash(&CrashPolicy::strict()).expect("crash");
        pmem
    };
    let read_all = |rt: &Jnvm| -> Vec<(i64, i64)> {
        (0..10)
            .map(|i| {
                let p = rt
                    .root_get_as::<Pair>(&format!("p{i}"))
                    .expect("typed")
                    .expect("present");
                (p.left(), p.right())
            })
            .collect()
    };
    let pmem_a = mk();
    let (rt_full, _) = register_jpdt(JnvmBuilder::new())
        .register::<Pair>()
        .open_with_options(
            Arc::clone(&pmem_a),
            RecoveryOptions::with_mode(RecoveryMode::Full),
        )
        .expect("full");
    let pmem_b = mk();
    let (rt_scan, _) = register_jpdt(JnvmBuilder::new())
        .register::<Pair>()
        .open_with_options(
            Arc::clone(&pmem_b),
            RecoveryOptions::with_mode(RecoveryMode::HeaderScanOnly),
        )
        .expect("scan");
    assert_eq!(read_all(&rt_full), read_all(&rt_scan));
}
