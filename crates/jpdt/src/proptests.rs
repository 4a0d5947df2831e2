//! Property tests: persistent maps against a volatile reference model,
//! across crashes.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;

use jnvm::{Jnvm, JnvmBuilder, PObject};
use jnvm_heap::HeapConfig;
use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};

use crate::pmap::tests::{assert_dram_matches_media, dram_view};
use crate::{
    register_jpdt, CacheMode, HashMirror, Mirror, PBytes, PI64HashMap, PI64SkipMap, PI64TreeMap,
    PKey, PMapCore, PRefVec, PStringHashMap, PStringSkipMap, PStringTreeMap, SkipMirror,
    TreeMirror,
};

#[derive(Debug, Clone)]
enum MapOp {
    Put(u8, Vec<u8>),
    Remove(u8),
    Get(u8),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..40))
                .prop_map(|(k, v)| MapOp::Put(k, v)),
            any::<u8>().prop_map(MapOp::Remove),
            any::<u8>().prop_map(MapOp::Get),
        ],
        1..60,
    )
}

fn fresh() -> (Arc<Pmem>, Jnvm) {
    let pmem = Pmem::new(PmemConfig::crash_sim(32 << 20));
    let rt = register_jpdt(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .unwrap();
    (pmem, rt)
}

fn blob_of(rt: &Jnvm, addr: u64) -> Vec<u8> {
    PBytes::resurrect(rt, addr).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The persistent hash map agrees with `std::HashMap` on arbitrary
    /// op sequences, and still agrees after an adversarial crash.
    #[test]
    fn phashmap_matches_model_across_crash(ops in map_ops(), seed in any::<u64>()) {
        let (pmem, rt) = fresh();
        let map = PStringHashMap::new(&rt).unwrap();
        rt.root_put("m", &map).unwrap();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        for op in &ops {
            match op {
                MapOp::Put(k, v) => {
                    let key = format!("k{k}");
                    let blob = PBytes::new(&rt, v).unwrap();
                    if let Some(old) = map.put(key.clone(), blob.addr()).unwrap() {
                        rt.free_addr(old);
                    }
                    model.insert(key, v.clone());
                }
                MapOp::Remove(k) => {
                    let key = format!("k{k}");
                    let got = map.remove(&key);
                    let want = model.remove(&key);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let Some(addr) = got {
                        prop_assert_eq!(blob_of(&rt, addr), want.unwrap());
                        rt.free_addr(addr);
                        rt.pfence();
                    }
                }
                MapOp::Get(k) => {
                    let key = format!("k{k}");
                    let got = map.get(&key).map(|a| blob_of(&rt, a));
                    prop_assert_eq!(got.as_ref(), model.get(&key));
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
        // Crash and compare the recovered map against the model.
        pmem.crash(&CrashPolicy::adversarial(seed)).unwrap();
        let (rt2, _) = register_jpdt(JnvmBuilder::new()).open(Arc::clone(&pmem)).unwrap();
        let map2 = rt2.root_get_as::<PStringHashMap>("m").unwrap().unwrap();
        prop_assert_eq!(map2.len(), model.len());
        for (k, v) in &model {
            let addr = map2.get(k);
            prop_assert!(addr.is_some(), "{} lost", k);
            prop_assert_eq!(&blob_of(&rt2, addr.unwrap()), v);
        }
    }

    /// PRefVec push/pop agrees with a Vec model across a strict crash.
    #[test]
    fn prefvec_matches_model(pushes in 1usize..50, pops in 0usize..60) {
        let (pmem, rt) = fresh();
        let vec = PRefVec::new(&rt, 2).unwrap();
        rt.root_put("v", &vec).unwrap();
        let mut model: Vec<Vec<u8>> = Vec::new();
        for i in 0..pushes {
            let content = vec![i as u8; i % 30 + 1];
            let blob = PBytes::new(&rt, &content).unwrap();
            vec.push(blob.addr()).unwrap();
            model.push(content);
        }
        for _ in 0..pops.min(pushes) {
            let got = vec.pop();
            let want = model.pop();
            prop_assert_eq!(got.is_some(), want.is_some());
            if let Some(a) = got {
                prop_assert_eq!(blob_of(&rt, a), want.unwrap());
                rt.free_addr(a);
            }
        }
        rt.pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = register_jpdt(JnvmBuilder::new()).open(Arc::clone(&pmem)).unwrap();
        let vec2 = rt2.root_get_as::<PRefVec>("v").unwrap().unwrap();
        prop_assert_eq!(vec2.len() as usize, model.len());
        for (i, want) in model.iter().enumerate() {
            let a = vec2.get(i as u64).unwrap();
            prop_assert_eq!(&blob_of(&rt2, a), want);
        }
    }

    /// Blobs of any content and size round-trip, pooled or chained.
    #[test]
    fn blob_round_trip(content in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let (_p, rt) = fresh();
        let b = PBytes::new(&rt, &content).unwrap();
        prop_assert_eq!(b.len() as usize, content.len());
        prop_assert_eq!(b.to_vec(), content);
    }
}

// ----------------------------------------------------------------------
// The map's DRAM state against its media.
// ----------------------------------------------------------------------

/// One map op on key number `n`.
#[derive(Debug, Clone, Copy)]
enum KeyOp {
    Put(u16),
    Remove(u16),
}

/// A map op run directly (J-PDT), or a run of them in one staged
/// failure-atomic block, committed or aborted.
#[derive(Debug, Clone)]
enum Step {
    Direct(KeyOp),
    Staged(Vec<KeyOp>, bool),
}

/// Keys drawn from 300: enough live keys to double a 64-cell array twice.
fn steps(len: usize) -> impl Strategy<Value = Vec<Step>> {
    let op = || {
        prop_oneof![
            3 => (0..300u16).prop_map(KeyOp::Put),
            1 => (0..300u16).prop_map(KeyOp::Remove),
        ]
    };
    let step = prop_oneof![
        3 => op().prop_map(Step::Direct),
        1 => (proptest::collection::vec(op(), 1..40), any::<bool>())
            .prop_map(|(ops, commit)| Step::Staged(ops, commit)),
    ];
    proptest::collection::vec(step, 1..len)
}

fn mode() -> impl Strategy<Value = CacheMode> {
    prop_oneof![
        Just(CacheMode::Base),
        Just(CacheMode::Cached),
        Just(CacheMode::Eager)
    ]
}

/// Run `op` on `map` and on `model`, freeing the value a replace or a
/// remove hands back, and check the DRAM answers against the media walk
/// and the model.
fn run_op<K: PKey + Debug, M: Mirror<K>>(
    rt: &Jnvm,
    map: &PMapCore<K, M>,
    model: &mut BTreeMap<K, u64>,
    key: fn(u16) -> K,
    op: KeyOp,
) {
    match op {
        KeyOp::Put(n) => {
            let value = PBytes::new(rt, &n.to_le_bytes()).unwrap().addr();
            let old = map.put(key(n), value).unwrap();
            assert_eq!(old, model.insert(key(n), value), "put {n}");
            old.into_iter().for_each(|v| rt.free_addr(v));
        }
        KeyOp::Remove(n) => {
            let old = map.remove(key(n).query());
            assert_eq!(old, model.remove(&key(n)), "remove {n}");
            old.into_iter().for_each(|v| rt.free_addr(v));
        }
    }
    assert_dram_matches_media(map);
    let want: Vec<(K, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(dram_view(map), (model.len(), want));
}

/// Drive a fresh map of the named class `N` through `steps`: after every
/// op — direct, or inside a staged block, through the block's overlay —
/// and after every commit or abort, each DRAM answer equals the media
/// walk's and the model's; and a resurrection of the map rebuilds the same
/// answers.
fn drive_map<N: PObject, K: PKey + Debug, M: Mirror<K>>(
    steps: &[Step],
    mode: CacheMode,
    key: fn(u16) -> K,
) {
    let (_pmem, rt) = fresh();
    let id = rt.registry().id_of::<N>().unwrap();
    let map = PMapCore::<K, M>::create(&rt, id, mode).unwrap();
    let mut model = BTreeMap::new();
    for step in steps {
        match step {
            Step::Direct(op) => run_op(&rt, &map, &mut model, key, *op),
            Step::Staged(ops, commit) => {
                let before = model.clone();
                let (tx, ()) = rt.fa_stage(|| {
                    for op in ops {
                        run_op(&rt, &map, &mut model, key, *op);
                    }
                });
                if *commit {
                    rt.fa_commit_group(vec![tx]);
                } else {
                    drop(tx);
                    model = before;
                }
                assert_dram_matches_media(&map);
                let want: Vec<(K, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
                assert_eq!(dram_view(&map), (model.len(), want), "after the block");
            }
        }
    }
    let reopened = PMapCore::<K, M>::resurrect(&rt, map.addr(), mode);
    assert_eq!(dram_view(&reopened), dram_view(&map), "resurrected");
    assert_dram_matches_media(&reopened);
}

fn string_key(n: u16) -> String {
    format!("key-{n}")
}

fn i64_key(n: u16) -> i64 {
    i64::from(n) - 150
}

/// Every named map type.
fn drive_every_map(steps: &[Step], mode: CacheMode) {
    drive_map::<PStringHashMap, String, HashMirror<String>>(steps, mode, string_key);
    drive_map::<PStringTreeMap, String, TreeMirror<String>>(steps, mode, string_key);
    drive_map::<PStringSkipMap, String, SkipMirror<String>>(steps, mode, string_key);
    drive_map::<PI64HashMap, i64, HashMirror<i64>>(steps, mode, i64_key);
    drive_map::<PI64TreeMap, i64, TreeMirror<i64>>(steps, mode, i64_key);
    drive_map::<PI64SkipMap, i64, SkipMirror<i64>>(steps, mode, i64_key);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every map's DRAM words and mirror against its media, over inserts,
    /// replaces, removes and doublings, directly and in staged blocks that
    /// commit or abort.
    #[test]
    fn map_dram_state_matches_media(steps in steps(160), mode in mode()) {
        drive_every_map(&steps, mode);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wide form (CI's torture job, `--release`).
    #[test]
    #[ignore = "wide proptest; run with --release -- --ignored"]
    fn map_dram_state_matches_media_wide(steps in steps(400), mode in mode()) {
        drive_every_map(&steps, mode);
    }
}
