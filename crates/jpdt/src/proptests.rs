//! Property tests: persistent maps against a volatile reference model,
//! across crashes.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use proptest::prelude::*;

use jnvm::{Jnvm, JnvmBuilder, PObject};
use jnvm_heap::HeapConfig;
use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};

use crate::pmap::tests::{assert_dram_matches_media, dram_view};
use crate::{
    register_jpdt, CacheMode, HashIndex, Index, Ordered, PBytes, PI64HashMap, PI64SkipMap,
    PI64TreeMap, PKey, PMapCore, PRefVec, PStringHashMap, PStringSkipMap, PStringTreeMap,
    SkipMirror, TreeMirror,
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
fn run_op<K: PKey + Debug, I: Index<K>>(
    rt: &Jnvm,
    map: &PMapCore<K, I>,
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
fn drive_map<N: PObject, K: PKey + Debug, I: Index<K>>(
    steps: &[Step],
    mode: CacheMode,
    key: fn(u16) -> K,
) {
    let (_pmem, rt) = fresh();
    let id = rt.registry().id_of::<N>().unwrap();
    let map = PMapCore::<K, I>::create(&rt, id, mode).unwrap();
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
    let reopened = PMapCore::<K, I>::resurrect(&rt, map.addr(), mode);
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
    drive_map::<PStringHashMap, String, HashIndex<String>>(steps, mode, string_key);
    drive_map::<PStringTreeMap, String, Ordered<String, TreeMirror<String>>>(
        steps, mode, string_key,
    );
    drive_map::<PStringSkipMap, String, Ordered<String, SkipMirror<String>>>(
        steps, mode, string_key,
    );
    drive_map::<PI64HashMap, i64, HashIndex<i64>>(steps, mode, i64_key);
    drive_map::<PI64TreeMap, i64, Ordered<i64, TreeMirror<i64>>>(steps, mode, i64_key);
    drive_map::<PI64SkipMap, i64, Ordered<i64, SkipMirror<i64>>>(steps, mode, i64_key);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every map's DRAM index against its media, over inserts,
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

// ----------------------------------------------------------------------
// The hash index alone, against `std::collections::HashMap`.
// ----------------------------------------------------------------------

/// One op on a [`HashIndex`] and its model, on key number `k` of
/// [`index_keys`].
#[derive(Debug, Clone)]
enum IndexOp {
    /// Map `k` to the value in the free cell `nth` from the top of the
    /// free list (the head for 0), growing the cells when none is free.
    Insert(u8, u64, u8),
    Remove(u8),
    /// Remove `k` by its cell, as an aborted insert does.
    RemoveCell(u8),
    SetValue(u8, u64),
    /// Grow the cells and undo it.
    GrowShrink,
}

fn index_ops() -> impl Strategy<Value = Vec<IndexOp>> {
    let k = || any::<u8>();
    let nth = prop_oneof![3 => Just(0u8), 1 => any::<u8>()];
    proptest::collection::vec(
        prop_oneof![
            4 => (k(), 1..u64::MAX, nth).prop_map(|(k, v, n)| IndexOp::Insert(k, v, n)),
            2 => k().prop_map(IndexOp::Remove),
            1 => k().prop_map(IndexOp::RemoveCell),
            1 => (k(), 1..u64::MAX).prop_map(|(k, v)| IndexOp::SetValue(k, v)),
            1 => Just(IndexOp::GrowShrink),
        ],
        1..300,
    )
}

/// Hashes every key to one of 8 values around 0, wrapping: keys crowd the
/// last and first slots of any table, and share tags.
#[derive(Default)]
struct Crowd;

impl BuildHasher for Crowd {
    type Hasher = CrowdHasher;

    fn build_hasher(&self) -> CrowdHasher {
        CrowdHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// FNV-1a, folded to 8 values.
struct CrowdHasher(u64);

impl Hasher for CrowdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        u64::from(((self.0 % 8) as u32).wrapping_sub(4))
    }
}

/// 34 short keys, and 4 long ones (a slab entry with a `u32` length).
fn index_keys() -> Vec<String> {
    let short = (0..34).map(|n| format!("k{n}"));
    short
        .chain((0..4).map(|n| format!("{}{n}", "L".repeat(300))))
        .collect()
}

/// The model: each key's cell, each cell's value word, and the free
/// cells as a stack whose top is taken next.
#[derive(Default)]
struct IndexModel {
    cells: HashMap<String, u64>,
    values: Vec<u64>,
    free: Vec<u64>,
}

impl IndexModel {
    /// Double the cells of `ix` and of the model.
    fn grow(&mut self, ix: &mut HashIndex<String, Crowd>) {
        let cells = self.values.len() as u64;
        ix.grow(cells * 2);
        self.free.extend((cells..cells * 2).rev());
        self.values.resize(cells as usize * 2, 0);
    }

    fn release(&mut self, cell: u64) -> (u64, u64) {
        self.free.push(cell);
        (cell, std::mem::take(&mut self.values[cell as usize]))
    }
}

/// Every answer of `ix` — length, next free cell, `get` and `value` of
/// every key, `for_each` — against the model.
fn assert_index_matches(ix: &HashIndex<String, Crowd>, keys: &[String], model: &IndexModel) {
    assert_eq!(ix.len(), model.cells.len(), "len");
    assert_eq!(ix.free_cell(), model.free.last().copied(), "free cell");
    for k in keys {
        let cell = ix.get(k);
        assert_eq!(cell, model.cells.get(k).copied(), "get {k:.12}");
        if let Some(c) = cell {
            assert_eq!(ix.value(c), model.values[c as usize], "value {k:.12}");
        }
    }
    let mut seen = Vec::new();
    ix.for_each(&mut |k, c| seen.push((k.to_owned(), c)));
    seen.sort();
    let mut want: Vec<(String, u64)> = model.cells.iter().map(|(k, c)| (k.clone(), *c)).collect();
    want.sort();
    assert_eq!(seen, want, "for_each");
}

fn drive_index(ops: &[IndexOp]) {
    let keys = index_keys();
    let key = |k: u8| &keys[k as usize % keys.len()];
    let mut ix = HashIndex::<String, Crowd>::build(4, |_| None);
    let mut model = IndexModel {
        values: vec![0; 4],
        free: (0..4).rev().collect(),
        ..IndexModel::default()
    };
    for op in ops {
        match *op {
            IndexOp::Insert(k, value, nth) => {
                if model.free.is_empty() {
                    model.grow(&mut ix);
                }
                let at = model.free.len() - 1 - nth as usize % model.free.len();
                let cell = model.free.remove(at);
                let displaced = ix.insert(key(k).clone(), cell, value);
                model.values[cell as usize] = value;
                let old = model.cells.insert(key(k).clone(), cell);
                if let Some(c) = old {
                    model.release(c);
                }
                assert_eq!(displaced, old, "insert {op:?}");
            }
            IndexOp::Remove(k) => {
                let want = model.cells.remove(key(k)).map(|c| model.release(c));
                assert_eq!(ix.remove(key(k)), want, "{op:?}");
            }
            IndexOp::RemoveCell(k) => {
                if let Some(cell) = model.cells.remove(key(k)) {
                    model.release(cell);
                    ix.remove_cell(cell);
                }
            }
            IndexOp::SetValue(k, value) => {
                if let Some(&cell) = model.cells.get(key(k)) {
                    let old = std::mem::replace(&mut model.values[cell as usize], value);
                    assert_eq!(ix.set_value(cell, value), old, "{op:?}");
                }
            }
            IndexOp::GrowShrink => {
                let cells = model.values.len() as u64;
                ix.grow(cells * 2);
                assert_eq!(ix.free_cell(), Some(cells), "grown");
                ix.shrink(cells);
            }
        }
        assert_index_matches(&ix, &keys, &model);
    }
    // Insert every long key, then remove them: over 1 KiB of garbage,
    // most of the slab, so it compacts (and shrinks) on the way.
    for k in &keys[34..38] {
        if !model.cells.contains_key(k) {
            if model.free.is_empty() {
                model.grow(&mut ix);
            }
            let cell = model.free.pop().unwrap();
            ix.insert(k.clone(), cell, 1);
            model.values[cell as usize] = 1;
            model.cells.insert(k.clone(), cell);
        }
    }
    let mut compacted = false;
    for k in &keys[34..38] {
        let cell = model.cells.remove(k).unwrap();
        let before = ix.slab_len();
        assert_eq!(ix.remove(k), Some(model.release(cell)));
        compacted |= ix.slab_len() < before;
        assert_index_matches(&ix, &keys, &model);
    }
    assert!(compacted, "the slab compacted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hash index agrees with a `HashMap` model on inserts (into the
    /// free list's head or deeper), replaces, removes by key and by cell,
    /// value updates and undone growths, over keys whose hashes crowd a
    /// small table and share tags; and its slab compacts.
    #[test]
    fn hash_index_matches_a_hashmap(ops in index_ops()) {
        drive_index(&ops);
    }
}
