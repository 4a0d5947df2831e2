//! A tour of the J-PDT persistent data types (§4.3): strings, arrays, the
//! extensible array, maps in their three caching modes, and sets — all
//! crash-consistent without failure-atomic blocks.
//!
//! Run: `cargo run --example pdt_tour`

use std::sync::Arc;

use jnvm_repro::heap::HeapConfig;
use jnvm_repro::jnvm::{JnvmBuilder, PObject};
use jnvm_repro::jpdt::{
    register_jpdt, CacheMode, PBytes, PI64TreeMap, PLongArray, PRefVec, PString, PStringHashMap,
    PStringSet,
};
use jnvm_repro::pmem::{CrashPolicy, Pmem, PmemConfig};

fn main() {
    let pmem = Pmem::new(PmemConfig::crash_sim(64 << 20));
    let rt = register_jpdt(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");

    // Strings and byte blobs: small ones are pool-packed (§4.4).
    let s = PString::from_str_in(&rt, "persistent and pooled").expect("pstring");
    println!("PString: {:?} (pooled: {})", s.to_string_lossy(), s.is_pooled());

    // Fixed arrays.
    let arr = PLongArray::new(&rt, 8).expect("array");
    for i in 0..8 {
        arr.set(i, (i * i) as i64);
    }
    arr.pwb();
    println!("PLongArray: {:?}", (0..8).map(|i| arr.get(i)).collect::<Vec<_>>());

    // The extensible array (ArrayList drop-in).
    let vec = PRefVec::new(&rt, 2).expect("vec");
    for word in ["the", "quick", "brown", "fox"] {
        let w = PString::from_str_in(&rt, word).expect("word");
        vec.push(w.addr()).expect("push");
    }
    print!("PRefVec ({} elems, capacity {}):", vec.len(), vec.capacity());
    vec.for_each(|_, addr| {
        print!(" {}", PString::resurrect(&rt, addr).to_string_lossy());
    });
    println!();

    // Maps: hash / tree / skip-list mirrors; base / cached / eager modes.
    let map = PStringHashMap::with_mode(&rt, CacheMode::Cached).expect("map");
    rt.root_put("tour-map", &map).expect("root");
    for (k, v) in [("alpha", "A"), ("beta", "B"), ("gamma", "Γ")] {
        let blob = PBytes::new(&rt, v.as_bytes()).expect("blob");
        map.put(k.to_string(), blob.addr()).expect("put");
    }
    println!("PStringHashMap has {} entries (Cached mode)", map.len());

    let tree = PI64TreeMap::new(&rt).expect("tree");
    for k in [42i64, 7, 99, 1] {
        let blob = PBytes::new(&rt, &k.to_le_bytes()).expect("blob");
        tree.put(k, blob.addr()).expect("put");
    }
    println!("PI64TreeMap keys in order: {:?}", tree.keys(10));

    let set = PStringSet::new(&rt).expect("set");
    rt.root_put("tour-set", &set).expect("root");
    set.insert("unique".into()).expect("insert");
    set.insert("unique".into()).expect("insert twice");
    println!("PStringSet: len {} (duplicate rejected)", set.len());

    // Everything reachable from the root map survives a power failure.
    pmem.crash(&CrashPolicy::strict()).expect("crash");
    let (rt2, report) = register_jpdt(JnvmBuilder::new())
        .open(Arc::clone(&pmem))
        .expect("recovery");
    println!(
        "\nafter crash: {} live objects recovered, {} blocks reclaimed",
        report.live_objects, report.freed_blocks
    );
    let map2 = rt2
        .root_get_as::<PStringHashMap>("tour-map")
        .expect("typed")
        .expect("map survived");
    let gamma = map2.get("gamma").expect("entry survived");
    println!(
        "map[gamma] = {:?} — the mirror was rebuilt from NVMM at resurrection",
        String::from_utf8_lossy(&PBytes::resurrect(&rt2, gamma).to_vec())
    );
    // The unrooted tour objects (string, arrays, tree) were reclaimed by
    // the recovery GC: liveness is by reachability.
}
