//! Registration of every J-PDT class on a [`JnvmBuilder`].

use jnvm::JnvmBuilder;

use crate::blob::{PBytes, PString};
use crate::parray::{PByteArray, PLongArray, PRefArray};
use crate::pmap::{
    MapEntry, PI64HashMap, PI64Set, PI64SkipMap, PI64TreeMap, PStringHashMap, PStringSet,
    PStringSkipMap, PStringTreeMap,
};
use crate::pqueue::PQueue;
use crate::pvec::PRefVec;

/// Register every J-PDT persistent class. Call this on the builder of any
/// pool that stores J-PDT structures (both at create and open time).
pub fn register_jpdt(b: JnvmBuilder) -> JnvmBuilder {
    b.register::<PString>()
        .register::<PBytes>()
        .register::<PLongArray>()
        .register::<PByteArray>()
        .register::<PRefArray>()
        .register::<PRefVec>()
        .register::<PQueue>()
        .register::<MapEntry<String>>()
        .register::<MapEntry<i64>>()
        .register::<PStringHashMap>()
        .register::<PStringTreeMap>()
        .register::<PStringSkipMap>()
        .register::<PI64HashMap>()
        .register::<PI64TreeMap>()
        .register::<PI64SkipMap>()
        .register::<PStringSet>()
        .register::<PI64Set>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheMode, PBytes, PStringHashMap, PStringSet, PStringTreeMap};
    use jnvm::{JnvmBuilder, PObject};
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};
    use std::sync::Arc;

    fn rt(bytes: u64) -> (Arc<Pmem>, jnvm::Jnvm) {
        let pmem = Pmem::new(PmemConfig::crash_sim(bytes));
        let rt = register_jpdt(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        (pmem, rt)
    }

    fn reopen(pmem: &Arc<Pmem>) -> jnvm::Jnvm {
        register_jpdt(JnvmBuilder::new())
            .open(Arc::clone(pmem))
            .unwrap()
            .0
    }

    #[test]
    fn hashmap_put_get_remove() {
        let (_p, rt) = rt(8 << 20);
        let m = PStringHashMap::new(&rt).unwrap();
        assert!(m.is_empty());
        let v1 = PBytes::new(&rt, b"value-1").unwrap();
        let v2 = PBytes::new(&rt, b"value-2").unwrap();
        assert_eq!(m.put("k1".into(), v1.addr()).unwrap(), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains("k1"));
        assert_eq!(m.get("k1"), Some(v1.addr()));
        // Replace returns the old value; caller frees it.
        let old = m.put("k1".into(), v2.addr()).unwrap();
        assert_eq!(old, Some(v1.addr()));
        rt.free_addr(old.unwrap());
        assert_eq!(m.get("k1"), Some(v2.addr()));
        assert_eq!(m.remove("k1"), Some(v2.addr()));
        assert!(m.is_empty());
        assert_eq!(m.remove("k1"), None);
    }

    #[test]
    fn map_grows_beyond_initial_capacity() {
        let (_p, rt) = rt(32 << 20);
        let m = PStringHashMap::new(&rt).unwrap();
        for i in 0..300 {
            let v = PBytes::new(&rt, format!("v{i}").as_bytes()).unwrap();
            m.put(format!("key-{i}"), v.addr()).unwrap();
        }
        assert_eq!(m.len(), 300);
        for i in 0..300 {
            let v = m.get(&format!("key-{i}")).expect("present after growth");
            let b = rt.read_pobject::<PBytes>(v).unwrap();
            assert_eq!(b.to_vec(), format!("v{i}").into_bytes());
        }
    }

    #[test]
    fn map_survives_crash_and_resurrects_mirror() {
        let (pmem, rt) = rt(32 << 20);
        let m = PStringHashMap::new(&rt).unwrap();
        rt.root_put("map", &m).unwrap();
        for i in 0..100 {
            let v = PBytes::new(&rt, format!("payload-{i}").as_bytes()).unwrap();
            m.put(format!("key-{i}"), v.addr()).unwrap();
        }
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let rt2 = reopen(&pmem);
        let m2 = rt2.root_get_as::<PStringHashMap>("map").unwrap().unwrap();
        assert_eq!(m2.len(), 100);
        for i in 0..100 {
            let v = m2.get(&format!("key-{i}")).expect("key survived");
            let b = rt2.read_pobject::<PBytes>(v).unwrap();
            assert_eq!(b.to_vec(), format!("payload-{i}").into_bytes());
        }
    }

    #[test]
    fn removed_values_are_callers_to_free() {
        let (pmem, rt) = rt(8 << 20);
        let m = PStringHashMap::new(&rt).unwrap();
        rt.root_put("map", &m).unwrap();
        let v = PBytes::new(&rt, b"gone").unwrap();
        m.put("k".into(), v.addr()).unwrap();
        let got = m.remove("k").unwrap();
        rt.free_addr(got);
        rt.pmem().pfence();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let rt2 = reopen(&pmem);
        let m2 = rt2.root_get_as::<PStringHashMap>("map").unwrap().unwrap();
        assert_eq!(m2.len(), 0);
    }

    #[test]
    fn treemap_orders_keys() {
        let (_p, rt) = rt(8 << 20);
        let m = PStringTreeMap::new(&rt).unwrap();
        for k in ["pear", "apple", "mango", "fig"] {
            let v = PBytes::new(&rt, k.as_bytes()).unwrap();
            m.put(k.into(), v.addr()).unwrap();
        }
        assert_eq!(m.keys(10), vec!["apple", "fig", "mango", "pear"]);
    }

    #[test]
    fn skipmap_orders_keys_and_survives() {
        let (pmem, rt) = rt(8 << 20);
        let m = crate::PI64SkipMap::new(&rt).unwrap();
        rt.root_put("sk", &m).unwrap();
        for k in [50i64, 10, 30, 20, 40] {
            let v = PBytes::new(&rt, &k.to_le_bytes()).unwrap();
            m.put(k, v.addr()).unwrap();
        }
        assert_eq!(m.keys(10), vec![10, 20, 30, 40, 50]);
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let rt2 = reopen(&pmem);
        let m2 = rt2
            .root_get_as::<crate::PI64SkipMap>("sk")
            .unwrap()
            .unwrap();
        assert_eq!(m2.keys(10), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn cached_and_eager_modes_serve_hits() {
        let (pmem, rt) = rt(8 << 20);
        for mode in [CacheMode::Base, CacheMode::Cached, CacheMode::Eager] {
            let m = PStringHashMap::with_mode(&rt, mode).unwrap();
            let v = PBytes::new(&rt, b"cached").unwrap();
            m.put("k".into(), v.addr()).unwrap();
            let p1 = m.get_value("k").unwrap();
            let p2 = m.get_value("k").unwrap();
            assert_eq!(p1.addr(), v.addr());
            assert_eq!(p2.addr(), v.addr());
        }
        // Eager resurrection pre-populates the cache.
        let m = PStringHashMap::new(&rt).unwrap();
        rt.root_put("em", &m).unwrap();
        let v = PBytes::new(&rt, b"eager").unwrap();
        m.put("k".into(), v.addr()).unwrap();
        pmem.drain_all();
        let any = rt.root_get("em").unwrap();
        let m2 = PStringHashMap::open_with_mode(&rt, any.addr(), CacheMode::Eager);
        assert_eq!(m2.get_value("k").unwrap().addr(), v.addr());
    }

    #[test]
    fn set_semantics() {
        let (pmem, rt) = rt(8 << 20);
        let s = PStringSet::new(&rt).unwrap();
        rt.root_put("set", &s).unwrap();
        assert!(s.insert("a".into()).unwrap());
        assert!(!s.insert("a".into()).unwrap(), "duplicate insert rejected");
        assert!(s.insert("b".into()).unwrap());
        assert!(s.contains("a"));
        assert_eq!(s.len(), 2);
        assert!(s.remove("a"));
        assert!(!s.remove("a"));
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let rt2 = reopen(&pmem);
        let s2 = rt2.root_get_as::<PStringSet>("set").unwrap().unwrap();
        assert_eq!(s2.len(), 1);
        assert!(s2.contains("b"));
    }

    #[test]
    fn map_inside_fa_block_is_atomic() {
        let (_p, rt) = rt(8 << 20);
        let m = PStringHashMap::new(&rt).unwrap();
        rt.root_put("m", &m).unwrap();
        rt.fa(|| {
            let v = PBytes::new(&rt, b"fa-value").unwrap();
            m.put("k".into(), v.addr()).unwrap();
        });
        let v = m.get("k").unwrap();
        assert_eq!(rt.read_pobject::<PBytes>(v).unwrap().to_vec(), b"fa-value");
    }

    #[test]
    fn i64_maps_work() {
        let (_p, rt) = rt(8 << 20);
        let m = crate::PI64HashMap::new(&rt).unwrap();
        for k in 0..50i64 {
            let v = PBytes::new(&rt, &k.to_le_bytes()).unwrap();
            m.put(k, v.addr()).unwrap();
        }
        for k in 0..50i64 {
            let v = m.get(&k).unwrap();
            let b = rt.read_pobject::<PBytes>(v).unwrap();
            assert_eq!(b.to_vec(), k.to_le_bytes());
        }
        assert!(m.remove(&25).is_some());
        assert!(!m.contains(&25));
        assert_eq!(m.len(), 49);
    }

    /// A key's length word is bounded by its entry before it sizes a
    /// buffer: a corrupt one stops a resurrection with a catchable panic
    /// naming the entry, not an allocation of its size.
    #[test]
    fn a_corrupt_key_length_is_a_catchable_panic() {
        let _hush = jnvm_pmem::hush_panics();
        let (pmem, rt) = rt(8 << 20);
        let m = PStringHashMap::new(&rt).unwrap();
        let v = PBytes::new(&rt, b"v").unwrap();
        m.put("key".into(), v.addr()).unwrap();
        // The first put takes cell 0 of the map's array (offset 0 of the
        // map); the entry's key length is its payload's second word.
        let array = jnvm::Proxy::open(&rt, m.addr()).read_ref(0).unwrap();
        let entry = crate::PRefArray::resurrect(&rt, array).get_ref(0).unwrap();
        pmem.write_u64(entry + 8 + 8, 1 << 40);
        let open = || PStringHashMap::open_with_mode(&rt, m.addr(), CacheMode::Base);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(open))
            .map(drop)
            .expect_err("a corrupt key length was trusted");
        let msg = panic.downcast::<String>().unwrap();
        let named = msg.contains(&format!("{entry:#x}"));
        assert!(named && msg.contains("exceeds its storage"), "{msg}");
    }

    /// A `String` key lives inside its entry: a put allocates the entry
    /// alone — `[value ref][key length][key bytes]`, one slot — and a remove
    /// frees it and reads no key reference.
    #[test]
    fn entry_slots_hold_their_key_and_are_freed_on_remove() {
        let (pmem, rt) = rt(8 << 20);
        let m = PStringHashMap::new(&rt).unwrap();
        rt.root_put("map", &m).unwrap();
        let before = rt.heap().stats();
        let v = PBytes::new(&rt, b"v").unwrap();
        m.put("some-key".into(), v.addr()).unwrap();
        // The value's slot is of the 16-B class, the entry's (8 + 8 + 8 B)
        // of the 24-B one: one span of 16 blocks carved for each.
        assert_eq!(
            rt.heap().stats().blocks_allocated - before.blocks_allocated,
            2 * 16
        );
        assert_eq!(rt.pools().free_slots(), 169 + 126);
        let reads = pmem.stats().reads;
        let got = m.remove("some-key").unwrap();
        // The map cell alone: no key reference, and the value reference is
        // in DRAM (the cell and the value reference while it was not).
        assert_eq!(pmem.stats().reads - reads, 1, "device reads of a remove");
        rt.free_addr(got);
        let after = rt.heap().stats();
        // Every slot is freed; the spans are retained for slot reuse.
        assert_eq!(after.blocks_freed - before.blocks_freed, 0);
        assert_eq!(
            rt.pools().free_slots(),
            170 + 127,
            "the spans' slots, all free"
        );
        let key = "k".repeat(300);
        let v = PBytes::new(&rt, b"long").unwrap();
        m.put(key.clone(), v.addr()).unwrap();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let m2 = reopen(&pmem)
            .root_get_as::<PStringHashMap>("map")
            .unwrap()
            .unwrap();
        assert_eq!(
            m2.keys(2),
            vec![key],
            "a key too long for a slot takes a chain"
        );
    }
}
