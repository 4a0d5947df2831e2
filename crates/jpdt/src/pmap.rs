//! Persistent maps and sets (§4.3.2).
//!
//! The persistent content of a map is an extensible [`PRefArray`] whose
//! cells reference *entry* objects (`[value ref][key ...]`). The logic —
//! key lookup — lives in a volatile **mirror** (hash map, tree map or skip
//! list) mapping keys to cell indices, rebuilt at resurrection. Every
//! mutation of the persistent state is one reference write, so the map is
//! consistent at any instant without failure-atomic blocks.
//!
//! Three caching variants trade memory for resurrection cost (§4.3.2):
//! [`CacheMode::Base`] allocates a fresh value proxy per lookup,
//! [`CacheMode::Cached`] fills a proxy cache on demand, and
//! [`CacheMode::Eager`] populates it during resurrection.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;

use parking_lot::Mutex;

use jnvm::{Jnvm, JnvmError, PObject, Proxy};

use crate::parray::PRefArray;
use crate::skiplist::SkipListMap;

/// Proxy-caching policy of a map (§4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No value-proxy cache: every lookup resurrects a fresh proxy.
    /// Lowest memory, default.
    #[default]
    Base,
    /// Cache value proxies on first lookup.
    Cached,
    /// Populate the proxy cache during resurrection.
    Eager,
}

// ----------------------------------------------------------------------
// Keys.
// ----------------------------------------------------------------------

/// A volatile key type storable in a persistent map entry.
///
/// The entry payload is `[value ref u64][key]`, the key held inline: an
/// `i64` as one word, a `String` as its length word and its bytes — so an
/// entry's one reference is its value, and inserting or removing a key
/// allocates or frees the entry alone. Lookups take the key's borrowed
/// [`PKey::Query`] form, as `HashMap::get` does, so probing a
/// `String`-keyed map with a `&str` allocates nothing.
pub trait PKey: Clone + Eq + Hash + Ord + Send + 'static {
    /// The borrowed form lookups take (`str` for `String`).
    type Query: ?Sized + Eq + Hash + Ord;

    /// This key in its lookup form.
    fn query(&self) -> &Self::Query;
    /// Bytes this key takes inside an entry.
    fn key_bytes(&self) -> u64;
    /// Class name under which this key's entry class is registered.
    const ENTRY_CLASS_NAME: &'static str;

    /// Store the key into the fresh entry `e` at payload offset `off`.
    fn write_key(&self, e: &Proxy, off: u64);
    /// Read the key back from entry `e`.
    fn read_key(e: &Proxy, off: u64) -> Self;
}

impl PKey for String {
    type Query = str;

    fn query(&self) -> &str {
        self
    }

    fn key_bytes(&self) -> u64 {
        8 + self.len() as u64
    }
    const ENTRY_CLASS_NAME: &'static str = "jnvm_jpdt.MapEntry<String>";

    fn write_key(&self, e: &Proxy, off: u64) {
        e.write_u64(off, self.len() as u64);
        e.write_bytes(off + 8, self.as_bytes());
    }

    /// Lossy for bytes that are not UTF-8. The length word is bounded by
    /// the entry's storage before it sizes a buffer: a torn or corrupt word
    /// is a catchable panic, never an allocator abort.
    fn read_key(e: &Proxy, off: u64) -> Self {
        let len = e.read_u64(off);
        let room = e.capacity().saturating_sub(off + 8);
        assert!(
            len <= room,
            "map entry at {:#x}: key length word {len} exceeds its storage ({room} B)",
            e.addr()
        );
        let mut bytes = vec![0u8; len as usize];
        e.read_bytes(off + 8, &mut bytes);
        String::from_utf8(bytes)
            .unwrap_or_else(|bad| String::from_utf8_lossy(bad.as_bytes()).into_owned())
    }
}

impl PKey for i64 {
    type Query = i64;

    fn query(&self) -> &i64 {
        self
    }

    fn key_bytes(&self) -> u64 {
        8
    }
    const ENTRY_CLASS_NAME: &'static str = "jnvm_jpdt.MapEntry<i64>";

    fn write_key(&self, e: &Proxy, off: u64) {
        e.write_i64(off, *self);
    }

    fn read_key(e: &Proxy, off: u64) -> Self {
        e.read_i64(off)
    }
}

/// The persistent entry class of a map keyed by `K`: `[value ref][key]`.
pub struct MapEntry<K: PKey> {
    proxy: Proxy,
    _k: PhantomData<fn() -> K>,
}

impl<K: PKey> MapEntry<K> {
    const VALUE_OFF: u64 = 0;
    const KEY_OFF: u64 = 8;
}

impl<K: PKey> PObject for MapEntry<K> {
    const CLASS_NAME: &'static str = K::ENTRY_CLASS_NAME;
    /// The value reference, the entry's only one.
    const REF_OFFSETS: &'static [u64] = &[0];

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        MapEntry {
            proxy: Proxy::open(rt, addr),
            _k: PhantomData,
        }
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }
}

// ----------------------------------------------------------------------
// Mirrors.
// ----------------------------------------------------------------------

/// The volatile key→cell index of a map.
pub trait Mirror<K: PKey>: Send + Default {
    /// Insert a mapping, returning the displaced cell if the key existed.
    fn insert(&mut self, k: K, cell: u64) -> Option<u64>;
    /// Cell of `k`, if present.
    fn get(&self, k: &K::Query) -> Option<u64>;
    /// Remove `k`, returning its cell.
    fn remove(&mut self, k: &K::Query) -> Option<u64>;
    /// Number of keys.
    fn len(&self) -> usize;
    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Iterate `(key, cell)`.
    fn for_each(&self, f: &mut dyn FnMut(&K, u64));
}

/// Hash mirror — the persistent `HashMap` analogue.
pub struct HashMirror<K>(HashMap<K, u64>);

impl<K> Default for HashMirror<K> {
    fn default() -> Self {
        HashMirror(HashMap::new())
    }
}

impl<K: PKey + Borrow<K::Query>> Mirror<K> for HashMirror<K> {
    fn insert(&mut self, k: K, cell: u64) -> Option<u64> {
        self.0.insert(k, cell)
    }
    fn get(&self, k: &K::Query) -> Option<u64> {
        self.0.get(k).copied()
    }
    fn remove(&mut self, k: &K::Query) -> Option<u64> {
        self.0.remove(k)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(&K, u64)) {
        for (k, c) in &self.0 {
            f(k, *c);
        }
    }
}

/// Red-black-tree mirror — the persistent `TreeMap` analogue.
pub struct TreeMirror<K>(std::collections::BTreeMap<K, u64>);

impl<K> Default for TreeMirror<K> {
    fn default() -> Self {
        TreeMirror(std::collections::BTreeMap::new())
    }
}

impl<K: PKey + Borrow<K::Query>> Mirror<K> for TreeMirror<K> {
    fn insert(&mut self, k: K, cell: u64) -> Option<u64> {
        self.0.insert(k, cell)
    }
    fn get(&self, k: &K::Query) -> Option<u64> {
        self.0.get(k).copied()
    }
    fn remove(&mut self, k: &K::Query) -> Option<u64> {
        self.0.remove(k)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(&K, u64)) {
        for (k, c) in &self.0 {
            f(k, *c);
        }
    }
}

/// Skip-list mirror — the persistent `ConcurrentSkipListMap` analogue.
pub struct SkipMirror<K: Ord>(SkipListMap<K, u64>);

impl<K: Ord> Default for SkipMirror<K> {
    fn default() -> Self {
        SkipMirror(SkipListMap::new())
    }
}

impl<K: PKey + Borrow<K::Query>> Mirror<K> for SkipMirror<K> {
    fn insert(&mut self, k: K, cell: u64) -> Option<u64> {
        self.0.insert(k, cell)
    }
    fn get(&self, k: &K::Query) -> Option<u64> {
        self.0.get(k).copied()
    }
    fn remove(&mut self, k: &K::Query) -> Option<u64> {
        self.0.remove_cloned(k)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(&K, u64)) {
        self.0.for_each(|k, c| f(k, *c));
    }
}

// ----------------------------------------------------------------------
// The map core.
// ----------------------------------------------------------------------

struct Inner<K: PKey, M: Mirror<K>> {
    array: PRefArray,
    mirror: M,
    free_cells: Vec<u64>,
    /// cell -> value proxy (Cached/Eager modes).
    cache: HashMap<u64, Proxy>,
    _k: PhantomData<fn() -> K>,
}

/// Generic persistent map machinery, wrapped by the concrete named map
/// types ([`PStringHashMap`] etc., which carry the persistent class names).
pub struct PMapCore<K: PKey, M: Mirror<K>> {
    rt: Jnvm,
    master: Proxy, // payload: [array ref u64]
    mode: CacheMode,
    inner: Mutex<Inner<K, M>>,
}

const OFF_ARRAY: u64 = 0;
const INITIAL_CAPACITY: u64 = 64;

impl<K: PKey, M: Mirror<K>> PMapCore<K, M> {
    /// Allocate a fresh persistent map with the concrete class id
    /// `master_class_id`.
    pub fn create(rt: &Jnvm, master_class_id: u16, mode: CacheMode) -> Result<Self, JnvmError> {
        let array = PRefArray::new(rt, INITIAL_CAPACITY)?;
        let master = Proxy::try_alloc(rt, master_class_id, 8)?;
        master.write_ref(OFF_ARRAY, Some(array.addr()));
        master.pwb();
        master.validate();
        rt.pfence();
        let free_cells = (0..INITIAL_CAPACITY).rev().collect();
        Ok(PMapCore {
            rt: rt.clone(),
            master,
            mode,
            inner: Mutex::new(Inner {
                array,
                mirror: M::default(),
                free_cells,
                cache: HashMap::new(),
                _k: PhantomData,
            }),
        })
    }

    /// Resurrect an existing map: rebuild the volatile mirror (and, in
    /// [`CacheMode::Eager`], the proxy cache) by scanning the persistent
    /// array (§4.3.2).
    pub fn resurrect(rt: &Jnvm, addr: u64, mode: CacheMode) -> Self {
        let master = Proxy::open(rt, addr);
        let arr_addr = master.read_ref(OFF_ARRAY).expect("map always has storage");
        let array = PRefArray::resurrect(rt, arr_addr);
        let mut mirror = M::default();
        let mut free_cells = Vec::new();
        let mut cache = HashMap::new();
        let cap = array.len();
        for cell in 0..cap {
            match array.get_ref(cell) {
                Some(entry_addr) => {
                    let e = Proxy::open(rt, entry_addr);
                    let key = K::read_key(&e, MapEntry::<K>::KEY_OFF);
                    if mode == CacheMode::Eager {
                        if let Some(v) = e.read_ref(MapEntry::<K>::VALUE_OFF) {
                            cache.insert(cell, Proxy::open(rt, v));
                        }
                    }
                    mirror.insert(key, cell);
                }
                None => free_cells.push(cell),
            }
        }
        free_cells.reverse();
        PMapCore {
            rt: rt.clone(),
            master,
            mode,
            inner: Mutex::new(Inner {
                array,
                mirror,
                free_cells,
                cache,
                _k: PhantomData,
            }),
        }
    }

    /// The map's persistent address.
    pub fn addr(&self) -> u64 {
        self.master.addr()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.inner.lock().mirror.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The caching mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// A fresh, invalid entry holding `key`: a pool slot when it fits one,
    /// since an entry never grows.
    fn new_entry(&self, key: &K) -> Result<Proxy, JnvmError> {
        let e = self
            .rt
            .alloc_small::<MapEntry<K>>(MapEntry::<K>::KEY_OFF + key.key_bytes())?;
        key.write_key(&e, MapEntry::<K>::KEY_OFF);
        Ok(e)
    }

    fn entry_at(&self, cell: u64, array: &PRefArray) -> Proxy {
        let addr = array.get_ref(cell).expect("mirror cell holds an entry");
        Proxy::open(&self.rt, addr)
    }

    fn grow(&self, inner: &mut Inner<K, M>) -> Result<(), JnvmError> {
        let rt = &self.rt;
        let old_cap = inner.array.len();
        let bigger = PRefArray::new(rt, old_cap * 2)?;
        for i in 0..old_cap {
            bigger.set_ref(i, inner.array.get_ref(i));
        }
        bigger.pwb();
        // Publish with the atomic-update protocol (§4.1.6).
        rt.set_valid_addr(bigger.addr(), true);
        rt.pfence();
        self.master.write_ref(OFF_ARRAY, Some(bigger.addr()));
        self.master.pwb_field(OFF_ARRAY, 8);
        rt.pfence();
        let old = std::mem::replace(&mut inner.array, bigger);
        old.free();
        inner.free_cells.extend((old_cap..old_cap * 2).rev());
        Ok(())
    }

    /// Insert or update: associate `key` with the persistent object at
    /// `value`. Returns the previous value's address if the key existed
    /// (ownership of the old object passes back to the caller — deletion
    /// is explicit in J-NVM).
    pub fn put(&self, key: K, value: u64) -> Result<Option<u64>, JnvmError> {
        let mut inner = self.inner.lock();
        if let Some(cell) = inner.mirror.get(key.query()) {
            let e = self.entry_at(cell, &inner.array);
            let old = e.read_ref(MapEntry::<K>::VALUE_OFF);
            // Atomic update: validate new value, fence, store, flush.
            self.rt.set_valid_addr(value, true);
            self.rt.pfence();
            e.write_ref(MapEntry::<K>::VALUE_OFF, Some(value));
            e.pwb_field(MapEntry::<K>::VALUE_OFF, 8);
            self.rt.pfence();
            e.ordering_point("pmap-publish", MapEntry::<K>::VALUE_OFF, 8);
            if self.mode != CacheMode::Base {
                inner.cache.insert(cell, Proxy::open(&self.rt, value));
            }
            return Ok(old);
        }
        if inner.free_cells.is_empty() {
            self.grow(&mut inner)?;
        }
        let cell = inner.free_cells.pop().expect("grow guarantees a free cell");
        let e = self.new_entry(&key)?;
        e.write_ref(MapEntry::<K>::VALUE_OFF, Some(value));
        e.pwb();
        self.rt.set_valid_addr(value, true);
        e.validate();
        self.rt.pfence();
        // One write publishes the entry.
        inner.array.set_ref(cell, Some(e.addr()));
        inner.array.pwb_cell(cell);
        self.rt.pfence();
        inner.array.proxy().ordering_point("pmap-publish", 8 + cell * 8, 8);
        if self.mode != CacheMode::Base {
            inner.cache.insert(cell, Proxy::open(&self.rt, value));
        }
        inner.mirror.insert(key, cell);
        Ok(None)
    }

    /// Address of the value associated with `key`.
    pub fn get(&self, key: &K::Query) -> Option<u64> {
        let inner = self.inner.lock();
        let cell = inner.mirror.get(key)?;
        self.entry_at(cell, &inner.array)
            .read_ref(MapEntry::<K>::VALUE_OFF)
    }

    /// Value proxy for `key`, honouring the caching mode: `Base`
    /// resurrects a fresh proxy, `Cached` fills the cache on miss,
    /// `Eager` normally hits the resurrection-time cache.
    pub fn get_value(&self, key: &K::Query) -> Option<Proxy> {
        let mut inner = self.inner.lock();
        let cell = inner.mirror.get(key)?;
        if self.mode != CacheMode::Base {
            if let Some(p) = inner.cache.get(&cell) {
                return Some(p.clone());
            }
        }
        let v = self
            .entry_at(cell, &inner.array)
            .read_ref(MapEntry::<K>::VALUE_OFF)?;
        let value = Proxy::open(&self.rt, v);
        if self.mode != CacheMode::Base {
            inner.cache.insert(cell, value.clone());
        }
        Some(value)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K::Query) -> bool {
        self.inner.lock().mirror.get(key).is_some()
    }

    /// Remove `key`. Returns the value's address (ownership passes to the
    /// caller); the entry, which holds the key, is freed.
    pub fn remove(&self, key: &K::Query) -> Option<u64> {
        let mut inner = self.inner.lock();
        let cell = inner.mirror.remove(key)?;
        let e = self.entry_at(cell, &inner.array);
        let value = e.read_ref(MapEntry::<K>::VALUE_OFF);
        // One write unpublishes the entry; fence before reclaiming.
        inner.array.set_ref(cell, None);
        inner.array.pwb_cell(cell);
        self.rt.pfence();
        self.rt.free_addr(e.addr());
        inner.free_cells.push(cell);
        inner.cache.remove(&cell);
        value
    }

    /// Iterate `(key, value address)` in mirror order.
    pub fn for_each(&self, mut f: impl FnMut(&K, u64)) {
        let inner = self.inner.lock();
        inner.mirror.for_each(&mut |k, cell| {
            if let Some(v) = self
                .entry_at(cell, &inner.array)
                .read_ref(MapEntry::<K>::VALUE_OFF)
            {
                f(k, v);
            }
        });
    }

    /// Keys in mirror order (ordered for tree/skip mirrors), up to `limit`.
    pub fn keys(&self, limit: usize) -> Vec<K> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        inner.mirror.for_each(&mut |k, _| {
            if out.len() < limit {
                out.push(k.clone());
            }
        });
        out
    }

    /// Set-style insert: the entry's value references the entry itself
    /// ("a persistent map that associates each key with itself", §4.3.2).
    /// Returns true if the key was newly inserted.
    pub fn insert_self(&self, key: K) -> Result<bool, JnvmError> {
        let mut inner = self.inner.lock();
        if inner.mirror.get(key.query()).is_some() {
            return Ok(false);
        }
        if inner.free_cells.is_empty() {
            self.grow(&mut inner)?;
        }
        let cell = inner.free_cells.pop().expect("grow guarantees a free cell");
        let e = self.new_entry(&key)?;
        e.write_ref(MapEntry::<K>::VALUE_OFF, Some(e.addr()));
        e.pwb();
        e.validate();
        self.rt.pfence();
        inner.array.set_ref(cell, Some(e.addr()));
        inner.array.pwb_cell(cell);
        self.rt.pfence();
        inner.mirror.insert(key, cell);
        Ok(true)
    }
}

// ----------------------------------------------------------------------
// Concrete named maps (each a persistent class of its own).
// ----------------------------------------------------------------------

macro_rules! define_pmap {
    ($(#[$meta:meta])* $name:ident, $key:ty, $mirror:ty, $class:literal) => {
        $(#[$meta])*
        pub struct $name {
            core: PMapCore<$key, $mirror>,
        }

        impl $name {
            /// Create an empty map (Base caching mode).
            pub fn new(rt: &Jnvm) -> Result<$name, JnvmError> {
                Self::with_mode(rt, CacheMode::Base)
            }

            /// Create an empty map with an explicit caching mode.
            pub fn with_mode(rt: &Jnvm, mode: CacheMode) -> Result<$name, JnvmError> {
                let id = rt.registry().id_of::<$name>()?;
                Ok($name {
                    core: PMapCore::create(rt, id, mode)?,
                })
            }

            /// Resurrect with an explicit caching mode (the plain
            /// [`jnvm::PObject::resurrect`] uses Base).
            pub fn open_with_mode(rt: &Jnvm, addr: u64, mode: CacheMode) -> $name {
                $name {
                    core: PMapCore::resurrect(rt, addr, mode),
                }
            }

            /// The generic map core.
            pub fn core(&self) -> &PMapCore<$key, $mirror> {
                &self.core
            }

            /// See [`PMapCore::put`].
            pub fn put(&self, key: $key, value: u64) -> Result<Option<u64>, JnvmError> {
                self.core.put(key, value)
            }

            /// See [`PMapCore::get`].
            pub fn get(&self, key: &<$key as PKey>::Query) -> Option<u64> {
                self.core.get(key)
            }

            /// See [`PMapCore::get_value`].
            pub fn get_value(&self, key: &<$key as PKey>::Query) -> Option<Proxy> {
                self.core.get_value(key)
            }

            /// See [`PMapCore::remove`].
            pub fn remove(&self, key: &<$key as PKey>::Query) -> Option<u64> {
                self.core.remove(key)
            }

            /// See [`PMapCore::contains`].
            pub fn contains(&self, key: &<$key as PKey>::Query) -> bool {
                self.core.contains(key)
            }

            /// Number of keys.
            pub fn len(&self) -> usize {
                self.core.len()
            }

            /// True when empty.
            pub fn is_empty(&self) -> bool {
                self.core.is_empty()
            }

            /// See [`PMapCore::for_each`].
            pub fn for_each(&self, f: impl FnMut(&$key, u64)) {
                self.core.for_each(f)
            }

            /// See [`PMapCore::keys`].
            pub fn keys(&self, limit: usize) -> Vec<$key> {
                self.core.keys(limit)
            }
        }

        impl PObject for $name {
            const CLASS_NAME: &'static str = $class;
            const REF_OFFSETS: &'static [u64] = &[0];

            fn resurrect(rt: &Jnvm, addr: u64) -> Self {
                Self::open_with_mode(rt, addr, CacheMode::Base)
            }

            fn addr(&self) -> u64 {
                self.core.addr()
            }
        }
    };
}

define_pmap!(
    /// Persistent hash map keyed by strings (the drop-in for
    /// `java.util.HashMap` in Figure 12).
    PStringHashMap,
    String,
    HashMirror<String>,
    "jnvm_jpdt.PStringHashMap"
);

define_pmap!(
    /// Persistent ordered map keyed by strings (red-black mirror, the
    /// `java.util.TreeMap` drop-in).
    PStringTreeMap,
    String,
    TreeMirror<String>,
    "jnvm_jpdt.PStringTreeMap"
);

define_pmap!(
    /// Persistent skip-list map keyed by strings (the
    /// `ConcurrentSkipListMap` drop-in).
    PStringSkipMap,
    String,
    SkipMirror<String>,
    "jnvm_jpdt.PStringSkipMap"
);

define_pmap!(
    /// Persistent hash map keyed by `i64`.
    PI64HashMap,
    i64,
    HashMirror<i64>,
    "jnvm_jpdt.PI64HashMap"
);

define_pmap!(
    /// Persistent ordered map keyed by `i64`.
    PI64TreeMap,
    i64,
    TreeMirror<i64>,
    "jnvm_jpdt.PI64TreeMap"
);

define_pmap!(
    /// Persistent skip-list map keyed by `i64`.
    PI64SkipMap,
    i64,
    SkipMirror<i64>,
    "jnvm_jpdt.PI64SkipMap"
);

// ----------------------------------------------------------------------
// Sets.
// ----------------------------------------------------------------------

macro_rules! define_pset {
    ($(#[$meta:meta])* $name:ident, $key:ty, $map:ident, $class:literal) => {
        $(#[$meta])*
        pub struct $name {
            core: PMapCore<$key, HashMirror<$key>>,
        }

        impl $name {
            /// Create an empty set.
            pub fn new(rt: &Jnvm) -> Result<$name, JnvmError> {
                let id = rt.registry().id_of::<$name>()?;
                Ok($name {
                    core: PMapCore::create(rt, id, CacheMode::Base)?,
                })
            }

            /// Insert `key`; returns true if newly inserted.
            pub fn insert(&self, key: $key) -> Result<bool, JnvmError> {
                self.core.insert_self(key)
            }

            /// Whether `key` is present.
            pub fn contains(&self, key: &<$key as PKey>::Query) -> bool {
                self.core.contains(key)
            }

            /// Remove `key`; returns true if it was present.
            pub fn remove(&self, key: &<$key as PKey>::Query) -> bool {
                self.core.remove(key).is_some()
            }

            /// Number of keys.
            pub fn len(&self) -> usize {
                self.core.len()
            }

            /// True when empty.
            pub fn is_empty(&self) -> bool {
                self.core.is_empty()
            }

            /// Keys (up to `limit`).
            pub fn keys(&self, limit: usize) -> Vec<$key> {
                self.core.keys(limit)
            }
        }

        impl PObject for $name {
            const CLASS_NAME: &'static str = $class;
            const REF_OFFSETS: &'static [u64] = &[0];

            fn resurrect(rt: &Jnvm, addr: u64) -> Self {
                $name {
                    core: PMapCore::resurrect(rt, addr, CacheMode::Base),
                }
            }

            fn addr(&self) -> u64 {
                self.core.addr()
            }
        }
    };
}

define_pset!(
    /// Persistent set of strings.
    PStringSet,
    String,
    PStringHashMap,
    "jnvm_jpdt.PStringSet"
);

define_pset!(
    /// Persistent set of `i64`.
    PI64Set,
    i64,
    PI64HashMap,
    "jnvm_jpdt.PI64Set"
);
