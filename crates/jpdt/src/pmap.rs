//! Persistent maps and sets (§4.3.2).
//!
//! The persistent content of a map is an extensible [`PRefArray`] whose
//! cells reference *entry* objects (`[value ref][key ...]`). The logic —
//! key lookup — lives in a volatile **mirror** (hash map, tree map or skip
//! list) mapping keys to cell indices, rebuilt at resurrection; beside it
//! one DRAM word per cell holds the value reference of the cell's entry,
//! so a lookup reads nothing from NVMM. Every mutation of the persistent
//! state is one reference write, so the map is consistent at any instant
//! without failure-atomic blocks.
//!
//! Three caching variants trade memory for resurrection cost (§4.3.2):
//! [`CacheMode::Base`] allocates a fresh value proxy per lookup,
//! [`CacheMode::Cached`] fills a proxy cache on demand, and
//! [`CacheMode::Eager`] populates it during resurrection.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

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
pub trait Mirror<K: PKey>: Send + Default + 'static {
    /// Insert a mapping, returning the displaced cell if the key existed.
    fn insert(&mut self, k: K, cell: u64) -> Option<u64>;
    /// Cell of `k`, if present.
    fn get(&self, k: &K::Query) -> Option<u64>;
    /// Remove `k`, returning the stored key and its cell.
    fn remove(&mut self, k: &K::Query) -> Option<(K, u64)>;
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
    fn remove(&mut self, k: &K::Query) -> Option<(K, u64)> {
        self.0.remove_entry(k)
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
    fn remove(&mut self, k: &K::Query) -> Option<(K, u64)> {
        self.0.remove_entry(k)
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
    fn remove(&mut self, k: &K::Query) -> Option<(K, u64)> {
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
    /// Per cell, the value reference its entry holds on media (0 for a
    /// free cell): what a lookup answers, so that it reads no NVMM.
    values: Vec<u64>,
    /// cell -> value proxy (Cached/Eager modes).
    cache: HashMap<u64, Proxy>,
    _k: PhantomData<fn() -> K>,
}

impl<K: PKey, M: Mirror<K>> Inner<K, M> {
    fn value(&self, cell: u64) -> Option<u64> {
        match self.values[cell as usize] {
            0 => None,
            v => Some(v),
        }
    }

    /// Cell `cell`, taken off the free list, now holds `key` → `value`.
    fn occupy(&mut self, key: K, cell: u64, value: u64) {
        self.values[cell as usize] = value;
        self.mirror.insert(key, cell);
    }

    /// Cell `cell`, whose key has left the mirror, goes back on the free
    /// list.
    fn vacate(&mut self, cell: u64) {
        self.values[cell as usize] = 0;
        self.cache.remove(&cell);
        self.free_cells.push(cell);
    }
}

/// Generic persistent map machinery, wrapped by the concrete named map
/// types ([`PStringHashMap`] etc., which carry the persistent class names).
///
/// The DRAM state — mirror, free cells, value words, proxy cache — changes
/// with the media state it describes. Inside a failure-atomic block the
/// media change is staged, so each DRAM change registers its inverse with
/// [`jnvm::JnvmRuntime::on_abort`]: an aborted block leaves the map as
/// the block found it. Two staged blocks that change one map must abort
/// newest first, so a group should hold at most one of them (the
/// kvstore's group former puts at most one structural op per map in a
/// group).
pub struct PMapCore<K: PKey, M: Mirror<K>> {
    rt: Jnvm,
    master: Proxy, // payload: [array ref u64]
    mode: CacheMode,
    inner: Arc<Mutex<Inner<K, M>>>,
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
        let inner = Inner {
            array,
            mirror: M::default(),
            free_cells: (0..INITIAL_CAPACITY).rev().collect(),
            values: vec![0; INITIAL_CAPACITY as usize],
            cache: HashMap::new(),
            _k: PhantomData,
        };
        Ok(PMapCore::from_inner(rt, master, mode, inner))
    }

    fn from_inner(rt: &Jnvm, master: Proxy, mode: CacheMode, inner: Inner<K, M>) -> Self {
        PMapCore {
            rt: rt.clone(),
            master,
            mode,
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Resurrect an existing map: rebuild the volatile mirror and the value
    /// words (and, in [`CacheMode::Eager`], the proxy cache) by scanning the
    /// persistent array (§4.3.2). Recovery has run: a value reference its
    /// GC nullified reads 0 here.
    pub fn resurrect(rt: &Jnvm, addr: u64, mode: CacheMode) -> Self {
        let master = Proxy::open(rt, addr);
        let arr_addr = master.read_ref(OFF_ARRAY).expect("map always has storage");
        let array = PRefArray::resurrect(rt, arr_addr);
        let mut mirror = M::default();
        let mut free_cells = Vec::new();
        let mut values = vec![0; array.len() as usize];
        let mut cache = HashMap::new();
        for cell in 0..array.len() {
            match array.get_ref(cell) {
                Some(entry_addr) => {
                    let e = Proxy::open(rt, entry_addr);
                    let key = K::read_key(&e, MapEntry::<K>::KEY_OFF);
                    if let Some(v) = e.read_ref(MapEntry::<K>::VALUE_OFF) {
                        values[cell as usize] = v;
                        if mode == CacheMode::Eager {
                            cache.insert(cell, Proxy::open(rt, v));
                        }
                    }
                    mirror.insert(key, cell);
                }
                None => free_cells.push(cell),
            }
        }
        free_cells.reverse();
        let inner = Inner {
            array,
            mirror,
            free_cells,
            values,
            cache,
            _k: PhantomData,
        };
        PMapCore::from_inner(rt, master, mode, inner)
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

    /// Inside a failure-atomic block, have an abort of the block run `undo`
    /// over this map's DRAM state (see the type's doc).
    fn on_abort(&self, undo: impl FnOnce(&mut Inner<K, M>) + Send + 'static) {
        if self.rt.in_fa() {
            let inner = Arc::clone(&self.inner);
            self.rt.on_abort(move || undo(&mut inner.lock()));
        }
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

    /// The entry cell `cell` references: the one device read of a
    /// replace or a remove.
    fn entry_at(&self, cell: u64, array: &PRefArray) -> Proxy {
        let addr = array.get_ref(cell).expect("mirror cell holds an entry");
        Proxy::open(&self.rt, addr)
    }

    /// Double the cell array: a copy of it, published with the
    /// atomic-update protocol (§4.1.6).
    fn grow(&self, inner: &mut Inner<K, M>) -> Result<(), JnvmError> {
        let rt = &self.rt;
        let old_cap = inner.array.len();
        let bigger = PRefArray::grown_from(&inner.array, old_cap * 2)?;
        rt.pfence();
        self.master.write_ref(OFF_ARRAY, Some(bigger.addr()));
        self.master.pwb_field(OFF_ARRAY, 8);
        rt.pfence();
        let old = std::mem::replace(&mut inner.array, bigger);
        let free_before = inner.free_cells.len();
        inner.free_cells.extend((old_cap..old_cap * 2).rev());
        inner.values.resize(old_cap as usize * 2, 0);
        let kept = old.clone();
        self.on_abort(move |inner| {
            inner.array = kept;
            inner.free_cells.truncate(free_before);
            inner.values.truncate(old_cap as usize);
        });
        old.free();
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
            // Atomic update: validate new value, fence, store, flush.
            self.rt.set_valid_addr(value, true);
            self.rt.pfence();
            e.write_ref(MapEntry::<K>::VALUE_OFF, Some(value));
            let old = std::mem::replace(&mut inner.values[cell as usize], value);
            e.pwb_field(MapEntry::<K>::VALUE_OFF, 8);
            self.rt.pfence();
            e.ordering_point("pmap-publish", MapEntry::<K>::VALUE_OFF, 8);
            if self.mode != CacheMode::Base {
                inner.cache.insert(cell, Proxy::open(&self.rt, value));
            }
            self.on_abort(move |inner| {
                inner.values[cell as usize] = old;
                inner.cache.remove(&cell);
            });
            return Ok((old != 0).then_some(old));
        }
        if inner.free_cells.is_empty() {
            self.grow(&mut inner)?;
        }
        let e = self.new_entry(&key)?;
        e.write_ref(MapEntry::<K>::VALUE_OFF, Some(value));
        e.pwb();
        self.rt.set_valid_addr(value, true);
        e.validate();
        self.rt.pfence();
        self.publish(&mut inner, key, e, value);
        Ok(None)
    }

    /// Publish the fresh, validated entry `e` of `key` → `value` in a free
    /// cell: one write, fenced.
    fn publish(&self, inner: &mut Inner<K, M>, key: K, e: Proxy, value: u64) {
        let cell = inner.free_cells.pop().expect("grow guarantees a free cell");
        inner.array.set_ref(cell, Some(e.addr()));
        inner.array.pwb_cell(cell);
        self.rt.pfence();
        inner
            .array
            .proxy()
            .ordering_point("pmap-publish", 8 + cell * 8, 8);
        if self.mode != CacheMode::Base {
            inner.cache.insert(cell, Proxy::open(&self.rt, value));
        }
        if self.rt.in_fa() {
            let k = key.clone();
            self.on_abort(move |inner| {
                inner.mirror.remove(k.query());
                inner.vacate(cell);
            });
        }
        inner.occupy(key, cell, value);
    }

    /// Address of the value associated with `key`: from DRAM, no device
    /// read.
    pub fn get(&self, key: &K::Query) -> Option<u64> {
        let inner = self.inner.lock();
        inner.value(inner.mirror.get(key)?)
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
        let value = Proxy::open(&self.rt, inner.value(cell)?);
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
        let (key, cell) = inner.mirror.remove(key)?;
        let e = self.entry_at(cell, &inner.array);
        let value = inner.value(cell);
        // One write unpublishes the entry; fence before reclaiming.
        inner.array.set_ref(cell, None);
        inner.array.pwb_cell(cell);
        self.rt.pfence();
        self.rt.free_addr(e.addr());
        inner.vacate(cell);
        self.on_abort(move |inner| {
            if let Some(at) = inner.free_cells.iter().rposition(|c| *c == cell) {
                inner.free_cells.remove(at);
            }
            inner.occupy(key, cell, value.unwrap_or(0));
        });
        value
    }

    /// Iterate `(key, value address)` in mirror order.
    pub fn for_each(&self, mut f: impl FnMut(&K, u64)) {
        let inner = self.inner.lock();
        inner.mirror.for_each(&mut |k, cell| {
            if let Some(v) = inner.value(cell) {
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
        let e = self.new_entry(&key)?;
        e.write_ref(MapEntry::<K>::VALUE_OFF, Some(e.addr()));
        e.pwb();
        e.validate();
        self.rt.pfence();
        let value = e.addr();
        self.publish(&mut inner, key, e, value);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{register_jpdt, PBytes};
    use jnvm::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{Pmem, PmemConfig};
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Every `(key, value reference)` the media hold, walked from `map`'s
    /// master without its DRAM state — through the failure-atomic overlay,
    /// as the map's own accessors read.
    pub(crate) fn media_entries<K: PKey, M: Mirror<K>>(map: &PMapCore<K, M>) -> Vec<(K, u64)> {
        let arr_addr = map
            .master
            .read_ref(OFF_ARRAY)
            .expect("map always has storage");
        let array = PRefArray::resurrect(&map.rt, arr_addr);
        (0..array.len())
            .filter_map(|cell| array.get_ref(cell))
            .map(|entry| {
                let e = Proxy::open(&map.rt, entry);
                let key = K::read_key(&e, MapEntry::<K>::KEY_OFF);
                (key, e.read_u64(MapEntry::<K>::VALUE_OFF))
            })
            .collect()
    }

    /// What the map answers from DRAM: its length and every `(key, value)`
    /// `for_each` yields, sorted.
    pub(crate) fn dram_view<K: PKey + Debug, M: Mirror<K>>(
        map: &PMapCore<K, M>,
    ) -> (usize, Vec<(K, u64)>) {
        let mut pairs = Vec::new();
        map.for_each(|k, v| pairs.push((k.clone(), v)));
        pairs.sort();
        (map.len(), pairs)
    }

    /// Every DRAM answer of `map` — `len`, `for_each`, `contains`, `get`,
    /// `get_value` — agrees with a walk of its media array and entries.
    pub(crate) fn assert_dram_matches_media<K: PKey + Debug, M: Mirror<K>>(map: &PMapCore<K, M>) {
        let mut media = media_entries(map);
        media.sort();
        let (len, pairs) = dram_view(map);
        assert_eq!(len, media.len(), "len against the media walk");
        let live: Vec<(K, u64)> = media.iter().filter(|(_, v)| *v != 0).cloned().collect();
        assert_eq!(pairs, live, "for_each against the media walk");
        for (k, v) in &media {
            let want = (*v != 0).then_some(*v);
            assert!(map.contains(k.query()), "{k:?} on media, not in the mirror");
            assert_eq!(map.get(k.query()), want, "get({k:?})");
            assert_eq!(
                map.get_value(k.query()).map(|p| p.addr()),
                want,
                "get_value({k:?})"
            );
        }
    }

    fn fresh() -> Jnvm {
        let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
        register_jpdt(JnvmBuilder::new())
            .create(pmem, HeapConfig::default())
            .unwrap()
    }

    fn blob(rt: &Jnvm, tag: &str) -> u64 {
        PBytes::new(rt, tag.as_bytes()).unwrap().addr()
    }

    /// A Cached-mode map of the `n` keys `k0..`.
    fn filled(rt: &Jnvm, n: usize) -> PStringHashMap {
        let m = PStringHashMap::with_mode(rt, CacheMode::Cached).unwrap();
        for i in 0..n {
            m.put(format!("k{i}"), blob(rt, &format!("v{i}"))).unwrap();
        }
        m
    }

    /// Regression: a staged block's map changes reached the DRAM state at
    /// once, and nothing undid them when the block aborted — whether its
    /// `StagedTx` dropped uncommitted or its closure unwound. An aborted
    /// insert left a key whose cell never reached media (`get_value` then
    /// panicked "mirror cell holds an entry"), an aborted remove dropped a
    /// key that media still held, an aborted replace left the new value's
    /// reference, and an aborted growth left the map on an array the abort
    /// had freed. Now each answers what it did before the block, and the
    /// media walk agrees.
    #[test]
    fn an_aborted_block_leaves_the_map_as_it_found_it() {
        let rt = fresh();
        // 63 keys: one free cell left, so the second insert grows the map.
        let m = filled(&rt, 63);
        let before = dram_view(m.core());
        let blocks: [(&str, &dyn Fn()); 4] = [
            ("insert", &|| {
                m.put("new".into(), blob(&rt, "new")).unwrap();
            }),
            ("replace", &|| {
                m.put("k3".into(), blob(&rt, "k3, replaced")).unwrap();
                assert_ne!(
                    m.get("k3"),
                    before.1.iter().find(|(k, _)| k == "k3").map(|p| p.1)
                );
            }),
            ("remove", &|| {
                assert!(m.remove("k5").is_some());
                assert!(!m.contains("k5"));
            }),
            ("grow", &|| {
                m.put("new".into(), blob(&rt, "new")).unwrap();
                m.put("newer".into(), blob(&rt, "newer")).unwrap();
                assert!(m.remove("k0").is_some());
                assert_eq!(m.len(), 64);
            }),
        ];
        for (what, block) in blocks {
            drop(rt.fa_stage(block));
            assert_eq!(dram_view(m.core()), before, "{what}, StagedTx dropped");
            assert_dram_matches_media(m.core());
            let _hush = jnvm_pmem::hush_panics();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                rt.fa(|| {
                    block();
                    panic!("abort");
                })
            }));
            assert!(unwound.is_err());
            assert_eq!(dram_view(m.core()), before, "{what}, closure unwound");
            assert_dram_matches_media(m.core());
        }
        // The map still grows, and commits, after all of that.
        rt.fa(|| {
            m.put("new".into(), blob(&rt, "new")).unwrap();
            m.put("newer".into(), blob(&rt, "newer")).unwrap();
        });
        assert_eq!(m.len(), 65);
        assert_dram_matches_media(m.core());
    }

    /// Regression: a group commit took its blocks' undo lists out before
    /// its durability point, so a crash between the two left the map's
    /// DRAM holding a key whose cell never reached media — and on a
    /// crashed primary, a `GET` in the failover window served the staged
    /// record, of which media held nothing (0 fields). At every crash
    /// point of a staged insert, the map holds the key exactly when the
    /// commit passed its commit point.
    #[test]
    fn a_crashed_commit_leaves_the_map_as_its_durability_point_left_it() {
        use jnvm_pmem::{catch_crash, silence_crash_panics, FaultPlan};
        silence_crash_panics();
        let setup = || {
            let rt = fresh();
            let m = filled(&rt, 3);
            rt.pmem().psync();
            (rt, m)
        };
        let workload = |rt: &Jnvm, m: &PStringHashMap| {
            let (tx, ()) = rt.fa_stage(|| {
                m.put("new".into(), blob(rt, "new")).unwrap();
            });
            rt.fa_commit_group(vec![tx]);
        };
        let total = {
            let (rt, m) = setup();
            rt.pmem().arm_faults(FaultPlan::count());
            workload(&rt, &m);
            rt.pmem().disarm_faults()
        };
        for point in 0..total {
            let (rt, m) = setup();
            rt.pmem().arm_faults(FaultPlan::crash_at(point));
            assert!(catch_crash(|| workload(&rt, &m)).is_err(), "point {point}");
            rt.pmem().disarm_faults();
            let committed = jnvm::commit_phase().is_committed();
            assert_eq!(m.contains("new"), committed, "point {point}");
            assert_eq!(m.len(), 3 + usize::from(committed), "point {point}");
        }
    }

    /// What one doubling of the cell array moves on the device, 64 → 128
    /// cells outside a block: 7 reads / 544 B (the 64 old cells in one
    /// read per block they span, and headers), 1 096 B written — the new
    /// array's length word and 128 cells stored once (1 032 B over a
    /// 5-block chain), its 5 block headers, its validation, the master's
    /// reference and the old array's invalidation —, 23 `pwb`s (20 of them
    /// the new array's lines, once) and 2 fences. It was 69 reads / 552 B,
    /// 1 616 B written and 44 `pwb`s while the old cells were read one by
    /// one, the 128 null cells were stored and then the 64 copied ones over
    /// them, the array's lines were written back twice and it was validated
    /// twice.
    #[test]
    fn one_doubling_device_cost_is_pinned() {
        let rt = fresh();
        let m = filled(&rt, 64);
        let before = rt.pmem().stats();
        m.core().grow(&mut m.core().inner.lock()).unwrap();
        let d = rt.pmem().stats().delta(&before);
        let got = (d.reads, d.bytes_read, d.bytes_written, d.pwbs, d.pfences);
        println!("device-cost | doubling 64 -> 128 cells | {got:?}");
        assert_eq!(
            got,
            (7, 544, 1_096, 23, 2),
            "reads, bytes read, bytes written, pwbs, fences"
        );
        assert_eq!(m.core().inner.lock().array.len(), 128);
        assert_dram_matches_media(m.core());
    }
}
