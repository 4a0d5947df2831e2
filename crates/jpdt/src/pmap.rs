//! Persistent maps and sets (§4.3.2).
//!
//! The persistent content of a map is an extensible [`PRefArray`] whose
//! cells reference *entry* objects (`[value ref][key ...]`). The logic —
//! key lookup — lives in DRAM, rebuilt at resurrection: an [`Index`]
//! mapping keys to cells (a compact [`HashIndex`], a `BTreeMap` or a
//! [`SkipListMap`]), and [`Cells`], which keeps per cell the value
//! reference of the cell's entry and threads the free cells, so a lookup
//! reads nothing from NVMM. A value reference is opaque to the
//! map: the holder's word, which may carry a tag above
//! [`jnvm_heap::REF_ADDR_MASK`] (a kvstore record's carries its field
//! count); the map masks it wherever it needs the address. Every mutation
//! of the persistent state is one reference write, so the map is
//! consistent at any instant without failure-atomic blocks.
//!
//! Three caching variants trade memory for resurrection cost (§4.3.2):
//! [`CacheMode::Base`] allocates a fresh value proxy per lookup,
//! [`CacheMode::Cached`] fills a proxy cache on demand, and
//! [`CacheMode::Eager`] populates it during resurrection.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;

use jnvm::{Jnvm, JnvmError, PObject, Proxy};
use jnvm_heap::REF_ADDR_MASK;

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
    type Query: ?Sized + Eq + Hash + Ord + ToOwned<Owned = Self>;

    /// This key in its lookup form.
    fn query(&self) -> &Self::Query;
    /// Bytes this key takes inside an entry.
    fn key_bytes(&self) -> u64;
    /// Class name under which this key's entry class is registered.
    const ENTRY_CLASS_NAME: &'static str;
    /// Class name under which the set of this key is registered.
    const SET_CLASS_NAME: &'static str;

    /// Store the key into the fresh entry `e` at payload offset `off`.
    fn write_key(&self, e: &Proxy, off: u64);
    /// Read the key back from entry `e`.
    fn read_key(e: &Proxy, off: u64) -> Self;

    /// Run `f` over the bytes a [`HashIndex`] keeps of the key `q`.
    fn with_index_bytes<R>(q: &Self::Query, f: impl FnOnce(&[u8]) -> R) -> R;
    /// Run `f` over the key whose index bytes are `bytes`.
    fn with_indexed<R>(bytes: &[u8], f: impl FnOnce(&Self::Query) -> R) -> R;
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
    const SET_CLASS_NAME: &'static str = "jnvm_jpdt.PStringSet";

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

    fn with_index_bytes<R>(q: &str, f: impl FnOnce(&[u8]) -> R) -> R {
        f(q.as_bytes())
    }

    fn with_indexed<R>(bytes: &[u8], f: impl FnOnce(&str) -> R) -> R {
        f(std::str::from_utf8(bytes).expect("an index keeps a str's bytes"))
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
    const SET_CLASS_NAME: &'static str = "jnvm_jpdt.PI64Set";

    fn write_key(&self, e: &Proxy, off: u64) {
        e.write_i64(off, *self);
    }

    fn read_key(e: &Proxy, off: u64) -> Self {
        e.read_i64(off)
    }

    fn with_index_bytes<R>(q: &i64, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&q.to_le_bytes())
    }

    fn with_indexed<R>(bytes: &[u8], f: impl FnOnce(&i64) -> R) -> R {
        f(&i64::from_le_bytes(
            bytes.try_into().expect("an index keeps 8 bytes of an i64"),
        ))
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
// The volatile state: one record per cell, and a key index.
// ----------------------------------------------------------------------

/// No cell: a vacant slot, the end of the free list.
const NONE: u32 = u32::MAX;

/// A cell's record: the value reference its entry holds on media (0 for a
/// free cell, or for one whose value recovery nullified), and a word that
/// links the next free cell of a free cell and belongs to the [`Index`] for
/// an occupied one. Packed to 12 bytes, since a map has up to twice as many
/// cells as keys.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Rec {
    value: u64,
    link: u32,
}

const FREE_REC: Rec = Rec {
    value: 0,
    link: NONE,
};

/// The volatile state of a map's cells (§4.3.2): one 12-byte record per
/// cell, holding the value word and a `u32` that threads the free cells
/// through their records. Together with the
/// map's [`Index`] it answers every lookup, and reads no NVMM.
pub struct Cells {
    recs: Vec<Rec>,
    /// Head of the free cells, the one the next insert takes.
    free: u32,
}

impl Cells {
    /// `cells` cells and an index of their keys, where `entry(cell)` is
    /// the key and value cell `cell` holds, `None` for a free cell; asked
    /// in ascending cell order. Free cells are taken lowest first.
    pub(crate) fn build<K: PKey, I: Index<K>>(
        cells: u64,
        mut entry: impl FnMut(u64) -> Option<(K, u64)>,
    ) -> (Cells, I) {
        let cells = u32::try_from(cells).expect("a map has fewer than 2^32 cells");
        // The index's small table before the records' large block: the
        // other order measured 0.2 MiB more peak RSS on the benchmark's
        // YCSB workloads.
        let mut index = I::default();
        let mut store = Cells {
            recs: vec![FREE_REC; cells as usize],
            free: NONE,
        };
        let mut tail = NONE;
        for cell in 0..cells {
            match entry(u64::from(cell)) {
                Some((key, value)) => {
                    store.recs[cell as usize].value = value;
                    index.insert(&mut store, key, cell);
                }
                None if tail == NONE => (store.free, tail) = (cell, cell),
                None => (store.recs[tail as usize].link, tail) = (cell, cell),
            }
        }
        (store, index)
    }

    /// Add free cells up to `cells`, to be taken lowest first and before
    /// any older free cell.
    pub(crate) fn grow(&mut self, cells: u64) {
        let cells = u32::try_from(cells).expect("a map has fewer than 2^32 cells");
        let old = self.recs.len() as u32;
        self.recs.resize(cells as usize, FREE_REC);
        for cell in (old..cells).rev() {
            self.push_free(cell);
        }
    }

    /// Undo the latest [`Cells::grow`], to `cells`: its cells, free, are
    /// the next ones to be taken (a block's undos run newest first).
    pub(crate) fn shrink(&mut self, cells: u64) {
        while self.free != NONE && u64::from(self.free) >= cells {
            self.free = self.recs[self.free as usize].link;
        }
        self.recs.truncate(cells as usize);
    }

    /// The free cell the next insert takes.
    pub(crate) fn free_cell(&self) -> Option<u32> {
        (self.free != NONE).then_some(self.free)
    }

    /// The value reference of cell `cell`; `None` for a free cell or a
    /// nullified value.
    pub(crate) fn value(&self, cell: u32) -> Option<u64> {
        let value = self.recs[cell as usize].value;
        (value != 0).then_some(value)
    }

    /// Set cell `cell`'s value word, returning the one it replaces.
    pub(crate) fn set_value(&mut self, cell: u32, value: u64) -> u64 {
        let rec = &mut self.recs[cell as usize];
        let old = rec.value;
        rec.value = value;
        old
    }

    /// Map `key` to `value` in the free cell `cell`. A key already present
    /// leaves its old cell, which is freed and returned.
    pub(crate) fn insert<K: PKey>(
        &mut self,
        index: &mut impl Index<K>,
        key: K,
        cell: u32,
        value: u64,
    ) -> Option<u32> {
        self.take(cell);
        self.recs[cell as usize].value = value;
        let old = index.insert(self, key, cell)?;
        self.push_free(old);
        Some(old)
    }

    /// Remove `key` and free its cell: returns the cell and its value word.
    pub(crate) fn remove<K: PKey>(
        &mut self,
        index: &mut impl Index<K>,
        key: &K::Query,
    ) -> Option<(u32, u64)> {
        let cell = index.remove(self, key)?;
        Some((cell, self.push_free(cell)))
    }

    /// Remove the key cell `cell` holds, and free the cell.
    pub(crate) fn remove_cell<K: PKey>(&mut self, index: &mut impl Index<K>, cell: u32) {
        index.remove_cell(self, cell);
        self.push_free(cell);
    }

    /// Put cell `cell` on the free list; returns its value word.
    fn push_free(&mut self, cell: u32) -> u64 {
        let rec = &mut self.recs[cell as usize];
        rec.link = std::mem::replace(&mut self.free, cell);
        let value = rec.value;
        rec.value = 0;
        value
    }

    /// Take cell `cell` off the free list: its head, unless the blocks of
    /// one map aborted out of order.
    fn take(&mut self, cell: u32) {
        let next = self.recs[cell as usize].link;
        if self.free == cell {
            self.free = next;
            return;
        }
        let mut at = self.free;
        while at != NONE {
            let rec = &mut self.recs[at as usize];
            if rec.link == cell {
                rec.link = next;
                return;
            }
            at = rec.link;
        }
        panic!("cell {cell} is not free");
    }

    /// The index's word of occupied cell `cell`.
    fn link(&self, cell: u32) -> u32 {
        self.recs[cell as usize].link
    }

    fn set_link(&mut self, cell: u32, link: u32) {
        self.recs[cell as usize].link = link;
    }
}

/// A map's volatile key → cell index (§4.3.2), rebuilt at resurrection
/// from the entries the scan reads. [`Cells`] keeps the rest; an index may
/// keep a word in each occupied cell's record.
pub trait Index<K: PKey>: Default + Send + 'static {
    /// Map `key` to the occupied cell `cell`. A key already present leaves
    /// its old cell, which is returned.
    fn insert(&mut self, cells: &mut Cells, key: K, cell: u32) -> Option<u32>;
    /// Cell of `key`, if present.
    fn get(&self, cells: &Cells, key: &K::Query) -> Option<u32>;
    /// Remove `key`, returning its cell.
    fn remove(&mut self, cells: &mut Cells, key: &K::Query) -> Option<u32>;
    /// Remove the key cell `cell` holds.
    fn remove_cell(&mut self, cells: &mut Cells, cell: u32);
    /// Number of keys.
    fn len(&self) -> usize;
    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Visit every `(key, cell)`, in index order.
    fn for_each(&self, cells: &Cells, f: &mut dyn FnMut(&K::Query, u32));
}

/// A [`HashIndex`] table slot: 32 bits of the key's hash, whose low bits
/// place it and whose whole is its tag, and the cell holding the key.
#[derive(Clone, Copy)]
struct Slot {
    tag: u32,
    cell: u32,
}

const VACANT: Slot = Slot { tag: 0, cell: NONE };

/// A slab entry's length byte that says a `u32` length follows.
const LONG_KEY: u8 = u8::MAX;

/// A slab compacts once half of it is garbage, and at least this much.
const SLAB_FLOOR: usize = 1024;

/// The key bytes of the slab entry at the head of `slab`, and the bytes
/// the entry takes: a length byte (or [`LONG_KEY`] and a `u32`), then the
/// key.
fn slab_key(slab: &[u8]) -> (&[u8], usize) {
    match slab[0] {
        LONG_KEY => {
            let len = u32::from_le_bytes(slab[1..5].try_into().unwrap()) as usize;
            (&slab[5..5 + len], 5 + len)
        }
        len => (&slab[1..1 + len as usize], 1 + len as usize),
    }
}

/// Hash index — the persistent `HashMap` analogue. An open-addressed,
/// linearly probed table of `(tag, cell)` slots, at most 3/4 full, whose
/// probe compares key bytes only on a tag match; the keys' bytes in one
/// per-map slab, each occupied cell's record holding its key's offset. No
/// key is a heap object of its own. Keys may come from outside the
/// program, so `S` is seeded per map, as a std `HashMap`'s is (tests
/// substitute a colliding one).
pub struct HashIndex<K, S = RandomState> {
    slots: Vec<Slot>,
    slab: Vec<u8>,
    /// Slab bytes no key references.
    garbage: usize,
    len: usize,
    hasher: S,
    _k: PhantomData<fn() -> K>,
}

impl<K, S: Default> Default for HashIndex<K, S> {
    fn default() -> Self {
        HashIndex {
            slots: vec![VACANT; 8],
            slab: Vec::new(),
            garbage: 0,
            len: 0,
            hasher: S::default(),
            _k: PhantomData,
        }
    }
}

impl<K, S: BuildHasher> HashIndex<K, S> {
    /// The tag of the key `bytes`: the low 32 bits of its hash.
    fn tag(&self, bytes: &[u8]) -> u32 {
        self.hasher.hash_one(bytes) as u32
    }

    /// The key bytes of occupied cell `cell`.
    fn key<'a>(&'a self, cells: &Cells, cell: u32) -> &'a [u8] {
        slab_key(&self.slab[cells.link(cell) as usize..]).0
    }

    /// The slot holding the key `bytes`, whose hash is `tag`; else the
    /// vacant slot that ends its probe run. Every `GET` runs it: inlined,
    /// since a map's methods are compiled in each crate that calls them,
    /// and there an out-of-line probe cost `ycsb_c` ≈3 % of its `GET`s/s.
    #[inline]
    fn probe(&self, cells: &Cells, bytes: &[u8], tag: u32) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.cell == NONE {
                return Err(i);
            }
            if slot.tag == tag && self.key(cells, slot.cell) == bytes {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Index `bytes` in cell `cell`; returns the cell the key leaves, if
    /// it was present.
    fn place(&mut self, cells: &mut Cells, bytes: &[u8], cell: u32) -> Option<u32> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.double_table();
        }
        let tag = self.tag(bytes);
        match self.probe(cells, bytes, tag) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.slots[i].cell, cell);
                cells.set_link(cell, cells.link(old));
                Some(old)
            }
            Err(i) => {
                let at = self.push_key(bytes);
                cells.set_link(cell, at);
                self.slots[i] = Slot { tag, cell };
                self.len += 1;
                None
            }
        }
    }

    fn double_table(&mut self) {
        let size = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![VACANT; size]);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.cell != NONE) {
            let mut i = slot.tag as usize & mask;
            while self.slots[i].cell != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Empty slot `hole`, whose key cell `cell` holds, shifting back the
    /// entries of its probe run that may move into it, so no probe needs a
    /// tombstone; the key's slab bytes become garbage.
    fn delete_slot(&mut self, cells: &mut Cells, mut hole: usize) {
        let cell = self.slots[hole].cell;
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot.cell == NONE {
                break;
            }
            let home = slot.tag as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
        self.garbage += slab_key(&self.slab[cells.link(cell) as usize..]).1;
        if self.garbage >= SLAB_FLOOR && 2 * self.garbage >= self.slab.len() {
            self.compact(cells);
        }
    }

    /// Append `bytes` to the slab, which grows by a quarter at a time;
    /// returns their entry's offset.
    fn push_key(&mut self, bytes: &[u8]) -> u32 {
        let at = self.slab.len();
        let long = bytes.len() >= LONG_KEY as usize;
        let need = bytes.len() + if long { 5 } else { 1 };
        if self.slab.capacity() - at < need {
            self.slab.reserve_exact(need.max(at / 4).max(64));
        }
        if long {
            self.slab.push(LONG_KEY);
            let len = u32::try_from(bytes.len()).expect("a key is shorter than 4 GiB");
            self.slab.extend_from_slice(&len.to_le_bytes());
        } else {
            self.slab.push(bytes.len() as u8);
        }
        self.slab.extend_from_slice(bytes);
        u32::try_from(at).expect("a map's key slab stays below 4 GiB")
    }

    /// Copy the live keys to a fresh slab, in table order.
    fn compact(&mut self, cells: &mut Cells) {
        let live = self.slab.len() - self.garbage;
        let mut slab = Vec::with_capacity(live + live / 4);
        for slot in self.slots.iter().filter(|s| s.cell != NONE) {
            let at = cells.link(slot.cell) as usize;
            let size = slab_key(&self.slab[at..]).1;
            cells.set_link(slot.cell, slab.len() as u32);
            slab.extend_from_slice(&self.slab[at..at + size]);
        }
        self.slab = slab;
        self.garbage = 0;
    }

    /// Bytes the slab holds, garbage included.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.slab.len()
    }
}

impl<K: PKey, S: BuildHasher + Default + Send + 'static> Index<K> for HashIndex<K, S> {
    fn insert(&mut self, cells: &mut Cells, key: K, cell: u32) -> Option<u32> {
        K::with_index_bytes(key.query(), |b| self.place(cells, b, cell))
    }

    fn get(&self, cells: &Cells, key: &K::Query) -> Option<u32> {
        let i = K::with_index_bytes(key, |b| self.probe(cells, b, self.tag(b)).ok())?;
        Some(self.slots[i].cell)
    }

    fn remove(&mut self, cells: &mut Cells, key: &K::Query) -> Option<u32> {
        let i = K::with_index_bytes(key, |b| self.probe(cells, b, self.tag(b)).ok())?;
        let cell = self.slots[i].cell;
        self.delete_slot(cells, i);
        Some(cell)
    }

    fn remove_cell(&mut self, cells: &mut Cells, cell: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.tag(self.key(cells, cell)) as usize & mask;
        while self.slots[i].cell != cell {
            assert_ne!(self.slots[i].cell, NONE, "cell {cell} holds no key");
            i = (i + 1) & mask;
        }
        self.delete_slot(cells, i);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn for_each(&self, cells: &Cells, f: &mut dyn FnMut(&K::Query, u32)) {
        for slot in self.slots.iter().filter(|s| s.cell != NONE) {
            K::with_indexed(self.key(cells, slot.cell), |k| f(k, slot.cell));
        }
    }
}

/// Red-black-tree index — the persistent `TreeMap` analogue.
impl<K: PKey + Borrow<K::Query>> Index<K> for BTreeMap<K, u32> {
    fn insert(&mut self, _: &mut Cells, key: K, cell: u32) -> Option<u32> {
        BTreeMap::insert(self, key, cell)
    }

    fn get(&self, _: &Cells, key: &K::Query) -> Option<u32> {
        BTreeMap::get(self, key).copied()
    }

    fn remove(&mut self, _: &mut Cells, key: &K::Query) -> Option<u32> {
        BTreeMap::remove(self, key)
    }

    /// A walk of the tree, which holds no cell → key map: only an aborted
    /// insert comes here.
    fn remove_cell(&mut self, _: &mut Cells, cell: u32) {
        self.retain(|_, c| *c != cell);
    }

    fn len(&self) -> usize {
        BTreeMap::len(self)
    }

    fn for_each(&self, _: &Cells, f: &mut dyn FnMut(&K::Query, u32)) {
        for (k, c) in self {
            f(k.query(), *c);
        }
    }
}

/// Skip-list index — the persistent `ConcurrentSkipListMap` analogue.
impl<K: PKey + Borrow<K::Query>> Index<K> for SkipListMap<K, u32> {
    fn insert(&mut self, _: &mut Cells, key: K, cell: u32) -> Option<u32> {
        SkipListMap::insert(self, key, cell)
    }

    fn get(&self, _: &Cells, key: &K::Query) -> Option<u32> {
        SkipListMap::get(self, key).copied()
    }

    fn remove(&mut self, _: &mut Cells, key: &K::Query) -> Option<u32> {
        self.remove_cloned(key).map(|(_, c)| c)
    }

    /// A walk of the list, which holds no cell → key map: only an aborted
    /// insert comes here.
    fn remove_cell(&mut self, _: &mut Cells, cell: u32) {
        let mut key = None;
        SkipListMap::for_each(self, |k, c| {
            if *c == cell {
                key = Some(k.clone());
            }
        });
        SkipListMap::remove(self, key.expect("the cell holds a key").borrow());
    }

    fn len(&self) -> usize {
        SkipListMap::len(self)
    }

    fn for_each(&self, _: &Cells, f: &mut dyn FnMut(&K::Query, u32)) {
        SkipListMap::for_each(self, |k, c| f(k.query(), *c));
    }
}

// ----------------------------------------------------------------------
// The map.
// ----------------------------------------------------------------------

struct Inner<K: PKey, I: Index<K>> {
    array: PRefArray,
    cells: Cells,
    index: I,
    /// cell -> value proxy (Cached/Eager modes).
    cache: HashMap<u32, Proxy>,
    _k: PhantomData<fn() -> K>,
}

/// A persistent map keyed by `K` whose keys the index `I` looks up. Each
/// named map ([`PStringHashMap`] etc.) is one `K` and `I`, with a
/// persistent class name of its own.
///
/// The DRAM state — cells, index, proxy cache — changes with the media
/// state it describes. Inside a failure-atomic block the media change is
/// staged, so each DRAM change registers its inverse with
/// [`jnvm::JnvmRuntime::on_abort`]: an aborted block leaves the map as
/// the block found it. Two staged blocks that change one map must abort
/// newest first, so a group should hold at most one of them (the
/// kvstore's group former puts at most one structural op per map in a
/// group).
pub struct PMapCore<K: PKey, I: Index<K>> {
    rt: Jnvm,
    master: Proxy, // payload: [array ref u64]
    mode: CacheMode,
    inner: Arc<Mutex<Inner<K, I>>>,
}

const OFF_ARRAY: u64 = 0;
const INITIAL_CAPACITY: u64 = 64;

impl<K: PKey, I: Index<K>> PMapCore<K, I> {
    /// Create an empty map (Base caching mode).
    pub fn new(rt: &Jnvm) -> Result<Self, JnvmError>
    where
        Self: PObject,
    {
        Self::with_mode(rt, CacheMode::Base)
    }

    /// Create an empty map with an explicit caching mode.
    pub fn with_mode(rt: &Jnvm, mode: CacheMode) -> Result<Self, JnvmError>
    where
        Self: PObject,
    {
        Self::create(rt, rt.registry().id_of::<Self>()?, mode)
    }

    /// Allocate a fresh persistent map with the class id `class_id`.
    fn create(rt: &Jnvm, class_id: u16, mode: CacheMode) -> Result<Self, JnvmError> {
        let array = PRefArray::new(rt, INITIAL_CAPACITY)?;
        let master = Proxy::try_alloc(rt, class_id, 8)?;
        master.write_ref(OFF_ARRAY, Some(array.addr()));
        master.pwb();
        master.validate();
        rt.pfence();
        let built = Cells::build(INITIAL_CAPACITY, |_| None);
        Ok(PMapCore::from_parts(
            rt,
            master,
            mode,
            array,
            built,
            HashMap::new(),
        ))
    }

    fn from_parts(
        rt: &Jnvm,
        master: Proxy,
        mode: CacheMode,
        array: PRefArray,
        (cells, index): (Cells, I),
        cache: HashMap<u32, Proxy>,
    ) -> Self {
        let inner = Inner {
            array,
            cells,
            index,
            cache,
            _k: PhantomData,
        };
        PMapCore {
            rt: rt.clone(),
            master,
            mode,
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Resurrect the map at `addr` with an explicit caching mode (the
    /// plain [`PObject::resurrect`] uses Base): rebuild the volatile state
    /// (and, in [`CacheMode::Eager`], the proxy cache) from the entries a
    /// scan of the persistent array reads (§4.3.2). Recovery has run: a
    /// value reference its GC nullified reads 0 here.
    pub fn open_with_mode(rt: &Jnvm, addr: u64, mode: CacheMode) -> Self {
        let master = Proxy::open(rt, addr);
        let arr_addr = master.read_ref(OFF_ARRAY).expect("map always has storage");
        let array = PRefArray::resurrect(rt, arr_addr);
        let mut cache = HashMap::new();
        let built = Cells::build(array.len(), |cell| {
            let e = Proxy::open(rt, array.get_ref(cell)?);
            let key = K::read_key(&e, MapEntry::<K>::KEY_OFF);
            let value = e.read_ref(MapEntry::<K>::VALUE_OFF).unwrap_or(0);
            if value != 0 && mode == CacheMode::Eager {
                cache.insert(cell as u32, Proxy::open(rt, value & REF_ADDR_MASK));
            }
            Some((key, value))
        });
        PMapCore::from_parts(rt, master, mode, array, built, cache)
    }

    /// The map's persistent address.
    pub fn addr(&self) -> u64 {
        self.master.addr()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inside a failure-atomic block, have an abort of the block run `undo`
    /// over this map's DRAM state (see the type's doc).
    fn on_abort(&self, undo: impl FnOnce(&mut Inner<K, I>) + Send + 'static) {
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
    fn entry_at(&self, cell: u32, array: &PRefArray) -> Proxy {
        let addr = array
            .get_ref(u64::from(cell))
            .expect("index cell holds an entry");
        Proxy::open(&self.rt, addr)
    }

    /// Double the cell array in place ([`PRefArray::grow`]): the index
    /// hashes or orders keys, so no cell moves and the master's reference
    /// never changes. Returns the first new cell, the free cell the next
    /// insert takes. An abort puts back the DRAM length and the free
    /// cells; the blocks the growth linked stay in the chain for the next
    /// one.
    fn grow(&self, inner: &mut Inner<K, I>) -> Result<u32, JnvmError> {
        let old_cap = inner.array.len();
        inner.array.grow(old_cap * 2)?;
        inner.cells.grow(old_cap * 2);
        self.on_abort(move |inner| {
            inner.array.len = old_cap;
            inner.cells.shrink(old_cap);
        });
        Ok(old_cap as u32)
    }

    /// Insert or update: associate `key` with the persistent object
    /// `value` references. Returns the previous value reference if the key
    /// existed (ownership of the old object passes back to the caller —
    /// deletion is explicit in J-NVM).
    pub fn put(&self, key: K, value: u64) -> Result<Option<u64>, JnvmError> {
        let mut inner = self.inner.lock();
        let Some(cell) = inner.index.get(&inner.cells, key.query()) else {
            self.put_new(&mut inner, key, Some(value))?;
            return Ok(None);
        };
        let e = self.entry_at(cell, &inner.array);
        // Atomic update: validate new value, fence, store, flush.
        self.rt.set_valid_addr(value & REF_ADDR_MASK, true);
        self.rt.pfence();
        e.write_ref(MapEntry::<K>::VALUE_OFF, Some(value));
        let old = inner.cells.set_value(cell, value);
        e.pwb_field(MapEntry::<K>::VALUE_OFF, 8);
        self.rt.pfence();
        e.ordering_point("pmap-publish", MapEntry::<K>::VALUE_OFF, 8);
        if self.mode != CacheMode::Base {
            inner
                .cache
                .insert(cell, Proxy::open(&self.rt, value & REF_ADDR_MASK));
        }
        self.on_abort(move |inner| {
            inner.cells.set_value(cell, old);
            inner.cache.remove(&cell);
        });
        Ok((old != 0).then_some(old))
    }

    /// Publish a fresh entry of the new key `key` in a free cell, growing
    /// the array when none is: the entry's value reference is `value`, or
    /// the entry itself for a set's. One reference write, fenced.
    fn put_new(
        &self,
        inner: &mut Inner<K, I>,
        key: K,
        value: Option<u64>,
    ) -> Result<(), JnvmError> {
        let cell = match inner.cells.free_cell() {
            Some(cell) => cell,
            None => self.grow(inner)?,
        };
        let e = self.new_entry(&key)?;
        let reference = value.unwrap_or(e.addr());
        e.write_ref(MapEntry::<K>::VALUE_OFF, Some(reference));
        e.pwb();
        if let Some(v) = value {
            self.rt.set_valid_addr(v & REF_ADDR_MASK, true);
        }
        e.validate();
        self.rt.pfence();
        inner.array.set_ref(u64::from(cell), Some(e.addr()));
        inner.array.pwb_cell(u64::from(cell));
        self.rt.pfence();
        inner
            .array
            .proxy()
            .ordering_point("pmap-publish", 8 + u64::from(cell) * 8, 8);
        if self.mode != CacheMode::Base {
            inner
                .cache
                .insert(cell, Proxy::open(&self.rt, reference & REF_ADDR_MASK));
        }
        let displaced = inner.cells.insert(&mut inner.index, key, cell, reference);
        debug_assert!(displaced.is_none(), "a published key is new");
        self.on_abort(move |inner| {
            inner.cells.remove_cell(&mut inner.index, cell);
            inner.cache.remove(&cell);
        });
        Ok(())
    }

    /// The value reference associated with `key`, tag and all: from DRAM,
    /// no device read.
    pub fn get(&self, key: &K::Query) -> Option<u64> {
        let inner = self.inner.lock();
        inner.cells.value(inner.index.get(&inner.cells, key)?)
    }

    /// Value proxy for `key`, honouring the caching mode: `Base`
    /// resurrects a fresh proxy, `Cached` fills the cache on miss,
    /// `Eager` normally hits the resurrection-time cache.
    pub fn get_value(&self, key: &K::Query) -> Option<Proxy> {
        let mut inner = self.inner.lock();
        let cell = inner.index.get(&inner.cells, key)?;
        if self.mode != CacheMode::Base {
            if let Some(p) = inner.cache.get(&cell) {
                return Some(p.clone());
            }
        }
        let value = Proxy::open(&self.rt, inner.cells.value(cell)? & REF_ADDR_MASK);
        if self.mode != CacheMode::Base {
            inner.cache.insert(cell, value.clone());
        }
        Some(value)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K::Query) -> bool {
        let inner = self.inner.lock();
        inner.index.get(&inner.cells, key).is_some()
    }

    /// Remove `key`. Returns the value reference (ownership passes to the
    /// caller); the entry, which holds the key, is freed.
    pub fn remove(&self, key: &K::Query) -> Option<u64> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let (cell, value) = inner.cells.remove(&mut inner.index, key)?;
        let e = self.entry_at(cell, &inner.array);
        // One write unpublishes the entry; fence before reclaiming.
        inner.array.set_ref(u64::from(cell), None);
        inner.array.pwb_cell(u64::from(cell));
        self.rt.pfence();
        self.rt.free_addr(e.addr());
        inner.cache.remove(&cell);
        if self.rt.in_fa() {
            let key = key.to_owned();
            self.on_abort(move |inner| {
                inner.cells.insert(&mut inner.index, key, cell, value);
            });
        }
        (value != 0).then_some(value)
    }

    /// Iterate `(key, value reference)` in index order.
    pub fn for_each(&self, mut f: impl FnMut(&K::Query, u64)) {
        let inner = self.inner.lock();
        inner.index.for_each(&inner.cells, &mut |k, cell| {
            if let Some(v) = inner.cells.value(cell) {
                f(k, v);
            }
        });
    }

    /// Keys in index order (ordered for tree/skip maps), up to `limit`.
    pub fn keys(&self, limit: usize) -> Vec<K> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        inner.index.for_each(&inner.cells, &mut |k, _| {
            if out.len() < limit {
                out.push(k.to_owned());
            }
        });
        out
    }

    /// Set-style insert: the entry's value references the entry itself
    /// ("a persistent map that associates each key with itself", §4.3.2).
    /// Returns true if the key was newly inserted.
    pub fn insert_self(&self, key: K) -> Result<bool, JnvmError> {
        let mut inner = self.inner.lock();
        if inner.index.get(&inner.cells, key.query()).is_some() {
            return Ok(false);
        }
        self.put_new(&mut inner, key, None)?;
        Ok(true)
    }
}

// ----------------------------------------------------------------------
// Named maps and sets (each a persistent class of its own).
// ----------------------------------------------------------------------

macro_rules! define_pmaps {
    ($($(#[$meta:meta])* $name:ident = $key:ty, $index:ty, $class:literal;)*) => {$(
        $(#[$meta])*
        pub type $name = PMapCore<$key, $index>;

        impl PObject for $name {
            const CLASS_NAME: &'static str = $class;
            const REF_OFFSETS: &'static [u64] = &[0];

            fn resurrect(rt: &Jnvm, addr: u64) -> Self {
                Self::open_with_mode(rt, addr, CacheMode::Base)
            }

            fn addr(&self) -> u64 {
                self.master.addr()
            }
        }
    )*};
}

define_pmaps! {
    /// Persistent hash map keyed by strings (the drop-in for
    /// `java.util.HashMap` in Figure 12).
    PStringHashMap = String, HashIndex<String>, "jnvm_jpdt.PStringHashMap";
    /// Persistent ordered map keyed by strings (red-black index, the
    /// `java.util.TreeMap` drop-in).
    PStringTreeMap = String, BTreeMap<String, u32>, "jnvm_jpdt.PStringTreeMap";
    /// Persistent skip-list map keyed by strings (the
    /// `ConcurrentSkipListMap` drop-in).
    PStringSkipMap = String, SkipListMap<String, u32>, "jnvm_jpdt.PStringSkipMap";
    /// Persistent hash map keyed by `i64`.
    PI64HashMap = i64, HashIndex<i64>, "jnvm_jpdt.PI64HashMap";
    /// Persistent ordered map keyed by `i64`.
    PI64TreeMap = i64, BTreeMap<i64, u32>, "jnvm_jpdt.PI64TreeMap";
    /// Persistent skip-list map keyed by `i64`.
    PI64SkipMap = i64, SkipListMap<i64, u32>, "jnvm_jpdt.PI64SkipMap";
}

/// A persistent set: a hash map that associates each key with its entry
/// ("a persistent map that associates each key with itself", §4.3.2),
/// under a class of its own and with a set's narrower API.
pub struct PSet<K: PKey> {
    core: PMapCore<K, HashIndex<K>>,
}

/// Persistent set of strings.
pub type PStringSet = PSet<String>;

/// Persistent set of `i64`.
pub type PI64Set = PSet<i64>;

impl<K: PKey> PSet<K> {
    /// Create an empty set.
    pub fn new(rt: &Jnvm) -> Result<Self, JnvmError> {
        let core = PMapCore::create(rt, rt.registry().id_of::<Self>()?, CacheMode::Base)?;
        Ok(PSet { core })
    }

    /// Insert `key`; returns true if newly inserted.
    pub fn insert(&self, key: K) -> Result<bool, JnvmError> {
        self.core.insert_self(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K::Query) -> bool {
        self.core.contains(key)
    }

    /// Remove `key`; returns true if it was present.
    pub fn remove(&self, key: &K::Query) -> bool {
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
    pub fn keys(&self, limit: usize) -> Vec<K> {
        self.core.keys(limit)
    }
}

impl<K: PKey> PObject for PSet<K> {
    const CLASS_NAME: &'static str = K::SET_CLASS_NAME;
    const REF_OFFSETS: &'static [u64] = &[0];

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        PSet {
            core: PMapCore::open_with_mode(rt, addr, CacheMode::Base),
        }
    }

    fn addr(&self) -> u64 {
        self.core.addr()
    }
}

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
    pub(crate) fn media_entries<K: PKey, I: Index<K>>(map: &PMapCore<K, I>) -> Vec<(K, u64)> {
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
    pub(crate) fn dram_view<K: PKey + Debug, I: Index<K>>(
        map: &PMapCore<K, I>,
    ) -> (usize, Vec<(K, u64)>) {
        let mut pairs = Vec::new();
        map.for_each(|k, v| pairs.push((k.to_owned(), v)));
        pairs.sort();
        (map.len(), pairs)
    }

    /// Every DRAM answer of `map` — `len`, `for_each`, `contains`, `get`,
    /// `get_value` — agrees with a walk of its media array and entries.
    pub(crate) fn assert_dram_matches_media<K: PKey + Debug, I: Index<K>>(map: &PMapCore<K, I>) {
        let mut media = media_entries(map);
        media.sort();
        let (len, pairs) = dram_view(map);
        assert_eq!(len, media.len(), "len against the media walk");
        let live: Vec<(K, u64)> = media.iter().filter(|(_, v)| *v != 0).cloned().collect();
        assert_eq!(pairs, live, "for_each against the media walk");
        for (k, v) in &media {
            let want = (*v != 0).then_some(*v);
            assert!(map.contains(k.query()), "{k:?} on media, not in the index");
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
    /// panicked "index cell holds an entry"), an aborted remove dropped a
    /// key that media still held, an aborted replace left the new value's
    /// reference, and an aborted growth left the map on an array the abort
    /// had freed. Now each answers what it did before the block, and the
    /// media walk agrees.
    #[test]
    fn an_aborted_block_leaves_the_map_as_it_found_it() {
        let rt = fresh();
        // 63 keys: one free cell left, so the second insert grows the map.
        let m = filled(&rt, 63);
        let before = dram_view(&m);
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
            assert_eq!(dram_view(&m), before, "{what}, StagedTx dropped");
            assert_dram_matches_media(&m);
            let _hush = jnvm_pmem::hush_panics();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                rt.fa(|| {
                    block();
                    panic!("abort");
                })
            }));
            assert!(unwound.is_err());
            assert_eq!(dram_view(&m), before, "{what}, closure unwound");
            assert_dram_matches_media(&m);
        }
        // The map still grows, and commits, after all of that.
        rt.fa(|| {
            m.put("new".into(), blob(&rt, "new")).unwrap();
            m.put("newer".into(), blob(&rt, "newer")).unwrap();
        });
        assert_eq!(m.len(), 65);
        assert_dram_matches_media(&m);
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

    /// An aborted growth leaves the blocks it linked in the array's chain:
    /// the next growth links none and nulls their cells, whatever they held
    /// (a recycled block's old words, here), and the map's DRAM state
    /// matches its media throughout, and after a crash.
    #[test]
    fn an_aborted_growth_leaves_blocks_the_next_one_reuses() {
        let rt = fresh();
        let m = filled(&rt, 64);
        rt.root_put("map", &m).unwrap();
        let array = || m.inner.lock().array.clone();
        let blocks = array().proxy().block_count();
        drop(rt.fa_stage(|| {
            m.put("new".into(), blob(&rt, "new")).unwrap();
        }));
        let spare = array();
        assert_eq!(spare.len(), 64, "the aborted growth's length");
        assert!(spare.proxy().block_count() > blocks, "it linked blocks");
        assert_dram_matches_media(&m);
        let chain = spare.proxy().chain();
        chain.write_bytes(rt.pmem(), 8 + 64 * 8, &[0xAB; 64 * 8]);
        rt.fa(|| {
            m.put("new".into(), blob(&rt, "new")).unwrap();
        });
        let grown = array();
        assert_eq!(grown.len(), 128);
        assert_eq!(grown.proxy().block_count(), spare.proxy().block_count());
        let used = {
            let inner = m.inner.lock();
            u64::from(inner.index.get(&inner.cells, "new").unwrap())
        };
        assert!((64..128).all(|i| i == used || grown.get_ref(i).is_none()));
        assert_dram_matches_media(&m);
        let pmem = Arc::clone(rt.pmem());
        let addr = m.addr();
        drop((m, rt));
        pmem.crash(&jnvm_pmem::CrashPolicy::strict()).unwrap();
        let (rt, _) = register_jpdt(JnvmBuilder::new()).open(pmem).unwrap();
        let m = PStringHashMap::open_with_mode(&rt, addr, CacheMode::Cached);
        assert_eq!((m.len(), m.inner.lock().array.len()), (65, 128));
        assert_dram_matches_media(&m);
    }
}
