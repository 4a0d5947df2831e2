//! The J-NVM backends (J-PDT and J-PFA flavours, §5.1).
//!
//! Records are **persistent objects**: a [`PRecord`] holds one reference
//! per field to an immutable [`PValue`], and nothing else. The reference
//! to a value carries the value's length, and the reference to a record
//! its field count — so a read takes the record's reference array and then
//! each value's bytes, and nothing else, straight from NVMM: no
//! marshalling. A field update atomically replaces one field reference and
//! frees the old value (§4.1.6), exactly the helpers the paper says its
//! Infinispan portage uses.
//!
//! The J-PFA flavour runs every operation inside a failure-atomic block;
//! the J-PDT flavour relies on the structures' hand-crafted crash
//! consistency (low-level interface).

use jnvm::{Jnvm, JnvmBuilder, JnvmError, PObject, Proxy, RawChain};
use jnvm_heap::REF_ADDR_MASK;
use jnvm_jpdt::{register_jpdt, PStringHashMap};
use parking_lot::Mutex;

use crate::backend::Backend;
use crate::codec::{write_field_header, write_record_header, ycsb_field_name, Fields, Record};

/// A persistent YCSB-style record: `[field refs...]`, its payload nothing
/// but its reference array, where a field reference is `slack << 48 |
/// addr` — the [`PValue`] at `addr`, of its storage's capacity minus
/// `slack` bytes — or 0 for null. The field count is in the reference to
/// the record, the same way ([`PObject::reference`]): `slack << 48 | addr`,
/// with `slack` = capacity − 8 × fields. Whoever holds a record's
/// reference — a map's value word, its DRAM mirror, a root-map entry —
/// holds its field count, so no one reads a count from NVMM.
pub struct PRecord {
    proxy: Proxy,
    nfields: u64,
}

impl PRecord {
    /// Allocate a record with the given field values, read where they lie.
    /// Flushed but **invalid** — publication (map insert) validates it. A
    /// record never grows: it takes a pool slot when its reference array
    /// fits one (up to 29 fields on 256-B blocks), a chain otherwise.
    pub fn create(
        rt: &Jnvm,
        values: impl IntoIterator<Item = impl AsRef<[u8]>, IntoIter: ExactSizeIterator>,
    ) -> Result<PRecord, JnvmError> {
        let values = values.into_iter();
        let nfields = values.len() as u64;
        let proxy = rt.alloc_small::<PRecord>(nfields * 8)?;
        // The reference array, stored in one write.
        let (mut inline, mut heap) = ([0u8; INLINE_REFS * 8], Vec::new());
        let refs = if values.len() <= INLINE_REFS {
            &mut inline[..values.len() * 8]
        } else {
            heap.resize(values.len() * 8, 0);
            &mut heap[..]
        };
        for (word, v) in refs.chunks_exact_mut(8).zip(values) {
            word.copy_from_slice(&PValue::create(rt, v.as_ref())?.to_le_bytes());
        }
        proxy.write_bytes(0, refs);
        proxy.pwb();
        Ok(PRecord { proxy, nfields })
    }

    /// Number of fields.
    pub fn nfields(&self) -> u64 {
        self.nfields
    }

    /// The one walk over a record's persistent layout, for reads and for
    /// [`PRecord::free_deep`]: the whole reference array in one mediated
    /// read — inside a failure-atomic block it sees the overlay as
    /// [`Proxy::read_u64`] does. Each sink decodes a reference with
    /// [`Value::open`].
    fn field_refs(&self) -> FieldRefs {
        let n = self.nfields as usize;
        let mut refs = FieldRefs {
            inline: [0; INLINE_REFS * 8],
            heap: Vec::new(),
            n,
        };
        let raw = if n <= INLINE_REFS {
            &mut refs.inline[..n * 8]
        } else {
            refs.heap = vec![0u8; n * 8];
            &mut refs.heap[..]
        };
        self.proxy.read_bytes(0, raw);
        refs
    }

    /// Materialize the whole record (positional YCSB field names): the key
    /// and one buffer, sized exactly from the references' lengths. A pooled
    /// value's capacity is in the DRAM slot-class table, so sizing reads
    /// nothing; a chained value's chain is walked to size it and again to
    /// read it.
    pub fn to_record(&self, key: &str) -> Record {
        let rt = self.proxy.runtime();
        let refs = self.field_refs();
        let room = refs
            .iter()
            .map(|word| Value::open(rt, word).map_or(0, |v| v.len))
            .sum();
        let mut fields = Fields::with_capacity(refs.len(), room);
        for (i, word) in refs.iter().enumerate() {
            fields.push_with(&ycsb_field_name(i), |values| {
                if let Some(value) = Value::open(rt, word) {
                    value.append_to(rt, values);
                }
            });
        }
        Record {
            key: key.to_string(),
            fields,
        }
    }

    /// Append [`crate::encode_record`]'s bytes for this record to `out`,
    /// field by field straight out of NVMM: each field's header from its
    /// reference, then the only copy of its value, the one into `out`.
    pub(crate) fn encode_into(&self, key: &str, out: &mut Vec<u8>) {
        let rt = self.proxy.runtime();
        let refs = self.field_refs();
        write_record_header(out, key, refs.len());
        for (i, word) in refs.iter().enumerate() {
            let value = Value::open(rt, word);
            write_field_header(
                out,
                &ycsb_field_name(i),
                value.as_ref().map_or(0, |v| v.len),
            );
            if let Some(value) = value {
                value.append_to(rt, out);
            }
        }
    }

    /// Atomically replace field `i` with a fresh value and free the old one
    /// (the update-and-free helper of §4.1.6).
    pub fn set_field(&self, i: u64, value: &[u8]) -> Result<bool, JnvmError> {
        if i >= self.nfields {
            return Ok(false);
        }
        let rt = self.proxy.runtime().clone();
        let old = self.proxy.read_u64(i * 8);
        let word = PValue::create(&rt, value)?; // written, flushed, validated
        rt.pfence();
        self.proxy.write_u64(i * 8, word);
        self.proxy.pwb_field(i * 8, 8);
        rt.pfence();
        self.proxy.ordering_point("record-field-publish", i * 8, 8);
        if old != 0 {
            rt.free_addr(old & REF_ADDR_MASK);
        }
        Ok(true)
    }

    /// Free the record a reference word names and every field value.
    pub fn free_deep(rt: &Jnvm, record: u64) {
        let refs = PRecord::resurrect(rt, record).field_refs();
        for word in refs.iter().filter(|word| *word != 0) {
            rt.free_addr(word & REF_ADDR_MASK);
        }
        rt.free_addr(record & REF_ADDR_MASK);
    }
}

/// A field value of a [`PRecord`]: its bytes, from payload offset 0, and
/// nothing else. The record's reference to it carries its length, so no
/// reader needs a length word. A leaf: it holds no reference.
pub struct PValue {
    addr: u64,
}

impl PValue {
    /// Allocate a value holding `data` and return the record's reference
    /// word to it. The value is flushed and validated, fence-free: the
    /// creator fences before it publishes the word (§3.2.3); inside a
    /// failure-atomic block the commit owns both.
    ///
    /// The slack (capacity − length) always fits the reference's 16 tag
    /// bits: `alloc_small` takes the smallest slot class or chain that
    /// fits, so it is below a block's payload (< 248 B on 256-B blocks).
    fn create(rt: &Jnvm, data: &[u8]) -> Result<u64, JnvmError> {
        let proxy = rt.alloc_small::<PValue>(data.len() as u64)?;
        proxy.chain().write_bytes(rt.pmem(), 0, data);
        proxy.pwb();
        proxy.validate();
        let slack = proxy.capacity() - data.len() as u64;
        assert!(
            slack <= u16::MAX.into(),
            "value slack {slack} needs more than 16 bits"
        );
        Ok(slack << 48 | proxy.addr())
    }
}

impl PObject for PValue {
    const CLASS_NAME: &'static str = "jnvm_kvstore.PValue";

    fn resurrect(_rt: &Jnvm, addr: u64) -> Self {
        PValue { addr }
    }

    fn addr(&self) -> u64 {
        self.addr
    }
}

/// A field's value located by its reference word: its storage, and how
/// many bytes of it are the value.
struct Value {
    chain: RawChain,
    len: usize,
}

impl Value {
    /// Decode a field reference (`None` for null): open the value's storage
    /// — a pool slot's capacity comes from the DRAM slot-class table, a
    /// chain's from its walk — and take the slack off the capacity. A slack
    /// past the capacity is a catchable panic naming the address, never a
    /// length that sizes a buffer — nor a read of a neighbouring slot.
    fn open(rt: &Jnvm, word: u64) -> Option<Value> {
        if word == 0 {
            return None;
        }
        let (addr, slack) = (word & REF_ADDR_MASK, word >> 48);
        let chain = RawChain::open(rt, addr);
        let cap = chain.capacity();
        assert!(
            slack <= cap,
            "value at {addr:#x}: reference slack {slack} exceeds its storage ({cap} B)"
        );
        Some(Value {
            chain,
            len: (cap - slack) as usize,
        })
    }

    /// Append the value's bytes to `out`: one read per block it spans.
    fn append_to(&self, rt: &Jnvm, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + self.len, 0);
        self.chain.read_bytes(rt.pmem(), 0, &mut out[at..]);
    }
}

/// Reference slots [`FieldRefs`] holds without a heap buffer: more than
/// the 29 a pool slot's record has, so reading a pooled record's
/// references allocates nothing.
const INLINE_REFS: usize = 32;

/// A record's reference words (0 = null), copied out of NVMM by one read.
struct FieldRefs {
    inline: [u8; INLINE_REFS * 8],
    /// Used instead of `inline` past [`INLINE_REFS`] references.
    heap: Vec<u8>,
    n: usize,
}

impl FieldRefs {
    fn len(&self) -> usize {
        self.n
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let raw = if self.n <= INLINE_REFS {
            &self.inline[..self.n * 8]
        } else {
            &self.heap[..]
        };
        raw.chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
    }
}

/// The field count a record reference's `slack` gives a record of
/// `capacity` payload bytes, if it gives one: the slack must leave a whole
/// number of 8-byte reference slots.
fn fields_in(capacity: u64, slack: u64) -> Option<u64> {
    let used = capacity.checked_sub(slack)?;
    (used % 8 == 0).then_some(used / 8)
}

impl PObject for PRecord {
    const CLASS_NAME: &'static str = "jnvm_kvstore.PRecord";

    /// Open the record a reference word names, its field count decoded from
    /// the word's tag against the record's storage — a pool slot's capacity
    /// from the DRAM slot-class table, a chain's from its walk — reading
    /// nothing else.
    ///
    /// # Panics
    ///
    /// A tag that is no field count of that storage (see
    /// [`PObject::reference_ok`]) is a catchable panic naming the address,
    /// never a count that sizes a read — nor a free of the words past the
    /// record.
    fn resurrect(rt: &Jnvm, word: u64) -> Self {
        let addr = word & REF_ADDR_MASK;
        let proxy = Proxy::open(rt, addr);
        let cap = proxy.capacity();
        let nfields = fields_in(cap, word >> 48).unwrap_or_else(|| {
            panic!(
                "record at {addr:#x}: reference slack {} is no field count of its storage ({cap} B)",
                word >> 48
            )
        });
        PRecord { proxy, nfields }
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }

    /// The record's address, its field count in the tag.
    fn reference(&self) -> u64 {
        let slack = self.proxy.capacity() - self.nfields * 8;
        slack << 48 | self.proxy.addr()
    }

    /// A slack past the record's storage, or one that leaves part of a
    /// reference slot, gives no field count: recovery nullifies the
    /// reference rather than trace past the record or trust a torn word.
    fn reference_ok(rt: &Jnvm, word: u64) -> bool {
        let chain = RawChain::open(rt, word & REF_ADDR_MASK);
        fields_in(chain.capacity(), word >> 48).is_some()
    }

    /// Exactly the field count's slots, from the tag: the mark reads no
    /// count. (It refused a tag that gives none before it got here.)
    fn trace_extra(rt: &Jnvm, word: u64, visit: &mut dyn FnMut(u64)) {
        let chain = RawChain::open(rt, word & REF_ADDR_MASK);
        for i in 0..fields_in(chain.capacity(), word >> 48).unwrap_or(0) {
            visit(chain.phys(i * 8));
        }
    }
}

/// Register every class the kvstore needs (J-PDT classes, [`PRecord`] and
/// [`PValue`]).
pub fn register_kvstore(b: JnvmBuilder) -> JnvmBuilder {
    register_jpdt(b).register::<PRecord>().register::<PValue>()
}

/// The J-PDT / J-PFA backend: sharded persistent hash maps of records.
///
/// # Concurrency contract
///
/// Failure-atomic blocks provide atomicity, not isolation: writes made
/// inside a block live in that block's volatile overlay until
/// commit-apply, so two blocks read-modify-writing the *same* persistent
/// words overwrite each other (last apply wins). Per-**key** operations (`update_field`) touch
/// only that key's record, and callers such as [`crate::DataGrid`]
/// serialize them per key. Map-*structure* operations (`store_full`,
/// `remove`) touch the shard's shared cell array and entry chains, so the
/// backend serializes those itself with one lock per shard, held across
/// the whole failure-atomic block.
pub struct JnvmBackend {
    rt: Jnvm,
    shards: Vec<PStringHashMap>,
    shard_locks: Vec<Mutex<()>>,
    fa: bool,
}

const SHARD_ROOT_PREFIX: &str = "kvstore-shard-";

impl JnvmBackend {
    /// Create a fresh backend with `nshards` persistent map shards,
    /// anchored in the root map. `fa = true` selects the J-PFA flavour.
    pub fn create(rt: &Jnvm, nshards: usize, fa: bool) -> Result<JnvmBackend, JnvmError> {
        let mut shards = Vec::with_capacity(nshards);
        for i in 0..nshards.max(1) {
            let m = PStringHashMap::new(rt)?;
            rt.root_put(&format!("{SHARD_ROOT_PREFIX}{i}"), &m)?;
            shards.push(m);
        }
        let shard_locks = (0..shards.len()).map(|_| Mutex::new(())).collect();
        Ok(JnvmBackend {
            rt: rt.clone(),
            shards,
            shard_locks,
            fa,
        })
    }

    /// Re-open the backend from the root map after a restart.
    pub fn open(rt: &Jnvm, fa: bool) -> Result<JnvmBackend, JnvmError> {
        let mut shards = Vec::new();
        loop {
            let name = format!("{SHARD_ROOT_PREFIX}{}", shards.len());
            match rt.root_get_as::<PStringHashMap>(&name)? {
                Some(m) => shards.push(m),
                None => break,
            }
        }
        if shards.is_empty() {
            return Err(JnvmError::UnknownPersistedClass(
                "no kvstore shards in root map".into(),
            ));
        }
        let shard_locks = (0..shards.len()).map(|_| Mutex::new(())).collect();
        Ok(JnvmBackend {
            rt: rt.clone(),
            shards,
            shard_locks,
            fa,
        })
    }

    /// Number of map shards: every [`JnvmBackend::shard_index`] is below it.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The map shard of `key`: the high half of its hash after a
    /// finalizer (MurmurHash3's `fmix64`). Pool routing
    /// ([`crate::shard_for_key`]) reduces the raw hash, whose low bits
    /// depend only on the key bytes' low bits — the same reduction here
    /// would leave each of 2 pools only every other map — and FNV-1a's
    /// high half barely moves with a key's last bytes.
    pub(crate) fn shard_index(&self, key: &str) -> usize {
        let mut h = crate::fnv1a(key);
        for k in [0xff51_afd7_ed55_8ccd, 0xc4ce_b9fe_1a85_ec53] {
            h ^= h >> 33;
            h = h.wrapping_mul(k);
        }
        h ^= h >> 33;
        ((h >> 32) as usize) % self.shards.len()
    }

    fn shard(&self, key: &str) -> &PStringHashMap {
        &self.shards[self.shard_index(key)]
    }

    /// The persistent record stored under `key`, if any: its reference,
    /// field count and all, comes from the map's DRAM mirror.
    fn lookup(&self, key: &str) -> Option<PRecord> {
        let word = self.shard(key).get(key)?;
        Some(PRecord::resurrect(&self.rt, word))
    }

    fn with_fa<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.fa {
            self.rt.fa(f)
        } else {
            f()
        }
    }

    /// The runtime this backend writes through.
    pub(crate) fn runtime(&self) -> &Jnvm {
        &self.rt
    }

    /// True for the J-PFA flavour (every write in a failure-atomic block).
    pub(crate) fn fa_enabled(&self) -> bool {
        self.fa
    }

    /// Insert/replace body — caller provides atomicity (a failure-atomic
    /// block or staging) and exclusion (the shard lock or group-former
    /// shard disjointness).
    fn do_put(&self, rec: &Record) -> bool {
        let Ok(prec) = PRecord::create(&self.rt, rec.fields.values()) else {
            return false;
        };
        match self.shard(&rec.key).put(rec.key.clone(), prec.reference()) {
            Ok(Some(old)) => {
                PRecord::free_deep(&self.rt, old);
                true
            }
            Ok(None) => true,
            Err(_) => false,
        }
    }

    /// Field-update body; same caller contract as [`JnvmBackend::do_put`].
    fn do_set_field(&self, key: &str, field: usize, value: &[u8]) -> bool {
        self.lookup(key)
            .is_some_and(|prec| prec.set_field(field as u64, value).unwrap_or(false))
    }

    /// Removal body; same caller contract as [`JnvmBackend::do_put`].
    fn do_remove(&self, key: &str) -> bool {
        match self.shard(key).remove(key) {
            Some(old) => {
                PRecord::free_deep(&self.rt, old);
                true
            }
            None => false,
        }
    }

    /// Apply one batched write. Called from inside a staged failure-atomic
    /// block by [`crate::group::commit_writes`], which provides the
    /// exclusion the direct paths get from the shard/stripe locks.
    pub(crate) fn apply_op(&self, op: &crate::group::WriteOp) -> bool {
        use crate::group::WriteOp;
        match op {
            WriteOp::Set(rec) => self.do_put(rec),
            WriteOp::SetField { key, field, value } => self.do_set_field(key, *field, value),
            WriteOp::Del(key) => self.do_remove(key),
        }
    }
}

impl Backend for JnvmBackend {
    fn name(&self) -> &'static str {
        if self.fa {
            "jpfa"
        } else {
            "jpdt"
        }
    }

    fn store_full(&self, rec: &Record) -> bool {
        // Held across the whole failure-atomic block: the map put mutates
        // the shard's shared blocks (see the concurrency contract above).
        let _shard = self.shard_locks[self.shard_index(&rec.key)].lock();
        self.with_fa(|| self.do_put(rec))
    }

    fn read(&self, key: &str) -> Option<Record> {
        Some(self.lookup(key)?.to_record(key))
    }

    fn read_encoded(&self, key: &str, out: &mut Vec<u8>) -> bool {
        self.lookup(key)
            .map(|prec| prec.encode_into(key, out))
            .is_some()
    }

    fn read_touch(&self, key: &str) -> bool {
        // The client holds the persistent record: touch each field's length
        // through its reference, no contents copied out of NVMM.
        let Some(prec) = self.lookup(key) else {
            return false;
        };
        let refs = prec.field_refs();
        let values = refs.iter().filter_map(|word| Value::open(&self.rt, word));
        std::hint::black_box(values.fold(0, |sum, value| sum ^ value.len));
        true
    }

    fn update_field(&self, key: &str, field: usize, value: &[u8]) -> bool {
        self.with_fa(|| self.do_set_field(key, field, value))
    }

    fn remove(&self, key: &str) -> bool {
        let _shard = self.shard_locks[self.shard_index(key)].lock();
        self.with_fa(|| self.do_remove(key))
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn prefers_field_updates(&self) -> bool {
        true
    }

    fn sync(&self) {
        self.rt.psync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};
    use std::sync::Arc;

    fn rt(bytes: u64) -> (Arc<Pmem>, Jnvm) {
        let pmem = Pmem::new(PmemConfig::crash_sim(bytes));
        let rt = register_kvstore(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        (pmem, rt)
    }

    #[test]
    fn precord_round_trip() {
        let (_p, rt) = rt(8 << 20);
        let rec = PRecord::create(&rt, &[b"one".to_vec(), b"two".to_vec()]).unwrap();
        assert_eq!(rec.nfields(), 2);
        assert_eq!(
            rec.to_record("k"),
            Record::ycsb("k", &[b"one".to_vec(), b"two".to_vec()])
        );
        assert!(!rec.set_field(2, b"x").unwrap());
        assert!(rec.set_field(1, b"TWO").unwrap());
        assert_eq!(
            rec.to_record("k"),
            Record::ycsb("k", &[b"one".to_vec(), b"TWO".to_vec()])
        );
    }

    /// Regression: concurrent failure-atomic puts into the *same* shard
    /// used to lose each other's map-cell updates. Each block mutates the
    /// shard's cell array through its own staged view; whichever commit
    /// applied last overwrote the other's cell, leaving the volatile
    /// mirror claiming a key the persistent array no longer references
    /// (and dangling cells pointing at freed records). Store/remove now
    /// hold a per-shard lock across the whole block.
    #[test]
    fn concurrent_same_shard_inserts_all_survive() {
        let (pmem, rt) = rt(64 << 20);
        let be = Arc::new(JnvmBackend::create(&rt, 1, true).unwrap());
        const THREADS: usize = 4;
        const PER_THREAD: usize = 100;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let be = Arc::clone(&be);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let rec = Record::ycsb(
                            &format!("t{t}-{i:04}"),
                            &[format!("v{t}-{i:04}").into_bytes()],
                        );
                        assert!(be.store_full(&rec), "t{t} insert {i} refused");
                    }
                });
            }
        });
        assert_eq!(be.len(), THREADS * PER_THREAD);
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let key = format!("t{t}-{i:04}");
                let rec = be
                    .read(&key)
                    .unwrap_or_else(|| panic!("{key}: concurrent insert lost"));
                assert_eq!(rec.fields.value(0), format!("v{t}-{i:04}").into_bytes());
            }
        }
        // Same story on the persistent image.
        drop(be);
        drop(rt);
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = register_kvstore(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let be2 = JnvmBackend::open(&rt2, true).unwrap();
        assert_eq!(be2.len(), THREADS * PER_THREAD);
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let key = format!("t{t}-{i:04}");
                assert!(be2.read(&key).is_some(), "{key} lost after recovery");
            }
        }
    }

    /// A key's map shard is decorrelated from its pool route: with 2 and
    /// 4 pools, each pool's keys reach all 16 map shards. (Reducing the
    /// whole hash for both gave each of 2 pools only the 8 even or the 8
    /// odd maps.)
    #[test]
    fn each_pools_keys_reach_every_map_shard() {
        let (_p, rt) = rt(8 << 20);
        let be = JnvmBackend::create(&rt, 16, true).unwrap();
        for pools in [2, 4] {
            let mut reached = vec![[false; 16]; pools];
            for i in 0..1000 {
                let key = format!("user{i:012}");
                reached[crate::shard_for_key(&key, pools)][be.shard_index(&key)] = true;
            }
            for (pool, maps) in reached.iter().enumerate() {
                let n = maps.iter().filter(|m| **m).count();
                assert_eq!(n, 16, "{pools} pools: pool {pool} reaches {n} maps");
            }
        }
    }

    #[test]
    fn backend_insert_read_update_remove() {
        let (_p, rt) = rt(16 << 20);
        for fa in [false, true] {
            let be = JnvmBackend::create(&rt, 4, fa).unwrap();
            let rec = Record::ycsb(&format!("user-{fa}"), &[b"a".to_vec(), b"b".to_vec()]);
            assert!(be.store_full(&rec));
            assert_eq!(be.read(&rec.key).unwrap(), rec);
            assert!(be.update_field(&rec.key, 0, b"A"));
            assert_eq!(be.read(&rec.key).unwrap().fields.value(0), b"A");
            assert!(!be.update_field("missing", 0, b"x"));
            assert_eq!(be.len(), 1);
            assert!(be.remove(&rec.key));
            assert!(be.read(&rec.key).is_none());
            // Clean up shard roots for the next flavour.
            for i in 0..4 {
                rt.root_remove(&format!("{SHARD_ROOT_PREFIX}{i}"));
            }
        }
    }

    /// The three sinks of a `GET`, each under `catch_unwind`.
    fn read_outcomes(be: &JnvmBackend, key: &str) -> [std::thread::Result<bool>; 3] {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        [
            catch_unwind(AssertUnwindSafe(|| be.read(key).is_some())),
            catch_unwind(AssertUnwindSafe(|| be.read_touch(key))),
            catch_unwind(AssertUnwindSafe(|| be.read_encoded(key, &mut Vec::new()))),
        ]
    }

    /// The panic message of an outcome that must have been a panic.
    fn panic_message<T>(outcome: std::thread::Result<T>, what: &str) -> String {
        let payload = outcome.err().unwrap_or_else(|| panic!("{what}"));
        *payload.downcast::<String>().expect("a formatted message")
    }

    /// Re-store `key`'s record reference, in the map's DRAM mirror and on
    /// media alike, with `slack` in its tag (a torn or corrupt word, as a
    /// map resurrected from a damaged image holds it). Returns the record's
    /// address.
    fn retag(be: &JnvmBackend, key: &str, slack: u64) -> u64 {
        let map = be.shard(key);
        let addr = map.get(key).unwrap() & REF_ADDR_MASK;
        assert!(map
            .put(key.to_string(), slack << 48 | addr)
            .unwrap()
            .is_some());
        addr
    }

    /// A length read from NVMM never sizes an allocation unchecked: a
    /// record reference whose tag is no field count of the record's
    /// storage, or a field reference whose slack exceeds its value's
    /// storage (a `GET` racing a crash instant can see either), is a panic
    /// the serving path catches — through every sink, naming the address —
    /// not an allocator abort, nor a read of the neighbouring slots. A
    /// pooled value's capacity is its own slot's (64 B for a 64-B value), a
    /// chained one's its chain's (496 B for 300 B); the record of two
    /// fields has a 16-B slot.
    #[test]
    fn corrupt_length_words_panic_instead_of_sizing_an_allocation() {
        let _hush = jnvm_pmem::hush_panics();
        let (pmem, rt) = rt(8 << 20);
        let be = JnvmBackend::create(&rt, 1, false).unwrap();
        let records = [
            (
                "record",
                vec![vec![1u8; 100], vec![2u8; 100]],
                "slack 24 is no field count of its storage (16 B)",
            ),
            (
                "pooled",
                vec![vec![3u8; 64]; 4],
                "slack 65 exceeds its storage (64 B)",
            ),
            (
                "chained",
                vec![vec![4u8; 300]],
                "slack 497 exceeds its storage (496 B)",
            ),
        ];
        for (key, values, _) in &records {
            assert!(be.store_full(&Record::ycsb(key, values)));
            assert!(read_outcomes(&be, key)
                .iter()
                .all(|r| matches!(r, Ok(true))));
        }
        retag(&be, "record", 24);
        for (key, slack) in [("pooled", 65u64), ("chained", 497)] {
            let field = be.lookup(key).unwrap().proxy.chain().phys(0);
            let word = pmem.read_u64(field);
            pmem.write_u64(field, slack << 48 | word & REF_ADDR_MASK);
        }
        for (key, _, what) in records {
            for (sink, outcome) in read_outcomes(&be, key).into_iter().enumerate() {
                let msg = panic_message(outcome, "a corrupt length was served");
                assert!(
                    msg.contains("0x") && msg.contains(what),
                    "{key}, sink {sink}: {msg}"
                );
            }
        }
    }

    /// A record of more than 29 fields does not fit the largest pool slot
    /// (232 B of payload): it gets a chain, and reads, updates and
    /// recovers like a pooled one.
    #[test]
    fn a_record_too_large_for_a_slot_gets_a_chain() {
        let (pmem, rt) = rt(8 << 20);
        let be = JnvmBackend::create(&rt, 1, true).unwrap();
        for (key, fields, pooled) in [("narrow", 29, true), ("wide", 30, false)] {
            let values: Vec<Vec<u8>> = (0..fields).map(|i| vec![i as u8; 8]).collect();
            let mut want = Record::ycsb(key, &values);
            assert!(be.store_full(&want));
            let record = be.lookup(key).unwrap();
            assert_eq!(rt.pools().is_pooled_addr(record.addr()), pooled, "{key}");
            assert!(be.update_field(key, fields - 1, b"last"));
            assert!(want.set_field(fields - 1, b"last"));
            assert_eq!(be.read(key).as_ref(), Some(&want), "{key}");
        }
        be.sync();
        drop((be, rt));
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = register_kvstore(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let be2 = JnvmBackend::open(&rt2, true).unwrap();
        assert_eq!(be2.read("wide").unwrap().fields.value(29), b"last");
        assert_eq!(be2.read("narrow").unwrap().fields.value(28), b"last");
    }

    /// A record reference with a corrupt tag on media stops neither
    /// recovery nor the allocator: a `DEL` of the record is a catchable
    /// panic, not a free of whatever words follow it, and leaves the map as
    /// it found it; recovery nullifies the reference — the record and its
    /// two values are garbage, and nothing else is — and every other key
    /// reads back. (While the count was the record's first word, a corrupt
    /// one made recovery index past the chain and panic.)
    #[test]
    fn corrupt_record_tag_neither_stops_recovery_nor_frees_past_the_record() {
        let values = [vec![1u8; 100], vec![2u8; 300]];
        let reopened = |corrupt: bool| {
            let (pmem, rt) = rt(8 << 20);
            let be = JnvmBackend::create(&rt, 1, true).unwrap();
            for key in ["victim", "bystander"] {
                assert!(be.store_full(&Record::ycsb(key, &values)));
            }
            if corrupt {
                retag(&be, "victim", u16::MAX.into());
                let _hush = jnvm_pmem::hush_panics();
                let del =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| be.remove("victim")));
                let msg = panic_message(del, "freed through a corrupt tag");
                assert!(msg.contains("is no field count"), "{msg}");
                // The failed `DEL` aborted its block, and the block's map
                // changes with it: the key is still there in DRAM as on
                // media — as a map resurrected from media sees it. (The
                // mirror used to lose it while media kept it, until a
                // restart.)
                let map = &be.shards[0];
                let media =
                    PStringHashMap::open_with_mode(&be.rt, map.addr(), jnvm_jpdt::CacheMode::Base);
                assert_eq!((map.len(), media.len()), (2, 2));
                for key in ["victim", "bystander"] {
                    assert_eq!(map.get(key), media.get(key), "{key}");
                }
            }
            be.sync();
            drop((be, rt));
            pmem.crash(&CrashPolicy::strict()).unwrap();
            let opened = register_kvstore(JnvmBuilder::new()).open(Arc::clone(&pmem));
            let (rt2, report) = opened.expect("recovery gets through the record");
            (JnvmBackend::open(&rt2, true).unwrap(), report)
        };
        let (_, clean) = reopened(false);
        let (be, report) = reopened(true);
        assert_eq!(
            (report.live_objects, report.nullified_refs),
            (clean.live_objects - 3, clean.nullified_refs + 1),
            "the record and its values are unreachable, and nothing else"
        );
        assert_eq!(be.read("victim"), None);
        let want = Record::ycsb("bystander", &values);
        assert_eq!(be.read("bystander"), Some(want));
    }

    /// A record reference whose tag is impossible — a slack past the
    /// record's storage, or one that leaves part of a reference slot —
    /// is refused by every op that opens the record (`GET` through each
    /// sink, `SETF`, `DEL`) with a catchable panic naming the record's
    /// address; recovery nullifies the reference and counts it, and every
    /// other key reads back. A 4-field record fills its 32-B slot: slack 0.
    #[test]
    fn an_impossible_record_tag_is_refused_and_nullified_at_recovery() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let _hush = jnvm_pmem::hush_panics();
        let values = vec![vec![7u8; 64]; 4];
        let keys = ["victim", "bystander", "other"];
        let reopened = |slack: Option<u64>| {
            let (pmem, rt) = rt(8 << 20);
            let be = JnvmBackend::create(&rt, 1, true).unwrap();
            for key in keys {
                assert!(be.store_full(&Record::ycsb(key, &values)));
            }
            if let Some(slack) = slack {
                let at = format!("record at {:#x}", retag(&be, "victim", slack));
                let mut outcomes = Vec::from(read_outcomes(&be, "victim"));
                outcomes.push(catch_unwind(AssertUnwindSafe(|| {
                    be.update_field("victim", 0, b"x")
                })));
                outcomes.push(catch_unwind(AssertUnwindSafe(|| be.remove("victim"))));
                for (op, outcome) in outcomes.into_iter().enumerate() {
                    let msg = panic_message(outcome, "an impossible tag was decoded");
                    assert!(msg.contains(&at), "slack {slack}, op {op}: {msg}");
                }
                for key in &keys[1..] {
                    assert_eq!(be.read(key), Some(Record::ycsb(key, &values)));
                }
            }
            be.sync();
            drop((be, rt));
            pmem.crash(&CrashPolicy::strict()).unwrap();
            let opened = register_kvstore(JnvmBuilder::new()).open(Arc::clone(&pmem));
            let (rt2, report) = opened.expect("recovery gets past the tag");
            (JnvmBackend::open(&rt2, true).unwrap(), report)
        };
        let (_, clean) = reopened(None);
        for (what, slack) in [("past the slot", 40), ("part of a slot", 4)] {
            let (be, report) = reopened(Some(slack));
            assert_eq!(report.nullified_refs, clean.nullified_refs + 1, "{what}");
            assert_eq!(be.read("victim"), None, "{what}");
            for key in &keys[1..] {
                assert_eq!(
                    be.read(key),
                    Some(Record::ycsb(key, &values)),
                    "{what}: {key}"
                );
            }
        }
    }

    /// Recovery checks a reference that is not block-aligned as strictly as
    /// a block-aligned one: a word pointing past the device, inside a chain
    /// block or off a slot boundary of a span names no slot, so the
    /// open nullifies it and counts it, and every other key reads back. The
    /// first used to panic the whole open ("pmem access out of bounds");
    /// the other two took a payload word for a mini-header — here one that
    /// decodes as valid, of a class no one registered, which failed the
    /// open.
    #[test]
    fn a_reference_to_no_slot_is_nullified_at_recovery() {
        let values = vec![vec![1u8; 100], vec![3u8; 300], vec![5u8; 64]];
        let keys = ["victim", "bystander", "other"];
        let field =
            |be: &JnvmBackend, key, i: u64| be.lookup(key).unwrap().proxy.chain().phys(i * 8);
        // A fresh pool of three records, the victim's field 2 overwritten
        // with `bad` of it (0 keeps it), crashed and reopened.
        type BadWord<'a> = dyn Fn(&Pmem, &JnvmBackend) -> u64 + 'a;
        let reopened = |bad: &BadWord<'_>| {
            let (pmem, rt) = rt(8 << 20);
            let be = JnvmBackend::create(&rt, 1, true).unwrap();
            for key in keys {
                assert!(be.store_full(&Record::ycsb(key, &values)));
            }
            let word = bad(&pmem, &be);
            if word != 0 {
                let at = field(&be, "victim", 2);
                pmem.write_u64(at, word);
                pmem.pwb(at);
            }
            be.sync();
            drop((be, rt));
            pmem.crash(&CrashPolicy::strict()).unwrap();
            let opened = register_kvstore(JnvmBuilder::new()).open(Arc::clone(&pmem));
            let (rt2, report) = opened.expect("recovery gets past the word");
            (JnvmBackend::open(&rt2, true).unwrap(), report)
        };
        let (_, clean) = reopened(&|_, _| 0);
        let value_of = |pmem: &Pmem, be: &JnvmBackend, i| {
            pmem.read_u64(field(be, "bystander", i)) & REF_ADDR_MASK
        };
        let bad_words: [(&str, &BadWord<'_>); 3] = [
            ("past the device", &|pmem, _| 7 << 48 | (pmem.len() + 24)),
            ("inside a chain block", &|pmem, be| {
                value_of(pmem, be, 1) + 24
            }),
            ("off a slot boundary", &|pmem, be| value_of(pmem, be, 0) + 8),
        ];
        for (what, bad) in bad_words {
            let (be, report) = reopened(bad);
            assert_eq!(report.nullified_refs, clean.nullified_refs + 1, "{what}");
            let mut victim = Record::ycsb("victim", &values);
            assert!(victim.set_field(2, b""));
            assert_eq!(
                be.read("victim"),
                Some(victim),
                "{what}: the field reads null"
            );
            for key in &keys[1..] {
                assert_eq!(
                    be.read(key),
                    Some(Record::ycsb(key, &values)),
                    "{what}: {key}"
                );
            }
        }
    }

    #[test]
    fn backend_survives_crash() {
        let (pmem, rt) = rt(32 << 20);
        let be = JnvmBackend::create(&rt, 2, false).unwrap();
        for i in 0..50 {
            let rec = Record::ycsb(&format!("user{i}"), &[vec![i as u8; 16], vec![0xAB; 8]]);
            assert!(be.store_full(&rec));
        }
        be.sync();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = register_kvstore(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let be2 = JnvmBackend::open(&rt2, false).unwrap();
        assert_eq!(be2.len(), 50);
        for i in 0..50 {
            let rec = be2.read(&format!("user{i}")).expect("record survived");
            assert_eq!(rec.fields.value(0), vec![i as u8; 16]);
        }
    }

    #[test]
    fn replacement_frees_old_record() {
        let (_p, rt) = rt(16 << 20);
        let be = JnvmBackend::create(&rt, 1, false).unwrap();
        let r1 = Record::ycsb("k", &[vec![1; 300]]); // chained blob
        let r2 = Record::ycsb("k", &[vec![2; 300]]);
        be.store_full(&r1);
        let before = rt.heap().stats();
        be.store_full(&r2);
        let after = rt.heap().stats();
        // Replacement allocates a new record+blob and frees the old pair:
        // net block usage stays flat.
        assert_eq!(
            after.blocks_allocated - before.blocks_allocated,
            after.blocks_freed - before.blocks_freed
        );
        assert_eq!(be.read("k").unwrap(), r2);
    }

    /// The two sinks agree, byte for byte: whatever the walker finds, the
    /// in-place encoding is the marshalling of the materialized record.
    mod sinks {
        use super::*;
        use crate::backend::VolatileBackend;
        use crate::codec::{decode_record, encode_record};
        use crate::simfs::FsBackend;
        use crate::CostModel;
        use proptest::prelude::*;

        /// Pooled, the pool/chain boundary (224 content bytes), block
        /// payload multiples, multi-block chains.
        const LENS: [usize; 13] = [0, 1, 7, 8, 100, 223, 224, 225, 232, 248, 249, 497, 2000];

        fn assert_sinks_agree(be: &dyn Backend, want: &Record) {
            let queued = b"reply bytes already queued";
            let mut out = queued.to_vec();
            let mark = out.len();
            assert!(!be.read_encoded("absent", &mut out));
            assert_eq!(
                out,
                queued,
                "{}: an absent key leaves `out` alone",
                be.name()
            );
            assert!(
                be.read_encoded(&want.key, &mut out),
                "{}: present",
                be.name()
            );
            assert_eq!(
                &out[mark..],
                encode_record(&be.read(&want.key).unwrap()),
                "{}",
                be.name()
            );
            assert_eq!(
                decode_record(&out[mark..]).as_ref(),
                Some(want),
                "{}",
                be.name()
            );
            assert!(be.read_touch(&want.key));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn read_encoded_is_encode_record_of_read(
                lens in proptest::collection::vec(0usize..LENS.len(), 0..12),
                null in 0usize..12,
                fill in any::<u8>(),
            ) {
                let values: Vec<Vec<u8>> = lens
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (0..LENS[*l]).map(|b| fill ^ (b as u8) ^ (i as u8)).collect())
                    .collect();
                let want = Record::ycsb("user:prop", &values);

                let fs_pool = Pmem::new(PmemConfig::perf(8 << 20));
                let fs = FsBackend::new(fs_pool, 32 << 10, CostModel::free());
                for be in [&VolatileBackend::new() as &dyn Backend, &fs] {
                    assert!(be.store_full(&want));
                    assert_sinks_agree(be, &want);
                }

                for fa in [false, true] {
                    let (_pmem, rt) = rt(8 << 20);
                    let be = JnvmBackend::create(&rt, 2, fa).unwrap();
                    let mut want = want.clone();
                    assert!(be.store_full(&want));
                    assert_sinks_agree(&be, &want);
                    if values.is_empty() {
                        continue;
                    }
                    // A null field reference reads as an empty value.
                    let null = null % values.len();
                    be.lookup(&want.key).unwrap().proxy.write_ref(null as u64 * 8, None);
                    assert!(want.set_field(null, b""));
                    assert_sinks_agree(&be, &want);
                    // Inside an open failure-atomic block the walker sees a
                    // staged `set_field` exactly as the proxy accessors do.
                    let staged = (null + 1) % values.len();
                    rt.fa(|| {
                        assert!(be.do_set_field(&want.key, staged, b"staged, not yet committed"));
                        assert!(want.set_field(staged, b"staged, not yet committed"));
                        assert_sinks_agree(&be, &want);
                    });
                    assert_sinks_agree(&be, &want);
                }
            }
        }
    }
}
