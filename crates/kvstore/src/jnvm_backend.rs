//! The J-NVM backends (J-PDT and J-PFA flavours, §5.1).
//!
//! Records are **persistent objects**: a [`PRecord`] holds one reference
//! per field to an immutable [`PValue`], and the reference carries the
//! value's length — so a read takes the record's reference array and then
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

/// A persistent YCSB-style record: `[nfields u64][field refs...]`, where a
/// field reference is `slack << 48 | addr` — the [`PValue`] at `addr`, of
/// its storage's capacity minus `slack` bytes — or 0 for null.
pub struct PRecord {
    proxy: Proxy,
}

impl PRecord {
    /// Allocate a record with the given field values, read where they lie.
    /// Flushed but **invalid** — publication (map insert) validates it. A
    /// record never grows: it takes a pool slot when its reference array
    /// fits one (up to 28 fields on 256-B blocks), a chain otherwise.
    pub fn create(
        rt: &Jnvm,
        values: impl IntoIterator<Item = impl AsRef<[u8]>, IntoIter: ExactSizeIterator>,
    ) -> Result<PRecord, JnvmError> {
        let values = values.into_iter();
        let proxy = rt.alloc_small::<PRecord>(8 + values.len() as u64 * 8)?;
        proxy.write_u64(0, values.len() as u64);
        for (i, v) in values.enumerate() {
            proxy.write_u64(8 + i as u64 * 8, PValue::create(rt, v.as_ref())?);
        }
        proxy.pwb();
        Ok(PRecord { proxy })
    }

    /// Wrap an existing record proxy.
    pub fn from_proxy(proxy: Proxy) -> PRecord {
        PRecord { proxy }
    }

    /// Number of fields.
    pub fn nfields(&self) -> u64 {
        self.proxy.read_u64(0)
    }

    /// The one walk over a record's persistent layout, for reads and for
    /// [`PRecord::free_deep`]: the `nfields` word, then the whole reference
    /// array in one mediated read — inside a failure-atomic block it sees
    /// the overlay as [`Proxy::read_u64`] does. Each sink decodes a
    /// reference with [`Value::open`]. `nfields` is bounded by what the
    /// chain can hold before it sizes anything: a torn or corrupt word is a
    /// catchable panic, never an allocator abort — nor a free of whatever
    /// words follow the record.
    fn field_refs(&self) -> FieldRefs {
        let n = self.nfields();
        assert!(
            n <= max_fields(self.proxy.capacity()),
            "record at {:#x}: nfields word {n} exceeds its chain",
            self.proxy.addr()
        );
        let n = n as usize;
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
        self.proxy.read_bytes(8, raw);
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
        let room = refs.iter().map(|word| Value::open(rt, word).map_or(0, |v| v.len)).sum();
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
            write_field_header(out, &ycsb_field_name(i), value.as_ref().map_or(0, |v| v.len));
            if let Some(value) = value {
                value.append_to(rt, out);
            }
        }
    }

    /// Atomically replace field `i` with a fresh value and free the old one
    /// (the update-and-free helper of §4.1.6).
    pub fn set_field(&self, i: u64, value: &[u8]) -> Result<bool, JnvmError> {
        if i >= self.nfields() {
            return Ok(false);
        }
        let rt = self.proxy.runtime().clone();
        let old = self.proxy.read_u64(8 + i * 8);
        let word = PValue::create(&rt, value)?; // written, flushed, validated
        rt.pfence();
        self.proxy.write_u64(8 + i * 8, word);
        self.proxy.pwb_field(8 + i * 8, 8);
        rt.pfence();
        self.proxy.ordering_point("record-field-publish", 8 + i * 8, 8);
        if old != 0 {
            rt.free_addr(old & REF_ADDR_MASK);
        }
        Ok(true)
    }

    /// Free the record and every field value.
    pub fn free_deep(rt: &Jnvm, addr: u64) {
        let refs = PRecord::resurrect(rt, addr).field_refs();
        for word in refs.iter().filter(|word| *word != 0) {
            rt.free_addr(word & REF_ADDR_MASK);
        }
        rt.free_addr(addr);
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
        assert!(slack <= u16::MAX.into(), "value slack {slack} needs more than 16 bits");
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
/// the 28 a pool slot's record has, so reading a pooled record's
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

/// The most reference slots a record's chain of `capacity` payload bytes
/// holds behind its `nfields` word.
fn max_fields(capacity: u64) -> u64 {
    capacity.saturating_sub(8) / 8
}

impl PObject for PRecord {
    const CLASS_NAME: &'static str = "jnvm_kvstore.PRecord";

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        PRecord {
            proxy: Proxy::open(rt, addr),
        }
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }

    fn trace_extra(rt: &Jnvm, addr: u64, visit: &mut dyn FnMut(u64)) {
        // Recovery's mark must get through a torn or corrupt `nfields`
        // word: visit only slots the chain holds.
        let chain = RawChain::open(rt, addr);
        let n = rt.pmem().read_u64(chain.phys(0));
        for i in 0..n.min(max_fields(chain.capacity())) {
            visit(chain.phys(8 + i * 8));
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

    pub(crate) fn shard_index(&self, key: &str) -> usize {
        (crate::fnv1a(key) as usize) % self.shards.len()
    }

    fn shard(&self, key: &str) -> &PStringHashMap {
        &self.shards[self.shard_index(key)]
    }

    /// The persistent record stored under `key`, if any.
    fn lookup(&self, key: &str) -> Option<PRecord> {
        let proxy = self.shard(key).get_value(key)?;
        Some(PRecord::from_proxy(proxy))
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
        match self.shard(&rec.key).put(rec.key.clone(), prec.addr()) {
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
        self.lookup(key).map(|prec| prec.encode_into(key, out)).is_some()
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
        assert_eq!(rec.to_record("k"), Record::ycsb("k", &[b"one".to_vec(), b"two".to_vec()]));
        assert!(!rec.set_field(2, b"x").unwrap());
        assert!(rec.set_field(1, b"TWO").unwrap());
        assert_eq!(rec.to_record("k"), Record::ycsb("k", &[b"one".to_vec(), b"TWO".to_vec()]));
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

    /// A length read from NVMM never sizes an allocation unchecked: a
    /// corrupt `nfields` word, or a field reference whose slack exceeds its
    /// value's storage (a `GET` racing a crash instant can see either), is
    /// a panic the serving path catches — through every sink, naming the
    /// address — not an allocator abort, nor a read of the neighbouring
    /// slots. A pooled value's capacity is its own slot's (72 B for a 64-B
    /// value), a chained one's its chain's (496 B for 300 B).
    #[test]
    fn corrupt_length_words_panic_instead_of_sizing_an_allocation() {
        let _hush = jnvm_pmem::hush_panics();
        let (pmem, rt) = rt(8 << 20);
        let be = JnvmBackend::create(&rt, 1, false).unwrap();
        let records = [
            ("nfields", vec![vec![1u8; 100], vec![2u8; 100]], "exceeds its chain"),
            ("pooled", vec![vec![3u8; 64]; 4], "slack 73 exceeds its storage (72 B)"),
            ("chained", vec![vec![4u8; 300]], "slack 497 exceeds its storage (496 B)"),
        ];
        for (key, values, _) in &records {
            assert!(be.store_full(&Record::ycsb(key, values)));
            assert!(read_outcomes(&be, key).iter().all(|r| matches!(r, Ok(true))));
        }
        let proxy = |key| be.lookup(key).unwrap().proxy;
        pmem.write_u64(proxy("nfields").chain().phys(0), u64::MAX);
        for (key, slack) in [("pooled", 73u64), ("chained", 497)] {
            let field = proxy(key).chain().phys(8);
            let word = pmem.read_u64(field);
            pmem.write_u64(field, slack << 48 | word & REF_ADDR_MASK);
        }
        for (key, _, what) in records {
            for (sink, outcome) in read_outcomes(&be, key).into_iter().enumerate() {
                let msg = *outcome.expect_err("a corrupt length was served").downcast::<String>().unwrap();
                assert!(msg.contains("0x") && msg.contains(what), "{key}, sink {sink}: {msg}");
            }
        }
    }

    /// A record of more than 28 fields does not fit the largest pool slot
    /// (232 B of payload): it gets a chain, and reads, updates and
    /// recovers like a pooled one.
    #[test]
    fn a_record_too_large_for_a_slot_gets_a_chain() {
        let (pmem, rt) = rt(8 << 20);
        let be = JnvmBackend::create(&rt, 1, true).unwrap();
        for (key, fields, pooled) in [("narrow", 28, true), ("wide", 29, false)] {
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
        assert_eq!(be2.read("wide").unwrap().fields.value(28), b"last");
        assert_eq!(be2.read("narrow").unwrap().fields.value(27), b"last");
    }

    /// A corrupt `nfields` word on media stops neither recovery nor the
    /// allocator: the mark visits the slots the record's chain holds — so
    /// the pool recovers exactly what the undamaged one does — and a `DEL`
    /// of the record is a catchable panic, not a free of whatever words
    /// follow it. (Recovery used to index past the chain and panic.)
    #[test]
    fn corrupt_nfields_word_neither_stops_recovery_nor_frees_past_the_record() {
        let reopened = |corrupt: bool| {
            let (pmem, rt) = rt(8 << 20);
            let be = JnvmBackend::create(&rt, 1, true).unwrap();
            for key in ["victim", "bystander"] {
                assert!(be.store_full(&Record::ycsb(key, &[vec![1u8; 100], vec![2u8; 300]])));
            }
            if corrupt {
                let nfields = be.lookup("victim").unwrap().proxy.chain().phys(0);
                pmem.write_u64(nfields, u64::MAX);
                pmem.pwb(nfields);
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
            (
                report.live_objects,
                report.live_blocks,
                report.nullified_refs
            ),
            (clean.live_objects, clean.live_blocks, clean.nullified_refs),
            "the record's own references are traced, and nothing else"
        );
        let want = Record::ycsb("bystander", &[vec![1u8; 100], vec![2u8; 300]]);
        assert_eq!(be.read("bystander"), Some(want.clone()));

        let _hush = jnvm_pmem::hush_panics();
        let del = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| be.remove("victim")));
        let msg = *del
            .expect_err("freed through a corrupt nfields")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("exceeds its chain"), "{msg}");
        assert_eq!(be.read("bystander"), Some(want));
        // The failed `DEL` aborted its block, and the block's map changes
        // with it: the key is still there in DRAM as on media — as a map
        // resurrected from media sees it. (The mirror used to lose it while
        // media kept it, until a restart.)
        let map = &be.shards[0];
        let media = PStringHashMap::open_with_mode(&be.rt, map.addr(), jnvm_jpdt::CacheMode::Base);
        assert_eq!((map.len(), media.len()), (2, 2));
        for key in ["victim", "bystander"] {
            assert_eq!(map.get(key), media.get(key), "{key}");
        }
    }

    /// Recovery checks a reference that is not block-aligned as strictly as
    /// a block-aligned one: a word pointing past the device, inside a chain
    /// block or off a slot boundary of a pool block names no slot, so the
    /// open nullifies it and counts it, and every other key reads back. The
    /// first used to panic the whole open ("pmem access out of bounds");
    /// the other two took a payload word for a mini-header — here one that
    /// decodes as valid, of a class no one registered, which failed the
    /// open.
    #[test]
    fn a_reference_to_no_slot_is_nullified_at_recovery() {
        let values = vec![vec![1u8; 100], vec![3u8; 300], vec![5u8; 64]];
        let keys = ["victim", "bystander", "other"];
        let field = |be: &JnvmBackend, key, i: u64| {
            be.lookup(key).unwrap().proxy.chain().phys(8 + i * 8)
        };
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
            ("inside a chain block", &|pmem, be| value_of(pmem, be, 1) + 24),
            ("off a slot boundary", &|pmem, be| value_of(pmem, be, 0) + 8),
        ];
        for (what, bad) in bad_words {
            let (be, report) = reopened(bad);
            assert_eq!(report.nullified_refs, clean.nullified_refs + 1, "{what}");
            let mut victim = Record::ycsb("victim", &values);
            assert!(victim.set_field(2, b""));
            assert_eq!(be.read("victim"), Some(victim), "{what}: the field reads null");
            for key in &keys[1..] {
                assert_eq!(be.read(key), Some(Record::ycsb(key, &values)), "{what}: {key}");
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
            assert_eq!(out, queued, "{}: an absent key leaves `out` alone", be.name());
            assert!(be.read_encoded(&want.key, &mut out), "{}: present", be.name());
            assert_eq!(&out[mark..], encode_record(&be.read(&want.key).unwrap()), "{}", be.name());
            assert_eq!(decode_record(&out[mark..]).as_ref(), Some(want), "{}", be.name());
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
                    be.lookup(&want.key).unwrap().proxy.write_ref(8 + null as u64 * 8, None);
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
