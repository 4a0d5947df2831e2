//! Host work as counts: how many heap allocations it takes to build,
//! decode, read back and serve from the cache one 10-field YCSB record.
//!
//! A record is its key and one buffer holding every value behind its
//! length word: 2. Positional names are not stored and cost nothing.

#[path = "support/alloc_counter.rs"]
mod alloc_counter;

use std::sync::Arc;

use alloc_counter::allocs;
use jnvm::JnvmBuilder;
use jnvm_heap::HeapConfig;
use jnvm_kvstore::{
    decode_record, encode_record, register_kvstore, Backend, DataGrid, GridConfig, JnvmBackend,
    Record, VolatileBackend,
};
use jnvm_pmem::{Pmem, PmemConfig};

fn values() -> Vec<Vec<u8>> {
    (0..10u8).map(|i| vec![i; 100]).collect()
}

#[test]
fn ycsb_builder_takes_two() {
    let values = values();
    let (used, rec) = allocs(|| Record::ycsb("user42", &values));
    assert_eq!(used.count, 2, "key + one buffer");
    assert_eq!(used.largest, 10 * (4 + 100), "the buffer is sized exactly");
    assert!(rec.fields.values().eq(values.iter().map(Vec::as_slice)));
}

#[test]
fn decoding_a_ycsb_record_takes_two() {
    let bytes = encode_record(&Record::ycsb("user42", &values()));
    let (used, rec) = allocs(|| decode_record(&bytes));
    assert_eq!(rec, Some(Record::ycsb("user42", &values())));
    assert_eq!(used.count, 2, "key + one buffer; no name allocates");
}

#[test]
fn jnvm_read_takes_two() {
    let pmem = Pmem::new(PmemConfig::crash_sim(16 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .unwrap();
    let be = JnvmBackend::create(&rt, 1, false).unwrap();
    let rec = Record::ycsb("user42", &values());
    assert!(be.store_full(&rec));
    let reads = pmem.stats().reads;
    let (used, back) = allocs(|| be.read("user42"));
    let reads = pmem.stats().reads - reads;
    assert_eq!(back.as_ref(), Some(&rec));
    assert_eq!(
        used.count, 2,
        "key + one buffer sized up front; the lookup allocates nothing"
    );
    // The record's one read and one per value, as a `GET`
    // (tests/obs_invariants.rs): the map lookup answers from DRAM, field
    // count and all (it read 2 words while it did not, and the record's
    // count was 1 read more while the record stored it), and sizing from
    // the references' lengths and the slot classes reads nothing.
    assert_eq!(reads, 1 + 10);
}

/// A cached record served by the grid costs its clone, and the lookup
/// takes the key as `&str`.
#[test]
fn a_cache_hit_takes_the_clone_only() {
    let grid = DataGrid::new(
        Arc::new(VolatileBackend::new()),
        GridConfig { cache_capacity: 16 },
    );
    let rec = Record::ycsb("user42", &values());
    assert!(grid.insert(&rec));
    let (used, back) = allocs(|| grid.read("user42"));
    assert_eq!(back, Some(rec));
    assert_eq!(grid.hit_ratio(), 1.0);
    assert_eq!(used.count, 2, "the clone's key and buffer");
}

/// A same-length update splices in place; a longer one grows the buffer
/// once at most.
#[test]
fn set_field_splices_the_buffer() {
    let mut rec = Record::ycsb("user42", &values());
    let (used, ok) = allocs(|| rec.set_field(3, &[0xee; 100]));
    assert!(ok);
    assert_eq!(used.count, 0);
    let (used, ok) = allocs(|| rec.set_field(9, &[0xdd; 300]));
    assert!(ok);
    assert!(used.count <= 1, "{} allocations", used.count);
    assert_eq!(rec.fields.value(3), [0xee; 100]);
    assert_eq!(rec.fields.value(9), [0xdd; 300]);
}

/// A field count the input cannot hold (every field takes at least its
/// 8 header bytes) is refused before it sizes the buffer.
#[test]
fn a_field_count_past_the_input_sizes_nothing() {
    let mut bytes = encode_record(&Record::ycsb("k", &[]));
    bytes[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
    let (used, rec) = allocs(|| decode_record(&bytes));
    assert!(rec.is_none());
    assert!(
        used.largest <= 64,
        "a {}-B input sized a {}-B allocation",
        bytes.len(),
        used.largest
    );
}
