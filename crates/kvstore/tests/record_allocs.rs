//! Host work as counts: how many heap allocations it takes to build,
//! decode and read back one 10-field YCSB record.
//!
//! A record is its key, its field vector and one vector per value: 12.
//! Field names borrow the static positional table and cost nothing.

#[path = "support/alloc_counter.rs"]
mod alloc_counter;

use std::borrow::Cow;
use std::sync::Arc;

use alloc_counter::allocs;
use jnvm::JnvmBuilder;
use jnvm_heap::HeapConfig;
use jnvm_kvstore::{decode_record, encode_record, register_kvstore, Backend, JnvmBackend, Record};
use jnvm_pmem::{Pmem, PmemConfig};

fn values() -> Vec<Vec<u8>> {
    (0..10u8).map(|i| vec![i; 100]).collect()
}

fn all_names_borrowed(rec: &Record) -> bool {
    rec.fields.iter().all(|(name, _)| matches!(name, Cow::Borrowed(_)))
}

#[test]
fn ycsb_builder_takes_twelve() {
    let values = values();
    let (used, rec) = allocs(|| Record::ycsb("user42", &values));
    assert_eq!(used.count, 12, "key + field vector + 10 values");
    assert!(all_names_borrowed(&rec));
}

#[test]
fn decoding_a_ycsb_record_takes_twelve() {
    let bytes = encode_record(&Record::ycsb("user42", &values()));
    let (used, rec) = allocs(|| decode_record(&bytes));
    let rec = rec.expect("decodes");
    assert_eq!(used.count, 12, "key + field vector + 10 values; no name allocates");
    assert!(all_names_borrowed(&rec));
}

#[test]
fn jnvm_read_takes_twelve() {
    let pmem = Pmem::new(PmemConfig::crash_sim(16 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .unwrap();
    let be = JnvmBackend::create(&rt, 1, false).unwrap();
    let rec = Record::ycsb("user42", &values());
    assert!(be.store_full(&rec));
    let (used, back) = allocs(|| be.read("user42"));
    assert_eq!(back.as_ref(), Some(&rec));
    assert!(all_names_borrowed(back.as_ref().unwrap()));
    assert_eq!(used.count, 12, "key + field vector + 10 values; the lookup allocates nothing");
}

/// A field count the input cannot hold (every field takes at least its
/// 8 header bytes) is refused before it sizes the field vector.
#[test]
fn a_field_count_past_the_input_sizes_nothing() {
    let mut bytes = encode_record(&Record::ycsb("k", &[]));
    bytes[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
    let (used, rec) = allocs(|| decode_record(&bytes));
    assert!(rec.is_none());
    assert!(used.largest <= 64, "a {}-B input sized a {}-B allocation", bytes.len(), used.largest);
}
