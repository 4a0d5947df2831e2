//! The persistence SPI of the grid, plus the Volatile and NullFS dummy
//! backends of §5.1.

use std::collections::HashMap;

use parking_lot::RwLock;

use crate::codec::{decode_record, encode_record, encode_record_into, Record};
use crate::CostModel;

/// A persistent (or dummy) store the grid writes through to.
///
/// The SPI deliberately exposes **both** whole-record and field-level
/// operations: the paper's central asymmetry is that J-NVM backends update
/// persistent objects in place while external-design backends must
/// marshal/unmarshal whole records. [`Backend::prefers_field_updates`]
/// tells the grid which path to take.
pub trait Backend: Send + Sync {
    /// Short identifier ("jpdt", "fs"...).
    fn name(&self) -> &'static str;
    /// Store a whole record (insert or replace).
    fn store_full(&self, rec: &Record) -> bool;
    /// Materialize a whole record.
    fn read(&self, key: &str) -> Option<Record>;
    /// Append [`encode_record`]'s bytes for `key` to `out`; `false`, and
    /// `out` untouched, when absent. Default: materialize, then marshal (the
    /// external design); J-NVM backends encode straight out of NVMM.
    fn read_encoded(&self, key: &str, out: &mut Vec<u8>) -> bool {
        self.read(key)
            .map(|rec| encode_record_into(&rec, out))
            .is_some()
    }
    /// Serve a YCSB-style read without forcing materialization: J-NVM
    /// backends hand the client persistent value objects (the paper's
    /// modified client uses "persistent keys and values", §5.2) and touch
    /// the fields through proxies; external designs must unmarshal.
    /// Default: full materialization.
    fn read_touch(&self, key: &str) -> bool {
        self.read(key).is_some()
    }
    /// Whether writes are accepted without the key existing (the nullfs
    /// black hole stores nothing, yet the write path must still pay its
    /// marshalling). Default false.
    fn is_black_hole(&self) -> bool {
        false
    }
    /// Update a single positional field in place.
    fn update_field(&self, key: &str, field: usize, value: &[u8]) -> bool;
    /// Delete a record.
    fn remove(&self, key: &str) -> bool;
    /// Number of stored records.
    fn len(&self) -> usize;
    /// Whether the backend holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Whether the grid should route single-field updates to
    /// [`Backend::update_field`] (J-NVM designs) rather than
    /// read-modify-write + [`Backend::store_full`] (external designs).
    fn prefers_field_updates(&self) -> bool;
    /// Durability point (no-op for most backends: they are write-through).
    fn sync(&self) {}
}

/// Persistence disabled: a plain volatile map, no marshalling
/// ("Volatile" in Figure 8; the baseline of Figures 10 and 12).
#[derive(Default)]
pub struct VolatileBackend {
    map: Vec<RwLock<HashMap<String, Record>>>,
}

impl VolatileBackend {
    /// Create with 64 shards.
    pub fn new() -> VolatileBackend {
        VolatileBackend {
            map: (0..64).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, Record>> {
        &self.map[(crate::fnv1a(key) as usize) % self.map.len()]
    }
}

impl Backend for VolatileBackend {
    fn name(&self) -> &'static str {
        "volatile"
    }

    fn store_full(&self, rec: &Record) -> bool {
        self.shard(&rec.key)
            .write()
            .insert(rec.key.clone(), rec.clone());
        true
    }

    fn read(&self, key: &str) -> Option<Record> {
        self.shard(key).read().get(key).cloned()
    }

    fn update_field(&self, key: &str, field: usize, value: &[u8]) -> bool {
        let mut m = self.shard(key).write();
        m.get_mut(key)
            .is_some_and(|rec| rec.set_field(field, value))
    }

    fn remove(&self, key: &str) -> bool {
        self.shard(key).write().remove(key).is_some()
    }

    fn len(&self) -> usize {
        self.map.iter().map(|s| s.read().len()).sum()
    }

    fn prefers_field_updates(&self) -> bool {
        true
    }
}

/// The nullfs of Figure 8: reads and writes are no-ops at the "file
/// system" level, but the marshalling/unmarshalling work is still
/// performed — isolating serialization cost from storage cost.
#[derive(Default)]
pub struct NullFsBackend {
    count: std::sync::atomic::AtomicUsize,
    costs: CostModel,
}

impl NullFsBackend {
    /// Create with the default cost model.
    pub fn new() -> NullFsBackend {
        NullFsBackend {
            count: Default::default(),
            costs: CostModel::default_model(),
        }
    }

    /// Create with an explicit cost model.
    pub fn with_costs(costs: CostModel) -> NullFsBackend {
        NullFsBackend {
            count: Default::default(),
            costs,
        }
    }
}

impl Backend for NullFsBackend {
    fn name(&self) -> &'static str {
        "nullfs"
    }

    fn store_full(&self, rec: &Record) -> bool {
        // Pay the marshalling, discard the bytes.
        let bytes = encode_record(rec);
        jnvm_pmem::spin_ns(self.costs.marshal_ns_per_byte * bytes.len() as u64);
        std::hint::black_box(&bytes);
        self.count
            .fetch_max(1, std::sync::atomic::Ordering::Relaxed);
        true
    }

    fn read(&self, _key: &str) -> Option<Record> {
        // The black hole returns nothing; exercise the decoder's header
        // path like a read of an empty file would.
        let empty: [u8; 0] = [];
        let _ = decode_record(std::hint::black_box(&empty));
        None
    }

    fn update_field(&self, _key: &str, _field: usize, _value: &[u8]) -> bool {
        false
    }

    fn remove(&self, _key: &str) -> bool {
        true
    }

    fn len(&self) -> usize {
        0
    }

    fn prefers_field_updates(&self) -> bool {
        false
    }

    fn is_black_hole(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatile_backend_round_trip() {
        let b = VolatileBackend::new();
        let rec = Record::ycsb("k", &[b"v0".to_vec(), b"v1".to_vec()]);
        assert!(b.store_full(&rec));
        assert_eq!(b.read("k").unwrap(), rec);
        assert!(b.update_field("k", 0, b"V0"));
        assert_eq!(b.read("k").unwrap().fields.value(0), b"V0");
        assert!(!b.update_field("k", 5, b"x"));
        assert_eq!(b.len(), 1);
        assert!(b.remove("k"));
        assert!(b.read("k").is_none());
    }

    #[test]
    fn nullfs_swallows_everything() {
        let b = NullFsBackend::new();
        let rec = Record::ycsb("k", &[b"v".to_vec()]);
        assert!(b.store_full(&rec));
        assert!(b.read("k").is_none());
        assert_eq!(b.len(), 0);
    }
}
