//! The PCJ backend stand-in (§5.1): Persistent Collections for Java over
//! PMDK, reached through JNI.
//!
//! The paper attributes PCJ's poor performance to two costs, both modeled
//! here and nothing else:
//!
//! * **JNI crossings** — "the Java native interface ... requires heavy
//!   synchronization to call a native method" (§5.2): every operation pays
//!   `jni_calls_per_op × jni_call_ns`,
//! * **marshalling** — PCJ values cross the bridge as serialized byte
//!   arrays, so records are stored as one marshalled blob and every
//!   update is a full decode/patch/encode cycle.
//!
//! The storage itself reuses the persistent map/blob machinery (PMDK's
//! role), which if anything *flatters* PCJ.

use jnvm::{Jnvm, JnvmError, PObject};
use jnvm_jpdt::{PBytes, PStringHashMap};
use jnvm_pmem::spin_ns;

use crate::backend::Backend;
use crate::codec::{decode_record, encode_record, Record};
use crate::CostModel;

/// The PCJ-like backend.
pub struct PcjBackend {
    rt: Jnvm,
    shards: Vec<PStringHashMap>,
    costs: CostModel,
}

const SHARD_ROOT_PREFIX: &str = "pcj-shard-";

impl PcjBackend {
    /// Create with `nshards` persistent map shards.
    pub fn create(rt: &Jnvm, nshards: usize, costs: CostModel) -> Result<PcjBackend, JnvmError> {
        let mut shards = Vec::with_capacity(nshards.max(1));
        for i in 0..nshards.max(1) {
            let m = PStringHashMap::new(rt)?;
            rt.root_put(&format!("{SHARD_ROOT_PREFIX}{i}"), &m)?;
            shards.push(m);
        }
        Ok(PcjBackend {
            rt: rt.clone(),
            shards,
            costs,
        })
    }

    fn shard(&self, key: &str) -> &PStringHashMap {
        &self.shards[(crate::fnv1a(key) as usize) % self.shards.len()]
    }

    fn jni(&self) {
        spin_ns(self.costs.jni_call_ns * self.costs.jni_calls_per_op);
    }
}

impl Backend for PcjBackend {
    fn name(&self) -> &'static str {
        "pcj"
    }

    fn store_full(&self, rec: &Record) -> bool {
        self.jni();
        let bytes = encode_record(rec);
        spin_ns(self.costs.marshal_ns_per_byte * bytes.len() as u64);
        let Ok(blob) = PBytes::new(&self.rt, &bytes) else {
            return false;
        };
        self.rt.pfence();
        match self.shard(&rec.key).put(rec.key.clone(), blob.addr()) {
            Ok(Some(old)) => {
                self.rt.free_addr(old);
                true
            }
            Ok(None) => true,
            Err(_) => false,
        }
    }

    fn read(&self, key: &str) -> Option<Record> {
        self.jni();
        let addr = self.shard(key).get(key)?;
        let blob = PBytes::resurrect(&self.rt, addr);
        let bytes = blob.to_vec();
        spin_ns(self.costs.marshal_ns_per_byte * bytes.len() as u64);
        decode_record(&bytes)
    }

    fn update_field(&self, key: &str, field: usize, value: &[u8]) -> bool {
        // Full unmarshal / patch / remarshal round trip.
        let Some(mut rec) = self.read(key) else {
            return false;
        };
        rec.set_field(field, value) && self.store_full(&rec)
    }

    fn remove(&self, key: &str) -> bool {
        self.jni();
        match self.shard(key).remove(key) {
            Some(old) => {
                self.rt.free_addr(old);
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn prefers_field_updates(&self) -> bool {
        // PCJ has no in-place field path; the grid routes updates through
        // read-modify-write.
        false
    }

    fn sync(&self) {
        self.rt.psync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jnvm_backend::register_kvstore;
    use jnvm::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{Pmem, PmemConfig};
    use std::sync::Arc;

    #[test]
    fn pcj_round_trip() {
        let pmem = Pmem::new(PmemConfig::perf(16 << 20));
        let rt = register_kvstore(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        let be = PcjBackend::create(&rt, 2, CostModel::free()).unwrap();
        let rec = Record::ycsb("user7", &[b"aaa".to_vec(), b"bbb".to_vec()]);
        assert!(be.store_full(&rec));
        assert_eq!(be.read("user7").unwrap(), rec);
        assert!(be.update_field("user7", 1, b"BBB"));
        assert_eq!(be.read("user7").unwrap().fields.value(1), b"BBB");
        assert_eq!(be.len(), 1);
        assert!(be.remove("user7"));
        assert!(be.read("user7").is_none());
    }
}
