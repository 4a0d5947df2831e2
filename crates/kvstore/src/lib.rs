//! # jnvm-kvstore — an Infinispan-like embedded data grid
//!
//! The evaluation substrate of the paper (§5.1): an embedded key-value
//! data grid with
//!
//! * a sharded **LRU cache** with a configurable capacity ratio (Infinispan
//!   caches up to 10 % of the data items in the paper),
//! * **write-through persistence** to a pluggable [`Backend`],
//! * per-key **lock striping**,
//! * a hand-rolled binary **marshalling codec** (the cost the paper
//!   attributes FS/PCJ slowness to — it must be real CPU work, not a
//!   constant),
//!
//! and the persistent backends of §5.1:
//!
//! | backend | description |
//! |---|---|
//! | [`JnvmBackend`] (J-PDT) | persistent records + J-PDT maps, low-level interface |
//! | [`JnvmBackend`] (J-PFA) | same structures, every operation in a failure-atomic block |
//! | [`FsBackend`] | file-per-key store over NVMM with marshalling + syscall costs (DAX ext4 stand-in) |
//! | [`TmpfsBackend`] | the same store over DRAM-timed memory |
//! | [`NullFsBackend`] | marshal, then discard (the nullfs of Figure 8) |
//! | [`PcjBackend`] | marshalled values behind a simulated JNI bridge (PCJ/PMDK stand-in) |
//! | [`VolatileBackend`] | plain volatile map, persistence disabled |

mod backend;
mod codec;
mod grid;
mod group;
mod jnvm_backend;
mod lru;
mod pcj;
mod repl;
mod sharded;
mod simfs;

pub use backend::{Backend, NullFsBackend, VolatileBackend};
pub use codec::{decode_record, encode_record, encode_record_into, encoded_len, Fields, Record};
pub use grid::{DataGrid, GridConfig, GridMetrics};
pub use group::{commit_writes, BatchOutcome, WriteOp};
pub use jnvm_backend::{register_kvstore, JnvmBackend, PRecord, PValue};
pub use lru::{LruCache, ShardedLru};
pub use pcj::PcjBackend;
pub use repl::{commit_writes_replicated, ReplLag, ReplicaStack};
pub use sharded::{shard_for_key, KvShard, ShardedKv};
pub use simfs::{FsBackend, SimFs, TmpfsBackend};

/// 64-bit FNV-1a over the key bytes: the one key hash behind pool routing
/// ([`shard_for_key`]), map-shard choice and lock striping. Its reductions
/// are **on-media layout** (a reopened image routes by it), so it must
/// never change — `shard_for_key_golden_values_are_pinned` holds it.
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Simulated software costs (nanoseconds) of the non-J-NVM access paths.
///
/// Calibrated to the per-operation costs the paper reports or cites: a DAX
/// ext4 read/write syscall takes a few microseconds of kernel time, and a
/// JNI downcall requires "heavy synchronization to call a native method"
/// (§5.2) on the order of a microsecond per crossing.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Kernel cost of a file read.
    pub syscall_read_ns: u64,
    /// Kernel cost of a file write (DAX write + metadata).
    pub syscall_write_ns: u64,
    /// One JNI crossing.
    pub jni_call_ns: u64,
    /// Java-marshalling surcharge per byte. Our hand-rolled Rust codec is
    /// an order of magnitude cheaper than the JBoss Marshalling stack the
    /// paper's Infinispan uses; this calibrated surcharge restores the
    /// measured Java cost (Figure 8: FS/NullFS/TmpFS land at 2.11-6.26x
    /// the Volatile baseline for 1 KB records).
    pub marshal_ns_per_byte: u64,
    /// JNI crossings per PCJ map operation (get/put each traverse the
    /// bridge several times: enter, per-argument pinning, exit).
    pub jni_calls_per_op: u64,
}

impl CostModel {
    /// The calibration used by the benchmark harnesses.
    pub const fn default_model() -> CostModel {
        CostModel {
            syscall_read_ns: 1_500,
            syscall_write_ns: 2_500,
            jni_call_ns: 900,
            jni_calls_per_op: 4,
            marshal_ns_per_byte: 14,
        }
    }

    /// All-zero costs (unit tests).
    pub const fn free() -> CostModel {
        CostModel {
            syscall_read_ns: 0,
            syscall_write_ns: 0,
            jni_call_ns: 0,
            jni_calls_per_op: 0,
            marshal_ns_per_byte: 0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::default_model()
    }
}
