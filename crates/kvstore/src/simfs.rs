//! A minimal file-per-key store over a pmem pool — the DAX-ext4 stand-in
//! behind the FS and TmpFS backends.
//!
//! Layout: a slot array on the device. Each slot:
//!
//! ```text
//! [state u32][keylen u32][datalen u32][pad u32][key .. data ..]
//! ```
//!
//! `state` = 0 free, 1 live. A volatile directory (key → slot) is rebuilt
//! by scanning the device at open — that scan is the FS restart cost
//! Figure 11 charges the FS backend with. Every operation pays a modeled
//! syscall cost and marshals whole records through the codec, matching the
//! paper's external design.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use jnvm_pmem::{spin_ns, Pmem};

use crate::backend::Backend;
use crate::codec::{decode_record, encode_record, Record};
use crate::CostModel;

const SLOT_HEADER: u64 = 16;
const ST_FREE: u32 = 0;
const ST_LIVE: u32 = 1;

/// The file-per-key store.
pub struct SimFs {
    pmem: Arc<Pmem>,
    slot_size: u64,
    nslots: u64,
    dir: RwLock<Dir>,
    costs: CostModel,
}

struct Dir {
    map: HashMap<String, u64>,
    free: Vec<u64>,
}

impl SimFs {
    /// Format a store whose files can hold up to `max_file_bytes`.
    pub fn format(pmem: Arc<Pmem>, max_file_bytes: u64, costs: CostModel) -> SimFs {
        let slot_size = (SLOT_HEADER + max_file_bytes).next_multiple_of(64);
        let nslots = pmem.len() / slot_size;
        let dir = Dir {
            map: HashMap::new(),
            free: (0..nslots).rev().collect(),
        };
        SimFs {
            pmem,
            slot_size,
            nslots,
            dir: RwLock::new(dir),
            costs,
        }
    }

    /// Mount an existing store: scan every slot to rebuild the directory
    /// (the expensive FS restart the paper measures).
    pub fn mount(pmem: Arc<Pmem>, max_file_bytes: u64, costs: CostModel) -> SimFs {
        let fs = SimFs::format(pmem, max_file_bytes, costs);
        let mut dir = Dir {
            map: HashMap::new(),
            free: Vec::new(),
        };
        for slot in 0..fs.nslots {
            let base = slot * fs.slot_size;
            if fs.pmem.read_u32(base) == ST_LIVE {
                let keylen = fs.pmem.read_u32(base + 4) as usize;
                let mut key = vec![0u8; keylen.min(fs.slot_size as usize)];
                fs.pmem.read_bytes(base + SLOT_HEADER, &mut key);
                dir.map
                    .insert(String::from_utf8_lossy(&key).into_owned(), slot);
            } else {
                dir.free.push(slot);
            }
        }
        dir.free.reverse();
        *fs.dir.write() = dir;
        fs
    }

    /// The software cost model in force.
    pub fn costs(&self) -> CostModel {
        self.costs
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.dir.read().map.len()
    }

    /// Store capacity in files.
    pub fn capacity(&self) -> u64 {
        self.nslots
    }

    /// Write (create or replace) a file. Returns false when the volume is
    /// full or the content exceeds the file size limit.
    pub fn write_file(&self, key: &str, data: &[u8]) -> bool {
        spin_ns(self.costs.syscall_write_ns);
        if SLOT_HEADER + key.len() as u64 + data.len() as u64 > self.slot_size {
            return false;
        }
        let mut dir = self.dir.write();
        let slot = match dir.map.get(key) {
            Some(s) => *s,
            None => match dir.free.pop() {
                Some(s) => {
                    dir.map.insert(key.to_string(), s);
                    s
                }
                None => return false,
            },
        };
        let base = slot * self.slot_size;
        self.pmem.write_u32(base + 4, key.len() as u32);
        self.pmem.write_u32(base + 8, data.len() as u32);
        self.pmem.write_bytes(base + SLOT_HEADER, key.as_bytes());
        self.pmem
            .write_bytes(base + SLOT_HEADER + key.len() as u64, data);
        self.pmem.write_u32(base, ST_LIVE);
        // DAX write-through: the kernel flushes on msync/fsync semantics.
        self.pmem
            .pwb_range(base, SLOT_HEADER + key.len() as u64 + data.len() as u64);
        self.pmem.pfence();
        true
    }

    /// Read a file's content.
    pub fn read_file(&self, key: &str) -> Option<Vec<u8>> {
        spin_ns(self.costs.syscall_read_ns);
        let dir = self.dir.read();
        let slot = *dir.map.get(key)?;
        let base = slot * self.slot_size;
        let keylen = self.pmem.read_u32(base + 4) as u64;
        let datalen = self.pmem.read_u32(base + 8) as usize;
        let mut data = vec![0u8; datalen];
        self.pmem.read_bytes(base + SLOT_HEADER + keylen, &mut data);
        Some(data)
    }

    /// Delete a file.
    pub fn delete_file(&self, key: &str) -> bool {
        spin_ns(self.costs.syscall_write_ns);
        let mut dir = self.dir.write();
        match dir.map.remove(key) {
            Some(slot) => {
                let base = slot * self.slot_size;
                self.pmem.write_u32(base, ST_FREE);
                self.pmem.pwb(base);
                self.pmem.pfence();
                dir.free.push(slot);
                true
            }
            None => false,
        }
    }
}

/// The FS backend of the paper: marshalling + file system over NVMM.
pub struct FsBackend {
    fs: SimFs,
}

impl FsBackend {
    /// Create over a (typically Optane-profiled) pmem pool.
    pub fn new(pmem: Arc<Pmem>, max_record_bytes: u64, costs: CostModel) -> FsBackend {
        FsBackend {
            fs: SimFs::format(pmem, max_record_bytes, costs),
        }
    }

    /// Re-mount after a restart (pays the full directory scan).
    pub fn mount(pmem: Arc<Pmem>, max_record_bytes: u64, costs: CostModel) -> FsBackend {
        FsBackend {
            fs: SimFs::mount(pmem, max_record_bytes, costs),
        }
    }

    /// The underlying file store.
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }
}

impl Backend for FsBackend {
    fn name(&self) -> &'static str {
        "fs"
    }

    fn store_full(&self, rec: &Record) -> bool {
        let bytes = encode_record(rec);
        spin_ns(self.fs.costs().marshal_ns_per_byte * bytes.len() as u64);
        self.fs.write_file(&rec.key, &bytes)
    }

    fn read(&self, key: &str) -> Option<Record> {
        let bytes = self.fs.read_file(key)?;
        spin_ns(self.fs.costs().marshal_ns_per_byte * bytes.len() as u64);
        decode_record(&bytes)
    }

    fn update_field(&self, key: &str, field: usize, value: &[u8]) -> bool {
        // The external design has no partial update: read-modify-write the
        // whole marshalled record.
        let Some(mut rec) = self.read(key) else {
            return false;
        };
        rec.set_field(field, value) && self.store_full(&rec)
    }

    fn remove(&self, key: &str) -> bool {
        self.fs.delete_file(key)
    }

    fn len(&self) -> usize {
        self.fs.file_count()
    }

    fn prefers_field_updates(&self) -> bool {
        false
    }
}

/// The TmpFS backend: the same file store over DRAM-timed memory.
pub struct TmpfsBackend {
    inner: FsBackend,
}

impl TmpfsBackend {
    /// Create over a DRAM-profiled pool.
    pub fn new(pmem: Arc<Pmem>, max_record_bytes: u64, costs: CostModel) -> TmpfsBackend {
        TmpfsBackend {
            inner: FsBackend::new(pmem, max_record_bytes, costs),
        }
    }
}

impl Backend for TmpfsBackend {
    fn name(&self) -> &'static str {
        "tmpfs"
    }
    fn store_full(&self, rec: &Record) -> bool {
        self.inner.store_full(rec)
    }
    fn read(&self, key: &str) -> Option<Record> {
        self.inner.read(key)
    }
    fn update_field(&self, key: &str, field: usize, value: &[u8]) -> bool {
        self.inner.update_field(key, field, value)
    }
    fn remove(&self, key: &str) -> bool {
        self.inner.remove(key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn prefers_field_updates(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnvm_pmem::PmemConfig;

    fn fs() -> SimFs {
        let pmem = Pmem::new(PmemConfig::perf(4 << 20));
        SimFs::format(pmem, 2048, CostModel::free())
    }

    #[test]
    fn write_read_delete() {
        let fs = fs();
        assert!(fs.write_file("a", b"hello"));
        assert_eq!(fs.read_file("a").unwrap(), b"hello");
        assert!(fs.write_file("a", b"rewritten"));
        assert_eq!(fs.read_file("a").unwrap(), b"rewritten");
        assert_eq!(fs.file_count(), 1);
        assert!(fs.delete_file("a"));
        assert!(fs.read_file("a").is_none());
        assert!(!fs.delete_file("a"));
    }

    #[test]
    fn rejects_oversized_files() {
        let fs = fs();
        assert!(!fs.write_file("big", &vec![0u8; 4096]));
    }

    #[test]
    fn mount_rebuilds_directory() {
        let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
        let fs = SimFs::format(Arc::clone(&pmem), 2048, CostModel::free());
        for i in 0..20 {
            assert!(fs.write_file(&format!("k{i}"), format!("v{i}").as_bytes()));
        }
        fs.delete_file("k7");
        pmem.crash(&jnvm_pmem::CrashPolicy::strict()).unwrap();
        let fs2 = SimFs::mount(pmem, 2048, CostModel::free());
        assert_eq!(fs2.file_count(), 19);
        assert_eq!(fs2.read_file("k3").unwrap(), b"v3");
        assert!(fs2.read_file("k7").is_none());
        // New writes reuse freed slots.
        assert!(fs2.write_file("new", b"x"));
    }

    #[test]
    fn backend_round_trip_with_field_update() {
        let pmem = Pmem::new(PmemConfig::perf(4 << 20));
        let be = FsBackend::new(pmem, 4096, CostModel::free());
        let rec = Record::ycsb("user1", &[b"aaa".to_vec(), b"bbb".to_vec()]);
        assert!(be.store_full(&rec));
        assert_eq!(be.read("user1").unwrap(), rec);
        assert!(be.update_field("user1", 1, b"BBB"));
        assert_eq!(be.read("user1").unwrap().fields.value(1), b"BBB");
        assert!(!be.update_field("user1", 9, b"nope"));
        assert!(!be.update_field("missing", 0, b"nope"));
        assert!(be.remove("user1"));
        assert_eq!(be.len(), 0);
    }

    #[test]
    fn volume_full_reports_failure() {
        let pmem = Pmem::new(PmemConfig::perf(16 * 1024));
        let fs = SimFs::format(pmem, 1000, CostModel::free());
        let cap = fs.capacity();
        for i in 0..cap {
            assert!(fs.write_file(&format!("k{i}"), b"x"));
        }
        assert!(!fs.write_file("overflow", b"x"));
    }
}
