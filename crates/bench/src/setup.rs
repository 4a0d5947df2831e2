//! Construction of grids over each of the paper's backends.

use std::sync::Arc;

use jnvm::{Jnvm, JnvmBuilder};
use jnvm_heap::HeapConfig;
use jnvm_kvstore::{
    register_kvstore, Backend, CostModel, DataGrid, FsBackend, GridConfig, JnvmBackend,
    NullFsBackend, PcjBackend, TmpfsBackend, VolatileBackend,
};
use jnvm_pmem::{LatencyProfile, Pmem, PmemConfig, SanitizeMode, SimMode};

/// The persistent backends of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// J-PDT (low-level interface).
    Jpdt,
    /// J-PFA (failure-atomic blocks).
    Jpfa,
    /// File system over NVMM.
    Fs,
    /// File system over DRAM.
    Tmpfs,
    /// Black-hole file system.
    Nullfs,
    /// PCJ over a simulated JNI bridge.
    Pcj,
    /// Persistence disabled.
    Volatile,
}

impl BackendKind {
    /// The four persistent backends of Figure 7.
    pub const FIGURE7: [BackendKind; 4] = [
        BackendKind::Jpdt,
        BackendKind::Jpfa,
        BackendKind::Fs,
        BackendKind::Pcj,
    ];

    /// The four backends of Figure 8.
    pub const FIGURE8: [BackendKind; 4] = [
        BackendKind::Volatile,
        BackendKind::Nullfs,
        BackendKind::Tmpfs,
        BackendKind::Fs,
    ];

    /// Short name.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Jpdt => "J-PDT",
            BackendKind::Jpfa => "J-PFA",
            BackendKind::Fs => "FS",
            BackendKind::Tmpfs => "TmpFS",
            BackendKind::Nullfs => "NullFS",
            BackendKind::Pcj => "PCJ",
            BackendKind::Volatile => "Volatile",
        }
    }

    /// Parse a label (case-insensitive, dashes optional).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().replace('-', "").as_str() {
            "jpdt" => Some(BackendKind::Jpdt),
            "jpfa" => Some(BackendKind::Jpfa),
            "fs" => Some(BackendKind::Fs),
            "tmpfs" => Some(BackendKind::Tmpfs),
            "nullfs" => Some(BackendKind::Nullfs),
            "pcj" => Some(BackendKind::Pcj),
            "volatile" => Some(BackendKind::Volatile),
            _ => None,
        }
    }
}

/// A constructed grid plus the handles the harness may need afterwards.
pub struct GridSetup {
    /// The grid.
    pub grid: Arc<DataGrid>,
    /// The device (persistent backends).
    pub pmem: Option<Arc<Pmem>>,
    /// The J-NVM runtime (J-NVM backends).
    pub rt: Option<Jnvm>,
}

fn record_footprint(field_count: usize, field_len: usize) -> u64 {
    // Generous per-record NVMM footprint estimate: field blobs (+ headers
    // and pool slack), record object, map entry, key string, array cell.
    let blob = |len: u64| {
        if len + 8 <= 232 {
            ((len + 16).next_multiple_of(24)).max(24)
        } else {
            (len + 8).div_ceil(248) * 256
        }
    };
    field_count as u64 * blob(field_len as u64) + 3 * 256 + 64
}

/// Build a grid over `kind` sized for `records` YCSB records.
///
/// `cache_ratio` is Infinispan's volatile-cache ratio; the paper runs the
/// J-NVM backends with caching disabled (§5.3.1), so callers pass 0 for
/// them. `optane` selects Optane-like device latency (off = unit tests).
pub fn make_grid(
    kind: BackendKind,
    records: u64,
    field_count: usize,
    field_len: usize,
    cache_ratio: f64,
    optane: bool,
) -> GridSetup {
    let cache_capacity = (records as f64 * cache_ratio) as usize;
    let grid_cfg = GridConfig { cache_capacity };
    let lat = |on: bool| {
        if on {
            LatencyProfile::optane_like()
        } else {
            LatencyProfile::off()
        }
    };
    let costs = if optane {
        CostModel::default_model()
    } else {
        CostModel::free()
    };
    let encoded_max = 32 + 64 + field_count as u64 * (16 + field_len as u64) + 256;
    match kind {
        BackendKind::Volatile => GridSetup {
            grid: Arc::new(DataGrid::new(Arc::new(VolatileBackend::new()), grid_cfg)),
            pmem: None,
            rt: None,
        },
        BackendKind::Nullfs => GridSetup {
            grid: Arc::new(DataGrid::new(Arc::new(NullFsBackend::new()), grid_cfg)),
            pmem: None,
            rt: None,
        },
        BackendKind::Tmpfs => {
            let pool = (records * 2 + 64) * encoded_max.next_multiple_of(64);
            let pmem = Pmem::new(PmemConfig {
                size: pool,
                mode: SimMode::Performance,
                latency: LatencyProfile::off(),
                sanitize: SanitizeMode::from_env(),
                label: String::new(),
            });
            let be: Arc<dyn Backend> =
                Arc::new(TmpfsBackend::new(Arc::clone(&pmem), encoded_max, costs));
            GridSetup {
                grid: Arc::new(DataGrid::new(be, grid_cfg)),
                pmem: Some(pmem),
                rt: None,
            }
        }
        BackendKind::Fs => {
            let pool = (records * 2 + 64) * encoded_max.next_multiple_of(64);
            let pmem = Pmem::new(PmemConfig {
                size: pool,
                mode: SimMode::Performance,
                latency: lat(optane),
                sanitize: SanitizeMode::from_env(),
                label: String::new(),
            });
            let be: Arc<dyn Backend> =
                Arc::new(FsBackend::new(Arc::clone(&pmem), encoded_max, costs));
            GridSetup {
                grid: Arc::new(DataGrid::new(be, grid_cfg)),
                pmem: Some(pmem),
                rt: None,
            }
        }
        BackendKind::Jpdt | BackendKind::Jpfa => {
            let pool =
                (records * 3 / 2 + 1024) * record_footprint(field_count, field_len) + (64 << 20);
            let pmem = Pmem::new(PmemConfig {
                size: pool,
                mode: SimMode::Performance,
                latency: lat(optane),
                sanitize: SanitizeMode::from_env(),
                label: String::new(),
            });
            let rt = register_kvstore(JnvmBuilder::new())
                .create(Arc::clone(&pmem), HeapConfig::default())
                .expect("pool creation");
            let be: Arc<dyn Backend> =
                Arc::new(JnvmBackend::create(&rt, 64, kind == BackendKind::Jpfa).expect("backend"));
            GridSetup {
                grid: Arc::new(DataGrid::new(be, grid_cfg)),
                pmem: Some(pmem),
                rt: Some(rt),
            }
        }
        BackendKind::Pcj => {
            // PCJ stores one marshalled blob per record.
            let blob = encoded_max.div_ceil(248) * 256 + 512;
            let pool = (records * 2 + 1024) * blob + (64 << 20);
            let pmem = Pmem::new(PmemConfig {
                size: pool,
                mode: SimMode::Performance,
                latency: lat(optane),
                sanitize: SanitizeMode::from_env(),
                label: String::new(),
            });
            let rt = register_kvstore(JnvmBuilder::new())
                .create(Arc::clone(&pmem), HeapConfig::default())
                .expect("pool creation");
            let be: Arc<dyn Backend> =
                Arc::new(PcjBackend::create(&rt, 64, costs).expect("backend"));
            GridSetup {
                grid: Arc::new(DataGrid::new(be, grid_cfg)),
                pmem: Some(pmem),
                rt: Some(rt),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnvm_kvstore::Record;

    #[test]
    fn every_backend_round_trips() {
        for kind in [
            BackendKind::Jpdt,
            BackendKind::Jpfa,
            BackendKind::Fs,
            BackendKind::Tmpfs,
            BackendKind::Pcj,
            BackendKind::Volatile,
        ] {
            let setup = make_grid(kind, 100, 4, 32, 0.1, false);
            let rec = Record::ycsb("user000000000001", &vec![vec![7u8; 32]; 4]);
            assert!(setup.grid.insert(&rec), "{kind:?} insert");
            assert_eq!(setup.grid.read(&rec.key).unwrap(), rec, "{kind:?} read");
            assert!(
                setup.grid.update_field(&rec.key, 2, &[9u8; 32]),
                "{kind:?} update"
            );
            assert_eq!(
                setup.grid.read(&rec.key).unwrap().fields.value(2),
                vec![9u8; 32],
                "{kind:?} after update"
            );
        }
    }

    #[test]
    fn nullfs_grid_swallows() {
        let setup = make_grid(BackendKind::Nullfs, 10, 2, 8, 0.0, false);
        let rec = Record::ycsb("k", &vec![vec![1u8; 8]; 2]);
        assert!(setup.grid.insert(&rec));
        assert!(setup.grid.read("k").is_none());
    }

    #[test]
    fn labels_parse() {
        for k in BackendKind::FIGURE7
            .iter()
            .chain(BackendKind::FIGURE8.iter())
        {
            assert_eq!(BackendKind::parse(k.label()), Some(*k));
        }
    }
}
