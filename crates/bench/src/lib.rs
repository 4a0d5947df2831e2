//! # jnvm-bench — regenerators for every table and figure of the paper
//!
//! One binary per experiment (see DESIGN.md §4 for the full index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1_gc_cache_ratio` | Figure 1 (G1 cache-ratio study) |
//! | `fig2_gopmem_scaling` | Figure 2 (go-pmem dataset scaling) |
//! | `table1_deletion_sites` | Table 1 (deletion-site counts) |
//! | `fig7_ycsb_backends` | Figure 7 (YCSB across backends) |
//! | `fig8_record_size` | Figure 8 (marshalling cost vs record size) |
//! | `fig9_sensitivity` | Figure 9 a–d (workload sensitivity) |
//! | `fig10_multithreading` | Figure 10 (thread scaling) |
//! | `fig11_recovery` | Figure 11 (crash/recovery timeline) |
//! | `fig11_crash_point_sweep` | Figure 11 companion: exhaustive crash-point sweep of the §4.2 commit sequence |
//! | `fig12_pdt_vs_volatile` | Figure 12 (persistent vs volatile types) |
//! | `table3_block_access` | Table 3 (raw block access throughput) |
//! | `run_all` | everything above, default scaled parameters |
//!
//! All binaries accept `--key value` flags (`--records`, `--ops`,
//! `--scale`, `--out` ...) and write CSV series into `results/` in addition
//! to printing paper-style tables.

pub mod adapter;
pub mod output;
pub mod setup;

pub use adapter::GridClient;
pub use jnvm_server::Args;
pub use output::{write_csv, Table};
pub use setup::{make_grid, BackendKind, GridSetup};
