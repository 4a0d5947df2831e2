//! # jnvm-ycsb — a reimplementation of the Yahoo! Cloud Serving Benchmark
//!
//! Provides the pieces of YCSB 0.18 the paper's evaluation uses (§5.2):
//!
//! * the standard **workloads A–F** (E excluded, as in the paper) with
//!   their operation mixes and request distributions,
//! * the **zipfian**, **scrambled zipfian**, **latest** and **uniform**
//!   request generators,
//! * a multi-threaded **runner** that drives any store implementing
//!   [`KvClient`], recording per-operation latency into log-bucketed
//!   histograms and reporting throughput, completion time and tail
//!   percentiles.
//!
//! Default parameters mirror the paper: 10 fields of 100 B per record,
//! zipfian/latest request patterns, sequential (single-threaded) clients
//! unless a thread count is given. Record counts are scaled down by the
//! harness flags (EXPERIMENTS.md records the scale in use).

mod generator;
mod runner;
mod workload;

pub use generator::{
    fnv1a_64, Generator, LatestGenerator, ScrambledZipfianGenerator, UniformGenerator,
    ZipfianGenerator,
};
// The histogram moved down the crate graph into `jnvm-obs` (the metrics
// registry needs it below `jnvm-pmem`); re-exported here so runner users
// keep their import paths.
pub use jnvm_obs::{Histogram, HistogramSummary};
pub use runner::{run_load, run_workload, KvClient, OpKind, RunReport};
pub use workload::{RequestDistribution, Workload, WorkloadSpec};

/// Format a YCSB record key from its number ("user" + zero-padded id).
pub fn record_key(num: u64) -> String {
    format!("user{num:012}")
}

/// Deterministically generate a field value of `len` bytes.
pub fn field_value(rng: &mut impl rand::RngExt, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}
