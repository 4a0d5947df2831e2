//! # jnvm-pmem — simulated Non-Volatile Main Memory
//!
//! This crate is the hardware substitute for the Intel Optane DC persistent
//! memory used by the J-NVM paper (SOSP '21). It provides a byte-addressable
//! memory pool together with the three architecture-agnostic persistence
//! primitives of Izraelevitz et al. that the paper adds to the HotSpot JVM:
//!
//! * [`Pmem::pwb`] — *persistent write-back*: enqueue the cache line holding
//!   an address into the write-pending queue (models `clwb`),
//! * [`Pmem::pfence`] — order preceding `pwb`s/stores before succeeding ones
//!   and drain the write-pending queue to media (models `sfence` under ADR),
//! * [`Pmem::psync`] — like `pfence`, additionally guaranteeing that pending
//!   lines reached the media (the paper implements both with `sfence`).
//!
//! ## Simulation modes
//!
//! * [`SimMode::Performance`] — a single in-memory array; persistence
//!   primitives only update statistics and inject calibrated latency. Used by
//!   the benchmark harnesses.
//! * [`SimMode::CrashSim`] — the same single array plus per-line dirty
//!   state and a shadow holding the persisted content of the lines that
//!   are not clean. [`Pmem::crash`] simulates a power failure: every line
//!   that was not explicitly written back *may or may not* have reached
//!   the media (seeded, configurable eviction probability); the ones that
//!   did not are rolled back to their shadow. This is strictly harsher than the
//!   paper's SIGKILL experiments and is the substrate for all
//!   crash-consistency tests in the workspace.
//!
//! ## Addressing
//!
//! All addresses are **byte offsets relative to the pool base**, never
//! absolute pointers, mirroring the paper's relocatable-heap requirement
//! (§4.4). Sub-word and unaligned accesses are supported; aligned accesses
//! take a fast path.

mod config;
mod device;
mod inject;
#[cfg(test)]
mod proptests;
mod error;
mod image;
mod latency;
mod sanitize;
mod stats;

pub use config::{CrashPolicy, FaultMode, FaultPlan, LatencyProfile, PmemConfig, SimMode};
pub use device::{Pmem, CACHE_LINE};
pub use error::PmemError;
pub use inject::{
    catch_crash, hush_panics, silence_crash_panics, CrashInjected, FaultOp, PanicHush, TraceRecord,
};
pub use latency::{spin_ns, thread_charged_ns};
pub use sanitize::{SanViolation, SanViolationKind, SanitizeMode};
pub use stats::{PmemStats, StatsSnapshot};
