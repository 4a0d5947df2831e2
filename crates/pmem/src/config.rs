//! Device configuration: size, simulation mode, latency profile, crash
//! policy, persist-ordering sanitizer mode.

use crate::sanitize::SanitizeMode;

/// How faithfully the device models persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Single in-memory array. `pwb`/`pfence`/`psync` only account statistics
    /// and inject latency. Crash simulation is unavailable. The paper-figure
    /// harnesses (`jnvm-bench`) run in this mode; the benchmark
    /// (`benchmark/`) does not — it runs [`SimMode::CrashSim`] with
    /// [`LatencyProfile::optane_like`], because every one of its runs ends
    /// in a power failure and a recovery.
    Performance,
    /// Per-line dirty tracking plus a shadow of the persisted content of
    /// the lines that are not clean. [`crate::Pmem::crash`] is available.
    /// One copy of the pool in memory (the shadow is as large as the set of
    /// unfenced lines) and slower stores; intended for correctness tests.
    ///
    /// Persistence domains are **per thread**, mirroring x86 semantics: a
    /// `pwb` enqueues the line on the calling thread's write-pending queue
    /// and a `pfence`/`psync` drains only that thread's queue. Lines another
    /// thread has `pwb`ed but not yet fenced are still *unpersisted* at a
    /// crash (they fall under the eviction coin of the [`CrashPolicy`] like
    /// any dirty line). Code that flushes on one thread and fences on
    /// another is therefore not crash-consistent, and the simulator will
    /// catch it.
    CrashSim,
}

/// Latency injected per device operation, in nanoseconds.
///
/// The defaults of [`LatencyProfile::optane_like`] are calibrated from the
/// Optane DC measurements of Izraelevitz et al. ("Basic Performance
/// Measurements of the Intel Optane DC Persistent Memory Module", 2019),
/// which the paper cites: NVMM reads ~2-3x DRAM latency, `clwb` tens of
/// nanoseconds, and an `sfence` with a non-empty write-pending queue on the
/// order of 100 ns. Absolute numbers do not matter for the reproduction —
/// only the asymmetries they create.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Extra nanoseconds charged per cache line touched by a read.
    pub read_line_ns: u64,
    /// Extra nanoseconds charged per cache line touched by a write.
    pub write_line_ns: u64,
    /// Nanoseconds charged per `pwb`.
    pub pwb_ns: u64,
    /// Nanoseconds charged per `pfence`.
    pub pfence_ns: u64,
    /// Nanoseconds charged per `psync`.
    pub psync_ns: u64,
}

impl LatencyProfile {
    /// No injected latency at all (unit tests, CI, and the `TmpFS` backend,
    /// which stores files in volatile memory).
    pub const fn off() -> Self {
        LatencyProfile {
            read_line_ns: 0,
            write_line_ns: 0,
            pwb_ns: 0,
            pfence_ns: 0,
            psync_ns: 0,
        }
    }

    /// Optane-DC-like timing asymmetries (see type-level docs).
    ///
    /// The read charge is an *effective* per-line cost: raw Optane reads
    /// are ~300 ns, but the CPU cache absorbs most accesses to hot lines
    /// under skewed workloads, which the simulator does not model
    /// per-line. 30 ns/line reproduces the end-to-end read latencies the
    /// paper reports for proxy access (§5.3.1).
    pub const fn optane_like() -> Self {
        LatencyProfile {
            read_line_ns: 30,
            write_line_ns: 0,
            pwb_ns: 70,
            pfence_ns: 110,
            psync_ns: 130,
        }
    }

    /// True when every field is zero, allowing the hot path to skip the
    /// calibrated spin entirely.
    pub fn is_off(&self) -> bool {
        self.read_line_ns == 0
            && self.write_line_ns == 0
            && self.pwb_ns == 0
            && self.pfence_ns == 0
            && self.psync_ns == 0
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        LatencyProfile::off()
    }
}

/// Construction parameters for a [`crate::Pmem`] pool.
#[derive(Debug, Clone)]
pub struct PmemConfig {
    /// Pool size in bytes. Rounded up to a whole number of cache lines.
    pub size: u64,
    /// Simulation fidelity.
    pub mode: SimMode,
    /// Injected latency per operation.
    pub latency: LatencyProfile,
    /// Persist-ordering sanitizer mode (see `sanitize.rs`). The
    /// constructors default it from the `JNVM_SANITIZE` environment
    /// variable, so `JNVM_SANITIZE=strict cargo test` audits every pool
    /// a test creates.
    pub sanitize: SanitizeMode,
    /// Human-readable device identity (e.g. `"shard0/primary"`), carried
    /// into crash-plan reports so a multi-device harness can say *which*
    /// replica's device a fault plan was armed on. Empty by default.
    pub label: String,
}

impl PmemConfig {
    /// A `CrashSim` pool with no injected latency — the right default for
    /// tests.
    pub fn crash_sim(size: u64) -> Self {
        PmemConfig {
            size,
            mode: SimMode::CrashSim,
            latency: LatencyProfile::off(),
            sanitize: SanitizeMode::from_env(),
            label: String::new(),
        }
    }

    /// A `Performance` pool with no injected latency.
    pub fn perf(size: u64) -> Self {
        PmemConfig {
            size,
            mode: SimMode::Performance,
            latency: LatencyProfile::off(),
            sanitize: SanitizeMode::from_env(),
            label: String::new(),
        }
    }

    /// A `Performance` pool with Optane-like latency — what the paper-figure
    /// harnesses of `jnvm-bench` run on (the benchmark's pools are
    /// `CrashSim` ones with the same latency).
    pub fn optane(size: u64) -> Self {
        PmemConfig {
            size,
            mode: SimMode::Performance,
            latency: LatencyProfile::optane_like(),
            sanitize: SanitizeMode::from_env(),
            label: String::new(),
        }
    }

    /// Replace the sanitizer mode (overriding the `JNVM_SANITIZE` default).
    pub fn with_sanitize(mut self, mode: SanitizeMode) -> Self {
        self.sanitize = mode;
        self
    }

    /// Attach a device identity label (see [`PmemConfig::label`]).
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }
}

/// What the crash-point injection engine does once armed
/// (see [`crate::Pmem::arm_faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Count (and trace) persistence-relevant operations without crashing.
    /// Used by sweep drivers to learn how many crash points a workload has.
    Count,
    /// Simulate a power failure immediately **before** the Nth (0-based)
    /// counted operation executes, then unwind the workload with a
    /// [`crate::CrashInjected`] panic.
    CrashAt(u64),
}

/// A crash-point injection plan: when to crash and what the simulated
/// power failure does to unflushed cache lines.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Count only, or crash before the Nth operation.
    pub mode: FaultMode,
    /// Line-survival policy applied by the injected crash.
    pub policy: CrashPolicy,
}

impl FaultPlan {
    /// Count and trace operations; never crash.
    pub const fn count() -> Self {
        FaultPlan {
            mode: FaultMode::Count,
            policy: CrashPolicy::strict(),
        }
    }

    /// Crash with [`CrashPolicy::strict`] before the Nth (0-based)
    /// persistence-relevant operation.
    pub const fn crash_at(n: u64) -> Self {
        FaultPlan {
            mode: FaultMode::CrashAt(n),
            policy: CrashPolicy::strict(),
        }
    }

    /// Replace the injected crash's line-survival policy.
    pub const fn with_policy(mut self, policy: CrashPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// What happens to not-yet-persisted cache lines when the power fails.
#[derive(Debug, Clone, Copy)]
pub struct CrashPolicy {
    /// Probability that a dirty (or pending-but-unfenced) line nevertheless
    /// reaches the media before power is lost — cache eviction and
    /// in-flight write-pending-queue drain can both persist data the program
    /// never fenced.
    pub evict_probability: f64,
    /// Seed for the per-line persistence coin flips.
    pub seed: u64,
}

impl CrashPolicy {
    /// Nothing unflushed survives. The most deterministic policy: exactly the
    /// fenced state is visible after the crash.
    pub const fn strict() -> Self {
        CrashPolicy {
            evict_probability: 0.0,
            seed: 0,
        }
    }

    /// Every unflushed line independently survives with probability 1/2.
    /// Catches code that *relies* on data not persisting as well as code
    /// that forgets to flush.
    pub const fn adversarial(seed: u64) -> Self {
        CrashPolicy {
            evict_probability: 0.5,
            seed,
        }
    }

    /// Everything dirty survives (an orderly-shutdown-like crash).
    pub const fn lenient() -> Self {
        CrashPolicy {
            evict_probability: 1.0,
            seed: 0,
        }
    }
}
