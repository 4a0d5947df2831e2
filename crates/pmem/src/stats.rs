//! Operation counters of the device.
//!
//! Every counter is **sharded**: each thread bumps a cache-line-padded
//! cell picked by a thread-local slot, and readers sum the cells. With the
//! parallel recovery engine N workers hammer these counters on every
//! device op; a single `AtomicU64` per counter serializes them on one
//! contended line and shows up in the recovery thread-scaling bench.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shards per counter. Power of two, comfortably above the recovery
/// thread counts exercised in the benches.
const SHARDS: usize = 16;

/// This thread's shard slot, assigned round-robin at first use.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SLOT.with(|s| *s)
}

/// One shard cell, padded onto its own cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Cell(AtomicU64);

/// A `u64` counter striped over [`SHARDS`] cells. Writers touch only their
/// own thread's cell; `sum` merges on read.
#[derive(Debug, Default)]
pub(crate) struct ShardedU64 {
    cells: [Cell; SHARDS],
}

impl ShardedU64 {
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.cells[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Internal sharded counters; every device operation bumps one of these.
#[derive(Debug, Default)]
pub struct PmemStats {
    pub(crate) reads: ShardedU64,
    pub(crate) writes: ShardedU64,
    pub(crate) bytes_read: ShardedU64,
    pub(crate) bytes_written: ShardedU64,
    pub(crate) pwbs: ShardedU64,
    pub(crate) pfences: ShardedU64,
    pub(crate) psyncs: ShardedU64,
    pub(crate) crashes: ShardedU64,
    pub(crate) injected_crashes: ShardedU64,
    pub(crate) secondary_unwinds: ShardedU64,
    pub(crate) ordering_points: ShardedU64,
    pub(crate) san_violations: ShardedU64,
    pub(crate) redundant_pwbs: ShardedU64,
    pub(crate) redundant_fences: ShardedU64,
}

impl PmemStats {
    pub(crate) fn record_read(&self, bytes: u64) {
        self.reads.add(1);
        self.bytes_read.add(bytes);
    }

    pub(crate) fn record_write(&self, bytes: u64) {
        self.writes.add(1);
        self.bytes_written.add(bytes);
    }

    /// Capture a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.sum(),
            writes: self.writes.sum(),
            bytes_read: self.bytes_read.sum(),
            bytes_written: self.bytes_written.sum(),
            pwbs: self.pwbs.sum(),
            pfences: self.pfences.sum(),
            psyncs: self.psyncs.sum(),
            crashes: self.crashes.sum(),
            injected_crashes: self.injected_crashes.sum(),
            secondary_unwinds: self.secondary_unwinds.sum(),
            ordering_points: self.ordering_points.sum(),
            san_violations: self.san_violations.sum(),
            redundant_pwbs: self.redundant_pwbs.sum(),
            redundant_fences: self.redundant_fences.sum(),
        }
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.reads.reset();
        self.writes.reset();
        self.bytes_read.reset();
        self.bytes_written.reset();
        self.pwbs.reset();
        self.pfences.reset();
        self.psyncs.reset();
        self.crashes.reset();
        self.injected_crashes.reset();
        self.secondary_unwinds.reset();
        self.ordering_points.reset();
        self.san_violations.reset();
        self.redundant_pwbs.reset();
        self.redundant_fences.reset();
    }
}

/// A point-in-time copy of the device counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// `pwb` invocations.
    pub pwbs: u64,
    /// `pfence` invocations.
    pub pfences: u64,
    /// `psync` invocations.
    pub psyncs: u64,
    /// Simulated power failures.
    pub crashes: u64,
    /// Power failures triggered by the crash-point injection engine
    /// (a subset of `crashes`).
    pub injected_crashes: u64,
    /// Threads stopped by an injected crash they did not trigger (their
    /// first op against the frozen device unwound).
    pub secondary_unwinds: u64,
    /// Labeled [`crate::Pmem::ordering_point`] emissions (FA commit and
    /// retire, allocator publish, recovery apply). Counted in every
    /// sanitizer mode, including `Off`.
    pub ordering_points: u64,
    /// Persist-ordering violations the sanitizer detected (`Log` mode
    /// records them; `Strict` panics after counting the first).
    pub san_violations: u64,
    /// Wasted flushes: `pwb`s of already-clean lines, and of lines the
    /// caller itself already has pending. Tracked only when the sanitizer
    /// is on.
    pub redundant_pwbs: u64,
    /// Fences with no intervening `pwb` on the fencing thread — wasted
    /// ordering points. Tracked only when the sanitizer is on.
    pub redundant_fences: u64,
}

impl StatsSnapshot {
    /// Number of counters in the snapshot (the length of [`Self::to_array`]).
    pub const FIELDS: usize = 14;

    /// Field names, in [`Self::to_array`] order.
    pub const FIELD_NAMES: [&'static str; Self::FIELDS] = [
        "reads",
        "writes",
        "bytes_read",
        "bytes_written",
        "pwbs",
        "pfences",
        "psyncs",
        "crashes",
        "injected_crashes",
        "secondary_unwinds",
        "ordering_points",
        "san_violations",
        "redundant_pwbs",
        "redundant_fences",
    ];

    /// Every counter as a fixed-size array, in [`Self::FIELD_NAMES`] order.
    ///
    /// The **exhaustive** destructuring (no `..`) is the completeness
    /// guard: adding a field to the struct without threading it through
    /// here — and therefore through [`Self::delta`] and [`Self::absorb`],
    /// which are implemented on top of the array — is a compile error,
    /// not a silently-missing counter (this struct grew by hand twice
    /// before, each time risking exactly that).
    pub fn to_array(&self) -> [u64; Self::FIELDS] {
        let StatsSnapshot {
            reads,
            writes,
            bytes_read,
            bytes_written,
            pwbs,
            pfences,
            psyncs,
            crashes,
            injected_crashes,
            secondary_unwinds,
            ordering_points,
            san_violations,
            redundant_pwbs,
            redundant_fences,
        } = *self;
        [
            reads,
            writes,
            bytes_read,
            bytes_written,
            pwbs,
            pfences,
            psyncs,
            crashes,
            injected_crashes,
            secondary_unwinds,
            ordering_points,
            san_violations,
            redundant_pwbs,
            redundant_fences,
        ]
    }

    /// Inverse of [`Self::to_array`].
    pub fn from_array(a: [u64; Self::FIELDS]) -> StatsSnapshot {
        let [reads, writes, bytes_read, bytes_written, pwbs, pfences, psyncs, crashes, injected_crashes, secondary_unwinds, ordering_points, san_violations, redundant_pwbs, redundant_fences] =
            a;
        StatsSnapshot {
            reads,
            writes,
            bytes_read,
            bytes_written,
            pwbs,
            pfences,
            psyncs,
            crashes,
            injected_crashes,
            secondary_unwinds,
            ordering_points,
            san_violations,
            redundant_pwbs,
            redundant_fences,
        }
    }

    /// Counter-wise difference `self - earlier`, for measuring an interval.
    ///
    /// Saturating: if [`crate::Pmem::reset_stats`] ran between the two
    /// snapshots, `earlier` may exceed `self`; the difference clamps to 0
    /// instead of panicking in debug builds / wrapping in release builds.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut a = self.to_array();
        for (v, e) in a.iter_mut().zip(earlier.to_array()) {
            *v = v.saturating_sub(e);
        }
        StatsSnapshot::from_array(a)
    }

    /// Labeled ordering points emitted via [`crate::Pmem::ordering_point`]
    /// — FA commits and retires, allocator publishes, recovery applies.
    /// Formerly the bare `pfence + psync` count; the labeled emissions are
    /// the honest denominator of the acked-durability assertion: group
    /// commit is working when ordering points per acknowledged write sit
    /// well below one under pipelined load.
    pub fn ordering_points(&self) -> u64 {
        self.ordering_points
    }

    /// Counter-wise accumulate `other` into `self` — the aggregation a
    /// sharded engine needs to report one fleet-wide snapshot over N
    /// disjoint devices. Totals (not maxima): a fleet snapshot answers
    /// "how much device work happened", while per-shard critical-path
    /// comparisons should keep the snapshots separate.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        let mut a = self.to_array();
        for (v, o) in a.iter_mut().zip(other.to_array()) {
            *v += o;
        }
        *self = StatsSnapshot::from_array(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_saturates_after_reset() {
        let before = StatsSnapshot {
            reads: 10,
            writes: 10,
            ..StatsSnapshot::default()
        };
        let after = StatsSnapshot {
            reads: 3,
            writes: 0,
            pwbs: 5,
            ..StatsSnapshot::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.reads, 0);
        assert_eq!(d.writes, 0);
        assert_eq!(d.pwbs, 5);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let a = StatsSnapshot {
            reads: 1,
            writes: 2,
            bytes_read: 3,
            bytes_written: 4,
            pwbs: 5,
            pfences: 6,
            psyncs: 7,
            crashes: 8,
            injected_crashes: 9,
            secondary_unwinds: 10,
            ordering_points: 11,
            san_violations: 12,
            redundant_pwbs: 13,
            redundant_fences: 14,
        };
        let mut total = a;
        total.absorb(&a);
        // Doubling every field catches a counter forgotten in absorb.
        let twice = StatsSnapshot {
            reads: 2,
            writes: 4,
            bytes_read: 6,
            bytes_written: 8,
            pwbs: 10,
            pfences: 12,
            psyncs: 14,
            crashes: 16,
            injected_crashes: 18,
            secondary_unwinds: 20,
            ordering_points: 22,
            san_violations: 24,
            redundant_pwbs: 26,
            redundant_fences: 28,
        };
        assert_eq!(total, twice);
        assert_eq!(total.ordering_points(), 22);
    }

    #[test]
    fn array_roundtrip_covers_every_field() {
        // A distinct value per field: from_array(to_array(s)) == s proves
        // the two orderings agree field-for-field.
        let a: [u64; StatsSnapshot::FIELDS] = std::array::from_fn(|i| (i as u64 + 1) * 1_000_003);
        let s = StatsSnapshot::from_array(a);
        assert_eq!(s.to_array(), a);
        assert_eq!(StatsSnapshot::from_array(s.to_array()), s);
        assert_eq!(StatsSnapshot::FIELD_NAMES.len(), StatsSnapshot::FIELDS);
    }
}
