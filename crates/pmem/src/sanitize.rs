//! Persist-ordering sanitizer: audits the flush-then-fence discipline
//! *constructively* on every run, where the crash-point sweeps check it
//! destructively one interleaving at a time.
//!
//! The sanitizer keeps no model of its own: the per-line state machine
//! `clean → dirty → pending → clean`, the per-thread persistence domains
//! and the shadow of what is persisted of each non-clean line live in
//! `device.rs`, advanced once by each store, `pwb` and fence — the same
//! state [`crate::Pmem::crash`] rolls back from. Here
//! live the mode, the violation log and the judgement of a footprint.
//! Annotated code declares *ordering points*: labeled program points
//! whose declared footprint must be fully persisted when execution passes
//! them (FA commit, log retire, allocator publish, recovery apply). The
//! sanitizer reads the device's line state there and flags:
//!
//! * **missing pwb** — a footprint line still dirty at an ordering point,
//! * **missing fence** — a footprint line pending in the *calling*
//!   thread's domain, written back but not yet fenced,
//! * **cross-thread fence** — a footprint line pending in *another*
//!   thread's domain, whose fence the calling thread has no control over,
//! * **redundant flushes** — a `pwb` of an already-clean line or of one
//!   the caller itself already has pending, and back-to-back fences with
//!   no intervening `pwb`, counted by the device into
//!   [`crate::StatsSnapshot`] rather than flagged as violations.
//!
//! A non-clean line the observer itself last touched is judged by its
//! state alone. One last touched by **another** thread may merely share
//! the line with the footprint (two threads' pooled slots), so there the
//! footprint's own words decide: equal to the line's shadow entry — what
//! a crash would roll the line back to — they are durable and nothing is
//! flagged (a `Performance` pool has no shadow and keeps the state-only
//! verdict). The word test is not applied to the observer's own lines
//! because the simulator's fence persists whatever the line holds: store,
//! `pwb`, store again, fence refreshes the shadow entry with the newer
//! value although the discipline was broken.
//!
//! Modes: `Off` (no state, no cost), `Log` (count and record violations),
//! `Strict` (panic at the first violation — CI runs tier-1 this way).
//! Selected per-pool via [`crate::PmemConfig::sanitize`], whose default
//! comes from the `JNVM_SANITIZE` environment variable.

use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;

use crate::device::{Pmem, LINE_CLEAN, LINE_DIRTY};
use crate::CACHE_LINE;

/// Sanitizer mode, per pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeMode {
    /// No line tracking, no checks, no allocation. The default.
    #[default]
    Off,
    /// Track lines, count violations into the stats and record them for
    /// [`crate::Pmem::san_violations`]; never panic.
    Log,
    /// Panic with a diagnostic at the first violation. Redundant flushes
    /// are still only counted.
    Strict,
}

impl SanitizeMode {
    /// Read the mode from the `JNVM_SANITIZE` environment variable:
    /// unset/empty/`off`/`0` → `Off`, `log` → `Log`, `strict` → `Strict`.
    ///
    /// # Panics
    ///
    /// Panics on any other value — a typo must not silently disable the
    /// checker a CI leg believes it turned on.
    pub fn from_env() -> SanitizeMode {
        match std::env::var("JNVM_SANITIZE") {
            Err(_) => SanitizeMode::Off,
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "" | "off" | "0" => SanitizeMode::Off,
                "log" => SanitizeMode::Log,
                "strict" => SanitizeMode::Strict,
                other => panic!("JNVM_SANITIZE={other:?}: expected \"off\", \"log\" or \"strict\""),
            },
        }
    }
}

/// What an ordering/publish point found wrong with a footprint line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanViolationKind {
    /// The line was dirty: never `pwb`ed since its last write.
    MissingPwb,
    /// The line was write-backed by the calling thread but not fenced.
    MissingFence,
    /// The line was write-backed by another thread, whose fence the
    /// calling thread cannot issue (per-thread persistence domains).
    CrossThreadFence,
}

impl SanViolationKind {
    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SanViolationKind::MissingPwb => "missing-pwb",
            SanViolationKind::MissingFence => "missing-fence",
            SanViolationKind::CrossThreadFence => "cross-thread-fence",
        }
    }
}

/// One recorded violation (`Log` mode keeps up to `MAX_RECORDED`).
#[derive(Debug, Clone)]
pub struct SanViolation {
    /// What rule the line broke.
    pub kind: SanViolationKind,
    /// The ordering/publish point's label.
    pub label: String,
    /// Byte address of the offending cache line.
    pub line_addr: u64,
    /// Compact id of the thread that last dirtied / write-backed the
    /// line (assigned per thread at first device access).
    pub owner: u32,
    /// Compact id of the thread that hit the ordering point.
    pub observer: u32,
}

impl std::fmt::Display for SanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at ordering point {:?}: line {:#x} (owner thread #{}, observed by #{})",
            self.kind.name(),
            self.label,
            self.line_addr,
            self.owner,
            self.observer
        )
    }
}

/// Cap on recorded violations — a broken loop must not balloon memory.
const MAX_RECORDED: usize = 4096;

/// Process-wide compact thread id, starting at 1: what the device stamps
/// on a line as its last toucher (`ThreadId` itself is not packable), and
/// the observer id of a violation.
pub(crate) fn san_thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|i| *i)
}

/// The per-pool sanitizer. Allocated only when the mode is not `Off`.
pub(crate) struct Sanitizer {
    pub(crate) mode: SanitizeMode,
    /// Violations recorded in `Log` mode.
    pub(crate) violations: Mutex<Vec<SanViolation>>,
}

impl Sanitizer {
    /// The sanitizer for `mode`: none when `Off`.
    pub(crate) fn new(mode: SanitizeMode) -> Option<Sanitizer> {
        let violations = Mutex::default();
        (mode != SanitizeMode::Off).then_some(Sanitizer { mode, violations })
    }

    fn flag(&self, kind: SanViolationKind, label: &str, line: u64, owner: u32) {
        let v = SanViolation {
            kind,
            label: label.to_string(),
            line_addr: line * CACHE_LINE,
            owner,
            observer: san_thread_id(),
        };
        match self.mode {
            SanitizeMode::Strict => panic!("persist-ordering violation: {v}"),
            _ => {
                let mut log = self.violations.lock();
                if log.len() < MAX_RECORDED {
                    log.push(v);
                }
            }
        }
    }
}

impl Pmem {
    /// Validate a declared footprint at an ordering or publish point
    /// against the device's line state (nothing to do with the sanitizer
    /// off). `publish` relaxes the rule: a line pending in the calling
    /// thread's own domain is acceptable, because the publishing thread's
    /// own later fence covers it.
    pub(crate) fn check_footprint(&self, label: &str, footprint: &[(u64, u64)], publish: bool) {
        let Some(san) = &self.san else { return };
        let me = san_thread_id();
        for &(addr, len) in footprint {
            self.check(addr, len);
            if len == 0 {
                continue;
            }
            for line in addr / CACHE_LINE..=(addr + len - 1) / CACHE_LINE {
                let (state, toucher) = self.line_state(line);
                if state == LINE_CLEAN {
                    continue;
                }
                // Another thread last touched the line: it may only be a
                // neighbour sharing it. The footprint's own words decide.
                let start = line * CACHE_LINE;
                if toucher != me
                    && self.range_is_durable(addr.max(start), (addr + len).min(start + CACHE_LINE))
                {
                    continue;
                }
                let kind = match state {
                    LINE_DIRTY => SanViolationKind::MissingPwb,
                    _ if toucher != me => SanViolationKind::CrossThreadFence,
                    _ if publish => continue,
                    _ => SanViolationKind::MissingFence,
                };
                self.stats.add(crate::stats::Counter::san_violations, 1);
                san.flag(kind, label, line, toucher);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CrashPolicy, PmemConfig};
    use crate::device::Pmem;
    use std::sync::Arc;

    fn pool(mode: SanitizeMode) -> Arc<Pmem> {
        Pmem::new(PmemConfig::crash_sim(4096).with_sanitize(mode))
    }

    // ------------------------------------------------------------------
    // Cache-line boundary handling of pwb_range / zero_range. A range
    // ending exactly on a line boundary must not enqueue (or count) a
    // spurious extra line.
    // ------------------------------------------------------------------

    #[test]
    fn pwb_range_on_exact_line_boundary_flushes_one_line() {
        let p = pool(SanitizeMode::Off);
        p.write_u64(0, 1);
        p.reset_stats();
        p.pwb_range(0, CACHE_LINE); // [0, 64): exactly line 0
        assert_eq!(p.stats().pwbs, 1);
        p.reset_stats();
        p.pwb_range(0, CACHE_LINE + 1); // [0, 65): lines 0 and 1
        assert_eq!(p.stats().pwbs, 2);
        p.reset_stats();
        p.pwb_range(CACHE_LINE - 1, 2); // [63, 65): straddles the boundary
        assert_eq!(p.stats().pwbs, 2);
        p.reset_stats();
        p.pwb_range(CACHE_LINE, CACHE_LINE); // [64, 128): exactly line 1
        assert_eq!(p.stats().pwbs, 1);
        p.reset_stats();
        p.pwb_range(10, 0); // empty range: nothing
        assert_eq!(p.stats().pwbs, 0);
    }

    #[test]
    fn zero_range_dirties_exactly_the_covered_lines() {
        let p = pool(SanitizeMode::Log);
        // Make lines 0..=2 durably clean.
        for line in 0..3u64 {
            p.write_u64(line * CACHE_LINE, 7);
            p.pwb(line * CACHE_LINE);
        }
        p.pfence();
        assert_eq!(p.stats().san_violations, 0);
        // Zero exactly line 1; its neighbours must stay clean.
        p.zero_range(CACHE_LINE, CACHE_LINE);
        p.ordering_point("line0", &[(0, CACHE_LINE)]);
        p.ordering_point("line2", &[(2 * CACHE_LINE, CACHE_LINE)]);
        assert_eq!(
            p.stats().san_violations,
            0,
            "zero_range leaked into a neighbour line"
        );
        p.ordering_point("line1", &[(CACHE_LINE, CACHE_LINE)]);
        let v = p.san_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, SanViolationKind::MissingPwb);
        assert_eq!(v[0].line_addr, CACHE_LINE);
    }

    // ------------------------------------------------------------------
    // Deliberately broken persist sequences: caught in Strict, counted
    // in Log, free in Off.
    // ------------------------------------------------------------------

    #[test]
    #[should_panic(expected = "persist-ordering violation")]
    fn strict_catches_missing_pwb() {
        let p = pool(SanitizeMode::Strict);
        p.write_u64(0, 1); // dirty, never written back
        p.ordering_point("commit", &[(0, 8)]);
    }

    #[test]
    #[should_panic(expected = "missing-fence")]
    fn strict_catches_missing_fence() {
        let p = pool(SanitizeMode::Strict);
        p.write_u64(0, 1);
        p.pwb(0); // written back, never fenced
        p.ordering_point("commit", &[(0, 8)]);
    }

    #[test]
    #[should_panic(expected = "cross-thread-fence")]
    fn strict_catches_wrong_thread_fence() {
        let p = pool(SanitizeMode::Strict);
        let pa = Arc::clone(&p);
        std::thread::spawn(move || {
            pa.write_u64(0, 1);
            pa.pwb(0); // pending in A's domain
        })
        .join()
        .unwrap();
        p.pfence(); // drains only *this* thread's (empty) domain
        p.ordering_point("commit", &[(0, 8)]);
    }

    #[test]
    fn strict_passes_a_correct_sequence() {
        let p = pool(SanitizeMode::Strict);
        p.write_u64(0, 1);
        p.pwb(0);
        p.pfence();
        p.ordering_point("commit", &[(0, 8)]);
        assert_eq!(p.stats().san_violations, 0);
        assert_eq!(p.stats().ordering_points, 1);
    }

    #[test]
    fn log_counts_violations_without_panicking() {
        let p = pool(SanitizeMode::Log);
        p.write_u64(0, 1); // dirty
        p.write_u64(CACHE_LINE, 2);
        p.pwb(CACHE_LINE); // write-backed, unfenced
        p.ordering_point("commit", &[(0, 8), (CACHE_LINE, 8)]);
        let s = p.stats();
        assert_eq!(s.san_violations, 2);
        assert_eq!(s.ordering_points, 1);
        let v = p.san_violations();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].kind, SanViolationKind::MissingPwb);
        assert_eq!(v[1].kind, SanViolationKind::MissingFence);
        assert!(v.iter().all(|v| v.label == "commit"));
    }

    #[test]
    fn off_mode_tracks_nothing_but_still_counts_ordering_points() {
        let p = pool(SanitizeMode::Off);
        assert!(!p.sanitizer_active());
        assert_eq!(p.sanitize_mode(), SanitizeMode::Off);
        p.write_u64(0, 1); // broken on purpose
        p.ordering_point("commit", &[(0, 8)]);
        let s = p.stats();
        assert_eq!(s.san_violations, 0);
        assert_eq!(s.redundant_pwbs, 0);
        assert_eq!(s.ordering_points, 1);
        assert!(p.san_violations().is_empty());
    }

    // ------------------------------------------------------------------
    // Publish points, redundancy accounting, state resets.
    // ------------------------------------------------------------------

    #[test]
    fn publish_point_accepts_own_writeback_but_not_dirty() {
        let p = pool(SanitizeMode::Log);
        p.write_u64(0, 1);
        p.pwb(0);
        p.publish_point("chain-extend", &[(0, 8)]); // own WB: fine
        assert_eq!(p.stats().san_violations, 0);
        p.write_u64(CACHE_LINE, 2);
        p.publish_point("chain-extend", &[(CACHE_LINE, 8)]); // dirty: flagged
        let v = p.san_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, SanViolationKind::MissingPwb);
        // Publish points are not ordering points.
        assert_eq!(p.stats().ordering_points, 0);
    }

    #[test]
    fn publish_point_rejects_foreign_writeback() {
        let p = pool(SanitizeMode::Log);
        let pa = Arc::clone(&p);
        std::thread::spawn(move || {
            pa.write_u64(0, 1);
            pa.pwb(0);
        })
        .join()
        .unwrap();
        p.publish_point("chain-extend", &[(0, 8)]);
        let v = p.san_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, SanViolationKind::CrossThreadFence);
    }

    #[test]
    fn redundant_flushes_are_counted_not_flagged() {
        let p = pool(SanitizeMode::Log);
        p.write_u64(0, 1);
        p.pwb(0);
        p.pfence(); // line 0 clean
        p.pwb(0); // wasted: line already clean
        let s = p.stats();
        assert_eq!(s.redundant_pwbs, 1);
        assert_eq!(s.san_violations, 0);
        p.pfence(); // ordered the redundant pwb: not itself redundant
        p.pfence(); // nothing new since the last fence: redundant
        let s = p.stats();
        assert_eq!(s.redundant_fences, 1);
        assert_eq!(s.san_violations, 0);
    }

    #[test]
    fn re_flushing_a_pending_line_is_not_redundant() {
        // pwb of a line another thread left pending adopts it (clwb
        // semantics) — that flush does real work and must not count as
        // redundant.
        let p = pool(SanitizeMode::Log);
        let pa = Arc::clone(&p);
        std::thread::spawn(move || {
            pa.write_u64(0, 1);
            pa.pwb(0);
        })
        .join()
        .unwrap();
        p.pwb(0);
        p.pfence();
        let s = p.stats();
        assert_eq!(s.redundant_pwbs, 0);
        p.ordering_point("commit", &[(0, 8)]);
        assert_eq!(p.stats().san_violations, 0);
    }

    #[test]
    fn rewrite_after_pwb_reverts_line_to_dirty() {
        let p = pool(SanitizeMode::Log);
        p.write_u64(0, 1);
        p.pwb(0);
        p.write_u64(0, 2); // newer write invalidates the write-back
        p.pfence();
        p.ordering_point("commit", &[(0, 8)]);
        let v = p.san_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, SanViolationKind::MissingPwb);
    }

    // ------------------------------------------------------------------
    // Two threads' words on one line: a neighbour's unfenced store is not
    // the footprint's problem, the footprint's own unfenced word is.
    // ------------------------------------------------------------------

    /// This thread persists word 0 of line 0; another thread then stores
    /// and `pwb`s word 1 of the same line and never fences.
    fn line_shared_with_an_unfenced_neighbour(cfg: PmemConfig) -> Arc<Pmem> {
        let p = Pmem::new(cfg);
        p.write_u64(0, 1);
        p.pwb(0);
        p.pfence();
        let pb = Arc::clone(&p);
        std::thread::spawn(move || {
            pb.write_u64(8, 2);
            pb.pwb(8);
        })
        .join()
        .unwrap();
        p
    }

    #[test]
    fn strict_passes_own_durable_word_beside_a_foreign_pending_one() {
        let cfg = PmemConfig::crash_sim(4096).with_sanitize(SanitizeMode::Strict);
        let p = line_shared_with_an_unfenced_neighbour(cfg);
        p.ordering_point("commit", &[(0, 8)]);
        assert_eq!(p.stats().san_violations, 0);
        // The verdict is about what is persisted: a strict crash keeps
        // word 0 only.
        p.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!((p.read_u64(0), p.read_u64(8)), (1, 0));
    }

    #[test]
    #[should_panic(expected = "cross-thread-fence")]
    fn strict_catches_foreign_pending_word_on_a_shared_line() {
        let cfg = PmemConfig::crash_sim(4096).with_sanitize(SanitizeMode::Strict);
        let p = line_shared_with_an_unfenced_neighbour(cfg);
        p.ordering_point("commit", &[(8, 8)]);
    }

    #[test]
    fn shared_line_without_media_is_judged_by_state_alone() {
        // A Performance pool has no media to consult: both words flag.
        let cfg = PmemConfig::perf(4096).with_sanitize(SanitizeMode::Log);
        let p = line_shared_with_an_unfenced_neighbour(cfg);
        p.ordering_point("commit", &[(0, 8)]);
        p.ordering_point("commit", &[(8, 8)]);
        let v = p.san_violations();
        let kinds: Vec<_> = v.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, [SanViolationKind::CrossThreadFence; 2]);
    }

    #[test]
    fn crash_resets_line_state() {
        let p = pool(SanitizeMode::Strict);
        p.write_u64(0, 1); // dirty...
        p.crash(&CrashPolicy::strict()).unwrap(); // ...lost in the crash
        p.ordering_point("recovery", &[(0, 8)]); // must not flag stale state
        assert_eq!(p.stats().san_violations, 0);
    }

    #[test]
    fn drain_all_resets_line_state() {
        let p = pool(SanitizeMode::Strict);
        p.write_u64(0, 1);
        p.drain_all(); // orderly shutdown persists everything
        p.ordering_point("shutdown", &[(0, 8)]);
        assert_eq!(p.stats().san_violations, 0);
    }

    #[test]
    fn sanitizer_state_survives_many_threads() {
        // Each thread runs a correct persist sequence on its own lines; no
        // violations, and every ordering point is counted.
        let p = pool(SanitizeMode::Strict);
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let a = t * 8 * CACHE_LINE;
                    for i in 0..8u64 {
                        p.write_u64(a + i * CACHE_LINE, i + 1);
                        p.pwb(a + i * CACHE_LINE);
                    }
                    p.pfence();
                    p.ordering_point("commit", &[(a, 8 * CACHE_LINE)]);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = p.stats();
        assert_eq!(s.san_violations, 0);
        assert_eq!(s.ordering_points, 8);
    }
}
