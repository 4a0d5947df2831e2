//! Metrics registry: per-label fence/pwb accounting and named latency
//! histograms.
//!
//! ## The span/label contract
//!
//! Every persist-ordering-point label (`"fa-commit"`, `"kv-batch-ack"`,
//! …) is a metrics key. The device calls [`note_pwb`] / [`note_fence`] /
//! [`note_psync`] next to its own stats counters; the counts accumulate
//! in thread-local *pending* cells and are attributed to the **next**
//! ordering point the thread reaches ([`note_ordering_point`]) — an
//! ordering point asserts "everything I did up to here is persistent",
//! so the fences issued since the previous point are exactly the fences
//! that point paid for. A thread that exits (or a caller that wants the
//! books closed) flushes its leftover pending counts to the [`UNATTRIBUTED`]
//! label, so
//!
//! ```text
//! device pwbs   == Σ label.pwbs      (over all labels, incl. unattributed)
//! device fences == Σ label.pfences + label.psyncs
//! ```
//!
//! holds exactly at quiescence — the fence-conservation invariant checked
//! by `tests/obs_invariants.rs` across shards and replicas.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSummary};
use crate::trace::{point_span, SpanKind};
use crate::{enabled, mode, span_totals, ObsMode};

/// Label that absorbs fence/pwb counts never claimed by an ordering point
/// (e.g. pool-format fences on a thread that exits without reaching one).
pub const UNATTRIBUTED: &str = "(unattributed)";

struct LabelCell {
    name: &'static str,
    points: AtomicU64,
    pwbs: AtomicU64,
    pfences: AtomicU64,
    psyncs: AtomicU64,
}

static LABEL_CELLS: Mutex<Vec<Arc<LabelCell>>> = Mutex::new(Vec::new());

fn label_cell(name: &'static str) -> Arc<LabelCell> {
    let mut table = LABEL_CELLS.lock().unwrap_or_else(|e| e.into_inner());
    match table.iter().find(|c| c.name == name) {
        Some(c) => Arc::clone(c),
        None => {
            let cell = Arc::new(LabelCell {
                name,
                points: AtomicU64::new(0),
                pwbs: AtomicU64::new(0),
                pfences: AtomicU64::new(0),
                psyncs: AtomicU64::new(0),
            });
            table.push(Arc::clone(&cell));
            cell
        }
    }
}

fn cached_label_cell(name: &'static str) -> Arc<LabelCell> {
    thread_local! {
        static CACHE: std::cell::RefCell<Vec<(usize, Arc<LabelCell>)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    let ptr = name.as_ptr() as usize;
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if let Some((_, cell)) = c.iter().find(|(p, _)| *p == ptr) {
            return Arc::clone(cell);
        }
        let cell = label_cell(name);
        c.push((ptr, Arc::clone(&cell)));
        cell
    })
}

/// Thread-local fence/pwb counts not yet claimed by an ordering point.
struct Pending {
    pwbs: Cell<u64>,
    pfences: Cell<u64>,
    psyncs: Cell<u64>,
}

impl Pending {
    fn flush_into(&self, name: &'static str, count_point: bool) {
        let (w, f, s) = (self.pwbs.take(), self.pfences.take(), self.psyncs.take());
        if !count_point && w == 0 && f == 0 && s == 0 {
            return;
        }
        // Deliberately NOT the thread-local cache: this also runs from the
        // TLS destructor, when sibling thread-locals may be gone already.
        let cell = label_cell(name);
        if count_point {
            cell.points.fetch_add(1, Ordering::Relaxed);
        }
        cell.pwbs.fetch_add(w, Ordering::Relaxed);
        cell.pfences.fetch_add(f, Ordering::Relaxed);
        cell.psyncs.fetch_add(s, Ordering::Relaxed);
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.flush_into(UNATTRIBUTED, false);
    }
}

thread_local! {
    static PENDING: Pending = const {
        Pending { pwbs: Cell::new(0), pfences: Cell::new(0), psyncs: Cell::new(0) }
    };
}

/// Device hook: one `pwb` issued by this thread.
#[inline]
pub fn note_pwb() {
    if enabled() {
        let _ = PENDING.try_with(|p| p.pwbs.set(p.pwbs.get() + 1));
    }
}

/// Device hook: one `pfence` issued by this thread.
#[inline]
pub fn note_fence() {
    if enabled() {
        let _ = PENDING.try_with(|p| p.pfences.set(p.pfences.get() + 1));
    }
}

/// Device hook: one `psync` issued by this thread.
#[inline]
pub fn note_psync() {
    if enabled() {
        let _ = PENDING.try_with(|p| p.psyncs.set(p.psyncs.get() + 1));
    }
}

/// Device hook: this thread reached the ordering point `label`. Claims the
/// thread's pending fence/pwb counts for the label and records an instant
/// `ordering_point` span.
#[inline]
pub fn note_ordering_point(label: &'static str) {
    if enabled() {
        let cell = cached_label_cell(label);
        let _ = PENDING.try_with(|p| {
            let (w, f, s) = (p.pwbs.take(), p.pfences.take(), p.psyncs.take());
            cell.pwbs.fetch_add(w, Ordering::Relaxed);
            cell.pfences.fetch_add(f, Ordering::Relaxed);
            cell.psyncs.fetch_add(s, Ordering::Relaxed);
        });
        cell.points.fetch_add(1, Ordering::Relaxed);
        point_span(SpanKind::OrderingPoint, label);
    }
}

/// Close this thread's books: flush pending counts to [`UNATTRIBUTED`]
/// without waiting for thread exit. Call at a quiescent point before
/// asserting fence conservation.
pub fn flush_thread_pending() {
    let _ = PENDING.try_with(|p| p.flush_into(UNATTRIBUTED, false));
}

// ---------------------------------------------------------------------------
// Named latency histograms.

type HistHandle = Arc<Mutex<Histogram>>;

static HISTS: Mutex<Vec<(&'static str, HistHandle)>> = Mutex::new(Vec::new());

fn hist_handle(name: &'static str) -> HistHandle {
    let mut table = HISTS.lock().unwrap_or_else(|e| e.into_inner());
    match table.iter().find(|(n, _)| *n == name) {
        Some((_, h)) => Arc::clone(h),
        None => {
            let h = Arc::new(Mutex::new(Histogram::new()));
            table.push((name, Arc::clone(&h)));
            h
        }
    }
}

/// Record one latency sample (ns) into the named registry histogram.
/// No-op (and no allocation) while observability is off.
#[inline]
pub fn record_latency(name: &'static str, ns: u64) {
    if enabled() {
        thread_local! {
            static CACHE: std::cell::RefCell<Vec<(usize, Arc<Mutex<Histogram>>)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let ptr = name.as_ptr() as usize;
        let handle = CACHE.with(|c| {
            let mut c = c.borrow_mut();
            if let Some((_, h)) = c.iter().find(|(p, _)| *p == ptr) {
                return Arc::clone(h);
            }
            let h = hist_handle(name);
            c.push((ptr, Arc::clone(&h)));
            h
        });
        handle.lock().unwrap_or_else(|e| e.into_inner()).record(ns);
    }
}

// ---------------------------------------------------------------------------
// Snapshots.

/// One label's counters as of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelCounts {
    /// The ordering-point label (or [`UNATTRIBUTED`]).
    pub name: &'static str,
    /// Ordering points reached under this label.
    pub points: u64,
    /// `pwb`s attributed to this label.
    pub pwbs: u64,
    /// `pfence`s attributed to this label.
    pub pfences: u64,
    /// `psync`s attributed to this label.
    pub psyncs: u64,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-label fence/pwb accounting, in registration order.
    pub labels: Vec<LabelCounts>,
    /// Named latency histograms (full sketches, not just summaries, so
    /// callers can merge or re-quantile).
    pub hists: Vec<(&'static str, Histogram)>,
}

impl MetricsSnapshot {
    /// The counts for one label, if it has been seen.
    pub fn label(&self, name: &str) -> Option<&LabelCounts> {
        self.labels.iter().find(|l| l.name == name)
    }

    /// Total pwbs attributed across all labels.
    pub fn pwbs(&self) -> u64 {
        self.labels.iter().map(|l| l.pwbs).sum()
    }

    /// Total fences (`pfence` + `psync`) attributed across all labels.
    pub fn fences(&self) -> u64 {
        self.labels.iter().map(|l| l.pfences + l.psyncs).sum()
    }

    /// Sample count of the named histogram (0 if absent).
    pub fn hist_count(&self, name: &str) -> u64 {
        self.hists
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, h)| h.count())
    }

    /// Summary of the named histogram, if present.
    pub fn hist_summary(&self, name: &str) -> Option<HistogramSummary> {
        self.hists
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.summary())
    }
}

/// Copy the registry. Counters are read `Relaxed`, so concurrent writers
/// may be mid-flight — exact equalities only hold at quiescence.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let labels = LABEL_CELLS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|c| LabelCounts {
            name: c.name,
            points: c.points.load(Ordering::Relaxed),
            pwbs: c.pwbs.load(Ordering::Relaxed),
            pfences: c.pfences.load(Ordering::Relaxed),
            psyncs: c.psyncs.load(Ordering::Relaxed),
        })
        .collect();
    let hists = HISTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(n, h)| (*n, h.lock().unwrap_or_else(|e| e.into_inner()).clone()))
        .collect();
    MetricsSnapshot { labels, hists }
}

/// Render the registry as the `METRICS` wire/text report.
pub fn metrics_text() -> String {
    use std::fmt::Write;
    let snap = metrics_snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "obs_mode={}",
        match mode() {
            ObsMode::Off => "off",
            ObsMode::Log => "log",
        }
    );
    let totals = span_totals();
    let _ = write!(out, "spans");
    for k in crate::SpanKind::all() {
        let _ = write!(out, " {}={}", k.name(), totals[k as usize]);
    }
    let _ = writeln!(out);
    for l in &snap.labels {
        let _ = writeln!(
            out,
            "label {} points={} pwbs={} pfences={} psyncs={}",
            l.name, l.points, l.pwbs, l.pfences, l.psyncs
        );
    }
    for (name, h) in &snap.hists {
        let _ = writeln!(
            out,
            "hist {} count={} {}",
            name,
            h.count(),
            h.summary().display_us()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_mode, test_lock, ObsMode};

    #[test]
    fn pending_counts_attribute_to_the_next_ordering_point() {
        let _g = test_lock();
        set_mode(ObsMode::Log);
        let before = metrics_snapshot();
        let b = |s: &MetricsSnapshot, n: &str| {
            s.label(n).cloned().unwrap_or(LabelCounts {
                name: "",
                points: 0,
                pwbs: 0,
                pfences: 0,
                psyncs: 0,
            })
        };
        note_pwb();
        note_pwb();
        note_fence();
        note_ordering_point("obs-metrics-test-a");
        note_psync();
        note_ordering_point("obs-metrics-test-b");
        let after = metrics_snapshot();
        let (a0, a1) = (
            b(&before, "obs-metrics-test-a"),
            b(&after, "obs-metrics-test-a"),
        );
        assert_eq!(a1.points - a0.points, 1);
        assert_eq!(a1.pwbs - a0.pwbs, 2);
        assert_eq!(a1.pfences - a0.pfences, 1);
        assert_eq!(a1.psyncs - a0.psyncs, 0);
        let (b0, b1) = (
            b(&before, "obs-metrics-test-b"),
            b(&after, "obs-metrics-test-b"),
        );
        assert_eq!(b1.points - b0.points, 1);
        assert_eq!(b1.psyncs - b0.psyncs, 1);
        assert_eq!(b1.pwbs - b0.pwbs, 0);
        set_mode(ObsMode::Off);
    }

    #[test]
    fn leftover_counts_flush_to_unattributed() {
        let _g = test_lock();
        set_mode(ObsMode::Log);
        let before = metrics_snapshot().label(UNATTRIBUTED).map_or(0, |l| l.pwbs);
        std::thread::spawn(|| {
            note_pwb();
            note_pwb();
            // Thread exits without reaching an ordering point: the TLS
            // destructor must flush both pwbs to the unattributed label.
        })
        .join()
        .unwrap();
        let after = metrics_snapshot().label(UNATTRIBUTED).map_or(0, |l| l.pwbs);
        assert_eq!(after - before, 2);
        // And an explicit flush does the same for the calling thread.
        note_fence();
        let f0 = metrics_snapshot()
            .label(UNATTRIBUTED)
            .map_or(0, |l| l.pfences);
        flush_thread_pending();
        let f1 = metrics_snapshot()
            .label(UNATTRIBUTED)
            .map_or(0, |l| l.pfences);
        assert_eq!(f1 - f0, 1);
        set_mode(ObsMode::Off);
    }

    #[test]
    fn off_mode_moves_no_counters() {
        let _g = test_lock();
        set_mode(ObsMode::Off);
        let before = metrics_snapshot();
        note_pwb();
        note_fence();
        note_psync();
        note_ordering_point("off-mode-label-never-created");
        record_latency("off-mode-hist-never-created", 123);
        flush_thread_pending();
        let after = metrics_snapshot();
        assert_eq!(after.labels, before.labels);
        assert_eq!(after.hists.len(), before.hists.len());
        assert!(after.label("off-mode-label-never-created").is_none());
        assert_eq!(after.hist_count("off-mode-hist-never-created"), 0);
    }

    #[test]
    fn latency_histograms_register_and_record() {
        let _g = test_lock();
        set_mode(ObsMode::Log);
        let before = metrics_snapshot().hist_count("obs-metrics-test-lat");
        record_latency("obs-metrics-test-lat", 1_000);
        record_latency("obs-metrics-test-lat", 2_000);
        let snap = metrics_snapshot();
        assert_eq!(snap.hist_count("obs-metrics-test-lat") - before, 2);
        assert!(snap.hist_summary("obs-metrics-test-lat").is_some());
        let text = metrics_text();
        assert!(text.contains("hist obs-metrics-test-lat"));
        assert!(text.contains("obs_mode=log"));
        set_mode(ObsMode::Off);
    }
}
