//! Per-thread structured span tracer.
//!
//! Each thread that records a span owns a fixed-capacity ring
//! ([`RING_CAP`] slots). The owner writes slots without any lock — plain
//! atomic stores into its own slots, then a `Release` bump of the head —
//! and dump readers ([`recent_spans`]) take `Acquire` loads, so a dump
//! sees a prefix-consistent view of each ring. A reader racing the owner
//! on the *oldest* slot of a full ring may observe a half-overwritten
//! span; dumps are best-effort by design (they feed debugging output,
//! never invariants).
//!
//! Invariants are instead carried by **counters** that never wrap:
//! each ring's head is the thread's monotonic span total, each ring keeps
//! per-kind totals, and a process-global per-kind total is bumped on
//! every record. `sum over rings == global total` per kind is the
//! span-conservation invariant the obs test suite checks across
//! promotion/degrade transitions — rings are registered once and kept
//! alive after their thread exits, so a dying committer loses no spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{enabled, now};

/// Slots per thread ring.
pub const RING_CAP: usize = 1024;

/// Number of span kinds (array sizing for per-kind totals).
pub const SPAN_KINDS: usize = 7;

/// Sentinel returned by [`span_begin`] while observability is off.
pub const NOT_TRACING: u64 = u64::MAX;

/// The typed span vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One failure-atomic stage call (redo-log build, no fences).
    FaStage = 0,
    /// One group commit: 4 fences amortized over the whole group (the
    /// applies are durable before the log retires).
    FaCommitGroup = 1,
    /// Streaming a write group to the backup replica.
    ReplSend = 2,
    /// Waiting for the backup's durability ack.
    ReplAck = 3,
    /// Recovery mark phase (parallel GC mark + nullify).
    RecoveryMark = 4,
    /// Recovery log-replay phase.
    RecoveryReplay = 5,
    /// A persist-ordering point (instant span; label = the point's label).
    OrderingPoint = 6,
}

impl SpanKind {
    /// All kinds, in discriminant order.
    pub fn all() -> [SpanKind; SPAN_KINDS] {
        [
            SpanKind::FaStage,
            SpanKind::FaCommitGroup,
            SpanKind::ReplSend,
            SpanKind::ReplAck,
            SpanKind::RecoveryMark,
            SpanKind::RecoveryReplay,
            SpanKind::OrderingPoint,
        ]
    }

    /// Stable wire/dump name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FaStage => "fa_stage",
            SpanKind::FaCommitGroup => "fa_commit_group",
            SpanKind::ReplSend => "repl_send",
            SpanKind::ReplAck => "repl_ack",
            SpanKind::RecoveryMark => "recovery_mark",
            SpanKind::RecoveryReplay => "recovery_replay",
            SpanKind::OrderingPoint => "ordering_point",
        }
    }

    fn from_u8(v: u8) -> SpanKind {
        SpanKind::all()[(v as usize).min(SPAN_KINDS - 1)]
    }
}

/// Labels are interned to a `u32` so a ring slot is three plain words.
static LABELS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern(label: &'static str) -> u32 {
    thread_local! {
        // Tiny per-thread cache keyed by the &'static str's address — the
        // label vocabulary is ~a dozen literals, so a linear scan wins.
        static CACHE: std::cell::RefCell<Vec<(usize, u32)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    let ptr = label.as_ptr() as usize;
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if let Some((_, id)) = c.iter().find(|(p, _)| *p == ptr) {
            return *id;
        }
        let mut table = LABELS.lock().unwrap_or_else(|e| e.into_inner());
        let id = match table.iter().position(|l| *l == label) {
            Some(i) => i as u32,
            None => {
                table.push(label);
                (table.len() - 1) as u32
            }
        };
        drop(table);
        c.push((ptr, id));
        id
    })
}

fn label_name(id: u32) -> &'static str {
    let table = LABELS.lock().unwrap_or_else(|e| e.into_inner());
    table.get(id as usize).copied().unwrap_or("?")
}

struct Slot {
    /// kind in the high 32 bits, interned label id in the low 32.
    kind_label: AtomicU64,
    begin: AtomicU64,
    end: AtomicU64,
}

struct ThreadRing {
    name: String,
    slots: Vec<Slot>,
    /// Monotonic span total of this thread; slot index = head % RING_CAP.
    head: AtomicU64,
    kind_counts: [AtomicU64; SPAN_KINDS],
}

impl ThreadRing {
    fn new(name: String) -> ThreadRing {
        ThreadRing {
            name,
            slots: (0..RING_CAP)
                .map(|_| Slot {
                    kind_label: AtomicU64::new(0),
                    begin: AtomicU64::new(0),
                    end: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            kind_counts: [const { AtomicU64::new(0) }; SPAN_KINDS],
        }
    }

    /// Owner-thread only.
    fn push(&self, kind: SpanKind, label_id: u32, begin: u64, end: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) % RING_CAP];
        slot.kind_label
            .store(((kind as u64) << 32) | label_id as u64, Ordering::Relaxed);
        slot.begin.store(begin, Ordering::Relaxed);
        slot.end.store(end, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
        self.kind_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Rings are registered once per thread and never unregistered — a thread
/// that exits (a degraded committer, a finished recovery worker) leaves
/// its spans and totals behind for conservation checks and dumps.
static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

static GLOBAL_KIND_TOTALS: [AtomicU64; SPAN_KINDS] = [const { AtomicU64::new(0) }; SPAN_KINDS];

fn my_ring() -> Arc<ThreadRing> {
    thread_local! {
        static RING: std::cell::OnceCell<Arc<ThreadRing>> = const { std::cell::OnceCell::new() };
    }
    RING.with(|r| {
        Arc::clone(r.get_or_init(|| {
            let cur = std::thread::current();
            let name = match cur.name() {
                Some(n) => format!("{n}#{:?}", cur.id()),
                None => format!("{:?}", cur.id()),
            };
            let ring = Arc::new(ThreadRing::new(name));
            RINGS
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        }))
    })
}

pub(crate) fn record_span(kind: SpanKind, label: &'static str, begin: u64, end: u64) {
    let id = intern(label);
    my_ring().push(kind, id, begin, end);
    GLOBAL_KIND_TOTALS[kind as usize].fetch_add(1, Ordering::Relaxed);
}

/// Open a span: the begin timestamp while tracing, [`NOT_TRACING`]
/// otherwise. Pass the result to [`span_end`] / [`span_end_labeled`].
#[inline]
pub fn span_begin() -> u64 {
    if enabled() {
        now()
    } else {
        NOT_TRACING
    }
}

/// Close an unlabeled span opened by [`span_begin`].
#[inline]
pub fn span_end(kind: SpanKind, begin: u64) {
    if begin != NOT_TRACING {
        record_span(kind, "", begin, now());
    }
}

/// Close a labeled span opened by [`span_begin`].
#[inline]
pub fn span_end_labeled(kind: SpanKind, label: &'static str, begin: u64) {
    if begin != NOT_TRACING {
        record_span(kind, label, begin, now());
    }
}

/// Record an instant (zero-width) span, e.g. an ordering point.
#[inline]
pub fn point_span(kind: SpanKind, label: &'static str) {
    if enabled() {
        let t = now();
        record_span(kind, label, t, t);
    }
}

/// One span as read back from a ring.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Kind of the span.
    pub kind: SpanKind,
    /// Ordering-point label, `""` for unlabeled kinds.
    pub label: &'static str,
    /// Begin timestamp (installed clock; modeled device ns).
    pub begin_ns: u64,
    /// End timestamp; equals `begin_ns` for instant spans.
    pub end_ns: u64,
    /// The thread-local monotonic sequence number of this span.
    pub seq: u64,
}

/// Best-effort dump: for every ring, its thread name, total spans ever
/// recorded, and up to `max_per_thread` most recent spans (oldest first).
pub fn recent_spans(max_per_thread: usize) -> Vec<(String, u64, Vec<SpanRecord>)> {
    let rings: Vec<Arc<ThreadRing>> = RINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    rings
        .iter()
        .map(|ring| {
            let head = ring.head.load(Ordering::Acquire);
            let n = head.min(RING_CAP as u64).min(max_per_thread as u64);
            let spans = (head - n..head)
                .map(|seq| {
                    let slot = &ring.slots[(seq as usize) % RING_CAP];
                    let kl = slot.kind_label.load(Ordering::Relaxed);
                    SpanRecord {
                        kind: SpanKind::from_u8((kl >> 32) as u8),
                        label: label_name(kl as u32),
                        begin_ns: slot.begin.load(Ordering::Relaxed),
                        end_ns: slot.end.load(Ordering::Relaxed),
                        seq,
                    }
                })
                .collect();
            (ring.name.clone(), head, spans)
        })
        .collect()
}

/// Process-global per-kind span totals (indexed by `SpanKind as usize`).
pub fn span_totals() -> [u64; SPAN_KINDS] {
    std::array::from_fn(|i| GLOBAL_KIND_TOTALS[i].load(Ordering::Relaxed))
}

/// Per-kind totals summed over every registered ring. Equals
/// [`span_totals`] whenever the process is quiescent — the conservation
/// invariant (no span lost when a thread dies, none double-counted).
pub fn ring_totals() -> [u64; SPAN_KINDS] {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = [0u64; SPAN_KINDS];
    for ring in rings.iter() {
        for (o, c) in out.iter_mut().zip(ring.kind_counts.iter()) {
            *o += c.load(Ordering::Relaxed);
        }
    }
    out
}

/// Number of registered thread rings (allocation witness for the
/// off-mode guard: recording while off must not create a ring).
pub fn ring_count() -> usize {
    RINGS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Render the recent spans of every thread as indented text — the `TRACE`
/// server reply and the faultsim timeline body.
pub fn trace_text(max_per_thread: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let totals = span_totals();
    let _ = write!(out, "spans");
    for k in SpanKind::all() {
        let _ = write!(out, " {}={}", k.name(), totals[k as usize]);
    }
    let _ = writeln!(out);
    for (thread, total, spans) in recent_spans(max_per_thread) {
        let _ = writeln!(out, "thread {thread} total={total} shown={}", spans.len());
        for s in spans {
            let label = if s.label.is_empty() {
                String::new()
            } else {
                format!(" {}", s.label)
            };
            let _ = writeln!(
                out,
                "  #{} [{}..{}] +{}ns {}{label}",
                s.seq,
                s.begin_ns,
                s.end_ns,
                s.end_ns.saturating_sub(s.begin_ns),
                s.kind.name(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_mode, test_lock, ObsMode};

    #[test]
    fn spans_record_and_conserve() {
        let _g = test_lock();
        set_mode(ObsMode::Log);
        let before = span_totals();
        let t0 = span_begin();
        assert_ne!(t0, NOT_TRACING);
        span_end(SpanKind::FaStage, t0);
        point_span(SpanKind::OrderingPoint, "test-point");
        let after = span_totals();
        assert_eq!(
            after[SpanKind::FaStage as usize] - before[SpanKind::FaStage as usize],
            1
        );
        assert_eq!(
            after[SpanKind::OrderingPoint as usize] - before[SpanKind::OrderingPoint as usize],
            1
        );
        assert_eq!(ring_totals(), span_totals());
        let dumped = recent_spans(8);
        let mine = dumped
            .iter()
            .flat_map(|(_, _, spans)| spans.iter())
            .any(|s| s.kind == SpanKind::OrderingPoint && s.label == "test-point");
        assert!(mine, "recorded span must appear in the dump");
        set_mode(ObsMode::Off);
    }

    #[test]
    fn off_mode_records_nothing() {
        let _g = test_lock();
        set_mode(ObsMode::Off);
        let before = span_totals();
        let t0 = span_begin();
        assert_eq!(t0, NOT_TRACING);
        span_end(SpanKind::FaCommitGroup, t0);
        point_span(SpanKind::OrderingPoint, "never");
        assert_eq!(span_totals(), before);
    }

    #[test]
    fn ring_wraps_without_losing_counts() {
        let _g = test_lock();
        set_mode(ObsMode::Log);
        let before = span_totals()[SpanKind::ReplSend as usize];
        for _ in 0..RING_CAP + 10 {
            let t0 = span_begin();
            span_end(SpanKind::ReplSend, t0);
        }
        let after = span_totals()[SpanKind::ReplSend as usize];
        assert_eq!(after - before, (RING_CAP + 10) as u64);
        assert_eq!(ring_totals(), span_totals());
        // The dump holds at most RING_CAP of them.
        let shown: usize = recent_spans(RING_CAP * 2)
            .iter()
            .map(|(_, _, s)| s.len())
            .sum();
        assert!(shown > 0);
        set_mode(ObsMode::Off);
    }

    #[test]
    fn trace_text_mentions_threads_and_kinds() {
        let _g = test_lock();
        set_mode(ObsMode::Log);
        let t0 = span_begin();
        span_end(SpanKind::RecoveryReplay, t0);
        let text = trace_text(4);
        assert!(text.contains("recovery_replay"));
        assert!(text.contains("thread "));
        set_mode(ObsMode::Off);
    }
}
