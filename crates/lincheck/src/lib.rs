//! # jnvm-lincheck — durable linearizability for the KV torture suites
//!
//! The one correctness oracle the KV tortures hold a run to: the
//! concurrent client history must be **linearizable** — there exists one
//! sequential order of all operations, consistent with real-time order,
//! with each client's per-key order, and with every observed result. Two
//! pieces:
//!
//! 1. **History capture** ([`Clock`], [`ClientRecorder`], [`History`]):
//!    invocation/response-timestamped op events, recorded lock-free per
//!    client thread (each client owns its event vector; the only shared
//!    state is one atomic counter whose `fetch_add` stamps define a total
//!    order consistent with real time).
//! 2. **Checking** ([`check`]): a Wing–Gong linearizability search with
//!    P-compositionality — the history is partitioned per key and each
//!    partition is checked independently against the KV sequential
//!    specification. Single-key operations make a KV history linearizable
//!    iff every per-key subhistory is (Herlihy–Wing locality), and the
//!    partition is what keeps torture-scale histories tractable: the
//!    search is exponential in ops-per-*key*, not ops-per-run.
//!
//! ## Durable linearizability across a crash
//!
//! The tortures inject a power failure mid-traffic, recover the surviving
//! replica(s), and want the *combined* history — pre-crash traffic plus
//! the recovered state — to linearize. Two pieces of crash semantics:
//!
//! * An operation in flight at the crash (no reply, or an error reply)
//!   is [`Outcome::Indeterminate`]: it **may linearize or may vanish**.
//!   The search explores both branches.
//! * The crash is a **durability barrier**: an op acked before the crash
//!   must survive into the post-recovery history. This is not special
//!   code in the checker — [`History::observe`] appends the recovered
//!   state of every key as determinate read events whose invocation
//!   timestamps follow every pre-crash response, so ordinary
//!   linearizability forces every acked write to be ordered before the
//!   final reads, and its effect to be visible there unless a later op
//!   legally overwrote it. [`History::mark_crash`] records the barrier
//!   timestamp so reports can split the history, and so the checker can
//!   reject histories whose "post-recovery" observations were recorded
//!   before the crash mark.
//!
//! What this convicts: an acked write lost or a record torn by the crash;
//! a read of a value that was never made durable (dirty read) or that a
//! later write had replaced (stale read); one client's op that took
//! effect ahead of its own earlier op on the same key (a `SETF` or `GET`
//! overtaking a pipelined `SET`); and any cross-key ordering inversion —
//! by locality, an inversion always surfaces as some single key whose
//! subhistory has no valid linearization.
//!
//! One check lies outside any history: after a failover no client reads
//! the crashed primary, so [`History::audit_failover`] compares its
//! recovered image with the promoted backup's in each key's write order.

pub mod check;

pub use check::{check, CheckReport, Violation};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Field values of one record, positionally (the YCSB data model the
/// whole workspace traffics in). The checker only ever compares these for
/// equality, so any stable encoding of "the record's value" works.
pub type FieldVals = Vec<Vec<u8>>;

/// The operation a client invoked.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read the key's record.
    Get,
    /// Insert or replace the whole record.
    Set(FieldVals),
    /// Replace one positional field.
    SetField(usize, Vec<u8>),
    /// Remove the record.
    Del,
}

impl OpKind {
    /// Short tag for reports and digests.
    pub fn tag(&self) -> &'static str {
        match self {
            OpKind::Get => "GET",
            OpKind::Set(_) => "SET",
            OpKind::SetField(..) => "SETF",
            OpKind::Del => "DEL",
        }
    }
}

/// What the client observed the operation do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Write acknowledged (took effect exactly once).
    Ok,
    /// The target was absent (a GET that found nothing, or a write that
    /// answered NotFound).
    NotFound,
    /// A GET that returned this record value.
    Value(FieldVals),
    /// No reply, or an error reply: the op may have taken effect or not.
    /// The checker lets it linearize anywhere in its interval — or
    /// vanish.
    Indeterminate,
}

/// One recorded operation: interval `[inv, res]` on the shared clock,
/// plus the invoked op and its observed outcome. `res == None` means the
/// op was still pending when the history ended (a crash, usually) and may
/// linearize at any point after `inv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The recording client (connection / worker index).
    pub client: usize,
    /// The client's own op counter (0-based): its request order.
    pub seq: usize,
    /// Key the op targets.
    pub key: String,
    /// The invoked operation.
    pub kind: OpKind,
    /// The observed result.
    pub outcome: Outcome,
    /// Invocation timestamp (shared-clock tick).
    pub inv: u64,
    /// Response timestamp; `None` = pending forever (res = ∞).
    pub res: Option<u64>,
}

impl Event {
    /// True when the outcome pins the op's effect (it definitely executed
    /// exactly once with the recorded result).
    pub fn determinate(&self) -> bool {
        self.outcome != Outcome::Indeterminate
    }

    /// One-line rendering for witnesses.
    pub fn display(&self) -> String {
        let res = match self.res {
            Some(t) => t.to_string(),
            None => "∞".to_string(),
        };
        let out = match &self.outcome {
            Outcome::Ok => "ok".to_string(),
            Outcome::NotFound => "notfound".to_string(),
            Outcome::Value(v) => format!(
                "value({} fields, field0 {:?}…)",
                v.len(),
                v.first().map(|f| &f[..f.len().min(8)])
            ),
            Outcome::Indeterminate => "?".to_string(),
        };
        format!(
            "client {} op {}: {} {} -> {} @[{}, {}]",
            self.client,
            self.seq,
            self.kind.tag(),
            self.key,
            out,
            self.inv,
            res
        )
    }
}

/// The shared logical clock. `now()` is one `fetch_add` on an atomic —
/// the stamps it hands out form a total order consistent with real time:
/// if a response was stamped before another op's invocation, the first op
/// really finished before the second began. That is the only property
/// linearizability needs from time.
#[derive(Debug, Clone, Default)]
pub struct Clock(Arc<AtomicU64>);

impl Clock {
    /// Fresh clock at tick 0.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Take the next tick.
    pub fn now(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// Handle to an invoked-but-unresolved op (index into the recorder's
/// event vector).
#[derive(Debug, Clone, Copy)]
pub struct OpToken(usize);

/// Per-client event recorder. Each client thread owns one; recording is a
/// `Vec::push` plus one atomic tick — no locks, no cross-thread sharing
/// beyond the clock. Collect the recorders into a [`History`] after the
/// run.
#[derive(Debug)]
pub struct ClientRecorder {
    clock: Clock,
    client: usize,
    seq: usize,
    events: Vec<Event>,
}

impl ClientRecorder {
    /// Recorder for client `client` on the shared `clock`.
    pub fn new(clock: &Clock, client: usize) -> ClientRecorder {
        ClientRecorder {
            clock: clock.clone(),
            client,
            seq: 0,
            events: Vec::new(),
        }
    }

    /// Record an invocation. The op stays [`Outcome::Indeterminate`] with
    /// `res = None` until [`resolve`](Self::resolve) — exactly the state
    /// a crash leaves an in-flight op in.
    pub fn invoke(&mut self, key: &str, kind: OpKind) -> OpToken {
        let inv = self.clock.now();
        self.events.push(Event {
            client: self.client,
            seq: self.seq,
            key: key.to_string(),
            kind,
            outcome: Outcome::Indeterminate,
            inv,
            res: None,
        });
        self.seq += 1;
        OpToken(self.events.len() - 1)
    }

    /// Record the response for an earlier invocation. Passing
    /// [`Outcome::Indeterminate`] stamps the response time but leaves the
    /// effect unknown (an `Err` reply: the op ended, but whether it took
    /// effect did not become observable).
    pub fn resolve(&mut self, tok: OpToken, outcome: Outcome) {
        let ev = &mut self.events[tok.0];
        debug_assert!(ev.res.is_none(), "op resolved twice");
        ev.res = Some(self.clock.now());
        ev.outcome = outcome;
    }

    /// The recorded events, in invocation order for this client.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

/// A complete run: every client's events, the crash barrier (if one was
/// injected), and the post-recovery observation phase.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// All recorded events (any order; the checker sorts per key).
    pub events: Vec<Event>,
    /// Clock tick of the durability barrier, when a crash was injected.
    pub crash_at: Option<u64>,
    clock: Clock,
}

impl History {
    /// Assemble a history from per-client recorders. The clock must be
    /// the one the recorders stamped with — observation events continue
    /// on it.
    pub fn collect(
        clock: Clock,
        recorders: impl IntoIterator<Item = ClientRecorder>,
    ) -> History {
        let mut events = Vec::new();
        for r in recorders {
            events.extend(r.into_events());
        }
        History {
            events,
            crash_at: None,
            clock,
        }
    }

    /// Record the durability barrier: everything stamped before this tick
    /// is pre-crash, every observation appended after it is post-recovery
    /// state. Call once, after traffic has quiesced and before
    /// [`observe`](Self::observe).
    pub fn mark_crash(&mut self) {
        self.crash_at = Some(self.clock.now());
    }

    /// Append one post-recovery observation: the recovered store holds
    /// `state` for `key`. Rendered as a determinate GET whose invocation
    /// follows every prior response, so plain linearizability enforces
    /// the crash's durability barrier (an acked pre-crash write the
    /// observation misses has no valid order).
    pub fn observe(&mut self, key: &str, state: Option<FieldVals>) {
        let inv = self.clock.now();
        let res = self.clock.now();
        self.events.push(Event {
            client: usize::MAX,
            seq: self.events.len(),
            key: key.to_string(),
            kind: OpKind::Get,
            outcome: match state {
                Some(v) => Outcome::Value(v),
                None => Outcome::NotFound,
            },
            inv,
            res: Some(res),
        });
    }

    /// Close the history over a recovered image and check durable
    /// linearizability: mark the crash barrier, append one post-recovery
    /// observation per touched key (`read(key)` returns the recovered
    /// store's field values for it), then run the per-key Wing–Gong
    /// search. An acked-but-lost write, a dirty read of a never-durable
    /// value, or any ordering inversion comes back as the minimized
    /// witness.
    pub fn check_recovered(
        &mut self,
        mut read: impl FnMut(&str) -> Option<FieldVals>,
    ) -> Result<CheckReport, Box<Violation>> {
        self.mark_crash();
        let keys: Vec<String> = self.keys().iter().map(|k| k.to_string()).collect();
        for key in keys {
            let state = read(&key);
            self.observe(&key, state);
        }
        check(self)
    }

    /// The states `key` passes through under its writes, acked or not,
    /// folded in `seq` order through the checker's specification: absent
    /// first, then one state per write. `key` must have a single writer.
    pub fn prefix_states(&self, key: &str) -> Vec<Option<FieldVals>> {
        let mut writes: Vec<&Event> = self
            .events
            .iter()
            .filter(|e| e.key == key && e.kind != OpKind::Get)
            .collect();
        assert!(
            writes.windows(2).all(|w| w[0].client == w[1].client),
            "harness bug: {key} has more than one writer"
        );
        writes.sort_by_key(|e| e.seq);
        writes.iter().fold(vec![None], |mut states, e| {
            states.push(check::apply_free(&states[states.len() - 1], &e.kind));
            states
        })
    }

    /// The failover divergence audit — the one check a history cannot make
    /// by itself, because no client ever reads a crashed primary's image.
    /// For each of `keys`, the crashed primary's recovered state
    /// (`primary(key)`) must be one of the key's
    /// [`prefix_states`](Self::prefix_states), and the promoted survivor's
    /// (`survivor(key)`) that prefix or a later one: a group reaches the
    /// backup before the primary commits it. Returns how many keys differ
    /// between the two images, or the first key that breaks the order.
    pub fn audit_failover<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k str>,
        mut primary: impl FnMut(&str) -> Option<FieldVals>,
        mut survivor: impl FnMut(&str) -> Option<FieldVals>,
    ) -> Result<usize, String> {
        let mut divergent = 0;
        for key in keys {
            let states = self.prefix_states(key);
            let (p_state, b_state) = (primary(key), survivor(key));
            let Some(p_min) = states.iter().position(|s| *s == p_state) else {
                return Err(format!(
                    "{key}: crashed-primary state matches no write prefix \
                     (torn image survived recovery)"
                ));
            };
            let b_max = states.iter().rposition(|s| *s == b_state);
            if b_max < Some(p_min) {
                return Err(format!(
                    "{key}: promoted backup (write prefix {b_max:?}) is BEHIND the crashed \
                     primary (write prefix {p_min}) — groups must reach the backup first"
                ));
            }
            divergent += usize::from(p_state != b_state);
        }
        Ok(divergent)
    }

    /// The distinct keys the history touches, sorted.
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.events.iter().map(|e| e.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Deterministic byte encoding of the **invocation sequence**: per
    /// client (sorted), each invoked op's key and kind (with payload),
    /// in invocation order — no timestamps, no outcomes. Two runs at the
    /// same seed must produce byte-identical digests; see the seeded
    /// determinism test in `tests/lincheck.rs`.
    pub fn invocation_digest(&self) -> Vec<u8> {
        let mut by_client: Vec<&Event> =
            self.events.iter().filter(|e| e.client != usize::MAX).collect();
        by_client.sort_by_key(|e| (e.client, e.seq));
        let mut out = Vec::new();
        for e in by_client {
            out.extend_from_slice(&(e.client as u64).to_le_bytes());
            out.extend_from_slice(&(e.key.len() as u32).to_le_bytes());
            out.extend_from_slice(e.key.as_bytes());
            out.extend_from_slice(e.kind.tag().as_bytes());
            match &e.kind {
                OpKind::Set(fields) => {
                    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
                    for f in fields {
                        out.extend_from_slice(&(f.len() as u32).to_le_bytes());
                        out.extend_from_slice(f);
                    }
                }
                OpKind::SetField(i, v) => {
                    out.extend_from_slice(&(*i as u32).to_le_bytes());
                    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    out.extend_from_slice(v);
                }
                OpKind::Get | OpKind::Del => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ticks_are_strictly_increasing() {
        let c = Clock::new();
        let a = c.now();
        let b = c.now();
        assert!(b > a);
        let c2 = c.clone();
        assert!(c2.now() > b, "clones share the counter");
    }

    #[test]
    fn recorder_stamps_intervals_in_order() {
        let clock = Clock::new();
        let mut r = ClientRecorder::new(&clock, 3);
        let t1 = r.invoke("k", OpKind::Set(vec![b"v".to_vec()]));
        let t2 = r.invoke("k", OpKind::Get);
        r.resolve(t1, Outcome::Ok);
        r.resolve(t2, Outcome::Value(vec![b"v".to_vec()]));
        let ev = r.into_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].client, 3);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[1].seq, 1);
        assert!(ev[0].inv < ev[1].inv, "invocations in order");
        assert!(ev[1].inv < ev[0].res.unwrap(), "pipelined ops overlap");
        assert!(ev[0].determinate());
    }

    #[test]
    fn unresolved_ops_stay_indeterminate() {
        let clock = Clock::new();
        let mut r = ClientRecorder::new(&clock, 0);
        r.invoke("k", OpKind::Del);
        let ev = r.into_events();
        assert_eq!(ev[0].outcome, Outcome::Indeterminate);
        assert_eq!(ev[0].res, None);
        assert!(!ev[0].determinate());
    }

    #[test]
    fn observe_lands_after_the_crash_mark() {
        let clock = Clock::new();
        let mut r = ClientRecorder::new(&clock, 0);
        let t = r.invoke("k", OpKind::Set(vec![b"v".to_vec()]));
        r.resolve(t, Outcome::Ok);
        let mut h = History::collect(clock, [r]);
        h.mark_crash();
        h.observe("k", Some(vec![b"v".to_vec()]));
        let crash = h.crash_at.expect("marked");
        let obs = h.events.last().unwrap();
        assert!(obs.inv > crash);
        assert!(h.events[0].res.unwrap() < crash, "acked before the barrier");
        assert_eq!(h.keys(), vec!["k"]);
    }

    #[test]
    fn invocation_digest_ignores_timing_and_outcomes() {
        let build = |spin: bool| {
            let clock = Clock::new();
            if spin {
                // Burn ticks so absolute timestamps differ between runs.
                for _ in 0..17 {
                    clock.now();
                }
            }
            let mut a = ClientRecorder::new(&clock, 0);
            let mut b = ClientRecorder::new(&clock, 1);
            let ta = a.invoke("x", OpKind::Set(vec![b"1".to_vec()]));
            let tb = b.invoke("y", OpKind::SetField(0, b"2".to_vec()));
            b.resolve(tb, Outcome::NotFound);
            // One run acks, the other crashes before the reply: the
            // *invocation* digest must not see the difference.
            if spin {
                a.resolve(ta, Outcome::Ok);
            }
            // Collection order must not matter either.
            if spin {
                History::collect(clock, [b, a]).invocation_digest()
            } else {
                History::collect(clock, [a, b]).invocation_digest()
            }
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn prefix_states_fold_one_writers_ops_in_seq_order() {
        let clock = Clock::new();
        let mut r = ClientRecorder::new(&clock, 0);
        let rec = |f0: &str| vec![f0.as_bytes().to_vec(), b"tail".to_vec()];
        r.invoke("k", OpKind::Set(rec("a")));
        r.invoke("k", OpKind::Get);
        r.invoke("other", OpKind::Del);
        r.invoke("k", OpKind::SetField(0, b"b".to_vec()));
        r.invoke("k", OpKind::Del);
        let h = History::collect(clock, [r]);
        assert_eq!(
            h.prefix_states("k"),
            vec![None, Some(rec("a")), Some(rec("b")), None]
        );
        assert_eq!(h.prefix_states("other"), vec![None, None]);
    }

    #[test]
    fn failover_audit_allows_a_backup_ahead_and_convicts_one_behind() {
        let clock = Clock::new();
        let mut r = ClientRecorder::new(&clock, 0);
        let v = |s: &str| Some(vec![s.as_bytes().to_vec()]);
        r.invoke("k", OpKind::Set(vec![b"a".to_vec()]));
        r.invoke("k", OpKind::SetField(0, b"b".to_vec()));
        let h = History::collect(clock, [r]);
        let image = |state: Option<FieldVals>| move |_: &str| state.clone();
        assert_eq!(h.audit_failover(["k"], image(v("a")), image(v("a"))), Ok(0));
        assert_eq!(h.audit_failover(["k"], image(None), image(v("b"))), Ok(1));
        let behind = h.audit_failover(["k"], image(v("b")), image(v("a")));
        assert!(behind.is_err_and(|e| e.contains("BEHIND")));
        let torn = h.audit_failover(["k"], image(v("x")), image(v("b")));
        assert!(torn.is_err_and(|e| e.contains("no write prefix")));
    }
}
