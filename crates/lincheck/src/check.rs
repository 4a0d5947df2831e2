//! The durable-linearizability checker: per-key partition (P-compositionality)
//! plus a Wing–Gong search per partition.
//!
//! ## Why partitioning is sound
//!
//! Every operation in the KV history touches exactly one key, and the
//! sequential specification of the whole store is the product of
//! independent per-key specifications. Linearizability is **local**
//! (Herlihy & Wing): a history is linearizable iff its projection onto
//! every object — here, every key — is linearizable. So the checker never
//! searches the global history; it partitions by key and runs the
//! exponential search on each (tiny) partition. A cross-key ordering
//! inversion cannot hide from this: if the global history had no valid
//! order, some single key's subhistory has none either, and that key
//! convicts.
//!
//! ## The search
//!
//! Wing–Gong: pick any operation that *may* linearize first — one whose
//! invocation precedes every other remaining operation's response — apply
//! it to the specification state, recurse on the rest; backtrack on
//! failure. Three refinements:
//!
//! * **Session order** (DESIGN.md §8): on one key, an op may not go first
//!   while an earlier determinate op of its client remains, however the
//!   intervals overlap. An indeterminate op orders nothing: a write
//!   answered `Err` at a failover may land on the promoted backup after a
//!   later read the crashed primary served. Ops of different clients keep
//!   the real-time-only rule.
//! * **Indeterminate operations** (in flight at the crash, or answered
//!   with an error) branch twice when chosen: *linearize* (apply the
//!   transition, ignore the unobserved result) or *vanish* (drop the op
//!   from the history entirely). Dropping at selection time is complete:
//!   while an op remains unselected it blocks nothing (its own response
//!   bound is the only constraint it imposes, and an unreplied op has
//!   none), so deferring the vanish decision loses no interleavings.
//! * **Memoization** on `(remaining-set, spec state)`: two search paths
//!   that linearized different prefixes into the same state and the same
//!   remaining set have identical futures (session order, too, is a
//!   function of the remaining set), so the second is pruned. This
//!   is what keeps the worst case at `O(2^n · states)` per key instead of
//!   `n!`.
//!
//! ## Witness minimization
//!
//! On a violation the checker shrinks the failing partition to a
//! 1-minimal subsequence: repeatedly drop any event whose removal leaves
//! the history non-linearizable, in a fixed order, until removing any
//! remaining event would make it pass. The result is the shortest
//! convicting core our greedy order finds — deterministic, so tests can
//! pin expected witnesses.

use std::collections::{BTreeMap, HashSet};

use crate::{Event, FieldVals, History, OpKind, Outcome};

/// Statistics of a passed check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckReport {
    /// Per-key partitions checked.
    pub keys: usize,
    /// Events across all partitions.
    pub events: usize,
    /// Events that were indeterminate (allowed to linearize or vanish).
    pub indeterminate: usize,
}

/// A non-linearizable history, pinned to the key that convicts it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The key whose partition has no valid linearization.
    pub key: String,
    /// 1-minimal failing subsequence of that partition.
    pub witness: Vec<Event>,
    /// Human-readable summary.
    pub explain: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.explain)?;
        writeln!(f, "minimized witness ({} ops):", self.witness.len())?;
        for ev in &self.witness {
            writeln!(f, "  {}", ev.display())?;
        }
        Ok(())
    }
}

/// Check a history for durable linearizability. Partitions per key,
/// checks every partition, and reports the first violating key (in key
/// order) with a minimized witness.
pub fn check(history: &History) -> Result<CheckReport, Box<Violation>> {
    if let Some(crash) = history.crash_at {
        for e in &history.events {
            assert!(
                e.client != usize::MAX || e.inv > crash,
                "harness bug: post-recovery observation of {} recorded before the crash mark",
                e.key
            );
        }
    }
    let mut by_key: BTreeMap<&str, Vec<&Event>> = BTreeMap::new();
    for e in &history.events {
        by_key.entry(e.key.as_str()).or_default().push(e);
    }
    let mut report = CheckReport::default();
    for (key, mut events) in by_key {
        events.sort_by_key(|e| e.inv);
        report.keys += 1;
        report.events += events.len();
        report.indeterminate += events.iter().filter(|e| !e.determinate()).count();
        if !linearizable(&events) {
            let witness = minimize(&events);
            let acked = events.iter().filter(|e| e.determinate()).count();
            return Err(Box::new(Violation {
                explain: format!(
                    "key {key}: no linearization of its {} ops exists ({} determinate, \
                     {} indeterminate{})",
                    events.len(),
                    acked,
                    events.len() - acked,
                    match history.crash_at {
                        Some(c) => format!("; crash barrier at tick {c}"),
                        None => String::new(),
                    }
                ),
                key: key.to_string(),
                witness,
            }));
        }
    }
    Ok(report)
}

/// True when the (single-key) event set has a valid linearization.
/// Exposed so tests can assert 1-minimality of witnesses.
pub fn linearizable(events: &[&Event]) -> bool {
    assert!(
        events.len() <= 128,
        "per-key partition of {} ops exceeds the checker's 128-op mask \
         (split the workload per key)",
        events.len()
    );
    let full: u128 = if events.len() == 128 {
        u128::MAX
    } else {
        (1u128 << events.len()) - 1
    };
    // Session order: the mask of each op's determinate same-client predecessors.
    let before = |e: &Event, o: &Event| o.client == e.client && o.seq < e.seq && o.determinate();
    let earlier: Vec<u128> = events
        .iter()
        .map(|e| {
            (0..events.len())
                .filter(|&j| before(e, events[j]))
                .fold(0, |m, j| m | 1 << j)
        })
        .collect();
    let mut memo: HashSet<(u128, Option<FieldVals>)> = HashSet::new();
    search(events, &earlier, None, full, &mut memo)
}

fn search(
    events: &[&Event],
    earlier: &[u128],
    state: Option<FieldVals>,
    remaining: u128,
    memo: &mut HashSet<(u128, Option<FieldVals>)>,
) -> bool {
    if remaining == 0 {
        return true;
    }
    if !memo.insert((remaining, state.clone())) {
        return false; // configuration already explored and failed
    }
    // The two smallest response bounds among remaining ops, so each
    // candidate can be tested against the minimum *excluding itself*.
    let (mut min1, mut min2) = (u64::MAX, u64::MAX); // values
    let mut min1_idx = usize::MAX;
    for (i, e) in events.iter().enumerate() {
        if remaining & (1 << i) == 0 {
            continue;
        }
        let r = e.res.unwrap_or(u64::MAX);
        if r < min1 {
            min2 = min1;
            min1 = r;
            min1_idx = i;
        } else if r < min2 {
            min2 = r;
        }
    }
    for i in 0..events.len() {
        if remaining & (1 << i) == 0 {
            continue;
        }
        let e = events[i];
        let bound = if i == min1_idx { min2 } else { min1 };
        if e.inv > bound || remaining & earlier[i] != 0 {
            continue; // another op finished before e began, or its client's earlier op remains
        }
        let rest = remaining & !(1 << i);
        if e.determinate() {
            if let Some(next) = apply_checked(&state, e) {
                if search(events, earlier, next, rest, memo) {
                    return true;
                }
            }
        } else {
            // Branch 1: the op took effect (result unobserved, so only
            // the state transition matters).
            let next = apply_free(&state, &e.kind);
            if search(events, earlier, next, rest, memo) {
                return true;
            }
            // Branch 2: the op vanished at the crash.
            if search(events, earlier, state.clone(), rest, memo) {
                return true;
            }
        }
    }
    false
}

/// Apply a determinate op: `None` when the recorded outcome is impossible
/// from `state`, else the successor state.
fn apply_checked(state: &Option<FieldVals>, e: &Event) -> Option<Option<FieldVals>> {
    match (&e.kind, &e.outcome) {
        (OpKind::Get, Outcome::Value(v)) => {
            (state.as_ref() == Some(v)).then(|| state.clone())
        }
        (OpKind::Get, Outcome::NotFound) => state.is_none().then_some(None),
        (OpKind::Set(v), Outcome::Ok) => Some(Some(v.clone())),
        (OpKind::SetField(i, v), Outcome::Ok) => match state {
            Some(fields) if *i < fields.len() => {
                let mut next = fields.clone();
                next[*i] = v.clone();
                Some(Some(next))
            }
            _ => None, // SETF cannot ack against an absent record
        },
        (OpKind::SetField(..), Outcome::NotFound) => match state {
            None => Some(None),
            Some(fields) => {
                // NotFound is also legal when the field index is out of
                // range on a present record.
                let OpKind::SetField(i, _) = &e.kind else { unreachable!() };
                (*i >= fields.len()).then(|| state.clone())
            }
        },
        (OpKind::Del, Outcome::Ok) => state.is_some().then_some(None),
        (OpKind::Del, Outcome::NotFound) => state.is_none().then_some(None),
        _ => None, // e.g. a GET answered Ok — impossible in the spec
    }
}

/// The state transition of an op whose result went unobserved.
pub(crate) fn apply_free(state: &Option<FieldVals>, kind: &OpKind) -> Option<FieldVals> {
    match kind {
        OpKind::Get => state.clone(),
        OpKind::Set(v) => Some(v.clone()),
        OpKind::SetField(i, v) => match state {
            Some(fields) if *i < fields.len() => {
                let mut next = fields.clone();
                next[*i] = v.clone();
                Some(next)
            }
            _ => state.clone(),
        },
        OpKind::Del => None,
    }
}

/// Greedy 1-minimal witness: repeatedly remove any event whose removal
/// keeps the history non-linearizable, scanning in a fixed order until a
/// fixpoint. Deterministic, so expected witnesses can be pinned in tests.
fn minimize(events: &[&Event]) -> Vec<Event> {
    let mut kept: Vec<&Event> = events.to_vec();
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            if !linearizable(&candidate) {
                kept = candidate;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    kept.into_iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientRecorder, Clock};

    fn val(s: &str) -> FieldVals {
        vec![s.as_bytes().to_vec()]
    }

    /// Hand-crafted event with an explicit interval.
    fn ev(
        client: usize,
        seq: usize,
        key: &str,
        kind: OpKind,
        outcome: Outcome,
        inv: u64,
        res: Option<u64>,
    ) -> Event {
        Event {
            client,
            seq,
            key: key.to_string(),
            kind,
            outcome,
            inv,
            res,
        }
    }

    fn history(events: Vec<Event>, crash_at: Option<u64>) -> History {
        History {
            events,
            crash_at,
            ..History::default()
        }
    }

    /// The witness must be 1-minimal: it fails, and removing any single
    /// event makes it pass.
    fn assert_one_minimal(witness: &[Event]) {
        let refs: Vec<&Event> = witness.iter().collect();
        assert!(!linearizable(&refs), "witness itself must fail");
        for skip in 0..refs.len() {
            let sub: Vec<&Event> = refs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, e)| *e)
                .collect();
            assert!(
                linearizable(&sub),
                "witness is not minimal: dropping op {skip} still fails"
            );
        }
    }

    // ----------------------------------------------- linearizable histories

    #[test]
    fn sequential_set_get_del_passes() {
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Set(val("a")), Outcome::Ok, 0, Some(1)),
                ev(0, 1, "k", OpKind::Get, Outcome::Value(val("a")), 2, Some(3)),
                ev(0, 2, "k", OpKind::SetField(0, b"b".to_vec()), Outcome::Ok, 4, Some(5)),
                ev(0, 3, "k", OpKind::Get, Outcome::Value(val("b")), 6, Some(7)),
                ev(0, 4, "k", OpKind::Del, Outcome::Ok, 8, Some(9)),
                ev(0, 5, "k", OpKind::Get, Outcome::NotFound, 10, Some(11)),
            ],
            None,
        );
        let r = check(&h).expect("linearizable");
        assert_eq!(r.keys, 1);
        assert_eq!(r.events, 6);
        assert_eq!(r.indeterminate, 0);
    }

    #[test]
    fn overlapping_writes_allow_either_order() {
        // Two concurrent acked SETs; a later read may see either one.
        for winner in ["a", "b"] {
            let h = history(
                vec![
                    ev(0, 0, "k", OpKind::Set(val("a")), Outcome::Ok, 0, Some(3)),
                    ev(1, 0, "k", OpKind::Set(val("b")), Outcome::Ok, 1, Some(4)),
                    ev(0, 1, "k", OpKind::Get, Outcome::Value(val(winner)), 5, Some(6)),
                ],
                None,
            );
            check(&h).unwrap_or_else(|v| panic!("winner {winner}: {v}"));
        }
    }

    #[test]
    fn indeterminate_set_may_linearize_or_vanish() {
        // SET v2 was in flight at the crash. The recovered state may be
        // v2 (it linearized) or v1 (it vanished) — both pass.
        for survivor in ["v1", "v2"] {
            let h = history(
                vec![
                    ev(0, 0, "k", OpKind::Set(val("v1")), Outcome::Ok, 0, Some(1)),
                    ev(0, 1, "k", OpKind::Set(val("v2")), Outcome::Indeterminate, 2, None),
                    ev(usize::MAX, 0, "k", OpKind::Get,
                       if survivor == "v1" { Outcome::Value(val("v1")) } else { Outcome::Value(val("v2")) },
                       11, Some(12)),
                ],
                Some(10),
            );
            check(&h).unwrap_or_else(|v| panic!("survivor {survivor}: {v}"));
        }
    }

    #[test]
    fn indeterminate_del_may_linearize_or_vanish() {
        for present in [true, false] {
            let h = history(
                vec![
                    ev(0, 0, "k", OpKind::Set(val("v")), Outcome::Ok, 0, Some(1)),
                    ev(0, 1, "k", OpKind::Del, Outcome::Indeterminate, 2, None),
                    ev(usize::MAX, 0, "k", OpKind::Get,
                       if present { Outcome::Value(val("v")) } else { Outcome::NotFound },
                       11, Some(12)),
                ],
                Some(10),
            );
            check(&h).unwrap_or_else(|v| panic!("present {present}: {v}"));
        }
    }

    #[test]
    fn errored_write_with_response_time_is_interval_bounded() {
        // An Err-replied SET has a response stamp: if it took effect at
        // all, it did so inside [2, 3]. A read that *follows* the reply
        // and a read that *precedes* the invocation must both be
        // explainable without it linearizing outside that window.
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Set(val("v1")), Outcome::Ok, 0, Some(1)),
                ev(1, 0, "k", OpKind::Set(val("v2")), Outcome::Indeterminate, 2, Some(3)),
                ev(0, 1, "k", OpKind::Get, Outcome::Value(val("v2")), 4, Some(5)),
            ],
            None,
        );
        check(&h).expect("errored write may have applied");

        // But it cannot explain a value read *before* its invocation: a
        // determinate read that finished before the errored SET began
        // must not see its value.
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Get, Outcome::Value(val("v2")), 0, Some(1)),
                ev(1, 0, "k", OpKind::Set(val("v2")), Outcome::Indeterminate, 2, Some(3)),
            ],
            None,
        );
        let v = check(&h).expect_err("read from the future");
        assert_one_minimal(&v.witness);
    }

    #[test]
    fn setfield_on_absent_key_answers_notfound() {
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::SetField(0, b"x".to_vec()), Outcome::NotFound, 0, Some(1)),
                ev(0, 1, "k", OpKind::Del, Outcome::NotFound, 2, Some(3)),
            ],
            None,
        );
        check(&h).expect("NotFound writes on an absent key are legal");
    }

    // -------------------------------------------- adversarial: must reject

    #[test]
    fn lost_acked_write_is_rejected_with_two_op_witness() {
        // The canonical durability violation: SET acked before the crash,
        // gone after recovery. Witness = the acked SET + the observation.
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Set(val("v")), Outcome::Ok, 0, Some(1)),
                ev(usize::MAX, 0, "k", OpKind::Get, Outcome::NotFound, 11, Some(12)),
            ],
            Some(10),
        );
        let v = check(&h).expect_err("acked write lost");
        assert_eq!(v.key, "k");
        assert_eq!(v.witness.len(), 2, "witness: the SET and the missing read");
        assert_eq!(v.witness[0].kind.tag(), "SET");
        assert_eq!(v.witness[1].outcome, Outcome::NotFound);
        assert_one_minimal(&v.witness);
    }

    #[test]
    fn stale_read_after_delete_is_rejected() {
        // SET v1, DEL acked, then a read serves v1 again. The minimal
        // core our greedy order finds is the read itself — v1 was never
        // durably current at its read point (and without the SET, never
        // written at all).
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Set(val("v1")), Outcome::Ok, 0, Some(1)),
                ev(0, 1, "k", OpKind::Del, Outcome::Ok, 2, Some(3)),
                ev(0, 2, "k", OpKind::Get, Outcome::Value(val("v1")), 4, Some(5)),
            ],
            None,
        );
        let v = check(&h).expect_err("resurrected value");
        assert_eq!(v.key, "k");
        assert_eq!(v.witness.len(), 1);
        assert_eq!(v.witness[0].kind, OpKind::Get);
        assert_one_minimal(&v.witness);
    }

    #[test]
    fn stale_read_travelling_backwards_is_rejected() {
        // Reads must never go backwards: GET=v2 then GET=v1 with both
        // SETs acked and no overlap anywhere.
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Set(val("v1")), Outcome::Ok, 0, Some(1)),
                ev(0, 1, "k", OpKind::Set(val("v2")), Outcome::Ok, 2, Some(3)),
                ev(1, 0, "k", OpKind::Get, Outcome::Value(val("v2")), 4, Some(5)),
                ev(1, 1, "k", OpKind::Get, Outcome::Value(val("v1")), 6, Some(7)),
            ],
            None,
        );
        let v = check(&h).expect_err("read went backwards");
        assert_one_minimal(&v.witness);
    }

    #[test]
    fn dirty_read_of_never_durable_value_is_rejected() {
        // A read served v while v's SET was in flight; the crash then
        // discarded the SET. Durable linearizability forbids it: if the
        // read saw v, the SET linearized, so v (or a successor) must
        // survive.
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Set(val("v")), Outcome::Indeterminate, 0, None),
                ev(1, 0, "k", OpKind::Get, Outcome::Value(val("v")), 2, Some(3)),
                ev(usize::MAX, 0, "k", OpKind::Get, Outcome::NotFound, 11, Some(12)),
            ],
            Some(10),
        );
        let v = check(&h).expect_err("dirty read");
        assert_eq!(v.key, "k");
        assert_one_minimal(&v.witness);
    }

    #[test]
    fn cross_key_inversion_convicts_via_one_keys_partition() {
        // The group-deferral nightmare: one client acked SET k1 then SET
        // k2, the crash preserved k2's group but lost k1's. Locality says
        // the inversion must surface on a single key — k1's partition has
        // an acked SET and a NotFound observation.
        let h = history(
            vec![
                ev(0, 0, "k1", OpKind::Set(val("a")), Outcome::Ok, 0, Some(1)),
                ev(0, 1, "k2", OpKind::Set(val("b")), Outcome::Ok, 2, Some(3)),
                ev(usize::MAX, 0, "k1", OpKind::Get, Outcome::NotFound, 11, Some(12)),
                ev(usize::MAX, 1, "k2", OpKind::Get, Outcome::Value(val("b")), 13, Some(14)),
            ],
            Some(10),
        );
        let v = check(&h).expect_err("k1's acked group was lost");
        assert_eq!(v.key, "k1", "the earlier key's partition convicts");
        assert_eq!(v.witness.len(), 2);
        assert_one_minimal(&v.witness);
        // And the honest counterpart passes: both groups durable.
        let h = history(
            vec![
                ev(0, 0, "k1", OpKind::Set(val("a")), Outcome::Ok, 0, Some(1)),
                ev(0, 1, "k2", OpKind::Set(val("b")), Outcome::Ok, 2, Some(3)),
                ev(usize::MAX, 0, "k1", OpKind::Get, Outcome::Value(val("a")), 11, Some(12)),
                ev(usize::MAX, 1, "k2", OpKind::Get, Outcome::Value(val("b")), 13, Some(14)),
            ],
            Some(10),
        );
        check(&h).expect("no inversion");
    }

    #[test]
    fn lost_setfield_is_rejected() {
        // The acked SETF must be reflected in the recovered record.
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Set(vec![b"a".to_vec(), b"b".to_vec()]), Outcome::Ok, 0, Some(1)),
                ev(0, 1, "k", OpKind::SetField(0, b"x".to_vec()), Outcome::Ok, 2, Some(3)),
                ev(usize::MAX, 0, "k", OpKind::Get,
                   Outcome::Value(vec![b"a".to_vec(), b"b".to_vec()]), 11, Some(12)),
            ],
            Some(10),
        );
        let v = check(&h).expect_err("acked SETF lost");
        assert_one_minimal(&v.witness);
    }

    // ------------------------------------------------------ session order

    /// Client 0's acked `SET` of `k`, overlapped by a second op on `k` that
    /// `client` pipelined behind it: (a) a `SETF` answered NotFound, (b) a
    /// `GET` answered NotFound, (c) a second acked `SET`, with the first
    /// value observed after the crash.
    fn overlaps(client: usize) -> [History; 3] {
        let set = |v: &str| ev(0, 0, "k", OpKind::Set(val(v)), Outcome::Ok, 0, Some(3));
        let second = |kind, outcome, res| ev(client, 1, "k", kind, outcome, 1, Some(res));
        [
            history(
                vec![set("v"), second(OpKind::SetField(0, b"x".to_vec()), Outcome::NotFound, 2)],
                None,
            ),
            history(vec![set("v"), second(OpKind::Get, Outcome::NotFound, 4)], None),
            history(
                vec![
                    set("v1"),
                    second(OpKind::Set(val("v2")), Outcome::Ok, 4),
                    ev(usize::MAX, 0, "k", OpKind::Get, Outcome::Value(val("v1")), 11, Some(12)),
                ],
                Some(10),
            ),
        ]
    }

    #[test]
    fn setf_overtaking_its_own_clients_set_is_rejected() {
        let v = check(&overlaps(0)[0]).expect_err("SETF found nothing behind its own acked SET");
        let tags: Vec<_> = v.witness.iter().map(|e| (e.kind.tag(), &e.outcome)).collect();
        assert_eq!(tags, [("SET", &Outcome::Ok), ("SETF", &Outcome::NotFound)]);
        assert_one_minimal(&v.witness);
    }

    #[test]
    fn get_overtaking_its_own_clients_set_is_rejected() {
        let v = check(&overlaps(0)[1]).expect_err("GET found nothing behind its own acked SET");
        let tags: Vec<_> = v.witness.iter().map(|e| (e.kind.tag(), &e.outcome)).collect();
        assert_eq!(tags, [("SET", &Outcome::Ok), ("GET", &Outcome::NotFound)]);
        assert_one_minimal(&v.witness);
    }

    #[test]
    fn one_clients_pipelined_sets_take_effect_in_request_order() {
        let v = check(&overlaps(0)[2]).expect_err("v2 was set after v1, so v1 cannot survive");
        // Dropping either SET leaves a read of v1 that nothing explains, so
        // the 1-minimal core is the observation alone.
        assert_eq!(v.witness.len(), 1);
        assert_eq!(v.witness[0].client, usize::MAX);
        assert_eq!(v.witness[0].outcome, Outcome::Value(val("v1")));
        assert_one_minimal(&v.witness);
    }

    #[test]
    fn an_errored_write_orders_nothing_after_it() {
        // The failover window: the SET's group reached the backup before
        // the primary crashed, so it answered Err and surfaced at
        // promotion — after the GET the crashed primary answered.
        let h = history(
            vec![
                ev(0, 0, "k", OpKind::Set(val("v")), Outcome::Indeterminate, 0, Some(3)),
                ev(0, 1, "k", OpKind::Get, Outcome::NotFound, 1, Some(4)),
                ev(usize::MAX, 0, "k", OpKind::Get, Outcome::Value(val("v")), 11, Some(12)),
            ],
            Some(10),
        );
        check(&h).expect("an Err'd write may take effect after its client's later read");
    }

    #[test]
    fn the_same_overlaps_from_two_clients_are_concurrent() {
        for (shape, h) in overlaps(1).iter().enumerate() {
            check(h).unwrap_or_else(|v| panic!("shape {shape}: {v}"));
        }
    }

    // --------------------------------------------------------- plumbing

    #[test]
    fn recorder_to_check_round_trip() {
        let clock = Clock::new();
        let mut r = ClientRecorder::new(&clock, 0);
        let t0 = r.invoke("a", OpKind::Set(val("1")));
        r.resolve(t0, Outcome::Ok);
        let t1 = r.invoke("a", OpKind::Del);
        // t1 never resolves: in flight at the crash.
        let _ = t1;
        let mut h = History::collect(clock, [r]);
        h.mark_crash();
        h.observe("a", Some(val("1"))); // DEL vanished
        let rep = check(&h).expect("linearizable");
        assert_eq!(rep.indeterminate, 1);
        // Same run, but the recovered state claims a value nobody wrote.
        let clock = Clock::new();
        let mut r = ClientRecorder::new(&clock, 0);
        let t0 = r.invoke("a", OpKind::Set(val("1")));
        r.resolve(t0, Outcome::Ok);
        let mut h = History::collect(clock, [r]);
        h.mark_crash();
        h.observe("a", Some(val("2")));
        let v = check(&h).expect_err("torn/foreign value");
        assert_eq!(v.witness.len(), 1, "the impossible observation alone convicts");
    }

    #[test]
    fn memoization_handles_wide_concurrency() {
        // 10 pairwise-concurrent indeterminate SETs + one final read:
        // 2^10 vanish/linearize combinations, pruned by the memo. Must
        // terminate fast and accept (the read matches one of the SETs).
        let mut events = Vec::new();
        for i in 0..10usize {
            events.push(ev(
                i, 0, "k",
                OpKind::Set(val(&format!("v{i}"))),
                Outcome::Indeterminate,
                i as u64,
                None,
            ));
        }
        events.push(ev(usize::MAX, 0, "k", OpKind::Get, Outcome::Value(val("v7")), 100, Some(101)));
        check(&history(events, Some(50))).expect("v7 linearized last");
    }

    #[test]
    #[should_panic(expected = "post-recovery observation")]
    fn observation_before_crash_mark_is_harness_misuse() {
        let h = history(
            vec![ev(usize::MAX, 0, "k", OpKind::Get, Outcome::NotFound, 1, Some(2))],
            Some(10),
        );
        let _ = check(&h);
    }
}
