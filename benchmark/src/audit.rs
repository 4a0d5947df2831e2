//! What the store must hold, worked out from the acknowledged writes alone.
//!
//! Values carry the index of the op that wrote them (`workload.rs`), so a
//! field read back is checked byte for byte against the one op that may
//! have written it last: no torn, misrouted, lost or resurrected write
//! passes. The same check runs on GET replies during the load (without the
//! "was it acknowledged" part, which a concurrent reader cannot know), on
//! a sample of keys over the socket after the load, and on the reopened
//! pools after the crash.

use std::collections::{HashMap, HashSet};

use jnvm_kvstore::Record;

use crate::client::Phase;
use crate::workload::{Op, Workload, PRELOAD_TAG};

/// Keys the post-run audits read: the keys of the first `HOT_OPS` ops
/// (under zipfian these are the contended ones) plus `SPREAD_KEYS` keys
/// spread evenly over the preloaded range (most never written: a write
/// routed to the wrong key shows there).
const HOT_OPS: u64 = 1_000;
const SPREAD_KEYS: u64 = 1_000;

/// Check that `bytes` is exactly what some op of the stream below index
/// `issued` stores in `field` of `key`, or the preloaded bytes. Returns
/// the tag found.
pub fn check_field(
    w: &Workload,
    key: u64,
    field: usize,
    bytes: &[u8],
    issued: u64,
) -> Result<u64, String> {
    if bytes.len() != w.value_size {
        return Err(format!(
            "key {key} field {field}: {} bytes, not {}",
            bytes.len(),
            w.value_size
        ));
    }
    let tag = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte tag"));
    let wrote_it = if tag & PRELOAD_TAG != 0 {
        tag == PRELOAD_TAG | key
    } else {
        tag < issued
            && match w.op(tag) {
                Op::SetField { key: k, field: f } => k == key && f == field,
                Op::Set { key: k } => k == key,
                _ => false,
            }
    };
    if !wrote_it {
        return Err(format!(
            "key {key} field {field}: tag {tag:#x} never wrote here (misrouted?)"
        ));
    }
    if bytes != w.value(tag, field) {
        return Err(format!(
            "key {key} field {field}: bytes differ from op {tag:#x}'s (torn?)"
        ));
    }
    Ok(tag)
}

/// Check a GET payload served while writers may be running.
pub fn check_served_record(
    w: &Workload,
    key: u64,
    rec: &Record,
    issued: u64,
) -> Result<(), String> {
    if rec.key != w.key_name(key) || rec.fields.len() != w.fields {
        return Err(format!(
            "key {key}: served {:?} with {} fields",
            rec.key,
            rec.fields.len()
        ));
    }
    for (f, (_, bytes)) in rec.fields.iter().enumerate() {
        check_field(w, key, f, bytes, issued)?;
    }
    Ok(())
}

/// The acknowledged writes that decide the final state of the audited
/// keys.
pub struct Ledger {
    /// Keys the sampled audits read, in a fixed order.
    pub sample: Vec<u64>,
    sampled: HashSet<u64>,
    /// `(key, field)` → the ops that may have written it last: each
    /// connection's last acknowledged `SETF` there, from the latest load
    /// phase that touched it. Connections are ordered within themselves
    /// and phases are separated by a drain, so nothing else can be last.
    last_setf: HashMap<(u64, usize), Vec<u64>>,
    /// Ops sent but not acknowledged `Ok`: their effect is unknown.
    lost: HashSet<u64>,
    /// Ops `0..issued` were drawn from the stream.
    pub issued: u64,
    /// Test hook: expect one wrong byte, so the audit must fail.
    pub corrupt: bool,
}

impl Ledger {
    pub fn new(w: &Workload) -> Ledger {
        let mut sample = Vec::new();
        let mut sampled = HashSet::new();
        let hot = (0..HOT_OPS).map(|i| w.op(i).key());
        let spread = (0..SPREAD_KEYS).map(|j| j * w.records / SPREAD_KEYS);
        for key in hot.chain(spread) {
            if sampled.insert(key) {
                sample.push(key);
            }
        }
        Ledger {
            sample,
            sampled,
            last_setf: HashMap::new(),
            lost: HashSet::new(),
            issued: 0,
            corrupt: false,
        }
    }

    /// Fold in one drained load phase.
    pub fn absorb(&mut self, w: &Workload, phase: &Phase) {
        self.issued = self.issued.max(phase.issued);
        self.lost.extend(&phase.lost);
        let mut touched: HashMap<(u64, usize), Vec<u64>> = HashMap::new();
        for acked in &phase.acked_by_conn {
            let mut last: HashMap<(u64, usize), u64> = HashMap::new();
            for &i in acked {
                if let Op::SetField { key, field } = w.op(i) {
                    if self.sampled.contains(&key) {
                        last.insert((key, field), i);
                    }
                }
            }
            for (slot, i) in last {
                touched.entry(slot).or_default().push(i);
            }
        }
        self.last_setf.extend(touched);
    }

    /// `Some(true)` = must be present, `Some(false)` = must be absent,
    /// `None` = an unacknowledged op left it open.
    fn presence(&self, w: &Workload, key: u64) -> Option<bool> {
        if let Some(d) = w.deleter_of(key).filter(|&d| d < self.issued) {
            return if self.lost.contains(&d) {
                None
            } else {
                Some(false)
            };
        }
        match w.inserter_of(key) {
            None => Some(true),
            Some(i) if i >= self.issued => Some(false),
            Some(i) if self.lost.contains(&i) => None,
            Some(_) => Some(true),
        }
    }

    /// Check what the store returned for `key` against the ledger.
    pub fn check(&self, w: &Workload, key: u64, got: Option<&Record>) -> Result<(), String> {
        let rec = match (self.presence(w, key), got) {
            (None, _) | (Some(false), None) => return Ok(()),
            (Some(false), Some(_)) => {
                return Err(format!(
                    "key {key}: present, but its DEL was acknowledged or its SET never sent"
                ))
            }
            (Some(true), None) => return Err(format!("key {key}: acknowledged write lost")),
            (Some(true), Some(rec)) => rec,
        };
        if rec.key != w.key_name(key) || rec.fields.len() != w.fields {
            return Err(format!(
                "key {key}: got {:?} with {} fields",
                rec.key,
                rec.fields.len()
            ));
        }
        let base = w.inserter_of(key).unwrap_or(PRELOAD_TAG | key);
        for (f, (_, bytes)) in rec.fields.iter().enumerate() {
            let mut allowed: Vec<Vec<u8>> = match self.last_setf.get(&(key, f)) {
                Some(tags) => tags.iter().map(|&t| w.value(t, f)).collect(),
                None => vec![w.value(base, f)],
            };
            if self.corrupt {
                for v in &mut allowed {
                    *v.last_mut().expect("non-empty value") ^= 1;
                }
            }
            if !allowed.iter().any(|v| v == bytes) {
                return Err(format!(
                    "key {key} field {f}: stored bytes are not the last acknowledged write's ({} candidate(s))",
                    allowed.len()
                ));
            }
        }
        Ok(())
    }

    /// Records the store must hold, if no unacknowledged op left it open.
    pub fn expected_records(&self, w: &Workload) -> Option<u64> {
        (0..w.key_space(self.issued))
            .try_fold(0u64, |n, key| Some(n + u64::from(self.presence(w, key)?)))
    }
}
