//! Group commit over the J-PFA redo log: stage many independent
//! failure-atomic writes on one thread, then make them durable as one
//! transaction in one log, behind *one* pass of four fences instead of four
//! fences each (the amortization argument of persistent software combining,
//! applied to the §4.2 log; the fourth fence makes the applies durable
//! before the log retires).
//!
//! ## Exclusive-writer contract
//!
//! [`commit_writes`] holds the grid's per-key stripe locks for every key it
//! stages, from staging until the group's durability point, so concurrent
//! *readers* through the [`DataGrid`] are safe. It does **not** take the
//! backend's shard locks (staging several structural writes on one thread
//! while direct callers commit under those locks would invert lock order).
//! Instead the group former never puts two structural ops on the same
//! shard in one group, and the process must route **all writes** to a
//! given backend through the committer while it is in use — the server's
//! single-committer design does exactly that.

use std::sync::atomic::Ordering;

use crate::codec::Record;
use crate::grid::DataGrid;
use crate::jnvm_backend::JnvmBackend;

/// One batched write, as decoded from the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert or replace a whole record.
    Set(Record),
    /// Replace one positional field.
    SetField {
        /// Record key.
        key: String,
        /// Positional field index.
        field: usize,
        /// New field bytes.
        value: Vec<u8>,
    },
    /// Remove a record.
    Del(String),
}

impl WriteOp {
    /// The key this op touches.
    pub fn key(&self) -> &str {
        match self {
            WriteOp::Set(rec) => &rec.key,
            WriteOp::SetField { key, .. } => key,
            WriteOp::Del(key) => key,
        }
    }

    /// True when the op mutates the shard's shared map structure (cell
    /// array, entry chains) rather than just one record's blocks. Two
    /// structural ops on one shard cannot share a group: a staged block
    /// does not see a sibling's staged writes, so both could claim the
    /// same free cell and the last apply would win. (Conservative since
    /// the redo log carries words, not blocks: ops on different cells no
    /// longer conflict — DESIGN.md §3 names relaxing this as a follow-up.)
    fn is_structural(&self) -> bool {
        !matches!(self, WriteOp::SetField { .. })
    }
}

/// What a batch commit did.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-op success, parallel to the input slice.
    pub results: Vec<bool>,
    /// Commit groups issued (each costs 4 ordering fences on the FA path:
    /// flush, commit point, apply — durable before retire —, retire).
    pub groups: usize,
}

/// Commit a batch of writes against `grid`/`be` with group commit.
///
/// `be` must be the backend `grid` was built over, and a J-PFA one: this
/// panics otherwise. Each op is staged as its own failure-atomic block and
/// whole groups are committed as one transaction behind shared fences;
/// when every op in the batch lands in one group, the batch costs 4 fences
/// total instead of 4 per op, and a crash leaves all of the group or none
/// of it. Ops that conflict (same lock stripe, or two structural ops on
/// one shard) are deferred to a later group of the same call, preserving
/// per-key order.
///
/// When the function returns, every op in the batch is durable — the
/// caller may acknowledge all of them.
pub fn commit_writes(grid: &DataGrid, be: &JnvmBackend, ops: &[WriteOp]) -> BatchOutcome {
    assert!(
        be.fa_enabled(),
        "commit_writes needs a J-PFA backend: a J-PDT op is not staged"
    );
    let mut results = vec![false; ops.len()];
    if ops.is_empty() {
        return BatchOutcome { results, groups: 0 };
    }

    let rt = be.runtime().clone();
    let mut groups = 0;
    let mut remaining: Vec<usize> = (0..ops.len()).collect();
    // Per round, the stripes an op of the group holds or one deferred on
    // (either bars the stripe), and the shards a structural op of the
    // group touches: flags indexed by stripe and by shard, no hashing.
    let mut barred_stripes = vec![false; grid.stripe_count()];
    let mut structural_shards = vec![false; be.shard_count()];
    while !remaining.is_empty() {
        barred_stripes.fill(false);
        structural_shards.fill(false);
        let mut guards = Vec::new();
        let mut staged = Vec::new();
        let mut grouped: Vec<usize> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();

        for &idx in &remaining {
            let op = &ops[idx];
            let stripe = grid.stripe_index(op.key());
            let shard = be.shard_index(op.key());
            if barred_stripes[stripe] || (op.is_structural() && structural_shards[shard]) {
                // Same stripe ⇒ possibly the same key: defer to a later
                // group of this call so per-key order is preserved. The
                // stripe is poisoned for the rest of the round — once one
                // op on it defers, a later op on the same key must not slip
                // into this group ahead of it.
                deferred.push(idx);
                barred_stripes[stripe] = true;
                continue;
            }
            barred_stripes[stripe] = true;
            if op.is_structural() {
                structural_shards[shard] = true;
            }
            // Stripe lock held through the group's durability point: a
            // staged key's persistent image is mid-flight and its volatile
            // mirror already new, so no reader may observe it in between.
            guards.push(grid.stripe_at(stripe).lock());
            let (tx, ok) = rt.fa_stage(|| be.apply_op(op));
            results[idx] = ok;
            grouped.push(idx);
            staged.push(tx);
        }

        // The group's durability point: 4 fences for the grouped ops
        // (the applies are durable before the log retires).
        // `fa_commit_group` declares the log/object footprints itself
        // ("fa-commit"/"fa-retire"); this label only marks the ack point.
        rt.fa_commit_group(staged);
        rt.pmem().ordering_point("kv-batch-ack", &[]);
        groups += 1;
        grid.metrics()
            .writes
            .fetch_add(grouped.len() as u64, Ordering::Relaxed);
        for &idx in &grouped {
            grid.invalidate(ops[idx].key());
        }
        drop(guards);
        remaining = deferred;
    }

    BatchOutcome { results, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::grid::GridConfig;
    use crate::jnvm_backend::register_kvstore;
    use jnvm::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{Pmem, PmemConfig};
    use std::sync::Arc;

    fn setup() -> (Arc<Pmem>, Arc<JnvmBackend>, DataGrid) {
        let pmem = Pmem::new(PmemConfig::crash_sim(32 << 20));
        let rt = register_kvstore(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        let be = Arc::new(JnvmBackend::create(&rt, 8, true).unwrap());
        let grid = DataGrid::new(Arc::clone(&be) as Arc<dyn Backend>, GridConfig::default());
        (pmem, be, grid)
    }

    fn set(key: &str, val: &[u8]) -> WriteOp {
        WriteOp::Set(Record::ycsb(key, &[val.to_vec()]))
    }

    #[test]
    fn batch_applies_all_ops_and_amortizes_fences() {
        let (pmem, be, grid) = setup();
        let ops: Vec<WriteOp> = (0..16).map(|i| set(&format!("k{i:02}"), b"v")).collect();
        // First run warms the log pool — fresh-log creation pays fences of
        // its own that would obscure the steady-state count under test.
        commit_writes(&grid, &be, &ops);
        let before = pmem.stats();
        let out = commit_writes(&grid, &be, &ops);
        let d = pmem.stats().delta(&before);
        assert!(out.results.iter().all(|&r| r));
        // Ops spread over 8 shards ⇒ more than one group, but far fewer
        // than one per op; each group costs 4 fences (the applies are
        // durable before the log retires).
        assert!(out.groups < ops.len(), "no grouping happened: {out:?}");
        assert_eq!(d.pfences, 4 * out.groups as u64);
        for i in 0..16 {
            assert_eq!(
                grid.read(&format!("k{i:02}")).unwrap().fields.value(0),
                b"v"
            );
        }
    }

    #[test]
    fn same_key_ops_apply_in_order() {
        let (_p, be, grid) = setup();
        let ops = vec![
            set("k", b"first"),
            WriteOp::SetField {
                key: "k".into(),
                field: 0,
                value: b"second".to_vec(),
            },
            set("other", b"x"),
            WriteOp::Del("k".into()),
        ];
        let out = commit_writes(&grid, &be, &ops);
        assert_eq!(out.results, vec![true, true, true, true]);
        assert!(out.groups >= 3, "same-key ops must land in distinct groups");
        assert!(grid.read("k").is_none(), "Del must be the last word");
        assert!(grid.read("other").is_some());
    }

    #[test]
    fn deferred_set_never_lets_its_setf_jump_the_queue() {
        // Regression: with more structural Sets than shards, some Sets
        // defer on the shard rule. Their stripe was not yet claimed, so a
        // later SetField on the same key used to slip into the earlier
        // group and run before its Set existed.
        let (_p, be, grid) = setup();
        let mut ops = Vec::new();
        for i in 0..32 {
            let key = format!("pair-{i:03}");
            ops.push(set(&key, b"base"));
            ops.push(WriteOp::SetField {
                key,
                field: 0,
                value: b"patched".to_vec(),
            });
        }
        let out = commit_writes(&grid, &be, &ops);
        for (i, r) in out.results.iter().enumerate() {
            assert!(*r, "op {i} failed: SetField outran its Set");
        }
        for i in 0..32 {
            assert_eq!(
                grid.read(&format!("pair-{i:03}")).unwrap().fields.value(0),
                b"patched"
            );
        }
    }

    #[test]
    fn deferred_set_keeps_its_del_behind_it() {
        // The DEL twin of the SetField regression above: with more
        // structural Sets than shards, Sets defer across group
        // boundaries. A same-key Del is itself structural *and* keyed on
        // the same stripe, so it must ride a strictly later round than
        // its Set — if it ever jumped the queue, the Del would hit an
        // absent key (result false) and the Set would then resurrect the
        // record. Split across deferral rounds, per-key order must hold:
        // every op applies, and the final state is "deleted".
        let (_p, be, grid) = setup();
        let mut ops = Vec::new();
        for i in 0..32 {
            let key = format!("dpair-{i:03}");
            ops.push(set(&key, b"doomed"));
            ops.push(WriteOp::Del(key));
        }
        let out = commit_writes(&grid, &be, &ops);
        for (i, r) in out.results.iter().enumerate() {
            assert!(
                *r,
                "op {i} failed: Del outran its Set across a group boundary"
            );
        }
        assert!(
            out.groups >= 2,
            "32 structural pairs over 8 shards must span multiple groups"
        );
        for i in 0..32 {
            assert!(
                grid.read(&format!("dpair-{i:03}")).is_none(),
                "dpair-{i:03}: Del must be the last word even when its Set deferred"
            );
        }
        assert_eq!(grid.len(), 0);
    }

    #[test]
    fn failed_ops_report_false_without_poisoning_the_batch() {
        let (_p, be, grid) = setup();
        let ops = vec![
            WriteOp::SetField {
                key: "missing".into(),
                field: 0,
                value: b"x".to_vec(),
            },
            set("present", b"v"),
            WriteOp::Del("also-missing".into()),
        ];
        let out = commit_writes(&grid, &be, &ops);
        assert_eq!(out.results, vec![false, true, false]);
        assert_eq!(grid.read("present").unwrap().fields.value(0), b"v");
    }
}
