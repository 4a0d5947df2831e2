//! Replicated group commit: the same batch of [`WriteOp`]s committed on
//! two independent pool stacks, with a **replication-lag watermark**.
//!
//! The replication unit is the commit group (PR 3): one group = one
//! §4.2 fence pass per device, so replicating at group granularity pays
//! the backup's 4 fences (the applies are durable before the logs
//! retire) once per batch, not per write — the Persistent
//! Software Combining argument applied across devices.
//!
//! [`commit_writes_replicated`] is the in-process form, called by the
//! in-process kill driver (`tests/lincheck.rs`) and by the benchmark's
//! per-layer probe (`benchmark/src/layers.rs`): it commits
//! the batch on the **backup first**, then on the primary, mirroring the
//! server's wire ordering (the group is streamed to the backup *before*
//! the primary's commit). That ordering is what makes failover safe: at
//! any crash point on the primary, the backup's applied state is a
//! superset-prefix of the primary's — every *fully replicated-committed*
//! (i.e. ackable) batch is durable on the backup, and anything beyond the
//! last acked batch is an allowed prefix extension under the acked ⇒
//! durable contract.
//!
//! `jnvm-server` uses the wire path instead (REPL frames in
//! `server::proto`), but drives the same [`ReplLag`] watermark: `sent`
//! advances when a group is handed to the backup, `acked` when the
//! backup's durability point comes back. `sent - acked` is the
//! replication lag a STATS reader sees.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::grid::DataGrid;
use crate::group::{commit_writes, BatchOutcome, WriteOp};
use crate::jnvm_backend::JnvmBackend;

/// Replication-lag watermark: monotone sequence numbers for groups handed
/// to the backup (`sent`) and groups the backup has made durable
/// (`acked`). Lag is their difference — 0 when the backup is caught up,
/// frozen at its last value once the set degrades.
#[derive(Debug, Default)]
pub struct ReplLag {
    sent: AtomicU64,
    acked: AtomicU64,
}

impl ReplLag {
    /// Fresh watermark at sequence 0.
    pub fn new() -> ReplLag {
        ReplLag::default()
    }

    /// Allocate the next group sequence number (first call returns 1).
    pub fn next_seq(&self) -> u64 {
        self.sent.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Record the backup's durability point (cumulative: acks may arrive
    /// coalesced, only the max matters).
    pub fn record_acked(&self, seq: u64) {
        self.acked.fetch_max(seq, Ordering::AcqRel);
    }

    /// Groups handed to the backup so far.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Acquire)
    }

    /// The backup's durability point.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Groups in flight to the backup (`sent - acked`).
    pub fn lag(&self) -> u64 {
        self.sent().saturating_sub(self.acked())
    }
}

/// One replica's commit surface.
pub struct ReplicaStack<'a> {
    /// The replica's grid (cache invalidation rides the commit).
    pub grid: &'a DataGrid,
    /// The replica's backend.
    pub be: &'a JnvmBackend,
}

/// Commit `ops` on the backup, then on the primary, and return the
/// primary's outcome. Both sides run the full group-commit pass
/// ([`commit_writes`]) against their own device; group formation is
/// deterministic in the op list and the backend state, so replaying the
/// identical batches yields identical per-op results — asserted here.
/// With `backup = None` (degraded / solo mode) this is plain
/// [`commit_writes`] and the watermark does not move.
///
/// The caller owns crash handling: an injected crash on either device
/// unwinds out of this function ([`jnvm_pmem::catch_crash`] at the call
/// site), after which the caller promotes or degrades. On a mid-batch
/// primary crash the backup has already committed the batch — the
/// superset-prefix invariant failover relies on.
pub fn commit_writes_replicated(
    primary: ReplicaStack<'_>,
    backup: Option<ReplicaStack<'_>>,
    ops: &[WriteOp],
    lag: &ReplLag,
) -> BatchOutcome {
    if let Some(b) = backup {
        let seq = lag.next_seq();
        let backup_out = commit_writes(b.grid, b.be, ops);
        lag.record_acked(seq);
        let out = commit_writes(primary.grid, primary.be, ops);
        debug_assert_eq!(
            out.results, backup_out.results,
            "replica divergence inside a crash-free batch: group commit \
             must be deterministic in (ops, backend state)"
        );
        out
    } else {
        commit_writes(primary.grid, primary.be, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use jnvm::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{Pmem, PmemConfig};

    use crate::grid::GridConfig;
    use crate::jnvm_backend::register_kvstore;
    use crate::Backend;
    use crate::Record;

    fn stack(bytes: u64) -> (Arc<Pmem>, jnvm::Jnvm, Arc<JnvmBackend>, DataGrid) {
        let pmem = Pmem::new(PmemConfig::crash_sim(bytes));
        let rt = register_kvstore(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .expect("pool");
        let be = Arc::new(JnvmBackend::create(&rt, 4, true).expect("backend"));
        let grid = DataGrid::new(
            Arc::clone(&be) as Arc<dyn Backend>,
            GridConfig { cache_capacity: 0 },
        );
        (pmem, rt, be, grid)
    }

    #[test]
    fn replicated_commit_applies_to_both_and_tracks_lag() {
        let (_pp, _prt, pbe, pgrid) = stack(4 << 20);
        let (_bp, _brt, bbe, bgrid) = stack(4 << 20);
        let lag = ReplLag::new();

        let ops = vec![
            WriteOp::Set(Record::ycsb("a", &[b"1".to_vec()])),
            WriteOp::Set(Record::ycsb("b", &[b"2".to_vec()])),
            WriteOp::Del("missing".into()),
        ];
        let out = commit_writes_replicated(
            ReplicaStack {
                grid: &pgrid,
                be: &pbe,
            },
            Some(ReplicaStack {
                grid: &bgrid,
                be: &bbe,
            }),
            &ops,
            &lag,
        );
        assert_eq!(out.results, vec![true, true, false]);
        assert_eq!(pbe.read("a").unwrap().fields.value(0), b"1");
        assert_eq!(bbe.read("a").unwrap().fields.value(0), b"1");
        assert_eq!(bbe.read("b").unwrap().fields.value(0), b"2");
        assert_eq!((lag.sent(), lag.acked(), lag.lag()), (1, 1, 0));
    }

    #[test]
    fn solo_commit_leaves_the_watermark_alone() {
        let (_pp, _prt, pbe, pgrid) = stack(4 << 20);
        let lag = ReplLag::new();
        let ops = vec![WriteOp::Set(Record::ycsb("k", &[b"v".to_vec()]))];
        let out = commit_writes_replicated(
            ReplicaStack {
                grid: &pgrid,
                be: &pbe,
            },
            None,
            &ops,
            &lag,
        );
        assert_eq!(out.results, vec![true]);
        assert_eq!(lag.sent(), 0);
        assert_eq!(lag.lag(), 0);
    }

    #[test]
    fn coalesced_acks_are_cumulative() {
        let lag = ReplLag::new();
        assert_eq!(lag.next_seq(), 1);
        assert_eq!(lag.next_seq(), 2);
        assert_eq!(lag.next_seq(), 3);
        assert_eq!(lag.lag(), 3);
        lag.record_acked(3); // one ack covers all three
        assert_eq!(lag.lag(), 0);
        lag.record_acked(1); // stale ack must not regress the point
        assert_eq!(lag.acked(), 3);
    }
}
