//! Replica sets: the failover primitive under `jnvm-repl`.
//!
//! A [`ReplicaSet`] owns an ordered list of *independent* full stacks
//! (each its own device, heap, FA manager — whatever `T` is) and tracks
//! which one is **active**. The replication machinery itself (streaming
//! commit groups to the backup, waiting for its durability point) lives
//! with the committer that owns the set; this type only answers the two
//! questions failover asks:
//!
//! * *who serves right now?* — [`ReplicaSet::active`], and
//! * *who takes over when the active device dies?* — [`ReplicaSet::promote`],
//!   which re-points `active` at the backup, marks the set **degraded**
//!   (one survivor, no redundancy left) and counts the promotion.
//!
//! A backup-side crash instead calls [`ReplicaSet::degrade`]: the primary
//! keeps serving solo. Both transitions are one-way — re-attaching a
//! replica is re-creation, not state here.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// An ordered set of replicas with one active member. Index 0 starts
/// active (the primary); [`ReplicaSet::promote`] advances to the next
/// replica in order.
pub struct ReplicaSet<T> {
    replicas: Vec<T>,
    active: AtomicUsize,
    degraded: AtomicBool,
    promotions: AtomicU64,
}

impl<T> ReplicaSet<T> {
    /// Wrap `replicas`; index 0 is the initial primary. A singleton set is
    /// born degraded (it never had redundancy).
    ///
    /// # Panics
    ///
    /// Panics on an empty set.
    pub fn new(replicas: Vec<T>) -> ReplicaSet<T> {
        assert!(
            !replicas.is_empty(),
            "a replica set needs at least one member"
        );
        let degraded = replicas.len() < 2;
        ReplicaSet {
            replicas,
            active: AtomicUsize::new(0),
            degraded: AtomicBool::new(degraded),
            promotions: AtomicU64::new(0),
        }
    }

    /// Number of replicas (including dead ones; the set never shrinks).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always false — the constructor rejects empty sets.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Index of the replica currently serving.
    pub fn active_index(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// The replica currently serving.
    pub fn active(&self) -> &T {
        &self.replicas[self.active_index()]
    }

    /// The next replica in promotion order, or `None` once the set is
    /// degraded (no redundancy left to fail over to).
    pub fn backup(&self) -> Option<&T> {
        if self.degraded.load(Ordering::Acquire) {
            return None;
        }
        let next = (self.active_index() + 1) % self.replicas.len();
        Some(&self.replicas[next])
    }

    /// Replica by index (promotion never removes members, so a harness can
    /// still inspect the crashed primary's stack after failover).
    pub fn get(&self, i: usize) -> &T {
        &self.replicas[i]
    }

    /// Fail over: re-point `active` at the backup and mark the set
    /// degraded. Returns the new active index, or `None` when there is no
    /// backup left (the caller's only move is to die, PR 6 style).
    pub fn promote(&self) -> Option<usize> {
        if self.degraded.swap(true, Ordering::AcqRel) {
            return None;
        }
        let next = (self.active_index() + 1) % self.replicas.len();
        self.active.store(next, Ordering::Release);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        Some(next)
    }

    /// Backup-side crash: the active replica keeps serving solo. Idempotent.
    pub fn degrade(&self) {
        self.degraded.store(true, Ordering::Release);
    }

    /// True once redundancy is gone (singleton set, promotion, or an
    /// explicit [`ReplicaSet::degrade`]).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_advances_and_degrades() {
        let set = ReplicaSet::new(vec!["primary", "backup"]);
        assert_eq!(set.active_index(), 0);
        assert_eq!(set.backup(), Some(&"backup"));
        assert!(!set.is_degraded());

        assert_eq!(set.promote(), Some(1));
        assert_eq!(*set.active(), "backup");
        assert!(set.is_degraded());
        assert_eq!(set.promotions(), 1);
        // No redundancy left: a second failure has nowhere to go.
        assert_eq!(set.backup(), None);
        assert_eq!(set.promote(), None);
        assert_eq!(set.promotions(), 1);
        // The crashed primary stays inspectable by index.
        assert_eq!(*set.get(0), "primary");
    }

    #[test]
    fn singleton_set_is_born_degraded() {
        let set = ReplicaSet::new(vec![7u32]);
        assert!(set.is_degraded());
        assert_eq!(set.backup(), None);
        assert_eq!(set.promote(), None);
        assert_eq!(*set.active(), 7);
    }

    #[test]
    fn backup_crash_degrades_without_flipping_active() {
        let set = ReplicaSet::new(vec![0u8, 1u8]);
        set.degrade();
        assert_eq!(set.active_index(), 0, "degrade must not fail over");
        assert_eq!(set.backup(), None);
        assert_eq!(set.promotions(), 0);
    }
}
