//! The volatile liveness bitmap used by the recovery procedure (§4.1.3).
//!
//! The bitmap is **striped and atomic** so the parallel recovery traversal
//! can mark from many worker threads without locks: the bit words are
//! `AtomicU64`s set with `fetch_or`, and the `marked`/`highest` bookkeeping
//! is kept per *stripe* (a fixed span of words, each with its own counters)
//! to avoid a single contended cache line. The accessors
//! [`LiveBitmap::marked_count`] / [`LiveBitmap::highest_marked`] merge the
//! stripes on read. `mark` therefore takes `&self` — the single-threaded
//! recovery path and the N-thread path share one type, and a mark that
//! races with another mark of the same block is counted exactly once (the
//! `fetch_or` decides the winner).

use std::sync::atomic::{AtomicU64, Ordering};

/// Bit words per stripe: 1024 words = 65 536 blocks = 16 MiB of heap per
/// stripe at the default 256-B block size.
const STRIPE_WORDS: usize = 1024;

/// Per-stripe bookkeeping, padded onto its own cache line so concurrent
/// markers in different heap regions do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe {
    /// Blocks marked within this stripe.
    marked: AtomicU64,
    /// `highest marked block index + 1` within this stripe; 0 = none.
    highest_plus1: AtomicU64,
}

/// One bit per block, or per pool slot ([`crate::PoolManager::slot_bit`]);
/// built during the recovery traversal, consumed by the sweep
/// ([`crate::BlockHeap::rebuild_free_queue`], [`crate::PoolManager::rebuild`]).
#[derive(Debug)]
pub struct LiveBitmap {
    bits: Vec<AtomicU64>,
    stripes: Vec<Stripe>,
    nblocks: u64,
}

impl LiveBitmap {
    /// Create an all-clear bitmap covering `nblocks` blocks.
    pub fn new(nblocks: u64) -> LiveBitmap {
        let words = nblocks.div_ceil(64) as usize;
        let nstripes = words.div_ceil(STRIPE_WORDS).max(1);
        LiveBitmap {
            bits: (0..words).map(|_| AtomicU64::new(0)).collect(),
            stripes: (0..nstripes).map(|_| Stripe::default()).collect(),
            nblocks,
        }
    }

    /// Mark block `idx` live. Returns `true` if it was not marked before.
    /// Safe to call concurrently from any number of threads; a block raced
    /// by several markers reports `true` to exactly one of them.
    pub fn mark(&self, idx: u64) -> bool {
        assert!(idx < self.nblocks, "block {idx} out of bitmap range");
        let (w, b) = ((idx / 64) as usize, idx % 64);
        let prev = self.bits[w].fetch_or(1 << b, Ordering::Relaxed);
        let fresh = prev & (1 << b) == 0;
        if fresh {
            let stripe = &self.stripes[w / STRIPE_WORDS];
            stripe.marked.fetch_add(1, Ordering::Relaxed);
            stripe.highest_plus1.fetch_max(idx + 1, Ordering::Relaxed);
        }
        fresh
    }

    /// Whether block `idx` is marked.
    pub fn is_marked(&self, idx: u64) -> bool {
        assert!(idx < self.nblocks, "block {idx} out of bitmap range");
        self.bits[(idx / 64) as usize].load(Ordering::Relaxed) & (1 << (idx % 64)) != 0
    }

    /// Whether any bit in `[lo, hi)` is marked: a word at a time.
    pub fn any_marked(&self, lo: u64, hi: u64) -> bool {
        assert!(hi <= self.nblocks, "bits {lo}..{hi} out of bitmap range");
        let mut at = lo;
        while at < hi {
            let (w, b) = ((at / 64) as usize, at % 64);
            let n = (64 - b).min(hi - at);
            let mask = (u64::MAX >> (64 - n)) << b;
            if self.bits[w].load(Ordering::Relaxed) & mask != 0 {
                return true;
            }
            at += n;
        }
        false
    }

    /// Highest marked block index, if any block is marked (stripe merge).
    pub fn highest_marked(&self) -> Option<u64> {
        self.stripes
            .iter()
            .rev()
            .map(|s| s.highest_plus1.load(Ordering::Relaxed))
            .find(|h| *h > 0)
            .map(|h| h - 1)
    }

    /// Number of marked blocks (stripe merge).
    pub fn marked_count(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.marked.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of blocks covered.
    pub fn len(&self) -> u64 {
        self.nblocks
    }

    /// True when the bitmap covers zero blocks.
    pub fn is_empty(&self) -> bool {
        self.nblocks == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let bm = LiveBitmap::new(200);
        assert!(!bm.is_marked(0));
        assert!(bm.mark(0));
        assert!(!bm.mark(0), "second mark reports already-marked");
        assert!(bm.mark(63));
        assert!(bm.mark(64));
        assert!(bm.mark(199));
        assert!(bm.is_marked(63));
        assert!(bm.is_marked(64));
        assert!(bm.is_marked(199));
        assert!(!bm.is_marked(100));
        assert_eq!(bm.marked_count(), 4);
        assert_eq!(bm.highest_marked(), Some(199));
    }

    #[test]
    fn any_marked_sees_exactly_its_range() {
        let bm = LiveBitmap::new(300);
        assert!(!bm.any_marked(0, 300));
        bm.mark(130);
        for (lo, hi, want) in [
            (0, 130, false),
            (0, 131, true),
            (130, 131, true),
            (131, 300, false),
            (64, 192, true),
            (128, 128, false),
        ] {
            assert_eq!(bm.any_marked(lo, hi), want, "{lo}..{hi}");
        }
    }

    #[test]
    fn empty_bitmap() {
        let bm = LiveBitmap::new(10);
        assert_eq!(bm.highest_marked(), None);
        assert_eq!(bm.marked_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bitmap range")]
    fn out_of_range_panics() {
        let bm = LiveBitmap::new(10);
        bm.mark(10);
    }

    #[test]
    fn stripe_boundaries_merge() {
        // Span several stripes: STRIPE_WORDS * 64 blocks per stripe.
        let per_stripe = (STRIPE_WORDS * 64) as u64;
        let bm = LiveBitmap::new(3 * per_stripe);
        assert!(bm.mark(0));
        assert!(bm.mark(per_stripe)); // first block of stripe 1
        assert!(bm.mark(2 * per_stripe + 17));
        assert_eq!(bm.marked_count(), 3);
        assert_eq!(bm.highest_marked(), Some(2 * per_stripe + 17));
        assert!(bm.is_marked(per_stripe));
        assert!(!bm.is_marked(per_stripe - 1));
    }

    #[test]
    fn concurrent_marks_count_each_block_once() {
        let bm = LiveBitmap::new(4096);
        let fresh = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let bm = &bm;
                let fresh = &fresh;
                s.spawn(move || {
                    // Every thread marks every 4th block plus a shared
                    // contended range; freshness must sum to the distinct
                    // block count.
                    for i in (t..4096).step_by(4) {
                        if bm.mark(i as u64) {
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    for i in 0..512u64 {
                        if bm.mark(i) {
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(fresh.load(Ordering::Relaxed), 4096);
        assert_eq!(bm.marked_count(), 4096);
        assert_eq!(bm.highest_marked(), Some(4095));
    }
}
