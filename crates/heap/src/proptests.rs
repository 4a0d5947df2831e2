//! Property tests over the allocator: random alloc/free interleavings
//! never double-allocate, chains stay intact, and recovery reconstruction
//! agrees with ground truth.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use crate::{BlockHeader, BlockHeap, HeapConfig, LiveBitmap, PoolManager};
use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a chain with this payload size.
    Alloc(u64),
    /// Free the i-th (mod len) live object.
    Free(usize),
    /// Allocate a pooled object with this payload size.
    PoolAlloc(u64),
    /// Free the i-th (mod len) live pooled object.
    PoolFree(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..1200).prop_map(Op::Alloc),
            any::<usize>().prop_map(Op::Free),
            (1u64..232).prop_map(Op::PoolAlloc),
            any::<usize>().prop_map(Op::PoolFree),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Live objects never share blocks; chains match their requested
    /// sizes; frees return exactly the chain's blocks to circulation.
    #[test]
    fn alloc_free_interleavings_preserve_disjointness(ops in ops()) {
        let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
        let heap = BlockHeap::format(pmem, HeapConfig::default()).unwrap();
        let pools = PoolManager::new(Arc::clone(&heap));
        let mut live: Vec<(u64, u64)> = Vec::new(); // (master idx, payload)
        let mut live_pool: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(sz) => {
                    let m = heap.alloc_chain(42, sz).unwrap();
                    heap.set_valid(m, true);
                    live.push((m, sz));
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (m, _) = live.remove(i % live.len());
                        heap.free_object(m);
                    }
                }
                Op::PoolAlloc(sz) => {
                    let a = pools.alloc(sz).unwrap();
                    pools.write_mini(a, crate::BlockHeader { id: 43, valid: true, next: 0 });
                    live_pool.push(a);
                }
                Op::PoolFree(i) => {
                    if !live_pool.is_empty() {
                        let a = live_pool.remove(i % live_pool.len());
                        pools.free(a).unwrap();
                    }
                }
            }
            // Invariant: all live chains are pairwise disjoint and sized
            // correctly.
            let mut seen: HashSet<u64> = HashSet::new();
            for (m, sz) in &live {
                let chain = heap.chain_blocks(*m);
                prop_assert_eq!(chain.len() as u64, heap.blocks_for(*sz));
                for b in chain {
                    prop_assert!(seen.insert(b), "block {} in two live chains", b);
                }
            }
            // Pooled objects are disjoint slots with valid headers.
            let mut slots: HashSet<u64> = HashSet::new();
            for a in &live_pool {
                prop_assert!(slots.insert(*a));
                prop_assert!(pools.read_mini(*a).valid);
                // Pool blocks never collide with chain blocks.
                prop_assert!(
                    !seen.contains(&heap.block_of_addr(*a)),
                    "pool block shared with a chain"
                );
            }
        }
    }

    /// Header encode/decode is a bijection on the valid field domain.
    #[test]
    fn header_codec_bijective(id in 0u16..=0x7fff, valid in any::<bool>(), next in 0u64..(1 << 48)) {
        let h = crate::BlockHeader { id, valid, next };
        prop_assert_eq!(crate::BlockHeader::decode(h.encode()), h);
    }

    /// After marking exactly the live chains and rebuilding, the free
    /// queue hands out every dead block exactly once and no live block.
    #[test]
    fn rebuild_free_queue_is_exact(keep_mask in any::<u16>()) {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let heap = BlockHeap::format(pmem, HeapConfig::default()).unwrap();
        let mut masters = Vec::new();
        for i in 0..16u64 {
            let m = heap.alloc_chain(7, 100 + i * 120).unwrap();
            heap.set_valid(m, true);
            masters.push(m);
        }
        let bm = heap.new_bitmap();
        let mut live_blocks: HashSet<u64> = HashSet::new();
        let mut dead_blocks: HashSet<u64> = HashSet::new();
        for (i, m) in masters.iter().enumerate() {
            let chain = heap.chain_blocks(*m);
            if keep_mask & (1 << i) != 0 {
                for b in chain {
                    bm.mark(b);
                    live_blocks.insert(b);
                }
            } else {
                dead_blocks.extend(chain);
            }
        }
        // So is what the bump pointer has reserved and not handed out.
        dead_blocks.extend(heap.stats().bump..heap.scan_end());
        let (freed, _) = heap.rebuild_free_queue(&bm, 1);
        prop_assert_eq!(freed, dead_blocks.len() as u64);
        // Drain the queue: exactly the dead blocks, each once.
        let mut drained: HashMap<u64, u32> = HashMap::new();
        for _ in 0..freed {
            let b = heap.alloc_block().unwrap();
            *drained.entry(b).or_insert(0) += 1;
        }
        for (b, count) in &drained {
            prop_assert_eq!(*count, 1u32, "block {} handed out twice", b);
            prop_assert!(dead_blocks.contains(b), "live block {} freed", b);
            prop_assert!(!live_blocks.contains(b));
        }
        prop_assert_eq!(drained.len() as u64, freed);
    }

    /// Striped-bitmap equivalence: an arbitrary mark stream, split over 4
    /// concurrent markers, counts each block exactly once — the sum of
    /// fresh `mark` returns, `marked_count` and `highest_marked` all agree
    /// with a sequential replay of the same stream.
    #[test]
    fn concurrent_mark_stream_matches_sequential_replay(
        stream in proptest::collection::vec(0u64..2048, 1..400),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};

        let nblocks = 2048;
        // Sequential oracle.
        let seq = crate::LiveBitmap::new(nblocks);
        let mut seq_fresh = 0u64;
        for idx in &stream {
            if seq.mark(*idx) {
                seq_fresh += 1;
            }
        }

        // Concurrent run: the same stream dealt round-robin to 4 threads.
        let conc = crate::LiveBitmap::new(nblocks);
        let fresh = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let conc = &conc;
                let fresh = &fresh;
                let stream = &stream;
                s.spawn(move || {
                    for idx in stream.iter().skip(t).step_by(4) {
                        if conc.mark(*idx) {
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });

        prop_assert_eq!(fresh.load(Ordering::Relaxed), seq_fresh);
        prop_assert_eq!(conc.marked_count(), seq.marked_count());
        prop_assert_eq!(conc.highest_marked(), seq.highest_marked());
        for idx in 0..nblocks {
            prop_assert_eq!(conc.is_marked(idx), seq.is_marked(idx));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Striped-bitmap property behind the parallel mark: marking a random
    /// stream from 4 threads counts each block exactly once (the sum of
    /// fresh `mark` returns equals the distinct-block count), and
    /// `marked_count`/`highest_marked` agree with a sequential replay of
    /// the same stream.
    #[test]
    fn concurrent_bitmap_marks_agree_with_sequential_replay(
        nblocks in 1u64..2048,
        raw in proptest::collection::vec(any::<u64>(), 0..600),
    ) {
        let stream: Vec<u64> = raw.into_iter().map(|i| i % nblocks).collect();
        let seq = LiveBitmap::new(nblocks);
        let mut seq_fresh = 0u64;
        for &i in &stream {
            if seq.mark(i) {
                seq_fresh += 1;
            }
        }

        let conc = LiveBitmap::new(nblocks);
        let fresh = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let conc = &conc;
                let fresh = &fresh;
                let stream = &stream;
                s.spawn(move || {
                    for &i in stream.iter().skip(t).step_by(4) {
                        if conc.mark(i) {
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        prop_assert_eq!(fresh.load(Ordering::Relaxed), seq_fresh);
        prop_assert_eq!(conc.marked_count(), seq.marked_count());
        prop_assert_eq!(conc.highest_marked(), seq.highest_marked());
        for &i in &stream {
            prop_assert!(conc.is_marked(i));
        }
    }
}

// ----------------------------------------------------------------------
// The pool allocator against a model of its live slots.
// ----------------------------------------------------------------------

/// One step of [`drive_pools`].
#[derive(Debug, Clone)]
enum PoolOp {
    /// Allocate a slot of this payload and store a valid mini-header.
    Alloc(u64),
    /// Free the i-th (mod len) live slot.
    Free(usize),
    /// Strict power failure, then recovery: the full mode's sweep (keeping
    /// the model's live slots, as its mark would) or the header scan's,
    /// on this many sweep workers.
    Recover { header_scan: bool, threads: usize },
}

fn pool_ops(len: usize) -> impl Strategy<Value = Vec<PoolOp>> {
    // Payloads of a few classes, so that spans fill, empty and get reused.
    let payload = prop_oneof![
        Just(8u64),
        Just(24),
        Just(64),
        Just(100),
        Just(232),
        1u64..=232
    ];
    proptest::collection::vec(
        prop_oneof![
            6 => payload.prop_map(PoolOp::Alloc),
            4 => any::<usize>().prop_map(PoolOp::Free),
            1 => (any::<bool>(), 1usize..4)
                .prop_map(|(header_scan, threads)| PoolOp::Recover { header_scan, threads }),
        ],
        1..len,
    )
}

/// Run `ops` over one pool and check it against a model of its live slots
/// (address → payload), each slot's payload words valid headers: a new
/// slot overlaps no live one and reads invalid; a recovery keeps
/// exactly the live slots valid and queues every other slot of a kept span
/// as free, in both modes; and a carve takes a span recovery freed before
/// it moves the span cursor.
fn drive_pools(ops: &[PoolOp]) -> Result<(), TestCaseError> {
    let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
    let mut heap = BlockHeap::format(Arc::clone(&pmem), HeapConfig::default()).unwrap();
    let mut pools = PoolManager::new(Arc::clone(&heap));
    let mut live: BTreeMap<u64, u64> = BTreeMap::new();
    let valid = BlockHeader {
        id: 43,
        valid: true,
        next: 0,
    };
    for op in ops {
        match *op {
            PoolOp::Alloc(payload) => {
                let (spans, free_spans) = (heap.span_count(), heap.free_span_count());
                let a = pools.alloc(payload).unwrap();
                let end = a + 8 + pools.slot_payload(a).unwrap();
                prop_assert!(pools.slot_payload(a).unwrap() >= payload);
                prop_assert_eq!(pools.read_mini(a), BlockHeader::FREE, "a fresh slot's word");
                let before = live.range(..end).next_back();
                if let Some((&at, &len)) = before {
                    prop_assert!(at + 8 + len <= a, "{:#x} overlaps the live {:#x}", a, at);
                }
                if free_spans > 0 {
                    prop_assert_eq!(heap.span_count(), spans, "a free span was skipped");
                }
                // A payload of words that read as valid headers: what a
                // later class's slot boundaries must never find.
                let words = pools.slot_payload(a).unwrap() / 8;
                let fill: Vec<u8> = (0..words)
                    .flat_map(|_| valid.encode().to_le_bytes())
                    .collect();
                pmem.write_bytes(a + 8, &fill);
                pools.write_mini(a, valid);
                pmem.pwb_range(a, end - a);
                live.insert(a, pools.slot_payload(a).unwrap());
            }
            PoolOp::Free(i) => {
                if let Some(&a) = live.keys().nth(i % live.len().max(1)) {
                    pools.free(a).unwrap();
                    live.remove(&a);
                }
            }
            PoolOp::Recover {
                header_scan,
                threads,
            } => {
                pmem.pfence();
                pmem.crash(&CrashPolicy::strict()).unwrap();
                heap = BlockHeap::open(Arc::clone(&pmem)).unwrap();
                pools = PoolManager::new(Arc::clone(&heap));
                let bits = pools.new_slot_bitmap();
                if header_scan {
                    for span in 0..heap.span_count() {
                        pools.scan_span(span, |slot, mini| {
                            if mini.valid {
                                bits.mark(pools.slot_bit(slot).unwrap());
                            }
                        });
                    }
                } else {
                    for a in live.keys() {
                        prop_assert!(pools.is_slot_addr(*a));
                        bits.mark(pools.slot_bit(*a).unwrap());
                    }
                }
                prop_assert_eq!(bits.marked_count(), live.len() as u64, "slots kept");
                pools.rebuild(&bits, threads);
                // Every slot of every span: valid exactly where live, the
                // rest queued free; a span without a live slot is free.
                let mut valid_slots = 0;
                let mut slots = 0;
                for span in 0..heap.span_count() {
                    pools.scan_span(span, |slot, mini| {
                        slots += 1;
                        if mini.valid {
                            valid_slots += 1;
                            assert!(live.contains_key(&slot), "phantom slot {slot:#x}");
                        }
                    });
                }
                prop_assert_eq!(valid_slots, live.len());
                prop_assert_eq!(slots - valid_slots, pools.free_slots() as usize);
                let kept: HashSet<u64> = live.keys().map(|a| heap.span_of_addr(*a)).collect();
                prop_assert_eq!(
                    heap.free_span_count(),
                    heap.span_count() - kept.len() as u64
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pool allocator against a model of its live slots, over random
    /// allocations, frees and crash-recoveries.
    #[test]
    fn pool_alloc_free_recover_matches_its_model(ops in pool_ops(160)) {
        drive_pools(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The wide form (CI's torture job, `--release`).
    #[test]
    #[ignore = "wide proptest; run with --release -- --ignored"]
    fn pool_alloc_free_recover_matches_its_model_wide(ops in pool_ops(400)) {
        drive_pools(&ops)?;
    }
}
