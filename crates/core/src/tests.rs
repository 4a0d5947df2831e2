//! Core runtime tests: object lifecycle, root map, failure-atomic blocks,
//! crash injection and the recovery GC.

use std::sync::Arc;

use jnvm_heap::HeapConfig;
use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};

use crate::{JnvmBuilder, JnvmError, PObject, RecoveryMode, RecoveryOptions};

persistent_class! {
    /// Figure 3's `Simple`, minus the PString (tested with `Node` below).
    pub class Simple {
        val x, set_x: i32;
        val flag, set_flag: bool;
        val weight, set_weight: f64;
    }
}

persistent_class! {
    /// A linked-list node with a persistent reference.
    pub class Node {
        val value, set_value: i64;
        ref next, set_next, update_next: Node;
    }
}

fn fresh(size: u64) -> (Arc<Pmem>, crate::Jnvm) {
    let pmem = Pmem::new(PmemConfig::crash_sim(size));
    let rt = JnvmBuilder::new()
        .register::<Simple>()
        .register::<Node>()
        .create(Arc::clone(&pmem), HeapConfig::default())
        .unwrap();
    (pmem, rt)
}

fn reopen(pmem: &Arc<Pmem>) -> (crate::Jnvm, crate::RecoveryReport) {
    JnvmBuilder::new()
        .register::<Simple>()
        .register::<Node>()
        .open(Arc::clone(pmem))
        .unwrap()
}

#[test]
fn fields_round_trip() {
    let (_p, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(-42);
    s.set_flag(true);
    s.set_weight(2.75);
    assert_eq!(s.x(), -42);
    assert!(s.flag());
    assert_eq!(s.weight(), 2.75);
}

#[test]
fn payload_layout() {
    assert_eq!(Simple::PAYLOAD_BYTES, 24);
    assert_eq!(Node::PAYLOAD_BYTES, 16);
    assert_eq!(<Node as PObject>::REF_OFFSETS, &[8]);
    assert!(<Simple as PObject>::REF_OFFSETS.is_empty());
}

#[test]
fn reference_fields_resurrect() {
    let (_p, rt) = fresh(1 << 20);
    let a = Node::alloc_uninit(&rt);
    let b = Node::alloc_uninit(&rt);
    b.set_value(7);
    a.set_next(Some(&b));
    let got = a.next().expect("next set");
    assert_eq!(got.value(), 7);
    assert_eq!(got.addr(), b.addr());
    a.set_next(None);
    assert!(a.next().is_none());
}

#[test]
fn root_map_basics() {
    let (_p, rt) = fresh(1 << 20);
    assert!(!rt.root_exists("simple"));
    let s = Simple::alloc_uninit(&rt);
    s.set_x(1);
    s.pwb();
    rt.root_put("simple", &s).unwrap();
    assert!(rt.root_exists("simple"));
    assert_eq!(rt.root_len(), 1);
    let got = rt.root_get_as::<Simple>("simple").unwrap().unwrap();
    assert_eq!(got.x(), 1);
    // Wrong type is rejected.
    assert!(matches!(
        rt.root_get_as::<Node>("simple"),
        Err(JnvmError::ClassMismatch { .. })
    ));
    let removed = rt.root_remove("simple");
    assert_eq!(removed, Some(s.addr()));
    assert!(!rt.root_exists("simple"));
}

#[test]
fn root_map_replaces_existing() {
    let (_p, rt) = fresh(1 << 20);
    let a = Simple::alloc_uninit(&rt);
    a.set_x(1);
    a.pwb();
    let b = Simple::alloc_uninit(&rt);
    b.set_x(2);
    b.pwb();
    rt.root_put("k", &a).unwrap();
    rt.root_put("k", &b).unwrap();
    assert_eq!(rt.root_len(), 1);
    assert_eq!(rt.root_get_as::<Simple>("k").unwrap().unwrap().x(), 2);
}

/// A block that puts a new name and removes an old one, then aborts —
/// by dropping its `StagedTx` and by unwinding —, leaves the root map as
/// it found it: in DRAM, on media after a reopen, and for the names put
/// by the blocks that commit after it (which must not take a slot the
/// abort left in use).
#[test]
fn an_aborted_block_leaves_the_root_map_as_it_found_it() {
    let (pmem, rt) = fresh(1 << 20);
    let simple = |rt: &crate::Jnvm, x: i32| {
        let s = Simple::alloc_uninit(rt);
        s.set_x(x);
        s
    };
    for (name, x) in [("a", 1), ("b", 2)] {
        rt.root_put(name, &simple(&rt, x)).unwrap();
    }
    let view = |rt: &crate::Jnvm| {
        let mut names = rt.root_names();
        names.sort();
        let x = |name| rt.root_get_as::<Simple>(name).unwrap().map(|s| s.x());
        let exists = ["a", "b", "new"].map(|name| rt.root_exists(name));
        (names, rt.root_len(), x("a"), x("b"), x("new"), exists)
    };
    let before = view(&rt);
    let block = || {
        rt.root_put("new", &simple(&rt, 3)).unwrap();
        assert!(rt.root_remove("a").is_some());
        assert!(rt.root_exists("new") && !rt.root_exists("a"));
    };
    drop(rt.fa_stage(block));
    assert_eq!(view(&rt), before, "StagedTx dropped");
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.fa(|| {
            block();
            panic!("abort");
        })
    }));
    assert!(unwound.is_err());
    assert_eq!(view(&rt), before, "closure unwound");
    drop(rt);
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt, _) = reopen(&pmem);
    assert_eq!(view(&rt), before, "reopened");
    // New names take free slots, not the ones "a" and "b" hold.
    for (i, name) in ["c", "d", "e"].iter().enumerate() {
        rt.fa(|| rt.root_put(name, &simple(&rt, 10 + i as i32)).unwrap());
    }
    drop(rt);
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt, _) = reopen(&pmem);
    assert_eq!(rt.root_len(), 5);
    assert_eq!(view(&rt).2, Some(1));
    assert_eq!(view(&rt).3, Some(2));
}

#[test]
fn durable_across_clean_crash() {
    let (pmem, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(123);
    s.pwb();
    rt.root_put("simple", &s).unwrap();
    drop(rt);
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, report) = reopen(&pmem);
    assert!(report.mode_full);
    let got = rt2.root_get_as::<Simple>("simple").unwrap().unwrap();
    assert_eq!(got.x(), 123);
}

#[test]
fn unreachable_objects_are_collected_at_recovery() {
    let (pmem, rt) = fresh(1 << 20);
    let kept = Simple::alloc_uninit(&rt);
    kept.set_x(1);
    kept.pwb();
    rt.root_put("kept", &kept).unwrap();
    // Leak: allocated, validated, flushed... but never reachable.
    let leaked = Simple::alloc_uninit(&rt);
    leaked.set_x(2);
    leaked.pwb();
    leaked.validate();
    rt.pfence();
    let leaked_block = rt.heap().block_of_addr(leaked.addr());
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, report) = reopen(&pmem);
    assert!(report.freed_blocks > 0);
    // The leaked block is back in the free queue: its header is cleared.
    assert!(rt2.heap().read_header(leaked_block).is_free_or_slave());
    assert!(rt2.root_exists("kept"));
}

#[test]
fn invalid_reachable_references_are_nullified() {
    let (pmem, rt) = fresh(1 << 20);
    let a = Node::alloc_uninit(&rt);
    a.set_value(1);
    let b = Node::alloc_uninit(&rt);
    b.set_value(2);
    // a -> b, but b is never validated.
    a.set_next(Some(&b));
    a.pwb();
    b.pwb();
    rt.root_put("a", &a).unwrap(); // validates a, fences
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, report) = reopen(&pmem);
    assert!(report.nullified_refs >= 1, "dangling ref must be nullified");
    let a2 = rt2.root_get_as::<Node>("a").unwrap().unwrap();
    assert!(a2.next().is_none(), "reference to invalid object nullified");
}

#[test]
fn update_ref_survives_crash_with_target() {
    let (pmem, rt) = fresh(1 << 20);
    let a = Node::alloc_uninit(&rt);
    a.set_value(1);
    a.pwb();
    rt.root_put("a", &a).unwrap();
    let b = Node::alloc_uninit(&rt);
    b.set_value(2);
    b.pwb();
    // Atomic update: validate(b), fence, store, pwb.
    a.update_next(Some(&b));
    rt.pfence();
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, _) = reopen(&pmem);
    let a2 = rt2.root_get_as::<Node>("a").unwrap().unwrap();
    let b2 = a2.next().expect("b survived with the reference");
    assert_eq!(b2.value(), 2);
}

#[test]
fn figure5_batched_validation_single_fence() {
    let (pmem, rt) = fresh(1 << 20);
    let before = pmem.stats();
    // Two objects + sub-objects with wput, batched validations, one fence.
    let a = Node::alloc_uninit(&rt);
    a.set_value(10);
    let ao = Node::alloc_uninit(&rt);
    ao.set_value(11);
    ao.pwb();
    ao.validate();
    a.set_next(Some(&ao));
    a.pwb();
    rt.root_wput("a", &a).unwrap();
    let b = Node::alloc_uninit(&rt);
    b.set_value(20);
    b.pwb();
    rt.root_wput("b", &b).unwrap();
    pmem.pfence();
    a.validate();
    b.validate();
    pmem.pfence();
    let delta = pmem.stats().delta(&before);
    assert!(
        delta.pfences <= 3,
        "weak puts must not fence (saw {} fences)",
        delta.pfences
    );
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, _) = reopen(&pmem);
    let a2 = rt2.root_get_as::<Node>("a").unwrap().unwrap();
    assert_eq!(a2.value(), 10);
    assert_eq!(a2.next().unwrap().value(), 11);
    assert_eq!(rt2.root_get_as::<Node>("b").unwrap().unwrap().value(), 20);
}

#[test]
fn figure5_crash_before_fence_discards_everything() {
    let (pmem, rt) = fresh(1 << 20);
    let a = Node::alloc_uninit(&rt);
    a.set_value(10);
    a.pwb();
    rt.root_wput("a", &a).unwrap();
    // No validation, no fence: crash.
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, _) = reopen(&pmem);
    assert!(rt2.root_get("a").is_none(), "invalid object must not surface");
}

#[test]
fn explicit_free_recycles_blocks() {
    let (_p, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    let addr = s.addr();
    let before = rt.heap().stats();
    rt.free(s);
    let after = rt.heap().stats();
    assert_eq!(after.blocks_freed - before.blocks_freed, 1);
    assert!(!rt.is_valid_addr(addr));
}

// ----------------------------------------------------------------------
// Failure-atomic blocks.
// ----------------------------------------------------------------------

#[test]
fn fa_commit_applies_writes() {
    let (_p, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(1);
    s.pwb();
    s.validate();
    rt.pfence();
    rt.fa(|| {
        s.set_x(2);
        assert_eq!(s.x(), 2, "reads observe own writes inside the block");
    });
    assert_eq!(s.x(), 2);
}

/// Inside a block, mediated reads observe the block's own staged writes —
/// the volatile overlay, NVMM still holding the old bytes — at word and at
/// byte granularity, and sealing emits one log entry per maximal run of
/// written words.
#[test]
fn fa_reads_observe_the_blocks_own_staged_writes() {
    let (pmem, rt) = fresh(1 << 20);
    let id = rt.registry().id_of::<Simple>().unwrap();
    let p = crate::Proxy::alloc(&rt, id, 600); // 3 blocks, seams at 248 and 496
    let mut model: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
    p.write_bytes(0, &model);
    p.pwb();
    p.validate();
    pmem.pfence();
    let read_all = || {
        let mut out = vec![0u8; 600];
        p.read_bytes(0, &mut out);
        out
    };

    // A word write, then the same word again: the last one wins, in one
    // entry, and nothing reaches NVMM before the commit.
    let (tx, ()) = rt.fa_stage(|| {
        p.write_u64(16, 0xfeed);
        assert_eq!(p.read_u64(16), 0xfeed);
        p.write_u64(16, 0xbeef);
        assert_eq!(p.read_u64(16), 0xbeef);
        let on_nvmm = pmem.read_u64(p.chain().phys(16));
        assert_eq!(on_nvmm.to_le_bytes(), model[16..24], "staged, not stored");
    });
    assert_eq!(tx.op_count(), 1, "two writes to one word are one entry");
    rt.fa_commit_group(vec![tx]);
    model[16..24].copy_from_slice(&0xbeef_u64.to_le_bytes());
    assert_eq!(read_all(), model);

    // An unaligned byte range across the seam of two blocks: both ends
    // merge into words the range covers only partly.
    let (tx, ()) = rt.fa_stage(|| {
        p.write_bytes(237, &[0xA5; 37]);
        model[237..274].fill(0xA5);
        let mut seam = vec![0u8; 60];
        p.read_bytes(231, &mut seam);
        assert_eq!(seam, model[231..291], "read_bytes over the seam");
        assert_eq!(
            p.read_u64(232).to_le_bytes(),
            model[232..240],
            "merged first word"
        );
        // A second, overlapping write merges with the staged words.
        p.write_bytes(270, &[0x5A; 3]);
        model[270..273].fill(0x5A);
        assert_eq!(read_all(), model);
    });
    assert_eq!(tx.op_count(), 2, "one entry per block of the range");
    rt.fa_commit_group(vec![tx]);
    assert_eq!(read_all(), model);

    // A write to an object the same block then frees: both are logged,
    // the commit applies the write and then invalidates the object.
    let (tx, ()) = rt.fa_stage(|| {
        p.write_u64(0, 7);
        rt.free_addr(p.addr());
        assert_eq!(p.read_u64(0), 7);
    });
    assert_eq!(tx.op_count(), 2);
    rt.fa_commit_group(vec![tx]);
    assert!(!rt.is_valid_addr(p.addr()));
}

#[test]
fn fa_alloc_validates_at_commit() {
    let (_p, rt) = fresh(1 << 20);
    let s = rt.fa(|| {
        let s = Simple::alloc_uninit(&rt);
        s.set_x(5);
        rt.root_put("s", &s).unwrap();
        assert!(!s.is_valid(), "not valid before commit");
        s
    });
    assert!(s.is_valid(), "commit validates allocations");
    assert_eq!(s.x(), 5);
}

#[test]
fn fa_abort_on_panic_rolls_back() {
    let (_p, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(1);
    s.pwb();
    s.validate();
    rt.pfence();
    let rt2 = Arc::clone(&rt);
    let s2 = s.clone();
    // Allocatable blocks, up to a constant: the free queue plus everything
    // past the bump index.
    let avail = || {
        let st = rt.heap().stats();
        st.free_queue_len as i64 - st.bump as i64
    };
    rt.fa(|| s.set_x(1)); // warm-up: this thread's redo log now exists
    let avail_before = avail();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        rt2.fa(|| {
            s2.set_x(99);
            Simple::alloc_uninit(&rt2);
            panic!("boom");
        })
    }));
    assert!(result.is_err());
    assert_eq!(s.x(), 1, "aborted block leaves state untouched");
    assert_eq!(crate::fa_depth(), 0, "depth restored after abort");
    assert_eq!(avail(), avail_before, "abort releases the fresh allocation");
    // The aborted block left nothing behind: the next one commits normally.
    rt.fa(|| s.set_x(2));
    assert_eq!(s.x(), 2);
}

#[test]
fn fa_crash_before_commit_discards_block() {
    let (pmem, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(1);
    s.pwb();
    rt.root_put("s", &s).unwrap();
    // A power failure in the middle of the block is modelled by
    // snapshotting the *media* content mid-closure: exactly what a fresh
    // boot would find.
    let img = std::env::temp_dir().join(format!(
        "jnvm-fa-crash-{}-{:?}.img",
        std::process::id(),
        std::thread::current().id()
    ));
    rt.fa(|| {
        s.set_x(2);
        rt.pmem().save(&img).unwrap();
    });
    assert_eq!(s.x(), 2, "the live pool committed normally");
    let pmem2 = Pmem::load(&img, PmemConfig::crash_sim(0)).unwrap();
    std::fs::remove_file(&img).ok();
    drop(pmem);
    let (rt2, report) = reopen(&pmem2);
    assert_eq!(report.replayed_logs, 0, "nothing committed at crash time");
    let s2 = rt2.root_get_as::<Simple>("s").unwrap().unwrap();
    assert_eq!(s2.x(), 1, "uncommitted block must not be visible");
}

#[test]
fn fa_committed_log_replays_after_crash() {
    let (pmem, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(1);
    s.pwb();
    rt.root_put("s", &s).unwrap();
    rt.fa(|| {
        s.set_x(2);
    });
    // Crash after commit (apply already ran; replay must be idempotent).
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, _) = reopen(&pmem);
    let s2 = rt2.root_get_as::<Simple>("s").unwrap().unwrap();
    assert_eq!(s2.x(), 2);
}

#[test]
fn fa_nested_blocks_fold() {
    let (_p, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(0);
    s.pwb();
    s.validate();
    rt.pfence();
    rt.fa(|| {
        s.set_x(1);
        rt.fa(|| {
            s.set_x(2);
        });
        assert_eq!(crate::fa_depth(), 1);
        s.set_x(3);
    });
    assert_eq!(s.x(), 3);
    assert_eq!(crate::fa_depth(), 0);
    // Same inside a staged block: the nested `fa` neither commits nor
    // ends the stage.
    let (tx, ()) = rt.fa_stage(|| {
        rt.fa(|| s.set_x(4));
        assert_eq!(crate::fa_depth(), 1);
        s.set_x(5);
    });
    assert_eq!(tx.op_count(), 1, "both writes stage the one word once");
    drop(tx);
    assert_eq!(s.x(), 3, "the nested write was staged, not committed");
}

#[test]
#[should_panic(expected = "failure-atomic block active on a different runtime")]
fn fa_on_a_second_runtime_inside_a_block_panics() {
    let (_p1, rt1) = fresh(1 << 20);
    let (_p2, rt2) = fresh(1 << 20);
    rt1.fa(|| rt2.fa(|| ()));
}

#[test]
fn fa_free_is_deferred_to_commit() {
    let (_p, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(1);
    s.pwb();
    s.validate();
    rt.pfence();
    let addr = s.addr();
    rt.fa(|| {
        rt.free_addr(addr);
        assert!(rt.is_valid_addr(addr), "free deferred until commit");
    });
    assert!(!rt.is_valid_addr(addr));
}

#[test]
fn fa_many_writes_grow_log() {
    let (_p, rt) = fresh(4 << 20);
    // One object per write so each write touches a distinct block and
    // produces a distinct log entry; 600 > LOG_INIT_ENTRIES (256).
    let objs: Vec<Simple> = (0..600)
        .map(|i| {
            let s = Simple::alloc_uninit(&rt);
            s.set_x(i);
            s.pwb();
            s.validate();
            s
        })
        .collect();
    rt.pfence();
    rt.fa(|| {
        for (i, s) in objs.iter().enumerate() {
            s.set_x(i as i32 + 1000);
        }
    });
    for (i, s) in objs.iter().enumerate() {
        assert_eq!(s.x(), i as i32 + 1000);
    }
}

#[test]
fn fa_concurrent_threads_use_distinct_logs() {
    let (_p, rt) = fresh(8 << 20);
    let objs: Vec<Simple> = (0..8)
        .map(|_| {
            let s = Simple::alloc_uninit(&rt);
            s.set_x(0);
            s.pwb();
            s.validate();
            s
        })
        .collect();
    rt.pfence();
    let threads: Vec<_> = objs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let rt = Arc::clone(&rt);
            let s = s.clone();
            std::thread::spawn(move || {
                for n in 0..50 {
                    rt.fa(|| s.set_x((i * 1000 + n) as i32));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    for (i, s) in objs.iter().enumerate() {
        assert_eq!(s.x(), (i * 1000 + 49) as i32);
    }
}

// ----------------------------------------------------------------------
// Recovery modes and registry.
// ----------------------------------------------------------------------

#[test]
fn nogc_recovery_keeps_valid_masters() {
    let (pmem, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(9);
    s.pwb();
    rt.root_put("s", &s).unwrap();
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, report) = JnvmBuilder::new()
        .register::<Simple>()
        .register::<Node>()
        .open_with_options(
            Arc::clone(&pmem),
            RecoveryOptions::with_mode(RecoveryMode::HeaderScanOnly),
        )
        .unwrap();
    assert!(!report.mode_full);
    assert_eq!(rt2.root_get_as::<Simple>("s").unwrap().unwrap().x(), 9);
}

/// The bump pointer advances a stride at a time, and the thread that
/// reserves a stride is not the only one that spends it. Thread A reserves
/// and never fences again; thread B publishes an object that lives in A's
/// stride. The header-only scan stops at the persisted bump, so B's object
/// survives a strict crash only if A's reservation was already durable.
#[test]
fn nogc_recovery_finds_objects_in_a_stride_another_thread_reserved() {
    let (pmem, rt) = fresh(1 << 20);
    let old_end = rt.heap().scan_end();
    std::thread::scope(|s| {
        s.spawn(|| {
            while rt.heap().scan_end() == old_end {
                rt.heap().alloc_block().unwrap();
            }
        });
    });
    let addr = std::thread::scope(|s| {
        s.spawn(|| {
            let n = Node::alloc_uninit(&rt);
            n.set_value(9);
            n.pwb();
            rt.root_put("n", &n).unwrap();
            n.addr()
        })
        .join()
        .unwrap()
    });
    assert!(
        rt.heap().block_of_addr(addr) >= old_end,
        "the object must live in the stride the other thread reserved"
    );
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, _) = JnvmBuilder::new()
        .register::<Simple>()
        .register::<Node>()
        .open_with_options(
            Arc::clone(&pmem),
            RecoveryOptions::with_mode(RecoveryMode::HeaderScanOnly),
        )
        .unwrap();
    let n = rt2.root_get_as::<Node>("n").unwrap().unwrap();
    assert_eq!((n.addr(), n.value()), (addr, 9));
    // The block that holds it is never handed out again.
    let home = rt2.heap().block_of_addr(addr);
    while let Ok(b) = rt2.heap().alloc_block() {
        assert_ne!(b, home, "a live block was handed out");
    }
}

#[test]
fn class_ids_stable_across_reopen() {
    let (pmem, rt) = fresh(1 << 20);
    let id_simple = rt.registry().id_of::<Simple>().unwrap();
    let id_node = rt.registry().id_of::<Node>().unwrap();
    drop(rt);
    pmem.drain_all();
    // Re-open with classes registered in the opposite order.
    let (rt2, _) = JnvmBuilder::new()
        .register::<Node>()
        .register::<Simple>()
        .open(Arc::clone(&pmem))
        .unwrap();
    assert_eq!(rt2.registry().id_of::<Simple>().unwrap(), id_simple);
    assert_eq!(rt2.registry().id_of::<Node>().unwrap(), id_node);
}

#[test]
fn open_rejects_missing_class() {
    let (pmem, rt) = fresh(1 << 20);
    drop(rt);
    pmem.drain_all();
    let err = JnvmBuilder::new()
        .register::<Simple>() // Node missing
        .open(Arc::clone(&pmem))
        .expect_err("must refuse to open without Node registered");
    assert!(matches!(err, JnvmError::UnknownPersistedClass(_)));
}

#[test]
fn unregistered_class_alloc_fails() {
    let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
    let rt = JnvmBuilder::new()
        .register::<Simple>()
        .create(pmem, HeapConfig::default())
        .unwrap();
    assert!(matches!(
        rt.alloc_proxy::<Node>(16),
        Err(JnvmError::UnregisteredClass(_))
    ));
}

#[test]
fn adversarial_crash_storm_preserves_atomicity() {
    // Repeated adversarial crashes mid-workload: every committed transfer
    // must be all-or-nothing on a pair of counters whose sum is invariant.
    for seed in 0..10u64 {
        let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
        let rt = JnvmBuilder::new()
            .register::<Simple>()
            .register::<Node>()
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        let (a, b) = rt.fa(|| {
            let a = Simple::alloc_uninit(&rt);
            a.set_x(500);
            let b = Simple::alloc_uninit(&rt);
            b.set_x(500);
            rt.root_put("a", &a).unwrap();
            rt.root_put("b", &b).unwrap();
            (a, b)
        });
        for i in 0..20 {
            rt.fa(|| {
                a.set_x(a.x() - 1);
                b.set_x(b.x() + 1);
            });
            if i == 10 {
                pmem.crash(&CrashPolicy::adversarial(seed)).unwrap();
                break;
            }
        }
        let (rt2, _) = reopen(&pmem);
        let a2 = rt2.root_get_as::<Simple>("a").unwrap().unwrap();
        let b2 = rt2.root_get_as::<Simple>("b").unwrap().unwrap();
        assert_eq!(
            a2.x() + b2.x(),
            1000,
            "seed {seed}: transfer atomicity violated: {} + {}",
            a2.x(),
            b2.x()
        );
    }
}

#[test]
fn deep_list_survives_crash() {
    let (pmem, rt) = fresh(4 << 20);
    // Build a 200-node list inside one failure-atomic block.
    rt.fa(|| {
        let head = Node::alloc_uninit(&rt);
        head.set_value(0);
        rt.root_put("head", &head).unwrap();
        let mut cur = head;
        for i in 1..200 {
            let n = Node::alloc_uninit(&rt);
            n.set_value(i);
            cur.set_next(Some(&n));
            cur = n;
        }
    });
    pmem.crash(&CrashPolicy::strict()).unwrap();
    let (rt2, report) = reopen(&pmem);
    assert!(report.live_objects >= 200);
    let mut cur = rt2.root_get_as::<Node>("head").unwrap().unwrap();
    let mut count = 1;
    while let Some(next) = cur.next() {
        assert_eq!(next.value(), cur.value() + 1);
        cur = next;
        count += 1;
    }
    assert_eq!(count, 200);
}

#[test]
fn persistent_oom_is_reported_not_fatal() {
    // A small pool (most of it goes to the class table / root map /
    // log directory): exhaust it and verify the error path, then free
    // and allocate again.
    let pmem = Pmem::new(PmemConfig::crash_sim(256 * 1024));
    let rt = JnvmBuilder::new()
        .register::<Simple>()
        .register::<Node>()
        .create(Arc::clone(&pmem), HeapConfig::default())
        .unwrap();
    let mut held = Vec::new();
    loop {
        match rt.alloc_proxy::<Simple>(Simple::PAYLOAD_BYTES) {
            Ok(p) => held.push(p),
            Err(JnvmError::Heap(jnvm_heap::HeapError::OutOfMemory { .. })) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        assert!(held.len() < 10_000, "pool never filled up");
    }
    assert!(!held.is_empty());
    // Free one object: allocation works again.
    let p = held.pop().unwrap();
    rt.free_addr(p.addr());
    assert!(rt.alloc_proxy::<Simple>(Simple::PAYLOAD_BYTES).is_ok());
}

#[test]
fn pany_roundtrip() {
    let (_p, rt) = fresh(1 << 20);
    let s = Simple::alloc_uninit(&rt);
    s.set_x(3);
    s.pwb();
    rt.root_put("s", &s).unwrap();
    let any = rt.root_get("s").unwrap();
    assert_eq!(any.addr(), s.addr());
    assert_eq!(any.class_id(), rt.registry().id_of::<Simple>().unwrap());
    let back = any.get_as::<Simple>(&rt).unwrap();
    assert_eq!(back.x(), 3);
}

#[test]
fn large_object_spans_blocks() {
    let (pmem, rt) = fresh(1 << 20);
    let id = rt.registry().id_of::<Simple>().unwrap();
    let p = crate::Proxy::alloc(&rt, id, 1000); // 5 blocks
    assert_eq!(p.block_count(), 5);
    let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    p.write_bytes(0, &data);
    let mut out = vec![0u8; 1000];
    p.read_bytes(0, &mut out);
    assert_eq!(out, data);
    p.pwb();
    p.validate();
    pmem.pfence();
    // Word access at every aligned offset, including block straddles.
    for off in (0..992).step_by(8) {
        let v = p.read_u64(off as u64);
        p.write_u64(off as u64, v ^ 0xffff);
        assert_eq!(p.read_u64(off as u64), v ^ 0xffff);
    }
}

/// A pooled object is a chain of one slot to recovery as well: a rooted
/// list of nodes, one in a slot of every class, recovers under both modes
/// — the mark traces each node's reference through its slot's chain — and
/// after either reopen the pools' DRAM slot-class table holds what every
/// pool block's meta word does.
#[test]
fn pooled_list_recovers_and_fills_the_slot_class_table() {
    let (pmem, rt) = fresh(1 << 20);
    let id = rt.registry().id_of::<Node>().unwrap();
    let list: Vec<u64> = rt.fa(|| {
        let node = |(i, payload): (usize, &u64)| {
            let proxy = crate::Proxy::try_alloc_small(&rt, id, *payload).unwrap();
            let n = Node::resurrect(&rt, proxy.addr());
            n.set_value(i as i64);
            n
        };
        let nodes: Vec<Node> = jnvm_heap::POOL_SLOT_CLASSES
            .iter()
            .enumerate()
            .map(node)
            .collect();
        for pair in nodes.windows(2) {
            pair[0].set_next(Some(&pair[1]));
        }
        rt.root_put("list", &nodes[0]).unwrap();
        nodes.iter().map(|n| n.addr()).collect()
    });
    assert!(list.iter().all(|a| rt.pools().is_pooled_addr(*a)));
    drop(rt);
    pmem.crash(&CrashPolicy::strict()).unwrap();
    for mode in [RecoveryMode::Full, RecoveryMode::HeaderScanOnly] {
        let (rt, _) = JnvmBuilder::new()
            .register::<Simple>()
            .register::<Node>()
            .open_with_options(Arc::clone(&pmem), RecoveryOptions::with_mode(mode))
            .unwrap();
        let mut node = rt.root_get_as::<Node>("list").unwrap();
        for (i, addr) in list.iter().enumerate() {
            let n = node.expect("the list is whole");
            assert_eq!((n.addr(), n.value()), (*addr, i as i64), "{mode:?}");
            node = n.next();
        }
        assert!(node.is_none());
        let mut pool_blocks = 0;
        rt.heap().for_each_header(|idx, h| {
            if h.id == jnvm_heap::CLASS_ID_POOL {
                pool_blocks += 1;
                let meta = rt.pmem().read_u32(rt.heap().block_addr(idx) + 8) as u64;
                assert_eq!(rt.pools().known_slot_payload(idx), Some(meta), "{mode:?}");
            }
        });
        assert_eq!(pool_blocks, jnvm_heap::POOL_SLOT_CLASSES.len(), "{mode:?}");
    }
}

/// `Proxy::pwb` writes back a pooled object's slot — mini-header and slot
/// payload — and no line past it: a neighbouring slot's, or the next
/// block's, which a block-sized flush from the slot's address would reach.
#[test]
fn a_pooled_pwb_covers_its_slot_and_no_further() {
    let (pmem, rt) = fresh(1 << 20);
    let id = rt.registry().id_of::<Node>().unwrap();
    for &payload in jnvm_heap::POOL_SLOT_CLASSES {
        let p = crate::Proxy::try_alloc_small(&rt, id, payload).unwrap();
        assert_eq!(p.capacity(), payload);
        let (first, last) = (p.addr() / 64, (p.addr() + 8 + payload - 1) / 64);
        let before = pmem.stats();
        p.pwb();
        assert_eq!(pmem.stats().delta(&before).pwbs, last - first + 1, "{payload} B");
    }
}

/// Regression: a pool block carved from a freed chain kept, on media, its
/// previous life's bytes at the slot mini-header offsets — the carve
/// cleared them with stores nothing wrote back. Here the chain's payload is
/// words that decode as valid `Node` headers; a failure-atomic block carves
/// the block for a 16-B slot and commits it, and the power fails. A
/// `HeaderScanOnly` reopen keeps exactly one object more than the same pool
/// without that block: the slot it committed (it kept 8 more, 7 stale
/// words past the block's first line read as live objects, when the carve
/// wrote back only the line of its header).
#[test]
fn a_recycled_carve_leaves_no_stale_mini_header_for_a_header_scan() {
    let live_after_crash = |commit: bool| {
        let (pmem, rt) = fresh(1 << 20);
        let id = rt.registry().id_of::<Node>().unwrap();
        rt.fa(|| rt.root_put("warm", &Simple::alloc_uninit(&rt)).unwrap());
        let old = crate::Proxy::alloc(&rt, id, 248);
        let valid = jnvm_heap::BlockHeader {
            id,
            valid: true,
            next: 0,
        }
        .encode();
        for off in (0..248).step_by(8) {
            old.write_u64(off, valid);
        }
        old.pwb();
        old.validate();
        pmem.pfence();
        rt.free_addr(old.addr());
        pmem.pfence();
        if commit {
            let slot = rt.fa(|| {
                let p = crate::Proxy::try_alloc_small(&rt, id, 16).unwrap();
                p.write_u64(0, 7);
                p.addr()
            });
            let heap = rt.heap();
            assert_eq!(heap.block_of_addr(slot), heap.block_of_addr(old.addr()));
        }
        drop((old, rt));
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (_, report) = JnvmBuilder::new()
            .register::<Simple>()
            .register::<Node>()
            .open_with_options(
                Arc::clone(&pmem),
                RecoveryOptions::with_mode(RecoveryMode::HeaderScanOnly),
            )
            .unwrap();
        report.live_objects
    };
    assert_eq!(live_after_crash(true), live_after_crash(false) + 1);
}
