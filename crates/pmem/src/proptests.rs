//! Property tests: the device behaves like a flat byte array, and the
//! persistence semantics respect the pwb/pfence contract.

use proptest::prelude::*;

use crate::{CrashPolicy, Pmem, PmemConfig, SanitizeMode, CACHE_LINE};

const SIZE: u64 = 16 * 1024;

#[derive(Debug, Clone)]
enum Op {
    W8(u64, u8),
    W16(u64, u16),
    W32(u64, u32),
    W64(u64, u64),
    WBytes(u64, Vec<u8>),
    Zero(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SIZE - 1, any::<u8>()).prop_map(|(a, v)| Op::W8(a, v)),
        (0..SIZE - 2, any::<u16>()).prop_map(|(a, v)| Op::W16(a, v)),
        (0..SIZE - 4, any::<u32>()).prop_map(|(a, v)| Op::W32(a, v)),
        (0..SIZE - 8, any::<u64>()).prop_map(|(a, v)| Op::W64(a, v)),
        (0..SIZE - 64, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(a, v)| Op::WBytes(a, v)),
        (0..SIZE - 64, 0u64..64).prop_map(|(a, n)| Op::Zero(a, n)),
    ]
}

fn apply(pmem: &Pmem, model: &mut [u8], op: &Op) {
    match op {
        Op::W8(a, v) => {
            pmem.write_u8(*a, *v);
            model[*a as usize] = *v;
        }
        Op::W16(a, v) => {
            pmem.write_u16(*a, *v);
            model[*a as usize..*a as usize + 2].copy_from_slice(&v.to_le_bytes());
        }
        Op::W32(a, v) => {
            pmem.write_u32(*a, *v);
            model[*a as usize..*a as usize + 4].copy_from_slice(&v.to_le_bytes());
        }
        Op::W64(a, v) => {
            pmem.write_u64(*a, *v);
            model[*a as usize..*a as usize + 8].copy_from_slice(&v.to_le_bytes());
        }
        Op::WBytes(a, v) => {
            pmem.write_bytes(*a, v);
            model[*a as usize..*a as usize + v.len()].copy_from_slice(v);
        }
        Op::Zero(a, n) => {
            pmem.zero_range(*a, *n);
            model[*a as usize..(*a + *n) as usize].fill(0);
        }
    }
}

/// One step of a persist sequence: a store, a `pwb` (of the n-th earlier
/// store's first line, so flushes mostly hit written lines) or a fence.
#[derive(Debug, Clone)]
enum Step {
    Store(Op),
    Pwb(u64),
    Fence,
}

fn op_addr(op: &Op) -> u64 {
    match op {
        Op::W8(a, _)
        | Op::W16(a, _)
        | Op::W32(a, _)
        | Op::W64(a, _)
        | Op::WBytes(a, _)
        | Op::Zero(a, _) => *a,
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => op_strategy().prop_map(Step::Store),
        3 => (0..SIZE).prop_map(Step::Pwb),
        1 => Just(Step::Fence),
    ]
}

/// A step of the two-thread variant: thread A owns the even words and
/// follows the discipline at random; thread B owns the odd words of the
/// same lines, stores and `pwb`s them, and never fences.
#[derive(Debug, Clone)]
enum Step2 {
    AStore(u64, u64),
    APwb(u64),
    AFence,
    BStore(u64, u64),
    BPwb(u64),
}

const WORDS: u64 = 64;

fn step2_strategy() -> impl Strategy<Value = Step2> {
    let even = (0..WORDS / 2).prop_map(|w| w * 16);
    let odd = (0..WORDS / 2).prop_map(|w| w * 16 + 8);
    prop_oneof![
        (even, 1..u64::MAX).prop_map(|(a, v)| Step2::AStore(a, v)),
        (0..WORDS * 8).prop_map(Step2::APwb),
        Just(Step2::AFence),
        (odd, 1..u64::MAX).prop_map(|(a, v)| Step2::BStore(a, v)),
        (0..WORDS * 8).prop_map(Step2::BPwb),
    ]
}

fn log_pool() -> std::sync::Arc<Pmem> {
    Pmem::new(PmemConfig::crash_sim(SIZE).with_sanitize(SanitizeMode::Log))
}

/// Whether an ordering point over `[addr, addr + len)` records nothing.
fn sanitizer_accepts(pmem: &Pmem, addr: u64, len: u64) -> bool {
    let before = pmem.stats().san_violations;
    pmem.ordering_point("probe", &[(addr, len)]);
    pmem.stats().san_violations == before
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sanitizer is sound against the crash model: a line it accepts
    /// at an ordering point survives a strict crash byte for byte. True
    /// by construction while both read one line state; this keeps a
    /// future edit from re-splitting the model.
    #[test]
    fn accepted_lines_survive_strict_crash(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let pmem = log_pool();
        let mut model = vec![0u8; SIZE as usize];
        let mut stored: Vec<u64> = Vec::new();
        for step in &steps {
            match step {
                Step::Store(op) => {
                    apply(&pmem, &mut model, op);
                    stored.push(op_addr(op));
                }
                Step::Pwb(n) if stored.is_empty() => pmem.pwb(*n),
                Step::Pwb(n) => pmem.pwb(stored[*n as usize % stored.len()]),
                Step::Fence => pmem.pfence(),
            }
        }
        let accepted: Vec<u64> = (0..SIZE / CACHE_LINE)
            .filter(|line| sanitizer_accepts(&pmem, line * CACHE_LINE, CACHE_LINE))
            .collect();
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let mut out = vec![0u8; SIZE as usize];
        pmem.read_bytes(0, &mut out);
        for line in accepted {
            let r = (line * CACHE_LINE) as usize..((line + 1) * CACHE_LINE) as usize;
            prop_assert_eq!(&out[r.clone()], &model[r], "accepted line {} lost data", line);
        }
    }

    /// Same with a neighbour thread scribbling on the other words of the
    /// same lines: every footprint word the sanitizer accepts for thread A
    /// survives a strict crash, whatever thread B left unfenced beside it.
    #[test]
    fn accepted_words_survive_strict_crash_beside_an_unfenced_neighbour(
        steps in proptest::collection::vec(step2_strategy(), 1..80),
    ) {
        let pmem = log_pool();
        // B runs its steps on its own thread, one at a time, in the
        // generated order (the channel round-trip forces the interleaving).
        let (to_b, b_steps) = std::sync::mpsc::channel::<Step2>();
        let (b_done, done) = std::sync::mpsc::channel::<()>();
        let accepted: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let pb = &pmem;
            scope.spawn(move || {
                for step in b_steps {
                    match step {
                        Step2::BStore(a, v) => pb.write_u64(a, v),
                        Step2::BPwb(a) => pb.pwb(a),
                        _ => unreachable!("thread A's step sent to thread B"),
                    }
                    b_done.send(()).unwrap();
                }
            });
            for step in &steps {
                match step {
                    Step2::AStore(a, v) => pmem.write_u64(*a, *v),
                    Step2::APwb(a) => pmem.pwb(*a),
                    Step2::AFence => pmem.pfence(),
                    b => {
                        to_b.send(b.clone()).unwrap();
                        done.recv().unwrap();
                    }
                }
            }
            drop(to_b);
            (0..WORDS / 2)
                .map(|w| w * 16)
                .filter(|a| sanitizer_accepts(&pmem, *a, 8))
                .map(|a| (a, pmem.read_u64(a)))
                .collect()
        });
        pmem.crash(&CrashPolicy::strict()).unwrap();
        for (addr, before) in accepted {
            prop_assert_eq!(pmem.read_u64(addr), before, "accepted word {:#x} lost data", addr);
        }
    }

    /// Arbitrary interleavings of every write width agree with a flat
    /// byte-array model, under every read width.
    #[test]
    fn device_matches_byte_array_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let pmem = Pmem::new(PmemConfig::crash_sim(SIZE));
        let mut model = vec![0u8; SIZE as usize];
        for op in &ops {
            apply(&pmem, &mut model, op);
        }
        // Full sweep with byte reads.
        let mut out = vec![0u8; SIZE as usize];
        pmem.read_bytes(0, &mut out);
        prop_assert_eq!(&out, &model);
        // Random-width probes.
        for a in (0..SIZE - 8).step_by(97) {
            prop_assert_eq!(pmem.read_u8(a), model[a as usize]);
            prop_assert_eq!(
                pmem.read_u64(a),
                u64::from_le_bytes(model[a as usize..a as usize + 8].try_into().unwrap())
            );
        }
    }

    /// After pwb + pfence over a region, a strict crash preserves exactly
    /// that region; unflushed writes elsewhere vanish.
    #[test]
    fn fenced_region_survives_strict_crash(
        base in (0u64..(SIZE / 128)).prop_map(|b| b * 128),
        len in 1u64..128,
        noise in (0u64..(SIZE / 128)).prop_map(|b| b * 128),
    ) {
        prop_assume!(noise != base);
        let pmem = Pmem::new(PmemConfig::crash_sim(SIZE));
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        pmem.write_bytes(base, &data);
        pmem.pwb_range(base, len);
        pmem.pfence();
        pmem.write_u64(noise, 0xdeadbeef); // never flushed
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let mut out = vec![0u8; len as usize];
        pmem.read_bytes(base, &mut out);
        prop_assert_eq!(out, data);
        prop_assert_eq!(pmem.read_u64(noise), 0);
    }

    /// A lenient crash (everything evicts) equals drain_all: no data loss,
    /// regardless of flush discipline.
    #[test]
    fn lenient_crash_preserves_all(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let pmem = Pmem::new(PmemConfig::crash_sim(SIZE));
        let mut model = vec![0u8; SIZE as usize];
        for op in &ops {
            apply(&pmem, &mut model, op);
        }
        pmem.crash(&CrashPolicy::lenient()).unwrap();
        let mut out = vec![0u8; SIZE as usize];
        pmem.read_bytes(0, &mut out);
        prop_assert_eq!(out, model);
    }

    /// Post-crash content is always line-granular: every 64-byte line
    /// equals either its pre-crash cache content or its pre-crash media
    /// content — never a blend.
    #[test]
    fn crash_is_line_granular(seed in any::<u64>(), evict in 0.0f64..=1.0) {
        let pmem = Pmem::new(PmemConfig::crash_sim(SIZE));
        // Persist a baseline.
        for line in 0..SIZE / 64 {
            pmem.write_u64(line * 64, line + 1);
            pmem.write_u64(line * 64 + 8, line + 1);
        }
        pmem.drain_all();
        // Overwrite everything, flush nothing.
        for line in 0..SIZE / 64 {
            pmem.write_u64(line * 64, (line + 1) << 32);
            pmem.write_u64(line * 64 + 8, (line + 1) << 32);
        }
        pmem.crash(&CrashPolicy { evict_probability: evict, seed }).unwrap();
        for line in 0..SIZE / 64 {
            let a = pmem.read_u64(line * 64);
            let b = pmem.read_u64(line * 64 + 8);
            prop_assert_eq!(a, b, "line {} mixed old and new halves", line);
            prop_assert!(a == line + 1 || a == (line + 1) << 32, "line {} content {a:#x}", line);
        }
    }
}
