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
    op_strategy_in(SIZE)
}

fn op_strategy_in(size: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..size - 1, any::<u8>()).prop_map(|(a, v)| Op::W8(a, v)),
        (0..size - 2, any::<u16>()).prop_map(|(a, v)| Op::W16(a, v)),
        (0..size - 4, any::<u32>()).prop_map(|(a, v)| Op::W32(a, v)),
        (0..size - 8, any::<u64>()).prop_map(|(a, v)| Op::W64(a, v)),
        (0..size - 64, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(a, v)| Op::WBytes(a, v)),
        (0..size - 64, 0u64..64).prop_map(|(a, n)| Op::Zero(a, n)),
    ]
}

/// Where `op` stores, and the bytes it leaves there.
fn op_bytes(op: &Op) -> (u64, Vec<u8>) {
    match op {
        Op::W8(a, v) => (*a, vec![*v]),
        Op::W16(a, v) => (*a, v.to_le_bytes().to_vec()),
        Op::W32(a, v) => (*a, v.to_le_bytes().to_vec()),
        Op::W64(a, v) => (*a, v.to_le_bytes().to_vec()),
        Op::WBytes(a, v) => (*a, v.clone()),
        Op::Zero(a, n) => (*a, vec![0; *n as usize]),
    }
}

fn issue(pmem: &Pmem, op: &Op) {
    match op {
        Op::W8(a, v) => pmem.write_u8(*a, *v),
        Op::W16(a, v) => pmem.write_u16(*a, *v),
        Op::W32(a, v) => pmem.write_u32(*a, *v),
        Op::W64(a, v) => pmem.write_u64(*a, *v),
        Op::WBytes(a, v) => pmem.write_bytes(*a, v),
        Op::Zero(a, n) => pmem.zero_range(*a, *n),
    }
}

fn apply(pmem: &Pmem, model: &mut [u8], op: &Op) {
    issue(pmem, op);
    let (addr, bytes) = op_bytes(op);
    model[addr as usize..][..bytes.len()].copy_from_slice(&bytes);
}

/// One step of a persist sequence: a store, a `pwb` (of the n-th earlier
/// store's first line, so flushes mostly hit written lines) or a fence.
#[derive(Debug, Clone)]
enum Step {
    Store(Op),
    Pwb(u64),
    Fence,
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

// ----------------------------------------------------------------------
// The device against the model it replaced.
// ----------------------------------------------------------------------

/// Pool of the differential property: 16 lines, so threads meet on them.
const REF_SIZE: u64 = 1024;
const LINE: usize = CACHE_LINE as usize;

/// The device as it was before the shadow, kept as its oracle: a cache
/// array, a media array of the same size, a state per line and a
/// write-pending queue per thread. Sequential — the property drives the
/// real device's threads one step at a time.
struct TwoArrays {
    cache: Vec<u8>,
    media: Vec<u8>,
    /// 0 clean, 1 dirty, 2 pending.
    state: Vec<u8>,
    queues: [Vec<usize>; 3],
}

impl TwoArrays {
    fn new() -> TwoArrays {
        TwoArrays {
            cache: vec![0; REF_SIZE as usize],
            media: vec![0; REF_SIZE as usize],
            state: vec![0; REF_SIZE as usize / LINE],
            queues: Default::default(),
        }
    }

    fn word(bytes: &[u8], addr: u64) -> u64 {
        u64::from_le_bytes(bytes[addr as usize..][..8].try_into().unwrap())
    }

    fn store(&mut self, addr: u64, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let addr = addr as usize;
        self.cache[addr..][..bytes.len()].copy_from_slice(bytes);
        for line in addr / LINE..=(addr + bytes.len() - 1) / LINE {
            self.state[line] = 1;
        }
    }

    fn persist(&mut self, line: usize) {
        let bytes = line * LINE..(line + 1) * LINE;
        self.media[bytes.clone()].copy_from_slice(&self.cache[bytes]);
    }

    fn step(&mut self, thread: usize, op: &RefOp) {
        match op {
            RefOp::Store(op) => {
                let (addr, bytes) = op_bytes(op);
                self.store(addr, &bytes);
            }
            // A swap that misses still dirties the line.
            RefOp::Cas(addr, hit, new) => {
                let v = if *hit {
                    *new
                } else {
                    Self::word(&self.cache, *addr)
                };
                self.store(*addr, &v.to_le_bytes());
            }
            RefOp::FetchAdd(addr, delta) => {
                let v = Self::word(&self.cache, *addr).wrapping_add(*delta);
                self.store(*addr, &v.to_le_bytes());
            }
            RefOp::Pwb(addr) => {
                let line = *addr as usize / LINE;
                if self.state[line] == 1 {
                    self.state[line] = 2;
                }
                if self.state[line] == 2 {
                    self.queues[thread].push(line);
                }
            }
            RefOp::Fence => {
                for line in std::mem::take(&mut self.queues[thread]) {
                    self.persist(line);
                    if self.state[line] == 2 {
                        self.state[line] = 0;
                    }
                }
            }
        }
    }

    fn crash(&mut self, policy: &CrashPolicy) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(policy.seed);
        let p = policy.evict_probability;
        for line in 0..self.state.len() {
            if self.state[line] != 0 {
                if p > 0.0 && (p >= 1.0 || rng.random::<f64>() < p) {
                    self.persist(line);
                }
                self.state[line] = 0;
            }
        }
        self.queues = Default::default();
        self.cache = self.media.clone();
    }
}

/// A step of the differential property, run by one of its threads.
#[derive(Debug, Clone)]
enum RefOp {
    Store(Op),
    /// `cas_u64` at an aligned address, expecting the current value or not.
    Cas(u64, bool, u64),
    FetchAdd(u64, u64),
    Pwb(u64),
    Fence,
}

fn ref_step_strategy() -> impl Strategy<Value = (usize, RefOp)> {
    let word = || (0..REF_SIZE / 8).prop_map(|w| w * 8);
    let op = prop_oneof![
        4 => op_strategy_in(REF_SIZE).prop_map(RefOp::Store),
        1 => (word(), any::<bool>(), any::<u64>()).prop_map(|(a, hit, v)| RefOp::Cas(a, hit, v)),
        1 => (word(), any::<u64>()).prop_map(|(a, d)| RefOp::FetchAdd(a, d)),
        4 => (0..REF_SIZE).prop_map(RefOp::Pwb),
        2 => Just(RefOp::Fence),
    ];
    (0usize..3, op)
}

fn issue_ref_op(pmem: &Pmem, op: &RefOp) {
    match op {
        RefOp::Store(op) => issue(pmem, op),
        RefOp::Cas(addr, hit, new) => {
            let current = pmem.read_u64(*addr);
            let expected = if *hit { current } else { !current };
            assert_eq!(pmem.cas_u64(*addr, expected, *new).is_ok(), *hit);
        }
        RefOp::FetchAdd(addr, delta) => {
            pmem.fetch_add_u64(*addr, *delta);
        }
        RefOp::Pwb(addr) => pmem.pwb(*addr),
        RefOp::Fence => pmem.pfence(),
    }
}

/// The shadow device is the two-array device: for any interleaving of
/// stores, flushes and fences by `threads` threads, what is persisted
/// agrees word for word before a crash, and the whole pool image after a
/// strict, a lenient and an adversarial one. The threads are persistent
/// workers (a persistence domain is a `ThreadId`), each step handed over a
/// channel and awaited, so the generated order is the executed order.
fn device_equals_reference(
    threads: usize,
    steps: &[(usize, RefOp)],
    seed: u64,
) -> Result<(), TestCaseError> {
    let policies = [
        CrashPolicy::strict(),
        CrashPolicy::lenient(),
        CrashPolicy::adversarial(seed),
    ];
    let pools = policies.map(|_| Pmem::new(PmemConfig::crash_sim(REF_SIZE)));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (to_worker, inbox) = std::sync::mpsc::channel::<(&Pmem, &RefOp)>();
                let (ack, done) = std::sync::mpsc::channel();
                scope.spawn(move || {
                    for (pmem, op) in inbox {
                        issue_ref_op(pmem, op);
                        ack.send(()).unwrap();
                    }
                });
                (to_worker, done)
            })
            .collect();
        for (pmem, policy) in pools.iter().zip(&policies) {
            let mut reference = TwoArrays::new();
            for (thread, op) in steps {
                let (to_worker, done) = &workers[thread % threads];
                to_worker.send((pmem, op)).unwrap();
                done.recv().unwrap();
                reference.step(thread % threads, op);
            }
            for addr in (0..REF_SIZE).step_by(8) {
                let persisted = TwoArrays::word(&reference.media, addr);
                prop_assert_eq!(
                    pmem.media_read_u64(addr),
                    persisted,
                    "media word {:#x}",
                    addr
                );
            }
            pmem.crash(policy).unwrap();
            reference.crash(policy);
            let mut image = vec![0u8; REF_SIZE as usize];
            pmem.read_bytes(0, &mut image);
            prop_assert_eq!(&image, &reference.cache, "image after {:?}", policy);
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn device_equals_reference_model(
        threads in 1usize..=3,
        steps in proptest::collection::vec(ref_step_strategy(), 1..80),
        seed in 0u64..64,
    ) {
        device_equals_reference(threads, &steps, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The same property at torture scale (CI's release torture job).
    #[test]
    #[ignore]
    fn device_equals_reference_model_at_scale(
        threads in 1usize..=3,
        steps in proptest::collection::vec(ref_step_strategy(), 1..80),
        seed in 0u64..64,
    ) {
        device_equals_reference(threads, &steps, seed)?;
    }
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
                    stored.push(op_bytes(op).0);
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
