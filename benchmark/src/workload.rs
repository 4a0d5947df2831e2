//! The four workloads. Op `i` of a workload is a pure function of
//! `(seed, i)`: the connections draw indices from one shared counter and
//! rebuild the request from the index, so the op stream is the same for a
//! seed whichever connection sends it, and the audit can recompute what
//! any stored value must be.
//!
//! Every value starts with an 8-byte tag: the index of the op that wrote
//! it, or `PRELOAD_TAG | key` for the preloaded bytes. The rest is
//! pseudo-random in `(seed, tag, field)`. A reader can therefore tell, from
//! the bytes alone, which op a field came from and whether it is torn.

use jnvm_kvstore::Record;
use jnvm_server::{encode_request, Request};
use jnvm_ycsb::{fnv1a_64, record_key};

/// Tag bit of preloaded values (op indices never reach it).
pub const PRELOAD_TAG: u64 = 1 << 63;

/// `insert_delete_2x2` deletes the key inserted this many 5-op blocks
/// (= 20 000 ops) earlier, so the insert was acknowledged long before its
/// delete is sent, whichever connection sends either.
const DELETE_LAG_BLOCKS: u64 = 4_000;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["ycsb_a", "ycsb_c", "update_only", "insert_delete_2x2"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// 50 % GET / 50 % SETF, zipfian keys.
    YcsbA,
    /// 100 % GET, zipfian keys.
    YcsbC,
    /// 100 % SETF, uniform keys.
    UpdateOnly,
    /// 80 % SET of a new key / 20 % DEL of an old one.
    InsertDelete,
}

/// One operation, before it is given its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get { key: u64 },
    SetField { key: u64, field: usize },
    Set { key: u64 },
    Del { key: u64 },
}

impl Op {
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Get { .. })
    }

    pub fn key(&self) -> u64 {
        match *self {
            Op::Get { key } | Op::SetField { key, .. } | Op::Set { key } | Op::Del { key } => key,
        }
    }
}

/// A workload bound to a seed.
pub struct Workload {
    pub name: &'static str,
    mix: Mix,
    /// Pool shards (one committer each).
    pub shards: usize,
    /// Replicas per shard (1 = solo, 2 = primary + backup).
    pub replicas: usize,
    /// Records loaded before the server starts.
    pub records: u64,
    pub fields: usize,
    pub value_size: usize,
    /// Bytes of each simulated device.
    pub pool_bytes: u64,
    /// Ops a second of load stands for: what this workload sustained on
    /// the 2-core sandbox when the benchmark was defined. It sizes the
    /// windows as op counts; it is not a claim.
    pub ops_per_second: u64,
    pub seed: u64,
    zipf: Zipf,
}

impl Workload {
    /// `quick` divides the preload by ten (the test suite's size).
    pub fn by_name(name: &str, seed: u64, quick: bool) -> Option<Workload> {
        let scale = if quick { 10 } else { 1 };
        let ycsb = |name, mix, ops_per_second| Workload {
            name,
            mix,
            shards: 1,
            replicas: 1,
            records: 100_000 / scale,
            fields: 10,
            value_size: 100,
            pool_bytes: 448 << 20,
            ops_per_second,
            seed,
            zipf: Zipf::new(100_000 / scale),
        };
        Some(match name {
            "ycsb_a" => ycsb("ycsb_a", Mix::YcsbA, 58_000),
            "ycsb_c" => ycsb("ycsb_c", Mix::YcsbC, 120_000),
            "update_only" => ycsb("update_only", Mix::UpdateOnly, 64_000),
            "insert_delete_2x2" => Workload {
                name: "insert_delete_2x2",
                mix: Mix::InsertDelete,
                shards: 2,
                replicas: 2,
                // Not scaled: the delete lag needs its preloaded keys.
                records: 10_000,
                fields: 4,
                value_size: 64,
                pool_bytes: 192 << 20,
                ops_per_second: 29_000,
                seed,
                zipf: Zipf::new(1),
            },
            _ => return None,
        })
    }

    /// The fixed dataset the layer probe runs on: a primary and a backup
    /// pool of YCSB-shaped records, the same in every run.
    pub fn probe() -> Workload {
        Workload {
            name: "probe",
            mix: Mix::UpdateOnly,
            shards: 1,
            replicas: 2,
            records: 10_000,
            fields: 10,
            value_size: 100,
            pool_bytes: 128 << 20,
            ops_per_second: 0,
            seed: 0,
            zipf: Zipf::new(1),
        }
    }

    fn rand(&self, i: u64, stream: u64) -> u64 {
        mix64(self.seed ^ mix64(i ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Op `i`.
    pub fn op(&self, i: u64) -> Op {
        let zipf_key = || fnv1a_64(self.zipf.rank(unit(self.rand(i, 1)))) % self.records;
        let field = || (self.rand(i, 2) % self.fields as u64) as usize;
        match self.mix {
            Mix::YcsbC => Op::Get { key: zipf_key() },
            Mix::YcsbA => {
                if self.rand(i, 3) & 1 == 0 {
                    Op::Get { key: zipf_key() }
                } else {
                    Op::SetField {
                        key: zipf_key(),
                        field: field(),
                    }
                }
            }
            Mix::UpdateOnly => Op::SetField {
                key: self.rand(i, 1) % self.records,
                field: field(),
            },
            Mix::InsertDelete => {
                let (block, pos) = (i / 5, i % 5);
                if pos < 4 {
                    Op::Set {
                        key: self.records + 4 * block + pos,
                    }
                } else if block < DELETE_LAG_BLOCKS {
                    // The first deletes take preloaded keys, one each.
                    Op::Del { key: block }
                } else {
                    Op::Del {
                        key: self.records + 4 * (block - DELETE_LAG_BLOCKS),
                    }
                }
            }
        }
    }

    /// YCSB's key format (`user` + 12 digits).
    pub fn key_name(&self, key: u64) -> String {
        record_key(key)
    }

    /// The bytes a writer tagged `tag` stores in `field`.
    pub fn value(&self, tag: u64, field: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.value_size + 8);
        out.extend_from_slice(&tag.to_le_bytes());
        let mut x =
            mix64(self.seed ^ mix64(tag) ^ (field as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03))
                | 1;
        while out.len() < self.value_size {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            out.extend_from_slice(&x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
        }
        out.truncate(self.value_size);
        out
    }

    /// The whole record a writer tagged `tag` stores under `key`.
    pub fn record(&self, key: u64, tag: u64) -> Record {
        let values: Vec<Vec<u8>> = (0..self.fields).map(|f| self.value(tag, f)).collect();
        Record::ycsb(&self.key_name(key), &values)
    }

    pub fn preload_record(&self, key: u64) -> Record {
        self.record(key, PRELOAD_TAG | key)
    }

    /// The wire request of op `i`, which is `op` (passed in so that the
    /// sender computes the zipfian draw once).
    pub fn request(&self, i: u64, op: Op) -> Request {
        match op {
            Op::Get { key } => Request::Get(self.key_name(key)),
            Op::SetField { key, field } => Request::SetField {
                key: self.key_name(key),
                field,
                value: self.value(i, field),
            },
            Op::Set { key } => Request::Set(self.record(key, i)),
            Op::Del { key } => Request::Del(self.key_name(key)),
        }
    }

    /// The op that creates `key`; `None` for a preloaded key.
    pub fn inserter_of(&self, key: u64) -> Option<u64> {
        let k = key.checked_sub(self.records)?;
        (self.mix == Mix::InsertDelete).then_some(5 * (k / 4) + k % 4)
    }

    /// The op that deletes `key`, if the stream ever does.
    pub fn deleter_of(&self, key: u64) -> Option<u64> {
        if self.mix != Mix::InsertDelete {
            return None;
        }
        match key.checked_sub(self.records) {
            None => (key < DELETE_LAG_BLOCKS).then_some(5 * key + 4),
            Some(k) => (k % 4 == 0).then_some(5 * (k / 4 + DELETE_LAG_BLOCKS) + 4),
        }
    }

    /// Keys `0..key_space(issued)` are all the keys that exist or were
    /// ever named once ops `0..issued` have been drawn.
    pub fn key_space(&self, issued: u64) -> u64 {
        match self.mix {
            Mix::InsertDelete => self.records + 4 * (issued / 5) + (issued % 5).min(4),
            _ => self.records,
        }
    }

    /// Value bytes the user moves with `op`: what a GET returns or a
    /// write carries. The denominator of `nvmm_bytes_per_user_byte`.
    pub fn user_bytes(&self, op: &Op) -> u64 {
        match op {
            Op::Get { .. } | Op::Set { .. } => (self.fields * self.value_size) as u64,
            Op::SetField { .. } => self.value_size as u64,
            Op::Del { .. } => 0,
        }
    }

    /// FNV-1a over the encoded frames of ops `0..n`.
    pub fn digest(&self, n: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..n {
            for b in encode_request(&self.request(i, self.op(i))) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// SplitMix64 finalizer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from 53 random bits.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// YCSB's zipfian (Gray et al.), θ = 0.99, without generator state: the
/// rank is a function of one uniform draw.
struct Zipf {
    items: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    const THETA: f64 = 0.99;

    fn new(items: u64) -> Zipf {
        let zeta = |n: u64| {
            (1..=n)
                .map(|i| 1.0 / (i as f64).powf(Self::THETA))
                .sum::<f64>()
        };
        let zeta_n = zeta(items);
        let n = items as f64;
        Zipf {
            items: n,
            zeta_n,
            alpha: 1.0 / (1.0 - Self::THETA),
            eta: (1.0 - (2.0 / n).powf(1.0 - Self::THETA)) / (1.0 - zeta(2) / zeta_n),
        }
    }

    fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(Self::THETA) {
            return 1;
        }
        let r = (self.items * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.items as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_a_pure_function_of_seed_and_index() {
        for name in NAMES {
            let a = Workload::by_name(name, 7, false).unwrap();
            let b = Workload::by_name(name, 7, false).unwrap();
            let c = Workload::by_name(name, 8, false).unwrap();
            assert_eq!(
                a.digest(2_000),
                b.digest(2_000),
                "{name}: same seed, other stream"
            );
            assert_ne!(a.digest(2_000), c.digest(2_000), "{name}: seed is ignored");
        }
    }

    #[test]
    fn mixes_match_their_definitions() {
        let count = |name: &str, pred: fn(&Op) -> bool| {
            let w = Workload::by_name(name, 42, true).unwrap();
            (0..20_000).filter(|&i| pred(&w.op(i))).count()
        };
        assert_eq!(count("ycsb_c", Op::is_read), 20_000);
        assert_eq!(count("update_only", Op::is_read), 0);
        let reads = count("ycsb_a", Op::is_read);
        assert!(
            (9_500..=10_500).contains(&reads),
            "ycsb_a reads {reads} of 20000"
        );
        assert_eq!(
            count("insert_delete_2x2", |op| matches!(op, Op::Del { .. })),
            4_000
        );
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let w = Workload::by_name("ycsb_c", 1, false).unwrap();
        let mut hits = std::collections::HashMap::new();
        for i in 0..50_000 {
            let key = w.op(i).key();
            assert!(key < w.records);
            *hits.entry(key).or_insert(0u32) += 1;
        }
        let hottest = hits.values().max().unwrap();
        assert!(
            *hottest > 2_000,
            "hottest key drew {hottest} of 50000: not zipfian"
        );
        assert!(hits.len() > 5_000, "only {} distinct keys", hits.len());
    }

    #[test]
    fn each_key_is_inserted_once_and_deleted_at_most_once() {
        let w = Workload::by_name("insert_delete_2x2", 3, false).unwrap();
        let mut set = std::collections::HashSet::new();
        let mut del = std::collections::HashSet::new();
        for i in 0..60_000 {
            match w.op(i) {
                Op::Set { key } => assert!(key >= w.records && set.insert(key)),
                Op::Del { key } => {
                    assert!(
                        key < w.records || set.contains(&key),
                        "delete before insert"
                    );
                    assert!(del.insert(key));
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn inserter_and_deleter_invert_the_op_stream() {
        let w = Workload::by_name("insert_delete_2x2", 5, true).unwrap();
        for i in 0..50_000 {
            match w.op(i) {
                Op::Set { key } => assert_eq!(w.inserter_of(key), Some(i)),
                Op::Del { key } => assert_eq!(w.deleter_of(key), Some(i)),
                _ => unreachable!(),
            }
            assert!(w.op(i).key() < w.key_space(i + 1));
        }
        assert_eq!(w.key_space(0), w.records);
    }

    #[test]
    fn values_carry_their_tag() {
        let w = Workload::by_name("ycsb_a", 9, false).unwrap();
        let v = w.value(1234, 3);
        assert_eq!(v.len(), 100);
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 1234);
        assert_ne!(v, w.value(1234, 4));
        assert_ne!(v, w.value(1235, 3));
    }
}
