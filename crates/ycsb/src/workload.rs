//! The YCSB core workload definitions.

/// Request-key distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestDistribution {
    /// Scrambled zipfian (YCSB's default `zipfian`).
    Zipfian,
    /// Recency-skewed (workload D).
    Latest,
    /// Uniform.
    Uniform,
}

/// The standard workloads (E omitted — the paper skips it because
/// Infinispan only exposes scans through JPQL, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Update heavy: 50 % read, 50 % update, zipfian.
    A,
    /// Read mostly: 95 % read, 5 % update, zipfian.
    B,
    /// Read only, zipfian.
    C,
    /// Read latest: 95 % read, 5 % insert, latest.
    D,
    /// Read-modify-write: 50 % read, 50 % RMW, zipfian.
    F,
}

impl Workload {
    /// All workloads the paper evaluates, in Figure 7 order.
    pub const ALL: [Workload; 5] = [
        Workload::A,
        Workload::B,
        Workload::C,
        Workload::D,
        Workload::F,
    ];

    /// One-letter label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::A => "A",
            Workload::B => "B",
            Workload::C => "C",
            Workload::D => "D",
            Workload::F => "F",
        }
    }

    /// Parse a one-letter label.
    pub fn parse(s: &str) -> Option<Workload> {
        match s.to_ascii_uppercase().as_str() {
            "A" => Some(Workload::A),
            "B" => Some(Workload::B),
            "C" => Some(Workload::C),
            "D" => Some(Workload::D),
            "F" => Some(Workload::F),
            _ => None,
        }
    }

    /// The operation mix and distribution of this workload.
    pub fn spec(&self, record_count: u64, op_count: u64) -> WorkloadSpec {
        let base = WorkloadSpec {
            record_count,
            op_count,
            field_count: 10,
            field_len: 100,
            read_all_fields: true,
            threads: 1,
            seed: 0x9e3779b97f4a7c15,
            read: 0.0,
            update: 0.0,
            insert: 0.0,
            rmw: 0.0,
            distribution: RequestDistribution::Zipfian,
        };
        match self {
            Workload::A => WorkloadSpec {
                read: 0.5,
                update: 0.5,
                ..base
            },
            Workload::B => WorkloadSpec {
                read: 0.95,
                update: 0.05,
                ..base
            },
            Workload::C => WorkloadSpec { read: 1.0, ..base },
            Workload::D => WorkloadSpec {
                read: 0.95,
                insert: 0.05,
                distribution: RequestDistribution::Latest,
                ..base
            },
            Workload::F => WorkloadSpec {
                read: 0.5,
                rmw: 0.5,
                ..base
            },
        }
    }
}

/// Fully-resolved workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Records loaded before the run.
    pub record_count: u64,
    /// Operations executed during the run (across all threads).
    pub op_count: u64,
    /// Fields per record (paper default: 10).
    pub field_count: usize,
    /// Bytes per field (paper default: 100).
    pub field_len: usize,
    /// Reads fetch every field (YCSB default).
    pub read_all_fields: bool,
    /// Client threads (paper default: sequential).
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Proportion of reads.
    pub read: f64,
    /// Proportion of whole-record updates (one random field rewritten).
    pub update: f64,
    /// Proportion of inserts.
    pub insert: f64,
    /// Proportion of read-modify-writes.
    pub rmw: f64,
    /// Request-key distribution.
    pub distribution: RequestDistribution,
}

impl WorkloadSpec {
    /// Total record bytes (excluding keys and metadata).
    pub fn dataset_bytes(&self) -> u64 {
        self.record_count * (self.field_count * self.field_len) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one() {
        for w in Workload::ALL {
            let s = w.spec(1000, 1000);
            let sum = s.read + s.update + s.insert + s.rmw;
            assert!((sum - 1.0).abs() < 1e-9, "workload {w:?} sums to {sum}");
        }
    }

    #[test]
    fn labels_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.label()), Some(w));
        }
        assert_eq!(Workload::parse("E"), None);
        assert_eq!(Workload::parse("a"), Some(Workload::A));
    }

    #[test]
    fn d_uses_latest() {
        assert_eq!(
            Workload::D.spec(1, 1).distribution,
            RequestDistribution::Latest
        );
        assert_eq!(
            Workload::A.spec(1, 1).distribution,
            RequestDistribution::Zipfian
        );
    }

    #[test]
    fn dataset_bytes() {
        let s = Workload::A.spec(1000, 1);
        assert_eq!(s.dataset_bytes(), 1000 * 1000);
    }
}
