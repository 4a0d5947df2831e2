//! Operation counters of the device.
//!
//! Each thread counts into cells of its own, one set per pool it touched:
//! the owner bumps a cell with a plain load and store — no locked
//! read-modify-write, no line another writer shares — and
//! [`PmemStats::snapshot`] folds every thread's cells, exited threads'
//! included. The thread's entry for a pool also holds its persistence
//! domain there (`device.rs`), and the charged latency of
//! [`crate::thread_charged_ns`] sits beside the entries: a device op makes
//! one thread-local access for all of its bookkeeping.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::device::Domain;

const FIELDS: usize = StatsSnapshot::FIELDS;

/// One thread's counters on one pool. Only that thread writes them, on
/// cache lines of their own.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct Cells([AtomicU64; FIELDS]);

impl Cells {
    /// Owner only: a load and a store, which readers see whole.
    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        let cell = &self.0[counter as usize];
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// The calling thread's state on one pool.
pub(crate) struct PoolLocal {
    pool: u64,
    registry: Weak<Mutex<Registry>>,
    pub(crate) cells: Arc<Cells>,
    pub(crate) domain: Domain,
}

impl Drop for PoolLocal {
    /// The thread exits: its counts join the pool's exited sums.
    fn drop(&mut self) {
        if let Some(registry) = self.registry.upgrade() {
            let mut registry = registry.lock();
            registry
                .threads
                .retain(|cells| !Arc::ptr_eq(cells, &self.cells));
            for (sum, cell) in registry.exited.iter_mut().zip(&self.cells.0) {
                *sum += cell.load(Ordering::Relaxed);
            }
        }
    }
}

/// A pool's counters as its threads leave them.
#[derive(Debug, Default)]
struct Registry {
    /// The cells of the threads that count here now.
    threads: Vec<Arc<Cells>>,
    /// The counts of the threads that exited.
    exited: [u64; FIELDS],
    /// The fold at the last [`PmemStats::reset`]: a snapshot is what came
    /// after it, so no thread's cells are written by another.
    base: [u64; FIELDS],
}

/// A thread's bookkeeping: the latency charged to it, and its state on
/// each pool it touched, the one it used last first.
struct Local {
    charged_ns: Cell<u64>,
    pools: RefCell<Vec<PoolLocal>>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            charged_ns: Cell::new(0),
            pools: RefCell::new(Vec::new()),
        }
    };
}

/// Latency-model nanoseconds charged to the calling thread so far.
pub(crate) fn charged_ns() -> u64 {
    LOCAL.try_with(|local| local.charged_ns.get()).unwrap_or(0)
}

/// Charge `ns` to the calling thread.
pub(crate) fn charge(ns: u64) {
    let _ = LOCAL.try_with(|local| local.charged_ns.set(local.charged_ns.get() + ns));
}

/// A pool's device counters: every thread's cells, folded on read.
#[derive(Debug)]
pub struct PmemStats {
    /// Process-unique: what a thread finds its entry for this pool by.
    id: u64,
    registry: Arc<Mutex<Registry>>,
}

impl Default for PmemStats {
    fn default() -> Self {
        static POOLS: AtomicU64 = AtomicU64::new(0);
        PmemStats {
            id: POOLS.fetch_add(1, Ordering::Relaxed),
            registry: Arc::default(),
        }
    }
}

impl PmemStats {
    /// Run `f` on the calling thread's state on this pool and its charged
    /// latency, registering the thread at its first op here. `f` must not
    /// reach the device's bookkeeping again. A thread whose thread-locals
    /// are already torn down counts into cells of a fresh entry, and its
    /// domain there is empty.
    #[inline]
    pub(crate) fn with_local<R>(&self, f: impl FnOnce(&mut PoolLocal, &Cell<u64>) -> R) -> R {
        let mut f = Some(f);
        LOCAL
            .try_with(|local| {
                let mut pools = local.pools.borrow_mut();
                if pools.first().is_none_or(|entry| entry.pool != self.id) {
                    self.to_front(&mut pools);
                }
                f.take().expect("called once")(&mut pools[0], &local.charged_ns)
            })
            .unwrap_or_else(|_| {
                let mut pools = Vec::new();
                self.to_front(&mut pools);
                f.take().expect("called once")(&mut pools[0], &Cell::new(0))
            })
    }

    /// Move this pool's entry to the front of `pools`, creating it on the
    /// thread's first op here (and dropping the entries of dropped pools).
    #[cold]
    fn to_front(&self, pools: &mut Vec<PoolLocal>) {
        let at = match pools.iter().position(|entry| entry.pool == self.id) {
            Some(at) => at,
            None => {
                pools.retain(|entry| entry.registry.strong_count() > 0);
                let cells = Arc::<Cells>::default();
                self.registry.lock().threads.push(Arc::clone(&cells));
                pools.push(PoolLocal {
                    pool: self.id,
                    registry: Arc::downgrade(&self.registry),
                    cells,
                    domain: Domain::default(),
                });
                pools.len() - 1
            }
        };
        pools.swap(0, at);
    }

    /// Add `n` to the calling thread's `counter`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.with_local(|local, _| local.cells.add(counter, n));
    }

    /// Every thread's counts, exited ones' included.
    fn fold(registry: &Registry) -> StatsSnapshot {
        let mut sum = registry.exited;
        for cells in &registry.threads {
            for (total, cell) in sum.iter_mut().zip(&cells.0) {
                *total += cell.load(Ordering::Relaxed);
            }
        }
        StatsSnapshot::from_array(sum)
    }

    /// Every thread's counts since the last reset.
    pub fn snapshot(&self) -> StatsSnapshot {
        let registry = self.registry.lock();
        Self::fold(&registry).delta(&StatsSnapshot::from_array(registry.base))
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        let mut registry = self.registry.lock();
        registry.base = Self::fold(&registry).to_array();
    }
}

/// The device counters, named once: [`StatsSnapshot`]'s fields, their
/// names and array order, and the [`Counter`] a device op bumps.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// A point-in-time copy of the device counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// A counter's index in a thread's cells and in
        /// [`StatsSnapshot::to_array`].
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        pub(crate) enum Counter {
            $($name,)*
        }

        impl StatsSnapshot {
            /// Number of counters in the snapshot (the length of
            /// [`Self::to_array`]).
            pub const FIELDS: usize = [$(stringify!($name),)*].len();

            /// Field names, in [`Self::to_array`] order.
            pub const FIELD_NAMES: [&'static str; Self::FIELDS] = [$(stringify!($name),)*];

            /// Every counter as a fixed-size array, in [`Self::FIELD_NAMES`]
            /// order. [`Self::delta`] and [`Self::absorb`] are built on it,
            /// so a counter added to the list is in both.
            pub fn to_array(&self) -> [u64; Self::FIELDS] {
                [$(self.$name,)*]
            }

            /// Inverse of [`Self::to_array`].
            pub fn from_array(a: [u64; Self::FIELDS]) -> StatsSnapshot {
                let [$($name,)*] = a;
                StatsSnapshot { $($name,)* }
            }
        }
    };
}

counters! {
    /// Number of read operations.
    reads,
    /// Number of write operations.
    writes,
    /// Bytes read.
    bytes_read,
    /// Bytes written.
    bytes_written,
    /// `pwb` invocations.
    pwbs,
    /// `pfence` invocations.
    pfences,
    /// `psync` invocations.
    psyncs,
    /// Simulated power failures.
    crashes,
    /// Power failures triggered by the crash-point injection engine
    /// (a subset of `crashes`).
    injected_crashes,
    /// Threads stopped by an injected crash they did not trigger (their
    /// first op against the frozen device unwound).
    secondary_unwinds,
    /// Labeled [`crate::Pmem::ordering_point`] emissions (FA commit and
    /// retire, allocator publish, recovery apply). Counted in every
    /// sanitizer mode, including `Off`.
    ordering_points,
    /// Persist-ordering violations the sanitizer detected (`Log` mode
    /// records them; `Strict` panics after counting the first).
    san_violations,
    /// Wasted flushes: `pwb`s of already-clean lines, and of lines the
    /// caller itself already has pending. Tracked only when the sanitizer
    /// is on.
    redundant_pwbs,
    /// Fences with no intervening `pwb` on the fencing thread — wasted
    /// ordering points. Tracked only when the sanitizer is on.
    redundant_fences,
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier`, for measuring an interval.
    ///
    /// Saturating: if [`crate::Pmem::reset_stats`] ran between the two
    /// snapshots, `earlier` may exceed `self`; the difference clamps to 0
    /// instead of panicking in debug builds / wrapping in release builds.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut a = self.to_array();
        for (v, e) in a.iter_mut().zip(earlier.to_array()) {
            *v = v.saturating_sub(e);
        }
        StatsSnapshot::from_array(a)
    }

    /// Labeled ordering points emitted via [`crate::Pmem::ordering_point`]
    /// — FA commits and retires, allocator publishes, recovery applies.
    /// Formerly the bare `pfence + psync` count; the labeled emissions are
    /// the honest denominator of the acked-durability assertion: group
    /// commit is working when ordering points per acknowledged write sit
    /// well below one under pipelined load.
    pub fn ordering_points(&self) -> u64 {
        self.ordering_points
    }

    /// Counter-wise accumulate `other` into `self` — the aggregation a
    /// sharded engine needs to report one fleet-wide snapshot over N
    /// disjoint devices. Totals (not maxima): a fleet snapshot answers
    /// "how much device work happened", while per-shard critical-path
    /// comparisons should keep the snapshots separate.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        let mut a = self.to_array();
        for (v, o) in a.iter_mut().zip(other.to_array()) {
            *v += o;
        }
        *self = StatsSnapshot::from_array(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pmem, PmemConfig};

    /// Each of `threads` threads stores, reads, flushes and fences its own
    /// line `ops` times, then exits.
    fn count_on_threads(p: &Arc<Pmem>, threads: u64, ops: u64) {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let p = Arc::clone(p);
                std::thread::spawn(move || {
                    for i in 0..ops {
                        p.write_u64(t * 64, i);
                        p.read_u64(t * 64);
                        p.pwb(t * 64);
                        p.pfence();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn an_exited_threads_counts_survive_and_sums_are_exact() {
        let p = Pmem::new(PmemConfig::crash_sim(4096));
        p.write_u64(1024, 1); // this thread counts too
        count_on_threads(&p, 8, 100);
        let s = p.stats();
        assert_eq!((s.writes, s.reads, s.pwbs, s.pfences), (801, 800, 800, 800));
        assert_eq!((s.bytes_written, s.bytes_read), (801 * 8, 800 * 8));
        // Counted once more after more threads came and went; the pool
        // holds the cells of its live threads only.
        count_on_threads(&p, 3, 10);
        assert_eq!(p.stats().pwbs, 830);
        assert_eq!(p.stats.registry.lock().threads.len(), 1);
    }

    #[test]
    fn reset_zeroes_every_threads_cells() {
        let p = Pmem::new(PmemConfig::crash_sim(4096));
        count_on_threads(&p, 4, 10);
        p.write_u64(1024, 1);
        p.reset_stats();
        assert_eq!(p.stats(), StatsSnapshot::default());
        // A thread that counted before the reset counts from zero after it.
        p.pwb(1024);
        count_on_threads(&p, 2, 5);
        let s = p.stats();
        assert_eq!((s.writes, s.pwbs, s.pfences), (10, 11, 10));
    }

    #[test]
    fn a_thread_counts_into_each_pool_apart() {
        let (a, b) = (
            Pmem::new(PmemConfig::perf(4096)),
            Pmem::new(PmemConfig::perf(4096)),
        );
        for i in 0..10 {
            a.write_u64(0, i);
            b.read_u64(0);
            b.read_u64(8);
        }
        drop(Pmem::new(PmemConfig::perf(4096)));
        assert_eq!((a.stats().writes, a.stats().reads), (10, 0));
        assert_eq!((b.stats().writes, b.stats().reads), (0, 20));
    }

    #[test]
    fn delta_saturates_after_reset() {
        let before = StatsSnapshot {
            reads: 10,
            writes: 10,
            ..StatsSnapshot::default()
        };
        let after = StatsSnapshot {
            reads: 3,
            writes: 0,
            pwbs: 5,
            ..StatsSnapshot::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.reads, 0);
        assert_eq!(d.writes, 0);
        assert_eq!(d.pwbs, 5);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let a = StatsSnapshot {
            reads: 1,
            writes: 2,
            bytes_read: 3,
            bytes_written: 4,
            pwbs: 5,
            pfences: 6,
            psyncs: 7,
            crashes: 8,
            injected_crashes: 9,
            secondary_unwinds: 10,
            ordering_points: 11,
            san_violations: 12,
            redundant_pwbs: 13,
            redundant_fences: 14,
        };
        let mut total = a;
        total.absorb(&a);
        // Doubling every field catches a counter forgotten in absorb.
        let twice = StatsSnapshot {
            reads: 2,
            writes: 4,
            bytes_read: 6,
            bytes_written: 8,
            pwbs: 10,
            pfences: 12,
            psyncs: 14,
            crashes: 16,
            injected_crashes: 18,
            secondary_unwinds: 20,
            ordering_points: 22,
            san_violations: 24,
            redundant_pwbs: 26,
            redundant_fences: 28,
        };
        assert_eq!(total, twice);
        assert_eq!(total.ordering_points(), 22);
    }

    #[test]
    fn array_roundtrip_covers_every_field() {
        // A distinct value per field: from_array(to_array(s)) == s proves
        // the two orderings agree field-for-field.
        let a: [u64; StatsSnapshot::FIELDS] = std::array::from_fn(|i| (i as u64 + 1) * 1_000_003);
        let s = StatsSnapshot::from_array(a);
        assert_eq!(s.to_array(), a);
        assert_eq!(StatsSnapshot::from_array(s.to_array()), s);
        assert_eq!(StatsSnapshot::FIELD_NAMES.len(), StatsSnapshot::FIELDS);
    }
}
