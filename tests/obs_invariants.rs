//! Invariant tests for the `jnvm-obs` observability layer: the metrics it
//! reports must be *conserved* quantities, not best-effort samples.
//!
//! The contracts under test:
//!
//! * **acked == sampled** — every `Ok`-acked server write records exactly
//!   one `commit-ack` latency sample (counted at ticket resolution, so a
//!   dead client socket cannot skew either side);
//! * **fences attributed** — at quiescence, the devices' pwb/fence
//!   counters equal the sum of the per-ordering-point label counters
//!   (plus the `(unattributed)` bucket that thread-exit flushes feed),
//!   across a sharded *and* replicated server;
//! * **span conservation** — per-ring span counts always sum to the
//!   global per-kind totals, including across failover
//!   (promotion/degrade must neither lose nor double-count spans);
//! * **histogram linearity** — concurrent recording and
//!   `Histogram::merge` agree exactly with a sequential oracle;
//! * **snapshot completeness** — `StatsSnapshot`'s array round-trip
//!   covers every field, so `delta`/`absorb` cannot silently drop a
//!   counter added later;
//! * **off mode is inert** — with `JNVM_OBS=off`, span sites and fence
//!   hooks move no counter and register nothing; and the number of obs
//!   sites log mode crosses per op on the CrashSim op path is pinned (the
//!   measured overhead percentage is `fig15_obs_overhead --assert`'s).
//!
//! The obs registry is process-global, so every test serializes on one
//! mutex and measures *deltas* across its own window.

use std::sync::{Arc, Mutex, MutexGuard};

use jnvm_repro::faultsim::strided_points;
use jnvm_repro::heap::{HeapConfig, FIRST_USER_CLASS_ID};
use jnvm_repro::jnvm::{JnvmBuilder, PObject, Proxy};
use jnvm_repro::jpdt::{register_jpdt, PBytes, PStringHashMap};
use jnvm_repro::kvstore::{commit_writes, Record, WriteOp};
use jnvm_repro::lincheck::check;
use jnvm_repro::obs::{self, Histogram, ObsMode};
use jnvm_repro::pmem::{Pmem, PmemConfig, SanitizeMode, StatsSnapshot};
use jnvm_repro::server::{
    kill_during_traffic, run_loadgen, traffic_op_count, Cluster, LoadgenConfig, ServerConfig,
    TortureConfig,
};

/// The obs registry and mode switch are process-global: one test at a
/// time. Every test takes this first, so it is dropped last — after the
/// test's pools and runtimes — and closes the thread's books before the
/// lock goes: counts still pending then (a runtime's closing `psync`)
/// would otherwise be flushed by the thread-exit destructor *after* the
/// release, into the next test's measurement window.
struct ObsLock {
    _held: MutexGuard<'static, ()>,
}
impl Drop for ObsLock {
    fn drop(&mut self) {
        obs::flush_thread_pending();
    }
}
fn obs_lock() -> ObsLock {
    static LOCK: Mutex<()> = Mutex::new(());
    ObsLock {
        _held: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

/// Flips obs into the given mode for the test's scope, then restores
/// whatever `JNVM_OBS` says.
struct ModeGuard;
fn with_mode(mode: ObsMode) -> ModeGuard {
    obs::set_mode(mode);
    ModeGuard
}
impl Drop for ModeGuard {
    fn drop(&mut self) {
        obs::set_mode(ObsMode::from_env());
    }
}

/// Pool shards for the server runs: `JNVM_SHARDS` or 2 (the acceptance
/// configuration runs this suite with `JNVM_SHARDS=2 JNVM_REPLICAS=2`).
fn pool_shards_from_env() -> usize {
    std::env::var("JNVM_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Replicas per shard: `JNVM_REPLICAS` or 2.
fn pool_replicas_from_env() -> usize {
    std::env::var("JNVM_REPLICAS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| (1..=2).contains(&n))
        .unwrap_or(2)
}

// ---------------------------------------------------------------------------
// StatsSnapshot completeness: the array round-trip is the compile-and-run
// guard that keeps delta/absorb exhaustive.
// ---------------------------------------------------------------------------

/// Every field must survive `to_array`/`from_array` and flow through
/// `delta`/`absorb` independently. Adding a counter to `StatsSnapshot`
/// without growing `FIELDS`/`FIELD_NAMES` is a compile error (exhaustive
/// destructuring); adding it inconsistently fails here.
#[test]
fn stats_snapshot_arrays_cover_every_field() {
    assert_eq!(StatsSnapshot::FIELDS, StatsSnapshot::FIELD_NAMES.len());
    let mut arr = [0u64; StatsSnapshot::FIELDS];
    for (i, v) in arr.iter_mut().enumerate() {
        // Distinct, structureless values: a swapped pair of fields in
        // either direction of the round-trip cannot cancel out.
        *v = (i as u64 + 1) * 7919;
    }
    let snap = StatsSnapshot::from_array(arr);
    assert_eq!(snap.to_array(), arr, "to_array/from_array round-trip");

    for i in 0..StatsSnapshot::FIELDS {
        let name = StatsSnapshot::FIELD_NAMES[i];
        let mut unit = [0u64; StatsSnapshot::FIELDS];
        unit[i] = 3;
        let probe = StatsSnapshot::from_array(unit);

        let mut acc = snap;
        acc.absorb(&probe);
        let mut want = arr;
        want[i] += 3;
        assert_eq!(acc.to_array(), want, "absorb dropped field {name}");

        let d = acc.delta(&snap);
        assert_eq!(d.to_array(), unit, "delta dropped field {name}");
    }
}

// ---------------------------------------------------------------------------
// Histogram linearity under concurrency.
// ---------------------------------------------------------------------------

const HIST_THREADS: u64 = 8;
const HIST_PER_THREAD: u64 = 4000;

/// A deterministic, wide-spread sample stream per thread: spans several
/// orders of magnitude so many histogram buckets are exercised.
fn hist_value(t: u64, i: u64) -> u64 {
    1 + ((t * HIST_PER_THREAD + i) * 2_654_435_761) % 50_000_000
}

/// N threads hammer one named latency histogram; the snapshot must equal
/// the sequential oracle in count, min, max, and every quantile — and a
/// per-thread `merge` of partial histograms must equal it too. This pins
/// the lossless-merge and quantile-rank contracts under concurrency.
#[test]
fn concurrent_histogram_matches_sequential_oracle() {
    let _g = obs_lock();
    let _m = with_mode(ObsMode::Log);
    const NAME: &str = "obs-test-concurrent-hist";
    assert_eq!(
        obs::metrics_snapshot().hist_count(NAME),
        0,
        "histogram name must be fresh for this test"
    );

    std::thread::scope(|s| {
        for t in 0..HIST_THREADS {
            s.spawn(move || {
                for i in 0..HIST_PER_THREAD {
                    obs::record_latency(NAME, hist_value(t, i));
                }
            });
        }
    });

    let mut oracle = Histogram::new();
    let mut parts: Vec<Histogram> = Vec::new();
    for t in 0..HIST_THREADS {
        let mut part = Histogram::new();
        for i in 0..HIST_PER_THREAD {
            oracle.record(hist_value(t, i));
            part.record(hist_value(t, i));
        }
        parts.push(part);
    }
    let mut merged = Histogram::new();
    for p in &parts {
        merged.merge(p);
    }

    let snap = obs::metrics_snapshot();
    let (_, recorded) = snap
        .hists
        .iter()
        .find(|(n, _)| *n == NAME)
        .expect("histogram registered");

    for (label, h) in [("concurrent", recorded), ("merged", &merged)] {
        assert_eq!(h.count(), oracle.count(), "{label}: count");
        assert_eq!(h.summary(), oracle.summary(), "{label}: summary");
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let got = h.quantile(q);
            assert_eq!(got, oracle.quantile(q), "{label}: quantile({q})");
            assert!(
                (oracle.summary().min_ns..=oracle.summary().max_ns).contains(&got),
                "{label}: quantile({q}) = {got} outside [min, max]"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The server contracts: acked == sampled, fences attributed.
// ---------------------------------------------------------------------------

/// The headline metrics invariants, on the acceptance topology
/// (`JNVM_SHARDS=2 JNVM_REPLICAS=2` in CI):
///
/// 1. the server's `acked_writes` counter equals the `commit-ack`
///    histogram's count delta — one sample per ack, no more, no less;
/// 2. the devices' pwb and fence counters (absorbed over every shard and
///    replica, exactly as the `STATS` report does) equal the obs layer's
///    per-label sums, once the main thread flushes its pending cell —
///    every fence the devices charged is attributed to some ordering
///    point (or explicitly `(unattributed)`), none invented.
#[test]
fn server_acks_and_fences_reconcile_with_obs_registry() {
    let _g = obs_lock();
    let _m = with_mode(ObsMode::Log);
    obs::flush_thread_pending();
    let before = obs::metrics_snapshot();

    // The devices are created inside the measurement window, so their
    // *total* stats are exactly the in-window charges — pool carving and
    // backend setup count on both sides of the reconciliation.
    let cluster = Cluster::create(
        pool_shards_from_env(),
        pool_replicas_from_env(),
        16,
        PmemConfig::crash_sim(48 << 20),
        true,
    )
    .expect("create pools");
    let server = cluster.start(ServerConfig::default()).expect("bind");
    let load = run_loadgen(
        server.addr(),
        &LoadgenConfig {
            conns: 4,
            ops_per_conn: 60,
            pipeline: 8,
            fields: 3,
            value_size: 48,
            seed: 0,
        },
    );
    let stats = server.stats();
    // Joins every committer, handler, and backup-endpoint thread — their
    // TLS destructors flush leftover pending fence counts on the way out.
    server.shutdown();
    let pmems = cluster.into_pmems();
    obs::flush_thread_pending();
    let after = obs::metrics_snapshot();
    let mut dev = StatsSnapshot::default();
    for p in pmems.iter().flatten() {
        dev.absorb(&p.stats());
    }

    assert_eq!(load.errors, 0, "crash-free traffic must not error");
    check(&load.history).unwrap_or_else(|v| panic!("not linearizable: {v}"));
    assert!(load.acked_writes > 0);
    assert_eq!(stats.acked_writes, load.acked_writes);
    assert_eq!(
        stats.acked_writes,
        after.hist_count("commit-ack") - before.hist_count("commit-ack"),
        "every Ok-acked write must record exactly one commit-ack sample"
    );

    assert!(dev.pwbs > 0 && dev.pfences + dev.psyncs > 0);
    assert_eq!(
        after.pwbs() - before.pwbs(),
        dev.pwbs,
        "device pwbs must equal the per-label pwb sums"
    );
    assert_eq!(
        after.fences() - before.fences(),
        dev.pfences + dev.psyncs,
        "device fences must equal the per-label fence sums"
    );
}

/// Span conservation across failover: a replicated kill that promotes the
/// backup (and a backup kill that degrades the shard) must leave the
/// per-ring span counts summing exactly to the global per-kind totals —
/// promotion/degrade may abandon threads and rings, but never a span.
#[test]
fn failover_conserves_span_accounting() {
    let _g = obs_lock();
    let _m = with_mode(ObsMode::Log);
    let cfg = TortureConfig {
        load: LoadgenConfig {
            conns: 4,
            ops_per_conn: 40,
            pipeline: 8,
            fields: 3,
            value_size: 48,
            seed: 0,
        },
        pool_shards: 2,
        replicas: 2,
        crash_shard: 0,
        recovery_threads: 2,
        ..TortureConfig::default()
    };
    let before = obs::span_totals();
    let total = traffic_op_count(&cfg).expect("valid topology");
    // One primary kill (promotion) and one backup kill (degrade).
    for (crash_replica, point) in [(0, total / 8), (1, total / 4)] {
        let cfg = TortureConfig {
            crash_replica,
            ..cfg
        };
        kill_during_traffic(point, &cfg).unwrap_or_else(|e| panic!("{e}"));
    }
    let totals = obs::span_totals();
    let rings = obs::ring_totals();
    assert_eq!(
        totals, rings,
        "per-ring span counts must sum to the global per-kind totals"
    );
    let recorded: u64 = totals.iter().sum::<u64>() - before.iter().sum::<u64>();
    assert!(recorded > 0, "the failover runs recorded no spans");
    // The replicated path must actually have exercised the repl spans.
    let send = obs::SpanKind::ReplSend as usize;
    assert!(
        totals[send] > before[send],
        "no repl_send spans across a replicated run"
    );
}

/// A strided mini-sweep with span-conservation checked after *every*
/// kill: crashes may unwind committers mid-span (those spans are simply
/// never recorded), but accounting must never tear.
#[test]
fn kill_sweep_never_tears_span_accounting() {
    let _g = obs_lock();
    let _m = with_mode(ObsMode::Log);
    let cfg = TortureConfig {
        load: LoadgenConfig {
            conns: 4,
            ops_per_conn: 30,
            pipeline: 8,
            fields: 2,
            value_size: 32,
            seed: 0,
        },
        pool_shards: pool_shards_from_env(),
        replicas: pool_replicas_from_env(),
        ..TortureConfig::default()
    };
    let total = traffic_op_count(&cfg).expect("valid topology");
    for point in strided_points(total, 3) {
        kill_during_traffic(point, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            obs::span_totals(),
            obs::ring_totals(),
            "span accounting torn after kill at {point}"
        );
    }
}

// ---------------------------------------------------------------------------
// Off mode: one branch, no movement, no registration.
// ---------------------------------------------------------------------------

/// With obs off, span sites, fence hooks, ordering points, and latency
/// recording must move nothing: no spans, no label counters, no
/// histogram counts, and — the allocation guard — no new rings, labels,
/// or histograms registered.
#[test]
fn off_mode_moves_no_counters_and_registers_nothing() {
    let _g = obs_lock();
    let _m = with_mode(ObsMode::Off);
    obs::flush_thread_pending();
    let before = obs::metrics_snapshot();
    let before_spans = obs::span_totals();
    let before_rings = obs::ring_count();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..10_000 {
                    let b = obs::span_begin();
                    assert_eq!(b, obs::NOT_TRACING, "off mode must not read the clock");
                    obs::span_end(obs::SpanKind::FaStage, b);
                    obs::point_span(obs::SpanKind::OrderingPoint, "obs-test-off-label");
                    obs::note_pwb();
                    obs::note_fence();
                    obs::note_psync();
                    obs::note_ordering_point("obs-test-off-label");
                    obs::record_latency("obs-test-off-hist", 42);
                }
            });
        }
    });
    obs::flush_thread_pending();

    let after = obs::metrics_snapshot();
    assert_eq!(obs::span_totals(), before_spans, "off mode recorded spans");
    assert_eq!(
        obs::ring_count(),
        before_rings,
        "off mode registered a thread ring"
    );
    assert_eq!(
        after.labels, before.labels,
        "off mode moved a label counter (or registered a label)"
    );
    assert_eq!(
        after.hists.len(),
        before.hists.len(),
        "off mode registered a histogram"
    );
    assert_eq!(after.hist_count("obs-test-off-hist"), 0);
    assert!(after.label("obs-test-off-label").is_none());
}

/// A device driven with obs off charges identical stats to one driven in
/// log mode — the hooks observe, never perturb (the kvstore group tests
/// separately pin the absolute fence counts).
#[test]
fn obs_mode_never_changes_device_stats() {
    let _g = obs_lock();
    let run = |mode: ObsMode| -> [u64; StatsSnapshot::FIELDS] {
        let _m = with_mode(mode);
        let pool = Cluster::create(1, 1, 4, PmemConfig::crash_sim(8 << 20), true).expect("pool");
        let grid = &pool.kv(0).shard(0).grid;
        for i in 0..40 {
            let v = format!("val-{i:04}").into_bytes();
            assert!(grid.insert(&Record::ycsb(&format!("k{i}"), &[v.clone(), v])));
        }
        pool.pmems()[0][0].psync();
        pool.device_stats().to_array()
    };
    assert_eq!(
        run(ObsMode::Off),
        run(ObsMode::Log),
        "observability changed what the device did"
    );
}

// ---------------------------------------------------------------------------
// Log-mode site counts (the measured percentage is fig15's gate).
// ---------------------------------------------------------------------------

/// The deterministic half of the fig15 overhead budget: how many obs
/// sites one op of the CrashSim op path crosses in log mode. The cost of
/// log mode is `sites × per-site cost`; the per-site costs are wall-clock
/// and belong to `fig15_obs_overhead --assert` (the measured, full-scale
/// gate CI runs), but the site counts repeat exactly run to run, so a
/// change that adds a span, an ordering point or a write-back to the rmw
/// path fails here, deterministically, before it shows up as a noisy
/// percentage there.
#[test]
fn log_mode_sites_per_op_are_pinned() {
    let _g = obs_lock();
    let _m = with_mode(ObsMode::Log);
    obs::flush_thread_pending();

    // The real workload: YCSB-style rmw churn over a CrashSim grid with
    // failure-atomic blocks on — the span-heaviest configuration.
    let pool = Cluster::create(1, 1, 4, PmemConfig::crash_sim(16 << 20), true).expect("pool");
    let grid = &pool.kv(0).shard(0).grid;
    for i in 0..32 {
        let v = format!("val-{i:04}").into_bytes();
        assert!(grid.insert(&Record::ycsb(&format!("k{i}"), &[v.clone(), v])));
    }
    let stats_before = pool.device_stats();
    let spans_before: u64 = obs::span_totals().iter().sum();
    const OPS: u64 = 6 * 20 * 32;
    for round in 0..6u32 {
        for batch in 0..20u32 {
            for i in 0..32 {
                let v = format!("v{round:02}{batch:03}-{i:04}").into_bytes();
                assert!(grid.rmw(&format!("k{i}"), 0, &v));
            }
        }
    }
    let d = pool.device_stats().delta(&stats_before);
    let spans = obs::span_totals().iter().sum::<u64>() - spans_before;
    // Ordering points record a point span *and* claim pending counts;
    // count them apart from plain begin/end spans. One rmw is one FA
    // block: the `fa-commit` ordering point and the two `fa-retire` ones
    // (applies durable, then flags cleared), the stage and commit spans,
    // 4 fences — the applies are fenced before the log retires. Write-backs
    // are not a whole number per op, so the run's total is pinned.
    let points = d.ordering_points();
    assert_eq!(points, 3 * OPS, "ordering points per rmw");
    assert_eq!(spans - points, 2 * OPS, "begin/end spans per rmw");
    assert_eq!(d.pfences + d.psyncs, 4 * OPS, "fence hooks per rmw");
    // 7.2 per rmw; 28 200 while a value began with a length word (the
    // rmw's 11-byte values took slots of the 32-B class, not the 16-B one,
    // so where a value's slot lies moved); 28 127 while the keys were objects of their own (a key
    // inside its entry takes a slot of the 32-B class here, beside the
    // rmw's blobs, so where a blob's slot lies moved); 28 166 while the
    // records took whole blocks and the
    // blobs alone filled the pool slots (a fresh blob's slot spans one line
    // or two, depending on where it lies); 32 012 (8.3) while the log's
    // entries shared the flag's line, written back in step 1 and again at
    // the commit point; 83 852 (21.8) while every redirected write built,
    // flushed and applied a whole in-flight block copy, the fresh blob was
    // flushed by its constructor *and* by the commit, and the flag and
    // length words of one line were written back separately.
    assert_eq!(d.pwbs, 27_689, "pwb hooks over {OPS} rmws");
}

// ---------------------------------------------------------------------------
// Device cost of the server's write ops (counts; the benchmark's
// `nvmm_bytes_per_user_byte` and `pmem.pwbs_per_acked_write` in small).
// ---------------------------------------------------------------------------

/// A one-pool cluster preloaded, through the committer's own
/// `commit_writes`, with 32 records of 10 × 100-byte fields.
fn preloaded_cluster(cfg: PmemConfig) -> Cluster {
    let pool = Cluster::create(1, 1, 16, cfg, true).expect("pool");
    let shard = pool.kv(0).shard(0);
    let load: Vec<WriteOp> = (0..32)
        .map(|i| {
            WriteOp::Set(Record::ycsb(
                &format!("user{i:04}"),
                &vec![vec![i as u8; 100]; 10],
            ))
        })
        .collect();
    assert!(commit_writes(&shard.grid, &shard.be, &load)
        .results
        .iter()
        .all(|ok| *ok));
    pool
}

/// One row of CI's job-summary table of device costs per op (the pinned
/// tests print theirs under `--nocapture`).
fn print_cost_row(op: &str, ops: u64, d: &StatsSnapshot) {
    let per_op = |count: u64| count as f64 / ops as f64;
    println!(
        "device-cost | {op} | {:.1} B read | {:.1} B written | {:.2} pwbs | {:.2} fences",
        per_op(d.bytes_read),
        per_op(d.bytes_written),
        per_op(d.pwbs),
        per_op(d.pfences + d.psyncs),
    );
}

fn setf(key: usize, field: usize, fill: u8) -> WriteOp {
    WriteOp::SetField {
        key: format!("user{key:04}"),
        field,
        value: vec![fill; 100],
    }
}

/// What one 100-byte `SETF` moves on the device, exactly: the redo log
/// carries the 8-byte reference the op changes, not the record's block,
/// and the commit applies it from DRAM. 196 bytes (16 read: `nfields` and
/// the old reference — the map lookup answers from DRAM), 8 `pwb`s (the new
/// value's header and bytes cover 2 lines of its pool slot), 4 fences —
/// 212 bytes (32 read) while the lookup read 2 words, the cell and the
/// entry's value reference; 220 bytes and 8 or 9 `pwb`s while
/// the value began with a length word (1 in 64 values then spanned 3
/// lines, 1 in 2 while the records took whole blocks and the values alone
/// filled the slots); 228 bytes while the new value's mini-header was
/// stored invalid at allocation and again valid by the commit; 248 bytes
/// (52 read) while the lookup also read the entry's and the record's master headers
/// and a free read its slot's 4-byte class from the pool block's meta word;
/// 288 bytes (92 read) while the array's length was re-read per cell,
/// `Proxy::open` read the master header twice, the apply read back the
/// blob's header to validate it and the free the slot's mini-header to
/// clear it; 368 bytes and 9 or 10 `pwb`s while the commit read its own
/// log back (56 B), an entry's head was two words (3 × 8 B) and the
/// entries shared the flag's line (1 `pwb`); 1 424 bytes and 23 or 24
/// `pwb`s while the write was redirected to an in-flight NVMM copy of the
/// whole block. A change that moves these moves the benchmark's
/// `update_only` figures (2.48 device bytes per user byte alone) with them.
#[test]
fn setf_device_cost_per_op_is_pinned() {
    let _g = obs_lock(); // device ops feed the process-global obs counters
    let pool = preloaded_cluster(PmemConfig::crash_sim(32 << 20));
    let shard = pool.kv(0).shard(0);
    // The first field update may carve a pool block for its blob; from
    // then on each one recycles the slot the previous one freed.
    assert!(commit_writes(&shard.grid, &shard.be, &[setf(0, 0, 0xA0)]).results[0]);
    const OPS: u64 = 64;
    let before = pool.device_stats();
    for i in 0..OPS as usize {
        let out = commit_writes(&shard.grid, &shard.be, &[setf(i % 32, i % 10, i as u8)]);
        assert!(out.results[0] && out.groups == 1);
    }
    let d = pool.device_stats().delta(&before);
    print_cost_row("SETF (100 B of 10 x 100 B)", OPS, &d);
    assert_eq!(d.bytes_read, 16 * OPS, "device bytes read per SETF");
    assert_eq!(d.bytes_written, 180 * OPS, "device bytes written per SETF");
    assert_eq!(d.pwbs, 8 * OPS, "pwbs per SETF");
    assert_eq!(d.pfences + d.psyncs, 4 * OPS, "fences per group of one");
}

/// Device cost of the structural ops on records of `fields` × `size`
/// bytes, each op a commit group of one, over [`STRUCTURAL_OPS`] ops per
/// phase: `SET`s of new keys fed by the bump pointer (fresh pool, empty free
/// lists), the `DEL`s of those records, and `SET`s of new keys again, now
/// recycling what the `DEL`s freed.
fn structural_costs(fields: usize, size: usize) -> [StatsSnapshot; 3] {
    let pool = preloaded_cluster(PmemConfig::crash_sim(32 << 20));
    let shard = pool.kv(0).shard(0);
    let set = |tag: &str, i: u64| {
        let values = vec![vec![i as u8; size]; fields];
        WriteOp::Set(Record::ycsb(&format!("{tag}{i:04}"), &values))
    };
    let phase = |op: &dyn Fn(u64) -> WriteOp| {
        let before = pool.device_stats();
        for i in 0..STRUCTURAL_OPS {
            let out = commit_writes(&shard.grid, &shard.be, &[op(i)]);
            assert!(out.results[0] && out.groups == 1);
        }
        pool.device_stats().delta(&before)
    };
    [
        phase(&|i| set("fresh", i)),
        phase(&|i| WriteOp::Del(format!("fresh{i:04}"))),
        phase(&|i| set("again", i)),
    ]
}

const STRUCTURAL_OPS: u64 = 64;

fn assert_cost(op: &str, d: &StatsSnapshot, pinned: (u64, u64, u64)) {
    print_cost_row(op, STRUCTURAL_OPS, d);
    assert_eq!(
        (d.bytes_read, d.bytes_written, d.pwbs, d.pfences + d.psyncs),
        (pinned.0, pinned.1, pinned.2, 4 * STRUCTURAL_OPS),
        "device bytes read, bytes written, pwbs and fences of {STRUCTURAL_OPS} x {op}"
    );
}

/// What a `SET` of a new key moves on the device, held like `SETF`'s row:
/// totals over 64 ops, because a pool block or a map cell carved every few
/// ops makes the per-op figure fractional. Bump-fed, a 10 × 100 B record
/// costs 0 B read, ≈1 444 B written and 46.2 `pwb`s, a 4 × 64 B one 0 B,
/// ≈494 B and 20.7; recycling, ≈1 353 B and 40.5, ≈465 B and 19.2. A value
/// stores no length word (its reference carries the length): 8 B less per
/// field, and a 100-B value's flushed range crosses a line boundary less
/// often (≈1 524 B and 46.7, ≈526 B and 20.7; ≈1 433 B and 41.0, ≈497 B and
/// 19.2 with the length word). Each
/// pooled object's mini-header is stored once, valid, by the commit, a
/// carve from the bump cursor stores no cleared mini-headers, and the key
/// is inside its entry. Before that, bump-fed ≈1 711 B and 48.8, ≈648 B
/// and 23.8; recycling, ≈1 561 B and 43.0, ≈577 B and 22.2 — the same
/// bytes as before the entry and the record moved into pool slots. Carving
/// the slots'
/// pool blocks costs the bump-fed `SET` ≈19 B (a pool header, meta word and
/// cleared mini-headers every few ops), and a slot that straddles a line
/// ≈1 `pwb` more (≈1 691 B, 47.5 and ≈630 B, 22.8 — 42.3 and 21.3
/// recycling — while each took a whole block); 144 B and 96 B read while
/// the apply read back every
/// header the block had written to validate it (8 B per object), the proxy
/// and the commit re-walked the chains the allocator had just linked and
/// the map re-read its array's length; while the commit read its log back,
/// an entry's head was two words and every fresh block was a persistent
/// `fetch_add` + `pwb` of the bump pointer: 376 B, 1 860 B and 56.7
/// `pwb`s, and 232 B, ≈722 B and 27.4.
#[test]
fn set_device_cost_per_op_is_pinned() {
    let _g = obs_lock(); // device ops feed the process-global obs counters
    let [fresh, _, again] = structural_costs(4, 64);
    assert_cost(
        "SET new key (4 x 64 B), bump-fed",
        &fresh,
        (0, 31_632, 1_322),
    );
    assert_cost(
        "SET new key (4 x 64 B), recycling",
        &again,
        (0, 29_760, 1_227),
    );
    let [fresh, _, again] = structural_costs(10, 100);
    assert_cost(
        "SET new key (10 x 100 B), bump-fed",
        &fresh,
        (0, 92_384, 2_954),
    );
    assert_cost(
        "SET new key (10 x 100 B), recycling",
        &again,
        (0, 86_592, 2_592),
    );
}

/// What a `DEL` moves on the device: the map's unlink, one one-word FREE
/// entry per value and for the record and the entry, and their
/// invalidations behind the apply fence — 48 B read, 144 B written and 10
/// `pwb`s for 4 × 64 B, 96 B, 240 B and 17 for 10 × 100 B. What it reads
/// is the map cell (to find the entry it frees) and the record's `nfields`
/// and references: no header, no pool meta word, no key, no value, and the
/// value reference from DRAM (56 and 104 B read while the lookup read it
/// from the entry). A value's length moving from its first word into its
/// reference moved none of these numbers (64 B, 160 B and 12,
/// 112 B, 256 B and 18 while the key was an object of its own, whose
/// reference the `DEL` read and which it freed — one FREE entry, one
/// invalidation —, behind the retire fence; 116 and 188 B read
/// while the entry and the record took whole blocks, whose master headers
/// `Proxy::open` and each free read, and a pooled free read its slot's
/// class from the meta word; 204 and 324 B while the array's
/// length was re-read per cell, `Proxy::open` and every block free read the
/// master header twice and a pooled free read the mini-header it clears;
/// 340 / 224 / 13 and 556 / 368 / 20 with the log read back and two-word
/// heads).
#[test]
fn del_device_cost_per_op_is_pinned() {
    let _g = obs_lock(); // device ops feed the process-global obs counters
    let [_, del, _] = structural_costs(4, 64);
    assert_cost("DEL (4 x 64 B)", &del, (3_072, 9_216, 640));
    let [_, del, _] = structural_costs(10, 100);
    assert_cost("DEL (10 x 100 B)", &del, (6_144, 15_360, 1_088));
}

/// What one `GET` moves on the device, exactly, whichever sink serves it:
/// no read for the map lookup (the mirror holds each cell's value
/// reference, and the record is a pool slot, whose proxy reads no header),
/// then the record's `nfields` word and its reference array (2 reads),
/// then each field's content (1 each: its reference carries its length) —
/// 12 reads and 1 088 bytes for 10 × 100 B (the benchmark's shape), 6
/// reads and 296 bytes for 4 × 64 B — and nothing written, flushed or
/// fenced. It was 14 reads / 1 104 B and 8 / 312 B behind a 2-read lookup
/// (the cell and the entry's value reference); 24 reads / 1 184 B and 12 / 344 B
/// while each value began with a length word that the read took first; 26
/// reads / 1 200 B and 14 / 360 B behind a 4-read lookup while the entry
/// and the record took whole blocks and a proxy read each one's master
/// header; 29 reads / 1 224 B and 17 / 384 B behind a 7-read lookup while
/// the array's length was re-read per cell and `Proxy::open` read each
/// master header twice, and 48 reads and 1 304 bytes while every field
/// re-read `nfields` and its own length.
#[test]
fn get_device_cost_per_op_is_pinned() {
    let _g = obs_lock(); // device ops feed the process-global obs counters
    let pool = preloaded_cluster(PmemConfig::crash_sim(32 << 20));
    let shard = pool.kv(0).shard(0);
    let small = Record::ycsb("small", &vec![vec![9u8; 64]; 4]);
    assert!(commit_writes(&shard.grid, &shard.be, &[WriteOp::Set(small.clone())]).results[0]);
    let cost = |read: &dyn Fn()| {
        let before = pool.device_stats();
        read();
        let d = pool.device_stats().delta(&before);
        assert_eq!(
            (d.writes, d.bytes_written, d.pwbs, d.pfences + d.psyncs),
            (0, 0, 0, 0),
            "a GET only reads"
        );
        d
    };
    let rows = [
        ("GET (10 x 100 B)", "user0007", 10, (12, 1088)),
        ("GET (4 x 64 B)", "small", 4, (6, 296)),
    ];
    for (op, key, fields, pinned) in rows {
        // The proxy touch stops at the reference array, which holds every
        // field's length: the record's 2 reads, for any field count.
        let touch = cost(&|| assert!(shard.grid.read_touch(key))).reads;
        assert_eq!(touch, 2, "touch reads for {key}");
        // One more read per field, for its content.
        assert_eq!(pinned.0, touch + fields, "device reads of {key}");
        let read = cost(&|| assert!(shard.grid.read(key).is_some()));
        print_cost_row(op, 1, &read);
        assert_eq!(
            (read.reads, read.bytes_read),
            pinned,
            "device reads and bytes read of grid.read({key})"
        );
        let encoded = cost(&|| assert!(shard.grid.read_encoded(key, &mut Vec::new())));
        assert_eq!(
            (encoded.reads, encoded.bytes_read),
            pinned,
            "device reads and bytes read of grid.read_encoded({key})"
        );
    }
}

/// What the persistent map's own ops read, outside any block, on 100-byte
/// pooled values: a lookup — `get`, `contains`, `get_value` — reads
/// nothing, because the mirror holds each cell's value reference and a
/// pooled value's proxy reads no header (`get` and `get_value` read the
/// cell and the entry's value reference, 16 B, while the mirror held the
/// cell alone); a replace reads the cell, to find the entry whose
/// reference it writes, and the new value's mini-header, which it
/// validates (16 B; 24 B); a remove reads the cell, to find the entry it
/// frees (8 B; 16 B). Writes and write-backs are the ops' own and did not
/// move.
#[test]
fn map_device_cost_per_op_is_pinned() {
    let _g = obs_lock(); // device ops feed the process-global obs counters
    const OPS: usize = 64;
    let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
    let rt = register_jpdt(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let map = PStringHashMap::new(&rt).expect("map");
    let blob = |i: usize| PBytes::new(&rt, &[i as u8; 100]).expect("blob").addr();
    let (old, new): (Vec<u64>, Vec<u64>) = (0..OPS).map(|i| (blob(i), blob(OPS + i))).unzip();
    for (i, v) in old.iter().enumerate() {
        assert_eq!(map.put(format!("key{i}"), *v).expect("put"), None);
    }
    pmem.psync();
    let key = |i: usize| format!("key{i}");
    type Row<'a> = (&'a str, &'a dyn Fn(usize), u64);
    let rows: [Row; 5] = [
        (
            "map get",
            &|i| assert_eq!(map.get(&key(i)), Some(old[i])),
            0,
        ),
        ("map contains", &|i| assert!(map.contains(&key(i))), 0),
        (
            "map get_value",
            &|i| assert_eq!(map.get_value(&key(i)).map(|p| p.addr()), Some(old[i])),
            0,
        ),
        (
            "map replace",
            &|i| assert_eq!(map.put(key(i), new[i]).expect("put"), Some(old[i])),
            16,
        ),
        (
            "map remove",
            &|i| assert_eq!(map.remove(&key(i)), Some(new[i])),
            8,
        ),
    ];
    for (op, run, pinned) in rows {
        let before = pmem.stats();
        (0..OPS).for_each(run);
        let d = pmem.stats().delta(&before);
        print_cost_row(op, OPS as u64, &d);
        assert_eq!(
            d.bytes_read,
            pinned * OPS as u64,
            "device bytes read by {OPS} x {op}"
        );
    }
    assert!(map.is_empty());
}

/// The same, by commit-group size: a batch of `SETF`s on distinct keys is
/// one group, one transaction, in one log — so the flag line, the length
/// and the 4 fences are paid once per group, and the per-op cost falls
/// towards the op's own 4 log words + value + apply.
#[test]
fn setf_device_cost_per_group_size_is_pinned() {
    let _g = obs_lock(); // device ops feed the process-global obs counters
    const OPS: usize = 64;
    // (ops per group, device bytes read, bytes written, pwbs, fences) of
    // 64 ops: 196 B and 8.0 pwbs per op alone, 184 B and 6.5 in pairs,
    // 175 B and 5.9 in eights (16 B read each; 212, 200 and 191 B with 32
    // B read while the map lookup read the cell and the entry's value
    // reference; 220, 208 and 199 B, the first with 1 `pwb`
    // more, while a value began with a length word; 228, 216 and 207 B while a fresh blob's
    // mini-header was stored twice; 248 / 8.5, 236 / 7.0 and 227 / 6.3 with 52 B
    // read per op instead of 32 and the blobs alone in the pool slots — see
    // `setf_device_cost_per_op_is_pinned`; 288, 276 and 267 B with 92 B
    // read; 368 / 9.5, 356 / 8.0 and 347 / 6.7 with the log read back,
    // two-word heads and entries on the flag's line).
    let pinned = [
        (1, 16 * 64, 180 * 64, 512, 4 * 64),
        (2, 16 * 64, 168 * 64, 416, 4 * 32),
        (8, 16 * 64, 159 * 64, 376, 4 * 8),
    ];
    for (batch, bytes_read, bytes_written, pwbs, fences) in pinned {
        let pool = preloaded_cluster(PmemConfig::crash_sim(32 << 20));
        let shard = pool.kv(0).shard(0);
        let ops: Vec<WriteOp> = (0..OPS).map(|i| setf(i % 32, i % 10, i as u8)).collect();
        // Warm-up, as above: every key's first update may carve a pool block.
        for group in ops.chunks(batch) {
            assert_eq!(commit_writes(&shard.grid, &shard.be, group).groups, 1);
        }
        let before = pool.device_stats();
        for group in ops.chunks(batch) {
            let out = commit_writes(&shard.grid, &shard.be, group);
            assert!(out.results.iter().all(|ok| *ok) && out.groups == 1);
        }
        let d = pool.device_stats().delta(&before);
        assert_eq!(
            (d.bytes_read, d.bytes_written, d.pwbs, d.pfences + d.psyncs),
            (bytes_read, bytes_written, pwbs, fences),
            "device bytes read, bytes written, pwbs and fences of {OPS} SETFs in groups of {batch}"
        );
    }
}

/// What a stored record costs in heap blocks: 1 000 `SET`s of new keys,
/// in groups of 8, on a fresh one-pool cluster, and the blocks the heap
/// handed out over them, net of those it took back — the record, its
/// blobs, its map entry, and its share of map-array growth, pool blocks
/// and the log. `BLOCKS` per 1 000 records of 4 × 64 B and of 10 × 100 B:
/// 1.87 and 5.70 blocks a record, since the map entry holds its key (8 +
/// 8 + 8 B of payload: one 40-B slot); 1.90 and 5.74 (1 904 and 5 737)
/// while the key was a string object of its own beside a 16-B entry (24-B
/// and 40-B slots), the record (40 B and 88 B) a pool slot too; 3.47 and
/// 7.14 (3 471 and 7 137) while each took a whole 256-B block. (The
/// `device_cost_per_op` in the name puts its rows in CI's device-cost
/// summary.)
#[test]
fn footprint_device_cost_per_op_is_pinned() {
    let _g = obs_lock(); // device ops feed the process-global obs counters
    const RECORDS: usize = 1_000;
    const BLOCKS: [(usize, usize, u64); 2] = [(4, 64, 1_871), (10, 100, 5_704)];
    for (fields, size, pinned) in BLOCKS {
        let pool = Cluster::create(1, 1, 16, PmemConfig::crash_sim(32 << 20), true).expect("pool");
        let shard = pool.kv(0).shard(0);
        let heap = shard.rt.heap();
        let before = heap.stats();
        let sets: Vec<WriteOp> = (0..RECORDS)
            .map(|i| {
                WriteOp::Set(Record::ycsb(
                    &format!("key{i:05}"),
                    &vec![vec![7u8; size]; fields],
                ))
            })
            .collect();
        for group in sets.chunks(8) {
            assert!(commit_writes(&shard.grid, &shard.be, group)
                .results
                .iter()
                .all(|ok| *ok));
        }
        let after = heap.stats();
        let blocks = (after.blocks_allocated - before.blocks_allocated)
            - (after.blocks_freed - before.blocks_freed);
        let label = format!("{RECORDS} SETs of {fields} x {size} B");
        println!(
            "device-cost | footprint | {label} | {:.3} heap blocks per record | {} free pool slots",
            blocks as f64 / RECORDS as f64,
            shard.rt.pools().free_slots(),
        );
        assert_eq!(blocks, pinned, "heap blocks held after {label}");
    }
}

/// No write-back on the commit path is wasted: over commit groups holding
/// a `SETF`, a `SET` of a new key and a `DEL`, the sanitizer counts no
/// `pwb` of a clean line and none of a line the committer already had
/// pending (the commit used to write back the flag and the length word of
/// one line separately, and fresh objects once in their constructor and
/// once more itself).
#[test]
fn commit_path_issues_no_redundant_pwbs() {
    let _g = obs_lock(); // device ops feed the process-global obs counters
    let cfg = PmemConfig::crash_sim(32 << 20).with_sanitize(SanitizeMode::Log);
    let pool = preloaded_cluster(cfg);
    let shard = pool.kv(0).shard(0);
    let before = pool.device_stats();
    for round in 0..4usize {
        let batch = [
            setf(round, 3, 0xB0),
            WriteOp::Set(Record::ycsb(
                &format!("fresh{round}"),
                &vec![vec![7u8; 100]; 10],
            )),
            WriteOp::Del(format!("user{:04}", 31 - round)),
        ];
        let out = commit_writes(&shard.grid, &shard.be, &batch);
        assert_eq!(out.results, [true; 3]);
    }
    let d = pool.device_stats().delta(&before);
    assert!(d.pwbs > 0 && d.pfences > 0);
    assert_eq!(d.redundant_pwbs, 0, "wasted write-backs on the commit path");
    assert_eq!(
        d.redundant_fences, 0,
        "back-to-back fences on the commit path"
    );
    assert_eq!(d.san_violations, 0);

    // A group of WRITE entries alone commits from what it holds in DRAM:
    // no device read at all — of the log it has just stored, or of
    // anything else.
    let cell = Proxy::alloc(&shard.rt, FIRST_USER_CLASS_ID, 16);
    cell.pwb();
    cell.validate();
    shard.pmem.psync();
    let stage = |word: u64| shard.rt.fa_stage(|| cell.write_u64(word * 8, 7)).0;
    let group = vec![stage(0), stage(1)];
    let before = pool.device_stats();
    shard.rt.fa_commit_group(group);
    let d = pool.device_stats().delta(&before);
    assert_eq!(
        (d.reads, d.bytes_read),
        (0, 0),
        "device reads of a commit of writes"
    );
    assert_eq!((d.pfences, d.redundant_pwbs), (4, 0));
}
