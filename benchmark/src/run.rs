//! One run of one workload: the untraced repetitions behind the end-to-end
//! metrics, or the traced run behind the per-layer ones.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use jnvm::RecoveryReport;
use jnvm_obs::{HistogramSummary, MetricsSnapshot, ObsMode};
use jnvm_pmem::StatsSnapshot;
use jnvm_server::ServerStats;

use crate::audit::Ledger;
use crate::client::{Client, Phase};
use crate::layers;
use crate::metrics::OBS_LABELS;
use crate::rig::{self, Rig};
use crate::workload::Workload;

/// Client connections = client threads. Never more than the cores.
pub const CONNS: usize = 2;

/// How long and how large one run is.
#[derive(Clone, Copy)]
pub struct Size {
    /// Fresh-pool repetitions; every end-to-end metric is their median.
    pub reps: usize,
    /// Seconds of measured load per repetition, at the speed the
    /// workload's op rate was sized on: the window sends
    /// `window_s × Workload::ops_per_second` ops.
    pub window_s: f64,
    /// The same for the load before the measured window, unmeasured: it
    /// fills the FA log pool, the allocator's free lists and the sockets'
    /// buffers.
    pub warmup_s: f64,
    /// Ops of the workload's stream pushed through the layer replay.
    pub replay_ops: u64,
    /// Writes per commit in the replay. `None` = the mean batch the traced
    /// load's committers formed, which varies a little from run to run;
    /// pin it to repeat a replay's device counts exactly.
    pub replay_batch: Option<usize>,
}

/// What the server and the device did during a traced window.
struct Traced {
    phase: Phase,
    server: (ServerStats, ServerStats),
    charged_ns: u64,
    /// Device work between switching tracing on and the server's exit.
    device: StatsSnapshot,
    labels: (MetricsSnapshot, MetricsSnapshot),
    ack: HistogramSummary,
}

/// One repetition on fresh pools.
struct Rep {
    setup_s: f64,
    /// RSS high-water mark before the simulated power failure, whose
    /// cache rebuild touches every page of every pool.
    rss_mb: f64,
    phase: Phase,
    /// Device work of the measured window, all devices.
    device: StatsSnapshot,
    traced: Option<Traced>,
    recovery_s: f64,
    reports: Vec<RecoveryReport>,
    checked: u64,
    failed: u64,
    first_error: Option<String>,
}

fn run_rep(w: &Workload, size: &Size, trace: bool, corrupt: bool) -> Rep {
    let t0 = Instant::now();
    let rig = Rig::format_and_preload(w);
    let server = rig.start_server();
    let setup_s = t0.elapsed().as_secs_f64();

    let mut client = Client::connect(server.addr(), CONNS).expect("connect to the server");
    let mut ledger = Ledger::new(w);
    ledger.corrupt = corrupt;
    let (mut failed, mut first_error) = (0, None);
    // Windows are op counts, so a window leaves the same dataset behind
    // in every run; the cap only matters to a build several times slower.
    let mut load = |client: &mut Client, secs: f64| {
        let phase = client.run_phase(
            w,
            (secs * w.ops_per_second as f64) as u64,
            Duration::from_secs_f64(3.0 * secs),
        );
        ledger.absorb(w, &phase);
        failed += phase.errors + phase.timeouts();
        first_error = first_error.take().or(phase.first_error.clone());
        phase
    };
    load(&mut client, size.warmup_s);
    let before = rig.device_stats();
    let phase = load(&mut client, size.window_s);
    let device = rig.device_stats().delta(&before);

    // Between drained phases the committers are idle, so switching the
    // observability mode here splits the counters cleanly.
    let tracing = trace.then(|| {
        jnvm_obs::set_mode(ObsMode::Log);
        let at_switch = (
            rig.device_stats(),
            server.stats(),
            jnvm_obs::metrics_snapshot(),
        );
        let charged: u64 = server.committer_charged_ns().iter().sum();
        let traced = load(&mut client, size.window_s);
        let charged_ns = server.committer_charged_ns().iter().sum::<u64>() - charged;
        (at_switch, traced, server.stats(), charged_ns)
    });

    let (mut checked, bad, audit_error) = client.audit(w, &ledger);
    failed += bad;
    first_error = first_error.or(audit_error);
    let rss_mb = rig::peak_rss_mb();
    drop(client);
    // Exiting server threads hand their unclaimed fence counts to the
    // `unattributed` label: only now do the labels add up to the device.
    server.shutdown();
    let traced = tracing.map(|((dev0, stats0, labels0), phase, stats1, charged_ns)| {
        jnvm_obs::set_mode(ObsMode::Off);
        let labels1 = jnvm_obs::metrics_snapshot();
        Traced {
            phase,
            server: (stats0, stats1),
            charged_ns,
            device: rig.device_stats().delta(&dev0),
            ack: labels1.hist_summary("commit-ack").unwrap_or_default(),
            labels: (labels0, labels1),
        }
    });

    // The paper's restart path: lose everything unflushed, reopen, and
    // require every acknowledged write back. Workloads that create keys
    // are audited in full, the others on the ledger's sample.
    let (rig, reports, recovery) = rig.crash_and_recover();
    let keys = w.key_space(ledger.issued);
    let audited: Vec<u64> = if keys > w.records {
        (0..keys).collect()
    } else {
        ledger.sample.clone()
    };
    for replica in 0..rig.replicas() {
        let kv = rig.kv(replica);
        for &key in &audited {
            checked += 1;
            if let Err(e) = ledger.check(w, key, kv.read(&w.key_name(key)).as_ref()) {
                failed += 1;
                first_error.get_or_insert(format!("after recovery, replica {replica}: {e}"));
            }
        }
        if let Some(expected) = ledger.expected_records(w) {
            checked += 1;
            if kv.records() as u64 != expected {
                failed += 1;
                first_error.get_or_insert(format!(
                    "after recovery, replica {replica}: {} records, not {expected}",
                    kv.records()
                ));
            }
        }
    }
    Rep {
        setup_s,
        rss_mb,
        phase,
        device,
        traced,
        recovery_s: recovery.as_secs_f64(),
        reports,
        checked,
        failed,
        first_error,
    }
}

/// Exact percentile of sorted values: the smallest one with at least `q`
/// of the samples at or below it. 0 when there are none.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Sorted latencies (ns) of a phase's samples that `keep` selects.
fn latencies(phase: &Phase, keep: impl Fn(bool) -> bool) -> Vec<u64> {
    let mut l: Vec<u64> = phase
        .samples
        .iter()
        .filter(|s| keep(s.is_read))
        .map(|s| s.latency_ns)
        .collect();
    l.sort_unstable();
    l
}

/// A window's completions are cut into slices of this length.
const SLICE: Duration = Duration::from_millis(250);

/// The sorted latencies (ns) of each whole slice of the window.
fn slices(phase: &Phase) -> Vec<Vec<u64>> {
    let whole = (phase.elapsed.as_nanos() / SLICE.as_nanos()).max(1) as usize;
    let mut out = vec![Vec::new(); whole];
    for s in &phase.samples {
        if let Some(slice) = out.get_mut((s.done_ns as u128 / SLICE.as_nanos()) as usize) {
            slice.push(s.latency_ns);
        }
    }
    out.iter_mut().for_each(|l| l.sort_unstable());
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// What a run hands back: the metrics (one value per repetition), and the
/// correctness tally.
pub struct Outcome {
    /// name → (the value reported, the samples it was taken from).
    pub metrics: BTreeMap<String, (f64, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
}

fn tally(reps: &[Rep]) -> (u64, u64) {
    for r in reps {
        let acked = r.phase.acked_writes;
        println!(
            "# rep: replies={} acked_writes={} fences/acked={:.4} pwbs/acked={:.4} written/user_byte={:.4} device_reads/op={:.2} \
             window={:.3}s setup={:.3}s recovery={:.3}s checked={} failed={}",
            r.phase.replies(),
            acked,
            ratio(r.device.pfences + r.device.psyncs, acked),
            ratio(r.device.pwbs, acked),
            ratio(r.device.bytes_written, r.phase.write_user_bytes),
            ratio(r.device.reads, r.phase.replies()),
            r.phase.elapsed.as_secs_f64(),
            r.setup_s,
            r.recovery_s,
            r.phase.issued + r.checked,
            r.failed,
        );
        if let Some(e) = &r.first_error {
            println!("# FAILURE: {e}");
        }
    }
    (
        reps.iter().map(|r| r.phase.issued + r.checked).sum(),
        reps.iter().map(|r| r.failed).sum(),
    )
}

/// The end-to-end run: `size.reps` untraced repetitions.
pub fn end_to_end(w: &Workload, size: &Size, corrupt: bool) -> Outcome {
    let reps: Vec<Rep> = (0..size.reps)
        .map(|_| run_rep(w, size, false, corrupt))
        .collect();
    let mut metrics = BTreeMap::new();
    // Interference only ever slows the program, and on this sandbox it
    // comes in stretches of seconds to minutes (README, "Steadiness"): the
    // median slice moved by up to 30 % between identical runs when the
    // second-best slice moved by 14 %. So throughput is the 95th-percentile
    // 250 ms slice of the run's windows: its sustained rate when left alone.
    let rates: Vec<f64> = reps
        .iter()
        .flat_map(|r| slices(&r.phase))
        .map(|l| l.len() as f64 / SLICE.as_secs_f64())
        .collect();
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);
    metrics.insert(
        "throughput_ops_s".to_string(),
        (sorted[sorted.len() * 95 / 100], rates),
    );
    let mut median_of_reps = |name: &str, f: &dyn Fn(&Rep) -> f64| {
        let values: Vec<f64> = reps.iter().map(f).collect();
        metrics.insert(name.to_string(), (median(values.clone()), values));
    };
    median_of_reps("nvmm_bytes_per_user_byte", &|r| {
        ratio(
            r.device.bytes_read + r.device.bytes_written,
            r.phase.user_bytes,
        )
    });
    median_of_reps("setup_s", &|r| r.setup_s);
    // The high-water mark never falls, and a power failure maps whole
    // pools: only the first repetition's reading is the load's own.
    metrics.insert(
        "peak_rss_mb".to_string(),
        (reps[0].rss_mb, vec![reps[0].rss_mb]),
    );
    let (attempted, failed) = tally(&reps);
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

/// The traced run: one repetition with an untraced and a traced window on
/// the same server, then the layer replay and the layer probe.
pub fn traced(w: &Workload, size: &Size, out_dir: &Path) -> std::io::Result<Outcome> {
    let rep = run_rep(w, size, true, false);
    let t = rep.traced.as_ref().expect("traced repetition");
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };

    // client: the untraced window, split by op type.
    let (reads, writes) = (latencies(&rep.phase, |r| r), latencies(&rep.phase, |r| !r));
    put("client.throughput_ops_s", rep.phase.throughput());
    let all = latencies(&rep.phase, |_| true);
    put("client.op_p50_us", percentile(&all, 0.50) / 1e3);
    put("client.op_p99_us", percentile(&all, 0.99) / 1e3);
    for (class, l) in [("read", &reads), ("write", &writes)] {
        for (tag, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
            put(&format!("client.{class}_{tag}_us"), percentile(l, q) / 1e3);
        }
    }
    let elapsed_ns = rep.phase.elapsed.as_nanos() as u64;
    let late = rep
        .phase
        .samples
        .iter()
        .filter(|s| s.done_ns > elapsed_ns - elapsed_ns / 5)
        .count();
    put(
        "client.last_fifth_throughput_ratio",
        5.0 * late as f64 / rep.phase.replies().max(1) as f64,
    );

    // pmem: device work per unit of user work in the untraced window.
    let d = &rep.device;
    put(
        "pmem.fences_per_acked_write",
        ratio(d.pfences + d.psyncs, rep.phase.acked_writes),
    );
    put(
        "pmem.pwbs_per_acked_write",
        ratio(d.pwbs, rep.phase.acked_writes),
    );
    put(
        "pmem.bytes_written_per_user_byte",
        ratio(d.bytes_written, rep.phase.write_user_bytes),
    );
    put("pmem.reads_per_op", ratio(d.reads, rep.phase.replies()));

    // server, in situ: the traced window.
    let (s0, s1) = &t.server;
    let acked = s1.acked_writes - s0.acked_writes;
    let resolved = acked + s1.nacked_writes - s0.nacked_writes;
    let (groups, batches) = (s1.groups - s0.groups, s1.batches - s0.batches);
    put("server.ops_per_group", ratio(resolved, groups));
    put("server.groups_per_batch", ratio(groups, batches));
    put("server.batch_size_mean", ratio(resolved, batches));
    put("server.ack_p50_us", t.ack.p50_ns as f64 / 1e3);
    put("server.ack_p99_us", t.ack.p99_ns as f64 / 1e3);
    let client_p50 = percentile(&latencies(&t.phase, |r| r == (acked == 0)), 0.50);
    put(
        "server.client_minus_ack_p50_us",
        (client_p50 - t.ack.p50_ns as f64) / 1e3,
    );
    put(
        "server.committer_modeled_ns_per_write",
        ratio(t.charged_ns, acked),
    );
    put("server.repl_sent", (s1.repl_sent - s0.repl_sent) as f64);
    put("server.repl_acked", (s1.repl_acked - s0.repl_acked) as f64);
    put(
        "harness.obs_log_overhead_pct",
        100.0 * (1.0 - t.phase.throughput() / rep.phase.throughput()),
    );

    // obs: which persist-ordering label paid each fence and write-back.
    let delta = |name: &str, pick: &dyn Fn(&jnvm_obs::LabelCounts) -> u64| {
        let of = |snap: &MetricsSnapshot| snap.label(name).map_or(0, pick);
        of(&t.labels.1) - of(&t.labels.0)
    };
    let fences_of = |l: &jnvm_obs::LabelCounts| l.pfences + l.psyncs;
    let pwbs_of = |l: &jnvm_obs::LabelCounts| l.pwbs;
    let (mut named_fences, mut named_pwbs) = (0, 0);
    for label in OBS_LABELS {
        let registry_name = if label == "unattributed" {
            jnvm_obs::UNATTRIBUTED
        } else {
            label
        };
        let (f, p) = (
            delta(registry_name, &fences_of),
            delta(registry_name, &pwbs_of),
        );
        named_fences += f;
        named_pwbs += p;
        put(&format!("obs.fences.{label}"), ratio(f, acked));
        put(&format!("obs.pwbs.{label}"), ratio(p, acked));
    }
    let all_fences = t.labels.1.fences() - t.labels.0.fences();
    let all_pwbs = t.labels.1.pwbs() - t.labels.0.pwbs();
    put("obs.fences.other", ratio(all_fences - named_fences, acked));
    put("obs.pwbs.other", ratio(all_pwbs - named_pwbs, acked));
    let device_total = t.device.pwbs + t.device.pfences + t.device.psyncs;
    put(
        "obs.label_sum_minus_device",
        (all_fences + all_pwbs) as f64 - device_total as f64,
    );

    // core: where the restart went, slowest pool per stage.
    let slowest = |f: &dyn Fn(&RecoveryReport) -> Duration| {
        rep.reports
            .iter()
            .map(f)
            .max()
            .unwrap_or_default()
            .as_secs_f64()
    };
    put("core.recovery_wall_s", rep.recovery_s);
    put("core.recovery_replay_s", slowest(&|r| r.log_time));
    put("core.recovery_mark_s", slowest(&|r| r.mark_time));
    put("core.recovery_sweep_s", slowest(&|r| r.sweep_time));
    put(
        "core.recovery_live_objects",
        rep.reports.iter().map(|r| r.live_objects).sum::<u64>() as f64,
    );

    // The layers from outside: probe first (its self-costs price the
    // replay's device counts), then the workload's own op stream at the
    // batch size the server formed.
    layers::probe(&mut m);
    let batch = size
        .replay_batch
        .unwrap_or(ratio(resolved, batches).round() as usize)
        .clamp(1, 64);
    std::fs::create_dir_all(out_dir)?;
    let trace_file = out_dir.join(format!("trace.{}.jsonl", w.name));
    let replay = layers::replay(w, size.replay_ops, batch, &trace_file)?;
    let rd = &replay.device;
    println!(
        "# replay: ops={} batch={batch} digest={:016x} pwbs={} fences={} bytes_written={} device_reads={} device_reads_per_get={} spans={} -> {}",
        replay.ops,
        w.digest(replay.ops),
        rd.pwbs,
        rd.pfences + rd.psyncs,
        rd.bytes_written,
        rd.reads,
        ratio(replay.get_device_reads, replay.gets),
        replay.spans,
        trace_file.display()
    );
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    for (layer, metric) in [
        ("server.proto", "replay.server_proto_ns_per_op"),
        ("kvstore.sharded", "replay.kvstore_sharded_ns_per_op"),
        ("kvstore.grid", "replay.kvstore_grid_ns_per_op"),
        ("kvstore.codec", "replay.kvstore_codec_ns_per_op"),
        ("kvstore.group", "replay.kvstore_group_ns_per_op"),
        ("harness", "harness.gen_encode_ns_per_op"),
    ] {
        put(
            metric,
            replay.layer_ns_per_op.get(layer).copied().unwrap_or(0.0),
        );
    }
    put(
        "replay.device_reads_per_get",
        ratio(replay.get_device_reads, replay.gets),
    );
    let wall = 1e9 / rep.phase.throughput();
    put(
        "harness.layers_sum_ns_per_op",
        replay.layers_sum_ns_per_op(),
    );
    put("harness.wall_ns_per_op", wall);
    put(
        "harness.unattributed_share",
        1.0 - replay.layers_sum_ns_per_op() / wall,
    );
    put("harness.replay_ops", replay.ops as f64);
    put("harness.spans_written", replay.spans as f64);
    put(
        "pmem.modeled_ns_per_op",
        replay.charged_ns as f64 / replay.ops as f64,
    );
    let self_cost = |counter: u64, primitive: &str| counter as f64 * m[primitive];
    let sim_self = self_cost(rd.reads, "pmem.read_u64_ns")
        + self_cost(rd.writes, "pmem.write_u64_ns")
        + self_cost(rd.pwbs, "pmem.pwb_ns")
        + self_cost(rd.pfences + rd.psyncs, "pmem.pfence_ns");
    m.insert(
        "pmem.sim_self_ns_per_op".to_string(),
        sim_self / replay.ops as f64,
    );

    let (attempted, failed) = tally(std::slice::from_ref(&rep));
    Ok(Outcome {
        metrics: m.into_iter().map(|(k, v)| (k, (v, vec![v]))).collect(),
        attempted,
        failed,
    })
}
