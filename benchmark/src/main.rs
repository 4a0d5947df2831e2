//! `jnvm-benchmark`: the repo's measured baseline. See `benchmark/README.md`.
//!
//! ```text
//! jnvm-benchmark --workload ycsb_a [--seed 42] [--seconds 9] [--trace 0|1] [--replay-batch N]
//! jnvm-benchmark --workload all [--out-dir benchmark/out]      # -> <out-dir>/results.json
//! jnvm-benchmark --compare set1.json set2.json
//! ```
//!
//! A single workload prints its metrics and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`); `all` runs every workload
//! untraced and traced, each in a process of its own.

mod audit;
mod client;
mod json;
mod layers;
mod metrics;
mod rig;
mod run;
mod suite;
mod workload;

use std::path::PathBuf;

use json::Json;
use run::Size;
use workload::Workload;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    corrupt_audit: bool,
    replay_batch: Option<usize>,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 9.0,
        trace: false,
        quick: false,
        corrupt_audit: false,
        replay_batch: None,
        out_dir: "benchmark/out".into(),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--quick" => a.quick = true,
            "--corrupt-audit" => a.corrupt_audit = true,
            "--replay-batch" => {
                a.replay_batch = Some(val()?.parse().map_err(|e| format!("--replay-batch: {e}"))?)
            }
            "--out-dir" => a.out_dir = val()?.into(),
            "--compare" => a.compare = Some((val()?.into(), val()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", a.seconds));
    }
    Ok(a)
}

/// Run one workload in this process. Returns the exit code.
fn run_one(args: &Args, w: &Workload) -> i32 {
    // `--seconds` is the measured time of the run: three windows. The
    // quick size (test suite) is a tenth of everything, one repetition.
    let shrink = if args.quick { 10 } else { 1 };
    let size = Size {
        reps: if args.quick { 1 } else { 3 },
        window_s: args.seconds / 3.0 / shrink as f64,
        warmup_s: 0.5 / shrink as f64,
        replay_ops: 20_000 / shrink,
        replay_batch: args.replay_batch,
    };
    println!(
        "# {} seed={} trace={} cores={} conns={} pipeline={} reps={} window={:.2}s of ops — wall clock is this sandbox's, \
         under a simulator with Optane-like latency injected; it is not a device's",
        w.name,
        w.seed,
        u8::from(args.trace),
        rig::nproc(),
        run::CONNS,
        client::PIPELINE,
        if args.trace { 1 } else { size.reps },
        size.window_s
    );
    let (outcome, table): (_, Vec<(&str, &str)>) = if args.trace {
        match run::traced(w, &size, &args.out_dir) {
            Ok(o) => (o, metrics::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()),
            Err(e) => {
                eprintln!("jnvm-benchmark: cannot write the trace: {e}");
                return 2;
            }
        }
    } else {
        (
            run::end_to_end(w, &size, args.corrupt_audit),
            metrics::END_TO_END.iter().map(|m| (m.0, m.1)).collect(),
        )
    };
    let mut reported = Vec::new();
    for (name, unit) in table {
        let (value, samples) = &outcome.metrics[name];
        let (lo, hi) = samples
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        println!(
            "# {name} = {value:.4} {unit} (min {lo:.4}, max {hi:.4}, n={})",
            samples.len()
        );
        reported.push((
            name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(reported)),
    ]);
    println!("{}", result.render());
    i32::from(outcome.failed != 0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jnvm-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let code = if let Some((a, b)) = &args.compare {
        suite::compare(a, b)
    } else if args.workload == "all" {
        suite::run_all(&args)
    } else if let Some(w) = Workload::by_name(&args.workload, args.seed, args.quick) {
        run_one(&args, &w)
    } else {
        eprintln!(
            "jnvm-benchmark: unknown workload {:?} (one of {:?}, or all)",
            args.workload,
            workload::NAMES
        );
        2
    };
    std::process::exit(code);
}
