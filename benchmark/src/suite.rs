//! The whole set: every workload, untraced then traced, each in a process
//! of its own (so one workload's pools do not count against the next one's
//! peak RSS), gathered into one results file; and the comparison of two
//! such files against the bounds.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::workload::NAMES;
use crate::Args;

/// Run one workload in a child process, echo its report, return its final
/// JSON line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--out-dir")
    .arg(&args.out_dir)
    .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() {
        return Err(format!("{workload}: exited with {}", out.status));
    }
    Ok(result)
}

pub fn run_all(args: &Args) -> i32 {
    let mut workloads = Vec::new();
    let mut failures = 0;
    for name in NAMES {
        let mut entry = Vec::new();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            match child(args, name, trace) {
                Ok(result) => entry.push((key, result)),
                Err(e) => {
                    eprintln!("jnvm-benchmark: {e}");
                    failures += 1;
                }
            }
        }
        workloads.push((name, Json::obj(entry)));
    }
    let results = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::obj(workloads)),
    ]);

    println!(
        "\n{:<26}{}",
        "end to end",
        NAMES.map(|n| format!("{n:>20}")).concat()
    );
    for (metric, unit, ..) in END_TO_END {
        let row = NAMES.map(|w| match value(&results, w, metric) {
            Some(v) => format!("{v:>20.4}"),
            None => format!("{:>20}", "-"),
        });
        println!("{:<26}{}", format!("{metric} [{unit}]"), row.concat());
    }
    let out = args.out_dir.join("results.json");
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&out, results.render()));
    match written {
        Ok(()) => println!("\nresults: {}", out.display()),
        Err(e) => {
            eprintln!("jnvm-benchmark: cannot write {}: {e}", out.display());
            failures += 1;
        }
    }
    i32::from(failures != 0)
}

fn value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compare two result files of the same build: every gated metric of
/// every workload must agree within its bound. Returns the exit code.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .unwrap_or_else(|e| {
                eprintln!("jnvm-benchmark: {}: {e}", p.display());
                std::process::exit(2);
            })
    };
    let (ra, rb) = (load(a), load(b));
    let mut disagreements = 0;
    println!(
        "{:<20}{:<26}{:>16}{:>16}{:>10}{:>8}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in NAMES {
        for (metric, _, _, bound) in END_TO_END {
            let (Some(x), Some(y)) = (value(&ra, w, metric), value(&rb, w, metric)) else {
                println!("{w:<20}{metric:<26} missing from one of the files");
                disagreements += 1;
                continue;
            };
            let diff = (y - x).abs() / x.abs().min(y.abs());
            let verdict = if diff > bound { "  DISAGREE" } else { "" };
            disagreements += u32::from(diff > bound);
            println!(
                "{w:<20}{metric:<26}{x:>16.4}{y:>16.4}{:>9.2}%{:>7.0}%{verdict}",
                100.0 * diff,
                100.0 * bound
            );
        }
    }
    println!("{disagreements} gated metric(s) differ by more than their bound");
    i32::from(disagreements != 0)
}
