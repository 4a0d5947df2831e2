//! The benchmark's own checks, on the quick size (one repetition, a tenth
//! of the preload, the windows and the replay): the binary reports what
//! `BENCHMARK.json` lists, the same seed gives the same inputs and the
//! same single-threaded counts, and a wrong expectation fails the audit.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

use std::path::PathBuf;
use std::process::Command;

use json::Json;

/// Run the benchmark binary; returns `(exit code, stdout)`.
fn bench(test: &str, args: &[&str]) -> (i32, String) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let out = Command::new(env!("CARGO_BIN_EXE_jnvm-benchmark"))
        .args(args)
        .arg("--quick")
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run jnvm-benchmark");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn result_line(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().unwrap_or_default()).expect("the last line is the result")
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn arr(j: &Json) -> &[Json] {
    match j {
        Json::Arr(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn text(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn names(list: &Json) -> Vec<&str> {
    arr(list)
        .iter()
        .map(|m| text(m.get("name").expect("name")))
        .collect()
}

#[test]
fn benchmark_json_and_the_metric_tables_agree() {
    let manifest = manifest();
    let row = |m: &Json, key: &str| text(m.get(key).expect("string field")).to_string();
    let listed: Vec<_> = arr(manifest.get("end_to_end").expect("end_to_end"))
        .iter()
        .map(|m| {
            (
                row(m, "name"),
                row(m, "unit"),
                row(m, "better"),
                m.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect();
    let table: Vec<_> = metrics::END_TO_END
        .iter()
        .map(|&(n, u, b, x)| (n.to_string(), u.to_string(), b.to_string(), x))
        .collect();
    assert_eq!(listed, table);
    let listed: Vec<_> = arr(manifest.get("per_layer").expect("per_layer"))
        .iter()
        .map(|m| (row(m, "name"), row(m, "unit"), row(m, "better")))
        .collect();
    let table: Vec<_> = metrics::PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(listed, table);
    assert!(listed.len() <= 128 && names(manifest.get("workloads").unwrap()).len() == 4);
}

#[test]
fn every_listed_metric_is_reported_for_every_workload() {
    let manifest = manifest();
    for workload in names(manifest.get("workloads").expect("workloads")) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (code, stdout) = bench(
                "reported",
                &["--workload", workload, "--seed", "7", "--trace", trace],
            );
            assert_eq!(code, 0, "{workload} --trace {trace} failed:\n{stdout}");
            let result = result_line(&stdout);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let reported = result.get("metrics").expect("metrics");
            for m in arr(manifest.get(list).unwrap()) {
                let name = text(m.get("name").unwrap());
                let got = reported
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: no {name}"));
                assert_eq!(got.get("unit"), m.get("unit"), "{workload}: unit of {name}");
                let v = got.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if list == "end_to_end" {
                    assert!(
                        v > 0.0,
                        "{workload}: gated metric {name} = {v} must never be 0"
                    );
                }
            }
            let Json::Obj(reported_map) = reported else {
                panic!("metrics is not an object")
            };
            assert_eq!(reported_map.len(), arr(manifest.get(list).unwrap()).len());
            if trace == "1" {
                let conserved = reported
                    .get("obs.label_sum_minus_device")
                    .and_then(|m| m.get("value"));
                assert_eq!(
                    conserved,
                    Some(&Json::Num(0.0)),
                    "{workload}: labels do not add up to the device"
                );
                if workload == "ycsb_c" {
                    for zero in [
                        "pmem.pwbs_per_acked_write",
                        "pmem.fences_per_acked_write",
                        "server.batch_size_mean",
                    ] {
                        assert_eq!(
                            reported.get(zero).unwrap().get("value"),
                            Some(&Json::Num(0.0)),
                            "ycsb_c: {zero}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn same_seed_gives_the_same_stream_and_the_same_replay_counts() {
    // The `# replay:` line carries the op-stream digest and the replay's
    // device counts; its tail is the trace path. The batch size is pinned:
    // by default it follows the traced load, which is multi-threaded.
    let replay_line = |seed: &str| {
        let args = [
            "--workload",
            "insert_delete_2x2",
            "--seed",
            seed,
            "--trace",
            "1",
            "--replay-batch",
            "4",
        ];
        let (code, stdout) = bench("replay", &args);
        assert_eq!(code, 0, "{stdout}");
        let line = stdout
            .lines()
            .find(|l| l.starts_with("# replay:"))
            .expect("replay line")
            .to_string();
        line.split(" -> ").next().unwrap().to_string()
    };
    let first = replay_line("11");
    assert!(
        first.contains("digest=") && first.contains("pwbs=") && first.contains("bytes_written=")
    );
    assert_eq!(first, replay_line("11"));
    assert_ne!(first, replay_line("12"));
}

#[test]
fn a_corrupted_expectation_fails_the_audit() {
    let (code, stdout) = bench(
        "corrupt",
        &[
            "--workload",
            "update_only",
            "--seed",
            "3",
            "--corrupt-audit",
        ],
    );
    assert_ne!(code, 0, "a wrong expected value went unnoticed:\n{stdout}");
    let result = result_line(&stdout);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(stdout.contains("# FAILURE:"));
}
