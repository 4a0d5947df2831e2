//! Figure 9 regenerator: sensitivity of J-PDT vs FS to (a) cache ratio,
//! (b) record count, (c) field count and (d) record size — mean YCSB-A
//! read and update latencies.
//!
//! Paper result: J-PDT is nearly flat everywhere; FS reads improve sharply
//! with cache ratio (32.5 µs → 0.8 µs) and degrade by orders of magnitude
//! with record composition/size.
//!
//! Flags: `--part a|b|c|d|all` (default all), `--ops` (default 20000),
//! `--out results`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use jnvm_bench::{make_grid, write_csv, Args, BackendKind, GridClient, Table};
use jnvm_ycsb::{run_load, run_workload, Workload};

struct Point {
    label: String,
    jpdt_read_us: f64,
    jpdt_update_us: f64,
    fs_read_us: f64,
    fs_update_us: f64,
}

fn run_point(
    label: &str,
    records: u64,
    field_count: usize,
    field_len: usize,
    cache_ratio: f64,
    ops: u64,
    optane: bool,
) -> Point {
    let mut vals = Vec::new();
    for kind in [BackendKind::Jpdt, BackendKind::Fs] {
        let ratio = if kind == BackendKind::Jpdt {
            0.0
        } else {
            cache_ratio
        };
        let setup = make_grid(kind, records, field_count, field_len, ratio, optane);
        let mut spec = Workload::A.spec(records, ops);
        spec.field_count = field_count;
        spec.field_len = field_len;
        run_load(&spec, |_| GridClient::new(Arc::clone(&setup.grid)));
        let report = run_workload(&spec, |_| GridClient::new(Arc::clone(&setup.grid)));
        vals.push((report.reads.mean() / 1e3, report.updates.mean() / 1e3));
    }
    Point {
        label: label.to_string(),
        jpdt_read_us: vals[0].0,
        jpdt_update_us: vals[0].1,
        fs_read_us: vals[1].0,
        fs_update_us: vals[1].1,
    }
}

fn emit(part: &str, title: &str, points: Vec<Point>, out: &Path) {
    println!("\nFigure 9{part}: {title}");
    let mut table = Table::new(&[
        "point",
        "read J-PDT",
        "read FS",
        "update J-PDT",
        "update FS",
    ]);
    let mut rows = Vec::new();
    for p in &points {
        let us = |x: f64| format!("{x:.1} us");
        table.row(&[
            p.label.clone(),
            us(p.jpdt_read_us),
            us(p.fs_read_us),
            us(p.jpdt_update_us),
            us(p.fs_update_us),
        ]);
        rows.push(format!(
            "{},{:.2},{:.2},{:.2},{:.2}",
            p.label, p.jpdt_read_us, p.fs_read_us, p.jpdt_update_us, p.fs_update_us
        ));
    }
    table.print();
    let path = write_csv(
        out,
        &format!("fig9{part}_sensitivity"),
        "point,jpdt_read_us,fs_read_us,jpdt_update_us,fs_update_us",
        &rows,
    );
    println!("wrote {}", path.display());
}

fn main() {
    let args = Args::parse();
    let part = args.get_or("part", "all".to_string());
    let ops: u64 = args.get_or("ops", 20_000);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));
    let optane = !args.has("no-latency");

    if part == "a" || part == "all" {
        // (a) cache ratio sweep, fixed 10x100B records.
        let records = args.get_or("records", 20_000u64);
        let points = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
            .iter()
            .map(|r| {
                run_point(
                    &format!("{:.0}%", r * 100.0),
                    records,
                    10,
                    100,
                    *r,
                    ops,
                    optane,
                )
            })
            .collect();
        emit("a", "cache ratio", points, &out);
    }
    if part == "b" || part == "all" {
        // (b) record count sweep (paper: 1e4..1e7, scaled /100).
        let points = [100u64, 1_000, 10_000, 100_000]
            .iter()
            .map(|n| run_point(&format!("{n}"), *n, 10, 100, 0.1, ops, optane))
            .collect();
        emit("b", "number of records", points, &out);
    }
    if part == "c" || part == "all" {
        // (c) field count sweep at constant dataset size.
        let dataset = args.get_or("dataset-bytes", 10_000_000u64);
        let points = [10usize, 100, 1000]
            .iter()
            .map(|fc| {
                let records = (dataset / (*fc as u64 * 100)).max(10);
                run_point(&format!("{fc}"), records, *fc, 100, 0.1, ops, optane)
            })
            .collect();
        emit("c", "fields per record", points, &out);
    }
    if part == "d" || part == "all" {
        // (d) record size sweep at constant dataset size (1KB..1MB).
        let dataset = args.get_or("dataset-bytes", 10_000_000u64);
        let points = [(1u64, "1KB"), (10, "10KB"), (100, "100KB"), (1000, "1MB")]
            .iter()
            .map(|(kb, label)| {
                let field_len = (*kb as usize) * 100;
                let records = (dataset / (kb * 1000)).max(4);
                run_point(label, records, 10, field_len, 0.1, ops.min(4000), optane)
            })
            .collect();
        emit("d", "record size", points, &out);
    }
}
