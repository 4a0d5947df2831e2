//! Figure 7 regenerator: YCSB throughput (workloads A, B, C, D, F) across
//! the four persistent backends (J-PDT, J-PFA, FS, PCJ).
//!
//! Paper result (§5.2): J-PDT ≥ 10.5x FS (3.6x on D), 13.8–22.7x PCJ;
//! J-PFA between J-PDT and FS (J-PDT up to 65 % faster than J-PFA).
//!
//! Flags: `--records` (default 30000 = paper 3M / 100), `--ops` (default
//! 50000), `--out results`.

use std::path::PathBuf;
use std::sync::Arc;

use jnvm_bench::{make_grid, write_csv, Args, BackendKind, GridClient, Table};
use jnvm_ycsb::{run_load, run_workload, Workload};

fn main() {
    let args = Args::parse();
    let records: u64 = args.get_or("records", 30_000);
    let ops: u64 = args.get_or("ops", 50_000);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));
    let optane = !args.has("no-latency");

    println!("Figure 7: YCSB across backends ({records} records, {ops} ops/workload)");
    let mut table = Table::new(&[
        "workload",
        "J-PDT",
        "J-PFA",
        "FS",
        "PCJ",
        "J-PDT/FS",
        "J-PDT/PCJ",
    ]);
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let mut tputs = Vec::new();
        for kind in BackendKind::FIGURE7 {
            // Paper: J-NVM backends run with caching disabled; the external
            // designs cache 10 %.
            let ratio = match kind {
                BackendKind::Jpdt | BackendKind::Jpfa | BackendKind::Pcj => 0.0,
                _ => 0.1,
            };
            let setup = make_grid(kind, records * 2, 10, 100, ratio, optane);
            let spec = w.spec(records, ops);
            run_load(&spec, |_| GridClient::new(Arc::clone(&setup.grid)));
            let report = run_workload(&spec, |_| GridClient::new(Arc::clone(&setup.grid)));
            tputs.push(report.throughput);
        }
        let fmt = |x: f64| format!("{:.1} Kops/s", x / 1e3);
        table.row(&[
            format!("YCSB-{}", w.label()),
            fmt(tputs[0]),
            fmt(tputs[1]),
            fmt(tputs[2]),
            fmt(tputs[3]),
            format!("{:.1}x", tputs[0] / tputs[2]),
            format!("{:.1}x", tputs[0] / tputs[3]),
        ]);
        rows.push(format!(
            "{},{:.0},{:.0},{:.0},{:.0}",
            w.label(),
            tputs[0],
            tputs[1],
            tputs[2],
            tputs[3]
        ));
    }
    table.print();
    let path = write_csv(
        &out,
        "fig7_ycsb_backends",
        "workload,jpdt,jpfa,fs,pcj",
        &rows,
    );
    println!("wrote {}", path.display());
}
