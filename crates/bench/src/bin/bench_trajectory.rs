//! The benchmark's trajectory: reads every `BENCH_<n>.json` in `--dir`
//! (default `.`), prints each workload's end-to-end metrics and exact
//! counts across the files, and exits 1 when a gated metric in the newest
//! file is worse than in the one before it by more than its bound (see
//! `jnvm_bench::trajectory::GATED`).
//! It reads the committed files and runs no benchmark.
//!
//! Flags: `--dir .`.

use std::path::PathBuf;

use jnvm_bench::trajectory::{load_dir, regressions, report};
use jnvm_bench::Args;

fn main() {
    let args = Args::parse();
    let dir: PathBuf = args.get_or("dir", PathBuf::from("."));
    let files = load_dir(&dir).unwrap_or_else(|e| {
        eprintln!("bench_trajectory: {e}");
        std::process::exit(2);
    });
    print!("{}", report(&files));
    let [.., prev, newest] = &files[..] else {
        return;
    };
    let worse = regressions(prev, newest);
    for line in &worse {
        println!("WORSE {line}");
    }
    if !worse.is_empty() {
        std::process::exit(1);
    }
    println!(
        "\nno gated count got worse: BENCH_{} -> BENCH_{}",
        prev.n, newest.n
    );
}
