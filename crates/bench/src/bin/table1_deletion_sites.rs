//! Table 1 regenerator: NVMM-ready data stores rarely delete persistent
//! objects.
//!
//! The paper's table is a static count over seven external code bases; it
//! cannot be re-measured without those trees, so this binary (a) reprints
//! the paper's numbers and (b) runs the same measurement on *this*
//! repository's data-store code (the kvstore backends and the TPC-B bank),
//! counting explicit persistent-deletion call sites.
//!
//! Flags: `--root <workspace root>` (default: auto-detected).

use std::path::{Path, PathBuf};

use jnvm_bench::{Args, Table};

/// Patterns that mark an explicit persistent-object deletion site in this
/// code base (`JNVM.free` analogues).
const DELETE_PATTERNS: [&str; 4] = [".free_addr(", "free_deep(", ".free()", ".delete_file("];

fn count_sites(dir: &Path) -> (u64, u64) {
    let mut sites = 0;
    let mut sloc = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            let (s, l) = count_sites(&p);
            sites += s;
            sloc += l;
        } else if p.extension().is_some_and(|x| x == "rs") {
            let Ok(content) = std::fs::read_to_string(&p) else {
                continue;
            };
            let mut in_tests = false;
            for line in content.lines() {
                let t = line.trim();
                if t.starts_with("#[cfg(test)]") {
                    in_tests = true;
                }
                if t.is_empty() || t.starts_with("//") || in_tests {
                    continue;
                }
                sloc += 1;
                if DELETE_PATTERNS.iter().any(|pat| t.contains(pat)) {
                    sites += 1;
                }
            }
        }
    }
    (sites, sloc)
}

fn main() {
    let args = Args::parse();
    let root: PathBuf = args.get("root").map(PathBuf::from).unwrap_or_else(|| {
        // Walk up from the executable/cwd until Cargo.toml + crates/.
        let mut d = std::env::current_dir().expect("cwd");
        loop {
            if d.join("crates").is_dir() && d.join("Cargo.toml").is_file() {
                break d;
            }
            if !d.pop() {
                break std::env::current_dir().expect("cwd");
            }
        }
    });

    println!("Table 1: deletion sites in NVMM-ready data stores\n");
    println!("(a) Paper's measurements (static counts over external trees):");
    let mut paper = Table::new(&["data store", "SLOC", "# deletion sites"]);
    for (store, sloc, sites) in [
        ("infinispan (paper)", "603,800", "4"),
        ("cassandra-pmem", "334,300", "1"),
        ("pmem-rocksdb", "314,900", "4"),
        ("pmem-redis", "55,900", "1"),
        ("pmemkv", "25,600", "2"),
        ("go-redis-pmem", "8,400", "2"),
        ("pmse (MongoDB)", "4,800", "3"),
    ] {
        paper.row(&[store.into(), sloc.into(), sites.into()]);
    }
    paper.print();

    println!("\n(b) The same measurement over this reproduction's stores:");
    let mut ours = Table::new(&["component", "SLOC", "# deletion sites"]);
    for (label, rel) in [
        ("kvstore backends (grid)", "crates/kvstore/src"),
        ("TPC-B bank", "crates/tpcb/src"),
        ("J-PDT library", "crates/jpdt/src"),
    ] {
        let (sites, sloc) = count_sites(&root.join(rel));
        ours.row(&[label.into(), sloc.to_string(), sites.to_string()]);
    }
    ours.print();
    println!(
        "\nConclusion under test: explicit deletion is rare and concentrated\n\
         in a handful of well-defined paths, so a runtime GC for persistent\n\
         objects buys little (§2.2.2)."
    );
}
