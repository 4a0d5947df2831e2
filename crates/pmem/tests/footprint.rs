//! What a `CrashSim` pool costs in DRAM: one copy of the lines that were
//! ever written, not two, and a crash that touches the non-clean lines
//! only. Alone in its own test binary — and so its own process — because
//! it reads the process's resident set size.
#![cfg(target_os = "linux")]

use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig, CACHE_LINE};

const MIB: u64 = 1 << 20;

fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS in /proc/self/status");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value");
    kib * 1024
}

#[test]
fn a_pool_is_resident_once_and_a_crash_maps_nothing() {
    let before = rss_bytes();
    let p = Pmem::new(PmemConfig::crash_sim(256 * MIB));
    // Pool, line states and (under JNVM_SANITIZE) toucher stamps are mapped
    // by the first store to them, not by `new`.
    let created = rss_bytes();
    assert!(
        created.saturating_sub(before) < 4 * MIB,
        "Pmem::new touched its arrays: {} KiB",
        created.saturating_sub(before) / 1024
    );

    // 16 MiB of lines, all dirty at once, then flushed and fenced.
    let written = 16 * MIB;
    for addr in (0..written).step_by(CACHE_LINE as usize) {
        p.write_u64(addr, addr + 1);
    }
    for addr in (0..written).step_by(CACHE_LINE as usize) {
        p.pwb(addr);
    }
    p.pfence();
    let settled = rss_bytes();
    assert!(
        settled.saturating_sub(created) < 24 * MIB,
        "{} MiB of fenced lines cost {} KiB resident",
        written / MIB,
        settled.saturating_sub(created) / 1024
    );
    p.write_u64(0, 7); // one line to roll back
    p.crash(&CrashPolicy::strict()).unwrap();
    let crashed = rss_bytes();
    assert!(
        crashed.saturating_sub(settled) < 4 * MIB,
        "crash mapped {} KiB",
        crashed.saturating_sub(settled) / 1024
    );
    assert_eq!(p.read_u64(0), 1);
    assert_eq!(p.read_u64(written - CACHE_LINE), written - CACHE_LINE + 1);
    drop(p);

    // A loaded image is as sparse as the pool it was saved from: 1 MiB of
    // content in a 64 MiB pool maps that, not the pool. (The bound leaves
    // room for the line-state and toucher arrays, which the allocator may
    // hand out already mapped when it recycles the first pool's.)
    let small = Pmem::new(PmemConfig::crash_sim(64 * MIB));
    for addr in (0..MIB).step_by(8) {
        small.write_u64(addr, addr | 1);
    }
    small.drain_all();
    let path = std::env::temp_dir().join(format!("jnvm-footprint-{}.img", std::process::id()));
    small.save(&path).unwrap();
    drop(small);
    let unloaded = rss_bytes();
    let loaded = Pmem::load(&path, PmemConfig::crash_sim(0));
    std::fs::remove_file(&path).ok();
    let loaded = loaded.unwrap();
    let grown = rss_bytes().saturating_sub(unloaded);
    assert!(
        grown < 16 * MIB,
        "loading 1 MiB of content mapped {} KiB",
        grown / 1024
    );
    assert_eq!(loaded.read_u64(MIB - 8), (MIB - 8) | 1);
}
