//! A persistent bank (the TPC-B-like application of §5.3.3): transfers in
//! failure-atomic blocks, a crash in the middle of a burst, and a recovery
//! that proves no money was created or destroyed.
//!
//! Run: `cargo run --example bank`

use std::sync::Arc;

use jnvm_repro::heap::HeapConfig;
use jnvm_repro::jnvm::JnvmBuilder;
use jnvm_repro::pmem::{CrashPolicy, Pmem, PmemConfig};
use jnvm_repro::tpcb::{register_tpcb, Bank, JnvmBank};

const ACCOUNTS: u64 = 1_000;
const INITIAL: i64 = 100;

fn main() {
    let pmem = Pmem::new(PmemConfig::crash_sim(256 << 20));
    let rt = register_tpcb(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let bank = JnvmBank::create(&rt, ACCOUNTS, INITIAL).expect("bank");
    println!(
        "opened bank: {} accounts x {} = total {}",
        bank.len(),
        INITIAL,
        bank.total()
    );

    // A burst of randomish transfers, each failure-atomic.
    let mut x = 0x243f6a8885a308d3u64;
    for _ in 0..5_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = x % ACCOUNTS;
        let b = (x >> 17) % ACCOUNTS;
        if a != b {
            bank.transfer(a, b, (x % 50) as i64);
        }
    }
    println!("after 5000 transfers, total = {} (invariant)", bank.total());
    assert_eq!(bank.total(), ACCOUNTS as i64 * INITIAL);

    // Power failure — adversarial: unflushed lines may or may not survive.
    drop(bank);
    pmem.crash(&CrashPolicy::adversarial(7)).expect("crash");
    println!("crash!");

    let (rt2, report) = register_tpcb(JnvmBuilder::new())
        .open(Arc::clone(&pmem))
        .expect("recovery");
    println!(
        "recovered in {:?} (log replays: {}, live objects: {})",
        report.gc_time + report.log_time,
        report.replayed_logs,
        report.live_objects
    );
    let bank2 = JnvmBank::open(&rt2).expect("reopen bank");
    println!("after recovery, total = {}", bank2.total());
    assert_eq!(
        bank2.total(),
        ACCOUNTS as i64 * INITIAL,
        "failure-atomic transfers preserve the sum"
    );
    println!("money conserved across the crash — transfers were atomic.");
}
