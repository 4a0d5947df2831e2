//! Quickstart — the paper's Figure 3 example, in Rust.
//!
//! A `Simple` persistent object with a string, a persistent counter and a
//! transient field, anchored in the root map, surviving a (simulated)
//! power failure, and explicitly freed when replaced.
//!
//! Run: `cargo run --example quickstart`

use std::sync::Arc;

use jnvm_repro::heap::HeapConfig;
use jnvm_repro::jnvm::{persistent_class, JnvmBuilder};
use jnvm_repro::jpdt::{register_jpdt, PString};
use jnvm_repro::pmem::{CrashPolicy, Pmem, PmemConfig};

persistent_class! {
    /// `@Persistent class Simple { PString msg; int x; transient int y; }`
    pub class Simple {
        val x, set_x: i32;
        ref msg, set_msg, update_msg: PString;
    }
}

/// The transient part lives in ordinary volatile Rust state, wrapping the
/// generated persistent class (the paper's `transient int y`).
struct SimpleWithTransient {
    persistent: Simple,
    y: i32,
}

fn main() {
    // JNVM.init("/mnt/pmem/simple", ...): create a simulated NVMM pool.
    // (Pmem::save/load move pools to real files across processes.)
    let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
    let rt = register_jpdt(JnvmBuilder::new())
        .register::<Simple>()
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool creation");

    // if (!JNVM.root.exists("simple")) JNVM.root.put("simple", new Simple(42));
    if !rt.root_exists("simple") {
        // The constructor runs as a failure-atomic block, as the
        // fa="non-private" annotation arranges in the paper.
        rt.fa(|| {
            let s = Simple::alloc_uninit(&rt);
            s.set_x(42);
            let msg = PString::from_str_in(&rt, "Hello, NVMM!").expect("msg");
            s.set_msg(Some(&msg));
            rt.root_put("simple", &s).expect("root put");
        });
    }

    // Simple s = (Simple) JNVM.root.get("simple");
    let s = rt
        .root_get_as::<Simple>("simple")
        .expect("typed lookup")
        .expect("present");
    let mut sw = SimpleWithTransient {
        persistent: s,
        y: 0,
    };

    // s.inc(); s.y = 42;
    rt.fa(|| sw.persistent.set_x(sw.persistent.x() + 1));
    sw.y = 42;

    println!("x   = {}", sw.persistent.x());
    println!(
        "msg = {}",
        sw.persistent.msg().expect("msg set").to_string_lossy()
    );
    println!("y   = {} (transient)", sw.y);

    // Crash! Everything reachable-and-valid survives; y does not.
    pmem.crash(&CrashPolicy::strict()).expect("crash sim");
    let (rt2, report) = register_jpdt(JnvmBuilder::new())
        .register::<Simple>()
        .open(Arc::clone(&pmem))
        .expect("recovery");
    println!(
        "recovered: {} live objects, {} blocks freed, log replays: {}",
        report.live_objects, report.freed_blocks, report.replayed_logs
    );
    let s2 = rt2
        .root_get_as::<Simple>("simple")
        .expect("typed lookup")
        .expect("survived the crash");
    assert_eq!(s2.x(), 43);
    println!(
        "after crash: x = {}, msg = {:?}",
        s2.x(),
        s2.msg().map(|m| m.to_string_lossy())
    );

    // JNVM.root.put("simple", new Simple(24)); JNVM.free(s.msg); JNVM.free(s);
    rt2.fa(|| {
        let fresh = Simple::alloc_uninit(&rt2);
        fresh.set_x(24);
        rt2.root_put("simple", &fresh).expect("root put");
    });
    if let Some(msg) = s2.msg() {
        rt2.free(msg); // explicit deletion: no runtime GC will do it for us
    }
    rt2.free(s2);
    println!(
        "replaced and freed the old object; heap now has {} free-queue blocks",
        rt2.heap().stats().free_queue_len
    );
}
