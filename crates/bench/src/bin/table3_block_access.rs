//! Table 3 regenerator: throughput of sequential/random reads/writes of
//! persistent 256-B blocks, J-NVM (proxy path) vs C (raw device access).
//!
//! Paper result: J-NVM reaches near-native speed — at most 24 % slower
//! than C, except random reads (2.8x slower: proxy resurrection is in the
//! random-access path).
//!
//! With `--sweep`, additionally runs the §5.3.5 block-size ablation
//! (64 B – 1 KB blocks).
//!
//! Flags: `--blocks` (default 100000), `--out results`, `--sweep`.

use std::path::PathBuf;
use std::time::Instant;

use jnvm::{JnvmBuilder, Proxy};
use jnvm_bench::{write_csv, Args, Table};
use jnvm_heap::HeapConfig;
use jnvm_jpdt::{register_jpdt, PLongArray};
use jnvm_pmem::{Pmem, PmemConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

struct Bench {
    rt: jnvm::Jnvm,
    addrs: Vec<u64>,
    payload: u64,
}

fn setup(blocks: u64, block_size: u64, optane: bool) -> Bench {
    let pool = blocks * block_size * 3 + (64 << 20);
    let pmem = Pmem::new(if optane {
        PmemConfig::optane(pool)
    } else {
        PmemConfig::perf(pool)
    });
    let rt = register_jpdt(JnvmBuilder::new())
        .create(pmem, HeapConfig { block_size })
        .expect("pool");
    let payload = rt.heap().payload_size();
    let id = rt.registry().id_of::<PLongArray>().expect("registered");
    let addrs: Vec<u64> = (0..blocks)
        .map(|_| {
            let p = Proxy::alloc(&rt, id, payload);
            p.write_u64(0, (payload - 8) / 8);
            p.pwb();
            p.validate();
            p.addr()
        })
        .collect();
    rt.pmem().pfence();
    Bench { rt, addrs, payload }
}

/// GB/s over `bytes` in `secs`.
fn gbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

fn run_case(b: &Bench, order: &[u64], write: bool, jnvm_path: bool) -> f64 {
    let pmem = b.rt.pmem();
    let payload = b.payload;
    let mut buf = vec![0u8; payload as usize];
    let start = Instant::now();
    if jnvm_path {
        for addr in order {
            let p = Proxy::open(&b.rt, *addr);
            if write {
                p.write_bytes(0, &buf);
                p.pwb();
                pmem.pfence();
            } else {
                p.read_bytes(0, &mut buf);
            }
            std::hint::black_box(&buf);
        }
    } else {
        // "C": raw device access, no proxy, no mediation.
        for addr in order {
            if write {
                pmem.write_bytes(addr + 8, &buf);
                pmem.pwb_range(addr + 8, payload);
                pmem.pfence();
            } else {
                pmem.read_bytes(addr + 8, &mut buf);
            }
            std::hint::black_box(&buf);
        }
    }
    gbps(order.len() as u64 * payload, start.elapsed().as_secs_f64())
}

fn measure(blocks: u64, block_size: u64, optane: bool) -> [f64; 8] {
    let b = setup(blocks, block_size, optane);
    let seq = b.addrs.clone();
    let mut random = b.addrs.clone();
    random.shuffle(&mut SmallRng::seed_from_u64(42));
    [
        run_case(&b, &seq, false, true),    // jnvm seq read
        run_case(&b, &seq, true, true),     // jnvm seq write
        run_case(&b, &random, false, true), // jnvm rand read
        run_case(&b, &random, true, true),  // jnvm rand write
        run_case(&b, &seq, false, false),   // C seq read
        run_case(&b, &seq, true, false),    // C seq write
        run_case(&b, &random, false, false),
        run_case(&b, &random, true, false),
    ]
}

fn main() {
    let args = Args::parse();
    let blocks: u64 = args.get_or("blocks", 100_000);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));
    let optane = !args.has("no-latency");

    println!("Table 3: access to a persistent 256 B block ({blocks} blocks)");
    let m = measure(blocks, 256, optane);
    let mut table = Table::new(&["", "Seq Read", "Seq Write", "Rand Read", "Rand Write"]);
    let f = |x: f64| format!("{x:.2} GB/s");
    table.row(&["J-NVM".into(), f(m[0]), f(m[1]), f(m[2]), f(m[3])]);
    table.row(&["C".into(), f(m[4]), f(m[5]), f(m[6]), f(m[7])]);
    table.row(&[
        "C/J-NVM".into(),
        format!("{:.2}x", m[4] / m[0]),
        format!("{:.2}x", m[5] / m[1]),
        format!("{:.2}x", m[6] / m[2]),
        format!("{:.2}x", m[7] / m[3]),
    ]);
    table.print();
    let rows = vec![
        format!("jnvm,{:.4},{:.4},{:.4},{:.4}", m[0], m[1], m[2], m[3]),
        format!("c,{:.4},{:.4},{:.4},{:.4}", m[4], m[5], m[6], m[7]),
    ];
    let path = write_csv(
        &out,
        "table3_block_access",
        "path,seq_read_gbps,seq_write_gbps,rand_read_gbps,rand_write_gbps",
        &rows,
    );
    println!("wrote {}", path.display());

    if args.has("sweep") {
        println!("\nBlock-size ablation (§5.3.5):");
        let mut t = Table::new(&["block", "J-NVM seq read", "J-NVM rand write"]);
        let mut rows = Vec::new();
        for bs in [64u64, 128, 256, 512, 1024] {
            let m = measure(blocks.min(50_000), bs, optane);
            t.row(&[format!("{bs} B"), f(m[0]), f(m[3])]);
            rows.push(format!("{bs},{:.4},{:.4}", m[0], m[3]));
        }
        t.print();
        write_csv(
            &out,
            "table3_block_size_sweep",
            "block_bytes,seq_read_gbps,rand_write_gbps",
            &rows,
        );
    }
}
