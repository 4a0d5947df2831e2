//! Ablation (§3.2.3 / Figure 5) regenerator: batched validation behind a
//! single `pfence` vs the naive fence-per-object protocol. The point of
//! the validity bit is to amortize fences across object graphs.
//!
//! Flags: `--iters` (default 2000 batches per case), `--out results`.

use std::path::PathBuf;
use std::time::Instant;

use jnvm::{persistent_class, Jnvm, JnvmBuilder};
use jnvm_bench::{write_csv, Args, Table};
use jnvm_heap::HeapConfig;
use jnvm_pmem::{Pmem, PmemConfig};

persistent_class! {
    pub class Item {
        val value, set_value: i64;
        ref next, set_next, update_next: Item;
    }
}

/// Allocate, fill, validate and free `n` items; the naive protocol fences
/// after every validation, the batched one once for the whole batch.
fn batch(rt: &Jnvm, n: usize, fence_per_object: bool) {
    let items: Vec<Item> = (0..n)
        .map(|i| {
            let it = Item::alloc_uninit(rt);
            it.set_value(i as i64);
            it.pwb();
            it.validate(); // fence-free
            if fence_per_object {
                rt.pfence();
            }
            it
        })
        .collect();
    if !fence_per_object {
        rt.pfence(); // Figure 5: one fence for the whole batch
    }
    for it in items {
        rt.free(it);
    }
}

fn main() {
    let args = Args::parse();
    let iters: u32 = args.get_or("iters", 2000);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));

    // Optane-like fences: this ablation is about fence counts, so fence
    // latency must be realistic.
    let rt = JnvmBuilder::new()
        .register::<Item>()
        .create(
            Pmem::new(PmemConfig::optane(1 << 30)),
            HeapConfig::default(),
        )
        .expect("pool");

    println!("Ablation (Figure 5): validation fences per batch of n objects ({iters} batches)");
    let mut table = Table::new(&["n", "fence per object", "single fence", "speedup"]);
    let mut rows = Vec::new();
    for n in [4usize, 16, 64] {
        let us_per_batch = |fence_per_object: bool| {
            let start = Instant::now();
            for _ in 0..iters {
                batch(&rt, n, fence_per_object);
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
        };
        let (naive, batched) = (us_per_batch(true), us_per_batch(false));
        table.row(&[
            n.to_string(),
            format!("{naive:.2} us"),
            format!("{batched:.2} us"),
            format!("{:.2}x", naive / batched),
        ]);
        rows.push(format!("{n},{naive:.3},{batched:.3}"));
    }
    table.print();
    let path = write_csv(
        &out,
        "ablation_validate",
        "n,fence_per_object_us,single_fence_us",
        &rows,
    );
    println!("wrote {}", path.display());
}
