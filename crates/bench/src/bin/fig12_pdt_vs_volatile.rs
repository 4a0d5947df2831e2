//! Figure 12 regenerator: persistent J-PDT maps vs their volatile
//! counterparts under YCSB-A, run directly on the data types (no grid).
//!
//! Paper result: J-PDT is 45–50 % slower than volatile `java.util` maps —
//! the price of pfences in the critical path, NVMM latency and proxy
//! indirection. The "Blackhole" row measures pure workload-injection cost.
//! (The volatile Java baseline also pays GC time; Rust's baseline does not,
//! which EXPERIMENTS.md accounts for when comparing.)
//!
//! Flags: `--records` (default 20000), `--ops` (default 100000),
//! `--value-bytes 1000`, `--out results`.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use jnvm::{JnvmBuilder, PObject};
use jnvm_bench::{write_csv, Args, Table};
use jnvm_heap::HeapConfig;
use jnvm_jpdt::{
    register_jpdt, PBytes, PStringHashMap, PStringSkipMap, PStringTreeMap, SkipListMap,
};
use jnvm_pmem::{Pmem, PmemConfig};
use jnvm_ycsb::{record_key, Generator, ScrambledZipfianGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One YCSB-A pass over a map-like store. Returns
/// `(total, read_time, update_time)` in seconds.
fn drive(
    records: u64,
    ops: u64,
    value_bytes: usize,
    mut read: impl FnMut(&str),
    mut update: impl FnMut(&str, &[u8]),
) -> (f64, f64, f64) {
    let mut gen = ScrambledZipfianGenerator::new(records, 11);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut value = vec![0u8; value_bytes];
    let (mut t_read, mut t_update) = (0.0, 0.0);
    let start = Instant::now();
    for _ in 0..ops {
        let key = record_key(gen.next());
        if rng.random::<bool>() {
            let t = Instant::now();
            read(&key);
            t_read += t.elapsed().as_secs_f64();
        } else {
            rng.fill_bytes(&mut value);
            let t = Instant::now();
            update(&key, &value);
            t_update += t.elapsed().as_secs_f64();
        }
    }
    (start.elapsed().as_secs_f64(), t_read, t_update)
}

fn main() {
    let args = Args::parse();
    let records: u64 = args.get_or("records", 20_000);
    let ops: u64 = args.get_or("ops", 100_000);
    let value_bytes: usize = args.get_or("value-bytes", 1000);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));
    let optane = !args.has("no-latency");

    let pool = (records * 4 + 4096) * (value_bytes as u64 + 600) + (64 << 20);
    let pmem = Pmem::new(if optane {
        PmemConfig::optane(pool)
    } else {
        PmemConfig::perf(pool)
    });
    let rt = register_jpdt(JnvmBuilder::new())
        .create(pmem, HeapConfig::default())
        .expect("pool");

    println!("Figure 12: YCSB-A directly on data types ({records} records, {ops} ops)");
    let mut table = Table::new(&["data type", "completion", "read", "update", "vs volatile"]);
    let mut rows: Vec<String> = Vec::new();

    // Blackhole: workload injection only.
    let (bh, _, _) = drive(records, ops, value_bytes, |_k| {}, |_k, _v| {});
    table.row(&[
        "Blackhole".into(),
        format!("{bh:.2} s"),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    rows.push(format!("blackhole,{bh:.4},0,0"));

    let mut emit = |name: &str, (total, r, u): (f64, f64, f64), volatile_total: Option<f64>| {
        let rel = volatile_total
            .map(|v| format!("{:+.0}%", (total / v - 1.0) * 100.0))
            .unwrap_or_else(|| "baseline".to_string());
        table.row(&[
            name.to_string(),
            format!("{total:.2} s"),
            format!("{r:.2} s"),
            format!("{u:.2} s"),
            rel,
        ]);
        rows.push(format!("{name},{total:.4},{r:.4},{u:.4}"));
        total
    };

    // Hash maps.
    let vm = std::cell::RefCell::new(HashMap::<String, Vec<u8>>::new());
    for i in 0..records {
        vm.borrow_mut()
            .insert(record_key(i), vec![0u8; value_bytes]);
    }
    let v_hash = drive(
        records,
        ops,
        value_bytes,
        |k| {
            if let Some(v) = vm.borrow().get(k) {
                std::hint::black_box(v.len());
            }
        },
        |k, v| {
            vm.borrow_mut().insert(k.to_string(), v.to_vec());
        },
    );
    let v_hash_total = emit("HashMap (volatile)", v_hash, None);

    let pm = PStringHashMap::new(&rt).expect("map");
    for i in 0..records {
        let b = PBytes::new(&rt, &vec![0u8; value_bytes]).expect("blob");
        pm.put(record_key(i), b.addr()).expect("put");
    }
    let p_hash = drive(
        records,
        ops,
        value_bytes,
        |k| {
            if let Some(v) = pm.get_value(k) {
                let blob = PBytes::resurrect(&rt, v.addr());
                std::hint::black_box(blob.to_vec().len());
            }
        },
        |k, v| {
            let b = PBytes::new(&rt, v).expect("blob");
            if let Ok(Some(old)) = pm.put(k.to_string(), b.addr()) {
                rt.free_addr(old);
            }
        },
    );
    emit("PStringHashMap (J-PDT)", p_hash, Some(v_hash_total));

    // Tree maps.
    let bt = std::cell::RefCell::new(BTreeMap::<String, Vec<u8>>::new());
    for i in 0..records {
        bt.borrow_mut()
            .insert(record_key(i), vec![0u8; value_bytes]);
    }
    let v_tree = drive(
        records,
        ops,
        value_bytes,
        |k| {
            if let Some(v) = bt.borrow().get(k) {
                std::hint::black_box(v.len());
            }
        },
        |k, v| {
            bt.borrow_mut().insert(k.to_string(), v.to_vec());
        },
    );
    let v_tree_total = emit("TreeMap (volatile)", v_tree, None);

    let pt = PStringTreeMap::new(&rt).expect("map");
    for i in 0..records {
        let b = PBytes::new(&rt, &vec![0u8; value_bytes]).expect("blob");
        pt.put(record_key(i), b.addr()).expect("put");
    }
    let p_tree = drive(
        records,
        ops,
        value_bytes,
        |k| {
            if let Some(v) = pt.get_value(k) {
                std::hint::black_box(PBytes::resurrect(&rt, v.addr()).to_vec().len());
            }
        },
        |k, v| {
            let b = PBytes::new(&rt, v).expect("blob");
            if let Ok(Some(old)) = pt.put(k.to_string(), b.addr()) {
                rt.free_addr(old);
            }
        },
    );
    emit("PStringTreeMap (J-PDT)", p_tree, Some(v_tree_total));

    // Skip-list maps.
    let sl = std::cell::RefCell::new(SkipListMap::<String, Vec<u8>>::new());
    for i in 0..records {
        sl.borrow_mut()
            .insert(record_key(i), vec![0u8; value_bytes]);
    }
    let v_skip = drive(
        records,
        ops,
        value_bytes,
        |k| {
            if let Some(v) = sl.borrow().get(k) {
                std::hint::black_box(v.len());
            }
        },
        |k, v| {
            sl.borrow_mut().insert(k.to_string(), v.to_vec());
        },
    );
    let v_skip_total = emit("SkipListMap (volatile)", v_skip, None);

    let ps = PStringSkipMap::new(&rt).expect("map");
    for i in 0..records {
        let b = PBytes::new(&rt, &vec![0u8; value_bytes]).expect("blob");
        ps.put(record_key(i), b.addr()).expect("put");
    }
    let p_skip = drive(
        records,
        ops,
        value_bytes,
        |k| {
            if let Some(v) = ps.get_value(k) {
                std::hint::black_box(PBytes::resurrect(&rt, v.addr()).to_vec().len());
            }
        },
        |k, v| {
            let b = PBytes::new(&rt, v).expect("blob");
            if let Ok(Some(old)) = ps.put(k.to_string(), b.addr()) {
                rt.free_addr(old);
            }
        },
    );
    emit("PStringSkipMap (J-PDT)", p_skip, Some(v_skip_total));

    table.print();
    let path = write_csv(
        &out,
        "fig12_pdt_vs_volatile",
        "type,completion_s,read_s,update_s",
        &rows,
    );
    println!("wrote {}", path.display());
}
