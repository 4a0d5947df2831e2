//! Run every table/figure regenerator at (scaled-down) default
//! parameters, writing all CSVs into `results/`.
//!
//! `--quick` shrinks every experiment further for a smoke pass.

use std::process::Command;

use jnvm_bench::Args;

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();

    let experiments: Vec<(&str, Vec<String>)> = vec![
        (
            "fig1_gc_cache_ratio",
            if quick {
                vec!["--records", "20000", "--ops", "60000"]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "fig2_gopmem_scaling",
            if quick {
                vec!["--ops", "60000", "--scale-records-per-gb", "2000"]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        ("table1_deletion_sites", vec![]),
        (
            "fig7_ycsb_backends",
            if quick {
                vec!["--records", "4000", "--ops", "8000"]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "fig8_record_size",
            if quick {
                vec!["--records", "1000", "--ops", "3000", "--sizes", "1,4,10"]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "fig9_sensitivity",
            if quick { vec!["--ops", "4000"] } else { vec![] }
                .into_iter()
                .map(String::from)
                .collect(),
        ),
        (
            "fig10_multithreading",
            if quick {
                vec!["--records", "4000", "--ops", "30000", "--threads", "1,4,8"]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "fig11_recovery",
            if quick {
                vec![
                    "--accounts",
                    "20000",
                    "--before-secs",
                    "1",
                    "--after-secs",
                    "1",
                ]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "fig12_pdt_vs_volatile",
            if quick {
                vec!["--records", "4000", "--ops", "20000"]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "table3_block_access",
            if quick {
                vec!["--blocks", "20000"]
            } else {
                vec!["--sweep"]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "ablation_validate",
            if quick {
                vec!["--iters", "200"]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "ablation_map_variants",
            if quick {
                vec!["--records", "1000", "--gets", "20000", "--opens", "5"]
            } else {
                vec![]
            }
            .into_iter()
            .map(String::from)
            .collect(),
        ),
    ];

    for (name, extra) in experiments {
        println!("\n=== {name} ===");
        let status = Command::new(exe_dir.join(name))
            .args(&extra)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(status.success(), "{name} failed");
    }
    println!("\nAll experiments completed; CSVs are under results/.");
}
