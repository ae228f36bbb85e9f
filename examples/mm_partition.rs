//! A small command-line partitioner for Matrix Market files, driven by
//! the unified [`Strategy`] enum.
//!
//! ```text
//! cargo run --release --example mm_partition -- <matrix.mtx> [K] [method]
//! ```
//!
//! `method` is any strategy name (`s2d` default, `1d`, `1d-col`, `2d`,
//! `2d-b`, `s2d-gen`, `s2d-opt`, `s2d-it`, `s2d-mg`, `1d-b`, `hg-kway`,
//! `auto` — see `s2d::partition::Strategy`; `2d-b`, `s2d-mg`, `1d-b`
//! and `s2d-it` need a square matrix). Without arguments a demo
//! matrix is generated and partitioned. Prints the partition-quality
//! report and per-processor loads; writes `<matrix>.part.<K>` with one
//! owner id per nonzero (CSR order).

use std::io::Write;

use s2d::partition::{quality, PartitionQuality, Strategy};
use s2d::sparse::io::read_matrix_market_file;
use s2d::sparse::Csr;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (a, name): (Csr, String) = match args.get(1) {
        Some(path) => {
            let coo = read_matrix_market_file(path).unwrap_or_else(|e| {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            });
            (coo.to_csr(), path.clone())
        }
        None => {
            println!("no input file given; generating a demo R-MAT matrix\n");
            let a = s2d::gen::rmat::rmat(&s2d::gen::rmat::RmatConfig::graph500(11, 8), 1).to_csr();
            (a, "demo-rmat11".to_string())
        }
    };
    let k: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let method = args.get(3).map(String::as_str).unwrap_or("s2d");

    println!("matrix {name}: {} x {}, nnz {}", a.nrows(), a.ncols(), a.nnz());
    println!("partitioning into K = {k} parts with method `{method}`\n");

    let strategy: Strategy = method.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if strategy.requires_square() && a.nrows() != a.ncols() {
        eprintln!("method {method} requires a square matrix, not {}x{}", a.nrows(), a.ncols());
        std::process::exit(2);
    }
    let p = strategy.partition(&a, k);
    let q = PartitionQuality::measure(&a, &p, strategy.to_string());

    println!("{}", quality::quality_header());
    println!("{}\n", quality::fmt_quality_row(&q));
    println!(
        "s2D property: {}",
        if q.s2d { "satisfied (fused single-phase plan)" } else { "not satisfied (general 2D)" }
    );
    println!("\nper-processor loads (nonzeros):");
    let loads = p.loads();
    for (proc_id, load) in loads.iter().enumerate() {
        println!("  P{proc_id:<3} {load:>10}");
        if proc_id >= 15 && loads.len() > 17 {
            println!("  ... ({} more)", loads.len() - proc_id - 1);
            break;
        }
    }

    let base = name.rsplit('/').next().unwrap_or(&name);
    let out = format!("{base}.part.{k}");
    let mut f = std::fs::File::create(&out).expect("create partition file");
    for owner in &p.nz_owner {
        writeln!(f, "{owner}").expect("write partition file");
    }
    println!("\nwrote nonzero owners to {out}");
}
