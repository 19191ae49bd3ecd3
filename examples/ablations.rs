//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. AWB low-priority partition size (the paper provisions 2 entries).
//! 2. Store-buffer capacity (§4.2.2 Î) and its overflow behaviour.
//! 3. The metadata cache (§4.3.2) vs. paying a metadata access per DRAM
//!    access.
//!
//! Run with `cargo run --release --example ablations -- [SCALE]` (default
//! scale 0.5). The apps used are a small representative trio (streaming /
//! gather / stencil).

use caba::sim::{CabaMode, Design, GpuConfig};
use caba::stats::Table;
use caba::workloads::{app, run_app};

const APPS: [&str; 3] = ["CONS", "PVC", "LPS"];

fn scale() -> f64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5)
}

fn caba() -> Design {
    Design::Caba(CabaMode::Bdi)
}

fn cycles(cfg: GpuConfig, design: Design, name: &str) -> u64 {
    let a = app(name).expect("known app");
    run_app(&a, cfg, design, scale())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .cycles
}

fn section(title: &str, t: Table) {
    println!("\n================================================================");
    println!("Ablation: {title}");
    println!("================================================================");
    print!("{t}");
}

fn ablate_awb_entries() {
    let mut t = Table::with_columns(&["App", "AWB=1", "AWB=2 (paper)", "AWB=4", "AWB=8"]);
    for name in APPS {
        let base = cycles(GpuConfig::isca2015_scaled(), caba(), name);
        let mut row = vec![name.to_string()];
        for entries in [1usize, 2, 4, 8] {
            let mut cfg = GpuConfig::isca2015_scaled();
            cfg.awb_low_priority_entries = entries;
            let c = cycles(cfg, caba(), name);
            row.push(format!("{:.2}x", base as f64 / c as f64));
        }
        // Column 2 (AWB=2) is the default, so it reads 1.00x by construction.
        t.row(row);
    }
    section("AWB low-priority partition entries (§3.3 provisions 2)", t);
}

fn ablate_store_buffer() {
    let mut t = Table::with_columns(&["App", "SB=2", "SB=16 (paper-ish)", "SB=64", "overflows@2"]);
    for name in APPS {
        let a = app(name).expect("known app");
        let mut row = vec![name.to_string()];
        let mut ovf2 = 0;
        let base = cycles(GpuConfig::isca2015_scaled(), caba(), name);
        for sb in [2usize, 16, 64] {
            let mut cfg = GpuConfig::isca2015_scaled();
            cfg.store_buffer = sb;
            let s = run_app(&a, cfg, caba(), scale()).expect("completes");
            if sb == 2 {
                ovf2 = s.store_buffer_overflows;
            }
            row.push(format!("{:.2}x", base as f64 / s.cycles as f64));
        }
        row.push(ovf2.to_string());
        t.row(row);
    }
    section(
        "store-buffer capacity (§4.2.2: overflow releases uncompressed)",
        t,
    );
}

fn ablate_md_cache() {
    let mut t = Table::with_columns(&["App", "MD cache on (paper)", "MD cache off"]);
    for name in APPS {
        let on = cycles(GpuConfig::isca2015_scaled(), caba(), name);
        let mut cfg = GpuConfig::isca2015_scaled();
        cfg.md_cache_enabled = false;
        let off = cycles(cfg, caba(), name);
        t.row(vec![
            name.into(),
            format!("{on} cy (1.00x)"),
            format!("{off} cy ({:.2}x)", on as f64 / off as f64),
        ]);
    }
    section("metadata cache (§4.3.2: avoids doubling DRAM accesses)", t);
}

fn main() {
    eprintln!("ablation harness: scale={} ", scale());
    ablate_awb_entries();
    ablate_store_buffer();
    ablate_md_cache();
    eprintln!("ablation harness complete");
}
