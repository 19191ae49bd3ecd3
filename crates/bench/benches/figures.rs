//! Regenerates every table and figure of the paper's evaluation in one run.
//!
//! Invoked by `cargo bench -p caba-bench --bench figures`. Set
//! `CABA_BENCH_SCALE` (default 0.5) to trade time for fidelity.

use caba_bench::{
    fig01_stall_breakdown, fig02_unallocated_registers, fig05_bdi_example, fig07_performance,
    fig08_bw_utilization, fig09_energy, fig10_algorithms, fig11_compression_ratio,
    fig12_bw_sensitivity, fig13_cache_compression, tab_md_cache, HarnessConfig, RunMatrix,
};
use std::time::Instant;

fn section(title: &str, body: impl FnOnce() -> caba_stats::Table) {
    let t0 = Instant::now();
    eprintln!("== {title} ==");
    let table = body();
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
    print!("{table}");
    eprintln!("   ({:.1?})", t0.elapsed());
}

fn main() {
    // `cargo bench -- --bench` style filter args are accepted and ignored
    // except for an optional figure filter like `fig07`.
    let filter: Option<String> = std::env::args()
        .skip(1)
        .find(|a| a.starts_with("fig") || a.starts_with("tab"));
    let want = |name: &str| filter.as_deref().is_none_or(|f| name.starts_with(f));

    let hc = HarnessConfig::default();
    eprintln!(
        "figure harness: scale={} (override with CABA_BENCH_SCALE)",
        hc.scale
    );
    let mut m = RunMatrix::new();

    if want("fig05") {
        section(
            "Figure 5: BDI compression of the PVC example line",
            fig05_bdi_example,
        );
    }
    if want("fig02") {
        section(
            "Figure 2: fraction of statically unallocated registers",
            fig02_unallocated_registers,
        );
    }
    if want("fig11") {
        section("Figure 11: compression ratio per algorithm", || {
            fig11_compression_ratio(&hc)
        });
    }
    if want("fig01") {
        section(
            "Figure 1: issue-cycle breakdown at 1/2x, 1x, 2x bandwidth",
            || fig01_stall_breakdown(&hc),
        );
    }
    if want("fig07") {
        section("Figure 7: normalized performance (5 designs)", || {
            fig07_performance(&hc, &mut m)
        });
    }
    if want("fig08") {
        section("Figure 8: memory bandwidth utilization", || {
            fig08_bw_utilization(&hc, &mut m)
        });
    }
    if want("fig09") {
        section(
            "Figure 9: normalized energy (+ §6.2 DRAM energy & power)",
            || fig09_energy(&hc, &mut m),
        );
    }
    if want("tab_md") {
        section("§4.3.2: metadata-cache hit rate", || {
            tab_md_cache(&hc, &mut m)
        });
    }
    if want("fig10") {
        section("Figure 10: speedup with different algorithms", || {
            fig10_algorithms(&hc, &mut m)
        });
    }
    if want("fig12") {
        section("Figure 12: sensitivity to peak memory bandwidth", || {
            fig12_bw_sensitivity(&hc)
        });
    }
    if want("fig13") {
        section("Figure 13: selective cache compression", || {
            fig13_cache_compression(&hc, &mut m)
        });
    }
    eprintln!("figure harness complete");
}
