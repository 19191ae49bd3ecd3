//! Workspace-level integration: the synthetic workload suite run under the
//! evaluated design points, checking the paper's qualitative claims hold on
//! the small test machine.

use caba::sim::occupancy::occupancy;
use caba::sim::{CabaMode, Design, GpuConfig};
use caba::workloads::{all_apps, app, eval_apps, run_app, AppClass};

#[test]
fn suite_composition_matches_figure1() {
    let apps = all_apps();
    let mem = apps
        .iter()
        .filter(|a| a.class == AppClass::MemoryBound)
        .count();
    assert!(mem >= 17, "at least 17 memory-bound apps, got {mem}");
    assert!(apps.len() >= 27);
    assert!(eval_apps().len() >= 15);
}

#[test]
fn compressed_designs_beat_base_on_compressible_memory_bound_app() {
    let a = app("PVC").expect("known app");
    let cfg = GpuConfig::small();
    let base = run_app(&a, cfg, Design::Base, 0.25).unwrap();
    let hw = run_app(&a, cfg, Design::HwFull { ideal: false }, 0.25).unwrap();
    let caba = run_app(&a, cfg, Design::Caba(CabaMode::Bdi), 0.25).unwrap();
    assert!(
        hw.cycles < base.cycles,
        "HW {} vs Base {}",
        hw.cycles,
        base.cycles
    );
    assert!(
        caba.cycles < base.cycles,
        "CABA {} vs Base {}",
        caba.cycles,
        base.cycles
    );
    assert!(caba.dram_bursts < base.dram_bursts);
    assert!(caba.assist_launches > 0);
}

#[test]
fn incompressible_app_is_not_hurt_by_hw_compression() {
    // §5: "applications without compressible data do not gain any
    // performance ... and do not incur any degradation".
    let a = app("SCP").expect("known app");
    let cfg = GpuConfig::small();
    let base = run_app(&a, cfg, Design::Base, 0.2).unwrap();
    let hw = run_app(&a, cfg, Design::HwFull { ideal: false }, 0.2).unwrap();
    let ratio = hw.cycles as f64 / base.cycles as f64;
    assert!(ratio < 1.1, "HW-BDI degraded SCP by {ratio}");
}

#[test]
fn figure2_average_unallocated_registers_in_paper_ballpark() {
    // Paper: "on average 24% of the register file remains unallocated".
    let cfg = GpuConfig::isca2015();
    let fracs: Vec<f64> = all_apps()
        .iter()
        .map(|a| occupancy(&a.kernel(1.0), &cfg, 0).unallocated_fraction(&cfg))
        .collect();
    let avg = fracs.iter().sum::<f64>() / fracs.len() as f64;
    assert!(
        (0.10..0.45).contains(&avg),
        "average unallocated fraction {avg} out of ballpark"
    );
    // And some apps leave a large fraction unallocated (the opportunity).
    assert!(fracs.iter().any(|&f| f > 0.3));
}

#[test]
fn md_cache_hit_rate_is_high_for_streaming_app() {
    // §4.3.2: the 8 KB MD cache achieves high hit rates (85% average, >99%
    // for many applications).
    let a = app("CONS").expect("known app");
    let s = run_app(
        &a,
        GpuConfig::small(),
        Design::HwFull { ideal: false },
        0.25,
    )
    .unwrap();
    assert!(s.md_lookups > 0);
    assert!(s.md_hit_rate() > 0.9, "hit rate {}", s.md_hit_rate());
}
