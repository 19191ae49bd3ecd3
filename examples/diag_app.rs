//! Inspect one application under Base / CABA-BDI / HW-BDI side by side.
//!
//! ```sh
//! cargo run --release --example diag_app -- PVC 0.5
//! ```
//!
//! Arguments: application name (see `caba_workloads::all_apps`) and an
//! optional scale factor (default 0.5).

use caba::sim::{CabaMode, Design, GpuConfig};
use caba::stats::StallKind;
use caba::workloads::{all_apps, app, run_app};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "PVC".into());
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let Some(a) = app(&name) else {
        eprintln!("unknown application {name:?}; known:");
        for a in all_apps() {
            eprintln!("  {}", a.name);
        }
        std::process::exit(1);
    };
    println!("{name} @ scale {scale} on the scaled Table 1 machine\n");
    let hw_bdi = Design::HwFull { ideal: false };
    for (label, design) in [
        ("Base", Design::Base),
        ("CABA-BDI", Design::Caba(CabaMode::Bdi)),
        ("HW-BDI", hw_bdi),
    ] {
        let s = run_app(&a, GpuConfig::isca2015_scaled(), design, scale)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let stalls = StallKind::ALL
            .iter()
            .map(|&k| format!("{}={:.2}", k.slug(), s.breakdown.fraction(k)))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<10} cyc={:<8} app_i={:<9} asst_i={:<9} launches={:<6} l1hr={:.2} l2hr={:.2} \
             bursts={:<8} flits={:<8} bw={:.2} ovf={:<5} dec={:<6} cmp={:<6}\n           {stalls}",
            label,
            s.cycles,
            s.app_instructions,
            s.assist_instructions,
            s.assist_launches,
            s.l1_hit_rate(),
            s.l2_hit_rate(),
            s.dram_bursts,
            s.icnt_flits,
            s.bandwidth_utilization(),
            s.store_buffer_overflows,
            s.lines_decompressed,
            s.lines_compressed,
        );
    }
}
