//! Record a Chrome-trace (Perfetto) activity trace of one application run.
//!
//! ```sh
//! cargo run --release --example trace_app -- PVC 0.25 caba trace.json
//! ```
//!
//! Open the JSON in `chrome://tracing` or https://ui.perfetto.dev to see
//! per-SM issue activity (app vs. assist instructions) and DRAM bandwidth
//! utilization over time.

use caba::sim::{CabaMode, Design, Gpu, GpuConfig, TraceConfig};
use caba::workloads::app;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "PVC".into());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.25);
    let design = match args.next().as_deref() {
        Some("base") => Design::Base,
        _ => Design::Caba(CabaMode::Bdi),
    };
    let path = args.next().unwrap_or_else(|| "trace.json".into());

    let a = app(&name).expect("known application");
    let cfg = GpuConfig::isca2015_scaled().with_trace(TraceConfig::full(64));
    let mut gpu = Gpu::new(cfg, design);
    a.load_inputs(&mut gpu, scale);
    let stats = gpu
        .run(&a.kernel(scale), 200_000_000)
        .expect("kernel completes");
    let trace = gpu.take_trace().expect("tracing was enabled");
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).expect("create trace file"));
    trace
        .write_chrome_json(&mut file)
        .expect("write trace file");
    eprintln!(
        "{name}: {} cycles, {} samples, avg BW {:.1}% -> {path}",
        stats.cycles,
        trace.samples.len(),
        trace.avg_bw_utilization() * 100.0
    );
}
