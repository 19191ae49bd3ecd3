//! `fig01` — Figure 1 issue-slot taxonomy emitter.
//!
//! Runs the Figure 1 cell matrix (evaluation apps × ½×/1×/2× bandwidth on
//! the baseline design), checks taxonomy conservation on every cell
//! (`Σ buckets == cycles × schedulers × SMs`), and writes a machine-readable
//! `BENCH_fig01.json` whose per-cell derived rates all come from
//! [`RunStats::summary`](caba_sim::RunStats::summary).
//!
//! ```sh
//! cargo run --release -p caba-sweep --bin fig01 -- \
//!     --scale 0.25 --apps CONS --check --trace fig01_trace.json
//! ```
//!
//! `--trace PATH` reruns the first cell with full observability
//! ([`TraceConfig::full`] + [`MetricsLevel::Full`]) and writes its Perfetto
//! trace to PATH; the metric snapshot lands in the report under
//! `"traced_cell"`. `--check` validates every emitted JSON document with the
//! in-repo checker and exits nonzero on malformed output.

use caba_sim::{Gpu, GpuConfig, MetricsLevel, TraceConfig};
use caba_stats::json;
use caba_sweep::{fig01_cells, parse_positive, Sweep, SweepCell, SweepConfig};
use caba_workloads::app;

struct Args {
    scale: f64,
    jobs: usize,
    apps: Option<Vec<String>>,
    trace: Option<String>,
    check: bool,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: fig01 [--scale F] [--jobs N] [--apps A,B,..] \
         [--trace PATH] [--check] [--out PATH]\n\
         \n\
         --scale F      workload scale, finite and > 0 (default 0.25)\n\
         --jobs N       cells simulated at once (default: available parallelism)\n\
         --apps A,B     restrict to a comma-separated subset of apps\n\
         --trace PATH   rerun the first cell fully observed and write its\n\
                        Perfetto trace (plus a metric snapshot in the report)\n\
         --check        validate all emitted JSON with the in-repo checker\n\
         --out PATH     report path (default: BENCH_fig01.json)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.25,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        apps: None,
        trace: None,
        check: false,
        out: "BENCH_fig01.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.scale = parse_positive(&v).unwrap_or_else(|| {
                    eprintln!("fig01: --scale must be a finite number > 0, got {v:?}\n");
                    usage()
                });
            }
            "--jobs" => {
                args.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--apps" => {
                args.apps = Some(
                    it.next()
                        .unwrap_or_else(|| usage())
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--trace" => args.trace = Some(it.next().unwrap_or_else(|| usage())),
            "--check" => args.check = true,
            "--out" => args.out = it.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.jobs == 0 {
        usage();
    }
    args
}

/// Reruns `cell` with tracing and per-event metrics on; returns the metric
/// snapshot as JSON after writing the Perfetto trace to `path`.
fn run_traced_cell(cell: SweepCell, scale: f64, path: &str, check: bool) -> Result<String, String> {
    let spec = app(cell.app).ok_or_else(|| format!("unknown app {}", cell.app))?;
    let cfg = GpuConfig::isca2015_scaled()
        .with_bandwidth_scale(cell.bw_scale)
        .with_trace(TraceConfig::full(256))
        .with_metrics(MetricsLevel::Full);
    let mut gpu = Gpu::new(cfg, cell.design.make());
    spec.load_inputs(&mut gpu, scale);
    let stats = gpu
        .run(&spec.kernel(scale), 2_000_000_000)
        .map_err(|e| format!("traced cell {}: {e}", cell.app))?;
    let trace = gpu.take_trace().expect("tracing was enabled");
    let trace_json = trace.to_chrome_json();
    if check {
        json::validate(&trace_json).map_err(|e| format!("Perfetto trace JSON invalid: {e}"))?;
    }
    caba_store::write_file_atomic(std::path::Path::new(path), trace_json.as_bytes())
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "  traced {} @ {}x BW: {} samples, {} events -> {path}",
        cell.app,
        cell.bw_scale,
        trace.samples.len(),
        trace.events.len()
    );
    let snap = gpu.metrics_snapshot(&stats).expect("metrics were enabled");
    Ok(format!(
        "{{\"app\": \"{}\", \"bw\": {}, \"metrics\": {}}}",
        cell.app,
        json::fmt_f64(cell.bw_scale),
        snap.to_json()
    ))
}

fn main() -> std::process::ExitCode {
    let args = parse_args();
    let mut cells = fig01_cells();
    if let Some(apps) = &args.apps {
        cells.retain(|c| apps.iter().any(|a| a == c.app));
        if cells.is_empty() {
            eprintln!("no cells left after --apps filter");
            std::process::exit(2);
        }
    }
    let sc = SweepConfig {
        scale: args.scale,
        ..SweepConfig::default()
    };
    eprintln!(
        "fig01: {} cells at scale {} with {} jobs",
        cells.len(),
        sc.scale,
        args.jobs
    );
    let results = match Sweep::new(&sc, cells.clone()).jobs(args.jobs).run() {
        Ok(run) => run.results,
        Err(e) => {
            eprintln!("fig01: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };

    // Taxonomy conservation: every scheduler slot of every cycle must be in
    // exactly one Fig. 1 bucket.
    let slots_per_cycle = (sc.cfg.num_sms * sc.cfg.schedulers_per_sm) as u64;
    for r in &results {
        let expected = r.stats.cycles * slots_per_cycle;
        if r.stats.breakdown.total() != expected {
            eprintln!(
                "CONSERVATION VIOLATION {} @ {}x BW: buckets sum to {} but {} slots elapsed",
                r.cell.app,
                r.cell.bw_scale,
                r.stats.breakdown.total(),
                expected
            );
            std::process::exit(1);
        }
    }
    eprintln!(
        "  conservation OK: {} cells, {} slots/cycle",
        results.len(),
        slots_per_cycle
    );

    let traced = match args.trace.as_deref() {
        Some(path) => match run_traced_cell(cells[0], args.scale, path, args.check) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("fig01: {e}");
                return std::process::ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut s = String::with_capacity(4096 + 512 * results.len());
    s.push_str("{\n  \"schema\": \"caba-fig01-v1\",\n");
    s.push_str(&format!("  \"scale\": {},\n", json::fmt_f64(args.scale)));
    s.push_str(&format!("  \"num_cells\": {},\n", results.len()));
    if let Some(t) = traced {
        s.push_str(&format!("  \"traced_cell\": {t},\n"));
    }
    s.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"app\": \"{}\", \"bw\": {}, \"summary\": {}}}{sep}\n",
            r.cell.app,
            json::fmt_f64(r.cell.bw_scale),
            r.stats.summary().to_json()
        ));
    }
    s.push_str("  ]\n}\n");
    if args.check {
        if let Err(e) = json::validate(&s) {
            eprintln!("fig01: report JSON invalid: {e}");
            return std::process::ExitCode::FAILURE;
        }
        eprintln!("  JSON validity check OK");
    }
    if let Err(e) = caba_store::write_file_atomic(std::path::Path::new(&args.out), s.as_bytes()) {
        eprintln!("fig01: writing {}: {e}", args.out);
        return std::process::ExitCode::FAILURE;
    }
    eprintln!("report written to {}", args.out);
    std::process::ExitCode::SUCCESS
}
