//! The synthetic GPGPU workload suite standing in for the paper's 27
//! CUDA-SDK / Rodinia / Mars / Lonestar benchmarks.
//!
//! The paper's evaluation depends on three properties of each application:
//! how memory-bound it is (Figure 1), how compressible its data is under
//! each algorithm (Figure 11), and its static resource footprint (Figure 2).
//! Since the original CUDA binaries cannot be executed by a from-scratch
//! simulator, each application is re-expressed as a [`KernelTemplate`]
//! (computational skeleton) over a [`DataProfile`] (compressibility
//! profile), with per-app register/block parameters. See `DESIGN.md` for
//! the substitution rationale.
//!
//! # Examples
//!
//! Run one application end to end:
//!
//! ```no_run
//! use caba_workloads::{app, run_app};
//! use caba_sim::{Design, GpuConfig};
//!
//! let mm = app("MM").expect("known app");
//! let stats = run_app(&mm, GpuConfig::isca2015_scaled(), Design::Base, 0.25)
//!     .expect("completes");
//! println!("MM IPC = {:.2}", stats.ipc());
//! ```

pub mod apps;
pub mod data;
pub mod kernels;

pub use apps::{all_apps, app, eval_apps, AppClass, AppSpec, Suite};
pub use data::DataProfile;
pub use kernels::KernelTemplate;

use caba_sim::{Design, Gpu, GpuConfig, Kernel, RunError, RunStats};

/// Default cycle budget for a full application run.
pub const DEFAULT_MAX_CYCLES: u64 = 200_000_000;

/// Builds the machine and kernel for an application without running it:
/// a fresh GPU with the app's (deterministic) input image loaded, paired
/// with the scaled kernel. Checkpoint-based harnesses use this to warm a
/// machine up, snapshot it, and fork the suffix; [`run_app`] is this plus
/// a full run.
pub fn prepare_app(app: &AppSpec, cfg: GpuConfig, design: Design, scale: f64) -> (Gpu, Kernel) {
    let mut gpu = Gpu::new(cfg, design);
    app.load_inputs(&mut gpu, scale);
    (gpu, app.kernel(scale))
}

/// Builds a GPU, loads the application's inputs, runs it, and returns the
/// statistics.
///
/// `scale` scales the grid and working set (1.0 = the suite's standard
/// size; the figure harnesses use smaller scales for quick runs).
///
/// # Errors
///
/// Propagates the simulator's [`RunError`]. A hang's report carries the
/// trace of its last watchdog window ([`Gpu::replay_hang`], which reloads
/// the inputs into a fresh machine); a run that does not hang pays
/// nothing for it.
pub fn run_app(
    app: &AppSpec,
    cfg: GpuConfig,
    design: Design,
    scale: f64,
) -> Result<RunStats, RunError> {
    let (mut gpu, kernel) = prepare_app(app, cfg, design, scale);
    let mut result = gpu.run(&kernel, DEFAULT_MAX_CYCLES);
    if let Err(RunError::Hang { report, .. }) = &mut result {
        report.trace_path = gpu.replay_hang(&kernel, |g| app.load_inputs(g, scale));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_sim::CabaMode;

    #[test]
    fn representative_apps_run_on_small_config() {
        // One app per template family, at a small scale.
        for name in ["CONS", "BFS", "MUM", "LPS", "MM", "bp", "dmr"] {
            let a = app(name).expect(name);
            let stats = run_app(&a, GpuConfig::small(), Design::Base, 0.05)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(stats.cycles > 0, "{name}");
            assert!(stats.app_instructions > 0, "{name}");
            assert!(stats.threads_retired > 0, "{name}");
        }
    }

    #[test]
    fn memory_bound_apps_stress_dram_more_than_compute_bound() {
        let mem = app("CONS").unwrap();
        let comp = app("bp").unwrap();
        let sm = run_app(&mem, GpuConfig::small(), Design::Base, 0.1).unwrap();
        let sc = run_app(&comp, GpuConfig::small(), Design::Base, 0.1).unwrap();
        assert!(
            sm.bandwidth_utilization() > sc.bandwidth_utilization(),
            "mem {:.2} vs comp {:.2}",
            sm.bandwidth_utilization(),
            sc.bandwidth_utilization()
        );
    }

    #[test]
    fn compute_bound_app_insensitive_to_bandwidth() {
        let a = app("bp").unwrap();
        let full = run_app(&a, GpuConfig::small(), Design::Base, 0.1).unwrap();
        let half = run_app(
            &a,
            GpuConfig::small().with_bandwidth_scale(0.5),
            Design::Base,
            0.1,
        )
        .unwrap();
        let slowdown = half.cycles as f64 / full.cycles as f64;
        assert!(slowdown < 1.3, "slowdown {slowdown}");
    }

    #[test]
    fn memory_bound_app_sensitive_to_bandwidth() {
        let a = app("CONS").unwrap();
        let full = run_app(&a, GpuConfig::small(), Design::Base, 0.1).unwrap();
        let half = run_app(
            &a,
            GpuConfig::small().with_bandwidth_scale(0.5),
            Design::Base,
            0.1,
        )
        .unwrap();
        let slowdown = half.cycles as f64 / full.cycles as f64;
        assert!(slowdown > 1.3, "slowdown {slowdown}");
    }

    #[test]
    fn outputs_match_cpu_reference_on_base_and_caba() {
        for name in ["CONS", "BFS", "LPS", "MUM"] {
            let a = app(name).expect(name);
            let scale = 0.05;
            // Base design.
            let mut gpu = Gpu::new(GpuConfig::small(), Design::Base);
            a.load_inputs(&mut gpu, scale);
            gpu.run(&a.kernel(scale), DEFAULT_MAX_CYCLES).unwrap();
            let checked = a.verify_output(&gpu, scale).expect("verifiable template");
            assert!(checked > 0, "{name}");
            // CABA-BDI must produce identical outputs (assist warps are
            // functionally transparent).
            let caba = Design::Caba(CabaMode::Bdi);
            let mut gpu = Gpu::new(GpuConfig::small(), caba);
            a.load_inputs(&mut gpu, scale);
            gpu.run(&a.kernel(scale), DEFAULT_MAX_CYCLES).unwrap();
            a.verify_output(&gpu, scale).expect("verifiable template");
        }
    }

    /// With every crossbar packet silently dropped the machine wedges:
    /// the hang's report names its replay trace with no setting asked, and
    /// a timeout's report names none.
    #[test]
    fn a_hang_carries_its_replay_trace_and_a_timeout_none() {
        use caba_sim::{FaultConfig, FaultMode};
        let a = app("CONS").unwrap();
        let mut cfg = GpuConfig::small();
        cfg.watchdog_window = 2_000;
        cfg.fault = FaultConfig {
            enabled: true,
            mode: FaultMode::Silent,
            drop_flit_rate: 1.0,
            ..FaultConfig::disabled()
        };
        let err = run_app(&a, cfg, Design::Base, 0.05).unwrap_err();
        let RunError::Hang { report, .. } = &err else {
            panic!("expected a hang, got: {err}");
        };
        let path = report.trace_path.as_ref().expect("a hang is replayed");
        let trace = std::fs::read_to_string(path).expect("the trace file exists");
        std::fs::remove_file(path).ok();
        assert!(caba_stats::json::validate(&trace).is_ok());
        assert!(err
            .to_string()
            .contains(&format!("forensics trace: {path}")));

        let (mut gpu, kernel) = prepare_app(&a, cfg, Design::Base, 0.05);
        let err = gpu.run(&kernel, 1_000).unwrap_err();
        assert!(matches!(&err, RunError::Timeout { report, .. } if report.trace_path.is_none()));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = app("JPEG").unwrap();
        let s1 = run_app(&a, GpuConfig::small(), Design::Base, 0.05).unwrap();
        let s2 = run_app(&a, GpuConfig::small(), Design::Base, 0.05).unwrap();
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.app_instructions, s2.app_instructions);
        assert_eq!(s1.dram_bursts, s2.dram_bursts);
    }
}
