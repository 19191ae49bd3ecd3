//! The canonical cell identity: [`CellSpec`] is the single hashable,
//! serializable description of one simulation cell, and [`run_cell`] is
//! the one kernel entry point every executor layers over.
//!
//! A cell is fully determined by `(app, design, bw_scale, workload scale,
//! machine config)` — the fault-injection seed lives inside [`GpuConfig`],
//! so it is covered by the canonical config hash. Everything downstream
//! (the durable result store and the `caba-serve` HTTP service) keys work
//! by [`CellSpec::content_hash`], so both provably agree on what "the
//! same cell" means: the agreement is pinned by
//! `keys_agree_across_journal_store_and_server` in `resilient.rs`.
//!
//! [`GpuConfig`]: caba_sim::GpuConfig

use crate::{CellResult, DesignId, SweepCell, SweepConfig};
use caba_sim::snapshot::config_hash;
use caba_sim::{GpuConfig, RunError};
use caba_stats::checksum::{hex16, Fnv64};
use caba_workloads::{app, run_app};
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// The single canonical description of one simulation cell.
///
/// Unlike [`SweepCell`] (which identifies a point in a figure's matrix and
/// leans on a shared [`SweepConfig`] for the rest), a `CellSpec` is
/// self-contained: two equal specs denote bit-identical simulations, and
/// [`content_hash`](CellSpec::content_hash) is a stable content key for
/// memoizing their results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Application name (resolvable via [`caba_workloads::app`]).
    pub app: &'static str,
    /// The design point.
    pub design: DesignId,
    /// Bandwidth scale applied to the machine configuration.
    pub bw_scale: f64,
    /// Workload scale factor (grid/working-set size).
    pub scale: f64,
    /// The machine configuration **before** per-cell bandwidth scaling.
    /// Record-only knobs are canonicalized out of the content hash (see
    /// [`config_hash`]); the fault-injection seed is in.
    pub cfg: GpuConfig,
}

impl CellSpec {
    /// Assembles the spec for `cell` under sweep-wide options `sc`.
    pub fn new(sc: &SweepConfig, cell: SweepCell) -> Self {
        CellSpec {
            app: cell.app,
            design: cell.design,
            bw_scale: cell.bw_scale,
            scale: sc.scale,
            cfg: sc.cfg,
        }
    }

    /// Resolves user-supplied strings (an HTTP request, a CLI flag) into a
    /// spec. The app name is interned against the workload registry so the
    /// spec carries the registry's `&'static str`.
    ///
    /// # Errors
    ///
    /// [`ResolveError::UnknownApp`] if no app has that name, and
    /// [`ResolveError::Bandwidth`] if `cfg` cannot run `bw_scale` exactly
    /// (`DramConfig::scales_bandwidth_exactly`): such a cell would run
    /// another bandwidth than its key and label name.
    pub fn resolve(
        app_name: &str,
        design: DesignId,
        bw_scale: f64,
        scale: f64,
        cfg: GpuConfig,
    ) -> Result<Self, ResolveError> {
        let app = app(app_name).ok_or_else(|| ResolveError::UnknownApp(app_name.to_string()))?;
        if !cfg.dram.scales_bandwidth_exactly(bw_scale) {
            return Err(ResolveError::Bandwidth {
                bw: bw_scale,
                burst_cycles: cfg.dram.burst_cycles,
            });
        }
        Ok(CellSpec {
            app: app.name,
            design,
            bw_scale,
            scale,
            cfg,
        })
    }

    /// The figure-matrix view of this spec.
    pub fn cell(&self) -> SweepCell {
        SweepCell {
            app: self.app,
            design: self.design,
            bw_scale: self.bw_scale,
        }
    }

    /// Content hash of the sweep this cell belongs to: the canonicalized
    /// machine configuration plus the workload scale. A sweep journal's
    /// header carries this value.
    pub fn sweep_hash(&self) -> u64 {
        sweep_hash(&self.cfg, self.scale)
    }

    /// Content hash identifying this cell: [`sweep_hash`] folded with the
    /// app, design label, and bandwidth scale, via [`caba_stats::checksum`].
    ///
    /// This is **the** cell key. The durable result store and the
    /// `caba-serve` service both derive their keys here, so a result
    /// persisted by either warm-starts the other.
    ///
    /// [`sweep_hash`]: CellSpec::sweep_hash
    pub fn content_hash(&self) -> u64 {
        self.content_hash_in(self.sweep_hash())
    }

    /// [`content_hash`](CellSpec::content_hash) given this spec's own
    /// [`sweep_hash`](CellSpec::sweep_hash). The sweep hash formats the
    /// whole machine configuration and costs several times the rest of the
    /// key, so a caller holding many cells of one sweep derives it once
    /// ([`SweepConfig::sweep_hash`]).
    ///
    /// The key is the checksum of `"{sweep_hash:016x}|{app}|{design}|
    /// {bw_scale bits:016x}"`; the fields are streamed into the hasher, so
    /// the text is never built.
    pub fn content_hash_in(&self, sweep_hash: u64) -> u64 {
        debug_assert_eq!(sweep_hash, self.sweep_hash(), "another sweep's hash");
        Fnv64::new()
            .update(&hex16(sweep_hash))
            .update(b"|")
            .update(self.app.as_bytes())
            .update(b"|")
            .update(self.design.label().as_bytes())
            .update(b"|")
            .update(&hex16(self.bw_scale.to_bits()))
            .finish()
    }

    /// Human-readable provenance label recorded next to stored results.
    pub fn label(&self) -> String {
        format!(
            "cell {}/{} @ {}x BW scale {}",
            self.app,
            self.design.label(),
            self.bw_scale,
            self.scale
        )
    }
}

/// [`CellSpec::sweep_hash`] from the two fields it covers: the checksum of
/// `"{config_hash:016x}|{scale bits:016x}"`.
fn sweep_hash(cfg: &GpuConfig, scale: f64) -> u64 {
    Fnv64::new()
        .update(&hex16(config_hash(cfg)))
        .update(b"|")
        .update(&hex16(scale.to_bits()))
        .finish()
}

impl SweepConfig {
    /// The [`CellSpec::sweep_hash`] every cell built from these options
    /// ([`CellSpec::new`]) has.
    pub fn sweep_hash(&self) -> u64 {
        sweep_hash(&self.cfg, self.scale)
    }
}

/// A finite, strictly positive number — the only kind the machine model
/// accepts as a workload or bandwidth scale. Every place a scale enters the
/// program from outside (CLI flag, environment, HTTP request) parses it
/// here.
#[inline]
pub fn parse_positive(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite() && *v > 0.0)
}

/// Runs one cell from scratch and returns its result — the single kernel
/// entry point, which the per-cell path
/// ([`run_cell_stored`](crate::run_cell_stored)) wraps for the sweep
/// builder and the HTTP service alike.
///
/// # Errors
///
/// Propagates the simulator's [`RunError`] (timeout, hang, audit failure)
/// — deterministic by construction, so callers never retry it.
///
/// # Panics
///
/// Panics if `spec.app` does not resolve. Specs built through
/// [`CellSpec::resolve`] or from figure cell lists cannot hit this; the
/// per-cell path catches the panic of a hand-built bad spec and reports
/// it as [`CellFailure::Panic`](crate::CellFailure::Panic).
pub fn run_cell(spec: &CellSpec) -> Result<CellResult, RunError> {
    let app_spec = app(spec.app).unwrap_or_else(|| panic!("unknown app {}", spec.app));
    let cfg = spec.cfg.with_bandwidth_scale(spec.bw_scale);
    let t0 = Instant::now();
    let stats = run_app(&app_spec, cfg, spec.design.make(), spec.scale)?;
    Ok(CellResult {
        cell: spec.cell(),
        stats,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// Why [`CellSpec::resolve`] refused a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    /// No registered app has this name.
    UnknownApp(String),
    /// The machine cannot run this bandwidth scale: a burst holds the DRAM
    /// bus a whole number of cycles, `burst_cycles` at 1×.
    Bandwidth {
        /// The bandwidth scale asked for.
        bw: f64,
        /// Cycles per burst of the unscaled machine.
        burst_cycles: u64,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::UnknownApp(name) => write!(f, "unknown app {name:?}"),
            ResolveError::Bandwidth { bw, burst_cycles } => {
                let b = *burst_cycles as f64;
                write!(
                    f,
                    "bw {bw} is not representable: a burst holds the DRAM bus a whole \
                     number of cycles, so bw must be {b}/k for a whole k >= 1 ({}, {}, {}, {}, ...)",
                    b,
                    b / 2.0,
                    b / 3.0,
                    b / 4.0
                )
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// A design label that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDesignError(pub String);

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown design {:?} (expected one of: ", self.0)?;
        for (i, d) in DesignId::ALL.iter().enumerate() {
            write!(f, "{}{}", if i > 0 { ", " } else { "" }, d.label())?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for ParseDesignError {}

impl fmt::Display for DesignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for DesignId {
    type Err = ParseDesignError;

    /// Parses a paper label (`"CABA-BDI"`), ASCII-case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DesignId::ALL
            .into_iter()
            .find(|d| d.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseDesignError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_sim::GpuConfig;

    fn tiny_spec() -> CellSpec {
        CellSpec {
            app: "CONS",
            design: DesignId::Base,
            bw_scale: 1.0,
            scale: 0.05,
            cfg: GpuConfig::small(),
        }
    }

    #[test]
    fn content_hash_is_stable_and_sensitive_to_every_identity_field() {
        let spec = tiny_spec();
        let base = spec.content_hash();
        assert_eq!(base, tiny_spec().content_hash(), "hash is a pure function");

        let mut other = spec;
        other.design = DesignId::CabaBdi;
        assert_ne!(base, other.content_hash(), "design is identity");
        let mut other = spec;
        other.bw_scale = 0.5;
        assert_ne!(base, other.content_hash(), "bandwidth is identity");
        let mut other = spec;
        other.scale = 0.1;
        assert_ne!(base, other.content_hash(), "workload scale is identity");
        let mut other = spec;
        other.cfg.mshrs += 1;
        assert_ne!(base, other.content_hash(), "machine config is identity");
        let mut other = spec;
        other.cfg.fault.seed = other.cfg.fault.seed.wrapping_add(1);
        assert_ne!(base, other.content_hash(), "fault seed is identity");

        // Record-only knobs and the inert `intra_jobs` are canonicalized
        // away: the same cell computed with tracing on is the same cell.
        let mut tolerated = spec;
        tolerated.cfg.intra_jobs = 4;
        tolerated.cfg = tolerated.cfg.with_trace(caba_sim::TraceConfig::full(1));
        assert_eq!(base, tolerated.content_hash());
    }

    #[test]
    fn resolve_interns_app_names_and_rejects_unknown() {
        let spec = CellSpec::resolve("CONS", DesignId::Base, 1.0, 0.05, GpuConfig::small())
            .expect("CONS resolves");
        assert_eq!(spec.app, "CONS");
        let err = CellSpec::resolve("NOPE", DesignId::Base, 1.0, 0.05, GpuConfig::small());
        assert_eq!(err, Err(ResolveError::UnknownApp("NOPE".into())));
    }

    /// A bandwidth scale either resolves and runs exactly that bandwidth
    /// (the unscaled burst over the scaled one is the scale, bit for bit),
    /// or is refused: `with_bandwidth_scale` rounds to a whole cycle, and a
    /// rounded cell would run another machine than its key names. Every
    /// 2/k resolves, as the refusal says.
    #[test]
    fn resolve_refuses_every_bandwidth_the_bus_would_round() {
        let cfg = GpuConfig::isca2015_scaled();
        assert_eq!(cfg.dram.burst_cycles, 2, "Table 1's burst");
        let exact = |bw: f64| {
            let spec = CellSpec::resolve("CONS", DesignId::Base, bw, 0.05, cfg);
            let burst = cfg.with_bandwidth_scale(bw).dram.burst_cycles;
            match spec {
                Ok(spec) => {
                    assert_eq!(2.0 / burst as f64, spec.bw_scale, "bw {bw:e}");
                    true
                }
                Err(e) => {
                    assert!(matches!(e, ResolveError::Bandwidth { .. }), "{e}");
                    assert!(e.to_string().contains("2/k for a whole k"), "{e}");
                    false
                }
            }
        };
        for bw in [2.0, 1.0, 0.5, 0.4, 0.25] {
            assert!(exact(bw), "{bw}");
        }
        for bw in [3.0, 1.2, 0.45, 4.0, 1e-300] {
            assert!(!exact(bw), "{bw}");
        }
        caba_stats::prop::check(0xB4_D7, 20_000, |rng| {
            let bits = rng.range_u64(32);
            let k = 1 + rng.range_u64(1 << bits);
            assert!(exact(2.0 / k as f64), "2/{k}");
            exact(f64::from_bits(
                (2.0 / k as f64).to_bits() + rng.range_u64(5) - 2,
            ));
            exact(rng.next_f64() * 4.0);
            exact((rng.range_u64(4_000) + 1) as f64 / 1_000.0);
            exact(f64::from_bits(rng.next_u64() % 0x7FF0_0000_0000_0000).max(f64::MIN_POSITIVE));
        });
    }

    #[test]
    fn run_cell_produces_the_same_stats_as_run_app() {
        let spec = tiny_spec();
        let result = run_cell(&spec).expect("cell runs");
        let reference = caba_workloads::run_app(
            &caba_workloads::app("CONS").unwrap(),
            spec.cfg,
            spec.design.make(),
            spec.scale,
        )
        .expect("reference runs");
        assert_eq!(result.stats, reference);
        assert_eq!(result.cell, spec.cell());
    }

    #[test]
    fn design_labels_round_trip_through_fromstr_display() {
        for d in DesignId::ALL {
            let parsed: DesignId = d.label().parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(parsed, d);
            assert_eq!(format!("{d}"), d.label());
        }
        // Case-insensitive, and garbage is a typed error.
        assert_eq!("caba-bdi".parse::<DesignId>().unwrap(), DesignId::CabaBdi);
        let err = "Turbo-BDI".parse::<DesignId>().unwrap_err();
        assert!(err.to_string().contains("Turbo-BDI"));
    }
}
