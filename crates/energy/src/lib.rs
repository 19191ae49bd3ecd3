//! An event-based GPU energy model — the GPUWattch + CACTI stand-in used to
//! regenerate Figure 9 (normalized energy) and the §6.2 power analysis.
//!
//! The paper models "the static and dynamic energy of the cores, caches,
//! DRAM, and all buses (both on-chip and off-chip), as well as the energy
//! overheads related to compression: metadata (MD) cache and
//! compression/decompression logic". We charge a per-event energy for each
//! of those components from the [`RunStats`] a simulation produces. The
//! constants are in the published ballpark for a 40 nm-class GPU (GPUWattch,
//! Leng et al., ISCA 2013) but we claim only the *shape*: energy savings
//! are dominated by reduced DRAM traffic and shorter execution, CABA adds
//! core-side instruction energy that dedicated hardware does not, and the
//! MD cache/compression logic overheads are small.
//!
//! # Examples
//!
//! ```
//! use caba_energy::energy;
//! use caba_sim::{Design, RunStats};
//!
//! let stats = RunStats { cycles: 1000, app_instructions: 2000, ..Default::default() };
//! let e = energy(&stats, Design::Base);
//! assert!(e.total_nj() > 0.0);
//! ```

use caba_sim::{Design, RunStats};

/// Per-event energy constants in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Per issued instruction (pipeline + register file), nJ.
    pub per_instruction: f64,
    /// Per L1 access.
    pub per_l1_access: f64,
    /// Per L2 access.
    pub per_l2_access: f64,
    /// Per shared-memory access.
    pub per_shared_access: f64,
    /// Per 32-byte interconnect flit.
    pub per_flit: f64,
    /// Per 32-byte DRAM burst (I/O + array).
    pub per_dram_burst: f64,
    /// Per DRAM row activation.
    pub per_activate: f64,
    /// Core static energy per SM-cycle.
    pub core_static_per_sm_cycle: f64,
    /// DRAM static energy per channel-cycle.
    pub dram_static_per_channel_cycle: f64,
    /// Per MD-cache lookup (8 KB cache, CACTI-style).
    pub per_md_lookup: f64,
    /// Per line (de)compressed in dedicated logic (Synopsys-style estimate
    /// the paper scaled to 32 nm).
    pub per_hw_codec_line: f64,
    /// SMs (for static energy).
    pub num_sms: f64,
    /// DRAM channels (for static energy).
    pub num_channels: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            per_instruction: 0.30,
            per_l1_access: 0.06,
            per_l2_access: 0.18,
            per_shared_access: 0.04,
            per_flit: 0.20,
            per_dram_burst: 5.0,
            per_activate: 2.0,
            core_static_per_sm_cycle: 0.20,
            dram_static_per_channel_cycle: 0.30,
            per_md_lookup: 0.01,
            per_hw_codec_line: 0.10,
            num_sms: 15.0,
            num_channels: 6.0,
        }
    }
}

/// Energy broken down by component, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core dynamic energy (instructions, both app and assist).
    pub core_dynamic: f64,
    /// Cache and shared-memory dynamic energy.
    pub caches: f64,
    /// Interconnect energy.
    pub icnt: f64,
    /// DRAM dynamic energy (bursts + activations).
    pub dram_dynamic: f64,
    /// DRAM static energy (scales with execution time).
    pub dram_static: f64,
    /// Core static energy (scales with execution time).
    pub core_static: f64,
    /// Compression overheads: MD cache + dedicated codec logic.
    pub compression_overhead: f64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.core_dynamic
            + self.caches
            + self.icnt
            + self.dram_dynamic
            + self.dram_static
            + self.core_static
            + self.compression_overhead
    }

    /// DRAM energy (dynamic + static) — the paper reports a 29.5% average
    /// DRAM power reduction for CABA-BDI.
    pub fn dram_nj(&self) -> f64 {
        self.dram_dynamic + self.dram_static
    }

    /// Average power in nanojoules/cycle (∝ watts at fixed frequency);
    /// `cycles` must come from the same run.
    pub fn avg_power(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total_nj() / cycles as f64
        }
    }
}

/// Computes the energy of one run with default parameters.
pub fn energy(stats: &RunStats, design: Design) -> EnergyBreakdown {
    energy_with(stats, design, &EnergyParams::default())
}

/// Computes the energy of one run with explicit parameters. The design
/// decides the compression overhead: none for Base and the Ideal designs,
/// codec lines for dedicated logic, and for CABA only the MD cache (its
/// assist instructions are already in the instruction count).
pub fn energy_with(stats: &RunStats, design: Design, p: &EnergyParams) -> EnergyBreakdown {
    let instructions = (stats.app_instructions + stats.assist_instructions) as f64;
    let core_dynamic = instructions * p.per_instruction;
    let caches = (stats.l1_hits + stats.l1_misses) as f64 * p.per_l1_access
        + (stats.l2_hits + stats.l2_misses) as f64 * p.per_l2_access
        + stats.shared_accesses as f64 * p.per_shared_access;
    let icnt = stats.icnt_flits as f64 * p.per_flit;
    let dram_dynamic =
        stats.dram_bursts as f64 * p.per_dram_burst + stats.dram_activates as f64 * p.per_activate;
    let dram_static = stats.cycles as f64 * p.num_channels * p.dram_static_per_channel_cycle;
    let core_static = stats.cycles as f64 * p.num_sms * p.core_static_per_sm_cycle;
    let compression_overhead = match design {
        Design::Base | Design::HwFull { ideal: true } => 0.0,
        Design::HwMemOnly | Design::HwFull { ideal: false } => {
            stats.md_lookups as f64 * p.per_md_lookup
                + (stats.lines_compressed + stats.lines_decompressed) as f64 * p.per_hw_codec_line
        }
        Design::Caba(_) => stats.md_lookups as f64 * p.per_md_lookup,
    };
    EnergyBreakdown {
        core_dynamic,
        caches,
        icnt,
        dram_dynamic,
        dram_static,
        core_static,
        compression_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_sim::CabaMode;

    const HW: Design = Design::HwFull { ideal: false };
    const IDEAL: Design = Design::HwFull { ideal: true };
    const CABA: Design = Design::Caba(CabaMode::Bdi);

    fn base_stats() -> RunStats {
        RunStats {
            cycles: 10_000,
            app_instructions: 50_000,
            l1_hits: 5_000,
            l1_misses: 5_000,
            l2_hits: 2_000,
            l2_misses: 3_000,
            icnt_flits: 20_000,
            dram_bursts: 12_000,
            dram_activates: 1_500,
            shared_accesses: 100,
            ..Default::default()
        }
    }

    #[test]
    fn totals_are_positive_and_additive() {
        let e = energy(&base_stats(), Design::Base);
        let sum = e.core_dynamic
            + e.caches
            + e.icnt
            + e.dram_dynamic
            + e.dram_static
            + e.core_static
            + e.compression_overhead;
        assert!(e.total_nj() > 0.0);
        assert!((e.total_nj() - sum).abs() < 1e-9);
        assert!(e.avg_power(10_000) > 0.0);
        assert_eq!(e.avg_power(0), 0.0);
    }

    #[test]
    fn fewer_bursts_and_cycles_save_energy() {
        let base = energy(&base_stats(), Design::Base);
        let mut improved = base_stats();
        improved.dram_bursts /= 2;
        improved.cycles = 7_000;
        improved.icnt_flits /= 2;
        let better = energy(&improved, Design::Base);
        assert!(better.total_nj() < base.total_nj());
        assert!(better.dram_nj() < base.dram_nj());
    }

    #[test]
    fn caba_charges_assist_instructions_not_codec_lines() {
        let mut s = base_stats();
        s.assist_instructions = 10_000;
        s.lines_compressed = 1_000;
        s.lines_decompressed = 2_000;
        s.md_lookups = 5_000;
        let caba = energy(&s, CABA);
        let hw = energy(&s, HW);
        // Same stats: CABA pays instruction energy; HW pays codec energy.
        assert!(caba.core_dynamic == hw.core_dynamic);
        assert!(hw.compression_overhead > caba.compression_overhead);
        let ideal = energy(&s, IDEAL);
        assert_eq!(ideal.compression_overhead, 0.0);
    }

    #[test]
    fn static_energy_scales_with_time() {
        let mut slow = base_stats();
        slow.cycles *= 2;
        let e_fast = energy(&base_stats(), Design::Base);
        let e_slow = energy(&slow, Design::Base);
        assert!((e_slow.core_static - 2.0 * e_fast.core_static).abs() < 1e-9);
        assert!((e_slow.dram_static - 2.0 * e_fast.dram_static).abs() < 1e-9);
    }

    #[test]
    fn custom_params_respected() {
        let p = EnergyParams {
            per_instruction: 0.0,
            core_static_per_sm_cycle: 0.0,
            ..Default::default()
        };
        let e = energy_with(&base_stats(), Design::Base, &p);
        assert_eq!(e.core_dynamic, 0.0);
        assert_eq!(e.core_static, 0.0);
        assert!(e.dram_dynamic > 0.0);
    }
}
