//! Aggregated run statistics — every metric the paper's figures report.
//!
//! [`RunStats`] holds raw integer counters (and derives `Eq`, so determinism
//! tests compare runs bit-for-bit). Every *derived* rate lives in
//! [`StatsSummary`], produced by [`RunStats::summary`] — the single source
//! of IPC, hit rates, utilization, and Fig. 1 issue-slot fractions for every
//! report the workspace emits.

use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use caba_stats::{json, IssueBreakdown, StallKind};

/// Statistics of one kernel run, aggregated over all SMs and partitions.
///
/// Derives `PartialEq`/`Eq` so the sweep executor's determinism selftest can
/// assert parallel results are bit-identical to serial ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total GPU cycles to completion.
    pub cycles: u64,
    /// Instructions issued by parent (application) warps.
    pub app_instructions: u64,
    /// Instructions issued by assist warps (CABA overhead, §6.2).
    pub assist_instructions: u64,
    /// Per-scheduler-slot issue breakdown (Figure 1).
    pub breakdown: IssueBreakdown,
    /// L1 hits / misses over all SMs.
    pub l1_hits: u64,
    /// L1 misses over all SMs.
    pub l1_misses: u64,
    /// L2 hits over all partitions.
    pub l2_hits: u64,
    /// L2 misses over all partitions.
    pub l2_misses: u64,
    /// DRAM data-bus busy cycles (all channels).
    pub dram_busy_cycles: u64,
    /// DRAM channel-cycles elapsed (all channels; = cycles × channels).
    pub dram_total_cycles: u64,
    /// DRAM bursts transferred.
    pub dram_bursts: u64,
    /// DRAM row-buffer activations (row misses).
    pub dram_activates: u64,
    /// Interconnect flits, both directions.
    pub icnt_flits: u64,
    /// Metadata-cache lookups (compressed designs).
    pub md_lookups: u64,
    /// Metadata-cache misses (each cost an extra DRAM access).
    pub md_misses: u64,
    /// DRAM burst-cycles spent servicing metadata-cache refills — the
    /// MD-cache overhead the paper's Fig. 14 design space trades against
    /// (§4.3.2).
    pub md_stall_cycles: u64,
    /// Assist warps launched.
    pub assist_launches: u64,
    /// Issue slots where a high-priority assist warp (decompression on the
    /// critical fill path) issued ahead of ready application warps —
    /// the Fig. 13 "assist steals a slot" overhead.
    pub assist_slots_stolen: u64,
    /// Issue slots where a low-priority assist warp issued in a slot no
    /// application warp could use (free compute, §3.3).
    pub assist_slots_reclaimed: u64,
    /// Store-buffer overflows (lines released uncompressed, §4.2.2 Ï).
    pub store_buffer_overflows: u64,
    /// Lines whose compression assist ran to completion.
    pub lines_compressed: u64,
    /// Lines decompressed (by assist warp or dedicated logic).
    pub lines_decompressed: u64,
    /// Shared-memory (scratchpad) accesses.
    pub shared_accesses: u64,
    /// Threads completed.
    pub threads_retired: u64,
    /// Invariant audits executed (each covers the whole machine).
    pub audits_run: u64,
    /// Crossbar packets dropped by fault injection.
    pub flits_dropped: u64,
    /// Dropped packets recovered by link-level retransmission
    /// (`FaultMode::Recover`).
    pub flit_retransmissions: u64,
    /// DRAM requests held back by fault injection.
    pub dram_delay_faults: u64,
    /// Compressed lines corrupted by fault injection.
    pub lines_corrupted: u64,
    /// Corrupted lines caught by round-trip verification at the fill
    /// boundary.
    pub corruptions_detected: u64,
    /// Detected-corrupt lines refetched from memory.
    pub corruption_refetches: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl RunStats {
    /// Computes every derived rate in one place. All reports (sweep JSON,
    /// diagnostics, figure emitters) must go through this — never hand-roll
    /// an IPC or hit-rate division elsewhere. Denominators saturate: a
    /// stored payload decodes to whatever counters it holds, and no counter
    /// pair may panic or wrap the rendering.
    pub fn summary(&self) -> StatsSummary {
        let mut issue_fractions = [0.0; StallKind::ALL.len()];
        for (f, k) in issue_fractions.iter_mut().zip(StallKind::ALL) {
            *f = self.breakdown.fraction(k);
        }
        StatsSummary {
            cycles: self.cycles,
            app_instructions: self.app_instructions,
            assist_instructions: self.assist_instructions,
            ipc: ratio(self.app_instructions, self.cycles),
            assist_fraction: ratio(
                self.assist_instructions,
                self.app_instructions
                    .saturating_add(self.assist_instructions),
            ),
            l1_hit_rate: ratio(self.l1_hits, self.l1_hits.saturating_add(self.l1_misses)),
            l2_hit_rate: ratio(self.l2_hits, self.l2_hits.saturating_add(self.l2_misses)),
            md_hit_rate: if self.md_lookups == 0 {
                0.0
            } else {
                1.0 - ratio(self.md_misses, self.md_lookups)
            },
            bandwidth_utilization: ratio(self.dram_busy_cycles, self.dram_total_cycles),
            icnt_flits: self.icnt_flits,
            md_stall_cycles: self.md_stall_cycles,
            assist_slots_stolen: self.assist_slots_stolen,
            assist_slots_reclaimed: self.assist_slots_reclaimed,
            issue_fractions,
        }
    }

    /// Instructions per cycle — the paper's primary performance metric (§5).
    pub fn ipc(&self) -> f64 {
        self.summary().ipc
    }

    /// DRAM data-bus utilization (the Figure 8 metric).
    pub fn bandwidth_utilization(&self) -> f64 {
        self.summary().bandwidth_utilization
    }

    /// MD-cache hit rate (§4.3.2; paper reports 85% average).
    pub fn md_hit_rate(&self) -> f64 {
        self.summary().md_hit_rate
    }

    /// L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        self.summary().l1_hit_rate
    }

    /// L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        self.summary().l2_hit_rate
    }

    /// Fraction of issued instructions that belonged to assist warps.
    pub fn assist_fraction(&self) -> f64 {
        self.summary().assist_fraction
    }
}

impl SnapshotState for RunStats {
    fn save(&self, w: &mut SnapshotWriter) {
        self.cycles.save(w);
        self.app_instructions.save(w);
        self.assist_instructions.save(w);
        self.breakdown.save(w);
        self.l1_hits.save(w);
        self.l1_misses.save(w);
        self.l2_hits.save(w);
        self.l2_misses.save(w);
        self.dram_busy_cycles.save(w);
        self.dram_total_cycles.save(w);
        self.dram_bursts.save(w);
        self.dram_activates.save(w);
        self.icnt_flits.save(w);
        self.md_lookups.save(w);
        self.md_misses.save(w);
        self.md_stall_cycles.save(w);
        self.assist_launches.save(w);
        self.assist_slots_stolen.save(w);
        self.assist_slots_reclaimed.save(w);
        self.store_buffer_overflows.save(w);
        self.lines_compressed.save(w);
        self.lines_decompressed.save(w);
        self.shared_accesses.save(w);
        self.threads_retired.save(w);
        self.audits_run.save(w);
        self.flits_dropped.save(w);
        self.flit_retransmissions.save(w);
        self.dram_delay_faults.save(w);
        self.lines_corrupted.save(w);
        self.corruptions_detected.save(w);
        self.corruption_refetches.save(w);
    }

    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(RunStats {
            cycles: u64::load(r)?,
            app_instructions: u64::load(r)?,
            assist_instructions: u64::load(r)?,
            breakdown: IssueBreakdown::load(r)?,
            l1_hits: u64::load(r)?,
            l1_misses: u64::load(r)?,
            l2_hits: u64::load(r)?,
            l2_misses: u64::load(r)?,
            dram_busy_cycles: u64::load(r)?,
            dram_total_cycles: u64::load(r)?,
            dram_bursts: u64::load(r)?,
            dram_activates: u64::load(r)?,
            icnt_flits: u64::load(r)?,
            md_lookups: u64::load(r)?,
            md_misses: u64::load(r)?,
            md_stall_cycles: u64::load(r)?,
            assist_launches: u64::load(r)?,
            assist_slots_stolen: u64::load(r)?,
            assist_slots_reclaimed: u64::load(r)?,
            store_buffer_overflows: u64::load(r)?,
            lines_compressed: u64::load(r)?,
            lines_decompressed: u64::load(r)?,
            shared_accesses: u64::load(r)?,
            threads_retired: u64::load(r)?,
            audits_run: u64::load(r)?,
            flits_dropped: u64::load(r)?,
            flit_retransmissions: u64::load(r)?,
            dram_delay_faults: u64::load(r)?,
            lines_corrupted: u64::load(r)?,
            corruptions_detected: u64::load(r)?,
            corruption_refetches: u64::load(r)?,
        })
    }
}

/// Every derived rate of one run, plus the headline counters they came
/// from — the single serializable summary consumed by sweep reports and
/// figure emitters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSummary {
    /// Total GPU cycles to completion.
    pub cycles: u64,
    /// Application-warp instructions issued.
    pub app_instructions: u64,
    /// Assist-warp instructions issued.
    pub assist_instructions: u64,
    /// Application instructions per cycle.
    pub ipc: f64,
    /// Assist share of all issued instructions.
    pub assist_fraction: f64,
    /// L1 hit rate.
    pub l1_hit_rate: f64,
    /// L2 hit rate.
    pub l2_hit_rate: f64,
    /// Metadata-cache hit rate (0 when the design keeps no metadata).
    pub md_hit_rate: f64,
    /// DRAM data-bus utilization.
    pub bandwidth_utilization: f64,
    /// Interconnect flits, both directions.
    pub icnt_flits: u64,
    /// DRAM burst-cycles spent on metadata-cache refills.
    pub md_stall_cycles: u64,
    /// Issue slots a high-priority assist took from ready app warps.
    pub assist_slots_stolen: u64,
    /// Issue slots only an assist warp could use.
    pub assist_slots_reclaimed: u64,
    /// Fraction of scheduler issue slots in each Fig. 1 bucket, indexed
    /// parallel to [`StallKind::ALL`].
    pub issue_fractions: [f64; StallKind::ALL.len()],
}

/// Each issue fraction's key and the separator before it, parallel to
/// [`StallKind::ALL`]: the slugs are plain ASCII, so they are written as
/// they stand, without escaping.
const ISSUE_FRACTION_KEYS: [&str; StallKind::ALL.len()] = [
    "\"issued-app\": ",
    ", \"issued-assist\": ",
    ", \"memory-data\": ",
    ", \"synchronization\": ",
    ", \"scoreboard-pipeline\": ",
    ", \"control-reconvergence\": ",
    ", \"idle\": ",
];

impl StatsSummary {
    /// Appends the summary to `out` as one JSON object. Issue-slot
    /// fractions nest under `"issue_fractions"`, keyed by
    /// [`StallKind::slug`]. Every value is written straight into `out`, so
    /// a caller that reuses its buffer allocates nothing here.
    pub fn write_json(&self, out: &mut String) {
        for (key, n) in [
            ("{\"cycles\": ", self.cycles),
            (", \"app_instructions\": ", self.app_instructions),
            (", \"assist_instructions\": ", self.assist_instructions),
        ] {
            out.push_str(key);
            json::write_u64(out, n);
        }
        for (key, x) in [
            (", \"ipc\": ", self.ipc),
            (", \"assist_fraction\": ", self.assist_fraction),
            (", \"l1_hit_rate\": ", self.l1_hit_rate),
            (", \"l2_hit_rate\": ", self.l2_hit_rate),
            (", \"md_hit_rate\": ", self.md_hit_rate),
            (", \"bandwidth_utilization\": ", self.bandwidth_utilization),
        ] {
            out.push_str(key);
            json::write_f64(out, x);
        }
        for (key, n) in [
            (", \"icnt_flits\": ", self.icnt_flits),
            (", \"md_stall_cycles\": ", self.md_stall_cycles),
            (", \"assist_slots_stolen\": ", self.assist_slots_stolen),
            (
                ", \"assist_slots_reclaimed\": ",
                self.assist_slots_reclaimed,
            ),
        ] {
            out.push_str(key);
            json::write_u64(out, n);
        }
        out.push_str(", \"issue_fractions\": {");
        for (key, x) in ISSUE_FRACTION_KEYS.into_iter().zip(self.issue_fractions) {
            out.push_str(key);
            json::write_f64(out, x);
        }
        out.push_str("}}");
    }

    /// [`StatsSummary::write_json`] into a fresh `String`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let s = RunStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.bandwidth_utilization(), 0.0);
        assert_eq!(s.md_hit_rate(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
        assert_eq!(s.assist_fraction(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = RunStats {
            cycles: 100,
            app_instructions: 250,
            assist_instructions: 50,
            dram_busy_cycles: 30,
            dram_total_cycles: 60,
            md_lookups: 100,
            md_misses: 15,
            l1_hits: 3,
            l1_misses: 1,
            l2_hits: 1,
            l2_misses: 3,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.bandwidth_utilization() - 0.5).abs() < 1e-12);
        assert!((s.md_hit_rate() - 0.85).abs() < 1e-12);
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.l2_hit_rate() - 0.25).abs() < 1e-12);
        assert!((s.assist_fraction() - 50.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn summary_json_is_valid_and_complete() {
        let mut s = RunStats {
            cycles: 100,
            app_instructions: 250,
            md_stall_cycles: 8,
            assist_slots_stolen: 3,
            assist_slots_reclaimed: 5,
            ..Default::default()
        };
        for _ in 0..150 {
            s.breakdown.record(StallKind::IssuedApp);
        }
        for _ in 0..50 {
            s.breakdown.record(StallKind::MemoryData);
        }
        let sum = s.summary();
        assert!((sum.issue_fractions[0] - 0.75).abs() < 1e-12);
        let json_text = sum.to_json();
        json::validate(&json_text).expect("summary JSON parses");
        assert!(json_text.contains("\"ipc\": 2.5"));
        assert!(json_text.contains("\"md_stall_cycles\": 8"));
        assert!(json_text.contains("\"memory-data\": 0.25"));
        // Delegating accessors and the summary must agree exactly.
        assert_eq!(s.ipc(), sum.ipc);
        assert_eq!(s.assist_fraction(), sum.assist_fraction);
    }

    #[test]
    fn issue_fraction_keys_are_the_slugs_as_json_spells_them() {
        for (i, (key, kind)) in ISSUE_FRACTION_KEYS.iter().zip(StallKind::ALL).enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            assert_eq!(*key, format!("{sep}\"{}\": ", json::escape(kind.slug())));
        }
    }
}
