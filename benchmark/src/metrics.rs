//! Every metric the benchmark prints, by name, with its unit and direction.
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression; 0 for per-layer metrics.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, "lower", 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, "higher", 0.0)
}

/// Reported by every workload's untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("work_per_s", "1/s", "higher", 0.20),
    e2e("op_p50_ms", "ms", "lower", 0.20),
    e2e("op_p90_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Reported by every workload's traced run. A layer the workload does not
/// exercise reads 0: that is the bypass side of the exercise/bypass split.
pub const PER_LAYER: &[MetricDef] = &[
    // compress: ns per 128 B line over the eval apps' input lines (sim_caba).
    lo("compress.bdi_scan_ns", "ns"),
    lo("compress.fpc_scan_ns", "ns"),
    lo("compress.cpack_scan_ns", "ns"),
    lo("compress.bdi_compress_ns", "ns"),
    lo("compress.fpc_compress_ns", "ns"),
    lo("compress.cpack_compress_ns", "ns"),
    lo("compress.bdi_decompress_ns", "ns"),
    lo("compress.fpc_decompress_ns", "ns"),
    lo("compress.cpack_decompress_ns", "ns"),
    hi("compress.best_ratio", "ratio"),
    // workloads: prepare_app, per pass (sim_*).
    lo("workloads.prepare_ms", "ms"),
    lo("workloads.prepare_share", "ratio"),
    // sim: Gpu::run per pass and by cell class; snapshot codec (persist_churn).
    lo("sim.run_ms", "ms"),
    hi("sim.base_cycles_per_s", "1/s"),
    hi("sim.hw_cycles_per_s", "1/s"),
    hi("sim.caba_cycles_per_s", "1/s"),
    hi("sim.membound_cycles_per_s", "1/s"),
    hi("sim.computebound_cycles_per_s", "1/s"),
    hi("sim.bw050_cycles_per_s", "1/s"),
    hi("sim.bw200_cycles_per_s", "1/s"),
    hi("sim.skipped_cycle_share", "ratio"),
    hi("sim.skip_events", "count"),
    lo("sim.snapshot_ms", "ms"),
    lo("sim.restore_ms", "ms"),
    lo("sim.snapshot_bytes", "B"),
    lo("sim.intra2_ratio", "ratio"),
    lo("sim.metrics_on_ratio", "ratio"),
    // core: assist-warp counts and simulated speed-ups, exact.
    lo("core.assist_instr_fraction", "ratio"),
    lo("core.assist_slots_stolen", "count"),
    hi("core.assist_slots_reclaimed", "count"),
    hi("core.caba_bdi_speedup", "ratio"),
    hi("core.caba_fpc_speedup", "ratio"),
    hi("core.caba_cpack_speedup", "ratio"),
    hi("core.caba_bdi_speedup_vs_paper", "ratio"),
    // mem: exact.
    hi("mem.l1_hit_rate", "ratio"),
    hi("mem.l2_hit_rate", "ratio"),
    hi("mem.md_hit_rate", "ratio"),
    hi("mem.dram_bw_util", "ratio"),
    lo("mem.icnt_flits", "count"),
    lo("mem.md_stall_cycles", "count"),
    // model: simulated totals and Fig. 1 issue-slot shares, exact.
    lo("model.cycles_sim_base", "count"),
    lo("model.cycles_sim_caba", "count"),
    hi("model.ipc_geomean", "ratio"),
    hi("model.issue_app", "ratio"),
    lo("model.issue_assist", "ratio"),
    lo("model.issue_memory", "ratio"),
    lo("model.issue_sync", "ratio"),
    lo("model.issue_scoreboard", "ratio"),
    lo("model.issue_control", "ratio"),
    lo("model.issue_idle", "ratio"),
    // stats
    hi("stats.checksum_mb_per_s", "MB/s"),
    // store: per call, and exact I/O counts from the counting shim.
    lo("store.put_result_us", "us"),
    lo("store.get_hit_us", "us"),
    lo("store.get_miss_us", "us"),
    lo("store.put_snapshot_ms", "ms"),
    lo("store.get_snapshot_ms", "ms"),
    lo("store.scrub_us_per_entry", "us"),
    lo("store.gc_ms", "ms"),
    lo("store.open_ms", "ms"),
    lo("store.syncs_per_put", "count"),
    lo("store.syncs_per_get_hit", "count"),
    lo("store.renames_per_put", "count"),
    lo("store.reads_per_get_hit", "count"),
    lo("store.bytes_per_put", "B"),
    lo("store.object_writes_timed", "count"),
    // sweep: codecs and builder glue.
    lo("sweep.decode_payload_us", "us"),
    lo("sweep.encode_payload_us", "us"),
    lo("sweep.table_line_us", "us"),
    lo("sweep.content_hash_us", "us"),
    lo("sweep.warm_cell_us", "us"),
    lo("sweep.journal_line_us", "us"),
    lo("sweep.cold_glue_share", "ratio"),
    lo("sweep.jobs2_ratio", "ratio"),
    // serve: client-side latency by request class and what is left of a
    // figure request once the layer calls it makes are taken out.
    lo("serve.healthz_p50_ms", "ms"),
    lo("serve.cell_p50_ms", "ms"),
    lo("serve.result_p50_ms", "ms"),
    lo("serve.figure_p50_ms", "ms"),
    lo("serve.error_p50_ms", "ms"),
    lo("serve.parse_us", "us"),
    lo("serve.figure_residual_ms", "ms"),
    lo("serve.cold_figure_s", "s"),
    lo("serve.coalesced_waits", "count"),
    hi("serve.store_warm_hits", "count"),
    lo("serve.cells_computed_timed", "count"),
    // every workload
    lo("raw_p50_ms", "ms"),
    lo("raw_p99_ms", "ms"),
    lo("raw_pass_iqr", "ratio"),
    lo("trace_overhead", "ratio"),
    lo("ledger_gap", "ratio"),
];

/// Per-layer metrics that must read the same on every run of every commit
/// that leaves the model alone; `compare` checks them for identity.
pub const EXACT_PREFIXES: &[&str] = &[
    "core.",
    "mem.",
    "model.",
    "sim.skip",
    "sim.snapshot_bytes",
    "compress.best_ratio",
    "store.syncs_",
    "store.renames_",
    "store.reads_",
    "store.bytes_",
    "store.object_writes_timed",
    "serve.cells_computed_timed",
];

pub fn is_exact(name: &str) -> bool {
    EXACT_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the tables"
        );
        assert!(value.is_finite(), "metric {name} = {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `defs`, in table order.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut s = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                self.get(d.name),
                d.unit
            );
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn result_line_round_trips_through_the_workspace_validator() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        m.set("work_per_s", 123456.789);
        let line = format!(
            "{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}}",
            m.to_json(END_TO_END)
        );
        caba_stats::json::validate(&line).expect("result line is JSON");
        let v = json::parse(&line).expect("parses");
        let got = v.get("metrics").and_then(Value::as_obj).expect("metrics");
        assert_eq!(got.len(), END_TO_END.len());
        assert_eq!(
            got["setup_s"].get("value").and_then(Value::as_f64),
            Some(0.8127)
        );
        assert_eq!(
            got["work_per_s"].get("unit").and_then(Value::as_str),
            Some("1/s")
        );
        // Unmeasured metrics are present and read 0.
        assert_eq!(
            got["op_p90_ms"].get("value").and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = v.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(
                    l.get("unit").and_then(Value::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    l.get("better").and_then(Value::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        l.get("bound").and_then(Value::as_f64),
                        Some(d.bound),
                        "{}",
                        d.name
                    );
                }
            }
        }
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
