//! Observability configuration: the tracing and metrics knobs carried on
//! [`GpuConfig`](crate::GpuConfig).
//!
//! Everything here is record-only: no setting in this module may change
//! scheduling, timing, or any other architectural state. The default
//! ([`ObservabilityConfig::default`]) is fully off — no tracer is
//! allocated, no metric shards exist, and the cycle loop pays nothing.
//!
//! ```
//! use caba_sim::{GpuConfig, MetricsLevel, TraceConfig};
//!
//! let cfg = GpuConfig::small()
//!     .with_trace(TraceConfig::full(64))
//!     .with_metrics(MetricsLevel::Full);
//! assert_eq!(cfg.observability.trace.unwrap().interval, 64);
//! ```

use caba_stats::{CounterId, GaugeId, MetricRegistry, MetricsLevel};

/// Activity-trace configuration, consumed by [`crate::Gpu`] at
/// construction. A trace samples per-interval activity and records the
/// instant events: assist-warp spawn/retire, detected fill corruptions,
/// crossbar packet drops, and DRAM delay faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sampling interval in cycles. Must be at least 1
    /// ([`GpuConfig::validate`](crate::GpuConfig::validate) rejects 0).
    pub interval: u64,
}

impl TraceConfig {
    /// Samples every `interval` cycles and records every instant event.
    pub fn full(interval: u64) -> Self {
        TraceConfig { interval }
    }
}

/// Observability switches carried on [`GpuConfig`](crate::GpuConfig).
///
/// `Copy + PartialEq` like the rest of the configuration, so design sweeps
/// can compare and clone configurations freely.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObservabilityConfig {
    /// Activity tracing (`None` = no tracer allocated).
    pub trace: Option<TraceConfig>,
    /// Metric registry level (default [`MetricsLevel::Off`]).
    pub metrics: MetricsLevel,
}

/// Typed handles into the simulator's metric schema (see
/// [`sim_metrics_schema`]). One copy lives in every SM recording into its
/// own shard, so ids must stay `Copy`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimMetricIds {
    /// Assist warps deployed into an AWC slot.
    pub assist_spawned: CounterId,
    /// Assist warps that ran to completion and were reclaimed.
    pub assist_retired: CounterId,
    /// High-water mark of concurrently active assist warps on one SM.
    pub peak_active_assists: GaugeId,
    /// High-water mark of the LSU line-operation queue on one SM.
    pub peak_lsu_pending: GaugeId,
}

/// The simulator's per-SM metric schema, registered once so every SM's
/// [`caba_stats::MetricShard`] has the identical dense layout and shards
/// merge in index order without name lookups.
pub(crate) fn sim_metrics_schema() -> (MetricRegistry, SimMetricIds) {
    let mut reg = MetricRegistry::new();
    let ids = SimMetricIds {
        assist_spawned: reg.counter("sm.assist.spawned"),
        assist_retired: reg.counter("sm.assist.retired"),
        peak_active_assists: reg.gauge("sm.assist.peak_active"),
        peak_lsu_pending: reg.gauge("sm.lsu.peak_pending"),
    };
    (reg, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off() {
        let o = ObservabilityConfig::default();
        assert!(o.trace.is_none());
        assert!(!o.metrics.enabled());
    }

    #[test]
    fn trace_constructors() {
        assert_eq!(TraceConfig::full(32), TraceConfig { interval: 32 });
    }

    #[test]
    fn schema_is_stable() {
        let (reg, ids) = sim_metrics_schema();
        assert_eq!(reg.len(), 4);
        let mut shard = reg.shard();
        shard.inc(ids.assist_spawned);
        shard.inc(ids.assist_retired);
        shard.set_max(ids.peak_active_assists, 3);
        shard.set_max(ids.peak_lsu_pending, 9);
        let snap = reg.snapshot(&shard);
        assert_eq!(snap.get("sm.assist.spawned"), Some(1));
        assert_eq!(snap.get("sm.lsu.peak_pending"), Some(9));
    }
}
