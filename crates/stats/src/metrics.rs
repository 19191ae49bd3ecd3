//! A hierarchical metric registry with dense, deterministic storage.
//!
//! Components register named metrics once, up front, and get back typed
//! handles ([`CounterId`] / [`GaugeId`]) that resolve to dense `Vec` indices
//! — recording an event is a bounds-checked array increment, never a string
//! lookup. Each recording component (an SM of the simulator) owns a
//! [`MetricShard`]; shards are merged **in index order** when a snapshot is
//! taken (counters sum, gauges take the max), so the merged
//! [`MetricsSnapshot`] is bit-identical from run to run.
//!
//! Hierarchy is by dotted name (`"sm.assist.launches"`): the registry keeps
//! registration order, so a snapshot lists a component's metrics together
//! and reports stay diffable run-to-run.
//!
//! # Examples
//!
//! ```
//! use caba_stats::metrics::MetricRegistry;
//!
//! let mut reg = MetricRegistry::new();
//! let launches = reg.counter("sm.assist.launches");
//! let peak = reg.gauge("sm.assist.peak_active");
//! let mut a = reg.shard();
//! let mut b = reg.shard();
//! a.inc(launches);
//! a.set_max(peak, 3);
//! b.add(launches, 2);
//! b.set_max(peak, 5);
//! let merged = reg.merge_shards([&a, &b].into_iter());
//! let snap = reg.snapshot(&merged);
//! assert_eq!(snap.get("sm.assist.launches"), Some(3));
//! assert_eq!(snap.get("sm.assist.peak_active"), Some(5));
//! ```

use std::fmt;

/// How much metric recording the simulator performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsLevel {
    /// No registry, no shards, no snapshot — the zero-cost default.
    #[default]
    Off,
    /// Per-event shard recording (assist spawn/retire, occupancy peaks)
    /// inside the cycle loop, plus export-time entries assembled from
    /// counters the simulator maintains anyway.
    Full,
}

impl MetricsLevel {
    /// True for [`MetricsLevel::Full`].
    pub fn enabled(self) -> bool {
        matches!(self, MetricsLevel::Full)
    }
}

/// The kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    /// Sums across shards.
    Counter,
    /// Max across shards (high-water marks).
    Gauge,
}

/// Typed handle to a registered counter (sums on merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Typed handle to a registered gauge (max on merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// The schema: every metric name, in registration order, with its kind.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    names: Vec<&'static str>,
    kinds: Vec<MetricKind>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter under `name` (dotted hierarchy by convention).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — schemas are built once at
    /// startup, so a duplicate is a wiring bug, not a runtime condition.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        CounterId(self.register(name, MetricKind::Counter))
    }

    /// Registers a gauge (high-water mark) under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        GaugeId(self.register(name, MetricKind::Gauge))
    }

    fn register(&mut self, name: &'static str, kind: MetricKind) -> u32 {
        assert!(
            !self.names.contains(&name),
            "metric {name:?} registered twice"
        );
        self.names.push(name);
        self.kinds.push(kind);
        (self.names.len() - 1) as u32
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// A zeroed shard laid out for this registry.
    pub fn shard(&self) -> MetricShard {
        MetricShard {
            values: vec![0; self.names.len()],
        }
    }

    /// Pairs the merged shard's values with the registered names.
    ///
    /// # Panics
    ///
    /// Panics if `merged` was built for a different registry (length
    /// mismatch).
    pub fn snapshot(&self, merged: &MetricShard) -> MetricsSnapshot {
        assert_eq!(
            merged.values.len(),
            self.names.len(),
            "shard does not match this registry"
        );
        MetricsSnapshot {
            entries: self
                .names
                .iter()
                .zip(&merged.values)
                .map(|(&n, &v)| (n, v))
                .collect(),
        }
    }

    /// Merges `shards` in index order into one shard (counters sum, gauges
    /// max).
    pub fn merge_shards<'a>(&self, shards: impl Iterator<Item = &'a MetricShard>) -> MetricShard {
        let mut out = self.shard();
        for s in shards {
            out.merge_kinds(s, &self.kinds);
        }
        out
    }
}

/// One component's dense metric storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricShard {
    values: Vec<u64>,
}

impl MetricShard {
    /// Adds `n` to a counter (saturating).
    pub fn add(&mut self, id: CounterId, n: u64) {
        let v = &mut self.values[id.0 as usize];
        *v = v.saturating_add(n);
    }

    /// Adds one to a counter.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Raises a gauge to at least `v` (high-water mark).
    pub fn set_max(&mut self, id: GaugeId, v: u64) {
        let g = &mut self.values[id.0 as usize];
        *g = (*g).max(v);
    }

    /// Current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Merges `other` into `self` treating every slot as a counter. Use
    /// [`MetricRegistry::merge_shards`] when gauges are in play.
    pub fn merge(&mut self, other: &MetricShard) {
        assert_eq!(self.values.len(), other.values.len());
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a = a.saturating_add(*b);
        }
    }

    fn merge_kinds(&mut self, other: &MetricShard, kinds: &[MetricKind]) {
        assert_eq!(self.values.len(), other.values.len());
        for ((a, b), k) in self.values.iter_mut().zip(&other.values).zip(kinds) {
            match k {
                MetricKind::Counter => *a = a.saturating_add(*b),
                MetricKind::Gauge => *a = (*a).max(*b),
            }
        }
    }
}

impl crate::snap::SnapshotState for MetricShard {
    fn save(&self, w: &mut crate::snap::SnapshotWriter) {
        self.values.save(w);
    }
    fn load(r: &mut crate::snap::SnapshotReader<'_>) -> Result<Self, crate::snap::SnapError> {
        Ok(MetricShard {
            values: Vec::<u64>::load(r)?,
        })
    }
}

/// The merged, named result: `(name, value)` pairs in registration order.
///
/// Derives `Eq`, so determinism tests can compare snapshots bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    entries: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// All `(name, value)` pairs in registration order.
    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.entries
    }

    /// Looks a metric up by exact name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Appends export-time entries (derived at snapshot time from counters
    /// the simulator maintains anyway).
    pub fn push(&mut self, name: &'static str, value: u64) {
        self.entries.push((name, value));
    }

    /// Appends the snapshot to `out` as one JSON object, names in
    /// registration order.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.entries.iter().enumerate() {
            out.push_str(if i > 0 { ", \"" } else { "\"" });
            crate::json::write_escaped(out, name);
            out.push_str("\": ");
            crate::json::write_u64(out, *value);
        }
        out.push('}');
    }

    /// [`MetricsSnapshot::write_json`] into a fresh `String`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.entries {
            writeln!(f, "{name} = {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_order_is_preserved() {
        let mut reg = MetricRegistry::new();
        let a = reg.counter("a.first");
        let b = reg.counter("b.second");
        assert_eq!(reg.len(), 2);
        let mut shard = reg.shard();
        shard.add(b, 2);
        shard.inc(a);
        let snap = reg.snapshot(&shard);
        assert_eq!(snap.entries(), &[("a.first", 1), ("b.second", 2)]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut reg = MetricRegistry::new();
        reg.counter("dup");
        reg.gauge("dup");
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("events");
        let g = reg.gauge("peak");
        let mut shards = Vec::new();
        for (adds, peak) in [(3, 7), (5, 2), (1, 7)] {
            let mut s = reg.shard();
            s.add(c, adds);
            s.set_max(g, peak);
            shards.push(s);
        }
        let merged = reg.merge_shards(shards.iter());
        assert_eq!(merged.counter(c), 9);
        assert_eq!(merged.gauge(g), 7);
        // Merge order cannot matter for sum/max, but the API contract is
        // index order; spot-check reversal gives the same result.
        let rev = reg.merge_shards(shards.iter().rev());
        assert_eq!(merged, rev);
    }

    #[test]
    fn snapshot_json_is_valid_and_ordered() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("sm.assist.launches");
        let mut shard = reg.shard();
        shard.add(c, 42);
        let mut snap = reg.snapshot(&shard);
        snap.push("derived.extra", 7);
        let json = snap.to_json();
        crate::json::validate(&json).expect("snapshot JSON parses");
        assert_eq!(json, "{\"sm.assist.launches\": 42, \"derived.extra\": 7}");
        assert_eq!(snap.get("derived.extra"), Some(7));
        assert_eq!(snap.get("missing"), None);
    }

    /// The text the `write!`-based emitter wrote: an escaped name, the
    /// largest value, a zero, and an empty snapshot.
    #[test]
    fn snapshot_json_keeps_its_bytes() {
        let mut snap = MetricsSnapshot::default();
        assert_eq!(snap.to_json(), "{}");
        snap.push("sim.cycles", 12_345);
        snap.push("mem.l1\"hits", u64::MAX);
        snap.push("x", 0);
        assert_eq!(
            snap.to_json(),
            "{\"sim.cycles\": 12345, \"mem.l1\\\"hits\": 18446744073709551615, \"x\": 0}"
        );
        let mut out = String::from("metrics=");
        snap.write_json(&mut out);
        assert_eq!(out, format!("metrics={}", snap.to_json()));
    }

    #[test]
    fn levels_gate_correctly() {
        assert!(!MetricsLevel::Off.enabled());
        assert!(MetricsLevel::Full.enabled());
        assert_eq!(MetricsLevel::default(), MetricsLevel::Off);
    }
}
