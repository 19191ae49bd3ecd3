//! Statistics infrastructure shared by every crate in the CABA stack.
//!
//! This crate has no dependencies and provides:
//!
//! * [`Rng64`] — a deterministic SplitMix64 pseudo-random generator, so every
//!   experiment in the repository is reproducible bit-for-bit without pulling
//!   in an external RNG crate.
//! * [`StallKind`] / [`IssueBreakdown`] — the issue-cycle taxonomy of Figure 1
//!   of the paper: issued-app / issued-assist slots plus memory-data,
//!   scoreboard-or-pipeline, synchronization, control-reconvergence and
//!   no-eligible-warp stalls.
//! * [`metrics`] — a hierarchical metric registry with typed counter/gauge
//!   handles resolved to dense indices at registration; per-worker shards
//!   merge in index order so parallel runs stay bit-identical.
//! * [`json`] — the hand-rolled JSON toolkit (escaping, float formatting,
//!   and a minimal validating parser) shared by every report/trace emitter.
//! * [`Table`] — a small fixed-width text table used by the benchmark
//!   harnesses to print the rows/series each paper figure reports.
//! * [`prop`] — a minimal deterministic property-test harness (seeded random
//!   cases with replayable failures), so the test suites need no external
//!   property-testing dependency.
//! * [`fxhash`] — a fast deterministic multiply-xor hasher ([`FxHashMap`],
//!   [`FxHashSet`]) for the simulator's hot address-keyed maps, replacing
//!   SipHash without an external dependency.
//!
//! # Examples
//!
//! ```
//! use caba_stats::Rng64;
//! let mut rng = Rng64::new(42);
//! let a = rng.next_u64();
//! let b = Rng64::new(42).next_u64();
//! assert_eq!(a, b); // fully deterministic
//! ```

pub mod checksum;
pub mod fxhash;
pub mod json;
pub mod metrics;
pub mod prop;
pub mod rng;
pub mod snap;
pub mod table;

pub use checksum::{checksum64, Fnv64};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use metrics::{CounterId, GaugeId, MetricRegistry, MetricShard, MetricsLevel, MetricsSnapshot};
pub use rng::Rng64;
pub use snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
pub use table::Table;

use std::fmt;

/// How one scheduler issue slot was spent, in the Figure 1 taxonomy of the
/// paper.
///
/// Every cycle of every warp scheduler lands in exactly one bucket: either an
/// instruction issued (split into application vs. assist-warp issue, the
/// Fig. 13/14 overhead axis), or the slot stalled for one attributable
/// reason, or no eligible warp existed at all. The buckets are mutually
/// exclusive and collectively exhaustive, so
/// `Σ buckets == cycles × schedulers × SMs` — an invariant the simulator's
/// integrity audits enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallKind {
    /// An application-warp instruction issued in this slot.
    IssuedApp,
    /// An assist-warp instruction issued in this slot (CABA designs only).
    IssuedAssist,
    /// Blocked waiting for data from the memory system: either the
    /// scoreboard holds a register whose producing load is still in flight,
    /// or a ready memory instruction could not enter the backed-up LSU.
    MemoryData,
    /// Blocked on the compute pipelines: a scoreboard hazard on an in-flight
    /// ALU/SFU producer, or a structural stall on a busy SFU.
    ScoreboardPipeline,
    /// Every eligible warp is parked at a block-wide barrier.
    Synchronization,
    /// Blocked computing control flow: the next instruction steers the SIMT
    /// stack (branch/reconvergence/predicate machinery) and waits on an
    /// in-flight operand.
    ControlReconvergence,
    /// No warp had an issuable instruction for any other reason (no CTAs
    /// resident yet, all warps done, instruction buffers drained).
    Idle,
}

impl StallKind {
    /// All variants, in the display order used by Figure 1 (issue slots
    /// first, then stalls from most to least memory-attributable).
    pub const ALL: [StallKind; 7] = [
        StallKind::IssuedApp,
        StallKind::IssuedAssist,
        StallKind::MemoryData,
        StallKind::Synchronization,
        StallKind::ScoreboardPipeline,
        StallKind::ControlReconvergence,
        StallKind::Idle,
    ];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::IssuedApp => "App Issue",
            StallKind::IssuedAssist => "Assist Issue",
            StallKind::MemoryData => "Memory Stalls",
            StallKind::Synchronization => "Sync Stalls",
            StallKind::ScoreboardPipeline => "Pipeline Stalls",
            StallKind::ControlReconvergence => "Control Stalls",
            StallKind::Idle => "Idle Cycles",
        }
    }

    /// Stable kebab-case identifier used in JSON reports and trace tracks.
    pub fn slug(self) -> &'static str {
        match self {
            StallKind::IssuedApp => "issued-app",
            StallKind::IssuedAssist => "issued-assist",
            StallKind::MemoryData => "memory-data",
            StallKind::Synchronization => "synchronization",
            StallKind::ScoreboardPipeline => "scoreboard-pipeline",
            StallKind::ControlReconvergence => "control-reconvergence",
            StallKind::Idle => "idle",
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-scheduler-slot issue-cycle accounting (the Figure 1 stack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueBreakdown {
    counts: [u64; 7],
}

impl IssueBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    fn index(kind: StallKind) -> usize {
        match kind {
            StallKind::IssuedApp => 0,
            StallKind::IssuedAssist => 1,
            StallKind::MemoryData => 2,
            StallKind::ScoreboardPipeline => 3,
            StallKind::Synchronization => 4,
            StallKind::ControlReconvergence => 5,
            StallKind::Idle => 6,
        }
    }

    /// Records one scheduler slot outcome.
    pub fn record(&mut self, kind: StallKind) {
        self.counts[Self::index(kind)] += 1;
    }

    /// Records `n` identical slot outcomes at once. Exactly equivalent to
    /// `n` calls to [`IssueBreakdown::record`] — used by the next-event
    /// clock to credit a skipped span in bulk without per-cycle work.
    pub fn record_n(&mut self, kind: StallKind, n: u64) {
        self.counts[Self::index(kind)] += n;
    }

    /// Count for one outcome kind.
    pub fn count(&self, kind: StallKind) -> u64 {
        self.counts[Self::index(kind)]
    }

    /// Total recorded slots.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Slots in which any instruction issued (app or assist).
    pub fn issued(&self) -> u64 {
        self.count(StallKind::IssuedApp) + self.count(StallKind::IssuedAssist)
    }

    /// Fraction (0..=1) of slots attributed to `kind`. Returns 0 when empty.
    pub fn fraction(&self, kind: StallKind) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(kind) as f64 / total as f64
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &IssueBreakdown) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
    }

    /// Per-bucket difference `self - prev`, for interval samplers that turn
    /// cumulative totals into rate tracks.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any bucket of `prev` exceeds `self` (the
    /// breakdown is monotone, so a sampler's previous snapshot can't).
    pub fn delta(&self, prev: &IssueBreakdown) -> IssueBreakdown {
        let mut d = IssueBreakdown::new();
        for (i, (a, b)) in self.counts.iter().zip(prev.counts.iter()).enumerate() {
            debug_assert!(a >= b, "bucket {i} went backwards");
            d.counts[i] = a - b;
        }
        d
    }
}

impl snap::SnapshotState for IssueBreakdown {
    fn save(&self, w: &mut snap::SnapshotWriter) {
        self.counts.save(w);
    }
    fn load(r: &mut snap::SnapshotReader<'_>) -> Result<Self, snap::SnapError> {
        Ok(IssueBreakdown {
            counts: <[u64; 7]>::load(r)?,
        })
    }
}

/// Computes the geometric mean of a set of strictly positive values.
///
/// Returns `None` for an empty slice or when any value is not finite and
/// positive. The paper's average speedups are arithmetic means over the
/// application pool; we expose both (see [`arith_mean`]).
///
/// # Examples
///
/// ```
/// let g = caba_stats::geo_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut acc = 0.0f64;
    for &v in values {
        if !(v.is_finite() && v > 0.0) {
            return None;
        }
        acc += v.ln();
    }
    Some((acc / values.len() as f64).exp())
}

/// Arithmetic mean; `None` for an empty slice.
pub fn arith_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut b = IssueBreakdown::new();
        b.record(StallKind::IssuedApp);
        b.record(StallKind::IssuedApp);
        b.record(StallKind::IssuedAssist);
        b.record(StallKind::Idle);
        b.record(StallKind::MemoryData);
        let sum: f64 = StallKind::ALL.iter().map(|&k| b.fraction(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(b.count(StallKind::IssuedApp), 2);
        assert_eq!(b.issued(), 3);
        assert_eq!(b.total(), 5);
    }

    #[test]
    fn breakdown_empty_fraction_is_zero() {
        let b = IssueBreakdown::new();
        assert_eq!(b.fraction(StallKind::IssuedApp), 0.0);
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn breakdown_merge() {
        let mut a = IssueBreakdown::new();
        a.record(StallKind::Idle);
        let mut b = IssueBreakdown::new();
        b.record(StallKind::Idle);
        b.record(StallKind::ScoreboardPipeline);
        a.merge(&b);
        assert_eq!(a.count(StallKind::Idle), 2);
        assert_eq!(a.count(StallKind::ScoreboardPipeline), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = IssueBreakdown::new();
        bulk.record_n(StallKind::Idle, 1000);
        bulk.record_n(StallKind::MemoryData, 3);
        bulk.record_n(StallKind::Synchronization, 0);
        let mut slow = IssueBreakdown::new();
        for _ in 0..1000 {
            slow.record(StallKind::Idle);
        }
        for _ in 0..3 {
            slow.record(StallKind::MemoryData);
        }
        assert_eq!(bulk, slow);
    }

    #[test]
    fn breakdown_delta_subtracts_per_bucket() {
        let mut prev = IssueBreakdown::new();
        prev.record(StallKind::IssuedApp);
        let mut now = prev;
        now.record(StallKind::IssuedApp);
        now.record(StallKind::Synchronization);
        let d = now.delta(&prev);
        assert_eq!(d.count(StallKind::IssuedApp), 1);
        assert_eq!(d.count(StallKind::Synchronization), 1);
        assert_eq!(d.total(), 2);
    }

    #[test]
    fn stall_kind_labels_and_slugs_are_distinct() {
        let labels: std::collections::HashSet<_> =
            StallKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), StallKind::ALL.len());
        let slugs: std::collections::HashSet<_> = StallKind::ALL.iter().map(|k| k.slug()).collect();
        assert_eq!(slugs.len(), StallKind::ALL.len());
    }

    #[test]
    fn means() {
        assert_eq!(geo_mean(&[]), None);
        assert_eq!(geo_mean(&[1.0, -1.0]), None);
        assert!((geo_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(arith_mean(&[]), None);
        assert!((arith_mean(&[1.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
    }
}
