//! The four workloads. Each exists to load some layers and leave others
//! idle, so that a change to one layer moves one workload and not the rest;
//! the README's layer table says which.

pub mod churn;
pub mod serve;
pub mod sim;

use caba_sweep::SweepCell;
use std::time::Instant;

/// The apps of an app-major cell list, in list order.
pub fn apps_of(cells: &[SweepCell]) -> Vec<&'static str> {
    let mut apps: Vec<&str> = cells.iter().map(|c| c.app).collect();
    apps.dedup();
    apps
}

/// Seconds `f` takes, best of `reps`, and its last result.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}
