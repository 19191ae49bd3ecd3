//! `caba-benchmark compare DIR_A DIR_B`: two sets of run records (the
//! files `--out` writes), side by side. Per workload and metric: median
//! and quartiles of each set, the relative difference, and a verdict
//! against the metric's bound.
//!
//! - `ok`: B's median is no worse than A's by more than the bound.
//! - `REGRESSION`: it is worse by more than the bound.
//! - `unresolved`: A's own quartile spread is wider than the bound, so the
//!   comparison decides nothing, unless every run of B reads better than
//!   every run of A (`ok`) or worse (`REGRESSION`).
//! - exact metrics must read the same in every run of both sets: `same`
//!   or `DIFFERS`.

use crate::estimate::quartiles;
use crate::json::{self, Value};
use crate::metrics::{is_exact, MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, traced) -> metric name -> one value per run.
type Set = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<(Set, usize), String> {
    let mut set = Set::new();
    let mut incorrect = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if v.get("schema").and_then(Value::as_str) != Some("caba-benchmark-v1") {
            continue; // trace files and anything else that lives in out/
        }
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{}: no {k}", path.display()))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")? == &Value::Bool(true);
        if field("correct")? != &Value::Bool(true) {
            incorrect += 1;
        }
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?;
        let slot = set.entry((workload, traced)).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no value"))?;
            slot.entry(name.clone()).or_default().push(value);
        }
    }
    Ok((set, incorrect))
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
    Same,
    Differs,
    /// A per-layer host-time metric: shown, never judged.
    Shown,
}

/// `(b - a) / a`, signed so that positive is worse.
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        "lower" => (b - a) / a,
        _ => (a - b) / a,
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if is_exact(def.name) {
        let first = a[0];
        return if a.iter().chain(b).all(|&x| x == first) {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    if def.bound == 0.0 {
        return Verdict::Shown;
    }
    let (qa, qb) = (quartiles(a), quartiles(b));
    let regressed = worse_by(def, qa[1], qb[1]) > def.bound;
    if (qa[2] - qa[0]) / qa[1] > def.bound {
        // Every run of B against every run of A: all better, or all worse.
        let all = |want_worse: bool| {
            b.iter().all(|&y| {
                a.iter().all(|&x| {
                    let w = worse_by(def, x, y);
                    if want_worse {
                        w > 0.0
                    } else {
                        w < 0.0
                    }
                })
            })
        };
        return if all(false) {
            Verdict::Ok
        } else if regressed && all(true) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        };
    }
    if regressed {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Prints the table; returns whether anything regressed or differed.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let ((a, bad_a), (b, bad_b)) = (load(dir_a)?, load(dir_b)?);
    let mut bad = bad_a + bad_b > 0;
    if bad {
        println!("FAILED {bad_a} runs of A and {bad_b} runs of B are not correct");
    }
    for (key, metrics_a) in &a {
        let Some(metrics_b) = b.get(key) else {
            println!("{} trace={}: no runs in B", key.0, key.1 as u8);
            continue;
        };
        println!(
            "\n== {} trace={} ==\n{:<32} {:>5} {:>13} {:>13} {:>13}  {:>13} {:>13} {:>13} {:>8}  verdict",
            key.0, key.1 as u8, "metric", "runs", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "worse"
        );
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(va), Some(vb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!(
                    "{} {}: quartiles need two runs a side",
                    key.0, def.name
                ));
            }
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let verdict = judge(def, va, vb);
            bad |= matches!(verdict, Verdict::Regression | Verdict::Differs);
            let verdict = match verdict {
                Verdict::Ok => format!("ok (bound {})", def.bound),
                Verdict::Regression => format!("REGRESSION (bound {})", def.bound),
                Verdict::Unresolved => format!(
                    "unresolved (A spread {:.3} > bound {})",
                    (qa[2] - qa[0]) / qa[1],
                    def.bound
                ),
                Verdict::Same => "same".into(),
                Verdict::Differs => "DIFFERS".into(),
                Verdict::Shown => String::new(),
            };
            println!(
                "{:<32} {:>2}/{:<2} {:>13.6} {:>13.6} {:>13.6}  {:>13.6} {:>13.6} {:>13.6} {:>+8.4}  {verdict}",
                def.name,
                va.len(),
                vb.len(),
                qa[0],
                qa[1],
                qa[2],
                qb[0],
                qb[1],
                qb[2],
                worse_by(def, qa[1], qb[1]),
            );
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .expect(name)
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        // The verdict rules, on metrics of this test's own with a bound of 0.10.
        let lower = MetricDef {
            name: "latency_ms",
            unit: "ms",
            better: "lower",
            bound: 0.10,
        };
        let higher = MetricDef {
            name: "rate",
            unit: "1/s",
            better: "higher",
            bound: 0.10,
        };
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&lower, &steady, &[10.5, 10.6, 10.4, 10.5, 10.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &steady, &[11.5, 11.6, 11.4, 11.5, 11.5]),
            Verdict::Regression
        );
        // Where higher is better, a drop is the regression.
        assert_eq!(
            judge(&higher, &steady, &[8.5, 8.6, 8.4, 8.5, 8.5]),
            Verdict::Regression
        );
        assert_eq!(
            judge(&higher, &steady, &[11.5, 11.6, 11.4, 11.5, 11.5]),
            Verdict::Ok
        );
        // A parent whose own quartiles are wider than the bound decides nothing...
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&lower, &noisy, &[10.0, 10.5, 9.5, 11.0, 9.0]),
            Verdict::Unresolved
        );
        // ...unless every run of B is on one side of every run of A.
        assert_eq!(
            judge(&lower, &noisy, &[7.0, 7.5, 6.5, 7.2, 7.9]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &noisy, &[17.0, 17.5, 16.5, 17.2, 17.9]),
            Verdict::Regression
        );
    }

    #[test]
    fn exact_metrics_must_be_identical_and_layer_times_are_only_shown() {
        assert_eq!(
            judge(def("model.issue_idle"), &[0.25, 0.25], &[0.25, 0.25]),
            Verdict::Same
        );
        assert_eq!(
            judge(def("model.issue_idle"), &[0.25, 0.25], &[0.25, 0.2500001]),
            Verdict::Differs
        );
        assert_eq!(
            judge(def("store.syncs_per_put"), &[3.0, 3.0], &[3.0, 2.0]),
            Verdict::Differs
        );
        assert_eq!(
            judge(def("sim.run_ms"), &[1.0, 2.0], &[9.0, 9.0]),
            Verdict::Shown
        );
    }

    #[test]
    fn reads_run_records_from_two_directories() {
        let dir = crate::run::out_dir().join(format!("compare-test-{}", std::process::id()));
        for (side, p50) in [("a", 1.0), ("b", 1.5)] {
            let d = dir.join(side);
            std::fs::create_dir_all(&d).unwrap();
            for seed in 0..3 {
                let rec = format!(
                    "{{\"schema\": \"caba-benchmark-v1\", \"workload\": \"sim_base\", \"trace\": false, \"correct\": true, \
                     \"metrics\": {{\"op_p50_ms\": {{\"value\": {}, \"unit\": \"ms\"}}}}}}",
                    p50 + seed as f64 * 0.001
                );
                std::fs::write(d.join(format!("sim_base-{seed}.json")), rec).unwrap();
            }
            std::fs::write(
                d.join("trace-sim_base.json"),
                "{\"workload\": \"sim_base\", \"spans\": []}",
            )
            .unwrap();
        }
        let regressed = run(&dir.join("a"), &dir.join("b"));
        let same = run(&dir.join("a"), &dir.join("a"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(regressed, Ok(true));
        assert_eq!(same, Ok(false));
    }
}
