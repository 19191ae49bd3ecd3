//! Cross-process warm-start golden test: a sweep whose first process was
//! killed partway (emulated by running only a subset of its cells) must,
//! when re-run in a *fresh process* against the same `--store-dir`,
//! produce a figure table byte-identical to an unbroken in-process run —
//! the store is a pure accelerator, never an influence.

use caba_sweep::{dedup_cells, Figure, Sweep, SweepCell, SweepConfig};
use std::process::Command;

const SCALE: &str = "0.05";
const APPS: [&str; 2] = ["CONS", "BFS"];

/// The exact cell list `caba-sweep --figures fig07 --apps CONS,BFS`
/// selects, mirrored in-process so cell keys agree.
fn cells() -> Vec<SweepCell> {
    let groups = vec![Figure::Fig07.cells()];
    let mut cells = dedup_cells(&groups);
    cells.retain(|c| APPS.contains(&c.app));
    assert!(!cells.is_empty());
    cells
}

/// The CLI's sweep configuration for `--scale 0.05`.
fn sc() -> SweepConfig {
    SweepConfig {
        scale: SCALE.parse().unwrap(),
        ..SweepConfig::default()
    }
}

fn run_cli(args: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_caba-sweep"))
        .args(args)
        .output()
        .expect("caba-sweep spawns");
    assert!(
        out.status.success(),
        "caba-sweep {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn killed_sweep_resumes_bit_identically_in_a_fresh_process() {
    let dir = caba_store::fsio::scratch_dir("xproc-warm");
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Unbroken in-process reference.
    let reference = Sweep::new(&sc(), cells())
        .jobs(2)
        .run()
        .expect("unbroken sweep")
        .table();

    // Process 1, "killed" partway: only the CONS cells run and persist.
    run_cli(&[
        "--figures",
        "fig07",
        "--apps",
        "CONS",
        "--scale",
        SCALE,
        "--jobs",
        "2",
        "--store-dir",
        store_dir.to_str().unwrap(),
    ]);

    // Process 2, fresh, full cell set: the CONS cells must warm-start
    // from the store rather than recompute.
    let out = run_cli(&[
        "--figures",
        "fig07",
        "--apps",
        "CONS,BFS",
        "--scale",
        SCALE,
        "--jobs",
        "2",
        "--store-dir",
        store_dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let hits: u64 = stderr
        .lines()
        .find_map(|l| {
            let l = l.trim();
            l.strip_prefix("store: ")
                .and_then(|r| r.split_once(" hits"))
                .and_then(|(n, _)| n.parse().ok())
        })
        .unwrap_or_else(|| panic!("no store hit line in stderr:\n{stderr}"));
    assert!(hits > 0, "process 2 recomputed everything:\n{stderr}");
    // With no --table, the table is what process 2 printed.
    assert_eq!(String::from_utf8_lossy(&out.stdout), reference);

    // Golden pin: a third "process" (fresh Store instance) restores every
    // cell from disk and reproduces the unbroken table byte for byte.
    let store = caba_store::Store::open(&store_dir).expect("store reopens");
    let restored = Sweep::new(&sc(), cells())
        .jobs(2)
        .store(&store)
        .run()
        .expect("warm-started sweep");
    assert_eq!(
        restored.store_hits,
        cells().len(),
        "every cell should restore from the two CLI processes' work"
    );
    assert_eq!(
        restored.table(),
        reference,
        "cross-process warm start diverged from the unbroken run"
    );

    // The store survives its own audit after all that traffic.
    let report = store.scrub().expect("scrub runs");
    assert!(report.is_clean(), "store dirty after clean use: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
