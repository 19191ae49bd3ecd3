//! Binary-level tests of the sweep CLI's argument handling: a scale the
//! machine model cannot take, the removed flags, a bad or missing value under
//! `caba-sweep store`, an app nobody registered, a filter that selects
//! nothing and a store option with no store are usage errors (exit 2) before
//! any work; the removed environment variables are not read; `--selftest`
//! honours `--figures`; `--figures fig08` prints fig07's rows; and `paper`
//! tables, named in any case, share their runs through the store.

use std::process::{Command, Output};

const SWEEP: &str = env!("CARGO_BIN_EXE_caba-sweep");

/// Runs `bin` with the space-separated `args` (scratch paths have no spaces).
fn output(args: &str, env: &[(&str, &str)]) -> Output {
    Command::new(SWEEP)
        .args(args.split(' '))
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("{SWEEP} spawns: {e}"))
}

/// [`output`]'s exit code and stderr.
fn run(args: &str, env: &[(&str, &str)]) -> (Option<i32>, String) {
    let out = output(args, env);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_scales_and_the_removed_flags_are_usage_errors() {
    let dir = caba_store::fsio::scratch_dir("cli-usage");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let table = dir.join("table.tsv");
    let out = format!("--table {}", table.display());
    for mode in ["", "paper fig07 "] {
        for scale in ["nan", "0", "-1", "inf"] {
            let (code, stderr) = run(&format!("{mode}--scale {scale} {out}"), &[]);
            assert_eq!(code, Some(2), "{mode}--scale {scale}: {stderr}");
            assert!(stderr.contains(&format!("{scale:?}")), "{mode}: {stderr}");
        }
    }
    // Each removed flag, and what the usage text says to do instead.
    let resume = "running again with the same --store-dir";
    let removed = [
        ("--intra-jobs 2", ""),
        ("--baseline", ""),
        ("--ref-wall 1.5", ""),
        ("--max-wall 600", ""),
        ("--out report.json", ""),
        ("--retries 1", resume),
        ("--resume x", resume),
        ("--store-cap 0", "store gc       LRU-evict"),
    ];
    for (flag, instead) in removed {
        let (code, stderr) = run(&format!("{flag} {out}"), &[]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        let name = flag.split(' ').next().expect("a flag");
        assert!(stderr.contains(&format!("unknown flag {name}")), "{stderr}");
        assert!(stderr.contains(instead), "{flag}: {stderr}");
    }
    assert!(!table.exists(), "a usage error still wrote a table");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sweep_that_would_run_other_cells_than_asked_is_a_usage_error() {
    let dir = caba_store::fsio::scratch_dir("cli-gate");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let table = dir.join("table.tsv");
    let store = format!("--store-dir {}", dir.join("store").display());
    let tail = format!("--scale 0.02 --jobs 1 --table {}", table.display());
    let cons = "--figures fig07 --apps CONS";
    // Each case: the arguments, and what stderr must name.
    let cases = [
        (
            "--figures fig07 --apps NOPE".to_string(),
            "unknown app \"NOPE\"",
        ),
        (
            "--figures fig07 --apps CONS,NOPE".into(),
            "expected one of: BFS, CONS, ",
        ),
        // A registered app that fig07 does not plot.
        ("--figures fig07 --apps mc".into(), "select no cells"),
        (
            format!("{cons} {store} --store-fault-rate 7"),
            "--store-fault-rate must lie in 0..=1, got 7",
        ),
        (format!("{cons} {store} --store-fault-rate nan"), "got NaN"),
        (
            format!("{cons} {store} --store-fault-rate -0.5"),
            "got -0.5",
        ),
        // A store option with no store to apply to.
        (
            format!("{cons} --store-fault-seed 7"),
            "--store-fault-seed needs --store-dir",
        ),
        (
            format!("{cons} --store-fault-rate 0.5"),
            "--store-fault-rate needs --store-dir",
        ),
        // A store would answer for cells the proof must compute twice.
        (
            format!("{cons} {store} --selftest"),
            "--selftest takes no --store-dir",
        ),
        // A paper table is defined over its own cells.
        (
            "paper fig07 --apps CONS".into(),
            "takes no --figures, --apps",
        ),
        (
            "paper fig99".into(),
            "unknown figure \"fig99\" (expected one of: fig01, fig02, ",
        ),
        // A figure that simulates nothing has no raw rows to print.
        ("--figures fig02".into(), "select no cells"),
        ("paper".into(), "missing table name"),
    ];
    for (args, names) in &cases {
        let (code, stderr) = run(&format!("{args} {tail}"), &[]);
        assert_eq!(code, Some(2), "{args}: {stderr}");
        assert!(stderr.contains(names), "{args}: {stderr}");
    }
    assert!(!table.exists(), "a usage error still wrote a table");
    // Well-formed, the same flags run the five cells asked for.
    let flags = format!("{store} --store-fault-seed 7 --store-fault-rate 1");
    let (code, stderr) = run(&format!("{cons} {flags} {tail}"), &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("sweep fig07: 5 cells"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&table)
            .expect("table")
            .lines()
            .count(),
        5
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn selftest_runs_the_figures_and_apps_it_was_given() {
    let args = "--selftest --figures fig01 --apps CONS,NQU --scale 0.02";
    let out = output(args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("selftest fig01: 6 cells"), "{stderr}");
    assert!(
        stderr.contains("selftest OK: fig01 bit-identical"),
        "{stderr}"
    );
    for other in ["fig07", "fig10", "fig12"] {
        assert!(!stderr.contains(other), "{other} ran too: {stderr}");
    }
    // With no --table the figure table is what stdout carries.
    let table = String::from_utf8_lossy(&out.stdout);
    assert_eq!(table.lines().count(), 6, "{table}");
    assert!(table.starts_with("CONS\tBase\t0.5\t{"), "{table}");
}

#[test]
fn a_figure_table_is_its_cells_raw_rows() {
    let stdout = |args: &str| {
        let out = output(args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args}: {stderr}");
        out.stdout
    };
    // Fig. 8 is another metric of Fig. 7's runs: its raw rows are fig07's.
    let cells = "--apps CONS --scale 0.05 --jobs 1";
    let fig07 = stdout(&format!("--figures fig07 {cells}"));
    assert_eq!(fig07.split(|&b| b == b'\n').count(), 5 + 1);
    assert_eq!(stdout(&format!("--figures fig08 {cells}")), fig07);
}

#[test]
fn paper_tables_share_their_runs_through_the_store() {
    let dir = caba_store::fsio::scratch_dir("cli-paper");
    let flags = format!("--scale 0.02 --store-dir {}", dir.display());
    let fig07 = output(&format!("paper fig07 {flags}"), &[]);
    let stderr = String::from_utf8_lossy(&fig07.stderr);
    assert_eq!(fig07.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("store: 0 hits, 200 misses"), "{stderr}");
    let stdout = String::from_utf8_lossy(&fig07.stdout);
    assert!(stdout.starts_with("App "), "{stdout}");
    assert_eq!(stdout.lines().count(), 2 + 20 + 1, "{stdout}");
    // Names parse in any ASCII case, as `--figures` takes them.
    let upper = output(&format!("paper FIG07 {flags}"), &[]);
    let stderr = String::from_utf8_lossy(&upper.stderr);
    assert!(stderr.contains("store: 100 hits, 0 misses"), "{stderr}");
    assert_eq!(upper.stdout, fig07.stdout);
    // Fig. 8 reports another metric of the same hundred runs.
    let (code, stderr) = run(&format!("paper fig08 {flags}"), &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("store: 100 hits, 0 misses"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_store_subcommand_names_a_bad_or_missing_flag_value() {
    let dir = caba_store::fsio::scratch_dir("cli-store");
    let root = dir.display();
    let (code, stderr) = run(
        &format!("store gc --store-dir {root} --store-cap 10MB"),
        &[],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid value \"10MB\" for --store-cap"),
        "{stderr}"
    );
    for flag in ["--store-dir", "--store-cap", "--out"] {
        let (code, stderr) = run(&format!("store gc --store-cap 0 {flag}"), &[]);
        assert_eq!(code, Some(2), "trailing {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} requires a value")),
            "{stderr}"
        );
    }
    assert!(!dir.exists(), "a usage error still opened a store");
    // The flags still work when they are well formed.
    let (code, stderr) = run(&format!("store gc --store-dir {root} --store-cap 0"), &[]);
    assert_eq!(code, Some(0), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_removed_environment_variables_change_nothing() {
    let dir = caba_store::fsio::scratch_dir("cli-env");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let table = |tag: &str, env: &[(&str, &str)]| {
        let path = dir.join(tag);
        // No --scale and --jobs 1: the two values the variables used to set.
        let cells = "--figures fig07 --apps CONS --jobs 1";
        let (code, stderr) = run(&format!("{cells} --table {}", path.display()), env);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stderr.contains("at scale 0.5 with 1 jobs"), "{stderr}");
        std::fs::read_to_string(path).expect("written")
    };
    let plain = table("plain", &[]);
    let removed = [
        ("CABA_INTRA_JOBS", "4"),
        ("CABA_BENCH_SCALE", "nan"),
        ("CABA_SWEEP_JOBS", "0"),
    ];
    assert_eq!(table("env", &removed), plain);
    let _ = std::fs::remove_dir_all(&dir);
}
