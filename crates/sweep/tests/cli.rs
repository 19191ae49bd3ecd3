//! Binary-level tests of the two sweep CLIs' argument handling: a scale the
//! machine model cannot take, the removed `--intra-jobs` flag, a bad or
//! missing value under `caba-sweep store`, and anything that would let the
//! `--max-wall` perf gate pass without measuring (a budget that is not a
//! number, an app nobody registered, a filter that selects nothing) are
//! usage errors (exit 2) before any work, and the removed `CABA_INTRA_JOBS`
//! variable is not read.

use std::process::{Command, Output};

const SWEEP: &str = env!("CARGO_BIN_EXE_caba-sweep");
const FIG01: &str = env!("CARGO_BIN_EXE_fig01");

/// Runs `bin` with the space-separated `args` (scratch paths have no spaces).
fn run(bin: &str, args: &str, env: &[(&str, &str)]) -> (Option<i32>, String) {
    let out: Output = Command::new(bin)
        .args(args.split(' '))
        .env_remove("CABA_BENCH_SCALE")
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("{bin} spawns: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_scales_and_the_removed_flag_are_usage_errors() {
    let dir = caba_store::fsio::scratch_dir("cli-usage");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let report = dir.join("report.json");
    let out = format!("--out {}", report.display());
    for bin in [SWEEP, FIG01] {
        for scale in ["nan", "0", "-1", "inf"] {
            let (code, stderr) = run(bin, &format!("--scale {scale} {out}"), &[]);
            assert_eq!(code, Some(2), "{bin} --scale {scale}: {stderr}");
            assert!(stderr.contains(&format!("{scale:?}")), "{bin}: {stderr}");
        }
        let (code, _) = run(bin, &format!("--intra-jobs 2 {out}"), &[]);
        assert_eq!(code, Some(2), "{bin} --intra-jobs 2");
    }
    let (code, stderr) = run(SWEEP, &out, &[("CABA_BENCH_SCALE", "nan")]);
    assert_eq!(code, Some(2), "CABA_BENCH_SCALE=nan: {stderr}");
    assert!(stderr.contains("CABA_BENCH_SCALE"), "{stderr}");
    assert!(!report.exists(), "a usage error still wrote a report");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_perf_gate_cannot_pass_without_measuring() {
    let dir = caba_store::fsio::scratch_dir("cli-gate");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let report = dir.join("report.json");
    let tail = format!("--scale 0.02 --jobs 1 --out {}", report.display());
    let cons = "--figures fig07 --apps CONS";
    // Each case: the arguments, and what stderr must name.
    let cases = [
        (
            format!("{cons} --max-wall nan"),
            "--max-wall must be a finite number > 0, got \"nan\"",
        ),
        (format!("{cons} --max-wall inf"), "got \"inf\""),
        (format!("{cons} --max-wall 0"), "got \"0\""),
        (
            format!("{cons} --ref-wall nan"),
            "--ref-wall must be a finite number > 0, got \"nan\"",
        ),
        (format!("{cons} --ref-wall -3"), "got \"-3\""),
        (
            "--figures fig07 --apps NOPE --max-wall 30".into(),
            "unknown app \"NOPE\"",
        ),
        (
            "--figures fig07 --apps CONS,NOPE".into(),
            "expected one of: BFS, CONS, ",
        ),
        // A registered app that fig07 does not plot.
        (
            "--figures fig07 --apps mc --max-wall 30".into(),
            "select no cells",
        ),
        (
            format!("{cons} --store-fault-rate 7"),
            "--store-fault-rate must lie in 0..=1, got 7",
        ),
        (format!("{cons} --store-fault-rate nan"), "got NaN"),
        (format!("{cons} --store-fault-rate -0.5"), "got -0.5"),
    ];
    for (args, names) in &cases {
        let (code, stderr) = run(SWEEP, &format!("{args} {tail}"), &[]);
        assert_eq!(code, Some(2), "{args}: {stderr}");
        assert!(stderr.contains(names), "{args}: {stderr}");
        assert!(!stderr.contains("perf gate OK"), "{args}: {stderr}");
    }
    assert!(!report.exists(), "a usage error still wrote a report");
    // Well-formed, the same flags measure one cell and gate on it.
    let flags = "--max-wall 600 --ref-wall 1.5 --store-fault-rate 1";
    let (code, stderr) = run(SWEEP, &format!("{cons} {flags} {tail}"), &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("sweep: 5 cells") && stderr.contains("perf gate OK"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_store_subcommand_names_a_bad_or_missing_flag_value() {
    let dir = caba_store::fsio::scratch_dir("cli-store");
    let root = dir.display();
    let (code, stderr) = run(
        SWEEP,
        &format!("store gc --store-dir {root} --store-cap 10MB"),
        &[],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid value \"10MB\" for --store-cap"),
        "{stderr}"
    );
    for flag in ["--store-dir", "--store-cap", "--out"] {
        let (code, stderr) = run(SWEEP, &format!("store gc --store-cap 0 {flag}"), &[]);
        assert_eq!(code, Some(2), "trailing {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} requires a value")),
            "{stderr}"
        );
    }
    assert!(!dir.exists(), "a usage error still opened a store");
    // The flags still work when they are well formed.
    let (code, stderr) = run(
        SWEEP,
        &format!("store gc --store-dir {root} --store-cap 0"),
        &[],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `json` with the number after every wall-clock key zeroed: those differ
/// from run to run, everything else in a report must not.
fn without_walls(json: &str) -> String {
    let mut out = String::new();
    let mut rest = json;
    while let Some(i) = rest.find("\": ") {
        let (head, tail) = rest.split_at(i + 3);
        out.push_str(head);
        let key = &head[head[..i].rfind('"').expect("key opens") + 1..i];
        rest = tail;
        if key.contains("wall") || key.contains("per_sec") {
            out.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || "+-.eE".contains(c));
        }
    }
    out + rest
}

#[test]
fn the_removed_environment_variable_changes_nothing() {
    let dir = caba_store::fsio::scratch_dir("cli-env");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let report = |tag: &str, env: &[(&str, &str)]| {
        let (json, table) = (dir.join(tag).with_extension("json"), dir.join(tag));
        let files = format!("--out {} --table {}", json.display(), table.display());
        let cells = "--figures fig07 --apps CONS --scale 0.05 --jobs 1";
        let (code, stderr) = run(SWEEP, &format!("{cells} {files}"), env);
        assert_eq!(code, Some(0), "{stderr}");
        let read = |p| std::fs::read_to_string(p).expect("written");
        (without_walls(&read(json)), read(table))
    };
    let plain = report("plain", &[]);
    assert!(plain.0.contains("\"jobs\": 1,") && !plain.0.contains("intra"));
    assert_eq!(report("env", &[("CABA_INTRA_JOBS", "4")]), plain);
    let _ = std::fs::remove_dir_all(&dir);
}
