//! Binary-level tests of `caba-serve`'s fault-injection flags: the rule
//! `caba-sweep` applies too (`crates/sweep/tests/cli.rs`) — a rate outside
//! `0..=1` and either flag without `--store-dir` are usage errors (exit
//! 2) before the server binds or opens a store.

use std::process::Command;

const SERVE: &str = env!("CARGO_BIN_EXE_caba-serve");

#[test]
fn bad_fault_flags_are_usage_errors_before_anything_starts() {
    let dir = caba_store::fsio::scratch_dir("serve-cli-usage");
    let store = format!("--store-dir {}", dir.display());
    // Each case: the arguments, and what stderr must name.
    let cases = [
        (
            format!("{store} --store-fault-rate 7"),
            "--store-fault-rate must lie in 0..=1, got 7",
        ),
        (format!("{store} --store-fault-rate nan"), "got NaN"),
        (format!("{store} --store-fault-rate -0.5"), "got -0.5"),
        (
            format!("{store} --store-fault-rate x"),
            "invalid value \"x\" for --store-fault-rate",
        ),
        (
            format!("{store} --store-fault-seed -1"),
            "invalid value \"-1\" for --store-fault-seed",
        ),
        (
            format!("{store} --store-fault-seed"),
            "--store-fault-seed requires a value",
        ),
        // A fault flag with no store to apply to.
        (
            "--store-fault-seed 7".to_string(),
            "--store-fault-seed needs --store-dir",
        ),
        (
            "--store-fault-rate 0.5".to_string(),
            "--store-fault-rate needs --store-dir",
        ),
    ];
    for (args, names) in &cases {
        // A port no test binds: a usage error must come before the bind.
        let out = Command::new(SERVE)
            .args(format!("--addr 127.0.0.1:0 {args}").split(' '))
            .output()
            .unwrap_or_else(|e| panic!("{SERVE} spawns: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(names), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: it started listening");
    }
    assert!(!dir.exists(), "a usage error still opened a store");
}
