// Records the compiler version in the binary, for the host record that
// goes with every measurement.
fn main() {
    // Without this, Cargo reruns the script (and rebuilds the crate) whenever
    // a file in the package changes, and every traced run writes one to out/.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=CABA_BENCH_RUSTC={}", version.trim());
}
