//! README and `examples/` agree: every example file has a
//! `cargo run --release --example NAME` line in README.md, and every such
//! line names an example file.

use std::collections::BTreeSet;

#[test]
fn every_example_has_a_readme_command_and_every_command_an_example() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let commands: BTreeSet<&str> = readme
        .lines()
        .filter_map(|line| line.split_once("cargo run --release --example "))
        .filter_map(|(_, rest)| rest.split_whitespace().next())
        .collect();
    let names: Vec<String> = std::fs::read_dir(root.join("examples"))
        .expect("read examples/")
        .map(|entry| entry.expect("examples/ entry").file_name())
        .filter_map(|name| Some(name.to_str()?.strip_suffix(".rs")?.to_string()))
        .collect();
    let files: BTreeSet<&str> = names.iter().map(String::as_str).collect();
    assert!(!files.is_empty(), "examples/ holds no .rs file");
    assert_eq!(
        files, commands,
        "left: examples/*.rs; right: the examples README.md gives a command for"
    );
}
