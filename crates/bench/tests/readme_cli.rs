//! README.md's CLI block keeps up with the CLI: every `--flag` that
//! `spider-experiments` prints in its usage text is named in README.md.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spider-experiments");
const README: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");

/// The distinct `--flag` words of `text`, in order of first appearance.
fn flags(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
        if word.len() > 2 && word.starts_with("--") && !found.contains(&word) {
            found.push(word);
        }
    }
    found
}

#[test]
fn readme_names_every_flag_of_the_usage_text() {
    let output = Command::new(BIN)
        .output()
        .expect("spawn spider-experiments");
    assert_eq!(output.status.code(), Some(2), "no command is a usage error");
    let usage = String::from_utf8_lossy(&output.stderr);
    let usage_flags = flags(&usage);
    assert!(usage_flags.len() > 20, "usage lists too few flags: {usage}");
    let readme = std::fs::read_to_string(README).expect("read README.md");
    let named = flags(&readme);
    let missing: Vec<&str> = (usage_flags.into_iter())
        .filter(|flag| !named.contains(flag))
        .collect();
    assert!(missing.is_empty(), "README.md does not name {missing:?}");
}
