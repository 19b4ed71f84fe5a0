//! Integration tests for the workspace linter: per-rule fixtures, allow
//! directives, false-positive resistance (strings/comments/test code),
//! scan determinism, ratchet behavior, and the committed baseline itself.

use spider_lint::{
    check, check_report, lint_source, load_baseline, render_json, scan_workspace, workspace_root,
    Baseline, BaselineEntry, Violation,
};

/// Lints `source` as if it lived at `rel`, returning `(rule, line)` pairs.
fn hits(rel: &str, source: &str) -> Vec<(String, u32)> {
    lint_source(rel, source)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

fn rules_of(rel: &str, source: &str) -> Vec<String> {
    let mut rules: Vec<String> = lint_source(rel, source)
        .into_iter()
        .map(|v| v.rule)
        .collect();
    rules.dedup();
    rules
}

const SIM_PATH: &str = "crates/spider-sim/src/fixture.rs";
const LIB_PATH: &str = "crates/spider-topology/src/fixture.rs";
const BIN_PATH: &str = "crates/bench/src/bin/fixture.rs";
const TEST_PATH: &str = "tests/fixture.rs";

// ---------------------------------------------------------- determinism --

#[test]
fn determinism_flags_unordered_collections_on_sim_paths() {
    let src =
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
    let got = hits(SIM_PATH, src);
    assert_eq!(got.len(), 3, "{got:?}");
    assert!(got.iter().all(|(r, _)| r == "determinism"));
    assert_eq!(got[0].1, 1);
    assert_eq!(got[1].1, 2);
}

#[test]
fn determinism_flags_wall_clock_and_os_randomness() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(rules_of(SIM_PATH, src), ["determinism"]);
    let src = "fn f() { let t = SystemTime::now(); }\n";
    assert_eq!(rules_of(SIM_PATH, src), ["determinism"]);
    let src = "fn f() { let mut rng = thread_rng(); }\n";
    assert_eq!(rules_of(SIM_PATH, src), ["determinism"]);
    // `Instant` without `::now` is fine (e.g. a type in a signature).
    let src = "fn f(t: std::time::Instant) {}\n";
    assert!(hits(SIM_PATH, src).is_empty());
}

#[test]
fn determinism_ignores_ordered_collections_and_other_crates() {
    let src = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n";
    assert!(hits(SIM_PATH, src).is_empty());
    // Same code in a non-deterministic crate is out of scope.
    let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() }\n";
    assert!(hits(LIB_PATH, src).is_empty());
    // The experiments CLI is deliberately allowlisted.
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert!(hits("crates/bench/src/bin/spider_experiments.rs", src).is_empty());
}

#[test]
fn determinism_skips_test_modules_and_mentions_in_strings_or_comments() {
    let src = "\
// A HashMap would be wrong here; Instant::now() too.
fn f() { let s = \"HashMap and SystemTime::now()\"; }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = HashMap::<u32, u32>::new(); }
}
";
    assert!(hits(SIM_PATH, src).is_empty(), "{:?}", hits(SIM_PATH, src));
}

#[test]
fn determinism_respects_allow_directive() {
    let src = "\
// spider-lint: allow(determinism) — membership-only set, never iterated
fn f() { let s: std::collections::HashSet<u32> = Default::default(); }
";
    assert!(hits(SIM_PATH, src).is_empty());
    // The directive covers its own line and the next one only.
    let src = "\
// spider-lint: allow(determinism)
fn f() {}
fn g() { let s: std::collections::HashSet<u32> = Default::default(); }
";
    assert_eq!(rules_of(SIM_PATH, src), ["determinism"]);
    // Allowing one rule does not allow another.
    let src = "\
// spider-lint: allow(panic-hygiene)
fn f() { let s: std::collections::HashSet<u32> = Default::default(); }
";
    assert_eq!(rules_of(SIM_PATH, src), ["determinism"]);
}

// ---------------------------------------------------------- money-safety --

#[test]
fn money_safety_flags_float_conversions_outside_boundary() {
    let src = "fn f() { let a = Amount::from_tokens(1.5); let b = a.as_tokens(); }\n";
    let got = hits(SIM_PATH, src);
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got.iter().all(|(r, _)| r == "money-safety"));
    let src = "fn f(a: Amount) -> f64 { a.micros() as f64 }\n";
    assert_eq!(rules_of(SIM_PATH, src), ["money-safety"]);
}

#[test]
fn money_safety_permits_the_declared_boundary_and_tests() {
    let src = "fn f() { let a = Amount::from_tokens(1.5); }\n";
    assert!(hits("crates/spider-opt/src/fluid.rs", src).is_empty());
    assert!(hits("crates/spider-core/src/amount.rs", src).is_empty());
    assert!(hits(TEST_PATH, src).is_empty());
    // `micros()` without a cast is fine.
    let src = "fn f(a: Amount) -> i64 { a.micros() }\n";
    assert!(hits(SIM_PATH, src).is_empty());
}

// --------------------------------------------------------- panic-hygiene --

#[test]
fn panic_hygiene_flags_unwrap_and_expect_in_library_code() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules_of(LIB_PATH, src), ["panic-hygiene"]);
    let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }\n";
    assert_eq!(rules_of(LIB_PATH, src), ["panic-hygiene"]);
}

#[test]
fn panic_hygiene_skips_tests_bins_and_lookalikes() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(hits(BIN_PATH, src).is_empty());
    assert!(hits(TEST_PATH, src).is_empty());
    let src = "#[test]\nfn t() { Some(1).unwrap(); }\n";
    assert!(hits(LIB_PATH, src).is_empty());
    // unwrap_or / unwrap_or_else / into_inner are different idents.
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0).max(x.unwrap_or(1)) }\n";
    assert!(hits(LIB_PATH, src).is_empty());
    // A doc string mentioning `.unwrap()` is not a call.
    let src = "fn f() { let s = \"call .unwrap() here\"; } // .expect(\"no\")\n";
    assert!(hits(LIB_PATH, src).is_empty());
}

// ---------------------------------------------------------- unsafe-audit --

#[test]
fn unsafe_audit_flags_unsafe_everywhere_first_party() {
    let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
    assert_eq!(rules_of(LIB_PATH, src), ["unsafe-audit"]);
    // Even in test code and bins.
    let src = "#[test]\nfn t() { unsafe {} }\n";
    assert_eq!(rules_of(TEST_PATH, src), ["unsafe-audit"]);
    assert_eq!(rules_of(BIN_PATH, src), ["unsafe-audit"]);
    // ...but not inside strings or comments.
    let src = "// unsafe\nfn f() { let s = \"unsafe\"; }\n";
    assert!(hits(LIB_PATH, src).is_empty());
}

// ---------------------------------------------------------- serde-compat --

#[test]
fn serde_compat_requires_default_on_frozen_struct_fields() {
    let src = "\
#[derive(Serialize, Deserialize)]
pub struct SimReport {
    pub completed: usize,
    #[serde(default)]
    pub extra: Option<u32>,
    #[serde(default, skip_serializing_if = \"Option::is_none\")]
    pub faults: Option<u8>,
}
";
    let got = lint_source(LIB_PATH, src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].rule, "serde-compat");
    assert_eq!(got[0].line, 3);
    assert!(got[0].message.contains("completed"));
}

#[test]
fn serde_compat_ignores_unfrozen_structs_and_generic_fields() {
    let src = "pub struct Other { pub a: Vec<(u32, u32)>, pub b: std::collections::BTreeMap<String, u32> }\n";
    assert!(hits(LIB_PATH, src).is_empty());
    // Grid results are compared run against run, never against a fixture.
    assert!(hits(LIB_PATH, "pub struct GridSummary { pub plain: u32 }\n").is_empty());
    // Generic types with commas inside angle brackets must not confuse the
    // field walker: only `plain` lacks the attribute.
    let src = "\
pub struct TelemetrySummary {
    #[serde(default)]
    pub m: std::collections::BTreeMap<(String, u32), Vec<u8>>,
    pub plain: u32,
}
";
    let got = lint_source(LIB_PATH, src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].message.contains("plain"));
}

// ------------------------------------------------------------ the ratchet --

fn v(file: &str, line: u32, rule: &str) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule: rule.to_string(),
        message: format!("synthetic {rule}"),
    }
}

#[test]
fn ratchet_fails_on_new_violations_and_stale_entries() {
    let baselined = [v("a.rs", 3, "panic-hygiene"), v("a.rs", 9, "panic-hygiene")];
    let base = Baseline::from_violations(&baselined);

    // Exactly at baseline: ok (line numbers may shift, counts matter).
    let moved = [
        v("a.rs", 7, "panic-hygiene"),
        v("a.rs", 30, "panic-hygiene"),
    ];
    assert!(check(&moved, &base).ok());

    // One new violation: regression.
    let more = [
        v("a.rs", 3, "panic-hygiene"),
        v("a.rs", 9, "panic-hygiene"),
        v("a.rs", 11, "panic-hygiene"),
    ];
    let outcome = check(&more, &base);
    assert!(!outcome.ok());
    assert_eq!(outcome.regressions.len(), 1);
    assert_eq!(outcome.regressions[0].baseline, 2);
    assert_eq!(outcome.regressions[0].actual, 3);

    // Debt shrank without re-blessing: stale, also a failure.
    let fewer = [v("a.rs", 3, "panic-hygiene")];
    let outcome = check(&fewer, &base);
    assert!(!outcome.ok());
    assert_eq!(outcome.stale.len(), 1);

    // A violation in a file with no baseline entry is a regression from 0.
    let elsewhere = [v("b.rs", 1, "unsafe-audit")];
    let base_b = Baseline {
        entries: Vec::new(),
    };
    let outcome = check(&elsewhere, &base_b);
    assert_eq!(outcome.regressions.len(), 1);
    assert_eq!(outcome.regressions[0].baseline, 0);
}

#[test]
fn ratchet_keys_are_per_file_and_per_rule() {
    let base = Baseline {
        entries: vec![BaselineEntry {
            file: "a.rs".to_string(),
            rule: "panic-hygiene".to_string(),
            count: 1,
        }],
    };
    // Same count under a different rule does not satisfy the entry.
    let current = [v("a.rs", 1, "unsafe-audit")];
    let outcome = check(&current, &base);
    assert_eq!(outcome.regressions.len(), 1, "{outcome:?}");
    assert_eq!(outcome.stale.len(), 1);
}

// ---------------------------------------------- the workspace, as committed --

#[test]
fn workspace_scan_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = scan_workspace(&root).expect("scan");
    let b = scan_workspace(&root).expect("scan");
    let base = load_baseline(&spider_lint::baseline_path(&root)).expect("baseline");
    let ja = render_json(&check_report(&a, &base));
    let jb = render_json(&check_report(&b, &base));
    assert_eq!(ja, jb, "check --json must be byte-identical across runs");
    assert!(ja.ends_with('\n'));
}

#[test]
fn committed_tree_matches_committed_baseline() {
    let root = workspace_root();
    let current = scan_workspace(&root).expect("scan");
    let base = load_baseline(&spider_lint::baseline_path(&root)).expect("baseline");
    let report = check_report(&current, &base);
    assert!(
        report.ok,
        "tree deviates from lint-baseline.json:\n{}",
        spider_lint::render_text(&report)
    );
    // The ratchet's headline numbers for this tree.
    let total_of = |rule: &str| {
        report
            .rule_totals
            .iter()
            .find(|rt| rt.rule == rule)
            .map_or(0, |rt| rt.count)
    };
    assert_eq!(
        total_of("determinism"),
        0,
        "determinism debt must stay zero"
    );
    assert_eq!(total_of("unsafe-audit"), 0, "unsafe debt must stay zero");
}

#[test]
fn synthetic_regression_against_committed_baseline_fails() {
    let root = workspace_root();
    let mut current = scan_workspace(&root).expect("scan");
    let base = load_baseline(&spider_lint::baseline_path(&root)).expect("baseline");
    current.push(v("crates/spider-sim/src/engine.rs", 1, "determinism"));
    current.sort();
    let report = check_report(&current, &base);
    assert!(!report.ok);
    assert!(report
        .regressions
        .iter()
        .any(|r| r.rule == "determinism" && r.file == "crates/spider-sim/src/engine.rs"));
}

// ------------------------------------------------------- overflow-safety --

#[test]
fn overflow_safety_flags_raw_arithmetic_on_amounts() {
    let src = "fn f(a: Amount, b: Amount) -> Amount { a + b }\n";
    assert_eq!(rules_of(LIB_PATH, src), ["overflow-safety"]);
    let src = "fn f(total: Amount, v: Amount) { let x = total - v; }\n";
    assert_eq!(rules_of(LIB_PATH, src), ["overflow-safety"]);
    // Compound assignment on a let-ascribed Amount.
    let src = "fn f(v: Amount) { let mut acc: Amount = Amount::ZERO; acc += v; }\n";
    assert_eq!(rules_of(LIB_PATH, src), ["overflow-safety"]);
    // A struct field whose type mentions Amount is money too.
    let src = "\
struct S { total: Amount }
impl S {
    fn bump(&mut self, v: Amount) { self.total = self.total + v; }
}
";
    assert_eq!(rules_of(LIB_PATH, src), ["overflow-safety"]);
}

#[test]
fn overflow_safety_permits_checked_ops_and_non_money_arithmetic() {
    let src = "fn f(a: Amount, b: Amount) -> Option<Amount> { a.checked_add(b) }\n";
    assert!(hits(LIB_PATH, src).is_empty());
    let src = "fn f(a: Amount, b: Amount) -> Amount { a.saturating_sub(b) }\n";
    assert!(hits(LIB_PATH, src).is_empty());
    // Plain integer arithmetic is out of scope.
    let src = "fn f(i: usize) -> usize { i + 1 }\n";
    assert!(hits(LIB_PATH, src).is_empty());
    // `->` is an arrow, not a subtraction; unary minus is not binary.
    let src = "fn f(a: Amount) -> Amount { -a }\n";
    assert!(hits(LIB_PATH, src).is_empty());
}

#[test]
fn overflow_safety_skips_amount_rs_tests_and_allows() {
    let src = "fn f(a: Amount, b: Amount) -> Amount { a + b }\n";
    assert!(hits("crates/spider-core/src/amount.rs", src).is_empty());
    assert!(hits(TEST_PATH, src).is_empty());
    let src = "#[test]\nfn t(a: Amount, b: Amount) { let _ = a + b; }\n";
    assert!(hits(LIB_PATH, src).is_empty());
    let src = "\
fn f(a: Amount, b: Amount) -> Amount {
    // spider-lint: allow(overflow-safety) — bounded by construction
    a + b
}
";
    assert!(hits(LIB_PATH, src).is_empty());
}

// ------------------------------------------------------- shard-ownership --

#[test]
fn shard_ownership_requires_owner_guard_before_ledger_mutation() {
    let src = "\
impl Shard {
    fn apply(&mut self, c: ChannelId) {
        self.ledger.deposit(&self.network, c, n, amount);
    }
}
";
    let got = hits(spider_lint::rules::SHARDED_ENGINE_PATH, src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].0, "shard-ownership");
    assert_eq!(got[0].1, 3);
}

#[test]
fn shard_ownership_accepts_guarded_mutations_and_reads() {
    let src = "\
impl Shard {
    fn apply(&mut self, c: ChannelId) {
        if self.own(c) {
            self.ledger.deposit(&self.network, c, n, amount);
        }
    }
}
";
    assert!(hits(spider_lint::rules::SHARDED_ENGINE_PATH, src).is_empty());
    // Non-mutating reads need no guard.
    let src = "\
impl Shard {
    fn peek(&self, c: ChannelId) -> (Amount, Amount) {
        self.ledger.balances(c)
    }
}
";
    assert!(hits(spider_lint::rules::SHARDED_ENGINE_PATH, src).is_empty());
}

#[test]
fn shard_ownership_covers_lending_the_whole_ledger() {
    // The callee can mutate any slot, so the borrow needs the guard …
    let src = "\
impl Shard {
    fn rebalance(&mut self, c: ChannelId) {
        policy.apply(&mut self.ledger, self.network, c, None, 0.0);
    }
}
";
    let got = hits(spider_lint::rules::SHARDED_ENGINE_PATH, src);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0], ("shard-ownership".to_string(), 3));
    // … and is fine after it; a shared borrow never needs one.
    let src = "\
impl Shard {
    fn rebalance(&mut self, c: ChannelId) {
        audit.check(&self.ledger, 0.0, \"epoch\");
        if !self.own(c, 0, \"rebalance-apply\") {
            return;
        }
        policy.apply(&mut self.ledger, self.network, c, None, 0.0);
    }
}
";
    assert!(hits(spider_lint::rules::SHARDED_ENGINE_PATH, src).is_empty());
}

#[test]
fn shard_ownership_only_applies_to_the_sharded_engine() {
    let src = "\
impl Engine {
    fn apply(&mut self, c: ChannelId) {
        self.ledger.deposit(&self.network, c, n, amount);
    }
}
";
    assert!(!hits(SIM_PATH, src)
        .iter()
        .any(|(r, _)| r == "shard-ownership"));
}

// ------------------------------------------- call-graph reachability rules --

use spider_lint::rules::analyze_source;
use spider_lint::CallGraph;

/// Builds a call graph from `(path, source)` fixture files.
fn graph_of(files: &[(&str, &str)]) -> CallGraph {
    let parsed: Vec<(String, spider_lint::parser::ParsedFile)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), analyze_source(rel, src).parsed))
        .collect();
    CallGraph::build(&parsed)
}

const ENGINE_PATH: &str = "crates/spider-sim/src/engine.rs";

#[test]
fn panic_reachability_flags_panics_transitively_reachable_from_entry() {
    let g = graph_of(&[
        (ENGINE_PATH, "pub fn run() { step(); }\nfn step() { helper(3); }\n"),
        (
            "crates/spider-core/src/util.rs",
            "pub fn helper(x: u32) -> u32 { inner(x) }\nfn inner(x: u32) -> u32 { Some(x).unwrap() }\n",
        ),
    ]);
    let vs = g.reachability_violations();
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].rule, "panic-reachability");
    assert_eq!(vs[0].file, "crates/spider-core/src/util.rs");
    assert_eq!(vs[0].line, 2);
    assert!(vs[0].message.contains("run"), "{}", vs[0].message);
}

#[test]
fn reachability_ignores_panics_not_reachable_from_any_entry() {
    let g = graph_of(&[
        (ENGINE_PATH, "pub fn run() { step(); }\nfn step() {}\n"),
        (
            "crates/spider-core/src/util.rs",
            "pub fn orphan(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
    ]);
    assert!(g.reachability_violations().is_empty());
}

#[test]
fn wallclock_reachability_flags_reachable_wall_time_reads() {
    let g = graph_of(&[
        (ENGINE_PATH, "pub fn run() { tick(); }\n"),
        (
            "crates/spider-telemetry/src/clock.rs",
            "pub fn tick() { let _ = std::time::Instant::now(); }\n",
        ),
    ]);
    let vs = g.reachability_violations();
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].rule, "wallclock-reachability");
    assert!(vs[0].message.contains("Instant::now"), "{}", vs[0].message);
}

#[test]
fn reachability_does_not_cross_into_bin_or_test_callees() {
    // A name collision with a bin-crate fn must not create an edge: callee
    // resolution is restricted to library paths.
    let g = graph_of(&[
        (ENGINE_PATH, "pub fn run() { record(); }\n"),
        (
            "crates/bench/src/bin/tool.rs",
            "pub fn record() { panic!(\"bin only\"); }\n",
        ),
    ]);
    assert!(g.reachability_violations().is_empty());
}

// -------------------------------------------------------- bless --rule --

#[test]
fn merge_rule_replaces_one_rule_and_preserves_the_rest() {
    let old = Baseline::from_violations(&[
        v("a.rs", 1, "panic-hygiene"),
        v("a.rs", 2, "panic-hygiene"),
        v("b.rs", 1, "overflow-safety"),
    ]);
    // The new scan burned one panic-hygiene hit and grew overflow debt.
    let scan = Baseline::from_violations(&[
        v("a.rs", 1, "panic-hygiene"),
        v("b.rs", 1, "overflow-safety"),
        v("b.rs", 2, "overflow-safety"),
        v("c.rs", 9, "overflow-safety"),
    ]);

    let merged = old.merge_rule(&scan, "panic-hygiene");
    // panic-hygiene taken from the scan...
    let ph: Vec<_> = merged
        .entries
        .iter()
        .filter(|e| e.rule == "panic-hygiene")
        .collect();
    assert_eq!(ph.len(), 1);
    assert_eq!(ph[0].count, 1);
    // ...while the other rule's entries are untouched (no c.rs, count 1).
    let of: Vec<_> = merged
        .entries
        .iter()
        .filter(|e| e.rule == "overflow-safety")
        .collect();
    assert_eq!(of.len(), 1);
    assert_eq!(of[0].file, "b.rs");
    assert_eq!(of[0].count, 1);
    // Selective blessing therefore still fails the untouched rule's check.
    let current = [
        v("a.rs", 1, "panic-hygiene"),
        v("b.rs", 1, "overflow-safety"),
        v("b.rs", 2, "overflow-safety"),
        v("c.rs", 9, "overflow-safety"),
    ];
    let outcome = check(&current, &merged);
    assert!(!outcome.ok());
    assert!(outcome
        .regressions
        .iter()
        .all(|r| r.rule == "overflow-safety"));
}

// ------------------------------------------------ parser robustness (prop) --

use proptest::prelude::*;

/// Maps a byte stream onto Rust-ish source text: a mix of raw characters
/// and high-signal token fragments so the generator actually exercises fn
/// parsing, call scanning, and panic detection.
fn source_from_bytes(bytes: &[u8]) -> String {
    const VOCAB: [&str; 24] = [
        "fn ",
        "f",
        "(",
        ")",
        "{",
        "}",
        "self",
        ".",
        "unwrap",
        "expect",
        "panic!",
        "::",
        "<",
        ">",
        "Amount",
        "a + b",
        "impl T for U ",
        "\"str\"",
        "// c\n",
        "let x: Amount = y;",
        "#[test]",
        "Instant::now()",
        "'a",
        "\n",
    ];
    let mut out = String::new();
    for &b in bytes {
        if b < 128 {
            out.push(b as char);
        } else {
            out.push_str(VOCAB[(b - 128) as usize % VOCAB.len()]);
        }
    }
    out
}

proptest! {
    /// The lexer + parser + every per-file rule never panic and are
    /// deterministic on arbitrary byte soup.
    #[test]
    fn prop_analyze_never_panics_and_is_deterministic(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        let src = source_from_bytes(&bytes);
        let a = analyze_source(LIB_PATH, &src);
        let b = analyze_source(LIB_PATH, &src);
        prop_assert_eq!(a.violations, b.violations);
        prop_assert_eq!(
            format!("{:?}", a.parsed.fns),
            format!("{:?}", b.parsed.fns)
        );
    }

    /// Call-graph construction and JSON rendering never panic and are
    /// byte-identical on arbitrary generated files.
    #[test]
    fn prop_callgraph_is_deterministic(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let src = source_from_bytes(&bytes);
        let files = [
            ("crates/spider-sim/src/engine.rs", src.as_str()),
            ("crates/spider-core/src/util.rs", "pub fn helper() {}\n"),
        ];
        let parsed: Vec<(String, spider_lint::parser::ParsedFile)> = files
            .iter()
            .map(|(rel, s)| (rel.to_string(), analyze_source(rel, s).parsed))
            .collect();
        let g1 = CallGraph::build(&parsed);
        let g2 = CallGraph::build(&parsed);
        prop_assert_eq!(
            spider_lint::render_graph_json(&g1),
            spider_lint::render_graph_json(&g2)
        );
    }
}

// --------------------------------------- the committed tree, call-graph --

#[test]
fn committed_tree_parses_and_callgraph_is_byte_identical() {
    let root = workspace_root();
    let files = spider_lint::collect_files(&root).expect("collect");
    assert!(files.len() >= 30, "workspace should have many .rs files");
    for file in &files {
        let rel = spider_lint::rel_path(&root, file);
        let source = std::fs::read_to_string(file).expect("read");
        // Parsing is total: it must produce a ParsedFile for every
        // committed source file without panicking, and find at least one
        // fn in any file that textually contains one outside tests.
        let fa = analyze_source(&rel, &source);
        if rel == "crates/spider-sim/src/engine.rs" {
            assert!(
                fa.parsed.fns.iter().any(|f| f.name == "run"),
                "engine.rs must expose `run` to the analyzer"
            );
        }
    }
    let g1 = spider_lint::build_graph(&root).expect("graph");
    let g2 = spider_lint::build_graph(&root).expect("graph");
    let j1 = spider_lint::render_graph_json(&g1);
    let j2 = spider_lint::render_graph_json(&g2);
    assert_eq!(j1, j2, "call-graph JSON must be byte-identical across runs");
    assert!(j1.ends_with('\n'));
    // Every configured entry point resolves to a real function.
    for (file, name) in spider_lint::ENTRY_POINTS {
        assert!(
            !g1.entry_indices(file, name).is_empty(),
            "entry point {file}:{name} not found"
        );
    }
}
