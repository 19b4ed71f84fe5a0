//! # spider-lint — workspace invariant linter with ratcheted baselines
//!
//! A self-contained static-analysis pass over all first-party workspace
//! sources (vendored crates excluded) enforcing the invariants the rest of
//! the reproduction depends on:
//!
//! - **determinism** — no unordered `HashMap`/`HashSet`, wall-clock time, or
//!   OS randomness on deterministic simulation/routing paths,
//! - **money-safety** — no f64 <-> [`Amount`] conversions or lossy casts on
//!   micro-units outside the declared `spider-opt` boundary,
//! - **panic-hygiene** — no `.unwrap()`/`.expect()` in library non-test
//!   code,
//! - **panic-reachability** — no panic site reachable through the
//!   cross-crate call graph from the engine entry points `run`,
//!   `run_queued`, `run_sharded`,
//! - **wallclock-reachability** — no `Instant::now`/`SystemTime::now`
//!   reachable from those deterministic entry points,
//! - **overflow-safety** — no raw `+`/`-`/`*` arithmetic on `Amount`/micros
//!   values outside `amount.rs`,
//! - **shard-ownership** — in the sharded engine, ledger-slot mutation only
//!   behind the `self.own(...)` owner guard,
//! - **unsafe-audit** — no `unsafe` anywhere first-party,
//! - **serde-compat** — new fields on fixture-frozen report structs must
//!   carry `#[serde(default)]`/`skip_serializing_if`.
//!
//! Existing debt is checked into `lint-baseline.json`; the ratchet fails on
//! any *new* violation and on any *stale* entry, so debt can only shrink.
//! Violations can be suppressed inline with
//! `// spider-lint: allow(<rule>) — <reason>`.
//!
//! See `LINTS.md` at the workspace root for the full rule catalogue and
//! `DESIGN.md` for the call graph's approximate name-resolution model.
//!
//! [`Amount`]: https://docs.rs/spider-core

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use baseline::{check, Baseline, BaselineEntry, CheckOutcome, Regression, StaleEntry};
pub use callgraph::{render_graph_json, CallGraph, ENTRY_POINTS};
pub use rules::{lint_source, Violation, RULES};

use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// The workspace root, resolved from this crate's manifest directory at
/// compile time (`crates/spider-lint` -> two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .components()
        .collect()
}

/// Default baseline path for a workspace root.
pub fn baseline_path(root: &Path) -> PathBuf {
    root.join("lint-baseline.json")
}

/// Collects every first-party `.rs` file under `root`, sorted by relative
/// path so scans are deterministic. Walks `src/`, `crates/` and `tests/`;
/// skips `vendor/`, `target/`, and hidden directories.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort_by_key(|p| rel_path(root, p));
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "vendor" || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators.
pub fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Scans every first-party file under `root` — the per-file rules plus the
/// workspace-level call-graph reachability rules — returning all violations
/// sorted by `(file, line, rule, message)`.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(scan_workspace_full(root)?.0)
}

/// Like [`scan_workspace`], but also returns the call graph (for the
/// `graph` subcommand, so one scan serves both outputs).
pub fn scan_workspace_full(root: &Path) -> io::Result<(Vec<Violation>, CallGraph)> {
    let mut all = Vec::new();
    let mut parsed: Vec<(String, rules::FileAnalysis)> = Vec::new();
    for file in collect_files(root)? {
        let rel = rel_path(root, &file);
        let source = std::fs::read_to_string(&file)?;
        let fa = rules::analyze_source(&rel, &source);
        all.extend(fa.violations.iter().cloned());
        parsed.push((rel, fa));
    }
    let graph_input: Vec<(String, parser::ParsedFile)> = parsed
        .iter()
        .map(|(rel, fa)| (rel.clone(), fa.parsed.clone()))
        .collect();
    let graph = CallGraph::build(&graph_input);
    let allows: std::collections::BTreeMap<&str, _> = parsed
        .iter()
        .map(|(rel, fa)| (rel.as_str(), &fa.allows))
        .collect();
    for v in graph.reachability_violations() {
        let suppressed = allows
            .get(v.file.as_str())
            .is_some_and(|a| rules::is_allowed(a, &v));
        if !suppressed {
            all.push(v);
        }
    }
    all.sort();
    Ok((all, graph))
}

/// Builds just the workspace call graph (no rule evaluation).
pub fn build_graph(root: &Path) -> io::Result<CallGraph> {
    Ok(scan_workspace_full(root)?.1)
}

/// Loads the baseline at `path`. A missing file is an empty baseline (so a
/// never-blessed tree treats every violation as new).
pub fn load_baseline(path: &Path) -> io::Result<Baseline> {
    if !path.exists() {
        return Ok(Baseline::default());
    }
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Serializes a baseline deterministically (pretty JSON + trailing newline).
pub fn render_baseline(baseline: &Baseline) -> String {
    match serde_json::to_string_pretty(baseline) {
        Ok(mut s) => {
            s.push('\n');
            s
        }
        Err(_) => String::new(),
    }
}

/// Per-rule violation count.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleTotal {
    /// Rule name.
    pub rule: String,
    /// Current violations of the rule (baselined + new).
    pub count: usize,
}

/// Machine-readable `check --json` report. Field order and the sortedness
/// of every list are fixed, so serializing this is byte-identical across
/// runs over the same tree.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Report schema version.
    pub schema: u32,
    /// `true` when the scan matches the baseline exactly.
    pub ok: bool,
    /// Total current violations (baselined + new).
    pub total_violations: usize,
    /// Per-rule totals, sorted by rule name (every rule always listed).
    pub rule_totals: Vec<RuleTotal>,
    /// `(file, rule)` groups over their baselined count.
    pub regressions: Vec<Regression>,
    /// Baseline entries whose debt shrank; re-bless to tighten the ratchet.
    pub stale: Vec<StaleEntry>,
}

/// Builds the full check report for a scan against a baseline.
pub fn check_report(current: &[Violation], base: &Baseline) -> CheckReport {
    let outcome = check(current, base);
    let rule_totals = RULES
        .iter()
        .map(|&rule| RuleTotal {
            rule: rule.to_string(),
            count: current.iter().filter(|v| v.rule == rule).count(),
        })
        .collect();
    CheckReport {
        schema: 1,
        ok: outcome.ok(),
        total_violations: current.len(),
        rule_totals,
        regressions: outcome.regressions,
        stale: outcome.stale,
    }
}

/// Renders a check report as deterministic pretty JSON (trailing newline).
pub fn render_json(report: &CheckReport) -> String {
    match serde_json::to_string_pretty(report) {
        Ok(mut s) => {
            s.push('\n');
            s
        }
        Err(_) => String::new(),
    }
}

/// Renders a check report as human-readable text.
pub fn render_text(report: &CheckReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    if report.ok {
        let _ = write!(
            s,
            "spider-lint: OK — 0 new violations, {} baselined (",
            report.total_violations
        );
        for (i, rt) in report.rule_totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{} {}", rt.count, rt.rule);
        }
        s.push_str(")\n");
        return s;
    }
    for r in &report.regressions {
        let _ = writeln!(
            s,
            "NEW: {} [{}] — {} found, {} baselined",
            r.file, r.rule, r.actual, r.baseline
        );
        for v in &r.violations {
            let _ = writeln!(s, "  {}:{}: {}", v.file, v.line, v.message);
        }
    }
    for e in &report.stale {
        let _ = writeln!(
            s,
            "STALE: {} [{}] — baseline {}, found {} (debt shrank; run `cargo run -p spider-lint -- bless`)",
            e.file, e.rule, e.baseline, e.actual
        );
    }
    let _ = writeln!(
        s,
        "spider-lint: FAILED — {} regressing group(s), {} stale baseline entr(ies)",
        report.regressions.len(),
        report.stale.len()
    );
    s
}
