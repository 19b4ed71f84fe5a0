//! The per-file lint rules and the scoping logic that decides where each
//! runs.
//!
//! Paths are workspace-relative with `/` separators. Three scope tiers:
//!
//! - *first-party*: everything scanned (`src/`, `crates/`, `tests/`;
//!   never `vendor/` or `target/`),
//! - *library code*: crate `src/` trees minus bin targets — where
//!   panic-hygiene, money-safety, and overflow-safety apply,
//! - *deterministic paths*: `spider-sim`, `spider-routing`, and the grid
//!   runner — where the determinism rule applies.
//!
//! The two cross-file rules (panic-reachability, wallclock-reachability)
//! need the whole workspace's call graph and live in
//! [`callgraph`](crate::callgraph); [`analyze_source`] hands the per-file
//! parse results and allow directives up to that pass.

use crate::lexer::{lex, Comment, Lexed, TokKind};
use crate::parser::{self, FnDef, ParsedFile};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Names of every rule, sorted. Keep in sync with `LINTS.md`.
pub const RULES: [&str; 9] = [
    "determinism",
    "money-safety",
    "overflow-safety",
    "panic-hygiene",
    "panic-reachability",
    "serde-compat",
    "shard-ownership",
    "unsafe-audit",
    "wallclock-reachability",
];

/// Serialized report structs whose JSON shape is pinned by checked-in
/// fixtures (`tests/fixtures/*.json` hold `SimReport`s, with `FaultStats`
/// and `TelemetrySummary` inside). New fields on these must carry
/// `#[serde(default)]` or `skip_serializing_if` so legacy JSON keeps parsing
/// and old fixtures keep comparing byte-equal. Grid results are only ever
/// compared run against run, which a new mandatory field cannot break, so
/// they are not frozen.
pub const FROZEN_STRUCTS: [&str; 3] = ["FaultStats", "SimReport", "TelemetrySummary"];

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule name (one of [`RULES`]).
    pub rule: String,
    /// Human-readable description of the violation.
    pub message: String,
}

/// `true` for paths the scanner should lint at all.
pub fn is_first_party(rel: &str) -> bool {
    let scanned =
        rel.starts_with("src/") || rel.starts_with("crates/") || rel.starts_with("tests/");
    scanned && !rel.contains("vendor/") && !rel.contains("target/")
}

/// `true` for library (non-bin, non-integration-test) sources: the scope of
/// panic-hygiene and money-safety.
pub fn is_lib_path(rel: &str) -> bool {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            let sub = &rest[slash + 1..];
            return sub.starts_with("src/") && !sub.contains("/bin/") && sub != "src/main.rs";
        }
        return false;
    }
    rel.starts_with("src/") && rel != "src/main.rs"
}

/// `true` on deterministic simulation/routing paths, where iteration order
/// and time/randomness sources must be reproducible. The
/// `spider-experiments` CLI (`crates/bench/src/bin/`) is deliberately
/// outside this scope: wall-clock progress timing there is fine.
pub fn is_deterministic_path(rel: &str) -> bool {
    rel.starts_with("crates/spider-sim/src/")
        || rel.starts_with("crates/spider-routing/src/")
        || rel == "crates/bench/src/runner.rs"
}

/// `true` for the declared f64 <-> Amount conversion boundary: the LP/fluid
/// optimization crate and the `Amount` implementation itself.
pub fn is_money_boundary(rel: &str) -> bool {
    rel.starts_with("crates/spider-opt/src/") || rel == "crates/spider-core/src/amount.rs"
}

/// The file the shard-ownership rule is scoped to.
pub const SHARDED_ENGINE_PATH: &str = "crates/spider-sim/src/engine_sharded.rs";

/// Per-file analysis artifacts: the allow-filtered per-file rule violations
/// plus the parse results and allow directives the workspace-level
/// reachability rules need.
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Per-file rule violations, allow-filtered and sorted.
    pub violations: Vec<Violation>,
    /// `spider-lint: allow(...)` directives by line.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Parsed items (empty for out-of-scope files).
    pub parsed: ParsedFile,
}

/// Lints one file's source text. `rel` must be the workspace-relative path
/// with `/` separators; it selects which rules run.
pub fn lint_source(rel: &str, source: &str) -> Vec<Violation> {
    analyze_source(rel, source).violations
}

/// Runs every per-file rule over one file and returns the violations
/// together with the parse results needed by the cross-file rules.
pub fn analyze_source(rel: &str, source: &str) -> FileAnalysis {
    if !is_first_party(rel) || !rel.ends_with(".rs") {
        return FileAnalysis::default();
    }
    let lx = lex(source);
    let allows = collect_allows(&lx.comments);
    let test_lines = test_line_ranges(&lx);
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);
    let whole_file_test = rel.starts_with("tests/") || rel.contains("/tests/");
    let parsed = parser::parse(&lx, &test_lines, whole_file_test);

    let mut out = Vec::new();
    if is_deterministic_path(rel) {
        determinism(rel, &lx, &in_test, &mut out);
    }
    if is_lib_path(rel) && !is_money_boundary(rel) {
        money_safety(rel, &lx, &in_test, &mut out);
    }
    if is_lib_path(rel) {
        panic_hygiene(rel, &lx, &in_test, &mut out);
    }
    if is_lib_path(rel) && rel != "crates/spider-core/src/amount.rs" {
        overflow_safety(rel, &lx, &parsed, &mut out);
    }
    if rel == SHARDED_ENGINE_PATH {
        shard_ownership(rel, &lx, &parsed, &mut out);
    }
    // unsafe-audit runs everywhere first-party, test code included.
    unsafe_audit(rel, &lx, &mut out);
    if !whole_file_test {
        serde_compat(rel, &lx, &mut out);
    }

    out.retain(|v| !is_allowed(&allows, v));
    out.sort();
    FileAnalysis {
        violations: out,
        allows,
        parsed,
    }
}

/// Lines carrying a `spider-lint: allow(rule, ...)` directive. A directive
/// suppresses matching violations on its own line and the line below it.
pub fn collect_allows(comments: &[Comment]) -> BTreeMap<u32, BTreeSet<String>> {
    let mut map: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for c in comments {
        let Some(at) = c.text.find("spider-lint:") else {
            continue;
        };
        let rest = &c.text[at + "spider-lint:".len()..];
        let rest = rest.trim_start();
        let Some(list) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = list.find(')') else {
            continue;
        };
        for rule in list[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                map.entry(c.line).or_default().insert(rule.to_string());
            }
        }
    }
    map
}

/// `true` when a violation is suppressed by an allow directive on its own
/// line or the line above.
pub fn is_allowed(allows: &BTreeMap<u32, BTreeSet<String>>, v: &Violation) -> bool {
    let hit = |line: u32| allows.get(&line).is_some_and(|set| set.contains(&v.rule));
    hit(v.line) || (v.line > 1 && hit(v.line - 1))
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items (inline test
/// modules, test fns). Violations inside them are exempt from the
/// panic-hygiene / money-safety / determinism rules.
pub fn test_line_ranges(lx: &Lexed) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let toks = &lx.toks;
    let mut i = 0;
    while i < toks.len() {
        if lx.punct(i) == Some('#') && lx.punct(i + 1) == Some('[') {
            let Some(attr_end) = matching(lx, i + 1, '[', ']') else {
                break;
            };
            if attr_is_test(lx, i + 1, attr_end) {
                // Skip any further attributes on the same item.
                let mut j = attr_end + 1;
                while lx.punct(j) == Some('#') && lx.punct(j + 1) == Some('[') {
                    match matching(lx, j + 1, '[', ']') {
                        Some(e) => j = e + 1,
                        None => return ranges,
                    }
                }
                // The item extends to the first `;` at depth 0, or to the
                // matching `}` of its first `{`.
                let mut k = j;
                let mut end = None;
                while k < toks.len() {
                    match lx.punct(k) {
                        Some(';') => {
                            end = Some(k);
                            break;
                        }
                        Some('{') => {
                            end = matching(lx, k, '{', '}');
                            break;
                        }
                        _ => k += 1,
                    }
                }
                if let Some(e) = end {
                    ranges.push((toks[i].line, toks[e].line));
                    i = e + 1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// `true` if the attribute tokens in `(open, close)` are `#[test]` or a
/// `#[cfg(...)]` that positively selects `test`.
fn attr_is_test(lx: &Lexed, open: usize, close: usize) -> bool {
    let idents: Vec<&str> = (open + 1..close).filter_map(|k| lx.ident(k)).collect();
    match idents.split_first() {
        Some((&"test", rest)) => rest.is_empty(),
        Some((&"cfg", rest)) => rest.contains(&"test") && !rest.contains(&"not"),
        _ => false,
    }
}

/// Index of the token matching the `open_ch` at token index `open`.
fn matching(lx: &Lexed, open: usize, open_ch: char, close_ch: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = open;
    while k < lx.toks.len() {
        match lx.punct(k) {
            Some(c) if c == open_ch => depth += 1,
            Some(c) if c == close_ch => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

fn push(out: &mut Vec<Violation>, rel: &str, line: u32, rule: &str, message: String) {
    out.push(Violation {
        file: rel.to_string(),
        line,
        rule: rule.to_string(),
        message,
    });
}

// ---------------------------------------------------------------- rules --

fn determinism(rel: &str, lx: &Lexed, in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Violation>) {
    const RULE: &str = "determinism";
    for (i, t) in lx.toks.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let TokKind::Ident(ref id) = t.kind else {
            continue;
        };
        match id.as_str() {
            "HashMap" | "HashSet" => push(
                out,
                rel,
                t.line,
                RULE,
                format!(
                    "unordered `{id}` on a deterministic path — iteration order varies per \
                     process; use BTreeMap/BTreeSet/Vec, or allow with a no-iteration \
                     justification"
                ),
            ),
            "RandomState" | "DefaultHasher" => push(
                out,
                rel,
                t.line,
                RULE,
                format!("`{id}` is randomly keyed per process on a deterministic path"),
            ),
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => push(
                out,
                rel,
                t.line,
                RULE,
                format!("OS randomness (`{id}`) on a deterministic path — derive seeds from the cell seed instead"),
            ),
            "Instant" | "SystemTime"
                if lx.punct(i + 1) == Some(':')
                    && lx.punct(i + 2) == Some(':')
                    && lx.ident(i + 3) == Some("now") =>
            {
                push(
                    out,
                    rel,
                    t.line,
                    RULE,
                    format!("wall-clock `{id}::now` on a deterministic path — use simulated time"),
                )
            }
            _ => {}
        }
    }
}

fn money_safety(rel: &str, lx: &Lexed, in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Violation>) {
    const RULE: &str = "money-safety";
    for (i, t) in lx.toks.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let TokKind::Ident(ref id) = t.kind else {
            continue;
        };
        match id.as_str() {
            "from_tokens" => push(
                out,
                rel,
                t.line,
                RULE,
                format!("f64 -> Amount conversion (`{id}`) outside the spider-opt boundary — construct amounts in integer micros"),
            ),
            "as_tokens" => push(
                out,
                rel,
                t.line,
                RULE,
                "Amount -> f64 conversion (`as_tokens`) outside the spider-opt boundary".to_string(),
            ),
            "micros"
                if lx.punct(i + 1) == Some('(')
                    && lx.punct(i + 2) == Some(')')
                    && lx.ident(i + 3) == Some("as") =>
            {
                push(
                    out,
                    rel,
                    t.line,
                    RULE,
                    "lossy `as` cast on raw micro-units — stay in i64 or use checked conversions".to_string(),
                )
            }
            _ => {}
        }
    }
}

fn panic_hygiene(rel: &str, lx: &Lexed, in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Violation>) {
    const RULE: &str = "panic-hygiene";
    for (i, t) in lx.toks.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let TokKind::Ident(ref id) = t.kind else {
            continue;
        };
        if (id == "unwrap" || id == "expect") && i > 0 && lx.punct(i - 1) == Some('.') {
            push(
                out,
                rel,
                t.line,
                RULE,
                format!("`.{id}()` in library code — return a typed CoreError/Result instead"),
            );
        }
    }
}

fn unsafe_audit(rel: &str, lx: &Lexed, out: &mut Vec<Violation>) {
    const RULE: &str = "unsafe-audit";
    for t in &lx.toks {
        if t.kind == TokKind::Ident("unsafe".to_string()) {
            push(
                out,
                rel,
                t.line,
                RULE,
                "`unsafe` in first-party code — the workspace forbids unsafe_code".to_string(),
            );
        }
    }
}

/// Ledger methods that mutate per-channel slot state. In the sharded
/// engine, calling any of these on `self.ledger` is only legal after the
/// owner guard (`self.own(...)`) has run in the same function body — the
/// static counterpart of the release-mode `ForeignSlotMutation` audit.
const LEDGER_MUTATORS: &[&str] = &[
    "copy_channel_state_from",
    "deposit",
    "lock_hop",
    "lock_path",
    "refund_hop",
    "refund_path",
    "release_walk",
    "restore_channel",
    "settle_hop",
    "settle_path",
    "withdraw",
];

/// Token index ranges of fn bodies nested inside `def`'s body (they are
/// scanned as their own [`FnDef`]s and must not be double-counted).
fn nested_bodies(parsed: &ParsedFile, def: &FnDef) -> Vec<(usize, usize)> {
    parsed
        .fns
        .iter()
        .filter(|o| o.body.0 > def.body.0 && o.body.1 < def.body.1)
        .map(|o| o.body)
        .collect()
}

/// **shard-ownership** — inside `engine_sharded.rs`, a direct
/// `self.ledger.<mutator>(...)` call, and handing `&mut self.ledger` to
/// another function (`rebalancer::apply`), must be preceded (in the
/// same fn body) by the `self.own(...)` owner-guard check.
fn shard_ownership(rel: &str, lx: &Lexed, parsed: &ParsedFile, out: &mut Vec<Violation>) {
    const RULE: &str = "shard-ownership";
    for def in &parsed.fns {
        if def.is_test {
            continue;
        }
        let nested = nested_bodies(parsed, def);
        let (open, close) = def.body;
        let mut guarded = false;
        let mut i = open + 1;
        while i < close {
            if let Some(&(_, nc)) = nested.iter().find(|&&(no, _)| no == i) {
                i = nc + 1;
                continue;
            }
            // `&mut self.ledger` as a whole value: the callee can mutate any
            // slot, so the borrow itself needs the guard.
            let lent = lx.punct(i) == Some('&')
                && lx.ident(i + 1) == Some("mut")
                && lx.ident(i + 2) == Some("self")
                && lx.punct(i + 3) == Some('.')
                && lx.ident(i + 4) == Some("ledger")
                && lx.punct(i + 5) != Some('.');
            if lent && !guarded {
                push(
                    out,
                    rel,
                    lx.toks[i].line,
                    RULE,
                    format!(
                        "`&mut self.ledger` handed out of `{}` without a preceding \
                         `self.own(...)` owner-guard check",
                        def.qual_name()
                    ),
                );
            }
            if lx.ident(i) == Some("self") && lx.punct(i + 1) == Some('.') {
                if lx.ident(i + 2) == Some("own") && lx.punct(i + 3) == Some('(') {
                    guarded = true;
                    i += 4;
                    continue;
                }
                if lx.ident(i + 2) == Some("ledger") && lx.punct(i + 3) == Some('.') {
                    if let Some(m) = lx.ident(i + 4) {
                        if lx.punct(i + 5) == Some('(') && LEDGER_MUTATORS.contains(&m) && !guarded
                        {
                            push(
                                out,
                                rel,
                                lx.toks[i + 4].line,
                                RULE,
                                format!(
                                    "ledger slot mutation `self.ledger.{m}(...)` in \
                                     `{}` without a preceding `self.own(...)` owner-guard \
                                     check — route it through the guarded helpers",
                                    def.qual_name()
                                ),
                            );
                        }
                    }
                    i += 5;
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// **overflow-safety** — raw `+`/`-`/`*`/`+=`/`-=`/`*=` where an operand is
/// an `Amount` or raw `micros()` value. Outside `amount.rs`, money
/// arithmetic must use `checked_*`/`saturating_*` (or carry a justified
/// allow where overflow is provably impossible).
fn overflow_safety(rel: &str, lx: &Lexed, parsed: &ParsedFile, out: &mut Vec<Violation>) {
    const RULE: &str = "overflow-safety";
    for def in &parsed.fns {
        if def.is_test {
            continue;
        }
        let nested = nested_bodies(parsed, def);
        let money_name =
            |id: &str| def.money_idents.contains(id) || parsed.amount_fields.contains(id);
        let (open, close) = def.body;
        let mut i = open + 1;
        while i < close {
            if let Some(&(_, nc)) = nested.iter().find(|&&(no, _)| no == i) {
                i = nc + 1;
                continue;
            }
            let Some(op) = lx.punct(i) else {
                i += 1;
                continue;
            };
            if !matches!(op, '+' | '-' | '*') {
                i += 1;
                continue;
            }
            // `->` is an arrow, not a subtraction.
            if op == '-' && lx.punct(i + 1) == Some('>') {
                i += 2;
                continue;
            }
            let compound = lx.punct(i + 1) == Some('=');
            // Binary only: the token before must end an operand. Anything
            // else is unary minus, a deref, `&*`, a generic bound, etc.
            let left_ends_operand =
                i.checked_sub(1)
                    .and_then(|p| lx.toks.get(p))
                    .is_some_and(|t| {
                        matches!(
                            t.kind,
                            TokKind::Ident(_)
                                | TokKind::Literal
                                | TokKind::Punct(')')
                                | TokKind::Punct(']')
                        )
                    });
            if !left_ends_operand {
                i += 1;
                continue;
            }
            let rhs = if compound { i + 2 } else { i + 1 };
            if money_operand_left(lx, i - 1, &money_name)
                || money_operand_right(lx, rhs, close, &money_name)
            {
                let shown = if compound {
                    format!("{op}=")
                } else {
                    op.to_string()
                };
                push(
                    out,
                    rel,
                    lx.toks[i].line,
                    RULE,
                    format!(
                        "raw `{shown}` on an Amount/micros value in `{}` — overflow \
                         wraps silently in release; use checked_*/saturating_* or add a \
                         justified allow",
                        def.qual_name()
                    ),
                );
            }
            i += if compound { 2 } else { 1 };
        }
    }
}

/// Index of the token matching the `close_ch` at token index `close`,
/// scanning backward.
fn matching_back(lx: &Lexed, close: usize, open_ch: char, close_ch: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close;
    loop {
        match lx.punct(k) {
            Some(c) if c == close_ch => depth += 1,
            Some(c) if c == open_ch => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k = k.checked_sub(1)?;
    }
}

/// `true` when the operand *ending* at token `last` is money-typed: a known
/// Amount ident/field, an indexed Amount field (`available[side]`), or a
/// `.micros()` call result.
fn money_operand_left(lx: &Lexed, last: usize, money_name: &dyn Fn(&str) -> bool) -> bool {
    if let Some(id) = lx.ident(last) {
        return money_name(id);
    }
    match lx.punct(last) {
        Some(')') => {
            // `expr.micros() + ...`: the call before the parens.
            let Some(open) = matching_back(lx, last, '(', ')') else {
                return false;
            };
            open >= 2
                && lx.ident(open - 1) == Some("micros")
                && lx.punct(open.saturating_sub(2)) == Some('.')
        }
        Some(']') => {
            let Some(open) = matching_back(lx, last, '[', ']') else {
                return false;
            };
            open >= 1 && lx.ident(open - 1).is_some_and(money_name)
        }
        _ => false,
    }
}

/// `true` when the operand *starting* at token `first` is money-typed. The
/// scan walks one primary expression — ident chains (`self.base`,
/// `fee.micros()`, `Amount::from_micros(x)`), parenthesized groups, index
/// expressions — and stops at the next operator or separator.
fn money_operand_right(
    lx: &Lexed,
    first: usize,
    limit: usize,
    money_name: &dyn Fn(&str) -> bool,
) -> bool {
    let mut k = first;
    // A parenthesized right operand: any money ident or `.micros()` inside.
    if lx.punct(k) == Some('(') {
        if let Some(close) = matching(lx, k, '(', ')') {
            for j in k + 1..close.min(limit) {
                if let Some(id) = lx.ident(j) {
                    if money_name(id)
                        || id == "Amount"
                        || (id == "micros" && lx.punct(j.wrapping_sub(1)) == Some('.'))
                    {
                        return true;
                    }
                }
            }
        }
        return false;
    }
    while k < limit {
        if let Some(id) = lx.ident(k) {
            if money_name(id) || id == "Amount" {
                return true;
            }
            if id == "micros" && k >= 1 && lx.punct(k - 1) == Some('.') {
                return true;
            }
            k += 1;
            continue;
        }
        match lx.punct(k) {
            // Path / field chains continue the operand.
            Some('.') | Some(':') => k += 1,
            // Call arguments / index expressions: skip the group whole.
            Some('(') => match matching(lx, k, '(', ')') {
                Some(e) => k = e + 1,
                None => return false,
            },
            Some('[') => match matching(lx, k, '[', ']') {
                Some(e) => k = e + 1,
                None => return false,
            },
            // Anything else (operators, separators, braces) ends the operand.
            _ => return false,
        }
    }
    false
}

fn serde_compat(rel: &str, lx: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lx.toks;
    let mut i = 0;
    while i < toks.len() {
        if lx.ident(i) != Some("struct") {
            i += 1;
            continue;
        }
        let Some(name) = lx.ident(i + 1) else {
            i += 1;
            continue;
        };
        if !FROZEN_STRUCTS.contains(&name) {
            i += 1;
            continue;
        }
        let name = name.to_string();
        // Find the field-block `{`; bail on tuple/unit structs.
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            match lx.punct(j) {
                Some('{') => {
                    body = Some(j);
                    break;
                }
                Some(';') | Some('(') => break,
                _ => j += 1,
            }
        }
        let Some(body) = body else {
            i = j + 1;
            continue;
        };
        let Some(end) = matching(lx, body, '{', '}') else {
            break;
        };
        scan_frozen_fields(rel, lx, &name, body, end, out);
        i = end + 1;
    }
}

/// Walks the fields of a frozen struct's body (`body`..`end` are the brace
/// token indices), flagging fields without a serde default/skip attribute.
fn scan_frozen_fields(
    rel: &str,
    lx: &Lexed,
    struct_name: &str,
    body: usize,
    end: usize,
    out: &mut Vec<Violation>,
) {
    let mut j = body + 1;
    while j < end {
        // Attributes.
        let mut compat = false;
        while lx.punct(j) == Some('#') && lx.punct(j + 1) == Some('[') {
            let Some(attr_end) = matching(lx, j + 1, '[', ']') else {
                return;
            };
            let idents: Vec<&str> = (j + 2..attr_end).filter_map(|k| lx.ident(k)).collect();
            if idents.first() == Some(&"serde")
                && idents
                    .iter()
                    .any(|&w| w == "default" || w == "skip_serializing_if")
            {
                compat = true;
            }
            j = attr_end + 1;
        }
        // Visibility.
        if lx.ident(j) == Some("pub") {
            j += 1;
            if lx.punct(j) == Some('(') {
                match matching(lx, j, '(', ')') {
                    Some(e) => j = e + 1,
                    None => return,
                }
            }
        }
        let Some(fname) = lx.ident(j) else { return };
        if lx.punct(j + 1) != Some(':') {
            return;
        }
        if !compat {
            push(
                out,
                rel,
                lx.toks[j].line,
                "serde-compat",
                format!(
                    "field `{fname}` of fixture-frozen struct `{struct_name}` lacks \
                     #[serde(default)] / skip_serializing_if — new fields must keep legacy \
                     JSON parsing and fixtures byte-identical"
                ),
            );
        }
        // Skip the type, to the `,` at depth 0 or the closing `}`.
        j += 2;
        let mut depth = 0i32;
        let mut angle = 0i32;
        while j < end {
            match lx.toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle = (angle - 1).max(0),
                TokKind::Punct(',') if depth == 0 && angle == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
}
