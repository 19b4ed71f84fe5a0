//! Deterministic cross-crate call graph over all first-party code, and the
//! two reachability rules that run on it.
//!
//! Nodes are the non-test [`FnDef`]s from every parsed workspace file.
//! Edges come from the per-body call sites, resolved *by name*. Callees
//! are restricted to library-path fns (bin targets and integration tests
//! call *into* libraries, never the reverse):
//!
//! - `Type::name(...)` resolves to the fns of that name in first-party
//!   `impl Type` blocks when any exist (`Self` resolves through the
//!   caller's own impl block); any other capitalized qualifier is a
//!   std/vendored type and resolves to nothing,
//! - `module::name(...)` with a lowercase qualifier resolves by base name
//!   unless the qualifier is a known std module (`std`, `cmp`, `mem`, ...),
//! - `.name(...)` and bare `name(...)` resolve to *every* first-party fn
//!   with that base name, except names on a std-method skip list (`get`,
//!   `push`, `insert`, ...) which overwhelmingly mean the std method.
//!
//! This is a deliberate over-approximation (a name collision adds edges
//! that rustc would not) with a documented false-negative surface (calls
//! through fn pointers/closures, macro-generated bodies, and skipped std
//! names are invisible). See `DESIGN.md` — the point is a deterministic,
//! dependency-free blast-radius report, not precise name resolution.
//!
//! Reachability starts at the three engine entry points ([`ENTRY_POINTS`]):
//! `run` and `run_queued` (the continuous-time engine's two drivers) and
//! `run_sharded`. Every panic site in
//! a reachable fn is a **panic-reachability** violation; every
//! `Instant::now`/`SystemTime::now` is a **wallclock-reachability**
//! violation (all three entry loops are deterministic replay surfaces).

use crate::parser::{FnDef, ParsedFile};
use crate::rules::Violation;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The engine event-loop entry points reachability starts from, as
/// `(file, fn name)` pairs. All three are deterministic surfaces.
pub const ENTRY_POINTS: [(&str, &str); 3] = [
    ("crates/spider-sim/src/engine.rs", "run"),
    ("crates/spider-sim/src/engine.rs", "run_queued"),
    ("crates/spider-sim/src/engine_sharded.rs", "run_sharded"),
];

/// Lowercase path-call qualifiers that name std modules or primitive
/// types: `q::f(...)` with one of these never resolves to first-party
/// code. (Capitalized qualifiers resolve only through first-party `impl`
/// blocks, so std *types* need no list.) Sorted.
const STD_MODULES: &[&str] = &[
    "alloc",
    "char",
    "cmp",
    "collections",
    "core",
    "env",
    "f32",
    "f64",
    "fmt",
    "fs",
    "i128",
    "i16",
    "i32",
    "i64",
    "i8",
    "io",
    "isize",
    "iter",
    "mem",
    "process",
    "ptr",
    "slice",
    "std",
    "str",
    "thread",
    "time",
    "u128",
    "u16",
    "u32",
    "u64",
    "u8",
    "usize",
];

/// Method/bare-call names that overwhelmingly mean a std method; unqualified
/// calls to these are not resolved to first-party fns of the same name.
/// Part of the documented false-negative surface. Sorted.
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "map_err",
    "map_or",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "push_str",
    "range",
    "remove",
    "replace",
    "retain",
    "rev",
    "reverse",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_first",
    "split_last",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "take",
    "then",
    "then_with",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "write",
    "zip",
];

/// One call-graph node: a non-test first-party fn.
#[derive(Clone, Debug)]
pub struct GraphFn {
    /// Workspace-relative file path.
    pub file: String,
    /// The parsed definition.
    pub def: FnDef,
}

/// The resolved workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Nodes sorted by `(file, line, qualified name)`.
    pub fns: Vec<GraphFn>,
    /// `edges[i]` = sorted, deduplicated callee node indices of `fns[i]`.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from parsed files (as `(rel path, parse)` pairs).
    pub fn build(files: &[(String, ParsedFile)]) -> CallGraph {
        let mut fns: Vec<GraphFn> = Vec::new();
        for (rel, pf) in files {
            for def in &pf.fns {
                if def.is_test {
                    continue;
                }
                fns.push(GraphFn {
                    file: rel.clone(),
                    def: def.clone(),
                });
            }
        }
        fns.sort_by(|a, b| {
            (a.file.as_str(), a.def.line, a.def.qual_name()).cmp(&(
                b.file.as_str(),
                b.def.line,
                b.def.qual_name(),
            ))
        });

        // Callee indexes cover library-path fns only: bin targets and
        // integration tests call into libraries, never the reverse, so a
        // name collision there must not create a fake callee.
        let mut name_index: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut qual_index: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !crate::rules::is_lib_path(&f.file) {
                continue;
            }
            name_index.entry(f.def.name.as_str()).or_default().push(i);
            if let Some(owner) = &f.def.owner {
                qual_index
                    .entry((owner.as_str(), f.def.name.as_str()))
                    .or_default()
                    .push(i);
            }
        }

        let mut edges = Vec::with_capacity(fns.len());
        for f in &fns {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &f.def.calls {
                let name = call.name.as_str();
                match call.qualifier.as_deref() {
                    Some(q) => {
                        let q = if q == "Self" {
                            f.def.owner.as_deref().unwrap_or(q)
                        } else {
                            q
                        };
                        if let Some(targets) = qual_index.get(&(q, name)) {
                            out.extend(targets.iter().copied());
                        } else if q.starts_with(|c: char| c.is_uppercase())
                            || STD_MODULES.binary_search(&q).is_ok()
                        {
                            // A type with no matching first-party impl fn
                            // (std/vendored), or a std module path: nothing
                            // first-party to resolve to.
                        } else if let Some(targets) = name_index.get(name) {
                            // Module-path call (`paths::shortest_path(...)`).
                            out.extend(targets.iter().copied());
                        }
                    }
                    None => {
                        if STD_METHODS.binary_search(&name).is_ok() {
                            continue;
                        }
                        if let Some(targets) = name_index.get(name) {
                            out.extend(targets.iter().copied());
                        }
                    }
                }
            }
            edges.push(out.into_iter().collect());
        }
        CallGraph { fns, edges }
    }

    /// Node indices of one entry point's fns (usually a single fn).
    pub fn entry_indices(&self, file: &str, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.def.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// All node indices reachable from `starts` (inclusive), BFS order
    /// collapsed into a sorted set.
    pub fn reachable(&self, starts: &[usize]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = starts.iter().copied().collect();
        let mut queue: VecDeque<usize> = starts.iter().copied().collect();
        while let Some(i) = queue.pop_front() {
            for &j in &self.edges[i] {
                if seen.insert(j) {
                    queue.push_back(j);
                }
            }
        }
        seen
    }

    /// Per-node set of entry-point names that reach it.
    fn reachers(&self) -> BTreeMap<usize, BTreeSet<&'static str>> {
        let mut map: BTreeMap<usize, BTreeSet<&'static str>> = BTreeMap::new();
        for (file, name) in ENTRY_POINTS {
            let starts = self.entry_indices(file, name);
            for idx in self.reachable(&starts) {
                map.entry(idx).or_default().insert(name);
            }
        }
        map
    }

    /// The panic-reachability and wallclock-reachability violations for
    /// this graph (unfiltered — the caller applies per-file allows).
    pub fn reachability_violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (idx, entries) in self.reachers() {
            let f = &self.fns[idx];
            let from = entries.iter().copied().collect::<Vec<_>>().join(", ");
            let plural = if entries.len() == 1 { "" } else { "s" };
            for site in &f.def.panics {
                out.push(Violation {
                    file: f.file.clone(),
                    line: site.line,
                    rule: "panic-reachability".to_string(),
                    message: format!(
                        "`{}` in `{}` is reachable from engine entry point{plural} \
                         {from} — a panic here aborts the event loop mid-simulation; \
                         return a typed CoreError or add a justified allow",
                        site.kind.name(),
                        f.def.qual_name()
                    ),
                });
            }
            for site in &f.def.wallclocks {
                out.push(Violation {
                    file: f.file.clone(),
                    line: site.line,
                    rule: "wallclock-reachability".to_string(),
                    message: format!(
                        "wall-clock `{}::now` in `{}` is reachable from deterministic \
                         entry point{plural} {from} — use simulated time or add a \
                         justified allow",
                        site.what,
                        f.def.qual_name()
                    ),
                });
            }
        }
        out.sort();
        out
    }
}

// --------------------------------------------------------- JSON rendering --

fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders the call graph as deterministic pretty JSON (trailing newline):
/// the three entry points with their reachable-fn counts and per-entry
/// panic/wall-clock site lists (sorted by file/line — the debt-burndown
/// priority order), then every node with its resolved callees.
pub fn render_graph_json(graph: &CallGraph) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n  \"entry_points\": [\n");
    for (ei, (file, name)) in ENTRY_POINTS.iter().enumerate() {
        let starts = graph.entry_indices(file, name);
        let reach = graph.reachable(&starts);
        let _ = write!(
            s,
            "    {{\n      \"name\": \"{name}\",\n      \"file\": \"{file}\",\n      \
             \"reachable_fns\": {},\n      \"panic_sites\": [\n",
            reach.len()
        );
        let mut sites: Vec<(String, u32, &'static str, String)> = Vec::new();
        let mut clocks: Vec<(String, u32, String, String)> = Vec::new();
        for &idx in &reach {
            let f = &graph.fns[idx];
            for p in &f.def.panics {
                sites.push((f.file.clone(), p.line, p.kind.name(), f.def.qual_name()));
            }
            for w in &f.def.wallclocks {
                clocks.push((f.file.clone(), w.line, w.what.clone(), f.def.qual_name()));
            }
        }
        sites.sort();
        clocks.sort();
        for (i, (file, line, kind, in_fn)) in sites.iter().enumerate() {
            let comma = if i + 1 == sites.len() { "" } else { "," };
            let mut ef = String::new();
            esc(file, &mut ef);
            let mut eq = String::new();
            esc(in_fn, &mut eq);
            let _ = writeln!(
                s,
                "        {{\"file\": \"{ef}\", \"line\": {line}, \"kind\": \"{kind}\", \
                 \"fn\": \"{eq}\"}}{comma}"
            );
        }
        s.push_str("      ],\n      \"wallclock_sites\": [\n");
        for (i, (file, line, what, in_fn)) in clocks.iter().enumerate() {
            let comma = if i + 1 == clocks.len() { "" } else { "," };
            let mut ef = String::new();
            esc(file, &mut ef);
            let mut eq = String::new();
            esc(in_fn, &mut eq);
            let _ = writeln!(
                s,
                "        {{\"file\": \"{ef}\", \"line\": {line}, \"what\": \"{what}\", \
                 \"fn\": \"{eq}\"}}{comma}"
            );
        }
        let comma = if ei + 1 == ENTRY_POINTS.len() {
            ""
        } else {
            ","
        };
        let _ = write!(s, "      ]\n    }}{comma}\n");
    }
    s.push_str("  ],\n  \"functions\": [\n");
    for (i, f) in graph.fns.iter().enumerate() {
        let mut ef = String::new();
        esc(&f.file, &mut ef);
        let mut eq = String::new();
        esc(&f.def.qual_name(), &mut eq);
        let _ = write!(
            s,
            "    {{\"file\": \"{ef}\", \"line\": {}, \"fn\": \"{eq}\", \"calls\": [",
            f.def.line
        );
        for (j, &callee) in graph.edges[i].iter().enumerate() {
            let c = &graph.fns[callee];
            let mut ec = String::new();
            esc(
                &format!("{}:{}:{}", c.file, c.def.line, c.def.qual_name()),
                &mut ec,
            );
            let comma = if j + 1 == graph.edges[i].len() {
                ""
            } else {
                ", "
            };
            let _ = write!(s, "\"{ec}\"{comma}");
        }
        let comma = if i + 1 == graph.fns.len() { "" } else { "," };
        let _ = writeln!(s, "]}}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::rules::test_line_ranges;

    fn files(srcs: &[(&str, &str)]) -> Vec<(String, ParsedFile)> {
        srcs.iter()
            .map(|(rel, src)| {
                let lx = lex(src);
                let ranges = test_line_ranges(&lx);
                (rel.to_string(), parse(&lx, &ranges, false))
            })
            .collect()
    }

    #[test]
    fn skip_lists_are_sorted_for_binary_search() {
        let mut q = STD_MODULES.to_vec();
        q.sort_unstable();
        assert_eq!(q, STD_MODULES);
        let mut m = STD_METHODS.to_vec();
        m.sort_unstable();
        assert_eq!(m, STD_METHODS);
    }

    #[test]
    fn transitive_panic_reachability() {
        let g = CallGraph::build(&files(&[
            (
                "crates/spider-sim/src/engine.rs",
                "impl Engine { fn run(&mut self) { self.step(); } \
                 fn step(&mut self) { helper(1); } }",
            ),
            (
                "crates/spider-sim/src/util.rs",
                "fn helper(x: u32) { inner(x); } \
                 fn inner(x: u32) -> u32 { Some(x).unwrap() } \
                 fn unrelated() { panic!(\"not reachable\") }",
            ),
        ]));
        let v = g.reachability_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "panic-reachability");
        assert_eq!(v[0].file, "crates/spider-sim/src/util.rs");
        assert!(v[0].message.contains("`unwrap` in `inner`"));
        assert!(v[0].message.contains("run"));
    }

    #[test]
    fn wallclock_reachability_reports_entry_points() {
        let g = CallGraph::build(&files(&[
            (
                "crates/spider-sim/src/engine.rs",
                "fn run() { stamp(); } fn run_queued() { stamp(); }",
            ),
            (
                "crates/spider-telemetry/src/spans.rs",
                "fn stamp() { let t = Instant::now(); }",
            ),
        ]));
        let v = g.reachability_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wallclock-reachability");
        assert!(v[0].message.contains("run, run_queued"), "{}", v[0].message);
    }

    #[test]
    fn std_method_names_do_not_create_edges() {
        let g = CallGraph::build(&files(&[
            (
                "crates/spider-sim/src/engine.rs",
                "impl Engine { fn run(&mut self) { self.queue.push(1); v.get(0); } }",
            ),
            (
                "crates/spider-core/src/other.rs",
                "impl Stack { fn push(&mut self, x: u32) { self.v.last().unwrap(); } \
                 fn get(&self, i: usize) -> u32 { self.v[i].checked_add(1).unwrap() } }",
            ),
        ]));
        assert!(g.reachability_violations().is_empty());
    }

    #[test]
    fn qualified_calls_resolve_through_first_party_impls_only() {
        let g = CallGraph::build(&files(&[
            (
                "crates/spider-sim/src/engine.rs",
                "impl Engine { fn run(&mut self) { let v = Vec::new(); \
                 let a = Amount::from_micros(1); } }",
            ),
            (
                "crates/spider-core/src/amount.rs",
                "impl Amount { fn from_micros(m: i64) -> Amount { check(m).expect(\"range\") } }",
            ),
        ]));
        let v = g.reachability_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Amount::from_micros"));
    }

    #[test]
    fn self_calls_resolve_to_the_callers_impl() {
        let g = CallGraph::build(&files(&[(
            "crates/spider-sim/src/engine.rs",
            "impl Engine { fn run(&mut self) { Self::helper(); } \
             fn helper() { panic!(\"x\") } }",
        )]));
        let v = g.reachability_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Engine::helper"));
    }

    #[test]
    fn graph_json_is_deterministic() {
        let fs = files(&[(
            "crates/spider-sim/src/engine.rs",
            "impl Engine { fn run(&mut self) { helper(); } } fn helper() { panic!(\"x\") }",
        )]);
        let a = render_graph_json(&CallGraph::build(&fs));
        let b = render_graph_json(&CallGraph::build(&fs));
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"reachable_fns\": 2"));
        assert!(a.contains("\"kind\": \"panic!\""));
    }
}
