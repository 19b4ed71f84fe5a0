//! A lightweight syntactic analyzer over the token stream: items, `fn`
//! definitions, call sites, panic/wall-clock sites, and money-typed names.
//!
//! This is deliberately *not* a Rust parser. It recovers exactly the
//! structure the reachability and overflow rules need, from the same
//! [`Lexed`] stream the token-level rules use:
//!
//! - `fn` definitions with their body token ranges, qualified by the
//!   enclosing `impl`/`trait` type when there is one,
//! - call sites inside each body — method calls (`.name(...)`), path calls
//!   (`Qual::name(...)`, with the qualifier captured), and bare calls
//!   (`name(...)`) — plus macro invocations (`name!(...)`),
//! - panic sites (`.unwrap()`, `.expect(...)`, `panic!`, `unreachable!`,
//!   `todo!`, `unimplemented!`) and wall-clock sites (`Instant::now`,
//!   `SystemTime::now`),
//! - names known to hold money: parameters and `let` bindings ascribed
//!   `Amount`, and (file-wide) struct fields whose type mentions `Amount`.
//!
//! Name resolution is intentionally approximate: callees are later matched
//! by name (see [`callgraph`](crate::callgraph)), so the extraction here
//! only has to be deterministic and panic-free on arbitrary input, never
//! "correct" in the rustc sense. The false-negative surface (macro-generated
//! code, function pointers, closures called through variables) is documented
//! in `DESIGN.md`.

use crate::lexer::Lexed;
use std::collections::BTreeSet;

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Callee base name (`settle_hop`, `now`, ...).
    pub name: String,
    /// For path calls `Qual::name(...)`: the qualifying segment directly
    /// before the final `::` (`Ledger`, `Self`, `std`, ...).
    pub qualifier: Option<String>,
    /// `true` for method calls (`.name(...)`).
    pub method: bool,
    /// 1-based source line.
    pub line: u32,
}

/// What kind of panic a [`PanicSite`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `.unwrap()`
    Unwrap,
    /// `.expect(...)`
    Expect,
    /// `panic!(...)`
    PanicMacro,
    /// `unreachable!(...)`
    UnreachableMacro,
    /// `todo!(...)`
    TodoMacro,
    /// `unimplemented!(...)`
    UnimplementedMacro,
}

impl PanicKind {
    /// Stable name used in JSON output and messages.
    pub fn name(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::PanicMacro => "panic!",
            PanicKind::UnreachableMacro => "unreachable!",
            PanicKind::TodoMacro => "todo!",
            PanicKind::UnimplementedMacro => "unimplemented!",
        }
    }
}

/// A potential panic inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicSite {
    /// Which construct panics.
    pub kind: PanicKind,
    /// 1-based source line.
    pub line: u32,
}

/// A wall-clock read (`Instant::now()` / `SystemTime::now()`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WallclockSite {
    /// `Instant` or `SystemTime`.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// One parsed `fn` definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnDef {
    /// Base name (`run`, `settle_hop`, ...).
    pub name: String,
    /// Enclosing `impl`/`trait` type name, when any (`Ledger`, `ShardCtx`).
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `true` when the definition sits inside a `#[cfg(test)]` region /
    /// `#[test]` item or a whole-file test.
    pub is_test: bool,
    /// Token index range `[open_brace, close_brace]` of the body.
    pub body: (usize, usize),
    /// Call sites in source order (nested `fn` bodies excluded).
    pub calls: Vec<CallSite>,
    /// Panic sites in source order (nested `fn` bodies excluded).
    pub panics: Vec<PanicSite>,
    /// Wall-clock sites in source order (nested `fn` bodies excluded).
    pub wallclocks: Vec<WallclockSite>,
    /// Parameter / `let` names ascribed type `Amount` in this fn.
    pub money_idents: BTreeSet<String>,
}

impl FnDef {
    /// `Owner::name` when the fn sits in an impl/trait block, else `name`.
    pub fn qual_name(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The result of parsing one file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedFile {
    /// Every `fn` with a body, in source order.
    pub fns: Vec<FnDef>,
    /// Struct field names whose declared type mentions `Amount`, file-wide.
    pub amount_fields: BTreeSet<String>,
    /// All `impl`/`trait` type names seen in this file.
    pub impl_types: BTreeSet<String>,
}

/// Keywords that must not be mistaken for bare call names.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "type", "union", "unsafe",
    "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses a lexed file. `test_ranges` are the line ranges of
/// `#[cfg(test)]`/`#[test]` items (see
/// [`test_line_ranges`](crate::rules::test_line_ranges)); `whole_file_test`
/// marks integration-test files where every fn is test code.
pub fn parse(lx: &Lexed, test_ranges: &[(u32, u32)], whole_file_test: bool) -> ParsedFile {
    let mut out = ParsedFile::default();
    let in_test =
        |line: u32| whole_file_test || test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    collect_amount_fields(lx, &mut out.amount_fields);

    // First pass: locate every fn body (so nested fns can be excluded from
    // their parent's site scan) and every impl/trait block.
    let fn_spans = locate_fns(lx);
    let impl_spans = locate_impl_blocks(lx);
    for ty in impl_spans.iter().map(|s| s.ty.clone()) {
        out.impl_types.insert(ty);
    }

    for span in &fn_spans {
        let owner = impl_spans
            .iter()
            .filter(|b| b.open < span.open && span.close <= b.close)
            .max_by_key(|b| b.open)
            .map(|b| b.ty.clone());
        let line = lx.toks[span.kw].line;
        let mut def = FnDef {
            name: span.name.clone(),
            owner,
            line,
            is_test: in_test(line),
            body: (span.open, span.close),
            calls: Vec::new(),
            panics: Vec::new(),
            wallclocks: Vec::new(),
            money_idents: BTreeSet::new(),
        };
        collect_params(lx, span.kw, span.open, &mut def.money_idents);
        // Token ranges of fns nested strictly inside this body.
        let nested: Vec<(usize, usize)> = fn_spans
            .iter()
            .filter(|s| s.open > span.open && s.close < span.close)
            .map(|s| (s.open, s.close))
            .collect();
        scan_body(lx, span.open, span.close, &nested, &mut def);
        out.fns.push(def);
    }
    out
}

/// One located `fn` with a body.
struct FnSpan {
    /// Token index of the `fn` keyword.
    kw: usize,
    name: String,
    /// Token indices of the body braces.
    open: usize,
    close: usize,
}

/// One located `impl`/`trait` block.
struct ImplSpan {
    /// The self-type (for `impl Trait for Type`, the `Type`).
    ty: String,
    open: usize,
    close: usize,
}

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

/// Finds every `fn name ... { body }`. Trait method *declarations*
/// (`fn f(...);`) have no body and are skipped.
fn locate_fns(lx: &Lexed) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let toks = &lx.toks;
    let mut i = 0;
    while i < toks.len() {
        if lx.ident(i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = lx.ident(i + 1) else {
            i += 1;
            continue;
        };
        if is_keyword(name) {
            i += 2;
            continue;
        }
        // Walk the signature to the body `{` or a terminating `;`. The
        // signature may contain parens, angle brackets, and a where-clause;
        // `{` at bracket depth 0 opens the body.
        let name = name.to_string();
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut found = None;
        while j < toks.len() {
            match lx.punct(j) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth == 0 => {
                    found = Some(j);
                    break;
                }
                Some(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = found {
            if let Some(close) = matching(lx, open, '{', '}') {
                spans.push(FnSpan {
                    kw: i,
                    name,
                    open,
                    close,
                });
                // Continue *inside* the body so nested fns are found too.
                i += 2;
                continue;
            }
        }
        i = j + 1;
    }
    spans
}

/// Finds every `impl ... {` / `trait Name {` block and its self-type.
fn locate_impl_blocks(lx: &Lexed) -> Vec<ImplSpan> {
    let mut spans = Vec::new();
    let toks = &lx.toks;
    let mut i = 0;
    while i < toks.len() {
        let kw = lx.ident(i);
        if kw != Some("impl") && kw != Some("trait") {
            i += 1;
            continue;
        }
        let is_trait = kw == Some("trait");
        // Collect header tokens up to the opening `{` at paren depth 0,
        // tracking angle-bracket depth so `for` inside generics is ignored.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut header: Vec<(usize, i32)> = Vec::new(); // (token idx, angle depth)
        let mut open = None;
        while j < toks.len() {
            match lx.punct(j) {
                Some('<') => angle += 1,
                Some('>') => angle = (angle - 1).max(0),
                Some('(') | Some('[') => paren += 1,
                Some(')') | Some(']') => paren -= 1,
                Some('{') if paren == 0 => {
                    open = Some(j);
                    break;
                }
                Some(';') if paren == 0 => break, // `impl Trait for Type;` etc.
                _ => {}
            }
            header.push((j, angle));
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let Some(close) = matching(lx, open, '{', '}') else {
            break;
        };
        // Self-type: the last path segment before `{` / `<`, taken from the
        // segment after a depth-0 `for` when present (impl Trait for Type).
        let mut start = 0usize;
        if !is_trait {
            for (pos, &(tk, ad)) in header.iter().enumerate() {
                if ad == 0 && lx.ident(tk) == Some("for") {
                    start = pos + 1;
                }
            }
        }
        let mut ty = None;
        for &(tk, ad) in &header[start.min(header.len())..] {
            if ad > 0 {
                continue;
            }
            if let Some(id) = lx.ident(tk) {
                if !is_keyword(id) {
                    ty = Some(id.to_string());
                    // Keep going: `a::b::Type` — last segment wins, but stop
                    // once generics open (`Type<...>` already filtered by
                    // angle depth).
                }
            }
        }
        if let Some(ty) = ty {
            spans.push(ImplSpan { ty, open, close });
        }
        // Scan inside the block too (nested impls are rare but legal).
        i = open + 1;
    }
    spans
}

/// Collects struct/enum-struct fields whose declared type mentions `Amount`.
fn collect_amount_fields(lx: &Lexed, out: &mut BTreeSet<String>) {
    let toks = &lx.toks;
    let mut i = 0;
    while i < toks.len() {
        if lx.ident(i) != Some("struct") {
            i += 1;
            continue;
        }
        // Find the field block.
        let mut j = i + 1;
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
        // Walk `name : Type` pairs at depth 1.
        let mut k = body + 1;
        let mut depth = 0i32;
        while k < end {
            match lx.punct(k) {
                Some('{') | Some('(') | Some('[') | Some('<') => depth += 1,
                Some('}') | Some(')') | Some(']') | Some('>') => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                if let (Some(fname), Some(':')) = (lx.ident(k), lx.punct(k + 1)) {
                    if lx.punct(k + 2) != Some(':') {
                        // Type tokens run to the `,` at depth 0 or `}`.
                        let mut t = k + 2;
                        let mut d2 = 0i32;
                        let mut has_amount = false;
                        while t < end {
                            match lx.punct(t) {
                                Some('(') | Some('[') | Some('{') | Some('<') => d2 += 1,
                                Some(')') | Some(']') | Some('}') | Some('>') => d2 -= 1,
                                Some(',') if d2 <= 0 => break,
                                _ => {}
                            }
                            if lx.ident(t) == Some("Amount") {
                                has_amount = true;
                            }
                            t += 1;
                        }
                        if has_amount {
                            out.insert(fname.to_string());
                        }
                        k = t;
                        continue;
                    }
                }
            }
            k += 1;
        }
        i = end + 1;
    }
}

/// Records parameter names ascribed `Amount` between the fn keyword and the
/// body brace.
fn collect_params(lx: &Lexed, kw: usize, open: usize, out: &mut BTreeSet<String>) {
    // Parameter list: the first `( ... )` after the fn name.
    let mut p = kw + 2;
    while p < open && lx.punct(p) != Some('(') {
        p += 1;
    }
    if p >= open {
        return;
    }
    let Some(close) = matching(lx, p, '(', ')') else {
        return;
    };
    let close = close.min(open);
    let mut k = p + 1;
    while k < close {
        if let (Some(pname), Some(':')) = (lx.ident(k), lx.punct(k + 1)) {
            if lx.punct(k + 2) != Some(':') && !is_keyword(pname) {
                // Type runs to the `,` at depth 0.
                let mut t = k + 2;
                let mut d = 0i32;
                let mut has_amount = false;
                while t < close {
                    match lx.punct(t) {
                        Some('(') | Some('[') | Some('<') => d += 1,
                        Some(')') | Some(']') | Some('>') => d -= 1,
                        Some(',') if d <= 0 => break,
                        _ => {}
                    }
                    if lx.ident(t) == Some("Amount") {
                        has_amount = true;
                    }
                    t += 1;
                }
                if has_amount {
                    out.insert(pname.to_string());
                }
                k = t;
                continue;
            }
        }
        k += 1;
    }
}

/// Scans a fn body for call, panic, and wall-clock sites plus `let`
/// ascriptions, skipping nested fn bodies.
fn scan_body(lx: &Lexed, open: usize, close: usize, nested: &[(usize, usize)], def: &mut FnDef) {
    let toks = &lx.toks;
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, nc)) = nested.iter().find(|&&(no, _)| no == i) {
            i = nc + 1;
            continue;
        }
        let Some(id) = lx.ident(i) else {
            i += 1;
            continue;
        };
        let line = toks[i].line;

        // `let name : Type` ascriptions.
        if id == "let" {
            let mut n = i + 1;
            if lx.ident(n) == Some("mut") {
                n += 1;
            }
            if let Some(lname) = lx.ident(n) {
                if lx.punct(n + 1) == Some(':') && lx.punct(n + 2) != Some(':') {
                    // Type runs to `=` or `;` at depth 0.
                    let mut t = n + 2;
                    let mut d = 0i32;
                    let mut has_amount = false;
                    while t < close {
                        match lx.punct(t) {
                            Some('(') | Some('[') | Some('{') | Some('<') => d += 1,
                            Some(')') | Some(']') | Some('}') | Some('>') => d -= 1,
                            Some('=') | Some(';') if d <= 0 => break,
                            _ => {}
                        }
                        if lx.ident(t) == Some("Amount") {
                            has_amount = true;
                        }
                        t += 1;
                    }
                    if has_amount {
                        def.money_idents.insert(lname.to_string());
                    }
                }
            }
            i += 1;
            continue;
        }

        // Macro invocation `name ! (`.
        if lx.punct(i + 1) == Some('!') {
            let kind = match id {
                "panic" => Some(PanicKind::PanicMacro),
                "unreachable" => Some(PanicKind::UnreachableMacro),
                "todo" => Some(PanicKind::TodoMacro),
                "unimplemented" => Some(PanicKind::UnimplementedMacro),
                _ => None,
            };
            if let Some(kind) = kind {
                def.panics.push(PanicSite { kind, line });
            }
            i += 2;
            continue;
        }

        // Wall-clock read `Instant :: now (` / `SystemTime :: now (`.
        if (id == "Instant" || id == "SystemTime")
            && lx.punct(i + 1) == Some(':')
            && lx.punct(i + 2) == Some(':')
            && lx.ident(i + 3) == Some("now")
        {
            def.wallclocks.push(WallclockSite {
                what: id.to_string(),
                line,
            });
            i += 4;
            continue;
        }

        // Call site: ident followed by `(`, or by a turbofish then `(`.
        let mut after = i + 1;
        if lx.punct(after) == Some(':')
            && lx.punct(after + 1) == Some(':')
            && lx.punct(after + 2) == Some('<')
        {
            match matching(lx, after + 2, '<', '>') {
                Some(e) => after = e + 1,
                None => {
                    i += 1;
                    continue;
                }
            }
        }
        if lx.punct(after) == Some('(') && !is_keyword(id) {
            let prev = i.checked_sub(1).and_then(|p| lx.punct(p));
            let method = prev == Some('.');
            let qualifier =
                if !method && prev == Some(':') && i >= 2 && lx.punct(i - 2) == Some(':') {
                    i.checked_sub(3).and_then(|q| lx.ident(q)).map(String::from)
                } else {
                    None
                };
            if method && (id == "unwrap" || id == "expect") {
                let kind = if id == "unwrap" {
                    PanicKind::Unwrap
                } else {
                    PanicKind::Expect
                };
                def.panics.push(PanicSite { kind, line });
            }
            def.calls.push(CallSite {
                name: id.to_string(),
                qualifier,
                method,
                line,
            });
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_line_ranges;

    fn parse_src(src: &str) -> ParsedFile {
        let lx = lex(src);
        let ranges = test_line_ranges(&lx);
        parse(&lx, &ranges, false)
    }

    #[test]
    fn extracts_fns_with_impl_owner() {
        let p = parse_src(
            "impl Ledger { fn side(&self) -> usize { 0 } }\n\
             fn free() {}\n\
             impl BalanceView for LedgerView<'_> { fn available(&self) -> Amount { Amount::ZERO } }\n\
             trait Scheme { fn route(&self) { self.help(); } }\n",
        );
        let quals: Vec<String> = p.fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(
            quals,
            [
                "Ledger::side",
                "free",
                "LedgerView::available",
                "Scheme::route"
            ]
        );
        assert!(p.impl_types.contains("Ledger"));
        assert!(p.impl_types.contains("LedgerView"));
        assert!(p.impl_types.contains("Scheme"));
    }

    #[test]
    fn trait_declarations_without_body_are_skipped() {
        let p = parse_src("trait T { fn decl(&self); fn with_default(&self) { x() } }\n");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["with_default"]);
    }

    #[test]
    fn call_sites_classified_by_shape() {
        let p = parse_src(
            "fn f() { g(); obj.method(); Ledger::side(n); a::b::helper(); v.collect::<Vec<_>>(); }\n",
        );
        let f = &p.fns[0];
        let shapes: Vec<(String, Option<String>, bool)> = f
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.qualifier.clone(), c.method))
            .collect();
        assert_eq!(
            shapes,
            [
                ("g".to_string(), None, false),
                ("method".to_string(), None, true),
                ("side".to_string(), Some("Ledger".to_string()), false),
                ("helper".to_string(), Some("b".to_string()), false),
                ("collect".to_string(), None, true),
            ]
        );
    }

    #[test]
    fn panic_and_wallclock_sites() {
        let p = parse_src(
            "fn f(x: Option<u32>) {\n\
                 x.unwrap();\n\
                 x.expect(\"m\");\n\
                 panic!(\"boom\");\n\
                 unreachable!();\n\
                 let t = Instant::now();\n\
                 let s = std::time::SystemTime::now();\n\
             }\n",
        );
        let f = &p.fns[0];
        let kinds: Vec<PanicKind> = f.panics.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::PanicMacro,
                PanicKind::UnreachableMacro
            ]
        );
        assert_eq!(f.wallclocks.len(), 2);
        assert_eq!(f.wallclocks[0].what, "Instant");
        // unwrap_or_else is not a panic site.
        let p = parse_src("fn f(x: Option<u32>) { x.unwrap_or_else(|| 0); }\n");
        assert!(p.fns[0].panics.is_empty());
    }

    #[test]
    fn nested_fn_sites_belong_to_the_nested_fn_only() {
        let p = parse_src("fn outer() { fn inner(x: Option<u32>) { x.unwrap(); } inner(None); }\n");
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert!(outer.panics.is_empty(), "{:?}", outer.panics);
        assert_eq!(inner.panics.len(), 1);
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn money_idents_from_params_lets_and_fields() {
        let p = parse_src(
            "struct S { cap: Amount, pair: [Amount; 2], other: u32 }\n\
             fn f(amount: Amount, n: usize) { let fee: Amount = g(); let k: i64 = 0; }\n",
        );
        assert!(p.amount_fields.contains("cap"));
        assert!(p.amount_fields.contains("pair"));
        assert!(!p.amount_fields.contains("other"));
        let f = &p.fns[0];
        assert!(f.money_idents.contains("amount"));
        assert!(f.money_idents.contains("fee"));
        assert!(!f.money_idents.contains("n"));
        assert!(!f.money_idents.contains("k"));
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let lx = lex(src);
        let ranges = test_line_ranges(&lx);
        let p = parse(&lx, &ranges, false);
        let lib = p.fns.iter().find(|f| f.name == "lib_fn").expect("lib_fn");
        let t = p.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(!lib.is_test);
        assert!(t.is_test);
    }

    #[test]
    fn parse_is_deterministic() {
        let src = "impl A { fn f(&self) { self.g(); } } fn g() { panic!(\"x\") }";
        assert_eq!(parse_src(src), parse_src(src));
    }
}
