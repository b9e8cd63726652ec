//! File classification and test-code span tracking.
//!
//! Rules are scoped: determinism rules apply to the search/reduction
//! crates, robustness rules to the untrusted-input parsers, hygiene rules
//! to every library crate. Classification is purely path-based so the
//! mapping stays auditable in one place — this module — rather than
//! scattered through per-file annotations.

use crate::lexer::{Token, TokenKind, Tokens};

/// Crates whose search and reduction decisions must be bit-reproducible:
/// no hash-ordered iteration, wall clock, OS entropy, or NaN-unsafe float
/// comparisons outside test code. `soclint` polices itself: diagnostics
/// order is part of its output contract.
pub const DETERMINISM_CRATES: &[&str] = &[
    "tam",
    "selenc",
    "wrapper",
    "parpool",
    "tdcsoc",
    "lfsr",
    "soc-model",
    "fdr",
    "soclint",
    // The daemon takes all time through `robust::Deadline` and keeps its
    // own state in ordered containers, so its request handling is as
    // reproducible as the planner underneath it.
    "serve",
    // The batch driver's ordered reports and plans must be identical at
    // any worker split; its latency/throughput reporting reads the clock
    // through explicit per-line allows.
    "fleet",
];

/// Crates allowed to read the wall clock: `robust` owns deadlines.
pub const WALL_CLOCK_CRATES: &[&str] = &["robust"];

/// Files that parse untrusted input end to end; panicking there turns bad
/// input into a crash, so `unwrap`/`expect`/`panic!`/unguarded indexing
/// and unchecked `as` narrowing are banned outright. The flow-aware
/// taint rules (`taint-arith`, `taint-index`) run on the same set.
pub const UNTRUSTED_PARSER_FILES: &[&str] = &[
    "crates/tdcsoc/src/planfile.rs",
    "crates/tdcsoc/src/vectors.rs",
    "crates/soc-model/src/itc02.rs",
    "crates/soc-model/src/patfile.rs",
    "crates/serve/src/json.rs",
    "crates/serve/src/http.rs",
    "crates/fleet/src/manifest.rs",
    // Parses entry headers and shard journals read back from disk.
    "crates/robust/src/store.rs",
];

/// Crates that build or submit `parpool` job closures; the closure-capture
/// rules (`capture-mut`, `order-sensitive-reduce`) run here.
pub const CAPTURE_CRATES: &[&str] = &["parpool", "tam", "tdcsoc", "fleet"];

/// Everything soclint knows about one file before rules run.
#[derive(Debug, Clone)]
pub struct FileScope {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Owning crate (`tam`, `tdcsoc`, …); the workspace root package is
    /// `soc-tdc`.
    pub crate_name: String,
    /// Determinism rules apply (crate in scope, file not exempted).
    pub determinism: bool,
    /// Wall-clock and entropy bans apply.
    pub wall_clock_banned: bool,
    /// Robustness (no-panic) rules apply.
    pub untrusted_parser: bool,
    /// Closure-capture determinism rules apply.
    pub capture_checked: bool,
    /// This is a `crates/*/src/lib.rs` — full hygiene header required.
    pub lib_root: bool,
    /// A binary/test/example root (`src/bin/*.rs`, `tests/*.rs`,
    /// `examples/*.rs`, `crates/*/{tests,examples,benches}/*.rs`) — the
    /// `#![forbid(unsafe_code)]` half of the header is required.
    pub bin_root: bool,
    /// The whole file is test/bench code (under `tests/`, `benches/`, or
    /// an `examples/` directory).
    pub all_test: bool,
}

/// Classifies a workspace-relative path. `path` must use `/` separators.
pub fn classify(path: &str) -> FileScope {
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("soc-tdc")
        .to_string();

    let all_test = path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("tests/")
        || path.starts_with("examples/");

    // Bench binaries in the root package are measurement code, exempt
    // from the wall-clock ban; the experiment binaries beside them are not.
    let bench_bin = path.starts_with("src/bin/bench_");

    let determinism = DETERMINISM_CRATES.contains(&crate_name.as_str()) && !all_test && !bench_bin;
    let wall_clock_banned = !WALL_CLOCK_CRATES.contains(&crate_name.as_str())
        && crate_name != "proptest"
        && !all_test
        && !bench_bin;
    let untrusted_parser = UNTRUSTED_PARSER_FILES.contains(&path);
    let capture_checked = CAPTURE_CRATES.contains(&crate_name.as_str()) && !all_test && !bench_bin;
    let lib_root = path.starts_with("crates/") && path.ends_with("/src/lib.rs");
    let bin_root = is_bin_root(path);

    FileScope {
        path: path.to_string(),
        crate_name,
        determinism,
        wall_clock_banned,
        untrusted_parser,
        capture_checked,
        lib_root,
        bin_root,
        all_test,
    }
}

/// True for direct `.rs` children of the binary/test/example roots —
/// files `rustc` compiles as their own crate, so each needs its own
/// `#![forbid(unsafe_code)]`.
fn is_bin_root(path: &str) -> bool {
    let direct_child_of = |prefix: &str| -> bool {
        path.strip_prefix(prefix)
            .is_some_and(|rest| rest.ends_with(".rs") && !rest.contains('/'))
    };
    if direct_child_of("tests/") || direct_child_of("examples/") || direct_child_of("src/bin/") {
        return true;
    }
    // crates/<name>/{tests,examples,benches,src/bin}/<file>.rs
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((_, tail)) = rest.split_once('/') {
            for dir in ["tests/", "examples/", "benches/", "src/bin/"] {
                if let Some(file) = tail.strip_prefix(dir) {
                    if file.ends_with(".rs") && !file.contains('/') {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Line ranges (1-based, inclusive) of `#[cfg(test)]`- or `#[test]`-gated
/// items. Rules treat tokens inside these ranges as test code.
#[derive(Debug, Default)]
pub struct TestSpans {
    ranges: Vec<(u32, u32)>,
}

impl TestSpans {
    /// True when `line` is inside any gated item.
    pub fn contains(&self, line: u32) -> bool {
        self.ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// The computed ranges (for diagnostics in tests).
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }
}

/// Finds `#[cfg(test)]` / `#[test]` attributes and brace-matches the item
/// that follows, recording its line span. Attributes stacked on the same
/// item are handled (the span starts at the first gated attribute). Items
/// ending in `;` (gated `use`, `type`) span to that semicolon.
pub fn test_spans(tokens: &Tokens) -> TestSpans {
    let sig = tokens.significant();
    let toks = &tokens.all;
    let mut spans = TestSpans::default();
    let mut s = 0usize;
    while s < sig.len() {
        if !is_test_attribute(toks, &sig, s) {
            s += 1;
            continue;
        }
        let attr_line = toks[sig[s]].line;
        // Skip this attribute and any further attributes on the same item.
        let mut j = skip_attribute(toks, &sig, s);
        while j < sig.len() && toks[sig[j]].is_punct('#') {
            j = skip_attribute(toks, &sig, j);
        }
        // Brace-match the item body (or run to `;` for braceless items).
        let mut depth = 0i32;
        let mut end_line = attr_line;
        while j < sig.len() {
            let t = &toks[sig[j]];
            match t.kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.line;
                        j += 1;
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => {
                    end_line = t.line;
                    j += 1;
                    break;
                }
                _ => {}
            }
            end_line = t.line;
            j += 1;
        }
        spans.ranges.push((attr_line, end_line));
        s = j;
    }
    spans
}

/// True when the significant token at `s` opens `#[cfg(test)]`,
/// `#[cfg(any(test, …))]` or `#[test]` (also `#[bench]` and
/// `#[proptest]`-style test markers containing the word `test`).
fn is_test_attribute(toks: &[Token], sig: &[usize], s: usize) -> bool {
    if !toks[sig[s]].is_punct('#') {
        return false;
    }
    // Collect the idents inside the attribute's brackets.
    let mut j = s + 1;
    if j >= sig.len() || !toks[sig[j]].is_punct('[') {
        return false;
    }
    let mut depth = 0i32;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut first_ident: Option<&str> = None;
    while j < sig.len() {
        let t = &toks[sig[j]];
        match &t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(name) => {
                if first_ident.is_none() {
                    first_ident = Some(name);
                }
                match name.as_str() {
                    "cfg" | "cfg_attr" => saw_cfg = true,
                    "test" => saw_test = true,
                    _ => {}
                }
            }
            _ => {}
        }
        j += 1;
    }
    match first_ident {
        Some("test") | Some("bench") => true,
        _ => saw_cfg && saw_test,
    }
}

/// Returns the index of the first significant token after the attribute
/// opening at `s` (which must be `#`).
fn skip_attribute(toks: &[Token], sig: &[usize], s: usize) -> usize {
    let mut j = s + 1;
    // Optional `!` for inner attributes.
    if j < sig.len() && toks[sig[j]].is_punct('!') {
        j += 1;
    }
    if j >= sig.len() || !toks[sig[j]].is_punct('[') {
        return j;
    }
    let mut depth = 0i32;
    while j < sig.len() {
        match toks[sig[j]].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classification_matrix() {
        let tam = classify("crates/tam/src/anneal.rs");
        assert!(tam.determinism && tam.wall_clock_banned && !tam.untrusted_parser);
        assert_eq!(tam.crate_name, "tam");

        let robust = classify("crates/robust/src/lib.rs");
        assert!(!robust.wall_clock_banned && robust.lib_root);

        let planfile = classify("crates/tdcsoc/src/planfile.rs");
        assert!(planfile.untrusted_parser && planfile.determinism);

        let wire_json = classify("crates/serve/src/json.rs");
        assert!(wire_json.untrusted_parser && wire_json.determinism);
        let wire_http = classify("crates/serve/src/http.rs");
        assert!(wire_http.untrusted_parser && wire_http.determinism);
        assert!(!classify("crates/serve/src/server.rs").untrusted_parser);

        let bench_bin = classify("src/bin/bench_profile.rs");
        assert!(!bench_bin.wall_clock_banned && !bench_bin.determinism);
        assert_eq!(bench_bin.crate_name, "soc-tdc");
        // Experiment binaries print committed results, so they must not
        // read the clock the bench binary beside them times with.
        let experiment = classify("src/bin/ablations.rs");
        assert!(experiment.wall_clock_banned && experiment.bin_root);
        assert_eq!(experiment.crate_name, "soc-tdc");

        // The column encoder and decoder replay plan-verified streams;
        // they must stay under the determinism and wall-clock bans like
        // the scalar decoder they mirror.
        let emulate = classify("crates/selenc/src/emulate.rs");
        assert!(emulate.determinism && emulate.wall_clock_banned);
        // Dirty-tracking: content fingerprints (lut), the memoized stamp
        // (memo), and the fingerprint-keyed profile cache (planner) decide
        // what gets rebuilt — hash-order or clock leaks there would make
        // incremental and cold rebuilds diverge.
        let fingerprint = classify("crates/selenc/src/lut.rs");
        assert!(fingerprint.determinism && fingerprint.wall_clock_banned);
        let memo = classify("crates/selenc/src/memo.rs");
        assert!(memo.determinism && memo.wall_clock_banned);
        let incr = classify("crates/tdcsoc/src/planner.rs");
        assert!(incr.determinism && incr.wall_clock_banned && incr.capture_checked);

        // The fleet batch driver: determinism- and capture-checked like
        // the planner it drives; its manifest parser takes untrusted input.
        let fleet_runner = classify("crates/fleet/src/runner.rs");
        assert!(fleet_runner.determinism && fleet_runner.capture_checked);
        assert!(fleet_runner.wall_clock_banned && !fleet_runner.untrusted_parser);
        let fleet_manifest = classify("crates/fleet/src/manifest.rs");
        assert!(fleet_manifest.untrusted_parser && fleet_manifest.determinism);

        let itest = classify("crates/tam/tests/portfolio_prop.rs");
        assert!(itest.all_test && !itest.determinism);

        let root_test = classify("tests/failure_injection.rs");
        assert!(root_test.all_test);
    }

    #[test]
    fn capture_and_bin_root_scoping() {
        assert!(classify("crates/parpool/src/lib.rs").capture_checked);
        assert!(classify("crates/tam/src/optimize.rs").capture_checked);
        assert!(!classify("crates/robust/src/lib.rs").capture_checked);
        assert!(!classify("crates/parpool/tests/pool.rs").capture_checked);

        assert!(classify("tests/failure_injection.rs").bin_root);
        assert!(classify("src/bin/bench_profile.rs").bin_root);
        assert!(classify("examples/plan_demo.rs").bin_root);
        assert!(classify("crates/tam/tests/portfolio_prop.rs").bin_root);
        assert!(classify("crates/tam/benches/anneal.rs").bin_root);
        assert!(!classify("crates/tam/src/optimize.rs").bin_root);
        assert!(!classify("crates/tam/src/lib.rs").bin_root);
        assert!(!classify("tests/common/util.rs").bin_root);
    }

    #[test]
    fn cfg_test_mod_span() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}\n";
        let spans = test_spans(&lex(src));
        assert_eq!(spans.ranges(), &[(2, 5)]);
        assert!(spans.contains(4));
        assert!(!spans.contains(1));
        assert!(!spans.contains(6));
    }

    #[test]
    fn test_fn_and_stacked_attributes() {
        let src = "#[test]\n#[should_panic(expected = \"x\")]\nfn boom() {\n  body();\n}\n";
        let spans = test_spans(&lex(src));
        assert_eq!(spans.ranges(), &[(1, 5)]);
    }

    #[test]
    fn gated_use_spans_to_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashSet;\nfn real() {}\n";
        let spans = test_spans(&lex(src));
        assert_eq!(spans.ranges(), &[(1, 2)]);
        assert!(!spans.contains(3));
    }

    #[test]
    fn cfg_any_test_counts() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod helpers { fn h() {} }\n";
        let spans = test_spans(&lex(src));
        assert!(spans.contains(2));
    }

    #[test]
    fn non_test_cfg_ignored() {
        let src = "#[cfg(feature = \"fast\")]\nfn f() { x(); }\n";
        assert!(test_spans(&lex(src)).ranges().is_empty());
    }
}
