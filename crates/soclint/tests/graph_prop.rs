//! Property tests for the workspace layer: the call-graph builder must
//! never panic on any fact set the per-file pass can produce (token soup,
//! byte-mutated real sources, hostile path layouts), its counters must
//! stay consistent, and the incremental cache must be semantically
//! invisible — after a random single-file edit, a warm run's findings are
//! byte-identical to a from-scratch cold run.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use soclint::facts::analyze_file;
use soclint::graph::analyze;
use soclint::{lint_workspace_report, to_json, LintOptions, RULE_IDS};

/// Paths chosen to hit every special role the graph layer dispatches on:
/// cancel-analysis roots, cancel-audited crates, untrusted-parser scope,
/// and plain helper crates.
const GRAPH_PATHS: &[&str] = &[
    "crates/tdcsoc/src/cascade.rs",  // cancel root + audited crate
    "crates/serve/src/server.rs",    // cancel root (request path)
    "crates/tam/src/search.rs",      // cancel-audited crate
    "crates/tdcsoc/src/planfile.rs", // untrusted parser scope
    "crates/soc-model/src/table.rs", // plain helper
    "src/main.rs",                   // workspace root binary
];

/// Real sources dense with the constructs the graph layer consumes:
/// calls, loops, qualified paths, `use` declarations.
const REAL_SOURCES: &[&str] = &[
    include_str!("../src/graph.rs"),
    include_str!("../../tdcsoc/src/planfile.rs"),
    include_str!("../../tam/src/exhaustive.rs"),
];

fn assert_graph_total(sources: &[(&str, String)]) {
    let analyses: Vec<_> = sources
        .iter()
        .map(|(path, src)| analyze_file(path, src))
        .collect();
    let facts: Vec<_> = analyses.into_iter().map(|a| a.facts).collect();
    let (diags, stats) = analyze(&facts);
    for d in &diags {
        assert!(
            RULE_IDS.contains(&d.rule.as_str()),
            "unknown rule {:?}",
            d.rule
        );
        assert!(d.line >= 1, "diagnostic lines are 1-based");
        assert!(
            sources.iter().any(|(p, _)| *p == d.file),
            "diagnostic points at an analyzed file: {:?}",
            d.file
        );
    }
    // Every call site lands in exactly one resolution bucket.
    assert_eq!(
        stats.resolved + stats.ambiguous + stats.unknown + stats.external + stats.std_filtered,
        stats.calls,
        "resolution buckets must partition the call sites: {stats}"
    );
    // Determinism: the same facts give the same report.
    let (again, _) = analyze(&facts);
    assert_eq!(diags, again, "graph analysis must be deterministic");
}

/// One byte-level mutation with lossy UTF-8 repair (mirrors what a file
/// reader does with a corrupt file).
fn mutate(source: &str, pos: usize, byte: u8, mode: u8) -> String {
    let mut bytes = source.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let pos = pos % bytes.len();
    match mode % 4 {
        0 => bytes.truncate(pos),
        1 => bytes[pos] = byte,
        2 => bytes.insert(pos, byte),
        _ => {
            bytes.remove(pos);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Fragments biased toward what the graph layer parses out of files:
/// fns, calls (free / method / qualified), loops, polls, use decls.
const GRAPH_SOUP: &[&str] = &[
    "fn ",
    "pub fn ",
    "solve",
    "plan",
    "handle_stdio",
    "expired",
    "is_cancelled",
    "search_tams",
    "(",
    ")",
    "{",
    "}",
    "d",
    ".",
    "::",
    "use tam::search_tams;\n",
    "use selenc::first_code;\n",
    "while ",
    "loop ",
    "for x in y ",
    "if ",
    "break",
    ";",
    "\n",
    "unwrap",
    "expect",
    "panic!(\"x\")",
    "v[i]",
    "let ",
    " = ",
    "s.parse()",
    "x.min(y)",
    "Deadline::expired",
    "self",
    "&",
    ",",
    "// soclint: allow(panic-reach) -- soup\n",
    "#[test]\n",
    "mod tests ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graph_soup_never_panics(
        pieces in proptest::collection::vec(0usize..GRAPH_SOUP.len(), 0..160),
        cut in 0usize..GRAPH_PATHS.len(),
    ) {
        // The same soup lands in every special-role file at once, split
        // at a moving boundary so fn bodies straddle files differently
        // case to case.
        let soup: String = pieces.iter().map(|&i| GRAPH_SOUP[i]).collect();
        let mut mid = soup.len() / 2;
        while mid > 0 && !soup.is_char_boundary(mid) {
            mid -= 1;
        }
        let (head, tail) = soup.split_at(mid);
        let sources: Vec<(&str, String)> = GRAPH_PATHS
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, if i <= cut { head.to_string() } else { tail.to_string() }))
            .collect();
        assert_graph_total(&sources);
    }

    #[test]
    fn mutated_real_sources_never_break_the_graph(
        which in 0usize..REAL_SOURCES.len(),
        pos in any::<usize>(),
        byte in any::<u8>(),
        mode in any::<u8>(),
        path in 0usize..GRAPH_PATHS.len(),
    ) {
        // One mutated file among pristine copies of the others: the
        // cross-file indices are built from mixed-quality inputs.
        let sources: Vec<(&str, String)> = GRAPH_PATHS
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let src = REAL_SOURCES[(i + which) % REAL_SOURCES.len()];
                if i == path {
                    (*p, mutate(src, pos, byte, mode))
                } else {
                    (*p, src.to_string())
                }
            })
            .collect();
        assert_graph_total(&sources);
    }
}

#[test]
fn empty_and_single_file_workspaces_are_total() {
    assert_graph_total(&[]);
    for p in GRAPH_PATHS {
        assert_graph_total(&[(*p, REAL_SOURCES[0].to_string())]);
    }
}

// --- Incremental ≡ cold under random single-file edits ------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("soclint-incprop-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The editable corpus: interlinked enough that editing one file changes
/// cross-file conclusions (the whole point of re-running phase 2 on a
/// warm cache).
const WS_FILES: &[(&str, &str)] = &[
    (
        "crates/tdcsoc/src/planfile.rs",
        "use soc_model::scaled_bits;\n\
         fn parse_line(line: &str) -> Option<u64> {\n\
             let n: u64 = line.parse().ok()?;\n\
             Some(scaled_bits(n))\n\
         }\n\
         pub fn total(text: &str) -> u64 {\n\
             text.lines().filter_map(parse_line).sum()\n\
         }\n",
    ),
    (
        "crates/soc-model/src/table.rs",
        "pub fn scaled_bits(n: u64) -> u64 {\n    n.min(4096) * 8\n}\n",
    ),
    (
        "crates/tdcsoc/src/cascade.rs",
        "use tam::search_tams;\n\
         pub fn solve(d: &Deadline) -> u32 {\n    search_tams(d)\n}\n",
    ),
    (
        "crates/tam/src/search.rs",
        "pub fn search_tams(d: &Deadline) -> u32 {\n\
             let mut best = 0;\n\
             while best < 100 {\n\
                 if d.expired() {\n            break;\n        }\n\
                 best += 1;\n\
             }\n\
             best\n\
         }\n",
    ),
    (
        "crates/filler/src/quiet.rs",
        "pub fn quiet(x: u64) -> u64 {\n    x ^ 1\n}\n",
    ),
];

fn write_ws(root: &Path) {
    for (rel, body) in WS_FILES {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, body).unwrap();
    }
}

fn findings_json(root: &Path, cache: Option<&Path>) -> String {
    let opts = LintOptions {
        workers: 1,
        cache_dir: cache.map(Path::to_path_buf),
    };
    let report = lint_workspace_report(root, &opts).expect("workspace walk");
    to_json(&report.diags)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_findings_match_cold_after_random_single_file_edit(
        which in 0usize..WS_FILES.len(),
        pos in any::<usize>(),
        byte in any::<u8>(),
        mode in any::<u8>(),
    ) {
        let ws = Scratch::new();
        write_ws(&ws.0);
        let cache = ws.0.join("cache");

        // Populate the cache from the pristine tree.
        let _ = findings_json(&ws.0, Some(&cache));

        // Randomly edit exactly one file (lossy-repaired, so it is the
        // same bytes any reader would hand the analyzer).
        let (rel, body) = WS_FILES[which];
        fs::write(ws.0.join(rel), mutate(body, pos, byte, mode)).unwrap();

        // Warm (incremental) and cold (uncached) must agree byte for
        // byte on the findings JSON.
        let warm = findings_json(&ws.0, Some(&cache));
        let cold = findings_json(&ws.0, None);
        prop_assert_eq!(warm, cold, "incremental run diverged from cold on edit of {}", rel);
    }
}
