//! `soclint` — workspace-native static analysis enforcing the two
//! load-bearing contracts of this reproduction:
//!
//! 1. **Determinism**: plans are bit-identical at any worker count, so the
//!    search/reduction crates must not consume hash-iteration order, wall
//!    clock, OS entropy, or NaN-unsafe float comparisons.
//! 2. **Robustness**: untrusted inputs (ITC'02 files, plan files, pattern
//!    files, vector images) must surface as typed errors — never panics,
//!    unguarded indexing, or silently truncating casts.
//!
//! Plus hygiene: every library crate root carries the agreed
//! `#![forbid(unsafe_code)]` / `#![deny(missing_docs)]` header and
//! test-only code is `#[cfg(test)]`-gated.
//!
//! v3 proves the contracts **across** files: [`facts`] extracts per-file
//! call/loop/taint facts alongside the per-file rules, [`graph`] builds a
//! workspace call graph over them and runs the three interprocedural
//! analyses (`cross-taint`, `cancel-coverage`, `panic-reach`), [`cache`]
//! keys the per-file stage by content fingerprint so warm runs only
//! re-analyze edited files, and [`sarif`] renders findings for CI code
//! scanning.
//!
//! The tool is offline and dependency-free: a token-level lexer
//! ([`lexer`]) plus a lightweight attribute/span scanner ([`scope`]) stand
//! in for `syn`, which the build environment cannot fetch. Rules and the
//! suppression protocol live in [`rules`]; run `cargo run -p soclint --
//! --workspace` for the CI gate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod captures;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod scope;
pub mod taint;

use std::path::{Path, PathBuf};

pub use graph::GraphStats;
pub use rules::{
    lint_source, Diagnostic, BANNED_CLOCK_TYPES, BANNED_ENTROPY_SOURCES, BANNED_HASH_TYPES,
    RULE_DESCRIPTIONS, RULE_IDS, WORKSPACE_RULE_IDS,
};

/// Directories under the workspace root that contain lintable Rust code.
const LINT_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path prefixes (workspace-relative, `/`-separated) excluded from the
/// walk: build output and the known-bad lint fixtures.
const EXCLUDED_PREFIXES: &[&str] = &["target/", "crates/soclint/tests/fixtures/"];

/// Error walking or reading the workspace.
#[derive(Debug)]
pub struct WalkError {
    /// The path that failed.
    pub path: PathBuf,
    /// The underlying I/O error, stringified.
    pub message: String,
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for WalkError {}

/// Knobs for a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Worker count for the per-file stage (0 → 1).
    pub workers: usize,
    /// Directory for fingerprint-keyed per-file artifacts; `None`
    /// disables the incremental cache.
    pub cache_dir: Option<PathBuf>,
}

/// Outcome of a workspace lint run: the findings plus the observability
/// counters CI asserts on.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All diagnostics (per-file rules + workspace analyses), sorted by
    /// (file, line, rule) — byte-identical at any worker count.
    pub diags: Vec<Diagnostic>,
    /// Findings suppressed by `allow` directives in the per-file stage,
    /// same sort. SARIF output renders these as `note`-level results so
    /// every suppression stays visible in code scanning.
    pub allowed: Vec<Diagnostic>,
    /// Call-graph resolution counters.
    pub stats: GraphStats,
    /// `.rs` files analyzed.
    pub files: usize,
    /// Files served from the incremental cache.
    pub cache_hits: usize,
    /// Files (re-)analyzed this run (`files - cache_hits`).
    pub reanalyzed: usize,
}

/// Lints every workspace `.rs` file under `root`. Returns diagnostics
/// sorted by (file, line, rule) — deterministic regardless of directory
/// enumeration order.
///
/// # Errors
///
/// Fails on unreadable directories or files; a clean workspace on a
/// healthy filesystem never errors.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, WalkError> {
    lint_workspace_with(root, 1)
}

/// [`lint_workspace`] with an explicit worker count. Files are linted as
/// independent `parpool` jobs; the results come back in task order and
/// are then sorted, so the diagnostics are byte-identical at any worker
/// count — soclint holds itself to the same contract it lints for.
///
/// # Errors
///
/// Fails on unreadable directories or files, like [`lint_workspace`].
pub fn lint_workspace_with(root: &Path, workers: usize) -> Result<Vec<Diagnostic>, WalkError> {
    let report = lint_workspace_report(
        root,
        &LintOptions {
            workers,
            cache_dir: None,
        },
    )?;
    Ok(report.diags)
}

/// The full v3 pipeline: walk → per-file analysis (parallel, cacheable)
/// → workspace call-graph analyses (sequential, deterministic).
///
/// # Errors
///
/// Fails on unreadable directories or files. Cache I/O failures are
/// never fatal: an unreadable artifact is a miss, an unwritable cache
/// directory silently disables caching for that file.
pub fn lint_workspace_report(root: &Path, opts: &LintOptions) -> Result<LintReport, WalkError> {
    let workers = opts.workers.max(1);
    let mut files = Vec::new();
    for dir in LINT_ROOTS {
        let base = root.join(dir);
        if base.is_dir() {
            collect_rs_files(root, &base, &mut files)?;
        }
    }
    files.sort();
    // Read sequentially (I/O errors must abort deterministically),
    // analyze in parallel (pure CPU per file).
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let full = root.join(rel);
        let source = std::fs::read_to_string(&full).map_err(|e| WalkError {
            path: full.clone(),
            message: e.to_string(),
        })?;
        sources.push(source);
    }

    if let Some(dir) = opts.cache_dir.as_deref() {
        cache::remove_flat_artifacts(dir);
    }
    // Cache probe: each slot is either a hit (served artifact) or None
    // (goes to the pool).
    let mut slots: Vec<Option<facts::FileAnalysis>> = Vec::with_capacity(files.len());
    let mut cache_hits = 0usize;
    for (rel, source) in files.iter().zip(&sources) {
        let hit = opts
            .cache_dir
            .as_deref()
            .and_then(|dir| cache::load(dir, rel, source));
        if hit.is_some() {
            cache_hits += 1;
        }
        slots.push(hit);
    }

    let pool = parpool::Pool::with_workers(workers).labeled("lint");
    let tasks: Vec<_> = files
        .iter()
        .zip(&sources)
        .zip(&slots)
        .filter(|(_, slot)| slot.is_none())
        .map(|((rel, source), _)| move || facts::analyze_file(rel, source))
        .collect();
    let reanalyzed = tasks.len();
    let mut fresh = pool.run(tasks).into_iter();
    for (slot, (rel, source)) in slots.iter_mut().zip(files.iter().zip(&sources)) {
        if slot.is_none() {
            let analysis = fresh.next().expect("one pool result per miss");
            if let Some(dir) = opts.cache_dir.as_deref() {
                cache::store(dir, rel, source, &analysis);
            }
            *slot = Some(analysis);
        }
    }

    let analyses: Vec<facts::FileAnalysis> =
        slots.into_iter().map(|s| s.expect("slot filled")).collect();
    let mut diags: Vec<Diagnostic> = analyses.iter().flat_map(|a| a.diags.clone()).collect();
    let mut allowed: Vec<Diagnostic> = analyses.iter().flat_map(|a| a.allowed.clone()).collect();
    let file_facts: Vec<facts::FileFacts> = analyses.into_iter().map(|a| a.facts).collect();
    let (global, stats) = graph::analyze(&file_facts);
    diags.extend(global);
    diags.sort();
    diags.dedup();
    allowed.sort();
    allowed.dedup();
    Ok(LintReport {
        diags,
        allowed,
        stats,
        files: files.len(),
        cache_hits,
        reanalyzed,
    })
}

/// Recursively collects workspace-relative `.rs` paths under `dir`.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), WalkError> {
    let entries = std::fs::read_dir(dir).map_err(|e| WalkError {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| WalkError {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let path = entry.path();
        let Some(rel) = relative_slash_path(root, &path) else {
            continue;
        };
        if rel.starts_with('.') || EXCLUDED_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated; `None` for non-UTF-8 names.
fn relative_slash_path(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let s = rel.to_str()?;
    Some(s.replace('\\', "/"))
}

/// Renders diagnostics as a JSON array (stable field order, no escaping
/// surprises: paths and messages contain no control characters).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_string(&d.file),
            d.line,
            json_string(&d.rule),
            json_string(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let diags = vec![Diagnostic {
            file: "a/b.rs".into(),
            line: 3,
            rule: "panic-path".into(),
            message: "don't \"panic\"".into(),
        }];
        let json = to_json(&diags);
        assert!(json.contains("\"file\": \"a/b.rs\""));
        assert!(json.contains("\\\"panic\\\""));
        assert!(json.starts_with('['));
        assert_eq!(to_json(&[]), "[]\n");
    }

    #[test]
    fn walker_skips_fixtures_and_target() {
        // The real workspace test lives in tests/self_check.rs; here just
        // exercise exclusion logic on this crate's own tree.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = lint_workspace(&root).expect("workspace walk");
        assert!(
            !diags.iter().any(|d| d.file.contains("tests/fixtures/")),
            "fixtures must be excluded from the workspace walk"
        );
    }

    #[test]
    fn report_counts_are_consistent() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_workspace_report(&root, &LintOptions::default()).expect("workspace walk");
        assert!(report.files > 10);
        assert_eq!(report.cache_hits, 0, "no cache dir → no hits");
        assert_eq!(report.reanalyzed, report.files);
        assert!(report.stats.fns > 50, "{}", report.stats);
        assert!(report.stats.resolved > 50, "{}", report.stats);
    }
}
