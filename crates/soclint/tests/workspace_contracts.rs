//! Integration contracts for the workspace pipeline: the cache must be
//! invisible (warm ≡ cold, byte for byte), parallelism must be invisible
//! (any worker count ≡ sequential), SARIF output must match the 2.1.0
//! schema shape, and `--at` must scope identically from any invoking
//! directory. These are the properties CI relies on, pinned as tests.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use soclint::{
    lint_workspace_report, to_json, LintOptions, RULE_DESCRIPTIONS, RULE_IDS, WORKSPACE_RULE_IDS,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("soclint-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Writes a miniature workspace: one untrusted parser, one helper crate
/// it calls into, and a tail of neutral files so cache-hit ratios are
/// meaningful (1 edit out of 10 files = 10% re-analysis).
fn write_mini_workspace(root: &Path) {
    let files: &[(&str, &str)] = &[
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
    ];
    for (rel, body) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, body).unwrap();
    }
    for i in 0..8 {
        let path = root.join(format!("crates/filler/src/mod{i}.rs"));
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(
            path,
            format!("pub fn f{i}(x: u64) -> u64 {{\n    x.wrapping_add({i})\n}}\n"),
        )
        .unwrap();
    }
}

fn report_json(root: &Path, opts: &LintOptions) -> (String, usize, usize, usize) {
    let report = lint_workspace_report(root, opts).expect("workspace walk");
    (
        to_json(&report.diags),
        report.files,
        report.cache_hits,
        report.reanalyzed,
    )
}

#[test]
fn warm_run_reanalyzes_under_twenty_percent_and_matches_cold() {
    let ws = Scratch::new("warm");
    write_mini_workspace(ws.path());
    let cache = ws.path().join("cache");
    let cached = LintOptions {
        workers: 1,
        cache_dir: Some(cache),
    };
    let cold_opts = LintOptions {
        workers: 1,
        cache_dir: None,
    };

    // First run populates the cache from nothing.
    let (first, files, hits0, re0) = report_json(ws.path(), &cached);
    assert_eq!((hits0, re0), (0, files), "empty cache means all misses");

    // Unedited warm run: everything hits, nothing re-analyzed.
    let (warm, _, hits1, re1) = report_json(ws.path(), &cached);
    assert_eq!((hits1, re1), (files, 0), "warm run must be all hits");
    assert_eq!(warm, first, "cache must not change the report");

    // Edit one file; the warm run re-analyzes only that file (<20%)
    // and its report is byte-identical to an uncached cold run.
    let edited = ws.path().join("crates/tdcsoc/src/planfile.rs");
    let mut body = fs::read_to_string(&edited).unwrap();
    body.push_str("pub fn extra(v: &[u64]) -> usize {\n    v.len()\n}\n");
    fs::write(&edited, body).unwrap();

    let (warm2, files2, hits2, re2) = report_json(ws.path(), &cached);
    assert_eq!(re2, 1, "exactly the edited file is re-analyzed");
    assert_eq!(hits2, files2 - 1);
    assert!(
        (re2 as f64) < 0.20 * files2 as f64,
        "warm run re-analyzed {re2}/{files2} files"
    );
    let (cold2, ..) = report_json(ws.path(), &cold_opts);
    assert_eq!(warm2, cold2, "warm report must be byte-identical to cold");
}

/// A flipped digit in one cached artifact is caught by the store's
/// checksum: that file is re-analyzed, the artifact is quarantined, and
/// the report equals the cold run's instead of carrying the flipped line.
#[test]
fn a_corrupt_artifact_is_reanalyzed_and_the_report_matches_cold() {
    let ws = Scratch::new("corrupt");
    write_mini_workspace(ws.path());
    // A crate root without the lint header: one finding, at line 1.
    let lib = ws.path().join("crates/bare/src/lib.rs");
    fs::create_dir_all(lib.parent().unwrap()).unwrap();
    fs::write(&lib, "pub fn bare() {}\n").unwrap();
    let cache = ws.path().join("cache");
    let cached = LintOptions {
        workers: 1,
        cache_dir: Some(cache.clone()),
    };
    let (cold, files, ..) = report_json(ws.path(), &cached);
    assert!(
        cold.contains(r#""line": 1, "rule": "deny-header""#),
        "{cold}"
    );

    let store = robust::Store::new(&cache);
    let artifact = store
        .entries()
        .into_iter()
        .find(|p| p.to_string_lossy().contains("crates_bare_src_lib.rs"))
        .expect("the bare crate root has an artifact");
    let text = fs::read_to_string(&artifact).unwrap();
    let flipped = text.replacen("\t1\tdeny-header", "\t7\tdeny-header", 1);
    assert_ne!(flipped, text, "the artifact records the finding's line");
    fs::write(&artifact, flipped).unwrap();

    let (warm, _, hits, reanalyzed) = report_json(ws.path(), &cached);
    assert_eq!(
        (hits, reanalyzed),
        (files - 1, 1),
        "only the corrupt file re-runs"
    );
    assert_eq!(warm, cold, "a corrupt artifact must not change the report");
    assert_eq!(store.quarantined().len(), 1);
}

/// A cache root filled before the sharded store holds flat
/// `<name>.lint` artifacts nothing reads: a cached run removes them,
/// leaves the shards alone, and reports what a cold run reports.
#[test]
fn a_cached_run_removes_flat_artifacts_from_the_cache_root() {
    let ws = Scratch::new("flat");
    write_mini_workspace(ws.path());
    let cache = ws.path().join("cache");
    fs::create_dir_all(&cache).unwrap();
    let flat = cache.join("crates_filler_src_mod0.rs-00000000000000ff.lint");
    fs::write(
        &flat,
        "soclint-cache v2\npath\tcrates/filler/src/mod0.rs\nend\n",
    )
    .unwrap();
    // A directory with the suffix is not an artifact.
    fs::create_dir_all(cache.join("keep.lint")).unwrap();
    let cached = LintOptions {
        workers: 1,
        cache_dir: Some(cache.clone()),
    };
    let cold_opts = LintOptions {
        workers: 1,
        cache_dir: None,
    };

    let (warm, files, ..) = report_json(ws.path(), &cached);
    assert!(!flat.exists(), "the flat artifact is removed");
    assert!(cache.join("keep.lint").is_dir());
    let (cold, ..) = report_json(ws.path(), &cold_opts);
    assert_eq!(warm, cold, "the report matches a cold run's");
    let store = robust::Store::new(&cache);
    assert_eq!(
        store.entries().len(),
        files,
        "the shards keep every artifact"
    );
    let (_, _, hits, _) = report_json(ws.path(), &cached);
    assert_eq!(hits, files, "the next run reads them all");
}

#[test]
fn worker_count_never_changes_the_report() {
    // Run on the real shipped workspace: large enough that scheduling
    // differences would show if ordering leaked into the output.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let mut reports = Vec::new();
    for workers in [1usize, 2, 4] {
        let opts = LintOptions {
            workers,
            cache_dir: None,
        };
        let report = lint_workspace_report(root, &opts).expect("workspace walk");
        reports.push(to_json(&report.diags));
    }
    assert_eq!(reports[0], reports[1], "workers=1 vs workers=2 differ");
    assert_eq!(reports[0], reports[2], "workers=1 vs workers=4 differ");
}

#[test]
fn rule_descriptions_cover_every_rule_exactly_once() {
    let ids: Vec<&str> = RULE_DESCRIPTIONS.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, RULE_IDS, "descriptions must mirror RULE_IDS in order");
    for (id, desc) in RULE_DESCRIPTIONS {
        assert!(!desc.is_empty(), "rule {id} needs a description");
    }
    for rule in WORKSPACE_RULE_IDS {
        assert!(RULE_IDS.contains(rule), "workspace rule {rule} unknown");
    }
}

// --- CLI-level contracts (spawn the built binary) -----------------------

fn soclint_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_soclint"))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// `--at` must mean the same scope set no matter which subdirectory the
/// linter runs from: the regression here was `crates/...` spellings
/// failing to normalize when invoked from inside `crates/`.
#[test]
fn at_scopes_identically_from_workspace_root_and_subdirectory() {
    let root = workspace_root();
    let fixture = root.join("crates/soclint/tests/fixtures/panic-path/fail.rs");
    assert!(fixture.is_file(), "fixture exists");
    let at = "crates/tdcsoc/src/planfile.rs";

    let run = |cwd: &Path| {
        let out = soclint_cmd()
            .current_dir(cwd)
            .args(["--root", root.to_str().unwrap(), "--format", "json", "--at"])
            .arg(at)
            .arg(&fixture)
            .output()
            .expect("spawn soclint");
        String::from_utf8(out.stdout).expect("utf8 json")
    };

    let from_root = run(&root);
    let from_crates = run(&root.join("crates"));
    assert_eq!(
        from_root, from_crates,
        "--at must normalize identically from any cwd"
    );
    assert!(
        from_root.contains("\"crates/tdcsoc/src/planfile.rs\""),
        "diagnostics must carry the workspace-relative path: {from_root}"
    );
    assert!(
        from_root.contains("panic-path"),
        "parser scope must apply under --at: {from_root}"
    );

    // An absolute --at spelling rebases onto the workspace root.
    let abs_at = root.join(at);
    let out = soclint_cmd()
        .current_dir(root.join("crates"))
        .args(["--root", root.to_str().unwrap(), "--format", "json", "--at"])
        .arg(abs_at.to_str().unwrap())
        .arg(&fixture)
        .output()
        .expect("spawn soclint");
    let abs_json = String::from_utf8(out.stdout).expect("utf8 json");
    assert_eq!(abs_json, from_root, "absolute --at must rebase to relative");
}

/// The stderr cache banner is a CI contract: cold run all misses, warm
/// run all hits, and exit code 0 on the shipped (clean) tree.
#[test]
fn cli_cache_banner_reports_cold_then_warm() {
    let root = workspace_root();
    let scratch = Scratch::new("clicache");
    let cache = scratch.path().join("cache");
    let run = || {
        let out = soclint_cmd()
            .current_dir(&root)
            .args(["--workspace", "--cache"])
            .arg(&cache)
            .output()
            .expect("spawn soclint");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code_cold, err_cold) = run();
    assert_eq!(code_cold, Some(0), "shipped tree lints clean: {err_cold}");
    assert!(
        err_cold.contains("hits=0"),
        "cold run starts from an empty cache: {err_cold}"
    );
    let (code_warm, err_warm) = run();
    assert_eq!(code_warm, Some(0));
    assert!(
        err_warm.contains("reanalyzed=0"),
        "warm run must be all hits: {err_warm}"
    );
}
