//! Machine-readable profile-build benchmark: the planner's dominant cost
//! is tabulating per-core operating points, so this binary times exactly
//! that path (kernel → profile → decision tables → full plan) on the
//! bundled benchmarks, plus the architecture-search portfolio that
//! consumes the resulting cost models, the batched stream verifier, the
//! incremental (profile-cache) rebuild path and whole fleet batches, and
//! emits a JSON report for `BENCH_profile.json`.
//!
//! Usage:
//!
//! ```text
//! bench_profile [--label NAME] [--out FILE] [--smoke] [--workers N]
//!               [--check BASELINE]
//! ```
//!
//! `--smoke` runs a seconds-scale subset (used by CI to catch kernel
//! regressions); the default set covers the largest bundled SOC
//! (p93791-class, ≈98k scan flip-flops) and takes minutes on a cold
//! machine. `--workers` sets the worker-thread count for the
//! pool-dispatched workloads (architecture search, anneal portfolio,
//! full plan); results are identical at any value, only the wall clock
//! moves, and every JSON entry records the count it ran with.
//!
//! Every entry is a wall-clock time in milliseconds, lower is better:
//! one warm-up pass (lazily synthesized cubes and allocator warm-up stay
//! out of the measurement), then [`PASSES`] timed passes. An entry
//! reports its best pass as `millis`, the standard noise-robust
//! statistic, beside its median and worst pass (`median_millis`,
//! `max_millis`); the run records the host's `available_parallelism`.
//! The `fleet_*` entries time whole `fleet::run_fleet` batches the way
//! `soctdc fleet` runs them, plan-time stream verification included.
//!
//! `--check BASELINE` compares every gated entry (`GATED_PREFIXES`) with
//! the newest run in a committed `BENCH_profile.json` that records a
//! `millis` value under the same name, and exits non-zero when any is
//! more than 20% slower or has no such baseline — the CI perf-regression
//! gate. Older records without `millis` (the fleet entries' designs/sec
//! of earlier runs) stay as history and are never a baseline. A report
//! written by `--out` is one run and works as a baseline too, so two
//! local runs can be compared.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

use serve::json::{self, Value};
use soc_tdc::fleet;
use soc_tdc::model::benchmarks::{self, Design};
use soc_tdc::model::generator::synthesize_missing_test_sets;
use soc_tdc::model::Soc;
use soc_tdc::planner::{
    CompressionMode, DecisionConfig, DecisionTable, PlanControl, PlanRequest, Planner, Technique,
};
use soc_tdc::selenc::{
    cube_cost, encode_cube, verify_operating_point, verify_stream, verify_test_set_stream,
    CoreProfile, Encoder, ProfileConfig, SliceCode,
};
use soc_tdc::tam::{
    anneal_architecture, optimize_architecture, AnnealOptions, ArchitectureOptions, CostModel,
};
use soc_tdc::wrapper::design_wrapper;

const SEED: u64 = 2008;

/// Timed passes per entry, after one warm-up pass.
const PASSES: usize = 5;

/// Regression threshold for `--check`: fail when an entry is more than
/// this factor slower than its committed baseline.
const CHECK_TOLERANCE: f64 = 1.20;

/// Name prefixes of the entries `--check` gates; every other entry is
/// reported only.
const GATED_PREFIXES: &[&str] = &["tables_", "plan_", "fleet_", "soclint_", "dsan_", "verify_"];

struct Entry {
    name: &'static str,
    /// Best, median and worst pass, in milliseconds.
    millis: f64,
    median: f64,
    worst: f64,
    workers: usize,
}

impl Entry {
    fn from_samples(name: &'static str, mut samples: [f64; PASSES], workers: usize) -> Entry {
        samples.sort_by(f64::total_cmp);
        Entry {
            name,
            millis: samples[0],
            median: samples[PASSES / 2],
            worst: samples[PASSES - 1],
            workers,
        }
    }
}

/// Times `f` over [`PASSES`] passes after one warm-up pass.
fn timed<F: FnMut()>(name: &'static str, workers: usize, mut f: F) -> Entry {
    f();
    let samples = std::array::from_fn(|_| {
        // Measurement harness: timing the workload is the whole point here.
        #[allow(clippy::disallowed_methods)]
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    });
    let e = Entry::from_samples(name, samples, workers);
    eprintln!("  {name}: {:.1} ms", e.millis);
    e
}

fn fast() -> DecisionConfig {
    DecisionConfig {
        pattern_sample: Some(8),
        m_candidates: 8,
    }
}

fn build_tables(soc: &Soc, width: u32, cfg: &DecisionConfig) {
    for core in soc.cores() {
        let t = DecisionTable::build(core, CompressionMode::PerCore, width, cfg);
        assert!(t.max_width() == width);
    }
}

/// The cost model the architecture-search entries run on (same tables the
/// planner would build).
fn cost_model(soc: &Soc, width: u32) -> CostModel {
    let cfg = fast();
    let mut cost = CostModel::new(width);
    for core in soc.cores() {
        let t = DecisionTable::build(core, CompressionMode::PerCore, width, &cfg);
        cost.push_core(core.name(), t.time_row());
    }
    cost
}

/// Stream-verifies every core of `soc` at `m = min(64, max chains)` with
/// the scalar oracle: encode each cube, decode it with the reference
/// [`Decompressor`](soc_tdc::selenc::Decompressor), compare slice by
/// slice against materialized `TritVec` slices.
fn verify_soc_scalar(soc: &Soc) -> u64 {
    let mut total = 0u64;
    for core in soc.cores() {
        let m = 64.min(core.max_wrapper_chains());
        let design = design_wrapper(core, m);
        let code = SliceCode::for_chains(design.chain_count());
        let encoder = Encoder::new(code);
        for cube in core.test_set().expect("cubes attached").iter() {
            let words = encode_cube(&encoder, &design, cube);
            total += words.len() as u64;
            let expected: Vec<_> = design.slices(cube).collect();
            verify_stream(code, words, &expected).expect("stream verifies");
        }
    }
    total
}

/// The same verification through the column encoder and decoder.
fn verify_soc_packed(soc: &Soc) -> u64 {
    let mut total = 0u64;
    for core in soc.cores() {
        let m = 64.min(core.max_wrapper_chains());
        let design = design_wrapper(core, m);
        let report = verify_test_set_stream(&design, core.test_set().expect("cubes attached"))
            .expect("stream verifies");
        total += report.codewords;
    }
    total
}

/// The `(core index, m)` of every selectively encoded core in the
/// per-core plan of `soc` at TAM width `width` (default fidelity, no
/// plan-time verification).
fn compressed_points(soc: &Soc, width: u32) -> Vec<(usize, u32)> {
    let control = PlanControl::default().without_stream_verification();
    let plan = Planner::per_core_tdc()
        .plan_with(soc, &PlanRequest::tam_width(width), &control)
        .expect("plan");
    let points: Vec<(usize, u32)> = plan
        .core_settings
        .iter()
        .filter_map(|s| match (s.technique, s.decompressor) {
            (Technique::SelectiveEncoding, Some((_, m))) => Some((s.core.0, m)),
            _ => None,
        })
        .collect();
    assert!(!points.is_empty(), "the plan compresses some cores");
    points
}

/// Nearest ancestor directory holding a `[workspace]` manifest — the
/// tree the soclint entries scan.
fn workspace_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().expect("current dir");
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        assert!(dir.pop(), "bench_profile must run inside the workspace");
    }
}

/// The elements of a JSON array, or none for any other value.
fn items(value: Option<&Value>) -> &[Value] {
    match value {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

/// The baseline of entry `name`: its `millis` in the newest run that
/// records one under that name. `baseline` is a parsed
/// `BENCH_profile.json`, or one report written by `--out`, which is a
/// single run.
fn baseline_millis(baseline: &Value, name: &str) -> Option<f64> {
    let runs = match baseline.field("runs") {
        None => std::slice::from_ref(baseline),
        runs => items(runs),
    };
    runs.iter()
        .rev()
        .flat_map(|run| items(run.field("entries")))
        .filter(|e| e.field("name").and_then(Value::as_str) == Some(name))
        .find_map(|e| e.field("millis")?.as_f64())
}

/// The perf-regression gate behind `--check`: compares this run's gated
/// entries (`GATED_PREFIXES`) with their committed baselines. Returns the
/// failure messages (empty = gate passes); a gated entry without a
/// baseline is one.
fn check_regressions(entries: &[Entry], baseline: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    for e in entries {
        if !GATED_PREFIXES.iter().any(|p| e.name.starts_with(p)) {
            continue;
        }
        let Some(base) = baseline_millis(baseline, e.name) else {
            failures.push(format!(
                "{}: no committed baseline records its millis",
                e.name
            ));
            continue;
        };
        let ratio = e.millis / base;
        if ratio > CHECK_TOLERANCE {
            failures.push(format!(
                "{}: {:.2} millis vs baseline {base:.2} ({:.0}% worse)",
                e.name,
                e.millis,
                (ratio - 1.0) * 100.0
            ));
        } else {
            eprintln!(
                "  check: {} {:.2} millis vs baseline {base:.2} ok",
                e.name, e.millis
            );
        }
    }
    failures
}

fn main() {
    let mut label = String::from("run");
    let mut out: Option<String> = None;
    let mut smoke = false;
    let mut workers = 1usize;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--label" => label = args.next().expect("--label needs a value"),
            "--out" => out = Some(args.next().expect("--out needs a value")),
            "--smoke" => smoke = true,
            "--workers" => {
                workers = args
                    .next()
                    .expect("--workers needs a value")
                    .parse()
                    .expect("--workers needs a number");
                assert!(workers >= 1, "--workers needs at least 1");
            }
            "--check" => check = Some(args.next().expect("--check needs a baseline file")),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut entries: Vec<Entry> = Vec::new();

    // Kernel: slice-cost evaluation of a full industrial test set at a
    // wide decompressor (the inner loop of every profile build).
    let mut ckt7 = Soc::new("bench", vec![benchmarks::ckt(7)]);
    synthesize_missing_test_sets(&mut ckt7, SEED);
    let core7 = &ckt7.cores()[0];
    let ts = core7.test_set().expect("cubes attached");
    // m = 7 is the one-word slice of a narrow operating point (w = 5, the
    // width W=24 plans pick), m = 64 a full word, m = 256 four words.
    for (m, name) in [
        (7u32, "cube_cost_ckt7_m7"),
        (64, "cube_cost_ckt7_m64"),
        (256, "cube_cost_ckt7_m256"),
    ] {
        let design = design_wrapper(core7, m);
        let code = SliceCode::for_chains(design.chain_count());
        entries.push(timed(name, 1, || {
            let total: u64 = ts.iter().map(|c| cube_cost(code, &design, c)).sum();
            assert!(total > 0);
        }));
    }

    // Profile build of one industrial core at production fidelity.
    entries.push(timed("profile_ckt7_w16", 1, || {
        let p = CoreProfile::build(core7, &ProfileConfig::industrial(16));
        assert!(!p.entries().is_empty());
    }));

    // Decision tables over a whole SOC (the planner's table phase).
    let d695 = Design::D695.build_with_cubes(SEED);
    entries.push(timed("tables_d695_w32", 1, || {
        build_tables(&d695, 32, &fast());
    }));

    // Batched stream verification at smoke scale: the whole d695 test set
    // replayed through the column encoder and decoder.
    entries.push(timed("verify_d695_packed", 1, || {
        assert!(verify_soc_packed(&d695) > 0);
    }));

    // The streams a real plan verifies: the compressed operating points of
    // the per-core W=24 plan of p34392 (6-7-chain slices at w = 5), the
    // work of the replan loop's verification stage.
    let p34392 = Design::P34392.build_with_cubes(SEED);
    let points = compressed_points(&p34392, 24);
    entries.push(timed("verify_p34392_w24_plan", 1, || {
        let mut words = 0u64;
        for &(core, m) in &points {
            let core = &p34392.cores()[core];
            words += verify_operating_point(core, m)
                .expect("stream verifies")
                .codewords;
        }
        assert!(words > 0);
    }));

    // Lint self-benchmark: the full workspace scan (lex + parse + all
    // rule families on every file), sequential and pooled, so lint cost
    // is tracked in BENCH_profile.json like the planner kernels.
    let lint_root = workspace_root();
    entries.push(timed("soclint_workspace_w1", 1, || {
        let diags = soclint::lint_workspace_with(&lint_root, 1).expect("workspace scan");
        assert!(diags.is_empty(), "workspace must lint clean: {diags:?}");
    }));
    let lint_workers = workers.max(2);
    entries.push(timed("soclint_workspace_par", lint_workers, || {
        let diags = soclint::lint_workspace_with(&lint_root, lint_workers).expect("workspace scan");
        assert!(diags.is_empty(), "workspace must lint clean: {diags:?}");
    }));

    // Incremental lint: the same scan through the fingerprint-keyed lint
    // cache, cold (empty cache, every file analyzed and stored) versus
    // warm (every file a hit; only the cross-file graph phase re-runs).
    // The cold/warm ratio is the cache's reason to exist, gated like the
    // profile cache's incr entries.
    let lint_cache = std::env::temp_dir().join("bench-profile-lint-cache");
    let _ = std::fs::remove_dir_all(&lint_cache);
    let lint_opts = soclint::LintOptions {
        workers: 1,
        cache_dir: Some(lint_cache.clone()),
    };
    entries.push(timed("soclint_workspace_cold", 1, || {
        let _ = std::fs::remove_dir_all(&lint_cache);
        let report =
            soclint::lint_workspace_report(&lint_root, &lint_opts).expect("workspace scan");
        assert!(report.diags.is_empty(), "workspace must lint clean");
        assert_eq!(report.cache_hits, 0, "cold runs start empty");
    }));
    // The cold closure's final run left the cache fully populated.
    entries.push(timed("soclint_workspace_warm", 1, || {
        let report =
            soclint::lint_workspace_report(&lint_root, &lint_opts).expect("workspace scan");
        assert!(report.diags.is_empty(), "workspace must lint clean");
        assert_eq!(report.reanalyzed, 0, "warm runs are all hits");
    }));
    let _ = std::fs::remove_dir_all(&lint_cache);

    // Architecture search: the pruned hill-climb portfolio and the
    // multi-chain anneal over the d695 cost model.
    let cost_d695 = cost_model(&d695, 32);
    entries.push(timed("arch_d695_w32", workers, || {
        let opts = ArchitectureOptions {
            workers: Some(workers),
            ..Default::default()
        };
        let a = optimize_architecture(&cost_d695, 32, &opts).unwrap();
        assert!(a.test_time > 0);
    }));
    entries.push(timed("anneal_d695_w32", workers, || {
        let opts = AnnealOptions {
            chains: 4,
            workers: Some(workers),
            ..Default::default()
        };
        let a = anneal_architecture(&cost_d695, 32, &opts).unwrap();
        assert!(a.test_time > 0);
    }));

    if !smoke {
        // The largest bundled SOC: p93791-class, 32 cores, ~98k scan FFs.
        let p93791 = Design::P93791.build_with_cubes(SEED);
        entries.push(timed("tables_p93791_w24", 1, || {
            build_tables(&p93791, 24, &fast());
        }));
        entries.push(timed("tables_p93791_w32_default", 1, || {
            build_tables(&p93791, 32, &DecisionConfig::default());
        }));

        // Full-stream verification of every p93791 core, scalar oracle vs
        // column encoder and decoder — the column path's reason to exist is
        // this ratio.
        entries.push(timed("verify_p93791_scalar", 1, || {
            assert!(verify_soc_scalar(&p93791) > 0);
        }));
        entries.push(timed("verify_p93791_packed", 1, || {
            assert!(verify_soc_packed(&p93791) > 0);
        }));

        // Incremental rebuild: a full plan at default fidelity with the
        // on-disk profile cache, cold (every core rebuilt and written)
        // versus warm after a single-core edit (one cache entry dirtied —
        // removing it is exactly what a content change does to the
        // fingerprint-keyed key). Stream verification is skipped so both
        // entries time the table/search path the cache accelerates.
        let cache_root = std::env::temp_dir().join("bench-profile-incr-cache");
        let _ = std::fs::remove_dir_all(&cache_root);
        let planner = Planner::per_core_tdc();
        let req = PlanRequest::tam_width(32);
        let control = PlanControl::default()
            .cache_profiles_in(&cache_root, "bench")
            .without_stream_verification();
        entries.push(timed("tables_p93791_w32_incr_cold", 1, || {
            let _ = std::fs::remove_dir_all(&cache_root);
            let plan = planner.plan_with(&p93791, &req, &control).unwrap();
            assert!(plan.test_time > 0);
        }));
        // The cold closure's final run left the cache fully populated.
        entries.push(timed("tables_p93791_w32_incr_warm", 1, || {
            let files = soc_tdc::planner::profile_cache_entries(&cache_root);
            assert!(!files.is_empty(), "cache populated");
            std::fs::remove_file(&files[0]).expect("dirty one core");
            let plan = planner.plan_with(&p93791, &req, &control).unwrap();
            assert!(plan.test_time > 0);
        }));
        let _ = std::fs::remove_dir_all(&cache_root);

        // Anneal portfolio on the big SOC's cost model (the dominant
        // architecture-search workload).
        let cost_p = cost_model(&p93791, 32);
        entries.push(timed("anneal_p93791_w32", workers, || {
            let opts = AnnealOptions {
                iterations: 4000,
                chains: 4,
                workers: Some(workers),
                ..Default::default()
            };
            let a = anneal_architecture(&cost_p, 32, &opts).unwrap();
            assert!(a.test_time > 0);
        }));

        // End-to-end plan on the industrial System1 (includes the default
        // plan-time stream verification, like any production plan).
        let system1 = Design::System1.build_with_cubes(SEED);
        entries.push(timed("plan_system1_w32", workers, || {
            let req = PlanRequest {
                architecture: ArchitectureOptions {
                    workers: Some(workers),
                    ..Default::default()
                },
                ..PlanRequest::tam_width(32).with_decisions(fast())
            };
            let plan = Planner::per_core_tdc().plan(&system1, &req).unwrap();
            assert!(plan.test_time > 0);
        }));
    }

    // Determinism-sanitizer disabled-mode overhead: a pool-edge-heavy
    // workload (many runs of small jobs) with dsan explicitly off. When
    // disabled, every instrumented edge must cost one atomic load — this
    // check-gated entry fails `--check` if that zero-cost contract rots.
    parpool::dsan::set_enabled(false);
    entries.push(timed("dsan_overhead_disabled", 2, || {
        let pool = parpool::Pool::with_workers(2).labeled("bench-dsan");
        let mut total = 0u64;
        for round in 0..64u64 {
            let tasks: Vec<_> = (0..8u64).map(|i| move || (round + 1) * (i + 1)).collect();
            total += pool.run(tasks).into_iter().sum::<u64>();
        }
        assert!(total > 0);
    }));

    // Fleet batches: the same width × seed sweep at a 1-worker and a
    // 4-worker budget, so the committed baseline records how batching
    // scales on the measurement host.
    const FLEET_SWEEP: &str = "design d695 widths=8..19 seeds=2008,2009 sample=8 mcand=8\n";
    let fleet_batches: &[(&'static str, &str, usize)] = if smoke {
        &[(
            "fleet_smoke_w2",
            "design d695 widths=10,12 sample=4 mcand=4\n",
            2,
        )]
    } else {
        &[
            ("fleet_sweep_w1", FLEET_SWEEP, 1),
            ("fleet_sweep_w4", FLEET_SWEEP, 4),
        ]
    };
    for &(name, text, workers) in fleet_batches {
        let manifest = fleet::Manifest::parse(text).expect("fleet manifest");
        let opts = fleet::FleetOptions {
            workers,
            ..Default::default()
        };
        entries.push(timed(name, workers, || {
            let report = fleet::run_fleet(&manifest, &opts);
            assert_eq!(report.summary.failed, 0, "fleet bench manifest must plan");
        }));
    }

    let mut report = String::from("{\n");
    let _ = writeln!(report, "  \"suite\": \"profile-fastpath\",");
    let _ = writeln!(report, "  \"label\": \"{label}\",");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(report, "  \"available_parallelism\": {cpus},");
    let _ = writeln!(report, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            report,
            "    {{ \"name\": \"{}\", \"millis\": {:.2}, \"median_millis\": {:.2}, \"max_millis\": {:.2}, \"iters\": {PASSES}, \"workers\": {} }}{comma}",
            e.name, e.millis, e.median, e.worst, e.workers,
        );
    }
    let _ = writeln!(report, "  ]");
    report.push_str("}\n");

    match out {
        Some(path) => std::fs::write(&path, &report).expect("write report"),
        None => print!("{report}"),
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).expect("read --check baseline");
        let baseline = json::parse(&text).expect("--check baseline is JSON");
        let failures = check_regressions(&entries, &baseline);
        if !failures.is_empty() {
            eprintln!("perf check failed against {path} (>20% slower or no baseline):");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("perf check passed against {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two runs in the committed layout: the newer records `tables_x`
    /// again and `fleet_y` only as a rate without `millis`, as the fleet
    /// entries of runs before `fleet-millis` did.
    const BASELINE: &str = r#"{
  "suite": "profile-fastpath",
  "description": "fixture",
  "runs": [
    {
      "label": "old",
      "entries": [
        {
          "name": "tables_x",
          "millis": 100.0,
          "iters": 1,
          "workers": 1
        },
        {
          "name": "fleet_y",
          "millis": 40.0,
          "median_millis": 42.0,
          "max_millis": 45.0,
          "iters": 5,
          "workers": 4
        },
        {
          "name": "fleet_z",
          "rate": 10.0,
          "direction": "higher",
          "iters": 1,
          "workers": 1
        }
      ]
    },
    {
      "label": "new",
      "available_parallelism": 2,
      "entries": [
        {
          "name": "tables_x",
          "millis": 50.0,
          "median_millis": 60.0,
          "max_millis": 90.0,
          "direction": "lower",
          "iters": 5,
          "workers": 1
        },
        {
          "name": "fleet_y",
          "rate": 30.0,
          "median_rate": 20.0,
          "min_rate": 10.0,
          "direction": "higher",
          "iters": 5,
          "workers": 4
        }
      ]
    }
  ]
}"#;

    fn baseline() -> Value {
        json::parse(BASELINE).expect("fixture parses")
    }

    fn entry(name: &'static str, millis: f64) -> Entry {
        Entry::from_samples(name, [millis; PASSES], 1)
    }

    #[test]
    fn newest_run_with_a_millis_record_is_the_baseline() {
        assert_eq!(baseline_millis(&baseline(), "tables_x"), Some(50.0));
    }

    #[test]
    fn newer_record_without_millis_is_skipped() {
        assert_eq!(baseline_millis(&baseline(), "fleet_y"), Some(40.0));
        assert_eq!(baseline_millis(&baseline(), "fleet_z"), None);
    }

    #[test]
    fn more_than_20_percent_slower_fails() {
        let b = baseline();
        let within = [entry("tables_x", 59.0), entry("fleet_y", 47.0)];
        assert!(check_regressions(&within, &b).is_empty());
        let slower = [entry("tables_x", 61.0), entry("fleet_y", 49.0)];
        let failures = check_regressions(&slower, &b);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("tables_x: 61.00 millis vs baseline 50.00"));
        assert!(failures[1].starts_with("fleet_y: 49.00 millis vs baseline 40.00"));
    }

    #[test]
    fn a_single_out_report_is_a_baseline() {
        let report = json::parse(
            r#"{
  "suite": "profile-fastpath",
  "label": "local",
  "available_parallelism": 2,
  "entries": [
    { "name": "tables_x", "millis": 20.00, "median_millis": 21.00, "max_millis": 25.00, "iters": 5, "workers": 1 }
  ]
}"#,
        )
        .expect("report parses");
        assert_eq!(baseline_millis(&report, "tables_x"), Some(20.0));
        assert!(check_regressions(&[entry("tables_x", 23.0)], &report).is_empty());
        let slower = check_regressions(&[entry("tables_x", 25.0)], &report);
        assert_eq!(slower.len(), 1, "{slower:?}");
    }

    #[test]
    fn ungated_names_never_fail() {
        let ungated = [entry("cube_cost_q", 9e9), entry("anneal_x", 9e9)];
        assert!(check_regressions(&ungated, &baseline()).is_empty());
    }

    #[test]
    fn gated_name_without_a_millis_baseline_fails() {
        let b = baseline();
        for name in [
            "fleet_z",
            "verify_new",
            "soclint_new",
            "dsan_new",
            "plan_new",
        ] {
            let failures = check_regressions(&[entry(name, 0.01)], &b);
            assert_eq!(failures.len(), 1, "{name}");
            assert!(
                failures[0].contains("no committed baseline"),
                "{failures:?}"
            );
        }
    }

    #[test]
    fn five_passes_summarize_best_median_and_worst() {
        let e = Entry::from_samples("t", [3.0, 1.0, 4.0, 10.0, 2.0], 2);
        assert_eq!(
            (e.millis, e.median, e.worst, e.workers),
            (1.0, 3.0, 10.0, 2)
        );
    }
}
