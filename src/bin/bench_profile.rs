//! Machine-readable profile-build benchmark: the planner's dominant cost
//! is tabulating per-core operating points, so this binary times exactly
//! that path (kernel → profile → decision tables → full plan) on the
//! bundled benchmarks, plus the architecture-search portfolio that
//! consumes the resulting cost models, the batched stream verifier, and
//! the incremental (profile-cache) rebuild path, and emits a JSON report
//! for `BENCH_profile.json`.
//!
//! Usage:
//!
//! ```text
//! bench_profile [--label NAME] [--out FILE] [--smoke] [--workers N]
//!               [--iters N] [--check BASELINE]
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
//! Every entry is timed pass by pass after one warm-up pass and reports
//! its best pass (the minimum for time entries, the maximum for
//! throughput entries), the standard noise-robust statistic. `--iters N`
//! times every entry N times, whatever its first reading, so a run
//! compares like with like against a committed baseline whatever this
//! host's load; without it an entry runs its own pass count (1 or 3).
//! Each entry also records its median and worst pass (`median_millis`/
//! `max_millis`, or `median_designs_per_sec`/`min_designs_per_sec`) and
//! its pass count, and the run records the host's
//! `available_parallelism`.
//!
//! `--check BASELINE` compares this run's
//! `tables_*`/`plan_*`/`fleet_*`/`soclint_*`/`dsan_*`/`verify_*` entries
//! (`GATED_PREFIXES`) against the most recent run in a committed
//! `BENCH_profile.json` that records the same entry, and exits non-zero
//! when any is more than 20% worse — the CI perf-regression gate. Each
//! entry carries its comparison direction explicitly: time entries
//! (`"millis"`, `"direction": "lower"`) fail when slower, throughput
//! entries (`"designs_per_sec"`, `"direction": "higher"`) fail when
//! fewer designs per second come out. Entries without a baseline are
//! reported and skipped, so newly added benchmarks don't block the gate
//! before their first committed run.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

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

/// Regression threshold for `--check`: fail when an entry is more than
/// this factor slower than its committed baseline.
const CHECK_TOLERANCE: f64 = 1.20;

/// Name prefixes of the entries `--check` gates; every other entry is
/// reported only.
const GATED_PREFIXES: &[&str] = &["tables_", "plan_", "fleet_", "soclint_", "dsan_", "verify_"];

/// Which way an entry's number is supposed to move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Direction {
    /// Time-like entries: smaller is better.
    Lower,
    /// Throughput entries: bigger is better.
    Higher,
}

impl Direction {
    fn keyword(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
        }
    }

    /// Normalized "how much worse" ratio: `> 1.0` means this run regressed
    /// relative to `base`, whichever way the metric points.
    fn regression_ratio(self, value: f64, base: f64) -> f64 {
        match self {
            Direction::Lower => value / base,
            Direction::Higher => base / value,
        }
    }

    /// Prefix of the key the worst pass is emitted under.
    fn worst_keyword(self) -> &'static str {
        match self {
            Direction::Lower => "max",
            Direction::Higher => "min",
        }
    }
}

struct Entry {
    name: &'static str,
    /// Measured value in `unit`s: the best pass.
    value: f64,
    /// Median and worst of the passes.
    median: f64,
    worst: f64,
    /// JSON key the value is emitted under (`millis`, `designs_per_sec`).
    unit: &'static str,
    direction: Direction,
    iters: u32,
    workers: usize,
}

impl Entry {
    /// Summarizes `samples`, one per pass (see the module docs).
    fn from_samples(
        name: &'static str,
        mut samples: Vec<f64>,
        unit: &'static str,
        direction: Direction,
        workers: usize,
    ) -> Entry {
        samples.sort_by(f64::total_cmp);
        if direction == Direction::Higher {
            samples.reverse();
        }
        let n = samples.len();
        let median = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2.0
        };
        Entry {
            name,
            value: samples[0],
            median,
            worst: samples[n - 1],
            unit,
            direction,
            iters: n as u32,
            workers,
        }
    }
}

/// Times `f` after one warm-up pass (lazily synthesized cubes and
/// allocator warm-up stay out of the measurement): `best_of` passes when
/// `--iters` gave one, else the entry's own `iters`.
fn timed<F: FnMut()>(
    name: &'static str,
    iters: u32,
    workers: usize,
    best_of: Option<u32>,
    mut f: F,
) -> Entry {
    f();
    let samples = (0..best_of.unwrap_or(iters))
        .map(|_| {
            // Measurement harness: timing the workload is the whole point here.
            #[allow(clippy::disallowed_methods)]
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let e = Entry::from_samples(name, samples, "millis", Direction::Lower, workers);
    eprintln!("  {name}: {:.1} ms", e.value);
    e
}

/// Times fleet batch runs and reports their throughput (a
/// higher-is-better entry): one warm-up run, then `best_of` measured runs
/// (one without `--iters`); each summary's own elapsed clock is the
/// measurement.
fn fleet_entry(
    name: &'static str,
    manifest_text: &str,
    workers: usize,
    best_of: Option<u32>,
) -> Entry {
    let manifest = fleet::Manifest::parse(manifest_text).expect("fleet manifest");
    let opts = fleet::FleetOptions {
        workers,
        skip_stream_verification: true,
        ..Default::default()
    };
    let _ = fleet::run_fleet(&manifest, &opts);
    let mut split = (0, 0);
    let samples = (0..best_of.unwrap_or(1))
        .map(|_| {
            let report = fleet::run_fleet(&manifest, &opts);
            assert_eq!(report.summary.failed, 0, "fleet bench manifest must plan");
            split = (report.summary.outer_workers, report.summary.inner_workers);
            report.summary.designs_per_sec
        })
        .collect();
    let e = Entry::from_samples(name, samples, "designs_per_sec", Direction::Higher, workers);
    eprintln!(
        "  {name}: {:.2} designs/sec ({} outer x {} inner)",
        e.value, split.0, split.1
    );
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

/// One committed measurement recovered from `BENCH_profile.json`.
struct BaselineEntry {
    name: String,
    value: f64,
    direction: Direction,
}

/// Pulls the quoted string value of `key` out of a JSON-ish line.
fn extract_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(key)?;
    line[at + key.len()..].split('"').nth(1).map(str::to_string)
}

/// Pulls the numeric value of `key` out of a JSON-ish line.
fn extract_num(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)?;
    let rest = line[at + key.len()..]
        .trim_start_matches([':', ' '])
        .trim_start();
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Extracts named measurements with their comparison direction from a
/// `BENCH_profile.json` in file order. Line-oriented on purpose: it
/// accepts both the committed multi-run layout (fields on separate lines)
/// and this binary's one-line entry output, without a JSON parser
/// dependency. The direction comes from an explicit `"direction"` key
/// when present, else from the value key itself (`"millis"` entries
/// predate the key and are all lower-is-better).
fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    let mut entries = Vec::new();
    let mut name: Option<String> = None;
    let mut value: Option<(f64, Direction)> = None;
    let mut explicit: Option<Direction> = None;
    let mut flush = |name: &mut Option<String>,
                     value: &mut Option<(f64, Direction)>,
                     explicit: &mut Option<Direction>| {
        if let (Some(name), Some((value, implied))) = (name.take(), value.take()) {
            entries.push(BaselineEntry {
                name,
                value,
                direction: explicit.take().unwrap_or(implied),
            });
        }
        *explicit = None;
    };
    for line in text.lines() {
        if let Some(n) = extract_str(line, "\"name\"") {
            flush(&mut name, &mut value, &mut explicit);
            name = Some(n);
        }
        if let Some(v) = extract_num(line, "\"millis\"") {
            value = Some((v, Direction::Lower));
        }
        if let Some(v) = extract_num(line, "\"designs_per_sec\"") {
            value = Some((v, Direction::Higher));
        }
        match extract_str(line, "\"direction\"").as_deref() {
            Some("lower") => explicit = Some(Direction::Lower),
            Some("higher") => explicit = Some(Direction::Higher),
            _ => {}
        }
    }
    flush(&mut name, &mut value, &mut explicit);
    entries
}

/// The perf-regression gate behind `--check`: compares this run's
/// `tables_*`/`plan_*`/`fleet_*`/`soclint_*`/`dsan_*`/`verify_*` entries
/// (`GATED_PREFIXES`) against the *latest* committed run that records
/// the same entry name, each in its own direction.
/// Returns the failure messages (empty = gate passes).
fn check_regressions(entries: &[Entry], baseline_text: &str) -> Vec<String> {
    let baseline = parse_baseline(baseline_text);
    let mut failures = Vec::new();
    for e in entries {
        if !GATED_PREFIXES.iter().any(|p| e.name.starts_with(p)) {
            continue;
        }
        let Some(base) = baseline.iter().rev().find(|b| b.name == e.name) else {
            eprintln!("  check: {} has no committed baseline, skipping", e.name);
            continue;
        };
        if base.direction != e.direction {
            eprintln!(
                "  check: {} baseline recorded direction {:?}, this build says {:?}; using this build's",
                e.name, base.direction, e.direction
            );
        }
        let ratio = e.direction.regression_ratio(e.value, base.value);
        if ratio > CHECK_TOLERANCE {
            failures.push(format!(
                "{}: {:.2} {} vs baseline {:.2} ({:.0}% worse, {} is better)",
                e.name,
                e.value,
                e.unit,
                base.value,
                (ratio - 1.0) * 100.0,
                e.direction.keyword()
            ));
        } else {
            eprintln!(
                "  check: {} {:.2} {} vs baseline {:.2} ok",
                e.name, e.value, e.unit, base.value
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
    let mut best_of: Option<u32> = None;
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
            "--iters" => {
                let n: u32 = args
                    .next()
                    .expect("--iters needs a value")
                    .parse()
                    .expect("--iters needs a number");
                assert!(n >= 1, "--iters needs at least 1");
                best_of = Some(n);
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
        entries.push(timed(name, if smoke { 1 } else { 3 }, 1, best_of, || {
            let total: u64 = ts.iter().map(|c| cube_cost(code, &design, c)).sum();
            assert!(total > 0);
        }));
    }

    // Profile build of one industrial core at production fidelity.
    entries.push(timed("profile_ckt7_w16", 1, 1, best_of, || {
        let p = CoreProfile::build(core7, &ProfileConfig::industrial(16));
        assert!(!p.entries().is_empty());
    }));

    // Decision tables over a whole SOC (the planner's table phase).
    let d695 = Design::D695.build_with_cubes(SEED);
    entries.push(timed("tables_d695_w32", 1, 1, best_of, || {
        build_tables(&d695, 32, &fast());
    }));

    // Batched stream verification at smoke scale: the whole d695 test set
    // replayed through the column encoder and decoder.
    entries.push(timed("verify_d695_packed", 1, 1, best_of, || {
        assert!(verify_soc_packed(&d695) > 0);
    }));

    // The streams a real plan verifies: the compressed operating points of
    // the per-core W=24 plan of p34392 (6-7-chain slices at w = 5), the
    // work of the replan loop's verification stage.
    let p34392 = Design::P34392.build_with_cubes(SEED);
    let points = compressed_points(&p34392, 24);
    entries.push(timed("verify_p34392_w24_plan", 1, 1, best_of, || {
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
    let lint_iters = if smoke { 1 } else { 3 };
    entries.push(timed(
        "soclint_workspace_w1",
        lint_iters,
        1,
        best_of,
        || {
            let diags = soclint::lint_workspace_with(&lint_root, 1).expect("workspace scan");
            assert!(diags.is_empty(), "workspace must lint clean: {diags:?}");
        },
    ));
    let lint_workers = workers.max(2);
    entries.push(timed(
        "soclint_workspace_par",
        lint_iters,
        lint_workers,
        best_of,
        || {
            let diags =
                soclint::lint_workspace_with(&lint_root, lint_workers).expect("workspace scan");
            assert!(diags.is_empty(), "workspace must lint clean: {diags:?}");
        },
    ));

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
    entries.push(timed(
        "soclint_workspace_cold",
        lint_iters,
        1,
        best_of,
        || {
            let _ = std::fs::remove_dir_all(&lint_cache);
            let report =
                soclint::lint_workspace_report(&lint_root, &lint_opts).expect("workspace scan");
            assert!(report.diags.is_empty(), "workspace must lint clean");
            assert_eq!(report.cache_hits, 0, "cold runs start empty");
        },
    ));
    // The cold closure's final run left the cache fully populated.
    entries.push(timed(
        "soclint_workspace_warm",
        lint_iters,
        1,
        best_of,
        || {
            let report =
                soclint::lint_workspace_report(&lint_root, &lint_opts).expect("workspace scan");
            assert!(report.diags.is_empty(), "workspace must lint clean");
            assert_eq!(report.reanalyzed, 0, "warm runs are all hits");
        },
    ));
    let _ = std::fs::remove_dir_all(&lint_cache);

    // Architecture search: the pruned hill-climb portfolio and the
    // multi-chain anneal over the d695 cost model.
    let cost_d695 = cost_model(&d695, 32);
    entries.push(timed("arch_d695_w32", 3, workers, best_of, || {
        let opts = ArchitectureOptions {
            workers: Some(workers),
            ..Default::default()
        };
        let a = optimize_architecture(&cost_d695, 32, &opts).unwrap();
        assert!(a.test_time > 0);
    }));
    entries.push(timed("anneal_d695_w32", 3, workers, best_of, || {
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
        entries.push(timed("tables_p93791_w24", 1, 1, best_of, || {
            build_tables(&p93791, 24, &fast());
        }));
        entries.push(timed("tables_p93791_w32_default", 1, 1, best_of, || {
            build_tables(&p93791, 32, &DecisionConfig::default());
        }));

        // Full-stream verification of every p93791 core, scalar oracle vs
        // column encoder and decoder — the column path's reason to exist is
        // this ratio.
        entries.push(timed("verify_p93791_scalar", 1, 1, best_of, || {
            assert!(verify_soc_scalar(&p93791) > 0);
        }));
        entries.push(timed("verify_p93791_packed", 1, 1, best_of, || {
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
        entries.push(timed("tables_p93791_w32_incr_cold", 1, 1, best_of, || {
            let _ = std::fs::remove_dir_all(&cache_root);
            let plan = planner.plan_with(&p93791, &req, &control).unwrap();
            assert!(plan.test_time > 0);
        }));
        // The cold closure's final run left the cache fully populated.
        entries.push(timed("tables_p93791_w32_incr_warm", 1, 1, best_of, || {
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
        entries.push(timed("anneal_p93791_w32", 3, workers, best_of, || {
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
        entries.push(timed("plan_system1_w32", 1, workers, best_of, || {
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
    entries.push(timed(
        "dsan_overhead_disabled",
        if smoke { 1 } else { 3 },
        2,
        best_of,
        || {
            let pool = parpool::Pool::with_workers(2).labeled("bench-dsan");
            let mut total = 0u64;
            for round in 0..64u64 {
                let tasks: Vec<_> = (0..8u64).map(|i| move || (round + 1) * (i + 1)).collect();
                total += pool.run(tasks).into_iter().sum::<u64>();
            }
            assert!(total > 0);
        },
    ));

    // Fleet batch throughput (higher-is-better entries): the same width ×
    // seed sweep at a 1-worker and a 4-worker budget, so the committed
    // baseline records how batching scales on the measurement host.
    if smoke {
        entries.push(fleet_entry(
            "fleet_smoke_w2",
            "design d695 widths=10,12 sample=4 mcand=4\n",
            2,
            best_of,
        ));
    } else {
        const FLEET_SWEEP: &str = "design d695 widths=8..19 seeds=2008,2009 sample=8 mcand=8\n";
        entries.push(fleet_entry("fleet_sweep_w1", FLEET_SWEEP, 1, best_of));
        entries.push(fleet_entry("fleet_sweep_w4", FLEET_SWEEP, 4, best_of));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"suite\": \"profile-fastpath\",");
    let _ = writeln!(json, "  \"label\": \"{label}\",");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"available_parallelism\": {cpus},");
    let _ = writeln!(json, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"{unit}\": {:.2}, \"median_{unit}\": {:.2}, \"{}_{unit}\": {:.2}, \"direction\": \"{}\", \"iters\": {}, \"workers\": {} }}{comma}",
            e.name,
            e.value,
            e.median,
            e.direction.worst_keyword(),
            e.worst,
            e.direction.keyword(),
            e.iters,
            e.workers,
            unit = e.unit,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    match out {
        Some(path) => std::fs::write(&path, &json).expect("write report"),
        None => print!("{json}"),
    }

    if let Some(path) = check {
        let baseline = std::fs::read_to_string(&path).expect("read --check baseline");
        let failures = check_regressions(&entries, &baseline);
        if !failures.is_empty() {
            eprintln!("performance regression (>20% over committed baseline):");
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

    const BASELINE: &str = "\
        { \"name\": \"tables_x\", \"millis\": 100.0, \"iters\": 1, \"workers\": 1 },\n\
        { \"name\": \"fleet_y\", \"designs_per_sec\": 10.00, \"direction\": \"higher\", \"iters\": 1, \"workers\": 4 },\n\
        { \"name\": \"tables_x\", \"millis\": 50.0, \"iters\": 1, \"workers\": 1 }\n";

    fn entry(name: &'static str, value: f64, unit: &'static str, direction: Direction) -> Entry {
        Entry::from_samples(name, vec![value], unit, direction, 1)
    }

    #[test]
    fn baseline_parsing_reads_both_units_and_directions() {
        let parsed = parse_baseline(BASELINE);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "tables_x");
        assert_eq!(parsed[0].value, 100.0);
        assert_eq!(
            parsed[0].direction,
            Direction::Lower,
            "millis implies lower"
        );
        assert_eq!(parsed[1].name, "fleet_y");
        assert_eq!(parsed[1].value, 10.0);
        assert_eq!(parsed[1].direction, Direction::Higher);
        assert_eq!(parsed[2].value, 50.0, "later runs appear later");
    }

    #[test]
    fn spread_keys_do_not_shadow_the_gated_value() {
        let text = "\
            { \"name\": \"verify_v\", \"millis\": 4.00, \"median_millis\": 5.00, \"max_millis\": 9.00, \"direction\": \"lower\", \"iters\": 5, \"workers\": 1 },\n\
            { \"name\": \"fleet_f\", \"designs_per_sec\": 30.00, \"median_designs_per_sec\": 20.00, \"min_designs_per_sec\": 10.00, \"direction\": \"higher\", \"iters\": 5, \"workers\": 2 }\n";
        let parsed = parse_baseline(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            (parsed[0].value, parsed[0].direction),
            (4.0, Direction::Lower)
        );
        assert_eq!(
            (parsed[1].value, parsed[1].direction),
            (30.0, Direction::Higher)
        );
        // verify_* entries are gated.
        let slow = entry("verify_v", 5.0, "millis", Direction::Lower);
        assert_eq!(check_regressions(&[slow], text).len(), 1);
    }

    #[test]
    fn samples_summarize_best_median_and_worst_in_each_direction() {
        let times = vec![3.0, 1.0, 4.0, 10.0, 2.0];
        let e = Entry::from_samples("t", times, "millis", Direction::Lower, 1);
        assert_eq!((e.value, e.median, e.worst, e.iters), (1.0, 3.0, 10.0, 5));
        let rates = vec![10.0, 40.0, 20.0, 30.0];
        let e = Entry::from_samples("f", rates, "designs_per_sec", Direction::Higher, 2);
        assert_eq!((e.value, e.median, e.worst), (40.0, 25.0, 10.0));
    }

    #[test]
    fn multiline_baseline_layout_parses_too() {
        let text = "{\n  \"name\": \"plan_z\",\n  \"millis\": 7.5,\n  \"iters\": 1\n}";
        let parsed = parse_baseline(text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "plan_z");
        assert_eq!(parsed[0].value, 7.5);
        assert_eq!(parsed[0].direction, Direction::Lower);
    }

    #[test]
    fn check_compares_against_latest_run_in_each_direction() {
        // Time entry: compared against the *latest* 50 ms, not the stale 100.
        let ok = entry("tables_x", 55.0, "millis", Direction::Lower);
        assert!(check_regressions(&[ok], BASELINE).is_empty());
        let slow = entry("tables_x", 70.0, "millis", Direction::Lower);
        assert_eq!(check_regressions(&[slow], BASELINE).len(), 1);

        // Throughput entry: *fewer* designs/sec is the regression.
        let ok = entry("fleet_y", 9.0, "designs_per_sec", Direction::Higher);
        assert!(check_regressions(&[ok], BASELINE).is_empty());
        let faster = entry("fleet_y", 20.0, "designs_per_sec", Direction::Higher);
        assert!(check_regressions(&[faster], BASELINE).is_empty());
        let slow = entry("fleet_y", 5.0, "designs_per_sec", Direction::Higher);
        let failures = check_regressions(&[slow], BASELINE);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("higher is better"), "{failures:?}");

        // The lint and sanitizer-overhead entries are gated too.
        let lint_and_dsan = "\
            { \"name\": \"soclint_z\", \"millis\": 10.0, \"iters\": 1, \"workers\": 1 },\n\
            { \"name\": \"dsan_w\", \"millis\": 1.0, \"iters\": 1, \"workers\": 2 }\n";
        let ok = [
            entry("soclint_z", 11.0, "millis", Direction::Lower),
            entry("dsan_w", 1.1, "millis", Direction::Lower),
        ];
        assert!(check_regressions(&ok, lint_and_dsan).is_empty());
        let slow = [
            entry("soclint_z", 13.0, "millis", Direction::Lower),
            entry("dsan_w", 1.3, "millis", Direction::Lower),
        ];
        let failures = check_regressions(&slow, lint_and_dsan);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("soclint_z") && failures[1].starts_with("dsan_w"));

        // Ungated and baseline-less entries never fail the gate.
        let ungated = entry("cube_cost_q", 9e9, "millis", Direction::Lower);
        let unknown = entry("fleet_new", 0.01, "designs_per_sec", Direction::Higher);
        assert!(check_regressions(&[ungated, unknown], BASELINE).is_empty());
    }
}
