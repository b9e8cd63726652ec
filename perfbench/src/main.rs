//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <plan_cold|replan_edit|serve_session|fleet_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The timed run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) prints the per-layer metrics and writes a Chrome
//! trace to `.bench_run/`. Either way the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for what each metric means.

// Timing is this program's job: the workspace's ban on wall-clock reads
// (clippy.toml, soclint `wall-clock`) guards the planning crates, not it.
#![allow(clippy::disallowed_methods)]

mod check;
mod daemon;
mod host;
mod metrics;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use metrics::{median, Metric};
use trace::Tracer;
use workloads::{Ctx, Workload};

/// Identical set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 5;
/// Sample guard: a timed run with fewer ops fails, since the fastest of
/// so few says little.
const MIN_OPS: usize = 15;
/// A traced run needs at least this many traced ops.
const MIN_TRACED_OPS: usize = 3;
/// `test_time_cycles` and `volume_bits` are the mean over this many first
/// ops, so they repeat exactly for a seed.
const PREFIX_OPS: usize = 8;
/// Most worker threads any pool may use: at most two runnable threads.
const MAX_WORKERS: usize = 2;
/// Where runs keep their state and traces, relative to the checkout root.
const RUN_DIR: &str = ".bench_run";
/// Variables that change what the planner does; the benchmark refuses
/// to run under them.
const REFUSED_ENV: [&str; 2] = ["SOCTDC_DSAN", "SOCTDC_FAULT"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        // Fold to 32 bits: serve carries the seed as a JSON integer.
        seed: seed
            .map(|s| (s ^ (s >> 32)) & 0xFFFF_FFFF)
            .ok_or("missing --seed")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("missing or zero --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Removes the run's state directory on every exit path.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = workloads::remove_tree(&self.0);
    }
}

/// The result of a run, before printing.
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() {
    let code = match run() {
        Ok(outcome) => {
            for f in &outcome.failures {
                eprintln!("perfbench: FAILED: {f}");
            }
            println!(
                "{}",
                metrics::result_json(&outcome.metrics, outcome.attempted, outcome.failed)
            );
            i32::from(outcome.failed > 0)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("{}", usage());
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; unset it to benchmark"));
        }
    }
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = available.min(MAX_WORKERS);
    let state = StateDir(Path::new(RUN_DIR).join(format!("state-{}", std::process::id())));
    workloads::remove_tree(&state.0)?;
    let ctx = |pass: usize| Ctx {
        seed: args.seed,
        workers,
        dir: state.0.join(format!("pass-{pass}")),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} available_parallelism {available}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let seconds = Duration::from_secs(args.seconds);
    if args.trace {
        traced(&args, &ctx(0), seconds)
    } else {
        timed(&args, ctx, seconds)
    }
}

/// The timed run: end-to-end metrics with tracing off.
fn timed(args: &Args, ctx: impl Fn(usize) -> Ctx, seconds: Duration) -> Result<Outcome, String> {
    let mut t = Tracer::disabled();
    let mut probe = host::Probe::new();
    let mut setup_s = Vec::new();
    let mut bench: Option<Box<dyn Workload>> = None;
    for pass in 0..SETUP_PASSES {
        let start = Instant::now();
        let w = workloads::setup(&args.workload, &ctx(pass), &mut t)?;
        setup_s.push(start.elapsed().as_secs_f64());
        probe.sample();
        if let Some(old) = bench.replace(w) {
            old.close()?;
        }
    }
    let mut bench = bench.ok_or("no set-up pass ran")?;
    println!("workers: {}", bench.workers());

    let mut latency = Vec::new();
    let (mut tau, mut volume) = (Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    let mut index = 1;
    while start.elapsed() < seconds {
        let op = bench.op(index, &mut t)?;
        latency.push(op.elapsed.as_secs_f64() * 1e3);
        probe.sample();
        if tau.len() < PREFIX_OPS {
            tau.push(op.test_time as f64);
            volume.push(op.volume as f64);
        }
        if !op.failures.is_empty() {
            failed += 1;
            failures.extend(op.failures.into_iter().map(|f| format!("op {index}: {f}")));
        }
        index += 1;
    }
    let timed_s = start.elapsed().as_secs_f64();
    if latency.len() < MIN_OPS {
        return Err(format!(
            "only {} ops in {} s; the run needs at least {MIN_OPS}",
            latency.len(),
            seconds.as_secs()
        ));
    }
    // Peak memory of set-up and the timed ops, before the checks below.
    let peak_rss = metrics::peak_rss_mb()?;
    let mut attempted = latency.len();
    let closing = bench.finish(&mut t)?;
    attempted += 1;
    if !closing.is_empty() {
        failed += 1;
        failures.extend(closing);
    }
    let mut golden = Vec::new();
    attempted += check::golden_pass(ctx(0).workers, &mut golden);
    if !golden.is_empty() {
        failed += golden.len();
        failures.extend(golden);
    }

    let fastest = latency.iter().copied().fold(f64::INFINITY, f64::min);
    // Times are reported at the host's uncontended speed (see host.rs).
    let speed = probe.speed();
    println!(
        "timed ops: {} in {:.1} s, fastest {fastest:.3} ms, median {:.3} ms as measured",
        latency.len(),
        timed_s,
        median(&latency)
    );
    println!(
        "set-up passes: {SETUP_PASSES}, seconds {:?} as measured",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
    );
    println!("host speed (reference kernel fastest / mean): {speed:.4}");
    let values = [
        median(&setup_s) * speed,
        fastest * speed,
        peak_rss,
        mean(&tau),
        mean(&volume),
    ];
    let metrics: Vec<Metric> = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    metrics::print_table(&metrics);
    Ok(Outcome {
        attempted,
        failures,
        failed,
        metrics,
    })
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The traced run: the first third of the time untraced (the baseline for
/// the tracing overhead and the latency diagnostics), the rest traced op
/// by op, each op followed by a replay of its stages.
fn traced(args: &Args, ctx: &Ctx, seconds: Duration) -> Result<Outcome, String> {
    let mut t = Tracer::enabled();
    let mut bench = t.span("setup", |t| workloads::setup(&args.workload, ctx, t))?;
    println!("workers: {}", bench.workers());

    let mut off = Tracer::disabled();
    let mut untraced = Vec::new();
    let mut failures = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    let mut index = 1;
    while start.elapsed() < seconds / 3 {
        let op = bench.op(index, &mut off)?;
        untraced.push(op.elapsed.as_secs_f64() * 1e3);
        if !op.failures.is_empty() {
            failed += 1;
            failures.extend(op.failures);
        }
        index += 1;
    }
    let untraced_s = start.elapsed().as_secs_f64();
    let mut traced_ops = Vec::new();
    let mut traced_ms = Vec::new();
    while start.elapsed() < seconds {
        t.set_op(index);
        let op = t.span("op", |t| -> Result<_, String> {
            let mut op = bench.op(index, t)?;
            if let Err(e) = bench.replay(t) {
                op.failures.push(format!("replay: {e}"));
            }
            Ok(op)
        })?;
        traced_ms.push(op.elapsed.as_secs_f64() * 1e3);
        traced_ops.push(index);
        if !op.failures.is_empty() {
            failed += 1;
            failures.extend(op.failures);
        }
        index += 1;
    }
    if traced_ops.len() < MIN_TRACED_OPS || untraced.is_empty() {
        return Err(format!(
            "only {} traced and {} untraced ops in {} s; the run needs {MIN_TRACED_OPS} traced",
            traced_ops.len(),
            untraced.len(),
            seconds.as_secs()
        ));
    }
    let attempted = untraced.len() + traced_ops.len() + 1;
    let closing = bench.finish(&mut t)?;
    if !closing.is_empty() {
        failed += 1;
        failures.extend(closing);
    }

    let path = Path::new(RUN_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, t.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("chrome trace: {}", path.display());

    let layers = metrics::per_layer(&t, &args.workload, &traced_ops, ctx.workers);
    let mut sorted = untraced.clone();
    sorted.sort_by(f64::total_cmp);
    let fastest_untraced = sorted[0];
    let fastest_traced = traced_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let mut all = layers.metrics;
    all.extend([
        Metric::new("trace.fastest_traced_ms", fastest_traced, "ms"),
        Metric::new("trace.fastest_untraced_ms", fastest_untraced, "ms"),
        Metric::new(
            "trace.overhead_pct",
            (fastest_traced / fastest_untraced - 1.0) * 100.0,
            "%",
        ),
        Metric::new("trace.ops", traced_ops.len() as f64, "count"),
        Metric::new("diag.ops", untraced.len() as f64, "count"),
        Metric::new("diag.p50_ms", metrics::nearest_rank(&sorted, 50), "ms"),
        Metric::new("diag.p90_ms", metrics::nearest_rank(&sorted, 90), "ms"),
        Metric::new("diag.ops_per_s", untraced.len() as f64 / untraced_s, "1/s"),
    ]);
    metrics::print_table(&all);
    println!("stage shares of the replayed op (sequential self time):");
    for (stage, share) in layers.shares {
        println!("  {stage:<16} {:>5.1}%", share * 100.0);
    }
    Ok(Outcome {
        attempted,
        failures,
        failed,
        metrics: all,
    })
}
