//! The two-level fleet driver: outer work-stealing over design instances,
//! inner per-design table parallelism, shared bounded caches.
//!
//! Determinism argument (DESIGN.md §16): the outer [`parpool::Pool`]
//! returns results in task order at any worker count; each instance's
//! plan depends only on its own `(SOC, request, control)` inputs (the
//! planner's worker-count independence contract); and every shared cache
//! is *semantically transparent* — a hit returns exactly what a rebuild
//! would produce, and eviction merely forces the rebuild — so the worker
//! split and cache interleaving can change throughput and counters, never
//! plans.
//!
//! With a profile cache the batch runs in two phases. Phase 1 plans the
//! *leaders* — for each profile key, the widest instance that reads the
//! cache (the first in manifest order on a tie), plus every instance that
//! does not read it. Phase 2 plans the *followers*, which then find their
//! key's full-width profiles on disk: a core's table at `W` is a prefix of
//! its table at any wider width, so each profile is built once.

use std::collections::BTreeMap;
use std::path::PathBuf;
// soclint: allow(wall-clock) -- fleet latency/throughput reporting only; no plan content derives from time
use std::time::Instant;

use parpool::{split_budget, Pool};
use robust::CacheStats;
use tdcsoc::{Engine, Job, Plan, PlanControl, PlanOutcome, PlanStats, ProfileKey};

use crate::manifest::{Instance, Manifest};

/// Knobs for one fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Total worker budget across both scheduling levels; `0` is one per
    /// available CPU ([`Engine::workers`]). The deterministic
    /// [`parpool::split_budget`] policy divides it into
    /// `outer × inner ≤ budget`.
    pub workers: usize,
    /// Root of the shared sharded on-disk profile cache, if any. Safe for
    /// concurrent writers — every fleet worker (and other processes) may
    /// point at the same root.
    pub profile_cache: Option<PathBuf>,
    /// Directory of plan files from a previous run (`soctdc fleet
    /// --resume`). An instance whose `ID.plan` round-trips byte-identical
    /// through `parse_plan → write_plan` is taken as already done and
    /// skipped; anything else — missing file, parse error, stale format —
    /// is planned from scratch.
    pub resume_plan_dir: Option<PathBuf>,
}

/// Streaming observers for a fleet run. Separate from [`FleetOptions`] so
/// the options stay plain data (`Debug + Clone`).
#[derive(Default)]
pub struct FleetHooks<'a> {
    /// Called once per instance **in completion order**, from the worker
    /// thread that finished it — this is how `--ndjson` streams progress
    /// while the batch is still running. The final report is still in
    /// manifest order.
    pub on_report: Option<&'a (dyn Fn(&InstanceReport) + Sync)>,
}

/// How one instance concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceOutcome {
    /// The planner returned a plan (with its search outcome).
    Planned(PlanOutcome),
    /// A previous run's plan file round-tripped byte-identical, so the
    /// instance was skipped (`--resume`). The parsed plan is carried in
    /// the report like a freshly planned one.
    Resumed,
    /// The instance failed — unreadable source file, planning error. The
    /// rest of the fleet is unaffected.
    Failed(String),
}

impl InstanceOutcome {
    /// Stable keyword for per-outcome tallies (`optimal`, `degraded …`,
    /// `resumed`, `failed`).
    pub fn keyword(&self) -> String {
        match self {
            InstanceOutcome::Planned(o) => o.to_string(),
            InstanceOutcome::Resumed => "resumed".to_string(),
            InstanceOutcome::Failed(_) => "failed".to_string(),
        }
    }
}

/// One instance's result, in manifest order.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// The instance's manifest id.
    pub id: String,
    /// How it concluded.
    pub outcome: InstanceOutcome,
    /// Wall-clock planning latency in milliseconds (reporting only; varies
    /// run to run, unlike the plan itself).
    pub latency_ms: f64,
    /// The planner's work accounting (zeroed for failed instances).
    pub stats: PlanStats,
    /// The finished plan (`None` for failed instances).
    pub plan: Option<Plan>,
}

/// Whole-run totals, computed deterministically from the ordered reports.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Instances in the manifest.
    pub instances: usize,
    /// Instances that produced a plan (freshly planned or resumed).
    pub planned: usize,
    /// Instances that failed.
    pub failed: usize,
    /// Instances skipped because a previous run's plan file round-tripped
    /// byte-identical (`--resume`). A subset of `planned`.
    pub resumed: usize,
    /// Tally of [`InstanceOutcome::keyword`] values.
    pub outcomes: BTreeMap<String, usize>,
    /// Total wall-clock seconds for the batch.
    pub elapsed_s: f64,
    /// Freshly planned designs per second. Resumed instances are
    /// excluded: they skipped planning entirely, so counting them would
    /// inflate throughput.
    pub designs_per_sec: f64,
    /// Median per-design plan latency (nearest rank over sorted
    /// latencies — deterministic given the latency multiset). Resumed
    /// instances contribute no latency sample; planned and failed do.
    pub p50_ms: f64,
    /// 99th-percentile per-design plan latency (nearest rank, same
    /// sample set as `p50_ms`).
    pub p99_ms: f64,
    /// Rolled-up [`PlanStats`] across every instance: profile-cache
    /// hits/misses/evictions, memo-cache counters, verification totals.
    pub stats: PlanStats,
    /// Counters of the shared design-instance cache (hits mean a SOC
    /// build + test-set synthesis was skipped).
    pub soc_cache: CacheStats,
    /// Outer (design-granularity) worker count of the phase that planned
    /// the most instances (the followers' on a tie).
    pub outer_workers: usize,
    /// Inner (per-design table) worker count that phase handed each plan.
    pub inner_workers: usize,
    /// How each phase split the budget: the leaders', then the
    /// followers' when there are any.
    pub phases: Vec<PhaseSplit>,
    /// The resolved total budget (`outer × inner ≤ budget`).
    pub budget: usize,
}

/// How one planning phase divided the worker budget
/// ([`parpool::split_budget`] over the phase's instance count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseSplit {
    /// Instances the phase planned.
    pub instances: usize,
    /// Outer (design-granularity) workers.
    pub outer: usize,
    /// Inner (per-design table) workers handed to each plan.
    pub inner: usize,
}

impl std::fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} instances, {} planned, {} failed, {} resumed in {:.2}s ({:.2} designs/sec)",
            self.instances,
            self.planned,
            self.failed,
            self.resumed,
            self.elapsed_s,
            self.designs_per_sec
        )?;
        match self.phases.as_slice() {
            [lead, follow] => writeln!(
                f,
                "workers: budget {} = {} outer x {} inner for {} leaders, \
                 {} outer x {} inner for {} followers",
                self.budget,
                lead.outer,
                lead.inner,
                lead.instances,
                follow.outer,
                follow.inner,
                follow.instances
            )?,
            _ => writeln!(
                f,
                "workers: budget {} = {} outer x {} inner",
                self.budget, self.outer_workers, self.inner_workers
            )?,
        }
        writeln!(
            f,
            "latency: p50 {:.1} ms, p99 {:.1} ms",
            self.p50_ms, self.p99_ms
        )?;
        let outcomes: Vec<String> = self
            .outcomes
            .iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect();
        writeln!(f, "outcomes: {}", outcomes.join(", "))?;
        writeln!(f, "{}", self.stats.profile_cache_line())?;
        writeln!(
            f,
            "memo caches: {} hits, {} misses",
            self.stats.memo.hits, self.stats.memo.misses
        )?;
        write!(
            f,
            "soc cache: {} hits, {} misses, {} evictions",
            self.soc_cache.hits, self.soc_cache.misses, self.soc_cache.evictions
        )
    }
}

/// A finished fleet run: per-instance reports in manifest order plus the
/// aggregate summary.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One report per manifest instance, in manifest order at any worker
    /// count.
    pub instances: Vec<InstanceReport>,
    /// Aggregate totals.
    pub summary: FleetSummary,
}

/// Plans every instance of `manifest` under `opts`, two-level scheduled.
///
/// The report's instances are in manifest order and each plan is
/// bit-identical to a standalone single-design run of the same instance,
/// at any worker budget — see the module docs for the argument.
pub fn run_fleet(manifest: &Manifest, opts: &FleetOptions) -> FleetReport {
    run_fleet_with(manifest, opts, &FleetHooks::default())
}

/// [`run_fleet`] with streaming observers attached.
pub fn run_fleet_with(manifest: &Manifest, opts: &FleetOptions, hooks: &FleetHooks) -> FleetReport {
    // soclint: allow(wall-clock) -- batch throughput reporting only
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let budget = Engine::workers(opts.workers);
    let engine = Engine::new(opts.profile_cache.clone());
    let (leaders, followers) = leaders_and_followers(manifest, opts.profile_cache.is_some());
    let mut slots: Vec<Option<InstanceReport>> = vec![None; manifest.len()];
    let mut phases = Vec::with_capacity(2);
    for phase in [leaders, followers] {
        // An empty followers' phase is skipped; the leaders' always runs,
        // so an empty manifest still reports a split.
        if phase.is_empty() && !phases.is_empty() {
            continue;
        }
        let (outer, inner) = split_budget(budget, phase.len());
        let tasks: Vec<_> = phase
            .iter()
            .filter_map(|&i| manifest.instances.get(i))
            .map(|inst| {
                let engine = &engine;
                move || {
                    let report = plan_instance(inst, inner, opts, engine);
                    if let Some(on_report) = hooks.on_report {
                        on_report(&report);
                    }
                    report
                }
            })
            .collect();
        let reports = Pool::with_workers(outer).labeled("fleet").run(tasks);
        for (&i, report) in phase.iter().zip(reports) {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(report);
            }
        }
        phases.push(PhaseSplit {
            instances: phase.len(),
            outer,
            inner,
        });
    }
    let instances: Vec<InstanceReport> = slots.into_iter().flatten().collect();

    let elapsed_s = t0.elapsed().as_secs_f64();
    let soc_cache = engine.soc_stats();
    let summary = summarize(&instances, elapsed_s, soc_cache, phases, budget);
    FleetReport { instances, summary }
}

/// Splits the manifest's indices into leaders and followers, each in
/// manifest order. Without a profile cache every instance leads.
/// Otherwise an instance whose planner reads the cache follows when
/// another instance of its profile key plans a wider TAM, or the same
/// width earlier in the manifest; the rest lead.
fn leaders_and_followers(manifest: &Manifest, cached: bool) -> (Vec<usize>, Vec<usize>) {
    if !cached {
        return ((0..manifest.len()).collect(), Vec::new());
    }
    // Each key's leader as (width, index): the widest, first on a tie.
    let mut widest: BTreeMap<ProfileKey<'_>, (u32, usize)> = BTreeMap::new();
    let jobs: Vec<Job> = manifest.instances.iter().map(Instance::job).collect();
    let keys: Vec<Option<ProfileKey<'_>>> = jobs.iter().map(Job::profile_key).collect();
    for (i, (inst, k)) in manifest.instances.iter().zip(&keys).enumerate() {
        if let Some(k) = k {
            let lead = widest.entry(*k).or_insert((inst.width, i));
            if inst.width > lead.0 {
                *lead = (inst.width, i);
            }
        }
    }
    (0..manifest.len()).partition(|&i| match keys.get(i).copied().flatten() {
        Some(k) => widest.get(&k).is_some_and(|&(_, lead)| lead == i),
        None => true,
    })
}

/// Builds the aggregate summary from the ordered per-instance reports.
fn summarize(
    instances: &[InstanceReport],
    elapsed_s: f64,
    soc_cache: CacheStats,
    phases: Vec<PhaseSplit>,
    budget: usize,
) -> FleetSummary {
    let largest = phases
        .iter()
        .max_by_key(|p| p.instances)
        .copied()
        .unwrap_or_default();
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut stats = PlanStats::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(instances.len());
    let mut planned = 0usize;
    let mut resumed = 0usize;
    for report in instances {
        *outcomes.entry(report.outcome.keyword()).or_default() += 1;
        stats.absorb(&report.stats);
        match report.outcome {
            InstanceOutcome::Planned(_) => {
                planned += 1;
                latencies.push(report.latency_ms);
            }
            InstanceOutcome::Resumed => {
                // A resumed instance only read a plan file back; counting
                // its (near-zero) latency would sink p50/p99, and counting
                // it as planning throughput would inflate designs/s.
                planned += 1;
                resumed += 1;
            }
            InstanceOutcome::Failed(_) => latencies.push(report.latency_ms),
        }
    }
    latencies.sort_by(f64::total_cmp);
    let designs_per_sec = if elapsed_s > 0.0 {
        to_f64(planned - resumed) / elapsed_s
    } else {
        0.0
    };
    FleetSummary {
        instances: instances.len(),
        planned,
        failed: instances.len() - planned,
        resumed,
        outcomes,
        elapsed_s,
        designs_per_sec,
        p50_ms: nearest_rank(&latencies, 50),
        p99_ms: nearest_rank(&latencies, 99),
        stats,
        soc_cache,
        outer_workers: largest.outer,
        inner_workers: largest.inner,
        phases,
        budget,
    }
}

/// Lossless `usize → f64` for the counts this crate handles (bounded by
/// [`Manifest::MAX_INSTANCES`], far under `2^32`), without an `as` cast.
fn to_f64(n: usize) -> f64 {
    f64::from(u32::try_from(n).unwrap_or(u32::MAX))
}

/// Nearest-rank percentile over latencies already sorted with
/// [`f64::total_cmp`]: index `round(p/100 × (n-1))`, in pure integer
/// arithmetic so the pick is exact.
fn nearest_rank(sorted: &[f64], percent: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (percent * (sorted.len() - 1) + 50) / 100;
    sorted.get(idx).copied().unwrap_or(0.0)
}

/// Plans one instance with `inner` table workers on the batch's engine.
/// Failures are confined to this instance's report.
fn plan_instance(
    inst: &Instance,
    inner: usize,
    opts: &FleetOptions,
    engine: &Engine,
) -> InstanceReport {
    // soclint: allow(wall-clock) -- per-design latency reporting only
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let dir = opts.resume_plan_dir.as_deref();
    let (outcome, stats, plan) = match dir.and_then(|dir| try_resume(dir, &inst.id)) {
        Some(plan) => (InstanceOutcome::Resumed, PlanStats::default(), Some(plan)),
        None => {
            let mut job = inst.job();
            job.request.architecture.workers = Some(inner);
            match engine.plan(&job, PlanControl::default()) {
                Ok((plan, stats)) => (InstanceOutcome::Planned(plan.outcome), stats, Some(plan)),
                Err(e) => (
                    InstanceOutcome::Failed(e.to_string()),
                    PlanStats::default(),
                    None,
                ),
            }
        }
    };
    InstanceReport {
        id: inst.id.clone(),
        outcome,
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        stats,
        plan,
    }
}

/// The `--resume` probe: accept a previous run's `ID.plan` only if it
/// round-trips **byte-identical** through `parse_plan → write_plan`.
/// That single check subsumes "parses", "current format version", and
/// "not truncated mid-write" — any drift re-plans the instance.
fn try_resume(dir: &std::path::Path, id: &str) -> Option<Plan> {
    let text = std::fs::read_to_string(dir.join(format!("{id}.plan"))).ok()?;
    let plan = tdcsoc::parse_plan(&text).ok()?;
    (tdcsoc::write_plan(&plan) == text).then_some(plan)
}

/// Renders one instance report as a single NDJSON line (`--ndjson`):
/// stable key order, no trailing newline. Latency is wall-clock telemetry
/// and varies run to run; everything else is deterministic.
pub fn ndjson_line(r: &InstanceReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"id\":{},\"outcome\":{},\"latency_ms\":{:.3}",
        json_escape(&r.id),
        json_escape(&r.outcome.keyword()),
        r.latency_ms
    ));
    if let Some(plan) = &r.plan {
        out.push_str(&format!(
            ",\"test_time\":{},\"volume_bits\":{}",
            plan.test_time, plan.volume_bits
        ));
    }
    if let InstanceOutcome::Failed(message) = &r.outcome {
        out.push_str(&format!(",\"error\":{}", json_escape(message)));
    }
    out.push('}');
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
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
    use std::sync::Mutex;

    #[test]
    fn nearest_rank_picks_deterministically() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&sorted, 50), 3.0);
        assert_eq!(nearest_rank(&sorted, 99), 5.0);
        assert_eq!(nearest_rank(&sorted, 0), 1.0);
        assert_eq!(nearest_rank(&[], 50), 0.0);
        assert_eq!(nearest_rank(&[7.5], 99), 7.5);
    }

    #[test]
    fn failed_sources_do_not_sink_the_fleet() {
        let manifest = Manifest::parse(
            "soc /nonexistent/fleet-test.soc widths=8\n\
             design d695 widths=10 sample=4 mcand=4\n",
        )
        .unwrap();
        let report = run_fleet(&manifest, &FleetOptions::default());
        assert_eq!(report.summary.instances, 2);
        assert_eq!(report.summary.planned, 1);
        assert_eq!(report.summary.failed, 1);
        assert!(matches!(
            report.instances[0].outcome,
            InstanceOutcome::Failed(ref m) if m.contains("cannot read")
        ));
        assert!(report.instances[1].plan.is_some());
        assert_eq!(report.summary.outcomes.get("failed"), Some(&1));
        assert_eq!(report.summary.outcomes.get("optimal"), Some(&1));
    }

    #[test]
    fn width_sweeps_share_the_cached_soc() {
        let manifest = Manifest::parse("design d695 widths=8,10,12 sample=4 mcand=4\n").unwrap();
        for workers in [1, 2, 4] {
            let opts = FleetOptions {
                workers,
                ..FleetOptions::default()
            };
            let report = run_fleet(&manifest, &opts);
            assert_eq!(report.summary.planned, 3);
            // One build, two hits: all three widths reuse the same
            // instance, and concurrent misses wait for the one build.
            let soc_cache = report.summary.soc_cache;
            assert_eq!(
                (soc_cache.misses, soc_cache.hits),
                (1, 2),
                "workers {workers}"
            );
            // Summary display mentions the load-bearing numbers.
            let text = report.summary.to_string();
            assert!(text.contains("3 planned"), "{text}");
            assert!(text.contains("designs/sec"), "{text}");
        }
    }

    #[test]
    fn the_widest_instance_of_each_profile_key_leads() {
        let manifest = Manifest::parse(
            "design d695 widths=8,12,10 sample=4 mcand=4\n\
             design d695 widths=12 sample=4 mcand=4 mode=select\n\
             design d695 widths=16 sample=4 mcand=4 mode=no-tdc\n\
             design d695 widths=9 sample=8 mcand=4\n\
             design d695 widths=8 seeds=1 sample=4 mcand=4\n",
        )
        .unwrap();
        // w12 leads its key (the select w12 ties and follows); no-tdc
        // reads no cache; other fidelities and seeds are other keys.
        assert_eq!(
            leaders_and_followers(&manifest, true),
            (vec![1, 4, 5, 6], vec![0, 2, 3])
        );
        assert_eq!(
            leaders_and_followers(&manifest, false),
            ((0..7).collect(), Vec::new())
        );
    }

    #[test]
    fn a_density_the_builtin_ignores_shares_its_soc_and_profiles() {
        let dir = std::env::temp_dir().join(format!("fleet-density-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = Manifest::parse(
            "design d695 widths=12 sample=4 mcand=4\n\
             design d695 widths=16 sample=4 mcand=4 density=0.5\n",
        )
        .unwrap();
        for workers in [1, 2] {
            let cache = dir.join(format!("cache-{workers}"));
            let report = run_fleet(
                &manifest,
                &FleetOptions {
                    workers,
                    profile_cache: Some(cache.clone()),
                    ..FleetOptions::default()
                },
            );
            let s = &report.summary;
            assert_eq!(s.planned, 2, "workers {workers}");
            assert_eq!((s.soc_cache.hits, s.soc_cache.misses), (1, 1));
            assert_eq!((s.stats.profile_misses, s.stats.profile_hits), (10, 10));
            assert_eq!(tdcsoc::profile_cache_entries(&cache).len(), 10);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn followers_hit_the_profiles_their_leader_built() {
        let dir = std::env::temp_dir().join(format!("fleet-phases-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = Manifest::parse(
            "design d695 widths=8,12,10 sample=4 mcand=4\n\
             design d695 widths=10 sample=4 mcand=4 mode=select\n",
        )
        .unwrap();
        for workers in [1, 2, 4] {
            let cache = dir.join(format!("cache-{workers}"));
            let report = run_fleet(
                &manifest,
                &FleetOptions {
                    workers,
                    profile_cache: Some(cache),
                    ..FleetOptions::default()
                },
            );
            let s = &report.summary;
            assert_eq!(s.planned, 4, "workers {workers}");
            // d695's ten cores are built once, at width 12.
            assert_eq!(
                (
                    s.stats.profile_misses,
                    s.stats.profile_partial_hits,
                    s.stats.profile_hits
                ),
                (10, 0, 30),
                "workers {workers}"
            );
            assert_eq!(s.stats.widths_computed, 10 * 12, "workers {workers}");
            assert_eq!((s.soc_cache.misses, s.soc_cache.hits), (1, 3));
            let (outer, inner) = split_budget(workers, 3);
            assert_eq!(
                s.phases,
                [
                    PhaseSplit {
                        instances: 1,
                        outer: 1,
                        inner: workers
                    },
                    PhaseSplit {
                        instances: 3,
                        outer,
                        inner
                    }
                ]
            );
            assert_eq!((s.outer_workers, s.inner_workers), (outer, inner));
            let text = s.to_string();
            assert!(
                text.contains(&format!(
                    "workers: budget {workers} = 1 outer x {workers} inner for 1 leaders, \
                     {outer} outer x {inner} inner for 3 followers"
                )),
                "{text}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_round_trip_identical_plans_only() {
        let dir = std::env::temp_dir().join(format!("fleet-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest::parse("design d695 widths=8,10 sample=4 mcand=4\n").unwrap();
        let opts = FleetOptions {
            workers: 1,
            ..FleetOptions::default()
        };

        // Cold run: everything planned fresh; persist the plan files.
        let cold = run_fleet(&manifest, &opts);
        assert_eq!((cold.summary.planned, cold.summary.resumed), (2, 0));
        for r in &cold.instances {
            let text = tdcsoc::write_plan(r.plan.as_ref().unwrap());
            std::fs::write(dir.join(format!("{}.plan", r.id)), text).unwrap();
        }

        // Corrupt one file: it must be re-planned, the other resumed.
        let victim = dir.join(format!("{}.plan", cold.instances[0].id));
        let mut text = std::fs::read_to_string(&victim).unwrap();
        text.push_str("# trailing note breaks the byte-identical round-trip\n");
        std::fs::write(&victim, text).unwrap();

        let warm = run_fleet(
            &manifest,
            &FleetOptions {
                resume_plan_dir: Some(dir.clone()),
                ..opts
            },
        );
        assert_eq!((warm.summary.planned, warm.summary.resumed), (2, 1));
        assert!(matches!(
            warm.instances[0].outcome,
            InstanceOutcome::Planned(_)
        ));
        assert_eq!(warm.instances[1].outcome, InstanceOutcome::Resumed);
        // The resumed plan is the cold run's plan, bit for bit.
        assert_eq!(
            tdcsoc::write_plan(warm.instances[1].plan.as_ref().unwrap()),
            tdcsoc::write_plan(cold.instances[1].plan.as_ref().unwrap())
        );
        let text = warm.summary.to_string();
        assert!(text.contains("2 planned, 0 failed, 1 resumed"), "{text}");
        assert_eq!(warm.summary.outcomes.get("resumed"), Some(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hooks_stream_reports_in_completion_order() {
        let manifest = Manifest::parse("design d695 widths=8,10 sample=4 mcand=4\n").unwrap();
        let seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let on_report = |r: &InstanceReport| {
            if let Ok(mut v) = seen.lock() {
                v.push(ndjson_line(r));
            }
        };
        let report = run_fleet_with(
            &manifest,
            &FleetOptions {
                workers: 1,
                ..FleetOptions::default()
            },
            &FleetHooks {
                on_report: Some(&on_report),
            },
        );
        let lines = seen.into_inner().unwrap();
        assert_eq!(lines.len(), report.instances.len());
        for (line, r) in lines.iter().zip(&report.instances) {
            // One worker: completion order is manifest order.
            assert!(line.contains(&format!("\"id\":\"{}\"", r.id)), "{line}");
            assert!(line.contains("\"outcome\":\"optimal\""), "{line}");
            assert!(line.contains("\"test_time\":"), "{line}");
            assert!(!line.contains('\n'), "one line per instance: {line}");
        }
    }

    #[test]
    fn ndjson_lines_escape_hostile_failure_text() {
        let r = InstanceReport {
            id: "bad \"id\"".into(),
            outcome: InstanceOutcome::Failed("line1\nline2 \\ \"x\"".into()),
            latency_ms: 1.5,
            stats: PlanStats::default(),
            plan: None,
        };
        let line = ndjson_line(&r);
        assert_eq!(
            line,
            "{\"id\":\"bad \\\"id\\\"\",\"outcome\":\"failed\",\"latency_ms\":1.500,\
             \"error\":\"line1\\nline2 \\\\ \\\"x\\\"\"}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn summary_is_a_pure_function_of_reports() {
        let reports = vec![
            InstanceReport {
                id: "a".into(),
                outcome: InstanceOutcome::Planned(PlanOutcome::Optimal),
                latency_ms: 10.0,
                stats: PlanStats::default(),
                plan: None,
            },
            InstanceReport {
                id: "b".into(),
                outcome: InstanceOutcome::Failed("x".into()),
                latency_ms: 30.0,
                stats: PlanStats::default(),
                plan: None,
            },
        ];
        let s = summarize(
            &reports,
            2.0,
            CacheStats::default(),
            vec![PhaseSplit {
                instances: 2,
                outer: 2,
                inner: 1,
            }],
            2,
        );
        assert_eq!(s.planned, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.designs_per_sec, 0.5);
        assert_eq!(s.p50_ms, 30.0, "nearest rank of [10, 30] at 50%");
        assert_eq!(s.p99_ms, 30.0);
    }

    #[test]
    fn resumed_instances_skew_neither_latency_nor_throughput() {
        // Two real plans (100 ms, 300 ms) plus two --resume skips whose
        // "latency" is just the file round-trip. The skips must not drag
        // the percentiles toward zero or double the reported throughput.
        let report = |outcome, latency_ms| InstanceReport {
            id: "x".into(),
            outcome,
            latency_ms,
            stats: PlanStats::default(),
            plan: None,
        };
        let reports = vec![
            report(InstanceOutcome::Planned(PlanOutcome::Optimal), 100.0),
            report(InstanceOutcome::Resumed, 0.01),
            report(InstanceOutcome::Resumed, 0.02),
            report(InstanceOutcome::Planned(PlanOutcome::Optimal), 300.0),
        ];
        let s = summarize(
            &reports,
            2.0,
            CacheStats::default(),
            vec![PhaseSplit {
                instances: 2,
                outer: 2,
                inner: 1,
            }],
            2,
        );
        assert_eq!((s.planned, s.resumed, s.failed), (4, 2, 0));
        assert_eq!(s.designs_per_sec, 1.0, "two fresh plans in 2 s");
        assert_eq!(s.p50_ms, 300.0, "nearest rank of [100, 300] at 50%");
        assert_eq!(s.p99_ms, 300.0, "resumed skips are not latency samples");
    }
}
