//! The four closed-loop workloads. Each has a set-up, an op that the
//! timed phase measures, a replay of the last op's stages for the traced
//! run, and closing checks.
//!
//! | workload        | op                                                      | layer it loads            |
//! |-----------------|---------------------------------------------------------|---------------------------|
//! | `plan_cold`     | per-core plan of p34392 at W=24, no profile cache        | decision tables           |
//! | `replan_edit`   | re-plan of p34392 at W=24 after one core's cubes change | verification, cache store |
//! | `serve_session` | `plan` → `plan-done` → `get-plan` on an in-process daemon | synthesis, session I/O    |
//! | `fleet_sweep`   | one `fleet` batch of a fixed d695 width × seed manifest  | outer parallelism, caches |
//!
//! No plan gets a wall-clock deadline (`Deadline::none()`, and
//! `budget_ms: 0` on the wire), so every op does the same deterministic
//! work on every run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fleet::{FleetHooks, FleetOptions, FleetReport, InstanceOutcome, Manifest, SocSource};
use serve::json::Value;
use serve::SessionStore;
use soc_model::benchmarks::Design;
use soc_model::{CubeSynthesis, Soc};
use tam::{optimize_architecture, ArchitectureOptions, CostModel};
use tdcsoc::{
    parse_plan, write_plan, CompressionMode, DecisionConfig, DecisionTable, Plan, PlanControl,
    PlanOutcome, PlanRequest, PlanStats, Planner, ProfileCacheConfig, Technique,
};

use crate::check::{check_plan, check_round_trip};
use crate::daemon::{field_str, field_u64, Daemon, Line};
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["plan_cold", "replan_edit", "serve_session", "fleet_sweep"];

/// The SOC of every single-SOC op.
const DESIGN: Design = Design::P34392;

/// TAM width of every single-SOC op. At W=24 the plan compresses 11–12
/// cores (≈0.66 M codewords) whatever the seed; at W=32 the compressed set
/// swings between 3 and 9 cores across seeds, so the verification work,
/// and with it the op time, would depend on the seed.
const WIDTH: u32 = 24;

/// The core `replan_edit` edits: compressed in the plan, its table build
/// is cheap (≈4 ms of the 1–45 ms range), and no edit changes which
/// cores the plan compresses, so every op does the same work.
const EDITED_CORE: &str = "p34392.c09";

/// Inputs shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed (drives SOC synthesis and the edit sequence).
    pub seed: u64,
    /// Worker count of the planner's pools (and the fleet budget).
    pub workers: usize,
    /// Fresh state directory of this set-up pass.
    pub dir: PathBuf,
}

/// What one op produced.
#[derive(Debug, Default)]
pub struct Op {
    /// Wall time of the timed call.
    pub elapsed: Duration,
    /// Σ τ of the op's plans.
    pub test_time: u64,
    /// Σ V of the op's plans.
    pub volume: u64,
    /// Correctness failures found in the op's output.
    pub failures: Vec<String>,
}

/// One workload, set up and ready to run ops.
pub trait Workload {
    /// Runs op `index` (set-up's warm-up op is index 0).
    fn op(&mut self, index: u64, t: &mut Tracer) -> Result<Op, String>;
    /// Replays the last op's stages through the layers' public entry
    /// points, each inside its layer's span.
    fn replay(&mut self, t: &mut Tracer) -> Result<(), String>;
    /// Final checks and shutdown; returns correctness failures.
    fn finish(self: Box<Self>, t: &mut Tracer) -> Result<Vec<String>, String>;
    /// Shuts down without the closing checks (a discarded set-up pass).
    fn close(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
    /// The worker counts this workload uses, for the report.
    fn workers(&self) -> String;
}

/// Sets up workload `name`, including its warm-up op.
pub fn setup(name: &str, ctx: &Ctx, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("{}: {e}", ctx.dir.display()))?;
    let mut w: Box<dyn Workload> = match name {
        "plan_cold" => Box::new(PlanCold::setup(ctx, t)),
        "replan_edit" => Box::new(ReplanEdit::setup(ctx, t)?),
        "serve_session" => Box::new(ServeSession::setup(ctx, t)?),
        "fleet_sweep" => Box::new(FleetSweep::setup(ctx, t)?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let warm = t.span("setup.warmup", |t| w.op(0, t))?;
    if let Some(f) = warm.failures.first() {
        return Err(format!("warm-up op failed: {f}"));
    }
    if t.is_enabled() {
        w.replay(t)?;
    }
    Ok(w)
}

fn plan_request(workers: usize) -> PlanRequest {
    let mut request = PlanRequest::tam_width(WIDTH);
    request.architecture.workers = Some(workers);
    request
}

fn design(name: &str) -> Result<Design, String> {
    Design::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown design `{name}`"))
}

/// Counters every plan reports through [`PlanStats`].
fn count_stats(t: &mut Tracer, stats: &PlanStats) {
    let n = |v: usize| v as f64;
    t.add("tdcsoc.profile_hits", n(stats.profile_hits));
    t.add("tdcsoc.profile_partial", n(stats.profile_partial_hits));
    t.add("tdcsoc.profile_misses", n(stats.profile_misses));
    t.add("tdcsoc.widths_reused", stats.widths_reused as f64);
    t.add("tdcsoc.profile_evictions", stats.profile_evictions as f64);
    t.add("selenc.streams_verified", n(stats.streams_verified));
    t.add("selenc.stream_words", stats.stream_words as f64);
    t.add("selenc.memo_hits", stats.memo.hits as f64);
    t.add("selenc.memo_misses", stats.memo.misses as f64);
}

/// Per-core time rows of a set of decision tables.
type Rows = Vec<(String, Vec<Option<u64>>)>;

/// Builds each core's decision table at `width` inside a `tdcsoc.tables`
/// span per core, and counts the widths built.
fn replay_tables<'a>(
    t: &mut Tracer,
    cores: impl Iterator<Item = &'a soc_model::Core>,
    mode: CompressionMode,
    width: u32,
    config: &DecisionConfig,
) -> Rows {
    let mut rows = Rows::new();
    for core in cores {
        let table = t.span_detail("tdcsoc.tables", Some(core.name().to_string()), |_| {
            DecisionTable::build(core, mode, width, config)
        });
        t.add("replay.widths", f64::from(width));
        rows.push((table.name().to_string(), table.time_row()));
    }
    rows
}

/// Re-runs the architecture search on `rows` truncated to `width` and
/// cross-checks its test time against the plan's.
fn replay_arch(
    t: &mut Tracer,
    rows: &Rows,
    width: u32,
    opts: &ArchitectureOptions,
    plan: &Plan,
) -> Result<(), String> {
    let arch = t.span("tam.arch", |_| {
        let mut cost = CostModel::new(width);
        for (name, row) in rows {
            cost.push_core(name.clone(), row[..width as usize].to_vec());
        }
        optimize_architecture(&cost, width, opts)
    });
    let arch = arch.map_err(|e| format!("replayed architecture search failed: {e}"))?;
    if arch.test_time != plan.test_time {
        return Err(format!(
            "replayed architecture has τ = {}, the plan τ = {}",
            arch.test_time, plan.test_time
        ));
    }
    Ok(())
}

/// Replays plan-time stream verification of every compressed core.
fn replay_verify(t: &mut Tracer, soc: &Soc, plan: &Plan) -> Result<(), String> {
    for s in &plan.core_settings {
        let (Technique::SelectiveEncoding, Some((_, m))) = (s.technique, s.decompressor) else {
            continue;
        };
        let core = &soc.cores()[s.core.0];
        t.span_detail("selenc.verify", Some(s.name.clone()), |_| {
            selenc::verify_operating_point(core, m)
        })
        .map_err(|e| format!("replayed verification of {}: {e}", s.name))?;
    }
    Ok(())
}

/// Replays the plan-file write and parse.
fn replay_planfile(t: &mut Tracer, plan: &Plan) -> Result<(), String> {
    t.span("tdcsoc.planfile", |_| parse_plan(&write_plan(plan)))
        .map(drop)
        .map_err(|e| format!("replayed plan file does not parse: {e}"))
}

/// Re-plans against a filled profile cache with stream verification off.
/// Every profile is a hit by now, so the span is cache reads plus the
/// architecture search; the report subtracts the replayed search.
fn cache_probe(
    t: &mut Tracer,
    planner: Planner,
    soc: &Soc,
    request: &PlanRequest,
    cache: ProfileCacheConfig,
) -> Result<(), String> {
    let control = PlanControl {
        profile_cache: Some(cache),
        ..PlanControl::default()
    }
    .without_stream_verification();
    let (_, stats) = t
        .span("tdcsoc.cache_probe", |_| {
            planner.plan_with_stats(soc, request, &control)
        })
        .map_err(|e| format!("cache probe failed: {e}"))?;
    t.add("probe.widths_computed", stats.widths_computed as f64);
    Ok(())
}

/// The last op of a single-plan workload.
struct LastPlan {
    plan: Plan,
    stats: PlanStats,
}

// ---------------------------------------------------------------- plan_cold

/// `plan_cold`: the first plan of a new SOC (the paper's CPU-time column).
struct PlanCold {
    soc: Soc,
    request: PlanRequest,
    workers: usize,
    reference: Option<String>,
    last: Option<LastPlan>,
}

impl PlanCold {
    fn setup(ctx: &Ctx, t: &mut Tracer) -> Self {
        let soc = t.span("soc-model.synth", |_| DESIGN.build_with_cubes(ctx.seed));
        PlanCold {
            soc,
            request: plan_request(ctx.workers),
            workers: ctx.workers,
            reference: None,
            last: None,
        }
    }
}

impl Workload for PlanCold {
    fn op(&mut self, _index: u64, t: &mut Tracer) -> Result<Op, String> {
        let start = Instant::now();
        let result = t.span("tdcsoc.plan", |_| {
            Planner::per_core_tdc().plan_with_stats(
                &self.soc,
                &self.request,
                &PlanControl::default(),
            )
        });
        let elapsed = start.elapsed();
        let (plan, stats) = result.map_err(|e| format!("plan: {e}"))?;
        let mut failures = Vec::new();
        let text = check_plan("plan", &plan, Some(stats.streams_verified), &mut failures);
        match &self.reference {
            None => self.reference = Some(text),
            Some(r) if *r != text => failures.push("plan differs from the first op's".into()),
            Some(_) => {}
        }
        count_stats(t, &stats);
        t.add(
            "tdcsoc.widths_computed",
            f64::from(WIDTH) * self.soc.cores().len() as f64,
        );
        let op = Op {
            elapsed,
            test_time: plan.test_time,
            volume: plan.volume_bits,
            failures,
        };
        self.last = Some(LastPlan { plan, stats });
        Ok(op)
    }

    fn replay(&mut self, t: &mut Tracer) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no op to replay")?;
        t.span("replay", |t| {
            let rows = replay_tables(
                t,
                self.soc.cores().iter(),
                CompressionMode::PerCore,
                WIDTH,
                &self.request.decisions,
            );
            replay_arch(t, &rows, WIDTH, &self.request.architecture, &last.plan)?;
            replay_verify(t, &self.soc, &last.plan)?;
            replay_planfile(t, &last.plan)
        })?;
        Ok(())
    }

    fn finish(self: Box<Self>, _t: &mut Tracer) -> Result<Vec<String>, String> {
        Ok(Vec::new())
    }

    fn workers(&self) -> String {
        format!("planner pools {}", self.workers)
    }
}

// -------------------------------------------------------------- replan_edit

/// `replan_edit`: the designer's edit→replan loop against a warm profile
/// cache.
struct ReplanEdit {
    soc: Soc,
    seed: u64,
    edited: usize,
    request: PlanRequest,
    control: PlanControl,
    cache: ProfileCacheConfig,
    workers: usize,
    /// Time rows of the unedited cores (traced run only).
    rows: Option<Rows>,
    last: Option<LastPlan>,
}

/// The synthesis seed of edit `index`: distinct for every op, fixed by
/// the workload seed.
fn edit_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

impl ReplanEdit {
    fn setup(ctx: &Ctx, t: &mut Tracer) -> Result<Self, String> {
        let soc = t.span("soc-model.synth", |_| DESIGN.build_with_cubes(ctx.seed));
        let edited = soc
            .cores()
            .iter()
            .position(|c| c.name() == EDITED_CORE)
            .ok_or_else(|| format!("{} has no core {EDITED_CORE}", DESIGN.name()))?;
        let request = plan_request(ctx.workers);
        let cache = ProfileCacheConfig::new(
            ctx.dir.join("cache"),
            format!("{}-seed{}", DESIGN.name(), ctx.seed),
        );
        let control = PlanControl {
            profile_cache: Some(cache.clone()),
            ..PlanControl::default()
        };
        // Cache fill: one cold plan writes every core's profile.
        let (plan, _) = t
            .span("setup.cache_fill", |_| {
                Planner::per_core_tdc().plan_with_stats(&soc, &request, &control)
            })
            .map_err(|e| format!("cache fill: {e}"))?;
        let mut failures = Vec::new();
        check_plan("cache fill", &plan, None, &mut failures);
        if let Some(f) = failures.first() {
            return Err(f.clone());
        }
        let rows = if t.is_enabled() {
            Some(t.span("setup.tables", |t| {
                replay_tables(
                    t,
                    soc.cores().iter(),
                    CompressionMode::PerCore,
                    WIDTH,
                    &request.decisions,
                )
            }))
        } else {
            None
        };
        Ok(ReplanEdit {
            soc,
            seed: ctx.seed,
            edited,
            request,
            control,
            cache,
            workers: ctx.workers,
            rows,
            last: None,
        })
    }
}

impl Workload for ReplanEdit {
    fn op(&mut self, index: u64, t: &mut Tracer) -> Result<Op, String> {
        let core = &self.soc.cores()[self.edited];
        let cubes = t.span("soc-model.synth", |_| {
            CubeSynthesis::new(core.nominal_care_density())
                .synthesize(core, edit_seed(self.seed, index))
        });
        self.soc.cores_mut()[self.edited]
            .attach_test_set(cubes)
            .map_err(|e| format!("edit: {e}"))?;
        let start = Instant::now();
        let result = t.span("tdcsoc.plan", |_| {
            Planner::per_core_tdc().plan_with_stats(&self.soc, &self.request, &self.control)
        });
        let elapsed = start.elapsed();
        let (plan, stats) = result.map_err(|e| format!("plan: {e}"))?;
        let mut failures = Vec::new();
        check_plan("replan", &plan, Some(stats.streams_verified), &mut failures);
        count_stats(t, &stats);
        t.add("tdcsoc.widths_computed", stats.widths_computed as f64);
        let op = Op {
            elapsed,
            test_time: plan.test_time,
            volume: plan.volume_bits,
            failures,
        };
        self.last = Some(LastPlan { plan, stats });
        Ok(op)
    }

    fn replay(&mut self, t: &mut Tracer) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no op to replay")?;
        let base = self.rows.as_ref().ok_or("traced set-up built no tables")?;
        t.span("replay", |t| {
            let mut rows = base.clone();
            if last.stats.widths_computed > 0 {
                let edited = replay_tables(
                    t,
                    std::iter::once(&self.soc.cores()[self.edited]),
                    CompressionMode::PerCore,
                    WIDTH,
                    &self.request.decisions,
                );
                rows[self.edited] = edited.into_iter().next().expect("one table built");
            }
            replay_arch(t, &rows, WIDTH, &self.request.architecture, &last.plan)?;
            replay_verify(t, &self.soc, &last.plan)?;
            cache_probe(
                t,
                Planner::per_core_tdc(),
                &self.soc,
                &self.request,
                self.cache.clone(),
            )?;
            replay_planfile(t, &last.plan)
        })
    }

    /// The last op's SOC, planned from scratch without the cache, must
    /// give the byte-identical plan.
    fn finish(self: Box<Self>, _t: &mut Tracer) -> Result<Vec<String>, String> {
        let last = self.last.as_ref().ok_or("no op ran")?;
        let cold = Planner::per_core_tdc()
            .plan(&self.soc, &self.request)
            .map_err(|e| format!("uncached re-plan: {e}"))?;
        let mut failures = Vec::new();
        if write_plan(&cold) != write_plan(&last.plan) {
            failures.push("cached replan differs from an uncached plan of the same SOC".into());
        }
        Ok(failures)
    }

    fn workers(&self) -> String {
        format!("planner pools {}", self.workers)
    }
}

// ------------------------------------------------------------ serve_session

/// Session name the benchmark plans on.
const SESSION: &str = "bench";
/// Session the traced run replays `SessionStore` calls on.
const REPLAY_SESSION: &str = "replay";
/// Daemon planning threads.
const SERVE_WORKERS: usize = 1;

/// `serve_session`: submission to `plan-done` on an in-process daemon.
struct ServeSession {
    daemon: Option<Daemon>,
    root: PathBuf,
    seed: u64,
    reference: Option<String>,
    /// Time rows of the session's SOC (traced run only).
    rows: Option<Rows>,
    last: Option<ServeOp>,
}

/// What one serve op exchanged.
struct ServeOp {
    sent: Vec<String>,
    received: Vec<Line>,
    plan: Plan,
    text: String,
}

impl ServeSession {
    fn setup(ctx: &Ctx, t: &mut Tracer) -> Result<Self, String> {
        let root = ctx.dir.join("serve");
        let mut daemon = t.span("setup.daemon_start", |_| {
            Daemon::start(&root, SERVE_WORKERS)
        })?;
        t.span("setup.session_open", |_| {
            daemon.request(vec![
                ("op", Value::Str("open".into())),
                ("session", Value::Str(SESSION.into())),
                ("benchmark", Value::Str(DESIGN.name().into())),
                ("seed", Value::Int(i64::try_from(ctx.seed).unwrap_or(0))),
            ])
        })?;
        let rows = if t.is_enabled() {
            let store = SessionStore::open(&root).map_err(|e| e.to_string())?;
            store
                .create_session(
                    REPLAY_SESSION,
                    &serve::DesignSource::Benchmark(DESIGN.name().into()),
                    ctx.seed,
                    0.5,
                )
                .map_err(|e| e.to_string())?;
            let soc = DESIGN.build_with_cubes(ctx.seed);
            Some(t.span("setup.tables", |t| {
                replay_tables(
                    t,
                    soc.cores().iter(),
                    CompressionMode::PerCore,
                    WIDTH,
                    &DecisionConfig::default(),
                )
            }))
        } else {
            None
        };
        Ok(ServeSession {
            daemon: Some(daemon),
            root,
            seed: ctx.seed,
            reference: None,
            rows,
            last: None,
        })
    }

    fn daemon(&mut self) -> Result<&mut Daemon, String> {
        self.daemon
            .as_mut()
            .ok_or_else(|| "daemon closed".to_string())
    }

    /// The status counters of the daemon.
    fn status(&mut self) -> Result<Value, String> {
        let (_, ack) = self
            .daemon()?
            .request(vec![("op", Value::Str("status".into()))])?;
        ack.value
            .field("result")
            .cloned()
            .ok_or_else(|| "status without result".to_string())
    }
}

impl Workload for ServeSession {
    fn op(&mut self, _index: u64, t: &mut Tracer) -> Result<Op, String> {
        let daemon = self.daemon()?;
        let start = Instant::now();
        let (sent, received) = t.span("serve.roundtrip", |_| -> Result<_, String> {
            let (plan_line, ack) = daemon.request(vec![
                ("op", Value::Str("plan".into())),
                ("session", Value::Str(SESSION.into())),
                ("mode", Value::Str("per-core".into())),
                ("width", Value::Int(i64::from(WIDTH))),
                ("budget_ms", Value::Int(0)),
            ])?;
            let request = ack
                .value
                .field("result")
                .and_then(|r| field_str(r, "request"))
                .ok_or("plan ack without request id")?
                .to_string();
            let done = daemon.wait_event(|v| {
                field_str(v, "request") == Some(request.as_str())
                    && matches!(field_str(v, "event"), Some("plan-done" | "plan-failed"))
            })?;
            let (get_line, got) = daemon.request(vec![
                ("op", Value::Str("get-plan".into())),
                ("session", Value::Str(SESSION.into())),
                ("request", Value::Str(request)),
            ])?;
            Ok((vec![plan_line, get_line], vec![ack, done, got]))
        })?;
        let elapsed = start.elapsed();
        let done = &received[1].value;
        let text = received[2]
            .value
            .field("result")
            .and_then(|r| field_str(r, "plan"))
            .ok_or("get-plan without plan text")?
            .to_string();
        let mut failures = Vec::new();
        if field_str(done, "event") != Some("plan-done") {
            failures.push(format!("plan failed: {}", received[1].text));
        }
        if field_str(done, "outcome") != Some("optimal") {
            failures.push(format!(
                "outcome {:?}, not optimal",
                field_str(done, "outcome")
            ));
        }
        let plan = check_round_trip("serve plan", &text, &mut failures)
            .ok_or("served plan does not parse")?;
        let verified = field_u64(done, "verified_streams").unwrap_or(0) as usize;
        check_plan("serve plan", &plan, Some(verified), &mut failures);
        if field_u64(done, "test_time") != Some(plan.test_time) {
            failures.push("plan-done test_time differs from the plan file".into());
        }
        match &self.reference {
            None => self.reference = Some(text.clone()),
            Some(r) if *r != text => failures.push("plan differs from the first op's".into()),
            Some(_) => {}
        }
        for (counter, field) in [
            ("tdcsoc.profile_hits", "profile_hits"),
            ("tdcsoc.profile_partial", "profile_partial"),
            ("tdcsoc.profile_misses", "profile_misses"),
            ("selenc.streams_verified", "verified_streams"),
            ("selenc.stream_words", "verified_words"),
        ] {
            t.add(counter, field_u64(done, field).unwrap_or(0) as f64);
        }
        let op = Op {
            elapsed,
            test_time: plan.test_time,
            volume: plan.volume_bits,
            failures,
        };
        self.last = Some(ServeOp {
            sent,
            received,
            plan,
            text,
        });
        Ok(op)
    }

    fn replay(&mut self, t: &mut Tracer) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no op to replay")?;
        let rows = self.rows.as_ref().ok_or("traced set-up built no tables")?;
        let store = SessionStore::open(&self.root).map_err(|e| e.to_string())?;
        let seed = self.seed;
        t.span("replay", |t| {
            let soc = t.span("soc-model.synth", |_| DESIGN.build_with_cubes(seed));
            let request = PlanRequest::tam_width(WIDTH);
            cache_probe(
                t,
                Planner::per_core_tdc(),
                &soc,
                &request,
                ProfileCacheConfig::new(
                    store.cache_dir(),
                    format!("{}-seed{seed}-d{:.3}", soc.name(), 0.5),
                ),
            )?;
            replay_arch(t, rows, WIDTH, &request.architecture, &last.plan)?;
            replay_verify(t, &soc, &last.plan)?;
            t.span("serve.session", |_| -> Result<(), String> {
                let meta = store
                    .load_meta(REPLAY_SESSION)
                    .ok_or("replay session lost")?;
                let id = store.next_request_id(&meta.name);
                store
                    .journal_inflight(&meta.name, &id, &Value::Str(last.sent[0].clone()))
                    .map_err(|e| e.to_string())?;
                store
                    .complete(&meta.name, &id, &last.text)
                    .map_err(|e| e.to_string())?;
                store
                    .plan_text(&meta.name, &id)
                    .map(drop)
                    .ok_or_else(|| "replayed plan not readable".to_string())
            })?;
            t.span("serve.json", |_| {
                for line in &last.sent {
                    let _ = serve::proto::decode(line);
                }
                for line in &last.received {
                    let _ = line.value.to_json();
                }
            });
            replay_planfile(t, &last.plan)
        })
    }

    fn finish(mut self: Box<Self>, t: &mut Tracer) -> Result<Vec<String>, String> {
        let status = self.status()?;
        let mut failures = Vec::new();
        for (counter, field) in [
            ("serve.memo_hits", "memo_hits"),
            ("serve.memo_misses", "memo_misses"),
            ("serve.failed", "failed"),
            ("serve.shed", "shed"),
        ] {
            let value = field_u64(&status, field).ok_or("status lacks counters")?;
            t.add(counter, value as f64);
            if matches!(field, "failed" | "shed") && value != 0 {
                failures.push(format!("daemon status: {value} requests {field}"));
            }
        }
        if let Err(e) = self.close() {
            failures.push(e);
        }
        Ok(failures)
    }

    fn close(mut self: Box<Self>) -> Result<(), String> {
        match self.daemon.take().ok_or("daemon closed")?.close()? {
            0 => Ok(()),
            code => Err(format!("daemon exited with code {code}")),
        }
    }

    fn workers(&self) -> String {
        format!(
            "daemon workers {SERVE_WORKERS}, planner pools = available_parallelism (daemon default)"
        )
    }
}

// -------------------------------------------------------------- fleet_sweep

/// `fleet_sweep`: one batch of a fixed manifest with a fresh profile cache.
struct FleetSweep {
    text: String,
    manifest: Manifest,
    dir: PathBuf,
    workers: usize,
    reference: Vec<String>,
    last: Option<(FleetReport, PathBuf)>,
}

/// The batch: d695 across three widths × two seeds in per-core mode (the
/// width sweep extends cached profiles), plus one `select` instance that
/// runs the FDR codec.
fn fleet_manifest(seed: u64) -> String {
    format!(
        "design d695 widths=16..32:8 seeds={seed},{}\ndesign d695 widths=24 seeds={seed} mode=select\n",
        seed.wrapping_add(1)
    )
}

impl FleetSweep {
    fn setup(ctx: &Ctx, t: &mut Tracer) -> Result<Self, String> {
        let text = fleet_manifest(ctx.seed);
        let manifest = t
            .span("fleet.manifest", |_| Manifest::parse(&text))
            .map_err(|e| format!("manifest: {e}"))?;
        Ok(FleetSweep {
            text,
            manifest,
            dir: ctx.dir.clone(),
            workers: ctx.workers,
            reference: Vec::new(),
            last: None,
        })
    }

    fn instance_soc(source: &SocSource, seed: u64) -> Result<Soc, String> {
        match source {
            SocSource::Builtin(name) => Ok(design(name)?.build_with_cubes(seed)),
            other => Err(format!("unexpected source {other:?}")),
        }
    }
}

impl Workload for FleetSweep {
    fn op(&mut self, index: u64, t: &mut Tracer) -> Result<Op, String> {
        if let Some((_, old)) = self.last.take() {
            std::fs::remove_dir_all(&old).map_err(|e| format!("{}: {e}", old.display()))?;
        }
        let cache = self.dir.join(format!("cache-{index}"));
        let opts = FleetOptions {
            workers: self.workers,
            profile_cache: Some(cache.clone()),
            ..FleetOptions::default()
        };
        let reported = AtomicUsize::new(0);
        let on_report = |_: &fleet::InstanceReport| {
            reported.fetch_add(1, Ordering::Relaxed);
        };
        let hooks = FleetHooks {
            on_report: Some(&on_report),
        };
        let start = Instant::now();
        let report = t.span("fleet.batch", |_| {
            fleet::run_fleet_with(&self.manifest, &opts, &hooks)
        });
        let elapsed = start.elapsed();

        let mut failures = Vec::new();
        let reported = reported.into_inner();
        if reported != report.instances.len() {
            failures.push(format!(
                "{reported} reports streamed for {} instances",
                report.instances.len()
            ));
        }
        let mut texts = Vec::new();
        let (mut tau, mut volume) = (0, 0);
        for r in &report.instances {
            if r.outcome != InstanceOutcome::Planned(PlanOutcome::Optimal) {
                failures.push(format!("{}: outcome {}", r.id, r.outcome.keyword()));
            }
            let Some(plan) = &r.plan else {
                failures.push(format!("{}: no plan", r.id));
                continue;
            };
            texts.push(check_plan(
                &r.id,
                plan,
                Some(r.stats.streams_verified),
                &mut failures,
            ));
            tau += plan.test_time;
            volume += plan.volume_bits;
        }
        if self.reference.is_empty() {
            self.reference = texts;
        } else if self.reference != texts {
            failures.push("batch plans differ from the first batch's".into());
        }

        let s = &report.summary;
        count_stats(t, &s.stats);
        t.add("tdcsoc.widths_computed", s.stats.widths_computed as f64);
        t.add("fleet.soc_hits", s.soc_cache.hits as f64);
        t.add("fleet.soc_misses", s.soc_cache.misses as f64);
        t.add("fleet.failed", s.failed as f64);
        let busy: f64 = report.instances.iter().map(|r| r.latency_ms).sum();
        t.add(
            "parpool.busy_share",
            busy / (elapsed.as_secs_f64() * 1e3 * s.outer_workers as f64),
        );
        self.last = Some((report, cache));
        Ok(Op {
            elapsed,
            test_time: tau,
            volume,
            failures,
        })
    }

    fn replay(&mut self, t: &mut Tracer) -> Result<(), String> {
        let (report, cache) = self.last.as_ref().ok_or("no op to replay")?;
        let text = &self.text;
        t.span("replay", |t| -> Result<(), String> {
            let manifest = t
                .span("fleet.manifest", |_| Manifest::parse(text))
                .map_err(|e| format!("manifest: {e}"))?;
            // One SOC per distinct (source, seed), one table set per
            // distinct (source, seed, mode, fidelity) at its widest width:
            // the least work the batch could have done.
            let mut socs: BTreeMap<(SocSource, u64), Soc> = BTreeMap::new();
            let mut tables: BTreeMap<(SocSource, u64, String, String), Rows> = BTreeMap::new();
            let mut minimum_misses = 0usize;
            let mut profile_keys: Vec<(SocSource, u64, String)> = Vec::new();
            for inst in &manifest.instances {
                let key = (inst.source.clone(), inst.seed);
                if !socs.contains_key(&key) {
                    let soc = t.span("soc-model.synth", |_| {
                        Self::instance_soc(&inst.source, inst.seed)
                    })?;
                    socs.insert(key.clone(), soc);
                }
                let fidelity = format!("{:?}", inst.decisions);
                let pkey = (inst.source.clone(), inst.seed, fidelity.clone());
                if !profile_keys.contains(&pkey) {
                    minimum_misses += socs[&key].cores().len();
                    profile_keys.push(pkey);
                }
                let tkey = (inst.source.clone(), inst.seed, inst.mode.clone(), fidelity);
                if let std::collections::btree_map::Entry::Vacant(slot) = tables.entry(tkey) {
                    let widest = manifest
                        .instances
                        .iter()
                        .filter(|i| {
                            i.source == inst.source && i.seed == inst.seed && i.mode == inst.mode
                        })
                        .map(|i| i.width)
                        .max()
                        .unwrap_or(inst.width);
                    let planner = serve::server::planner_for(&inst.mode)
                        .ok_or_else(|| format!("unknown mode {}", inst.mode))?;
                    let rows = replay_tables(
                        t,
                        socs[&key].cores().iter(),
                        planner.mode(),
                        widest,
                        &inst.decisions,
                    );
                    slot.insert(rows);
                }
            }
            let s = &report.summary;
            t.add(
                "fleet.soc_duplicate_builds",
                s.soc_cache.misses as f64 - socs.len() as f64,
            );
            t.add(
                "fleet.profile_duplicate_misses",
                s.stats.profile_misses as f64 - minimum_misses as f64,
            );
            for (inst, r) in manifest.instances.iter().zip(&report.instances) {
                let plan = r.plan.as_ref().ok_or("instance without plan")?;
                let soc = &socs[&(inst.source.clone(), inst.seed)];
                let fidelity = format!("{:?}", inst.decisions);
                let rows = &tables[&(inst.source.clone(), inst.seed, inst.mode.clone(), fidelity)];
                let planner = serve::server::planner_for(&inst.mode).ok_or("unknown mode")?;
                let mut request =
                    PlanRequest::tam_width(inst.width).with_decisions(inst.decisions.clone());
                request.architecture.workers = Some(s.inner_workers);
                replay_arch(t, rows, inst.width, &request.architecture, plan)
                    .map_err(|e| format!("{}: {e}", inst.id))?;
                replay_verify(t, soc, plan)?;
                cache_probe(
                    t,
                    planner,
                    soc,
                    &request,
                    ProfileCacheConfig::new(
                        cache,
                        format!("{}-seed{}-d{:.3}", soc.name(), inst.seed, inst.density),
                    ),
                )?;
                replay_planfile(t, plan)?;
            }
            Ok(())
        })
    }

    /// Every plan of the last batch must equal a standalone plan of the
    /// same instance.
    fn finish(self: Box<Self>, _t: &mut Tracer) -> Result<Vec<String>, String> {
        let (report, _) = self.last.as_ref().ok_or("no batch ran")?;
        let mut failures = Vec::new();
        for (inst, r) in self.manifest.instances.iter().zip(&report.instances) {
            let soc = Self::instance_soc(&inst.source, inst.seed)?;
            let planner = serve::server::planner_for(&inst.mode).ok_or("unknown mode")?;
            let mut request =
                PlanRequest::tam_width(inst.width).with_decisions(inst.decisions.clone());
            request.architecture.workers = Some(self.workers);
            let alone = planner
                .plan(&soc, &request)
                .map_err(|e| format!("{}: standalone plan: {e}", inst.id))?;
            if r.plan.as_ref().map(write_plan) != Some(write_plan(&alone)) {
                failures.push(format!(
                    "{}: fleet plan differs from a standalone plan",
                    inst.id
                ));
            }
        }
        Ok(failures)
    }

    fn workers(&self) -> String {
        let (outer, inner) = parpool::split_budget(self.workers, self.manifest.len());
        format!(
            "fleet budget {} = {outer} outer x {inner} inner",
            self.workers
        )
    }
}

/// Removes `dir` and everything under it, if present.
pub fn remove_tree(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", dir.display())),
    }
}
