//! The co-optimization planner (paper §3): wrapper design, decompressor
//! sizing, TAM partitioning and test scheduling, solved together.

use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use parpool::Pool;
use selenc::SliceCode;
use soc_model::{CoreId, Soc, TritVec};
use tam::{Architecture, ArchitectureOptions, CostModel, Schedule, ScheduleError};
use wrapper::{design_wrapper, WrapperDesign};

use crate::cascade::{self, PlanControl, PlanOutcome, ProfileCacheConfig, SolverStage};
use crate::decisions::{
    CachedProfile, CompressionMode, DecisionConfig, DecisionTable, TableJob, TablePart, Technique,
};
use selenc::CoreProfile;

/// What the wire budget counts.
///
/// For per-core decompression the two coincide (the decompressor sits at
/// the core, so ATE channels = TAM wires). They differ for the SOC-level
/// decompression baseline (≈ \[18\]): few ATE channels can fan out to many
/// internal TAM wires — cheap in tester channels, expensive in routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Constrain the on-chip TAM wires (the paper's Table 2 and Table 3).
    TamWidth(u32),
    /// Constrain the tester channels (the paper's Table 1).
    AteChannels(u32),
}

impl Budget {
    /// The numeric wire budget.
    pub fn width(self) -> u32 {
        match self {
            Budget::TamWidth(w) | Budget::AteChannels(w) => w,
        }
    }
}

/// A planning request: the budget plus evaluation and search knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// The wire budget.
    pub budget: Budget,
    /// Evaluation fidelity (pattern sampling, `m` search breadth).
    pub decisions: DecisionConfig,
    /// Architecture search knobs.
    pub architecture: ArchitectureOptions,
}

impl PlanRequest {
    /// A TAM-width-constrained request with default fidelity.
    pub fn tam_width(w: u32) -> Self {
        PlanRequest {
            budget: Budget::TamWidth(w),
            decisions: DecisionConfig::default(),
            architecture: ArchitectureOptions::default(),
        }
    }

    /// An ATE-channel-constrained request with default fidelity.
    pub fn ate_channels(w: u32) -> Self {
        PlanRequest {
            budget: Budget::AteChannels(w),
            decisions: DecisionConfig::default(),
            architecture: ArchitectureOptions::default(),
        }
    }

    /// Switches to exact (unsampled, exhaustive-`m`) evaluation.
    pub fn exact(mut self) -> Self {
        self.decisions = DecisionConfig::exact();
        self
    }

    /// Overrides the evaluation fidelity.
    pub fn with_decisions(mut self, cfg: DecisionConfig) -> Self {
        self.decisions = cfg;
        self
    }
}

/// The co-optimizing planner; one instance per compression mode.
///
/// # Examples
///
/// ```
/// use soc_model::benchmarks::Design;
/// use tdcsoc::{PlanRequest, Planner};
///
/// let soc = Design::D695.build_with_cubes(1);
/// let no_tdc = Planner::no_tdc().plan(&soc, &PlanRequest::tam_width(16))?;
/// let tdc = Planner::per_core_tdc().plan(&soc, &PlanRequest::tam_width(16))?;
/// assert!(tdc.test_time <= no_tdc.test_time);
/// # Ok::<(), tdcsoc::PlanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planner {
    mode: CompressionMode,
}

impl Planner {
    /// Plain wrapper/TAM co-optimization without compression (Fig. 4(a)).
    pub fn no_tdc() -> Self {
        Planner {
            mode: CompressionMode::None,
        }
    }

    /// The paper's proposal: a decompressor per core, co-optimized
    /// (Fig. 4(c)).
    pub fn per_core_tdc() -> Self {
        Planner {
            mode: CompressionMode::PerCore,
        }
    }

    /// One shared decompressor per TAM (Fig. 4(b), ≈ \[18\]).
    pub fn per_tam_tdc() -> Self {
        Planner {
            mode: CompressionMode::PerTam,
        }
    }

    /// Per-core decompressors pinned to input width `w` (≈ \[11\]).
    pub fn fixed_width_tdc(w: u32) -> Self {
        Planner {
            mode: CompressionMode::FixedWidth(w),
        }
    }

    /// LFSR-reseeding compression (≈ \[13\]).
    pub fn reseeding_tdc() -> Self {
        Planner {
            mode: CompressionMode::Reseeding,
        }
    }

    /// FDR run-length compression, one serial decompressor per wire
    /// (≈ \[10\]).
    pub fn fdr_tdc() -> Self {
        Planner {
            mode: CompressionMode::Fdr,
        }
    }

    /// Per-core compression-technique selection over {raw, selective
    /// encoding, FDR} (the authors' ATS 2008 follow-up direction).
    pub fn select_tdc() -> Self {
        Planner {
            mode: CompressionMode::Select,
        }
    }

    /// The compression mode this planner optimizes for.
    pub fn mode(&self) -> CompressionMode {
        self.mode
    }

    /// Whether this planner reads (and fills) the on-disk profile cache
    /// of [`PlanControl::cache_profiles_in`]; other modes ignore it. Only
    /// the modes that read a selective-encoding profile do: their per-core
    /// profile at width `W` answers every narrower width too, so one entry
    /// serves a whole width sweep.
    pub fn reads_profile_cache(&self) -> bool {
        self.mode.reads_profile()
    }

    /// Plans the SOC test: builds per-core decision tables, partitions the
    /// budget into TAMs, assigns and schedules the cores, and reports test
    /// time, data volume, and per-core settings.
    ///
    /// # Errors
    ///
    /// * [`PlanError::MissingTestSet`] — a compression mode needs cubes and
    ///   a core has none.
    /// * [`PlanError::Schedule`] — no feasible architecture exists (e.g.
    ///   zero budget, or a core infeasible at every width).
    pub fn plan(&self, soc: &Soc, request: &PlanRequest) -> Result<Plan, PlanError> {
        self.plan_with(soc, request, &PlanControl::default())
    }

    /// [`plan`](Planner::plan) under a fault-tolerant execution harness:
    /// a wall-clock deadline, an external cancel token, and optional
    /// checkpoint/resume (see [`PlanControl`]).
    ///
    /// With a bounded deadline the architecture search runs the solver
    /// cascade (greedy → exhaustive → anneal) and the returned
    /// [`Plan::outcome`] records how the search concluded; decision-table
    /// evaluation degrades to raw (uncompressed) operating points for the
    /// widths the budget did not cover. The plan is always feasible — an
    /// already-expired deadline still yields the single-TAM baseline.
    ///
    /// # Errors
    ///
    /// As [`plan`](Planner::plan), plus
    /// [`ScheduleError::Interrupted`] (wrapped in [`PlanError::Schedule`])
    /// when the token was cancelled before *any* feasible architecture was
    /// found, and [`PlanError::StreamVerification`] when the default
    /// plan-time stream check fails (see
    /// [`PlanControl::skip_stream_verification`]).
    pub fn plan_with(
        &self,
        soc: &Soc,
        request: &PlanRequest,
        control: &PlanControl,
    ) -> Result<Plan, PlanError> {
        self.plan_with_stats(soc, request, control)
            .map(|(plan, _)| plan)
    }

    /// [`plan_with`](Planner::plan_with), additionally reporting
    /// [`PlanStats`]: how effective the on-disk profile cache was (full
    /// hits, prefix reuse, misses, widths recomputed) and how much stream
    /// verification the finished plan underwent.
    ///
    /// # Errors
    ///
    /// As [`plan_with`](Planner::plan_with).
    pub fn plan_with_stats(
        &self,
        soc: &Soc,
        request: &PlanRequest,
        control: &PlanControl,
    ) -> Result<(Plan, PlanStats), PlanError> {
        // soclint: allow(wall-clock) -- stamps the reported cpu_time only; no search decision reads it
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let width = request.budget.width();
        if width == 0 {
            return Err(PlanError::Schedule(ScheduleError::BadPartition {
                total_width: 0,
                tams: 0,
            }));
        }
        if self.mode.needs_test_set() {
            for core in soc.cores() {
                if core.test_set().is_none() {
                    return Err(PlanError::MissingTestSet {
                        core: core.name().to_string(),
                    });
                }
            }
        }

        let token = control.token.with_deadline(control.deadline);
        // The tables may eat the whole budget on a large SOC; reserve a
        // slice for the architecture search so a bounded run always gets
        // to schedule something.
        let table_token = if token.deadline().remaining().is_some() {
            token.with_deadline(token.deadline().fraction(TABLE_SLICE))
        } else {
            token.clone()
        };

        let internal_budget =
            self.mode == CompressionMode::PerTam && matches!(request.budget, Budget::TamWidth(_));
        // One job per core (sharing that core's evaluation cache), fanned
        // out as (core × width-chunk) tasks on a bounded pool: workers that
        // finish a cheap core's chunk steal the next, so one expensive core
        // no longer serializes the phase and small machines are not
        // oversubscribed with a thread per core. Results are assembled in
        // core and width order, so the plan stays deterministic at any
        // worker count.
        // The profile cache applies only to the profile-reading modes
        // (`reads_profile_cache`). Entries are keyed by each core's
        // content fingerprint (computed once per job, via the shared
        // evaluation cache) rather than the width budget: a cached profile
        // covering at least `width` widths is a full hit that skips the
        // per-width operating-point search entirely, a shorter one answers
        // its prefix and only the remaining widths are computed, and a
        // miss rebuilds from scratch — the incremental-rebuild contract.
        let profile_cache = control
            .profile_cache
            .as_ref()
            .filter(|_| self.reads_profile_cache());
        let mut stats = PlanStats::default();
        let mut cache_use: Vec<CacheUse> = Vec::with_capacity(soc.cores().len());
        let jobs: Vec<TableJob> = soc
            .cores()
            .iter()
            .map(|core| {
                if internal_budget {
                    cache_use.push(CacheUse::Uncached);
                    return TableJob::per_tam_internal(core, width, &request.decisions);
                }
                let job = TableJob::new(core, self.mode, width, &request.decisions);
                let Some(cache) = profile_cache else {
                    cache_use.push(CacheUse::Uncached);
                    return job;
                };
                let cached = read_cached_profile(
                    cache,
                    core.name(),
                    job.content_stamp(),
                    &request.decisions,
                );
                cache_use.push(match &cached {
                    Some(c) if c.covered >= width => CacheUse::Full,
                    Some(c) => CacheUse::Partial(c.covered),
                    None => CacheUse::Miss,
                });
                job.with_cached_profile(cached)
            })
            .collect();
        let chunks: Vec<(usize, Range<u32>)> = jobs
            .iter()
            .enumerate()
            .flat_map(|(i, job)| {
                job.width_chunks(TABLE_CHUNK)
                    .into_iter()
                    .map(move |r| (i, r))
            })
            .collect();
        let tasks: Vec<_> = chunks
            .iter()
            .map(|(i, range)| {
                let job = &jobs[*i];
                let token = &table_token;
                let range = range.clone();
                move || job.compute(range, token)
            })
            .collect();
        let pool = match request.architecture.workers {
            Some(w) => Pool::with_workers(w),
            None => Pool::new(),
        };
        let parts = pool.clone().labeled("tables").run_with(&table_token, tasks);
        let mut per_core: Vec<Vec<TablePart>> = (0..jobs.len()).map(|_| Vec::new()).collect();
        for ((i, range), part) in chunks.into_iter().zip(parts) {
            per_core[i].push(part.unwrap_or_else(|| TablePart::skipped(range)));
        }
        // Assembly (the raw-access row, the profile merge, the bypass) runs
        // as one task per core once every chunk has finished, so the raw
        // row reads the points the chunks' evaluations already computed.
        // No token — every core gets a table, skipped widths degrade to
        // raw access. Cache writes stay serial below, in core order, so the
        // evictions a full shard reports do not depend on timing.
        let assembly: Vec<_> = jobs
            .iter()
            .zip(per_core)
            .map(|(job, parts)| move || job.assemble_with_profile(parts))
            .collect();
        let assembled = pool.clone().labeled("assemble").run(assembly);
        let tables: Vec<DecisionTable> = jobs
            .iter()
            .zip(assembled)
            .zip(&cache_use)
            .map(|((job, (table, profile)), use_)| {
                match *use_ {
                    CacheUse::Full => {
                        stats.profile_hits += 1;
                        stats.widths_reused += u64::from(width);
                    }
                    CacheUse::Partial(covered) => {
                        stats.profile_partial_hits += 1;
                        stats.widths_reused += u64::from(covered);
                        stats.widths_computed += u64::from(width - covered);
                    }
                    CacheUse::Miss => {
                        stats.profile_misses += 1;
                        stats.widths_computed += u64::from(width);
                    }
                    CacheUse::Uncached => {}
                }
                // A full hit is already on disk verbatim; partial hits and
                // misses store the (merged) profile under the new covered
                // bound, so the next run with the same content hits fully.
                if let (Some(cache), Some(profile), false) =
                    (profile_cache, profile, matches!(use_, CacheUse::Full))
                {
                    stats.profile_evictions += write_cached_profile(
                        cache,
                        &profile,
                        job.content_stamp(),
                        width,
                        &request.decisions,
                    );
                }
                table
            })
            .collect();
        for job in &jobs {
            stats.memo.absorb(job.memo_stats());
        }

        let mut cost = CostModel::new(width);
        for t in &tables {
            let row = t.time_row();
            if row.iter().all(Option::is_none) {
                return Err(PlanError::Schedule(ScheduleError::CoreUnschedulable {
                    core: soc
                        .cores()
                        .iter()
                        .position(|c| c.name() == t.name())
                        .unwrap_or(0),
                }));
            }
            cost.push_core(t.name(), row);
        }

        // A checkpointed schedule seeds the search when it still fits the
        // freshly built cost model; anything stale or incompatible is
        // discarded (a bad checkpoint must never be worse than none).
        let incumbent: Option<(Architecture, SolverStage)> = control
            .resume
            .as_ref()
            .filter(|prev| {
                prev.schedule.total_width() == width && prev.schedule.validate(&cost).is_ok()
            })
            .map(|prev| {
                (
                    Architecture {
                        test_time: prev.schedule.makespan(),
                        schedule: prev.schedule.clone(),
                    },
                    SolverStage::Resume,
                )
            });

        let mut on_improve = |arch: &Architecture, _stage: SolverStage| {
            if let Some(path) = &control.checkpoint {
                let plan = assemble_plan(
                    self.mode,
                    request.budget,
                    &tables,
                    arch,
                    PlanOutcome::Optimal,
                );
                write_checkpoint(path, &plan);
            }
        };
        let result = cascade::solve(
            &cost,
            width,
            &request.architecture,
            &token,
            incumbent,
            &mut on_improve,
        )
        .map_err(PlanError::Schedule)?;
        debug_assert!(result.architecture.schedule.validate(&cost).is_ok());

        let mut plan = assemble_plan(
            self.mode,
            request.budget,
            &tables,
            &result.architecture,
            result.outcome,
        );
        if let Some(path) = &control.checkpoint {
            write_checkpoint(path, &plan);
        }
        if !control.skip_stream_verification {
            verify_plan_streams(soc, &plan, &pool.labeled("verify"), &mut stats)?;
        }
        // Stamped last so the reported time covers verification too.
        plan.cpu_time = start.elapsed();
        Ok((plan, stats))
    }
}

/// Replays every selective-encoding operating point the plan instantiates
/// through the column decoder ([`selenc::verify_cubes_stream`]): each
/// core's cubes are re-encoded at its chosen `(w, m)` and the codeword
/// stream decoded back, failing if any care bit is not reconstructed.
/// This is the verify-at-plan-time contract — a returned plan's
/// compressed streams are known-good, not merely cost-estimated.
///
/// Each compressed core's wrapper design is built once; its patterns are
/// cut into runs (see [`verify_chunk_patterns`]) that run as independent
/// tasks on `pool`. No cancel token is consulted: every pattern of every
/// compressed core is checked, whatever the plan's deadline.
fn verify_plan_streams(
    soc: &Soc,
    plan: &Plan,
    pool: &Pool,
    stats: &mut PlanStats,
) -> Result<(), PlanError> {
    let streams: Vec<(&str, &[TritVec], WrapperDesign)> = plan
        .core_settings
        .iter()
        .filter(|setting| setting.technique == Technique::SelectiveEncoding)
        .filter_map(|setting| {
            let (_, m) = setting.decompressor?;
            let core = &soc.cores()[setting.core.0];
            let cubes = core
                .test_set()
                .expect("compression modes reject cores without a test set")
                .patterns();
            Some((setting.name.as_str(), cubes, design_wrapper(core, m)))
        })
        .collect();
    let tasks: Vec<_> = streams
        .iter()
        .enumerate()
        .flat_map(|(stream, (_, cubes, design))| {
            let per_chunk = verify_chunk_patterns(cubes.len(), design.scan_in_length());
            cubes.chunks(per_chunk).enumerate().map(move |(i, run)| {
                let first = i * per_chunk;
                move || ChunkVerdict {
                    stream,
                    first,
                    result: selenc::verify_cubes_stream(design, run),
                }
            })
        })
        .collect();
    let names: Vec<&str> = streams.iter().map(|(name, _, _)| *name).collect();
    let words = reduce_stream_verdicts(&names, pool.run(tasks))?;
    stats.streams_verified += names.len();
    stats.stream_words += words;
    Ok(())
}

/// Scan slices (patterns × scan-in depth) per stream-verification task.
/// Small enough that the largest core of a plan spreads across workers,
/// large enough that a task amortizes its scheduling overhead.
const VERIFY_CHUNK_SLICES: u64 = 1 << 13;

/// Patterns per verification task for a core with `patterns` patterns at
/// scan-in depth `depth`: the core splits into
/// `⌈patterns × depth / VERIFY_CHUNK_SLICES⌉` runs (at most one per
/// pattern) of near-equal length. The split depends on the core's pattern
/// count and depth alone — never on the worker count — so the same tasks
/// run at any worker count.
fn verify_chunk_patterns(patterns: usize, depth: u64) -> usize {
    let slices = (patterns as u64).saturating_mul(depth);
    let runs = slices
        .div_ceil(VERIFY_CHUNK_SLICES)
        .clamp(1, patterns.max(1) as u64);
    patterns.div_ceil(runs as usize).max(1)
}

/// One verification task's verdict: which compressed core (`stream`, in
/// plan order) and which run of its patterns (starting at pattern
/// `first`) it checked.
#[derive(Debug, Clone)]
struct ChunkVerdict {
    stream: usize,
    first: usize,
    result: Result<selenc::StreamReport, selenc::StreamError>,
}

/// Reduces per-task verdicts, given in any order, to the total codeword
/// count of the streams named by `names`, or to the error the sequential
/// core-by-core loop reports: the first failing core in plan order and,
/// within it, the first failing pattern (each task stops at its own first
/// failing pattern, so the lowest failing `(stream, first)` pinpoints it).
fn reduce_stream_verdicts(names: &[&str], verdicts: Vec<ChunkVerdict>) -> Result<u64, PlanError> {
    let mut words = 0;
    let mut first_failure: Option<((usize, usize), selenc::StreamError)> = None;
    for verdict in verdicts {
        match verdict.result {
            Ok(report) => words += report.codewords,
            Err(error) => {
                let at = (verdict.stream, verdict.first);
                if first_failure.as_ref().is_none_or(|(seen, _)| at < *seen) {
                    first_failure = Some((at, error));
                }
            }
        }
    }
    match first_failure {
        Some(((stream, _), error)) => Err(PlanError::StreamVerification {
            core: names[stream].to_string(),
            error,
        }),
        None => Ok(words),
    }
}

/// Work accounting for one [`Planner::plan_with_stats`] run: on-disk
/// profile-cache effectiveness and plan-time stream-verification totals.
///
/// Cache counters cover only cores the cache applies to (profile-driven
/// modes under an external width budget, with
/// [`PlanControl::profile_cache`] set); other cores count nowhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Cores whose cached profile covered the full width budget (no
    /// operating-point search ran, nothing was rewritten).
    pub profile_hits: usize,
    /// Cores whose cached profile covered a strict prefix of the width
    /// budget; only the widths above the covered bound were computed and
    /// the merged profile was rewritten.
    pub profile_partial_hits: usize,
    /// Cores with no valid cache entry — built from scratch (a corrupt
    /// entry is quarantined first and counts here).
    pub profile_misses: usize,
    /// Table widths answered from cached profiles.
    pub widths_reused: u64,
    /// Table widths whose operating-point search actually ran.
    pub widths_computed: u64,
    /// Selective-encoding streams replayed through the column decoder at
    /// plan time (one per compressed core in the final plan).
    pub streams_verified: usize,
    /// Total codewords those verifications consumed.
    pub stream_words: u64,
    /// On-disk cache entries evicted by per-shard cap enforcement during
    /// this run's profile writes.
    pub profile_evictions: u64,
    /// Rolled-up counters of the per-core memos (wrapper points and
    /// operating-point evaluations) across every core job of the run:
    /// hits are lookups answered without computing, misses are values
    /// computed.
    pub memo: robust::CacheStats,
}

impl PlanStats {
    /// The profile-cache line every surface prints: `profile cache: H hits,
    /// P partial, M misses, E evictions (R widths reused, C computed)`.
    pub fn profile_cache_line(&self) -> String {
        format!(
            "profile cache: {} hits, {} partial, {} misses, {} evictions \
             ({} widths reused, {} computed)",
            self.profile_hits,
            self.profile_partial_hits,
            self.profile_misses,
            self.profile_evictions,
            self.widths_reused,
            self.widths_computed
        )
    }

    /// Adds another run's counters into this one, for rolling per-design
    /// stats up into a fleet-wide total.
    pub fn absorb(&mut self, other: &PlanStats) {
        self.profile_hits += other.profile_hits;
        self.profile_partial_hits += other.profile_partial_hits;
        self.profile_misses += other.profile_misses;
        self.widths_reused = self.widths_reused.saturating_add(other.widths_reused);
        self.widths_computed = self.widths_computed.saturating_add(other.widths_computed);
        self.streams_verified += other.streams_verified;
        self.stream_words = self.stream_words.saturating_add(other.stream_words);
        self.profile_evictions = self
            .profile_evictions
            .saturating_add(other.profile_evictions);
        self.memo.absorb(other.memo);
    }
}

/// How one core's on-disk profile lookup went (the per-core input to
/// [`PlanStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheUse {
    /// Cached profile covered the full width budget.
    Full,
    /// Cached profile covered only widths `1..=covered`.
    Partial(u32),
    /// No valid cache entry for this core's content.
    Miss,
    /// The mode or configuration does not consult the on-disk cache.
    Uncached,
}

/// Fraction of the overall budget the decision-table builds may consume
/// before degrading to raw operating points.
const TABLE_SLICE: f64 = 0.5;

/// Widths per pool task. Small enough that uneven cores spread across
/// workers, large enough that a chunk amortizes its scheduling overhead
/// (consecutive widths also share cache hits within the task).
const TABLE_CHUNK: u32 = 4;

/// Turns a winning architecture into a full [`Plan`] (per-core settings,
/// volume and wire accounting), leaving `cpu_time` zero for the caller to
/// stamp.
fn assemble_plan(
    mode: CompressionMode,
    budget: Budget,
    tables: &[DecisionTable],
    arch: &Architecture,
    outcome: PlanOutcome,
) -> Plan {
    let mut settings = Vec::with_capacity(tables.len());
    let mut volume = 0u64;
    for test in arch.schedule.tests() {
        let tam_width = arch.schedule.tam_widths()[test.tam];
        let decision = tables[test.core]
            .decision(tam_width)
            .expect("scheduled cores have a decision at their TAM width");
        volume += decision.volume_bits;
        settings.push(CoreSetting {
            core: CoreId(test.core),
            name: tables[test.core].name().to_string(),
            tam: test.tam,
            tam_width,
            start: test.start,
            test_time: decision.test_time,
            volume_bits: decision.volume_bits,
            decompressor: decision.decompressor,
            lfsr_len: decision.lfsr_len,
            technique: decision.technique,
        });
    }
    settings.sort_by_key(|s| s.core.0);

    let (routed_wires, ate_channels) = wire_accounting(mode, budget, &arch.schedule, &settings);

    Plan {
        mode,
        budget,
        test_time: arch.test_time,
        volume_bits: volume,
        schedule: arch.schedule.clone(),
        core_settings: settings,
        routed_wires,
        ate_channels,
        cpu_time: Duration::ZERO,
        outcome,
    }
}

/// Best-effort atomic checkpoint write ([`robust::write_atomic`]), so a
/// reader never sees a half-written plan. I/O failures are swallowed —
/// checkpointing must never fail the plan.
fn write_checkpoint(path: &Path, plan: &Plan) {
    let _ = robust::write_atomic(path, crate::planfile::write_plan(plan).as_bytes());
}

/// Every cached profile entry under a cache root, across all shards,
/// sorted by path. Test and tooling surface for the store's layout — the
/// planner itself always addresses entries by key.
pub fn profile_cache_entries(root: &Path) -> Vec<std::path::PathBuf> {
    robust::Store::new(root).entries()
}

/// Every quarantined profile file under a cache root (each shard keeps
/// its own `quarantine/` subdirectory), sorted by path.
pub fn quarantined_profiles(root: &Path) -> Vec<std::path::PathBuf> {
    robust::Store::new(root).quarantined()
}

/// Store entry name of one core's profile. Every input that shapes the
/// profile is part of the key: the caller's generation tag, the core's
/// *content stamp* (its fingerprint, [`selenc::core_fingerprint`] — name,
/// geometry, cubes — which also picks the store shard), and both sampling
/// knobs, so editing a core or changing the sampling misses cleanly
/// instead of reusing a stale profile. The width budget is deliberately
/// *not* in the key: the entry's `# cover` line records how many widths
/// the stored profile spans, so one entry serves every budget up to that
/// bound and a wider budget extends the same entry in place.
fn profile_entry_name(
    cache: &ProfileCacheConfig,
    core: &str,
    stamp: u64,
    config: &DecisionConfig,
) -> String {
    let sample = config
        .pattern_sample
        .map_or_else(|| "full".to_string(), |s| s.to_string());
    let mcand = if config.m_candidates == usize::MAX {
        "max".to_string()
    } else {
        config.m_candidates.to_string()
    };
    format!("{}-{core}-{stamp:016x}-s{sample}-m{mcand}.csv", cache.tag)
}

/// Reads a cached profile, or `None` on any miss — the cache can only
/// ever save work, never corrupt a plan. The store verifies the entry's
/// checksum (quarantining a corrupt one, so only this core rebuilds);
/// the payload is a `# cover <n>` line — widths `1..=n` were fully
/// searched, so an absent entry at a width `≤ n` means that width class
/// is infeasible while widths `> n` were never evaluated — followed by
/// the profile CSV with its own trailer ([`CoreProfile::from_csv_checked`]).
fn read_cached_profile(
    cache: &ProfileCacheConfig,
    core: &str,
    stamp: u64,
    config: &DecisionConfig,
) -> Option<CachedProfile> {
    let name = profile_entry_name(cache, core, stamp, config);
    let robust::Lookup::Hit(bytes) = robust::Store::new(&cache.dir).get(stamp, &name) else {
        return None;
    };
    let (cover, body) = std::str::from_utf8(&bytes).ok()?.split_once('\n')?;
    let covered = cover.strip_prefix("# cover ")?.parse().ok()?;
    let profile = CoreProfile::from_csv_checked(core, body).ok()?;
    Some(CachedProfile { profile, covered })
}

/// Stores a profile covering widths `1..=covered` (best-effort; caching
/// must never fail the plan) and returns how many entries the store
/// evicted to stay within its caps.
fn write_cached_profile(
    cache: &ProfileCacheConfig,
    profile: &CoreProfile,
    stamp: u64,
    covered: u32,
    config: &DecisionConfig,
) -> u64 {
    let name = profile_entry_name(cache, profile.name(), stamp, config);
    let payload = format!("# cover {covered}\n{}", profile.to_csv());
    robust::Store::new(&cache.dir).put(stamp, &name, payload.as_bytes())
}

/// `(routed on-chip wires, ATE channels)` of a finished plan.
fn wire_accounting(
    mode: CompressionMode,
    budget: Budget,
    schedule: &Schedule,
    settings: &[CoreSetting],
) -> (u64, u32) {
    match (mode, budget) {
        (CompressionMode::PerTam, Budget::AteChannels(_)) => {
            // ATE channels feed per-TAM decompressors whose m wires are
            // routed across the chip to the cores.
            let routed: u64 = schedule
                .tam_widths()
                .iter()
                .enumerate()
                .map(|(j, &w)| {
                    if w >= SliceCode::MIN_TAM_WIDTH {
                        let class_max = *SliceCode::feasible_chains(w).end();
                        let widest_user = settings
                            .iter()
                            .filter(|s| s.tam == j)
                            .filter_map(|s| s.decompressor.map(|(_, m)| m))
                            .max()
                            .unwrap_or(w);
                        u64::from(widest_user.min(class_max))
                    } else {
                        u64::from(w)
                    }
                })
                .sum();
            (routed, schedule.total_width())
        }
        (CompressionMode::PerTam, Budget::TamWidth(_)) => {
            // Internal wires are the budget; each TAM's decompressor input
            // is the (much narrower) slice-code width.
            let channels: u32 = schedule
                .tam_widths()
                .iter()
                .map(|&m| SliceCode::for_chains(m.max(1)).tam_width().min(m.max(1)))
                .sum();
            (u64::from(schedule.total_width()), channels)
        }
        // Per-core decompression (and the other modes): the TAM wires are
        // what is routed, and the ATE drives them directly.
        _ => (u64::from(schedule.total_width()), schedule.total_width()),
    }
}

/// A finished SOC test plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The compression mode planned for.
    pub mode: CompressionMode,
    /// The budget the plan was built under.
    pub budget: Budget,
    /// SOC test time in clock cycles.
    pub test_time: u64,
    /// Total tester stimulus volume in bits.
    pub volume_bits: u64,
    /// The winning schedule (TAM widths + start times).
    pub schedule: Schedule,
    /// Per-core operating points, sorted by core id.
    pub core_settings: Vec<CoreSetting>,
    /// On-chip wires routed from the budget source to the cores.
    pub routed_wires: u64,
    /// Tester channels consumed.
    pub ate_channels: u32,
    /// Wall-clock time spent planning.
    pub cpu_time: Duration,
    /// How the architecture search concluded (always
    /// [`PlanOutcome::Optimal`] for unbounded [`Planner::plan`] runs).
    pub outcome: PlanOutcome,
}

impl Plan {
    /// The number of TAMs in the architecture.
    pub fn tam_count(&self) -> usize {
        self.schedule.tam_widths().len()
    }

    /// Cores whose plan instantiates a decompressor.
    pub fn compressed_core_count(&self) -> usize {
        self.core_settings
            .iter()
            .filter(|s| s.decompressor.is_some())
            .count()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] budget {:?}: τ = {} cycles, V = {} bits, {} TAMs, {} routed wires, {} ATE channels ({} ms)",
            self.mode.label(),
            self.budget,
            self.test_time,
            self.volume_bits,
            self.tam_count(),
            self.routed_wires,
            self.ate_channels,
            self.cpu_time.as_millis()
        )?;
        for s in &self.core_settings {
            write!(
                f,
                "  {:>12} on TAM{} (w={:>2}) start {:>10} τ={:>10} V={:>10}",
                s.name, s.tam, s.tam_width, s.start, s.test_time, s.volume_bits
            )?;
            match (s.decompressor, s.lfsr_len) {
                (Some((w, m)), Some(l)) => writeln!(f, "  reseed w={w} m={m} L={l}")?,
                (Some((w, m)), None) => writeln!(f, "  decomp {w}→{m}")?,
                _ => writeln!(f, "  {}", s.technique.label())?,
            }
        }
        Ok(())
    }
}

/// One core's final operating point in a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSetting {
    /// The core's id in the SOC.
    pub core: CoreId,
    /// The core's name.
    pub name: String,
    /// Index of its TAM.
    pub tam: usize,
    /// Width of its TAM.
    pub tam_width: u32,
    /// Scheduled start time.
    pub start: u64,
    /// Test time in cycles.
    pub test_time: u64,
    /// Tester data volume in bits.
    pub volume_bits: u64,
    /// Decompressor geometry `(w, m)` when one is instantiated.
    pub decompressor: Option<(u32, u32)>,
    /// Seed length when LFSR reseeding is used.
    pub lfsr_len: Option<u32>,
    /// The compression technique in use.
    pub technique: Technique,
}

/// Error produced by [`Planner::plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// A compression mode requires test cubes and this core has none.
    MissingTestSet {
        /// The offending core's name.
        core: String,
    },
    /// The architecture/scheduling layer failed.
    Schedule(ScheduleError),
    /// Plan-time stream verification failed: replaying a core's encoded
    /// test set through the decompressor emulator did not reconstruct
    /// every care bit (or produced a malformed stream). This signals an
    /// encoder/decoder defect or corrupted state — never a merely
    /// suboptimal plan — so the plan is withheld rather than returned
    /// unsound.
    StreamVerification {
        /// The offending core's name.
        core: String,
        /// The verifier's verdict.
        error: selenc::StreamError,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::MissingTestSet { core } => write!(
                f,
                "core {core:?} has no test set; synthesize or attach cubes first"
            ),
            PlanError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            PlanError::StreamVerification { core, error } => write!(
                f,
                "core {core:?} failed plan-time stream verification: {error}"
            ),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Schedule(e) => Some(e),
            PlanError::StreamVerification { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<ScheduleError> for PlanError {
    fn from(e: ScheduleError) -> Self {
        PlanError::Schedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::DecisionConfig;
    use soc_model::benchmarks::Design;
    use soc_model::Soc;

    fn industrial_soc() -> Soc {
        Design::System1.build_with_cubes(7)
    }

    fn fast(mut req: PlanRequest) -> PlanRequest {
        req.decisions = DecisionConfig {
            pattern_sample: Some(8),
            m_candidates: 8,
        };
        req
    }

    #[test]
    fn per_core_tdc_slashes_test_time_on_industrial_cores() {
        let soc = industrial_soc();
        let raw = Planner::no_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(32)))
            .unwrap();
        let tdc = Planner::per_core_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(32)))
            .unwrap();
        let ratio = raw.test_time as f64 / tdc.test_time as f64;
        assert!(ratio > 5.0, "time reduction only {ratio:.1}x");
        let vratio = raw.volume_bits as f64 / tdc.volume_bits as f64;
        assert!(vratio > 5.0, "volume reduction only {vratio:.1}x");
    }

    #[test]
    fn every_core_appears_once_with_consistent_settings() {
        let soc = industrial_soc();
        let plan = Planner::per_core_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(24)))
            .unwrap();
        assert_eq!(plan.core_settings.len(), soc.core_count());
        for (i, s) in plan.core_settings.iter().enumerate() {
            assert_eq!(s.core.0, i);
            assert!(s.tam < plan.tam_count());
            assert_eq!(s.tam_width, plan.schedule.tam_widths()[s.tam]);
            if let Some((w, m)) = s.decompressor {
                assert!(w <= s.tam_width, "decompressor input exceeds TAM");
                assert!(m >= w, "expansion requires m >= w");
            }
        }
        assert_eq!(
            plan.volume_bits,
            plan.core_settings
                .iter()
                .map(|s| s.volume_bits)
                .sum::<u64>()
        );
        assert_eq!(plan.test_time, plan.schedule.makespan());
    }

    #[test]
    fn fig4_per_core_matches_per_tam_time_with_narrower_routing() {
        // The paper's Fig. 4(b) vs (c): equal test time (same compression),
        // but per-core decompression routes far fewer on-chip wires under
        // an ATE-channel budget.
        let soc = industrial_soc();
        let per_tam = Planner::per_tam_tdc()
            .plan(&soc, &fast(PlanRequest::ate_channels(31)))
            .unwrap();
        let per_core = Planner::per_core_tdc()
            .plan(&soc, &fast(PlanRequest::ate_channels(31)))
            .unwrap();
        // Same order of test time (per-core may be better thanks to m
        // search)…
        assert!(per_core.test_time <= per_tam.test_time * 11 / 10);
        // …but the shared decompressors force wide expanded TAMs across
        // the chip.
        assert!(
            per_tam.routed_wires > 3 * per_core.routed_wires,
            "per-TAM routes {} wires vs per-core {}",
            per_tam.routed_wires,
            per_core.routed_wires
        );
    }

    #[test]
    fn per_tam_under_internal_budget_is_worse_than_under_ate_budget() {
        // [18]'s weakness per the paper: at a TAM-wire constraint the
        // SOC-level decompressor cannot shine, because its expansion *is*
        // the constrained resource.
        let soc = industrial_soc();
        let ate = Planner::per_tam_tdc()
            .plan(&soc, &fast(PlanRequest::ate_channels(32)))
            .unwrap();
        let tamw = Planner::per_tam_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(32)))
            .unwrap();
        assert!(tamw.test_time > ate.test_time);
        assert_eq!(tamw.routed_wires, 32);
    }

    #[test]
    fn fixed_width_is_dominated_by_free_width_choice() {
        let soc = industrial_soc();
        let fixed = Planner::fixed_width_tdc(4)
            .plan(&soc, &fast(PlanRequest::tam_width(16)))
            .unwrap();
        let free = Planner::per_core_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(16)))
            .unwrap();
        assert!(free.test_time <= fixed.test_time);
    }

    #[test]
    fn fixed_width_zero_is_unschedulable_like_widths_one_and_two() {
        // No slice code fits fewer than three wires, so no core gets a
        // decision at any width.
        let soc = Design::D695.build_with_cubes(1);
        let request = PlanRequest::tam_width(16);
        let unschedulable = |plan: Result<Plan, PlanError>| {
            matches!(
                plan,
                Err(PlanError::Schedule(ScheduleError::CoreUnschedulable { .. }))
            )
        };
        for w in [0, 1, 2] {
            assert!(
                unschedulable(Planner::fixed_width_tdc(w).plan(&soc, &request)),
                "w={w}"
            );
        }
        // A cancelled build degrades a pinned width to raw access only
        // where a complete build could have found an entry.
        let control = PlanControl::default();
        control.token.cancel();
        for w in [0, 1, 2] {
            let plan = Planner::fixed_width_tdc(w).plan_with(&soc, &request, &control);
            assert!(unschedulable(plan), "cancelled, w={w}");
        }
    }

    #[test]
    fn wider_budget_never_hurts() {
        let soc = industrial_soc();
        let narrow = Planner::per_core_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(16)))
            .unwrap();
        let wide = Planner::per_core_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(48)))
            .unwrap();
        assert!(wide.test_time <= narrow.test_time);
    }

    #[test]
    fn missing_test_set_reported_by_name() {
        let soc = Design::System1.build(); // no cubes
        let err = Planner::per_core_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(16)))
            .unwrap_err();
        assert!(matches!(err, PlanError::MissingTestSet { ref core } if core == "ckt-1"));
        // No-TDC planning works without cubes.
        assert!(Planner::no_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(16)))
            .is_ok());
    }

    #[test]
    fn zero_budget_is_a_schedule_error() {
        let soc = industrial_soc();
        assert!(matches!(
            Planner::no_tdc().plan(&soc, &fast(PlanRequest::tam_width(0))),
            Err(PlanError::Schedule(ScheduleError::BadPartition { .. }))
        ));
    }

    #[test]
    fn plan_display_lists_cores() {
        let soc = industrial_soc();
        let plan = Planner::per_core_tdc()
            .plan(&soc, &fast(PlanRequest::tam_width(16)))
            .unwrap();
        let s = plan.to_string();
        assert!(s.contains("ckt-1"));
        assert!(s.contains("TDC/core"));
    }

    #[test]
    fn budget_width_accessor() {
        assert_eq!(Budget::TamWidth(9).width(), 9);
        assert_eq!(Budget::AteChannels(4).width(), 4);
    }

    #[test]
    fn plan_with_default_control_matches_plan() {
        let soc = industrial_soc();
        let req = fast(PlanRequest::tam_width(24));
        let plain = Planner::per_core_tdc().plan(&soc, &req).unwrap();
        let controlled = Planner::per_core_tdc()
            .plan_with(&soc, &req, &PlanControl::default())
            .unwrap();
        assert_eq!(plain.test_time, controlled.test_time);
        assert_eq!(plain.schedule, controlled.schedule);
        assert_eq!(plain.outcome, PlanOutcome::Optimal);
    }

    #[test]
    fn tight_deadline_on_large_soc_degrades_but_delivers() {
        // The acceptance scenario: a deadline far below what the full
        // search needs must still produce a valid plan, marked degraded
        // (or interrupted), and return promptly.
        let soc = Design::P93791.build_with_cubes(11);
        let req = fast(PlanRequest::tam_width(32));
        // Asserting the deadline is honoured requires reading the clock.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        let plan = Planner::per_core_tdc()
            .plan_with(
                &soc,
                &req,
                &PlanControl::with_deadline(Duration::from_millis(100)),
            )
            .unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "deadline ignored: took {:?}",
            t0.elapsed()
        );
        assert_eq!(plan.core_settings.len(), soc.core_count());
        assert_eq!(plan.test_time, plan.schedule.makespan());
        // 100 ms cannot cover the full-fidelity table build + search on
        // ~100k flip-flops, so the run must report it was cut short.
        assert!(!plan.outcome.is_complete(), "outcome: {:?}", plan.outcome);
    }

    #[test]
    fn cancelled_token_interrupts_planning() {
        let soc = industrial_soc();
        let req = fast(PlanRequest::tam_width(24));
        let control = PlanControl {
            deadline: robust::Deadline::within(Duration::from_secs(60)),
            ..PlanControl::default()
        };
        control.token.cancel();
        let plan = Planner::per_core_tdc()
            .plan_with(&soc, &req, &control)
            .unwrap();
        assert!(matches!(plan.outcome, PlanOutcome::Interrupted(_)));
        assert_eq!(plan.core_settings.len(), soc.core_count());
    }

    /// A fresh, empty cache directory unique to `name` (removed first, so
    /// reruns start cold).
    fn cache_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tdcsoc-plancache-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cached_control(dir: &Path) -> PlanControl {
        PlanControl::default().cache_profiles_in(dir, "t")
    }

    #[test]
    fn profile_cache_misses_cold_and_hits_warm() {
        let soc = industrial_soc();
        let req = fast(PlanRequest::tam_width(16));
        let dir = cache_dir("warm");
        let control = cached_control(&dir);
        let (cold, s1) = Planner::per_core_tdc()
            .plan_with_stats(&soc, &req, &control)
            .unwrap();
        assert_eq!(s1.profile_misses, soc.core_count());
        assert_eq!(s1.profile_hits, 0);
        assert_eq!(s1.widths_computed, 16 * soc.core_count() as u64);
        let (warm, s2) = Planner::per_core_tdc()
            .plan_with_stats(&soc, &req, &control)
            .unwrap();
        assert_eq!(s2.profile_hits, soc.core_count());
        assert_eq!(s2.profile_misses, 0);
        assert_eq!(s2.widths_computed, 0);
        assert_eq!(cold.test_time, warm.test_time);
        assert_eq!(cold.core_settings, warm.core_settings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wider_budget_extends_cached_profiles_in_place() {
        let soc = industrial_soc();
        let dir = cache_dir("extend");
        let control = cached_control(&dir);
        let planner = Planner::per_core_tdc();
        planner
            .plan_with(&soc, &fast(PlanRequest::tam_width(12)), &control)
            .unwrap();
        // The wider run reuses the 12 cached widths per core and computes
        // only the new ones — the width budget is not part of the key.
        let (wide, stats) = planner
            .plan_with_stats(&soc, &fast(PlanRequest::tam_width(20)), &control)
            .unwrap();
        assert_eq!(stats.profile_partial_hits, soc.core_count());
        assert_eq!(stats.widths_reused, 12 * soc.core_count() as u64);
        assert_eq!(stats.widths_computed, 8 * soc.core_count() as u64);
        // Bit-identical to a cold wide plan.
        let cold = planner
            .plan(&soc, &fast(PlanRequest::tam_width(20)))
            .unwrap();
        assert_eq!(wide.core_settings, cold.core_settings);
        assert_eq!(wide.test_time, cold.test_time);
        // And now fully covered: a third run is all hits.
        let (_, s3) = planner
            .plan_with_stats(&soc, &fast(PlanRequest::tam_width(20)), &control)
            .unwrap();
        assert_eq!(s3.profile_hits, soc.core_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_rebuilds_only_that_core() {
        let soc = industrial_soc();
        let req = fast(PlanRequest::tam_width(16));
        let dir = cache_dir("corrupt");
        let control = cached_control(&dir);
        let planner = Planner::per_core_tdc();
        let baseline = planner.plan_with(&soc, &req, &control).unwrap();

        // Corrupt exactly one core's entry (flip a digit in a data row; the
        // entry checksum catches it) and snapshot the others.
        let entries = profile_cache_entries(&dir);
        assert_eq!(entries.len(), soc.core_count());
        let victim = &entries[0];
        let text = std::fs::read_to_string(victim).unwrap();
        let flipped: String = text
            .lines()
            .map(|l| {
                if l.starts_with('#') || l.starts_with("w,") || l.is_empty() {
                    l.to_string()
                } else {
                    let mut s = l.to_string();
                    let last = s.pop().unwrap();
                    s.push(if last == '9' { '8' } else { '9' });
                    s
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(victim, flipped).unwrap();
        let untouched: Vec<(std::path::PathBuf, String)> = entries[1..]
            .iter()
            .map(|p| (p.clone(), std::fs::read_to_string(p).unwrap()))
            .collect();

        let (replan, stats) = planner.plan_with_stats(&soc, &req, &control).unwrap();
        assert_eq!(stats.profile_misses, 1, "only the corrupt core rebuilds");
        assert_eq!(stats.profile_hits, soc.core_count() - 1);
        assert_eq!(replan.core_settings, baseline.core_settings);
        // The corrupt entry was quarantined, not silently re-read.
        assert_eq!(quarantined_profiles(&dir).len(), 1);
        // Every other entry is byte-identical (no gratuitous rewrites).
        for (p, before) in untouched {
            assert_eq!(std::fs::read_to_string(&p).unwrap(), before, "{p:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plans_are_stream_verified_by_default() {
        let soc = industrial_soc();
        let req = fast(PlanRequest::tam_width(24));
        let (plan, stats) = Planner::per_core_tdc()
            .plan_with_stats(&soc, &req, &PlanControl::default())
            .unwrap();
        assert_eq!(stats.streams_verified, plan.compressed_core_count());
        assert!(stats.streams_verified > 0, "industrial cores compress");
        // The fanned-out check counts exactly what one sequential pass
        // over each compressed core counts.
        let sequential: u64 = plan
            .core_settings
            .iter()
            .filter_map(|s| {
                let (_, m) = s.decompressor?;
                selenc::verify_operating_point(&soc.cores()[s.core.0], m).ok()
            })
            .map(|report| report.codewords)
            .sum();
        assert!(sequential > 0);
        assert_eq!(stats.stream_words, sequential);
        // Opting out skips the replay but changes nothing else.
        let (same, none) = Planner::per_core_tdc()
            .plan_with_stats(
                &soc,
                &req,
                &PlanControl::default().without_stream_verification(),
            )
            .unwrap();
        assert_eq!(none.streams_verified, 0);
        assert_eq!(none.stream_words, 0);
        assert_eq!(same.core_settings, plan.core_settings);
    }

    #[test]
    fn stream_reduction_reports_the_first_failing_core_and_pattern() {
        let names = ["a", "b", "c"];
        let ok = |codewords| {
            Ok(selenc::StreamReport {
                patterns: 1,
                codewords,
            })
        };
        let fail = |decoded| {
            Err(selenc::StreamError::SliceCountMismatch {
                expected: 9,
                decoded,
            })
        };
        let verdict = |stream, first, result| ChunkVerdict {
            stream,
            first,
            result,
        };
        let clean = vec![
            verdict(0, 0, ok(5)),
            verdict(0, 4, ok(6)),
            verdict(2, 0, ok(7)),
        ];
        assert_eq!(reduce_stream_verdicts(&names, clean), Ok(18));
        assert_eq!(reduce_stream_verdicts(&[], Vec::new()), Ok(0));

        // Core "b" fails in two runs and core "c" in one; the sequential
        // loop would stop at "b"'s run starting at pattern 3.
        let verdicts = vec![
            verdict(0, 0, ok(5)),
            verdict(1, 0, ok(2)),
            verdict(1, 3, fail(1)),
            verdict(1, 6, fail(2)),
            verdict(2, 0, fail(3)),
        ];
        let expect = Err(PlanError::StreamVerification {
            core: "b".into(),
            error: selenc::StreamError::SliceCountMismatch {
                expected: 9,
                decoded: 1,
            },
        });
        // Whatever order the runs finish in.
        for rotation in 0..verdicts.len() {
            let mut order = verdicts.clone();
            order.rotate_left(rotation);
            assert_eq!(reduce_stream_verdicts(&names, order.clone()), expect);
            order.reverse();
            assert_eq!(reduce_stream_verdicts(&names, order), expect);
        }
    }

    #[test]
    fn verify_chunks_split_by_slice_count_alone() {
        for (patterns, depth) in [(0, 10), (1, 1), (7, 0), (419, 421), (3, 100_000), (5000, 1)] {
            let per_chunk = verify_chunk_patterns(patterns, depth);
            assert!(per_chunk >= 1, "({patterns}, {depth})");
            let runs = patterns.div_ceil(per_chunk) as u64;
            let slices = patterns as u64 * depth;
            // Never more runs than the slice budget asks for, and a core
            // above the budget is always split.
            assert!(
                runs <= slices.div_ceil(VERIFY_CHUNK_SLICES).max(1),
                "({patterns}, {depth})"
            );
            if slices > VERIFY_CHUNK_SLICES && patterns > 1 {
                assert!(runs > 1, "({patterns}, {depth})");
            }
        }
    }

    #[test]
    fn cpu_time_covers_stream_verification() {
        // A warm-cache replan reads every profile from disk, so verifying
        // its streams is most of the call: a cpu_time stamped before
        // verification would cover well under half of it.
        let soc = Design::P34392.build_with_cubes(7);
        let mut req = fast(PlanRequest::tam_width(24));
        req.architecture.workers = Some(1);
        let dir = cache_dir("cpu-time");
        let control = cached_control(&dir);
        let planner = Planner::per_core_tdc();
        planner.plan_with(&soc, &req, &control).unwrap();
        // Timing the call is the point of the test.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        let (plan, stats) = planner.plan_with_stats(&soc, &req, &control).unwrap();
        let call = t0.elapsed();
        assert_eq!(stats.profile_hits, soc.core_count());
        assert!(stats.streams_verified > 0);
        assert!(
            plan.cpu_time * 2 >= call,
            "cpu_time {:?} of a {call:?} call",
            plan.cpu_time
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_verification_error_displays_core_name() {
        let err = PlanError::StreamVerification {
            core: "ckt-9".into(),
            error: selenc::StreamError::SliceCountMismatch {
                expected: 4,
                decoded: 3,
            },
        };
        let s = err.to_string();
        assert!(s.contains("ckt-9"), "{s}");
        assert!(s.contains("verification"), "{s}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn checkpoint_is_written_and_resume_seeds_the_search() {
        let soc = industrial_soc();
        let req = fast(PlanRequest::tam_width(24));
        let dir = std::env::temp_dir().join("tdcsoc-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incumbent.plan");
        let _ = std::fs::remove_file(&path);

        // A comfortable deadline: runs to completion, checkpointing along
        // the way.
        let control = PlanControl::with_deadline(Duration::from_secs(120)).checkpoint_to(&path);
        let full = Planner::per_core_tdc()
            .plan_with(&soc, &req, &control)
            .unwrap();
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        let checkpoint = crate::planfile::parse_plan(&text).unwrap();
        assert_eq!(checkpoint.test_time, full.test_time);

        // Resuming from the checkpoint (same request, fresh budget): the
        // resumed incumbent seeds the search, so the plan can never be
        // worse than the checkpoint.
        let control = PlanControl {
            deadline: robust::Deadline::within(Duration::from_secs(120)),
            resume: Some(checkpoint.clone()),
            ..PlanControl::default()
        };
        let resumed = Planner::per_core_tdc()
            .plan_with(&soc, &req, &control)
            .unwrap();
        assert!(resumed.test_time <= checkpoint.test_time);

        // A checkpoint from an incompatible budget is discarded, not
        // trusted.
        let control = PlanControl {
            deadline: robust::Deadline::within(Duration::from_secs(120)),
            resume: Some(checkpoint),
            ..PlanControl::default()
        };
        let other = Planner::per_core_tdc()
            .plan_with(&soc, &fast(PlanRequest::tam_width(16)), &control)
            .unwrap();
        assert_eq!(other.schedule.total_width(), 16);
        let _ = std::fs::remove_file(&path);
    }
}
