//! The deadline-aware solver cascade and its execution controls.
//!
//! [`Planner::plan`](crate::Planner::plan) runs the paper's deterministic
//! hill-climber with no time bound. [`Planner::plan_with`]
//! (crate::Planner::plan_with) layers a fault-tolerant execution harness
//! on top: a wall-clock [`Deadline`], a cooperative [`CancelToken`], and a
//! degradation ladder over the architecture solvers —
//!
//! 1. **greedy** — the hill-climbing constructive heuristic; fast, always
//!    produces a feasible incumbent (the single-TAM baseline survives even
//!    an already-expired deadline);
//! 2. **exhaustive** — the provably optimal enumeration, attempted only
//!    under a bounded deadline and only when the instance fits the
//!    enumeration cap; it runs inside a slice of the remaining budget and
//!    is cut off cooperatively when the slice expires;
//! 3. **anneal** — simulated annealing warm-started from the incumbent,
//!    spending whatever budget remains on refinement.
//!
//! Each stage hands its incumbent to the next; the final
//! [`PlanOutcome`] records which stage produced the winning schedule and
//! whether the search ran to completion ([`PlanOutcome::Optimal`]), was
//! cut short by the deadline ([`PlanOutcome::Degraded`]), or was cancelled
//! externally ([`PlanOutcome::Interrupted`]).

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use robust::{CancelToken, Deadline};
use tam::{
    anneal_architecture_with, exhaustive_architecture_with, optimize_architecture_with,
    AnnealOptions, Architecture, ArchitectureOptions, CostModel, ScheduleError,
};

use crate::planner::Plan;

/// Fraction of the remaining budget the greedy hill-climber may consume
/// before the cascade moves on.
const GREEDY_SLICE: f64 = 0.35;
/// Fraction of the *then-remaining* budget granted to the exhaustive
/// stage; the rest is kept for annealing refinement.
const EXHAUSTIVE_SLICE: f64 = 0.5;
/// Restart chains for the annealing stage. Fixed (not derived from the
/// machine) so a plan is reproducible on any host; the chains share the
/// worker pool of the surrounding search.
const ANNEAL_CHAINS: u32 = 2;

/// Execution controls for [`Planner::plan_with`](crate::Planner::plan_with).
#[derive(Debug, Clone, Default)]
pub struct PlanControl {
    /// Wall-clock budget for the whole plan (tables + architecture
    /// search). [`Deadline::none`] (the default) disables the cascade and
    /// reproduces [`Planner::plan`](crate::Planner::plan) exactly.
    pub deadline: Deadline,
    /// External kill switch. Cancelling it stops every solver loop at the
    /// next check and yields the best incumbent as
    /// [`PlanOutcome::Interrupted`].
    pub token: CancelToken,
    /// When set, the incumbent schedule is serialized here (atomically,
    /// best-effort) after every improving stage, so a killed run can
    /// restart from its best-known plan via [`PlanControl::resume`].
    pub checkpoint: Option<PathBuf>,
    /// A previously checkpointed plan to resume from. Its schedule seeds
    /// the incumbent when it validates against the freshly built cost
    /// model; an incompatible or stale checkpoint is silently discarded
    /// (robustness over strictness — a bad checkpoint must never make a
    /// plan worse than planning from scratch).
    pub resume: Option<Plan>,
    /// When set, per-core decision profiles are cached in this on-disk
    /// store: a planning run re-reads matching profiles instead of
    /// rebuilding them (the dominant cost of a plan) and writes any it had
    /// to build. All cache traffic is best-effort — an unreadable, corrupt
    /// or stale entry simply means rebuilding, never a worse plan.
    pub profile_cache: Option<ProfileCacheConfig>,
    /// Opts out of stream verification. By default (`false`) every
    /// selective-encoding operating point a finished plan instantiates is
    /// re-encoded and replayed through the column decoder
    /// ([`selenc::verify_test_set_stream`]) before the plan is returned, so
    /// a plan in hand is a plan whose compressed streams provably
    /// reconstruct every care bit. Skipping trades that guarantee for the
    /// (cheap) verification time.
    pub skip_stream_verification: bool,
}

/// Where [`PlanControl::profile_cache`] keeps per-core profiles: one
/// [`robust::Store`] entry per core, under the store's constant caps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileCacheConfig {
    /// Cache directory (created on demand).
    pub dir: PathBuf,
    /// Distinguishes incompatible profile generations (design, pattern
    /// seed, sampling parameters); part of every entry's key, so
    /// changing any generation input misses cleanly instead of reusing a
    /// wrong profile.
    pub tag: String,
}

impl ProfileCacheConfig {
    /// A cache under `dir` keyed by `tag`.
    pub fn new(dir: impl Into<PathBuf>, tag: impl Into<String>) -> Self {
        ProfileCacheConfig {
            dir: dir.into(),
            tag: tag.into(),
        }
    }
}

impl PlanControl {
    /// A control block with a wall-clock budget and no other constraints.
    pub fn with_deadline(budget: Duration) -> Self {
        PlanControl {
            deadline: Deadline::within(budget),
            ..PlanControl::default()
        }
    }

    /// Adds a checkpoint path.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Adds a plan to resume from.
    pub fn resume_from(mut self, plan: Plan) -> Self {
        self.resume = Some(plan);
        self
    }

    /// Caches per-core profiles under `dir`, keyed by `tag`.
    pub fn cache_profiles_in(mut self, dir: impl Into<PathBuf>, tag: impl Into<String>) -> Self {
        self.profile_cache = Some(ProfileCacheConfig::new(dir, tag));
        self
    }

    /// Disables plan-time stream verification (see
    /// [`skip_stream_verification`](PlanControl::skip_stream_verification)).
    pub fn without_stream_verification(mut self) -> Self {
        self.skip_stream_verification = true;
        self
    }
}

/// The solver that produced a plan's final schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverStage {
    /// The schedule came from a resumed checkpoint that no later stage
    /// improved on.
    Resume,
    /// The greedy hill-climber ([`tam::optimize_architecture`]).
    Greedy,
    /// The exhaustive enumeration ([`tam::exhaustive_architecture`]).
    Exhaustive,
    /// Simulated annealing ([`tam::anneal_architecture`]).
    Anneal,
}

impl SolverStage {
    /// Stable keyword used in plan files.
    pub fn keyword(self) -> &'static str {
        match self {
            SolverStage::Resume => "resume",
            SolverStage::Greedy => "greedy",
            SolverStage::Exhaustive => "exhaustive",
            SolverStage::Anneal => "anneal",
        }
    }

    /// Parses a plan-file keyword.
    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "resume" => SolverStage::Resume,
            "greedy" => SolverStage::Greedy,
            "exhaustive" => SolverStage::Exhaustive,
            "anneal" => SolverStage::Anneal,
            _ => return None,
        })
    }
}

impl fmt::Display for SolverStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// How a plan's architecture search concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanOutcome {
    /// The search ran everything it intended to within its budget. When
    /// the exhaustive stage finished, the schedule is provably optimal;
    /// otherwise this simply asserts that no stage was cut short.
    #[default]
    Optimal,
    /// The deadline expired mid-search: the plan is the best incumbent,
    /// produced by the recorded stage.
    Degraded(SolverStage),
    /// The cancel token was tripped externally: the plan is the best
    /// incumbent at the moment of cancellation.
    Interrupted(SolverStage),
}

impl PlanOutcome {
    /// True when no stage was cut short.
    pub fn is_complete(self) -> bool {
        matches!(self, PlanOutcome::Optimal)
    }

    /// The stage that produced the schedule (`None` for complete runs,
    /// where the distinction carries no recovery information).
    pub fn stage(self) -> Option<SolverStage> {
        match self {
            PlanOutcome::Optimal => None,
            PlanOutcome::Degraded(s) | PlanOutcome::Interrupted(s) => Some(s),
        }
    }
}

impl fmt::Display for PlanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanOutcome::Optimal => f.write_str("optimal"),
            PlanOutcome::Degraded(s) => write!(f, "degraded {s}"),
            PlanOutcome::Interrupted(s) => write!(f, "interrupted {s}"),
        }
    }
}

/// Result of [`solve`]: the winning architecture plus recovery metadata.
pub(crate) struct CascadeResult {
    pub architecture: Architecture,
    pub outcome: PlanOutcome,
}

/// Runs the degradation ladder over the architecture solvers.
///
/// `incumbent` optionally seeds the search (a resumed checkpoint);
/// `on_improve` fires whenever a stage strictly improves the incumbent —
/// the planner uses it to write checkpoints.
///
/// # Errors
///
/// Propagates genuine infeasibility ([`ScheduleError::BadPartition`],
/// [`ScheduleError::CoreUnschedulable`]) from the greedy stage; deadline
/// expiry and cancellation are never errors once any incumbent exists.
pub(crate) fn solve(
    cost: &CostModel,
    total_width: u32,
    opts: &ArchitectureOptions,
    token: &CancelToken,
    incumbent: Option<(Architecture, SolverStage)>,
    on_improve: &mut dyn FnMut(&Architecture, SolverStage),
) -> Result<CascadeResult, ScheduleError> {
    let bounded = token.deadline().remaining().is_some();
    let mut incumbent = incumbent;
    let mut cut_short = false;
    let mut proven_optimal = false;

    let mut consider =
        |arch: Architecture,
         stage: SolverStage,
         incumbent: &mut Option<(Architecture, SolverStage)>| {
            let better = incumbent
                .as_ref()
                .is_none_or(|(best, _)| arch.test_time < best.test_time);
            if better {
                on_improve(&arch, stage);
                *incumbent = Some((arch, stage));
            }
        };

    // Stage 1: greedy hill-climb. Always attempted — it degrades
    // internally to the single-TAM baseline when the budget is already
    // spent, so this is the floor that guarantees an incumbent (or a
    // genuine infeasibility error).
    let slice = if bounded {
        token.with_deadline(token.deadline().fraction(GREEDY_SLICE))
    } else {
        token.clone()
    };
    match optimize_architecture_with(cost, total_width, opts, &slice) {
        Ok(search) => {
            if !search.is_complete() {
                cut_short = true;
            }
            consider(search.architecture, SolverStage::Greedy, &mut incumbent);
        }
        Err(ScheduleError::Interrupted) => cut_short = true,
        Err(e) => {
            if incumbent.is_none() {
                return Err(e);
            }
        }
    }

    // Stage 2: exhaustive enumeration — only inside a bounded deadline
    // (it is far too expensive to run unasked) and only while time
    // remains. Oversized instances surface as `BadPartition` and are
    // skipped without penalty.
    if bounded && !token.is_cancelled() {
        let slice = token.with_deadline(token.deadline().fraction(EXHAUSTIVE_SLICE));
        match exhaustive_architecture_with(cost, total_width, &slice) {
            Ok(search) => {
                if search.is_complete() {
                    proven_optimal = true;
                } else {
                    cut_short = true;
                }
                consider(search.architecture, SolverStage::Exhaustive, &mut incumbent);
            }
            Err(ScheduleError::Interrupted) => cut_short = true,
            Err(_) => {} // instance too large for enumeration: skip
        }
    }

    // Stage 3: annealing refinement on the remaining budget, warm-started
    // from the incumbent. Pointless after a completed exhaustive stage.
    if bounded && !proven_optimal {
        if token.is_cancelled() {
            cut_short = true;
        } else {
            let warm: Option<Vec<u32>> = incumbent
                .as_ref()
                .map(|(best, _)| best.schedule.tam_widths().to_vec());
            let anneal_opts = AnnealOptions {
                chains: ANNEAL_CHAINS,
                workers: opts.workers,
                ..AnnealOptions::default()
            };
            match anneal_architecture_with(cost, total_width, &anneal_opts, warm.as_deref(), token)
            {
                Ok(search) => {
                    if !search.is_complete() {
                        cut_short = true;
                    }
                    consider(search.architecture, SolverStage::Anneal, &mut incumbent);
                }
                Err(ScheduleError::Interrupted) => cut_short = true,
                Err(_) => {}
            }
        }
    }

    let (architecture, stage) = incumbent.ok_or(ScheduleError::Interrupted)?;
    let outcome = if proven_optimal {
        PlanOutcome::Optimal
    } else if token.cancel_requested() {
        PlanOutcome::Interrupted(stage)
    } else if cut_short {
        PlanOutcome::Degraded(stage)
    } else {
        PlanOutcome::Optimal
    };
    Ok(CascadeResult {
        architecture,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::from_fn(&["a", "b", "c", "d"], 8, |i, w| {
            Some(9_000 * (i as u64 + 1) / u64::from(w) + 17)
        })
    }

    #[test]
    fn unbounded_cascade_matches_hill_climber() {
        let c = cost();
        let opts = ArchitectureOptions::default();
        let plain = tam::optimize_architecture(&c, 8, &opts).unwrap();
        let result = solve(&c, 8, &opts, &CancelToken::never(), None, &mut |_, _| {}).unwrap();
        assert_eq!(result.outcome, PlanOutcome::Optimal);
        assert_eq!(result.architecture, plain);
    }

    #[test]
    fn bounded_cascade_reaches_exhaustive_optimum() {
        let c = cost();
        let opts = ArchitectureOptions::default();
        let oracle = tam::exhaustive_architecture(&c, 8).unwrap();
        let token = CancelToken::expiring_in(Duration::from_secs(30));
        let result = solve(&c, 8, &opts, &token, None, &mut |_, _| {}).unwrap();
        assert_eq!(result.outcome, PlanOutcome::Optimal);
        assert_eq!(result.architecture.test_time, oracle.test_time);
    }

    #[test]
    fn expired_deadline_degrades_but_stays_feasible() {
        let c = cost();
        let token = CancelToken::expiring_in(Duration::ZERO);
        let result = solve(
            &c,
            8,
            &ArchitectureOptions::default(),
            &token,
            None,
            &mut |_, _| {},
        )
        .unwrap();
        assert!(matches!(result.outcome, PlanOutcome::Degraded(_)));
        result.architecture.schedule.validate(&c).unwrap();
    }

    #[test]
    fn external_cancel_reports_interrupted() {
        let c = cost();
        let token = CancelToken::expiring_in(Duration::from_secs(30));
        token.cancel();
        let result = solve(
            &c,
            8,
            &ArchitectureOptions::default(),
            &token,
            None,
            &mut |_, _| {},
        )
        .unwrap();
        assert!(matches!(result.outcome, PlanOutcome::Interrupted(_)));
        result.architecture.schedule.validate(&c).unwrap();
    }

    #[test]
    fn resume_incumbent_survives_when_unbeaten() {
        let c = cost();
        let oracle = tam::exhaustive_architecture(&c, 8).unwrap();
        let token = CancelToken::expiring_in(Duration::ZERO);
        let result = solve(
            &c,
            8,
            &ArchitectureOptions::default(),
            &token,
            Some((oracle.clone(), SolverStage::Resume)),
            &mut |_, _| {},
        )
        .unwrap();
        // Nothing can beat the optimum, so the resumed incumbent wins.
        assert_eq!(result.architecture.test_time, oracle.test_time);
    }

    #[test]
    fn on_improve_fires_for_strict_improvements_only() {
        let c = cost();
        let token = CancelToken::expiring_in(Duration::from_secs(30));
        let mut improvements = Vec::new();
        let result = solve(
            &c,
            8,
            &ArchitectureOptions::default(),
            &token,
            None,
            &mut |arch, stage| improvements.push((arch.test_time, stage)),
        )
        .unwrap();
        assert!(!improvements.is_empty());
        for pair in improvements.windows(2) {
            assert!(pair[1].0 < pair[0].0, "non-improving checkpoint");
        }
        let last = improvements.last().unwrap();
        assert_eq!(last.0, result.architecture.test_time);
    }

    #[test]
    fn outcome_serialization_roundtrips() {
        for outcome in [
            PlanOutcome::Optimal,
            PlanOutcome::Degraded(SolverStage::Greedy),
            PlanOutcome::Interrupted(SolverStage::Anneal),
            PlanOutcome::Degraded(SolverStage::Exhaustive),
            PlanOutcome::Interrupted(SolverStage::Resume),
        ] {
            let text = outcome.to_string();
            let mut parts = text.split_whitespace();
            let parsed = match (parts.next(), parts.next()) {
                (Some("optimal"), None) => PlanOutcome::Optimal,
                (Some("degraded"), Some(s)) => {
                    PlanOutcome::Degraded(SolverStage::from_keyword(s).unwrap())
                }
                (Some("interrupted"), Some(s)) => {
                    PlanOutcome::Interrupted(SolverStage::from_keyword(s).unwrap())
                }
                other => panic!("bad outcome text {other:?}"),
            };
            assert_eq!(parsed, outcome);
        }
    }
}
