//! The planning engine that `soctdc plan`, `serve` and `fleet` drive. A
//! surface states a [`Job`] and a [`PlanControl`] (deadline, cancel token,
//! checkpoint, resume, stream verification); the [`Engine`] builds the SOC
//! through its [`SocCache`], looks up the mode's planner, and files the
//! SOC's per-core profiles in its profile-cache root under one tag.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;

use robust::CacheStats;
use soc_model::Soc;

use crate::source::{planner_for, SocCache, SocSource};
use crate::{Plan, PlanControl, PlanError, PlanRequest, PlanStats, ProfileCacheConfig};

/// One planning job: the SOC (source, seed, density), the planner mode
/// and the request. Two jobs are equal when they plan the same: every
/// field agrees, the density only where the source reads it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Where the SOC comes from.
    pub source: SocSource,
    /// The cube-synthesis seed.
    pub seed: u64,
    /// The care density for ITC'02 sources; builtin designs and
    /// simple-format files carry their own and ignore it.
    pub density: f64,
    /// The planner mode keyword ([`planner_for`]).
    pub mode: String,
    /// The budget, fidelity and search knobs.
    pub request: PlanRequest,
}

/// What a job's per-core profiles are cached under: source, seed, the bits
/// of the density the source reads, pattern sample and `m` candidates;
/// not mode or width, as every profile-reading mode shares the entries
/// and a profile at one width answers every narrower one.
pub type ProfileKey<'a> = (&'a SocSource, u64, Option<u64>, Option<usize>, usize);

impl Job {
    /// The job's SOC: source, seed and the bits of the density it reads.
    fn soc_key(&self) -> (&SocSource, u64, Option<u64>) {
        let density = self.source.density(self.density).map(f64::to_bits);
        (&self.source, self.seed, density)
    }

    /// The job's [`ProfileKey`], when its planner reads the profile cache.
    pub fn profile_key(&self) -> Option<ProfileKey<'_>> {
        let reads = planner_for(&self.mode).is_some_and(|p| p.reads_profile_cache());
        let (source, seed, density) = self.soc_key();
        let d = &self.request.decisions;
        reads.then_some((source, seed, density, d.pattern_sample, d.m_candidates))
    }
}

impl PartialEq for Job {
    fn eq(&self, other: &Job) -> bool {
        self.soc_key() == other.soc_key()
            && self.mode == other.mode
            && self.request == other.request
    }
}

/// Why a job did not plan.
#[derive(Debug)]
pub enum JobError {
    /// The mode keyword names no planner.
    UnknownMode(String),
    /// The SOC source could not be read.
    Read(String),
    /// The source's content builds no SOC.
    Build(String),
    /// The planner failed.
    Plan(PlanError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::UnknownMode(mode) => write!(f, "unknown mode `{mode}`"),
            JobError::Read(message) | JobError::Build(message) => f.write_str(message),
            JobError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Turns jobs into plans, sharing built SOCs and on-disk profiles across
/// every job it runs; safe to share between threads.
#[derive(Debug)]
pub struct Engine {
    socs: SocCache,
    profile_cache: Option<PathBuf>,
}

impl Engine {
    /// An engine with an empty SOC cache that keeps per-core profiles
    /// under `profile_cache`, when set.
    pub fn new(profile_cache: Option<PathBuf>) -> Engine {
        Engine {
            socs: SocCache::new(),
            profile_cache,
        }
    }

    /// The worker count a `--workers` value asks for: `0` is one per
    /// available CPU.
    pub fn workers(requested: usize) -> usize {
        match requested {
            0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            n => n,
        }
    }

    /// The SOC built from `source`, `seed` and `density`, from the SOC
    /// cache or built into it. The source is read on every call, so an
    /// edited file is a new SOC rather than a stale hit; a source that
    /// cannot be read or builds no SOC is a [`JobError::Read`] or
    /// [`JobError::Build`].
    pub fn soc(&self, source: &SocSource, seed: u64, density: f64) -> Result<Arc<Soc>, JobError> {
        let content = source.read().map_err(JobError::Read)?;
        self.socs
            .get(content, seed, density)
            .map_err(JobError::Build)
    }

    /// Plans `job` under the caller's `control`, whose profile cache the
    /// engine sets: its own root, or none. Fails as [`Engine::soc`], then
    /// with [`JobError::UnknownMode`] or [`JobError::Plan`].
    pub fn plan(&self, job: &Job, control: PlanControl) -> Result<(Plan, PlanStats), JobError> {
        let soc = self.soc(&job.source, job.seed, job.density)?;
        let planner =
            planner_for(&job.mode).ok_or_else(|| JobError::UnknownMode(job.mode.clone()))?;
        let control = PlanControl {
            profile_cache: self
                .profile_cache
                .as_ref()
                .map(|dir| ProfileCacheConfig::new(dir, profile_tag(&soc, job))),
            ..control
        };
        planner
            .plan_with_stats(&soc, &job.request, &control)
            .map_err(JobError::Plan)
    }

    /// Hit, miss and eviction counters of the SOC cache.
    pub fn soc_stats(&self) -> CacheStats {
        self.socs.stats()
    }
}

/// The profile-cache tag of a job's SOC (the planner adds width and
/// fidelity to each file name): the SOC's name, the seed and the density,
/// where the source reads one.
fn profile_tag(soc: &Soc, job: &Job) -> String {
    match job.source.density(job.density) {
        Some(d) => format!("{}-seed{}-d{d:.3}", soc.name(), job.seed),
        None => format!("{}-seed{}", soc.name(), job.seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Planner;
    use soc_model::benchmarks::Design;

    fn job(source: SocSource, density: f64, mode: &str) -> Job {
        Job {
            source,
            seed: 2008,
            density,
            mode: mode.into(),
            request: PlanRequest::tam_width(12),
        }
    }

    #[test]
    fn the_density_counts_only_where_the_source_reads_it() {
        let soc = Design::D695.build();
        let builtin = || SocSource::Builtin("d695".into());
        assert_eq!(
            job(builtin(), 0.66, "per-core"),
            job(builtin(), 0.02, "per-core")
        );
        assert_eq!(
            profile_tag(&soc, &job(builtin(), 0.66, "per-core")),
            "d695-seed2008"
        );
        let itc02 = || SocSource::Itc02File("d695.soc".into());
        assert_ne!(
            job(itc02(), 0.66, "per-core"),
            job(itc02(), 0.02, "per-core")
        );
        assert_eq!(
            profile_tag(&soc, &job(itc02(), 0.66, "per-core")),
            "d695-seed2008-d0.660"
        );
        assert_ne!(
            job(builtin(), 0.66, "per-core"),
            job(builtin(), 0.66, "select")
        );
    }

    #[test]
    fn profile_keys_ignore_mode_and_width_but_not_fidelity() {
        let builtin = || SocSource::Builtin("d695".into());
        let per_core = job(builtin(), 0.66, "per-core");
        let mut select = job(builtin(), 0.02, "select");
        select.request.budget = crate::Budget::TamWidth(16);
        assert_eq!(per_core.profile_key(), select.profile_key());
        assert!(per_core.profile_key().is_some());
        assert_eq!(job(builtin(), 0.66, "no-tdc").profile_key(), None);
        let mut sparse = per_core.clone();
        sparse.request.decisions.m_candidates = 4;
        assert_ne!(sparse.profile_key(), per_core.profile_key());
    }

    #[test]
    fn plans_equal_the_planner_and_share_their_soc() {
        let engine = Engine::new(None);
        let d695 = job(SocSource::Builtin("d695".into()), 0.66, "per-core");
        let (plan, _) = engine.plan(&d695, PlanControl::default()).unwrap();
        let alone = Planner::per_core_tdc()
            .plan(&Design::D695.build_with_cubes(2008), &d695.request)
            .unwrap();
        assert_eq!(crate::write_plan(&plan), crate::write_plan(&alone));
        engine.plan(&d695, PlanControl::default()).unwrap();
        let stats = engine.soc_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        let warp = Job {
            mode: "warp".into(),
            ..d695
        };
        assert!(matches!(
            engine.plan(&warp, PlanControl::default()),
            Err(JobError::UnknownMode(_))
        ));
        let missing = job(
            SocSource::Itc02File("/nonexistent/x.soc".into()),
            0.5,
            "per-core",
        );
        assert!(matches!(
            engine.soc(&missing.source, 1, 0.5),
            Err(JobError::Read(_))
        ));
    }

    #[test]
    fn profiles_land_in_the_engine_root_under_the_tag() {
        let dir = std::env::temp_dir().join(format!("tdcsoc-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new(Some(dir.clone()));
        let mut d695 = job(SocSource::Builtin("d695".into()), 0.66, "per-core");
        d695.request.decisions = crate::DecisionConfig {
            pattern_sample: Some(4),
            m_candidates: 4,
        };
        let (_, cold) = engine.plan(&d695, PlanControl::default()).unwrap();
        let (_, warm) = engine.plan(&d695, PlanControl::default()).unwrap();
        assert_eq!((cold.profile_misses, warm.profile_hits), (10, 10));
        let entries = crate::profile_cache_entries(&dir);
        assert_eq!(entries.len(), 10);
        assert!(entries
            .iter()
            .all(|path| path.to_string_lossy().contains("d695-seed2008-")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
