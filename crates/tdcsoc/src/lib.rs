//! Co-optimization of test-architecture design, test scheduling, and
//! core-level test-data compression — the contribution of *"Test-
//! Architecture Optimization and Test Scheduling for SOCs with Core-Level
//! Expansion of Compressed Test Patterns"* (Larsson, Larsson, Chakrabarty,
//! Eles, Peng — DATE 2008).
//!
//! The planner combines four ingredients:
//!
//! 1. per-core wrapper design (`wrapper` crate),
//! 2. per-core selective-encoding decompressors with co-optimized I/O
//!    widths (`selenc` crate),
//! 3. TAM partitioning and scheduling (`tam` crate),
//! 4. lookup-table driven width assignment that respects the
//!    **non-monotonic** test-time behaviour of Figs. 2–3.
//!
//! [`Planner`] instances exist for every architecture the paper compares:
//! no compression (Fig. 4(a)), a shared decompressor per TAM (Fig. 4(b),
//! ≈ \[18\]), a decompressor per core (Fig. 4(c), the proposal), a pinned
//! input width (≈ \[11\]), and LFSR reseeding (≈ \[13\]).
//!
//! # Examples
//!
//! ```
//! use soc_model::benchmarks::Design;
//! use tdcsoc::{PlanRequest, Planner};
//!
//! let soc = Design::System1.build_with_cubes(42);
//! let raw = Planner::no_tdc().plan(&soc, &PlanRequest::tam_width(32))?;
//! let tdc = Planner::per_core_tdc().plan(&soc, &PlanRequest::tam_width(32))?;
//! // Industrial-density cubes compress by an order of magnitude.
//! assert!(tdc.test_time * 4 < raw.test_time);
//! # Ok::<(), tdcsoc::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ate;
mod cascade;
mod decisions;
mod engine;
mod planfile;
mod planner;
mod response;
mod source;
mod truncate;
mod vectors;

pub use ate::{AteFit, AteSpec};
pub use cascade::{PlanControl, PlanOutcome, ProfileCacheConfig, SolverStage};
pub use decisions::{CompressionMode, Decision, DecisionConfig, DecisionTable, Technique};
pub use engine::{Engine, Job, JobError, ProfileKey};
pub use planfile::{parse_plan, write_plan, ParsePlanError};
pub use planner::{
    profile_cache_entries, quarantined_profiles, Budget, CoreSetting, Plan, PlanError, PlanRequest,
    PlanStats, Planner,
};
pub use response::{plan_response_compaction, CompactorSetting, ResponsePlan};
pub use source::{planner_for, SocContent, SocSource};
pub use truncate::{truncate_to_fit, TruncateError, Truncation};
pub use vectors::{export_image, verify_image, ImageError, TamImage, TesterImage};
