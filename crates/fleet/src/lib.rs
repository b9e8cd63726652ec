//! Batch planning over manifests of design instances (the "fleet").
//!
//! A fleet run plans hundreds or thousands of independent design
//! instances — ITC'02 benchmark files × width sweeps × synthetic-generator
//! seeds — in one process, with **two-level scheduling**: work-stealing at
//! design granularity on an outer [`parpool::Pool`], layered on the
//! planner's existing per-design table parallelism (the inner pool). The
//! split of the worker budget between the two levels is the deterministic
//! [`parpool::split_budget`] policy, and results are reported in manifest
//! order at any worker count, so a fleet run is bit-identical to planning
//! each instance alone, sequentially.
//!
//! Every instance plans through one [`tdcsoc::Engine`] per batch, so
//! memory stays bounded: instances built from the same content share one
//! SOC from the engine's bounded LRU, built once even when workers miss it
//! together; each core's planner memo lives only as long as its table
//! job; and the shared on-disk profile cache is a sharded,
//! concurrent-writer-safe `robust::Store` — so instances that share cores
//! (the same ITC'02 file at several widths) reuse each other's
//! operating-point profiles across the whole batch. With that cache, the
//! widest instance of each profile key plans first, so each profile is
//! built once.
//!
//! ```
//! let manifest = fleet::Manifest::parse("design d695 widths=12 sample=4 mcand=4\n").unwrap();
//! let report = fleet::run_fleet(&manifest, &fleet::FleetOptions::default());
//! assert_eq!(report.summary.planned, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod manifest;
mod runner;

pub use manifest::{Instance, Manifest, ManifestError};
pub use runner::{
    ndjson_line, run_fleet, run_fleet_with, FleetHooks, FleetOptions, FleetReport, FleetSummary,
    InstanceOutcome, InstanceReport, PhaseSplit,
};
pub use tdcsoc::SocSource;
