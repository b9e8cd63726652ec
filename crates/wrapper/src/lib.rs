//! IEEE 1500-style test wrapper design for embedded cores.
//!
//! A *wrapper* isolates a core for modular test; its scanned elements
//! (internal scan chains plus wrapper boundary cells) are concatenated into
//! *wrapper chains* that the test access mechanism (TAM) — or an on-chip
//! decompressor — drives in parallel. This crate implements the classic
//! best-fit-decreasing wrapper-design heuristic (`Design_wrapper`, Iyengar,
//! Chakrabarty & Marinissen) and the associated test-time model, and exposes
//! the *scan slice* view of a test cube that compression schemes operate on.
//!
//! # Examples
//!
//! ```
//! use soc_model::Core;
//! use wrapper::{design_wrapper, pareto_points};
//!
//! let core = Core::builder("s5378")
//!     .inputs(35)
//!     .outputs(49)
//!     .fixed_chains(vec![45, 45, 45, 44])
//!     .pattern_count(97)
//!     .build()?;
//!
//! // Four chains: every fixed scan chain gets its own wrapper chain.
//! let design = design_wrapper(&core, 4);
//! assert_eq!(design.chain_count(), 4);
//!
//! // The Pareto frontier of (width, test time): the chain counts that
//! // lower the test time. (The planner asks its per-core memo,
//! // `selenc::EvalCache`, for the best point at ≤ w chains instead.)
//! let frontier = pareto_points(&core, 16);
//! assert!(frontier.len() > 1);
//! # Ok::<(), soc_model::BuildCoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod design;
mod pareto;
mod power;
mod slicemat;

pub use design::{design_wrapper, ChainLayout, Slices, WrapperDesign};
pub use pareto::{best_design_up_to, pareto_points, WrapperPoint};
pub use power::{estimate_scan_power, weighted_transitions, Fill, ScanPower};
pub use slicemat::ChainPlanes;
