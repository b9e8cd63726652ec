//! LFSR-reseeding test-data compression and the GF(2) substrate beneath
//! it.
//!
//! This crate provides the comparison baseline the paper measures against
//! in Table 2 (scan-slice LFSR reseeding, Wang/Chakrabarty/Wang DATE
//! 2007): a Fibonacci [`Lfsr`] with a [`PhaseShifter`] expands per-pattern
//! seeds into wrapper-chain streams, and seeds are computed by solving the
//! care-bit constraints with an incremental GF(2) [`Gf2Solver`]. Every
//! computed seed is verified by concrete re-simulation.
//!
//! # Examples
//!
//! ```
//! use lfsr::compress_reseeding;
//! use soc_model::{Core, CubeSynthesis};
//!
//! let mut core = Core::builder("c")
//!     .inputs(8)
//!     .flexible_cells(256, 32)
//!     .pattern_count(6)
//!     .care_density(0.08)
//!     .build()?;
//! let cubes = CubeSynthesis::new(0.08).synthesize(&core, 5);
//! core.attach_test_set(cubes)?;
//!
//! let result = compress_reseeding(&core, 16, 8, None)?;
//! assert!(result.volume_bits < core.initial_volume_bits());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod generator;
mod gf2;
mod misr;
mod reseed;

pub use generator::{symbolic_reset, Lfsr, PhaseShifter};
pub use gf2::{Gf2Solver, Gf2Vec, InconsistentSystem};
pub use misr::{compact_responses, Misr};
pub use reseed::{compress_reseeding, ReseedError, ReseedResult};
