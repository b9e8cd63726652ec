//! Data model for core-based system-on-chip (SOC) test planning.
//!
//! This crate is the substrate shared by every other crate of the
//! repository: ternary test cubes ([`TritVec`]), embedded cores with their
//! scan structure ([`Core`]), whole systems ([`Soc`]), a textual description
//! format ([`mod@format`]), deterministic cube synthesis ([`generator`]), and
//! the benchmark designs of the DATE 2008 paper ([`benchmarks`]).
//!
//! # Examples
//!
//! Build a small SOC and synthesize cubes for it:
//!
//! ```
//! use soc_model::{Core, Soc, generator::synthesize_missing_test_sets};
//!
//! let mut soc = Soc::new(
//!     "demo",
//!     vec![Core::builder("a")
//!         .inputs(16)
//!         .outputs(8)
//!         .fixed_chains(vec![32, 32])
//!         .pattern_count(25)
//!         .care_density(0.4)
//!         .build()?],
//! );
//! synthesize_missing_test_sets(&mut soc, 0xC0FFEE);
//! assert!(soc.cores()[0].test_set().is_some());
//! # Ok::<(), soc_model::BuildCoreError>(())
//! ```
//!
//! Or load one of the paper's benchmarks:
//!
//! ```
//! use soc_model::benchmarks::Design;
//!
//! let d695 = Design::D695.build_with_cubes(1);
//! assert_eq!(d695.core_count(), 10);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod benchmarks;
mod bitmatrix;
pub mod compaction;
mod core;
pub mod format;
pub mod generator;
pub mod itc02;
pub mod patfile;
mod pattern;
mod rng;
mod soc;
mod trit;

pub use crate::bitmatrix::{read_bits, write_bits, BitMatrix};
pub use crate::core::{BuildCoreError, Core, CoreBuilder, ScanArchitecture};
pub use crate::generator::CubeSynthesis;
pub use crate::pattern::{PatternSizeError, TestSet};
pub use crate::rng::SplitMix64;
pub use crate::soc::{CoreId, Soc};
pub use crate::trit::{Iter as TritIter, ParseTritError, Trit, TritVec};
