//! Selective-encoding test-data compression (Wang & Chakrabarty, ITC 2005)
//! with a cycle-accurate decompressor model.
//!
//! An on-chip decompressor between a core's test access mechanism (TAM) and
//! its wrapper consumes `w`-bit codewords and reconstructs `m`-bit scan
//! slices (`w = ceil(log2(m+1)) + 2 < m`), cutting both tester data volume
//! and test time. This crate provides:
//!
//! * [`SliceCode`] / [`Codeword`] — the code geometry and wire format,
//! * [`Encoder`] — the compressor (single-bit and group-copy modes),
//! * [`Decompressor`] — the executable hardware model used to verify that
//!   every encoding reproduces every care bit,
//! * [`verify_cube_stream`] and its batch forms — the same encode, decode
//!   and check on the cube's chain-major planes, 64 slices per word
//!   operation, fast enough to stream-verify whole SOC plans,
//! * [`compress_test_set`] / [`evaluate_point`] — test-time and volume
//!   evaluation of whole test sets at a `(w, m)` operating point,
//! * [`CoreProfile`] — the per-core lookup table the SOC planner consumes,
//! * [`decompressor_area`] — the hardware cost model.
//!
//! # Examples
//!
//! Reproduce the paper's central observation — test time is non-monotonic
//! in the number of wrapper chains — on a small synthetic core:
//!
//! ```
//! use soc_model::{Core, CubeSynthesis};
//! use selenc::evaluate_point;
//!
//! let mut core = Core::builder("demo")
//!     .inputs(16)
//!     .flexible_cells(600, 256)
//!     .pattern_count(12)
//!     .care_density(0.1)
//!     .build()?;
//! let cubes = CubeSynthesis::new(0.1).synthesize(&core, 3);
//! core.attach_test_set(cubes)?;
//!
//! // Sweep m at a fixed TAM width class and watch τ_c(m) wobble.
//! let times: Vec<u64> = (128..=160)
//!     .filter_map(|m| evaluate_point(&core, m, None))
//!     .map(|c| c.test_time)
//!     .collect();
//! assert!(!times.is_empty());
//! # Ok::<(), soc_model::BuildCoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analysis;
mod area;
mod bitslice;
mod code;
mod decoder;
mod emulate;
mod encoder;
mod integrity;
mod lut;
mod memo;
mod rtl;
mod stream;

pub use analysis::SliceStats;
pub use area::{decompressor_area, DecompressorArea};
pub use code::{Codeword, SliceCode};
pub use decoder::{DecodeError, Decompressor};
pub use emulate::{
    encode_columns, verify_cube_stream, verify_cubes_stream, verify_operating_point,
    verify_stream_columns, verify_test_set_stream, StreamReport,
};
pub use encoder::Encoder;
pub use integrity::{verify_stream, StreamError};
pub use lut::{
    core_fingerprint, profile_entry_for_width, CoreProfile, Interrupted, ProfileConfig,
    ProfileCsvError, ProfileEntry,
};
pub use memo::{EvalCache, DEFAULT_EVAL_BYTES, DEFAULT_EVAL_ENTRIES};
pub use rtl::generate_verilog;
pub use stream::{
    compress_sampled, compress_test_set, cube_cost, cube_cost_policy, cube_cost_scalar,
    encode_cube, evaluate_clamped, evaluate_point, Compressed,
};
