//! Compression of whole cubes and test sets against a wrapper design.
//!
//! The TAM delivers one codeword per clock, so the compressed test time of
//! a core mirrors the classic uncompressed formula with the shift term
//! replaced by the codeword count:
//!
//! ```text
//! τ_c = Σ_patterns codewords(pattern) + p + min(s_i, s_o)
//! ```
//!
//! (`p` capture cycles, plus the usual pipeline fill/drain term). The
//! compressed data volume is `codewords × w` bits.

use std::cell::RefCell;

use soc_model::{Core, TestSet, Trit, TritVec};
use wrapper::{design_wrapper, WrapperDesign};

use crate::bitslice::{self, CostScratch};
use crate::code::{Codeword, SliceCode};
use crate::encoder::Encoder;

/// Compresses one cube into its codeword stream, slice by slice
/// (shallowest slice first).
///
/// # Panics
///
/// Panics if the design's chain count differs from the encoder's chain
/// count, or the cube is shorter than the design's deepest position.
pub fn encode_cube(encoder: &Encoder, design: &WrapperDesign, cube: &TritVec) -> Vec<Codeword> {
    assert_eq!(
        design.chain_count(),
        encoder.code().chains(),
        "wrapper design and slice code disagree on the chain count"
    );
    let mut out = Vec::new();
    for slice in design.slices(cube) {
        out.extend(encoder.encode_slice(&slice));
    }
    out
}

/// Counts the codewords [`encode_cube`] would produce, without building
/// slices or codewords. This is the hot path of the lookup-table builder.
///
/// # Panics
///
/// Panics under the same conditions as [`encode_cube`].
pub fn cube_cost(code: SliceCode, design: &WrapperDesign, cube: &TritVec) -> u64 {
    cube_cost_policy(code, design, cube, true)
}

/// [`cube_cost`] with group-copy mode optionally disabled (matching
/// [`Encoder::single_bit_only`]); used by the mode-contribution ablation.
///
/// Runs a bit-sliced kernel over the cube's chain-major planes
/// ([`wrapper::ChainPlanes`]), 64 slices per word operation (`DESIGN.md`
/// §10); [`cube_cost_scalar`] is the per-symbol reference it is tested
/// against.
///
/// # Panics
///
/// Panics under the same conditions as [`encode_cube`].
pub fn cube_cost_policy(
    code: SliceCode,
    design: &WrapperDesign,
    cube: &TritVec,
    group_copy: bool,
) -> u64 {
    COST_SCRATCH.with(|s| bitslice::cube_cost(code, design, cube, group_copy, &mut s.borrow_mut()))
}

thread_local! {
    // One set of kernel buffers per thread makes the public cost functions
    // allocation-free across calls without threading a handle through
    // every caller.
    static COST_SCRATCH: RefCell<CostScratch> = RefCell::new(CostScratch::default());
}

/// Per-symbol reference implementation of [`cube_cost_policy`]: walks every
/// (depth, chain) pair through [`position_at`](wrapper::ChainLayout::position_at).
/// Kept as the oracle the bit-sliced kernel is property-tested against; use
/// [`cube_cost`] / [`cube_cost_policy`] everywhere else.
///
/// # Panics
///
/// Panics under the same conditions as [`encode_cube`].
pub fn cube_cost_scalar(
    code: SliceCode,
    design: &WrapperDesign,
    cube: &TritVec,
    group_copy: bool,
) -> u64 {
    assert_eq!(
        design.chain_count(),
        code.chains(),
        "wrapper design and slice code disagree on the chain count"
    );
    let c = code.data_bits();
    let groups = code.group_count() as usize;
    let mut ones_per_group = vec![0u32; groups];
    let mut zeros_per_group = vec![0u32; groups];
    let mut total = 0u64;

    for depth in 0..design.scan_in_length() {
        ones_per_group.fill(0);
        zeros_per_group.fill(0);
        let mut ones = 0u32;
        let mut zeros = 0u32;
        for (k, chain) in design.chains().iter().enumerate() {
            let trit = match chain.position_at(depth) {
                Some(pos) => cube.get(pos as usize),
                None => Trit::X,
            };
            match trit {
                Trit::One => {
                    ones += 1;
                    ones_per_group[k / c as usize] += 1;
                }
                Trit::Zero => {
                    zeros += 1;
                    zeros_per_group[k / c as usize] += 1;
                }
                Trit::X => {}
            }
        }
        let fill_one = ones > zeros;
        let target_counts = if fill_one {
            &zeros_per_group
        } else {
            &ones_per_group
        };
        let mut singles = 0u64;
        let mut copies = 0u64;
        for &t in target_counts {
            if t > 2 && group_copy {
                copies += 1;
            } else {
                singles += u64::from(t);
            }
        }
        total += Encoder::cost_of(singles, copies);
    }
    total
}

/// Result of compressing a core's full test set at one `(w, m)` operating
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compressed {
    /// The slice code (decompressor I/O widths) used.
    pub code: SliceCode,
    /// Total codewords over all patterns (TAM clocks spent shifting).
    pub codewords: u64,
    /// Compressed test time in clock cycles:
    /// `codewords + p + min(s_i, s_o)`.
    pub test_time: u64,
    /// Compressed data volume in bits: `codewords × w`.
    pub volume_bits: u64,
}

/// Compresses `test_set` for a core wrapped by `design`, counting codewords
/// exactly over every pattern.
///
/// # Panics
///
/// Panics if the design and test set disagree with each other (cube length
/// vs. deepest chain position).
pub fn compress_test_set(design: &WrapperDesign, test_set: &TestSet) -> Compressed {
    compress_sampled(design, test_set, test_set.pattern_count().max(1))
}

/// Like [`compress_test_set`], but encodes only `sample` evenly spaced
/// patterns and scales the codeword count to the full set — the estimator
/// used by the lookup-table builder on multi-hundred-pattern industrial
/// cores. With `sample >= pattern_count` the result is exact.
///
/// # Panics
///
/// Panics if `sample == 0`.
pub fn compress_sampled(design: &WrapperDesign, test_set: &TestSet, sample: usize) -> Compressed {
    assert!(sample > 0, "sample size must be positive");
    let code = SliceCode::for_chains(design.chain_count());
    let p = test_set.pattern_count();
    let codewords = if p == 0 {
        0
    } else if sample >= p {
        test_set
            .iter()
            .map(|cube| cube_cost(code, design, cube))
            .sum()
    } else {
        let mut sum = 0u64;
        let mut seen = 0u64;
        let mut last = usize::MAX;
        for i in 0..sample {
            let idx = i * p / sample;
            if idx == last {
                continue;
            }
            last = idx;
            sum += cube_cost(code, design, test_set.pattern(idx).expect("idx < p"));
            seen += 1;
        }
        scale_codewords(sum, p as u64, seen)
    };
    let fill_drain = design.scan_in_length().min(design.scan_out_length());
    Compressed {
        code,
        codewords,
        test_time: codewords + p as u64 + fill_drain,
        volume_bits: codewords * u64::from(code.tam_width()),
    }
}

/// Scales a sampled codeword sum to the full pattern count, rounding to
/// nearest. Widened to `u128` internally: `sum × patterns` overflows `u64`
/// on deep industrial cores (a multi-million-cycle sample sum times
/// hundreds of patterns) even though the scaled result always fits.
fn scale_codewords(sum: u64, patterns: u64, seen: u64) -> u64 {
    let scaled = (u128::from(sum) * u128::from(patterns) + u128::from(seen / 2)) / u128::from(seen);
    u64::try_from(scaled).expect("scaled codeword count fits u64: sum/seen <= sum")
}

/// Like [`evaluate_point`], but when the core cannot realize `m` distinct
/// chains the evaluation proceeds at the effective (smaller) chain count
/// instead of returning `None` — the behaviour of a *shared* decompressor
/// whose `m` outputs a smaller core only partially uses.
///
/// # Panics
///
/// Panics if the core has no attached test set or `m == 0`.
pub fn evaluate_clamped(core: &Core, m: u32, sample: Option<usize>) -> Compressed {
    let test_set = core
        .test_set()
        .expect("core must carry a test set; call synthesize_missing_test_sets first");
    let design = design_wrapper(core, m);
    let sample = sample.unwrap_or(test_set.pattern_count().max(1));
    compress_sampled(&design, test_set, sample)
}

/// Evaluates core compression at an explicit chain count `m`: designs the
/// wrapper, compresses (optionally sampled), and returns `None` when the
/// core cannot actually realize `m` distinct chains (the operating point is
/// then covered by a smaller `m`).
///
/// # Panics
///
/// Panics if the core has no attached test set.
pub fn evaluate_point(core: &Core, m: u32, sample: Option<usize>) -> Option<Compressed> {
    let test_set = core
        .test_set()
        .expect("core must carry a test set; call synthesize_missing_test_sets first");
    let design = design_wrapper(core, m);
    if design.chain_count() != m {
        return None;
    }
    let sample = sample.unwrap_or(test_set.pattern_count().max(1));
    Some(compress_sampled(&design, test_set, sample))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_model::{Core, CubeSynthesis};

    fn test_core(cells: u32, patterns: u32, density: f64) -> Core {
        let mut core = Core::builder("t")
            .inputs(8)
            .outputs(8)
            .flexible_cells(cells, 256)
            .pattern_count(patterns)
            .care_density(density)
            .build()
            .unwrap();
        let cubes = CubeSynthesis::new(density).synthesize(&core, 7);
        core.attach_test_set(cubes).unwrap();
        core
    }

    #[test]
    fn cost_matches_full_encoding() {
        let core = test_core(300, 6, 0.2);
        let ts = core.test_set().unwrap();
        for m in [5u32, 16, 40, 100] {
            let design = design_wrapper(&core, m);
            let code = SliceCode::for_chains(design.chain_count());
            let enc = Encoder::new(code);
            for cube in ts.iter() {
                assert_eq!(
                    cube_cost(code, &design, cube),
                    encode_cube(&enc, &design, cube).len() as u64,
                    "m={m}"
                );
            }
        }
    }

    #[test]
    fn packed_kernel_matches_scalar_oracle() {
        for (cells, density) in [(120u32, 0.4), (500, 0.08), (64, 0.9)] {
            let core = test_core(cells, 4, density);
            let ts = core.test_set().unwrap();
            for m in [1u32, 7, 31, 64, 130] {
                let design = design_wrapper(&core, m);
                let code = SliceCode::for_chains(design.chain_count());
                for cube in ts.iter() {
                    for group_copy in [true, false] {
                        assert_eq!(
                            cube_cost_policy(code, &design, cube, group_copy),
                            cube_cost_scalar(code, &design, cube, group_copy),
                            "cells={cells} m={m} group_copy={group_copy}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tie_slice_fills_zeros() {
        // Twelve input cells on twelve chains: the cube is one slice, in
        // groups of c = 4. Five ones (a copied group plus a single) tie
        // five zeros (two singles plus a copied group), so the fill is
        // zero and the ones are the targets: 1 + 2 codewords, where
        // filling ones would cost 2 + 2.
        let core = Core::builder("tie")
            .inputs(12)
            .pattern_count(1)
            .build()
            .unwrap();
        let design = design_wrapper(&core, 12);
        let code = SliceCode::for_chains(12);
        let cube: TritVec = "1111100X000X".parse().unwrap();
        assert_eq!(design.scan_in_length(), 1);
        assert_eq!(design.slice(&cube, 0), cube);
        assert_eq!(cube_cost(code, &design, &cube), 3);
        assert_eq!(cube_cost_scalar(code, &design, &cube, true), 3);
        assert_eq!(encode_cube(&Encoder::new(code), &design, &cube).len(), 3);
        // Single-bit mode pays one codeword per one either way.
        assert_eq!(cube_cost_policy(code, &design, &cube, false), 5);
    }

    #[test]
    fn all_x_cube_costs_one_codeword_per_slice() {
        let core = Core::builder("x")
            .inputs(5)
            .fixed_chains(vec![17, 9, 130, 64, 1])
            .pattern_count(1)
            .build()
            .unwrap();
        let cube: TritVec = std::iter::repeat_n(Trit::X, core.scan_load_bits() as usize).collect();
        for m in [1u32, 2, 3, 5, 10] {
            let design = design_wrapper(&core, m);
            let code = SliceCode::for_chains(design.chain_count());
            for group_copy in [true, false] {
                assert_eq!(
                    cube_cost_policy(code, &design, &cube, group_copy),
                    design.scan_in_length(),
                    "m={m} group_copy={group_copy}"
                );
            }
        }
    }

    #[test]
    fn sampled_scaling_survives_huge_codeword_sums() {
        // sum × patterns = 3e20, past u64::MAX, while the scaled result
        // still fits comfortably.
        let sum = 500_000_000_000_000_000u64;
        let patterns = 600u64;
        let seen = 300u64;
        assert_eq!(scale_codewords(sum, patterns, seen), sum * 2);
        // Rounding matches the narrow formula on small inputs.
        assert_eq!(scale_codewords(10, 3, 4), 8); // (30 + 2) / 4
        assert_eq!(scale_codewords(7, 7, 2), 25); // (49 + 1) / 2
    }

    #[test]
    fn compress_test_set_aggregates() {
        let core = test_core(200, 5, 0.3);
        let design = design_wrapper(&core, 20);
        let ts = core.test_set().unwrap();
        let c = compress_test_set(&design, ts);
        let manual: u64 = ts.iter().map(|cube| cube_cost(c.code, &design, cube)).sum();
        assert_eq!(c.codewords, manual);
        assert_eq!(
            c.test_time,
            manual + 5 + design.scan_in_length().min(design.scan_out_length())
        );
        assert_eq!(c.volume_bits, manual * u64::from(c.code.tam_width()));
    }

    #[test]
    fn sampling_is_exact_when_sample_covers_set() {
        let core = test_core(150, 8, 0.25);
        let design = design_wrapper(&core, 12);
        let ts = core.test_set().unwrap();
        assert_eq!(
            compress_sampled(&design, ts, 8),
            compress_sampled(&design, ts, 100)
        );
    }

    #[test]
    fn sampling_estimates_within_tolerance() {
        let core = test_core(800, 40, 0.1);
        let design = design_wrapper(&core, 60);
        let ts = core.test_set().unwrap();
        let exact = compress_test_set(&design, ts);
        let est = compress_sampled(&design, ts, 10);
        let ratio = est.codewords as f64 / exact.codewords as f64;
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sparser_cubes_compress_better() {
        let sparse = test_core(500, 10, 0.02);
        let dense = test_core(500, 10, 0.5);
        let ds = design_wrapper(&sparse, 64);
        let dd = design_wrapper(&dense, 64);
        let cs = compress_test_set(&ds, sparse.test_set().unwrap());
        let cd = compress_test_set(&dd, dense.test_set().unwrap());
        assert!(
            cs.codewords * 2 < cd.codewords,
            "sparse {} vs dense {}",
            cs.codewords,
            cd.codewords
        );
    }

    #[test]
    fn compression_beats_raw_volume_on_sparse_cubes() {
        let core = test_core(2000, 10, 0.02);
        let design = design_wrapper(&core, 128);
        let c = compress_test_set(&design, core.test_set().unwrap());
        assert!(
            c.volume_bits * 3 < core.initial_volume_bits(),
            "compressed {} vs raw {}",
            c.volume_bits,
            core.initial_volume_bits()
        );
    }

    #[test]
    fn evaluate_point_skips_unrealizable_chain_counts() {
        let core = test_core(100, 3, 0.3);
        // 100 cells + 8 inputs: m = 108 realizable, m = 200 collapses.
        assert!(evaluate_point(&core, 100, None).is_some());
        assert!(evaluate_point(&core, 200, None).is_none());
    }

    #[test]
    fn decoder_reproduces_every_care_bit_of_a_cube() {
        let core = test_core(120, 4, 0.35);
        let ts = core.test_set().unwrap();
        let design = design_wrapper(&core, 10);
        let code = SliceCode::for_chains(design.chain_count());
        let enc = Encoder::new(code);
        let mut dec = crate::Decompressor::new(code);
        for cube in ts.iter() {
            let words = encode_cube(&enc, &design, cube);
            let slices = dec.decode_all(words).unwrap();
            assert_eq!(slices.len() as u64, design.scan_in_length());
            for (depth, slice) in slices.iter().enumerate() {
                for (k, chain) in design.chains().iter().enumerate() {
                    if let Some(pos) = chain.position_at(depth as u64) {
                        assert!(
                            cube.get(pos as usize).accepts(slice[k]),
                            "depth {depth} chain {k}"
                        );
                    }
                }
            }
        }
    }
}
