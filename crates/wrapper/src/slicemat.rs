//! The packed chain-major view of one cube under a wrapper design.
//!
//! [`WrapperDesign::slices`](crate::WrapperDesign::slices) materializes a
//! `TritVec` per scan depth through per-symbol `get`/`push` calls — fine
//! for correctness work, far too slow for the profile builder that
//! evaluates millions of slices and for plan-time stream verification.
//! [`ChainPlanes`] computes the same information in bulk, chain-major:
//! row `k` is wrapper chain `k`, bit `d` of a row is scan depth `d`. Each
//! chain's load sequence is a handful of contiguous cube ranges, so the
//! fill is a few sub-word copies per chain, both planes in one pass; a
//! one-bit segment (a wrapper input cell) is one shift per plane. Word `j`
//! of every row holds 64 slices side by side, one per bit lane: the
//! slice-cost kernel and the stream encoder and decoder of `selenc` read
//! the planes in those 64-depth columns, so no slice-major copy is made.
//!
//! Pad positions (depths past a chain's load length) hold `care = 0`,
//! `value = 0` — exactly the don't-care encoding of
//! [`TritVec`](soc_model::TritVec), so no masking is needed downstream.

use soc_model::{read_bits, write_bits, BitMatrix, TritVec};

use crate::design::WrapperDesign;

/// Reusable chain-major care/value planes of one cube under one design.
///
/// # Examples
///
/// ```
/// use soc_model::Core;
/// use wrapper::{design_wrapper, ChainPlanes};
///
/// let core = Core::builder("c")
///     .inputs(1)
///     .fixed_chains(vec![4, 2])
///     .pattern_count(1)
///     .build()?;
/// let design = design_wrapper(&core, 2);
/// let cube = "1010101".parse()?;
/// let mut planes = ChainPlanes::new();
/// design.fill_chain_planes(&cube, &mut planes);
/// assert_eq!(planes.chains(), 2);
/// assert_eq!(planes.depths() as u64, design.scan_in_length());
/// // Chain 1 loads the 2-bit scan chain, then the input cell: "01" + "1".
/// assert_eq!(planes.care().row(1)[0], 0b111);
/// assert_eq!(planes.value().row(1)[0], 0b110);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChainPlanes {
    care: BitMatrix,
    value: BitMatrix,
}

impl ChainPlanes {
    /// Creates empty planes; [`WrapperDesign::fill_chain_planes`] gives
    /// them a shape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of wrapper chains (rows).
    pub fn chains(&self) -> usize {
        self.care.rows()
    }

    /// Number of scan depths (bits per row).
    pub fn depths(&self) -> usize {
        self.care.cols()
    }

    /// The care plane: bit `d` of row `k` is set where chain `k` receives
    /// a specified symbol at scan-in cycle `d`.
    pub fn care(&self) -> &BitMatrix {
        &self.care
    }

    /// The value plane, aligned with [`care`](Self::care): the symbol's
    /// logic value, `0` at don't-care and pad positions.
    pub fn value(&self) -> &BitMatrix {
        &self.value
    }
}

impl WrapperDesign {
    /// Fills `out` with the chain-major care/value planes of `cube` under
    /// this design: row `k`, bit `depth` is the symbol chain `k` receives
    /// at scan-in cycle `depth` (don't-care for pad cycles), identical to
    /// [`slice`](WrapperDesign::slice) symbol by symbol.
    ///
    /// `out` is reshaped in place; reusing one set of planes across cubes
    /// makes the fill allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a chain references a cube position at or beyond
    /// `cube.len()`.
    pub fn fill_chain_planes(&self, cube: &TritVec, out: &mut ChainPlanes) {
        let chains = self.chains();
        let depth = self.scan_in_length() as usize;
        out.care.reset(chains.len(), depth);
        out.value.reset(chains.len(), depth);
        let src = [cube.care_words(), cube.value_words()];
        for (k, chain) in chains.iter().enumerate() {
            let mut dst = [out.care.row_mut(k), out.value.row_mut(k)];
            let mut at = 0usize;
            for seg in chain.segments() {
                let (start, len) = (seg.start as usize, (seg.end - seg.start) as usize);
                assert!(
                    start + len <= cube.len(),
                    "chain {k} references position {} beyond cube length {}",
                    start + len - 1,
                    cube.len()
                );
                copy_segment(&mut dst, at, src, start, len);
                at += len;
            }
        }
    }
}

/// Copies `len` bits at bit `start` of both source planes to bit `at` of
/// the matching destination rows (which are zero there). A one-bit
/// segment — every wrapper input cell not merged with a neighbour — is a
/// shift and an OR per plane; longer ones move up to 64 bits per step.
#[inline(always)]
fn copy_segment(dst: &mut [&mut [u64]; 2], at: usize, src: [&[u64]; 2], start: usize, len: usize) {
    if len == 1 {
        let (sw, sb) = (start / 64, start % 64);
        let (dw, db) = (at / 64, at % 64);
        for (d, s) in dst.iter_mut().zip(src) {
            d[dw] |= (s[sw] >> sb & 1) << db;
        }
        return;
    }
    let mut done = 0usize;
    while done < len {
        let n = (len - done).min(64);
        for (d, s) in dst.iter_mut().zip(src) {
            write_bits(d, at + done, n, read_bits(s, start + done, n));
        }
        done += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::design_wrapper;
    use soc_model::{Core, SplitMix64, Trit};

    fn hard_core(chains: Vec<u32>, inputs: u32) -> Core {
        Core::builder("h")
            .inputs(inputs)
            .outputs(3)
            .fixed_chains(chains)
            .pattern_count(4)
            .build()
            .unwrap()
    }

    fn random_cube(len: usize, seed: u64) -> TritVec {
        let mut rng = SplitMix64::new(seed);
        (0..len)
            .map(|_| match rng.next_below(4) {
                0 => Trit::Zero,
                1 => Trit::One,
                _ => Trit::X,
            })
            .collect()
    }

    /// Every bit of the chain-major planes against `position_at`: ragged
    /// hard cores (long pads, segments straddling words, several chains
    /// per wrapper chain), a combinational core (one-bit segments only)
    /// and a soft core, with one set of planes reused across all shapes.
    #[test]
    fn chain_planes_match_position_at_on_ragged_shapes() {
        let combinational = Core::builder("comb")
            .inputs(150)
            .outputs(2)
            .pattern_count(1)
            .build()
            .unwrap();
        let soft = Core::builder("soft")
            .inputs(9)
            .flexible_cells(700, 300)
            .pattern_count(1)
            .build()
            .unwrap();
        let cores = [
            hard_core(vec![200, 3, 70, 64, 1, 129, 65, 63], 37),
            hard_core(vec![130, 2], 0),
            combinational,
            soft,
        ];
        let mut planes = ChainPlanes::new();
        for (c, core) in cores.iter().enumerate() {
            let cube = random_cube(core.scan_load_bits() as usize, 40 + c as u64);
            for m in [1u32, 2, 3, 5, 8, 13, 64, 200] {
                let design = design_wrapper(core, m);
                design.fill_chain_planes(&cube, &mut planes);
                assert_eq!(planes.chains() as u32, design.chain_count());
                assert_eq!(planes.depths() as u64, design.scan_in_length());
                for (k, chain) in design.chains().iter().enumerate() {
                    let (care, value) = (planes.care(), planes.value());
                    for d in 0..planes.depths() {
                        let want = chain
                            .position_at(d as u64)
                            .map_or(Trit::X, |pos| cube.get(pos as usize));
                        let got = match (care.get(k, d), value.get(k, d)) {
                            (false, false) => Trit::X,
                            (true, v) => Trit::from_bit(v),
                            (false, true) => panic!("value bit without care bit"),
                        };
                        assert_eq!(got, want, "core {c} m={m} chain {k} depth {d}");
                    }
                    // Bits past the depth stay zero.
                    let tail = planes.depths() % 64;
                    if tail != 0 {
                        let last = care.words_per_row() - 1;
                        assert_eq!(care.row(k)[last] >> tail, 0, "core {c} m={m}");
                        assert_eq!(value.row(k)[last] >> tail, 0, "core {c} m={m}");
                    }
                }
            }
        }
    }
}
