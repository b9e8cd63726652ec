//! The bit-sliced column arithmetic behind the slice-cost kernel
//! ([`cube_cost_policy`](crate::cube_cost_policy)) and the column encoder
//! of plan-time stream verification ([`crate::emulate`]).
//!
//! The kernel counts the codewords of every scan slice of a cube without
//! forming a slice. It reads the cube's chain-major planes
//! ([`wrapper::ChainPlanes`]: row = wrapper chain, bit = scan depth), so
//! one word of a row holds one chain's symbols at 64 consecutive depths.
//! Taking the same word of every row — a *column* ([`Column`]) — gives 64
//! slices side by side, one per bit lane, and every step below is a word
//! operation that serves all 64 at once:
//!
//! * **Fill polarity.** Vertical counters of the ones and of the zeros
//!   over the `m` rows hold each lane's two counts in bit planes
//!   ([`Tally`]): eight rows at a time through a carry-save adder tree,
//!   whose weight-8 carry ripples into the higher planes. A bit-plane
//!   comparison then gives `fill = ones > zeros` for every lane (ties fill
//!   zeros, as [`Encoder::encode_slice`](crate::Encoder::encode_slice)
//!   decides).
//! * **Targets.** Chain `k`'s target word — the care symbols opposite the
//!   fill — is `value ^ (fill & care)`, since the value plane is zero
//!   wherever the care plane is.
//! * **Groups.** A saturating counter over each group's `c` rows
//!   ([`group_marks`]) marks the lanes where the group holds at least one,
//!   two and three targets. A group with one or two targets costs that
//!   many single flips, one with three or more a two-codeword copy, so it
//!   costs `min(targets, 2)` codewords: the set bits of its first two
//!   marks.
//! * **Header.** A slice without any single flip pays one more codeword,
//!   its header. That is every valid lane in which no group holds one or
//!   two targets; the mask of valid lanes drops the pad depths of the last
//!   column.
//!
//! With group-copy mode off every target is a single flip, so a slice
//! costs `max(1, targets)`. The per-symbol
//! [`cube_cost_scalar`](crate::cube_cost_scalar) is the oracle this kernel
//! is property-tested against. The column encoder takes the same fill,
//! targets and third mark, and emits the words the kernel only counts.

use soc_model::TritVec;
use wrapper::{ChainPlanes, WrapperDesign};

use crate::code::SliceCode;

/// Reusable buffers of the kernel: the cube's chain-major planes and one
/// column of them.
#[derive(Debug, Default)]
pub(crate) struct CostScratch {
    planes: ChainPlanes,
    column: Column,
}

/// Word `j` of every care row and of every value row of a cube's
/// chain-major planes: 64 slices, one per bit lane.
#[derive(Debug, Default)]
pub(crate) struct Column {
    /// Care word of every chain.
    pub(crate) care: Vec<u64>,
    /// Value word of every chain, zero wherever the care word is.
    pub(crate) value: Vec<u64>,
}

impl Column {
    /// Loads column `j` of `planes`.
    #[inline]
    pub(crate) fn load(&mut self, planes: &ChainPlanes, j: usize) {
        self.care.clear();
        self.care.extend(planes.care().row_iter().map(|row| row[j]));
        self.value.clear();
        self.value
            .extend(planes.value().row_iter().map(|row| row[j]));
    }
}

/// The lanes of column `j` that hold a slice of a cube `depths` deep:
/// all 64 but in a partial last column.
#[inline]
pub(crate) fn live_lanes(depths: usize, j: usize) -> usize {
    (depths - 64 * j).min(64)
}

/// Counts the codewords of `cube` under `design` (see the module docs).
///
/// # Panics
///
/// Panics if the design's chain count differs from the code's, or a chain
/// references a position beyond the cube.
pub(crate) fn cube_cost(
    code: SliceCode,
    design: &WrapperDesign,
    cube: &TritVec,
    group_copy: bool,
    scratch: &mut CostScratch,
) -> u64 {
    assert_eq!(
        design.chain_count(),
        code.chains(),
        "wrapper design and slice code disagree on the chain count"
    );
    let CostScratch { planes, column } = scratch;
    design.fill_chain_planes(cube, planes);
    // Lane counts reach at most m < 2^c.
    let c = code.data_bits() as usize;
    let mut total = 0u64;
    for j in 0..planes.care().words_per_row() {
        column.load(planes, j);
        let (care, value) = (&column.care, &column.value);
        let fill = fill_lanes(care, value, c);
        let valid = u64::MAX >> (64 - live_lanes(planes.depths(), j));
        total += if group_copy {
            group_cost(care, value, fill, c, valid)
        } else {
            single_cost(care, value, fill, valid)
        };
    }
    total
}

/// The fill polarity of each lane of a column: set where the care rows
/// hold more ones than zeros. `bits` is the width of every lane count.
pub(crate) fn fill_lanes(care: &[u64], value: &[u64], bits: usize) -> u64 {
    let mut ones = Tally::default();
    let mut zeros = Tally::default();
    let (care8, value8) = (care.chunks_exact(8), value.chunks_exact(8));
    let tail = care8.remainder().iter().zip(value8.remainder());
    for (cw, vw) in care8.zip(value8) {
        let v: &[u64; 8] = vw.try_into().expect("chunks of eight");
        ones.add8(v);
        zeros.add8(&std::array::from_fn(|i| cw[i] & !v[i]));
    }
    for (&cw, &vw) in tail {
        ones.add(0, vw);
        zeros.add(0, cw & !vw);
    }
    ones.greater(&zeros, bits)
}

/// Codewords of a column's slices with group copies: each group costs
/// `min(targets, 2)` per lane, and a lane with no group of one or two
/// targets pays its header.
fn group_cost(care: &[u64], value: &[u64], fill: u64, c: usize, valid: u64) -> u64 {
    let mut total = 0u64;
    // Lanes with a single flip somewhere: their header carries it.
    let mut singles = 0u64;
    for (cg, vg) in care.chunks(c).zip(value.chunks(c)) {
        let [one, two, three] = group_marks(cg.iter().zip(vg).map(|(&cw, &vw)| vw ^ (fill & cw)));
        total += u64::from(one.count_ones() + two.count_ones());
        singles |= one & !three;
    }
    total + u64::from((valid & !singles).count_ones())
}

/// Saturating marks of one group's target words: the lanes where the group
/// holds at least one, two and three targets.
#[inline(always)]
pub(crate) fn group_marks(targets: impl Iterator<Item = u64>) -> [u64; 3] {
    let (mut one, mut two, mut three) = (0u64, 0u64, 0u64);
    for t in targets {
        three |= two & t;
        two |= one & t;
        one |= t;
    }
    [one, two, three]
}

/// Codewords of a column's slices in single-bit mode: one per target, and
/// one header where a lane has no target.
fn single_cost(care: &[u64], value: &[u64], fill: u64, valid: u64) -> u64 {
    let mut total = 0u64;
    let mut any = 0u64;
    for (&cw, &vw) in care.iter().zip(value) {
        let t = vw ^ (fill & cw);
        total += u64::from(t.count_ones());
        any |= t;
    }
    total + u64::from((valid & !any).count_ones())
}

/// Bit-sliced counts of 64 lanes: bit `i` of every lane's count lives in
/// plane `i`. Counts stay exact binary numbers, so two tallies compare
/// plane by plane.
#[derive(Debug, Clone, Copy, Default)]
struct Tally([u64; 32]);

impl Tally {
    /// Adds one bit per lane at weight `2^plane`, rippling the carry up
    /// until no lane carries.
    #[inline(always)]
    fn add(&mut self, plane: usize, mut x: u64) {
        for p in &mut self.0[plane..] {
            if x == 0 {
                return;
            }
            let carry = *p & x;
            *p ^= x;
            x = carry;
        }
        debug_assert!(x == 0, "lane count overflowed its planes");
    }

    /// Adds eight bits per lane. Planes 0–2 act as the carry-save
    /// accumulators of a Harley–Seal tree: seven full adders fold the
    /// eight inputs into them, and only the weight-8 carry ripples.
    #[inline(always)]
    fn add8(&mut self, x: &[u64; 8]) {
        let [ones, twos, fours] = [self.0[0], self.0[1], self.0[2]];
        let (ones, twos_a) = full_add(ones, x[0], x[1]);
        let (ones, twos_b) = full_add(ones, x[2], x[3]);
        let (twos, fours_a) = full_add(twos, twos_a, twos_b);
        let (ones, twos_a) = full_add(ones, x[4], x[5]);
        let (ones, twos_b) = full_add(ones, x[6], x[7]);
        let (twos, fours_b) = full_add(twos, twos_a, twos_b);
        let (fours, eights) = full_add(fours, fours_a, fours_b);
        self.0[..3].copy_from_slice(&[ones, twos, fours]);
        self.add(3, eights);
    }

    /// The lanes whose count exceeds `other`'s, both counts below
    /// `2^bits`: the first plane, from the top, where the two differ
    /// decides.
    #[inline]
    fn greater(&self, other: &Tally, bits: usize) -> u64 {
        let (mut gt, mut eq) = (0u64, u64::MAX);
        for (&a, &b) in self.0[..bits].iter().zip(&other.0[..bits]).rev() {
            gt |= eq & a & !b;
            eq &= !(a ^ b);
        }
        gt
    }
}

/// A full adder over 64 lanes: `(sum, carry)` of `a + b + c` per lane.
#[inline(always)]
fn full_add(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// The positions of the set bits of `x`, lowest first.
#[inline]
pub(crate) fn set_bits(mut x: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (x != 0).then(|| {
            let bit = x.trailing_zeros();
            x &= x - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_model::SplitMix64;

    #[test]
    fn set_bits_and_group_marks_agree_with_popcount() {
        let mut rng = SplitMix64::new(3);
        for x in (0u64..1024).chain((0..64).map(|_| rng.next_u64())) {
            let bits: Vec<u32> = set_bits(x).collect();
            let want: Vec<u32> = (0..64).filter(|b| x >> b & 1 == 1).collect();
            assert_eq!(bits, want);
        }
        for rows in 0..6 {
            let words: Vec<u64> = (0..rows).map(|_| rng.next_u64()).collect();
            let marks = group_marks(words.iter().copied());
            for lane in 0..64 {
                let n = words.iter().filter(|&&w| w >> lane & 1 == 1).count();
                for (need, mark) in (1..).zip(marks) {
                    assert_eq!(mark >> lane & 1 == 1, n >= need, "rows={rows} lane={lane}");
                }
            }
        }
    }

    #[test]
    fn tally_counts_and_compares_every_lane() {
        let mut rng = SplitMix64::new(5);
        for rows in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 300] {
            let words: Vec<u64> = (0..rows).map(|_| rng.next_u64()).collect();
            let other: Vec<u64> = (0..rows).map(|_| rng.next_u64() & rng.next_u64()).collect();
            let tally = |words: &[u64]| {
                let mut t = Tally::default();
                let chunks = words.chunks_exact(8);
                let tail = chunks.remainder();
                for chunk in chunks {
                    t.add8(chunk.try_into().unwrap());
                }
                for &w in tail {
                    t.add(0, w);
                }
                t
            };
            let (a, b) = (tally(&words), tally(&other));
            let bits = (usize::BITS - rows.leading_zeros()) as usize;
            for lane in 0..64 {
                let count = |t: &Tally| (0..32).map(|p| (t.0[p] >> lane & 1) << p).sum::<u64>();
                let want = |ws: &[u64]| ws.iter().map(|w| w >> lane & 1).sum::<u64>();
                assert_eq!(count(&a), want(&words), "rows={rows} lane={lane}");
                assert_eq!(count(&b), want(&other), "rows={rows} lane={lane}");
                let gt = a.greater(&b, bits) >> lane & 1 == 1;
                assert_eq!(gt, want(&words) > want(&other), "rows={rows} lane={lane}");
            }
        }
    }
}
