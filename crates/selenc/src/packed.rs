//! Per-slice arithmetic of the packed encoder
//! ([`encode_slices_packed`](crate::encode_slices_packed)), which plan-time
//! stream verification runs over every slice of a
//! [`wrapper::SliceMatrix`].
//!
//! A slice arrives as its packed care and value rows (bit `k % 64` of word
//! `k / 64` = chain `k`; the value row is zero wherever the care row is).
//! Its work is one fill-polarity decision and one pass over its `c`-bit
//! groups, both in plain word operations:
//!
//! * the target row — the minority care symbols the encoder must place —
//!   is `care & !value` when filling ones and `value` otherwise, computed
//!   a word at a time as the group walk reaches it, never stored;
//! * [`Groups`] reads that row `c` bits at a time through a 64-bit window,
//!   so a group that straddles a word boundary costs one extra shift;
//! * the group test "more than two targets" is two `x & (x - 1)` steps,
//!   and a group that fails it holds `(x != 0) + (y != 0)` targets — no
//!   popcount, which the baseline x86-64 target lacks as an instruction.
//!
//! Counting codewords needs none of this per-slice work: the cost kernel
//! ([`crate::bitslice`]) reads the chain-major planes and handles 64
//! slices per word operation, so it never transposes the cube.

use crate::code::SliceCode;

/// The geometry of a slice code, read once per cube rather than per group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    /// Chain count `m`.
    pub(crate) chains: u32,
    /// Group width `c` (the data-field width), at most 32.
    pub(crate) c: u32,
    /// Number of groups, `ceil(m / c)`.
    pub(crate) groups: u32,
}

impl Geometry {
    pub(crate) fn new(code: SliceCode) -> Self {
        Geometry {
            chains: code.chains(),
            c: code.data_bits(),
            groups: code.group_count(),
        }
    }

    /// Bits in the group starting at chain `start` (the last may be short).
    #[inline]
    pub(crate) fn len_at(self, start: u32) -> u32 {
        (self.chains - start).min(self.c)
    }
}

/// The fill polarity of a slice: `true` when its specified ones outnumber
/// its specified zeros (ties fill zeros), as
/// [`Encoder::encode_slice`](crate::Encoder::encode_slice) decides.
#[inline]
pub(crate) fn fill_polarity(care: &[u64], value: &[u64]) -> bool {
    let cares: u32 = care.iter().map(|w| w.count_ones()).sum();
    let ones: u32 = value.iter().map(|w| w.count_ones()).sum();
    // ones > zeros = cares - ones
    2 * ones > cares
}

/// One word of the target row: the symbols opposite the fill.
#[inline]
pub(crate) fn target_word(care: u64, value: u64, fill: bool) -> u64 {
    if fill {
        care & !value
    } else {
        value
    }
}

/// The target count of a slice filled with `fill` when it is at most two,
/// else `None`. Such a slice has no group worth copying, so its targets
/// are all single flips. Targets are a slice's minority care symbols, so
/// most slices qualify: 98% of those verified for p34392's W=24 plan.
#[inline]
pub(crate) fn few_targets(care: &[u64], value: &[u64], fill: bool) -> Option<u64> {
    let mut n = 0u64;
    for (&cw, &vw) in care.iter().zip(value) {
        let t = target_word(cw, vw, fill);
        if more_than_two(t) {
            return None;
        }
        n += count_at_most_two(t);
    }
    (n <= 2).then_some(n)
}

/// `true` when more than two bits of `x` are set: clearing the lowest set
/// bit twice leaves something.
#[inline]
pub(crate) fn more_than_two(x: u64) -> bool {
    let y = x & x.wrapping_sub(1);
    y & y.wrapping_sub(1) != 0
}

/// Set-bit count of `x` where `x` has at most two bits set.
#[inline]
fn count_at_most_two(x: u64) -> u64 {
    let y = x & x.wrapping_sub(1);
    u64::from(x != 0) + u64::from(y != 0)
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

/// The target row of one slice, read group by group: yields
/// `(group start, target mask)` for every group in order, the mask in the
/// low `c` bits.
pub(crate) struct Groups<'a> {
    care: std::slice::Iter<'a, u64>,
    value: std::slice::Iter<'a, u64>,
    fill: bool,
    c: u32,
    mask: u64,
    /// Unread target bits, lowest first; zero above `have`.
    window: u64,
    have: u32,
    start: u32,
    left: u32,
}

impl<'a> Groups<'a> {
    /// Walks the target row of the slice with rows `care`/`value` filled
    /// with `fill`, under `geo`.
    #[inline]
    pub(crate) fn new(geo: Geometry, care: &'a [u64], value: &'a [u64], fill: bool) -> Self {
        Groups {
            care: care.iter(),
            value: value.iter(),
            fill,
            c: geo.c,
            mask: (1u64 << geo.c) - 1,
            window: 0,
            have: 0,
            start: 0,
            left: geo.groups,
        }
    }
}

impl Iterator for Groups<'_> {
    type Item = (u32, u64);

    #[inline]
    fn next(&mut self) -> Option<(u32, u64)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let c = self.c;
        let x = if self.have >= c {
            let x = self.window & self.mask;
            self.window >>= c;
            self.have -= c;
            x
        } else {
            // Past the row's last word the target is zero, like the pad
            // bits above the chain count inside it.
            let next = match (self.care.next(), self.value.next()) {
                (Some(&cw), Some(&vw)) => target_word(cw, vw, self.fill),
                _ => 0,
            };
            // have < c <= 32, so neither shift reaches 64.
            let x = (self.window | (next << self.have)) & self.mask;
            self.window = next >> (c - self.have);
            self.have = 64 - (c - self.have);
            x
        };
        let start = self.start;
        self.start += c;
        Some((start, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_model::{read_bits, SplitMix64};

    #[test]
    fn groups_match_read_bits_across_word_boundaries() {
        let mut rng = SplitMix64::new(17);
        for m in [1u32, 2, 7, 8, 63, 64, 65, 100, 127, 128, 129, 200, 300] {
            let code = SliceCode::for_chains(m);
            let geo = Geometry::new(code);
            let words = (m as usize).div_ceil(64);
            let tail = if m % 64 == 0 {
                !0
            } else {
                (1u64 << (m % 64)) - 1
            };
            for _ in 0..8 {
                let mut care: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
                *care.last_mut().unwrap() &= tail;
                let value: Vec<u64> = care.iter().map(|&c| c & rng.next_u64()).collect();
                for fill in [false, true] {
                    let target: Vec<u64> = care
                        .iter()
                        .zip(&value)
                        .map(|(&c, &v)| target_word(c, v, fill))
                        .collect();
                    let got: Vec<(u32, u64)> = Groups::new(geo, &care, &value, fill).collect();
                    assert_eq!(got.len() as u32, code.group_count(), "m={m}");
                    for (g, &(start, x)) in got.iter().enumerate() {
                        let g = g as u32;
                        assert_eq!(start, g * code.data_bits());
                        assert_eq!(geo.len_at(start), code.group_len(g));
                        let want = read_bits(&target, start as usize, code.group_len(g) as usize);
                        assert_eq!(x, want, "m={m} group {g} fill={fill}");
                    }
                }
            }
        }
    }

    #[test]
    fn group_tests_agree_with_popcount() {
        for x in 0u64..1024 {
            assert_eq!(more_than_two(x), x.count_ones() > 2, "{x:#b}");
            if x.count_ones() <= 2 {
                assert_eq!(count_at_most_two(x), u64::from(x.count_ones()));
            }
            let bits: Vec<u32> = set_bits(x).collect();
            let want: Vec<u32> = (0..64).filter(|b| x >> b & 1 == 1).collect();
            assert_eq!(bits, want);
        }
        assert!(more_than_two(u64::MAX));
        assert!(!more_than_two(1 << 63 | 1));
    }

    #[test]
    fn fill_polarity_breaks_ties_toward_zero() {
        // care 0b1111: ones 0b0011 tie, 0b0111 majority, 0b0001 minority.
        assert!(!fill_polarity(&[0b1111], &[0b0011]));
        assert!(fill_polarity(&[0b1111], &[0b0111]));
        assert!(!fill_polarity(&[0b1111], &[0b0001]));
        assert!(!fill_polarity(&[0, 0], &[0, 0]));
        assert!(fill_polarity(&[0, 1], &[0, 1]));
    }
}
