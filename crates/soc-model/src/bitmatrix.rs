//! Packed bit matrices with word-parallel transpose and sub-word copies.
//!
//! The slice-cost kernel of the compression stack views a test cube two
//! ways: *chain-major* (each wrapper chain's load sequence is a contiguous
//! run of cube bits — cheap to fill with sub-word copies) and
//! *slice-major* (each scan depth is one row — what the per-slice encoder
//! statistics need). [`BitMatrix`] stores either orientation 64 bits per
//! word and converts between them with a blocked 64×64 bit transpose, so
//! the whole conversion runs at a few instructions per 64 symbols instead
//! of one call per symbol.
//!
//! Bits are indexed LSB-first: column `c` of a row lives in word `c / 64`
//! at bit `c % 64` — the same packing as [`TritVec`](crate::TritVec)'s
//! care/value planes, so cube planes can be copied in directly.

/// A dense 2-D bit array, row-major, 64 columns per word, LSB-first.
///
/// The matrix is designed for reuse: [`reset`](BitMatrix::reset) reshapes
/// and zeroes it without shrinking the backing allocation, so a scratch
/// matrix amortizes to zero allocations across many cubes.
///
/// # Examples
///
/// ```
/// use soc_model::BitMatrix;
///
/// let mut m = BitMatrix::new();
/// m.reset(2, 100);
/// m.set(1, 99, true);
/// let mut t = BitMatrix::new();
/// m.transpose_into(&mut t);
/// assert_eq!(t.rows(), 100);
/// assert!(t.get(99, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

const WORD_BITS: usize = 64;

impl BitMatrix {
    /// Creates an empty (0×0) matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes to `rows × cols` and zeroes every bit, keeping whatever
    /// backing capacity was already allocated.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.words_per_row = cols.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(rows * self.words_per_row, 0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words backing each row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        let start = r * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// Mutable packed words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        let start = r * self.words_per_row;
        &mut self.words[start..start + self.words_per_row]
    }

    /// The bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(c < self.cols, "column {c} out of range ({})", self.cols);
        (self.row(r)[c / WORD_BITS] >> (c % WORD_BITS)) & 1 == 1
    }

    /// Overwrites the bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, bit: bool) {
        assert!(c < self.cols, "column {c} out of range ({})", self.cols);
        let word = &mut self.row_mut(r)[c / WORD_BITS];
        let mask = 1u64 << (c % WORD_BITS);
        if bit {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Writes the transpose of `self` into `out` (reshaped to
    /// `cols × rows`), using a blocked 64×64 word transpose.
    pub fn transpose_into(&self, out: &mut BitMatrix) {
        out.reset(self.cols, self.rows);
        let mut block = [0u64; WORD_BITS];
        for rb in 0..self.rows.div_ceil(WORD_BITS) {
            let r0 = rb * WORD_BITS;
            let live_rows = (self.rows - r0).min(WORD_BITS);
            for cw in 0..self.words_per_row {
                for (i, slot) in block.iter_mut().enumerate() {
                    *slot = if i < live_rows {
                        self.row(r0 + i)[cw]
                    } else {
                        0
                    };
                }
                transpose64(&mut block);
                let c0 = cw * WORD_BITS;
                let live_cols = (self.cols - c0).min(WORD_BITS);
                for (j, &word) in block.iter().enumerate().take(live_cols) {
                    out.row_mut(c0 + j)[rb] = word;
                }
            }
        }
    }
}

/// In-place transpose of a 64×64 bit block (`a[r]` bit `c` ↔ `a[c]` bit
/// `r`, LSB-first), by recursive block swaps (Hacker's Delight §7-3,
/// adapted to LSB-first indexing).
#[inline]
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Reads `n ∈ [1, 64]` bits starting at bit offset `off` of the packed
/// word slice `src` (LSB-first), returned in the low bits.
///
/// # Panics
///
/// Panics (via slice indexing) if the range runs past `src`.
#[inline]
pub fn read_bits(src: &[u64], off: usize, n: usize) -> u64 {
    debug_assert!((1..=WORD_BITS).contains(&n));
    let w = off / WORD_BITS;
    let b = off % WORD_BITS;
    let mut v = src[w] >> b;
    if b != 0 && b + n > WORD_BITS {
        v |= src[w + 1] << (WORD_BITS - b);
    }
    if n < WORD_BITS {
        v &= (1u64 << n) - 1;
    }
    v
}

/// ORs `n ∈ [1, 64]` bits (low bits of `bits`) into `dst` starting at bit
/// offset `off`. The destination range must currently be zero — the
/// matrices this feeds are always freshly [`reset`](BitMatrix::reset).
///
/// # Panics
///
/// Panics (via slice indexing) if the range runs past `dst`.
#[inline]
pub fn write_bits(dst: &mut [u64], off: usize, n: usize, bits: u64) {
    debug_assert!((1..=WORD_BITS).contains(&n));
    debug_assert!(n == WORD_BITS || bits >> n == 0, "stray high bits");
    let w = off / WORD_BITS;
    let b = off % WORD_BITS;
    dst[w] |= bits << b;
    if b + n > WORD_BITS {
        dst[w + 1] |= bits >> (WORD_BITS - b);
    }
}

/// Copies `len` bits from bit offset `src_off` of `src` to bit offset
/// `dst_off` of `dst` (both LSB-first packed). The destination range must
/// currently be zero.
pub fn copy_bits(dst: &mut [u64], dst_off: usize, src: &[u64], src_off: usize, len: usize) {
    let mut done = 0usize;
    while done < len {
        let n = (len - done).min(WORD_BITS);
        let v = read_bits(src, src_off + done, n);
        write_bits(dst, dst_off + done, n, v);
        done += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> BitMatrix {
        let mut m = BitMatrix::new();
        m.reset(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, rng.next_below(2) == 1);
            }
        }
        m
    }

    #[test]
    fn set_get_roundtrip_across_words() {
        let mut m = BitMatrix::new();
        m.reset(3, 130);
        m.set(0, 0, true);
        m.set(1, 64, true);
        m.set(2, 129, true);
        assert!(m.get(0, 0) && m.get(1, 64) && m.get(2, 129));
        assert!(!m.get(0, 1) && !m.get(2, 128));
        m.set(2, 129, false);
        assert!(!m.get(2, 129));
    }

    #[test]
    fn reset_zeroes_and_reshapes() {
        let mut m = BitMatrix::new();
        m.reset(2, 70);
        m.set(1, 69, true);
        m.reset(4, 10);
        assert_eq!((m.rows(), m.cols(), m.words_per_row()), (4, 10, 1));
        for r in 0..4 {
            for c in 0..10 {
                assert!(!m.get(r, c), "({r},{c}) must be zero after reset");
            }
        }
    }

    #[test]
    fn transpose64_matches_naive() {
        let mut rng = SplitMix64::new(7);
        let mut a = [0u64; 64];
        for w in a.iter_mut() {
            *w = rng.next_u64();
        }
        let orig = a;
        transpose64(&mut a);
        for (r, row) in a.iter().enumerate() {
            for (c, col) in orig.iter().enumerate() {
                assert_eq!(
                    (row >> c) & 1,
                    (col >> r) & 1,
                    "transpose mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn transpose_into_matches_naive_on_ragged_shapes() {
        let mut rng = SplitMix64::new(42);
        for (rows, cols) in [(1, 1), (5, 200), (64, 64), (130, 3), (67, 129)] {
            let m = random_matrix(&mut rng, rows, cols);
            let mut t = BitMatrix::new();
            m.transpose_into(&mut t);
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), m.get(r, c), "({r},{c})");
                }
            }
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let mut rng = SplitMix64::new(9);
        let m = random_matrix(&mut rng, 90, 70);
        let (mut t, mut tt) = (BitMatrix::new(), BitMatrix::new());
        m.transpose_into(&mut t);
        t.transpose_into(&mut tt);
        assert_eq!(m, tt);
    }

    #[test]
    fn copy_bits_matches_per_bit_copy() {
        let mut rng = SplitMix64::new(3);
        let src: Vec<u64> = (0..6).map(|_| rng.next_u64()).collect();
        for (src_off, dst_off, len) in [
            (0, 0, 64),
            (3, 61, 130),
            (70, 1, 200),
            (5, 5, 1),
            (63, 127, 65),
        ] {
            let mut dst = vec![0u64; 8];
            copy_bits(&mut dst, dst_off, &src, src_off, len);
            for i in 0..len {
                let want = (src[(src_off + i) / 64] >> ((src_off + i) % 64)) & 1;
                let got = (dst[(dst_off + i) / 64] >> ((dst_off + i) % 64)) & 1;
                assert_eq!(got, want, "bit {i} of copy ({src_off},{dst_off},{len})");
            }
            // Bits outside the destination range stay zero.
            let set: u32 = dst.iter().map(|w| w.count_ones()).sum();
            let expect: u32 = (0..len)
                .map(|i| ((src[(src_off + i) / 64] >> ((src_off + i) % 64)) & 1) as u32)
                .sum();
            assert_eq!(set, expect);
        }
    }

    #[test]
    fn read_bits_handles_straddles() {
        let src = [u64::MAX, 0, 0b1011];
        assert_eq!(read_bits(&src, 0, 64), u64::MAX);
        assert_eq!(read_bits(&src, 60, 8), 0b1111);
        assert_eq!(read_bits(&src, 128, 4), 0b1011);
        assert_eq!(read_bits(&src, 129, 3), 0b101);
    }
}
