//! Packed bit matrices with sub-word reads and writes.
//!
//! The compression stack views a test cube *chain-major*: each wrapper
//! chain's load sequence is a contiguous run of cube bits, cheap to fill
//! with sub-word copies, and one word of a row holds 64 consecutive scan
//! depths. The slice-cost kernel and the plan-time stream encoder and
//! decoder read those words 64 slices at a time, so no slice-major copy
//! is ever built. [`BitMatrix`] stores the planes 64 bits per word.
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
/// assert_eq!(m.words_per_row(), 2);
/// assert_eq!(m.row(1)[1], 1 << 35);
/// assert!(m.get(1, 99));
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

    /// The packed rows, first to last, each
    /// [`words_per_row`](Self::words_per_row) words long (none when the
    /// matrix has no columns).
    pub fn row_iter(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.words_per_row.max(1))
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
    fn row_iter_walks_every_row() {
        let mut rng = SplitMix64::new(5);
        let m = random_matrix(&mut rng, 4, 70);
        assert_eq!(m.row_iter().len(), 4);
        for (r, row) in m.row_iter().enumerate() {
            assert_eq!(row, m.row(r));
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
