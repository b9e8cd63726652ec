//! Packed bit matrices with word-parallel transpose and sub-word reads
//! and writes.
//!
//! The compression stack views a test cube two ways: *chain-major* (each
//! wrapper chain's load sequence is a contiguous run of cube bits — cheap
//! to fill with sub-word copies, and what the bit-sliced slice-cost kernel
//! reads) and *slice-major* (each scan depth is one row — what the packed
//! encoder and stream emulator consume). [`BitMatrix`] stores either
//! orientation 64 bits per word and converts between them with a blocked
//! bit transpose, so the whole conversion runs at a few instructions per
//! 64 symbols instead of one call per symbol. The block shape follows the
//! row count (see [`BitMatrix::transpose_into`]).
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

    /// The packed rows, first to last, each
    /// [`words_per_row`](Self::words_per_row) words long (none when the
    /// matrix has no columns).
    pub fn row_iter(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.words_per_row.max(1))
    }

    /// Writes the transpose of `self` into `out` (reshaped to
    /// `cols × rows`).
    ///
    /// The block shape is chosen from the row count alone. Up to 8 rows,
    /// each 64-column word is cut into eight 8×8 bit blocks, so a narrow
    /// matrix (a few wrapper chains) costs a few instructions per output
    /// row. Taller matrices go through a 64×64 block network, whose cost
    /// per output row does not shrink with fewer live rows.
    pub fn transpose_into(&self, out: &mut BitMatrix) {
        out.reset(self.cols, self.rows);
        if self.rows <= BAND_ROWS {
            self.transpose_band_into(out);
        } else {
            self.transpose_blocks_into(out);
        }
    }

    /// [`transpose_into`](Self::transpose_into) for `rows <= 8`: `out`
    /// has one word per row, and each holds at most 8 bits.
    fn transpose_band_into(&self, out: &mut BitMatrix) {
        let rows = self.rows;
        if rows == 0 {
            return;
        }
        for cw in 0..self.words_per_row {
            let mut band = [0u64; BAND_ROWS];
            for (r, slot) in band.iter_mut().enumerate().take(rows) {
                *slot = self.words[r * self.words_per_row + cw];
            }
            // Byte `b` of every row gathers into word `b`, so each word is
            // one 8×8 block: byte `r` = row `r`, bit `k` = column `8b + k`.
            transpose_bytes(&mut band);
            let c0 = cw * WORD_BITS;
            let live = (self.cols - c0).min(WORD_BITS);
            let dst = &mut out.words[c0..c0 + live];
            for (block, cols) in band.iter().zip(dst.chunks_mut(8)) {
                let t = transpose8(*block);
                for (k, word) in cols.iter_mut().enumerate() {
                    *word = (t >> (8 * k)) & 0xff;
                }
            }
        }
    }

    /// [`transpose_into`](Self::transpose_into) by 64×64 blocks.
    fn transpose_blocks_into(&self, out: &mut BitMatrix) {
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

/// The most rows [`BitMatrix::transpose_into`] transposes by 8×8 blocks;
/// taller matrices go through 64×64 blocks.
const BAND_ROWS: usize = 8;

/// Transposes the 8×8 byte matrix held in `a` (`a[r]` byte `b` ↔ `a[b]`
/// byte `r`), by the block swaps of [`transpose64`] at byte granularity.
#[inline]
fn transpose_bytes(a: &mut [u64; BAND_ROWS]) {
    for (j, m, rows) in [
        (4, 0x0000_0000_FFFF_FFFF_u64, [0, 1, 2, 3]),
        (2, 0x0000_FFFF_0000_FFFF, [0, 1, 4, 5]),
        (1, 0x00FF_00FF_00FF_00FF, [0, 2, 4, 6]),
    ] {
        let shift = 8 * j;
        for k in rows {
            let t = ((a[k] >> shift) ^ a[k + j]) & m;
            a[k] ^= t << shift;
            a[k + j] ^= t;
        }
    }
}

/// Transposes the 8×8 bit matrix held in `x` (byte `r` bit `c` ↔ byte `c`
/// bit `r`; Hacker's Delight §7-3).
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
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
        // Row counts on both sides of the block-shape switch (8 | 9) and
        // of the 64×64 block's edge (63 | 64 | 65).
        let shapes = (1..=9)
            .chain(63..=65)
            .flat_map(|rows| [(rows, 1), (rows, 7), (rows, 64), (rows, 130)])
            .chain([(5, 200), (130, 3), (67, 129), (0, 70), (3, 0)]);
        for (rows, cols) in shapes {
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
    fn transpose8_matches_naive() {
        let mut rng = SplitMix64::new(8);
        for _ in 0..16 {
            let x = rng.next_u64();
            let t = transpose8(x);
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!((t >> (8 * c + r)) & 1, (x >> (8 * r + c)) & 1, "({r},{c})");
                }
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
    fn double_transpose_is_identity() {
        let mut rng = SplitMix64::new(9);
        let m = random_matrix(&mut rng, 90, 70);
        let (mut t, mut tt) = (BitMatrix::new(), BitMatrix::new());
        m.transpose_into(&mut t);
        t.transpose_into(&mut tt);
        assert_eq!(m, tt);
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
