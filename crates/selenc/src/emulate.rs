//! Plan-time stream verification on chain-major columns.
//!
//! [`Encoder`](crate::Encoder) and [`Decompressor`](crate::Decompressor)
//! work one slice, and one chain bit, at a time: the right shape for an
//! executable specification, far too slow to run over every compressed
//! core's streams at plan time. This module encodes, decodes and checks
//! the same streams on the cube's chain-major planes
//! ([`wrapper::ChainPlanes`]: row = wrapper chain, bit = scan depth), the
//! view the slice-cost kernel ([`crate::bitslice`]) reads. Word `j` of
//! every row — a *column* — holds 64 consecutive slices, one per bit lane,
//! so nothing is ever transposed.
//!
//! * **Encode** ([`encode_columns`]). Per column, the cost kernel's tally
//!   gives all 64 fill polarities, the target rows are
//!   `value ^ (fill & care)`, and saturating marks over each group's rows
//!   flag the lanes where the group holds three or more targets: the
//!   groups that are copied. Every other target is a single flip, and is
//!   scattered into its lane's row of single positions, one OR per target.
//!   Each live lane then emits exactly the words of
//!   [`Encoder::encode_slice`](crate::Encoder::encode_slice): a header
//!   (fill polarity, first single or the spare index `m`), the remaining
//!   singles, then a group header and literal per copied group, with
//!   `last` on the final word.
//! * **Decode.** The state machine of [`Decompressor`](crate::Decompressor),
//!   with the same errors, writes each decoded symbol into chain-major
//!   `written`/`value` words at its slice's lane; a header only sets its
//!   lane of a per-column fill word. Chain `k`'s decoded word is then
//!   `(fill & !written) | (value & written)`.
//! * **Check** ([`verify_stream_columns`]). Every 64 slices, and at stream
//!   end, each decoded row is compared with the raw planes: chain `k`
//!   violates exactly where `care & (decoded ^ value)` is set. The lowest
//!   such lane, then the lowest chain at it, is the first violation in
//!   the slice-then-chain order of [`verify_stream`](crate::verify_stream).
//!
//! The decoder reads only the codewords and the raw planes, never the
//! encoder's fill words, targets or marks, so an encoder fault cannot hide
//! behind a check that shares its arithmetic. The scalar
//! `encoder.rs`/`decoder.rs`/`integrity.rs` path stays the oracle;
//! `tests/emulate_prop.rs` property-checks the two bit-identical, errors
//! included.
//!
//! A pattern-major layout (64 *patterns* per word) was considered and
//! rejected: the decompressor's writes are steered by each codeword's data
//! field, which differs per pattern, so pattern lanes diverge into
//! data-dependent scatter. Slice lanes of one pattern are decoded in
//! stream order, one lane at a time, so every write is one masked store.

use std::cell::RefCell;

use soc_model::{Core, TestSet, TritVec};
use wrapper::{design_wrapper, ChainPlanes, WrapperDesign};

use crate::bitslice::{fill_lanes, group_marks, live_lanes, set_bits, Column};
use crate::code::{Codeword, SliceCode};
use crate::decoder::DecodeError;
use crate::integrity::StreamError;

/// Encodes every slice of `planes` (shallowest first), appending the
/// codewords to `out`: bit-identical to running
/// [`Encoder::encode_slice`](crate::Encoder::encode_slice) over each
/// materialized slice, but 64 slices per word operation (see the module
/// docs).
///
/// `group_copy` mirrors [`Encoder::new`](crate::Encoder::new) (`true`) vs
/// [`Encoder::single_bit_only`](crate::Encoder::single_bit_only).
///
/// # Panics
///
/// Panics if the planes' chain count differs from the code's.
pub fn encode_columns(
    code: SliceCode,
    group_copy: bool,
    planes: &ChainPlanes,
    out: &mut Vec<Codeword>,
) {
    ColumnEncoder::default().encode(code, group_copy, planes, out);
}

/// Decodes `words` and verifies the result against the chain-major
/// care/value planes of `expected`: the column equivalent of
/// [`verify_stream`](crate::verify_stream), returning the same
/// [`StreamError`] with the same priority — malformed, truncated, slice
/// count, slice length, then the first care-bit violation in
/// slice-then-chain order. A stream that decodes past the planes' last
/// column is a slice-count error.
///
/// # Errors
///
/// Exactly the errors of [`verify_stream`](crate::verify_stream).
pub fn verify_stream_columns(
    code: SliceCode,
    words: impl IntoIterator<Item = Codeword>,
    expected: &ChainPlanes,
) -> Result<(), StreamError> {
    ColumnDecoder::default().verify(code, words, expected)
}

/// Reusable buffers of the column encoder.
#[derive(Debug, Default)]
struct ColumnEncoder {
    column: Column,
    /// Target word of every chain in the current column.
    targets: Vec<u64>,
    /// Per group: the lanes where it is copied.
    copies: Vec<u64>,
    /// Per lane: the chains of its single flips, `stride` words a lane.
    singles: Vec<u64>,
}

impl ColumnEncoder {
    fn encode(
        &mut self,
        code: SliceCode,
        group_copy: bool,
        planes: &ChainPlanes,
        out: &mut Vec<Codeword>,
    ) {
        assert_eq!(
            planes.chains(),
            code.chains() as usize,
            "chain planes and slice code disagree on the chain count"
        );
        let m = code.chains();
        let c = code.data_bits() as usize;
        let stride = (m as usize).div_ceil(64);
        let ColumnEncoder {
            column,
            targets,
            copies,
            singles,
        } = self;
        singles.clear();
        singles.resize(64 * stride, 0);
        copies.clear();
        copies.resize(code.group_count() as usize, 0);
        let word = |mode, data| Codeword {
            mode,
            last: false,
            data,
        };
        for j in 0..planes.care().words_per_row() {
            column.load(planes, j);
            let (care, value) = (&column.care, &column.value);
            // Lane counts reach at most m < 2^c.
            let fill = fill_lanes(care, value, c);
            targets.clear();
            targets.extend(care.iter().zip(value).map(|(&cw, &vw)| vw ^ (fill & cw)));
            // Lanes with any copied group.
            let mut copied = 0u64;
            for ((g, tg), copy) in (0..)
                .step_by(c)
                .zip(targets.chunks(c))
                .zip(copies.iter_mut())
            {
                *copy = if group_copy {
                    group_marks(tg.iter().copied())[2]
                } else {
                    0
                };
                copied |= *copy;
                for (k, &t) in (g..).zip(tg) {
                    let (at, bit) = (k / 64, 1u64 << (k % 64));
                    for lane in set_bits(t & !*copy) {
                        singles[lane as usize * stride + at] |= bit;
                    }
                }
            }
            let live = live_lanes(planes.depths(), j);
            for (lane, row) in (0..live).zip(singles.chunks_mut(stride)) {
                let fill = fill >> lane & 1 == 1;
                let start = out.len();
                // The header carries the fill and the first single.
                let mut mode = fill;
                for (base, w) in (0u32..).step_by(64).zip(row.iter_mut()) {
                    for bit in set_bits(*w) {
                        out.push(word(mode, base + bit));
                        mode = false;
                    }
                    *w = 0;
                }
                if out.len() == start {
                    out.push(word(fill, m));
                }
                if copied >> lane & 1 == 1 {
                    let groups = (0..).zip(targets.chunks(c)).zip(copies.iter());
                    for ((group, tg), _) in groups.filter(|(_, &copy)| copy >> lane & 1 == 1) {
                        let x =
                            (tg.iter().rev()).fold(0u32, |x, &t| x << 1 | (t >> lane & 1) as u32);
                        // Literal bits carry logic values: the targets, and
                        // the fill everywhere else.
                        let len_mask = (u64::MAX >> (64 - tg.len())) as u32;
                        let literal = if fill { len_mask & !x } else { x };
                        out.push(word(true, group));
                        out.push(word(false, literal));
                    }
                }
                out.last_mut().expect("header always present").last = true;
            }
        }
    }
}

/// The decompressor's state machine over one column of chain-major words
/// (see the module docs). Reusable: [`reset`](Self::reset) reshapes it.
#[derive(Debug, Default)]
struct ColumnDecoder {
    /// Chain count `m`.
    chains: u32,
    /// Group width `c`.
    c: u32,
    /// Group count.
    groups: u32,
    /// Per chain, the lanes of this column a flip or literal wrote; the
    /// extra row `m` takes the spare index's "no update", unread.
    written: Vec<u64>,
    /// The values written, meaningful where `written` is set.
    value: Vec<u64>,
    /// The fill polarity of each lane of this column.
    fill: u64,
    /// The lane of the slice being decoded, as a one-bit mask.
    lane: u64,
    /// What a flip writes: ones under fill 0, zeros under fill 1.
    flip: u64,
    state: State,
    /// Slices completed.
    slices: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum State {
    #[default]
    AwaitHeader,
    InSlice,
    AwaitLiteral {
        group: u32,
    },
}

impl ColumnDecoder {
    /// Readies the decoder for a fresh stream under `code`.
    fn reset(&mut self, code: SliceCode) {
        let rows = code.chains() as usize + 1;
        self.chains = code.chains();
        self.c = code.data_bits();
        self.groups = code.group_count();
        self.written.clear();
        self.written.resize(rows, 0);
        self.value.clear();
        self.value.resize(rows, 0);
        self.fill = 0;
        self.lane = 1;
        self.flip = 0;
        self.state = State::AwaitHeader;
        self.slices = 0;
    }

    /// Consumes one codeword; returns `Ok(true)` when it completed a slice.
    ///
    /// # Errors
    ///
    /// Rejects exactly the streams
    /// [`Decompressor::feed`](crate::Decompressor::feed) rejects, with the
    /// same [`DecodeError`].
    #[inline]
    fn feed(&mut self, cw: Codeword) -> Result<bool, DecodeError> {
        match self.state {
            State::AwaitHeader => {
                let lane = self.slices % 64;
                if lane == 0 {
                    // A new column keeps nothing of the last one.
                    self.written.fill(0);
                    self.fill = 0;
                }
                self.lane = 1 << lane;
                self.fill |= self.lane & 0u64.wrapping_sub(u64::from(cw.mode));
                self.flip = u64::from(cw.mode).wrapping_sub(1);
                self.write_flip(cw.data)?;
                self.state = State::InSlice;
                Ok(self.end_slice(cw.last))
            }
            State::InSlice => {
                if cw.mode {
                    if cw.data >= self.groups {
                        return Err(DecodeError::GroupOutOfRange {
                            group: cw.data,
                            groups: self.groups,
                        });
                    }
                    if cw.last {
                        return Err(DecodeError::LastOnGroupHeader { group: cw.data });
                    }
                    self.state = State::AwaitLiteral { group: cw.data };
                    Ok(false)
                } else {
                    self.write_flip(cw.data)?;
                    Ok(self.end_slice(cw.last))
                }
            }
            State::AwaitLiteral { group } => {
                // The group header was checked against the group count.
                let start = group * self.c;
                let len = (self.chains - start).min(self.c);
                if len < 32 && cw.data >> len != 0 {
                    return Err(DecodeError::LiteralSpareBitsSet {
                        group,
                        data: cw.data,
                        len,
                    });
                }
                for (k, j) in (start as usize..).zip(0..len) {
                    self.write(k, 0u64.wrapping_sub(u64::from(cw.data >> j & 1)));
                }
                self.state = State::InSlice;
                Ok(self.end_slice(cw.last))
            }
        }
    }

    /// The update of a header or single-bit word: chain `index` takes the
    /// symbol opposite the fill; `index == m` is the spare "no update".
    #[inline]
    fn write_flip(&mut self, index: u32) -> Result<(), DecodeError> {
        if index > self.chains {
            return Err(DecodeError::BitIndexOutOfRange {
                index,
                chains: self.chains,
            });
        }
        self.write(index as usize, self.flip);
        Ok(())
    }

    /// Writes this slice's lane of chain `k`: the lane's bit of `bits`.
    #[inline]
    fn write(&mut self, k: usize, bits: u64) {
        let lane = self.lane;
        self.written[k] |= lane;
        self.value[k] = (self.value[k] & !lane) | (bits & lane);
    }

    #[inline]
    fn end_slice(&mut self, last: bool) -> bool {
        if last {
            self.state = State::AwaitHeader;
            self.slices += 1;
        }
        last
    }

    /// Chain `k`'s decoded word of this column.
    #[inline]
    fn decoded(&self, k: usize) -> u64 {
        let w = self.written[k];
        (self.fill & !w) | (self.value[k] & w)
    }

    /// The first `(slice, chain)` of column `j` whose decoded bit
    /// contradicts a care bit of `planes`: the lowest lane, then the lowest
    /// chain at it. Lanes this column has not decoded hold no slice of a
    /// stream whose slice count matches, so they need no mask.
    fn first_violation(&self, planes: &ChainPlanes, j: usize) -> Option<(usize, usize)> {
        let bad =
            |k: usize, (care, value): (&[u64], &[u64])| care[j] & (self.decoded(k) ^ value[j]);
        let rows = || planes.care().row_iter().zip(planes.value().row_iter());
        let any = rows()
            .enumerate()
            .fold(0u64, |any, (k, row)| any | bad(k, row));
        if any == 0 {
            return None;
        }
        let lane = any.trailing_zeros();
        let chain = rows()
            .enumerate()
            .position(|(k, row)| bad(k, row) >> lane & 1 == 1)?;
        Some((64 * j + lane as usize, chain))
    }

    /// Decodes `words` and checks them against `expected` (see
    /// [`verify_stream_columns`]).
    fn verify(
        &mut self,
        code: SliceCode,
        words: impl IntoIterator<Item = Codeword>,
        expected: &ChainPlanes,
    ) -> Result<(), StreamError> {
        self.reset(code);
        let lanes_match = expected.chains() == code.chains() as usize;
        // Columns to check; none when the chain counts differ.
        let columns = if lanes_match {
            expected.care().words_per_row()
        } else {
            0
        };
        let mut first: Option<(usize, usize)> = None;
        let mut check = |dec: &Self, j: usize| {
            if first.is_none() && j < columns {
                first = dec.first_violation(expected, j);
            }
        };
        for cw in words {
            if self.feed(cw).map_err(StreamError::Malformed)? && self.slices.is_multiple_of(64) {
                check(self, self.slices / 64 - 1);
            }
        }
        if self.state != State::AwaitHeader {
            return Err(StreamError::Malformed(DecodeError::TruncatedStream));
        }
        if !self.slices.is_multiple_of(64) {
            check(self, self.slices / 64);
        }
        if self.slices != expected.depths() {
            return Err(StreamError::SliceCountMismatch {
                expected: expected.depths(),
                decoded: self.slices,
            });
        }
        if !lanes_match && self.slices > 0 {
            // The scalar verifier reports the first slice whose cube length
            // disagrees; with uniform planes that is always slice 0.
            return Err(StreamError::SliceLengthMismatch {
                slice: 0,
                expected: expected.chains(),
                decoded: code.chains() as usize,
            });
        }
        match first {
            Some((slice, chain)) => Err(StreamError::CareBitViolation { slice, chain }),
            None => Ok(()),
        }
    }
}

/// Reusable buffers of [`verify_cube_stream`]; one set per thread, so the
/// public functions stay allocation-free across calls.
#[derive(Debug, Default)]
struct VerifyScratch {
    planes: ChainPlanes,
    words: Vec<Codeword>,
    encoder: ColumnEncoder,
    decoder: ColumnDecoder,
}

thread_local! {
    static VERIFY_SCRATCH: RefCell<VerifyScratch> = RefCell::new(VerifyScratch::default());
}

/// Encodes `cube` under `design` with the column encoder, then decodes and
/// verifies the stream with the column decoder; returns the codeword
/// count. This is the plan-time per-pattern check: it proves the exact
/// stream the tester would ship reproduces every care bit of the cube.
///
/// # Errors
///
/// Any [`StreamError`] the decoded stream provokes (an error here means
/// the encoder/decompressor pair is broken for this operating point, not
/// that the plan is merely suboptimal).
///
/// # Panics
///
/// Panics if the cube is shorter than the design's deepest position.
pub fn verify_cube_stream(design: &WrapperDesign, cube: &TritVec) -> Result<u64, StreamError> {
    let code = SliceCode::for_chains(design.chain_count());
    VERIFY_SCRATCH.with(|s| {
        let VerifyScratch {
            planes,
            words,
            encoder,
            decoder,
        } = &mut *s.borrow_mut();
        design.fill_chain_planes(cube, planes);
        words.clear();
        encoder.encode(code, true, planes, words);
        decoder.verify(code, words.iter().copied(), planes)?;
        Ok(words.len() as u64)
    })
}

/// Totals reported by [`verify_cubes_stream`] and its callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamReport {
    /// Patterns whose streams were encoded, decoded, and verified.
    pub patterns: u64,
    /// Total codewords across all verified streams (TAM clocks).
    pub codewords: u64,
}

/// Runs [`verify_cube_stream`] over `cubes`, a consecutive run of a test
/// set's patterns, under a prebuilt `design`. Each call is independent of
/// every other, so a test set can be verified as any split into runs and
/// the reports summed — which is how the planner fans verification out.
///
/// # Errors
///
/// The first [`StreamError`] any cube provokes, in cube order.
///
/// # Panics
///
/// Panics if a cube is shorter than the design's deepest position.
pub fn verify_cubes_stream(
    design: &WrapperDesign,
    cubes: &[TritVec],
) -> Result<StreamReport, StreamError> {
    let mut report = StreamReport::default();
    for cube in cubes {
        report.codewords += verify_cube_stream(design, cube)?;
        report.patterns += 1;
    }
    Ok(report)
}

/// Runs [`verify_cubes_stream`] over every pattern of `test_set`.
///
/// # Errors
///
/// The first [`StreamError`] any pattern provokes, in pattern order.
///
/// # Panics
///
/// Panics if the test set's cubes are shorter than the design's deepest
/// position.
pub fn verify_test_set_stream(
    design: &WrapperDesign,
    test_set: &TestSet,
) -> Result<StreamReport, StreamError> {
    verify_cubes_stream(design, test_set.patterns())
}

/// Stream-verifies a core at decompressor operating point `m`: designs the
/// wrapper (clamped exactly as the planner's evaluation does) and checks
/// every pattern end to end.
///
/// # Errors
///
/// The first [`StreamError`] any pattern provokes.
///
/// # Panics
///
/// Panics if the core has no attached test set or `m == 0`.
pub fn verify_operating_point(core: &Core, m: u32) -> Result<StreamReport, StreamError> {
    let test_set = core
        .test_set()
        .expect("core must carry a test set; call synthesize_missing_test_sets first");
    verify_cubes_stream(&design_wrapper(core, m), test_set.patterns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decompressor;
    use crate::encoder::Encoder;
    use crate::integrity::verify_stream;
    use soc_model::{Core, CubeSynthesis, SplitMix64, Trit};

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

    fn random_slice(rng: &mut SplitMix64, m: u32) -> TritVec {
        (0..m)
            .map(|_| match rng.next_below(4) {
                0 => Trit::Zero,
                1 => Trit::One,
                _ => Trit::X,
            })
            .collect()
    }

    /// The decoded slice at `lane` of the decoder's current column.
    fn decoded_slice(dec: &ColumnDecoder, lane: usize) -> Vec<bool> {
        (0..dec.chains as usize)
            .map(|k| dec.decoded(k) >> lane & 1 == 1)
            .collect()
    }

    /// Feeds the same stream to the scalar and column decoders, asserting
    /// identical slices and errors at every step.
    fn assert_lockstep(code: SliceCode, words: &[Codeword]) {
        let mut scalar = Decompressor::new(code);
        let mut column = ColumnDecoder::default();
        column.reset(code);
        for &cw in words {
            match (scalar.feed(cw), column.feed(cw)) {
                (Ok(Some(slice)), Ok(true)) => {
                    let lane = (column.slices - 1) % 64;
                    assert_eq!(decoded_slice(&column, lane), slice, "slice {lane}");
                }
                (Ok(None), Ok(false)) => {}
                (Err(se), Err(ce)) => {
                    assert_eq!(se, ce);
                    return;
                }
                (s, c) => panic!("decoder divergence: scalar {s:?} vs column emit {c:?}"),
            }
            assert_eq!(scalar.is_idle(), column.state == State::AwaitHeader);
            assert_eq!(scalar.slices_emitted(), column.slices as u64);
        }
    }

    #[test]
    fn column_decoder_matches_scalar_on_clean_streams() {
        // 150 slices: two full columns and a partial third.
        for m in [1u32, 2, 7, 8, 31, 63, 64, 65, 130] {
            let code = SliceCode::for_chains(m);
            let enc = Encoder::new(code);
            let mut rng = SplitMix64::new(u64::from(m) * 31 + 5);
            let words: Vec<Codeword> = (0..150)
                .flat_map(|_| enc.encode_slice(&random_slice(&mut rng, m)))
                .collect();
            assert_lockstep(code, &words);
        }
    }

    #[test]
    fn column_decoder_matches_scalar_on_arbitrary_words() {
        // Random (mostly malformed) codewords: every error must agree; the
        // last flag is common enough that some streams cross a column.
        for m in [1u32, 5, 10, 33, 64, 100] {
            let code = SliceCode::for_chains(m);
            let mut rng = SplitMix64::new(u64::from(m) + 99);
            for len in [12, 200] {
                for _ in 0..32 {
                    let words: Vec<Codeword> = (0..len)
                        .map(|_| Codeword {
                            mode: rng.next_below(4) == 0,
                            last: rng.next_below(2) == 0,
                            data: rng.next_below(1 << code.data_bits()) as u32,
                        })
                        .collect();
                    assert_lockstep(code, &words);
                }
            }
        }
    }

    #[test]
    fn column_encoder_matches_scalar_encoder() {
        let core = test_core(300, 6, 0.25);
        let ts = core.test_set().unwrap();
        let mut planes = ChainPlanes::new();
        for m in [3u32, 16, 64, 100] {
            let design = design_wrapper(&core, m);
            let code = SliceCode::for_chains(design.chain_count());
            for group_copy in [true, false] {
                let enc = if group_copy {
                    Encoder::new(code)
                } else {
                    Encoder::single_bit_only(code)
                };
                for cube in ts.iter() {
                    design.fill_chain_planes(cube, &mut planes);
                    let mut words = Vec::new();
                    encode_columns(code, group_copy, &planes, &mut words);
                    let scalar = crate::stream::encode_cube(&enc, &design, cube);
                    assert_eq!(words, scalar, "m={m} group_copy={group_copy}");
                }
            }
        }
    }

    /// A core of `m` fixed chains, each `depth` deep, and the design that
    /// gives each chain its own wrapper chain.
    fn square(m: u32, depth: u32) -> (Core, WrapperDesign) {
        let core = Core::builder("sq")
            .fixed_chains(vec![depth; m as usize])
            .pattern_count(1)
            .build()
            .unwrap();
        let design = design_wrapper(&core, m);
        assert_eq!(design.chain_count(), m);
        assert_eq!(design.scan_in_length(), u64::from(depth));
        (core, design)
    }

    /// Encodes `cube`, then verifies the stream against the planes of
    /// `cube` with the symbols at `(slice, chain)` of `flips` inverted, and
    /// checks the verdict against the scalar oracle's.
    fn verdict_with_flips(
        design: &WrapperDesign,
        cube: &TritVec,
        flips: &[(u64, usize)],
    ) -> Result<(), StreamError> {
        let code = SliceCode::for_chains(design.chain_count());
        let mut planes = ChainPlanes::new();
        design.fill_chain_planes(cube, &mut planes);
        let mut words = Vec::new();
        encode_columns(code, true, &planes, &mut words);
        let mut expected = cube.clone();
        for &(slice, chain) in flips {
            let pos = design.chains()[chain].position_at(slice).unwrap() as usize;
            let bit = expected.get(pos) != Trit::One;
            expected.set(pos, Trit::from_bit(bit));
        }
        design.fill_chain_planes(&expected, &mut planes);
        let fast = verify_stream_columns(code, words.iter().copied(), &planes);
        let slices: Vec<TritVec> = design.slices(&expected).collect();
        assert_eq!(fast, verify_stream(code, words.iter().copied(), &slices));
        fast
    }

    fn violation(slice: usize, chain: usize) -> Result<(), StreamError> {
        Err(StreamError::CareBitViolation { slice, chain })
    }

    #[test]
    fn first_violation_is_the_lowest_slice_then_the_lowest_chain() {
        let (core, design) = square(3, 150);
        let mut rng = SplitMix64::new(11);
        let cube: TritVec = (0..core.scan_load_bits())
            .map(|_| Trit::from_bit(rng.next_below(2) == 1))
            .collect();
        assert_eq!(verdict_with_flips(&design, &cube, &[]), Ok(()));
        // Columns 0 and 2: column 0's violation is reported.
        assert_eq!(
            verdict_with_flips(&design, &cube, &[(130, 0), (5, 2)]),
            violation(5, 2)
        );
        // Two bad chains in one slice: the lower chain.
        assert_eq!(
            verdict_with_flips(&design, &cube, &[(70, 2), (70, 1)]),
            violation(70, 1)
        );
        // A lower chain at a later slice of the same column loses.
        assert_eq!(
            verdict_with_flips(&design, &cube, &[(9, 0), (3, 2)]),
            violation(3, 2)
        );
        // Lane depth - 1 of the partial last column (150 = 2 * 64 + 22).
        assert_eq!(
            verdict_with_flips(&design, &cube, &[(149, 1)]),
            violation(149, 1)
        );
    }

    #[test]
    fn later_columns_read_nothing_written_in_earlier_ones() {
        // Chain 0 flips to 1 at the even slices of column 0 (fill 0); the
        // same lanes of column 1 are care zeros that take the fill.
        let (core, design) = square(3, 128);
        let mut cube = TritVec::all_x(core.scan_load_bits() as usize);
        for (k, chain) in design.chains().iter().enumerate() {
            for depth in 0..128 {
                let pos = chain.position_at(depth).unwrap() as usize;
                cube.set(pos, Trit::from_bit(k == 0 && depth < 64 && depth % 2 == 0));
            }
        }
        assert_eq!(verdict_with_flips(&design, &cube, &[]), Ok(()));
        assert_eq!(verify_cube_stream(&design, &cube), Ok(128));
    }

    #[test]
    fn streams_past_the_last_column_are_slice_count_errors() {
        let (core, design) = square(2, 70);
        let cube: TritVec = (0..core.scan_load_bits()).map(|_| Trit::One).collect();
        let code = SliceCode::for_chains(2);
        let mut planes = ChainPlanes::new();
        design.fill_chain_planes(&cube, &mut planes);
        let mut words = Vec::new();
        encode_columns(code, true, &planes, &mut words);
        let spare = Codeword {
            mode: false,
            last: true,
            data: 2,
        };
        words.extend(std::iter::repeat_n(spare, 130));
        let slices: Vec<TritVec> = design.slices(&cube).collect();
        let want = Err(StreamError::SliceCountMismatch {
            expected: 70,
            decoded: 200,
        });
        assert_eq!(verify_stream(code, words.iter().copied(), &slices), want);
        assert_eq!(verify_stream_columns(code, words, &planes), want);
    }

    #[test]
    fn column_verifier_matches_scalar_on_flips() {
        let core = test_core(120, 2, 0.4);
        for m in [4u32, 10] {
            let design = design_wrapper(&core, m);
            let code = SliceCode::for_chains(design.chain_count());
            let mut planes = ChainPlanes::new();
            for cube in core.test_set().unwrap().iter() {
                design.fill_chain_planes(cube, &mut planes);
                let mut words = Vec::new();
                encode_columns(code, true, &planes, &mut words);
                let slices: Vec<TritVec> = design.slices(cube).collect();
                let both = |words: &[Codeword]| {
                    let scalar = verify_stream(code, words.iter().copied(), &slices);
                    let fast = verify_stream_columns(code, words.iter().copied(), &planes);
                    assert_eq!(scalar, fast, "m={m}");
                };
                for i in 0..words.len() {
                    for bit in 0..code.tam_width() {
                        let mut flipped = words.clone();
                        flipped[i] = Codeword::unpack(flipped[i].pack(code) ^ (1 << bit), code);
                        both(&flipped);
                    }
                }
                for cut in 0..words.len() {
                    both(&words[..cut]);
                }
            }
        }
    }

    #[test]
    fn verify_cube_stream_counts_codewords() {
        let core = test_core(200, 4, 0.3);
        let ts = core.test_set().unwrap();
        let design = design_wrapper(&core, 24);
        let code = SliceCode::for_chains(design.chain_count());
        let enc = Encoder::new(code);
        for cube in ts.iter() {
            let n = verify_cube_stream(&design, cube).unwrap();
            let scalar = crate::stream::encode_cube(&enc, &design, cube);
            assert_eq!(n, scalar.len() as u64);
        }
    }

    #[test]
    fn verify_operating_point_reports_totals() {
        let core = test_core(150, 5, 0.2);
        let report = verify_operating_point(&core, 12).unwrap();
        assert_eq!(report.patterns, 5);
        let compressed = crate::stream::evaluate_clamped(&core, 12, None);
        assert_eq!(report.codewords, compressed.codewords);
    }
}
