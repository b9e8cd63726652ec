//! Batched bit-parallel emulation of the decompressor.
//!
//! [`Decompressor`](crate::Decompressor) models the hardware one chain bit
//! at a time: a `Vec<bool>` buffer, a branch per symbol. That is the right
//! shape for an executable specification, and far too slow to run over a
//! full SOC's codeword streams at plan time. [`Emulator`] evaluates the
//! *same* cycle-accurate state machine in packed `u64` lanes — 64 wrapper
//! chains per word, the layout already produced by
//! [`wrapper::SliceMatrix`]:
//!
//! * a slice header fills the whole buffer with whole-word stores (the
//!   fill polarity is one splat, not `m` writes);
//! * a single-bit update touches one bit of one word;
//! * a group-copy literal splices its `c ≤ 32` bits with two masked word
//!   operations.
//!
//! Verification is word-parallel too: a decoded slice violates its cube
//! exactly where `care & (decoded ^ value)` is non-zero, so a clean slice
//! costs a handful of AND/XOR/OR ops instead of `m` ternary compares, and
//! the first offending chain falls out of a trailing-zeros count — the
//! packed verifier reports the same `(slice, chain)` location as the
//! scalar [`verify_stream`](crate::verify_stream).
//!
//! [`encode_slices_packed`] is the matching batched encoder: it derives
//! every slice's fill polarity and target positions from a few word
//! operations over the care/value planes (the per-slice arithmetic of
//! `packed.rs`) and emits
//! codewords bit-identical to
//! [`Encoder::encode_slice`](crate::Encoder::encode_slice). Together they
//! make plan-time stream verification — encode, decode, compare, for every
//! pattern of every compressed core — cheap enough to run by default.
//!
//! A pattern-major layout (64 *patterns* per word, one lane per pattern)
//! was considered and rejected: the decompressor's writes are steered by
//! each codeword's *data field*, which differs per pattern, so pattern
//! lanes immediately diverge into data-dependent scatter and the "SIMD"
//! loop degenerates to scalar stores. Chain lanes keep every write a
//! whole-word or two-word operation regardless of the stream content.
//!
//! The scalar `decoder.rs` / `integrity.rs` path is kept untouched as the
//! oracle; `tests/emulate_prop.rs` property-checks the two bit-identical.

use std::cell::RefCell;

use soc_model::{Core, TestSet, TritVec};
use wrapper::{design_wrapper, SliceMatrix, WrapperDesign};

use crate::code::{Codeword, SliceCode};
use crate::decoder::DecodeError;
use crate::integrity::StreamError;
use crate::packed::{
    few_targets, fill_polarity, more_than_two, set_bits, target_word, Geometry, Groups,
};

/// Packed-lane decompressor: the cycle-accurate state machine of
/// [`Decompressor`](crate::Decompressor) over a `u64`-packed slice buffer
/// (bit `k % 64` of word `k / 64` is wrapper chain `k`).
///
/// # Examples
///
/// ```
/// use selenc::{Emulator, Encoder, SliceCode};
///
/// let code = SliceCode::for_chains(8);
/// let words = Encoder::new(code).encode_slice(&"XXX1000X".parse()?);
/// let mut emu = Emulator::new(code);
/// let mut slices = 0;
/// for cw in words {
///     if emu.feed(cw)? {
///         assert_eq!(emu.slice_words()[0] & 0xff, 0b0000_1000);
///         slices += 1;
///     }
/// }
/// assert_eq!(slices, 1);
/// assert!(emu.is_idle());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    code: SliceCode,
    /// The code's chain count, group width and group count, read once.
    geo: Geometry,
    /// Packed slice buffer, `chains.div_ceil(64)` words; bits at or beyond
    /// the chain count stay zero so verifiers can consume rows unmasked.
    buffer: Vec<u64>,
    /// The live chains of the buffer's last word.
    tail: u64,
    fill_latch: bool,
    state: State,
    slices_emitted: u64,
    words_consumed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    AwaitHeader,
    InSlice,
    AwaitLiteral { group: u32 },
}

impl Emulator {
    /// Creates an emulator for the given slice code.
    pub fn new(code: SliceCode) -> Self {
        let tail_bits = code.chains() % 64;
        Emulator {
            code,
            geo: Geometry::new(code),
            buffer: vec![0; (code.chains() as usize).div_ceil(64)],
            tail: if tail_bits == 0 {
                !0
            } else {
                (1u64 << tail_bits) - 1
            },
            fill_latch: false,
            state: State::AwaitHeader,
            slices_emitted: 0,
            words_consumed: 0,
        }
    }

    /// The slice code in use.
    pub fn code(&self) -> SliceCode {
        self.code
    }

    /// Number of complete slices emitted so far.
    pub fn slices_emitted(&self) -> u64 {
        self.slices_emitted
    }

    /// Number of codewords consumed so far (one per TAM clock).
    pub fn words_consumed(&self) -> u64 {
        self.words_consumed
    }

    /// Returns `true` when the emulator is between slices (a safe point to
    /// stop the stream).
    pub fn is_idle(&self) -> bool {
        self.state == State::AwaitHeader
    }

    /// The packed slice buffer; meaningful right after [`feed`](Self::feed)
    /// returned `Ok(true)`, when it holds the just-completed slice (bit
    /// `k % 64` of word `k / 64` = chain `k`, zero past the chain count).
    pub fn slice_words(&self) -> &[u64] {
        &self.buffer
    }

    /// Consumes one codeword; returns `Ok(true)` when this word carried
    /// the last flag and [`slice_words`](Self::slice_words) now holds the
    /// completed slice.
    ///
    /// # Errors
    ///
    /// Rejects exactly the streams [`Decompressor::feed`]
    /// (crate::Decompressor::feed) rejects, with the same [`DecodeError`].
    pub fn feed(&mut self, cw: Codeword) -> Result<bool, DecodeError> {
        self.words_consumed += 1;
        match self.state {
            State::AwaitHeader => {
                self.fill_latch = cw.mode;
                self.fill_buffer(cw.mode);
                self.flip(cw.data)?;
                self.state = State::InSlice;
                Ok(self.maybe_emit(cw.last))
            }
            State::InSlice => {
                if cw.mode {
                    if cw.data >= self.geo.groups {
                        return Err(DecodeError::GroupOutOfRange {
                            group: cw.data,
                            groups: self.geo.groups,
                        });
                    }
                    if cw.last {
                        return Err(DecodeError::LastOnGroupHeader { group: cw.data });
                    }
                    self.state = State::AwaitLiteral { group: cw.data };
                    Ok(false)
                } else {
                    self.flip(cw.data)?;
                    Ok(self.maybe_emit(cw.last))
                }
            }
            State::AwaitLiteral { group } => {
                // The group header was checked against the group count.
                let start = group * self.geo.c;
                let len = self.geo.len_at(start);
                if len < 32 && cw.data >> len != 0 {
                    return Err(DecodeError::LiteralSpareBitsSet {
                        group,
                        data: cw.data,
                        len,
                    });
                }
                splice_bits(
                    &mut self.buffer,
                    start as usize,
                    len as usize,
                    u64::from(cw.data),
                );
                self.state = State::InSlice;
                Ok(self.maybe_emit(cw.last))
            }
        }
    }

    /// Splats the fill polarity across the buffer with whole-word stores,
    /// keeping bits at or beyond the chain count zero.
    fn fill_buffer(&mut self, fill: bool) {
        let word = if fill { !0u64 } else { 0 };
        if let Some((last, body)) = self.buffer.split_last_mut() {
            for w in body {
                *w = word;
            }
            *last = word & self.tail;
        }
    }

    /// The update of a header or single-bit word: chain `index` takes the
    /// symbol opposite the fill; `index == m` is the spare "no update".
    fn flip(&mut self, index: u32) -> Result<(), DecodeError> {
        let m = self.geo.chains;
        if index > m {
            return Err(DecodeError::BitIndexOutOfRange { index, chains: m });
        }
        // The spare value masks to nothing, so every valid word takes the
        // same store and no branch follows the stream's data.
        let mask = u64::from(index < m) << (index % 64);
        let last = self.buffer.len() - 1;
        let word = &mut self.buffer[(index as usize / 64).min(last)];
        *word = if self.fill_latch {
            *word & !mask
        } else {
            *word | mask
        };
        Ok(())
    }

    fn maybe_emit(&mut self, last: bool) -> bool {
        if last {
            self.state = State::AwaitHeader;
            self.slices_emitted += 1;
        }
        last
    }
}

/// Overwrites `len <= 32` bits of `dst` starting at bit `off` with the low
/// bits of `bits` (straddling at most two words).
fn splice_bits(dst: &mut [u64], off: usize, len: usize, bits: u64) {
    debug_assert!(len <= 32);
    if len == 0 {
        return;
    }
    let mask = (1u64 << len) - 1;
    let bits = bits & mask;
    let (w, shift) = (off / 64, off % 64);
    dst[w] = (dst[w] & !(mask << shift)) | (bits << shift);
    if shift + len > 64 {
        let spill = shift + len - 64;
        let hi_mask = (1u64 << spill) - 1;
        dst[w + 1] = (dst[w + 1] & !hi_mask) | (bits >> (len - spill));
    }
}

/// Reusable buffers for [`verify_cube_stream`]; one per thread, so the
/// public functions stay allocation-free across calls.
#[derive(Debug, Default)]
struct EmulateScratch {
    slices: SliceMatrix,
    words: Vec<Codeword>,
}

thread_local! {
    static EMULATE_SCRATCH: RefCell<EmulateScratch> = RefCell::new(EmulateScratch::default());
}

/// Encodes every slice of `slices` (shallowest first), appending the
/// codewords to `out` — bit-identical to running
/// [`Encoder::encode_slice`](crate::Encoder::encode_slice) over each
/// materialized slice, but driven by word operations over the packed
/// care/value planes instead of per-symbol lookups.
///
/// `group_copy` mirrors [`Encoder::new`](crate::Encoder::new) (`true`) vs
/// [`Encoder::single_bit_only`](crate::Encoder::single_bit_only).
///
/// # Panics
///
/// Panics if the matrix's chain count differs from the code's.
pub fn encode_slices_packed(
    code: SliceCode,
    group_copy: bool,
    slices: &SliceMatrix,
    out: &mut Vec<Codeword>,
) {
    assert_eq!(
        slices.chains(),
        code.chains() as usize,
        "slice matrix and slice code disagree on the chain count"
    );
    let geo = Geometry::new(code);
    for (care, value) in slices.rows() {
        encode_one_slice(geo, group_copy, care, value, out);
    }
}

/// The per-slice packed emitter behind [`encode_slices_packed`], in the
/// order of `Encoder::encode_slice`: a header carrying the fill polarity
/// and the first single flip, the remaining singles, then a group
/// header/literal pair per copied group; the last word carries the last
/// flag. Singles go straight to `out`; copied groups are rare, so a second
/// walk over the groups emits them.
fn encode_one_slice(
    geo: Geometry,
    group_copy: bool,
    care: &[u64],
    value: &[u64],
    out: &mut Vec<Codeword>,
) {
    let fill = fill_polarity(care, value);
    let word = |mode, data| Codeword {
        mode,
        last: false,
        data,
    };
    let mut header = true;
    let mut single = |pos: u32| {
        out.push(word(header && fill, pos));
        header = false;
    };
    // Minority masks are sparse by construction, so walking the set bits
    // beats a walk over every position.
    let mut copies = false;
    if !group_copy || few_targets(care, value, fill).is_some() {
        // No group is copied, so the singles are every target, in order.
        for ((&cw, &vw), base) in care.iter().zip(value).zip((0..).step_by(64)) {
            for bit in set_bits(target_word(cw, vw, fill)) {
                single(base + bit);
            }
        }
    } else {
        for (start, x) in Groups::new(geo, care, value, fill) {
            if more_than_two(x) {
                copies = true;
            } else {
                for bit in set_bits(x) {
                    single(start + bit);
                }
            }
        }
    }
    if header {
        out.push(word(fill, geo.chains));
    }
    if copies {
        for (group, (start, x)) in (0..).zip(Groups::new(geo, care, value, fill)) {
            if more_than_two(x) {
                // Literal bits carry actual logic values: target where the
                // mask is set, fill elsewhere (don't-cares take the fill).
                let len_mask = (1u64 << geo.len_at(start)) - 1;
                let literal = if fill { len_mask & !x } else { x };
                out.push(word(true, group));
                out.push(word(false, literal as u32));
            }
        }
    }
    out.last_mut().expect("header always present").last = true;
}

/// Decodes `words` through the packed [`Emulator`] and verifies the result
/// against the slice-major care/value planes of `expected` — the batched
/// equivalent of [`verify_stream`](crate::verify_stream), returning the
/// same [`StreamError`] (including the first offending `(slice, chain)`
/// location, in slice-then-chain order).
///
/// # Errors
///
/// Exactly the errors of [`verify_stream`](crate::verify_stream).
pub fn verify_stream_packed(
    code: SliceCode,
    words: impl IntoIterator<Item = Codeword>,
    expected: &SliceMatrix,
) -> Result<(), StreamError> {
    let mut emu = Emulator::new(code);
    let lanes_match = expected.chains() == code.chains() as usize;
    // The rows to check decoded slices against; none when the lanes differ.
    let mut rows = expected
        .rows()
        .take(if lanes_match { usize::MAX } else { 0 });
    let mut decoded = 0usize;
    let mut first_violation: Option<(usize, usize)> = None;
    for cw in words {
        if emu.feed(cw).map_err(StreamError::Malformed)? {
            if first_violation.is_none() {
                if let Some((care, value)) = rows.next() {
                    if let Some(chain) = violating_chain(care, value, emu.slice_words()) {
                        first_violation = Some((decoded, chain));
                    }
                }
            }
            decoded += 1;
        }
    }
    if !emu.is_idle() {
        return Err(StreamError::Malformed(DecodeError::TruncatedStream));
    }
    if decoded != expected.depths() {
        return Err(StreamError::SliceCountMismatch {
            expected: expected.depths(),
            decoded,
        });
    }
    if !lanes_match && decoded > 0 {
        // The scalar verifier reports the first slice whose cube length
        // disagrees — with a uniform matrix that is always slice 0.
        return Err(StreamError::SliceLengthMismatch {
            slice: 0,
            expected: expected.chains(),
            decoded: code.chains() as usize,
        });
    }
    match first_violation {
        Some((slice, chain)) => Err(StreamError::CareBitViolation { slice, chain }),
        None => Ok(()),
    }
}

/// First chain whose care bit the packed slice `decoded` contradicts, given
/// the slice's care and value rows, or `None` when every care bit holds.
///
/// A chain violates exactly where `care & (decoded ^ value)` is set, so a
/// clean row costs three word ops per 64 chains and the first offender
/// falls out of a trailing-zeros count. Bits past the chain count have
/// care = 0, so padding in `decoded` never produces a false positive.
fn violating_chain(care: &[u64], value: &[u64], decoded: &[u64]) -> Option<usize> {
    care.iter()
        .zip(value)
        .zip(decoded)
        .enumerate()
        .find_map(|(i, ((&cw, &vw), &dw))| {
            let bad = cw & (dw ^ vw);
            (bad != 0).then(|| i * 64 + bad.trailing_zeros() as usize)
        })
}

/// Encodes `cube` under `design` with the packed encoder, then decodes and
/// verifies the stream with the packed emulator; returns the codeword
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
    EMULATE_SCRATCH.with(|s| {
        // The scratch's slice matrix and codeword buffer are reused across
        // cubes; the per-slice planner borrows the rest disjointly.
        let (slices, words) = {
            let scratch = &mut *s.borrow_mut();
            let slices = std::mem::take(&mut scratch.slices);
            let words = std::mem::take(&mut scratch.words);
            (slices, words)
        };
        let mut slices = slices;
        let mut words = words;
        design.fill_slice_matrix(cube, &mut slices);
        words.clear();
        encode_slices_packed(code, true, &slices, &mut words);
        let result = verify_stream_packed(code, words.iter().copied(), &slices);
        let count = words.len() as u64;
        let scratch = &mut *s.borrow_mut();
        scratch.slices = slices;
        scratch.words = words;
        result.map(|()| count)
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

    fn unpack_slice(words: &[u64], m: usize) -> Vec<bool> {
        (0..m).map(|k| words[k / 64] >> (k % 64) & 1 == 1).collect()
    }

    /// Feeds the same stream to the scalar and packed decoders, asserting
    /// identical slices, errors, and counters at every step.
    fn assert_lockstep(code: SliceCode, words: &[Codeword]) {
        let mut scalar = Decompressor::new(code);
        let mut packed = Emulator::new(code);
        for &cw in words {
            let s = scalar.feed(cw);
            let p = packed.feed(cw);
            match (s, p) {
                (Ok(Some(slice)), Ok(true)) => {
                    assert_eq!(
                        unpack_slice(packed.slice_words(), code.chains() as usize),
                        slice
                    );
                }
                (Ok(None), Ok(false)) => {}
                (Err(se), Err(pe)) => {
                    assert_eq!(se, pe);
                    return;
                }
                (s, p) => panic!("decoder divergence: scalar {s:?} vs packed emit {p:?}"),
            }
            assert_eq!(scalar.is_idle(), packed.is_idle());
            assert_eq!(scalar.slices_emitted(), packed.slices_emitted());
            assert_eq!(scalar.words_consumed(), packed.words_consumed());
        }
    }

    #[test]
    fn packed_decoder_matches_scalar_on_clean_streams() {
        for m in [1u32, 2, 7, 8, 31, 63, 64, 65, 130] {
            let code = SliceCode::for_chains(m);
            let enc = Encoder::new(code);
            let mut rng = SplitMix64::new(u64::from(m) * 31 + 5);
            let mut words = Vec::new();
            for _ in 0..8 {
                let slice: TritVec = (0..m)
                    .map(|_| match rng.next_below(4) {
                        0 => Trit::Zero,
                        1 => Trit::One,
                        _ => Trit::X,
                    })
                    .collect();
                words.extend(enc.encode_slice(&slice));
            }
            assert_lockstep(code, &words);
        }
    }

    #[test]
    fn packed_decoder_matches_scalar_on_arbitrary_words() {
        // Random (mostly malformed) codewords: every error must agree.
        for m in [1u32, 5, 10, 33, 64, 100] {
            let code = SliceCode::for_chains(m);
            let mut rng = SplitMix64::new(u64::from(m) + 99);
            for _ in 0..32 {
                let words: Vec<Codeword> = (0..12)
                    .map(|_| Codeword {
                        mode: rng.next_below(2) == 0,
                        last: rng.next_below(3) == 0,
                        data: rng.next_below(1 << code.data_bits()) as u32,
                    })
                    .collect();
                assert_lockstep(code, &words);
            }
        }
    }

    #[test]
    fn packed_encoder_matches_scalar_encoder() {
        let core = test_core(300, 6, 0.25);
        let ts = core.test_set().unwrap();
        let mut sm = SliceMatrix::new();
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
                    design.fill_slice_matrix(cube, &mut sm);
                    let mut packed = Vec::new();
                    encode_slices_packed(code, group_copy, &sm, &mut packed);
                    let scalar: Vec<Codeword> = design
                        .slices(cube)
                        .flat_map(|s| enc.encode_slice(&s))
                        .collect();
                    assert_eq!(packed, scalar, "m={m} group_copy={group_copy}");
                }
            }
        }
    }

    #[test]
    fn packed_verifier_matches_scalar_on_flips() {
        let code = SliceCode::for_chains(10);
        let cubes: Vec<TritVec> = ["10XX01XX10", "0110100101", "X1X0X1X0X1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let enc = Encoder::new(code);
        let words: Vec<Codeword> = cubes.iter().flat_map(|s| enc.encode_slice(s)).collect();
        // A SliceMatrix with the same planes as the cube list.
        let mut sm = SliceMatrix::new();
        fill_matrix_from_slices(&mut sm, &cubes);
        let w = code.tam_width();
        for i in 0..words.len() {
            for bit in 0..w {
                let mut flipped = words.clone();
                let packed = flipped[i].pack(code) ^ (1 << bit);
                flipped[i] = Codeword::unpack(packed, code);
                let scalar = verify_stream(code, flipped.iter().copied(), &cubes);
                let fast = verify_stream_packed(code, flipped.iter().copied(), &sm);
                assert_eq!(scalar, fast, "word {i} bit {bit}");
            }
        }
        // Truncations too.
        for cut in 0..words.len() {
            let scalar = verify_stream(code, words[..cut].iter().copied(), &cubes);
            let fast = verify_stream_packed(code, words[..cut].iter().copied(), &sm);
            assert_eq!(scalar, fast, "cut {cut}");
        }
    }

    /// Builds a slice matrix holding `slices` as its rows by staging them
    /// through a scratch core whose single chain is loaded per-depth. Test
    /// helper only: production matrices come from `fill_slice_matrix`.
    fn fill_matrix_from_slices(sm: &mut SliceMatrix, slices: &[TritVec]) {
        // Concatenate the slices into one cube and present it through a
        // design with `m` chains of length `depths` each: chain k, depth d
        // must read slice d, symbol k, i.e. cube position d + k * depths.
        let m = slices[0].len();
        let depths = slices.len();
        let mut cube = TritVec::with_capacity(m * depths);
        for k in 0..m {
            for s in slices {
                cube.push(s.get(k));
            }
        }
        let core = Core::builder("stage")
            .fixed_chains(vec![depths as u32; m])
            .pattern_count(1)
            .build()
            .unwrap();
        let design = design_wrapper(&core, m as u32);
        assert_eq!(design.chain_count() as usize, m);
        design.fill_slice_matrix(&cube, sm);
        assert_eq!(sm.depths(), depths);
        for (d, s) in slices.iter().enumerate() {
            assert_eq!(&sm.slice(d), s, "staged slice {d}");
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

    #[test]
    fn splice_straddles_word_boundaries() {
        let mut words = vec![0u64; 2];
        splice_bits(&mut words, 50, 32, 0xffff_ffff);
        assert_eq!(words[0], !0u64 << 50);
        assert_eq!(words[1], (1u64 << 18) - 1);
        splice_bits(&mut words, 50, 32, 0);
        assert_eq!(words, vec![0, 0]);
        // Zero-length splices are no-ops.
        splice_bits(&mut words, 10, 0, !0);
        assert_eq!(words, vec![0, 0]);
    }
}
