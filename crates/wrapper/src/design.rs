//! Wrapper-chain design: partitioning a core's scanned elements into
//! wrapper chains (the `Design_wrapper` best-fit-decreasing heuristic of
//! Iyengar, Chakrabarty & Marinissen, ITC 2001 / JETTA 2002).

use soc_model::{Core, ScanArchitecture, Trit, TritVec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Layout of one wrapper chain: which cube positions it loads, in shift
/// order, plus its unload (response) length.
///
/// A cube's positions are numbered canonically: wrapper input cells first
/// (functional inputs, then bidirectionals), then internal scan cells in
/// chain/stitch order. A chain's *load sequence* is the concatenation of its
/// `segments`; element `j` of the sequence is the bit the chain receives at
/// scan-in cycle `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLayout {
    segments: Vec<Range<u64>>,
    load_len: u64,
    unload_len: u64,
}

impl ChainLayout {
    fn empty() -> Self {
        ChainLayout {
            segments: Vec::new(),
            load_len: 0,
            unload_len: 0,
        }
    }

    fn push_segment(&mut self, seg: Range<u64>) {
        self.load_len += seg.end - seg.start;
        // Merge with the previous segment when contiguous, keeping the
        // common case (balanced block partitions) at one segment per chain.
        if let Some(last) = self.segments.last_mut() {
            if last.end == seg.start {
                last.end = seg.end;
                return;
            }
        }
        self.segments.push(seg);
    }

    /// Number of stimulus bits this chain loads per pattern.
    pub fn load_len(&self) -> u64 {
        self.load_len
    }

    /// Number of response bits this chain unloads per pattern.
    pub fn unload_len(&self) -> u64 {
        self.unload_len
    }

    /// The cube-position ranges forming the load sequence, in shift order.
    pub fn segments(&self) -> &[Range<u64>] {
        &self.segments
    }

    /// Cube position loaded at scan-in cycle `depth`, or `None` when the
    /// chain is shorter than `depth + 1` (an idle/pad cycle).
    pub fn position_at(&self, depth: u64) -> Option<u64> {
        if depth >= self.load_len {
            return None;
        }
        let mut remaining = depth;
        for seg in &self.segments {
            let len = seg.end - seg.start;
            if remaining < len {
                return Some(seg.start + remaining);
            }
            remaining -= len;
        }
        // `load_len` equals the segment sum by construction, so this is
        // unreachable for designs built by `design_wrapper`; degrade to an
        // idle cycle rather than panicking — `position_at` sits on the
        // untrusted vector-image verification path.
        debug_assert!(false, "load_len covers all segments");
        None
    }
}

/// A complete wrapper design for one core at a given chain count.
///
/// # Examples
///
/// ```
/// use soc_model::Core;
/// use wrapper::design_wrapper;
///
/// let core = Core::builder("c")
///     .inputs(4)
///     .outputs(2)
///     .fixed_chains(vec![8, 6, 6])
///     .pattern_count(10)
///     .build()?;
/// let design = design_wrapper(&core, 2);
/// assert_eq!(design.chain_count(), 2);
/// // 20 scan cells + 4 input cells over 2 chains: best max load is 12.
/// assert_eq!(design.scan_in_length(), 12);
/// # Ok::<(), soc_model::BuildCoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperDesign {
    chains: Vec<ChainLayout>,
    scan_in: u64,
    scan_out: u64,
}

impl WrapperDesign {
    /// Number of (non-empty) wrapper chains.
    pub fn chain_count(&self) -> u32 {
        self.chains.len() as u32
    }

    /// The per-chain layouts.
    pub fn chains(&self) -> &[ChainLayout] {
        &self.chains
    }

    /// Longest load length over all chains (`s_i`).
    pub fn scan_in_length(&self) -> u64 {
        self.scan_in
    }

    /// Longest unload length over all chains (`s_o`).
    pub fn scan_out_length(&self) -> u64 {
        self.scan_out
    }

    /// Test application time in clock cycles for `patterns` patterns when
    /// the wrapper chains are driven directly from TAM wires (no
    /// compression): `(1 + max(s_i, s_o))·p + min(s_i, s_o)`
    /// (Iyengar et al., JETTA 2002).
    pub fn test_time(&self, patterns: u64) -> u64 {
        let max = self.scan_in.max(self.scan_out);
        let min = self.scan_in.min(self.scan_out);
        (1 + max) * patterns + min
    }

    /// Extracts scan slice `depth` of `cube`: one symbol per wrapper chain —
    /// the bit each chain receives at scan-in cycle `depth`, with `X` for
    /// chains already past their load length (idle/pad bits).
    ///
    /// # Panics
    ///
    /// Panics if a chain references a position beyond `cube.len()`.
    pub fn slice(&self, cube: &TritVec, depth: u64) -> TritVec {
        let mut out = TritVec::with_capacity(self.chains.len());
        for chain in &self.chains {
            match chain.position_at(depth) {
                Some(pos) => out.push(cube.get(pos as usize)),
                None => out.push(Trit::X),
            }
        }
        out
    }

    /// Iterates over all `scan_in_length()` slices of `cube`, shallowest
    /// first.
    pub fn slices<'a>(&'a self, cube: &'a TritVec) -> Slices<'a> {
        Slices {
            design: self,
            cube,
            depth: 0,
        }
    }
}

/// Iterator over the scan slices of one cube, produced by
/// [`WrapperDesign::slices`].
#[derive(Debug, Clone)]
pub struct Slices<'a> {
    design: &'a WrapperDesign,
    cube: &'a TritVec,
    depth: u64,
}

impl Iterator for Slices<'_> {
    type Item = TritVec;

    fn next(&mut self) -> Option<TritVec> {
        if self.depth >= self.design.scan_in_length() {
            return None;
        }
        let s = self.design.slice(self.cube, self.depth);
        self.depth += 1;
        Some(s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.design.scan_in_length() - self.depth) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Slices<'_> {}

/// Designs a wrapper with at most `m` chains for `core`, minimizing the
/// longer of scan-in and scan-out length (best-fit-decreasing, per
/// `Design_wrapper`).
///
/// Chains that would stay empty are dropped, so the returned design may
/// have fewer than `m` chains; [`WrapperDesign::chain_count`] reports the
/// effective number.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn design_wrapper(core: &Core, m: u32) -> WrapperDesign {
    best_fit_decreasing::<MinHeap>(core, m)
}

/// The BFD heuristic behind [`design_wrapper`], with the "shortest wrapper
/// chain" pick supplied by `P`.
fn best_fit_decreasing<P: ShortestPick>(core: &Core, m: u32) -> WrapperDesign {
    assert!(m > 0, "wrapper chain count must be positive");
    let m = m.min(core.max_wrapper_chains()) as usize;

    let io_inputs = u64::from(core.inputs()) + u64::from(core.bidirs());
    let io_outputs = u64::from(core.outputs()) + u64::from(core.bidirs());
    let scan_base = io_inputs; // cube positions of scan cells start here

    let mut chains: Vec<ChainLayout> = (0..m).map(|_| ChainLayout::empty()).collect();

    // Step 1: assign internal scan chains (atomic for hard cores, balanced
    // blocks for soft cores) to wrapper chains, longest units first, each to
    // the currently shortest wrapper chain.
    match core.scan() {
        ScanArchitecture::Combinational => {}
        ScanArchitecture::Fixed { chain_lengths } => {
            let mut units: Vec<(usize, u32)> = chain_lengths.iter().copied().enumerate().collect();
            units.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            // Precompute each fixed chain's base position in the cube.
            let mut bases = Vec::with_capacity(chain_lengths.len());
            let mut acc = scan_base;
            for &l in chain_lengths {
                bases.push(acc);
                acc += u64::from(l);
            }
            let mut shortest = P::new(vec![0; m]);
            for (idx, len) in units {
                let target = shortest.take(u64::from(len));
                let base = bases[idx];
                let seg = base..base + u64::from(len);
                chains[target].push_segment(seg);
                chains[target].unload_len += u64::from(len);
            }
        }
        ScanArchitecture::Flexible { cells, max_chains } => {
            // A soft core's cells can be stitched freely up to the flow's
            // chain limit; a balanced block partition is optimal for
            // minimizing the longest chain.
            let cells = u64::from(*cells);
            if cells > 0 {
                let k = (m as u64).min(cells).min(u64::from(*max_chains));
                let base_len = cells / k;
                let extra = cells % k;
                let mut start = scan_base;
                for i in 0..k {
                    let len = base_len + u64::from(i < extra);
                    let seg = start..start + len;
                    start += len;
                    let target = i as usize;
                    chains[target].push_segment(seg);
                    chains[target].unload_len += len;
                }
            }
        }
    }

    // Step 2: wrapper input cells, one at a time, each to the wrapper chain
    // with the shortest load length.
    let mut shortest = P::new(chains.iter().map(|c| c.load_len).collect());
    for pos in 0..io_inputs {
        let target = shortest.take(1);
        chains[target].push_segment(pos..pos + 1);
    }

    // Step 3: wrapper output cells to the chain with the shortest unload
    // length (no cube positions: responses are not planned).
    let mut shortest = P::new(chains.iter().map(|c| c.unload_len).collect());
    for _ in 0..io_outputs {
        let target = shortest.take(1);
        chains[target].unload_len += 1;
    }

    chains.retain(|c| c.load_len > 0 || c.unload_len > 0);
    if chains.is_empty() {
        chains.push(ChainLayout::empty());
    }
    let scan_in = chains.iter().map(|c| c.load_len).max().unwrap_or(0);
    let scan_out = chains.iter().map(|c| c.unload_len).max().unwrap_or(0);
    WrapperDesign {
        chains,
        scan_in,
        scan_out,
    }
}

/// The BFD pick over a set of wrapper chains: the shortest chain, the
/// lowest index among equally short ones.
trait ShortestPick {
    /// A pick over chains with the given lengths (at least one).
    fn new(lengths: Vec<u64>) -> Self;

    /// Picks the shortest chain and files it `added` longer.
    fn take(&mut self, added: u64) -> usize;
}

/// [`ShortestPick`] from a min-heap keyed `(length, index)`: `O(log m)`
/// per pick, where a scan over the chains costs `O(m)`.
struct MinHeap(BinaryHeap<Reverse<(u64, usize)>>);

impl ShortestPick for MinHeap {
    fn new(lengths: Vec<u64>) -> Self {
        MinHeap(
            lengths
                .into_iter()
                .enumerate()
                .map(|(i, len)| Reverse((len, i)))
                .collect(),
        )
    }

    fn take(&mut self, added: u64) -> usize {
        let mut top = self.0.peek_mut().expect("at least one chain");
        let Reverse((len, i)) = *top;
        *top = Reverse((len + added, i));
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use soc_model::Core;

    fn hard_core() -> Core {
        Core::builder("h")
            .inputs(4)
            .outputs(3)
            .fixed_chains(vec![8, 6, 6, 4])
            .pattern_count(10)
            .build()
            .unwrap()
    }

    #[test]
    fn bfd_balances_fixed_chains() {
        let d = design_wrapper(&hard_core(), 2);
        // 24 scan cells + 4 inputs = 28 load bits over 2 chains → 14 each.
        assert_eq!(d.chain_count(), 2);
        assert_eq!(d.scan_in_length(), 14);
        let total: u64 = d.chains().iter().map(ChainLayout::load_len).sum();
        assert_eq!(total, 28);
    }

    #[test]
    fn single_chain_takes_everything() {
        let c = hard_core();
        let d = design_wrapper(&c, 1);
        assert_eq!(d.chain_count(), 1);
        assert_eq!(d.scan_in_length(), c.scan_load_bits());
        assert_eq!(d.scan_out_length(), c.scan_unload_bits());
    }

    #[test]
    fn chain_count_clamped_to_core_capacity() {
        let c = hard_core(); // max chains = 4 fixed + 4 inputs = 8
        let d = design_wrapper(&c, 100);
        assert!(d.chain_count() <= 8);
    }

    #[test]
    fn more_chains_never_lengthen_scan_in() {
        let c = hard_core();
        let mut prev = u64::MAX;
        for m in 1..=8 {
            let d = design_wrapper(&c, m);
            assert!(d.scan_in_length() <= prev, "m={m}");
            prev = d.scan_in_length();
        }
    }

    #[test]
    fn flexible_core_balances_cells() {
        let c = Core::builder("s")
            .flexible_cells(100, 64)
            .inputs(2)
            .pattern_count(5)
            .build()
            .unwrap();
        let d = design_wrapper(&c, 7);
        assert_eq!(d.chain_count(), 7);
        // 100 cells over 7 chains → 15/14; the 2 input cells go on the two
        // shortest chains → max load stays 15.
        assert_eq!(d.scan_in_length(), 15);
        let loads: u64 = d.chains().iter().map(ChainLayout::load_len).sum();
        assert_eq!(loads, 102);
    }

    #[test]
    fn every_cube_position_loaded_exactly_once() {
        let c = hard_core();
        for m in [1u32, 2, 3, 5, 8] {
            let d = design_wrapper(&c, m);
            let mut seen = vec![0u32; c.scan_load_bits() as usize];
            for chain in d.chains() {
                for depth in 0..chain.load_len() {
                    let pos = chain.position_at(depth).unwrap() as usize;
                    seen[pos] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "m={m}: {seen:?}");
        }
    }

    #[test]
    fn unload_side_counts_outputs() {
        let d = design_wrapper(&hard_core(), 2);
        // 24 scan cells + 3 outputs = 27 unload bits over 2 chains → 14/13.
        assert_eq!(d.scan_out_length(), 14);
    }

    #[test]
    fn test_time_matches_jetta_formula() {
        let d = design_wrapper(&hard_core(), 2);
        let (si, so) = (d.scan_in_length(), d.scan_out_length());
        assert_eq!(d.test_time(10), (1 + si.max(so)) * 10 + si.min(so));
    }

    #[test]
    fn combinational_core_uses_io_cells_only() {
        let c = Core::builder("comb")
            .inputs(6)
            .outputs(6)
            .pattern_count(3)
            .build()
            .unwrap();
        let d = design_wrapper(&c, 3);
        assert_eq!(d.chain_count(), 3);
        assert_eq!(d.scan_in_length(), 2);
        assert_eq!(d.scan_out_length(), 2);
    }

    #[test]
    fn slices_cover_cube_with_padding() {
        let c = Core::builder("p")
            .inputs(1)
            .fixed_chains(vec![4, 2])
            .pattern_count(1)
            .build()
            .unwrap();
        let d = design_wrapper(&c, 2);
        let cube: TritVec = "1010101".parse().unwrap(); // 1 input + 6 cells
        let slices: Vec<TritVec> = d.slices(&cube).collect();
        assert_eq!(slices.len() as u64, d.scan_in_length());
        // Each slice has one symbol per chain.
        for s in &slices {
            assert_eq!(s.len() as u32, d.chain_count());
        }
        // Padding: the shorter chain contributes X at the deepest slices.
        let care_positions: usize = slices.iter().map(|s| s.count_cares()).sum();
        assert_eq!(care_positions, 7);
    }

    #[test]
    fn position_at_out_of_range_is_none() {
        let d = design_wrapper(&hard_core(), 3);
        let chain = &d.chains()[0];
        assert!(chain.position_at(chain.load_len()).is_none());
        assert!(chain.position_at(0).is_some());
    }

    #[test]
    #[should_panic(expected = "chain count must be positive")]
    fn zero_chains_panics() {
        design_wrapper(&hard_core(), 0);
    }

    /// The linear-scan pick the heap replaced: a scan over every chain
    /// for the lowest `(length, index)`. Kept as the reference the heap
    /// pick is tested against.
    struct LinearScan(Vec<u64>);

    impl ShortestPick for LinearScan {
        fn new(lengths: Vec<u64>) -> Self {
            LinearScan(lengths)
        }

        fn take(&mut self, added: u64) -> usize {
            let i = (0..self.0.len())
                .min_by_key(|&i| (self.0[i], i))
                .expect("at least one chain");
            self.0[i] += added;
            i
        }
    }

    #[test]
    fn heap_pick_breaks_ties_toward_the_lowest_index() {
        let mut heap = MinHeap::new(vec![3, 1, 1, 2]);
        assert_eq!(heap.take(1), 1); // lengths 3 2 1 2
        assert_eq!(heap.take(5), 2); // lengths 3 2 6 2
        assert_eq!(heap.take(1), 1); // lengths 3 3 6 2
        assert_eq!(heap.take(0), 3); // 2 stays shortest
        assert_eq!(heap.take(1), 3); // lengths 3 3 6 3: all of 0, 1, 3 tie
        assert_eq!(heap.take(0), 0);
    }

    fn arb_core() -> impl Strategy<Value = Core> {
        (
            prop_oneof![
                Just(ScanArchitecture::Combinational),
                // Hard cores, including runs of equal chains whose picks
                // tie on length.
                proptest::collection::vec(1u32..80, 1..24)
                    .prop_map(|c| ScanArchitecture::Fixed { chain_lengths: c }),
                (1u32..40, 1usize..24).prop_map(|(len, n)| ScanArchitecture::Fixed {
                    chain_lengths: vec![len; n]
                }),
                (1u32..2_000, 1u32..128).prop_map(|(cells, max)| ScanArchitecture::Flexible {
                    cells,
                    max_chains: max
                }),
            ],
            0u32..96,
            0u32..96,
            0u32..8,
        )
            .prop_filter_map("core must have stimulus", |(scan, i, o, b)| {
                Core::builder("bfd")
                    .scan(scan)
                    .inputs(i)
                    .outputs(o)
                    .bidirs(b)
                    .pattern_count(1)
                    .build()
                    .ok()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The heap pick files every scan chain, input cell and output
        /// cell on the chain the linear scan picks, so designs are
        /// identical.
        #[test]
        fn heap_pick_matches_linear_scan(core in arb_core(), m in 1u32..64) {
            prop_assert_eq!(
                best_fit_decreasing::<MinHeap>(&core, m),
                best_fit_decreasing::<LinearScan>(&core, m)
            );
        }
    }
}
