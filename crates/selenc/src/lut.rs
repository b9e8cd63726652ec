//! Per-core `(w, m)` lookup tables (paper §3, steps 1–2).
//!
//! For every feasible decompressor input width `w`, the builder searches the
//! feasible chain counts `m` (those with `ceil(log2(m+1)) + 2 == w`) for the
//! one minimizing the core's compressed test time, and records
//! `(w, m*, τ_c, V_c)`. The SOC planner then consults these tables when
//! assigning cores to TAMs. Because the test time is **non-monotonic** in
//! both `m` and `w` (Figs. 2 and 3), the planner must use
//! [`CoreProfile::best_at_most`] — the running minimum over widths — rather
//! than the entry at the exact TAM width.

use std::fmt;

use robust::{fnv1a, fold_words, FNV_OFFSET};
use soc_model::Core;

use crate::code::SliceCode;
use crate::memo::EvalCache;
use crate::stream::Compressed;

/// One operating point of a core's compression profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Decompressor input width `w` (TAM wires consumed).
    pub tam_width: u32,
    /// Decompressor output width `m` (wrapper chains) minimizing test time
    /// at this `w`.
    pub chains: u32,
    /// Compressed test time in clock cycles.
    pub test_time: u64,
    /// Compressed data volume in bits.
    pub volume_bits: u64,
}

/// A core's compression lookup table: the best operating point per
/// decompressor input width.
///
/// # Examples
///
/// ```
/// use soc_model::benchmarks::Design;
/// use selenc::{CoreProfile, ProfileConfig};
///
/// let soc = Design::D695.build_with_cubes(1);
/// let (_, core) = soc.core_by_name("s13207").expect("d695 core");
/// let profile = CoreProfile::build(core, &ProfileConfig::new(16));
/// let best = profile.best_at_most(16).expect("feasible at w = 16");
/// assert!(best.test_time > 0);
/// // Narrower interfaces can never be *forced* to do worse: the planner
/// // sees the running minimum.
/// let at8 = profile.best_at_most(8).unwrap();
/// assert!(at8.test_time >= best.test_time);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreProfile {
    name: String,
    entries: Vec<ProfileEntry>,
    /// `prefix_best[i]` indexes the best entry (lowest test time, then
    /// narrowest width) among `entries[..=i]`, so
    /// [`best_at_most`](CoreProfile::best_at_most) is a binary search plus
    /// one lookup instead of a scan.
    prefix_best: Vec<usize>,
}

/// Returned by [`profile_entry_for_width`] when the cancellation callback
/// fired before the width was fully evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

/// Configuration for [`CoreProfile::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileConfig {
    max_tam_width: u32,
    pattern_sample: Option<usize>,
    m_candidates: usize,
}

impl ProfileConfig {
    /// Profiles widths `3..=max_tam_width`, evaluating every feasible chain
    /// count exhaustively on the core's full test set.
    pub fn new(max_tam_width: u32) -> Self {
        ProfileConfig {
            max_tam_width,
            pattern_sample: None,
            m_candidates: usize::MAX,
        }
    }

    /// Limits each evaluation to `sample` evenly spaced patterns (scaled
    /// back to the full set). Recommended for industrial-size cores.
    ///
    /// # Panics
    ///
    /// Panics if `sample == 0`.
    pub fn pattern_sample(mut self, sample: usize) -> Self {
        assert!(sample > 0, "sample size must be positive");
        self.pattern_sample = Some(sample);
        self
    }

    /// Caps the number of chain counts evaluated per width to `n` evenly
    /// spread candidates (the range endpoints are always included).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn m_candidates(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least the two range endpoints");
        self.m_candidates = n;
        self
    }

    /// A configuration tuned for 10k–110k-cell industrial cores: 24-pattern
    /// sampling and 24 chain-count candidates per width.
    pub fn industrial(max_tam_width: u32) -> Self {
        ProfileConfig::new(max_tam_width)
            .pattern_sample(24)
            .m_candidates(24)
    }

    /// The chain counts to evaluate for width `w` on `core`.
    fn m_values(&self, core: &Core, w: u32) -> Vec<u32> {
        let range = SliceCode::feasible_chains(w);
        let lo = *range.start();
        let hi = (*range.end()).min(core.max_wrapper_chains());
        if hi < lo {
            return Vec::new();
        }
        let span = (hi - lo + 1) as usize;
        if span <= self.m_candidates {
            return (lo..=hi).collect();
        }
        let n = self.m_candidates;
        (0..n)
            .map(|i| lo + ((hi - lo) as usize * i / (n - 1)) as u32)
            .collect()
    }
}

/// Evaluates the single profile width `w` against `cache`'s core: the best
/// feasible chain count of `w`'s class, or `Ok(None)` when the class is
/// infeasible for this core. `Err(Interrupted)` if `cancelled` fires
/// mid-search (a half-searched width would mis-rank against neighbours).
///
/// This is the unit of work the planner's thread pool schedules; building
/// every width `3..=max` and keeping the `Ok(Some(_))` results reproduces
/// [`CoreProfile::build`] exactly.
///
/// # Panics
///
/// Panics if the cached core has no attached test set.
pub fn profile_entry_for_width(
    cache: &EvalCache<'_>,
    w: u32,
    config: &ProfileConfig,
    cancelled: &dyn Fn() -> bool,
) -> Result<Option<ProfileEntry>, Interrupted> {
    let mut best: Option<(u32, Compressed)> = None;
    let mut last_m = 0;
    for m in config.m_values(cache.core(), w) {
        if cancelled() {
            return Err(Interrupted);
        }
        if m == last_m {
            continue;
        }
        last_m = m;
        if let Some(c) = cache.evaluate_point(m, config.pattern_sample) {
            if best.as_ref().is_none_or(|(_, b)| c.test_time < b.test_time) {
                best = Some((m, c));
            }
        }
    }
    Ok(best.map(|(m, c)| ProfileEntry {
        tam_width: w,
        chains: m,
        test_time: c.test_time,
        volume_bits: c.volume_bits,
    }))
}

impl CoreProfile {
    /// Builds the profile of `core` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the core has no attached test set (synthesize or attach
    /// cubes first).
    pub fn build(core: &Core, config: &ProfileConfig) -> Self {
        Self::build_cancellable(core, config, &|| false)
    }

    /// [`build`](CoreProfile::build) against an existing [`EvalCache`],
    /// sharing operating-point evaluations with every other consumer of the
    /// cache (decision tables, other profile configs, benchmarks).
    ///
    /// # Panics
    ///
    /// As [`build`](CoreProfile::build).
    pub fn build_cached(cache: &EvalCache<'_>, config: &ProfileConfig) -> Self {
        Self::build_inner(cache, config, &|| false)
    }

    /// Like [`build`](CoreProfile::build), but polls `cancelled` between
    /// operating-point evaluations and stops early when it returns `true`.
    ///
    /// The result is a *prefix* of the full profile (all widths evaluated
    /// so far) — still internally consistent, just covering fewer widths.
    /// Callers degrade gracefully: a width without an entry simply has no
    /// compressed operating point and falls back to raw access.
    ///
    /// # Panics
    ///
    /// As [`build`](CoreProfile::build).
    pub fn build_cancellable(
        core: &Core,
        config: &ProfileConfig,
        cancelled: &dyn Fn() -> bool,
    ) -> Self {
        Self::build_inner(&EvalCache::new(core), config, cancelled)
    }

    fn build_inner(
        cache: &EvalCache<'_>,
        config: &ProfileConfig,
        cancelled: &dyn Fn() -> bool,
    ) -> Self {
        let mut entries = Vec::new();
        for w in SliceCode::MIN_TAM_WIDTH..=config.max_tam_width {
            match profile_entry_for_width(cache, w, config, cancelled) {
                Ok(Some(entry)) => entries.push(entry),
                Ok(None) => {}
                // Keep only fully evaluated widths.
                Err(Interrupted) => break,
            }
        }
        Self::from_entries(cache.core().name(), entries)
    }

    /// Assembles a profile from per-width entries (as produced by
    /// [`profile_entry_for_width`]), computing the prefix-minimum index.
    ///
    /// # Panics
    ///
    /// Panics if the entries' widths are not strictly increasing.
    pub fn from_entries(name: impl Into<String>, entries: Vec<ProfileEntry>) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].tam_width < w[1].tam_width),
            "profile entries must have strictly increasing widths"
        );
        let mut prefix_best = Vec::with_capacity(entries.len());
        let mut best = 0usize;
        for (i, e) in entries.iter().enumerate() {
            if e.test_time < entries[best].test_time {
                best = i;
            }
            prefix_best.push(best);
        }
        CoreProfile {
            name: name.into(),
            entries,
            prefix_best,
        }
    }

    /// The profiled core's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-width entries, in increasing `tam_width`.
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// The entry at exactly width `w`, if that width is feasible. Binary
    /// search over the width-sorted entries.
    pub fn entry_at(&self, w: u32) -> Option<&ProfileEntry> {
        self.entries
            .binary_search_by_key(&w, |e| e.tam_width)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The best entry over all widths `≤ w` (a core on a `w`-wide TAM may
    /// leave wires unused — essential because test time is non-monotonic
    /// in `w`). Answered from the precomputed prefix minimum in `O(log n)`.
    pub fn best_at_most(&self, w: u32) -> Option<&ProfileEntry> {
        let covered = self.entries.partition_point(|e| e.tam_width <= w);
        (covered > 0).then(|| &self.entries[self.prefix_best[covered - 1]])
    }

    /// The narrowest feasible width, or `None` for an empty profile.
    pub fn min_width(&self) -> Option<u32> {
        self.entries.first().map(|e| e.tam_width)
    }
}

impl fmt::Display for CoreProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "profile of {}:", self.name)?;
        for e in &self.entries {
            writeln!(
                f,
                "  w={:>3} m={:>5} τ={:>12} V={:>12}",
                e.tam_width, e.chains, e.test_time, e.volume_bits
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_model::{Core, CubeSynthesis};

    fn prepared(cells: u32, max_chains: u32, patterns: u32, density: f64) -> Core {
        let mut core = Core::builder("p")
            .inputs(12)
            .outputs(12)
            .flexible_cells(cells, max_chains)
            .pattern_count(patterns)
            .care_density(density)
            .build()
            .unwrap();
        let ts = CubeSynthesis::new(density).synthesize(&core, 11);
        core.attach_test_set(ts).unwrap();
        core
    }

    #[test]
    fn entries_cover_feasible_widths_in_order() {
        let core = prepared(400, 128, 6, 0.2);
        let p = CoreProfile::build(&core, &ProfileConfig::new(10));
        assert!(!p.entries().is_empty());
        assert!(p
            .entries()
            .windows(2)
            .all(|w| w[0].tam_width < w[1].tam_width));
        assert_eq!(p.min_width(), Some(3));
        // Max feasible m = 140 → widths up to ceil(log2(141)) + 2 = 10.
        assert_eq!(p.entries().last().unwrap().tam_width, 10);
    }

    #[test]
    fn chains_lie_in_the_width_class() {
        let core = prepared(400, 128, 6, 0.2);
        let p = CoreProfile::build(&core, &ProfileConfig::new(10));
        for e in p.entries() {
            assert!(
                SliceCode::feasible_chains(e.tam_width).contains(&e.chains),
                "w={} m={}",
                e.tam_width,
                e.chains
            );
        }
    }

    #[test]
    fn best_at_most_is_running_minimum() {
        let core = prepared(600, 256, 8, 0.1);
        let p = CoreProfile::build(&core, &ProfileConfig::new(11).m_candidates(8));
        let mut prev = u64::MAX;
        for w in 3..=11 {
            if let Some(e) = p.best_at_most(w) {
                assert!(e.test_time <= prev, "w={w}");
                prev = prev.min(e.test_time);
                assert!(e.tam_width <= w);
            }
        }
        assert!(p.best_at_most(2).is_none());
    }

    #[test]
    fn sampled_profile_tracks_exact_profile() {
        let core = prepared(500, 64, 30, 0.15);
        let exact = CoreProfile::build(&core, &ProfileConfig::new(8));
        let sampled = CoreProfile::build(&core, &ProfileConfig::new(8).pattern_sample(8));
        for (a, b) in exact.entries().iter().zip(sampled.entries()) {
            assert_eq!(a.tam_width, b.tam_width);
            let ratio = b.test_time as f64 / a.test_time as f64;
            assert!(
                (0.8..1.2).contains(&ratio),
                "w={} ratio {ratio}",
                a.tam_width
            );
        }
    }

    #[test]
    fn m_candidates_limits_search() {
        let core = prepared(2000, 512, 4, 0.1);
        let cfg = ProfileConfig::new(10).m_candidates(5);
        let vals = cfg.m_values(&core, 10);
        assert_eq!(vals.len(), 5);
        assert_eq!(*vals.first().unwrap(), 128);
        assert_eq!(*vals.last().unwrap(), 255);
        assert!(vals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn infeasible_widths_are_absent() {
        // min(8, 100) stitchable scan chains + 12 input cells → at most 20
        // wrapper chains. w = 7 needs m ∈ [16, 31] → feasible (16..=20);
        // w = 8 needs m ∈ [32, 63] → infeasible.
        let core = prepared(100, 8, 4, 0.3);
        assert_eq!(core.max_wrapper_chains(), 20);
        let p = CoreProfile::build(&core, &ProfileConfig::new(12));
        assert!(p.entry_at(7).is_some());
        assert!(p.entry_at(8).is_none());
        assert!(p.entry_at(10).is_none());
        assert_eq!(p.entries().last().unwrap().tam_width, 7);
    }

    #[test]
    fn cached_build_matches_plain_build() {
        let core = prepared(500, 128, 10, 0.15);
        let plain = CoreProfile::build(&core, &ProfileConfig::new(9).m_candidates(6));
        let cache = EvalCache::new(&core);
        let cached = CoreProfile::build_cached(&cache, &ProfileConfig::new(9).m_candidates(6));
        assert_eq!(plain, cached);
        // A second build off the same cache is also identical (warm hits).
        let again = CoreProfile::build_cached(&cache, &ProfileConfig::new(9).m_candidates(6));
        assert_eq!(plain, again);
    }

    #[test]
    fn per_width_entries_reassemble_the_profile() {
        let core = prepared(400, 96, 6, 0.2);
        let cfg = ProfileConfig::new(9).m_candidates(5);
        let plain = CoreProfile::build(&core, &cfg);
        let cache = EvalCache::new(&core);
        let entries: Vec<ProfileEntry> = (SliceCode::MIN_TAM_WIDTH..=9)
            .filter_map(|w| {
                profile_entry_for_width(&cache, w, &cfg, &|| false).expect("not cancelled")
            })
            .collect();
        assert_eq!(plain, CoreProfile::from_entries(core.name(), entries));
    }

    #[test]
    fn width_queries_match_linear_reference() {
        let core = prepared(600, 256, 8, 0.1);
        let p = CoreProfile::build(&core, &ProfileConfig::new(11).m_candidates(8));
        for w in 0..=14 {
            assert_eq!(
                p.entry_at(w),
                p.entries().iter().find(|e| e.tam_width == w),
                "entry_at({w})"
            );
            assert_eq!(
                p.best_at_most(w),
                p.entries()
                    .iter()
                    .take_while(|e| e.tam_width <= w)
                    .min_by_key(|e| (e.test_time, e.tam_width)),
                "best_at_most({w})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_entries_rejects_unsorted_widths() {
        let e = ProfileEntry {
            tam_width: 5,
            chains: 16,
            test_time: 10,
            volume_bits: 10,
        };
        let _ = CoreProfile::from_entries("x", vec![e, e]);
    }

    #[test]
    fn display_lists_every_width() {
        let core = prepared(100, 16, 3, 0.4);
        let p = CoreProfile::build(&core, &ProfileConfig::new(6));
        let s = p.to_string();
        assert!(s.contains("w=  3"));
    }
}

/// Why a profile CSV was rejected. Corruption of an on-disk cache entry —
/// truncation, bit flips, stray edits — must surface as one of these typed
/// errors so callers can quarantine the file and rebuild, never parse a
/// bogus profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileCsvError {
    /// A data row did not have exactly 4 comma-separated fields.
    FieldCount {
        /// 1-based line number of the offending row.
        line: usize,
    },
    /// A field failed to parse as an unsigned number.
    Number {
        /// 1-based line number of the offending row.
        line: usize,
    },
    /// A width or chain count exceeded `u32`.
    Overflow {
        /// 1-based line number of the offending row.
        line: usize,
    },
    /// Widths were not strictly increasing.
    NonMonotonic {
        /// 1-based line number of the offending row.
        line: usize,
    },
    /// The integrity trailer was present but unparsable.
    BadTrailer {
        /// 1-based line number of the trailer.
        line: usize,
    },
    /// The trailer's entry count disagrees with the rows actually read —
    /// the classic truncated-write signature.
    Truncated {
        /// Entry count the trailer promised.
        expected: usize,
        /// Entries actually present.
        found: usize,
    },
    /// The trailer's checksum disagrees with the rows — a bit flip or
    /// stray edit somewhere in the data.
    ChecksumMismatch,
    /// No integrity trailer at all, in a context that requires one
    /// ([`CoreProfile::from_csv_checked`]).
    MissingTrailer,
}

impl fmt::Display for ProfileCsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileCsvError::FieldCount { line } => {
                write!(f, "line {line}: expected 4 fields")
            }
            ProfileCsvError::Number { line } => write!(f, "line {line}: invalid number"),
            ProfileCsvError::Overflow { line } => {
                write!(f, "line {line}: width or chain count exceeds u32")
            }
            ProfileCsvError::NonMonotonic { line } => {
                write!(f, "line {line}: widths must be strictly increasing")
            }
            ProfileCsvError::BadTrailer { line } => {
                write!(f, "line {line}: malformed integrity trailer")
            }
            ProfileCsvError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated: trailer promises {expected} entries, found {found}"
                )
            }
            ProfileCsvError::ChecksumMismatch => f.write_str("checksum mismatch"),
            ProfileCsvError::MissingTrailer => f.write_str("missing integrity trailer"),
        }
    }
}

impl std::error::Error for ProfileCsvError {}

/// Content fingerprint of a core: a 64-bit stamp over its name,
/// terminal/scan geometry, and the care/value planes of every attached
/// test cube. The name, the counts, the geometry and each cube's length
/// go through byte-wise FNV-1a ([`robust::fnv1a`]); the cube planes, which
/// are nearly all of the input, are folded a word at a time
/// ([`robust::fold_words`]), eight bytes per step.
///
/// Two cores share a fingerprint exactly when every input that profile
/// construction reads is identical, so the digest is the dirty-tracking
/// key for incremental table/profile rebuilds: edit one core's cubes or
/// scan structure and only that core's fingerprint moves, leaving every
/// other core's cached profile valid. The digest is independent of the
/// machine, the process, and the pattern *sampling* configuration (which
/// is keyed separately in cache file names).
pub fn core_fingerprint(core: &Core) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, core.name().as_bytes());
    // Terminator so (name, geometry) concatenations cannot alias.
    h = fnv1a(h, &[0xff]);
    for v in [
        u64::from(core.inputs()),
        u64::from(core.outputs()),
        u64::from(core.bidirs()),
        u64::from(core.pattern_count()),
    ] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    match core.scan() {
        soc_model::ScanArchitecture::Combinational => h = fnv1a(h, &[1]),
        soc_model::ScanArchitecture::Fixed { chain_lengths } => {
            h = fnv1a(h, &[2]);
            for &len in chain_lengths {
                h = fnv1a(h, &u64::from(len).to_le_bytes());
            }
        }
        soc_model::ScanArchitecture::Flexible { cells, max_chains } => {
            h = fnv1a(h, &[3]);
            h = fnv1a(h, &u64::from(*cells).to_le_bytes());
            h = fnv1a(h, &u64::from(*max_chains).to_le_bytes());
        }
    }
    match core.test_set() {
        None => h = fnv1a(h, &[4]),
        Some(ts) => {
            h = fnv1a(h, &[5]);
            h = fnv1a(h, &(ts.pattern_count() as u64).to_le_bytes());
            for cube in ts.iter() {
                h = fnv1a(h, &(cube.len() as u64).to_le_bytes());
                h = fold_words(h, cube.care_words());
                h = fold_words(h, cube.value_words());
            }
        }
    }
    h
}

impl CoreProfile {
    /// Serializes the profile as CSV (`w,m,test_time,volume_bits` rows
    /// with a header), for caching — profile construction is the expensive
    /// step of planning, and the table is tiny. The final line is an
    /// integrity trailer (`# end <n> fnv <hex>`) covering the data rows,
    /// letting [`from_csv_checked`](Self::from_csv_checked) detect
    /// truncation and bit flips.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("# profile of {}\nw,m,test_time,volume_bits\n", self.name);
        let mut sum = FNV_OFFSET;
        for e in &self.entries {
            let row = format!(
                "{},{},{},{}",
                e.tam_width, e.chains, e.test_time, e.volume_bits
            );
            sum = fnv1a(sum, row.as_bytes());
            sum = fnv1a(sum, b"\n");
            let _ = writeln!(out, "{row}");
        }
        let _ = writeln!(out, "# end {} fnv {sum:016x}", self.entries.len());
        out
    }

    /// Parses a profile previously written by [`to_csv`](Self::to_csv).
    ///
    /// Lenient about the integrity trailer: hand-written CSVs without one
    /// parse fine, but a trailer that *is* present must agree with the
    /// data. Cache readers that only ever see [`to_csv`](Self::to_csv)
    /// output should use [`from_csv_checked`](Self::from_csv_checked),
    /// which demands the trailer and therefore catches truncation.
    ///
    /// # Errors
    ///
    /// A [`ProfileCsvError`] naming the offending line when the CSV is
    /// malformed, the widths are not strictly increasing, or a present
    /// trailer disagrees with the rows.
    pub fn from_csv(name: impl Into<String>, csv: &str) -> Result<Self, ProfileCsvError> {
        CoreProfile::parse_csv(name, csv, false)
    }

    /// Parses a profile written by [`to_csv`](Self::to_csv), *requiring*
    /// the integrity trailer.
    ///
    /// This is the right entry point for on-disk cache reads: a truncated
    /// file (trailer lost) fails with [`ProfileCsvError::MissingTrailer`]
    /// or [`ProfileCsvError::Truncated`], and a bit-flipped digit — which
    /// would parse into a numerically plausible but wrong entry — fails
    /// with [`ProfileCsvError::ChecksumMismatch`].
    ///
    /// # Errors
    ///
    /// As [`from_csv`](Self::from_csv), plus
    /// [`ProfileCsvError::MissingTrailer`] when no trailer is present.
    pub fn from_csv_checked(name: impl Into<String>, csv: &str) -> Result<Self, ProfileCsvError> {
        CoreProfile::parse_csv(name, csv, true)
    }

    fn parse_csv(
        name: impl Into<String>,
        csv: &str,
        require_trailer: bool,
    ) -> Result<Self, ProfileCsvError> {
        let mut entries: Vec<ProfileEntry> = Vec::new();
        let mut sum = FNV_OFFSET;
        let mut trailer: Option<(usize, u64)> = None;
        for (idx, raw) in csv.lines().enumerate() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("# end ") {
                let bad = ProfileCsvError::BadTrailer { line: idx + 1 };
                let mut parts = rest.split_whitespace();
                let count: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(bad.clone())?;
                if parts.next() != Some("fnv") {
                    return Err(bad);
                }
                let hex = parts.next().ok_or(bad.clone())?;
                let checksum = u64::from_str_radix(hex, 16).map_err(|_| bad.clone())?;
                if parts.next().is_some() {
                    return Err(bad);
                }
                trailer = Some((count, checksum));
                continue;
            }
            if line.is_empty() || line.starts_with('#') || line.starts_with("w,") {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 4 {
                return Err(ProfileCsvError::FieldCount { line: idx + 1 });
            }
            let parse = |s: &str| -> Result<u64, ProfileCsvError> {
                s.trim()
                    .parse()
                    .map_err(|_| ProfileCsvError::Number { line: idx + 1 })
            };
            let narrow = |v: u64| -> Result<u32, ProfileCsvError> {
                u32::try_from(v).map_err(|_| ProfileCsvError::Overflow { line: idx + 1 })
            };
            let entry = ProfileEntry {
                tam_width: narrow(parse(fields[0])?)?,
                chains: narrow(parse(fields[1])?)?,
                test_time: parse(fields[2])?,
                volume_bits: parse(fields[3])?,
            };
            if let Some(last) = entries.last() {
                if entry.tam_width <= last.tam_width {
                    return Err(ProfileCsvError::NonMonotonic { line: idx + 1 });
                }
            }
            sum = fnv1a(sum, line.as_bytes());
            sum = fnv1a(sum, b"\n");
            entries.push(entry);
        }
        match trailer {
            Some((count, _)) if count != entries.len() => {
                return Err(ProfileCsvError::Truncated {
                    expected: count,
                    found: entries.len(),
                });
            }
            Some((_, checksum)) if checksum != sum => {
                return Err(ProfileCsvError::ChecksumMismatch);
            }
            Some(_) => {}
            None if require_trailer => return Err(ProfileCsvError::MissingTrailer),
            None => {}
        }
        Ok(CoreProfile::from_entries(name, entries))
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use soc_model::{Core, CubeSynthesis};

    fn profile() -> CoreProfile {
        let mut core = Core::builder("csv")
            .inputs(10)
            .flexible_cells(500, 64)
            .pattern_count(6)
            .care_density(0.1)
            .build()
            .unwrap();
        let ts = CubeSynthesis::new(0.1).synthesize(&core, 2);
        core.attach_test_set(ts).unwrap();
        CoreProfile::build(&core, &ProfileConfig::new(8).m_candidates(4))
    }

    #[test]
    fn csv_roundtrip() {
        let p = profile();
        let csv = p.to_csv();
        let q = CoreProfile::from_csv(p.name().to_string(), &csv).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(CoreProfile::from_csv("x", "1,2,3\n").is_err());
        assert!(CoreProfile::from_csv("x", "a,b,c,d\n").is_err());
        assert!(CoreProfile::from_csv("x", "5,3,10,50\n4,3,10,50\n").is_err());
        // Empty profiles parse (a core can be infeasible everywhere).
        assert!(CoreProfile::from_csv("x", "# nothing\n")
            .unwrap()
            .entries()
            .is_empty());
    }

    #[test]
    fn parsed_profiles_answer_queries() {
        let p = profile();
        let q = CoreProfile::from_csv("csv", &p.to_csv()).unwrap();
        for w in 3..=8 {
            assert_eq!(
                p.best_at_most(w).map(|e| e.test_time),
                q.best_at_most(w).map(|e| e.test_time)
            );
        }
    }

    #[test]
    fn checked_roundtrip_and_trailer_required() {
        let p = profile();
        let csv = p.to_csv();
        assert_eq!(CoreProfile::from_csv_checked("csv", &csv).unwrap(), p);
        // Hand-written CSV without a trailer: lenient parse passes, the
        // checked parse demands the trailer.
        let bare = "3,4,100,50\n5,6,90,60\n";
        assert!(CoreProfile::from_csv("x", bare).is_ok());
        assert_eq!(
            CoreProfile::from_csv_checked("x", bare),
            Err(ProfileCsvError::MissingTrailer)
        );
    }

    #[test]
    fn truncation_is_detected() {
        let p = profile();
        let csv = p.to_csv();
        // Drop one data row but keep the trailer: entry count disagrees.
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines.len() >= 4, "need rows to drop");
        let mut cut = lines.clone();
        cut.remove(2);
        let err = CoreProfile::from_csv_checked("csv", &cut.join("\n")).unwrap_err();
        assert!(matches!(err, ProfileCsvError::Truncated { .. }), "{err}");
        // Chop the file mid-way (trailer lost entirely).
        let half = &csv[..csv.len() / 2];
        assert!(CoreProfile::from_csv_checked("csv", half).is_err());
    }

    #[test]
    fn bit_flips_are_detected() {
        let p = profile();
        let csv = p.to_csv();
        // Flip the last digit of a data row's volume field: still perfectly
        // parsable, numerically plausible — only the checksum catches it.
        let mut offset = 0usize;
        let mut pos = None;
        for line in csv.lines() {
            if !line.starts_with('#') && !line.starts_with("w,") && !line.is_empty() {
                pos = Some(offset + line.len() - 1);
                break;
            }
            offset += line.len() + 1;
        }
        let pos = pos.expect("profile has a data row");
        let mut bytes = csv.into_bytes();
        assert!(bytes[pos].is_ascii_digit());
        bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
        let flipped = String::from_utf8(bytes).unwrap();
        assert_eq!(
            CoreProfile::from_csv_checked("csv", &flipped),
            Err(ProfileCsvError::ChecksumMismatch)
        );
    }

    #[test]
    fn overflowing_widths_are_typed_errors() {
        let row = format!("{},3,10,50\n", u64::from(u32::MAX) + 1);
        assert_eq!(
            CoreProfile::from_csv("x", &row),
            Err(ProfileCsvError::Overflow { line: 1 })
        );
        assert!(matches!(
            CoreProfile::from_csv("x", "1,2,3\n"),
            Err(ProfileCsvError::FieldCount { line: 1 })
        ));
        assert!(matches!(
            CoreProfile::from_csv("x", "a,b,c,d\n"),
            Err(ProfileCsvError::Number { line: 1 })
        ));
        assert!(matches!(
            CoreProfile::from_csv("x", "# end banana\n"),
            Err(ProfileCsvError::BadTrailer { line: 1 })
        ));
    }
}

#[cfg(test)]
mod stamp_tests {
    use super::*;
    use soc_model::{ScanArchitecture, TestSet, Trit, TritVec};

    /// Every geometry field the stamp reads.
    struct Spec {
        name: &'static str,
        inputs: u32,
        outputs: u32,
        bidirs: u32,
        patterns: u32,
        scan: ScanArchitecture,
    }

    fn fixed(lengths: &[u32]) -> ScanArchitecture {
        ScanArchitecture::Fixed {
            chain_lengths: lengths.to_vec(),
        }
    }

    /// A small fixed core: 74-bit cubes, so each plane spans two words.
    fn golden() -> Spec {
        Spec {
            name: "golden",
            inputs: 3,
            outputs: 2,
            bidirs: 1,
            patterns: 3,
            scan: fixed(&[40, 30]),
        }
    }

    /// The core of `spec`, whose cube `p` holds `0`, `1` or `X` at
    /// position `i` by `(7i + p) mod 3`, after `edit` touched the cubes.
    fn core_with(spec: &Spec, edit: impl Fn(&mut [TritVec])) -> Core {
        let mut core = Core::builder(spec.name)
            .inputs(spec.inputs)
            .outputs(spec.outputs)
            .bidirs(spec.bidirs)
            .scan(spec.scan.clone())
            .pattern_count(spec.patterns)
            .build()
            .unwrap();
        let bits = core.scan_load_bits() as usize;
        let mut cubes: Vec<TritVec> = (0..spec.patterns as usize)
            .map(|p| {
                (0..bits)
                    .map(|i| [Trit::Zero, Trit::One, Trit::X][(7 * i + p) % 3])
                    .collect()
            })
            .collect();
        edit(&mut cubes);
        core.attach_test_set(TestSet::from_patterns(bits, cubes).unwrap())
            .unwrap();
        core
    }

    fn core(spec: &Spec) -> Core {
        core_with(spec, |_| {})
    }

    #[test]
    fn a_fixed_core_has_a_pinned_stamp() {
        // A deliberate edit when the stamp's definition changes; every
        // cached profile's entry name changes with it.
        assert_eq!(core_fingerprint(&core(&golden())), GOLDEN_STAMP);
    }

    /// `core_fingerprint` of [`golden`], computed independently.
    const GOLDEN_STAMP: u64 = 0x5dd6_d364_dc8a_064e;

    #[test]
    fn the_stamp_moves_when_any_one_input_changes() {
        let with = |change: fn(&mut Spec)| {
            let mut spec = golden();
            change(&mut spec);
            core(&spec)
        };
        // Cube length is scan cells plus inputs plus bidirs, so an input
        // or a bidir more comes with a scan cell fewer.
        let variants = [
            ("golden", core(&golden())),
            ("name", with(|s| s.name = "golden2")),
            (
                "inputs",
                with(|s| (s.inputs, s.scan) = (4, fixed(&[40, 29]))),
            ),
            ("outputs", with(|s| s.outputs += 1)),
            (
                "bidirs",
                with(|s| (s.bidirs, s.scan) = (2, fixed(&[40, 29]))),
            ),
            ("pattern count", with(|s| s.patterns += 1)),
            (
                "scan kind",
                with(|s| {
                    s.scan = ScanArchitecture::Flexible {
                        cells: 70,
                        max_chains: 2,
                    }
                }),
            ),
            ("chain lengths", with(|s| s.scan = fixed(&[30, 40]))),
            ("cube length", with(|s| s.scan = fixed(&[40, 31]))),
            // Cube 1 has an X at position 70 (second word): X -> 0.
            (
                "care bit",
                core_with(&golden(), |cubes| cubes[1].set(70, Trit::Zero)),
            ),
            // Cube 2 has a 0 at position 1: 0 -> 1.
            (
                "value bit",
                core_with(&golden(), |cubes| cubes[2].set(1, Trit::One)),
            ),
        ];
        for (i, (a, core_a)) in variants.iter().enumerate() {
            for (b, core_b) in &variants[i + 1..] {
                assert_ne!(
                    core_fingerprint(core_a),
                    core_fingerprint(core_b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn the_stamp_ignores_the_sampling_configuration() {
        // The planner's sampling knobs (pattern sample, m candidates) key
        // cache entries separately; the stamp is the core's content alone.
        let core = core(&golden());
        let stamp = core_fingerprint(&core);
        for (sample, mcand) in [(None, None), (Some(1), Some(2)), (Some(2), None)] {
            let cache = EvalCache::new(&core);
            let mut config = ProfileConfig::new(8);
            if let Some(s) = sample {
                config = config.pattern_sample(s);
            }
            if let Some(m) = mcand {
                config = config.m_candidates(m);
            }
            assert!(!CoreProfile::build_cached(&cache, &config)
                .entries()
                .is_empty());
            assert_eq!(cache.content_stamp(), stamp, "{sample:?} {mcand:?}");
        }
    }
}
