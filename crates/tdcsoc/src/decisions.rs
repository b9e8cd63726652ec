//! Per-core operating-point decisions for each compression style.
//!
//! For every candidate TAM width `w`, a *decision* fixes how the core would
//! be tested on a `w`-wire TAM — with which decompressor geometry `(w', m)`
//! if any — together with the resulting test time and tester data volume.
//! The tables feed the TAM scheduler (as a [`tam::CostModel`]) and are
//! consulted again after scheduling to report each core's chosen setting.

use std::ops::Range;

use fdr::compress_fdr;
use lfsr::{compress_reseeding, ReseedOptions};
use robust::CancelToken;
use selenc::{
    profile_entry_for_width, CoreProfile, EvalCache, Interrupted, ProfileConfig, ProfileEntry,
    SliceCode,
};
use soc_model::Core;

/// How test data reaches the cores (the paper's Fig. 4 alternatives plus
/// the comparison baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionMode {
    /// No compression: wrapper chains driven straight from TAM wires
    /// (Fig. 4(a)).
    None,
    /// One selective-encoding decompressor per core, with per-core
    /// optimized `(w, m)` and automatic bypass when raw access is faster —
    /// the paper's proposal (Fig. 4(c)).
    PerCore,
    /// One shared selective-encoding decompressor per TAM (Fig. 4(b),
    /// ≈ comparator \[18\]): every core on the TAM sees the same expansion
    /// geometry, pinned to the widest feasible `m` (no per-core search).
    PerTam,
    /// Per-core decompressors with the input width pinned
    /// (≈ comparator \[11\], which only operates at `w = 4`).
    FixedWidth(u32),
    /// LFSR reseeding with per-pattern seeds (≈ comparator \[13\]).
    Reseeding,
    /// Frequency-directed run-length coding with one serial decompressor
    /// per TAM wire (≈ the compression-driven TAM design of \[10\]).
    Fdr,
    /// Per-core compression-technique selection: every core independently
    /// picks the fastest of {raw, selective encoding, FDR} at each width
    /// (the authors' ATS 2008 follow-up direction).
    Select,
}

impl CompressionMode {
    /// Short label used in reports.
    pub fn label(self) -> String {
        match self {
            CompressionMode::None => "no-TDC".into(),
            CompressionMode::PerCore => "TDC/core".into(),
            CompressionMode::PerTam => "TDC/TAM".into(),
            CompressionMode::FixedWidth(w) => format!("TDC w={w}"),
            CompressionMode::Reseeding => "reseeding".into(),
            CompressionMode::Fdr => "FDR".into(),
            CompressionMode::Select => "select".into(),
        }
    }

    /// The mode a [`label`](CompressionMode::label) names, if any.
    pub(crate) fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "no-TDC" => CompressionMode::None,
            "TDC/core" => CompressionMode::PerCore,
            "TDC/TAM" => CompressionMode::PerTam,
            "reseeding" => CompressionMode::Reseeding,
            "FDR" => CompressionMode::Fdr,
            "select" => CompressionMode::Select,
            _ => {
                let w = label.strip_prefix("TDC")?.trim().strip_prefix("w=")?;
                CompressionMode::FixedWidth(w.parse().ok()?)
            }
        })
    }

    /// The operating-point sources a table entry is chosen from, in tie
    /// order (see [`Source`]).
    fn sources(self) -> Vec<Source> {
        match self {
            CompressionMode::None => vec![Source::Raw],
            CompressionMode::PerCore => vec![Source::Raw, Source::Profile],
            CompressionMode::PerTam => vec![Source::Widest],
            CompressionMode::FixedWidth(wf) => vec![Source::Pinned(wf)],
            CompressionMode::Reseeding => vec![Source::Reseed],
            CompressionMode::Fdr => vec![Source::Fdr],
            CompressionMode::Select => vec![Source::Raw, Source::Profile, Source::Fdr],
        }
    }

    /// Whether the mode reads a core's selective-encoding profile, which
    /// is what the on-disk profile cache holds.
    pub(crate) fn reads_profile(self) -> bool {
        self.sources().contains(&Source::Profile)
    }

    /// Whether the mode needs the cores' test cubes: every source but raw
    /// access does.
    pub(crate) fn needs_test_set(self) -> bool {
        self.sources().iter().any(|&s| s != Source::Raw)
    }
}

/// Where a mode draws a core's operating point at width `w` from. A table
/// entry is the first minimum by test time over the mode's sources in list
/// order, so an earlier source wins a tie: raw bypass beats selective
/// encoding, and the per-core row beats FDR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Raw wrapper access: the best wrapper with at most `w` chains.
    Raw,
    /// The selective-encoding profile's best point at `≤ w` wires.
    Profile,
    /// The profile point searched at exactly this input width, offered at
    /// that width and above (nothing below it).
    Pinned(u32),
    /// One shared decompressor per TAM, expanding its `w` wires to the
    /// widest `m` of the width class.
    Widest,
    /// The shared decompressor indexed by the TAM's internal width `m`.
    Internal,
    /// FDR as a running minimum over widths: wires may be left unused.
    Fdr,
    /// LFSR reseeding at `w` wires.
    Reseed,
}

/// The compression technique a decision settles on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Technique {
    /// Raw wrapper access, no decompressor.
    #[default]
    Raw,
    /// Selective encoding (the paper's scheme).
    SelectiveEncoding,
    /// LFSR reseeding.
    Reseeding,
    /// Frequency-directed run-length coding.
    Fdr,
}

impl Technique {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Technique::Raw => "raw",
            Technique::SelectiveEncoding => "selenc",
            Technique::Reseeding => "reseed",
            Technique::Fdr => "fdr",
        }
    }
}

/// One core's operating point on a TAM of a given width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Test time in clock cycles.
    pub test_time: u64,
    /// Tester data volume in bits (stimuli only, as in the paper).
    pub volume_bits: u64,
    /// Decompressor geometry `(w, m)`, or `None` for raw wrapper access.
    pub decompressor: Option<(u32, u32)>,
    /// Seed register length when LFSR reseeding is used.
    pub lfsr_len: Option<u32>,
    /// The technique this decision uses.
    pub technique: Technique,
}

/// Decision table of one core: `table[w - 1]` is the operating point on a
/// `w`-wire TAM (`None` when the core cannot be tested at that width under
/// the chosen mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTable {
    name: String,
    table: Vec<Option<Decision>>,
}

/// Tuning knobs shared by all decision builders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionConfig {
    /// Evaluate at most this many evenly spaced patterns per operating
    /// point (`None` = exact).
    pub pattern_sample: Option<usize>,
    /// Chain counts tried per width class when searching for the best `m`.
    pub m_candidates: usize,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            pattern_sample: Some(24),
            m_candidates: 24,
        }
    }
}

impl DecisionConfig {
    /// Exact evaluation (full test set, every chain count) — use on small
    /// benchmarks only.
    pub fn exact() -> Self {
        DecisionConfig {
            pattern_sample: None,
            m_candidates: usize::MAX,
        }
    }
}

impl DecisionTable {
    /// Builds the table of `core` for `mode`, covering widths
    /// `1..=max_width`.
    ///
    /// # Panics
    ///
    /// Panics if the core has no attached test set (modes with
    /// compression), or `max_width == 0`.
    pub fn build(
        core: &Core,
        mode: CompressionMode,
        max_width: u32,
        config: &DecisionConfig,
    ) -> Self {
        Self::build_with(core, mode, max_width, config, &CancelToken::never())
    }

    /// Deadline-aware variant of [`build`](DecisionTable::build): polls
    /// `token` between operating-point evaluations and, once it trips,
    /// fills the remaining widths with the cheap raw (uncompressed)
    /// decision instead of searching for a decompressor.
    ///
    /// Every width still gets a usable decision, so planning proceeds on a
    /// complete cost model — just at degraded fidelity for the widths the
    /// budget did not cover.
    ///
    /// # Panics
    ///
    /// As [`build`](DecisionTable::build).
    pub fn build_with(
        core: &Core,
        mode: CompressionMode,
        max_width: u32,
        config: &DecisionConfig,
        token: &CancelToken,
    ) -> Self {
        let job = TableJob::new(core, mode, max_width, config);
        let part = job.compute(job.width_range(), token);
        job.assemble(vec![part])
    }

    /// The core's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of widths covered.
    pub fn max_width(&self) -> u32 {
        self.table.len() as u32
    }

    /// The decision on a `w`-wire TAM (widths above the table saturate).
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn decision(&self, w: u32) -> Option<Decision> {
        assert!(w > 0, "TAM width must be positive");
        let w = w.min(self.table.len() as u32);
        self.table[(w - 1) as usize]
    }

    /// Test times only, in the shape [`tam::CostModel`] expects.
    pub fn time_row(&self) -> Vec<Option<u64>> {
        self.table.iter().map(|d| d.map(|d| d.test_time)).collect()
    }
}

/// The per-width work computed by [`TableJob::compute`] — everything that
/// is expensive and independent, leaving the width-coupled logic (running
/// minima, profile assembly, raw fallbacks) to [`TableJob::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WidthWork {
    /// The cancel token tripped before this width was evaluated; assembly
    /// degrades it to the raw (uncompressed) decision where the mode allows.
    Skipped,
    /// What the mode's sources computed at exactly this width.
    Done {
        /// The selective-encoding profile entry (`None` = width class
        /// infeasible, or no profile source searches this width).
        entry: Option<ProfileEntry>,
        /// The decision of the mode's per-width source (shared
        /// decompressor, FDR or reseeding), before any running minimum.
        point: Option<Decision>,
    },
}

/// A previously built profile plus the width range it is authoritative
/// for. Profiles are cached per *core content* (fingerprint-keyed), not
/// per width budget, so a profile built for width 16 legitimately answers
/// a width-24 build for its first 16 widths — the remaining widths are the
/// only ones recomputed (the incremental rebuild).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CachedProfile {
    /// The cached per-core lookup table.
    pub(crate) profile: CoreProfile,
    /// Widths `1..=covered` were searched when this profile was built; an
    /// absent entry below this bound means the width class is infeasible,
    /// while widths above it simply were never evaluated.
    pub(crate) covered: u32,
}

/// The results of one width chunk of a [`TableJob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TablePart {
    /// First width covered (1-based).
    start: u32,
    /// Work items for widths `start..start + work.len()`.
    work: Vec<WidthWork>,
}

impl TablePart {
    /// A part whose whole range went unevaluated because the pool dropped
    /// the task after cancellation; assembly degrades it like any other
    /// skipped width.
    pub(crate) fn skipped(range: Range<u32>) -> Self {
        TablePart {
            start: range.start,
            work: range.map(|_| WidthWork::Skipped).collect(),
        }
    }
}

/// A decision-table build split into independently computable width
/// chunks, sharing one [`EvalCache`] so overlapping operating points are
/// evaluated once no matter how the chunks are scheduled.
///
/// The protocol: [`width_chunks`](TableJob::width_chunks) partitions the
/// width axis, [`compute`](TableJob::compute) runs anywhere (the job is
/// `Sync`; the planner schedules chunks on a [`parpool::Pool`]), and
/// [`assemble`](TableJob::assemble) folds the parts — in width order —
/// into the exact table the serial builder produces.
#[derive(Debug)]
pub(crate) struct TableJob<'a> {
    core: &'a Core,
    /// Where each width's operating point comes from, in tie order.
    sources: Vec<Source>,
    max_width: u32,
    config: &'a DecisionConfig,
    profile_cfg: ProfileConfig,
    cache: EvalCache<'a>,
    /// A previously built profile for exactly this (core content,
    /// sampling) configuration: widths up to its covered bound answer from
    /// it instead of running the per-width operating-point search, wider
    /// widths are computed and merged. The caller owns the cache keying —
    /// a mismatched profile here produces a wrong table.
    cached: Option<CachedProfile>,
}

impl<'a> TableJob<'a> {
    /// Prepares a build of `core`'s table for `mode` over widths
    /// `1..=max_width`.
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub(crate) fn new(
        core: &'a Core,
        mode: CompressionMode,
        max_width: u32,
        config: &'a DecisionConfig,
    ) -> Self {
        Self::with_sources(core, mode.sources(), max_width, config)
    }

    /// As [`new`](TableJob::new), but for the shared-decompressor mode
    /// under an *internal* wire budget: `table[m - 1]` is the operating
    /// point when the TAM's internal width is `m` (the decompressor input
    /// width follows from the slice code).
    pub(crate) fn per_tam_internal(
        core: &'a Core,
        max_width: u32,
        config: &'a DecisionConfig,
    ) -> Self {
        Self::with_sources(core, vec![Source::Internal], max_width, config)
    }

    fn with_sources(
        core: &'a Core,
        sources: Vec<Source>,
        max_width: u32,
        config: &'a DecisionConfig,
    ) -> Self {
        assert!(max_width > 0, "width budget must be positive");
        let mut profile_cfg = ProfileConfig::new(max_width);
        if let Some(s) = config.pattern_sample {
            profile_cfg = profile_cfg.pattern_sample(s);
        }
        if config.m_candidates != usize::MAX {
            profile_cfg = profile_cfg.m_candidates(config.m_candidates.max(2));
        }
        TableJob {
            core,
            sources,
            max_width,
            config,
            profile_cfg,
            cache: EvalCache::new(core),
            cached: None,
        }
    }

    /// Supplies a cached profile (see the `cached` field). Only the
    /// profile-reading modes consult it.
    pub(crate) fn with_cached_profile(mut self, profile: Option<CachedProfile>) -> Self {
        self.cached = profile;
        self
    }

    /// Content fingerprint of the core, via the shared [`EvalCache`] so it
    /// is computed at most once per job (the planner uses it to key the
    /// on-disk profile cache).
    pub(crate) fn content_stamp(&self) -> u64 {
        self.cache.content_stamp()
    }

    /// Combined hit/miss/eviction counters of this job's in-memory memo
    /// caches (the wrapper-design cache plus the operating-point
    /// evaluation memo), for [`PlanStats`](crate::PlanStats) rollup.
    pub(crate) fn memo_stats(&self) -> robust::CacheStats {
        let mut stats = self.cache.designs().stats();
        stats.absorb(self.cache.stats());
        stats
    }

    /// The full width range of this job (`1..max_width + 1`).
    pub(crate) fn width_range(&self) -> Range<u32> {
        1..self.max_width + 1
    }

    /// Partitions the width axis into chunks of at most `chunk` widths.
    pub(crate) fn width_chunks(&self, chunk: u32) -> Vec<Range<u32>> {
        let chunk = chunk.max(1);
        (1..=self.max_width)
            .step_by(chunk as usize)
            .map(|start| start..(start + chunk).min(self.max_width + 1))
            .collect()
    }

    /// Evaluates the widths of `range`, polling `token` between operating
    /// points; after cancellation the remaining widths report
    /// [`WidthWork::Skipped`].
    pub(crate) fn compute(&self, range: Range<u32>, token: &CancelToken) -> TablePart {
        let start = range.start;
        let work = range
            .map(|w| {
                if token.is_cancelled() {
                    return WidthWork::Skipped;
                }
                match self.compute_width(w, token) {
                    Ok((entry, point)) => WidthWork::Done { entry, point },
                    Err(Interrupted) => WidthWork::Skipped,
                }
            })
            .collect();
        TablePart { start, work }
    }

    /// Runs every source's per-width evaluation at width `w`, polling
    /// `token` before each.
    fn compute_width(
        &self,
        w: u32,
        token: &CancelToken,
    ) -> Result<(Option<ProfileEntry>, Option<Decision>), Interrupted> {
        let cancelled = || token.is_cancelled();
        let (mut entry, mut point) = (None, None);
        for &source in &self.sources {
            if cancelled() {
                return Err(Interrupted);
            }
            match source {
                // Assembly answers raw access from the design cache.
                Source::Raw => {}
                Source::Profile => entry = self.profile_entry(w, &cancelled)?,
                // Only the pinned width needs an evaluation; it is computed
                // by whichever chunk covers it.
                Source::Pinned(wf) if w == wf => entry = self.profile_entry(w, &cancelled)?,
                Source::Pinned(_) => {}
                Source::Widest => point = Some(self.per_tam_decision(w)),
                Source::Internal => point = Some(self.internal_decision(w)),
                Source::Fdr => point = Some(self.fdr_decision(w)),
                Source::Reseed => point = reseed_decision(self.core, w, self.config),
            }
        }
        Ok((entry, point))
    }

    /// The profile entry at exactly width `w`: from the cached profile
    /// where it covers `w`, else searched.
    fn profile_entry(
        &self,
        w: u32,
        cancelled: &dyn Fn() -> bool,
    ) -> Result<Option<ProfileEntry>, Interrupted> {
        if w < SliceCode::MIN_TAM_WIDTH {
            // No slice code fits; raw bypass decides these widths.
            return Ok(None);
        }
        if let Some(cached) = self.cached.as_ref().filter(|c| w <= c.covered) {
            // An absent entry below the covered bound means the width is
            // infeasible, exactly like a searched `Ok(None)`.
            return Ok(cached.profile.entry_at(w).copied());
        }
        profile_entry_for_width(&self.cache, w, &self.profile_cfg, cancelled)
    }

    /// Folds the parts (which must cover `1..=max_width` exactly, in
    /// order) into the finished table.
    ///
    /// # Panics
    ///
    /// Panics if the parts do not tile the width range.
    pub(crate) fn assemble(&self, parts: Vec<TablePart>) -> DecisionTable {
        self.assemble_with_profile(parts).0
    }

    /// As [`assemble`](TableJob::assemble), but also hands back the
    /// [`CoreProfile`] the profile source built along the way — `Some`
    /// only when it is safe to cache: the sources include the profile and
    /// *no* width was skipped by cancellation (a skipped width in a stored
    /// profile would later read as infeasible).
    ///
    /// Each width's entry is the first minimum by test time over the
    /// sources' offers, in source order. A skipped width offers raw access
    /// where a per-width source would have searched.
    ///
    /// # Panics
    ///
    /// As [`assemble`](TableJob::assemble).
    pub(crate) fn assemble_with_profile(
        &self,
        parts: Vec<TablePart>,
    ) -> (DecisionTable, Option<CoreProfile>) {
        let mut work: Vec<WidthWork> = Vec::with_capacity(self.max_width as usize);
        for part in parts {
            assert_eq!(
                part.start,
                work.len() as u32 + 1,
                "table parts must tile the width range in order"
            );
            work.extend(part.work);
        }
        assert_eq!(work.len() as u32, self.max_width, "missing width parts");

        // Chunks arrive in width order, so the entries are strictly
        // increasing.
        let entries = work.iter().filter_map(|ww| match ww {
            WidthWork::Done { entry, .. } => *entry,
            WidthWork::Skipped => None,
        });
        let profile = CoreProfile::from_entries(self.core.name(), entries.collect());
        // Carried across widths: the pinned width's decision and FDR's
        // running minimum.
        let (mut pinned, mut fdr_best) = (None::<Decision>, None::<Decision>);
        let table = (1..=self.max_width)
            .zip(&work)
            .map(|(w, ww)| {
                let raw = self.raw_decision(w);
                let (entry, point) = match ww {
                    WidthWork::Done { entry, point } => (entry.map(entry_decision), *point),
                    WidthWork::Skipped => (Some(raw), Some(raw)),
                };
                let offer = |source| match source {
                    Source::Raw => Some(raw),
                    Source::Profile => profile.best_at_most(w).copied().map(entry_decision),
                    Source::Pinned(wf) => {
                        if w == wf {
                            pinned = entry;
                        }
                        pinned
                    }
                    Source::Widest | Source::Internal | Source::Reseed => point,
                    Source::Fdr => {
                        if let WidthWork::Done { point: Some(d), .. } = ww {
                            if fdr_best.is_none_or(|b| d.test_time < b.test_time) {
                                fdr_best = Some(*d);
                            }
                        }
                        Some(fdr_best.unwrap_or(raw))
                    }
                };
                self.sources
                    .iter()
                    .copied()
                    .filter_map(offer)
                    .min_by_key(|d| d.test_time)
            })
            .collect();
        let complete = !work.iter().any(|ww| matches!(ww, WidthWork::Skipped));
        let cacheable = complete && self.sources.contains(&Source::Profile);
        (
            DecisionTable {
                name: self.core.name().to_string(),
                table,
            },
            cacheable.then_some(profile),
        )
    }

    /// Raw (uncompressed) decision at width `w`: the best wrapper with at
    /// most `w` chains, answered from the design cache's prefix minimum.
    fn raw_decision(&self, w: u32) -> Decision {
        let point = self.cache.designs().best_up_to(w);
        let stored = u64::from(self.core.pattern_count())
            * point.design.scan_in_length()
            * u64::from(point.design.chain_count());
        Decision {
            test_time: point.test_time,
            volume_bits: stored,
            decompressor: None,
            lfsr_len: None,
            technique: Technique::Raw,
        }
    }

    /// Shared-decompressor decision: the TAM's decompressor expands its
    /// `w` wires to the *widest* `m` of the width class (no per-core
    /// search — the very policy Fig. 2 shows to be suboptimal); smaller
    /// cores use a subset of the outputs.
    fn per_tam_decision(&self, w: u32) -> Decision {
        if w < SliceCode::MIN_TAM_WIDTH {
            // A degenerate TAM too narrow for any slice code falls back to
            // raw wrapper access.
            return self.raw_decision(w);
        }
        let m_max = *SliceCode::feasible_chains(w).end();
        let m = m_max.min(self.core.max_wrapper_chains());
        let c = self.cache.evaluate_clamped(m, self.config.pattern_sample);
        Decision {
            test_time: c.test_time,
            // The stream still arrives on the TAM's w wires.
            volume_bits: c.codewords * u64::from(w),
            decompressor: Some((w, c.code.chains())),
            lfsr_len: None,
            technique: Technique::SelectiveEncoding,
        }
    }

    /// Shared-decompressor decision on a TAM of internal width `m`: the
    /// decompressor drives `m` chains (capped at the core's), its input
    /// width follows from the slice code.
    fn internal_decision(&self, m: u32) -> Decision {
        let m_use = m.min(self.core.max_wrapper_chains());
        let c = self
            .cache
            .evaluate_clamped(m_use, self.config.pattern_sample);
        Decision {
            test_time: c.test_time,
            volume_bits: c.volume_bits,
            decompressor: Some((c.code.tam_width(), c.code.chains())),
            lfsr_len: None,
            technique: Technique::SelectiveEncoding,
        }
    }

    /// FDR decision at exactly width `w` (the running minimum across
    /// widths is applied during assembly).
    fn fdr_decision(&self, w: u32) -> Decision {
        let r = compress_fdr(self.core, w, self.config.pattern_sample);
        Decision {
            test_time: r.test_time,
            volume_bits: r.volume_bits,
            decompressor: None,
            lfsr_len: None,
            technique: Technique::Fdr,
        }
    }
}

/// A profile entry as a selective-encoding decision.
fn entry_decision(e: ProfileEntry) -> Decision {
    Decision {
        test_time: e.test_time,
        volume_bits: e.volume_bits,
        decompressor: Some((e.tam_width, e.chains)),
        lfsr_len: None,
        technique: Technique::SelectiveEncoding,
    }
}

fn reseed_decision(core: &Core, w: u32, config: &DecisionConfig) -> Option<Decision> {
    let opts = ReseedOptions {
        pattern_sample: config.pattern_sample,
        ..Default::default()
    };
    let max_chains = core.max_wrapper_chains();
    let mut best: Option<Decision> = None;
    let mut candidates: Vec<u32> = [w, 2 * w, 4 * w, 8 * w, 16 * w]
        .into_iter()
        .map(|m| m.clamp(1, max_chains))
        .collect();
    candidates.dedup();
    for m in candidates {
        if let Ok(r) = compress_reseeding(core, m, w, &opts) {
            let d = Decision {
                test_time: r.test_time,
                volume_bits: r.volume_bits,
                decompressor: Some((w, r.chains)),
                lfsr_len: Some(r.lfsr_len as u32),
                technique: Technique::Reseeding,
            };
            if best.is_none_or(|b| d.test_time < b.test_time) {
                best = Some(d);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_model::CubeSynthesis;

    fn prepared(density: f64) -> Core {
        let mut core = Core::builder("d")
            .inputs(16)
            .outputs(16)
            .flexible_cells(800, 256)
            .pattern_count(10)
            .care_density(density)
            .build()
            .unwrap();
        let ts = CubeSynthesis::new(density).synthesize(&core, 33);
        core.attach_test_set(ts).unwrap();
        core
    }

    #[test]
    fn no_tdc_table_is_monotone() {
        let core = prepared(0.3);
        let t = DecisionTable::build(&core, CompressionMode::None, 16, &DecisionConfig::exact());
        let mut prev = u64::MAX;
        for w in 1..=16 {
            let d = t.decision(w).unwrap();
            assert!(d.test_time <= prev, "w={w}");
            assert!(d.decompressor.is_none());
            prev = d.test_time;
        }
    }

    #[test]
    fn per_core_beats_or_matches_no_tdc_everywhere() {
        let core = prepared(0.05);
        let cfg = DecisionConfig::default();
        let none = DecisionTable::build(&core, CompressionMode::None, 12, &cfg);
        let tdc = DecisionTable::build(&core, CompressionMode::PerCore, 12, &cfg);
        for w in 1..=12 {
            let a = tdc.decision(w).unwrap().test_time;
            let b = none.decision(w).unwrap().test_time;
            assert!(a <= b, "w={w}: TDC {a} vs raw {b}");
        }
    }

    #[test]
    fn per_core_uses_decompressor_on_sparse_cubes() {
        let core = prepared(0.02);
        let t = DecisionTable::build(
            &core,
            CompressionMode::PerCore,
            10,
            &DecisionConfig::default(),
        );
        let d = t.decision(10).unwrap();
        assert!(d.decompressor.is_some(), "sparse cubes must engage TDC");
        let (w, m) = d.decompressor.unwrap();
        assert!(w <= 10);
        assert!(m > w, "expansion means m > w");
    }

    #[test]
    fn per_core_bypasses_on_dense_cubes() {
        let core = prepared(0.9);
        let t = DecisionTable::build(
            &core,
            CompressionMode::PerCore,
            8,
            &DecisionConfig::default(),
        );
        let d = t.decision(8).unwrap();
        assert!(
            d.decompressor.is_none(),
            "nearly fully specified cubes cannot compress"
        );
    }

    #[test]
    fn per_tam_pins_max_m() {
        let core = prepared(0.05);
        let cfg = DecisionConfig::default();
        let t = DecisionTable::build(&core, CompressionMode::PerTam, 10, &cfg);
        let d = t.decision(10).unwrap();
        let (w, m) = d.decompressor.unwrap();
        assert_eq!(w, 10);
        // Width class of w = 10 tops out at 255; the core caps at 256+32.
        assert_eq!(m, 255);
        // Per-core search can only be at least as good.
        let pc = DecisionTable::build(&core, CompressionMode::PerCore, 10, &cfg);
        assert!(pc.decision(10).unwrap().test_time <= d.test_time);
    }

    #[test]
    fn fixed_width_only_operates_at_or_above_its_width() {
        let core = prepared(0.05);
        let t = DecisionTable::build(
            &core,
            CompressionMode::FixedWidth(4),
            8,
            &DecisionConfig::default(),
        );
        assert!(t.decision(3).is_none());
        let d4 = t.decision(4).unwrap();
        let d8 = t.decision(8).unwrap();
        assert_eq!(d4, d8, "fixed-width mode cannot exploit wider TAMs");
        assert_eq!(d4.decompressor.unwrap().0, 4);
    }

    #[test]
    fn reseeding_produces_decisions_with_seed_length() {
        let core = prepared(0.05);
        let t = DecisionTable::build(
            &core,
            CompressionMode::Reseeding,
            8,
            &DecisionConfig {
                pattern_sample: Some(4),
                m_candidates: 4,
            },
        );
        let d = t.decision(8).unwrap();
        assert!(d.lfsr_len.is_some());
        assert!(d.volume_bits < core.initial_volume_bits());
    }

    #[test]
    fn time_row_matches_decisions() {
        let core = prepared(0.2);
        let t = DecisionTable::build(&core, CompressionMode::None, 6, &DecisionConfig::exact());
        let row = t.time_row();
        assert_eq!(row.len(), 6);
        assert_eq!(row[3], Some(t.decision(4).unwrap().test_time));
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::BTreeSet;
        let labels: BTreeSet<String> = [
            CompressionMode::None,
            CompressionMode::PerCore,
            CompressionMode::PerTam,
            CompressionMode::FixedWidth(4),
            CompressionMode::Reseeding,
            CompressionMode::Fdr,
            CompressionMode::Select,
        ]
        .iter()
        .map(|m| m.label())
        .collect();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn all_modes_roundtrip_their_keyword() {
        for mode in [
            CompressionMode::None,
            CompressionMode::PerCore,
            CompressionMode::PerTam,
            CompressionMode::FixedWidth(4),
            CompressionMode::Reseeding,
            CompressionMode::Fdr,
            CompressionMode::Select,
        ] {
            assert_eq!(CompressionMode::from_label(&mode.label()), Some(mode));
        }
        assert_eq!(CompressionMode::from_label("TDC w=x"), None);
    }

    #[test]
    fn a_cancelled_build_degrades_every_mode_to_raw_access() {
        const W: u32 = 8;
        let core = prepared(0.05);
        let cfg = DecisionConfig {
            pattern_sample: Some(4),
            m_candidates: 4,
        };
        let cancelled = CancelToken::never();
        cancelled.cancel();
        let degraded = |mode| DecisionTable::build_with(&core, mode, W, &cfg, &cancelled);
        let raw = DecisionTable::build(&core, CompressionMode::None, W, &cfg);
        for mode in [
            CompressionMode::None,
            CompressionMode::PerCore,
            CompressionMode::Select,
            CompressionMode::Fdr,
            CompressionMode::PerTam,
            CompressionMode::Reseeding,
        ] {
            assert_eq!(degraded(mode), raw, "{mode:?}");
        }
        // A pinned width offers raw access at and above itself only.
        let pinned = degraded(CompressionMode::FixedWidth(4));
        for w in 1..=W {
            assert_eq!(
                pinned.decision(w),
                raw.decision(4).filter(|_| w >= 4),
                "w={w}"
            );
        }
        for wf in [0, W + 1] {
            let t = degraded(CompressionMode::FixedWidth(wf));
            assert!(t.time_row().iter().all(Option::is_none), "w={wf}");
        }
        // A skipped width keeps the profile out of the cache; a complete
        // build hands it back.
        for mode in [CompressionMode::PerCore, CompressionMode::Select] {
            let job = TableJob::new(&core, mode, W, &cfg);
            let build =
                |token| job.assemble_with_profile(vec![job.compute(job.width_range(), token)]);
            assert_eq!(build(&cancelled), (raw.clone(), None), "{mode:?}");
            assert!(build(&CancelToken::never()).1.is_some(), "{mode:?}");
        }
    }
}

#[cfg(test)]
mod select_tests {
    use super::*;
    use soc_model::CubeSynthesis;

    fn prepared(density: f64) -> Core {
        let mut core = Core::builder("s")
            .inputs(12)
            .outputs(12)
            .flexible_cells(900, 256)
            .pattern_count(8)
            .care_density(density)
            .build()
            .unwrap();
        let ts = CubeSynthesis::new(density).synthesize(&core, 51);
        core.attach_test_set(ts).unwrap();
        core
    }

    fn cfg() -> DecisionConfig {
        DecisionConfig {
            pattern_sample: Some(8),
            m_candidates: 8,
        }
    }

    #[test]
    fn fdr_decisions_are_running_minima() {
        let core = prepared(0.04);
        let t = DecisionTable::build(&core, CompressionMode::Fdr, 12, &cfg());
        let mut prev = u64::MAX;
        for w in 1..=12 {
            let d = t.decision(w).unwrap();
            assert!(d.test_time <= prev, "w={w}");
            assert_eq!(d.technique, Technique::Fdr);
            prev = d.test_time;
        }
    }

    #[test]
    fn select_dominates_every_single_technique() {
        let core = prepared(0.04);
        let sel = DecisionTable::build(&core, CompressionMode::Select, 12, &cfg());
        let pc = DecisionTable::build(&core, CompressionMode::PerCore, 12, &cfg());
        let fdr = DecisionTable::build(&core, CompressionMode::Fdr, 12, &cfg());
        let none = DecisionTable::build(&core, CompressionMode::None, 12, &cfg());
        for w in 1..=12 {
            let s = sel.decision(w).unwrap().test_time;
            assert!(s <= pc.decision(w).unwrap().test_time, "w={w} vs per-core");
            assert!(s <= fdr.decision(w).unwrap().test_time, "w={w} vs FDR");
            assert!(s <= none.decision(w).unwrap().test_time, "w={w} vs raw");
        }
    }

    #[test]
    fn select_records_the_winning_technique() {
        // Sparse, many-chain core: selective encoding should win at wide
        // interfaces; at width 3 FDR competes.
        let core = prepared(0.03);
        let sel = DecisionTable::build(&core, CompressionMode::Select, 12, &cfg());
        let winner = sel.decision(12).unwrap();
        assert_ne!(winner.technique, Technique::Reseeding);
        // Whatever wins, it must beat raw access on these sparse cubes.
        let raw = DecisionTable::build(&core, CompressionMode::None, 12, &cfg());
        assert!(winner.test_time < raw.decision(12).unwrap().test_time);
    }

    #[test]
    fn technique_labels_are_distinct() {
        use std::collections::BTreeSet;
        let labels: BTreeSet<&str> = [
            Technique::Raw,
            Technique::SelectiveEncoding,
            Technique::Reseeding,
            Technique::Fdr,
        ]
        .iter()
        .map(|t| t.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }
}
