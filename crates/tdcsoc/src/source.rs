//! The SOC a plan runs on, for the CLI, serve and fleet alike: where it
//! comes from, how it is built, the [`SocCache`] that shares built SOCs,
//! the planner mode keywords and the profile-cache tag.
//!
//! A built SOC is a pure function of its content (the builtin design or
//! the design file's full text), the cube-synthesis seed and, for ITC'02
//! text only, the care density. The cache keys by exactly these, never by
//! a path or a session name, so a hit equals a rebuild and a changed file
//! is a new key rather than a stale hit. Which contents read the density is
//! one rule, [`SocContent::density`]; every key that names an SOC follows
//! it.

use std::sync::Arc;

use parpool::dsan;
use robust::{BoundedCache, CacheLimits, CacheStats};
use soc_model::benchmarks::Design;
use soc_model::generator::synthesize_missing_test_sets;
use soc_model::{format::parse_soc, itc02::parse_itc02, Soc};

use crate::Planner;

/// Where an SOC comes from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SocSource {
    /// A built-in benchmark design, by canonical name.
    Builtin(String),
    /// An ITC'02-format file, read when the SOC is built.
    Itc02File(String),
    /// A simple-format SOC file, read when the SOC is built.
    SimpleFile(String),
}

impl SocSource {
    /// The built-in design `name` (in any case), canonically named.
    pub fn builtin(name: &str) -> Result<SocSource, String> {
        design(name).map(|d| SocSource::Builtin(d.name().to_string()))
    }

    /// Reads what the SOC is built from; fails on an unknown builtin or an
    /// unreadable file.
    pub fn read(&self) -> Result<SocContent, String> {
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        Ok(match self {
            SocSource::Builtin(name) => SocContent::Builtin(design(name)?),
            SocSource::Itc02File(path) => SocContent::Itc02(read(path)?),
            SocSource::SimpleFile(path) => SocContent::Simple(read(path)?),
        })
    }

    /// Reads and builds the SOC, uncached (see [`SocContent::build`]).
    pub fn build(&self, seed: u64, density: f64) -> Result<Soc, String> {
        self.read()?.build(seed, density)
    }

    /// [`SocContent::density`] of the content this source reads, without
    /// reading it.
    pub fn density(&self, density: f64) -> Option<f64> {
        read_density(matches!(self, SocSource::Itc02File(_)), density)
    }
}

fn design(name: &str) -> Result<Design, String> {
    Design::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown design `{name}`"))
}

/// What an SOC is built from: a builtin design or a design file's text.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SocContent {
    /// A built-in benchmark design.
    Builtin(Design),
    /// ITC'02-format text.
    Itc02(String),
    /// Simple-format text.
    Simple(String),
}

impl SocContent {
    /// The care density as the built SOC depends on it: `Some(density)` for
    /// ITC'02 text, `None` for builtin designs and simple-format text. The
    /// [`SocCache`] key, [`profile_tag`] and fleet's profile key take this
    /// value, so the CLI, fleet and serve share one SOC and one set of
    /// profiles whatever density each passes by default.
    pub fn density(&self, density: f64) -> Option<f64> {
        read_density(matches!(self, SocContent::Itc02(_)), density)
    }

    /// The SOC without test sets; `density` is the ITC'02 care density.
    pub fn parse(&self, density: f64) -> Result<Soc, String> {
        match self {
            SocContent::Builtin(d) => Ok(d.build()),
            SocContent::Itc02(text) => parse_itc02(text, density)
                .map(|parsed| parsed.soc)
                .map_err(|e| format!("itc02: {e}")),
            SocContent::Simple(text) => parse_soc(text).map_err(|e| format!("soc: {e}")),
        }
    }

    /// The SOC with its missing test sets synthesized from `seed`: what
    /// every planner sees.
    pub fn build(&self, seed: u64, density: f64) -> Result<Soc, String> {
        let mut soc = self.parse(density)?;
        synthesize_missing_test_sets(&mut soc, seed);
        Ok(soc)
    }
}

/// The density rule: only ITC'02 parsing reads the care density. Builtin
/// designs and simple-format files carry a density per core, so for them
/// every density builds the same SOC.
fn read_density(itc02: bool, density: f64) -> Option<f64> {
    itc02.then_some(density)
}

/// Content, seed and the bits of the density it reads (`f64` has no
/// `Ord`).
type SocKey = (SocContent, u64, Option<u64>);

/// A bounded LRU of built SOCs, weighted by their stimulus bytes. Shared
/// by threads and pool jobs; racing callers at worst build one SOC twice.
#[derive(Debug)]
pub struct SocCache {
    socs: dsan::Cell<BoundedCache<SocKey, Arc<Soc>>>,
}

impl SocCache {
    /// Default bounds: 32 SOCs or 256 MiB of stimulus.
    pub const DEFAULT_LIMITS: CacheLimits = CacheLimits::new(32, 256 << 20);

    /// An empty cache within `limits`.
    pub fn new(limits: CacheLimits) -> Self {
        // Advisory: the races are by design, and a hit equals a rebuild.
        let socs = dsan::Cell::new(
            "soc-cache",
            dsan::Policy::Advisory,
            BoundedCache::new(limits),
        );
        SocCache { socs }
    }

    /// The SOC built from `content` and `seed`, from the cache or built
    /// and cached; a failed build is not cached.
    pub fn get(&self, content: SocContent, seed: u64, density: f64) -> Result<Arc<Soc>, String> {
        let bits = content.density(density).map(f64::to_bits);
        let key: SocKey = (content, seed, bits);
        if let Some(soc) = self.socs.write(|cache| cache.get(&key).map(Arc::clone)) {
            return Ok(soc);
        }
        let soc = Arc::new(key.0.build(seed, density)?);
        let weight = usize::try_from(soc.initial_volume_bits() / 8)
            .unwrap_or(usize::MAX)
            .saturating_add(4096);
        self.socs
            .write(|cache| cache.insert(key, Arc::clone(&soc), weight));
        Ok(soc)
    }

    /// Hit, miss and eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.socs.read(BoundedCache::stats)
    }
}

/// A planner mode keyword and the planner it names.
type Mode = (&'static str, fn() -> Planner);

/// The planner mode keywords every surface accepts.
const MODES: [Mode; 7] = [
    ("no-tdc", Planner::no_tdc),
    ("per-core", Planner::per_core_tdc),
    ("per-tam", Planner::per_tam_tdc),
    ("fixed4", || Planner::fixed_width_tdc(4)),
    ("reseed", Planner::reseeding_tdc),
    ("fdr", Planner::fdr_tdc),
    ("select", Planner::select_tdc),
];

/// The planner a mode keyword (`per-core`, `no-tdc`, …) names.
pub fn planner_for(mode: &str) -> Option<Planner> {
    MODES
        .iter()
        .find(|(keyword, _)| *keyword == mode)
        .map(|(_, planner)| planner())
}

/// The profile-cache tag of an SOC's test sets (the planner adds width
/// and fidelity to each file name), shared by every surface. `density` is
/// the density the SOC reads ([`SocContent::density`]); it is part of the
/// tag only when there is one.
pub fn profile_tag(soc: &Soc, seed: u64, density: Option<f64>) -> String {
    match density {
        Some(d) => format!("{}-seed{seed}-d{d:.3}", soc.name()),
        None => format!("{}-seed{seed}", soc.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hit_equals_a_rebuild() {
        let cache = SocCache::new(SocCache::DEFAULT_LIMITS);
        let d695 = || SocSource::builtin("D695").unwrap().read().unwrap();
        let first = cache.get(d695(), 3, 0.5).unwrap();
        let again = cache.get(d695(), 3, 0.5).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(*first, Design::D695.build_with_cubes(3));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        // Another seed is another SOC.
        assert_ne!(*cache.get(d695(), 4, 0.5).unwrap(), *first);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn files_are_keyed_by_text_not_path() {
        let path = std::env::temp_dir().join(format!("soc-source-{}.soc", std::process::id()));
        let write = |d: Design| {
            std::fs::write(&path, soc_model::format::write_soc(&d.build())).unwrap();
        };
        let source = SocSource::SimpleFile(path.to_string_lossy().into_owned());
        let cache = SocCache::new(SocCache::DEFAULT_LIMITS);
        write(Design::D695);
        let d695 = cache.get(source.read().unwrap(), 1, 0.5).unwrap();
        assert_eq!(d695.name(), "d695");
        write(Design::System1);
        let rewritten = cache.get(source.read().unwrap(), 1, 0.5).unwrap();
        assert_eq!(*rewritten, source.build(1, 0.5).unwrap());
        assert_ne!(rewritten.name(), d695.name());
        std::fs::write(&path, "not a design").unwrap();
        assert!(cache.get(source.read().unwrap(), 1, 0.5).is_err());
        assert_eq!(cache.stats().hits, 0);
        let _ = std::fs::remove_file(&path);
        let missing = SocSource::SimpleFile("/nonexistent/x.soc".into());
        assert!(missing.read().unwrap_err().contains("cannot read"));
    }

    #[test]
    fn mode_keywords_and_tags() {
        for (keyword, _) in MODES {
            assert!(planner_for(keyword).is_some(), "{keyword}");
        }
        assert_eq!(planner_for("fixed4"), Some(Planner::fixed_width_tdc(4)));
        assert!(planner_for("warp").is_none());
        let soc = Design::D695.build();
        // A builtin design reads no density, so its tag names none.
        let builtin = SocSource::builtin("d695").unwrap();
        assert_eq!(builtin.density(0.66), None);
        assert_eq!(
            profile_tag(&soc, 2008, builtin.density(0.66)),
            "d695-seed2008"
        );
        let itc02 = SocSource::Itc02File("d695.soc".into());
        assert_eq!(
            profile_tag(&soc, 2008, itc02.density(0.66)),
            "d695-seed2008-d0.660"
        );
        assert_eq!(SocSource::SimpleFile("x.soc".into()).density(0.5), None);
        assert!(SocSource::builtin("nope").is_err());
    }

    #[test]
    fn only_itc02_content_keys_its_density() {
        let cache = SocCache::new(SocCache::DEFAULT_LIMITS);
        let d695 = || SocContent::Builtin(Design::D695);
        let first = cache.get(d695(), 1, 0.66).unwrap();
        let again = cache.get(d695(), 1, 0.02).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "builtins ignore the density");
        let text = soc_model::itc02::write_itc02(&Design::D695.build());
        let itc02 = || SocContent::Itc02(text.clone());
        let sparse = cache.get(itc02(), 1, 0.1).unwrap();
        let dense = cache.get(itc02(), 1, 0.9).unwrap();
        assert_ne!(*sparse, *dense, "ITC'02 cubes follow the density");
        assert!(Arc::ptr_eq(&dense, &cache.get(itc02(), 1, 0.9).unwrap()));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (3, 2));
    }
}
