//! The fleet manifest format: a line-oriented, untrusted description of
//! the design instances a batch run should plan.
//!
//! Each non-comment line names one SOC source and the sweep to run over
//! it; the line expands into one [`Instance`] per `(width, seed)` pair:
//!
//! ```text
//! # source               options (any order, all optional)
//! design d695            widths=16,24 seeds=1..2
//! itc02 bench/p93791.soc widths=8..32:8 mode=per-core density=0.02
//! soc designs/mine.soc   widths=32 sample=8 mcand=8
//! ```
//!
//! * `design <name>` — a built-in benchmark (`soctdc designs` names,
//!   case-insensitive); `itc02 <path>` / `soc <path>` — a file in ITC'02
//!   or simple format, read when the fleet runs.
//! * `widths=` — comma-separated TAM widths and/or `lo..hi:step` ranges
//!   (inclusive; `:step` optional, default 1). Default `32`.
//! * `seeds=` — comma-separated synthesis seeds and/or inclusive
//!   `lo..hi` ranges. Default `2008` (the CLI default).
//! * `mode=` — planner mode keyword ([`tdcsoc::planner_for`]). Default
//!   `per-core`. `sample=`/`mcand=` — evaluation fidelity (defaults as
//!   the CLI); `exact` — full-fidelity evaluation; `density=` — ITC'02
//!   care-bit density (default 0.02; builtin designs and simple-format
//!   files carry their own, and ignore it).
//!
//! Each instance's id — its plan file's name and its `--resume` key — is
//! `<label>-w<width>-seed<seed>`, with `-<mode>` appended when the mode
//! is not `per-core`. Two instances may share an id only if they plan the
//! same job (a repeated width, a repeated line, a density the source does
//! not read).
//!
//! The parser is panic-free and bounds every expansion: a manifest that
//! would exceed [`Manifest::MAX_INSTANCES`] instances (or a single line
//! exceeding [`Manifest::MAX_PER_LINE`]) is rejected with an error naming
//! the line, never truncated silently.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use tdcsoc::{planner_for, DecisionConfig, Job, PlanRequest, SocSource};

/// A short label for instance ids: the design name or the file stem.
fn source_label(source: &SocSource) -> String {
    match source {
        SocSource::Builtin(name) => name.clone(),
        SocSource::Itc02File(path) | SocSource::SimpleFile(path) => std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned()),
    }
}

/// One fully-expanded design instance: a single `(source, width, seed)`
/// planning job with its fidelity knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Deterministic human-readable label, unique in its manifest:
    /// `<source>-w<width>-seed<seed>`, plus `-<mode>` when the mode is not
    /// `per-core`.
    pub id: String,
    /// The SOC to plan.
    pub source: SocSource,
    /// TAM width budget.
    pub width: u32,
    /// Test-set synthesis seed.
    pub seed: u64,
    /// Planner mode keyword (validated at parse time).
    pub mode: String,
    /// Evaluation fidelity.
    pub decisions: DecisionConfig,
    /// ITC'02 care-bit density (builtin designs and simple-format files
    /// carry their own).
    pub density: f64,
}

impl Instance {
    /// The planning job this instance states. Two instances plan the same
    /// when their jobs are equal.
    pub(crate) fn job(&self) -> Job {
        Job {
            source: self.source.clone(),
            seed: self.seed,
            density: self.density,
            mode: self.mode.clone(),
            request: PlanRequest::tam_width(self.width).with_decisions(self.decisions.clone()),
        }
    }
}

/// A parsed, fully-expanded fleet manifest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// The instances to plan, in manifest order.
    pub instances: Vec<Instance>,
}

/// A manifest parse failure, naming the offending line (1-based; 0 for
/// whole-manifest failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line number, 0 when the failure spans the whole manifest.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "manifest: {}", self.message)
        } else {
            write!(f, "manifest line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Hard cap on total expanded instances per manifest.
    pub const MAX_INSTANCES: usize = 65_536;
    /// Hard cap on instances expanded from a single line.
    pub const MAX_PER_LINE: usize = 4_096;

    /// Parses manifest `text`; see the module docs for the grammar.
    ///
    /// # Errors
    ///
    /// Returns a [`ManifestError`] naming the first offending line for
    /// unknown keywords, malformed values, unknown designs or modes,
    /// expansions beyond the instance caps, and an id that an earlier
    /// line already gave to a different instance (their plan files would
    /// overwrite each other). Identical repeats are allowed.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut instances: Vec<Instance> = Vec::new();
        // Each id's first instance, as (line, index into `instances`).
        let mut ids: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i.saturating_add(1);
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let expanded = parse_line(line, lineno)?;
            if expanded.len() > Self::MAX_PER_LINE {
                return Err(err(
                    lineno,
                    format!(
                        "line expands to {} instances (cap {})",
                        expanded.len(),
                        Self::MAX_PER_LINE
                    ),
                ));
            }
            for inst in expanded {
                match ids.entry(inst.id.clone()) {
                    Entry::Vacant(slot) => {
                        slot.insert((lineno, instances.len()));
                    }
                    Entry::Occupied(slot) => {
                        let (first_line, first) = *slot.get();
                        if !instances.get(first).is_some_and(|f| f.job() == inst.job()) {
                            return Err(err(
                                lineno,
                                format!(
                                    "instance `{}` differs from line {first_line}'s instance \
                                     of the same id (source, sample, mcand, exact or density)",
                                    inst.id
                                ),
                            ));
                        }
                    }
                }
                instances.push(inst);
            }
            if instances.len() > Self::MAX_INSTANCES {
                return Err(err(
                    lineno,
                    format!(
                        "manifest exceeds {} instances at this line",
                        Self::MAX_INSTANCES
                    ),
                ));
            }
        }
        Ok(Manifest { instances })
    }

    /// Total instance count.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the manifest expands to no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

fn err(line: usize, message: impl Into<String>) -> ManifestError {
    ManifestError {
        line,
        message: message.into(),
    }
}

/// Expands one source line into its `(width, seed)` instances.
fn parse_line(line: &str, lineno: usize) -> Result<Vec<Instance>, ManifestError> {
    let mut tokens = line.split_whitespace();
    let keyword = tokens
        .next()
        .ok_or_else(|| err(lineno, "empty line reached the parser"))?;
    let source = match keyword {
        "design" => {
            let name = tokens
                .next()
                .ok_or_else(|| err(lineno, "`design` needs a name"))?;
            SocSource::builtin(name).map_err(|e| err(lineno, e))?
        }
        "itc02" => SocSource::Itc02File(
            tokens
                .next()
                .ok_or_else(|| err(lineno, "`itc02` needs a path"))?
                .to_string(),
        ),
        "soc" => SocSource::SimpleFile(
            tokens
                .next()
                .ok_or_else(|| err(lineno, "`soc` needs a path"))?
                .to_string(),
        ),
        other => {
            return Err(err(
                lineno,
                format!("unknown source keyword `{other}` (design|itc02|soc)"),
            ))
        }
    };

    let mut widths: Vec<u32> = vec![32];
    let mut seeds: Vec<u64> = vec![2008];
    let mut mode = "per-core".to_string();
    let mut sample: Option<usize> = Some(24);
    let mut mcand: usize = 24;
    let mut exact = false;
    let mut density: f64 = 0.02;

    for opt in tokens {
        if opt == "exact" {
            exact = true;
            continue;
        }
        let Some((key, value)) = opt.split_once('=') else {
            return Err(err(lineno, format!("expected key=value, got `{opt}`")));
        };
        match key {
            "widths" => {
                widths = parse_list(value, lineno, "widths", parse_width_range)?;
            }
            "seeds" => {
                seeds = parse_list(value, lineno, "seeds", parse_seed_range)?;
            }
            "mode" => {
                // Validated here so a typo fails at parse time, not halfway
                // through a thousand-instance run.
                if planner_for(value).is_none() {
                    return Err(err(lineno, format!("unknown mode `{value}`")));
                }
                mode = value.to_string();
            }
            "sample" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| err(lineno, format!("sample: invalid number `{value}`")))?;
                if n == 0 {
                    return Err(err(lineno, "sample must be at least 1"));
                }
                sample = Some(n);
            }
            "mcand" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| err(lineno, format!("mcand: invalid number `{value}`")))?;
                if n < 2 {
                    return Err(err(lineno, "mcand must be at least 2"));
                }
                mcand = n;
            }
            "density" => {
                let d: f64 = value
                    .parse()
                    .map_err(|_| err(lineno, format!("density: invalid number `{value}`")))?;
                if !(d > 0.0 && d <= 1.0) {
                    return Err(err(lineno, "density must be in (0, 1]"));
                }
                density = d;
            }
            other => return Err(err(lineno, format!("unknown option `{other}`"))),
        }
    }

    let decisions = if exact {
        DecisionConfig::exact()
    } else {
        DecisionConfig {
            pattern_sample: sample,
            m_candidates: mcand,
        }
    };

    let label = source_label(&source);
    let suffix = if mode == "per-core" {
        String::new()
    } else {
        format!("-{mode}")
    };
    let mut out = Vec::new();
    for &seed in &seeds {
        for &width in &widths {
            if out.len() >= Manifest::MAX_PER_LINE {
                // Caller reports the overflow with the exact count; stop
                // expanding so a hostile line cannot balloon memory first.
                return Err(err(
                    lineno,
                    format!(
                        "line expands past the per-line cap of {} instances",
                        Manifest::MAX_PER_LINE
                    ),
                ));
            }
            out.push(Instance {
                id: format!("{label}-w{width}-seed{seed}{suffix}"),
                source: source.clone(),
                width,
                seed,
                mode: mode.clone(),
                decisions: decisions.clone(),
                density,
            });
        }
    }
    if out.is_empty() {
        return Err(err(lineno, "line expands to no instances"));
    }
    Ok(out)
}

/// Parses a comma-separated list whose items are single values or ranges,
/// via `item` (which returns the expanded values for one item).
fn parse_list<T>(
    value: &str,
    lineno: usize,
    what: &str,
    item: impl Fn(&str, usize, &str) -> Result<Vec<T>, ManifestError>,
) -> Result<Vec<T>, ManifestError> {
    let mut out = Vec::new();
    for part in value.split(',') {
        if part.is_empty() {
            return Err(err(lineno, format!("{what}: empty list item")));
        }
        out.extend(item(part, lineno, what)?);
        if out.len() > Manifest::MAX_PER_LINE {
            return Err(err(
                lineno,
                format!("{what}: expands past {} values", Manifest::MAX_PER_LINE),
            ));
        }
    }
    if out.is_empty() {
        return Err(err(lineno, format!("{what}: empty list")));
    }
    Ok(out)
}

/// One `widths=` item: `N` or `lo..hi` or `lo..hi:step` (inclusive).
fn parse_width_range(part: &str, lineno: usize, what: &str) -> Result<Vec<u32>, ManifestError> {
    let bad = |detail: &str| err(lineno, format!("{what}: {detail} in `{part}`"));
    let Some((lo, rest)) = part.split_once("..") else {
        let w: u32 = part.parse().map_err(|_| bad("invalid number"))?;
        if w == 0 {
            return Err(bad("width must be positive"));
        }
        return Ok(vec![w]);
    };
    let (hi, step) = match rest.split_once(':') {
        Some((hi, step)) => (hi, step.parse().map_err(|_| bad("invalid step"))?),
        None => (rest, 1u32),
    };
    let lo: u32 = lo.parse().map_err(|_| bad("invalid range start"))?;
    let hi: u32 = hi.parse().map_err(|_| bad("invalid range end"))?;
    if lo == 0 || hi < lo || step == 0 {
        return Err(bad("range must be 1 <= lo <= hi with step >= 1"));
    }
    let mut out = Vec::new();
    let mut w = lo;
    while w <= hi && out.len() <= Manifest::MAX_PER_LINE {
        out.push(w);
        let Some(next) = w.checked_add(step) else {
            break;
        };
        w = next;
    }
    Ok(out)
}

/// One `seeds=` item: `N` or inclusive `lo..hi`.
fn parse_seed_range(part: &str, lineno: usize, what: &str) -> Result<Vec<u64>, ManifestError> {
    let bad = |detail: &str| err(lineno, format!("{what}: {detail} in `{part}`"));
    let Some((lo, hi)) = part.split_once("..") else {
        return Ok(vec![part.parse().map_err(|_| bad("invalid number"))?]);
    };
    let lo: u64 = lo.parse().map_err(|_| bad("invalid range start"))?;
    let hi: u64 = hi.parse().map_err(|_| bad("invalid range end"))?;
    if hi < lo {
        return Err(bad("range end below start"));
    }
    let mut out = Vec::new();
    let mut s = lo;
    while s <= hi && out.len() <= Manifest::MAX_PER_LINE {
        out.push(s);
        let Some(next) = s.checked_add(1) else {
            break;
        };
        s = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sources_sweeps_and_defaults() {
        let m = Manifest::parse(
            "# a comment\n\
             design d695 widths=16,24 seeds=1..2\n\
             itc02 bench/p93791.soc widths=8..16:4 mode=no-tdc density=0.05\n\
             soc my.soc sample=8 mcand=8\n",
        )
        .unwrap();
        assert_eq!(m.len(), 4 + 3 + 1);
        assert_eq!(m.instances[0].id, "d695-w16-seed1");
        assert_eq!(m.instances[0].source, SocSource::Builtin("d695".into()));
        assert_eq!(m.instances[3].id, "d695-w24-seed2");
        let itc = &m.instances[4];
        assert_eq!(itc.source, SocSource::Itc02File("bench/p93791.soc".into()));
        assert_eq!(
            m.instances[4..7]
                .iter()
                .map(|i| i.width)
                .collect::<Vec<_>>(),
            [8, 12, 16]
        );
        assert_eq!(itc.mode, "no-tdc");
        assert!((itc.density - 0.05).abs() < 1e-12);
        let simple = &m.instances[7];
        assert_eq!(simple.width, 32, "default width");
        assert_eq!(simple.seed, 2008, "default seed");
        assert_eq!(simple.decisions.pattern_sample, Some(8));
        assert_eq!(simple.decisions.m_candidates, 8);
    }

    #[test]
    fn exact_overrides_fidelity() {
        let m = Manifest::parse("design d695 exact\n").unwrap();
        assert_eq!(m.instances[0].decisions, DecisionConfig::exact());
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, fragment) in [
            ("blueprint d695\n", "unknown source keyword"),
            ("design nope\n", "unknown design"),
            ("design d695 widths=0\n", "positive"),
            ("design d695 widths=9..3\n", "range"),
            ("design d695 widths=1..8:0\n", "range"),
            ("design d695 seeds=5..2\n", "range end below start"),
            ("design d695 mode=quantum\n", "unknown mode"),
            ("design d695 sample=0\n", "at least 1"),
            ("design d695 mcand=1\n", "at least 2"),
            ("design d695 density=7\n", "density"),
            ("design d695 widths\n", "key=value"),
            ("design d695 turbo=9\n", "unknown option"),
            ("design\n", "needs a name"),
        ] {
            let e = Manifest::parse(&format!("design d695\n{text}")).unwrap_err();
            assert_eq!(e.line, 2, "{text}");
            assert!(e.message.contains(fragment), "{text}: {}", e.message);
            assert!(e.to_string().contains("line 2"));
        }
    }

    #[test]
    fn caps_bound_expansion() {
        let e = Manifest::parse("design d695 widths=1..100000\n").unwrap_err();
        assert!(e.message.contains("widths"), "{}", e.message);
        // Many lines each under the per-line cap still trip the total cap.
        let line = "design d695 widths=1..64 seeds=1..64\n"; // 4096 per line
        let text = line.repeat(17);
        let e = Manifest::parse(&text).unwrap_err();
        assert!(e.message.contains("exceeds"), "{}", e.message);
    }

    #[test]
    fn file_sources_label_by_stem() {
        let m = Manifest::parse("itc02 deep/dir/p22810.soc widths=4\n").unwrap();
        assert_eq!(m.instances[0].id, "p22810-w4-seed2008");
    }

    #[test]
    fn ids_name_the_mode_unless_per_core() {
        let m = Manifest::parse(
            "design d695 widths=12\n\
             design d695 widths=12 mode=no-tdc\n\
             design d695 widths=12 mode=select\n\
             design d695 widths=16 mode=per-core\n",
        )
        .unwrap();
        let ids: Vec<&str> = m.instances.iter().map(|i| i.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "d695-w12-seed2008",
                "d695-w12-seed2008-no-tdc",
                "d695-w12-seed2008-select",
                "d695-w16-seed2008",
            ]
        );
    }

    #[test]
    fn an_id_shared_by_different_instances_names_both_lines() {
        for second in [
            "design d695 widths=12 sample=8 mcand=4",
            "design d695 widths=12 sample=4 mcand=8",
            "design d695 widths=12 exact",
            "soc other/d695.soc widths=12 sample=4 mcand=4",
        ] {
            let text = format!("design d695 widths=12 sample=4 mcand=4\n# note\n{second}\n");
            let e = Manifest::parse(&text).unwrap_err();
            assert_eq!(e.line, 3, "{second}");
            assert!(e.message.contains("d695-w12-seed2008"), "{}", e.message);
            assert!(e.message.contains("line 1"), "{}", e.message);
        }
    }

    #[test]
    fn an_id_differs_by_density_only_where_the_source_reads_it() {
        // Builtin designs ignore the density: the same job.
        let m = Manifest::parse(
            "design d695 widths=12 sample=4 mcand=4\n\
             design d695 widths=12 sample=4 mcand=4 density=0.5\n",
        )
        .unwrap();
        assert_eq!(m.len(), 2);
        // ITC'02 files read it: two jobs under one id.
        let e = Manifest::parse(
            "itc02 a/d695.soc widths=12\n\
             itc02 a/d695.soc widths=12 density=0.5\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("line 1"), "{}", e.message);
    }

    #[test]
    fn identical_repeats_stay_legal() {
        let m = Manifest::parse(
            "design d695 widths=12,12 sample=4 mcand=4\n\
             design d695 widths=12 sample=4 mcand=4 mode=per-core\n",
        )
        .unwrap();
        assert_eq!(m.len(), 3);
        assert!(m.instances.iter().all(|i| *i == m.instances[0]));
    }
}
