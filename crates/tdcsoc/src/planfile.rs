//! Plan-file serialization: a stable, line-oriented text format for
//! finished plans, so downstream tooling (vector generation, DFT insertion
//! scripts, sign-off reports) can consume planner output without linking
//! against this crate.
//!
//! ```text
//! plan v1
//! mode TDC/core
//! budget tam 24
//! time 94098
//! volume 1837019
//! outcome optimal
//! tams 12 12
//! core 0 ckt-1 tam 1 start 67095 time 26835 volume 265650 selenc decomp 10 204
//! core 1 ckt-2 tam 0 start 39114 time 27612 volume 273600 selenc decomp 10 229
//! …
//! ```
//!
//! The reader reconstructs a full [`Plan`] (with `cpu_time` zeroed) and
//! re-validates the schedule invariants on load.

use std::fmt::Write as _;
use std::time::Duration;

use soc_model::CoreId;
use tam::{Schedule, ScheduledTest};

use crate::cascade::{PlanOutcome, SolverStage};
use crate::decisions::{CompressionMode, Technique};
use crate::planner::{Budget, CoreSetting, Plan};

/// Serializes `plan` into the plan-file text format.
pub fn write_plan(plan: &Plan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "plan v1");
    let _ = writeln!(out, "mode {}", plan.mode.label());
    let (kind, width) = match plan.budget {
        Budget::TamWidth(w) => ("tam", w),
        Budget::AteChannels(w) => ("ate", w),
    };
    let _ = writeln!(out, "budget {kind} {width}");
    let _ = writeln!(out, "time {}", plan.test_time);
    let _ = writeln!(out, "volume {}", plan.volume_bits);
    let _ = writeln!(out, "outcome {}", plan.outcome);
    let _ = write!(out, "tams");
    for w in plan.schedule.tam_widths() {
        let _ = write!(out, " {w}");
    }
    out.push('\n');
    for s in &plan.core_settings {
        let _ = write!(
            out,
            "core {} {} tam {} start {} time {} volume {} {}",
            s.core.0,
            s.name,
            s.tam,
            s.start,
            s.test_time,
            s.volume_bits,
            s.technique.label()
        );
        if let Some((w, m)) = s.decompressor {
            let _ = write!(out, " decomp {w} {m}");
        }
        if let Some(l) = s.lfsr_len {
            let _ = write!(out, " lfsr {l}");
        }
        out.push('\n');
    }
    out
}

/// Parses a plan file written by [`write_plan`].
///
/// # Errors
///
/// Returns [`ParsePlanError`] with the offending 1-based line number.
pub fn parse_plan(text: &str) -> Result<Plan, ParsePlanError> {
    let mut lines = text.lines().enumerate();
    let mut mode: Option<CompressionMode> = None;
    let mut budget: Option<Budget> = None;
    let mut time: Option<u64> = None;
    let mut volume: Option<u64> = None;
    let mut tam_widths: Option<Vec<u32>> = None;
    // Absent in pre-outcome files: those were written by unbounded runs.
    let mut outcome = PlanOutcome::Optimal;
    let mut settings: Vec<CoreSetting> = Vec::new();

    let header = lines.next().map(|(_, l)| l.trim());
    if header != Some("plan v1") {
        return Err(err(1, "expected header `plan v1`"));
    }
    for (idx, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut t = line.split_whitespace();
        match t.next() {
            Some("mode") => {
                let kw = t.next().ok_or_else(|| err(idx + 1, "mode needs a value"))?;
                mode = Some(
                    CompressionMode::from_label(kw).ok_or_else(|| err(idx + 1, "unknown mode"))?,
                );
            }
            Some("budget") => {
                let kind = t
                    .next()
                    .ok_or_else(|| err(idx + 1, "budget needs a kind"))?;
                let w: u32 = num(t.next(), idx)?;
                budget = Some(match kind {
                    "tam" => Budget::TamWidth(w),
                    "ate" => Budget::AteChannels(w),
                    _ => return Err(err(idx + 1, "budget kind must be tam|ate")),
                });
            }
            Some("time") => time = Some(num(t.next(), idx)?),
            Some("volume") => volume = Some(num(t.next(), idx)?),
            Some("outcome") => outcome = parse_outcome(&mut t, idx)?,
            Some("tams") => {
                let widths: Result<Vec<u32>, _> = t.map(|w| w.parse()).collect();
                let widths = widths.map_err(|_| err(idx + 1, "bad TAM width"))?;
                if widths.is_empty() {
                    return Err(err(idx + 1, "tams line lists no widths"));
                }
                tam_widths = Some(widths);
            }
            Some("core") => settings.push(parse_core_line(&mut t, idx)?),
            Some(other) => {
                return Err(err(idx + 1, &format!("unknown keyword `{other}`")));
            }
            // Whitespace-only lines have no first token; they were already
            // skipped above, but a `continue` costs nothing and keeps this
            // parser free of panic paths.
            None => continue,
        }
    }

    let mode = mode.ok_or_else(|| err(0, "missing `mode` line"))?;
    let budget = budget.ok_or_else(|| err(0, "missing `budget` line"))?;
    let test_time = time.ok_or_else(|| err(0, "missing `time` line"))?;
    let volume_bits = volume.ok_or_else(|| err(0, "missing `volume` line"))?;
    let tam_widths = tam_widths.ok_or_else(|| err(0, "missing `tams` line"))?;

    settings.sort_by_key(|s| s.core.0);
    let tests: Vec<ScheduledTest> = settings
        .iter()
        .map(|s| ScheduledTest {
            core: s.core.0,
            tam: s.tam,
            start: s.start,
            duration: s.test_time,
        })
        .collect();
    let schedule = Schedule::new(tam_widths, tests);

    // Structural re-validation: TAM indices in range, no overlap.
    for s in &settings {
        if s.tam >= schedule.tam_widths().len() {
            return Err(err(
                0,
                &format!("core {} references unknown TAM {}", s.name, s.tam),
            ));
        }
    }
    for tam in 0..schedule.tam_widths().len() {
        let mut slots: Vec<&ScheduledTest> =
            schedule.tests().iter().filter(|t| t.tam == tam).collect();
        slots.sort_by_key(|t| t.start);
        for pair in slots.windows(2) {
            let [first, second] = pair else { continue };
            // checked_add: a corrupt file can carry start/duration pairs
            // that overflow u64 — reject, never panic.
            match first.start.checked_add(first.duration) {
                Some(end) if end <= second.start => {}
                Some(_) => return Err(err(0, &format!("cores overlap on TAM {tam}"))),
                None => {
                    return Err(err(
                        0,
                        &format!("core start+duration overflows on TAM {tam}"),
                    ))
                }
            }
        }
    }
    if schedule.makespan() > test_time {
        return Err(err(0, "schedule exceeds the declared test time"));
    }

    let routed_wires = u64::from(schedule.total_width());
    let ate_channels = schedule.total_width();
    // The per-core tam_width fields are redundant; the schedule is
    // authoritative.
    let widths = schedule.tam_widths().to_vec();
    for s in &mut settings {
        // In range: every `s.tam` was validated against the schedule above.
        if let Some(&w) = widths.get(s.tam) {
            s.tam_width = w;
        }
    }
    Ok(Plan {
        mode,
        budget,
        test_time,
        volume_bits,
        schedule,
        core_settings: settings,
        routed_wires,
        ate_channels,
        cpu_time: Duration::ZERO,
        outcome,
    })
}

fn parse_outcome<'a>(
    t: &mut impl Iterator<Item = &'a str>,
    idx: usize,
) -> Result<PlanOutcome, ParsePlanError> {
    let stage = |tok: Option<&str>| -> Result<SolverStage, ParsePlanError> {
        tok.and_then(SolverStage::from_keyword)
            .ok_or_else(|| err(idx + 1, "outcome needs a solver stage"))
    };
    match t.next() {
        Some("optimal") => Ok(PlanOutcome::Optimal),
        Some("degraded") => Ok(PlanOutcome::Degraded(stage(t.next())?)),
        Some("interrupted") => Ok(PlanOutcome::Interrupted(stage(t.next())?)),
        _ => Err(err(idx + 1, "outcome must be optimal|degraded|interrupted")),
    }
}

fn parse_core_line<'a>(
    t: &mut impl Iterator<Item = &'a str>,
    idx: usize,
) -> Result<CoreSetting, ParsePlanError> {
    let core: usize = num(t.next(), idx)?;
    let name = t
        .next()
        .ok_or_else(|| err(idx + 1, "core line needs a name"))?
        .to_string();
    expect(t.next(), "tam", idx)?;
    let tam: usize = num(t.next(), idx)?;
    expect(t.next(), "start", idx)?;
    let start: u64 = num(t.next(), idx)?;
    expect(t.next(), "time", idx)?;
    let test_time: u64 = num(t.next(), idx)?;
    expect(t.next(), "volume", idx)?;
    let volume_bits: u64 = num(t.next(), idx)?;
    let technique = match t.next() {
        Some("raw") => Technique::Raw,
        Some("selenc") => Technique::SelectiveEncoding,
        Some("reseed") => Technique::Reseeding,
        Some("fdr") => Technique::Fdr,
        _ => return Err(err(idx + 1, "core line needs a technique")),
    };
    let mut decompressor = None;
    let mut lfsr_len = None;
    while let Some(kw) = t.next() {
        match kw {
            "decomp" => {
                let w: u32 = num(t.next(), idx)?;
                let m: u32 = num(t.next(), idx)?;
                // A zero width or chain count would panic deep inside the
                // wrapper designer when the plan is later expanded into a
                // vector image — reject it here, at the trust boundary.
                if w == 0 || m == 0 {
                    return Err(err(idx + 1, "decomp width and chains must be positive"));
                }
                decompressor = Some((w, m));
            }
            "lfsr" => lfsr_len = Some(num(t.next(), idx)?),
            other => return Err(err(idx + 1, &format!("unknown core field `{other}`"))),
        }
    }
    Ok(CoreSetting {
        core: CoreId(core),
        name,
        tam,
        tam_width: 0, // fixed up below from the schedule
        start,
        test_time,
        volume_bits,
        decompressor,
        lfsr_len,
        technique,
    })
}

fn num<T: std::str::FromStr>(tok: Option<&str>, idx: usize) -> Result<T, ParsePlanError> {
    tok.and_then(|s| s.parse().ok())
        .ok_or_else(|| err(idx + 1, "expected a number"))
}

fn expect(tok: Option<&str>, kw: &str, idx: usize) -> Result<(), ParsePlanError> {
    if tok == Some(kw) {
        Ok(())
    } else {
        Err(err(idx + 1, &format!("expected `{kw}`")))
    }
}

fn err(line: usize, message: &str) -> ParsePlanError {
    ParsePlanError {
        line,
        message: message.to_string(),
    }
}

/// Error produced by [`parse_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlanError {
    line: usize,
    message: String,
}

impl ParsePlanError {
    /// 1-based line of the offending content (0 for file-level errors).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl std::fmt::Display for ParsePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParsePlanError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::DecisionConfig;
    use crate::planner::{PlanRequest, Planner};
    use soc_model::benchmarks::Design;

    fn a_plan() -> Plan {
        let soc = Design::D695.build_with_cubes(6);
        Planner::per_core_tdc()
            .plan(
                &soc,
                &PlanRequest::tam_width(16).with_decisions(DecisionConfig {
                    pattern_sample: Some(8),
                    m_candidates: 8,
                }),
            )
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let plan = a_plan();
        let text = write_plan(&plan);
        let parsed = parse_plan(&text).unwrap();
        assert_eq!(parsed.mode, plan.mode);
        assert_eq!(parsed.budget, plan.budget);
        assert_eq!(parsed.test_time, plan.test_time);
        assert_eq!(parsed.volume_bits, plan.volume_bits);
        assert_eq!(parsed.core_settings, plan.core_settings);
        // Schedules match up to test ordering (the writer emits core-id
        // order, the planner kept scheduling order).
        assert_eq!(parsed.schedule.tam_widths(), plan.schedule.tam_widths());
        assert_eq!(parsed.schedule.makespan(), plan.schedule.makespan());
        let mut a = parsed.schedule.tests().to_vec();
        let mut b = plan.schedule.tests().to_vec();
        a.sort_by_key(|t| t.core);
        b.sort_by_key(|t| t.core);
        assert_eq!(a, b);
    }

    #[test]
    fn header_and_structure_are_enforced() {
        assert!(parse_plan("nonsense").is_err());
        assert!(parse_plan("plan v1\n").is_err(), "missing sections");
        let text = write_plan(&a_plan());
        let broken = text.replace("budget tam 16", "budget bogus 16");
        assert!(parse_plan(&broken).is_err());
    }

    #[test]
    fn zero_decompressor_dimensions_are_rejected_at_parse() {
        // A crafted plan file with `decomp W 0` (or `0 M`) used to parse
        // and then panic deep in the wrapper designer, which asserts
        // `m > 0`. The trust boundary is here, so the parser rejects it.
        let text = write_plan(&a_plan());
        assert!(text.contains(" decomp "), "fixture plan carries a TDC");
        let first_decomp = |t: &str, sub: &str, to: String| t.replacen(sub, &to, 1);
        let (w, m) = {
            let line = text.lines().find(|l| l.contains(" decomp ")).unwrap();
            let mut it = line.rsplit(' ');
            let m: u32 = it.next().unwrap().parse().unwrap();
            let w: u32 = it.next().unwrap().parse().unwrap();
            (w, m)
        };
        let zero_m = first_decomp(&text, &format!("decomp {w} {m}"), format!("decomp {w} 0"));
        let zero_w = first_decomp(&text, &format!("decomp {w} {m}"), format!("decomp 0 {m}"));
        for broken in [zero_m, zero_w] {
            let e = parse_plan(&broken).unwrap_err();
            assert!(e.to_string().contains("must be positive"), "got: {e}");
        }
    }

    #[test]
    fn bad_numbers_are_located() {
        let text = write_plan(&a_plan());
        let broken = text.replace("time", "time zzz");
        let e = parse_plan(&broken).unwrap_err();
        assert!(e.line() > 0);
        assert!(e.to_string().contains("line"));
    }

    #[test]
    fn overlap_in_file_is_rejected() {
        let text = "plan v1\nmode no-TDC\nbudget tam 4\ntime 100\nvolume 5\ntams 4\n\
                    core 0 a tam 0 start 0 time 60 volume 2 raw\n\
                    core 1 b tam 0 start 30 time 40 volume 3 raw\n";
        let e = parse_plan(text).unwrap_err();
        assert!(e.to_string().contains("overlap"));
    }

    #[test]
    fn outcome_line_roundtrips_and_defaults_to_optimal() {
        let plan = a_plan();
        for outcome in [
            PlanOutcome::Optimal,
            PlanOutcome::Degraded(SolverStage::Greedy),
            PlanOutcome::Interrupted(SolverStage::Anneal),
        ] {
            let mut stamped = plan.clone();
            stamped.outcome = outcome;
            let text = write_plan(&stamped);
            assert_eq!(parse_plan(&text).unwrap().outcome, outcome);
        }
        // Pre-outcome files (written before the field existed) parse as
        // optimal.
        let legacy: String = write_plan(&plan)
            .lines()
            .filter(|l| !l.starts_with("outcome"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(parse_plan(&legacy).unwrap().outcome, PlanOutcome::Optimal);
        // A malformed outcome is a parse error, not a panic.
        let broken = write_plan(&plan).replace("outcome optimal", "outcome degraded warp");
        assert!(parse_plan(&broken).is_err());
    }

    #[test]
    fn overflowing_start_plus_duration_is_rejected() {
        let max = u64::MAX;
        let text = format!(
            "plan v1\nmode no-TDC\nbudget tam 4\ntime {max}\nvolume 5\ntams 4\n\
             core 0 a tam 0 start 1 time {max} volume 2 raw\n\
             core 1 b tam 0 start 2 time 1 volume 3 raw\n"
        );
        let e = parse_plan(&text).unwrap_err();
        assert!(e.to_string().contains("overflow"), "got: {e}");
    }

    #[test]
    fn comments_and_blank_lines_tolerated() {
        let text = write_plan(&a_plan());
        let commented = format!(
            "plan v1\n# note\n\n{}",
            text.strip_prefix("plan v1\n").unwrap()
        );
        assert!(parse_plan(&commented).is_ok());
    }
}
