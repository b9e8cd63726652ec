//! Correctness checks applied to every plan the benchmark times, and the
//! golden Table 3 pass.

use soc_model::benchmarks::Design;
use tdcsoc::{
    parse_plan, write_plan, DecisionConfig, Plan, PlanOutcome, PlanRequest, Planner, Technique,
};

/// Cores whose operating point instantiates a selective-encoding
/// decompressor: the streams plan-time verification must replay.
fn compressed_cores(plan: &Plan) -> usize {
    plan.core_settings
        .iter()
        .filter(|s| s.technique == Technique::SelectiveEncoding && s.decompressor.is_some())
        .count()
}

/// Checks one finished plan and returns its plan-file text.
///
/// Failures are appended to `failures`, prefixed with `what`: an outcome
/// other than `Optimal`, text that does not round-trip byte-identically
/// through `parse_plan` and `write_plan`, and (when the caller knows it) a
/// `streams_verified` count that differs from the compressed-core count.
pub fn check_plan(
    what: &str,
    plan: &Plan,
    streams_verified: Option<usize>,
    failures: &mut Vec<String>,
) -> String {
    if plan.outcome != PlanOutcome::Optimal {
        failures.push(format!("{what}: outcome `{}`, not optimal", plan.outcome));
    }
    let text = write_plan(plan);
    check_round_trip(what, &text, failures);
    if let Some(verified) = streams_verified {
        let compressed = compressed_cores(plan);
        if verified != compressed {
            failures.push(format!(
                "{what}: {verified} streams verified for {compressed} compressed cores"
            ));
        }
    }
    text
}

/// Checks that plan text parses and writes back byte-identically; returns
/// the parsed plan.
pub fn check_round_trip(what: &str, text: &str, failures: &mut Vec<String>) -> Option<Plan> {
    match parse_plan(text) {
        Ok(parsed) => {
            if write_plan(&parsed) != text {
                failures.push(format!("{what}: plan text does not round-trip"));
            }
            Some(parsed)
        }
        Err(e) => {
            failures.push(format!("{what}: plan text does not parse: {e}"));
            None
        }
    }
}

/// One golden row: a design at a width, with the Table 3 columns it must
/// reproduce.
struct GoldenRow {
    design: Design,
    width: u32,
    tau_nc: u64,
    tau_c: u64,
    vc_mbits: String,
}

/// The committed Table 3 the golden pass compares against.
const TABLE3: &str = include_str!("../../results/table3.txt");

/// Golden rows checked by [`golden_pass`].
const GOLDEN: [(Design, u32); 4] = [
    (Design::D695, 16),
    (Design::D695, 32),
    (Design::System1, 16),
    (Design::System1, 32),
];

/// Seed and fidelity of the Table 3 experiment.
const TABLE3_SEED: u64 = 2008;

fn table3_config() -> DecisionConfig {
    DecisionConfig {
        pattern_sample: Some(24),
        m_candidates: 16,
    }
}

/// Finds the row of `design` at `width` in `results/table3.txt`.
fn golden_row(design: Design, width: u32) -> Result<GoldenRow, String> {
    let number = |s: &str| -> Result<u64, String> {
        s.replace(',', "")
            .parse()
            .map_err(|_| format!("table3: bad number `{s}`"))
    };
    for line in TABLE3.lines() {
        let parts: Vec<&str> = line.split('|').collect();
        if parts.len() != 4 {
            continue;
        }
        let head: Vec<&str> = parts[0].split_whitespace().collect();
        if head.len() != 3 || head[0] != design.name() || head[2] != width.to_string() {
            continue;
        }
        let nc: Vec<&str> = parts[1].split_whitespace().collect();
        let c: Vec<&str> = parts[2].split_whitespace().collect();
        if nc.len() != 3 || c.len() != 3 {
            return Err(format!("table3: malformed row `{line}`"));
        }
        return Ok(GoldenRow {
            design,
            width,
            tau_nc: number(nc[0])?,
            tau_c: number(c[0])?,
            vc_mbits: c[1].to_string(),
        });
    }
    Err(format!("table3: no row for {} at W={width}", design.name()))
}

/// Re-plans the Table 3 rows d695 and System1 at W=16 and W=32 (seed
/// 2008, 24 sampled patterns, 16 `m` candidates) and compares τ_nc and
/// τ_c exactly and V_c to the file's 0.01 Mb. Returns the number of rows
/// checked; failures are appended to `failures`.
pub fn golden_pass(workers: usize, failures: &mut Vec<String>) -> usize {
    let mut checked = 0;
    for (design, width) in GOLDEN {
        checked += 1;
        let row = match golden_row(design, width) {
            Ok(row) => row,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let soc = row.design.build_with_cubes(TABLE3_SEED);
        let mut request = PlanRequest::tam_width(row.width).with_decisions(table3_config());
        request.architecture.workers = Some(workers);
        let what = format!("golden {} W={}", design.name(), width);
        let nc = Planner::no_tdc().plan(&soc, &request);
        let c = Planner::per_core_tdc().plan_with_stats(&soc, &request, &Default::default());
        match (nc, c) {
            (Ok(nc), Ok((c, stats))) => {
                check_plan(&what, &nc, None, failures);
                check_plan(&what, &c, Some(stats.streams_verified), failures);
                let vc = format!("{:.2}", c.volume_bits as f64 / 1e6);
                if nc.test_time != row.tau_nc || c.test_time != row.tau_c || vc != row.vc_mbits {
                    failures.push(format!(
                        "{what}: tau_nc {} tau_c {} Vc {vc} Mb, table3 has {} / {} / {} Mb",
                        nc.test_time, c.test_time, row.tau_nc, row.tau_c, row.vc_mbits
                    ));
                }
            }
            (nc, c) => failures.push(format!(
                "{what}: planning failed: {:?} / {:?}",
                nc.err(),
                c.err()
            )),
        }
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_rows_are_in_table3() {
        let row = golden_row(Design::System1, 32).expect("row present");
        assert_eq!(row.tau_c, 65_209);
        assert_eq!(row.tau_nc, 526_322);
        assert_eq!(row.vc_mbits, "1.85");
        for (design, width) in GOLDEN {
            golden_row(design, width).expect("every golden row is present");
        }
    }
}
