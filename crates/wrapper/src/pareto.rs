//! Enumeration of useful wrapper-design operating points.
//!
//! For TAM-width assignment the planner needs, per core, the test time at
//! every candidate width. Only a few widths actually change the design
//! (`Design_wrapper` produces staircase-shaped `s_i(m)` curves), so the
//! Pareto-optimal set of operating points is small and worth precomputing.

use soc_model::Core;

use crate::design::{design_wrapper, WrapperDesign};

/// One wrapper operating point: the narrowest chain count achieving its
/// scan lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperPoint {
    /// Requested (and effective) number of wrapper chains.
    pub chains: u32,
    /// Longest scan-in length `s_i`.
    pub scan_in: u64,
    /// Longest scan-out length `s_o`.
    pub scan_out: u64,
    /// Test time for the core's full pattern count, without compression.
    pub test_time: u64,
}

/// Enumerates the Pareto-optimal wrapper operating points of `core` for
/// chain counts `1..=max_chains`: points are emitted in increasing chain
/// count and strictly decreasing test time (dominated widths are skipped).
///
/// # Examples
///
/// ```
/// use soc_model::Core;
/// use wrapper::pareto_points;
///
/// let core = Core::builder("c").inputs(8).fixed_chains(vec![16, 16])
///     .pattern_count(10).build()?;
/// let points = pareto_points(&core, 8);
/// assert!(!points.is_empty());
/// assert!(points.windows(2).all(|w| w[0].test_time > w[1].test_time));
/// # Ok::<(), soc_model::BuildCoreError>(())
/// ```
pub fn pareto_points(core: &Core, max_chains: u32) -> Vec<WrapperPoint> {
    let cap = max_chains.min(core.max_wrapper_chains()).max(1);
    let mut points: Vec<WrapperPoint> = Vec::new();
    for m in 1..=cap {
        let d = design_wrapper(core, m);
        let t = d.test_time(u64::from(core.pattern_count()));
        if points.last().is_none_or(|p| t < p.test_time) {
            points.push(WrapperPoint {
                chains: m,
                scan_in: d.scan_in_length(),
                scan_out: d.scan_out_length(),
                test_time: t,
            });
        }
    }
    points
}

/// Returns the best (lowest-test-time) wrapper design for `core` that uses
/// at most `max_chains` chains, together with its test time.
pub fn best_design_up_to(core: &Core, max_chains: u32) -> (WrapperDesign, u64) {
    let cap = max_chains.min(core.max_wrapper_chains()).max(1);
    let mut best: Option<(WrapperDesign, u64)> = None;
    for m in 1..=cap {
        let d = design_wrapper(core, m);
        let t = d.test_time(u64::from(core.pattern_count()));
        if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
            best = Some((d, t));
        }
    }
    best.expect("cap >= 1 yields at least one design")
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_model::benchmarks;

    fn core() -> Core {
        Core::builder("t")
            .inputs(10)
            .outputs(6)
            .fixed_chains(vec![20, 18, 16, 12, 8])
            .pattern_count(50)
            .build()
            .unwrap()
    }

    fn time_at(core: &Core, m: u32) -> u64 {
        design_wrapper(core, m).test_time(u64::from(core.pattern_count()))
    }

    #[test]
    fn pareto_points_strictly_improve() {
        let pts = pareto_points(&core(), 16);
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].chains < w[1].chains);
            assert!(w[0].test_time > w[1].test_time);
        }
    }

    #[test]
    fn first_point_is_single_chain() {
        let pts = pareto_points(&core(), 16);
        assert_eq!(pts[0].chains, 1);
        assert_eq!(pts[0].test_time, time_at(&core(), 1));
    }

    #[test]
    fn best_design_matches_min_over_range() {
        let c = core();
        let (_, best) = best_design_up_to(&c, 6);
        let brute = (1..=6).map(|m| time_at(&c, m)).min().unwrap();
        assert_eq!(best, brute);
    }

    #[test]
    fn wider_never_beats_pareto_frontier() {
        // On a d695 core the frontier at 16 chains must be at least as good
        // as any single width below 16.
        let soc = benchmarks::d695();
        for c in soc.cores() {
            let pts = pareto_points(c, 16);
            let best = pts.last().unwrap().test_time;
            for m in 1..=16 {
                assert!(time_at(c, m) >= best, "{} m={m}", c.name());
            }
        }
    }
}
