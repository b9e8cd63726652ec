//! Exhaustive (oracle) architecture optimization for small instances.
//!
//! Enumerates every TAM partition (as a non-increasing width multiset) and
//! every core-to-TAM assignment, returning the true optimum. Exponential —
//! intended for validating the heuristics (`optimize_architecture`,
//! `anneal_architecture`) on test-sized inputs, and usable in anger only
//! for a handful of cores and wires.

use robust::CancelToken;

use crate::cost::CostModel;
use crate::optimize::Architecture;
use crate::schedule::{Schedule, ScheduleError, ScheduledTest};
use crate::search::Search;

/// Hard cap on the enumeration size, to protect against accidental use on
/// real instances (`assignments = tams^cores`).
const MAX_ASSIGNMENTS: u64 = 20_000_000;

/// How many odometer steps run between cancel-token polls: cheap enough
/// to bound overshoot to well under a millisecond, rare enough that the
/// atomic load does not dominate the inner loop.
const CANCEL_POLL_STRIDE: u64 = 4096;

/// Finds the optimal fixed-width-TAM architecture by brute force, over
/// every TAM count up to `min(total_width, cores)`.
///
/// # Errors
///
/// * [`ScheduleError::BadPartition`] — zero budget, or the instance
///   exceeds the enumeration cap.
/// * [`ScheduleError::CoreUnschedulable`] — some core is infeasible even
///   on a single full-budget TAM.
pub fn exhaustive_architecture(
    cost: &CostModel,
    total_width: u32,
) -> Result<Architecture, ScheduleError> {
    exhaustive_architecture_with(cost, total_width, &CancelToken::never())
        .map(|search| search.architecture)
}

/// Cancellable variant of [`exhaustive_architecture`].
///
/// Polls `token` between partitions and every few thousand assignment
/// steps. When it trips, the enumeration stops and the best architecture
/// seen so far is returned with [`SearchStatus::Interrupted`] — a valid
/// (but no longer provably optimal) incumbent for the caller's fallback
/// path.
///
/// # Errors
///
/// As [`exhaustive_architecture`], plus [`ScheduleError::Interrupted`]
/// when the token trips before any feasible assignment was evaluated.
pub fn exhaustive_architecture_with(
    cost: &CostModel,
    total_width: u32,
    token: &CancelToken,
) -> Result<Search, ScheduleError> {
    if total_width == 0 {
        return Err(ScheduleError::BadPartition {
            total_width,
            tams: 0,
        });
    }
    let n = cost.core_count();
    let k_max = total_width.min(n as u32).max(1);

    let mut best: Option<Architecture> = None;
    let mut interrupted = false;
    'search: for k in 1..=k_max {
        let combos = (k as u64).checked_pow(n as u32);
        if combos.is_none_or(|c| c > MAX_ASSIGNMENTS) {
            return Err(ScheduleError::BadPartition {
                total_width,
                tams: k,
            });
        }
        for widths in partitions(total_width, k) {
            if token.is_cancelled() {
                interrupted = true;
                break 'search;
            }
            let (arch, cut_short) = best_assignment(cost, &widths, token);
            if let Some(arch) = arch {
                if best.as_ref().is_none_or(|b| arch.test_time < b.test_time) {
                    best = Some(arch);
                }
            }
            if cut_short {
                interrupted = true;
                break 'search;
            }
        }
    }
    match best {
        Some(architecture) => Ok(if interrupted {
            Search::interrupted(architecture)
        } else {
            Search::complete(architecture)
        }),
        None if interrupted => Err(ScheduleError::Interrupted),
        None => {
            // Even [total_width] failed → some core is infeasible.
            Err(ScheduleError::CoreUnschedulable {
                core: (0..n)
                    .find(|&i| cost.time(i, total_width).is_none())
                    .unwrap_or(0),
            })
        }
    }
}

/// All partitions of `total` into exactly `k` positive, non-increasing
/// parts.
fn partitions(total: u32, k: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k as usize);
    fn rec(
        remaining: u32,
        parts: u32,
        max_part: u32,
        current: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
    ) {
        if parts == 0 {
            if remaining == 0 {
                out.push(current.clone());
            }
            return;
        }
        // Each remaining part needs at least 1 wire.
        let hi = max_part.min(remaining.saturating_sub(parts - 1));
        let lo = remaining.div_ceil(parts); // keep non-increasing feasible
        for part in (lo..=hi).rev() {
            current.push(part);
            rec(remaining - part, parts - 1, part, current, out);
            current.pop();
        }
    }
    rec(total, k, total, &mut current, &mut out);
    out
}

/// Optimal assignment of all cores to the given widths (exhaustive).
///
/// Returns the best architecture over the assignments examined plus a
/// flag saying whether the token cut the enumeration short.
fn best_assignment(
    cost: &CostModel,
    widths: &[u32],
    token: &CancelToken,
) -> (Option<Architecture>, bool) {
    let n = cost.core_count();
    let k = widths.len();
    let mut assignment = vec![0usize; n];
    let mut best: Option<(u64, Vec<usize>)> = None;
    let mut steps: u64 = 0;

    loop {
        steps += 1;
        if steps.is_multiple_of(CANCEL_POLL_STRIDE) && token.is_cancelled() {
            let arch = best.map(|(makespan, a)| build_architecture(cost, widths, &a, makespan));
            return (arch, true);
        }
        // Evaluate: serial load per TAM.
        let mut loads = vec![0u64; k];
        let mut feasible = true;
        for (core, &tam) in assignment.iter().enumerate() {
            match cost.time(core, widths[tam]) {
                Some(t) => loads[tam] += t,
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible {
            let makespan = loads.iter().copied().max().unwrap_or(0);
            if best.as_ref().is_none_or(|(b, _)| makespan < *b) {
                best = Some((makespan, assignment.clone()));
            }
        }
        // Odometer increment.
        let mut i = 0;
        // soclint: allow(cancel-coverage) -- bounded odometer carry: at most n digits per increment
        loop {
            if i == n {
                let arch = best.map(|(makespan, a)| build_architecture(cost, widths, &a, makespan));
                return (arch, false);
            }
            assignment[i] += 1;
            if assignment[i] < k {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

fn build_architecture(
    cost: &CostModel,
    widths: &[u32],
    assignment: &[usize],
    makespan: u64,
) -> Architecture {
    let mut finish = vec![0u64; widths.len()];
    let mut tests = Vec::with_capacity(assignment.len());
    for (core, &tam) in assignment.iter().enumerate() {
        let d = cost
            .time(core, widths[tam])
            .expect("assignment was checked feasible");
        tests.push(ScheduledTest {
            core,
            tam,
            start: finish[tam],
            duration: d,
        });
        finish[tam] += d;
    }
    Architecture {
        test_time: makespan,
        schedule: Schedule::new(widths.to_vec(), tests),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::{optimize_architecture, ArchitectureOptions};
    use crate::search::SearchStatus;

    fn cost() -> CostModel {
        CostModel::from_fn(&["a", "b", "c", "d"], 8, |i, w| {
            Some([900u64, 700, 400, 300][i] / u64::from(w) + 11)
        })
    }

    #[test]
    fn partitions_are_exact_and_nonincreasing() {
        let p = partitions(6, 3);
        for widths in &p {
            assert_eq!(widths.iter().sum::<u32>(), 6);
            assert!(widths.windows(2).all(|w| w[0] >= w[1]));
            assert!(widths.iter().all(|&w| w > 0));
        }
        // 6 = 4+1+1 = 3+2+1 = 2+2+2 → 3 partitions into 3 parts.
        assert_eq!(p.len(), 3);
        assert_eq!(partitions(5, 1), vec![vec![5]]);
    }

    #[test]
    fn oracle_finds_valid_optimum() {
        let c = cost();
        let arch = exhaustive_architecture(&c, 8).unwrap();
        arch.schedule.validate(&c).unwrap();
        assert!(arch.test_time >= c.lower_bound(8));
    }

    #[test]
    fn heuristic_matches_oracle_on_this_instance() {
        let c = cost();
        let oracle = exhaustive_architecture(&c, 8).unwrap();
        let heur = optimize_architecture(&c, 8, &ArchitectureOptions::default()).unwrap();
        assert!(heur.test_time >= oracle.test_time, "oracle is optimal");
        assert!(
            heur.test_time <= oracle.test_time * 13 / 10,
            "heuristic {} vs oracle {}",
            heur.test_time,
            oracle.test_time
        );
    }

    #[test]
    fn infeasible_core_reported() {
        let mut m = CostModel::new(6);
        m.push_core("wide", vec![None, None, None, None, None, Some(9)]);
        m.push_core("easy", vec![Some(5); 6]);
        assert!(exhaustive_architecture(&m, 6).is_ok());
        assert!(matches!(
            exhaustive_architecture(&m, 4),
            Err(ScheduleError::CoreUnschedulable { core: 0 })
        ));
    }

    #[test]
    fn pre_tripped_token_reports_interrupted() {
        let c = cost();
        let token = CancelToken::never();
        token.cancel();
        assert!(matches!(
            exhaustive_architecture_with(&c, 8, &token),
            Err(ScheduleError::Interrupted)
        ));
    }

    #[test]
    fn cancelled_search_returns_valid_incumbent() {
        // Big enough that the odometer passes several poll strides: the
        // token trips via its zero deadline, and the incumbent found before
        // the first poll must still be a valid architecture.
        let c = CostModel::from_fn(&["x"; 12], 6, |i, w| {
            Some(5_000 * (i as u64 + 1) / u64::from(w) + 3)
        });
        let token = CancelToken::expiring_in(std::time::Duration::ZERO);
        match exhaustive_architecture_with(&c, 3, &token) {
            Ok(search) => {
                assert_eq!(search.status, SearchStatus::Interrupted);
                search.architecture.schedule.validate(&c).unwrap();
            }
            Err(ScheduleError::Interrupted) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn never_token_matches_plain_search() {
        let c = cost();
        let plain = exhaustive_architecture(&c, 8).unwrap();
        let with = exhaustive_architecture_with(&c, 8, &CancelToken::never()).unwrap();
        assert!(with.is_complete());
        assert_eq!(with.architecture, plain);
    }

    #[test]
    fn oversized_instances_are_refused() {
        let c = CostModel::from_fn(&["x"; 40], 8, |_, w| Some(100 / u64::from(w) + 1));
        assert!(matches!(
            exhaustive_architecture(&c, 8),
            Err(ScheduleError::BadPartition { .. })
        ));
    }
}
