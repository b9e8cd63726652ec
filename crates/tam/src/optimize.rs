//! Test-architecture design (paper §3, step 3): choosing how many TAMs to
//! build and how to split the wire budget among them.
//!
//! For every TAM count `k`, the optimizer starts from a balanced split of
//! the budget and then hill-climbs: wires are moved one at a time from
//! under-utilized TAMs to the bottleneck TAM as long as the schedule
//! improves (the TR-Architect idea of Goel & Marinissen, adapted to the
//! lookup-table cost model). The best architecture over all `k` wins.
//!
//! The per-`k` climbs are independent, so they run as a deterministic
//! portfolio on a [`parpool::Pool`]: `k = 1` is evaluated inline first (an
//! expired deadline still yields the single-TAM baseline), the remaining
//! `k` fan out as pool tasks, and the results reduce by the fixed
//! tie-break `(test_time, k, widths)` — identical winner at any worker
//! count. A shared atomic incumbent feeds two prunes that never change the
//! winner (see [`CostModel::lower_bound_for_k`] and
//! [`GreedySweep`](crate::sweep::GreedySweep)): `k` values whose lower
//! bound exceeds an achieved incumbent are skipped, and candidate-move
//! sweeps abort once their partial bottleneck proves them non-improving.

use std::sync::atomic::Ordering;

use parpool::{dsan, Pool};
use robust::CancelToken;

use crate::cost::CostModel;
use crate::greedy::greedy_schedule;
use crate::schedule::{Schedule, ScheduleError};
use crate::search::{Search, SearchStatus};
use crate::sweep::{GreedySweep, SweepOutcome};

/// Options for [`optimize_architecture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchitectureOptions {
    /// Cap on hill-climbing steps per TAM count (default 64; each step
    /// reschedules once per donor TAM).
    pub refine_steps: u32,
    /// Worker threads for the per-`k` portfolio (default: one per
    /// hardware thread). The result is identical at any worker count.
    pub workers: Option<usize>,
    /// Skip `k` values whose lower bound already exceeds the incumbent
    /// (default on; never changes the result — see
    /// [`CostModel::lower_bound_for_k`]).
    pub prune: bool,
}

impl Default for ArchitectureOptions {
    fn default() -> Self {
        ArchitectureOptions {
            refine_steps: 64,
            workers: None,
            prune: true,
        }
    }
}

/// An optimized test architecture: the partition, its schedule, and the
/// resulting SOC test time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    /// The winning schedule (carries the TAM widths).
    pub schedule: Schedule,
    /// SOC test time in clock cycles (the schedule's makespan).
    pub test_time: u64,
}

/// Splits `total_width` wires into `k` TAMs and assigns/schedules all cores,
/// minimizing SOC test time over both the split and the assignment.
///
/// # Errors
///
/// Returns [`ScheduleError::BadPartition`] when `total_width == 0`, and
/// [`ScheduleError::CoreUnschedulable`] when some core cannot be tested
/// even on a single TAM of the full budget.
pub fn optimize_architecture(
    cost: &CostModel,
    total_width: u32,
    opts: &ArchitectureOptions,
) -> Result<Architecture, ScheduleError> {
    optimize_architecture_with(cost, total_width, opts, &CancelToken::never())
        .map(|search| search.architecture)
}

/// Cancellable variant of [`optimize_architecture`].
///
/// Polls `token` between TAM counts and hill-climbing steps. When the
/// token trips, the search returns its best architecture so far with
/// [`SearchStatus::Interrupted`].
///
/// # Errors
///
/// As [`optimize_architecture`], plus [`ScheduleError::Interrupted`] when
/// the token trips before even the first greedy schedule exists.
pub fn optimize_architecture_with(
    cost: &CostModel,
    total_width: u32,
    opts: &ArchitectureOptions,
    token: &CancelToken,
) -> Result<Search, ScheduleError> {
    if total_width == 0 {
        return Err(ScheduleError::BadPartition {
            total_width,
            tams: 0,
        });
    }
    let k_max = total_width.min(cost.core_count() as u32).max(1);

    // Any published value is the makespan of an architecture some task
    // actually built, so the eventual winner's time is never above it —
    // pruning against it can only discard strictly worse candidates. The
    // dsan shadow is advisory: cross-task timing on this cell is benign
    // by the same argument.
    let incumbent =
        dsan::AtomicCell::new("tam.portfolio.incumbent", dsan::Policy::Advisory, u64::MAX);

    // k = 1 runs inline first so an expired deadline still yields the
    // single-TAM baseline rather than nothing at all (it also seeds the
    // incumbent for the pruned portfolio).
    let mut outcomes: Vec<KOutcome> = Vec::with_capacity(k_max as usize);
    outcomes.push(KOutcome::Done(optimize_for_k(
        cost,
        total_width,
        1,
        opts.refine_steps,
        token,
        &incumbent,
    )));
    if k_max > 1 {
        let pool = match opts.workers {
            Some(w) => Pool::with_workers(w),
            None => Pool::new(),
        }
        .labeled("portfolio");
        let tasks: Vec<_> = (2..=k_max)
            .map(|k| {
                let incumbent = &incumbent;
                move || {
                    if opts.prune
                        && cost.lower_bound_for_k(total_width, k)
                            // soclint: allow(relaxed-ordering) -- pruning bound only: a stale read keeps a k the exact pass would skip, which costs time but cannot change the selected plan
                            > incumbent.load(Ordering::Relaxed)
                    {
                        return KOutcome::Pruned;
                    }
                    KOutcome::Done(optimize_for_k(
                        cost,
                        total_width,
                        k,
                        opts.refine_steps,
                        token,
                        incumbent,
                    ))
                }
            })
            .collect();
        for outcome in pool.run_with(token, tasks) {
            // A task skipped after cancellation counts as interrupted.
            outcomes.push(outcome.unwrap_or(KOutcome::Skipped));
        }
    }

    // Deterministic reduction in k order with the fixed tie-break
    // (test_time, k, widths): the winner is identical at any worker count
    // and to the sequential sweep.
    let mut best: Option<(u64, u32, KResult)> = None;
    let mut first_error: Option<ScheduleError> = None;
    let mut status = SearchStatus::Complete;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let k = i as u32 + 1;
        match outcome {
            KOutcome::Skipped => status = SearchStatus::Interrupted,
            KOutcome::Pruned => {}
            KOutcome::Done(Err(e)) => {
                first_error.get_or_insert(e);
            }
            KOutcome::Done(Ok(r)) => {
                if r.status == SearchStatus::Interrupted {
                    status = SearchStatus::Interrupted;
                }
                let better = best
                    .as_ref()
                    .is_none_or(|(bt, bk, br)| (r.makespan, k, &r.widths) < (*bt, *bk, &br.widths));
                if better {
                    best = Some((r.makespan, k, r));
                }
            }
        }
    }
    match best {
        Some((test_time, _, r)) => {
            // Only the winner pays for a materialized schedule; its
            // feasibility was certified by the exact sweep.
            let schedule = greedy_schedule(cost, &r.widths)
                .expect("winning partition re-schedules identically");
            debug_assert_eq!(schedule.makespan(), test_time);
            Ok(Search {
                architecture: Architecture {
                    test_time,
                    schedule,
                },
                status,
            })
        }
        None => Err(first_error.expect("at least one k was attempted")),
    }
}

/// Result of one per-`k` hill-climb: the partition and its makespan. The
/// schedule is only materialized for the reduction winner.
struct KResult {
    widths: Vec<u32>,
    makespan: u64,
    status: SearchStatus,
}

enum KOutcome {
    Done(Result<KResult, ScheduleError>),
    /// Lower bound above the incumbent: running the climb could not have
    /// produced the winner, so it was skipped.
    Pruned,
    /// The pool never started this task (cancellation).
    Skipped,
}

fn optimize_for_k(
    cost: &CostModel,
    total_width: u32,
    k: u32,
    refine_steps: u32,
    token: &CancelToken,
    incumbent: &dsan::AtomicCell,
) -> Result<KResult, ScheduleError> {
    let mut widths = balanced_split(total_width, k);
    let mut sweep = GreedySweep::new(cost);
    sweep.reset(&widths);
    let mut makespan = match sweep.run(&widths, None) {
        SweepOutcome::Exact(m) => m,
        SweepOutcome::Infeasible(core) => return Err(ScheduleError::CoreUnschedulable { core }),
        SweepOutcome::Cutoff => unreachable!("unbounded run cannot cut off"),
    };
    // soclint: allow(relaxed-ordering) -- publishes a pruning bound other tasks may or may not see in time; plan selection is the deterministic index-ordered reduction downstream
    incumbent.fetch_min(makespan, Ordering::Relaxed);
    let mut status = SearchStatus::Complete;

    for _ in 0..refine_steps {
        if token.is_cancelled() {
            status = SearchStatus::Interrupted;
            break;
        }
        // Move one wire from each possible donor to the bottleneck TAM and
        // keep the best strictly improving move. Candidates are evaluated
        // in place — apply the move to the sweep state, run bounded,
        // revert — instead of cloning the partition and rescheduling from
        // scratch; the bound makes non-improving donors abort early.
        let bottleneck = (0..widths.len())
            .max_by_key(|&j| sweep.finishes()[j])
            .expect("k >= 1");
        let mut improved: Option<(usize, u64)> = None; // (donor, makespan)
        for donor in 0..widths.len() {
            if donor == bottleneck || widths[donor] <= 1 {
                continue;
            }
            let (wd, wb) = (widths[donor], widths[bottleneck]);
            widths[donor] -= 1;
            widths[bottleneck] += 1;
            sweep.apply(&[wd, wb], &[wd - 1, wb + 1]);
            // Exact results are always < bound, so this keeps exactly the
            // strictly improving moves, ties to the earliest donor.
            let bound = improved.map_or(makespan, |(_, bm)| bm.min(makespan));
            let outcome = sweep.run(&widths, Some(bound));
            widths[donor] += 1;
            widths[bottleneck] -= 1;
            sweep.apply(&[wd - 1, wb + 1], &[wd, wb]);
            if let SweepOutcome::Exact(m) = outcome {
                improved = Some((donor, m));
            }
        }
        match improved {
            Some((donor, m)) => {
                let (wd, wb) = (widths[donor], widths[bottleneck]);
                widths[donor] -= 1;
                widths[bottleneck] += 1;
                sweep.apply(&[wd, wb], &[wd - 1, wb + 1]);
                // Unbounded re-run refreshes the finish times for the next
                // bottleneck pick.
                let refreshed = sweep.run(&widths, None);
                debug_assert_eq!(refreshed, SweepOutcome::Exact(m));
                makespan = m;
                // soclint: allow(relaxed-ordering) -- same advisory pruning bound as above; never read back into this task's own result
                incumbent.fetch_min(makespan, Ordering::Relaxed);
            }
            None => break,
        }
    }
    Ok(KResult {
        widths,
        makespan,
        status,
    })
}

/// Splits `total` wires into `k` TAMs whose widths differ by at most one.
///
/// # Panics
///
/// Panics if `k == 0` or `k > total`.
pub fn balanced_split(total: u32, k: u32) -> Vec<u32> {
    assert!(
        k > 0 && k <= total,
        "cannot split {total} wires into {k} TAMs"
    );
    let base = total / k;
    let extra = total % k;
    (0..k)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::from_fn(&["a", "b", "c", "d", "e", "f"], 16, |i, w| {
            let work = 20_000 * (i as u64 + 1);
            Some(work / u64::from(w) + 50)
        })
    }

    #[test]
    fn finds_valid_architecture() {
        let c = cost();
        let arch = optimize_architecture(&c, 12, &ArchitectureOptions::default()).unwrap();
        arch.schedule.validate(&c).unwrap();
        assert_eq!(arch.test_time, arch.schedule.makespan());
        assert_eq!(arch.schedule.total_width(), 12);
    }

    #[test]
    fn beats_or_matches_single_tam() {
        let c = cost();
        let single = greedy_schedule(&c, &[12]).unwrap().makespan();
        let arch = optimize_architecture(&c, 12, &ArchitectureOptions::default()).unwrap();
        assert!(arch.test_time <= single);
    }

    #[test]
    fn wider_budget_never_hurts() {
        let c = cost();
        let opts = ArchitectureOptions::default();
        let t16 = optimize_architecture(&c, 16, &opts).unwrap().test_time;
        let t8 = optimize_architecture(&c, 8, &opts).unwrap().test_time;
        assert!(t16 <= t8, "16 wires: {t16}, 8 wires: {t8}");
    }

    #[test]
    fn close_to_lower_bound_on_divisible_work() {
        let c = cost();
        let arch = optimize_architecture(&c, 16, &ArchitectureOptions::default()).unwrap();
        let lb = c.lower_bound(16);
        assert!(
            arch.test_time <= lb * 2,
            "test time {} vs lower bound {lb}",
            arch.test_time
        );
    }

    #[test]
    fn zero_budget_is_an_error() {
        assert!(matches!(
            optimize_architecture(&cost(), 0, &ArchitectureOptions::default()),
            Err(ScheduleError::BadPartition { .. })
        ));
    }

    #[test]
    fn infeasible_core_propagates() {
        let mut m = CostModel::new(8);
        m.push_core(
            "wide-only",
            vec![None, None, None, None, None, None, None, Some(5)],
        );
        m.push_core("easy", vec![Some(10); 8]);
        // Budget 8: k = 1 hosts both; must succeed.
        let arch = optimize_architecture(&m, 8, &ArchitectureOptions::default()).unwrap();
        arch.schedule.validate(&m).unwrap();
        // Budget 4: no TAM can ever reach width 8.
        assert!(matches!(
            optimize_architecture(&m, 4, &ArchitectureOptions::default()),
            Err(ScheduleError::CoreUnschedulable { core: 0 })
        ));
    }

    #[test]
    fn expired_deadline_still_yields_single_tam_baseline() {
        let c = cost();
        let token = robust::CancelToken::expiring_in(std::time::Duration::ZERO);
        let search =
            optimize_architecture_with(&c, 12, &ArchitectureOptions::default(), &token).unwrap();
        assert_eq!(search.status, crate::SearchStatus::Interrupted);
        search.architecture.schedule.validate(&c).unwrap();
    }

    #[test]
    fn never_token_matches_plain_optimizer() {
        let c = cost();
        let plain = optimize_architecture(&c, 12, &ArchitectureOptions::default()).unwrap();
        let with = optimize_architecture_with(
            &c,
            12,
            &ArchitectureOptions::default(),
            &robust::CancelToken::never(),
        )
        .unwrap();
        assert!(with.is_complete());
        assert_eq!(with.architecture, plain);
    }

    #[test]
    fn balanced_split_properties() {
        assert_eq!(balanced_split(12, 3), vec![4, 4, 4]);
        assert_eq!(balanced_split(13, 3), vec![5, 4, 4]);
        assert_eq!(balanced_split(5, 5), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn balanced_split_rejects_excess_tams() {
        balanced_split(3, 4);
    }
}
