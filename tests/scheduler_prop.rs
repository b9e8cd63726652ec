//! Property-based tests of the TAM/scheduling layer: for arbitrary cost
//! models and partitions, schedules must validate, architecture search must
//! never lose to its own starting point, and power-aware schedules must
//! respect their budget.

#![forbid(unsafe_code)]

use proptest::prelude::*;

use soc_tdc::tam::{
    greedy_schedule, optimize_architecture, power_aware_schedule, ArchitectureOptions, CostModel,
    PowerModel,
};

/// Strategy: a cost model with monotone non-increasing rows (wider TAMs
/// never slower — the planner's tables guarantee this shape).
fn cost_model(max_width: u32) -> impl Strategy<Value = CostModel> {
    proptest::collection::vec((1_000u64..2_000_000, 1u32..=max_width), 1..10).prop_map(
        move |cores| {
            let mut m = CostModel::new(max_width);
            for (i, (work, min_w)) in cores.into_iter().enumerate() {
                let row = (1..=max_width)
                    .map(|w| {
                        if w < min_w {
                            None
                        } else {
                            Some(work / u64::from(w) + 17)
                        }
                    })
                    .collect();
                m.push_core(format!("c{i}"), row);
            }
            m
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_schedules_validate(cost in cost_model(12), split in 1u32..5) {
        let widths: Vec<u32> = soc_tdc::tam::balanced_split(12, split);
        match greedy_schedule(&cost, &widths) {
            Ok(s) => {
                prop_assert!(s.validate(&cost).is_ok());
                prop_assert!(s.makespan() >= cost.lower_bound(12) / 4);
            }
            Err(_) => {
                // Only legitimate when some core needs a wider TAM than any
                // in the partition.
                let widest = *widths.iter().max().unwrap();
                let stuck = (0..cost.core_count())
                    .any(|i| cost.time(i, widest).is_none());
                prop_assert!(stuck, "scheduler failed without an infeasible core");
            }
        }
    }

    #[test]
    fn architecture_search_never_worse_than_single_tam(cost in cost_model(10)) {
        let arch = optimize_architecture(&cost, 10, &ArchitectureOptions::default())
            .expect("width 10 accommodates every core");
        prop_assert!(arch.schedule.validate(&cost).is_ok());
        let single = greedy_schedule(&cost, &[10]).expect("single TAM feasible");
        prop_assert!(arch.test_time <= single.makespan());
        prop_assert!(arch.test_time >= cost.lower_bound(10));
    }

    #[test]
    fn power_budget_is_always_respected(
        cost in cost_model(8),
        powers in proptest::collection::vec(1u64..50, 10),
        budget_extra in 0u64..100,
    ) {
        let n = cost.core_count();
        let powers = powers[..n].to_vec();
        let budget = powers.iter().copied().max().unwrap() + budget_extra;
        let power = PowerModel::new(powers, budget);
        if let Ok(s) = power_aware_schedule(&cost, &[4, 4], &power) {
            prop_assert!(s.validate(&cost).is_ok());
            prop_assert!(power.peak_power(&s) <= budget);
        }
    }

    #[test]
    fn tighter_power_budgets_never_speed_things_up(
        cost in cost_model(8),
        powers in proptest::collection::vec(1u64..50, 10),
    ) {
        let n = cost.core_count();
        let powers = powers[..n].to_vec();
        let pmax: u64 = powers.iter().copied().max().unwrap();
        let total: u64 = powers.iter().sum();
        let loose = PowerModel::new(powers.clone(), total.max(pmax));
        let tight = PowerModel::new(powers, pmax);
        let widths = [4u32, 4];
        if let (Ok(a), Ok(b)) = (
            power_aware_schedule(&cost, &widths, &loose),
            power_aware_schedule(&cost, &widths, &tight),
        ) {
            prop_assert!(b.makespan() >= a.makespan());
        }
    }
}

mod oracle {
    use super::*;
    use soc_tdc::tam::{anneal_architecture, exhaustive_architecture, AnnealOptions};

    fn tiny_cost_model() -> impl Strategy<Value = CostModel> {
        proptest::collection::vec(100u64..50_000, 2..6).prop_map(|works| {
            let mut m = CostModel::new(6);
            for (i, work) in works.into_iter().enumerate() {
                let row = (1..=6u32).map(|w| Some(work / u64::from(w) + 7)).collect();
                m.push_core(format!("c{i}"), row);
            }
            m
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn heuristic_stays_within_35_percent_of_oracle(cost in tiny_cost_model()) {
            let oracle = exhaustive_architecture(&cost, 6).expect("feasible");
            oracle.schedule.validate(&cost).unwrap();
            let heur = optimize_architecture(&cost, 6, &ArchitectureOptions::default())
                .expect("feasible");
            prop_assert!(heur.test_time >= oracle.test_time, "oracle must be optimal");
            prop_assert!(
                heur.test_time as f64 <= oracle.test_time as f64 * 1.35,
                "heuristic {} vs oracle {}", heur.test_time, oracle.test_time
            );
        }

        #[test]
        fn annealing_stays_within_35_percent_of_oracle(cost in tiny_cost_model()) {
            let oracle = exhaustive_architecture(&cost, 6).expect("feasible");
            let sa = anneal_architecture(&cost, 6, &AnnealOptions::default())
                .expect("feasible");
            prop_assert!(sa.test_time >= oracle.test_time);
            prop_assert!(
                sa.test_time as f64 <= oracle.test_time as f64 * 1.35,
                "annealing {} vs oracle {}", sa.test_time, oracle.test_time
            );
        }
    }
}
