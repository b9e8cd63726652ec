//! Properties of the parallel architecture-search portfolio: the result
//! must be invariant under the worker count (the pool only reorders
//! *execution*, never the deterministic reduction) and under pruning
//! (the per-`k` lower bound may only skip `k` values that cannot win).

#![forbid(unsafe_code)]

use proptest::prelude::*;

use tam::{
    anneal_architecture, exhaustive_architecture, optimize_architecture, AnnealOptions,
    ArchitectureOptions, CostModel,
};

const MAX_WIDTH: u32 = 6;

/// A small random cost model: per core a minimum feasible width and a
/// base time; times fall off with width but not perfectly smoothly, so
/// different `k` genuinely compete.
fn arb_cost() -> impl Strategy<Value = CostModel> {
    proptest::collection::vec((1u32..=4, 50u64..5_000), 2..6).prop_map(|cores| {
        let names: Vec<String> = (0..cores.len()).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        CostModel::from_fn(&name_refs, MAX_WIDTH, |i, w| {
            let (min_w, base) = cores[i];
            (w >= min_w).then(|| base / u64::from(w) + (base % (u64::from(w) + u64::from(min_w))))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hill_climb_portfolio_is_worker_count_invariant(
        cost in arb_cost(),
        total_width in 2u32..=8,
    ) {
        let run = |workers: usize| {
            optimize_architecture(
                &cost,
                total_width,
                &ArchitectureOptions { workers: Some(workers), ..Default::default() },
            )
        };
        let (one, two, four) = (run(1), run(2), run(4));
        match one {
            Ok(a) => {
                prop_assert_eq!(&a, &two.expect("2 workers diverged"));
                prop_assert_eq!(&a, &four.expect("4 workers diverged"));
                a.schedule.validate(&cost).expect("invalid winning schedule");
            }
            Err(e) => {
                prop_assert_eq!(format!("{e}"), format!("{}", two.unwrap_err()));
                prop_assert_eq!(format!("{e}"), format!("{}", four.unwrap_err()));
            }
        }
    }

    #[test]
    fn pruned_search_matches_unpruned_and_respects_the_oracle(
        cost in arb_cost(),
        total_width in 2u32..=8,
    ) {
        let run = |prune: bool| {
            optimize_architecture(
                &cost,
                total_width,
                &ArchitectureOptions { prune, ..Default::default() },
            )
        };
        match (run(true), run(false)) {
            (Ok(p), Ok(u)) => {
                prop_assert_eq!(&p, &u, "pruning changed the winner");
                // The exhaustive enumeration is the ground-truth optimum:
                // the hill-climb may settle above it, never below, and the
                // winner's own k must survive its lower bound.
                let best = exhaustive_architecture(&cost, total_width)
                    .expect("oracle must succeed when the hill-climb does");
                prop_assert!(p.test_time >= best.test_time);
                let k = p.schedule.tam_widths().len() as u32;
                prop_assert!(cost.lower_bound_for_k(total_width, k) <= p.test_time);
            }
            (Err(p), Err(u)) => prop_assert_eq!(format!("{p}"), format!("{u}")),
            other => prop_assert!(false, "pruning changed feasibility: {other:?}"),
        }
    }

    #[test]
    fn anneal_portfolio_is_worker_count_invariant(
        cost in arb_cost(),
        total_width in 2u32..=8,
        seed in 0u64..1_000,
    ) {
        let run = |workers: usize| {
            anneal_architecture(
                &cost,
                total_width,
                &AnnealOptions {
                    iterations: 300,
                    chains: 3,
                    workers: Some(workers),
                    seed,
                },
            )
        };
        match run(1) {
            Ok(a) => {
                prop_assert_eq!(&a, &run(2).expect("2 workers diverged"));
                prop_assert_eq!(&a, &run(4).expect("4 workers diverged"));
            }
            Err(e) => {
                prop_assert_eq!(format!("{e}"), format!("{}", run(2).unwrap_err()));
                prop_assert_eq!(format!("{e}"), format!("{}", run(4).unwrap_err()));
            }
        }
    }
}
