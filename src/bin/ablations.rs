//! Ablations — the design choices DESIGN.md §8 calls out, each printed as
//! a one-line quality comparison against the alternative:
//!
//! 1. scheduling order — the paper's longest-first greedy vs. identity and
//!    shortest-first orders;
//! 2. `m` policy — searching the width class for the best `m` (the paper's
//!    point in Fig. 2) vs. pinning `m` to the class maximum;
//! 3. encoder modes — full selective encoding vs. single-bit mode only;
//! 4. architecture refinement — hill-climbing on vs. off;
//! 5. search strategy — hill-climbing vs. simulated annealing;
//! 6. compaction — static compaction shrinks the pattern count but raises
//!    the care density selective encoding feeds on.
//!
//! The first four assert that the chosen design does not lose.
//!
//! Regenerate with `cargo run --release --bin ablations`.

#![forbid(unsafe_code)]

use soc_tdc::model::benchmarks::{self, Design};
use soc_tdc::model::compaction::compact;
use soc_tdc::model::generator::synthesize_missing_test_sets;
use soc_tdc::model::{Core, CubeSynthesis, Soc, TestSet};
use soc_tdc::planner::{CompressionMode, DecisionConfig, DecisionTable};
use soc_tdc::selenc::{cube_cost_policy, evaluate_point, SliceCode};
use soc_tdc::tam::{
    anneal_architecture, greedy_schedule, longest_first_order, optimize_architecture,
    schedule_in_order, AnnealOptions, ArchitectureOptions, CostModel,
};
use soc_tdc::wrapper::{design_wrapper, WrapperDesign};

const SEED: u64 = 2008;

/// TAM width of the scheduling and architecture-search ablations.
const W: u32 = 24;

/// ckt-7 with cubes attached (the Figs. 2–3 subject).
fn ckt7() -> Core {
    let mut soc = Soc::new("ablations", vec![benchmarks::ckt(7)]);
    synthesize_missing_test_sets(&mut soc, SEED);
    soc.cores()[0].clone()
}

/// A scaled-down industrial-like core.
fn small_core(cells: u32, patterns: u32, density: f64) -> Core {
    let mut core = Core::builder("small")
        .inputs(24)
        .outputs(24)
        .flexible_cells(cells, 512)
        .pattern_count(patterns)
        .care_density(density)
        .build()
        .expect("valid core");
    let cubes = CubeSynthesis::new(density).synthesize(&core, SEED);
    core.attach_test_set(cubes).expect("shape matches");
    core
}

/// Selective-encoding codewords for a whole test set on `design`.
fn codewords(design: &WrapperDesign, ts: &TestSet, group_copy: bool) -> u64 {
    let code = SliceCode::for_chains(design.chain_count());
    ts.iter()
        .map(|p| cube_cost_policy(code, design, p, group_copy))
        .sum()
}

/// System1's per-core test-time rows at `W`.
fn scheduling_cost_model() -> CostModel {
    let soc = Design::System1.build_with_cubes(SEED);
    let cfg = DecisionConfig {
        pattern_sample: Some(8),
        m_candidates: 8,
    };
    let mut cost = CostModel::new(W);
    for core in soc.cores() {
        let t = DecisionTable::build(core, CompressionMode::PerCore, W, &cfg);
        cost.push_core(core.name(), t.time_row());
    }
    cost
}

fn ablate_order(cost: &CostModel) {
    let widths = [W / 3; 3];
    let identity: Vec<usize> = (0..cost.core_count()).collect();
    let mut shortest = longest_first_order(cost, &widths);
    shortest.reverse();

    let paper = greedy_schedule(cost, &widths).unwrap().makespan();
    let ident = schedule_in_order(cost, &widths, &identity)
        .unwrap()
        .makespan();
    let worst = schedule_in_order(cost, &widths, &shortest)
        .unwrap()
        .makespan();
    println!("[ablation:order] longest-first {paper} | identity {ident} | shortest-first {worst}");
    assert!(
        paper <= ident.max(worst),
        "the paper's order should not lose"
    );
}

fn ablate_m_policy() {
    let core = ckt7();
    // Best-m search vs. max-m pin at w = 10 (the Fig. 2 insight).
    let class = SliceCode::feasible_chains(10);
    let max_m = (*class.end()).min(core.max_wrapper_chains());
    let pinned = evaluate_point(&core, max_m, Some(16)).expect("max m realizable");
    let searched = class
        .step_by(4)
        .filter_map(|m| evaluate_point(&core, m, Some(16)))
        .min_by_key(|c| c.test_time)
        .expect("class nonempty");
    println!(
        "[ablation:m-policy] best-m {} vs max-m {} ({:.1}% worse)",
        searched.test_time,
        pinned.test_time,
        100.0 * (pinned.test_time as f64 / searched.test_time as f64 - 1.0)
    );
    assert!(searched.test_time <= pinned.test_time);
}

fn ablate_group_copy() {
    let core = small_core(3_000, 20, 0.2);
    let design = design_wrapper(&core, 200);
    let ts = core.test_set().unwrap();
    let full = codewords(&design, ts, true);
    let single = codewords(&design, ts, false);
    println!(
        "[ablation:group-copy] full encoder {full} codewords vs single-bit-only {single} \
         ({:.1}% saved by group-copy mode)",
        100.0 * (1.0 - full as f64 / single as f64)
    );
    assert!(full <= single);
}

fn ablate_refinement(cost: &CostModel) {
    let off = ArchitectureOptions {
        refine_steps: 0,
        ..Default::default()
    };
    let with = optimize_architecture(cost, W, &ArchitectureOptions::default())
        .unwrap()
        .test_time;
    let without = optimize_architecture(cost, W, &off).unwrap().test_time;
    println!("[ablation:refinement] hill-climb on {with} vs off {without}");
    assert!(with <= without);
}

fn ablate_search_strategy(cost: &CostModel) {
    let hill = optimize_architecture(cost, W, &ArchitectureOptions::default())
        .unwrap()
        .test_time;
    let sa = anneal_architecture(cost, W, &AnnealOptions::default())
        .unwrap()
        .test_time;
    println!("[ablation:search] hill-climb {hill} vs simulated annealing {sa}");
}

fn ablate_compaction() {
    // The compaction-vs-compression tension: static compaction shrinks the
    // pattern count but raises care density, hurting selective encoding.
    let core = small_core(2_000, 60, 0.02);
    let ts = core.test_set().unwrap();
    let compacted = compact(ts);
    let design = design_wrapper(&core, 128);
    println!(
        "[ablation:compaction] {} patterns → {} after compaction; codewords {} → {} \
         (density {:.3} → {:.3})",
        ts.pattern_count(),
        compacted.test_set.pattern_count(),
        codewords(&design, ts, true),
        codewords(&design, &compacted.test_set, true),
        ts.care_density(),
        compacted.test_set.care_density(),
    );
}

fn main() {
    println!("# Ablations of the design choices DESIGN.md §8 calls out (seed {SEED})");
    println!("# order, refinement, search: System1 at W = {W}; m-policy: ckt-7 at w = 10;");
    println!("# group-copy, compaction: synthetic industrial-like cores");
    let cost = scheduling_cost_model();
    ablate_order(&cost);
    ablate_m_policy();
    ablate_group_copy();
    ablate_refinement(&cost);
    ablate_search_strategy(&cost);
    ablate_compaction();
}
