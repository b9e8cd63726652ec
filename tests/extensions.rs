//! Integration tests for the extension features working *together* on
//! planner output: response compaction, truncation with quality tracking,
//! multi-frequency TAMs and conflict groups.

#![forbid(unsafe_code)]

use soc_tdc::model::benchmarks::Design;
use soc_tdc::model::compaction::{compact, covers};
use soc_tdc::planner::{
    plan_response_compaction, truncate_to_fit, AteSpec, DecisionConfig, PlanRequest, Planner,
};
use soc_tdc::tam::{
    conflict_schedule, multifreq_schedule, validate_multifreq, Conflicts, CostModel, FreqTam,
};
use soc_tdc::wrapper::{design_wrapper, estimate_scan_power, Fill};

fn fast(w: u32) -> PlanRequest {
    PlanRequest::tam_width(w).with_decisions(DecisionConfig {
        pattern_sample: Some(8),
        m_candidates: 8,
    })
}

#[test]
fn response_compaction_covers_the_whole_plan() {
    let soc = Design::System1.build_with_cubes(4);
    let plan = Planner::per_core_tdc().plan(&soc, &fast(16)).unwrap();
    let rp = plan_response_compaction(&soc, &plan, 1e-8);
    assert_eq!(rp.compactors.len(), soc.core_count());
    // Each MISR is wide enough for its core's unload chains and can absorb
    // a full response stream without panicking.
    for (i, c) in rp.compactors.iter().enumerate() {
        let mut misr = rp.misr_for(i);
        for cycle in 0..50 {
            let slice: Vec<bool> = (0..c.inputs).map(|k| (k + cycle) % 3 == 0).collect();
            misr.absorb(&slice);
        }
        assert_eq!(misr.cycles(), 50);
    }
}

#[test]
fn truncation_quality_chain() {
    let soc = Design::D695.build_with_cubes(4);
    let req = fast(12);
    let full = Planner::no_tdc().plan(&soc, &req).unwrap();
    let spec = AteSpec {
        channels: 64,
        memory_depth: full.test_time * 2 / 3,
        clock_hz: 100_000_000,
    };
    let t = truncate_to_fit(&soc, &Planner::no_tdc(), &req, &spec).unwrap();
    assert!(spec.fit(&t.plan).fits);
    let q = t.quality_proxy(&soc);
    // These cubes have uniform density, so the care-bit quality proxy
    // tracks the kept-pattern fraction closely (it only *beats* it under
    // density decay — covered in the tdcsoc unit tests).
    assert!(
        (q - t.kept_fraction()).abs() < 0.1,
        "quality {q:.3} vs kept {:.3}",
        t.kept_fraction()
    );
    assert!(q > 0.0 && q <= 1.0);
    // The truncated SOC is itself plannable and coherent.
    assert_eq!(t.soc.core_count(), soc.core_count());
}

#[test]
fn planner_cost_rows_feed_multifreq_and_conflicts() {
    let soc = Design::D695.build_with_cubes(4);
    let plan = Planner::no_tdc().plan(&soc, &fast(12)).unwrap();
    let max_w = plan.schedule.tam_widths().iter().copied().max().unwrap();
    let mut cost = CostModel::new(max_w);
    for s in &plan.core_settings {
        let mut row = vec![None; max_w as usize];
        for w in s.tam_width..=max_w {
            row[(w - 1) as usize] = Some(s.test_time);
        }
        cost.push_core(&s.name, row);
    }
    let widths: Vec<u32> = plan.schedule.tam_widths().to_vec();

    // Multi-frequency: every core tolerates 2×, two giants only 1×.
    let caps: Vec<u32> = (0..cost.core_count())
        .map(|i| if i < 2 { 1 } else { 2 })
        .collect();
    let tams: Vec<FreqTam> = widths
        .iter()
        .map(|&w| FreqTam { width: w, freq: 1 })
        .collect();
    let s1 = multifreq_schedule(&cost, &tams, &caps).unwrap();
    validate_multifreq(&s1, &cost, &tams, &caps).unwrap();

    // Conflict groups: a hierarchical parent serializes cores 3..6.
    let conflicts = Conflicts::from_groups(&[vec![3, 4, 5]]);
    let s2 = conflict_schedule(&cost, &widths, &conflicts).unwrap();
    conflicts.validate(&s2).unwrap();
    s2.validate(&cost).unwrap();
}

#[test]
fn compaction_composes_with_power_estimation() {
    let soc = Design::D695.build_with_cubes(4);
    let (_, core) = soc.core_by_name("s13207").unwrap();
    let ts = core.test_set().unwrap();
    let c = compact(ts);
    assert!(covers(ts, &c));
    // Power estimation works on both original and compacted sets.
    let design = design_wrapper(core, 8);
    let p_orig = estimate_scan_power(&design, ts, Fill::MinTransition, 8);
    let p_comp = estimate_scan_power(&design, &c.test_set, Fill::MinTransition, 8);
    assert!(p_orig.average > 0.0 && p_comp.average > 0.0);
    // Compacted cubes are denser → more switching per cycle.
    assert!(p_comp.average >= p_orig.average * 0.9);
}
