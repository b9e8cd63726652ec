//! End-to-end integration tests spanning every crate: benchmark designs →
//! cube synthesis → wrapper/decompressor co-design → TAM optimization →
//! schedule, checked for internal consistency and determinism.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use soc_tdc::model::benchmarks::{self, Design};
use soc_tdc::model::format::{parse_soc, write_soc};
use soc_tdc::model::{generator::synthesize_missing_test_sets, Core, CubeSynthesis, Soc};
use soc_tdc::planner::{write_plan, DecisionConfig, PlanControl, PlanRequest, PlanStats, Planner};
use soc_tdc::tam::render_gantt;

/// A reduced industrial-like SOC small enough for debug-build tests.
fn small_industrial() -> Soc {
    let mk = |name: &str, cells: u32, patterns: u32, density: f64| {
        Core::builder(name)
            .inputs(20)
            .outputs(20)
            .flexible_cells(cells, 256)
            .pattern_count(patterns)
            .care_density(density)
            .build()
            .unwrap()
    };
    let mut soc = Soc::new(
        "mini-system",
        vec![
            mk("m1", 1_500, 30, 0.03),
            mk("m2", 2_400, 24, 0.02),
            mk("m3", 900, 40, 0.05),
            mk("m4", 3_000, 20, 0.015),
        ],
    );
    synthesize_missing_test_sets(&mut soc, 99);
    soc
}

fn fast(w: u32) -> PlanRequest {
    PlanRequest::tam_width(w).with_decisions(DecisionConfig {
        pattern_sample: Some(8),
        m_candidates: 8,
    })
}

#[test]
fn full_pipeline_on_d695() {
    let soc = Design::D695.build_with_cubes(1);
    let plan = Planner::per_core_tdc().plan(&soc, &fast(16)).unwrap();
    assert_eq!(plan.core_settings.len(), 10);
    assert_eq!(plan.test_time, plan.schedule.makespan());
    assert_eq!(
        plan.schedule.total_width(),
        16,
        "the whole budget is partitioned"
    );
    // Volumes and times aggregate consistently.
    let vol: u64 = plan.core_settings.iter().map(|s| s.volume_bits).sum();
    assert_eq!(vol, plan.volume_bits);
    for s in &plan.core_settings {
        assert!(s.start + s.test_time <= plan.test_time);
    }
}

#[test]
fn tdc_dominates_no_tdc_across_budgets() {
    let soc = small_industrial();
    for w in [6u32, 12, 20, 32] {
        let raw = Planner::no_tdc().plan(&soc, &fast(w)).unwrap();
        let tdc = Planner::per_core_tdc().plan(&soc, &fast(w)).unwrap();
        assert!(
            tdc.test_time <= raw.test_time,
            "w={w}: TDC {} vs raw {}",
            tdc.test_time,
            raw.test_time
        );
        assert!(tdc.volume_bits <= raw.volume_bits, "w={w}");
    }
}

#[test]
fn industrial_reduction_is_order_of_magnitude() {
    let soc = small_industrial();
    let raw = Planner::no_tdc().plan(&soc, &fast(24)).unwrap();
    let tdc = Planner::per_core_tdc().plan(&soc, &fast(24)).unwrap();
    let speedup = raw.test_time as f64 / tdc.test_time as f64;
    assert!(speedup > 4.0, "speedup only {speedup:.1}x");
    assert!(
        tdc.compressed_core_count() == soc.core_count(),
        "every sparse core should get a decompressor"
    );
}

#[test]
fn planning_is_deterministic() {
    let a = {
        let soc = small_industrial();
        Planner::per_core_tdc().plan(&soc, &fast(16)).unwrap()
    };
    let b = {
        let soc = small_industrial();
        Planner::per_core_tdc().plan(&soc, &fast(16)).unwrap()
    };
    assert_eq!(a.test_time, b.test_time);
    assert_eq!(a.volume_bits, b.volume_bits);
    assert_eq!(a.core_settings, b.core_settings);
    assert_eq!(a.schedule, b.schedule);
}

/// Plan text and stats of a per-core plan at `workers`, against the
/// profile cache in `cache` when one is given.
fn plan_at(soc: &Soc, width: u32, workers: usize, cache: Option<&Path>) -> (String, PlanStats) {
    let mut request = fast(width);
    request.architecture.workers = Some(workers);
    let control = match cache {
        Some(dir) => PlanControl::default().cache_profiles_in(dir, "e2e"),
        None => PlanControl::default(),
    };
    let (plan, stats) = Planner::per_core_tdc()
        .plan_with_stats(soc, &request, &control)
        .unwrap();
    (write_plan(&plan), stats)
}

/// A fresh, empty directory unique to `name` and this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies the directory tree `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

#[test]
fn plans_and_stats_are_identical_at_any_worker_count() {
    // Table builds, table assembly and stream verification all fan out on
    // the planner's pool; neither the plan nor any counter may depend on
    // its size.
    for (design, width) in [(Design::P34392, 24), (Design::System1, 32)] {
        let soc = design.build_with_cubes(42);
        let runs: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|workers| plan_at(&soc, width, workers, None))
            .collect();
        assert!(
            runs[0].1.streams_verified > 0,
            "{design:?} verifies streams"
        );
        for run in &runs[1..] {
            assert_eq!(run, &runs[0], "{design:?} at W={width}");
        }
    }

    // A warm cache after a one-core edit: filled cold, then each worker
    // count re-plans against its own copy of that cache.
    let mut soc = Design::P34392.build_with_cubes(42);
    let filled = scratch_dir("filled");
    plan_at(&soc, 24, 2, Some(&filled));
    let edited = soc.cores().len() / 2;
    let core = &soc.cores()[edited];
    let cubes = CubeSynthesis::new(core.nominal_care_density()).synthesize(core, 7);
    soc.cores_mut()[edited].attach_test_set(cubes).unwrap();
    let runs: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|workers| {
            let dir = scratch_dir(&format!("edited-w{workers}"));
            copy_tree(&filled, &dir);
            let run = plan_at(&soc, 24, workers, Some(&dir));
            let _ = std::fs::remove_dir_all(&dir);
            run
        })
        .collect();
    let _ = std::fs::remove_dir_all(&filled);
    let stats = &runs[0].1;
    assert_eq!(
        (
            stats.profile_hits,
            stats.profile_misses,
            stats.widths_computed
        ),
        (18, 1, 24),
        "only the edited core rebuilds"
    );
    for run in &runs[1..] {
        assert_eq!(run, &runs[0], "edited re-plan");
    }

    // A cold cached plan into shards already past their caps (unjournaled
    // junk, the oldest entries): each of the 19 writes evicts, the first
    // into a shard five. The writes stay in core order, so the evictions
    // do too.
    let runs: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|workers| {
            let dir = scratch_dir(&format!("full-w{workers}"));
            for shard in 0..16 {
                let shard = dir.join(format!("shard-{shard:x}"));
                std::fs::create_dir_all(&shard).unwrap();
                for i in 0..260 {
                    std::fs::write(shard.join(format!("junk-{i:03}")), "junk").unwrap();
                }
            }
            let run = plan_at(&soc, 24, workers, Some(&dir));
            let _ = std::fs::remove_dir_all(&dir);
            run
        })
        .collect();
    assert!(runs[0].1.profile_evictions > 19, "{:?}", runs[0].1);
    for run in &runs[1..] {
        assert_eq!(run, &runs[0], "cold plan into full shards");
    }

    // Per-TAM plans under an ATE budget: many internal widths clamp to one
    // chain count, so pool tasks ask one core's memo for one key at once.
    // The memo computes it once and counts the others as hits, so even its
    // counters match the serial plan's, run after run.
    let soc = Design::D695.build_with_cubes(1);
    let per_tam = |workers| {
        let mut request = PlanRequest::ate_channels(16).with_decisions(DecisionConfig {
            pattern_sample: Some(8),
            m_candidates: 8,
        });
        request.architecture.workers = Some(workers);
        let (plan, stats) = Planner::per_tam_tdc()
            .plan_with_stats(&soc, &request, &PlanControl::default())
            .unwrap();
        (write_plan(&plan), stats)
    };
    let serial = per_tam(1);
    assert!(serial.1.memo.hits > 0, "{:?}", serial.1.memo);
    for workers in [2, 4] {
        for run in 0..10 {
            assert_eq!(
                per_tam(workers),
                serial,
                "per-TAM, {workers} workers, run {run}"
            );
        }
    }
}

#[test]
fn different_seeds_change_cubes_but_not_validity() {
    for seed in [1u64, 2, 3] {
        let soc = Design::D695.build_with_cubes(seed);
        let plan = Planner::per_core_tdc().plan(&soc, &fast(16)).unwrap();
        assert!(plan.test_time > 0);
    }
}

#[test]
fn benchmark_designs_roundtrip_through_the_text_format() {
    for design in Design::ALL {
        let soc = design.build();
        let text = write_soc(&soc);
        let reparsed = parse_soc(&text).unwrap();
        assert_eq!(reparsed, soc, "{design}");
    }
}

#[test]
fn all_planner_modes_produce_valid_plans() {
    let soc = small_industrial();
    let planners = [
        Planner::no_tdc(),
        Planner::per_core_tdc(),
        Planner::per_tam_tdc(),
        Planner::fixed_width_tdc(4),
        Planner::reseeding_tdc(),
    ];
    for p in planners {
        let plan = p.plan(&soc, &fast(16)).unwrap_or_else(|e| {
            panic!("{:?} failed: {e}", p.mode());
        });
        assert_eq!(plan.core_settings.len(), soc.core_count(), "{:?}", p.mode());
        assert!(plan.test_time > 0);
        assert!(plan.volume_bits > 0);
    }
}

#[test]
fn gantt_rendering_covers_all_tams() {
    let soc = small_industrial();
    let plan = Planner::per_core_tdc().plan(&soc, &fast(12)).unwrap();
    let mut cost = soc_tdc::tam::CostModel::new(12);
    for s in &plan.core_settings {
        let mut row = vec![None; 12];
        for w in s.tam_width..=12 {
            row[(w - 1) as usize] = Some(s.test_time);
        }
        cost.push_core(&s.name, row);
    }
    let chart = render_gantt(&plan.schedule, &cost, 40);
    assert_eq!(
        chart.lines().count(),
        plan.tam_count() + 1,
        "one row per TAM plus the axis"
    );
}

#[test]
fn ckt_7_shows_the_papers_non_monotonicity() {
    // The pivotal observation (Fig. 2): at a fixed TAM width, test time is
    // not monotone in the chain count — scaled down for debug builds.
    let mut soc = Soc::new("nm", vec![benchmarks::ckt(3)]);
    synthesize_missing_test_sets(&mut soc, 2008);
    let core = &soc.cores()[0];
    let times: Vec<u64> = (64..=127)
        .filter_map(|m| soc_tdc::selenc::evaluate_point(core, m, Some(6)))
        .map(|c| c.test_time)
        .collect();
    assert!(times.len() > 30);
    let increases = times.windows(2).filter(|w| w[1] > w[0]).count();
    let decreases = times.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(
        increases > 0 && decreases > 0,
        "expected non-monotonic behaviour, got {increases} ups / {decreases} downs"
    );
}
