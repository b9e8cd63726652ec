//! Fleet ≡ sequential bit-identity, scale, and fault isolation.
//!
//! The fleet's contract is that batching changes *throughput*, never
//! *plans*: a fleet run over any manifest, at any worker budget (hence
//! any outer × inner split), produces exactly the plans that standalone
//! single-design runs produce, in manifest order — and a corrupt entry in
//! the shared sharded profile cache costs one core's rebuild in one
//! shard, never the batch.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use fleet::{run_fleet, FleetOptions, InstanceOutcome, Manifest};
use soc_model::format::{parse_soc, write_soc};
use soc_model::generator::synthesize_missing_test_sets;
use soc_model::{Core, Soc};
use tdcsoc::{profile_cache_entries, quarantined_profiles, Plan};
use tdcsoc::{PlanControl, PlanRequest};

/// Per-core spec: (chain lengths, inputs, outputs, pattern count).
type CoreSpec = (Vec<u32>, u32, u32, u32);

/// Builds a tiny SOC from specs (no test sets — the fleet and the oracle
/// both synthesize them from the instance seed).
fn build_soc(name: &str, specs: &[CoreSpec]) -> Soc {
    let cores = specs
        .iter()
        .enumerate()
        .map(|(i, (chains, inputs, outputs, patterns))| {
            Core::builder(format!("c{i}"))
                .inputs(*inputs)
                .outputs(*outputs)
                .fixed_chains(chains.clone())
                .pattern_count(*patterns)
                .build()
                .expect("valid core")
        })
        .collect();
    Soc::new(name, cores)
}

/// Writes the SOC in simple format into `dir`, returning the file path.
fn write_soc_file(dir: &Path, name: &str, specs: &[CoreSpec]) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create soc dir");
    let path = dir.join(format!("{name}.soc"));
    std::fs::write(&path, write_soc(&build_soc(name, specs))).expect("write soc file");
    path
}

/// The sequential oracle: plans one manifest instance exactly as a
/// standalone `plan` run would (single-threaded tables, no fleet).
fn sequential_plan(inst: &fleet::Instance, profile_cache: Option<&Path>) -> Plan {
    let mut soc = match &inst.source {
        fleet::SocSource::SimpleFile(path) => {
            parse_soc(&std::fs::read_to_string(path).expect("read soc file"))
                .expect("parse soc file")
        }
        other => panic!("oracle only handles simple files, got {other:?}"),
    };
    synthesize_missing_test_sets(&mut soc, inst.seed);
    let planner = tdcsoc::planner_for(&inst.mode).expect("oracle mode");
    let mut request = PlanRequest::tam_width(inst.width).with_decisions(inst.decisions.clone());
    request.architecture.workers = Some(1);
    let mut control = PlanControl::default();
    if let Some(dir) = profile_cache {
        let tag = format!("{}-seed{}-d{:.3}", soc.name(), inst.seed, inst.density);
        control = control.cache_profiles_in(dir, tag);
    }
    planner
        .plan_with(&soc, &request, &control)
        .expect("oracle plan")
}

/// Strips the wall-clock field that legitimately differs run to run.
fn canon(mut plan: Plan) -> Plan {
    plan.cpu_time = std::time::Duration::ZERO;
    plan
}

/// A unique scratch dir (removed first, so reruns start clean).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-prop-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random manifests × random worker budgets, with and without a
    /// profile cache: every fleet plan equals the sequential oracle's, in
    /// manifest order. With the cache the batch gains a `select` line
    /// that shares the per-core lines' profiles, and its leaders build
    /// each profile once, at its key's widest width, at any split.
    #[test]
    fn fleet_plans_match_sequential_at_any_split(
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(1u32..20, 1..4),
                0u32..8,
                0u32..8,
                1u32..6,
            ),
            1..4,
        ),
        widths in proptest::collection::vec(4u32..12, 1..3),
        seeds in proptest::collection::vec(1u64..50, 1..3),
        budget in 1usize..9,
        profile_cache in any::<bool>(),
        select_width in 4u32..12,
        case in 0u32..1_000_000,
    ) {
        let dir = scratch(&format!("split-{case}"));
        let path = write_soc_file(&dir, "tiny", &specs);
        let widths_opt = widths
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let seeds_opt = seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut text = format!(
            "soc {} widths={widths_opt} seeds={seeds_opt} sample=3 mcand=3\n",
            path.display()
        );
        if profile_cache {
            text.push_str(&format!(
                "soc {} widths={select_width} seeds={seeds_opt} mode=select sample=3 mcand=3\n",
                path.display()
            ));
        }
        let manifest = Manifest::parse(&text).expect("manifest parses");
        let lines = if profile_cache { widths.len() + 1 } else { widths.len() };
        prop_assert_eq!(manifest.len(), lines * seeds.len());

        let opts = FleetOptions {
            workers: budget,
            profile_cache: profile_cache.then(|| dir.join("profile-cache")),
            ..FleetOptions::default()
        };
        let report = run_fleet(&manifest, &opts);
        prop_assert_eq!(report.summary.planned, manifest.len());
        if profile_cache {
            // One profile key per distinct seed; its widest width spans
            // both lines.
            let keys = seeds.iter().collect::<std::collections::BTreeSet<_>>().len();
            let widest = widths.iter().copied().chain([select_width]).max().unwrap_or(0);
            let misses = specs.len() * keys;
            let stats = &report.summary.stats;
            prop_assert_eq!(stats.profile_partial_hits, 0);
            prop_assert_eq!(stats.profile_misses, misses);
            prop_assert_eq!(
                stats.widths_computed,
                misses as u64 * u64::from(widest)
            );
        }
        prop_assert!(
            report.summary.outer_workers * report.summary.inner_workers <= budget,
            "split {}x{} exceeds budget {budget}",
            report.summary.outer_workers,
            report.summary.inner_workers
        );
        for (inst, got) in manifest.instances.iter().zip(&report.instances) {
            prop_assert_eq!(&got.id, &inst.id, "manifest order preserved");
            let fleet_plan = canon(got.plan.clone().expect("planned"));
            let oracle = canon(sequential_plan(inst, None));
            prop_assert_eq!(fleet_plan, oracle, "{}", inst.id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance-scale run: a ≥200-instance manifest at a 4-worker
/// budget is bit-identical to sequential single-design runs, and a
/// 1-worker fleet run of the same manifest produces the same plans.
#[test]
fn two_hundred_instance_fleet_matches_sequential_at_four_workers() {
    let dir = scratch("scale");
    let a = write_soc_file(&dir, "a", &[(vec![6, 9], 3, 2, 4), (vec![11], 2, 3, 3)]);
    let b = write_soc_file(&dir, "b", &[(vec![4, 4, 7], 2, 2, 5)]);
    let manifest = Manifest::parse(&format!(
        "soc {} widths=4..13 seeds=1..10 sample=2 mcand=2\n\
         soc {} widths=5..14 seeds=1..10 sample=2 mcand=2\n",
        a.display(),
        b.display()
    ))
    .expect("manifest parses");
    assert_eq!(manifest.len(), 200);

    let at = |workers: usize| {
        run_fleet(
            &manifest,
            &FleetOptions {
                workers,
                ..FleetOptions::default()
            },
        )
    };
    let four = at(4);
    assert_eq!(four.summary.planned, 200);
    assert_eq!(four.summary.instances, 200);
    assert_eq!(
        (four.summary.outer_workers, four.summary.inner_workers),
        (4, 1)
    );

    let one = at(1);
    assert_eq!(one.summary.planned, 200);
    for (i, inst) in manifest.instances.iter().enumerate() {
        let p4 = canon(four.instances[i].plan.clone().expect("planned at 4"));
        let p1 = canon(one.instances[i].plan.clone().expect("planned at 1"));
        let oracle = canon(sequential_plan(inst, None));
        assert_eq!(p4, oracle.clone(), "{} at 4 workers", inst.id);
        assert_eq!(p1, oracle, "{} at 1 worker", inst.id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One corrupt entry in the shared sharded profile cache: only that
/// shard quarantines, only that core rebuilds, every plan is unchanged,
/// and the rest of the fleet completes from cache.
#[test]
fn corrupt_shard_entry_is_quarantined_without_sinking_the_fleet() {
    let dir = scratch("corrupt");
    let path = write_soc_file(&dir, "cc", &[(vec![5, 8], 2, 2, 4), (vec![9], 3, 1, 3)]);
    let cache = dir.join("profile-cache");
    let manifest = Manifest::parse(&format!(
        "soc {} widths=8 seeds=1,2 sample=3 mcand=3\n",
        path.display()
    ))
    .expect("manifest parses");
    let opts = FleetOptions {
        workers: 2,
        profile_cache: Some(cache.clone()),
        ..FleetOptions::default()
    };

    let first = run_fleet(&manifest, &opts);
    assert_eq!(first.summary.planned, 2);
    assert_eq!(
        first.summary.stats.profile_misses, 4,
        "cold: 2 cores x 2 seeds"
    );
    let entries = profile_cache_entries(&cache);
    assert_eq!(entries.len(), 4);

    // Flip a digit in one entry's data rows; the body checksum catches it.
    let victim = &entries[0];
    let text = std::fs::read_to_string(victim).expect("read victim");
    let flipped: String = text
        .lines()
        .map(|l| {
            if l.starts_with('#') || l.starts_with("w,") || l.is_empty() {
                l.to_string()
            } else {
                let mut s = l.to_string();
                let last = s.pop().expect("non-empty row");
                s.push(if last == '9' { '8' } else { '9' });
                s
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(victim, flipped).expect("corrupt victim");

    let second = run_fleet(&manifest, &opts);
    assert_eq!(second.summary.planned, 2, "the fleet completes");
    assert_eq!(
        second.summary.stats.profile_misses, 1,
        "only the corrupt core rebuilds"
    );
    assert_eq!(second.summary.stats.profile_hits, 3, "the rest hit cache");
    let quarantined = quarantined_profiles(&cache);
    assert_eq!(quarantined.len(), 1, "exactly one entry quarantined");
    assert_eq!(
        quarantined[0].parent().and_then(Path::parent),
        victim.parent(),
        "quarantine lives in the victim's own shard"
    );
    for (before, after) in first.instances.iter().zip(&second.instances) {
        assert!(matches!(after.outcome, InstanceOutcome::Planned(_)));
        assert_eq!(
            canon(before.plan.clone().expect("first run planned")),
            canon(after.plan.clone().expect("second run planned")),
            "{}",
            after.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
