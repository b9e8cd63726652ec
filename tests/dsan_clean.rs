//! Clean-run proof for the determinism sanitizer (DESIGN.md §18): a real
//! fleet workload — manifest parse, two-level work-stealing dispatch,
//! per-core table builds, TAM portfolio/anneal search — runs race-free
//! under dsan at workers 1, 2, and 4, without a profile cache and with
//! one (which plans in two phases, leaders then followers), and the six
//! reports are byte-identical. Detection is structural (same-run jobs
//! are unordered by construction), so a clean report here certifies the
//! absence of unordered conflicting accesses, not a lucky interleaving.

#![forbid(unsafe_code)]

use fleet::{FleetOptions, Manifest};

#[test]
fn fleet_scenario_is_race_free_at_workers_1_2_4() {
    parpool::dsan::set_enabled(true);
    // Drain anything a prior in-process run recorded.
    let _ = parpool::dsan::take_report();

    let manifest = Manifest::parse(
        "design d695 widths=8,12 sample=2 mcand=2\n\
         design system1 widths=12 sample=2 mcand=2\n",
    )
    .expect("manifest parses");

    let root = std::env::temp_dir().join(format!("dsan-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut rendered = Vec::new();
    for cached in [false, true] {
        for workers in [1usize, 2, 4] {
            let report = fleet::run_fleet(
                &manifest,
                &FleetOptions {
                    workers,
                    profile_cache: cached.then(|| root.join(format!("cache-w{workers}"))),
                    ..FleetOptions::default()
                },
            );
            let run = format!("workers={workers} cached={cached}");
            assert_eq!(report.summary.failed, 0, "{run}");
            assert_eq!(report.summary.planned, manifest.len(), "{run}");
            assert_eq!(
                report.summary.phases.len(),
                if cached { 2 } else { 1 },
                "{run}"
            );
            let dsan = parpool::dsan::take_report();
            assert!(dsan.is_clean(), "{run} must be race-free:\n{dsan}");
            rendered.push(dsan.to_string());
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(rendered[0], "dsan: clean\n");
    assert!(
        rendered.windows(2).all(|w| w[0] == w[1]),
        "reports must be byte-identical across worker counts: {rendered:?}"
    );
}
