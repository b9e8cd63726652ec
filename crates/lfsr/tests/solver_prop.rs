//! Property tests for the GF(2) solver (against brute force on small
//! systems) and for the reseeding pipeline (solved seeds re-simulate
//! correctly — enforced internally — and solvability is monotone in the
//! LFSR length).

#![forbid(unsafe_code)]

use proptest::prelude::*;

use lfsr::{compress_reseeding, Gf2Solver, Gf2Vec, Lfsr, PhaseShifter};
use soc_model::{Core, CubeSynthesis, SplitMix64, TestSet};

/// Brute force: does any assignment satisfy all constraints?
fn brute_force_solvable(cols: usize, rows: &[(u32, bool)]) -> bool {
    (0u32..(1 << cols)).any(|x| {
        rows.iter()
            .all(|&(mask, rhs)| ((x & mask).count_ones() % 2 == 1) == rhs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solver_agrees_with_brute_force(
        cols in 1usize..10,
        rows in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..12),
    ) {
        let rows: Vec<(u32, bool)> = rows
            .into_iter()
            .map(|(m, r)| (m & ((1 << cols) - 1), r))
            .collect();
        let mut solver = Gf2Solver::new(cols);
        let mut consistent = true;
        for &(mask, rhs) in &rows {
            let mut row = Gf2Vec::zero(cols);
            for j in 0..cols {
                if mask >> j & 1 == 1 {
                    row.set(j, true);
                }
            }
            if solver.add_constraint(row, rhs).is_err() {
                consistent = false;
                break;
            }
        }
        prop_assert_eq!(consistent, brute_force_solvable(cols, &rows));
        if consistent {
            // The returned solution satisfies every constraint.
            let x = solver.solution();
            for &(mask, rhs) in &rows {
                let got = (0..cols).filter(|&j| mask >> j & 1 == 1 && x[j]).count() % 2 == 1;
                prop_assert_eq!(got, rhs);
            }
        }
    }

    #[test]
    fn rank_never_exceeds_dimensions(
        cols in 1usize..24,
        rows in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..40),
    ) {
        let mut solver = Gf2Solver::new(cols);
        let mut added = 0usize;
        for (mask, rhs) in rows {
            let mut row = Gf2Vec::zero(cols);
            for j in 0..cols {
                if mask >> (j % 32) & 1 == 1 && (j / 32) == 0 {
                    row.set(j, true);
                }
            }
            if solver.add_constraint(row, rhs).is_err() {
                break;
            }
            added += 1;
        }
        prop_assert!(solver.rank() <= cols.min(added));
    }

    #[test]
    fn symbolic_simulation_matches_concrete(
        len in 4usize..40,
        chains in 1usize..8,
        seed_bits in any::<u64>(),
        cycles in 1u64..60,
    ) {
        let lfsr = Lfsr::with_default_taps(len);
        let ps = PhaseShifter::random(chains, len, 42);
        let seed: Vec<bool> = (0..len).map(|i| seed_bits >> (i % 64) & 1 == 1).collect();
        let mut concrete = seed.clone();
        let mut symbolic = lfsr::symbolic_reset(len);
        for _ in 0..cycles {
            for k in 0..chains {
                let sym = ps.output_symbolic(k, &symbolic);
                let predicted = (0..len).filter(|&i| sym.get(i) && seed[i]).count() % 2 == 1;
                prop_assert_eq!(predicted, ps.output(k, &concrete));
            }
            lfsr.step(&mut concrete);
            lfsr.step_symbolic(&mut symbolic);
        }
    }
}

#[test]
fn reseeding_volume_scales_with_density_not_length() {
    // Two cores with the same care-bit *count* but different lengths get
    // similar seed sizes — the defining property of reseeding.
    let mk = |cells: u32, density: f64| {
        let mut core = Core::builder("r")
            .inputs(8)
            .flexible_cells(cells, 64)
            .pattern_count(5)
            .care_density(density)
            .build()
            .unwrap();
        let ts = CubeSynthesis::new(density).synthesize(&core, 17);
        core.attach_test_set(ts).unwrap();
        core
    };
    let short_dense = mk(400, 0.20); // ~80 care bits per pattern
    let long_sparse = mk(1600, 0.05); // ~80 care bits per pattern
    let a = compress_reseeding(&short_dense, 16, 8, None).unwrap();
    let b = compress_reseeding(&long_sparse, 16, 8, None).unwrap();
    let ratio = a.lfsr_len as f64 / b.lfsr_len as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "seed sizes should be similar: {} vs {}",
        a.lfsr_len,
        b.lfsr_len
    );
    // But volumes relative to raw data differ enormously.
    let ra = a.volume_bits as f64 / short_dense.initial_volume_bits() as f64;
    let rb = b.volume_bits as f64 / long_sparse.initial_volume_bits() as f64;
    assert!(
        rb < ra / 2.0,
        "sparse core compresses much better: {ra} vs {rb}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The determinism contract, witnessed from outside: reseeding
    /// aggregates per-pattern quantities (seed counts, solve results,
    /// scan-in sums), so shuffling the pattern order must not change any
    /// field of the result — including the chosen LFSR length, which the
    /// growth loop settles from the *set* of patterns, not their order.
    #[test]
    fn reseeding_is_invariant_under_pattern_permutation(
        cells in 60u32..240,
        patterns in 2u32..8,
        m in 1u32..6,
        ate in 1u32..5,
        perm_seed in any::<u64>(),
    ) {
        let build = || {
            Core::builder("perm")
                .inputs(8)
                .flexible_cells(cells, 48)
                .pattern_count(patterns)
                .care_density(0.15)
                .build()
                .unwrap()
        };
        let mut base = build();
        let ts = CubeSynthesis::new(0.15).synthesize(&base, 23);

        // Fisher–Yates shuffle of the cubes, driven by the proptest seed.
        let mut shuffled = ts.patterns().to_vec();
        let mut rng = SplitMix64::new(perm_seed);
        for i in (1..shuffled.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }
        let permuted_ts = TestSet::from_patterns(ts.bits_per_pattern(), shuffled).unwrap();

        let mut permuted = build();
        base.attach_test_set(ts).unwrap();
        permuted.attach_test_set(permuted_ts).unwrap();

        // Exact evaluation: `pattern_sample` picks patterns by position,
        // which is the one knob legitimately sensitive to input order.
        prop_assert_eq!(
            compress_reseeding(&base, m, ate, None),
            compress_reseeding(&permuted, m, ate, None)
        );
    }
}
