//! Property-based tests of plan-time stream verification on chain-major
//! columns and of the incremental (fingerprint-keyed) profile rebuild
//! path: for arbitrary cores, cube sets, decompressor widths, and encoder
//! policies, the column encoder and decoder must be bit-identical to their
//! scalar oracles — including which error a corrupted or reshaped stream
//! reports — and a warm incremental plan after a single-core edit must
//! equal a cold rebuild.

#![forbid(unsafe_code)]

use proptest::prelude::*;

use soc_tdc::model::generator::synthesize_missing_test_sets;
use soc_tdc::model::{Core, Soc, TestSet, Trit, TritVec};
use soc_tdc::planner::{DecisionConfig, PlanControl, PlanRequest, Planner};
use soc_tdc::selenc::{
    encode_columns, encode_cube, verify_cube_stream, verify_cubes_stream, verify_stream,
    verify_stream_columns, verify_test_set_stream, Codeword, Encoder, SliceCode, StreamReport,
};
use soc_tdc::wrapper::{design_wrapper, ChainPlanes};

/// Strategy: a ternary cube of the given length with ~`density` care bits.
fn cube(len: usize, density: f64) -> impl Strategy<Value = TritVec> {
    let x_weight = ((1.0 - density) * 50.0) as u32 + 1;
    let care_weight = (density * 25.0) as u32 + 1;
    proptest::collection::vec(
        prop_oneof![
            x_weight => Just(Trit::X),
            care_weight => Just(Trit::Zero),
            care_weight => Just(Trit::One),
        ],
        len,
    )
    .prop_map(|v| v.into_iter().collect())
}

/// A core plus a cube set of `count` cubes. The core is a small hard core
/// with arbitrary chain structure (at most 5 scan chains, so its wrappers
/// have one-word slices) or a flexible-cell core whose wrapper takes up to
/// ~200 chains, so slices span several words and group literals straddle
/// word boundaries.
fn core_and_n_cubes(count: std::ops::Range<usize>) -> impl Strategy<Value = (Core, Vec<TritVec>)> {
    (
        proptest::collection::vec(1u32..40, 1..6), // scan chains of a hard core
        prop_oneof![Just(None), (200u32..400).prop_map(Some)], // or flexible cells
        0u32..12,                                  // inputs
        0u32..12,                                  // outputs
        0.02f64..0.9,                              // care density
    )
        .prop_flat_map(move |(chains, flexible, inputs, outputs, density)| {
            let builder = Core::builder("prop")
                .inputs(inputs)
                .outputs(outputs)
                .pattern_count(1);
            let core = match flexible {
                Some(cells) => builder.flexible_cells(cells, 256),
                None => builder.fixed_chains(chains),
            }
            .build()
            .expect("valid core");
            let len = core.scan_load_bits() as usize;
            proptest::collection::vec(cube(len, density), count.clone())
                .prop_map(move |cs| (core.clone(), cs))
        })
}

/// Decompressor chain counts: narrow ones, wide ones up to ~200, and both
/// sides of the one- and two-word slice boundaries. A hard core clamps a
/// count above its chain capacity, as the planner's evaluation does.
fn chain_count() -> impl Strategy<Value = u32> {
    prop_oneof![
        2 => 1u32..24,
        1 => 24u32..210,
        1 => prop_oneof![Just(63u32), Just(64), Just(65), Just(127), Just(128), Just(129)],
    ]
}

/// A core whose scan depth at the drawn chain count `m` is exactly 63, 64,
/// 65, 127, 128 or 129 — both sides of the one- and two-column edges — plus
/// a cube set. Each of its at most `m` scan chains gets a wrapper chain of
/// its own, and the first is the deepest.
fn edge_depth_core(
    count: std::ops::Range<usize>,
) -> impl Strategy<Value = (Core, Vec<TritVec>, u32)> {
    (
        prop_oneof![
            Just(63u32),
            Just(64),
            Just(65),
            Just(127),
            Just(128),
            Just(129)
        ],
        prop_oneof![3 => 1u32..9, 1 => 62u32..67], // m
        0u32..12,                                  // outputs
        0.02f64..0.9,                              // care density
    )
        .prop_flat_map(move |(depth, m, outputs, density)| {
            let count = count.clone();
            proptest::collection::vec(1..=depth, 0..m as usize).prop_flat_map(move |rest| {
                let mut chains = vec![depth];
                chains.extend(rest);
                let core = Core::builder("edge")
                    .outputs(outputs)
                    .fixed_chains(chains)
                    .pattern_count(1)
                    .build()
                    .expect("valid core");
                assert_eq!(design_wrapper(&core, m).scan_in_length(), u64::from(depth));
                let len = core.scan_load_bits() as usize;
                proptest::collection::vec(cube(len, density), count.clone())
                    .prop_map(move |cs| (core.clone(), cs, m))
            })
        })
}

/// A core, a cube set of `count` cubes, and a decompressor chain count:
/// [`core_and_n_cubes`] at a drawn [`chain_count`], or an
/// [`edge_depth_core`].
fn shaped(count: std::ops::Range<usize>) -> impl Strategy<Value = (Core, Vec<TritVec>, u32)> {
    prop_oneof![
        3 => (core_and_n_cubes(count.clone()), chain_count())
            .prop_map(|((core, cubes), m)| (core, cubes, m)),
        1 => edge_depth_core(count),
    ]
}

/// Per-core spec for the incremental-rebuild property: chain lengths and
/// a synthesized pattern count.
type CoreSpec = (Vec<u32>, u32, u32, u32);

fn build_soc(specs: &[CoreSpec], seed: u64) -> Soc {
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
    let mut soc = Soc::new("prop", cores);
    synthesize_missing_test_sets(&mut soc, seed);
    soc
}

fn small_decisions() -> DecisionConfig {
    DecisionConfig {
        pattern_sample: Some(4),
        m_candidates: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The column encoder is bit-identical to the scalar encoder for both
    /// encoder policies (group copy on and off).
    #[test]
    fn packed_emitter_matches_scalar_encoder(
        (core, cubes, m) in shaped(1..4),
    ) {
        let design = design_wrapper(&core, m);
        let code = SliceCode::for_chains(design.chain_count());
        let mut planes = ChainPlanes::new();
        for cube in &cubes {
            design.fill_chain_planes(cube, &mut planes);
            for group_copy in [true, false] {
                let enc = if group_copy {
                    Encoder::new(code)
                } else {
                    Encoder::single_bit_only(code)
                };
                let scalar = encode_cube(&enc, &design, cube);
                let mut columns = Vec::new();
                encode_columns(code, group_copy, &planes, &mut columns);
                prop_assert_eq!(columns, scalar, "group_copy={}", group_copy);
            }
        }
    }

    /// On valid streams the column verifier accepts exactly when the
    /// scalar oracle does, and reports the true codeword count.
    #[test]
    fn packed_verifier_accepts_valid_streams(
        (core, cubes, m) in shaped(1..4),
    ) {
        let design = design_wrapper(&core, m);
        let code = SliceCode::for_chains(design.chain_count());
        let enc = Encoder::new(code);
        for cube in &cubes {
            let words = encode_cube(&enc, &design, cube);
            let expected: Vec<TritVec> = design.slices(cube).collect();
            prop_assert_eq!(verify_stream(code, words.iter().copied(), &expected), Ok(()));
            let n = verify_cube_stream(&design, cube).expect("column path verifies");
            prop_assert_eq!(n, words.len() as u64);
        }
    }

    /// Verifying a test set as consecutive runs of patterns — one pattern
    /// per run, a single run of all, or arbitrary cut points — sums to the
    /// same totals as verifying it whole, so the planner's fan-out of
    /// verification into pattern runs neither drops nor double-counts work.
    #[test]
    fn chunked_verification_sums_to_the_whole_test_set(
        (core, cubes, m) in shaped(1..12),
        cuts in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let design = design_wrapper(&core, m);
        let test_set = TestSet::from_patterns(core.scan_load_bits() as usize, cubes.clone())
            .expect("cubes span the core's scan load");
        let whole = verify_test_set_stream(&design, &test_set).expect("valid streams verify");
        prop_assert_eq!(whole.patterns, cubes.len() as u64);

        let mut arbitrary: Vec<&[TritVec]> = Vec::new();
        let mut start = 0;
        for end in 1..=cubes.len() {
            if end == cubes.len() || cuts[end - 1] {
                arbitrary.push(&cubes[start..end]);
                start = end;
            }
        }
        let singles: Vec<&[TritVec]> = cubes.chunks(1).collect();
        for runs in [arbitrary, singles, vec![&cubes[..]]] {
            let mut sum = StreamReport::default();
            for run in runs {
                let report = verify_cubes_stream(&design, run).expect("valid streams verify");
                sum.patterns += report.patterns;
                sum.codewords += report.codewords;
            }
            prop_assert_eq!(sum, whole);
        }
    }

    /// Corrupting one codeword anywhere in the stream produces the *same*
    /// verdict from both verifiers — same acceptance, or the same
    /// `StreamError` variant with the same payload (error priority is part
    /// of the contract).
    #[test]
    fn packed_verifier_matches_scalar_on_corrupted_streams(
        (core, cubes, m) in shaped(1..4),
        pick in 0usize..1024,
        kind in 0u8..3,
        mask in 1u32..u32::MAX,
    ) {
        let design = design_wrapper(&core, m);
        let code = SliceCode::for_chains(design.chain_count());
        let enc = Encoder::new(code);
        for cube in &cubes {
            let mut words = encode_cube(&enc, &design, cube);
            prop_assert!(!words.is_empty());
            let i = pick % words.len();
            match kind {
                0 => words[i].mode = !words[i].mode,
                1 => words[i].last = !words[i].last,
                _ => {
                    let keep = (1u32 << code.data_bits()) - 1;
                    let flip = mask & keep;
                    words[i].data ^= if flip == 0 { 1 } else { flip };
                }
            }
            let expected: Vec<TritVec> = design.slices(cube).collect();
            let scalar = verify_stream(code, words.iter().copied(), &expected);
            let mut planes = ChainPlanes::new();
            design.fill_chain_planes(cube, &mut planes);
            let columns = verify_stream_columns(code, words.iter().copied(), &planes);
            prop_assert_eq!(scalar, columns);
        }
    }

    /// Reshaping a valid stream — cutting it at any word, dropping one
    /// word, appending one empty slice, or appending 65 empty slices, which
    /// decode past the planes' last column — gets the scalar oracle's exact
    /// verdict from the column verifier.
    #[test]
    fn column_verifier_matches_scalar_on_reshaped_streams(
        (core, cubes, m) in shaped(1..4),
        pick in 0usize..1024,
        kind in 0u8..4,
        fill: bool,
    ) {
        let design = design_wrapper(&core, m);
        let code = SliceCode::for_chains(design.chain_count());
        let enc = Encoder::new(code);
        let empty = Codeword {
            mode: fill,
            last: true,
            data: code.chains(),
        };
        for cube in &cubes {
            let mut words = encode_cube(&enc, &design, cube);
            let i = pick % (words.len() + 1);
            match kind {
                0 => words.truncate(i),
                1 => {
                    words.remove(i.min(words.len() - 1));
                }
                2 => words.push(empty),
                _ => words.extend(std::iter::repeat_n(empty, 65)),
            }
            let expected: Vec<TritVec> = design.slices(cube).collect();
            let scalar = verify_stream(code, words.iter().copied(), &expected);
            let mut planes = ChainPlanes::new();
            design.fill_chain_planes(cube, &mut planes);
            let columns = verify_stream_columns(code, words.iter().copied(), &planes);
            prop_assert_eq!(scalar, columns, "kind {}", kind);
        }
    }
}

proptest! {
    // Each case runs three full plans; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After a random single-core edit (content change) and a random width
    /// change, a warm incremental plan over the surviving cache entries is
    /// identical to a cold rebuild, and only the edited core misses.
    #[test]
    fn incremental_rebuild_matches_cold_rebuild(
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(2u32..24, 1..4), // chains
                0u32..6,                                   // inputs
                0u32..6,                                   // outputs
                2u32..5,                                   // patterns
            ),
            2..4,
        ),
        w1 in 6u32..11,
        w2 in 6u32..11,
        edit in 0usize..16,
        seed in 1u64..1_000,
    ) {
        let planner = Planner::per_core_tdc();
        let cache = std::env::temp_dir().join("soctdc-emulate-prop-cache");
        let _ = std::fs::remove_dir_all(&cache);
        let warm_control = PlanControl::default().cache_profiles_in(&cache, "p");

        // Populate the cache at width w1.
        let soc = build_soc(&specs, seed);
        let req1 = PlanRequest::tam_width(w1).with_decisions(small_decisions());
        let (_, stats) = planner
            .plan_with_stats(&soc, &req1, &warm_control)
            .expect("baseline plan");
        prop_assert_eq!(stats.profile_misses, specs.len());

        // Edit one core's content (its synthesized test set changes with
        // the pattern count) and replan at w2 against the warm cache.
        let mut edited = specs.clone();
        edited[edit % specs.len()].3 += 3;
        let soc2 = build_soc(&edited, seed);
        let req2 = PlanRequest::tam_width(w2).with_decisions(small_decisions());
        let (warm_plan, warm_stats) = planner
            .plan_with_stats(&soc2, &req2, &warm_control)
            .expect("incremental plan");

        // Cold rebuild of the edited SOC in a fresh cache.
        let cold_dir = std::env::temp_dir().join("soctdc-emulate-prop-cache-cold");
        let _ = std::fs::remove_dir_all(&cold_dir);
        let cold_control = PlanControl::default().cache_profiles_in(&cold_dir, "p");
        let (cold_plan, _) = planner
            .plan_with_stats(&soc2, &req2, &cold_control)
            .expect("cold plan");

        // `cpu_time` is wall-clock bookkeeping, not plan content.
        let mut warm_plan = warm_plan;
        let mut cold_plan = cold_plan;
        warm_plan.cpu_time = std::time::Duration::ZERO;
        cold_plan.cpu_time = std::time::Duration::ZERO;
        prop_assert_eq!(warm_plan, cold_plan);
        prop_assert_eq!(warm_stats.profile_misses, 1, "only the edited core misses");
        let untouched = specs.len() - 1;
        if w2 <= w1 {
            prop_assert_eq!(warm_stats.profile_hits, untouched);
            prop_assert_eq!(warm_stats.profile_partial_hits, 0);
        } else {
            prop_assert_eq!(warm_stats.profile_hits + warm_stats.profile_partial_hits, untouched);
        }

        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_dir_all(&cold_dir);
    }
}
