//! Property equivalence for the profile-build fast path.
//!
//! The bit-sliced cost kernel must agree with the per-symbol reference on
//! every (core, cube, chain count, policy) combination, and the memoized
//! profile builder must reproduce the plain one exactly — these are the
//! invariants that let the planner run the fast path unconditionally.

#![forbid(unsafe_code)]

use proptest::prelude::*;

use selenc::{
    cube_cost_policy, cube_cost_scalar, profile_entry_for_width, CoreProfile, EvalCache,
    ProfileConfig, SliceCode,
};
use soc_model::{Core, CubeSynthesis};
use wrapper::design_wrapper;

fn prepared(inputs: u32, cells: u32, max_chains: u32, patterns: u32, density: f64) -> Core {
    with_cubes(
        Core::builder("prop")
            .inputs(inputs)
            .outputs(4)
            .flexible_cells(cells, max_chains)
            .pattern_count(patterns)
            .care_density(density)
            .build()
            .unwrap(),
        density,
    )
}

fn with_cubes(mut core: Core, density: f64) -> Core {
    let ts = CubeSynthesis::new(density).synthesize(&core, 0xFA57);
    core.attach_test_set(ts).unwrap();
    core
}

/// The wrapper shapes the cost kernel must handle.
#[derive(Debug, Clone)]
enum Shape {
    /// A soft core: balanced chains that pad at most one bit.
    Flexible {
        inputs: u32,
        cells: u32,
        max_chains: u32,
    },
    /// A hard core with uneven fixed chains: long pads, and several
    /// segments per wrapper chain once chains share one.
    Fixed { inputs: u32, chains: Vec<u32> },
    /// A combinational core: wrapper input cells only, in one-bit
    /// segments once there are two or more wrapper chains.
    Combinational { inputs: u32 },
    /// A hard core whose longest chain, on a wrapper chain of its own,
    /// puts the scan depth at a word-column edge.
    Edge { depth: u32, others: Vec<u32> },
}

impl Shape {
    fn core(&self, density: f64) -> Core {
        let builder = Core::builder("prop").outputs(4).pattern_count(3);
        let builder = match self {
            Shape::Flexible {
                inputs,
                cells,
                max_chains,
            } => builder.inputs(*inputs).flexible_cells(*cells, *max_chains),
            Shape::Fixed { inputs, chains } => builder.inputs(*inputs).fixed_chains(chains.clone()),
            Shape::Combinational { inputs } => builder.inputs(*inputs),
            Shape::Edge { depth, others } => {
                let mut chains = vec![*depth];
                chains.extend(others);
                builder.fixed_chains(chains)
            }
        };
        with_cubes(builder.care_density(density).build().unwrap(), density)
    }

    /// The chain count to design for: at least one wrapper chain per
    /// fixed chain for an edge shape, so the depth is exact.
    fn chains(&self, m: u32) -> u32 {
        match self {
            Shape::Edge { others, .. } => m.max(others.len() as u32 + 1),
            _ => m,
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u32..24, 40u32..900, 1u32..200).prop_map(|(inputs, cells, max_chains)| {
            Shape::Flexible {
                inputs,
                cells,
                max_chains,
            }
        }),
        (0u32..24, proptest::collection::vec(1u32..300, 1..12))
            .prop_map(|(inputs, chains)| Shape::Fixed { inputs, chains }),
        (1u32..400).prop_map(|inputs| Shape::Combinational { inputs }),
        (
            prop_oneof![Just(63u32), Just(64), Just(65), Just(129)],
            proptest::collection::vec(1u32..63, 0..80),
        )
            .prop_map(|(depth, others)| Shape::Edge { depth, others }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bit-sliced kernel and the scalar oracle count identical
    /// codewords for every cube, over soft, hard and combinational cores,
    /// at chain counts spanning sub-word, word-boundary and multi-word
    /// slices, depths on either side of a word-column edge, densities up
    /// to fully specified, with and without group-copy mode.
    #[test]
    fn packed_cube_cost_matches_scalar_oracle(
        shape in arb_shape(),
        density in 0.02f64..1.25,
        m in 1u32..260,
        group_copy in any::<bool>(),
    ) {
        // A fifth of the cases are fully specified cubes.
        let density = density.min(1.0);
        let core = shape.core(density);
        let design = design_wrapper(&core, shape.chains(m));
        if let Shape::Edge { depth, .. } = shape {
            prop_assert_eq!(design.scan_in_length(), u64::from(depth));
        }
        let code = SliceCode::for_chains(design.chain_count());
        let ts = core.test_set().unwrap();
        for p in 0..ts.pattern_count() {
            let cube = ts.pattern(p).unwrap();
            prop_assert_eq!(
                cube_cost_policy(code, &design, cube, group_copy),
                cube_cost_scalar(code, &design, cube, group_copy),
                "{:?} m={} chains={} depth={} pattern={} group_copy={}",
                shape, m, design.chain_count(), design.scan_in_length(), p, group_copy
            );
        }
    }

    /// Building a profile width by width through the shared evaluation
    /// cache — including rebuilding off a warm cache — yields the plain
    /// builder's profile bit for bit.
    #[test]
    fn cached_profile_build_matches_plain(
        cells in 60u32..600,
        max_chains in 2u32..96,
        density in 0.05f64..0.4,
        max_width in 3u32..10,
        candidates in 2usize..7,
    ) {
        let core = prepared(10, cells, max_chains, 4, density);
        let cfg = ProfileConfig::new(max_width).m_candidates(candidates);
        let plain = CoreProfile::build(&core, &cfg);
        let cache = EvalCache::new(&core);
        let off_cache = || {
            let entries = (SliceCode::MIN_TAM_WIDTH..=max_width)
                .filter_map(|w| profile_entry_for_width(&cache, w, &cfg, &|| false).unwrap())
                .collect();
            CoreProfile::from_entries(core.name(), entries)
        };
        let cold = off_cache();
        let warm = off_cache();
        prop_assert_eq!(&plain, &cold);
        prop_assert_eq!(&plain, &warm);
    }
}
