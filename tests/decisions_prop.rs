//! Property tests over the planner's decision tables: for arbitrary small
//! cores, the per-width operating points must honor the structural
//! invariants the scheduler depends on.

#![forbid(unsafe_code)]

use proptest::prelude::*;

use soc_tdc::model::{Core, CubeSynthesis};
use soc_tdc::planner::{CompressionMode, DecisionConfig, DecisionTable, Technique};

fn prepared_core() -> impl Strategy<Value = Core> {
    (
        50u32..800,   // cells
        2u32..64,     // max chains
        1u32..12,     // patterns
        0.02f64..0.7, // density
        any::<u64>(), // seed
    )
        .prop_map(|(cells, max_chains, patterns, density, seed)| {
            let mut core = Core::builder("prop")
                .inputs(6)
                .outputs(6)
                .flexible_cells(cells, max_chains)
                .pattern_count(patterns)
                .care_density(density)
                .build()
                .expect("valid core");
            let ts = CubeSynthesis::new(density).synthesize(&core, seed);
            core.attach_test_set(ts).expect("shape matches");
            core
        })
}

fn cfg() -> DecisionConfig {
    DecisionConfig {
        pattern_sample: Some(4),
        m_candidates: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw tables are monotone non-increasing in width, and every decision
    /// is populated.
    #[test]
    fn raw_tables_are_monotone(core in prepared_core()) {
        let t = DecisionTable::build(&core, CompressionMode::None, 10, &cfg());
        let mut prev = u64::MAX;
        for w in 1..=10 {
            let d = t.decision(w).expect("raw always feasible");
            prop_assert!(d.test_time <= prev);
            prop_assert!(d.decompressor.is_none());
            prop_assert_eq!(d.technique, Technique::Raw);
            prop_assert!(d.volume_bits > 0);
            prev = d.test_time;
        }
    }

    /// Per-core TDC (with bypass) never loses to raw at any width, and the
    /// claimed decompressor geometry is consistent.
    #[test]
    fn per_core_dominates_raw(core in prepared_core()) {
        let raw = DecisionTable::build(&core, CompressionMode::None, 10, &cfg());
        let tdc = DecisionTable::build(&core, CompressionMode::PerCore, 10, &cfg());
        for w in 1..=10 {
            let r = raw.decision(w).unwrap();
            let t = tdc.decision(w).unwrap();
            prop_assert!(t.test_time <= r.test_time, "w={}", w);
            if let Some((dw, m)) = t.decompressor {
                prop_assert!(dw <= w, "decompressor input exceeds the TAM");
                prop_assert!(m >= 1);
                prop_assert_eq!(t.technique, Technique::SelectiveEncoding);
            } else {
                prop_assert_eq!(t.technique, Technique::Raw);
            }
        }
    }

    /// Select dominates each constituent technique pointwise.
    #[test]
    fn select_is_the_pointwise_minimum(core in prepared_core()) {
        let sel = DecisionTable::build(&core, CompressionMode::Select, 8, &cfg());
        let pc = DecisionTable::build(&core, CompressionMode::PerCore, 8, &cfg());
        let fd = DecisionTable::build(&core, CompressionMode::Fdr, 8, &cfg());
        for w in 1..=8 {
            let s = sel.decision(w).unwrap().test_time;
            prop_assert!(s <= pc.decision(w).unwrap().test_time, "w={}", w);
            prop_assert!(s <= fd.decision(w).unwrap().test_time, "w={}", w);
            prop_assert_eq!(
                s,
                pc.decision(w).unwrap().test_time.min(fd.decision(w).unwrap().test_time)
            );
        }
    }

    /// Ties go to the earlier technique: Select's decision is the first
    /// minimum of the raw, per-core and FDR decisions in that order, and
    /// per-core bypasses to raw access wherever it is no faster.
    #[test]
    fn select_breaks_ties_in_technique_order(core in prepared_core()) {
        let build = |mode| DecisionTable::build(&core, mode, 8, &cfg());
        let sel = build(CompressionMode::Select);
        let raw = build(CompressionMode::None);
        let pc = build(CompressionMode::PerCore);
        let fd = build(CompressionMode::Fdr);
        for w in 1..=8 {
            let (r, p) = (raw.decision(w).unwrap(), pc.decision(w).unwrap());
            let first = [r, p, fd.decision(w).unwrap()]
                .into_iter()
                .min_by_key(|d| d.test_time);
            prop_assert_eq!(sel.decision(w), first, "w={}", w);
            if p.test_time == r.test_time {
                prop_assert_eq!(p, r, "w={}", w);
            }
        }
    }

    /// Per-TAM decisions exist at every width and use the full TAM as the
    /// decompressor input (above the minimum code width).
    #[test]
    fn per_tam_uses_the_full_tam(core in prepared_core()) {
        let t = DecisionTable::build(&core, CompressionMode::PerTam, 8, &cfg());
        for w in 3..=8u32 {
            let d = t.decision(w).unwrap();
            let (dw, _) = d.decompressor.expect("per-TAM always compresses at w >= 3");
            prop_assert_eq!(dw, w);
        }
    }

    /// Fixed-width tables are constant above their pin and empty below it.
    #[test]
    fn fixed_width_is_flat(core in prepared_core()) {
        let t = DecisionTable::build(&core, CompressionMode::FixedWidth(4), 8, &cfg());
        for w in 1..=3u32 {
            prop_assert!(t.decision(w).is_none(), "w={}", w);
        }
        if let Some(base) = t.decision(4) {
            for w in 5..=8u32 {
                prop_assert_eq!(t.decision(w), Some(base));
            }
        }
    }
}
