//! Benchmark designs used in the paper's evaluation.
//!
//! * [`d695`] — the ITC'02 SOC test benchmark built from ISCAS'85/'89 cores,
//!   with the published wrapper parameters (terminal counts, scan-chain
//!   lengths, pattern counts). Care-bit density ≈ 66% as reported in the
//!   paper.
//! * [`d2758`] — a d2758-like SOC: the original (Iyengar & Chandra, IEE
//!   Proc. 2005) is not publicly distributed, so an SOC of the same size
//!   class is synthesized from ISCAS-like cores at the published ≈ 44%
//!   care-bit density.
//! * [`ckt`] — industrial-like cores `ckt-1` … `ckt-16`. The paper's
//!   industrial cores are proprietary; these match the published envelope:
//!   10k–110k scan cells, soft (re-stitchable) chains, 1–5% care-bit
//!   density, hundreds of patterns.
//! * [`system1`] … [`system4`] — SOCs composed of industrial-like cores,
//!   standing in for the paper's System1–System4.
//!
//! All designs are deterministic; attach cubes with
//! [`Design::build_with_cubes`] or
//! [`crate::generator::synthesize_missing_test_sets`].

use crate::core::Core;
use crate::generator::synthesize_missing_test_sets;
use crate::soc::Soc;

/// Care-bit density of the ISCAS'89-based d695 test sets (paper §4: "the
/// density of care bits is on average 66%").
pub const D695_CARE_DENSITY: f64 = 0.66;

/// Care-bit density of the d2758-like test sets (paper §4: "the designs
/// have a care-bit density of 44% on average").
pub const D2758_CARE_DENSITY: f64 = 0.44;

/// The benchmark designs of the paper's evaluation — plus the three
/// classic large ITC'02 SOCs (as `*-like` approximations, see
/// [`p93791`]) — as an enumerable set.
///
/// # Examples
///
/// ```
/// use soc_model::benchmarks::Design;
///
/// let soc = Design::D695.build();
/// assert_eq!(soc.core_count(), 10);
/// let prepared = Design::D695.build_with_cubes(42);
/// assert!(prepared.cores().iter().all(|c| c.test_set().is_some()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Design {
    /// ITC'02 benchmark d695 (10 ISCAS cores).
    D695,
    /// d2758-like SOC (24 ISCAS-like cores).
    D2758,
    /// Industrial-like SOC with 6 cores.
    System1,
    /// Industrial-like SOC with 8 cores.
    System2,
    /// Industrial-like SOC with 10 cores.
    System3,
    /// Industrial-like SOC with 12 cores.
    System4,
    /// p22810-like large ITC'02 SOC (28 cores).
    P22810,
    /// p34392-like large ITC'02 SOC (19 cores).
    P34392,
    /// p93791-like large ITC'02 SOC (32 cores, the classic TAM stress
    /// test).
    P93791,
}

impl Design {
    /// All designs: the paper's Table 3 set first, then the large ITC'02
    /// SOCs.
    pub const ALL: [Design; 9] = [
        Design::D695,
        Design::D2758,
        Design::System1,
        Design::System2,
        Design::System3,
        Design::System4,
        Design::P22810,
        Design::P34392,
        Design::P93791,
    ];

    /// The design's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Design::D695 => "d695",
            Design::D2758 => "d2758",
            Design::System1 => "System1",
            Design::System2 => "System2",
            Design::System3 => "System3",
            Design::System4 => "System4",
            Design::P22810 => "p22810",
            Design::P34392 => "p34392",
            Design::P93791 => "p93791",
        }
    }

    /// Builds the design without test cubes.
    pub fn build(self) -> Soc {
        match self {
            Design::D695 => d695(),
            Design::D2758 => d2758(),
            Design::System1 => system1(),
            Design::System2 => system2(),
            Design::System3 => system3(),
            Design::System4 => system4(),
            Design::P22810 => p22810(),
            Design::P34392 => p34392(),
            Design::P93791 => p93791(),
        }
    }

    /// Builds the design and attaches deterministic synthetic cubes.
    pub fn build_with_cubes(self, seed: u64) -> Soc {
        let mut soc = self.build();
        synthesize_missing_test_sets(&mut soc, seed);
        soc
    }

    /// Returns `true` for the SOCs crafted from industrial-like cores only
    /// (the paper reports a separate average over these).
    pub fn is_industrial(self) -> bool {
        matches!(
            self,
            Design::System1 | Design::System2 | Design::System3 | Design::System4
        )
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Splits `total` scan cells into `k` chains whose lengths differ by at
/// most one (longest first).
///
/// # Panics
///
/// Panics if `k == 0` or `total < k`.
///
/// ```
/// use soc_model::benchmarks::balanced_chains;
/// assert_eq!(balanced_chains(10, 3), vec![4, 3, 3]);
/// ```
pub fn balanced_chains(total: u32, k: u32) -> Vec<u32> {
    assert!(k > 0, "chain count must be positive");
    assert!(
        total >= k,
        "cannot split {total} cells into {k} non-empty chains"
    );
    let base = total / k;
    let extra = total % k;
    (0..k)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

fn iscas_core(
    name: &str,
    inputs: u32,
    outputs: u32,
    chains: &[u32],
    patterns: u32,
    density: f64,
) -> Core {
    let mut b = Core::builder(name)
        .inputs(inputs)
        .outputs(outputs)
        .pattern_count(patterns)
        .care_density(density);
    if !chains.is_empty() {
        b = b.fixed_chains(chains.to_vec());
    }
    b.build().expect("benchmark core parameters are valid")
}

/// The ITC'02 benchmark SOC d695: ten ISCAS'85/'89 cores with the published
/// terminal counts, scan-chain structure, and pattern counts.
pub fn d695() -> Soc {
    let d = D695_CARE_DENSITY;
    Soc::new(
        "d695",
        vec![
            iscas_core("c6288", 32, 32, &[], 12, d),
            iscas_core("c7552", 207, 108, &[], 73, d),
            iscas_core("s838", 34, 1, &[32], 75, d),
            iscas_core("s9234", 36, 39, &balanced_chains(211, 4), 105, d),
            iscas_core("s38584", 38, 304, &balanced_chains(1426, 32), 110, d),
            iscas_core("s13207", 62, 152, &balanced_chains(638, 16), 234, d),
            iscas_core("s15850", 77, 150, &balanced_chains(534, 16), 95, d),
            iscas_core("s5378", 35, 49, &balanced_chains(179, 4), 97, d),
            iscas_core("s35932", 35, 320, &balanced_chains(1728, 32), 12, d),
            iscas_core("s38417", 28, 106, &balanced_chains(1636, 32), 68, d),
        ],
    )
}

/// A d2758-like SOC: 24 ISCAS-like hard cores spanning the same size range
/// as d695's cores (the original d2758 of Iyengar & Chandra is not publicly
/// distributed), with the published ≈ 44% care-bit density.
pub fn d2758() -> Soc {
    let d = D2758_CARE_DENSITY;
    let mut cores = Vec::new();
    // Three scaled echoes of a d695-like core mix plus combinational cores,
    // sized so total test data lands in the d2758 class (a few Mbit).
    let templates: [(&str, u32, u32, u32, u32, u32); 8] = [
        // (name stem, inputs, outputs, scan cells, chains, patterns)
        ("m-a", 34, 16, 256, 4, 96),
        ("m-b", 48, 40, 512, 8, 120),
        ("m-c", 36, 39, 211, 4, 105),
        ("m-d", 62, 152, 638, 16, 234),
        ("m-e", 77, 150, 534, 16, 95),
        ("m-f", 38, 304, 1426, 32, 110),
        ("m-g", 28, 106, 1636, 32, 68),
        ("m-h", 35, 320, 1728, 32, 12),
    ];
    for rep in 0..3u32 {
        for (stem, inp, out, cells, chains, patterns) in templates {
            let scale = rep + 1;
            let name = format!("{stem}{}", rep + 1);
            let chains = balanced_chains(cells * scale, chains);
            cores.push(iscas_core(&name, inp, out, &chains, patterns + 13 * rep, d));
        }
    }
    Soc::new("d2758", cores)
}

/// Parameters of the industrial-like cores `ckt-1` … `ckt-16`:
/// `(scan cells, max chains, inputs, outputs, patterns, care density)`.
///
/// Matches the published envelope of the paper's proprietary cores: 10k to
/// 110k scan cells, care-bit density no more than 5%.
const CKT_TABLE: [(u32, u32, u32, u32, u32, f64); 16] = [
    (12_104, 512, 109, 32, 210, 0.030),    // ckt-1
    (16_408, 512, 66, 79, 180, 0.025),     // ckt-2
    (10_240, 400, 44, 51, 150, 0.050),     // ckt-3
    (35_200, 600, 120, 88, 260, 0.020),    // ckt-4
    (28_650, 512, 96, 104, 200, 0.015),    // ckt-5
    (45_056, 640, 140, 150, 300, 0.012),   // ckt-6
    (24_576, 512, 130, 120, 240, 0.020),   // ckt-7 (used for Figs. 2 and 3)
    (54_800, 768, 180, 166, 320, 0.010),   // ckt-8
    (18_200, 448, 72, 60, 170, 0.035),     // ckt-9
    (66_000, 768, 200, 210, 360, 0.010),   // ckt-10
    (30_720, 512, 110, 96, 230, 0.018),    // ckt-11
    (80_200, 896, 240, 220, 400, 0.008),   // ckt-12
    (14_336, 400, 58, 63, 160, 0.040),     // ckt-13
    (92_160, 1024, 260, 255, 420, 0.008),  // ckt-14
    (22_100, 512, 84, 90, 190, 0.022),     // ckt-15
    (110_000, 1024, 300, 280, 440, 0.006), // ckt-16
];

/// Number of industrial-like cores available via [`ckt`].
pub const CKT_COUNT: u32 = CKT_TABLE.len() as u32;

/// Builds industrial-like core `ckt-<index>` (1-based, like the paper).
///
/// # Panics
///
/// Panics if `index` is 0 or greater than [`CKT_COUNT`].
///
/// ```
/// use soc_model::benchmarks::ckt;
/// let c = ckt(7);
/// assert_eq!(c.name(), "ckt-7");
/// assert!(c.scan_cells() >= 10_000);
/// ```
pub fn ckt(index: u32) -> Core {
    assert!(
        (1..=CKT_COUNT).contains(&index),
        "ckt index {index} outside 1..={CKT_COUNT}"
    );
    let (cells, max_chains, inputs, outputs, patterns, density) = CKT_TABLE[(index - 1) as usize];
    Core::builder(format!("ckt-{index}"))
        .inputs(inputs)
        .outputs(outputs)
        .flexible_cells(cells, max_chains)
        .pattern_count(patterns)
        .care_density(density)
        .build()
        .expect("industrial core parameters are valid")
}

/// Builds a `p*-like` ITC'02-class SOC: `cores` hard cores whose scan
/// structure is drawn deterministically from `seed` inside the published
/// aggregate envelope (total flip-flops ≈ `total_ffs`, chain counts up to
/// 46, a few unscanned cores). The real p-SOC module tables are
/// distributed with the ITC'02 benchmark set; these stand-ins match the
/// class (core count, size spread) but not the exact numbers — use them
/// for scheduling/architecture experiments, not for citing absolute test
/// times.
fn p_like(name: &str, seed: u64, cores: u32, total_ffs: u64, max_patterns: u32) -> Soc {
    let mut rng = crate::rng::SplitMix64::new(seed);
    // Pareto-ish size mix: a few giants dominate, many small cores.
    let mut weights: Vec<f64> = (0..cores)
        .map(|_| {
            let u = rng.next_f64().max(1e-6);
            u.powi(3)
        })
        .collect();
    let total_w: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total_w;
    }
    let mut list = Vec::with_capacity(cores as usize);
    for (i, w) in weights.iter().enumerate() {
        let ffs = ((total_ffs as f64 * w) as u32).min(30_000);
        let inputs = 8 + rng.next_below(120) as u32;
        let outputs = 8 + rng.next_below(120) as u32;
        let patterns = (12 + rng.next_below(u64::from(max_patterns - 12)) as u32).min(max_patterns);
        let mut b = Core::builder(format!("{name}.c{:02}", i + 1))
            .inputs(inputs)
            .outputs(outputs)
            .pattern_count(patterns)
            .care_density(0.4 + 0.3 * rng.next_f64());
        if ffs >= 8 {
            let chains = (1 + rng.next_below(45) as u32).min(ffs);
            b = b.fixed_chains(balanced_chains(ffs, chains));
        }
        list.push(b.build().expect("generated core parameters are valid"));
    }
    Soc::new(name, list)
}

/// p22810-like SOC: 28 cores, ≈ 25k scan flip-flops.
pub fn p22810() -> Soc {
    p_like("p22810", 22_810, 28, 25_000, 400)
}

/// p34392-like SOC: 19 cores, ≈ 20k scan flip-flops.
pub fn p34392() -> Soc {
    p_like("p34392", 34_392, 19, 20_000, 500)
}

/// p93791-like SOC: 32 cores, ≈ 98k scan flip-flops — the classic
/// TAM-optimization stress test.
pub fn p93791() -> Soc {
    p_like("p93791", 93_791, 32, 98_000, 600)
}

fn system(name: &str, indices: &[u32]) -> Soc {
    Soc::new(name, indices.iter().map(|&i| ckt(i)).collect())
}

/// Industrial-like SOC System1 (6 smaller cores).
pub fn system1() -> Soc {
    system("System1", &[1, 2, 3, 9, 13, 15])
}

/// Industrial-like SOC System2 (8 cores).
pub fn system2() -> Soc {
    system("System2", &[1, 2, 3, 4, 5, 6, 7, 8])
}

/// Industrial-like SOC System3 (10 mixed cores).
pub fn system3() -> Soc {
    system("System3", &[2, 4, 5, 6, 8, 10, 11, 12, 14, 15])
}

/// Industrial-like SOC System4 (12 cores, the largest).
pub fn system4() -> Soc {
    system("System4", &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_chain_invariants() {
        for (total, k) in [(10u32, 3u32), (211, 4), (1426, 32), (5, 5), (7, 1)] {
            let chains = balanced_chains(total, k);
            assert_eq!(chains.len(), k as usize);
            assert_eq!(chains.iter().sum::<u32>(), total);
            let max = *chains.iter().max().unwrap();
            let min = *chains.iter().min().unwrap();
            assert!(max - min <= 1);
            assert!(chains.windows(2).all(|w| w[0] >= w[1]), "sorted desc");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty chains")]
    fn balanced_chains_rejects_too_many() {
        balanced_chains(3, 4);
    }

    #[test]
    fn d695_matches_published_structure() {
        let soc = d695();
        assert_eq!(soc.core_count(), 10);
        let (_, s38584) = soc.core_by_name("s38584").unwrap();
        assert_eq!(s38584.scan_cells(), 1426);
        let (_, s9234) = soc.core_by_name("s9234").unwrap();
        assert_eq!(s9234.scan_cells(), 211);
        assert_eq!(s9234.pattern_count(), 105);
        let (_, c6288) = soc.core_by_name("c6288").unwrap();
        assert!(c6288.scan().is_combinational());
        // Published totals: chain counts below 33, patterns 12..=234.
        for c in soc.cores() {
            assert!(c.pattern_count() >= 12 && c.pattern_count() <= 234);
        }
    }

    #[test]
    fn d2758_is_larger_than_d695() {
        let a = d695();
        let b = d2758();
        assert!(b.core_count() > a.core_count());
        assert!(b.initial_volume_bits() > a.initial_volume_bits());
    }

    #[test]
    fn ckt_cores_match_published_envelope() {
        for i in 1..=CKT_COUNT {
            let c = ckt(i);
            assert!(
                (10_000..=110_000).contains(&(c.scan_cells() as u32)),
                "{}: {} cells",
                c.name(),
                c.scan_cells()
            );
            assert!(c.nominal_care_density() <= 0.05, "{}", c.name());
            assert!(c.nominal_care_density() > 0.0, "{}", c.name());
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn ckt_out_of_range_panics() {
        ckt(0);
    }

    #[test]
    fn systems_grow_in_size() {
        let sizes: Vec<usize> = [system1(), system2(), system3(), system4()]
            .iter()
            .map(Soc::core_count)
            .collect();
        assert_eq!(sizes, vec![6, 8, 10, 12]);
    }

    #[test]
    fn p_like_socs_match_their_class() {
        let p = p93791();
        assert_eq!(p.core_count(), 32);
        let ffs = p.total_scan_cells();
        assert!((60_000..130_000).contains(&ffs), "{ffs} FFs");
        // Deterministic.
        assert_eq!(p93791(), p93791());
        assert_eq!(p22810().core_count(), 28);
        assert_eq!(p34392().core_count(), 19);
        // Hard cores only; chain counts within the ITC'02 envelope.
        for c in p.cores() {
            if let crate::core::ScanArchitecture::Fixed { chain_lengths } = c.scan() {
                assert!(chain_lengths.len() <= 46, "{}", c.name());
            }
        }
    }

    #[test]
    fn design_enum_builds_everything() {
        for d in Design::ALL {
            let soc = d.build();
            assert!(!soc.is_empty(), "{d}");
            assert_eq!(soc.name(), d.name());
        }
        assert!(Design::System1.is_industrial());
        assert!(!Design::D695.is_industrial());
    }

    #[test]
    fn build_with_cubes_is_deterministic() {
        let a = Design::D695.build_with_cubes(11);
        let b = Design::D695.build_with_cubes(11);
        assert_eq!(a, b);
        let measured = a.cores()[3].test_set().unwrap().care_density();
        assert!(
            (measured - D695_CARE_DENSITY).abs() < 0.12,
            "density {measured}"
        );
    }
}
