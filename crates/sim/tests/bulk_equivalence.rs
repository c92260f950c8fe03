//! Bulk-construction equivalence: a bed assembled through the O(n log n)
//! sorted bulk constructors must be *observationally identical* to one
//! assembled through the per-node ordered-insert reference path — pinned
//! end-to-end by comparing the bytes of a full figure report produced
//! from each. This is the dynamic contract backing the `BuildMode`
//! documentation (and the reason the bed cache keys on the config alone).

use dht_core::BuildMode;
use grid_resource::QueryPlan;
use proptest::prelude::*;
use sim::experiments::fig5::fig5;
use sim::setup::{SimConfig, TestBed};

/// Render the same fig5 report from a bulk-built and an incrementally
/// built bed and return both JSON strings.
fn fig5_both_modes(cfg: SimConfig) -> (String, String) {
    let render = |mode: BuildMode| {
        let bed = TestBed::new_with_mode(cfg, mode);
        fig5(&bed, [1, 3], 12, QueryPlan::Parallel, 0).report().to_json()
    };
    (render(BuildMode::Bulk), render(BuildMode::Incremental))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed, small bed: bulk and incremental construction produce
    /// byte-identical reports.
    fn bulk_bed_equals_incremental_bed_any_seed(seed in 0u64..1_000_000) {
        let cfg = SimConfig {
            nodes: 256,
            dimension: 6,
            attrs: 8,
            values: 20,
            seed,
            ..SimConfig::default()
        };
        let (bulk, incremental) = fig5_both_modes(cfg);
        prop_assert_eq!(bulk, incremental);
    }
}

#[test]
fn bulk_bed_equals_incremental_bed_1k() {
    let cfg = SimConfig { nodes: 1024, dimension: 8, attrs: 6, values: 25, ..SimConfig::default() };
    let (bulk, incremental) = fig5_both_modes(cfg);
    assert_eq!(bulk, incremental);
}

#[test]
fn bulk_bed_equals_incremental_bed_4k() {
    // d = 9 gives 4608 Cycloid slots; 6 attributes keep Mercury at six
    // 4096-node hubs, which the incremental reference path can still
    // assemble in test time.
    let cfg = SimConfig { nodes: 4096, dimension: 9, attrs: 6, values: 25, ..SimConfig::default() };
    let (bulk, incremental) = fig5_both_modes(cfg);
    assert_eq!(bulk, incremental);
}

/// Soak: a 100k-node bed builds through the bulk path and answers
/// queries. Ignored by default (minutes of work in debug builds); run
/// explicitly with `cargo test -p sim --test bulk_equivalence -- --ignored`.
#[test]
#[ignore = "100k-node soak; run explicitly"]
fn soak_100k_bed_builds_and_answers() {
    let cfg = SimConfig {
        nodes: 100_000,
        dimension: 13, // 13·2^13 = 106496 slots ≥ 100k
        attrs: 2,
        values: 50,
        ..SimConfig::default()
    };
    let bed = TestBed::new(cfg);
    let json = fig5(&bed, [1, 2], 8, QueryPlan::Parallel, 0).report().to_json();
    assert!(json.contains("\"tables\""), "report must render");
    for sys in &bed.systems {
        assert!(sys.total_pieces() > 0, "{} placed no reports", sys.name());
        assert_eq!(sys.num_physical(), 100_000);
    }
}
