//! End-to-end coverage of the beyond-the-paper extensions working
//! together: semantic prefix discovery resolved under both query plans,
//! and the composite-flat ablation system answering the same workload.

use baselines::{CompositeConfig, CompositeFlat};
use dht_core::{FaultPlan, RouteCache};
use lorm::semantic::{SemanticCodec, SemanticDirectory};
use lorm::QueryPlan;
use lorm_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn semantic_prefix_queries_under_both_plans() {
    let space = AttributeSpace::from_names(["os", "arch"], 1.0, 1e6).unwrap();
    let os = space.by_name("os").unwrap();
    let arch = space.by_name("arch").unwrap();
    let codec = SemanticCodec::new(&space);
    let mut table = SemanticDirectory::new();
    let mut grid = Lorm::new(384, &space, LormConfig { dimension: 6, ..Default::default() });

    let fleet = [
        (1usize, "linux-6.1", "x86-64"),
        (2, "linux-6.8", "arm64"),
        (3, "linux-5.15", "x86-64"),
        (4, "windows-11", "x86-64"),
        (5, "freebsd-14", "arm64"),
    ];
    for (owner, osd, ad) in fleet {
        grid.register(ResourceInfo { attr: os, value: codec.encode(osd), owner }).unwrap();
        grid.register(ResourceInfo { attr: arch, value: codec.encode(ad), owner }).unwrap();
        table.record(os, owner, osd);
        table.record(arch, owner, ad);
    }

    let q = codec.prefix_query(&[(os, "linux"), (arch, "x86")]);
    for plan in [QueryPlan::Parallel, QueryPlan::Sequential] {
        let out = grid.query_planned(9, &q, plan).unwrap();
        let mut got: Vec<usize> = out
            .owners
            .iter()
            .copied()
            .filter(|&o| {
                table.description(os, o).is_some_and(|d| d.starts_with("linux"))
                    && table.description(arch, o).is_some_and(|d| d.starts_with("x86"))
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 3], "{plan:?}");
    }
}

#[test]
fn composite_flat_answers_match_lorm_on_shared_workload() {
    let cfg = SimConfig { nodes: 384, dimension: 6, attrs: 12, values: 40, ..SimConfig::default() };
    let mut rng = SmallRng::seed_from_u64(0xE57);
    let workload = Workload::generate(cfg.workload_config(), &mut rng).unwrap();
    let lorm = build_system(System::Lorm, &workload, &cfg);
    let mut flat = CompositeFlat::new(cfg.nodes, &workload.space, CompositeConfig::default());
    flat.place_all(&workload.reports);
    // The flat system's probes must agree with its plain path too: cached
    // equals plain, an inert fault plan equals plain, and the cached
    // faulty path equals the faulty path under a lossy plan.
    let mut cache = RouteCache::new();
    let inert = FaultPlan::none();
    let lossy = FaultPlan::new(0xE59, 0.2, 0.05).unwrap();
    for i in 0..80u64 {
        let q = workload.random_query(2, QueryMix::Range, &mut rng);
        let origin = rng.gen_range(0..cfg.nodes);
        let mut a = lorm.query_from(origin, &q).unwrap().owners;
        let plain = flat.query_from(origin, &q).unwrap();
        assert_eq!(flat.query_from_cached(origin, &q, &mut cache).unwrap(), plain, "cached {i}");
        assert_eq!(flat.query_from_faulty(origin, &q, &inert, i).unwrap().outcome, plain);
        assert_eq!(
            flat.query_from_faulty_cached(origin, &q, &lossy, i, &mut cache).unwrap(),
            flat.query_from_faulty(origin, &q, &lossy, i).unwrap(),
            "faulty cached {i}"
        );
        let mut b = plain.owners;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "hierarchy and flat composite must agree on answers");
    }
}

#[test]
fn latency_model_replay_is_consistent_with_hop_counts() {
    // Constant-delay replay: latency must be exactly hops × delay for a
    // point lookup (no walk, one response hop).
    let cfg = SimConfig { nodes: 384, dimension: 6, attrs: 8, values: 20, ..SimConfig::default() };
    let mut rng = SmallRng::seed_from_u64(0xE58);
    let workload = Workload::generate(cfg.workload_config(), &mut rng).unwrap();
    let sys = build_system(System::Sword, &workload, &cfg);
    let model = dht_core::LatencyModel::Constant { ms: 7.0 };
    let mut lat_rng = SmallRng::seed_from_u64(1);
    for _ in 0..40 {
        let q = workload.random_query(1, QueryMix::NonRange, &mut rng);
        let out = sys.query_from(rng.gen_range(0..cfg.nodes), &q).unwrap();
        let replayed = model.sample_path(out.tally.hops + 1, &mut lat_rng);
        assert_eq!(replayed, 7.0 * (out.tally.hops + 1) as f64);
    }
}
