//! Property tests on the selectivity-driven query planner:
//!
//! * every plan (parallel, sequential, adaptive) returns the same owner
//!   set on every system — the plans trade traffic, never answers;
//! * adaptive ordering never ships more result pieces than the *worst*
//!   sub-query ordering would, even on skewed (Bounded Pareto) values;
//! * the plan choice composes with the sharded executor: report JSON is
//!   byte-identical at shards 1 vs 3 for every plan;
//! * the equi-width histograms behind the adaptive plan track exact
//!   match counts within the interpolation tolerance band.

use lorm_repro::grid_resource::{QueryPlan, SelectivityEstimator};
use lorm_repro::prelude::*;
use lorm_repro::sim::experiments::{run_batch, Exec, Metric};
use lorm_repro::sim::Report;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig {
        nodes: 160,
        dimension: 5,
        attrs: 8,
        values: 20,
        seed,
        value_dist: ValueDist::Uniform,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn all_plans_agree_on_owner_sets_on_every_system(seed in 0u64..1_000, arity in 1usize..=4) {
        let bed = TestBed::new(tiny_cfg(0x9000 + seed));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x51);
        for _ in 0..10 {
            let q = bed.workload.random_query(arity, QueryMix::Range, &mut rng);
            let origin = rng.gen_range(0..bed.cfg.nodes);
            for sys in &bed.systems {
                let mut expect: Option<Vec<usize>> = None;
                for plan in QueryPlan::ALL {
                    let out = sys.query_planned(origin, &q, plan).unwrap();
                    let mut owners = out.owners.clone();
                    owners.sort_unstable();
                    owners.dedup();
                    match &expect {
                        None => expect = Some(owners),
                        Some(e) => prop_assert_eq!(
                            &owners, e,
                            "{} under the {} plan changed the answer", sys.name(), plan.name()
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn adaptive_never_ships_more_than_worst_sequential_ordering() {
    // Skewed values (the paper's stated Bounded Pareto generator) make
    // sub-query selectivities genuinely unequal, so ordering matters.
    let cfg = SimConfig {
        nodes: 160,
        dimension: 5,
        attrs: 10,
        values: 30,
        seed: 0x9A77,
        value_dist: ValueDist::BoundedPareto { alpha: 1.2 },
    };
    let bed = TestBed::new(cfg);
    let mut rng = SmallRng::seed_from_u64(0x517);
    const PERMS: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    for _ in 0..12 {
        let q = bed.workload.random_query(3, QueryMix::Range, &mut rng);
        let origin = rng.gen_range(0..cfg.nodes);
        for sys in &bed.systems {
            // worst document-order sequential over every sub-query
            // permutation (the adaptive order is one of the six, so the
            // bound is also a sanity check that adaptive == sequential
            // on the reordered query)
            let worst = PERMS
                .iter()
                .map(|p| {
                    let permuted = Query::new(p.iter().map(|&i| q.subs[i]).collect()).unwrap();
                    let out = sys.query_planned(origin, &permuted, QueryPlan::Sequential).unwrap();
                    out.tally.matches
                })
                .max()
                .unwrap();
            let ada = sys.query_planned(origin, &q, QueryPlan::Adaptive).unwrap().tally.matches;
            assert!(
                ada <= worst,
                "{}: adaptive shipped {ada} pieces, worst sequential ordering {worst}",
                sys.name()
            );
        }
    }
}

#[test]
fn plan_choice_keeps_report_json_identical_across_shards() {
    let bed = TestBed::new(tiny_cfg(0x9B33));
    let mut rng = SmallRng::seed_from_u64(0x518);
    // > MICRO_CHUNK queries so shards=3 actually splits the batch
    let batch: Vec<(usize, Query)> = (0..96)
        .map(|_| {
            let origin = rng.gen_range(0..bed.cfg.nodes);
            (origin, bed.workload.random_query(3, QueryMix::Range, &mut rng))
        })
        .collect();
    for plan in QueryPlan::ALL {
        let report_at = |shards: usize| {
            let mut rep = Report::new();
            for sys in &bed.systems {
                let s = run_batch(sys.as_ref(), &batch, &Exec::new(Metric::Matches, plan, shards));
                rep.summary(sys.name(), s);
            }
            rep.to_json()
        };
        assert_eq!(report_at(1), report_at(3), "plan {} drifted across shard counts", plan.name());
    }
}

#[test]
fn selectivity_estimates_track_exact_match_counts() {
    // The §V synthetic workload at quick scale. The estimator is exact
    // on full-domain ranges and interpolates inside buckets, so the
    // error of a range estimate is confined to the two partial buckets
    // at the range ends: |est - exact| <= 2·(max bucket count) plus the
    // grid-snapping slack. With near-uniform per-bucket counts of
    // total/buckets, a band of 4·total/buckets + 4 holds with margin.
    let cfg = SimConfig {
        nodes: 896,
        dimension: 7,
        attrs: 20,
        values: 100,
        seed: 0x9C11,
        value_dist: ValueDist::Uniform,
    };
    let (workload, _) = TestBed::workload_of(&cfg);
    let sys = build_system(System::Lorm, &workload, &cfg);
    let sel: &SelectivityEstimator = sys.selectivity().expect("place_all trains the estimator");
    assert!(sel.is_trained());
    let mut rng = SmallRng::seed_from_u64(0x519);
    for _ in 0..200 {
        let q = workload.random_query(1, QueryMix::Range, &mut rng);
        let sub = &q.subs[0];
        let exact = workload
            .reports
            .iter()
            .filter(|r| r.attr == sub.attr && sub.target.matches(r.value))
            .count() as f64;
        let est = sel.estimate(sub);
        let total = sel.total(sub.attr) as f64;
        assert!(est >= 0.0 && est <= total, "estimate {est} outside [0, {total}]");
        let band = 4.0 * total / sel.buckets() as f64 + 4.0;
        assert!(
            (est - exact).abs() <= band,
            "estimate {est} vs exact {exact} exceeds tolerance {band} for {sub:?}"
        );
    }
}
