//! End-to-end determinism regression: the exported `Report` JSON must be
//! a pure function of the experiment seed — identical across repeated
//! runs *and* across shard counts. This is the contract `cargo xtask
//! lint` enforces statically; here it is checked dynamically on a real
//! figure pipeline.

use grid_resource::QueryPlan;
use sim::experiments::fig4::fig4;
use sim::setup::{SimConfig, TestBed};

/// 16 origins × 5 queries = 80 per batch: more than one 64-query
/// micro-chunk, so every shard count above one really splits the batch.
fn fig4_json(shards: usize) -> String {
    let cfg = SimConfig { nodes: 256, attrs: 12, values: 50, dimension: 6, ..SimConfig::default() };
    let bed = TestBed::new(cfg);
    fig4(&bed, [1, 3], 16, 5, QueryPlan::Parallel, shards).report().to_json()
}

#[test]
fn fig4_report_is_bit_identical_across_runs_and_shard_counts() {
    let once = fig4_json(1);
    let again = fig4_json(1);
    assert_eq!(once, again, "same seed, same shard count must give identical JSON");

    let sharded = fig4_json(3);
    assert_eq!(once, sharded, "shard count is an execution detail and must not leak into results");
    let auto = fig4_json(0);
    assert_eq!(once, auto, "shards=0 (one worker per core) must not leak into results either");
}

#[test]
fn cached_bed_fig4_is_byte_identical_to_fresh_build() {
    // The BedCache's determinism contract: a report produced from a
    // cached (shared) bed must be byte-for-byte the report a freshly
    // built bed produces — at every shard count.
    use sim::BedCache;
    let cfg = SimConfig { nodes: 256, attrs: 12, values: 50, dimension: 6, ..SimConfig::default() };
    let run = |bed: &TestBed, shards| {
        fig4(bed, [1, 3], 16, 5, QueryPlan::Parallel, shards).report().to_json()
    };
    for shards in [1usize, 3] {
        let cache = BedCache::new();
        let cached_json = run(&cache.bed(cfg), shards);
        let fresh_json = run(&TestBed::new(cfg), shards);
        let reused_json = run(&cache.bed(cfg), shards);
        assert_eq!(cached_json, fresh_json, "cached vs fresh at shards={shards}");
        assert_eq!(cached_json, reused_json, "second cache hit at shards={shards}");
        assert_eq!(cache.builds(), 1, "one build serves every consumer");
    }
}

#[test]
fn cached_churn_prototypes_leave_fig6_byte_identical() {
    // fig6 clones cached prototypes instead of rebuilding per churn
    // rate; the clones must behave exactly like fresh builds, and a
    // second run off the same cache must reproduce the first.
    use sim::cache::BedCache;
    use sim::experiments::fig6::{fig6, ChurnSetup};
    use sim::experiments::Metric;
    let cfg = SimConfig { nodes: 256, attrs: 12, values: 50, dimension: 6, ..SimConfig::default() };
    let setup = ChurnSetup { requests: 150, rates: vec![0.2, 0.5], ..ChurnSetup::quick() };
    let fresh = fig6(&cfg, &setup, Metric::Hops, &BedCache::new()).report().to_json();
    let cache = BedCache::new();
    let cached = fig6(&cfg, &setup, Metric::Hops, &cache).report().to_json();
    let again = fig6(&cfg, &setup, Metric::Hops, &cache).report().to_json();
    assert_eq!(fresh, cached, "cached prototypes vs fresh builds");
    assert_eq!(cached, again, "prototype clones are reusable");
}

#[test]
fn graceful_ratio_one_leaves_fig6_byte_identical() {
    // The failure-enabled schedule generator draws zero extra RNG at
    // ratio 1.0, so threading `graceful_ratio` through the churn
    // pipeline must not perturb the paper's figures at the default.
    use sim::experiments::fig6::{fig6, ChurnSetup};
    use sim::experiments::Metric;
    use sim::BedCache;
    let cfg = SimConfig { nodes: 256, attrs: 12, values: 50, dimension: 6, ..SimConfig::default() };
    let setup = ChurnSetup { requests: 200, rates: vec![0.2], ..ChurnSetup::quick() };
    assert_eq!(setup.graceful_ratio, 1.0, "default is graceful-only");
    let explicit = ChurnSetup { graceful_ratio: 1.0, ..setup.clone() };
    let default_json = fig6(&cfg, &setup, Metric::Hops, &BedCache::new()).report().to_json();
    let explicit_json = fig6(&cfg, &explicit, Metric::Hops, &BedCache::new()).report().to_json();
    assert_eq!(default_json, explicit_json);
}

#[test]
fn failure_schedule_generation_is_deterministic() {
    // Same seed, same ratio → the interleaved ChurnKind::Fail events
    // land at identical times in identical order.
    use grid_resource::ChurnSchedule;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let gen = || {
        let mut rng = SmallRng::seed_from_u64(0xF41D);
        ChurnSchedule::generate_with_failures(0.4, 100.0, 0.5, &mut rng)
    };
    let (a, b) = (gen(), gen());
    assert_eq!(a.events(), b.events());
    assert!(
        a.events().iter().any(|e| e.kind == grid_resource::ChurnKind::Fail),
        "ratio 0.5 over 100s must schedule some abrupt failures"
    );
}
