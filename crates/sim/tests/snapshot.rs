//! Property tests for the bed snapshot/restore pair: after arbitrary
//! seeded churn, [`TestBed::restore`] must rewind every system to a
//! state *observationally identical* to a bed that was never churned —
//! same live population, same stored pieces, same query results. This
//! is the contract that lets the `BedCache` hand one stabilized build
//! to many consumers.

use grid_resource::{QueryMix, QueryPlan};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim::experiments::{query_batch, run_batch, Exec, Metric};
use sim::setup::{SimConfig, TestBed};
use std::sync::OnceLock;

fn cfg() -> SimConfig {
    SimConfig { nodes: 256, dimension: 6, attrs: 8, values: 20, ..SimConfig::default() }
}

/// One shared pristine bed: construction dominates the test budget, and
/// every case starts from a fresh deep clone of it.
fn pristine() -> &'static TestBed {
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| TestBed::new(cfg()))
}

/// Everything observable about a bed that churn can perturb: per-system
/// live population, stored piece count, and the exact query summaries of
/// a fixed batch.
fn observe(bed: &TestBed) -> Vec<(usize, usize, dht_core::Summary)> {
    let c = bed.cfg;
    let batch = query_batch(&bed.workload, c.nodes, 12, 2, 2, QueryMix::Range, c.seed ^ 0x5AFE);
    bed.systems
        .iter()
        .map(|s| {
            (
                s.num_physical(),
                s.total_pieces(),
                run_batch(s.as_ref(), &batch, &Exec::new(Metric::Visited, QueryPlan::Parallel, 0)),
            )
        })
        .collect()
}

/// Drive every system through `steps` random join/leave/fail events.
fn churn(bed: &mut TestBed, seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for sys in &mut bed.systems {
        for _ in 0..steps {
            match rng.gen_range(0..3u8) {
                0 => {
                    let _ = sys.join_physical(&mut rng);
                }
                kind => {
                    let p = rng.gen_range(0..sys.num_physical());
                    if sys.is_live(p) && sys.num_physical() > 2 {
                        let _ =
                            if kind == 1 { sys.leave_physical(p) } else { sys.fail_physical(p) };
                    }
                }
            }
        }
        sys.stabilize();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// snapshot → churn → restore is a no-op: the restored bed observes
    /// exactly what a never-churned bed observes, for any churn seed and
    /// length.
    #[test]
    fn snapshot_restore_erases_arbitrary_churn(seed in any::<u64>(), steps in 1usize..10) {
        let baseline = observe(pristine());
        let mut bed = pristine().clone();
        let snap = bed.snapshot();
        churn(&mut bed, seed, steps);
        bed.restore(snap);
        prop_assert_eq!(observe(&bed), baseline);
    }

    /// The churned clone never leaks into the pristine original: deep
    /// clones share no mutable state.
    #[test]
    fn churned_clone_leaves_original_untouched(seed in any::<u64>(), steps in 1usize..10) {
        let baseline = observe(pristine());
        let mut clone = pristine().clone();
        churn(&mut clone, seed, steps);
        prop_assert_eq!(observe(pristine()), baseline);
    }
}

#[test]
fn churn_actually_perturbs_observations() {
    // Guard against the properties passing vacuously: a churned bed must
    // observe *differently* before restore (joins alone change the live
    // population).
    let baseline = observe(pristine());
    let mut bed = pristine().clone();
    let snap = bed.snapshot();
    churn(&mut bed, 0xC0FFEE, 8);
    assert_ne!(observe(&bed), baseline, "churn must be visible before restore");
    bed.restore(snap);
    assert_eq!(observe(&bed), baseline);
}
