//! Chaos soak: the seeded fault sweep on a 1024-node bed, all four
//! systems. Pins the three dynamic guarantees of the fault layer that
//! the unit tests only check on small beds:
//!
//! * success rates degrade **monotonically** in the loss rate at fixed
//!   failure fraction (the fault-coin firing sets are nested by rate);
//! * every query is accounted for: `failures + partial + successes ==
//!   total`, in every cell, for every system;
//! * a zero-fault [`FaultPlan`] leaves the exported `Report` JSON
//!   **byte-identical** to the fault-free path, at 1 and 3 shards.

use dht_core::FaultPlan;
use grid_resource::{QueryMix, QueryPlan};
use sim::experiments::chaos::{chaos, ChaosSetup};
use sim::experiments::{query_batch, run_batch, Exec, Metric};
use sim::setup::{SimConfig, TestBed};
use sim::{BedCache, Report};
use std::sync::OnceLock;

/// One shared 1024-node bed: building the four systems dominates the
/// soak budget, and every test here replays batches against it.
fn bed() -> &'static TestBed {
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| {
        TestBed::new(SimConfig {
            nodes: 1024,
            dimension: 8,
            attrs: 20,
            values: 60,
            ..SimConfig::default()
        })
    })
}

#[test]
fn soak_sweep_degrades_monotonically_and_accounts_every_query() {
    let setup = ChaosSetup {
        loss_rates: vec![0.0, 0.05, 0.2],
        fail_fracs: vec![0.0, 0.1],
        origins: 50,
        per_origin: 4,
        arity: 3,
        ..ChaosSetup::default()
    };
    let c = chaos(bed(), setup.clone(), 0);
    let total = (setup.origins * setup.per_origin) as u64;
    assert_eq!(c.queries as u64, total);
    assert_eq!(c.systems.len(), 4, "all four systems swept");
    for sys in &c.systems {
        for &ff in &setup.fail_fracs {
            let mut prev = f64::INFINITY;
            for &loss in &setup.loss_rates {
                let cell = sys
                    .cells
                    .iter()
                    .find(|cl| cl.loss == loss && cl.fail_frac == ff)
                    .expect("swept cell");
                // every query lands in exactly one bucket
                assert_eq!(cell.total_queries(), total, "{} loss {loss}", sys.name);
                assert_eq!(
                    cell.summary.successes() + cell.summary.partial() + cell.summary.failures(),
                    total,
                    "{} loss {loss} fail {ff}",
                    sys.name
                );
                // monotone degradation in the loss rate at fixed failure
                // fraction — exact, not just statistical: the fault-coin
                // firing set at a higher rate is a superset
                let rate = cell.success_rate();
                assert!(
                    rate <= prev,
                    "{} success rate not monotone: {rate} after {prev} (loss {loss}, fail {ff})",
                    sys.name
                );
                prev = rate;
            }
        }
        // the zero-fault anchor cell is perfect
        let anchor = &sys.cells[0];
        assert_eq!((anchor.loss, anchor.fail_frac), (0.0, 0.0));
        assert_eq!(anchor.success_rate(), 1.0, "{}", sys.name);
        assert_eq!(anchor.summary.dropped_msgs(), 0, "{}", sys.name);
        // and the 20%-loss cells actually exercised the fault layer
        let lossy =
            sys.cells.iter().find(|cl| cl.loss == 0.2 && cl.fail_frac == 0.0).expect("lossy cell");
        assert!(lossy.summary.dropped_msgs() > 0, "{}", sys.name);
    }
}

#[test]
fn zero_fault_plan_report_json_is_byte_identical_to_fault_free() {
    let bed = bed();
    let batch = query_batch(&bed.workload, bed.cfg.nodes, 30, 3, 3, QueryMix::Range, 0xFA117);
    let plan = FaultPlan::none();
    for metric in [Metric::Hops, Metric::Visited] {
        let mut plain = Report::new();
        let mut faulty_seq = Report::new();
        let mut faulty_par = Report::new();
        for sys in &bed.systems {
            plain.summary(
                sys.name(),
                run_batch(sys.as_ref(), &batch, &Exec::new(metric, QueryPlan::Parallel, 1)),
            );
            faulty_seq.summary(
                sys.name(),
                run_batch(sys.as_ref(), &batch, &Exec::faulty(metric, &plan, 1)),
            );
            faulty_par.summary(
                sys.name(),
                run_batch(sys.as_ref(), &batch, &Exec::faulty(metric, &plan, 3)),
            );
        }
        assert_eq!(plain.to_json(), faulty_seq.to_json(), "{metric:?} shards=1");
        assert_eq!(plain.to_json(), faulty_par.to_json(), "{metric:?} shards=3");
    }
}

#[test]
fn faulty_sweep_is_a_pure_function_of_the_seeds() {
    // Same bed, same batch, same plan — the degraded summaries must be
    // bit-identical across repeated runs (the chaos-v1 export contract).
    let bed = bed();
    let batch = query_batch(&bed.workload, bed.cfg.nodes, 20, 3, 3, QueryMix::Range, 0x50AC);
    let plan = FaultPlan::new(0xC4A0_5EED, 0.2, 0.1).unwrap();
    for sys in &bed.systems {
        let a = run_batch(sys.as_ref(), &batch, &Exec::faulty(Metric::Hops, &plan, 3));
        let b = run_batch(sys.as_ref(), &batch, &Exec::faulty(Metric::Hops, &plan, 3));
        assert_eq!(a.count(), b.count(), "{}", sys.name());
        assert_eq!(a.failures(), b.failures(), "{}", sys.name());
        assert_eq!(a.partial(), b.partial(), "{}", sys.name());
        assert_eq!(a.retries(), b.retries(), "{}", sys.name());
        assert_eq!(a.dropped_msgs(), b.dropped_msgs(), "{}", sys.name());
        assert_eq!(a.total().to_bits(), b.total().to_bits(), "{}", sys.name());
    }
}

#[test]
fn churn_with_interleaved_ungraceful_failures_stays_sound() {
    // ChurnKind::Fail events interleaved mid-schedule (half the
    // departures abrupt): the figure pipeline must survive the stale
    // routing state — cluster collapses, dead successor-list entries —
    // without panicking, and stay deterministic.
    use sim::experiments::fig6::{fig6, ChurnSetup};
    let cfg = SimConfig {
        nodes: 384,
        dimension: 6,
        attrs: 10,
        values: 30,
        seed: 0xFA11,
        ..SimConfig::default()
    };
    let setup =
        ChurnSetup { graceful_ratio: 0.5, requests: 200, rates: vec![0.4], ..ChurnSetup::quick() };
    let once = fig6(&cfg, &setup, Metric::Hops, &BedCache::new()).report().to_json();
    let again = fig6(&cfg, &setup, Metric::Hops, &BedCache::new()).report().to_json();
    assert_eq!(once, again, "ungraceful churn must stay deterministic");
    for name in ["LORM", "Mercury", "SWORD", "MAAN"] {
        assert!(once.contains(name), "{name} missing from report: {once}");
    }
}

#[test]
fn soak_data_loss_is_monotone_in_replication_degree() {
    // The durability sweep on the soak-scale 1024-node configuration:
    // at every churn rate and for every system, the number of surviving
    // piece identities must be non-decreasing in the replication degree
    // k. The guarantee is pathwise, not statistical — every degree
    // replays the identical churn sample and both placement rules
    // (successor-list and leaf-set/cluster) are prefix rules in k — so
    // the assertion is exact, on integer counts.
    use sim::experiments::durability::{durability, DurabilitySetup};
    let cfg =
        SimConfig { nodes: 1024, dimension: 8, attrs: 20, values: 60, ..SimConfig::default() };
    let setup = DurabilitySetup {
        rates: vec![0.2, 0.6],
        degrees: vec![1, 2, 3],
        duration: 100.0,
        graceful_ratio: 0.0, // every departure abrupt: worst case for durability
        probe_origins: 10,
        probe_per_origin: 2,
        ..DurabilitySetup::quick()
    };
    let d = durability(&cfg, &setup, &BedCache::new(), 0);
    assert_eq!(d.rows.len(), 6, "2 rates x 3 degrees");
    let violations = d.k_monotonicity_violations();
    assert!(violations.is_empty(), "{violations:?}");
    // The soak must measure something: fully abrupt churn at the heavy
    // rate has to lose pieces somewhere at k = 1...
    let heavy_k1 = d.rows.iter().find(|r| r.rate == 0.6 && r.k == 1).expect("heavy-churn k=1 row");
    assert!(
        heavy_k1.cells.iter().any(|c| c.loss > 0.0),
        "no system lost anything at k=1 under abrupt churn"
    );
    // ...and replication has to repair: every system moves pieces at k=3.
    let heavy_k3 = d.rows.iter().find(|r| r.rate == 0.6 && r.k == 3).expect("heavy-churn k=3 row");
    for (i, c) in heavy_k3.cells.iter().enumerate() {
        assert!(c.repair_transfers() > 0, "system {i} repaired nothing at k=3");
        assert!(c.repair_rounds > 0, "system {i} ran no repair rounds");
    }
}
