//! LORM-specific tests of multi-attribute query planning.
//!
//! Planning is a capability of every
//! [`ResourceDiscovery`](grid_resource::ResourceDiscovery) system (the
//! `query_planned` default method); see [`grid_resource::planner`] for
//! the `Parallel` / `Sequential` / `Adaptive` semantics and
//! [`grid_resource::selectivity`] for the histograms the adaptive plan
//! orders by. These tests pin the plans against LORM.

#[cfg(test)]
mod tests {
    use crate::{Lorm, LormConfig};
    use grid_resource::QueryPlan;
    use grid_resource::{QueryMix, ResourceDiscovery, Workload, WorkloadConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Workload, Lorm) {
        let mut rng = SmallRng::seed_from_u64(0x91A);
        let cfg = WorkloadConfig {
            num_attrs: 25,
            values_per_attr: 80,
            num_nodes: 896,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut l = Lorm::new(896, &w.space, LormConfig { dimension: 7, ..Default::default() });
        l.place_all(&w.reports);
        (w, l)
    }

    #[test]
    fn plans_agree_on_answers() {
        let (w, l) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..120 {
            let arity = rng.gen_range(1..=5);
            let q = w.random_query(arity, QueryMix::Range, &mut rng);
            let phys = rng.gen_range(0..896);
            let mut a = l.query_planned(phys, &q, QueryPlan::Parallel).unwrap().owners;
            a.sort_unstable();
            for plan in [QueryPlan::Sequential, QueryPlan::Adaptive] {
                let mut b = l.query_planned(phys, &q, plan).unwrap().owners;
                b.sort_unstable();
                assert_eq!(a, b, "{plan:?} must return identical owners");
            }
        }
    }

    #[test]
    fn sequential_ships_fewer_matches() {
        let (w, l) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut par = 0usize;
        let mut seq = 0usize;
        let mut ada = 0usize;
        for _ in 0..150 {
            let q = w.random_query(4, QueryMix::Range, &mut rng);
            let phys = rng.gen_range(0..896);
            par += l.query_planned(phys, &q, QueryPlan::Parallel).unwrap().tally.matches;
            seq += l.query_planned(phys, &q, QueryPlan::Sequential).unwrap().tally.matches;
            ada += l.query_planned(phys, &q, QueryPlan::Adaptive).unwrap().tally.matches;
        }
        assert!(
            seq * 2 < par,
            "sequential should ship far fewer pieces: parallel {par} vs sequential {seq}"
        );
        assert!(
            ada <= seq,
            "most-selective-first should not ship more than document order: \
             adaptive {ada} vs sequential {seq}"
        );
    }

    #[test]
    fn sequential_short_circuits_on_empty_candidates() {
        let (w, l) = setup();
        let mut rng = SmallRng::seed_from_u64(3);
        // high-arity point conjunctions are almost always empty; the
        // sequential plan should then skip lookups
        let mut any_skipped = false;
        for _ in 0..60 {
            let q = w.random_query(8, QueryMix::NonRange, &mut rng);
            let phys = rng.gen_range(0..896);
            let out = l.query_planned(phys, &q, QueryPlan::Sequential).unwrap();
            if out.owners.is_empty() && out.tally.lookups < 8 {
                any_skipped = true;
                break;
            }
        }
        assert!(any_skipped, "empty conjunctions should short-circuit");
    }

    #[test]
    fn sequential_matches_count_pieces_shipped() {
        // Satellite pin for the accounting fix: at arity 1 every plan
        // ships exactly the sub-query's match list, so `matches` agrees
        // with the parallel tally piece-for-piece (duplicates included),
        // and at any arity `matches >= owners.len()`.
        let (w, l) = setup();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..60 {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            let phys = rng.gen_range(0..896);
            let par = l.query_planned(phys, &q, QueryPlan::Parallel).unwrap();
            for plan in [QueryPlan::Sequential, QueryPlan::Adaptive] {
                let out = l.query_planned(phys, &q, plan).unwrap();
                assert_eq!(
                    out.tally.matches, par.tally.matches,
                    "arity-1 {plan:?} must tally the same shipped pieces as parallel"
                );
            }
        }
        for arity in 2..=5 {
            let q = w.random_query(arity, QueryMix::Range, &mut rng);
            let phys = rng.gen_range(0..896);
            let out = l.query_planned(phys, &q, QueryPlan::Sequential).unwrap();
            assert!(
                out.tally.matches >= out.owners.len(),
                "shipped pieces can never undercount the final answer"
            );
        }
    }

    #[test]
    fn sequential_probes_are_deduplicated() {
        // Satellite pin for the probed dedup: no directory node appears
        // twice in the probe list of a sequential/adaptive resolution.
        let (w, l) = setup();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            let q = w.random_query(4, QueryMix::Range, &mut rng);
            let phys = rng.gen_range(0..896);
            for plan in [QueryPlan::Sequential, QueryPlan::Adaptive] {
                let out = l.query_planned(phys, &q, plan).unwrap();
                let mut seen = out.probed.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(
                    seen.len(),
                    out.probed.len(),
                    "{plan:?} probe list must be duplicate-free"
                );
            }
        }
    }

    #[test]
    fn default_plan_is_parallel() {
        assert_eq!(QueryPlan::default(), QueryPlan::Parallel);
    }
}
