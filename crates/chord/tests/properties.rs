//! Property-based tests of the Chord simulator.

use chord::{Chord, ChordConfig};
use dht_core::Overlay;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routed lookups always terminate at the consistent-hashing owner in
    /// a stabilized network, regardless of size, seed or key.
    #[test]
    fn lookups_are_exact(n in 1usize..300, seed: u64, keys in prop::collection::vec(any::<u64>(), 1..20)) {
        let net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF00);
        for key in keys {
            let from = net.random_node(&mut rng).unwrap();
            let r = net.route(from, key).unwrap();
            prop_assert!(r.exact);
            // the terminal really owns the key: key ∈ (pred, terminal]
            let t = net.node(r.terminal).unwrap();
            let pred = net.node(t.predecessor().unwrap()).unwrap();
            if n > 1 {
                prop_assert!(dht_core::in_interval_oc(pred.id(), t.id(), key));
            }
        }
    }

    /// The successor relation forms one cycle covering every live node.
    #[test]
    fn ring_is_a_single_cycle(n in 1usize..200, seed: u64) {
        let net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let start = net.nodes_by_id()[0];
        let mut cur = start;
        let mut count = 0usize;
        loop {
            cur = net.next_clockwise(cur).unwrap();
            count += 1;
            prop_assert!(count <= n, "cycle longer than the population");
            if cur == start {
                break;
            }
        }
        prop_assert_eq!(count, n.max(1));
    }

    /// Fingers always point at the true successor of their target point.
    #[test]
    fn fingers_are_correct_after_build(n in 2usize..150, seed: u64, i in 0usize..64) {
        let net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let node_idx = net.nodes_by_id()[0];
        let node = net.node(node_idx).unwrap();
        let target = node.id().wrapping_add(1u64 << i);
        prop_assert_eq!(node.fingers()[i], net.owner_of(target).unwrap());
    }

    /// Graceful departures never orphan keys: after any leave sequence the
    /// remaining ring still resolves every key exactly.
    #[test]
    fn leaves_preserve_exactness(n in 5usize..80, seed: u64, leaves in 1usize..4) {
        let mut net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF01);
        for _ in 0..leaves.min(n - 1) {
            let v = net.random_node(&mut rng).unwrap();
            net.leave(v).unwrap();
        }
        for _ in 0..10 {
            let from = net.random_node(&mut rng).unwrap();
            let key: u64 = rand::Rng::gen(&mut rng);
            let r = net.route(from, key).unwrap();
            prop_assert!(r.exact);
        }
    }

    /// The zero-allocation fast path is observationally identical to the
    /// traced route in every network state: freshly stabilized, after
    /// unrepaired churn (leaves and abrupt failures), and after repair.
    #[test]
    fn route_stats_equals_traced_route(n in 8usize..200, seed: u64,
                                       leaves in 0usize..4, fails in 0usize..4) {
        let mut net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF02);
        let check = |net: &Chord, rng: &mut SmallRng| -> Result<(), TestCaseError> {
            for _ in 0..12 {
                let from = net.random_node(rng).unwrap();
                let key: u64 = rand::Rng::gen(rng);
                match (net.route(from, key), net.route_stats(from, key)) {
                    (Ok(t), Ok(s)) => {
                        prop_assert_eq!(t.hops(), s.hops);
                        prop_assert_eq!(t.terminal, s.terminal);
                        prop_assert_eq!(t.exact, s.exact);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (t, s) => prop_assert!(false, "diverged: traced {t:?} vs stats {s:?}"),
                }
            }
            Ok(())
        };
        check(&net, &mut rng)?; // stabilized
        for _ in 0..leaves.min(n / 4) {
            let v = net.random_node(&mut rng).unwrap();
            net.leave(v).unwrap();
        }
        for _ in 0..fails.min(n / 4) {
            let v = net.random_node(&mut rng).unwrap();
            net.fail(v).unwrap();
        }
        check(&net, &mut rng)?; // post-churn, unrepaired
        net.rebuild_all_state();
        check(&net, &mut rng)?; // post-repair
    }

    /// Distinct outlinks stay O(log n): never more than 2·log2(n) + r + 1.
    #[test]
    fn outlink_bound(n in 2usize..500, seed: u64) {
        let net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let bound = 2 * (n as f64).log2().ceil() as usize + 6;
        for &idx in net.nodes_by_id().iter().take(20) {
            prop_assert!(net.outlinks(idx).unwrap() <= bound);
        }
    }
}
