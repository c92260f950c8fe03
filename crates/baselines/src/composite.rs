//! CompositeFlat — "LORM without the hierarchy" (our ablation system).
//!
//! Not one of the paper's comparators: this system asks whether LORM's
//! two-level Cycloid index is load-bearing, by emulating it on a *flat*
//! Chord with composite keys. The top `P` bits of a key are `H(attribute)`
//! (the "cluster" part) and the remaining bits are `ℋ(value)`, so every
//! attribute owns a contiguous `2^(64-P)` segment of the ring and a range
//! query is — as in LORM — one lookup plus a clockwise walk inside the
//! attribute's segment.
//!
//! What survives the flattening and what doesn't:
//!
//! * range-walk containment survives *statistically*: the walk covers the
//!   fraction of the attribute's segment the range spans, visiting
//!   `≈ 1 + (n/2^P)·span` nodes — with `2^P ≈ n/d` this matches LORM's
//!   `1 + d·span`;
//! * the **hard cap does not survive**: LORM's walk can never leave the
//!   d-node cluster, while a segment walk over a sparsely/unevenly
//!   populated arc can cross segment boundaries and probe nodes that hold
//!   other attributes' information;
//! * constant-degree maintenance does not survive: this is Chord, so each
//!   node keeps `O(log n)` links (between LORM's O(1) and Mercury's
//!   `m·log n`).

use crate::host::ChordHost;
use dht_core::{
    ConsistentHash, DhtError, LoadDist, LocalityHash, LookupTally, NodeIdx, Plain, Probe,
};
use grid_resource::{
    AttrId, AttributeSpace, FaultyOutcome, OutcomeBuilder, PieceKey, Query, QueryOutcome,
    ResourceDiscovery, ResourceInfo, SelectivityEstimator,
};
use rand::rngs::SmallRng;

/// Construction parameters for [`CompositeFlat`].
#[derive(Debug, Clone, Copy)]
pub struct CompositeConfig {
    /// Experiment seed.
    pub seed: u64,
    /// Attribute-prefix bits `P`: each attribute owns a `2^(64-P)` ring
    /// segment. With `2^P` comparable to `n/d`, segment population matches
    /// LORM's cluster size `d`.
    pub prefix_bits: u8,
}

impl Default for CompositeConfig {
    fn default() -> Self {
        Self { seed: 0xC03B, prefix_bits: 8 }
    }
}

/// The flat composite-key ablation system.
#[derive(Clone)]
pub struct CompositeFlat {
    host: ChordHost,
    /// Per-attribute segment base (`H(attr)` truncated to the prefix).
    segment_base: Vec<u64>,
    lph: LocalityHash,
    prefix_bits: u8,
    phys_node: Vec<Option<NodeIdx>>,
    /// Per-attribute value histograms for the adaptive query plan.
    sel: SelectivityEstimator,
}

impl CompositeFlat {
    /// Build a system of `n` physical nodes.
    pub fn new(n: usize, space: &AttributeSpace, cfg: CompositeConfig) -> Self {
        assert!((1..64).contains(&cfg.prefix_bits), "prefix bits must be in 1..64");
        let host = ChordHost::build(n, cfg.seed);
        let hash = ConsistentHash::new(cfg.seed);
        let shift = 64 - cfg.prefix_bits as u32;
        let segment_base =
            space.ids().map(|a| (hash.hash_str(space.name(a)) >> shift) << shift).collect();
        // values map onto the in-segment suffix
        let lph = space.lph(1u64 << shift);
        Self {
            host,
            segment_base,
            lph,
            prefix_bits: cfg.prefix_bits,
            phys_node: (0..n).map(|i| Some(NodeIdx(i))).collect(),
            sel: SelectivityEstimator::new(space),
        }
    }

    /// The composite key of an (attribute, value) pair.
    pub fn key_of(&self, attr: AttrId, value: f64) -> u64 {
        self.segment_base[attr.0 as usize] | self.lph.hash(value)
    }

    /// Attribute-prefix bits in use.
    pub fn prefix_bits(&self) -> u8 {
        self.prefix_bits
    }

    fn node_of(&self, phys: usize) -> Result<NodeIdx, DhtError> {
        self.phys_node.get(phys).copied().flatten().ok_or(DhtError::NodeNotFound { index: phys })
    }

    /// Resolve `q` under `probe`: per attribute, one lookup of the
    /// composite key of the low value, from whose root a range walks the
    /// attribute's ring segment. (Fault injection keeps the trait's
    /// fault-unaware default: this ablation is not part of the chaos
    /// sweeps.)
    fn query_with<P: Probe>(
        &self,
        phys: usize,
        q: &Query,
        probe: &mut P,
    ) -> Result<FaultyOutcome, DhtError> {
        let from = self.node_of(phys)?;
        let mut out = OutcomeBuilder::new(q.arity());
        // One probe-list scratch serves every sub-query of this query.
        let mut walk: Vec<NodeIdx> = Vec::new();
        for (i, sub) in q.subs.iter().enumerate() {
            if out.tally.hops >= probe.hop_budget() {
                continue;
            }
            let sub_msg = probe.sub_msg(i);
            let (lo, hi) = sub.target.bounds();
            let lo_key = self.key_of(sub.attr, lo);
            let route = probe.lookup(self.host.net(), from, lo_key, sub_msg);
            let Some(route) = out.lookup(route)? else { continue };
            walk.clear();
            let truncated = match hi {
                None => {
                    walk.push(route.terminal);
                    false
                }
                Some(h) => probe.walk(
                    &self.host.range_walk(lo_key, self.key_of(sub.attr, h)),
                    route.terminal,
                    sub_msg,
                    &mut walk,
                ),
            };
            let mut owners = Vec::new();
            for &node in &walk {
                self.host.matches_in_into(node, sub.attr, &sub.target, &mut owners);
            }
            out.answer(&walk, owners, !truncated);
        }
        Ok(out.finish(q.arity(), probe.account()))
    }
}

impl ResourceDiscovery for CompositeFlat {
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "Composite"
    }

    fn num_physical(&self) -> usize {
        self.phys_node.iter().filter(|n| n.is_some()).count()
    }

    fn is_live(&self, phys: usize) -> bool {
        self.phys_node.get(phys).copied().flatten().is_some()
    }

    fn place_all(&mut self, reports: &[ResourceInfo]) {
        self.host.clear();
        self.sel.rebuild(reports);
        for &r in reports {
            let _ = self.host.store_at_owner(self.key_of(r.attr, r.value), r);
        }
    }

    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError> {
        let from = self.node_of(info.owner)?;
        let key = self.key_of(info.attr, info.value);
        let route = self.host.store_routed(from, key, info)?;
        self.sel.record(&info);
        Ok(LookupTally { hops: route.hops, lookups: 1, visited: 1, matches: 0 })
    }

    fn selectivity(&self) -> Option<&SelectivityEstimator> {
        Some(&self.sel)
    }

    fn query_from(&self, phys: usize, q: &Query) -> Result<QueryOutcome, DhtError> {
        Ok(self.query_with(phys, q, &mut Plain)?.outcome)
    }

    fn directory_loads(&self) -> LoadDist {
        LoadDist::from_counts(&self.host.loads())
    }

    fn total_pieces(&self) -> usize {
        self.host.total_pieces()
    }

    fn outlinks_per_node(&self) -> LoadDist {
        LoadDist::from_counts(&self.host.outlinks())
    }

    fn join_physical(&mut self, _rng: &mut SmallRng) -> Result<usize, DhtError> {
        let boot = self.phys_node.iter().copied().flatten().next().ok_or(DhtError::EmptyOverlay)?;
        let idx = self.host.net_mut().join(boot)?;
        self.host.sync_arena();
        let phys = self.phys_node.len();
        self.phys_node.push(Some(idx));
        Ok(phys)
    }

    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.node_of(phys)?;
        let handoff = self.host.drain_directory(node);
        self.host.clear_replicas_of(node);
        self.host.net_mut().leave(node)?;
        self.phys_node[phys] = None;
        for info in handoff {
            let _ = self.host.store_at_owner(self.key_of(info.attr, info.value), info);
        }
        Ok(())
    }

    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.node_of(phys)?;
        let _lost = self.host.drain_directory(node);
        self.host.clear_replicas_of(node);
        self.host.net_mut().fail(node)?;
        self.phys_node[phys] = None;
        Ok(())
    }

    fn stabilize(&mut self) {
        self.host.net_mut().rebuild_all_state();
        let segment_base = &self.segment_base;
        let lph = &self.lph;
        self.host.repair_replicas_with(&mut |info, keys| {
            keys.push(segment_base[info.attr.0 as usize] | lph.hash(info.value));
        });
    }

    fn set_replication(&mut self, k: usize) {
        let segment_base = &self.segment_base;
        let lph = &self.lph;
        self.host.set_replication_with(k, &mut |info, keys| {
            keys.push(segment_base[info.attr.0 as usize] | lph.hash(info.value));
        });
    }

    fn replication(&self) -> usize {
        self.host.replication()
    }

    fn repair_stats(&self) -> dht_core::RepairStats {
        self.host.repair_stats()
    }

    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        self.host.surviving_pieces_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_resource::discovery::join_owners;
    use grid_resource::ValueTarget;
    use grid_resource::{QueryMix, Workload, WorkloadConfig};
    use rand::{Rng, SeedableRng};

    fn setup() -> (Workload, CompositeFlat) {
        let mut rng = SmallRng::seed_from_u64(0xC0);
        let cfg = WorkloadConfig {
            num_attrs: 25,
            values_per_attr: 80,
            num_nodes: 512,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut c = CompositeFlat::new(512, &w.space, CompositeConfig::default());
        c.place_all(&w.reports);
        (w, c)
    }

    fn brute(w: &Workload, attr: AttrId, t: &ValueTarget) -> Vec<usize> {
        let mut v: Vec<usize> = w
            .reports
            .iter()
            .filter(|r| r.attr == attr && t.matches(r.value))
            .map(|r| r.owner)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn composite_keys_preserve_value_order_within_attribute() {
        let (w, c) = setup();
        for attr in w.space.ids().take(5) {
            assert!(c.key_of(attr, 1.0) < c.key_of(attr, 40.0));
            assert!(c.key_of(attr, 40.0) < c.key_of(attr, 80.0));
            // and the whole segment shares the attribute prefix
            let shift = 64 - c.prefix_bits() as u32;
            assert_eq!(c.key_of(attr, 1.0) >> shift, c.key_of(attr, 80.0) >> shift);
        }
    }

    #[test]
    fn queries_are_complete() {
        let (w, c) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        for mix in [QueryMix::NonRange, QueryMix::Range] {
            for _ in 0..80 {
                let q = w.random_query(2, mix, &mut rng);
                let out = c.query_from(rng.gen_range(0..512), &q).unwrap();
                let expected =
                    join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
                let mut got = out.owners.clone();
                got.sort_unstable();
                assert_eq!(got, expected, "{mix:?}");
            }
        }
    }

    #[test]
    fn range_walk_stays_segment_scale_not_system_scale() {
        // The decisive comparison: segment walks visit ~n/2^P-scale node
        // counts (like LORM's cluster), not Mercury's n/4.
        let (w, c) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut total = 0usize;
        let queries = 300;
        for _ in 0..queries {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            total += c.query_from(rng.gen_range(0..512), &q).unwrap().tally.visited;
        }
        let avg = total as f64 / queries as f64;
        // n/2^P = 512/256 = 2 nodes per segment: expect ~1 + 2·E[span] ≈ 2
        assert!(avg < 6.0, "segment walks must stay small: avg {avg}");
        assert!(avg < 512.0 / 8.0, "and far below system-wide probing");
    }

    #[test]
    fn no_hard_cap_walks_can_cross_segments() {
        // Unlike LORM's d-bounded cluster walk, the segment walk scales
        // with segment population: with few prefix bits the segments are
        // fat and a full-domain range probes tens of nodes — no hard cap.
        let mut rng = SmallRng::seed_from_u64(0xC1);
        let wl_cfg = WorkloadConfig {
            num_attrs: 25,
            values_per_attr: 80,
            num_nodes: 512,
            ..Default::default()
        };
        let w = Workload::generate(wl_cfg, &mut rng).unwrap();
        let mut c = CompositeFlat::new(512, &w.space, CompositeConfig { prefix_bits: 4, seed: 7 });
        c.place_all(&w.reports);
        let (dmin, dmax) = w.space.domain();
        let mut max_visited = 0usize;
        for attr in w.space.ids() {
            let q = Query::new(vec![grid_resource::SubQuery {
                attr,
                target: ValueTarget::Range { low: dmin, high: dmax },
            }])
            .unwrap();
            let out = c.query_from(0, &q).unwrap();
            max_visited = max_visited.max(out.tally.visited);
        }
        // still complete, but some walk exceeded LORM's d = 8 hard cap
        assert!(max_visited > 8, "some segment walk should exceed a LORM cluster");
    }

    #[test]
    fn maintenance_state_is_logarithmic_not_constant() {
        let (_, c) = setup();
        let links = c.outlinks_per_node();
        // log2(512) = 9: clearly above LORM's ~6 constant links
        assert!(links.mean() > 8.0, "Chord-scale state expected: {}", links.mean());
    }
}
