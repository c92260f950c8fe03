//! Mercury — **multi-DHT** resource discovery.
//!
//! Following the paper's characterization of Mercury (Bharambe et al.,
//! SIGCOMM 2004) with Chord hubs: one DHT *hub per attribute*, every
//! physical node a member of every hub. Within hub `a`, a report
//! `⟨a, v, ip⟩` is placed by the locality-preserving hash of `v`, so the
//! hub is a value-ordered ring and a range query is a lookup plus a
//! successor walk across the hub — system-wide, since the hub contains
//! all `n` nodes (`1 + n/4` visited on average, Theorem 4.9).
//!
//! The price is structure maintenance: each physical node keeps
//! `m × O(log n)` routing links (Theorem 4.1 — the `m`-fold overhead
//! Figure 3(a) plots). The reward is the most balanced directory
//! distribution of all four systems (Theorem 4.5).

use crate::host::ChordHost;
use dht_core::{
    BuildMode, DhtError, FaultPlan, Faulty, LoadDist, LocalityHash, LookupTally, NodeIdx, Overlay,
    Plain, Probe,
};
use grid_resource::{
    AttrId, AttributeSpace, FaultyOutcome, OutcomeBuilder, PieceKey, Query, QueryOutcome,
    ResourceDiscovery, ResourceInfo, SelectivityEstimator,
};
use rand::rngs::SmallRng;

/// Construction parameters for [`Mercury`].
#[derive(Debug, Clone, Copy)]
pub struct MercuryConfig {
    /// Experiment seed (each hub derives its own stream from it).
    pub seed: u64,
}

impl Default for MercuryConfig {
    fn default() -> Self {
        Self { seed: 0x4E6C }
    }
}

/// The Mercury baseline system: one Chord hub per attribute.
#[derive(Clone)]
pub struct Mercury {
    hubs: Vec<ChordHost>,
    lph: LocalityHash,
    /// Physical node -> arena index, identical in every hub by
    /// construction (hubs are built and churned in lock-step).
    phys_node: Vec<Option<NodeIdx>>,
    mode: BuildMode,
    /// Per-attribute value histograms for the adaptive query plan.
    sel: SelectivityEstimator,
}

impl Mercury {
    /// Build a Mercury system of `n` physical nodes with one hub per
    /// attribute in `space`.
    ///
    /// Memory scales with `m × n`; the paper's 200×2048 setup is a few
    /// hundred MB. For outlink measurements at larger `n`, build hubs one
    /// at a time instead (see `sim`'s Figure 3(a) harness).
    pub fn new(n: usize, space: &AttributeSpace, cfg: MercuryConfig) -> Self {
        Self::new_with_mode(n, space, cfg, BuildMode::Bulk)
    }

    /// Build with an explicit construction mode (overlay assembly and
    /// report placement; both modes are byte-identical, see [`BuildMode`]).
    pub fn new_with_mode(
        n: usize,
        space: &AttributeSpace,
        cfg: MercuryConfig,
        mode: BuildMode,
    ) -> Self {
        let hubs = (0..space.len())
            .map(|h| {
                ChordHost::build_with_mode(
                    n,
                    cfg.seed ^ (h as u64).wrapping_mul(0x9e3779b97f4a7c15),
                    mode,
                )
            })
            .collect();
        let lph = space.lph(0);
        Self {
            hubs,
            lph,
            phys_node: (0..n).map(|i| Some(NodeIdx(i))).collect(),
            mode,
            sel: SelectivityEstimator::new(space),
        }
    }

    /// Number of hubs (`m`).
    pub fn num_hubs(&self) -> usize {
        self.hubs.len()
    }

    /// The value key within a hub.
    pub fn value_key(&self, value: f64) -> u64 {
        self.lph.hash(value)
    }

    /// Borrow one hub (read-only).
    pub fn hub(&self, attr: AttrId) -> &ChordHost {
        &self.hubs[attr.0 as usize]
    }

    fn node_of(&self, phys: usize) -> Result<NodeIdx, DhtError> {
        self.phys_node.get(phys).copied().flatten().ok_or(DhtError::NodeNotFound { index: phys })
    }

    /// Resolve `q` under `probe`: per attribute, one lookup in that
    /// attribute's hub, from whose root a range walks the hub ring.
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
            let hub = &self.hubs[sub.attr.0 as usize];
            let (lo, hi) = sub.target.bounds();
            let lo_key = self.value_key(lo);
            let route = probe.lookup(hub.net(), from, lo_key, sub_msg);
            let Some(route) = out.lookup(route)? else { continue };
            walk.clear();
            let truncated = match hi {
                None => {
                    walk.push(route.terminal);
                    false
                }
                Some(h) => probe.walk(
                    &hub.range_walk(lo_key, self.value_key(h)),
                    route.terminal,
                    sub_msg,
                    &mut walk,
                ),
            };
            let mut owners = Vec::new();
            for &node in &walk {
                hub.matches_in_into(node, sub.attr, &sub.target, &mut owners);
            }
            out.answer(&walk, owners, !truncated);
        }
        Ok(out.finish(q.arity(), probe.account()))
    }
}

impl ResourceDiscovery for Mercury {
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "Mercury"
    }

    fn num_physical(&self) -> usize {
        self.phys_node.iter().filter(|n| n.is_some()).count()
    }

    fn is_live(&self, phys: usize) -> bool {
        self.phys_node.get(phys).copied().flatten().is_some()
    }

    fn place_all(&mut self, reports: &[ResourceInfo]) {
        for hub in &mut self.hubs {
            hub.clear();
        }
        self.sel.rebuild(reports);
        match self.mode {
            BuildMode::Bulk => {
                // Group reports per hub with one stable sort, then batch
                // each hub's slice through the bulk store path. Stability
                // preserves the per-hub arrival order of the sequential
                // loop, so the resulting directories are byte-identical.
                let mut by_hub: Vec<ResourceInfo> = reports.to_vec();
                by_hub.sort_by_key(|r| r.attr.0);
                let mut rest = by_hub.as_slice();
                while let Some(&head) = rest.first() {
                    let run = rest.iter().take_while(|r| r.attr == head.attr).count();
                    let items: Vec<(u64, ResourceInfo)> =
                        rest[..run].iter().map(|&r| (self.lph.hash(r.value), r)).collect();
                    self.hubs[head.attr.0 as usize].store_all_at_owners(items);
                    rest = &rest[run..];
                }
            }
            BuildMode::Incremental => {
                for &r in reports {
                    let key = self.lph.hash(r.value);
                    let _ = self.hubs[r.attr.0 as usize].store_at_owner(key, r);
                }
            }
        }
    }

    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError> {
        let from = self.node_of(info.owner)?;
        let key = self.lph.hash(info.value);
        let route = self.hubs[info.attr.0 as usize].store_routed(from, key, info)?;
        self.sel.record(&info);
        Ok(LookupTally { hops: route.hops, lookups: 1, visited: 1, matches: 0 })
    }

    fn selectivity(&self) -> Option<&SelectivityEstimator> {
        Some(&self.sel)
    }

    fn query_from(&self, phys: usize, q: &Query) -> Result<QueryOutcome, DhtError> {
        Ok(self.query_with(phys, q, &mut Plain)?.outcome)
    }

    fn query_from_faulty(
        &self,
        phys: usize,
        q: &Query,
        plan: &FaultPlan,
        msg_seed: u64,
    ) -> Result<FaultyOutcome, DhtError> {
        self.query_with(phys, q, &mut Faulty::new(plan, msg_seed))
    }

    fn directory_loads(&self) -> LoadDist {
        // Per *physical* node: sum of its directories across all hubs.
        let mut per_phys: Vec<f64> = Vec::new();
        for (phys, node) in self.phys_node.iter().enumerate() {
            let Some(idx) = node else { continue };
            let total: usize = self.hubs.iter().map(|h| h.load_of(*idx)).sum();
            per_phys.push(total as f64);
            let _ = phys;
        }
        LoadDist::new(per_phys)
    }

    fn total_pieces(&self) -> usize {
        self.hubs.iter().map(ChordHost::total_pieces).sum()
    }

    fn outlinks_per_node(&self) -> LoadDist {
        // Per physical node: routing state summed over all m hubs.
        let mut per_phys: Vec<f64> = Vec::new();
        for node in self.phys_node.iter() {
            let Some(idx) = node else { continue };
            let total: usize = self.hubs.iter().map(|h| h.net().outlinks(*idx).unwrap_or(0)).sum();
            per_phys.push(total as f64);
        }
        LoadDist::new(per_phys)
    }

    fn join_physical(&mut self, _rng: &mut SmallRng) -> Result<usize, DhtError> {
        let boot = self.phys_node.iter().copied().flatten().next().ok_or(DhtError::EmptyOverlay)?;
        let mut new_idx: Option<NodeIdx> = None;
        let mut joined_hubs = 0usize;
        let mut failure: Option<DhtError> = None;
        for hub in &mut self.hubs {
            match hub.net_mut().join(boot) {
                Ok(idx) => {
                    hub.sync_arena();
                    match new_idx {
                        None => new_idx = Some(idx),
                        Some(prev) => debug_assert_eq!(prev, idx, "hubs must stay in lock-step"),
                    }
                    joined_hubs += 1;
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            // Roll the partial join back so hub arenas stay in lock-step:
            // tombstone the new node where it joined, and reserve a dead
            // slot where it did not, so arena lengths stay equal.
            if let Some(idx) = new_idx {
                for (h, hub) in self.hubs.iter_mut().enumerate() {
                    if h < joined_hubs {
                        let _ = hub.net_mut().fail(idx);
                    } else {
                        let reserved = hub.net_mut().reserve_tombstone();
                        debug_assert_eq!(reserved, idx);
                    }
                    hub.sync_arena();
                }
            }
            return Err(e);
        }
        let idx = new_idx.ok_or(DhtError::EmptyOverlay)?;
        let phys = self.phys_node.len();
        self.phys_node.push(Some(idx));
        Ok(phys)
    }

    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.node_of(phys)?;
        for hub in &mut self.hubs {
            let handoff = hub.drain_directory(node);
            hub.clear_replicas_of(node);
            hub.net_mut().leave(node)?;
            for info in handoff {
                let key = self.lph.hash(info.value);
                let _ = hub.store_at_owner(key, info);
            }
        }
        self.phys_node[phys] = None;
        Ok(())
    }

    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.node_of(phys)?;
        for hub in &mut self.hubs {
            let _lost = hub.drain_directory(node);
            hub.clear_replicas_of(node);
            hub.net_mut().fail(node)?;
        }
        self.phys_node[phys] = None;
        Ok(())
    }

    fn stabilize(&mut self) {
        // Perfect-repair maintenance tick; protocol-level repair is
        // exercised in the chord crate's tests. With m hubs the protocol
        // path would route m·n·64 lookups per tick — the simulator's
        // ground-truth rebuild keeps churn experiments tractable. Replica
        // repair then runs hub by hub: promotions reroute within the hub
        // by the piece's value key.
        let lph = &self.lph;
        for hub in &mut self.hubs {
            hub.net_mut().rebuild_all_state();
            hub.repair_replicas_with(&mut |info, keys| {
                keys.push(lph.hash(info.value));
            });
        }
    }

    fn set_replication(&mut self, k: usize) {
        let lph = &self.lph;
        for hub in &mut self.hubs {
            hub.set_replication_with(k, &mut |info, keys| {
                keys.push(lph.hash(info.value));
            });
        }
    }

    fn replication(&self) -> usize {
        self.hubs.first().map_or(1, ChordHost::replication)
    }

    fn repair_stats(&self) -> dht_core::RepairStats {
        let mut total = dht_core::RepairStats::new();
        for hub in &self.hubs {
            total.merge(&hub.repair_stats());
        }
        total
    }

    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        // A piece survives if any hub still reaches it; duplicates across
        // hubs collapse when the caller canonicalizes.
        for hub in &self.hubs {
            hub.surviving_pieces_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_resource::discovery::join_owners;
    use grid_resource::ValueTarget;
    use grid_resource::{QueryMix, Workload, WorkloadConfig};
    use rand::SeedableRng;

    fn setup() -> (Workload, Mercury) {
        let mut rng = SmallRng::seed_from_u64(0x4E);
        let cfg = WorkloadConfig {
            num_attrs: 12,
            values_per_attr: 80,
            num_nodes: 128,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut m = Mercury::new(128, &w.space, MercuryConfig::default());
        m.place_all(&w.reports);
        (w, m)
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
    fn one_hub_per_attribute() {
        let (w, m) = setup();
        assert_eq!(m.num_hubs(), w.space.len());
        // every hub holds exactly the reports of its attribute
        for attr in w.space.ids() {
            assert_eq!(m.hub(attr).total_pieces(), 80);
        }
    }

    #[test]
    fn queries_are_complete() {
        let (w, m) = setup();
        let mut rng = SmallRng::seed_from_u64(3);
        for mix in [QueryMix::NonRange, QueryMix::Range] {
            for _ in 0..60 {
                let q = w.random_query(3, mix, &mut rng);
                let out = m.query_from(5, &q).unwrap();
                let expected =
                    join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
                let mut got = out.owners.clone();
                got.sort_unstable();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn point_query_is_single_lookup_per_attr() {
        let (w, m) = setup();
        let mut rng = SmallRng::seed_from_u64(4);
        let q = w.random_query(5, QueryMix::NonRange, &mut rng);
        let out = m.query_from(1, &q).unwrap();
        assert_eq!(out.tally.lookups, 5);
        assert_eq!(out.tally.visited, 5);
    }

    #[test]
    fn range_walk_is_system_wide() {
        let (_, m) = setup();
        let q = Query::new(vec![grid_resource::SubQuery {
            attr: AttrId(0),
            target: ValueTarget::Range { low: 1.0, high: 40.0 },
        }])
        .unwrap();
        let out = m.query_from(0, &q).unwrap();
        // ~half the domain -> ~half of the 128-node hub
        assert!(out.tally.visited > 32, "visited {}", out.tally.visited);
    }

    #[test]
    fn outlinks_scale_with_hub_count() {
        let (_, m) = setup();
        let links = m.outlinks_per_node();
        // each hub contributes ~log2(128)=7 distinct links
        assert!(links.mean() > 12.0 * 5.0, "mean outlinks {}", links.mean());
    }

    #[test]
    fn directory_loads_are_balanced() {
        let (w, m) = setup();
        let loads = m.directory_loads();
        assert_eq!(loads.total() as usize, w.reports.len());
        // Theorem 4.5/4.6: Mercury spreads info most evenly — almost every
        // node stores something.
        let loaded = loads.loads().iter().filter(|&&l| l > 0.0).count();
        assert!(loaded > 100, "only {loaded} of 128 nodes loaded");
    }

    #[test]
    fn inert_fault_plan_query_is_identical_to_plain() {
        let (w, m) = setup();
        let plan = FaultPlan::new(3, 0.0, 0.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        for i in 0..30u64 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            let plain = m.query_from(1, &q).unwrap();
            let faulty = m.query_from_faulty(1, &q, &plan, i).unwrap();
            assert_eq!(faulty.outcome, plain);
            assert!(faulty.is_complete());
        }
    }

    #[test]
    fn faulty_queries_are_deterministic_and_degrade_under_loss() {
        let (w, m) = setup();
        let plan = FaultPlan::new(7, 0.2, 0.05).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut degraded = 0usize;
        for i in 0..60u64 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            let a = m.query_from_faulty(2, &q, &plan, i).unwrap();
            let b = m.query_from_faulty(2, &q, &plan, i).unwrap();
            assert_eq!(a, b);
            if !a.is_complete() {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "20% loss should degrade some queries");
    }

    #[test]
    fn churn_keeps_hubs_in_lockstep() {
        let (w, mut m) = setup();
        let mut rng = SmallRng::seed_from_u64(5);
        let p = m.join_physical(&mut rng).unwrap();
        assert!(m.is_live(p));
        assert_eq!(m.num_physical(), 129);
        m.leave_physical(3).unwrap();
        assert!(!m.is_live(3));
        m.stabilize();
        m.place_all(&w.reports);
        // queries still complete
        let q = w.random_query(2, QueryMix::Range, &mut rng);
        let out = m.query_from(p, &q).unwrap();
        let expected =
            join_owners(q.subs.iter().map(|sq| brute(&w, sq.attr, &sq.target)).collect());
        let mut got = out.owners.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
    }
}
