//! The LORM resource discovery service.

use crate::keys::{KeyDeriver, Placement};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{
    BuildMode, DhtError, FaultPlan, Faulty, LoadDist, LookupTally, NodeIdx, Overlay, Plain, Probe,
    RepairStats, Walk,
};
use grid_resource::{
    AttributeSpace, Directory, FaultyOutcome, OutcomeBuilder, PieceKey, Query, QueryOutcome,
    ReplicaStore, ResourceDiscovery, ResourceInfo, SelectivityEstimator,
};
use rand::rngs::SmallRng;

/// Construction parameters for [`Lorm`].
#[derive(Debug, Clone, Copy)]
pub struct LormConfig {
    /// Cycloid dimension `d` (the paper's evaluation: 8, i.e. 2048 slots).
    pub dimension: u8,
    /// Experiment seed (drives identifier assignment and hashing).
    pub seed: u64,
    /// Value-placement strategy (`Lph` is the paper's design; `Hashed` is
    /// the ablation that destroys range locality).
    pub placement: Placement,
}

impl Default for LormConfig {
    fn default() -> Self {
        Self { dimension: 8, seed: 0x10124, placement: Placement::Lph }
    }
}

/// LORM: multi-attribute range-query resource discovery over one Cycloid.
///
/// Physical node `p` of the grid is Cycloid node `NodeIdx(p)` at
/// construction; nodes joining later get fresh indices. Every node keeps a
/// *directory*: the resource information pieces whose `rescID` it is the
/// root of.
#[derive(Clone)]
pub struct Lorm {
    overlay: Cycloid,
    keys: KeyDeriver,
    /// Directory per arena slot.
    directories: Vec<Directory>,
    /// Physical node -> overlay node (`None` after departure).
    phys_node: Vec<Option<NodeIdx>>,
    total_pieces: usize,
    mode: BuildMode,
    /// Replication degree (1 = unreplicated, no replica state at all).
    repl: usize,
    /// Replica store per arena slot, placed along the inside leaf set
    /// (cluster members clockwise of the root). Empty below degree 2.
    replicas: Vec<ReplicaStore>,
    repair: RepairStats,
    /// Per-attribute value histograms driving the adaptive query plan,
    /// rebuilt at `place_all` and updated per routed `register`.
    sel: SelectivityEstimator,
}

impl Lorm {
    /// Build a LORM system of `n` physical nodes over the attribute space.
    ///
    /// # Panics
    /// Panics if `n` exceeds the Cycloid capacity `d·2^d`.
    pub fn new(n: usize, space: &AttributeSpace, cfg: LormConfig) -> Self {
        Self::new_with_mode(n, space, cfg, BuildMode::Bulk)
    }

    /// Build with an explicit construction mode (overlay assembly and
    /// report placement; both modes are byte-identical, see [`BuildMode`]).
    ///
    /// # Panics
    /// Panics if `n` exceeds the Cycloid capacity `d·2^d`.
    pub fn new_with_mode(
        n: usize,
        space: &AttributeSpace,
        cfg: LormConfig,
        mode: BuildMode,
    ) -> Self {
        let overlay = Cycloid::build_with_mode(
            n,
            CycloidConfig { dimension: cfg.dimension, seed: cfg.seed },
            mode,
        );
        let keys = KeyDeriver::with_placement(space, cfg.dimension, cfg.seed, cfg.placement);
        let arena = overlay.arena_len();
        Self {
            overlay,
            keys,
            directories: vec![Directory::new(); arena],
            phys_node: (0..n).map(|i| Some(NodeIdx(i))).collect(),
            total_pieces: 0,
            mode,
            repl: 1,
            replicas: Vec::new(),
            repair: RepairStats::new(),
            sel: SelectivityEstimator::new(space),
        }
    }

    /// The underlying Cycloid overlay (read-only).
    pub fn overlay(&self) -> &Cycloid {
        &self.overlay
    }

    /// The key deriver (rescID computation).
    pub fn keys(&self) -> &KeyDeriver {
        &self.keys
    }

    /// Directory of a specific overlay node (for inspection).
    pub fn directory(&self, node: NodeIdx) -> &Directory {
        &self.directories[node.0]
    }

    /// Replica store of one node (inspection/tests).
    pub fn replicas_of(&self, node: NodeIdx) -> Option<&ReplicaStore> {
        self.replicas.get(node.0)
    }

    fn node_of(&self, phys: usize) -> Result<NodeIdx, DhtError> {
        self.phys_node.get(phys).copied().flatten().ok_or(DhtError::NodeNotFound { index: phys })
    }

    /// Pack a rescID into the replica layer's `u64` routing key (the
    /// replica entry format is overlay-agnostic; promotion unpacks it).
    fn pack_id(id: CycloidId) -> u64 {
        (u64::from(id.cubical) << 8) | u64::from(id.cyclic)
    }

    fn unpack_id(key: u64) -> CycloidId {
        CycloidId { cubical: (key >> 8) as u32, cyclic: (key & 0xFF) as u8 }
    }

    /// Copy every live primary piece to its current leaf-set targets,
    /// skipping copies that already exist. With `account` the new copies
    /// are charged to the repair counters (repair); without it they are
    /// free (initial seeding).
    fn replicate_primaries(&mut self, account: bool) {
        let mut targets: Vec<NodeIdx> = Vec::new();
        for &p in self.overlay.live_nodes() {
            targets.clear();
            if self.overlay.replica_targets_into(p, self.repl, &mut targets).is_err()
                || targets.is_empty()
            {
                continue;
            }
            let Some(dir) = self.directories.get(p.0) else { continue };
            for info in dir.iter() {
                let key = Self::pack_id(self.keys.resc_id(info.attr, info.value));
                for &t in &targets {
                    if self.replicas[t.0].insert(p, key, *info) && account {
                        self.repair.record_copy();
                    }
                }
            }
        }
    }

    /// One replica-repair round, run right after the overlay's own link
    /// repair: promote replicas whose primary died to the rescID's current
    /// root (unless a graceful handoff already put the piece there), then
    /// re-replicate every live primary to its current targets. No-op
    /// below degree 2; mirrors `ChordHost::repair_replicas_with`.
    fn repair_replicas(&mut self) {
        if self.repl <= 1 {
            return;
        }
        let arena = self.overlay.arena_len();
        if self.replicas.len() < arena {
            self.replicas.resize(arena, ReplicaStore::new());
        }
        if self.directories.len() < arena {
            self.directories.resize(arena, Directory::new());
        }
        self.repair.record_round();
        let overlay = &self.overlay;
        for holder in 0..self.replicas.len() {
            if !overlay.node(NodeIdx(holder)).map(|n| n.is_alive()).unwrap_or(false) {
                continue;
            }
            let dead = self.replicas[holder]
                .drain_dead(|p| overlay.node(p).map(|n| n.is_alive()).unwrap_or(false));
            for e in dead {
                match overlay.owner_of(Self::unpack_id(e.key)) {
                    Ok(root) if !self.directories[root.0].contains(&e.info) => {
                        self.directories[root.0].push(e.info);
                        self.total_pieces += 1;
                        self.repair.record_promotion();
                    }
                    _ => self.repair.record_dropped(),
                }
            }
        }
        self.replicate_primaries(true);
    }

    fn store(&mut self, node: NodeIdx, info: ResourceInfo) {
        if self.directories.len() < self.overlay.arena_len() {
            self.directories.resize(self.overlay.arena_len(), Directory::new());
        }
        self.directories[node.0].push(info);
        self.total_pieces += 1;
    }

    /// The intra-cluster walk of a range query: starting at the root of
    /// `ℋ(low)`, follow inside-leaf successors while the next member's
    /// value sector still intersects the queried arc `[ℋ(low), ℋ(high)]`
    /// (Proposition 3.1). Run it through a [`Probe`].
    ///
    /// The stop rule is the *sector transition*: a successor is probed iff
    /// the first cyclic position it owns (rather than the current node)
    /// lies within the arc. This stays correct when nearest-neighbor
    /// ownership wraps — e.g. a two-member cluster where `root(low)` and
    /// `root(high)` coincide but the member in between owns interior
    /// positions.
    fn range_walk(&self, lo_pos: u8, hi_pos: u8) -> ClusterWalk<'_> {
        let span = CycloidId::cw_cyclic_dist(lo_pos, hi_pos, self.overlay.dimension());
        ClusterWalk { lorm: self, arc: Some((lo_pos, span)) }
    }

    /// The walk over every member of the start's cluster (ablation mode:
    /// a range query without locality-preserving placement cannot stop
    /// early, so there is no stop rule).
    fn full_cluster_walk(&self) -> ClusterWalk<'_> {
        ClusterWalk { lorm: self, arc: None }
    }

    /// First cyclic position, walking clockwise from `cur`, that is owned
    /// by `next` rather than `cur` (the boundary between their sectors
    /// under the nearest-with-clockwise-tie ownership rule).
    fn transition_position(&self, cur: NodeIdx, next: NodeIdx) -> Option<u8> {
        let d = self.overlay.dimension();
        let ck = self.overlay.id_of(cur).ok()?.cyclic;
        let nk = self.overlay.id_of(next).ok()?.cyclic;
        for step in 1..=d {
            let p = (ck + step) % d;
            let dc = CycloidId::cyclic_dist(ck, p, d);
            let dn = CycloidId::cyclic_dist(nk, p, d);
            let next_wins = dn < dc
                || (dn == dc
                    && CycloidId::cw_cyclic_dist(p, nk, d) == dn
                    && CycloidId::cw_cyclic_dist(p, ck, d) != dc);
            if next_wins {
                return Some(p);
            }
        }
        None
    }

    /// Resolve `q` under `probe`: per attribute, one lookup of the
    /// rescID of the low value, from whose root a range walks the
    /// attribute's cluster.
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
            // Per-query hop budget: once exhausted, remaining sub-queries
            // fail unattempted.
            if out.tally.hops >= probe.hop_budget() {
                continue;
            }
            let sub_msg = probe.sub_msg(i);
            let (low, high) = sub.target.bounds();
            let resc_id = self.keys.resc_id(sub.attr, low);
            let route = probe.lookup(&self.overlay, from, resc_id, sub_msg);
            let Some(route) = out.lookup(route)? else { continue };
            walk.clear();
            let truncated = match high {
                None => {
                    walk.push(route.terminal);
                    false
                }
                Some(high) => {
                    let cluster = match self.keys.placement() {
                        // Proposition 3.1: matching roots are contiguous.
                        Placement::Lph => {
                            self.range_walk(self.keys.cyclic_of(low), self.keys.cyclic_of(high))
                        }
                        // Ablation: without locality preservation, matches
                        // can sit anywhere in the cluster — probe it all.
                        Placement::Hashed => self.full_cluster_walk(),
                    };
                    probe.walk(&cluster, route.terminal, sub_msg, &mut walk)
                }
            };
            let mut owners = Vec::new();
            for &node in &walk {
                self.directories[node.0].matching_owners_into(sub.attr, &sub.target, &mut owners);
            }
            out.answer(&walk, owners, !truncated);
        }
        Ok(out.finish(q.arity(), probe.account()))
    }
}

/// A walk along one Cycloid cluster's inside leaf set (see
/// [`Lorm::range_walk`] and [`Lorm::full_cluster_walk`]). With an arc,
/// the walk advances to the next member while the cyclic distance from
/// `lo` of the first position that member owns stays within `span` (the
/// sector rule).
struct ClusterWalk<'a> {
    lorm: &'a Lorm,
    /// `(lo position, span)` of the queried arc; `None` walks the whole
    /// cluster.
    arc: Option<(u8, u8)>,
}

impl Walk for ClusterWalk<'_> {
    fn budget(&self) -> usize {
        usize::from(self.lorm.overlay.dimension())
    }

    fn advance(&self, start: NodeIdx, cur: NodeIdx) -> Option<NodeIdx> {
        let overlay = &self.lorm.overlay;
        let next = overlay.cluster_successor(cur).ok().flatten().filter(|&next| next != start)?;
        let Some((lo_pos, span)) = self.arc else {
            return Some(next);
        };
        let p = self.lorm.transition_position(cur, next)?;
        (CycloidId::cw_cyclic_dist(lo_pos, p, overlay.dimension()) <= span).then_some(next)
    }
}

impl ResourceDiscovery for Lorm {
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "LORM"
    }

    fn num_physical(&self) -> usize {
        self.phys_node.iter().filter(|n| n.is_some()).count()
    }

    fn is_live(&self, phys: usize) -> bool {
        self.phys_node.get(phys).copied().flatten().is_some()
    }

    fn place_all(&mut self, reports: &[ResourceInfo]) {
        self.directories = vec![Directory::new(); self.overlay.arena_len()];
        self.total_pieces = 0;
        self.sel.rebuild(reports);
        if self.repl > 1 {
            // Re-placement invalidates old replica attribution; the next
            // repair round re-seeds replicas from the new primaries.
            self.replicas = vec![ReplicaStore::new(); self.overlay.arena_len()];
        }
        match self.mode {
            BuildMode::Bulk => {
                // Resolve every report's root, group by root with one
                // stable sort, and hand each node its whole batch — the
                // same directories the per-report loop produces, without
                // one shifting `Vec::insert` per new attribute bucket.
                let mut routed: Vec<(NodeIdx, ResourceInfo)> = reports
                    .iter()
                    .filter_map(|&r| {
                        let id = self.keys.resc_id(r.attr, r.value);
                        self.overlay.owner_of(id).ok().map(|root| (root, r))
                    })
                    .collect();
                self.total_pieces = routed.len();
                routed.sort_by_key(|&(root, _)| root);
                let mut rest = routed.as_slice();
                while let Some(&(root, _)) = rest.first() {
                    let run = rest.iter().take_while(|&&(n, _)| n == root).count();
                    self.directories[root.0]
                        .bulk_load(rest[..run].iter().map(|&(_, r)| r).collect());
                    rest = &rest[run..];
                }
            }
            BuildMode::Incremental => {
                for &r in reports {
                    let id = self.keys.resc_id(r.attr, r.value);
                    if let Ok(root) = self.overlay.owner_of(id) {
                        self.store(root, r);
                    }
                }
            }
        }
    }

    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError> {
        let from = self.node_of(info.owner)?;
        let id = self.keys.resc_id(info.attr, info.value);
        let route = self.overlay.route_stats(from, id)?;
        self.store(route.terminal, info);
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
        let counts: Vec<usize> =
            self.overlay.live_nodes().iter().map(|&n| self.directories[n.0].len()).collect();
        LoadDist::from_counts(&counts)
    }

    fn total_pieces(&self) -> usize {
        self.total_pieces
    }

    fn outlinks_per_node(&self) -> LoadDist {
        let links: Vec<usize> = self
            .overlay
            .live_nodes()
            .iter()
            .map(|&n| self.overlay.outlinks(n).unwrap_or(0))
            .collect();
        LoadDist::from_counts(&links)
    }

    fn join_physical(&mut self, rng: &mut SmallRng) -> Result<usize, DhtError> {
        let slot = self.overlay.random_free_slot(rng).ok_or(DhtError::IdSpaceExhausted)?;
        let idx = self.overlay.join_with_id(slot)?;
        self.directories.resize(self.overlay.arena_len(), Directory::new());
        if self.repl > 1 {
            self.replicas.resize(self.overlay.arena_len(), ReplicaStore::new());
        }
        let phys = self.phys_node.len();
        self.phys_node.push(Some(idx));
        Ok(phys)
    }

    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.node_of(phys)?;
        // Hand off stored objects before departing (Cycloid's
        // self-organization keeps stored objects available). The node's
        // replica store dies with it.
        let handoff = self.directories[node.0].drain();
        if let Some(store) = self.replicas.get_mut(node.0) {
            store.clear();
        }
        self.overlay.leave(node)?;
        self.phys_node[phys] = None;
        self.total_pieces -= handoff.len();
        for info in handoff {
            let id = self.keys.resc_id(info.attr, info.value);
            if let Ok(root) = self.overlay.owner_of(id) {
                self.store(root, info);
            }
        }
        Ok(())
    }

    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let node = self.node_of(phys)?;
        let lost = self.directories[node.0].drain();
        self.total_pieces -= lost.len();
        if let Some(store) = self.replicas.get_mut(node.0) {
            store.clear();
        }
        self.overlay.fail(node)?;
        self.phys_node[phys] = None;
        Ok(())
    }

    fn stabilize(&mut self) {
        self.overlay.rebuild_all_links();
        self.repair_replicas();
    }

    fn set_replication(&mut self, k: usize) {
        self.repl = k.max(1);
        self.repair = RepairStats::new();
        if self.repl <= 1 {
            self.replicas = Vec::new();
            return;
        }
        self.replicas = vec![ReplicaStore::new(); self.overlay.arena_len()];
        self.replicate_primaries(false);
    }

    fn replication(&self) -> usize {
        self.repl
    }

    fn repair_stats(&self) -> RepairStats {
        self.repair
    }

    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        for &n in self.overlay.live_nodes() {
            if let Some(dir) = self.directories.get(n.0) {
                out.extend(dir.iter().map(PieceKey::of));
            }
            if let Some(store) = self.replicas.get(n.0) {
                store.keys_into(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_resource::{AttrId, QueryMix, SubQuery, ValueTarget, Workload, WorkloadConfig};
    use rand::SeedableRng;

    fn small_workload() -> (Workload, Lorm) {
        small_workload_placed(Placement::Lph)
    }

    /// [`small_workload`] under an explicit value placement (`Hashed`
    /// range queries take the full-cluster walk).
    fn small_workload_placed(placement: Placement) -> (Workload, Lorm) {
        let mut rng = SmallRng::seed_from_u64(0xAB);
        let cfg = WorkloadConfig {
            num_attrs: 30,
            values_per_attr: 100,
            num_nodes: 512,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut l = Lorm::new(512, &w.space, LormConfig { dimension: 8, seed: 0xD0, placement });
        l.place_all(&w.reports);
        (w, l)
    }

    /// Full-population fixture: every Cycloid slot occupied, so clusters
    /// have all `d = 8` members (the paper's 2048-node setup).
    fn full_workload() -> (Workload, Lorm) {
        let mut rng = SmallRng::seed_from_u64(0xAC);
        let cfg = WorkloadConfig {
            num_attrs: 30,
            values_per_attr: 100,
            num_nodes: 2048,
            ..Default::default()
        };
        let w = Workload::generate(cfg, &mut rng).unwrap();
        let mut l = Lorm::new(
            2048,
            &w.space,
            LormConfig { dimension: 8, seed: 0xD1, ..Default::default() },
        );
        l.place_all(&w.reports);
        (w, l)
    }

    /// Brute-force reference: owners whose reports satisfy the target.
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
    fn placement_conserves_pieces() {
        let (w, l) = small_workload();
        assert_eq!(l.total_pieces(), w.reports.len());
        assert_eq!(l.directory_loads().total() as usize, w.reports.len());
    }

    #[test]
    fn attribute_lives_in_one_cluster() {
        let (w, l) = small_workload();
        for attr in w.space.ids() {
            let mut clusters: Vec<u32> = l
                .overlay()
                .live_nodes()
                .iter()
                .filter(|&&n| l.directory(n).iter().any(|r| r.attr == attr))
                .map(|&n| l.overlay().id_of(n).unwrap().cubical)
                .collect();
            clusters.sort_unstable();
            clusters.dedup();
            assert!(clusters.len() <= 1, "attribute {attr} spread over {clusters:?}");
        }
    }

    #[test]
    fn point_query_finds_exactly_matching_owners() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let q = w.random_query(1, QueryMix::NonRange, &mut rng);
            let sub = q.subs[0];
            let out = l.query_from(3, &q).unwrap();
            let mut got = out.owners.clone();
            got.sort_unstable();
            assert_eq!(got, brute(&w, sub.attr, &sub.target), "point query {sub:?}");
        }
    }

    #[test]
    fn range_query_is_complete() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..200 {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            let sub = q.subs[0];
            let out = l.query_from(5, &q).unwrap();
            let mut got = out.owners.clone();
            got.sort_unstable();
            assert_eq!(got, brute(&w, sub.attr, &sub.target), "range query {sub:?}");
        }
    }

    #[test]
    fn multi_attribute_join_intersects() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let q = w.random_query(3, QueryMix::Range, &mut rng);
            let out = l.query_from(0, &q).unwrap();
            let expected = grid_resource::discovery::join_owners(
                q.subs.iter().map(|s| brute(&w, s.attr, &s.target)).collect(),
            );
            let mut got = out.owners.clone();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn point_query_visits_one_node_per_attribute() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(10);
        for arity in [1usize, 4, 8] {
            let q = w.random_query(arity, QueryMix::NonRange, &mut rng);
            let out = l.query_from(1, &q).unwrap();
            assert_eq!(out.tally.visited, arity);
            assert_eq!(out.tally.lookups, arity);
        }
    }

    #[test]
    fn range_visits_bounded_by_cluster_size() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            let out = l.query_from(2, &q).unwrap();
            assert!(
                out.tally.visited <= 8,
                "range probes {} exceed cluster size d=8",
                out.tally.visited
            );
        }
    }

    #[test]
    fn average_range_visits_near_one_plus_quarter_d() {
        // Theorem 4.9: LORM visits 1 + d/4 nodes per attribute on average
        // (3 for d = 8). Requires full clusters, as in the paper's setup.
        let (w, l) = full_workload();
        let mut rng = SmallRng::seed_from_u64(12);
        let mut total = 0usize;
        let trials = 1000;
        for _ in 0..trials {
            let q = w.random_query(1, QueryMix::Range, &mut rng);
            total += l.query_from(0, &q).unwrap().tally.visited;
        }
        let avg = total as f64 / trials as f64;
        assert!((2.0..4.2).contains(&avg), "avg range visits {avg}, expected ≈3");
    }

    #[test]
    fn full_domain_range_is_complete() {
        // Regression: when root(low) == root(high) but the range arc
        // covers the whole sector ring (e.g. two-member clusters), the
        // walk must still probe the interior members.
        let (w, l) = small_workload();
        let (dmin, dmax) = w.space.domain();
        for attr in w.space.ids() {
            let q = Query::new(vec![SubQuery {
                attr,
                target: ValueTarget::Range { low: dmin, high: dmax },
            }])
            .unwrap();
            let out = l.query_from(0, &q).unwrap();
            let mut got = out.owners.clone();
            got.sort_unstable();
            let t = ValueTarget::Range { low: dmin, high: dmax };
            assert_eq!(got, brute(&w, attr, &t), "full-domain range on {attr}");
        }
    }

    #[test]
    fn register_routes_and_stores() {
        let (w, mut l) = small_workload();
        let before = l.total_pieces();
        let info = ResourceInfo { attr: AttrId(0), value: 42.0, owner: 17 };
        let t = l.register(info).unwrap();
        assert_eq!(l.total_pieces(), before + 1);
        assert_eq!(t.lookups, 1);
        // the new piece is findable
        let q = Query::new(vec![SubQuery { attr: AttrId(0), target: ValueTarget::Point(42.0) }])
            .unwrap();
        let out = l.query_from(0, &q).unwrap();
        assert!(out.owners.contains(&17));
        let _ = w;
    }

    #[test]
    fn register_from_departed_owner_errors() {
        let (_, mut l) = small_workload();
        l.leave_physical(100).unwrap();
        let info = ResourceInfo { attr: AttrId(1), value: 5.0, owner: 100 };
        assert!(l.register(info).is_err());
    }

    #[test]
    fn leave_hands_off_directory() {
        let (w, mut l) = small_workload();
        let victim_node = l.node_of(200).unwrap();
        let victim_load = l.directory(victim_node).len();
        let total = l.total_pieces();
        l.leave_physical(200).unwrap();
        assert_eq!(l.total_pieces(), total, "handoff must not lose pieces");
        assert!(!l.is_live(200));
        assert_eq!(l.num_physical(), 511);
        let _ = (victim_load, w);
    }

    #[test]
    fn queries_survive_churn_with_repair() {
        let (w, mut l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(13);
        for i in 0..30 {
            if i % 2 == 0 {
                let _ = l.join_physical(&mut rng);
            } else {
                // pick a live physical node to remove
                let phys = (0..l.phys_node.len()).find(|&p| l.is_live(p)).unwrap();
                l.leave_physical(phys).unwrap();
            }
        }
        l.stabilize();
        l.place_all(&w.reports);
        let mut rng2 = SmallRng::seed_from_u64(14);
        for _ in 0..50 {
            let q = w.random_query(2, QueryMix::Range, &mut rng2);
            let phys = (0..l.phys_node.len()).rev().find(|&p| l.is_live(p)).unwrap();
            let out = l.query_from(phys, &q).unwrap();
            let expected = grid_resource::discovery::join_owners(
                q.subs.iter().map(|s| brute(&w, s.attr, &s.target)).collect(),
            );
            let mut got = out.owners.clone();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn outlinks_stay_constant() {
        let (_, l) = small_workload();
        let links = l.outlinks_per_node();
        assert!(links.max() <= 8.0, "constant degree violated: {}", links.max());
        assert!(links.mean() > 3.0);
    }

    #[test]
    fn inert_fault_plan_query_is_identical_to_plain() {
        for placement in [Placement::Lph, Placement::Hashed] {
            let (w, l) = small_workload_placed(placement);
            let mut rng = SmallRng::seed_from_u64(21);
            let plan = FaultPlan::new(0x51EE7, 0.0, 0.0).unwrap();
            for i in 0..40u64 {
                let q = w.random_query(2, QueryMix::Range, &mut rng);
                let plain = l.query_from(1, &q).unwrap();
                let faulty = l.query_from_faulty(1, &q, &plan, 1000 + i).unwrap();
                assert_eq!(faulty.outcome, plain, "{placement:?}");
                assert!(faulty.is_complete());
                assert_eq!(faulty.retries, 0);
                assert_eq!(faulty.dropped_msgs, 0);
            }
        }
    }

    #[test]
    fn total_loss_fails_every_remote_sub_query() {
        let (w, l) = small_workload();
        let mut rng = SmallRng::seed_from_u64(22);
        let plan = FaultPlan::new(0xBAD, 1.0, 0.0).unwrap();
        let mut failed = 0usize;
        for i in 0..40u64 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            let f = l.query_from_faulty(2, &q, &plan, i).unwrap();
            // Only a sub whose root happens to be the querier itself can
            // survive total loss (zero-hop lookup, but the walk probes
            // still all drop — so the walk stays at one node).
            assert!(f.subs_resolved <= f.subs_answered);
            assert!(f.dropped_msgs > 0);
            if f.is_failed() {
                failed += 1;
            }
        }
        assert!(failed >= 35, "total loss should fail nearly every query, failed={failed}");
    }

    #[test]
    fn faulty_queries_are_deterministic() {
        let (w, l) = small_workload();
        let plan = FaultPlan::new(0xFA11, 0.2, 0.1).unwrap();
        let mut rng_a = SmallRng::seed_from_u64(23);
        let mut rng_b = SmallRng::seed_from_u64(23);
        for i in 0..30u64 {
            let qa = w.random_query(3, QueryMix::Range, &mut rng_a);
            let qb = w.random_query(3, QueryMix::Range, &mut rng_b);
            let a = l.query_from_faulty(4, &qa, &plan, i).unwrap();
            let b = l.query_from_faulty(4, &qb, &plan, i).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn moderate_loss_degrades_some_queries_without_errors() {
        let (w, l) = small_workload();
        let plan = FaultPlan::new(0xFA12, 0.2, 0.05).unwrap();
        let mut rng = SmallRng::seed_from_u64(24);
        let (mut complete, mut partial, mut failed) = (0usize, 0usize, 0usize);
        for i in 0..120u64 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            let f = l.query_from_faulty(5, &q, &plan, i).unwrap();
            match (f.is_complete(), f.is_failed()) {
                (true, _) => complete += 1,
                (_, true) => failed += 1,
                _ => partial += 1,
            }
        }
        assert_eq!(complete + partial + failed, 120);
        assert!(complete > 0, "20% loss with retry should still complete some queries");
        assert!(partial + failed > 0, "20% loss should degrade some queries");
    }

    #[test]
    fn replicated_pieces_survive_single_failures_between_repairs() {
        // Full occupancy: every cluster has all d = 8 members, so every
        // root has a live leaf-set replica target. With degree 2 and one
        // failure per repair window no piece can be lost. (At partial
        // occupancy single-member clusters have no replica target — the
        // durability sweep measures exactly that exposure.)
        let (_, mut l) = full_workload();
        l.set_replication(2);
        assert_eq!(l.replication(), 2);
        let mut initial = Vec::new();
        l.surviving_pieces_into(&mut initial);
        grid_resource::canonicalize_pieces(&mut initial);
        assert!(!initial.is_empty());
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for round in 0..10 {
            let phys = loop {
                let p = rand::Rng::gen_range(&mut rng, 0..2048);
                if l.is_live(p) {
                    break p;
                }
            };
            l.fail_physical(phys).unwrap();
            l.stabilize();
            let mut now = Vec::new();
            l.surviving_pieces_into(&mut now);
            grid_resource::canonicalize_pieces(&mut now);
            assert_eq!(
                grid_resource::count_surviving(&initial, &now),
                initial.len(),
                "pieces lost in round {round}"
            );
        }
        assert!(l.repair_stats().transfers() > 0, "repair must have moved copies");
    }

    #[test]
    fn k1_replication_stays_a_no_op() {
        let (_, mut l) = small_workload();
        let mut before = Vec::new();
        l.surviving_pieces_into(&mut before);
        l.set_replication(1);
        l.stabilize();
        assert_eq!(l.replication(), 1);
        assert_eq!(l.repair_stats().rounds(), 0);
        let mut after = Vec::new();
        l.surviving_pieces_into(&mut after);
        assert_eq!(after, before);
    }

    #[test]
    fn directory_balance_beats_centralization() {
        // All information of an attribute spreads over its cluster's d
        // nodes, so the 99th percentile stays well below "everything on
        // one node" (k pieces, what SWORD would do). Theorem 4.4.
        let (w, l) = full_workload();
        let loads = l.directory_loads();
        let k = w.config().values_per_attr as f64;
        assert!(loads.p99() < k / 2.0, "p99 {} should be well below k = {k}", loads.p99());
    }
}
