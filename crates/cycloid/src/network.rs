//! The Cycloid network: slot arena, cluster bookkeeping, churn, repair.

use crate::id::CycloidId;
use crate::node::CycloidNode;
use dht_core::{BuildMode, DhtError, NodeIdx, Overlay, RouteResult, RouteStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Construction parameters for a [`Cycloid`] overlay.
#[derive(Debug, Clone, Copy)]
pub struct CycloidConfig {
    /// Dimension `d`: clusters hold up to `d` nodes, there are `2^d`
    /// clusters, and the identifier space holds `d·2^d` slots. The paper's
    /// evaluation uses `d = 8` (2048 slots).
    pub dimension: u8,
    /// Seed for slot assignment.
    pub seed: u64,
}

impl Default for CycloidConfig {
    fn default() -> Self {
        Self { dimension: 8, seed: 0x0C1C101D }
    }
}

/// A Cycloid overlay network.
///
/// Nodes live in an arena; departed nodes are tomb-stoned. Ground-truth
/// occupancy tables (`slots`, `clusters`) are used for construction,
/// repair and `owner_of` assertions — never by routing, which reads only
/// the local state of the node holding the message.
///
/// ```
/// use cycloid::{Cycloid, CycloidConfig, CycloidId};
/// use dht_core::Overlay;
///
/// // a full d = 5 Cycloid: 5·2^5 = 160 nodes in 32 clusters of 5
/// let net = Cycloid::build(160, CycloidConfig { dimension: 5, seed: 1 });
/// assert_eq!(net.occupied_clusters().len(), 32);
///
/// let key = CycloidId::new(2, 17, 5); // (cyclic, cubical)
/// let from = net.live_nodes()[0];
/// let route = net.route(from, key).unwrap();
/// assert!(route.exact);
/// assert!(route.hops() <= 3 * 5, "paths are O(d)");
/// ```
#[derive(Debug, Clone)]
pub struct Cycloid {
    pub(crate) nodes: Vec<CycloidNode>,
    cfg: CycloidConfig,
    /// Slot -> node, ground truth. Length `d·2^d`.
    slots: Vec<Option<NodeIdx>>,
    /// Sorted cubical indices of non-empty clusters.
    occupied: Vec<u32>,
    /// Per-cluster member lists in one flat array, strided `d` per cluster
    /// (a cluster holds at most `d` nodes); `cluster_slots[c*d..]` holds
    /// `cluster_lens[c]` members sorted by cyclic index. One contiguous
    /// allocation instead of `2^d` boxed `Vec`s — cluster edits shift at
    /// most `d` entries in place, and cloning the overlay is a `memcpy`.
    cluster_slots: Vec<NodeIdx>,
    /// Member count per cluster. Length `2^d`.
    cluster_lens: Vec<u8>,
    /// Arena indices of all live nodes, ascending. Maintained
    /// incrementally (arena indices grow monotonically, so `occupy`
    /// appends and `vacate` binary-searches) so [`Overlay::live_nodes`]
    /// is a borrow, not a full-arena scan-and-collect.
    live_sorted: Vec<NodeIdx>,
    live: usize,
    rng: SmallRng,
}

impl Cycloid {
    /// An empty overlay of the given dimension.
    pub fn new(cfg: CycloidConfig) -> Self {
        let cap = cfg.dimension as usize * (1usize << cfg.dimension);
        Self {
            nodes: Vec::new(),
            cfg,
            slots: vec![None; cap],
            occupied: Vec::new(),
            cluster_slots: vec![NodeIdx(usize::MAX); cap],
            cluster_lens: vec![0; 1usize << cfg.dimension],
            live_sorted: Vec::new(),
            live: 0,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xCAB005E),
        }
    }

    /// Bulk-construct a fully repaired network of `n ≤ d·2^d` nodes on
    /// uniformly random distinct slots (all slots when `n` equals the
    /// capacity, as in the paper's 2048-node setup with `d = 8`).
    /// Equivalent to `build_with_mode(n, cfg, BuildMode::Bulk)`.
    ///
    /// # Panics
    /// Panics if `n` exceeds the identifier-space capacity.
    pub fn build(n: usize, cfg: CycloidConfig) -> Self {
        Self::build_with_mode(n, cfg, BuildMode::Bulk)
    }

    /// Construct a fully repaired network with an explicit build mode.
    /// Both modes draw the same slot sample and produce byte-identical
    /// overlays; `Incremental` occupies one slot at a time (each insert
    /// shifting the sorted `occupied` list — O(n·2^d) aggregate) and is
    /// kept as the reference path for validating the bulk constructor.
    ///
    /// # Panics
    /// Panics if `n` exceeds the identifier-space capacity.
    pub fn build_with_mode(n: usize, cfg: CycloidConfig, mode: BuildMode) -> Self {
        let mut net = Self::new(cfg);
        let cap = net.capacity();
        assert!(n <= cap, "cannot place {n} nodes in {cap} Cycloid slots");
        // Partial Fisher-Yates over slot numbers for a uniform sample.
        let mut slots: Vec<usize> = (0..cap).collect();
        for i in 0..n {
            let j = net.rng.gen_range(i..cap);
            slots.swap(i, j);
        }
        match mode {
            BuildMode::Bulk => net.bulk_occupy(&slots[..n]),
            BuildMode::Incremental => {
                for &s in &slots[..n] {
                    net.occupy(CycloidId::from_slot(s, cfg.dimension));
                }
            }
        }
        net.rebuild_all_links();
        net
    }

    /// Assemble the membership tables in one sorted pass: push the arena
    /// rows in draw order (matching the incremental path), then derive the
    /// cluster member lists and the `occupied` list from one sort of
    /// `(cubical, cyclic, idx)` triples — O(n log n) total where per-slot
    /// `occupy` calls shift the sorted occupied list on every first member.
    fn bulk_occupy(&mut self, draw: &[usize]) {
        let d = self.cfg.dimension;
        self.nodes.reserve(draw.len());
        self.live_sorted.reserve(draw.len());
        let mut triples: Vec<(u32, u8, NodeIdx)> = Vec::with_capacity(draw.len());
        for &s in draw {
            let id = CycloidId::from_slot(s, d);
            debug_assert!(self.slots[s].is_none());
            let idx = NodeIdx(self.nodes.len());
            self.nodes.push(CycloidNode::new(id));
            self.slots[s] = Some(idx);
            self.live_sorted.push(idx);
            triples.push((id.cubical, id.cyclic, idx));
        }
        self.live = draw.len();
        triples.sort_unstable();
        let stride = d as usize;
        for &(cubical, _, idx) in &triples {
            let c = cubical as usize;
            let len = self.cluster_lens[c] as usize;
            if len == 0 {
                self.occupied.push(cubical);
            }
            self.cluster_slots[c * stride + len] = idx;
            self.cluster_lens[c] = (len + 1) as u8;
        }
        debug_assert!(self.occupied.windows(2).all(|w| w[0] < w[1]));
    }

    /// Total number of identifier slots (`d·2^d`).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Size of the node arena (live + tomb-stoned slots). Directory
    /// bookkeeping in higher layers indexes by arena slot.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// The dimension `d`.
    pub fn dimension(&self) -> u8 {
        self.cfg.dimension
    }

    /// Configuration the network was built with.
    pub fn config(&self) -> &CycloidConfig {
        &self.cfg
    }

    fn occupy(&mut self, id: CycloidId) -> NodeIdx {
        let d = self.cfg.dimension;
        debug_assert!(self.slots[id.slot(d)].is_none());
        let idx = NodeIdx(self.nodes.len());
        self.nodes.push(CycloidNode::new(id));
        self.slots[id.slot(d)] = Some(idx);
        let stride = d as usize;
        let base = id.cubical as usize * stride;
        let len = self.cluster_lens[id.cubical as usize] as usize;
        debug_assert!(len < stride, "cluster already full");
        let pos = self.cluster_slots[base..base + len]
            .partition_point(|&m| self.nodes[m.0].id.cyclic < id.cyclic);
        // In-stride ordered insert: at most `d` entries shift.
        self.cluster_slots.copy_within(base + pos..base + len, base + pos + 1);
        self.cluster_slots[base + pos] = idx;
        self.cluster_lens[id.cubical as usize] = (len + 1) as u8;
        debug_assert!(
            self.cluster_members(id.cubical)
                .windows(2)
                .all(|w| self.nodes[w[0].0].id.cyclic < self.nodes[w[1].0].id.cyclic),
            "cluster members must stay sorted by cyclic index"
        );
        if len == 0 {
            let cpos = self.occupied.partition_point(|&c| c < id.cubical);
            self.occupied.insert(cpos, id.cubical);
        }
        debug_assert!(
            self.occupied.windows(2).all(|w| w[0] < w[1]),
            "occupied cluster list must stay strictly sorted"
        );
        // Arena indices only grow, so appending keeps the list sorted.
        self.live_sorted.push(idx);
        self.live += 1;
        idx
    }

    fn vacate(&mut self, idx: NodeIdx) {
        let id = self.nodes[idx.0].id;
        let d = self.cfg.dimension;
        self.nodes[idx.0].alive = false;
        self.slots[id.slot(d)] = None;
        let stride = d as usize;
        let base = id.cubical as usize * stride;
        let len = self.cluster_lens[id.cubical as usize] as usize;
        if let Some(pos) = self.cluster_slots[base..base + len].iter().position(|&m| m == idx) {
            self.cluster_slots.copy_within(base + pos + 1..base + len, base + pos);
            self.cluster_lens[id.cubical as usize] = (len - 1) as u8;
        }
        if self.cluster_lens[id.cubical as usize] == 0 {
            if let Ok(p) = self.occupied.binary_search(&id.cubical) {
                self.occupied.remove(p);
            }
        }
        if let Ok(p) = self.live_sorted.binary_search(&idx) {
            self.live_sorted.remove(p);
        }
        self.live -= 1;
    }

    /// Borrow a node's state.
    pub fn node(&self, idx: NodeIdx) -> Result<&CycloidNode, DhtError> {
        self.nodes.get(idx.0).ok_or(DhtError::NodeNotFound { index: idx.0 })
    }

    pub(crate) fn live_node(&self, idx: NodeIdx) -> Result<&CycloidNode, DhtError> {
        let n = self.node(idx)?;
        if n.alive {
            Ok(n)
        } else {
            Err(DhtError::NodeNotFound { index: idx.0 })
        }
    }

    /// Identifier of `idx`.
    pub fn id_of(&self, idx: NodeIdx) -> Result<CycloidId, DhtError> {
        Ok(self.node(idx)?.id)
    }

    /// Members of cluster `cubical`, sorted by cyclic index (ground truth;
    /// used by tests and by the experiment harness, not by routing). A
    /// borrow of the flat strided member table.
    pub fn cluster_members(&self, cubical: u32) -> &[NodeIdx] {
        let stride = self.cfg.dimension as usize;
        let base = cubical as usize * stride;
        &self.cluster_slots[base..base + self.cluster_lens[cubical as usize] as usize]
    }

    /// Cubical indices of all non-empty clusters, sorted.
    pub fn occupied_clusters(&self) -> &[u32] {
        &self.occupied
    }

    /// Current primary (largest cyclic index) of cluster `cubical`.
    pub fn primary_of(&self, cubical: u32) -> Option<NodeIdx> {
        self.cluster_members(cubical).last().copied()
    }

    /// Intra-cluster successor via the node-local inside leaf set.
    /// This is the link LORM's range forwarding walks.
    pub fn cluster_successor(&self, idx: NodeIdx) -> Result<Option<NodeIdx>, DhtError> {
        let n = self.live_node(idx)?;
        Ok(n.inside_succ.filter(|&s| self.nodes[s.0].alive))
    }

    /// Intra-cluster predecessor via the node-local inside leaf set.
    pub fn cluster_predecessor(&self, idx: NodeIdx) -> Result<Option<NodeIdx>, DhtError> {
        let n = self.live_node(idx)?;
        Ok(n.inside_pred.filter(|&s| self.nodes[s.0].alive))
    }

    /// Append up to `k - 1` replica targets for live node `idx`: the next
    /// members of its own cluster in cyclic order (leaf-set placement),
    /// wrapping around, never `idx` itself. A cluster smaller than `k`
    /// caps the target set at its size — replication is best-effort
    /// within the leaf set, exactly like a short successor list.
    ///
    /// The result at degree `k` is a prefix of the result at `k + 1`
    /// ([`dht_core::replica_targets`] is a prefix rule), which makes
    /// piece survival monotone in the replication degree.
    pub fn replica_targets_into(
        &self,
        idx: NodeIdx,
        k: usize,
        out: &mut Vec<NodeIdx>,
    ) -> Result<(), DhtError> {
        let id = self.live_node(idx)?.id;
        let members = self.cluster_members(id.cubical);
        let Some(pos) = members.iter().position(|&m| m == idx) else {
            return Err(DhtError::NodeNotFound { index: idx.0 });
        };
        dht_core::replica_targets(members, pos, k, out);
        Ok(())
    }

    /// Pick a uniformly random live node.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeIdx> {
        if self.live == 0 {
            return None;
        }
        loop {
            let i = rng.gen_range(0..self.nodes.len());
            if self.nodes[i].alive {
                return Some(NodeIdx(i));
            }
        }
    }

    /// Pick a uniformly random *free* slot, if any.
    pub fn random_free_slot<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<CycloidId> {
        if self.live == self.capacity() {
            return None;
        }
        loop {
            let s = rng.gen_range(0..self.slots.len());
            if self.slots[s].is_none() {
                return Some(CycloidId::from_slot(s, self.cfg.dimension));
            }
        }
    }

    // ------------------------------------------------------------------
    // Ground-truth ownership (consistent-hashing assignment)
    // ------------------------------------------------------------------

    /// The occupied cluster nearest to `b` on the large cycle; ties broken
    /// towards the cluster reached *clockwise* from `b`.
    pub fn nearest_occupied_cluster(&self, b: u32) -> Result<u32, DhtError> {
        if self.occupied.is_empty() {
            return Err(DhtError::EmptyOverlay);
        }
        let d = self.cfg.dimension;
        let n = self.occupied.len();
        let pos = self.occupied.partition_point(|&c| c < b);
        let next = self.occupied[pos % n]; // first >= b (wrapping)
        let prev = self.occupied[(pos + n - 1) % n]; // last < b (wrapping)
        let dn = CycloidId::cluster_dist(b, next, d);
        let dp = CycloidId::cluster_dist(b, prev, d);
        if dn <= dp {
            // covers the tie: `next` is the clockwise-side cluster
            Ok(next)
        } else {
            Ok(prev)
        }
    }

    /// The member of cluster `c` nearest to cyclic position `l`; ties
    /// broken towards the node reached clockwise from `l`.
    pub fn nearest_in_cluster(&self, c: u32, l: u8) -> Option<NodeIdx> {
        let d = self.cfg.dimension;
        let members = self.cluster_members(c);
        members.iter().copied().min_by_key(|&m| {
            let k = self.nodes[m.0].id.cyclic;
            let dist = CycloidId::cyclic_dist(k, l, d);
            // among equal distances prefer the clockwise-side node
            let cw_tie = u8::from(CycloidId::cw_cyclic_dist(l, k, d) != dist);
            (dist, cw_tie)
        })
    }

    // ------------------------------------------------------------------
    // Link construction / repair
    // ------------------------------------------------------------------

    /// Resolve the node nearest an ideal identifier (link maintenance).
    fn resolve(&self, ideal: CycloidId) -> Option<NodeIdx> {
        let c = self.nearest_occupied_cluster(ideal.cubical).ok()?;
        self.nearest_in_cluster(c, ideal.cyclic)
    }

    /// Recompute the full routing state of every live node from ground
    /// truth — the simulator's "perfect stabilization" tick, also used by
    /// `build`.
    pub fn rebuild_all_links(&mut self) {
        // Owned snapshot: rebuilding mutates node state while iterating.
        let indices = self.live_sorted.clone();
        for idx in indices {
            self.rebuild_links_of(idx);
        }
    }

    /// Recompute one node's links from ground truth (the effect of that
    /// node running its own maintenance round).
    pub fn rebuild_links_of(&mut self, idx: NodeIdx) {
        let d = self.cfg.dimension;
        let id = self.nodes[idx.0].id;
        let members = self.cluster_members(id.cubical);
        let mpos = members
            .iter()
            .position(|&m| m == idx)
            // lint:allow(panic-hygiene): occupy() inserts every live node
            // into clusters[id.cubical]; leave()/fail() remove it — a live
            // node is always a member of its own cluster.
            .expect("member of own cluster");
        let mlen = members.len();
        let inside_succ = if mlen > 1 { Some(members[(mpos + 1) % mlen]) } else { None };
        let inside_pred = if mlen > 1 { Some(members[(mpos + mlen - 1) % mlen]) } else { None };
        let primary = Some(members[mlen - 1]);

        // Outside leaf set: primaries of adjacent occupied clusters.
        let (outside_pred, outside_succ) = {
            let occ = &self.occupied;
            let n = occ.len();
            if n <= 1 {
                (None, None)
            } else {
                let p = occ
                    .binary_search(&id.cubical)
                    // lint:allow(panic-hygiene): this node is alive in its
                    // cluster, so occupy() has listed the cluster in
                    // `occupied` (removed only when the last member goes).
                    .expect("own cluster occupied");
                let succ_c = occ[(p + 1) % n];
                let pred_c = occ[(p + n - 1) % n];
                (self.primary_of(pred_c), self.primary_of(succ_c))
            }
        };

        let k = id.cyclic;
        let down = (k + d - 1) % d;
        let mask = ((1u64 << d) - 1) as u32;
        let jump = 1u32 << k;
        let cubical_target = CycloidId { cyclic: down, cubical: id.cubical ^ jump };
        let cyc_minus = CycloidId { cyclic: down, cubical: id.cubical.wrapping_sub(jump) & mask };
        let cyc_plus = CycloidId { cyclic: down, cubical: id.cubical.wrapping_add(jump) & mask };
        let cubical_nbr = self.resolve(cubical_target).filter(|&x| x != idx);
        let cyclic_nbrs = [
            self.resolve(cyc_minus).filter(|&x| x != idx),
            self.resolve(cyc_plus).filter(|&x| x != idx),
        ];

        let node = &mut self.nodes[idx.0];
        node.inside_pred = inside_pred;
        node.inside_succ = inside_succ;
        node.outside_pred = outside_pred;
        node.outside_succ = outside_succ;
        node.cubical_nbr = cubical_nbr;
        node.cyclic_nbrs = cyclic_nbrs;
        node.primary = primary;
    }

    /// Repair the *local neighborhood* of cluster `c`: inside leaf sets and
    /// primary caches of its members, plus the outside leaf sets of the two
    /// adjacent occupied clusters. This is the bounded self-organization a
    /// join/leave triggers in the real protocol.
    fn repair_cluster_neighborhood(&mut self, c: u32) {
        let members: Vec<NodeIdx> = self.cluster_members(c).to_vec();
        for idx in members {
            self.rebuild_links_of(idx);
        }
        let occ = self.occupied.clone();
        let n = occ.len();
        if n > 1 {
            let p = match occ.binary_search(&c) {
                Ok(p) | Err(p) => p % n,
            };
            for adj in [occ[(p + 1) % n], occ[(p + n - 1) % n]] {
                let adj_members: Vec<NodeIdx> = self.cluster_members(adj).to_vec();
                for idx in adj_members {
                    self.rebuild_links_of(idx);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    /// Join a new node on a uniformly random free slot.
    ///
    /// # Errors
    /// [`DhtError::IdSpaceExhausted`] when every slot is occupied.
    pub fn join_random(&mut self) -> Result<NodeIdx, DhtError> {
        let mut rng = self.rng.clone();
        let id = self.random_free_slot(&mut rng).ok_or(DhtError::IdSpaceExhausted)?;
        self.rng = rng;
        self.join_with_id(id)
    }

    /// Join a new node on an explicit free slot.
    pub fn join_with_id(&mut self, id: CycloidId) -> Result<NodeIdx, DhtError> {
        let d = self.cfg.dimension;
        if id.cyclic >= d || (id.cubical as u64) >= (1u64 << d) {
            return Err(DhtError::InvalidParameter {
                what: "CycloidId out of range for dimension",
            });
        }
        if self.slots[id.slot(d)].is_some() {
            return Err(DhtError::IdSpaceExhausted);
        }
        let idx = self.occupy(id);
        self.repair_cluster_neighborhood(id.cubical);
        Ok(idx)
    }

    /// Graceful departure: the node hands off, its cluster neighborhood
    /// repairs immediately, and — as in Cycloid's self-organization — it
    /// notifies every node holding a link to it so they re-resolve.
    pub fn leave(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.live_node(idx)?;
        let c = self.nodes[idx.0].id.cubical;
        self.vacate(idx);
        self.repair_cluster_neighborhood(c);
        // Notify in-neighbors (the departing node knows them in the real
        // protocol; the simulator finds them by scanning the live list).
        let in_neighbors: Vec<NodeIdx> = self
            .live_sorted
            .iter()
            .copied()
            .filter(|&j| self.nodes[j.0].all_links().any(|l| l == idx))
            .collect();
        for j in in_neighbors {
            self.rebuild_links_of(j);
        }
        Ok(())
    }

    /// Abrupt failure: the node vanishes; neighbors' links stay stale until
    /// the next repair round.
    pub fn fail(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.live_node(idx)?;
        self.vacate(idx);
        Ok(())
    }
}

impl Overlay for Cycloid {
    type Key = CycloidId;

    fn len(&self) -> usize {
        self.live
    }

    fn live_nodes(&self) -> &[NodeIdx] {
        &self.live_sorted
    }

    fn owner_of(&self, key: CycloidId) -> Result<NodeIdx, DhtError> {
        let c = self.nearest_occupied_cluster(key.cubical)?;
        self.nearest_in_cluster(c, key.cyclic).ok_or(DhtError::EmptyOverlay)
    }

    fn route(&self, from: NodeIdx, key: CycloidId) -> Result<RouteResult, DhtError> {
        self.route_from(from, key)
    }

    fn route_stats(&self, from: NodeIdx, key: CycloidId) -> Result<RouteStats, DhtError> {
        self.route_stats_from(from, key)
    }

    fn route_stats_faulty(
        &self,
        from: NodeIdx,
        key: CycloidId,
        plan: &dht_core::FaultPlan,
        msg: dht_core::MsgId,
    ) -> Result<RouteStats, DhtError> {
        // Inert plans take the plain fast path: zero-fault runs must be
        // byte-identical to fault-free runs.
        if plan.is_inert() {
            return self.route_stats_from(from, key);
        }
        self.route_stats_faulty_from(from, key, plan, msg)
    }

    fn outlinks(&self, node: NodeIdx) -> Result<usize, DhtError> {
        let n = self.live_node(node)?;
        Ok(n.distinct_neighbors(node).iter().filter(|&&x| self.nodes[x.0].alive).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize, d: u8) -> Cycloid {
        Cycloid::build(n, CycloidConfig { dimension: d, seed: 7 })
    }

    #[test]
    fn full_build_occupies_every_slot() {
        let c = net(2048, 8);
        assert_eq!(c.len(), 2048);
        assert_eq!(c.capacity(), 2048);
        assert_eq!(c.occupied_clusters().len(), 256);
        for cub in 0..256u32 {
            assert_eq!(c.cluster_members(cub).len(), 8);
        }
    }

    #[test]
    fn bulk_and_incremental_builds_are_identical() {
        for (n, d) in [(1usize, 4u8), (13, 4), (500, 8), (2048, 8)] {
            let cfg = CycloidConfig { dimension: d, seed: 7 };
            let bulk = Cycloid::build_with_mode(n, cfg, BuildMode::Bulk);
            let inc = Cycloid::build_with_mode(n, cfg, BuildMode::Incremental);
            assert_eq!(bulk.nodes, inc.nodes, "arena diverged at n={n} d={d}");
            assert_eq!(bulk.slots, inc.slots);
            assert_eq!(bulk.occupied, inc.occupied);
            assert_eq!(bulk.cluster_slots, inc.cluster_slots);
            assert_eq!(bulk.cluster_lens, inc.cluster_lens);
            assert_eq!(bulk.live_sorted, inc.live_sorted);
        }
    }

    #[test]
    fn sparse_build_has_requested_size() {
        let c = net(500, 8);
        assert_eq!(c.len(), 500);
        let total: usize = (0..256u32).map(|cub| c.cluster_members(cub).len()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn overfull_build_panics() {
        let _ = net(2049, 8);
    }

    #[test]
    fn outlinks_are_constant_degree() {
        for &n in &[256usize, 1024, 2048] {
            let c = net(n, 8);
            for &idx in c.live_nodes().iter().take(50) {
                let links = c.outlinks(idx).unwrap();
                assert!(links <= 8, "degree {links} exceeds constant bound");
            }
        }
    }

    #[test]
    fn outlinks_do_not_grow_with_network_size() {
        let avg = |c: &Cycloid| {
            let nodes = c.live_nodes();
            nodes.iter().map(|&i| c.outlinks(i).unwrap()).sum::<usize>() as f64 / nodes.len() as f64
        };
        let small = net(5 * 32, 5); // d=5
        let large = net(2048, 8); // d=8
        let (a, b) = (avg(&small), avg(&large));
        assert!((a - b).abs() < 2.0, "constant degree: {a} vs {b}");
    }

    #[test]
    fn inside_ring_is_cyclic_order() {
        let c = net(2048, 8);
        for cub in [0u32, 17, 255] {
            let members = c.cluster_members(cub);
            for (i, &m) in members.iter().enumerate() {
                let succ = c.node(m).unwrap().inside_succ().unwrap();
                assert_eq!(succ, members[(i + 1) % members.len()]);
                let pred = c.node(m).unwrap().inside_pred().unwrap();
                assert_eq!(pred, members[(i + members.len() - 1) % members.len()]);
            }
        }
    }

    #[test]
    fn primary_is_max_cyclic_member() {
        let c = net(1500, 8);
        for &cub in c.occupied_clusters() {
            let members = c.cluster_members(cub);
            let primary = c.primary_of(cub).unwrap();
            let max_cyc = members.iter().map(|&m| c.id_of(m).unwrap().cyclic).max().unwrap();
            assert_eq!(c.id_of(primary).unwrap().cyclic, max_cyc);
            for &m in members {
                assert_eq!(c.node(m).unwrap().primary(), Some(primary));
            }
        }
    }

    #[test]
    fn outside_leafs_point_to_adjacent_occupied_primaries() {
        let c = net(700, 8);
        let occ = c.occupied_clusters().to_vec();
        for (p, &cub) in occ.iter().enumerate() {
            let succ_c = occ[(p + 1) % occ.len()];
            let pred_c = occ[(p + occ.len() - 1) % occ.len()];
            for &m in c.cluster_members(cub) {
                let (op, os) = c.node(m).unwrap().outside_leaf();
                assert_eq!(os, c.primary_of(succ_c));
                assert_eq!(op, c.primary_of(pred_c));
            }
        }
    }

    #[test]
    fn owner_of_own_id_is_self() {
        let c = net(900, 8);
        for &idx in c.live_nodes().iter().take(100) {
            let id = c.id_of(idx).unwrap();
            assert_eq!(c.owner_of(id).unwrap(), idx);
        }
    }

    #[test]
    fn owner_of_empty_cluster_goes_to_nearest() {
        let mut c = Cycloid::new(CycloidConfig { dimension: 4, seed: 1 });
        // occupy only cluster 3 (cyclic 0) and cluster 10 (cyclic 2)
        let a = c.join_with_id(CycloidId::new(0, 3, 4)).unwrap();
        let b = c.join_with_id(CycloidId::new(2, 10, 4)).unwrap();
        // cluster 4 is distance 1 from 3, distance 6 from 10
        let key = CycloidId::new(1, 4, 4);
        assert_eq!(c.owner_of(key).unwrap(), a);
        // cluster 8 is distance 5 from 3 (cw 5... ccw 11), distance 2 from 10
        let key = CycloidId::new(1, 8, 4);
        assert_eq!(c.owner_of(key).unwrap(), b);
    }

    #[test]
    fn owner_tie_breaks_clockwise() {
        let mut c = Cycloid::new(CycloidConfig { dimension: 4, seed: 1 });
        let _a = c.join_with_id(CycloidId::new(0, 2, 4)).unwrap();
        let b = c.join_with_id(CycloidId::new(0, 6, 4)).unwrap();
        // key cluster 4 is equidistant (2) from clusters 2 and 6; clockwise
        // from 4 reaches 6 first.
        let key = CycloidId::new(0, 4, 4);
        assert_eq!(c.owner_of(key).unwrap(), b);
    }

    #[test]
    fn cyclic_tie_breaks_clockwise_within_cluster() {
        let mut c = Cycloid::new(CycloidConfig { dimension: 8, seed: 1 });
        let _a = c.join_with_id(CycloidId::new(1, 0, 8)).unwrap();
        let b = c.join_with_id(CycloidId::new(5, 0, 8)).unwrap();
        // key cyclic 3 is equidistant (2) from cyclic 1 and 5; clockwise
        // from 3 reaches 5 first.
        let key = CycloidId::new(3, 0, 8);
        assert_eq!(c.owner_of(key).unwrap(), b);
    }

    #[test]
    fn join_then_leave_restores_ring() {
        let mut c = net(2040, 8);
        let id = {
            let mut r = SmallRng::seed_from_u64(5);
            c.random_free_slot(&mut r).unwrap()
        };
        let idx = c.join_with_id(id).unwrap();
        assert_eq!(c.len(), 2041);
        assert_eq!(c.owner_of(id).unwrap(), idx);
        // new node is spliced into its cluster ring
        let members = c.cluster_members(id.cubical);
        assert!(members.contains(&idx));
        c.leave(idx).unwrap();
        assert_eq!(c.len(), 2040);
        assert!(!c.cluster_members(id.cubical).contains(&idx));
    }

    #[test]
    fn join_duplicate_slot_rejected() {
        let mut c = net(100, 8);
        let idx = c.live_nodes()[0];
        let id = c.id_of(idx).unwrap();
        assert_eq!(c.join_with_id(id), Err(DhtError::IdSpaceExhausted));
    }

    #[test]
    fn join_random_fails_when_full() {
        let mut c = net(2048, 8);
        assert_eq!(c.join_random().unwrap_err(), DhtError::IdSpaceExhausted);
    }

    #[test]
    fn leave_repairs_primary_cache() {
        let mut c = net(2048, 8);
        let cub = 42u32;
        let primary = c.primary_of(cub).unwrap();
        c.leave(primary).unwrap();
        let new_primary = c.primary_of(cub).unwrap();
        assert_ne!(new_primary, primary);
        for &m in c.cluster_members(cub) {
            assert_eq!(c.node(m).unwrap().primary(), Some(new_primary));
        }
    }

    #[test]
    fn fail_leaves_stale_links_until_rebuild() {
        let mut c = net(2048, 8);
        let cub = 7u32;
        let members = c.cluster_members(cub).to_vec();
        let victim = members[0];
        let succ_of_victim = c.node(victim).unwrap().inside_succ().unwrap();
        c.fail(victim).unwrap();
        // stale: the successor still lists the dead victim as pred
        assert_eq!(c.node(succ_of_victim).unwrap().inside_pred(), Some(victim));
        c.rebuild_all_links();
        assert_ne!(c.node(succ_of_victim).unwrap().inside_pred(), Some(victim));
    }

    #[test]
    fn live_list_tracks_churn_in_arena_order() {
        let mut c = net(300, 8);
        let mut r = SmallRng::seed_from_u64(6);
        for _ in 0..40 {
            let v = c.random_node(&mut r).unwrap();
            if r.gen_bool(0.5) {
                c.leave(v).unwrap();
            } else {
                c.fail(v).unwrap();
            }
            let _ = c.join_random();
        }
        let live = c.live_nodes();
        assert_eq!(live.len(), c.len());
        assert!(live.windows(2).all(|w| w[0] < w[1]), "live list must stay ascending");
        for &i in live {
            assert!(c.node(i).unwrap().is_alive());
        }
        assert_eq!(c.live_nodes_cloned(), live.to_vec());
    }

    #[test]
    fn leave_keeps_cluster_members_unique() {
        // Audit for the Chord `leave` dedup bug: Cycloid's departure path
        // rebuilds membership via `retain` on ground-truth cluster lists,
        // so duplicates cannot arise — pin that with a churn storm.
        let mut c = net(2048, 8);
        let mut r = SmallRng::seed_from_u64(12);
        for _ in 0..100 {
            let v = c.random_node(&mut r).unwrap();
            c.leave(v).unwrap();
        }
        for cub in 0..256u32 {
            let members = c.cluster_members(cub);
            let mut seen = members.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), members.len(), "duplicate member in cluster {cub}");
        }
    }

    #[test]
    fn random_node_is_always_alive() {
        let mut c = net(64, 5);
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..10 {
            let v = c.random_node(&mut r).unwrap();
            c.fail(v).unwrap();
        }
        for _ in 0..100 {
            let v = c.random_node(&mut r).unwrap();
            assert!(c.node(v).unwrap().is_alive());
        }
    }
}
