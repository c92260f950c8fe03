//! A Chord ring plus per-node directories — the building block shared by
//! all three baseline systems.

use chord::{Chord, ChordConfig};
use dht_core::{
    clockwise_dist, BuildMode, DhtError, NodeIdx, Overlay, RepairStats, RouteStats, Walk,
};
use grid_resource::{AttrId, Directory, PieceKey, ReplicaStore, ResourceInfo, ValueTarget};

/// Per-piece routing keys callback: systems place a report under
/// system-specific keys (SWORD hashes the attribute, MAAN both the
/// attribute and the value, Mercury the value per hub), so the host's
/// replication engine asks the owner system for the key(s) of each piece
/// it copies — promotion later reroutes by the same key.
pub type KeysOf<'a> = &'a mut dyn FnMut(&ResourceInfo, &mut Vec<u64>);

/// One Chord overlay with a resource-information directory on every node.
///
/// `Sword` and `Maan` own one host; `Mercury` owns one per attribute hub.
///
/// The host also carries the optional replication layer (degree `repl`):
/// per-node [`ReplicaStore`]s placed along successor lists, repaired on
/// demand by [`ChordHost::repair_replicas_with`]. At the default degree
/// of 1 no replica state exists and every replication method is a no-op,
/// so unreplicated runs are byte-identical to builds without this layer.
#[derive(Debug, Clone)]
pub struct ChordHost {
    net: Chord,
    dirs: Vec<Directory>,
    repl: usize,
    replicas: Vec<ReplicaStore>,
    repair: RepairStats,
}

impl ChordHost {
    /// Build a stabilized host of `n` nodes.
    pub fn build(n: usize, seed: u64) -> Self {
        Self::build_with_mode(n, seed, BuildMode::Bulk)
    }

    /// Build a stabilized host with an explicit overlay build mode (both
    /// modes yield byte-identical hosts; see [`BuildMode`]).
    pub fn build_with_mode(n: usize, seed: u64, mode: BuildMode) -> Self {
        let net = Chord::build_with_mode(n, ChordConfig { seed, ..ChordConfig::default() }, mode);
        let dirs = vec![Directory::new(); net.arena_len()];
        Self { net, dirs, repl: 1, replicas: Vec::new(), repair: RepairStats::new() }
    }

    /// The underlying overlay.
    pub fn net(&self) -> &Chord {
        &self.net
    }

    /// Mutable access for churn operations.
    pub fn net_mut(&mut self) -> &mut Chord {
        &mut self.net
    }

    /// Clear every directory (and, when replicating, every replica store —
    /// a full re-placement invalidates old replica attribution; the next
    /// repair round re-seeds replicas from the new primaries).
    pub fn clear(&mut self) {
        self.dirs = vec![Directory::new(); self.net.arena_len()];
        if self.repl > 1 {
            self.replicas = vec![ReplicaStore::new(); self.net.arena_len()];
        }
    }

    /// Keep directory storage in sync with the arena after joins.
    pub fn sync_arena(&mut self) {
        if self.dirs.len() < self.net.arena_len() {
            self.dirs.resize(self.net.arena_len(), Directory::new());
        }
        if self.repl > 1 && self.replicas.len() < self.net.arena_len() {
            self.replicas.resize(self.net.arena_len(), ReplicaStore::new());
        }
    }

    /// Enable replication at degree `k`, seeding replica stores from the
    /// current primaries (seeding is initial placement, not repair — it is
    /// not counted in [`ChordHost::repair_stats`]). `k <= 1` drops all
    /// replica state and disables the layer.
    pub fn set_replication_with(&mut self, k: usize, keys_of: KeysOf<'_>) {
        self.repl = k.max(1);
        self.repair = RepairStats::new();
        if self.repl <= 1 {
            self.replicas = Vec::new();
            return;
        }
        self.replicas = vec![ReplicaStore::new(); self.net.arena_len()];
        self.replicate_primaries(keys_of, false);
    }

    /// The configured replication degree (1 = unreplicated).
    pub fn replication(&self) -> usize {
        self.repl
    }

    /// Cumulative replica-repair bandwidth counters.
    pub fn repair_stats(&self) -> RepairStats {
        self.repair
    }

    /// Copy every live primary piece to its current successor-list
    /// targets, skipping copies that already exist. With `account` the
    /// new copies are charged to [`ChordHost::repair_stats`] (repair);
    /// without it they are free (initial seeding).
    fn replicate_primaries(&mut self, keys_of: KeysOf<'_>, account: bool) {
        let mut targets: Vec<NodeIdx> = Vec::new();
        let mut keys: Vec<u64> = Vec::new();
        for &p in self.net.live_nodes() {
            targets.clear();
            if self.net.replica_targets_into(p, self.repl, &mut targets).is_err()
                || targets.is_empty()
            {
                continue;
            }
            let Some(dir) = self.dirs.get(p.0) else { continue };
            for info in dir.iter() {
                keys.clear();
                keys_of(info, &mut keys);
                for &key in &keys {
                    for &t in &targets {
                        if self.replicas[t.0].insert(p, key, *info) && account {
                            self.repair.record_copy();
                        }
                    }
                }
            }
        }
    }

    /// One replica-repair round; call right after the overlay's own
    /// repair (`rebuild_all_state`), while successor lists are ground
    /// truth. Two phases, in order:
    ///
    /// 1. **Promote**: every replica whose primary died is re-stored at
    ///    the key's *current* owner (one transfer, counted as a
    ///    promotion) — unless the owner already holds the piece (graceful
    ///    handoff beat us to it; the stale entry is dropped free).
    /// 2. **Re-replicate**: every live primary piece — including the
    ///    pieces phase 1 just promoted — is copied to its current
    ///    targets where missing (counted as copies).
    ///
    /// No-op below degree 2.
    pub fn repair_replicas_with(&mut self, keys_of: KeysOf<'_>) {
        if self.repl <= 1 {
            return;
        }
        self.sync_arena();
        self.repair.record_round();
        let net = &self.net;
        for holder in 0..self.replicas.len() {
            if !net.node(NodeIdx(holder)).map(|n| n.is_alive()).unwrap_or(false) {
                continue;
            }
            let dead = self.replicas[holder]
                .drain_dead(|p| net.node(p).map(|n| n.is_alive()).unwrap_or(false));
            for e in dead {
                match net.owner_of(e.key) {
                    Ok(owner) if !self.dirs[owner.0].contains(&e.info) => {
                        self.dirs[owner.0].push(e.info);
                        self.repair.record_promotion();
                    }
                    _ => self.repair.record_dropped(),
                }
            }
        }
        self.replicate_primaries(keys_of, true);
    }

    /// Drop every replica held *by* `idx` — the store dies with the node
    /// on failure or departure. Replicas held elsewhere on `idx`'s behalf
    /// are cleaned up (promoted or dropped) by the next repair round.
    pub fn clear_replicas_of(&mut self, idx: NodeIdx) {
        if let Some(store) = self.replicas.get_mut(idx.0) {
            store.clear();
        }
    }

    /// Append the piece identity of everything reachable on live nodes —
    /// primary directories and replica stores both. Callers canonicalize
    /// (sort + dedup).
    pub fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        for &n in self.net.live_nodes() {
            if let Some(dir) = self.dirs.get(n.0) {
                out.extend(dir.iter().map(PieceKey::of));
            }
            if let Some(store) = self.replicas.get(n.0) {
                store.keys_into(out);
            }
        }
    }

    /// Replica store of one node (inspection/tests).
    pub fn replicas_of(&self, node: NodeIdx) -> Option<&ReplicaStore> {
        self.replicas.get(node.0)
    }

    /// Store at the ground-truth owner of `key` (periodic report refresh).
    pub fn store_at_owner(&mut self, key: u64, info: ResourceInfo) -> Result<NodeIdx, DhtError> {
        let root = self.net.owner_of(key)?;
        self.sync_arena();
        self.dirs[root.0].push(info);
        Ok(root)
    }

    /// Store a whole placement batch at the ground-truth owners of its
    /// keys in one pass — the bed-construction twin of calling
    /// [`Self::store_at_owner`] per item.
    ///
    /// Items whose key cannot be resolved (empty overlay) are skipped,
    /// matching the per-item path's error handling at the call sites. The
    /// batch is grouped by destination node with one stable sort, and each
    /// node's group lands through [`Directory::bulk_load`] — so per-node
    /// arrival order (and therefore every report byte) is identical to the
    /// sequential path, without its per-attribute `Vec::insert` shifts.
    pub fn store_all_at_owners(&mut self, items: impl IntoIterator<Item = (u64, ResourceInfo)>) {
        let mut routed: Vec<(NodeIdx, ResourceInfo)> = items
            .into_iter()
            .filter_map(|(key, info)| self.net.owner_of(key).ok().map(|root| (root, info)))
            .collect();
        routed.sort_by_key(|&(root, _)| root);
        self.sync_arena();
        let mut rest = routed.as_slice();
        while let Some(&(root, _)) = rest.first() {
            let run = rest.iter().take_while(|&&(r, _)| r == root).count();
            self.dirs[root.0].bulk_load(rest[..run].iter().map(|&(_, info)| info).collect());
            rest = &rest[run..];
        }
    }

    /// Store by routing from `from` (the per-report insert path). Returns
    /// the route's `(hops, terminal, exact)` summary — the insert path
    /// never needs the traced hop list.
    pub fn store_routed(
        &mut self,
        from: NodeIdx,
        key: u64,
        info: ResourceInfo,
    ) -> Result<RouteStats, DhtError> {
        let route = self.net.route_stats(from, key)?;
        self.sync_arena();
        self.dirs[route.terminal.0].push(info);
        Ok(route)
    }

    /// Directory of one node (for inspection).
    pub fn directory(&self, node: NodeIdx) -> &Directory {
        &self.dirs[node.0]
    }

    /// Drain the directory of `node` (departure handoff).
    pub fn drain_directory(&mut self, node: NodeIdx) -> Vec<ResourceInfo> {
        self.dirs[node.0].drain()
    }

    /// Number of pieces stored on `node`.
    pub fn load_of(&self, node: NodeIdx) -> usize {
        self.dirs[node.0].len()
    }

    /// Owners in `node`'s directory matching an attribute constraint.
    pub fn matches_in(&self, node: NodeIdx, attr: AttrId, t: &ValueTarget) -> Vec<usize> {
        self.dirs[node.0].matching_owners(attr, t)
    }

    /// Append matching owners into `out` (scratch-buffer variant for the
    /// query hot loops).
    pub fn matches_in_into(
        &self,
        node: NodeIdx,
        attr: AttrId,
        t: &ValueTarget,
        out: &mut Vec<usize>,
    ) {
        self.dirs[node.0].matching_owners_into(attr, t, out);
    }

    /// Total pieces stored on all nodes.
    pub fn total_pieces(&self) -> usize {
        self.dirs.iter().map(Directory::len).sum()
    }

    /// The clockwise range walk of Mercury, MAAN and CompositeFlat: from
    /// the root of `lo_key`, probe successive nodes until the first node
    /// at-or-past `hi_key` on the directed arc from `lo_key`. Run it
    /// through a [`Probe`](dht_core::Probe).
    ///
    /// The directed-arc criterion (rather than "stop at the root of
    /// `hi_key`") matters when the arc wraps past the largest identifier:
    /// `root(lo)` and `root(hi)` can then coincide while every node in
    /// between still holds matching values. The walk stops early if
    /// pointers are broken (churn) or after a full circle.
    pub fn range_walk(&self, lo_key: u64, hi_key: u64) -> ArcWalk<'_> {
        ArcWalk { net: &self.net, lo: lo_key, span: clockwise_dist(lo_key, hi_key) }
    }

    /// Per-live-node directory sizes, indexed in `live_nodes()` order.
    pub fn loads(&self) -> Vec<usize> {
        self.net.live_nodes().iter().map(|&n| self.dirs[n.0].len()).collect()
    }

    /// Per-live-node distinct outlink counts.
    pub fn outlinks(&self) -> Vec<usize> {
        self.net.live_nodes().iter().map(|&n| self.net.outlinks(n).unwrap_or(0)).collect()
    }
}

/// A clockwise range walk over one Chord ring (see
/// [`ChordHost::range_walk`]): it advances while the current node's
/// clockwise distance from `lo` is below the arc's `span`.
#[derive(Debug, Clone, Copy)]
pub struct ArcWalk<'a> {
    net: &'a Chord,
    lo: u64,
    span: u64,
}

impl Walk for ArcWalk<'_> {
    fn budget(&self) -> usize {
        self.net.len()
    }

    fn advance(&self, start: NodeIdx, cur: NodeIdx) -> Option<NodeIdx> {
        // `cur` covers keys up to its own id; once it sits at or past
        // hi (walking clockwise from lo), the arc is covered.
        let cur_id = self.net.id_of(cur).ok()?;
        if clockwise_dist(self.lo, cur_id) >= self.span {
            return None;
        }
        self.net.next_clockwise(cur).ok().filter(|&next| next != start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::{FaultAccount, FaultPlan, Faulty, Plain, Probe};

    /// Run the range walk `[lo, hi]` from `start` under `probe`.
    fn walk_with<P: Probe>(
        h: &ChordHost,
        probe: &mut P,
        start: NodeIdx,
        lo: u64,
        hi: u64,
    ) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        probe.walk(&h.range_walk(lo, hi), start, 9, &mut out);
        out
    }

    fn plain_walk(h: &ChordHost, start: NodeIdx, lo: u64, hi: u64) -> Vec<NodeIdx> {
        walk_with(h, &mut Plain, start, lo, hi)
    }

    fn info(owner: usize) -> ResourceInfo {
        ResourceInfo { attr: AttrId(0), value: 1.0, owner }
    }

    #[test]
    fn store_at_owner_places_on_root() {
        let mut h = ChordHost::build(64, 1);
        let root = h.store_at_owner(12345, info(7)).unwrap();
        assert_eq!(h.load_of(root), 1);
        assert_eq!(h.total_pieces(), 1);
        assert_eq!(root, h.net().owner_of(12345).unwrap());
    }

    #[test]
    fn store_routed_reaches_same_root() {
        let mut h = ChordHost::build(64, 2);
        let from = h.net().nodes_by_id()[0];
        let r = h.store_routed(from, 999, info(3)).unwrap();
        assert_eq!(r.terminal, h.net().owner_of(999).unwrap());
        assert_eq!(h.total_pieces(), 1);
    }

    #[test]
    fn matches_filter_by_attr_and_value() {
        let mut h = ChordHost::build(16, 3);
        let root =
            h.store_at_owner(5, ResourceInfo { attr: AttrId(1), value: 10.0, owner: 4 }).unwrap();
        h.store_at_owner(5, ResourceInfo { attr: AttrId(2), value: 10.0, owner: 9 }).unwrap();
        let m = h.matches_in(root, AttrId(1), &ValueTarget::Point(10.0));
        assert_eq!(m, vec![4]);
        let none = h.matches_in(root, AttrId(1), &ValueTarget::Point(11.0));
        assert!(none.is_empty());
    }

    #[test]
    fn walk_covers_arc_to_root() {
        let h = ChordHost::build(128, 4);
        let start_key = 0u64;
        let hi_key = u64::MAX / 4; // a quarter of the ring
        let start = h.net().owner_of(start_key).unwrap();
        let walk = plain_walk(&h, start, start_key, hi_key);
        // expect roughly n/4 = 32 nodes, generously banded
        assert!((20..=45).contains(&walk.len()), "walk length {}", walk.len());
        assert_eq!(*walk.last().unwrap(), h.net().owner_of(hi_key).unwrap());
        // nodes are consecutive on the ring
        for w in walk.windows(2) {
            assert_eq!(h.net().next_clockwise(w[0]).unwrap(), w[1]);
        }
    }

    #[test]
    fn walk_to_own_key_is_single_probe() {
        let h = ChordHost::build(32, 5);
        let root = h.net().owner_of(777).unwrap();
        let walk = plain_walk(&h, root, 776, 777);
        assert_eq!(walk, vec![root]);
    }

    #[test]
    fn full_ring_walk_probes_every_node() {
        // Regression: a range spanning the whole key space has
        // root(lo) == root(hi), but must still probe all n nodes.
        let h = ChordHost::build(64, 8);
        let start = h.net().owner_of(0).unwrap();
        let walk = plain_walk(&h, start, 0, u64::MAX);
        assert_eq!(walk.len(), 64);
    }

    #[test]
    fn inert_faulty_walk_matches_plain_walk() {
        let h = ChordHost::build(128, 4);
        let start = h.net().owner_of(0).unwrap();
        let plan = FaultPlan::none();
        let mut probe = Faulty::new(&plan, 9);
        let mut faulty = Vec::new();
        let truncated = probe.walk(&h.range_walk(0, u64::MAX / 4), start, 9, &mut faulty);
        assert!(!truncated);
        assert_eq!(faulty, plain_walk(&h, start, 0, u64::MAX / 4));
        assert_eq!(probe.account(), FaultAccount::default());
    }

    #[test]
    fn total_loss_truncates_walk_at_start() {
        let h = ChordHost::build(128, 4);
        let start = h.net().owner_of(0).unwrap();
        let plan = FaultPlan::new(1, 1.0, 0.0).unwrap();
        let mut probe = Faulty::new(&plan, 9);
        let mut walk = Vec::new();
        let truncated = probe.walk(&h.range_walk(0, u64::MAX / 4), start, 9, &mut walk);
        assert!(truncated);
        assert_eq!(walk, vec![start], "first probe drops twice: only the start is covered");
        assert_eq!(probe.account().dropped_msgs, 2);
        assert_eq!(probe.account().retries, 1);
    }

    #[test]
    fn bulk_store_matches_sequential_store() {
        // Scrambled keys and duplicate destinations: the bulk path must
        // reproduce the sequential path's per-node directories exactly.
        let pieces: Vec<(u64, ResourceInfo)> = (0..200u64)
            .map(|i| {
                let key = i.wrapping_mul(0x9e3779b97f4a7c15);
                (
                    key,
                    ResourceInfo {
                        attr: AttrId((i % 7) as u32),
                        value: i as f64,
                        owner: i as usize,
                    },
                )
            })
            .collect();
        let mut seq = ChordHost::build(64, 11);
        let mut bulk = ChordHost::build(64, 11);
        for &(key, info) in &pieces {
            seq.store_at_owner(key, info).unwrap();
        }
        bulk.store_all_at_owners(pieces.iter().copied());
        assert_eq!(seq.total_pieces(), bulk.total_pieces());
        for &node in seq.net().live_nodes() {
            let a: Vec<usize> = seq.directory(node).iter().map(|r| r.owner).collect();
            let b: Vec<usize> = bulk.directory(node).iter().map(|r| r.owner).collect();
            assert_eq!(a, b, "directory of {node} diverged");
        }
    }

    #[test]
    fn drain_removes_pieces() {
        let mut h = ChordHost::build(8, 6);
        let root = h.store_at_owner(1, info(0)).unwrap();
        let drained = h.drain_directory(root);
        assert_eq!(drained.len(), 1);
        assert_eq!(h.total_pieces(), 0);
    }

    #[test]
    fn clear_resets_all() {
        let mut h = ChordHost::build(8, 7);
        h.store_at_owner(1, info(0)).unwrap();
        h.store_at_owner(2, info(1)).unwrap();
        h.clear();
        assert_eq!(h.total_pieces(), 0);
    }
}
