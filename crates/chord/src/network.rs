//! The Chord network: arena of nodes, construction, churn, repair.

use crate::node::{ChordNode, FINGER_BITS};
use dht_core::{BuildMode, ConsistentHash, DhtError, NodeIdx, Overlay, RouteResult, RouteStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Sentinel for "no link" in the flat link arrays (`u32::MAX` — the arena
/// is capped well below it).
pub(crate) const NO_LINK: u32 = u32::MAX;

/// Construction parameters for a [`Chord`] overlay.
#[derive(Debug, Clone, Copy)]
pub struct ChordConfig {
    /// Successor-list length `r` (Chord survives up to `r-1` consecutive
    /// failures between repairs). The paper's static experiments are
    /// insensitive to this; churn experiments use the default.
    pub succ_list_len: usize,
    /// Seed for identifier assignment.
    pub seed: u64,
}

impl Default for ChordConfig {
    fn default() -> Self {
        Self { succ_list_len: 4, seed: 0x1CEB00DA }
    }
}

/// A Chord overlay network.
///
/// Nodes live in an arena; departed nodes are tomb-stoned, never reused,
/// so `NodeIdx` values stay valid for the lifetime of an experiment.
///
/// Node state is stored struct-of-arrays: parallel flat `Vec`s indexed by
/// arena slot, with link arrays (`fingers`, `succs`) strided per node and
/// holding `u32` arena slots. A million-node ring is therefore ~7
/// contiguous allocations (~300 MB, dominated by the 64-entry finger
/// stride) instead of a million boxed nodes, and cloning the overlay — the
/// bed-snapshot hot path — is a handful of `memcpy`s.
///
/// ```
/// use chord::{Chord, ChordConfig};
/// use dht_core::Overlay;
///
/// let net = Chord::build(64, ChordConfig::default());
/// let from = net.nodes_by_id()[0];
/// let route = net.route(from, 0xDEADBEEF).unwrap();
/// assert!(route.exact, "stabilized lookups land on the owner");
/// assert_eq!(route.terminal, net.owner_of(0xDEADBEEF).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct Chord {
    /// Ring identifier per arena slot.
    ids: Vec<u64>,
    /// Liveness flag per arena slot (false = tomb-stoned).
    alive: Vec<bool>,
    /// Predecessor per arena slot ([`NO_LINK`] = unknown).
    preds: Vec<u32>,
    /// Finger tables, strided [`FINGER_BITS`] per slot; `fingers[s*64+i]`
    /// targets `successor(id + 2^i)`. Entries may be stale after churn
    /// until `fix_fingers` runs; [`NO_LINK`] = unset.
    fingers: Vec<u32>,
    /// Successor lists, strided `cfg.succ_list_len` per slot; only the
    /// first `succ_lens[s]` entries are meaningful.
    succs: Vec<u32>,
    /// Live length of each slot's successor list.
    succ_lens: Vec<u8>,
    cfg: ChordConfig,
    /// Live node indices sorted by ring id — ground truth for `owner_of`
    /// and for fast bulk construction. Never consulted by routing.
    sorted: Vec<NodeIdx>,
    /// Every identifier ever assigned (live nodes + tombstones), kept as
    /// a sorted flat `Vec` — membership is a binary search, and cloning
    /// the overlay (bed snapshots) is one `memcpy` instead of a tree
    /// rebuild. Ordered inserts are O(n) but only run on genuine runtime
    /// join/tombstone events — initial beds go through [`Chord::build`]'s
    /// bulk path, which sorts once.
    used_ids: Vec<u64>,
    rng: SmallRng,
}

/// Successor staleness sampled over every live node's node-local view —
/// see [`Chord::successor_staleness`]. All fields are plain counts so
/// callers can aggregate over maintenance rounds without rounding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuccessorStaleness {
    /// Live nodes sampled (nodes with a non-empty successor list).
    pub live: usize,
    /// Nodes whose *first* successor entry points at a dead node — the
    /// per-node pointer staleness of Krishnamurthy et al.
    pub stale_first: usize,
    /// Nodes whose *entire* successor list is dead (a lookup arriving
    /// here cannot make forward progress until repair).
    pub exhausted: usize,
    /// Dead entries summed over all sampled successor lists.
    pub dead_entries: usize,
    /// Total entries summed over all sampled successor lists.
    pub entries: usize,
}

/// Can an arena of `len` slots grow by `extra` without leaving `u32`
/// slot range? [`NO_LINK`] (`u32::MAX`) is reserved as the sentinel, so
/// the largest usable slot index is `u32::MAX - 1`.
pub(crate) fn arena_has_capacity(len: usize, extra: usize) -> bool {
    len.checked_add(extra).is_some_and(|total| total <= NO_LINK as usize)
}

impl Chord {
    /// An empty overlay.
    ///
    /// # Panics
    /// If `cfg.succ_list_len` is 0 or exceeds `u8::MAX` (list lengths are
    /// stored per-slot as `u8`).
    pub fn new(cfg: ChordConfig) -> Self {
        assert!(
            cfg.succ_list_len >= 1 && cfg.succ_list_len <= u8::MAX as usize,
            "succ_list_len must be in 1..=255 (stored per-slot as u8), got {}",
            cfg.succ_list_len
        );
        Self {
            ids: Vec::new(),
            alive: Vec::new(),
            preds: Vec::new(),
            fingers: Vec::new(),
            succs: Vec::new(),
            succ_lens: Vec::new(),
            cfg,
            sorted: Vec::new(),
            used_ids: Vec::new(),
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xC0FFEE),
        }
    }

    /// Bulk-construct a fully stabilized network of `n` nodes with random
    /// distinct identifiers. This is the fast O(n log n) path used to set
    /// up static experiments; incremental joins exercise the protocol
    /// path. Equivalent to `build_with_mode(n, cfg, BuildMode::Bulk)`.
    pub fn build(n: usize, cfg: ChordConfig) -> Self {
        Self::build_with_mode(n, cfg, BuildMode::Bulk)
    }

    /// Construct a fully stabilized network with an explicit build mode.
    /// Both modes draw the same identifier sequence and produce
    /// byte-identical overlays; `Incremental` is the O(n²)-aggregate
    /// reference path kept for validating the bulk constructor.
    pub fn build_with_mode(n: usize, cfg: ChordConfig, mode: BuildMode) -> Self {
        let mut net = Self::new(cfg);
        match mode {
            BuildMode::Bulk => net.bulk_join(n),
            BuildMode::Incremental => {
                let hash = ConsistentHash::new(cfg.seed);
                for i in 0..n {
                    let mut id = hash.hash_u64(i as u64);
                    while net.id_used(id) {
                        id = id.wrapping_add(0x9e3779b97f4a7c15);
                    }
                    net.push_node(id);
                }
            }
        }
        net.rebuild_all_state();
        net
    }

    /// Assemble the initial membership in one sorted pass: draw all `n`
    /// identifiers (same collision-probing sequence as the incremental
    /// path, against a `BTreeSet` instead of repeated ordered `Vec`
    /// inserts), push the arena rows in draw order, then derive `used_ids`
    /// and the sorted ring by sorting once — O(n log n) total where the
    /// per-join inserts were O(n²) aggregate.
    fn bulk_join(&mut self, n: usize) {
        debug_assert!(self.ids.is_empty(), "bulk join only assembles fresh overlays");
        let hash = ConsistentHash::new(self.cfg.seed);
        let mut taken: BTreeSet<u64> = BTreeSet::new();
        let mut drawn: Vec<u64> = Vec::with_capacity(n);
        for i in 0..n {
            let mut id = hash.hash_u64(i as u64);
            while !taken.insert(id) {
                id = id.wrapping_add(0x9e3779b97f4a7c15);
            }
            drawn.push(id);
        }
        self.reserve_arena(n);
        for &id in &drawn {
            self.push_arena(id, true);
        }
        self.used_ids = taken.into_iter().collect();
        let mut sorted: Vec<NodeIdx> = (0..n).map(NodeIdx).collect();
        sorted.sort_unstable_by_key(|&i| self.ids[i.0]);
        self.sorted = sorted;
    }

    /// Is `id` already assigned (live node or reserved tombstone)?
    fn id_used(&self, id: u64) -> bool {
        self.used_ids.binary_search(&id).is_ok()
    }

    /// Record `id` as assigned, keeping `used_ids` sorted.
    fn record_id(&mut self, id: u64) {
        if let Err(pos) = self.used_ids.binary_search(&id) {
            self.used_ids.insert(pos, id);
        }
    }

    /// Size of the node arena (live + tomb-stoned slots). Directory
    /// bookkeeping in higher layers indexes by arena slot.
    pub fn arena_len(&self) -> usize {
        self.ids.len()
    }

    /// Configuration the network was built with.
    pub fn config(&self) -> &ChordConfig {
        &self.cfg
    }

    /// Pre-size every parallel array for `extra` more slots.
    fn reserve_arena(&mut self, extra: usize) {
        self.ids.reserve(extra);
        self.alive.reserve(extra);
        self.preds.reserve(extra);
        self.succ_lens.reserve(extra);
        self.succs.reserve(extra * self.cfg.succ_list_len);
        self.fingers.reserve(extra * FINGER_BITS);
    }

    /// Append one blank arena row (no links yet).
    ///
    /// # Panics
    /// If the arena would exceed `u32` slot range — slots are stored as
    /// `u32` in the link arrays, with [`NO_LINK`] reserved. A hard assert,
    /// not a debug one: a release-mode wrap here would silently alias
    /// slot 0 at the million-node scales the sweeps run.
    fn push_arena(&mut self, id: u64, alive: bool) -> NodeIdx {
        assert!(
            arena_has_capacity(self.ids.len(), 1),
            "arena exceeds u32 slot range ({} slots, NO_LINK reserved)",
            self.ids.len()
        );
        let idx = NodeIdx(self.ids.len());
        self.ids.push(id);
        self.alive.push(alive);
        self.preds.push(NO_LINK);
        self.succ_lens.push(0);
        self.succs.resize(self.succs.len() + self.cfg.succ_list_len, NO_LINK);
        self.fingers.resize(self.fingers.len() + FINGER_BITS, NO_LINK);
        idx
    }

    // --- flat-array accessors (crate-internal; the routing hot loop and
    // the `ChordNode` view both read through these) ---

    #[inline]
    pub(crate) fn id_at(&self, slot: usize) -> u64 {
        self.ids[slot]
    }

    #[inline]
    pub(crate) fn alive_at(&self, slot: usize) -> bool {
        self.alive[slot]
    }

    #[inline]
    pub(crate) fn pred_at(&self, slot: usize) -> Option<NodeIdx> {
        let p = self.preds[slot];
        (p != NO_LINK).then_some(NodeIdx(p as usize))
    }

    /// The meaningful prefix of `slot`'s successor list. The prefix never
    /// holds [`NO_LINK`]: `write_succs` and `rebuild_all_state` only count
    /// real links into `succ_lens`.
    #[inline]
    pub(crate) fn raw_succs(&self, slot: usize) -> &[u32] {
        let r = self.cfg.succ_list_len;
        let prefix = &self.succs[slot * r..slot * r + self.succ_lens[slot] as usize];
        debug_assert!(
            prefix.iter().all(|&s| s != NO_LINK),
            "succ_lens counted a NO_LINK entry for slot {slot}"
        );
        prefix
    }

    /// The full [`FINGER_BITS`] finger stride of `slot` (entries may be
    /// [`NO_LINK`] on nodes that never stabilized — callers filter).
    #[inline]
    pub(crate) fn raw_fingers(&self, slot: usize) -> &[u32] {
        // lint:allow(sentinel-guard): returns the raw stride; NO_LINK
        // entries are part of the contract and every caller filters them
        &self.fingers[slot * FINGER_BITS..(slot + 1) * FINGER_BITS]
    }

    /// Overwrite `slot`'s successor list (truncating to the configured
    /// length; the tail of the stride is cleared).
    fn write_succs(&mut self, slot: usize, list: &[u32]) {
        let r = self.cfg.succ_list_len;
        let n = list.len().min(r);
        self.succs[slot * r..slot * r + n].copy_from_slice(&list[..n]);
        for e in &mut self.succs[slot * r + n..(slot + 1) * r] {
            *e = NO_LINK;
        }
        // lint:allow(panic-hygiene): n ≤ succ_list_len ≤ u8::MAX is
        // asserted in `Chord::new`, so this narrowing cannot fail.
        self.succ_lens[slot] = u8::try_from(n).expect("succ_list_len capped at u8::MAX");
    }

    /// Overwrite `slot`'s successor list from `NodeIdx` values (tests that
    /// plant adversarial list shapes).
    #[cfg(test)]
    pub(crate) fn set_successor_list(&mut self, idx: NodeIdx, list: &[NodeIdx]) {
        let raw: Vec<u32> = list.iter().map(|&i| i.0 as u32).collect();
        self.write_succs(idx.0, &raw);
    }

    /// Reserve an arena slot as a tombstone: the slot counts towards
    /// `arena_len` but never participates in the ring. Used to keep
    /// multiple overlays' arenas in lock-step when a coordinated join
    /// partially fails (see Mercury's join rollback).
    ///
    /// The tombstone's identifier is drawn collision-free and recorded in
    /// `used_ids` (tombstones never retire, so the id stays reserved) —
    /// otherwise a later [`Chord::join`] could draw the same id and put
    /// two arena nodes on one ring position.
    pub fn reserve_tombstone(&mut self) -> NodeIdx {
        let mut id = self.rng.gen::<u64>();
        while self.id_used(id) {
            id = id.wrapping_add(0x9e3779b97f4a7c15);
        }
        self.record_id(id);
        self.push_arena(id, false)
    }

    fn push_node(&mut self, id: u64) -> NodeIdx {
        let idx = self.push_arena(id, true);
        self.record_id(id);
        let pos = self.sorted.partition_point(|&j| self.ids[j.0] < id);
        self.sorted.insert(pos, idx);
        debug_assert!(
            self.sorted.windows(2).all(|w| self.ids[w[0].0] < self.ids[w[1].0]),
            "sorted ring order broken by insert"
        );
        idx
    }

    /// Recompute every node's successor list, predecessor and fingers from
    /// ground truth (perfect stabilization). Used by `build` and by tests.
    pub fn rebuild_all_state(&mut self) {
        let n = self.sorted.len();
        if n == 0 {
            return;
        }
        debug_assert!(
            self.sorted.iter().all(|&i| self.alive[i.0]),
            "sorted ring must hold only live nodes"
        );
        // Flat copies of the ring: the n·64 finger binary-searches below
        // run over contiguous arrays instead of chasing `sorted[m].0`
        // indirections per probe (bulk construction is the dominant cost
        // of building Mercury's m hubs).
        let live: Vec<u32> = self.sorted.iter().map(|&i| i.0 as u32).collect();
        let ids: Vec<u64> = self.sorted.iter().map(|&i| self.ids[i.0]).collect();
        let r = self.cfg.succ_list_len;
        let k_max = r.min(n.saturating_sub(1)).max(1);
        // lint:allow(panic-hygiene): k_max ≤ succ_list_len ≤ u8::MAX is
        // asserted in `Chord::new`, so this narrowing cannot fail.
        let k_len = u8::try_from(k_max).expect("succ_list_len capped at u8::MAX");
        for pos in 0..n {
            let slot = live[pos] as usize;
            for k in 1..=k_max {
                self.succs[slot * r + k - 1] = live[(pos + k) % n];
            }
            for e in &mut self.succs[slot * r + k_max..(slot + 1) * r] {
                *e = NO_LINK;
            }
            self.succ_lens[slot] = k_len;
            self.preds[slot] = live[(pos + n - 1) % n];
            let id = ids[pos];
            let frow = &mut self.fingers[slot * FINGER_BITS..(slot + 1) * FINGER_BITS];
            for (i, f) in frow.iter_mut().enumerate() {
                let target = id.wrapping_add(1u64 << i);
                let fpos = ids.partition_point(|&v| v < target);
                *f = live[fpos % n];
            }
        }
    }

    /// Ground-truth owner (first live node clockwise from `key`, the node
    /// whose interval `(pred, id]` contains `key`).
    fn true_owner(&self, key: u64) -> NodeIdx {
        debug_assert!(!self.sorted.is_empty());
        let pos = self.sorted.partition_point(|&j| self.ids[j.0] < key);
        self.sorted[pos % self.sorted.len()]
    }

    /// Borrow a node's state (a view over the flat arena arrays).
    pub fn node(&self, idx: NodeIdx) -> Result<ChordNode<'_>, DhtError> {
        if idx.0 < self.ids.len() {
            Ok(ChordNode { net: self, slot: idx.0 })
        } else {
            Err(DhtError::NodeNotFound { index: idx.0 })
        }
    }

    fn check_live(&self, idx: NodeIdx) -> Result<(), DhtError> {
        if *self.alive.get(idx.0).unwrap_or(&false) {
            Ok(())
        } else {
            Err(DhtError::NodeNotFound { index: idx.0 })
        }
    }

    /// Identifier of `idx`.
    pub fn id_of(&self, idx: NodeIdx) -> Result<u64, DhtError> {
        self.ids.get(idx.0).copied().ok_or(DhtError::NodeNotFound { index: idx.0 })
    }

    /// First *alive* entry of `idx`'s successor list (node-local view).
    pub fn next_clockwise(&self, idx: NodeIdx) -> Result<NodeIdx, DhtError> {
        self.check_live(idx)?;
        self.raw_succs(idx.0)
            .iter()
            .copied()
            .find(|&s| self.alive[s as usize])
            .map(|s| NodeIdx(s as usize))
            .ok_or(DhtError::EmptyOverlay)
    }

    /// Predecessor pointer if alive (node-local view). Range probes that
    /// walk counter-clockwise use this; a dead predecessor stalls the walk
    /// until stabilization, exactly as in the real protocol.
    pub fn next_counterclockwise(&self, idx: NodeIdx) -> Result<NodeIdx, DhtError> {
        self.check_live(idx)?;
        match self.preds[idx.0] {
            p if p != NO_LINK && self.alive[p as usize] => Ok(NodeIdx(p as usize)),
            _ => Err(DhtError::EmptyOverlay),
        }
    }

    /// Append up to `k - 1` replica targets for live node `idx`: the first
    /// distinct *alive* entries of its successor list, never `idx` itself.
    ///
    /// The result at degree `k` is a prefix of the result at `k + 1`
    /// (successor-list placement is a prefix rule), which makes piece
    /// survival monotone in the replication degree. Right after
    /// [`Self::rebuild_all_state`] the list is ground truth, so targets
    /// are the `k - 1` live nodes clockwise of `idx`.
    pub fn replica_targets_into(
        &self,
        idx: NodeIdx,
        k: usize,
        out: &mut Vec<NodeIdx>,
    ) -> Result<(), DhtError> {
        self.check_live(idx)?;
        if k <= 1 {
            return Ok(());
        }
        let want = k - 1;
        let before = out.len();
        for &s in self.raw_succs(idx.0) {
            let slot = s as usize;
            if slot == idx.0 || !self.alive[slot] {
                continue;
            }
            let cand = NodeIdx(slot);
            if out[before..].contains(&cand) {
                continue;
            }
            out.push(cand);
            if out.len() - before == want {
                break;
            }
        }
        Ok(())
    }

    /// Sample successor staleness over every live node's *node-local*
    /// view — the quantities Krishnamurthy et al.'s master-equation
    /// analysis of Chord under churn predicts in closed form. Call just
    /// before a maintenance round: [`Self::rebuild_all_state`] resets
    /// every counter to zero by construction.
    pub fn successor_staleness(&self) -> SuccessorStaleness {
        let mut s = SuccessorStaleness::default();
        for &idx in &self.sorted {
            let succs = self.raw_succs(idx.0);
            if succs.is_empty() {
                continue;
            }
            s.live += 1;
            let dead = succs.iter().filter(|&&x| !self.alive[x as usize]).count();
            // lint:allow(sentinel-guard): raw_succs yields the used
            // prefix (succ_lens-bounded), which never holds NO_LINK.
            if !self.alive[succs[0] as usize] {
                s.stale_first += 1;
            }
            if dead == succs.len() {
                s.exhausted += 1;
            }
            s.dead_entries += dead;
            s.entries += succs.len();
        }
        s
    }

    /// Join a new node with a random identifier, bootstrapping through
    /// `bootstrap`. Returns the new node's index.
    ///
    /// Only the new node's state and its neighbors' immediate pointers are
    /// updated — everyone else's fingers stay stale until [`Self::stabilize_all`]
    /// or per-node repair runs, as in the real protocol.
    pub fn join(&mut self, bootstrap: NodeIdx) -> Result<NodeIdx, DhtError> {
        let mut id = self.rng.gen::<u64>();
        while self.id_used(id) {
            id = id.wrapping_add(0x9e3779b97f4a7c15);
        }
        self.join_with_id(bootstrap, id)
    }

    /// Join with an explicit identifier (tests, adversarial placements).
    pub fn join_with_id(&mut self, bootstrap: NodeIdx, id: u64) -> Result<NodeIdx, DhtError> {
        if self.id_used(id) {
            return Err(DhtError::IdSpaceExhausted);
        }
        self.check_live(bootstrap)?;
        // Find the successor of the new id by routing from the bootstrap
        // (untraced: only the terminal matters).
        let succ = self.route_stats_from(bootstrap, id)?.terminal;
        let idx = self.push_node(id);
        let r = self.cfg.succ_list_len;
        // Splice: new node's successor list comes from succ.
        let mut slist: Vec<u32> = Vec::with_capacity(r);
        slist.push(succ.0 as u32);
        slist.extend(self.raw_succs(succ.0).iter().copied().take(r - 1));
        let pred = self.preds[succ.0];
        self.write_succs(idx.0, &slist);
        self.preds[idx.0] = pred;
        self.preds[succ.0] = idx.0 as u32;
        if pred != NO_LINK && self.alive[pred as usize] {
            let p = pred as usize;
            let mut plist: Vec<u32> = Vec::with_capacity(r + 1);
            plist.push(idx.0 as u32);
            plist.extend(self.raw_succs(p).iter().copied());
            self.write_succs(p, &plist);
        }
        // Initialize fingers by routing (the joining node's own lookups,
        // untraced — 64 of them per join). Buffered and written at the
        // end: the lookups must see the new node's table empty, exactly as
        // the protocol's not-yet-initialized joiner would answer.
        let mut frow = [NO_LINK; FINGER_BITS];
        for (i, f) in frow.iter_mut().enumerate() {
            let target = id.wrapping_add(1u64 << i);
            *f = self.route_stats_from(succ, target).map(|r| r.terminal).unwrap_or(succ).0 as u32;
        }
        self.fingers[idx.0 * FINGER_BITS..(idx.0 + 1) * FINGER_BITS].copy_from_slice(&frow);
        Ok(idx)
    }

    fn retire(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.check_live(idx)?;
        self.alive[idx.0] = false;
        let id = self.ids[idx.0];
        if let Ok(pos) = self.used_ids.binary_search(&id) {
            self.used_ids.remove(pos);
        }
        if let Ok(pos) = self.sorted.binary_search_by(|&j| self.ids[j.0].cmp(&id)) {
            self.sorted.remove(pos);
        }
        Ok(())
    }

    /// Graceful departure: the node tells its neighbors, who splice it out
    /// immediately. Other nodes' fingers stay stale until repair.
    pub fn leave(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.check_live(idx)?;
        let succ_list: Vec<u32> = self.raw_succs(idx.0).to_vec();
        let pred_raw = self.preds[idx.0];
        self.retire(idx)?;
        let succ = succ_list.iter().copied().find(|&s| self.alive[s as usize]);
        let pred = (pred_raw != NO_LINK && self.alive[pred_raw as usize]).then_some(pred_raw);
        if let (Some(s), Some(p)) = (succ, pred) {
            if s as usize != idx.0 && p as usize != idx.0 {
                self.preds[s as usize] = p;
                let pi = p as usize;
                let mut list: Vec<u32> =
                    self.raw_succs(pi).iter().copied().filter(|&x| x as usize != idx.0).collect();
                list.insert(0, s);
                // Order-preserving seen-set dedup: `Vec::dedup` only
                // removes *adjacent* duplicates, so a non-adjacent copy of
                // the spliced-in successor (or any stale repeat) would
                // survive and waste a repair slot. The list is at most
                // `succ_list_len + 1` long, so the quadratic scan is free.
                let mut keep = 0;
                for i in 0..list.len() {
                    let x = list[i];
                    if !list[..keep].contains(&x) {
                        list[keep] = x;
                        keep += 1;
                    }
                }
                list.truncate(keep);
                self.write_succs(pi, &list);
            }
        }
        Ok(())
    }

    /// Abrupt failure: the node vanishes without notifying anyone.
    pub fn fail(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.retire(idx)
    }

    /// One round of the Chord stabilization protocol for `idx`:
    /// refresh the successor (adopting the successor's predecessor when it
    /// sits between), repair the successor list, and re-notify.
    pub fn stabilize(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.check_live(idx)?;
        let my_id = self.ids[idx.0];
        // First alive successor-list entry becomes the working successor.
        let first_alive = self.raw_succs(idx.0).iter().copied().find(|&s| self.alive[s as usize]);
        let Some(mut succ) = first_alive.map(|s| s as usize) else {
            // Total successor loss: re-bootstrap from ground truth would be
            // cheating; the real protocol falls back to the finger table.
            let fallback = self
                .raw_fingers(idx.0)
                .iter()
                .copied()
                .filter(|&f| f != NO_LINK)
                .find(|&f| self.alive[f as usize] && f as usize != idx.0);
            match fallback {
                Some(f) => {
                    self.write_succs(idx.0, &[f]);
                    return Ok(());
                }
                None => return Err(DhtError::EmptyOverlay),
            }
        };
        // Adopt successor's predecessor if it lies in (me, succ).
        let sp = self.preds[succ];
        if sp != NO_LINK {
            let p = sp as usize;
            if p != idx.0
                && self.alive[p]
                && dht_core::in_interval_oo(my_id, self.ids[succ], self.ids[p])
            {
                succ = p;
            }
        }
        // Rebuild successor list from succ's list.
        let r = self.cfg.succ_list_len;
        let mut slist: Vec<u32> = Vec::with_capacity(r);
        slist.push(succ as u32);
        for &s in self.raw_succs(succ) {
            if slist.len() >= r {
                break;
            }
            if self.alive[s as usize] && s as usize != idx.0 && !slist.contains(&s) {
                slist.push(s);
            }
        }
        self.write_succs(idx.0, &slist);
        // Notify: succ adopts me as predecessor if better.
        let adopt = match self.preds[succ] {
            NO_LINK => true,
            p if !self.alive[p as usize] => true,
            p => dht_core::in_interval_oo(self.ids[p as usize], self.ids[succ], my_id),
        };
        if adopt {
            self.preds[succ] = idx.0 as u32;
        }
        Ok(())
    }

    /// Recompute every finger of `idx` by issuing lookups through the
    /// current (possibly stale) overlay state.
    pub fn fix_fingers(&mut self, idx: NodeIdx) -> Result<(), DhtError> {
        self.check_live(idx)?;
        let id = self.ids[idx.0];
        for i in 0..FINGER_BITS {
            let target = id.wrapping_add(1u64 << i);
            if let Ok(r) = self.route_stats_from(idx, target) {
                self.fingers[idx.0 * FINGER_BITS + i] = r.terminal.0 as u32;
            }
        }
        Ok(())
    }

    /// Run one stabilization + finger-repair round on every live node.
    pub fn stabilize_all(&mut self) {
        // Owned snapshot: stabilization mutates node state while iterating.
        let live: Vec<NodeIdx> = self.sorted.clone();
        for &idx in &live {
            if self.alive[idx.0] {
                let _ = self.stabilize(idx);
            }
        }
        for &idx in &live {
            if self.alive[idx.0] {
                let _ = self.fix_fingers(idx);
            }
        }
    }

    /// Live node indices sorted by ring identifier.
    pub fn nodes_by_id(&self) -> &[NodeIdx] {
        &self.sorted
    }

    /// Pick a uniformly random live node.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeIdx> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted[rng.gen_range(0..self.sorted.len())])
        }
    }

    /// Distinct links of `slot`: fingers ∪ successor list ∪ predecessor,
    /// sorted and deduplicated (unfiltered for liveness).
    fn distinct_neighbors(&self, slot: usize) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .raw_fingers(slot)
            .iter()
            .chain(self.raw_succs(slot).iter())
            .chain(self.preds[slot..=slot].iter())
            .copied()
            .filter(|&x| x != NO_LINK)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl Overlay for Chord {
    type Key = u64;

    fn len(&self) -> usize {
        self.sorted.len()
    }

    fn live_nodes(&self) -> &[NodeIdx] {
        &self.sorted
    }

    fn owner_of(&self, key: u64) -> Result<NodeIdx, DhtError> {
        if self.sorted.is_empty() {
            return Err(DhtError::EmptyOverlay);
        }
        Ok(self.true_owner(key))
    }

    fn route(&self, from: NodeIdx, key: u64) -> Result<RouteResult, DhtError> {
        self.route_from(from, key)
    }

    fn route_stats(&self, from: NodeIdx, key: u64) -> Result<RouteStats, DhtError> {
        self.route_stats_from(from, key)
    }

    fn route_stats_faulty(
        &self,
        from: NodeIdx,
        key: u64,
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
        self.check_live(node)?;
        Ok(self
            .distinct_neighbors(node.0)
            .iter()
            .filter(|&&x| self.alive[x as usize] && x as usize != node.0)
            .count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Chord {
        Chord::build(n, ChordConfig::default())
    }

    #[test]
    fn build_sets_ring_invariants() {
        let c = net(64);
        assert_eq!(c.len(), 64);
        for &idx in c.nodes_by_id() {
            let node = c.node(idx).unwrap();
            assert!(node.is_alive());
            assert!(node.successor().is_some());
            assert!(node.predecessor().is_some());
            assert_eq!(node.fingers().len(), FINGER_BITS);
        }
    }

    #[test]
    fn arena_capacity_guards_u32_boundary() {
        // The arena can fill every representable u32 slot except the
        // NO_LINK sentinel itself: u32::MAX slots total (indices
        // 0..=u32::MAX-1), one more is a wrap.
        let max = u32::MAX as usize;
        assert!(arena_has_capacity(max - 1, 1));
        assert!(arena_has_capacity(max, 0));
        assert!(!arena_has_capacity(max, 1));
        assert!(!arena_has_capacity(max - 1, 2));
        assert!(!arena_has_capacity(usize::MAX, 1), "checked_add overflow must fail closed");
    }

    #[test]
    fn succ_list_len_at_u8_boundary_builds() {
        // 255 is the largest storable list length; with n=8 nodes the
        // effective length is n-1, but the config cap itself must pass.
        let c = Chord::build(8, ChordConfig { succ_list_len: 255, seed: 7 });
        for &idx in c.nodes_by_id() {
            assert_eq!(c.raw_succs(idx.0).len(), 7);
        }
    }

    #[test]
    #[should_panic(expected = "succ_list_len must be in 1..=255")]
    fn succ_list_len_past_u8_boundary_is_rejected() {
        let _ = Chord::new(ChordConfig { succ_list_len: 256, seed: 7 });
    }

    #[test]
    #[should_panic(expected = "succ_list_len must be in 1..=255")]
    fn succ_list_len_zero_is_rejected() {
        let _ = Chord::new(ChordConfig { succ_list_len: 0, seed: 7 });
    }

    #[test]
    fn bulk_and_incremental_builds_are_identical() {
        for n in [1usize, 2, 5, 64, 257] {
            let cfg = ChordConfig::default();
            let bulk = Chord::build_with_mode(n, cfg, BuildMode::Bulk);
            let inc = Chord::build_with_mode(n, cfg, BuildMode::Incremental);
            assert_eq!(bulk.ids, inc.ids, "arena order diverged at n={n}");
            assert_eq!(bulk.used_ids, inc.used_ids);
            assert_eq!(bulk.sorted, inc.sorted);
            assert_eq!(bulk.preds, inc.preds);
            assert_eq!(bulk.succs, inc.succs);
            assert_eq!(bulk.succ_lens, inc.succ_lens);
            assert_eq!(bulk.fingers, inc.fingers);
        }
    }

    #[test]
    fn successor_is_next_by_id() {
        let c = net(32);
        let ids = c.nodes_by_id();
        for (pos, &idx) in ids.iter().enumerate() {
            let succ = c.node(idx).unwrap().successor().unwrap();
            assert_eq!(succ, ids[(pos + 1) % ids.len()]);
        }
    }

    #[test]
    fn predecessor_is_prev_by_id() {
        let c = net(32);
        let ids = c.nodes_by_id();
        for (pos, &idx) in ids.iter().enumerate() {
            let pred = c.node(idx).unwrap().predecessor().unwrap();
            assert_eq!(pred, ids[(pos + ids.len() - 1) % ids.len()]);
        }
    }

    #[test]
    fn owner_of_is_clockwise_successor_of_key() {
        let c = net(16);
        for &idx in c.nodes_by_id() {
            let id = c.id_of(idx).unwrap();
            assert_eq!(c.owner_of(id).unwrap(), idx, "node owns its own id");
            // key one past a node belongs to the next node
            let next = c.next_clockwise(idx).unwrap();
            assert_eq!(c.owner_of(id.wrapping_add(1)).unwrap(), next);
        }
    }

    #[test]
    fn outlinks_scale_logarithmically() {
        let small = net(64);
        let large = net(4096);
        let avg = |c: &Chord| {
            let total: usize = c.live_nodes().iter().map(|&i| c.outlinks(i).unwrap()).sum();
            total as f64 / c.len() as f64
        };
        let a = avg(&small);
        let b = avg(&large);
        // log2(64)=6, log2(4096)=12: expect roughly doubled, clearly not 64x.
        assert!(b > a + 2.0, "outlinks should grow with log n: {a} -> {b}");
        assert!(b < a * 4.0, "outlinks must stay logarithmic: {a} -> {b}");
    }

    #[test]
    fn clockwise_walk_visits_every_node_once() {
        let c = net(40);
        let start = c.nodes_by_id()[0];
        let mut cur = start;
        let mut seen = std::collections::HashSet::new();
        loop {
            assert!(seen.insert(cur), "walk revisited {cur}");
            cur = c.next_clockwise(cur).unwrap();
            if cur == start {
                break;
            }
        }
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn graceful_leave_splices_ring() {
        let mut c = net(10);
        let victim = c.nodes_by_id()[3];
        let pred = c.node(victim).unwrap().predecessor().unwrap();
        let succ = c.node(victim).unwrap().successor().unwrap();
        c.leave(victim).unwrap();
        assert_eq!(c.len(), 9);
        assert_eq!(c.next_clockwise(pred).unwrap(), succ);
        assert_eq!(c.node(succ).unwrap().predecessor().unwrap(), pred);
        assert!(!c.node(victim).unwrap().is_alive());
    }

    #[test]
    fn leave_twice_errors() {
        let mut c = net(5);
        let v = c.nodes_by_id()[0];
        c.leave(v).unwrap();
        assert!(c.leave(v).is_err());
    }

    #[test]
    fn join_inserts_in_order() {
        let mut c = net(8);
        let boot = c.nodes_by_id()[0];
        let idx = c.join(boot).unwrap();
        assert_eq!(c.len(), 9);
        let id = c.id_of(idx).unwrap();
        assert_eq!(c.owner_of(id).unwrap(), idx);
        // ring pointers around the new node are consistent
        let succ = c.node(idx).unwrap().successor().unwrap();
        assert_eq!(c.node(succ).unwrap().predecessor().unwrap(), idx);
    }

    #[test]
    fn join_with_duplicate_id_rejected() {
        let mut c = net(4);
        let boot = c.nodes_by_id()[0];
        let id = c.id_of(boot).unwrap();
        assert_eq!(c.join_with_id(boot, id), Err(DhtError::IdSpaceExhausted));
    }

    #[test]
    fn stabilize_recovers_from_abrupt_failure() {
        let mut c = net(30);
        let victim = c.nodes_by_id()[7];
        let pred = c.node(victim).unwrap().predecessor().unwrap();
        c.fail(victim).unwrap();
        // pred's immediate successor pointer is now dead; next_clockwise
        // must skip it through the successor list.
        let after = c.next_clockwise(pred).unwrap();
        assert_ne!(after, victim);
        c.stabilize_all();
        // after repair, pred's first successor entry is alive and correct
        let s = c.node(pred).unwrap().successor().unwrap();
        assert!(c.node(s).unwrap().is_alive());
        assert_eq!(s, after);
    }

    #[test]
    fn random_node_is_live() {
        let mut c = net(12);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let n = c.random_node(&mut rng).unwrap();
            assert!(c.node(n).unwrap().is_alive());
        }
        for idx in c.live_nodes_cloned() {
            if c.len() > 1 {
                let _ = c.leave(idx);
            }
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn leave_drops_non_adjacent_duplicate_successor() {
        // Regression: `Vec::dedup` only removes *adjacent* duplicates, so
        // the old leave path kept a stale non-adjacent copy of the
        // spliced-in successor, wasting a successor-list slot.
        let mut c = net(8);
        let victim = c.nodes_by_id()[3];
        let succ = c.nodes_by_id()[4];
        let other = c.nodes_by_id()[5];
        let pred = c.node(victim).unwrap().predecessor().unwrap();
        // Plant a stale copy of `succ` separated from the front by `other`:
        // after the splice inserts `succ` at the head, the list reads
        // [succ, other, succ] — `Vec::dedup` would keep the trailing copy.
        c.set_successor_list(pred, &[victim, other, succ]);
        c.leave(victim).unwrap();
        let after = c.node(pred).unwrap().successor_list();
        assert_eq!(after.iter().filter(|&&x| x == succ).count(), 1, "dup survived: {after:?}");
        assert_eq!(&after[..2], &[succ, other]);
    }

    #[test]
    fn tombstone_id_is_reserved_against_joins() {
        // Regression: `reserve_tombstone` used to draw a random id without
        // consulting or updating `used_ids`, so a later join could draw
        // the same id and put two arena nodes on one ring position.
        let mut c = net(4);
        let boot = c.nodes_by_id()[0];
        let t = c.reserve_tombstone();
        let tid = c.id_of(t).unwrap();
        assert!(!c.node(t).unwrap().is_alive());
        assert!(c.id_used(tid), "tombstone id must be recorded");
        assert_eq!(c.join_with_id(boot, tid), Err(DhtError::IdSpaceExhausted));
        // And the next tombstone cannot collide with an existing node
        // either: force the rng's next draw onto an occupied id by
        // exhausting... (cheaper: just check distinctness over a batch).
        let mut seen: Vec<u64> = c.used_ids.to_vec();
        for _ in 0..32 {
            let t = c.reserve_tombstone();
            seen.push(c.id_of(t).unwrap());
        }
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "tombstone ids must be collision-free");
    }

    #[test]
    fn empty_overlay_owner_errors() {
        let c = Chord::new(ChordConfig::default());
        assert_eq!(c.owner_of(5), Err(DhtError::EmptyOverlay));
        assert!(c.is_empty());
    }
}
