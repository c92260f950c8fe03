//! The overlay interface the experiment engine drives.
//!
//! Both simulators (Chord and Cycloid) store their nodes in a generational
//! arena and expose routing through this trait, so the discovery systems
//! and the measurement harness are agnostic to which DHT is underneath.

use crate::error::DhtError;
use crate::fault::{FaultPlan, MsgId};
use crate::trace::{RouteResult, RouteStats};

/// Arena index of a node within an overlay.
///
/// Indices are stable for the lifetime of a node; a departed node's slot is
/// tomb-stoned (never reused within one experiment) so traces and directory
/// references can always be attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub usize);

impl NodeIdx {
    /// The raw arena slot.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// How an overlay (or a system mounted on one) assembles its initial
/// membership and directory state.
///
/// Both modes produce byte-identical overlays — the equivalence is pinned
/// by proptests — so the choice is purely a construction-cost knob:
/// `Bulk` sorts the drawn identifiers once and derives all link state in
/// one pass (O(n log n)), while `Incremental` performs one ordered insert
/// per node (O(n²) aggregate), which is the reference path and the shape
/// genuine runtime joins take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildMode {
    /// Sorted bulk construction — the default for experiment beds.
    #[default]
    Bulk,
    /// Per-node ordered inserts — the reference path used to validate the
    /// bulk constructors.
    Incremental,
}

/// A structured DHT overlay, as seen by the discovery layer.
///
/// The associated `Key` type is the overlay's identifier: a plain `u64` for
/// Chord, a (cyclic, cubical) pair for Cycloid.
pub trait Overlay {
    /// Identifier type of keys and nodes.
    type Key: Copy + std::fmt::Debug;

    /// Number of live nodes.
    fn len(&self) -> usize;

    /// True when the overlay has no live nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arena indices of all live nodes, borrowed from the overlay's
    /// internal index (no allocation). The order is deterministic and
    /// overlay-specific (ring order for Chord, arena order for Cycloid).
    fn live_nodes(&self) -> &[NodeIdx];

    /// Owned copy of [`Overlay::live_nodes`] — only for callers that must
    /// mutate the overlay while iterating (maintenance loops). Hot paths
    /// borrow instead; the `route-path-alloc` lint flags new clones.
    fn live_nodes_cloned(&self) -> Vec<NodeIdx> {
        self.live_nodes().to_vec()
    }

    /// Ground-truth owner of a key (consistent-hashing assignment), without
    /// routing. Used to verify that routed lookups are exact.
    fn owner_of(&self, key: Self::Key) -> Result<NodeIdx, DhtError>;

    /// Route a lookup for `key` from `from`, tracing every hop.
    fn route(&self, from: NodeIdx, key: Self::Key) -> Result<RouteResult, DhtError>;

    /// Route a lookup for `key` from `from` without tracing the path:
    /// only `(hops, terminal, exact)` are produced. Semantically identical
    /// to [`Overlay::route`]; overlays override this with an
    /// allocation-free hop counter (the default delegates to the traced
    /// variant).
    fn route_stats(&self, from: NodeIdx, key: Self::Key) -> Result<RouteStats, DhtError> {
        // lint:allow(route-path-alloc): compatibility default for overlays
        // without a dedicated fast path; both simulators override it.
        let r = self.route(from, key)?;
        Ok(RouteStats { hops: r.hops(), terminal: r.terminal, exact: r.exact })
    }

    /// Route a lookup under a fault plan: forwarding consults the plan's
    /// per-message drop coins and failed-node set, surfacing
    /// [`DhtError::MessageDropped`] / [`DhtError::DeadHop`] outcomes.
    /// Overlays route through a `FaultSink`-wrapped routing loop and
    /// short-circuit inert plans to the plain fast path (byte-identical
    /// results); the default ignores the plan — fault-unaware overlays
    /// simply never degrade.
    fn route_stats_faulty(
        &self,
        from: NodeIdx,
        key: Self::Key,
        plan: &FaultPlan,
        msg: MsgId,
    ) -> Result<RouteStats, DhtError> {
        let _ = (plan, msg);
        self.route_stats(from, key)
    }

    /// Number of *distinct* outgoing links `node` currently maintains.
    /// This is the structure-maintenance-overhead metric of Figure 3(a).
    fn outlinks(&self, node: NodeIdx) -> Result<usize, DhtError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_idx_display() {
        assert_eq!(NodeIdx(17).to_string(), "n17");
    }

    #[test]
    fn node_idx_ordering_follows_slot() {
        assert!(NodeIdx(1) < NodeIdx(2));
        assert_eq!(NodeIdx(3).index(), 3);
    }
}
