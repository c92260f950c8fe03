//! One query path, two ways to run it.
//!
//! Every discovery system resolves a multi-attribute query the same way:
//! one DHT lookup per attribute, an optional directory walk from the
//! lookup's terminal, then the requester-side join. What varies between
//! a fault-free and a fault-injected run is only *how* a lookup routes
//! and *how* a walk advances. A [`Probe`] captures exactly that:
//!
//! * [`Plain`] routes with `route_stats` and walks every step;
//! * [`Faulty`] routes with bounded retry under a [`FaultPlan`] and sends
//!   every walk step through [`probe_step`], accumulating a
//!   [`FaultAccount`].
//!
//! Systems write one generic query body over `P: Probe`; the overlays
//! describe their walks as a [`Walk`] (successor stepping plus stop
//! rule), and one loop (`drive`) runs every walk under every probe. Probes
//! are always statically dispatched, so each system's query body is
//! monomorphized per probe with no indirection on the routing hot path.

use crate::error::DhtError;
use crate::fault::{
    probe_step, route_with_retry, sub_msg_id, walk_msg_id, FaultAccount, FaultPlan,
};
use crate::overlay::{NodeIdx, Overlay};
use crate::trace::RouteStats;

/// A directory walk over one overlay: how it steps from node to node and
/// where its stop rule ends it. Fault injection is the [`Probe`]'s
/// business, never the walk's.
pub trait Walk {
    /// Most advances the walk may take.
    fn budget(&self) -> usize;

    /// The node after `cur` on a walk that began at `start`, or `None`
    /// when the walk ends at `cur`: its stop rule fired or it ran out of
    /// nodes (broken pointer, full circle, no successor).
    fn advance(&self, start: NodeIdx, cur: NodeIdx) -> Option<NodeIdx>;
}

/// Run `walk` from `start`, appending every visited node (the start
/// first) to `out`. `step_ok(step, next)` vets each advance (1-based);
/// refusing one truncates the walk, and `drive` then returns `true`.
fn drive<W: Walk>(
    walk: &W,
    start: NodeIdx,
    out: &mut Vec<NodeIdx>,
    mut step_ok: impl FnMut(usize, NodeIdx) -> bool,
) -> bool {
    out.push(start);
    let mut cur = start;
    for step in 0..walk.budget() {
        let Some(next) = walk.advance(start, cur) else {
            return false;
        };
        if !step_ok(step + 1, next) {
            return true;
        }
        out.push(next);
        cur = next;
    }
    false
}

/// How a query issues its lookups and walks. See the module docs.
pub trait Probe {
    /// Route one lookup of `key` from `from`; `msg` is the lookup's
    /// fault-coin message id.
    fn lookup<O: Overlay>(
        &mut self,
        overlay: &O,
        from: NodeIdx,
        key: O::Key,
        msg: u64,
    ) -> Result<RouteStats, DhtError>;

    /// Walk from `start`, appending the visited nodes to `out`. `msg` is
    /// the owning sub-query's message id. Returns `true` when a fault
    /// truncated the walk before its stop rule fired.
    fn walk<W: Walk>(&mut self, walk: &W, start: NodeIdx, msg: u64, out: &mut Vec<NodeIdx>)
        -> bool;

    /// Hops one query may spend before its remaining sub-queries are
    /// abandoned.
    fn hop_budget(&self) -> usize {
        usize::MAX
    }

    /// Message id of sub-query `sub` (ignored by fault-free probes).
    fn sub_msg(&self, sub: usize) -> u64 {
        let _ = sub;
        0
    }

    /// Degradation accrued so far (all zero for fault-free probes).
    fn account(&self) -> FaultAccount {
        FaultAccount::default()
    }
}

/// Route and walk for real, fault-free.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain;

impl Probe for Plain {
    fn lookup<O: Overlay>(
        &mut self,
        overlay: &O,
        from: NodeIdx,
        key: O::Key,
        _msg: u64,
    ) -> Result<RouteStats, DhtError> {
        overlay.route_stats(from, key)
    }

    fn walk<W: Walk>(
        &mut self,
        walk: &W,
        start: NodeIdx,
        _msg: u64,
        out: &mut Vec<NodeIdx>,
    ) -> bool {
        drive(walk, start, out, |_, _| true)
    }
}

/// Route with bounded retry and probe every walk step under a
/// [`FaultPlan`], accumulating the degradation in a [`FaultAccount`].
///
/// An inert plan draws no coins and spends no budget, so it resolves
/// byte-identically to [`Plain`].
#[derive(Debug)]
pub struct Faulty<'a> {
    plan: &'a FaultPlan,
    msg_seed: u64,
    acct: FaultAccount,
}

impl<'a> Faulty<'a> {
    /// Inject `plan`'s faults into the query identified by `msg_seed`.
    pub fn new(plan: &'a FaultPlan, msg_seed: u64) -> Self {
        Self { plan, msg_seed, acct: FaultAccount::default() }
    }
}

impl Probe for Faulty<'_> {
    fn lookup<O: Overlay>(
        &mut self,
        overlay: &O,
        from: NodeIdx,
        key: O::Key,
        msg: u64,
    ) -> Result<RouteStats, DhtError> {
        route_with_retry(overlay, from, key, self.plan, msg, &mut self.acct)
    }

    fn walk<W: Walk>(
        &mut self,
        walk: &W,
        start: NodeIdx,
        msg: u64,
        out: &mut Vec<NodeIdx>,
    ) -> bool {
        let (plan, walk_msg, acct) = (self.plan, walk_msg_id(msg), &mut self.acct);
        drive(walk, start, out, |step, next| probe_step(plan, walk_msg, step, next, acct))
    }

    fn hop_budget(&self) -> usize {
        if self.plan.is_inert() {
            usize::MAX
        } else {
            self.plan.hop_budget()
        }
    }

    fn sub_msg(&self, sub: usize) -> u64 {
        sub_msg_id(self.msg_seed, sub)
    }

    fn account(&self) -> FaultAccount {
        self.acct
    }
}
