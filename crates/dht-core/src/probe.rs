//! One query path, three ways to run it.
//!
//! Every discovery system resolves a multi-attribute query the same way:
//! one DHT lookup per attribute, an optional directory walk from the
//! lookup's terminal, then the requester-side join. What varies between
//! a plain, a cached and a fault-injected run is only *how* a lookup
//! routes and *how* a walk advances. A [`Probe`] captures exactly that:
//!
//! * [`Plain`] routes with `route_stats` and walks every step;
//! * [`Cached`] answers lookups and walks from a [`RouteCache`] — the
//!   replay, two-touch admission and commit of cached walks live here
//!   and nowhere else;
//! * [`Faulty`] routes with bounded retry under a [`FaultPlan`] and sends
//!   every walk step through [`probe_step`], accumulating a
//!   [`FaultAccount`].
//!
//! Systems write one generic query body over `P: Probe`; the overlays
//! describe their walks as a [`Walk`] (successor stepping plus stop
//! rule), and one loop (`drive`) runs every walk under every probe. Probes
//! are always statically dispatched, so each system's query body is
//! monomorphized per probe with no indirection on the routing hot path.

use core::ops::ControlFlow;

use crate::cache::{route_stats_cached, RouteCache, WalkStep};
use crate::error::DhtError;
use crate::fault::{
    probe_step, route_with_retry, sub_msg_id, walk_msg_id, FaultAccount, FaultPlan,
};
use crate::overlay::{NodeIdx, Overlay};
use crate::trace::RouteStats;

/// Why a walk stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkEnd {
    /// The walk's stop rule fired: the queried arc is covered.
    Covered,
    /// The walk ran out of nodes for a span-independent reason (broken
    /// pointer, full circle, no successor, probe budget).
    Exhausted,
    /// A fault cut the walk short before its stop rule fired.
    Truncated,
}

/// Cache identity of a walk: the segment anchored at `lo` of width
/// `span` on the overlay state stamped `epoch`, namespaced by `salt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkKey {
    /// Namespace of the overlay the walk runs on (e.g. a Mercury hub).
    pub salt: u64,
    /// The walk's anchor.
    pub lo: u64,
    /// The walk's span, in the units of [`WalkStep::dist`].
    pub span: u64,
    /// The overlay epoch the walk observes.
    pub epoch: u64,
}

/// A directory walk over one overlay: how it steps from node to node and
/// where its stop rule ends it. Caching and fault injection are the
/// [`Probe`]'s business, never the walk's.
pub trait Walk {
    /// Most advances the walk may take.
    fn budget(&self) -> usize;

    /// The step after `cur` on a walk that began at `start`, or why the
    /// walk ends at `cur`. A returned step's `dist` is the quantity the
    /// stop rule tested to admit it.
    fn advance(&self, start: NodeIdx, cur: NodeIdx) -> ControlFlow<WalkEnd, WalkStep>;

    /// Does the stop rule admit a step at distance `dist`? `advance`
    /// applies it to live steps and the cache to replayed ones, so a
    /// wider cached walk truncates to exactly this walk's emission.
    fn admits(&self, dist: u64) -> bool;

    /// The walk's cache identity, or `None` for a walk the cache does
    /// not memoize (no stop rule worth replaying).
    fn cache_key(&self) -> Option<WalkKey>;
}

/// Run `walk` from `start`, appending every visited node (the start
/// first) to `out`. `step_ok(step, next)` vets each advance (1-based);
/// refusing one truncates the walk.
fn drive<W: Walk>(
    walk: &W,
    start: NodeIdx,
    out: &mut Vec<NodeIdx>,
    mut step_ok: impl FnMut(usize, WalkStep) -> bool,
) -> WalkEnd {
    out.push(start);
    let mut cur = start;
    for step in 0..walk.budget() {
        match walk.advance(start, cur) {
            ControlFlow::Continue(next) => {
                if !step_ok(step + 1, next) {
                    return WalkEnd::Truncated;
                }
                out.push(next.node);
                cur = next.node;
            }
            ControlFlow::Break(end) => return end,
        }
    }
    WalkEnd::Exhausted
}

/// How a query issues its lookups and walks. See the module docs.
pub trait Probe {
    /// Route one lookup of `key` from `from`. `salt` namespaces overlays
    /// sharing one cache; `msg` is the lookup's fault-coin message id.
    fn lookup<O: Overlay>(
        &mut self,
        overlay: &O,
        from: NodeIdx,
        key: O::Key,
        salt: u64,
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

/// Route and walk for real, fault-free and uncached.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain;

impl Probe for Plain {
    fn lookup<O: Overlay>(
        &mut self,
        overlay: &O,
        from: NodeIdx,
        key: O::Key,
        _salt: u64,
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
        drive(walk, start, out, |_, _| true);
        false
    }
}

/// Answer lookups and walks from a [`RouteCache`] — byte-identical to
/// [`Plain`] by construction.
#[derive(Debug)]
pub struct Cached<'a>(pub &'a mut RouteCache);

impl Probe for Cached<'_> {
    fn lookup<O: Overlay>(
        &mut self,
        overlay: &O,
        from: NodeIdx,
        key: O::Key,
        salt: u64,
        _msg: u64,
    ) -> Result<RouteStats, DhtError> {
        route_stats_cached(overlay, from, key, salt, self.0)
    }

    /// A fresh-epoch segment cached for at least this span replays
    /// through the walk's own stop rule; otherwise the walk runs for real
    /// and, once its key has been seen before (two-touch admission: a
    /// never-repeating walk is not worth the per-step copy), its emission
    /// is recorded. A walk that ended for a span-independent reason
    /// emitted everything reachable from `start`, so it is stored with an
    /// unbounded span and serves wider queries too.
    fn walk<W: Walk>(
        &mut self,
        walk: &W,
        start: NodeIdx,
        _msg: u64,
        out: &mut Vec<NodeIdx>,
    ) -> bool {
        let Some(key) = walk.cache_key() else {
            return Plain.walk(walk, start, 0, out);
        };
        let cache = &mut *self.0;
        if let Some(steps) = cache.walk_lookup(key.salt, start, key.lo, key.span, key.epoch) {
            out.push(start);
            out.extend(steps.iter().take_while(|s| walk.admits(s.dist)).map(|s| s.node));
            return false;
        }
        let mut rec =
            cache.admit_walk(key.salt, start, key.lo, key.epoch).then(|| cache.begin_walk());
        let end = drive(walk, start, out, |_, step| {
            if let Some(rec) = rec.as_mut() {
                rec.push(step);
            }
            true
        });
        if let Some(rec) = rec {
            let span = if end == WalkEnd::Covered { key.span } else { u64::MAX };
            cache.commit_walk(key.salt, start, key.lo, span, key.epoch, rec);
        }
        false
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
        _salt: u64,
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
        drive(walk, start, out, |step, next| probe_step(plan, walk_msg, step, next.node, acct))
            == WalkEnd::Truncated
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
