//! The `ResourceDiscovery` interface the experiment engine drives.
//!
//! LORM (`lorm` crate) and the three baselines (`baselines` crate) all
//! implement this trait over a population of *physical nodes* — the grid
//! machines of the paper, identified by dense `usize` ids standing in for
//! IP addresses. Each system maps physical nodes onto its own overlay
//! node(s): one Cycloid node for LORM, one Chord node for SWORD/MAAN, and
//! `m` hub nodes for Mercury.

use crate::model::{Query, ResourceInfo};
use crate::planner::{self, QueryPlan};
use crate::replication::PieceKey;
use crate::selectivity::SelectivityEstimator;
use dht_core::{
    DhtError, FaultAccount, FaultPlan, LoadDist, LookupTally, NodeIdx, RepairStats, RouteCache,
    RouteStats,
};
use rand::rngs::SmallRng;

/// Result of resolving one multi-attribute query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOutcome {
    /// Aggregated cost over all sub-queries (hops, lookups, visited
    /// directory nodes, matched pieces).
    pub tally: LookupTally,
    /// Physical nodes that satisfy *every* sub-query — the result of the
    /// paper's database-like join on `ip_addr`.
    pub owners: Vec<usize>,
    /// Every directory node that checked its directory for this query
    /// (overlay arena indices; repeats allowed when several sub-queries
    /// hit the same node). Used by the query-load-balance experiment.
    pub probed: Vec<NodeIdx>,
}

/// Outcome of one query resolved under a [`FaultPlan`]: the plain
/// [`QueryOutcome`] plus degradation accounting.
///
/// Each sub-query ends in one of three states: *resolved* (lookup
/// succeeded and the directory walk ran to completion), *degraded*
/// (lookup succeeded but a fault truncated the walk, so the owner set
/// may be incomplete), or *failed* (the lookup never reached a
/// directory node within the retry budget). `subs_resolved` counts only
/// the first class; the query as a whole is complete when every
/// sub-query resolved and failed when none produced any answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultyOutcome {
    /// The (possibly partial) query result. Costs include hops wasted
    /// on dropped or dead-ended attempts.
    pub outcome: QueryOutcome,
    /// Sub-queries that fully resolved (lookup ok, walk untruncated).
    pub subs_resolved: usize,
    /// Sub-queries whose lookup succeeded at all (resolved + degraded).
    pub subs_answered: usize,
    /// Total sub-queries in the query.
    pub subs_total: usize,
    /// Retries spent across all sub-query lookups.
    pub retries: u64,
    /// Messages lost in transit across all attempts.
    pub dropped_msgs: u64,
}

impl FaultyOutcome {
    /// Wrap a fault-free outcome: every sub-query fully resolved.
    pub fn complete(outcome: QueryOutcome, subs_total: usize) -> Self {
        Self {
            outcome,
            subs_resolved: subs_total,
            subs_answered: subs_total,
            subs_total,
            retries: 0,
            dropped_msgs: 0,
        }
    }

    /// Every sub-query fully resolved: the result is authoritative.
    pub fn is_complete(&self) -> bool {
        self.subs_resolved == self.subs_total
    }

    /// No sub-query produced any answer: the query failed outright.
    pub fn is_failed(&self) -> bool {
        self.subs_answered == 0 && self.subs_total > 0
    }

    /// Some but not all sub-queries resolved, or a walk was truncated:
    /// the owner set is usable but possibly incomplete.
    pub fn is_partial(&self) -> bool {
        !self.is_complete() && !self.is_failed()
    }
}

/// A multi-attribute range-capable resource discovery system under test.
pub trait ResourceDiscovery {
    /// Short system name used in reports ("LORM", "Mercury", …).
    fn name(&self) -> &'static str;

    /// Deep-copy this system behind a fresh box — the snapshot primitive
    /// of the bed cache. The clone carries *all* state (overlay links,
    /// directories, RNGs), so driving the clone and the original through
    /// identical operation sequences yields identical results, and
    /// mutating one never observably affects the other.
    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync>;

    /// Number of live physical nodes.
    fn num_physical(&self) -> usize;

    /// Is this physical node currently part of the system?
    fn is_live(&self, phys: usize) -> bool;

    /// Replace all stored directory state with ground-truth placement of
    /// `reports` — the steady state after every node's periodic
    /// `Insert(rescID, rescInfo)` report has been delivered.
    fn place_all(&mut self, reports: &[ResourceInfo]);

    /// Deliver one availability report through routed inserts from its
    /// owner, returning the routing cost. (The steady-state experiments
    /// use [`Self::place_all`]; this is the per-report path.)
    fn register(&mut self, info: ResourceInfo) -> Result<LookupTally, DhtError>;

    /// Resolve a multi-attribute query issued by physical node `phys`,
    /// counting every hop and visited directory node.
    fn query_from(&self, phys: usize, q: &Query) -> Result<QueryOutcome, DhtError>;

    /// [`Self::query_from`], ignoring the zero-sized [`RouteCache`]
    /// placeholder. Kept for the benchmark adapter; not overridden.
    fn query_from_cached(
        &self,
        phys: usize,
        q: &Query,
        _cache: &mut RouteCache,
    ) -> Result<QueryOutcome, DhtError> {
        self.query_from(phys, q)
    }

    /// The per-attribute selectivity histograms maintained by this
    /// system, if it keeps any. The adaptive query plan consults this to
    /// order sub-queries most-selective-first; `None` (the default) makes
    /// [`QueryPlan::Adaptive`] degrade gracefully to document order.
    fn selectivity(&self) -> Option<&SelectivityEstimator> {
        None
    }

    /// Resolve `q` under an explicit [`QueryPlan`].
    ///
    /// `Parallel` delegates to [`Self::query_from`]; `Sequential` and
    /// `Adaptive` resolve sub-queries one at a time (ordered by
    /// [`planner::plan_order`]), threading the surviving candidate set
    /// and short-circuiting when it empties — remaining sub-queries are
    /// skipped entirely, their lookups never happen. All three plans
    /// return identical owner sets; tally semantics are documented in
    /// [`crate::planner`].
    fn query_planned(
        &self,
        phys: usize,
        q: &Query,
        plan: QueryPlan,
    ) -> Result<QueryOutcome, DhtError> {
        match plan {
            QueryPlan::Parallel => self.query_from(phys, q),
            QueryPlan::Sequential | QueryPlan::Adaptive => {
                let order = planner::plan_order(q, plan, self.selectivity());
                planner::resolve_in_order(q, &order, &mut |single| self.query_from(phys, single))
            }
        }
    }

    /// [`Self::query_planned`], ignoring the zero-sized [`RouteCache`]
    /// placeholder. Every fault-free query the batch executors run enters
    /// here, so a proxy that overrides only this method sees them all.
    fn query_planned_cached(
        &self,
        phys: usize,
        q: &Query,
        plan: QueryPlan,
        _cache: &mut RouteCache,
    ) -> Result<QueryOutcome, DhtError> {
        self.query_planned(phys, q, plan)
    }

    /// [`Self::query_from_faulty`], ignoring the zero-sized [`RouteCache`]
    /// placeholder. Kept for the benchmark adapter; not overridden.
    fn query_from_faulty_cached(
        &self,
        phys: usize,
        q: &Query,
        plan: &FaultPlan,
        msg_seed: u64,
        _cache: &mut RouteCache,
    ) -> Result<FaultyOutcome, DhtError> {
        self.query_from_faulty(phys, q, plan, msg_seed)
    }

    /// Resolve a query while `plan` injects message drops and routes
    /// around ungracefully failed nodes. `msg_seed` identifies the query
    /// in the fault coin stream: the same `(plan, msg_seed)` pair always
    /// draws the same faults regardless of sharding.
    ///
    /// The default is fault-unaware: it delegates to
    /// [`Self::query_from`] and reports a complete outcome, which is
    /// exactly right when `plan.is_inert()`. Systems override this to
    /// add bounded retry, alternate-probe fallback, and partial-result
    /// accounting.
    fn query_from_faulty(
        &self,
        phys: usize,
        q: &Query,
        plan: &FaultPlan,
        msg_seed: u64,
    ) -> Result<FaultyOutcome, DhtError> {
        let _ = (plan, msg_seed);
        Ok(FaultyOutcome::complete(self.query_from(phys, q)?, q.arity()))
    }

    /// Resource-information pieces currently stored per live physical node
    /// (the directory-size distribution of Figure 3(b–d)).
    fn directory_loads(&self) -> LoadDist;

    /// Total stored pieces across all directories (Theorem 4.2's metric:
    /// MAAN stores two pieces per report, everyone else one).
    fn total_pieces(&self) -> usize;

    /// Distinct overlay outlinks maintained per live physical node
    /// (the structure-maintenance metric of Figure 3(a); Mercury pays this
    /// once per attribute hub).
    fn outlinks_per_node(&self) -> LoadDist;

    /// A new physical node joins (churn). Returns its id.
    fn join_physical(&mut self, rng: &mut SmallRng) -> Result<usize, DhtError>;

    /// Physical node `phys` departs gracefully (churn).
    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError>;

    /// Physical node `phys` fails abruptly: no handoff, no notifications —
    /// its directory contents are lost until the next reporting round and
    /// neighbors' links stay stale until repair.
    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError>;

    /// Run one maintenance round (stabilization / link repair) across the
    /// system's overlay(s). When replication is enabled this also repairs
    /// replica placement: copies whose primary died are promoted to the
    /// new owner, and under-replicated pieces are re-copied to their
    /// current targets (bandwidth accounted in [`Self::repair_stats`]).
    fn stabilize(&mut self);

    /// Enable replication at degree `k`: each stored piece lives on its
    /// owner plus `k - 1` neighbor-set replicas, seeded immediately from
    /// the current directories (the seeding is initial placement, not
    /// repair, so it is *not* counted in [`Self::repair_stats`]).
    ///
    /// `k <= 1` (the default everywhere) disables replication entirely —
    /// no replica state, no repair work, byte-identical behaviour to a
    /// build without this layer. The default impl ignores the request,
    /// which is exactly that contract.
    fn set_replication(&mut self, k: usize) {
        let _ = k;
    }

    /// The configured replication degree (`1` = unreplicated).
    fn replication(&self) -> usize {
        1
    }

    /// Cumulative replica-repair bandwidth counters (zero while
    /// unreplicated).
    fn repair_stats(&self) -> RepairStats {
        RepairStats::default()
    }

    /// Append the [`PieceKey`] of every piece currently reachable on a
    /// *live* node — primaries and replicas both. The caller owns
    /// canonicalization (sort + dedup); duplicate registrations of one
    /// logical piece are expected and collapse there.
    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>);
}

impl Clone for Box<dyn ResourceDiscovery + Send + Sync> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Requester-side accumulator behind every system's query body: it
/// charges each sub-query's lookups, walk and matches to one tally,
/// tracks which sub-queries were answered and fully resolved, and ends
/// with the join on `ip_addr`.
#[derive(Debug)]
pub struct OutcomeBuilder {
    /// Cost accumulated so far; systems read `hops` for the hop budget.
    pub tally: LookupTally,
    probed: Vec<NodeIdx>,
    per_sub: Vec<Vec<usize>>,
    subs_resolved: usize,
    subs_answered: usize,
}

impl OutcomeBuilder {
    /// An empty accumulator for a query of `arity` sub-queries.
    #[inline]
    pub fn new(arity: usize) -> Self {
        Self {
            tally: LookupTally::default(),
            probed: Vec::new(),
            per_sub: Vec::with_capacity(arity),
            subs_resolved: 0,
            subs_answered: 0,
        }
    }

    /// Charge one lookup. A route yields `Some`; a lookup lost to a
    /// dropped message or dead hop charges its wasted hops and yields
    /// `None` (the sub-query goes unanswered); any other error aborts
    /// the query.
    #[inline]
    pub fn lookup(
        &mut self,
        route: Result<RouteStats, DhtError>,
    ) -> Result<Option<RouteStats>, DhtError> {
        self.tally.lookups += 1;
        match route {
            Ok(r) => {
                self.tally.hops += r.hops;
                Ok(Some(r))
            }
            Err(DhtError::MessageDropped { hops } | DhtError::DeadHop { hops }) => {
                self.tally.hops += hops;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// A directory node checked outside any sub-query's answer (MAAN's
    /// attribute root).
    #[inline]
    pub fn visit(&mut self, node: NodeIdx) {
        self.tally.visited += 1;
        self.probed.push(node);
    }

    /// One answered sub-query: the nodes its walk probed and the owners
    /// they matched. `resolved` is false when a fault truncated the walk
    /// (or otherwise degraded the answer).
    #[inline]
    pub fn answer(&mut self, walk: &[NodeIdx], owners: Vec<usize>, resolved: bool) {
        self.tally.visited += walk.len();
        self.tally.matches += owners.len();
        self.probed.extend_from_slice(walk);
        self.per_sub.push(owners);
        self.subs_answered += 1;
        self.subs_resolved += usize::from(resolved);
    }

    /// Join the answers and attach the degradation accounting.
    #[inline]
    pub fn finish(self, subs_total: usize, acct: FaultAccount) -> FaultyOutcome {
        FaultyOutcome {
            outcome: QueryOutcome {
                tally: self.tally,
                owners: join_owners(self.per_sub),
                probed: self.probed,
            },
            subs_resolved: self.subs_resolved,
            subs_answered: self.subs_answered,
            subs_total,
            retries: acct.retries,
            dropped_msgs: acct.dropped_msgs,
        }
    }
}

/// The requester-side "database-like join on `ip_addr`": intersect the
/// per-sub-query owner sets, returning owners that satisfy every
/// constraint. Inputs are the matched owners of each sub-query.
pub fn join_owners(mut per_sub: Vec<Vec<usize>>) -> Vec<usize> {
    let Some(mut acc) = per_sub.pop() else {
        return Vec::new();
    };
    acc.sort_unstable();
    acc.dedup();
    for mut set in per_sub {
        set.sort_unstable();
        set.dedup();
        acc.retain(|o| set.binary_search(o).is_ok());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_of_nothing_is_empty() {
        assert!(join_owners(vec![]).is_empty());
    }

    #[test]
    fn join_single_set_dedupes() {
        assert_eq!(join_owners(vec![vec![3, 1, 3, 2]]), vec![1, 2, 3]);
    }

    #[test]
    fn join_intersects() {
        let r = join_owners(vec![vec![1, 2, 3, 4], vec![2, 4, 6], vec![4, 2, 0]]);
        assert_eq!(r, vec![2, 4]);
    }

    #[test]
    fn join_with_empty_set_is_empty() {
        let r = join_owners(vec![vec![1, 2], vec![]]);
        assert!(r.is_empty());
    }

    #[test]
    fn join_disjoint_is_empty() {
        let r = join_owners(vec![vec![1, 3], vec![2, 4]]);
        assert!(r.is_empty());
    }

    #[test]
    fn query_outcome_default_is_zero() {
        let o = QueryOutcome::default();
        assert_eq!(o.tally, LookupTally::default());
        assert!(o.owners.is_empty());
    }

    #[test]
    fn complete_faulty_outcome_classifies_as_complete() {
        let f = FaultyOutcome::complete(QueryOutcome::default(), 3);
        assert!(f.is_complete());
        assert!(!f.is_partial());
        assert!(!f.is_failed());
        assert_eq!(f.subs_resolved, 3);
        assert_eq!(f.subs_answered, 3);
        assert_eq!(f.retries, 0);
        assert_eq!(f.dropped_msgs, 0);
    }

    #[test]
    fn all_subs_failed_classifies_as_failed() {
        let f = FaultyOutcome { subs_total: 2, ..FaultyOutcome::default() };
        assert!(f.is_failed());
        assert!(!f.is_partial());
        assert!(!f.is_complete());
    }

    #[test]
    fn mixed_subs_classify_as_partial() {
        // One sub resolved, one failed.
        let f = FaultyOutcome {
            subs_resolved: 1,
            subs_answered: 1,
            subs_total: 2,
            ..FaultyOutcome::default()
        };
        assert!(f.is_partial());
        // All answered but one walk truncated: still partial.
        let g = FaultyOutcome {
            subs_resolved: 1,
            subs_answered: 2,
            subs_total: 2,
            ..FaultyOutcome::default()
        };
        assert!(g.is_partial());
        assert!(!g.is_failed());
    }
}
