//! Multi-attribute query planning — a trait-level capability of every
//! [`crate::ResourceDiscovery`] system.
//!
//! §III of the paper resolves the sub-queries of a multi-attribute query
//! **in parallel** and joins the full owner sets at the requester. That
//! minimizes latency but ships every sub-query's complete match list
//! back. The classic database alternative resolves sub-queries
//! **sequentially**, threading the surviving candidate set through:
//! after the first sub-query, each directory only returns owners that
//! are still candidates, so transfer volume collapses to roughly the
//! first attribute's match count. The **adaptive** plan goes one step
//! further: it orders sub-queries most-selective-first using the
//! per-attribute histograms of [`crate::SelectivityEstimator`], so the
//! candidate set is small from the very first step and empty
//! intersections short-circuit the remaining lookups entirely.
//!
//! ## Tally semantics under sequential/adaptive plans
//!
//! `matches` counts **pieces shipped to the requester**, the paper's
//! transfer-volume metric and the one the plans differ on:
//!
//! * the *first* resolved sub-query ships its full match list — the same
//!   pieces the parallel plan would count for that sub-query (duplicate
//!   owners included, one entry per piece), so an arity-1 query tallies
//!   identically under every plan;
//! * every *later* step ships one entry per **surviving** owner — the
//!   directory filters against the candidate set before answering;
//! * a step that empties the candidate set ends the query: remaining
//!   sub-queries are skipped and their lookups never happen.
//!
//! `owners.len()` is the final answer size; `matches >= owners.len()`
//! always holds. `probed` is deduplicated order-preservingly — a
//! directory node visited by several sequential steps appears once.

use crate::discovery::QueryOutcome;
use crate::model::Query;
use crate::selectivity::SelectivityEstimator;
use dht_core::{DhtError, LookupTally, NodeIdx};

/// How a multi-attribute query is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryPlan {
    /// All sub-queries in parallel; join at the requester (§III).
    #[default]
    Parallel,
    /// Sequential resolution in document order, threading the candidate
    /// set: each subsequent directory filters against the survivors of
    /// the previous step.
    Sequential,
    /// Sequential resolution ordered most-selective-first by the
    /// system's [`SelectivityEstimator`] histograms; falls back to
    /// document order when the estimator is absent or untrained.
    Adaptive,
}

impl QueryPlan {
    /// Every plan, in ablation-sweep order.
    pub const ALL: [QueryPlan; 3] =
        [QueryPlan::Parallel, QueryPlan::Sequential, QueryPlan::Adaptive];

    /// Lower-case name used in CLI flags, JSON and report labels.
    pub fn name(self) -> &'static str {
        match self {
            QueryPlan::Parallel => "parallel",
            QueryPlan::Sequential => "sequential",
            QueryPlan::Adaptive => "adaptive",
        }
    }

    /// Parse a CLI flag value (the inverse of [`Self::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "parallel" => Some(QueryPlan::Parallel),
            "sequential" => Some(QueryPlan::Sequential),
            "adaptive" => Some(QueryPlan::Adaptive),
            _ => None,
        }
    }
}

/// When one side is this many times longer than the other, the sorted
/// merge switches to galloping (exponential probe + binary search) over
/// the longer side.
const GALLOP_FACTOR: usize = 8;

/// Intersect two sorted, deduplicated owner sets **in place** on `acc`,
/// allocation-free: `acc` keeps exactly the elements also present in
/// `other`. The merge walks both sides linearly when they are comparable
/// in size and gallops through the longer side on an 8× or larger
/// size mismatch. Proven 0 allocs/call by the counting-global-allocator
/// harness (`crates/bench/tests/alloc_count_planner.rs`).
pub fn intersect_sorted(acc: &mut Vec<usize>, other: &[usize]) {
    let mut w = 0;
    if other.len() >= acc.len().saturating_mul(GALLOP_FACTOR) {
        // Few candidates, long answer: gallop through `other`.
        let mut j = 0;
        for i in 0..acc.len() {
            let x = acc[i];
            j += gallop_to(&other[j..], x);
            if j < other.len() && other[j] == x {
                acc[w] = x;
                w += 1;
                j += 1;
            }
        }
    } else if acc.len() >= other.len().saturating_mul(GALLOP_FACTOR) {
        // Long candidate list, few answers: gallop through `acc`.
        let mut i = 0;
        for &x in other {
            i += gallop_to(&acc[i..], x);
            if i < acc.len() && acc[i] == x {
                acc[w] = x;
                w += 1;
                i += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < acc.len() && j < other.len() {
            match acc[i].cmp(&other[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc[w] = acc[i];
                    w += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    acc.truncate(w);
}

/// Offset of the first element of sorted `s` that is `>= x`, found by
/// exponential probing then binary search within the bracketed window.
fn gallop_to(s: &[usize], x: usize) -> usize {
    let mut hi = 1;
    while hi < s.len() && s[hi - 1] < x {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|&v| v < x)
}

/// Sub-query resolution order for `plan`. Returns indices into `q.subs`.
///
/// `Adaptive` sorts ascending by estimated match count with the original
/// index as a deterministic tie-break; `Sequential` (and an untrained or
/// absent estimator) keeps document order.
pub fn plan_order(q: &Query, plan: QueryPlan, sel: Option<&SelectivityEstimator>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..q.subs.len()).collect();
    if plan == QueryPlan::Adaptive {
        if let Some(sel) = sel.filter(|s| s.is_trained()) {
            let est: Vec<f64> = q.subs.iter().map(|s| sel.estimate(s)).collect();
            // f64 comparison: estimates are finite sums of finite counts,
            // total_cmp keeps the sort deterministic regardless.
            order.sort_by(|&a, &b| est[a].total_cmp(&est[b]).then(a.cmp(&b)));
        }
    }
    order
}

/// Resolve `q` one sub-query at a time in `order`, threading the
/// surviving candidate set, with the tally semantics documented at the
/// module level. `resolve` answers a single-sub query (a borrowed scratch
/// query, rebuilt per step) — the trait layer binds it to `query_from`.
pub fn resolve_in_order(
    q: &Query,
    order: &[usize],
    resolve: &mut dyn FnMut(&Query) -> Result<QueryOutcome, DhtError>,
) -> Result<QueryOutcome, DhtError> {
    let mut tally = LookupTally::default();
    let mut probed_all: Vec<NodeIdx> = Vec::new();
    let mut survivors: Vec<usize> = Vec::new();
    let mut first = true;
    // One single-sub scratch query reused across the sequential steps.
    let mut single = Query { subs: Vec::with_capacity(1) };
    for &idx in order {
        if !first && survivors.is_empty() {
            break; // short-circuit: nothing can match anymore
        }
        single.subs.clear();
        single.subs.push(q.subs[idx]);
        let out = resolve(&single)?;
        tally.hops += out.tally.hops;
        tally.lookups += out.tally.lookups;
        tally.visited += out.tally.visited;
        probed_all.extend(out.probed);
        let mut found = out.owners;
        if first {
            // First step ships its full match list (one entry per piece,
            // duplicates included) — identical to the parallel tally for
            // this sub-query.
            tally.matches += out.tally.matches;
            found.sort_unstable();
            found.dedup();
            survivors = found;
            first = false;
        } else {
            found.sort_unstable();
            found.dedup();
            intersect_sorted(&mut survivors, &found);
            // Later steps ship one entry per surviving owner.
            tally.matches += survivors.len();
        }
    }
    // A directory visited twice probes once.
    dedup_first_occurrences(&mut probed_all);
    Ok(QueryOutcome { tally, owners: survivors, probed: probed_all })
}

/// Drop repeated entries, keeping each value's first occurrence in
/// order, in O(k log k). Sorting (value, position) pairs puts each
/// value's first occurrence at the head of its run.
fn dedup_first_occurrences(v: &mut Vec<NodeIdx>) {
    let mut firsts: Vec<(NodeIdx, usize)> = v.iter().copied().zip(0..).collect();
    firsts.sort_unstable();
    firsts.dedup_by_key(|&mut (node, _)| node);
    firsts.sort_unstable_by_key(|&(_, pos)| pos);
    v.clear();
    v.extend(firsts.into_iter().map(|(node, _)| node));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttrId, SubQuery, ValueTarget};

    #[test]
    fn plan_names_round_trip() {
        for plan in QueryPlan::ALL {
            assert_eq!(QueryPlan::parse(plan.name()), Some(plan));
        }
        assert_eq!(QueryPlan::parse("bogus"), None);
    }

    #[test]
    fn default_plan_is_parallel() {
        assert_eq!(QueryPlan::default(), QueryPlan::Parallel);
    }

    fn check_intersect(a: &[usize], b: &[usize]) {
        let mut acc = a.to_vec();
        intersect_sorted(&mut acc, b);
        let want: Vec<usize> = a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect();
        assert_eq!(acc, want, "a={a:?} b={b:?}");
    }

    #[test]
    fn intersect_matches_reference_on_comparable_sizes() {
        check_intersect(&[1, 3, 5, 7, 9], &[2, 3, 4, 7, 10]);
        check_intersect(&[], &[1, 2, 3]);
        check_intersect(&[1, 2, 3], &[]);
        check_intersect(&[4, 5, 6], &[4, 5, 6]);
        check_intersect(&[1, 2], &[3, 4]);
    }

    #[test]
    fn intersect_gallops_when_other_is_long() {
        let long: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        check_intersect(&[9, 10, 300, 2997], &long);
        check_intersect(&[0], &long);
        check_intersect(&[2998], &long);
    }

    #[test]
    fn intersect_gallops_when_acc_is_long() {
        let long: Vec<usize> = (0..1000).map(|i| i * 2).collect();
        check_intersect(&long, &[0, 7, 500, 1998]);
        check_intersect(&long, &[1999]);
    }

    #[test]
    fn intersect_never_allocates_scratch() {
        // Capacity is preserved: the merge writes in place and truncates.
        let mut acc: Vec<usize> = (0..100).collect();
        let cap = acc.capacity();
        intersect_sorted(&mut acc, &[5, 50, 99]);
        assert_eq!(acc, vec![5, 50, 99]);
        assert_eq!(acc.capacity(), cap);
    }

    #[test]
    fn gallop_to_finds_lower_bound() {
        let s = [2, 4, 6, 8, 10];
        assert_eq!(gallop_to(&s, 1), 0);
        assert_eq!(gallop_to(&s, 2), 0);
        assert_eq!(gallop_to(&s, 5), 2);
        assert_eq!(gallop_to(&s, 10), 4);
        assert_eq!(gallop_to(&s, 11), 5);
        assert_eq!(gallop_to(&[], 3), 0);
    }

    fn sub(attr: u32, low: f64, high: f64) -> SubQuery {
        SubQuery { attr: AttrId(attr), target: ValueTarget::Range { low, high } }
    }

    #[test]
    fn untrained_estimator_keeps_document_order() {
        let space = crate::AttributeSpace::synthetic(3, 0.0, 10.0).unwrap();
        let sel = SelectivityEstimator::new(&space);
        let q = Query { subs: vec![sub(2, 0.0, 10.0), sub(0, 0.0, 1.0), sub(1, 0.0, 5.0)] };
        assert_eq!(plan_order(&q, QueryPlan::Adaptive, Some(&sel)), vec![0, 1, 2]);
        assert_eq!(plan_order(&q, QueryPlan::Sequential, Some(&sel)), vec![0, 1, 2]);
        assert_eq!(plan_order(&q, QueryPlan::Adaptive, None), vec![0, 1, 2]);
    }

    #[test]
    fn adaptive_orders_most_selective_first() {
        let space = crate::AttributeSpace::synthetic(3, 0.0, 10.0).unwrap();
        let mut sel = SelectivityEstimator::new(&space);
        for a in 0..3u32 {
            for v in 0..10 {
                sel.record(&crate::ResourceInfo { attr: AttrId(a), value: v as f64, owner: 0 });
            }
        }
        // narrow range on attr 2, medium on attr 1, full on attr 0
        let q = Query { subs: vec![sub(0, 0.0, 10.0), sub(1, 0.0, 5.0), sub(2, 0.0, 1.0)] };
        assert_eq!(plan_order(&q, QueryPlan::Adaptive, Some(&sel)), vec![2, 1, 0]);
    }

    #[test]
    fn resolve_in_order_threads_candidates_and_short_circuits() {
        // Synthetic resolver: attr 0 matches owners {1,2,3} (4 pieces:
        // owner 1 twice), attr 1 matches {2,3}, attr 2 matches nothing.
        let answers = |attr: u32| -> Vec<usize> {
            match attr {
                0 => vec![1, 1, 2, 3],
                1 => vec![2, 3],
                _ => vec![],
            }
        };
        let mut calls = 0usize;
        let mut resolve = |single: &Query| {
            calls += 1;
            let owners = answers(single.subs[0].attr.0);
            let tally = LookupTally { hops: 2, lookups: 1, visited: 1, matches: owners.len() };
            Ok(QueryOutcome { tally, owners, probed: vec![NodeIdx(7)] })
        };
        let q = Query { subs: vec![sub(0, 0.0, 1.0), sub(1, 0.0, 1.0), sub(2, 0.0, 1.0)] };

        let out = resolve_in_order(&q, &[0, 1, 2], &mut resolve).unwrap();
        assert_eq!(out.owners, vec![]);
        // 4 pieces from step one + 2 survivors + 0 survivors
        assert_eq!(out.tally.matches, 6);
        assert_eq!(out.tally.lookups, 3);
        // probed dedups the repeated directory node
        assert_eq!(out.probed, vec![NodeIdx(7)]);
        assert_eq!(calls, 3);

        // Most-selective-first: attr 2 empties the set immediately and
        // the other lookups never happen.
        calls = 0;
        let mut resolve2 = |single: &Query| {
            calls += 1;
            let owners = answers(single.subs[0].attr.0);
            let tally = LookupTally { hops: 2, lookups: 1, visited: 1, matches: owners.len() };
            Ok(QueryOutcome { tally, owners, probed: vec![NodeIdx(7)] })
        };
        let out = resolve_in_order(&q, &[2, 1, 0], &mut resolve2).unwrap();
        assert!(out.owners.is_empty());
        assert_eq!(out.tally.lookups, 1);
        assert_eq!(out.tally.matches, 0);
        assert_eq!(calls, 1);
    }

    #[test]
    fn matches_never_below_final_owner_count() {
        // First step ships pieces (>= distinct owners); later steps ship
        // survivor sets that only shrink — matches >= owners.len().
        let mut resolve = |single: &Query| {
            let owners = vec![1, 2, 5, 5];
            let _ = single;
            Ok(QueryOutcome {
                tally: LookupTally { hops: 0, lookups: 1, visited: 1, matches: owners.len() },
                owners,
                probed: vec![],
            })
        };
        let q = Query { subs: vec![sub(0, 0.0, 1.0), sub(1, 0.0, 1.0)] };
        let out = resolve_in_order(&q, &[0, 1], &mut resolve).unwrap();
        assert_eq!(out.owners, vec![1, 2, 5]);
        assert_eq!(out.tally.matches, 4 + 3);
        assert!(out.tally.matches >= out.owners.len());
    }

    proptest::proptest! {
        /// The sort-based dedup keeps exactly what the quadratic
        /// `contains` loop it replaced kept, in the same order, including
        /// Cycloid's `usize::MAX` sentinel anywhere in the list.
        #[test]
        fn probe_dedup_matches_the_contains_loop(
            raw in proptest::collection::vec(0usize..42, 0..200),
        ) {
            // 40 and 41 stand for the sentinel.
            let mut probed: Vec<NodeIdx> =
                raw.into_iter().map(|x| NodeIdx(if x >= 40 { usize::MAX } else { x })).collect();
            let mut reference: Vec<NodeIdx> = Vec::new();
            for &p in &probed {
                if !reference.contains(&p) {
                    reference.push(p);
                }
            }
            dedup_first_occurrences(&mut probed);
            proptest::prop_assert_eq!(probed, reference);
        }
    }

    #[test]
    fn arity_one_sequential_matches_equal_parallel_pieces() {
        // Satellite pin: with a single sub-query the sequential tally is
        // the piece count, not the deduped owner count.
        let mut resolve = |_: &Query| {
            Ok(QueryOutcome {
                tally: LookupTally { hops: 1, lookups: 1, visited: 1, matches: 5 },
                owners: vec![9, 9, 9, 4, 4],
                probed: vec![NodeIdx(1)],
            })
        };
        let q = Query { subs: vec![sub(0, 0.0, 1.0)] };
        let out = resolve_in_order(&q, &[0], &mut resolve).unwrap();
        assert_eq!(out.tally.matches, 5, "pieces shipped, not deduped owners");
        assert_eq!(out.owners, vec![4, 9]);
    }
}
