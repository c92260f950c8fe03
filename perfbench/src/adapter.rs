//! Every call the benchmark makes into the simulator's crates.
//!
//! The rest of the benchmark sees only the functions and types here, so an
//! API change in the simulator has one place to touch. [`Sys`] is the
//! benchmark-side `ResourceDiscovery` proxy: it delegates every call to the
//! mounted system, counts the outcome of every top-level query, and, in a
//! traced run, records a span around each call that does work.

use crate::oracle;
use crate::trace::{self, Kind, Recorder};
use analysis::System;
use dht_core::hashing::splitmix64;
use dht_core::{BuildMode, DhtError, LoadDist, RepairStats, RouteCache};
use grid_resource::{
    planner, FaultyOutcome, PieceKey, QueryOutcome, ResourceDiscovery, ResourceInfo,
    SelectivityEstimator, ValueTarget, Workload,
};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use sim::experiments::{query_batch, run_batch_planned_cached_pooled, Metric};
use sim::{SimConfig, TestBed};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use dht_core::FaultPlan;
pub use grid_resource::{ChurnEvent, ChurnKind, Query, QueryMix, QueryPlan};
pub use sim::experiments::CachePool;

/// The mounted systems, in the simulator's `System::ALL` order.
pub const SYSTEMS: [&str; 4] = ["lorm", "mercury", "sword", "maan"];

/// The RNG the simulator's generators draw from.
pub type Rng = SmallRng;

type Boxed = Box<dyn ResourceDiscovery + Send + Sync>;

/// The seed `repro` runs with when none is given.
pub fn default_seed() -> u64 {
    SimConfig::default().seed
}

/// A seeded RNG.
pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// A uniform draw from `0..n`.
pub fn below(rng: &mut Rng, n: usize) -> usize {
    rng.gen_range(0..n)
}

/// The §V configuration (n = 2048, m = 200, k = 500, d = 8) and its
/// generated workload.
pub struct Bed {
    cfg: SimConfig,
    workload: Workload,
}

impl Bed {
    /// Generate the workload `repro` would mount for `seed`.
    pub fn generate(seed: u64) -> Self {
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let (workload, _) = TestBed::workload_of(&cfg);
        Self { cfg, workload }
    }

    /// Physical nodes at build time.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Construct system `sys` without placing any report; mirrors
    /// `sim::build_system`, whose placement step is [`Sys::place`].
    pub fn build(&self, sys: usize) -> Boxed {
        let (n, seed, space) = (self.cfg.nodes, self.cfg.seed, &self.workload.space);
        let mode = BuildMode::Bulk;
        match System::ALL[sys] {
            System::Lorm => Box::new(lorm::Lorm::new_with_mode(
                n,
                space,
                lorm::LormConfig { dimension: self.cfg.dimension, seed, ..Default::default() },
                mode,
            )),
            System::Mercury => Box::new(baselines::Mercury::new_with_mode(
                n,
                space,
                baselines::MercuryConfig { seed },
                mode,
            )),
            System::Sword => Box::new(baselines::Sword::new_with_mode(
                n,
                space,
                baselines::SwordConfig { seed },
                mode,
            )),
            System::Maan => Box::new(baselines::Maan::new_with_mode(
                n,
                space,
                baselines::MaanConfig { seed },
                mode,
            )),
        }
    }

    /// The batch `sim::experiments::query_batch` draws for `seed`.
    pub fn batch(
        &self,
        origins: usize,
        per_origin: usize,
        arity: usize,
        mix: QueryMix,
        seed: u64,
    ) -> Vec<(usize, Query)> {
        query_batch(&self.workload, self.cfg.nodes, origins, per_origin, arity, mix, seed)
    }

    /// One random query.
    pub fn query(&self, arity: usize, mix: QueryMix, rng: &mut Rng) -> Query {
        self.workload.random_query(arity, mix, rng)
    }

    /// Theorems 4.7–4.8: expected lookup hops of an `arity`-attribute
    /// non-range query on system `sys`.
    pub fn theory_hops(&self, arity: usize, sys: usize) -> f64 {
        analysis::nonrange_hops(&self.cfg.params(), arity, System::ALL[sys])
    }

    /// Every report as plain data for the oracle.
    pub fn reports(&self) -> Vec<oracle::Report> {
        self.workload
            .reports
            .iter()
            .map(|r| oracle::Report { attr: r.attr.0, value: r.value, owner: r.owner })
            .collect()
    }
}

/// A query as plain data for the oracle.
pub fn oracle_query(q: &Query) -> Vec<oracle::Sub> {
    q.subs
        .iter()
        .map(|s| match s.target {
            ValueTarget::Point(v) => oracle::Sub { attr: s.attr.0, low: v, high: v },
            ValueTarget::Range { low, high } => oracle::Sub { attr: s.attr.0, low, high },
        })
        .collect()
}

/// Poisson joins and departures at `rate` over `duration` simulated
/// seconds, `graceful` of the departures graceful, in time order.
pub fn churn_schedule(rate: f64, duration: f64, graceful: f64, seed: u64) -> Vec<ChurnEvent> {
    grid_resource::ChurnSchedule::generate_with_failures(rate, duration, graceful, &mut rng(seed))
        .events()
        .to_vec()
}

/// A fault plan dropping `drop_rate` of messages; `None` if invalid.
pub fn fault_plan(seed: u64, drop_rate: f64) -> Option<FaultPlan> {
    FaultPlan::new(seed, drop_rate, 0.0).ok()
}

/// The fault-coin seed of query `index` under `plan`, as the simulator's
/// faulty executor derives it.
pub fn msg_seed(plan: &FaultPlan, index: u64) -> u64 {
    splitmix64(plan.seed() ^ index)
}

/// Route-cache counters summed over a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Route lookups answered from cache.
    pub route_hits: u64,
    /// Route lookups routed for real.
    pub route_misses: u64,
    /// Walk lookups answered from cache.
    pub walk_hits: u64,
    /// Walk lookups walked for real.
    pub walk_misses: u64,
}

/// Sum the counters of every cache in `pool`.
pub fn cache_counts(pool: &CachePool) -> CacheCounts {
    let mut c = CacheCounts::default();
    for cache in pool {
        c.route_hits += cache.hits();
        c.route_misses += cache.misses();
        c.walk_hits += cache.walk_hits();
        c.walk_misses += cache.walk_misses();
    }
    c
}

/// A fresh route cache for queries issued outside the executor.
pub fn route_cache() -> RouteCache {
    RouteCache::new()
}

/// Largest query arity the counters break down by.
pub const MAX_ARITY: usize = 10;

/// Exact outcome counters of one system, shared by its proxies.
#[derive(Default)]
pub struct Tally {
    queries: AtomicU64,
    failed: AtomicU64,
    partial: AtomicU64,
    hops: AtomicU64,
    lookups: AtomicU64,
    visited: AtomicU64,
    matches: AtomicU64,
    retries: AtomicU64,
    dropped: AtomicU64,
    subs_run: AtomicU64,
    subs_skipped: AtomicU64,
    answered_by_arity: [AtomicU64; MAX_ARITY + 1],
}

/// A snapshot of a [`Tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Top-level queries attempted.
    pub queries: u64,
    /// Queries that errored or returned a failed outcome.
    pub failed: u64,
    /// Outcomes that were partial.
    pub partial: u64,
    /// Lookup hops over every answered query.
    pub hops: u64,
    /// DHT lookups issued.
    pub lookups: u64,
    /// Directory nodes visited.
    pub visited: u64,
    /// Pieces shipped to requesters.
    pub matches: u64,
    /// Fault-layer retries.
    pub retries: u64,
    /// Messages the fault layer dropped.
    pub dropped: u64,
    /// Sub-queries a sequential or adaptive plan resolved (traced runs).
    pub subs_run: u64,
    /// Sub-queries such a plan skipped after an empty intersection.
    pub subs_skipped: u64,
    /// Queries that returned an outcome, by arity.
    pub answered_by_arity: [u64; MAX_ARITY + 1],
}

impl Counts {
    /// The counters the untraced and traced runs, and every shard count,
    /// must agree on.
    pub fn exact(&self) -> [u64; 9] {
        [
            self.queries,
            self.failed,
            self.partial,
            self.hops,
            self.lookups,
            self.visited,
            self.matches,
            self.retries,
            self.dropped,
        ]
    }
}

impl Tally {
    /// Read every counter.
    pub fn snapshot(&self) -> Counts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Counts {
            queries: get(&self.queries),
            failed: get(&self.failed),
            partial: get(&self.partial),
            hops: get(&self.hops),
            lookups: get(&self.lookups),
            visited: get(&self.visited),
            matches: get(&self.matches),
            retries: get(&self.retries),
            dropped: get(&self.dropped),
            subs_run: get(&self.subs_run),
            subs_skipped: get(&self.subs_skipped),
            answered_by_arity: self.answered_by_arity.each_ref().map(get),
        }
    }

    fn add(a: &AtomicU64, n: u64) {
        a.fetch_add(n, Ordering::Relaxed);
    }

    fn outcome(&self, arity: usize, out: &QueryOutcome) {
        let t = &out.tally;
        for (a, n) in [
            (&self.hops, t.hops),
            (&self.lookups, t.lookups),
            (&self.visited, t.visited),
            (&self.matches, t.matches),
        ] {
            Self::add(a, n as u64);
        }
        Self::add(&self.answered_by_arity[arity.min(MAX_ARITY)], 1);
    }

    fn planned(&self, arity: usize, res: &Result<QueryOutcome, DhtError>) {
        Self::add(&self.queries, 1);
        match res {
            Ok(out) => self.outcome(arity, out),
            Err(_) => Self::add(&self.failed, 1),
        }
    }

    fn faulty(&self, arity: usize, res: &Result<FaultyOutcome, DhtError>) {
        Self::add(&self.queries, 1);
        match res {
            Ok(f) => {
                self.outcome(arity, &f.outcome);
                Self::add(&self.failed, u64::from(f.is_failed()));
                Self::add(&self.partial, u64::from(f.is_partial()));
                Self::add(&self.retries, f.retries);
                Self::add(&self.dropped, f.dropped_msgs);
            }
            Err(_) => Self::add(&self.failed, 1),
        }
    }
}

/// The proxy around one mounted system.
pub struct Sys {
    inner: Boxed,
    idx: u8,
    tally: Arc<Tally>,
    rec: Option<Arc<Recorder>>,
}

impl Sys {
    /// Wrap system `idx`; queries count into `tally`, spans go to `rec`.
    pub fn new(inner: Boxed, idx: usize, tally: Arc<Tally>, rec: Option<Arc<Recorder>>) -> Self {
        let idx = u8::try_from(idx).expect("system index fits u8");
        Self { inner, idx, tally, rec }
    }

    fn rec(&self) -> Option<&Recorder> {
        self.rec.as_deref()
    }

    fn span(&self, kind: Kind) -> Option<trace::Guard<'_>> {
        trace::span(self.rec(), kind, self.idx)
    }

    /// Place every report; returns the pieces stored.
    pub fn place(&mut self, bed: &Bed) -> u64 {
        self.place_all(&bed.workload.reports);
        self.inner.total_pieces() as u64
    }

    /// Run one batch through the executor `repro` uses by default, at
    /// `shards` workers over the per-worker caches of `pool`.
    pub fn run_batch(
        &self,
        batch: &[(usize, Query)],
        plan: QueryPlan,
        shards: usize,
        pool: &mut CachePool,
    ) {
        run_batch_planned_cached_pooled(self, batch, Metric::Hops, plan, shards, pool);
    }

    /// Deep copy of the system under a new proxy sharing this one's
    /// counters and recorder.
    pub fn snapshot(&self) -> Self {
        let _s = self.span(Kind::Snapshot);
        Self {
            inner: self.inner.clone_box(),
            idx: self.idx,
            tally: Arc::clone(&self.tally),
            rec: self.rec.clone(),
        }
    }

    /// A node joins; false if the join failed.
    pub fn join(&mut self, rng: &mut Rng) -> bool {
        self.join_physical(rng).is_ok()
    }

    /// Node `phys` departs, gracefully or by failing. A refused departure
    /// is skipped, as in fig. 6.
    pub fn depart(&mut self, phys: usize, graceful: bool) {
        let _ = if graceful { self.leave_physical(phys) } else { self.fail_physical(phys) };
    }

    /// One maintenance round.
    pub fn maintain(&mut self) {
        self.stabilize();
    }

    /// Live physical nodes.
    pub fn live_nodes(&self) -> usize {
        self.inner.num_physical()
    }

    /// Is `phys` live?
    pub fn live(&self, phys: usize) -> bool {
        self.inner.is_live(phys)
    }

    /// Resolve `q` under `plan` with fault-coin seed `msg`; returns the
    /// owner set when the outcome is complete.
    pub fn faulty_query(
        &self,
        phys: usize,
        q: &Query,
        plan: &FaultPlan,
        msg: u64,
        cache: &mut RouteCache,
    ) -> Option<Vec<usize>> {
        match self.query_from_faulty_cached(phys, q, plan, msg, cache) {
            Ok(f) if f.is_complete() => Some(f.outcome.owners),
            _ => None,
        }
    }

    /// Owner set of `q` through the executor's entry point, bypassing the
    /// counters and the recorder.
    pub fn owners(
        &self,
        phys: usize,
        q: &Query,
        plan: QueryPlan,
        cache: &mut RouteCache,
    ) -> Option<Vec<usize>> {
        self.inner.query_planned_cached(phys, q, plan, cache).ok().map(|o| o.owners)
    }

    /// Owner sets of each sub-query of `q` resolved on its own, uncached
    /// and fault-free, bypassing the counters and the recorder.
    pub fn sub_owners(&self, phys: usize, q: &Query) -> Vec<(Query, Option<Vec<usize>>)> {
        q.subs
            .iter()
            .map(|&s| {
                let single = Query { subs: vec![s] };
                let owners = self.inner.query_from(phys, &single).ok().map(|o| o.owners);
                (single, owners)
            })
            .collect()
    }
}

impl ResourceDiscovery for Sys {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
        Box::new(self.snapshot())
    }

    fn num_physical(&self) -> usize {
        self.inner.num_physical()
    }

    fn is_live(&self, phys: usize) -> bool {
        self.inner.is_live(phys)
    }

    fn place_all(&mut self, reports: &[ResourceInfo]) {
        let _s = trace::span(self.rec.as_deref(), Kind::Place, self.idx);
        self.inner.place_all(reports);
    }

    fn register(&mut self, info: ResourceInfo) -> Result<dht_core::LookupTally, DhtError> {
        let _s = trace::span(self.rec.as_deref(), Kind::Place, self.idx);
        self.inner.register(info)
    }

    fn query_from(&self, phys: usize, q: &Query) -> Result<QueryOutcome, DhtError> {
        let _s = self.span(Kind::Query);
        self.inner.query_from(phys, q)
    }

    fn query_from_cached(
        &self,
        phys: usize,
        q: &Query,
        cache: &mut RouteCache,
    ) -> Result<QueryOutcome, DhtError> {
        let _s = self.span(Kind::Query);
        self.inner.query_from_cached(phys, q, cache)
    }

    fn selectivity(&self) -> Option<&SelectivityEstimator> {
        self.inner.selectivity()
    }

    /// Untraced: the system's own implementation. Traced: the trait
    /// default (no system overrides it), spelled out so the plan gets a
    /// span and its sub-queries go through this proxy.
    fn query_planned_cached(
        &self,
        phys: usize,
        q: &Query,
        plan: QueryPlan,
        cache: &mut RouteCache,
    ) -> Result<QueryOutcome, DhtError> {
        let res = match (self.rec(), plan) {
            (None, _) => self.inner.query_planned_cached(phys, q, plan, cache),
            (Some(_), QueryPlan::Parallel) => self.query_from_cached(phys, q, cache),
            (Some(_), QueryPlan::Sequential | QueryPlan::Adaptive) => {
                let _s = self.span(Kind::Plan);
                let order = planner::plan_order(q, plan, self.selectivity());
                let mut run = 0u64;
                let res = planner::resolve_in_order(q, &order, &mut |single| {
                    run += 1;
                    self.query_from_cached(phys, single, cache)
                });
                Tally::add(&self.tally.subs_run, run);
                if res.is_ok() {
                    Tally::add(&self.tally.subs_skipped, q.arity() as u64 - run);
                }
                res
            }
        };
        self.tally.planned(q.arity(), &res);
        res
    }

    /// Untraced: the system's own implementation. Traced: the trait
    /// default (no system overrides it), through this proxy.
    fn query_from_faulty_cached(
        &self,
        phys: usize,
        q: &Query,
        plan: &FaultPlan,
        msg_seed: u64,
        cache: &mut RouteCache,
    ) -> Result<FaultyOutcome, DhtError> {
        let res = match self.rec() {
            None => self.inner.query_from_faulty_cached(phys, q, plan, msg_seed, cache),
            Some(_) if plan.is_inert() => self
                .query_from_cached(phys, q, cache)
                .map(|out| FaultyOutcome::complete(out, q.arity())),
            Some(_) => self.query_from_faulty(phys, q, plan, msg_seed),
        };
        self.tally.faulty(q.arity(), &res);
        res
    }

    fn query_from_faulty(
        &self,
        phys: usize,
        q: &Query,
        plan: &FaultPlan,
        msg_seed: u64,
    ) -> Result<FaultyOutcome, DhtError> {
        let _s = self.span(Kind::Query);
        self.inner.query_from_faulty(phys, q, plan, msg_seed)
    }

    fn directory_loads(&self) -> LoadDist {
        self.inner.directory_loads()
    }

    fn total_pieces(&self) -> usize {
        self.inner.total_pieces()
    }

    fn outlinks_per_node(&self) -> LoadDist {
        self.inner.outlinks_per_node()
    }

    fn join_physical(&mut self, rng: &mut SmallRng) -> Result<usize, DhtError> {
        let _s = trace::span(self.rec.as_deref(), Kind::Join, self.idx);
        self.inner.join_physical(rng)
    }

    fn leave_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let _s = trace::span(self.rec.as_deref(), Kind::Depart, self.idx);
        self.inner.leave_physical(phys)
    }

    fn fail_physical(&mut self, phys: usize) -> Result<(), DhtError> {
        let _s = trace::span(self.rec.as_deref(), Kind::Depart, self.idx);
        self.inner.fail_physical(phys)
    }

    fn stabilize(&mut self) {
        let _s = trace::span(self.rec.as_deref(), Kind::Stabilize, self.idx);
        self.inner.stabilize();
    }

    fn set_replication(&mut self, k: usize) {
        self.inner.set_replication(k);
    }

    fn replication(&self) -> usize {
        self.inner.replication()
    }

    fn repair_stats(&self) -> RepairStats {
        self.inner.repair_stats()
    }

    fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
        self.inner.surviving_pieces_into(out);
    }
}
