//! One module per paper artifact (figure / theorem) plus ablations.

pub mod ablation;
pub mod chaos;
pub mod durability;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod hopdist;
pub mod latency;
pub mod maintenance;
pub mod worstcase;

use analysis::System;
use dht_core::{hashing::splitmix64, DhtError, FaultPlan, RouteCache, Summary};
use grid_resource::{FaultyOutcome, Query, QueryMix, QueryPlan, ResourceDiscovery, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generate the paper's query batch: `origins` random requester nodes,
/// `per_origin` queries each, all with the given arity and mix.
pub fn query_batch(
    workload: &Workload,
    num_phys: usize,
    origins: usize,
    per_origin: usize,
    arity: usize,
    mix: QueryMix,
    seed: u64,
) -> Vec<(usize, Query)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(origins * per_origin);
    for _ in 0..origins {
        let phys = rng.gen_range(0..num_phys);
        for _ in 0..per_origin {
            batch.push((phys, workload.random_query(arity, mix, &mut rng)));
        }
    }
    batch
}

/// Reduction granularity of [`run_batch`]: queries are always summarized
/// per `MICRO_CHUNK`-sized slice and the per-slice summaries merged in
/// batch order, whatever the shard count. The merge *sequence* is then a
/// function of the batch alone, which makes every summary field —
/// including the variance, whose merge is not associative in floating
/// point — bit-identical across shard counts.
const MICRO_CHUNK: usize = 64;

/// Fold micro-chunk summaries in order into one batch summary.
fn merge_in_order(parts: impl IntoIterator<Item = Summary>) -> Summary {
    let mut merged = Summary::new();
    for part in parts {
        merged.merge(&part);
    }
    merged
}

/// Run `work` on every item, one scoped thread per item, returning the
/// results in item order.
pub(crate) fn scoped_map<T: Send, R: Send>(items: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let work = &work;
    std::thread::scope(|scope| {
        for (item, slot) in items.into_iter().zip(slots.iter_mut()) {
            scope.spawn(move || *slot = Some(work(item)));
        }
    });
    // The scope re-raises any worker's panic, so every slot is filled.
    slots.into_iter().flatten().collect()
}

/// The fault-coin seed of the query at global batch position `index`: a
/// pure function of the plan seed and the position, so sharding can
/// never change which faults a query draws.
fn msg_seed_at(plan: &FaultPlan, index: usize) -> u64 {
    splitmix64(plan.seed() ^ index as u64)
}

/// What an executor call resolves each query under: fault-free under a
/// [`QueryPlan`], or under a [`FaultPlan`]. A fault-injected query
/// resolves every sub-query, as under [`QueryPlan::Parallel`], so a plan
/// and a fault plan never combine.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// Fault-free resolution under this plan.
    Plan(QueryPlan),
    /// Resolution under this fault plan.
    Faults(&'a FaultPlan),
}

/// One executor call's semantics: the reported metric, the resolution
/// [`Mode`], and the shard count.
#[derive(Debug, Clone, Copy)]
pub struct Exec<'a> {
    /// Which tally field the summary records.
    pub metric: Metric,
    /// Fault-free under a plan, or under a fault plan.
    pub mode: Mode<'a>,
    /// Worker threads per batch; `0` means one per available core. The
    /// shard count decides only *which thread* summarizes each
    /// micro-chunk, never the reduction order.
    pub shards: usize,
}

impl<'a> Exec<'a> {
    /// Fault-free execution under `plan`.
    pub fn new(metric: Metric, plan: QueryPlan, shards: usize) -> Self {
        Self { metric, mode: Mode::Plan(plan), shards }
    }

    /// Execution under `faults`. With an inert fault plan the summary is
    /// bit-identical to [`Exec::new`] at [`QueryPlan::Parallel`].
    pub fn faulty(metric: Metric, faults: &'a FaultPlan, shards: usize) -> Self {
        Self { metric, mode: Mode::Faults(faults), shards }
    }

    /// The worker count a shard count asks for: `0` resolves to one
    /// worker per available core. The only place that rule lives.
    fn workers(&self) -> usize {
        match self.shards {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Summarize one micro-chunk whose first query sits at batch position
    /// `base`.
    fn summarize(
        &self,
        sys: &(dyn ResourceDiscovery + Send + Sync),
        base: usize,
        chunk: &[(usize, Query)],
    ) -> Summary {
        let mut s = Summary::new();
        for (j, (phys, q)) in chunk.iter().enumerate() {
            let Ok(f) = self.resolve_at(sys, base + j, *phys, q) else {
                s.record_failure();
                continue;
            };
            let value = self.metric.of(&f.outcome.tally);
            match (f.is_failed(), f.is_partial()) {
                (true, _) => s.record_failure(),
                (false, true) => s.record_partial(value),
                (false, false) => s.record(value),
            }
            s.add_retries(f.retries);
            s.add_dropped_msgs(f.dropped_msgs);
        }
        s
    }

    /// Resolve the query at batch position `index`. Fault-free queries
    /// enter through `query_planned_cached` (with the zero-sized
    /// [`RouteCache`] placeholder), so a benchmark proxy that overrides
    /// only that method sees every one of them.
    fn resolve_at(
        &self,
        sys: &(dyn ResourceDiscovery + Send + Sync),
        index: usize,
        phys: usize,
        q: &Query,
    ) -> Result<FaultyOutcome, DhtError> {
        match self.mode {
            Mode::Plan(plan) => sys
                .query_planned_cached(phys, q, plan, &mut RouteCache::new())
                .map(|out| FaultyOutcome::complete(out, q.arity())),
            Mode::Faults(f) => sys.query_from_faulty(phys, q, f, msg_seed_at(f, index)),
        }
    }
}

/// Run a query batch against one system and summarize `exec.metric`.
/// Failed queries are counted via [`Summary::failures`] instead of being
/// silently dropped; under a fault plan partial answers, retries and
/// dropped messages are counted too.
///
/// The batch splits into micro-chunks of `MICRO_CHUNK` (64) queries.
/// With one worker they run on the calling thread; otherwise each of the
/// `exec.shards` scoped workers takes a contiguous run of chunks. Either
/// way the chunk summaries merge in batch order, and fault coins are a
/// pure function of (fault-plan seed, batch position), so every summary
/// field is bit-identical for every shard count, under every mode.
pub fn run_batch(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    exec: &Exec,
) -> Summary {
    let micro: Vec<(usize, &[(usize, Query)])> =
        batch.chunks(MICRO_CHUNK).enumerate().map(|(i, c)| (i * MICRO_CHUNK, c)).collect();
    let workers = exec.workers();
    if workers <= 1 || micro.len() <= 1 {
        return merge_in_order(micro.iter().map(|&(base, c)| exec.summarize(sys, base, c)));
    }
    let runs: Vec<_> = micro.chunks(micro.len().div_ceil(workers)).collect();
    let parts = scoped_map(runs, |run| {
        run.iter().map(|&(base, c)| exec.summarize(sys, base, c)).collect::<Vec<_>>()
    });
    merge_in_order(parts.into_iter().flatten())
}

/// Per-worker [`RouteCache`] placeholders for
/// [`run_batch_planned_cached_pooled`]. Kept for the benchmark adapter,
/// which holds one pool per system and reads its first entry.
pub type CachePool = Vec<RouteCache>;

/// [`run_batch`] under a [`QueryPlan`] for callers that hold a
/// [`CachePool`]: the summary is the same, and the pool is left
/// non-empty. Kept for the benchmark adapter, which names it.
pub fn run_batch_planned_cached_pooled(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: QueryPlan,
    shards: usize,
    pool: &mut CachePool,
) -> Summary {
    if pool.is_empty() {
        pool.push(RouteCache::new());
    }
    run_batch(sys, batch, &Exec::new(metric, plan, shards))
}

/// Run the same batch against every mounted system in parallel, one
/// thread per system (they are independent and querying is `&self`),
/// each of which shards its batch further, for `systems × shards` total
/// workers. The figure pipelines thread their `--plan=` choice through
/// here; plan choice never alters owner sets, only the cost tallies.
pub fn run_batch_all(
    systems: &[Box<dyn ResourceDiscovery + Send + Sync>],
    batch: &[(usize, Query)],
    exec: &Exec,
) -> Vec<(&'static str, Summary)> {
    scoped_map(systems.iter().collect(), |sys| (sys.name(), run_batch(sys.as_ref(), batch, exec)))
}

/// Which tally field an experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Logical routing hops (Figures 4, 6(a)).
    Hops,
    /// Visited directory nodes (Figures 5, 6(b)).
    Visited,
    /// Resource-information pieces shipped to the requester — the
    /// transfer-volume metric the query plans differ on.
    Matches,
    /// DHT lookups issued (sequential plans skip lookups after an empty
    /// intersection, so this is plan-sensitive too).
    Lookups,
}

impl Metric {
    /// Extract this metric's value from a query tally.
    pub fn of(self, tally: &dht_core::LookupTally) -> f64 {
        match self {
            Metric::Hops => tally.hops as f64,
            Metric::Visited => tally.visited as f64,
            Metric::Matches => tally.matches as f64,
            Metric::Lookups => tally.lookups as f64,
        }
    }
}

pub(crate) fn summary_of<'a>(rows: &'a [(&'static str, Summary)], s: System) -> &'a Summary {
    rows.iter().find(|(n, _)| *n == s.name()).map(|(_, x)| x).expect("system measured")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{SimConfig, TestBed};
    use grid_resource::{PieceKey, QueryOutcome, ResourceInfo};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_batch_equals_sequential_batch() {
        // run_batch_all fans the systems out over threads (and each
        // system shards its batch); every summary must be bit-identical to
        // a single-threaded, single-shard run.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 20, 5, 2, QueryMix::Range, 0x77);
        assert!(batch.len() > MICRO_CHUNK, "the batch must span several micro-chunks");
        let exec = Exec::new(Metric::Visited, QueryPlan::Parallel, 0);
        let parallel = run_batch_all(&bed.systems, &batch, &exec);
        assert_eq!(parallel.len(), bed.systems.len());
        for (name, par) in &parallel {
            let sys = bed.systems.iter().find(|s| s.name() == *name).unwrap();
            let seq = run_batch(sys.as_ref(), &batch, &Exec { shards: 1, ..exec });
            assert_summaries_bit_identical(par, &seq, name);
        }
    }

    #[test]
    fn sharded_batch_is_bit_identical_for_every_shard_count() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 10, 3, QueryMix::Range, 0x3A);
        assert!(batch.len() > MICRO_CHUNK, "the batch must span several micro-chunks");
        for sys in &bed.systems {
            let exec = Exec::new(Metric::Hops, QueryPlan::Parallel, 1);
            let seq = run_batch(sys.as_ref(), &batch, &exec);
            for shards in [0usize, 2, 3, 4, 7, 16, 64, batch.len(), batch.len() + 5] {
                let par = run_batch(sys.as_ref(), &batch, &Exec { shards, ..exec });
                let name = sys.name();
                assert_eq!(par.count(), seq.count(), "{name} shards={shards}");
                assert_eq!(par.failures(), seq.failures(), "{name} shards={shards}");
                assert_eq!(par.total().to_bits(), seq.total().to_bits(), "{name} shards={shards}");
                assert_eq!(par.mean().to_bits(), seq.mean().to_bits(), "{name} shards={shards}");
                assert_eq!(par.min().to_bits(), seq.min().to_bits(), "{name} shards={shards}");
                assert_eq!(par.max().to_bits(), seq.max().to_bits(), "{name} shards={shards}");
            }
        }
    }

    fn assert_summaries_bit_identical(a: &Summary, b: &Summary, ctx: &str) {
        assert_eq!(a.count(), b.count(), "{ctx}");
        assert_eq!(a.failures(), b.failures(), "{ctx}");
        assert_eq!(a.partial(), b.partial(), "{ctx}");
        assert_eq!(a.retries(), b.retries(), "{ctx}");
        assert_eq!(a.dropped_msgs(), b.dropped_msgs(), "{ctx}");
        assert_eq!(a.total().to_bits(), b.total().to_bits(), "{ctx}");
        assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{ctx}");
        assert_eq!(a.min().to_bits(), b.min().to_bits(), "{ctx}");
        assert_eq!(a.max().to_bits(), b.max().to_bits(), "{ctx}");
    }

    #[test]
    fn inert_faulty_batch_is_bit_identical_to_plain_batch() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 10, 2, QueryMix::Range, 0x99);
        assert!(batch.len() > MICRO_CHUNK, "the batch must span several micro-chunks");
        let plan = FaultPlan::new(0xFA57, 0.0, 0.0).unwrap();
        for sys in &bed.systems {
            for shards in [1usize, 3] {
                let plain = run_batch(
                    sys.as_ref(),
                    &batch,
                    &Exec::new(Metric::Hops, QueryPlan::Parallel, shards),
                );
                let faulty =
                    run_batch(sys.as_ref(), &batch, &Exec::faulty(Metric::Hops, &plan, shards));
                let ctx = format!("{} shards={shards}", sys.name());
                assert_summaries_bit_identical(&faulty, &plain, &ctx);
                assert_eq!(faulty.retries(), 0, "{ctx}");
                assert_eq!(faulty.partial(), 0, "{ctx}");
                assert_eq!(faulty.dropped_msgs(), 0, "{ctx}");
            }
        }
    }

    #[test]
    fn faulty_batch_is_bit_identical_for_every_shard_count() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 10, 3, QueryMix::Range, 0x3B);
        assert!(batch.len() > MICRO_CHUNK, "the batch must span several micro-chunks");
        let plan = FaultPlan::new(0xFA58, 0.15, 0.05).unwrap();
        for sys in &bed.systems {
            let seq = run_batch(sys.as_ref(), &batch, &Exec::faulty(Metric::Hops, &plan, 1));
            assert!(seq.dropped_msgs() > 0, "{}: 15% loss should drop some messages", sys.name());
            for shards in [0usize, 2, 3, 7, 16] {
                let par =
                    run_batch(sys.as_ref(), &batch, &Exec::faulty(Metric::Hops, &plan, shards));
                let ctx = format!("{} shards={shards}", sys.name());
                assert_summaries_bit_identical(&par, &seq, &ctx);
            }
        }
    }

    #[test]
    fn cached_batch_is_bit_identical_to_plain_batch() {
        // The pooled executor must summarize exactly like the plain one,
        // for both metrics and at shard counts 1 and 3, with one pool held
        // across calls.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        for (mix, seed) in [(QueryMix::Range, 0xCA5Eu64), (QueryMix::NonRange, 0xCA5F)] {
            let batch = query_batch(&bed.workload, cfg.nodes, 15, 4, 3, mix, seed);
            for sys in &bed.systems {
                for shards in [1usize, 3] {
                    let mut pool = CachePool::new();
                    for metric in [Metric::Hops, Metric::Visited] {
                        let plain = run_batch(
                            sys.as_ref(),
                            &batch,
                            &Exec::new(metric, QueryPlan::Parallel, shards),
                        );
                        let pooled = run_batch_planned_cached_pooled(
                            sys.as_ref(),
                            &batch,
                            metric,
                            QueryPlan::Parallel,
                            shards,
                            &mut pool,
                        );
                        let ctx = format!("{} shards={shards} {metric:?} {mix:?}", sys.name());
                        assert_summaries_bit_identical(&pooled, &plain, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn cached_batch_is_bit_identical_after_churn() {
        // A pool held across a topology change carries no state into the
        // post-churn batch: both batches match plain runs on the same bed.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let mut bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 12, 4, 2, QueryMix::Range, 0xC4B2);
        let mut pools: Vec<CachePool> = bed.systems.iter().map(|_| CachePool::new()).collect();
        let pooled = |sys: &(dyn ResourceDiscovery + Send + Sync), pool: &mut CachePool| {
            run_batch_planned_cached_pooled(
                sys,
                &batch,
                Metric::Visited,
                QueryPlan::Parallel,
                1,
                pool,
            )
        };
        for (sys, pool) in bed.systems.iter().zip(pools.iter_mut()) {
            let plain = run_batch(
                sys.as_ref(),
                &batch,
                &Exec::new(Metric::Visited, QueryPlan::Parallel, 1),
            );
            let got = pooled(sys.as_ref(), pool);
            assert_summaries_bit_identical(&got, &plain, &format!("{} pre-churn", sys.name()));
        }
        for sys in bed.systems.iter_mut() {
            for phys in [5usize, 41, 99] {
                let _ = sys.leave_physical(phys);
            }
            sys.stabilize();
            sys.place_all(&bed.workload.reports);
        }
        for (sys, pool) in bed.systems.iter().zip(pools.iter_mut()) {
            let plain = run_batch(
                sys.as_ref(),
                &batch,
                &Exec::new(Metric::Visited, QueryPlan::Parallel, 1),
            );
            let got = pooled(sys.as_ref(), pool);
            assert_summaries_bit_identical(&got, &plain, &format!("{} post-churn", sys.name()));
        }
    }

    #[test]
    fn planned_batch_is_bit_identical_across_shards_and_caching() {
        // Every plan × metric: sharding (1 vs 3) and the pooled executor
        // must both be invisible in the summary bytes.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 10, 3, QueryMix::Range, 0x9A1);
        assert!(batch.len() > MICRO_CHUNK, "the batch must span several micro-chunks");
        for sys in &bed.systems {
            for plan in QueryPlan::ALL {
                for metric in [Metric::Hops, Metric::Visited, Metric::Matches, Metric::Lookups] {
                    let base = run_batch(sys.as_ref(), &batch, &Exec::new(metric, plan, 1));
                    let ctx = format!("{} {plan:?} {metric:?}", sys.name());
                    let sharded = run_batch(sys.as_ref(), &batch, &Exec::new(metric, plan, 3));
                    assert_summaries_bit_identical(&sharded, &base, &ctx);
                    for shards in [1usize, 3] {
                        let pooled = run_batch_planned_cached_pooled(
                            sys.as_ref(),
                            &batch,
                            metric,
                            plan,
                            shards,
                            &mut CachePool::new(),
                        );
                        let ctx = format!("{ctx} pooled shards={shards}");
                        assert_summaries_bit_identical(&pooled, &base, &ctx);
                    }
                }
            }
        }
    }

    /// A minimal benchmark-style proxy: it delegates everything to a bed
    /// system and counts the calls that reach `query_planned_cached`.
    struct CountingProxy<'a> {
        inner: &'a (dyn ResourceDiscovery + Send + Sync),
        planned_cached: AtomicUsize,
    }

    impl ResourceDiscovery for CountingProxy<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn clone_box(&self) -> Box<dyn ResourceDiscovery + Send + Sync> {
            self.inner.clone_box()
        }
        fn num_physical(&self) -> usize {
            self.inner.num_physical()
        }
        fn is_live(&self, phys: usize) -> bool {
            self.inner.is_live(phys)
        }
        fn place_all(&mut self, _reports: &[ResourceInfo]) {
            unreachable!("the proxy is read-only")
        }
        fn register(&mut self, _info: ResourceInfo) -> Result<dht_core::LookupTally, DhtError> {
            unreachable!("the proxy is read-only")
        }
        fn query_from(&self, phys: usize, q: &Query) -> Result<QueryOutcome, DhtError> {
            self.inner.query_from(phys, q)
        }
        fn query_planned_cached(
            &self,
            phys: usize,
            q: &Query,
            plan: QueryPlan,
            cache: &mut RouteCache,
        ) -> Result<QueryOutcome, DhtError> {
            self.planned_cached.fetch_add(1, Ordering::Relaxed);
            self.inner.query_planned_cached(phys, q, plan, cache)
        }
        fn directory_loads(&self) -> dht_core::LoadDist {
            self.inner.directory_loads()
        }
        fn total_pieces(&self) -> usize {
            self.inner.total_pieces()
        }
        fn outlinks_per_node(&self) -> dht_core::LoadDist {
            self.inner.outlinks_per_node()
        }
        fn join_physical(&mut self, _rng: &mut SmallRng) -> Result<usize, DhtError> {
            unreachable!("the proxy is read-only")
        }
        fn leave_physical(&mut self, _phys: usize) -> Result<(), DhtError> {
            unreachable!("the proxy is read-only")
        }
        fn fail_physical(&mut self, _phys: usize) -> Result<(), DhtError> {
            unreachable!("the proxy is read-only")
        }
        fn stabilize(&mut self) {
            unreachable!("the proxy is read-only")
        }
        fn surviving_pieces_into(&self, out: &mut Vec<PieceKey>) {
            self.inner.surviving_pieces_into(out)
        }
    }

    #[test]
    fn pooled_executor_resolves_every_query_through_query_planned_cached() {
        // The benchmark adapter's contract: its proxy overrides only
        // `query_planned_cached`, reads the pool's first entry afterwards,
        // and must see the same summary as the plain executor.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 10, 3, QueryMix::Range, 0xADA7);
        for sys in &bed.systems {
            for shards in [1usize, 3] {
                let proxy = CountingProxy { inner: sys.as_ref(), planned_cached: 0.into() };
                let mut pool = CachePool::new();
                let plan = QueryPlan::Adaptive;
                let got = run_batch_planned_cached_pooled(
                    &proxy,
                    &batch,
                    Metric::Hops,
                    plan,
                    shards,
                    &mut pool,
                );
                let ctx = format!("{} shards={shards}", sys.name());
                assert_eq!(proxy.planned_cached.load(Ordering::Relaxed), batch.len(), "{ctx}");
                assert!(!pool.is_empty(), "{ctx}: the adapter reads the pool's first entry");
                let plain = run_batch(sys.as_ref(), &batch, &Exec::new(Metric::Hops, plan, shards));
                assert_summaries_bit_identical(&got, &plain, &ctx);
            }
        }
    }

    #[test]
    fn parallel_plan_executor_matches_classic_executor() {
        // The CLI default, shards = 0, resolves to one worker per core and
        // must summarize exactly like the inline (one-worker) run.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let auto = Exec::new(Metric::Hops, QueryPlan::Parallel, 0);
        assert_eq!(auto.workers(), cores);
        assert_eq!(Exec { shards: 5, ..auto }.workers(), 5);
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 30, 5, 2, QueryMix::Range, 0x9A2);
        for sys in &bed.systems {
            let inline = run_batch(sys.as_ref(), &batch, &Exec { shards: 1, ..auto });
            let got = run_batch(sys.as_ref(), &batch, &auto);
            assert_summaries_bit_identical(&got, &inline, sys.name());
        }
    }

    #[test]
    fn adaptive_plan_ships_fewer_matches_on_every_system() {
        // ISSUE 10 acceptance: at arity 4 on the quick workload shape,
        // Adaptive ships <= 0.5x Parallel's transfer volume on every
        // system (owner-set equality is pinned by the cross-system
        // proptests in tests/).
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 12, values: 40, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 25, 4, 4, QueryMix::Range, 0x9A3);
        for sys in &bed.systems {
            let par = run_batch(
                sys.as_ref(),
                &batch,
                &Exec::new(Metric::Matches, QueryPlan::Parallel, 1),
            );
            let ada = run_batch(
                sys.as_ref(),
                &batch,
                &Exec::new(Metric::Matches, QueryPlan::Adaptive, 1),
            );
            assert!(
                ada.total() * 2.0 <= par.total(),
                "{}: adaptive should ship <= 0.5x parallel's pieces: {} vs {}",
                sys.name(),
                ada.total(),
                par.total()
            );
            // And adaptive never issues more lookups than parallel.
            let par_l = run_batch(
                sys.as_ref(),
                &batch,
                &Exec::new(Metric::Lookups, QueryPlan::Parallel, 1),
            );
            let ada_l = run_batch(
                sys.as_ref(),
                &batch,
                &Exec::new(Metric::Lookups, QueryPlan::Adaptive, 1),
            );
            assert!(ada_l.total() <= par_l.total(), "{}: lookup count", sys.name());
        }
    }

    #[test]
    fn query_batch_is_deterministic_and_sized() {
        let cfg =
            SimConfig { nodes: 128, dimension: 6, attrs: 8, values: 20, ..SimConfig::default() };
        let bed = TestBed::with_systems(cfg, &[]);
        let a = query_batch(&bed.workload, cfg.nodes, 5, 3, 2, QueryMix::NonRange, 9);
        let b = query_batch(&bed.workload, cfg.nodes, 5, 3, 2, QueryMix::NonRange, 9);
        assert_eq!(a.len(), 15);
        assert_eq!(a, b, "same seed, same batch");
        let c = query_batch(&bed.workload, cfg.nodes, 5, 3, 2, QueryMix::NonRange, 10);
        assert_ne!(a, c, "different seed, different batch");
    }

    #[test]
    fn summary_of_finds_each_system() {
        let rows = vec![("LORM", dht_core::Summary::new()), ("MAAN", dht_core::Summary::new())];
        assert_eq!(summary_of(&rows, analysis::System::Lorm).count(), 0);
        assert_eq!(summary_of(&rows, analysis::System::Maan).count(), 0);
    }
}
