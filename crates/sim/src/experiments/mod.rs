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

use std::sync::atomic::{AtomicUsize, Ordering};

use analysis::System;
use dht_core::{hashing::splitmix64, DhtError, FaultPlan, RouteCache, Summary};
use grid_resource::{
    FaultyOutcome, Query, QueryMix, QueryOutcome, QueryPlan, ResourceDiscovery, Workload,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shard-count override for [`run_batch`]; `0` means "auto" (one shard
/// per available core).
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(0);

/// Set the number of shards [`run_batch`] splits each query batch into.
/// `0` restores the default (one shard per available core). Applies
/// process-wide; the `repro` binary wires its `--shards=N` flag here.
pub fn set_default_shards(n: usize) {
    DEFAULT_SHARDS.store(n, Ordering::Relaxed);
}

/// The shard count [`run_batch`] currently uses.
pub fn default_shards() -> usize {
    match DEFAULT_SHARDS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

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

/// Reduction granularity of every executor: queries are always summarized
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

/// Locality sort key of one batched query: the first sub-query's
/// `(attribute, low value)` pair, then the origin. Queries sharing an
/// attribute and nearby range anchors route to the same keys and walk
/// overlapping segments, so executing a micro-chunk in this order turns
/// the route cache's repeated-lookup hits into back-to-back hits and lets
/// coalescing walk spans serve one another.
fn locality_key(phys: usize, q: &Query) -> (u32, u64, usize) {
    match q.subs.first() {
        // Workload values are non-negative, so the bit pattern orders like
        // the number; a heuristic sort needs nothing stronger.
        Some(sub) => (sub.attr.0, sub.target.bounds().0.to_bits(), phys),
        None => (u32::MAX, 0, phys),
    }
}

/// The fault-coin seed of the query at global batch position `index`: a
/// pure function of the plan seed and the position, so sharding can
/// never change which faults a query draws.
fn msg_seed_at(plan: &FaultPlan, index: usize) -> u64 {
    splitmix64(plan.seed() ^ index as u64)
}

/// Where an executor's route caches come from.
enum Caches<'a> {
    /// No cache: every query takes the uncached path.
    Off,
    /// The caller's cache when the batch runs inline; a fresh cache per
    /// worker when it is sharded.
    Caller(&'a mut RouteCache),
    /// Worker `i` draws `pool[i]`; the pool grows to the worker count.
    Pool(&'a mut CachePool),
}

/// What one query contributes to its chunk's summary.
#[derive(Debug, Clone, Copy)]
struct Observed {
    /// The metric's value; `None` for a failed query.
    value: Option<f64>,
    /// A degraded (partially resolved) answer.
    partial: bool,
    retries: u64,
    dropped_msgs: u64,
}

impl Observed {
    const FAILED: Self = Self { value: None, partial: false, retries: 0, dropped_msgs: 0 };

    fn of(f: &FaultyOutcome, metric: Metric) -> Self {
        Self {
            value: (!f.is_failed()).then(|| metric.of(&f.outcome.tally)),
            partial: f.is_partial(),
            retries: f.retries,
            dropped_msgs: f.dropped_msgs,
        }
    }
}

/// One executor call's query semantics: the system, the reported metric,
/// the query plan, and an optional fault plan (fault-injected queries
/// resolve every sub-query, as under [`QueryPlan::Parallel`]).
#[derive(Clone, Copy)]
struct Job<'a> {
    sys: &'a (dyn ResourceDiscovery + Send + Sync),
    metric: Metric,
    plan: QueryPlan,
    faults: Option<&'a FaultPlan>,
}

impl Job<'_> {
    /// The one fan-out behind every executor. The batch splits into
    /// [`MICRO_CHUNK`]-sized chunks; at `shards <= 1` they run on the
    /// calling thread, otherwise each of `shards` scoped workers takes a
    /// contiguous run of chunks with its own cache. The shard count
    /// decides only *which thread* summarizes each chunk, never the
    /// reduction order, and caches never alter results — so the summary
    /// is bit-identical for every shard count and cache source.
    fn fan_out(&self, batch: &[(usize, Query)], shards: usize, caches: Caches<'_>) -> Summary {
        let micro: Vec<(usize, &[(usize, Query)])> =
            batch.chunks(MICRO_CHUNK).enumerate().map(|(i, c)| (i * MICRO_CHUNK, c)).collect();
        if shards <= 1 || micro.len() <= 1 {
            let mut cache = match caches {
                Caches::Off => None,
                Caches::Caller(cache) => Some(cache),
                Caches::Pool(pool) => {
                    if pool.is_empty() {
                        pool.push(RouteCache::new());
                    }
                    pool.first_mut()
                }
            };
            return merge_in_order(
                micro.iter().map(|&(base, c)| self.summarize(base, c, cache.as_deref_mut())),
            );
        }
        let runs: Vec<_> = micro.chunks(micro.len().div_ceil(shards)).collect();
        let fresh = matches!(caches, Caches::Caller(_));
        let pooled: Vec<Option<&mut RouteCache>> = match caches {
            Caches::Pool(pool) => {
                while pool.len() < runs.len() {
                    pool.push(RouteCache::new());
                }
                pool.iter_mut().map(Some).collect()
            }
            Caches::Off | Caches::Caller(_) => runs.iter().map(|_| None).collect(),
        };
        let parts = scoped_map(runs.into_iter().zip(pooled).collect(), |(run, pooled)| {
            let mut local = fresh.then(RouteCache::new);
            let mut cache = pooled.or(local.as_mut());
            run.iter()
                .map(|&(base, c)| self.summarize(base, c, cache.as_deref_mut()))
                .collect::<Vec<_>>()
        });
        merge_in_order(parts.into_iter().flatten())
    }

    /// Summarize one micro-chunk whose first query sits at batch position
    /// `base`. With a cache the chunk executes in locality order, but
    /// every query keeps its original position — for its fault seed and
    /// in the fold — so the summary never observes the sort.
    fn summarize(
        &self,
        base: usize,
        chunk: &[(usize, Query)],
        mut cache: Option<&mut RouteCache>,
    ) -> Summary {
        let mut order: Vec<usize> = (0..chunk.len()).collect();
        if cache.is_some() {
            order.sort_by_key(|&j| locality_key(chunk[j].0, &chunk[j].1));
        }
        let mut seen = vec![Observed::FAILED; chunk.len()];
        for j in order {
            let (phys, q) = &chunk[j];
            seen[j] = match self.resolve_at(base + j, *phys, q, cache.as_deref_mut()) {
                Ok(f) => Observed::of(&f, self.metric),
                Err(_) => Observed::FAILED,
            };
        }
        let mut s = Summary::new();
        for o in seen {
            match o.value {
                None => s.record_failure(),
                Some(v) if o.partial => s.record_partial(v),
                Some(v) => s.record(v),
            }
            s.add_retries(o.retries);
            s.add_dropped_msgs(o.dropped_msgs);
        }
        s
    }

    /// Resolve the query at batch position `index` through the system's
    /// plain, cached, faulty or faulty-cached entry point.
    fn resolve_at(
        &self,
        index: usize,
        phys: usize,
        q: &Query,
        cache: Option<&mut RouteCache>,
    ) -> Result<FaultyOutcome, DhtError> {
        let (sys, plan) = (self.sys, self.plan);
        let complete = |out: QueryOutcome| FaultyOutcome::complete(out, q.arity());
        match (self.faults, cache) {
            (None, None) => sys.query_planned(phys, q, plan).map(complete),
            (None, Some(c)) => sys.query_planned_cached(phys, q, plan, c).map(complete),
            (Some(f), None) => sys.query_from_faulty(phys, q, f, msg_seed_at(f, index)),
            (Some(f), Some(c)) => {
                sys.query_from_faulty_cached(phys, q, f, msg_seed_at(f, index), c)
            }
        }
    }
}

/// Run a query batch against one system, summarizing a chosen metric.
/// Failed queries are counted via [`Summary::failures`] instead of being
/// silently dropped.
///
/// The batch is executed on [`default_shards`] scoped worker threads, but
/// reduced deterministically: per fixed-size micro-chunk (`MICRO_CHUNK`,
/// 64 queries), merged in batch order. The result is bit-identical for
/// every shard count.
pub fn run_batch(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
) -> Summary {
    run_batch_sharded(sys, batch, metric, default_shards())
}

/// [`run_batch`] with an explicit shard count (`0` or `1` runs inline on
/// the calling thread). The shard count decides only *which thread*
/// summarizes each micro-chunk, never the reduction order.
pub fn run_batch_sharded(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    shards: usize,
) -> Summary {
    run_batch_planned_sharded(sys, batch, metric, QueryPlan::Parallel, shards)
}

/// [`run_batch_sharded`] under an explicit [`QueryPlan`]: every query
/// resolves through `query_planned`, so sequential/adaptive plans thread
/// their candidate sets inside the same ordered micro-chunk reduction.
/// Bit-identical across shard counts for every plan, and byte-identical
/// to [`run_batch_sharded`] at [`QueryPlan::Parallel`].
pub fn run_batch_planned_sharded(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: QueryPlan,
    shards: usize,
) -> Summary {
    Job { sys, metric, plan, faults: None }.fan_out(batch, shards, Caches::Off)
}

/// [`run_batch_sharded`] through the epoch-invalidated route cache and the
/// locality-ordered chunk executor — bit-identical summaries at every
/// shard count, by construction.
///
/// At `shards <= 1` the caller's `cache` persists across the whole batch
/// (the perf harness warms it and then measures its hit rate); at higher
/// shard counts each worker runs its own fresh cache — caches never alter
/// results, so the choice is invisible in the output.
pub fn run_batch_cached_sharded(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    shards: usize,
    cache: &mut RouteCache,
) -> Summary {
    run_batch_planned_cached_sharded(sys, batch, metric, QueryPlan::Parallel, shards, cache)
}

/// [`run_batch_cached_sharded`] under an explicit [`QueryPlan`]: the
/// cached twin of [`run_batch_planned_sharded`]. Sequential/adaptive
/// sub-query walks flow through the route cache one sub-query at a time,
/// so repeated attribute anchors across the locality-sorted chunk stay
/// memoized exactly as in the parallel path.
pub fn run_batch_planned_cached_sharded(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: QueryPlan,
    shards: usize,
    cache: &mut RouteCache,
) -> Summary {
    Job { sys, metric, plan, faults: None }.fan_out(batch, shards, Caches::Caller(cache))
}

/// A per-system pool of worker route caches for the pooled executor
/// (see [`run_batch_planned_cached_pooled`]): worker `i` always draws
/// `pool[i]`, so a pool held across calls keeps each worker's cache warm
/// for its stable slice of the batch stream.
pub type CachePool = Vec<RouteCache>;

/// [`run_batch_planned_cached_sharded`], drawing per-worker caches from a
/// caller-owned pool instead of building fresh ones per call. The pool
/// grows to the worker count on first use; the figure pipelines hold one
/// pool per system across their sweep loops, so later rounds replay
/// routes and walks the earlier rounds recorded against the *same*
/// (unmutated, equal-epoch) system. Caches never alter results, so the
/// summaries stay bit-identical to every other executor.
///
/// Pools must never outlive their system's overlay state: two bed clones
/// can share an epoch value while holding different links, which is why
/// the churn pipeline (fig 6) builds a fresh cache per run instead.
pub fn run_batch_planned_cached_pooled(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: QueryPlan,
    shards: usize,
    pool: &mut CachePool,
) -> Summary {
    Job { sys, metric, plan, faults: None }.fan_out(batch, shards, Caches::Pool(pool))
}

/// [`run_batch`] under a fault plan, on [`default_shards`] workers.
/// With an inert plan the result is bit-identical to [`run_batch`].
pub fn run_batch_faulty(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: &FaultPlan,
) -> Summary {
    run_batch_faulty_sharded(sys, batch, metric, plan, default_shards())
}

/// [`run_batch_faulty`] with an explicit shard count. Fault coins are a
/// pure function of `(plan seed, global batch position)` and reduction
/// follows the same ordered micro-chunk scheme as [`run_batch_sharded`],
/// so every summary field — including the degradation counters — is
/// bit-identical across shard counts.
pub fn run_batch_faulty_sharded(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: &FaultPlan,
    shards: usize,
) -> Summary {
    let faulty = Job { sys, metric, plan: QueryPlan::Parallel, faults: Some(plan) };
    faulty.fan_out(batch, shards, Caches::Off)
}

/// [`run_batch_faulty_sharded`] through the route cache: bit-identical
/// to the uncached run at every shard count, with the inert fraction of
/// the batch served from cache (see
/// [`ResourceDiscovery::query_from_faulty_cached`]).
pub fn run_batch_faulty_cached_sharded(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    metric: Metric,
    plan: &FaultPlan,
    shards: usize,
    cache: &mut RouteCache,
) -> Summary {
    let faulty = Job { sys, metric, plan: QueryPlan::Parallel, faults: Some(plan) };
    faulty.fan_out(batch, shards, Caches::Caller(cache))
}

/// Which batch executor a figure pipeline runs on. Both engines produce
/// bit-identical reports; [`Engine::Cached`] routes repeated lookups and
/// overlapping range walks through the epoch-invalidated [`RouteCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Execute every query from scratch (the PR-7 behaviour).
    #[default]
    Plain,
    /// Batched executor: locality-sorted micro-chunks over a per-worker
    /// route cache, reduced in original order.
    Cached,
}

/// Run the same batch against every mounted system in parallel, one
/// thread per system (they are independent and querying is `&self`),
/// each of which shards its batch further, for `systems × shards` total
/// workers. The figure pipelines thread their `--plan=` override through
/// here; plan choice never alters owner sets, only the cost tallies.
///
/// With `pools` (one per system, in `systems` order) every system runs
/// the cached executor over its pool. The fig-4/fig-5 sweeps hold the
/// pools across their arity loops — the systems are unmutated between
/// rounds, so every cached entry stays epoch-fresh and later rounds hit
/// on the walks earlier rounds recorded. Bit-identical to the uncached
/// run by construction.
pub fn run_batch_all_planned(
    systems: &[Box<dyn ResourceDiscovery + Send + Sync>],
    batch: &[(usize, Query)],
    metric: Metric,
    plan: QueryPlan,
    pools: Option<&mut [CachePool]>,
) -> Vec<(&'static str, Summary)> {
    let shards = default_shards();
    let Some(pools) = pools else {
        return scoped_map(systems.iter().collect(), |sys| {
            (sys.name(), run_batch_planned_sharded(sys.as_ref(), batch, metric, plan, shards))
        });
    };
    assert_eq!(systems.len(), pools.len(), "one cache pool per system");
    scoped_map(systems.iter().zip(pools.iter_mut()).collect(), |(sys, pool)| {
        let sys = sys.as_ref();
        (sys.name(), run_batch_planned_cached_pooled(sys, batch, metric, plan, shards, pool))
    })
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

    #[test]
    fn parallel_batch_equals_sequential_batch() {
        // run_batch_all_planned fans the systems out over threads (and each
        // system shards its batch); every summary must be bit-identical to
        // a single-threaded, single-shard run — on either engine.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 20, 2, 2, QueryMix::Range, 0x77);
        let mut pools: Vec<CachePool> = bed.systems.iter().map(|_| CachePool::new()).collect();
        for cached in [false, true] {
            let pools = cached.then_some(pools.as_mut_slice());
            let parallel = run_batch_all_planned(
                &bed.systems,
                &batch,
                Metric::Visited,
                QueryPlan::Parallel,
                pools,
            );
            assert_eq!(parallel.len(), bed.systems.len(), "cached={cached}");
            for (name, par) in &parallel {
                let sys = bed.systems.iter().find(|s| s.name() == *name).unwrap();
                let seq = run_batch_sharded(sys.as_ref(), &batch, Metric::Visited, 1);
                assert_summaries_bit_identical(par, &seq, &format!("{name} cached={cached}"));
            }
        }
    }

    #[test]
    fn sharded_batch_is_bit_identical_for_every_shard_count() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 3, QueryMix::Range, 0x3A);
        for sys in &bed.systems {
            let seq = run_batch_sharded(sys.as_ref(), &batch, Metric::Hops, 1);
            for shards in [2usize, 3, 4, 7, 16, 64, batch.len(), batch.len() + 5] {
                let par = run_batch_sharded(sys.as_ref(), &batch, Metric::Hops, shards);
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
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 2, QueryMix::Range, 0x99);
        let plan = FaultPlan::new(0xFA57, 0.0, 0.0).unwrap();
        for sys in &bed.systems {
            for shards in [1usize, 3] {
                let plain = run_batch_sharded(sys.as_ref(), &batch, Metric::Hops, shards);
                let faulty =
                    run_batch_faulty_sharded(sys.as_ref(), &batch, Metric::Hops, &plan, shards);
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
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 3, QueryMix::Range, 0x3B);
        let plan = FaultPlan::new(0xFA58, 0.15, 0.05).unwrap();
        for sys in &bed.systems {
            let seq = run_batch_faulty_sharded(sys.as_ref(), &batch, Metric::Hops, &plan, 1);
            assert!(seq.dropped_msgs() > 0, "{}: 15% loss should drop some messages", sys.name());
            for shards in [2usize, 3, 7, 16] {
                let par =
                    run_batch_faulty_sharded(sys.as_ref(), &batch, Metric::Hops, &plan, shards);
                let ctx = format!("{} shards={shards}", sys.name());
                assert_summaries_bit_identical(&par, &seq, &ctx);
            }
        }
    }

    #[test]
    fn cached_batch_is_bit_identical_to_plain_batch() {
        // The batched executor sorts each micro-chunk and runs through the
        // route cache; the summary must still be bit-identical to the plain
        // executor, for both metrics and at shard counts 1 and 3.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        for (mix, seed) in [(QueryMix::Range, 0xCA5Eu64), (QueryMix::NonRange, 0xCA5F)] {
            let batch = query_batch(&bed.workload, cfg.nodes, 15, 4, 3, mix, seed);
            for sys in &bed.systems {
                for shards in [1usize, 3] {
                    // One pool per shard count, held warm across metrics.
                    let mut pool = CachePool::new();
                    for metric in [Metric::Hops, Metric::Visited] {
                        let plain = run_batch_sharded(sys.as_ref(), &batch, metric, shards);
                        let mut cache = RouteCache::new();
                        let cached = run_batch_cached_sharded(
                            sys.as_ref(),
                            &batch,
                            metric,
                            shards,
                            &mut cache,
                        );
                        let ctx = format!("{} shards={shards} {metric:?} {mix:?}", sys.name());
                        assert_summaries_bit_identical(&cached, &plain, &ctx);
                        let pooled = run_batch_planned_cached_pooled(
                            sys.as_ref(),
                            &batch,
                            metric,
                            QueryPlan::Parallel,
                            shards,
                            &mut pool,
                        );
                        assert_summaries_bit_identical(&pooled, &plain, &format!("{ctx} pooled"));
                    }
                }
            }
        }
    }

    #[test]
    fn cached_batch_is_bit_identical_after_churn() {
        // Epoch invalidation, not cache clearing, is what keeps a persistent
        // cache honest across topology changes: reuse one cache across a
        // pre-churn and a post-churn batch and compare against plain runs.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let mut bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 12, 4, 2, QueryMix::Range, 0xC4B2);
        let mut caches: Vec<RouteCache> = bed.systems.iter().map(|_| RouteCache::new()).collect();
        for (sys, cache) in bed.systems.iter().zip(caches.iter_mut()) {
            let plain = run_batch_sharded(sys.as_ref(), &batch, Metric::Visited, 1);
            let cached = run_batch_cached_sharded(sys.as_ref(), &batch, Metric::Visited, 1, cache);
            assert_summaries_bit_identical(&cached, &plain, &format!("{} pre-churn", sys.name()));
        }
        for sys in bed.systems.iter_mut() {
            for phys in [5usize, 41, 99] {
                let _ = sys.leave_physical(phys);
            }
            sys.stabilize();
            sys.place_all(&bed.workload.reports);
        }
        for (sys, cache) in bed.systems.iter().zip(caches.iter_mut()) {
            let plain = run_batch_sharded(sys.as_ref(), &batch, Metric::Visited, 1);
            let cached = run_batch_cached_sharded(sys.as_ref(), &batch, Metric::Visited, 1, cache);
            assert_summaries_bit_identical(&cached, &plain, &format!("{} post-churn", sys.name()));
        }
    }

    #[test]
    fn cached_faulty_batch_is_bit_identical_to_plain_faulty_batch() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 3, QueryMix::Range, 0xFCAB);
        // An inert plan short-circuits through the cache; a lossy plan takes
        // the uncached faulty path. Both must match the plain faulty run.
        for (seed, loss, fail) in [(0xFA60u64, 0.0f64, 0.0f64), (0xFA61, 0.15, 0.05)] {
            let plan = FaultPlan::new(seed, loss, fail).unwrap();
            for sys in &bed.systems {
                for shards in [1usize, 3] {
                    let plain =
                        run_batch_faulty_sharded(sys.as_ref(), &batch, Metric::Hops, &plan, shards);
                    let mut cache = RouteCache::new();
                    let cached = run_batch_faulty_cached_sharded(
                        sys.as_ref(),
                        &batch,
                        Metric::Hops,
                        &plan,
                        shards,
                        &mut cache,
                    );
                    let ctx = format!("{} shards={shards} loss={loss}", sys.name());
                    assert_summaries_bit_identical(&cached, &plain, &ctx);
                }
            }
        }
    }

    #[test]
    fn planned_batch_is_bit_identical_across_shards_and_caching() {
        // Every plan × metric: sharding (1 vs 3) and the cached executor
        // must both be invisible in the summary bytes.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 15, 3, 3, QueryMix::Range, 0x9A1);
        for sys in &bed.systems {
            for plan in QueryPlan::ALL {
                for metric in [Metric::Hops, Metric::Visited, Metric::Matches, Metric::Lookups] {
                    let base = run_batch_planned_sharded(sys.as_ref(), &batch, metric, plan, 1);
                    let ctx = format!("{} {plan:?} {metric:?}", sys.name());
                    let sharded = run_batch_planned_sharded(sys.as_ref(), &batch, metric, plan, 3);
                    assert_summaries_bit_identical(&sharded, &base, &ctx);
                    for shards in [1usize, 3] {
                        let mut cache = RouteCache::new();
                        let cached = run_batch_planned_cached_sharded(
                            sys.as_ref(),
                            &batch,
                            metric,
                            plan,
                            shards,
                            &mut cache,
                        );
                        assert_summaries_bit_identical(
                            &cached,
                            &base,
                            &format!("{ctx} cached shards={shards}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_plan_executor_matches_classic_executor() {
        // run_batch_sharded delegates to the planned executor at
        // QueryPlan::Parallel; pin the equivalence explicitly.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let batch = query_batch(&bed.workload, cfg.nodes, 10, 3, 2, QueryMix::Range, 0x9A2);
        for sys in &bed.systems {
            let classic = run_batch_sharded(sys.as_ref(), &batch, Metric::Hops, 1);
            let planned = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Hops,
                QueryPlan::Parallel,
                1,
            );
            assert_summaries_bit_identical(&planned, &classic, sys.name());
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
            let par = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Matches,
                QueryPlan::Parallel,
                1,
            );
            let ada = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Matches,
                QueryPlan::Adaptive,
                1,
            );
            assert!(
                ada.total() * 2.0 <= par.total(),
                "{}: adaptive should ship <= 0.5x parallel's pieces: {} vs {}",
                sys.name(),
                ada.total(),
                par.total()
            );
            // And adaptive never issues more lookups than parallel.
            let par_l = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Lookups,
                QueryPlan::Parallel,
                1,
            );
            let ada_l = run_batch_planned_sharded(
                sys.as_ref(),
                &batch,
                Metric::Lookups,
                QueryPlan::Adaptive,
                1,
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
