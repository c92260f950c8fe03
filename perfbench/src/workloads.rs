//! The three workloads: set-up, the timed phase, and the samples the
//! oracle checks.
//!
//! All load comes from this process. Systems are driven one after another;
//! the executor runs each batch on `shards` workers, and every loop is
//! closed (a worker issues its next query when the previous one returns).

use crate::adapter::{
    self, below, cache_counts, churn_schedule, fault_plan, msg_seed, oracle_query, Bed,
    CacheCounts, CachePool, ChurnKind, Counts, QueryMix, QueryPlan, Sys, Tally, SYSTEMS,
};
use crate::oracle::{self, Oracle, Sub};
use crate::trace::{step, Kind, Recorder, NO_SYS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact-value queries, arities 1–10, parallel plan (fig. 4's batches).
    Point,
    /// Range queries, arities 1–10, adaptive plan (fig. 5's batches).
    Range,
    /// Poisson churn with maintenance and faulty queries (fig. 6's model).
    Churn,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "point" => Some(Self::Point),
            "range" => Some(Self::Range),
            "churn" => Some(Self::Churn),
            _ => None,
        }
    }

    /// Which sample of each timing unit `queries_per_s` keeps, as a share
    /// of the way down its samples ranked fastest first. A `churn` round
    /// repeats the same work, so its fastest repeat is the run's speed with
    /// the least host contention in it. A `point` or `range` round draws
    /// new batches, so the fastest sample would pick the lightest batch and
    /// the luckiest few milliseconds; the median does neither.
    pub fn unit_quantile(self) -> f64 {
        match self {
            Self::Churn => 0.0,
            Self::Point | Self::Range => 0.5,
        }
    }
}

/// Queries per arity batch on `point`: fig. 4's 100 origins × 10 queries.
const POINT_ORIGINS: usize = 100;
const POINT_PER_ORIGIN: usize = 10;
/// Queries per arity batch on `range`, one per origin as in fig. 5.
const RANGE_QUERIES: usize = 250;
const MAX_ARITY: usize = adapter::MAX_ARITY;
/// Queries per arity batch the oracle checks on `point` and `range`.
const ORACLE_PER_ARITY: usize = 8;

/// Churn model (fig. 6): Poisson rate R, graceful share of departures,
/// requests per simulated second, maintenance period, query arity.
const CHURN_RATE: f64 = 0.5;
const GRACEFUL: f64 = 0.8;
const REQUEST_RATE: f64 = 10.0;
const MAINT_PERIOD: f64 = 50.0;
const CHURN_ARITY: usize = 5;
const DROP_RATE: f64 = 0.02;
/// Maintenance periods each system runs per churn round.
const CHURN_PERIODS: usize = 2;

/// A mounted bed: the workload and the four proxied systems.
pub struct Mounted {
    /// Workload and configuration.
    pub bed: Bed,
    /// The systems, in `SYSTEMS` order.
    pub systems: Vec<Sys>,
    /// Pieces each system stored at placement.
    pub pieces: [u64; 4],
    /// Seconds from generation to the first query being possible.
    pub secs: f64,
}

/// Fresh counters, one per system.
pub fn tallies() -> [Arc<Tally>; 4] {
    std::array::from_fn(|_| Arc::new(Tally::default()))
}

/// Generate the workload, construct all four systems and place reports.
pub fn setup(seed: u64, rec: Option<&Arc<Recorder>>, tallies: &[Arc<Tally>; 4]) -> Mounted {
    let r = rec.map(|r| r.as_ref());
    let t0 = Instant::now();
    let bed = {
        let _g = step(r, Kind::Generate, NO_SYS);
        adapter::Bed::generate(seed)
    };
    let mut systems = Vec::with_capacity(4);
    let mut pieces = [0; 4];
    for (i, tally) in tallies.iter().enumerate() {
        let inner = {
            let _g = step(r, Kind::Build, i as u8);
            bed.build(i)
        };
        let mut sys = Sys::new(inner, i, Arc::clone(tally), rec.cloned());
        pieces[i] = sys.place(&bed);
        systems.push(sys);
    }
    Mounted { bed, systems, pieces, secs: t0.elapsed().as_secs_f64() }
}

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Whole rounds until this much wall time has passed.
    Elapsed(Duration),
    /// Exactly this many rounds.
    Rounds(usize),
}

/// A query whose owner set the oracle checks: system, query, owners.
pub type Sample = (usize, Vec<Sub>, Vec<usize>);

/// What one timed phase did.
pub struct Phase {
    /// Wall seconds of the phase.
    pub wall_s: f64,
    /// Rounds completed.
    pub rounds: usize,
    /// Timing units of every round.
    pub units: Units,
    /// Outcome counters per system.
    pub counts: [Counts; 4],
    /// Counters per system after the first round.
    pub first_round: [Counts; 4],
    /// Route-cache counters per system.
    pub cache: [CacheCounts; 4],
    /// Pieces stored by re-reports during the phase, per system.
    pub pieces: [u64; 4],
    /// Re-reports during the phase, per system.
    pub reports: [u64; 4],
    /// Queries whose owner sets the oracle checks.
    pub samples: Vec<Sample>,
}

fn counts(tallies: &[Arc<Tally>; 4]) -> [Counts; 4] {
    std::array::from_fn(|i| tallies[i].snapshot())
}

/// Seconds and queries of each timing unit (one system's batch of one
/// arity, or one system's churn run), one sample per round.
#[derive(Default)]
pub struct Units(Vec<Vec<(f64, u64)>>);

impl Units {
    /// Run `f` as a sample of unit `id`, counting the queries of `tally`.
    fn time<R>(&mut self, id: usize, tally: &Tally, f: impl FnOnce() -> R) -> R {
        let (t, q) = (Instant::now(), tally.snapshot().queries);
        let out = f();
        let sample = (t.elapsed().as_secs_f64(), tally.snapshot().queries - q);
        if self.0.len() <= id {
            self.0.resize_with(id + 1, Vec::new);
        }
        self.0[id].push(sample);
        out
    }

    /// Queries per second over one sample of every unit: per unit, the
    /// samples are ranked fastest first and the one at `quantile` of the
    /// way down is kept.
    pub fn queries_per_s(&self, quantile: f64) -> f64 {
        let rate = |&(s, q): &(f64, u64)| q as f64 / s;
        let (mut secs, mut queries) = (0.0, 0);
        for unit in &self.0 {
            let mut ranked = unit.clone();
            ranked.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
            let at = (ranked.len().saturating_sub(1) as f64 * quantile).round() as usize;
            if let Some(&(s, q)) = ranked.get(at) {
                secs += s;
                queries += q;
            }
        }
        queries as f64 / secs
    }

    /// Number of timing units.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Wall time, rounds, first-round counters and unit timings of a timed
/// phase.
struct Rounds {
    wall_s: f64,
    rounds: usize,
    first_round: [Counts; 4],
    units: Units,
}

/// Run `round(r, units)` for r = 0, 1, … until `until` says stop.
fn rounds(
    until: Until,
    tallies: &[Arc<Tally>; 4],
    mut round: impl FnMut(usize, &mut Units),
) -> Rounds {
    let t0 = Instant::now();
    let mut out = Rounds {
        wall_s: 0.0,
        rounds: 0,
        first_round: [Counts::default(); 4],
        units: Units::default(),
    };
    loop {
        let stop = match until {
            Until::Elapsed(d) => t0.elapsed() >= d,
            Until::Rounds(n) => out.rounds >= n,
        };
        if stop {
            break;
        }
        round(out.rounds, &mut out.units);
        out.rounds += 1;
        if out.rounds == 1 {
            out.first_round = counts(tallies);
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// The batch of arity `arity` in round `round`; round 0 draws fig. 4's
/// (point) or fig. 5's (range) batch for the seed.
fn batch(
    w: Workload,
    bed: &Bed,
    seed: u64,
    round: usize,
    arity: usize,
) -> Vec<(usize, adapter::Query)> {
    let salt = ((round as u64) << 32) ^ arity as u64;
    match w {
        Workload::Point => bed.batch(
            POINT_ORIGINS,
            POINT_PER_ORIGIN,
            arity,
            QueryMix::NonRange,
            seed ^ 0xF400 ^ salt,
        ),
        _ => bed.batch(RANGE_QUERIES, 1, arity, QueryMix::Range, seed ^ 0xF500 ^ salt),
    }
}

fn plan_of(w: Workload) -> QueryPlan {
    match w {
        Workload::Point | Workload::Churn => QueryPlan::Parallel,
        Workload::Range => QueryPlan::Adaptive,
    }
}

/// The timed phase of `point` or `range`: rounds of one executor batch per
/// arity per system, with one cache pool per system for the whole phase.
/// With `sample`, the oracle's sample is then resolved on each system's
/// warm pool.
#[allow(clippy::too_many_arguments)]
pub fn run_static(
    w: Workload,
    m: &Mounted,
    tallies: &[Arc<Tally>; 4],
    seed: u64,
    shards: usize,
    rec: Option<&Recorder>,
    until: Until,
    sample: bool,
) -> Phase {
    let mut pools: Vec<CachePool> = (0..4).map(|_| CachePool::new()).collect();
    let plan = plan_of(w);
    let r = rounds(until, tallies, |round, units| {
        for arity in 1..=MAX_ARITY {
            let _r = step(rec, Kind::Round, NO_SYS);
            let batch = batch(w, &m.bed, seed, round, arity);
            for (i, sys) in m.systems.iter().enumerate() {
                let _e = step(rec, Kind::Exec, i as u8);
                units.time((arity - 1) * 4 + i, &tallies[i], || {
                    sys.run_batch(&batch, plan, shards, &mut pools[i]);
                });
            }
        }
    });
    let cache = std::array::from_fn(|i| cache_counts(&pools[i]));
    let samples = if sample { static_samples(w, m, seed, &mut pools) } else { Vec::new() };
    Phase {
        wall_s: r.wall_s,
        rounds: r.rounds,
        units: r.units,
        counts: counts(tallies),
        first_round: r.first_round,
        cache,
        pieces: [0; 4],
        reports: [0; 4],
        samples,
    }
}

/// Owner sets of a fixed sample of round 0's queries, each resolved on
/// worker 0's cache of its system's pool, warm from the timed phase.
fn static_samples(w: Workload, m: &Mounted, seed: u64, pools: &mut [CachePool]) -> Vec<Sample> {
    let mut out = Vec::new();
    for arity in 1..=MAX_ARITY {
        let batch = batch(w, &m.bed, seed, 0, arity);
        for (phys, q) in batch.iter().take(ORACLE_PER_ARITY) {
            for (i, sys) in m.systems.iter().enumerate() {
                let cache = pools[i].first_mut().expect("the phase ran at least one batch");
                // A query error is a mismatch: the oracle always answers.
                let owners =
                    sys.owners(*phys, q, plan_of(w), cache).unwrap_or_else(|| vec![usize::MAX]);
                out.push((i, oracle_query(q), owners));
            }
        }
    }
    out
}

/// Compare every sample with the oracle; returns the number of mismatches
/// and the number of samples whose expected owner set is non-empty.
pub fn check_oracle(bed: &Bed, samples: &[Sample]) -> (usize, usize) {
    let oracle = Oracle::new(&bed.reports());
    let (mut bad, mut non_empty) = (0, 0);
    for (sys, subs, owners) in samples {
        let want = oracle.answer(subs);
        non_empty += usize::from(!want.is_empty());
        if oracle::canonical(owners.clone()) != want {
            eprintln!(
                "oracle mismatch on {}: {} owners, expected {}",
                SYSTEMS[*sys],
                owners.len(),
                want.len()
            );
            bad += 1;
        }
    }
    (bad, non_empty)
}

/// The timed phase of `churn`: per round, each system in turn churned from
/// a snapshot of the static bed on this thread. Every round replays the
/// same schedule, queries and fault coins, so a round's timing units are
/// repeats of one another. With `sample`, round 0 takes the oracle's
/// sample: after each maintenance round, the first query if its outcome
/// is complete, and each of its sub-queries resolved on its own.
pub fn run_churn(
    m: &Mounted,
    tallies: &[Arc<Tally>; 4],
    seed: u64,
    rec: Option<&Recorder>,
    until: Until,
    sample: bool,
) -> Phase {
    let plan = fault_plan(seed ^ 0xFA17, DROP_RATE).expect("valid drop rate");
    let requests = (CHURN_PERIODS as f64 * MAINT_PERIOD * REQUEST_RATE) as usize;
    let duration = requests as f64 / REQUEST_RATE;
    let round_seed = seed ^ 0xC6;
    let schedule = churn_schedule(CHURN_RATE, duration, GRACEFUL, round_seed);
    let mut pieces = [0u64; 4];
    let mut reports = [0u64; 4];
    let mut samples = Vec::new();
    let r = rounds(until, tallies, |round, units| {
        let _r = step(rec, Kind::Round, NO_SYS);
        for (i, proto) in m.systems.iter().enumerate() {
            let _e = step(rec, Kind::Exec, i as u8);
            units.time(i, &tallies[i], || {
                let mut sys = proto.snapshot();
                let mut rng = adapter::rng(round_seed ^ ((i as u64 + 1) << 8));
                let mut cache = adapter::route_cache();
                let mut max_phys = m.bed.nodes();
                let mut events = schedule.iter().peekable();
                let mut next_maint = MAINT_PERIOD;
                let mut check = false;
                for q_idx in 0..requests {
                    let now = (q_idx + 1) as f64 / REQUEST_RATE;
                    while let Some(e) = events.next_if(|e| e.time <= now) {
                        match e.kind {
                            ChurnKind::Join => max_phys += usize::from(sys.join(&mut rng)),
                            ChurnKind::Leave | ChurnKind::Fail => {
                                if sys.live_nodes() > 2 {
                                    if let Some(p) = pick_live(&sys, max_phys, &mut rng) {
                                        sys.depart(p, e.kind == ChurnKind::Leave);
                                    }
                                }
                            }
                        }
                    }
                    if now >= next_maint {
                        sys.maintain();
                        pieces[i] += sys.place(&m.bed);
                        reports[i] += 1;
                        next_maint += MAINT_PERIOD;
                        check = sample && round == 0;
                    }
                    let Some(origin) = pick_live(&sys, max_phys, &mut rng) else { continue };
                    let mix = if q_idx % 2 == 0 { QueryMix::NonRange } else { QueryMix::Range };
                    let q = m.bed.query(CHURN_ARITY, mix, &mut rng);
                    let msg = msg_seed(&plan, q_idx as u64);
                    let owners = sys.faulty_query(origin, &q, &plan, msg, &mut cache);
                    if std::mem::take(&mut check) {
                        if let Some(owners) = owners {
                            samples.push((i, oracle_query(&q), owners));
                        }
                        for (single, owners) in sys.sub_owners(origin, &q) {
                            let owners = owners.unwrap_or_else(|| vec![usize::MAX]);
                            samples.push((i, oracle_query(&single), owners));
                        }
                    }
                }
            });
        }
    });
    Phase {
        wall_s: r.wall_s,
        rounds: r.rounds,
        units: r.units,
        counts: counts(tallies),
        first_round: r.first_round,
        cache: [CacheCounts::default(); 4],
        pieces,
        reports,
        samples,
    }
}

/// A random live node, as fig. 6 picks one: up to 64 uniform draws.
fn pick_live(sys: &Sys, max: usize, rng: &mut adapter::Rng) -> Option<usize> {
    (0..64).map(|_| below(rng, max)).find(|&p| sys.live(p))
}
