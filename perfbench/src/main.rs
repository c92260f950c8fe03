//! The repository benchmark: `point`, `range` and `churn` on the full §V
//! bed (n = 2048, m = 200, k = 500, d = 8).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point --seed 7321 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs set-up several times and the timed phase once, without
//! tracing, and reports the end-to-end metrics. `--trace 1` runs the
//! untraced phase, then the same rounds again on a fresh bed with every
//! system behind a span-recording proxy, and reports the per-layer
//! metrics. Both check sampled owner sets against a brute-force oracle and
//! (on `point` and `range`) the exact counters of one round at one shard
//! against `nproc` shards; `--trace 1` also checks that the traced run's
//! counters equal the untraced run's and that the layer self times account
//! for at least 90% of the traced wall time. Any failed check exits 1.
//! Human-readable output goes to stderr; the last line of stdout is the
//! JSON result.

#![forbid(clippy::print_stdout)]

mod adapter;
mod alloc;
mod oracle;
mod trace;
mod workloads;

use adapter::{CacheCounts, Counts, SYSTEMS};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;
use trace::{Kind, Recorder, NO_SYS};
use workloads::{Mounted, Phase, Until, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Largest share of the traced wall time no span may cover.
const MAX_UNATTRIBUTED: f64 = 0.10;
/// Where `--trace 1` writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_spans";

const USAGE: &str =
    "usage: perfbench --workload point|range|churn [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, adapter::default_seed(), 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, name, seed, seconds, trace })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of durations, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run(
    a: &Args,
    m: &Mounted,
    tallies: &[Arc<adapter::Tally>; 4],
    shards: usize,
    rec: Option<&Recorder>,
    until: Until,
    sample: bool,
) -> Phase {
    match a.workload {
        Workload::Churn => workloads::run_churn(m, tallies, a.seed, rec, until, sample),
        w => workloads::run_static(w, m, tallies, a.seed, shards, rec, until, sample),
    }
}

fn sum(counts: &[Counts; 4], f: impl Fn(&Counts) -> u64) -> u64 {
    counts.iter().map(f).sum()
}

/// The per-layer metrics of a traced run, the sum of the layer self times
/// and the unattributed seconds.
fn layer_metrics(
    m: &Mounted,
    phase: &Phase,
    spans: &[trace::Span],
    wall_s: f64,
    overhead: f64,
) -> (Vec<Metric>, f64, f64) {
    let b = trace::breakdown(spans);
    let mut out = vec![metric("workload.generate_s", b.self_s(Kind::Generate, NO_SYS), "s")];
    for (i, sys) in SYSTEMS.iter().enumerate() {
        out.push(metric(format!("build.{sys}.s"), b.self_s(Kind::Build, i as u8), "s"));
    }
    for (i, sys) in SYSTEMS.iter().enumerate() {
        out.push(metric(format!("place.{sys}.s"), b.self_s(Kind::Place, i as u8), "s"));
        let pieces = ratio(m.pieces[i] + phase.pieces[i], 1 + phase.reports[i]);
        out.push(metric(format!("place.{sys}.pieces"), pieces, "pieces/placement"));
    }
    for (i, sys) in SYSTEMS.iter().enumerate() {
        out.push(metric(format!("exec.{sys}.s"), b.self_s(Kind::Exec, i as u8), "s"));
    }
    out.push(metric("exec.self_s", b.self_s(Kind::Round, NO_SYS), "s"));
    for (i, sys) in SYSTEMS.iter().enumerate() {
        let c: CacheCounts = phase.cache[i];
        let lookups = c.route_hits + c.route_misses + c.walk_hits + c.walk_misses;
        let lookups = ratio(lookups, phase.counts[i].queries);
        out.push(metric(format!("cache.{sys}.lookups"), lookups, "lookups/query"));
        let route = ratio(c.route_hits, c.route_hits + c.route_misses);
        out.push(metric(format!("cache.{sys}.route_hit_ratio"), route, "ratio"));
        let walk = ratio(c.walk_hits, c.walk_hits + c.walk_misses);
        out.push(metric(format!("cache.{sys}.walk_hit_ratio"), walk, "ratio"));
    }
    for (i, sys) in SYSTEMS.iter().enumerate() {
        let c = &phase.counts[i];
        let mut lat = b.latencies_ns[i].clone();
        lat.sort_unstable();
        let theory: f64 = (1..=adapter::MAX_ARITY)
            .map(|a| c.answered_by_arity[a] as f64 * m.bed.theory_hops(a, i))
            .sum();
        let answered: u64 = c.answered_by_arity.iter().sum();
        let per_query = |n: u64| ratio(n, answered);
        out.extend([
            metric(format!("query.{sys}.s"), b.self_s(Kind::Query, i as u8), "s"),
            metric(format!("query.{sys}.p50_us"), percentile_us(&lat, 50.0), "us"),
            metric(format!("query.{sys}.p99_us"), percentile_us(&lat, 99.0), "us"),
            metric(format!("query.{sys}.count"), c.queries as f64, "count"),
            metric(format!("query.{sys}.hops"), per_query(c.hops), "hops/query"),
            metric(format!("query.{sys}.lookups"), per_query(c.lookups), "lookups/query"),
            metric(format!("query.{sys}.visited"), per_query(c.visited), "nodes/query"),
            metric(format!("query.{sys}.matches"), per_query(c.matches), "pieces/query"),
            metric(
                format!("query.{sys}.hops_vs_theory"),
                if theory > 0.0 { c.hops as f64 / theory } else { 0.0 },
                "ratio",
            ),
        ]);
    }
    for (i, sys) in SYSTEMS.iter().enumerate() {
        let c = &phase.counts[i];
        let per_query = |n: u64| ratio(n, c.queries);
        out.push(metric(format!("plan.{sys}.self_s"), b.self_s(Kind::Plan, i as u8), "s"));
        out.push(metric(format!("plan.{sys}.subs_run"), per_query(c.subs_run), "subs/query"));
        let skipped = per_query(c.subs_skipped);
        out.push(metric(format!("plan.{sys}.subs_skipped"), skipped, "subs/query"));
    }
    for (i, sys) in SYSTEMS.iter().enumerate() {
        out.push(metric(format!("churn.{sys}.join_s"), b.self_s(Kind::Join, i as u8), "s"));
        out.push(metric(format!("churn.{sys}.depart_s"), b.self_s(Kind::Depart, i as u8), "s"));
    }
    for (i, sys) in SYSTEMS.iter().enumerate() {
        let s = b.self_s(Kind::Stabilize, i as u8);
        out.push(metric(format!("maint.{sys}.stabilize_s"), s, "s"));
    }
    for (i, sys) in SYSTEMS.iter().enumerate() {
        out.push(metric(format!("snapshot.{sys}.s"), b.self_s(Kind::Snapshot, i as u8), "s"));
    }
    for (i, sys) in SYSTEMS.iter().enumerate() {
        let c = &phase.counts[i];
        let per_query = |n: u64| ratio(n, c.queries);
        out.extend([
            metric(format!("fault.{sys}.retries"), per_query(c.retries), "retries/query"),
            metric(format!("fault.{sys}.dropped_msgs"), per_query(c.dropped), "msgs/query"),
            metric(format!("fault.{sys}.partial"), per_query(c.partial), "ratio"),
        ]);
    }
    let queries = sum(&phase.counts, |c| c.queries);
    out.push(metric(
        "fault.failed_ratio",
        ratio(sum(&phase.counts, |c| c.failed), queries),
        "ratio",
    ));
    out.push(metric(
        "fault.partial_ratio",
        ratio(sum(&phase.counts, |c| c.partial), queries),
        "ratio",
    ));
    let unattributed = wall_s - b.covered_s;
    out.push(metric("trace.unattributed_s", unattributed, "s"));
    out.push(metric("trace.overhead_ratio", overhead, "ratio"));
    (out, b.total_self_s(), unattributed)
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

/// The traced run: a fresh set-up and the untraced run's rounds, every
/// system behind a recording proxy. Checks its counters against the
/// untraced run and reconciles the layer self times with its wall time.
fn traced(
    a: &Args,
    shards: usize,
    phase: &Phase,
    untraced_pieces: [u64; 4],
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let rec = Arc::new(Recorder::new());
    let t_tallies = workloads::tallies();
    let start = rec.now();
    let tm = workloads::setup(a.seed, Some(&rec), &t_tallies);
    let tphase = run(a, &tm, &t_tallies, shards, Some(&rec), Until::Rounds(phase.rounds), false);
    let wall_s = (rec.now() - start) as f64 / 1e9;
    let spans = rec.take();
    for i in 0..4 {
        let name = SYSTEMS[i];
        if tphase.counts[i].exact() != phase.counts[i].exact() {
            problems.push(format!("trace: {name} counters differ from the untraced run"));
        }
        if tphase.cache[i] != phase.cache[i] {
            problems.push(format!("trace: {name} cache counters differ from the untraced run"));
        }
        if tm.pieces[i] + tphase.pieces[i] != untraced_pieces[i] {
            problems.push(format!("trace: {name} pieces differ from the untraced run"));
        }
    }
    let (metrics, layers, unattributed) =
        layer_metrics(&tm, &tphase, &spans, wall_s, tphase.wall_s / phase.wall_s);
    if (layers + unattributed - wall_s).abs() > 1e-6 * wall_s {
        problems.push(format!(
            "trace: layers {layers} s + unattributed {unattributed} s != wall {wall_s} s"
        ));
    }
    eprintln!(
        "trace: {} spans over {wall_s:.3} s, unattributed {unattributed:.4} s ({:.2}%)",
        spans.len(),
        100.0 * unattributed / wall_s
    );
    if unattributed > MAX_UNATTRIBUTED * wall_s {
        problems
            .push(format!("trace: unattributed {unattributed:.3} s exceeds 10% of {wall_s:.3} s"));
    }
    let path = std::path::Path::new(SPAN_DIR).join(format!("{}.csv", a.name));
    if let Err(e) = trace::write_csv(&spans, &path) {
        problems.push(format!("trace: writing {}: {e}", path.display()));
    }
    metrics
}

fn main() {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {shards}",
        a.name,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let mut problems: Vec<String> = Vec::new();

    // Untraced run: set-up (several times without tracing), timed phase.
    let tallies = workloads::tallies();
    let mut setup_times = Vec::new();
    let mut mounted = None;
    for _ in 0..if a.trace { 1 } else { SETUPS } {
        drop(mounted.take());
        let m = workloads::setup(a.seed, None, &tallies);
        setup_times.push(m.secs);
        mounted = Some(m);
    }
    let m = mounted.expect("at least one set-up");
    eprintln!("set-ups: {setup_times:.3?} s");
    let until = Until::Elapsed(Duration::from_secs(a.seconds));
    let phase = run(&a, &m, &tallies, shards, None, until, true);
    let peak_mb = alloc::peak_bytes() as f64 / 1e6;
    let queries = sum(&phase.counts, |c| c.queries);
    let failed = sum(&phase.counts, |c| c.failed);

    // Oracle check on a fixed sample.
    let checked = phase.samples.len();
    let (bad, non_empty) = workloads::check_oracle(&m.bed, &phase.samples);
    eprintln!(
        "oracle: checked {checked} queries, {non_empty} with a non-empty answer, {bad} mismatches"
    );
    if bad > 0 {
        problems.push(format!("oracle: {bad} of {checked} sampled queries mismatched"));
    }
    if non_empty == 0 {
        problems.push(format!("oracle: none of {checked} sampled queries has a non-empty answer"));
    }

    // One round at one shard must count exactly what nproc shards counted.
    if a.workload != Workload::Churn {
        let before = phase.counts;
        let one = run(&a, &m, &tallies, 1, None, Until::Rounds(1), false);
        for i in 0..4 {
            let diff: Vec<u64> =
                one.counts[i].exact().iter().zip(before[i].exact()).map(|(x, y)| x - y).collect();
            if diff != phase.first_round[i].exact() {
                problems.push(format!(
                    "shards: {} counters differ at 1 vs {shards} shards",
                    SYSTEMS[i]
                ));
            }
        }
        eprintln!("shards: first round recounted at 1 shard");
    }
    let untraced_pieces: [u64; 4] = std::array::from_fn(|i| m.pieces[i] + phase.pieces[i]);
    drop(m);

    let qps = phase.units.queries_per_s(a.workload.unit_quantile());
    let metrics = if a.trace {
        traced(&a, shards, &phase, untraced_pieces, &mut problems)
    } else {
        vec![
            metric("queries_per_s", qps, "queries/s"),
            metric("setup_s", median(setup_times), "s"),
            metric("peak_heap_mb", peak_mb, "MB"),
        ]
    };

    eprintln!(
        "queries: {queries} in {:.3} s over {} rounds, {failed} failed",
        phase.wall_s, phase.rounds
    );
    eprintln!(
        "{} timing units, sample at quantile {} fastest first: {qps:.0} queries/s",
        phase.units.len(),
        a.workload.unit_quantile(),
    );
    for mt in &metrics {
        eprintln!("  {:<34} {:>16.6} {}", mt.name, mt.value, mt.unit);
    }
    for p in &problems {
        eprintln!("FAILED {p}");
    }
    let correct = problems.is_empty();
    let mut out = std::io::stdout().lock();
    let line = render(correct, queries.max(1), failed, &metrics);
    if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() || !correct {
        std::process::exit(1);
    }
}
