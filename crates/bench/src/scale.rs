//! `repro scale` — the million-node scaling sweep.
//!
//! Sweeps bed construction across four orders of magnitude
//! (n = 1k → 1M; quick mode stops at 50k for CI) and measures, per
//! overlay and size, the three costs ROADMAP's scale item asks for:
//!
//! * **memory footprint** — live heap bytes per node, via the counting
//!   global allocator the `repro` binary installs (the library forbids
//!   `unsafe`, so the byte totals arrive through a [`BytesProbe`]
//!   function pointer, exactly like `perf`'s [`crate::perf::AllocCounter`]);
//! * **build throughput** — wall-clock nodes/second through the sorted
//!   bulk constructors (the O(n²) per-join path this PR retired would be
//!   infeasible at 10^6);
//! * **query throughput** — routed lookups/second against the built
//!   overlay, with mean hop counts.
//!
//! On top of the raw kernels the sweep runs theorem-style growth checks:
//! Chord and Mercury mean hops must grow as O(log n) (the per-size
//! `hops / log2 n` ratios stay within a [`HOP_GROWTH_BAND`] band), and
//! Cycloid's node degree must stay bounded by a constant
//! ([`DEGREE_BOUND`]) independent of n — the paper's §IV claims,
//! validated at a thousand times the paper's scale.
//!
//! Results are emitted in the same `lorm-repro/perf-v2` schema as
//! `repro perf` (kernels with `phase`/`iters`/`elapsed_ms`/`ops_per_sec`)
//! plus two scale-specific top-level arrays: `"scale"` (one row per
//! system × size) and `"growth_checks"`.

use crate::perf::PerfKernel;
use crate::ReproConfig;
use baselines::{Mercury, MercuryConfig};
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::Overlay;
use grid_resource::{AttrId, AttributeSpace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Monotonic heap byte totals `(allocated, freed)` since process start.
/// Installed by binaries with a counting global allocator; `None` reports
/// `bytes_per_node` as unmeasured.
pub type BytesProbe = fn() -> (u64, u64);

/// Maximum allowed spread of the per-size `mean_hops / log2 n` ratio for
/// an O(log n) overlay: `max_ratio / min_ratio` across the sweep must not
/// exceed this. A truly logarithmic overlay holds the ratio constant
/// (Chord's is ~0.5); anything polynomial blows past the band within one
/// order of magnitude.
pub const HOP_GROWTH_BAND: f64 = 1.5;

/// Constant bound on Cycloid node degree, independent of n. Cycloid
/// maintains seven link kinds (inside/outside leaf pairs, one cubical,
/// two cyclic neighbors); 16 leaves headroom for dense clusters while
/// still refuting any degree that grows with n.
pub const DEGREE_BOUND: usize = 16;

/// Number of Mercury hubs in the sweep (attributes in the synthetic
/// space). Two is the minimum that exercises multi-hub construction;
/// each hub is a full n-node Chord ring, so the Mercury column costs
/// twice the Chord column. Typed `u32` to match `AttrId`'s raw form, so
/// hub-id arithmetic widens rather than truncates.
pub const MERCURY_HUBS: u32 = 2;

/// One system × size measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Which overlay/system (`"chord"`, `"cycloid"`, `"mercury"`).
    pub system: &'static str,
    /// Live nodes built.
    pub n: usize,
    /// Wall-clock milliseconds to build the overlay (bulk path).
    pub build_ms: f64,
    /// Net live heap bytes per node after construction, when a probe was
    /// installed. Mercury reports bytes per physical node across all hubs.
    pub bytes_per_node: Option<f64>,
    /// Routed lookups per second against the built overlay.
    pub query_ops_per_sec: f64,
    /// Mean hops over the routed lookups.
    pub mean_hops: f64,
    /// Maximum distinct outlinks over a deterministic node sample (for
    /// Mercury: within one hub).
    pub max_outlinks: usize,
}

/// One theorem-style growth check over the sweep.
#[derive(Debug, Clone)]
pub struct GrowthCheck {
    /// Which system the check covers.
    pub system: &'static str,
    /// What is being claimed (stable, machine-readable).
    pub claim: &'static str,
    /// The per-size statistic: `(n, mean_hops / log2 n)` for hop-growth
    /// checks, `(n, max_outlinks)` for the degree check.
    pub per_size: Vec<(usize, f64)>,
    /// The observed spread: `max/min` ratio for hop growth, the maximum
    /// statistic for the degree bound.
    pub observed: f64,
    /// The allowed limit ([`HOP_GROWTH_BAND`] or [`DEGREE_BOUND`]).
    pub limit: f64,
    /// Whether the observation stayed within the limit.
    pub ok: bool,
}

/// A completed scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// The sizes swept.
    pub sizes: Vec<usize>,
    /// One point per system × size.
    pub points: Vec<ScalePoint>,
    /// The perf-v2 kernels (one build + one query kernel per point).
    pub kernels: Vec<PerfKernel>,
    /// The growth checks.
    pub checks: Vec<GrowthCheck>,
}

/// The sweep sizes for a configuration: the full sweep covers four
/// orders of magnitude; quick mode stops at 50k so the CI smoke job
/// finishes in seconds.
pub fn sweep_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[1_000, 10_000, 50_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    }
}

/// The smallest Cycloid dimension whose capacity `d·2^d` holds `n` nodes.
pub fn min_dimension(n: usize) -> u8 {
    let mut d: u8 = 3;
    while (d as usize) * (1usize << d) < n {
        d += 1;
    }
    d
}

/// Human-readable short label for a sweep size (`1_000` → `"n1k"`).
pub fn size_label(n: usize) -> &'static str {
    match n {
        64 => "n64",
        256 => "n256",
        1_000 => "n1k",
        10_000 => "n10k",
        50_000 => "n50k",
        100_000 => "n100k",
        1_000_000 => "n1m",
        _ => "n_other",
    }
}

/// Static kernel name for a (system, phase, size) cell — perf-v2 kernel
/// names are `&'static str`, so the cross product is enumerated.
fn kernel_name(system: &'static str, phase: &'static str, n: usize) -> &'static str {
    macro_rules! table {
        ($(($sys:literal, $ph:literal, $n:literal, $name:literal)),* $(,)?) => {
            match (system, phase, n) {
                $(($sys, $ph, $n) => $name,)*
                _ => "scale_other",
            }
        };
    }
    table![
        ("chord", "build", 64, "chord_build_n64"),
        ("chord", "query", 64, "chord_query_n64"),
        ("chord", "build", 256, "chord_build_n256"),
        ("chord", "query", 256, "chord_query_n256"),
        ("chord", "build", 1_000, "chord_build_n1k"),
        ("chord", "query", 1_000, "chord_query_n1k"),
        ("chord", "build", 10_000, "chord_build_n10k"),
        ("chord", "query", 10_000, "chord_query_n10k"),
        ("chord", "build", 50_000, "chord_build_n50k"),
        ("chord", "query", 50_000, "chord_query_n50k"),
        ("chord", "build", 100_000, "chord_build_n100k"),
        ("chord", "query", 100_000, "chord_query_n100k"),
        ("chord", "build", 1_000_000, "chord_build_n1m"),
        ("chord", "query", 1_000_000, "chord_query_n1m"),
        ("cycloid", "build", 64, "cycloid_build_n64"),
        ("cycloid", "query", 64, "cycloid_query_n64"),
        ("cycloid", "build", 256, "cycloid_build_n256"),
        ("cycloid", "query", 256, "cycloid_query_n256"),
        ("cycloid", "build", 1_000, "cycloid_build_n1k"),
        ("cycloid", "query", 1_000, "cycloid_query_n1k"),
        ("cycloid", "build", 10_000, "cycloid_build_n10k"),
        ("cycloid", "query", 10_000, "cycloid_query_n10k"),
        ("cycloid", "build", 50_000, "cycloid_build_n50k"),
        ("cycloid", "query", 50_000, "cycloid_query_n50k"),
        ("cycloid", "build", 100_000, "cycloid_build_n100k"),
        ("cycloid", "query", 100_000, "cycloid_query_n100k"),
        ("cycloid", "build", 1_000_000, "cycloid_build_n1m"),
        ("cycloid", "query", 1_000_000, "cycloid_query_n1m"),
        ("mercury", "build", 64, "mercury_build_n64"),
        ("mercury", "query", 64, "mercury_query_n64"),
        ("mercury", "build", 256, "mercury_build_n256"),
        ("mercury", "query", 256, "mercury_query_n256"),
        ("mercury", "build", 1_000, "mercury_build_n1k"),
        ("mercury", "query", 1_000, "mercury_query_n1k"),
        ("mercury", "build", 10_000, "mercury_build_n10k"),
        ("mercury", "query", 10_000, "mercury_query_n10k"),
        ("mercury", "build", 50_000, "mercury_build_n50k"),
        ("mercury", "query", 50_000, "mercury_query_n50k"),
        ("mercury", "build", 100_000, "mercury_build_n100k"),
        ("mercury", "query", 100_000, "mercury_query_n100k"),
        ("mercury", "build", 1_000_000, "mercury_build_n1m"),
        ("mercury", "query", 1_000_000, "mercury_query_n1m"),
    ]
}

fn net_live_bytes(probe: Option<BytesProbe>) -> Option<i128> {
    probe.map(|p| {
        let (alloc, freed) = p();
        alloc as i128 - freed as i128
    })
}

fn bytes_per_node(before: Option<i128>, after: Option<i128>, n: usize) -> Option<f64> {
    match (before, after) {
        (Some(b), Some(a)) => Some(((a - b).max(0)) as f64 / n as f64),
        _ => None,
    }
}

/// Maximum distinct outlinks over a deterministic sample of live nodes
/// (every `len/512`-th node — sampling keeps the 1M sweep out of O(n)
/// neighbor enumeration without losing the degree bound's witness).
fn max_outlinks_sampled<O: Overlay>(net: &O) -> usize {
    let live = net.live_nodes();
    let step = (live.len() / 512).max(1);
    live.iter().step_by(step).map(|&i| net.outlinks(i).unwrap_or(0)).max().unwrap_or(0)
}

struct QueryMeasure {
    ops_per_sec: f64,
    mean_hops: f64,
    elapsed_ms: f64,
}

fn measure_queries(
    iters: u64,
    mut route_one: impl FnMut(&mut SmallRng) -> usize,
    seed: u64,
) -> QueryMeasure {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut hops_total: u64 = 0;
    let started = Instant::now();
    for _ in 0..iters {
        hops_total += route_one(&mut rng) as u64;
    }
    let secs = started.elapsed().as_secs_f64();
    QueryMeasure {
        ops_per_sec: iters as f64 / secs.max(1e-12),
        mean_hops: hops_total as f64 / iters.max(1) as f64,
        elapsed_ms: secs * 1e3,
    }
}

/// Run the full sweep at the configuration's scale. See [`run_scale_at`]
/// for the parameterized core (used by tests at tiny sizes).
pub fn run_scale(cfg: &ReproConfig, bytes: Option<BytesProbe>) -> ScaleRun {
    let iters = if cfg.quick { 2_000 } else { 4_000 };
    run_scale_at(cfg.seed, sweep_sizes(cfg.quick), iters, bytes)
}

/// The sweep core: for each size, build each overlay through the bulk
/// path (timed, with the heap delta attributed to it), drive `route_iters`
/// random lookups, then drop it before the next build so heap deltas
/// never overlap.
pub fn run_scale_at(
    seed: u64,
    sizes: &[usize],
    route_iters: u64,
    bytes: Option<BytesProbe>,
) -> ScaleRun {
    let mut points: Vec<ScalePoint> = Vec::new();
    let mut kernels: Vec<PerfKernel> = Vec::new();
    let push_point = |points: &mut Vec<ScalePoint>,
                      kernels: &mut Vec<PerfKernel>,
                      p: ScalePoint,
                      query_ms: f64| {
        kernels.push(PerfKernel {
            name: kernel_name(p.system, "build", p.n),
            phase: "build",
            iters: p.n as u64,
            elapsed_ms: p.build_ms,
            ops_per_sec: p.n as f64 / (p.build_ms / 1e3).max(1e-12),
            allocs_per_iter: None,
        });
        kernels.push(PerfKernel {
            name: kernel_name(p.system, "query", p.n),
            phase: "query",
            iters: route_iters,
            elapsed_ms: query_ms,
            ops_per_sec: p.query_ops_per_sec,
            allocs_per_iter: None,
        });
        points.push(p);
    };

    for &n in sizes {
        // --- Chord ---------------------------------------------------
        let before = net_live_bytes(bytes);
        let started = Instant::now();
        let chord = Chord::build(n, ChordConfig { seed, ..ChordConfig::default() });
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let bpn = bytes_per_node(before, net_live_bytes(bytes), n);
        let q = measure_queries(
            route_iters,
            |rng| {
                // lint:allow(panic-hygiene): built above with n >= 1 live nodes.
                let from = chord.random_node(rng).expect("live node");
                let key: u64 = rng.gen();
                chord.route_stats(from, key).map(|s| s.hops).unwrap_or(0)
            },
            seed ^ (n as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        let max_deg = max_outlinks_sampled(&chord);
        push_point(
            &mut points,
            &mut kernels,
            ScalePoint {
                system: "chord",
                n,
                build_ms,
                bytes_per_node: bpn,
                query_ops_per_sec: q.ops_per_sec,
                mean_hops: q.mean_hops,
                max_outlinks: max_deg,
            },
            q.elapsed_ms,
        );
        drop(chord);

        // --- Cycloid (smallest dimension that holds n) ----------------
        let d = min_dimension(n);
        let before = net_live_bytes(bytes);
        let started = Instant::now();
        let cycloid = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let bpn = bytes_per_node(before, net_live_bytes(bytes), n);
        let q = measure_queries(
            route_iters,
            |rng| {
                // lint:allow(panic-hygiene): built above with n >= 1 live nodes.
                let from = cycloid.random_node(rng).expect("live node");
                let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d);
                cycloid.route_stats(from, key).map(|s| s.hops).unwrap_or(0)
            },
            seed ^ (n as u64).wrapping_mul(0xC0FFEE),
        );
        let max_deg = max_outlinks_sampled(&cycloid);
        push_point(
            &mut points,
            &mut kernels,
            ScalePoint {
                system: "cycloid",
                n,
                build_ms,
                bytes_per_node: bpn,
                query_ops_per_sec: q.ops_per_sec,
                mean_hops: q.mean_hops,
                max_outlinks: max_deg,
            },
            q.elapsed_ms,
        );
        drop(cycloid);

        // --- Mercury (MERCURY_HUBS full-n Chord hubs) -----------------
        let space = AttributeSpace::synthetic(MERCURY_HUBS as usize, 1.0, 100.0)
            // lint:allow(panic-hygiene): the synthetic range 1..100 is valid.
            .expect("valid space");
        let before = net_live_bytes(bytes);
        let started = Instant::now();
        let mercury = Mercury::new(n, &space, MercuryConfig { seed });
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let bpn = bytes_per_node(before, net_live_bytes(bytes), n);
        let q = measure_queries(
            route_iters,
            |rng| {
                let hub = mercury.hub(AttrId(rng.gen_range(0..MERCURY_HUBS))).net();
                // lint:allow(panic-hygiene): hubs were built with n >= 1 live nodes.
                let from = hub.random_node(rng).expect("live node");
                let key: u64 = rng.gen();
                hub.route_stats(from, key).map(|s| s.hops).unwrap_or(0)
            },
            seed ^ (n as u64).wrapping_mul(0x9E3779B9),
        );
        let max_deg = (0..MERCURY_HUBS)
            .map(|h| max_outlinks_sampled(mercury.hub(AttrId(h)).net()))
            .max()
            .unwrap_or(0);
        push_point(
            &mut points,
            &mut kernels,
            ScalePoint {
                system: "mercury",
                n,
                build_ms,
                bytes_per_node: bpn,
                query_ops_per_sec: q.ops_per_sec,
                mean_hops: q.mean_hops,
                max_outlinks: max_deg,
            },
            q.elapsed_ms,
        );
        drop(mercury);
    }

    let checks = growth_checks(&points);
    ScaleRun { sizes: sizes.to_vec(), points, kernels, checks }
}

/// Derive the growth checks from a sweep's points: O(log n) hop growth
/// for Chord and Mercury, constant degree for Cycloid.
pub fn growth_checks(points: &[ScalePoint]) -> Vec<GrowthCheck> {
    let mut out = Vec::new();
    for system in ["chord", "mercury"] {
        let per_size: Vec<(usize, f64)> = points
            .iter()
            .filter(|p| p.system == system)
            .map(|p| (p.n, p.mean_hops / (p.n as f64).log2()))
            .collect();
        let max = per_size.iter().map(|&(_, r)| r).fold(f64::NEG_INFINITY, f64::max);
        let min = per_size.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        let observed = if min > 0.0 { max / min } else { f64::INFINITY };
        out.push(GrowthCheck {
            system,
            claim: "mean_hops_O_log_n",
            ok: !per_size.is_empty() && observed <= HOP_GROWTH_BAND,
            per_size,
            observed,
            limit: HOP_GROWTH_BAND,
        });
    }
    let per_size: Vec<(usize, f64)> = points
        .iter()
        .filter(|p| p.system == "cycloid")
        .map(|p| (p.n, p.max_outlinks as f64))
        .collect();
    let observed = per_size.iter().map(|&(_, d)| d).fold(0.0, f64::max);
    out.push(GrowthCheck {
        system: "cycloid",
        claim: "constant_degree",
        ok: !per_size.is_empty() && observed <= DEGREE_BOUND as f64,
        per_size,
        observed,
        limit: DEGREE_BOUND as f64,
    });
    out
}

/// Serialize the sweep against the `lorm-repro/perf-v2` schema: the
/// standard kernel array and phase split, plus two scale-specific
/// top-level arrays (`"scale"`, `"growth_checks"`).
pub fn render_scale_json(cfg: &ReproConfig, run: &ScaleRun) -> String {
    use sim::report::{json_num, json_str};
    let mut out = String::from("{\"schema\":\"lorm-repro/perf-v2\",\"config\":{");
    out.push_str(&format!(
        "\"quick\":{},\"seed\":{},\"shards\":{},\"sizes\":[{}]}}",
        cfg.quick,
        cfg.seed,
        cfg.shards,
        run.sizes.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(",")
    ));
    let total_ms = |phase: &str| -> f64 {
        run.kernels.iter().filter(|k| k.phase == phase).map(|k| k.elapsed_ms).sum()
    };
    out.push_str(&format!(
        ",\"phase_totals\":{{\"build_ms\":{},\"query_ms\":{}}}",
        json_num(total_ms("build")),
        json_num(total_ms("query"))
    ));
    out.push_str(",\"kernels\":[");
    for (i, k) in run.kernels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"phase\":{},\"iters\":{},\"elapsed_ms\":{},\"ops_per_sec\":{},\"allocs_per_iter\":null}}",
            json_str(k.name),
            json_str(k.phase),
            k.iters,
            json_num(k.elapsed_ms),
            json_num(k.ops_per_sec),
        ));
    }
    out.push_str("],\"scale\":[");
    for (i, p) in run.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"system\":{},\"n\":{},\"build_ms\":{},\"bytes_per_node\":{},\"query_ops_per_sec\":{},\"mean_hops\":{},\"max_outlinks\":{}}}",
            json_str(p.system),
            p.n,
            json_num(p.build_ms),
            match p.bytes_per_node {
                Some(b) => json_num(b),
                None => "null".into(),
            },
            json_num(p.query_ops_per_sec),
            json_num(p.mean_hops),
            p.max_outlinks,
        ));
    }
    out.push_str("],\"growth_checks\":[");
    for (i, c) in run.checks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let stats = c
            .per_size
            .iter()
            .map(|&(n, v)| format!("[{},{}]", n, json_num(v)))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"system\":{},\"claim\":{},\"per_size\":[{}],\"observed\":{},\"limit\":{},\"ok\":{}}}",
            json_str(c.system),
            json_str(c.claim),
            stats,
            json_num(c.observed),
            json_num(c.limit),
            c.ok,
        ));
    }
    out.push_str("]}");
    out
}

/// Render the sweep as markdown tables for terminal output (and for
/// pasting into EXPERIMENTS.md).
pub fn render_scale_table(run: &ScaleRun) -> String {
    let mut out = String::from("## Scale sweep\n\n");
    out.push_str(
        "| system | n | build (ms) | build nodes/s | bytes/node | query ops/s | mean hops | max outlinks |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for p in &run.points {
        let build_nps = p.n as f64 / (p.build_ms / 1e3).max(1e-12);
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.0} | {} | {:.0} | {:.2} | {} |\n",
            p.system,
            p.n,
            p.build_ms,
            build_nps,
            match p.bytes_per_node {
                Some(b) => format!("{b:.0}"),
                None => "-".into(),
            },
            p.query_ops_per_sec,
            p.mean_hops,
            p.max_outlinks,
        ));
    }
    out.push_str("\n## Growth checks\n\n");
    out.push_str("| system | claim | per-size statistic | observed | limit | status |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for c in &run.checks {
        let stats = c
            .per_size
            .iter()
            .map(|&(n, v)| format!("{}:{:.2}", size_label(n), v))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.2} | {} |\n",
            c.system,
            c.claim,
            stats,
            c.observed,
            c.limit,
            if c.ok { "ok" } else { "FAILED" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_dimension_covers_the_sweep() {
        assert_eq!(min_dimension(1_000), 8); // 8·256 = 2048
        assert_eq!(min_dimension(10_000), 10); // 10·1024 = 10240
        assert_eq!(min_dimension(50_000), 13); // 13·8192 = 106496
        assert_eq!(min_dimension(100_000), 13);
        assert_eq!(min_dimension(1_000_000), 16); // 16·65536 = 1048576
        for n in [1_000, 10_000, 50_000, 100_000, 1_000_000] {
            let d = min_dimension(n) as usize;
            assert!(d * (1 << d) >= n, "d = {d} cannot hold {n}");
        }
    }

    #[test]
    fn kernel_names_are_static_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for sys in ["chord", "cycloid", "mercury"] {
            for phase in ["build", "query"] {
                for &n in sweep_sizes(false).iter().chain(sweep_sizes(true)) {
                    let name = kernel_name(sys, phase, n);
                    assert_ne!(name, "scale_other", "{sys}/{phase}/{n} unnamed");
                    seen.insert(name);
                }
            }
        }
        // 3 systems × 2 phases × 5 distinct sizes across both modes
        assert_eq!(seen.len(), 30);
    }

    #[test]
    fn tiny_sweep_end_to_end() {
        // Two tiny sizes exercise the whole pipeline — build, query,
        // outlink sampling, growth checks, both renderers — in test time.
        let run = run_scale_at(7, &[64, 256], 200, None);
        assert_eq!(run.points.len(), 6);
        assert_eq!(run.kernels.len(), 12);
        for p in &run.points {
            assert!(p.build_ms >= 0.0);
            assert!(p.query_ops_per_sec > 0.0, "{}: no throughput", p.system);
            assert!(p.mean_hops > 0.0, "{}: zero hops", p.system);
            assert!(p.bytes_per_node.is_none(), "no probe installed");
            assert!(p.max_outlinks > 0);
        }
        assert_eq!(run.checks.len(), 3);
        let cyc = run.checks.iter().find(|c| c.system == "cycloid").unwrap();
        assert_eq!(cyc.claim, "constant_degree");
        assert!(cyc.ok, "cycloid degree {} past bound", cyc.observed);
        let table = render_scale_table(&run);
        assert!(table.contains("## Scale sweep"));
        assert!(table.contains("## Growth checks"));
        assert!(table.contains("| chord | 64 |"));
        let cfg = ReproConfig { quick: true, seed: 7, ..ReproConfig::default() };
        let j = render_scale_json(&cfg, &run);
        assert!(j.starts_with("{\"schema\":\"lorm-repro/perf-v2\",\"config\":{"), "{j}");
        assert!(j.contains("\"sizes\":[64,256]"));
        assert!(j.contains("\"scale\":["));
        assert!(j.contains("\"growth_checks\":["));
        assert!(j.contains("\"claim\":\"constant_degree\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn growth_checks_flag_superlogarithmic_hops() {
        // Synthetic points: hops growing like sqrt(n) must fail the
        // O(log n) band; hops at 0.5·log2 n must pass.
        let mk = |system: &'static str, n: usize, hops: f64| ScalePoint {
            system,
            n,
            build_ms: 1.0,
            bytes_per_node: None,
            query_ops_per_sec: 1.0,
            mean_hops: hops,
            max_outlinks: 7,
        };
        let good: Vec<ScalePoint> = [1_000usize, 10_000, 100_000]
            .iter()
            .map(|&n| mk("chord", n, 0.5 * (n as f64).log2()))
            .collect();
        let checks = growth_checks(&good);
        assert!(checks.iter().find(|c| c.system == "chord").unwrap().ok);
        let bad: Vec<ScalePoint> = [1_000usize, 10_000, 100_000]
            .iter()
            .map(|&n| mk("chord", n, (n as f64).sqrt()))
            .collect();
        let checks = growth_checks(&bad);
        let chord = checks.iter().find(|c| c.system == "chord").unwrap();
        assert!(!chord.ok, "sqrt-growth passed: observed {}", chord.observed);
        // Degree check fails when the degree exceeds the constant bound.
        let big_degree = vec![ScalePoint { max_outlinks: 40, ..mk("cycloid", 1_000, 3.0) }];
        let checks = growth_checks(&big_degree);
        assert!(!checks.iter().find(|c| c.system == "cycloid").unwrap().ok);
        // Empty sweeps never claim success.
        for c in growth_checks(&[]) {
            assert!(!c.ok, "{} ok on empty sweep", c.system);
        }
    }

    #[test]
    fn bytes_accounting_is_none_without_probe_and_monotone_with() {
        assert_eq!(bytes_per_node(None, None, 10), None);
        assert_eq!(bytes_per_node(Some(100), Some(1100), 10), Some(100.0));
        // A net-negative delta (frees attributed to the window) clamps to 0.
        assert_eq!(bytes_per_node(Some(1100), Some(100), 10), Some(0.0));
    }
}
