//! `repro perf` — the wall-clock performance baseline.
//!
//! Times the hot kernels every figure decomposes into (overlay routing,
//! maintenance repair, LORM range probing), the bed-construction phase
//! the [`sim::BedCache`] amortizes (`build_bed_*`, `bed_clone`), and the
//! quick-mode figure pipelines end to end against a warm cache, and
//! renders the result against the stable `lorm-repro/perf-v2` schema
//! (per-kernel `phase` tag plus a build/query wall-clock split). The
//! committed `BENCH_*.json` files are produced by this mode; CI re-runs
//! it and fails on a per-kernel wall-clock regression past
//! [`REGRESSION_THRESHOLD`] (query) / [`BUILD_REGRESSION_THRESHOLD`]
//! (build) — see `.github/workflows/ci.yml` — and `repro perf
//! --baseline <path>` applies the same gate locally before push.
//!
//! Allocation counts come from a counting `#[global_allocator]` that only
//! the `repro` binary (and the `alloc_count` test binary) installs — this
//! library forbids `unsafe`, so the binary passes the counter in as a
//! plain function pointer.

use crate::{run_artifact_report, Artifact, ReproConfig};
use analysis::System;
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::Overlay;
use grid_resource::{intersect_sorted, QueryMix, QueryPlan, ResourceDiscovery, Workload};
use lorm::{Lorm, LormConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim::{build_system, BedCache, TestBed};
use std::time::Instant;

/// Counts heap allocations performed while running the closure. Installed
/// by binaries with a counting global allocator; `None` reports
/// `allocs_per_iter` as unmeasured.
pub type AllocCounter = fn(&mut dyn FnMut()) -> u64;

/// Wall-clock phase a kernel belongs to: `"build"` for bed construction
/// and snapshotting (the cost the [`BedCache`] amortizes), `"query"` for
/// everything driven against an already stabilized bed.
pub type Phase = &'static str;

/// One timed kernel.
#[derive(Debug, Clone)]
pub struct PerfKernel {
    /// Stable kernel name (schema field).
    pub name: &'static str,
    /// Which wall-clock phase this kernel measures (`"build"`/`"query"`).
    pub phase: Phase,
    /// Iterations timed.
    pub iters: u64,
    /// Total wall-clock milliseconds for all iterations.
    pub elapsed_ms: f64,
    /// Iterations per second.
    pub ops_per_sec: f64,
    /// Mean heap allocations per iteration, when a counter was installed.
    pub allocs_per_iter: Option<f64>,
}

fn time_kernel(name: &'static str, phase: Phase, iters: u64, mut f: impl FnMut()) -> PerfKernel {
    // Best-of-N timing with a reproduced floor: scheduler blips inflate
    // a single pass by 30%+ even on the sub-second kernels, and the
    // regression gate needs a stable floor. A fixed pass count is not
    // enough — a bursty stall can cover all of a short kernel's passes
    // back to back — so after the minimum three passes we keep sampling
    // until a *second* pass lands within 5% of the best (the floor has
    // been reproduced, so it is not a one-off), capped at nine passes.
    let (min_passes, max_passes) = (3, 9);
    let mut times = Vec::with_capacity(max_passes);
    while times.len() < max_passes {
        let started = Instant::now();
        for _ in 0..iters {
            f();
        }
        times.push(started.elapsed().as_secs_f64());
        if times.len() >= min_passes {
            let best_so_far = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let near_floor = times.iter().filter(|&&t| t <= best_so_far * 1.05).count();
            if near_floor >= 2 {
                break;
            }
        }
    }
    let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
    PerfKernel {
        name,
        phase,
        iters,
        elapsed_ms: best * 1e3,
        ops_per_sec: iters as f64 / best.max(1e-12),
        allocs_per_iter: None,
    }
}

/// Run every perf kernel at the configuration's scale.
pub fn run_perf(cfg: &ReproConfig, counter: Option<AllocCounter>) -> Vec<PerfKernel> {
    let (n_chord, d, route_iters, probe_iters) = if cfg.quick {
        (512usize, 7u8, 50_000u64, 2_000u64)
    } else {
        (2048usize, 8u8, 200_000u64, 2_000u64)
    };
    let n_cycloid = d as usize * (1usize << d);
    let mut kernels = Vec::new();

    // --- overlay routing: the innermost kernel of every figure ---------
    let chord = Chord::build(n_chord, ChordConfig { seed: cfg.seed, ..ChordConfig::default() });
    let cycloid = Cycloid::build(n_cycloid, CycloidConfig { dimension: d, seed: cfg.seed });
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9E3779B97F4A7C15);
    let chord_plan: Vec<(dht_core::NodeIdx, u64)> = (0..route_iters)
        .map(|_| (chord.random_node(&mut rng).expect("live node"), rng.gen()))
        .collect();
    let cycloid_plan: Vec<(dht_core::NodeIdx, CycloidId)> = (0..route_iters)
        .map(|_| {
            let from = cycloid.random_node(&mut rng).expect("live node");
            let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d);
            (from, key)
        })
        .collect();

    let mut k = time_kernel("chord_route_stats", "query", route_iters, {
        let mut i = 0usize;
        let plan = &chord_plan;
        let net = &chord;
        move || {
            let (from, key) = plan[i % plan.len()];
            std::hint::black_box(net.route_stats(from, key).map(|r| r.hops).unwrap_or(0));
            i += 1;
        }
    });
    measure_allocs(&mut k, counter, probe_iters, {
        let mut i = 0usize;
        let plan = &chord_plan;
        let net = &chord;
        move || {
            let (from, key) = plan[i % plan.len()];
            std::hint::black_box(net.route_stats(from, key).map(|r| r.hops).unwrap_or(0));
            i += 1;
        }
    });
    kernels.push(k);

    let mut k = time_kernel("chord_route_traced", "query", route_iters, {
        let mut i = 0usize;
        let plan = &chord_plan;
        let net = &chord;
        move || {
            let (from, key) = plan[i % plan.len()];
            std::hint::black_box(net.route(from, key).map(|r| r.hops()).unwrap_or(0));
            i += 1;
        }
    });
    measure_allocs(&mut k, counter, probe_iters, {
        let mut i = 0usize;
        let plan = &chord_plan;
        let net = &chord;
        move || {
            let (from, key) = plan[i % plan.len()];
            std::hint::black_box(net.route(from, key).map(|r| r.hops()).unwrap_or(0));
            i += 1;
        }
    });
    kernels.push(k);

    let mut k = time_kernel("cycloid_route_stats", "query", route_iters, {
        let mut i = 0usize;
        let plan = &cycloid_plan;
        let net = &cycloid;
        move || {
            let (from, key) = plan[i % plan.len()];
            std::hint::black_box(net.route_stats(from, key).map(|r| r.hops).unwrap_or(0));
            i += 1;
        }
    });
    measure_allocs(&mut k, counter, probe_iters, {
        let mut i = 0usize;
        let plan = &cycloid_plan;
        let net = &cycloid;
        move || {
            let (from, key) = plan[i % plan.len()];
            std::hint::black_box(net.route_stats(from, key).map(|r| r.hops).unwrap_or(0));
            i += 1;
        }
    });
    kernels.push(k);

    let mut k = time_kernel("cycloid_route_traced", "query", route_iters, {
        let mut i = 0usize;
        let plan = &cycloid_plan;
        let net = &cycloid;
        move || {
            let (from, key) = plan[i % plan.len()];
            std::hint::black_box(net.route(from, key).map(|r| r.hops()).unwrap_or(0));
            i += 1;
        }
    });
    measure_allocs(&mut k, counter, probe_iters, {
        let mut i = 0usize;
        let plan = &cycloid_plan;
        let net = &cycloid;
        move || {
            let (from, key) = plan[i % plan.len()];
            std::hint::black_box(net.route(from, key).map(|r| r.hops()).unwrap_or(0));
            i += 1;
        }
    });
    kernels.push(k);

    // --- maintenance: the perfect-repair tick every churn round pays ---
    let maint_iters = if cfg.quick { 10 } else { 20 };
    let mut maint_net =
        Chord::build(n_chord, ChordConfig { seed: cfg.seed ^ 1, ..ChordConfig::default() });
    kernels.push(time_kernel("chord_maintenance", "query", maint_iters, || {
        maint_net.rebuild_all_state();
        std::hint::black_box(maint_net.len());
    }));

    // --- LORM range probing: route + cluster walk + directory scan -----
    let sim_cfg = cfg.sim();
    let mut wl_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x10);
    let workload =
        Workload::generate(sim_cfg.workload_config(), &mut wl_rng).expect("valid config");
    let mut lorm = Lorm::new(
        sim_cfg.nodes,
        &workload.space,
        LormConfig { dimension: sim_cfg.dimension, seed: cfg.seed, ..LormConfig::default() },
    );
    lorm.place_all(&workload.reports);
    let probe_q = if cfg.quick { 1_000u64 } else { 5_000u64 };
    let mut q_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x11);
    kernels.push(time_kernel("lorm_range_probe", "query", probe_q, || {
        let q = workload.random_query(1, QueryMix::Range, &mut q_rng);
        let origin = q_rng.gen_range(0..sim_cfg.nodes);
        std::hint::black_box(lorm.query_from(origin, &q).map(|o| o.tally.visited).unwrap_or(0));
    }));

    // --- planner: zero-alloc candidate intersection --------------------
    // One iteration = refill the accumulator from the large sorted set
    // and intersect the small one into it in place. The refill stays
    // within the pre-sized capacity, so a nonzero allocs/iter here means
    // the merge kernel itself regressed (the alloc_count_planner test
    // pins the same invariant exactly).
    {
        let mut i_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x13);
        let mut sorted_set = |len: usize, max: usize| -> Vec<usize> {
            let mut v: Vec<usize> = (0..len).map(|_| i_rng.gen_range(0..max)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let big = sorted_set(4096, 1 << 16);
        let small = sorted_set(256, 1 << 16);
        let acc_cell = std::cell::RefCell::new(Vec::with_capacity(big.len()));
        let intersect_iters = if cfg.quick { 50_000u64 } else { 200_000u64 };
        let mut k = time_kernel("planner_intersect", "query", intersect_iters, {
            let acc = &acc_cell;
            let big = &big;
            let small = &small;
            move || {
                let mut a = acc.borrow_mut();
                a.clear();
                a.extend_from_slice(big);
                intersect_sorted(&mut a, small);
                std::hint::black_box(a.len());
            }
        });
        measure_allocs(&mut k, counter, probe_iters, {
            let acc = &acc_cell;
            let big = &big;
            let small = &small;
            move || {
                let mut a = acc.borrow_mut();
                a.clear();
                a.extend_from_slice(big);
                intersect_sorted(&mut a, small);
                std::hint::black_box(a.len());
            }
        });
        kernels.push(k);
    }

    // --- planner: adaptive multi-attribute resolution on LORM ----------
    // Arity-4 range queries through the selectivity-ordered sequential
    // plan — the path the `--plan=adaptive` figures take per query.
    {
        let mut p_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x14);
        kernels.push(time_kernel("planner_adaptive_probe", "query", probe_q, || {
            let q = workload.random_query(4, QueryMix::Range, &mut p_rng);
            let origin = p_rng.gen_range(0..sim_cfg.nodes);
            std::hint::black_box(
                lorm.query_planned(origin, &q, QueryPlan::Adaptive)
                    .map(|o| o.tally.matches)
                    .unwrap_or(0),
            );
        }));
    }

    // --- bed construction: the phase the BedCache amortizes ------------
    // Each system's stabilized build is timed individually against the
    // standard bed workload, then the built systems are assembled into
    // the shared bed so the pipeline kernels below run against the very
    // beds whose construction was measured.
    let cache = BedCache::new();
    let (bed_workload, bed_seeds) = TestBed::workload_of(&sim_cfg);
    let mut systems = Vec::with_capacity(System::ALL.len());
    for s in System::ALL {
        let name = match s {
            System::Lorm => "build_bed_lorm",
            System::Mercury => "build_bed_mercury",
            System::Sword => "build_bed_sword",
            System::Maan => "build_bed_maan",
        };
        let mut slot = None;
        kernels.push(time_kernel(name, "build", 1, || {
            slot = Some(build_system(s, &bed_workload, &sim_cfg));
        }));
        systems.push(slot.expect("build kernel ran"));
    }
    let bed = TestBed { cfg: sim_cfg, workload: bed_workload, systems, seeds: bed_seeds };
    let clone_iters = if cfg.quick { 3 } else { 2 };
    kernels.push(time_kernel("bed_clone", "build", clone_iters, || {
        std::hint::black_box(bed.snapshot());
    }));
    let _shared = cache.prime(bed);

    // --- figure pipelines, end to end against the warm cache -----------
    // In quick mode the primed bed above *is* the pipelines' bed, so
    // these kernels measure the query phase the cache leaves behind; the
    // churn pipelines clone cached prototypes instead of rebuilding per
    // (rate, system) cell.
    let fig_cfg = ReproConfig { quick: true, json: None, perf: false, ..cfg.clone() };
    for (name, arts) in [
        ("fig4_quick", &[Artifact::Fig4][..]),
        ("fig5_quick", &[Artifact::Fig5][..]),
        ("fig6_quick", &[Artifact::Fig6a, Artifact::Fig6b][..]),
    ] {
        kernels.push(time_kernel(name, "query", 1, || {
            for &a in arts {
                std::hint::black_box(run_artifact_report(a, &fig_cfg, &cache).tables().len());
            }
        }));
    }
    let chaos_cfg = ReproConfig { chaos: true, ..fig_cfg.clone() };
    kernels.push(time_kernel("chaos_quick", "query", 1, || {
        let c = crate::chaos::run_chaos(&chaos_cfg, &cache);
        std::hint::black_box(c.systems.len());
    }));

    kernels
}

/// Re-run `probe_iters` iterations under the allocation counter and
/// record the mean count. No-op when no counter is installed.
fn measure_allocs(
    k: &mut PerfKernel,
    counter: Option<AllocCounter>,
    probe_iters: u64,
    mut f: impl FnMut(),
) {
    let Some(count) = counter else { return };
    let mut run = || {
        for _ in 0..probe_iters {
            f();
        }
    };
    let total = count(&mut run);
    k.allocs_per_iter = Some(total as f64 / probe_iters as f64);
}

/// Serialize a perf run against the stable `lorm-repro/perf-v2` schema:
/// v1 plus a per-kernel `phase` tag and a top-level `phase_totals` object
/// splitting the run's wall-clock into build vs query milliseconds.
pub fn render_perf_json(cfg: &ReproConfig, kernels: &[PerfKernel]) -> String {
    use sim::report::{json_num, json_str};
    let p = cfg.sim().params();
    let mut out = String::from("{\"schema\":\"lorm-repro/perf-v2\",\"config\":{");
    out.push_str(&format!(
        "\"quick\":{},\"seed\":{},\"shards\":{},\"n\":{},\"m\":{},\"k\":{},\"d\":{}}}",
        cfg.quick, cfg.seed, cfg.shards, p.n, p.m, p.k, p.d
    ));
    let total_ms = |phase: &str| -> f64 {
        kernels.iter().filter(|k| k.phase == phase).map(|k| k.elapsed_ms).sum()
    };
    out.push_str(&format!(
        ",\"phase_totals\":{{\"build_ms\":{},\"query_ms\":{}}}",
        json_num(total_ms("build")),
        json_num(total_ms("query"))
    ));
    out.push_str(",\"kernels\":[");
    for (i, k) in kernels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"phase\":{},\"iters\":{},\"elapsed_ms\":{},\"ops_per_sec\":{},\"allocs_per_iter\":{}}}",
            json_str(k.name),
            json_str(k.phase),
            k.iters,
            json_num(k.elapsed_ms),
            json_num(k.ops_per_sec),
            match k.allocs_per_iter {
                Some(a) => json_num(a),
                None => "null".into(),
            }
        ));
    }
    out.push_str("]}");
    out
}

/// Per-kernel slowdown factor above which a query-phase run counts as a
/// regression — the same threshold CI's perf-smoke gate applies. Sized
/// to the measured noise envelope of a loaded 1-CPU runner (sustained
/// slow windows inflate even a best-of-N floor by ~1.4x); the
/// regressions this gate exists to catch — losing the bed cache's
/// amortization, or an allocation sneaking back onto the routing fast
/// path — show up at 2x and beyond.
pub const REGRESSION_THRESHOLD: f64 = 1.5;

/// Slightly looser gate for build-phase kernels: bed construction is
/// allocation-bound and the `build_bed_*` kernels finish in single-digit
/// milliseconds, so their run-to-run variance is the widest in the
/// suite. 1.6x still catches any structural regression (the flattening
/// work this gate protects was worth 2x+). CI applies the same split
/// threshold.
pub const BUILD_REGRESSION_THRESHOLD: f64 = 1.6;

/// One kernel's comparison against a committed baseline.
#[derive(Debug, Clone)]
pub struct KernelDelta {
    /// Kernel name (present in both current run and baseline).
    pub name: String,
    /// Baseline elapsed milliseconds.
    pub base_ms: f64,
    /// Current elapsed milliseconds.
    pub current_ms: f64,
    /// `current / base` slowdown factor.
    pub ratio: f64,
    /// Whether the ratio exceeds [`REGRESSION_THRESHOLD`].
    pub regressed: bool,
}

/// Extract `(name, elapsed_ms)` pairs from a committed `BENCH_*.json`
/// perf export (v1 or v2 — both carry `"kernels":[{"name":…,
/// "elapsed_ms":…}]`). A hand-rolled scan, not a JSON parser: the files
/// are machine-written by [`render_perf_json`], so the two keys always
/// appear in order within each kernel object.
pub fn parse_baseline(json: &str) -> Result<Vec<(String, f64)>, String> {
    let kernels_at =
        json.find("\"kernels\":[").ok_or_else(|| "no \"kernels\" array".to_string())?;
    let mut rest = &json[kernels_at..];
    let mut out = Vec::new();
    while let Some(name_at) = rest.find("\"name\":\"") {
        rest = &rest[name_at + 8..];
        let name_end = rest.find('"').ok_or_else(|| "unterminated kernel name".to_string())?;
        let name = rest[..name_end].to_string();
        let ms_at = rest
            .find("\"elapsed_ms\":")
            .ok_or_else(|| format!("kernel {name} has no elapsed_ms"))?;
        rest = &rest[ms_at + 13..];
        let ms_end =
            rest.find([',', '}']).ok_or_else(|| format!("unterminated elapsed_ms for {name}"))?;
        let ms: f64 =
            rest[..ms_end].trim().parse().map_err(|e| format!("bad elapsed_ms for {name}: {e}"))?;
        out.push((name, ms));
    }
    if out.is_empty() {
        return Err("baseline lists no kernels".to_string());
    }
    Ok(out)
}

/// Compare the current run against a parsed baseline. Only kernels
/// present in both are compared — the same rule CI applies, so renamed
/// or newly added kernels never trip the gate.
pub fn diff_baseline(current: &[PerfKernel], baseline: &[(String, f64)]) -> Vec<KernelDelta> {
    let mut out = Vec::new();
    for k in current {
        let Some((_, base_ms)) = baseline.iter().find(|(n, _)| n == k.name) else { continue };
        let ratio = k.elapsed_ms / base_ms.max(1e-9);
        let threshold =
            if k.phase == "build" { BUILD_REGRESSION_THRESHOLD } else { REGRESSION_THRESHOLD };
        out.push(KernelDelta {
            name: k.name.to_string(),
            base_ms: *base_ms,
            current_ms: k.elapsed_ms,
            ratio,
            regressed: ratio > threshold,
        });
    }
    out
}

/// Render a baseline comparison as a markdown table.
pub fn render_delta_table(path: &std::path::Path, deltas: &[KernelDelta]) -> String {
    let mut out = format!("## Baseline comparison vs {}\n\n", path.display());
    out.push_str("| kernel | baseline (ms) | current (ms) | ratio | status |\n");
    out.push_str("|---|---|---|---|---|\n");
    for d in deltas {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.2}x | {} |\n",
            d.name,
            d.base_ms,
            d.current_ms,
            d.ratio,
            if d.regressed { "REGRESSED" } else { "ok" }
        ));
    }
    out
}

/// Render the perf run as a markdown table for terminal output.
pub fn render_perf_table(kernels: &[PerfKernel]) -> String {
    let mut out = String::from("## Performance kernels\n\n");
    out.push_str("| kernel | phase | iters | elapsed (ms) | ops/sec | allocs/iter |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for k in kernels {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1} | {:.0} | {} |\n",
            k.name,
            k.phase,
            k.iters,
            k.elapsed_ms,
            k.ops_per_sec,
            match k.allocs_per_iter {
                Some(a) => format!("{a:.2}"),
                None => "-".into(),
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ReproConfig {
        ReproConfig { quick: true, seed: 7, ..ReproConfig::default() }
    }

    fn sample_kernels() -> Vec<PerfKernel> {
        vec![
            PerfKernel {
                name: "chord_route_stats",
                phase: "query",
                iters: 100,
                elapsed_ms: 2.5,
                ops_per_sec: 40_000.0,
                allocs_per_iter: Some(0.0),
            },
            PerfKernel {
                name: "build_bed_lorm",
                phase: "build",
                iters: 1,
                elapsed_ms: 40.0,
                ops_per_sec: 25.0,
                allocs_per_iter: None,
            },
            PerfKernel {
                name: "fig4_quick",
                phase: "query",
                iters: 1,
                elapsed_ms: 150.0,
                ops_per_sec: 6.7,
                allocs_per_iter: None,
            },
        ]
    }

    #[test]
    fn perf_json_has_schema_config_and_kernels() {
        let cfg = tiny_cfg();
        let j = render_perf_json(&cfg, &sample_kernels());
        assert!(j.starts_with("{\"schema\":\"lorm-repro/perf-v2\",\"config\":{"), "{j}");
        assert!(j.contains("\"quick\":true"));
        assert!(j.contains("\"phase_totals\":{\"build_ms\":40,\"query_ms\":152.5}"), "{j}");
        assert!(j.contains("\"name\":\"chord_route_stats\",\"phase\":\"query\",\"iters\":100"));
        assert!(j.contains("\"name\":\"build_bed_lorm\",\"phase\":\"build\""));
        assert!(j.contains("\"allocs_per_iter\":0"));
        assert!(j.contains("\"allocs_per_iter\":null"));
        assert!(j.ends_with("]}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn perf_table_lists_every_kernel() {
        let kernels = vec![PerfKernel {
            name: "cycloid_route_stats",
            phase: "query",
            iters: 10,
            elapsed_ms: 1.0,
            ops_per_sec: 10_000.0,
            allocs_per_iter: None,
        }];
        let t = render_perf_table(&kernels);
        assert!(t.contains("cycloid_route_stats"));
        assert!(t.contains("| query |"), "phase column present: {t}");
        assert!(t.contains("| - |"), "unmeasured allocs render as a dash: {t}");
    }

    #[test]
    fn route_kernels_time_and_report() {
        // A minimal end-to-end run of the routing kernels only would still
        // build full networks; instead exercise the helper directly.
        let k = time_kernel("probe", "query", 50, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(k.iters, 50);
        assert!(k.elapsed_ms >= 0.0);
        assert!(k.ops_per_sec > 0.0);
        assert!(k.allocs_per_iter.is_none());
    }

    #[test]
    fn baseline_roundtrips_through_render_and_parse() {
        let cfg = tiny_cfg();
        let kernels = sample_kernels();
        let j = render_perf_json(&cfg, &kernels);
        let base = parse_baseline(&j).expect("rendered JSON parses as baseline");
        assert_eq!(base.len(), kernels.len());
        for (k, (name, ms)) in kernels.iter().zip(&base) {
            assert_eq!(k.name, name);
            assert!((k.elapsed_ms - ms).abs() < 1e-9, "{name}: {ms}");
        }
    }

    #[test]
    fn baseline_parse_rejects_garbage() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"kernels\":[]}").is_err());
        assert!(parse_baseline("{\"kernels\":[{\"name\":\"x\"}]}").is_err());
    }

    #[test]
    fn diff_flags_only_kernels_past_threshold() {
        let kernels = sample_kernels();
        // fig4_quick regresses 2x; chord_route_stats improves; the bed
        // kernel sits at 1.54x — past the query gate but inside the
        // looser build gate; the retired kernel is absent from the
        // baseline and must be skipped.
        let base = vec![
            ("chord_route_stats".to_string(), 5.0),
            ("build_bed_lorm".to_string(), 26.0),
            ("fig4_quick".to_string(), 75.0),
            ("retired_kernel".to_string(), 1.0),
        ];
        let deltas = diff_baseline(&kernels, &base);
        assert_eq!(deltas.len(), 3, "only kernels present in both are compared");
        let fig4 = deltas.iter().find(|d| d.name == "fig4_quick").unwrap();
        assert!(fig4.regressed, "2x slowdown trips the {REGRESSION_THRESHOLD}x gate");
        let bed = deltas.iter().find(|d| d.name == "build_bed_lorm").unwrap();
        assert!(bed.ratio > REGRESSION_THRESHOLD && bed.ratio < BUILD_REGRESSION_THRESHOLD);
        assert!(!bed.regressed, "build kernels gate at {BUILD_REGRESSION_THRESHOLD}x, not 1.25x");
        let route = deltas.iter().find(|d| d.name == "chord_route_stats").unwrap();
        assert!(!route.regressed);
        assert!(route.ratio < 1.0);
        let t = render_delta_table(std::path::Path::new("BENCH.json"), &deltas);
        assert!(t.contains("REGRESSED"), "{t}");
        assert!(t.contains("| ok |"), "{t}");
    }
}
