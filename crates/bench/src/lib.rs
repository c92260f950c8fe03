//! # bench — the figure-regeneration harness
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation section and prints them as markdown tables (the same rows /
//! series the paper plots). The Criterion benches under `benches/`
//! measure the cost of the underlying kernels (routing, placement, query
//! batches, churn) per system.
//!
//! ```text
//! repro [--quick] [fig3a fig3 fig4 fig5 fig6a fig6b t410 ablations | all]
//! repro [--quick] perf    # wall-clock kernel baseline (perf-v1 schema)
//! repro [--quick] chaos   # fault-injection sweep (chaos-v1 schema)
//! repro [--quick] scale   # 1k -> 1M scaling sweep (perf-v2 schema)
//! ```
//!
//! `--quick` scales the experiment down (fewer nodes/attributes/queries)
//! for smoke runs; the default is the paper's full §V configuration
//! (n = 2048, m = 200, k = 500, d = 8).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod durability;
pub mod perf;
pub mod scale;

use grid_resource::QueryPlan;
use sim::experiments::{ablation, fig3, fig4, fig5, fig6, worstcase};
use sim::{BedCache, Report, SimConfig};
use std::path::PathBuf;

/// Which artifacts to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Artifact {
    /// Figure 3(a): outlinks vs network size.
    Fig3a,
    /// Figures 3(b–d): directory-size distributions.
    Fig3Dirs,
    /// Figures 4(a,b): non-range query hops.
    Fig4,
    /// Figures 5(a,b): range-query visited nodes.
    Fig5,
    /// Figure 6(a): hops under churn.
    Fig6a,
    /// Figure 6(b): visited nodes under churn.
    Fig6b,
    /// Theorem 4.10 worst case.
    T410,
    /// Routed registration cost (information-maintenance overhead).
    Maintenance,
    /// Query-processing load balance (Theorem 4.6's bottleneck claim).
    LoadBalance,
    /// Directory-size distributions swept over network sizes.
    Fig3Sweep,
    /// Churn with *abrupt* failures instead of graceful departures
    /// (extension beyond the paper's §V.C).
    ChurnFail,
    /// Hop-count distributions behind Figure 4's averages (extension).
    HopDist,
    /// Wall-clock latency replay through a per-hop delay model (extension).
    Latency,
    /// The ten theorems' closed forms at the configured parameters.
    Theorems,
    /// The ablation studies.
    Ablations,
}

impl Artifact {
    /// Every artifact, in presentation order.
    pub const ALL: [Artifact; 15] = [
        Artifact::Theorems,
        Artifact::Fig3a,
        Artifact::Fig3Dirs,
        Artifact::Fig3Sweep,
        Artifact::Fig4,
        Artifact::Fig5,
        Artifact::Fig6a,
        Artifact::Fig6b,
        Artifact::ChurnFail,
        Artifact::HopDist,
        Artifact::Latency,
        Artifact::T410,
        Artifact::Maintenance,
        Artifact::LoadBalance,
        Artifact::Ablations,
    ];

    /// Stable machine-readable name, used as the CLI target and as the
    /// `name` field of the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Theorems => "theorems",
            Artifact::Fig3a => "fig3a",
            Artifact::Fig3Dirs => "fig3dirs",
            Artifact::Fig3Sweep => "fig3sweep",
            Artifact::Fig4 => "fig4",
            Artifact::Fig5 => "fig5",
            Artifact::Fig6a => "fig6a",
            Artifact::Fig6b => "fig6b",
            Artifact::ChurnFail => "churnfail",
            Artifact::HopDist => "hopdist",
            Artifact::Latency => "latency",
            Artifact::T410 => "t410",
            Artifact::Maintenance => "maintenance",
            Artifact::LoadBalance => "loadbalance",
            Artifact::Ablations => "ablations",
        }
    }

    /// Parse a command-line target name.
    pub fn parse(s: &str) -> Option<Vec<Artifact>> {
        Some(match s {
            "fig3a" => vec![Artifact::Fig3a],
            "fig3" => vec![Artifact::Fig3a, Artifact::Fig3Dirs],
            "fig3bcd" | "fig3dirs" => vec![Artifact::Fig3Dirs],
            "fig4" => vec![Artifact::Fig4],
            "fig5" => vec![Artifact::Fig5],
            "fig6" => vec![Artifact::Fig6a, Artifact::Fig6b],
            "fig6a" => vec![Artifact::Fig6a],
            "fig6b" => vec![Artifact::Fig6b],
            "t410" => vec![Artifact::T410],
            "maintenance" => vec![Artifact::Maintenance],
            "churnfail" => vec![Artifact::ChurnFail],
            "hopdist" => vec![Artifact::HopDist],
            "latency" => vec![Artifact::Latency],
            "theorems" => vec![Artifact::Theorems],
            "loadbalance" => vec![Artifact::LoadBalance],
            "fig3sweep" => vec![Artifact::Fig3Sweep],
            "ablations" => vec![Artifact::Ablations],
            "all" => Artifact::ALL.to_vec(),
            _ => return None,
        })
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Scale the experiments down for a smoke run.
    pub quick: bool,
    /// Root seed.
    pub seed: u64,
    /// Worker threads per query batch (0 = one per core). The one shard
    /// source of every pipeline: `repro` passes it by value to the
    /// figures, chaos, durability and the perf kernels.
    pub shards: usize,
    /// Write the machine-readable metrics export here.
    pub json: Option<PathBuf>,
    /// Run the wall-clock perf kernels instead of the figures.
    pub perf: bool,
    /// Run the fault-injection chaos sweep instead of the figures.
    pub chaos: bool,
    /// Run the 1k → 1M scaling sweep instead of the figures.
    pub scale: bool,
    /// Run the replication/durability churn sweep instead of the figures.
    pub durability: bool,
    /// Perf and scale modes: diff the run against this committed BENCH
    /// file and exit non-zero on a per-kernel wall-clock regression.
    pub baseline: Option<PathBuf>,
    /// Multi-attribute query plan for the query-driven figures (fig4,
    /// fig5): parallel (the paper's §III semantics, the default),
    /// sequential, or adaptive selective-first.
    pub plan: QueryPlan,
}

impl Default for ReproConfig {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 0x1C99,
            shards: 0,
            json: None,
            perf: false,
            chaos: false,
            scale: false,
            durability: false,
            baseline: None,
            plan: QueryPlan::Parallel,
        }
    }
}

impl ReproConfig {
    fn sim(&self) -> SimConfig {
        let base = if self.quick { SimConfig::quick() } else { SimConfig::default() };
        SimConfig { seed: self.seed, ..base }
    }

    fn fig3a_dims(&self) -> Vec<u8> {
        if self.quick {
            vec![5, 6, 7]
        } else {
            vec![5, 6, 7, 8, 9, 10, 11]
        }
    }

    fn queries(&self) -> usize {
        if self.quick {
            100
        } else {
            1000
        }
    }

    fn churn_setup(&self) -> fig6::ChurnSetup {
        if self.quick {
            fig6::ChurnSetup::quick()
        } else {
            fig6::ChurnSetup::default()
        }
    }
}

/// Run one artifact and build its structured report against a
/// caller-owned [`BedCache`]: every artifact that mounts the standard
/// test bed shares one `Arc` build per distinct configuration, and the
/// churn sweeps clone cached prototypes instead of rebuilding per (rate,
/// system) cell. Query batches run on `cfg.shards` workers.
pub fn run_artifact_report(a: Artifact, cfg: &ReproConfig, cache: &BedCache) -> Report {
    let sim_cfg = cfg.sim();
    match a {
        Artifact::Fig3a => fig3::fig3a(&cfg.fig3a_dims(), sim_cfg.attrs, cfg.seed).report(),
        Artifact::Fig3Dirs => {
            let bed = cache.bed(sim_cfg);
            fig3::fig3_directories(&bed).report()
        }
        Artifact::Fig4 => {
            let bed = cache.bed(sim_cfg);
            // paper: 100 nodes × 10 queries each
            let (origins, per) = if cfg.quick { (20, 5) } else { (100, 10) };
            fig4::fig4(&bed, 1..=10, origins, per, cfg.plan, cfg.shards).report()
        }
        Artifact::Fig5 => {
            let bed = cache.bed(sim_cfg);
            fig5::fig5(&bed, 1..=10, cfg.queries(), cfg.plan, cfg.shards).report()
        }
        Artifact::Fig6a => {
            fig6::fig6(&sim_cfg, &cfg.churn_setup(), sim::experiments::Metric::Hops, cache).report()
        }
        Artifact::Fig6b => {
            fig6::fig6(&sim_cfg, &cfg.churn_setup(), sim::experiments::Metric::Visited, cache)
                .report()
        }
        Artifact::T410 => {
            let bed = cache.bed(sim_cfg);
            let queries = if cfg.quick { 5 } else { 20 };
            worstcase::worstcase(&bed, 1, queries).report()
        }
        Artifact::ChurnFail => {
            // range queries return many matches, so lost directory entries
            // are actually observable as stale answers
            let setup = fig6::ChurnSetup { graceful: false, ..cfg.churn_setup() };
            let mut rep =
                fig6::fig6(&sim_cfg, &setup, sim::experiments::Metric::Visited, cache).report();
            rep.note(
                "(extension: departures are abrupt failures; stale links and lost \
                 directory entries persist until the next maintenance round)",
            );
            rep
        }
        Artifact::HopDist => {
            let bed = cache.bed(sim_cfg);
            let queries = if cfg.quick { 400 } else { 3000 };
            sim::experiments::hopdist::hop_distribution(&bed, queries).report()
        }
        Artifact::Theorems => theorem_report(&sim_cfg.params()),
        Artifact::Latency => {
            let bed = cache.bed(sim_cfg);
            let queries = if cfg.quick { 60 } else { 300 };
            sim::experiments::latency::latency(&bed, queries, 3, dht_core::LatencyModel::wan())
                .report()
        }
        Artifact::Maintenance => {
            sim::experiments::maintenance::registration_cost(&sim_cfg).report()
        }
        Artifact::LoadBalance => {
            let bed = cache.bed(sim_cfg);
            let queries = cfg.queries();
            sim::experiments::maintenance::query_load_balance(&bed, queries, 3).report()
        }
        Artifact::Fig3Sweep => {
            let dims: &[u8] = if cfg.quick { &[5, 6] } else { &[6, 7, 8, 9] };
            let rows = fig3::fig3_directory_sweep(dims, &sim_cfg);
            fig3::sweep_report(&rows, &sim_cfg)
        }
        Artifact::Ablations => {
            let queries = cfg.queries();
            let mut rep = Report::new();
            rep.append(ablation::ablate_placement(&sim_cfg, queries).report());
            rep.append(ablation::ablate_value_skew(&sim_cfg).report());
            let (n, lk) = if cfg.quick { (300, 300) } else { (2048, 2000) };
            rep.append(ablation::ablate_succ_list(n, 0.15, lk, cfg.seed).report());
            let pop_queries = if cfg.quick { 150 } else { 600 };
            rep.append(ablation::ablate_attr_popularity(&sim_cfg, pop_queries).report());
            rep.append(ablation::ablate_query_plan(&sim_cfg, queries, 4).report());
            rep.append(ablation::ablate_flat_lorm(&sim_cfg, queries).report());
            let dims: &[u8] = if cfg.quick { &[5, 6, 7] } else { &[5, 6, 7, 8, 9, 10] };
            rep.append(ablation::ablate_dimension(dims, lk, cfg.seed).report());
            rep
        }
    }
}

/// The ten theorems' closed forms at the given parameters — the paper's
/// §IV as one structured report.
pub fn theorem_report(p: &analysis::Params) -> Report {
    use analysis as th;
    use analysis::System;
    use sim::Table;
    let mut t = Table::new(
        format!(
            "Theorems 4.1-4.10 at n = {}, m = {}, k = {}, d = {} (log2 n = {:.0})",
            p.n,
            p.m,
            p.k,
            p.d,
            p.log2_n()
        ),
        &["theorem", "claim", "value"],
    );
    let mut row = |a: &str, b: &str, v: f64| {
        t.row(vec![a.to_string(), b.to_string(), Table::fmt_f(v)]);
    };
    row("4.1", "LORM structure overhead >= m x below multi-DHT", th::t41_structure_factor(p));
    row("4.2", "MAAN total information multiplier", th::t42_maan_total_factor());
    row("4.3", "MAAN/LORM directory percentiles: d(1 + m/n)", th::t43_maan_over_lorm(p));
    row("4.4", "SWORD/LORM directory percentiles: d", th::t44_sword_over_lorm(p));
    row("4.5", "Mercury/LORM balance: n/(d m)", th::t45_mercury_balance_factor(p));
    row("4.7", "MAAN/LORM non-range hops: log2(n)/d", th::t47_maan_over_lorm_hops(p));
    row("4.8", "MAAN/(Mercury,SWORD) non-range hops", th::t48_maan_over_single_lookup());
    for s in System::ALL {
        row("4.9", &format!("avg range visited/attr, {}", s.name()), th::range_visited(p, 1, s));
    }
    for s in System::ALL {
        row(
            "4.10",
            &format!("worst-case contacted/attr, {}", s.name()),
            th::worstcase_range_contacted(p, 1, s),
        );
    }
    row("4.10", "guaranteed LORM saving (>= n per attr)", th::t410_min_saving(p, 1));
    let mut rep = Report::new();
    rep.table(t);
    rep.note("(4.6 is the qualitative balance ordering implied by 4.3-4.5)");
    rep
}

/// Render the theorem report as text.
pub fn theorem_table(p: &analysis::Params) -> String {
    theorem_report(p).to_string()
}

/// Parse CLI arguments into a run plan. Returns `Err` with a usage string
/// on bad input.
pub fn parse_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(ReproConfig, Vec<Artifact>), String> {
    const USAGE: &str = "usage: repro [--quick] [--seed=N] [--shards=N] \
                         [--json <path>] [--baseline <BENCH.json>] \
                         [--plan=parallel|sequential|adaptive] \
                         [perf | chaos | scale | durability | theorems fig3a \
                          fig3bcd fig3sweep fig4 fig5 fig6a fig6b t410 \
                          maintenance churnfail hopdist latency loadbalance \
                          ablations | all]";
    let mut cfg = ReproConfig::default();
    let mut artifacts: Vec<Artifact> = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" | "-q" => cfg.quick = true,
            "--json" => {
                let path = args.next().ok_or(format!("--json needs a path\n{USAGE}"))?;
                cfg.json = Some(PathBuf::from(path));
            }
            s if s.starts_with("--json=") => {
                cfg.json = Some(PathBuf::from(&s["--json=".len()..]));
            }
            "--baseline" => {
                let path = args.next().ok_or(format!("--baseline needs a path\n{USAGE}"))?;
                cfg.baseline = Some(PathBuf::from(path));
            }
            s if s.starts_with("--baseline=") => {
                cfg.baseline = Some(PathBuf::from(&s["--baseline=".len()..]));
            }
            s if s.starts_with("--seed=") => {
                cfg.seed =
                    s["--seed=".len()..].parse().map_err(|_| format!("bad seed in {s:?}"))?;
            }
            s if s.starts_with("--shards=") => {
                cfg.shards = s["--shards=".len()..]
                    .parse()
                    .map_err(|_| format!("bad shard count in {s:?}"))?;
            }
            s if s.starts_with("--plan=") => {
                cfg.plan = QueryPlan::parse(&s["--plan=".len()..])
                    .ok_or(format!("bad plan in {s:?} (parallel|sequential|adaptive)\n{USAGE}"))?;
            }
            "perf" => cfg.perf = true,
            "chaos" => cfg.chaos = true,
            "scale" => cfg.scale = true,
            "durability" => cfg.durability = true,
            s => match Artifact::parse(s) {
                Some(mut v) => artifacts.append(&mut v),
                None => return Err(format!("unknown target {s:?}\n{USAGE}")),
            },
        }
    }
    if artifacts.is_empty() {
        artifacts = Artifact::ALL.to_vec();
    }
    // Keep each artifact's first occurrence: `repro all fig4` runs fig4 once.
    let mut unique = Vec::with_capacity(artifacts.len());
    for a in artifacts {
        if !unique.contains(&a) {
            unique.push(a);
        }
    }
    Ok((cfg, unique))
}

/// One completed artifact run, ready for the JSON export.
#[derive(Debug, Clone)]
pub struct ArtifactRun {
    /// The artifact regenerated.
    pub artifact: Artifact,
    /// Its structured report.
    pub report: Report,
    /// Wall-clock milliseconds the run took.
    pub elapsed_ms: f64,
}

/// Serialize a full repro run against the stable `lorm-repro/bench-v1`
/// schema (documented in README.md): config, then one object per
/// artifact with its tables, full-precision summaries, and notes.
pub fn render_json(cfg: &ReproConfig, runs: &[ArtifactRun]) -> String {
    use sim::report::{json_num, json_str};
    let sim_cfg = cfg.sim();
    let p = sim_cfg.params();
    let mut out = String::from("{\"schema\":\"lorm-repro/bench-v1\",\"config\":{");
    out.push_str(&format!(
        "\"quick\":{},\"seed\":{},\"shards\":{},\"n\":{},\"m\":{},\"k\":{},\"d\":{},\"plan\":{}}}",
        cfg.quick,
        cfg.seed,
        cfg.shards,
        p.n,
        p.m,
        p.k,
        p.d,
        json_str(cfg.plan.name())
    ));
    out.push_str(",\"artifacts\":[");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"elapsed_ms\":{},",
            json_str(r.artifact.name()),
            json_num(r.elapsed_ms)
        ));
        // splice the report object's fields into this artifact object
        let body = r.report.to_json();
        out.push_str(&body[1..]);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_to_all() {
        let (cfg, arts) = parse_args(Vec::<String>::new()).unwrap();
        assert!(!cfg.quick);
        assert_eq!(arts.len(), Artifact::ALL.len());
    }

    #[test]
    fn parse_quick_and_targets() {
        let (cfg, arts) = parse_args(["--quick".into(), "fig4".into(), "t410".into()]).unwrap();
        assert!(cfg.quick);
        assert_eq!(arts, vec![Artifact::Fig4, Artifact::T410]);
        // A target named twice runs (and exports) once, at its first
        // position, whether or not the repeats are adjacent.
        let args = ["--quick", "theorems", "fig3a", "theorems", "--json", "d.json"];
        let (_, arts) = parse_args(args.map(String::from)).unwrap();
        assert_eq!(arts, vec![Artifact::Theorems, Artifact::Fig3a]);
        let (_, arts) = parse_args(["all".into(), "fig4".into()]).unwrap();
        assert_eq!(arts, Artifact::ALL.to_vec());
    }

    #[test]
    fn parse_seed() {
        let (cfg, _) = parse_args(["--seed=42".into()]).unwrap();
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse_args(["fig9".into()]).is_err());
        assert!(parse_args(["--seed=x".into()]).is_err());
    }

    #[test]
    fn fig3_group_expands() {
        let (_, arts) = parse_args(["fig3".into()]).unwrap();
        assert_eq!(arts, vec![Artifact::Fig3a, Artifact::Fig3Dirs]);
    }

    #[test]
    fn quick_fig3a_renders_table() {
        let cfg = ReproConfig { quick: true, seed: 7, ..ReproConfig::default() };
        // trim the sweep further for the unit test
        let out = fig3::fig3a(&[5], 8, 7).to_string();
        assert!(out.contains("Figure 3(a)"));
        assert!(out.contains("Mercury"));
        let _ = cfg;
    }

    #[test]
    fn quick_t410_renders_table() {
        let cfg = ReproConfig { quick: true, seed: 7, ..ReproConfig::default() };
        let out = run_artifact_report(Artifact::T410, &cfg, &BedCache::new()).to_string();
        assert!(out.contains("Theorem 4.10"), "got: {out}");
        assert!(out.contains("LORM"));
    }

    #[test]
    fn every_artifact_runs_end_to_end_in_quick_mode() {
        // The full-scale run is recorded in EXPERIMENTS.md; this guards
        // that every artifact stays runnable. Quick mode, tiny batches.
        let cfg = ReproConfig { quick: true, seed: 3, ..ReproConfig::default() };
        let cache = BedCache::new();
        for a in Artifact::ALL {
            let rep = run_artifact_report(a, &cfg, &cache);
            let out = rep.to_string();
            assert!(out.contains('|'), "{a:?} produced no table:\n{out}");
            assert!(out.contains("##"), "{a:?} produced no title");
            assert!(!rep.tables().is_empty(), "{a:?} report has no tables");
            let j = rep.to_json();
            assert!(j.starts_with("{\"tables\":["), "{a:?} bad json head: {j}");
        }
    }

    #[test]
    fn theorem_table_shows_papers_headline_numbers() {
        let out = theorem_table(&analysis::Params::paper());
        // §V.A quotes 8.78 (T4.3) and 1.28 (T4.5); §V.B quotes 513/514/3/1.
        assert!(out.contains("8.78"), "{out}");
        assert!(out.contains("1.28"));
        assert!(out.contains("513.0"));
        assert!(out.contains("514.0"));
        assert!(out.contains("Theorems 4.1-4.10 at n = 2048"));
    }

    #[test]
    fn fig6_group_expands_to_both_metrics() {
        let (_, arts) = parse_args(["fig6".into()]).unwrap();
        assert_eq!(arts, vec![Artifact::Fig6a, Artifact::Fig6b]);
        let (_, all) = parse_args(["all".into()]).unwrap();
        assert_eq!(all.len(), Artifact::ALL.len());
    }

    #[test]
    fn parse_json_flag_both_forms() {
        // space-separated form
        let (cfg, arts) =
            parse_args(["--quick".into(), "fig4".into(), "--json".into(), "out.json".into()])
                .unwrap();
        assert_eq!(cfg.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(arts, vec![Artifact::Fig4]);
        // = form
        let (cfg, _) = parse_args(["--json=metrics.json".into()]).unwrap();
        assert_eq!(cfg.json.as_deref(), Some(std::path::Path::new("metrics.json")));
        // missing path is an error
        assert!(parse_args(["--json".into()]).is_err());
    }

    #[test]
    fn parse_perf_target() {
        let (cfg, _) = parse_args(["--quick".into(), "perf".into()]).unwrap();
        assert!(cfg.perf);
        assert!(cfg.quick);
        let (cfg, _) = parse_args(["fig4".into()]).unwrap();
        assert!(!cfg.perf);
    }

    #[test]
    fn parse_chaos_target() {
        let (cfg, _) = parse_args(["--quick".into(), "chaos".into()]).unwrap();
        assert!(cfg.chaos);
        assert!(!cfg.perf);
        let (cfg, _) = parse_args(["fig4".into()]).unwrap();
        assert!(!cfg.chaos);
    }

    #[test]
    fn parse_scale_target() {
        let (cfg, _) = parse_args(["--quick".into(), "scale".into()]).unwrap();
        assert!(cfg.scale);
        assert!(!cfg.perf && !cfg.chaos);
        let (cfg, _) = parse_args(["fig4".into()]).unwrap();
        assert!(!cfg.scale);
    }

    #[test]
    fn parse_durability_target() {
        let (cfg, _) = parse_args(["--quick".into(), "durability".into()]).unwrap();
        assert!(cfg.durability);
        assert!(!cfg.perf && !cfg.chaos && !cfg.scale);
        let (cfg, _) = parse_args(["fig4".into()]).unwrap();
        assert!(!cfg.durability);
    }

    #[test]
    fn parse_plan_flag() {
        let (cfg, _) = parse_args(Vec::<String>::new()).unwrap();
        assert_eq!(cfg.plan, QueryPlan::Parallel, "default is the paper's plan");
        for (s, plan) in [
            ("parallel", QueryPlan::Parallel),
            ("sequential", QueryPlan::Sequential),
            ("adaptive", QueryPlan::Adaptive),
        ] {
            let (cfg, _) = parse_args([format!("--plan={s}")]).unwrap();
            assert_eq!(cfg.plan, plan);
        }
        assert!(parse_args(["--plan=greedy".into()]).is_err());
    }

    #[test]
    fn planned_fig5_runs_and_ships_less_under_adaptive() {
        let cfg = ReproConfig {
            quick: true,
            seed: 3,
            plan: QueryPlan::Adaptive,
            ..ReproConfig::default()
        };
        let cache = BedCache::new();
        let adaptive = run_artifact_report(Artifact::Fig5, &cfg, &cache);
        let parallel = run_artifact_report(
            Artifact::Fig5,
            &ReproConfig { plan: QueryPlan::Parallel, ..cfg.clone() },
            &cache,
        );
        // adaptive short-circuits, so total visited nodes can only shrink
        let visited = |rep: &Report| rep.summaries().iter().map(|(_, s)| s.total()).sum::<f64>();
        assert!(visited(&adaptive) <= visited(&parallel) + 1e-9);
    }

    #[test]
    fn parse_shards_flag() {
        let (cfg, _) = parse_args(["--shards=4".into()]).unwrap();
        assert_eq!(cfg.shards, 4);
        assert!(parse_args(["--shards=x".into()]).is_err());
        let (cfg, _) = parse_args(Vec::<String>::new()).unwrap();
        assert_eq!(cfg.shards, 0, "default auto-detects");
    }

    #[test]
    fn artifact_names_are_stable_and_parseable() {
        for a in Artifact::ALL {
            assert_eq!(Artifact::parse(a.name()), Some(vec![a]), "{a:?}");
        }
    }

    #[test]
    fn render_json_emits_schema_config_and_artifacts() {
        let cfg = ReproConfig { quick: true, seed: 3, ..ReproConfig::default() };
        let runs = vec![
            ArtifactRun {
                artifact: Artifact::Theorems,
                report: theorem_report(&cfg.sim().params()),
                elapsed_ms: 1.5,
            },
            ArtifactRun {
                artifact: Artifact::T410,
                report: run_artifact_report(Artifact::T410, &cfg, &BedCache::new()),
                elapsed_ms: 20.0,
            },
        ];
        let j = render_json(&cfg, &runs);
        assert!(j.starts_with("{\"schema\":\"lorm-repro/bench-v1\",\"config\":{"), "{j}");
        assert!(j.contains("\"quick\":true"));
        assert!(j.contains("\"seed\":3"));
        assert!(j.contains("\"plan\":\"parallel\""));
        assert!(j.contains("\"name\":\"theorems\",\"elapsed_ms\":1.5,\"tables\":["));
        assert!(j.contains("\"name\":\"t410\""));
        // the t410 report carries per-system summaries with failure counts
        assert!(j.contains("\"label\":\"LORM\""), "{j}");
        assert!(j.contains("\"failures\":0"));
        // balanced braces/brackets (outside strings there are no quotes to
        // confuse this rough check: table cells never contain braces)
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes, "unbalanced JSON object braces");
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.ends_with("]}"));
    }
}
