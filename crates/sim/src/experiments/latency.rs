//! Wall-clock latency — replaying logical traces through a network model.
//!
//! The paper's metrics are logical (hops, probes). This extension assigns
//! every overlay hop a sampled delay ([`dht_core::LatencyModel`]) and
//! replays the query traces:
//!
//! * a sub-query's latency = lookup path + range-walk forwards + one
//!   response hop;
//! * a multi-attribute query resolved **in parallel** (§III) completes at
//!   the *max* of its sub-query latencies;
//! * resolved **sequentially** (`grid_resource::QueryPlan::Sequential`) it pays the
//!   *sum* — the latency side of the transfer-vs-latency trade the
//!   query-planning ablation measures.

use crate::experiments::query_batch;
use crate::report::Report;
use crate::setup::TestBed;
use crate::table::Table;
use analysis::System;
use dht_core::{LatencyModel, Percentiles, Summary};
use grid_resource::{Query, QueryMix};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// Per-system query-latency statistics, milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// System name (or plan label for the LORM plan comparison).
    pub label: String,
    /// Mean query latency.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
}

/// The latency experiment result.
#[derive(Debug, Clone)]
pub struct Latency {
    /// One row per system (parallel resolution, the paper's model).
    pub systems: Vec<LatencyRow>,
    /// Per-system latency summaries (`System::ALL` order) — full
    /// precision, including the count of sub-queries that errored.
    pub summaries: Vec<(&'static str, Summary)>,
    /// LORM under both query plans.
    pub lorm_plans: Vec<LatencyRow>,
    /// The hop-delay model used.
    pub model: LatencyModel,
    /// Queries per series.
    pub queries: usize,
    /// Attributes per query.
    pub arity: usize,
}

fn stats(label: impl Into<String>, samples: Vec<f64>) -> LatencyRow {
    let mean =
        if samples.is_empty() { 0.0 } else { samples.iter().sum::<f64>() / samples.len() as f64 };
    let p = Percentiles::from_samples(samples);
    LatencyRow {
        label: label.into(),
        mean_ms: mean,
        p50_ms: p.median(),
        p95_ms: p.percentile(95.0),
    }
}

/// Replay `queries` range queries of the given arity through the model.
pub fn latency(bed: &TestBed, queries: usize, arity: usize, model: LatencyModel) -> Latency {
    let batch = query_batch(
        &bed.workload,
        bed.cfg.nodes,
        queries,
        1,
        arity,
        QueryMix::Range,
        bed.cfg.seed ^ 0x1A7E,
    );
    let mut rng = SmallRng::seed_from_u64(bed.cfg.seed ^ 0x1A7F);

    // Per-sub-query costs: issue each sub alone, then combine per plan.
    let mut per_system: Vec<(String, Vec<f64>)> =
        System::ALL.iter().map(|s| (s.name().to_string(), Vec::new())).collect();
    let mut summaries: Vec<(&'static str, Summary)> =
        System::ALL.map(|s| (s.name(), Summary::new())).to_vec();
    let mut lorm_parallel: Vec<f64> = Vec::new();
    let mut lorm_sequential: Vec<f64> = Vec::new();

    for (phys, q) in &batch {
        let mut lorm_subs: Vec<f64> = Vec::new();
        for (si, s) in System::ALL.iter().enumerate() {
            let sys = bed.system(*s);
            let mut sub_latencies = Vec::with_capacity(q.subs.len());
            for sub in &q.subs {
                let single = Query { subs: vec![*sub] };
                match sys.query_from(*phys, &single) {
                    Ok(out) => {
                        // lookup hops + walk forwards + one response hop
                        let hops = out.tally.hops + out.tally.visited.saturating_sub(1) + 1;
                        sub_latencies.push(model.sample_path(hops, &mut rng));
                    }
                    Err(_) => summaries[si].1.record_failure(),
                }
            }
            let parallel = sub_latencies.iter().copied().fold(0.0f64, f64::max);
            per_system[si].1.push(parallel);
            summaries[si].1.record(parallel);
            if *s == System::Lorm {
                lorm_subs = sub_latencies;
            }
        }
        lorm_parallel.push(lorm_subs.iter().copied().fold(0.0f64, f64::max));
        lorm_sequential.push(lorm_subs.iter().sum());
    }

    Latency {
        systems: per_system.into_iter().map(|(l, v)| stats(l, v)).collect(),
        summaries,
        lorm_plans: vec![
            stats("LORM parallel (max of subs)", lorm_parallel),
            stats("LORM sequential (sum of subs)", lorm_sequential),
        ],
        model,
        queries: batch.len(),
        arity,
    }
}

impl Latency {
    /// Build the structured report.
    pub fn report(&self) -> Report {
        let mut t = Table::new(
            format!(
                "Extension: query latency, {}-attribute range queries ({} queries, {:?})",
                self.arity, self.queries, self.model
            ),
            &["series", "mean ms", "p50 ms", "p95 ms"],
        );
        for r in self.systems.iter().chain(self.lorm_plans.iter()) {
            t.row(vec![
                r.label.clone(),
                Table::fmt_f(r.mean_ms),
                Table::fmt_f(r.p50_ms),
                Table::fmt_f(r.p95_ms),
            ]);
        }
        let mut rep = Report::new();
        rep.table(t);
        for (name, s) in &self.summaries {
            rep.summary(*name, s.clone());
        }
        rep
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SimConfig;

    #[test]
    fn latency_ordering_follows_probe_counts() {
        let cfg =
            SimConfig { nodes: 896, dimension: 7, attrs: 20, values: 50, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let lat = latency(&bed, 60, 3, LatencyModel::Constant { ms: 10.0 });
        let get = |n: &str| lat.systems.iter().find(|r| r.label == n).expect("row");
        // Mercury/MAAN walk ~n/4 nodes per attribute: far slower than LORM
        assert!(get("Mercury").mean_ms > 5.0 * get("LORM").mean_ms);
        assert!(get("MAAN").mean_ms > 5.0 * get("LORM").mean_ms);
        // SWORD (no walk) is the fastest
        assert!(get("SWORD").mean_ms <= get("LORM").mean_ms);
        // sequential LORM is slower than parallel LORM but of the same scale
        let par = &lat.lorm_plans[0];
        let seq = &lat.lorm_plans[1];
        assert!(seq.mean_ms > par.mean_ms);
        assert!(seq.mean_ms < par.mean_ms * 3.5, "sum of 3 subs vs their max");
    }

    #[test]
    fn constant_model_makes_latency_proportional_to_hops() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let a = latency(&bed, 30, 1, LatencyModel::Constant { ms: 10.0 });
        let b = latency(&bed, 30, 1, LatencyModel::Constant { ms: 20.0 });
        for (ra, rb) in a.systems.iter().zip(b.systems.iter()) {
            assert!((rb.mean_ms - 2.0 * ra.mean_ms).abs() < 1e-6, "{}", ra.label);
        }
    }
}
