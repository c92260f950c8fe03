//! Figure 4 — logical hops of non-range multi-attribute queries.
//!
//! The paper varies the number of attributes per query from 1 to 10,
//! issues 10 queries from each of 100 random nodes, and reports the
//! average (4(a)) and total (4(b)) logical hops per system, next to the
//! analysis curves "Analysis-LORM" (= MAAN ÷ log n/d, Theorem 4.7) and
//! "Analysis-SWORD/Mercury" (= MAAN ÷ 2, Theorem 4.8) derived from the
//! measured MAAN.

use crate::experiments::{query_batch, run_batch_all, summary_of, Exec, Metric};
use crate::report::Report;
use crate::setup::TestBed;
use crate::table::Table;
use analysis::{self as th, System};
use dht_core::Summary;
use grid_resource::{QueryMix, QueryPlan};
use std::fmt;

/// One arity's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Attributes per query (1–10 in the paper).
    pub arity: usize,
    /// Average hops per query: LORM, Mercury, SWORD, MAAN.
    pub avg: [f64; 4],
    /// Total hops over the whole batch, same order.
    pub total: [f64; 4],
    /// "Analysis-LORM": measured MAAN average ÷ (log2 n / d).
    pub analysis_lorm: f64,
    /// "Analysis-SWORD/Mercury": measured MAAN average ÷ 2.
    pub analysis_single: f64,
    /// Queries in the batch.
    pub queries: usize,
}

/// The Figure 4 series (both sub-figures share the measurement).
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One row per arity.
    pub rows: Vec<Fig4Row>,
    /// Per-system hop summaries merged over every arity batch
    /// (`System::ALL` order) — full precision for the JSON export.
    pub summaries: Vec<(&'static str, Summary)>,
}

/// Run the Figure 4 experiment on a mounted test bed under `plan`, each
/// batch on `shards` workers (`0`: one per core; the figure is
/// bit-identical at every shard count). [`QueryPlan::Parallel`]
/// reproduces the paper's figure exactly; sequential/adaptive plans keep
/// the answer sets but change hop counts (each sub-query after the first
/// still pays its lookup walk, so the curve shifts, not the ordering).
pub fn fig4(
    bed: &TestBed,
    arities: impl IntoIterator<Item = usize>,
    origins: usize,
    per_origin: usize,
    plan: QueryPlan,
    shards: usize,
) -> Fig4 {
    let p = bed.cfg.params();
    let mut rows = Vec::new();
    let mut summaries: Vec<(&'static str, Summary)> =
        System::ALL.map(|s| (s.name(), Summary::new())).to_vec();
    for arity in arities {
        let batch = query_batch(
            &bed.workload,
            bed.cfg.nodes,
            origins,
            per_origin,
            arity,
            QueryMix::NonRange,
            bed.seeds.seed() ^ 0xF400 ^ arity as u64,
        );
        let measured = run_batch_all(&bed.systems, &batch, &Exec::new(Metric::Hops, plan, shards));
        for (i, s) in System::ALL.iter().enumerate() {
            summaries[i].1.merge(summary_of(&measured, *s));
        }
        let avg = System::ALL.map(|s| summary_of(&measured, s).mean());
        let total = System::ALL.map(|s| summary_of(&measured, s).total());
        let maan_avg = avg[3];
        rows.push(Fig4Row {
            arity,
            avg,
            total,
            analysis_lorm: maan_avg / th::t47_maan_over_lorm_hops(&p),
            analysis_single: maan_avg / th::t48_maan_over_single_lookup(),
            queries: batch.len(),
        });
    }
    Fig4 { rows, summaries }
}

impl Fig4 {
    /// Build the structured report (both sub-figure tables plus the
    /// full-precision per-system summaries).
    pub fn report(&self) -> Report {
        let mut a = Table::new(
            "Figure 4(a): average logical hops per non-range query",
            &["attrs", "LORM", "Mercury", "SWORD", "MAAN", "Analysis-LORM", "Analysis-S/M"],
        );
        for r in &self.rows {
            a.row(vec![
                r.arity.to_string(),
                Table::fmt_f(r.avg[0]),
                Table::fmt_f(r.avg[1]),
                Table::fmt_f(r.avg[2]),
                Table::fmt_f(r.avg[3]),
                Table::fmt_f(r.analysis_lorm),
                Table::fmt_f(r.analysis_single),
            ]);
        }
        let mut b = Table::new(
            "Figure 4(b): total logical hops over the query batch",
            &["attrs", "queries", "LORM", "Mercury", "SWORD", "MAAN"],
        );
        for r in &self.rows {
            b.row(vec![
                r.arity.to_string(),
                r.queries.to_string(),
                Table::fmt_f(r.total[0]),
                Table::fmt_f(r.total[1]),
                Table::fmt_f(r.total[2]),
                Table::fmt_f(r.total[3]),
            ]);
        }
        let mut rep = Report::new();
        rep.table(a).table(b);
        for (name, s) in &self.summaries {
            rep.summary(*name, s.clone());
        }
        rep
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SimConfig;

    #[test]
    fn fig4_reproduces_hop_ordering() {
        // Scaled-down bed (full clusters: n = d·2^d with d = 7).
        let cfg =
            SimConfig { nodes: 896, attrs: 30, values: 60, dimension: 7, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let fig = fig4(&bed, [1, 5], 30, 5, QueryPlan::Parallel, 0);
        assert_eq!(fig.rows.len(), 2);
        for r in &fig.rows {
            let [lorm, mercury, sword, maan] = r.avg;
            // Theorem 4.7/4.8 ordering: MAAN > LORM > Mercury ≈ SWORD.
            assert!(maan > lorm, "MAAN {maan} must exceed LORM {lorm}");
            assert!(lorm > mercury, "LORM {lorm} must exceed Mercury {mercury}");
            assert!((mercury - sword).abs() < 1.5, "Mercury {mercury} ≈ SWORD {sword}");
            // MAAN needs two lookups: ~2x the single-lookup systems.
            assert!((maan / mercury - 2.0).abs() < 0.4, "MAAN/Mercury = {}", maan / mercury);
            // analysis overlays sit between
            assert!(r.analysis_lorm < maan && r.analysis_lorm > mercury);
        }
        // hops grow with arity
        assert!(fig.rows[1].avg[0] > fig.rows[0].avg[0] * 3.0);
        // totals = avg × count
        let r = &fig.rows[0];
        assert!((r.total[3] - r.avg[3] * r.queries as f64).abs() < 1e-6);
    }

    #[test]
    fn analysis_columns_are_derived_from_measured_maan() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let fig = fig4(&bed, [2], 10, 3, QueryPlan::Parallel, 1);
        let r = &fig.rows[0];
        let p = cfg.params();
        let maan = r.avg[3];
        assert!((r.analysis_lorm - maan / analysis::t47_maan_over_lorm_hops(&p)).abs() < 1e-9);
        assert!((r.analysis_single - maan / 2.0).abs() < 1e-9);
        // and the table renders both sub-figures
        let s = fig.to_string();
        assert!(s.contains("Figure 4(a)") && s.contains("Figure 4(b)"));
    }
}
