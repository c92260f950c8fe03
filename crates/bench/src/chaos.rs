//! `repro chaos` — the fault-injection robustness sweep.
//!
//! Replays a fixed range-query batch through all four systems under
//! every (message-loss rate × ungraceful-failure fraction) cell of a
//! seeded sweep and renders the success-rate / hop-inflation curves
//! against the stable `lorm-repro/chaos-v1` schema (documented in
//! EXPERIMENTS.md). Every system's fault-free baseline summary is
//! embedded in the export so consumers (CI's `chaos-smoke` job) can
//! assert the zero-fault cell is bit-identical to it without re-running
//! anything.

use crate::ReproConfig;
use sim::experiments::chaos::{chaos, Chaos, ChaosSetup};
use sim::BedCache;

/// Run the chaos sweep at the configuration's scale, on `cfg.shards`
/// workers per batch, against a shared bed cache: the sweep itself
/// already reuses one bed across every (loss × fail) cell, so the cache's
/// contribution is sharing that bed with any other pipeline in the same
/// invocation (e.g. the perf harness's figure kernels).
pub fn run_chaos(cfg: &ReproConfig, cache: &BedCache) -> Chaos {
    let setup = if cfg.quick { ChaosSetup::quick() } else { ChaosSetup::default() };
    let bed = cache.bed(cfg.sim());
    chaos(&bed, setup, cfg.shards)
}

/// Serialize a chaos sweep against the stable `lorm-repro/chaos-v1`
/// schema.
///
/// Per system the export carries the fault-free `baseline` summary and
/// one object per sweep cell; cell summaries are rendered by the same
/// serializer as the baseline, so zero-fault parity is a plain
/// field-by-field equality for consumers (floats round-trip via Rust's
/// shortest-representation formatting, which is injective on bits).
pub fn render_chaos_json(cfg: &ReproConfig, c: &Chaos) -> String {
    use sim::report::{json_num, json_str, summary_json};
    let p = cfg.sim().params();
    let mut out = String::from("{\"schema\":\"lorm-repro/chaos-v1\",\"config\":{");
    out.push_str(&format!(
        "\"quick\":{},\"seed\":{},\"shards\":{},\"n\":{},\"m\":{},\"k\":{},\"d\":{},",
        cfg.quick, cfg.seed, cfg.shards, p.n, p.m, p.k, p.d
    ));
    out.push_str(&format!(
        "\"fault_seed\":{},\"queries\":{},\"arity\":{},",
        c.setup.fault_seed, c.queries, c.setup.arity
    ));
    let rates = |xs: &[f64]| xs.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(",");
    out.push_str(&format!(
        "\"loss_rates\":[{}],\"fail_fracs\":[{}]}}",
        rates(&c.setup.loss_rates),
        rates(&c.setup.fail_fracs)
    ));
    out.push_str(",\"systems\":[");
    for (i, sys) in c.systems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"baseline\":{},\"cells\":[",
            json_str(sys.name),
            summary_json(sys.name, &sys.baseline)
        ));
        for (j, cell) in sys.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"loss\":{},\"fail_frac\":{},\"success_rate\":{},\"hop_inflation\":{},\"summary\":{}}}",
                json_num(cell.loss),
                json_num(cell.fail_frac),
                json_num(cell.success_rate()),
                json_num(cell.hop_inflation(&sys.baseline)),
                summary_json(sys.name, &cell.summary)
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::experiments::chaos::ChaosSetup;
    use sim::{SimConfig, TestBed};

    fn tiny_chaos() -> (ReproConfig, Chaos) {
        let cfg = ReproConfig { quick: true, seed: 7, chaos: true, ..ReproConfig::default() };
        let sim_cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(sim_cfg);
        let setup = ChaosSetup {
            loss_rates: vec![0.0, 0.2],
            fail_fracs: vec![0.0],
            origins: 10,
            per_origin: 3,
            arity: 2,
            ..ChaosSetup::default()
        };
        let c = chaos(&bed, setup, cfg.shards);
        (cfg, c)
    }

    #[test]
    fn chaos_json_has_schema_config_and_systems() {
        let (cfg, c) = tiny_chaos();
        let j = render_chaos_json(&cfg, &c);
        assert!(j.starts_with("{\"schema\":\"lorm-repro/chaos-v1\",\"config\":{"), "{j}");
        assert!(j.contains("\"fault_seed\":"), "{j}");
        assert!(j.contains("\"loss_rates\":[0,0.2]"), "{j}");
        assert!(j.contains("\"fail_fracs\":[0]"), "{j}");
        assert!(j.contains("\"name\":\"LORM\""), "{j}");
        assert!(j.contains("\"baseline\":{\"label\":\"LORM\""), "{j}");
        assert!(j.contains("\"success_rate\":1"), "{j}");
        assert!(j.ends_with("]}"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn zero_fault_cell_serializes_bit_identical_to_baseline() {
        // The parity guarantee the CI job asserts: the zero-fault cell's
        // summary object is the exact same string as the baseline's.
        let (cfg, c) = tiny_chaos();
        let j = render_chaos_json(&cfg, &c);
        use sim::report::summary_json;
        for sys in &c.systems {
            let baseline = summary_json(sys.name, &sys.baseline);
            let zero = &sys.cells[0];
            assert_eq!(zero.loss, 0.0);
            assert_eq!(zero.fail_frac, 0.0);
            assert_eq!(summary_json(sys.name, &zero.summary), baseline, "{}", sys.name);
            // both the baseline field and the parity cell carry it
            assert!(j.matches(baseline.as_str()).count() >= 2, "{}", sys.name);
        }
    }
}
