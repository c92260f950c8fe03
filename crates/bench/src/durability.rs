//! `repro durability` — the replication/durability sweep.
//!
//! Drives every (churn rate × replication degree × system) cell of the
//! durability experiment, renders the data-loss and repair-traffic
//! tables, and serializes against the stable `lorm-repro/durability-v1`
//! schema (documented in docs/SCHEMAS.md). Two result-bearing checks ride
//! along and make the binary exit non-zero on violation — the same
//! pattern as `repro scale`'s growth checks:
//!
//! * **k-monotonicity** — surviving pieces non-decreasing in the
//!   replication degree at every rate and system (pathwise guarantee);
//! * **theory checks** — the simulated successor staleness and
//!   lookup-failure fractions must match Krishnamurthy et al.'s closed
//!   forms within the stated tolerance bands.

use crate::ReproConfig;
use sim::experiments::durability::{durability, Durability, DurabilitySetup};
use sim::BedCache;

/// Run the durability sweep at the configuration's scale, probing on
/// `cfg.shards` workers, against a shared bed cache: every (rate, degree,
/// system) cell clones one cached prototype per system, so the sweep pays
/// construction once per system total.
pub fn run_durability(cfg: &ReproConfig, cache: &BedCache) -> Durability {
    let setup = if cfg.quick { DurabilitySetup::quick() } else { DurabilitySetup::default() };
    durability(&cfg.sim(), &setup, cache, cfg.shards)
}

/// Serialize a durability sweep against the stable
/// `lorm-repro/durability-v1` schema.
pub fn render_durability_json(cfg: &ReproConfig, d: &Durability) -> String {
    use sim::report::{json_num, json_str, summary_json};
    let p = cfg.sim().params();
    let nums = |xs: &[f64]| xs.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(",");
    let mut out = String::from("{\"schema\":\"lorm-repro/durability-v1\",\"config\":{");
    out.push_str(&format!(
        "\"quick\":{},\"seed\":{},\"shards\":{},\"n\":{},\"m\":{},\"k\":{},\"d\":{},",
        cfg.quick, cfg.seed, cfg.shards, p.n, p.m, p.k, p.d
    ));
    out.push_str(&format!(
        "\"rates\":[{}],\"degrees\":[{}],\"duration\":{},\"maintenance_period\":{},\"graceful_ratio\":{}}}",
        nums(&d.setup.rates),
        d.setup.degrees.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(","),
        json_num(d.setup.duration),
        json_num(d.setup.maintenance_period),
        json_num(d.setup.graceful_ratio),
    ));
    out.push_str(",\"rows\":[");
    let systems = ["LORM", "Mercury", "SWORD", "MAAN"];
    for (i, r) in d.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"rate\":{},\"k\":{},\"cells\":[", json_num(r.rate), r.k));
        for (j, (name, c)) in systems.iter().zip(r.cells.iter()).enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"system\":{},\"initial\":{},\"surviving\":{},\"loss\":{},\"events\":{},\
                 \"repair_rounds\":{},\"repair_copies\":{},\"repair_promotions\":{},\
                 \"repair_dropped\":{},\"repair_transfers\":{},\"probe\":{}}}",
                json_str(name),
                c.initial,
                c.surviving,
                json_num(c.loss),
                c.events,
                c.repair_rounds,
                c.repair_copies,
                c.repair_promotions,
                c.repair_dropped,
                c.repair_transfers(),
                summary_json(name, &c.probe),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\"k_monotonicity\":{");
    let violations = d.k_monotonicity_violations();
    out.push_str(&format!("\"ok\":{},\"violations\":[", violations.is_empty()));
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(v));
    }
    out.push_str("]},\"theory_checks\":[");
    for (i, c) in d.checks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"rate\":{},\"simulated\":{},\"predicted\":{},\"tol_rel\":{},\
             \"tol_abs\":{},\"ok\":{}}}",
            json_str(&c.name),
            json_num(c.rate),
            json_num(c.simulated),
            json_num(c.predicted),
            json_num(c.tol_rel),
            json_num(c.tol_abs),
            c.ok,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;
    use sim::SimConfig;

    /// A scaled-down sweep driven by `cfg`'s shard count, as
    /// [`run_durability`] drives the quick/full ones.
    fn tiny_sweep(cfg: &ReproConfig) -> Durability {
        let sim_cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let setup = DurabilitySetup {
            rates: vec![0.4],
            degrees: vec![1, 2],
            duration: 100.0,
            probe_origins: 6,
            probe_per_origin: 2,
            ..DurabilitySetup::quick()
        };
        durability(&sim_cfg, &setup, &BedCache::new(), cfg.shards)
    }

    fn tiny_durability() -> (ReproConfig, Durability) {
        let cfg = ReproConfig { quick: true, seed: 7, durability: true, ..ReproConfig::default() };
        let d = tiny_sweep(&cfg);
        (cfg, d)
    }

    #[test]
    fn parsed_shards_reach_the_durability_sweep_unchanged() {
        // `--shards` is the sweep's one shard source: absent and `0` both
        // mean one worker per core, `config.shards` echoes the flag, and
        // no count changes any other byte of the export.
        let mut first: Option<String> = None;
        for (flag, want) in
            [(None, 0), (Some("--shards=0"), 0), (Some("--shards=1"), 1), (Some("--shards=3"), 3)]
        {
            let args = ["--quick", "--seed=7", "durability"].into_iter().chain(flag);
            let (cfg, _) = parse_args(args.map(String::from)).unwrap();
            assert!(cfg.durability, "{flag:?}");
            assert_eq!(cfg.shards, want, "{flag:?}");
            let j = render_durability_json(&cfg, &tiny_sweep(&cfg));
            let key = format!("\"shards\":{want},");
            assert!(j.contains(&key), "{flag:?}: {j}");
            let rest = j.replacen(&key, "", 1);
            assert_eq!(first.get_or_insert_with(|| rest.clone()), &rest, "{flag:?}");
        }
    }

    #[test]
    fn durability_json_has_schema_rows_and_checks() {
        let (cfg, d) = tiny_durability();
        let j = render_durability_json(&cfg, &d);
        assert!(j.starts_with("{\"schema\":\"lorm-repro/durability-v1\",\"config\":{"), "{j}");
        assert!(j.contains("\"rates\":[0.4]"), "{j}");
        assert!(j.contains("\"degrees\":[1,2]"), "{j}");
        assert!(j.contains("\"system\":\"LORM\""), "{j}");
        assert!(j.contains("\"system\":\"MAAN\""), "{j}");
        assert!(j.contains("\"loss\":"), "{j}");
        assert!(j.contains("\"repair_transfers\":"), "{j}");
        assert!(j.contains("\"k_monotonicity\":{\"ok\":true,\"violations\":[]}"), "{j}");
        assert!(j.contains("\"theory_checks\":[{\"name\":\"stale_first_successor\""), "{j}");
        assert!(j.ends_with("]}"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn durability_rows_cover_the_degree_grid() {
        let (_, d) = tiny_durability();
        assert_eq!(d.rows.len(), 2, "1 rate x 2 degrees");
        let k1 = &d.rows[0];
        let k2 = &d.rows[1];
        assert_eq!((k1.k, k2.k), (1, 2));
        for (a, b) in k1.cells.iter().zip(k2.cells.iter()) {
            assert_eq!(a.initial, b.initial, "identity census must not depend on k");
            assert!(b.surviving >= a.surviving, "k=2 must not lose more than k=1");
            assert_eq!(a.repair_transfers(), 0, "k=1 repair must be a no-op");
        }
    }
}
