//! Pins the Report JSON of the quick pipelines byte for byte.
//!
//! The other equivalence suites compare query paths against each other
//! inside one build, so a change that shifts every path the same way (a
//! fault-coin reordering, a reshuffled walk) passes them all. This test
//! compares against files recorded from an earlier build instead:
//! `repro --quick all`, `repro chaos --quick` and `repro durability
//! --quick` must render exactly the JSON under `tests/golden/`.
//!
//! Only wall-clock time (`elapsed_ms`) and the shard count
//! (`config.shards`) may vary between runs; both are stripped from the
//! rendering before the comparison, and the golden files are stored
//! stripped. To re-record after an intended change of results:
//!
//! ```text
//! repro --quick all --json all.json
//! sed -E 's/"elapsed_ms":[-0-9.e+]+,?//g; s/"shards":[0-9]+,?//' all.json \
//!     > crates/bench/tests/golden/all_quick.json
//! ```
//!
//! and likewise for `chaos --quick` and `durability --quick`.

use bench::{render_json, run_artifact_report, Artifact, ArtifactRun, ReproConfig};

fn quick() -> ReproConfig {
    ReproConfig { quick: true, ..ReproConfig::default() }
}

/// Remove every `"key":<number>` member (and the comma after it).
fn strip_numeric_key(json: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(&pat) {
        out.push_str(&rest[..at]);
        let after = &rest[at + pat.len()..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        rest = after[end..].strip_prefix(',').unwrap_or(&after[end..]);
    }
    out.push_str(rest);
    out
}

fn normalized(json: &str) -> String {
    strip_numeric_key(&strip_numeric_key(json, "elapsed_ms"), "shards")
}

fn assert_golden(name: &str, rendered: &str, golden: &str) {
    let got = normalized(rendered);
    if got == golden {
        return;
    }
    let at = got.bytes().zip(golden.bytes()).take_while(|(a, b)| a == b).count();
    let lo = at.saturating_sub(80);
    panic!(
        "{name}: report JSON drifted from tests/golden at byte {at}\n  got:    ...{}\n  golden: ...{}",
        &got[lo..(at + 80).min(got.len())],
        &golden[lo..(at + 80).min(golden.len())],
    );
}

#[test]
fn quick_all_matches_golden() {
    let cfg = quick();
    let cache = sim::BedCache::new();
    let runs: Vec<ArtifactRun> = Artifact::ALL
        .iter()
        .map(|&a| ArtifactRun {
            artifact: a,
            report: run_artifact_report(a, &cfg, &cache),
            elapsed_ms: 0.0,
        })
        .collect();
    assert_golden("all", &render_json(&cfg, &runs), include_str!("golden/all_quick.json"));
}

#[test]
fn quick_chaos_matches_golden() {
    let cfg = quick();
    let c = bench::chaos::run_chaos(&cfg, &sim::BedCache::new());
    assert_golden(
        "chaos",
        &bench::chaos::render_chaos_json(&cfg, &c),
        include_str!("golden/chaos_quick.json"),
    );
}

#[test]
fn quick_durability_matches_golden() {
    let cfg = quick();
    let d = bench::durability::run_durability(&cfg, &sim::BedCache::new());
    assert_golden(
        "durability",
        &bench::durability::render_durability_json(&cfg, &d),
        include_str!("golden/durability_quick.json"),
    );
}

#[test]
fn normalization_strips_only_the_volatile_keys() {
    let raw = "{\"config\":{\"seed\":7,\"shards\":3,\"n\":8},\
               \"artifacts\":[{\"name\":\"a\",\"elapsed_ms\":1.5e-3,\"x\":1}]}";
    assert_eq!(
        normalized(raw),
        "{\"config\":{\"seed\":7,\"n\":8},\"artifacts\":[{\"name\":\"a\",\"x\":1}]}"
    );
}
