//! End-to-end tests of the lint engine: each fixture under
//! `tests/fixtures/` exercises one lint (or the suppression machinery),
//! and the final test holds the real workspace to zero findings.

use std::path::{Path, PathBuf};

use xtask::lints::{lint_file, FileClass, FileCtx, FileReport};
use xtask::{lint_workspace, render_json, render_json_v2, LintReport};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Run a fixture as if it were simulation-path library code.
fn run(name: &str) -> FileReport {
    let ctx = FileCtx {
        crate_dir: "resource".into(),
        class: FileClass::Lib,
        rel_path: format!("crates/resource/src/{name}"),
    };
    lint_file(&ctx, &fixture(name))
}

fn lint_names(r: &FileReport) -> Vec<&str> {
    r.diagnostics.iter().map(|d| d.lint.as_str()).collect()
}

#[test]
fn hash_collections_fires_on_violation() {
    let r = run("hash_violate.rs");
    assert_eq!(lint_names(&r), vec!["hash-collections"; 4], "{:?}", r.diagnostics);
}

#[test]
fn hash_collections_quiet_on_clean_file() {
    let r = run("hash_clean.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn wall_clock_fires_on_violation() {
    let r = run("wallclock_violate.rs");
    let names = lint_names(&r);
    assert_eq!(names.iter().filter(|&&n| n == "wall-clock").count(), 4, "{:?}", r.diagnostics);
    assert!(names.iter().all(|&n| n == "wall-clock"), "{:?}", r.diagnostics);
}

#[test]
fn wall_clock_quiet_on_seeded_sampling() {
    let r = run("wallclock_clean.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn panic_hygiene_fires_on_violation() {
    let r = run("panic_violate.rs");
    assert_eq!(lint_names(&r), vec!["panic-hygiene"; 3], "{:?}", r.diagnostics);
}

#[test]
fn panic_hygiene_quiet_on_lookalikes_and_tests() {
    let r = run("panic_clean.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn float_accumulate_fires_on_violation() {
    let r = run("float_violate.rs");
    assert_eq!(lint_names(&r), vec!["float-accumulate"; 2], "{:?}", r.diagnostics);
}

#[test]
fn float_accumulate_quiet_on_integer_and_sum() {
    let r = run("float_clean.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn bed_rebuild_fires_on_violation() {
    let r = run("bed_violate.rs");
    assert_eq!(lint_names(&r), vec!["bed-rebuild"; 3], "{:?}", r.diagnostics);
}

#[test]
fn bed_rebuild_quiet_on_hoisted_builds_and_impl_for() {
    let r = run("bed_clean.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn bed_rebuild_exempt_in_blessed_construction_modules() {
    let ctx = FileCtx {
        crate_dir: "sim".into(),
        class: FileClass::Lib,
        rel_path: "crates/sim/src/setup.rs".into(),
    };
    let r = lint_file(&ctx, &fixture("bed_violate.rs"));
    assert!(!r.diagnostics.iter().any(|d| d.lint == "bed-rebuild"), "{:?}", r.diagnostics);
}

#[test]
fn reasoned_suppressions_silence_findings() {
    let r = run("suppress_ok.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(r.suppressions_used, 2);
}

#[test]
fn unused_suppression_is_an_error() {
    let r = run("suppress_unused.rs");
    assert_eq!(lint_names(&r), ["unused-suppression"], "{:?}", r.diagnostics);
}

#[test]
fn malformed_suppressions_are_errors_and_do_not_suppress() {
    let r = run("suppress_bad.rs");
    let mut names = lint_names(&r);
    names.sort();
    assert_eq!(
        names,
        ["bad-suppression", "bad-suppression", "panic-hygiene"],
        "{:?}",
        r.diagnostics
    );
    assert_eq!(r.suppressions_used, 0);
}

#[test]
fn fixtures_do_not_fire_outside_sim_crates_or_lib_class() {
    // The same violating source is exempt in a non-simulation crate...
    let ctx = FileCtx {
        crate_dir: "bench".into(),
        class: FileClass::Lib,
        rel_path: "crates/bench/src/x.rs".into(),
    };
    let r = lint_file(&ctx, &fixture("hash_violate.rs"));
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    // ...and in a sim crate's integration tests.
    let ctx = FileCtx {
        crate_dir: "resource".into(),
        class: FileClass::TestDir,
        rel_path: "crates/resource/tests/x.rs".into(),
    };
    let r = lint_file(&ctx, &fixture("panic_violate.rs"));
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

/// Run the full two-layer engine on a fixture mini-workspace.
fn run_ws(name: &str) -> LintReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    lint_workspace(&root).unwrap_or_else(|e| panic!("scan {}: {e}", root.display()))
}

#[test]
fn ws_cast_fixture_flags_only_the_reachable_cast() {
    let r = run_ws("ws_cast");
    assert_eq!(r.entry_points, ["sim::run_batch"]);
    assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
    let d = &r.diagnostics[0];
    assert_eq!(d.lint, "cast-truncation");
    assert_eq!(d.file, "crates/chord/src/lib.rs");
    assert_eq!(d.line, 6, "expected the reachable cast, got {:?}", d);
    let trace = d.trace.as_deref().expect("reach-scoped finding carries a trace");
    assert_eq!(trace.first().map(String::as_str), Some("sim::run_batch"), "{trace:?}");
    assert!(trace.last().unwrap().contains("reachable_cast"), "{trace:?}");
    // The unreachable cast was dropped; the suppressed one used its allow.
    assert_eq!(r.suppressions_used, 1);
}

#[test]
fn ws_sentinel_fixture_flags_only_the_unguarded_read() {
    let r = run_ws("ws_sentinel");
    assert_eq!(lint_names_report(&r), ["sentinel-guard"], "{:?}", r.diagnostics);
    let d = &r.diagnostics[0];
    assert_eq!(d.file, "crates/chord/src/lib.rs");
    assert_eq!(d.line, 13, "expected the unguarded read, got {:?}", d);
    let trace = d.trace.as_deref().expect("trace");
    assert!(trace.last().unwrap().contains("read_unguarded"), "{trace:?}");
    assert_eq!(r.suppressions_used, 1);
}

#[test]
fn ws_schema_fixture_reports_drift_both_directions() {
    let r = run_ws("ws_schema");
    assert_eq!(lint_names_report(&r), ["schema-drift", "schema-drift"], "{:?}", r.diagnostics);
    // Sorted by file: the source-anchored finding precedes the doc-anchored one.
    let src = &r.diagnostics[0];
    assert_eq!(src.file, "crates/bench/src/lib.rs");
    assert!(src.message.contains("\"extra_key\""), "{}", src.message);
    assert!(src.message.contains("fix-v1"), "{}", src.message);
    let doc = &r.diagnostics[1];
    assert_eq!(doc.file, "docs/SCHEMAS.md");
    assert!(doc.message.contains("\"stale_key\""), "{}", doc.message);
    // The undocumented `wip_key` on the second schema used its allow.
    assert_eq!(r.suppressions_used, 1);
}

#[test]
fn ws_schema_clean_fixture_is_quiet() {
    let r = run_ws("ws_schema_clean");
    assert!(r.clean(), "{:?}", r.diagnostics);
    assert_eq!(r.suppressions_used, 0);
}

#[test]
fn ws_reach_fixture_drops_unreachable_finding_and_flags_its_suppression() {
    let r = run_ws("ws_reach");
    let mut names = lint_names_report(&r);
    names.sort();
    assert_eq!(names, ["route-path-alloc", "unused-suppression"], "{:?}", r.diagnostics);
    let route = r.diagnostics.iter().find(|d| d.lint == "route-path-alloc").unwrap();
    assert!(route.trace.as_deref().unwrap().last().unwrap().contains("hot"), "{:?}", route);
    // `cold`'s finding was dropped as unreachable, so its directive is dead.
    let unused = r.diagnostics.iter().find(|d| d.lint == "unused-suppression").unwrap();
    assert_eq!(unused.file, "crates/chord/src/lib.rs");
    assert_eq!(r.suppressions_used, 0);
}

fn lint_names_report(r: &LintReport) -> Vec<&str> {
    r.diagnostics.iter().map(|d| d.lint.as_str()).collect()
}

/// Every library crate root (the facade and each non-vendored member)
/// must forbid `unsafe` at the crate level.
#[test]
fn library_crates_forbid_unsafe_code() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        if dir.file_name().is_some_and(|n| n == "vendored") {
            continue;
        }
        let lib = dir.join("src/lib.rs");
        if lib.is_file() {
            roots.push(lib);
        }
    }
    assert!(roots.len() >= 10, "found too few crate roots: {roots:?}");
    let missing: Vec<_> = roots
        .into_iter()
        .filter(|lib| !std::fs::read_to_string(lib).unwrap().contains("#![forbid(unsafe_code)]"))
        .collect();
    assert!(missing.is_empty(), "crate roots missing #![forbid(unsafe_code)]: {missing:?}");
}

/// The real workspace must stay clean — this is the same gate CI runs.
#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("scan workspace");
    assert!(report.files_scanned > 50, "walker found too few files: {}", report.files_scanned);
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.lint, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let json = render_json(&report);
    assert!(json.contains("\"schema\": \"lorm-repro/lint-v1\""));
    assert!(json.contains("\"clean\": true"));
    // lint-v2: all five entry points resolve and the graph is non-trivial.
    assert_eq!(report.entry_points.len(), 5, "{:?}", report.entry_points);
    assert!(
        report.reachable_functions > 0 && report.reachable_functions < report.functions_indexed,
        "reachable {} of {}",
        report.reachable_functions,
        report.functions_indexed
    );
    let v2 = render_json_v2(&report);
    assert!(v2.contains("\"schema\": \"lorm-repro/lint-v2\""));
    assert!(v2.contains("\"clean\": true"));
}
