//! The lint registry: each named lint enforces one clause of the
//! simulator's reproducibility contract (see `docs/LINTS.md`).
//!
//! Lints run in two modes. [`lint_file`] is the standalone lexical mode
//! (fixtures, unit tests): every applicable lint fires on its pattern
//! wherever it appears. The workspace driver in `lib.rs` instead runs
//! [`raw_lints`] per file, filters the reachability-scoped lints through
//! the call graph (a finding stands only when its enclosing function is
//! reachable from a sim entry point — see [`crate::graph::ENTRY_POINTS`]),
//! adds the graph-level [`schema_drift`] pass, and then resolves
//! suppressions with [`resolve_suppressions`].

use std::collections::BTreeMap;

use crate::graph::CallGraph;
use crate::items::ItemTree;
use crate::lexer::{in_regions, lex, test_regions, Comment, Lexed, Tok, TokKind};

/// Directory names (under `crates/`) of the simulation-path crates: code
/// whose behaviour flows into exported figures, so iteration order,
/// wall-clock time, and ambient entropy are forbidden there.
pub const SIM_CRATES: &[&str] =
    &["dht-core", "cycloid", "chord", "core", "resource", "baselines", "sim"];

/// Files blessed to accumulate floats: the `Summary` / `Report` merge
/// paths whose accumulation order is itself part of the contract (PR 1
/// documented the last-ULP variance-merge caveat there).
pub const FLOAT_BLESSED: &[&str] = &["crates/dht-core/src/stats.rs", "crates/sim/src/report.rs"];

/// Files blessed to call the traced `.route(...)` (and the cloning
/// `.live_nodes_cloned()`) in simulation-path library code: the hop-
/// distribution experiment and trace tooling consume full paths, so the
/// per-lookup `Vec` is the product there, not an accident.
pub const ROUTE_BLESSED: &[&str] = &["crates/sim/src/experiments/hopdist.rs"];

/// Files blessed to construct beds, overlays, and systems freely: the
/// construction modules themselves. Everywhere else in simulation-path
/// library code, building inside a loop is the exact cost the
/// `BedCache` exists to amortize (one stabilized build per distinct
/// configuration, cloned or shared thereafter). `mercury.rs` is blessed
/// because its bulk constructor legitimately stands up one `ChordHost`
/// per hub (`m` overlays per system is Mercury's defining cost).
pub const BED_BLESSED: &[&str] =
    &["crates/sim/src/setup.rs", "crates/sim/src/cache.rs", "crates/baselines/src/mercury.rs"];

/// Every lint name with a one-line description (the `--list` catalogue).
pub const LINTS: &[(&str, &str)] = &[
    (
        "hash-collections",
        "std HashMap/HashSet in simulation-path crates — iteration order can leak into results; \
         use BTreeMap/BTreeSet",
    ),
    (
        "wall-clock",
        "wall-clock time or ambient entropy (Instant, SystemTime, thread_rng, rand::random, \
         std::env) in simulation-path crates — results must be a pure function of the seed",
    ),
    (
        "panic-hygiene",
        ".unwrap()/.expect()/panic! in library code — propagate DhtError, or annotate the \
         invariant",
    ),
    (
        "float-accumulate",
        "raw `+=` onto a float outside the blessed Summary/Report merge paths — accumulation \
         order changes last-ULP results",
    ),
    (
        "route-path-alloc",
        "traced `.route(...)` or cloning `.live_nodes_cloned()` in simulation-path library code \
         outside the trace allowlist — hot paths must use `.route_stats(...)` / borrowed \
         `.live_nodes()`",
    ),
    (
        "bed-rebuild",
        "overlay/system construction inside a loop in simulation-path library code outside the \
         blessed construction modules — build once via the BedCache and clone/share snapshots",
    ),
    (
        "cast-truncation",
        "lossy `as u8/u16/u32/...` cast on an index/count-named value in library code — at \
         n = 10^6-scale a silent wrap corrupts results; use `try_from` + documented invariant \
         or widen the type",
    ),
    (
        "sentinel-guard",
        "indexing the `fingers`/`succs`/`preds` arenas in a function that never mentions \
         `NO_LINK` — stride-table slots hold the sentinel and must be checked before use",
    ),
    (
        "schema-drift",
        "string-literal JSON keys emitted by a serializer (and its callees) must exactly match \
         the `docs/SCHEMAS.md` catalogue, both directions",
    ),
    ("unused-suppression", "a lint:allow comment that suppressed nothing"),
    ("bad-suppression", "a malformed lint:allow comment (unknown lint or missing reason)"),
];

/// Names that a `lint:allow(...)` directive may reference.
const SUPPRESSIBLE: &[&str] = &[
    "hash-collections",
    "wall-clock",
    "panic-hygiene",
    "float-accumulate",
    "route-path-alloc",
    "bed-rebuild",
    "cast-truncation",
    "sentinel-guard",
    "schema-drift",
];

/// Lints whose workspace-mode findings are scoped by reachability: a
/// finding stands only when its enclosing function is reachable from a
/// sim entry point. `float-accumulate` stays purely lexical (merge-order
/// bugs matter wherever the accumulator is later consumed), and the
/// suppression meta-lints are structural.
pub const REACH_SCOPED: &[&str] = &[
    "hash-collections",
    "wall-clock",
    "panic-hygiene",
    "route-path-alloc",
    "bed-rebuild",
    "cast-truncation",
    "sentinel-guard",
];

/// How a file participates in its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`src/**`, minus `src/main.rs` and `src/bin/**`).
    Lib,
    /// Binary source (`src/main.rs`, `src/bin/**`).
    Bin,
    /// Integration tests (`tests/**`).
    TestDir,
    /// Examples (`examples/**`).
    Example,
    /// Benches (`benches/**`).
    Bench,
}

/// Where a file sits in the workspace, for lint applicability.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// The crate's directory name under `crates/` (or the package name
    /// for the root facade).
    pub crate_dir: String,
    /// The file's role in the crate.
    pub class: FileClass,
    /// Workspace-relative path, `/`-separated (diagnostic display).
    pub rel_path: String,
}

impl FileCtx {
    fn sim_path(&self) -> bool {
        SIM_CRATES.contains(&self.crate_dir.as_str())
    }

    fn float_blessed(&self) -> bool {
        FLOAT_BLESSED.contains(&self.rel_path.as_str())
    }

    fn route_blessed(&self) -> bool {
        ROUTE_BLESSED.contains(&self.rel_path.as_str())
    }

    fn bed_blessed(&self) -> bool {
        BED_BLESSED.contains(&self.rel_path.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint name (stable, machine-readable).
    pub lint: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Workspace mode only: the call path `entry → … → enclosing fn`
    /// proving the site reachable from a sim entry point. `None` for
    /// lexical-mode findings and lints outside [`REACH_SCOPED`].
    pub trace: Option<Vec<String>>,
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived suppression, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `lint:allow` directives matched a finding.
    pub suppressions_used: usize,
}

/// A parsed `// lint:allow(<name>): <reason>` directive.
#[derive(Debug)]
struct Suppression {
    name: String,
    has_reason: bool,
    line: u32,
    target_line: u32,
    used: bool,
}

/// Lint one file's source text (standalone lexical mode: no
/// reachability filtering, no schema-drift).
pub fn lint_file(ctx: &FileCtx, src: &str) -> FileReport {
    let lexed = lex(src);
    let items = crate::items::parse_items(&lexed.toks);
    let raw = raw_lints(ctx, &lexed, &items);
    resolve_suppressions(ctx, &lexed, raw)
}

/// Run every per-file lint and return the raw (pre-suppression,
/// pre-reachability) findings.
pub fn raw_lints(ctx: &FileCtx, lexed: &Lexed, items: &ItemTree) -> Vec<Diagnostic> {
    let regions = test_regions(&lexed.toks);
    let lib_code = |i: usize| ctx.class == FileClass::Lib && !in_regions(i, &regions);

    let mut raw: Vec<Diagnostic> = Vec::new();
    if ctx.sim_path() {
        hash_collections(ctx, &lexed.toks, &lib_code, &mut raw);
        wall_clock(ctx, &lexed.toks, &lib_code, &mut raw);
        if !ctx.float_blessed() {
            float_accumulate(ctx, &lexed.toks, &lib_code, &mut raw);
        }
        if !ctx.route_blessed() {
            route_path_alloc(ctx, &lexed.toks, &lib_code, &mut raw);
        }
        if !ctx.bed_blessed() {
            bed_rebuild(ctx, &lexed.toks, &lib_code, &mut raw);
        }
    }
    panic_hygiene(ctx, &lexed.toks, &lib_code, &mut raw);
    cast_truncation(ctx, &lexed.toks, &lib_code, &mut raw);
    sentinel_guard(ctx, &lexed.toks, items, &lib_code, &mut raw);
    raw
}

/// Match raw findings against the file's `lint:allow` directives,
/// emit the suppression meta-lints, and sort.
pub fn resolve_suppressions(ctx: &FileCtx, lexed: &Lexed, raw: Vec<Diagnostic>) -> FileReport {
    let mut sups = parse_suppressions(&lexed.comments, &lexed.toks);
    let mut report = FileReport::default();
    for d in raw {
        let matched = sups.iter_mut().find(|s| {
            s.has_reason
                && SUPPRESSIBLE.contains(&s.name.as_str())
                && s.name == d.lint
                && s.target_line == d.line
        });
        match matched {
            Some(s) => {
                s.used = true;
                report.suppressions_used += 1;
            }
            None => report.diagnostics.push(d),
        }
    }
    for s in &sups {
        if !SUPPRESSIBLE.contains(&s.name.as_str()) {
            report.diagnostics.push(Diagnostic {
                lint: "bad-suppression".into(),
                file: ctx.rel_path.clone(),
                line: s.line,
                message: format!(
                    "lint:allow names unknown lint {:?} (suppressible lints: {})",
                    s.name,
                    SUPPRESSIBLE.join(", ")
                ),
                trace: None,
            });
        } else if !s.has_reason {
            report.diagnostics.push(Diagnostic {
                lint: "bad-suppression".into(),
                file: ctx.rel_path.clone(),
                line: s.line,
                message: format!(
                    "lint:allow({}) without a reason — write `// lint:allow({}): <why>`",
                    s.name, s.name
                ),
                trace: None,
            });
        } else if !s.used {
            report.diagnostics.push(Diagnostic {
                lint: "unused-suppression".into(),
                file: ctx.rel_path.clone(),
                line: s.line,
                message: format!(
                    "lint:allow({}) suppressed nothing on line {} — remove it",
                    s.name, s.target_line
                ),
                trace: None,
            });
        }
    }
    report.diagnostics.sort_by(|a, b| (a.line, &a.lint).cmp(&(b.line, &b.lint)));
    report
}

fn push(out: &mut Vec<Diagnostic>, ctx: &FileCtx, lint: &str, line: u32, message: String) {
    out.push(Diagnostic {
        lint: lint.into(),
        file: ctx.rel_path.clone(),
        line,
        message,
        trace: None,
    });
}

/// Lint 1 — nondeterminism: `HashMap` / `HashSet` anywhere in
/// simulation-path library code (imports and type positions alike).
fn hash_collections(
    ctx: &FileCtx,
    toks: &[Tok],
    lib_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") && lib_code(i) {
            push(
                out,
                ctx,
                "hash-collections",
                t.line,
                format!(
                    "`{}` in a simulation-path crate: iteration order is randomized per process \
                     and can leak into exported results — use `BTree{}` or an indexed map",
                    t.text,
                    &t.text[4..]
                ),
            );
        }
    }
}

/// Lint 2 — wall-clock & entropy: `Instant`, `SystemTime`, `thread_rng`,
/// `rand::random`, `from_entropy`, `OsRng`, and `std::env` access in
/// simulation-path library code.
fn wall_clock(
    ctx: &FileCtx,
    toks: &[Tok],
    lib_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    const FORBIDDEN: &[(&str, &str)] = &[
        ("Instant", "wall-clock time"),
        ("SystemTime", "wall-clock time"),
        ("UNIX_EPOCH", "wall-clock time"),
        ("thread_rng", "ambient entropy"),
        ("from_entropy", "ambient entropy"),
        ("OsRng", "ambient entropy"),
    ];
    let ident = |i: usize, s: &str| i < toks.len() && toks[i].is_ident(s);
    let punct = |i: usize, c: char| i < toks.len() && toks[i].is_punct(c);
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !lib_code(i) {
            continue;
        }
        if let Some((_, what)) = FORBIDDEN.iter().find(|(n, _)| *n == t.text) {
            push(
                out,
                ctx,
                "wall-clock",
                t.line,
                format!(
                    "`{}` is {what}: simulation results must be a pure function of the \
                     experiment seed (route timing through `crates/bench`)",
                    t.text
                ),
            );
            continue;
        }
        // `rand::random` — the implicitly thread_rng-backed helper.
        if t.text == "random" && i >= 2 && punct(i - 1, ':') && ident(i - 3, "rand") {
            push(
                out,
                ctx,
                "wall-clock",
                t.line,
                "`rand::random` draws from ambient entropy — sample from a seeded \
                 `SmallRng` stream instead"
                    .into(),
            );
            continue;
        }
        // `std::env` / `env::var*` / `env!` — environment-dependent values.
        if t.text == "env" {
            let qualified = i >= 2 && punct(i - 1, ':') && ident(i - 3, "std");
            let accessor = punct(i + 1, ':')
                && (ident(i + 3, "var")
                    || ident(i + 3, "vars")
                    || ident(i + 3, "var_os")
                    || ident(i + 3, "args"));
            let is_macro = punct(i + 1, '!');
            if qualified || accessor || is_macro {
                push(
                    out,
                    ctx,
                    "wall-clock",
                    t.line,
                    "environment access in a simulation-path crate: seeds and parameters \
                     must arrive through explicit configuration, not the environment"
                        .into(),
                );
            }
        }
    }
}

/// Lint 3 — panic hygiene: `.unwrap()`, `.expect(`, `panic!` in library
/// (non-test, non-bin) code.
fn panic_hygiene(
    ctx: &FileCtx,
    toks: &[Tok],
    lib_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !lib_code(i) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = i + 1 < toks.len() && toks[i + 1].is_punct('(');
        let next_bang = i + 1 < toks.len() && toks[i + 1].is_punct('!');
        if (t.text == "unwrap" || t.text == "expect") && prev_dot && next_paren {
            push(
                out,
                ctx,
                "panic-hygiene",
                t.line,
                format!(
                    "`.{}(...)` in library code: propagate `DhtError` with `?`, or annotate a \
                     true invariant with `// lint:allow(panic-hygiene): <why>`",
                    t.text
                ),
            );
        } else if t.text == "panic" && next_bang {
            push(
                out,
                ctx,
                "panic-hygiene",
                t.line,
                "`panic!` in library code: return an error, or annotate the invariant with \
                 `// lint:allow(panic-hygiene): <why>`"
                    .into(),
            );
        }
    }
}

/// Lint 4 — float-merge order: `NAME += ...` where `NAME` is known to be
/// a float in this file (declared `: f64`/`: f32`, or `let mut NAME = ...`
/// with a float literal / `as f64` on the right-hand side).
fn float_accumulate(
    ctx: &FileCtx,
    toks: &[Tok],
    lib_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let float_names = collect_float_names(toks);
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !float_names.contains(&t.text) || !lib_code(i) {
            continue;
        }
        if i + 2 < toks.len() && toks[i + 1].is_punct('+') && toks[i + 2].is_punct('=') {
            push(
                out,
                ctx,
                "float-accumulate",
                t.line,
                format!(
                    "float `+=` accumulation on `{}`: accumulation order changes last-ULP \
                     results — record into `Summary` (merge-order-stable) or annotate why the \
                     order is fixed",
                    t.text
                ),
            );
        }
    }
}

/// Lint 5 — per-lookup allocation: traced `.route(...)` and cloning
/// `.live_nodes_cloned()` calls in simulation-path library code. The
/// figure loops issue millions of lookups; a `Vec` per lookup (or a
/// live-list clone per batch step) dominates their profile. Hot paths use
/// `.route_stats(...)` and the borrowed `.live_nodes()`; code that
/// genuinely consumes hop traces goes on [`ROUTE_BLESSED`] or annotates
/// the call site.
fn route_path_alloc(
    ctx: &FileCtx,
    toks: &[Tok],
    lib_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !lib_code(i) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = i + 1 < toks.len() && toks[i + 1].is_punct('(');
        if !(prev_dot && next_paren) {
            continue;
        }
        if t.text == "route" {
            push(
                out,
                ctx,
                "route-path-alloc",
                t.line,
                "traced `.route(...)` allocates a path `Vec` per lookup: hot paths must use \
                 `.route_stats(...)`; trace-consuming code belongs on the ROUTE_BLESSED \
                 allowlist or annotates the site"
                    .into(),
            );
        } else if t.text == "live_nodes_cloned" {
            push(
                out,
                ctx,
                "route-path-alloc",
                t.line,
                "`.live_nodes_cloned()` copies the live-node list: borrow `.live_nodes()` \
                 unless the overlay is mutated while iterating (then annotate why)"
                    .into(),
            );
        }
    }
}

/// Lint 6 — redundant bed construction: `build_system(...)` or an
/// overlay/system constructor (`TestBed::new`, `Chord::build`,
/// `Lorm::new`, ...) lexically inside a `for`/`while`/`loop` body in
/// simulation-path library code outside the blessed construction modules
/// ([`BED_BLESSED`]). A stabilized bed is a pure function of its
/// configuration; rebuilding it per sweep point is the cost the
/// `BedCache` amortizes away. Sites that genuinely need a fresh build
/// per iteration (parameter sweeps that *vary* the configuration)
/// annotate with `// lint:allow(bed-rebuild): <why>`.
fn bed_rebuild(
    ctx: &FileCtx,
    toks: &[Tok],
    lib_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    /// Types whose `::new` / `::build` / `::with_systems` calls stand up
    /// an overlay or a full discovery system.
    const CONSTRUCTED: &[&str] = &[
        "TestBed",
        "Chord",
        "Cycloid",
        "ChordHost",
        "Lorm",
        "Maan",
        "Sword",
        "Mercury",
        "CompositeFlat",
    ];
    const CTOR_METHODS: &[&str] =
        &["new", "build", "with_systems", "build_with_mode", "new_with_mode"];

    let mut depth = 0i32;
    let mut pending_loop = false;
    let mut loop_depths: Vec<i32> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
            if pending_loop {
                loop_depths.push(depth);
                pending_loop = false;
            }
            continue;
        }
        if t.is_punct('}') {
            if loop_depths.last() == Some(&depth) {
                loop_depths.pop();
            }
            depth -= 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "for" || t.text == "while" || t.text == "loop" {
            // Only statement-position keywords open loops: `for` also
            // appears in `impl Trait for Type` (preceded by an ident or
            // `>`), which must not count. Labeled loops (`'a: loop`) are
            // preceded by `:`.
            let stmt_start = i == 0
                || toks[i - 1].is_punct('{')
                || toks[i - 1].is_punct('}')
                || toks[i - 1].is_punct(';')
                || toks[i - 1].is_punct(':')
                || toks[i - 1].is_ident("else")
                || toks[i - 1].is_ident("unsafe");
            if stmt_start {
                pending_loop = true;
            }
            continue;
        }
        if loop_depths.is_empty() || !lib_code(i) {
            continue;
        }
        let next_paren = i + 1 < toks.len() && toks[i + 1].is_punct('(');
        if t.text == "build_system" && next_paren {
            push(
                out,
                ctx,
                "bed-rebuild",
                t.line,
                "`build_system(...)` inside a loop: a stabilized system is a pure function of \
                 its configuration — build once via `BedCache` (or hoist the build) and \
                 clone/share it, or annotate why each iteration needs a fresh build"
                    .into(),
            );
            continue;
        }
        if CONSTRUCTED.contains(&t.text.as_str())
            && i + 4 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == TokKind::Ident
            && CTOR_METHODS.contains(&toks[i + 3].text.as_str())
            && toks[i + 4].is_punct('(')
        {
            push(
                out,
                ctx,
                "bed-rebuild",
                t.line,
                format!(
                    "`{}::{}(...)` inside a loop: overlay construction is the dominant sweep \
                     cost — build once via `BedCache` and clone/share snapshots, or annotate \
                     why each iteration needs a fresh build",
                    t.text,
                    toks[i + 3].text
                ),
            );
        }
    }
}

/// Target types a truncating `as` cast can silently wrap into at the
/// million-node scale the repro sweeps.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Does `name` read like a count/index/size binding? Exact names, then
/// suffix and prefix conventions used across the workspace.
fn county_name(name: &str) -> bool {
    const EXACT: &[&str] = &[
        "n", "m", "k", "d", "r", "count", "len", "idx", "index", "size", "total", "arity", "slot",
        "slots", "hubs", "nodes",
    ];
    const SUFFIX: &[&str] = &[
        "_count", "_len", "_idx", "_index", "_size", "_total", "_max", "_nodes", "_slots", "_hubs",
    ];
    const PREFIX: &[&str] = &["num_", "max_", "count_"];
    let lower = name.to_ascii_lowercase();
    EXACT.contains(&lower.as_str())
        || SUFFIX.iter().any(|s| lower.ends_with(s))
        || PREFIX.iter().any(|p| lower.starts_with(p))
}

/// Lint 7 — lossy narrowing: `<count-ish> as u8/u16/u32/...` in library
/// code, where the operand is a count/index-named identifier or a
/// `.len()` / `.count()` call. Numeric-literal operands (`idx.0 as u32`
/// field accesses end in a `Num` token) are exempt: the compiler already
/// sees those, and tuple-index projections are how `NodeIdx` unwraps.
fn cast_truncation(
    ctx: &FileCtx,
    toks: &[Tok],
    lib_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for i in 1..toks.len() {
        if !toks[i].is_ident("as") || !lib_code(i) {
            continue;
        }
        let Some(target) = toks.get(i + 1) else { continue };
        if target.kind != TokKind::Ident || !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        let prev = &toks[i - 1];
        let what = match prev.kind {
            TokKind::Ident if county_name(&prev.text) => Some(format!("`{}`", prev.text)),
            TokKind::Punct if prev.text == ")" => {
                // `<expr>.len() as u32` / `<expr>.count() as u32`
                if i >= 4
                    && toks[i - 2].is_punct('(')
                    && toks[i - 3].kind == TokKind::Ident
                    && (toks[i - 3].text == "len" || toks[i - 3].text == "count")
                    && toks[i - 4].is_punct('.')
                {
                    Some(format!("`.{}()`", toks[i - 3].text))
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(what) = what {
            push(
                out,
                ctx,
                "cast-truncation",
                toks[i].line,
                format!(
                    "{what} as `{}` can silently truncate at large n: use `{}::try_from` with a \
                     documented invariant, or widen the type",
                    target.text, target.text
                ),
            );
        }
    }
}

/// The SoA arena fields whose slots hold the `NO_LINK` sentinel.
const SENTINEL_ARENAS: &[&str] = &["fingers", "succs", "preds"];

/// Lint 8 — sentinel hygiene: indexing a sentinel-bearing arena
/// (`fingers[..]`, `succs[..]`, `preds[..]`) inside a function that never
/// mentions `NO_LINK`. Reading a raw slot without a sentinel check turns
/// `u32::MAX` into a phantom node id. Pure stores (`arena[i] = v`) are
/// exempt — writing a slot needs no guard.
fn sentinel_guard(
    ctx: &FileCtx,
    toks: &[Tok],
    items: &ItemTree,
    lib_code: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || !SENTINEL_ARENAS.contains(&t.text.as_str())
            || i + 1 >= toks.len()
            || !toks[i + 1].is_punct('[')
            || !lib_code(i)
        {
            continue;
        }
        // Find the matching `]`; a lone `=` right after makes this a
        // pure store.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let is_store = j + 1 < toks.len()
            && toks[j + 1].is_punct('=')
            && !(j + 2 < toks.len() && toks[j + 2].is_punct('='));
        if is_store {
            continue;
        }
        // The enclosing fn (innermost body span containing this token)
        // must mention NO_LINK somewhere between its signature and its
        // closing brace.
        let encl = items
            .fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| s <= i && i < e))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(s, e)| e - s));
        let guarded = encl.is_some_and(|f| {
            let (_, end) = f.body.unwrap();
            toks[f.sig_start..end.min(toks.len())].iter().any(|t| t.is_ident("NO_LINK"))
        });
        if !guarded {
            push(
                out,
                ctx,
                "sentinel-guard",
                t.line,
                format!(
                    "`{}[..]` read in a function that never checks `NO_LINK`: arena slots hold \
                     the sentinel — guard the read, or annotate why every slot here is live",
                    t.text
                ),
            );
        }
    }
}

/// A parsed `docs/SCHEMAS.md`: schema name → (keys with doc line, the
/// section heading's line).
pub struct SchemasDoc {
    schemas: BTreeMap<String, (Vec<(String, u32)>, u32)>,
}

impl SchemasDoc {
    /// Parse the catalogue: sections open with `## lorm-repro/<name>`,
    /// keys are listed as `- \`key\`` bullets; prose is ignored.
    pub fn parse(text: &str) -> SchemasDoc {
        let mut schemas: BTreeMap<String, (Vec<(String, u32)>, u32)> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (lineno, line) in text.lines().enumerate() {
            let lineno = lineno as u32 + 1;
            let trimmed = line.trim();
            if let Some(head) = trimmed.strip_prefix("## ") {
                let head = head.trim();
                if let Some(name) = head.strip_prefix("lorm-repro/") {
                    current = Some(name.to_string());
                    schemas.entry(name.to_string()).or_insert((Vec::new(), lineno));
                } else {
                    current = None;
                }
                continue;
            }
            let Some(section) = &current else { continue };
            if let Some(rest) = trimmed.strip_prefix("- `") {
                if let Some(end) = rest.find('`') {
                    let key = &rest[..end];
                    if !key.is_empty() {
                        schemas.get_mut(section).unwrap().0.push((key.to_string(), lineno));
                    }
                }
            }
        }
        SchemasDoc { schemas }
    }
}

/// JSON keys appearing in a string-literal body: `"ident":` patterns
/// (whitespace tolerated before the colon), with escaped quotes
/// normalized first.
fn json_keys(lit: &str) -> Vec<String> {
    let norm = lit.replace("\\\"", "\"");
    let b: Vec<char> = norm.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] != '"' {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == '_') {
            j += 1;
        }
        if j > i + 1 && j < b.len() && b[j] == '"' {
            let mut k = j + 1;
            while k < b.len() && (b[k] == ' ' || b[k] == '\t') {
                k += 1;
            }
            if k < b.len() && b[k] == ':' {
                out.push(b[i + 1..j].iter().collect());
                i = k;
                continue;
            }
        }
        i = j.max(i + 1);
    }
    out
}

/// Schema names (`lorm-repro/<name>`) mentioned in a string literal.
fn schema_names(lit: &str) -> Vec<String> {
    let marker = "lorm-repro/";
    let mut out = Vec::new();
    let mut rest = lit;
    while let Some(pos) = rest.find(marker) {
        let tail = &rest[pos + marker.len()..];
        let end = tail
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '-' || *c == '_'))
            .map_or(tail.len(), |(i, _)| i);
        if end > 0 {
            out.push(tail[..end].to_string());
        }
        rest = &tail[end..];
    }
    out
}

/// Lint 9 — schema drift (workspace-level). A *root* is a non-test
/// library function whose body mentions a `lorm-repro/<name>` schema
/// string. The keys that root emits are the union of `"key":` patterns
/// in string literals across the root and every function reachable from
/// it in the call graph. Both directions are checked against
/// `docs/SCHEMAS.md`: emitted-but-undocumented keys anchor at the
/// emitting literal; documented-but-never-emitted keys (and documented
/// schemas with no emitter) anchor in the doc itself.
pub fn schema_drift(
    files: &[(&FileCtx, &Lexed, &ItemTree)],
    graph: &CallGraph,
    doc: Option<&str>,
) -> Vec<Diagnostic> {
    // Node id → the (file, fn) that owns it, via exact (file, line) match.
    let mut node_of: BTreeMap<(String, u32), usize> = BTreeMap::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        node_of.insert((node.file.clone(), node.line), id);
    }
    // Per-node emitted keys (key, file, line) and per-node schema roots.
    let mut keys_of: BTreeMap<usize, Vec<(String, String, u32)>> = BTreeMap::new();
    struct Root {
        node: usize,
        schema: String,
        file: String,
        line: u32,
    }
    let mut roots: Vec<Root> = Vec::new();
    for (ctx, lexed, items) in files {
        if ctx.class != FileClass::Lib {
            continue;
        }
        for f in &items.fns {
            if f.is_test {
                continue;
            }
            let Some(&node) = node_of.get(&(ctx.rel_path.clone(), f.line)) else { continue };
            let Some((body_start, body_end)) = f.body else { continue };
            for t in &lexed.toks[body_start..body_end.min(lexed.toks.len())] {
                if t.kind != TokKind::Str {
                    continue;
                }
                for key in json_keys(&t.text) {
                    keys_of.entry(node).or_default().push((key, ctx.rel_path.clone(), t.line));
                }
                for schema in schema_names(&t.text) {
                    roots.push(Root { node, schema, file: ctx.rel_path.clone(), line: t.line });
                }
            }
        }
    }

    // Aggregate per schema: every root's closure keys, first-seen site.
    struct Emitted {
        root_file: String,
        root_line: u32,
        keys: BTreeMap<String, (String, u32)>,
    }
    let mut emitted: BTreeMap<String, Emitted> = BTreeMap::new();
    for root in &roots {
        let entry = emitted.entry(root.schema.clone()).or_insert(Emitted {
            root_file: root.file.clone(),
            root_line: root.line,
            keys: BTreeMap::new(),
        });
        // BFS over the call graph from the root.
        let mut seen = vec![false; graph.nodes.len()];
        let mut queue = vec![root.node];
        seen[root.node] = true;
        while let Some(id) = queue.pop() {
            if let Some(keys) = keys_of.get(&id) {
                for (key, file, line) in keys {
                    entry.keys.entry(key.clone()).or_insert((file.clone(), *line));
                }
            }
            for &next in graph.callees(id) {
                if !seen[next] {
                    seen[next] = true;
                    queue.push(next);
                }
            }
        }
    }

    let doc = doc.map(SchemasDoc::parse);
    let mut out = Vec::new();
    const DOC_PATH: &str = "docs/SCHEMAS.md";
    for (schema, em) in &emitted {
        let documented = doc.as_ref().and_then(|d| d.schemas.get(schema));
        let Some((doc_keys, _)) = documented else {
            out.push(Diagnostic {
                lint: "schema-drift".into(),
                file: em.root_file.clone(),
                line: em.root_line,
                message: format!(
                    "schema `{schema}` is emitted here but has no `## ...{schema}` section in \
                     {DOC_PATH}",
                ),
                trace: None,
            });
            continue;
        };
        for (key, (file, line)) in &em.keys {
            if !doc_keys.iter().any(|(k, _)| k == key) {
                out.push(Diagnostic {
                    lint: "schema-drift".into(),
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "key \"{key}\" is emitted for schema `{schema}` but not documented in \
                         {DOC_PATH}",
                    ),
                    trace: None,
                });
            }
        }
        for (key, doc_line) in doc_keys {
            if !em.keys.contains_key(key) {
                out.push(Diagnostic {
                    lint: "schema-drift".into(),
                    file: DOC_PATH.into(),
                    line: *doc_line,
                    message: format!(
                        "key \"{key}\" is documented for schema `{schema}` but never emitted by \
                         its serializer's call closure",
                    ),
                    trace: None,
                });
            }
        }
    }
    if let Some(doc) = &doc {
        for (schema, (_, section_line)) in &doc.schemas {
            if !emitted.contains_key(schema) {
                out.push(Diagnostic {
                    lint: "schema-drift".into(),
                    file: DOC_PATH.into(),
                    line: *section_line,
                    message: format!(
                        "schema `{schema}` is documented but no library serializer emits it",
                    ),
                    trace: None,
                });
            }
        }
    }
    out
}

/// Names bound to floats in this file: `NAME : f64|f32` (fields, params,
/// annotated lets) and `let mut NAME = <rhs containing a float literal or
/// f64/f32 mention before the terminating `;`>`.
fn collect_float_names(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    let is_float_ty = |t: &Tok| t.is_ident("f64") || t.is_ident("f32");
    let is_float_num = |t: &Tok| {
        t.kind == TokKind::Num
            && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32"))
    };
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `NAME : f64`
        if i + 2 < toks.len() && toks[i + 1].is_punct(':') && is_float_ty(&toks[i + 2]) {
            names.push(toks[i].text.clone());
            continue;
        }
        // `let mut NAME = <...float...>;`
        if toks[i].is_ident("let")
            && i + 3 < toks.len()
            && toks[i + 1].is_ident("mut")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 3].is_punct('=')
        {
            let mut depth = 0i32;
            for t in &toks[i + 4..] {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                } else if is_float_num(t) || is_float_ty(t) {
                    names.push(toks[i + 2].text.clone());
                    break;
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Parse `lint:allow(<name>): <reason>` directives out of the comment
/// stream and resolve each to its target line (the comment's own line for
/// trailing comments, otherwise the next line bearing a token).
fn parse_suppressions(comments: &[Comment], toks: &[Tok]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/**`) only *describe* the directive
        // syntax; a real directive is a plain comment.
        if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
            continue;
        }
        let Some(pos) = c.text.find("lint:allow(") else { continue };
        let rest = &c.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let name = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let has_reason = after.starts_with(':') && !after[1..].trim().is_empty();
        let trailing = toks.iter().any(|t| t.line == c.line);
        let target_line = if trailing {
            c.line
        } else {
            toks.iter().map(|t| t.line).filter(|&l| l > c.line).min().unwrap_or(c.line)
        };
        out.push(Suppression { name, has_reason, line: c.line, target_line, used: false });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_lib(src: &str) -> FileReport {
        let ctx = FileCtx {
            crate_dir: "resource".into(),
            class: FileClass::Lib,
            rel_path: "crates/resource/src/x.rs".into(),
        };
        lint_file(&ctx, src)
    }

    fn names(r: &FileReport) -> Vec<&str> {
        r.diagnostics.iter().map(|d| d.lint.as_str()).collect()
    }

    #[test]
    fn test_dir_files_are_exempt_from_everything() {
        let ctx = FileCtx {
            crate_dir: "resource".into(),
            class: FileClass::TestDir,
            rel_path: "crates/resource/tests/t.rs".into(),
        };
        let r = lint_file(&ctx, "fn t() { let m = HashMap::new(); m.get(0).unwrap(); }");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn bin_files_skip_panic_hygiene_but_sim_bins_do_not_exist() {
        let ctx = FileCtx {
            crate_dir: "bench".into(),
            class: FileClass::Bin,
            rel_path: "crates/bench/src/bin/repro.rs".into(),
        };
        let r = lint_file(&ctx, "fn main() { foo().unwrap(); }");
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn non_sim_crates_keep_hash_maps() {
        let ctx = FileCtx {
            crate_dir: "xtask".into(),
            class: FileClass::Lib,
            rel_path: "crates/xtask/src/x.rs".into(),
        };
        let r = lint_file(&ctx, "use std::collections::HashMap;");
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn float_let_mut_with_cast_is_tracked() {
        let r = sim_lib("fn f(n: usize) -> f64 { let mut acc = n as f64; acc += 1.5; acc }");
        assert_eq!(names(&r), ["float-accumulate"]);
    }

    #[test]
    fn integer_accumulation_is_fine() {
        let r = sim_lib("fn f() -> usize { let mut n = 0usize; n += 1; n }");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn suppression_on_preceding_line_applies() {
        let src = "fn f() -> u64 {\n    // lint:allow(panic-hygiene): value is checked above\n    x.unwrap()\n}";
        let ctx = FileCtx {
            crate_dir: "analysis".into(),
            class: FileClass::Lib,
            rel_path: "crates/analysis/src/x.rs".into(),
        };
        let r = lint_file(&ctx, src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressions_used, 1);
    }

    #[test]
    fn traced_route_in_sim_lib_is_flagged() {
        let r = sim_lib("fn f(o: &O) { let r = o.route(x, k); }");
        assert_eq!(names(&r), ["route-path-alloc"]);
    }

    #[test]
    fn route_stats_and_borrowed_live_nodes_are_fine() {
        let r = sim_lib("fn f(o: &O) { let s = o.route_stats(x, k); let l = o.live_nodes(); }");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn fault_aware_fast_paths_are_fine() {
        // The fault-injection layer's entry points are allocation-free
        // twins of `route_stats` and must not trip the exact-ident
        // `.route(` matcher: `route_stats_faulty`, `route_with_retry`,
        // the probe's `lookup` and `walk` hooks, and `probe_step`.
        let r = sim_lib(
            "fn f(o: &O, p: &FaultPlan, a: &mut FaultAccount) {\n    \
             let s = o.route_stats_faulty(x, k, p, m);\n    \
             let t = dht_core::route_with_retry(o, x, k, p, m, a);\n    \
             let l = probe.lookup(o, x, k, 0, m);\n    \
             let w = probe.walk(&h.range_walk(lo, hi, 0), s, m, out);\n    \
             let g = dht_core::probe_step(p, m, 1, n, a);\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn live_nodes_clone_is_flagged_but_suppressible() {
        let r = sim_lib("fn f(o: &O) { let l = o.live_nodes_cloned(); }");
        assert_eq!(names(&r), ["route-path-alloc"]);
        let r = sim_lib(
            "fn f(o: &mut O) {\n    // lint:allow(route-path-alloc): o is mutated while iterating\n    let l = o.live_nodes_cloned();\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressions_used, 1);
    }

    #[test]
    fn route_blessed_files_may_trace() {
        let ctx = FileCtx {
            crate_dir: "sim".into(),
            class: FileClass::Lib,
            rel_path: "crates/sim/src/experiments/hopdist.rs".into(),
        };
        let r = lint_file(&ctx, "fn f(o: &O) { let r = o.route(x, k); }");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn route_in_test_region_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(o: &O) { o.route(x, k); }\n}";
        let r = sim_lib(src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn build_in_loop_is_flagged() {
        let r = sim_lib(
            "fn f(cfgs: &[SimConfig]) {\n    for c in cfgs {\n        let b = build_system(s, &w, c);\n    }\n}",
        );
        assert_eq!(names(&r), ["bed-rebuild"]);
        let r = sim_lib(
            "fn f(rates: &[f64]) {\n    for _r in rates {\n        let n = Chord::build(64, cfg);\n    }\n}",
        );
        assert_eq!(names(&r), ["bed-rebuild"]);
    }

    #[test]
    fn build_outside_loop_is_fine() {
        let r = sim_lib(
            "fn f() {\n    let b = build_system(s, &w, &c);\n    let n = TestBed::new(c);\n    for q in qs {\n        b.query(q);\n    }\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let r = sim_lib(
            "impl ResourceDiscovery for Lorm {\n    fn f(&self) {\n        let n = Chord::build(64, cfg);\n    }\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn build_in_loop_is_suppressible_and_exempt_in_blessed_files() {
        let r = sim_lib(
            "fn f(cfgs: &[SimConfig]) {\n    for c in cfgs {\n        // lint:allow(bed-rebuild): each sweep point varies the config\n        let b = build_system(s, &w, c);\n    }\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressions_used, 1);
        let ctx = FileCtx {
            crate_dir: "sim".into(),
            class: FileClass::Lib,
            rel_path: "crates/sim/src/cache.rs".into(),
        };
        let r = lint_file(&ctx, "fn f() { loop { let b = build_system(s, &w, &c); break; } }");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn bulk_mode_ctors_in_loops_are_flagged() {
        // The O(n log n) bulk constructors added by the scale work are
        // still full overlay builds — looping over them is the same
        // amortization bug as looping over `::build`.
        let r = sim_lib(
            "fn f(seeds: &[u64]) {\n    for s in seeds {\n        let n = Chord::build_with_mode(64, cfg, mode);\n    }\n}",
        );
        assert_eq!(names(&r), ["bed-rebuild"]);
        let r = sim_lib(
            "fn f(seeds: &[u64]) {\n    for s in seeds {\n        let m = Mercury::new_with_mode(64, &sp, cfg, mode);\n    }\n}",
        );
        assert_eq!(names(&r), ["bed-rebuild"]);
        // Mercury's own construction module is blessed: one ChordHost
        // per hub is its defining structure, not an amortization bug.
        let ctx = FileCtx {
            crate_dir: "baselines".into(),
            class: FileClass::Lib,
            rel_path: "crates/baselines/src/mercury.rs".into(),
        };
        let r = lint_file(
            &ctx,
            "fn f() { for h in 0..m { let hub = ChordHost::build_with_mode(n, s, mode); } }",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn non_ctor_assoc_calls_in_loops_are_fine() {
        let r = sim_lib(
            "fn f() {\n    while go {\n        let id = Chord::ids(7);\n        let s = System::Lorm;\n    }\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn blessed_files_may_accumulate_floats() {
        let ctx = FileCtx {
            crate_dir: "dht-core".into(),
            class: FileClass::Lib,
            rel_path: "crates/dht-core/src/stats.rs".into(),
        };
        let r = lint_file(&ctx, "fn f(x: f64) { let mut total = 0.0; total += x; }");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn county_cast_to_narrow_is_flagged() {
        let r = sim_lib("fn f(n: usize) -> u32 { n as u32 }");
        assert_eq!(names(&r), ["cast-truncation"]);
        let r = sim_lib("fn f(node_count: usize) -> u16 { node_count as u16 }");
        assert_eq!(names(&r), ["cast-truncation"]);
        let r = sim_lib("fn f(v: &[u8]) -> u32 { v.len() as u32 }");
        assert_eq!(names(&r), ["cast-truncation"]);
    }

    #[test]
    fn widening_and_non_county_casts_are_fine() {
        // Widening target, tuple-index projection (prev token is Num),
        // and a non-county name: none should fire.
        let r = sim_lib(
            "fn f(n: usize, j: usize, idx: NodeIdx) -> u64 {\n    \
             let a = n as u64;\n    let b = idx.0 as u32;\n    let c = j as u32;\n    a\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn county_cast_is_suppressible() {
        let r = sim_lib(
            "fn f(n: usize) -> u32 {\n    // lint:allow(cast-truncation): n <= 2^20 by config validation\n    n as u32\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressions_used, 1);
    }

    #[test]
    fn unguarded_arena_read_is_flagged() {
        let r = sim_lib("fn f(&self, i: usize) -> u32 { self.fingers[i] }");
        assert_eq!(names(&r), ["sentinel-guard"]);
    }

    #[test]
    fn guarded_arena_read_is_fine() {
        let r = sim_lib(
            "fn f(&self, i: usize) -> Option<u32> {\n    \
             let v = self.fingers[i];\n    if v == NO_LINK { None } else { Some(v) }\n}",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn pure_arena_store_is_exempt() {
        let r = sim_lib("fn f(&mut self, i: usize, v: u32) { self.fingers[i] = v; }");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        // `==` comparison is a read, not a store.
        let r = sim_lib("fn f(&self, i: usize) -> bool { self.succs[i] == 3 }");
        assert_eq!(names(&r), ["sentinel-guard"]);
    }

    #[test]
    fn json_keys_extracts_escaped_and_raw() {
        assert_eq!(json_keys(r#"{\"schema\": \"x\", \"n\": 3}"#), ["schema", "n"]);
        assert_eq!(json_keys(r#"  "elapsed_ms": {},"#), ["elapsed_ms"]);
        // Values and non-key strings don't count.
        assert!(json_keys(r#"\"lorm-repro/bench-v1\""#).is_empty());
    }

    #[test]
    fn schema_names_finds_all_mentions() {
        assert_eq!(schema_names(r#"{\"schema\": \"lorm-repro/bench-v1\"}"#), ["bench-v1"]);
        assert!(schema_names("no schemas here").is_empty());
    }

    #[test]
    fn schemas_doc_parses_sections_and_keys() {
        let doc = "# Schemas\n\n## lorm-repro/bench-v1\n\nprose\n\n- `schema`\n- `rows`\n\n## other\n- `ignored`\n";
        let parsed = SchemasDoc::parse(doc);
        assert_eq!(parsed.schemas.len(), 1);
        let (keys, section_line) = &parsed.schemas["bench-v1"];
        assert_eq!(*section_line, 3);
        assert_eq!(keys.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), ["schema", "rows"]);
    }

    #[test]
    fn schema_drift_checks_both_directions() {
        use crate::graph::CallGraph;
        use crate::items::parse_items;
        let src = r#"
            pub fn render(n: usize) -> String {
                let mut s = String::from("{\"schema\": \"lorm-repro/test-v1\",");
                s.push_str(&kv(n));
                s
            }
            fn kv(n: usize) -> String {
                format!("\"count\": {}, \"extra\": 1", n)
            }
        "#;
        let ctx = FileCtx {
            crate_dir: "bench".into(),
            class: FileClass::Lib,
            rel_path: "crates/bench/src/x.rs".into(),
        };
        let lexed = lex(src);
        let items = parse_items(&lexed.toks);
        let graph = CallGraph::build(&[(&ctx, &lexed.toks[..], &items)]);
        let files = [(&ctx, &lexed, &items)];

        // Doc documents `schema`, `count`, and a stale `rows`; the code
        // emits `extra` undocumented.
        let doc = "## lorm-repro/test-v1\n- `schema`\n- `count`\n- `rows`\n";
        let diags = schema_drift(&files, &graph, Some(doc));
        let labels: Vec<(&str, &str)> =
            diags.iter().map(|d| (d.file.as_str(), d.lint.as_str())).collect();
        assert_eq!(
            labels,
            [("crates/bench/src/x.rs", "schema-drift"), ("docs/SCHEMAS.md", "schema-drift")],
            "{diags:?}"
        );
        assert!(diags[0].message.contains("\"extra\""), "{}", diags[0].message);
        assert!(diags[1].message.contains("\"rows\""), "{}", diags[1].message);

        // Matching doc: clean.
        let doc = "## lorm-repro/test-v1\n- `schema`\n- `count`\n- `extra`\n";
        assert!(schema_drift(&files, &graph, Some(doc)).is_empty());

        // Missing section: anchored at the emitting literal; documented
        // orphan section: anchored in the doc.
        let diags = schema_drift(&files, &graph, Some("## lorm-repro/ghost-v1\n- `schema`\n"));
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.file == "crates/bench/src/x.rs" && d.message.contains("no `## ")));
        assert!(diags
            .iter()
            .any(|d| d.file == "docs/SCHEMAS.md" && d.message.contains("no library serializer")));
    }
}
