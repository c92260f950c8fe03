//! Regenerate the paper's tables and figures. See `bench` crate docs.
#![allow(clippy::print_stdout)] // terminal output is this binary's UI

use bench::{parse_args, render_json, run_artifact_report, ArtifactRun};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation (and the bytes moving in each direction)
/// so `repro perf` can report allocations-per-lookup and `repro scale`
/// can report live bytes-per-node. Counting is a handful of relaxed
/// atomic increments; the `System` allocator does the real work.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Monotonic total bytes ever allocated (never decremented; live bytes
/// are `ALLOC_BYTES - FREED_BYTES`).
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Monotonic total bytes ever freed.
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates allocation and deallocation verbatim to `System`;
// the only addition is relaxed counter bumps, which cannot violate any
// allocator invariant.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: &mut dyn FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn heap_bytes() -> (u64, u64) {
    (ALLOC_BYTES.load(Ordering::Relaxed), FREED_BYTES.load(Ordering::Relaxed))
}

fn main() {
    let (cfg, artifacts) = match parse_args(std::env::args().skip(1)) {
        Ok(plan) => plan,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    if cfg.perf {
        println!(
            "# LORM perf baseline — {} mode (seed {})\n",
            if cfg.quick { "quick" } else { "full (paper §V)" },
            cfg.seed
        );
        let kernels = bench::perf::run_perf(&cfg, Some(count_allocs));
        println!("{}", bench::perf::render_perf_table(&kernels));
        if let Some(path) = &cfg.json {
            let json = bench::perf::render_perf_json(&cfg, &kernels);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("(perf metrics written to {})", path.display());
        }
        if let Some(path) = &cfg.baseline {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("failed to read baseline {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let base = match bench::perf::parse_baseline(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("failed to parse baseline {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let deltas = bench::perf::diff_baseline(&kernels, &base);
            println!("{}", bench::perf::render_delta_table(path, &deltas));
            if deltas.iter().any(|d| d.regressed) {
                eprintln!(
                    "perf regression: at least one kernel slowed past its gate \
                     ({:.0}% query / {:.0}% build) vs {}",
                    (bench::perf::REGRESSION_THRESHOLD - 1.0) * 100.0,
                    (bench::perf::BUILD_REGRESSION_THRESHOLD - 1.0) * 100.0,
                    path.display()
                );
                std::process::exit(1);
            }
        }
        return;
    }
    if cfg.scale {
        println!(
            "# LORM scale sweep — {} mode (seed {})\n",
            if cfg.quick { "quick (1k-50k)" } else { "full (1k-1M)" },
            cfg.seed
        );
        let run = bench::scale::run_scale(&cfg, Some(heap_bytes));
        println!("{}", bench::scale::render_scale_table(&run));
        if let Some(path) = &cfg.json {
            let json = bench::scale::render_scale_json(&cfg, &run);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("(scale metrics written to {})", path.display());
        }
        if run.checks.iter().any(|c| !c.ok) {
            eprintln!("scale sweep: at least one growth check failed (see table above)");
            std::process::exit(1);
        }
        // Same per-kernel wall-clock gate the perf mode applies: the
        // scale export shares the perf-v2 kernel array, so a committed
        // BENCH_scale_quick.json diffs with the identical machinery.
        if let Some(path) = &cfg.baseline {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("failed to read baseline {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let base = match bench::perf::parse_baseline(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("failed to parse baseline {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let deltas = bench::perf::diff_baseline(&run.kernels, &base);
            println!("{}", bench::perf::render_delta_table(path, &deltas));
            if deltas.iter().any(|d| d.regressed) {
                eprintln!(
                    "scale regression: at least one kernel slowed past its gate \
                     ({:.0}% query / {:.0}% build) vs {}",
                    (bench::perf::REGRESSION_THRESHOLD - 1.0) * 100.0,
                    (bench::perf::BUILD_REGRESSION_THRESHOLD - 1.0) * 100.0,
                    path.display()
                );
                std::process::exit(1);
            }
        }
        return;
    }
    if cfg.durability {
        println!(
            "# LORM durability sweep — {} mode (seed {})\n",
            if cfg.quick { "quick" } else { "full (paper §V)" },
            cfg.seed
        );
        let d = bench::durability::run_durability(&cfg, &sim::BedCache::new());
        println!("{d}");
        if let Some(path) = &cfg.json {
            let json = bench::durability::render_durability_json(&cfg, &d);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("(durability metrics written to {})", path.display());
        }
        let violations = d.k_monotonicity_violations();
        if !violations.is_empty() {
            eprintln!(
                "durability sweep: data loss was not monotone in the replication \
                 degree ({} violation(s), see notes above)",
                violations.len()
            );
            std::process::exit(1);
        }
        if d.theory_failures() > 0 {
            eprintln!(
                "durability sweep: {} churn theory check(s) fell outside their \
                 tolerance bands (see table above)",
                d.theory_failures()
            );
            std::process::exit(1);
        }
        return;
    }
    if cfg.chaos {
        println!(
            "# LORM chaos sweep — {} mode (seed {})\n",
            if cfg.quick { "quick" } else { "full (paper §V)" },
            cfg.seed
        );
        let c = bench::chaos::run_chaos(&cfg, &sim::BedCache::new());
        println!("{c}");
        if let Some(path) = &cfg.json {
            let json = bench::chaos::render_chaos_json(&cfg, &c);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("(chaos metrics written to {})", path.display());
        }
        return;
    }
    println!(
        "# LORM reproduction — {} mode (seed {})\n",
        if cfg.quick { "quick" } else { "full (paper §V)" },
        cfg.seed
    );
    // One cache for the whole invocation: artifacts sharing a bed
    // configuration (fig4 + fig5 + t410 at the same scale, say) build it
    // once and reuse it.
    let cache = sim::BedCache::new();
    let mut runs: Vec<ArtifactRun> = Vec::with_capacity(artifacts.len());
    for a in artifacts {
        let started = std::time::Instant::now();
        let report = run_artifact_report(a, &cfg, &cache);
        let elapsed = started.elapsed();
        println!("{report}");
        println!("(elapsed: {elapsed:.1?})\n");
        runs.push(ArtifactRun { artifact: a, report, elapsed_ms: elapsed.as_secs_f64() * 1e3 });
    }
    if let Some(path) = &cfg.json {
        let json = render_json(&cfg, &runs);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("(metrics written to {})", path.display());
    }
}
