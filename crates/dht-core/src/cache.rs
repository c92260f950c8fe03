//! Zero-sized placeholder for the deleted route cache.
//!
//! No query path memoizes routes. [`RouteCache`] stays only because the
//! benchmark adapter (`perfbench/src/adapter.rs`) passes it to the
//! `*_cached` query entry points and reads its counters; it goes away
//! with ROADMAP item 1's change of the query trait to
//! `query(phys, q, &mut QueryCtx)`.

/// Stores nothing; every counter reads 0. Exists for the benchmark
/// adapter (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteCache;

impl RouteCache {
    /// The placeholder.
    pub fn new() -> Self {
        Self
    }

    /// Route lookups answered from cache: always 0.
    pub fn hits(&self) -> u64 {
        0
    }

    /// Route lookups that missed: always 0.
    pub fn misses(&self) -> u64 {
        0
    }

    /// Walks answered from cache: always 0.
    pub fn walk_hits(&self) -> u64 {
        0
    }

    /// Walks that missed: always 0.
    pub fn walk_misses(&self) -> u64 {
        0
    }
}
