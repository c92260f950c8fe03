//! # dht-core — shared substrate for the LORM reproduction
//!
//! This crate provides everything the overlay simulators (`chord`,
//! `cycloid`) and the resource-discovery systems built on top of them
//! share:
//!
//! * **Ring arithmetic** over a 64-bit circular identifier space
//!   ([`ring`]), including the interval predicates Chord-style protocols
//!   are built from.
//! * **Hashing** ([`hashing`]): a seeded, platform-stable consistent hash
//!   `H` (used to place attributes), and the locality-preserving hash `LPH`
//!   of MAAN/LORM (used to place attribute *values* so that range queries
//!   become contiguous walks).
//! * **Samplers** ([`sampling`]): Bounded Pareto (the paper's workload
//!   distribution), Zipf, and deterministic RNG plumbing so every
//!   experiment is reproducible from a seed.
//! * **Metrics** ([`stats`]): streaming summaries, exact percentiles
//!   (the paper reports 1st/99th percentiles of directory size), and load
//!   distributions.
//! * **Routing traces** ([`trace`]): hop-accurate route results, the unit
//!   in which every figure of the paper is measured.
//! * **Overlay trait** ([`overlay`]): the narrow interface a DHT overlay
//!   must implement to be driven by the experiment engine.
//! * **Query probes** ([`probe`]): the one strategy through which every
//!   system's query body routes and walks — plain or under a fault plan —
//!   with each overlay's walk described once as a [`Walk`].
//!
//! Everything here is deterministic: the same seed produces the same
//! network, the same workload and the same measurements.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
pub mod fault;
pub mod hashing;
pub mod latency;
pub mod overlay;
pub mod probe;
pub mod replication;
pub mod ring;
pub mod sampling;
pub mod stats;
pub mod trace;

pub use cache::RouteCache;
pub use error::DhtError;
pub use fault::{
    check_forward, probe_step, route_with_retry, sub_msg_id, walk_msg_id, FaultAccount, FaultPlan,
    FaultSink, MsgId,
};
pub use hashing::{lex_hash, lex_prefix_end, ConsistentHash, LocalityHash};
pub use latency::LatencyModel;
pub use overlay::{BuildMode, NodeIdx, Overlay};
pub use probe::{Faulty, Plain, Probe, Walk};
pub use replication::{replica_targets, RepairStats};
pub use ring::{clockwise_dist, in_interval_co, in_interval_oc, in_interval_oo, ring_dist};
pub use sampling::{BoundedPareto, SeedSpawner, Zipf};
pub use stats::{Histogram, LoadDist, Percentiles, Summary};
pub use trace::{Forward, HopCount, LookupTally, RouteResult, RouteSink, RouteStats};
