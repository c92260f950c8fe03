//! Per-hop network latency models.
//!
//! The paper measures *logical* hops; deployments care about wall-clock
//! query latency. A [`LatencyModel`] assigns each overlay hop a sampled
//! delay so route traces can be replayed into latency distributions (the
//! `latency` experiment). Sub-queries issued in parallel complete at the
//! *maximum* of their latencies; sequential plans pay the *sum* — which is
//! exactly the trade `grid_resource::QueryPlan` exposes.

use rand::Rng;

/// A distribution of one-hop network delays, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every hop costs the same (useful for sanity checks: latency is then
    /// proportional to hop count).
    Constant {
        /// Per-hop delay in ms.
        ms: f64,
    },
    /// Uniform in `[min_ms, max_ms]` — a bounded-jitter LAN/testbed model.
    Uniform {
        /// Minimum per-hop delay.
        min_ms: f64,
        /// Maximum per-hop delay.
        max_ms: f64,
    },
    /// Exponential with the given mean — the classic heavy-ish tail of
    /// wide-area overlay hops.
    Exponential {
        /// Mean per-hop delay.
        mean_ms: f64,
    },
}

impl LatencyModel {
    /// Sample one hop's delay.
    pub fn sample_hop<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            LatencyModel::Constant { ms } => ms,
            LatencyModel::Uniform { min_ms, max_ms } => {
                debug_assert!(min_ms <= max_ms);
                rng.gen_range(min_ms..=max_ms)
            }
            LatencyModel::Exponential { mean_ms } => {
                crate::sampling::exponential(rng, 1.0 / mean_ms)
            }
        }
    }

    /// Sample the total delay of a path of `hops` hops.
    pub fn sample_path<R: Rng + ?Sized>(&self, hops: usize, rng: &mut R) -> f64 {
        (0..hops).map(|_| self.sample_hop(rng)).sum()
    }

    /// Expected per-hop delay.
    pub fn mean(&self) -> f64 {
        match *self {
            LatencyModel::Constant { ms } => ms,
            LatencyModel::Uniform { min_ms, max_ms } => (min_ms + max_ms) / 2.0,
            LatencyModel::Exponential { mean_ms } => mean_ms,
        }
    }

    /// A typical wide-area default: exponential hops with a 50 ms mean
    /// (the scale of inter-site grid links).
    pub fn wan() -> Self {
        LatencyModel::Exponential { mean_ms: 50.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x1A7)
    }

    #[test]
    fn constant_is_deterministic() {
        let m = LatencyModel::Constant { ms: 10.0 };
        let mut r = rng();
        assert_eq!(m.sample_hop(&mut r), 10.0);
        assert_eq!(m.sample_path(7, &mut r), 70.0);
        assert_eq!(m.mean(), 10.0);
    }

    #[test]
    fn uniform_stays_in_bounds_and_centers() {
        let m = LatencyModel::Uniform { min_ms: 5.0, max_ms: 15.0 };
        let mut r = rng();
        let mut total = 0.0;
        for _ in 0..10_000 {
            let x = m.sample_hop(&mut r);
            assert!((5.0..=15.0).contains(&x));
            total += x;
        }
        assert!((total / 10_000.0 - m.mean()).abs() < 0.2);
    }

    #[test]
    fn exponential_mean_matches() {
        let m = LatencyModel::wan();
        let mut r = rng();
        let n = 20_000;
        let total: f64 = (0..n).map(|_| m.sample_hop(&mut r)).sum();
        assert!((total / n as f64 - 50.0).abs() < 2.0);
    }

    #[test]
    fn empty_path_costs_nothing() {
        let mut r = rng();
        assert_eq!(LatencyModel::wan().sample_path(0, &mut r), 0.0);
    }
}
