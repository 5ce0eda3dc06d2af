//! The benchmark's workloads and the seeded open-loop load generator.

use ironman_ot::FerretParams;
use std::time::Duration;

/// How the one client thread drives the service.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Closed loop: one subscription of `sizes[0]`-COT chunks, drained
    /// as fast as chunks arrive.
    Stream,
    /// Open loop: one-shot requests on seeded Poisson arrivals at
    /// `rate_per_s`, sizes drawn uniformly from `sizes`.
    Request { rate_per_s: f64 },
}

/// One named traffic mix against one parameter set.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub params: FerretParams,
    pub load: Load,
    /// Batch sizes the client asks for.
    pub sizes: &'static [usize],
    /// Service spawns per untraced run; `setup_s` is their median.
    pub setup_spawns: usize,
}

/// Request sizes of the open loop: a PPML layer's worth of COTs.
pub const REQUEST_SIZES: [usize; 4] = [1024, 2048, 4096, 8192];

/// Every workload: the two `BENCHMARK.json` lists, in its order, then
/// `stream_toy`, which runs by name only (see `METRICS.md`).
pub fn all() -> [Workload; 3] {
    [
        Workload {
            name: "stream_2pow20",
            params: FerretParams::OT_2POW20,
            load: Load::Stream,
            sizes: &[65_536],
            setup_spawns: 5,
        },
        Workload {
            name: "request_2pow20",
            params: FerretParams::OT_2POW20,
            load: Load::Request { rate_per_s: 500.0 },
            sizes: &REQUEST_SIZES,
            setup_spawns: 5,
        },
        Workload {
            name: "stream_toy",
            params: FerretParams::toy(),
            load: Load::Stream,
            sizes: &[2_000],
            setup_spawns: 25,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// One scheduled request: when it is due (from the start of the timed
/// phase) and how many COTs it asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub size: usize,
}

/// SplitMix64: a small, seedable generator whose output depends only on
/// the seed, so a schedule is reproducible on any host.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals at `rate_per_s` over `span`, each with a size drawn
/// uniformly from `sizes`. The service only ever sees this schedule.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    sizes: &[usize],
    span: Duration,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * end * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= end {
            return out;
        }
        let size = sizes[(rng.next_u64() % sizes.len() as u64) as usize];
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            size,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPAN: Duration = Duration::from_secs(60);

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = poisson_schedule(7, 500.0, &REQUEST_SIZES, SPAN);
        let b = poisson_schedule(7, 500.0, &REQUEST_SIZES, SPAN);
        let c = poisson_schedule(8, 500.0, &REQUEST_SIZES, SPAN);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_offered_rate_matches_500_per_s() {
        for seed in 0..8 {
            let s = poisson_schedule(seed, 500.0, &REQUEST_SIZES, SPAN);
            let rate = s.len() as f64 / SPAN.as_secs_f64();
            // 30 000 expected arrivals: one standard deviation is ~0.6%.
            assert!((rate / 500.0 - 1.0).abs() < 0.03, "seed {seed}: {rate}/s");
            assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(s.iter().all(|a| REQUEST_SIZES.contains(&a.size)));
            let mean_size = s.iter().map(|a| a.size as f64).sum::<f64>() / s.len() as f64;
            assert!(
                (mean_size / 3840.0 - 1.0).abs() < 0.03,
                "seed {seed}: {mean_size}"
            );
        }
    }

    #[test]
    fn every_workload_resolves_by_name() {
        for w in all() {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
            assert!(!w.sizes.is_empty());
            assert!(w
                .sizes
                .iter()
                .all(|&n| n
                    <= ironman_ot::ferret::FerretConfig::recommended(w.params).usable_outputs()));
        }
        assert!(by_name("nope").is_none());
    }
}
