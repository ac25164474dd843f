//! Open-loop load generation in virtual time.
//!
//! A closed-loop workload (netperf taking turns with the driver, `tar`
//! waiting for each sector) slows down when the server falls behind —
//! it can saturate a driver but never *overload* it. The experiments
//! that show where latency knees over need an **open-loop** arrival
//! process: request times are decided up front, independent of how the
//! server is doing, exactly like packets arriving on a wire.
//!
//! This module generates those arrival times. Everything is integer
//! virtual-time nanoseconds and everything is seeded:
//!
//! * **Determinism rule** — a generator called twice with the same seed
//!   and parameters returns *byte-identical* `Vec<u64>` schedules.
//!   Nothing here reads wall clocks, thread ids, or global state; the
//!   only entropy is [`SplitMix64`], and its stream is a pure function
//!   of the seed. The proptests in `tests/overload.rs` pin this.
//! * Arrival schedules are ascending and bounded by the horizon, so a
//!   driver can walk them with a single re-armed kernel timer
//!   ([`decaf_simkernel::Kernel::timer_arm_at`]).
//!
//! Three shapes cover the paper's workloads: [`uniform_schedule`]
//! (paced, netperf's steady stream), [`poisson_schedule`] (memoryless
//! arrivals, the classic open-loop null model), and [`burst_schedule`]
//! (clumped arrivals, `tar` handing the driver a readahead window of
//! sectors at once). [`merge_schedules`] interleaves several classes
//! into one time-ordered dispatch list.

/// SplitMix64: a tiny deterministic, seedable generator (the Table 4
/// patch stream draws from it too). Public because open-loop schedules
/// are part of the experiment *interface*: a test that wants to replay
/// the exact arrival stream only needs the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator. Equal seeds produce equal streams, always.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform float in the half-open unit interval `(0, 1]` — open at
    /// zero so `ln` is always finite.
    pub fn unit_open(&mut self) -> f64 {
        // 53 mantissa bits; +1 shifts the lattice off exact zero.
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// `rate_per_s` arrivals paced evenly across `horizon_ns`: arrival `i`
/// (1-based) lands at `i * horizon / n` — integer division per arrival,
/// so there is no cumulative drift and non-divisor rates are exact.
pub fn uniform_schedule(rate_per_s: u64, horizon_ns: u64) -> Vec<u64> {
    let n = count_for(rate_per_s, horizon_ns);
    (1..=n).map(|i| i * horizon_ns / n.max(1)).collect()
}

/// Poisson arrivals at `rate_per_s` over `horizon_ns`: exponential
/// inter-arrival gaps drawn from `seed`'s stream (inverse-CDF,
/// `-ln(u)/rate`), truncated at the horizon. The number of arrivals is
/// itself random (that is the point — clumps and lulls are what
/// separate an open-loop queue from a paced one), but it concentrates
/// around `rate × horizon`; the rate-tolerance proptest pins the
/// empirical rate within ±10 % at experiment scales.
pub fn poisson_schedule(seed: u64, rate_per_s: u64, horizon_ns: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    if rate_per_s == 0 {
        return out;
    }
    let mean_gap_ns = 1e9 / rate_per_s as f64;
    let mut t = 0u64;
    loop {
        let gap = (-rng.unit_open().ln() * mean_gap_ns).round() as u64;
        t = t.saturating_add(gap.max(1));
        if t > horizon_ns {
            return out;
        }
        out.push(t);
    }
}

/// Bursty arrivals: clumps of `burst` requests landing almost together
/// (members 100 ns apart — a readahead window of sectors hitting the
/// queue at once), with burst *epochs* Poisson at `rate_per_s / burst`
/// so the long-run rate still averages `rate_per_s`. The worst case for
/// an admission queue: instantaneous depth jumps by `burst` at a time.
pub fn burst_schedule(seed: u64, rate_per_s: u64, horizon_ns: u64, burst: u64) -> Vec<u64> {
    let burst = burst.max(1);
    let epochs = poisson_schedule(seed, rate_per_s / burst.max(1), horizon_ns);
    let mut out = Vec::new();
    for e in epochs {
        for i in 0..burst {
            let t = e.saturating_add(i * 100);
            if t <= horizon_ns {
                out.push(t);
            }
        }
    }
    // Two epochs can land closer than the clump width; keep the
    // schedule ascending so a single re-armed timer can walk it.
    out.sort_unstable();
    out
}

/// Merges per-class schedules into one ascending dispatch list of
/// `(arrival_ns, class)` pairs. Ties break by class order (stable), so
/// the merged order is as deterministic as the inputs.
pub fn merge_schedules<C: Copy>(classes: &[(C, Vec<u64>)]) -> Vec<(u64, C)> {
    let mut out: Vec<(u64, C)> = Vec::new();
    for (class, sched) in classes {
        out.extend(sched.iter().map(|&t| (t, *class)));
    }
    out.sort_by_key(|&(t, _)| t);
    out
}

/// Arrivals per virtual second a schedule actually realized — the
/// empirical rate the tolerance tests compare against the nominal one.
pub fn empirical_rate_per_s(schedule: &[u64], horizon_ns: u64) -> u64 {
    if horizon_ns == 0 {
        return 0;
    }
    (schedule.len() as u64).saturating_mul(1_000_000_000) / horizon_ns
}

fn count_for(rate_per_s: u64, horizon_ns: u64) -> u64 {
    ((rate_per_s as u128 * horizon_ns as u128) / 1_000_000_000) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_exact_for_non_divisor_rates() {
        let s = uniform_schedule(3_000, 1_000_000_000);
        assert_eq!(s.len(), 3_000);
        assert_eq!(*s.last().unwrap(), 1_000_000_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        // Half-horizon: half the arrivals, same pacing.
        assert_eq!(uniform_schedule(3_000, 500_000_000).len(), 1_500);
    }

    #[test]
    fn poisson_same_seed_is_byte_identical() {
        let a = poisson_schedule(42, 10_000, 10_000_000);
        let b = poisson_schedule(42, 10_000, 10_000_000);
        assert_eq!(a, b, "the determinism rule");
        let c = poisson_schedule(43, 10_000, 10_000_000);
        assert_ne!(a, c, "different seeds diverge");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(a.iter().all(|&t| t <= 10_000_000), "bounded");
    }

    #[test]
    fn burst_clumps_and_keeps_the_average_rate() {
        let s = burst_schedule(7, 80_000, 100_000_000, 8);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        // 8k arrivals nominal over 100 ms; Poisson epochs wobble, so
        // allow a wide band — the tight band lives in the proptest.
        let rate = empirical_rate_per_s(&s, 100_000_000);
        assert!(
            (40_000..=120_000).contains(&rate),
            "burst rate {rate}/s far from 80k/s"
        );
        // Clumping: at least one pair of arrivals 100 ns apart.
        assert!(s.windows(2).any(|w| w[1] - w[0] == 100));
    }

    #[test]
    fn merge_orders_and_labels() {
        let merged = merge_schedules(&[('a', vec![5, 30]), ('b', vec![10, 30])]);
        let times: Vec<u64> = merged.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![5, 10, 30, 30]);
        assert_eq!(merged[0].1, 'a');
        assert_eq!(
            merged[2].1, 'a',
            "ties keep class order — deterministic dispatch"
        );
    }
}
