//! Deterministic schedule exploration support.
//!
//! The sharded layers' invariants (home-channel pinning, descriptor and
//! URB conservation, completion-steering affinity, sector-run alias
//! freedom) must hold under *every* ordering of per-shard work, not
//! just the one a happy-path test happens to produce. The repo's
//! schedule-exploration harnesses — `tests/shard_sched.rs` for the NIC
//! side, `tests/storage_sched.rs` for storage — replay invariant checks
//! over exhaustively enumerated interleavings; this module is the
//! enumerator they share.
//!
//! Enumeration is lexicographic over multiset permutations: no
//! randomness, no seeds, every run produces the identical schedule list
//! — which is what makes a failing schedule a *reproducer*, not a
//! flake. ("Verifying Device Drivers with Pancake" makes the same
//! argument for pairing driver rewrites with systematic exploration:
//! the rewrite is only as trustworthy as the orderings it was checked
//! under.)
//!
//! Two layers sit on top of the raw enumerator:
//!
//! * **Spread selection** ([`interleavings_spread`]): capped enumeration
//!   with [`interleavings`] keeps only the lexicographic prefix, which
//!   for shard-indexed schedules means shard-0-heavy orderings — a
//!   `cap = 140` slice of the 2520-schedule 4-shard space never sees a
//!   shard-3-first ordering. The spread selector walks the *full*
//!   multiset-permutation index space with a coprime stride
//!   (seedless, reproducible) and unranks each selected index, so a
//!   capped sweep still samples every region of the space.
//! * **Fault plans** ([`fault_plans`], [`fault_sweep`]): every selected
//!   schedule is crossed with every `(step, shard)` single-fault
//!   injection point, plus a deterministically capped set of
//!   double-fault plans, and replayed through a caller-supplied closure
//!   that injects `recover_shard` at the planned points and asserts the
//!   full differential oracle. Faults become part of the explored
//!   ordering space instead of hand-written afterthoughts.

/// Enumerates interleavings of `counts[s]` ops per shard `s` in
/// lexicographic order, stopping at `cap` schedules. With a large
/// enough cap this is the complete multiset-permutation set
/// ([`schedule_count`] tells how many that is). For a cap smaller than
/// the space this keeps only the lexicographic (shard-0-heavy) prefix —
/// use [`interleavings_spread`] when a capped sweep should sample the
/// whole space instead.
///
/// Each schedule is a vector of shard indices; schedule position `t`
/// says whose op runs at step `t`.
pub fn interleavings(counts: &[usize], cap: usize) -> Vec<Vec<usize>> {
    fn step(
        remaining: &mut Vec<usize>,
        prefix: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if remaining.iter().all(|&r| r == 0) {
            out.push(prefix.clone());
            return;
        }
        for shard in 0..remaining.len() {
            if remaining[shard] > 0 {
                remaining[shard] -= 1;
                prefix.push(shard);
                step(remaining, prefix, out, cap);
                prefix.pop();
                remaining[shard] += 1;
            }
        }
    }
    let mut out = Vec::new();
    step(&mut counts.to_vec(), &mut Vec::new(), &mut out, cap);
    out
}

/// The full multiset-permutation count for `counts` — the multinomial
/// `(Σ counts)! / Π counts[s]!` — or `None` if the count (or an
/// intermediate product on the way to it) overflows `u128`. The
/// overflow boundary sits between 34 and 35 distinct single-op shards:
/// `34! < u128::MAX < 35!`.
pub fn schedule_count_checked(counts: &[usize]) -> Option<u128> {
    let mut n = 1u128;
    let mut k = 0usize;
    for &c in counts {
        for i in 1..=c {
            k += 1;
            n = n.checked_mul(k as u128)? / i as u128;
        }
    }
    Some(n)
}

/// The full multiset-permutation count for `counts`: the multinomial
/// `(Σ counts)! / Π counts[s]!` — what [`interleavings`] returns when
/// `cap` is at least this large. Saturates to `u128::MAX` on overflow
/// (with a debug assertion); callers that must distinguish use
/// [`schedule_count_checked`].
pub fn schedule_count(counts: &[usize]) -> u128 {
    let n = schedule_count_checked(counts);
    debug_assert!(n.is_some(), "schedule_count overflows u128 for {counts:?}");
    n.unwrap_or(u128::MAX)
}

/// Unranks lexicographic multiset-permutation `index` (`0 ≤ index <
/// schedule_count(counts)`) back into its schedule: position by
/// position, skip over the completion counts of smaller-shard choices
/// until the index lands inside one shard's subtree. The inverse of the
/// order [`interleavings`] enumerates in:
/// `unrank(c, i) == interleavings(c, usize::MAX)[i]`.
///
/// Panics if `index` is outside the space or the space overflows `u128`.
pub fn unrank(counts: &[usize], index: u128) -> Vec<usize> {
    let total = schedule_count_checked(counts).expect("unrank: schedule space overflows u128");
    assert!(index < total, "unrank: index {index} outside space {total}");
    let mut remaining = counts.to_vec();
    let len: usize = counts.iter().sum();
    let mut idx = index;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        for shard in 0..remaining.len() {
            if remaining[shard] == 0 {
                continue;
            }
            remaining[shard] -= 1;
            let below =
                schedule_count_checked(&remaining).expect("unrank: subtree count overflows u128");
            if idx < below {
                out.push(shard);
                break;
            }
            idx -= below;
            remaining[shard] += 1;
        }
    }
    out
}

/// Greatest common divisor (Euclid), for coprime-stride selection.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A deterministic stride coprime to `total`, near the golden-ratio
/// fraction of the space — the classic low-discrepancy choice, so
/// `(i · stride) mod total` visits indices spread across the whole
/// space rather than clustered in one region. Seedless: the same
/// `total` always yields the same stride.
fn coprime_stride(total: u128) -> u128 {
    if total <= 2 {
        return 1;
    }
    // 1/φ ≈ 0.618; the multiply cannot overflow for the schedule spaces
    // this selects over (total < u128::MAX / 1000 whenever a cap bites).
    let mut s = (total / 1000) * 618 + (total % 1000) * 618 / 1000;
    s = s.clamp(1, total - 1);
    while gcd(s, total) != 1 {
        s -= 1;
        if s == 0 {
            return 1;
        }
    }
    s
}

/// Selects `cap` indices spread across `0..total` by coprime-stride
/// walking: index `i` of the selection is `(i · stride) mod total` with
/// a golden-ratio stride coprime to `total`. All selected indices are
/// distinct (the stride generates the full cyclic group), the selection
/// is seedless and reproducible, and it covers early, middle and late
/// regions of the space instead of a prefix. Returns `0..total` in
/// order when the cap does not bite.
pub fn strided_indices(total: u128, cap: usize) -> Vec<u128> {
    if total <= cap as u128 {
        return (0..total).collect();
    }
    let stride = coprime_stride(total);
    (0..cap as u128).map(|i| (i * stride) % total).collect()
}

/// Like [`interleavings`], but a cap smaller than the space selects
/// schedules *spread across the whole multiset-permutation index space*
/// (coprime-stride selection + [`unrank`]) instead of the
/// lexicographic shard-0-heavy prefix. Deterministic and seedless; with
/// a non-binding cap this is the complete set in lexicographic order,
/// identical to [`interleavings`].
///
/// In the astronomically-large-space corner where even the *count*
/// overflows `u128`, falls back to the lexicographic prefix (the space
/// cannot be index-addressed).
pub fn interleavings_spread(counts: &[usize], cap: usize) -> Vec<Vec<usize>> {
    match schedule_count_checked(counts) {
        Some(total) if total > cap as u128 => strided_indices(total, cap)
            .into_iter()
            .map(|i| unrank(counts, i))
            .collect(),
        _ => interleavings(counts, cap),
    }
}

// --------------------------------------------------------- fault plans

/// One fault injection: after the op at schedule position `step`
/// executes (and its virtual-time advance settles), shard `shard`'s
/// recoverable end dies and is recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultPoint {
    /// Schedule position after which the fault fires.
    pub step: usize,
    /// The shard whose end dies — not necessarily the shard whose op
    /// ran at `step`; faulting an idle shard is part of the space.
    pub shard: usize,
}

/// A set of fault injections to apply while replaying one schedule:
/// empty (the healthy baseline), a single injection, or a double
/// (two injections — same or different steps, same or different
/// shards; two at one point model a crash during recovery).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Injections in firing order (sorted by step).
    pub injections: Vec<FaultPoint>,
}

impl FaultPlan {
    /// The no-fault baseline plan.
    pub fn healthy() -> Self {
        FaultPlan::default()
    }

    /// A single-injection plan.
    pub fn single(step: usize, shard: usize) -> Self {
        FaultPlan {
            injections: vec![FaultPoint { step, shard }],
        }
    }

    /// A two-injection plan; injections are ordered by step so replay
    /// drivers can fire them in schedule order.
    pub fn double(a: FaultPoint, b: FaultPoint) -> Self {
        let mut injections = vec![a, b];
        injections.sort();
        FaultPlan { injections }
    }

    /// Shards to fault after step `step`, in plan order.
    pub fn shards_at(&self, step: usize) -> impl Iterator<Item = usize> + '_ {
        self.injections
            .iter()
            .filter(move |p| p.step == step)
            .map(|p| p.shard)
    }
}

/// Enumerates every fault plan for a `steps`-long schedule over
/// `shards` shards:
///
/// * **every** single-injection plan — `steps × shards` of them, one
///   per (step, shard) pair, covering faults on busy *and* idle shards
///   at every position;
/// * up to `double_cap` double-injection plans, selected by coprime
///   stride ([`strided_indices`]) over the full unordered-pair space of
///   single points (diagonal included: a repeated point models a crash
///   during recovery). Deterministic and seedless.
pub fn fault_plans(steps: usize, shards: usize, double_cap: usize) -> Vec<FaultPlan> {
    let point = |i: usize| FaultPoint {
        step: i / shards,
        shard: i % shards,
    };
    let n = steps * shards;
    let mut plans: Vec<FaultPlan> = (0..n)
        .map(|i| FaultPlan::single(point(i).step, point(i).shard))
        .collect();
    // Unordered pairs (i ≤ j) of single points, linearized row-major:
    // row i holds pairs (i, i..n).
    let pair_total = (n * (n + 1) / 2) as u128;
    for idx in strided_indices(pair_total, double_cap) {
        let mut idx = idx as usize;
        let mut i = 0;
        while idx >= n - i {
            idx -= n - i;
            i += 1;
        }
        let j = i + idx;
        plans.push(FaultPlan::double(point(i), point(j)));
    }
    plans
}

// -------------------------------------------------------- sweep driver

/// One (shard count, ops per shard, schedule cap) sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of shards the replayed system is built with.
    pub shards: usize,
    /// Ops each shard's stream contributes to the schedule.
    pub ops: usize,
    /// Most schedules to select from this configuration's space
    /// (spread across the space — see [`interleavings_spread`]).
    pub cap: usize,
}

/// The sweep both sched harnesses replay: 20 + 90 + 140-of-2520 = 250
/// schedules across 2–4 shards. Shared so the NIC and storage suites
/// explore the identical ordering space.
pub fn default_sweep() -> [SweepConfig; 3] {
    [
        SweepConfig {
            shards: 2,
            ops: 3,
            cap: 1_000,
        },
        SweepConfig {
            shards: 3,
            ops: 2,
            cap: 1_000,
        },
        SweepConfig {
            shards: 4,
            ops: 2,
            cap: 140,
        },
    ]
}

/// Replays every selected schedule of every configuration through
/// `replay(shards, schedule)` and returns how many schedules ran — the
/// shared healthy-sweep driver both sched harnesses use in place of
/// their own enumeration loops.
pub fn schedule_sweep<F>(configs: &[SweepConfig], mut replay: F) -> usize
where
    F: FnMut(usize, &[usize]),
{
    let mut total = 0;
    for cfg in configs {
        for schedule in interleavings_spread(&vec![cfg.ops; cfg.shards], cfg.cap) {
            replay(cfg.shards, &schedule);
            total += 1;
        }
    }
    total
}

/// Coverage counters a [`fault_sweep`] reports, for the CI log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSweepStats {
    /// Schedules selected across all configurations.
    pub schedules: usize,
    /// Distinct single-fault (step, shard) points exercised.
    pub single_points: usize,
    /// Double-fault plans exercised.
    pub double_plans: usize,
    /// Total replays (healthy baselines + every faulted plan).
    pub replays: usize,
}

/// The shared fault-exploration driver: for every selected schedule of
/// every configuration, replays the healthy baseline and then every
/// plan [`fault_plans`] enumerates (every single (step, shard)
/// injection point plus `double_cap` double-fault plans per schedule)
/// through `replay(shards, schedule, plan)`. The replay closure builds
/// a fresh system, runs the schedule injecting `recover_shard` at the
/// plan's points, and asserts its oracle at every step.
pub fn fault_sweep<F>(configs: &[SweepConfig], double_cap: usize, mut replay: F) -> FaultSweepStats
where
    F: FnMut(usize, &[usize], &FaultPlan),
{
    let mut stats = FaultSweepStats::default();
    for cfg in configs {
        for schedule in interleavings_spread(&vec![cfg.ops; cfg.shards], cfg.cap) {
            stats.schedules += 1;
            replay(cfg.shards, &schedule, &FaultPlan::healthy());
            stats.replays += 1;
            for plan in fault_plans(schedule.len(), cfg.shards, double_cap) {
                match plan.injections.len() {
                    1 => stats.single_points += 1,
                    2 => stats.double_plans += 1,
                    _ => {}
                }
                replay(cfg.shards, &schedule, &plan);
                stats.replays += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_exhaustive_and_deterministic() {
        assert_eq!(interleavings(&[1, 1], 100), vec![vec![0, 1], vec![1, 0]]);
        // C(4,2) = 6 interleavings of two shards with two ops each.
        assert_eq!(interleavings(&[2, 2], 100).len(), 6);
        // Multinomial 6!/(2!2!2!) = 90 for three shards with two ops.
        assert_eq!(interleavings(&[2, 2, 2], 1_000).len(), 90);
        // Deterministic: two enumerations are identical.
        assert_eq!(interleavings(&[2, 2, 2], 50), interleavings(&[2, 2, 2], 50));
        // The cap truncates without reordering.
        let full = interleavings(&[2, 2], 100);
        assert_eq!(interleavings(&[2, 2], 3), full[..3].to_vec());
    }

    #[test]
    fn schedule_count_matches_enumeration() {
        for counts in [
            vec![1, 1],
            vec![2, 2],
            vec![2, 2, 2],
            vec![3, 2],
            vec![2; 4],
        ] {
            assert_eq!(
                schedule_count(&counts) as usize,
                interleavings(&counts, usize::MAX).len(),
                "{counts:?}"
            );
        }
        assert_eq!(schedule_count(&[0, 0]), 1, "the empty schedule");
    }

    #[test]
    fn schedule_count_overflow_boundary_is_checked() {
        // 34! < u128::MAX < 35!: the largest all-distinct space that
        // still counts exactly, and the first that cannot.
        assert_eq!(
            schedule_count_checked(&[1; 34]),
            Some(295_232_799_039_604_140_847_618_609_643_520_000_000u128)
        );
        assert_eq!(schedule_count_checked(&[1; 35]), None);
        // Duplicated counts divide the factorial back under the limit:
        // 36!/2!^2 overflows, but the checked path reports it rather
        // than wrapping silently.
        assert_eq!(
            schedule_count_checked(&[2; 18]),
            Some(schedule_count(&[2; 18]))
        );
    }

    #[test]
    fn unrank_inverts_lexicographic_enumeration() {
        for counts in [vec![2, 2], vec![2, 2, 2], vec![3, 2], vec![2; 4]] {
            let full = interleavings(&counts, usize::MAX);
            for (i, want) in full.iter().enumerate() {
                assert_eq!(&unrank(&counts, i as u128), want, "{counts:?}[{i}]");
            }
        }
    }

    #[test]
    fn strided_selection_is_distinct_deterministic_and_spread() {
        let total = schedule_count(&[2; 4]); // 2520
        let picked = strided_indices(total, 140);
        assert_eq!(picked.len(), 140);
        let set: std::collections::HashSet<_> = picked.iter().collect();
        assert_eq!(set.len(), 140, "stride selection repeated an index");
        assert_eq!(picked, strided_indices(total, 140), "not deterministic");
        // Spread: the selection reaches the last decile of the space,
        // which a lexicographic prefix of 140/2520 never does.
        assert!(picked.iter().any(|&i| i >= total * 9 / 10));
        // Degenerate cases.
        assert_eq!(strided_indices(6, 100), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(strided_indices(0, 4), Vec::<u128>::new());
    }

    #[test]
    fn spread_interleavings_cover_every_leading_shard() {
        // The lexicographic prefix bias this replaces: 140 of 2520
        // four-shard schedules all start with shard 0. The spread
        // selection sees every shard lead.
        let spread = interleavings_spread(&[2; 4], 140);
        assert_eq!(spread.len(), 140);
        let leaders: std::collections::HashSet<usize> = spread.iter().map(|s| s[0]).collect();
        assert_eq!(leaders, (0..4).collect(), "leading-shard coverage");
        let prefix_leaders: std::collections::HashSet<usize> =
            interleavings(&[2; 4], 140).iter().map(|s| s[0]).collect();
        assert_eq!(prefix_leaders.len(), 1, "the bias being fixed");
        // Every selected schedule is a valid member of the space.
        for s in &spread {
            for shard in 0..4 {
                assert_eq!(s.iter().filter(|&&x| x == shard).count(), 2);
            }
        }
        // A non-binding cap degrades to the complete lexicographic set.
        assert_eq!(
            interleavings_spread(&[2, 2], 100),
            interleavings(&[2, 2], 100)
        );
    }

    #[test]
    fn fault_plan_enumeration_covers_every_point() {
        let plans = fault_plans(6, 3, 4);
        let singles: Vec<_> = plans.iter().filter(|p| p.injections.len() == 1).collect();
        let doubles: Vec<_> = plans.iter().filter(|p| p.injections.len() == 2).collect();
        assert_eq!(singles.len(), 18, "every (step, shard) pair");
        let points: std::collections::HashSet<_> =
            singles.iter().map(|p| p.injections[0]).collect();
        assert_eq!(points.len(), 18);
        assert!(points.contains(&FaultPoint { step: 0, shard: 0 }));
        assert!(points.contains(&FaultPoint { step: 5, shard: 2 }));
        assert_eq!(doubles.len(), 4, "double plans capped");
        for d in &doubles {
            assert!(d.injections[0].step <= d.injections[1].step, "firing order");
        }
        // Deterministic.
        assert_eq!(plans, fault_plans(6, 3, 4));
        // Healthy plan fires nowhere.
        assert_eq!(FaultPlan::healthy().shards_at(0).count(), 0);
        // shards_at surfaces the planned injections in order.
        let p = FaultPlan::double(
            FaultPoint { step: 2, shard: 1 },
            FaultPoint { step: 2, shard: 0 },
        );
        assert_eq!(p.shards_at(2).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn sweep_drivers_report_coverage() {
        let configs = [SweepConfig {
            shards: 2,
            ops: 2,
            cap: 100,
        }];
        let mut seen = Vec::new();
        let n = schedule_sweep(&configs, |shards, schedule| {
            assert_eq!(shards, 2);
            seen.push(schedule.to_vec());
        });
        assert_eq!(n, 6);
        assert_eq!(seen.len(), 6);

        let mut replays = 0usize;
        let stats = fault_sweep(&configs, 2, |shards, schedule, plan| {
            assert_eq!(shards, 2);
            assert_eq!(schedule.len(), 4);
            assert!(plan.injections.len() <= 2);
            replays += 1;
        });
        assert_eq!(stats.schedules, 6);
        // 6 schedules × (1 healthy + 4·2 singles + 2 doubles).
        assert_eq!(stats.single_points, 6 * 8);
        assert_eq!(stats.double_plans, 6 * 2);
        assert_eq!(stats.replays, 6 * 11);
        assert_eq!(replays, stats.replays);
    }
}
