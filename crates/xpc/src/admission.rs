//! Admission control over the data paths' staged backpressure.
//!
//! Staged backpressure ([`crate::XpcError::Backpressure`]) is a
//! *capacity* signal: it fires when a ring or pool is physically full,
//! after the work to fill it has already been spent. Under sustained
//! overload that is too late — an open-loop arrival process does not
//! slow down when the server falls behind, so queues (and therefore
//! latency) grow without bound while goodput stays pinned at the
//! service rate. Admission control moves the drop decision to the
//! *front* of the queue, where rejecting a request costs almost
//! nothing and the requests that are admitted still see bounded queues.
//!
//! [`AdmissionController`] is deliberately advisory: it owns the
//! policy, the per-class token buckets and the ledger, but not the
//! queue. The queue's owner calls [`AdmissionController::offer`] with
//! its current backlog and executes the verdict — enqueue, refuse, or
//! shed its oldest entries first (reporting the shed count back via
//! [`AdmissionController::note_shed`] so the ledger stays closed).
//! The queue it governs is a software one, in front of the rings: a
//! descriptor ring is SPSC FIFO and cannot shed a parked entry, so the
//! open-loop overload engine consults the controller at its dispatch
//! queue, before anything reaches [`crate::ShardedUrbPath::submit_out`].
//!
//! The ledger invariant, per class:
//! `offered == admitted + rejected` and `shed <= admitted`. Every
//! overload experiment asserts it at every swept rate.

use std::cell::Cell;
use std::fmt;

use decaf_simkernel::counters::Bump;

/// Scale factor for fractional tokens: one admission token is
/// `1e9` scaled units, so integer refill math (`rate × dt_ns`) needs no
/// floating point and loses nothing to rounding.
const TOKEN_SCALE: u64 = 1_000_000_000;

/// The two open-loop traffic classes the overload experiments mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Netperf-shaped packet arrivals (pool-less RX descriptors).
    Net,
    /// Tar-shaped storage URBs (sector writes through the URB rings).
    Storage,
}

impl TrafficClass {
    /// Every class, in ledger order.
    pub const ALL: [TrafficClass; 2] = [TrafficClass::Net, TrafficClass::Storage];

    fn index(self) -> usize {
        match self {
            TrafficClass::Net => 0,
            TrafficClass::Storage => 1,
        }
    }

    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::Net => "net",
            TrafficClass::Storage => "storage",
        }
    }
}

/// What to do when an open-loop arrival meets a backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything; queues grow without bound past saturation.
    /// The baseline that makes the latency knee visible.
    QueueUnbounded,
    /// Refuse at the door: an arrival is rejected when the backlog has
    /// reached the queue cap or its class token bucket is dry. Rejected
    /// work costs (almost) nothing and admitted work sees a bounded
    /// queue.
    RejectAtAdmission,
    /// Admit the newcomer but shed the *oldest* waiting entries beyond
    /// the cap — drop-from-head keeps the queue's age, and therefore
    /// waiting time, bounded (fresh requests are worth more than stale
    /// ones once the client has likely timed out).
    ShedOldest,
}

impl AdmissionPolicy {
    /// Every policy, in sweep order.
    pub const ALL: [AdmissionPolicy; 3] = [
        AdmissionPolicy::QueueUnbounded,
        AdmissionPolicy::RejectAtAdmission,
        AdmissionPolicy::ShedOldest,
    ];

    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::QueueUnbounded => "queue-unbounded",
            AdmissionPolicy::RejectAtAdmission => "reject-at-admission",
            AdmissionPolicy::ShedOldest => "shed-oldest",
        }
    }
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The controller's verdict on one arrival. The queue owner executes
/// it; the controller has already updated its ledger (except `shed`,
/// which the owner reports after actually dropping entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Enqueue the arrival.
    Admit,
    /// Enqueue the arrival, but first drop this many oldest waiting
    /// entries (report them via [`AdmissionController::note_shed`]).
    Shed(usize),
    /// Refuse the arrival; do not enqueue.
    Reject,
}

/// An integer token bucket in virtual time: `rate_per_s` tokens accrue
/// per virtual second up to a `burst` ceiling. All math is integer on a
/// `1e9`-scaled token count, so refill is exact for any nanosecond
/// interval and two runs with the same arrival schedule drain the
/// bucket identically.
#[derive(Debug)]
pub struct TokenBucket {
    rate_per_s: u64,
    burst: u64,
    /// Tokens × [`TOKEN_SCALE`].
    scaled: Cell<u64>,
    last_refill_ns: Cell<u64>,
}

impl TokenBucket {
    /// A bucket accruing `rate_per_s` tokens per virtual second with a
    /// `burst`-token ceiling, starting full.
    pub fn new(rate_per_s: u64, burst: u64) -> Self {
        let burst = burst.max(1);
        TokenBucket {
            rate_per_s,
            burst,
            scaled: Cell::new(burst * TOKEN_SCALE),
            last_refill_ns: Cell::new(0),
        }
    }

    /// The sustained refill rate (tokens per virtual second).
    pub fn rate_per_s(&self) -> u64 {
        self.rate_per_s
    }

    fn refill(&self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_refill_ns.get());
        self.last_refill_ns.set(now_ns);
        let ceiling = self.burst * TOKEN_SCALE;
        self.scaled
            .set(ceiling.min(self.scaled.get().saturating_add(self.rate_per_s * dt)));
    }

    /// Takes one token if available at virtual time `now_ns`.
    pub fn try_take(&self, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.scaled.get() >= TOKEN_SCALE {
            self.scaled.set(self.scaled.get() - TOKEN_SCALE);
            true
        } else {
            false
        }
    }

    /// Whole tokens available at virtual time `now_ns`.
    pub fn available(&self, now_ns: u64) -> u64 {
        self.refill(now_ns);
        self.scaled.get() / TOKEN_SCALE
    }
}

decaf_simkernel::counters! {
    /// One class's admission ledger.
    pub struct AdmissionStats {
        /// Arrivals offered to the controller.
        offered: sum,
        /// Arrivals admitted (including ones that later got shed).
        admitted: sum,
        /// Arrivals refused at the door.
        rejected: sum,
        /// Previously admitted entries dropped from the head of the queue.
        shed: sum,
    }
}

impl AdmissionStats {
    /// The ledger invariant for one class.
    pub fn balanced(&self) -> bool {
        self.offered == self.admitted + self.rejected && self.shed <= self.admitted
    }
}

/// Policy + per-class token buckets + ledger, shared by every queue the
/// overload engine admits into.
#[derive(Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    queue_cap: usize,
    buckets: [Option<TokenBucket>; 2],
    stats: [Cell<AdmissionStats>; 2],
}

impl AdmissionController {
    /// A controller enforcing `policy` with backlog ceiling `queue_cap`
    /// (ignored by [`AdmissionPolicy::QueueUnbounded`]) and no token
    /// buckets.
    pub fn new(policy: AdmissionPolicy, queue_cap: usize) -> Self {
        AdmissionController {
            policy,
            queue_cap: queue_cap.max(1),
            buckets: [None, None],
            stats: [
                Cell::new(AdmissionStats::default()),
                Cell::new(AdmissionStats::default()),
            ],
        }
    }

    /// Installs a token bucket for `class` (builder style). Only
    /// [`AdmissionPolicy::RejectAtAdmission`] consults buckets; the
    /// other policies admit regardless of token level.
    pub fn with_bucket(mut self, class: TrafficClass, bucket: TokenBucket) -> Self {
        self.buckets[class.index()] = Some(bucket);
        self
    }

    /// The enforced policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// The backlog ceiling.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Rules on one arrival of `class` at virtual time `now_ns`, given
    /// the owner's current `backlog` (entries waiting, not counting the
    /// one in service). Updates `offered` and the verdict's own ledger
    /// field; a [`AdmissionVerdict::Shed`] verdict's drops are reported
    /// separately by the owner via [`AdmissionController::note_shed`].
    pub fn offer(&self, now_ns: u64, class: TrafficClass, backlog: usize) -> AdmissionVerdict {
        let i = class.index();
        let verdict = match self.policy {
            AdmissionPolicy::QueueUnbounded => AdmissionVerdict::Admit,
            AdmissionPolicy::RejectAtAdmission => {
                // Cap first: a backlog reject must not drain a token the
                // bucket could have spent on a later, admittable arrival.
                if backlog >= self.queue_cap {
                    AdmissionVerdict::Reject
                } else if self.buckets[i].as_ref().is_none_or(|b| b.try_take(now_ns)) {
                    AdmissionVerdict::Admit
                } else {
                    AdmissionVerdict::Reject
                }
            }
            AdmissionPolicy::ShedOldest => {
                let over = (backlog + 1).saturating_sub(self.queue_cap);
                if over > 0 {
                    AdmissionVerdict::Shed(over)
                } else {
                    AdmissionVerdict::Admit
                }
            }
        };
        self.stats[i].bump(|s| {
            s.offered += 1;
            match verdict {
                AdmissionVerdict::Reject => s.rejected += 1,
                AdmissionVerdict::Admit | AdmissionVerdict::Shed(_) => s.admitted += 1,
            }
        });
        verdict
    }

    /// Records that the queue owner dropped `n` previously admitted
    /// entries of `class` from the head of its queue.
    pub fn note_shed(&self, class: TrafficClass, n: usize) {
        self.stats[class.index()].bump(|s| s.shed += n as u64);
    }

    /// One class's ledger.
    pub fn stats(&self, class: TrafficClass) -> AdmissionStats {
        self.stats[class.index()].get()
    }

    /// All classes merged.
    pub fn total(&self) -> AdmissionStats {
        let mut total = AdmissionStats::default();
        for c in TrafficClass::ALL {
            total.merge(&self.stats(c));
        }
        total
    }

    /// The ledger invariant across every class.
    pub fn balanced(&self) -> bool {
        TrafficClass::ALL
            .into_iter()
            .all(|c| self.stats(c).balanced())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_refills_exactly_in_virtual_time() {
        // 1000 tokens/s, burst 2: drain the burst at t=0, then exactly
        // one token every 1 ms — integer math, no drift.
        let b = TokenBucket::new(1_000, 2);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0), "burst exhausted");
        assert!(!b.try_take(999_999), "one ns short of a token");
        assert!(b.try_take(1_000_000), "exactly one refill period");
        assert!(!b.try_take(1_000_000));
        // Idle time accrues only up to the burst ceiling.
        assert_eq!(b.available(1_000_000_000), 2);
    }

    #[test]
    fn unbounded_admits_everything() {
        let c = AdmissionController::new(AdmissionPolicy::QueueUnbounded, 1);
        for backlog in [0usize, 10, 10_000] {
            assert_eq!(
                c.offer(0, TrafficClass::Net, backlog),
                AdmissionVerdict::Admit
            );
        }
        let s = c.stats(TrafficClass::Net);
        assert_eq!((s.offered, s.admitted, s.rejected), (3, 3, 0));
        assert!(c.balanced());
    }

    #[test]
    fn reject_enforces_cap_and_bucket() {
        let c = AdmissionController::new(AdmissionPolicy::RejectAtAdmission, 2)
            .with_bucket(TrafficClass::Storage, TokenBucket::new(1_000, 1));
        // Cap: backlog at the ceiling refuses even with tokens.
        assert_eq!(
            c.offer(0, TrafficClass::Storage, 2),
            AdmissionVerdict::Reject
        );
        // Bucket: under the cap, the single burst token admits once...
        assert_eq!(
            c.offer(0, TrafficClass::Storage, 0),
            AdmissionVerdict::Admit
        );
        // ...then the dry bucket refuses until virtual time refills it.
        assert_eq!(
            c.offer(1, TrafficClass::Storage, 0),
            AdmissionVerdict::Reject
        );
        assert_eq!(
            c.offer(1_000_001, TrafficClass::Storage, 0),
            AdmissionVerdict::Admit
        );
        // Classes are independent: Net has no bucket, admits freely.
        assert_eq!(c.offer(1, TrafficClass::Net, 0), AdmissionVerdict::Admit);
        assert!(c.balanced());
        assert_eq!(c.total().offered, 5);
    }

    #[test]
    fn shed_oldest_bounds_the_backlog_not_the_admits() {
        let c = AdmissionController::new(AdmissionPolicy::ShedOldest, 3);
        assert_eq!(c.offer(0, TrafficClass::Net, 2), AdmissionVerdict::Admit);
        assert_eq!(c.offer(0, TrafficClass::Net, 3), AdmissionVerdict::Shed(1));
        c.note_shed(TrafficClass::Net, 1);
        assert_eq!(c.offer(0, TrafficClass::Net, 3), AdmissionVerdict::Shed(1));
        c.note_shed(TrafficClass::Net, 1);
        let s = c.stats(TrafficClass::Net);
        assert_eq!((s.offered, s.admitted, s.rejected, s.shed), (3, 3, 0, 2));
        assert!(c.balanced(), "every admit enqueued, every shed reported");
        // A cap of 1 sheds the previous occupant on every arrival; the
        // ledger still closes because every shed entry was admitted.
        let c2 = AdmissionController::new(AdmissionPolicy::ShedOldest, 1);
        for i in 0..5u64 {
            let v = c2.offer(i, TrafficClass::Storage, usize::from(i > 0));
            if let AdmissionVerdict::Shed(n) = v {
                c2.note_shed(TrafficClass::Storage, n);
            }
        }
        assert!(c2.balanced());
    }
}
