//! Watermark + deadline doorbell coalescing.

use std::cell::Cell;

use decaf_simkernel::costs;

/// Decides when descriptors parked in a ring are worth a boundary
/// crossing.
///
/// Two triggers, whichever comes first:
///
/// * **watermark** — occupancy reached the batch size worth amortizing a
///   crossing over (the high-rate case);
/// * **deadline** — the oldest unflushed post has waited longer than the
///   coalescing window (the low-rate case: a lone descriptor must not
///   wait forever for company).
#[derive(Debug)]
pub struct DoorbellPolicy {
    watermark: usize,
    deadline_ns: u64,
    /// Virtual time of the first post since the last doorbell.
    armed_at: Cell<Option<u64>>,
}

impl DoorbellPolicy {
    /// A policy ringing at `watermark` occupancy or `deadline_ns` after
    /// the first unflushed post.
    pub fn new(watermark: usize, deadline_ns: u64) -> Self {
        DoorbellPolicy {
            watermark: watermark.max(1),
            deadline_ns,
            armed_at: Cell::new(None),
        }
    }

    /// The default policy: ring at `watermark` or after the cost table's
    /// [`costs::DOORBELL_COALESCE_NS`] window.
    pub fn with_watermark(watermark: usize) -> Self {
        DoorbellPolicy::new(watermark, costs::DOORBELL_COALESCE_NS)
    }

    /// The configured watermark.
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// Notes a post at virtual time `now_ns`; arms the deadline if this
    /// is the first post since the last doorbell.
    pub fn note_post(&self, now_ns: u64) {
        if self.armed_at.get().is_none() {
            self.armed_at.set(Some(now_ns));
        }
    }

    /// Whether the doorbell should ring now.
    pub fn due(&self, now_ns: u64, occupancy: usize) -> bool {
        if occupancy == 0 {
            return false;
        }
        if occupancy >= self.watermark {
            return true;
        }
        match self.armed_at.get() {
            Some(t) => now_ns.saturating_sub(t) >= self.deadline_ns,
            None => false,
        }
    }

    /// How long the oldest unflushed post has been waiting at virtual
    /// time `now_ns`, or `None` when the deadline is disarmed. Observers
    /// (trace coalesce events) read this; it never changes policy state.
    pub fn armed_age_ns(&self, now_ns: u64) -> Option<u64> {
        self.armed_at.get().map(|t| now_ns.saturating_sub(t))
    }

    /// Records that the doorbell rang and the drain left `survivors`
    /// posts parked: none disarms the deadline, any re-arms it at
    /// `now_ns` (a budgeted consumer, a device that NAKed, a recovery
    /// re-ring). Disarming unconditionally here is the
    /// disarm-with-occupancy hazard: with `armed_at` back to `None` and
    /// occupancy below the watermark, [`DoorbellPolicy::due`] can never
    /// deadline-fire again and the survivors wait forever. Rings drain
    /// FIFO, so the survivors are the *newest* posts; without per-post
    /// timestamps `now_ns` is the tightest anchor the policy can know,
    /// and it bounds the survivors' extra wait to one deadline window.
    pub fn rang_with_survivors(&self, now_ns: u64, survivors: usize) {
        self.armed_at
            .set(if survivors > 0 { Some(now_ns) } else { None });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_triggers_immediately() {
        let p = DoorbellPolicy::new(3, 1_000_000);
        p.note_post(0);
        assert!(!p.due(0, 1));
        assert!(!p.due(0, 2));
        assert!(p.due(0, 3), "watermark reached");
    }

    #[test]
    fn deadline_triggers_for_a_lone_descriptor() {
        let p = DoorbellPolicy::new(8, 1_000);
        p.note_post(100);
        assert!(!p.due(500, 1));
        assert!(p.due(1_100, 1), "coalescing window expired");
        p.rang_with_survivors(1_100, 0);
        assert!(!p.due(10_000, 0), "nothing pending after the ring");
    }

    #[test]
    fn deadline_measured_from_first_post_of_the_batch() {
        let p = DoorbellPolicy::new(8, 1_000);
        p.note_post(0);
        p.note_post(900); // later posts do not push the deadline out
        assert!(p.due(1_000, 2));
    }

    #[test]
    fn partial_drain_rearms_for_the_survivors() {
        // Regression: a doorbell whose drain left occupancy behind used
        // to disarm unconditionally, after which `due` could never
        // deadline-fire (`armed_at == None`) and a below-watermark
        // survivor waited for the watermark forever.
        let p = DoorbellPolicy::new(8, 1_000);
        p.note_post(100);
        p.rang_with_survivors(500, 2);
        assert!(!p.due(1_200, 2), "window restarts from the ring");
        assert!(p.due(1_500, 2), "survivors deadline-fire within one window");
        // A clean drain still disarms completely.
        p.rang_with_survivors(1_500, 0);
        assert_eq!(p.armed_age_ns(9_999), None);
        assert!(!p.due(99_999, 0));
    }
}
