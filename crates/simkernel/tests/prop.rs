//! The timer dispatcher against the table scan it replaced.
//!
//! `Kernel` keeps its armed timers in a heap and finds the due ones
//! without walking the timer table. What it must reproduce is the order
//! the old linear scan fired them in — lowest creation index among the
//! due timers, periodic re-arm from the dispatch-time `now`, `arm_at`
//! clamped to `now` — because every trace and every virtual-time figure
//! downstream depends on it. [`ScanModel`] *is* that scan, kept here as
//! the reference: random operation sequences must produce the same
//! `(timer, fire time)` log on both.

use std::cell::RefCell;
use std::rc::Rc;

use decaf_simkernel::{costs, Kernel, TimerId};
use proptest::prelude::*;

#[derive(Clone, Copy, Default)]
struct ModelTimer {
    deadline_ns: Option<u64>,
    period_ns: Option<u64>,
    live: bool,
}

/// The pre-heap dispatcher: every fire and every "when next?" is a walk
/// over every timer ever created.
#[derive(Default)]
struct ScanModel {
    now: u64,
    timers: Vec<ModelTimer>,
    fired: Vec<(usize, u64)>,
}

impl ScanModel {
    fn create(&mut self) {
        self.timers.push(ModelTimer {
            live: true,
            ..ModelTimer::default()
        });
    }

    fn arm(&mut self, i: usize, deadline_ns: u64, period_ns: Option<u64>) {
        if let Some(t) = self.timers.get_mut(i).filter(|t| t.live) {
            t.deadline_ns = Some(deadline_ns);
            t.period_ns = period_ns;
        }
    }

    fn del(&mut self, i: usize) {
        if let Some(t) = self.timers.get_mut(i) {
            *t = ModelTimer::default();
        }
    }

    fn fire_one(&mut self) -> bool {
        let now = self.now;
        let due = self
            .timers
            .iter_mut()
            .enumerate()
            .find(|(_, t)| t.live && t.deadline_ns.is_some_and(|d| d <= now));
        let Some((i, t)) = due else { return false };
        t.deadline_ns = t.period_ns.map(|p| now + p);
        self.now += costs::SOFTIRQ_DISPATCH_NS;
        self.fired.push((i, self.now));
        true
    }

    fn schedule_point(&mut self) {
        while self.fire_one() {}
    }

    fn run_for(&mut self, ns: u64) {
        let end = self.now + ns;
        loop {
            self.schedule_point();
            if self.now >= end {
                break;
            }
            let next = self
                .timers
                .iter()
                .filter(|t| t.live)
                .filter_map(|t| t.deadline_ns)
                .min();
            self.now = next.map_or(end, |d| d.clamp(self.now, end));
        }
        self.schedule_point();
    }
}

proptest! {
    #[test]
    fn heap_dispatch_fires_what_the_table_scan_fired(
        ops in proptest::collection::vec((0u8..7, any::<u8>(), 1u64..2_000), 1..120),
    ) {
        let k = Kernel::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut ids: Vec<TimerId> = Vec::new();
        let mut model = ScanModel::default();
        for (op, pick, ns) in ops {
            let ns = 20 * ns;
            // Mostly a timer that exists; sometimes a deleted one.
            let i = if ids.is_empty() { 0 } else { pick as usize % ids.len() };
            match op {
                0 if ids.len() < 48 => {
                    let (log, label) = (Rc::clone(&log), ids.len());
                    ids.push(k.timer_create(
                        "t",
                        Rc::new(move |k| log.borrow_mut().push((label, k.now_ns()))),
                    ));
                    model.create();
                }
                0 => {}
                _ if ids.is_empty() => {}
                1 => {
                    k.timer_arm(ids[i], ns);
                    model.arm(i, model.now + ns, None);
                }
                2 => {
                    // Absolute, and as often in the past as not.
                    let at = (model.now + ns).saturating_sub(20_000);
                    k.timer_arm_at(ids[i], at);
                    model.arm(i, at.max(model.now), None);
                }
                3 => {
                    // Long enough that all the timers a sequence can
                    // create, periodic at once, keep the dispatcher under
                    // full load — or no round ever ends, on either side.
                    let period = 64 * costs::SOFTIRQ_DISPATCH_NS + ns;
                    k.timer_arm_periodic(ids[i], period);
                    model.arm(i, model.now + period, Some(period));
                }
                4 => {
                    // Rarely: most sequences should keep their timers.
                    if pick % 4 == 0 {
                        k.timer_del(ids[i]);
                        model.del(i);
                    }
                }
                5 => {
                    // Busy time: carries the clock past deadlines
                    // without a dispatch point in between.
                    k.charge_kernel(ns);
                    model.now += ns;
                }
                _ => {
                    k.run_for(ns);
                    model.run_for(ns);
                }
            }
            prop_assert_eq!(k.now_ns(), model.now);
            prop_assert_eq!(&*log.borrow(), &model.fired);
            for (j, id) in ids.iter().enumerate() {
                let t = model.timers[j];
                prop_assert_eq!(k.timer_pending(*id), t.live && t.deadline_ns.is_some());
            }
        }
        prop_assert_eq!(k.stats().timers_fired, model.fired.len() as u64);
    }
}
