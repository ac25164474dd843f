//! The origin ledger against the one it replaced: a std `HashMap` from
//! cookie to posting shard, as `ShardedRings` kept it until the ledger
//! became an open-addressed table indexed by the cookie's own bits.
//!
//! [`RefLedger`] is that ledger — note, cancel and the ledger half of
//! `complete`, with the completion rings reduced to their occupancy —
//! and random note / complete / cancel / `origin_of` / `in_flight` /
//! reclaim sequences must get the same answer from both at every step.
//! The cookies are chosen to stress the table, not the hash map:
//! sequence numbers, uhci-style `slot | generation << 32` cookies that
//! share their slot bits, cookies that differ only in their top bits,
//! `u64::MAX` and its neighbours, and more of them in flight at once
//! than the rings hold, so the table grows under load.

use std::collections::HashMap;

use decaf_shmring::{BufHandle, Descriptor, RingSet, RingSetError, RingSetStats};
use decaf_simkernel::{CpuClass, Kernel};
use proptest::prelude::*;

const SHARDS: usize = 3;
const SLOTS: usize = 2;
const DONE_SLOTS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Noted {
    shard: usize,
    hwm_before: u64,
}

/// The hash-map ledger, with each shard's completion ring reduced to how
/// many completions wait on it.
#[derive(Default)]
struct RefLedger {
    origin: HashMap<u64, Noted>,
    stats: [RingSetStats; SHARDS],
    in_flight: [u64; SHARDS],
    waiting: [usize; SHARDS],
}

impl RefLedger {
    /// A cookie already in flight is refused and counted, and nothing
    /// else changes.
    fn note(&mut self, shard: usize, cookie: u64) -> Result<(), RingSetError> {
        let s = &mut self.stats[shard];
        if self.origin.contains_key(&cookie) {
            s.refused += 1;
            return Err(RingSetError::InFlight(cookie));
        }
        self.in_flight[shard] += 1;
        s.posted += 1;
        let hwm_before = s.in_flight_hwm;
        self.origin.insert(cookie, Noted { shard, hwm_before });
        s.in_flight_hwm = s.in_flight_hwm.max(self.in_flight[shard]);
        Ok(())
    }

    fn cancel(&mut self, cookie: u64) {
        if let Some(noted) = self.origin.remove(&cookie) {
            let shard = noted.shard;
            self.in_flight[shard] -= 1;
            let s = &mut self.stats[shard];
            s.posted -= 1;
            s.in_flight_hwm = s
                .in_flight_hwm
                .min(noted.hwm_before.max(self.in_flight[shard]));
        }
    }

    fn complete(&mut self, cookie: u64) -> Result<usize, RingSetError> {
        let noted = self.origin.get(&cookie).copied();
        let shard = noted.ok_or(RingSetError::UnknownOrigin(cookie))?.shard;
        if self.waiting[shard] == DONE_SLOTS {
            return Err(RingSetError::CompletionFull(shard));
        }
        self.origin.remove(&cookie);
        self.waiting[shard] += 1;
        self.in_flight[shard] -= 1;
        self.stats[shard].completed += 1;
        Ok(shard)
    }

    fn reclaim(&mut self, shard: usize) -> usize {
        std::mem::take(&mut self.waiting[shard])
    }

    /// Whether the per-shard counts and the ledger agree.
    fn conserved(&self) -> bool {
        self.in_flight.iter().sum::<u64>() == self.origin.len() as u64
            && (0..SHARDS)
                .all(|i| self.stats[i].posted == self.stats[i].completed + self.in_flight[i])
    }
}

/// A cookie of one of five shapes; `n` picks which one of its shape.
fn cookie(shape: u8, n: u8) -> u64 {
    let n = u64::from(n);
    match shape % 5 {
        // Sequence numbers: the TX path's.
        0 => n % 96,
        // Eight slots, eight generations: the uhci path's, sharing slot bits.
        1 => (n % 8) | ((n / 8 % 8) << 32),
        // Only the top two bits differ.
        2 => ((n % 4) << 62) | (n % 2),
        // The top of the range, `u64::MAX` included.
        3 => u64::MAX - n % 4,
        // Low bits all zero: one probe run for all of them.
        _ => (n % 8) << 20,
    }
}

fn desc(cookie: u64) -> Descriptor {
    Descriptor {
        buf: BufHandle(0),
        len: 64,
        cookie,
    }
}

/// One step: an op selector, a shard, a cookie shape and a pick.
type Op = (u8, u8, u8, u8);

/// Drives a ring set and the reference through `ops` in lock step and
/// compares every answer and every counter after each step.
fn twin_run(ops: &[Op]) {
    let k = Kernel::new();
    let set = RingSet::new("origin", SHARDS, SLOTS, DONE_SLOTS);
    let mut model = RefLedger::default();
    for &(op, shard, shape, n) in ops {
        let shard = usize::from(shard) % SHARDS;
        let cookie = cookie(shape, n);
        match op % 8 {
            // Notes outnumber retirements, so the ledger fills up.
            0..=2 => assert_eq!(
                set.note_post(shard, cookie),
                model.note(shard, cookie),
                "note {cookie:#x}"
            ),
            3 => assert_eq!(
                set.complete(&k, CpuClass::User, desc(cookie)),
                model.complete(cookie),
                "complete {cookie:#x}"
            ),
            4 => {
                set.cancel_post(cookie);
                model.cancel(cookie);
            }
            5 => assert_eq!(
                set.origin_of(cookie),
                model.origin.get(&cookie).map(|n| n.shard)
            ),
            6 => assert_eq!(
                set.reclaim(&k, CpuClass::Kernel, shard).len(),
                model.reclaim(shard),
                "reclaim shard {shard}"
            ),
            // Retire a cookie the model knows is in flight, when there is one.
            _ => {
                let live = model.origin.keys().min().copied();
                if let Some(cookie) = live.filter(|_| n % 2 == 0) {
                    set.cancel_post(cookie);
                    model.cancel(cookie);
                }
            }
        }
        assert_eq!(set.in_flight(), model.origin.len(), "in_flight");
        for (i, stats) in model.stats.iter().enumerate() {
            assert_eq!(set.shard_stats(i), *stats, "shard {i} counters");
            assert_eq!(set.shard_in_flight(i), model.in_flight[i], "shard {i}");
        }
        assert_eq!(set.conserved(), model.conserved());
        assert!(set.conserved(), "a refused note leaves the ledger whole");
    }
    for (&cookie, noted) in &model.origin {
        assert_eq!(set.origin_of(cookie), Some(noted.shard), "{cookie:#x}");
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..400)
}

proptest! {
    #[test]
    fn the_origin_table_answers_as_the_hashmap_ledger_did(ops in ops()) {
        twin_run(&ops);
    }
}

#[test]
fn cookies_sharing_slot_bits_survive_removal_from_the_middle_of_their_run() {
    // Four generations of slot 5, then slot 6 behind them in the same
    // probe run; removing generations out of order must leave every
    // other one findable, and a full table must grow past the rings.
    let set = RingSet::new("origin", 2, 1, 64);
    let k = Kernel::new();
    let uhci = |slot: u64, gen: u64| slot | (gen << 32);
    let cookies = [uhci(5, 0), uhci(5, 1), uhci(5, 2), uhci(6, 0), uhci(5, 3)];
    for (i, &c) in cookies.iter().enumerate() {
        set.note_post(i % 2, c).unwrap();
    }
    set.note_post(1, u64::MAX).unwrap();
    assert_eq!(set.in_flight(), 6);
    for gone in [uhci(5, 1), uhci(5, 0)] {
        assert_eq!(
            set.complete(&k, CpuClass::User, desc(gone)).map(|_| ()),
            Ok(())
        );
        assert_eq!(set.origin_of(gone), None);
    }
    for (i, &c) in cookies.iter().enumerate().skip(2) {
        assert_eq!(set.origin_of(c), Some(i % 2), "{c:#x}");
    }
    assert_eq!(set.origin_of(u64::MAX), Some(1));
    for n in 0..100 {
        set.note_post(0, n << 40).unwrap();
    }
    assert_eq!(set.in_flight(), 104);
    assert!((0..100).all(|n| set.origin_of(n << 40) == Some(0)));
    assert!(set.conserved());
}
