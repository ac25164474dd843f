//! Unit tests of the storage instantiation, [`crate::UrbRingSet`]: the
//! same generic [`crate::ShardedRings`] driven through the URB
//! vocabulary and a shared sector pool. Mounted as `urbset` so the test
//! ids `urbset::tests::*` stay what they were when `UrbRingSet` was a
//! struct of its own.

mod tests {
    use std::rc::Rc;

    use decaf_simkernel::{CpuClass, Kernel};

    use crate::{RingSetError, SectorPool, SgHandle, ShmRing, UrbDescriptor, UrbRingSet};

    fn set(shards: usize) -> Rc<UrbRingSet> {
        UrbRingSet::new(
            "urb",
            shards,
            8,
            16,
            Rc::new(SectorPool::with_capacity(512, 32)),
        )
    }

    fn submit(k: &Kernel, s: &UrbRingSet, shard: usize, cookie: u64) {
        let run = s.pool().alloc_sg(512).unwrap();
        s.submit_ring(shard)
            .push(
                k,
                CpuClass::Kernel,
                UrbDescriptor::request_out(run, 512, 2, cookie),
            )
            .unwrap();
        s.note_submit(shard, cookie);
    }

    /// Everything posted on `ring`, popped as the consumer.
    fn drained<D: Copy + Default>(ring: &ShmRing<D>, k: &Kernel) -> Vec<D> {
        let mut out = Vec::new();
        ring.drain(k, CpuClass::User, &mut out);
        out
    }

    #[test]
    fn lun_steering_is_deterministic_and_spreads() {
        let s = set(4);
        let mut hits = [0u32; 4];
        for lun in 0..64u64 {
            assert_eq!(s.steer(lun), s.steer(lun), "same LUN, same shard");
            hits[s.steer(lun)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0), "a shard starved: {hits:?}");
    }

    #[test]
    fn completions_steer_to_the_submitting_shard() {
        let k = Kernel::new();
        let s = set(3);
        for cookie in 0..9u64 {
            submit(&k, &s, s.steer(cookie), cookie);
        }
        // One completer drains every shard's submit ring in arbitrary
        // order; the giveback must come home.
        for shard in [2, 0, 1] {
            for d in drained(s.submit_ring(shard), &k) {
                let home = s
                    .complete(&k, CpuClass::User, d.completed(0, d.len))
                    .unwrap();
                assert_eq!(home, shard, "cookie {} steered astray", d.cookie);
            }
        }
        for shard in 0..3 {
            for d in s.reclaim(&k, CpuClass::Kernel, shard) {
                assert_eq!(s.steer(d.cookie), shard);
                s.pool().free_sg(d.buf).unwrap();
            }
            assert!(s.shard_conserved(shard), "shard {shard}");
        }
        assert!(s.conserved());
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.stats().posted, 9);
        assert_eq!(s.stats().completed, 9);
        assert!(s.pool().conserved());
        assert_eq!(s.pool().in_use_sectors(), 0);
    }

    #[test]
    fn unknown_and_double_completions_rejected() {
        let k = Kernel::new();
        let s = set(2);
        let d = UrbDescriptor::request_in(SgHandle(0), 512, 1, 7);
        assert_eq!(
            s.complete(&k, CpuClass::User, d),
            Err(RingSetError::UnknownOrigin(7))
        );
        submit(&k, &s, 1, 7);
        drained(s.submit_ring(1), &k);
        assert_eq!(s.complete(&k, CpuClass::User, d).unwrap(), 1);
        assert_eq!(
            s.complete(&k, CpuClass::User, d),
            Err(RingSetError::UnknownOrigin(7))
        );
        assert!(s.conserved());
    }

    #[test]
    fn cancel_submit_unwinds_a_noted_origin() {
        let k = Kernel::new();
        let s = set(2);
        s.note_submit(1, 3);
        assert_eq!(s.shard_in_flight(1), 1);
        s.cancel_post(3);
        assert_eq!(s.shard_in_flight(1), 0);
        assert_eq!(s.shard_stats(1).posted, 0);
        assert!(s.conserved());
        // Cancelling an unknown cookie is a no-op.
        s.cancel_post(99);
        assert!(s.conserved());
        let _ = k;
    }

    #[test]
    fn cancelled_submit_does_not_inflate_the_high_water_mark() {
        // A note-then-cancel (the staged-backpressure unwind) must not
        // leave the HWM reporting a peak that never held a real URB —
        // and must not erase a peak that legitimately happened earlier.
        let k = Kernel::new();
        let s = set(2);
        submit(&k, &s, 0, 0);
        submit(&k, &s, 0, 1);
        assert_eq!(s.shard_stats(0).in_flight_hwm, 2);
        // Refused submit: noted, then cancelled.
        s.note_submit(0, 2);
        s.cancel_post(2);
        assert_eq!(s.shard_stats(0).in_flight_hwm, 2, "phantom peak recorded");
        // Drain to zero, then another refused submit: the old peak of 2
        // must survive the restore.
        for d in drained(s.submit_ring(0), &k) {
            s.complete(&k, CpuClass::User, d).unwrap();
        }
        assert_eq!(s.shard_in_flight(0), 0);
        s.note_submit(0, 3);
        s.cancel_post(3);
        assert_eq!(s.shard_stats(0).in_flight_hwm, 2, "legitimate peak erased");
        assert!(s.conserved());
    }

    #[test]
    fn per_shard_counters_track_their_own_queues() {
        let k = Kernel::new();
        let s = set(2);
        submit(&k, &s, 0, 0);
        submit(&k, &s, 0, 1);
        submit(&k, &s, 1, 2);
        assert_eq!(s.shard_stats(0).posted, 2);
        assert_eq!(s.shard_stats(1).posted, 1);
        assert_eq!(s.shard_in_flight(0), 2);
        assert_eq!(s.stats().in_flight_hwm, 2, "HWM is a max, not a sum");
        for d in drained(s.submit_ring(0), &k) {
            s.complete(&k, CpuClass::User, d).unwrap();
        }
        assert!(s.shard_conserved(0));
        assert!(s.shard_conserved(1));
        assert_eq!(s.shard_stats(0).completed, 2);
        assert_eq!(s.shard_stats(1).completed, 0);
        assert_eq!(s.in_flight(), 1);
        assert!(s.conserved());
    }
}
