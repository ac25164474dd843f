//! Unit tests of [`crate::ShardedRingPath`], driven through its storage
//! instance [`crate::ShardedUrbPath`]. Mounted as `shardurb` so the test
//! ids `shardurb::tests::*` stay what they were when the storage facade
//! was a struct of its own.

mod tests {
    use std::rc::Rc;

    use decaf_shmring::{SectorPool, UrbDescriptor, UrbRingSet, XferDir};
    use decaf_simkernel::{costs, CpuClass, Kernel};
    use decaf_xdr::mask::MaskSet;
    use decaf_xdr::{XdrSpec, XdrValue};

    use crate::admission::{
        AdmissionController, AdmissionPolicy, AdmissionVerdict, TokenBucket, TrafficClass,
    };
    use crate::endpoint::{ChannelConfig, ProcDef};
    use crate::{Domain, RingEnd, ShardedChannel, ShardedUrbPath, XpcError};

    fn facade(shards: usize) -> Rc<ShardedChannel> {
        ShardedChannel::new(
            XdrSpec::parse("struct unused { int x; };").unwrap(),
            MaskSet::full(),
            ChannelConfig::kernel_user_shmring(),
            Domain::Nucleus,
            Domain::Decaf,
            shards,
        )
    }

    fn unregistered(
        shards: usize,
        sectors: usize,
        depth: usize,
        watermark: usize,
    ) -> (Kernel, Rc<ShardedChannel>, Rc<ShardedUrbPath>) {
        let sc = facade(shards);
        let pool = Rc::new(SectorPool::with_capacity(512, sectors));
        let set = UrbRingSet::new("urb", shards, depth, 2 * depth, pool);
        let path =
            ShardedUrbPath::new(Rc::clone(&sc), Domain::Nucleus, "urb_drain", set, watermark)
                .unwrap();
        (Kernel::new(), sc, path)
    }

    /// The completer: echoes OUT lengths, "reads" 100 bytes for IN
    /// requests, and gives back through the *set* so completions steer
    /// home.
    fn drain(end: RingEnd<UrbDescriptor>, set: Rc<UrbRingSet>) -> impl Fn(&Kernel) -> XdrValue {
        move |k| {
            end.consume(k, |d| {
                let actual = match d.dir {
                    XferDir::Out => d.len,
                    XferDir::In => 100,
                };
                set.complete(k, CpuClass::User, d.completed(0, actual))
                    .unwrap();
            });
            XdrValue::Void
        }
    }

    fn sharded(
        shards: usize,
        sectors: usize,
        depth: usize,
        watermark: usize,
    ) -> (Kernel, Rc<ShardedChannel>, Rc<ShardedUrbPath>) {
        let (k, sc, path) = unregistered(shards, sectors, depth, watermark);
        path.register_drains(drain).unwrap();
        (k, sc, path)
    }

    #[test]
    fn shard_count_mismatch_is_refused() {
        let set = UrbRingSet::new("urb", 3, 8, 16, Rc::new(SectorPool::with_capacity(512, 8)));
        let err = ShardedUrbPath::new(facade(2), Domain::Nucleus, "urb_drain", set, 4).unwrap_err();
        assert!(matches!(err, XpcError::ShardConflict(_)), "{err}");
    }

    #[test]
    fn luns_spread_and_completions_come_home() {
        let (k, _sc, path) = sharded(4, 64, 16, 4);
        let mut used = [false; 4];
        for cookie in 0..32u64 {
            let lun = cookie % 8;
            let shard = path
                .submit_out(&k, lun, 2, &[lun as u8; 517], cookie)
                .unwrap();
            assert_eq!(shard, path.steer(lun), "steering is by LUN");
            used[shard] = true;
        }
        let done = path.reclaim(&k);
        // Sub-watermark tails may still be parked; flush them.
        path.poll(&k).unwrap();
        k.run_for(2 * costs::DOORBELL_COALESCE_NS);
        path.poll(&k).unwrap();
        let done = done.len() + path.reclaim(&k).len();
        assert_eq!(done, 32, "every URB completed");
        assert!(used.iter().filter(|&&u| u).count() >= 2, "LUNs spread");
        assert!(path.conserved());
        assert_eq!(path.set().pool().in_use_sectors(), 0, "all runs home");
        assert_eq!(
            k.stats().bytes_copied,
            0,
            "payloads are adopted, never copied"
        );
        // Per-shard work was charged to per-shard scopes.
        let busy = k.shard_busy_ns();
        assert!(busy.iter().filter(|&&ns| ns > 0).count() >= 2, "{busy:?}");
    }

    #[test]
    fn one_lun_stays_fifo_on_one_shard() {
        let (k, _sc, path) = sharded(3, 64, 16, 2);
        for cookie in 0..6u64 {
            path.submit_out(&k, 5, 2, &[1; 64], cookie).unwrap();
        }
        k.run_for(2 * costs::DOORBELL_COALESCE_NS);
        path.poll(&k).unwrap();
        let done = path.reclaim(&k);
        assert_eq!(done.len(), 6);
        let cookies: Vec<u64> = done.iter().map(|r| r.cookie).collect();
        assert_eq!(cookies, (0..6).collect::<Vec<_>>(), "FIFO within the LUN");
        let shard = path.steer(5);
        assert_eq!(path.set().shard_stats(shard).posted, 6);
        for other in (0..3).filter(|&s| s != shard) {
            assert_eq!(path.set().shard_stats(other).posted, 0);
        }
    }

    #[test]
    fn in_completions_hand_ownership_back_per_shard() {
        let (k, _sc, path) = sharded(2, 16, 8, 1);
        path.submit_in(&k, 0, 1, 512, 7).unwrap();
        path.submit_in(&k, 1, 1, 512, 8).unwrap();
        let done = path.reclaim(&k);
        assert_eq!(done.len(), 2);
        for r in &done {
            assert_eq!(r.actual, 100, "short read reports the true length");
            assert_eq!(r.data.len(), 100);
        }
        assert_eq!(k.stats().bytes_copied, 0, "handback is in place");
        assert!(path.conserved());
    }

    #[test]
    fn in_flight_counts_givebacks_landed_but_not_reclaimed() {
        // Watermark 1: every submit rings, so the completer has given
        // each URB back before `submit_out` returns — yet until the
        // submitter reclaims it, the URB is still in flight.
        let (k, _sc, path) = sharded(2, 64, 8, 1);
        for cookie in 0..4u64 {
            path.submit_out(&k, cookie, 2, &[1; 64], cookie).unwrap();
        }
        assert_eq!(path.set().in_flight(), 0, "every URB was given back");
        assert_eq!(path.in_flight(), 4, "submitted and not yet reclaimed");
        assert_eq!(path.reclaim(&k).len(), 4);
        assert_eq!(path.in_flight(), 0);
        assert!(path.conserved());
    }

    #[test]
    fn full_shard_ring_backpressures_that_shard_only() {
        // Shallow rings, watermark above the depth: one LUN can fill its
        // shard's ring while the sibling shard stays writable.
        let (k, _sc, path) = sharded(2, 64, 2, 64);
        let lun = 0u64;
        let shard = path.steer(lun);
        let sibling_lun = (1..64)
            .find(|&l| path.steer(l) != shard)
            .expect("some LUN maps to the other shard");
        path.submit_out(&k, lun, 2, &[1; 64], 0).unwrap();
        path.submit_out(&k, lun, 2, &[1; 64], 1).unwrap();
        // Ring full: staged backpressure (forced doorbell + error)…
        let err = path.submit_out(&k, lun, 2, &[1; 64], 2).unwrap_err();
        assert!(matches!(err, XpcError::Backpressure(_)), "{err}");
        // …while the sibling shard still accepts.
        path.submit_out(&k, sibling_lun, 2, &[2; 64], 3).unwrap();
        // The forced doorbell drained the full shard; reclaim + retry.
        assert_eq!(path.reclaim_shard(&k, shard,).len(), 2);
        path.submit_out(&k, lun, 2, &[1; 64], 2).unwrap();
        path.poll(&k).unwrap();
        k.run_for(2 * costs::DOORBELL_COALESCE_NS);
        path.poll(&k).unwrap();
        assert_eq!(path.reclaim(&k).len(), 2);
        assert!(path.conserved());
        assert_eq!(path.set().pool().in_use_sectors(), 0);
    }

    #[test]
    fn exhausted_pool_backpressures_then_recovers() {
        // Two sectors total, shared by both shards: the pool, not the
        // ring, is the bottleneck.
        let (k, _sc, path) = sharded(2, 2, 8, 64);
        path.submit_out(&k, 0, 2, &[1; 512], 0).unwrap();
        path.submit_out(&k, 1, 2, &[1; 512], 1).unwrap();
        let err = path.submit_out(&k, 0, 2, &[1; 512], 2).unwrap_err();
        assert!(matches!(err, XpcError::Backpressure(_)), "{err}");
        assert_eq!(path.reclaim(&k).len(), 2, "forced doorbell drained");
        path.submit_out(&k, 0, 2, &[1; 512], 2).unwrap();
        path.poll(&k).unwrap();
        k.run_for(2 * costs::DOORBELL_COALESCE_NS);
        path.poll(&k).unwrap();
        assert_eq!(path.reclaim(&k).len(), 1);
        assert!(path.conserved());
        assert_eq!(path.set().stats().posted, 3);
        assert_eq!(path.set().pool().stats().exhausted, 1);
    }

    #[test]
    fn recover_shard_redrains_parked_submits_on_the_fresh_channel() {
        let (k, sc, path) = sharded(2, 64, 8, 64);
        let lun = 0u64;
        let shard = path.steer(lun);
        // Park two requests below the watermark (no doorbell yet), then
        // the shard's decaf end dies.
        path.submit_out(&k, lun, 2, &[7; 64], 0).unwrap();
        path.submit_out(&k, lun, 2, &[7; 64], 1).unwrap();
        assert_eq!(path.pending(), 2);
        let requeued = path.recover_shard(&k, shard, Domain::Decaf).unwrap();
        assert_eq!(requeued, 0, "no deferred control calls were parked");
        // The recovery doorbell re-drained the pinned submit ring.
        let done = path.reclaim_shard(&k, shard);
        assert_eq!(done.len(), 2, "parked URBs survive the fault");
        assert!(done.iter().all(|r| r.ok()));
        assert!(path.conserved());
        assert_eq!(path.set().pool().in_use_sectors(), 0);
        assert_eq!(sc.heap(shard, Domain::Decaf).borrow().len(), 0, "end reset");
        // Recovering the submitter side is refused, not silently wrong.
        let err = path.recover_shard(&k, shard, Domain::Nucleus).unwrap_err();
        assert!(matches!(err, XpcError::ShardConflict(_)));
    }

    #[test]
    fn admission_hook_refuses_before_any_capacity_is_spent() {
        // The composition the overload engine runs: the controller rules
        // at the queue in front of the rings, consulted before
        // `submit_out`, so a refused URB never reaches a ring slot or a
        // pool sector.
        let (k, _sc, path) = sharded(2, 64, 16, 4);
        let ctrl = AdmissionController::new(AdmissionPolicy::RejectAtAdmission, 8)
            .with_bucket(TrafficClass::Storage, TokenBucket::new(1_000, 2));
        let offer = |lun: u64, cookie: u64| match ctrl.offer(
            k.now_ns(),
            TrafficClass::Storage,
            path.pending(),
        ) {
            AdmissionVerdict::Reject => false,
            _ => path.submit_out(&k, lun, 2, &[1; 64], cookie).is_ok(),
        };
        // The burst admits two URBs; the third is refused at the door.
        assert!(offer(0, 0) && offer(1, 1));
        let posted = path.set().stats().posted;
        let sectors = path.set().pool().in_use_sectors();
        assert!(!offer(0, 2), "the third URB is refused");
        assert_eq!(path.set().stats().posted, posted, "no ring slot spent");
        assert_eq!(
            path.set().pool().in_use_sectors(),
            sectors,
            "no sector spent"
        );
        // Virtual time refills the bucket and the retry goes through.
        k.run_for(1_000_001);
        assert!(offer(0, 2));
        k.run_for(2 * costs::DOORBELL_COALESCE_NS);
        path.poll(&k).unwrap();
        assert_eq!(path.reclaim(&k).len(), 3);
        let s = ctrl.stats(TrafficClass::Storage);
        assert_eq!((s.offered, s.admitted, s.rejected), (4, 3, 1));
        assert!(ctrl.balanced());
        assert!(path.conserved(), "rejects never unbalance the rings");
    }

    #[test]
    fn broken_shard_does_not_starve_sibling_polls() {
        // Only shard 1 has a drain: shard 0's doorbell fails, and the
        // sweep must still reach shard 1 before reporting it.
        let (k, sc, path) = unregistered(2, 64, 8, 64);
        let body = drain(path.path(1).end(Domain::Decaf), Rc::clone(path.set()));
        sc.shard(1)
            .register_proc(
                Domain::Decaf,
                ProcDef::scalar("urb_drain", move |k, _| body(k)),
            )
            .unwrap();
        let lun_on = |shard| (0..64).find(|&l| path.steer(l) == shard).unwrap();
        path.submit_out(&k, lun_on(0), 2, &[1; 64], 0).unwrap();
        path.submit_out(&k, lun_on(1), 2, &[1; 64], 1).unwrap();
        // Both shards past their coalescing deadline.
        k.run_for(2 * costs::DOORBELL_COALESCE_NS);
        let err = path.poll(&k).unwrap_err();
        assert!(matches!(err, XpcError::UnknownProc { .. }), "{err}");
        assert_eq!(sc.shard_stats(1).doorbells, 1, "shard 1 rang");
        assert_eq!(path.path(1).pending(), 0);
        assert_eq!(path.path(0).pending(), 1, "shard 0 still parked");
        assert_eq!(path.reclaim_shard(&k, 1).len(), 1);
    }
}
