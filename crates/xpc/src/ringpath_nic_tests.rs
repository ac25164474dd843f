//! Unit tests of the NIC instance, [`crate::DataPathChannel`]: the
//! generic [`crate::RingPath`] carrying frame descriptors, with and
//! without a payload pool. Mounted as `datapath` so the test ids
//! `datapath::tests::*` stay what they were when the NIC path was a
//! struct of its own.

mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use decaf_shmring::{BufPool, Descriptor, DoorbellPolicy, RingSet, ShmRing};
    use decaf_simkernel::{costs, Kernel};
    use decaf_xdr::mask::MaskSet;
    use decaf_xdr::{XdrSpec, XdrValue};

    use crate::endpoint::{ChannelConfig, ProcDef};
    use crate::{
        DataPathChannel, Domain, RingEnd, ShardedChannel, ShardedRingPath, XpcChannel, XpcError,
    };

    fn channel() -> Rc<XpcChannel> {
        Rc::new(XpcChannel::new(
            XdrSpec::parse("struct unused { int x; };").unwrap(),
            MaskSet::full(),
            ChannelConfig::kernel_user_shmring(),
            Domain::Nucleus,
            Domain::Decaf,
        ))
    }

    type SeenPayloads = Rc<RefCell<Vec<Vec<u8>>>>;

    /// A consumer that drains on the doorbell, records payloads, and
    /// completes every descriptor.
    fn register_drain(ch: &Rc<XpcChannel>, end: RingEnd<Descriptor>, seen: SeenPayloads) {
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "drain".into(),
                arg_types: vec![],
                handler: Rc::new(move |k, _, _, _| {
                    end.consume(k, |d| {
                        let pool = end.pool().as_ref().expect("pool-backed path");
                        seen.borrow_mut()
                            .push(pool.read_payload(d.buf, d.len as usize).unwrap());
                        end.complete(k, d).unwrap();
                    });
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
    }

    fn datapath(watermark: usize) -> (Kernel, Rc<DataPathChannel>, SeenPayloads) {
        let k = Kernel::new();
        let ch = channel();
        let dp = DataPathChannel::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "drain",
            Rc::new(ShmRing::new("tx", 32)),
            Rc::new(ShmRing::new("tx-done", 64)),
            Some(Rc::new(BufPool::with_capacity(2048, 32))),
            DoorbellPolicy::with_watermark(watermark),
        )
        .unwrap();
        let seen = Rc::new(RefCell::new(Vec::new()));
        register_drain(&ch, dp.end(Domain::Decaf), Rc::clone(&seen));
        (k, dp, seen)
    }

    #[test]
    fn watermark_batches_descriptors_per_doorbell() {
        let (k, dp, seen) = datapath(8);
        for i in 0..16u64 {
            dp.send(&k, &[i as u8; 600], i).unwrap();
        }
        assert_eq!(seen.borrow().len(), 16, "two watermark flushes");
        let s = dp.channel().stats();
        assert_eq!(s.doorbells, 2);
        assert_eq!(s.ring_posts, 16);
        assert!((s.descriptors_per_doorbell() - 8.0).abs() < 1e-9);
        assert_eq!(s.ring_occupancy_hwm, 8);
    }

    #[test]
    fn payload_bytes_never_cross_the_marshaler() {
        let (k, dp, seen) = datapath(4);
        for i in 0..8u64 {
            dp.send(&k, &[0x5a; 1500], i).unwrap();
        }
        let s = dp.channel().stats();
        // 8 × 1500 B of payload moved, but the channel marshaled only the
        // doorbell calls' empty argument lists.
        assert_eq!(seen.borrow().iter().map(Vec::len).sum::<usize>(), 12_000);
        assert!(
            s.bytes_in + s.bytes_out < 64,
            "only doorbell headers marshal: {} B",
            s.bytes_in + s.bytes_out
        );
        assert_eq!(k.stats().bytes_copied, 12_000, "one copy per payload");
    }

    #[test]
    fn deadline_flushes_a_lone_descriptor_via_poll() {
        let (k, dp, seen) = datapath(8);
        dp.send(&k, b"lone packet", 1).unwrap();
        assert!(seen.borrow().is_empty(), "below watermark, parked");
        assert!(!dp.poll(&k).unwrap(), "deadline not reached yet");
        k.run_for(costs::DOORBELL_COALESCE_NS + 1);
        assert!(dp.poll(&k).unwrap(), "coalescing deadline expired");
        assert_eq!(seen.borrow().len(), 1);
    }

    #[test]
    fn pool_exhaustion_forces_doorbell_then_backpressure() {
        let k = Kernel::new();
        let ch = channel();
        // Tiny pool, big watermark: sends outrun the doorbell policy.
        let dp = DataPathChannel::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "drain",
            Rc::new(ShmRing::new("tx", 8)),
            Rc::new(ShmRing::new("tx-done", 8)),
            Some(Rc::new(BufPool::with_capacity(256, 2))),
            DoorbellPolicy::with_watermark(64),
        )
        .unwrap();
        let seen = Rc::new(RefCell::new(Vec::new()));
        register_drain(&ch, dp.end(Domain::Decaf), Rc::clone(&seen));
        // The third send finds the pool exhausted, forces a doorbell (the
        // consumer drains and completes), reclaims, and proceeds.
        for i in 0..6u64 {
            dp.send(&k, &[1; 64], i).unwrap();
        }
        assert_eq!(seen.borrow().len(), 4, "forced flushes drained the ring");
        assert!(dp.pool().as_ref().unwrap().stats().exhausted > 0);
    }

    #[test]
    fn raw_descriptors_round_trip_without_a_pool() {
        let k = Kernel::new();
        let ch = channel();
        let dp = DataPathChannel::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "drain",
            Rc::new(ShmRing::new("rx", 8)),
            Rc::new(ShmRing::new("rx-done", 8)),
            None,
            DoorbellPolicy::with_watermark(64),
        )
        .unwrap();
        let end = dp.end(Domain::Decaf);
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "drain".into(),
                arg_types: vec![],
                handler: Rc::new(move |k, _, _, _| {
                    end.consume(k, |d| end.complete(k, d).unwrap());
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
        use decaf_shmring::BufHandle;
        for slot in 0..3u64 {
            dp.post(
                &k,
                Descriptor {
                    buf: BufHandle(slot as u32),
                    len: 1500,
                    cookie: slot,
                },
            )
            .unwrap();
        }
        dp.ring_doorbell(&k).unwrap();
        let done = dp.reclaim_completions(&k);
        let cookies: Vec<u64> = done.iter().map(|d| d.cookie).collect();
        assert_eq!(cookies, vec![0, 1, 2], "handback preserves order");
    }

    #[test]
    fn async_doorbell_launches_and_reclaim_harvests() {
        let k = Kernel::new();
        let ch = Rc::new(XpcChannel::new(
            XdrSpec::parse("struct unused { int x; };").unwrap(),
            MaskSet::full(),
            ChannelConfig::kernel_user_async_shmring(),
            Domain::Nucleus,
            Domain::Decaf,
        ));
        let dp = DataPathChannel::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "drain",
            Rc::new(ShmRing::new("tx", 32)),
            Rc::new(ShmRing::new("tx-done", 64)),
            Some(Rc::new(BufPool::with_capacity(2048, 32))),
            DoorbellPolicy::with_watermark(4),
        )
        .unwrap();
        let seen = Rc::new(RefCell::new(Vec::new()));
        register_drain(&ch, dp.end(Domain::Decaf), Rc::clone(&seen));
        for i in 0..8u64 {
            dp.send(&k, &[0xa5; 600], i).unwrap();
        }
        assert_eq!(seen.borrow().len(), 8, "both doorbells drained inline");
        let s = ch.stats();
        assert_eq!(s.doorbells, 2, "watermark doorbells");
        assert_eq!(s.tokens_issued, 2, "each doorbell launched a token");
        // Producing covered part of the launched crossings; reclaiming
        // settles them. (Each send reclaims too, so only the second
        // batch's completions are still waiting here.)
        k.run_for(20_000);
        let done = dp.reclaim_completions(&k);
        assert_eq!(done.len(), 4);
        let s = ch.stats();
        assert_eq!(s.tokens_harvested, 2, "reclaim harvested both launches");
        assert!(s.overlap_ns > 0, "idle time covered the crossings");
    }

    #[test]
    fn partial_drain_survivor_still_deadline_fires() {
        // Regression for the disarm-with-occupancy hazard: a consumer
        // that drains one descriptor per doorbell (a drain budget) used
        // to leave the survivor parked with `armed_at == None`, so the
        // deadline could never fire and — below the watermark — the
        // survivor waited forever.
        let k = Kernel::new();
        let ch = channel();
        let dp = DataPathChannel::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "drain",
            Rc::new(ShmRing::new("rx", 8)),
            Rc::new(ShmRing::new("rx-done", 8)),
            None,
            DoorbellPolicy::with_watermark(2),
        )
        .unwrap();
        let end = dp.end(Domain::Decaf);
        let drained = Rc::new(RefCell::new(Vec::new()));
        {
            let drained = Rc::clone(&drained);
            ch.register_proc(
                Domain::Decaf,
                ProcDef {
                    name: "drain".into(),
                    arg_types: vec![],
                    handler: Rc::new(move |k, _, _, _| {
                        // Budget of one: take a single descriptor, leave
                        // the rest parked in the ring.
                        end.poll_and_reclaim(k, 1, |d| {
                            drained.borrow_mut().push(d.cookie);
                            end.complete(k, d).unwrap();
                        });
                        XdrValue::Void
                    }),
                },
            )
            .unwrap();
        }
        use decaf_shmring::BufHandle;
        for slot in 0..2u64 {
            dp.post(
                &k,
                Descriptor {
                    buf: BufHandle(slot as u32),
                    len: 1500,
                    cookie: slot,
                },
            )
            .unwrap();
        }
        assert!(dp.maybe_ring(&k).unwrap(), "watermark doorbell rings");
        assert_eq!(drained.borrow().as_slice(), &[0], "budget drained one");
        assert_eq!(dp.pending(), 1, "survivor parked below the watermark");
        assert!(!dp.poll(&k).unwrap(), "survivor window not expired yet");
        k.run_for(costs::DOORBELL_COALESCE_NS + 1);
        assert!(
            dp.poll(&k).unwrap(),
            "survivor must deadline-fire within one window"
        );
        assert_eq!(drained.borrow().as_slice(), &[0, 1]);
        assert_eq!(dp.pending(), 0);
    }

    #[test]
    fn poll_and_reclaim_respects_budget_and_charges_spin() {
        let k = Kernel::new();
        let ch = channel();
        let dp = DataPathChannel::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "drain",
            Rc::new(ShmRing::new("rx", 8)),
            Rc::new(ShmRing::new("rx-done", 8)),
            None,
            DoorbellPolicy::with_watermark(64),
        )
        .unwrap();
        let end = dp.end(Domain::Decaf);
        use decaf_shmring::BufHandle;
        for slot in 0..3u64 {
            dp.post(
                &k,
                Descriptor {
                    buf: BufHandle(slot as u32),
                    len: 1500,
                    cookie: slot,
                },
            )
            .unwrap();
        }
        let before = k.snapshot().user_busy_ns;
        let mut got = Vec::new();
        assert_eq!(end.poll_and_reclaim(&k, 2, |d| got.push(d.cookie)), 2);
        assert_eq!(got, [0, 1], "budget caps a burst");
        assert_eq!(end.poll_and_reclaim(&k, 8, |d| got.push(d.cookie)), 1);
        assert_eq!(got, [0, 1, 2], "remainder drained, then a miss breaks");
        // 2 + 2 probes (the second call pays one hit and one miss).
        let spun = k.snapshot().user_busy_ns - before;
        assert!(
            spun >= 4 * costs::POLL_SPIN_NS,
            "every probe pays the spin tax: {spun} ns"
        );
        let idle = end.poll_and_reclaim(&k, 8, |_| unreachable!());
        assert_eq!(idle, 0, "an idle probe finds nothing");
        assert_eq!(ch.stats().doorbells, 0, "poll mode never rang a doorbell");
    }

    #[test]
    fn a_reregistered_drain_is_what_the_next_doorbell_runs() {
        // The doorbell resolves its drain once, to a slot; registering the
        // name again replaces what the slot holds, so the handle the
        // doorbell kept is never stale.
        let k = Kernel::new();
        let ch = channel();
        let dp = DataPathChannel::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "drain",
            Rc::new(ShmRing::new("rx", 8)),
            Rc::new(ShmRing::new("rx-done", 8)),
            None,
            DoorbellPolicy::with_watermark(64),
        )
        .unwrap();
        let ran = Rc::new(RefCell::new(Vec::new()));
        let register = |generation: u32| {
            let (end, ran) = (dp.end(Domain::Decaf), Rc::clone(&ran));
            let drain = ProcDef::scalar("drain", move |k, _| {
                end.consume(k, |d| end.complete(k, d).unwrap());
                ran.borrow_mut().push(generation);
                XdrValue::Void
            });
            ch.register_proc(Domain::Decaf, drain).unwrap();
        };
        let ring = |cookie: u64| {
            let desc = Descriptor {
                cookie,
                ..Descriptor::default()
            };
            dp.post(&k, desc).unwrap();
            dp.ring_doorbell(&k).unwrap();
            assert_eq!(dp.reclaim_completions(&k).len(), 1);
        };
        // Rung before anything is registered: refused by name, and the
        // descriptor stays parked for the next ring.
        dp.post(&k, Descriptor::default()).unwrap();
        let unregistered = dp.ring_doorbell(&k).unwrap_err();
        assert!(matches!(unregistered, XpcError::UnknownProc { proc, .. } if proc == "drain"));
        register(1);
        dp.ring_doorbell(&k).unwrap();
        assert_eq!(dp.reclaim_completions(&k).len(), 1);
        ring(1);
        register(2);
        ring(2);
        assert_eq!(*ran.borrow(), [1, 1, 2]);
        assert_eq!(
            ch.proc_names(Domain::Decaf),
            ["drain"],
            "one slot, replaced"
        );
    }

    #[test]
    fn per_shard_paths_refuse_a_shard_count_mismatch() {
        // The check the storage facade always had, on the NIC instance:
        // a set of three ring pairs over a two-channel facade would leave
        // a ring without a doorbell.
        let facade = |shards| {
            ShardedChannel::new(
                XdrSpec::parse("struct unused { int x; };").unwrap(),
                MaskSet::full(),
                ChannelConfig::kernel_user_shmring(),
                Domain::Nucleus,
                Domain::Decaf,
                shards,
            )
        };
        let set = RingSet::new("tx", 3, 8, 16);
        let per_shard = |shards| {
            ShardedRingPath::new(facade(shards), Domain::Nucleus, "drain", Rc::clone(&set), 4)
        };
        let err = per_shard(2).unwrap_err();
        assert!(matches!(err, XpcError::ShardConflict(_)), "{err}");
        let paths = per_shard(3).unwrap();
        assert_eq!(paths.shards(), 3);
        assert!(
            Rc::ptr_eq(paths.path(2).ring(), set.ring(2)),
            "shard i rides ring i"
        );
    }
}
