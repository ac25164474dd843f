//! Unit tests of the storage instance, [`crate::UrbDataPath`]: the
//! generic [`crate::RingPath`] carrying URB request/response descriptors
//! over a shared sector pool. Mounted as `urbpath` so the test ids
//! `urbpath::tests::*` stay what they were when the storage path was a
//! struct of its own.

mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use decaf_shmring::{DoorbellPolicy, SectorPool, ShmRing, UrbDescriptor, XferDir};
    use decaf_simkernel::{costs, Kernel};
    use decaf_xdr::mask::MaskSet;
    use decaf_xdr::{XdrSpec, XdrValue};

    use crate::endpoint::{ChannelConfig, ProcDef};
    use crate::{Domain, RingEnd, UrbDataPath, XpcChannel, XpcError};

    fn channel() -> Rc<XpcChannel> {
        Rc::new(XpcChannel::new(
            XdrSpec::parse("struct unused { int x; };").unwrap(),
            MaskSet::full(),
            ChannelConfig::kernel_user_shmring(),
            Domain::Nucleus,
            Domain::Decaf,
        ))
    }

    /// A completer that echoes OUT payload lengths and "reads" 100 bytes
    /// for IN requests (a short read against 512-byte runs).
    fn register_drain(ch: &Rc<XpcChannel>, end: RingEnd<UrbDescriptor>) {
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "urb_drain".into(),
                arg_types: vec![],
                handler: Rc::new(move |k, _, _, _| {
                    end.consume(k, |d| {
                        let segs = end.pool().sg_segments(d.buf).expect("live chain");
                        assert!(segs.iter().all(|s| s.offset < 512 * 64));
                        let actual = match d.dir {
                            XferDir::Out => d.len,
                            XferDir::In => 100,
                        };
                        end.complete(k, d.completed(0, actual)).unwrap();
                    });
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
    }

    fn path(watermark: usize) -> (Kernel, Rc<UrbDataPath>) {
        let k = Kernel::new();
        let ch = channel();
        let dp = UrbDataPath::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "urb_drain",
            Rc::new(ShmRing::new("urb-submit", 32)),
            Rc::new(ShmRing::new("urb-giveback", 64)),
            Rc::new(SectorPool::with_capacity(512, 64)),
            DoorbellPolicy::with_watermark(watermark),
        )
        .unwrap();
        register_drain(&ch, dp.end(Domain::Decaf));
        (k, dp)
    }

    #[test]
    fn out_urbs_cross_as_descriptors_with_zero_copies() {
        let (k, dp) = path(4);
        for i in 0..8u64 {
            dp.submit_out(&k, 2, &[0x5a; 517], i).unwrap();
        }
        let done = dp.reclaim(&k);
        assert_eq!(done.len(), 8, "two watermark doorbells drained all");
        assert!(done.iter().all(|r| r.ok() && r.actual == 517));
        assert_eq!(
            k.stats().bytes_copied,
            0,
            "payloads are adopted, not copied"
        );
        let s = dp.channel().stats();
        assert_eq!(s.doorbells, 2);
        assert_eq!(s.ring_posts, 8);
        assert!(
            s.bytes_in + s.bytes_out < 64,
            "only doorbell headers marshal"
        );
        assert!(dp.pool().conserved());
        assert_eq!(dp.pool().in_use_sectors(), 0, "every run handed back");
    }

    #[test]
    fn in_completions_hand_ownership_back_with_actual_length() {
        let (k, dp) = path(1);
        dp.submit_in(&k, 1, 512, 42).unwrap();
        let done = dp.reclaim(&k);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].cookie, 42);
        assert_eq!(done[0].actual, 100, "short read reports the true length");
        assert_eq!(done[0].data.len(), 100);
        assert_eq!(k.stats().bytes_copied, 0, "handback is in place");
        assert!(dp.pool().conserved());
    }

    #[test]
    fn deadline_flushes_a_lone_urb_via_poll() {
        let (k, dp) = path(8);
        dp.submit_out(&k, 2, b"cmd", 1).unwrap();
        assert_eq!(dp.pending(), 1, "below watermark, parked");
        assert!(!dp.maybe_ring(&k).unwrap());
        k.run_for(costs::DOORBELL_COALESCE_NS + 1);
        assert!(dp.maybe_ring(&k).unwrap(), "coalescing deadline expired");
        assert_eq!(dp.reclaim(&k).len(), 1);
    }

    #[test]
    fn declined_drain_survivors_still_deadline_fire() {
        // Regression for the disarm-with-occupancy hazard: a completer
        // that declines a doorbell (device busy — consumes nothing) used
        // to leave the ring occupied with `armed_at == None`, so
        // below-watermark survivors could never deadline-fire and waited
        // for the watermark forever.
        let k = Kernel::new();
        let ch = channel();
        let dp = UrbDataPath::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "urb_drain",
            Rc::new(ShmRing::new("urb-submit", 8)),
            Rc::new(ShmRing::new("urb-giveback", 8)),
            Rc::new(SectorPool::with_capacity(512, 8)),
            DoorbellPolicy::with_watermark(8),
        )
        .unwrap();
        let end = dp.end(Domain::Decaf);
        let busy = Rc::new(Cell::new(true));
        {
            let busy = Rc::clone(&busy);
            ch.register_proc(
                Domain::Decaf,
                ProcDef {
                    name: "urb_drain".into(),
                    arg_types: vec![],
                    handler: Rc::new(move |k, _, _, _| {
                        if !busy.get() {
                            end.consume(k, |d| {
                                end.complete(k, d.completed(0, d.len)).unwrap();
                            });
                        }
                        XdrValue::Void
                    }),
                },
            )
            .unwrap();
        }
        dp.submit_out(&k, 2, b"cmd", 0).unwrap();
        dp.submit_out(&k, 2, b"data", 1).unwrap();
        dp.ring_doorbell(&k).unwrap();
        assert_eq!(dp.pending(), 2, "busy completer declined the drain");
        assert!(
            !dp.maybe_ring(&k).unwrap(),
            "survivor window not expired yet"
        );
        busy.set(false);
        k.run_for(costs::DOORBELL_COALESCE_NS + 1);
        assert!(
            dp.maybe_ring(&k).unwrap(),
            "survivors must deadline-fire within one window"
        );
        assert_eq!(dp.reclaim(&k).len(), 2);
        assert!(dp.pool().conserved());
    }

    #[test]
    fn exhaustion_rings_doorbell_then_backpressures() {
        let k = Kernel::new();
        let ch = channel();
        let dp = UrbDataPath::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "urb_drain",
            Rc::new(ShmRing::new("urb-submit", 8)),
            Rc::new(ShmRing::new("urb-giveback", 8)),
            Rc::new(SectorPool::with_capacity(512, 2)),
            DoorbellPolicy::with_watermark(64),
        )
        .unwrap();
        register_drain(&ch, dp.end(Domain::Decaf));
        dp.submit_out(&k, 2, &[1; 512], 0).unwrap();
        dp.submit_out(&k, 2, &[1; 512], 1).unwrap();
        // Pool exhausted: the path forces a drain and backpressures.
        let err = dp.submit_out(&k, 2, &[1; 512], 2);
        assert!(matches!(err, Err(XpcError::Backpressure(_))));
        // The caller reclaims and retries — now it fits.
        assert_eq!(dp.reclaim(&k).len(), 2);
        dp.submit_out(&k, 2, &[1; 512], 2).unwrap();
        dp.ring_doorbell(&k).unwrap();
        assert_eq!(dp.reclaim(&k).len(), 1);
        assert!(dp.pool().conserved());
        assert_eq!(dp.channel().stats().ring_posts, 3);
    }

    #[test]
    fn full_submit_ring_forces_doorbell_so_retry_succeeds() {
        let k = Kernel::new();
        let ch = channel();
        // Ring shallower than the watermark: posts park until full.
        let dp = UrbDataPath::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "urb_drain",
            Rc::new(ShmRing::new("urb-submit", 2)),
            Rc::new(ShmRing::new("urb-giveback", 8)),
            Rc::new(SectorPool::with_capacity(512, 16)),
            DoorbellPolicy::with_watermark(64),
        )
        .unwrap();
        register_drain(&ch, dp.end(Domain::Decaf));
        dp.submit_out(&k, 2, &[1; 64], 0).unwrap();
        dp.submit_out(&k, 2, &[1; 64], 1).unwrap();
        // Ring full: the refusal must force a drain, not just refuse.
        let err = dp.submit_out(&k, 2, &[1; 64], 2);
        assert!(matches!(err, Err(XpcError::Backpressure(_))));
        assert_eq!(dp.reclaim(&k).len(), 2, "forced doorbell drained the ring");
        dp.submit_out(&k, 2, &[1; 64], 2).unwrap();
        dp.ring_doorbell(&k).unwrap();
        assert_eq!(dp.reclaim(&k).len(), 1);
        assert!(dp.pool().conserved());
        assert_eq!(dp.pool().in_use_sectors(), 0, "refused URB freed its run");
    }

    #[test]
    fn undersized_in_chain_rejected_at_submit_not_mid_drain() {
        // Regression: a `request_in` whose chain is shorter than `len`
        // used to be accepted at submit and only fail device-side,
        // mid-drain, as a surprise `TooLarge`. It must fail *here*, to
        // the caller, before anything is posted.
        let (k, dp) = path(64);
        let chain = dp.pool().alloc_sg(512).unwrap();
        let desc = UrbDescriptor::request_in(chain, 1024, 1, 5);
        let err = dp.submit(&k, desc);
        assert!(
            matches!(err, Err(XpcError::InvalidRequest(_))),
            "undersized chain must be an invalid request, got {err:?}"
        );
        assert_eq!(dp.pending(), 0, "nothing was posted");
        assert_eq!(dp.channel().stats().ring_posts, 0);
        assert_eq!(dp.pool().in_use_sectors(), 0, "refused URB freed its chain");
        assert!(dp.pool().conserved());
        // A dead chain is likewise refused (and cannot be double-freed).
        let err = dp.submit(&k, UrbDescriptor::request_in(chain, 100, 1, 6));
        assert!(matches!(err, Err(XpcError::InvalidRequest(_))));
        // A correctly-sized chain sails through the same entry point.
        let ok = dp.pool().alloc_sg(512).unwrap();
        dp.submit(&k, UrbDescriptor::request_in(ok, 512, 1, 7))
            .unwrap();
        dp.ring_doorbell(&k).unwrap();
        assert_eq!(dp.reclaim(&k).len(), 1);
        assert!(dp.pool().conserved());
    }

    #[test]
    fn zero_length_transfers_allocate_no_sectors() {
        // The USB status-stage shape: a zero-length OUT rides an empty
        // chain — no sector burned, ledger still closed.
        let (k, dp) = path(1);
        dp.submit_out(&k, 2, &[], 11).unwrap();
        assert_eq!(
            dp.pool().stats().sectors_allocated,
            0,
            "ZLP pinned no sectors"
        );
        let done = dp.reclaim(&k);
        assert_eq!(done.len(), 1);
        assert!(done[0].ok());
        assert_eq!(done[0].actual, 0);
        assert!(dp.pool().conserved());
        assert!(dp.pool().conserved());
        assert_eq!(dp.pool().in_use_sectors(), 0);
    }

    #[test]
    fn fragmented_pool_still_accepts_transfers_it_has_bytes_for() {
        // The headline bug: pin every other sector so no 2-sector
        // contiguous run exists, then submit multi-sector OUT URBs. The
        // SG path chains them instead of refusing.
        let (k, dp) = path(1);
        let pool = Rc::clone(dp.pool());
        let pins: Vec<_> = (0..64).map(|_| pool.alloc(1).unwrap()).collect();
        for (i, pin) in pins.iter().enumerate() {
            if i % 2 == 0 {
                pool.free(*pin).unwrap();
            }
        }
        assert_eq!(pool.available_sectors(), 32);
        let payload = vec![0xc3u8; 1024]; // needs 2 sectors
        dp.submit_out(&k, 2, &payload, 0).unwrap();
        let done = dp.reclaim(&k);
        assert_eq!(done.len(), 1, "fragmented pool served the transfer");
        assert!(done[0].ok());
        assert_eq!(pool.stats().frag_refusals, 0, "never refused");
        assert_eq!(k.stats().bytes_copied, 0, "chaining stays zero-copy");
        for (i, pin) in pins.iter().enumerate() {
            if i % 2 != 0 {
                pool.free(*pin).unwrap();
            }
        }
        assert!(dp.pool().conserved());
        assert!(pool.conserved());
    }

    #[test]
    fn failed_transfers_report_errno_and_still_free_runs() {
        let k = Kernel::new();
        let ch = channel();
        let dp = UrbDataPath::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "urb_drain",
            Rc::new(ShmRing::new("urb-submit", 8)),
            Rc::new(ShmRing::new("urb-giveback", 8)),
            Rc::new(SectorPool::with_capacity(512, 8)),
            DoorbellPolicy::with_watermark(1),
        )
        .unwrap();
        let end = dp.end(Domain::Decaf);
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "urb_drain".into(),
                arg_types: vec![],
                handler: Rc::new(move |k, _, _, _| {
                    end.consume(k, |d| {
                        end.complete(k, d.completed(-5, 0)).unwrap();
                    });
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
        dp.submit_in(&k, 1, 512, 9).unwrap();
        let done = dp.reclaim(&k);
        assert_eq!(done[0].status, -5);
        assert!(done[0].data.is_empty(), "no payload on a failed IN");
        assert_eq!(dp.pool().in_use_sectors(), 0, "failed runs still reclaimed");
        assert!(dp.pool().conserved());
    }

    #[test]
    fn in_giveback_longer_than_its_request_is_eio_not_stale_bytes() {
        // A completer that reports more than the request asked for (100
        // bytes requested, 512 reported) used to be handed the rest of
        // the sector-rounded chain — never zeroed, so whatever an
        // earlier transfer left there. One sector: the IN chain reuses
        // the run the OUT payload was adopted into.
        let k = Kernel::new();
        let ch = channel();
        let dp = UrbDataPath::new(
            Rc::clone(&ch),
            Domain::Nucleus,
            "urb_drain",
            Rc::new(ShmRing::new("urb-submit", 8)),
            Rc::new(ShmRing::new("urb-giveback", 8)),
            Rc::new(SectorPool::with_capacity(512, 1)),
            DoorbellPolicy::with_watermark(1),
        )
        .unwrap();
        let end = dp.end(Domain::Decaf);
        ch.register_proc(
            Domain::Decaf,
            ProcDef::scalar("urb_drain", move |k, _| {
                end.consume(k, |d| {
                    let actual = match d.dir {
                        XferDir::Out => d.len,
                        XferDir::In => 512,
                    };
                    end.complete(k, d.completed(0, actual)).unwrap();
                });
                XdrValue::Void
            }),
        )
        .unwrap();
        dp.submit_out(&k, 2, &[0xAA; 512], 0).unwrap();
        assert!(dp.reclaim(&k)[0].ok());
        dp.submit_in(&k, 1, 100, 1).unwrap();
        let done = dp.reclaim(&k);
        assert_eq!(done.len(), 1);
        assert_eq!(
            (done[0].status, done[0].data.len()),
            (-5, 0),
            "an over-long giveback is -EIO with no data"
        );
        assert_eq!(dp.pool().in_use_sectors(), 0, "the run is still freed");
        assert!(dp.pool().conserved());
    }
}
