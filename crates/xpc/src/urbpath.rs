//! The request/response data-path channel for URB-shaped (storage/USB)
//! transfers: the storage sibling of [`crate::DataPathChannel`].
//!
//! The NIC data path is a pair of unidirectional streams; a storage
//! data path is a stream of *transactions*. A [`UrbDataPath`] pairs an
//! [`XpcChannel`] with the [`decaf_shmring`] URB pieces:
//!
//! * the **submitter** (the nucleus' USB core) allocates a
//!   variable-length scatter-gather chain — one contiguous run when the
//!   pool has one, several when it is fragmented, none at all for a
//!   zero-length status-stage transfer — *adopts* the payload into it
//!   (zero-copy page donation, never a marshal or a memcpy) and posts a
//!   [`UrbDescriptor`] request into the **submit ring**;
//! * the **doorbell** is the one `Doorbell` the NIC paths
//!   ride too: an ordinary XPC call with zero object arguments,
//!   coalesced by a [`DoorbellPolicy`] — ring at a watermark, or once
//!   the oldest request has waited out the coalescing deadline;
//! * the **completer** (the decaf driver's drain handler) consumes
//!   requests, programs the hardware straight from the shared sector
//!   run, and pushes each descriptor — now carrying `status` and the
//!   *actual* transferred length — onto the **giveback ring**;
//! * the submitter [`UrbDataPath::reclaim`]s givebacks: OUT runs are
//!   freed, IN runs are read *in place* (the ownership handback — the
//!   completion carries the run, not a copied payload) and then freed.
//!
//! Conservation is tracked end to end: every URB submitted is either
//! given back or still in flight, and the sector pool's own counters
//! guarantee no run leaks across the boundary.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use decaf_shmring::{DoorbellPolicy, PoolError, SectorPool, ShmRing, UrbDescriptor, XferDir};
use decaf_simkernel::Kernel;

use crate::datapath::drain_batch;
use crate::domain::Domain;
use crate::doorbell::Doorbell;
use crate::endpoint::XpcChannel;
use crate::error::{XpcError, XpcResult};

/// Conservation counters for one URB data path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UrbPathStats {
    /// URB requests posted into the submit ring.
    pub submitted: u64,
    /// Completed URBs reclaimed from the giveback ring.
    pub given_back: u64,
    /// Most URBs simultaneously in flight.
    pub in_flight_hwm: u64,
}

/// One reclaimed URB completion, ready for the submitter's callback
/// dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrbReclaim {
    /// The submitter's correlation cookie.
    pub cookie: u64,
    /// 0 on success, a negative errno on failure.
    pub status: i32,
    /// Bytes actually transferred (short reads report the true length).
    pub actual: u32,
    /// Transfer direction.
    pub dir: XferDir,
    /// IN-direction payload, read *in place* from the handed-back sector
    /// run before the run was freed — a simulation artifact of the
    /// ownership handback, not a modeled copy.
    pub data: Vec<u8>,
}

impl UrbReclaim {
    /// The completion as a `Result`, for callers that map errno to their
    /// own error type.
    pub fn ok(&self) -> bool {
        self.status == 0
    }
}

/// Submitter-side handle: posts URB requests, coalesces doorbells,
/// reclaims givebacks.
pub struct UrbDataPath {
    bell: Doorbell<UrbDescriptor>,
    giveback: Rc<ShmRing<UrbDescriptor>>,
    pool: Rc<SectorPool>,
    in_flight: Cell<u64>,
    stats: Cell<UrbPathStats>,
    /// The giveback batch (see [`ShmRing::drain`]), reused per reclaim.
    reclaimed: RefCell<Vec<UrbDescriptor>>,
}

impl UrbDataPath {
    /// Builds a URB data path whose requests flow `producer` → peer and
    /// whose doorbell invokes `doorbell_proc` (which must be registered
    /// at the peer end of `channel`). `pool` is the sector pool both
    /// ends share — normally carved from the device's own DMA region.
    pub fn new(
        channel: Rc<XpcChannel>,
        producer: Domain,
        doorbell_proc: impl Into<String>,
        submit: Rc<ShmRing<UrbDescriptor>>,
        giveback: Rc<ShmRing<UrbDescriptor>>,
        pool: Rc<SectorPool>,
        policy: DoorbellPolicy,
    ) -> XpcResult<Rc<Self>> {
        Ok(Rc::new(UrbDataPath {
            bell: Doorbell::new(channel, producer, doorbell_proc, submit, policy)?,
            giveback,
            pool,
            in_flight: Cell::new(0),
            stats: Cell::new(UrbPathStats::default()),
            reclaimed: RefCell::default(),
        }))
    }

    /// The underlying control channel.
    pub fn channel(&self) -> &Rc<XpcChannel> {
        self.bell.channel()
    }

    /// The shared sector pool.
    pub fn pool(&self) -> &Rc<SectorPool> {
        &self.pool
    }

    /// The submit ring (requests, submitter → completer).
    pub fn submit_ring(&self) -> &Rc<ShmRing<UrbDescriptor>> {
        self.bell.ring()
    }

    /// The giveback ring (completions, completer → submitter).
    pub fn giveback_ring(&self) -> &Rc<ShmRing<UrbDescriptor>> {
        &self.giveback
    }

    /// Requests posted and not yet drained by a doorbell.
    pub fn pending(&self) -> usize {
        self.submit_ring().len()
    }

    /// URBs submitted and not yet given back.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.get()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> UrbPathStats {
        self.stats.get()
    }

    /// The conservation invariant: every URB ever submitted is either
    /// given back or still in flight.
    pub fn conserved(&self) -> bool {
        let s = self.stats.get();
        s.submitted == s.given_back + self.in_flight.get()
    }

    fn bump(&self, f: impl FnOnce(&mut UrbPathStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn map_pool_err(e: PoolError) -> XpcError {
        XpcError::Backpressure(e.to_string())
    }

    /// An end handle for `domain` — what the completer's drain handler
    /// captures instead of the whole path (no reference cycles through
    /// registered procedures).
    pub fn end(&self, domain: Domain) -> UrbEnd {
        UrbEnd {
            submit: Rc::clone(self.submit_ring()),
            giveback: Rc::clone(&self.giveback),
            pool: Rc::clone(&self.pool),
            domain,
            batch: RefCell::default(),
        }
    }

    /// Submits a host-to-device transfer: allocates a scatter-gather
    /// chain sized to the payload, adopts the payload into it (zero-copy
    /// page donation — [`decaf_simkernel::costs::SECTOR_MAP_NS`] per
    /// sector, no `charge_copy`), posts the request descriptor and rings
    /// the doorbell if the policy says it is due.
    ///
    /// On sector exhaustion the path forces a doorbell so the completer
    /// drains, then reports [`XpcError::Backpressure`]; the caller
    /// reclaims givebacks and retries. An error always means the URB was
    /// *not* submitted.
    pub fn submit_out(
        &self,
        kernel: &Kernel,
        endpoint: u8,
        payload: &[u8],
        cookie: u64,
    ) -> XpcResult<()> {
        let chain = self.alloc_chain(kernel, payload.len())?;
        if let Err(e) = self.pool.adopt_payload_sg(kernel, payload, chain) {
            let _ = self.pool.free_sg(chain);
            return Err(Self::map_pool_err(e));
        }
        self.submit(
            kernel,
            UrbDescriptor::request_out(chain, payload.len() as u32, endpoint, cookie),
        )
    }

    /// Submits a device-to-host transfer: allocates an empty chain of
    /// `expected_len` bytes capacity for the device to DMA into and
    /// posts the request. The giveback hands the chain back with the
    /// *actual* transferred length.
    pub fn submit_in(
        &self,
        kernel: &Kernel,
        endpoint: u8,
        expected_len: usize,
        cookie: u64,
    ) -> XpcResult<()> {
        let chain = self.alloc_chain(kernel, expected_len)?;
        self.submit(
            kernel,
            UrbDescriptor::request_in(chain, expected_len as u32, endpoint, cookie),
        )
    }

    /// Submits a caller-built descriptor, validating it first: the
    /// chain must be live and its capacity must cover `desc.len`, so an
    /// undersized IN request fails **here**, to the caller, as
    /// [`XpcError::InvalidRequest`] — not device-side mid-drain as a
    /// surprise `TooLarge`. Like every other submit error path, a
    /// refused descriptor's chain is freed: an error always means the
    /// URB was not submitted and nothing leaked.
    pub fn submit(&self, kernel: &Kernel, desc: UrbDescriptor) -> XpcResult<()> {
        match self.pool.sg_capacity(desc.buf) {
            Ok(cap) if cap >= desc.len as usize => self.post(kernel, desc),
            Ok(cap) => {
                let _ = self.pool.free_sg(desc.buf);
                Err(XpcError::InvalidRequest(format!(
                    "URB requests {} bytes but its chain holds {cap}",
                    desc.len
                )))
            }
            Err(e) => Err(XpcError::InvalidRequest(format!(
                "URB names a dead chain: {e}"
            ))),
        }
    }

    fn alloc_chain(&self, kernel: &Kernel, len: usize) -> XpcResult<decaf_shmring::SgHandle> {
        match self.pool.alloc_sg(len) {
            Ok(run) => {
                kernel.trace_instant(
                    "pool",
                    "alloc",
                    &[
                        ("bytes", len as u64),
                        ("in_use", self.pool.in_use_sectors() as u64),
                    ],
                );
                Ok(run)
            }
            Err(PoolError::Exhausted) => {
                // Force the completer to drain; the freed runs come back
                // through the giveback ring, which only the caller may
                // reclaim (completions carry callbacks it must dispatch).
                self.ring_doorbell(kernel)?;
                Err(XpcError::Backpressure(
                    "sector pool exhausted: reclaim givebacks and retry".into(),
                ))
            }
            Err(e) => Err(Self::map_pool_err(e)),
        }
    }

    fn post(&self, kernel: &Kernel, desc: UrbDescriptor) -> XpcResult<()> {
        if self.bell.post(kernel, desc, desc.len as u64).is_err() {
            let _ = self.pool.free_sg(desc.buf);
            // Same staged backpressure as sector exhaustion: force
            // the completer to drain, so the caller's
            // reclaim-and-retry can actually succeed.
            let _ = self.ring_doorbell(kernel);
            return Err(XpcError::Backpressure(format!(
                "ring `{}` full: reclaim givebacks and retry",
                self.submit_ring().name()
            )));
        }
        let in_flight = self.in_flight.get() + 1;
        self.in_flight.set(in_flight);
        self.bump(|s| {
            s.submitted += 1;
            s.in_flight_hwm = s.in_flight_hwm.max(in_flight);
        });
        // The URB is committed; the doorbell is best-effort (a completer
        // fault is contained by the XPC layer and the deadline poll
        // retries the crossing).
        let _ = self.maybe_ring(kernel);
        Ok(())
    }

    /// Rings the doorbell if the policy says the parked requests are due
    /// — see `Doorbell::maybe_ring`.
    pub fn maybe_ring(&self, kernel: &Kernel) -> XpcResult<bool> {
        self.bell.maybe_ring(kernel)
    }

    /// Rings the doorbell unconditionally (no-op on an empty submit
    /// ring) — see `Doorbell::ring_doorbell`.
    pub fn ring_doorbell(&self, kernel: &Kernel) -> XpcResult<()> {
        self.bell.ring_doorbell(kernel)
    }

    /// Submitter-side poll hook (call from a timer's work item): rings
    /// the doorbell if the coalescing deadline has expired on parked
    /// requests. Returns whether a doorbell was rung; the caller
    /// reclaims givebacks afterwards either way.
    pub fn poll(&self, kernel: &Kernel) -> XpcResult<bool> {
        self.maybe_ring(kernel)
    }

    /// Drains the giveback ring: for every completed descriptor, reads
    /// the IN-direction payload in place (the ownership handback), frees
    /// the sector run, and returns a [`UrbReclaim`] for the submitter's
    /// callback dispatch. Givebacks may arrive in any order.
    pub fn reclaim(&self, kernel: &Kernel) -> Vec<UrbReclaim> {
        let class = self.bell.producer().cpu_class();
        let mut out = Vec::new();
        let fill = |done: &mut Vec<UrbDescriptor>| {
            self.giveback.drain(kernel, class, done);
            if !done.is_empty() {
                // Every giveback frees its sector run below, so one
                // instant carries both the reclaim count and the pool
                // releases.
                let n = done.len() as u64;
                kernel.trace_instant("ring", "reclaim", &[("completions", n), ("freed_runs", n)]);
            }
        };
        drain_batch(&self.reclaimed, fill, |d| {
            // An inconsistent giveback (actual exceeding the chain, a
            // stale handle) must surface as -EIO, never masquerade as a
            // successful zero-byte read.
            let (status, data) = if d.dir == XferDir::In && d.ok() {
                match self.pool.read_payload_sg(d.buf, d.actual as usize) {
                    Ok(data) => (d.status, data),
                    Err(_) => (-5, Vec::new()),
                }
            } else {
                (d.status, Vec::new())
            };
            let freed = self.pool.free_sg(d.buf);
            debug_assert!(
                freed.is_ok(),
                "giveback carried a handle the pool rejects: {freed:?}"
            );
            self.in_flight.set(self.in_flight.get() - 1);
            self.bump(|s| s.given_back += 1);
            out.push(UrbReclaim {
                cookie: d.cookie,
                status,
                actual: d.actual,
                dir: d.dir,
                data,
            });
        });
        out
    }
}

impl std::fmt::Debug for UrbDataPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UrbDataPath")
            .field("producer", &self.bell.producer())
            .field("submit", &self.submit_ring().name())
            .field("pending", &self.pending())
            .field("in_flight", &self.in_flight.get())
            .finish()
    }
}

/// The completer's view of the shared rings: just `Rc`s to pinned
/// memory, so drain handlers capture it without creating a reference
/// cycle through the channel's procedure table.
#[derive(Clone)]
pub struct UrbEnd {
    submit: Rc<ShmRing<UrbDescriptor>>,
    giveback: Rc<ShmRing<UrbDescriptor>>,
    pool: Rc<SectorPool>,
    domain: Domain,
    /// The batch a drain fills, reused (see [`ShmRing::drain`]).
    batch: RefCell<Vec<UrbDescriptor>>,
}

impl UrbEnd {
    /// The shared sector pool (for [`SectorPool::sg_segments`]: the
    /// completer programs the hardware straight from the chain's DMA
    /// extents, one transfer descriptor per segment).
    pub fn pool(&self) -> &Rc<SectorPool> {
        &self.pool
    }

    /// Pops every posted request, then hands them to `each`, oldest
    /// first — FIFO order is what keeps multi-URB transactions (command,
    /// then data stage) correct. Returns how many there were.
    pub fn consume(&self, kernel: &Kernel, each: impl FnMut(UrbDescriptor)) -> usize {
        let class = self.domain.cpu_class();
        drain_batch(&self.batch, |b| self.submit.drain(kernel, class, b), each)
    }

    /// Hands a completed descriptor (response fields filled in via
    /// [`UrbDescriptor::completed`]) back through the giveback ring.
    pub fn complete(&self, kernel: &Kernel, desc: UrbDescriptor) -> XpcResult<()> {
        self.giveback
            .push(kernel, self.domain.cpu_class(), desc)
            .map_err(|_| {
                XpcError::Backpressure(format!("giveback ring `{}` full", self.giveback.name()))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{ChannelConfig, ProcDef};
    use decaf_simkernel::costs;
    use decaf_xdr::mask::MaskSet;
    use decaf_xdr::{XdrSpec, XdrValue};

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
    fn register_drain(ch: &Rc<XpcChannel>, end: UrbEnd) {
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
        assert!(dp.conserved());
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
        assert!(dp.conserved());
    }

    #[test]
    fn deadline_flushes_a_lone_urb_via_poll() {
        let (k, dp) = path(8);
        dp.submit_out(&k, 2, b"cmd", 1).unwrap();
        assert_eq!(dp.pending(), 1, "below watermark, parked");
        assert!(!dp.poll(&k).unwrap());
        k.run_for(costs::DOORBELL_COALESCE_NS + 1);
        assert!(dp.poll(&k).unwrap(), "coalescing deadline expired");
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
        assert!(!dp.poll(&k).unwrap(), "survivor window not expired yet");
        busy.set(false);
        k.run_for(costs::DOORBELL_COALESCE_NS + 1);
        assert!(
            dp.poll(&k).unwrap(),
            "survivors must deadline-fire within one window"
        );
        assert_eq!(dp.reclaim(&k).len(), 2);
        assert!(dp.conserved());
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
        assert!(dp.conserved());
        assert_eq!(dp.stats().submitted, 3);
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
        assert!(dp.conserved());
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
        assert_eq!(dp.stats().submitted, 0);
        assert_eq!(dp.pool().in_use_sectors(), 0, "refused URB freed its chain");
        assert!(dp.conserved());
        // A dead chain is likewise refused (and cannot be double-freed).
        let err = dp.submit(&k, UrbDescriptor::request_in(chain, 100, 1, 6));
        assert!(matches!(err, Err(XpcError::InvalidRequest(_))));
        // A correctly-sized chain sails through the same entry point.
        let ok = dp.pool().alloc_sg(512).unwrap();
        dp.submit(&k, UrbDescriptor::request_in(ok, 512, 1, 7))
            .unwrap();
        dp.ring_doorbell(&k).unwrap();
        assert_eq!(dp.reclaim(&k).len(), 1);
        assert!(dp.conserved());
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
        assert!(dp.conserved());
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
        assert!(dp.conserved());
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
        assert!(dp.conserved());
    }
}
