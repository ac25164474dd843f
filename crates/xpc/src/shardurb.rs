//! The sharded storage data path: N parallel [`UrbDataPath`]s riding a
//! [`ShardedChannel`], steered per LUN.
//!
//! [`crate::DataPathChannel`] scaled out in PR 3 by pairing a
//! [`decaf_shmring::RingSet`] with per-shard channels; this module is
//! the same move for the request/response storage path. A
//! [`ShardedUrbPath`] owns one [`UrbDataPath`] per shard (built by
//! [`crate::RingPath::per_shard`], as the NIC paths are), each bound to
//! its shard's [`crate::XpcChannel`] (own transport queue, own delta
//! maps) and to its shard's submit/giveback ring pair inside one
//! [`UrbRingSet`] — all over a single shared [`decaf_shmring::SectorPool`]
//! carved from the one device's DMA region.
//!
//! Steering is **per LUN**, not per URB: a storage transaction is a
//! FIFO sequence (stage command, then data transfer), so every URB of
//! one LUN must ride one shard's rings; distinct LUNs spread. The
//! completer gives finished descriptors back through
//! [`UrbRingSet::complete`], which steers each one home to the shard
//! that submitted it — per-shard conservation depends on it.
//!
//! Backpressure is staged per shard, exactly like the unsharded path: a
//! full submit ring or an exhausted pool forces that shard's doorbell
//! (so the completer drains and the pool refills) and reports
//! [`crate::XpcError::Backpressure`]; the caller reclaims givebacks and
//! retries. One saturated LUN never blocks its siblings' queues.
//!
//! Fault recovery composes with [`ShardedChannel::recover_shard`]: the
//! rings and the sector pool live in pinned shared memory, so a dead
//! decaf end loses neither parked requests nor in-flight runs —
//! [`ShardedUrbPath::recover_shard`] resets the failed end, requeues the
//! surviving deferred control calls, and re-rings the shard's doorbell
//! so parked submits drain on the fresh channel.

use std::cell::RefCell;
use std::rc::Rc;

use decaf_shmring::UrbRingSet;
use decaf_simkernel::Kernel;

use crate::admission::{AdmissionController, AdmissionVerdict, TrafficClass};
use crate::domain::Domain;
use crate::error::{XpcError, XpcResult};
use crate::ringpath::{UrbDataPath, UrbReclaim};
use crate::shard::ShardedChannel;

/// N parallel URB data paths behind one facade, steered per LUN.
pub struct ShardedUrbPath {
    channels: Rc<ShardedChannel>,
    set: Rc<UrbRingSet>,
    paths: Vec<Rc<UrbDataPath>>,
    producer: Domain,
    admission: RefCell<Option<Rc<AdmissionController>>>,
}

impl ShardedUrbPath {
    /// Builds one [`UrbDataPath`] per shard over `set`'s ring pairs and
    /// shared pool, each riding its shard of `channels` and ringing
    /// `doorbell_proc` (which must be registered at the peer end of
    /// every shard) — see [`crate::RingPath::per_shard`], which also
    /// refuses a set and facade that disagree on the shard count.
    pub fn new(
        channels: Rc<ShardedChannel>,
        producer: Domain,
        doorbell_proc: &str,
        set: Rc<UrbRingSet>,
        watermark: usize,
    ) -> XpcResult<Rc<Self>> {
        let pool = Rc::clone(set.pool());
        let paths =
            UrbDataPath::per_shard(&channels, producer, doorbell_proc, &set, pool, watermark)?;
        Ok(Rc::new(ShardedUrbPath {
            channels,
            set,
            paths,
            producer,
            admission: RefCell::new(None),
        }))
    }

    /// Installs (or removes, with `None`) an admission controller that
    /// rules on every submit before any ring capacity is consumed.
    ///
    /// A [`AdmissionVerdict::Reject`] verdict surfaces as
    /// [`XpcError::AdmissionReject`] — unlike staged backpressure the
    /// URB was never queued, so the caller retries later without
    /// reclaiming anything first. Descriptor rings are SPSC FIFO and
    /// cannot drop parked entries, so at this layer a
    /// [`AdmissionVerdict::Shed`] verdict degrades to admit; shedding
    /// belongs to software queues above the rings (the open-loop
    /// engine's dispatch queue executes it there).
    pub fn set_admission(&self, ctrl: Option<Rc<AdmissionController>>) {
        *self.admission.borrow_mut() = ctrl;
    }

    fn admit(&self, kernel: &Kernel, cookie: u64) -> XpcResult<()> {
        let guard = self.admission.borrow();
        let Some(ctrl) = guard.as_ref() else {
            return Ok(());
        };
        match ctrl.offer(kernel.now_ns(), TrafficClass::Storage, self.pending()) {
            AdmissionVerdict::Admit | AdmissionVerdict::Shed(_) => Ok(()),
            AdmissionVerdict::Reject => Err(XpcError::AdmissionReject(format!(
                "storage urb {cookie} refused at {} pending",
                self.pending()
            ))),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.paths.len()
    }

    /// The underlying ring set (per-shard counters, origin map, pool).
    pub fn set(&self) -> &Rc<UrbRingSet> {
        &self.set
    }

    /// Shard `i`'s data path (the completer builds its
    /// [`crate::RingEnd`] from here).
    pub fn path(&self, shard: usize) -> &Rc<UrbDataPath> {
        &self.paths[shard]
    }

    /// Maps a LUN to its shard (deterministic: one LUN's command and
    /// data URBs stay FIFO on one queue).
    pub fn steer(&self, lun: u64) -> usize {
        self.set.steer(lun)
    }

    /// Submits a host-to-device transfer on `lun`'s shard: the payload
    /// is adopted into the shared pool (zero-copy page donation), the
    /// request descriptor posted into that shard's submit ring, the
    /// origin recorded for completion steering, and the shard's doorbell
    /// rung if due — all charged to the shard via
    /// [`Kernel::shard_scope`]. Returns the shard used.
    ///
    /// On a full ring or an exhausted pool the shard's doorbell is
    /// forced and [`XpcError::Backpressure`] reported; the URB was *not*
    /// submitted (the origin record is unwound) — reclaim and retry.
    pub fn submit_out(
        &self,
        kernel: &Kernel,
        lun: u64,
        endpoint: u8,
        payload: &[u8],
        cookie: u64,
    ) -> XpcResult<usize> {
        self.admit(kernel, cookie)?;
        let shard = self.steer(lun);
        kernel.shard_scope(shard, || {
            kernel.trace_instant("shard", "steer", &[("shard", shard as u64), ("lun", lun)]);
            // Note first: a watermark doorbell inside submit_out runs
            // the completer synchronously, and it must already be able
            // to steer this URB's giveback home.
            self.set.note_submit(shard, cookie);
            match self.paths[shard].submit_out(kernel, endpoint, payload, cookie) {
                Ok(()) => Ok(shard),
                Err(e) => {
                    self.set.cancel_submit(cookie);
                    Err(e)
                }
            }
        })
    }

    /// Submits a device-to-host transfer on `lun`'s shard: an empty run
    /// of `expected_len` bytes for the device to fill; the giveback
    /// hands the run back with the actual length. Returns the shard
    /// used; errors behave like [`ShardedUrbPath::submit_out`].
    pub fn submit_in(
        &self,
        kernel: &Kernel,
        lun: u64,
        endpoint: u8,
        expected_len: usize,
        cookie: u64,
    ) -> XpcResult<usize> {
        self.admit(kernel, cookie)?;
        let shard = self.steer(lun);
        kernel.shard_scope(shard, || {
            kernel.trace_instant("shard", "steer", &[("shard", shard as u64), ("lun", lun)]);
            self.set.note_submit(shard, cookie);
            match self.paths[shard].submit_in(kernel, endpoint, expected_len, cookie) {
                Ok(()) => Ok(shard),
                Err(e) => {
                    self.set.cancel_submit(cookie);
                    Err(e)
                }
            }
        })
    }

    /// Drains one shard's giveback ring under its cost scope.
    pub fn reclaim_shard(&self, kernel: &Kernel, shard: usize) -> Vec<UrbReclaim> {
        kernel.shard_scope(shard, || self.paths[shard].reclaim(kernel))
    }

    /// Drains every shard's giveback ring (shard order; givebacks within
    /// a shard stay FIFO).
    pub fn reclaim(&self, kernel: &Kernel) -> Vec<UrbReclaim> {
        let mut out = Vec::new();
        for shard in 0..self.paths.len() {
            out.extend(self.reclaim_shard(kernel, shard));
        }
        out
    }

    /// Polls every shard's coalescing deadline; returns how many shards
    /// rang. A due shard never waits for traffic on its siblings, and a
    /// shard whose doorbell errors does not starve the ones after it
    /// (the first error is reported once the sweep completes).
    pub fn poll(&self, kernel: &Kernel) -> XpcResult<usize> {
        let mut rang = 0;
        let mut first_err = None;
        for (i, path) in self.paths.iter().enumerate() {
            match kernel.shard_scope(i, || path.maybe_ring(kernel)) {
                Ok(true) => rang += 1,
                Ok(false) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(rang),
        }
    }

    /// Requests posted and not yet drained, across all shards.
    pub fn pending(&self) -> usize {
        self.paths.iter().map(|p| p.pending()).sum()
    }

    /// URBs submitted and not yet reclaimed, across all shards: those
    /// the completer has not given back (the set's origin ledger) plus
    /// the givebacks waiting in the completion rings.
    pub fn in_flight(&self) -> u64 {
        let landed: usize = self.paths.iter().map(|p| p.completions().len()).sum();
        (self.set.in_flight() + landed) as u64
    }

    /// The conservation invariant: the ring set's per-shard counters
    /// conserve — none lost, none double-completed, every completion
    /// steered home to the shard that submitted it.
    pub fn conserved(&self) -> bool {
        self.set.conserved()
    }

    /// Recovers shard `shard` after its `failed` end died mid-burst:
    /// delegates to [`ShardedChannel::recover_shard`] (parked deferred
    /// control calls requeue, the failed end resets, later transfers
    /// marshal in full), then re-rings the shard's doorbell — requests
    /// parked in the submit ring and runs held by the sector pool live
    /// in pinned shared memory and survive the fault, so the fresh
    /// completer drains them where the dead one stopped. Returns the
    /// number of requeued deferred calls.
    pub fn recover_shard(&self, kernel: &Kernel, shard: usize, failed: Domain) -> XpcResult<usize> {
        if failed == self.producer {
            return Err(XpcError::ShardConflict(format!(
                "recover_shard: {failed:?} is the submitter side; \
                 only the completer end can be recovered"
            )));
        }
        let requeued = self.channels.recover_shard(kernel, shard, failed)?;
        kernel.shard_scope(shard, || self.paths[shard].ring_doorbell(kernel))?;
        Ok(requeued)
    }
}

impl std::fmt::Debug for ShardedUrbPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedUrbPath")
            .field("shards", &self.paths.len())
            .field("producer", &self.producer)
            .field("pending", &self.pending())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{ChannelConfig, ProcDef};
    use decaf_shmring::{SectorPool, XferDir};
    use decaf_simkernel::CpuClass;
    use decaf_xdr::mask::MaskSet;
    use decaf_xdr::{XdrSpec, XdrValue};

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

    /// Registers a per-shard completer that echoes OUT lengths, "reads"
    /// 100 bytes for IN requests, and gives back through the *set* so
    /// completions steer home.
    fn register_drains(sc: &Rc<ShardedChannel>, path: &Rc<ShardedUrbPath>) {
        for i in 0..sc.shard_count() {
            let end = path.path(i).end(Domain::Decaf);
            let set = Rc::clone(path.set());
            sc.shard(i)
                .register_proc(
                    Domain::Decaf,
                    ProcDef {
                        name: "urb_drain".into(),
                        arg_types: vec![],
                        handler: Rc::new(move |k, _, _, _| {
                            end.consume(k, |d| {
                                let actual = match d.dir {
                                    XferDir::Out => d.len,
                                    XferDir::In => 100,
                                };
                                set.complete(k, CpuClass::User, d.completed(0, actual))
                                    .unwrap();
                            });
                            XdrValue::Void
                        }),
                    },
                )
                .unwrap();
        }
    }

    fn sharded(
        shards: usize,
        sectors: usize,
        depth: usize,
        watermark: usize,
    ) -> (Kernel, Rc<ShardedChannel>, Rc<ShardedUrbPath>) {
        let k = Kernel::new();
        let sc = facade(shards);
        let set = UrbRingSet::new(
            "urb",
            shards,
            depth,
            2 * depth,
            Rc::new(SectorPool::with_capacity(512, sectors)),
        );
        let path =
            ShardedUrbPath::new(Rc::clone(&sc), Domain::Nucleus, "urb_drain", set, watermark)
                .unwrap();
        register_drains(&sc, &path);
        (k, sc, path)
    }

    #[test]
    fn shard_count_mismatch_is_refused() {
        let sc = facade(2);
        let set = UrbRingSet::new("urb", 3, 8, 16, Rc::new(SectorPool::with_capacity(512, 8)));
        let err = ShardedUrbPath::new(sc, Domain::Nucleus, "urb_drain", set, 4).unwrap_err();
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
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
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
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
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
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
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
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
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
        use crate::admission::{AdmissionPolicy, TokenBucket};

        let (k, _sc, path) = sharded(2, 64, 16, 4);
        let ctrl = Rc::new(
            AdmissionController::new(AdmissionPolicy::RejectAtAdmission, 8).with_bucket(
                crate::admission::TrafficClass::Storage,
                TokenBucket::new(1_000, 2),
            ),
        );
        path.set_admission(Some(Rc::clone(&ctrl)));
        // The burst admits two URBs; the third is refused at the door —
        // no origin record, no ring slot, no pool sector was touched.
        path.submit_out(&k, 0, 2, &[1; 64], 0).unwrap();
        path.submit_out(&k, 1, 2, &[1; 64], 1).unwrap();
        let before = path.set().stats().posted;
        let err = path.submit_out(&k, 0, 2, &[1; 64], 2).unwrap_err();
        assert!(matches!(err, XpcError::AdmissionReject(_)), "{err}");
        assert_eq!(path.set().stats().posted, before, "nothing was queued");
        // Virtual time refills the bucket and the retry goes through.
        k.run_for(1_000_001);
        path.submit_out(&k, 0, 2, &[1; 64], 2).unwrap();
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        path.poll(&k).unwrap();
        assert_eq!(path.reclaim(&k).len(), 3);
        let s = ctrl.stats(crate::admission::TrafficClass::Storage);
        assert_eq!((s.offered, s.admitted, s.rejected), (4, 3, 1));
        assert!(ctrl.balanced());
        assert!(path.conserved(), "rejects never unbalance the rings");
        // Removing the controller restores unconditional admission.
        path.set_admission(None);
        path.submit_out(&k, 0, 2, &[1; 64], 3).unwrap();
        assert_eq!(
            ctrl.total().offered,
            4,
            "uninstalled controller sees nothing"
        );
    }
}
