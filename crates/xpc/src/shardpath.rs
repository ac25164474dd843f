//! The sharded data path, written once for both descriptor kinds: N
//! parallel [`RingPath`]s riding a [`ShardedChannel`], one per ring pair
//! of a [`ShardedRings`] set.
//!
//! A [`ShardedRingPath`] binds shard `i`'s [`crate::XpcChannel`] (own
//! transport queue, own delta maps) to shard `i`'s descriptor and
//! completion rings, all drawing on one payload pool. What both kinds
//! need from that shape lives in one generic block:
//!
//! * **steering** — a key (a flow, a LUN) maps to a shard through the
//!   set, so one key's descriptors stay FIFO on one queue;
//! * **note-first posting** ([`ShardedRingPath::post_on`]) — the origin
//!   is recorded in the set *before* the post, under the shard's cost
//!   scope, because a watermark doorbell inside the post runs the
//!   consumer synchronously and its completions must already steer home;
//!   a post that fails cancels the note;
//! * **sweeps** ([`ShardedRingPath::poll`], [`ShardedRingPath::ring_all`])
//!   — every shard under its own scope, a failing shard never starving
//!   the ones after it;
//! * **drain registration** ([`ShardedRingPath::register_drains`]) — one
//!   consumer body per shard under the paths' doorbell name, charged to
//!   that shard;
//! * **recovery** ([`ShardedRingPath::recover_shard`]) — the rings and the
//!   pool live in pinned shared memory, so a dead consumer end loses
//!   neither parked descriptors nor in-flight payloads.
//!
//! What a descriptor *means* stays with its kind. [`ShardedUrbPath`]
//! steers per LUN and submits and reclaims URB transactions. A ring-hosted
//! NIC holds a TX and an RX `ShardedRingPath<Descriptor>` and adds its
//! flow hash, interrupt handler and timers on top (`decaf_drivers`'
//! `ringnic`).

use std::rc::Rc;

use decaf_shmring::{DoorbellPolicy, RingDescriptor, ShardedRings, UrbDescriptor};
use decaf_simkernel::Kernel;
use decaf_xdr::XdrValue;

use crate::domain::Domain;
use crate::endpoint::ProcDef;
use crate::error::{XpcError, XpcResult};
use crate::ringpath::{RingEnd, RingPath, UrbReclaim};
use crate::shard::ShardedChannel;

/// N parallel ring paths behind one facade, one per shard of a ring set.
#[derive(Debug)]
pub struct ShardedRingPath<D: RingDescriptor> {
    channels: Rc<ShardedChannel>,
    set: Rc<ShardedRings<D>>,
    paths: Vec<Rc<RingPath<D>>>,
    producer: Domain,
}

/// The storage instance: per-shard URB submit/giveback ring pairs over
/// one shared [`decaf_shmring::SectorPool`], steered per LUN.
pub type ShardedUrbPath = ShardedRingPath<UrbDescriptor>;

impl<D: RingDescriptor> ShardedRingPath<D> {
    /// Builds one [`RingPath`] per shard of `set`, each riding its shard
    /// of `channels`, drawing on the set's pool and ringing
    /// `doorbell_proc` (see [`ShardedRingPath::register_drains`]). Each
    /// shard gets its own doorbell policy with `watermark`: coalescing
    /// state is per queue.
    ///
    /// Fails with [`XpcError::ShardConflict`] when the ring set and the
    /// channel facade disagree on the shard count — a mismatch would
    /// leave rings without a doorbell or doorbells without rings.
    pub fn new(
        channels: Rc<ShardedChannel>,
        producer: Domain,
        doorbell_proc: impl Into<String>,
        set: Rc<ShardedRings<D>>,
        watermark: usize,
    ) -> XpcResult<Rc<Self>> {
        let shards = set.shards();
        if channels.shard_count() != shards {
            return Err(XpcError::ShardConflict(format!(
                "ring set has {shards} shards, channel facade {}",
                channels.shard_count()
            )));
        }
        let names = std::iter::repeat_n(doorbell_proc.into(), shards);
        let paths = names
            .enumerate()
            .map(|(i, name)| {
                RingPath::new(
                    Rc::clone(channels.shard(i)),
                    producer,
                    name,
                    Rc::clone(set.ring(i)),
                    Rc::clone(set.completions(i)),
                    set.pool().clone(),
                    DoorbellPolicy::with_watermark(watermark),
                )
            })
            .collect::<XpcResult<_>>()?;
        Ok(Rc::new(ShardedRingPath {
            channels,
            set,
            paths,
            producer,
        }))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.paths.len()
    }

    /// The underlying ring set (per-shard counters, origin ledger).
    pub fn set(&self) -> &Rc<ShardedRings<D>> {
        &self.set
    }

    /// Shard `i`'s data path (a consumer builds its [`RingEnd`] from
    /// here).
    pub fn path(&self, shard: usize) -> &Rc<RingPath<D>> {
        &self.paths[shard]
    }

    /// Maps a steering key to its shard (deterministic: one key's
    /// descriptors stay FIFO on one queue).
    pub fn steer(&self, key: u64) -> usize {
        self.set.steer(key)
    }

    /// Descriptors posted and not yet drained, across all shards.
    pub fn pending(&self) -> usize {
        self.paths.iter().map(|p| p.pending()).sum()
    }

    /// The shards a producer poll has work on — descriptors parked or
    /// completions waiting — one bit per shard ([`crate::MAX_SHARDS`]
    /// fits a word).
    pub fn busy(&self) -> u64 {
        self.paths.iter().enumerate().fold(0, |busy, (i, p)| {
            busy | ((p.pending() > 0 || !p.completions().is_empty()) as u64) << i
        })
    }

    /// Posts `cookie` on `shard` through `post`, under the shard's cost
    /// scope: the origin is noted first — a doorbell inside `post` runs
    /// the consumer synchronously, and it must already be able to steer
    /// the completion home — and cancelled if `post` fails, so an error
    /// always means nothing was posted. A cookie already in flight is
    /// refused there ([`XpcError::InvalidRequest`]) and `post` never runs.
    pub fn post_on<R>(
        &self,
        kernel: &Kernel,
        shard: usize,
        cookie: u64,
        post: impl FnOnce(&RingPath<D>) -> XpcResult<R>,
    ) -> XpcResult<R> {
        kernel.shard_scope(shard, || {
            let noted = self.set.note_post(shard, cookie);
            noted.map_err(|e| XpcError::InvalidRequest(e.to_string()))?;
            post(&self.paths[shard]).inspect_err(|_| self.set.cancel_post(cookie))
        })
    }

    /// Runs `f` on the path of every shard in `shards` (one bit per
    /// shard, as [`ShardedRingPath::busy`] reports them), in shard order,
    /// each under its cost scope; returns how many said `true`. The other
    /// shards are not entered. A shard whose `f` errors does not starve
    /// the ones after it: the first error is reported once the sweep
    /// completes.
    pub fn sweep(
        &self,
        kernel: &Kernel,
        shards: u64,
        mut f: impl FnMut(usize, &RingPath<D>) -> XpcResult<bool>,
    ) -> XpcResult<usize> {
        let (mut hits, mut first_err) = (0, None);
        let paths = self.paths.iter().enumerate();
        for (i, path) in paths.filter(|&(i, _)| shards >> i & 1 == 1) {
            match kernel.shard_scope(i, || f(i, path)) {
                Ok(hit) => hits += hit as usize,
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(hits), Err)
    }

    /// Polls every shard's coalescing deadline; returns how many shards
    /// rang. A due shard never waits for traffic on its siblings.
    pub fn poll(&self, kernel: &Kernel) -> XpcResult<usize> {
        self.sweep(kernel, u64::MAX, |_, path| path.maybe_ring(kernel))
    }

    /// Rings the doorbell of every shard [`ShardedRingPath::busy`] when
    /// the sweep starts (a no-op on an empty ring). An idle shard is not
    /// visited: nothing parked, nothing completed, so there it would move
    /// neither clock.
    pub fn ring_all(&self, kernel: &Kernel) -> XpcResult<()> {
        let ring = |_, path: &RingPath<D>| path.ring_doorbell(kernel).map(|()| true);
        self.sweep(kernel, self.busy(), ring).map(drop)
    }

    /// Registers the consumer's drain on every shard under the paths'
    /// doorbell name: `drain` builds each shard's body from that shard's
    /// consumer end and the set (completing through the set steers each
    /// descriptor home), and every run of the body is charged to its
    /// shard's cost scope. The body keeps its own return value and trace
    /// events.
    pub fn register_drains<F>(
        &self,
        mut drain: impl FnMut(RingEnd<D>, Rc<ShardedRings<D>>) -> F,
    ) -> XpcResult<()>
    where
        F: Fn(&Kernel) -> XdrValue + 'static,
    {
        let consumer = self.channels.shard(0).peer_domain(self.producer)?;
        for (i, path) in self.paths.iter().enumerate() {
            let body = drain(path.end(consumer), Rc::clone(&self.set));
            let def = ProcDef::scalar(path.proc_name.as_str(), move |k, _| {
                k.shard_scope(i, || body(k))
            });
            self.channels.shard(i).register_proc(consumer, def)?;
        }
        Ok(())
    }

    /// Recovers shard `shard` after its `failed` end died mid-burst:
    /// delegates to [`ShardedChannel::recover_shard`] (parked deferred
    /// control calls requeue, the failed end resets, later transfers
    /// marshal in full), then re-rings the shard's doorbell — descriptors
    /// parked in the ring and payloads held by the pool live in pinned
    /// shared memory and survive the fault, so the fresh consumer drains
    /// them where the dead one stopped. Returns the number of requeued
    /// deferred calls.
    pub fn recover_shard(&self, kernel: &Kernel, shard: usize, failed: Domain) -> XpcResult<usize> {
        if failed == self.producer {
            return Err(XpcError::ShardConflict(format!(
                "recover_shard: {failed:?} is the producer side; \
                 only the consumer end can be recovered"
            )));
        }
        let requeued = self.channels.recover_shard(kernel, shard, failed)?;
        kernel.shard_scope(shard, || self.paths[shard].ring_doorbell(kernel))?;
        Ok(requeued)
    }
}

/// Storage: steering is **per LUN**, not per URB — a storage transaction
/// is a FIFO sequence (stage command, then data transfer), so every URB
/// of one LUN rides one shard's rings. The completer gives finished
/// descriptors back through [`decaf_shmring::UrbRingSet::complete`],
/// which steers each one home to the shard that submitted it.
///
/// Backpressure is staged per shard, exactly like the unsharded path: a
/// full submit ring or an exhausted pool forces that shard's doorbell and
/// reports [`XpcError::Backpressure`]; the caller reclaims givebacks and
/// retries. One saturated LUN never blocks its siblings' queues.
impl ShardedRingPath<UrbDescriptor> {
    /// Submits a host-to-device transfer on `lun`'s shard: the payload
    /// is adopted into the shared pool (zero-copy page donation), the
    /// request descriptor posted into that shard's submit ring and the
    /// shard's doorbell rung if due (see [`ShardedRingPath::post_on`]).
    /// Returns the shard used.
    ///
    /// On a full ring or an exhausted pool the shard's doorbell is
    /// forced and [`XpcError::Backpressure`] reported; the URB was *not*
    /// submitted — reclaim and retry.
    pub fn submit_out(
        &self,
        kernel: &Kernel,
        lun: u64,
        endpoint: u8,
        payload: &[u8],
        cookie: u64,
    ) -> XpcResult<usize> {
        let shard = self.steer(lun);
        self.post_on(kernel, shard, cookie, |path| {
            kernel.trace_instant("shard", "steer", &[("shard", shard as u64), ("lun", lun)]);
            path.submit_out(kernel, endpoint, payload, cookie)
        })?;
        Ok(shard)
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
        let shard = self.steer(lun);
        self.post_on(kernel, shard, cookie, |path| {
            kernel.trace_instant("shard", "steer", &[("shard", shard as u64), ("lun", lun)]);
            path.submit_in(kernel, endpoint, expected_len, cookie)
        })?;
        Ok(shard)
    }

    /// Drains one shard's giveback ring under its cost scope.
    pub fn reclaim_shard(&self, kernel: &Kernel, shard: usize) -> Vec<UrbReclaim> {
        kernel.shard_scope(shard, || self.paths[shard].reclaim(kernel))
    }

    /// Drains every shard's giveback ring (shard order; givebacks within
    /// a shard stay FIFO).
    pub fn reclaim(&self, kernel: &Kernel) -> Vec<UrbReclaim> {
        let mut out = Vec::new();
        self.reclaim_into(kernel, &mut out);
        out
    }

    /// [`ShardedUrbPath::reclaim`] into a batch the caller keeps and
    /// reuses: every shard's givebacks are appended to `out`, each shard
    /// under its cost scope. Returns how many came back. A shard whose
    /// giveback ring is empty is not visited: reclaiming settles no
    /// launched crossing, so there it would move neither clock.
    pub fn reclaim_into(&self, kernel: &Kernel, out: &mut Vec<UrbReclaim>) -> usize {
        let mut reclaimed = 0;
        for (shard, path) in self.paths.iter().enumerate() {
            if !path.completions().is_empty() {
                reclaimed += kernel.shard_scope(shard, || path.reclaim_into(kernel, out));
            }
        }
        reclaimed
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
}
