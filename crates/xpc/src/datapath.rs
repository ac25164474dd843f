//! The shared-memory data-path channel: descriptors ride pinned rings,
//! doorbells ride the control transport, payload bytes never touch the
//! XDR marshaler.
//!
//! A [`DataPathChannel`] pairs an [`XpcChannel`] with the
//! [`decaf_shmring`] subsystem:
//!
//! * the **producer** (normally the nucleus: the network stack's
//!   transmit path, or the interrupt handler posting received frames)
//!   writes payloads into the shared [`BufPool`] — the one audited CPU
//!   copy — and posts 16-byte [`Descriptor`]s into the [`ShmRing`];
//! * the **doorbell** is an ordinary XPC call with *zero object
//!   arguments*: one crossing, priced by the channel's transport, that
//!   tells the consumer "descriptors await". A [`DoorbellPolicy`] coalesces
//!   it — ring at a watermark occupancy, or once the oldest post has
//!   waited out the coalescing deadline. The protocol is
//!   `Doorbell`, shared with the storage path;
//! * the **consumer** (the decaf driver's drain handler) pops
//!   descriptors — paying cache-line pulls, not per-byte marshal — and
//!   hands them back through a **completion ring**, so buffer ownership
//!   round-trips without a single payload byte crossing by value.
//!
//! This is the mechanism that makes hosting the *data* path at user
//! level affordable: the per-packet boundary cost collapses from
//! `O(payload bytes)` marshaling to `O(1)` descriptor traffic plus an
//! amortized doorbell.

use std::cell::RefCell;
use std::rc::Rc;

use decaf_shmring::{BufPool, Descriptor, DoorbellPolicy, PoolError, ShmRing};
use decaf_simkernel::{costs, Kernel};

use crate::domain::Domain;
use crate::doorbell::Doorbell;
use crate::endpoint::XpcChannel;
use crate::error::{XpcError, XpcResult};

/// The convention every ring drain in this crate follows: whoever drains
/// keeps one batch and reuses it. `fill` loads the batch kept in `slot`
/// (see [`ShmRing::drain`] — every pop is paid for before the first
/// descriptor is looked at), then each descriptor goes to `each`, oldest
/// first, and the emptied batch goes back. Returns how many there were.
pub(crate) fn drain_batch<D>(
    slot: &RefCell<Vec<D>>,
    fill: impl FnOnce(&mut Vec<D>),
    each: impl FnMut(D),
) -> usize {
    // Taken, not borrowed: `each` may re-enter whoever owns the slot.
    let mut batch = slot.take();
    fill(&mut batch);
    let drained = batch.len();
    batch.drain(..).for_each(each);
    slot.replace(batch);
    drained
}

/// Producer-side handle: posts descriptors, coalesces doorbells,
/// reclaims completed buffers.
pub struct DataPathChannel {
    bell: Doorbell<Descriptor>,
    completions: Rc<ShmRing>,
    pool: Option<Rc<BufPool>>,
    /// The reclaim batch (see [`ShmRing::drain`]), reused per reclaim.
    reclaimed: RefCell<Vec<Descriptor>>,
}

impl DataPathChannel {
    /// Builds a data path whose descriptors flow `producer` → peer and
    /// whose doorbell invokes `doorbell_proc` (which must be registered
    /// at the peer end of `channel`).
    ///
    /// `pool` is the payload buffer pool for [`DataPathChannel::send`];
    /// pass `None` when descriptors reference buffers owned elsewhere
    /// (e.g. device receive slots) and are posted with
    /// [`DataPathChannel::post`].
    pub fn new(
        channel: Rc<XpcChannel>,
        producer: Domain,
        doorbell_proc: impl Into<String>,
        ring: Rc<ShmRing>,
        completions: Rc<ShmRing>,
        pool: Option<Rc<BufPool>>,
        policy: DoorbellPolicy,
    ) -> XpcResult<Rc<Self>> {
        Ok(Rc::new(DataPathChannel {
            bell: Doorbell::new(channel, producer, doorbell_proc, ring, policy)?,
            completions,
            pool,
            reclaimed: RefCell::default(),
        }))
    }

    /// The underlying control channel.
    pub fn channel(&self) -> &Rc<XpcChannel> {
        self.bell.channel()
    }

    /// The descriptor ring (producer → consumer).
    pub fn ring(&self) -> &Rc<ShmRing> {
        self.bell.ring()
    }

    /// The completion ring (consumer → producer).
    pub fn completions(&self) -> &Rc<ShmRing> {
        &self.completions
    }

    /// The payload pool, if this path owns one.
    pub fn pool(&self) -> Option<&Rc<BufPool>> {
        self.pool.as_ref()
    }

    /// Descriptors posted and not yet drained by a doorbell.
    pub fn pending(&self) -> usize {
        self.ring().len()
    }

    /// An end handle for `domain` — what drain handlers and interrupt
    /// paths capture instead of the whole channel (no reference cycles
    /// through registered procedures).
    pub fn end(&self, domain: Domain) -> DataPathEnd {
        DataPathEnd {
            ring: Rc::clone(self.ring()),
            completions: Rc::clone(&self.completions),
            pool: self.pool.clone(),
            domain,
            batch: RefCell::default(),
        }
    }

    fn map_pool_err(e: PoolError) -> XpcError {
        XpcError::Backpressure(e.to_string())
    }

    /// Sends one payload: allocates a pool buffer, writes the payload
    /// into shared memory (the single audited copy), posts a descriptor
    /// and rings the doorbell if the policy says it is due.
    ///
    /// On pool exhaustion the channel applies backpressure in stages:
    /// reclaim completions, force a doorbell so the consumer drains,
    /// reclaim again — and only then reports [`XpcError::Backpressure`].
    ///
    /// An error always means the frame was *not* posted (producers may
    /// safely retry or unwind); once the descriptor is in the ring the
    /// send has succeeded, and any fault in the post-send doorbell is
    /// contained rather than surfaced here.
    pub fn send(&self, kernel: &Kernel, payload: &[u8], cookie: u64) -> XpcResult<()> {
        let pool = self
            .pool
            .as_ref()
            .ok_or_else(|| XpcError::Backpressure("data path has no buffer pool".into()))?;
        self.reclaim_completions_with(kernel, |_| {});
        let handle = match pool.alloc() {
            Ok(h) => h,
            Err(PoolError::Exhausted) => {
                self.ring_doorbell(kernel)?;
                self.reclaim_completions_with(kernel, |_| {});
                pool.alloc().map_err(Self::map_pool_err)?
            }
            Err(e) => return Err(Self::map_pool_err(e)),
        };
        // From here the buffer is ours until a descriptor carries it: on
        // any failure it must go back to the pool, or backpressure would
        // become permanent pool shrinkage.
        let class = self.bell.producer().cpu_class();
        if let Err(e) = pool.write_payload(kernel, class, handle, payload) {
            let _ = pool.free(handle);
            return Err(Self::map_pool_err(e));
        }
        if let Err(e) = self.post(
            kernel,
            Descriptor {
                buf: handle,
                len: payload.len() as u32,
                cookie,
            },
        ) {
            let _ = pool.free(handle);
            return Err(e);
        }
        // The frame is committed once its descriptor is posted; an error
        // from `send` always means "not posted". The doorbell itself is
        // best-effort: a consumer-side fault during the drain is
        // contained by the XPC layer (and counted in the channel's fault
        // stats), the batch stays parked, and the deadline poll retries
        // the crossing.
        let _ = self.maybe_ring(kernel);
        Ok(())
    }

    /// Posts a raw descriptor without touching the pool or the doorbell.
    /// Safe from atomic context (no crossing happens); the caller decides
    /// when to ring — interrupt handlers defer that to a work item.
    pub fn post(&self, kernel: &Kernel, desc: Descriptor) -> XpcResult<()> {
        self.bell
            .post(kernel, desc, desc.len as u64)
            .map_err(|_| XpcError::Backpressure(format!("ring `{}` full", self.ring().name())))
    }

    /// Rings the doorbell if the policy says the parked descriptors are
    /// due — see `Doorbell::maybe_ring`.
    pub fn maybe_ring(&self, kernel: &Kernel) -> XpcResult<bool> {
        self.bell.maybe_ring(kernel)
    }

    /// Rings the doorbell unconditionally (no-op on an empty ring) — see
    /// `Doorbell::ring_doorbell`. A doorbell launched on an async
    /// control transport is settled when the producer next harvests
    /// ([`DataPathChannel::reclaim_completions`] does).
    pub fn ring_doorbell(&self, kernel: &Kernel) -> XpcResult<()> {
        self.bell.ring_doorbell(kernel)
    }

    /// Producer-side poll hook (call from a timer's work item): reclaims
    /// completions and rings the doorbell if the coalescing deadline has
    /// expired on parked descriptors.
    pub fn poll(&self, kernel: &Kernel) -> XpcResult<bool> {
        self.reclaim_completions_with(kernel, |_| {});
        self.maybe_ring(kernel)
    }

    /// Drains the completion ring at the producer end. Pool-backed
    /// buffers are freed (ownership handback — completions may arrive in
    /// any order); the descriptors are returned for drivers that need
    /// their cookies (e.g. to recycle device receive slots).
    pub fn reclaim_completions(&self, kernel: &Kernel) -> Vec<Descriptor> {
        let mut done = Vec::new();
        self.reclaim_completions_with(kernel, |d| done.push(d));
        done
    }

    /// [`DataPathChannel::reclaim_completions`] for callers on a
    /// per-packet path: every reclaimed descriptor is handed to `each`
    /// (after the whole ring is drained and the pool buffers are freed)
    /// out of a batch this path keeps, not a fresh `Vec`. Returns how
    /// many came back.
    pub fn reclaim_completions_with(&self, kernel: &Kernel, each: impl FnMut(Descriptor)) -> usize {
        // Settle any launched doorbell crossings first: time spent
        // producing since the launch covers them as overlap.
        self.channel().harvest_with(kernel, |_| {});
        let class = self.bell.producer().cpu_class();
        let fill = |done: &mut Vec<Descriptor>| {
            self.completions.drain(kernel, class, done);
            if !done.is_empty() {
                kernel.trace_instant("ring", "reclaim", &[("completions", done.len() as u64)]);
            }
            if let Some(pool) = &self.pool {
                for d in done.iter() {
                    // A handle the pool rejects belongs to the driver (raw
                    // descriptor); the driver reclaims it via the cookie.
                    let _ = pool.free(d.buf);
                }
            }
        };
        drain_batch(&self.reclaimed, fill, each)
    }
}

impl std::fmt::Debug for DataPathChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataPathChannel")
            .field("producer", &self.bell.producer())
            .field("ring", &self.ring().name())
            .field("pending", &self.pending())
            .finish()
    }
}

/// One end's view of the shared rings: just `Rc`s to pinned memory, so
/// drain handlers can capture it without creating a reference cycle
/// through the channel's procedure table — plus the batch its drains
/// fill (see [`ShmRing::drain`]): a handler keeps its end, so the batch
/// is allocated once and reused on every doorbell or poll tick.
#[derive(Clone)]
pub struct DataPathEnd {
    ring: Rc<ShmRing>,
    completions: Rc<ShmRing>,
    pool: Option<Rc<BufPool>>,
    domain: Domain,
    batch: RefCell<Vec<Descriptor>>,
}

impl DataPathEnd {
    /// The payload pool, if the path owns one.
    pub fn pool(&self) -> Option<&Rc<BufPool>> {
        self.pool.as_ref()
    }

    /// Pops every posted descriptor (consumer side of the main ring),
    /// charging this end's CPU class per cache-line pull, then hands
    /// them to `each`, oldest first. Returns how many there were.
    pub fn consume(&self, kernel: &Kernel, each: impl FnMut(Descriptor)) -> usize {
        let class = self.domain.cpu_class();
        drain_batch(&self.batch, |b| self.ring.drain(kernel, class, b), each)
    }

    /// Pops one posted descriptor.
    pub fn consume_one(&self, kernel: &Kernel) -> Option<Descriptor> {
        self.ring.pop(kernel, self.domain.cpu_class())
    }

    /// Hands a finished descriptor back through the completion ring.
    pub fn complete(&self, kernel: &Kernel, desc: Descriptor) -> XpcResult<()> {
        self.completions
            .push(kernel, self.domain.cpu_class(), desc)
            .map_err(|_| {
                XpcError::Backpressure(format!(
                    "completion ring `{}` full",
                    self.completions.name()
                ))
            })
    }

    /// Poll-mode receive: probes the ring up to `budget` times, paying
    /// one [`costs::POLL_SPIN_NS`] probe per iteration whether or not a
    /// descriptor is waiting, then hands what it found to `each` and
    /// returns the count. No interrupt entry, no doorbell crossing — the
    /// consumer pays a steady spin tax instead, which wins once the
    /// offered rate is high enough that probes rarely miss (the
    /// interrupt-vs-poll crossover).
    pub fn poll_and_reclaim(
        &self,
        kernel: &Kernel,
        budget: usize,
        each: impl FnMut(Descriptor),
    ) -> usize {
        let probe = |got: &mut Vec<Descriptor>| {
            let mut probes = 0u64;
            for _ in 0..budget {
                kernel.charge(self.domain.cpu_class(), costs::POLL_SPIN_NS);
                probes += 1;
                match self.ring.pop(kernel, self.domain.cpu_class()) {
                    Some(d) => got.push(d),
                    None => break,
                }
            }
            kernel.trace_instant(
                "rx",
                "poll_probe",
                &[("probes", probes), ("hits", got.len() as u64)],
            );
        };
        drain_batch(&self.batch, probe, each)
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

    type SeenPayloads = Rc<RefCell<Vec<Vec<u8>>>>;

    /// A consumer that drains on the doorbell, records payloads, and
    /// completes every descriptor.
    fn register_drain(ch: &Rc<XpcChannel>, end: DataPathEnd, seen: SeenPayloads) {
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "drain".into(),
                arg_types: vec![],
                handler: Rc::new(move |k, _, _, _| {
                    end.consume(k, |d| {
                        let pool = end.pool().expect("pool-backed path");
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
        assert!(dp.pool().unwrap().stats().exhausted > 0);
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
                        if let Some(d) = end.consume_one(k) {
                            drained.borrow_mut().push(d.cookie);
                            end.complete(k, d).unwrap();
                        }
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
}
