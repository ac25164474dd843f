//! The shared-memory data path, written once for both descriptor kinds:
//! descriptors ride pinned rings, doorbells ride the control transport,
//! payload bytes never touch the XDR marshaler.
//!
//! A [`RingPath`] pairs an [`XpcChannel`] with one descriptor ring, its
//! completion ring and the payload pool both ends share, generic over the
//! [`RingDescriptor`] that [`decaf_shmring::ShardedRings`] carries too:
//!
//! * the **producer** (normally the nucleus) puts the payload where the
//!   consumer can reach it — NIC frames are written once into a
//!   [`decaf_shmring::BufPool`] buffer (the one audited CPU copy), URB
//!   payloads are *adopted* into a [`decaf_shmring::SectorPool`]
//!   scatter-gather chain (zero-copy page donation) — and posts a
//!   descriptor into the ring;
//! * the **doorbell** is an ordinary XPC call with *zero object
//!   arguments*: one crossing, priced by the channel's transport, that
//!   tells the consumer "descriptors await". A [`DoorbellPolicy`]
//!   coalesces it — ring at a watermark occupancy, or once the oldest
//!   post has waited out the coalescing deadline;
//! * the **consumer** (the decaf driver's drain handler) holds a
//!   [`RingEnd`]: it pops descriptors — paying cache-line pulls, not
//!   per-byte marshal — and hands each back through the completion ring,
//!   so buffer ownership round-trips without a payload byte crossing by
//!   value.
//!
//! The doorbell protocol has four steps, and every wakeup bug this repo
//! has had lived in one of them: **post** (push, arm the coalescing
//! deadline on the first post since the last ring, account the post on
//! the channel), **maybe ring** (ring when the policy says the parked
//! descriptors are due, otherwise record the coalesce), **ring** (one
//! crossing carrying only the descriptor count; on a launching control
//! channel the doorbell *launches* at once as a one-call batch instead of
//! blocking, without parking unless control calls are parked ahead of
//! it) and **re-arm for
//! survivors** (a budgeted or declining consumer may leave descriptors
//! parked; the deadline restarts for them instead of disarming into the
//! never-fires state).
//!
//! What differs between the kinds is what a descriptor means, and it
//! lives in one inherent block each. [`DataPathChannel`] carries NIC
//! frame [`Descriptor`]s — a pair of streams, each completion only saying
//! "this buffer is yours again". [`UrbDataPath`] carries
//! [`UrbDescriptor`]s — *transactions*: the giveback carries `status` and
//! the actual length, and for IN transfers the payload run's ownership,
//! read in place before the run is freed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use decaf_shmring::{
    Descriptor, DoorbellPolicy, PoolError, RingDescriptor, RingError, SgHandle, ShmRing,
    UrbDescriptor, XferDir,
};
use decaf_simkernel::counters::Bump;
use decaf_simkernel::{costs, Kernel};
use decaf_xdr::XdrValue;

use crate::domain::Domain;
use crate::endpoint::{ProcHandle, XpcChannel};
use crate::error::{XpcError, XpcResult};

/// The convention every ring drain in this crate follows: whoever drains
/// keeps one batch and reuses it. `fill` loads the batch kept in `slot`
/// (see [`ShmRing::drain`] — every pop is paid for before the first
/// descriptor is looked at), then each descriptor goes to `each`, oldest
/// first, and the emptied batch goes back. Returns how many there were.
fn drain_batch<D>(
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

fn pool_err(e: PoolError) -> XpcError {
    XpcError::Backpressure(e.to_string())
}

/// Producer-side handle: posts descriptors, coalesces doorbells,
/// reclaims completions.
pub struct RingPath<D: RingDescriptor> {
    channel: Rc<XpcChannel>,
    producer: Domain,
    ring: Rc<ShmRing<D>>,
    completions: Rc<ShmRing<D>>,
    pool: D::Pool,
    /// The doorbell's procedure at the consumer's end (what
    /// [`crate::ShardedRingPath::register_drains`] registers).
    pub(crate) proc_name: String,
    /// `proc_name` resolved at the consumer's end — on the first ring,
    /// since the drain is registered after the path that rings it.
    proc: Cell<Option<ProcHandle>>,
    bell: DoorbellPolicy,
    /// The reclaim batch (see [`ShmRing::drain`]), reused per reclaim.
    reclaimed: RefCell<Vec<D>>,
}

/// The NIC instance: frame descriptors, and a payload
/// [`decaf_shmring::BufPool`] when the path sends payloads (`None` when
/// descriptors name buffers owned elsewhere, e.g. device receive slots).
pub type DataPathChannel = RingPath<Descriptor>;

/// The storage instance: URB request/response descriptors over a
/// [`decaf_shmring::SectorPool`] both ends share.
pub type UrbDataPath = RingPath<UrbDescriptor>;

impl<D: RingDescriptor> RingPath<D> {
    /// Builds a path whose descriptors flow `producer` → peer through
    /// `ring`, come back through `completions`, and whose doorbell
    /// invokes `doorbell_proc` (which must be registered at the peer end
    /// of `channel`) under `policy`. `pool` is what payloads live in.
    pub fn new(
        channel: Rc<XpcChannel>,
        producer: Domain,
        doorbell_proc: impl Into<String>,
        ring: Rc<ShmRing<D>>,
        completions: Rc<ShmRing<D>>,
        pool: D::Pool,
        policy: DoorbellPolicy,
    ) -> XpcResult<Rc<Self>> {
        channel.peer_domain(producer)?;
        Ok(Rc::new(RingPath {
            channel,
            producer,
            ring,
            completions,
            pool,
            proc_name: doorbell_proc.into(),
            proc: Cell::new(None),
            bell: policy,
            reclaimed: RefCell::default(),
        }))
    }

    /// The control channel the doorbell rides.
    pub fn channel(&self) -> &Rc<XpcChannel> {
        &self.channel
    }

    /// The descriptor ring (producer → consumer; the submit ring of a
    /// URB path).
    pub fn ring(&self) -> &Rc<ShmRing<D>> {
        &self.ring
    }

    /// The completion ring (consumer → producer; the giveback ring of a
    /// URB path).
    pub fn completions(&self) -> &Rc<ShmRing<D>> {
        &self.completions
    }

    /// The payload pool.
    pub fn pool(&self) -> &D::Pool {
        &self.pool
    }

    /// Descriptors posted and not yet drained by a doorbell.
    pub fn pending(&self) -> usize {
        self.ring.len()
    }

    /// An end handle for `domain` — what drain handlers and interrupt
    /// paths capture instead of the whole path (no reference cycles
    /// through registered procedures).
    pub fn end(&self, domain: Domain) -> RingEnd<D> {
        RingEnd {
            ring: Rc::clone(&self.ring),
            completions: Rc::clone(&self.completions),
            pool: self.pool.clone(),
            domain,
            batch: RefCell::default(),
        }
    }

    /// Pushes one descriptor of `bytes` payload bytes and accounts it:
    /// the deadline arms on the first post since the last ring, and the
    /// channel's post counter and occupancy high-water mark move. A full
    /// ring refuses the post and changes nothing. Safe from atomic
    /// context — no crossing happens here.
    fn enqueue(&self, kernel: &Kernel, desc: D, bytes: u64) -> Result<(), RingError> {
        self.ring.push(kernel, self.producer.cpu_class(), desc)?;
        self.bell.note_post(kernel.now_ns());
        kernel.trace_instant(
            "ring",
            "post",
            &[("occupancy", self.ring.len() as u64), ("bytes", bytes)],
        );
        let hwm = self.ring.stats().occupancy_hwm;
        self.channel.stats.bump(|s| {
            s.ring_posts += 1;
            s.ring_occupancy_hwm = s.ring_occupancy_hwm.max(hwm);
        });
        Ok(())
    }

    /// Rings the doorbell if the policy says the parked descriptors are
    /// due (watermark reached or coalescing deadline expired).
    pub fn maybe_ring(&self, kernel: &Kernel) -> XpcResult<bool> {
        if self.bell.due(kernel.now_ns(), self.ring.len()) {
            self.ring_doorbell(kernel)?;
            return Ok(true);
        }
        if !self.ring.is_empty() {
            // The policy held the doorbell back: a coalesce, with the
            // age of the oldest parked descriptor as evidence.
            kernel.trace_instant(
                "ring",
                "coalesce",
                &[
                    ("parked", self.ring.len() as u64),
                    (
                        "age_ns",
                        self.bell.armed_age_ns(kernel.now_ns()).unwrap_or(0),
                    ),
                ],
            );
        }
        Ok(false)
    }

    /// Rings the doorbell unconditionally (no-op on an empty ring): one
    /// XPC crossing, zero object arguments, carrying only the descriptor
    /// count. The registered drain handler consumes the ring.
    ///
    /// On a launching control channel the doorbell *launches*
    /// ([`XpcChannel::launch_resolved`]): it is issued a completion token
    /// and crosses at once as a one-call batch — behind any control calls
    /// already parked, in their batch — so the drain handler still runs
    /// right here (descriptors are consumed and completed), but the
    /// crossing's latency goes with the token and is settled — net of
    /// overlap — when the producer next harvests
    /// ([`DataPathChannel::reclaim_completions`] does).
    pub fn ring_doorbell(&self, kernel: &Kernel) -> XpcResult<()> {
        if self.ring.is_empty() {
            return Ok(());
        }
        let count = self.ring.len() as u32;
        let _span = kernel.trace_span("ring", "doorbell");
        kernel.trace_instant("ring", "ring", &[("descriptors", count as u64)]);
        let args = [XdrValue::UInt(count)];
        let (channel, from) = (&self.channel, self.producer);
        let proc = match self.proc.get() {
            Some(proc) => proc,
            None => channel.resolve_proc(from, &self.proc_name)?,
        };
        self.proc.set(Some(proc));
        if channel.transport_kind().launches() {
            // Launch now: the drain must run before the producer reuses
            // the ring, only the crossing latency is deferred.
            channel.launch_resolved(kernel, from, proc, &args)?;
        } else {
            channel.call_resolved(kernel, from, proc, &[], &args)?;
        }
        self.channel.stats.bump(|s| s.doorbells += 1);
        // A budgeted or declining consumer may have left descriptors
        // parked; re-arm the deadline for the survivors instead of
        // disarming into the never-fires state.
        self.bell
            .rang_with_survivors(kernel.now_ns(), self.ring.len());
        Ok(())
    }

    /// Drains the completion ring at the producer end into the batch
    /// this path keeps: `note` sees the whole batch first, then each
    /// descriptor goes to `each`, oldest first. Returns how many came
    /// back.
    fn drain_completions(
        &self,
        kernel: &Kernel,
        note: impl FnOnce(&[D]),
        each: impl FnMut(D),
    ) -> usize {
        let class = self.producer.cpu_class();
        let fill = |done: &mut Vec<D>| {
            self.completions.drain(kernel, class, done);
            note(done);
        };
        drain_batch(&self.reclaimed, fill, each)
    }
}

impl<D: RingDescriptor> std::fmt::Debug for RingPath<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingPath")
            .field("producer", &self.producer)
            .field("ring", &self.ring.name())
            .field("pending", &self.pending())
            .finish()
    }
}

/// NIC streams: payloads are written into the pool and posted, or raw
/// descriptors naming device memory are posted; completions free pool
/// buffers and hand the descriptors back for their cookies.
impl RingPath<Descriptor> {
    /// Sends one payload: allocates a pool buffer, writes the payload
    /// into shared memory (the single audited copy), posts a descriptor
    /// and rings the doorbell if the policy says it is due.
    ///
    /// On pool exhaustion the path applies backpressure in stages:
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
                pool.alloc().map_err(pool_err)?
            }
            Err(e) => return Err(pool_err(e)),
        };
        // From here the buffer is ours until a descriptor carries it: on
        // any failure it must go back to the pool, or backpressure would
        // become permanent pool shrinkage.
        let class = self.producer.cpu_class();
        if let Err(e) = pool.write_payload(kernel, class, handle, payload) {
            let _ = pool.free(handle);
            return Err(pool_err(e));
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
        self.enqueue(kernel, desc, desc.len as u64)
            .map_err(|_| XpcError::Backpressure(format!("ring `{}` full", self.ring.name())))
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
        self.channel.harvest_with(kernel, |_| {});
        let note = |done: &[Descriptor]| {
            if !done.is_empty() {
                kernel.trace_instant("ring", "reclaim", &[("completions", done.len() as u64)]);
            }
            if let Some(pool) = &self.pool {
                for d in done {
                    // A handle the pool rejects belongs to the driver (raw
                    // descriptor); the driver reclaims it via the cookie.
                    let _ = pool.free(d.buf);
                }
            }
        };
        self.drain_completions(kernel, note, each)
    }
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

/// Storage transactions: the submitter allocates a scatter-gather chain
/// — one contiguous run when the pool has one, several when it is
/// fragmented, none at all for a zero-length status-stage transfer —
/// posts the request, and reclaims givebacks: OUT runs are freed, IN runs
/// are read *in place* (the ownership handback — the completion carries
/// the run, not a copied payload) and then freed.
impl RingPath<UrbDescriptor> {
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
            return Err(pool_err(e));
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

    fn alloc_chain(&self, kernel: &Kernel, len: usize) -> XpcResult<SgHandle> {
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
            Err(e) => Err(pool_err(e)),
        }
    }

    fn post(&self, kernel: &Kernel, desc: UrbDescriptor) -> XpcResult<()> {
        if self.enqueue(kernel, desc, desc.len as u64).is_err() {
            let _ = self.pool.free_sg(desc.buf);
            // Same staged backpressure as sector exhaustion: force
            // the completer to drain, so the caller's
            // reclaim-and-retry can actually succeed.
            let _ = self.ring_doorbell(kernel);
            return Err(XpcError::Backpressure(format!(
                "ring `{}` full: reclaim givebacks and retry",
                self.ring.name()
            )));
        }
        // The URB is committed; the doorbell is best-effort (a completer
        // fault is contained by the XPC layer and the deadline poll
        // retries the crossing).
        let _ = self.maybe_ring(kernel);
        Ok(())
    }

    /// Drains the giveback ring: for every completed descriptor, reads
    /// the IN-direction payload in place (the ownership handback), frees
    /// the sector run, and returns a [`UrbReclaim`] for the submitter's
    /// callback dispatch. Givebacks may arrive in any order.
    pub fn reclaim(&self, kernel: &Kernel) -> Vec<UrbReclaim> {
        let mut out = Vec::new();
        self.reclaim_into(kernel, &mut out);
        out
    }

    /// [`UrbDataPath::reclaim`] into a batch the caller keeps: the
    /// reclaimed URBs are appended to `out`, oldest first. Returns how
    /// many came back.
    pub fn reclaim_into(&self, kernel: &Kernel, out: &mut Vec<UrbReclaim>) -> usize {
        let note = |done: &[UrbDescriptor]| {
            if !done.is_empty() {
                // Every giveback frees its sector run below, so one
                // instant carries both the reclaim count and the pool
                // releases.
                let n = done.len() as u64;
                kernel.trace_instant("ring", "reclaim", &[("completions", n), ("freed_runs", n)]);
            }
        };
        self.drain_completions(kernel, note, |d| {
            // An inconsistent giveback must surface as -EIO, never
            // masquerade as a successful read: a stale handle, an actual
            // exceeding the chain, or an actual exceeding the request —
            // the chain is sector-rounded and never zeroed, so the bytes
            // past `len` are whatever an earlier transfer left there.
            let (status, data) = if d.dir == XferDir::In && d.ok() {
                let read = (d.actual <= d.len)
                    .then(|| self.pool.read_payload_sg(d.buf, d.actual as usize));
                match read {
                    Some(Ok(data)) => (d.status, data),
                    _ => (-5, Vec::new()),
                }
            } else {
                (d.status, Vec::new())
            };
            let freed = self.pool.free_sg(d.buf);
            debug_assert!(
                freed.is_ok(),
                "giveback carried a handle the pool rejects: {freed:?}"
            );
            out.push(UrbReclaim {
                cookie: d.cookie,
                status,
                actual: d.actual,
                dir: d.dir,
                data,
            });
        })
    }
}

/// One end's view of the shared rings: just `Rc`s to pinned memory, so
/// drain handlers can capture it without creating a reference cycle
/// through the channel's procedure table — plus the batch its drains
/// fill (see [`ShmRing::drain`]): a handler keeps its end, so the batch
/// is allocated once and reused on every doorbell or poll tick.
#[derive(Clone)]
pub struct RingEnd<D: RingDescriptor> {
    ring: Rc<ShmRing<D>>,
    completions: Rc<ShmRing<D>>,
    pool: D::Pool,
    domain: Domain,
    batch: RefCell<Vec<D>>,
}

impl<D: RingDescriptor> RingEnd<D> {
    /// The payload pool (a URB completer programs the hardware straight
    /// from a chain's segments, copied out with
    /// [`decaf_shmring::SectorPool::sg_segments_into`]: one transfer
    /// descriptor per segment).
    pub fn pool(&self) -> &D::Pool {
        &self.pool
    }

    /// Pops every posted descriptor (consumer side of the main ring),
    /// charging this end's CPU class per cache-line pull, then hands
    /// them to `each`, oldest first — FIFO order is what keeps
    /// multi-URB transactions (command, then data stage) correct.
    /// Returns how many there were.
    pub fn consume(&self, kernel: &Kernel, each: impl FnMut(D)) -> usize {
        let class = self.domain.cpu_class();
        drain_batch(&self.batch, |b| self.ring.drain(kernel, class, b), each)
    }

    /// Hands a finished descriptor back through the completion ring (a
    /// URB's response fields filled in via [`UrbDescriptor::completed`]).
    pub fn complete(&self, kernel: &Kernel, desc: D) -> XpcResult<()> {
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
    pub fn poll_and_reclaim(&self, kernel: &Kernel, budget: usize, each: impl FnMut(D)) -> usize {
        let probe = |got: &mut Vec<D>| {
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
