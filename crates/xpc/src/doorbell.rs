//! The doorbell protocol every shared-memory data path rides, written
//! once: [`crate::DataPathChannel`] (NIC streams) and
//! [`crate::UrbDataPath`] (storage request/response) each hold a
//! [`Doorbell`] over their producer-side ring and expose its
//! `maybe_ring` / `ring_doorbell` as their own.
//!
//! The protocol has four steps, and every wakeup bug this repo has had
//! lived in one of them:
//!
//! * **post** — push a descriptor, arm the coalescing deadline on the
//!   first post since the last ring, account the post on the channel;
//! * **maybe ring** — ring when the [`DoorbellPolicy`] says the parked
//!   descriptors are due (watermark reached or deadline expired),
//!   otherwise record the coalesce;
//! * **ring** — one XPC crossing with zero object arguments, carrying
//!   only the descriptor count; the registered drain handler consumes
//!   the ring. On a launching control channel the doorbell *launches*
//!   instead of blocking;
//! * **re-arm for survivors** — a budgeted or declining consumer may
//!   leave descriptors parked; the deadline restarts for them instead of
//!   disarming into the never-fires state.

use std::cell::Cell;
use std::rc::Rc;

use decaf_shmring::{DoorbellPolicy, RingError, ShmRing};
use decaf_simkernel::Kernel;
use decaf_xdr::XdrValue;

use crate::domain::Domain;
use crate::endpoint::{ProcHandle, XpcChannel};
use crate::error::XpcResult;

/// The producer's half of one descriptor ring plus the coalesced
/// doorbell that tells the consumer "descriptors await".
pub(crate) struct Doorbell<D: Copy + Default> {
    channel: Rc<XpcChannel>,
    producer: Domain,
    ring: Rc<ShmRing<D>>,
    proc_name: String,
    /// `proc_name` resolved at the consumer's end — on the first ring,
    /// since the drain is registered after the path that rings it.
    proc: Cell<Option<ProcHandle>>,
    bell: DoorbellPolicy,
}

impl<D: Copy + Default> Doorbell<D> {
    /// A doorbell for descriptors flowing `producer` → peer through
    /// `ring`, invoking `proc_name` (which must be registered at the
    /// peer end of `channel`) under `policy`.
    pub fn new(
        channel: Rc<XpcChannel>,
        producer: Domain,
        proc_name: impl Into<String>,
        ring: Rc<ShmRing<D>>,
        policy: DoorbellPolicy,
    ) -> XpcResult<Self> {
        channel.peer_domain(producer)?;
        Ok(Doorbell {
            channel,
            producer,
            ring,
            proc_name: proc_name.into(),
            proc: Cell::new(None),
            bell: policy,
        })
    }

    /// The control channel the doorbell rides.
    pub fn channel(&self) -> &Rc<XpcChannel> {
        &self.channel
    }

    /// The producing domain.
    pub fn producer(&self) -> Domain {
        self.producer
    }

    /// The descriptor ring (producer → consumer).
    pub fn ring(&self) -> &Rc<ShmRing<D>> {
        &self.ring
    }

    /// Pushes one descriptor of `bytes` payload bytes and accounts it:
    /// the deadline arms on the first post since the last ring, and the
    /// channel's post counter and occupancy high-water mark move. A full
    /// ring refuses the post and changes nothing. Safe from atomic
    /// context — no crossing happens here.
    pub fn post(&self, kernel: &Kernel, desc: D, bytes: u64) -> Result<(), RingError> {
        self.ring.push(kernel, self.producer.cpu_class(), desc)?;
        self.bell.note_post(kernel.now_ns());
        kernel.trace_instant(
            "ring",
            "post",
            &[("occupancy", self.ring.len() as u64), ("bytes", bytes)],
        );
        let hwm = self.ring.stats().occupancy_hwm;
        self.channel.bump(|s| {
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
    /// On a launching control channel the doorbell *launches*: the drain
    /// handler still runs right here (descriptors are consumed and
    /// completed), but the crossing's latency is banked against a
    /// completion token and settled — net of overlap — when the producer
    /// next harvests.
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
            None => {
                let proc = channel.resolve_proc(from, &self.proc_name)?;
                self.proc.set(Some(proc));
                proc
            }
        };
        if channel.transport_kind().launches() {
            channel.call_async_resolved(kernel, from, proc, &[], &args)?;
            // Launch now: the drain must run before the producer reuses
            // the ring, only the crossing latency is deferred.
            channel.flush(kernel)?;
        } else {
            channel.call_resolved(kernel, from, proc, &[], &args)?;
        }
        self.channel.bump(|s| s.doorbells += 1);
        // A budgeted or declining consumer may have left descriptors
        // parked; re-arm the deadline for the survivors instead of
        // disarming into the never-fires state.
        self.bell
            .rang_with_survivors(kernel.now_ns(), self.ring.len());
        Ok(())
    }
}
