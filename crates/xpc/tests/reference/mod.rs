//! The two queueing transports as they stood at d7b26a6 — `Batched` with
//! its hand-written capacity-or-oldest-call-deadline rule, `Async` with
//! the same rule expressed through a shmring `DoorbellPolicy` re-anchored
//! on `retain` — behind the `Transport` trait they implemented, kept
//! verbatim (types renamed `Ref*`, `InProc` and `build` left out) as the
//! reference model `queue_prop.rs` checks the one `DeferredQueue`
//! against: same flush decisions, same anchors, same drained order, same
//! tokens. `DeferredQueue::mint` has no counterpart here: `queue_prop.rs`
//! states it as an offer drained at once. Not product code; do not
//! simplify it.
#![allow(dead_code)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use decaf_shmring::DoorbellPolicy;
use decaf_simkernel::{costs, CpuClass, Kernel};
use decaf_xpc::{CompletionToken, DeferredCall, TransportKind};

/// Deferred calls queued beyond this point force a flush.
pub const DEFAULT_BATCH_CAPACITY: usize = 16;

/// Virtual-time deadline after which a batched transport flushes even a
/// partial queue.
pub const DEFAULT_BATCH_DEADLINE_NS: u64 = costs::DOORBELL_COALESCE_NS;

/// A control-transfer mechanism. The stub layer asks it to price each
/// one-way crossing and offers it calls for deferral.
///
/// `pending`, `flush_due` and `retain` are deliberately *required*:
/// an earlier version gave them silent no-op defaults, which let a
/// queueing transport compile while reporting an always-empty queue —
/// flushes then never fired and `drain` quietly returned calls the
/// channel believed did not exist.
pub trait RefTransport {
    /// Which selector built this transport.
    fn kind(&self) -> TransportKind;

    /// Human-readable name for stats and docs.
    fn name(&self) -> &'static str;

    /// The virtual-time latency of one one-way control transfer — the
    /// portion a completion-based transport may *launch* (and later
    /// charge net of overlap) instead of blocking on.
    fn crossing_cost_ns(&self, domain_crossing: bool) -> u64;

    /// Charges the virtual-time cost of one one-way control transfer
    /// initiated by `class`.
    ///
    /// This default is the one instrumentation point covering every
    /// transport kind: every synchronous crossing emits a per-transport
    /// `xpc.crossing` trace instant named after [`RefTransport::name`].
    fn charge_crossing(&self, kernel: &Kernel, class: CpuClass, domain_crossing: bool) {
        let cost = self.crossing_cost_ns(domain_crossing);
        kernel.charge(class, cost);
        kernel.trace_instant(
            "xpc.crossing",
            self.name(),
            &[("cost_ns", cost), ("domain", domain_crossing as u64)],
        );
    }

    /// Offers a call for deferral. A transport that does not batch hands
    /// the call back (`Err`) and the channel executes it synchronously.
    /// A completion-based transport returns the call's token (minting
    /// one if the call does not already carry it); a plain batching
    /// transport queues the call and returns `Ok(None)`.
    fn offer(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        call: DeferredCall,
    ) -> Result<Option<CompletionToken>, DeferredCall>;

    /// Drains every queued call, oldest first, onto the end of `out` —
    /// the flush path's reused batch, so a flush allocates nothing.
    fn drain(&self, out: &mut Vec<DeferredCall>);

    /// Number of calls currently queued.
    fn pending(&self) -> usize;

    /// Whether the queue must flush now: it reached capacity, or its
    /// oldest deferred call has waited past the transport's virtual-time
    /// deadline (adaptive batching).
    fn flush_due(&self, kernel: &Kernel) -> bool;

    /// Drops queued calls not matching `keep` (fault-recovery hygiene),
    /// returning the completion tokens of the dropped calls so the stub
    /// layer can account them as cancelled.
    fn retain(&self, keep: &dyn Fn(&DeferredCall) -> bool) -> Vec<CompletionToken>;

    /// Virtual time at which the oldest queued call was deferred, or
    /// `None` when nothing is queued (always `None` on a non-queueing
    /// transport). The stub layer's deadline-wakeup timer arms from this
    /// so a parked batch flushes *at* its deadline even if no further
    /// call or post ever arrives to evaluate [`RefTransport::flush_due`].
    fn oldest_deferred_at(&self) -> Option<u64>;
}

/// Batching transport: deferred calls accumulate in a shared ring and a
/// whole batch crosses the boundary on one doorbell.
///
/// Flushes are due at *capacity* (the batch is worth a crossing) or at a
/// virtual-time *deadline* measured from the oldest queued call (a
/// low-rate path must not hold a posted write indefinitely) — the same
/// watermark/deadline decision a shmring [`DoorbellPolicy`] makes for
/// parked descriptors, with the queue capacity as the watermark.
///
/// The deadline is anchored *per call*: each deferred call carries its
/// own defer timestamp and `flush_due` measures from the oldest call
/// still queued. An earlier implementation kept one shared armed-at
/// timestamp that survived `retain` (the fault-recovery drop path), so
/// after a queue drained at the watermark boundary the next batch's
/// deadline could be measured from a call that no longer existed —
/// firing a coalescing window early or late depending on which side of
/// the boundary the drop landed. The regression tests below pin the
/// exact anchoring.
#[derive(Debug)]
pub struct RefBatched {
    /// `(deferred_at_ns, call)` in arrival order.
    queue: RefCell<VecDeque<(u64, DeferredCall)>>,
    capacity: usize,
    deadline_ns: u64,
}

impl RefBatched {
    /// A batched transport flushing after `capacity` queued calls or
    /// [`DEFAULT_BATCH_DEADLINE_NS`] of virtual time, whichever first.
    pub fn new(capacity: usize) -> Self {
        RefBatched::with_deadline(capacity, DEFAULT_BATCH_DEADLINE_NS)
    }

    /// A batched transport with an explicit flush deadline.
    pub fn with_deadline(capacity: usize, deadline_ns: u64) -> Self {
        RefBatched {
            queue: RefCell::new(VecDeque::new()),
            capacity: capacity.max(1),
            deadline_ns,
        }
    }
}

impl RefTransport for RefBatched {
    fn kind(&self) -> TransportKind {
        TransportKind::Batched
    }
    fn name(&self) -> &'static str {
        "batched"
    }
    fn crossing_cost_ns(&self, domain_crossing: bool) -> u64 {
        let base = if domain_crossing {
            costs::DOMAIN_CROSSING_NS
        } else {
            0
        };
        base + costs::BATCH_DOORBELL_NS
    }
    fn offer(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        call: DeferredCall,
    ) -> Result<Option<CompletionToken>, DeferredCall> {
        kernel.charge(class, costs::BATCH_ENQUEUE_NS);
        self.queue.borrow_mut().push_back((kernel.now_ns(), call));
        Ok(None)
    }
    fn drain(&self, out: &mut Vec<DeferredCall>) {
        out.extend(self.queue.borrow_mut().drain(..).map(|(_, c)| c));
    }
    fn pending(&self) -> usize {
        self.queue.borrow().len()
    }
    fn flush_due(&self, kernel: &Kernel) -> bool {
        let queue = self.queue.borrow();
        match queue.front() {
            None => false,
            Some((oldest_at, _)) => {
                queue.len() >= self.capacity
                    || kernel.now_ns().saturating_sub(*oldest_at) >= self.deadline_ns
            }
        }
    }
    fn retain(&self, keep: &dyn Fn(&DeferredCall) -> bool) -> Vec<CompletionToken> {
        let mut dropped = Vec::new();
        self.queue.borrow_mut().retain(|(_, c)| {
            let keep_it = keep(c);
            if !keep_it {
                dropped.extend(c.token);
            }
            keep_it
        });
        dropped
    }
    fn oldest_deferred_at(&self) -> Option<u64> {
        self.queue.borrow().front().map(|(at, _)| *at)
    }
}

/// Completion-based batching transport: [`RefBatched`]'s queue with tokens.
///
/// Every offered call is issued a [`CompletionToken`] (or keeps the one
/// it already carries, on a fault-recovery requeue). The flush decision
/// reuses [`DoorbellPolicy`] semantics directly — arm on the first
/// post, fire at the watermark occupancy (`capacity`) or once the
/// armed-at timestamp has waited out the deadline — and `retain`
/// re-anchors the policy to the oldest *surviving* call, preserving the
/// per-call-anchoring guarantee the [`RefBatched`] regression tests pin.
///
/// What makes it asynchronous is not the queue but what the stub layer
/// does at flush time: on this transport a flush *launches* the
/// boundary crossing — handlers run, data lands, but the crossing's
/// latency is banked against the batch's tokens and charged at harvest
/// time net of whatever computation overlapped it.
#[derive(Debug)]
pub struct RefAsync {
    /// `(deferred_at_ns, call)` in arrival order.
    queue: RefCell<VecDeque<(u64, DeferredCall)>>,
    policy: DoorbellPolicy,
    next_token: Cell<u64>,
}

impl RefAsync {
    /// A completion-based transport launching after `capacity` queued
    /// calls or `deadline_ns` of virtual time, whichever first.
    pub fn new(capacity: usize, deadline_ns: u64) -> Self {
        RefAsync {
            queue: RefCell::new(VecDeque::new()),
            policy: DoorbellPolicy::new(capacity, deadline_ns),
            next_token: Cell::new(1),
        }
    }
}

impl RefTransport for RefAsync {
    fn kind(&self) -> TransportKind {
        TransportKind::Async
    }
    fn name(&self) -> &'static str {
        "async"
    }
    fn crossing_cost_ns(&self, domain_crossing: bool) -> u64 {
        // A synchronous crossing on this transport prices like Batched:
        // the asymmetry is *when* the cost lands, not how big it is.
        let base = if domain_crossing {
            costs::DOMAIN_CROSSING_NS
        } else {
            0
        };
        base + costs::BATCH_DOORBELL_NS
    }
    fn offer(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        mut call: DeferredCall,
    ) -> Result<Option<CompletionToken>, DeferredCall> {
        kernel.charge(class, costs::BATCH_ENQUEUE_NS);
        let token = *call.token.get_or_insert_with(|| {
            let t = CompletionToken(self.next_token.get());
            self.next_token.set(t.0 + 1);
            t
        });
        self.policy.note_post(kernel.now_ns());
        self.queue.borrow_mut().push_back((kernel.now_ns(), call));
        Ok(Some(token))
    }
    fn drain(&self, out: &mut Vec<DeferredCall>) {
        // (`DoorbellPolicy::rang` went with its last product caller: a
        // ring that leaves no survivors is the same disarm, whatever the
        // time.)
        self.policy.rang_with_survivors(0, 0);
        out.extend(self.queue.borrow_mut().drain(..).map(|(_, c)| c));
    }
    fn pending(&self) -> usize {
        self.queue.borrow().len()
    }
    fn flush_due(&self, kernel: &Kernel) -> bool {
        self.policy.due(kernel.now_ns(), self.queue.borrow().len())
    }
    fn retain(&self, keep: &dyn Fn(&DeferredCall) -> bool) -> Vec<CompletionToken> {
        let mut dropped = Vec::new();
        let mut queue = self.queue.borrow_mut();
        queue.retain(|(_, c)| {
            let keep_it = keep(c);
            if !keep_it {
                dropped.extend(c.token);
            }
            keep_it
        });
        // Re-anchor the doorbell to the oldest surviving call so a
        // dropped older call cannot fire (or hold) the window for the
        // survivors — the same anchoring `Batched` gets per call.
        // (`DoorbellPolicy::rearm` went with its last product caller:
        // disarm, then arm at the survivor's time, is the same state.)
        self.policy.rang_with_survivors(0, 0);
        if let Some((at, _)) = queue.front() {
            self.policy.note_post(*at);
        }
        dropped
    }
    fn oldest_deferred_at(&self) -> Option<u64> {
        self.queue.borrow().front().map(|(at, _)| *at)
    }
}
