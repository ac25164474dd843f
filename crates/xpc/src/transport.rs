//! Pluggable control-transfer mechanisms.
//!
//! The paper's XPC hard-wires one policy: reuse the calling thread for
//! co-located domains (§2.3), schedule a dedicated thread otherwise. This
//! module turns that choice into a [`Transport`] trait the channel's stub
//! layer consults for every crossing, with three implementations:
//!
//! * [`InProc`] — thread reuse, the paper's optimization;
//! * [`Batched`] — thread reuse **plus** a deferred-call queue: calls
//!   whose results nobody reads are parked in a shared ring and flushed
//!   through the boundary in a single crossing (the doorbell pattern —
//!   the same lever "The Case for Writing Network Drivers in High-Level
//!   Programming Languages" identifies as what lets high-level drivers
//!   match C throughput);
//! * [`Async`] — completion-based batching: every deferred call is
//!   issued a [`CompletionToken`], the queue launches through the
//!   boundary when its doorbell fires (watermark or virtual-time
//!   deadline, [`DoorbellPolicy`] semantics), and the stub layer
//!   harvests completions later — charging only the portion of each
//!   crossing that no computation covered.
//!
//! The trait is the seam later scaling work builds on: the stub layer
//! never knows which policy is behind it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use decaf_shmring::DoorbellPolicy;
use decaf_simkernel::{costs, CpuClass, Kernel};
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;

use crate::domain::Domain;
use crate::endpoint::ProcHandle;

/// Transport selector carried by `ChannelConfig` (the config stays
/// `Copy`; the channel instantiates the matching [`Transport`] object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Reuse the calling thread (paper §2.3).
    InProc,
    /// Thread reuse plus deferred-call batching with delta-friendly
    /// flushes.
    Batched,
    /// Completion-based batching: deferred calls return
    /// [`CompletionToken`]s, flushes *launch* the crossing instead of
    /// blocking on it, and the stub layer harvests completions later.
    Async,
}

/// Deferred calls queued beyond this point force a flush.
pub const DEFAULT_BATCH_CAPACITY: usize = 16;

/// Virtual-time deadline after which a batched transport flushes even a
/// partial queue (adaptive batching): low-rate control paths must not
/// hold posted writes for long. Matches the shmring doorbell-coalescing
/// window — both are the same "amortize or bound the latency" decision.
pub const DEFAULT_BATCH_DEADLINE_NS: u64 = costs::DOORBELL_COALESCE_NS;

/// Names one in-flight asynchronous call on a completion-based
/// transport. Issued at `offer` time, resolved exactly once — harvested
/// after its launch crossing completes, or cancelled when fault
/// recovery drops the call before it ever launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompletionToken(pub u64);

/// A call parked in a queueing transport: executed at the next flush,
/// result discarded (only result-free calls should be deferred).
#[derive(Debug, Clone)]
pub struct DeferredCall {
    /// Calling domain.
    pub from: Domain,
    /// Target procedure: its slot at the peer end of `from`, resolved
    /// when the call was parked.
    pub proc: ProcHandle,
    /// Object arguments (caller-heap addresses).
    pub args: Vec<Option<CAddr>>,
    /// By-value scalar arguments.
    pub scalars: Vec<XdrValue>,
    /// Completion token, on a completion-based transport. Travels with
    /// the call through fault-recovery requeues so a recovered call is
    /// never double-issued.
    pub token: Option<CompletionToken>,
}

/// A control-transfer mechanism. The stub layer asks it to price each
/// one-way crossing and offers it calls for deferral.
///
/// `pending`, `flush_due` and `retain` are deliberately *required*:
/// an earlier version gave them silent no-op defaults, which let a
/// queueing transport compile while reporting an always-empty queue —
/// flushes then never fired and `drain` quietly returned calls the
/// channel believed did not exist.
pub trait Transport {
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
    /// `xpc.crossing` trace instant named after [`Transport::name`].
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
    /// call or post ever arrives to evaluate [`Transport::flush_due`].
    fn oldest_deferred_at(&self) -> Option<u64>;
}

/// Builds the transport object for a selector. `capacity` and
/// `deadline_ns` configure the queueing transports' flush watermark and
/// adaptive-batching deadline; the non-queueing transports ignore them.
pub fn build(kind: TransportKind, capacity: usize, deadline_ns: u64) -> Box<dyn Transport> {
    match kind {
        TransportKind::InProc => Box::new(InProc),
        TransportKind::Batched => Box::new(Batched::with_deadline(capacity, deadline_ns)),
        TransportKind::Async => Box::new(Async::new(capacity, deadline_ns)),
    }
}

/// Thread-reuse transport: the calling thread continues in the target
/// domain, paying only the protection-boundary switch.
#[derive(Debug, Default, Clone, Copy)]
pub struct InProc;

impl Transport for InProc {
    fn kind(&self) -> TransportKind {
        TransportKind::InProc
    }
    fn name(&self) -> &'static str {
        "inproc"
    }
    fn crossing_cost_ns(&self, domain_crossing: bool) -> u64 {
        if domain_crossing {
            costs::DOMAIN_CROSSING_NS
        } else {
            0
        }
    }
    fn offer(
        &self,
        _kernel: &Kernel,
        _class: CpuClass,
        call: DeferredCall,
    ) -> Result<Option<CompletionToken>, DeferredCall> {
        Err(call)
    }
    fn drain(&self, _out: &mut Vec<DeferredCall>) {}
    fn pending(&self) -> usize {
        0
    }
    fn flush_due(&self, _kernel: &Kernel) -> bool {
        false
    }
    fn retain(&self, _keep: &dyn Fn(&DeferredCall) -> bool) -> Vec<CompletionToken> {
        Vec::new()
    }
    fn oldest_deferred_at(&self) -> Option<u64> {
        None
    }
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
pub struct Batched {
    /// `(deferred_at_ns, call)` in arrival order.
    queue: RefCell<VecDeque<(u64, DeferredCall)>>,
    capacity: usize,
    deadline_ns: u64,
}

impl Batched {
    /// A batched transport flushing after `capacity` queued calls or
    /// [`DEFAULT_BATCH_DEADLINE_NS`] of virtual time, whichever first.
    pub fn new(capacity: usize) -> Self {
        Batched::with_deadline(capacity, DEFAULT_BATCH_DEADLINE_NS)
    }

    /// A batched transport with an explicit flush deadline.
    pub fn with_deadline(capacity: usize, deadline_ns: u64) -> Self {
        Batched {
            queue: RefCell::new(VecDeque::new()),
            capacity: capacity.max(1),
            deadline_ns,
        }
    }
}

impl Transport for Batched {
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

/// Completion-based batching transport: [`Batched`]'s queue with tokens.
///
/// Every offered call is issued a [`CompletionToken`] (or keeps the one
/// it already carries, on a fault-recovery requeue). The flush decision
/// reuses [`DoorbellPolicy`] semantics directly — arm on the first
/// post, fire at the watermark occupancy (`capacity`) or once the
/// armed-at timestamp has waited out the deadline — and `retain`
/// re-anchors the policy to the oldest *surviving* call, preserving the
/// per-call-anchoring guarantee the [`Batched`] regression tests pin.
///
/// What makes it asynchronous is not the queue but what the stub layer
/// does at flush time: on this transport a flush *launches* the
/// boundary crossing — handlers run, data lands, but the crossing's
/// latency is banked against the batch's tokens and charged at harvest
/// time net of whatever computation overlapped it.
#[derive(Debug)]
pub struct Async {
    /// `(deferred_at_ns, call)` in arrival order.
    queue: RefCell<VecDeque<(u64, DeferredCall)>>,
    policy: DoorbellPolicy,
    next_token: Cell<u64>,
}

impl Async {
    /// A completion-based transport launching after `capacity` queued
    /// calls or `deadline_ns` of virtual time, whichever first.
    pub fn new(capacity: usize, deadline_ns: u64) -> Self {
        Async {
            queue: RefCell::new(VecDeque::new()),
            policy: DoorbellPolicy::new(capacity, deadline_ns),
            next_token: Cell::new(1),
        }
    }
}

impl Transport for Async {
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
        self.policy.rang();
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
        self.policy.rearm(queue.front().map(|(at, _)| *at));
        dropped
    }
    fn oldest_deferred_at(&self) -> Option<u64> {
        self.queue.borrow().front().map(|(at, _)| *at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests name procedures by slot: what a channel end would have
    /// resolved `a`, `b`, `victim`… to.
    fn call(slot: u32) -> DeferredCall {
        DeferredCall {
            from: Domain::Decaf,
            proc: ProcHandle(slot),
            args: vec![],
            scalars: vec![],
            token: None,
        }
    }

    fn drained(t: &dyn Transport) -> Vec<DeferredCall> {
        let mut out = Vec::new();
        t.drain(&mut out);
        out
    }

    #[test]
    fn non_batching_transports_refuse_deferral() {
        let k = Kernel::new();
        let t = InProc;
        assert!(t.offer(&k, CpuClass::User, call(0)).is_err());
        assert_eq!(t.pending(), 0);
        assert!(!t.flush_due(&k));
    }

    #[test]
    fn batched_queues_until_capacity() {
        let k = Kernel::new();
        let t = Batched::new(3);
        for i in 0..3 {
            assert!(!t.flush_due(&k), "not due at {i}");
            t.offer(&k, CpuClass::User, call(0)).unwrap();
        }
        assert_eq!(t.pending(), 3);
        assert!(t.flush_due(&k));
        let drained = drained(&t);
        assert_eq!(drained.len(), 3);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn deadline_makes_partial_batch_due() {
        let k = Kernel::new();
        let t = Batched::with_deadline(16, 1_000);
        t.offer(&k, CpuClass::User, call(0)).unwrap();
        assert!(!t.flush_due(&k), "fresh call, deadline not reached");
        k.run_for(999);
        assert!(!t.flush_due(&k));
        k.run_for(2);
        assert!(
            t.flush_due(&k),
            "a lone deferred call must not wait forever"
        );
        // Draining disarms; the next call re-arms from its own time.
        drained(&t);
        assert!(!t.flush_due(&k));
        t.offer(&k, CpuClass::User, call(0)).unwrap();
        assert!(!t.flush_due(&k), "deadline restarts with the new batch");
        k.run_for(1_001);
        assert!(t.flush_due(&k));
    }

    #[test]
    fn deadline_measured_from_oldest_call() {
        let k = Kernel::new();
        let t = Batched::with_deadline(16, 1_000);
        t.offer(&k, CpuClass::User, call(1)).unwrap();
        k.run_for(900);
        // A later call does not push the oldest call's deadline out.
        t.offer(&k, CpuClass::User, call(2)).unwrap();
        k.run_for(150);
        assert!(t.flush_due(&k));
    }

    #[test]
    fn deadline_reanchors_to_oldest_surviving_call_after_retain() {
        // Regression: the deadline used to be a single armed-at timestamp
        // that `retain` (the reset_end/fault-recovery drop path) left
        // pointing at a dropped call, so the surviving batch flushed a
        // coalescing window off its own defer time.
        let k = Kernel::new();
        let t = Batched::with_deadline(16, 1_000);
        t.offer(&k, CpuClass::User, call(4)).unwrap();
        k.run_for(900);
        t.offer(&k, CpuClass::User, call(5)).unwrap();
        t.retain(&|c| c.proc != ProcHandle(4));
        k.run_for(150); // t=1050: the victim's window passed, the survivor's did not
        assert!(
            !t.flush_due(&k),
            "deadline must anchor to the oldest surviving call, not a dropped one"
        );
        k.run_for(750); // t=1800
        assert!(!t.flush_due(&k));
        k.run_for(100); // t=1900 = 900 + 1000
        assert!(t.flush_due(&k));
    }

    #[test]
    fn deadline_exact_after_queue_drains_at_watermark() {
        // Pins the watermark-boundary off-by-one: after the queue drains
        // exactly at the watermark, the next lone call's deadline fires
        // exactly one coalescing window after *its own* defer time — not
        // a window measured from the drained batch.
        let k = Kernel::new();
        let t = Batched::with_deadline(2, 1_000);
        t.offer(&k, CpuClass::User, call(1)).unwrap();
        t.offer(&k, CpuClass::User, call(2)).unwrap();
        assert!(t.flush_due(&k), "at the watermark");
        assert_eq!(drained(&t).len(), 2, "drained exactly at the watermark");
        k.run_for(600);
        t.offer(&k, CpuClass::User, call(3)).unwrap(); // t=600
        k.run_for(999); // t=1599
        assert!(!t.flush_due(&k), "one tick before c's own deadline");
        k.run_for(1); // t=1600 = 600 + 1000
        assert!(t.flush_due(&k), "due exactly at c's deadline");
    }

    #[test]
    fn retain_drops_matching_calls() {
        let k = Kernel::new();
        let t = Batched::new(8);
        t.offer(&k, CpuClass::User, call(1)).unwrap();
        t.offer(&k, CpuClass::User, call(2)).unwrap();
        t.retain(&|c| c.proc != ProcHandle(1));
        let left = drained(&t);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].proc, ProcHandle(2));
    }

    #[test]
    fn async_issues_distinct_tokens_and_keeps_requeued_ones() {
        let k = Kernel::new();
        let t = Async::new(8, 1_000);
        let a = t.offer(&k, CpuClass::User, call(1)).unwrap().unwrap();
        let b = t.offer(&k, CpuClass::User, call(2)).unwrap().unwrap();
        assert_ne!(a, b, "each fresh offer mints a new token");
        assert_eq!(t.pending(), 2);
        let drained = drained(&t);
        assert_eq!(drained[0].token, Some(a));
        assert_eq!(drained[1].token, Some(b));
        // A requeued call keeps its token: no double-issue on recovery.
        let again = t
            .offer(&k, CpuClass::User, drained[0].clone())
            .unwrap()
            .unwrap();
        assert_eq!(again, a);
    }

    #[test]
    fn async_flush_due_follows_doorbell_policy() {
        let k = Kernel::new();
        let t = Async::new(3, 1_000);
        assert!(!t.flush_due(&k), "empty queue never due");
        t.offer(&k, CpuClass::User, call(1)).unwrap();
        assert!(!t.flush_due(&k));
        k.run_for(1_000);
        assert!(t.flush_due(&k), "deadline fires for a partial batch");
        drained(&t);
        for _ in 0..3 {
            assert!(!t.flush_due(&k));
            t.offer(&k, CpuClass::User, call(2)).unwrap();
        }
        assert!(t.flush_due(&k), "watermark fires immediately");
    }

    #[test]
    fn async_retain_returns_cancelled_tokens_and_reanchors() {
        let k = Kernel::new();
        let t = Async::new(16, 1_000);
        let victim = t.offer(&k, CpuClass::User, call(4)).unwrap().unwrap();
        k.run_for(900);
        t.offer(&k, CpuClass::User, call(5)).unwrap();
        let cancelled = t.retain(&|c| c.proc != ProcHandle(4));
        assert_eq!(cancelled, vec![victim]);
        k.run_for(150); // t=1050: past the victim's window, within the survivor's
        assert!(
            !t.flush_due(&k),
            "deadline must re-anchor to the surviving call"
        );
        k.run_for(850); // t=1900 = 900 + 1000
        assert!(t.flush_due(&k));
    }

    #[test]
    fn crossing_costs_ordered() {
        // batched == async > inproc for the same crossing.
        let cost = |t: &dyn Transport| {
            let k = Kernel::new();
            let before = k.snapshot().user_busy_ns;
            t.charge_crossing(&k, CpuClass::User, true);
            k.snapshot().user_busy_ns - before
        };
        let inproc = cost(&InProc);
        let batched = cost(&Batched::new(4));
        let asynchronous = cost(&Async::new(4, 1_000));
        assert!(inproc < batched);
        assert_eq!(
            asynchronous, batched,
            "a synchronous crossing prices identically on async"
        );
    }
}
