//! The control-transfer seam: three kinds of crossing, one deferred-call
//! queue.
//!
//! The paper's XPC hard-wires one policy: reuse the calling thread for
//! co-located domains (§2.3). A channel here picks one of three
//! [`TransportKind`]s, rows of one enum that differ in two answers —
//! whether result-free calls *park* instead of crossing alone, and
//! whether a flush *launches* its crossing instead of blocking on it:
//!
//! * `InProc` — thread reuse, the paper's optimization; nothing parks;
//! * `Batched` — thread reuse **plus** deferral: calls whose results
//!   nobody reads park and cross together on one doorbell (the same
//!   lever "The Case for Writing Network Drivers in High-Level
//!   Programming Languages" identifies as what lets high-level drivers
//!   match C throughput);
//! * `Async` — completion-based batching: every parked call is issued a
//!   [`CompletionToken`], a flush launches the crossing, and the stub
//!   layer harvests completions later — charging only the portion of
//!   each crossing that no computation covered.
//!
//! Everything deferral means lives in the one [`DeferredQueue`] a
//! channel holds: the parked calls with their defer timestamps, the
//! single flush rule, the one token range, the ledger of outstanding
//! tokens and the launched batches awaiting harvest.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use decaf_simkernel::{costs, CpuClass, Kernel};
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;

use crate::domain::Domain;
use crate::endpoint::ProcHandle;

/// How control reaches the other side of a channel (`ChannelConfig`
/// carries one; the config stays `Copy`).
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

impl TransportKind {
    /// Human-readable name for stats and docs; every synchronous
    /// crossing emits an `xpc.crossing` trace instant under it.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Batched => "batched",
            TransportKind::Async => "async",
        }
    }

    /// Whether deferred calls park in the channel's [`DeferredQueue`]
    /// (otherwise they execute synchronously, one crossing each).
    pub fn queues(self) -> bool {
        self != TransportKind::InProc
    }

    /// Whether a flush *launches* its crossing — the latency held
    /// against the batch's tokens and settled at harvest, net of
    /// overlap — instead of blocking on it.
    pub fn launches(self) -> bool {
        self == TransportKind::Async
    }

    /// The virtual-time latency of one one-way control transfer — the
    /// portion a launching kind hands to its launched batch (and later
    /// charges net of overlap) instead of blocking on. A queueing kind
    /// rings a doorbell per crossing; `Async` prices like `Batched`: the
    /// asymmetry is *when* the cost lands, not how big it is.
    pub fn crossing_cost_ns(self, domain_crossing: bool) -> u64 {
        let base = if domain_crossing {
            costs::DOMAIN_CROSSING_NS
        } else {
            0
        };
        match self.queues() {
            true => base + costs::BATCH_DOORBELL_NS,
            false => base,
        }
    }
}

/// Parked calls at or beyond this count force a flush.
pub const BATCH_CAPACITY: usize = 16;

/// Virtual-time deadline after which a partial batch flushes anyway
/// (adaptive batching): low-rate control paths must not hold posted
/// writes for long. Matches the shmring doorbell-coalescing window —
/// both are the same "amortize or bound the latency" decision.
pub const BATCH_DEADLINE_NS: u64 = costs::DOORBELL_COALESCE_NS;

/// Names one in-flight asynchronous call on a launching channel. Issued
/// when the call parks, resolved exactly once — harvested after its
/// launch crossing completes, or cancelled when fault recovery drops the
/// call before it ever launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompletionToken(pub u64);

/// A call parked in a [`DeferredQueue`]: executed at the next flush,
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
    /// Completion token, on a launching channel. Travels with the call
    /// through fault-recovery requeues so a recovered call is never
    /// double-issued.
    pub token: Option<CompletionToken>,
}

/// One launched flush: the batch's tokens plus the crossing latency it
/// was launched with, settled at harvest.
#[derive(Debug)]
struct LaunchedBatch {
    /// How many entries of `launched_tokens` are this batch's (batches
    /// settle in launch order).
    tokens: usize,
    class: CpuClass,
    launched_at: u64,
    cost_ns: u64,
}

/// What one [`DeferredQueue::harvest`] settled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Harvest {
    /// Tokens handed to the caller.
    pub tokens: usize,
    /// Of those, how many were still on the ledger.
    pub settled: u64,
    /// Crossing latency that had already elapsed when it was settled.
    pub overlap_ns: u64,
}

/// The deferred side of one channel, for every [`TransportKind`]: on
/// `InProc` it refuses every call and stays empty.
///
/// A flush is due at *capacity* (the batch is worth a crossing) or at a
/// virtual-time *deadline* measured from the oldest call still parked (a
/// low-rate path must not hold a posted write indefinitely). Each call
/// carries its own defer timestamp, so dropping the oldest
/// ([`DeferredQueue::retain`], the fault-recovery path) re-anchors the
/// deadline to the oldest *survivor*: a shared armed-at timestamp that
/// outlived the call it was taken from once fired a coalescing window
/// early or late, and the regression tests below pin the exact
/// anchoring.
///
/// What makes a channel asynchronous is not this queue's rule but what
/// the stub layer does with a drained batch: on a launching kind the
/// handlers run and the data lands at flush time, while the crossing's
/// latency is held here against the batch's tokens and charged at
/// harvest, net of whatever computation overlapped it.
///
/// The whole interface is eight transitions — `offer`, `mint`, `drain`,
/// `flush_due`, `retain`, `launch`, `harvest`, `settle` — and three
/// observers: `pending`, `oldest_deferred_at`, `outstanding`.
#[derive(Debug)]
pub struct DeferredQueue {
    kind: TransportKind,
    /// `(deferred_at_ns, call)` in arrival order.
    parked: RefCell<VecDeque<(u64, DeferredCall)>>,
    /// Next token for a parked call, from 1.
    next_token: Cell<u64>,
    /// Tokens issued and not yet harvested or cancelled, ascending —
    /// they enter as they are minted, in increasing order, so the ledger
    /// is a sorted queue, not a hash set.
    outstanding: RefCell<VecDeque<u64>>,
    /// Launched-but-unharvested batches, in launch order.
    launched: RefCell<VecDeque<LaunchedBatch>>,
    /// The tokens of every launched batch, back to back in launch order.
    launched_tokens: RefCell<VecDeque<CompletionToken>>,
}

impl DeferredQueue {
    /// An empty queue for a channel of `kind`.
    pub fn new(kind: TransportKind) -> Self {
        DeferredQueue {
            kind,
            parked: RefCell::new(VecDeque::new()),
            next_token: Cell::new(1),
            outstanding: RefCell::new(VecDeque::new()),
            launched: RefCell::new(VecDeque::new()),
            launched_tokens: RefCell::new(VecDeque::new()),
        }
    }

    /// Offers a call for deferral. A kind that does not queue hands the
    /// call back (`Err`) and the channel executes it synchronously. A
    /// launching kind returns the call's token, minting one — and
    /// entering it on the ledger — unless the call already carries it
    /// (a fault-recovery requeue); a plain batching kind parks the call
    /// and returns `Ok(None)`.
    pub fn offer(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        mut call: DeferredCall,
    ) -> Result<Option<CompletionToken>, DeferredCall> {
        if !self.kind.queues() {
            return Err(call);
        }
        match self.kind.launches() && call.token.is_none() {
            true => call.token = Some(self.mint(kernel, class)),
            false => kernel.charge(class, costs::BATCH_ENQUEUE_NS),
        }
        let token = call.token;
        self.parked.borrow_mut().push_back((kernel.now_ns(), call));
        Ok(token)
    }

    /// Issues the token of a call that launches at once instead of
    /// parking (a doorbell, on a launching kind with nothing parked):
    /// what [`DeferredQueue::offer`] charges and mints for a fresh call,
    /// without the park. The caller launches it as a one-call batch.
    pub fn mint(&self, kernel: &Kernel, class: CpuClass) -> CompletionToken {
        kernel.charge(class, costs::BATCH_ENQUEUE_NS);
        let minted = self.next_token.get();
        self.next_token.set(minted + 1);
        self.outstanding.borrow_mut().push_back(minted);
        CompletionToken(minted)
    }

    /// Drains every parked call, oldest first, onto the end of `out` —
    /// the flush path's reused batch, so a flush allocates nothing.
    pub fn drain(&self, out: &mut Vec<DeferredCall>) {
        out.extend(self.parked.borrow_mut().drain(..).map(|(_, c)| c));
    }

    /// Number of calls currently parked.
    pub fn pending(&self) -> usize {
        self.parked.borrow().len()
    }

    /// Whether the queue must flush at virtual time `now_ns`: it reached
    /// [`BATCH_CAPACITY`], or its oldest parked call has waited
    /// [`BATCH_DEADLINE_NS`].
    pub fn flush_due(&self, now_ns: u64) -> bool {
        self.oldest_deferred_at().is_some_and(|oldest| {
            self.pending() >= BATCH_CAPACITY || now_ns.saturating_sub(oldest) >= BATCH_DEADLINE_NS
        })
    }

    /// Drops parked calls not matching `keep` (fault-recovery hygiene)
    /// and strikes their tokens off the ledger; returns those tokens so
    /// the stub layer can account them as cancelled.
    pub fn retain(&self, keep: impl Fn(&DeferredCall) -> bool) -> Vec<CompletionToken> {
        let mut dropped = Vec::new();
        self.parked.borrow_mut().retain(|(_, c)| {
            let keep_it = keep(c);
            if !keep_it {
                dropped.extend(c.token);
            }
            keep_it
        });
        self.settle(dropped.iter().copied());
        dropped
    }

    /// Virtual time at which the oldest parked call was deferred, or
    /// `None` when nothing is parked. The stub layer's deadline-wakeup
    /// timer arms from this so a parked batch flushes *at* its deadline
    /// even if no further call or post ever arrives to evaluate
    /// [`DeferredQueue::flush_due`].
    pub fn oldest_deferred_at(&self) -> Option<u64> {
        self.parked.borrow().front().map(|(at, _)| *at)
    }

    /// Tokens issued and not yet harvested or cancelled.
    pub fn outstanding(&self) -> usize {
        self.outstanding.borrow().len()
    }

    /// Strikes `tokens` off the ledger; how many were on it. The oldest
    /// outstanding token — what a harvest settles, batches settling in
    /// launch order — comes off the front without a search.
    pub(crate) fn settle(&self, tokens: impl IntoIterator<Item = CompletionToken>) -> u64 {
        let mut outstanding = self.outstanding.borrow_mut();
        let struck = |t: &CompletionToken| {
            let at = match outstanding.front() == Some(&t.0) {
                true => Ok(0),
                false => outstanding.binary_search(&t.0),
            };
            at.map(|i| outstanding.remove(i)).is_ok()
        };
        tokens.into_iter().filter(struck).count() as u64
    }

    /// Launches a group's `tokens` and the `cost_ns` of its crossing, as
    /// one batch, for harvest to settle — virtual time elapsed from here
    /// on covers the crossing as overlap.
    pub(crate) fn launch(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        tokens: impl IntoIterator<Item = CompletionToken>,
        cost_ns: u64,
    ) {
        let mut launched_tokens = self.launched_tokens.borrow_mut();
        let before = launched_tokens.len();
        launched_tokens.extend(tokens);
        let tokens = launched_tokens.len() - before;
        kernel.trace_instant(
            "xpc.batch",
            "launch",
            &[
                ("tokens", tokens as u64),
                (
                    "first_token",
                    launched_tokens.get(before).map_or(0, |t| t.0),
                ),
                ("cost_ns", cost_ns),
            ],
        );
        self.launched.borrow_mut().push_back(LaunchedBatch {
            tokens,
            class,
            launched_at: kernel.now_ns(),
            cost_ns,
        });
    }

    /// Settles every launched batch against the virtual time that
    /// elapsed since its launch — elapsed time is *overlap* (the
    /// crossing was hidden behind computation or idle latency), only the
    /// uncovered remainder is charged as wait — and hands each of its
    /// tokens to `each`.
    pub(crate) fn harvest(
        &self,
        kernel: &Kernel,
        mut each: impl FnMut(CompletionToken),
    ) -> Harvest {
        let mut done = Harvest::default();
        if self.launched.borrow().is_empty() {
            // Poll paths harvest on every probe; emit no trace events
            // (and open no span) when there is nothing to settle.
            return done;
        }
        let _span = kernel.trace_span("xpc", "harvest");
        loop {
            let Some(batch) = self.launched.borrow_mut().pop_front() else {
                break;
            };
            let elapsed = kernel.now_ns().saturating_sub(batch.launched_at);
            let covered = elapsed.min(batch.cost_ns);
            let uncovered = batch.cost_ns - covered;
            if uncovered > 0 {
                kernel.charge(batch.class, uncovered);
            }
            kernel.trace_instant(
                "xpc.batch",
                "harvest",
                &[
                    ("tokens", batch.tokens as u64),
                    ("overlap_ns", covered),
                    ("uncovered_ns", uncovered),
                ],
            );
            done.overlap_ns += covered;
            for _ in 0..batch.tokens {
                let token = self.launched_tokens.borrow_mut().pop_front();
                let token = token.expect("a launched batch's tokens are queued");
                done.settled += self.settle([token]);
                each(token);
            }
            done.tokens += batch.tokens;
        }
        done
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

    fn batched() -> DeferredQueue {
        DeferredQueue::new(TransportKind::Batched)
    }

    fn offer(t: &DeferredQueue, k: &Kernel, slot: u32) -> Option<CompletionToken> {
        t.offer(k, CpuClass::User, call(slot)).unwrap()
    }

    fn due(t: &DeferredQueue, k: &Kernel) -> bool {
        t.flush_due(k.now_ns())
    }

    fn drained(t: &DeferredQueue) -> Vec<DeferredCall> {
        let mut out = Vec::new();
        t.drain(&mut out);
        out
    }

    /// The coalescing window, and fractions of it.
    const W: u64 = BATCH_DEADLINE_NS;
    const TENTH: u64 = W / 10;

    #[test]
    fn non_batching_transports_refuse_deferral() {
        let k = Kernel::new();
        let t = DeferredQueue::new(TransportKind::InProc);
        assert!(t.offer(&k, CpuClass::User, call(0)).is_err());
        assert_eq!(t.pending(), 0);
        assert!(!due(&t, &k));
        assert_eq!(k.now_ns(), 0, "a refused call is not charged an enqueue");
    }

    #[test]
    fn batched_queues_until_capacity() {
        let k = Kernel::new();
        let t = batched();
        for i in 0..BATCH_CAPACITY {
            assert!(!due(&t, &k), "not due at {i}");
            offer(&t, &k, 0);
        }
        assert_eq!(t.pending(), BATCH_CAPACITY);
        assert!(due(&t, &k));
        assert_eq!(drained(&t).len(), BATCH_CAPACITY);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn deadline_makes_partial_batch_due() {
        let k = Kernel::new();
        let t = batched();
        offer(&t, &k, 0);
        assert!(!due(&t, &k), "fresh call, deadline not reached");
        k.run_for(W - 1);
        assert!(!due(&t, &k));
        k.run_for(1);
        assert!(due(&t, &k), "a lone deferred call must not wait forever");
        // Draining disarms; the next call re-arms from its own time.
        drained(&t);
        assert!(!due(&t, &k));
        offer(&t, &k, 0);
        assert!(!due(&t, &k), "deadline restarts with the new batch");
        k.run_for(W + 1);
        assert!(due(&t, &k));
    }

    #[test]
    fn deadline_measured_from_oldest_call() {
        let k = Kernel::new();
        let t = batched();
        offer(&t, &k, 1);
        k.run_for(9 * TENTH);
        // A later call does not push the oldest call's deadline out.
        offer(&t, &k, 2);
        k.run_for(TENTH);
        assert!(due(&t, &k));
    }

    #[test]
    fn deadline_reanchors_to_oldest_surviving_call_after_retain() {
        // Regression: the deadline used to be a single armed-at timestamp
        // that `retain` (the reset_end/fault-recovery drop path) left
        // pointing at a dropped call, so the surviving batch flushed a
        // coalescing window off its own defer time.
        let k = Kernel::new();
        let t = batched();
        offer(&t, &k, 4);
        k.run_for(9 * TENTH);
        offer(&t, &k, 5);
        t.retain(|c| c.proc != ProcHandle(4));
        let survivor_at = t.oldest_deferred_at().unwrap();
        assert!(survivor_at >= 9 * TENTH);
        k.run_for(2 * TENTH); // the victim's window passed, the survivor's did not
        assert!(
            !due(&t, &k),
            "deadline must anchor to the oldest surviving call, not a dropped one"
        );
        assert!(!t.flush_due(survivor_at + W - 1));
        assert!(t.flush_due(survivor_at + W));
    }

    #[test]
    fn deadline_exact_after_queue_drains_at_watermark() {
        // Pins the watermark-boundary off-by-one: after the queue drains
        // exactly at the watermark, the next lone call's deadline fires
        // exactly one coalescing window after *its own* defer time — not
        // a window measured from the drained batch.
        let k = Kernel::new();
        let t = batched();
        for _ in 0..BATCH_CAPACITY {
            offer(&t, &k, 1);
        }
        assert!(due(&t, &k), "at the watermark");
        assert_eq!(
            drained(&t).len(),
            BATCH_CAPACITY,
            "drained exactly at the watermark"
        );
        k.run_for(6 * TENTH);
        offer(&t, &k, 3);
        let at = t.oldest_deferred_at().unwrap();
        assert!(!t.flush_due(at + W - 1), "one tick before c's own deadline");
        assert!(t.flush_due(at + W), "due exactly at c's deadline");
    }

    #[test]
    fn retain_drops_matching_calls() {
        let k = Kernel::new();
        let t = batched();
        offer(&t, &k, 1);
        offer(&t, &k, 2);
        t.retain(|c| c.proc != ProcHandle(1));
        let left = drained(&t);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].proc, ProcHandle(2));
    }

    #[test]
    fn async_issues_distinct_tokens_and_keeps_requeued_ones() {
        let k = Kernel::new();
        let t = DeferredQueue::new(TransportKind::Async);
        let a = offer(&t, &k, 1).unwrap();
        let b = offer(&t, &k, 2).unwrap();
        assert_ne!(a, b, "each fresh offer mints a new token");
        assert_eq!((t.pending(), t.outstanding()), (2, 2));
        let drained = drained(&t);
        assert_eq!(drained[0].token, Some(a));
        assert_eq!(drained[1].token, Some(b));
        // A requeued call keeps its token: no double-issue on recovery.
        let again = t.offer(&k, CpuClass::User, drained[0].clone()).unwrap();
        assert_eq!(again, Some(a));
        assert_eq!(t.outstanding(), 2, "and enters the ledger once");
    }

    #[test]
    fn async_flush_due_follows_doorbell_policy() {
        let k = Kernel::new();
        let t = DeferredQueue::new(TransportKind::Async);
        assert!(!due(&t, &k), "empty queue never due");
        offer(&t, &k, 1);
        assert!(!due(&t, &k));
        k.run_for(W);
        assert!(due(&t, &k), "deadline fires for a partial batch");
        drained(&t);
        for _ in 0..BATCH_CAPACITY {
            assert!(!due(&t, &k));
            offer(&t, &k, 2);
        }
        assert!(due(&t, &k), "watermark fires immediately");
    }

    #[test]
    fn async_retain_returns_cancelled_tokens_and_reanchors() {
        let k = Kernel::new();
        let t = DeferredQueue::new(TransportKind::Async);
        let victim = offer(&t, &k, 4).unwrap();
        k.run_for(9 * TENTH);
        offer(&t, &k, 5);
        let cancelled = t.retain(|c| c.proc != ProcHandle(4));
        assert_eq!(cancelled, vec![victim]);
        assert_eq!(t.outstanding(), 1, "a cancelled token leaves the ledger");
        let survivor_at = t.oldest_deferred_at().unwrap();
        k.run_for(2 * TENTH); // past the victim's window, within the survivor's
        assert!(
            !due(&t, &k),
            "deadline must re-anchor to the surviving call"
        );
        assert!(t.flush_due(survivor_at + W));
    }

    #[test]
    fn crossing_costs_ordered() {
        // batched == async > inproc for the same crossing.
        let cost = |kind: TransportKind| kind.crossing_cost_ns(true);
        assert!(cost(TransportKind::InProc) < cost(TransportKind::Batched));
        assert_eq!(
            cost(TransportKind::Async),
            cost(TransportKind::Batched),
            "a synchronous crossing prices identically on async"
        );
        assert_eq!(TransportKind::InProc.crossing_cost_ns(false), 0);
    }
}
