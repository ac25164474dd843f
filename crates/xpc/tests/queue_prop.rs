//! The one `DeferredQueue` against the two transports it replaced
//! (`reference/`): over arbitrary offer / advance-clock / retain / drain /
//! requeue / doorbell sequences it makes the same flush decision at every
//! step, anchors its deadline to the same call, charges the same enqueue
//! cost, drains the same calls in the same order and mints and cancels the
//! same tokens.
//!
//! The reference has no `mint`: a doorbell on a launching queue with
//! nothing parked mints its token and launches at once, which the model
//! states as what the old doorbell did — offer the call, then drain it.

mod reference;

use decaf_simkernel::{CpuClass, Kernel};
use decaf_xdr::mask::MaskSet;
use decaf_xdr::{XdrSpec, XdrValue};
use decaf_xpc::{
    ChannelConfig, CompletionToken, DeferredCall, DeferredQueue, Domain, ProcDef, ProcHandle,
    TransportKind, XpcChannel,
};
use proptest::prelude::*;
use reference::{
    RefAsync, RefBatched, RefTransport, DEFAULT_BATCH_CAPACITY, DEFAULT_BATCH_DEADLINE_NS,
};

/// One step: an op selector and its operand.
type Op = (u8, u64);

/// A slot handle is only minted by a channel: resolve one real one.
fn a_proc() -> ProcHandle {
    let ch = XpcChannel::new(
        XdrSpec::parse("struct st { int id; };").unwrap(),
        MaskSet::full(),
        ChannelConfig::kernel_user(),
        Domain::Nucleus,
        Domain::Decaf,
    );
    let noop = ProcDef::scalar("noop", |_, _| XdrValue::Void);
    ch.register_proc(Domain::Decaf, noop).unwrap();
    ch.resolve_proc(Domain::Nucleus, "noop").unwrap()
}

/// What identifies a parked call: who deferred it, its serial number and
/// the token it carries.
type Seen = (Domain, u32, Option<CompletionToken>);

fn seen(calls: &[DeferredCall]) -> Vec<Seen> {
    let id = |c: &DeferredCall| c.scalars[0].as_uint().unwrap();
    calls.iter().map(|c| (c.from, id(c), c.token)).collect()
}

/// Drives the queue of `kind` and `model` through `ops`, each on its own
/// kernel, in lock step.
fn twin_run(kind: TransportKind, model: &dyn RefTransport, ops: &[Op]) {
    assert_eq!(kind, model.kind());
    assert_eq!(kind.name(), model.name());
    for crossing in [false, true] {
        let cost = model.crossing_cost_ns(crossing);
        assert_eq!(kind.crossing_cost_ns(crossing), cost);
    }
    let proc = a_proc();
    let (k, rk) = (Kernel::new(), Kernel::new());
    let queue = DeferredQueue::new(kind);
    let mut next_id = 0u32;
    // Serial numbers parked right now, oldest first — only so that a
    // retain can name the oldest call.
    let mut parked_ids: Vec<u32> = Vec::new();
    // Drained and not yet requeued, as each side handed them out.
    let (mut limbo, mut ref_limbo) = (Vec::new(), Vec::new());
    let mut unresolved = 0usize;
    let id_of = |c: &DeferredCall| c.scalars[0].as_uint().unwrap();
    for (step, &(op, arg)) in ops.iter().enumerate() {
        match op {
            0..=4 => {
                let call = DeferredCall {
                    from: [Domain::Nucleus, Domain::Decaf][(arg % 2) as usize],
                    proc,
                    args: vec![],
                    scalars: vec![XdrValue::UInt(next_id)],
                    token: None,
                };
                parked_ids.push(next_id);
                next_id += 1;
                let class = call.from.cpu_class();
                let minted = queue.offer(&k, class, call.clone()).unwrap();
                let want = model.offer(&rk, class, call).unwrap();
                assert_eq!(minted, want, "step {step}: minted token");
                unresolved += minted.is_some() as usize;
            }
            5 | 6 => {
                // Idle for a while — or, when something is parked, up to
                // its deadline exactly or one tick short of it.
                let edge = queue.oldest_deferred_at().and_then(|at| {
                    (at + DEFAULT_BATCH_DEADLINE_NS - arg % 2).checked_sub(k.now_ns())
                });
                let idle = match edge {
                    Some(to_edge) if op == 6 => to_edge,
                    _ => arg % (DEFAULT_BATCH_DEADLINE_NS / 2),
                };
                k.run_for(idle);
                rk.run_for(idle);
            }
            7 => {
                // Fault recovery's drop: one domain's calls, every other
                // call, or just the oldest (the re-anchoring case).
                let oldest = parked_ids.first().copied();
                let kept = std::cell::RefCell::new(Vec::new());
                let keep = |c: &DeferredCall| {
                    let keep_it = match arg % 4 {
                        0 => c.from != Domain::Decaf,
                        1 => c.from != Domain::Nucleus,
                        2 => id_of(c) % 2 == 0,
                        _ => Some(id_of(c)) != oldest,
                    };
                    if keep_it {
                        kept.borrow_mut().push(id_of(c));
                    }
                    keep_it
                };
                let cancelled = queue.retain(keep);
                parked_ids = kept.take();
                assert_eq!(cancelled, model.retain(&keep), "step {step}: cancelled");
                assert_eq!(parked_ids, kept.take(), "step {step}: survivors");
                unresolved -= cancelled.len();
            }
            8 => {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                queue.drain(&mut got);
                model.drain(&mut want);
                assert_eq!(seen(&got), seen(&want), "step {step}: drained order");
                let ids: Vec<u32> = got.iter().map(id_of).collect();
                assert_eq!(ids, std::mem::take(&mut parked_ids), "step {step}");
                limbo.append(&mut got);
                ref_limbo.append(&mut want);
            }
            9 => {
                for (call, ref_call) in limbo.drain(..).zip(ref_limbo.drain(..)) {
                    parked_ids.push(id_of(&call));
                    let class = CpuClass::Kernel;
                    let kept = queue.offer(&k, class, call).unwrap();
                    let want = model.offer(&rk, class, ref_call).unwrap();
                    assert_eq!(kept, want, "step {step}: a requeue keeps its token");
                }
            }
            _ => {
                // A doorbell: minted and launched at once when it can be,
                // otherwise parked behind what is there.
                let call = DeferredCall {
                    from: Domain::Nucleus,
                    proc,
                    args: vec![],
                    scalars: vec![XdrValue::UInt(next_id)],
                    token: None,
                };
                next_id += 1;
                let class = call.from.cpu_class();
                let want = model.offer(&rk, class, call.clone()).unwrap();
                let minted = match kind.launches() && queue.pending() == 0 {
                    true => {
                        model.drain(&mut Vec::new());
                        Some(queue.mint(&k, class))
                    }
                    false => {
                        parked_ids.push(next_id - 1);
                        queue.offer(&k, class, call).unwrap()
                    }
                };
                assert_eq!(minted, want, "step {step}: the doorbell's token");
                unresolved += minted.is_some() as usize;
            }
        }
        assert_eq!(k.now_ns(), rk.now_ns(), "step {step}: enqueue charges");
        assert_eq!(queue.pending(), model.pending(), "step {step}");
        assert_eq!(queue.pending(), parked_ids.len(), "step {step}");
        let anchor = queue.oldest_deferred_at();
        assert_eq!(anchor, model.oldest_deferred_at(), "step {step}");
        let due = queue.flush_due(k.now_ns());
        assert_eq!(due, model.flush_due(&rk), "step {step}: flush_due");
        // And the rule itself, stated once.
        let full = queue.pending() >= DEFAULT_BATCH_CAPACITY;
        let late = anchor.is_some_and(|at| k.now_ns() - at >= DEFAULT_BATCH_DEADLINE_NS);
        assert_eq!(due, anchor.is_some() && (full || late), "step {step}");
        assert_eq!(queue.outstanding(), unresolved, "step {step}: ledger");
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..11, any::<u64>()), 1..96)
}

proptest! {
    #[test]
    fn one_queue_is_the_batched_transport(ops in ops()) {
        let model = RefBatched::new(DEFAULT_BATCH_CAPACITY);
        twin_run(TransportKind::Batched, &model, &ops);
    }

    #[test]
    fn one_queue_is_the_async_transport(ops in ops()) {
        let model = RefAsync::new(DEFAULT_BATCH_CAPACITY, DEFAULT_BATCH_DEADLINE_NS);
        twin_run(TransportKind::Async, &model, &ops);
    }
}
