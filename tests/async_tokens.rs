//! Property test for the completion-token lifecycle on the async
//! transport.
//!
//! Generates arbitrary interleavings of token launches, virtual-time
//! advances, deadline polls, flushes, harvests, deadline-wakeup *timer
//! arming* and mid-stream shard recoveries (either end failing) against
//! a sharded async channel, and asserts for every sequence:
//!
//! * **exactly-once harvest** — no token is ever resolved twice, and
//!   every token the run issues ends the run either harvested or
//!   cancelled, never both, never neither;
//! * **conservation** — `tokens_issued == tokens_harvested +
//!   tokens_cancelled` with zero tokens outstanding after the final
//!   flush + harvest, including across `recover_shard`;
//! * **wakeup-timer safety** — a `recover_shard` racing an
//!   armed-but-unfired deadline-wakeup timer must never let the timer
//!   fire destructively against the reset end: a stale fire declines
//!   and re-arms, requeued calls keep their tokens when the timer later
//!   flushes them, and no timer-driven flush faults or double-applies,
//!   whatever order arm / fault / fire land in.
//!
//! Runs under the offline proptest shim (64 deterministic cases); the
//! registry `proptest` crate is a drop-in replacement with shrinking.

use std::collections::HashSet;
use std::rc::Rc;

use decaf_core::simkernel::Kernel;
use decaf_core::xdr::mask::MaskSet;
use decaf_core::xdr::{XdrSpec, XdrValue};
use decaf_core::xpc::{ChannelConfig, Domain, ProcDef, ShardedChannel};
use proptest::prelude::*;

/// Shards every generated sequence runs against.
const SHARDS: usize = 3;

/// One step of a generated interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Launch an async scalar-only call pinned to one shard.
    Launch(usize),
    /// Advance virtual time (lets coalescing deadlines expire).
    Advance(u64),
    /// Poll every shard's adaptive-batching deadline.
    FlushDue,
    /// Force-flush every shard's parked queue.
    FlushAll,
    /// Harvest every shard's launched batches.
    Harvest,
    /// Fail one end of one shard and recover it. `true` fails the decaf
    /// end (parked nucleus calls requeue, keeping their tokens); `false`
    /// fails the nucleus end (its parked calls cancel).
    Recover(usize, bool),
    /// Arm the per-shard deadline-wakeup timers (idempotent). Once
    /// armed, `Advance` can fire flushes from timer context — including
    /// timers armed *before* a `Recover` that fire after it, the
    /// stale-timer-versus-reset-end race this suite explores.
    ArmWakeups,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..SHARDS).prop_map(Op::Launch),
        (1u64..200_000).prop_map(Op::Advance),
        Just(Op::FlushDue),
        Just(Op::FlushAll),
        Just(Op::Harvest),
        ((0usize..SHARDS), any::<bool>()).prop_map(|(s, decaf)| Op::Recover(s, decaf)),
        Just(Op::ArmWakeups),
    ]
}

/// Replays one generated interleaving and checks the token ledger.
fn run_ops(ops: &[Op]) {
    let kernel = Kernel::new();
    let sc = ShardedChannel::new(
        XdrSpec::parse("struct st { int id; int value; };").unwrap(),
        MaskSet::full(),
        ChannelConfig::kernel_user_async(),
        Domain::Nucleus,
        Domain::Decaf,
        SHARDS,
    );
    sc.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "ping".into(),
            arg_types: vec![],
            handler: Rc::new(|_, _, _, _| XdrValue::Int(1)),
        },
    )
    .unwrap();

    // Token IDs are per-shard counters: the exactly-once ledger keys on
    // (shard, token). Scalar-only calls go straight to a chosen shard's
    // channel so the issuing shard is explicit, not steered.
    let mut issued: HashSet<(usize, u64)> = HashSet::new();
    let mut resolved: HashSet<(usize, u64)> = HashSet::new();
    let mut cancelled_count = 0u64;
    let collect = |resolved: &mut HashSet<(usize, u64)>| {
        for i in 0..SHARDS {
            for tok in sc.shard(i).harvest(&kernel) {
                prop_assert!(
                    resolved.insert((i, tok.0)),
                    "token {} harvested twice on shard {i} in {ops:?}",
                    tok.0
                );
            }
        }
    };
    for op in ops {
        match *op {
            Op::Launch(shard) => {
                let token = sc
                    .shard(shard)
                    .call_deferred(&kernel, Domain::Nucleus, "ping", &[], &[])
                    .unwrap()
                    .expect("an async channel issues a token");
                prop_assert!(
                    issued.insert((shard, token.0)),
                    "token {} issued twice on shard {shard} in {ops:?}",
                    token.0
                );
            }
            Op::Advance(ns) => kernel.run_for(ns),
            Op::FlushDue => {
                sc.flush_if_due(&kernel).unwrap();
            }
            Op::FlushAll => sc.flush_all(&kernel).unwrap(),
            Op::Harvest => collect(&mut resolved),
            Op::Recover(shard, decaf_end) => {
                // Harvest first so recovery's internal harvest resolves
                // nothing invisibly; then the chosen end dies. A failed
                // nucleus end cancels its parked calls' tokens; a failed
                // decaf end requeues them under their original tokens.
                collect(&mut resolved);
                let before = sc.shard_stats(shard).tokens_cancelled;
                let failed = if decaf_end {
                    Domain::Decaf
                } else {
                    Domain::Nucleus
                };
                sc.recover_shard(&kernel, shard, failed).unwrap();
                cancelled_count += sc.shard_stats(shard).tokens_cancelled - before;
            }
            Op::ArmWakeups => sc.arm_deadline_wakeups(&kernel),
        }
    }
    // Let any still-armed wakeup timer fire before the reckoning: a
    // stale timer that survived the last recovery must decline or flush
    // cleanly — never fire destructively against the reset end.
    kernel.run_for(1_000_000);
    sc.flush_all(&kernel).unwrap();
    collect(&mut resolved);

    // Every issued token ended exactly one way: harvested (collected by
    // this test) or cancelled (counted at its recovery), never both.
    let s = sc.stats();
    prop_assert_eq!(s.tokens_issued, issued.len() as u64, "{ops:?}");
    prop_assert_eq!(
        s.tokens_issued,
        s.tokens_harvested + s.tokens_cancelled,
        "token ledger does not close in {ops:?}"
    );
    prop_assert_eq!(s.tokens_harvested, resolved.len() as u64, "{ops:?}");
    prop_assert_eq!(s.tokens_cancelled, cancelled_count, "{ops:?}");
    prop_assert_eq!(sc.tokens_outstanding(), 0, "{ops:?}");
    for key in &resolved {
        prop_assert!(issued.contains(key), "phantom token {key:?} in {ops:?}");
    }
    // Timer-driven flushes (deadline wakeups armed mid-sequence) ride
    // the same ledger: none may fault or trip a kernel-context check.
    prop_assert_eq!(sc.stats().faults, 0, "{ops:?}");
    prop_assert!(
        kernel.violations().is_empty(),
        "violations {:?} in {ops:?}",
        kernel.violations()
    );
}

proptest! {
    #[test]
    fn token_ledger_closes_under_arbitrary_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..48),
    ) {
        run_ops(&ops);
    }
}
