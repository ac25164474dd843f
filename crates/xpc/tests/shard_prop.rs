//! Property tests for the sharded-channel facade: marshaling a field
//! set through N sharded channels must yield the same final `ObjHeap`
//! state as one channel, for arbitrary op orders — delta marshaling,
//! home pinning, and batched flushing included.

use std::collections::HashMap;
use std::rc::Rc;

use decaf_simkernel::Kernel;
use decaf_xdr::mask::MaskSet;
use decaf_xdr::{XdrSpec, XdrValue};
use decaf_xpc::{ChannelConfig, Domain, ProcDef, ShardedChannel};
use proptest::prelude::*;

fn spec() -> XdrSpec {
    XdrSpec::parse("struct st { int id; int value; int flag; };").unwrap()
}

/// One mutation: `(object index, field index, new value, deferred?)`.
type Op = (usize, usize, i32, bool);

const FIELDS: [&str; 2] = ["value", "flag"];

/// Runs an op sequence over a facade with `shards` channels and returns
/// the decaf-side state per object id, plus how many decaf-side copies
/// of each id exist across all shards (the home-pinning invariant).
fn run(
    shards: usize,
    n_objects: usize,
    ops: &[Op],
) -> (HashMap<i32, (i32, i32)>, HashMap<i32, usize>) {
    let kernel = Kernel::new();
    let sc = ShardedChannel::new(
        spec(),
        MaskSet::full(),
        ChannelConfig::kernel_user_batched(),
        Domain::Nucleus,
        Domain::Decaf,
        shards,
    );
    sc.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "touch".into(),
            arg_types: vec!["st".into()],
            handler: Rc::new(|_, _, _, _| XdrValue::Void),
        },
    )
    .unwrap();

    let mut objects = Vec::new();
    for id in 0..n_objects {
        let addr = sc.alloc_shared(Domain::Nucleus, "st").unwrap();
        let home = sc.home_of(addr).unwrap();
        sc.heap(home, Domain::Nucleus)
            .borrow_mut()
            .set_scalar(addr, "id", XdrValue::Int(id as i32))
            .unwrap();
        objects.push((addr, home));
    }

    for (obj, field, value, deferred) in ops {
        let (addr, home) = objects[obj % n_objects];
        sc.heap(home, Domain::Nucleus)
            .borrow_mut()
            .set_scalar(addr, FIELDS[field % FIELDS.len()], XdrValue::Int(*value))
            .unwrap();
        if *deferred {
            sc.call_deferred(&kernel, Domain::Nucleus, "touch", &[Some(addr)], &[])
                .unwrap();
        } else {
            sc.call(&kernel, Domain::Nucleus, "touch", &[Some(addr)], &[])
                .unwrap();
        }
    }
    sc.flush_all(&kernel).unwrap();

    let mut state = HashMap::new();
    let mut copies = HashMap::new();
    for shard in 0..shards {
        let heap = sc.heap(shard, Domain::Decaf);
        let h = heap.borrow();
        let addrs: Vec<_> = h.iter().map(|(a, _)| a).collect();
        for a in addrs {
            let id = h.scalar(a, "id").unwrap().as_int().unwrap();
            let value = h.scalar(a, "value").unwrap().as_int().unwrap();
            let flag = h.scalar(a, "flag").unwrap().as_int().unwrap();
            state.insert(id, (value, flag));
            *copies.entry(id).or_insert(0) += 1;
        }
    }
    (state, copies)
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0usize..8, 0usize..2, any::<i32>(), any::<bool>()), 1..32)
}

proptest! {
    /// Delta round-trip equivalence: the same op order through 1, 2, 3
    /// and 4 shards converges every object to the same final state.
    #[test]
    fn sharded_delta_roundtrip_matches_single_channel(
        n_objects in 1usize..5,
        ops in ops_strategy(),
    ) {
        let (baseline, _) = run(1, n_objects, &ops);
        for shards in 2usize..5 {
            let (state, copies) = run(shards, n_objects, &ops);
            prop_assert_eq!(
                &state, &baseline,
                "{} shards diverged from the single channel", shards
            );
            // Home pinning: every object that crossed exists on exactly
            // one shard's decaf heap — its home.
            for (id, n) in &copies {
                prop_assert_eq!(*n, 1, "object {} marshaled on {} shards", id, n);
            }
        }
    }

    /// Aggregated facade stats are consistent with the work done: the
    /// sharded run marshals at least one object per touched id, and the
    /// per-shard sum of round trips equals the aggregate.
    #[test]
    fn sharded_stats_aggregate_consistently(
        shards in 1usize..5,
        ops in ops_strategy(),
    ) {
        let kernel = Kernel::new();
        let sc = ShardedChannel::new(
            spec(),
            MaskSet::full(),
            ChannelConfig::kernel_user_batched(),
            Domain::Nucleus,
            Domain::Decaf,
            shards,
        );
        sc.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "touch".into(),
                arg_types: vec!["st".into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
        let addr = sc.alloc_shared(Domain::Nucleus, "st").unwrap();
        let home = sc.home_of(addr).unwrap();
        for (_, field, value, deferred) in &ops {
            sc.heap(home, Domain::Nucleus)
                .borrow_mut()
                .set_scalar(addr, FIELDS[field % FIELDS.len()], XdrValue::Int(*value))
                .unwrap();
            if *deferred {
                sc.call_deferred(&kernel, Domain::Nucleus, "touch", &[Some(addr)], &[]).unwrap();
            } else {
                sc.call(&kernel, Domain::Nucleus, "touch", &[Some(addr)], &[]).unwrap();
            }
        }
        sc.flush_all(&kernel).unwrap();
        let total = sc.stats();
        let per_shard_sum: u64 = (0..shards).map(|i| sc.shard_stats(i).round_trips).sum();
        prop_assert_eq!(total.round_trips, per_shard_sum);
        prop_assert_eq!(total.faults, 0);
        prop_assert!(total.full_objects + total.delta_objects >= 1);
        prop_assert_eq!(sc.pending_deferred(), 0);
    }
}
