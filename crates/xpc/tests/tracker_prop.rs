//! The object tracker against the one it replaced (`reference/tracker.rs`,
//! two SipHash `HashMap`s): over arbitrary associate / lookup /
//! canonical-for / release sequences, one address under several types
//! included (a struct embedded first in another shares its address), it
//! answers every query the same and holds the same associations.
//!
//! Then the addresses a peer can forge — off the heap's stride, below its
//! base, one past its last slot, a freed slot, the top of the address
//! space — pushed through a channel's tracker and heap, and through a
//! channel itself: each decodes into a fresh associated object or fails
//! with a typed error, and never panics.

#[path = "reference/tracker.rs"]
mod reference;

use std::cell::Cell;
use std::rc::Rc;

use decaf_simkernel::Kernel;
use decaf_xdr::graph::{self, CAddr, WalkScratch};
use decaf_xdr::mask::{Direction, MaskSet};
use decaf_xdr::{TrackerHook, XdrError, XdrSpec, XdrValue};
use decaf_xpc::tracker::ObjectTracker;
use decaf_xpc::{ChannelConfig, Domain, ProcDef, XpcChannel, XpcError};
use proptest::prelude::*;
use reference::RefTracker;

/// Four struct types to tag associations with.
fn spec() -> XdrSpec {
    XdrSpec::parse(
        "struct node { int v; struct node *next; };\n\
         struct outer { int a; }; struct inner { int a; }; struct ring { int a; };",
    )
    .unwrap()
}

/// One step: an op selector and its operands.
type Op = (u8, u8, u8, u8);

/// Drives the tracker and the reference through `ops` in lock step.
/// Remote and local addresses come from pools of eight, so the same
/// remote recurs under several types and the same local is re-associated.
fn twin_run(ops: &[Op]) {
    let spec = spec();
    let types = ["node", "outer", "inner", "ring"].map(|t| spec.layout(t).unwrap());
    let remote = |r: u8| 0x8000_0000 + 0x100 * u64::from(r % 8);
    let local = |l: u8| 0x1000_0000 + 0x100 * u64::from(l % 8);
    let (mut real, mut model) = (ObjectTracker::new(), RefTracker::new());
    for &(op, r, t, l) in ops {
        let ty = types[usize::from(t % 4)];
        match op % 4 {
            0 => {
                real.associate(remote(r), ty, local(l));
                model.associate(remote(r), ty, local(l));
            }
            1 => assert_eq!(
                real.lookup(remote(r), ty),
                model.lookup(remote(r), ty),
                "lookup"
            ),
            2 => assert_eq!(
                real.canonical_for(local(l)),
                model.canonical_for(local(l)),
                "canonical_for"
            ),
            _ => assert_eq!(
                real.release_local(local(l)),
                model.release_local(local(l)),
                "release_local"
            ),
        }
        assert_eq!(real.len(), model.len());
        assert_eq!(real.is_empty(), model.is_empty());
        assert_eq!(real.associations(), model.associations());
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..128)
}

proptest! {
    #[test]
    fn the_tracker_answers_as_the_hashmap_tracker_did(ops in ops()) {
        twin_run(&ops);
    }
}

#[test]
fn one_address_under_two_types_is_two_associations() {
    let spec = spec();
    let (outer, inner) = (spec.layout("outer").unwrap(), spec.layout("inner").unwrap());
    let (mut real, mut model) = (ObjectTracker::new(), RefTracker::new());
    for (ty, local) in [(outer, 0x1000_0000), (inner, 0x1000_0100)] {
        real.associate(0x8000_0000, ty, local);
        model.associate(0x8000_0000, ty, local);
    }
    assert_eq!(real.lookup(0x8000_0000, inner), Some(0x1000_0100));
    assert_eq!(real.associations(), model.associations());
    assert_eq!(real.release_local(0x1000_0000), Some(0x8000_0000));
    model.release_local(0x1000_0000);
    assert_eq!(real.lookup(0x8000_0000, outer), None);
    assert_eq!(real.lookup(0x8000_0000, inner), Some(0x1000_0100));
    assert_eq!(real.associations(), model.associations());
}

fn channel() -> XpcChannel {
    let config = ChannelConfig::kernel_user();
    XpcChannel::new(
        spec(),
        MaskSet::full(),
        config,
        Domain::Nucleus,
        Domain::Decaf,
    )
}

/// The nucleus heap of `ch` holding a live, a freed and a last node, and
/// the addresses a peer can write that it does not hold.
fn forged(ch: &XpcChannel) -> (CAddr, [CAddr; 6]) {
    let alloc = || ch.alloc_shared(Domain::Nucleus, "node").unwrap();
    let (live, freed, last) = (alloc(), alloc(), alloc());
    ch.heap(Domain::Nucleus).borrow_mut().free(freed);
    let below = Domain::Nucleus.heap_base() - 0x100;
    (
        live,
        [live + 0x80, below, last + 0x100, freed, u64::MAX, !0xff],
    )
}

/// A `node` announced inline as `remote`, in full, with `v` and a null
/// `next` — what a peer writes on the wire.
fn inline_node(remote: CAddr, v: i32) -> Vec<u8> {
    let words = [1, (remote >> 32) as u32, remote as u32, 0, v as u32, 0];
    words.into_iter().flat_map(u32::to_be_bytes).collect()
}

#[test]
fn forged_addresses_through_a_channels_tracker_decode_fresh_and_associated() {
    for i in 0..6 {
        // A fresh channel each: the one-past address is the next slot.
        let ch = channel();
        let (live, forged) = forged(&ch);
        let (addr, node) = (forged[i], ch.spec().layout("node").unwrap().id());
        let (mut tracker, heap) = (ObjectTracker::new(), ch.heap(Domain::Nucleus));
        let mut decode = |v| {
            let (mut got, scratch) = (None, &mut WalkScratch::default());
            let mut heap = heap.borrow_mut();
            graph::unmarshal_plan(
                &inline_node(addr, v),
                [node],
                &mut heap,
                ch.plan(),
                ch.spec(),
                Direction::In,
                &mut tracker,
                scratch,
                &mut |root| got = root,
            )
            .map(|()| got.unwrap())
        };
        let fresh = decode(i as i32).unwrap();
        assert_ne!(fresh, live, "{addr:#x}");
        // The tracker found it again: the same object, updated in place.
        assert_eq!(decode(100 + i as i32), Ok(fresh), "{addr:#x}");
        let heap = heap.borrow();
        assert_eq!(heap.scalar(fresh, "v"), Ok(&XdrValue::Int(100 + i as i32)));
        assert_eq!(tracker.canonical_for(fresh), Some(addr));
        assert_eq!(heap.get(addr).is_ok(), heap.contains(addr), "{addr:#x}");
        assert_eq!(tracker.len(), 1);
    }
}

#[test]
fn forged_addresses_cross_a_channel_as_a_typed_error_or_a_fresh_object() {
    let k = Kernel::new();
    let ch = channel();
    let kept = Rc::new(Cell::new(None));
    let keep = Rc::clone(&kept);
    let def = ProcDef::entry("keep", ["node"], move |_, _, args, _| {
        keep.set(args[0]);
        XdrValue::Int(0)
    });
    ch.register_proc(Domain::Decaf, def).unwrap();
    let given = Rc::new(Cell::new(None));
    let give = Rc::clone(&given);
    let def = ProcDef::entry("give", ["node"], move |_, _, args, _| {
        give.set(args[0]);
        XdrValue::Int(0)
    });
    ch.register_proc(Domain::Nucleus, def).unwrap();
    let (live, forged) = forged(&ch);
    let len = |d| ch.heap(d).borrow().len();

    // A forged argument is refused where it is marshaled, typed.
    for addr in forged {
        let before = (len(Domain::Nucleus), len(Domain::Decaf), ch.stats());
        let call = ch.call(&k, Domain::Nucleus, "keep", &[Some(addr)], &[]);
        assert_eq!(call, Err(XpcError::Xdr(XdrError::DanglingAddr(addr))));
        assert_eq!(
            before,
            (len(Domain::Nucleus), len(Domain::Decaf), ch.stats())
        );
    }

    // The peer announces an object the nucleus has since freed: it
    // decodes into a fresh object the nucleus tracker associates with it.
    ch.call(&k, Domain::Nucleus, "keep", &[Some(live)], &[])
        .unwrap();
    let copy = kept.get().unwrap();
    assert!(ch.heap(Domain::Nucleus).borrow_mut().free(live).is_some());
    ch.call(&k, Domain::Decaf, "give", &[Some(copy)], &[])
        .unwrap();
    let fresh = given.get().unwrap();
    let nucleus = ch.heap(Domain::Nucleus);
    assert!(fresh != live && nucleus.borrow().contains(fresh));
    assert!(!nucleus.borrow().contains(live));
    // Sent back, the fresh object goes home to the peer's copy.
    ch.call(&k, Domain::Nucleus, "keep", &[Some(fresh)], &[])
        .unwrap();
    assert_eq!(kept.get(), Some(copy));

    // Past the last slot: the nucleus end restarted empty, and the peer
    // still names what it held.
    ch.reset_end(Domain::Nucleus).unwrap();
    ch.call(&k, Domain::Decaf, "give", &[Some(copy)], &[])
        .unwrap();
    let restarted = given.get().unwrap();
    assert_eq!(restarted, Domain::Nucleus.heap_base(), "the first slot");
    assert_eq!(len(Domain::Nucleus), 1);
    assert!(k.violations().is_empty(), "{:?}", k.violations());
}
