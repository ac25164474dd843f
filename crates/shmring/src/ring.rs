//! The single-producer/single-consumer descriptor ring.
//!
//! The ring is generic over its slot type: the NIC data paths post
//! 16-byte [`Descriptor`]s (the default), the storage path posts
//! [`crate::UrbDescriptor`]s carrying request/response metadata. Any
//! `Copy + Default` value small enough to think of as "a couple of
//! cache lines" qualifies — the protocol (slot ownership, wrap-around,
//! backpressure) and the cost model are identical for all of them.

use std::cell::Cell;

use decaf_simkernel::counters::Bump;
use decaf_simkernel::{costs, CpuClass, Kernel};

use crate::pool::BufHandle;

/// Who may touch a ring slot right now.
///
/// The flag plays the role of a NIC descriptor's descriptor-done bit: the
/// producer hands a slot to the consumer by flipping it to
/// [`SlotOwner::Consumer`] *after* writing the descriptor body (a
/// release-store in real hardware), and the consumer hands it back by
/// flipping it to [`SlotOwner::Producer`] once the descriptor is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOwner {
    /// The producer owns the slot (empty, writable).
    Producer,
    /// The consumer owns the slot (holds a posted descriptor).
    Consumer,
}

/// One descriptor: a payload handle plus metadata. 16 bytes of ring
/// traffic replace the payload bytes that used to cross the marshaler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// The pool buffer holding the payload (or a driver-defined handle
    /// when the buffer lives outside a [`crate::BufPool`], e.g. a device
    /// receive slot).
    pub buf: BufHandle,
    /// Payload length in bytes.
    pub len: u32,
    /// Driver-defined cookie (device slot index, DMA offset, sequence
    /// number — whatever the consumer needs to complete the descriptor).
    pub cookie: u64,
}

/// Ring failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// Every slot is consumer-owned: the producer must back off until the
    /// consumer drains (backpressure, not silent loss).
    Full,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => write!(f, "ring full: producer must back off"),
        }
    }
}

impl std::error::Error for RingError {}

decaf_simkernel::counters! {
    /// Counters for one ring.
    pub struct RingStats {
        /// Descriptors posted by the producer.
        posts: sum,
        /// Descriptors consumed.
        pops: sum,
        /// Posts refused because the ring was full.
        backpressure: sum,
        /// Highest occupancy observed (the high-water mark).
        occupancy_hwm: max,
    }
}

/// A single-producer/single-consumer descriptor ring in pinned shared
/// memory, generic over the descriptor type it carries (defaulting to
/// the NIC-shaped [`Descriptor`]).
///
/// The simulation is single-threaded, so the ring models the *protocol*
/// (slot ownership, wrap-around, backpressure) and the *cost* (cache-line
/// traffic instead of per-byte marshaling); it does not need atomics.
#[derive(Debug)]
pub struct ShmRing<D: Copy + Default = Descriptor> {
    name: String,
    slots: Vec<Cell<D>>,
    owner: Vec<Cell<SlotOwner>>,
    /// Next slot the producer writes.
    head: Cell<usize>,
    /// Next slot the consumer reads.
    tail: Cell<usize>,
    occupancy: Cell<usize>,
    stats: Cell<RingStats>,
}

impl<D: Copy + Default> ShmRing<D> {
    /// Creates a ring with `capacity` slots, all producer-owned.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "a ring needs at least one slot");
        ShmRing {
            name: name.into(),
            slots: (0..capacity).map(|_| Cell::new(D::default())).collect(),
            owner: (0..capacity)
                .map(|_| Cell::new(SlotOwner::Producer))
                .collect(),
            head: Cell::new(0),
            tail: Cell::new(0),
            occupancy: Cell::new(0),
            stats: Cell::new(RingStats::default()),
        }
    }

    /// The ring's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Descriptors currently posted and not yet consumed.
    pub fn len(&self) -> usize {
        self.occupancy.get()
    }

    /// Whether no descriptor is pending.
    pub fn is_empty(&self) -> bool {
        self.occupancy.get() == 0
    }

    /// Whether every slot is consumer-owned.
    pub fn is_full(&self) -> bool {
        self.occupancy.get() == self.capacity()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RingStats {
        self.stats.get()
    }

    /// The slot after `slot`, wrapping at the end — a compare, not the
    /// 64-bit division a `%` by the run-time capacity costs on every post
    /// and every pop.
    fn after(&self, slot: usize) -> usize {
        match slot + 1 {
            next if next == self.capacity() => 0,
            next => next,
        }
    }

    /// Posts one descriptor: writes the slot body, then releases it to
    /// the consumer by flipping the ownership flag. Charges
    /// [`costs::RING_POST_NS`] to `class`.
    ///
    /// Returns [`RingError::Full`] (and counts a backpressure event)
    /// when no producer-owned slot is available.
    pub fn push(&self, kernel: &Kernel, class: CpuClass, desc: D) -> Result<(), RingError> {
        if self.is_full() {
            self.stats.bump(|s| s.backpressure += 1);
            return Err(RingError::Full);
        }
        let slot = self.head.get();
        debug_assert_eq!(
            self.owner[slot].get(),
            SlotOwner::Producer,
            "{}: producer touched a consumer-owned slot",
            self.name
        );
        self.slots[slot].set(desc);
        self.owner[slot].set(SlotOwner::Consumer);
        self.head.set(self.after(slot));
        let occ = self.occupancy.get() + 1;
        self.occupancy.set(occ);
        kernel.charge(class, costs::RING_POST_NS);
        self.stats.bump(|s| {
            s.posts += 1;
            s.occupancy_hwm = s.occupancy_hwm.max(occ as u64);
        });
        Ok(())
    }

    /// Consumes the oldest posted descriptor and hands its slot back to
    /// the producer. Charges [`costs::RING_CACHELINE_NS`] to `class` (the
    /// consumer pulls the dirtied line across cores).
    pub fn pop(&self, kernel: &Kernel, class: CpuClass) -> Option<D> {
        if self.is_empty() {
            return None;
        }
        let slot = self.tail.get();
        debug_assert_eq!(
            self.owner[slot].get(),
            SlotOwner::Consumer,
            "{}: consumer touched a producer-owned slot",
            self.name
        );
        let desc = self.slots[slot].get();
        self.owner[slot].set(SlotOwner::Producer);
        self.tail.set(self.after(slot));
        self.occupancy.set(self.occupancy.get() - 1);
        kernel.charge(class, costs::RING_CACHELINE_NS);
        self.stats.bump(|s| s.pops += 1);
        desc.into()
    }

    /// Consumes every posted descriptor, oldest first, onto the end of
    /// `out`. Every pop is paid for before the caller looks at the first
    /// descriptor, and the storage is the caller's: a drain runs once per
    /// doorbell or poll tick, so whoever drains keeps one batch and
    /// reuses it instead of being handed a fresh `Vec` each time.
    pub fn drain(&self, kernel: &Kernel, class: CpuClass, out: &mut Vec<D>) {
        while let Some(d) = self.pop(kernel, class) {
            out.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(n: u32) -> Descriptor {
        Descriptor {
            buf: BufHandle(n),
            len: 100 + n,
            cookie: n as u64,
        }
    }

    #[test]
    fn fifo_order_preserved_across_wrap() {
        let k = Kernel::new();
        let r = ShmRing::new("t", 4);
        // Fill, drain half, refill: head/tail wrap around the end.
        for i in 0..4 {
            r.push(&k, CpuClass::Kernel, desc(i)).unwrap();
        }
        assert_eq!(r.pop(&k, CpuClass::User).unwrap(), desc(0));
        assert_eq!(r.pop(&k, CpuClass::User).unwrap(), desc(1));
        r.push(&k, CpuClass::Kernel, desc(4)).unwrap();
        r.push(&k, CpuClass::Kernel, desc(5)).unwrap();
        let mut drained = vec![desc(9)];
        r.drain(&k, CpuClass::User, &mut drained);
        let appended = vec![desc(9), desc(2), desc(3), desc(4), desc(5)];
        assert_eq!(drained, appended, "oldest first, after what was there");
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_applies_backpressure() {
        let k = Kernel::new();
        let r = ShmRing::new("t", 2);
        r.push(&k, CpuClass::Kernel, desc(0)).unwrap();
        r.push(&k, CpuClass::Kernel, desc(1)).unwrap();
        assert_eq!(r.push(&k, CpuClass::Kernel, desc(2)), Err(RingError::Full));
        assert_eq!(r.stats().backpressure, 1);
        // Consuming one slot hands it back to the producer.
        r.pop(&k, CpuClass::User).unwrap();
        r.push(&k, CpuClass::Kernel, desc(2)).unwrap();
        assert_eq!(r.stats().occupancy_hwm, 2);
    }

    #[test]
    fn costs_charge_to_the_right_class() {
        let k = Kernel::new();
        let r = ShmRing::new("t", 4);
        let before = k.snapshot();
        r.push(&k, CpuClass::Kernel, desc(0)).unwrap();
        let mid = k.snapshot();
        assert_eq!(
            mid.kernel_busy_ns - before.kernel_busy_ns,
            costs::RING_POST_NS
        );
        r.pop(&k, CpuClass::User).unwrap();
        let after = k.snapshot();
        assert_eq!(
            after.user_busy_ns - mid.user_busy_ns,
            costs::RING_CACHELINE_NS
        );
    }
}
