//! Pinned shared-memory descriptor rings for the zero-copy data path.
//!
//! Decaf keeps the packet data path in the kernel because crossing the
//! boundary *by value* is too expensive: every payload byte pays
//! marshaling plus copy costs. Emmerich et al. ("The Case for Writing
//! Network Drivers in High-Level Programming Languages") show that
//! high-level-language drivers reach line rate by mapping descriptor
//! rings into the driver and passing *ownership*, not bytes. This crate
//! models that mechanism for the simulated kernel — and it is
//! device-class-generic: the same rings carry NIC frame descriptors and
//! storage URB request/response descriptors.
//!
//! * [`ShmRing`] — a single-producer/single-consumer descriptor ring in
//!   pinned shared memory, generic over its slot type. Each slot carries
//!   an ownership flag (the moral equivalent of a NIC descriptor's DD
//!   bit): the producer may only write producer-owned slots, the
//!   consumer only read consumer-owned ones. Posting a descriptor costs
//!   [`decaf_simkernel::costs::RING_POST_NS`] (two cache-line writes);
//!   consuming one costs [`decaf_simkernel::costs::RING_CACHELINE_NS`]
//!   (a coherence miss) — *never* a per-byte marshal cost.
//! * [`BufPool`] — a pool of fixed-size payload buffers carved out of a
//!   [`decaf_simkernel::DmaMemory`] region, so a buffer handle in a
//!   descriptor refers to memory the device can DMA from/to directly.
//!   Payload is written into a pool buffer exactly once (charged through
//!   [`decaf_simkernel::Kernel::charge_copy`]); after that only the
//!   handle travels. Frees may arrive out of order — completion order is
//!   the device's business, not the ring's.
//! * [`SectorPool`] — the storage-shaped pool: variable-length sector
//!   runs instead of fixed frames, a buddy allocator with
//!   scatter-gather chaining ([`SectorPool::alloc_sg`]) so a fragmented
//!   pool never refuses a transfer it has the bytes for (the first-fit
//!   scan survives behind [`AllocMode`] for the ablation), plus
//!   zero-copy payload adoption ([`SectorPool::adopt_payload_sg`]) for
//!   page-granular buffers the device can DMA where they sit.
//! * [`UrbDescriptor`] — the request/response descriptor for URB-shaped
//!   transfers: direction, endpoint and length on the submit ring;
//!   status and actual transferred length on the giveback ring, with
//!   IN-direction completions handing the payload run's *ownership*
//!   back, never copied bytes.
//! * [`DoorbellPolicy`] — decides *when* the descriptors parked in a
//!   ring are worth a crossing: at a watermark occupancy, or when the
//!   oldest post has waited longer than a coalescing deadline
//!   ([`decaf_simkernel::costs::DOORBELL_COALESCE_NS`]), so low-rate
//!   paths are not held hostage by batching.
//! * [`ShardedRings`] — RSS-style multi-queue, generic over the
//!   descriptor: N per-shard descriptor rings and completion rings
//!   behind one object, with deterministic steering, a
//!   completion-steering policy that routes the handback to the shard
//!   that posted the descriptor, and per-shard conservation counters.
//!   One shard is the unsharded data path. [`RingSet`] is the NIC
//!   instantiation (flow steering); [`UrbRingSet`] the storage one
//!   (submit/giveback ring *pairs* over one shared [`SectorPool`],
//!   steered per LUN because a storage transaction's FIFO order is
//!   load-bearing).
//!
//! The XPC layer builds its one data path on these pieces (`RingPath`,
//! generic over [`RingDescriptor`]: `DataPathChannel` for NIC streams,
//! `UrbDataPath` for storage request/response), and its one sharded data
//! path (`ShardedRingPath`, one `RingPath` per shard of a set, drawing on
//! the set's pool): the descriptors ride the rings, the doorbell rides
//! the existing transport crossing, and the payload bytes never see the
//! XDR marshaler.
//!
//! # Example: one frame, zero marshaled payload bytes
//!
//! ```
//! use decaf_shmring::{BufPool, Descriptor, ShmRing};
//! use decaf_simkernel::{CpuClass, Kernel};
//!
//! let kernel = Kernel::new();
//! let ring = ShmRing::new("tx", 8);
//! let pool = BufPool::with_capacity(2048, 8);
//!
//! // Producer: one audited copy into the shared pool, then a 16-byte
//! // descriptor into the ring.
//! let buf = pool.alloc().unwrap();
//! pool.write_payload(&kernel, CpuClass::Kernel, buf, b"frame").unwrap();
//! ring.push(&kernel, CpuClass::Kernel, Descriptor { buf, len: 5, cookie: 1 }).unwrap();
//!
//! // Consumer: reads the payload in place and hands the buffer back.
//! let d = ring.pop(&kernel, CpuClass::User).unwrap();
//! assert_eq!(pool.read_payload(d.buf, d.len as usize).unwrap(), b"frame");
//! pool.free(d.buf).unwrap();
//! assert_eq!(kernel.stats().bytes_copied, 5, "exactly one copy, ever");
//! ```
//!
//! # Example: multi-queue steering with a [`RingSet`]
//!
//! ```
//! use decaf_shmring::{BufHandle, Descriptor, RingSet};
//! use decaf_simkernel::{CpuClass, Kernel};
//!
//! let kernel = Kernel::new();
//! let set = RingSet::new("tx", 4, 16, 32);
//!
//! // Posts steer by flow hash; completions steer home to the posting
//! // shard, wherever the IRQ side happens to drain them.
//! let flow = 0xbeef;
//! let shard = set.steer(flow);
//! let desc = Descriptor { buf: BufHandle(0), len: 64, cookie: 9 };
//! set.post(&kernel, CpuClass::Kernel, shard, desc).unwrap();
//!
//! let mut drained = Vec::new(); // the consumer's batch, reused per drain
//! set.ring(shard).drain(&kernel, CpuClass::User, &mut drained);
//! let home = set.complete(&kernel, CpuClass::User, drained[0]).unwrap();
//! assert_eq!(home, shard, "completions come home");
//! assert!(set.conserved(), "no descriptor lost or double-completed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doorbell;
pub mod pool;
pub mod ring;
pub mod ringset;
pub mod sector;
pub mod urb;

pub use doorbell::DoorbellPolicy;
pub use pool::{BufHandle, BufPool, PoolError, PoolStats};
pub use ring::{Descriptor, RingError, RingStats, ShmRing, SlotOwner};
pub use ringset::{
    flow_hash, RingDescriptor, RingSet, RingSetError, RingSetStats, ShardedRings, UrbRingSet,
};
pub use sector::{AllocMode, SectorHandle, SectorPool, SectorPoolStats, SgHandle, SgSegment};
pub use urb::{UrbDescriptor, XferDir};

// `UrbRingSet`'s unit tests, mounted under its old module name so
// their ids (`urbset::tests::*`) stay stable.
#[cfg(test)]
#[path = "ringset_urb_tests.rs"]
mod urbset;
