//! Extension Procedure Call (XPC) for Decaf Drivers.
//!
//! XPC, originally built for the Nooks driver-isolation subsystem and
//! extended by Microdrivers and Decaf, provides procedure calls between
//! protection domains with five services (paper §2.3):
//!
//! 1. **Control transfer** — procedure-call semantics across the
//!    kernel/user boundary (block and wait), in one of three
//!    [`transport::TransportKind`]s: thread reuse, deferred-call batching
//!    that flushes many calls in one crossing, or completion-based async
//!    launches whose crossing cost travels with the batch's
//!    [`transport::CompletionToken`]s and is settled — net of whatever
//!    computation overlapped the crossing — at harvest time. One
//!    [`transport::DeferredQueue`] per channel holds what was deferred.
//! 2. **Object transfer** — field-selective XDR marshaling of structures
//!    ([`decaf_xdr`]).
//! 3. **Object sharing** — an [`tracker::ObjectTracker`] records each
//!    shared object so the same object is updated, never duplicated, when
//!    it crosses a boundary again; a type tag disambiguates embedded
//!    structures that share a C address (§3.1.2).
//! 4. **Synchronization** — the [`runtime::NuclearRuntime`] masks the
//!    device's interrupt while user-level code runs, and the kernel
//!    records a violation whenever a call that may block — every upcall —
//!    runs in atomic context. The paper's other §3.1.3 change, a sound
//!    core that holds a mutex rather than a spinlock across driver
//!    callbacks, lives in the simulated kernel's `SoundLockMode`.
//! 5. **Stubs** — [`endpoint::XpcChannel`] performs the six stub steps of
//!    §3.1.1 (tracker translation, marshal, transfer, unmarshal, dispatch,
//!    out-parameter return).
//!
//! On top of these, [`ringpath::RingPath`] adds a *zero-copy data path*:
//! payloads live in a pinned shared-memory pool, descriptors ride
//! single-producer/single-consumer rings, and a watermark/deadline-
//! coalesced doorbell rides the control transport — so hosting a hot
//! path at user level stops costing per-byte marshaling. One generic
//! type serves both descriptor kinds: [`DataPathChannel`] carries NIC
//! frames, [`UrbDataPath`] storage transactions, whose completions carry
//! status, actual length and the payload run's *ownership* back — the
//! mechanism that lets a `tar` stream ride the rings just like netperf
//! does.
//!
//! [`shard::ShardedChannel`] scales both layers out: N parallel channels
//! (per-CPU or per-flow) behind one facade, each with its own deferred
//! queue, delta maps and generation counters — home-channel pinning for
//! shared objects, flow-hash steering for data-path traffic, stats that
//! aggregate across shards, and per-shard fault recovery.
//! [`shardpath::ShardedRingPath`] rides that facade for the data path,
//! again once for both descriptor kinds: one ring path per shard of a
//! [`decaf_shmring::ShardedRings`] set, with note-first posting, scoped
//! poll sweeps, per-shard drain registration and recovery.
//! [`ShardedUrbPath`] is its storage instance, steered per LUN (a storage
//! transaction's FIFO order is load-bearing); a ring-hosted NIC holds a
//! TX and an RX instance steered per flow.
//!
//! Domains are [`domain::Domain::Nucleus`] (kernel),
//! [`domain::Domain::Library`] (user-level C) and
//! [`domain::Domain::Decaf`] (user-level managed language). The decaf
//! driver runs at user level; the [`runtime::NuclearRuntime`] disables the
//! device's interrupt while user-level code runs so the driver never
//! interrupts itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod domain;
pub mod endpoint;
pub mod error;
#[cfg(debug_assertions)]
pub mod mutation;
pub mod ringpath;
pub mod runtime;
pub mod shard;
pub mod shardpath;
pub mod tracker;
pub mod transport;

pub use admission::{
    AdmissionController, AdmissionPolicy, AdmissionStats, AdmissionVerdict, TokenBucket,
    TrafficClass,
};
pub use domain::Domain;
pub use endpoint::{
    ChannelConfig, ChannelStats, ProcDef, ProcHandle, ProcHandler, SharedObject, XpcChannel,
};
pub use error::{XpcError, XpcResult};
pub use ringpath::{DataPathChannel, RingEnd, RingPath, UrbDataPath, UrbReclaim};
pub use runtime::{DecafRuntime, NuclearRuntime};
pub use shard::{ShardedChannel, MAX_SHARDS, SHARD_HEAP_STRIDE};
pub use shardpath::{ShardedRingPath, ShardedUrbPath};
pub use tracker::ObjectTracker;
pub use transport::{CompletionToken, DeferredCall, DeferredQueue, TransportKind};

// The unit tests of the two descriptor kinds of `RingPath` and of the
// sharded facade, mounted under the names of the modules they once had
// so their ids (`datapath::tests::*`, `urbpath::tests::*`,
// `shardurb::tests::*`) stay stable.
#[cfg(test)]
#[path = "ringpath_nic_tests.rs"]
mod datapath;
#[cfg(test)]
#[path = "shardpath_urb_tests.rs"]
mod shardurb;
#[cfg(test)]
#[path = "ringpath_urb_tests.rs"]
mod urbpath;
