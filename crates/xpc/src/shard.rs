//! Multi-channel sharded XPC: N parallel channels behind one facade.
//!
//! A single [`XpcChannel`] serializes every kernel/user crossing through
//! one deferred queue and one pair of delta maps. Heavy traffic wants N
//! parallel channels — per-CPU or per-flow — each with its *own*
//! deferred queue, delta maps and generation counters, so independent
//! work never contends. [`ShardedChannel`] is that facade, with the two
//! policies sharding requires:
//!
//! * **Home-channel pinning** — every shared object is allocated through
//!   the facade and assigned a *home shard*; calls carrying the object
//!   always steer to that shard. The invariant this buys: an object's
//!   delta state (generation counters, last-sent maps, tracker
//!   associations) lives on exactly one channel, so no object is ever
//!   dirtied — or delta-encoded — on two shards in one generation.
//!   Mixing objects homed on different shards in one call is a
//!   steering conflict ([`crate::XpcError::ShardConflict`]), never a
//!   silent split.
//! * **Flow-hash steering** — scalar-only calls (doorbells, posted
//!   register writes, data-path descriptors) have no home; they steer by
//!   a deterministic hash of the procedure name, so one procedure's
//!   calls stay ordered on one shard while distinct procedures spread.
//!
//! Each shard channel's heaps are based at the domain base plus
//! `shard × `[`SHARD_HEAP_STRIDE`], so every address in the system names
//! exactly one (shard, domain, object) and the facade can recover an
//! object's home from its address alone.
//!
//! Stats compose by [`ChannelStats::merge`]: counters sum across shards,
//! high-water marks take the max.
//!
//! Fault recovery composes per shard: [`ShardedChannel::recover_shard`]
//! takes a dead shard's parked deferred calls out of its queue,
//! resets the failed end (clearing both delta maps, so nothing is ever
//! delta-encoded against vanished state), and requeues the surviving
//! calls on the fresh channel — each call applies exactly once, and the
//! first post-recovery transfer of every object is a full marshal.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use decaf_shmring::flow_hash;
use decaf_simkernel::Kernel;
use decaf_xdr::graph::CAddr;
use decaf_xdr::intmap::IntMap;
use decaf_xdr::mask::MaskSet;
use decaf_xdr::plan::MarshalPlan;
use decaf_xdr::{XdrSpec, XdrValue};

use crate::domain::Domain;
use crate::endpoint::{ChannelConfig, ChannelStats, ProcDef, XpcChannel};
use crate::error::{XpcError, XpcResult};
use crate::transport::CompletionToken;

/// Oracle-sensitivity seam for the fault-exploration harness
/// (`tests/shard_sched.rs`): one-shot, thread-local switches that plant
/// a *deliberate* recovery bug so the harness can prove its differential
/// oracle actually rejects one. An oracle that cannot catch a planted
/// mutation proves nothing about the real code it blesses.
///
/// Debug-build only (`debug_assertions`): `#[cfg(test)]` would not
/// reach an integration-test dependency build of this crate, and the
/// release build — the one ablations measure — must not carry the seam
/// at all. Each switch disarms itself at its first consumption, so a
/// single armed replay sees exactly one planted bug.
#[cfg(debug_assertions)]
pub mod mutation {
    use std::cell::Cell;

    thread_local! {
        static DROP_ONE_REQUEUE: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms the planted bug: the next [`super::ShardedChannel::recover_shard`]
    /// on this thread silently drops the first surviving parked call
    /// instead of requeuing it — the call is lost and its completion
    /// token leaks, which the exactly-once/ledger oracle must reject.
    pub fn arm_drop_one_requeue() {
        DROP_ONE_REQUEUE.with(|c| c.set(true));
    }

    /// Disarms without consuming (cleanup after a caught failure).
    pub fn disarm() {
        DROP_ONE_REQUEUE.with(|c| c.set(false));
    }

    pub(crate) fn take_drop_one_requeue() -> bool {
        DROP_ONE_REQUEUE.with(|c| c.replace(false))
    }
}

/// Heap-address stride between shards: each shard's heaps occupy
/// `[domain_base + shard·STRIDE, domain_base + (shard+1)·STRIDE)`.
/// At 0x100 bytes per object that is 4096 objects per (shard, domain)
/// heap — far beyond any driver's working set.
pub const SHARD_HEAP_STRIDE: u64 = 0x0010_0000;

/// Most shards a facade will build: keeps every shard's address range
/// inside its domain's region (domain bases are 0x3000_0000 apart).
pub const MAX_SHARDS: usize = 64;

/// N parallel [`XpcChannel`]s behind one facade.
///
/// # Example
///
/// ```
/// use std::rc::Rc;
/// use decaf_simkernel::Kernel;
/// use decaf_xdr::{mask::MaskSet, XdrSpec, XdrValue};
/// use decaf_xpc::{ChannelConfig, Domain, ProcDef, ShardedChannel};
///
/// let kernel = Kernel::new();
/// let ch = ShardedChannel::new(
///     XdrSpec::parse("struct dev { int busy; };").unwrap(),
///     MaskSet::full(),
///     ChannelConfig::kernel_user_batched(),
///     Domain::Nucleus,
///     Domain::Decaf,
///     4,
/// );
/// ch.register_proc(
///     Domain::Decaf,
///     ProcDef {
///         name: "touch".into(),
///         arg_types: vec!["dev".into()],
///         handler: Rc::new(|_, _, _, _| XdrValue::Int(0)),
///     },
/// )
/// .unwrap();
///
/// // Objects allocate through the facade and get a home shard; calls
/// // carrying the object always steer there.
/// let dev = ch.alloc_shared(Domain::Nucleus, "dev").unwrap();
/// let home = ch.home_of(dev).unwrap();
/// ch.call(&kernel, Domain::Nucleus, "touch", &[Some(dev)], &[]).unwrap();
/// assert_eq!(ch.shard_stats(home).round_trips, 1);
/// assert_eq!(ch.stats().round_trips, 1, "merged view sums the shards");
/// ```
pub struct ShardedChannel {
    shards: Vec<Rc<XpcChannel>>,
    /// Home shard of every facade-allocated object, keyed by the address
    /// at the allocating end (addresses are globally unique across
    /// shards thanks to the heap stride).
    homes: RefCell<IntMap<CAddr, usize>>,
    /// Round-robin cursor for home assignment.
    next_home: Cell<usize>,
}

impl ShardedChannel {
    /// Builds `shards` parallel channels between `a` and `b`, each with
    /// its own deferred queue, delta maps and heaps (disjoint address
    /// ranges). The interface spec and the marshaling compiled from the
    /// masks are the one thing the shards share: every shard holds the
    /// same pointers.
    ///
    /// # Panics
    /// Panics if `shards` is zero or exceeds [`MAX_SHARDS`].
    pub fn new(
        spec: impl Into<Arc<XdrSpec>>,
        masks: impl Into<Arc<MaskSet>>,
        config: ChannelConfig,
        a: Domain,
        b: Domain,
        shards: usize,
    ) -> Rc<Self> {
        let spec = spec.into();
        let plan = Arc::new(MarshalPlan::compile(&spec, &masks.into()));
        ShardedChannel::with_plan(spec, plan, config, a, b, shards)
    }

    /// Like [`ShardedChannel::new`], over marshaling already compiled —
    /// `plan` from `spec` and the interface's masks, as a driver image
    /// holds it: every shard shares both and compiles nothing.
    ///
    /// # Panics
    /// Panics if `shards` is zero or exceeds [`MAX_SHARDS`].
    pub fn with_plan(
        spec: Arc<XdrSpec>,
        plan: Arc<MarshalPlan>,
        config: ChannelConfig,
        a: Domain,
        b: Domain,
        shards: usize,
    ) -> Rc<Self> {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        Rc::new(ShardedChannel {
            shards: (0..shards)
                .map(|i| {
                    Rc::new(XpcChannel::with_plan(
                        Arc::clone(&spec),
                        Arc::clone(&plan),
                        config,
                        a,
                        b,
                        i as u64 * SHARD_HEAP_STRIDE,
                    ))
                })
                .collect(),
            homes: RefCell::default(),
            next_home: Cell::new(0),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s underlying channel (data paths attach their doorbells
    /// here; shard 0 doubles as the control channel).
    pub fn shard(&self, i: usize) -> &Rc<XpcChannel> {
        &self.shards[i]
    }

    /// Registers `def` at `domain`'s end of *every* shard, so a call is
    /// dispatchable wherever steering sends it.
    pub fn register_proc(&self, domain: Domain, def: ProcDef) -> XpcResult<()> {
        for ch in &self.shards {
            ch.register_proc(domain, def.clone())?;
        }
        Ok(())
    }

    /// Allocates a shared object on the next home shard (round-robin)
    /// and records the pinning. Returns the object's address.
    pub fn alloc_shared(&self, domain: Domain, type_name: &str) -> XpcResult<CAddr> {
        let home = self.next_home.get();
        self.next_home.set((home + 1) % self.shards.len());
        self.alloc_shared_at(home, domain, type_name)
    }

    /// Allocates a shared object homed on a specific shard.
    pub fn alloc_shared_at(
        &self,
        shard: usize,
        domain: Domain,
        type_name: &str,
    ) -> XpcResult<CAddr> {
        let addr = self.shards[shard].alloc_shared(domain, type_name)?;
        self.homes.borrow_mut().insert(addr, shard);
        Ok(addr)
    }

    /// The home shard of a facade-allocated object.
    pub fn home_of(&self, addr: CAddr) -> Option<usize> {
        self.homes.borrow().get(&addr).copied()
    }

    /// The heap of `domain`'s end on shard `i`.
    pub fn heap(&self, shard: usize, domain: Domain) -> Rc<RefCell<decaf_xdr::graph::ObjHeap>> {
        self.shards[shard].heap(domain)
    }

    /// Steers one call: object arguments pin it to their (single) home
    /// shard; scalar-only calls follow a flow hash of the procedure
    /// name. Every successful steering decision emits a `shard.steer`
    /// trace instant recording the chosen shard (by-home or by-flow).
    fn steer(&self, kernel: &Kernel, proc: &str, args: &[Option<CAddr>]) -> XpcResult<usize> {
        let homes = self.homes.borrow();
        let mut object_home = None;
        for addr in args.iter().flatten() {
            match homes.get(addr) {
                Some(&h) => match object_home {
                    None => object_home = Some(h),
                    Some(prev) if prev == h => {}
                    Some(prev) => {
                        return Err(XpcError::ShardConflict(format!(
                            "`{proc}`: arguments homed on shards {prev} and {h}"
                        )))
                    }
                },
                None => {
                    return Err(XpcError::ShardConflict(format!(
                        "`{proc}`: argument {addr:#x} has no home shard \
                         (allocate shared objects through the facade)"
                    )))
                }
            }
        }
        let (shard, by_home) = match object_home {
            Some(home) => (home, 1),
            None => {
                let key = proc.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
                });
                ((flow_hash(key) % self.shards.len() as u64) as usize, 0)
            }
        };
        kernel.trace_instant(
            "shard",
            "steer",
            &[("shard", shard as u64), ("by_home", by_home)],
        );
        Ok(shard)
    }

    /// A synchronous call through the facade; steered to the argument's
    /// home shard (object-carrying calls) or by the procedure name's flow
    /// hash (scalar-only calls). Returns the handler's scalar result.
    pub fn call(
        &self,
        kernel: &Kernel,
        from: Domain,
        proc: &str,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<XdrValue> {
        let shard = self.steer(kernel, proc, args)?;
        kernel.shard_scope(shard, || {
            self.shards[shard].call(kernel, from, proc, args, scalars)
        })
    }

    /// A deferred (result-free) call through the facade. A token it
    /// returns belongs to the steered shard's channel — harvest it per
    /// shard, or sweep every shard with [`ShardedChannel::harvest_all`].
    pub fn call_deferred(
        &self,
        kernel: &Kernel,
        from: Domain,
        proc: &str,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<Option<CompletionToken>> {
        let shard = self.steer(kernel, proc, args)?;
        kernel.shard_scope(shard, || {
            self.shards[shard].call_deferred(kernel, from, proc, args, scalars)
        })
    }

    /// Harvests every shard's launched batches (settling each launched
    /// crossing against the time that elapsed since its launch); returns
    /// how many tokens resolved across the facade.
    pub fn harvest_all(&self, kernel: &Kernel) -> usize {
        let mut resolved = 0;
        for (i, ch) in self.shards.iter().enumerate() {
            resolved += kernel.shard_scope(i, || ch.harvest_with(kernel, |_| {}));
        }
        resolved
    }

    /// Completion tokens outstanding across all shards.
    pub fn tokens_outstanding(&self) -> usize {
        self.shards.iter().map(|ch| ch.tokens_outstanding()).sum()
    }

    /// Flushes every shard's deferred queue. Per-shard isolation: a
    /// broken shard (e.g. a diverging flush) never blocks its siblings —
    /// every shard is flushed, and the first error is reported after the
    /// sweep completes.
    pub fn flush_all(&self, kernel: &Kernel) -> XpcResult<()> {
        let mut first_err = None;
        for (i, ch) in self.shards.iter().enumerate() {
            if let Err(e) = kernel.shard_scope(i, || ch.flush(kernel)) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Polls every shard's adaptive-batching deadline; returns how many
    /// shards flushed. The facade polls *all* shards — a due shard must
    /// not wait for traffic on its siblings, and a shard whose flush
    /// errors does not starve the ones after it (the first error is
    /// reported once the sweep completes).
    pub fn flush_if_due(&self, kernel: &Kernel) -> XpcResult<usize> {
        let mut flushed = 0;
        let mut first_err = None;
        for (i, ch) in self.shards.iter().enumerate() {
            match kernel.shard_scope(i, || ch.flush_if_due(kernel)) {
                Ok(true) => flushed += 1,
                Ok(false) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(flushed),
        }
    }

    /// Opts every shard into timer-driven deadline flushes (see
    /// [`XpcChannel::arm_deadline_wakeups`]): each shard gets its own
    /// kernel timer, and its timer-driven flushes charge that shard's
    /// ledger via the shard-scoped variant. Open-loop load wants this —
    /// between arrival events nobody polls `flush_if_due`, so a parked
    /// call's deadline needs a timer to fire on time.
    pub fn arm_deadline_wakeups(&self, kernel: &Kernel) {
        for (i, ch) in self.shards.iter().enumerate() {
            ch.arm_deadline_wakeups_on(kernel, Some(i));
        }
    }

    /// Deferred calls parked across all shards.
    pub fn pending_deferred(&self) -> usize {
        self.shards.iter().map(|ch| ch.pending_deferred()).sum()
    }

    /// Aggregated counters: sums across shards, max for high-water marks
    /// (see [`ChannelStats::merge`]).
    pub fn stats(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for ch in &self.shards {
            total.merge(&ch.stats());
        }
        total
    }

    /// One shard's counters.
    pub fn shard_stats(&self, shard: usize) -> ChannelStats {
        self.shards[shard].stats()
    }

    /// Recovers shard `shard` after its `failed` end died mid-burst:
    ///
    /// 1. harvests the shard's already-launched batches first — a
    ///    launched call's effects landed before the fault, so its token
    ///    resolves as harvested, never lost to the reset;
    /// 2. takes every still-parked deferred call out of the queue;
    /// 3. resets the failed end (heap, tracker, both delta maps — so no
    ///    later transfer delta-encodes against vanished state), which
    ///    cancels the tokens of calls originating there;
    /// 4. requeues the calls that did *not* originate at the failed end
    ///    (those died with their domain) onto the fresh channel, each
    ///    keeping its original completion token — requeuing never
    ///    re-issues, so `tokens_issued == tokens_harvested +
    ///    tokens_cancelled` holds across recovery.
    ///
    /// Each surviving call applies exactly once: calls already flushed
    /// before the fault are not requeued, and the taken queue is the
    /// not-yet-applied remainder. Returns the number of requeued calls.
    pub fn recover_shard(&self, kernel: &Kernel, shard: usize, failed: Domain) -> XpcResult<usize> {
        let _span = kernel.trace_span("shard", "recover");
        let ch = &self.shards[shard];
        kernel.shard_scope(shard, || ch.harvest_with(kernel, |_| {}));
        let parked = ch.take_deferred();
        ch.reset_end(failed)?;
        let mut requeued = 0;
        let mut cancelled = Vec::new();
        for call in parked {
            if call.from == failed {
                // Died with its domain: the call never applies, its
                // token resolves as cancelled.
                cancelled.extend(call.token);
                continue;
            }
            #[cfg(debug_assertions)]
            {
                if mutation::take_drop_one_requeue() {
                    // Planted bug (oracle-sensitivity harness): lose the
                    // surviving call, leak its token.
                    continue;
                }
            }
            kernel.shard_scope(shard, || ch.requeue_deferred(kernel, call))?;
            requeued += 1;
        }
        if !cancelled.is_empty() {
            kernel.trace_instant(
                "xpc.batch",
                "cancel",
                &[("shard", shard as u64), ("tokens", cancelled.len() as u64)],
            );
        }
        ch.cancel_tokens(&cancelled);
        Ok(requeued)
    }
}

impl std::fmt::Debug for ShardedChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedChannel")
            .field("shards", &self.shards.len())
            .field("homes", &self.homes.borrow().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_simkernel::Kernel;

    fn spec() -> XdrSpec {
        XdrSpec::parse("struct st { int id; int value; };").unwrap()
    }

    /// The coalescing window the deadline-sensitive tests below wait out.
    const WINDOW: u64 = crate::transport::BATCH_DEADLINE_NS;

    fn sharded_with(n: usize, config: ChannelConfig) -> Rc<ShardedChannel> {
        let sc = ShardedChannel::new(
            spec(),
            MaskSet::full(),
            config,
            Domain::Nucleus,
            Domain::Decaf,
            n,
        );
        sc.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "touch".into(),
                arg_types: vec!["st".into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Int(0)),
            },
        )
        .unwrap();
        sc.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "ping".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, _| XdrValue::Int(1)),
            },
        )
        .unwrap();
        sc
    }

    fn sharded(n: usize) -> Rc<ShardedChannel> {
        sharded_with(n, ChannelConfig::kernel_user_batched())
    }

    fn register_count(sc: &ShardedChannel) -> Rc<Cell<u32>> {
        let hits = Rc::new(Cell::new(0u32));
        let h = Rc::clone(&hits);
        let count = ProcDef::scalar("count", move |_, _| {
            h.set(h.get() + 1);
            XdrValue::Void
        });
        sc.register_proc(Domain::Decaf, count).unwrap();
        hits
    }

    /// Parks four `count` calls, two on each of two shards.
    fn park_burst(sc: &ShardedChannel, k: &Kernel) {
        for i in 0..4 {
            let ch = sc.shard(i % 2);
            k.shard_scope(i % 2, || {
                ch.call_deferred(k, Domain::Nucleus, "count", &[], &[])
            })
            .unwrap();
        }
    }

    #[test]
    fn shard_heaps_are_disjoint() {
        let sc = sharded(4);
        let k = Kernel::new();
        let mut addrs = Vec::new();
        for _ in 0..8 {
            addrs.push(sc.alloc_shared(Domain::Nucleus, "st").unwrap());
        }
        let unique: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(unique.len(), addrs.len(), "addresses unique across shards");
        // Round-robin homes: 8 objects over 4 shards, two each.
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(sc.home_of(*a), Some(i % 4));
        }
        // Calls steer to the home shard and only that shard's decaf heap
        // gains a copy.
        sc.call(&k, Domain::Nucleus, "touch", &[Some(addrs[1])], &[])
            .unwrap();
        for shard in 0..4 {
            let len = sc.heap(shard, Domain::Decaf).borrow().len();
            assert_eq!(len, usize::from(shard == 1), "shard {shard}");
        }
    }

    #[test]
    fn mixed_homes_are_a_steering_conflict() {
        let sc = sharded(2);
        let k = Kernel::new();
        let a = sc.alloc_shared_at(0, Domain::Nucleus, "st").unwrap();
        let b = sc.alloc_shared_at(1, Domain::Nucleus, "st").unwrap();
        let err = sc
            .call(&k, Domain::Nucleus, "touch", &[Some(a), Some(b)], &[])
            .unwrap_err();
        assert!(matches!(err, XpcError::ShardConflict(_)), "{err}");
        // An unhomed address is refused too, not silently mis-steered.
        let err = sc
            .call(&k, Domain::Nucleus, "touch", &[Some(0xdead_beef)], &[])
            .unwrap_err();
        assert!(matches!(err, XpcError::ShardConflict(_)));
    }

    #[test]
    fn flow_steering_spreads_scalar_calls() {
        // A scalar-only call has no home: it steers by its procedure
        // name, so one name stays on one shard and names spread.
        let sc = sharded(4);
        let k = Kernel::new();
        let names: Vec<String> = (0..32).map(|i| format!("ping{i}")).collect();
        for name in &names {
            let ping = ProcDef::scalar(name.as_str(), |_, _| XdrValue::Int(1));
            sc.register_proc(Domain::Decaf, ping).unwrap();
        }
        for name in &names {
            let before: Vec<u64> = (0..4).map(|i| sc.shard_stats(i).round_trips).collect();
            for _ in 0..2 {
                sc.call(&k, Domain::Nucleus, name, &[], &[]).unwrap();
            }
            let moved = (0..4).filter(|&i| sc.shard_stats(i).round_trips != before[i]);
            assert_eq!(moved.count(), 1, "`{name}` stayed on one shard");
        }
        let per_shard: Vec<u64> = (0..4).map(|i| sc.shard_stats(i).round_trips).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 64);
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "every shard saw traffic: {per_shard:?}"
        );
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let sc = sharded(2);
        let k = Kernel::new();
        let a = sc.alloc_shared_at(0, Domain::Nucleus, "st").unwrap();
        let b = sc.alloc_shared_at(1, Domain::Nucleus, "st").unwrap();
        for obj in [a, b] {
            sc.call(&k, Domain::Nucleus, "touch", &[Some(obj)], &[])
                .unwrap();
        }
        let total = sc.stats();
        assert_eq!(total.round_trips, 2);
        assert_eq!(
            total.round_trips,
            sc.shard_stats(0).round_trips + sc.shard_stats(1).round_trips
        );
        assert!(total.bytes_in > 0);
    }

    #[test]
    fn per_shard_costs_attributed_through_scope() {
        let sc = sharded(2);
        let k = Kernel::new();
        let a = sc.alloc_shared_at(1, Domain::Nucleus, "st").unwrap();
        sc.call(&k, Domain::Nucleus, "touch", &[Some(a)], &[])
            .unwrap();
        let busy = k.shard_busy_ns();
        assert!(busy.len() >= 2 && busy[1] > 0, "{busy:?}");
        assert_eq!(busy.first().copied().unwrap_or(0), 0, "shard 0 idle");
    }

    #[test]
    fn deferred_calls_flush_per_shard() {
        let sc = sharded(2);
        let k = Kernel::new();
        let a = sc.alloc_shared_at(0, Domain::Nucleus, "st").unwrap();
        let b = sc.alloc_shared_at(1, Domain::Nucleus, "st").unwrap();
        for obj in [a, b] {
            for _ in 0..3 {
                sc.call_deferred(&k, Domain::Nucleus, "touch", &[Some(obj)], &[])
                    .unwrap();
            }
        }
        assert_eq!(sc.pending_deferred(), 6);
        sc.flush_all(&k).unwrap();
        assert_eq!(sc.pending_deferred(), 0);
        let total = sc.stats();
        assert_eq!(total.batched_calls, 6);
        assert_eq!(total.flushes, 2, "one flush per shard");
    }

    #[test]
    fn flush_if_due_polls_every_shard() {
        let sc = sharded(3);
        let k = Kernel::new();
        let a = sc.alloc_shared_at(1, Domain::Nucleus, "st").unwrap();
        let b = sc.alloc_shared_at(2, Domain::Nucleus, "st").unwrap();
        sc.call_deferred(&k, Domain::Nucleus, "touch", &[Some(a)], &[])
            .unwrap();
        sc.call_deferred(&k, Domain::Nucleus, "touch", &[Some(b)], &[])
            .unwrap();
        assert_eq!(sc.flush_if_due(&k).unwrap(), 0, "within the window");
        k.run_for(WINDOW + 1);
        assert_eq!(sc.flush_if_due(&k).unwrap(), 2, "both due shards flush");
        assert_eq!(sc.pending_deferred(), 0);
    }

    #[test]
    fn broken_shard_does_not_starve_sibling_flushes() {
        let sc = sharded(2);
        let k = Kernel::new();
        // Shard 0 hosts a diverging handler: every flush round re-defers
        // it, so XpcChannel::flush gives up with FlushDiverged.
        sc.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "loop_forever".into(),
                arg_types: vec![],
                handler: Rc::new(|k, ch, _, _| {
                    let _ = ch.call_deferred(k, Domain::Nucleus, "loop_forever", &[], &[]);
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
        let hits = register_count(&sc);
        sc.shard(0)
            .call_deferred(&k, Domain::Nucleus, "loop_forever", &[], &[])
            .unwrap();
        sc.shard(1)
            .call_deferred(&k, Domain::Nucleus, "count", &[], &[])
            .unwrap();
        k.run_for(WINDOW + 1);
        // Shard 0 errors, but shard 1's due flush still happens.
        let err = sc.flush_if_due(&k).unwrap_err();
        assert!(matches!(err, XpcError::FlushDiverged(_)), "{err}");
        assert_eq!(hits.get(), 1, "sibling shard starved by the broken one");
        let err = sc.flush_all(&k).unwrap_err();
        assert!(matches!(err, XpcError::FlushDiverged(_)));
        assert_eq!(sc.shard(1).pending_deferred(), 0);
    }

    #[test]
    fn recover_shard_requeues_without_double_apply() {
        let sc = sharded(2);
        let k = Kernel::new();
        let hits = register_count(&sc);
        park_burst(&sc, &k);
        let parked_on_1 = sc.shard(1).pending_deferred();
        assert_eq!(parked_on_1, 2, "burst reached shard 1");
        // Shard 1's decaf end dies mid-burst; the facade requeues.
        let requeued = sc.recover_shard(&k, 1, Domain::Decaf).unwrap();
        assert_eq!(requeued, parked_on_1);
        sc.flush_all(&k).unwrap();
        assert_eq!(hits.get(), 4, "every deferred call applied exactly once");
        assert_eq!(sc.stats().faults, 0);
    }

    #[test]
    fn recover_shard_conserves_tokens_on_async_transport() {
        let sc = sharded_with(2, ChannelConfig::kernel_user_async());
        let k = Kernel::new();
        let hits = register_count(&sc);
        // A decaf-originated downcall registered at the nucleus end, so
        // fault recovery has something to cancel.
        sc.register_proc(
            Domain::Nucleus,
            ProcDef {
                name: "writel".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
        park_burst(&sc, &k);
        sc.shard(1)
            .call_deferred(&k, Domain::Decaf, "writel", &[], &[])
            .unwrap();
        let parked_on_1 = sc.shard(1).pending_deferred();
        assert_eq!(parked_on_1, 3, "burst reached shard 1");
        // Shard 1's decaf end dies: its own call cancels, nucleus calls
        // requeue with their original tokens.
        let requeued = sc.recover_shard(&k, 1, Domain::Decaf).unwrap();
        assert!(requeued < parked_on_1, "the decaf call was not requeued");
        sc.flush_all(&k).unwrap();
        assert_eq!(sc.harvest_all(&k), 4, "all four surviving tokens resolve");
        assert_eq!(hits.get(), 4, "every surviving call applied exactly once");
        let s = sc.stats();
        assert_eq!(s.tokens_issued, s.tokens_harvested + s.tokens_cancelled);
        assert_eq!(s.tokens_cancelled, 1);
        assert_eq!(sc.tokens_outstanding(), 0);
        assert_eq!(sc.stats().faults, 0);
    }
}
