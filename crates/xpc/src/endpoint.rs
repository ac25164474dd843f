//! XPC channels: the stub layer over one control-transfer seam.
//!
//! An [`XpcChannel`] connects two domains. It is split into two layers:
//!
//! * the **stub layer** (this module) performs the six steps the paper's
//!   Jeannie stubs perform (§3.1.1, Figure 2) — tracker translation,
//!   marshal, transfer, unmarshal, dispatch, out-parameter return;
//! * the **[`TransportKind`]** (see [`crate::transport`]) says how
//!   control reaches the other side — thread reuse (`InProc`), deferred
//!   batching (`Batched`) or launched, later-harvested batches (`Async`)
//!   — and the channel's one [`DeferredQueue`] holds what was deferred.
//!
//! A call performs:
//!
//! 1. the caller invokes the stub (`XpcChannel::call`, or
//!    `XpcChannel::call_deferred` for result-free calls);
//! 2. the stub consults the object tracker to translate parameters to the
//!    addresses the peer knows them by;
//! 3. it marshals the parameters with the generated XDR routines
//!    (field-selective, cycle-aware, and — when `ChannelConfig::delta` is
//!    on — dirty-field deltas for objects the peer has already seen);
//! 4. control transfers to the target domain (cost priced by the
//!    [`TransportKind`] and whether a protection boundary is crossed);
//! 5. the target unmarshals, consulting *its* object tracker so existing
//!    objects update in place, then the handler runs;
//! 6. out-parameters marshal back and the caller's objects are updated.
//!
//! On a queueing kind, deferred calls park in the channel's queue; the
//! whole batch later crosses in a *single* round trip — its arguments
//! share one seen-table (cross-call structure sharing) and the flush is
//! charged one crossing, not one per call.
//!
//! On the launching kind ([`TransportKind::Async`]), a flush goes one
//! step further: it **launches** the crossing instead of blocking on it.
//! [`XpcChannel::call_deferred`] returns the call's
//! [`crate::transport::CompletionToken`]; the batch is launched with its
//! crossing latency, which [`XpcChannel::harvest`] settles — computation
//! that ran while the crossing was in flight counts as overlap
//! ([`ChannelStats::overlap_ns`]), and only the *uncovered* remainder is charged as wait. Data effects
//! (unmarshal, dispatch, out-parameters) still land at flush time; only
//! the latency accounting is deferred.
//!
//! A panic in a user-level handler is caught and surfaced as
//! [`XpcError::DecafFault`]: the kernel side survives, as it would with a
//! crashed user process.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use decaf_simkernel::counters::Bump;
use decaf_simkernel::kernel::WorkBody;
use decaf_simkernel::{costs, Kernel, TimerId, ViolationKind};
use decaf_xdr::graph::{self, CAddr, DeltaHook, NoDelta, ObjHeap, WalkScratch};
use decaf_xdr::mask::{Direction, MaskSet};
use decaf_xdr::plan::{MarshalPlan, TypeId, TypeIds};
use decaf_xdr::{XdrSpec, XdrValue};

use crate::domain::Domain;
use crate::error::{XpcError, XpcResult};
use crate::tracker::ObjectTracker;
use crate::transport::{
    CompletionToken, DeferredCall, DeferredQueue, Harvest, TransportKind, BATCH_DEADLINE_NS,
};

/// Static configuration of a channel.
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    /// Whether the two ends sit in different protection domains
    /// (kernel/user crossing cost applies).
    pub domain_crossing: bool,
    /// Whether the target end is a different language (C↔Java): adds the
    /// unmarshal-in-C + re-marshal-in-Java conversion cost the paper
    /// identifies as the dominant initialization overhead (§4.2).
    pub cross_language: bool,
    /// Control-transfer mechanism.
    pub transport: TransportKind,
    /// Whether repeat transfers of an object marshal only fields written
    /// since its last crossing (dirty-field delta marshaling).
    pub delta: bool,
    /// Whether the channel's *data path* rides a pinned shared-memory
    /// descriptor ring (`DataPathChannel`): payload bytes stay in the
    /// shared buffer pool and only 16-byte descriptors plus a coalesced
    /// doorbell cross the boundary. Control paths are unaffected.
    pub shmring: bool,
}

impl ChannelConfig {
    /// The kernel↔user configuration used between nucleus and decaf
    /// driver in the paper's implementation: thread reuse, per-call
    /// re-marshaling.
    pub fn kernel_user() -> Self {
        ChannelConfig {
            domain_crossing: true,
            cross_language: true,
            transport: TransportKind::InProc,
            delta: false,
            shmring: false,
        }
    }

    /// The optimized kernel↔user configuration: batched transport plus
    /// dirty-field delta marshaling. Used by the decaf driver builds for
    /// their configuration/control paths.
    pub fn kernel_user_batched() -> Self {
        ChannelConfig {
            transport: TransportKind::Batched,
            delta: true,
            ..ChannelConfig::kernel_user()
        }
    }

    /// The user-level data-path configuration: everything
    /// [`ChannelConfig::kernel_user_batched`] does, plus a shared-memory
    /// descriptor ring for packet payloads. This is the first
    /// configuration where hosting the hot path at user level undercuts
    /// the kernel copy path: descriptors and doorbells cross, payload
    /// bytes never touch the XDR marshaler.
    pub fn kernel_user_shmring() -> Self {
        ChannelConfig {
            shmring: true,
            ..ChannelConfig::kernel_user_batched()
        }
    }

    /// The completion-based kernel↔user configuration: everything
    /// [`ChannelConfig::kernel_user_batched`] does, but flushes *launch*
    /// the boundary crossing instead of blocking on it — the crossing's
    /// latency is charged at harvest time, net of whatever computation
    /// overlapped it.
    pub fn kernel_user_async() -> Self {
        ChannelConfig {
            transport: TransportKind::Async,
            ..ChannelConfig::kernel_user_batched()
        }
    }

    /// The async data-path configuration: [`ChannelConfig::kernel_user_async`]
    /// plus a shared-memory descriptor ring for payloads — doorbells
    /// launch, descriptors ride rings, payload bytes never touch the
    /// marshaler, and crossing latency hides behind driver computation.
    pub fn kernel_user_async_shmring() -> Self {
        ChannelConfig {
            shmring: true,
            ..ChannelConfig::kernel_user_async()
        }
    }
}

decaf_simkernel::counters! {
    /// Counters for one channel.
    pub struct ChannelStats {
        /// Completed call/return round trips (the paper's "User/Kernel
        /// Crossings" column counts these). A batched flush is one round
        /// trip no matter how many calls it carries.
        round_trips: sum,
        /// One-way transfers (2× round trips unless a call faults).
        one_way_crossings: sum,
        /// Marshaled bytes, caller → target.
        bytes_in: sum,
        /// Marshaled bytes, target → caller.
        bytes_out: sum,
        /// Handler panics caught.
        faults: sum,
        /// Calls parked in the transport queue instead of crossing alone.
        deferred_calls: sum,
        /// Deferred calls executed by flushes.
        batched_calls: sum,
        /// Batched flushes performed (each cost one round trip).
        flushes: sum,
        /// Objects transferred in full (first crossing or wide structs).
        full_objects: sum,
        /// Objects transferred as dirty-field deltas.
        delta_objects: sum,
        /// Masked fields elided by delta marshaling.
        delta_fields_elided: sum,
        /// Descriptors posted into data-path rings attached to this channel.
        ring_posts: sum,
        /// Data-path doorbells rung (each one boundary crossing carrying a
        /// batch of descriptors).
        doorbells: sum,
        /// Highest data-path ring occupancy observed.
        ring_occupancy_hwm: max,
        /// Completion tokens issued to deferred calls: one per call parked on
        /// a launching transport, none on any other kind.
        tokens_issued: sum,
        /// Tokens resolved by harvest, or synchronously when their call ran
        /// outside a launch (a failed batch's fallback, a requeue onto a kind
        /// that does not queue). Conservation: `tokens_issued ==
        /// tokens_harvested + tokens_cancelled` once the channel quiesces.
        tokens_harvested: sum,
        /// Tokens cancelled by fault recovery before their call launched.
        tokens_cancelled: sum,
        /// Crossing latency hidden behind computation: the portion of
        /// launched crossings that had already elapsed by harvest time.
        /// Overlap is the async transport's whole payoff — `wait = cost −
        /// overlap`, so async busy time never exceeds batched busy time.
        overlap_ns: sum,
    }
}

impl ChannelStats {
    /// Average descriptors carried per doorbell crossing — the
    /// amortization factor of the shmring data path.
    pub fn descriptors_per_doorbell(&self) -> f64 {
        if self.doorbells == 0 {
            return 0.0;
        }
        self.ring_posts as f64 / self.doorbells as f64
    }
}

/// A procedure registered at one end of a channel.
#[derive(Clone)]
pub struct ProcDef {
    /// Procedure name (matches the entry-point name from DriverSlicer).
    /// Shared: registering keeps this pointer, not a copy.
    pub name: Arc<str>,
    /// Struct type of each object argument, in order.
    pub arg_types: Vec<Arc<str>>,
    /// The implementation.
    pub handler: ProcHandler,
}

/// Handler signature: object arguments arrive as local heap addresses,
/// scalars as XDR values; the scalar return value travels back.
pub type ProcHandler = Rc<dyn Fn(&Kernel, &XpcChannel, &[Option<CAddr>], &[XdrValue]) -> XdrValue>;

impl ProcDef {
    /// An entry point: `name` takes one object argument per entry of
    /// `arg_types`, each of that struct type, then scalars.
    pub fn entry<T: Into<Arc<str>>>(
        name: impl Into<Arc<str>>,
        arg_types: impl IntoIterator<Item = T>,
        handler: impl Fn(&Kernel, &XpcChannel, &[Option<CAddr>], &[XdrValue]) -> XdrValue + 'static,
    ) -> Self {
        ProcDef {
            name: name.into(),
            arg_types: arg_types.into_iter().map(Into::into).collect(),
            handler: Rc::new(handler),
        }
    }

    /// A procedure over scalars alone — a register access, a kernel
    /// import, a data-path doorbell: no object crosses and the handler
    /// needs neither the channel nor an argument list.
    pub fn scalar(
        name: impl Into<Arc<str>>,
        f: impl Fn(&Kernel, &[XdrValue]) -> XdrValue + 'static,
    ) -> Self {
        ProcDef::entry(name, Vec::<Arc<str>>::new(), move |k, _, _, scalars| {
            f(k, scalars)
        })
    }
}

/// A procedure of one channel end, resolved: the slot its registration
/// returned, or [`XpcChannel::resolve_proc`] found for its name. Whoever
/// calls a procedure again and again holds its handle, so no call searches
/// a name; it is also what a parked [`DeferredCall`] carries. Registering
/// the same name again replaces the slot's contents, so a held handle
/// never goes stale; it means nothing on another channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcHandle(pub(crate) u32);

/// A registered procedure: its handler plus the layout id of each object
/// argument, resolved against the channel's spec at registration so that
/// no call looks a type up by name. A clone is one reference-count bump,
/// and a call runs its own: a handler that re-registers its own name
/// mid-call finishes with the body it started with.
#[derive(Clone)]
struct ProcSlot {
    handler: ProcHandler,
    arg_ids: TypeIds,
}

/// One end's procedures: name → slot at registration and resolution,
/// slot → procedure on every call.
#[derive(Default)]
struct ProcTable {
    /// Sorted by name length, then name — an end holds a dozen or two
    /// procedures, so a binary search that mostly compares lengths beats
    /// hashing the name, and nothing ever rehashes. The only place a
    /// procedure's name is kept.
    slot_of: Vec<(Arc<str>, ProcHandle)>,
    /// Indexed by handle.
    slots: Vec<ProcSlot>,
}

impl ProcTable {
    /// Where `name` is in `slot_of`, or where it would be inserted.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.slot_of.binary_search_by(|(held, _)| {
            (held.len().cmp(&name.len())).then_with(|| (**held).cmp(name))
        })
    }

    /// The name `proc` is registered under — a scan, for the cold paths
    /// that print one.
    fn name_of(&self, proc: ProcHandle) -> &str {
        let held = self.slot_of.iter().find(|(_, slot)| *slot == proc);
        held.map_or("?", |(name, _)| name)
    }
}

/// Sender-side delta state for one channel end: the heap generation at
/// which each local object last crossed, per direction — sorted by
/// address, because an end shares a handful of objects and every one of
/// them is looked up on every crossing.
#[derive(Debug, Default)]
struct DeltaMap {
    sent: Vec<(CAddr, [Option<u64>; 2])>,
}

impl DeltaMap {
    fn clear(&mut self) {
        self.sent.clear();
    }

    fn find(&self, local: CAddr) -> Result<usize, usize> {
        self.sent.binary_search_by_key(&local, |(addr, _)| *addr)
    }

    /// Forgets everything known about one local object.
    fn forget(&mut self, local: CAddr) {
        if let Ok(at) = self.find(local) {
            self.sent.remove(at);
        }
    }
}

impl DeltaHook for DeltaMap {
    fn last_sent(&mut self, local: CAddr, dir: Direction) -> Option<u64> {
        self.find(local)
            .ok()
            .and_then(|at| self.sent[at].1[dir as usize])
    }
    fn mark_sent(&mut self, local: CAddr, dir: Direction, gen: u64) {
        let at = self.find(local).unwrap_or_else(|at| {
            self.sent.insert(at, (local, [None; 2]));
            at
        });
        self.sent[at].1[dir as usize] = Some(gen);
    }
}

struct DomainEnd {
    domain: Domain,
    /// The heap's base address: the domain's base plus any shard offset.
    /// Stored so `reset_end` rebuilds the heap in the same address range
    /// (a sharded channel's ends must stay disjoint across shards).
    heap_base: u64,
    heap: Rc<RefCell<ObjHeap>>,
    tracker: RefCell<ObjectTracker>,
    procs: RefCell<ProcTable>,
    delta: RefCell<DeltaMap>,
}

impl DomainEnd {
    fn new(domain: Domain, heap_base: u64) -> Self {
        DomainEnd {
            domain,
            heap_base,
            heap: Rc::new(RefCell::new(ObjHeap::with_base(heap_base))),
            tracker: RefCell::new(ObjectTracker::new()),
            procs: RefCell::new(ProcTable::default()),
            delta: RefCell::new(DeltaMap::default()),
        }
    }
}

/// Deadline-wakeup state: a kernel timer that fires the adaptive-batching
/// flush *at* the deadline, plus the shard to attribute the flush to.
#[derive(Debug, Clone, Copy)]
struct DeadlineWakeup {
    timer: TimerId,
    shard: Option<usize>,
}

/// What a group's crossing reads of one of its calls — procedure, object
/// arguments, scalars, token: a parked [`DeferredCall`], or a call
/// launched without parking.
#[derive(Clone, Copy)]
struct GroupCall<'a>(
    ProcHandle,
    &'a [Option<CAddr>],
    &'a [XdrValue],
    Option<CompletionToken>,
);

/// The calls of one group, in order: what a flush walks more than once.
trait Group<'a>: ExactSizeIterator<Item = GroupCall<'a>> + Clone {}
impl<'a, G: ExactSizeIterator<Item = GroupCall<'a>> + Clone> Group<'a> for G {}

/// How many rounds a flush takes before it reports
/// [`XpcError::FlushDiverged`]: a flushed handler may defer again.
const FLUSH_ROUNDS: usize = 64;

/// A two-ended XPC channel: stub layer plus the deferred-call queue.
pub struct XpcChannel {
    /// Shared with the driver image (and every sibling shard) the channel
    /// was built from: the interface is fixed when the driver is sliced,
    /// so no channel needs a copy of its own.
    spec: Arc<XdrSpec>,
    /// The interface's compiled marshaling — the image's, or compiled
    /// from a spec and mask set handed to [`XpcChannel::new`].
    plan: Arc<MarshalPlan>,
    config: ChannelConfig,
    /// Everything deferred on this channel: parked calls, tokens,
    /// launched batches. `config.transport` says what it does with them.
    deferred: DeferredQueue,
    a: DomainEnd,
    b: DomainEnd,
    pub(crate) stats: Cell<ChannelStats>,
    /// Deadline-wakeup timer, once [`XpcChannel::arm_deadline_wakeups`]
    /// opted this channel in. `None` means the classic behavior: the
    /// deadline is only evaluated when the next call or poll arrives.
    wakeup: Cell<Option<DeadlineWakeup>>,
    /// Wire-message scratch. A stub step marshals into it and unmarshals
    /// out of it before any handler runs, so one buffer serves the
    /// request and the reply of every call, nested ones included; whoever
    /// needs it takes it and puts it back (an error path that drops it
    /// only costs the next call a fresh allocation).
    wire: Cell<Vec<u8>>,
    /// Flush scratch, taken and put back like `wire`: the drained queue
    /// and the definitions of the group being flushed. `spare` holds the
    /// emptied shells of executed calls; the next parked call reuses one
    /// (and its argument vectors' capacity) instead of allocating.
    queue: Cell<Vec<DeferredCall>>,
    defs: Cell<Vec<ProcSlot>>,
    spare: RefCell<Vec<DeferredCall>>,
    /// Marshal scratch: the graph walk's tables, borrowed for one
    /// marshal or unmarshal (neither runs a handler, so never nested),
    /// and the object arguments as the target knows them, taken and put
    /// back like `wire` because a handler's nested call needs its own.
    walk: RefCell<WalkScratch>,
    locals: Cell<Vec<Option<CAddr>>>,
    /// The register-access helpers (`readl`, `writel`) of the runtime
    /// every decaf driver links: their slots at the nucleus end,
    /// resolved when they were registered.
    io_procs: Cell<Option<[ProcHandle; 2]>>,
}

impl XpcChannel {
    /// Creates a channel between two domains over a shared interface spec
    /// and mask set (both produced by DriverSlicer). Either is taken by
    /// value or by the shared pointer a driver image already holds.
    pub fn new(
        spec: impl Into<Arc<XdrSpec>>,
        masks: impl Into<Arc<MaskSet>>,
        config: ChannelConfig,
        a: Domain,
        b: Domain,
    ) -> Self {
        XpcChannel::with_heap_offset(spec, masks, config, a, b, 0)
    }

    /// Like [`XpcChannel::new`], with both ends' heaps based at their
    /// domain base plus `heap_offset`. A sharded facade gives each shard
    /// channel a distinct offset so every heap address in the system
    /// names exactly one (shard, domain, object) — what makes home-shard
    /// lookup by address exact.
    pub fn with_heap_offset(
        spec: impl Into<Arc<XdrSpec>>,
        masks: impl Into<Arc<MaskSet>>,
        config: ChannelConfig,
        a: Domain,
        b: Domain,
        heap_offset: u64,
    ) -> Self {
        let spec = spec.into();
        let plan = Arc::new(MarshalPlan::compile(&spec, &masks.into()));
        XpcChannel::with_plan(spec, plan, config, a, b, heap_offset)
    }

    /// Like [`XpcChannel::with_heap_offset`], over marshaling already
    /// compiled — `plan` from `spec` and the interface's masks, as a
    /// driver image holds it: the channel compiles nothing.
    pub fn with_plan(
        spec: Arc<XdrSpec>,
        plan: Arc<MarshalPlan>,
        config: ChannelConfig,
        a: Domain,
        b: Domain,
        heap_offset: u64,
    ) -> Self {
        assert_ne!(a, b, "a channel needs two distinct domains");
        XpcChannel {
            spec,
            plan,
            config,
            deferred: DeferredQueue::new(config.transport),
            a: DomainEnd::new(a, a.heap_base() + heap_offset),
            b: DomainEnd::new(b, b.heap_base() + heap_offset),
            stats: Cell::new(ChannelStats::default()),
            wakeup: Cell::new(None),
            wire: Cell::new(Vec::new()),
            queue: Cell::new(Vec::new()),
            defs: Cell::new(Vec::new()),
            spare: RefCell::new(Vec::new()),
            walk: RefCell::default(),
            locals: Cell::new(Vec::new()),
            io_procs: Cell::new(None),
        }
    }

    /// The transport kind this channel crosses with.
    pub fn transport_kind(&self) -> TransportKind {
        self.config.transport
    }

    /// Deferred calls currently parked.
    pub fn pending_deferred(&self) -> usize {
        self.deferred.pending()
    }

    /// Takes every parked deferred call out of the queue *without*
    /// executing it — the fault-recovery hook a sharded facade uses to
    /// requeue a dead shard's in-flight calls after resetting its user
    /// end. The calls are returned in defer order.
    pub fn take_deferred(&self) -> Vec<DeferredCall> {
        let mut parked = Vec::new();
        self.deferred.drain(&mut parked);
        parked
    }

    fn end(&self, domain: Domain) -> XpcResult<&DomainEnd> {
        if self.a.domain == domain {
            Ok(&self.a)
        } else if self.b.domain == domain {
            Ok(&self.b)
        } else {
            Err(XpcError::UnknownDomain(domain.to_string()))
        }
    }

    fn peer(&self, domain: Domain) -> XpcResult<&DomainEnd> {
        if self.a.domain == domain {
            Ok(&self.b)
        } else if self.b.domain == domain {
            Ok(&self.a)
        } else {
            Err(XpcError::UnknownDomain(domain.to_string()))
        }
    }

    /// The heap of one end (driver code allocates its structures here).
    ///
    /// # Panics
    /// Panics if `domain` is not an end of this channel.
    pub fn heap(&self, domain: Domain) -> Rc<RefCell<ObjHeap>> {
        Rc::clone(&self.end(domain).expect("domain not on this channel").heap)
    }

    /// The interface spec this channel marshals against — two channels
    /// built from one driver image return pointer-equal values.
    pub fn spec(&self) -> &Arc<XdrSpec> {
        &self.spec
    }

    /// The compiled marshaling this channel crosses by — two channels
    /// built from one driver image return pointer-equal values.
    pub fn plan(&self) -> &Arc<MarshalPlan> {
        &self.plan
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats.get()
    }

    /// Registers a procedure at `domain`'s end and returns its handle. A
    /// name registered before keeps its slot — and its handle — and gets
    /// the new definition. An object argument of a struct type the
    /// channel's spec does not define is refused.
    pub fn register_proc(&self, domain: Domain, def: ProcDef) -> XpcResult<ProcHandle> {
        let arg_ids = TypeIds::resolve(&self.spec, &def.arg_types)?;
        self.register(domain, &def.name, arg_ids, def.handler)
    }

    /// [`XpcChannel::register_proc`] for a procedure whose object
    /// arguments' types are already resolved — `arg_ids` against `spec`,
    /// which must be the channel's own (a driver image's entry point
    /// holds its types resolved against the spec every channel built from
    /// the image shares). Ids resolved against another spec are refused.
    pub fn register_resolved(
        &self,
        domain: Domain,
        name: &Arc<str>,
        arg_ids: TypeIds,
        spec: &Arc<XdrSpec>,
        handler: ProcHandler,
    ) -> XpcResult<ProcHandle> {
        if !Arc::ptr_eq(spec, &self.spec) {
            return Err(XpcError::InvalidRequest(format!(
                "`{name}`: argument types resolved against another spec"
            )));
        }
        self.register(domain, name, arg_ids, handler)
    }

    fn register(
        &self,
        domain: Domain,
        name: &Arc<str>,
        arg_ids: TypeIds,
        handler: ProcHandler,
    ) -> XpcResult<ProcHandle> {
        let mut procs = self.end(domain)?.procs.borrow_mut();
        let registered = ProcSlot { handler, arg_ids };
        match procs.find(name) {
            Ok(at) => {
                let slot = procs.slot_of[at].1;
                procs.slots[slot.0 as usize] = registered;
                Ok(slot)
            }
            Err(at) => {
                let slot = ProcHandle(procs.slots.len() as u32);
                procs.slot_of.insert(at, (Arc::clone(name), slot));
                procs.slots.push(registered);
                Ok(slot)
            }
        }
    }

    /// Sizes `domain`'s procedure table for `procs` more registrations,
    /// so registering them grows nothing — what an install calls with the
    /// count its driver image declares.
    ///
    /// # Panics
    /// Panics if `domain` is not an end of this channel.
    pub fn reserve_procs(&self, domain: Domain, procs: usize) {
        let end = self.end(domain).expect("domain not on this channel");
        let mut table = end.procs.borrow_mut();
        table.slot_of.reserve_exact(procs);
        table.slots.reserve_exact(procs);
    }

    /// Resolves `proc` as `from` would call it — at the peer end — for
    /// callers that ring the same procedure again and again.
    pub fn resolve_proc(&self, from: Domain, proc: &str) -> XpcResult<ProcHandle> {
        let target = self.peer(from)?;
        let procs = target.procs.borrow();
        let slot = procs.find(proc).ok().map(|at| procs.slot_of[at].1);
        slot.ok_or_else(|| XpcError::UnknownProc {
            domain: target.domain.to_string(),
            proc: proc.to_string(),
        })
    }

    /// Registers the runtime's register-access helpers at the nucleus
    /// end — the side that owns the hardware — and keeps their slots, so
    /// a register access, the most frequent crossing of a driver load,
    /// looks no name up ([`XpcChannel::io_procs`]).
    pub fn register_io_procs(&self, readl: ProcDef, writel: ProcDef) -> XpcResult<()> {
        let slots = [
            self.register_proc(Domain::Nucleus, readl)?,
            self.register_proc(Domain::Nucleus, writel)?,
        ];
        self.io_procs.set(Some(slots));
        Ok(())
    }

    /// The `[readl, writel]` helpers [`XpcChannel::register_io_procs`]
    /// registered, if it did: slots of the nucleus end, to be called
    /// from [`Domain::Decaf`].
    pub fn io_procs(&self) -> Option<[ProcHandle; 2]> {
        self.io_procs.get()
    }

    /// Refuses a call of `proc` that passes `given` object arguments when
    /// the procedure declares another number.
    fn check_args(slot: &ProcSlot, given: usize) -> XpcResult<()> {
        match slot.arg_ids.as_slice().len() {
            declared if declared == given => Ok(()),
            declared => Err(XpcError::ArgCount { declared, given }),
        }
    }

    fn def(&self, target: &DomainEnd, proc: ProcHandle) -> XpcResult<ProcSlot> {
        let def = target.procs.borrow().slots.get(proc.0 as usize).cloned();
        def.ok_or_else(|| XpcError::UnknownProc {
            domain: target.domain.to_string(),
            proc: format!("slot {}", proc.0),
        })
    }

    /// Names of procedures registered at `domain`'s end, sorted.
    pub fn proc_names(&self, domain: Domain) -> Vec<String> {
        match self.end(domain) {
            Ok(e) => {
                let procs = e.procs.borrow();
                let mut names: Vec<_> = procs.slot_of.iter().map(|(n, _)| n.to_string()).collect();
                names.sort();
                names
            }
            Err(_) => Vec::new(),
        }
    }

    /// Releases a shared object at one end: drops its tracker association
    /// and frees it from the heap (the explicit release of §3.1.2).
    ///
    /// Delta hygiene: the peer must not delta-encode against state this
    /// end no longer holds, so the peer's delta entries for its copy of
    /// the object are forgotten too.
    pub fn release_object(&self, domain: Domain, local: CAddr) -> XpcResult<()> {
        let e = self.end(domain)?;
        let peer = self.peer(domain)?;
        let canonical = e.tracker.borrow_mut().release_local(local);
        e.heap.borrow_mut().free(local);
        e.delta.borrow_mut().forget(local);
        match canonical {
            // The object originated at the peer: its canonical address IS
            // the peer's local address.
            Some(remote) => peer.delta.borrow_mut().forget(remote),
            // The object originated here: find the peer's copy through the
            // peer's tracker (release is a rare, configuration-path event).
            None => {
                for (remote, _ty, peer_local) in peer.tracker.borrow().associations() {
                    if remote == local {
                        peer.delta.borrow_mut().forget(peer_local);
                    }
                }
            }
        }
        Ok(())
    }

    /// Allocates a schema-default structure in one end's heap.
    pub fn alloc_shared(&self, domain: Domain, type_name: &str) -> XpcResult<CAddr> {
        let e = self.end(domain)?;
        let mut heap = e.heap.borrow_mut();
        heap.alloc_default(type_name, &self.spec)
            .map_err(XpcError::Xdr)
    }

    /// Clears one end's heap and tracker — the decaf-driver restart path
    /// after a fault. Both ends' delta maps are cleared (neither side may
    /// assume the other still holds prior state), and deferred calls
    /// queued by the reset end are dropped.
    pub fn reset_end(&self, domain: Domain) -> XpcResult<()> {
        let e = self.end(domain)?;
        *e.heap.borrow_mut() = ObjHeap::with_base(e.heap_base);
        *e.tracker.borrow_mut() = ObjectTracker::new();
        e.delta.borrow_mut().clear();
        self.peer(domain)?.delta.borrow_mut().clear();
        let cancelled = self.deferred.retain(|c| c.from != domain);
        self.stats
            .bump(|s| s.tokens_cancelled += cancelled.len() as u64);
        Ok(())
    }

    /// The peer of `domain` on this channel.
    pub fn peer_domain(&self, domain: Domain) -> XpcResult<Domain> {
        self.peer(domain).map(|e| e.domain)
    }

    /// Counts and prices one one-way transfer of `bytes` in `dir`, paid
    /// by `payer`. This is the one instrumentation point covering every
    /// transport kind: every synchronous crossing emits an `xpc.crossing`
    /// trace instant named after its kind.
    fn charge_transfer(
        &self,
        kernel: &Kernel,
        launch: bool,
        payer: Domain,
        dir: Direction,
        bytes: usize,
    ) {
        self.stats.bump(|s| {
            match dir {
                Direction::In => s.bytes_in += bytes as u64,
                Direction::Out => s.bytes_out += bytes as u64,
            }
            s.one_way_crossings += 1;
        });
        let class = payer.cpu_class();
        let (kind, domain_crossing) = (self.config.transport, self.config.domain_crossing);
        let cost = kind.crossing_cost_ns(domain_crossing);
        // A launched transfer's latency goes with its batch, for harvest
        // to settle; the marshal work below is CPU time spent *now* and
        // is charged regardless.
        if !launch {
            kernel.charge(class, cost);
            kernel.trace_instant(
                "xpc.crossing",
                kind.name(),
                &[("cost_ns", cost), ("domain", domain_crossing as u64)],
            );
        }
        kernel.charge(class, bytes as u64 * costs::MARSHAL_BYTE_NS);
    }

    /// XDR wire size of one by-value scalar (RFC 4506: everything packs
    /// to 4-byte alignment). Counted and charged like object bytes, so a
    /// payload smuggled through an opaque scalar is never free.
    fn scalar_wire_bytes(v: &XdrValue) -> usize {
        match v {
            XdrValue::Void => 0,
            XdrValue::Hyper(_) | XdrValue::UHyper(_) | XdrValue::Double(_) => 8,
            XdrValue::Opaque(b) => 4 + b.len().next_multiple_of(4),
            XdrValue::Str(s) => 4 + s.len().next_multiple_of(4),
            XdrValue::Array(items) => 4 + items.iter().map(Self::scalar_wire_bytes).sum::<usize>(),
            XdrValue::Struct { fields, .. } => {
                fields.iter().map(|(_, f)| Self::scalar_wire_bytes(f)).sum()
            }
            XdrValue::Optional(inner) => 4 + inner.as_deref().map_or(0, Self::scalar_wire_bytes),
            _ => 4,
        }
    }

    /// Stub steps 2+3: tracker translation and delta-aware marshaling of
    /// `roots` out of `end`'s heap. The message is written into the
    /// channel's wire scratch, which the caller puts back (`wire.set`)
    /// once the far side has unmarshaled it.
    fn marshal_from(
        &self,
        kernel: &Kernel,
        end: &DomainEnd,
        roots: &[Option<CAddr>],
        dir: Direction,
    ) -> XpcResult<Vec<u8>> {
        let mut wire = self.wire.take();
        wire.clear();
        // A first message sizes the scratch once, not once per doubling.
        wire.reserve(256);
        let heap = end.heap.borrow();
        let tracker = &end.tracker;
        let translate = |local| tracker.borrow().canonical_for(local).unwrap_or(local);
        let mut no_delta = NoDelta;
        let mut delta_map;
        let hook: &mut dyn DeltaHook = if self.config.delta {
            delta_map = end.delta.borrow_mut();
            &mut *delta_map
        } else {
            &mut no_delta
        };
        let dstats = graph::marshal_plan(
            &heap,
            roots,
            &self.plan,
            &self.spec,
            dir,
            &translate,
            hook,
            &mut self.walk.borrow_mut(),
            &mut wire,
        )?;
        let class = end.domain.cpu_class();
        kernel.charge(class, wire.len() as u64 * costs::MARSHAL_BYTE_NS);
        if self.config.delta {
            // Generation-counter bookkeeping happens only on delta
            // channels; charging it unconditionally would tax the
            // non-delta baseline the ablation compares against.
            kernel.charge(
                class,
                (dstats.full_objects + dstats.delta_objects) * costs::DELTA_TRACK_NS,
            );
        }
        self.stats.bump(|s| {
            s.full_objects += dstats.full_objects;
            s.delta_objects += dstats.delta_objects;
            s.delta_fields_elided += dstats.fields_elided;
        });
        Ok(wire)
    }

    /// `proc` is the procedure called; `None`, a batched flush.
    fn record_atomic_violation(
        &self,
        kernel: &Kernel,
        target: &DomainEnd,
        proc: Option<ProcHandle>,
    ) {
        // Upcalls to user level are illegal from atomic context (§3.1.3);
        // record the violation but keep simulating.
        if target.domain.is_user() && !kernel.may_block() {
            let procs = target.procs.borrow();
            let what = proc.map_or("batched flush", |proc| procs.name_of(proc));
            kernel.record_violation(
                ViolationKind::UpcallInAtomic,
                format!("XPC `{what}` to {} from atomic context", target.domain),
            );
        }
    }

    /// One leg of a crossing, stub steps 2–5: marshal `roots` out of
    /// `src`, transfer (left to the launched batch when `launch`), and
    /// unmarshal into `dst` as `types`. `scalar_bytes` ride the same
    /// transfer. The objects' addresses at `dst` go to `each_root`.
    ///
    /// A leg that carries no object skips marshal and unmarshal outright:
    /// with no roots the wire is 0 bytes, the delta statistics are zero
    /// and every per-byte and per-object charge is × 0, so the skip is
    /// the same crossing — a doorbell pays for its transfer and nothing
    /// else.
    #[allow(clippy::too_many_arguments)]
    fn cross(
        &self,
        kernel: &Kernel,
        launch: bool,
        src: &DomainEnd,
        dst: &DomainEnd,
        roots: &[Option<CAddr>],
        types: impl IntoIterator<Item = TypeId>,
        dir: Direction,
        scalar_bytes: usize,
        each_root: &mut dyn FnMut(Option<CAddr>),
    ) -> XpcResult<()> {
        let mut types = types.into_iter().peekable();
        let objects = !roots.is_empty() || types.peek().is_some();
        let wire = match objects {
            true => self.marshal_from(kernel, src, roots, dir)?,
            false => Vec::new(),
        };
        let bytes = wire.len() + scalar_bytes;
        self.charge_transfer(kernel, launch, src.domain, dir, bytes);
        if !objects {
            return Ok(());
        }
        // Step 5 (and the caller-side half of step 6): tracker-aware
        // unmarshaling into `dst`'s heap.
        graph::unmarshal_plan(
            &wire,
            types,
            &mut dst.heap.borrow_mut(),
            &self.plan,
            &self.spec,
            dir,
            &mut *dst.tracker.borrow_mut(),
            &mut self.walk.borrow_mut(),
            each_root,
        )?;
        let class = dst.domain.cpu_class();
        kernel.charge(class, wire.len() as u64 * costs::MARSHAL_BYTE_NS);
        if self.config.cross_language && dir == Direction::In {
            // The C-side unmarshal + Java-side re-marshal detour (§4.2).
            kernel.charge(
                class,
                roots.len() as u64 * costs::CROSS_LANGUAGE_OBJECT_NS
                    + wire.len() as u64 * costs::MARSHAL_BYTE_NS,
            );
        }
        self.wire.set(wire);
        Ok(())
    }

    /// Performs one cross-domain procedure call from `from` to its peer.
    ///
    /// `args` are object parameters as addresses in the *caller's* heap;
    /// `scalars` travel by value. Returns the handler's scalar result.
    ///
    /// Any deferred calls parked in the transport flush first, so a
    /// synchronous call always observes the effects of earlier deferred
    /// work (program order is preserved).
    pub fn call(
        &self,
        kernel: &Kernel,
        from: Domain,
        proc: &str,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<XdrValue> {
        self.flush(kernel)?;
        let proc = self.resolve_proc(from, proc)?;
        self.call_inner(kernel, from, proc, args, scalars)
    }

    /// [`XpcChannel::call`] on an already-resolved procedure.
    pub fn call_resolved(
        &self,
        kernel: &Kernel,
        from: Domain,
        proc: ProcHandle,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<XdrValue> {
        // Planted bug: the call overtakes the calls parked before it.
        #[cfg(debug_assertions)]
        if crate::mutation::armed(crate::mutation::Mutant::SyncCallSkipsFlush) {
            return self.call_inner(kernel, from, proc, args, scalars);
        }
        self.flush(kernel)?;
        self.call_inner(kernel, from, proc, args, scalars)
    }

    /// The six stub steps, without the flush prologue. Also the fallback
    /// path for deferred calls whose batch failed to marshal.
    fn call_inner(
        &self,
        kernel: &Kernel,
        from: Domain,
        proc: ProcHandle,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<XdrValue> {
        let _span = kernel.trace_span("xpc", "call");
        let caller = self.end(from)?;
        let target = self.peer(from)?;
        let slot = self.def(target, proc)?;
        self.record_atomic_violation(kernel, target, Some(proc));

        // Steps 2–5: translate, marshal, transfer, unmarshal at the
        // target. Scalar arguments travel by value too: they are encoded
        // onto the same wire and accounted the same way — a payload
        // smuggled through an opaque scalar pays exactly what it would as
        // an object field.
        let scalar_in: usize = scalars.iter().map(Self::scalar_wire_bytes).sum();
        let types = || slot.arg_ids.as_slice().iter().copied();
        let mut locals = self.locals.take();
        locals.clear();
        self.cross(
            kernel,
            false,
            caller,
            target,
            args,
            types(),
            Direction::In,
            scalar_in,
            &mut |local| locals.push(local),
        )?;

        // Dispatch, catching user-level faults.
        let result = catch_unwind(AssertUnwindSafe(|| {
            (slot.handler)(kernel, self, &locals, scalars)
        }));
        let ret = match result {
            Ok(v) => v,
            Err(payload) => {
                self.stats.bump(|s| s.faults += 1);
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                return Err(XpcError::DecafFault(msg));
            }
        };

        // Deferred calls the handler parked must land before it returns.
        self.flush(kernel)?;

        // Step 6: marshal out-parameters (and the scalar return) back
        // and update caller objects.
        let scalar_out = Self::scalar_wire_bytes(&ret);
        let (out, unused) = (Direction::Out, &mut |_| ());
        self.cross(
            kernel,
            false,
            target,
            caller,
            &locals,
            types(),
            out,
            scalar_out,
            unused,
        )?;
        self.locals.set(locals);

        self.stats.bump(|s| s.round_trips += 1);
        Ok(ret)
    }

    /// Parks a result-free call in the channel's deferred queue (the
    /// doorbell pattern). On a kind that does not queue this degrades to
    /// a synchronous [`XpcChannel::call`] whose result is discarded, so
    /// drivers use one code path and the transport kind decides the
    /// policy.
    ///
    /// Deferred calls execute at the next flush — triggered by queue
    /// capacity, an explicit [`XpcChannel::flush`], or any synchronous
    /// call on the channel. Handler faults during a flush are counted in
    /// [`ChannelStats::faults`] but not propagated (there is no caller
    /// waiting for the result).
    ///
    /// `Some(token)`: parked on a launching channel, which tracks every
    /// deferred call, whoever enqueued it; the token resolves when
    /// [`XpcChannel::harvest`] settles the call's launch, or is cancelled
    /// when fault recovery drops the call first. `None`: parked
    /// untracked, or — on a kind that does not queue — executed on the
    /// spot.
    pub fn call_deferred(
        &self,
        kernel: &Kernel,
        from: Domain,
        proc: &str,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<Option<CompletionToken>> {
        // Validate eagerly: at flush time the error could not be
        // attributed to this call site.
        let proc = self.resolve_proc(from, proc)?;
        self.call_deferred_resolved(kernel, from, proc, args, scalars)
    }

    /// [`XpcChannel::call_deferred`] on an already-resolved procedure.
    pub fn call_deferred_resolved(
        &self,
        kernel: &Kernel,
        from: Domain,
        proc: ProcHandle,
        args: &[Option<CAddr>],
        scalars: &[XdrValue],
    ) -> XpcResult<Option<CompletionToken>> {
        // Checked here, where the error reaches its caller: a flush could
        // only count a fault.
        if let Some(slot) = self.peer(from)?.procs.borrow().slots.get(proc.0 as usize) {
            Self::check_args(slot, args.len())?;
        }
        let mut call = self.spare.borrow_mut().pop().unwrap_or(DeferredCall {
            from,
            proc,
            args: Vec::new(),
            scalars: Vec::new(),
            token: None,
        });
        (call.from, call.proc) = (from, proc);
        call.args.extend_from_slice(args);
        call.scalars.extend_from_slice(scalars);
        match self.deferred.offer(kernel, from.cpu_class(), call) {
            Ok(token) => {
                self.stats.bump(|s| {
                    s.tokens_issued += token.is_some() as u64;
                    s.deferred_calls += 1;
                });
                self.flush_if_due(kernel)?;
                self.schedule_deadline_wakeup(kernel, self.deferred.oldest_deferred_at());
                Ok(token)
            }
            Err(call) => {
                self.flush(kernel)?;
                let done = self.call_inner(kernel, from, proc, &call.args, &call.scalars);
                self.recycle(call);
                done.map(|_| None)
            }
        }
    }

    /// [`XpcChannel::call_deferred_resolved`] of a call with no object
    /// arguments, then [`XpcChannel::flush`] — the doorbell of a
    /// launching data path. With nothing parked on a launching channel
    /// the call does not park: its token is minted and it launches at
    /// once as a one-call batch, with the charges, counters, wakeup timer
    /// and trace events the park and flush would have produced. Otherwise
    /// it parks behind what is there and flushes, so program order and
    /// batch membership do not change.
    pub fn launch_resolved(
        &self,
        kernel: &Kernel,
        from: Domain,
        proc: ProcHandle,
        scalars: &[XdrValue],
    ) -> XpcResult<()> {
        if !self.config.transport.launches() || self.deferred.pending() > 0 {
            self.call_deferred_resolved(kernel, from, proc, &[], scalars)?;
            return self.flush(kernel);
        }
        // The definition the bare crossing reads, looked up once: a bell
        // that declares objects is refused here, before anything launches.
        let def = self.def(self.peer(from)?, proc).ok();
        if let Some(def) = &def {
            Self::check_args(def, 0)?;
        }
        let token = self.deferred.mint(kernel, from.cpu_class());
        self.stats.bump(|s| {
            s.tokens_issued += 1;
            s.deferred_calls += 1;
        });
        self.schedule_deadline_wakeup(kernel, Some(kernel.now_ns()));
        let call = GroupCall(proc, &[], scalars, Some(token));
        self.flush_group(kernel, from, std::iter::once(call), def);
        // What its handler parked goes next, as the flush's next round
        // would have taken it.
        self.flush_rounds(kernel, FLUSH_ROUNDS - 1)
    }

    /// Keeps an executed call's emptied shell for the next deferred call.
    fn recycle(&self, mut call: DeferredCall) {
        call.args.clear();
        call.scalars.clear();
        call.token = None;
        self.spare.borrow_mut().push(call);
    }

    /// Re-parks a deferred call taken out by [`XpcChannel::take_deferred`]
    /// (the fault-recovery requeue path). The call keeps its completion
    /// token if it has one — requeuing never re-issues — so conservation
    /// (`tokens_issued == tokens_harvested + tokens_cancelled`) holds
    /// across recovery. On a kind that does not queue the call executes
    /// synchronously and its token (if any) resolves immediately.
    pub fn requeue_deferred(&self, kernel: &Kernel, call: DeferredCall) -> XpcResult<()> {
        self.def(self.peer(call.from)?, call.proc)?;
        let token = call.token;
        match self.deferred.offer(kernel, call.from.cpu_class(), call) {
            Ok(_) => {
                self.stats.bump(|s| s.deferred_calls += 1);
                self.schedule_deadline_wakeup(kernel, self.deferred.oldest_deferred_at());
                Ok(())
            }
            Err(call) => {
                self.call_resolved(kernel, call.from, call.proc, &call.args, &call.scalars)?;
                self.resolve_tokens(token);
                Ok(())
            }
        }
    }

    /// Marks tokens resolved: strikes them off the ledger and counts
    /// them harvested.
    fn resolve_tokens(&self, tokens: impl IntoIterator<Item = CompletionToken>) {
        let resolved = self.deferred.settle(tokens);
        self.stats.bump(|s| s.tokens_harvested += resolved);
    }

    /// Cancels tokens whose calls were dropped before launching (fault
    /// recovery): strikes them off the ledger and counts them cancelled,
    /// never harvested.
    pub fn cancel_tokens(&self, tokens: &[CompletionToken]) {
        let cancelled = self.deferred.settle(tokens.iter().copied());
        self.stats.bump(|s| s.tokens_cancelled += cancelled);
    }

    /// Tokens issued and not yet harvested or cancelled.
    pub fn tokens_outstanding(&self) -> usize {
        self.deferred.outstanding()
    }

    /// Harvests every launched batch: settles each batch's crossing
    /// latency against the virtual time that elapsed since its
    /// launch — elapsed time is *overlap* (the crossing was hidden
    /// behind computation or idle latency), only the uncovered remainder
    /// is charged as wait. Returns the resolved tokens.
    pub fn harvest(&self, kernel: &Kernel) -> Vec<CompletionToken> {
        let mut resolved = Vec::new();
        self.harvest_with(kernel, |token| resolved.push(token));
        resolved
    }

    /// [`XpcChannel::harvest`] for callers on a per-packet path: each
    /// resolved token is handed to `each` instead of collected into a
    /// fresh `Vec`. Returns how many resolved.
    pub fn harvest_with(&self, kernel: &Kernel, each: impl FnMut(CompletionToken)) -> usize {
        let done = self.deferred.harvest(kernel, each);
        if done != Harvest::default() {
            self.stats.bump(|s| {
                s.overlap_ns += done.overlap_ns;
                s.tokens_harvested += done.settled;
            });
        }
        done.tokens
    }

    /// Flushes the deferred queue only if its rule says a flush is
    /// due — at capacity, or past the adaptive-batching deadline. Poll
    /// this from timers or scheduling points so low-rate control paths
    /// do not hold posted writes longer than the coalescing window.
    pub fn flush_if_due(&self, kernel: &Kernel) -> XpcResult<bool> {
        let due = self.deferred.flush_due(kernel.now_ns());
        if due {
            self.flush(kernel)?;
        }
        Ok(due)
    }

    /// Opts this channel into timer-driven deadline flushes: whenever a
    /// parked call arms the adaptive-batching deadline, a kernel
    /// timer is scheduled so the flush fires *at* the deadline even if
    /// no further call or poll ever arrives.
    ///
    /// Without this, `flush_due` is only evaluated by the next event on
    /// the channel — under open-loop idle gaps a parked batched/async
    /// call could sit past its deadline indefinitely. Opt-in so
    /// manually paced closed-loop runs keep their exact flush points.
    pub fn arm_deadline_wakeups(self: &Rc<Self>, kernel: &Kernel) {
        self.arm_deadline_wakeups_on(kernel, None);
    }

    /// [`XpcChannel::arm_deadline_wakeups`] with the flush attributed to
    /// `shard` — what a sharded facade passes so timer-driven flushes
    /// charge the same per-shard ledger as event-driven ones.
    pub fn arm_deadline_wakeups_on(self: &Rc<Self>, kernel: &Kernel, shard: Option<usize>) {
        if self.wakeup.get().is_some() {
            return;
        }
        // Timer callbacks run in softirq context, where an upcall to user
        // level is illegal — the flush runs as a work item (process
        // context), built once here and queued by handle, the same
        // pattern the drivers' poll timers use.
        let ch = Rc::downgrade(self);
        let flush: WorkBody = Rc::new(move |k, _| {
            if let Some(ch) = ch.upgrade() {
                ch.deadline_flush(k);
            }
        });
        let ch = Rc::downgrade(self);
        let timer = kernel.work_timer("xpc.deadline", flush, move || {
            // Nothing parked: the queue flushed through another path
            // before the timer fired; nothing to do, nothing to re-arm.
            let parked = ch.upgrade().is_some_and(|ch| ch.deferred.pending() > 0);
            parked.then_some(0)
        });
        self.wakeup.set(Some(DeadlineWakeup { timer, shard }));
        // Calls may already be parked (armed late): cover them too.
        self.schedule_deadline_wakeup(kernel, self.deferred.oldest_deferred_at());
    }

    /// The work-item half of the deadline wakeup: flush if due, then
    /// re-arm from whatever is still parked. An early fire (the armed
    /// deadline went stale when an older call flushed) declines here
    /// and re-arms at the true remaining window.
    fn deadline_flush(&self, kernel: &Kernel) {
        let shard = self.wakeup.get().and_then(|w| w.shard);
        let run = || {
            // Deferred calls have no waiting caller: a flush error here
            // is contained exactly like a doorbell fault (already
            // counted in the channel's fault stats).
            let _ = self.flush_if_due(kernel);
            self.schedule_deadline_wakeup(kernel, self.deferred.oldest_deferred_at());
        };
        match shard {
            Some(s) => kernel.shard_scope(s, run),
            None => run(),
        }
    }

    /// Arms the wakeup timer for the deadline of the oldest call, parked
    /// at `oldest` (`None`: nothing parked), if wakeups are enabled and
    /// the timer is not already pending. A pending timer is never
    /// re-armed — it may be early (stale anchor), and an early fire is
    /// harmless: the work item declines and re-arms exactly.
    fn schedule_deadline_wakeup(&self, kernel: &Kernel, oldest: Option<u64>) {
        let Some(w) = self.wakeup.get() else { return };
        if kernel.timer_pending(w.timer) {
            return;
        }
        let Some(oldest) = oldest else {
            return;
        };
        let deadline = oldest + BATCH_DEADLINE_NS;
        kernel.timer_arm(w.timer, deadline.saturating_sub(kernel.now_ns()));
    }

    /// Flushes every deferred call through the boundary. Consecutive
    /// calls from the same domain cross together: one round trip, one
    /// shared seen-table, one out-parameter return.
    ///
    /// A group that fails to marshal as a batch (say, one call's object
    /// argument was freed between defer and flush) neither takes its
    /// neighbors down nor surfaces its error on an unrelated later
    /// synchronous call: the group's calls execute one by one, and
    /// individual failures are counted as faults — deferred calls have
    /// no caller waiting to receive an error.
    pub fn flush(&self, kernel: &Kernel) -> XpcResult<()> {
        self.flush_rounds(kernel, FLUSH_ROUNDS)
    }

    /// [`XpcChannel::flush`] bounded at `rounds` rounds of the ping-pong.
    fn flush_rounds(&self, kernel: &Kernel, rounds: usize) -> XpcResult<()> {
        for _ in 0..rounds {
            if self.deferred.pending() == 0 {
                return Ok(());
            }
            let mut queue = self.queue.take();
            self.deferred.drain(&mut queue);
            for calls in queue.chunk_by(|a, b| a.from == b.from) {
                let group = calls
                    .iter()
                    .map(|c| GroupCall(c.proc, &c.args, &c.scalars, c.token));
                self.flush_group(kernel, calls[0].from, group, None);
            }
            queue.drain(..).for_each(|call| self.recycle(call));
            self.queue.set(queue);
        }
        // Handlers kept re-deferring past the bound: surface the broken
        // ordering guarantee instead of silently leaving calls parked.
        Err(XpcError::FlushDiverged(self.deferred.pending()))
    }

    /// Whether every group crossing must take the marshaling path,
    /// object-free ones included: what the twin-channel tests set to
    /// compare the bare crossing with the full one.
    #[cfg(test)]
    fn full_crossing_forced() -> bool {
        tests::FULL_CROSSING.with(Cell::get)
    }

    #[cfg(not(test))]
    fn full_crossing_forced() -> bool {
        false
    }

    /// Executes one same-direction group of calls from `from` — one
    /// crossing ([`XpcChannel::cross_group`]; `def`, when the caller has
    /// it, is a one-call group's definition), or, when that fails before
    /// any handler ran, call by call.
    fn flush_group<'a>(
        &self,
        kernel: &Kernel,
        from: Domain,
        group: impl Group<'a>,
        def: Option<ProcSlot>,
    ) {
        if self.cross_group(kernel, from, group.clone(), def).is_ok() {
            return;
        }
        for GroupCall(proc, args, scalars, token) in group {
            match self.call_inner(kernel, from, proc, args, scalars) {
                Ok(_) => {}
                // A handler panic already counted itself.
                Err(XpcError::DecafFault(_)) => {}
                Err(_) => self.stats.bump(|s| s.faults += 1),
            }
            // The per-call fallback is synchronous: the call's token
            // (fault or not, the call is done) resolves here.
            self.resolve_tokens(token);
        }
    }

    /// Executes one same-direction batch of deferred calls as a single
    /// crossing — *launched* rather than waited on, on a launching kind:
    /// the batch is launched with its two legs' latency, which harvest
    /// settles against the batch's tokens, while the data effects
    /// (unmarshal, dispatch, out-parameter return) land right here.
    ///
    /// `Err` means no handler ran, so the caller may still execute the
    /// group call by call.
    fn cross_group<'a>(
        &self,
        kernel: &Kernel,
        from: Domain,
        group: impl Group<'a>,
        def: Option<ProcSlot>,
    ) -> XpcResult<()> {
        let _span = kernel.trace_span("xpc", "flush");
        let launch = self.config.transport.launches();
        let caller = self.end(from)?;
        let target = self.peer(from)?;
        self.record_atomic_violation(kernel, target, None);

        // A one-call group keeps its definition here, a batch's go in the
        // scratch: all resolved before any handler runs.
        let (mut batch, one);
        let defs: &[ProcSlot] = match group.clone().next() {
            Some(GroupCall(proc, ..)) if group.len() == 1 => {
                batch = Vec::new();
                one = [match def {
                    Some(def) => def,
                    None => self.def(target, proc)?,
                }];
                &one
            }
            _ => {
                batch = self.defs.take();
                batch.clear();
                for GroupCall(proc, ..) in group.clone() {
                    batch.push(self.def(target, proc)?);
                }
                &batch
            }
        };
        let all_types = || {
            defs.iter()
                .flat_map(|d| d.arg_ids.as_slice().iter().copied())
        };
        let scalar_in: usize = group
            .clone()
            .flat_map(|GroupCall(_, _, scalars, _)| scalars.iter())
            .map(Self::scalar_wire_bytes)
            .sum();
        // A group that passes no object and declares none — every
        // doorbell — has nothing to marshal: its legs are bare transfers,
        // and it gathers no roots and borrows no argument scratch.
        let objects = Self::full_crossing_forced()
            || group.clone().any(|GroupCall(_, args, ..)| !args.is_empty())
            || all_types().next().is_some();
        let mut locals = Vec::new();
        if objects {
            // One wire message for the whole batch: roots share a
            // seen-table, so an object repeated across calls crosses once.
            let all_roots: Vec<Option<CAddr>> = group
                .clone()
                .flat_map(|GroupCall(_, args, ..)| args.iter().copied())
                .collect();
            locals = self.locals.take();
            locals.clear();
            self.cross(
                kernel,
                launch,
                caller,
                target,
                &all_roots,
                all_types(),
                Direction::In,
                scalar_in,
                &mut |local| locals.push(local),
            )?;
        } else {
            self.charge_transfer(kernel, launch, caller.domain, Direction::In, scalar_in);
        }

        // Dispatch each call in queue order; results are discarded and
        // faults contained (deferred calls have no waiting caller).
        let mut offset = 0;
        for (def, GroupCall(_, _, scalars, _)) in defs.iter().zip(group.clone()) {
            let arity = def.arg_ids.as_slice().len();
            let call_locals = &locals[offset..offset + arity];
            offset += arity;
            let result = catch_unwind(AssertUnwindSafe(|| {
                (def.handler)(kernel, self, call_locals, scalars)
            }));
            if result.is_err() {
                self.stats.bump(|s| s.faults += 1);
            }
        }

        // One return crossing updates every caller-side object.
        if objects {
            let (dir, unused) = (Direction::Out, &mut |_| ());
            let returned = self.cross(
                kernel,
                launch,
                target,
                caller,
                &locals,
                all_types(),
                dir,
                0,
                unused,
            );
            if returned.is_err() {
                // The handlers have run (one freed an argument, say): the
                // group is done and must not run again. One fault, nothing
                // launched, and its tokens resolve here, synchronously.
                self.stats.bump(|s| s.faults += 1);
                self.resolve_tokens(group.clone().filter_map(|GroupCall(.., token)| token));
                return Ok(());
            }
            self.locals.set(locals);
        } else {
            self.charge_transfer(kernel, launch, target.domain, Direction::Out, 0);
        }
        if !batch.is_empty() {
            batch.clear();
            self.defs.set(batch);
        }

        if launch {
            let config = self.config;
            let cost = 2 * config.transport.crossing_cost_ns(config.domain_crossing);
            let tokens = group.clone().filter_map(|GroupCall(.., token)| token);
            self.deferred.launch(kernel, from.cpu_class(), tokens, cost);
        }

        self.stats.bump(|s| {
            s.round_trips += 1;
            s.flushes += 1;
            s.batched_calls += group.len() as u64;
        });
        Ok(())
    }
}

/// An owned shared object that releases itself when dropped.
///
/// The paper manages shared objects manually but proposes custom
/// finalizers so "the Java garbage collector frees the object" and the
/// associated kernel memory with it (§5.1, *Potential Benefit: Garbage
/// collection*). Rust's `Drop` is that finalizer: when the guard goes out
/// of scope the tracker association is removed and the heap object freed,
/// which "can simplify exception-handling code and prevent resource leaks
/// on error paths, a common driver problem".
pub struct SharedObject {
    channel: Rc<XpcChannel>,
    domain: Domain,
    addr: CAddr,
}

impl SharedObject {
    /// Allocates a schema-default structure owned by this guard.
    pub fn new(
        channel: Rc<XpcChannel>,
        domain: Domain,
        type_name: &str,
    ) -> XpcResult<SharedObject> {
        let addr = channel.alloc_shared(domain, type_name)?;
        Ok(SharedObject {
            channel,
            domain,
            addr,
        })
    }

    /// The heap address of the object (pass as an XPC argument).
    pub fn addr(&self) -> CAddr {
        self.addr
    }

    /// The domain owning the object.
    pub fn domain(&self) -> Domain {
        self.domain
    }
}

impl Drop for SharedObject {
    fn drop(&mut self) {
        let _ = self.channel.release_object(self.domain, self.addr);
    }
}

impl std::fmt::Debug for SharedObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedObject")
            .field("domain", &self.domain)
            .field("addr", &format_args!("{:#x}", self.addr))
            .finish()
    }
}

impl std::fmt::Debug for XpcChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XpcChannel")
            .field("a", &self.a.domain)
            .field("b", &self.b.domain)
            .field("stats", &self.stats.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_xdr::graph::FieldVal;
    use decaf_xdr::mask::{Access, FieldMask};

    fn spec() -> XdrSpec {
        XdrSpec::parse(
            "struct adapter { int msg_enable; int link_up; struct ring *tx; };\n\
             struct ring { int count; };",
        )
        .unwrap()
    }

    fn channel() -> XpcChannel {
        XpcChannel::new(
            spec(),
            MaskSet::full(),
            ChannelConfig::kernel_user(),
            Domain::Nucleus,
            Domain::Decaf,
        )
    }

    fn alloc_adapter(ch: &XpcChannel) -> CAddr {
        let heap = ch.heap(Domain::Nucleus);
        let mut h = heap.borrow_mut();
        let ring = h.alloc(
            "ring",
            vec![("count".into(), FieldVal::Scalar(XdrValue::Int(256)))],
        );
        h.alloc(
            "adapter",
            vec![
                ("msg_enable".into(), FieldVal::Scalar(XdrValue::Int(0))),
                ("link_up".into(), FieldVal::Scalar(XdrValue::Int(0))),
                ("tx".into(), FieldVal::Ptr(Some(ring))),
            ],
        )
    }

    #[test]
    fn since_then_merge_restores_the_sums_and_keeps_the_larger_high_water_mark() {
        // Every counter distinct and `a` ahead of `b` by a different
        // amount in each, so a misclassified or swapped field shows.
        let counters = |k: u64, hwm: u64| ChannelStats {
            round_trips: k,
            one_way_crossings: 2 * k + 1,
            bytes_in: 3 * k + 2,
            bytes_out: 4 * k + 3,
            faults: 5 * k + 4,
            deferred_calls: 6 * k + 5,
            batched_calls: 7 * k + 6,
            flushes: 8 * k + 7,
            full_objects: 9 * k + 8,
            delta_objects: 10 * k + 9,
            delta_fields_elided: 11 * k + 10,
            ring_posts: 12 * k + 11,
            doorbells: 13 * k + 12,
            ring_occupancy_hwm: hwm,
            tokens_issued: 14 * k + 13,
            tokens_harvested: 15 * k + 14,
            tokens_cancelled: 16 * k + 15,
            overlap_ns: 17 * k + 16,
        };
        for (hwm_a, hwm_b) in [(9, 4), (4, 9)] {
            let (a, b) = (counters(7, hwm_a), counters(3, hwm_b));
            let delta = a.since(&b);
            assert_eq!(delta.round_trips, 4);
            assert_eq!(delta.overlap_ns, 17 * 4);
            assert_eq!(
                delta.ring_occupancy_hwm, hwm_a,
                "a maximum: the later value"
            );
            let mut back = b;
            back.merge(&delta);
            assert_eq!(back, counters(7, 9), "sums restored, larger mark kept");
        }
    }

    #[test]
    fn upcall_executes_handler_and_returns_scalar() {
        let k = Kernel::new();
        let ch = channel();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "e1000_probe".into(),
                arg_types: vec!["adapter".into()],
                handler: Rc::new(|_k, ch, args, _scalars| {
                    let heap = ch.heap(Domain::Decaf);
                    let h = heap.borrow();
                    let a = args[0].unwrap();
                    // The decaf driver sees the marshaled ring through the
                    // adapter pointer.
                    let ring = h.ptr(a, "tx").unwrap().unwrap();
                    h.scalar(ring, "count").unwrap().clone()
                }),
            },
        )
        .unwrap();
        let adapter = alloc_adapter(&ch);
        let ret = ch
            .call(&k, Domain::Nucleus, "e1000_probe", &[Some(adapter)], &[])
            .unwrap();
        assert_eq!(ret, XdrValue::Int(256));
        let s = ch.stats();
        assert_eq!(s.round_trips, 1);
        assert_eq!(s.one_way_crossings, 2);
        assert!(s.bytes_in > 0);
    }

    #[test]
    fn out_parameters_update_caller_objects_in_place() {
        let k = Kernel::new();
        let ch = channel();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "set_link".into(),
                arg_types: vec!["adapter".into()],
                handler: Rc::new(|_k, ch, args, _| {
                    let heap = ch.heap(Domain::Decaf);
                    let mut h = heap.borrow_mut();
                    h.set_scalar(args[0].unwrap(), "link_up", XdrValue::Int(1))
                        .unwrap();
                    XdrValue::Int(0)
                }),
            },
        )
        .unwrap();
        let adapter = alloc_adapter(&ch);
        ch.call(&k, Domain::Nucleus, "set_link", &[Some(adapter)], &[])
            .unwrap();
        let heap = ch.heap(Domain::Nucleus);
        let h = heap.borrow();
        assert_eq!(h.scalar(adapter, "link_up").unwrap(), &XdrValue::Int(1));
    }

    #[test]
    fn repeated_calls_reuse_target_objects() {
        let k = Kernel::new();
        let ch = channel();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "touch".into(),
                arg_types: vec!["adapter".into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Int(0)),
            },
        )
        .unwrap();
        let adapter = alloc_adapter(&ch);
        for _ in 0..3 {
            ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
                .unwrap();
        }
        // Adapter + embedded ring: exactly two objects at the decaf end,
        // no matter how many calls were made.
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 2);
    }

    #[test]
    fn nested_downcall_from_handler_works() {
        let k = Kernel::new();
        let ch = Rc::new(channel());
        ch.register_proc(
            Domain::Nucleus,
            ProcDef {
                name: "pci_read_config".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, scalars| {
                    XdrValue::Int(scalars[0].as_int().unwrap() + 0x100)
                }),
            },
        )
        .unwrap();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "probe".into(),
                arg_types: vec![],
                handler: Rc::new(|k, ch, _, _| {
                    // The decaf driver calls back into the kernel.
                    ch.call(
                        k,
                        Domain::Decaf,
                        "pci_read_config",
                        &[],
                        &[XdrValue::Int(4)],
                    )
                    .unwrap()
                }),
            },
        )
        .unwrap();
        let ret = ch.call(&k, Domain::Nucleus, "probe", &[], &[]).unwrap();
        assert_eq!(ret, XdrValue::Int(0x104));
        assert_eq!(ch.stats().round_trips, 2);
    }

    #[test]
    fn unknown_proc_reported() {
        let k = Kernel::new();
        let ch = channel();
        let err = ch.call(&k, Domain::Nucleus, "nope", &[], &[]).unwrap_err();
        assert!(matches!(err, XpcError::UnknownProc { .. }));
    }

    #[test]
    fn decaf_fault_is_contained() {
        let k = Kernel::new();
        let ch = channel();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "crash".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, _| panic!("null deref in decaf driver")),
            },
        )
        .unwrap();
        let err = ch.call(&k, Domain::Nucleus, "crash", &[], &[]).unwrap_err();
        match err {
            XpcError::DecafFault(msg) => assert!(msg.contains("null deref")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ch.stats().faults, 1);
        // The channel still works after resetting the faulted end.
        ch.reset_end(Domain::Decaf).unwrap();
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 0);
    }

    #[test]
    fn upcall_from_atomic_context_flagged() {
        let k = Kernel::new();
        let ch = channel();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "bad".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
        k.enter_atomic();
        ch.call(&k, Domain::Nucleus, "bad", &[], &[]).unwrap();
        k.leave_atomic();
        assert!(k
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::UpcallInAtomic && v.detail.contains("`bad`")));
    }

    /// A procedure answering with `n`.
    fn returns(name: &str, n: i32) -> ProcDef {
        ProcDef::scalar(name, move |_, _| XdrValue::Int(n))
    }

    #[test]
    fn registration_hands_out_the_handle_resolution_finds() {
        let ch = channel();
        for (i, name) in ["probe", "open", "close"].into_iter().enumerate() {
            let registered = ch
                .register_proc(Domain::Decaf, returns(name, i as i32))
                .unwrap();
            assert_eq!(
                ch.resolve_proc(Domain::Nucleus, name),
                Ok(registered),
                "{name}"
            );
        }
        let readl = ch
            .register_proc(Domain::Nucleus, returns("readl", 0))
            .unwrap();
        assert_eq!(ch.resolve_proc(Domain::Decaf, "readl"), Ok(readl));
    }

    #[test]
    fn a_re_registered_name_keeps_its_handle_and_runs_the_new_body() {
        let k = Kernel::new();
        let ch = channel();
        let first = ch
            .register_proc(Domain::Decaf, returns("probe", 1))
            .unwrap();
        ch.register_proc(Domain::Decaf, returns("open", 2)).unwrap();
        let held = ch.resolve_proc(Domain::Nucleus, "probe").unwrap();
        let again = ch
            .register_proc(Domain::Decaf, returns("probe", 3))
            .unwrap();
        assert_eq!(again, first, "the name keeps its slot");
        let called = ch.call_resolved(&k, Domain::Nucleus, held, &[], &[]);
        assert_eq!(
            called,
            Ok(XdrValue::Int(3)),
            "a handle held from before runs the new body"
        );
        assert_eq!(ch.proc_names(Domain::Decaf), ["open", "probe"]);
    }

    #[test]
    fn a_handler_re_registering_its_own_name_finishes_with_its_own_body() {
        let k = Kernel::new();
        let ch = channel();
        let ran = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&ran);
        let body: ProcHandler = Rc::new(move |_, ch, _, _| {
            log.borrow_mut().push("old: before");
            // The last reference the table held to this body goes here.
            ch.register_proc(Domain::Decaf, returns("swap", 7)).unwrap();
            log.borrow_mut().push("old: after");
            XdrValue::Int(1)
        });
        let def = ProcDef {
            name: "swap".into(),
            arg_types: vec![],
            handler: body,
        };
        let swap = ch.register_proc(Domain::Decaf, def).unwrap();
        let first = ch.call_resolved(&k, Domain::Nucleus, swap, &[], &[]);
        assert_eq!(first, Ok(XdrValue::Int(1)));
        assert_eq!(*ran.borrow(), ["old: before", "old: after"]);
        let second = ch.call_resolved(&k, Domain::Nucleus, swap, &[], &[]);
        assert_eq!(
            second,
            Ok(XdrValue::Int(7)),
            "the next call runs the new body"
        );
    }

    #[test]
    fn ids_resolved_against_another_spec_are_refused() {
        let ch = channel();
        let foreign = Arc::new(spec());
        let ids = TypeIds::resolve(&foreign, ["adapter"]).unwrap();
        let handler: ProcHandler = Rc::new(|_, _, _, _| XdrValue::Void);
        let name: Arc<str> = "touch".into();
        let refused = ch.register_resolved(Domain::Decaf, &name, ids, &foreign, handler.clone());
        assert!(matches!(refused, Err(XpcError::InvalidRequest(_))));
        assert!(ch.proc_names(Domain::Decaf).is_empty());
        let own = Arc::clone(ch.spec());
        let ids = TypeIds::resolve(&own, ["adapter"]).unwrap();
        let touch = ch
            .register_resolved(Domain::Decaf, &name, ids, &own, handler)
            .unwrap();
        assert_eq!(ch.resolve_proc(Domain::Nucleus, "touch"), Ok(touch));
    }

    #[test]
    fn field_masks_reduce_traffic() {
        let k = Kernel::new();
        let mut masks = MaskSet::selective();
        let mut m = FieldMask::new();
        m.record("msg_enable", Access::Read);
        masks.insert("adapter", m);
        let ch = XpcChannel::new(
            spec(),
            masks,
            ChannelConfig::kernel_user(),
            Domain::Nucleus,
            Domain::Decaf,
        );
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "peek".into(),
                arg_types: vec!["adapter".into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Int(0)),
            },
        )
        .unwrap();
        let adapter = alloc_adapter(&ch);
        ch.call(&k, Domain::Nucleus, "peek", &[Some(adapter)], &[])
            .unwrap();
        let s = ch.stats();
        // Only one int + the object header cross; the ring never does.
        assert!(
            s.bytes_in < 32,
            "selective masks keep traffic tiny: {}",
            s.bytes_in
        );
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 1);
    }

    #[test]
    fn user_and_kernel_time_both_charged() {
        let k = Kernel::new();
        let ch = channel();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "noop".into(),
                arg_types: vec!["adapter".into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
        let adapter = alloc_adapter(&ch);
        let before = k.snapshot();
        ch.call(&k, Domain::Nucleus, "noop", &[Some(adapter)], &[])
            .unwrap();
        let after = k.snapshot();
        assert!(after.kernel_busy_ns > before.kernel_busy_ns);
        assert!(after.user_busy_ns > before.user_busy_ns);
    }

    #[test]
    fn shared_object_guard_frees_on_drop() {
        // The finalizer pattern of paper §5.1: dropping the guard releases
        // the object even on early-return error paths.
        let k = Kernel::new();
        let ch = Rc::new(channel());
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "touch".into(),
                arg_types: vec!["adapter".into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
        let heap_len_before = ch.heap(Domain::Nucleus).borrow().len();
        {
            let obj = SharedObject::new(Rc::clone(&ch), Domain::Nucleus, "adapter").unwrap();
            ch.call(&k, Domain::Nucleus, "touch", &[Some(obj.addr())], &[])
                .unwrap();
            assert_eq!(ch.heap(Domain::Nucleus).borrow().len(), heap_len_before + 1);
        }
        // Guard dropped: nucleus copy freed, association released.
        assert_eq!(ch.heap(Domain::Nucleus).borrow().len(), heap_len_before);
    }

    fn batched_channel() -> XpcChannel {
        XpcChannel::new(
            spec(),
            MaskSet::full(),
            ChannelConfig::kernel_user_batched(),
            Domain::Nucleus,
            Domain::Decaf,
        )
    }

    fn register_noop(ch: &XpcChannel, name: &str) {
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: name.into(),
                arg_types: vec!["adapter".into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
    }

    #[test]
    fn deferred_on_inproc_degrades_to_sync() {
        let k = Kernel::new();
        let ch = channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        for _ in 0..3 {
            ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
                .unwrap();
        }
        let s = ch.stats();
        assert_eq!(s.round_trips, 3, "no batching on InProc");
        assert_eq!(s.deferred_calls, 0);
        assert_eq!(ch.pending_deferred(), 0);
    }

    #[test]
    fn batched_flush_crosses_once_for_many_calls() {
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        for _ in 0..5 {
            ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
                .unwrap();
        }
        assert_eq!(ch.pending_deferred(), 5);
        assert_eq!(ch.stats().round_trips, 0, "nothing crossed yet");
        ch.flush(&k).unwrap();
        let s = ch.stats();
        assert_eq!(s.round_trips, 1, "five calls, one crossing");
        assert_eq!(s.one_way_crossings, 2);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.batched_calls, 5);
        assert_eq!(s.deferred_calls, 5);
        // Shared seen-table: the adapter graph crossed once, the four
        // repeats are back-references.
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 2);
    }

    #[test]
    fn sync_call_flushes_pending_deferred_first() {
        let k = Kernel::new();
        let ch = batched_channel();
        let order = Rc::new(RefCell::new(Vec::new()));
        for name in ["first", "second"] {
            let log = Rc::clone(&order);
            ch.register_proc(
                Domain::Decaf,
                ProcDef {
                    name: name.into(),
                    arg_types: vec![],
                    handler: Rc::new(move |_, _, _, _| {
                        log.borrow_mut().push(name);
                        XdrValue::Void
                    }),
                },
            )
            .unwrap();
        }
        ch.call_deferred(&k, Domain::Nucleus, "first", &[], &[])
            .unwrap();
        ch.call(&k, Domain::Nucleus, "second", &[], &[]).unwrap();
        assert_eq!(*order.borrow(), vec!["first", "second"]);
    }

    #[test]
    fn batched_queue_flushes_at_capacity() {
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        for _ in 0..crate::transport::BATCH_CAPACITY {
            ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
                .unwrap();
        }
        assert_eq!(ch.pending_deferred(), 0, "capacity reached, auto-flushed");
        assert_eq!(ch.stats().flushes, 1);
    }

    #[test]
    fn delta_marshals_only_dirty_fields_on_repeat() {
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);

        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        let first = ch.stats();
        assert!(first.full_objects >= 2, "first transfer is full");

        // Dirty one scalar; the repeat transfer should be far smaller.
        ch.heap(Domain::Nucleus)
            .borrow_mut()
            .set_scalar(adapter, "msg_enable", XdrValue::Int(7))
            .unwrap();
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        let second = ch.stats();
        let first_in = first.bytes_in;
        let second_in = second.bytes_in - first.bytes_in;
        assert!(
            second_in < first_in,
            "delta transfer ({second_in} B) must undercut full ({first_in} B)"
        );
        assert!(second.delta_objects >= 2, "repeat transfers are deltas");
        assert!(second.delta_fields_elided > 0);
        // The dirty field still arrived.
        let heap = ch.heap(Domain::Decaf);
        let h = heap.borrow();
        let decaf_adapter = h
            .iter()
            .find(|(_, o)| o.type_name() == "adapter")
            .map(|(a, _)| a)
            .unwrap();
        assert_eq!(
            h.scalar(decaf_adapter, "msg_enable").unwrap(),
            &XdrValue::Int(7)
        );
    }

    #[test]
    fn clean_repeat_elides_everything_but_headers() {
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        let after_first = ch.stats().bytes_in;
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        let second = ch.stats().bytes_in - after_first;
        // The clean subgraph is elided wholesale: only the adapter header
        // crosses (disc 4 + addr 8 + mode 4 + empty bitmap 4 = 20 bytes).
        assert_eq!(second, 20, "untouched graph costs only the root header");
    }

    #[test]
    fn deferred_fault_contained_and_counted() {
        let k = Kernel::new();
        let ch = batched_channel();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "boom".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, _| panic!("deferred crash")),
            },
        )
        .unwrap();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        ch.call_deferred(&k, Domain::Nucleus, "boom", &[], &[])
            .unwrap();
        // The flush survives the fault and later traffic still works.
        ch.flush(&k).unwrap();
        assert_eq!(ch.stats().faults, 1);
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
    }

    #[test]
    fn failed_batch_falls_back_to_per_call_execution() {
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let ran = Rc::new(Cell::new(0u32));
        let r = Rc::clone(&ran);
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "count".into(),
                arg_types: vec![],
                handler: Rc::new(move |_, _, _, _| {
                    r.set(r.get() + 1);
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
        let adapter = alloc_adapter(&ch);
        ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        ch.call_deferred(&k, Domain::Nucleus, "count", &[], &[])
            .unwrap();
        // Yank the first call's argument out from under the batch: the
        // group marshal hits DanglingAddr, but the second call must
        // still execute via the per-call fallback.
        ch.heap(Domain::Nucleus).borrow_mut().free(adapter);
        ch.flush(&k).unwrap();
        assert_eq!(ran.get(), 1, "independent deferred call still ran");
        assert_eq!(ch.stats().faults, 1, "the dangling call counted as a fault");
        assert_eq!(ch.pending_deferred(), 0);
    }

    #[test]
    fn deferred_unknown_proc_rejected_at_enqueue() {
        let k = Kernel::new();
        let ch = batched_channel();
        let err = ch
            .call_deferred(&k, Domain::Nucleus, "nope", &[], &[])
            .unwrap_err();
        assert!(matches!(err, XpcError::UnknownProc { .. }));
        assert_eq!(ch.pending_deferred(), 0);
        // On a launching channel too, and the error names what was asked
        // for.
        let err = async_channel()
            .call_deferred(&k, Domain::Nucleus, "nope", &[], &[])
            .unwrap_err();
        assert!(matches!(err, XpcError::UnknownProc { proc, .. } if proc == "nope"));
    }

    #[test]
    fn reset_end_reanchors_flush_deadline_to_surviving_calls() {
        // Regression for the flush_if_due off-by-one: a fault-recovery
        // reset drops the dead domain's deferred calls; the survivors'
        // deadline must then be measured from their own defer times, not
        // from the dropped (older) call the shared anchor used to track.
        const WINDOW: u64 = BATCH_DEADLINE_NS;
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        ch.register_proc(
            Domain::Nucleus,
            ProcDef {
                name: "writel".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
        // t=0: the decaf driver posts a register write (oldest call).
        ch.call_deferred(&k, Domain::Decaf, "writel", &[], &[])
            .unwrap();
        k.run_for(WINDOW / 2);
        // t=W/2: the nucleus defers an upcall.
        let adapter = alloc_adapter(&ch);
        ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        // The decaf end faults; its queued calls are dropped.
        ch.reset_end(Domain::Decaf).unwrap();
        assert_eq!(ch.pending_deferred(), 1, "nucleus call survives the reset");
        // t=W+1: past the dropped call's window, within the survivor's.
        k.run_for(WINDOW / 2 + 1);
        assert!(
            !ch.flush_if_due(&k).unwrap(),
            "survivor must wait out its own coalescing window"
        );
        // t=3W/2: the survivor's own window has now expired.
        k.run_for(WINDOW / 2);
        assert!(ch.flush_if_due(&k).unwrap());
        assert_eq!(ch.pending_deferred(), 0);
    }

    #[test]
    fn deferred_calls_with_the_wrong_objects_are_refused_where_they_are_made() {
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let writel = ProcDef::scalar("writel", |_, _| XdrValue::Void);
        ch.register_proc(Domain::Decaf, writel).unwrap();
        let (touch, writel) = (
            ch.resolve_proc(Domain::Nucleus, "touch").unwrap(),
            ch.resolve_proc(Domain::Nucleus, "writel").unwrap(),
        );
        let adapter = alloc_adapter(&ch);
        let refused = |declared, given| Err(XpcError::ArgCount { declared, given });
        let none: &[Option<CAddr>] = &[];
        for (proc, args, expected) in [
            (touch, none, refused(1, 0)),
            (touch, &[Some(adapter), Some(adapter)][..], refused(1, 2)),
            (writel, &[Some(adapter)][..], refused(0, 1)),
            (touch, &[Some(adapter)][..], Ok(None)),
            (writel, none, Ok(None)),
        ] {
            let call = ch.call_deferred_resolved(&k, Domain::Nucleus, proc, args, &[]);
            assert_eq!(call, expected);
        }
        assert_eq!(ch.pending_deferred(), 2, "only the well-formed calls park");
        ch.flush(&k).unwrap();
        assert_eq!((ch.stats().faults, ch.stats().flushes), (0, 1));
    }

    #[test]
    fn reset_end_clears_delta_state() {
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        // Fault recovery: the decaf end loses its heap. The next transfer
        // must re-send in full, not delta against vanished state.
        ch.reset_end(Domain::Decaf).unwrap();
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 2);
        let s = ch.stats();
        assert!(s.full_objects >= 4, "both transfers were full: {s:?}");
    }

    #[test]
    fn release_object_clears_peer_delta_state() {
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        // Release the decaf-side copy of the adapter.
        let heap = ch.heap(Domain::Decaf);
        let decaf_adapter = heap
            .borrow()
            .iter()
            .find(|(_, o)| o.type_name() == "adapter")
            .map(|(a, _)| a)
            .unwrap();
        ch.release_object(Domain::Decaf, decaf_adapter).unwrap();
        // The nucleus must not delta-encode the adapter against state the
        // decaf end just dropped.
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 2);
    }

    #[test]
    fn release_object_forgets_association() {
        let k = Kernel::new();
        let ch = channel();
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "touch".into(),
                arg_types: vec!["adapter".into()],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
        let adapter = alloc_adapter(&ch);
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        let decaf_heap_len = ch.heap(Domain::Decaf).borrow().len();
        assert_eq!(decaf_heap_len, 2);
        // Release the decaf-side adapter object explicitly.
        let assoc: Vec<_> = {
            let heap = ch.heap(Domain::Decaf);
            let h = heap.borrow();
            h.iter()
                .map(|(a, o)| (a, o.type_name().to_string()))
                .collect()
        };
        let adapter_local = assoc
            .iter()
            .find(|(_, t)| t == "adapter")
            .map(|(a, _)| *a)
            .unwrap();
        ch.release_object(Domain::Decaf, adapter_local).unwrap();
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 1);
        // The next call re-allocates it fresh.
        ch.call(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 2);
    }

    fn async_channel() -> XpcChannel {
        XpcChannel::new(
            spec(),
            MaskSet::full(),
            ChannelConfig::kernel_user_async(),
            Domain::Nucleus,
            Domain::Decaf,
        )
    }

    #[test]
    fn async_flush_launches_and_harvest_settles_overlap() {
        let k = Kernel::new();
        let ch = async_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        let t = ch
            .call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        assert_eq!(ch.tokens_outstanding(), 1);
        ch.flush(&k).unwrap();
        // The launch charged marshal work but left the two crossing
        // latencies (2 × (DOMAIN_CROSSING + BATCH_DOORBELL)) to harvest.
        let legs = 2 * (costs::DOMAIN_CROSSING_NS + costs::BATCH_DOORBELL_NS);
        assert_eq!(ch.stats().flushes, 1, "flush launched the batch");
        // Idle latency fully covers the crossings: harvest charges zero.
        k.run_for(legs);
        let busy_mid = k.snapshot().kernel_busy_ns;
        let resolved = ch.harvest(&k);
        assert_eq!(resolved, Vec::from_iter(t));
        assert_eq!(
            k.snapshot().kernel_busy_ns,
            busy_mid,
            "a fully covered crossing charges nothing at harvest"
        );
        let s = ch.stats();
        assert_eq!(s.overlap_ns, legs, "whole crossing was overlap");
        assert_eq!(s.tokens_issued, 1);
        assert_eq!(s.tokens_harvested, 1);
        assert_eq!(ch.tokens_outstanding(), 0);
    }

    #[test]
    fn async_immediate_harvest_charges_full_cost() {
        let k = Kernel::new();
        let ch = async_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        ch.flush(&k).unwrap();
        // No time passes between launch and harvest: zero overlap, the
        // full crossing latency lands as wait — exactly what Batched
        // would have charged at flush time.
        let busy_before = k.snapshot().kernel_busy_ns;
        ch.harvest(&k);
        let charged = k.snapshot().kernel_busy_ns - busy_before;
        assert_eq!(
            charged,
            2 * (costs::DOMAIN_CROSSING_NS + costs::BATCH_DOORBELL_NS)
        );
        assert_eq!(ch.stats().overlap_ns, 0);
    }

    #[test]
    fn call_deferred_issues_a_token_only_on_a_launching_channel() {
        let k = Kernel::new();
        for config in [
            ChannelConfig::kernel_user(),
            ChannelConfig::kernel_user_batched(),
        ] {
            let ch = XpcChannel::new(
                spec(),
                MaskSet::full(),
                config,
                Domain::Nucleus,
                Domain::Decaf,
            );
            register_noop(&ch, "touch");
            let adapter = alloc_adapter(&ch);
            let issued = ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[]);
            assert_eq!(issued, Ok(None), "{config:?}");
            ch.flush(&k).unwrap();
            assert!(ch.harvest(&k).is_empty(), "{config:?}: nothing launches");
            let s = ch.stats();
            let tokens = (s.tokens_issued, s.tokens_harvested, ch.tokens_outstanding());
            assert_eq!(tokens, (0, 0, 0), "{config:?}");
        }
        // On a launching channel the token stays on the ledger, parked
        // and then launched, until harvest settles it…
        let ch = async_channel();
        register_noop(&ch, "touch");
        let adapter = alloc_adapter(&ch);
        let t = ch
            .call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap()
            .expect("a launching channel issues a token");
        assert_eq!(ch.tokens_outstanding(), 1, "parked");
        ch.flush(&k).unwrap();
        assert_eq!(ch.tokens_outstanding(), 1, "launched, not yet harvested");
        assert_eq!(ch.harvest(&k), vec![t]);
        assert_eq!(ch.tokens_outstanding(), 0);
        // …or until recovery cancels it before it launches.
        let writel = ProcDef::scalar("writel", |_, _| XdrValue::Void);
        ch.register_proc(Domain::Nucleus, writel).unwrap();
        let dropped = ch.call_deferred(&k, Domain::Decaf, "writel", &[], &[]);
        assert!(dropped.unwrap().is_some_and(|d| d != t));
        assert_eq!(ch.tokens_outstanding(), 1);
        ch.reset_end(Domain::Decaf).unwrap();
        assert_eq!(ch.tokens_outstanding(), 0);
        let s = ch.stats();
        let tokens = (s.tokens_issued, s.tokens_harvested, s.tokens_cancelled);
        assert_eq!(tokens, (2, 1, 1));
    }

    #[test]
    fn a_launch_nested_in_a_launched_flush_carries_only_its_own_legs() {
        // A decaf handler, dispatched by a launched flush, defers a call
        // and then calls synchronously: the synchronous call flushes —
        // launches — the inner batch between the outer batch's two legs.
        use decaf_simkernel::decaf_trace::Tracer;
        let k = Kernel::new();
        let tracer = Tracer::new();
        k.set_tracer(Some(Rc::clone(&tracer)));
        let ch = async_channel();
        let writel = ProcDef::scalar("writel", |_, _| XdrValue::Void);
        let readl = ProcDef::scalar("readl", |_, _| XdrValue::UInt(0));
        ch.register_proc(Domain::Nucleus, writel).unwrap();
        ch.register_proc(Domain::Nucleus, readl).unwrap();
        let no_objects: [&str; 0] = [];
        let probe = ProcDef::entry("probe", no_objects, |k, ch, _, _| {
            ch.call_deferred(k, Domain::Decaf, "writel", &[], &[])
                .unwrap();
            ch.call(k, Domain::Decaf, "readl", &[], &[]).unwrap()
        });
        ch.register_proc(Domain::Decaf, probe).unwrap();
        ch.call_deferred(&k, Domain::Nucleus, "probe", &[], &[])
            .unwrap();
        ch.flush(&k).unwrap();
        assert_eq!(ch.harvest(&k).len(), 2, "both batches launched");
        let launch_costs: Vec<u64> = tracer
            .events()
            .iter()
            .filter(|e| (e.cat, e.name) == ("xpc.batch", "launch"))
            .flat_map(|e| e.args.iter().filter(|(arg, _)| *arg == "cost_ns"))
            .map(|&(_, cost)| cost)
            .collect();
        let leg = TransportKind::Async.crossing_cost_ns(true);
        assert_eq!(launch_costs, [2 * leg, 2 * leg], "inner, then outer");
    }

    #[test]
    fn reset_end_cancels_unlaunched_tokens() {
        let k = Kernel::new();
        let ch = async_channel();
        ch.register_proc(
            Domain::Nucleus,
            ProcDef {
                name: "writel".into(),
                arg_types: vec![],
                handler: Rc::new(|_, _, _, _| XdrValue::Void),
            },
        )
        .unwrap();
        register_noop(&ch, "touch");
        // The decaf driver posts a register write, then faults before it
        // launches: the token must resolve as cancelled, not leak.
        ch.call_deferred(&k, Domain::Decaf, "writel", &[], &[])
            .unwrap();
        let adapter = alloc_adapter(&ch);
        ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        assert_eq!(ch.tokens_outstanding(), 2);
        ch.reset_end(Domain::Decaf).unwrap();
        let s = ch.stats();
        assert_eq!(s.tokens_cancelled, 1, "the decaf call was cancelled");
        assert_eq!(ch.tokens_outstanding(), 1, "the nucleus call survives");
        ch.flush(&k).unwrap();
        ch.harvest(&k);
        let s = ch.stats();
        assert_eq!(s.tokens_issued, s.tokens_harvested + s.tokens_cancelled);
        assert_eq!(ch.tokens_outstanding(), 0);
    }

    #[test]
    fn failed_async_batch_resolves_tokens_via_fallback() {
        let k = Kernel::new();
        let ch = async_channel();
        register_noop(&ch, "touch");
        let ran = Rc::new(Cell::new(0u32));
        let r = Rc::clone(&ran);
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "count".into(),
                arg_types: vec![],
                handler: Rc::new(move |_, _, _, _| {
                    r.set(r.get() + 1);
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
        let adapter = alloc_adapter(&ch);
        ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        ch.call_deferred(&k, Domain::Nucleus, "count", &[], &[])
            .unwrap();
        // Yank the first call's argument: the batch launch fails and the
        // per-call fallback runs synchronously — tokens must still
        // resolve exactly once.
        ch.heap(Domain::Nucleus).borrow_mut().free(adapter);
        ch.flush(&k).unwrap();
        assert_eq!(ran.get(), 1);
        let s = ch.stats();
        assert_eq!(s.tokens_issued, 2);
        assert_eq!(s.tokens_harvested, 2, "fallback resolves synchronously");
        assert_eq!(ch.tokens_outstanding(), 0);
        assert!(ch.harvest(&k).is_empty(), "nothing was launched");
    }

    #[test]
    fn failed_return_leg_does_not_run_the_batch_again() {
        // Regression: `flush` took any group error for "failed to
        // marshal" and executed every call one by one — but the return
        // crossing fails *after* the handlers ran. Here `free_it` frees
        // its decaf-side copy, so the out-parameters cannot marshal.
        for config in [
            ChannelConfig::kernel_user_batched(),
            ChannelConfig::kernel_user_async(),
        ] {
            let k = Kernel::new();
            let ch = XpcChannel::new(
                spec(),
                MaskSet::full(),
                config,
                Domain::Nucleus,
                Domain::Decaf,
            );
            let ran = Rc::new(Cell::new(0u32));
            let r = Rc::clone(&ran);
            let count = ProcDef::scalar("count", move |_, _| {
                r.set(r.get() + 1);
                XdrValue::Void
            });
            ch.register_proc(Domain::Decaf, count).unwrap();
            let free_it = ProcDef::entry("free_it", ["adapter"], |_, ch, args, _| {
                ch.heap(Domain::Decaf).borrow_mut().free(args[0].unwrap());
                XdrValue::Void
            });
            ch.register_proc(Domain::Decaf, free_it).unwrap();
            let adapter = alloc_adapter(&ch);
            ch.call_deferred(&k, Domain::Nucleus, "count", &[], &[])
                .unwrap();
            ch.call_deferred(&k, Domain::Nucleus, "free_it", &[Some(adapter)], &[])
                .unwrap();
            ch.flush(&k).unwrap();
            assert_eq!(ran.get(), 1, "{config:?}: each deferred call runs once");
            let s = ch.stats();
            assert_eq!(s.faults, 1, "{config:?}: the lost return leg is one fault");
            assert_eq!((s.flushes, s.round_trips), (0, 0), "nothing completed");
            // Nothing was launched; any tokens resolved with the group.
            assert!(ch.harvest(&k).is_empty());
            let tokens = 2 * config.transport.launches() as u64;
            assert_eq!((s.tokens_issued, s.tokens_harvested), (tokens, tokens));
            assert_eq!(ch.tokens_outstanding(), 0);
            // The channel still works.
            ch.call(&k, Domain::Nucleus, "count", &[], &[]).unwrap();
            assert_eq!(ran.get(), 2);
        }
    }

    #[test]
    fn async_busy_time_never_exceeds_batched() {
        // The acceptance property in miniature: the same deferred
        // workload, paced identically, costs no more busy time on async
        // than on batched — uncovered ≤ full cost by construction.
        let run = |config: ChannelConfig| {
            let k = Kernel::new();
            let ch = XpcChannel::new(
                spec(),
                MaskSet::full(),
                config,
                Domain::Nucleus,
                Domain::Decaf,
            );
            register_noop(&ch, "touch");
            let adapter = alloc_adapter(&ch);
            for _ in 0..40 {
                ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
                    .unwrap();
                k.run_for(5_000);
                ch.flush_if_due(&k).unwrap();
            }
            ch.flush(&k).unwrap();
            ch.harvest(&k);
            let snap = k.snapshot();
            (snap.kernel_busy_ns + snap.user_busy_ns, ch.stats())
        };
        let (batched_busy, _) = run(ChannelConfig::kernel_user_batched());
        let (async_busy, s) = run(ChannelConfig::kernel_user_async());
        assert!(
            async_busy <= batched_busy,
            "async ({async_busy}) must not exceed batched ({batched_busy})"
        );
        assert!(s.overlap_ns > 0, "paced workload hides crossing latency");
        assert_eq!(s.tokens_issued, s.tokens_harvested + s.tokens_cancelled);
    }

    #[test]
    fn deadline_wakeup_flushes_idle_batched_channel() {
        // Regression: a deadline without an event. A lone deferred call
        // parks in the batch; if no further call or poll ever arrives,
        // nothing evaluates `flush_if_due` and the call waits forever.
        // With wakeups armed, a kernel timer fires *at* the deadline and
        // flushes from a work item — no manual polling below.
        const WINDOW: u64 = BATCH_DEADLINE_NS;
        let k = Kernel::new();
        let ch = Rc::new(batched_channel());
        let ran = Rc::new(Cell::new(0u32));
        let r = Rc::clone(&ran);
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "count".into(),
                arg_types: vec![],
                handler: Rc::new(move |_, _, _, _| {
                    r.set(r.get() + 1);
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
        ch.arm_deadline_wakeups(&k);
        ch.call_deferred(&k, Domain::Nucleus, "count", &[], &[])
            .unwrap();
        assert_eq!(ch.pending_deferred(), 1, "the call parks in the batch");
        assert_eq!(ran.get(), 0);
        // Idle gap only: no call, no flush_if_due. The armed timer must
        // carry the flush on its own.
        k.run_for(WINDOW * 2);
        assert_eq!(ran.get(), 1, "deadline flush fired from the timer");
        assert_eq!(ch.pending_deferred(), 0);
        assert_eq!(ch.stats().flushes, 1);
        assert!(k.violations().is_empty(), "flush ran in process context");
    }

    #[test]
    fn deadline_wakeup_flushes_idle_async_channel() {
        // Same latent bug on the completion transport: a parked
        // deferred call whose caller went to do other work. The timer
        // launches the batch at the deadline; the token resolves after a
        // harvest without the caller ever re-entering the channel.
        const WINDOW: u64 = BATCH_DEADLINE_NS;
        let k = Kernel::new();
        let ch = Rc::new(async_channel());
        let ran = Rc::new(Cell::new(0u32));
        let r = Rc::clone(&ran);
        ch.register_proc(
            Domain::Decaf,
            ProcDef {
                name: "count".into(),
                arg_types: vec![],
                handler: Rc::new(move |_, _, _, _| {
                    r.set(r.get() + 1);
                    XdrValue::Void
                }),
            },
        )
        .unwrap();
        ch.arm_deadline_wakeups(&k);
        let token = ch
            .call_deferred(&k, Domain::Nucleus, "count", &[], &[])
            .unwrap();
        assert_eq!(ch.pending_deferred(), 1);
        k.run_for(WINDOW * 2);
        assert_eq!(ch.pending_deferred(), 0, "timer launched the batch");
        assert_eq!(ran.get(), 1, "handler ran from the deadline flush");
        assert!(ch.stats().flushes >= 1);
        assert_eq!(ch.harvest(&k), Vec::from_iter(token));
        assert_eq!(ch.tokens_outstanding(), 0);
        // The wakeup is one-shot per parked batch: nothing queued now, so
        // letting more virtual time pass must not re-fire or flush again.
        let flushes = ch.stats().flushes;
        k.run_for(WINDOW * 4);
        assert_eq!(
            ch.stats().flushes,
            flushes,
            "no spurious re-fires when idle"
        );
    }

    // ------------------------------------------- the resolved crossing

    /// What one zero-object crossing costs, per configuration, read at
    /// 224f247 — before procedures were slots, doorbells resolved once
    /// and object-free legs skipped the marshaler. One row per step
    /// ([`zero_object_steps`]): kernel busy ns, user busy ns, bytes in,
    /// bytes out, one-way crossings, round trips, tokens issued, tokens
    /// harvested. The handler charges 7 user ns so dispatch shows.
    type Row = [u64; 8];
    const SYNC: [Row; 2] = [[4024, 4031, 4, 4, 2, 1, 0, 0]; 2];
    const BATCHED: [Row; 2] = [
        [4274, 4281, 4, 4, 2, 1, 0, 0],
        [4314, 4257, 4, 0, 2, 1, 0, 0],
    ];
    const ASYNC: [Row; 3] = [
        [4274, 4281, 4, 4, 2, 1, 0, 0],
        [64, 7, 4, 0, 2, 1, 1, 0],
        // The harvest settles this launch and the previous step's.
        [8564, 7, 4, 0, 2, 1, 1, 2],
    ];
    const SAME_PROCESS: [Row; 2] = [[24, 31, 4, 4, 2, 1, 0, 0]; 2];

    /// The trace of the same steps at 224f247, as `phase cat/name(args)`.
    const SYNC_TRACE: &str = "B xpc/call() i xpc.crossing/inproc(4000,1) \
        i xpc.crossing/inproc(4000,1) E xpc/call() B xpc/call() \
        i xpc.crossing/inproc(4000,1) i xpc.crossing/inproc(4000,1) E xpc/call()";
    const BATCHED_TRACE: &str = "B xpc/call() i xpc.crossing/batched(4250,1) \
        i xpc.crossing/batched(4250,1) E xpc/call() B xpc/flush() \
        i xpc.crossing/batched(4250,1) i xpc.crossing/batched(4250,1) E xpc/flush()";
    const ASYNC_TRACE: &str = "B xpc/call() i xpc.crossing/async(4250,1) \
        i xpc.crossing/async(4250,1) E xpc/call() B xpc/flush() \
        i xpc.batch/launch(1,1,8500) E xpc/flush() B xpc/flush() \
        i xpc.batch/launch(1,2,8500) E xpc/flush() B xpc/harvest() \
        i xpc.batch/harvest(1,71,8429) i xpc.batch/harvest(1,8429,71) E xpc/harvest()";
    const SAME_PROCESS_TRACE: &str = "B xpc/call() i xpc.crossing/inproc(0,0) \
        i xpc.crossing/inproc(0,0) E xpc/call() B xpc/call() \
        i xpc.crossing/inproc(0,0) i xpc.crossing/inproc(0,0) E xpc/call()";

    /// One zero-object `call`, one `call_deferred` + `flush`, and on an
    /// async transport one more `call_deferred` + `flush` + `harvest`,
    /// traced: the per-step counter deltas and the event sequence.
    fn zero_object_steps(config: ChannelConfig) -> (Vec<Row>, String) {
        use decaf_simkernel::decaf_trace::{Phase, Tracer};
        let k = Kernel::new();
        let tracer = Tracer::new();
        k.set_tracer(Some(Rc::clone(&tracer)));
        let ch = XpcChannel::new(
            spec(),
            MaskSet::full(),
            config,
            Domain::Nucleus,
            Domain::Decaf,
        );
        let bell = ProcDef::scalar("bell", |k, _| {
            k.charge_user(7);
            XdrValue::Int(0)
        });
        ch.register_proc(Domain::Decaf, bell).unwrap();
        let mut rows = Vec::new();
        let mut before = (k.snapshot(), ch.stats());
        let mut step_done = || {
            let (snap, s) = (k.snapshot(), ch.stats());
            let (was, b) = before;
            rows.push([
                snap.kernel_busy_ns - was.kernel_busy_ns,
                snap.user_busy_ns - was.user_busy_ns,
                s.bytes_in - b.bytes_in,
                s.bytes_out - b.bytes_out,
                s.one_way_crossings - b.one_way_crossings,
                s.round_trips - b.round_trips,
                s.tokens_issued - b.tokens_issued,
                s.tokens_harvested - b.tokens_harvested,
            ]);
            before = (snap, s);
        };
        let count = [XdrValue::UInt(3)];
        ch.call(&k, Domain::Nucleus, "bell", &[], &count).unwrap();
        step_done();
        ch.call_deferred(&k, Domain::Nucleus, "bell", &[], &count)
            .unwrap();
        ch.flush(&k).unwrap();
        step_done();
        if config.transport.launches() {
            ch.call_deferred(&k, Domain::Nucleus, "bell", &[], &count)
                .unwrap();
            ch.flush(&k).unwrap();
            ch.harvest(&k);
            step_done();
        }
        let events: Vec<String> = tracer
            .events()
            .iter()
            .map(|e| {
                let phase = match e.phase {
                    Phase::Begin => "B",
                    Phase::End => "E",
                    _ => "i",
                };
                let args: Vec<String> = e.args.iter().map(|(_, v)| v.to_string()).collect();
                format!("{phase} {}/{}({})", e.cat, e.name, args.join(","))
            })
            .collect();
        (rows, events.join(" "))
    }

    #[test]
    fn zero_object_crossings_cost_and_trace_what_they_did_at_224f247() {
        let cases: [(ChannelConfig, &[Row], &str); 6] = [
            (ChannelConfig::kernel_user(), &SYNC, SYNC_TRACE),
            (
                ChannelConfig::kernel_user_batched(),
                &BATCHED,
                BATCHED_TRACE,
            ),
            (ChannelConfig::kernel_user_async(), &ASYNC, ASYNC_TRACE),
            (
                ChannelConfig::kernel_user_shmring(),
                &BATCHED,
                BATCHED_TRACE,
            ),
            (
                ChannelConfig::kernel_user_async_shmring(),
                &ASYNC,
                ASYNC_TRACE,
            ),
            (
                ChannelConfig {
                    domain_crossing: false,
                    ..ChannelConfig::kernel_user()
                },
                &SAME_PROCESS,
                SAME_PROCESS_TRACE,
            ),
        ];
        for (config, rows, trace) in cases {
            let (got_rows, got_trace) = zero_object_steps(config);
            assert_eq!(got_rows, rows, "{config:?}");
            let want: Vec<&str> = trace.split_whitespace().collect();
            assert_eq!(got_trace, want.join(" "), "{config:?}");
        }
    }

    #[test]
    fn requeued_handles_survive_reset_end_with_tokens_conserved() {
        // The `recover_shard` sequence on one channel: parked calls carry
        // their procedure as a slot handle, are taken out, the dead end is
        // reset, and the survivors requeued — same handle, same token.
        let k = Kernel::new();
        let ch = async_channel();
        let ran = Rc::new(Cell::new(0u32));
        let r = Rc::clone(&ran);
        let count = ProcDef::scalar("count", move |_, _| {
            r.set(r.get() + 1);
            XdrValue::Void
        });
        ch.register_proc(Domain::Decaf, count).unwrap();
        ch.register_proc(
            Domain::Nucleus,
            ProcDef::scalar("down", |_, _| XdrValue::Void),
        )
        .unwrap();
        let up = ch.resolve_proc(Domain::Nucleus, "count").unwrap();
        for _ in 0..3 {
            ch.call_deferred(&k, Domain::Nucleus, "count", &[], &[])
                .unwrap();
        }
        // One call from the end that is about to die.
        ch.call_deferred(&k, Domain::Decaf, "down", &[], &[])
            .unwrap();
        let parked = ch.take_deferred();
        assert_eq!(parked.len(), 4);
        assert!(parked[..3].iter().all(|c| c.proc == up), "the handle form");
        let tokens: Vec<_> = parked.iter().map(|c| c.token).collect();
        ch.reset_end(Domain::Decaf).unwrap();
        let mut died = Vec::new();
        for call in parked {
            if call.from == Domain::Decaf {
                died.extend(call.token);
            } else {
                ch.requeue_deferred(&k, call).unwrap();
            }
        }
        ch.cancel_tokens(&died);
        let requeued = ch.take_deferred();
        let kept: Vec<_> = requeued.iter().map(|c| c.token).collect();
        assert_eq!(kept, tokens[..3], "requeuing never re-issues");
        for call in requeued {
            ch.requeue_deferred(&k, call).unwrap();
        }
        ch.flush(&k).unwrap();
        assert_eq!(ch.harvest(&k).len(), 3);
        assert_eq!(ran.get(), 3, "each survivor ran exactly once");
        let s = ch.stats();
        assert_eq!(
            (s.tokens_issued, s.tokens_harvested, s.tokens_cancelled),
            (4, 3, 1)
        );
        assert_eq!(ch.tokens_outstanding(), 0);
        // A handle that is not a slot of the target end is refused.
        let stray = DeferredCall {
            from: Domain::Nucleus,
            proc: ProcHandle(99),
            args: vec![],
            scalars: vec![],
            token: None,
        };
        let err = ch.requeue_deferred(&k, stray).unwrap_err();
        assert!(matches!(err, XpcError::UnknownProc { .. }));
    }

    #[test]
    fn doorbell_and_object_call_in_one_batch_share_one_wire_and_seen_table() {
        let touches_only = {
            let k = Kernel::new();
            let ch = batched_channel();
            register_noop(&ch, "touch");
            let adapter = alloc_adapter(&ch);
            for _ in 0..2 {
                ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
                    .unwrap();
            }
            ch.flush(&k).unwrap();
            ch.stats()
        };
        let k = Kernel::new();
        let ch = batched_channel();
        register_noop(&ch, "touch");
        let rung = Rc::new(Cell::new(0u32));
        let r = Rc::clone(&rung);
        let bell = ProcDef::scalar("bell", move |_, s| {
            r.set(s[0].as_uint().unwrap());
            XdrValue::Void
        });
        ch.register_proc(Domain::Decaf, bell).unwrap();
        let adapter = alloc_adapter(&ch);
        ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        ch.call_deferred(&k, Domain::Nucleus, "bell", &[], &[XdrValue::UInt(5)])
            .unwrap();
        ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
            .unwrap();
        ch.flush(&k).unwrap();
        let s = ch.stats();
        assert_eq!(rung.get(), 5, "the doorbell ran, with its scalar");
        assert_eq!((s.flushes, s.round_trips, s.batched_calls), (1, 1, 3));
        // One wire, one seen-table: the second `touch` is still a
        // back-reference, and the doorbell adds only its scalar.
        assert_eq!(ch.heap(Domain::Decaf).borrow().len(), 2);
        assert_eq!(s.bytes_in, touches_only.bytes_in + 4);
        assert_eq!(s.bytes_out, touches_only.bytes_out);
        assert_eq!(s.full_objects, touches_only.full_objects);
    }

    // ------------------------------------------- the launched doorbell

    thread_local! {
        /// Forces every group crossing on this thread onto the full
        /// marshaling path ([`XpcChannel::full_crossing_forced`]).
        pub(super) static FULL_CROSSING: Cell<bool> = const { Cell::new(false) };
    }

    /// Everything a doorbell may leave behind on its channel and kernel.
    type End = (
        String,
        ChannelStats,
        decaf_simkernel::clock::ClockSnapshot,
        Vec<CompletionToken>,
        usize,
        Option<bool>,
        Vec<decaf_simkernel::decaf_trace::TraceEvent>,
    );

    /// How [`ring_once`] rings its doorbell.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ring {
        /// Parked, then flushed.
        Parked,
        /// Through [`XpcChannel::launch_resolved`].
        Launched,
        /// Launched, with every group crossing forced onto the full
        /// marshaling path: the crossing an object-free group took
        /// before it crossed bare.
        LaunchedFull,
    }

    /// Rings a doorbell on a fresh, traced channel of `config` as `how`
    /// says, optionally behind a parked control call and with deadline
    /// wakeups armed. The bell's handler returns (`0`), parks a call of
    /// its own (`1`), panics (`2`) or parks a call that parks itself
    /// again forever (`3`); or the bell declares an object argument it
    /// is rung without (`4`), which the call refuses. Then lets time
    /// pass, harvests, and lets the wakeup timer come due.
    fn ring_once(config: ChannelConfig, wakeups: bool, parked: bool, body: u8, how: Ring) -> End {
        FULL_CROSSING.with(|f| f.set(how == Ring::LaunchedFull));
        use decaf_simkernel::decaf_trace::Tracer;
        let k = Kernel::new();
        let tracer = Tracer::new();
        k.set_tracer(Some(Rc::clone(&tracer)));
        let ch = Rc::new(XpcChannel::new(
            spec(),
            MaskSet::full(),
            config,
            Domain::Nucleus,
            Domain::Decaf,
        ));
        register_noop(&ch, "touch");
        let writel = ProcDef::scalar("writel", |_, _| XdrValue::Void);
        ch.register_proc(Domain::Nucleus, writel).unwrap();
        let no_objects: [&str; 0] = [];
        let again = ProcDef::entry("again", no_objects, |k, ch, _, _| {
            drop(ch.call_deferred(k, Domain::Decaf, "again", &[], &[]));
            XdrValue::Void
        });
        ch.register_proc(Domain::Nucleus, again).unwrap();
        let declared: &[&str] = if body == 4 { &["adapter"] } else { &[] };
        let bell = ProcDef::entry("bell", declared.iter().copied(), move |k, ch, _, s| {
            k.charge_user(7);
            match body {
                0 => {}
                1 => drop(ch.call_deferred(k, Domain::Decaf, "writel", &[], &[])),
                2 => panic!("doorbell handler fault"),
                _ => drop(ch.call_deferred(k, Domain::Decaf, "again", &[], &[])),
            }
            s[0].clone()
        });
        ch.register_proc(Domain::Decaf, bell).unwrap();
        if wakeups {
            ch.arm_deadline_wakeups(&k);
        }
        k.run_for(1_000);
        if parked {
            let adapter = alloc_adapter(&ch);
            ch.call_deferred(&k, Domain::Nucleus, "touch", &[Some(adapter)], &[])
                .unwrap();
            k.run_for(1_000);
        }
        let bell = ch.resolve_proc(Domain::Nucleus, "bell").unwrap();
        let count = [XdrValue::UInt(3)];
        let rung = match how {
            Ring::Parked => ch
                .call_deferred_resolved(&k, Domain::Nucleus, bell, &[], &count)
                .and_then(|_| ch.flush(&k)),
            _ => ch.launch_resolved(&k, Domain::Nucleus, bell, &count),
        };
        let timer = ch.wakeup.get().map(|w| k.timer_pending(w.timer));
        k.run_for(3_000);
        let harvested = ch.harvest(&k);
        let outstanding = ch.tokens_outstanding();
        k.run_for(2 * BATCH_DEADLINE_NS);
        let events = tracer.events();
        FULL_CROSSING.with(|f| f.set(false));
        (
            format!("{rung:?}"),
            ch.stats(),
            k.snapshot(),
            harvested,
            outstanding,
            timer,
            events,
        )
    }

    #[test]
    fn a_launched_doorbell_ends_where_a_parked_and_flushed_one_does() {
        let kinds = [
            ChannelConfig::kernel_user_batched(),
            ChannelConfig::kernel_user_async(),
        ];
        for config in kinds {
            for (wakeups, parked, body) in (0..20).map(|i| (i & 1 == 1, i & 2 == 2, i as u8 / 4)) {
                let case = (config.transport, wakeups, parked, body);
                let new = ring_once(config, wakeups, parked, body, Ring::Launched);
                // Against the bell parked and flushed, and against the
                // same launch forced across the full marshaling path:
                // the bare crossing leaves what each of them left.
                for how in [Ring::Parked, Ring::LaunchedFull] {
                    let old = ring_once(config, wakeups, parked, body, how);
                    assert_eq!(new.0, old.0, "{case:?} {how:?}: result");
                    assert_eq!(new.1, old.1, "{case:?} {how:?}: channel stats");
                    assert_eq!(new.2, old.2, "{case:?} {how:?}: clocks");
                    assert_eq!(new.3, old.3, "{case:?} {how:?}: harvested tokens");
                    assert_eq!(new.4, old.4, "{case:?} {how:?}: outstanding");
                    assert_eq!(new.5, old.5, "{case:?} {how:?}: wakeup timer pending");
                    assert_eq!(new.6, old.6, "{case:?} {how:?}: trace events");
                }
                if body == 4 {
                    // A bell that declares an object it is not given is
                    // refused at the call, whichever way it is rung:
                    // nothing parks, launches or faults.
                    let refused = Err::<(), _>(XpcError::ArgCount {
                        declared: 1,
                        given: 0,
                    });
                    assert_eq!(new.0, format!("{refused:?}"), "{case:?}");
                    // Only the call parked before it was ever deferred.
                    let s = new.1;
                    assert_eq!((s.faults, s.deferred_calls), (0, parked as u64), "{case:?}");
                    continue;
                }
                assert_eq!(new.1.faults, (body == 2) as u64, "{case:?}");
                // The handler that re-defers forever leaves its call
                // parked, token and all; every other case closes.
                assert_eq!(new.0 == "Ok(())", body != 3, "{case:?}: {}", new.0);
                assert_eq!(
                    new.4 == 0,
                    body != 3 || !config.transport.launches(),
                    "{case:?}"
                );
            }
        }
    }
}
