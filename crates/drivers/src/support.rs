//! Shared glue for the driver builds: the image, channel and entry-point
//! plumbing of the decaf builds, the native and kernel-path split handle
//! shapes, and the one load record every install writes and every build's
//! `remove` runs.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use decaf_simkernel::kernel::{IrqHandler, WorkBody};
use decaf_simkernel::{KError, KResult, Kernel, MmioRegion, TimerId};
use decaf_slicer::SlicePlan;
use decaf_xdr::graph::CAddr;
use decaf_xdr::plan::FieldHandle;
use decaf_xdr::XdrValue;
use decaf_xpc::{
    ChannelConfig, DataPathChannel, Domain, NuclearRuntime, ProcDef, ProcHandle, ProcHandler,
    ShardedChannel, XpcChannel, XpcResult,
};

/// How a shmring NIC build collects received frames.
///
/// Two explicit modes with opposite cost shapes: interrupt-driven
/// receive pays interrupt entry plus a doorbell crossing per batch but
/// is free when the line is quiet; poll-mode receive masks the receive
/// interrupt (NAPI-style, after the first one) and probes the ring on a
/// fixed virtual-time grid, paying [`decaf_simkernel::costs::POLL_SPIN_NS`]
/// per probe whether or not traffic arrived. Poll wins once the offered
/// rate is high enough that probes rarely miss — the crossover the
/// rx-mode ablation sweeps out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RxMode {
    /// Doorbell-interrupt receive: each hardware RX interrupt posts
    /// harvested frames and rings the data-path doorbell from a work
    /// item (the default, matching the kernel driver's shape).
    #[default]
    Interrupt,
    /// Budgeted poll receive: the first RX interrupt masks further RX
    /// interrupts; from then on a periodic tick probes the ring with
    /// [`RingEnd::poll_and_reclaim`](decaf_xpc::RingEnd::poll_and_reclaim)
    /// under [`RX_POLL_BUDGET`].
    Poll,
}

/// Virtual-time period of the poll-mode receive tick.
pub const RX_POLL_TICK_NS: u64 = 50_000;

/// Descriptors one poll-mode tick may consume before yielding.
pub const RX_POLL_BUDGET: usize = 64;

/// Builds the channels between nucleus and decaf driver from a
/// DriverSlicer plan: `shards` parallel channels of `config` — a
/// single-channel build is one shard and takes `shard(0)`. The spec and
/// masks are exactly what the slicer generated from the driver's mini-C
/// source, compiled once into the image's marshaling plan: every shard
/// shares the image's spec and plan, and an install compiles nothing.
///
/// The default build of all five drivers routes its configuration and
/// control paths through [`ChannelConfig::kernel_user_batched`]:
/// register writes defer into the transport queue and flush in one
/// crossing, and a shared structure that crosses repeatedly marshals
/// only its dirty fields.
///
/// Each end's procedure table is sized once, for what the image
/// declares: its user entry points at the decaf end, its kernel imports
/// at the nucleus end.
pub fn channels_from_plan(
    plan: &SlicePlan,
    config: ChannelConfig,
    shards: usize,
) -> Rc<ShardedChannel> {
    let channels = ShardedChannel::with_plan(
        Arc::clone(&plan.spec),
        Arc::clone(&plan.marshal),
        config,
        Domain::Nucleus,
        Domain::Decaf,
        shards,
    );
    for i in 0..shards {
        let ch = channels.shard(i);
        ch.reserve_procs(Domain::Decaf, plan.user_entry_points.len());
        ch.reserve_procs(Domain::Nucleus, plan.kernel_imports_from_user.len());
    }
    channels
}

/// What one driver's handlers name in its image, resolved once per image
/// against the image's spec: the `E` user entry points they implement,
/// by index into the image's list, and `F` fields of the root struct
/// they read or write, by handle — so a load looks up no name at all.
/// Registering through it is refused on a channel built from another
/// spec, as [`XpcChannel::register_resolved`] refuses foreign types, and
/// the field handles were resolved against the spec that check compares.
pub(crate) struct Linked<const E: usize, const F: usize> {
    plan: Arc<SlicePlan>,
    /// Indices into `plan.user_entry_points`, in the order named.
    pub(crate) entries: [usize; E],
    /// The fields' handles, in the order named.
    pub(crate) fields: [FieldHandle; F],
}

impl<const E: usize, const F: usize> Linked<E, F> {
    /// Resolves the user entry points `eps` and the fields `fields` of
    /// struct `ty` against `plan`. The sources are static, so a name the
    /// image lacks is a bug in this repository.
    pub(crate) fn new(plan: &Arc<SlicePlan>, eps: [&str; E], ty: &str, fields: [&str; F]) -> Self {
        let all = &plan.user_entry_points;
        let entry = |name: &str| all.iter().position(|ep| *ep.name == *name);
        let field = |name: &str| plan.spec.layout(ty).ok()?.handle(name);
        Linked {
            plan: Arc::clone(plan),
            entries: eps.map(|n| entry(n).expect("a driver names its image's entry points")),
            fields: fields.map(|n| field(n).expect("a driver names its image's fields")),
        }
    }

    /// Registers the decaf-side handler of user entry point `entry` (one
    /// of [`Linked::entries`]) — the stub DriverSlicer generates
    /// (§3.1.1). The object-argument types are the image's, not the
    /// caller's; `handler` receives the entry point's object already
    /// checked (a null object answers `-EINVAL` here, before the handler
    /// runs). Returns the handle the nucleus upcalls it by.
    pub(crate) fn register(
        &self,
        channel: &XpcChannel,
        entry: usize,
        handler: impl Fn(&Kernel, &XpcChannel, CAddr, &[XdrValue]) -> XdrValue + 'static,
    ) -> XpcResult<ProcHandle> {
        let entry = &self.plan.user_entry_points[entry];
        let stub: ProcHandler = Rc::new(move |k, ch, args, scalars| match args.first() {
            Some(&Some(obj)) => handler(k, ch, obj, scalars),
            _ => XdrValue::Int(KError::Inval.errno()),
        });
        // The stub's name and types are the image's own: a shared pointer
        // and the ids resolved once per image.
        let (name, types) = (&entry.name, entry.object_ids);
        channel.register_resolved(Domain::Decaf, name, types, &self.plan.spec, stub)
    }

    /// Registers user entry point `entry`'s one body: `body` run on an
    /// [`Over`] of the channel and object each upcall brings, this
    /// link's fields and the nucleus imports `imports` (the driver's
    /// import table, in its order). The body's errno is the answer.
    pub(crate) fn register_body<const N: usize>(
        &'static self,
        channel: &XpcChannel,
        entry: usize,
        imports: [ProcHandle; N],
        body: Body,
    ) -> XpcResult<ProcHandle> {
        self.register(channel, entry, move |k, ch, root, scalars| {
            let fields = &self.fields;
            let io = Over {
                ch,
                root,
                fields,
                imports: &imports,
            };
            XdrValue::Int(body(&io, k, scalars))
        })
    }
}

/// What one install does to the kernel, written by that install as it
/// loads so the build's `remove` undoes exactly that: the module, the IRQ
/// line, the timers it arms and the call that drops the name it
/// registers. An install creates it first and loads, guards its upcalls
/// and arms its timers through it; every build's `remove` runs it, so
/// unload is said once.
pub(crate) struct Unload {
    module: &'static str,
    irq: u32,
    timers: Vec<TimerId>,
    unregister: fn(&Kernel, &str),
}

impl Unload {
    /// The record of an install that loads `module`, takes IRQ `irq` and
    /// registers with what `unregister` drops.
    pub(crate) fn new(module: &'static str, irq: u32, unregister: fn(&Kernel, &str)) -> Self {
        Unload {
            module,
            irq,
            timers: Vec::new(),
            unregister,
        }
    }

    /// `insmod` of a native build: runs `init` as the module's init and
    /// returns the build's handle — `name`, registered over the hardware
    /// state `hw` and the device model `dev` — with the measured load
    /// latency.
    pub(crate) fn native<H, D>(
        self,
        kernel: &Kernel,
        name: &str,
        (hw, dev): (Rc<H>, Rc<RefCell<D>>),
        init: impl FnOnce(&Kernel, &Unload) -> KResult<()>,
    ) -> KResult<Native<H, D>> {
        let init_latency_ns = self.init(kernel, |k| init(k, &self))?;
        Ok(Native {
            kernel: kernel.clone(),
            hw,
            name: name.to_string(),
            init_latency_ns,
            dev,
            unload: self,
        })
    }

    /// `insmod` of a split build over `channels` (built from `plan`):
    /// allocates the driver's root object (`root_type`, homed on the
    /// control shard), builds the nuclear runtime on that shard's channel,
    /// runs `init` with both as the module's init and returns the build's
    /// handle, as [`Unload::native`] does. An `init` error leaves no
    /// module behind.
    pub(crate) fn split<H, D>(
        self,
        kernel: &Kernel,
        name: &str,
        (hw, dev): (Rc<H>, Rc<RefCell<D>>),
        (plan, channels): (Arc<SlicePlan>, &ShardedChannel),
        root_type: &str,
        init: impl FnOnce(&Kernel, CAddr, &Rc<NuclearRuntime>, &Unload) -> KResult<()>,
    ) -> KResult<Split<H, D>> {
        let channel = Rc::clone(channels.shard(0));
        let nuc = self.nuc(&channel);
        let (root, init_latency_ns) = self.load(kernel, channels, root_type, |k, root| {
            init(k, root, &nuc, &self)
        })?;
        Ok(Split {
            kernel: kernel.clone(),
            hw,
            name: name.to_string(),
            channel,
            nuc,
            root,
            init_latency_ns,
            plan,
            dev,
            unload: self,
        })
    }

    /// `insmod`: runs `init` as the module's init and returns the
    /// measured load latency.
    pub(crate) fn init(
        &self,
        kernel: &Kernel,
        init: impl FnOnce(&Kernel) -> KResult<()>,
    ) -> KResult<u64> {
        kernel.insmod(self.module, init)
    }

    /// `insmod` of a split build: allocates the driver's root object
    /// (`root_type`, homed on the control shard's nucleus heap — heap
    /// allocation charges no virtual time, so it needs no place inside the
    /// measured region) and runs `init` with it as the module's init.
    /// Returns the object and the measured load latency; an `init` error
    /// leaves no module behind.
    pub(crate) fn load(
        &self,
        kernel: &Kernel,
        channels: &ShardedChannel,
        root_type: &str,
        init: impl FnOnce(&Kernel, CAddr) -> KResult<()>,
    ) -> KResult<(CAddr, u64)> {
        let root = channels
            .alloc_shared_at(0, Domain::Nucleus, root_type)
            .map_err(|_| KError::NoMem)?;
        let init_latency_ns = kernel.insmod(self.module, |k| init(k, root))?;
        Ok((root, init_latency_ns))
    }

    /// Requests the build's IRQ line for `handler`.
    pub(crate) fn request_irq(&self, kernel: &Kernel, handler: IrqHandler) -> KResult<()> {
        kernel.request_irq(self.irq, self.module, handler)
    }

    /// The nuclear runtime guarding upcalls over `channel`: it masks the
    /// build's IRQ line while the decaf driver runs.
    pub(crate) fn nuc(&self, channel: &Rc<XpcChannel>) -> Rc<NuclearRuntime> {
        Rc::new(NuclearRuntime::new(Rc::clone(channel), Some(self.irq)))
    }

    /// Creates the build's periodic timer `name`, which defers to `body`
    /// whenever `guard` gives it an argument word
    /// ([`Kernel::work_timer`]), arms it every `period_ns` and keeps it
    /// for `remove`.
    pub(crate) fn arm_every(
        &mut self,
        kernel: &Kernel,
        name: impl Into<String>,
        period_ns: u64,
        body: WorkBody,
        guard: impl Fn() -> Option<u64> + 'static,
    ) {
        let timer = kernel.work_timer(name, body, guard);
        kernel.timer_arm_periodic(timer, period_ns);
        self.timers.push(timer);
    }

    /// `rmmod`: deletes the timers, frees the IRQ line and unregisters
    /// `name` in the module's exit. What the kernel held of the build goes
    /// with them, so the same name installs again.
    pub(crate) fn run(self, kernel: &Kernel, name: &str) {
        for t in self.timers {
            kernel.timer_del(t);
        }
        kernel.free_irq(self.irq);
        kernel.rmmod(self.module, |k| (self.unregister)(k, name));
    }
}

/// A native build: the whole driver in the kernel — the Table 3
/// baseline. `H` is the kernel-resident hardware state, `D` the device
/// model; both are `dyn Any` in a [`crate::Loaded`].
pub struct Native<H: ?Sized, D: ?Sized> {
    /// Kernel handle.
    pub kernel: Kernel,
    /// Hardware state.
    pub hw: Rc<H>,
    /// The name the driver registered: interface, card, HCD or input
    /// device.
    pub name: String,
    /// Measured `insmod` latency (virtual ns).
    pub init_latency_ns: u64,
    /// Handle to the device model (traffic injection, media inspection).
    pub dev: Rc<RefCell<D>>,
    pub(crate) unload: Unload,
}

impl<H: ?Sized, D: ?Sized> Native<H, D> {
    /// Unloads the driver.
    pub fn remove(self) {
        self.unload.run(&self.kernel, &self.name);
    }
}

impl<H: Any, D: Any> Native<H, D> {
    /// The same handle with the hardware state and the device model
    /// erased — what [`crate::Loaded`] holds. Allocates nothing.
    pub(crate) fn erase(self) -> Native<dyn Any, dyn Any> {
        Native {
            kernel: self.kernel,
            hw: self.hw,
            name: self.name,
            init_latency_ns: self.init_latency_ns,
            dev: self.dev,
            unload: self.unload,
        }
    }
}

/// A split build whose data path stays in the kernel: the nucleus keeps
/// the interrupt handler and the data path, the decaf driver runs
/// initialization and configuration over one XPC channel.
pub struct Split<H: ?Sized, D: ?Sized> {
    /// Kernel handle.
    pub kernel: Kernel,
    /// Kernel-resident hardware state (the nucleus data path).
    pub hw: Rc<H>,
    /// The name the driver registered.
    pub name: String,
    /// The XPC channel between nucleus and decaf driver.
    pub channel: Rc<XpcChannel>,
    /// The nuclear runtime guarding upcalls.
    pub nuc: Rc<NuclearRuntime>,
    /// The driver's root object, shared across the boundary (nucleus
    /// heap address).
    pub root: CAddr,
    /// Measured `insmod` latency (virtual ns).
    pub init_latency_ns: u64,
    /// The slicing plan this build implements (the shared driver image).
    pub plan: Arc<SlicePlan>,
    /// Handle to the device model.
    pub dev: Rc<RefCell<D>>,
    pub(crate) unload: Unload,
}

impl<H: ?Sized, D: ?Sized> Split<H, D> {
    /// Round trips between nucleus and decaf driver so far.
    pub fn crossings(&self) -> u64 {
        self.channel.stats().round_trips
    }

    /// Unloads the driver.
    pub fn remove(self) {
        self.unload.run(&self.kernel, &self.name);
    }
}

impl<H: Any, D: Any> Split<H, D> {
    /// The same handle with the hardware state and the device model
    /// erased — what [`crate::Loaded`] holds. Allocates nothing.
    pub(crate) fn erase(self) -> Split<dyn Any, dyn Any> {
        Split {
            kernel: self.kernel,
            hw: self.hw,
            name: self.name,
            channel: self.channel,
            nuc: self.nuc,
            root: self.root,
            init_latency_ns: self.init_latency_ns,
            plan: self.plan,
            dev: self.dev,
            unload: self.unload,
        }
    }
}

/// Writes `field` of `obj` on the decaf end's heap: what a handler
/// records in the shared object. An object or field the heap does not
/// hold is no write.
pub(crate) fn set_field(ch: &XpcChannel, obj: CAddr, field: FieldHandle, value: XdrValue) {
    let _ = ch
        .heap(Domain::Decaf)
        .borrow_mut()
        .set_scalar(obj, field, value);
}

/// Upcalls entry point `proc` — the handle registering it returned —
/// on `obj` and maps its errno-style return to a `KResult`: what a probe
/// path or a netdev/sound op does with a decaf driver's answer. A channel
/// failure is `-EIO`.
pub fn upcall(nuc: &NuclearRuntime, kernel: &Kernel, proc: ProcHandle, obj: CAddr) -> KResult<()> {
    match nuc.upcall_errno(kernel, proc, &[Some(obj)], &[]) {
        Ok(e) => kresult(e),
        Err(_) => Err(KError::Io),
    }
}

/// An errno-style return as a `KResult`: 0 is success, an errno the
/// kernel does not know is `-EIO`.
pub(crate) fn kresult(errno: i32) -> KResult<()> {
    match errno {
        0 => Ok(()),
        e => Err(KError::from_errno(e).unwrap_or(KError::Io)),
    }
}

/// The errno an import answered: its `Int`, or `-EIO` for anything else
/// (a failed call answers `Void`).
pub(crate) fn errno_of(answer: XdrValue) -> i32 {
    match answer {
        XdrValue::Int(e) => e,
        _ => KError::Io.errno(),
    }
}

/// What one driver's control entry points do to the device, the root
/// object and the nucleus, whichever side hosts them. Each entry point
/// is written once, generic over it: [`Direct`] runs it in the kernel
/// (the native build), [`Over`] at user level over the channel (the
/// decaf builds). A difference the two builds keep on purpose is a
/// branch on [`Io::decaf`] inside the one body — an allowance, named in
/// DESIGN.md and checked by `tests/device_traffic.rs`.
///
/// Fields and imports are indices: a field into the driver's
/// [`Linked::fields`], an import into the driver's import table (the
/// handles [`Linked::register_body`] is given, in the same order).
pub(crate) trait Io {
    /// Whether the body runs at user level.
    fn decaf(&self) -> bool;
    /// Reads register `off`.
    fn readl(&self, k: &Kernel, off: u64) -> u32;
    /// Writes register `off` (a posted write).
    fn writel(&self, k: &Kernel, off: u64, val: u32);
    /// Sets root-object field `field`.
    fn set(&self, field: usize, value: XdrValue);
    /// Sets byte-array root-object field `field`: a field only the decaf
    /// build's shared object has any use for, so by default none.
    fn set_bytes(&self, _field: usize, _bytes: &[u8]) {}
    /// Sets `member` of the embedded struct in root-object field `field`
    /// — as [`Io::set_bytes`], by default nowhere.
    fn set_member(&self, _field: usize, _member: &str, _value: XdrValue) {}
    /// Reads integer root-object field `field`; 0 if it holds none.
    fn get(&self, field: usize) -> i32;
    /// Calls nucleus import `proc` and returns its answer: `Void` when
    /// the call failed.
    fn import(&self, k: &Kernel, proc: usize, args: &[XdrValue]) -> XdrValue;
    /// [`Io::import`] of an import that takes the root object.
    fn import_root(&self, k: &Kernel, proc: usize) -> XdrValue {
        self.import(k, proc, &[])
    }
    /// Posts nucleus import `proc`: nothing waits for its answer.
    fn post(&self, k: &Kernel, proc: usize, args: &[XdrValue]) {
        self.import(k, proc, args);
    }
}

/// One control entry point, written once: run on either hosting with the
/// upcall's scalar arguments, it answers an errno.
pub(crate) type Body = fn(&dyn Io, &Kernel, &[XdrValue]) -> i32;

/// The nucleus side of a [`Direct`]: import `proc` run on `args`.
pub(crate) type Nucleus<'a> = &'a dyn Fn(&Kernel, usize, &[XdrValue]) -> XdrValue;

/// The native hosting of a driver body: registers by kernel MMIO or port
/// I/O, imports as direct calls into `nucleus`, and the integer fields
/// in cells that live as long as the call — nothing outside the body
/// reads the native build's root fields back but the caller that made
/// it. There are as many cells as the widest driver names fields (the
/// e1000's nine).
pub(crate) struct Direct<'a> {
    bar: &'a MmioRegion,
    read: fn(&MmioRegion, &Kernel, u64) -> u32,
    write: fn(&MmioRegion, &Kernel, u64, u32),
    nucleus: Nucleus<'a>,
    fields: [Cell<i32>; 9],
}

impl<'a> Direct<'a> {
    /// A device reached by MMIO.
    pub(crate) fn mmio(bar: &'a MmioRegion, nucleus: Nucleus<'a>) -> Self {
        Direct {
            bar,
            read: MmioRegion::read32,
            write: MmioRegion::write32,
            nucleus,
            fields: Default::default(),
        }
    }

    /// A device reached by port I/O (`inl` / `outl`).
    pub(crate) fn port(bar: &'a MmioRegion, nucleus: Nucleus<'a>) -> Self {
        Direct {
            read: MmioRegion::inl,
            write: MmioRegion::outl,
            ..Direct::mmio(bar, nucleus)
        }
    }
}

/// A [`Nucleus`] for a body that imports nothing.
pub(crate) fn no_imports(_: &Kernel, _: usize, _: &[XdrValue]) -> XdrValue {
    XdrValue::Void
}

impl Io for Direct<'_> {
    fn decaf(&self) -> bool {
        false
    }

    fn readl(&self, k: &Kernel, off: u64) -> u32 {
        (self.read)(self.bar, k, off)
    }

    fn writel(&self, k: &Kernel, off: u64, val: u32) {
        (self.write)(self.bar, k, off, val);
    }

    fn set(&self, field: usize, value: XdrValue) {
        if let Some(v) = value.as_int() {
            self.fields[field].set(v);
        }
    }

    fn get(&self, field: usize) -> i32 {
        self.fields[field].get()
    }

    fn import(&self, k: &Kernel, proc: usize, args: &[XdrValue]) -> XdrValue {
        (self.nucleus)(k, proc, args)
    }
}

/// The decaf hosting of a driver body: the handler of one upcall on
/// `root`, reaching registers, fields and imports over the channel it
/// was called on.
pub(crate) struct Over<'a> {
    ch: &'a XpcChannel,
    root: CAddr,
    fields: &'a [FieldHandle],
    imports: &'a [ProcHandle],
}

impl Io for Over<'_> {
    fn decaf(&self) -> bool {
        true
    }

    fn readl(&self, k: &Kernel, off: u64) -> u32 {
        decaf_readl(k, self.ch, off)
    }

    fn writel(&self, k: &Kernel, off: u64, val: u32) {
        decaf_writel(k, self.ch, off, val);
    }

    fn set(&self, field: usize, value: XdrValue) {
        set_field(self.ch, self.root, self.fields[field], value);
    }

    fn set_bytes(&self, field: usize, bytes: &[u8]) {
        self.set(field, XdrValue::Opaque(bytes.to_vec()));
    }

    fn set_member(&self, field: usize, member: &str, value: XdrValue) {
        let heap = self.ch.heap(Domain::Decaf);
        let mut heap = heap.borrow_mut();
        let field = self.fields[field];
        let _ = heap.update_scalar(self.root, field, |s| s.set_field(member, value));
    }

    fn get(&self, field: usize) -> i32 {
        let heap = self.ch.heap(Domain::Decaf);
        let heap = heap.borrow();
        let value = heap.scalar(self.root, self.fields[field]).ok();
        value.and_then(|v| v.as_int()).unwrap_or(0)
    }

    fn import(&self, k: &Kernel, proc: usize, args: &[XdrValue]) -> XdrValue {
        let proc = self.imports[proc];
        let answer = self.ch.call_resolved(k, Domain::Decaf, proc, &[], args);
        answer.unwrap_or(XdrValue::Void)
    }

    fn import_root(&self, k: &Kernel, proc: usize) -> XdrValue {
        let (proc, root) = (self.imports[proc], [Some(self.root)]);
        let answer = self.ch.call_resolved(k, Domain::Decaf, proc, &root, &[]);
        answer.unwrap_or(XdrValue::Void)
    }

    fn post(&self, k: &Kernel, proc: usize, args: &[XdrValue]) {
        let proc = self.imports[proc];
        let _ = self
            .ch
            .call_deferred_resolved(k, Domain::Decaf, proc, &[], args);
    }
}

/// Registers the universal kernel helper procedures every decaf driver
/// needs: raw register access. These are the paper's "helper routines
/// that do not contain driver logic but provide an escape from the limits
/// of a managed language" (§5.3) — placed in the shared runtime, not in
/// any one driver.
pub fn register_io_procs(channel: &XpcChannel, bar: MmioRegion) -> XpcResult<()> {
    let b = bar.clone();
    channel.register_io_procs(
        ProcDef::scalar("readl", move |k, scalars| {
            let off = scalars[0].as_uint().unwrap_or(0) as u64;
            XdrValue::UInt(b.read32(k, off))
        }),
        ProcDef::scalar("writel", move |k, scalars| {
            let off = scalars[0].as_uint().unwrap_or(0) as u64;
            let val = scalars[1].as_uint().unwrap_or(0);
            bar.write32(k, off, val);
            XdrValue::Void
        }),
    )
}

/// Reads a register through the channel from the decaf side (downcall).
/// A channel without the helpers reads zero, as a failed call does.
pub fn decaf_readl(kernel: &Kernel, ch: &XpcChannel, off: u64) -> u32 {
    let Some([readl, _]) = ch.io_procs() else {
        return 0;
    };
    let off = [XdrValue::UInt(off as u32)];
    let read = ch.call_resolved(kernel, Domain::Decaf, readl, &[], &off);
    read.ok().and_then(|v| v.as_uint()).unwrap_or(0)
}

/// Writes a register through the channel from the decaf side (downcall).
///
/// Register writes are posted — nothing reads their result — so they go
/// through [`XpcChannel::call_deferred`]: on a batched transport they park
/// in the queue and cross with the next flush (any subsequent synchronous
/// call, e.g. a register *read*, flushes first, preserving device-visible
/// ordering); on other transports they execute immediately.
pub fn decaf_writel(kernel: &Kernel, ch: &XpcChannel, off: u64, val: u32) {
    if let Some([_, writel]) = ch.io_procs() {
        let args = [XdrValue::UInt(off as u32), XdrValue::UInt(val)];
        let _ = ch.call_deferred_resolved(kernel, Domain::Decaf, writel, &[], &args);
    }
}

/// The pieces of one open-loop network sink: per-shard pool-less RX
/// descriptor paths over one sharded async-shmring control facade.
///
/// Unlike the driver builds, there is no device model underneath — the
/// open-loop engine plays the role of the wire, posting descriptors at
/// scheduled virtual times regardless of how the decaf side is doing.
/// Payload bytes never exist (descriptors reference slots owned by the
/// synthetic "hardware"), so `bytes_copied` stays zero by construction.
pub struct OpenLoopNet {
    /// The sharded control facade the doorbells ride (async transport:
    /// each doorbell launches and settles at harvest).
    pub channels: Rc<decaf_xpc::ShardedChannel>,
    /// One pool-less descriptor path per shard.
    pub paths: Vec<Rc<DataPathChannel>>,
}

impl OpenLoopNet {
    /// Static cookie→shard steering. Open-loop arrivals have no flow
    /// identity to hash; a round-robin modulo keeps the shards evenly
    /// loaded and the mapping replayable from the cookie alone.
    pub fn steer(&self, cookie: u64) -> usize {
        (cookie as usize) % self.paths.len()
    }
}

/// The sharded facade of an open-loop rig: no driver image behind it, so
/// a placeholder spec under full masks.
fn open_loop_channels(config: ChannelConfig, shards: usize) -> Rc<ShardedChannel> {
    ShardedChannel::new(
        decaf_xdr::XdrSpec::parse("struct unused { int x; };").expect("static spec"),
        decaf_xdr::mask::MaskSet::full(),
        config,
        Domain::Nucleus,
        Domain::Decaf,
        shards,
    )
}

/// Builds an [`OpenLoopNet`]: `shards` RX descriptor rings of `depth`
/// slots over one async-shmring [`decaf_xpc::ShardedChannel`], each
/// with a watermark/deadline doorbell and a decaf-side `rx_drain` that
/// consumes descriptors and hands their slots straight back.
pub fn install_open_loop_net(
    shards: usize,
    depth: usize,
    watermark: usize,
) -> XpcResult<OpenLoopNet> {
    use decaf_shmring::{DoorbellPolicy, ShmRing};
    let sc = open_loop_channels(ChannelConfig::kernel_user_async_shmring(), shards);
    let mut paths = Vec::with_capacity(shards);
    for i in 0..shards {
        let ring = Rc::new(ShmRing::new(format!("olnet-rx{i}"), depth));
        let done = Rc::new(ShmRing::new(format!("olnet-rx{i}-done"), 2 * depth));
        let dp = DataPathChannel::new(
            Rc::clone(sc.shard(i)),
            Domain::Nucleus,
            "rx_drain",
            ring,
            done,
            None,
            DoorbellPolicy::with_watermark(watermark),
        )?;
        let end = dp.end(Domain::Decaf);
        sc.shard(i).register_proc(
            Domain::Decaf,
            ProcDef::scalar("rx_drain", move |k, _| {
                let mut n = 0;
                end.consume(k, |d| {
                    let _ = end.complete(k, d);
                    n += 1;
                });
                XdrValue::Int(n)
            }),
        )?;
        paths.push(dp);
    }
    Ok(OpenLoopNet {
        channels: sc,
        paths,
    })
}

/// Builds the storage side of the open-loop engine: a
/// [`decaf_xpc::ShardedUrbPath`] over `shards` URB rings of `depth`
/// entries and a `sectors`-sector payload pool, with a decaf-side
/// `urb_drain` per shard that echoes OUT lengths and gives the payload
/// run's ownership back through the set so completions steer home.
pub fn install_open_loop_storage(
    shards: usize,
    sectors: usize,
    depth: usize,
    watermark: usize,
) -> XpcResult<(Rc<decaf_xpc::ShardedChannel>, Rc<decaf_xpc::ShardedUrbPath>)> {
    use decaf_shmring::{SectorPool, UrbRingSet, XferDir};
    use decaf_simkernel::CpuClass;
    use decaf_xpc::ShardedUrbPath;

    let sc = open_loop_channels(ChannelConfig::kernel_user_shmring(), shards);
    let pool = Rc::new(SectorPool::with_capacity(512, sectors));
    let set = UrbRingSet::new("olurb", shards, depth, 2 * depth, pool);
    let path = ShardedUrbPath::new(Rc::clone(&sc), Domain::Nucleus, "urb_drain", set, watermark)?;
    path.register_drains(|end, set| {
        move |k| {
            end.consume(k, |d| {
                let actual = match d.dir {
                    XferDir::Out => d.len,
                    XferDir::In => 512,
                };
                let _ = set.complete(k, CpuClass::User, d.completed(0, actual));
            });
            XdrValue::Void
        }
    })?;
    Ok((sc, path))
}

/// Maps a `KResult` to the errno-style integer the XPC layer carries.
pub fn errno_value(result: Result<(), KError>) -> XdrValue {
    match result {
        Ok(()) => XdrValue::Int(0),
        Err(e) => XdrValue::Int(e.errno()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_simkernel::MmioDevice;
    use decaf_xpc::XpcError;
    use std::cell::{Cell, RefCell};

    struct Scratch([u32; 8]);
    impl MmioDevice for Scratch {
        fn read32(&mut self, _k: &Kernel, o: u64) -> u32 {
            self.0[(o / 4) as usize]
        }
        fn write32(&mut self, _k: &Kernel, o: u64, v: u32) {
            self.0[(o / 4) as usize] = v;
        }
    }

    fn batched_channels(plan: &SlicePlan) -> Rc<ShardedChannel> {
        channels_from_plan(plan, ChannelConfig::kernel_user_batched(), 1)
    }

    /// Registers `handler` for the user entry point called `name`, found
    /// by name on the spot — how these tests name entry points. A name
    /// the image does not list is refused: the procedure would cross
    /// untyped.
    fn register_entry(
        channel: &XpcChannel,
        plan: &Arc<SlicePlan>,
        name: &str,
        handler: impl Fn(&Kernel, &XpcChannel, CAddr, &[XdrValue]) -> XdrValue + 'static,
    ) -> XpcResult<ProcHandle> {
        let Some(at) = plan
            .user_entry_points
            .iter()
            .position(|ep| *ep.name == *name)
        else {
            return Err(XpcError::UnknownProc {
                domain: "the driver image's user entry points".into(),
                proc: name.into(),
            });
        };
        Linked::new(plan, [], "", []).register(channel, at, handler)
    }

    #[test]
    fn a_link_is_refused_on_a_channel_of_another_image() {
        let (mouse, nic) = (
            crate::DriverKind::Psmouse.image(),
            crate::DriverKind::E1000.image(),
        );
        let linked = Linked::new(&mouse, ["psmouse_probe"], "psmouse", ["rate"]);
        let handler = |_: &Kernel, _: &XpcChannel, _: CAddr, _: &[XdrValue]| XdrValue::Int(0);
        let foreign = batched_channels(&nic);
        let refused = linked.register(foreign.shard(0), linked.entries[0], handler);
        assert!(
            matches!(refused, Err(XpcError::InvalidRequest(_))),
            "{refused:?}"
        );
        assert!(foreign.shard(0).proc_names(Domain::Decaf).is_empty());
        let own = batched_channels(&mouse);
        let probe = linked.register(own.shard(0), linked.entries[0], handler);
        assert_eq!(own.shard(0).proc_names(Domain::Decaf), ["psmouse_probe"]);
        assert!(probe.is_ok());
        // The handle names the field the name does.
        let m = own.alloc_shared_at(0, Domain::Nucleus, "psmouse").unwrap();
        let heap = own.heap(0, Domain::Nucleus);
        heap.borrow_mut()
            .set_scalar(m, "rate", XdrValue::Int(40))
            .unwrap();
        let rate = heap.borrow().scalar(m, linked.fields[0]).cloned();
        assert_eq!(rate, Ok(XdrValue::Int(40)));
    }

    #[test]
    fn io_procs_roundtrip_registers() {
        let kernel = Kernel::new();
        let channels = batched_channels(&crate::DriverKind::Psmouse.image());
        let ch = channels.shard(0);
        let bar = MmioRegion::new(Rc::new(RefCell::new(Scratch([0; 8]))));
        register_io_procs(ch, bar).unwrap();
        decaf_writel(&kernel, ch, 12, 0xfeed);
        assert_eq!(decaf_readl(&kernel, ch, 12), 0xfeed);
        assert_eq!(ch.stats().round_trips, 2);
    }

    #[test]
    fn register_access_runs_the_nucleus_helpers_whatever_the_decaf_end_holds() {
        let kernel = Kernel::new();
        let channels = batched_channels(&crate::DriverKind::Psmouse.image());
        let ch = channels.shard(0);
        assert_eq!(decaf_readl(&kernel, ch, 12), 0, "no helpers: reads zero");
        // Procedures in the same slot numbers at the other end.
        for name in ["first", "second"] {
            let def = ProcDef::scalar(name, |_, _| panic!("a decaf procedure ran"));
            ch.register_proc(Domain::Decaf, def).unwrap();
        }
        let bar = MmioRegion::new(Rc::new(RefCell::new(Scratch([0; 8]))));
        register_io_procs(ch, bar).unwrap();
        assert_eq!(ch.proc_names(Domain::Nucleus), ["readl", "writel"]);
        assert_eq!(ch.proc_names(Domain::Decaf), ["first", "second"]);
        decaf_writel(&kernel, ch, 4, 7);
        assert_eq!(decaf_readl(&kernel, ch, 4), 7);
    }

    #[test]
    fn a_name_outside_the_image_is_refused_by_name() {
        let plan = crate::DriverKind::E1000.image();
        let channels = batched_channels(&plan);
        // A kernel function of the same image is not a user entry point.
        let refused = register_entry(channels.shard(0), &plan, "e1000_intr", |_, _, _, _| {
            XdrValue::Void
        });
        match refused {
            Err(XpcError::UnknownProc { proc, .. }) => assert_eq!(proc, "e1000_intr"),
            other => panic!("expected a refusal naming the procedure, got {other:?}"),
        }
        assert!(channels.shard(0).proc_names(Domain::Decaf).is_empty());
    }

    #[test]
    fn stub_types_come_from_the_image_and_null_objects_stop_at_the_stub() {
        let kernel = Kernel::new();
        let plan = crate::DriverKind::E1000.image();
        let channels = batched_channels(&plan);
        let ch = channels.shard(0);
        // The caller names no type; the handler reports whether the
        // object it was handed has a field only `e1000_adapter` has.
        let typed = Rc::new(Cell::new(None));
        let seen = Rc::clone(&typed);
        let check_options =
            register_entry(ch, &plan, "e1000_check_options", move |_, ch, obj, _| {
                let heap = ch.heap(Domain::Decaf);
                seen.set(Some(heap.borrow().scalar(obj, "watchdog_events").is_ok()));
                XdrValue::Int(0)
            })
            .unwrap();

        let null = ch.call(
            &kernel,
            Domain::Nucleus,
            "e1000_check_options",
            &[None],
            &[],
        );
        assert_eq!(null, Ok(XdrValue::Int(-22)));
        assert_eq!(typed.get(), None, "the handler never sees a null object");

        let adapter = channels
            .alloc_shared_at(0, Domain::Nucleus, "e1000_adapter")
            .unwrap();
        let nuc = NuclearRuntime::new(Rc::clone(ch), None);
        assert_eq!(upcall(&nuc, &kernel, check_options, adapter), Ok(()));
        assert_eq!(typed.get(), Some(true), "unmarshaled as the image's type");
        // A handle another channel handed out names nothing here.
        let other = batched_channels(&plan);
        for name in ["e1000_check_options", "e1000_probe"] {
            register_entry(other.shard(0), &plan, name, |_, _, _, _| XdrValue::Int(0)).unwrap();
        }
        let probe = other
            .shard(0)
            .resolve_proc(Domain::Nucleus, "e1000_probe")
            .unwrap();
        assert_eq!(
            upcall(&nuc, &kernel, probe, adapter),
            Err(KError::Io),
            "an unregistered entry point is a channel failure"
        );
    }

    #[test]
    fn load_hands_back_the_object_init_saw_and_its_error() {
        let kernel = Kernel::new();
        let channels = batched_channels(&crate::DriverKind::UhciHcd.image());
        let mut saw = 0;
        let (m, n) = (
            Unload::new("m", 9, |_, _| {}),
            Unload::new("n", 9, |_, _| {}),
        );
        let (root, latency) = m
            .load(&kernel, &channels, "uhci_hcd", |k, obj| {
                saw = obj;
                k.charge_kernel(700);
                Ok(())
            })
            .unwrap();
        assert_eq!((root, latency), (saw, 700));
        assert_eq!(
            channels.home_of(root),
            Some(0),
            "homed on the control shard"
        );
        assert_eq!(kernel.modules().len(), 1);

        let failed = n.load(&kernel, &channels, "uhci_hcd", |_, _| Err(KError::NoDev));
        assert_eq!(failed, Err(KError::NoDev));
        let unknown = n.load(&kernel, &channels, "no_such_struct", |_, _| Ok(()));
        assert_eq!(unknown, Err(KError::NoMem));
        let loaded: Vec<_> = kernel.modules().into_iter().map(|m| m.name).collect();
        assert_eq!(loaded, ["m"], "a failed load leaves no module behind");
    }

    #[test]
    fn errno_mapping() {
        assert_eq!(errno_value(Ok(())), XdrValue::Int(0));
        assert_eq!(errno_value(Err(KError::NoMem)), XdrValue::Int(-12));
    }
}
