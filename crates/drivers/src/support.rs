//! Shared glue for the driver builds: the image, channel and entry-point
//! plumbing of the decaf builds, the native and kernel-path split handle
//! shapes, and the one teardown record every build's `remove` runs.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use decaf_simkernel::{KError, KResult, Kernel, MmioRegion, TimerId};
use decaf_slicer::SlicePlan;
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;
use decaf_xpc::{
    ChannelConfig, DataPathChannel, Domain, NuclearRuntime, ProcDef, ProcHandle, ProcHandler,
    ShardedChannel, XpcChannel, XpcError, XpcResult,
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

/// The body of every driver module's `image()` accessor: the plan in
/// `cell`, produced by `build` on first use. The sources are static, so
/// a slicing error is a bug in this repository, not a load-time failure.
pub fn shared_image(
    cell: &'static OnceLock<Arc<SlicePlan>>,
    build: impl FnOnce() -> decaf_slicer::SliceResult<SlicePlan>,
) -> Arc<SlicePlan> {
    Arc::clone(
        cell.get_or_init(|| Arc::new(build().expect("a driver's static mini-C source slices"))),
    )
}

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

/// Registers the decaf-side handler of one entry point of the driver
/// image — the stub DriverSlicer generates (§3.1.1). The object-argument
/// types are the image's, not the caller's; `handler` receives the
/// entry point's object already checked (a null object answers
/// `-EINVAL` here, before the handler runs). A `name` the image does not
/// list as a user entry point is refused: the procedure would cross
/// untyped. Returns the handle the nucleus upcalls it by.
pub fn register_entry(
    channel: &XpcChannel,
    plan: &SlicePlan,
    name: &str,
    handler: impl Fn(&Kernel, &XpcChannel, CAddr, &[XdrValue]) -> XdrValue + 'static,
) -> XpcResult<ProcHandle> {
    let entry = plan
        .user_entry_point(name)
        .ok_or_else(|| XpcError::UnknownProc {
            domain: "the driver image's user entry points".into(),
            proc: name.into(),
        })?;
    let stub: ProcHandler = Rc::new(move |k, ch, args, scalars| {
        let Some(obj) = args.first().copied().flatten() else {
            return XdrValue::Int(KError::Inval.errno());
        };
        handler(k, ch, obj, scalars)
    });
    // The stub's name and types are the image's own: a shared pointer and
    // the ids resolved once per image.
    let (name, types) = (&entry.name, entry.object_ids);
    channel.register_resolved(Domain::Decaf, name, types, &plan.spec, stub)
}

/// The `insmod` prologue every decaf driver shares: allocates the
/// driver's root object (`root_type`, homed on the control shard's
/// nucleus heap — heap allocation charges no virtual time, so it needs
/// no place inside the measured region) and runs `init` with it as the
/// module's init function. Returns the object and the measured load
/// latency; an `init` error leaves no module behind.
pub fn load(
    kernel: &Kernel,
    module: &str,
    channels: &ShardedChannel,
    root_type: &str,
    init: impl FnOnce(&Kernel, CAddr) -> KResult<()>,
) -> KResult<(CAddr, u64)> {
    let root = channels
        .alloc_shared_at(0, Domain::Nucleus, root_type)
        .map_err(|_| KError::NoMem)?;
    let init_latency_ns = kernel.insmod(module, |k| init(k, root))?;
    Ok((root, init_latency_ns))
}

/// What one install did to the kernel, recorded by that install so the
/// build's `remove` undoes exactly that: the module it loaded, the IRQ
/// line it (or the interface's `open`) requested, the timers it armed and
/// the call that drops the name it registered. Every build's `remove`
/// runs one of these, so unload is said once.
pub(crate) struct Unload {
    module: &'static str,
    irq: u32,
    timers: Vec<TimerId>,
    unregister: fn(&Kernel, &str),
}

impl Unload {
    /// The record of an install that loaded `module`, took IRQ `irq` and
    /// registers with what `unregister` drops.
    pub(crate) fn new(module: &'static str, irq: u32, unregister: fn(&Kernel, &str)) -> Self {
        Unload {
            module,
            irq,
            timers: Vec::new(),
            unregister,
        }
    }

    /// The same record, for an install that armed `timers`.
    pub(crate) fn with_timers(self, timers: Vec<TimerId>) -> Self {
        Unload { timers, ..self }
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

/// Upcalls entry point `proc` — the handle [`register_entry`] returned —
/// on `obj` and maps its errno-style return to a `KResult`: what a probe
/// path or a netdev/sound op does with a decaf driver's answer. A channel
/// failure is `-EIO`.
pub fn upcall(nuc: &NuclearRuntime, kernel: &Kernel, proc: ProcHandle, obj: CAddr) -> KResult<()> {
    match nuc.upcall_errno(kernel, proc, &[Some(obj)], &[]) {
        Ok(0) => Ok(()),
        Ok(e) => Err(KError::from_errno(e).unwrap_or(KError::Io)),
        Err(_) => Err(KError::Io),
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

/// Maps an errno-style integer back to a `KResult`.
pub fn result_from_errno(v: &XdrValue) -> Result<(), KError> {
    match v.as_int().unwrap_or(KError::Io.errno()) {
        0 => Ok(()),
        e => Err(KError::from_errno(e).unwrap_or(KError::Io)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_simkernel::MmioDevice;
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

    #[test]
    fn io_procs_roundtrip_registers() {
        let kernel = Kernel::new();
        let channels = batched_channels(&crate::psmouse::image());
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
        let channels = batched_channels(&crate::psmouse::image());
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
        let plan = crate::e1000::image();
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
        let plan = crate::e1000::image();
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
        let channels = batched_channels(&crate::uhci::image());
        let mut saw = 0;
        let (root, latency) = load(&kernel, "m", &channels, "uhci_hcd", |k, obj| {
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

        let failed = load(&kernel, "n", &channels, "uhci_hcd", |_, _| {
            Err(KError::NoDev)
        });
        assert_eq!(failed, Err(KError::NoDev));
        let unknown = load(&kernel, "n", &channels, "no_such_struct", |_, _| Ok(()));
        assert_eq!(unknown, Err(KError::NoMem));
        let loaded: Vec<_> = kernel.modules().into_iter().map(|m| m.name).collect();
        assert_eq!(loaded, ["m"], "a failed load leaves no module behind");
    }

    #[test]
    fn errno_mapping() {
        assert_eq!(errno_value(Ok(())), XdrValue::Int(0));
        assert_eq!(errno_value(Err(KError::NoMem)), XdrValue::Int(-12));
        assert_eq!(result_from_errno(&XdrValue::Int(0)), Ok(()));
        assert_eq!(result_from_errno(&XdrValue::Int(-12)), Err(KError::NoMem));
    }
}
