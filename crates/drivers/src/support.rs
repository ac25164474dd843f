//! Shared glue for the decaf driver builds.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use decaf_shmring::RingSet;
use decaf_simkernel::kernel::IrqHandler;
use decaf_simkernel::{costs, KError, Kernel, MmioRegion, TimerId};
use decaf_xdr::XdrValue;
use decaf_xpc::{ChannelConfig, DataPathChannel, Domain, ProcDef, XpcChannel, XpcResult};

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
    /// [`DataPathEnd::poll_and_reclaim`](decaf_xpc::DataPathEnd::poll_and_reclaim)
    /// under [`RX_POLL_BUDGET`].
    Poll,
}

/// Virtual-time period of the poll-mode receive tick.
pub const RX_POLL_TICK_NS: u64 = 50_000;

/// Descriptors one poll-mode tick may consume before yielding.
pub const RX_POLL_BUDGET: usize = 64;

/// The shmring data-path pieces of the rtl8139 build (its byte-packed
/// RX ring is a different hardware shape from the e1000's descriptor
/// rings, so it keeps a single-queue build of its own): the TX and RX
/// descriptor paths, the interrupt handler that feeds them, and the
/// coalescing poll timer.
pub struct ShmDataPath {
    /// Transmit path (stack → decaf driver → device).
    pub tx: Rc<DataPathChannel>,
    /// Receive path (IRQ → decaf driver → stack).
    pub rx: Rc<DataPathChannel>,
    /// The nucleus interrupt handler `request_irq` installs.
    pub irq_handler: IrqHandler,
    /// The periodic deadline-flush timer.
    pub poll_timer: TimerId,
    /// The poll-mode receive tick ([`RxMode::Poll`] builds only).
    pub rx_poll_timer: Option<TimerId>,
}

/// Builds the netdev transmit op for a single-queue shmring TX path
/// (rtl8139): frames post into the ring with a monotonic cookie. Frames over `max_len` fail
/// with `Inval` — the same check (and `tx_errors` accounting through
/// `net_xmit`) the kernel-resident paths apply, so the ring never
/// carries a descriptor the hardware would reject.
pub fn shmring_xmit_op(tx_dp: Rc<DataPathChannel>, max_len: usize) -> decaf_simkernel::net::XmitOp {
    let seq = Cell::new(0u64);
    Rc::new(move |k, skb| {
        if skb.len() > max_len {
            return Err(KError::Inval);
        }
        let cookie = seq.get();
        seq.set(cookie + 1);
        tx_dp.send(k, &skb.data, cookie).map_err(|_| KError::Busy)
    })
}

/// Builds the netdev transmit op for a *sharded* TX data path (e1000,
/// at every width — one shard is the unsharded build): each frame is
/// steered to a shard by an RSS-style flow hash over its
/// protocol and leading payload bytes, posted into that shard's ring
/// under the shard's cost scope, and recorded in the [`RingSet`] so the
/// IRQ-side completion steers back to the posting shard.
pub fn sharded_xmit_op(
    tx_set: Rc<RingSet>,
    tx_paths: Vec<Rc<DataPathChannel>>,
    max_len: usize,
) -> decaf_simkernel::net::XmitOp {
    let seq = Cell::new(0u64);
    Rc::new(move |k, skb| {
        if skb.len() > max_len {
            return Err(KError::Inval);
        }
        let cookie = seq.get();
        seq.set(cookie + 1);
        // The flow identity of the synthetic workloads lives in the
        // frame's protocol and fill bytes; hashing them keeps one flow
        // on one queue while distinct flows spread (RSS semantics).
        let flow = skb.data.first().copied().unwrap_or(0) as u64
            | ((skb.protocol as u64) << 8)
            | ((skb.len() as u64) << 24);
        let shard = tx_set.steer(flow);
        k.shard_scope(shard, || {
            // Record the origin *before* sending: a watermark or
            // pool-exhaustion doorbell inside send() runs the decaf
            // drain synchronously, and its reject path steers the
            // descriptor home through this record.
            tx_set.note_post(shard, cookie);
            tx_paths[shard].send(k, &skb.data, cookie).map_err(|_| {
                tx_set.cancel_post(cookie);
                KError::Busy
            })
        })
    })
}

/// Arms the periodic coalescing poll for a set of sharded TX paths: one
/// timer, one work item, each busy shard polled under its cost scope.
pub fn sharded_poll_timer(
    kernel: &Kernel,
    name: &'static str,
    tx_paths: &[Rc<DataPathChannel>],
) -> TimerId {
    let paths: Vec<Rc<DataPathChannel>> = tx_paths.to_vec();
    let timer = kernel.timer_create(
        name,
        Rc::new(move |k| {
            let busy: Vec<usize> = paths
                .iter()
                .enumerate()
                .filter(|(_, p)| p.pending() > 0 || !p.completions().is_empty())
                .map(|(i, _)| i)
                .collect();
            if !busy.is_empty() {
                let paths = paths.clone();
                k.schedule_work(name, move |k| {
                    for i in busy {
                        k.shard_scope(i, || {
                            let _ = paths[i].poll(k);
                        });
                    }
                });
            }
        }),
    );
    kernel.timer_arm_periodic(timer, costs::DOORBELL_COALESCE_NS);
    timer
}

/// Arms the periodic coalescing poll for a single-queue shmring TX path
/// (rtl8139): the timer (softirq priority) defers to a work item — upcalls are illegal from
/// atomic context — which flushes descriptors past the doorbell
/// deadline and reclaims completed buffers.
pub fn shmring_poll_timer(
    kernel: &Kernel,
    name: &'static str,
    tx_dp: &Rc<DataPathChannel>,
) -> TimerId {
    let tx = Rc::clone(tx_dp);
    let timer = kernel.timer_create(
        name,
        Rc::new(move |k| {
            if tx.pending() > 0 || !tx.completions().is_empty() {
                let tx = Rc::clone(&tx);
                k.schedule_work(name, move |k| {
                    let _ = tx.poll(k);
                });
            }
        }),
    );
    kernel.timer_arm_periodic(timer, costs::DOORBELL_COALESCE_NS);
    timer
}

/// The body of every driver module's `image()` accessor: the plan in
/// `cell`, produced by `build` on first use. The sources are static, so
/// a slicing error is a bug in this repository, not a load-time failure.
pub fn shared_image(
    cell: &'static OnceLock<Arc<decaf_slicer::SlicePlan>>,
    build: impl FnOnce() -> decaf_slicer::SliceResult<decaf_slicer::SlicePlan>,
) -> Arc<decaf_slicer::SlicePlan> {
    Arc::clone(
        cell.get_or_init(|| Arc::new(build().expect("a driver's static mini-C source slices"))),
    )
}

/// Builds an [`XpcChannel`] between nucleus and decaf driver from a
/// DriverSlicer plan — the spec and masks are exactly what the slicer
/// generated from the driver's mini-C source, and the channel shares the
/// plan's copy of both rather than taking its own.
///
/// All five decaf driver builds route their configuration/control paths
/// through the batched transport with delta marshaling: register writes
/// defer into the transport queue and flush in one crossing, and a shared
/// structure that crosses repeatedly marshals only its dirty fields.
pub fn channel_from_plan(plan: &decaf_slicer::SlicePlan) -> Rc<XpcChannel> {
    channel_from_plan_with(plan, ChannelConfig::kernel_user_batched())
}

/// Like [`channel_from_plan`] with an explicit configuration — used by
/// the transport ablation to rebuild the seed per-call `InProc` path.
pub fn channel_from_plan_with(
    plan: &decaf_slicer::SlicePlan,
    config: ChannelConfig,
) -> Rc<XpcChannel> {
    Rc::new(XpcChannel::new(
        Arc::clone(&plan.spec),
        Arc::clone(&plan.masks),
        config,
        Domain::Nucleus,
        Domain::Decaf,
    ))
}

/// Registers the universal kernel helper procedures every decaf driver
/// needs: raw register access. These are the paper's "helper routines
/// that do not contain driver logic but provide an escape from the limits
/// of a managed language" (§5.3) — placed in the shared runtime, not in
/// any one driver.
pub fn register_io_procs(channel: &XpcChannel, bar: MmioRegion) -> XpcResult<()> {
    let b = bar.clone();
    channel.register_proc(
        Domain::Nucleus,
        ProcDef {
            name: "readl".into(),
            arg_types: vec![],
            handler: Rc::new(move |k, _, _, scalars| {
                let off = scalars[0].as_uint().unwrap_or(0) as u64;
                XdrValue::UInt(b.read32(k, off))
            }),
        },
    )?;
    let b = bar;
    channel.register_proc(
        Domain::Nucleus,
        ProcDef {
            name: "writel".into(),
            arg_types: vec![],
            handler: Rc::new(move |k, _, _, scalars| {
                let off = scalars[0].as_uint().unwrap_or(0) as u64;
                let val = scalars[1].as_uint().unwrap_or(0);
                b.write32(k, off, val);
                XdrValue::Void
            }),
        },
    )?;
    Ok(())
}

/// Reads a register through the channel from the decaf side (downcall).
pub fn decaf_readl(kernel: &Kernel, ch: &XpcChannel, off: u64) -> u32 {
    ch.call(
        kernel,
        Domain::Decaf,
        "readl",
        &[],
        &[XdrValue::UInt(off as u32)],
    )
    .ok()
    .and_then(|v| v.as_uint())
    .unwrap_or(0)
}

/// Writes a register through the channel from the decaf side (downcall).
///
/// Register writes are posted — nothing reads their result — so they go
/// through [`XpcChannel::call_deferred`]: on a batched transport they park
/// in the queue and cross with the next flush (any subsequent synchronous
/// call, e.g. a register *read*, flushes first, preserving device-visible
/// ordering); on other transports they execute immediately.
pub fn decaf_writel(kernel: &Kernel, ch: &XpcChannel, off: u64, val: u32) {
    let _ = ch.call_deferred(
        kernel,
        Domain::Decaf,
        "writel",
        &[],
        &[XdrValue::UInt(off as u32), XdrValue::UInt(val)],
    );
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
    use decaf_xpc::{ShardPolicy, ShardedChannel};

    let sc = ShardedChannel::new(
        decaf_xdr::XdrSpec::parse("struct unused { int x; };").expect("static spec"),
        decaf_xdr::mask::MaskSet::full(),
        ChannelConfig::kernel_user_async_shmring(),
        Domain::Nucleus,
        Domain::Decaf,
        shards,
        ShardPolicy::FlowHash,
    );
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
            ProcDef {
                name: "rx_drain".into(),
                arg_types: vec![],
                handler: Rc::new(move |k, _, _, _| {
                    let mut n = 0;
                    for d in end.consume(k) {
                        let _ = end.complete(k, d);
                        n += 1;
                    }
                    XdrValue::Int(n)
                }),
            },
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
    use decaf_xpc::{ShardPolicy, ShardedChannel, ShardedUrbPath};

    let sc = ShardedChannel::new(
        decaf_xdr::XdrSpec::parse("struct unused { int x; };").expect("static spec"),
        decaf_xdr::mask::MaskSet::full(),
        ChannelConfig::kernel_user_shmring(),
        Domain::Nucleus,
        Domain::Decaf,
        shards,
        ShardPolicy::FlowHash,
    );
    let set = UrbRingSet::new(
        "olurb",
        shards,
        depth,
        2 * depth,
        Rc::new(SectorPool::with_capacity(512, sectors)),
    );
    let path = ShardedUrbPath::new(Rc::clone(&sc), Domain::Nucleus, "urb_drain", set, watermark)?;
    for i in 0..shards {
        let end = path.path(i).end(Domain::Decaf);
        let set = Rc::clone(path.set());
        sc.shard(i).register_proc(
            Domain::Decaf,
            ProcDef {
                name: "urb_drain".into(),
                arg_types: vec![],
                handler: Rc::new(move |k, _, _, _| {
                    for d in end.consume(k) {
                        let actual = match d.dir {
                            XferDir::Out => d.len,
                            XferDir::In => 512,
                        };
                        let _ = set.complete(k, CpuClass::User, d.completed(0, actual));
                    }
                    XdrValue::Void
                }),
            },
        )?;
    }
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
    use std::cell::RefCell;

    struct Scratch([u32; 8]);
    impl MmioDevice for Scratch {
        fn read32(&mut self, _k: &Kernel, o: u64) -> u32 {
            self.0[(o / 4) as usize]
        }
        fn write32(&mut self, _k: &Kernel, o: u64, v: u32) {
            self.0[(o / 4) as usize] = v;
        }
    }

    #[test]
    fn io_procs_roundtrip_registers() {
        let kernel = Kernel::new();
        let ch = channel_from_plan(&crate::psmouse::image());
        let bar = MmioRegion::new(Rc::new(RefCell::new(Scratch([0; 8]))));
        register_io_procs(&ch, bar).unwrap();
        decaf_writel(&kernel, &ch, 12, 0xfeed);
        assert_eq!(decaf_readl(&kernel, &ch, 12), 0xfeed);
        assert_eq!(ch.stats().round_trips, 2);
    }

    #[test]
    fn errno_mapping() {
        assert_eq!(errno_value(Ok(())), XdrValue::Int(0));
        assert_eq!(errno_value(Err(KError::NoMem)), XdrValue::Int(-12));
        assert_eq!(result_from_errno(&XdrValue::Int(0)), Ok(()));
        assert_eq!(result_from_errno(&XdrValue::Int(-12)), Err(KError::NoMem));
    }
}
