//! Decaf E1000 build: nucleus + user-level decaf driver over XPC.
//!
//! The split follows the DriverSlicer plan computed from
//! [`super::minic::SOURCE`]: interrupt handling and the transmit/receive
//! data path stay in the kernel ([`super::E1000Hw`]), while probe,
//! bring-up, watchdog and management logic run as decaf-driver handlers
//! at user level. The channel's XDR spec and field masks are the slicer's
//! generated artifacts, not hand-written ones.
//!
//! A channel configuration with `shmring` set goes one step further:
//! the *data path* is hosted at user level too. Transmit payloads are
//! written once into a shared buffer pool carved from the device's DMA
//! region; 16-byte descriptors cross through pinned SPSC rings; the
//! decaf driver's drain handlers program the hardware descriptor ring
//! straight from the shared mapping (one TDT write per batch); and
//! received frames flow back the same way. Zero payload bytes touch the
//! XDR marshaler. That glue is chip-independent ([`crate::ringnic`]); this
//! module supplies the channels, the handlers and the timers' phase.
//!
//! There is one build, parametric in the channel configuration, the
//! receive mode and the shard count; the four decaf [`Hosting`]s name
//! the four points of that space the tables use, and three of them keep
//! a typed installer here. One shard *is* the unsharded build —
//! [`Hosting::Shmring`] is the same code as [`install_sharded`] at width
//! 1 on the synchronous shmring transport.

use std::rc::Rc;

use decaf_simdev::E1000Device;

use decaf_simkernel::kernel::{IrqHandler, WorkBody};
use decaf_simkernel::net::XmitOp;
use decaf_simkernel::{KError, KResult, Kernel};
use decaf_slicer::SlicePlan;
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;
use decaf_xpc::{
    ChannelConfig, Domain, NuclearRuntime, ProcDef, ProcHandle, ShardedChannel, XpcChannel,
    XpcResult,
};

use super::{attach, E1000Hw, IRQ_LINE};
use crate::ringnic::{self, RingSplit, Rings, SplitLoad};
use crate::support::{self, decaf_readl, decaf_writel, RxMode, Split, Unload};
use crate::Hosting;
use decaf_simdev::e1000 as hwreg;

/// TX descriptors per doorbell at line rate (the batch a crossing is
/// amortized over when the ring fills faster than the coalescing
/// deadline).
pub const TX_DOORBELL_WATERMARK: usize = 8;

/// Loads the decaf driver (kernel-resident data path, batched control
/// paths — the [`Hosting::Decaf`] build).
pub fn install(kernel: &Kernel, ifname: &str) -> KResult<Split<E1000Hw, E1000Device>> {
    build(kernel, ifname, Hosting::Decaf).map(|(split, _)| split)
}

/// Loads the [`Hosting::Poll`] build: the user-level shmring data path
/// with poll-mode receive.
pub fn install_shmring_poll(
    kernel: &Kernel,
    ifname: &str,
) -> KResult<RingSplit<E1000Hw, E1000Device>> {
    build(kernel, ifname, Hosting::Poll).map(RingSplit::new)
}

/// Loads the decaf driver with `shards` parallel channels and per-shard
/// shmring TX/RX queues — the multi-queue, multi-channel
/// [`Hosting::Sharded`] build: N parallel XPC channels behind a
/// [`ShardedChannel`] facade, with RSS-style per-shard TX/RX descriptor
/// rings feeding the one simulated device. It rides the completion-based
/// async transport: per-shard doorbells *launch* rather than block, and
/// the send-path reclaim harvests them — crossing latency overlaps with
/// posting.
///
/// * **TX** — the netdev xmit op flow-hashes each frame to a shard,
///   writes the payload into the shared pool (one audited copy), posts a
///   descriptor into that shard's ring and rides that shard's doorbell;
///   the decaf-side drain of each shard programs the hardware ring from
///   the shared mapping. The IRQ-side completion is *steered back to the
///   posting shard* through the ring set's origin map.
/// * **RX** — harvested receive slots flow-hash to per-shard RX rings;
///   each shard's drain hands ownership back through its own completion
///   ring.
/// * **Control** — shard 0 is the control shard: the adapter object is
///   homed there, probe/open/watchdog upcalls ride its channel.
///
/// All data-path work is charged under [`Kernel::shard_scope`], so the
/// shards=1/2/4/8 ablation can report the parallel wall-clock estimate
/// (serial work + critical-path shard).
pub fn install_sharded(
    kernel: &Kernel,
    ifname: &str,
    shards: usize,
) -> KResult<RingSplit<E1000Hw, E1000Device>> {
    build(kernel, ifname, Hosting::Sharded(shards)).map(RingSplit::new)
}

/// Loads the decaf driver in `hosting` ([`Hosting::Decaf`],
/// [`Hosting::Shmring`], [`Hosting::Poll`] or [`Hosting::Sharded`]): a
/// channel configuration, a receive mode and a shard count. A shmring
/// configuration hosts the data path at user level on per-shard rings
/// and the receive mode picks how received frames are collected;
/// without it the data path stays in the nucleus and neither applies.
pub(crate) fn build(
    kernel: &Kernel,
    ifname: &str,
    hosting: Hosting,
) -> KResult<SplitLoad<E1000Hw, E1000Device>> {
    let (config, rx_mode, shards) = match hosting {
        Hosting::Decaf => (ChannelConfig::kernel_user_batched(), RxMode::Interrupt, 1),
        Hosting::Shmring => (ChannelConfig::kernel_user_shmring(), RxMode::Interrupt, 1),
        Hosting::Poll => (ChannelConfig::kernel_user_shmring(), RxMode::Poll, 1),
        Hosting::Sharded(n) => (
            ChannelConfig::kernel_user_async_shmring(),
            RxMode::Interrupt,
            n,
        ),
        _ => return Err(KError::Inval),
    };
    let (bar, dma, dev) = attach(kernel);
    let hw = Rc::new(E1000Hw::new(bar, dma));
    let plan = super::image();
    let channels = support::channels_from_plan(&plan, config, shards);
    let (rings, irq_handler, xmit, entries) =
        link(&channels, &plan, &hw, ifname, config.shmring, rx_mode).map_err(|_| KError::Io)?;

    let mut timers = Vec::new();
    if let (Some(rings), RxMode::Poll) = (&rings, rx_mode) {
        // The receive grid keeps the pre-`insmod` phase the poll build
        // has always had: per-packet latencies depend on it.
        timers.push(ringnic::rx_poll_timer(kernel, rings));
    }

    let nuc = Rc::new(NuclearRuntime::new(
        Rc::clone(channels.shard(0)),
        Some(IRQ_LINE),
    ));

    // insmod: the adapter is homed on the control shard; the user-level
    // probe runs there.
    let (adapter, init_latency_ns) =
        support::load(kernel, "e1000_decaf", &channels, "e1000_adapter", |k, a| {
            support::upcall(&nuc, k, entries.probe, a)?;
            // Register the netdevice: open/stop go through the decaf
            // driver; transmit stays in the nucleus or posts into the
            // shared-memory rings, as the configuration says.
            let nuc_open = Rc::clone(&nuc);
            let nuc_stop = Rc::clone(&nuc);
            k.register_netdev(
                ifname,
                decaf_simkernel::net::NetDeviceOps {
                    open: Rc::new(move |k| {
                        // The interface owns the interrupt handler
                        // `e1000_open` is about to request; the
                        // `request_irq` procedure on the channel only
                        // borrows it.
                        let _owned_while_registered = &irq_handler;
                        support::upcall(&nuc_open, k, entries.open, a)
                    }),
                    stop: Rc::new(move |k| support::upcall(&nuc_stop, k, entries.close, a)),
                    xmit,
                },
            )
        })?;

    // The watchdog timer fires at softirq priority, so it only enqueues a
    // work item; the work item (process context) makes the upcall
    // (paper §3.1.3). Its body is built here, once, and queued by handle.
    let watchdog_task: WorkBody = {
        let (nuc, channels, name) = (Rc::clone(&nuc), Rc::clone(&channels), ifname.to_string());
        Rc::new(move |k, _| {
            if nuc
                .upcall(k, entries.watchdog, &[Some(adapter)], &[])
                .is_ok()
            {
                // The decaf driver updated adapter->link_up; the nucleus
                // mirrors it into the stack.
                let heap = channels.heap(0, Domain::Nucleus);
                let up = heap
                    .borrow()
                    .scalar(adapter, "link_up")
                    .ok()
                    .and_then(|v| v.as_int())
                    .unwrap_or(0);
                k.netif_carrier(&name, up != 0);
            }
        })
    };
    let watchdog = kernel.timer_create(
        "e1000_watchdog",
        Rc::new(move |k| k.schedule_work_handle(&watchdog_task, 0)),
    );
    kernel.timer_arm_periodic(watchdog, 2_000_000_000);
    timers.push(watchdog);

    // The coalescing poll is armed after `insmod`, at every width: its
    // phase against the traffic is part of what the tables pin.
    if let Some(rings) = &rings {
        timers.push(ringnic::tx_poll_timer(kernel, rings));
    }

    let split = Split {
        kernel: kernel.clone(),
        hw,
        name: ifname.to_string(),
        channel: Rc::clone(channels.shard(0)),
        nuc,
        root: adapter,
        init_latency_ns,
        plan,
        dev,
        unload: Unload::new("e1000_decaf", IRQ_LINE, Kernel::unregister_netdev).with_timers(timers),
    };
    Ok((split, rings))
}

/// Links every shard's channel: the register-access imports, the rings
/// and their drains when the configuration hosts the data path at user
/// level, the kernel imports — which need the interrupt handler the data
/// path decided — and then the decaf driver's entry points, which call
/// those imports by handle. Returns that handler, the netdev transmit op
/// and the entry points' handles (every shard registers in one order,
/// so the control shard's serve all) beside the rings.
fn link(
    channels: &Rc<ShardedChannel>,
    plan: &SlicePlan,
    hw: &Rc<E1000Hw>,
    ifname: &str,
    shmring: bool,
    rx_mode: RxMode,
) -> XpcResult<(Option<Rings<E1000Hw>>, IrqHandler, XmitOp, Entries)> {
    let shards = channels.shard_count();
    for i in 0..shards {
        support::register_io_procs(channels.shard(i), hw.bar.clone())?;
    }
    let (rings, irq_handler, xmit): (_, IrqHandler, XmitOp) = if shmring {
        let (rings, irq, xmit) = ringnic::link(channels, hw, ifname, rx_mode)?;
        (Some(rings), irq, xmit)
    } else {
        let hw_irq = Rc::clone(hw);
        let name = ifname.to_string();
        let hw_ops = Rc::clone(hw);
        (
            None,
            Rc::new(move |k| {
                hw_irq.handle_irq(k, &name);
            }),
            Rc::new(move |k, skb| hw_ops.xmit(k, skb)),
        )
    };
    let mut control = None;
    for i in 0..shards {
        let imports = register_nucleus_procs(channels.shard(i), hw, &irq_handler)?;
        let entries = register_decaf_handlers(channels.shard(i), plan, imports)?;
        control.get_or_insert(entries);
    }
    let entries = control.expect("a channel facade has a shard");
    Ok((rings, irq_handler, xmit, entries))
}

/// The kernel imports the decaf handlers call down into, as registered.
#[derive(Clone, Copy)]
struct Imports {
    eeprom_read: ProcHandle,
    phy_read: ProcHandle,
    phy_write: ProcHandle,
    setup_tx_resources: ProcHandle,
    setup_rx_resources: ProcHandle,
    request_irq: ProcHandle,
    free_irq: ProcHandle,
    up_datapath: ProcHandle,
    free_tx_resources: ProcHandle,
    free_rx_resources: ProcHandle,
    down_datapath: ProcHandle,
}

/// The entry points the nucleus upcalls, as registered.
#[derive(Clone, Copy)]
struct Entries {
    probe: ProcHandle,
    open: ProcHandle,
    close: ProcHandle,
    watchdog: ProcHandle,
}

/// Kernel procedures the decaf driver calls down into. These correspond
/// to the slicer's `kernel_entry_points` and `kernel_imports_from_user`.
/// `irq_handler` is what `request_irq` installs — the kernel-resident
/// data path for the copy build, the ring-posting handler for shmring.
/// It is held weakly: the ring handler reaches the channel through its
/// receive paths, and a procedure stored on the channel that owned it
/// would keep channel, rings and DMA region alive for ever. The netdev
/// `open` op, the only way to `request_irq`, is the owner. Returns the
/// procedures' handles.
fn register_nucleus_procs(
    channel: &XpcChannel,
    hw: &Rc<E1000Hw>,
    irq_handler: &IrqHandler,
) -> XpcResult<Imports> {
    let nucleus = |def| channel.register_proc(Domain::Nucleus, def);
    let h = Rc::clone(hw);
    let eeprom_read = nucleus(ProcDef::scalar("eeprom_read", move |k, s| {
        XdrValue::UInt(h.eeprom_read(k, s[0].as_uint().unwrap_or(0)) as u32)
    }))?;
    let h = Rc::clone(hw);
    let phy_read = nucleus(ProcDef::scalar("phy_read", move |k, s| {
        XdrValue::UInt(h.phy_read(k, s[0].as_uint().unwrap_or(0)) as u32)
    }))?;
    let h = Rc::clone(hw);
    let phy_write = nucleus(ProcDef::scalar("phy_write", move |k, s| {
        h.phy_write(
            k,
            s[0].as_uint().unwrap_or(0),
            s[1].as_uint().unwrap_or(0) as u16,
        );
        XdrValue::Int(0)
    }))?;
    let h = Rc::clone(hw);
    let setup_tx_resources = nucleus(ProcDef::scalar("setup_tx_resources", move |k, _| {
        support::errno_value(h.setup_tx(k))
    }))?;
    let h = Rc::clone(hw);
    let setup_rx_resources = nucleus(ProcDef::scalar("setup_rx_resources", move |k, _| {
        support::errno_value(h.setup_rx(k))
    }))?;
    let irq_handler = Rc::downgrade(irq_handler);
    let request_irq = nucleus(ProcDef::scalar("request_irq", move |k, _| {
        support::errno_value(match irq_handler.upgrade() {
            Some(handler) => k.request_irq(IRQ_LINE, "e1000_decaf", handler),
            None => Err(KError::NoDev),
        })
    }))?;
    let free_irq = nucleus(ProcDef::scalar("free_irq", |k, _| {
        k.free_irq(IRQ_LINE);
        XdrValue::Int(0)
    }))?;
    let h = Rc::clone(hw);
    let up_datapath = nucleus(ProcDef::scalar("up_datapath", move |k, _| {
        h.up(k);
        XdrValue::Int(0)
    }))?;
    // Freeing either ring's resources and stopping the data path are the
    // same quiesce on this hardware model.
    let down = |name| {
        let h = Rc::clone(hw);
        nucleus(ProcDef::scalar(name, move |k, _| {
            h.down(k);
            XdrValue::Int(0)
        }))
    };
    Ok(Imports {
        eeprom_read,
        phy_read,
        phy_write,
        setup_tx_resources,
        setup_rx_resources,
        request_irq,
        free_irq,
        up_datapath,
        free_tx_resources: down("free_tx_resources")?,
        free_rx_resources: down("free_rx_resources")?,
        down_datapath: down("down_datapath")?,
    })
}

/// Sets an embedded-struct member (`adapter->hw.<member>`) on the decaf
/// heap copy of the adapter, in place: one tracked write of `hw`.
fn set_hw_member(ch: &XpcChannel, adapter: CAddr, member: &str, value: XdrValue) {
    let heap = ch.heap(Domain::Decaf);
    let mut h = heap.borrow_mut();
    let _ = h.update_scalar(adapter, "hw", |hw| hw.set_field(member, value));
}

fn set_field(ch: &XpcChannel, adapter: CAddr, field: &str, value: XdrValue) {
    let heap = ch.heap(Domain::Decaf);
    let _ = heap.borrow_mut().set_scalar(adapter, field, value);
}

fn get_int(ch: &XpcChannel, adapter: CAddr, field: &str) -> i32 {
    let heap = ch.heap(Domain::Decaf);
    let v = heap.borrow().scalar(adapter, field).ok().cloned();
    v.and_then(|v| v.as_int()).unwrap_or(0)
}

/// User-level decaf-driver handlers: the converted Java (here: safe Rust)
/// implementations of the user partition. They call the kernel imports
/// by the handles `imp` holds.
fn register_decaf_handlers(
    channel: &XpcChannel,
    plan: &SlicePlan,
    imp: Imports,
) -> XpcResult<Entries> {
    // e1000_probe: sw_init + check_options + EEPROM + reset + link setup,
    // mirroring the mini-C bodies.
    let probe = support::register_entry(channel, plan, "e1000_probe", move |k, ch, a, _| {
        // e1000_sw_init.
        set_field(ch, a, "msg_enable", XdrValue::Int(3));
        set_field(ch, a, "itr", XdrValue::Int(8000));
        set_field(ch, a, "rx_csum", XdrValue::Int(1));
        set_hw_member(ch, a, "mac_type", XdrValue::Int(5));
        set_hw_member(ch, a, "media_type", XdrValue::Int(1));
        set_hw_member(ch, a, "autoneg", XdrValue::Int(1));
        // e1000_check_options: range/set-membership validation.
        set_field(ch, a, "speed", XdrValue::Int(1000));
        set_field(ch, a, "duplex", XdrValue::Int(1));
        // e1000_init_eeprom: MAC + checksum through downcalls.
        let eeprom_read = |k: &Kernel, w: u32| {
            let word = [XdrValue::UInt(w)];
            ch.call_resolved(k, Domain::Decaf, imp.eeprom_read, &[], &word)
        };
        let mut mac = [0u8; 6];
        for w in 0..3u32 {
            let word = eeprom_read(k, w)
                .ok()
                .and_then(|v| v.as_uint())
                .unwrap_or(0) as u16;
            mac[w as usize * 2] = (word & 0xff) as u8;
            mac[w as usize * 2 + 1] = (word >> 8) as u8;
        }
        let _checksum = eeprom_read(k, 63).ok();
        set_field(ch, a, "mac", XdrValue::Opaque(mac.to_vec()));
        set_hw_member(ch, a, "fc_mode", XdrValue::Int(3));
        // e1000_reset_hw_decaf.
        decaf_writel(k, ch, hwreg::CTRL, hwreg::CTRL_RST);
        let _ = decaf_readl(k, ch, hwreg::STATUS);
        decaf_writel(k, ch, hwreg::IMC, 0xffff_ffff);
        let _ = decaf_readl(k, ch, hwreg::ICR);
        // Save PCI config space (the @exp(PCI_LEN) array exists
        // for this path).
        for w in 0..8u64 {
            let _ = decaf_readl(k, ch, w * 4);
        }
        // e1000_setup_link + the Figure 5 DSP sequence.
        let phy_read = |k: &Kernel, reg: u32| {
            let reg = [XdrValue::UInt(reg)];
            ch.call_resolved(k, Domain::Decaf, imp.phy_read, &[], &reg)
                .ok()
                .and_then(|v| v.as_uint())
                .unwrap_or(0)
        };
        // PHY writes are posted: defer them so a whole DSP
        // programming sequence crosses in one batched flush.
        let phy_write = |k: &Kernel, reg: u32, val: u32| {
            let args = [XdrValue::UInt(reg), XdrValue::UInt(val)];
            let _ = ch.call_deferred_resolved(k, Domain::Decaf, imp.phy_write, &[], &args);
        };
        let _ctrl = phy_read(k, 0);
        phy_write(k, 0, 0x1140);
        phy_write(k, 4, 0x0de0);
        phy_write(k, 9, 0x0300);
        let _status = phy_read(k, 1);
        for (reg, val) in [
            (29u32, 0x001f_u32),
            (30, 0x0646),
            (29, 0x001b),
            (30, 0x8fae),
        ] {
            phy_write(k, reg, val);
        }
        let _ = phy_read(k, 30);
        XdrValue::Int(0)
    })?;

    // e1000_open: the Figure 4 function. Result-based staged cleanup —
    // the Rust rendition of the nested exception handlers.
    let open = support::register_entry(channel, plan, "e1000_open", move |k, ch, a, _| {
        let down = |k: &Kernel, proc: ProcHandle| -> Result<(), i32> {
            match ch.call_resolved(k, Domain::Decaf, proc, &[], &[]) {
                Ok(XdrValue::Int(0)) => Ok(()),
                Ok(XdrValue::Int(e)) => Err(e),
                _ => Err(KError::Io.errno()),
            }
        };
        // Stage 1: transmit resources.
        if let Err(e) = down(k, imp.setup_tx_resources) {
            let _ = down(k, imp.down_datapath); // e1000_reset
            return XdrValue::Int(e);
        }
        // Stage 2: receive resources; on failure free stage 1.
        if let Err(e) = down(k, imp.setup_rx_resources) {
            let _ = down(k, imp.free_tx_resources);
            return XdrValue::Int(e);
        }
        // Stage 3: the interrupt line; on failure free stages 1-2.
        if let Err(e) = down(k, imp.request_irq) {
            let _ = down(k, imp.free_rx_resources);
            let _ = down(k, imp.free_tx_resources);
            return XdrValue::Int(e);
        }
        // Power up the PHY and start the data path.
        let reg = [XdrValue::UInt(0)];
        let _ = ch.call_resolved(k, Domain::Decaf, imp.phy_read, &[], &reg);
        let args = [XdrValue::UInt(0), XdrValue::UInt(0x1000)];
        let _ = ch.call_deferred_resolved(k, Domain::Decaf, imp.phy_write, &[], &args);
        if let Err(e) = down(k, imp.up_datapath) {
            let _ = down(k, imp.free_irq);
            let _ = down(k, imp.free_rx_resources);
            let _ = down(k, imp.free_tx_resources);
            return XdrValue::Int(e);
        }
        set_field(ch, a, "link_up", XdrValue::Int(1));
        XdrValue::Int(0)
    })?;

    let close = support::register_entry(channel, plan, "e1000_close", move |k, ch, a, _| {
        set_field(ch, a, "link_up", XdrValue::Int(0));
        let _ = ch.call_resolved(k, Domain::Decaf, imp.down_datapath, &[], &[]);
        let _ = ch.call_resolved(k, Domain::Decaf, imp.free_irq, &[], &[]);
        XdrValue::Int(0)
    })?;

    let watchdog = support::register_entry(channel, plan, "e1000_watchdog_task", |k, ch, a, _| {
        let status = decaf_readl(k, ch, hwreg::STATUS);
        let up = status & hwreg::STATUS_LU != 0;
        set_field(ch, a, "link_up", XdrValue::Int(up as i32));
        let events = get_int(ch, a, "watchdog_events");
        set_field(ch, a, "watchdog_events", XdrValue::Int(events + 1));
        XdrValue::Int(0)
    })?;

    // Management paths (ethtool get/set analogues).
    support::register_entry(channel, plan, "e1000_get_settings", |_k, ch, a, _| {
        XdrValue::Int(get_int(ch, a, "speed"))
    })?;
    support::register_entry(channel, plan, "e1000_set_settings", |k, ch, a, scalars| {
        let speed = scalars.first().and_then(|v| v.as_int()).unwrap_or(1000);
        set_field(ch, a, "speed", XdrValue::Int(speed));
        decaf_writel(k, ch, hwreg::CTRL, hwreg::CTRL_RST);
        XdrValue::Int(0)
    })?;
    Ok(Entries {
        probe,
        open,
        close,
        watchdog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_simkernel::SkBuff;

    /// The [`Hosting::Shmring`] build, typed.
    fn install_shmring(kernel: &Kernel, ifname: &str) -> KResult<RingSplit<E1000Hw, E1000Device>> {
        build(kernel, ifname, Hosting::Shmring).map(RingSplit::new)
    }

    #[test]
    fn install_probes_through_xpc() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        assert!(drv.init_latency_ns > 0);
        // Initialization crossed the boundary dozens of times.
        let crossings = drv.crossings();
        assert!(
            (20..300).contains(&crossings),
            "expected tens of crossings during init, got {crossings}"
        );
        // The decaf driver populated the shared adapter: the nucleus can
        // read back the MAC the user-level code assembled.
        let heap = drv.channel.heap(Domain::Nucleus);
        let mac = heap.borrow().scalar(drv.root, "mac").unwrap().clone();
        assert_eq!(mac.as_opaque().unwrap(), super::super::MAC);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn open_then_traffic_stays_in_kernel() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let crossings_after_open = drv.crossings();
        for _ in 0..20 {
            k.net_xmit("eth0", SkBuff::synthetic(1400, 9, 0x0800))
                .unwrap();
            k.schedule_point();
        }
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, 20);
        assert_eq!(st.rx_packets, 20);
        assert_eq!(
            drv.crossings(),
            crossings_after_open,
            "the data path must not touch the decaf driver"
        );
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn watchdog_upcalls_every_two_seconds() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        let invocations_before = drv.nuc.decaf_invocations();
        k.run_for(6_500_000_000);
        let delta = drv.nuc.decaf_invocations() - invocations_before;
        assert_eq!(delta, 3, "one upcall per 2 s watchdog period");
        assert!(k.carrier_ok("eth0"));
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn open_failure_runs_staged_cleanup() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        // Occupy the IRQ line so the decaf driver's request_irq fails.
        k.request_irq(IRQ_LINE, "squatter", Rc::new(|_| {}))
            .unwrap();
        let err = k.netdev_open("eth0").unwrap_err();
        assert_eq!(err, KError::Busy);
        // The adapter must not report link-up after the failed open.
        let heap = drv.channel.heap(Domain::Nucleus);
        let up = heap.borrow().scalar(drv.root, "link_up").unwrap().as_int();
        assert_eq!(up, Some(0));
    }

    #[test]
    fn shmring_build_moves_packets_with_zero_marshaled_payload() {
        let k = Kernel::new();
        let drv = install_shmring(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let before = drv.channel.stats();
        let copied_before = k.stats().bytes_copied;
        for i in 0..32 {
            k.net_xmit("eth0", SkBuff::synthetic(1400, i as u8, 0x0800))
                .unwrap();
            k.schedule_point();
            k.run_for(200_000);
        }
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, 32, "all frames transmitted through the ring");
        assert_eq!(
            st.rx_packets, 32,
            "loopback frames received through the ring"
        );
        let after = drv.channel.stats();
        // The data path crossed (descriptors + doorbells), but zero
        // payload bytes went through the XDR marshaler: the per-doorbell
        // wire cost is a handful of header bytes, independent of the
        // 1400-byte payloads.
        let marshaled = (after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out);
        assert!(
            marshaled < 32 * 64,
            "marshaled {marshaled} B for 44800 payload B — payload leaked into the marshaler"
        );
        assert_eq!(
            after.ring_posts - before.ring_posts,
            64,
            "one TX and one RX descriptor per packet"
        );
        assert!(after.doorbells > before.doorbells);
        assert!(after.ring_occupancy_hwm >= 1);
        // Copy audit: exactly one copy into the pool and one into the
        // stack per packet — same as the native build.
        assert_eq!(k.stats().bytes_copied - copied_before, 2 * 32 * 1400);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn shmring_marshaled_bytes_independent_of_payload_size() {
        // The zero-copy proof: run the same packet count at two payload
        // sizes; the marshaled-byte counters must come out identical.
        let run = |pkt_len: usize| {
            let k = Kernel::new();
            let drv = install_shmring(&k, "eth0").unwrap();
            k.netdev_open("eth0").unwrap();
            k.schedule_point();
            let before = drv.channel.stats();
            for _ in 0..TX_DOORBELL_WATERMARK * 2 {
                k.net_xmit("eth0", SkBuff::synthetic(pkt_len, 7, 0x0800))
                    .unwrap();
            }
            k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
            let after = drv.channel.stats();
            (
                after.bytes_in - before.bytes_in,
                after.bytes_out - before.bytes_out,
            )
        };
        assert_eq!(run(64), run(1500), "payload size must not reach the wire");
    }

    #[test]
    fn shmring_batches_descriptors_per_doorbell_at_line_rate() {
        let k = Kernel::new();
        let drv = install_shmring(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let before = drv.channel.stats();
        // Back-to-back sends (no virtual time between them): the
        // watermark, not the deadline, should trigger the doorbells.
        for _ in 0..TX_DOORBELL_WATERMARK * 4 {
            k.net_xmit("eth0", SkBuff::synthetic(1000, 1, 0x0800))
                .unwrap();
        }
        let after = drv.channel.stats();
        let tx_doorbells = after.doorbells - before.doorbells;
        assert_eq!(tx_doorbells, 4, "one doorbell per watermark batch");
        assert_eq!(
            after.ring_occupancy_hwm as usize, TX_DOORBELL_WATERMARK,
            "ring fills to the watermark between doorbells"
        );
    }

    #[test]
    fn sharded_build_moves_packets_across_per_shard_rings() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 4).unwrap();
        assert_eq!(drv.shards(), 4);
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let before = drv.channels.stats();
        for i in 0..48u64 {
            k.net_xmit("eth0", SkBuff::synthetic(1200, i as u8, 0x0800))
                .unwrap();
            k.schedule_point();
            k.run_for(100_000);
        }
        k.run_for(4 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, 48, "all frames transmitted");
        assert_eq!(st.rx_packets, 48, "loopback frames received");
        // Flow steering spread the frames: at least two TX shards and at
        // least two shard channels saw traffic.
        let tx_rings_used = (0..4)
            .filter(|&i| drv.tx_set.ring(i).stats().posts > 0)
            .count();
        assert!(
            tx_rings_used >= 2,
            "frames stuck on {tx_rings_used} ring(s)"
        );
        // Descriptor conservation: everything posted was completed and
        // steered home; nothing in flight once quiesced.
        assert!(drv.tx_set.conserved());
        assert!(drv.rx_set.conserved());
        assert_eq!(drv.tx_set.in_flight(), 0, "{:?}", drv.tx_set.stats());
        assert_eq!(drv.rx_set.in_flight(), 0, "{:?}", drv.rx_set.stats());
        assert_eq!(drv.tx_set.stats().posted, 48);
        // Zero payload bytes through the marshaler, as in the unsharded
        // shmring build.
        let after = drv.channels.stats();
        let marshaled = (after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out);
        assert!(marshaled < 48 * 64, "payload leaked into the marshaler");
        // Per-shard cost accounting saw parallel work.
        let busy = k.shard_busy_ns();
        assert!(
            busy.iter().filter(|&&ns| ns > 0).count() >= 2,
            "expected work on ≥2 shards: {busy:?}"
        );
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn sharded_probe_and_watchdog_ride_the_control_shard() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 4).unwrap();
        assert!(drv.init_latency_ns > 0);
        // The decaf driver populated the shared adapter on shard 0.
        let heap = drv.channels.heap(0, Domain::Nucleus);
        let mac = heap.borrow().scalar(drv.root, "mac").unwrap().clone();
        assert_eq!(mac.as_opaque().unwrap(), super::super::MAC);
        assert_eq!(drv.channels.home_of(drv.root), Some(0));
        // Control traffic lands on shard 0 only.
        assert!(drv.channels.shard_stats(0).round_trips > 0);
        for i in 1..4 {
            assert_eq!(
                drv.channels.shard_stats(i).round_trips,
                0,
                "shard {i} saw control traffic"
            );
        }
        k.netdev_open("eth0").unwrap();
        k.run_for(4_500_000_000);
        assert!(k.carrier_ok("eth0"));
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn runtime_split_matches_slicer_plan() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        // Every decaf-registered proc must be a user-partition function in
        // the plan; nucleus procs must not be decaf functions.
        for proc in drv.channel.proc_names(Domain::Decaf) {
            assert!(
                drv.plan.decaf_fns.contains(&proc),
                "`{proc}` is registered decaf but the slicer placed it elsewhere"
            );
        }
        for proc in drv.channel.proc_names(Domain::Nucleus) {
            assert!(
                !drv.plan.decaf_fns.contains(&proc),
                "`{proc}` is registered in the nucleus but sliced to decaf"
            );
        }
    }

    #[test]
    fn poll_mode_delivers_frames_without_rx_doorbells() {
        const PKTS: u64 = 24;
        let run = |poll: bool| {
            let k = Kernel::new();
            let drv = if poll {
                install_shmring_poll(&k, "eth0").unwrap()
            } else {
                install_shmring(&k, "eth0").unwrap()
            };
            assert_eq!(
                drv.rx_mode,
                if poll {
                    RxMode::Poll
                } else {
                    RxMode::Interrupt
                }
            );
            k.netdev_open("eth0").unwrap();
            k.schedule_point();
            for i in 0..PKTS {
                k.net_xmit("eth0", SkBuff::synthetic(800, i as u8, 0x0800))
                    .unwrap();
                k.schedule_point();
                k.run_for(200_000);
            }
            k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
            let st = k.net_stats("eth0");
            assert_eq!(st.tx_packets, PKTS);
            assert_eq!(st.rx_packets, PKTS, "every loopback frame delivered");
            assert!(k.violations().is_empty(), "{:?}", k.violations());
            drv.channel.stats().doorbells
        };
        // TX doorbells ring in both modes; the poll build must shed
        // every RX doorbell crossing (roughly one per packet at this
        // pacing), receiving through budgeted probes instead.
        let interrupt_mode = run(false);
        let poll_mode = run(true);
        assert!(
            poll_mode < interrupt_mode,
            "poll receive must shed doorbells: poll {poll_mode} vs interrupt {interrupt_mode}"
        );
    }

    #[test]
    fn sharded_async_transport_overlaps_doorbell_crossings() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 4).unwrap();
        assert!(drv.channels.shard(0).transport_kind().launches());
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        for i in 0..48u64 {
            k.net_xmit("eth0", SkBuff::synthetic(900, i as u8, 0x0800))
                .unwrap();
            k.schedule_point();
            k.run_for(150_000);
        }
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        drv.channels.flush_all(&k).unwrap();
        drv.channels.harvest_all(&k);
        let s = drv.channels.stats();
        assert!(s.tokens_issued > 0, "doorbells launched through tokens");
        assert!(
            s.overlap_ns > 0,
            "posting must overlap launched crossings: {s:?}"
        );
        assert_eq!(
            s.tokens_issued,
            s.tokens_harvested + s.tokens_cancelled,
            "token conservation"
        );
        assert_eq!(drv.channels.tokens_outstanding(), 0);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }
}
