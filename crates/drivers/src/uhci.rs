//! The uhci-hcd USB 1.0 host-controller driver.
//!
//! The paper could convert only 4% of this driver's functions to Java:
//! "the driver contained several functions on the data path that could
//! potentially call nearly any code in the driver" (§4.1), so 68
//! functions stayed in the kernel, 12 in the driver library and just 3
//! moved to the decaf driver. The mini-C source reproduces that shape:
//! the schedule-walking data path reaches most of the driver, leaving
//! only suspend/resume/debug at user level.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use decaf_shmring::{AllocMode, SectorPool, SgSegment, UrbRingSet};
use decaf_simdev::uhci as hwreg;
use decaf_simdev::UhciDevice;
use decaf_simkernel::kernel::WorkBody;
use decaf_simkernel::usb::{HcdOps, Urb, UrbCompletion, UrbDir};
use decaf_simkernel::{
    costs, CpuClass, DmaMemory, KError, KResult, Kernel, MmioHandle, MmioRegion, TimerId,
};
use decaf_slicer::{slice, SliceConfig, SlicePlan};
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;
use decaf_xpc::{
    ChannelConfig, Domain, NuclearRuntime, ProcDef, ProcHandle, ShardedChannel, ShardedUrbPath,
    XpcChannel, XpcResult,
};

use crate::support::{self, decaf_readl, decaf_writel, Native, Split, Unload};

/// IRQ line of the controller.
pub const IRQ_LINE: u32 = 9;
/// DMA offset of the frame list (1024 dwords).
pub const FRAME_LIST_OFF: usize = 0x1000;
/// DMA offset of the TD pool.
pub const TD_POOL_OFF: usize = 0x2000;
/// DMA offset of the transfer buffer pool.
pub const BUF_POOL_OFF: usize = 0x8000;
/// DMA offset of the shared sector pool (ring build).
pub const SECTOR_POOL_OFF: usize = 0x20000;
/// Sectors in the shared pool.
pub const SECTOR_POOL_SECTORS: usize = 128;
/// URB submit-ring depth (giveback ring is twice this).
pub const URB_RING_DEPTH: usize = 64;
/// URB requests per doorbell when a burst outruns the coalescing
/// deadline (a `tar` file's worth of sectors amortizes crossings the
/// way netperf's line rate does).
pub const URB_DOORBELL_WATERMARK: usize = 4;
/// Largest transfer one TD can carry: the maxlen field is 11 bits and
/// `0x7ff` is the zero-length sentinel.
pub const MAX_TD_XFER: usize = 0x7ff;

/// Mini-C source for DriverSlicer.
pub mod minic {
    /// The driver source.
    pub const SOURCE: &str = r#"
struct uhci_hcd {
    int rh_state;
    int frame_number;
    int is_stopped;
    int scan_in_progress;
    unsigned long long urbs_done;
    int port_c_suspend;
    int resume_detect;
};

/* Interrupt + schedule scan: the data path that reaches everything. */
int uhci_irq(struct uhci_hcd *uhci) @irq {
    int status;
    status = readl(4);
    if (status == 0) { return 0; }
    uhci_scan_schedule(uhci);
    return 1;
}
int uhci_scan_schedule(struct uhci_hcd *uhci) @datapath {
    uhci->scan_in_progress = 1;
    uhci_giveback_urb(uhci);
    uhci_free_td(uhci);
    uhci_fixup_toggles(uhci);
    uhci->scan_in_progress = 0;
    return 0;
}
int uhci_urb_enqueue(struct uhci_hcd *uhci, int len) @datapath {
    uhci_alloc_td(uhci);
    uhci_map_buffer(uhci, len);
    writel(0, 1);
    return 0;
}
int uhci_giveback_urb(struct uhci_hcd *uhci) {
    uhci->urbs_done += 1;
    return 0;
}
int uhci_alloc_td(struct uhci_hcd *uhci) { return 0; }
int uhci_free_td(struct uhci_hcd *uhci) { return 0; }
int uhci_map_buffer(struct uhci_hcd *uhci, int len) { return 0; }
int uhci_fixup_toggles(struct uhci_hcd *uhci) { return 0; }
int uhci_reset_hc(struct uhci_hcd *uhci) @datapath {
    writel(0, 2);
    readl(0);
    return 0;
}
int uhci_start(struct uhci_hcd *uhci) @datapath {
    uhci_reset_hc(uhci);
    writel(16, 4096);
    writel(0, 1);
    return 0;
}
int uhci_stop(struct uhci_hcd *uhci) @datapath {
    writel(0, 0);
    return 0;
}
int uhci_hub_status_data(struct uhci_hcd *uhci) @datapath {
    int port;
    port = readl(20);
    return port;
}

/* Library helpers: user-level C. */
int uhci_debug_fill(struct uhci_hcd *uhci) @library { return 0; }
int uhci_sprint_schedule(struct uhci_hcd *uhci) @library { return 0; }
int uhci_show_status(struct uhci_hcd *uhci) @library {
    readl(0);
    readl(4);
    return 0;
}

/* The three functions that made it to the decaf driver. */
int uhci_rh_suspend(struct uhci_hcd *uhci) @export {
    uhci->rh_state = 1;
    uhci->port_c_suspend = 1;
    writel(0, 16);
    return 0;
}
int uhci_rh_resume(struct uhci_hcd *uhci) @export {
    int cmd;
    if (uhci->rh_state == 0) { return 0 - 22; }
    cmd = readl(0);
    writel(0, 1);
    uhci->rh_state = 2;
    uhci->resume_detect = 0;
    return 0;
}
int uhci_count_ports(struct uhci_hcd *uhci) @export {
    int sc;
    sc = readl(20);
    if (sc == 0) { return 0; }
    return 2;
}
"#;
}

/// Attaches the controller (with its flash drive) to the bus.
pub fn attach(kernel: &Kernel) -> (MmioRegion, DmaMemory, Rc<std::cell::RefCell<UhciDevice>>) {
    let dma = DmaMemory::new(256 * 1024);
    let dev = Rc::new(std::cell::RefCell::new(UhciDevice::new(
        IRQ_LINE,
        dma.clone(),
    )));
    let handle: MmioHandle = dev.clone();
    kernel.pci_add_device(decaf_simkernel::pci::PciDevice {
        vendor: 0x8086,
        device: 0x7112,
        irq_line: IRQ_LINE,
        bars: vec![handle.clone()],
        name: "uhci-hcd".into(),
    });
    (MmioRegion::new(handle), dma, dev)
}

/// Kernel-resident controller state shared by both builds.
pub struct UhciHw {
    /// I/O window.
    pub bar: MmioRegion,
    /// DMA region.
    pub dma: DmaMemory,
    next_td: Cell<usize>,
    /// Completed URBs.
    pub urbs_done: Cell<u64>,
}

impl UhciHw {
    /// Wraps the register window and DMA region.
    pub fn new(bar: MmioRegion, dma: DmaMemory) -> Self {
        UhciHw {
            bar,
            dma,
            next_td: Cell::new(0),
            urbs_done: Cell::new(0),
        }
    }

    /// Initializes the frame list and starts the controller.
    pub fn start(&self, kernel: &Kernel) {
        self.bar.outl(kernel, hwreg::USBCMD, hwreg::CMD_HCRESET);
        for f in 0..1024usize {
            self.dma
                .write_u32(FRAME_LIST_OFF + f * 4, hwreg::LINK_TERMINATE);
        }
        self.bar
            .outl(kernel, hwreg::FRBASEADD, FRAME_LIST_OFF as u32);
        self.bar.outl(kernel, hwreg::USBINTR, 1);
        self.bar.outl(kernel, hwreg::USBCMD, hwreg::CMD_RS);
    }

    /// Programs one TD pointing at `buf` (an absolute DMA offset — the
    /// staging slot of the by-value paths; the ring build chains TDs
    /// over shared sector runs with [`UhciHw::submit_sg`] instead),
    /// kicks the schedule and returns `(status, actual)`: 0 or a
    /// negative errno, plus the bytes the device actually transferred.
    /// No payload copy happens here — whoever owns `buf` decides whether
    /// one was paid getting the data there.
    ///
    /// Transfers beyond [`MAX_TD_XFER`] are rejected with `-EINVAL`
    /// rather than silently truncated: the TD's 11-bit maxlen field
    /// cannot express them.
    pub fn submit_at(&self, kernel: &Kernel, endpoint: u8, buf: usize, len: usize) -> (i32, u32) {
        if len > MAX_TD_XFER {
            return (KError::Inval.errno(), 0);
        }
        let (status, actual) = self.raw_td(kernel, endpoint, buf, len, false);
        if status == 0 {
            self.urbs_done.set(self.urbs_done.get() + 1);
        }
        (status, actual)
    }

    /// Programs and executes a single TD without URB-level bookkeeping:
    /// no length-cap check (callers chunk) and no `urbs_done` bump (a
    /// chained URB is many TDs but one URB). When `more` is set the
    /// token carries [`decaf_simdev::uhci::hwreg::TD_TOKEN_MORE`],
    /// telling the device the transfer continues in the next TD.
    fn raw_td(
        &self,
        kernel: &Kernel,
        endpoint: u8,
        buf: usize,
        len: usize,
        more: bool,
    ) -> (i32, u32) {
        let slot = self.next_td.get() % 64;
        self.next_td.set(self.next_td.get() + 1);
        let td = TD_POOL_OFF + slot * 16;
        let ep = endpoint as u32;
        self.dma.write_u32(td, hwreg::LINK_TERMINATE);
        self.dma.write_u32(td + 4, hwreg::TD_ACTIVE);
        let maxlen = if len == 0 {
            0x7ff
        } else {
            (len - 1) as u32 & 0x7ff
        };
        let mut token = (maxlen << 21) | (ep << 15);
        if more {
            token |= hwreg::TD_TOKEN_MORE;
        }
        self.dma.write_u32(td + 8, token);
        self.dma.write_u32(td + 12, buf as u32);
        self.dma.write_u32(FRAME_LIST_OFF, td as u32);
        // Kick: set RS again (the model walks the schedule on the write).
        self.bar.outl(kernel, hwreg::USBCMD, hwreg::CMD_RS);
        self.dma.write_u32(FRAME_LIST_OFF, hwreg::LINK_TERMINATE);

        let status = self.dma.read_u32(td + 4);
        if status & hwreg::TD_STALLED != 0 {
            (KError::Io.errno(), 0)
        } else {
            (0, status & 0x7ff)
        }
    }

    /// Submits one URB as a TD chain over a scatter-gather segment list:
    /// one TD per segment (segments longer than [`MAX_TD_XFER`] are
    /// chunked — the 11-bit maxlen field caps a single TD, not the
    /// transfer), every TD but the last carrying the MORE token bit so
    /// the device treats the chain as one transfer. Returns `(status,
    /// actual)` with `actual` accumulated across segment boundaries; a
    /// device-side short packet ends the chain early with the bytes
    /// delivered so far, and a stall reports `(-EIO, 0)` like the
    /// single-TD path. A zero-length transfer (empty chain) programs
    /// nothing and completes immediately.
    pub fn submit_sg(
        &self,
        kernel: &Kernel,
        endpoint: u8,
        segments: &[SgSegment],
        len: usize,
    ) -> (i32, u32) {
        if len > segments.iter().map(|s| s.bytes).sum() {
            // The chain cannot hold the requested length. The URB path
            // validates this at submission; refuse rather than truncate
            // if a caller reaches the hardware directly.
            return (KError::Inval.errno(), 0);
        }
        // With the length known to fit, the final TD — the only one
        // without MORE — is the one that brings `remaining` to zero.
        let mut total: u32 = 0;
        let mut remaining = len;
        'chain: for seg in segments {
            let mut off = seg.offset;
            let mut left = seg.bytes.min(remaining);
            while left > 0 {
                let chunk = left.min(MAX_TD_XFER);
                remaining -= chunk;
                let (status, actual) = self.raw_td(kernel, endpoint, off, chunk, remaining > 0);
                if status != 0 {
                    return (status, 0);
                }
                total += actual;
                if (actual as usize) < chunk {
                    // Short packet: the device ended the transfer here.
                    break 'chain;
                }
                off += chunk;
                left -= chunk;
            }
        }
        self.urbs_done.set(self.urbs_done.get() + 1);
        (0, total)
    }

    /// Submits one URB by value: stages the payload in the staging
    /// buffer (both directions' copies audited), builds the TD and kicks
    /// the schedule.
    pub fn submit(&self, kernel: &Kernel, urb: &Urb) -> KResult<Vec<u8>> {
        // Submission is synchronous in this model — the schedule walks
        // to completion inside `submit_at` — so one staging buffer is
        // always free again by the time the next URB arrives.
        let buf = BUF_POOL_OFF;
        let len = urb.data.len().max(if urb.dir == UrbDir::In {
            hwreg::SECTOR_SIZE
        } else {
            0
        });
        if urb.dir == UrbDir::Out {
            self.dma.write_bytes(buf, &urb.data);
            kernel.charge_copy(decaf_simkernel::CpuClass::Kernel, urb.data.len() as u64);
        }
        let (status, actual) = self.submit_at(kernel, urb.endpoint, buf, len);
        if status != 0 {
            return Err(KError::from_errno(status).unwrap_or(KError::Io));
        }
        if urb.dir == UrbDir::In {
            // Short reads report the *actual* transferred length the
            // device left in the TD, not the padded staging buffer —
            // and the audited copy-out matches what the caller gets.
            kernel.charge_copy(decaf_simkernel::CpuClass::Kernel, actual as u64);
            Ok(self.dma.read_bytes(buf, actual as usize))
        } else {
            Ok(Vec::new())
        }
    }

    /// Interrupt service: acknowledge the completion cause.
    pub fn handle_irq(&self, kernel: &Kernel) {
        let sts = self.bar.inl(kernel, hwreg::USBSTS);
        if sts & hwreg::STS_USBINT != 0 {
            self.bar.outl(kernel, hwreg::USBSTS, hwreg::STS_USBINT);
        }
    }
}

fn hcd_ops(hw: Rc<UhciHw>) -> HcdOps {
    HcdOps {
        submit: Rc::new(move |k: &Kernel, urb: Urb, completion: UrbCompletion| {
            let result = hw.submit(k, &urb);
            k.schedule_point();
            completion(k, result);
            Ok(())
        }),
    }
}

/// Loads the native driver.
pub fn install_native(kernel: &Kernel, hcd: &str) -> KResult<Native<UhciHw, UhciDevice>> {
    let (bar, dma, dev) = attach(kernel);
    let hw = Rc::new(UhciHw::new(bar, dma));
    let name = hcd.to_string();
    let hw_init = Rc::clone(&hw);
    let init_latency_ns = kernel.insmod("uhci-hcd", move |k| {
        hw_init.start(k);
        let _ports = hw_init.bar.inl(k, hwreg::PORTSC1);
        k.usb_register_hcd(&name, hcd_ops(Rc::clone(&hw_init)))?;
        let hw_irq = Rc::clone(&hw_init);
        k.request_irq(IRQ_LINE, "uhci-hcd", Rc::new(move |k| hw_irq.handle_irq(k)))?;
        Ok(())
    })?;
    Ok(Native {
        kernel: kernel.clone(),
        hw,
        name: hcd.to_string(),
        init_latency_ns,
        dev,
        unload: Unload::new("uhci-hcd", IRQ_LINE, Kernel::usb_unregister_hcd),
    })
}

/// The driver image: DriverSlicer's output for [`minic::SOURCE`], built on
/// first use and shared immutably by every load — `insmod` links a
/// prebuilt image, it does not re-slice the source (see
/// [`crate::e1000::image`]).
pub fn image() -> Arc<SlicePlan> {
    static IMAGE: OnceLock<Arc<SlicePlan>> = OnceLock::new();
    support::shared_image(&IMAGE, || slice(minic::SOURCE, &SliceConfig::default()))
}

/// What every user-level build starts from: the attached controller,
/// the driver image, and `shards` channels of `config` built from the
/// image, each linked with the register-access imports and the image's
/// three root-hub entry points. A single-channel build is one shard and
/// takes `channels.shard(0)`.
struct Attached {
    hw: Rc<UhciHw>,
    plan: Arc<SlicePlan>,
    channels: Rc<ShardedChannel>,
    dev: Rc<RefCell<UhciDevice>>,
    /// The root-hub entry points' handles — every shard registers in one
    /// order, so the control shard's serve all.
    root_hub: RootHub,
}

fn attach_channels(kernel: &Kernel, config: ChannelConfig, shards: usize) -> KResult<Attached> {
    let (bar, dma, dev) = attach(kernel);
    let hw = Rc::new(UhciHw::new(bar.clone(), dma));
    let plan = image();
    let channels = support::channels_from_plan(&plan, config, shards);
    let mut control = None;
    for i in 0..shards {
        let root_hub = register_procs(channels.shard(i), &plan, bar.clone());
        control.get_or_insert(root_hub.map_err(|_| KError::Io)?);
    }
    Ok(Attached {
        hw,
        plan,
        channels,
        dev,
        root_hub: control.expect("a channel facade has a shard"),
    })
}

/// The root-hub entry points the nucleus upcalls, as registered.
#[derive(Clone, Copy)]
struct RootHub {
    suspend: ProcHandle,
    resume: ProcHandle,
    count_ports: ProcHandle,
}

/// Links one channel: the register-access imports and the three
/// root-hub procedures the slicer moved to the decaf driver.
fn register_procs(channel: &XpcChannel, plan: &SlicePlan, bar: MmioRegion) -> XpcResult<RootHub> {
    support::register_io_procs(channel, bar)?;
    let suspend = support::register_entry(channel, plan, "uhci_rh_suspend", |k, ch, u, _| {
        {
            let heap = ch.heap(Domain::Decaf);
            let mut h = heap.borrow_mut();
            let _ = h.set_scalar(u, "rh_state", XdrValue::Int(1));
            let _ = h.set_scalar(u, "port_c_suspend", XdrValue::Int(1));
        }
        decaf_writel(k, ch, hwreg::USBCMD, 0x10);
        XdrValue::Int(0)
    })?;
    let resume = support::register_entry(channel, plan, "uhci_rh_resume", |k, ch, u, _| {
        let _cmd = decaf_readl(k, ch, hwreg::USBCMD);
        decaf_writel(k, ch, hwreg::USBCMD, hwreg::CMD_RS);
        {
            let heap = ch.heap(Domain::Decaf);
            let mut h = heap.borrow_mut();
            let _ = h.set_scalar(u, "rh_state", XdrValue::Int(2));
            let _ = h.set_scalar(u, "resume_detect", XdrValue::Int(0));
        }
        XdrValue::Int(0)
    })?;
    let count_ports = support::register_entry(channel, plan, "uhci_count_ports", |k, ch, _, _| {
        let sc = decaf_readl(k, ch, hwreg::PORTSC1);
        XdrValue::Int(if sc == 0 { 0 } else { 2 })
    })?;
    Ok(RootHub {
        suspend,
        resume,
        count_ports,
    })
}

/// The start of every decaf `insmod`: the kernel-side controller start
/// (data path), then the user-level port count — no ports, no device.
fn start_controller(
    k: &Kernel,
    hw: &UhciHw,
    nuc: &NuclearRuntime,
    root_hub: RootHub,
    u: CAddr,
) -> KResult<()> {
    hw.start(k);
    let ports = nuc
        .upcall_errno(k, root_hub.count_ports, &[Some(u)], &[])
        .map_err(|_| KError::Io)?;
    if ports == 0 {
        return Err(KError::NoDev);
    }
    Ok(())
}

/// Loads the decaf driver: the schedule path stays in the kernel; root
/// hub suspend/resume/port counting run at user level.
pub fn install_decaf(kernel: &Kernel, hcd: &str) -> KResult<Split<UhciHw, UhciDevice>> {
    let Attached {
        hw,
        plan,
        channels,
        dev,
        root_hub,
    } = attach_channels(kernel, ChannelConfig::kernel_user_batched(), 1)?;
    let channel = Rc::clone(channels.shard(0));
    let nuc = Rc::new(NuclearRuntime::new(Rc::clone(&channel), Some(IRQ_LINE)));

    let (root, init_latency_ns) =
        support::load(kernel, "uhci-hcd-decaf", &channels, "uhci_hcd", |k, u| {
            start_controller(k, &hw, &nuc, root_hub, u)?;
            // A suspend/resume cycle as the paper's power management
            // exercise.
            support::upcall(&nuc, k, root_hub.suspend, u)?;
            support::upcall(&nuc, k, root_hub.resume, u)?;
            k.usb_register_hcd(hcd, hcd_ops(Rc::clone(&hw)))?;
            let hw_irq = Rc::clone(&hw);
            k.request_irq(IRQ_LINE, "uhci-hcd", Rc::new(move |k| hw_irq.handle_irq(k)))
        })?;

    Ok(Split {
        kernel: kernel.clone(),
        hw,
        name: hcd.to_string(),
        channel,
        nuc,
        root,
        init_latency_ns,
        plan,
        dev,
        unload: Unload::new("uhci-hcd-decaf", IRQ_LINE, Kernel::usb_unregister_hcd),
    })
}

// --------------------------------------------- by-value build (ablation)

/// The ablation-only build hosting the URB data path at user level *by
/// value* ([`crate::Hosting::Copy`], [`crate::Hosting::BatchedCopy`]):
/// every payload crosses through the XDR marshaler as opaque bytes and
/// is copied into the staging buffer on the far side.
pub struct ValueUhci {
    /// Kernel handle.
    pub kernel: Kernel,
    /// Hardware state.
    pub hw: Rc<UhciHw>,
    /// HCD name.
    pub name: String,
    /// XPC channel.
    pub channel: Rc<XpcChannel>,
    /// Measured `insmod` latency.
    pub init_latency_ns: u64,
    /// Handle to the device model.
    pub dev: Rc<RefCell<UhciDevice>>,
    unload: Unload,
}

/// Loads the by-value user-level URB path: the `copy` (per-URB
/// synchronous marshal) baseline, or with `batched` the `batched-copy`
/// middle rung of the storage ablation.
pub(crate) fn by_value(kernel: &Kernel, hcd: &str, batched: bool) -> KResult<ValueUhci> {
    let config = if batched {
        ChannelConfig::kernel_user_batched()
    } else {
        ChannelConfig::kernel_user()
    };
    let Attached {
        hw, channels, dev, ..
    } = attach_channels(kernel, config, 1)?;
    let channel = Rc::clone(channels.shard(0));

    // The user-level submit handler: the payload arrives by value
    // through the marshaler; `UhciHw::submit` copies it into the
    // staging buffer (audited) and, for IN, copies the result back out
    // — which then marshals back by value too.
    let hw_sub = Rc::clone(&hw);
    let submit = channel
        .register_proc(
            Domain::Decaf,
            ProcDef::scalar("uhci_submit_value", move |k, scalars| {
                let endpoint = scalars[0].as_uint().unwrap_or(0) as u8;
                let dir_in = scalars[1].as_uint().unwrap_or(0) != 0;
                let data = scalars[2].as_opaque().unwrap_or(&[]).to_vec();
                let urb = Urb {
                    endpoint,
                    dir: if dir_in { UrbDir::In } else { UrbDir::Out },
                    data,
                };
                match hw_sub.submit(k, &urb) {
                    Ok(data) if dir_in => XdrValue::Opaque(data),
                    Ok(_) => XdrValue::Int(0),
                    Err(e) => XdrValue::Int(e.errno()),
                }
            }),
        )
        .map_err(|_| KError::Io)?;

    let ch_ops = Rc::clone(&channel);
    let ops = HcdOps {
        submit: Rc::new(move |k: &Kernel, urb: Urb, completion: UrbCompletion| {
            let posted = urb.dir == UrbDir::Out && batched;
            let scalars = [
                XdrValue::UInt(urb.endpoint as u32),
                XdrValue::UInt((urb.dir == UrbDir::In) as u32),
                XdrValue::Opaque(urb.data),
            ];
            let from = Domain::Nucleus;
            let ret = if posted {
                ch_ops
                    .call_deferred_resolved(k, from, submit, &[], &scalars)
                    .map(|_| None)
            } else {
                ch_ops
                    .call_resolved(k, from, submit, &[], &scalars)
                    .map(Some)
            }
            .map_err(|_| KError::Io)?;
            let Some(ret) = ret else {
                // Posted-write semantics: the URB is committed to the
                // batch; errors surface through device status counters.
                completion(k, Ok(Vec::new()));
                return Ok(());
            };
            let result = match ret {
                XdrValue::Opaque(data) => Ok(data),
                XdrValue::Int(0) => Ok(Vec::new()),
                XdrValue::Int(e) => Err(KError::from_errno(e).unwrap_or(KError::Io)),
                _ => Err(KError::Io),
            };
            k.schedule_point();
            completion(k, result);
            Ok(())
        }),
    };

    let hw_init = Rc::clone(&hw);
    let name = hcd.to_string();
    let init_latency_ns = kernel.insmod("uhci-hcd-value", move |k| {
        hw_init.start(k);
        k.usb_register_hcd(&name, ops)?;
        let hw_irq = Rc::clone(&hw_init);
        k.request_irq(IRQ_LINE, "uhci-hcd", Rc::new(move |k| hw_irq.handle_irq(k)))?;
        Ok(())
    })?;

    // Deadline flush for parked OUT URBs (softirq → work item, like
    // every other batched control path), its body built once.
    let ch = Rc::clone(&channel);
    let flush: WorkBody = Rc::new(move |k, _| _ = ch.flush_if_due(k));
    let ch = Rc::clone(&channel);
    let flush_timer = kernel.timer_create(
        "uhci_value_flush",
        Rc::new(move |k| {
            if ch.pending_deferred() > 0 {
                k.schedule_work_handle(&flush, 0);
            }
        }),
    );
    kernel.timer_arm_periodic(flush_timer, costs::DOORBELL_COALESCE_NS);

    Ok(ValueUhci {
        kernel: kernel.clone(),
        hw,
        name: hcd.to_string(),
        channel,
        init_latency_ns,
        dev,
        unload: Unload::new("uhci-hcd-value", IRQ_LINE, Kernel::usb_unregister_hcd)
            .with_timers(vec![flush_timer]),
    })
}

impl ValueUhci {
    /// Flushes any parked OUT URBs (end-of-run barrier for benchmarks).
    pub fn flush(&self) -> KResult<()> {
        self.channel.flush(&self.kernel).map_err(|_| KError::Io)
    }

    /// Unloads the build: the flush timer, the IRQ line and the HCD
    /// registration all go, so a later install under the same name
    /// starts clean.
    pub fn remove(self) {
        let _ = self.flush();
        self.unload.run(&self.kernel, &self.name);
    }
}

// ------------------------------------------------------ ring build

/// The decaf driver with the *user-level* URB data path — the
/// `ChannelConfig::kernel_user_shmring()` build for storage — as
/// **sharded multi-LUN queues**: N parallel URB submit/giveback ring
/// pairs (one per shard) over the one shared sector pool carved from the
/// controller's DMA region, riding a [`ShardedChannel`] facade. One
/// shard is the unsharded build.
///
/// * **Steering** — `usb_submit_urb` maps the URB's endpoint to its LUN
///   ([`hwreg::lun_of_endpoint`]) and hashes the LUN to a shard, so a
///   LUN's command and data URBs stay FIFO on one queue while distinct
///   LUNs spread across queues.
/// * **Per-shard drains against one controller** — each shard's decaf
///   drain consumes its own submit ring and programs one MORE-linked TD
///   chain per URB on the single simulated controller via
///   [`UhciHw::submit_sg`], straight from the shared runs, with every
///   charge attributed through [`Kernel::shard_scope`]; the giveback goes
///   through [`UrbRingSet::complete`], steered home to the submitting
///   shard.
/// * **Control** — shard 0 is the control shard: the shared `uhci_hcd`
///   object is homed there and the root-hub upcalls ride its channel.
///
/// Zero-copy holds at every width: payloads are adopted into the shared
/// pool and IN completions hand run ownership back, so `bytes_copied`
/// stays exactly zero — the shards=1/2/4/8 storage ablation asserts it.
pub struct ShardedUhci {
    /// Kernel handle.
    pub kernel: Kernel,
    /// Hardware state.
    pub hw: Rc<UhciHw>,
    /// HCD name.
    pub name: String,
    /// The sharded channel facade (shard 0 is the control shard).
    pub channels: Rc<ShardedChannel>,
    /// Nuclear runtime (control shard).
    pub nuc: Rc<NuclearRuntime>,
    /// Shared controller object (homed on shard 0).
    pub root: CAddr,
    /// Measured `insmod` latency.
    pub init_latency_ns: u64,
    /// Slicing plan (the shared driver image).
    pub plan: Arc<SlicePlan>,
    /// Handle to the device model (multi-LUN flash inspection/preload).
    pub dev: Rc<RefCell<UhciDevice>>,
    /// The sharded URB data path.
    pub urb_path: Rc<ShardedUrbPath>,
    unload: Unload,
}

/// One slot of the completion slab.
#[derive(Default)]
struct PendingSlot {
    /// Bumped each time the slot's URB leaves, so its cookie goes stale.
    generation: u32,
    callback: Option<UrbCompletion>,
}

/// In-flight completion callbacks, in a slab whose slot *is* the URB
/// cookie: `cookie = slot | generation << 32`. Submitting pops a vacant
/// slot, completing pushes it back — no hashing, and no allocation once
/// the slab has grown to the in-flight depth. A cookie comes home in a
/// giveback the completer writes, so it is checked, not trusted: a slot
/// out of range, vacant, or reused under a later generation fires
/// nothing.
#[derive(Default)]
struct PendingUrbs {
    slab: RefCell<PendingSlab>,
    /// The reclaim batch, kept and reused (taken while in use: a
    /// callback may submit URBs, and every submit dispatches).
    batch: RefCell<Vec<decaf_xpc::UrbReclaim>>,
}

#[derive(Default)]
struct PendingSlab {
    slots: Vec<PendingSlot>,
    /// Vacant slots; the most recently vacated is reused first.
    free: Vec<u32>,
}

impl PendingUrbs {
    /// Parks `callback` in a vacant slot and returns its cookie.
    fn insert(&self, callback: UrbCompletion) -> u64 {
        let mut slab = self.slab.borrow_mut();
        let slot = match slab.free.pop() {
            Some(slot) => slot as usize,
            None => {
                slab.slots.push(PendingSlot::default());
                slab.slots.len() - 1
            }
        };
        let s = &mut slab.slots[slot];
        s.callback = Some(callback);
        slot as u64 | u64::from(s.generation) << 32
    }

    /// Takes the callback of the in-flight URB `cookie` names, vacating
    /// its slot; `None` for a cookie that names no in-flight URB.
    fn take(&self, cookie: u64) -> Option<UrbCompletion> {
        let mut slab = self.slab.borrow_mut();
        let slot = (cookie as u32) as usize;
        let s = slab.slots.get_mut(slot)?;
        if u64::from(s.generation) != cookie >> 32 {
            return None;
        }
        let callback = s.callback.take()?;
        s.generation = s.generation.wrapping_add(1);
        slab.free.push(slot as u32);
        Some(callback)
    }
}

/// Reclaims every shard's givebacks into the batch `pending` keeps and
/// fires their completion callbacks, oldest first. Each callback is
/// taken out of its slot and fired with no borrow held, so a completion
/// may legally submit new URBs.
fn dispatch_reclaims(k: &Kernel, path: &ShardedUrbPath, pending: &PendingUrbs) {
    let mut batch = pending.batch.take();
    path.reclaim_into(k, &mut batch);
    for r in batch.drain(..) {
        let Some(callback) = pending.take(r.cookie) else {
            continue;
        };
        let result = if r.status == 0 {
            Ok(r.data)
        } else {
            Err(KError::from_errno(r.status).unwrap_or(KError::Io))
        };
        callback(k, result);
    }
    pending.batch.replace(batch);
}

/// The ring build's HCD ops: `usb_submit_urb` steers the URB to its
/// LUN's shard (refusing endpoints outside the LUN space before any
/// state is touched) and posts a descriptor into that shard's submit
/// ring — OUT payloads adopted into the sector pool, zero-copy;
/// completions fire when the giveback comes home. On staged
/// backpressure the path has already forced a doorbell, so finished
/// URBs are waiting: reclaim (dispatching them) and retry once, `Busy`
/// after the retry.
fn sharded_hcd_ops(path: Rc<ShardedUrbPath>, pending: Rc<PendingUrbs>) -> HcdOps {
    HcdOps {
        submit: Rc::new(move |k: &Kernel, urb: Urb, completion: UrbCompletion| {
            let lun = hwreg::lun_of_endpoint(urb.endpoint as u32).ok_or(KError::Inval)? as u64;
            let submit_once = |cookie| match urb.dir {
                UrbDir::Out => path
                    .submit_out(k, lun, urb.endpoint, &urb.data, cookie)
                    .is_ok(),
                UrbDir::In => {
                    let len = urb.data.len().max(hwreg::SECTOR_SIZE);
                    path.submit_in(k, lun, urb.endpoint, len, cookie).is_ok()
                }
            };
            let cookie = pending.insert(completion);
            if !submit_once(cookie) {
                dispatch_reclaims(k, &path, &pending);
                if !submit_once(cookie) {
                    pending.take(cookie);
                    return Err(KError::Busy);
                }
            }
            k.schedule_point();
            // Harvest whatever a synchronous watermark doorbell already
            // completed, so callbacks fire close to their transfers.
            dispatch_reclaims(k, &path, &pending);
            Ok(())
        }),
    }
}

/// Arms the coalescing poll: the timer (softirq priority) defers to a
/// work item — upcalls are illegal from atomic context — in which each
/// due shard is polled under its own cost scope by
/// [`ShardedUrbPath::poll`] and the givebacks that came home are
/// dispatched. The work item's body is built here, once; a busy tick
/// queues it by handle.
fn arm_poll_timer(
    kernel: &Kernel,
    path: &Rc<ShardedUrbPath>,
    pending: &Rc<PendingUrbs>,
) -> TimerId {
    let poll: WorkBody = {
        let (path, pending) = (Rc::clone(path), Rc::clone(pending));
        Rc::new(move |k, _| {
            let _ = path.poll(k);
            dispatch_reclaims(k, &path, &pending);
        })
    };
    let path = Rc::clone(path);
    let timer = kernel.timer_create(
        "uhci_shard_poll",
        Rc::new(move |k| {
            if path.busy() != 0 {
                k.schedule_work_handle(&poll, 0);
            }
        }),
    );
    kernel.timer_arm_periodic(timer, costs::DOORBELL_COALESCE_NS);
    timer
}

/// Loads the decaf driver with `shards` parallel URB queues — the
/// user-level URB data path; `shards = 1` is the unsharded build.
pub fn install_sharded(kernel: &Kernel, hcd: &str, shards: usize) -> KResult<ShardedUhci> {
    sharded(kernel, hcd, shards, AllocMode::default())
}

/// Loads the ring build with the sector pool allocating `mode`'s way —
/// the [`crate::Hosting::ShardedUrb`] build.
pub(crate) fn sharded(
    kernel: &Kernel,
    hcd: &str,
    shards: usize,
    mode: AllocMode,
) -> KResult<ShardedUhci> {
    let Attached {
        hw,
        plan,
        channels,
        dev,
        root_hub,
    } = attach_channels(kernel, ChannelConfig::kernel_user_shmring(), shards)?;
    let urb_path = build_urb_path(&channels, &hw, mode).map_err(|_| KError::Io)?;

    let nuc = Rc::new(NuclearRuntime::new(
        Rc::clone(channels.shard(0)),
        Some(IRQ_LINE),
    ));
    let pending = Rc::new(PendingUrbs::default());

    let (root, init_latency_ns) =
        support::load(kernel, "uhci-hcd-sharded", &channels, "uhci_hcd", |k, u| {
            start_controller(k, &hw, &nuc, root_hub, u)?;
            let ops = sharded_hcd_ops(Rc::clone(&urb_path), Rc::clone(&pending));
            k.usb_register_hcd(hcd, ops)?;
            let hw_irq = Rc::clone(&hw);
            k.request_irq(IRQ_LINE, "uhci-hcd", Rc::new(move |k| hw_irq.handle_irq(k)))
        })?;

    let poll_timer = arm_poll_timer(kernel, &urb_path, &pending);

    Ok(ShardedUhci {
        kernel: kernel.clone(),
        hw,
        name: hcd.to_string(),
        channels,
        nuc,
        root,
        init_latency_ns,
        plan,
        dev,
        urb_path,
        unload: Unload::new("uhci-hcd-sharded", IRQ_LINE, Kernel::usb_unregister_hcd)
            .with_timers(vec![poll_timer]),
    })
}

/// Builds the sharded URB path over one sector pool and registers the
/// per-shard decaf drains.
fn build_urb_path(
    channels: &Rc<ShardedChannel>,
    hw: &Rc<UhciHw>,
    mode: AllocMode,
) -> XpcResult<Rc<ShardedUrbPath>> {
    let shards = channels.shard_count();
    // One pool in the controller's DMA region, shared by every shard's
    // ring pair: the device is singular even when the queues are not.
    let pool = Rc::new(SectorPool::new_with_mode(
        hw.dma.clone(),
        SECTOR_POOL_OFF,
        hwreg::SECTOR_SIZE,
        SECTOR_POOL_SECTORS,
        mode,
    ));
    let set = UrbRingSet::new("uhci-urb", shards, URB_RING_DEPTH, 2 * URB_RING_DEPTH, pool);
    let urb_path = ShardedUrbPath::new(
        Rc::clone(channels),
        Domain::Nucleus,
        "uhci_urb_drain",
        set,
        URB_DOORBELL_WATERMARK,
    )?;

    // Per-shard decaf drains against the one simulated controller: each
    // walks its own submit ring in FIFO order (command stages before
    // data stages within the LUNs steered here), programs TDs straight
    // from the shared runs, and gives back through the set so every
    // completion steers home.
    urb_path.register_drains(|end, set| {
        let hw = Rc::clone(hw);
        let batch = RefCell::new(Vec::new());
        move |k| {
            let _span = k.trace_span("urb", "drain");
            // Each chain's segments are copied into a batch this drain
            // keeps, so no pool borrow is held while `submit_sg` kicks
            // the device.
            let mut segs = batch.take();
            let mut n = 0;
            end.consume(k, |d| {
                end.pool()
                    .sg_segments_into(d.buf, &mut segs)
                    .expect("live chain");
                let (status, actual) = hw.submit_sg(k, d.endpoint, &segs, d.len as usize);
                set.complete(k, CpuClass::User, d.completed(status, actual))
                    .expect("giveback ring sized 2x submit ring");
                n += 1;
            });
            batch.replace(segs);
            XdrValue::Int(n)
        }
    })?;
    Ok(urb_path)
}

impl ShardedUhci {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.channels.shard_count()
    }

    /// Aggregated round trips across every shard channel.
    pub fn crossings(&self) -> u64 {
        self.channels.stats().round_trips
    }

    /// Recovers one shard after its decaf end died: deferred control
    /// calls requeue, the end resets, and the shard's pinned submit ring
    /// re-drains on the fresh channel (see
    /// [`ShardedUrbPath::recover_shard`]).
    pub fn recover_shard(&self, shard: usize) -> KResult<usize> {
        self.urb_path
            .recover_shard(&self.kernel, shard, Domain::Decaf)
            .map_err(|_| KError::Io)
    }

    /// Unloads the driver.
    pub fn remove(self) {
        self.unload.run(&self.kernel, &self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicer_keeps_most_functions_kernel() {
        let plan = image();
        // uhci-hcd is the outlier: only a few functions convert (§4.1).
        assert!(plan.kernel_fns.len() > plan.decaf_fns.len());
        assert_eq!(plan.decaf_fns.len(), 3);
        assert!(plan.kernel_fns.contains(&"uhci_scan_schedule".to_string()));
        assert!(plan.decaf_fns.contains(&"uhci_rh_suspend".to_string()));
    }

    fn write_sector_urb(sector: u32, fill: u8) -> Urb {
        let mut data = vec![hwreg::FLASH_CMD_WRITE];
        data.extend_from_slice(&sector.to_le_bytes());
        data.extend_from_slice(&vec![fill; hwreg::SECTOR_SIZE]);
        Urb {
            endpoint: hwreg::EP_BULK_OUT as u8,
            dir: UrbDir::Out,
            data,
        }
    }

    #[test]
    fn native_writes_flash_sectors() {
        let k = Kernel::new();
        let drv = install_native(&k, "uhci0").unwrap();
        let done = Rc::new(Cell::new(0));
        for s in 0..4u32 {
            let d = Rc::clone(&done);
            k.usb_submit_urb(
                "uhci0",
                write_sector_urb(s, s as u8),
                Rc::new(move |_, r| {
                    r.unwrap();
                    d.set(d.get() + 1);
                }),
            )
            .unwrap();
        }
        assert_eq!(done.get(), 4);
        assert_eq!(drv.hw.urbs_done.get(), 4);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn decaf_init_crosses_then_urbs_do_not() {
        let k = Kernel::new();
        let drv = install_decaf(&k, "uhci0").unwrap();
        let after_init = drv.crossings();
        assert!(after_init >= 3, "three upcalls during init: {after_init}");
        let done = Rc::new(Cell::new(0));
        for s in 0..6u32 {
            let d = Rc::clone(&done);
            k.usb_submit_urb(
                "uhci0",
                write_sector_urb(s, 0xaa),
                Rc::new(move |_, r| {
                    r.unwrap();
                    d.set(d.get() + 1);
                }),
            )
            .unwrap();
        }
        assert_eq!(done.get(), 6);
        assert_eq!(
            drv.crossings(),
            after_init,
            "bulk transfers are kernel-only"
        );
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    fn read_sector_urbs(k: &Kernel, hcd: &str, sector: u32, out: Rc<RefCell<Vec<u8>>>) {
        let mut cmd = vec![hwreg::FLASH_CMD_READ];
        cmd.extend_from_slice(&sector.to_le_bytes());
        k.usb_submit_urb(
            hcd,
            Urb {
                endpoint: hwreg::EP_BULK_OUT as u8,
                dir: UrbDir::Out,
                data: cmd,
            },
            Rc::new(|_, _| {}),
        )
        .unwrap();
        k.usb_submit_urb(
            hcd,
            Urb {
                endpoint: hwreg::EP_BULK_IN as u8,
                dir: UrbDir::In,
                data: Vec::new(),
            },
            Rc::new(move |_, r| {
                *out.borrow_mut() = r.unwrap();
            }),
        )
        .unwrap();
    }

    #[test]
    fn short_reads_report_actual_length() {
        // Regression: a sector holding fewer than SECTOR_SIZE bytes must
        // come back at its true length, not padded to the DMA buffer.
        let k = Kernel::new();
        let drv = install_native(&k, "uhci0").unwrap();
        drv.dev.borrow_mut().preload_sector(3, vec![0xcd; 100]);
        let got = Rc::new(RefCell::new(Vec::new()));
        read_sector_urbs(&k, "uhci0", 3, Rc::clone(&got));
        assert_eq!(*got.borrow(), vec![0xcd; 100], "actual length, not 512");
    }

    #[test]
    fn shmring_bulk_writes_are_zero_copy() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "uhci0", 1).unwrap();
        let after_init = drv.crossings();
        assert_eq!(k.stats().bytes_copied, 0, "init moves no payloads");
        let done = Rc::new(Cell::new(0));
        for s in 0..6u32 {
            let d = Rc::clone(&done);
            k.usb_submit_urb(
                "uhci0",
                write_sector_urb(s, 0x5a),
                Rc::new(move |_, r| {
                    r.unwrap();
                    d.set(d.get() + 1);
                }),
            )
            .unwrap();
        }
        // Let the coalescing deadline flush the sub-watermark tail.
        k.run_for(4 * costs::DOORBELL_COALESCE_NS);
        assert_eq!(done.get(), 6, "every URB completed");
        assert_eq!(drv.dev.borrow().flash_sector_count(), 6);
        assert_eq!(
            k.stats().bytes_copied,
            0,
            "payloads are adopted into the sector pool, never copied"
        );
        let s = drv.channels.stats();
        assert!(
            s.doorbells >= 1 && drv.crossings() > after_init,
            "URBs cross only as doorbells"
        );
        assert!(s.bytes_in < after_init * 64 + 64, "no payload marshaled");
        assert!(drv.urb_path.conserved(), "URB conservation");
        assert_eq!(
            drv.urb_path.set().pool().in_use_sectors(),
            0,
            "no run leaked"
        );
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn shmring_streaming_read_hands_ownership_back() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "uhci0", 1).unwrap();
        drv.dev.borrow_mut().preload_sector(0, vec![0xaa; 512]);
        drv.dev.borrow_mut().preload_sector(1, vec![0xbb; 100]);
        let a = Rc::new(RefCell::new(Vec::new()));
        let b = Rc::new(RefCell::new(Vec::new()));
        read_sector_urbs(&k, "uhci0", 0, Rc::clone(&a));
        read_sector_urbs(&k, "uhci0", 1, Rc::clone(&b));
        k.run_for(4 * costs::DOORBELL_COALESCE_NS);
        assert_eq!(*a.borrow(), vec![0xaa; 512]);
        assert_eq!(*b.borrow(), vec![0xbb; 100], "short read via the ring");
        assert_eq!(k.stats().bytes_copied, 0, "IN data is read in place");
        assert!(drv.urb_path.conserved());
        assert_eq!(drv.urb_path.set().pool().in_use_sectors(), 0);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn oversize_transfers_rejected_not_truncated() {
        // The TD maxlen field tops out at MAX_TD_XFER; the single-TD
        // native path must fail loudly, never silently truncate.
        let k = Kernel::new();
        let native = install_native(&k, "uhci0").unwrap();
        let big = Urb {
            endpoint: hwreg::EP_BULK_OUT as u8,
            dir: UrbDir::Out,
            data: vec![0x77; MAX_TD_XFER + 1],
        };
        assert_eq!(native.hw.submit(&k, &big), Err(KError::Inval));
        assert_eq!(native.dev.borrow().flash_sector_count(), 0);
    }

    #[test]
    fn oversize_transfers_chain_across_tds_on_the_ring() {
        // The ring build chunks a transfer beyond MAX_TD_XFER into a
        // MORE-linked TD chain instead of refusing it: a write command
        // whose payload alone exceeds one TD lands on flash intact, with
        // zero payload copies.
        let k = Kernel::new();
        let drv = install_sharded(&k, "uhci0", 1).unwrap();
        let mut data = vec![hwreg::FLASH_CMD_WRITE];
        data.extend_from_slice(&9u32.to_le_bytes());
        data.extend_from_slice(&vec![0x77; MAX_TD_XFER + 1]);
        assert!(data.len() > MAX_TD_XFER, "command must exceed one TD");
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        k.usb_submit_urb(
            "uhci0",
            Urb {
                endpoint: hwreg::EP_BULK_OUT as u8,
                dir: UrbDir::Out,
                data,
            },
            Rc::new(move |_, r| {
                r.unwrap();
                d.set(true);
            }),
        )
        .unwrap();
        k.run_for(4 * costs::DOORBELL_COALESCE_NS);
        assert!(done.get(), "chained OUT completed");
        assert_eq!(
            drv.dev.borrow().flash_sector(9).unwrap(),
            vec![0x77; MAX_TD_XFER + 1],
            "full payload reassembled from the TD chain"
        );
        assert_eq!(k.stats().bytes_copied, 0, "chaining stays zero-copy");
        assert!(drv.urb_path.conserved());
        assert_eq!(
            drv.urb_path.set().pool().in_use_sectors(),
            0,
            "chain reclaimed"
        );
    }

    #[test]
    fn stale_cookie_giveback_is_refused_and_fires_nothing() {
        use decaf_shmring::{RingSetError, UrbDescriptor};
        let k = Kernel::new();
        let drv = install_sharded(&k, "uhci0", 1).unwrap();
        let fired = Rc::new(Cell::new(0));
        let submit = |s| {
            let f = Rc::clone(&fired);
            let done: UrbCompletion = Rc::new(move |_, r| {
                r.unwrap();
                f.set(f.get() + 1);
            });
            k.usb_submit_urb("uhci0", write_sector_urb(s, 0x6e), done)
                .unwrap();
        };
        submit(0);
        k.run_for(4 * costs::DOORBELL_COALESCE_NS);
        assert_eq!(fired.get(), 1);
        // The second URB reuses the first one's slot under generation 1
        // and waits below the doorbell watermark.
        submit(1);
        let set = drv.urb_path.set();
        let (stale, live) = (0, 1 << 32);
        assert_eq!((set.origin_of(stale), set.origin_of(live)), (None, Some(0)));
        // A completer handing back the first URB's cookie again is
        // refused at the set: nothing reaches a giveback ring.
        let forged = UrbDescriptor::request_out(Default::default(), 517, 2, stale);
        assert_eq!(
            set.complete(&k, CpuClass::User, forged.completed(0, 517)),
            Err(RingSetError::UnknownOrigin(stale))
        );
        k.run_for(4 * costs::DOORBELL_COALESCE_NS);
        assert_eq!(fired.get(), 2, "each callback fired exactly once");
        assert!(drv.urb_path.conserved());
        assert_eq!(drv.urb_path.in_flight(), 0);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn stale_cookie_takes_no_callback_from_the_slab() {
        let pending = PendingUrbs::default();
        let fired = Rc::new(Cell::new(0));
        let callback = || -> UrbCompletion {
            let f = Rc::clone(&fired);
            Rc::new(move |_, _| f.set(f.get() + 1))
        };
        let first = pending.insert(callback());
        assert!(pending.take(first).is_some());
        let second = pending.insert(callback());
        assert_eq!(second, first | 1 << 32, "same slot, next generation");
        assert!(pending.take(first).is_none(), "stale generation");
        assert!(pending.take(7).is_none(), "slot never handed out");
        assert!(pending.take(second).is_some());
        assert!(pending.take(second).is_none(), "already taken");
        assert_eq!(fired.get(), 0);
    }

    #[test]
    fn flash_commands_past_the_media_complete_eio_on_the_ring() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "uhci0", 1).unwrap();
        let results = Rc::new(RefCell::new(Vec::new()));
        let past = hwreg::MEDIA_SECTORS;
        let mut read_cmd = vec![hwreg::FLASH_CMD_READ];
        read_cmd.extend_from_slice(&past.to_le_bytes());
        let urbs = [
            write_sector_urb(past, 0x42),
            write_sector_urb(u32::MAX, 0x43),
            Urb {
                endpoint: hwreg::EP_BULK_OUT as u8,
                dir: UrbDir::Out,
                data: read_cmd,
            },
            write_sector_urb(past - 1, 0x44),
        ];
        for urb in urbs {
            let out = Rc::clone(&results);
            k.usb_submit_urb("uhci0", urb, Rc::new(move |_, r| out.borrow_mut().push(r)))
                .unwrap();
        }
        k.run_for(4 * costs::DOORBELL_COALESCE_NS);
        let eio = Err(KError::Io);
        assert_eq!(
            *results.borrow(),
            vec![eio.clone(), eio.clone(), eio, Ok(Vec::new())]
        );
        assert_eq!(
            drv.dev.borrow().flash_sector_count(),
            1,
            "only the last sector"
        );
        assert!(drv.urb_path.conserved());
        assert_eq!(drv.urb_path.set().pool().in_use_sectors(), 0);
    }

    #[test]
    fn value_build_marshals_payloads_by_value() {
        let k = Kernel::new();
        let drv = by_value(&k, "uhci0", false).unwrap();
        let done = Rc::new(Cell::new(0));
        for s in 0..3u32 {
            let d = Rc::clone(&done);
            k.usb_submit_urb(
                "uhci0",
                write_sector_urb(s, 0x11),
                Rc::new(move |_, r| {
                    r.unwrap();
                    d.set(d.get() + 1);
                }),
            )
            .unwrap();
        }
        assert_eq!(done.get(), 3);
        let got = Rc::new(RefCell::new(Vec::new()));
        read_sector_urbs(&k, "uhci0", 2, Rc::clone(&got));
        assert_eq!(*got.borrow(), vec![0x11; 512]);
        let s = drv.channel.stats();
        assert!(
            s.bytes_in > 3 * 512,
            "payloads cross the marshaler: {} B in",
            s.bytes_in
        );
        assert!(k.stats().bytes_copied > 3 * 512, "by-value path copies");
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    fn write_sector_urb_lun(lun: usize, sector: u32, fill: u8) -> Urb {
        let mut data = vec![hwreg::FLASH_CMD_WRITE];
        data.extend_from_slice(&sector.to_le_bytes());
        data.extend_from_slice(&vec![fill; hwreg::SECTOR_SIZE]);
        Urb {
            endpoint: hwreg::ep_bulk_out(lun) as u8,
            dir: UrbDir::Out,
            data,
        }
    }

    fn read_sector_urbs_lun(
        k: &Kernel,
        hcd: &str,
        lun: usize,
        sector: u32,
        out: Rc<RefCell<Vec<u8>>>,
    ) {
        let mut cmd = vec![hwreg::FLASH_CMD_READ];
        cmd.extend_from_slice(&sector.to_le_bytes());
        k.usb_submit_urb(
            hcd,
            Urb {
                endpoint: hwreg::ep_bulk_out(lun) as u8,
                dir: UrbDir::Out,
                data: cmd,
            },
            Rc::new(|_, _| {}),
        )
        .unwrap();
        k.usb_submit_urb(
            hcd,
            Urb {
                endpoint: hwreg::ep_bulk_in(lun) as u8,
                dir: UrbDir::In,
                data: Vec::new(),
            },
            Rc::new(move |_, r| {
                *out.borrow_mut() = r.unwrap();
            }),
        )
        .unwrap();
    }

    #[test]
    fn sharded_build_spreads_luns_and_stays_zero_copy() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "uhci0", 4).unwrap();
        assert_eq!(drv.shards(), 4);
        assert_eq!(k.stats().bytes_copied, 0, "init moves no payloads");
        let done = Rc::new(Cell::new(0));
        for lun in 0..4usize {
            for s in 0..4u32 {
                let d = Rc::clone(&done);
                k.usb_submit_urb(
                    "uhci0",
                    write_sector_urb_lun(lun, s, (0x10 * lun as u8) | s as u8),
                    Rc::new(move |_, r| {
                        r.unwrap();
                        d.set(d.get() + 1);
                    }),
                )
                .unwrap();
            }
        }
        k.run_for(4 * costs::DOORBELL_COALESCE_NS);
        assert_eq!(done.get(), 16, "every URB completed");
        assert_eq!(drv.dev.borrow().flash_sector_count(), 16);
        for lun in 0..4usize {
            assert_eq!(
                drv.dev.borrow().flash_sector_lun(lun, 3).unwrap(),
                vec![(0x10 * lun as u8) | 3; hwreg::SECTOR_SIZE],
                "LUN {lun} contents"
            );
        }
        assert_eq!(
            k.stats().bytes_copied,
            0,
            "payloads adopted into the shared pool at every shard width"
        );
        // LUN steering actually spread the queues.
        let used = (0..4)
            .filter(|&i| drv.urb_path.set().shard_stats(i).posted > 0)
            .count();
        assert!(used >= 2, "all LUN traffic collapsed onto {used} shard(s)");
        assert!(drv.urb_path.conserved(), "per-shard URB conservation");
        assert_eq!(drv.urb_path.set().pool().in_use_sectors(), 0);
        // Per-shard cost scopes saw parallel work.
        let busy = k.shard_busy_ns();
        assert!(
            busy.iter().filter(|&&ns| ns > 0).count() >= 2,
            "expected work on >=2 shards: {busy:?}"
        );
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn sharded_streaming_reads_stay_fifo_per_lun() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "uhci0", 3).unwrap();
        drv.dev
            .borrow_mut()
            .preload_sector_lun(0, 0, vec![0xaa; 512]);
        drv.dev
            .borrow_mut()
            .preload_sector_lun(2, 0, vec![0xbb; 100]);
        let a = Rc::new(RefCell::new(Vec::new()));
        let b = Rc::new(RefCell::new(Vec::new()));
        // Interleave two LUNs' command/data pairs: per-LUN FIFO must
        // survive whatever shard interleaving steering produces.
        read_sector_urbs_lun(&k, "uhci0", 0, 0, Rc::clone(&a));
        read_sector_urbs_lun(&k, "uhci0", 2, 0, Rc::clone(&b));
        k.run_for(4 * costs::DOORBELL_COALESCE_NS);
        assert_eq!(*a.borrow(), vec![0xaa; 512]);
        assert_eq!(*b.borrow(), vec![0xbb; 100], "short read via the rings");
        assert_eq!(k.stats().bytes_copied, 0, "IN data is read in place");
        assert!(drv.urb_path.conserved());
        assert_eq!(drv.urb_path.set().pool().in_use_sectors(), 0);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn batched_value_build_defers_out_urbs() {
        let k = Kernel::new();
        let drv = by_value(&k, "uhci0", true).unwrap();
        for s in 0..8u32 {
            k.usb_submit_urb(
                "uhci0",
                write_sector_urb(s, 0x22),
                Rc::new(|_, r| {
                    r.unwrap();
                }),
            )
            .unwrap();
        }
        drv.flush().unwrap();
        assert_eq!(drv.dev.borrow().flash_sector_count(), 8);
        let s = drv.channel.stats();
        assert!(s.batched_calls > 0, "OUT URBs ride the batch queue");
        assert!(
            s.round_trips < 8,
            "batching amortizes crossings: {} round trips",
            s.round_trips
        );
    }
}
