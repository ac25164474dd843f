//! The RTL8139 (`8139too`) fast-ethernet driver: mini-C source, native
//! build and decaf build.
//!
//! In the paper this was one of the two drivers converted during Decaf's
//! development; 25 of its functions moved to Java with 16 left in the
//! driver library and 12 in the kernel (Table 2). The paper also changed
//! six lines in its nucleus to defer functions executed at high priority
//! to a worker thread — reproduced here by the `rtl8139_thread` work-item
//! deferral.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;

use decaf_shmring::BufPool;
use decaf_simdev::rtl8139 as hwreg;
use decaf_simdev::Rtl8139Device;
use decaf_simkernel::kernel::IrqHandler;
use decaf_simkernel::net::XmitOp;
use decaf_simkernel::{DmaMemory, KError, KResult, Kernel, MmioHandle, MmioRegion, SkBuff};
use decaf_xdr::XdrValue;
use decaf_xpc::{ChannelConfig, Domain, ProcDef, ProcHandle, XpcChannel, XpcResult};

use crate::ringnic::{self, IrqCause, RingNic, SplitLoad};
use crate::support::{self, Body, Direct, Io, Linked, Native, RxMode, Split, Unload};
use crate::DriverKind;
use crate::Hosting;

/// TX descriptors per doorbell: the 8139 has only four transmit slots,
/// so the ring batches shallowly.
pub const TX_DOORBELL_WATERMARK: usize = 2;

/// IRQ line of the adapter.
pub const IRQ_LINE: u32 = 10;
/// The MAC programmed into the ID registers.
pub const MAC: [u8; 6] = [0x52, 0x54, 0x00, 0x12, 0x34, 0x56];
/// DMA offset of the receive ring.
pub const RX_RING_OFF: u32 = 0x4000;
/// DMA offset of the four transmit buffers.
pub const TX_BUF_OFF: usize = 0x100;

/// Mini-C source for DriverSlicer.
pub mod minic {
    /// The driver source.
    pub const SOURCE: &str = r#"
struct rtl8139_private {
    int msg_enable;
    int link_up;
    int media;
    int twistie;
    u8 mac[6];
    unsigned long long tx_packets;
    unsigned long long rx_packets;
    int cur_tx;
    int cur_rx;
};

/* Interrupt handler and packet paths stay in the kernel. */
int rtl8139_interrupt(struct rtl8139_private *tp) @irq {
    int status;
    status = readl(64);
    if (status == 0) { return 0; }
    rtl8139_rx(tp);
    rtl8139_tx_interrupt(tp);
    return 1;
}
int rtl8139_rx(struct rtl8139_private *tp) @datapath {
    tp->rx_packets += 1;
    netif_rx(tp);
    return 0;
}
int rtl8139_tx_interrupt(struct rtl8139_private *tp) @datapath {
    tp->tx_packets += 1;
    return 0;
}
int rtl8139_start_xmit(struct rtl8139_private *tp, int len) @datapath {
    writel(16, len);
    tp->cur_tx += 1;
    return 0;
}

/* Initialization and configuration move to user level. */
int rtl8139_probe(struct rtl8139_private *tp) @export {
    int i;
    i = rtl8139_init_board(tp);
    if (i) return i;
    i = rtl8139_read_mac(tp);
    if (i) return i;
    rtl8139_init_media(tp);
    return 0;
}
int rtl8139_init_board(struct rtl8139_private *tp) @export {
    writel(56, 16);
    readl(56);
    tp->msg_enable = 7;
    return 0;
}
int rtl8139_read_mac(struct rtl8139_private *tp) @export {
    int lo;
    int hi;
    DECAF_WVAR(tp->mac);
    lo = readl(0);
    hi = readl(4);
    return 0;
}
int rtl8139_init_media(struct rtl8139_private *tp) {
    tp->media = 1;
    tp->twistie = 0;
    return 0;
}
int rtl8139_open(struct rtl8139_private *tp) @export {
    int err;
    err = request_irq(tp);
    if (err) return err;
    err = rtl8139_hw_start(tp);
    if (err) goto err_start;
    tp->link_up = 1;
    return 0;
err_start:
    free_irq(tp);
    return err;
}
int rtl8139_hw_start(struct rtl8139_private *tp) @export {
    writel(48, 16384);
    writel(56, 12);
    writel(60, 5);
    return 0;
}
int rtl8139_close(struct rtl8139_private *tp) @export {
    tp->link_up = 0;
    writel(56, 0);
    free_irq(tp);
    return 0;
}
int rtl8139_get_stats(struct rtl8139_private *tp) @export {
    unsigned long long t;
    t = tp->tx_packets;
    return 0;
}
int rtl8139_set_rx_mode(struct rtl8139_private *tp) @export {
    writel(68, 15);
    return 0;
}

/* User-level C helpers (the driver library). */
int rtl8139_chip_quirk(struct rtl8139_private *tp) @library {
    writel(82, 1);
    return 0;
}
int rtl8139_eeprom_delay(struct rtl8139_private *tp) @library {
    readl(80);
    return 0;
}
"#;
}

/// Creates the device model.
pub fn attach() -> (MmioRegion, DmaMemory, Rc<std::cell::RefCell<Rtl8139Device>>) {
    let dma = DmaMemory::new(64 * 1024);
    let dev = Rc::new(std::cell::RefCell::new(Rtl8139Device::new(
        MAC,
        IRQ_LINE,
        dma.clone(),
    )));
    let handle: MmioHandle = dev.clone();
    (MmioRegion::new(handle), dma, dev)
}

/// Kernel-resident RTL8139 state shared by both builds.
pub struct Rtl8139Hw {
    /// Register window.
    pub bar: MmioRegion,
    /// DMA region.
    pub dma: DmaMemory,
    cur_tx: Cell<u32>,
    rx_read_off: Cell<u32>,
    pending_tx_pkts: Cell<u64>,
    pending_tx_bytes: Cell<u64>,
}

impl Rtl8139Hw {
    /// Wraps the register window and DMA region.
    pub fn new(bar: MmioRegion, dma: DmaMemory) -> Self {
        Rtl8139Hw {
            bar,
            dma,
            cur_tx: Cell::new(0),
            rx_read_off: Cell::new(0),
            pending_tx_pkts: Cell::new(0),
            pending_tx_bytes: Cell::new(0),
        }
    }

    /// Starts the chip: rx ring, tx/rx enable, interrupts.
    pub fn hw_start(&self, kernel: &Kernel) {
        self.bar.write32(kernel, hwreg::RBSTART, RX_RING_OFF);
        self.bar
            .write32(kernel, hwreg::CR, hwreg::CR_TE | hwreg::CR_RE);
        self.bar
            .write32(kernel, hwreg::IMR, hwreg::INT_TOK | hwreg::INT_ROK);
        self.rx_read_off.set(0);
    }

    /// Transmits one frame through the next TX slot: one audited payload
    /// copy into the DMA buffer, then the descriptor writes.
    pub fn xmit(&self, kernel: &Kernel, skb: &SkBuff) -> KResult<()> {
        if skb.len() > Self::MAX_FRAME {
            return Err(KError::Inval);
        }
        let slot = self.cur_tx.get() % 4;
        let buf = TX_BUF_OFF + slot as usize * 2048;
        self.dma.write_bytes(buf, &skb.data);
        kernel.charge_copy(decaf_simkernel::CpuClass::Kernel, skb.len() as u64);
        self.xmit_desc(kernel, buf, skb.len())
    }

    /// Interrupt service: acknowledge causes, drain the rx ring.
    pub fn handle_irq(&self, kernel: &Kernel, ifname: &str) {
        let isr = self.bar.read32(kernel, hwreg::ISR);
        if isr & hwreg::INT_TOK != 0 {
            kernel.net_tx_done(
                ifname,
                self.pending_tx_pkts.get(),
                self.pending_tx_bytes.get(),
            );
            self.pending_tx_pkts.set(0);
            self.pending_tx_bytes.set(0);
        }
        if isr & hwreg::INT_ROK != 0 {
            self.rx_poll(kernel, ifname);
        }
        self.bar.write32(kernel, hwreg::ISR, isr);
    }

    fn rx_poll(&self, kernel: &Kernel, ifname: &str) {
        for (off, payload) in self.rx_harvest(kernel) {
            let _ = self.dma.with_bytes(off as usize, payload, |frame| {
                kernel.netif_rx(ifname, frame, 0x0800)
            });
        }
        self.rx_maybe_rewind(kernel);
    }

    /// Rewinds the ring once the read pointer nears the end (drain point;
    /// the harvested payloads must already be consumed).
    pub fn rx_maybe_rewind(&self, kernel: &Kernel) {
        if self.rx_read_off.get() >= hwreg::RX_RING_LEN as u32 - 2048 {
            self.bar.write32(kernel, hwreg::CBR, 0);
            self.rx_read_off.set(0);
        }
    }
}

/// The 8139 as a ring-hosted NIC — the one-shard instance: four
/// transmit slots whose TSD write is the per-packet doorbell, one
/// byte-packed receive ring that is rewound rather than recycled, a
/// write-one-to-clear cause register.
impl RingNic for Rtl8139Hw {
    const NAME: &'static str = "rtl8139";
    const TX_SLOTS: usize = 8;
    const TX_WATERMARK: usize = TX_DOORBELL_WATERMARK;
    const RX_SLOTS: usize = 64;
    const MAX_FRAME: usize = 1792;

    /// The 8139 has exactly four 2 KiB transmit buffers; the pool wraps
    /// them so ring descriptors point straight at hardware memory.
    fn tx_pool(&self) -> BufPool {
        BufPool::new(self.dma.clone(), TX_BUF_OFF, 2048, 4)
    }

    fn irq_cause(&self, kernel: &Kernel) -> IrqCause {
        let raw = self.bar.read32(kernel, hwreg::ISR);
        IrqCause {
            raw,
            tx_done: raw & hwreg::INT_TOK != 0,
            rx: raw & hwreg::INT_ROK != 0,
        }
    }

    fn irq_mask_rx(&self, kernel: &Kernel) {
        self.bar.write32(kernel, hwreg::IMR, hwreg::INT_TOK);
    }

    /// ISR is write-one-to-clear: what was read is written back.
    fn irq_end(&self, kernel: &Kernel, _ifname: &str, raw: u32) {
        self.bar.write32(kernel, hwreg::ISR, raw);
    }

    /// The 8139 has no posted descriptor ring: the TSD write *is* the
    /// per-packet doorbell, so only the payload copy is saved, not the
    /// MMIO.
    fn xmit_desc(&self, kernel: &Kernel, buf: usize, len: usize) -> KResult<()> {
        if len > Self::MAX_FRAME {
            return Err(KError::Inval);
        }
        let slot = self.cur_tx.get() % 4;
        self.bar
            .write32(kernel, hwreg::TSAD0 + slot as u64 * 4, buf as u32);
        self.bar
            .write32(kernel, hwreg::TSD0 + slot as u64 * 4, len as u32);
        self.cur_tx.set(self.cur_tx.get() + 1);
        self.pending_tx_pkts.set(self.pending_tx_pkts.get() + 1);
        self.pending_tx_bytes
            .set(self.pending_tx_bytes.get() + len as u64);
        Ok(())
    }

    /// Nothing to publish: each TSD write already started its frame.
    fn tx_kick(&self, _kernel: &Kernel) {}

    /// The cookie is the payload's DMA offset (the ring is byte-packed,
    /// not slot-based). CBR is read once, up front: frames the chip adds
    /// while the caller works through these wait for the next harvest.
    /// The ring is rewound once the payloads have been consumed
    /// ([`Rtl8139Hw::rx_maybe_rewind`]).
    fn rx_harvest<'a>(&'a self, kernel: &Kernel) -> impl Iterator<Item = (u32, usize)> + 'a {
        let cbr = self.bar.read32(kernel, hwreg::CBR);
        std::iter::from_fn(move || {
            let off = self.rx_read_off.get();
            if off >= cbr {
                return None;
            }
            let base = RX_RING_OFF + off;
            let header = self.dma.read_u32(base as usize);
            if header & 1 == 0 {
                return None;
            }
            let len = ((header >> 16) & 0xffff) as usize;
            let payload = len.saturating_sub(4);
            self.rx_read_off.set((off + 4 + payload as u32 + 3) & !3);
            Some((base + 4, payload))
        })
    }

    fn rx_frame<R>(&self, off: u32, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.dma.with_bytes(off as usize, len, f)
    }

    /// Ring memory goes back all at once, at the rewind.
    fn rx_slot_done(&self, _kernel: &Kernel, _off: u32) {}

    /// The ring can be rewound only once every harvested frame has been
    /// delivered and the chip has written nothing that is still unread:
    /// one CBR read answers the second.
    fn rx_delivered(&self, kernel: &Kernel, _last: u32, in_flight: usize) {
        if in_flight == 0 && self.rx_read_off.get() >= self.bar.read32(kernel, hwreg::CBR) {
            self.rx_maybe_rewind(kernel);
        }
    }
}

/// The private fields the bodies write, by index into the `Linked`
/// fields `register_procs` names.
const MSG_ENABLE: usize = 0;
const MEDIA: usize = 1;
const MAC_FIELD: usize = 2;
const LINK_UP: usize = 3;

/// The nucleus imports the bodies call, by index: the decaf build's
/// import table, in this order. The native build reaches only the first.
const HW_START: usize = 0;
const REQUEST_IRQ: usize = 1;
const FREE_IRQ: usize = 2;

/// `rtl8139_probe`: init_board (reset and settle), read_mac,
/// init_media.
fn probe(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    io.writel(k, hwreg::CR, hwreg::CR_RST);
    let _ = io.readl(k, hwreg::CR);
    let lo = io.readl(k, hwreg::IDR0).to_le_bytes();
    let hi = io.readl(k, hwreg::IDR4).to_le_bytes();
    io.set(MSG_ENABLE, XdrValue::Int(7));
    io.set(MEDIA, XdrValue::Int(1));
    io.set_bytes(MAC_FIELD, &[lo[0], lo[1], lo[2], lo[3], hi[0], hi[1]]);
    0
}

/// `rtl8139_open`: the line, then `hw_start` (which the mini-C source
/// lists as a user function; both builds keep the ring start in the
/// nucleus, behind an import).
fn open(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    // Allowance `rtl8139-irq-at-open`: the decaf driver requests its
    // line here and frees it at close; the native one holds it from init
    // to remove.
    if io.decaf() {
        match io.import(k, REQUEST_IRQ, &[]) {
            XdrValue::Int(0) => {}
            e => return support::errno_of(e),
        }
    }
    let _ = io.import(k, HW_START, &[]);
    // Allowance `rtl8139-open-imr`: the decaf driver writes the
    // interrupt mask `hw_start` just wrote once more.
    if io.decaf() {
        io.writel(k, hwreg::IMR, hwreg::INT_TOK | hwreg::INT_ROK);
    }
    io.set(LINK_UP, XdrValue::Int(1));
    0
}

/// `rtl8139_close`.
fn close(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    io.set(LINK_UP, XdrValue::Int(0));
    io.writel(k, hwreg::CR, 0);
    if io.decaf() {
        let _ = io.import(k, FREE_IRQ, &[]);
    }
    0
}

/// The native build's bodies on `hw`: registers by MMIO, `hw_start` as a
/// direct call.
fn native_run(hw: &Rtl8139Hw, k: &Kernel, body: Body) -> KResult<()> {
    let hw_start = |k: &Kernel, _: usize, _: &[XdrValue]| {
        hw.hw_start(k);
        XdrValue::Int(0)
    };
    support::kresult(body(&Direct::mmio(&hw.bar, &hw_start), k, &[]))
}

/// Loads the native (kernel-only) driver — the [`Hosting::Native`] build.
pub(crate) fn native(kernel: &Kernel, ifname: &str) -> KResult<Native<Rtl8139Hw, Rtl8139Device>> {
    let unload = Unload::new("8139too", IRQ_LINE, Kernel::unregister_netdev);
    let (bar, dma, dev) = attach();
    let hw = Rc::new(Rtl8139Hw::new(bar, dma));
    unload.native(kernel, ifname, (Rc::clone(&hw), dev), |k, unload| {
        native_run(&hw, k, probe)?;
        let (hw_open, hw_stop, hw_x) = (Rc::clone(&hw), Rc::clone(&hw), Rc::clone(&hw));
        k.register_netdev(
            ifname,
            decaf_simkernel::net::NetDeviceOps {
                open: Rc::new(move |k| native_run(&hw_open, k, open)),
                stop: Rc::new(move |k| native_run(&hw_stop, k, close)),
                xmit: Rc::new(move |k, skb| hw_x.xmit(k, skb)),
            },
        )?;
        let (hw_irq, n) = (Rc::clone(&hw), ifname.to_string());
        unload.request_irq(k, Rc::new(move |k| hw_irq.handle_irq(k, &n)))
    })
}

/// Loads the decaf (split) driver with the kernel-resident data path.
pub fn install_decaf(kernel: &Kernel, ifname: &str) -> KResult<Split<Rtl8139Hw, Rtl8139Device>> {
    build(kernel, ifname, Hosting::Decaf).map(|(split, _)| split)
}

/// Loads the decaf driver in `hosting`: its data path in the nucleus
/// ([`Hosting::Decaf`]) or on the one-shard rings with interrupt
/// ([`Hosting::Shmring`]) or poll ([`Hosting::Poll`]) receive.
pub(crate) fn build(
    kernel: &Kernel,
    ifname: &str,
    hosting: Hosting,
) -> KResult<SplitLoad<Rtl8139Hw, Rtl8139Device>> {
    let (config, rx_mode) = match hosting {
        Hosting::Decaf => (ChannelConfig::kernel_user_batched(), None),
        Hosting::Shmring => (
            ChannelConfig::kernel_user_shmring(),
            Some(RxMode::Interrupt),
        ),
        Hosting::Poll => (ChannelConfig::kernel_user_shmring(), Some(RxMode::Poll)),
        _ => return Err(KError::Inval),
    };
    let mut unload = Unload::new("8139too_decaf", IRQ_LINE, Kernel::unregister_netdev);
    let (bar, dma, dev) = attach();
    let hw = Rc::new(Rtl8139Hw::new(bar, dma));
    let plan = DriverKind::Rtl8139.image();
    let channels = support::channels_from_plan(&plan, config, 1);

    // The ring build is the one-shard instance of the shared glue; both
    // its timers are armed before `insmod`, the coalescing poll first.
    let rings = rx_mode
        .map(|rx_mode| ringnic::link(&channels, &hw, ifname, rx_mode))
        .transpose()
        .map_err(|_| KError::Io)?;
    let (rings, irq_handler, xmit): (_, IrqHandler, XmitOp) = match rings {
        Some((rings, irq, xmit)) => {
            ringnic::arm_tx_poll(&mut unload, kernel, &rings);
            if rx_mode == Some(RxMode::Poll) {
                ringnic::arm_rx_poll(&mut unload, kernel, &rings);
            }
            (Some(rings), irq, xmit)
        }
        None => {
            let (hw_irq, hw_x) = (Rc::clone(&hw), Rc::clone(&hw));
            let name = ifname.to_string();
            (
                None,
                Rc::new(move |k| hw_irq.handle_irq(k, &name)),
                Rc::new(move |k, skb| hw_x.xmit(k, skb)),
            )
        }
    };
    let [probe, open, close] =
        register_procs(channels.shard(0), &hw, &irq_handler).map_err(|_| KError::Io)?;
    let (parts, links, root) = ((hw, dev), (plan, &*channels), "rtl8139_private");
    let split = unload.split(kernel, ifname, parts, links, root, |k, a, nuc, _| {
        support::upcall(nuc, k, probe, a)?;
        ringnic::register_netdev(k, ifname, (nuc, a), [open, close], (irq_handler, xmit))
    })?;
    Ok((split, rings))
}

/// Links the channel: the register-access imports, the kernel imports
/// `rtl8139_open`/`rtl8139_close` call down into — `request_irq` for
/// `irq_handler` — and the decaf driver's three entry points, which call
/// the imports by handle. Returns the entry points' handles.
fn register_procs(
    channel: &XpcChannel,
    hw: &Rc<Rtl8139Hw>,
    irq_handler: &IrqHandler,
) -> XpcResult<[ProcHandle; 3]> {
    support::register_io_procs(channel, hw.bar.clone())?;
    let [request_irq, free_irq] =
        ringnic::register_irq_procs(channel, IRQ_LINE, "8139too", irq_handler)?;
    let hw_start = Rc::clone(hw);
    let hw_start_datapath = channel.register_proc(
        Domain::Nucleus,
        ProcDef::scalar("hw_start_datapath", move |k, _| {
            hw_start.hw_start(k);
            XdrValue::Int(0)
        }),
    )?;

    // The decaf driver's three entry points and the fields they write,
    // resolved once against the image.
    static LINKED: OnceLock<Linked<3, 4>> = OnceLock::new();
    let entries = ["rtl8139_probe", "rtl8139_open", "rtl8139_close"];
    let fields = ["msg_enable", "media", "mac", "link_up"];
    let linked = LINKED.get_or_init(|| {
        Linked::new(
            &DriverKind::Rtl8139.image(),
            entries,
            "rtl8139_private",
            fields,
        )
    });
    let [probe, open, close] = linked.entries;
    let imports = [hw_start_datapath, request_irq, free_irq];
    Ok([
        linked.register_body(channel, probe, imports, self::probe)?,
        linked.register_body(channel, open, imports, self::open)?,
        linked.register_body(channel, close, imports, self::close)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ringnic::RingSplit;

    /// The one-shard ring build in `hosting`, typed.
    fn ring(k: &Kernel, hosting: Hosting) -> RingSplit<Rtl8139Hw, Rtl8139Device> {
        build(k, "eth1", hosting).map(RingSplit::new).unwrap()
    }

    #[test]
    fn slicer_plan_shape_matches_table2() {
        let plan = DriverKind::Rtl8139.image();
        assert!(plan.kernel_fns.contains(&"rtl8139_interrupt".to_string()));
        assert!(plan.decaf_fns.contains(&"rtl8139_open".to_string()));
        assert_eq!(plan.library_fns.len(), 2, "two @library helpers");
        assert!(plan.user_fraction() > 0.6);
    }

    #[test]
    fn native_loopback() {
        let k = Kernel::new();
        let _drv = native(&k, "eth1").unwrap();
        k.netdev_open("eth1").unwrap();
        for _ in 0..8 {
            k.net_xmit("eth1", SkBuff::synthetic(600, 3, 0x0800))
                .unwrap();
            k.schedule_point();
        }
        let st = k.net_stats("eth1");
        assert_eq!(st.tx_packets, 8);
        assert_eq!(st.rx_packets, 8);
    }

    #[test]
    fn decaf_init_crosses_then_datapath_does_not() {
        let k = Kernel::new();
        let drv = install_decaf(&k, "eth1").unwrap();
        k.netdev_open("eth1").unwrap();
        let after_open = drv.crossings();
        assert!(
            after_open >= 5,
            "init + open cross the boundary: {after_open}"
        );
        for _ in 0..10 {
            k.net_xmit("eth1", SkBuff::synthetic(600, 3, 0x0800))
                .unwrap();
            k.schedule_point();
        }
        assert_eq!(drv.crossings(), after_open, "steady state is kernel-only");
        let st = k.net_stats("eth1");
        assert_eq!(st.rx_packets, 10);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn shmring_build_zero_marshal_data_path() {
        let k = Kernel::new();
        let drv = ring(&k, Hosting::Shmring);
        k.netdev_open("eth1").unwrap();
        let before = drv.channel.stats();
        let copied_before = k.stats().bytes_copied;
        for i in 0..12 {
            k.net_xmit("eth1", SkBuff::synthetic(600, i as u8, 0x0800))
                .unwrap();
            k.schedule_point();
            k.run_for(300_000);
        }
        k.run_for(3 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        let st = k.net_stats("eth1");
        assert_eq!(st.tx_packets, 12, "all frames crossed the ring");
        assert_eq!(st.rx_packets, 12, "loopback received through the ring");
        let after = drv.channel.stats();
        let marshaled = (after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out);
        assert!(
            marshaled < 12 * 64,
            "marshaled {marshaled} B for 7200 payload B"
        );
        assert!(after.doorbells > before.doorbells);
        assert_eq!(
            after.ring_posts - before.ring_posts,
            24,
            "one TX + one RX descriptor per packet"
        );
        // Copy audit: pool write + stack delivery, exactly like native.
        assert_eq!(k.stats().bytes_copied - copied_before, 2 * 12 * 600);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn decaf_reads_mac_through_downcalls() {
        let k = Kernel::new();
        let drv = install_decaf(&k, "eth1").unwrap();
        let heap = drv.channel.heap(Domain::Nucleus);
        let mac = heap.borrow().scalar(drv.root, "mac").unwrap().clone();
        assert_eq!(mac.as_opaque().unwrap(), MAC);
    }

    #[test]
    fn poll_mode_delivers_frames_without_rx_doorbells() {
        const PKTS: u64 = 16;
        let run = |poll: bool| {
            let k = Kernel::new();
            let hosting = if poll {
                Hosting::Poll
            } else {
                Hosting::Shmring
            };
            let drv = ring(&k, hosting);
            assert_eq!(
                drv.rx_mode,
                if poll {
                    RxMode::Poll
                } else {
                    RxMode::Interrupt
                }
            );
            k.netdev_open("eth1").unwrap();
            k.schedule_point();
            for i in 0..PKTS {
                k.net_xmit("eth1", SkBuff::synthetic(600, i as u8, 0x0800))
                    .unwrap();
                k.schedule_point();
                k.run_for(200_000);
            }
            k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
            let st = k.net_stats("eth1");
            assert_eq!(st.tx_packets, PKTS);
            assert_eq!(st.rx_packets, PKTS, "every loopback frame delivered");
            assert!(k.violations().is_empty(), "{:?}", k.violations());
            drv.channel.stats().doorbells
        };
        // TX doorbells ring in both modes; the poll build must shed
        // every RX doorbell crossing, receiving through budgeted probes.
        let interrupt_mode = run(false);
        let poll_mode = run(true);
        assert!(
            poll_mode < interrupt_mode,
            "poll receive must shed doorbells: poll {poll_mode} vs interrupt {interrupt_mode}"
        );
    }
}
