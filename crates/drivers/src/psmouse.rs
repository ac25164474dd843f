//! The psmouse driver: mini-C source, native and decaf builds.
//!
//! The paper found most of psmouse's user-level code to be
//! device-specific: 74 functions stayed in the driver library (C at user
//! level) and only the 14 routines actually exercised by the test mouse
//! were converted (Table 2, §4.1). The mini-C source reproduces that
//! split with a block of `@library` protocol handlers for mice the test
//! machine does not have.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use decaf_simdev::psmouse as hwreg;
use decaf_simdev::PsMouseDevice;
use decaf_simkernel::input::{InputEvent, BTN_LEFT, EV_KEY, EV_REL, REL_X, REL_Y};
use decaf_simkernel::{KError, KResult, Kernel, MmioHandle, MmioRegion};
use decaf_slicer::{slice, SliceConfig, SlicePlan};
use decaf_xdr::XdrValue;
use decaf_xpc::{ChannelConfig, Domain, NuclearRuntime, ProcHandle, XpcChannel, XpcResult};

use crate::support::{self, decaf_readl, decaf_writel, Native, Split, Unload};

/// IRQ line of the AUX port.
pub const IRQ_LINE: u32 = 12;

/// Mini-C source for DriverSlicer.
pub mod minic {
    /// The driver source.
    pub const SOURCE: &str = r#"
struct psmouse {
    int state;
    int pktcnt;
    int pktsize;
    int resolution;
    int rate;
    int protocol;
    unsigned long long packets;
    int resync_time;
};

/* Byte-at-a-time interrupt path stays in the kernel. */
int psmouse_interrupt(struct psmouse *mouse) @irq {
    int byte;
    byte = readl(96);
    mouse->pktcnt += 1;
    if (mouse->pktcnt == 3) {
        psmouse_process_packet(mouse);
    }
    return 1;
}
int psmouse_process_packet(struct psmouse *mouse) @datapath {
    mouse->packets += 1;
    mouse->pktcnt = 0;
    input_report(mouse);
    return 0;
}

/* Protocol detection and configuration: the decaf driver. */
int psmouse_probe(struct psmouse *mouse) @export {
    int err;
    err = psmouse_reset(mouse);
    if (err) return err;
    err = psmouse_detect(mouse);
    if (err) return err;
    psmouse_initialize(mouse);
    err = psmouse_activate(mouse);
    if (err) return err;
    return 0;
}
int psmouse_reset(struct psmouse *mouse) @export {
    writel(100, 212);
    writel(96, 255);
    readl(96);
    readl(96);
    readl(96);
    mouse->state = 1;
    return 0;
}
int psmouse_detect(struct psmouse *mouse) @export {
    writel(100, 212);
    writel(96, 242);
    readl(96);
    readl(96);
    mouse->protocol = 1;
    mouse->pktsize = 3;
    return 0;
}
int psmouse_initialize(struct psmouse *mouse) @export {
    psmouse_set_rate(mouse, 100);
    psmouse_set_resolution(mouse, 4);
    return 0;
}
int psmouse_set_rate(struct psmouse *mouse, int rate) @export {
    writel(100, 212);
    writel(96, 243);
    writel(100, 212);
    writel(96, rate);
    readl(96);
    readl(96);
    mouse->rate = rate;
    return 0;
}
int psmouse_set_resolution(struct psmouse *mouse, int res) @export {
    mouse->resolution = res;
    return 0;
}
int psmouse_activate(struct psmouse *mouse) @export {
    if (mouse->state == 0) { return 0 - 19; }
    writel(100, 212);
    writel(96, 244);
    readl(96);
    mouse->state = 2;
    return 0;
}
int psmouse_deactivate(struct psmouse *mouse) @export {
    mouse->state = 1;
    return 0;
}

/* Device-specific protocol handlers the test mouse never needs: these
 * stay in the driver library as user-level C (74 such functions in the
 * real driver). */
int synaptics_detect(struct psmouse *mouse) @library { return 0; }
int synaptics_init(struct psmouse *mouse) @library { return 0; }
int alps_detect(struct psmouse *mouse) @library { return 0; }
int alps_init(struct psmouse *mouse) @library { return 0; }
int logips2pp_detect(struct psmouse *mouse) @library { return 0; }
int logips2pp_init(struct psmouse *mouse) @library { return 0; }
int trackpoint_detect(struct psmouse *mouse) @library { return 0; }
int lifebook_detect(struct psmouse *mouse) @library { return 0; }
int im_detect(struct psmouse *mouse) @library { return 0; }
int genius_detect(struct psmouse *mouse) @library { return 0; }
"#;
}

/// Attaches the mouse to the platform (no PCI; legacy port device).
pub fn attach(_kernel: &Kernel) -> (MmioRegion, Rc<std::cell::RefCell<PsMouseDevice>>) {
    let dev = Rc::new(std::cell::RefCell::new(PsMouseDevice::new(IRQ_LINE)));
    let handle: MmioHandle = dev.clone();
    (MmioRegion::new(handle), dev)
}

/// Kernel-resident mouse state shared by both builds.
pub struct MouseHw {
    /// Port window.
    pub bar: MmioRegion,
    pktcnt: Cell<u32>,
    bytes: Cell<[u8; 3]>,
    /// Packets decoded.
    pub packets: Cell<u64>,
}

impl MouseHw {
    /// Wraps the port window.
    pub fn new(bar: MmioRegion) -> Self {
        MouseHw {
            bar,
            pktcnt: Cell::new(0),
            bytes: Cell::new([0; 3]),
            packets: Cell::new(0),
        }
    }

    /// Interrupt service: drains the output buffer, decodes packets, and
    /// reports input events.
    pub fn handle_irq(&self, kernel: &Kernel, devname: &str) {
        while self.bar.inl(kernel, hwreg::PORT_STATUS) & hwreg::STATUS_OBF != 0 {
            let byte = self.bar.inl(kernel, hwreg::PORT_DATA) as u8;
            let mut bytes = self.bytes.get();
            let n = self.pktcnt.get() as usize;
            bytes[n.min(2)] = byte;
            self.bytes.set(bytes);
            self.pktcnt.set(self.pktcnt.get() + 1);
            if self.pktcnt.get() == 3 {
                self.pktcnt.set(0);
                self.packets.set(self.packets.get() + 1);
                let [b0, dx, dy] = self.bytes.get();
                let _ = kernel.input_report(
                    devname,
                    InputEvent {
                        ev_type: EV_REL,
                        code: REL_X,
                        value: dx as i8 as i32,
                    },
                );
                let _ = kernel.input_report(
                    devname,
                    InputEvent {
                        ev_type: EV_REL,
                        code: REL_Y,
                        value: dy as i8 as i32,
                    },
                );
                if b0 & 1 != 0 {
                    let _ = kernel.input_report(
                        devname,
                        InputEvent {
                            ev_type: EV_KEY,
                            code: BTN_LEFT,
                            value: 1,
                        },
                    );
                }
            }
        }
    }

    /// Sends a command byte to the mouse through the controller.
    pub fn send_cmd(&self, kernel: &Kernel, cmd: u32) {
        self.bar
            .outl(kernel, hwreg::PORT_STATUS, hwreg::CMD_WRITE_MOUSE);
        self.bar.outl(kernel, hwreg::PORT_DATA, cmd);
    }

    /// Drains and returns pending response bytes.
    pub fn drain(&self, kernel: &Kernel) -> Vec<u8> {
        let mut out = Vec::new();
        while self.bar.inl(kernel, hwreg::PORT_STATUS) & hwreg::STATUS_OBF != 0 {
            out.push(self.bar.inl(kernel, hwreg::PORT_DATA) as u8);
        }
        out
    }
}

/// Loads the native driver — the [`crate::Hosting::Native`] build.
pub(crate) fn native(kernel: &Kernel, devname: &str) -> KResult<Native<MouseHw, PsMouseDevice>> {
    let (bar, dev) = attach(kernel);
    let hw = Rc::new(MouseHw::new(bar));
    let name = devname.to_string();
    let hw_init = Rc::clone(&hw);
    let init_latency_ns = kernel.insmod("psmouse", move |k| {
        hw_init.send_cmd(k, hwreg::MOUSE_RESET);
        let _ = hw_init.drain(k);
        hw_init.send_cmd(k, hwreg::MOUSE_GET_ID);
        let _ = hw_init.drain(k);
        hw_init.send_cmd(k, hwreg::MOUSE_SET_RATE);
        hw_init.send_cmd(k, 100);
        let _ = hw_init.drain(k);
        hw_init.send_cmd(k, hwreg::MOUSE_ENABLE);
        let _ = hw_init.drain(k);
        k.input_register_device(&name)?;
        let hw_irq = Rc::clone(&hw_init);
        let n = name.clone();
        k.request_irq(
            IRQ_LINE,
            "psmouse",
            Rc::new(move |k| hw_irq.handle_irq(k, &n)),
        )?;
        Ok(())
    })?;
    Ok(Native {
        kernel: kernel.clone(),
        hw,
        name: devname.to_string(),
        init_latency_ns,
        dev,
        unload: Unload::new("psmouse", IRQ_LINE, Kernel::input_unregister_device),
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

/// Links the channel: the register-access imports and the decaf
/// driver's one entry point, `psmouse_probe` — reset, detect, configure
/// and activate the mouse through register downcalls, then record what
/// it found in the shared object. Returns the probe's handle.
fn register_procs(
    channel: &XpcChannel,
    plan: &SlicePlan,
    bar: MmioRegion,
) -> XpcResult<ProcHandle> {
    support::register_io_procs(channel, bar)?;
    support::register_entry(channel, plan, "psmouse_probe", |k, ch, m, _| {
        let send = |k: &Kernel, cmd: u32| {
            decaf_writel(k, ch, hwreg::PORT_STATUS, hwreg::CMD_WRITE_MOUSE);
            decaf_writel(k, ch, hwreg::PORT_DATA, cmd);
        };
        let drain = |k: &Kernel| {
            let mut out = Vec::new();
            while decaf_readl(k, ch, hwreg::PORT_STATUS) & hwreg::STATUS_OBF != 0 {
                out.push(decaf_readl(k, ch, hwreg::PORT_DATA) as u8);
            }
            out
        };
        // psmouse_reset: expect ACK + self-test + id.
        send(k, hwreg::MOUSE_RESET);
        let resp = drain(k);
        if resp != vec![hwreg::MOUSE_ACK, hwreg::MOUSE_SELFTEST_OK, 0x00] {
            return XdrValue::Int(KError::NoDev.errno());
        }
        // psmouse_detect.
        send(k, hwreg::MOUSE_GET_ID);
        let _ = drain(k);
        // psmouse_initialize: rate + resolution.
        send(k, hwreg::MOUSE_SET_RATE);
        send(k, 100);
        let _ = drain(k);
        // psmouse_activate.
        send(k, hwreg::MOUSE_ENABLE);
        let ack = drain(k);
        if ack != vec![hwreg::MOUSE_ACK] {
            return XdrValue::Int(KError::Io.errno());
        }
        let heap = ch.heap(Domain::Decaf);
        {
            let mut h = heap.borrow_mut();
            let _ = h.set_scalar(m, "state", XdrValue::Int(2));
            let _ = h.set_scalar(m, "protocol", XdrValue::Int(1));
            let _ = h.set_scalar(m, "pktsize", XdrValue::Int(3));
            let _ = h.set_scalar(m, "rate", XdrValue::Int(100));
            let _ = h.set_scalar(m, "resolution", XdrValue::Int(4));
        }
        XdrValue::Int(0)
    })
}

/// Loads the decaf driver: detection/configuration at user level, the
/// byte-stream interrupt path in the kernel.
pub fn install_decaf(kernel: &Kernel, devname: &str) -> KResult<Split<MouseHw, PsMouseDevice>> {
    let (bar, dev) = attach(kernel);
    let hw = Rc::new(MouseHw::new(bar.clone()));
    let plan = image();
    let channels = support::channels_from_plan(&plan, ChannelConfig::kernel_user_batched(), 1);
    let channel = Rc::clone(channels.shard(0));
    let probe = register_procs(&channel, &plan, bar).map_err(|_| KError::Io)?;

    let nuc = Rc::new(NuclearRuntime::new(Rc::clone(&channel), Some(IRQ_LINE)));
    let (root, init_latency_ns) =
        support::load(kernel, "psmouse-decaf", &channels, "psmouse", |k, m| {
            support::upcall(&nuc, k, probe, m)?;
            k.input_register_device(devname)?;
            let hw_irq = Rc::clone(&hw);
            let n = devname.to_string();
            k.request_irq(
                IRQ_LINE,
                "psmouse",
                Rc::new(move |k| hw_irq.handle_irq(k, &n)),
            )
        })?;

    Ok(Split {
        kernel: kernel.clone(),
        hw,
        name: devname.to_string(),
        channel,
        nuc,
        root,
        init_latency_ns,
        plan,
        dev,
        unload: Unload::new("psmouse-decaf", IRQ_LINE, Kernel::input_unregister_device),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicer_keeps_protocol_handlers_in_library() {
        let plan = image();
        assert_eq!(
            plan.library_fns.len(),
            10,
            "device-specific handlers stay C"
        );
        assert!(plan.kernel_fns.contains(&"psmouse_interrupt".to_string()));
        assert!(plan.decaf_fns.contains(&"psmouse_probe".to_string()));
    }

    #[test]
    fn native_reports_motion() {
        let k = Kernel::new();
        let drv = native(&k, "mouse0").unwrap();
        assert!(drv.init_latency_ns > 0);
        assert!(drv.dev.borrow().reporting(), "probe enabled reporting");
        // Inject movement; the IRQ path decodes it into input events.
        drv.dev.borrow_mut().inject_move(&k, 5, -2, true);
        k.schedule_point();
        assert!(k.input_event_count("mouse0") >= 3, "x, y and button events");
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn decaf_probe_handshakes_through_downcalls() {
        let k = Kernel::new();
        let drv = install_decaf(&k, "mouse0").unwrap();
        let crossings = drv.crossings();
        assert!(
            (10..80).contains(&crossings),
            "probe is chatty over the port: {crossings}"
        );
        // The decaf driver stored its results in the shared object.
        let heap = drv.channel.heap(Domain::Nucleus);
        let h = heap.borrow();
        assert_eq!(h.scalar(drv.root, "state").unwrap().as_int(), Some(2));
        assert_eq!(h.scalar(drv.root, "rate").unwrap().as_int(), Some(100));
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }
}
