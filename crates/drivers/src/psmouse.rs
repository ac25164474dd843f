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
use std::sync::OnceLock;

use decaf_simdev::psmouse as hwreg;
use decaf_simdev::PsMouseDevice;
use decaf_simkernel::input::{InputEvent, BTN_LEFT, EV_KEY, EV_REL, REL_X, REL_Y};
use decaf_simkernel::{KError, KResult, Kernel, MmioHandle, MmioRegion};
use decaf_xdr::XdrValue;
use decaf_xpc::{ChannelConfig, ProcHandle, XpcChannel, XpcResult};

use crate::support::{self, Direct, Io, Linked, Native, Split, Unload};
use crate::DriverKind;

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

/// Creates the mouse model (a legacy port device).
pub fn attach() -> (MmioRegion, Rc<std::cell::RefCell<PsMouseDevice>>) {
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
}

/// The mouse fields the probe records, by index into the `Linked`
/// fields `register_procs` names.
const STATE: usize = 0;
const PROTOCOL: usize = 1;
const PKTSIZE: usize = 2;
const RATE: usize = 3;
const RESOLUTION: usize = 4;

/// `psmouse_probe`: reset, detect, configure and activate the mouse
/// through the controller, then record what it found.
fn probe(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    let send = |cmd: u32| {
        io.writel(k, hwreg::PORT_STATUS, hwreg::CMD_WRITE_MOUSE);
        io.writel(k, hwreg::PORT_DATA, cmd);
    };
    let drain = || {
        let mut out = Vec::new();
        while io.readl(k, hwreg::PORT_STATUS) & hwreg::STATUS_OBF != 0 {
            out.push(io.readl(k, hwreg::PORT_DATA) as u8);
        }
        out
    };
    // psmouse_reset: expect ACK + self-test + id.
    send(hwreg::MOUSE_RESET);
    if drain() != [hwreg::MOUSE_ACK, hwreg::MOUSE_SELFTEST_OK, 0x00] {
        return KError::NoDev.errno();
    }
    // psmouse_detect.
    send(hwreg::MOUSE_GET_ID);
    let _ = drain();
    // psmouse_initialize: rate + resolution.
    send(hwreg::MOUSE_SET_RATE);
    send(100);
    let _ = drain();
    // psmouse_activate.
    send(hwreg::MOUSE_ENABLE);
    if drain() != [hwreg::MOUSE_ACK] {
        return KError::Io.errno();
    }
    io.set(STATE, XdrValue::Int(2));
    io.set(PROTOCOL, XdrValue::Int(1));
    io.set(PKTSIZE, XdrValue::Int(3));
    io.set(RATE, XdrValue::Int(100));
    io.set(RESOLUTION, XdrValue::Int(4));
    0
}

/// What every build does once the mouse answered its probe: register
/// the input device and take the line its bytes arrive on.
fn register(k: &Kernel, unload: &Unload, hw: &Rc<MouseHw>, devname: &str) -> KResult<()> {
    k.input_register_device(devname)?;
    let (hw_irq, n) = (Rc::clone(hw), devname.to_string());
    unload.request_irq(k, Rc::new(move |k| hw_irq.handle_irq(k, &n)))
}

/// Loads the native driver — the [`crate::Hosting::Native`] build.
pub(crate) fn native(kernel: &Kernel, devname: &str) -> KResult<Native<MouseHw, PsMouseDevice>> {
    let unload = Unload::new("psmouse", IRQ_LINE, Kernel::input_unregister_device);
    let (bar, dev) = attach();
    let hw = Rc::new(MouseHw::new(bar));
    unload.native(kernel, devname, (Rc::clone(&hw), dev), |k, unload| {
        support::kresult(probe(&Direct::port(&hw.bar, &support::no_imports), k, &[]))?;
        register(k, unload, &hw, devname)
    })
}

/// Links the channel: the register-access imports and the decaf
/// driver's one entry point, [`probe`]. Returns its handle.
fn register_procs(channel: &XpcChannel, bar: MmioRegion) -> XpcResult<ProcHandle> {
    support::register_io_procs(channel, bar)?;
    // The decaf driver's one entry point and the fields it records, resolved
    // once against the image.
    static LINKED: OnceLock<Linked<1, 5>> = OnceLock::new();
    let fields = ["state", "protocol", "pktsize", "rate", "resolution"];
    let linked = LINKED.get_or_init(|| {
        Linked::new(
            &DriverKind::Psmouse.image(),
            ["psmouse_probe"],
            "psmouse",
            fields,
        )
    });
    linked.register_body(channel, linked.entries[0], [], probe)
}

/// Loads the decaf driver: detection/configuration at user level, the
/// byte-stream interrupt path in the kernel.
pub fn install_decaf(kernel: &Kernel, devname: &str) -> KResult<Split<MouseHw, PsMouseDevice>> {
    let unload = Unload::new("psmouse-decaf", IRQ_LINE, Kernel::input_unregister_device);
    let (bar, dev) = attach();
    let hw = Rc::new(MouseHw::new(bar.clone()));
    let plan = DriverKind::Psmouse.image();
    let channels = support::channels_from_plan(&plan, ChannelConfig::kernel_user_batched(), 1);
    let probe = register_procs(channels.shard(0), bar).map_err(|_| KError::Io)?;
    let (parts, links, root) = ((Rc::clone(&hw), dev), (plan, &*channels), "psmouse");
    unload.split(kernel, devname, parts, links, root, |k, m, nuc, unload| {
        support::upcall(nuc, k, probe, m)?;
        register(k, unload, &hw, devname)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_xpc::Domain;

    #[test]
    fn slicer_keeps_protocol_handlers_in_library() {
        let plan = DriverKind::Psmouse.image();
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
