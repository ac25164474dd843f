//! The ens1371 sound driver: mini-C source, native and decaf builds.
//!
//! The paper's sound conversion moved 59 functions to Java and left only
//! 6 in the kernel — possible because the modified sound core takes
//! mutexes (not spinlocks) around driver callbacks (§3.1.3). The decaf
//! driver is called only at playback start and end (15 invocations in
//! §4.2); the period-interrupt path stays in the nucleus.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;

use decaf_simdev::ens1371 as hwreg;
use decaf_simdev::Ens1371Device;
use decaf_simkernel::sound::{SoundCardOps, StreamOp};
use decaf_simkernel::{DmaMemory, KError, KResult, Kernel, MmioHandle, MmioRegion};
use decaf_xdr::XdrValue;
use decaf_xpc::{ChannelConfig, Domain, ProcDef, ProcHandle, XpcChannel, XpcResult};

use crate::support::{self, Body, Direct, Io, Linked, Native, Split, Unload};
use crate::DriverKind;

/// IRQ line of the sound chip.
pub const IRQ_LINE: u32 = 5;
/// DMA offset of the playback buffer.
pub const PLAY_BUF_OFF: u32 = 0x1000;

/// Mini-C source for DriverSlicer.
pub mod minic {
    /// The driver source.
    pub const SOURCE: &str = r#"
struct ensoniq {
    int ctrl;
    int sctrl;
    int rate;
    int volume_left;
    int volume_right;
    int playing;
    unsigned long long frames_played;
    int period_irqs;
};

/* Period interrupt: consumed buffers, stays in the kernel. */
int snd_audiopci_interrupt(struct ensoniq *chip) @irq {
    int status;
    status = readl(4);
    if (status == 0) { return 0; }
    snd_ensoniq_pcm_pointer_update(chip);
    return 1;
}
int snd_ensoniq_pcm_pointer_update(struct ensoniq *chip) @datapath {
    chip->period_irqs += 1;
    writel(4, 4);
    return 0;
}
/* PCM write: copies samples into the DMA ring, stays in the kernel. */
int snd_ensoniq_pcm_write(struct ensoniq *chip, int frames) @datapath {
    chip->frames_played += frames;
    writel(0, 32);
    return 0;
}

/* Probe, codec setup and stream management move to user level. */
int snd_audiopci_probe(struct ensoniq *chip) @export {
    int err;
    err = snd_ensoniq_create(chip);
    if (err) return err;
    err = snd_ensoniq_1371_mixer(chip);
    if (err) return err;
    err = snd_card_register_decaf(chip);
    if (err) return err;
    return 0;
}
int snd_ensoniq_create(struct ensoniq *chip) @export {
    writel(0, 0);
    writel(16, 44100);
    chip->rate = 44100;
    chip->ctrl = 0;
    return 0;
}
int snd_ensoniq_1371_mixer(struct ensoniq *chip) @export {
    codec_write(2, 2570);
    codec_write(24, 2570);
    codec_write(26, 2570);
    chip->volume_left = 10;
    chip->volume_right = 10;
    return 0;
}
int snd_card_register_decaf(struct ensoniq *chip) @export {
    return snd_card_register(chip);
}
int snd_ensoniq_playback_open(struct ensoniq *chip) @export {
    int src;
    src = readl(16);
    writel(16, 44100);
    writel(64, 1102);
    chip->playing = 1;
    snd_ensoniq_src_configure(chip);
    return 0;
}
int snd_ensoniq_src_configure(struct ensoniq *chip) @export {
    writel(16, 44100);
    readl(16);
    return 0;
}
int snd_ensoniq_playback_prepare(struct ensoniq *chip) @export {
    writel(56, 4096);
    writel(60, 11025);
    return 0;
}
int snd_ensoniq_playback_close(struct ensoniq *chip) @export {
    chip->playing = 0;
    writel(0, 0);
    snd_ensoniq_power_down(chip);
    return 0;
}
int snd_ensoniq_power_down(struct ensoniq *chip) @export {
    codec_write(38, 65535);
    return 0;
}
int snd_ensoniq_volume_put(struct ensoniq *chip, int left, int right) @export {
    chip->volume_left = left;
    chip->volume_right = right;
    codec_write(2, left);
    return 0;
}
int snd_ensoniq_volume_get(struct ensoniq *chip) @export {
    return chip->volume_left;
}
"#;
}

/// Creates the device model.
pub fn attach() -> (MmioRegion, DmaMemory, Rc<std::cell::RefCell<Ens1371Device>>) {
    let dma = DmaMemory::new(256 * 1024);
    let dev = Rc::new(std::cell::RefCell::new(Ens1371Device::new(
        IRQ_LINE,
        dma.clone(),
    )));
    let handle: MmioHandle = dev.clone();
    (MmioRegion::new(handle), dma, dev)
}

/// Kernel-resident playback state shared by both builds.
pub struct EnsHw {
    /// Register window.
    pub bar: MmioRegion,
    /// DMA region.
    pub dma: DmaMemory,
    frames_written: Cell<u64>,
}

impl EnsHw {
    /// Wraps the register window and DMA region.
    pub fn new(bar: MmioRegion, dma: DmaMemory) -> Self {
        EnsHw {
            bar,
            dma,
            frames_written: Cell::new(0),
        }
    }

    /// Writes frames into the DMA buffer and kicks the DAC (the
    /// kernel-resident data path).
    pub fn pcm_write(&self, kernel: &Kernel, frames: &[i16]) -> KResult<usize> {
        let n_frames = frames.len() / 2;
        for (i, pair) in frames.chunks(2).enumerate() {
            let l = pair[0] as u16 as u32;
            let r = pair.get(1).copied().unwrap_or(0) as u16 as u32;
            self.dma
                .write_u32(PLAY_BUF_OFF as usize + i * 4, l | (r << 16));
        }
        kernel.charge_copy(decaf_simkernel::CpuClass::Kernel, frames.len() as u64 * 2);
        self.bar.write32(kernel, hwreg::DAC2_FRAME, PLAY_BUF_OFF);
        self.bar.write32(kernel, hwreg::DAC2_SIZE, n_frames as u32);
        self.bar
            .write32(kernel, hwreg::DAC2_PERIOD, (n_frames as u32 / 4).max(1));
        self.bar.write32(kernel, hwreg::CTRL, hwreg::CTRL_DAC2_EN);
        self.frames_written
            .set(self.frames_written.get() + n_frames as u64);
        Ok(n_frames)
    }

    /// Period-interrupt service: acknowledge.
    pub fn handle_irq(&self, kernel: &Kernel) {
        let status = self.bar.read32(kernel, hwreg::STATUS);
        if status & hwreg::STATUS_DAC2 != 0 {
            self.bar.write32(kernel, hwreg::STATUS, hwreg::STATUS_DAC2);
        }
    }

    /// Total frames handed to the DAC.
    pub fn frames_written(&self) -> u64 {
        self.frames_written.get()
    }
}

/// The chip fields the bodies write, by index into the `Linked` fields
/// `register_procs` names.
const PLAYING: usize = 0;
const VOLUME_LEFT: usize = 1;
const VOLUME_RIGHT: usize = 2;
const RATE: usize = 3;
const CTRL: usize = 4;

/// The nucleus imports the bodies call, by index: the decaf build's
/// import table, in this order.
const CODEC_WRITE: usize = 0;
const CARD_REGISTER: usize = 1;

/// `snd_audiopci_probe`: create, the 1371 mixer, card registration.
fn probe(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    // snd_ensoniq_create.
    io.writel(k, hwreg::CTRL, 0);
    io.writel(k, hwreg::SRC, 44_100);
    io.set(RATE, XdrValue::Int(44_100));
    io.set(CTRL, XdrValue::Int(0));
    io.set(VOLUME_LEFT, XdrValue::Int(10));
    io.set(VOLUME_RIGHT, XdrValue::Int(10));
    // 1371 mixer: three codec writes, posted — the batch crosses once
    // when the card-register downcall flushes.
    for (reg, val) in [(2u32, 0x0a0a_u32), (24, 0x0a0a), (26, 0x0a0a)] {
        io.post(k, CODEC_WRITE, &[XdrValue::UInt(reg), XdrValue::UInt(val)]);
    }
    // Register the card (a downcall carrying the chip object).
    support::errno_of(io.import_root(k, CARD_REGISTER))
}

/// `snd_ensoniq_playback_open`.
fn playback_open(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    // Allowance `ens1371-open`: the decaf driver reads the converter
    // back and programs the DAC period here; the native one leaves the
    // period to the first PCM write.
    if io.decaf() {
        let _src = io.readl(k, hwreg::SRC);
    }
    io.writel(k, hwreg::SRC, 44_100);
    if io.decaf() {
        io.writel(k, hwreg::DAC2_PERIOD, 1102);
    }
    io.set(PLAYING, XdrValue::Int(1));
    0
}

/// `snd_ensoniq_playback_close`.
fn playback_close(io: &dyn Io, k: &Kernel, _: &[XdrValue]) -> i32 {
    io.writel(k, hwreg::CTRL, 0);
    // Allowance `ens1371-close`: the decaf driver also powers the codec
    // down (posted, batched with the control-register write above).
    if io.decaf() {
        let power_down = [XdrValue::UInt(38), XdrValue::UInt(0xffff)];
        io.post(k, CODEC_WRITE, &power_down);
    }
    io.set(PLAYING, XdrValue::Int(0));
    0
}

/// `snd_ensoniq_volume_put`: the mixer control, which only the decaf
/// build exposes.
fn volume_put(io: &dyn Io, k: &Kernel, scalars: &[XdrValue]) -> i32 {
    let left = scalars.first().and_then(|v| v.as_int()).unwrap_or(0);
    let right = scalars.get(1).and_then(|v| v.as_int()).unwrap_or(0);
    io.set(VOLUME_LEFT, XdrValue::Int(left));
    io.set(VOLUME_RIGHT, XdrValue::Int(right));
    let master = [XdrValue::UInt(2), XdrValue::UInt(left as u32)];
    io.post(k, CODEC_WRITE, &master);
    0
}

/// The nucleus half of `codec_write`: one AC97 register write through
/// the codec port.
fn codec_write(hw: &EnsHw, k: &Kernel, args: &[XdrValue]) -> XdrValue {
    let reg = args[0].as_uint().unwrap_or(0);
    let val = args[1].as_uint().unwrap_or(0);
    hw.bar.write32(k, hwreg::CODEC, (reg << 16) | val);
    XdrValue::Int(0)
}

/// A native stream op: `body` run on the chip in the kernel.
fn native_op(hw: &Rc<EnsHw>, body: Body) -> StreamOp {
    let hw = Rc::clone(hw);
    Rc::new(move |k| {
        let codec = |k: &Kernel, _: usize, args: &[XdrValue]| codec_write(&hw, k, args);
        support::kresult(body(&Direct::mmio(&hw.bar, &codec), k, &[]))
    })
}

/// Loads the native driver — the [`crate::Hosting::Native`] build.
pub(crate) fn native(kernel: &Kernel, card: &str) -> KResult<Native<EnsHw, Ens1371Device>> {
    let unload = Unload::new("snd-ens1371", IRQ_LINE, Kernel::snd_card_unregister);
    let (bar, dma, dev) = attach();
    let hw = Rc::new(EnsHw::new(bar, dma));
    unload.native(kernel, card, (Rc::clone(&hw), dev), |k, unload| {
        let nucleus = |k: &Kernel, proc: usize, args: &[XdrValue]| match proc {
            CODEC_WRITE => codec_write(&hw, k, args),
            _ => {
                let hw_write = Rc::clone(&hw);
                let ops = SoundCardOps {
                    open: native_op(&hw, playback_open),
                    write: Rc::new(move |k, frames| hw_write.pcm_write(k, frames)),
                    close: native_op(&hw, playback_close),
                };
                support::errno_value(k.snd_card_register(card, ops))
            }
        };
        support::kresult(probe(&Direct::mmio(&hw.bar, &nucleus), k, &[]))?;
        let hw_irq = Rc::clone(&hw);
        unload.request_irq(k, Rc::new(move |k| hw_irq.handle_irq(k)))
    })
}

/// Links the channel: the register and codec imports, the card-register
/// import that routes the card's open/close back up to the decaf
/// driver, and its four entry points — each registered before whatever
/// calls it by handle. Returns the probe's handle.
fn register_procs(channel: &Rc<XpcChannel>, hw: &Rc<EnsHw>, card: &str) -> XpcResult<ProcHandle> {
    support::register_io_procs(channel, hw.bar.clone())?;
    let hw_codec = Rc::clone(hw);
    let codec_write = channel.register_proc(
        Domain::Nucleus,
        ProcDef::scalar("codec_write", move |k, s| codec_write(&hw_codec, k, s)),
    )?;
    // The decaf driver's four entry points and the chip fields they write,
    // resolved once against the image.
    static LINKED: OnceLock<Linked<4, 5>> = OnceLock::new();
    let entries = [
        "snd_ensoniq_playback_open",
        "snd_ensoniq_playback_close",
        "snd_ensoniq_volume_put",
        "snd_audiopci_probe",
    ];
    let fields = ["playing", "volume_left", "volume_right", "rate", "ctrl"];
    let linked = LINKED
        .get_or_init(|| Linked::new(&DriverKind::Ens1371.image(), entries, "ensoniq", fields));
    let [playback_open, playback_close, volume_put, probe] = linked.entries;
    let imports = [codec_write];
    let playback_open =
        linked.register_body(channel, playback_open, imports, self::playback_open)?;
    let playback_close =
        linked.register_body(channel, playback_close, imports, self::playback_close)?;
    linked.register_body(channel, volume_put, imports, |io, k, s| {
        self::volume_put(io, k, s)
    })?;

    // snd_card_register import: the nucleus registers the card with ops
    // that route open/close back up to the decaf driver. The procedure
    // lives on the channel, so it may only hold the channel weakly; the
    // ops it hands the kernel own it for real.
    let hw_write = Rc::clone(hw);
    let card_name = card.to_string();
    let ch_for_ops = Rc::downgrade(channel);
    let snd_card_register = channel.register_proc(
        Domain::Nucleus,
        ProcDef::entry("snd_card_register", ["ensoniq"], move |k, _, args, _| {
            let chip = args[0];
            let ch = ch_for_ops.upgrade().expect("a call is running on it");
            let op = move |proc: ProcHandle| -> StreamOp {
                let ch = Rc::clone(&ch);
                Rc::new(
                    move |k| match ch.call_resolved(k, Domain::Nucleus, proc, &[chip], &[]) {
                        Ok(XdrValue::Int(0)) => Ok(()),
                        _ => Err(KError::Io),
                    },
                )
            };
            let hww = Rc::clone(&hw_write);
            let result = k.snd_card_register(
                &card_name,
                SoundCardOps {
                    open: op(playback_open),
                    write: Rc::new(move |k, frames| hww.pcm_write(k, frames)),
                    close: op(playback_close),
                },
            );
            support::errno_value(result)
        }),
    )?;
    let imports = [codec_write, snd_card_register];
    linked.register_body(channel, probe, imports, self::probe)
}

/// Loads the decaf driver: probe/open/close run at user level, the PCM
/// write path and the period interrupt stay in the kernel.
pub fn install_decaf(kernel: &Kernel, card: &str) -> KResult<Split<EnsHw, Ens1371Device>> {
    let unload = Unload::new("snd-ens1371-decaf", IRQ_LINE, Kernel::snd_card_unregister);
    let (bar, dma, dev) = attach();
    let hw = Rc::new(EnsHw::new(bar, dma));
    let plan = DriverKind::Ens1371.image();
    let channels = support::channels_from_plan(&plan, ChannelConfig::kernel_user_batched(), 1);
    let probe = register_procs(channels.shard(0), &hw, card).map_err(|_| KError::Io)?;
    let (parts, links, root) = ((Rc::clone(&hw), dev), (plan, &*channels), "ensoniq");
    unload.split(kernel, card, parts, links, root, |k, c, nuc, unload| {
        support::upcall(nuc, k, probe, c)?;
        unload.request_irq(k, Rc::new(move |k| hw.handle_irq(k)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicer_plan_moves_most_functions() {
        let plan = DriverKind::Ens1371.image();
        assert!(plan
            .kernel_fns
            .contains(&"snd_audiopci_interrupt".to_string()));
        assert!(plan
            .kernel_fns
            .contains(&"snd_ensoniq_pcm_write".to_string()));
        assert!(plan.decaf_fns.contains(&"snd_audiopci_probe".to_string()));
        assert!(plan.user_fraction() > 0.7, "{}", plan.user_fraction());
    }

    #[test]
    fn native_playback() {
        let k = Kernel::new();
        let drv = native(&k, "card0").unwrap();
        k.snd_pcm_open("card0").unwrap();
        let frames = vec![0i16; 44_100 / 5]; // 0.1 s stereo
        let written = k.snd_pcm_write("card0", &frames).unwrap();
        assert_eq!(written, frames.len() / 2);
        k.schedule_point();
        k.snd_pcm_close("card0").unwrap();
        assert!(drv.hw.frames_written() > 0);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn decaf_playback_counts_invocations_at_start_and_end_only() {
        let k = Kernel::new();
        let drv = install_decaf(&k, "card0").unwrap();
        let after_init = drv.crossings();
        k.snd_pcm_open("card0").unwrap();
        let after_open = drv.crossings();
        assert!(after_open > after_init, "open crosses");
        // Steady-state writes stay in the kernel.
        for _ in 0..10 {
            let frames = vec![0i16; 8_820];
            k.snd_pcm_write("card0", &frames).unwrap();
            k.schedule_point();
        }
        assert_eq!(drv.crossings(), after_open, "PCM writes must not cross");
        k.snd_pcm_close("card0").unwrap();
        assert!(drv.crossings() > after_open, "close crosses");
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }
}
