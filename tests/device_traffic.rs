//! The device says the native and decaf builds are one driver.
//!
//! Each driver runs twice on fresh kernels that record every register
//! access (`Kernel::record_device_traffic`): once native, once decaf,
//! through init, a small Table 3 workload and `remove`. Per phase, the
//! two records must be the same sequence of (offset, value, read/write,
//! MMIO/port), and the driver's DMA region must hash the same, apart from
//! the named allowances below — the differences the one control body
//! keeps on purpose, each a branch on the hosting (DESIGN.md, "One
//! driver body"). An allowance must still show, or the test fails: one
//! that went away is removed here in the same change.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use decaf_core::drivers::{e1000, ens1371, install, rtl8139, uhci};
use decaf_core::drivers::{Build, DriverKind, Hosting, Loaded};
use decaf_core::simdev::{self, E1000Device, PsMouseDevice, Rtl8139Device};
use decaf_core::simkernel::{Access, DmaMemory, Kernel, SkBuff};
use simdev::{e1000 as e1k, ens1371 as ens, psmouse as ps, rtl8139 as rtl, uhci as uh};

/// One access only the decaf build makes: always MMIO (the decaf side
/// reaches registers through the `readl` / `writel` imports). A read's
/// value is `None` when it does not matter.
#[derive(Debug, Clone, Copy)]
struct Extra {
    offset: u64,
    write: bool,
    value: Option<u32>,
}

const fn rd(offset: u64) -> Extra {
    Extra {
        offset,
        write: false,
        value: None,
    }
}

const fn wr(offset: u64, value: u32) -> Extra {
    Extra {
        offset,
        write: true,
        value: Some(value),
    }
}

/// A difference the one body keeps between the two builds, by name.
struct Allowance {
    driver: DriverKind,
    name: &'static str,
    phase: Phase,
    /// Accesses only the decaf build makes, in order.
    extra: &'static [Extra],
    /// Offsets the decaf build reaches as MMIO where the native build
    /// uses port I/O.
    mmio_for_port: &'static [u64],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Open,
    Work,
    Close,
    Remove,
}

/// Every allowance, as DESIGN.md names them.
const ALLOWANCES: &[Allowance] = &[
    Allowance {
        driver: DriverKind::E1000,
        name: "e1000-reset",
        phase: Phase::Init,
        extra: &[
            rd(e1k::STATUS),
            wr(e1k::IMC, 0xffff_ffff),
            rd(e1k::ICR),
            rd(0),
            rd(4),
            rd(8),
            rd(12),
            rd(16),
            rd(20),
            rd(24),
            rd(28),
        ],
        mmio_for_port: &[],
    },
    Allowance {
        driver: DriverKind::E1000,
        name: "e1000-open-phy-power",
        phase: Phase::Open,
        extra: &[
            wr(e1k::MDIC, 0b10 << 26),
            rd(e1k::MDIC),
            wr(e1k::MDIC, 0b01 << 26 | 0x1000),
        ],
        mmio_for_port: &[],
    },
    Allowance {
        driver: DriverKind::Rtl8139,
        name: "rtl8139-open-imr",
        phase: Phase::Open,
        extra: &[wr(rtl::IMR, rtl::INT_TOK | rtl::INT_ROK)],
        mmio_for_port: &[],
    },
    Allowance {
        driver: DriverKind::Ens1371,
        name: "ens1371-open",
        phase: Phase::Open,
        extra: &[rd(ens::SRC), wr(ens::DAC2_PERIOD, 1102)],
        mmio_for_port: &[],
    },
    Allowance {
        driver: DriverKind::Ens1371,
        name: "ens1371-close",
        phase: Phase::Close,
        extra: &[wr(ens::CODEC, 38 << 16 | 0xffff)],
        mmio_for_port: &[],
    },
    Allowance {
        driver: DriverKind::UhciHcd,
        name: "uhci-pm-cycle",
        phase: Phase::Init,
        extra: &[
            wr(uh::USBCMD, 0x10),
            rd(uh::USBCMD),
            wr(uh::USBCMD, uh::CMD_RS),
        ],
        mmio_for_port: &[],
    },
    Allowance {
        driver: DriverKind::UhciHcd,
        name: "uhci-port-count",
        phase: Phase::Init,
        extra: &[],
        mmio_for_port: &[uh::PORTSC1],
    },
    Allowance {
        driver: DriverKind::Psmouse,
        name: "psmouse-register-imports",
        phase: Phase::Init,
        extra: &[],
        mmio_for_port: &[ps::PORT_STATUS, ps::PORT_DATA],
    },
];

/// What one build showed its device in each phase: the accesses, and a
/// digest of its DMA region at the phase's end.
type Seen = Vec<(Phase, Vec<Access>, u64)>;

fn digest(dma: Option<&DmaMemory>) -> u64 {
    let mut h = DefaultHasher::new();
    if let Some(dma) = dma {
        dma.read_bytes(0, dma.len()).hash(&mut h);
    }
    h.finish()
}

/// The DMA region of a loaded build, if its device has one.
fn dma_of(d: &Loaded) -> Option<DmaMemory> {
    let hw = match d {
        Loaded::Native(n) => Rc::clone(&n.hw),
        Loaded::Split(s) => Rc::clone(&s.hw),
        _ => return None,
    };
    let hw = hw.as_ref();
    None.or_else(|| hw.downcast_ref::<e1000::E1000Hw>().map(|h| h.dma.clone()))
        .or_else(|| {
            hw.downcast_ref::<rtl8139::Rtl8139Hw>()
                .map(|h| h.dma.clone())
        })
        .or_else(|| hw.downcast_ref::<ens1371::EnsHw>().map(|h| h.dma.clone()))
        .or_else(|| hw.downcast_ref::<uhci::UhciHw>().map(|h| h.dma.clone()))
}

/// Runs `driver` in `hosting` on a recording kernel: init, open, a small
/// Table 3 workload, close, `remove`. A build that fails to load shows
/// its init alone.
fn run(driver: DriverKind, hosting: Hosting) -> Seen {
    let k = Kernel::new();
    k.record_device_traffic();
    let name = match driver {
        DriverKind::E1000 | DriverKind::Rtl8139 => "eth0",
        DriverKind::Ens1371 => "card0",
        DriverKind::UhciHcd => "uhci0",
        DriverKind::Psmouse => "mouse0",
    };
    let mut seen = Seen::new();
    let Ok(d) = install(&k, name, Build::new(driver, hosting)) else {
        return vec![(Phase::Init, k.take_device_traffic(), digest(None))];
    };
    let dma = dma_of(&d);
    let mut mark = |phase| seen.push((phase, k.take_device_traffic(), digest(dma.as_ref())));
    mark(Phase::Init);
    let dev = d.dev();
    match driver {
        DriverKind::E1000 | DriverKind::Rtl8139 => {
            k.netdev_open(name).unwrap();
            k.schedule_point();
            mark(Phase::Open);
            for i in 0..6u8 {
                k.net_xmit(name, SkBuff::synthetic(600, i, 0x0800)).unwrap();
                k.schedule_point();
                let frame = [0x5a ^ i; 300];
                let mut dev = dev.borrow_mut();
                if let Some(e) = dev.downcast_mut::<E1000Device>() {
                    e.inject_rx(&k, &frame);
                } else if let Some(r) = dev.downcast_mut::<Rtl8139Device>() {
                    r.inject_rx(&k, &frame);
                }
                drop(dev);
                k.schedule_point();
                k.run_for(200_000);
            }
            // Past the e1000's watchdog period: one watchdog check.
            k.run_for(2_100_000_000);
            mark(Phase::Work);
            k.netdev_stop(name).unwrap();
            mark(Phase::Close);
        }
        DriverKind::Ens1371 => {
            k.snd_pcm_open(name).unwrap();
            mark(Phase::Open);
            for _ in 0..2 {
                k.snd_pcm_write(name, &[0x11; 4_410]).unwrap();
                k.schedule_point();
                k.run_for(60_000_000);
            }
            mark(Phase::Work);
            k.snd_pcm_close(name).unwrap();
            mark(Phase::Close);
        }
        DriverKind::UhciHcd => {
            mark(Phase::Open);
            decaf_core::drivers::workloads::tar_to_flash(&k, name, 2, 2).unwrap();
            k.run_for(10_000_000);
            mark(Phase::Work);
            mark(Phase::Close);
        }
        DriverKind::Psmouse => {
            mark(Phase::Open);
            for i in 0..8i8 {
                let mut dev = dev.borrow_mut();
                let mouse = dev.downcast_mut::<PsMouseDevice>().unwrap();
                mouse.inject_move(&k, i - 4, 4 - i, i % 3 == 0);
                drop(dev);
                k.schedule_point();
                k.run_for(1_000_000);
            }
            mark(Phase::Work);
            mark(Phase::Close);
        }
    }
    drop(dev);
    d.remove();
    mark(Phase::Remove);
    assert!(k.violations().is_empty(), "{:?}", k.violations());
    seen
}

/// Takes `allowance`'s extra accesses out of `decaf` (in order, each the
/// first match after the previous) and reads its MMIO accesses at the
/// named offsets as port I/O. `Err` if an extra access is not there.
fn apply(allowance: &Allowance, decaf: &mut Vec<Access>) -> Result<(), String> {
    let mut from = 0;
    for x in allowance.extra {
        let matches = |a: &Access| {
            a.offset == x.offset
                && a.write == x.write
                && !a.port
                && x.value.is_none_or(|v| v == a.value)
        };
        let Some(at) = decaf[from..].iter().position(matches) else {
            return Err(format!(
                "allowance `{}` no longer shows: {x:?} is not in the decaf record",
                allowance.name
            ));
        };
        decaf.remove(from + at);
        from += at;
    }
    for a in decaf.iter_mut() {
        if allowance.mmio_for_port.contains(&a.offset) {
            if a.port {
                return Err(format!(
                    "allowance `{}` no longer shows: {a:?} is already port I/O",
                    allowance.name
                ));
            }
            a.port = true;
        }
    }
    Ok(())
}

/// Whether `decaf` drove the device as `native` did, allowances applied:
/// `Err` names the first phase and access where they part.
fn same_driver(driver: DriverKind, native: &Seen, decaf: &Seen) -> Result<(), String> {
    for ((phase, n, n_dma), (_, d, d_dma)) in native.iter().zip(decaf) {
        let mut d = d.clone();
        let own = |a: &&Allowance| a.driver == driver && a.phase == *phase;
        for allowance in ALLOWANCES.iter().filter(own) {
            apply(allowance, &mut d)?;
        }
        if let Some(at) = (0..n.len().max(d.len())).find(|&i| n.get(i) != d.get(i)) {
            let window = |r: &[Access]| r[at.saturating_sub(3)..(at + 4).min(r.len())].to_vec();
            return Err(format!(
                "{driver:?} {phase:?}: the builds part at access {at} of {} / {}\n\
                 native: {:#?}\ndecaf: {:#?}",
                n.len(),
                d.len(),
                window(n),
                window(&d)
            ));
        }
        if n_dma != d_dma {
            return Err(format!("{driver:?} {phase:?}: the DMA regions differ"));
        }
    }
    match (native.len(), decaf.len()) {
        (n, d) if n == d => Ok(()),
        (n, d) => Err(format!("{driver:?}: {n} phases native, {d} decaf")),
    }
}

fn check(driver: DriverKind) -> Result<(), String> {
    let native = run(driver, Hosting::Native);
    let decaf = run(driver, Hosting::Decaf);
    assert_eq!(native.len(), 5, "{driver:?}: the native build loads");
    assert!(
        native
            .iter()
            .any(|(p, r, _)| *p == Phase::Work && !r.is_empty()),
        "{driver:?}: the workload reached the device"
    );
    same_driver(driver, &native, &decaf)
}

#[test]
fn e1000_native_and_decaf_drive_the_device_alike() {
    check(DriverKind::E1000).unwrap();
}

#[test]
fn rtl8139_native_and_decaf_drive_the_device_alike() {
    check(DriverKind::Rtl8139).unwrap();
}

#[test]
fn ens1371_native_and_decaf_drive_the_device_alike() {
    check(DriverKind::Ens1371).unwrap();
}

#[test]
fn uhci_native_and_decaf_drive_the_device_alike() {
    check(DriverKind::UhciHcd).unwrap();
}

#[test]
fn psmouse_native_and_decaf_drive_the_device_alike() {
    check(DriverKind::Psmouse).unwrap();
}

/// Museum row: a synchronous call that overtakes the posted calls
/// parked before it (`decaf_xpc::mutation::Mutant::SyncCallSkipsFlush`).
/// The 8139 probe posts its `CR_RST` write and then reads `CR`; with the
/// seam armed the read reaches the device first, and the record shows
/// it. The mouse probe's command bytes are overtaken by its reads the
/// same way.
#[cfg(debug_assertions)]
#[test]
fn museum_a_sync_call_that_skips_the_flush_is_caught() {
    use decaf_core::xpc::mutation::{self, Mutant};
    for (driver, phase) in [
        (DriverKind::Rtl8139, "Rtl8139 Init"),
        (DriverKind::Psmouse, "Psmouse Init"),
    ] {
        let native = run(driver, Hosting::Native);
        mutation::arm(Mutant::SyncCallSkipsFlush);
        let decaf = std::panic::catch_unwind(|| run(driver, Hosting::Decaf));
        mutation::disarm();
        let decaf = decaf.expect("the decaf build runs with the seam armed");
        let caught = same_driver(driver, &native, &decaf);
        let msg = caught.expect_err("the overtaking read went unseen");
        assert!(msg.starts_with(phase), "{msg}");
    }
    check(DriverKind::Rtl8139).unwrap();
}
