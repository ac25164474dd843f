//! The five drivers of the Decaf evaluation, as native and decaf builds.
//!
//! The paper converts five Linux drivers (Table 2): the `8139too` and
//! `E1000` network drivers, the `ens1371` sound driver, the `uhci-hcd`
//! USB 1.0 host controller driver, and the `psmouse` mouse driver. Each
//! driver here exists in three coupled forms:
//!
//! 1. a **mini-C source** (`minic` module) — the input DriverSlicer
//!    consumes; running the slicer over it yields the partition, the XDR
//!    interface spec and the marshaling masks (Table 2 is generated from
//!    these sources);
//! 2. a **native build** (`native` module) — the whole driver in the
//!    kernel, the baseline of Table 3;
//! 3. a **decaf build** (`decaf` module) — the driver split per the
//!    slicer's plan: the nucleus keeps interrupt handlers and the data
//!    path, the decaf driver runs initialization/configuration logic at
//!    user level over an [`decaf_xpc::XpcChannel`] whose spec and masks
//!    come straight from the slicer output.
//!
//! The decaf builds follow the paper's runtime rules: the device IRQ is
//! masked during upcalls, timers defer to work items before reaching user
//! level (the E1000 watchdog, §3.1.3), and ethtool-style functions with
//! interrupt data races stay pinned to the nucleus (§5).
//!
//! Every installer returns one of five handle shapes —
//! [`support::Native`], [`support::Split`], [`ringnic::RingSplit`],
//! [`uhci::ShardedUhci`] and [`uhci::ValueUhci`] — and each has a
//! `remove` that runs the teardown its install recorded (`rmmod`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e1000;
pub mod ens1371;
pub mod psmouse;
pub mod ringnic;
pub mod rtl8139;
pub mod support;
pub mod uhci;
pub mod workloads;

/// The five drivers, for iteration in benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverKind {
    /// RTL8139 fast ethernet (`8139too`).
    Rtl8139,
    /// Intel gigabit ethernet (`e1000`).
    E1000,
    /// Ensoniq AudioPCI sound (`ens1371`).
    Ens1371,
    /// UHCI USB 1.0 host controller (`uhci-hcd`).
    UhciHcd,
    /// PS/2 mouse (`psmouse`).
    Psmouse,
}

impl DriverKind {
    /// All five drivers in Table 2 order.
    pub fn all() -> [DriverKind; 5] {
        [
            DriverKind::Rtl8139,
            DriverKind::E1000,
            DriverKind::Ens1371,
            DriverKind::UhciHcd,
            DriverKind::Psmouse,
        ]
    }

    /// The paper's name for the driver.
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Rtl8139 => "8139too",
            DriverKind::E1000 => "E1000",
            DriverKind::Ens1371 => "ens1371",
            DriverKind::UhciHcd => "uhci-hcd",
            DriverKind::Psmouse => "psmouse",
        }
    }

    /// The driver's mini-C source.
    pub fn minic_source(self) -> &'static str {
        match self {
            DriverKind::Rtl8139 => rtl8139::minic::SOURCE,
            DriverKind::E1000 => e1000::minic::SOURCE,
            DriverKind::Ens1371 => ens1371::minic::SOURCE,
            DriverKind::UhciHcd => uhci::minic::SOURCE,
            DriverKind::Psmouse => psmouse::minic::SOURCE,
        }
    }

    /// The driver's image — [`decaf_slicer::slice`] of
    /// [`DriverKind::minic_source`], built once and shared by every load
    /// (each driver module's `image()`).
    pub fn image(self) -> std::sync::Arc<decaf_slicer::SlicePlan> {
        match self {
            DriverKind::Rtl8139 => rtl8139::image(),
            DriverKind::E1000 => e1000::image(),
            DriverKind::Ens1371 => ens1371::image(),
            DriverKind::UhciHcd => uhci::image(),
            DriverKind::Psmouse => psmouse::image(),
        }
    }

    /// The driver's type as named in Table 2.
    pub fn device_type(self) -> &'static str {
        match self {
            DriverKind::Rtl8139 => "Network",
            DriverKind::E1000 => "Network",
            DriverKind::Ens1371 => "Sound",
            DriverKind::UhciHcd => "USB 1.0",
            DriverKind::Psmouse => "Mouse",
        }
    }
}
