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
//! Every build of every driver is one [`Build`] — a driver and a
//! [`Hosting`] — and [`Build::ALL`] lists the eighteen that exist.
//! [`install`] loads any of them and returns a [`Loaded`]: one of the
//! five handle shapes — [`support::Native`], [`support::Split`],
//! [`ringnic::RingSplit`], [`uhci::ShardedUhci`] and
//! [`uhci::ValueUhci`] — with the hardware state and device model erased
//! to `dyn Any`. Each shape has a `remove` that runs the teardown its
//! install recorded (`rmmod`). The builds the benchmark calls by name
//! keep typed installers (`e1000::decaf::install_sharded`, …) over the
//! same build code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::RefCell;
use std::mem::discriminant;
use std::rc::Rc;

use decaf_shmring::AllocMode;
use decaf_simkernel::{KError, KResult, Kernel};
use decaf_xpc::NuclearRuntime;

use ringnic::{RingSplit, SplitLoad};
use support::{Native, Split};
use uhci::{ShardedUhci, ValueUhci};

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

/// Where a build runs its driver: all in the kernel, or split with the
/// control path at user level and the data path in the nucleus or on
/// shared-memory rings. A [`Build`] pairs one with a driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hosting {
    /// The unmodified in-kernel driver — the Table 3 baseline.
    Native,
    /// The split driver with its data path in the kernel: the nucleus
    /// keeps the interrupt handler and the data path, the decaf driver
    /// runs initialization and configuration at user level over one
    /// batched channel (`ChannelConfig::kernel_user_batched()`).
    Decaf,
    /// A NIC's split driver with the *user-level* data path on one shard
    /// — the `ChannelConfig::kernel_user_shmring()` build. netperf-shaped
    /// workloads run entirely through the descriptor rings: payloads
    /// cross as pool handles, never as marshaled bytes.
    Shmring,
    /// [`Hosting::Shmring`] with [`support::RxMode::Poll`] receive: the
    /// first RX interrupt masks further ones (on the 8139, `INT_ROK`),
    /// and the shared budgeted tick of [`ringnic::rx_poll_timer`] probes
    /// the receive ring instead of riding doorbell upcalls.
    Poll,
    /// The e1000's ring build on this many parallel channels of the
    /// completion-based async shmring transport, with per-shard TX/RX
    /// descriptor rings feeding the one device (see
    /// [`e1000::decaf::install_sharded`]).
    Sharded(usize),
    /// The ablation-only uhci build hosting the URB data path at user
    /// level *by value*: every payload crosses through the XDR marshaler
    /// as opaque bytes, one synchronous call per URB — the `copy` rung of
    /// the storage ablation.
    Copy,
    /// [`Hosting::Copy`] over the batched transport — the `batched-copy`
    /// middle rung. OUT URBs defer into the transport queue (posted-write
    /// semantics: their completions fire at submit with empty data); IN
    /// URBs stay synchronous, their response *is* the data.
    BatchedCopy,
    /// The uhci URB data path at user level on this many parallel URB
    /// ring pairs over one sector pool that allocates the given way —
    /// the seam the fragmentation ablation turns (see
    /// [`uhci::install_sharded`], which takes the default mode).
    ShardedUrb(usize, AllocMode),
}

/// One build of one driver: what [`install`] loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Build {
    /// The driver.
    pub driver: DriverKind,
    /// How it is hosted.
    pub hosting: Hosting,
}

impl Build {
    /// Every build of every driver, once. A shard count or pool mode is
    /// a parameter of its build, not a build of its own: the entries
    /// carry the ones the table-driven checks run at.
    pub const ALL: [Build; 18] = {
        use {DriverKind as D, Hosting as H};
        [
            Build::new(D::E1000, H::Native),
            Build::new(D::E1000, H::Decaf),
            Build::new(D::E1000, H::Shmring),
            Build::new(D::E1000, H::Poll),
            Build::new(D::E1000, H::Sharded(4)),
            Build::new(D::Rtl8139, H::Native),
            Build::new(D::Rtl8139, H::Decaf),
            Build::new(D::Rtl8139, H::Shmring),
            Build::new(D::Rtl8139, H::Poll),
            Build::new(D::Ens1371, H::Native),
            Build::new(D::Ens1371, H::Decaf),
            Build::new(D::UhciHcd, H::Native),
            Build::new(D::UhciHcd, H::Decaf),
            Build::new(D::UhciHcd, H::Copy),
            Build::new(D::UhciHcd, H::BatchedCopy),
            Build::new(D::UhciHcd, H::ShardedUrb(4, AllocMode::BuddySg)),
            Build::new(D::Psmouse, H::Native),
            Build::new(D::Psmouse, H::Decaf),
        ]
    };

    /// The `hosting` build of `driver`.
    pub const fn new(driver: DriverKind, hosting: Hosting) -> Self {
        Build { driver, hosting }
    }

    /// Whether [`Build::ALL`] has this driver in this hosting, at a
    /// width of at least one.
    pub fn is_listed(self) -> bool {
        let width = match self.hosting {
            Hosting::Sharded(n) | Hosting::ShardedUrb(n, _) => n,
            _ => 1,
        };
        let kind = discriminant(&self.hosting);
        let listed = |b: &Build| b.driver == self.driver && discriminant(&b.hosting) == kind;
        width > 0 && Build::ALL.iter().any(listed)
    }
}

/// An installed build, whatever its shape. Typed access is by `match`;
/// the hardware state and device model of the first three shapes are
/// `dyn Any` (`downcast_ref` / `downcast_mut` to the driver's types).
pub enum Loaded {
    /// A [`Hosting::Native`] build.
    Native(Native<dyn Any, dyn Any>),
    /// A [`Hosting::Decaf`] build.
    Split(Split<dyn Any, dyn Any>),
    /// A NIC's [`Hosting::Shmring`], [`Hosting::Poll`] or
    /// [`Hosting::Sharded`] build.
    Ring(RingSplit<dyn Any, dyn Any>),
    /// The uhci's [`Hosting::ShardedUrb`] build.
    ShardedUhci(ShardedUhci),
    /// The uhci's [`Hosting::Copy`] or [`Hosting::BatchedCopy`] build.
    ValueUhci(ValueUhci),
}

/// `$body` with `$d` bound to the handle `$loaded` holds, whatever its
/// shape.
macro_rules! each_shape {
    ($loaded:expr, $d:ident => $body:expr) => {
        match $loaded {
            Loaded::Native($d) => $body,
            Loaded::Split($d) => $body,
            Loaded::Ring($d) => $body,
            Loaded::ShardedUhci($d) => $body,
            Loaded::ValueUhci($d) => $body,
        }
    };
}

impl Loaded {
    /// A NIC's split load: the ring build when it has rings.
    fn from_split_load<H: Any, D: Any>((split, rings): SplitLoad<H, D>) -> Self {
        match rings {
            None => Loaded::Split(split.erase()),
            rings => Loaded::Ring(RingSplit::new((split.erase(), rings))),
        }
    }

    /// The name the driver registered: interface, card, HCD or input
    /// device.
    pub fn name(&self) -> &str {
        each_shape!(self, d => &d.name)
    }

    /// Measured `insmod` latency (virtual ns).
    pub fn init_latency_ns(&self) -> u64 {
        each_shape!(self, d => d.init_latency_ns)
    }

    /// A split build's nuclear runtime, which holds its control channel;
    /// `None` for the builds without one.
    pub fn nuc(&self) -> Option<&Rc<NuclearRuntime>> {
        match self {
            Loaded::Split(d) => Some(&d.nuc),
            Loaded::Ring(d) => Some(&d.nuc),
            Loaded::ShardedUhci(d) => Some(&d.nuc),
            Loaded::Native(_) | Loaded::ValueUhci(_) => None,
        }
    }

    /// The device model (traffic injection, media inspection).
    pub fn dev(&self) -> Rc<RefCell<dyn Any>> {
        each_shape!(self, d => Rc::clone(&d.dev) as _)
    }

    /// Unloads the driver.
    pub fn remove(self) {
        each_shape!(self, d => d.remove())
    }
}

/// Loads `build` on `kernel`, registered as `name`. A build
/// [`Build::ALL`] does not list is refused with [`KError::Inval`] before
/// the kernel is touched.
pub fn install(kernel: &Kernel, name: &str, build: Build) -> KResult<Loaded> {
    use {DriverKind as D, Hosting as H};
    if !build.is_listed() {
        return Err(KError::Inval);
    }
    // Listed, so a `_` arm is the driver's one hosting its other arms do
    // not name, and each driver's build function gets only its own.
    let (k, n) = (kernel, name);
    match (build.driver, build.hosting) {
        (D::E1000, H::Native) => e1000::native::install(k, n).map(|d| Loaded::Native(d.erase())),
        (D::E1000, h) => e1000::decaf::build(k, n, h).map(Loaded::from_split_load),
        (D::Rtl8139, H::Native) => rtl8139::native(k, n).map(|d| Loaded::Native(d.erase())),
        (D::Rtl8139, h) => rtl8139::build(k, n, h).map(Loaded::from_split_load),
        (D::Ens1371, H::Native) => ens1371::native(k, n).map(|d| Loaded::Native(d.erase())),
        (D::Ens1371, _) => ens1371::install_decaf(k, n).map(|d| Loaded::Split(d.erase())),
        (D::UhciHcd, H::Native) => uhci::install_native(k, n).map(|d| Loaded::Native(d.erase())),
        (D::UhciHcd, H::Decaf) => uhci::install_decaf(k, n).map(|d| Loaded::Split(d.erase())),
        (D::UhciHcd, H::ShardedUrb(w, mode)) => {
            uhci::sharded(k, n, w, mode).map(Loaded::ShardedUhci)
        }
        (D::UhciHcd, h) => uhci::by_value(k, n, h == H::BatchedCopy).map(Loaded::ValueUhci),
        (D::Psmouse, H::Native) => psmouse::native(k, n).map(|d| Loaded::Native(d.erase())),
        (D::Psmouse, _) => psmouse::install_decaf(k, n).map(|d| Loaded::Split(d.erase())),
    }
}
