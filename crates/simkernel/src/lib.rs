//! A deterministic simulated Linux-like kernel for the Decaf Drivers
//! reproduction.
//!
//! The original system runs inside Linux 2.6.18.1. This crate substitutes a
//! *simulated* kernel that reproduces the semantics the Decaf architecture
//! actually depends on:
//!
//! * **Execution contexts and priority rules** — process context, softirq
//!   (timers) and hardirq (interrupt handlers); code running at high
//!   priority or holding a spinlock must not block, and therefore must not
//!   call up to a user-level decaf driver (paper §3.1.3). Violations are
//!   recorded, not silently tolerated, so tests can assert the rules.
//! * **Interrupt management** — `request_irq`, `disable_irq`/`enable_irq`
//!   with nesting, pending-delivery semantics. The nuclear runtime disables
//!   the driver's IRQ while the decaf driver runs.
//! * **Deferred work** — timer wheel (softirq priority) and workqueues
//!   (process context), used to defer timer work to a thread that may block
//!   (the E1000 watchdog conversion, §3.1.3).
//! * **Virtual time and CPU accounting** — a nanosecond clock advanced by
//!   explicit cost charges, with per-class (kernel/user) busy accounting,
//!   which yields the CPU-utilization and latency numbers of Table 3.
//! * **Kernel subsystems** — module loader (`insmod` latency), network
//!   stack (`SkBuff`, netdevice ops), sound core (using *mutexes*, the
//!   kernel modification from §3.1.3), USB core and input core.
//!
//! Everything is single-threaded and deterministic: devices raise IRQs,
//! drivers charge costs, and `run_for` advances virtual time delivering
//! events in order. Determinism is what lets the benchmark tables come out
//! reproducibly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod costs;
pub mod counters;
mod dispatch;
pub mod error;
pub mod input;
pub mod kernel;
pub mod mmio;
#[cfg(debug_assertions)]
pub mod mutation;
pub mod net;
pub mod sound;
pub mod sync;
pub mod trace;
pub mod usb;

/// The tracing/metrics crate, re-exported so downstream crates (xpc,
/// shmring, drivers, core) reach `Tracer`, `Histogram` and the Chrome
/// exporter through the kernel they already depend on, without their
/// own `decaf-trace` dependency edge.
pub use decaf_trace;

pub use clock::CpuClass;
pub use error::{KError, KResult};
pub use kernel::{ExecContext, Kernel, TimerId, Violation, ViolationKind, WeakKernel};
pub use mmio::{Access, DmaMemory, MmioDevice, MmioHandle, MmioRegion};
pub use net::SkBuff;
pub use trace::TraceSpan;
