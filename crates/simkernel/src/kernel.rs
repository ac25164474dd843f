//! The kernel core: contexts, interrupts, timers, work queues, modules.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use crate::clock::{Clock, ClockSnapshot, CpuClass};
use crate::costs;
use crate::dispatch::{Dispatch, NoSuchLine, Source};
use crate::error::KResult;
use crate::input::InputState;
use crate::mmio::Access;
use crate::net::NetState;
use crate::sound::SoundState;
use crate::usb::UsbState;

/// The execution context of the currently running code.
///
/// Mirrors the Linux distinction the paper leans on (§3.1.3): interrupt
/// handlers and timers run at high priority and must never block, so they
/// must never invoke the user-level decaf driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecContext {
    /// Ordinary process context: may block, may call up to user level.
    #[default]
    Process,
    /// Softirq context (timers): must not block.
    SoftIrq,
    /// Hardware interrupt context: must not block.
    HardIrq,
}

/// A rule violation observed by the simulated kernel.
///
/// The simulator records violations instead of crashing, so tests can
/// assert both that correct drivers produce none and that incorrect
/// constructions (e.g. calling a decaf driver from an IRQ handler) are
/// detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Classification of the violation.
    pub kind: ViolationKind,
    /// Execution context at the time.
    pub context: ExecContext,
    /// Virtual time at the time.
    pub at_ns: u64,
    /// Human-readable description.
    pub detail: String,
}

/// Kinds of kernel-rule violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A blocking operation was attempted in atomic context
    /// (IRQ/softirq context or while holding a spinlock).
    BlockingInAtomic,
    /// A lock was re-acquired by its holder (single-threaded deadlock).
    SelfDeadlock,
    /// A semaphore `down` found no available count (would deadlock).
    WouldDeadlock,
    /// A user-level upcall (XPC to the decaf driver) was attempted from
    /// atomic context.
    UpcallInAtomic,
    /// An interrupt call named a line the controller does not have; it
    /// changed nothing.
    NoSuchIrqLine,
}

/// Identifier of a kernel timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(usize);

/// A registered interrupt handler.
pub type IrqHandler = Rc<dyn Fn(&Kernel)>;

/// The first charge attributed to `shard`: grows the busy table to it.
#[cold]
fn charge_new_shard(busy: &mut Vec<u64>, shard: usize, ns: u64) {
    busy.resize(shard + 1, 0);
    busy[shard] = ns;
}

/// The body of a work item: built once by whoever schedules it (a poll
/// timer, an interrupt handler, a deadline wakeup), queued by handle with
/// one argument word ([`Kernel::schedule_work_handle`]).
pub type WorkBody = Rc<dyn Fn(&Kernel, u64)>;

/// A loaded kernel module record.
#[derive(Debug, Clone)]
pub struct LoadedModule {
    /// Module name.
    pub name: String,
}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Hardware interrupts delivered.
    pub irqs_delivered: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Work items executed.
    pub work_executed: u64,
    /// Payload bytes moved by CPU copies ([`Kernel::charge_copy`]). Every
    /// driver build charges payload copies through this one entry point,
    /// so the counter audits copy accounting: a given workload must copy
    /// the same number of bytes whether the data path is native, decaf,
    /// or shmring-hosted.
    pub bytes_copied: u64,
}

#[derive(Default)]
pub(crate) struct Inner {
    pub(crate) clock: Cell<Clock>,
    ctx: Cell<ExecContext>,
    atomic_depth: Cell<u32>,
    shard: Cell<Option<usize>>,
    shard_busy: RefCell<Vec<u64>>,
    pub(crate) dispatch: RefCell<Dispatch>,
    modules: RefCell<Vec<LoadedModule>>,
    violations: RefCell<Vec<Violation>>,
    stats: Cell<KernelStats>,
    tracer: RefCell<Option<Rc<decaf_trace::Tracer>>>,
    /// Whether `tracer` holds one: what the per-charge and per-span fast
    /// paths read instead of borrowing the slot.
    tracing: Cell<bool>,
    /// Whether register accesses are recorded into `traffic`
    /// ([`Kernel::record_device_traffic`]).
    recording: Cell<bool>,
    traffic: RefCell<Vec<Access>>,
    pub(crate) net: RefCell<NetState>,
    pub(crate) sound: RefCell<SoundState>,
    pub(crate) usb: RefCell<UsbState>,
    pub(crate) input: RefCell<InputState>,
}

/// A cheap-to-clone handle to the simulated kernel.
///
/// The kernel is single-threaded: driver code, interrupt handlers, timers
/// and work items all execute on the (virtual) CPU in a deterministic
/// order. Devices raise IRQs; delivery happens at *scheduling points*
/// ([`Kernel::schedule_point`], or implicitly inside [`Kernel::run_for`]).
///
/// # Examples
///
/// ```
/// use decaf_simkernel::Kernel;
/// let kernel = Kernel::new();
/// kernel.charge_kernel(1_000);
/// assert_eq!(kernel.now_ns(), 1_000);
/// ```
#[derive(Clone, Default)]
pub struct Kernel {
    inner: Rc<Inner>,
}

/// A handle that does not keep the kernel alive.
///
/// Everything the kernel *stores* — timer callbacks, interrupt handlers,
/// device ops, work items — is handed `&Kernel` when it runs and must not
/// own a [`Kernel`] clone: the kernel would then own itself and never be
/// freed. Code that has to name the kernel from outside such a call holds
/// one of these; tests hold one to observe that a dropped machine is gone.
#[derive(Clone)]
pub struct WeakKernel {
    inner: Weak<Inner>,
}

impl WeakKernel {
    /// The kernel, if any owning handle to it is still alive.
    pub fn upgrade(&self) -> Option<Kernel> {
        self.inner.upgrade().map(|inner| Kernel { inner })
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now_ns", &self.now_ns())
            .field("context", &self.context())
            .finish_non_exhaustive()
    }
}

impl Kernel {
    /// Creates a fresh kernel at virtual time zero.
    pub fn new() -> Self {
        Kernel::default()
    }

    /// A non-owning handle to this kernel.
    pub fn downgrade(&self) -> WeakKernel {
        WeakKernel {
            inner: Rc::downgrade(&self.inner),
        }
    }

    // ---------------------------------------------------------- time

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.clock.get().now_ns()
    }

    /// Charges `ns` of busy time to the kernel CPU class.
    #[inline]
    pub fn charge_kernel(&self, ns: u64) {
        self.charge(CpuClass::Kernel, ns);
    }

    /// Charges `ns` of busy time to the user CPU class.
    #[inline]
    pub fn charge_user(&self, ns: u64) {
        self.charge(CpuClass::User, ns);
    }

    /// Charges busy time to the class matching the current context:
    /// kernel time unless explicitly charged as user.
    ///
    /// When a [`Kernel::shard_scope`] is active, the charge is *also*
    /// attributed to that shard's busy counter — the per-CPU accounting
    /// behind the sharded-channel ablation.
    ///
    /// Called per descriptor from four crates, so it is kept to the adds:
    /// the clock is a `Copy` value in a `Cell`, and a shard's first charge
    /// and an installed tracer are the out-of-line cases.
    #[inline]
    pub fn charge(&self, class: CpuClass, ns: u64) {
        let mut clock = self.inner.clock.get();
        clock.charge(class, ns);
        self.inner.clock.set(clock);
        if let Some(shard) = self.inner.shard.get() {
            let mut busy = self.inner.shard_busy.borrow_mut();
            match busy.get_mut(shard) {
                Some(busy) => *busy += ns,
                None => charge_new_shard(&mut busy, shard, ns),
            }
        }
        if self.inner.tracing.get() {
            self.trace_attribute(class, ns);
        }
    }

    // ---------------------------------------------- shard accounting

    /// Runs `f` with every busy-time charge additionally attributed to
    /// `shard` (per-CPU accounting for sharded data paths). Scopes nest;
    /// an inner scope overrides the outer for its duration.
    ///
    /// The simulation stays single-threaded: per-shard counters model
    /// work that *would* run on separate CPUs. The parallel wall-clock
    /// estimate for a run is `unattributed busy + max(shard busy)` —
    /// serial work plus the critical-path shard — which is what the
    /// shards=1/2/4/8 ablation reports as virtual-time throughput.
    pub fn shard_scope<R>(&self, shard: usize, f: impl FnOnce() -> R) -> R {
        // Drop guard, not a tail restore: handler panics inside a scope
        // are caught and survived at the XPC layer (fault containment),
        // and a scope left stuck would silently misattribute every later
        // charge in the simulation.
        struct Restore<'a> {
            cell: &'a Cell<Option<usize>>,
            prev: Option<usize>,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.cell.set(self.prev);
            }
        }
        let _restore = Restore {
            cell: &self.inner.shard,
            prev: self.inner.shard.replace(Some(shard)),
        };
        f()
    }

    /// The shard charges are currently attributed to, if any.
    #[inline]
    pub fn current_shard(&self) -> Option<usize> {
        self.inner.shard.get()
    }

    /// Per-shard busy nanoseconds accumulated under [`Kernel::shard_scope`]
    /// (indexed by shard id; shards never scoped report 0).
    pub fn shard_busy_ns(&self) -> Vec<u64> {
        self.inner.shard_busy.borrow().clone()
    }

    /// Charges one CPU copy of `bytes` payload bytes and counts it in
    /// [`KernelStats::bytes_copied`].
    ///
    /// This is the single entry point for payload-copy accounting: driver
    /// transmit paths (skb → DMA buffer), `netif_rx` (DMA buffer → stack),
    /// PCM writes, URB data and the shmring buffer pool all charge through
    /// it, so no path can double-charge — and tests can assert that the
    /// native, decaf and shmring builds copy identical byte counts for
    /// the same workload.
    pub fn charge_copy(&self, class: CpuClass, bytes: u64) {
        self.charge(class, bytes * costs::COPY_BYTE_NS);
        self.bump_stats(|s| s.bytes_copied += bytes);
    }

    /// Takes a clock snapshot for interval measurements.
    pub fn snapshot(&self) -> ClockSnapshot {
        self.inner.clock.get().snapshot()
    }

    /// Advances virtual time by `ns` without charging any CPU class.
    ///
    /// Device models use this to represent real-time progress that keeps
    /// the CPU idle (e.g. a DAC draining a playback buffer).
    #[inline]
    pub fn advance_idle(&self, ns: u64) {
        let mut clock = self.inner.clock.get();
        clock.advance_idle(ns);
        self.inner.clock.set(clock);
    }

    // ------------------------------------------------------- context

    /// The current execution context.
    pub fn context(&self) -> ExecContext {
        self.inner.ctx.get()
    }

    /// Whether the CPU is in atomic context (IRQ/softirq or spinlock held).
    pub fn in_atomic(&self) -> bool {
        self.inner.ctx.get() != ExecContext::Process || self.inner.atomic_depth.get() > 0
    }

    /// Whether blocking operations are currently permitted.
    pub fn may_block(&self) -> bool {
        !self.in_atomic()
    }

    /// Records a violation if blocking is not permitted here.
    ///
    /// Returns `true` when the operation is legal.
    pub fn assert_may_block(&self, what: &str) -> bool {
        if self.may_block() {
            true
        } else {
            self.record_violation(ViolationKind::BlockingInAtomic, what);
            false
        }
    }

    /// Enters atomic context (used by spinlock-like primitives, such as
    /// the sound core's spinlock mode). Must be balanced by
    /// [`Kernel::leave_atomic`].
    pub fn enter_atomic(&self) {
        self.inner
            .atomic_depth
            .set(self.inner.atomic_depth.get() + 1);
    }

    /// Leaves atomic context.
    pub fn leave_atomic(&self) {
        let d = self.inner.atomic_depth.get();
        debug_assert!(d > 0, "atomic depth underflow");
        self.inner.atomic_depth.set(d.saturating_sub(1));
    }

    fn with_context<R>(&self, ctx: ExecContext, f: impl FnOnce() -> R) -> R {
        let prev = self.inner.ctx.replace(ctx);
        let r = f();
        self.inner.ctx.set(prev);
        r
    }

    /// Records a rule violation.
    pub fn record_violation(&self, kind: ViolationKind, detail: impl Into<String>) {
        self.inner.violations.borrow_mut().push(Violation {
            kind,
            context: self.context(),
            at_ns: self.now_ns(),
            detail: detail.into(),
        });
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.violations.borrow().clone()
    }

    /// Clears recorded violations (between test phases).
    pub fn clear_violations(&self) {
        self.inner.violations.borrow_mut().clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KernelStats {
        self.inner.stats.get()
    }

    fn bump_stats(&self, f: impl FnOnce(&mut KernelStats)) {
        let mut s = self.inner.stats.get();
        f(&mut s);
        self.inner.stats.set(s);
    }

    // ---------------------------------------------------------- IRQs

    /// The dispatch state, borrowed for one thin call: nothing runs
    /// under this borrow.
    #[inline]
    fn dispatch(&self) -> std::cell::RefMut<'_, Dispatch> {
        self.inner.dispatch.borrow_mut()
    }

    /// What a line call returned; a line the controller does not have
    /// changed nothing and is recorded as a
    /// [`ViolationKind::NoSuchIrqLine`].
    #[inline]
    fn on_line<R: Default>(&self, call: &str, line: u32, r: Result<R, NoSuchLine>) -> R {
        r.unwrap_or_else(|NoSuchLine| self.no_such_line(call, line))
    }

    #[cold]
    #[inline(never)]
    fn no_such_line<R: Default>(&self, call: &str, line: u32) -> R {
        self.record_violation(ViolationKind::NoSuchIrqLine, format!("{call}({line})"));
        R::default()
    }

    /// Registers `handler` on IRQ `line` (like `request_irq`). A line
    /// the controller does not have is refused with
    /// [`KError::Inval`](crate::KError::Inval).
    /// `name` labels the call site for the reader; the kernel keeps none.
    pub fn request_irq(
        &self,
        line: u32,
        _name: impl Into<String>,
        handler: Rc<dyn Fn(&Kernel)>,
    ) -> KResult<()> {
        self.dispatch().request_irq(line, &handler)
    }

    /// Unregisters the handler on IRQ `line` (like `free_irq`). The line
    /// goes back to its reset state — nothing pending, not disabled — so
    /// whoever requests it next gets a line that delivers, even if the
    /// last owner was removed with its interrupt masked.
    pub fn free_irq(&self, line: u32) {
        // The old handler is dropped on return, after the borrow.
        let _handler = self.on_line("free_irq", line, self.dispatch().free_irq(line));
    }

    /// Disables delivery on `line`; nests (like `disable_irq`).
    ///
    /// This is the mechanism the nuclear runtime uses to keep the driver
    /// from interrupting itself while its decaf driver runs (§3.1.3).
    pub fn disable_irq(&self, line: u32) {
        self.on_line("disable_irq", line, self.dispatch().disable_irq(line));
    }

    /// Re-enables delivery on `line`; pending interrupts are delivered at
    /// the next scheduling point.
    pub fn enable_irq(&self, line: u32) {
        self.on_line("enable_irq", line, self.dispatch().enable_irq(line));
    }

    /// Whether `line` currently has undelivered pending interrupts.
    pub fn irq_pending(&self, line: u32) -> bool {
        self.inner.dispatch.borrow().irq_pending(line)
    }

    /// Raises IRQ `line` (called by device models).
    ///
    /// Delivery is deferred to the next scheduling point, keeping driver
    /// code re-entrancy-free and the simulation deterministic.
    #[inline]
    pub fn raise_irq(&self, line: u32) {
        self.on_line("raise_irq", line, self.dispatch().raise_irq(line));
    }

    // -------------------------------------------------------- timers

    /// Creates a timer; it does not fire until armed. `name` labels the
    /// call site for the reader; the kernel keeps none.
    pub fn timer_create(&self, _name: impl Into<String>, callback: Rc<dyn Fn(&Kernel)>) -> TimerId {
        TimerId(self.dispatch().timer_create(callback))
    }

    /// Creates a timer whose expiry defers to process context, the one
    /// way timer work reaches code that may block (§3.1.3): each time it
    /// fires, `guard` says whether to queue `body` — built once by the
    /// caller — and with which argument word. It does not fire until
    /// armed.
    pub fn work_timer(
        &self,
        name: impl Into<String>,
        body: WorkBody,
        guard: impl Fn() -> Option<u64> + 'static,
    ) -> TimerId {
        let defer = move |k: &Kernel| {
            if let Some(arg) = guard() {
                k.schedule_work_handle(&body, arg);
            }
        };
        self.timer_create(name, Rc::new(defer))
    }

    /// Arms `timer` to fire once, `delay_ns` from now (like `mod_timer`).
    pub fn timer_arm(&self, timer: TimerId, delay_ns: u64) {
        self.dispatch().arm(timer.0, self.now_ns() + delay_ns, None);
    }

    /// Arms `timer` to fire once at absolute virtual time `deadline_ns`
    /// (like `mod_timer` with an absolute `expires`). A deadline already
    /// in the past fires at the next dispatch point — exactly how a late
    /// `mod_timer` behaves. Schedule-driven dispatchers (the open-loop
    /// load engine walking a precomputed arrival list) want this form:
    /// re-arming to `schedule[i]` directly cannot accumulate the off-by-
    /// one-dispatch drift that repeated `now + delta` arithmetic can.
    pub fn timer_arm_at(&self, timer: TimerId, deadline_ns: u64) {
        self.dispatch()
            .arm(timer.0, deadline_ns.max(self.now_ns()), None);
    }

    /// Arms `timer` to fire every `period_ns` (must be positive).
    pub fn timer_arm_periodic(&self, timer: TimerId, period_ns: u64) {
        assert!(period_ns > 0, "periodic timers require a positive period");
        self.dispatch()
            .arm(timer.0, self.now_ns() + period_ns, Some(period_ns));
    }

    /// Disarms and destroys `timer` (like `del_timer_sync`), dropping its
    /// callback: a removed driver's timers must not keep the driver's
    /// channels alive until the kernel goes. A timer deleting itself from
    /// inside its callback is safe — dispatch runs a clone.
    pub fn timer_del(&self, timer: TimerId) {
        // Dropped on return, after the borrow: a captured value's `Drop`
        // may itself delete timers.
        let _callback = self.dispatch().timer_del(timer.0);
    }

    /// Whether `timer` is armed.
    pub fn timer_pending(&self, timer: TimerId) -> bool {
        self.inner.dispatch.borrow().timer_pending(timer.0)
    }

    // ---------------------------------------------------- work queue

    /// Schedules one run of `body` with `arg` in process context at the
    /// next scheduling point (like `schedule_work`), behind whatever is
    /// already queued.
    ///
    /// Work items may block — this is how high-priority code defers
    /// operations that must reach the decaf driver (§3.1.3). The body is
    /// built once and queued by handle: a reference-count bump and one
    /// word, no allocation.
    #[inline]
    pub fn schedule_work_handle(&self, body: &WorkBody, arg: u64) {
        self.dispatch().queue_work(body, arg);
    }

    /// Number of work items waiting.
    pub fn work_pending(&self) -> usize {
        self.inner.dispatch.borrow().work_pending()
    }

    // ----------------------------------------------------- dispatch

    /// Runs one dispatch round: pending IRQs, due timers, queued work,
    /// one at a time until none is left. Each pick is the lowest unmasked
    /// pending line with a handler, else the lowest-index due timer, else
    /// the oldest work item; what runs may raise, arm or queue more.
    ///
    /// Re-entrant calls (from inside a handler) are ignored; the outer
    /// dispatch loop picks up anything new.
    pub fn schedule_point(&self) {
        self.dispatch_round();
    }

    /// [`Kernel::schedule_point`], returning the heap's root deadline as
    /// read under the borrow that found nothing left to run.
    fn dispatch_round(&self) -> Option<u64> {
        let mut d = self.dispatch();
        if !d.dispatching {
            while let Some(source) = d.next(self.now_ns()) {
                d.dispatching = true;
                drop(d);
                self.run_source(source);
                d = self.dispatch();
            }
            d.dispatching = false;
        }
        d.earliest_deadline()
    }

    /// Charges, counts and runs what [`Dispatch::next`] picked, in its
    /// context and trace span. It takes `source` by value, so a callback
    /// freed while it ran is dropped here, before the next borrow: its
    /// captures' `Drop` may call into the kernel.
    fn run_source(&self, source: Source) {
        let (span, ns, ctx) = match source {
            Source::Irq(_) => ("irq", costs::IRQ_ENTRY_NS, ExecContext::HardIrq),
            Source::Timer(_) => ("timer", costs::SOFTIRQ_DISPATCH_NS, ExecContext::SoftIrq),
            Source::Work(..) => ("work", costs::SOFTIRQ_DISPATCH_NS, ExecContext::Process),
        };
        let _span = self.trace_span("kernel", span);
        self.charge_kernel(ns);
        self.bump_stats(|s| match source {
            Source::Irq(_) => s.irqs_delivered += 1,
            Source::Timer(_) => s.timers_fired += 1,
            Source::Work(..) => s.work_executed += 1,
        });
        self.with_context(ctx, || match &source {
            Source::Irq(run) | Source::Timer(run) => run(self),
            Source::Work(body, arg) => body(self, *arg),
        });
    }

    /// Advances virtual time by `ns`, dispatching events as they come due.
    /// It returns from a round that left nothing to run at `end`.
    pub fn run_for(&self, ns: u64) {
        let end = self.now_ns() + ns;
        loop {
            let next = self.dispatch_round();
            let now = self.now_ns();
            if now >= end {
                return;
            }
            self.advance_idle(next.map_or(end, |d| d.clamp(now, end)) - now);
        }
    }

    // -------------------------------------------------------- modules

    /// Loads a module, running `init` in process context and measuring the
    /// virtual-time latency of the whole `insmod` (paper §4.2 measures
    /// driver initialization this way).
    pub fn insmod(
        &self,
        name: impl Into<String>,
        init: impl FnOnce(&Kernel) -> KResult<()>,
    ) -> KResult<u64> {
        let name = name.into();
        let start = self.now_ns();
        self.with_context(ExecContext::Process, || init(self))?;
        let latency = self.now_ns() - start;
        self.inner.modules.borrow_mut().push(LoadedModule { name });
        Ok(latency)
    }

    /// Unloads a module, running `exit` in process context.
    pub fn rmmod(&self, name: &str, exit: impl FnOnce(&Kernel)) {
        self.with_context(ExecContext::Process, || exit(self));
        self.inner.modules.borrow_mut().retain(|m| m.name != name);
    }

    /// Currently loaded modules.
    pub fn modules(&self) -> Vec<LoadedModule> {
        self.inner.modules.borrow().clone()
    }

    pub(crate) fn inner(&self) -> &Inner {
        &self.inner
    }

    pub(crate) fn tracer_slot(&self) -> &RefCell<Option<Rc<decaf_trace::Tracer>>> {
        &self.inner.tracer
    }

    /// Whether a tracer is installed ([`Kernel::set_tracer`] keeps it).
    #[inline]
    pub(crate) fn tracing(&self) -> &Cell<bool> {
        &self.inner.tracing
    }

    // ---------------------------------------------- device traffic

    /// Starts recording every register access a driver makes through an
    /// [`crate::MmioRegion`] on this kernel, in order: what a test reads
    /// back with [`Kernel::take_device_traffic`] to compare two builds of
    /// one driver by what their device saw.
    pub fn record_device_traffic(&self) {
        self.inner.recording.set(true);
    }

    /// The accesses recorded since the last call, oldest first.
    pub fn take_device_traffic(&self) -> Vec<Access> {
        self.inner.traffic.take()
    }

    /// Records an access if this kernel records traffic: one flag test
    /// unless it does.
    #[inline]
    pub(crate) fn note_access(&self, offset: u64, value: u32, write: bool, port: bool) {
        if self.inner.recording.get() {
            self.record_access(offset, value, write, port);
        }
    }

    #[cold]
    #[inline(never)]
    fn record_access(&self, offset: u64, value: u32, write: bool, port: bool) {
        let access = Access {
            offset,
            value,
            write,
            port,
        };
        self.inner.traffic.borrow_mut().push(access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Lines the simulated interrupt controller has.
    const IRQ_LINES: u32 = 64;
    use crate::error::KError;
    #[cfg(debug_assertions)]
    use crate::mutation::{self, Mutant};
    use std::cell::Cell as StdCell;

    #[test]
    fn irq_delivery_at_schedule_point() {
        let k = Kernel::new();
        let fired = Rc::new(StdCell::new(0));
        let f = Rc::clone(&fired);
        k.request_irq(9, "test", Rc::new(move |_k| f.set(f.get() + 1)))
            .unwrap();
        k.raise_irq(9);
        assert_eq!(fired.get(), 0, "delivery is deferred");
        k.schedule_point();
        assert_eq!(fired.get(), 1);
        assert_eq!(k.stats().irqs_delivered, 1);
    }

    #[test]
    fn irq_handler_runs_in_hardirq_context() {
        let k = Kernel::new();
        let seen = Rc::new(StdCell::new(ExecContext::Process));
        let s = Rc::clone(&seen);
        k.request_irq(3, "ctx", Rc::new(move |k| s.set(k.context())))
            .unwrap();
        k.raise_irq(3);
        k.schedule_point();
        assert_eq!(seen.get(), ExecContext::HardIrq);
        assert_eq!(k.context(), ExecContext::Process, "context restored");
    }

    #[test]
    fn disable_irq_defers_delivery_until_enable() {
        let k = Kernel::new();
        let fired = Rc::new(StdCell::new(0));
        let f = Rc::clone(&fired);
        k.request_irq(5, "nic", Rc::new(move |_| f.set(f.get() + 1)))
            .unwrap();
        k.disable_irq(5);
        k.disable_irq(5); // nesting
        k.raise_irq(5);
        k.schedule_point();
        assert_eq!(fired.get(), 0);
        k.enable_irq(5);
        k.schedule_point();
        assert_eq!(fired.get(), 0, "still disabled once");
        k.enable_irq(5);
        k.schedule_point();
        assert_eq!(fired.get(), 1, "pending IRQ delivered after enable");
    }

    #[test]
    fn duplicate_request_irq_is_busy() {
        let k = Kernel::new();
        k.request_irq(1, "a", Rc::new(|_| {})).unwrap();
        assert_eq!(k.request_irq(1, "b", Rc::new(|_| {})), Err(KError::Busy));
        k.free_irq(1);
        assert!(k.request_irq(1, "b", Rc::new(|_| {})).is_ok());
    }

    #[test]
    fn a_line_the_controller_lacks_is_refused() {
        let k = Kernel::new();
        let fired = Rc::new(StdCell::new(0));
        let f = Rc::clone(&fired);
        let handler: IrqHandler = Rc::new(move |_| f.set(f.get() + 1));
        for line in [IRQ_LINES, IRQ_LINES + 1, u32::MAX] {
            let refused = k.request_irq(line, "past_the_end", Rc::clone(&handler));
            assert_eq!(refused, Err(KError::Inval), "line {line}");
            assert!(!k.irq_pending(line));
            k.free_irq(line); // nothing registered: no panic, nothing freed
        }
        assert!(k.dispatch().lines.is_empty(), "no line table grown");
        // The last line the controller has still works.
        k.request_irq(IRQ_LINES - 1, "last", handler).unwrap();
        k.raise_irq(IRQ_LINES - 1);
        k.schedule_point();
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn a_call_on_a_line_the_controller_lacks_is_a_violation_not_a_panic() {
        let k = Kernel::new();
        for line in [IRQ_LINES, u32::MAX] {
            k.raise_irq(line);
            k.disable_irq(line);
            k.enable_irq(line);
            k.free_irq(line);
            assert!(!k.irq_pending(line));
        }
        k.schedule_point();
        let v = k.violations();
        assert_eq!(v.len(), 8, "{v:?}");
        assert!(v.iter().all(|v| v.kind == ViolationKind::NoSuchIrqLine));
        assert_eq!(v[0].detail, "raise_irq(64)");
        assert_eq!(v[7].detail, format!("free_irq({})", u32::MAX));
        assert!(k.dispatch().lines.is_empty(), "no line table grown");
        assert!((0..IRQ_LINES).all(|line| !k.irq_pending(line)));
        // Nothing was masked: a line the controller has still delivers.
        let fired = Rc::new(StdCell::new(0));
        let f = Rc::clone(&fired);
        k.request_irq(0, "first", Rc::new(move |_| f.set(f.get() + 1)))
            .unwrap();
        k.raise_irq(0);
        k.schedule_point();
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn a_freed_line_delivers_again_even_if_it_was_freed_disabled() {
        // A driver removed while the nuclear runtime holds its interrupt
        // masked, then reloaded: the new owner's line must deliver.
        let k = Kernel::new();
        k.request_irq(7, "old", Rc::new(|_| {})).unwrap();
        k.disable_irq(7);
        k.disable_irq(7);
        k.raise_irq(7);
        k.free_irq(7);
        assert!(!k.irq_pending(7), "the old owner's interrupt went with it");

        let fired = Rc::new(StdCell::new(0));
        let f = Rc::clone(&fired);
        k.request_irq(7, "new", Rc::new(move |_| f.set(f.get() + 1)))
            .unwrap();
        k.raise_irq(7);
        k.schedule_point();
        assert_eq!(fired.get(), 1, "a re-requested line is not left masked");
        // And the depth restarted from zero: one disable, one enable.
        k.disable_irq(7);
        k.raise_irq(7);
        k.schedule_point();
        assert_eq!(fired.get(), 1);
        k.enable_irq(7);
        k.schedule_point();
        assert_eq!(fired.get(), 2);
    }

    #[test]
    fn oneshot_timer_fires_once_at_deadline() {
        let k = Kernel::new();
        let fired = Rc::new(StdCell::new(0u32));
        let f = Rc::clone(&fired);
        let t = k.timer_create("oneshot", Rc::new(move |_| f.set(f.get() + 1)));
        k.timer_arm(t, 1_000_000);
        k.run_for(999_999);
        assert_eq!(fired.get(), 0);
        k.run_for(2);
        assert_eq!(fired.get(), 1);
        k.run_for(10_000_000);
        assert_eq!(fired.get(), 1, "one-shot does not refire");
        assert!(!k.timer_pending(t));
    }

    #[test]
    fn periodic_timer_fires_repeatedly_until_deleted() {
        let k = Kernel::new();
        let fired = Rc::new(StdCell::new(0u32));
        let f = Rc::clone(&fired);
        let t = k.timer_create("watchdog", Rc::new(move |_| f.set(f.get() + 1)));
        // The E1000 watchdog runs every two (virtual) seconds.
        k.timer_arm_periodic(t, 2_000_000_000);
        k.run_for(7_000_000_000);
        assert_eq!(fired.get(), 3);
        k.timer_del(t);
        k.run_for(4_000_000_000);
        assert_eq!(fired.get(), 3);
    }

    #[test]
    fn timers_run_in_softirq_context_and_cannot_block() {
        let k = Kernel::new();
        let ctx = Rc::new(StdCell::new(ExecContext::Process));
        let c = Rc::clone(&ctx);
        let t = k.timer_create(
            "t",
            Rc::new(move |k| {
                c.set(k.context());
                assert!(!k.may_block());
                k.assert_may_block("upcall from timer");
            }),
        );
        k.timer_arm(t, 10);
        k.run_for(20);
        assert_eq!(ctx.get(), ExecContext::SoftIrq);
        let v = k.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::BlockingInAtomic);
        assert_eq!(v[0].context, ExecContext::SoftIrq);
    }

    #[test]
    fn work_items_run_in_process_context() {
        let k = Kernel::new();
        let ok = Rc::new(StdCell::new(false));
        let o = Rc::clone(&ok);
        let body: WorkBody = Rc::new(move |k, _| o.set(k.may_block()));
        k.schedule_work_handle(&body, 0);
        assert_eq!(k.work_pending(), 1);
        k.schedule_point();
        assert!(ok.get(), "work items may block");
        assert_eq!(k.work_pending(), 0);
        assert_eq!(k.stats().work_executed, 1);
    }

    /// A body that logs `(label, arg)` for each run.
    fn logging_body(log: &Rc<std::cell::RefCell<Vec<(u64, u64)>>>, label: u64) -> WorkBody {
        let log = Rc::clone(log);
        Rc::new(move |_, arg| log.borrow_mut().push((label, arg)))
    }

    #[test]
    fn work_runs_in_the_order_queued_whichever_body() {
        let k = Kernel::new();
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        let (a, b) = (logging_body(&order, 0), logging_body(&order, 1));
        k.schedule_work_handle(&a, 1);
        k.schedule_work_handle(&b, 2);
        k.schedule_work_handle(&a, 3);
        k.schedule_work_handle(&b, 4);
        assert_eq!(k.work_pending(), 4, "one queue");
        k.schedule_point();
        assert_eq!(*order.borrow(), [(0, 1), (1, 2), (0, 3), (1, 4)]);
        assert_eq!(k.work_pending(), 0);
        assert_eq!(k.stats().work_executed, 4);
        assert_eq!(k.now_ns(), 4 * costs::SOFTIRQ_DISPATCH_NS, "at one price");
    }

    #[test]
    fn a_by_handle_body_that_requeues_itself_runs_after_what_was_waiting() {
        let k = Kernel::new();
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        let me = Rc::new(std::cell::RefCell::new(None::<WorkBody>));
        let (log, again) = (Rc::clone(&order), Rc::clone(&me));
        let body: WorkBody = Rc::new(move |k, round| {
            log.borrow_mut().push(round);
            if round == 0 {
                let me = again.borrow().clone().expect("set before the first run");
                k.schedule_work_handle(&me, 1);
                assert_eq!(k.work_pending(), 2, "queued behind the waiting item");
            }
        });
        *me.borrow_mut() = Some(Rc::clone(&body));
        let log = Rc::clone(&order);
        let waiting: WorkBody = Rc::new(move |_, _| log.borrow_mut().push(100));
        k.schedule_work_handle(&body, 0);
        k.schedule_work_handle(&waiting, 0);
        k.schedule_point();
        // Not re-entered from inside its own run: behind what was waiting,
        // in the same dispatch.
        assert_eq!(*order.borrow(), [0, 100, 1]);
        assert_eq!(k.work_pending(), 0);
        assert_eq!(k.stats().work_executed, 3);
        me.borrow_mut().take(); // the test's own body → slot → body cycle
    }

    #[test]
    fn timer_deferring_to_work_item_reaches_process_context() {
        // The paper's watchdog pattern: the timer (softirq) enqueues a work
        // item; the work item (process context) may block / call user mode.
        // The guard's word reaches the body, and a declined expiry queues
        // nothing.
        let k = Kernel::new();
        let ran = Rc::new(std::cell::RefCell::new(Vec::new()));
        let r = Rc::clone(&ran);
        let task: WorkBody = Rc::new(move |k, arg| r.borrow_mut().push((arg, k.may_block())));
        let ticks = Rc::new(StdCell::new(0u64));
        let t = k.work_timer("watchdog", task, move || {
            ticks.set(ticks.get() + 1);
            (ticks.get() % 2 == 1).then_some(ticks.get())
        });
        k.timer_arm_periodic(t, 10_000);
        k.run_for(45_000);
        assert_eq!(*ran.borrow(), [(1, true), (3, true)]);
        assert_eq!(k.stats().timers_fired, 4);
        assert_eq!(k.stats().work_executed, 2);
    }

    #[test]
    fn timer_arm_at_fires_at_absolute_deadlines() {
        // The schedule-driven dispatch shape: one timer walked down a
        // precomputed arrival list by re-arming to each absolute time
        // from inside the callback. Late deadlines fire immediately
        // instead of underflowing.
        let k = Kernel::new();
        let fired = Rc::new(std::cell::RefCell::new(Vec::new()));
        let schedule = [10_000u64, 20_000, 20_000, 50_000];
        let idx = Rc::new(StdCell::new(0usize));
        let f = Rc::clone(&fired);
        let i = Rc::clone(&idx);
        let t_cell = Rc::new(StdCell::new(None::<TimerId>));
        let t_cb = Rc::clone(&t_cell);
        let t = k.timer_create(
            "arrivals",
            Rc::new(move |k| {
                f.borrow_mut().push(k.now_ns());
                let next = i.get() + 1;
                i.set(next);
                if next < schedule.len() {
                    k.timer_arm_at(t_cb.get().unwrap(), schedule[next]);
                }
            }),
        );
        t_cell.set(Some(t));
        k.timer_arm_at(t, schedule[0]);
        k.run_for(60_000);
        // Each fire observes its deadline plus the softirq dispatch
        // charge (busy time advances the clock on this one-CPU model).
        // The duplicate 20_000 deadline is already in the past when the
        // callback re-arms it, so it fires at the next dispatch point
        // rather than being lost — the lateness IS the queueing delay
        // an open-loop dispatcher wants to observe.
        assert_eq!(
            *fired.borrow(),
            vec![
                10_000 + costs::SOFTIRQ_DISPATCH_NS,
                20_000 + costs::SOFTIRQ_DISPATCH_NS,
                20_000 + 2 * costs::SOFTIRQ_DISPATCH_NS,
                50_000 + costs::SOFTIRQ_DISPATCH_NS,
            ]
        );
        assert!(!k.timer_pending(t));
    }

    #[test]
    fn insmod_measures_init_latency() {
        let k = Kernel::new();
        let latency = k
            .insmod("e1000", |k| {
                k.charge_kernel(400_000);
                Ok(())
            })
            .unwrap();
        assert_eq!(latency, 400_000);
        assert_eq!(k.modules().len(), 1);
        k.rmmod("e1000", |_| {});
        assert!(k.modules().is_empty());
    }

    #[test]
    fn insmod_propagates_init_errors() {
        let k = Kernel::new();
        let err = k.insmod("bad", |_| Err(KError::NoDev)).unwrap_err();
        assert_eq!(err, KError::NoDev);
        assert!(k.modules().is_empty());
    }

    #[test]
    fn shard_scope_attributes_charges() {
        let k = Kernel::new();
        k.charge_kernel(100); // unattributed
        k.shard_scope(2, || {
            k.charge_kernel(50);
            k.charge_user(30);
        });
        k.shard_scope(0, || k.charge_user(10));
        assert_eq!(k.current_shard(), None, "scope restored");
        let busy = k.shard_busy_ns();
        assert_eq!(busy, vec![10, 0, 80]);
        // Per-class totals include both attributed and unattributed time.
        let snap = k.snapshot();
        assert_eq!(snap.kernel_busy_ns, 150);
        assert_eq!(snap.user_busy_ns, 40);
    }

    #[test]
    fn shard_scope_restores_across_panics() {
        // XPC catches handler panics and keeps running (fault
        // containment), so a scope must unwind cleanly too.
        let k = Kernel::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.shard_scope(3, || panic!("handler died"));
        }));
        assert!(caught.is_err());
        assert_eq!(k.current_shard(), None, "scope stuck after a panic");
        k.charge_kernel(10);
        assert_eq!(k.shard_busy_ns().get(3).copied().unwrap_or(0), 0);
    }

    #[test]
    fn shard_scopes_nest_with_inner_override() {
        let k = Kernel::new();
        k.shard_scope(0, || {
            k.charge_kernel(10);
            k.shard_scope(1, || k.charge_kernel(7));
            assert_eq!(k.current_shard(), Some(0));
            k.charge_kernel(3);
        });
        assert_eq!(k.shard_busy_ns(), vec![13, 7]);
    }

    #[test]
    fn run_for_advances_exactly() {
        let k = Kernel::new();
        k.run_for(5_000);
        assert_eq!(k.now_ns(), 5_000);
    }

    #[test]
    fn irq_raised_by_timer_is_delivered_same_round() {
        let k = Kernel::new();
        let fired = Rc::new(StdCell::new(false));
        let f = Rc::clone(&fired);
        k.request_irq(2, "chained", Rc::new(move |_| f.set(true)))
            .unwrap();
        let t = k.timer_create("raiser", Rc::new(move |k| k.raise_irq(2)));
        k.timer_arm(t, 50);
        k.run_for(100);
        assert!(fired.get());
    }

    /// The `(timer label, time seen by the callback)` log recording
    /// timers append to.
    type FireLog = Rc<std::cell::RefCell<Vec<(u32, u64)>>>;

    fn recording_timer(k: &Kernel, log: &FireLog, label: u32) -> TimerId {
        let log = Rc::clone(log);
        k.timer_create(
            "recorder",
            Rc::new(move |k| log.borrow_mut().push((label, k.now_ns()))),
        )
    }

    #[test]
    fn overdue_timers_fire_in_creation_order_not_deadline_order() {
        // Busy time carries the clock past both deadlines before the next
        // dispatch point. The later-created timer has the earlier
        // deadline; the earlier-created one still fires first. A
        // `(deadline, seq)` ordering would get this backwards.
        let k = Kernel::new();
        let log = FireLog::default();
        let first = recording_timer(&k, &log, 0);
        let second = recording_timer(&k, &log, 1);
        k.timer_arm(first, 900);
        k.timer_arm(second, 100);
        k.charge_kernel(1_000);
        k.schedule_point();
        let d = costs::SOFTIRQ_DISPATCH_NS;
        assert_eq!(*log.borrow(), vec![(0, 1_000 + d), (1, 1_000 + 2 * d)]);
    }

    #[test]
    fn overdue_periodic_timer_rearms_from_the_dispatch_time() {
        // 2.5 periods late: the next deadline is `now + period` with the
        // `now` sampled at dispatch — missed periods are not replayed and
        // the grid is not `deadline + period`.
        let k = Kernel::new();
        let log = FireLog::default();
        let t = recording_timer(&k, &log, 0);
        k.timer_arm_periodic(t, 1_000);
        k.charge_kernel(3_500);
        k.schedule_point();
        assert_eq!(log.borrow().len(), 1, "one fire, however late");
        assert_eq!(k.dispatch().earliest_deadline(), Some(3_500 + 1_000));
    }

    #[test]
    fn timer_rearmed_into_the_past_by_its_callback_fires_again_same_round() {
        let k = Kernel::new();
        let fires = Rc::new(StdCell::new(0u32));
        let me = Rc::new(StdCell::new(None::<TimerId>));
        let (f, m) = (Rc::clone(&fires), Rc::clone(&me));
        let t = k.timer_create(
            "again",
            Rc::new(move |k| {
                f.set(f.get() + 1);
                if f.get() < 3 {
                    // Already in the past: clamped to `now`, so due.
                    k.timer_arm_at(m.get().unwrap(), 5);
                }
            }),
        );
        me.set(Some(t));
        k.timer_arm(t, 10);
        k.charge_kernel(10);
        k.schedule_point();
        assert_eq!(fires.get(), 3, "each re-arm fired within the one round");
        assert!(!k.timer_pending(t));
    }

    #[test]
    fn pending_irqs_deliver_lowest_line_first_and_chain_within_the_round() {
        let k = Kernel::new();
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        for line in [3u32, 9, 40] {
            let order = Rc::clone(&order);
            k.request_irq(
                line,
                "l",
                Rc::new(move |k| {
                    order.borrow_mut().push(line);
                    if line == 9 {
                        // Raised by a handler: delivered in this round,
                        // and before the higher line still waiting.
                        k.raise_irq(3);
                    }
                }),
            )
            .unwrap();
        }
        k.raise_irq(40);
        k.raise_irq(9);
        k.raise_irq(17); // no handler: spurious, dropped
        k.schedule_point();
        assert_eq!(*order.borrow(), vec![9, 3, 40]);
        assert!(!k.irq_pending(17));
        assert_eq!(k.stats().irqs_delivered, 3);
    }

    #[test]
    fn timer_del_frees_what_the_callback_captured() {
        delete_a_capturing_timer();
    }

    /// A removed driver's timers must not keep its channels alive until
    /// the kernel is dropped: a deleted timer's capture is freed at once.
    fn delete_a_capturing_timer() {
        let k = Kernel::new();
        let captured = Rc::new(());
        let weak = Rc::downgrade(&captured);
        let t = k.timer_create("holder", Rc::new(move |_| drop(Rc::clone(&captured))));
        k.timer_arm_periodic(t, 100);
        assert!(weak.upgrade().is_some());
        k.timer_del(t);
        assert!(weak.upgrade().is_none(), "freed with the kernel alive");
        assert!(!k.timer_pending(t));
        k.timer_arm(t, 10);
        assert!(!k.timer_pending(t), "a deleted timer cannot be re-armed");
        k.run_for(1_000);
        assert_eq!(k.stats().timers_fired, 0);
    }

    #[test]
    fn timer_deleting_itself_mid_callback_is_safe() {
        let k = Kernel::new();
        let me = Rc::new(StdCell::new(None::<TimerId>));
        let m = Rc::clone(&me);
        let ran_to_end = Rc::new(StdCell::new(false));
        let r = Rc::clone(&ran_to_end);
        let t = k.timer_create(
            "suicide",
            Rc::new(move |k| {
                k.timer_del(m.get().unwrap());
                // The closure is still alive: dispatch runs a clone.
                r.set(true);
            }),
        );
        me.set(Some(t));
        k.timer_arm_periodic(t, 10);
        k.run_for(100);
        assert!(ran_to_end.get());
        assert_eq!(k.stats().timers_fired, 1);
    }

    #[test]
    fn run_for_drains_chained_work() {
        let k = Kernel::new();
        let count = Rc::new(StdCell::new(0));
        let c = Rc::clone(&count);
        let second: WorkBody = Rc::new(move |_, _| c.set(c.get() + 1));
        let c = Rc::clone(&count);
        let first: WorkBody = Rc::new(move |k, _| {
            c.set(c.get() + 1);
            k.schedule_work_handle(&second, 0);
        });
        k.schedule_work_handle(&first, 0);
        k.run_for(0);
        assert_eq!(count.get(), 2);
        assert_eq!(k.work_pending(), 0);
    }

    /// The message a caught panic carried.
    #[cfg(debug_assertions)]
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |m| m.to_string()),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn museum_a_deleted_timer_that_keeps_its_callback_is_caught() {
        // The fixed leak, re-planted: the capture outlives the timer.
        mutation::arm(Mutant::TimerDelKeepsCallback);
        let caught = std::panic::catch_unwind(delete_a_capturing_timer);
        mutation::disarm();
        let msg = panic_message(caught.expect_err("the kept callback went unseen"));
        assert!(msg.contains("freed with the kernel alive"), "{msg}");
        delete_a_capturing_timer();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn museum_a_line_freed_while_disabled_is_caught() {
        // The fixed dead line, re-planted: the mask outlives the owner.
        mutation::arm(Mutant::FreeIrqKeepsMask);
        let caught =
            std::panic::catch_unwind(a_freed_line_delivers_again_even_if_it_was_freed_disabled);
        mutation::disarm();
        let msg = panic_message(caught.expect_err("the kept mask went unseen"));
        assert!(msg.contains("not left masked"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn museum_a_line_past_the_end_is_caught() {
        // The fixed panic, re-planted: line 64 is registered.
        mutation::arm(Mutant::RequestIrqPastTheEnd);
        let caught = std::panic::catch_unwind(a_line_the_controller_lacks_is_refused);
        mutation::disarm();
        let msg = panic_message(caught.expect_err("the missing check went unseen"));
        assert!(msg.contains("line 64"), "{msg}");
    }
}
