//! The kernel's tracing surface: virtual-time-stamped spans, instants,
//! request latencies and metrics, forwarded to an installed
//! [`Tracer`].
//!
//! This module is the *only* place the workspace touches `decaf-trace`
//! directly — every other crate emits through these `Kernel` wrapper
//! methods, which stamp events with `Kernel::now_ns()` (the
//! virtual-time-stamping rule: no other clock exists) and route charges
//! into span attribution. When no tracer is installed each wrapper is a
//! single inlined flag test that charges **zero virtual time**, so a
//! tracing-disabled run is bit-identical to an untraced one; everything
//! a traced run does is out of line, behind that test.
//!
//! That check comes *after* the caller has evaluated its arguments, so
//! the host-time half of "free when off" is the call site's job:
//! **arguments must be O(1) reads** (a length, a counter, a field).
//! Anything else — a scan, a sum over a collection, a formatted string —
//! goes behind `kernel.tracer().is_some()`.

use std::rc::Rc;

use decaf_trace::{CostClass, Tracer};

use crate::clock::CpuClass;
use crate::kernel::Kernel;

impl From<CpuClass> for CostClass {
    fn from(c: CpuClass) -> CostClass {
        match c {
            CpuClass::Kernel => CostClass::Kernel,
            CpuClass::User => CostClass::User,
        }
    }
}

/// An RAII guard for a sync trace span: opened by
/// [`Kernel::trace_span`], closed (with the then-current virtual time)
/// when dropped. Inert when no tracer was installed at open time.
#[must_use = "a span guard closes its span when dropped"]
pub struct TraceSpan {
    live: Option<(Kernel, Rc<Tracer>)>,
}

impl TraceSpan {
    /// A guard that does nothing on drop.
    #[inline]
    pub fn disabled() -> Self {
        TraceSpan { live: None }
    }

    #[cold]
    fn close(&mut self) {
        if let Some((kernel, tracer)) = self.live.take() {
            tracer.end_span(kernel.now_ns());
        }
    }
}

impl Drop for TraceSpan {
    #[inline]
    fn drop(&mut self) {
        if self.live.is_some() {
            self.close();
        }
    }
}

impl Kernel {
    /// Installs `tracer` as the sink for spans, events and metrics
    /// (replacing any previous one). Pass `None` to disable tracing.
    pub fn set_tracer(&self, tracer: Option<Rc<Tracer>>) {
        self.tracing().set(tracer.is_some());
        *self.tracer_slot().borrow_mut() = tracer;
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<Rc<Tracer>> {
        self.tracer_slot().borrow().clone()
    }

    /// The track (Chrome `tid`) current events land on: shard id + 1
    /// inside a [`Kernel::shard_scope`], 0 for unsharded work.
    pub fn trace_track(&self) -> u32 {
        match self.current_shard() {
            Some(s) => s as u32 + 1,
            None => 0,
        }
    }

    /// Opens a sync span stamped with the current virtual time; the
    /// returned guard closes it when dropped. Charges made while the
    /// guard is the innermost open span are attributed to it.
    #[inline]
    pub fn trace_span(&self, cat: &'static str, name: &'static str) -> TraceSpan {
        if self.tracing().get() {
            self.open_span(cat, name)
        } else {
            TraceSpan::disabled()
        }
    }

    #[cold]
    fn open_span(&self, cat: &'static str, name: &'static str) -> TraceSpan {
        let live = self.tracer().map(|t| {
            t.begin_span(self.now_ns(), cat, name, self.trace_track());
            (self.clone(), t)
        });
        TraceSpan { live }
    }

    /// Records a point event with up to three numeric arguments.
    #[inline]
    pub fn trace_instant(
        &self,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        if self.tracing().get() {
            self.emit_instant(cat, name, args);
        }
    }

    #[cold]
    fn emit_instant(&self, cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
        if let Some(t) = self.tracer() {
            t.instant(self.now_ns(), cat, name, self.trace_track(), args);
        }
    }

    /// Opens request `(key, id)` — an id-keyed async span that may
    /// outlive the opening call stack (a URB completing later). Its
    /// latency lands in the registry histogram named `key` when the
    /// matching [`Kernel::trace_req_end`] runs.
    #[inline]
    pub fn trace_req_begin(&self, key: &'static str, id: u64) {
        if self.tracing().get() {
            self.emit_req(key, id, Tracer::req_begin);
        }
    }

    /// Closes request `(key, id)`, recording its virtual-time latency.
    #[inline]
    pub fn trace_req_end(&self, key: &'static str, id: u64) {
        if self.tracing().get() {
            self.emit_req(key, id, Tracer::req_end);
        }
    }

    #[cold]
    fn emit_req(&self, key: &'static str, id: u64, emit: fn(&Tracer, u64, &'static str, u64, u32)) {
        if let Some(t) = self.tracer() {
            emit(&t, self.now_ns(), key, id, self.trace_track());
        }
    }

    /// Records one sample into the named metrics histogram.
    pub fn metric(&self, name: &str, value: u64) {
        if let Some(t) = self.tracer() {
            t.registry().record(name, value);
        }
    }

    /// Forwards a charge to span attribution (called from
    /// [`Kernel::charge`] when a tracer is installed; never advances time
    /// itself).
    #[cold]
    pub(crate) fn trace_attribute(&self, class: CpuClass, ns: u64) {
        if let Some(t) = self.tracer() {
            t.attribute(class.into(), ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs;

    #[test]
    fn spans_attribute_charges_and_reconcile_with_the_clock() {
        let k = Kernel::new();
        let t = Tracer::new();
        k.set_tracer(Some(Rc::clone(&t)));
        {
            let _run = k.trace_span("kernel", "run");
            k.charge_kernel(1_000);
            {
                let _inner = k.trace_span("xpc", "call");
                k.charge_user(250);
            }
            k.charge_kernel(50);
        }
        let cov = t.coverage();
        assert_eq!(cov.attributed, [1_050, 250]);
        assert_eq!(cov.unattributed, [0, 0]);
        // Leaf self-times reconcile exactly with the clock's busy time.
        let snap = k.snapshot();
        assert_eq!(t.leaf_self_ns(CostClass::Kernel), snap.kernel_busy_ns);
        assert_eq!(t.leaf_self_ns(CostClass::User), snap.user_busy_ns);
        decaf_trace::validate_nesting(&t.events()).unwrap();
    }

    #[test]
    fn disabled_tracing_charges_zero_virtual_time() {
        let traced = Kernel::new();
        traced.set_tracer(Some(Tracer::new()));
        let untraced = Kernel::new();
        for k in [&traced, &untraced] {
            let _span = k.trace_span("kernel", "run");
            k.trace_instant("ring", "post", &[("slot", 1)]);
            k.trace_req_begin("req", 7);
            k.charge_kernel(100);
            k.trace_req_end("req", 7);
        }
        assert_eq!(traced.now_ns(), untraced.now_ns(), "zero observer effect");
        assert!(untraced.tracer().is_none());
    }

    #[test]
    fn shard_scope_routes_events_to_shard_tracks() {
        let k = Kernel::new();
        let t = Tracer::new();
        k.set_tracer(Some(Rc::clone(&t)));
        k.trace_instant("x", "main", &[]);
        k.shard_scope(2, || k.trace_instant("x", "sharded", &[]));
        let evs = t.events();
        assert_eq!(evs[0].track, 0);
        assert_eq!(evs[1].track, 3);
    }

    #[test]
    fn dispatch_spans_cover_irq_timer_and_work() {
        let k = Kernel::new();
        let t = Tracer::new();
        k.set_tracer(Some(Rc::clone(&t)));
        k.request_irq(1, "nic", Rc::new(|_| {})).unwrap();
        k.raise_irq(1);
        let timer = k.timer_create("tick", Rc::new(|_| {}));
        k.timer_arm(timer, 10);
        let job: crate::kernel::WorkBody = Rc::new(|_, _| {});
        k.schedule_work_handle(&job, 0);
        k.run_for(100);
        let names: Vec<String> = t.events().iter().map(|e| e.name.to_string()).collect();
        for expected in ["irq", "timer", "work"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        // Dispatch overhead lands inside the spans, not unattributed.
        let cov = t.coverage();
        assert_eq!(cov.unattributed, [0, 0]);
        assert!(
            cov.attributed[0] >= costs::IRQ_ENTRY_NS + 2 * costs::SOFTIRQ_DISPATCH_NS,
            "dispatch charges attributed to dispatch spans"
        );
        decaf_trace::validate_nesting(&t.events()).unwrap();
    }
}
