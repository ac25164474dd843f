//! The virtual-time tracer: spans, instants, request latencies and
//! charge attribution.
//!
//! Every timestamp is passed in by the caller (the simulated kernel's
//! `now_ns`), so this crate never reads a wall clock — traces from the
//! same seed are byte-identical. The tracer itself never charges
//! virtual time: observing a run cannot change it (zero observer
//! effect; the trace-validate CI job asserts this end to end).
//!
//! Three event families:
//!
//! * **sync spans** ([`Tracer::begin_span`] / [`Tracer::end_span`]) —
//!   strictly nested, RAII-scoped at the call site, rendered as Chrome
//!   `B`/`E` pairs. The *innermost* open span receives every virtual-time
//!   charge made while it is open ([`Tracer::attribute`]), so summing
//!   leaf self-times reconciles exactly with the clock's charged totals;
//! * **instants** ([`Tracer::instant`]) — point events with small
//!   numeric arguments (token ids, descriptor counts, overlap credit);
//! * **request spans** ([`Tracer::req_begin`] / [`Tracer::req_end`]) —
//!   id-keyed begin/end pairs that may cross sync-span boundaries (a
//!   URB completes long after its submitter returned). Each completed
//!   request records its latency into the registry's histogram under
//!   the request key.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::registry::MetricsRegistry;

/// The CPU class a charge is attributed to. Mirrors the simulated
/// kernel's class split without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Kernel-class busy time.
    Kernel,
    /// User-class busy time.
    User,
}

impl CostClass {
    fn index(self) -> usize {
        match self {
            CostClass::Kernel => 0,
            CostClass::User => 1,
        }
    }
}

/// Event phase, mapped onto Chrome `trace_event` phases at export time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Sync span open (`B`).
    Begin,
    /// Sync span close (`E`).
    End,
    /// Point event (`i`).
    Instant,
    /// Request (async) span open (`b`).
    ReqBegin,
    /// Request (async) span close (`e`).
    ReqEnd,
}

/// Maximum numeric arguments one event carries.
pub const MAX_ARGS: usize = 3;

/// One recorded event. Plain data: comparing two runs' event vectors
/// (or their serialized JSON) is the determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time, nanoseconds.
    pub ts: u64,
    /// Phase (span open/close, instant, request open/close).
    pub phase: Phase,
    /// Category (subsystem: `xpc`, `ring`, `kernel`, ...).
    pub cat: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Track (Chrome `tid`): 0 for unsharded work, shard id + 1 inside a
    /// shard scope.
    pub track: u32,
    /// Request id (request spans only; 0 otherwise).
    pub id: u64,
    /// Up to [`MAX_ARGS`] named numeric arguments.
    pub args: Vec<(&'static str, u64)>,
}

/// One open sync span on the stack.
struct OpenSpan {
    cat: &'static str,
    name: &'static str,
    track: u32,
    start_ts: u64,
    self_ns: [u64; 2],
}

/// Aggregated flame-summary entry for one (cat, name) span class.
#[derive(Debug, Default, Clone, Copy)]
struct FlameEntry {
    count: u64,
    self_ns: [u64; 2],
    total_ns: u64,
}

/// The tracer: an event buffer, a span stack, charge attribution and a
/// metrics registry, all keyed by caller-provided virtual time.
pub struct Tracer {
    keep_events: bool,
    events: RefCell<Vec<TraceEvent>>,
    stack: RefCell<Vec<OpenSpan>>,
    attributed: Cell<[u64; 2]>,
    unattributed: Cell<[u64; 2]>,
    flame: RefCell<BTreeMap<(&'static str, &'static str), FlameEntry>>,
    open_requests: RefCell<HashMap<(&'static str, u64), u64>>,
    registry: MetricsRegistry,
}

/// Per-class totals of charge attribution: how much charged time landed
/// inside some open span versus outside every span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Charged ns attributed to the innermost open span, per class
    /// (index 0 kernel, 1 user).
    pub attributed: [u64; 2],
    /// Charged ns observed with no span open.
    pub unattributed: [u64; 2],
}

impl Coverage {
    /// Fraction of all observed charges that landed inside a span, in
    /// `[0, 1]`; 1.0 when nothing was charged.
    pub fn fraction(&self) -> f64 {
        let a: u64 = self.attributed.iter().sum();
        let u: u64 = self.unattributed.iter().sum();
        if a + u == 0 {
            1.0
        } else {
            a as f64 / (a + u) as f64
        }
    }

    /// Total observed charges per class (attributed + unattributed).
    pub fn observed(&self, class: CostClass) -> u64 {
        let i = class.index();
        self.attributed[i] + self.unattributed[i]
    }
}

impl Tracer {
    fn with_mode(keep_events: bool) -> Rc<Self> {
        Rc::new(Tracer {
            keep_events,
            events: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            attributed: Cell::new([0; 2]),
            unattributed: Cell::new([0; 2]),
            flame: RefCell::new(BTreeMap::new()),
            open_requests: RefCell::new(HashMap::new()),
            registry: MetricsRegistry::new(),
        })
    }

    /// A tracer that keeps the full event buffer (for export).
    pub fn new() -> Rc<Self> {
        Tracer::with_mode(true)
    }

    /// A tracer that records metrics, attribution and the flame summary
    /// but drops the per-event buffer — what the benchmark tables
    /// install to get percentiles without holding every event of a long
    /// run.
    pub fn metrics_only() -> Rc<Self> {
        Tracer::with_mode(false)
    }

    /// The metrics registry backing request-latency histograms.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Buffers the event `build` makes — called only when events are
    /// kept, so a metrics-only tracer never materialises one.
    fn push_event(&self, build: impl FnOnce() -> TraceEvent) {
        if self.keep_events {
            self.events.borrow_mut().push(build());
        }
    }

    /// Opens a sync span at `ts` on `track`. Must be closed by a
    /// matching [`Tracer::end_span`] (the kernel wraps the pair in an
    /// RAII guard).
    pub fn begin_span(&self, ts: u64, cat: &'static str, name: &'static str, track: u32) {
        self.stack.borrow_mut().push(OpenSpan {
            cat,
            name,
            track,
            start_ts: ts,
            self_ns: [0; 2],
        });
        self.push_event(|| TraceEvent {
            ts,
            phase: Phase::Begin,
            cat,
            name,
            track,
            id: 0,
            args: Vec::new(),
        });
    }

    /// Closes the innermost open span at `ts`, folding its self-time
    /// into the flame summary. Tolerates an empty stack (a tracer
    /// installed mid-span) by doing nothing.
    pub fn end_span(&self, ts: u64) {
        let Some(span) = self.stack.borrow_mut().pop() else {
            return;
        };
        let mut flame = self.flame.borrow_mut();
        let e = flame.entry((span.cat, span.name)).or_default();
        e.count += 1;
        e.self_ns[0] += span.self_ns[0];
        e.self_ns[1] += span.self_ns[1];
        e.total_ns += ts.saturating_sub(span.start_ts);
        drop(flame);
        self.push_event(|| TraceEvent {
            ts,
            phase: Phase::End,
            cat: span.cat,
            name: span.name,
            track: span.track,
            id: 0,
            args: Vec::new(),
        });
    }

    /// Records a point event with up to [`MAX_ARGS`] numeric arguments.
    pub fn instant(
        &self,
        ts: u64,
        cat: &'static str,
        name: &'static str,
        track: u32,
        args: &[(&'static str, u64)],
    ) {
        self.push_event(|| TraceEvent {
            ts,
            phase: Phase::Instant,
            cat,
            name,
            track,
            id: 0,
            args: args.iter().take(MAX_ARGS).copied().collect(),
        });
    }

    /// Opens a request span `(key, id)` at `ts`. Re-opening a live id
    /// restarts its clock (last begin wins).
    pub fn req_begin(&self, ts: u64, key: &'static str, id: u64, track: u32) {
        self.open_requests.borrow_mut().insert((key, id), ts);
        self.push_event(|| TraceEvent {
            ts,
            phase: Phase::ReqBegin,
            cat: "request",
            name: key,
            track,
            id,
            args: Vec::new(),
        });
    }

    /// Closes request `(key, id)` at `ts`, recording its latency into
    /// the registry histogram named `key`. Unknown ids are ignored (a
    /// completion for a request begun before the tracer was installed).
    pub fn req_end(&self, ts: u64, key: &'static str, id: u64, track: u32) {
        let Some(begin) = self.open_requests.borrow_mut().remove(&(key, id)) else {
            return;
        };
        self.registry.record(key, ts.saturating_sub(begin));
        self.push_event(|| TraceEvent {
            ts,
            phase: Phase::ReqEnd,
            cat: "request",
            name: key,
            track,
            id,
            args: Vec::new(),
        });
    }

    /// Requests begun and not yet ended.
    pub fn open_request_count(&self) -> usize {
        self.open_requests.borrow().len()
    }

    /// Attributes `ns` of charged virtual time to the innermost open
    /// span (or to the unattributed pool when no span is open). Called
    /// by the kernel's single charge entry point — never charges time
    /// itself.
    pub fn attribute(&self, class: CostClass, ns: u64) {
        let i = class.index();
        let mut stack = self.stack.borrow_mut();
        if let Some(top) = stack.last_mut() {
            top.self_ns[i] += ns;
            let mut a = self.attributed.get();
            a[i] += ns;
            self.attributed.set(a);
        } else {
            let mut u = self.unattributed.get();
            u[i] += ns;
            self.unattributed.set(u);
        }
    }

    /// Attribution totals so far.
    pub fn coverage(&self) -> Coverage {
        Coverage {
            attributed: self.attributed.get(),
            unattributed: self.unattributed.get(),
        }
    }

    /// Sum of closed-span leaf self-time per class — what reconciles
    /// against the clock's charged totals (open spans' partial self-time
    /// is excluded, so compare after every guard has dropped).
    pub fn leaf_self_ns(&self, class: CostClass) -> u64 {
        let i = class.index();
        self.flame.borrow().values().map(|e| e.self_ns[i]).sum()
    }

    /// Open sync spans (0 once every guard has dropped).
    pub fn open_span_count(&self) -> usize {
        self.stack.borrow().len()
    }

    /// Number of events recorded (0 on a metrics-only tracer).
    pub fn event_count(&self) -> usize {
        self.events.borrow().len()
    }

    /// A snapshot of the event buffer.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.borrow().clone()
    }

    /// The compact text flame summary: one line per (cat, name) span
    /// class, sorted by self-time descending — where the charged
    /// nanoseconds went, leaf-attributed.
    pub fn flame_summary(&self) -> String {
        let flame = self.flame.borrow();
        let mut rows: Vec<_> = flame
            .iter()
            .map(|(&(cat, name), e)| (cat, name, *e))
            .collect();
        rows.sort_by(|a, b| {
            let sa: u64 = a.2.self_ns.iter().sum();
            let sb: u64 = b.2.self_ns.iter().sum();
            sb.cmp(&sa).then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        let total: u64 = self.attributed.get().iter().sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flame summary (leaf self-time; {} µs attributed)",
            total / 1_000
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>6}",
            "span", "count", "self µs", "total µs", "self%"
        );
        for (cat, name, e) in rows {
            let self_total: u64 = e.self_ns.iter().sum();
            let pct = if total == 0 {
                0.0
            } else {
                self_total as f64 * 100.0 / total as f64
            };
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12.1} {:>12.1} {:>5.1}%",
                format!("{cat}.{name}"),
                e.count,
                self_total as f64 / 1e3,
                e.total_ns as f64 / 1e3,
                pct
            );
        }
        out
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("events", &self.event_count())
            .field("open_spans", &self.open_span_count())
            .field("coverage", &self.coverage())
            .finish()
    }
}

/// Validates span discipline over an event buffer: per track, `B`/`E`
/// events must nest like matched brackets with non-decreasing
/// timestamps (which also means no two spans on one track's timeline
/// partially overlap), every opened span must close, and every request
/// end must follow a matching begin.
pub fn validate_nesting(events: &[TraceEvent]) -> Result<(), String> {
    let mut stacks: HashMap<u32, Vec<(&str, u64)>> = HashMap::new();
    let mut last_ts: HashMap<u32, u64> = HashMap::new();
    let mut open_reqs: HashMap<(&str, u64), u64> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let prev = last_ts.entry(ev.track).or_insert(0);
        if ev.ts < *prev {
            return Err(format!(
                "event {i} ({}.{}) goes back in time on track {}: {} < {}",
                ev.cat, ev.name, ev.track, ev.ts, prev
            ));
        }
        *prev = ev.ts;
        match ev.phase {
            Phase::Begin => stacks.entry(ev.track).or_default().push((ev.name, ev.ts)),
            Phase::End => {
                let Some((name, begin_ts)) = stacks.entry(ev.track).or_default().pop() else {
                    return Err(format!(
                        "event {i}: end of {}.{} with no open span on track {}",
                        ev.cat, ev.name, ev.track
                    ));
                };
                if name != ev.name {
                    return Err(format!(
                        "event {i}: span {} closed while {} was innermost (track {})",
                        ev.name, name, ev.track
                    ));
                }
                if ev.ts < begin_ts {
                    return Err(format!("event {i}: span {} ends before it begins", ev.name));
                }
            }
            Phase::ReqBegin => {
                open_reqs.insert((ev.name, ev.id), ev.ts);
            }
            Phase::ReqEnd => {
                if open_reqs.remove(&(ev.name, ev.id)).is_none() {
                    return Err(format!(
                        "event {i}: request {}#{} ended without a begin",
                        ev.name, ev.id
                    ));
                }
            }
            Phase::Instant => {}
        }
    }
    for (track, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("span {name} left open on track {track}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_attribute_leafward() {
        let t = Tracer::new();
        t.begin_span(0, "kernel", "outer", 0);
        t.attribute(CostClass::Kernel, 100);
        t.begin_span(100, "kernel", "inner", 0);
        t.attribute(CostClass::Kernel, 40);
        t.attribute(CostClass::User, 10);
        t.end_span(150);
        t.attribute(CostClass::Kernel, 5);
        t.end_span(200);
        let c = t.coverage();
        assert_eq!(c.attributed, [145, 10]);
        assert_eq!(c.unattributed, [0, 0]);
        assert_eq!(t.leaf_self_ns(CostClass::Kernel), 145);
        assert_eq!(t.leaf_self_ns(CostClass::User), 10);
        validate_nesting(&t.events()).unwrap();
        let flame = t.flame_summary();
        assert!(flame.contains("kernel.inner"));
    }

    #[test]
    fn charges_outside_spans_are_unattributed() {
        let t = Tracer::new();
        t.attribute(CostClass::User, 7);
        assert_eq!(t.coverage().unattributed, [0, 7]);
        assert!(t.coverage().fraction() < 1.0);
    }

    #[test]
    fn requests_record_latency_histograms() {
        let t = Tracer::new();
        t.req_begin(1_000, "request_ns", 1, 0);
        t.req_begin(2_000, "request_ns", 2, 0);
        t.req_end(2_500, "request_ns", 2, 0);
        t.req_end(3_000, "request_ns", 1, 0);
        let h = t.registry().histogram("request_ns").unwrap();
        assert_eq!(h.count(), 2);
        assert!(h.min() >= 500 && h.max() <= 2_047);
        assert_eq!(t.open_request_count(), 0);
        validate_nesting(&t.events()).unwrap();
    }

    #[test]
    fn nesting_validation_rejects_unclosed_and_crossed_spans() {
        let t = Tracer::new();
        t.begin_span(0, "k", "a", 0);
        assert!(validate_nesting(&t.events()).is_err(), "unclosed span");
        t.end_span(10);
        validate_nesting(&t.events()).unwrap();
        // Hand-build a crossed pair on one track.
        let mut evs = t.events();
        evs.push(TraceEvent {
            ts: 20,
            phase: Phase::Begin,
            cat: "k",
            name: "x",
            track: 0,
            id: 0,
            args: vec![],
        });
        evs.push(TraceEvent {
            ts: 25,
            phase: Phase::End,
            cat: "k",
            name: "y",
            track: 0,
            id: 0,
            args: vec![],
        });
        assert!(validate_nesting(&evs).is_err(), "crossed close");
    }

    #[test]
    fn metrics_only_drops_events_but_keeps_everything_else() {
        let t = Tracer::metrics_only();
        t.begin_span(0, "k", "a", 0);
        t.attribute(CostClass::Kernel, 9);
        t.end_span(10);
        t.req_begin(0, "r", 1, 0);
        t.req_end(8, "r", 1, 0);
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.coverage().attributed, [9, 0]);
        assert_eq!(t.registry().histogram("r").unwrap().count(), 1);
    }
}
