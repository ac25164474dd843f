//! Per-layer counts and virtual self time, computed from
//! `Tracer::events()` — never from the tracer's own summaries, so the
//! numbers here keep meaning what this file says when the tracer's
//! reports are reworded.
//!
//! A span's self time is its duration minus the durations of the spans
//! opened inside it. Spans nest on one global stack: the simulation is
//! single-threaded, and a trace *track* is a cost-attribution label (the
//! shard a charge is billed to), not a thread — a doorbell span on track
//! 3 really does run inside the timer span on track 0 that fired it.
//! Nesting per track would count that time twice.

use decaf_core::simkernel::decaf_trace::{Phase, TraceEvent};

/// The layers events are attributed to, by trace category.
pub const LAYERS: [&str; 5] = ["xpc", "ring", "pool", "kernel", "drivers"];

fn layer_of(cat: &str) -> Option<usize> {
    let name = match cat {
        "xpc" | "xpc.batch" | "xpc.crossing" => "xpc",
        "ring" => "ring",
        "pool" => "pool",
        "kernel" => "kernel",
        "rx" | "urb" | "shard" => "drivers",
        _ => return None,
    };
    LAYERS.iter().position(|l| *l == name)
}

/// What one traced repetition's events add up to.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceSummary {
    /// Events recorded, all phases.
    pub events: u64,
    /// Virtual self ns of spans, per entry of [`LAYERS`].
    pub self_ns: [u64; 5],
    /// Virtual self ns of spans in categories outside [`LAYERS`].
    pub other_self_ns: u64,
    /// Synchronous one-way control transfers (`xpc.crossing` instants).
    pub crossings: u64,
    /// Completion tokens launched (`xpc.batch/launch`, `tokens`).
    pub tokens: u64,
    /// Crossing ns covered by computation at harvest.
    pub overlap_ns: u64,
    /// Crossing ns still charged at harvest.
    pub uncovered_ns: u64,
    /// Descriptors posted (`ring/post`).
    pub ring_posts: u64,
    /// Doorbells rung (`ring/doorbell` spans).
    pub doorbells: u64,
    /// Descriptors those doorbells carried (`ring/ring`, `descriptors`).
    pub doorbell_descs: u64,
    /// Sector-chain allocations (`pool/alloc`).
    pub pool_allocs: u64,
    /// Timer callbacks (`kernel/timer` spans).
    pub timer_fires: u64,
    /// Interrupts delivered (`kernel/irq` spans).
    pub irqs: u64,
    /// Work items run (`kernel/work` spans).
    pub work_items: u64,
    /// `End` events with no open span, or spans left open — 0 on a
    /// well-formed trace.
    pub unbalanced: u64,
}

fn arg(ev: &TraceEvent, key: &str) -> u64 {
    ev.args
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |&(_, v)| v)
}

impl TraceSummary {
    /// Folds `events` (in recording order) into a summary.
    pub fn of(events: &[TraceEvent]) -> TraceSummary {
        let mut s = TraceSummary {
            events: events.len() as u64,
            ..TraceSummary::default()
        };
        // (category, start, ns covered by child spans)
        let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
        for ev in events {
            match ev.phase {
                Phase::Begin => {
                    stack.push((ev.cat, ev.ts, 0));
                    match (ev.cat, &*ev.name) {
                        ("ring", "doorbell") => s.doorbells += 1,
                        ("kernel", "timer") => s.timer_fires += 1,
                        ("kernel", "irq") => s.irqs += 1,
                        ("kernel", "work") => s.work_items += 1,
                        _ => {}
                    }
                }
                Phase::End => {
                    let Some((cat, start, children)) = stack.pop() else {
                        s.unbalanced += 1;
                        continue;
                    };
                    let dur = ev.ts.saturating_sub(start);
                    let own = dur.saturating_sub(children);
                    match layer_of(cat) {
                        Some(i) => s.self_ns[i] += own,
                        None => s.other_self_ns += own,
                    }
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                Phase::Instant => match (ev.cat, &*ev.name) {
                    ("xpc.crossing", _) => s.crossings += 1,
                    ("xpc.batch", "launch") => s.tokens += arg(ev, "tokens"),
                    ("xpc.batch", "harvest") => {
                        s.overlap_ns += arg(ev, "overlap_ns");
                        s.uncovered_ns += arg(ev, "uncovered_ns");
                    }
                    ("ring", "post") => s.ring_posts += 1,
                    ("ring", "ring") => s.doorbell_descs += arg(ev, "descriptors"),
                    ("pool", "alloc") => s.pool_allocs += 1,
                    _ => {}
                },
                Phase::ReqBegin | Phase::ReqEnd => {}
            }
        }
        s.unbalanced += stack.len() as u64;
        s
    }

    /// Virtual self ns of the spans of layer `name` (an entry of [`LAYERS`]).
    pub fn layer_self_ns(&self, name: &str) -> u64 {
        LAYERS
            .iter()
            .position(|l| *l == name)
            .map_or(0, |i| self.self_ns[i])
    }

    /// Virtual self ns of every span, all layers.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.iter().sum::<u64>() + self.other_self_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_core::simkernel::decaf_trace::Tracer;

    #[test]
    fn self_time_subtracts_children_across_tracks() {
        let t = Tracer::new();
        // kernel.timer [0, 1000] on track 0 contains ring.doorbell
        // [100, 700] on track 3, which contains xpc.call [200, 500].
        t.begin_span(0, "kernel", "timer", 0);
        t.begin_span(100, "ring", "doorbell", 3);
        t.instant(100, "ring", "ring", 3, &[("descriptors", 8)]);
        t.begin_span(200, "xpc", "call", 3);
        t.instant(250, "xpc.crossing", "inproc", 3, &[("cost_ns", 4000)]);
        t.end_span(500);
        t.end_span(700);
        t.instant(800, "ring", "post", 0, &[("occupancy", 1)]);
        t.instant(810, "pool", "alloc", 0, &[("bytes", 512)]);
        t.instant(
            820,
            "xpc.batch",
            "launch",
            0,
            &[("tokens", 3), ("cost_ns", 9)],
        );
        t.instant(
            830,
            "xpc.batch",
            "harvest",
            0,
            &[("overlap_ns", 30), ("uncovered_ns", 10)],
        );
        t.end_span(1000);
        t.begin_span(1000, "bench", "other", 0);
        t.end_span(1040);
        let s = TraceSummary::of(&t.events());
        let layer = |name| s.layer_self_ns(name);
        assert_eq!(layer("kernel"), 1000 - 600);
        assert_eq!(layer("ring"), 600 - 300);
        assert_eq!(layer("xpc"), 300);
        assert_eq!(s.other_self_ns, 40);
        assert_eq!(
            s.total_self_ns(),
            1040,
            "self times partition the top-level spans"
        );
        assert_eq!((s.timer_fires, s.doorbells, s.doorbell_descs), (1, 1, 8));
        assert_eq!(
            (s.crossings, s.ring_posts, s.pool_allocs, s.tokens),
            (1, 1, 1, 3)
        );
        assert_eq!((s.overlap_ns, s.uncovered_ns, s.unbalanced), (30, 10, 0));
        assert_eq!(s.events, t.events().len() as u64);
    }

    #[test]
    fn unbalanced_traces_are_counted_not_hidden() {
        let t = Tracer::new();
        t.begin_span(0, "kernel", "irq", 0);
        let mut events = t.events();
        assert_eq!(TraceSummary::of(&events).unbalanced, 1, "span left open");
        events.clear();
        t.end_span(5);
        events.push(t.events().pop().unwrap());
        assert_eq!(TraceSummary::of(&events).unbalanced, 1, "end without begin");
    }
}
