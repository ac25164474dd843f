//! One *block*: one process measuring one workload for a fixed wall time.
//! This is the unit the PR driver runs (`--workload W --seed N --seconds S
//! --trace 0|1`) and the unit `run` re-executes itself as.
//!
//! `--trace 0` measures the end-to-end host metrics with no tracer
//! installed anywhere. `--trace 1` produces every per-layer metric: the
//! virtual section, the traced section (one repetition with
//! `Tracer::new()` installed, checked equal to an untraced one), and the
//! unit drives.

use std::time::Instant;

use decaf_core::simkernel::decaf_trace::{
    chrome_trace_json, validate_chrome_json, Phase, TraceEvent,
};

use crate::host::{calibration_ns, peak_rss_mib, CpuWatch, CAL_REF_NS};
use crate::json::Json;
use crate::layers::{self, Drive};
use crate::spec;
use crate::stats::{median, Summary};
use crate::traceagg::TraceSummary;
use crate::workloads::{self, Inputs, Rep, Size, Virt};

/// Repetitions every block runs however slow the box is, and the count
/// after which peak memory is read: fixed work, so the reading does not
/// grow with how many repetitions happened to fit into the wall time.
pub const MIN_REPS: usize = 5;

/// What a block was asked to do.
#[derive(Debug, Clone)]
pub struct BlockArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Produce the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// A block's result: the line the driver reads, plus the detail `run`
/// keeps.
#[derive(Debug, Clone)]
pub struct BlockResult {
    /// Every check of every repetition passed.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations whose outcome was wrong, plus failed checks.
    pub failed: u64,
    /// `(name, value)` in contract order; `None` = undefined here.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// Unit drives (`--trace 1` only).
    pub drives: Vec<Drive>,
}

impl BlockResult {
    /// The one-line JSON object the PR driver parses. A metric that is
    /// undefined on this workload is written as 0 there (the driver wants
    /// a number for every name); `run` keeps it `null`.
    pub fn to_driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, v)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(v.unwrap_or(0.0))),
                            ("unit", Json::str(spec::unit_of(name))),
                        ]),
                    )
                })),
            ),
        ])
        .to_line()
    }

    /// The full record `run` stores per block.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(n, v)| (n, Json::opt_num(v)))),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "drives",
                Json::obj(self.drives.iter().map(|d| {
                    (
                        d.name,
                        Json::obj([
                            ("p25", Json::Num(d.ns.p25)),
                            ("p50", Json::Num(d.ns.p50)),
                            ("calls", Json::Num(d.calls as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Failures and totals accumulated over a block's repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    wrong_ops: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.virt.attempted;
        self.wrong_ops += rep.virt.wrong_ops;
        for f in &rep.checks.failures {
            // One line per distinct failure: a broken invariant fails on
            // every repetition and would otherwise bury the rest.
            if !self.failures.contains(f) {
                self.failures.push(f.clone());
            }
        }
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

fn ops_per_s(rep: &Rep) -> f64 {
    rep.virt.attempted as f64 / (rep.timed_host_ns as f64 / 1e9)
}

/// Runs one repetition with the calibration loop timed right before and
/// right after it. Returns the repetition, the factor that turns its host
/// seconds into reference seconds, and the calibration reading used: the
/// faster of the two, because a calibration can be interrupted but cannot
/// run quicker than the machine.
fn calibrated(rep: impl FnOnce() -> Rep) -> (Rep, f64, f64) {
    let before = calibration_ns();
    let rep = rep();
    let cal = before.min(calibration_ns());
    (rep, CAL_REF_NS / cal, cal)
}

/// Runs the block `args` describes, at `size`.
pub fn run_block(args: &BlockArgs, size: &Size) -> BlockResult {
    let inputs = Inputs::from_seed(args.seed);
    if args.trace {
        traced_block(args, &inputs, size)
    } else {
        untraced_block(args, &inputs, size)
    }
}

fn untraced_block(args: &BlockArgs, inputs: &Inputs, size: &Size) -> BlockResult {
    let start = Instant::now();
    let mut tally = Tally::default();
    let (mut throughput, mut setup_s) = (Vec::new(), Vec::new());
    let mut first: Option<Virt> = None;
    let mut rss = None;
    while throughput.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let (rep, to_ref, _) =
            calibrated(|| workloads::run_rep(&args.workload, inputs, size, false));
        throughput.push(ops_per_s(&rep) / to_ref);
        setup_s.push(rep.setup_host_ns as f64 / 1e9 * to_ref);
        tally.add(&rep);
        // Same seed, same inputs: every repetition must reproduce the
        // first one's virtual section exactly.
        let reference = first.get_or_insert_with(|| rep.virt.clone());
        tally.require(*reference == rep.virt, || {
            "virtual section differs between repetitions of one block".into()
        });
        if throughput.len() == MIN_REPS {
            rss = peak_rss_mib();
        }
    }
    let tp = Summary::of(&throughput).expect("MIN_REPS repetitions ran");
    BlockResult {
        correct: tally.failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.wrong_ops + tally.failures.len() as u64,
        metrics: vec![
            ("host_ops_per_s", Some(tp.p75)),
            ("host_peak_rss_mb", rss),
            ("setup_s", Some(median(&setup_s))),
        ],
        failures: tally.failures,
        drives: Vec::new(),
    }
}

fn traced_block(args: &BlockArgs, inputs: &Inputs, size: &Size) -> BlockResult {
    let start = Instant::now();
    let watch = CpuWatch::start();
    let mut tally = Tally::default();
    let drives = layers::run_all();

    // Alternate untraced and traced repetitions for the rest of the time:
    // the pair gives the equality check and the tracing overhead.
    let (mut plain_s, mut traced_s, mut cal_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut throughput, mut raw_throughput) = (Vec::new(), Vec::new());
    let mut plain: Option<Rep> = None;
    let mut traced: Option<Rep> = None;
    while plain_s.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let (p, to_ref, cal) =
            calibrated(|| workloads::run_rep(&args.workload, inputs, size, false));
        cal_ns.push(cal);
        let t = workloads::run_rep(&args.workload, inputs, size, true);
        plain_s.push(p.timed_host_ns as f64 / 1e9);
        traced_s.push(t.timed_host_ns as f64 / 1e9);
        throughput.push(ops_per_s(&p) / to_ref);
        raw_throughput.push(ops_per_s(&p));
        tally.add(&p);
        tally.add(&t);
        tally.require(p.virt.without_latency() == t.virt.without_latency(), || {
            format!(
                "tracing changed the virtual section: untraced {:?}, traced {:?}",
                p.virt, t.virt
            )
        });
        plain.get_or_insert(p);
        // Keep one traced repetition (events and all); drop the rest.
        traced.get_or_insert(t);
    }
    let (plain, traced) = (
        plain.expect("three pairs ran"),
        traced.expect("three pairs ran"),
    );
    let summary = TraceSummary::of(&traced.events);
    tally.require(summary.unbalanced == 0, || {
        format!("{} unbalanced trace spans", summary.unbalanced)
    });
    if !traced.events.is_empty() {
        if let Err(e) = write_chrome_trace(&args.workload, &traced) {
            tally.failures.push(format!("Chrome trace: {e}"));
        }
    }

    let plain_q = Summary::of(&plain_s).expect("three pairs ran");
    let traced_q = Summary::of(&traced_s).expect("three pairs ran");
    let tp = Summary::of(&throughput).expect("three pairs ran");
    let mut metrics = virtual_metrics(&traced.virt);
    metrics.extend(traced_metrics(&traced, &summary));
    let cost = |name: &str| {
        drives
            .iter()
            .find(|d| d.name == name)
            .map_or(0.0, |d| d.ns.p25)
    };
    let explained = explained_host_ns(&args.workload, &plain.virt, &summary, &cost);
    metrics.extend([
        (
            "tar.write_host_ns_per_urb",
            phase_ns_per_op(&plain, "tar.write"),
        ),
        (
            "tar.read_host_ns_per_urb",
            phase_ns_per_op(&plain, "tar.read"),
        ),
        (
            "trace.host_overhead_share",
            (!traced.events.is_empty()).then(|| traced_q.p25 / plain_q.p25 - 1.0),
        ),
        (
            "bench.host_explained_share",
            (!traced.events.is_empty()).then(|| explained / (plain_q.p25 * 1e9)),
        ),
        ("bench.blocks", Some(plain_s.len() as f64)),
        ("bench.block_s_p50", Some(plain_q.p50)),
        ("bench.block_iqr_share", Some(tp.iqr_share())),
        ("bench.oncpu_share", watch.oncpu_share()),
        ("bench.cal_ns", Some(median(&cal_ns))),
        (
            "bench.raw_ops_per_s",
            Summary::of(&raw_throughput).map(|s| s.p75),
        ),
    ]);
    metrics.extend(drives.iter().map(|d| (d.name, Some(d.ns.p25))));
    assert!(
        metrics
            .iter()
            .map(|m| m.0)
            .eq(spec::per_layer().iter().map(|m| m.name)),
        "the block's metrics are the contract's, in order"
    );

    BlockResult {
        correct: tally.failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.wrong_ops + tally.failures.len() as u64,
        metrics,
        failures: tally.failures,
        drives,
    }
}

fn phase_ns_per_op(rep: &Rep, phase: &str) -> Option<f64> {
    rep.phases
        .iter()
        .find(|p| p.0 == phase)
        .map(|&(_, ns, ops)| ns as f64 / ops.max(1) as f64)
}

/// The virtual end-to-end section, in [`spec::VIRTUAL`] order.
pub fn virtual_metrics(v: &Virt) -> Vec<(&'static str, Option<f64>)> {
    let per_op = |n: Option<u64>| n.map(|n| n as f64 / v.attempted.max(1) as f64);
    let ns = |n: Option<u64>| n.map(|n| n as f64);
    vec![
        (
            "virt_ops_per_s",
            v.ops_per_s
                .or_else(|| v.elapsed_ns.map(|e| v.ops as f64 / (e.max(1) as f64 / 1e9))),
        ),
        ("virt_busy_ns_per_op", per_op(v.busy_ns)),
        ("virt_p50_ns", ns(v.p50_ns)),
        ("virt_p99_ns", ns(v.p99_ns)),
        ("crossings_per_op", per_op(v.crossings)),
        ("wire_bytes_per_op", per_op(v.wire_bytes)),
        ("bytes_copied_per_op", per_op(v.bytes_copied)),
        ("failed_ops_share", per_op(Some(v.failed_ops))),
        ("virt_init_ms", v.init_ns.map(|n| n as f64 / 1e6)),
        ("virt_rel_native_min", v.rel_native_min),
    ]
}

/// The exact part of the traced section, in [`spec::TRACED`] order (its
/// first 18 entries). All `None` on workloads whose kernels the benchmark
/// cannot reach (`overload_mix`, `table3` build theirs internally).
fn traced_metrics(rep: &Rep, s: &TraceSummary) -> Vec<(&'static str, Option<f64>)> {
    let have = !rep.events.is_empty();
    let ops = rep.virt.attempted.max(1) as f64;
    let per_op = |n: u64| have.then(|| n as f64 / ops);
    let layer = |name: &str| per_op(s.layer_self_ns(name));
    let share = |part: u64, whole: u64| (have && whole > 0).then(|| part as f64 / whole as f64);
    let busy = rep.virt.busy_ns.unwrap_or(0);
    vec![
        ("xpc.crossings_per_op", per_op(s.crossings)),
        ("xpc.tokens_per_op", per_op(s.tokens)),
        (
            "xpc.overlap_share",
            share(s.overlap_ns, s.overlap_ns + s.uncovered_ns),
        ),
        ("xpc.virt_self_ns_per_op", layer("xpc")),
        ("ring.posts_per_op", per_op(s.ring_posts)),
        ("ring.doorbells_per_op", per_op(s.doorbells)),
        (
            "ring.descs_per_doorbell",
            share(s.doorbell_descs, s.doorbells),
        ),
        ("ring.virt_self_ns_per_op", layer("ring")),
        ("pool.allocs_per_op", per_op(s.pool_allocs)),
        (
            "pool.refusals_per_op",
            rep.pool_refusals.map(|n| n as f64 / ops),
        ),
        ("pool.virt_self_ns_per_op", layer("pool")),
        ("kernel.timer_fires_per_op", per_op(s.timer_fires)),
        ("kernel.irqs_per_op", per_op(s.irqs)),
        ("kernel.work_items_per_op", per_op(s.work_items)),
        ("kernel.virt_self_ns_per_op", layer("kernel")),
        ("drivers.virt_self_ns_per_op", layer("drivers")),
        (
            "virt_unattributed_share",
            share(busy.saturating_sub(s.total_self_ns()), busy),
        ),
        ("trace.events_per_op", per_op(s.events)),
    ]
}

/// Σ unit cost × traced count: the host ns of one repetition that the
/// unit drives account for. Deliberately simple — one drive per counted
/// event, no drive counted twice — so the residual
/// (1 − `bench.host_explained_share`) is a to-do list, not a model.
fn explained_host_ns(
    workload: &str,
    v: &Virt,
    s: &TraceSummary,
    cost: &dyn Fn(&str) -> f64,
) -> f64 {
    let per_op_drive = match workload {
        // Every driver load slices its mini-C source again.
        "ctl_init" => cost("slicer.slice_all5_ns") / 5.0,
        "net_send_shard4" => cost("shmring.bufpool_write_free_ns"),
        "net_recv_poll" => cost("simdev.e1000_rx_inject_ns"),
        "tar_rw_shard4" => cost("shmring.urbset_submit_complete_ns"),
        _ => 0.0,
    };
    s.crossings as f64 * cost("xpc.call_inproc_ns") / 2.0
        + s.ring_posts as f64 * cost("shmring.ring_push_pop_ns")
        + s.pool_allocs as f64 * cost("shmring.sector_alloc_sg_free_ns")
        + s.timer_fires as f64 * cost("simkernel.timer_arm_fire_ns")
        + s.irqs as f64 * cost("simkernel.irq_dispatch_ns")
        + v.attempted as f64 * per_op_drive
}

/// Where traces and `run` documents go: `decaf_bench/` under the build
/// directory (`$CARGO_TARGET_DIR`, else `target`), relative to the
/// working directory — inside the checkout, and ignored by git.
pub fn artifact_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("decaf_bench")
}

/// Events the Chrome file holds at most: a full repetition is a million
/// events and 90 MB of JSON, which no viewer opens; the first 100,000 are
/// a few hundred packets or URBs end to end. The metrics above always
/// come from the whole repetition.
const CHROME_MAX_EVENTS: usize = 100_000;

/// The longest prefix of `events` within [`CHROME_MAX_EVENTS`] that ends
/// with no sync span open, so the file holds whole spans only.
fn closed_prefix(events: &[TraceEvent]) -> &[TraceEvent] {
    let (mut depth, mut cut) = (0usize, 0);
    for (i, ev) in events.iter().take(CHROME_MAX_EVENTS).enumerate() {
        match ev.phase {
            Phase::Begin => depth += 1,
            Phase::End => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth == 0 {
            cut = i + 1;
        }
    }
    &events[..cut]
}

/// Writes the start of the kept traced repetition as Chrome trace-event
/// JSON under the build directory and checks that it parses back.
fn write_chrome_trace(workload: &str, rep: &Rep) -> Result<(), String> {
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let events = closed_prefix(&rep.events);
    let json = chrome_trace_json(events);
    let written = validate_chrome_json(&json)?;
    if written != events.len() {
        return Err(format!(
            "{written} events validated, {} written",
            events.len()
        ));
    }
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}
