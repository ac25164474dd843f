//! Experiment runners for the paper's tables.

use crate::loadgen::{self, SplitMix64};
use decaf_drivers::{workloads, Build, DriverKind, Hosting, Loaded};
use decaf_shmring::{BufPool, DoorbellPolicy, ShmRing};
use decaf_simkernel::clock::ClockSnapshot;
use decaf_simkernel::decaf_trace::Tracer;
use decaf_simkernel::kernel::KernelStats;
use decaf_simkernel::{costs, CpuClass, Kernel};
use decaf_slicer::evolve::{self, NewField, Patch};
use decaf_slicer::{slice, SliceConfig, SlicePlan};
use decaf_xdr::XdrValue;
use decaf_xpc::{ChannelConfig, ChannelStats, DataPathChannel, Domain, ProcDef, XpcChannel};
use std::rc::Rc;

// ------------------------------------------------ The measurement window

/// Request-latency percentiles (ns) for one run, read back from the
/// run's tracer registry. All zeros when the run recorded no request
/// spans under the given key.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyPercentiles {
    /// Median request latency (ns).
    pub p50_ns: u64,
    /// 99th-percentile request latency (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile request latency (ns).
    pub p999_ns: u64,
}

impl LatencyPercentiles {
    /// Reads the percentiles of histogram `key` out of `tracer`.
    pub fn from_tracer(tracer: &Tracer, key: &str) -> Self {
        match tracer.registry().histogram(key) {
            Some(h) => LatencyPercentiles {
                p50_ns: h.p50(),
                p99_ns: h.p99(),
                p999_ns: h.p999(),
            },
            None => LatencyPercentiles::default(),
        }
    }
}

/// What one closed measurement window saw: everything the ablation rows
/// report about cost is read from here (DESIGN.md, "How a run is
/// measured").
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Busy virtual time charged inside the window, kernel + user (ns) —
    /// the serial model: one CPU does everything.
    pub busy_ns: u64,
    /// Busy time of the busiest shard inside the window (the critical
    /// path; 0 when nothing ran under a shard scope).
    pub shard_max_ns: u64,
    /// Busy time attributed to shards inside the window, summed.
    pub shard_sum_ns: u64,
    /// The parallel wall-clock estimate: serial (unattributed) work plus
    /// the critical-path shard. Equals `busy_ns` for an unsharded run;
    /// with N balanced shards the sharded portion divides by ~N.
    pub effective_ns: u64,
    /// Payload bytes CPU-copied inside the window.
    pub bytes_copied: u64,
    /// Channel counters since the baseline the window was opened with
    /// (`ring_occupancy_hwm`, a maximum, is the closing value).
    /// `descriptors_per_doorbell()` on it is therefore windowed too.
    pub channel: ChannelStats,
    /// Request-latency percentiles under the key the window closed with.
    pub lat: LatencyPercentiles,
}

/// One measurement window on a kernel: opened after set-up, closed after
/// the settle. It alone decides what "inside the run" means — busy time,
/// the per-shard split, copies, channel counters and request latencies
/// all share its two edges, so no row can mix intervals.
struct Window<'k> {
    kernel: &'k Kernel,
    tracer: Rc<Tracer>,
    clock: ClockSnapshot,
    shard_busy: Vec<u64>,
    stats: KernelStats,
    channel: ChannelStats,
}

impl<'k> Window<'k> {
    /// Opens the window. `channel` is the baseline the closing counters
    /// are reported against: the channel's counters now for a windowed
    /// report, `ChannelStats::default()` for a whole-run one.
    ///
    /// Installs the run's metrics-only tracer: it keeps histograms but
    /// no event buffer, and tracing never charges virtual time, so an
    /// instrumented run stays bit-identical to a bare one.
    fn open(kernel: &'k Kernel, channel: ChannelStats) -> Self {
        let tracer = Tracer::metrics_only();
        kernel.set_tracer(Some(Rc::clone(&tracer)));
        Window {
            kernel,
            tracer,
            clock: kernel.snapshot(),
            shard_busy: kernel.shard_busy_ns(),
            stats: kernel.stats(),
            channel,
        }
    }

    /// Closes the window against the channel counters `channel`, reading
    /// request latencies from histogram `lat_key`. Every measured run
    /// must also have kept the kernel's rules.
    fn close(self, channel: ChannelStats, lat_key: &str) -> Measured {
        let k = self.kernel;
        assert!(
            k.violations().is_empty(),
            "kernel-rule violations: {:?}",
            k.violations()
        );
        let now = k.snapshot();
        let busy_ns = self.clock.busy_since(&now, CpuClass::Kernel)
            + self.clock.busy_since(&now, CpuClass::User);
        let shard_busy: Vec<u64> = k
            .shard_busy_ns()
            .iter()
            .enumerate()
            .map(|(i, &ns)| ns - self.shard_busy.get(i).copied().unwrap_or(0))
            .collect();
        let shard_max_ns = shard_busy.iter().copied().max().unwrap_or(0);
        let shard_sum_ns = shard_busy.iter().sum::<u64>();
        Measured {
            busy_ns,
            shard_max_ns,
            shard_sum_ns,
            effective_ns: busy_ns.saturating_sub(shard_sum_ns) + shard_max_ns,
            bytes_copied: k.stats().since(&self.stats).bytes_copied,
            channel: channel.since(&self.channel),
            lat: LatencyPercentiles::from_tracer(&self.tracer, lat_key),
        }
    }
}

/// Megabits per second of `bytes` moved in `ns` of virtual time.
fn mbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / (ns as f64 / 1e9) / 1e6
}

/// One measured run: what was offered, and what the window around it
/// measured. Every runner that makes one run per row returns this, so a
/// quantity is called what [`Measured`] calls it whichever table prints
/// it; rows that compare two runs or carry a ledger of their own
/// ([`AsyncSweepRow`], [`RxModeSweepRow`], [`FragAblationRow`]) hold
/// their `Measured`s the same way.
#[derive(Debug, Clone)]
pub struct Run {
    /// Configuration label (`""` where the caller names the configuration).
    pub label: &'static str,
    /// Channels the build under test ran over.
    pub shards: usize,
    /// Operations completed inside the window: packets, data-bearing
    /// transfers, or configuration cycles.
    pub ops: u64,
    /// Payload bytes those operations moved (0 for a control-path run).
    pub payload_bytes: u64,
    /// What the window measured.
    pub m: Measured,
}

impl Run {
    /// Virtual-time throughput under the serial model: payload over
    /// `m.busy_ns`, one CPU doing everything.
    pub fn virtual_mbps(&self) -> f64 {
        mbps(self.payload_bytes, self.m.busy_ns)
    }

    /// Virtual-time throughput under the parallel wall model: payload
    /// over `m.effective_ns`, serial work plus the critical-path shard.
    pub fn effective_mbps(&self) -> f64 {
        mbps(self.payload_bytes, self.m.effective_ns)
    }
}

/// The synthetic single-channel rig the micro-ablations run on: the XDR
/// spec in `spec_src`, full masks, one nucleus↔decaf channel under
/// `config`.
fn synthetic_channel(spec_src: &str, config: ChannelConfig) -> Rc<XpcChannel> {
    let spec = decaf_xdr::XdrSpec::parse(spec_src).expect("ablation spec parses");
    Rc::new(XpcChannel::new(
        spec,
        decaf_xdr::mask::MaskSet::full(),
        config,
        Domain::Nucleus,
        Domain::Decaf,
    ))
}

/// Attaches a shmring data path to a synthetic channel and registers its
/// drain: the decaf-side doorbell handler `drain_proc` consumes every
/// posted descriptor, programs one device descriptor per frame and hands
/// the buffer back through the completion ring.
fn drained_path(
    ch: &Rc<XpcChannel>,
    drain_proc: &str,
    ring_slots: usize,
    pool: Option<Rc<BufPool>>,
    watermark: usize,
) -> Rc<DataPathChannel> {
    let dp = DataPathChannel::new(
        Rc::clone(ch),
        Domain::Nucleus,
        drain_proc,
        Rc::new(ShmRing::new(drain_proc, ring_slots)),
        Rc::new(ShmRing::new(format!("{drain_proc}-done"), 64)),
        pool,
        DoorbellPolicy::with_watermark(watermark),
    )
    .expect("datapath builds");
    let end = dp.end(Domain::Decaf);
    ch.register_proc(
        Domain::Decaf,
        ProcDef::scalar(drain_proc, move |k, _| {
            end.consume(k, |d| {
                k.charge(CpuClass::User, costs::DMA_DESC_NS);
                let _ = end.complete(k, d);
            });
            XdrValue::Void
        }),
    )
    .expect("register drain");
    dp
}

/// Registers `writel` on `domain`: a posted register write, result-free.
fn register_writel(ch: &XpcChannel, domain: Domain) {
    ch.register_proc(domain, ProcDef::scalar("writel", |_, _| XdrValue::Void))
        .expect("register writel");
}

/// The integer `field` of the decaf-side copy of `obj` (0 when absent).
fn decaf_int(ch: &XpcChannel, obj: decaf_xdr::graph::CAddr, field: &str) -> i32 {
    let heap = ch.heap(Domain::Decaf);
    let heap = heap.borrow();
    let value = heap.scalar(obj, field).ok();
    value.and_then(|v| v.as_int()).unwrap_or(0)
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1: a runtime component and its line count.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Component group ("Runtime support" / "DriverSlicer").
    pub group: &'static str,
    /// Component name.
    pub component: &'static str,
    /// Paper's line count for the corresponding component.
    pub paper_loc: usize,
    /// Our measured non-comment, non-blank line count. `0` marks "not
    /// measurable" — the binary ran somewhere the workspace sources are
    /// not present (an installed binary, a stripped container).
    pub measured_loc: usize,
}

/// Finds the workspace root: the ancestor of this crate's manifest dir
/// (falling back to the current directory) that holds both `Cargo.toml`
/// and `crates/`. `None` when the sources are not present at runtime.
fn workspace_root() -> Option<std::path::PathBuf> {
    let candidates = [
        Some(std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))),
        std::env::current_dir().ok(),
    ];
    for start in candidates.into_iter().flatten() {
        let mut dir = start;
        loop {
            if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
                return Some(dir);
            }
            if !dir.pop() {
                break;
            }
        }
    }
    None
}

/// Table 1's counting rule over one file's text: lines that are neither
/// blank nor comment, up to the first column-0 `#[cfg(test)]` — in this
/// workspace always the trailing test module, which is not product code.
/// A line starting with `*` is a block-comment continuation only as a
/// bare `*`, a `*/` or `* …` — `*total += n;` is a dereference, and code.
fn code_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| *l != "#[cfg(test)]")
        .map(str::trim)
        .filter(|l| {
            let comment = l.starts_with("//")
                || l.starts_with("/*")
                || *l == "*"
                || l.starts_with("*/")
                || l.starts_with("* ");
            !l.is_empty() && !comment
        })
        .count()
}

/// The files `text` mounts with `#[cfg(test)] #[path = "…"] mod …;` —
/// test modules kept in a file of their own, named relative to the
/// mounting file.
fn test_only_files(text: &str) -> impl Iterator<Item = &str> {
    let after_cfg_test = text.split("#[cfg(test)]\n").skip(1);
    after_cfg_test.filter_map(|rest| rest.strip_prefix("#[path = \"")?.split('"').next())
}

/// Counts non-comment, non-blank, non-test Rust lines under `dir`
/// (relative to the workspace root). Returns 0 — the
/// [`Table1Row::measured_loc`] "not measurable" marker — rather than
/// panicking when the sources are absent.
fn count_loc(dir: &str) -> usize {
    fn walk(path: &std::path::Path, files: &mut Vec<(std::path::PathBuf, String)>) {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = std::fs::read_to_string(&p) {
                    files.push((p, text));
                }
            }
        }
    }
    let Some(root) = workspace_root() else {
        return 0;
    };
    let mut files = Vec::new();
    walk(&root.join(dir), &mut files);
    let test_only: Vec<_> = files
        .iter()
        .flat_map(|(p, text)| test_only_files(text).map(|name| p.with_file_name(name)))
        .collect();
    files
        .iter()
        .filter(|(p, _)| !test_only.contains(p))
        .map(|(_, text)| code_lines(text))
        .sum()
}

/// Table 1's rows: group, component, the paper's line count for the
/// corresponding component, and the source directories we count for it.
const TABLE1: [(&str, &str, usize, &[&str]); 8] = [
    (
        "Runtime support",
        "cross-language helpers (xdr crate; paper: Jeannie helpers)",
        1976,
        &["crates/xdr/src"],
    ),
    (
        "Runtime support",
        "XPC runtime, user+kernel (xpc crate)",
        2673 + 4661,
        &["crates/xpc/src"],
    ),
    (
        "Runtime support",
        "shared-memory ring subsystem (shmring crate; this repo only)",
        0,
        &["crates/shmring/src"],
    ),
    (
        "DriverSlicer",
        "slicer front end + analyses (paper: CIL OCaml + Python)",
        12_465 + 1276,
        &["crates/slicer/src"],
    ),
    (
        "Substrate (this repo only)",
        "simulated kernel",
        0,
        &["crates/simkernel/src"],
    ),
    (
        "Substrate (this repo only)",
        "device models",
        0,
        &["crates/simdev/src"],
    ),
    (
        "Substrate (this repo only)",
        "evaluation harness (core + bench crates)",
        0,
        &["crates/core/src", "crates/bench/src"],
    ),
    (
        "Drivers",
        "five drivers, native + decaf + mini-C",
        0,
        &["crates/drivers/src"],
    ),
];

/// Regenerates Table 1: the size of the Decaf runtime components.
///
/// The paper reports 9,310 lines of runtime support and 14,113 lines of
/// DriverSlicer; we report our crate sizes grouped the same way.
pub fn table1() -> Vec<Table1Row> {
    TABLE1
        .iter()
        .map(|&(group, component, paper_loc, dirs)| Table1Row {
            group,
            component,
            paper_loc,
            measured_loc: dirs.iter().map(|d| count_loc(d)).sum(),
        })
        .collect()
}

// ---------------------------------------------------------------- Table 2

/// One row of Table 2: a driver sliced into its components.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Driver name.
    pub name: &'static str,
    /// Device type.
    pub device_type: &'static str,
    /// Lines of mini-C source.
    pub loc: usize,
    /// DriverSlicer annotations.
    pub annotations: usize,
    /// Functions in the driver nucleus.
    pub nucleus_funcs: usize,
    /// Lines in the driver nucleus.
    pub nucleus_loc: usize,
    /// Functions in the driver library.
    pub library_funcs: usize,
    /// Lines in the driver library.
    pub library_loc: usize,
    /// Functions in the decaf driver.
    pub decaf_funcs: usize,
    /// Lines in the decaf driver.
    pub decaf_loc: usize,
}

impl Table2Row {
    /// Fraction of functions that moved out of the kernel.
    pub fn user_fraction(&self) -> f64 {
        let total = self.nucleus_funcs + self.library_funcs + self.decaf_funcs;
        if total == 0 {
            return 0.0;
        }
        (self.library_funcs + self.decaf_funcs) as f64 / total as f64
    }
}

/// Regenerates Table 2 by running DriverSlicer over all five drivers.
pub fn table2() -> Vec<Table2Row> {
    DriverKind::all()
        .into_iter()
        .map(|kind| {
            let plan = slice(kind.minic_source(), &SliceConfig::default())
                .expect("driver sources must slice");
            Table2Row {
                name: kind.name(),
                device_type: kind.device_type(),
                loc: plan.loc.total,
                annotations: plan.annotations,
                nucleus_funcs: plan.kernel_fns.len(),
                nucleus_loc: plan.loc.kernel,
                library_funcs: plan.library_fns.len(),
                library_loc: plan.loc.library,
                decaf_funcs: plan.decaf_fns.len(),
                decaf_loc: plan.loc.decaf,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Table 3

/// One row of Table 3: a workload on one driver, native vs decaf.
#[derive(Debug, Clone, Default)]
pub struct Table3Row {
    /// Driver name.
    pub driver: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Decaf throughput / native throughput (1.00 = parity).
    pub relative_perf: f64,
    /// Native CPU utilization.
    pub cpu_native: f64,
    /// Decaf CPU utilization.
    pub cpu_decaf: f64,
    /// Native `insmod` latency (virtual seconds).
    pub init_native_s: f64,
    /// Decaf `insmod` latency (virtual seconds).
    pub init_decaf_s: f64,
    /// User/kernel round trips during initialization (decaf build).
    pub init_crossings: u64,
    /// Marshaled bytes into the decaf driver during initialization —
    /// with delta marshaling these undercut the seed's per-call
    /// re-marshaling.
    pub init_bytes_in: u64,
    /// Deferred calls the batched transport carried across during
    /// initialization (each flush of many calls cost one round trip).
    pub init_batched_calls: u64,
    /// Decaf-driver invocations during the workload.
    pub workload_invocations: u64,
    /// Data-path doorbells rung during the workload (shmring rows only).
    pub doorbells: u64,
    /// Average descriptors carried per doorbell (shmring rows only).
    pub descs_per_doorbell: f64,
    /// Data-path ring occupancy high-water mark (shmring rows only).
    pub ring_occupancy_hwm: u64,
}

/// Workload scale: virtual seconds per run (the paper runs 600 s; the
/// shape is identical at this scale and the suite stays fast).
pub const NET_SECONDS: u32 = 2;
/// Packets per second offered to the gigabit driver.
pub const E1000_PPS: u32 = 4_000;
/// Packets per second offered to the fast-ethernet driver.
pub const RTL_PPS: u32 = 2_000;

/// How a Table 3 cell drives its device: the workload and its scale.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    /// `netperf` send: (seconds, packets per second, bytes per packet).
    NetSend(u32, u32, usize),
    /// `netperf` receive, a peer injecting frames: same scale triple.
    NetRecv(u32, u32, usize),
    /// `mpg123` playback: (seconds).
    Mpg123(u32),
    /// `tar` onto the flash drive: (files, sectors per file).
    Tar(u32, u32),
    /// Mouse move-and-click: (seconds, events per second).
    MoveAndClick(u32, u32),
}

/// Which decaf/native ratio a cell reports as "relative performance".
#[derive(Clone, Copy)]
enum Perf {
    /// Payload bytes per unit of virtual time (paced bulk workloads).
    Throughput,
    /// Operations completed (packets received, frames played, events).
    Ops,
}

impl Perf {
    fn ratio(self, decaf: &workloads::WorkloadStats, native: &workloads::WorkloadStats) -> f64 {
        match self {
            Perf::Throughput => {
                (decaf.bytes as f64 / decaf.elapsed_ns as f64)
                    / (native.bytes as f64 / native.elapsed_ns as f64)
            }
            Perf::Ops => decaf.ops as f64 / native.ops.max(1) as f64,
        }
    }
}

/// What pushes input at a loaded device model — the peer on the wire,
/// the hand on the mouse.
enum Input {
    /// Nothing: the workload drives the device through the kernel alone.
    None,
    Frames(Box<InjectFrame>),
    Mouse(Box<InjectMove>),
}

/// Injects one received frame into a NIC model.
type InjectFrame = dyn Fn(&Kernel, &[u8]);
/// Injects one (dx, dy, left button) event into the mouse model.
type InjectMove = dyn Fn(&Kernel, i8, i8, bool);

/// One build of one driver loaded on its own fresh kernel, reduced to
/// what Table 3 reads from it.
struct Side {
    kind: DriverKind,
    kernel: Kernel,
    /// The name the driver registered its device under.
    name: &'static str,
    /// Measured `insmod` latency (virtual seconds).
    init_s: f64,
    input: Input,
    /// A split build's nuclear runtime, which holds its control channel.
    split: Option<Rc<decaf_xpc::NuclearRuntime>>,
}

impl Side {
    /// Decaf-driver invocations so far. For the e1000 that is the nuclear
    /// runtime's upcall count: its upcalls make downcalls over the same
    /// channel, so round trips would overcount. For the rest it is the
    /// channel's round trips: their kernel-side ops may call the decaf
    /// driver on the channel directly, past the runtime's counter.
    fn invocations(&self) -> u64 {
        match (&self.split, self.kind) {
            (Some(nuc), DriverKind::E1000) => nuc.decaf_invocations(),
            (Some(nuc), _) => nuc.channel().stats().round_trips,
            (None, _) => 0,
        }
    }
}

/// `insmod`s `build` on a fresh kernel and brings it to the state the
/// paper's runs start from (a NIC is opened).
fn load(build: Build) -> Side {
    use decaf_simdev::{e1000::E1000Device, psmouse::PsMouseDevice, rtl8139::Rtl8139Device};
    use std::any::Any;
    use std::cell::{RefCell, RefMut};
    use DriverKind as K;

    /// The device model behind a loaded build's erased handle.
    fn model<D: 'static>(dev: &RefCell<dyn Any>) -> RefMut<'_, D> {
        RefMut::map(dev.borrow_mut(), |d| d.downcast_mut().expect("its device"))
    }
    fn frames<D: 'static>(dev: Rc<RefCell<dyn Any>>, inject: fn(&mut D, &Kernel, &[u8])) -> Input {
        Input::Frames(Box::new(move |k, f| inject(&mut model(&dev), k, f)))
    }

    let kind = build.driver;
    let kernel = Kernel::new();
    let name = match kind {
        K::Rtl8139 | K::E1000 => "eth0",
        K::Ens1371 => "card0",
        K::UhciHcd => "uhci0",
        K::Psmouse => "mouse0",
    };
    let d = decaf_drivers::install(&kernel, name, build).expect("Table 3 driver loads");
    let dev = d.dev();
    let input = match kind {
        K::Rtl8139 => frames(dev, Rtl8139Device::inject_rx),
        K::E1000 => frames(dev, E1000Device::inject_rx),
        K::Psmouse => Input::Mouse(Box::new(move |k, dx, dy, b| {
            model::<PsMouseDevice>(&dev).inject_move(k, dx, dy, b)
        })),
        K::Ens1371 | K::UhciHcd => Input::None,
    };
    if matches!(kind, K::Rtl8139 | K::E1000) {
        kernel.netdev_open(name).expect("interface opens");
        kernel.schedule_point();
    }
    Side {
        kind,
        kernel,
        name,
        init_s: d.init_latency_ns() as f64 / 1e9,
        input,
        split: d.nuc().cloned(),
    }
}

/// Runs one workload on a loaded side.
fn drive(side: &Side, how: Drive) -> workloads::WorkloadStats {
    let (k, name) = (&side.kernel, side.name);
    match (how, &side.input) {
        (Drive::NetSend(s, pps, len), _) => workloads::netperf_send(k, name, s, pps, len),
        (Drive::NetRecv(s, pps, len), Input::Frames(inject)) => {
            workloads::netperf_recv(k, name, s, pps, len, inject)
        }
        (Drive::Mpg123(s), _) => workloads::mpg123(k, name, s),
        (Drive::Tar(files, sectors), _) => workloads::tar_to_flash(k, name, files, sectors),
        (Drive::MoveAndClick(s, rate), Input::Mouse(inject)) => {
            workloads::move_and_click(k, name, s, rate, inject)
        }
        (d, _) => panic!("{d:?} needs an input {name}'s device does not take"),
    }
    .expect("Table 3 workload runs")
}

/// One load of Table 3 — a driver's native build and one split build,
/// each on a fresh kernel — and the cells measured on that pair in order
/// (the paper loads once and runs netperf send, then receive).
struct Table3Load {
    /// The split build under test; a shmring build's rows carry the
    /// ring columns.
    build: Build,
    /// (workload name, how to drive it, which ratio is relative perf).
    cells: &'static [(&'static str, Drive, Perf)],
}

const RTL_SEND: Drive = Drive::NetSend(NET_SECONDS, RTL_PPS, 1500);
const RTL_RECV: Drive = Drive::NetRecv(NET_SECONDS, RTL_PPS, 1500);
const E1000_SEND: Drive = Drive::NetSend(NET_SECONDS, E1000_PPS, 1500);
const E1000_RECV: Drive = Drive::NetRecv(NET_SECONDS, E1000_PPS, 1500);

/// Table 3, in printed order.
const TABLE3: [Table3Load; 8] = [
    Table3Load {
        build: Build::new(DriverKind::Rtl8139, Hosting::Decaf),
        cells: &[
            ("netperf-send", RTL_SEND, Perf::Throughput),
            ("netperf-recv", RTL_RECV, Perf::Ops),
        ],
    },
    Table3Load {
        build: Build::new(DriverKind::E1000, Hosting::Decaf),
        cells: &[
            ("netperf-send", E1000_SEND, Perf::Throughput),
            ("netperf-recv", E1000_RECV, Perf::Ops),
        ],
    },
    // UDP with 1-byte messages (§4.2 extra).
    Table3Load {
        build: Build::new(DriverKind::E1000, Hosting::Decaf),
        cells: &[("udp-1-byte", Drive::NetSend(1, E1000_PPS, 1), Perf::Ops)],
    },
    Table3Load {
        build: Build::new(DriverKind::Ens1371, Hosting::Decaf),
        cells: &[("mpg123", Drive::Mpg123(2), Perf::Ops)],
    },
    Table3Load {
        build: Build::new(DriverKind::UhciHcd, Hosting::Decaf),
        cells: &[("tar", Drive::Tar(8, 32), Perf::Throughput)],
    },
    Table3Load {
        build: Build::new(DriverKind::Psmouse, Hosting::Decaf),
        cells: &[("move-and-click", Drive::MoveAndClick(2, 100), Perf::Ops)],
    },
    // The user-level data path, against the same native netperf runs.
    Table3Load {
        build: Build::new(DriverKind::E1000, Hosting::Shmring),
        cells: &[("netperf-send/shm", E1000_SEND, Perf::Throughput)],
    },
    Table3Load {
        build: Build::new(DriverKind::Rtl8139, Hosting::Shmring),
        cells: &[("netperf-send/shm", RTL_SEND, Perf::Throughput)],
    },
];

/// A native build's results for a sequence of drives on one fresh load.
struct NativeRun {
    kind: DriverKind,
    drives: Vec<Drive>,
    init_s: f64,
    stats: Vec<workloads::WorkloadStats>,
}

/// Regenerates the Table 3 rows for every driver and workload: one cell
/// runner over the `TABLE3` cell list.
pub fn table3() -> Vec<Table3Row> {
    // Native runs made so far in this call. What a fresh load reports for
    // its first k drives does not depend on what follows them, so a load
    // whose drives are a prefix of an earlier run of the same driver
    // reads that run instead of repeating it (the `/shm` rows).
    let mut natives: Vec<NativeRun> = Vec::new();
    let mut rows = Vec::new();
    for t in &TABLE3 {
        let (kind, cells) = (t.build.driver, t.cells);
        let drives: Vec<Drive> = cells.iter().map(|c| c.1).collect();
        let measured = natives
            .iter()
            .position(|n| n.kind == kind && n.drives.starts_with(&drives));
        let measured = measured.unwrap_or_else(|| {
            let side = load(Build::new(kind, Hosting::Native));
            natives.push(NativeRun {
                kind,
                stats: drives.iter().map(|&d| drive(&side, d)).collect(),
                drives,
                init_s: side.init_s,
            });
            natives.len() - 1
        });
        let native = &natives[measured];

        let side = load(t.build);
        let channel = side.split.as_ref().expect("a split build").channel();
        let init = channel.stats();
        for (&(workload, how, perf), n) in cells.iter().zip(&native.stats) {
            let before = side.invocations();
            let d = drive(&side, how);
            // Ring columns: let the last coalesced doorbell land, then
            // read the data path's whole-run counters.
            let ring = if t.build.hosting == Hosting::Shmring {
                side.kernel.run_for(2 * costs::DOORBELL_COALESCE_NS);
                channel.stats()
            } else {
                ChannelStats::default()
            };
            rows.push(Table3Row {
                driver: kind.name(),
                workload,
                relative_perf: perf.ratio(&d, n),
                cpu_native: n.cpu_util,
                cpu_decaf: d.cpu_util,
                init_native_s: native.init_s,
                init_decaf_s: side.init_s,
                init_crossings: init.round_trips,
                init_bytes_in: init.bytes_in,
                init_batched_calls: init.batched_calls,
                workload_invocations: side.invocations() - before,
                doorbells: ring.doorbells,
                descs_per_doorbell: ring.descriptors_per_doorbell(),
                ring_occupancy_hwm: ring.ring_occupancy_hwm,
            });
        }
    }
    rows
}

// ------------------------------------------------- Data-path ablation

/// Which mechanism hosts the user-level data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPathKind {
    /// Per-packet synchronous crossing; the payload is marshaled by
    /// value — the naive way to host the data path at user level.
    Copy,
    /// Crossings batch (many packets, one round trip) but the payload
    /// still marshals by value.
    BatchedCopy,
    /// The shmring subsystem: payload written once into the shared pool,
    /// descriptors ride the ring, doorbells coalesce.
    Shmring,
}

/// Packets per ablation run.
pub const DATAPATH_PKTS: u32 = 200;
/// Payload bytes per packet (an MTU-sized frame).
pub const DATAPATH_PKT_LEN: usize = 1500;
/// In-flight packet objects the copy paths cycle through (each packet is
/// its own skb — delta marshaling cannot elide a payload rewritten on
/// every reuse).
const DATAPATH_INFLIGHT: usize = 16;

impl DataPathKind {
    /// The three hostings, in the order the ablations print them.
    const ALL: [DataPathKind; 3] = [
        DataPathKind::Copy,
        DataPathKind::BatchedCopy,
        DataPathKind::Shmring,
    ];
}

/// Runs `packets` MTU-sized frames through one user-level data-path
/// mechanism and reports what crossed, what copied, and what it cost.
/// `m.bytes_copied` is the audit counter: identical across hostings,
/// because the ablation varies *marshaling*, not copying; what the
/// shmring path eliminates is `m.channel.bytes_in + bytes_out`.
pub fn datapath_run(kind: DataPathKind, packets: u32) -> Run {
    let kernel = Kernel::new();
    let (label, config) = match kind {
        DataPathKind::Copy => ("copy (per-packet marshal)", ChannelConfig::kernel_user()),
        DataPathKind::BatchedCopy => (
            "batched-copy (marshal)",
            ChannelConfig::kernel_user_batched(),
        ),
        DataPathKind::Shmring => (
            "shmring (descriptors)",
            ChannelConfig::kernel_user_shmring(),
        ),
    };
    let ch = synthetic_channel(
        &format!("struct pkt {{ int len; opaque payload[{DATAPATH_PKT_LEN}]; }};"),
        config,
    );
    let window = Window::open(&kernel, ch.stats());

    if kind == DataPathKind::Shmring {
        // The consumer is a user-level transmit handler reading payloads
        // in place out of the shared pool.
        let pool =
            BufPool::with_capacity(DATAPATH_PKT_LEN.next_power_of_two(), DATAPATH_INFLIGHT * 2);
        let dp = drained_path(
            &ch,
            "xmit_drain",
            32,
            Some(Rc::new(pool)),
            DATAPATH_INFLIGHT,
        );
        let frame = vec![0x5au8; DATAPATH_PKT_LEN];
        for i in 0..packets {
            kernel.trace_req_begin("op_ns", i as u64);
            dp.send(&kernel, &frame, i as u64).expect("send");
            kernel.trace_req_end("op_ns", i as u64);
        }
        dp.ring_doorbell(&kernel).expect("final doorbell");
        dp.reclaim_completions(&kernel);
    } else {
        // The payload crosses by value: the handler receives the bytes
        // through the marshaler, then copies them into the device buffer
        // (the same single device-bound copy the shmring pool performs).
        ch.register_proc(
            Domain::Decaf,
            ProcDef::entry("xmit_pkt", ["pkt"], |k, ch, args, _| {
                let Some(p) = args[0] else {
                    return XdrValue::Int(-22);
                };
                k.charge_copy(CpuClass::User, decaf_int(ch, p, "len") as u64);
                k.charge(CpuClass::User, costs::DMA_DESC_NS);
                XdrValue::Int(0)
            }),
        )
        .expect("register xmit_pkt");
        let heap = ch.heap(Domain::Nucleus);
        let ring: Vec<_> = (0..DATAPATH_INFLIGHT)
            .map(|_| {
                heap.borrow_mut()
                    .alloc_default("pkt", ch.spec())
                    .expect("alloc pkt")
            })
            .collect();
        for i in 0..packets {
            let obj = ring[i as usize % DATAPATH_INFLIGHT];
            {
                let mut h = heap.borrow_mut();
                h.set_scalar(obj, "len", XdrValue::Int(DATAPATH_PKT_LEN as i32))
                    .expect("set len");
                h.set_scalar(
                    obj,
                    "payload",
                    XdrValue::Opaque(vec![(i & 0xff) as u8; DATAPATH_PKT_LEN]),
                )
                .expect("set payload");
            }
            kernel.trace_req_begin("op_ns", i as u64);
            match kind {
                DataPathKind::Copy => {
                    ch.call(&kernel, Domain::Nucleus, "xmit_pkt", &[Some(obj)], &[])
                        .expect("xmit_pkt");
                }
                _ => {
                    ch.call_deferred(&kernel, Domain::Nucleus, "xmit_pkt", &[Some(obj)], &[])
                        .expect("defer xmit_pkt");
                }
            }
            kernel.trace_req_end("op_ns", i as u64);
        }
        ch.flush(&kernel).expect("final flush");
    }

    Run {
        label,
        shards: 1,
        ops: packets as u64,
        payload_bytes: packets as u64 * DATAPATH_PKT_LEN as u64,
        m: window.close(ch.stats(), "op_ns"),
    }
}

/// Regenerates the data-path ablation: copy vs batched-copy vs shmring
/// on the same offered packet stream. The scale story of the shmring
/// subsystem: the first configuration where hosting the hot path at
/// user level is cheaper than moving the bytes.
pub fn datapath_ablation() -> Vec<Run> {
    DataPathKind::ALL
        .into_iter()
        .map(|kind| datapath_run(kind, DATAPATH_PKTS))
        .collect()
}

// --------------------------------------------------- Storage ablation

/// Files the storage ablation archives each way.
pub const STORAGE_FILES: u32 = 2;
/// Sectors per archived file (one `tar` burst).
pub const STORAGE_SECTORS_PER_FILE: u32 = 16;

/// Runs the `tar` write + streaming-read pair over `luns` LUNs of
/// `uhci0` and returns (completed data-bearing transfers, payload bytes
/// moved), having checked what every hosting must uphold: each sector
/// written and read back, and reads returning exactly what writes stored.
fn tar_pair(k: &Kernel, luns: u32, files: u32, sectors_per_file: u32) -> (u64, u64) {
    let w =
        workloads::tar_to_flash_luns(k, "uhci0", luns, files, sectors_per_file).expect("tar write");
    let r = workloads::tar_from_flash_luns(k, "uhci0", luns, files, sectors_per_file)
        .expect("tar streaming read");
    let sectors = (luns * files * sectors_per_file) as u64;
    assert_eq!(w.ops, sectors, "every sector of every LUN written");
    assert_eq!(r.ops, sectors, "every sector of every LUN read back");
    assert_eq!(r.bytes, w.bytes, "reads return exactly what writes stored");
    (w.ops + r.ops, w.bytes + r.bytes)
}

/// Runs the `tar` write + streaming-read pair over one uhci user-level
/// data-path hosting and reports what crossed, what copied, and what it
/// cost; `ops` counts completed data-bearing transfers (write sectors +
/// read sectors). Unlike the NIC ablation — where every hosting pays the
/// same one copy into the DMA pool — sector-granular payloads are
/// page-shaped, so the shmring build *adopts* them (page donation) and
/// `m.bytes_copied` drops to zero: descriptor traffic only.
pub fn storage_run(kind: DataPathKind) -> Run {
    let (label, hosting) = match kind {
        DataPathKind::Copy => ("copy (per-URB marshal)", Hosting::Copy),
        DataPathKind::BatchedCopy => ("batched-copy (marshal)", Hosting::BatchedCopy),
        DataPathKind::Shmring => (
            "shmring (descriptors)",
            Hosting::ShardedUrb(1, decaf_shmring::AllocMode::default()),
        ),
    };
    let k = Kernel::new();
    let build = Build::new(DriverKind::UhciHcd, hosting);
    let (channel, urb_path) = match decaf_drivers::install(&k, "uhci0", build) {
        Ok(Loaded::ValueUhci(d)) => (d.channel, None),
        Ok(Loaded::ShardedUhci(d)) => (Rc::clone(d.channels.shard(0)), Some(d.urb_path)),
        _ => panic!("{build:?} does not install as a user-level URB path"),
    };

    let window = Window::open(&k, channel.stats());
    let (ops, payload_bytes) = tar_pair(&k, 1, STORAGE_FILES, STORAGE_SECTORS_PER_FILE);
    // End-of-run barrier: flush parked deferred OUT URBs, let the last
    // coalesced doorbells and givebacks land.
    let _ = channel.flush(&k);
    k.run_for(2 * costs::DOORBELL_COALESCE_NS);
    let m = window.close(channel.stats(), "tar.urb_ns");

    if let Some(path) = &urb_path {
        assert!(path.conserved(), "URB conservation violated");
        assert_eq!(path.set().pool().in_use_sectors(), 0, "sector runs leaked");
        assert_eq!(
            m.bytes_copied, 0,
            "shmring bulk payloads must never be CPU-copied"
        );
    }
    Run {
        label,
        shards: 1,
        ops,
        payload_bytes,
        m,
    }
}

/// Regenerates the storage data-path ablation: copy vs batched-copy vs
/// shmring on the same `tar` write + streaming-read pair. Storage joins
/// netperf in the data-path story — and goes one step further: because
/// sector payloads are page-granular, the shmring build adopts them
/// instead of copying, so `bytes_copied` drops to zero outright.
pub fn storage_ablation() -> Vec<Run> {
    DataPathKind::ALL.into_iter().map(storage_run).collect()
}

// --------------------------------------------- Fragmentation ablation

/// Pool-pressure points (% of the pool pinned as scattered singles).
pub const FRAG_PRESSURES: [usize; 5] = [0, 25, 50, 75, 90];
/// Multi-sector write attempts per cell.
pub const FRAG_ATTEMPTS: usize = 24;

/// One cell of the fragmentation ablation: a pool-allocation mode under
/// one adversarial pressure point.
#[derive(Debug, Clone)]
pub struct FragAblationRow {
    /// Allocation-mode label.
    pub label: &'static str,
    /// Percent of the pool pinned as scattered single sectors.
    pub pressure: usize,
    /// Multi-sector write URBs attempted.
    pub attempts: u64,
    /// Attempts refused at submission (`usb_submit_urb` returned busy
    /// after the reclaim-and-retry).
    pub failures: u64,
    /// Attempts whose completion came home with status 0.
    pub completed: u64,
    /// Pool refusals issued while free bytes sufficed (retries
    /// included) — the counter the buddy+SG mode must hold at zero.
    pub frag_refusals: u64,
    /// Pool refusals issued with genuinely too few free sectors.
    pub exhausted: u64,
    /// Payload bytes landed on flash by completed writes.
    pub payload_bytes: u64,
    /// What the window around the attempts measured (every mode adopts:
    /// `m.bytes_copied` must be zero).
    pub m: Measured,
}

impl FragAblationRow {
    /// Fraction of attempts refused.
    pub fn failure_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.failures as f64 / self.attempts as f64
    }

    /// Virtual-time throughput of the writes that did complete.
    pub fn virtual_mbps(&self) -> f64 {
        mbps(self.payload_bytes, self.m.busy_ns)
    }
}

/// Runs one fragmentation cell: install the shmring uhci build with the
/// given pool [`decaf_shmring::AllocMode`], pin `pressure`% of the sector pool as
/// *scattered* single-sector chains (allocate every sector as a single,
/// free the evenly-spread rest — the adversarial schedule that defeats
/// any contiguity-requiring allocator while leaving plenty of free
/// bytes), then attempt a burst of multi-sector flash writes and report
/// who refused what.
pub fn frag_run(mode: decaf_shmring::AllocMode, pressure: usize) -> FragAblationRow {
    use decaf_simdev::uhci as hwreg;
    use decaf_simkernel::usb::{Urb, UrbDir};
    use std::cell::Cell;

    let label = match mode {
        decaf_shmring::AllocMode::FirstFit => "first-fit",
        decaf_shmring::AllocMode::Buddy => "buddy",
        decaf_shmring::AllocMode::BuddySg => "buddy+SG",
    };
    let k = Kernel::new();
    let build = Build::new(DriverKind::UhciHcd, Hosting::ShardedUrb(1, mode));
    let Ok(Loaded::ShardedUhci(drv)) = decaf_drivers::install(&k, "uhci0", build) else {
        panic!("shmring uhci installs");
    };
    let pool = drv.urb_path.set().pool();

    // Adversarial pinning: every sector leaves the pool as a
    // single-sector chain, then the evenly-spread complement comes back
    // — what remains free is singles scattered across the whole map.
    let total = pool.capacity_sectors();
    let singles: Vec<_> = (0..total)
        .map(|_| pool.alloc_sg(1).expect("fresh pool hands out every sector"))
        .collect();
    // Integer-exact even spreading: sector `i` stays pinned when the
    // cumulative pin quota crosses an integer at `i`.
    let keep = |i: usize| (i * pressure) / 100 != ((i + 1) * pressure) / 100;
    let mut still_pinned = Vec::new();
    for (i, h) in singles.into_iter().enumerate() {
        if keep(i) {
            still_pinned.push(h);
        } else {
            pool.free_sg(h).expect("pinning frees its own chains");
        }
    }

    let stats_before = pool.stats();
    let window = Window::open(&k, drv.channels.stats());

    // The workload: multi-sector flash writes whose command spans three
    // pool sectors — trivially satisfied by a fresh pool, impossible for
    // a contiguity-requiring allocator once the free map is singles.
    let payload_len = 3 * hwreg::SECTOR_SIZE - 36;
    let completed = Rc::new(Cell::new(0u64));
    let mut failures = 0u64;
    for t in 0..FRAG_ATTEMPTS {
        let mut data = vec![hwreg::FLASH_CMD_WRITE];
        data.extend_from_slice(&(t as u32).to_le_bytes());
        data.extend((0..payload_len).map(|i| (t as u8) ^ (i as u8).wrapping_mul(31)));
        let c = Rc::clone(&completed);
        let submitted = k.usb_submit_urb(
            "uhci0",
            Urb {
                endpoint: hwreg::EP_BULK_OUT as u8,
                dir: UrbDir::Out,
                data,
            },
            Rc::new(move |_, r| {
                if r.is_ok() {
                    c.set(c.get() + 1);
                }
            }),
        );
        if submitted.is_err() {
            failures += 1;
        }
        // Let completions land and their chains come home before the
        // next attempt: the pressure point stays a property of the
        // pinning, not of in-flight depth.
        k.run_for(2 * costs::DOORBELL_COALESCE_NS);
    }
    let _ = drv.channels.flush_all(&k);
    k.run_for(2 * costs::DOORBELL_COALESCE_NS);
    // The attempts are bare URBs, not requests: no latency key to read.
    let m = window.close(drv.channels.stats(), "");

    let stats = pool.stats().since(&stats_before);
    let completed = completed.get();
    assert_eq!(
        completed + failures,
        FRAG_ATTEMPTS as u64,
        "{label}@{pressure}%: every attempt either completed or was refused"
    );
    assert_eq!(
        m.bytes_copied, 0,
        "{label}@{pressure}%: adopted payloads must never be CPU-copied"
    );
    assert!(
        drv.urb_path.conserved(),
        "{label}@{pressure}%: conservation"
    );
    assert_eq!(
        pool.in_use_sectors(),
        still_pinned.len(),
        "{label}@{pressure}%: only the pinned singles stay in use"
    );
    for h in still_pinned {
        pool.free_sg(h).expect("pinned chains stay live to the end");
    }
    assert!(pool.conserved(), "{label}@{pressure}%: pool conservation");
    assert_eq!(pool.in_use_sectors(), 0, "{label}@{pressure}%: no leak");

    FragAblationRow {
        label,
        pressure,
        attempts: FRAG_ATTEMPTS as u64,
        failures,
        completed,
        frag_refusals: stats.frag_refusals,
        exhausted: stats.exhausted,
        payload_bytes: completed * payload_len as u64,
        m,
    }
}

/// Regenerates the fragmentation ablation: first-fit vs buddy vs
/// buddy + scatter-gather across the pressure sweep, and asserts the
/// headline claim — the chaining mode sustains a zero alloc-failure
/// rate at every pressure point where the contiguity-requiring modes
/// refuse transfers the pool has the bytes for.
pub fn frag_ablation() -> Vec<FragAblationRow> {
    let rows: Vec<FragAblationRow> = [
        decaf_shmring::AllocMode::FirstFit,
        decaf_shmring::AllocMode::Buddy,
        decaf_shmring::AllocMode::BuddySg,
    ]
    .into_iter()
    .flat_map(|mode| FRAG_PRESSURES.iter().map(move |&p| frag_run(mode, p)))
    .collect();

    assert!(
        rows.iter()
            .filter(|r| r.label == "buddy+SG")
            .all(|r| r.failures == 0 && r.frag_refusals == 0),
        "buddy+SG refused a transfer it had the bytes for"
    );
    assert!(
        rows.iter()
            .any(|r| r.label == "first-fit" && r.failures > 0 && r.frag_refusals > 0),
        "the sweep never drove first-fit into fragmentation refusals"
    );
    rows
}

// ----------------------------------------------------- Shard ablation

/// Shard counts the ablation sweeps.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs the netperf send workload over the sharded e1000 build with
/// `shards` channels and reports the per-shard cost breakdown; `ops`
/// counts packets offered (and transmitted). `m.bytes_copied` is the
/// audit counter: it must not move as shards are added — sharding
/// changes steering, never copying.
pub fn shard_run(shards: usize, seconds: u32, pps: u32) -> Run {
    let k = Kernel::new();
    let drv = decaf_drivers::e1000::decaf::install_sharded(&k, "eth0", shards)
        .expect("sharded e1000 installs");
    k.netdev_open("eth0").expect("open");
    k.schedule_point();
    // Channel counters are reported whole-run: the completion-token
    // ledger only closes over the channel's whole life.
    let window = Window::open(&k, ChannelStats::default());
    let stats = workloads::netperf_send(&k, "eth0", seconds, pps, 1500).expect("netperf");
    k.run_for(4 * costs::DOORBELL_COALESCE_NS);
    // Settle the async transport: flush anything still parked, then
    // harvest every launched crossing so token conservation is checked
    // over a closed ledger.
    drv.channels.flush_all(&k).expect("final flush");
    drv.channels.harvest_all(&k);
    let m = window.close(drv.channels.stats(), "net.pkt_ns");
    let s = &m.channel;

    // Invariants every run must uphold — the ablation rows and the CI
    // stress smoke gate on the same checks.
    let net = k.net_stats("eth0");
    assert_eq!(net.tx_packets, stats.ops, "every offered frame transmitted");
    assert_eq!(net.rx_packets, stats.ops, "every loopback frame received");
    for (dir, set) in [("TX", &drv.tx_set), ("RX", &drv.rx_set)] {
        assert!(set.conserved(), "{dir} descriptor conservation violated");
        assert_eq!(set.in_flight(), 0, "{dir} descriptors leaked");
    }
    assert!(
        s.bytes_in + s.bytes_out < stats.ops * 64,
        "payload leaked into the marshaler"
    );
    if shards > 1 {
        let rings_used = (0..shards)
            .filter(|&i| drv.tx_set.ring(i).stats().posts > 0)
            .count();
        assert!(rings_used >= 2, "flow steering left traffic on one ring");
    }
    // Async-transport ledger: every issued token is harvested or
    // cancelled, nothing is left in flight, and the doorbell crossings
    // overlapped real computation.
    assert_eq!(
        s.tokens_issued,
        s.tokens_harvested + s.tokens_cancelled,
        "completion-token conservation violated"
    );
    assert_eq!(
        drv.channels.tokens_outstanding(),
        0,
        "completion tokens left outstanding after harvest"
    );
    assert!(s.tokens_issued > 0, "async transport never launched");
    assert!(
        s.overlap_ns > 0,
        "async crossings overlapped no computation"
    );

    Run {
        label: "sharded e1000",
        shards,
        ops: stats.ops,
        payload_bytes: stats.bytes,
        m,
    }
}

/// Regenerates the sharding ablation: the identical netperf stream at
/// shards = 1, 2, 4, 8. The parallel wall model (serial work plus the
/// critical-path shard) is where multi-channel sharding pays: the
/// per-packet data-path work divides across shards while copies and
/// marshaled bytes stay identical.
pub fn shard_ablation() -> Vec<Run> {
    SHARD_COUNTS
        .into_iter()
        .map(|n| shard_run(n, NET_SECONDS, E1000_PPS))
        .collect()
}

// ------------------------------------- Sharded storage ablation

/// LUN streams the sharded storage ablation drives. The simulated flash
/// exposes [`decaf_simdev::uhci::MAX_LUNS`] logical units; four parallel
/// `tar` streams are enough to exercise multi-queue steering at every
/// shard width while keeping the suite fast.
pub const STORAGE_LUNS: u32 = 4;

/// One row of the sharded storage ablation: the identical multi-LUN
/// `tar` write + streaming-read pair over the sharded uhci build at one
/// shard count. The run, plus the one thing its window cannot see.
#[derive(Debug, Clone)]
pub struct StorageShardRow {
    /// The measured run; `ops` counts completed data-bearing transfers
    /// (write + read sectors, all LUNs).
    pub run: Run,
    /// Shards that actually carried URB traffic (≤ min(shards, LUNs)).
    pub shards_used: usize,
}

/// Shard counts the storage ablation sweeps.
pub const STORAGE_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs the multi-LUN tar write + streaming-read pair over the sharded
/// uhci build with `shards` queues and reports the per-shard cost
/// breakdown. Asserts the invariants every width must uphold — most
/// importantly `bytes_copied == 0`: the zero-copy claim is not allowed
/// to regress as queues are added.
pub fn storage_shard_run(shards: usize, files: u32, sectors_per_file: u32) -> StorageShardRow {
    let k = Kernel::new();
    let drv =
        decaf_drivers::uhci::install_sharded(&k, "uhci0", shards).expect("sharded uhci installs");
    let window = Window::open(&k, drv.channels.stats());
    let (ops, payload_bytes) = tar_pair(&k, STORAGE_LUNS, files, sectors_per_file);
    k.run_for(4 * costs::DOORBELL_COALESCE_NS);
    let m = window.close(drv.channels.stats(), "tar.urb_ns");

    // Invariants every width must uphold — the ablation rows and the CI
    // storage smoke gate on the same checks.
    assert_eq!(
        m.bytes_copied, 0,
        "sharded storage bulk payloads must never be CPU-copied (shards={shards})"
    );
    assert!(
        drv.urb_path.conserved(),
        "per-shard URB conservation violated"
    );
    assert_eq!(drv.urb_path.in_flight(), 0, "URBs leaked in flight");
    assert_eq!(
        drv.urb_path.set().pool().in_use_sectors(),
        0,
        "sector runs leaked"
    );
    let shards_used = (0..shards)
        .filter(|&i| drv.urb_path.set().shard_stats(i).posted > 0)
        .count();
    if shards > 1 {
        assert!(
            shards_used >= 2,
            "LUN steering left all URB traffic on {shards_used} shard(s)"
        );
    }

    let run = Run {
        label: "sharded uhci",
        shards,
        ops,
        payload_bytes,
        m,
    };
    StorageShardRow { run, shards_used }
}

/// Regenerates the sharded storage ablation: the identical multi-LUN
/// tar pair at shards = 1, 2, 4, 8, `bytes_copied == 0` asserted at
/// every width. The storage counterpart of [`shard_ablation`]: per-URB
/// drain work divides across queues under the parallel wall model while
/// the zero-copy property holds unchanged.
pub fn storage_shard_ablation() -> Vec<StorageShardRow> {
    STORAGE_SHARD_COUNTS
        .into_iter()
        .map(|n| storage_shard_run(n, STORAGE_FILES, STORAGE_SECTORS_PER_FILE))
        .collect()
}

// ------------------------------------------------- Transport ablation

/// The three stacked configurations the ablation compares: the seed
/// per-call path, masks + delta, and masks + delta + batching.
pub fn transport_ablation_configs() -> [(&'static str, ChannelConfig); 3] {
    [
        ("mask-only (seed InProc)", ChannelConfig::kernel_user()),
        (
            "mask+delta",
            ChannelConfig {
                delta: true,
                ..ChannelConfig::kernel_user()
            },
        ),
        ("mask+delta+batch", ChannelConfig::kernel_user_batched()),
    ]
}

/// Runs the repeated-configuration workload — the shape of a driver's
/// control path: tweak one knob on a shared structure, post a few
/// register writes, invoke the decaf driver to apply — and returns the
/// channel counters plus virtual time burned (`ops` configuration
/// cycles, no payload, the label left for the caller).
///
/// Every configuration executes the *same* call sequence; only the
/// transport and delta policy differ, so the counters isolate exactly
/// what batching and dirty-field marshaling save.
pub fn repeated_config_run(config: ChannelConfig, iters: u32) -> Run {
    let kernel = Kernel::new();
    let ch = synthetic_channel(
        "struct cfg_ring { int size; int head; };\n\
         struct cfg { int itr; int speed; int flags; opaque tuning[64]; struct cfg_ring *ring; };",
        config,
    );
    // Nucleus import: the posted register write.
    register_writel(&ch, Domain::Nucleus);
    // Decaf driver: apply the configuration, acknowledge in `flags`.
    ch.register_proc(
        Domain::Decaf,
        ProcDef::entry("apply_config", ["cfg"], |k, ch, args, _| {
            let Some(c) = args[0] else {
                return XdrValue::Int(-22);
            };
            let itr = decaf_int(ch, c, "itr");
            // Program the device: three posted writes.
            for (reg, val) in [(0xc8u32, itr as u32), (0x00, 1), (0x38, 0)] {
                let _ = ch.call_deferred(
                    k,
                    Domain::Decaf,
                    "writel",
                    &[],
                    &[XdrValue::UInt(reg), XdrValue::UInt(val)],
                );
            }
            let heap = ch.heap(Domain::Decaf);
            let _ = heap.borrow_mut().set_scalar(c, "flags", XdrValue::Int(itr));
            XdrValue::Int(0)
        }),
    )
    .expect("register apply_config");

    let heap = ch.heap(Domain::Nucleus);
    let cfg_obj = {
        let mut h = heap.borrow_mut();
        let ring = h.alloc_default("cfg_ring", ch.spec()).expect("alloc ring");
        let c = h.alloc_default("cfg", ch.spec()).expect("alloc cfg");
        h.set_ptr(c, "ring", Some(ring)).expect("link ring");
        c
    };

    let window = Window::open(&kernel, ch.stats());
    for i in 0..iters {
        heap.borrow_mut()
            .set_scalar(cfg_obj, "itr", XdrValue::Int(8000 + i as i32))
            .expect("tweak itr");
        kernel.trace_req_begin("op_ns", i as u64);
        ch.call(
            &kernel,
            Domain::Nucleus,
            "apply_config",
            &[Some(cfg_obj)],
            &[],
        )
        .expect("apply_config upcall");
        kernel.trace_req_end("op_ns", i as u64);
    }
    ch.flush(&kernel).expect("final flush");

    Run {
        label: "",
        shards: 1,
        ops: iters as u64,
        payload_bytes: 0,
        m: window.close(ch.stats(), "op_ns"),
    }
}

/// Number of configuration cycles the ablation runs.
pub const ABLATION_ITERS: u32 = 25;

/// Regenerates the transport ablation: mask-only vs mask+delta vs
/// mask+delta+batch on the identical repeated-configuration workload.
pub fn transport_ablation() -> Vec<Run> {
    transport_ablation_configs()
        .into_iter()
        .map(|(label, config)| Run {
            label,
            ..repeated_config_run(config, ABLATION_ITERS)
        })
        .collect()
}

// ------------------------------------------ Async transport rate sweep

/// One row of the async-transport open-rate sweep: the identical paced
/// deferred-call stream over the batched (synchronous flush) and async
/// (completion-token) transports at one offered rate.
#[derive(Debug, Clone)]
pub struct AsyncSweepRow {
    /// Offered deferred-call rate (calls per virtual second).
    pub offered_cps: u32,
    /// The run under the batched transport.
    pub batched: Measured,
    /// The run under the async transport; its `lat` is the per-call
    /// submit (marshal + enqueue) latency.
    pub launched: Measured,
}

impl AsyncSweepRow {
    /// Busy time the async transport saved, as a fraction of batched.
    pub fn saving(&self) -> f64 {
        if self.batched.busy_ns == 0 {
            return 0.0;
        }
        1.0 - self.launched.busy_ns as f64 / self.batched.busy_ns as f64
    }
}

/// Offered rates the async sweep walks (deferred calls per virtual
/// second). Spanning two decades: at low rates the coalescing deadline
/// launches small batches; at high rates the watermark launches full
/// ones — the overlap credit must hold across both regimes.
pub const ASYNC_SWEEP_RATES: [u32; 5] = [1_000, 2_000, 5_000, 10_000, 20_000];

/// Deferred calls per async-sweep run.
const ASYNC_SWEEP_CALLS: u32 = 60;

/// Runs `ASYNC_SWEEP_CALLS` posted register writes paced at `gap_ns`
/// apart over one channel configuration and returns what the run cost.
fn paced_deferred_run(config: ChannelConfig, gap_ns: u64) -> Measured {
    let kernel = Kernel::new();
    let ch = synthetic_channel("struct nil { int pad; };", config);
    register_writel(&ch, Domain::Decaf);

    let window = Window::open(&kernel, ch.stats());
    for i in 0..ASYNC_SWEEP_CALLS {
        kernel.trace_req_begin("op_ns", i as u64);
        ch.call_deferred(
            &kernel,
            Domain::Nucleus,
            "writel",
            &[],
            &[XdrValue::UInt(0xc8), XdrValue::UInt(i)],
        )
        .expect("defer writel");
        kernel.trace_req_end("op_ns", i as u64);
        // The pacing gap: the nucleus goes on with unrelated work while
        // the transport decides when to launch. On the async transport
        // this is exactly the window an in-flight crossing hides under.
        kernel.run_for(gap_ns);
        ch.flush_if_due(&kernel).expect("deadline flush");
    }
    ch.flush(&kernel).expect("final flush");
    ch.harvest(&kernel);
    window.close(ch.stats(), "op_ns")
}

/// Regenerates the async-transport sweep: batched vs async on the
/// identical paced deferred-call stream at every offered rate.
///
/// Asserts the tentpole acceptance property rate-by-rate: async busy
/// time never exceeds batched (uncovered ≤ full crossing cost by
/// construction), the overlap credit is real, and the completion-token
/// ledger closes.
pub fn async_transport_sweep() -> Vec<AsyncSweepRow> {
    ASYNC_SWEEP_RATES
        .into_iter()
        .map(|cps| {
            let gap_ns = 1_000_000_000 / cps as u64;
            let batched = paced_deferred_run(ChannelConfig::kernel_user_batched(), gap_ns);
            let launched = paced_deferred_run(ChannelConfig::kernel_user_async(), gap_ns);
            let s = launched.channel;
            assert!(
                launched.busy_ns <= batched.busy_ns,
                "async busy ({}) exceeds batched ({}) at {cps} calls/s",
                launched.busy_ns,
                batched.busy_ns
            );
            assert!(s.overlap_ns > 0, "no overlap credit at {cps} calls/s");
            assert_eq!(
                s.tokens_issued,
                s.tokens_harvested + s.tokens_cancelled,
                "token conservation violated at {cps} calls/s"
            );
            AsyncSweepRow {
                offered_cps: cps,
                batched,
                launched,
            }
        })
        .collect()
}

// ----------------------------------------- Interrupt-vs-poll RX sweep

/// One row of the RX-mode sweep: the identical offered arrival stream
/// serviced interrupt-driven (doorbell per watermark) vs poll-mode
/// (budgeted probes on a fixed softirq grid) at one offered rate.
#[derive(Debug, Clone)]
pub struct RxModeSweepRow {
    /// Offered arrival rate (packets per virtual second).
    pub offered_pps: u32,
    /// The interrupt-driven run; `lat` is per-packet post→reclaim and
    /// `channel.ring_posts` the frames delivered (the offered count, in
    /// both modes).
    pub interrupt: Measured,
    /// The poll-mode run (zero `channel.doorbells`: polling replaces the
    /// doorbell crossing entirely).
    pub poll: Measured,
}

impl RxModeSweepRow {
    /// Whether poll-mode servicing burned less CPU at this rate.
    pub fn poll_wins(&self) -> bool {
        self.poll.busy_ns < self.interrupt.busy_ns
    }

    /// Whichever mode burned less CPU at this rate.
    pub fn winner(&self) -> &'static str {
        if self.poll_wins() {
            "poll"
        } else {
            "interrupt"
        }
    }
}

/// Offered rates the RX-mode sweep walks (packets per virtual second).
/// Arrival times are integer nanoseconds computed per arrival index, so
/// the sweep is bit-deterministic at any rate — rates need *not* divide
/// one virtual second exactly (the poll grid picks up off-grid arrivals
/// at the next probe; see `rx_mode_run_schedule`).
pub const RX_SWEEP_RATES: [u32; 6] = [500, 1_000, 2_000, 4_000, 8_000, 16_000];

/// The uniform arrival schedule `rx_mode_run` paces: `pps` arrivals
/// spread over one virtual second, arrival `i` (1-based) at
/// `i * 1e9 / pps` integer nanoseconds. For divisor rates this is the
/// exact historical grid; for non-divisor rates the truncation is
/// per-arrival (no cumulative drift) and the last arrival still lands
/// at or before the one-second mark.
pub fn rx_uniform_schedule(pps: u32) -> Vec<u64> {
    (1..=pps as u64)
        .map(|i| i * 1_000_000_000 / pps as u64)
        .collect()
}

/// Runs one virtual second of paced descriptor arrivals through a
/// pool-less shmring data path serviced in `mode` and returns what the
/// run cost: `busy_ns`, `channel.doorbells`, and in `lat` the per-packet
/// post→reclaim latency percentiles keyed by descriptor cookie.
///
/// Interrupt mode charges interrupt entry per arrival and rings the
/// watermark doorbell; poll mode charges a softirq dispatch per
/// [`decaf_drivers::support::RX_POLL_TICK_NS`] grid tick plus a poll
/// probe per ring check, and never rings a doorbell. Neither mode
/// copies payload bytes — the buffers stay where DMA wrote them — and
/// both deliver every arrival (asserted).
pub fn rx_mode_run(mode: decaf_drivers::support::RxMode, pps: u32) -> Measured {
    rx_mode_run_schedule(mode, &rx_uniform_schedule(pps))
}

/// [`rx_mode_run`] over an explicit arrival schedule (ascending virtual
/// times, ns). This is the engine both the uniform sweep and the
/// open-loop load generators drive: arrivals may land anywhere — on the
/// poll grid, off it, or in Poisson clumps — and the poll loop simply
/// posts every arrival whose time has passed at each probe, carrying
/// budget overflow to the next tick and running extra ticks past the
/// nominal horizon until the ring drains. Nothing is ever dropped.
///
/// Regression note: the poll branch used to reconstruct arrival counts
/// as `tick_ns / gap_ns`, which silently assumed every rate divides the
/// probe grid; an off-grid schedule tripped its accounting assert even
/// though no descriptor was lost.
pub fn rx_mode_run_schedule(mode: decaf_drivers::support::RxMode, schedule: &[u64]) -> Measured {
    use decaf_drivers::support::{RxMode, RX_POLL_BUDGET, RX_POLL_TICK_NS};
    use decaf_shmring::{BufHandle, Descriptor};

    let kernel = Kernel::new();
    let ch = synthetic_channel(
        "struct nil { int pad; };",
        ChannelConfig::kernel_user_shmring(),
    );
    // Pool-less: descriptors name device receive slots; no payload ever
    // enters a shared pool or the marshaler.
    let dp = drained_path(&ch, "rx_drain", 64, None, 8);
    let end = dp.end(Domain::Decaf);
    let window = Window::open(&kernel, ch.stats());

    let total = schedule.len() as u64;
    debug_assert!(
        schedule.windows(2).all(|w| w[0] <= w[1]),
        "arrival schedule must be ascending"
    );
    let post = |i: u64| {
        kernel.trace_req_begin("rx.pkt_ns", i);
        let slot = Descriptor {
            buf: BufHandle((i % 64) as u32),
            len: 1500,
            cookie: i,
        };
        dp.post(&kernel, slot).expect("post");
    };
    let reclaim = || {
        let done = dp.reclaim_completions(&kernel);
        for d in &done {
            kernel.trace_req_end("rx.pkt_ns", d.cookie);
        }
        done.len() as u64
    };
    let mut delivered = 0u64;
    match mode {
        RxMode::Interrupt => {
            for (i, &at_ns) in schedule.iter().enumerate() {
                kernel.run_for(at_ns.saturating_sub(kernel.now_ns()));
                // Interrupt entry/exit per arriving frame, then the
                // descriptor post; the watermark decides when the
                // doorbell crossing launches the drain.
                kernel.charge(CpuClass::Kernel, costs::IRQ_ENTRY_NS);
                post(i as u64);
                dp.maybe_ring(&kernel).expect("watermark doorbell");
                delivered += reclaim();
            }
            dp.ring_doorbell(&kernel).expect("final doorbell");
            delivered += reclaim();
        }
        RxMode::Poll => {
            // NAPI shape: interrupts stay masked; a softirq-grid tick
            // posts whatever DMA delivered since the last tick, then the
            // decaf side probes the ring under a budget. An arrival that
            // lands between ticks waits for the next probe — later, but
            // never lost. The grid runs the full nominal second (the
            // poll tax is charged whether or not frames arrive) and then
            // keeps ticking until every arrival is posted and reclaimed.
            let nominal_ticks = 1_000_000_000 / RX_POLL_TICK_NS;
            let mut arrived = 0u64;
            let mut tick = 0u64;
            loop {
                tick += 1;
                let tick_ns = tick * RX_POLL_TICK_NS;
                kernel.run_for(tick_ns.saturating_sub(kernel.now_ns()));
                kernel.charge(CpuClass::Kernel, costs::SOFTIRQ_DISPATCH_NS);
                while (arrived as usize) < schedule.len()
                    && schedule[arrived as usize] <= tick_ns
                    && (arrived - delivered) < RX_POLL_BUDGET as u64
                {
                    post(arrived);
                    arrived += 1;
                }
                end.poll_and_reclaim(&kernel, RX_POLL_BUDGET, |d| {
                    kernel.charge(CpuClass::User, costs::DMA_DESC_NS);
                    end.complete(&kernel, d).expect("complete");
                });
                delivered += reclaim();
                if tick >= nominal_ticks && arrived == total && delivered == total {
                    break;
                }
                assert!(
                    tick < nominal_ticks * 4,
                    "poll grid failed to drain the schedule \
                     ({arrived}/{total} posted, {delivered} delivered)"
                );
            }
        }
    }
    assert_eq!(delivered, total, "{mode:?} mode dropped frames");
    assert_eq!(dp.pending(), 0, "descriptors stranded in the ring");
    let m = window.close(ch.stats(), "rx.pkt_ns");
    assert_eq!(m.bytes_copied, 0, "rx sweep must not copy payload");
    m
}

/// Regenerates the interrupt-vs-poll RX sweep and asserts the crossover
/// shape: interrupt-driven servicing wins at the low end (the poll
/// grid's fixed softirq + probe tax dominates), poll-mode wins at the
/// high end (per-frame interrupt entry and doorbell crossings dominate),
/// and the winner flips exactly once as the offered rate climbs.
pub fn rx_mode_sweep() -> Vec<RxModeSweepRow> {
    use decaf_drivers::support::RxMode;
    let rows: Vec<RxModeSweepRow> = RX_SWEEP_RATES
        .into_iter()
        .map(|pps| {
            let interrupt = rx_mode_run(RxMode::Interrupt, pps);
            let poll = rx_mode_run(RxMode::Poll, pps);
            assert_eq!(poll.channel.doorbells, 0, "poll mode rang a doorbell");
            assert!(interrupt.channel.doorbells > 0, "interrupt mode never rang");
            RxModeSweepRow {
                offered_pps: pps,
                interrupt,
                poll,
            }
        })
        .collect();
    let crossover = rows
        .iter()
        .position(RxModeSweepRow::poll_wins)
        .expect("poll mode never overtakes interrupt mode");
    assert!(
        crossover > 0,
        "interrupt mode must win at the lowest offered rate"
    );
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.poll_wins(),
            i >= crossover,
            "winner flipped more than once at {} pps",
            row.offered_pps
        );
    }
    rows
}

/// The offered rate at which poll-mode servicing first beats
/// interrupt-driven servicing in `rows` (packets per virtual second).
pub fn rx_crossover_pps(rows: &[RxModeSweepRow]) -> Option<u32> {
    rows.iter().find(|r| r.poll_wins()).map(|r| r.offered_pps)
}

// ---------------------------------------------------------------- Table 4

/// The Table 4 study: plan, patch stream, classification.
#[derive(Debug, Clone)]
pub struct Table4Study {
    /// Patches in batch one (pre-2.6.22 in the paper).
    pub batch1: evolve::EvolveReport,
    /// Patches in batch two (2.6.22 → 2.6.27).
    pub batch2: evolve::EvolveReport,
    /// Combined totals.
    pub total: evolve::EvolveReport,
}

/// Builds the synthetic 320-patch stream over the sliced E1000 driver and
/// classifies where every changed line lands.
///
/// The stream is deterministic (seeded) and mirrors the paper's empirical
/// observation: upstream development lands overwhelmingly in code that
/// moved to the decaf driver; only a couple dozen patches touch the
/// user/kernel interface (new marshaled fields).
pub fn table4() -> Table4Study {
    let plan =
        slice(DriverKind::E1000.minic_source(), &SliceConfig::default()).expect("e1000 slices");
    let patches = e1000_patch_stream(&plan);
    let (b1, b2) = patches.split_at(200); // two batches, as applied in §5.2
    let batch1 = evolve::classify(&plan, b1);
    let batch2 = evolve::classify(&plan, b2);
    Table4Study {
        batch1,
        batch2,
        // Classification is per patch, so the whole stream's report is
        // the two batches' sum.
        total: evolve::classify(&plan, &patches),
    }
}

/// The deterministic 320-patch stream used by [`table4`].
pub fn e1000_patch_stream(plan: &SlicePlan) -> Vec<Patch> {
    let mut rng = SplitMix64::new(0xDECAF);
    let mut patches = Vec::with_capacity(320);
    let decaf_fns = &plan.decaf_fns;
    let kernel_fns = &plan.kernel_fns;
    for id in 0..320u32 {
        // 88% of patches touch user-level code, 7% the nucleus, 5% are
        // brand-new functions (new development happens at user level).
        let roll = rng.below(100);
        let target_fn = if roll < 88 {
            decaf_fns[rng.below(decaf_fns.len() as u64) as usize].clone()
        } else if roll < 95 {
            kernel_fns[rng.below(kernel_fns.len() as u64) as usize].clone()
        } else {
            format!("e1000_new_feature_{id}")
        };
        let lines_changed = 2 + rng.below(38) as usize;
        // 23 of the 320 patches change the user/kernel interface.
        let new_field = if id % 14 == 0 && id / 14 < 23 {
            Some(NewField {
                struct_name: "e1000_adapter".into(),
                field_name: format!("feature_flag_{id}"),
                ty: decaf_slicer::CType::Int,
                decaf_accessed: true,
                access: decaf_slicer::access::RawAccess::RW,
            })
        } else {
            None
        };
        patches.push(Patch {
            id,
            target_fn,
            lines_changed,
            new_field,
        });
    }
    patches
}

// ------------------------------------------------ Overload knee (open loop)

use decaf_drivers::support::{install_open_loop_net, install_open_loop_storage, OpenLoopNet};
use decaf_simkernel::kernel::WorkBody;
use decaf_simkernel::TimerId;
use decaf_xpc::{
    AdmissionController, AdmissionPolicy, AdmissionVerdict, ShardedUrbPath, TokenBucket,
    TrafficClass,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

/// Shards in the overload rig (both the net and storage sides).
const OVERLOAD_SHARDS: usize = 2;
/// Virtual-time horizon of one overload run: arrivals are scheduled
/// inside this window; the drain afterwards completes everything that
/// was admitted (the drain tail is what blows the unbounded p99 up).
const OVERLOAD_HORIZON_NS: u64 = 4_000_000;
/// Admission queue cap for the bounded policies.
const OVERLOAD_QUEUE_CAP: usize = 24;
/// LUN space the storage arrivals spread over.
const OVERLOAD_LUNS: u64 = 8;
/// Seed for the arrival schedules: every run at the same rate sees the
/// byte-identical arrival stream, so policy is the only variable.
const OVERLOAD_SEED: u64 = 0xDECAF0101;

/// One admitted-but-not-yet-serviced open-loop request.
struct OverloadJob {
    class: TrafficClass,
    cookie: u64,
}

/// Everything one overload run shares between the arrival timer, the
/// dispatch work item, and the coalescing poll timer.
struct OverloadRig {
    schedule: Vec<(u64, TrafficClass)>,
    next_arrival: Cell<usize>,
    queue: RefCell<VecDeque<OverloadJob>>,
    ctrl: Rc<AdmissionController>,
    net: OpenLoopNet,
    storage: Rc<ShardedUrbPath>,
    /// Which requests are in service, by cookie. Cookies are schedule
    /// indices — unique across both classes, and `schedule[cookie].0` is
    /// the scheduled arrival — so one dense flag vector serves both.
    in_service: RefCell<Vec<bool>>,
    in_flight: Cell<usize>,
    /// `(completion_ns, latency_ns)` per completed request, where the
    /// latency is measured from the *scheduled* arrival — open-loop
    /// semantics: time the request spent waiting for a busy CPU counts.
    samples: RefCell<Vec<(u64, u64)>>,
    arrival_timer: Cell<Option<TimerId>>,
    dropped: Cell<u64>,
}

/// The arrival/service loop. Runs in process context (the arrival
/// timer's softirq hands off to a work item). Because service
/// work *charges* the single virtual CPU, time moves forward inside the
/// loop — arrivals whose scheduled instant has meanwhile passed are
/// admitted on the next iteration, which is exactly how a backlog forms
/// when the offered rate exceeds the service rate. No analytic queueing
/// model sits anywhere in here; the knee emerges from the cost table.
fn overload_dispatch(rig: &OverloadRig, kernel: &Kernel) {
    loop {
        // Admit every arrival already due. Admission itself is free
        // (a policy decision, not work), so `now` is stable here.
        let now = kernel.now_ns();
        loop {
            let i = rig.next_arrival.get();
            if i >= rig.schedule.len() || rig.schedule[i].0 > now {
                break;
            }
            let class = rig.schedule[i].1;
            rig.next_arrival.set(i + 1);
            let backlog = rig.queue.borrow().len();
            let verdict = rig.ctrl.offer(now, class, backlog);
            let mut q = rig.queue.borrow_mut();
            if let AdmissionVerdict::Shed(n) = verdict {
                for _ in 0..n {
                    if let Some(old) = q.pop_front() {
                        rig.ctrl.note_shed(old.class, 1);
                    }
                }
            }
            if verdict != AdmissionVerdict::Reject {
                q.push_back(OverloadJob {
                    class,
                    cookie: i as u64,
                });
            }
        }
        // Service one job, then loop: the charge may have made more
        // arrivals due.
        let job = rig.queue.borrow_mut().pop_front();
        match job {
            Some(job) => {
                overload_service(rig, kernel, job);
                overload_reclaim(rig, kernel);
            }
            None => {
                let i = rig.next_arrival.get();
                if i < rig.schedule.len() {
                    if let Some(t) = rig.arrival_timer.get() {
                        // Absolute re-arm: repeated now+delta arming
                        // would drift by one dispatch charge per
                        // arrival; `timer_arm_at` clamps past deadlines
                        // to "next dispatch point" instead.
                        kernel.timer_arm_at(t, rig.schedule[i].0);
                    }
                }
                return;
            }
        }
    }
}

fn overload_service(rig: &OverloadRig, kernel: &Kernel, job: OverloadJob) {
    let posted = match job.class {
        TrafficClass::Net => workloads::open_loop_packet(kernel, &rig.net, 1500, job.cookie),
        TrafficClass::Storage => workloads::open_loop_urb(
            kernel,
            &rig.storage,
            OVERLOAD_LUNS,
            &[0xA5u8; 512],
            job.cookie,
        ),
    };
    if posted.is_ok() {
        rig.in_service.borrow_mut()[job.cookie as usize] = true;
        rig.in_flight.set(rig.in_flight.get() + 1);
    } else {
        rig.dropped.set(rig.dropped.get() + 1);
    }
}

fn overload_reclaim(rig: &OverloadRig, kernel: &Kernel) {
    // Sampled class by class: reclaiming charges time, and a completion's
    // latency ends when its own reclaim saw it.
    let sample = |done: Vec<u64>| {
        for c in done {
            if std::mem::take(&mut rig.in_service.borrow_mut()[c as usize]) {
                rig.in_flight.set(rig.in_flight.get() - 1);
                let (now, sched) = (kernel.now_ns(), rig.schedule[c as usize].0);
                rig.samples
                    .borrow_mut()
                    .push((now, now.saturating_sub(sched)));
            }
        }
    };
    sample(workloads::open_loop_packet_reclaim(kernel, &rig.net));
    sample(workloads::open_loop_urb_reclaim(kernel, &rig.storage));
}

fn percentiles_of(mut lat: Vec<u64>) -> LatencyPercentiles {
    if lat.is_empty() {
        return LatencyPercentiles::default();
    }
    lat.sort_unstable();
    let pick = |num: usize, den: usize| lat[(lat.len() - 1) * num / den];
    LatencyPercentiles {
        p50_ns: pick(50, 100),
        p99_ns: pick(99, 100),
        p999_ns: pick(999, 1000),
    }
}

/// One point of the latency/goodput knee: a policy driven at one
/// offered rate.
#[derive(Debug, Clone, Copy)]
pub struct OverloadKneeRow {
    /// The admission policy under test.
    pub policy: AdmissionPolicy,
    /// Total offered arrival rate (both classes, per virtual second).
    pub offered_rate_per_s: u64,
    /// Offered rate as a percentage of the calibrated saturation rate.
    pub multiplier_pct: u64,
    /// Arrivals the schedule offered.
    pub offered: u64,
    /// Arrivals the policy admitted (sheds count as admitted-then-shed).
    pub admitted: u64,
    /// Arrivals refused at the door.
    pub rejected: u64,
    /// Admitted entries dropped from the queue head by shed-oldest.
    pub shed: u64,
    /// Requests that completed end to end.
    pub completed: u64,
    /// Completions inside the horizon, per virtual second — the
    /// goodput axis of the knee curve.
    pub goodput_per_s: u64,
    /// End-to-end latency percentiles from scheduled arrival to
    /// completion, including the post-horizon drain tail.
    pub lat: LatencyPercentiles,
}

/// Calibrates the rig's saturation rate: back-to-back closed-loop
/// service of an alternating packet/URB stream, completions reclaimed
/// as they land — the highest rate the service loop can sustain. The
/// sweep's offered rates are multiples of this, so the knee sits at a
/// known abscissa regardless of cost-table changes.
pub fn overload_saturation_rate() -> u64 {
    const JOBS: u64 = 256;
    let kernel = Kernel::new();
    let net = install_open_loop_net(OVERLOAD_SHARDS, 64, 8).expect("net rig");
    let (_sc, storage) =
        install_open_loop_storage(OVERLOAD_SHARDS, 256, 32, 8).expect("storage rig");
    let start = kernel.now_ns();
    for cookie in 0..JOBS {
        if cookie % 2 == 0 {
            workloads::open_loop_packet(&kernel, &net, 1500, cookie).expect("packet");
        } else {
            workloads::open_loop_urb(&kernel, &storage, OVERLOAD_LUNS, &[0xA5u8; 512], cookie)
                .expect("urb");
        }
        workloads::open_loop_packet_reclaim(&kernel, &net);
        workloads::open_loop_urb_reclaim(&kernel, &storage);
    }
    // Flush the coalesced tails so their cost is part of the estimate.
    for i in 0..net.paths.len() {
        kernel.shard_scope(i, || {
            let _ = net.paths[i].ring_doorbell(&kernel);
        });
    }
    storage.poll(&kernel).expect("poll");
    workloads::open_loop_packet_reclaim(&kernel, &net);
    workloads::open_loop_urb_reclaim(&kernel, &storage);
    let elapsed = kernel.now_ns() - start;
    JOBS.saturating_mul(1_000_000_000) / elapsed.max(1)
}

/// Runs one open-loop overload experiment: a mixed Poisson (netperf
/// packets) + bursty (tar URBs) arrival schedule at `offered_rate_per_s`
/// total, dispatched by an absolute-deadline kernel timer, serviced
/// through real shmring data paths under `policy`. `fault_at_ns`
/// optionally injects a decaf-side storage shard failure mid-storm
/// (`recover_shard` on shard 0) — the recovery test rides this hook.
///
/// Every run asserts the full conservation ledger: zero payload bytes
/// copied, URB descriptor/sector conservation, the admission ledger
/// (`offered == admitted + rejected`), the engine ledger
/// (`admitted == completed + shed + dropped`), a closed completion-token
/// ledger on the async net facade, and no kernel rule violations.
pub fn overload_run(
    policy: AdmissionPolicy,
    offered_rate_per_s: u64,
    saturation_rate_per_s: u64,
    fault_at_ns: Option<u64>,
) -> OverloadKneeRow {
    let kernel = Kernel::new();
    let net = install_open_loop_net(OVERLOAD_SHARDS, 64, 8).expect("net rig");
    let (_sc, storage) =
        install_open_loop_storage(OVERLOAD_SHARDS, 256, 32, 8).expect("storage rig");

    let mut ctrl = AdmissionController::new(policy, OVERLOAD_QUEUE_CAP);
    if policy == AdmissionPolicy::RejectAtAdmission {
        // Per-class token buckets sized to the class's share of the
        // calibrated capacity: the door turns the overload away at the
        // rate the server could never have served anyway.
        let per_class = saturation_rate_per_s / 2;
        for class in TrafficClass::ALL {
            ctrl = ctrl.with_bucket(
                class,
                TokenBucket::new(per_class, OVERLOAD_QUEUE_CAP as u64),
            );
        }
    }
    let ctrl = Rc::new(ctrl);

    let per_class_rate = offered_rate_per_s / 2;
    let net_sched = loadgen::poisson_schedule(OVERLOAD_SEED, per_class_rate, OVERLOAD_HORIZON_NS);
    let sto_sched = loadgen::burst_schedule(
        OVERLOAD_SEED ^ 0x5702_1A6E,
        per_class_rate,
        OVERLOAD_HORIZON_NS,
        8,
    );
    let schedule = loadgen::merge_schedules(&[
        (TrafficClass::Net, net_sched),
        (TrafficClass::Storage, sto_sched),
    ]);
    let offered = schedule.len() as u64;

    let rig = Rc::new(OverloadRig {
        schedule,
        next_arrival: Cell::new(0),
        queue: RefCell::new(VecDeque::new()),
        ctrl: Rc::clone(&ctrl),
        net,
        storage: Rc::clone(&storage),
        in_service: RefCell::new(vec![false; offered as usize]),
        in_flight: Cell::new(0),
        samples: RefCell::new(Vec::new()),
        arrival_timer: Cell::new(None),
        dropped: Cell::new(0),
    });

    // Timers fire in softirq context; everything here makes upcalls, so
    // each timer hands its body off to a work item, built once and queued
    // by handle.
    let work_timer = |timer: &'static str, body: fn(&OverloadRig, &Kernel)| {
        let rig = Rc::clone(&rig);
        let work: WorkBody = Rc::new(move |k, _| body(&rig, k));
        kernel.work_timer(timer, work, || Some(0))
    };
    let arrival = work_timer("overload.arrival", overload_dispatch);
    rig.arrival_timer.set(Some(arrival));

    // The satellite machinery under integration load: deadline wakeups
    // on the async net facade, and a periodic poll that flushes
    // past-deadline doorbells and reclaims completions.
    rig.net.channels.arm_deadline_wakeups(&kernel);
    let poll = work_timer("overload.poll", |rig, k| {
        for i in 0..rig.net.paths.len() {
            k.shard_scope(i, || {
                let _ = rig.net.paths[i].poll(k);
            });
        }
        let _ = rig.storage.poll(k);
        rig.net.channels.harvest_all(k);
        overload_reclaim(rig, k);
    });
    kernel.timer_arm_periodic(poll, costs::DOORBELL_COALESCE_NS);

    if let Some(at) = fault_at_ns {
        let fault = work_timer("overload.fault", |rig, k| {
            let _ = rig.storage.recover_shard(k, 0, Domain::Decaf);
        });
        kernel.timer_arm_at(fault, at);
    }

    if !rig.schedule.is_empty() {
        kernel.timer_arm_at(arrival, rig.schedule[0].0);
    }

    // Run the storm, then drain: everything admitted must complete.
    let done = |rig: &OverloadRig| {
        rig.next_arrival.get() >= rig.schedule.len()
            && rig.queue.borrow().is_empty()
            && rig.in_flight.get() == 0
    };
    let mut windows = 0u32;
    while !done(&rig) {
        kernel.run_for(costs::DOORBELL_COALESCE_NS);
        windows += 1;
        assert!(
            windows < 10_000,
            "overload run failed to drain: {} arrivals pending, {} queued, {} in flight",
            rig.schedule.len() - rig.next_arrival.get(),
            rig.queue.borrow().len(),
            rig.in_flight.get(),
        );
    }
    kernel.timer_del(poll);
    kernel.timer_del(arrival);
    rig.net.channels.harvest_all(&kernel);

    // The conservation ledger, at every swept rate.
    let stats = ctrl.total();
    let completed = rig.samples.borrow().len() as u64;
    assert_eq!(kernel.stats().bytes_copied, 0, "zero-copy under overload");
    assert!(rig.storage.conserved(), "URB descriptor conservation");
    assert_eq!(
        rig.net.channels.tokens_outstanding(),
        0,
        "every async doorbell token settled"
    );
    assert!(ctrl.balanced(), "admission ledger: {stats:?}");
    assert_eq!(stats.offered, offered, "every arrival offered exactly once");
    assert_eq!(
        stats.admitted,
        completed + stats.shed + rig.dropped.get(),
        "admitted requests either complete, are shed, or are counted dropped"
    );
    assert!(kernel.violations().is_empty(), "{:?}", kernel.violations());

    let in_horizon = rig
        .samples
        .borrow()
        .iter()
        .filter(|&&(at, _)| at <= OVERLOAD_HORIZON_NS)
        .count() as u64;
    let lat = percentiles_of(rig.samples.borrow().iter().map(|&(_, l)| l).collect());
    OverloadKneeRow {
        policy,
        offered_rate_per_s,
        // To the nearest percent: the sweep floors `saturation * pct / 100`,
        // and flooring again here would print `pct - 1` for most rates.
        multiplier_pct: (offered_rate_per_s * 100 + saturation_rate_per_s / 2)
            / saturation_rate_per_s.max(1),
        offered,
        admitted: stats.admitted,
        rejected: stats.rejected,
        shed: stats.shed,
        completed,
        goodput_per_s: in_horizon.saturating_mul(1_000_000_000) / OVERLOAD_HORIZON_NS,
        lat,
    }
}

/// Offered-rate multipliers for the knee sweep, in percent of the
/// calibrated saturation rate: two pre-knee points, saturation, and the
/// 1.5× overload point the acceptance bound is stated at.
pub const OVERLOAD_MULTIPLIERS_PCT: [u64; 4] = [40, 70, 100, 150];

/// The headline experiment: every admission policy swept across
/// [`OVERLOAD_MULTIPLIERS_PCT`] at the same seeded arrival schedules.
/// Returns the saturation rate it calibrated (once) beside the rows.
pub fn overload_sweep() -> (u64, Vec<OverloadKneeRow>) {
    let sat = overload_saturation_rate();
    let mut rows = Vec::new();
    for policy in AdmissionPolicy::ALL {
        for pct in OVERLOAD_MULTIPLIERS_PCT {
            rows.push(overload_run(policy, sat * pct / 100, sat, None));
        }
    }
    (sat, rows)
}

/// The knee verdict over a sweep: does unbounded queueing blow up past
/// saturation while some admission policy holds the tail bounded at
/// small goodput cost?
#[derive(Debug, Clone, Copy)]
pub struct KneeVerdict {
    /// Unbounded-queue p99 at the top rate over its pre-knee p99.
    pub unbounded_blowup: f64,
    /// Best bounded policy's p99 at the top rate over its pre-knee p99.
    pub bounded_ratio: f64,
    /// That policy's goodput at the top rate over the sweep's peak.
    pub goodput_fraction: f64,
    /// The policy that achieved the bound.
    pub bounded_policy: AdmissionPolicy,
    /// Whether the acceptance test holds: blowup ≥ 10×, bounded
    /// ratio ≤ 3×, goodput fraction ≥ 0.8.
    pub holds: bool,
}

/// Evaluates the acceptance test over [`overload_sweep`] rows.
pub fn knee_verdict(rows: &[OverloadKneeRow]) -> KneeVerdict {
    let top = *OVERLOAD_MULTIPLIERS_PCT.last().expect("non-empty");
    let base = OVERLOAD_MULTIPLIERS_PCT[0];
    let at = |policy: AdmissionPolicy, pct: u64| {
        rows.iter()
            .filter(|r| r.policy == policy)
            .min_by_key(|r| r.multiplier_pct.abs_diff(pct))
            .expect("sweep covers every policy")
    };
    let peak_goodput = rows.iter().map(|r| r.goodput_per_s).max().unwrap_or(1) as f64;
    let ratio = |policy: AdmissionPolicy| {
        at(policy, top).lat.p99_ns as f64 / at(policy, base).lat.p99_ns.max(1) as f64
    };
    let unbounded_blowup = ratio(AdmissionPolicy::QueueUnbounded);
    let mut best = (f64::INFINITY, 0.0f64, AdmissionPolicy::RejectAtAdmission);
    for policy in [
        AdmissionPolicy::RejectAtAdmission,
        AdmissionPolicy::ShedOldest,
    ] {
        let r = ratio(policy);
        let frac = at(policy, top).goodput_per_s as f64 / peak_goodput;
        // Prefer the policy that meets the goodput floor; among those,
        // the tighter tail wins.
        let candidate_ok = frac >= 0.8;
        let best_ok = best.1 >= 0.8;
        if (candidate_ok && !best_ok) || (candidate_ok == best_ok && r < best.0) {
            best = (r, frac, policy);
        }
    }
    KneeVerdict {
        unbounded_blowup,
        bounded_ratio: best.0,
        goodput_fraction: best.1,
        bounded_policy: best.2,
        holds: unbounded_blowup >= 10.0 && best.0 <= 3.0 && best.1 >= 0.8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes a run put through the XDR marshaler, both directions.
    fn marshaled(r: &Run) -> u64 {
        r.m.channel.bytes_in + r.m.channel.bytes_out
    }

    #[test]
    fn table1_counts_real_lines() {
        let rows = table1();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(
                row.measured_loc > 100,
                "{} suspiciously small",
                row.component
            );
        }
    }

    #[test]
    fn code_lines_stop_at_the_test_module() {
        assert_eq!(
            code_lines("fn f() {}\n#[cfg(test)]\nmod tests { fn t() {} }"),
            1
        );
        // Only the column-0 attribute is the trailing module's.
        assert_eq!(code_lines("fn f() {\n    #[cfg(test)]\n    g();\n}"), 4);
        let lib = "pub mod a;\n#[cfg(test)]\n#[path = \"a_tests.rs\"]\nmod a_tests;\n";
        assert_eq!(test_only_files(lib).collect::<Vec<_>>(), ["a_tests.rs"]);
        assert_eq!(test_only_files("#[cfg(test)]\nmod tests {}\n").count(), 0);
    }

    #[test]
    fn code_lines_counts_derefs_and_skips_comments() {
        // Regression: every line starting with `*` used to count as a
        // block-comment continuation, so deref assignments vanished.
        assert_eq!(code_lines("*x = 1;"), 1);
        assert_eq!(code_lines("    *total += n;"), 1);
        assert_eq!(code_lines(" * doc"), 0);
        assert_eq!(code_lines("*/"), 0);
        assert_eq!(code_lines(" *"), 0);
        assert_eq!(
            code_lines("/* open\n * body\n */\n// line\n\nfn f() {\n    *p = 0;\n}\n"),
            3
        );
    }

    #[test]
    fn window_reports_only_what_happened_inside_it() {
        let k = Kernel::new();
        let before = ChannelStats {
            round_trips: 5,
            ring_posts: 9,
            ..ChannelStats::default()
        };
        // Outside: kernel, user and per-shard time, and a copy.
        k.charge(CpuClass::Kernel, 1_000);
        k.charge(CpuClass::User, 2_000);
        k.shard_scope(0, || k.charge(CpuClass::User, 4_000));
        k.charge_copy(CpuClass::Kernel, 64);

        let window = Window::open(&k, before);
        k.charge(CpuClass::Kernel, 10);
        k.charge(CpuClass::User, 20);
        k.shard_scope(0, || k.charge(CpuClass::User, 300));
        // Shard 1 first appears inside the window.
        k.shard_scope(1, || k.charge(CpuClass::Kernel, 500));
        k.charge_copy(CpuClass::User, 7);
        let after = ChannelStats {
            round_trips: 8,
            ring_posts: 21,
            ring_occupancy_hwm: 4,
            ..before
        };
        let m = window.close(after, "no.such.key");

        let copy_ns = 7 * costs::COPY_BYTE_NS;
        assert_eq!(m.busy_ns, 10 + 20 + 300 + 500 + copy_ns);
        assert_eq!(m.shard_sum_ns, 800);
        assert_eq!(m.shard_max_ns, 500);
        let serial_ns = 10 + 20 + copy_ns;
        assert_eq!(m.effective_ns, serial_ns + m.shard_max_ns);
        assert_eq!(m.bytes_copied, 7);
        assert_eq!(m.channel.round_trips, 3);
        assert_eq!(m.channel.ring_posts, 12);
        assert_eq!(m.channel.ring_occupancy_hwm, 4, "a maximum: closing value");
        assert_eq!(m.channel.doorbells, 0);
        assert_eq!(
            m.channel.descriptors_per_doorbell(),
            0.0,
            "no doorbell rang"
        );
        assert_eq!(m.lat.p99_ns, 0, "no request span under the key");
    }

    #[test]
    fn table3_cells_in_printed_order_with_shared_native_baselines() {
        let rows = table3();
        let cells: Vec<_> = rows.iter().map(|r| (r.driver, r.workload)).collect();
        assert_eq!(
            cells,
            [
                ("8139too", "netperf-send"),
                ("8139too", "netperf-recv"),
                ("E1000", "netperf-send"),
                ("E1000", "netperf-recv"),
                ("E1000", "udp-1-byte"),
                ("ens1371", "mpg123"),
                ("uhci-hcd", "tar"),
                ("psmouse", "move-and-click"),
                ("E1000", "netperf-send/shm"),
                ("8139too", "netperf-send/shm"),
            ]
        );
        // A `/shm` row compares against its driver's one native
        // netperf-send run: the native columns are that run's.
        for shm in rows.iter().filter(|r| r.workload == "netperf-send/shm") {
            let plain = rows
                .iter()
                .find(|r| r.driver == shm.driver && r.workload == "netperf-send")
                .expect("every shm row has a plain sibling");
            assert_eq!(shm.cpu_native, plain.cpu_native, "{}", shm.driver);
            assert_eq!(shm.init_native_s, plain.init_native_s, "{}", shm.driver);
            assert!(shm.doorbells > 0 && plain.doorbells == 0);
        }
        // No state survives a call: a second one returns equal rows.
        assert_eq!(format!("{rows:?}"), format!("{:?}", table3()));
    }

    #[test]
    fn table2_has_five_drivers_with_paper_shape() {
        let rows = table2();
        assert_eq!(rows.len(), 5);
        // Four of five drivers move >60% of functions out of the kernel;
        // uhci-hcd is the outlier (paper: only 4% converted to Java).
        let by_name: std::collections::HashMap<_, _> = rows.iter().map(|r| (r.name, r)).collect();
        for name in ["8139too", "E1000", "ens1371", "psmouse"] {
            assert!(
                by_name[name].user_fraction() > 0.6,
                "{name}: {}",
                by_name[name].user_fraction()
            );
        }
        let uhci = by_name["uhci-hcd"];
        assert!(
            uhci.decaf_funcs < uhci.nucleus_funcs,
            "uhci-hcd stays mostly kernel"
        );
        // Annotations stay a small fraction of the source (paper: <2%).
        for row in &rows {
            assert!(
                (row.annotations as f64) < 0.25 * row.loc as f64,
                "{}: {} annotations on {} lines",
                row.name,
                row.annotations,
                row.loc
            );
        }
    }

    #[test]
    fn transport_ablation_layers_stack() {
        let rows = transport_ablation();
        let (seed, delta, batch) = (&rows[0].m, &rows[1].m, &rows[2].m);
        let (seed_ch, delta_ch, batch_ch) = (&seed.channel, &delta.channel, &batch.channel);
        // Delta marshaling alone cuts bytes, not crossings.
        assert!(
            delta_ch.bytes_in < seed_ch.bytes_in,
            "{delta:?} vs {seed:?}"
        );
        assert_eq!(delta_ch.one_way_crossings, seed_ch.one_way_crossings);
        assert!(delta_ch.delta_objects > 0 && delta_ch.delta_fields_elided > 0);
        // Batching on top cuts crossings too, and total virtual time.
        assert!(
            batch_ch.bytes_in < seed_ch.bytes_in,
            "{batch:?} vs {seed:?}"
        );
        assert!(batch_ch.one_way_crossings < seed_ch.one_way_crossings);
        assert!(batch_ch.round_trips < seed_ch.round_trips);
        assert!(batch.busy_ns < seed.busy_ns);
        assert!(batch_ch.batched_calls > 0 && batch_ch.flushes > 0);
    }

    #[test]
    fn datapath_ablation_shmring_wins_on_bytes_and_time() {
        let rows = datapath_ablation();
        let (copy, batched, shm) = (&rows[0], &rows[1], &rows[2]);
        // The audit invariant: every configuration copies the same
        // payload bytes — the ablation varies marshaling, not copying.
        assert_eq!(
            copy.m.bytes_copied, shm.m.bytes_copied,
            "{copy:?} vs {shm:?}"
        );
        assert_eq!(batched.m.bytes_copied, shm.m.bytes_copied);
        // Batching removes crossings but not bytes.
        assert!(batched.m.channel.round_trips < copy.m.channel.round_trips);
        assert!(batched.m.busy_ns < copy.m.busy_ns);
        // Shmring removes the bytes: descriptors cross, payloads do not.
        assert!(
            marshaled(shm) * 20 < marshaled(batched),
            "shmring marshaled {} B vs batched {} B",
            marshaled(shm),
            marshaled(batched)
        );
        assert!(
            shm.m.busy_ns < batched.m.busy_ns,
            "shmring {} ns vs batched {} ns",
            shm.m.busy_ns,
            batched.m.busy_ns
        );
        assert!(shm.virtual_mbps() > batched.virtual_mbps());
        // Doorbell amortization: many descriptors per crossing.
        assert!(
            shm.m.channel.descriptors_per_doorbell() > 8.0,
            "descs/doorbell {}",
            shm.m.channel.descriptors_per_doorbell()
        );
        assert!(shm.m.channel.ring_occupancy_hwm >= 8);
    }

    #[test]
    fn storage_ablation_shmring_drops_copies_to_descriptor_traffic() {
        let rows = storage_ablation();
        let (copy, batched, shm) = (&rows[0], &rows[1], &rows[2]);
        // Identical offered workload across hostings.
        assert_eq!(copy.ops, shm.ops);
        assert_eq!(copy.payload_bytes, shm.payload_bytes);
        // The by-value hostings copy every bulk payload (both
        // directions); batching changes crossings, not copies.
        assert!(copy.m.bytes_copied > copy.payload_bytes, "{copy:?}");
        assert_eq!(batched.m.bytes_copied, copy.m.bytes_copied);
        // Batching the OUT bursts amortizes round trips.
        assert!(
            batched.m.channel.round_trips < copy.m.channel.round_trips,
            "batched {} vs copy {}",
            batched.m.channel.round_trips,
            copy.m.channel.round_trips
        );
        // The acceptance claim: under the shmring build, bulk payloads
        // are never CPU-copied — bytes_copied is zero, descriptor
        // traffic only — and payloads stay out of the marshaler.
        assert_eq!(shm.m.bytes_copied, 0, "{shm:?}");
        assert!(
            marshaled(shm) * 10 < marshaled(batched),
            "shmring marshaled {} B vs batched {} B",
            marshaled(shm),
            marshaled(batched)
        );
        let ring = &shm.m.channel;
        assert!(ring.doorbells > 0 && ring.descriptors_per_doorbell() > 2.0);
        // Cheaper on virtual CPU time too, so the ordering tells the
        // same story as the NIC ablation.
        assert!(
            shm.m.busy_ns < batched.m.busy_ns && batched.m.busy_ns < copy.m.busy_ns,
            "shm {} / batched {} / copy {} ns",
            shm.m.busy_ns,
            batched.m.busy_ns,
            copy.m.busy_ns
        );
        assert!(shm.virtual_mbps() > copy.virtual_mbps());
    }

    #[test]
    fn frag_ablation_buddy_sg_survives_pressure_first_fit_refuses() {
        // A reduced sweep, same acceptance property the full
        // `frag_ablation` gates: at a pressure where the free map is
        // scattered singles, first-fit refuses every multi-sector write
        // while holding enough free bytes (all its refusals classified
        // as fragmentation, none as exhaustion), and buddy+SG completes
        // every one of the same attempts — with zero copies on both.
        let ff = frag_run(decaf_shmring::AllocMode::FirstFit, 50);
        let sg = frag_run(decaf_shmring::AllocMode::BuddySg, 50);
        assert_eq!(ff.attempts, sg.attempts, "identical offered workload");
        assert!(ff.failures > 0, "{ff:?}");
        assert!(ff.frag_refusals > 0 && ff.exhausted == 0, "{ff:?}");
        assert_eq!(sg.failures, 0, "{sg:?}");
        assert_eq!(sg.frag_refusals, 0, "{sg:?}");
        assert_eq!(sg.completed, sg.attempts);
        assert_eq!(ff.m.bytes_copied, 0);
        assert_eq!(sg.m.bytes_copied, 0);
        assert!(
            sg.virtual_mbps() > 0.0 && ff.virtual_mbps() == 0.0,
            "throughput under pressure: sg {:.1} vs ff {:.1} Mb/s",
            sg.virtual_mbps(),
            ff.virtual_mbps()
        );
    }

    #[test]
    fn shard_ablation_parallelism_wins_without_copy_regression() {
        // Smaller run than the bench prints, same acceptance property:
        // shards=4 beats shards=1 on virtual-time netperf throughput,
        // with zero bytes_copied regression.
        let rows: Vec<Run> = [1usize, 4]
            .into_iter()
            .map(|n| shard_run(n, 1, 2_000))
            .collect();
        let (one, four) = (&rows[0], &rows[1]);
        assert_eq!(one.ops, four.ops, "identical offered stream");
        assert!(
            four.effective_mbps() > one.effective_mbps(),
            "shards=4 ({:.1} Mb/s) must beat shards=1 ({:.1} Mb/s)",
            four.effective_mbps(),
            one.effective_mbps()
        );
        assert!(
            four.m.effective_ns < one.m.effective_ns,
            "parallel wall estimate must shrink: {} vs {}",
            four.m.effective_ns,
            one.m.effective_ns
        );
        assert_eq!(
            four.m.bytes_copied, one.m.bytes_copied,
            "sharding must not change copy accounting"
        );
        // With one shard the sharded portion IS the critical path.
        assert_eq!(one.m.shard_max_ns, one.m.shard_sum_ns);
        // With four shards the critical path is strictly below the sum.
        assert!(four.m.shard_max_ns < four.m.shard_sum_ns);
    }

    #[test]
    fn storage_shard_ablation_parallelism_wins_and_stays_zero_copy() {
        // Smaller run than the bench prints, same acceptance properties:
        // shards=4 beats shards=1 on virtual-time storage throughput,
        // and bytes_copied is exactly zero at both widths (the
        // assertion inside storage_shard_run enforces it for every row).
        let rows: Vec<StorageShardRow> = [1usize, 4]
            .into_iter()
            .map(|n| storage_shard_run(n, 1, 8))
            .collect();
        let (one, four) = (&rows[0].run, &rows[1].run);
        assert_eq!(one.ops, four.ops, "identical offered workload");
        assert_eq!(one.m.bytes_copied, 0);
        assert_eq!(four.m.bytes_copied, 0);
        assert!(
            four.effective_mbps() > one.effective_mbps(),
            "shards=4 ({:.1} Mb/s) must beat shards=1 ({:.1} Mb/s)",
            four.effective_mbps(),
            one.effective_mbps()
        );
        assert!(
            four.m.effective_ns < one.m.effective_ns,
            "parallel wall estimate must shrink: {} vs {}",
            four.m.effective_ns,
            one.m.effective_ns
        );
        // With one shard the sharded portion IS the critical path; with
        // four the critical path sits strictly below the sum.
        assert_eq!(one.m.shard_max_ns, one.m.shard_sum_ns);
        assert!(four.m.shard_max_ns < four.m.shard_sum_ns);
        let used = rows[1].shards_used;
        assert!(used >= 2, "{used} shards used");
    }

    #[test]
    fn async_sweep_overlaps_at_every_rate() {
        // The tentpole acceptance: at every offered rate the async
        // transport's busy time is at or below batched, with a real
        // overlap credit and a closed token ledger (the asserts inside
        // async_transport_sweep enforce all three per row).
        let rows = async_transport_sweep();
        assert_eq!(rows.len(), ASYNC_SWEEP_RATES.len());
        for row in &rows {
            assert!(row.launched.channel.tokens_issued > 0, "{row:?}");
            assert!(row.saving() >= 0.0, "{row:?}");
        }
        // At the fastest pacing the deadline never fires first, so the
        // watermark launches full batches and overlap still shows up.
        assert!(rows.last().unwrap().launched.channel.overlap_ns > 0);
    }

    #[test]
    fn rx_mode_sweep_crossover_is_monotone() {
        // The interrupt-vs-poll acceptance: interrupt wins the low end,
        // poll wins the high end, the winner flips exactly once, and
        // neither mode copies a payload byte (asserted per run inside
        // rx_mode_run / rx_mode_sweep).
        let rows = rx_mode_sweep();
        assert_eq!(rows.len(), RX_SWEEP_RATES.len());
        assert_eq!(rows.first().unwrap().winner(), "interrupt");
        assert_eq!(rows.last().unwrap().winner(), "poll");
        let crossover = rx_crossover_pps(&rows).expect("crossover exists");
        assert!(
            crossover > RX_SWEEP_RATES[0] && crossover <= RX_SWEEP_RATES[5],
            "crossover at {crossover} pps"
        );
    }

    #[test]
    fn rx_poll_handles_non_divisor_rates() {
        // Regression: the poll branch reconstructed arrival counts as
        // tick_ns / gap_ns and asserted the reconstruction, which only
        // held when the offered rate divided the 50 µs probe grid.
        // 3 000 and 7 000 pps do not (gap 333 333.3 / 142 857.1 ns);
        // every frame must still be posted at the next probe after its
        // arrival and delivered with nothing dropped.
        use decaf_drivers::support::RxMode;
        for pps in [3_000u32, 7_000] {
            assert_ne!(
                1_000_000_000 % pps as u64,
                0,
                "{pps} pps must exercise the non-divisor path"
            );
            // The runner itself asserts every scheduled frame delivered.
            let run = rx_mode_run(RxMode::Poll, pps);
            assert_eq!(
                run.channel.doorbells, 0,
                "poll mode rang a doorbell at {pps} pps"
            );
        }
    }

    #[test]
    fn rx_poll_handles_off_grid_bursty_schedule() {
        // Off-grid arrivals: a seeded jittered schedule where nothing
        // lands on a probe-tick boundary and clumps exceed the per-tick
        // budget, forcing carry-over to later ticks and extra ticks past
        // the nominal horizon. Both modes must deliver every frame.
        use decaf_drivers::support::{RxMode, RX_POLL_BUDGET, RX_POLL_TICK_NS};
        let mut rng = SplitMix64::new(0xDECAF0008);
        let mut at = 0u64;
        let mut schedule = Vec::new();
        while schedule.len() < 2_000 {
            // A clump of up to ~2× the poll budget lands within a few
            // microseconds, then a gap of up to ~2 ms.
            let clump = 1 + (rng.next_u64() % (2 * RX_POLL_BUDGET as u64)) as usize;
            for _ in 0..clump {
                at += 1 + rng.next_u64() % 3_000;
                schedule.push(at);
            }
            at += rng.next_u64() % 2_000_000;
        }
        schedule.truncate(2_000);
        assert!(
            schedule.iter().any(|t| t % RX_POLL_TICK_NS != 0),
            "schedule must contain off-grid arrivals"
        );
        for mode in [RxMode::Interrupt, RxMode::Poll] {
            // Every frame delivered is asserted inside the runner.
            let run = rx_mode_run_schedule(mode, &schedule);
            assert!(run.lat.p99_ns > 0, "{mode:?} recorded no latency samples");
        }
    }

    #[test]
    fn overload_knee_acceptance() {
        // The headline: unbounded queueing past saturation blows the
        // p99 tail up ≥10×; an admission policy holds it within 3× of
        // its own pre-knee tail at ≥80% of peak goodput.
        let (_, rows) = overload_sweep();
        let v = knee_verdict(&rows);
        assert!(
            v.holds,
            "knee acceptance failed: blowup {:.1}× bounded {:.1}× goodput {:.2}\n{rows:#?}",
            v.unbounded_blowup, v.bounded_ratio, v.goodput_fraction
        );
        for r in &rows {
            // Per-row sanity on top of overload_run's internal ledger
            // asserts: nothing admitted may be silently lost.
            assert_eq!(
                r.offered,
                r.admitted + r.rejected,
                "{} at {}%: offered splits into admitted + rejected",
                r.policy.name(),
                r.multiplier_pct
            );
            assert!(r.completed > 0, "every cell completed some requests");
        }
        // Unbounded admits everything; shed-oldest never rejects at the
        // door; reject-at-admission never sheds from the queue.
        assert!(rows
            .iter()
            .filter(|r| r.policy == AdmissionPolicy::QueueUnbounded)
            .all(|r| r.rejected == 0 && r.shed == 0));
        assert!(rows
            .iter()
            .filter(|r| r.policy == AdmissionPolicy::ShedOldest)
            .all(|r| r.rejected == 0));
        assert!(rows
            .iter()
            .filter(|r| r.policy == AdmissionPolicy::RejectAtAdmission)
            .all(|r| r.shed == 0));
    }

    #[test]
    fn knee_cells_are_found_one_percent_off_their_nominal_rate() {
        // Both divisions of the sweep floor, so a saturation rate that is
        // not a multiple of 100 used to print `pct - 1` and leave
        // `knee_verdict` without its cell.
        let sat = 654_451;
        let run = overload_run(AdmissionPolicy::QueueUnbounded, sat * 40 / 100, sat, None);
        assert_eq!(run.multiplier_pct, 40);

        let sweep = |off: u64| -> Vec<OverloadKneeRow> {
            let mut rows = Vec::new();
            for (p, policy) in AdmissionPolicy::ALL.into_iter().enumerate() {
                for (i, pct) in OVERLOAD_MULTIPLIERS_PCT.into_iter().enumerate() {
                    // Unbounded blows its tail up past saturation, the
                    // bounded policies hold theirs.
                    let blowup = policy == AdmissionPolicy::QueueUnbounded && pct > 100;
                    let p99_ns = if blowup {
                        50_000
                    } else {
                        1_000 + 100 * i as u64
                    };
                    rows.push(OverloadKneeRow {
                        policy,
                        multiplier_pct: pct - off,
                        goodput_per_s: 1_000 * (i as u64 + 1) - 10 * p as u64,
                        lat: LatencyPercentiles {
                            p50_ns: 500,
                            p99_ns,
                            p999_ns: 2 * p99_ns,
                        },
                        ..run
                    });
                }
            }
            rows
        };
        let (nominal, off_by_one) = (knee_verdict(&sweep(0)), knee_verdict(&sweep(1)));
        assert!(nominal.holds, "{nominal:?}");
        assert_eq!(format!("{off_by_one:?}"), format!("{nominal:?}"));
    }

    #[test]
    fn overload_runs_are_deterministic() {
        // The whole rig — schedules, timer dispatch, service charges —
        // is seeded virtual time: two runs of the same cell agree on
        // every field of the row.
        let sat = overload_saturation_rate();
        let a = overload_run(AdmissionPolicy::ShedOldest, sat * 3 / 2, sat, None);
        let b = overload_run(AdmissionPolicy::ShedOldest, sat * 3 / 2, sat, None);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.goodput_per_s, b.goodput_per_s);
        assert_eq!(a.lat.p50_ns, b.lat.p50_ns);
        assert_eq!(a.lat.p99_ns, b.lat.p99_ns);
        assert_eq!(a.lat.p999_ns, b.lat.p999_ns);
    }

    #[test]
    fn table4_shape_matches_paper() {
        let study = table4();
        assert_eq!(study.total.patches_applied, 320);
        assert_eq!(study.total.interface_changes, 23);
        assert!(
            study.total.decaf_lines > 8 * study.total.nucleus_lines,
            "decaf {} vs nucleus {}",
            study.total.decaf_lines,
            study.total.nucleus_lines
        );
    }
}
