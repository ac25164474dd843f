//! The six workloads: what one repetition sets up, times and checks.
//!
//! Every repetition has the same three parts. *Set-up* (a fresh
//! `Kernel`, driver install, `netdev_open`; a warm-up call where the
//! timed call builds its own kernels) is timed on its own and feeds
//! `setup_s`. The *timed region* is fixed work — its size comes from
//! [`Size`], never from a clock — measured on the host clock from outside
//! and on the virtual clock through `Kernel::snapshot`. The *checks* run
//! after the timed region and never inside it.
//!
//! The benchmark only ever calls the program's public entry points; which
//! ones is pinned in `README.md` so a refactor keeps them callable.

use std::rc::Rc;
use std::time::Instant;

use decaf_core::drivers::support::RX_POLL_TICK_NS;
use decaf_core::drivers::{e1000, ens1371, psmouse, rtl8139, uhci, workloads};
use decaf_core::experiments;
use decaf_core::simdev::uhci::SECTOR_SIZE;
use decaf_core::simkernel::clock::ClockSnapshot;
use decaf_core::simkernel::decaf_trace::{TraceEvent, Tracer};
use decaf_core::simkernel::{costs, Kernel};
use decaf_core::xpc::{AdmissionPolicy, ChannelStats};

/// Workload names, in the order `run` interleaves them. Stable: every
/// later PR is judged by these names.
pub const NAMES: [&str; 6] = [
    "ctl_init",
    "net_send_shard4",
    "net_recv_poll",
    "tar_rw_shard4",
    "overload_mix",
    "table3",
];

/// One line per workload on why it is here (also `BENCHMARK.json`'s `why`).
pub fn why(name: &str) -> &'static str {
    match name {
        "ctl_init" => "closed loop: load all five decaf drivers, open both NICs, idle 2 virtual s, remove - the paper's slow-init column; slicer + xdr + xpc do the work, shmring none",
        "net_send_shard4" => "closed loop paced 4000 pkt/s over the 4-shard zero-copy e1000 TX path - rings, doorbell coalescing, async tokens, simdev; xdr/xpc marshal almost nothing",
        "net_recv_poll" => "paced injection 16000 pkt/s into the poll-mode e1000 RX path - the same rings driven by the 50 us timer grid with zero doorbells, so a change that helps send but hurts receive shows",
        "tar_rw_shard4" => "closed loop tar to and from 4 flash LUNs over the 4-shard uhci URB path - buddy + scatter-gather sector pool, URB ring set, UHCI TD chains; the NIC path does nothing",
        "overload_mix" => "open loop at 1.5x saturation, Poisson net + burst storage arrivals under reject-at-admission - the only workload with a backlog; admission control and kernel timers dominate",
        "table3" => "the paper's Table 3: five drivers native and decaf with a kernel-resident data path - the fidelity anchor; simkernel + simdev dominate, xpc only on init and watchdog",
        _ => "",
    }
}

/// The unit every per-op metric of a workload divides by.
pub fn op_unit(name: &str) -> &'static str {
    match name {
        "ctl_init" => "driver load",
        "net_send_shard4" => "packet sent",
        "net_recv_poll" => "packet received",
        "tar_rw_shard4" => "completed data URB",
        "overload_mix" => "offered arrival",
        "table3" => "Table-3 row",
        _ => "",
    }
}

// ------------------------------------------------------------- inputs

/// SplitMix64 — the benchmark's own generator, so the inputs a seed
/// produces do not change when the program's generators do.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// Packet lengths the network workloads draw from: minimum frame, a
/// mid-size frame, full MTU.
pub const PKT_LENS: [usize; 3] = [64, 512, 1500];
/// Sectors per file the storage workload draws from; 24, 40 and 60 are
/// not multiples of the 8-sector readahead window, 64 is.
pub const SECTORS_PER_FILE: [u32; 4] = [24, 40, 60, 64];

/// What `--seed` decides. Every seed uses every value of [`PKT_LENS`] and
/// [`SECTORS_PER_FILE`] exactly once per cycle and only the *order*
/// changes: two seeds then do the same total work, so the host-clock
/// numbers of two seeds are comparable, while order-dependent state (ring
/// occupancy at a length change, pool fragmentation after a short file)
/// still varies with the seed. The program never sees the seed, only
/// these values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Packet length of each `net_send_shard4` segment.
    pub send_lens: [usize; 3],
    /// Packet length of each `net_recv_poll` segment.
    pub recv_lens: [usize; 3],
    /// Sectors per file of each `tar_rw_shard4` archive.
    pub tar_sectors: [u32; 4],
}

impl Inputs {
    /// Generates the inputs of `seed`.
    pub fn from_seed(seed: u64) -> Inputs {
        let mut rng = SplitMix(seed ^ 0xDECA_F0BE_0C11);
        let mut inputs = Inputs {
            send_lens: PKT_LENS,
            recv_lens: PKT_LENS,
            tar_sectors: SECTORS_PER_FILE,
        };
        rng.shuffle(&mut inputs.send_lens);
        rng.shuffle(&mut inputs.recv_lens);
        rng.shuffle(&mut inputs.tar_sectors);
        inputs
    }
}

/// How much one repetition does. [`Size::full`] is what the benchmark
/// measures and is the same on every commit; [`Size::quick`] is the tiny
/// size the determinism test runs in a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `ctl_init`: five-driver loads per repetition.
    pub ctl_loads: u32,
    /// `ctl_init`: virtual seconds each load idles (watchdog crossings).
    pub ctl_idle_s: u64,
    /// `net_send_shard4`: offered packets per virtual second.
    pub send_pps: u32,
    /// `net_send_shard4`: virtual seconds per packet-length segment.
    pub send_seg_s: u32,
    /// `net_recv_poll`: injected packets per virtual second.
    pub recv_pps: u32,
    /// `tar_rw_shard4`: files per LUN.
    pub tar_files: u32,
    /// `overload_mix`: open-loop runs per repetition.
    pub overload_runs: u32,
}

/// LUNs (and shards) the storage workload drives.
pub const TAR_LUNS: u32 = 4;
/// Shards of the two sharded builds.
pub const SHARDS: usize = 4;

impl Size {
    /// The measured size. A repetition is 20–120 ms of host time, so a
    /// ten-second run holds on the order of a hundred of them.
    pub const fn full() -> Size {
        Size {
            ctl_loads: 20,
            ctl_idle_s: 2,
            send_pps: 4_000,
            send_seg_s: 2,
            recv_pps: 16_000,
            tar_files: 8,
            overload_runs: 20,
        }
    }

    /// The test size.
    #[cfg(test)]
    pub const fn quick() -> Size {
        Size {
            ctl_loads: 1,
            ctl_idle_s: 1,
            send_pps: 150,
            send_seg_s: 1,
            recv_pps: 400,
            tar_files: 1,
            overload_runs: 1,
        }
    }
}

// ------------------------------------------------------------ results

/// Failed post-run checks of one repetition, by description.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// Descriptions of the ones that failed.
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn eq<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T, what: &str) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// The virtual-clock and count section of one repetition: everything in
/// it is a pure function of the inputs, so two commits (or a traced and
/// an untraced repetition) compare with `==`. `None` = undefined on the
/// workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Virt {
    /// Operations completed in the timed region.
    pub ops: u64,
    /// Operations attempted (offered arrivals on `overload_mix`).
    pub attempted: u64,
    /// Attempted operations refused, shed or dropped.
    pub failed_ops: u64,
    /// The part of `failed_ops` whose outcome was *wrong*: everything on
    /// the closed-loop workloads, but on `overload_mix` only arrivals that
    /// were admitted and then neither completed nor shed — a refusal at
    /// 1.5× saturation is the admission policy's correct answer.
    pub wrong_ops: u64,
    /// Virtual ns the timed region took.
    pub elapsed_ns: Option<u64>,
    /// Kernel + user busy virtual ns in the timed region.
    pub busy_ns: Option<u64>,
    /// User/kernel round trips.
    pub crossings: Option<u64>,
    /// Marshaled `bytes_in + bytes_out`.
    pub wire_bytes: Option<u64>,
    /// `KernelStats::bytes_copied`.
    pub bytes_copied: Option<u64>,
    /// Virtual ops/s when it is not `ops / elapsed_ns` (overload goodput).
    pub ops_per_s: Option<f64>,
    /// Request-span latency median and 99th percentile, virtual ns. From
    /// the tracer's histograms, so only a traced repetition has them
    /// (the overload row carries its own).
    pub p50_ns: Option<u64>,
    /// See `p50_ns`.
    pub p99_ns: Option<u64>,
    /// Largest decaf `init_latency_ns` among the drivers loaded.
    pub init_ns: Option<u64>,
    /// Smallest decaf/native throughput ratio among Table-3 rows.
    pub rel_native_min: Option<f64>,
}

impl Virt {
    /// This section without the two numbers only a tracer can supply —
    /// the form in which traced and untraced repetitions must be equal.
    pub fn without_latency(&self) -> Virt {
        Virt {
            p50_ns: None,
            p99_ns: None,
            ..self.clone()
        }
    }
}

/// One repetition's outcome.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host ns of set-up.
    pub setup_host_ns: u64,
    /// Host ns of the timed region.
    pub timed_host_ns: u64,
    /// Host ns and ops of named parts of the timed region
    /// (`tar.write`, `tar.read`).
    pub phases: Vec<(&'static str, u64, u64)>,
    /// The virtual/count section.
    pub virt: Virt,
    /// The post-run checks.
    pub checks: Checks,
    /// Sector-pool refusals, exhausted + fragmented (`tar_rw_shard4`).
    pub pool_refusals: Option<u64>,
    /// Trace events of the timed region (traced repetitions only).
    pub events: Vec<TraceEvent>,
}

/// Tracers a traced repetition installed, one per kernel it could reach.
/// Kernels restart virtual time at 0, so the events of kernel *n* are
/// shifted past the end of kernel *n − 1* when merged: one monotonic
/// timeline, per-span durations untouched.
#[derive(Default)]
struct Tracing {
    enabled: bool,
    events: Vec<TraceEvent>,
    p50_p99: Option<(u64, u64)>,
}

impl Tracing {
    fn install(&self, kernel: &Kernel) -> Option<Rc<Tracer>> {
        self.enabled.then(|| {
            let t = Tracer::new();
            kernel.set_tracer(Some(Rc::clone(&t)));
            t
        })
    }

    /// Detaches `tracer` and folds its events (and, when `hist` names a
    /// request-span histogram, its latency percentiles) into the record.
    fn collect(&mut self, kernel: &Kernel, tracer: Option<Rc<Tracer>>, hist: Option<&str>) {
        let Some(t) = tracer else { return };
        kernel.set_tracer(None);
        let offset = self.events.last().map_or(0, |e| e.ts);
        self.events.extend(t.events().into_iter().map(|mut e| {
            e.ts += offset;
            e
        }));
        if let Some(h) = hist.and_then(|key| t.registry().histogram(key)) {
            self.p50_p99 = Some((h.p50(), h.p99()));
        }
    }
}

fn busy(s: &ClockSnapshot) -> u64 {
    s.kernel_busy_ns + s.user_busy_ns
}

fn wire(s: &ChannelStats) -> u64 {
    s.bytes_in + s.bytes_out
}

/// Accumulates into a counter that starts out undefined.
fn add(total: &mut Option<u64>, n: u64) {
    *total = Some(total.unwrap_or(0) + n);
}

/// Runs one repetition of workload `name`.
///
/// # Panics
/// Panics on an unknown workload name, and wherever the program itself
/// panics: a set-up or workload call that returns an error is a broken
/// benchmark, not a measurement.
pub fn run_rep(name: &str, inputs: &Inputs, size: &Size, traced: bool) -> Rep {
    let mut tracing = Tracing {
        enabled: traced,
        ..Tracing::default()
    };
    let mut rep = match name {
        "ctl_init" => ctl_init(size, &mut tracing),
        "net_send_shard4" => net_send_shard4(inputs, size, &mut tracing),
        "net_recv_poll" => net_recv_poll(inputs, size, &mut tracing),
        "tar_rw_shard4" => tar_rw_shard4(inputs, size, &mut tracing),
        "overload_mix" => overload_mix(size),
        "table3" => table3(),
        other => panic!("unknown workload {other:?}"),
    };
    if let Some((p50, p99)) = tracing.p50_p99 {
        rep.virt.p50_ns = Some(p50);
        rep.virt.p99_ns = Some(p99);
    }
    rep.events = tracing.events;
    rep
}

// ------------------------------------------------------------ ctl_init

fn ctl_init(size: &Size, tracing: &mut Tracing) -> Rep {
    let mut checks = Checks::default();
    let mut virt = Virt::default();

    // Set-up: the machines to load onto, and one untimed warm-up load so
    // lazily initialised state is paid for here, where `setup_s` sees it.
    let t0 = Instant::now();
    let kernels: Vec<Kernel> = (0..size.ctl_loads).map(|_| Kernel::new()).collect();
    load_five(
        &Kernel::new(),
        size.ctl_idle_s,
        &mut Virt::default(),
        &mut Checks::default(),
    );
    let setup_host_ns = t0.elapsed().as_nanos() as u64;

    let mut timed_host_ns = 0;
    // By value: each machine is dropped once its load is over, so peak
    // memory is one loaded machine, not `ctl_loads` of them.
    for k in kernels {
        let tracer = tracing.install(&k);
        timed_host_ns += load_five(&k, size.ctl_idle_s, &mut virt, &mut checks);
        tracing.collect(&k, tracer, None);
    }
    virt.ops = 5 * u64::from(size.ctl_loads);
    virt.attempted = virt.ops;
    Rep {
        setup_host_ns,
        timed_host_ns,
        virt,
        checks,
        ..Rep::default()
    }
}

/// Loads the five decaf drivers onto `k`, opens both NICs, idles, removes.
/// Returns the host ns of exactly that; reading the counters and checking
/// them (which must happen while the handles are alive) is not timed.
fn load_five(k: &Kernel, idle_s: u64, virt: &mut Virt, checks: &mut Checks) -> u64 {
    let before = k.snapshot();
    let t = Instant::now();
    let e = e1000::decaf::install(k, "eth0").expect("e1000 installs");
    let r = rtl8139::install_decaf(k, "eth1").expect("rtl8139 installs");
    let s = ens1371::install_decaf(k, "card0").expect("ens1371 installs");
    let u = uhci::install_decaf(k, "uhci0").expect("uhci installs");
    let m = psmouse::install_decaf(k, "mouse0").expect("psmouse installs");
    k.netdev_open("eth0").expect("eth0 opens");
    k.netdev_open("eth1").expect("eth1 opens");
    k.schedule_point();
    k.run_for(idle_s * 1_000_000_000);
    let loaded_host_ns = t.elapsed().as_nanos() as u64;

    let inits = [
        e.init_latency_ns,
        r.init_latency_ns,
        s.init_latency_ns,
        u.init_latency_ns,
        m.init_latency_ns,
    ];
    let crossings = [
        e.crossings(),
        r.crossings(),
        s.crossings(),
        u.crossings(),
        m.crossings(),
    ];
    let wire_bytes: u64 = [&e.channel, &r.channel, &s.channel, &u.channel, &m.channel]
        .iter()
        .map(|ch| wire(&ch.stats()))
        .sum();
    checks.check(inits.iter().all(|&ns| ns > 0), || {
        format!("a driver reported zero init latency: {inits:?}")
    });
    checks.check(crossings.iter().all(|&c| c > 0), || {
        format!("a driver initialised without crossing: {crossings:?}")
    });
    checks.eq(k.modules().len(), 5, "modules loaded");

    // Only the two NICs have a `remove`; the other three unload by drop.
    let t = Instant::now();
    e.remove();
    r.remove();
    drop((s, u, m));
    let removed_host_ns = t.elapsed().as_nanos() as u64;
    checks.check(!k.netdev_exists("eth0") && !k.netdev_exists("eth1"), || {
        "a NIC survived remove".into()
    });
    checks.check(k.violations().is_empty(), || {
        format!("kernel-rule violations: {:?}", k.violations())
    });

    let after = k.snapshot();
    add(&mut virt.elapsed_ns, before.elapsed_ns(&after));
    add(&mut virt.busy_ns, busy(&after) - busy(&before));
    add(&mut virt.crossings, crossings.iter().sum());
    add(&mut virt.wire_bytes, wire_bytes);
    add(&mut virt.bytes_copied, k.stats().bytes_copied);
    virt.init_ns = virt.init_ns.max(inits.into_iter().max());
    loaded_host_ns + removed_host_ns
}

// ----------------------------------------------------- net_send_shard4

fn net_send_shard4(inputs: &Inputs, size: &Size, tracing: &mut Tracing) -> Rep {
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let k = Kernel::new();
    let drv = e1000::decaf::install_sharded(&k, "eth0", SHARDS).expect("sharded e1000 installs");
    k.netdev_open("eth0").expect("eth0 opens");
    k.schedule_point();
    let setup_host_ns = t0.elapsed().as_nanos() as u64;

    let before = k.snapshot();
    let stats_before = drv.channels.stats();
    let copied_before = k.stats().bytes_copied;
    let net_before = k.net_stats("eth0");
    let tracer = tracing.install(&k);

    let t = Instant::now();
    let mut sent = 0;
    for &len in &inputs.send_lens {
        sent += workloads::netperf_send(&k, "eth0", size.send_seg_s, size.send_pps, len)
            .expect("netperf send")
            .ops;
    }
    // Settle inside the timed region: coalesced doorbells flush, parked
    // async crossings launch and are harvested — part of sending.
    k.run_for(4 * costs::DOORBELL_COALESCE_NS);
    drv.channels.flush_all(&k).expect("final flush");
    drv.channels.harvest_all(&k);
    let timed_host_ns = t.elapsed().as_nanos() as u64;

    tracing.collect(&k, tracer, Some("net.pkt_ns"));
    let after = k.snapshot();
    let s = drv.channels.stats();
    let net = k.net_stats("eth0");
    let offered = 3 * u64::from(size.send_seg_s) * u64::from(size.send_pps);
    let wire_bytes = wire(&s) - wire(&stats_before);

    checks.eq(sent, offered, "packets the workload reports sent");
    checks.eq(
        net.tx_packets - net_before.tx_packets,
        offered,
        "TX packets the NIC counted",
    );
    checks.eq(
        net.rx_packets - net_before.rx_packets,
        offered,
        "loopback RX packets",
    );
    checks.eq(net.tx_errors, 0, "TX errors");
    checks.check(drv.tx_set.conserved(), || {
        "TX descriptor conservation violated".into()
    });
    checks.check(drv.rx_set.conserved(), || {
        "RX descriptor conservation violated".into()
    });
    checks.eq(drv.tx_set.in_flight(), 0, "TX descriptors in flight");
    checks.eq(drv.rx_set.in_flight(), 0, "RX descriptors in flight");
    checks.check(wire_bytes < offered * 64, || {
        format!("payload leaked into the marshaler: {wire_bytes} wire bytes for {offered} packets")
    });
    checks.eq(
        s.tokens_issued,
        s.tokens_harvested + s.tokens_cancelled,
        "completion-token ledger",
    );
    checks.eq(
        drv.channels.tokens_outstanding(),
        0,
        "completion tokens outstanding",
    );
    checks.check(k.violations().is_empty(), || {
        format!("kernel-rule violations: {:?}", k.violations())
    });

    Rep {
        setup_host_ns,
        timed_host_ns,
        virt: Virt {
            ops: sent,
            attempted: offered,
            failed_ops: offered - sent.min(offered),
            wrong_ops: offered - sent.min(offered),
            elapsed_ns: Some(before.elapsed_ns(&after)),
            busy_ns: Some(busy(&after) - busy(&before)),
            crossings: Some(s.round_trips - stats_before.round_trips),
            wire_bytes: Some(wire_bytes),
            bytes_copied: Some(k.stats().bytes_copied - copied_before),
            ..Virt::default()
        },
        checks,
        ..Rep::default()
    }
}

// ------------------------------------------------------- net_recv_poll

fn net_recv_poll(inputs: &Inputs, size: &Size, tracing: &mut Tracing) -> Rep {
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let k = Kernel::new();
    let drv = e1000::decaf::install_shmring_poll(&k, "eth0").expect("poll-mode e1000 installs");
    k.netdev_open("eth0").expect("eth0 opens");
    k.schedule_point();
    let setup_host_ns = t0.elapsed().as_nanos() as u64;

    let before = k.snapshot();
    let stats_before = drv.channel.stats();
    let copied_before = k.stats().bytes_copied;
    let rx_before = k.net_stats("eth0").rx_packets;
    let tracer = tracing.install(&k);

    let t = Instant::now();
    let dev = Rc::clone(&drv.dev);
    let inject = move |k: &Kernel, frame: &[u8]| dev.borrow_mut().inject_rx(k, frame);
    let mut reported = 0;
    for &len in &inputs.recv_lens {
        reported += workloads::netperf_recv(&k, "eth0", 1, size.recv_pps, len, &inject)
            .expect("netperf recv")
            .ops;
    }
    // The last frame of a segment sits in the RX ring until the next
    // 50 µs probe, so `netperf_recv` under-reports by one (README,
    // "findings"). One more poll tick delivers it; count from the NIC.
    k.run_for(RX_POLL_TICK_NS);
    let timed_host_ns = t.elapsed().as_nanos() as u64;

    tracing.collect(&k, tracer, Some("net.rx_ns"));
    let after = k.snapshot();
    let s = drv.channel.stats();
    let injected = 3 * u64::from(size.recv_pps);
    let received = k.net_stats("eth0").rx_packets - rx_before;

    checks.eq(received, injected, "packets delivered to the stack");
    checks.check(reported <= injected && reported + 3 >= injected, || {
        format!("netperf_recv reported {reported} of {injected}")
    });
    checks.eq(
        s.doorbells - stats_before.doorbells,
        0,
        "doorbells in poll mode",
    );
    if let Some(rx) = &drv.rx_path {
        checks.eq(rx.pending(), 0, "descriptors stranded in the RX ring");
    }
    checks.check(k.violations().is_empty(), || {
        format!("kernel-rule violations: {:?}", k.violations())
    });

    Rep {
        setup_host_ns,
        timed_host_ns,
        virt: Virt {
            ops: received,
            attempted: injected,
            failed_ops: injected - received.min(injected),
            wrong_ops: injected - received.min(injected),
            elapsed_ns: Some(before.elapsed_ns(&after)),
            busy_ns: Some(busy(&after) - busy(&before)),
            crossings: Some(s.round_trips - stats_before.round_trips),
            wire_bytes: Some(wire(&s) - wire(&stats_before)),
            bytes_copied: Some(k.stats().bytes_copied - copied_before),
            ..Virt::default()
        },
        checks,
        ..Rep::default()
    }
}

// ------------------------------------------------------- tar_rw_shard4

fn tar_rw_shard4(inputs: &Inputs, size: &Size, tracing: &mut Tracing) -> Rep {
    let mut rep = Rep {
        phases: vec![("tar.write", 0, 0), ("tar.read", 0, 0)],
        ..Rep::default()
    };
    // One archive per file size, each onto a freshly installed driver, in
    // the seed's order.
    for &sectors_per_file in &inputs.tar_sectors {
        tar_once(size.tar_files, sectors_per_file, tracing, &mut rep);
    }
    rep
}

fn tar_once(files: u32, sectors_per_file: u32, tracing: &mut Tracing, rep: &mut Rep) {
    let checks = &mut rep.checks;
    let t0 = Instant::now();
    let k = Kernel::new();
    let drv = uhci::install_sharded(&k, "uhci0", SHARDS).expect("sharded uhci installs");
    rep.setup_host_ns += t0.elapsed().as_nanos() as u64;

    let before = k.snapshot();
    let stats_before = drv.channels.stats();
    let copied_before = k.stats().bytes_copied;
    let tracer = tracing.install(&k);

    let t = Instant::now();
    let w = workloads::tar_to_flash_luns(&k, "uhci0", TAR_LUNS, files, sectors_per_file)
        .expect("multi-LUN tar write");
    let write_host_ns = t.elapsed().as_nanos() as u64;
    let r = workloads::tar_from_flash_luns(&k, "uhci0", TAR_LUNS, files, sectors_per_file)
        .expect("multi-LUN streaming read");
    k.run_for(4 * costs::DOORBELL_COALESCE_NS);
    let timed_host_ns = t.elapsed().as_nanos() as u64;

    tracing.collect(&k, tracer, Some("tar.urb_ns"));
    let after = k.snapshot();
    let s = drv.channels.stats();
    let sectors = u64::from(TAR_LUNS * files * sectors_per_file);

    checks.eq(w.ops, sectors, "sectors written");
    checks.eq(r.ops, sectors, "sectors read back");
    checks.eq(r.bytes, sectors * SECTOR_SIZE as u64, "bytes read back");
    checks.eq(
        k.stats().bytes_copied - copied_before,
        0,
        "bulk payload bytes CPU-copied",
    );
    checks.check(drv.urb_path.conserved(), || {
        "per-shard URB conservation violated".into()
    });
    checks.eq(drv.urb_path.in_flight(), 0, "URBs in flight");
    let pool = drv.urb_path.set().pool();
    checks.eq(pool.in_use_sectors(), 0, "sector runs leaked");
    checks.check(pool.conserved(), || {
        "sector-pool conservation violated".into()
    });
    checks.check(k.violations().is_empty(), || {
        format!("kernel-rule violations: {:?}", k.violations())
    });
    // Flash holds exactly the pattern `tar_to_flash_luns` writes: file
    // `f`'s sectors on LUN `l` are filled with `(f & 0xff) ^ l`.
    let expected: Vec<(usize, u32, Vec<u8>)> = (0..TAR_LUNS)
        .flat_map(|lun| {
            (0..files * sectors_per_file).map(move |sector| {
                let fill = ((sector / sectors_per_file) & 0xff) as u8 ^ lun as u8;
                (lun as usize, sector, vec![fill; SECTOR_SIZE])
            })
        })
        .collect();
    checks.check(drv.dev.borrow().flash_contents() == expected, || {
        "flash contents differ from the written pattern".into()
    });

    rep.timed_host_ns += timed_host_ns;
    rep.phases[0].1 += write_host_ns;
    rep.phases[0].2 += w.ops;
    rep.phases[1].1 += timed_host_ns - write_host_ns;
    rep.phases[1].2 += r.ops;
    let v = &mut rep.virt;
    v.ops += w.ops + r.ops;
    v.attempted += 2 * sectors;
    let missing = 2 * sectors - (w.ops + r.ops).min(2 * sectors);
    v.failed_ops += missing;
    v.wrong_ops += missing;
    let ps = pool.stats();
    rep.pool_refusals = Some(rep.pool_refusals.unwrap_or(0) + ps.exhausted + ps.frag_refusals);
    add(&mut v.elapsed_ns, before.elapsed_ns(&after));
    add(&mut v.busy_ns, busy(&after) - busy(&before));
    add(&mut v.crossings, s.round_trips - stats_before.round_trips);
    add(&mut v.wire_bytes, wire(&s) - wire(&stats_before));
    add(&mut v.bytes_copied, k.stats().bytes_copied - copied_before);
}

// -------------------------------------------------------- overload_mix

/// Offered rate as a percentage of the calibrated saturation rate.
pub const OVERLOAD_PCT: u64 = 150;

fn overload_mix(size: &Size) -> Rep {
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let sat = experiments::overload_saturation_rate();
    let setup_host_ns = t0.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let rows: Vec<_> = (0..size.overload_runs)
        .map(|_| {
            experiments::overload_run(
                AdmissionPolicy::RejectAtAdmission,
                sat * OVERLOAD_PCT / 100,
                sat,
                None,
            )
        })
        .collect();
    let timed_host_ns = t.elapsed().as_nanos() as u64;

    // `overload_run` asserts its own conservation ledgers (zero copies,
    // URB conservation, admission and engine ledgers, closed tokens, no
    // violations) and panics if one breaks; what is left to check is that
    // the row adds up and that the run is reproducible.
    let first = rows[0];
    let mut virt = Virt {
        ops_per_s: Some(first.goodput_per_s as f64),
        p50_ns: Some(first.lat.p50_ns),
        p99_ns: Some(first.lat.p99_ns),
        ..Virt::default()
    };
    for row in &rows {
        checks.eq(
            format!("{row:?}"),
            format!("{first:?}"),
            "overload rows of one repetition",
        );
        checks.eq(
            row.offered,
            row.admitted + row.rejected,
            "offered = admitted + rejected",
        );
        checks.check(
            row.completed > 0 && row.completed + row.shed <= row.admitted,
            || format!("completions do not add up: {row:?}"),
        );
        checks.check(row.multiplier_pct.abs_diff(OVERLOAD_PCT) <= 1, || {
            format!("offered rate is {} % of saturation", row.multiplier_pct)
        });
        virt.attempted += row.offered;
        virt.ops += row.completed;
        virt.failed_ops += row.offered - row.completed;
        virt.wrong_ops += row.admitted - (row.completed + row.shed).min(row.admitted);
    }
    Rep {
        setup_host_ns,
        timed_host_ns,
        virt,
        checks,
        ..Rep::default()
    }
}

// -------------------------------------------------------------- table3

fn table3() -> Rep {
    let mut checks = Checks::default();
    // Set-up is the warm-up call: `table3()` builds its kernels itself,
    // so there is nothing else to prepare outside the timed region.
    let t0 = Instant::now();
    let reference = experiments::table3();
    let setup_host_ns = t0.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let rows = experiments::table3();
    let timed_host_ns = t.elapsed().as_nanos() as u64;

    checks.check(!rows.is_empty(), || "table3 returned no rows".into());
    checks.eq(
        format!("{rows:?}"),
        format!("{reference:?}"),
        "Table 3, second call against first",
    );
    for row in &rows {
        checks.check(
            row.relative_perf.is_finite() && row.relative_perf > 0.0,
            || {
                format!(
                    "relative performance of {}/{}: {}",
                    row.driver, row.workload, row.relative_perf
                )
            },
        );
        checks.check(
            row.init_crossings > 0 && row.init_decaf_s > row.init_native_s,
            || {
                format!(
                    "{}/{} does not show the slow decaf init",
                    row.driver, row.workload
                )
            },
        );
    }
    let ops = rows.len() as u64;
    Rep {
        setup_host_ns,
        timed_host_ns,
        virt: Virt {
            ops,
            attempted: ops,
            crossings: Some(
                rows.iter()
                    .map(|r| r.init_crossings + r.workload_invocations)
                    .sum(),
            ),
            wire_bytes: Some(rows.iter().map(|r| r.init_bytes_in).sum()),
            init_ns: rows
                .iter()
                .map(|r| (r.init_decaf_s * 1e9).round() as u64)
                .max(),
            rel_native_min: rows.iter().map(|r| r.relative_perf).min_by(f64::total_cmp),
            ..Virt::default()
        },
        checks,
        ..Rep::default()
    }
}
