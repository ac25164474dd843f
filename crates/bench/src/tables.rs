//! Renders every table of the paper's evaluation into a `String` — the
//! `tables` bench target prints it, and `tests/golden_tables.rs` pins
//! everything except Table 1 byte for byte.
//!
//! Every table renders through [`Table`] — decaf-trace's one report
//! path — instead of a hand-rolled `format!` string per table, and the
//! ablation tables print the p50/p99/p999 request-latency percentiles
//! their rows now carry.

use std::fmt::Write as _;

use decaf_core::experiments::{self, LatencyPercentiles};
use decaf_core::simkernel::decaf_trace::Table;

/// `println!` into the report (writing to a `String` cannot fail).
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String")
    };
}

/// Every table, in the order the `tables` bench prints them.
pub fn render() -> String {
    let mut out = String::new();
    table1(&mut out);
    out.push_str(&render_behaviour());
    out
}

/// Everything except Table 1. Table 1 is the size meter — it changes
/// whenever a source line does — while every table here is a function
/// of virtual time and counters only, so a refactor that claims to
/// change no behaviour must leave this string byte-identical.
pub fn render_behaviour() -> String {
    let mut out = String::new();
    table2(&mut out);
    table3(&mut out);
    transport_ablation(&mut out);
    async_sweep(&mut out);
    datapath_ablation(&mut out);
    storage_ablation(&mut out);
    frag_ablation(&mut out);
    rx_mode_sweep(&mut out);
    shard_ablation(&mut out);
    storage_shard_ablation(&mut out);
    overload_knee(&mut out);
    table4(&mut out);
    out
}

/// Renders nanoseconds as one-decimal microseconds.
fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Headers for the request-latency percentile triple every ablation
/// table appends.
const LAT_HEADERS: [&str; 3] = ["p50 µs", "p99 µs", "p999 µs"];

/// Cells for the percentile triple, rendered by the one shared path.
/// Three decimals: submit-side latencies sit well under a microsecond.
fn lat_cells(lat: &LatencyPercentiles) -> [String; 3] {
    let f = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
    [f(lat.p50_ns), f(lat.p99_ns), f(lat.p999_ns)]
}

/// Headers for the async completion-token ledger pair (shared by the
/// shard ablation and the async sweep — previously two copies of the
/// same column code).
const TOKEN_HEADERS: [&str; 2] = ["Tokens", "Overlap µs"];

/// Cells for the completion-token ledger pair.
fn token_cells(tokens: u64, overlap_ns: u64) -> [String; 2] {
    [tokens.to_string(), us(overlap_ns)]
}

fn banner(out: &mut String, title: &str) {
    outln!(
        out,
        "\n=================================================================="
    );
    outln!(out, "{title}");
    outln!(
        out,
        "=================================================================="
    );
}

fn table1(out: &mut String) {
    banner(out, "Table 1: Lines of code supporting Decaf Drivers");
    let mut t = Table::new("");
    t.columns(&["Component", "paper", "ours"]);
    let rows = experiments::table1();
    let mut group = "";
    let mut total = 0;
    for row in &rows {
        if row.group != group {
            group = row.group;
            t.row(vec![group.to_string()]);
        }
        t.row(vec![
            format!("  {}", row.component),
            row.paper_loc.to_string(),
            row.measured_loc.to_string(),
        ]);
        total += row.measured_loc;
    }
    t.row(vec![
        "  Total".to_string(),
        23_423.to_string(),
        total.to_string(),
    ]);
    out.push_str(&t.render());
}

fn table2(out: &mut String) {
    banner(
        out,
        "Table 2: The drivers converted to the Decaf architecture",
    );
    let mut t = Table::new("");
    t.columns(&[
        "Driver", "Type", "LoC", "Annot", "N.fn", "N.loc", "L.fn", "L.loc", "D.fn", "D.loc",
        "user%",
    ]);
    for row in experiments::table2() {
        t.row(vec![
            row.name.to_string(),
            row.device_type.to_string(),
            row.loc.to_string(),
            row.annotations.to_string(),
            row.nucleus_funcs.to_string(),
            row.nucleus_loc.to_string(),
            row.library_funcs.to_string(),
            row.library_loc.to_string(),
            row.decaf_funcs.to_string(),
            row.decaf_loc.to_string(),
            format!("{:.0}%", row.user_fraction() * 100.0),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(paper: >75% of functions moved to user level in 4 of 5 drivers;\n\
         uhci-hcd converted only 4% to Java — same shape expected above)"
    );
}

fn table3(out: &mut String) {
    banner(
        out,
        "Table 3: Performance of Decaf Drivers on common workloads",
    );
    let mut t = Table::new("");
    t.columns(&[
        "Driver",
        "Workload",
        "RelPerf",
        "CPU n.",
        "CPU d.",
        "Init n.",
        "Init d.",
        "Crossings",
        "InBytes",
        "Batched",
        "Invoc",
        "DBell",
        "D/DB",
        "HWM",
    ]);
    for row in experiments::table3() {
        t.row(vec![
            row.driver.to_string(),
            row.workload.to_string(),
            format!("{:.3}", row.relative_perf),
            format!("{:.1}%", row.cpu_native * 100.0),
            format!("{:.1}%", row.cpu_decaf * 100.0),
            format!("{:.3}ms", row.init_native_s * 1e3),
            format!("{:.3}ms", row.init_decaf_s * 1e3),
            row.init_crossings.to_string(),
            row.init_bytes_in.to_string(),
            row.init_batched_calls.to_string(),
            row.workload_invocations.to_string(),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
            row.ring_occupancy_hwm.to_string(),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(paper: relative performance 0.99-1.03, CPU within a point or two,\n\
         decaf init several times slower, crossings 24-237 per driver;\n\
         init latencies here are virtual-time and reflect crossing+marshal\n\
         overhead, not JVM start-up — see EXPERIMENTS.md. InBytes/Batched\n\
         show the batched transport + delta marshaling at work during init.\n\
         The netperf-send/shm rows host the data path at user level over\n\
         the shmring subsystem: DBell/D-per-DB/HWM are the doorbell count,\n\
         descriptors amortized per doorbell, and ring occupancy high-water)"
    );
}

fn datapath_ablation(out: &mut String) {
    banner(
        out,
        "Data-path ablation: hosting the packet path at user level",
    );
    let mut t = Table::new("");
    let mut headers = vec![
        "Configuration",
        "Pkts",
        "Payload",
        "Marshaled",
        "RT",
        "DBell",
        "D/DB",
        "HWM",
        "Copied",
        "Virt. µs",
        "Virt.Mb/s",
    ];
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::datapath_ablation() {
        let mut cells = vec![
            row.label.to_string(),
            row.packets.to_string(),
            row.payload_bytes.to_string(),
            row.marshaled_bytes.to_string(),
            row.round_trips.to_string(),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
            row.ring_occupancy_hwm.to_string(),
            row.bytes_copied.to_string(),
            us(row.virtual_ns),
            format!("{:.1}", row.virtual_mbps()),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(every configuration copies identical payload bytes — the ablation\n\
         isolates marshaling and crossing costs. Batched-copy removes the\n\
         per-packet round trips; shmring removes the bytes: descriptors +\n\
         coalesced doorbells make the user-level hot path cheaper than the\n\
         by-value paths on both bytes moved and virtual time. p50/p99/p999\n\
         are per-packet request latencies from the metrics registry)"
    );
}

fn storage_ablation(out: &mut String) {
    banner(
        out,
        "Storage ablation: hosting the uhci URB path at user level",
    );
    let mut t = Table::new("");
    let mut headers = vec![
        "Configuration",
        "URBs",
        "Payload",
        "Marshaled",
        "RT",
        "DBell",
        "D/DB",
        "Copied",
        "Virt. µs",
        "Virt.Mb/s",
    ];
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::storage_ablation() {
        let mut cells = vec![
            row.label.to_string(),
            row.urbs.to_string(),
            row.payload_bytes.to_string(),
            row.marshaled_bytes.to_string(),
            row.round_trips.to_string(),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
            row.bytes_copied.to_string(),
            us(row.virtual_ns),
            format!("{:.1}", row.virtual_mbps()),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(the same tar write + streaming-read pair under three hostings of\n\
         the URB path. Batched-copy amortizes crossings but still marshals\n\
         and copies every payload; shmring posts URB descriptors through\n\
         pinned rings, adopts page-granular sector payloads into the shared\n\
         pool, and hands IN data back by ownership — Copied drops to ZERO,\n\
         descriptor traffic only, asserted in decaf-core's\n\
         storage_ablation_shmring_drops_copies_to_descriptor_traffic test.\n\
         p50/p99/p999 are per-URB submit→completion latencies)"
    );
}

fn frag_ablation(out: &mut String) {
    banner(
        out,
        "Fragmentation ablation: allocator modes under adversarial pool pressure",
    );
    let mut t = Table::new("");
    t.columns(&[
        "Mode",
        "Pinned %",
        "Attempts",
        "Failures",
        "Fail rate",
        "FragRef",
        "Exhausted",
        "Copied",
        "Virt.Mb/s",
    ]);
    for row in experiments::frag_ablation() {
        t.row(vec![
            row.label.to_string(),
            row.pressure.to_string(),
            row.attempts.to_string(),
            row.failures.to_string(),
            format!("{:.2}", row.failure_rate()),
            row.frag_refusals.to_string(),
            row.exhausted.to_string(),
            row.bytes_copied.to_string(),
            format!("{:.1}", row.virtual_mbps()),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(each cell pins Pinned% of the sector pool as scattered singles,\n\
         then fires multi-sector flash writes. FragRef counts refusals\n\
         issued while free bytes sufficed — the contiguity-requiring modes\n\
         saturate it under pressure; buddy+SG chains scattered blocks into\n\
         one URB and holds failures AND FragRef at zero across the sweep\n\
         (asserted inside frag_ablation), with Copied exactly zero in\n\
         every cell)"
    );
}

fn shard_ablation(out: &mut String) {
    banner(
        out,
        "Shard ablation: multi-channel XPC + per-shard shmrings (netperf)",
    );
    let mut t = Table::new("");
    let mut headers = vec![
        "Shards",
        "Pkts",
        "Payload",
        "Serial µs",
        "Crit. µs",
        "Eff. µs",
        "DBell",
        "D/DB",
    ];
    headers.extend(TOKEN_HEADERS);
    headers.extend(["Copied", "Virt.Mb/s"]);
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    let rows = experiments::shard_ablation();
    for row in &rows {
        let mut cells = vec![
            row.shards.to_string(),
            row.packets.to_string(),
            row.payload_bytes.to_string(),
            us(row.effective_ns - row.shard_max_ns),
            us(row.shard_max_ns),
            us(row.effective_ns),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
        ];
        cells.extend(token_cells(row.tokens, row.overlap_ns));
        cells.push(row.bytes_copied.to_string());
        cells.push(format!("{:.1}", row.virtual_mbps()));
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(identical netperf stream at every shard count; Eff = serial work\n\
         + the critical-path shard, the parallel wall-clock model of\n\
         per-CPU channels. Copied must not move: sharding changes flow\n\
         steering, never copy accounting. Tokens/Overlap are the async\n\
         transport's completion ledger: doorbell crossings launch, harvest\n\
         collects later, and the overlapped slice is never charged.\n\
         shards=4 beating shards=1 on Virt.Mb/s is the tentpole\n\
         acceptance claim, asserted in decaf-core's\n\
         shard_ablation_parallelism_wins test)"
    );
}

fn storage_shard_ablation(out: &mut String) {
    banner(
        out,
        "Sharded storage ablation: multi-LUN tar over per-shard URB queues",
    );
    let mut t = Table::new("");
    let mut headers = vec![
        "Shards",
        "Used",
        "URBs",
        "Payload",
        "Serial µs",
        "Crit. µs",
        "Eff. µs",
        "DBell",
        "D/DB",
        "Copied",
        "Virt.Mb/s",
    ];
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::storage_shard_ablation() {
        let mut cells = vec![
            row.shards.to_string(),
            row.shards_used.to_string(),
            row.urbs.to_string(),
            row.payload_bytes.to_string(),
            us(row.effective_ns - row.shard_max_ns),
            us(row.shard_max_ns),
            us(row.effective_ns),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
            row.bytes_copied.to_string(),
            format!("{:.1}", row.virtual_mbps()),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(identical 4-LUN tar write + streaming-read pair at every shard\n\
         count; each LUN's URBs stay FIFO on one queue while LUNs spread.\n\
         Copied is asserted EXACTLY ZERO at every width inside\n\
         storage_shard_run — sharding changes steering, payload adoption\n\
         stays zero-copy. shards=4 beating shards=1 on Virt.Mb/s is the\n\
         tentpole acceptance claim, asserted in decaf-core's\n\
         storage_shard_ablation_parallelism_wins_and_stays_zero_copy test)"
    );
}

fn transport_ablation(out: &mut String) {
    banner(
        out,
        "Transport ablation: the same repeated-configuration sequence",
    );
    let mut t = Table::new("");
    let mut headers = vec![
        "Configuration",
        "RT",
        "1-way",
        "B.in",
        "B.out",
        "Flush",
        "Batch",
        "Elided",
        "Virt. µs",
    ];
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::transport_ablation() {
        let mut cells = vec![
            row.label.to_string(),
            row.round_trips.to_string(),
            row.one_way_crossings.to_string(),
            row.bytes_in.to_string(),
            row.bytes_out.to_string(),
            row.flushes.to_string(),
            row.batched_calls.to_string(),
            row.delta_fields_elided.to_string(),
            us(row.virtual_ns),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(each layer stacks on field-selective masks: delta cuts bytes,\n\
         batching cuts crossings — see DESIGN.md's ablation matrix.\n\
         p50/p99/p999 are per-configuration-cycle latencies)"
    );
}

fn async_sweep(out: &mut String) {
    banner(
        out,
        "Async transport sweep: batched vs completion-token launches",
    );
    let mut t = Table::new("");
    let mut headers = vec!["Calls/s", "Batched µs", "Async µs"];
    headers.extend(TOKEN_HEADERS);
    headers.push("Saved");
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::async_transport_sweep() {
        let mut cells = vec![
            row.offered_cps.to_string(),
            us(row.batched_ns),
            us(row.async_ns),
        ];
        cells.extend(token_cells(row.tokens, row.overlap_ns));
        cells.push(format!("{:.1}%", row.saving() * 100.0));
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "(identical paced deferred-call stream on both transports. The\n\
         async transport launches the batch when the doorbell fires and\n\
         harvests the completion later, charging only the uncovered slice\n\
         of each crossing — computation during an in-flight crossing is\n\
         overlap, not wait. Async ≤ batched at EVERY rate is the tentpole\n\
         acceptance claim, asserted per row inside async_transport_sweep.\n\
         p50/p99/p999 are per-call submit latencies on the async run)"
    );
}

fn rx_mode_sweep(out: &mut String) {
    banner(out, "RX-mode sweep: interrupt-driven vs poll-mode receive");
    let mut t = Table::new("");
    t.columns(&[
        "Pkts/s", "Pkts", "Intr µs", "Poll µs", "I.DBl", "P.DBl", "Winner", "I.p50", "I.p99",
        "P.p50", "P.p99",
    ]);
    let rows = experiments::rx_mode_sweep();
    for row in &rows {
        t.row(vec![
            row.offered_pps.to_string(),
            row.packets.to_string(),
            us(row.interrupt_ns),
            us(row.poll_ns),
            row.interrupt_doorbells.to_string(),
            row.poll_doorbells.to_string(),
            row.winner().to_string(),
            us(row.interrupt_lat.p50_ns),
            us(row.interrupt_lat.p99_ns),
            us(row.poll_lat.p50_ns),
            us(row.poll_lat.p99_ns),
        ]);
    }
    out.push_str(&t.render());
    match experiments::rx_crossover_pps(&rows) {
        Some(pps) => outln!(
            out,
            "crossover: poll-mode receive first wins at {pps} pkts/s offered"
        ),
        None => outln!(out, "crossover: not reached in this sweep"),
    }
    outln!(
        out,
        "(one virtual second of paced arrivals through a pool-less shmring\n\
         data path. Interrupt mode pays interrupt entry per frame plus a\n\
         watermark doorbell crossing; poll mode pays a softirq tick plus\n\
         budgeted ring probes and rings NO doorbells. The fixed poll tax\n\
         loses at low rates and wins at high rates; the single flip is\n\
         asserted inside rx_mode_sweep, with zero payload bytes copied.\n\
         I./P. p50/p99 are per-packet post→reclaim latencies in µs:\n\
         interrupt mode services each frame as it lands, poll mode holds\n\
         frames until the next grid tick — the latency cost of the CPU\n\
         the poll grid saves at high rates)"
    );
}

fn overload_knee(out: &mut String) {
    banner(
        out,
        "Overload knee: open-loop offered rate vs goodput and tail latency",
    );
    let sat = experiments::overload_saturation_rate();
    let mut t = Table::new("");
    let mut cols = vec![
        "Policy",
        "Rate%",
        "Offered",
        "Admit",
        "Rej",
        "Shed",
        "Goodput/s",
    ];
    cols.extend(LAT_HEADERS);
    t.columns(&cols);
    let rows = experiments::overload_sweep();
    for row in &rows {
        let mut cells = vec![
            row.policy.name().to_string(),
            row.multiplier_pct.to_string(),
            row.offered.to_string(),
            row.admitted.to_string(),
            row.rejected.to_string(),
            row.shed.to_string(),
            row.goodput_per_s.to_string(),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    out.push_str(&t.render());
    let v = experiments::knee_verdict(&rows);
    outln!(
        out,
        "calibrated saturation: {sat} req/s. Unbounded p99 blows up {:.1}×\n\
         past saturation; {} holds p99 within {:.1}× pre-knee at {:.0}% of\n\
         peak goodput (acceptance: ≥10× / ≤3× / ≥80% — {}).",
        v.unbounded_blowup,
        v.bounded_policy.name(),
        v.bounded_ratio,
        v.goodput_fraction * 100.0,
        if v.holds { "holds" } else { "FAILS" }
    );
    outln!(
        out,
        "(seeded open-loop arrivals — Poisson netperf packets plus bursty\n\
         tar URBs — dispatched by an absolute-deadline kernel timer into\n\
         real shmring data paths. Latency is completion minus *scheduled*\n\
         arrival: when the single CPU falls behind, the wait shows up in\n\
         the tail. Queue-unbounded admits everything and pays in p99;\n\
         reject-at-admission turns arrivals away at the door with per-class\n\
         token buckets; shed-oldest drops the stalest queued request. Every\n\
         cell asserts zero payload bytes copied, URB descriptor/sector\n\
         conservation, a closed admission ledger, and every async doorbell\n\
         token settled)"
    );
}

fn table4(out: &mut String) {
    banner(
        out,
        "Table 4: E1000 evolution, 2.6.18.1 -> 2.6.27 (320 patches)",
    );
    let study = experiments::table4();
    let mut t = Table::new("");
    t.columns(&["Category", "paper", "ours"]);
    t.row(vec![
        "Driver nucleus lines".to_string(),
        381.to_string(),
        study.total.nucleus_lines.to_string(),
    ]);
    t.row(vec![
        "Decaf driver lines".to_string(),
        4690.to_string(),
        study.total.decaf_lines.to_string(),
    ]);
    t.row(vec![
        "User/kernel interface".to_string(),
        23.to_string(),
        study.total.interface_changes.to_string(),
    ]);
    out.push_str(&t.render());
    outln!(
        out,
        "(batch 1: {} lines decaf / {} nucleus; batch 2: {} / {})",
        study.batch1.decaf_lines,
        study.batch1.nucleus_lines,
        study.batch2.decaf_lines,
        study.batch2.nucleus_lines
    );
}
