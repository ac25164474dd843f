//! Interrupt-vs-poll receive ablation smoke: drives the pool-less
//! shmring RX path one virtual second in both servicing modes at two
//! offered rates straddling the crossover (default 2k and 16k pkts/s),
//! then replays the full rate sweep.
//!
//! The measurement — and every invariant check (zero payload bytes
//! copied, every frame delivered, no stranded descriptors, zero
//! poll-mode doorbells, a single monotone winner flip) — lives in
//! `decaf_core::experiments::rx_mode_run` / `rx_mode_sweep`, the same
//! functions the published table rows are built from, so this smoke and
//! the paper numbers can never diverge. Everything is deterministic
//! virtual time: two runs print identical output.
//!
//! Run with: `cargo run --release --example poll_ablation [low_pps high_pps]`

use decaf_core::drivers::support::RxMode;
use decaf_core::experiments::{rx_crossover_pps, rx_mode_run, rx_mode_sweep};

fn main() {
    let mut args = std::env::args().skip(1);
    let low: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let high: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(16_000);
    assert!(
        low < high,
        "rates must straddle the crossover: {low} < {high}"
    );
    println!("poll ablation: 1 virtual second at {low} and {high} pkts/s");

    for pps in [low, high] {
        let interrupt = rx_mode_run(RxMode::Interrupt, pps);
        let poll = rx_mode_run(RxMode::Poll, pps);
        let (interrupt_ns, poll_ns) = (interrupt.busy_ns, poll.busy_ns);
        println!(
            "  {pps:>6} pkts/s: interrupt {:.1} µs ({} doorbells), poll {:.1} µs ({} doorbells)",
            interrupt_ns as f64 / 1e3,
            interrupt.channel.doorbells,
            poll_ns as f64 / 1e3,
            poll.channel.doorbells,
        );
        assert_eq!(poll.channel.doorbells, 0, "poll mode rang a doorbell");
        if pps == low {
            assert!(
                interrupt_ns < poll_ns,
                "interrupt must win at {pps} pkts/s: {interrupt_ns} vs {poll_ns} ns"
            );
        } else {
            assert!(
                poll_ns < interrupt_ns,
                "poll must win at {pps} pkts/s: {poll_ns} vs {interrupt_ns} ns"
            );
        }
    }

    // The full sweep asserts the single monotone winner flip internally.
    let rows = rx_mode_sweep();
    let crossover = rx_crossover_pps(&rows).expect("crossover exists");
    println!("  crossover: poll-mode receive first wins at {crossover} pkts/s offered");
    println!("OK: zero-copy, zero poll doorbells and monotone crossover checks passed");
}
