//! The behaviour pin: every table except Table 1 (the size meter) must
//! regenerate byte for byte. The tables are functions of virtual time
//! and counters only, so any difference is a behaviour change — either
//! a bug, or a shift the PR declares and re-pins by copying the file
//! this test writes on failure over `tests/golden/tables.txt`.

use std::path::Path;

use decaf_core::experiments::{self, Measured};

const GOLDEN: &str = include_str!("golden/tables.txt");

#[test]
fn tables_match_the_golden_copy_byte_for_byte() {
    let actual = decaf_bench::tables::render_behaviour();
    if actual == GOLDEN {
        return;
    }
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tables.actual.txt");
    std::fs::write(&dump, &actual).expect("write regenerated tables");
    let line = actual
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "tables differ from tests/golden/tables.txt, first at line {}:\n  golden: {:?}\n  actual: {:?}\nregenerated output written to {}",
        line + 1,
        GOLDEN.lines().nth(line),
        actual.lines().nth(line),
        dump.display()
    );
}

/// `[busy_ns, effective_ns, channel.round_trips, channel.doorbells,
/// channel.ring_posts, channel.tokens_issued, bytes_copied]` of a window.
type Pin = [u64; 7];

fn pin(m: &Measured) -> Pin {
    let ch = &m.channel;
    [
        m.busy_ns,
        m.effective_ns,
        ch.round_trips,
        ch.doorbells,
        ch.ring_posts,
        ch.tokens_issued,
        m.bytes_copied,
    ]
}

/// The first and the last row of each ablation, exactly. Read at 804ac91
/// (the parent of the PR that made the rows hold their `Measured`) from
/// the old row fields where a row had one — `virtual_ns` /
/// `total_busy_ns` / `batched_ns` / `async_ns` / `interrupt_ns` /
/// `poll_ns` for `busy_ns`, `effective_ns`, `round_trips`, `doorbells` /
/// `interrupt_doorbells` / `poll_doorbells`, `ring_posts`, `tokens`,
/// `bytes_copied` — and otherwise from the `Measured` that
/// `Window::close` returned for the same run. The two sweeps make two
/// runs a row, so they pin four windows.
const PINS: [(&str, &[Pin]); 8] = [
    (
        "data path: copy, shmring",
        &[
            [19_732_800, 19_732_800, 200, 0, 0, 0, 300_000],
            [542_812, 542_812, 13, 13, 200, 0, 300_000],
        ],
    ),
    (
        "storage: copy, shmring",
        &[
            [1_731_584, 1_731_584, 96, 0, 0, 0, 33_088],
            [748_112, 748_112, 24, 24, 96, 0, 0],
        ],
    ),
    (
        "fragmentation: first-fit at 0 %, buddy+SG at 90 %",
        &[
            [375_092, 375_092, 24, 24, 24, 0, 0],
            [418_292, 418_292, 24, 24, 24, 0, 0],
        ],
    ),
    (
        "shards: 1, 8",
        &[
            [
                148_030_926,
                148_030_926,
                16_031,
                16_000,
                16_000,
                16_010,
                24_000_000,
            ],
            [
                148_030_926,
                128_351_676,
                16_031,
                16_000,
                16_000,
                16_010,
                24_000_000,
            ],
        ],
    ),
    (
        "storage shards: 1, 8",
        &[
            [2_027_448, 2_027_448, 96, 96, 384, 0, 0],
            [2_027_448, 991_512, 96, 96, 384, 0, 0],
        ],
    ),
    (
        "transport: mask-only, mask+delta+batch",
        &[
            [1_551_000, 1_551_000, 100, 0, 0, 0, 0],
            [1_089_384, 1_089_384, 50, 0, 0, 0, 0],
        ],
    ),
    (
        "async sweep: batched and launched at 1,000 and at 20,000 calls/s",
        &[
            [515_280, 515_280, 60, 0, 0, 0, 0],
            [13_780, 13_780, 60, 0, 0, 60, 0],
            [260_280, 260_280, 30, 0, 0, 0, 0],
            [13_780, 13_780, 30, 0, 0, 60, 0],
        ],
    ),
    (
        "RX modes: interrupt and poll at 500 and at 16,000 pkts/s",
        &[
            [3_461_000, 3_461_000, 250, 250, 500, 0, 0],
            [12_790_000, 12_790_000, 0, 0, 500, 0, 0],
            [88_027_016, 88_027_016, 5_334, 5_334, 16_000, 0, 0],
            [24_880_000, 24_880_000, 0, 0, 16_000, 0, 0],
        ],
    ),
];

/// What the golden file cannot pin: it prints microseconds to one
/// decimal, so a drift under 100 ns a row is invisible there.
#[test]
fn first_and_last_row_of_every_ablation_to_the_nanosecond() {
    fn ends<R>(rows: &[R], windows: impl Fn(&R) -> Vec<Measured>) -> Vec<Pin> {
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);
        let both = windows(first).into_iter().chain(windows(last));
        both.map(|m| pin(&m)).collect()
    }
    let actual = [
        ends(&experiments::datapath_ablation(), |r| vec![r.m]),
        ends(&experiments::storage_ablation(), |r| vec![r.m]),
        ends(&experiments::frag_ablation(), |r| vec![r.m]),
        ends(&experiments::shard_ablation(), |r| vec![r.m]),
        ends(&experiments::storage_shard_ablation(), |r| vec![r.run.m]),
        ends(&experiments::transport_ablation(), |r| vec![r.m]),
        ends(&experiments::async_transport_sweep(), |r| {
            vec![r.batched, r.launched]
        }),
        ends(&experiments::rx_mode_sweep(), |r| vec![r.interrupt, r.poll]),
    ];
    for ((what, pinned), actual) in PINS.iter().zip(&actual) {
        assert_eq!(actual, pinned, "{what}");
    }
}
