//! Host-side observations of the benchmark process itself: the machine's
//! current speed (a calibration loop), and peak resident memory and on-CPU
//! time, both read from `/proc` (Linux; `None` elsewhere, and the metrics
//! that need them report 0).

use std::time::Instant;

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds this thread has spent on a CPU (first field of
/// `/proc/thread-self/schedstat`).
fn on_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Wall time and on-CPU time since a starting point, so a run can say
/// what share of its wall clock it was actually scheduled for — the
/// direct reading of how much the shared box interfered.
pub struct CpuWatch {
    wall: Instant,
    cpu_ns: Option<u64>,
}

impl CpuWatch {
    /// Starts watching the calling thread.
    pub fn start() -> Self {
        CpuWatch {
            wall: Instant::now(),
            cpu_ns: on_cpu_ns(),
        }
    }

    /// On-CPU time ÷ wall time since `start`, or `None` where
    /// `schedstat` is unavailable.
    pub fn oncpu_share(&self) -> Option<f64> {
        let cpu = on_cpu_ns()?.checked_sub(self.cpu_ns?)? as f64;
        let wall = self.wall.elapsed().as_nanos() as f64;
        (wall > 0.0).then(|| cpu / wall)
    }
}

/// Host ns the calibration loop takes at the *reference speed* — about
/// what the box this benchmark was written on does in its common state,
/// so a reference second is close to a wall second there. Only the ratio
/// to a measured [`calibration_ns`] is ever used.
pub const CAL_REF_NS: f64 = 250_000.0;

/// Times a fixed piece of benchmark-owned arithmetic (200,000 SplitMix64
/// rounds: no memory, no allocation, nothing of the program under test).
///
/// Why it exists: the box has two speeds. For seconds to minutes at a
/// time everything — all six workloads alike, and this loop with them —
/// runs 1.25–1.30× faster, then drops back. Whole blocks land in one state
/// or the other, so no statistic over a block's repetitions can cancel it;
/// a yardstick timed beside every repetition can. Host times are reported
/// in *reference seconds*: `t × CAL_REF_NS / calibration_ns()`.
pub fn calibration_ns() -> f64 {
    let t = Instant::now();
    let mut state = 0x1234_5678_9abc_def0_u64;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = acc.wrapping_add(z ^ (z >> 31));
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}
