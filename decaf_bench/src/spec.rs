//! The benchmark's contract: every metric's name, unit, direction, clock
//! and bound, the name validator, and the generator of `BENCHMARK.json`.
//!
//! Two clocks. *Exact* metrics are virtual-clock times and counts — pure
//! functions of the inputs, so two commits must agree to the last digit
//! unless a change means to move the model. *Host* metrics are what the
//! simulator costs to run; they are noisy, so the three end-to-end ones
//! carry a bound and the per-layer ones are evidence, not gates.

use crate::json::Json;
use crate::{layers, workloads};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: host clock, bounded.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse
    /// before it is a regression.
    pub bound: f64,
}

/// The end-to-end metrics. `host_ops_per_s` is what a user of the
/// simulator waits for; `host_peak_rss_mb` is what it needs; `setup_s` is
/// there so that work moved out of the timed region shows.
pub const END_TO_END: [EndToEnd; 3] = [
    // Ops per host *reference* second (see `host::calibration_ns`) of the
    // timed region, upper quartile over the repetitions of a block.
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    // VmHWM of the block's process after a fixed number of repetitions.
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    // Host reference seconds of one repetition's set-up, median over
    // repetitions.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// How `diff` treats a per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual clock or a count: must be identical between two runs.
    Exact,
    /// Host clock: printed with its ratio, never gated.
    Host,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Clock::Exact,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Clock::Host,
    }
}

use Better::{Higher, Lower};

/// The virtual-clock end-to-end section of a workload: what the model
/// says the *modelled* system does. Listed under `per_layer` in
/// `BENCHMARK.json` because that file's `end_to_end` metrics carry a noise
/// bound and these carry none — they are gated on equality by `diff`.
pub const VIRTUAL: [PerLayer; 10] = [
    exact("virt_ops_per_s", "1/s", Higher),
    exact("virt_busy_ns_per_op", "ns", Lower),
    exact("virt_p50_ns", "ns", Lower),
    exact("virt_p99_ns", "ns", Lower),
    exact("crossings_per_op", "count", Lower),
    exact("wire_bytes_per_op", "B", Lower),
    exact("bytes_copied_per_op", "B", Lower),
    exact("failed_ops_share", "share", Lower),
    exact("virt_init_ms", "ms", Lower),
    exact("virt_rel_native_min", "ratio", Higher),
];

/// Per-workload layer metrics from the traced repetition, plus the run's
/// own noise record.
pub const TRACED: [PerLayer; 28] = [
    exact("xpc.crossings_per_op", "count", Lower),
    exact("xpc.tokens_per_op", "count", Lower),
    exact("xpc.overlap_share", "share", Higher),
    exact("xpc.virt_self_ns_per_op", "ns", Lower),
    exact("ring.posts_per_op", "count", Lower),
    exact("ring.doorbells_per_op", "count", Lower),
    exact("ring.descs_per_doorbell", "count", Higher),
    exact("ring.virt_self_ns_per_op", "ns", Lower),
    exact("pool.allocs_per_op", "count", Lower),
    exact("pool.refusals_per_op", "count", Lower),
    exact("pool.virt_self_ns_per_op", "ns", Lower),
    exact("kernel.timer_fires_per_op", "count", Lower),
    exact("kernel.irqs_per_op", "count", Lower),
    exact("kernel.work_items_per_op", "count", Lower),
    exact("kernel.virt_self_ns_per_op", "ns", Lower),
    exact("drivers.virt_self_ns_per_op", "ns", Lower),
    exact("virt_unattributed_share", "share", Lower),
    exact("trace.events_per_op", "count", Lower),
    host("tar.write_host_ns_per_urb", "ns", Lower),
    host("tar.read_host_ns_per_urb", "ns", Lower),
    host("trace.host_overhead_share", "share", Lower),
    host("bench.host_explained_share", "share", Higher),
    host("bench.blocks", "count", Higher),
    host("bench.block_s_p50", "s", Lower),
    host("bench.block_iqr_share", "share", Lower),
    host("bench.oncpu_share", "share", Higher),
    host("bench.cal_ns", "ns", Lower),
    host("bench.raw_ops_per_s", "1/s", Higher),
];

/// Every per-layer metric, in the order they are printed: the virtual
/// section, the traced section, the unit drives.
pub fn per_layer() -> Vec<PerLayer> {
    VIRTUAL
        .iter()
        .chain(TRACED.iter())
        .copied()
        .chain(layers::NAMES.iter().map(|&name| host(name, "ns", Lower)))
        .collect()
}

/// The unit of metric `name` (`"count"` for a name outside the contract).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(
            VIRTUAL
                .iter()
                .chain(TRACED.iter())
                .map(|m| (m.name, m.unit)),
        )
        .find(|m| m.0 == name)
        .map_or(
            if layers::NAMES.contains(&name) {
                "ns"
            } else {
                "count"
            },
            |m| m.1,
        )
}

// ---------------------------------------------------------- validation

/// Limits `BENCHMARK.json` must stay inside.
pub const MAX_END_TO_END: usize = 16;
/// See [`MAX_END_TO_END`].
pub const MAX_PER_LAYER: usize = 128;
/// See [`MAX_END_TO_END`].
pub const WORKLOADS_RANGE: std::ops::RangeInclusive<usize> = 2..=8;

/// A metric or workload name: starts with a letter or digit, then at
/// most 63 more of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks a set of names against the contract's shape: every name valid
/// and used once, and the three lists inside their size limits.
pub fn validate_names(
    workloads: &[&str],
    end_to_end: &[&str],
    per_layer: &[&str],
) -> Result<(), String> {
    if !WORKLOADS_RANGE.contains(&workloads.len()) {
        return Err(format!(
            "{} workloads, want {WORKLOADS_RANGE:?}",
            workloads.len()
        ));
    }
    if !(1..=MAX_END_TO_END).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics, want 1..={MAX_END_TO_END}",
            end_to_end.len()
        ));
    }
    if !(1..=MAX_PER_LAYER).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics, want 1..={MAX_PER_LAYER}",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for name in workloads.iter().chain(end_to_end).chain(per_layer) {
        if !valid_name(name) {
            return Err(format!("invalid name {name:?}"));
        }
        if !seen.insert(*name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    Ok(())
}

/// Checks this file's own tables: the shape of the names, the units, and
/// the rules `setup_s` must follow.
pub fn validate_contract() -> Result<(), String> {
    let layer = per_layer();
    let layer_names: Vec<&str> = layer.iter().map(|m| m.name).collect();
    let e2e_names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    validate_names(&workloads::NAMES, &e2e_names, &layer_names)?;
    if let Some(unit) = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(layer.iter().map(|m| m.unit))
        .find(|u| !valid_unit(u))
    {
        return Err(format!("invalid unit {unit:?}"));
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .ok_or("setup_s is required")?;
    if (setup.unit, setup.better) != ("s", Better::Lower) {
        return Err("setup_s must be in s, lower is better".into());
    }
    if END_TO_END
        .iter()
        .any(|m| !(m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound))
    {
        return Err("bounds must be in (0, 0.25] and setup_s must have the largest".into());
    }
    Ok(())
}

// ------------------------------------------------------------ manifest

/// Seconds one run of the PR driver measures.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the tables above so the file and the
/// program cannot drift apart (a test compares the checked-in copy).
pub fn manifest() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "decaf_bench/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("decaf_bench")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                workloads::NAMES
                    .iter()
                    .map(|&w| {
                        Json::obj([
                            ("name", Json::str(w)),
                            ("why", Json::str(workloads::why(w))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| Json::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units() {
        for ok in ["a", "9lives", "xpc.call_inproc_ns", "p-99", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/ed",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "MiB", "ns/op", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn list_limits_and_duplicates() {
        let many: Vec<String> = (0..129).map(|i| format!("m{i}")).collect();
        let many: Vec<&str> = many.iter().map(String::as_str).collect();
        assert!(validate_names(&["a", "b"], &["e"], &many[..128]).is_ok());
        assert!(
            validate_names(&["a", "b"], &["e"], &many).is_err(),
            "129 per-layer"
        );
        assert!(
            validate_names(&["a", "b"], &many[..17], &["l"]).is_err(),
            "17 end-to-end"
        );
        assert!(
            validate_names(&["a"], &["e"], &["l"]).is_err(),
            "one workload"
        );
        assert!(
            validate_names(&many[..9], &["e"], &["l"]).is_err(),
            "nine workloads"
        );
        assert!(
            validate_names(&["a", "b"], &[], &["l"]).is_err(),
            "no end-to-end metric"
        );
        assert!(
            validate_names(&["a", "b"], &["a"], &["l"]).is_err(),
            "duplicate across lists"
        );
        assert!(validate_names(&["a", "b"], &["e"], &["bad name"]).is_err());
    }

    #[test]
    fn the_contract_is_well_formed_and_matches_the_checked_in_file() {
        validate_contract().unwrap();
        for w in workloads::NAMES {
            let why = workloads::why(w);
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{w}: {why:?}"
            );
            assert!(!workloads::op_unit(w).is_empty());
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).unwrap(),
            manifest(),
            "regenerate with `decaf_bench manifest`"
        );
    }
}
