//! `decaf_bench run`: the whole benchmark in one command, as a document.
//!
//! `run` re-executes this binary as one *block* per (round, workload),
//! round-robin over the workloads, never more than one child alive. Fresh
//! processes because a long-lived one is not a fair host: after other
//! workloads have churned the allocator the same driver loads run several
//! times slower. Interleaved because interference on a shared box comes
//! in bursts of seconds: round-robin spreads a burst over every workload
//! instead of letting it land on one. Then one traced block per workload
//! supplies the virtual section, the traced section and the unit drives.

use std::process::Command;

use crate::block::BlockArgs;
use crate::json::Json;
use crate::spec::{self, Better, Clock};
use crate::stats::{median, Summary};
use crate::workloads;

/// Untraced blocks per workload.
pub const ROUNDS: usize = 16;
/// Wall seconds an untraced block measures for.
pub const BLOCK_SECONDS: f64 = 0.75;
/// Wall seconds a traced block measures for (it also runs the drives).
pub const TRACED_SECONDS: f64 = 3.5;

/// Document format tag; `diff` refuses anything else.
pub const SCHEMA: &str = "decaf_bench/1";

fn child(args: &BlockArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning a block: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "block {} (trace {}) exited with {}: {}",
            args.workload,
            args.trace,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    // A block prints its detail record, then the PR driver's line.
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().rev().nth(1).unwrap_or(""))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `HEAD`, marked when the tree it was built from had uncommitted changes
/// (as it must when a PR measures itself before it is committed).
fn commit() -> String {
    let head = tool_line("git", &["rev-parse", "HEAD"]);
    match tool_line("git", &["status", "--porcelain"]).as_str() {
        "unknown" => head,
        _ => format!("{head}+uncommitted"),
    }
}

fn machine() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metric_of(block: &Json, name: &str) -> Option<f64> {
    block.get("metrics")?.get(name)?.as_f64()
}

/// Runs everything and returns the document. `progress` gets one line
/// per finished block.
pub fn run(seed: u64, progress: &mut dyn FnMut(&str)) -> Result<Json, String> {
    let mut plain: Vec<Vec<Json>> = vec![Vec::new(); workloads::NAMES.len()];
    for round in 0..ROUNDS {
        for (i, w) in workloads::NAMES.iter().enumerate() {
            let b = child(&BlockArgs {
                workload: w.to_string(),
                seed,
                seconds: BLOCK_SECONDS,
                trace: false,
            })?;
            progress(&format!(
                "round {:>2}/{ROUNDS} {w:<16} {:>14.1} ops/s",
                round + 1,
                metric_of(&b, "host_ops_per_s").unwrap_or(0.0)
            ));
            plain[i].push(b);
        }
    }
    let mut traced = Vec::new();
    for w in workloads::NAMES {
        traced.push(child(&BlockArgs {
            workload: w.to_string(),
            seed,
            seconds: TRACED_SECONDS,
            trace: true,
        })?);
        progress(&format!("traced {w}"));
    }

    let mut workloads_doc = Vec::new();
    for (i, w) in workloads::NAMES.iter().enumerate() {
        let blocks = plain[i].iter().chain(std::iter::once(&traced[i]));
        let mut failures: Vec<Json> = Vec::new();
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for b in blocks {
            attempted += b.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += b.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            correct &= b.get("correct").and_then(Json::as_bool).unwrap_or(false);
            for f in b.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
                if !failures.contains(f) {
                    failures.push(f.clone());
                }
            }
        }
        let end_to_end = spec::END_TO_END.iter().map(|m| {
            let values: Vec<f64> = plain[i]
                .iter()
                .filter_map(|b| metric_of(b, m.name))
                .collect();
            let doc = match Summary::of(&values) {
                // Noise on a shared machine only ever worsens a reading,
                // so the value gated on is the better-side quartile.
                Some(s) => Json::obj([
                    (
                        "value",
                        Json::Num(if m.better == Better::Higher {
                            s.p75
                        } else {
                            s.p25
                        }),
                    ),
                    ("unit", Json::str(m.unit)),
                    ("p25", Json::Num(s.p25)),
                    ("p50", Json::Num(s.p50)),
                    ("p75", Json::Num(s.p75)),
                    ("n", Json::Num(s.n as f64)),
                    ("iqr_share", Json::Num(s.iqr_share())),
                ]),
                None => Json::Null,
            };
            (m.name, doc)
        });
        let layer = |clock: Clock| {
            Json::obj(
                spec::VIRTUAL
                    .iter()
                    .chain(spec::TRACED.iter())
                    .filter(move |m| m.clock == clock)
                    .map(|m| (m.name, Json::opt_num(metric_of(&traced[i], m.name)))),
            )
        };
        workloads_doc.push((
            *w,
            Json::obj([
                ("op", Json::str(workloads::op_unit(w))),
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failures", Json::Arr(failures)),
                ("end_to_end", Json::obj(end_to_end)),
                ("exact", layer(Clock::Exact)),
                ("host", layer(Clock::Host)),
            ]),
        ));
    }

    // Every traced block ran every drive; the median over the six is the
    // drive's figure.
    let drives = crate::layers::NAMES.iter().map(|&name| {
        let field = |f: &str| -> Vec<f64> {
            traced
                .iter()
                .filter_map(|b| b.get("drives")?.get(name)?.get(f)?.as_f64())
                .collect()
        };
        (
            name,
            Json::obj([
                ("p25", Json::Num(median(&field("p25")))),
                ("p50", Json::Num(median(&field("p50")))),
                ("unit", Json::str("ns")),
                ("calls", Json::Num(field("calls").iter().sum())),
            ]),
        )
    });

    Ok(Json::obj([
        ("schema", Json::str(SCHEMA)),
        (
            "meta",
            Json::obj([
                ("machine", Json::str(machine())),
                ("nproc", Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64))),
                ("rustc", Json::str(tool_line("rustc", &["--version"]))),
                ("commit", Json::str(commit())),
                ("seed", Json::Num(seed as f64)),
                ("rounds", Json::Num(ROUNDS as f64)),
                ("block_seconds", Json::Num(BLOCK_SECONDS)),
                ("traced_seconds", Json::Num(TRACED_SECONDS)),
                ("model", Json::str("unvalidated against hardware: PAPER.md carries no reference table, so no error figure is given")),
            ]),
        ),
        ("workloads", Json::obj(workloads_doc)),
        ("drives", Json::obj(drives)),
    ]))
}

/// Prints every metric of `doc` by name, with its unit.
pub fn render(doc: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // Counts print as integers, measurements with six decimals.
    let num = |v: Option<&Json>| match v.and_then(Json::as_f64) {
        None => "-".to_string(),
        Some(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{n:.0}"),
        Some(n) => format!("{n:.6}"),
    };
    for (w, d) in doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
        let _ = writeln!(
            out,
            "\n== {w}  (op = {}; correct = {}; attempted {}, failed {})",
            d.get("op").and_then(Json::as_str).unwrap_or("?"),
            d.get("correct").and_then(Json::as_bool).unwrap_or(false),
            num(d.get("attempted")),
            num(d.get("failed")),
        );
        for f in d.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            let _ = writeln!(out, "   FAILED CHECK: {}", f.as_str().unwrap_or("?"));
        }
        for (name, m) in d.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]) {
            let _ = writeln!(
                out,
                "  {name:<32} {:>18} {:<6} host   p50 {} iqr {:.1}% n={}",
                num(m.get("value")),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                num(m.get("p50")),
                m.get("iqr_share").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
                num(m.get("n")),
            );
        }
        for section in ["exact", "host"] {
            for (name, v) in d.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>18} {:<6} {section}",
                    num(Some(v)),
                    spec::unit_of(name)
                );
            }
        }
    }
    let _ = writeln!(out, "\n== unit drives (host ns per call: p25, p50)");
    for (name, d) in doc.get("drives").and_then(Json::as_obj).unwrap_or(&[]) {
        let _ = writeln!(
            out,
            "  {name:<36} {:>16} {:>16} ns",
            num(d.get("p25")),
            num(d.get("p50"))
        );
    }
    out
}
