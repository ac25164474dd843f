//! `decaf_bench` — the repo's benchmark: six workloads, two clocks,
//! end-to-end and per-layer. See `README.md` beside this package for the
//! metric glossary, the predictions and the noise method.
//!
//! ```text
//! decaf_bench --workload W --seed N --seconds S --trace 0|1   one block (what the PR driver runs)
//! decaf_bench run [--seed N] [--out FILE]                     all of it, as one document
//! decaf_bench diff A.json B.json                              B judged against A
//! decaf_bench manifest                                        prints BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod block;
mod diff;
mod host;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod traceagg;
mod workloads;

use std::process::ExitCode;

use block::BlockArgs;
use json::Json;

const USAGE: &str = "usage:
  decaf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  decaf_bench run [--seed <n>] [--out <file>]
  decaf_bench diff <A.json> <B.json>
  decaf_bench manifest";

/// `--flag value` pairs of `args`, or an error naming the stray word.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{flag}: cannot read {value:?}"))
}

fn block_main(args: &[String]) -> Result<ExitCode, String> {
    let mut b = BlockArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    for (flag, value) in flags(args)? {
        match flag {
            "workload" => b.workload = value.to_string(),
            "seed" => b.seed = parse(flag, value)?,
            "seconds" => b.seconds = parse(flag, value)?,
            "trace" => b.trace = parse::<u8>(flag, value)? != 0,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    if !workloads::NAMES.contains(&b.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(b.seconds >= 0.0 && b.seconds <= 60.0) {
        return Err("--seconds must be between 0 and 60".into());
    }
    let result = block::run_block(&b, &workloads::Size::full());
    for f in &result.failures {
        eprintln!("FAILED CHECK ({}): {f}", b.workload);
    }
    // The detail line is for `run`; the PR driver reads only the last.
    println!("{}", result.to_json().to_line());
    println!("{}", result.to_driver_line());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let mut seed = 1;
    let mut out = None;
    for (flag, value) in flags(args)? {
        match flag {
            "seed" => seed = parse(flag, value)?,
            "out" => out = Some(std::path::PathBuf::from(value)),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let doc = run::run(seed, &mut |line| eprintln!("{line}"))?;
    print!("{}", run::render(&doc));
    let out = out.unwrap_or_else(|| block::artifact_dir().join("run.json"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    let all_correct = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .is_some_and(|ws| {
            ws.iter()
                .all(|(_, d)| d.get("correct").and_then(Json::as_bool) == Some(true))
        });
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn diff_main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("diff takes exactly two files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, verdict) = diff::diff(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if verdict.regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_main(&args[1..]),
        Some("diff") => diff_main(&args[1..]),
        Some("manifest") => spec::validate_contract().map(|()| {
            print!("{}", spec::manifest().to_pretty());
            ExitCode::SUCCESS
        }),
        Some(flag) if flag.starts_with("--") => block_main(&args),
        _ => Err(USAGE.into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("decaf_bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Inputs, Size};

    /// Every workload, twice at the quick size with one seed: identical
    /// virtual sections and every check green. Then, where the seed decides
    /// anything, once with another seed: the checks still pass, and the
    /// seed reordered the inputs without resizing them.
    #[test]
    fn quick_runs_are_deterministic_and_correct_on_two_seeds() {
        let size = Size::quick();
        let (one, two) = (Inputs::from_seed(1), Inputs::from_seed(2));
        assert_eq!(one, Inputs::from_seed(1), "same seed, same inputs");
        assert_ne!(one, two, "seeds 1 and 2 order the inputs differently");
        for w in workloads::NAMES {
            let a = workloads::run_rep(w, &one, &size, false);
            assert!(a.checks.failures.is_empty(), "{w}: {:?}", a.checks.failures);
            assert!(
                a.checks.run > 0 && a.virt.attempted > 0 && a.virt.wrong_ops == 0,
                "{w}"
            );
            // `table3` is a second in a debug build, and one repetition of it
            // already calls the program twice and checks the rows equal.
            if w != "table3" {
                let b = workloads::run_rep(w, &one, &size, false);
                assert_eq!(
                    a.virt, b.virt,
                    "{w}: same seed must give the same virtual section"
                );
            }
            if ["net_send_shard4", "net_recv_poll", "tar_rw_shard4"].contains(&w) {
                let c = workloads::run_rep(w, &two, &size, false);
                assert!(
                    c.checks.failures.is_empty(),
                    "{w} seed 2: {:?}",
                    c.checks.failures
                );
                assert_eq!(
                    c.virt.attempted, a.virt.attempted,
                    "{w}: seed 2 resized the work"
                );
            }
        }
    }

    /// A traced repetition leaves the virtual section alone, and the
    /// block's metric lists are exactly the contract's, in order.
    #[test]
    fn traced_quick_block_matches_the_contract() {
        let size = Size::quick();
        for (w, has_events) in [
            ("net_send_shard4", true),
            ("tar_rw_shard4", true),
            ("overload_mix", false),
        ] {
            let inputs = Inputs::from_seed(7);
            let plain = workloads::run_rep(w, &inputs, &size, false);
            let traced = workloads::run_rep(w, &inputs, &size, true);
            assert_eq!(
                plain.virt.without_latency(),
                traced.virt.without_latency(),
                "{w}"
            );
            assert_eq!(!traced.events.is_empty(), has_events, "{w}");
            assert!(plain.events.is_empty());
        }
        let args = BlockArgs {
            workload: "tar_rw_shard4".into(),
            seed: 3,
            seconds: 0.0,
            trace: false,
        };
        let e2e = block::run_block(&args, &size);
        assert!(e2e.correct, "{:?}", e2e.failures);
        assert!(e2e
            .metrics
            .iter()
            .map(|m| m.0)
            .eq(spec::END_TO_END.iter().map(|m| m.name)));
        let line = Json::parse(&e2e.to_driver_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(setup.get("value").and_then(Json::as_f64).unwrap() > 0.0);
    }
}
