//! wirebench — a real-socket federation benchmark for xqd.
//!
//! One command per workload and seed spawns `xqd serve` daemons on
//! loopback, drives them through `SocketFederation` from this process,
//! checks every reply against the in-process `Federation::run` oracle,
//! drains the daemons and prints every metric by name and unit, the result
//! object last. See `wirebench/README.md`.

mod compare;
mod fleet;
mod json;
mod layers;
mod measure;
mod stats;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use json::{metrics_object, obj, Value};
use measure::{Outcome, Plan};

const USAGE: &str = "\
wirebench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
wirebench --smoke
wirebench --aa N [--seed N] [--seconds S] [--report FILE]
wirebench compare A.jsonl B.jsonl [--bench BENCHMARK.json]

workloads: point_lookup xmark_semijoin bulk_ship scatter_fanout
";

/// Hard ceiling on one run; the contract allows 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(150);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    aa: Option<usize>,
    report: Option<String>,
    bench: String,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 28.0,
        trace: false,
        out: None,
        smoke: false,
        aa: None,
        report: None,
        bench: "BENCHMARK.json".to_string(),
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        if flag == "--smoke" {
            args.smoke = true;
            i += 1;
            continue;
        }
        if !flag.starts_with("--") {
            args.positional.push(raw[i].clone());
            i += 1;
            continue;
        }
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag} needs a number, got {value:?}"))
        };
        match flag {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number, got {value:?}"))?
            }
            "--seconds" => {
                args.seconds = number()?;
                if !(args.seconds >= 1.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be between 1 and 120".to_string());
                }
            }
            "--trace" => args.trace = number()? != 0.0,
            "--out" => args.out = Some(value.clone()),
            "--aa" => args.aa = Some(number()? as usize),
            "--report" => args.report = Some(value.clone()),
            "--bench" => args.bench = value.clone(),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 2;
    }
    Ok(args)
}

/// Prints one run's metrics by name and unit, then the detail line, then
/// the result object as the last line; appends the object to `--out`.
fn report(
    workload: &str,
    seed: u64,
    traced: bool,
    outcome: &Outcome,
    out: Option<&str>,
) -> Result<(), String> {
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!("detail {}", outcome.detail.render());
    let result = obj(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.tally.attempted as f64)),
        ("failed", Value::Num(outcome.tally.failed as f64)),
        ("metrics", metrics_object(&outcome.metrics)),
    ]);
    if let Some(path) = out {
        // the appended line also says which run it was; the printed object
        // keeps exactly the four keys of the contract
        let mut fields = vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            ("seed".to_string(), Value::Num(seed as f64)),
            ("trace".to_string(), Value::Num(f64::from(u8::from(traced)))),
        ];
        fields.extend(result.fields().iter().cloned());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {path}: {e}"))?;
        writeln!(file, "{}", Value::Obj(fields).render())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(())
}

fn run_one(
    name: &str,
    seed: u64,
    traced: bool,
    plan: &Plan,
    out: Option<&str>,
) -> Result<bool, String> {
    let workload =
        workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let outcome = if traced {
        layers::run(workload, seed, plan)?
    } else {
        measure::run(workload, seed, plan)?
    };
    report(name, seed, traced, &outcome, out)?;
    Ok(outcome.correct)
}

/// `--smoke`: every workload, untraced and traced, at toy length.
fn smoke(seed: u64, out: Option<&str>) -> Result<bool, String> {
    let plan = Plan::smoke();
    let mut all = true;
    for w in &workload::WORKLOADS {
        for traced in [false, true] {
            println!("# smoke: {} trace={}", w.name, u8::from(traced));
            all &= run_one(w.name, seed, traced, &plan, out)?;
        }
    }
    Ok(all)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--spin") {
        fleet::spin_until_stdin_closes();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    let outcome = if args.positional.first().map(String::as_str) == Some("compare") {
        match args.positional.as_slice() {
            [_, a, b] => compare::compare_files(a, b, &args.bench),
            _ => Err(format!("compare needs two files\n{USAGE}")),
        }
    } else if let Some(n) = args.aa {
        compare::aa(
            n,
            args.seed,
            args.seconds,
            &args.bench,
            args.report.as_deref(),
        )
    } else if args.smoke {
        fleet::arm_watchdog(RUN_LIMIT);
        smoke(args.seed, args.out.as_deref())
    } else if let Some(name) = &args.workload {
        fleet::arm_watchdog(RUN_LIMIT);
        run_one(
            name,
            args.seed,
            args.trace,
            &Plan::for_seconds(args.seconds),
            args.out.as_deref(),
        )
    } else {
        Err(USAGE.to_string())
    };
    // nothing this process started may outlive it, whatever happened above
    fleet::kill_all();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics, in the same order and with the same units.
    #[test]
    fn benchmark_json_matches_what_the_driver_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .map(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string()
                })
                .collect()
        };
        let names =
            |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        let units =
            |table: &[(&str, &str)]| table.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
        assert_eq!(
            listed("workloads", "name"),
            workload::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
        );
        assert_eq!(listed("end_to_end", "name"), names(&measure::END_TO_END));
        assert_eq!(listed("end_to_end", "unit"), units(&measure::END_TO_END));
        assert_eq!(listed("per_layer", "name"), names(&layers::PER_LAYER));
        assert_eq!(listed("per_layer", "unit"), units(&layers::PER_LAYER));
        assert_eq!(
            doc.get("paths").map(Value::as_arr).unwrap_or(&[]),
            [Value::Str("wirebench".into())]
        );
    }
}
