//! The bench emitter: runs one of the five simulated-clock / in-process
//! sweeps of `xqd_bench` (README.md says which `BENCH*.json` answers which
//! question), prints its points as a table, writes the trajectory document
//! and exits non-zero when the sweep's verdict fails.
//!
//! Run with: `cargo run --release --example bench -- <bench>`
//! CI smoke:  `cargo run --release --example bench -- <bench> --small --out target/BENCH_<bench>.ci.json`

use std::process::ExitCode;

use xqd::Strategy;
use xqd_bench::report::Report;
use xqd_bench::{
    joins_report, joins_sweep, paths_report, paths_sweep, plans_report, plans_sweep, scaleout,
    scaleout_report, throughput_report, throughput_sweep,
};

const BENCHES: [&str; 5] = ["scaleout", "paths", "plans", "joins", "throughput"];

/// The committed sweep of `bench`, or its CI-sized one.
fn run(bench: &str, small: bool) -> Option<Report> {
    Some(match bench {
        "scaleout" => {
            let (max_peers, bytes_per_peer) = if small { (3, 4_000) } else { (8, 20_000) };
            scaleout_report(&scaleout(max_peers, bytes_per_peer))
        }
        "paths" => {
            let (scales, iters): (&[usize], _) =
                if small { (&[20_000], 2) } else { (&[50_000, 200_000, 800_000], 5) };
            paths_report(&paths_sweep(scales, iters))
        }
        "plans" => {
            let (bytes_per_doc, iters) = if small { (8_000, 30) } else { (30_000, 300) };
            let strategy = Strategy::ByProjection;
            plans_report(&plans_sweep(bytes_per_doc, strategy, iters), strategy)
        }
        "joins" => {
            let scales: &[usize] =
                if small { &[8_000, 30_000] } else { &[30_000, 120_000, 240_000, 480_000] };
            joins_report(&joins_sweep(scales))
        }
        "throughput" => {
            let (bytes_per_doc, target_arrivals, loads): (_, _, &[f64]) = if small {
                (4_000, 200, &[0.5, 1.0, 2.0])
            } else {
                (8_000, 1_200, &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
            };
            throughput_report(&throughput_sweep(bytes_per_doc, loads, target_arrivals))
        }
        _ => return None,
    })
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("bench: {problem}");
    eprintln!("usage: bench <{}> [--small] [--out PATH]", BENCHES.join("|"));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut bench = None;
    let mut small = false;
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => return usage("--out needs a path"),
            },
            name if !name.starts_with('-') && bench.is_none() => bench = Some(arg),
            other => return usage(&format!("unknown argument: {other}")),
        }
    }
    let Some(bench) = bench else { return usage("no bench named") };
    let Some(report) = run(&bench, small) else {
        return usage(&format!("unknown bench: {bench}"));
    };
    print!("{}", report.table());

    let out_path = out_path.unwrap_or_else(|| match bench.as_str() {
        "scaleout" => "BENCH.json".to_string(),
        name => format!("BENCH_{name}.json"),
    });
    if let Err(e) = std::fs::write(&out_path, report.document()) {
        eprintln!("bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("trajectory written to {out_path}");
    match report.verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("bench: FAILED — {why}");
            ExitCode::FAILURE
        }
    }
}
