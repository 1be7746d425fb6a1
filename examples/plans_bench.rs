//! Plans experiment: the compiled front end (parse → decompose → lower to
//! flat plan IR) on a repeated-query workload, with the coordinator's LRU
//! plan cache off / cold / warm, plus end-to-end latency and bit-parity of
//! a replayed cached plan vs. a fresh front end. Writes the trajectory to
//! `BENCH_plans.json` (override with `--out <path>`) and prints the table.
//!
//! Run with: `cargo run --release --example plans_bench`
//! CI smoke:  `cargo run --release --example plans_bench -- --small --out target/BENCH_plans.ci.json`

use xqd::Strategy;

fn main() {
    let mut out_path = String::from("BENCH_plans.json");
    let mut bytes_per_doc = 30_000;
    let mut iters = 300;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--small" => {
                bytes_per_doc = 8_000;
                iters = 30;
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    let strategy = Strategy::ByProjection;
    eprintln!(
        "plans sweep: {} queries, {} front-end iters each, {} bytes/doc, {}",
        xqd_bench::PLANS_QUERIES.len(),
        iters,
        bytes_per_doc,
        strategy.name()
    );
    let points = xqd_bench::plans_sweep(bytes_per_doc, strategy, iters);

    println!(
        "{:>28} {:>12} {:>12} {:>12} {:>9} {:>10} {:>10} {:>6}",
        "query", "off p/s", "cold p/s", "warm p/s", "speedup", "comp us", "traced us", "equal"
    );
    for p in &points {
        println!(
            "{:>28} {:>12.0} {:>12.0} {:>12.0} {:>8.1}x {:>10} {:>10} {:>6}",
            p.query,
            p.off_plans_per_sec,
            p.cold_plans_per_sec,
            p.warm_plans_per_sec,
            p.warm_speedup(),
            p.compiled_us,
            p.traced_us,
            p.results_identical,
        );
    }
    let worst = points
        .iter()
        .map(|p| p.trace_overhead_frac())
        .fold(0.0f64, f64::max);
    eprintln!(
        "tracing overhead (traced vs untraced warm run): worst {:.1}% — budget ok: {}",
        worst * 100.0,
        points.iter().all(|p| p.trace_overhead_ok()),
    );

    let json = xqd_bench::plans_json(&points, strategy);
    std::fs::write(&out_path, &json).expect("write BENCH_plans.json");
    eprintln!("trajectory written to {out_path}");
}
