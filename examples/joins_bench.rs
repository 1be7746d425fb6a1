//! Joins experiment: join-aware decomposition (semi-join key shipping)
//! against the best of the paper's four strategies on the Q2-shaped XMark
//! join, across auction-side scales. Writes the trajectory to
//! `BENCH_joins.json` (override with `--out <path>`) and prints the table.
//!
//! Run with: `cargo run --release --example joins_bench`
//! CI smoke:  `cargo run --release --example joins_bench -- --small --out target/BENCH_joins.ci.json`

fn main() {
    let mut out_path = String::from("BENCH_joins.json");
    let mut scales: Vec<usize> = vec![30_000, 120_000, 240_000, 480_000];

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--small" => scales = vec![8_000, 30_000],
            other => panic!("unknown argument: {other}"),
        }
    }

    eprintln!("joins sweep: {} scales, Q2 join on the XMark pair", scales.len());
    let points = xqd_bench::joins_sweep(&scales);

    println!(
        "{:>10} {:>22} {:>10} {:>22} {:>10} {:>10} {:>6} {:>6}",
        "doc bytes", "baseline", "bytes", "semijoin", "bytes", "reduction", "keys", "equal"
    );
    for p in &points {
        println!(
            "{:>10} {:>22} {:>10} {:>22} {:>10} {:>9.2}x {:>6} {:>6}",
            p.total_doc_bytes,
            p.baseline_strategy,
            p.baseline_bytes,
            p.semijoin_strategy,
            p.semijoin_bytes,
            p.reduction(),
            p.join_keys_shipped,
            p.results_identical,
        );
    }

    let json = xqd_bench::joins_json(&points);
    std::fs::write(&out_path, &json).expect("write BENCH_joins.json");
    eprintln!("trajectory written to {out_path}");
}
