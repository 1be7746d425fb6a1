//! `compare A.jsonl B.jsonl` and `--aa N`: judging two sets of runs by the
//! bounds `BENCHMARK.json` fixes, one row per workload × end-to-end metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

struct Manifest {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

fn load_manifest(path: &str) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let names = |key: &str| -> Vec<&Value> {
        doc.get(key)
            .map(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .collect()
    };
    let workloads = names("workloads")
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
        .collect();
    let metrics = names("end_to_end")
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: an end_to_end entry lacks name, unit, better or bound"))?;
    Ok(Manifest { workloads, metrics })
}

/// `workload → metric → values` of the untraced runs in a JSONL file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if run.get("trace").and_then(Value::as_f64).unwrap_or(0.0) != 0.0 {
            continue;
        }
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "{path}:{}: a run that was not correct cannot be compared",
                n + 1
            ));
        }
        let workload = run.get("workload").and_then(Value::as_str).ok_or_else(|| {
            format!(
                "{path}:{}: no workload (was the line written by --out?)",
                n + 1
            )
        })?;
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in run.get("metrics").map(Value::fields).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// B is better).
pub fn worsening(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    let change = (mb - ma) / ma.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// The rule of the choosing-metrics guide: a side whose own quartile
/// spread is wider than the bound cannot resolve a change of that size;
/// otherwise B is worse when its median is worse by more than the bound,
/// and better when it is better by more than A's own spread.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let w = worsening(a, b, lower_is_better);
    if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if w < 0.0 && -w > spread(a) {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One compared workload × metric.
struct Row {
    workload: String,
    metric: String,
    verdict: Verdict,
    worse_by: f64,
    bound: f64,
}

fn table(manifest: &Manifest, a: &Runs, b: &Runs) -> (String, Vec<Row>) {
    let mut out = String::from(
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | B worse by | spread A / B | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let mut verdicts = Vec::new();
    let empty = BTreeMap::new();
    for w in &manifest.workloads {
        let (ra, rb) = (a.get(w).unwrap_or(&empty), b.get(w).unwrap_or(&empty));
        for m in &manifest.metrics {
            let (Some(va), Some(vb)) = (ra.get(&m.name), rb.get(&m.name)) else {
                continue;
            };
            let cell = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
            };
            let v = verdict(va, vb, m.lower_is_better, m.bound);
            let worse_by = worsening(va, vb, m.lower_is_better);
            let _ = writeln!(
                out,
                "| {w} | {} | {} | {} | {} | {:+.1}% | {:.1}% / {:.1}% | {:.0}% | {} |",
                m.name,
                m.unit,
                cell(va),
                cell(vb),
                worse_by * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                m.bound * 100.0,
                v.word()
            );
            verdicts.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                verdict: v,
                worse_by,
                bound: m.bound,
            });
        }
    }
    (out, verdicts)
}

/// `wirebench compare A.jsonl B.jsonl`: prints the table; fails when any
/// row is `worse`.
pub fn compare_files(a: &str, b: &str, bench: &str) -> Result<bool, String> {
    let manifest = load_manifest(bench)?;
    let (text, verdicts) = table(&manifest, &load_runs(a)?, &load_runs(b)?);
    if verdicts.is_empty() {
        return Err(format!("{a} and {b} share no workload × metric to compare"));
    }
    print!("{text}");
    let count = |v: Verdict| verdicts.iter().filter(|r| r.verdict == v).count();
    println!(
        "\n{} rows: {} better, {} within, {} worse, {} unresolved",
        verdicts.len(),
        count(Verdict::Better),
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}

/// `wirebench --aa N`: every workload `N` times per side, the two sides
/// being the same build, alternating which side runs first and giving each
/// run another seed (as the driver does). Fails when any pair of set
/// medians differs by more than the metric's bound.
pub fn aa(
    n: usize,
    seed: u64,
    seconds: f64,
    bench: &str,
    report: Option<&str>,
) -> Result<bool, String> {
    let manifest = load_manifest(bench)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all("wirebench/out").map_err(|e| format!("creating wirebench/out: {e}"))?;
    let files = [
        format!("wirebench/out/aa-{}-A.jsonl", std::process::id()),
        format!("wirebench/out/aa-{}-B.jsonl", std::process::id()),
    ];
    for round in 0..n {
        for w in &manifest.workloads {
            let mut sides = [(0, seed + round as u64), (1, seed + (n + round) as u64)];
            if round % 2 == 1 {
                sides.reverse();
            }
            for (side, run_seed) in sides {
                eprintln!(
                    "# aa round {} of {n}: {w} side {} seed {run_seed}",
                    round + 1,
                    ["A", "B"][side]
                );
                let status = Command::new(&exe)
                    .args([
                        "--workload",
                        w,
                        "--seed",
                        &run_seed.to_string(),
                        "--trace",
                        "0",
                    ])
                    .args(["--seconds", &seconds.to_string(), "--out", &files[side]])
                    .stdout(Stdio::null())
                    .status()
                    .map_err(|e| format!("running {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("{w} seed {run_seed} failed ({status})"));
                }
            }
        }
    }
    let (a, b) = (load_runs(&files[0])?, load_runs(&files[1])?);
    let (text, verdicts) = table(&manifest, &a, &b);
    let apart: Vec<_> = verdicts
        .iter()
        .filter(|r| r.worse_by.abs() > r.bound)
        .map(|r| format!("{} {} ({:+.1}%)", r.workload, r.metric, r.worse_by * 100.0))
        .collect();
    let mut doc = format!(
        "# wirebench A/A: the same build against itself\n\n\
         `wirebench --aa {n} --seed {seed} --seconds {seconds}` on {} core(s): every workload {n} times per side, \
         sides alternating, every run with another seed (A: {seed}..{}, B: {}..{}).\n\
         A row passes when the two set medians differ by no more than the bound.\n\n{text}\n",
        std::thread::available_parallelism().map_or(0, |c| c.get()),
        seed + n as u64 - 1,
        seed + n as u64,
        seed + 2 * n as u64 - 1,
    );
    if apart.is_empty() {
        let _ = writeln!(
            doc,
            "**PASS**: all {} pairs of set medians agree within their bounds.",
            verdicts.len()
        );
    } else {
        let _ = writeln!(
            doc,
            "**FAIL**: set medians more than the bound apart: {}.",
            apart.join(", ")
        );
    }
    print!("{doc}");
    let path = report.unwrap_or("wirebench/out/AA.md");
    std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
    for f in &files {
        let _ = std::fs::remove_file(f);
    }
    Ok(apart.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| base.iter().map(|v| v * by).collect::<Vec<f64>>();
        // lower is better: +20% is worse than a 10% bound, +5% is within
        assert_eq!(verdict(&base, &shift(1.2), true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &shift(1.05), true, 0.10), Verdict::Within);
        assert_eq!(verdict(&base, &shift(0.9), true, 0.10), Verdict::Better);
        // higher is better flips the direction
        assert_eq!(verdict(&base, &shift(0.8), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &shift(1.2), false, 0.10), Verdict::Better);
        // a side noisier than the bound resolves nothing
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&noisy, &shift(1.3), true, 0.10),
            Verdict::Unresolved
        );
        // an improvement smaller than A's own spread is not claimed
        assert_eq!(verdict(&base, &shift(0.995), true, 0.10), Verdict::Within);
        assert!((worsening(&base, &shift(1.2), true) - 0.2).abs() < 1e-9);
        assert!((worsening(&base, &shift(1.2), false) + 0.2).abs() < 1e-9);
    }
}
