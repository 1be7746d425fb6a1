//! The measured (untraced) run: cold starts, the byte-count prefix, the
//! closed loop, and the end-to-end metrics computed from its windows.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xqd::xrpc::tcp::SocketRunOutcome;
use xqd::{EvalError, Federation, NetworkModel, Transport, XrpcError};

use crate::fleet::{self, Drained, Fleet, Placement};
use crate::json::{nums, obj, Value};
use crate::stats::{best_fifth, fractional_counts, median, nearest_rank, sorted, windows};
use crate::workload::{Inputs, Workload};

/// How long a run measures and how it is cut up.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Cold starts timed for `setup_s`, after one more that is discarded.
    pub cold_starts: usize,
    /// Closed-loop time before the first window; its samples are dropped.
    pub warmup: f64,
    pub window_len: f64,
    pub windows: usize,
    /// Wall-clock budget of each in-process timing of the traced run.
    pub micro: Duration,
    /// Queries per client whose envelopes the traced run keeps for replay.
    pub captured_queries: usize,
}

impl Plan {
    /// `seconds` of measurement in 1 s windows behind a 2 s warm-up.
    pub fn for_seconds(seconds: f64) -> Plan {
        let windows = (seconds.round() as usize).max(1);
        Plan {
            cold_starts: 9,
            warmup: 2.0,
            window_len: seconds / windows as f64,
            windows,
            micro: Duration::from_millis(120),
            captured_queries: 8,
        }
    }

    pub fn smoke() -> Plan {
        Plan {
            cold_starts: 1,
            warmup: 0.2,
            window_len: 0.5,
            windows: 2,
            micro: Duration::from_millis(10),
            captured_queries: 2,
        }
    }

    pub fn measured_seconds(&self) -> f64 {
        self.window_len * self.windows as f64
    }
}

/// The inputs of a run and the oracle's answers to them.
pub struct Prepared {
    pub workload: &'static Workload,
    pub inputs: Inputs,
    /// The in-process `Federation::run` result of every pool query.
    pub expected: Vec<Vec<String>>,
}

impl Prepared {
    pub fn new(workload: &'static Workload, seed: u64) -> Result<Prepared, String> {
        let inputs = workload.inputs(seed);
        let mut oracle = Federation::new(NetworkModel::lan());
        for d in &inputs.docs {
            oracle
                .load_document(d.peer, d.name, &d.xml)
                .map_err(|e| format!("oracle cannot load {}: {e}", d.uri()))?;
        }
        let expected = inputs
            .pool
            .iter()
            .map(|q| oracle.run(q, workload.strategy).map(|out| out.result))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("oracle failed on {}: {e}", workload.name))?;
        if expected.iter().any(Vec::is_empty) {
            return Err(format!(
                "{}: a generated query has an empty answer",
                workload.name
            ));
        }
        Ok(Prepared {
            workload,
            inputs,
            expected,
        })
    }

    /// True when `result` is bit-for-bit the oracle's answer to pool query `q`.
    pub fn correct(&self, q: usize, result: &Result<SocketRunOutcome, EvalError>) -> bool {
        matches!(result, Ok(out) if out.result == self.expected[q])
    }
}

/// What the daemons are started from: the `xqd` binary and the documents
/// on disk (removed again when the stage is dropped).
pub struct Stage<'a> {
    prep: &'a Prepared,
    pub placement: Placement,
    bin: PathBuf,
    dir: PathBuf,
    files: Vec<PathBuf>,
}

impl<'a> Stage<'a> {
    pub fn new(prep: &'a Prepared, seed: u64) -> Result<Stage<'a>, String> {
        let bin = fleet::xqd_binary()?;
        let dir = PathBuf::from("wirebench/out").join(format!(
            "{}-{seed}-{}",
            prep.workload.name,
            std::process::id()
        ));
        let files = fleet::write_docs(&dir, &prep.inputs.docs)?;
        Ok(Stage {
            prep,
            placement: Placement::apply(prep.workload.spread_peers)?,
            bin,
            dir,
            files,
        })
    }

    /// One cold start: spawn all daemons → all READY → first correct reply
    /// on a fresh coordinator.
    fn cold_start(&self) -> Result<(Fleet, Duration), String> {
        let prep = self.prep;
        let t0 = Instant::now();
        let fleet = Fleet::start(&self.bin, &self.placement, &prep.inputs.docs, &self.files)?;
        let mut fed = fleet.coordinator();
        let (q, text) = prep.inputs.query(0);
        let reply = fed.run(text, prep.workload.strategy);
        let elapsed = t0.elapsed();
        if !prep.correct(q, &reply) {
            return Err(format!(
                "{}: first reply after a cold start is wrong: {:?}",
                prep.workload.name,
                reply.map(|o| o.result)
            ));
        }
        Ok((fleet, elapsed))
    }

    /// `plan.cold_starts + 1` cold starts, the first discarded; every fleet
    /// but the last is drained again. Returns the last fleet with the
    /// set-up times in seconds and the spawn → READY times in ms.
    pub fn cold_starts(&self, plan: &Plan) -> Result<(Fleet, Vec<f64>, Vec<f64>), String> {
        let mut setup = Vec::new();
        let mut ready = Vec::new();
        let mut last = None;
        for i in 0..=plan.cold_starts {
            if let Some(previous) = last.take() {
                drain_clean(previous)?;
            }
            let (fleet, elapsed) = self.cold_start()?;
            if i > 0 {
                setup.push(elapsed.as_secs_f64());
                ready.extend(fleet.daemons.iter().map(|d| d.ready.as_secs_f64() * 1e3));
            }
            last = Some(fleet);
        }
        Ok((last.expect("at least one cold start"), setup, ready))
    }
}

impl Drop for Stage<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Drains a fleet and insists on exit 0 and nothing shed.
pub fn drain_clean(fleet: Fleet) -> Result<Drained, String> {
    let drained = fleet.drain();
    if !drained.exit_ok {
        return Err("a daemon did not exit 0 after drain".to_string());
    }
    if drained.shed != 0 {
        return Err(format!("daemons shed {} request(s)", drained.shed));
    }
    Ok(drained)
}

/// Counts payload bytes through the `Transport` seam. Used for the
/// byte-count prefix only; the measured loop runs on the bare transport.
pub struct CountingTransport<T> {
    inner: T,
    bytes: AtomicU64,
}

impl<T: Transport> CountingTransport<T> {
    pub fn new(inner: T) -> CountingTransport<T> {
        CountingTransport {
            inner,
            bytes: AtomicU64::new(0),
        }
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        let reply = self.inner.exchange(peer, request, budget)?;
        self.bytes
            .fetch_add((request.len() + reply.len()) as u64, Ordering::Relaxed);
        Ok(reply)
    }
}

/// Totals over every query a phase issued.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub remote_calls: u64,
    pub doc_fetches: u64,
    pub retries: u64,
    pub failovers: u64,
}

impl Tally {
    pub fn note(&mut self, correct: bool, result: &Result<SocketRunOutcome, EvalError>) {
        self.attempted += 1;
        self.failed += u64::from(!correct);
        if let Ok(out) = result {
            self.remote_calls += out.remote_calls;
            self.doc_fetches += out.doc_fetches;
            self.retries += out.retries;
            self.failovers += out.failovers;
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.remote_calls += other.remote_calls;
        self.doc_fetches += other.doc_fetches;
        self.retries += other.retries;
        self.failovers += other.failovers;
    }
}

/// The byte-count prefix: the first `byte_prefix` queries of the sequence,
/// one after the other on one coordinator over `transport`, each checked
/// against the oracle. Returns payload bytes (request + reply) per query.
pub fn byte_prefix<T: Transport + 'static>(
    prep: &Prepared,
    transport: T,
    tally: &mut Tally,
) -> f64 {
    let counting = Arc::new(CountingTransport::new(transport));
    let mut fed = fleet::coordinator_over(Arc::<CountingTransport<T>>::clone(&counting));
    let n = prep.workload.byte_prefix;
    for position in 0..n {
        let (q, text) = prep.inputs.query(position);
        let result = fed.run(text, prep.workload.strategy);
        tally.note(prep.correct(q, &result), &result);
    }
    counting.bytes.load(Ordering::Relaxed) as f64 / n as f64
}

/// One completed query of the closed loop; times in seconds since the
/// first window opened (negative during warm-up).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub sent_s: f64,
    pub done_s: f64,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.sent_s) * 1e3
    }
}

pub struct LoopResult {
    /// When the first window opened (the end of warm-up).
    pub opened: Instant,
    pub samples: Vec<Sample>,
    /// `(driver, daemons)` CPU milliseconds at each window boundary
    /// (`windows + 1` marks).
    pub cpu_marks: Vec<(f64, f64)>,
    pub tally: Tally,
}

/// The closed loop. `client(t)` builds client `t`'s "run one query"
/// function; each client walks the fixed sequence from its own start and
/// sends its next query when the previous reply has been checked. The
/// calling thread sleeps between window boundaries and reads `/proc`
/// there, so it costs the clients nothing.
pub fn closed_loop<C>(
    prep: &Prepared,
    fleet: &Fleet,
    plan: &Plan,
    client: impl Fn(usize) -> C + Sync,
) -> LoopResult
where
    C: FnMut(u64, &str) -> Result<SocketRunOutcome, EvalError>,
{
    let clients = prep.workload.clients;
    let started = Instant::now();
    let open = started + Duration::from_secs_f64(plan.warmup);
    let close = open + Duration::from_secs_f64(plan.measured_seconds());
    let daemons = fleet.pids();
    let me = std::process::id();
    let mut cpu_marks = Vec::with_capacity(plan.windows + 1);
    let per_client: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let client = &client;
                s.spawn(move || {
                    let mut run = client(t);
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    let mut position = prep.inputs.start_of(t, clients);
                    loop {
                        let sent = Instant::now();
                        if sent >= close {
                            return (samples, tally);
                        }
                        let (q, text) = prep.inputs.query(position);
                        // query ids are unique across clients
                        let result = run((position * clients + t) as u64, text);
                        let done = Instant::now();
                        tally.note(prep.correct(q, &result), &result);
                        samples.push(Sample {
                            sent_s: since(open, sent),
                            done_s: since(open, done),
                        });
                        position += 1;
                    }
                })
            })
            .collect();
        for w in 0..=plan.windows {
            let boundary = open + Duration::from_secs_f64(plan.window_len * w as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu_marks.push((fleet::cpu_ms(me), fleet::cpu_ms_of(&daemons)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for (s, t) in per_client {
        samples.extend(s);
        tally.add(&t);
    }
    samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    LoopResult {
        opened: open,
        samples,
        cpu_marks,
        tally,
    }
}

/// Seconds from `origin` to `t`, negative when `t` is earlier.
fn since(origin: Instant, t: Instant) -> f64 {
    if t >= origin {
        (t - origin).as_secs_f64()
    } else {
        -(origin - t).as_secs_f64()
    }
}

/// Per-window series of the closed loop.
pub struct Windows {
    pub qps: Vec<f64>,
    pub p50_ms: Vec<f64>,
    pub p90_ms: Vec<f64>,
    pub cpu_ms_per_query: Vec<f64>,
    pub driver_cpu_ms_per_query: Vec<f64>,
    pub daemon_cpu_ms_per_query: Vec<f64>,
    pub counts: Vec<f64>,
}

pub fn window_series(result: &LoopResult, plan: &Plan) -> Windows {
    let points: Vec<(f64, f64)> = result
        .samples
        .iter()
        .map(|s| (s.done_s, s.latency_ms()))
        .collect();
    let per_window: Vec<Vec<f64>> = windows(&points, plan.window_len, plan.windows)
        .iter()
        .map(|w| sorted(w))
        .collect();
    let intervals: Vec<(f64, f64)> = result
        .samples
        .iter()
        .map(|s| (s.sent_s, s.done_s))
        .collect();
    let counts = fractional_counts(&intervals, plan.window_len, plan.windows);
    let per_query = |pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        result
            .cpu_marks
            .windows(2)
            .zip(&counts)
            .map(|(m, n)| (pick(&m[1]) - pick(&m[0])) / n.max(f64::MIN_POSITIVE))
            .collect()
    };
    Windows {
        qps: counts.iter().map(|n| n / plan.window_len).collect(),
        p50_ms: per_window.iter().map(|w| nearest_rank(w, 50.0)).collect(),
        p90_ms: per_window.iter().map(|w| nearest_rank(w, 90.0)).collect(),
        cpu_ms_per_query: per_query(|m| m.0 + m.1),
        driver_cpu_ms_per_query: per_query(|m| m.0),
        daemon_cpu_ms_per_query: per_query(|m| m.1),
        counts: per_window.iter().map(|w| w.len() as f64).collect(),
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("wire_bytes_per_query", "B"),
    ("peak_rss_mb", "MB"),
];

pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Raw series behind the metrics; printed, never compared.
    pub detail: Value,
}

/// The whole untraced run of one workload and seed.
pub fn run(workload: &'static Workload, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let prep = Prepared::new(workload, seed)?;
    let stage = Stage::new(&prep, seed)?;
    let (fleet, setup, ready) = stage.cold_starts(plan)?;
    let mut tally = Tally {
        attempted: setup.len() as u64 + 1,
        ..Tally::default()
    };

    let wire_bytes = byte_prefix(&prep, fleet.transport(), &mut tally);
    // read after a fixed amount of work, not at the end of the timed loop:
    // a daemon keeps every request envelope it ever decoded, so memory at
    // the end grows with the rate and a faster build would look worse
    let peak_rss: f64 = std::iter::once(std::process::id())
        .chain(fleet.pids())
        .map(fleet::peak_rss_mb)
        .sum();
    let result = closed_loop(&prep, &fleet, plan, |_| {
        let mut fed = fleet.coordinator();
        move |_, text: &str| fed.run(text, workload.strategy)
    });
    tally.add(&result.tally);

    let drained = drain_clean(fleet)?;
    let pinned = stage.placement.pinned();
    // ends the placement's spinners, which would count as orphans
    drop(stage);
    let orphans = fleet::orphans();

    let w = window_series(&result, plan);
    if w.counts.contains(&0.0) {
        return Err(format!("{}: a window completed no query", workload.name));
    }
    let measured: Vec<f64> = sorted(
        &result
            .samples
            .iter()
            .filter(|s| s.done_s >= 0.0)
            .map(Sample::latency_ms)
            .collect::<Vec<_>>(),
    );
    let values = [
        median(&setup),
        best_fifth(&w.qps, true),
        best_fifth(&w.p50_ms, false),
        best_fifth(&w.cpu_ms_per_query, false),
        wire_bytes,
        peak_rss,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (*name, v, *unit))
        .collect();
    let detail = obj(vec![
        ("workload", Value::Str(workload.name.to_string())),
        ("seed", Value::Num(seed as f64)),
        ("clients", Value::Num(workload.clients as f64)),
        ("pinned", Value::Bool(pinned)),
        (
            "cores",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("window_s", Value::Num(plan.window_len)),
        ("samples", Value::Num(measured.len() as f64)),
        (
            "min_samples_per_window",
            Value::Num(w.counts.iter().copied().fold(f64::MAX, f64::min)),
        ),
        ("p95_ms", Value::Num(nearest_rank(&measured, 95.0))),
        ("p99_ms", Value::Num(nearest_rank(&measured, 99.0))),
        (
            "max_ms",
            Value::Num(measured.last().copied().unwrap_or(0.0)),
        ),
        (
            "fail_share",
            Value::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        ("retries", Value::Num(tally.retries as f64)),
        ("failovers", Value::Num(tally.failovers as f64)),
        ("served", Value::Num(drained.served as f64)),
        ("shed", Value::Num(drained.shed as f64)),
        ("orphans", Value::Num(orphans as f64)),
        ("setup_s", nums(&setup)),
        ("ready_ms", nums(&ready)),
        ("qps", nums(&w.qps)),
        ("p50_ms", nums(&w.p50_ms)),
        ("p90_ms", nums(&w.p90_ms)),
        ("cpu_ms_per_query", nums(&w.cpu_ms_per_query)),
    ]);
    let correct = tally.failed == 0 && tally.retries == 0 && tally.failovers == 0 && orphans == 0;
    Ok(Outcome {
        correct,
        tally,
        metrics,
        detail,
    })
}
