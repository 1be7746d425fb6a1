//! Overload-robust concurrent execution: admission control, weighted fair
//! queuing and deadline propagation for multi-tenant workloads.
//!
//! The federation executes *one query* well — scatter-gather, failover,
//! plan caching. This module adds the coordinator-side concurrency layer
//! that arbitrates *many concurrent clients* over those shared peers, the
//! gap the DXQ network specification calls out: a scheduler that degrades
//! gracefully instead of collapsing when offered load exceeds capacity.
//!
//! # Execution model
//!
//! The engine is a **discrete-event simulation on the simulated clock**,
//! exactly like the network cost model: tenants fire queries with seeded
//! (`xqd-prng`) Poisson arrivals, `workers` executor slots bound the
//! concurrency, and cross-query interleaving is decided by deterministic
//! event order — so an entire multi-tenant workload replays bit-for-bit,
//! counters included, which is what lets the chaos suite pin replay
//! determinism *under contention*. Every admitted query is still executed
//! **for real** against the federation (sequentially, in dispatch order;
//! within a query the scatter threads fan out as usual), and its result is
//! compared against the fault-free serial baseline — the "completed
//! bit-identically or typed error" invariant is checked, not assumed.
//! A query's *service time* on the simulated clock is its run's overlapped
//! network bill plus a fixed deterministic CPU charge
//! ([`WorkloadConfig::service_overhead`]), keeping the schedule independent
//! of host wall-clock noise.
//!
//! # The scheduler
//!
//! * **Admission control** — each tenant has a bounded run queue
//!   ([`WorkloadConfig::queue_depth`]). An arrival that finds its queue
//!   full is shed immediately with a typed [`XrpcError::Overloaded`]
//!   carrying an honest `retry_after_ms` estimate (time until a slot and
//!   queue space free up). Nothing is dispatched for a shed query, so past
//!   saturation the goodput curve flattens instead of collapsing.
//! * **Weighted fair queuing** — queued queries carry start/finish tags in
//!   virtual time (start-time fair queuing with unit cost per query,
//!   scaled by the tenant's weight); dispatch picks the smallest finish
//!   tag, so one flooding tenant can delay the others by at most its fair
//!   share. [`WorkloadConfig::fair`]` = false` degrades to a global FIFO,
//!   which the saturation suite uses to measure the protection WFQ buys.
//! * **Deadline propagation** — every query carries
//!   `arrival + `[`WorkloadConfig::deadline`]. At dispatch time, a query
//!   that can no longer finish inside its deadline (dispatch time plus its
//!   template's baseline service estimate) is cancelled with a typed
//!   timeout *before* it consumes a worker slot — queued work that already
//!   missed its deadline never steals capacity from work that can still
//!   meet one.

use std::collections::HashMap;
use std::time::Duration;

use xqd_core::Strategy;
use xqd_prng::Rng;
use xqd_xquery::value::{EvalError, EvalResult};

use crate::exec::Federation;
use crate::net::{FaultPlan, Metrics, XrpcError, METRIC_NAMES};
use crate::trace::{SpanBuilder, Trace, Tracer, ROOT_SPAN};

/// One simulated tenant: a name, a fair-queuing weight, an offered arrival
/// rate and the query templates its arrivals cycle through.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: String,
    /// Weighted-fair-queuing weight (`0` is treated as `1`). A tenant with
    /// weight 2 is entitled to twice the dispatch share of a weight-1
    /// tenant while both are backlogged.
    pub weight: u32,
    /// Offered load in queries per second of simulated time.
    pub offered_qps: f64,
    /// Query templates; arrival `n` of this tenant runs template
    /// `n % queries.len()`.
    pub queries: Vec<String>,
}

impl TenantSpec {
    pub fn new(name: &str, weight: u32, offered_qps: f64, queries: Vec<String>) -> Self {
        TenantSpec { name: name.to_string(), weight, offered_qps, queries }
    }
}

/// Scheduler and workload-shape knobs for one engine run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    pub tenants: Vec<TenantSpec>,
    pub strategy: Strategy,
    /// Seed of every tenant's arrival process (each tenant draws from its
    /// own stream mixed from this) and of the per-query fault-plan
    /// rotation.
    pub seed: u64,
    /// Length of the arrival window on the simulated clock. Queries
    /// arriving inside the window are still driven to completion (or a
    /// typed error) after it closes.
    pub duration: Duration,
    /// Concurrent executor slots — the capacity the run queue feeds.
    pub workers: usize,
    /// Bound of each tenant's run queue; an arrival beyond it is shed with
    /// [`XrpcError::Overloaded`].
    pub queue_depth: usize,
    /// Per-query deadline, measured from arrival on the simulated clock.
    pub deadline: Duration,
    /// Weighted fair queuing across tenants; `false` = one global FIFO
    /// (the rogue-tenant comparison mode).
    pub fair: bool,
    /// Deterministic CPU charge added to each query's simulated service
    /// time on top of its overlapped network bill.
    pub service_overhead: Duration,
}

impl WorkloadConfig {
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        WorkloadConfig {
            tenants,
            strategy: Strategy::ByProjection,
            seed: 1,
            duration: Duration::from_millis(500),
            workers: 4,
            queue_depth: 16,
            deadline: Duration::from_millis(200),
            fair: true,
            service_overhead: Duration::from_micros(500),
        }
    }

    /// Total offered load across tenants, in queries per second.
    pub fn offered_qps(&self) -> f64 {
        self.tenants.iter().map(|t| t.offered_qps).sum()
    }
}

/// How one arrival ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Ran to completion; the result was compared against the serial
    /// baseline.
    Completed,
    /// Rejected at admission with [`XrpcError::Overloaded`].
    Shed,
    /// Cancelled at dispatch because its deadline was no longer reachable.
    DeadlineCancelled,
    /// Dispatched but failed with a typed execution error (fault
    /// injection, exhausted failover ladder, …).
    Errored,
}

/// The audited fate of one arrival.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub tenant: usize,
    /// Arrival time on the simulated clock.
    pub arrival: Duration,
    /// Completion (or shed/cancel decision) time on the simulated clock.
    pub finish: Duration,
    pub kind: OutcomeKind,
    /// The typed error code for every non-completed outcome (`None` only
    /// for [`OutcomeKind::Completed`]).
    pub error_code: Option<String>,
    /// For completed queries: did the result match the fault-free serial
    /// baseline bit-for-bit?
    pub matched_baseline: bool,
}

/// Per-tenant accounting of one engine run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub name: String,
    pub arrivals: u64,
    pub completed: u64,
    pub shed: u64,
    pub deadline_cancelled: u64,
    pub errored: u64,
    pub p50: Duration,
    pub p95: Duration,
    pub p99: Duration,
}

/// Everything one engine run produced.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub arrivals: u64,
    pub completed: u64,
    pub shed: u64,
    pub deadline_cancelled: u64,
    pub errored: u64,
    /// Simulated time from the first arrival to the last completion.
    pub sim_duration: Duration,
    /// Completed queries per second of simulated time.
    pub goodput_qps: f64,
    /// Total offered load (echoed from the config).
    pub offered_qps: f64,
    pub p50: Duration,
    pub p95: Duration,
    pub p99: Duration,
    pub per_tenant: Vec<TenantReport>,
    /// Every completed query matched the fault-free serial baseline.
    pub results_identical: bool,
    /// Every non-completed query carries a typed error code.
    pub all_errors_typed: bool,
    /// Execution metrics summed over every dispatched query, plus the
    /// scheduler counters (`queued`, `shed`, `deadline_cancelled`,
    /// `peak_queue_depth`).
    pub metrics: Metrics,
    /// One entry per arrival, in arrival order.
    pub outcomes: Vec<QueryOutcome>,
}

impl WorkloadReport {
    /// Accounting invariant: every arrival ended in exactly one bucket.
    pub fn fully_accounted(&self) -> bool {
        self.completed + self.shed + self.deadline_cancelled + self.errored == self.arrivals
    }

    /// The deterministic fields the replay-determinism suite compares:
    /// scheduler buckets, per-query fates and the metric counters.
    pub fn replay_signature(&self) -> (u64, u64, u64, u64, [u64; METRIC_NAMES.len()]) {
        (
            self.completed,
            self.shed,
            self.deadline_cancelled,
            self.errored,
            self.metrics.counters(),
        )
    }
}

/// SplitMix-style mixing for per-tenant arrival streams and per-query
/// fault-plan rotation.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .rotate_left(17)
}

/// Exponential inter-arrival gap for a Poisson process of rate `qps`.
fn exp_gap(rng: &mut Rng, qps: f64) -> Duration {
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let secs = -(1.0 - u).ln() / qps;
    Duration::from_secs_f64(secs.clamp(0.0, 3600.0))
}

/// Percentile over a **sorted** latency list (nearest-rank on `n-1`).
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One queued (or about-to-be-dispatched) query.
struct Job {
    seq: u64,
    tenant: usize,
    /// Index into the deduplicated template table.
    template: usize,
    arrival: Duration,
    deadline: Duration,
    /// WFQ start/finish tags in virtual time (unit cost over weight).
    start_tag: u128,
    finish_tag: u128,
}

/// Virtual-time unit of one query (scaled so integer division by small
/// weights keeps precision).
const WFQ_UNIT: u128 = 1 << 20;

/// The multi-tenant workload engine. See the module docs for the model.
pub struct WorkloadEngine;

impl WorkloadEngine {
    /// Runs the configured workload against `fed` and returns the audited
    /// report. The federation's exec options (including any fault plan)
    /// are restored afterwards.
    pub fn run(fed: &mut Federation, config: &WorkloadConfig) -> EvalResult<WorkloadReport> {
        let saved = fed.exec_options();
        let result = Self::run_inner(fed, config, saved.fault, None);
        fed.set_exec_options(saved);
        result
    }

    /// Like [`WorkloadEngine::run`], but also records a scheduler trace on
    /// the simulated clock: queue residency (`sched.queued`), slot
    /// occupancy (`sched.run`), admission rejections (`sched.shed`) and
    /// dispatch-time deadline cancellations (`sched.cancelled`). Spans are
    /// submitted in event-loop order and the trace id is drawn from the
    /// seeded PRNG, so a replay from the same config emits byte-identical
    /// trace files.
    pub fn run_traced(
        fed: &mut Federation,
        config: &WorkloadConfig,
    ) -> EvalResult<(WorkloadReport, Trace)> {
        let saved = fed.exec_options();
        let trace_id = Rng::seed_from_u64(mix_seed(config.seed, 0)).next_u64();
        let tracer = Tracer::new(trace_id, "workload", "sched");
        tracer.root_arg("tenants", config.tenants.len().to_string());
        tracer.root_arg("workers", config.workers.to_string());
        tracer.root_arg("fair", config.fair.to_string());
        let result = Self::run_inner(fed, config, saved.fault, Some(&tracer));
        fed.set_exec_options(saved);
        let report = result?;
        tracer.advance_to(report.sim_duration.as_nanos().min(u128::from(u64::MAX)) as u64);
        Ok((report, tracer.finish()))
    }

    /// Capacity estimate in queries per second: `workers` slots over the
    /// mean fault-free service time of the workload's templates. The bench
    /// sweep positions its offered-load points relative to this.
    pub fn capacity_qps(fed: &mut Federation, config: &WorkloadConfig) -> EvalResult<f64> {
        let saved = fed.exec_options();
        let baselines = Self::baselines(fed, config);
        fed.set_exec_options(saved);
        let baselines = baselines?;
        let mean: f64 = baselines.values().map(|(_, s)| s.as_secs_f64()).sum::<f64>()
            / baselines.len().max(1) as f64;
        if mean <= 0.0 {
            return Ok(f64::INFINITY);
        }
        Ok(config.workers as f64 / mean)
    }

    /// Fault-free serial baseline per distinct template: canonical result
    /// plus the deterministic service estimate.
    fn baselines(
        fed: &mut Federation,
        config: &WorkloadConfig,
    ) -> EvalResult<HashMap<String, (Vec<String>, Duration)>> {
        let mut options = fed.exec_options();
        options.fault = None;
        fed.set_exec_options(options);
        let mut baselines = HashMap::new();
        for tenant in &config.tenants {
            for query in &tenant.queries {
                if baselines.contains_key(query) {
                    continue;
                }
                let out = fed.run(query, config.strategy).map_err(|e| {
                    EvalError::new(format!("workload baseline failed for {query:?}: {e}"))
                })?;
                let service = out.metrics.network_overlapped + config.service_overhead;
                baselines.insert(query.clone(), (out.result, service));
            }
        }
        Ok(baselines)
    }

    fn run_inner(
        fed: &mut Federation,
        config: &WorkloadConfig,
        fault: Option<FaultPlan>,
        tracer: Option<&Tracer>,
    ) -> EvalResult<WorkloadReport> {
        let ns = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
        if config.tenants.is_empty() || config.workers == 0 {
            return Err(EvalError::new(
                "workload needs at least one tenant and one worker".to_string(),
            ));
        }
        for t in &config.tenants {
            if t.queries.is_empty() {
                return Err(EvalError::new(format!("tenant {} has no queries", t.name)));
            }
        }

        let baselines = Self::baselines(fed, config)?;
        // intern templates so jobs carry an index, not a string
        let mut templates: Vec<String> = Vec::new();
        let mut template_idx: HashMap<&str, usize> = HashMap::new();
        for tenant in &config.tenants {
            for q in &tenant.queries {
                if !template_idx.contains_key(q.as_str()) {
                    template_idx.insert(q.as_str(), templates.len());
                    templates.push(q.clone());
                }
            }
        }
        let estimates: Vec<Duration> =
            templates.iter().map(|q| baselines[q].1).collect();
        let mean_service = {
            let sum: Duration = estimates.iter().sum();
            sum / estimates.len().max(1) as u32
        };

        // ---- seeded arrival processes, merged into one deterministic
        // ---- timeline (ties broken by tenant order, then sequence)
        struct Arrival {
            time: Duration,
            tenant: usize,
            template: usize,
        }
        let mut arrivals: Vec<Arrival> = Vec::new();
        for (ti, tenant) in config.tenants.iter().enumerate() {
            if tenant.offered_qps <= 0.0 {
                continue;
            }
            let mut rng = Rng::seed_from_u64(mix_seed(config.seed, ti as u64 + 1));
            let mut t = Duration::ZERO;
            let mut n = 0usize;
            loop {
                t += exp_gap(&mut rng, tenant.offered_qps);
                if t >= config.duration {
                    break;
                }
                arrivals.push(Arrival {
                    time: t,
                    tenant: ti,
                    template: template_idx[tenant.queries[n % tenant.queries.len()].as_str()],
                });
                n += 1;
            }
        }
        arrivals.sort_by_key(|a| (a.time, a.tenant));

        // ---- scheduler state ----
        let tenants_n = config.tenants.len();
        let mut workers: Vec<Duration> = vec![Duration::ZERO; config.workers];
        let mut pending: Vec<Job> = Vec::new();
        let mut tenant_queued: Vec<usize> = vec![0; tenants_n];
        let mut tenant_finish_tag: Vec<u128> = vec![0; tenants_n];
        let mut virtual_time: u128 = 0;
        let mut peak_depth: u64 = 0;

        let mut agg = Metrics::default();
        let mut outcomes: Vec<(u64, QueryOutcome)> = Vec::new();
        let mut latencies: Vec<Duration> = Vec::new();
        let mut tenant_lat: Vec<Vec<Duration>> = vec![Vec::new(); tenants_n];
        let mut sim_end = Duration::ZERO;
        let mut results_identical = true;
        let mut all_errors_typed = true;

        let earliest = |workers: &[Duration]| -> (usize, Duration) {
            let mut wi = 0;
            for (i, w) in workers.iter().enumerate() {
                if *w < workers[wi] {
                    wi = i;
                }
            }
            (wi, workers[wi])
        };

        // dispatch one job for real; returns (finish time, outcome row)
        let execute = |fed: &mut Federation,
                           job: &Job,
                           start: Duration,
                           agg: &mut Metrics,
                           results_identical: &mut bool,
                           all_errors_typed: &mut bool|
         -> (Duration, QueryOutcome) {
            // rotate the fault seed per query so faults vary across the
            // workload while each query's schedule stays a pure function
            // of (workload seed, job sequence)
            if let Some(plan) = fault {
                fed.set_fault_plan(Some(FaultPlan {
                    seed: mix_seed(plan.seed, job.seq + 1),
                    ..plan
                }));
            }
            let query = &templates[job.template];
            let run = fed.run(query, config.strategy);
            match run {
                Ok(out) => {
                    let service = out.metrics.network_overlapped + config.service_overhead;
                    let finish = start + service;
                    let matched = out.result == baselines[query].0;
                    if !matched {
                        *results_identical = false;
                    }
                    agg.add(&out.metrics);
                    (
                        finish,
                        QueryOutcome {
                            tenant: job.tenant,
                            arrival: job.arrival,
                            finish,
                            kind: OutcomeKind::Completed,
                            error_code: None,
                            matched_baseline: matched,
                        },
                    )
                }
                Err(e) => {
                    // the failed run still consumed the slot for its chain
                    let partial = fed.metrics();
                    let service = partial.network_overlapped + config.service_overhead;
                    let finish = start + service;
                    if e.code.is_none() {
                        *all_errors_typed = false;
                    }
                    agg.add(&partial);
                    (
                        finish,
                        QueryOutcome {
                            tenant: job.tenant,
                            arrival: job.arrival,
                            finish,
                            kind: OutcomeKind::Errored,
                            error_code: e.code.clone(),
                            matched_baseline: false,
                        },
                    )
                }
            }
        };

        // picks the next queued job: smallest WFQ finish tag (fair) or
        // smallest sequence number (global FIFO)
        let pick = |pending: &[Job], fair: bool| -> usize {
            let mut best = 0;
            for (i, job) in pending.iter().enumerate() {
                let better = if fair {
                    (job.finish_tag, job.seq) < (pending[best].finish_tag, pending[best].seq)
                } else {
                    job.seq < pending[best].seq
                };
                if better {
                    best = i;
                }
            }
            best
        };

        // drains the run queue onto workers that free up to `until`
        macro_rules! drain {
            ($until:expr) => {
                while !pending.is_empty() {
                    let (wi, free) = earliest(&workers);
                    if free > $until {
                        break;
                    }
                    let ji = pick(&pending, config.fair);
                    let job = pending.remove(ji);
                    tenant_queued[job.tenant] -= 1;
                    virtual_time = virtual_time.max(job.start_tag);
                    let start = free.max(job.arrival);
                    // deadline propagation: cancel before consuming the
                    // slot when the deadline is no longer reachable
                    if start + estimates[job.template] > job.deadline {
                        agg.deadline_cancelled += 1;
                        sim_end = sim_end.max(start);
                        if let Some(t) = tracer {
                            t.submit(
                                ns(job.arrival),
                                ROOT_SPAN,
                                SpanBuilder::new("sched.queued", "sched")
                                    .lasting(start.saturating_sub(job.arrival))
                                    .arg("tenant", config.tenants[job.tenant].name.as_str())
                                    .arg("seq", job.seq.to_string()),
                            );
                            t.submit(
                                ns(start),
                                ROOT_SPAN,
                                SpanBuilder::new("sched.cancelled", "sched")
                                    .arg("tenant", config.tenants[job.tenant].name.as_str())
                                    .arg("seq", job.seq.to_string())
                                    .arg("error", "xrpc:timeout"),
                            );
                        }
                        outcomes.push((
                            job.seq,
                            QueryOutcome {
                                tenant: job.tenant,
                                arrival: job.arrival,
                                finish: start,
                                kind: OutcomeKind::DeadlineCancelled,
                                error_code: Some("xrpc:timeout".to_string()),
                                matched_baseline: false,
                            },
                        ));
                        continue;
                    }
                    let (finish, row) = execute(
                        fed,
                        &job,
                        start,
                        &mut agg,
                        &mut results_identical,
                        &mut all_errors_typed,
                    );
                    workers[wi] = finish;
                    sim_end = sim_end.max(finish);
                    if row.kind == OutcomeKind::Completed {
                        let lat = finish.saturating_sub(job.arrival);
                        latencies.push(lat);
                        tenant_lat[job.tenant].push(lat);
                    }
                    if let Some(t) = tracer {
                        t.submit(
                            ns(job.arrival),
                            ROOT_SPAN,
                            SpanBuilder::new("sched.queued", "sched")
                                .lasting(start.saturating_sub(job.arrival))
                                .arg("tenant", config.tenants[job.tenant].name.as_str())
                                .arg("seq", job.seq.to_string()),
                        );
                        t.submit(
                            ns(start),
                            ROOT_SPAN,
                            SpanBuilder::new("sched.run", "sched")
                                .lasting(finish.saturating_sub(start))
                                .arg("tenant", config.tenants[job.tenant].name.as_str())
                                .arg("seq", job.seq.to_string())
                                .arg("worker", wi.to_string())
                                .arg(
                                    "outcome",
                                    row.error_code.clone().unwrap_or_else(|| "completed".into()),
                                ),
                        );
                    }
                    outcomes.push((job.seq, row));
                }
            };
        }

        // ---- the event loop: admit each arrival in timeline order ----
        for (seq, a) in arrivals.iter().enumerate() {
            let seq = seq as u64;
            drain!(a.time);
            let deadline = a.time + config.deadline;
            let (wi, free) = earliest(&workers);
            if pending.is_empty() && free <= a.time {
                // a slot is idle and nothing is ahead: dispatch immediately
                let job = Job {
                    seq,
                    tenant: a.tenant,
                    template: a.template,
                    arrival: a.time,
                    deadline,
                    start_tag: 0,
                    finish_tag: 0,
                };
                if a.time + estimates[a.template] > deadline {
                    agg.deadline_cancelled += 1;
                    sim_end = sim_end.max(a.time);
                    if let Some(t) = tracer {
                        t.submit(
                            ns(a.time),
                            ROOT_SPAN,
                            SpanBuilder::new("sched.cancelled", "sched")
                                .arg("tenant", config.tenants[a.tenant].name.as_str())
                                .arg("seq", seq.to_string())
                                .arg("error", "xrpc:timeout"),
                        );
                    }
                    outcomes.push((
                        seq,
                        QueryOutcome {
                            tenant: a.tenant,
                            arrival: a.time,
                            finish: a.time,
                            kind: OutcomeKind::DeadlineCancelled,
                            error_code: Some("xrpc:timeout".to_string()),
                            matched_baseline: false,
                        },
                    ));
                    continue;
                }
                let (finish, row) = execute(
                    fed,
                    &job,
                    a.time,
                    &mut agg,
                    &mut results_identical,
                    &mut all_errors_typed,
                );
                workers[wi] = finish;
                sim_end = sim_end.max(finish);
                if row.kind == OutcomeKind::Completed {
                    let lat = finish.saturating_sub(a.time);
                    latencies.push(lat);
                    tenant_lat[a.tenant].push(lat);
                }
                if let Some(t) = tracer {
                    t.submit(
                        ns(a.time),
                        ROOT_SPAN,
                        SpanBuilder::new("sched.run", "sched")
                            .lasting(finish.saturating_sub(a.time))
                            .arg("tenant", config.tenants[a.tenant].name.as_str())
                            .arg("seq", seq.to_string())
                            .arg("worker", wi.to_string())
                            .arg(
                                "outcome",
                                row.error_code.clone().unwrap_or_else(|| "completed".into()),
                            ),
                    );
                }
                outcomes.push((seq, row));
                continue;
            }
            if tenant_queued[a.tenant] >= config.queue_depth {
                // admission control: the tenant's bounded run queue is
                // full — shed with an honest resubmission estimate (time
                // until a slot frees plus the backlog's drain time)
                agg.shed += 1;
                let slot_wait = free.saturating_sub(a.time);
                let backlog = mean_service.mul_f64(
                    (pending.len() + 1) as f64 / config.workers as f64,
                );
                let hint = (slot_wait + backlog).max(Duration::from_millis(1));
                let err = XrpcError::Overloaded {
                    retry_after_ms: hint.as_millis().min(u128::from(u64::MAX)) as u64,
                };
                sim_end = sim_end.max(a.time);
                if let Some(t) = tracer {
                    t.submit(
                        ns(a.time),
                        ROOT_SPAN,
                        SpanBuilder::new("sched.shed", "sched")
                            .arg("tenant", config.tenants[a.tenant].name.as_str())
                            .arg("seq", seq.to_string())
                            .arg("retry_after_ms", hint.as_millis().to_string()),
                    );
                }
                outcomes.push((
                    seq,
                    QueryOutcome {
                        tenant: a.tenant,
                        arrival: a.time,
                        finish: a.time,
                        kind: OutcomeKind::Shed,
                        error_code: Some(err.code()),
                        matched_baseline: false,
                    },
                ));
                continue;
            }
            // enqueue under WFQ virtual time
            agg.queued += 1;
            let weight = u128::from(config.tenants[a.tenant].weight.max(1));
            let start_tag = virtual_time.max(tenant_finish_tag[a.tenant]);
            let finish_tag = start_tag + WFQ_UNIT / weight;
            tenant_finish_tag[a.tenant] = finish_tag;
            tenant_queued[a.tenant] += 1;
            pending.push(Job {
                seq,
                tenant: a.tenant,
                template: a.template,
                arrival: a.time,
                deadline,
                start_tag,
                finish_tag,
            });
            peak_depth = peak_depth.max(pending.len() as u64);
        }
        // arrival window closed: drive the backlog to completion
        drain!(Duration::MAX);

        // ---- the report ----
        outcomes.sort_by_key(|(seq, _)| *seq);
        let outcomes: Vec<QueryOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();
        let arrivals_n = outcomes.len() as u64;
        let mut completed = 0u64;
        let mut errored = 0u64;
        for o in &outcomes {
            match o.kind {
                OutcomeKind::Completed => completed += 1,
                OutcomeKind::Errored => errored += 1,
                _ => {}
            }
        }
        agg.peak_queue_depth = peak_depth;
        latencies.sort();
        let sim_duration = sim_end.max(config.duration);
        let goodput_qps = completed as f64 / sim_duration.as_secs_f64().max(1e-9);
        let per_tenant = config
            .tenants
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                let mut lats = tenant_lat[ti].clone();
                lats.sort();
                let mut row = TenantReport {
                    name: t.name.clone(),
                    arrivals: 0,
                    completed: 0,
                    shed: 0,
                    deadline_cancelled: 0,
                    errored: 0,
                    p50: percentile(&lats, 0.50),
                    p95: percentile(&lats, 0.95),
                    p99: percentile(&lats, 0.99),
                };
                for o in outcomes.iter().filter(|o| o.tenant == ti) {
                    row.arrivals += 1;
                    match o.kind {
                        OutcomeKind::Completed => row.completed += 1,
                        OutcomeKind::Shed => row.shed += 1,
                        OutcomeKind::DeadlineCancelled => row.deadline_cancelled += 1,
                        OutcomeKind::Errored => row.errored += 1,
                    }
                }
                row
            })
            .collect();
        Ok(WorkloadReport {
            arrivals: arrivals_n,
            completed,
            shed: agg.shed,
            deadline_cancelled: agg.deadline_cancelled,
            errored,
            sim_duration,
            goodput_qps,
            offered_qps: config.offered_qps(),
            p50: percentile(&latencies, 0.50),
            p95: percentile(&latencies, 0.95),
            p99: percentile(&latencies, 0.99),
            per_tenant,
            results_identical,
            all_errors_typed,
            metrics: agg,
            outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkModel;

    fn federation() -> Federation {
        let mut fed = Federation::new(NetworkModel::lan());
        fed.load_document(
            "emp",
            "people.xml",
            "<people><p><name>ann</name></p><p><name>bob</name></p></people>",
        )
        .unwrap();
        fed.load_document(
            "hr",
            "depts.xml",
            "<depts><dept name=\"sales\"/><dept name=\"dev\"/></depts>",
        )
        .unwrap();
        fed
    }

    fn tenant(name: &str, weight: u32, qps: f64) -> TenantSpec {
        TenantSpec::new(
            name,
            weight,
            qps,
            vec![
                "count(doc(\"xrpc://emp/people.xml\")//name)".to_string(),
                "doc(\"xrpc://hr/depts.xml\")//dept/@name".to_string(),
            ],
        )
    }

    #[test]
    fn light_load_completes_everything_bit_identically() {
        let mut fed = federation();
        let mut config = WorkloadConfig::new(vec![tenant("a", 1, 40.0), tenant("b", 1, 40.0)]);
        config.duration = Duration::from_millis(200);
        let report = WorkloadEngine::run(&mut fed, &config).unwrap();
        assert!(report.arrivals > 0);
        assert!(report.fully_accounted(), "{report:?}");
        assert_eq!(report.shed, 0);
        assert_eq!(report.errored, 0);
        assert!(report.results_identical);
        assert!(report.all_errors_typed);
    }

    #[test]
    fn overload_sheds_with_typed_overloaded_and_flat_goodput() {
        let mut fed = federation();
        let capacity = {
            let config = WorkloadConfig::new(vec![tenant("a", 1, 1.0)]);
            WorkloadEngine::capacity_qps(&mut fed, &config).unwrap()
        };
        let mut config =
            WorkloadConfig::new(vec![tenant("a", 1, capacity * 2.0)]);
        config.duration = Duration::from_millis(150);
        config.queue_depth = 4;
        let report = WorkloadEngine::run(&mut fed, &config).unwrap();
        assert!(report.shed > 0, "2x load must trip admission control: {report:?}");
        assert!(report.fully_accounted());
        // every shed arrival carries the typed overload code
        assert!(report
            .outcomes
            .iter()
            .filter(|o| o.kind == OutcomeKind::Shed)
            .all(|o| o.error_code.as_deref() == Some("xrpc:overloaded")));
        assert!(report.results_identical);
    }

    #[test]
    fn workload_replays_bit_identically() {
        let run = || {
            let mut fed = federation();
            let mut config =
                WorkloadConfig::new(vec![tenant("a", 2, 150.0), tenant("b", 1, 300.0)]);
            config.duration = Duration::from_millis(120);
            config.queue_depth = 6;
            WorkloadEngine::run(&mut fed, &config).unwrap()
        };
        let (r1, r2) = (run(), run());
        assert_eq!(r1.replay_signature(), r2.replay_signature());
        assert_eq!(r1.p99, r2.p99);
        assert_eq!(r1.outcomes.len(), r2.outcomes.len());
        for (a, b) in r1.outcomes.iter().zip(&r2.outcomes) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.finish, b.finish);
        }
    }

    #[test]
    fn tight_deadlines_cancel_before_consuming_slots() {
        let mut fed = federation();
        let mut config = WorkloadConfig::new(vec![tenant("a", 1, 4000.0)]);
        config.duration = Duration::from_millis(50);
        config.workers = 1;
        config.deadline = Duration::from_micros(1500);
        config.queue_depth = 32;
        let report = WorkloadEngine::run(&mut fed, &config).unwrap();
        assert!(report.deadline_cancelled > 0, "{report:?}");
        assert!(report.fully_accounted());
        // cancellations carry the typed timeout code
        assert!(report
            .outcomes
            .iter()
            .filter(|o| o.kind == OutcomeKind::DeadlineCancelled)
            .all(|o| o.error_code.as_deref() == Some("xrpc:timeout")));
    }
}
