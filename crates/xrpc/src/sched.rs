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
use xqd_prng::{unit_f64, Rng};
use xqd_xquery::value::{EvalError, EvalResult};

use crate::exec::Federation;
use crate::net::{as_ns, FaultPlan, Metrics, XrpcError, METRIC_NAMES};
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
    let secs = -(1.0 - unit_f64(rng.next_u64())).ln() / qps;
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
#[derive(Clone, Copy)]
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

/// Runs `f` with the federation's fault plan in hand, then restores the
/// exec options `f` rewrote (the baseline pass clears the fault plan, the
/// per-query rotation reseeds it).
fn with_options_restored<T>(
    fed: &mut Federation,
    f: impl FnOnce(&mut Federation, Option<FaultPlan>) -> T,
) -> T {
    let saved = fed.exec_options();
    let result = f(fed, saved.fault);
    fed.set_exec_options(saved);
    result
}

/// The multi-tenant workload engine. See the module docs for the model.
pub struct WorkloadEngine;

impl WorkloadEngine {
    /// Runs the configured workload against `fed` and returns the audited
    /// report. The federation's exec options (including any fault plan)
    /// are restored afterwards.
    pub fn run(fed: &mut Federation, config: &WorkloadConfig) -> EvalResult<WorkloadReport> {
        with_options_restored(fed, |fed, fault| Self::run_inner(fed, config, fault, None))
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
        let trace_id = Rng::seed_from_u64(mix_seed(config.seed, 0)).next_u64();
        let tracer = Tracer::new(trace_id, "workload", "sched");
        tracer.root_arg("tenants", config.tenants.len().to_string());
        tracer.root_arg("workers", config.workers.to_string());
        tracer.root_arg("fair", config.fair.to_string());
        let report = with_options_restored(fed, |fed, fault| {
            Self::run_inner(fed, config, fault, Some(&tracer))
        })?;
        tracer.advance_to(as_ns(report.sim_duration));
        Ok((report, tracer.finish()))
    }

    /// Capacity estimate in queries per second: `workers` slots over the
    /// mean fault-free service time of the workload's templates. The bench
    /// sweep positions its offered-load points relative to this.
    pub fn capacity_qps(fed: &mut Federation, config: &WorkloadConfig) -> EvalResult<f64> {
        let baselines = with_options_restored(fed, |fed, _| Self::baselines(fed, config))?;
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
        let mut arrivals: Vec<(Duration, usize, usize)> = Vec::new();
        for (ti, tenant) in config.tenants.iter().enumerate() {
            if tenant.offered_qps <= 0.0 {
                continue;
            }
            let mut rng = Rng::seed_from_u64(mix_seed(config.seed, ti as u64 + 1));
            let mut t = Duration::ZERO;
            for n in 0.. {
                t += exp_gap(&mut rng, tenant.offered_qps);
                if t >= config.duration {
                    break;
                }
                let query = tenant.queries[n % tenant.queries.len()].as_str();
                arrivals.push((t, ti, template_idx[query]));
            }
        }
        arrivals.sort_by_key(|&(time, tenant, _)| (time, tenant));

        // ---- the event loop: admit each arrival in timeline order, then
        // ---- drive the backlog to completion once the window closes
        let tenants_n = config.tenants.len();
        let mut sched = Scheduler {
            fed,
            config,
            tracer,
            fault,
            templates,
            baselines,
            estimates,
            mean_service,
            workers: vec![Duration::ZERO; config.workers],
            pending: Vec::new(),
            tenant_queued: vec![0; tenants_n],
            tenant_finish_tag: vec![0; tenants_n],
            virtual_time: 0,
            peak_depth: 0,
            agg: Metrics::default(),
            outcomes: Vec::new(),
            latencies: Vec::new(),
            tenant_lat: vec![Vec::new(); tenants_n],
            sim_end: Duration::ZERO,
            results_identical: true,
            all_errors_typed: true,
        };
        for (seq, &(arrival, tenant, template)) in arrivals.iter().enumerate() {
            sched.arrive(Job {
                seq: seq as u64,
                tenant,
                template,
                arrival,
                deadline: arrival + config.deadline,
                start_tag: 0,
                finish_tag: 0,
            });
        }
        sched.drain(Duration::MAX);
        Ok(sched.report())
    }
}

/// One engine run in progress: the executor slots, the per-tenant run
/// queues under WFQ virtual time, and everything recorded so far.
struct Scheduler<'a> {
    fed: &'a mut Federation,
    config: &'a WorkloadConfig,
    tracer: Option<&'a Tracer>,
    /// The installed fault plan, reseeded per query.
    fault: Option<FaultPlan>,
    templates: Vec<String>,
    baselines: HashMap<String, (Vec<String>, Duration)>,
    /// Baseline service estimate per template.
    estimates: Vec<Duration>,
    mean_service: Duration,
    /// When each executor slot frees up.
    workers: Vec<Duration>,
    pending: Vec<Job>,
    tenant_queued: Vec<usize>,
    tenant_finish_tag: Vec<u128>,
    virtual_time: u128,
    peak_depth: u64,
    agg: Metrics,
    /// `(seq, outcome)` in decision order.
    outcomes: Vec<(u64, QueryOutcome)>,
    latencies: Vec<Duration>,
    tenant_lat: Vec<Vec<Duration>>,
    sim_end: Duration,
    results_identical: bool,
    all_errors_typed: bool,
}

impl Scheduler<'_> {
    /// The slot that frees up first (the lowest index on a tie) and when.
    fn earliest(&self) -> (usize, Duration) {
        self.workers.iter().copied().enumerate().min_by_key(|&(_, free)| free).unwrap()
    }

    /// One arrival, after the queue has drained up to it: dispatched at
    /// once when a slot is idle and nothing is queued ahead, shed when its
    /// tenant's run queue is full, queued otherwise.
    fn arrive(&mut self, mut job: Job) {
        self.drain(job.arrival);
        let (worker, free) = self.earliest();
        if self.pending.is_empty() && free <= job.arrival {
            self.dispatch(job, worker, job.arrival, false);
        } else if self.tenant_queued[job.tenant] >= self.config.queue_depth {
            // admission control: shed with an honest resubmission estimate
            // (time until a slot frees plus the backlog's drain time)
            self.agg.shed += 1;
            let backlog = self
                .mean_service
                .mul_f64((self.pending.len() + 1) as f64 / self.config.workers as f64);
            let hint = (free.saturating_sub(job.arrival) + backlog).max(Duration::from_millis(1));
            let err = XrpcError::Overloaded {
                retry_after_ms: hint.as_millis().min(u128::from(u64::MAX)) as u64,
            };
            self.sim_end = self.sim_end.max(job.arrival);
            if let Some(t) = self.tracer {
                let span = self.span("sched.shed", &job);
                let span = span.arg("retry_after_ms", hint.as_millis().to_string());
                t.submit(as_ns(job.arrival), ROOT_SPAN, span);
            }
            self.record(job, job.arrival, OutcomeKind::Shed, Some(err.code()), false);
        } else {
            // enqueue under WFQ virtual time
            self.agg.queued += 1;
            let weight = u128::from(self.config.tenants[job.tenant].weight.max(1));
            job.start_tag = self.virtual_time.max(self.tenant_finish_tag[job.tenant]);
            job.finish_tag = job.start_tag + WFQ_UNIT / weight;
            self.tenant_finish_tag[job.tenant] = job.finish_tag;
            self.tenant_queued[job.tenant] += 1;
            self.pending.push(job);
            self.peak_depth = self.peak_depth.max(self.pending.len() as u64);
        }
    }

    /// Dispatches queued jobs onto the slots that free up by `until`:
    /// smallest WFQ finish tag first, or arrival order when unfair.
    fn drain(&mut self, until: Duration) {
        while !self.pending.is_empty() {
            let (worker, free) = self.earliest();
            if free > until {
                break;
            }
            let fair = self.config.fair;
            let key = |job: &Job| (if fair { job.finish_tag } else { 0 }, job.seq);
            let next = (0..self.pending.len()).min_by_key(|&i| key(&self.pending[i])).unwrap();
            let job = self.pending.remove(next);
            self.tenant_queued[job.tenant] -= 1;
            self.virtual_time = self.virtual_time.max(job.start_tag);
            let start = free.max(job.arrival);
            self.dispatch(job, worker, start, true);
        }
    }

    /// Starts `job` on `worker` at `start`. Deadline propagation first: a
    /// job that can no longer finish in time is cancelled before it takes
    /// the slot. Otherwise it runs for real and holds the slot for its
    /// service time. Only a job that `waited` has queue residency to trace.
    fn dispatch(&mut self, job: Job, worker: usize, start: Duration, waited: bool) {
        if let (Some(t), true) = (self.tracer, waited) {
            let span = self.span("sched.queued", &job).lasting(start.saturating_sub(job.arrival));
            t.submit(as_ns(job.arrival), ROOT_SPAN, span);
        }
        if start + self.estimates[job.template] > job.deadline {
            self.agg.deadline_cancelled += 1;
            self.sim_end = self.sim_end.max(start);
            if let Some(t) = self.tracer {
                let span = self.span("sched.cancelled", &job);
                t.submit(as_ns(start), ROOT_SPAN, span.arg("error", "xrpc:timeout"));
            }
            let code = Some("xrpc:timeout".to_string());
            return self.record(job, start, OutcomeKind::DeadlineCancelled, code, false);
        }
        // rotate the fault seed per query so faults vary across the
        // workload while each query's schedule stays a pure function of
        // (workload seed, job sequence)
        if let Some(plan) = self.fault {
            let seed = mix_seed(plan.seed, job.seq + 1);
            self.fed.set_fault_plan(Some(FaultPlan { seed, ..plan }));
        }
        let query = &self.templates[job.template];
        let (metrics, kind, code, matched) = match self.fed.run(query, self.config.strategy) {
            Ok(out) => {
                let matched = out.result == self.baselines[query].0;
                self.results_identical &= matched;
                (out.metrics, OutcomeKind::Completed, None, matched)
            }
            // the failed run still consumed the slot for its chain
            Err(e) => {
                self.all_errors_typed &= e.code.is_some();
                (self.fed.metrics(), OutcomeKind::Errored, e.code, false)
            }
        };
        let finish = start + (metrics.network_overlapped + self.config.service_overhead);
        self.agg.add(&metrics);
        self.workers[worker] = finish;
        self.sim_end = self.sim_end.max(finish);
        if kind == OutcomeKind::Completed {
            let latency = finish.saturating_sub(job.arrival);
            self.latencies.push(latency);
            self.tenant_lat[job.tenant].push(latency);
        }
        if let Some(t) = self.tracer {
            let outcome = code.clone().unwrap_or_else(|| "completed".into());
            let span = self.span("sched.run", &job).lasting(finish.saturating_sub(start));
            let span = span.arg("worker", worker.to_string()).arg("outcome", outcome);
            t.submit(as_ns(start), ROOT_SPAN, span);
        }
        self.record(job, finish, kind, code, matched);
    }

    /// A scheduler span about `job`, tagged with its tenant and sequence.
    fn span(&self, name: &'static str, job: &Job) -> SpanBuilder {
        SpanBuilder::new(name, "sched")
            .arg("tenant", self.config.tenants[job.tenant].name.as_str())
            .arg("seq", job.seq.to_string())
    }

    /// Records how `job` ended.
    fn record(
        &mut self,
        job: Job,
        finish: Duration,
        kind: OutcomeKind,
        error_code: Option<String>,
        matched_baseline: bool,
    ) {
        let (tenant, arrival) = (job.tenant, job.arrival);
        let outcome = QueryOutcome { tenant, arrival, finish, kind, error_code, matched_baseline };
        self.outcomes.push((job.seq, outcome));
    }

    /// The audited report: fates in arrival order, tallies, percentiles.
    fn report(mut self) -> WorkloadReport {
        let config = self.config;
        self.outcomes.sort_by_key(|(seq, _)| *seq);
        let outcomes: Vec<QueryOutcome> = self.outcomes.into_iter().map(|(_, o)| o).collect();
        let count = |tenant: Option<usize>, kind: OutcomeKind| {
            let of_tenant = |o: &&QueryOutcome| tenant.is_none_or(|t| o.tenant == t);
            outcomes.iter().filter(of_tenant).filter(|o| o.kind == kind).count() as u64
        };
        let completed = count(None, OutcomeKind::Completed);
        self.agg.peak_queue_depth = self.peak_depth;
        self.latencies.sort();
        let sim_duration = self.sim_end.max(config.duration);
        let per_tenant = config
            .tenants
            .iter()
            .zip(&mut self.tenant_lat)
            .enumerate()
            .map(|(ti, (t, lats))| {
                lats.sort();
                TenantReport {
                    name: t.name.clone(),
                    arrivals: outcomes.iter().filter(|o| o.tenant == ti).count() as u64,
                    completed: count(Some(ti), OutcomeKind::Completed),
                    shed: count(Some(ti), OutcomeKind::Shed),
                    deadline_cancelled: count(Some(ti), OutcomeKind::DeadlineCancelled),
                    errored: count(Some(ti), OutcomeKind::Errored),
                    p50: percentile(lats, 0.50),
                    p95: percentile(lats, 0.95),
                    p99: percentile(lats, 0.99),
                }
            })
            .collect();
        WorkloadReport {
            arrivals: outcomes.len() as u64,
            completed,
            shed: self.agg.shed,
            deadline_cancelled: self.agg.deadline_cancelled,
            errored: count(None, OutcomeKind::Errored),
            sim_duration,
            goodput_qps: completed as f64 / sim_duration.as_secs_f64().max(1e-9),
            offered_qps: config.offered_qps(),
            p50: percentile(&self.latencies, 0.50),
            p95: percentile(&self.latencies, 0.95),
            p99: percentile(&self.latencies, 0.99),
            per_tenant,
            results_identical: self.results_identical,
            all_errors_typed: self.all_errors_typed,
            metrics: self.agg,
            outcomes,
        }
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

    /// FNV-1a, the digest the pinned schedule below is compared by.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// One seeded two-tenant schedule through every path an arrival can
    /// take — dispatched at once to run or to be cancelled, queued to run
    /// or to be cancelled, shed, and failed under injected faults — pinned
    /// to its exact trace bytes, per-arrival fates and counters.
    #[test]
    fn workload_schedule_is_pinned() {
        let mut fed = federation();
        // service estimates 100 µs (local), ~305 µs (one call) and ~512 µs
        // (a dependent join over two peers) against a 400 µs deadline, so
        // the join is cancelled even when a worker is idle
        let queries = vec![
            "count((1, 2, 3))".to_string(),
            "count(doc(\"xrpc://emp/people.xml\")//name)".to_string(),
            "for $n in doc(\"xrpc://emp/people.xml\")//name \
             return doc(\"xrpc://hr/depts.xml\")//dept[@name = $n]"
                .to_string(),
        ];
        let mut config = WorkloadConfig::new(vec![
            TenantSpec::new("a", 2, 2500.0, queries.clone()),
            TenantSpec::new("b", 1, 2500.0, queries),
        ]);
        config.seed = 11;
        config.duration = Duration::from_millis(20);
        config.workers = 1;
        config.queue_depth = 2;
        config.deadline = Duration::from_micros(400);
        config.service_overhead = Duration::from_micros(100);
        fed.set_fault_plan(Some(FaultPlan { p_peer_down: 0.5, ..FaultPlan::none(5) }));
        fed.set_retry_policy(crate::RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(100),
            deadline: Duration::from_micros(600),
        });
        let (report, trace) = WorkloadEngine::run_traced(&mut fed, &config).unwrap();
        let queued: std::collections::HashSet<&str> =
            trace.named("sched.queued").map(|s| s.args[1].1.as_str()).collect();
        let split = |name| {
            let (waited, at_once): (Vec<&crate::trace::Span>, _) =
                trace.named(name).partition(|s| queued.contains(s.args[1].1.as_str()));
            (at_once.len(), waited.len())
        };
        let (run_at_once, run_queued) = split("sched.run");
        let (cancelled_at_once, cancelled_queued) = split("sched.cancelled");
        assert_eq!((run_at_once, run_queued, cancelled_at_once, cancelled_queued), (23, 12, 9, 32));
        assert_eq!((report.shed, report.errored), (22, 2));
        let fates: Vec<(OutcomeKind, Duration)> =
            report.outcomes.iter().map(|o| (o.kind, o.finish)).collect();
        assert_eq!(digest(format!("{fates:?}").as_bytes()), 0x894b_856e_574c_1f17);
        assert_eq!(digest(trace.to_json().as_bytes()), 0x175b_c4e9_88a5_74e9);
        assert_eq!(
            format!("{:?}", report.replay_signature()),
            "(33, 22, 41, 2, [7951, 315, 28, 15, 0, 9, 9, 5, 0, 0, 0, 0, 0, 0, 35, 0, 0, 0, 0, \
             44, 22, 41, 4])"
        );
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
