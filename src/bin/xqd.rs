//! `xqd` — the distributed XQuery shell.
//!
//! ```text
//! xqd run   -e 'doc("xrpc://a/d.xml")//x' --peer a:d.xml=./d.xml [--strategy S] [--metrics]
//! xqd run   query.xq --peer hr:staff.xml=staff.xml --strategy all
//! xqd run   -e QUERY --connect a=127.0.0.1:7001   # drive live daemons over TCP
//! xqd serve --name a --listen 127.0.0.1:0 --doc d.xml=./d.xml   # one peer daemon
//! xqd explain -e QUERY [--strategy S]        # print decomposition plans
//! xqd gen-xmark --bytes 1000000 --seed 42 --people p.xml --auctions a.xml
//! ```
//!
//! Strategies: `ship` (data shipping), `value`, `fragment`, `projection`,
//! or `all` (run every strategy and compare). Network models: `lan`
//! (1 Gb/s, default) or `wan` (10 Mb/s).

use std::io::BufRead as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use xqd::{
    BreakerPolicy, ExecOptions, FaultPlan, Federation, NetworkModel, PeerServer, RetryPolicy,
    ServerConfig, Strategy, TcpTransport, TenantSpec, WorkloadConfig, WorkloadEngine,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("explain") => cmd_run(&args[1..], true),
        Some("workload") => cmd_workload(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("gen-xmark") => cmd_gen(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
xqd — distributed XQuery (pass-by-value / -fragment / -projection)

USAGE:
  xqd run [QUERY-FILE] [-e QUERY] [OPTIONS]     execute a federated query
  xqd explain [QUERY-FILE] [-e QUERY] [OPTIONS] print the decomposition plan;
                           with --analyze, execute it and print per-operator
                           and per-span simulated-time profiles
  xqd workload [QUERY-FILE] [-e QUERY] [OPTIONS]
                           drive a multi-tenant workload of the query through
                           the admission-controlled scheduler (simulated
                           clock, seeded Poisson arrivals) and report
                           goodput, tail latency and shed/cancel counts
  xqd serve --name PEER --listen ADDR [--doc DOC=FILE]... [--replica-doc URI=FILE]...
                           run one peer as a TCP daemon speaking length-prefixed
                           XRPC envelopes; prints `READY peer=NAME addr=IP:PORT`
                           on stdout, then drains and exits on stdin `drain` / EOF
  xqd gen-xmark --bytes N [--seed S] --people FILE --auctions FILE

OPTIONS:
  -e QUERY                 inline query text (alternative to QUERY-FILE)
  --peer NAME:DOC=FILE     load FILE as document DOC on peer NAME (repeatable)
  --connect NAME=ADDR      federate with a live peer daemon at ADDR instead of
                           simulating it (repeatable; switches `xqd run` to the
                           multi-process TCP transport — same coordinator, same
                           results, metrics and traces, on the real wire and the
                           wall clock). The flags that configure the simulation
                           (--peer, --replicas, --network, --fault-seed,
                           --fault-rate, --hedge-ms) are rejected alongside it
  --serves HOST=URI        record that daemon HOST serves a bit-identical replica
                           of canonical document URI (repeatable; socket mode)
  --strategy S             ship | value | fragment | projection | all
                           (default: projection)
  --network lan|wan        link model for simulated transfer times
  --metrics                print byte/time accounting after the run
  --fault-seed N           inject deterministic faults from seed N
  --fault-rate P           per-attempt fault probability 0..1 (default 0.2;
                           only meaningful with --fault-seed)
  --retries N              attempts per remote call (default 3)
  --deadline-ms N          per-call deadline in simulated ms (default 10000)
  --backoff-ms N           base retry backoff in simulated ms (default 10)
  --replicas P:A1,A2       replicate every document of peer P onto peers
                           A1, A2, ... for failover (repeatable)
  --hedge-ms N             arm a hedged request to the next replica after
                           ~N simulated ms (default: hedging off)
  --breaker-threshold N    consecutive failures tripping a peer's circuit
                           breaker (default 4; 0 disables breakers)
  --breaker-cooldown-ms N  simulated ms an open breaker rejects calls
                           before admitting a half-open probe (default 500)
  --no-semijoin            disable join-aware decomposition (semi-join key
                           shipping for cross-peer value joins; default on)
  --plan-cache-size N      coordinator LRU plan-cache capacity (default 64;
                           0 recompiles on every run)
  --trace-out FILE         record a deterministic trace of the run on the
                           simulated clock and write it to FILE; a chaos
                           replay from the same seeds emits identical bytes
  --trace-format json|chrome
                           trace file format: self-describing span JSON
                           (default) or Chrome trace_event, loadable in
                           chrome://tracing and Perfetto
  --analyze                (xqd explain) execute the query and print the
                           per-operator plan profile (EXPLAIN ANALYZE) plus
                           the span-level simulated-time attribution

WORKLOAD OPTIONS (xqd workload):
  --tenants N              simulated tenants splitting the offered load
                           (default 2)
  --offered-qps Q          total offered load in queries per second of
                           simulated time (default 500)
  --queue-depth N          per-tenant run-queue bound; arrivals beyond it
                           are shed with a typed Overloaded error and an
                           honest retry-after hint (default 16)
  --fair-weights W1,W2,..  per-tenant fair-queuing weights, cycled across
                           the tenants; `off` disables fairness and falls
                           back to one global FIFO (default: all 1)
  --workers N              concurrent executor slots (default 4)
  --duration-ms N          arrival window in simulated ms (default 250)
  --query-deadline-ms N    per-query deadline from arrival; queued work
                           that can no longer meet it is cancelled before
                           it takes a slot (default 200)
  --seed N                 arrival-process seed (default 1)

SERVE OPTIONS (xqd serve):
  --name PEER              peer name this daemon answers as (required)
  --listen ADDR            bind address, e.g. 127.0.0.1:0 for an ephemeral
                           port (default 127.0.0.1:0)
  --doc DOC=FILE           load FILE as this peer's document DOC (repeatable)
  --replica-doc URI=FILE   serve FILE as a bit-identical replica of the
                           canonical document URI, e.g.
                           xrpc://other/d.xml=./d.xml (repeatable)
  --max-inflight N         concurrent requests before shedding with a typed
                           xrpc:overloaded fault + retry-after-ms (default 32)
  --max-connections N      concurrent connections before refusing with a
                           typed fault (default 64)
  --idle-timeout-ms N      quiet-close connections idle this long (default
                           300000)
  --request-deadline-ms N  how long a request may wait for the peer slot;
                           expiry answers a typed xrpc:timeout fault. An
                           evaluation that has started is not stopped
                           (default 10000)
  --drain-deadline-ms N    how long a drain lets in-flight work finish
                           before cancelling it (default 5000)
";

struct RunOptions {
    query: Option<String>,
    peers: Vec<(String, String, String)>, // (peer, doc, file)
    connects: Vec<(String, String)>,      // (peer, addr) — socket mode
    serves: Vec<(String, String)>,        // (host, canonical uri) — socket mode
    simulated_only: Vec<&'static str>,    // flags given that only configure the simulation
    strategies: Vec<Strategy>,
    network: NetworkModel,
    metrics: bool,
    fault_seed: Option<u64>,
    fault_rate: f64,
    retry: RetryPolicy,
    replicas: Vec<(String, Vec<String>)>, // (primary, alternates)
    hedge: Option<Duration>,
    breaker: BreakerPolicy,
    semijoin: bool,
    plan_cache_size: usize,
    trace_out: Option<String>,
    trace_chrome: bool,
    analyze: bool,
    // `xqd workload` knobs
    tenants: usize,
    offered_qps: f64,
    queue_depth: usize,
    fair_weights: Option<Vec<u32>>, // None = all 1; empty = fairness off
    workers: usize,
    duration: Duration,
    query_deadline: Duration,
    seed: u64,
}

fn parse_strategy(s: &str) -> Option<Vec<Strategy>> {
    Some(match s {
        "ship" | "data-shipping" => vec![Strategy::DataShipping],
        "value" => vec![Strategy::ByValue],
        "fragment" => vec![Strategy::ByFragment],
        "projection" => vec![Strategy::ByProjection],
        "all" => Strategy::ALL.to_vec(),
        _ => return None,
    })
}

/// The numeric value of the flag at `args[i]`.
fn num_arg<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String> {
    args.get(i + 1).and_then(|s| s.parse().ok()).ok_or_else(|| format!("{flag} requires a number"))
}

/// Injected worker panics are captured and surfaced as typed errors; keeps
/// their default-hook noise out of the CLI output.
fn hide_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected =
            info.payload().downcast_ref::<String>().is_some_and(|s| s.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
}

fn parse_run_options(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        query: None,
        peers: Vec::new(),
        connects: Vec::new(),
        serves: Vec::new(),
        simulated_only: Vec::new(),
        strategies: vec![Strategy::ByProjection],
        network: NetworkModel::lan(),
        metrics: false,
        fault_seed: None,
        fault_rate: 0.2,
        retry: RetryPolicy::default(),
        replicas: Vec::new(),
        hedge: None,
        breaker: BreakerPolicy::default(),
        semijoin: ExecOptions::default().semijoin,
        plan_cache_size: ExecOptions::default().plan_cache_size,
        trace_out: None,
        trace_chrome: false,
        analyze: false,
        tenants: 2,
        offered_qps: 500.0,
        queue_depth: 16,
        fair_weights: None,
        workers: 4,
        duration: Duration::from_millis(250),
        query_deadline: Duration::from_millis(200),
        seed: 1,
    };
    const SIMULATED_ONLY: [&str; 6] =
        ["--peer", "--replicas", "--network", "--fault-seed", "--fault-rate", "--hedge-ms"];
    let mut i = 0;
    while i < args.len() {
        if let Some(flag) = SIMULATED_ONLY.iter().find(|f| **f == args[i]) {
            opts.simulated_only.push(flag);
        }
        match args[i].as_str() {
            "-e" => {
                let q = args.get(i + 1).ok_or("-e requires a query argument")?;
                opts.query = Some(q.clone());
                i += 2;
            }
            "--peer" => {
                let spec = args.get(i + 1).ok_or("--peer requires NAME:DOC=FILE")?;
                let (peer, rest) =
                    spec.split_once(':').ok_or_else(|| format!("bad --peer spec {spec:?}"))?;
                let (doc, file) =
                    rest.split_once('=').ok_or_else(|| format!("bad --peer spec {spec:?}"))?;
                opts.peers.push((peer.to_string(), doc.to_string(), file.to_string()));
                i += 2;
            }
            "--connect" => {
                let spec = args.get(i + 1).ok_or("--connect requires NAME=ADDR")?;
                let (peer, addr) =
                    spec.split_once('=').ok_or_else(|| format!("bad --connect spec {spec:?}"))?;
                opts.connects.push((peer.to_string(), addr.to_string()));
                i += 2;
            }
            "--serves" => {
                let spec = args.get(i + 1).ok_or("--serves requires HOST=URI")?;
                let (host, uri) =
                    spec.split_once('=').ok_or_else(|| format!("bad --serves spec {spec:?}"))?;
                opts.serves.push((host.to_string(), uri.to_string()));
                i += 2;
            }
            "--strategy" => {
                let s = args.get(i + 1).ok_or("--strategy requires a value")?;
                opts.strategies =
                    parse_strategy(s).ok_or_else(|| format!("unknown strategy {s:?}"))?;
                i += 2;
            }
            "--network" => {
                let s = args.get(i + 1).ok_or("--network requires lan|wan")?;
                opts.network = match s.as_str() {
                    "lan" => NetworkModel::lan(),
                    "wan" => NetworkModel::wan(),
                    other => return Err(format!("unknown network model {other:?}")),
                };
                i += 2;
            }
            "--metrics" => {
                opts.metrics = true;
                i += 1;
            }
            "--fault-seed" => {
                opts.fault_seed = Some(num_arg(args, i, "--fault-seed")?);
                i += 2;
            }
            "--fault-rate" => {
                let rate: f64 = num_arg(args, i, "--fault-rate")?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--fault-rate must be in 0..1, got {rate}"));
                }
                opts.fault_rate = rate;
                i += 2;
            }
            "--retries" => {
                opts.retry.max_attempts = num_arg(args, i, "--retries")?;
                i += 2;
            }
            "--deadline-ms" => {
                opts.retry.deadline = Duration::from_millis(num_arg(args, i, "--deadline-ms")?);
                i += 2;
            }
            "--backoff-ms" => {
                opts.retry.base_backoff = Duration::from_millis(num_arg(args, i, "--backoff-ms")?);
                i += 2;
            }
            "--replicas" => {
                let spec = args.get(i + 1).ok_or("--replicas requires PRIMARY:ALT1,ALT2")?;
                let (primary, alts) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("bad --replicas spec {spec:?}"))?;
                let alts: Vec<String> =
                    alts.split(',').filter(|a| !a.is_empty()).map(str::to_string).collect();
                if alts.is_empty() {
                    return Err(format!("bad --replicas spec {spec:?}: no alternate hosts"));
                }
                opts.replicas.push((primary.to_string(), alts));
                i += 2;
            }
            "--hedge-ms" => {
                opts.hedge = Some(Duration::from_millis(num_arg(args, i, "--hedge-ms")?));
                i += 2;
            }
            "--breaker-threshold" => {
                opts.breaker.threshold = num_arg(args, i, "--breaker-threshold")?;
                i += 2;
            }
            "--breaker-cooldown-ms" => {
                opts.breaker.cooldown =
                    Duration::from_millis(num_arg(args, i, "--breaker-cooldown-ms")?);
                i += 2;
            }
            "--no-semijoin" => {
                opts.semijoin = false;
                i += 1;
            }
            "--plan-cache-size" => {
                opts.plan_cache_size = num_arg(args, i, "--plan-cache-size")?;
                i += 2;
            }
            "--trace-out" => {
                let f = args.get(i + 1).ok_or("--trace-out requires a file path")?;
                opts.trace_out = Some(f.clone());
                i += 2;
            }
            "--trace-format" => {
                let f = args.get(i + 1).ok_or("--trace-format requires json|chrome")?;
                opts.trace_chrome = match f.as_str() {
                    "json" => false,
                    "chrome" => true,
                    other => return Err(format!("unknown trace format {other:?}")),
                };
                i += 2;
            }
            "--analyze" => {
                opts.analyze = true;
                i += 1;
            }
            "--tenants" => {
                opts.tenants = num_arg(args, i, "--tenants")?;
                if opts.tenants == 0 {
                    return Err("--tenants must be at least 1".to_string());
                }
                i += 2;
            }
            "--offered-qps" => {
                opts.offered_qps = num_arg(args, i, "--offered-qps")?;
                if opts.offered_qps <= 0.0 {
                    return Err(format!("--offered-qps must be positive, got {}", opts.offered_qps));
                }
                i += 2;
            }
            "--queue-depth" => {
                opts.queue_depth = num_arg(args, i, "--queue-depth")?;
                i += 2;
            }
            "--fair-weights" => {
                let spec = args.get(i + 1).ok_or("--fair-weights requires W1,W2,.. or `off`")?;
                if spec == "off" {
                    opts.fair_weights = Some(Vec::new());
                } else {
                    let weights: Option<Vec<u32>> =
                        spec.split(',').map(|w| w.parse().ok()).collect();
                    let weights =
                        weights.ok_or_else(|| format!("bad --fair-weights spec {spec:?}"))?;
                    if weights.is_empty() || weights.contains(&0) {
                        return Err(format!("bad --fair-weights spec {spec:?}: weights must be ≥ 1"));
                    }
                    opts.fair_weights = Some(weights);
                }
                i += 2;
            }
            "--workers" => {
                opts.workers = num_arg(args, i, "--workers")?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                i += 2;
            }
            "--duration-ms" => {
                opts.duration = Duration::from_millis(num_arg(args, i, "--duration-ms")?);
                i += 2;
            }
            "--query-deadline-ms" => {
                opts.query_deadline =
                    Duration::from_millis(num_arg(args, i, "--query-deadline-ms")?);
                i += 2;
            }
            "--seed" => {
                opts.seed = num_arg(args, i, "--seed")?;
                i += 2;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            file => {
                if opts.query.is_some() {
                    return Err(format!("query given twice (file {file:?} and -e)"));
                }
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read query file {file:?}: {e}"))?;
                opts.query = Some(text);
                i += 1;
            }
        }
    }
    Ok(opts)
}

fn cmd_run(args: &[String], explain_only: bool) -> ExitCode {
    let opts = match parse_run_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(query) = opts.query.clone() else {
        eprintln!("error: no query given (use -e QUERY or a query file)\n{USAGE}");
        return ExitCode::FAILURE;
    };

    let wire = !opts.connects.is_empty();
    if wire {
        if explain_only {
            eprintln!("error: --connect is an execution mode; use `xqd run`");
            return ExitCode::FAILURE;
        }
        if let Some(flag) = opts.simulated_only.first() {
            eprintln!(
                "error: {flag} configures the simulated federation and means nothing with --connect"
            );
            return ExitCode::FAILURE;
        }
    }

    if explain_only && !opts.analyze {
        let module = match xqd::parse_query(&query) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("parse error: {e}");
                return ExitCode::FAILURE;
            }
        };
        for strategy in &opts.strategies {
            let dopts = xqd::DecomposeOptions { semijoin: opts.semijoin, ..Default::default() };
            match xqd::decompose_with(&module, *strategy, dopts) {
                Ok(plan) => {
                    println!("=== {} ===", strategy.name());
                    println!("{}", plan.rewritten);
                    for (i, c) in plan.calls.iter().enumerate() {
                        println!("  call {} at {}: {}", i + 1, c.peer, c.body);
                        if !c.depends_on.is_empty() {
                            println!("    depends on call(s): {:?}", c.depends_on);
                        }
                        if let Some(p) = &c.projection {
                            println!(
                                "    response projection: used={:?} returned={:?}",
                                p.result.used.iter().map(ToString::to_string).collect::<Vec<_>>(),
                                p.result
                                    .returned
                                    .iter()
                                    .map(ToString::to_string)
                                    .collect::<Vec<_>>()
                            );
                        }
                    }
                    for sj in &plan.semijoins {
                        println!(
                            "  semi-join: ${} keys {} harvested at {} -> {}",
                            sj.var,
                            sj.key_path,
                            sj.producer_peer,
                            sj.consumer_peer.as_deref().unwrap_or("(coordinator)"),
                        );
                    }
                }
                Err(e) => {
                    eprintln!("decomposition error under {}: {e}", strategy.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    if opts.fault_seed.is_some() {
        hide_injected_panics();
    }

    let explain_analyze = explain_only && opts.analyze;
    for strategy in &opts.strategies {
        let traced = opts.trace_out.is_some() || opts.analyze;
        let mut fed = match build_federation(&opts, traced, opts.analyze) {
            Ok(fed) => fed,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        match fed.run(&query, *strategy) {
            Ok(out) => {
                if opts.strategies.len() > 1 {
                    println!("=== {} ===", strategy.name());
                }
                if !explain_analyze {
                    for item in &out.result {
                        println!("{item}");
                    }
                }
                if opts.analyze {
                    print_analysis(&out, if wire { "measured" } else { "simulated" });
                }
                if let Err(e) = write_run_trace(&opts, strategy.name(), out.trace.as_ref()) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                if opts.metrics {
                    let m = &out.metrics;
                    eprintln!(
                        "# {}: {} bytes ({} msg / {} doc), {} transfers, \
                         {} remote calls, wire {:?}, total {:?}",
                        strategy.name(),
                        m.transferred_bytes(),
                        m.message_bytes,
                        m.document_bytes,
                        m.transfers,
                        m.remote_calls,
                        m.network,
                        // simulated wire time comes on top of the measured
                        // CPU; measured wire time is already inside it
                        if wire { m.total } else { m.total + m.network },
                    );
                    eprintln!(
                        "# {}: {} plans compiled, plan cache {} hits / {} misses",
                        strategy.name(),
                        m.plans_compiled,
                        m.plan_cache_hits,
                        m.plan_cache_misses,
                    );
                    if opts.semijoin || m.semijoins > 0 {
                        eprintln!(
                            "# {}: {} semijoins, {} join_keys_shipped, \
                             {} join_bytes_saved",
                            strategy.name(),
                            m.semijoins,
                            m.join_keys_shipped,
                            m.join_bytes_saved,
                        );
                    }
                    if opts.fault_seed.is_some() || m.faults_injected > 0 {
                        eprintln!(
                            "# {}: {} faults injected, {} retries, {} fallbacks",
                            strategy.name(),
                            m.faults_injected,
                            m.retries,
                            m.fallbacks,
                        );
                    }
                    if !opts.replicas.is_empty() || !opts.serves.is_empty() || opts.hedge.is_some() {
                        eprintln!(
                            "# {}: {} replica failovers, {} hedges ({} won), \
                             {} breaker trips, {} probes",
                            strategy.name(),
                            m.replica_failovers,
                            m.hedges,
                            m.hedge_wins,
                            m.breaker_trips,
                            m.breaker_probes,
                        );
                    }
                    // the full named counter registry (non-zero entries),
                    // in replay-contract order
                    for (name, value) in m.named().iter().filter(|(_, v)| *v > 0) {
                        eprintln!("# {}: {name} = {value}", strategy.name());
                    }
                }
            }
            Err(e) => {
                eprintln!("error under {}: {e}", strategy.name());
                // the trace of a failed run, its root annotated by the error
                if let Err(e) = write_run_trace(&opts, strategy.name(), fed.take_trace().as_ref()) {
                    eprintln!("{e}");
                }
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Writes a run's trace to `--trace-out`, suffixed by the strategy's name
/// when several strategies run; nothing without the flag or a trace.
fn write_run_trace(
    opts: &RunOptions,
    strategy: &str,
    trace: Option<&xqd::Trace>,
) -> Result<(), String> {
    let (Some(path), Some(trace)) = (&opts.trace_out, trace) else { return Ok(()) };
    let path =
        if opts.strategies.len() > 1 { format!("{path}.{strategy}") } else { path.clone() };
    write_trace(trace, &path, opts.trace_chrome)?;
    eprintln!("# trace written to {path}");
    Ok(())
}

/// The federation `opts` describes, configured and loaded: live daemons
/// behind a TCP transport when `--connect` named any, simulated peers with
/// their documents and replicas otherwise — one coordinator either way, so
/// every execution flag means the same thing in both modes.
fn build_federation(opts: &RunOptions, trace: bool, profile: bool) -> Result<Federation, String> {
    let wire = !opts.connects.is_empty();
    let mut fed = if wire {
        let transport = Arc::new(TcpTransport::new());
        for (peer, addr) in &opts.connects {
            transport.register(peer, addr);
        }
        Federation::over(transport)
    } else {
        Federation::new(opts.network)
    };
    fed.set_exec_options(ExecOptions {
        semijoin: opts.semijoin,
        plan_cache_size: opts.plan_cache_size,
        trace,
        profile,
        retry: opts.retry,
        hedge: opts.hedge,
        breaker: opts.breaker,
        fault: opts.fault_seed.map(|seed| FaultPlan::uniform(seed, opts.fault_rate)),
        replica_seed: if wire { opts.seed } else { opts.fault_seed.unwrap_or(0) },
        ..ExecOptions::default()
    });
    for (peer, addr) in &opts.connects {
        fed.set_peer_address(peer, addr);
    }
    for (host, uri) in &opts.serves {
        fed.register_replica(uri, host);
    }
    for (peer, doc, file) in &opts.peers {
        let xml =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
        fed.load_document(peer, doc, &xml).map_err(|e| format!("loading {doc} on {peer}: {e}"))?;
    }
    for (primary, alts) in &opts.replicas {
        for alt in alts {
            fed.replicate_peer(primary, alt)
                .map_err(|e| format!("replicating {primary} onto {alt}: {e}"))?;
        }
    }
    Ok(fed)
}

/// `xqd serve`: one peer daemon. Prints a READY line (the sleep-free
/// startup synchronization point for harnesses), then blocks on stdin —
/// a `drain` line or EOF triggers graceful drain and exit. Exit code 0
/// means the drain was clean (every request and connection wound down
/// inside its deadline).
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut name: Option<String> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut docs: Vec<(String, String)> = Vec::new();
    let mut replica_docs: Vec<(String, String)> = Vec::new();
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let step = match args[i].as_str() {
            "--name" => match args.get(i + 1) {
                Some(n) => {
                    name = Some(n.clone());
                    Ok(2)
                }
                None => Err("--name requires a peer name".to_string()),
            },
            "--listen" => match args.get(i + 1) {
                Some(a) => {
                    listen = a.clone();
                    Ok(2)
                }
                None => Err("--listen requires an address".to_string()),
            },
            "--doc" => match args.get(i + 1).and_then(|s| s.split_once('=')) {
                Some((doc, file)) => {
                    docs.push((doc.to_string(), file.to_string()));
                    Ok(2)
                }
                None => Err("--doc requires DOC=FILE".to_string()),
            },
            "--replica-doc" => match args.get(i + 1).and_then(|s| s.split_once('=')) {
                Some((uri, file)) => {
                    replica_docs.push((uri.to_string(), file.to_string()));
                    Ok(2)
                }
                None => Err("--replica-doc requires URI=FILE".to_string()),
            },
            "--max-inflight" => num_arg(args, i, "--max-inflight").map(|n| {
                config.max_inflight = n;
                2
            }),
            "--max-connections" => num_arg(args, i, "--max-connections").map(|n| {
                config.max_connections = n;
                2
            }),
            "--idle-timeout-ms" => num_arg(args, i, "--idle-timeout-ms").map(|n: u64| {
                config.idle_timeout = Duration::from_millis(n);
                2
            }),
            "--request-deadline-ms" => num_arg(args, i, "--request-deadline-ms").map(|n: u64| {
                config.request_deadline = Duration::from_millis(n);
                2
            }),
            "--drain-deadline-ms" => num_arg(args, i, "--drain-deadline-ms").map(|n: u64| {
                config.drain_deadline = Duration::from_millis(n);
                2
            }),
            other => Err(format!("unknown serve option {other:?}")),
        };
        match step {
            Ok(n) => i += n,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(name) = name else {
        eprintln!("error: xqd serve requires --name PEER\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut server = match PeerServer::bind(&name, &listen, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (doc, file) in &docs {
        let xml = match std::fs::read_to_string(file) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("cannot read {file:?}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = server.load_document(doc, &xml) {
            eprintln!("loading {doc}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (uri, file) in &replica_docs {
        let xml = match std::fs::read_to_string(file) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("cannot read {file:?}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = server.load_replica(uri, &xml) {
            eprintln!("loading replica {uri}: {e}");
            return ExitCode::FAILURE;
        }
    }
    server.start();
    // the READY line is the startup handshake: a parent process reads it
    // instead of sleeping, and learns the ephemeral port
    println!("READY peer={} addr={}", server.name(), server.addr());
    let _ = std::io::stdout().flush();
    // std-only signal story: drain on stdin "drain" or EOF (a dying parent
    // closes our stdin, so orphaned daemons still wind down)
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "drain" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    let report = server.drain();
    eprintln!(
        "# drained: {} served, {} shed, {} cancelled in-flight, clean={} ({:?})",
        report.served, report.shed, report.cancelled_inflight, report.clean, report.elapsed,
    );
    if report.clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(trace: &xqd::Trace, path: &str, chrome: bool) -> Result<(), String> {
    let body = if chrome { trace.to_chrome() } else { trace.to_json() };
    std::fs::write(path, body).map_err(|e| format!("writing trace {path:?}: {e}"))
}

/// `explain --analyze` output: the per-operator plan profile plus the
/// span-level attribution of the run's wall time on its `clock`.
fn print_analysis(out: &xqd::RunOutcome, clock: &str) {
    if let (Some(prepared), Some(profile)) = (&out.compiled, &out.profile) {
        println!("{}", prepared.plan.dump_analyze(profile));
    }
    let Some(trace) = &out.trace else { return };
    // aggregate the root's direct children — the network-bearing spans that
    // partition the simulated timeline — by span name
    let mut rows: Vec<(&str, u64, u64)> = Vec::new();
    for s in trace.children_of(xqd::ROOT_SPAN) {
        match rows.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.dur_ns;
            }
            None => rows.push((s.name, 1, s.dur_ns)),
        }
    }
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let total = trace.total_ns.max(1);
    println!(
        "trace {:#018x}: total {clock} {:?}, span coverage {:.1}%",
        trace.trace_id,
        Duration::from_nanos(trace.total_ns),
        trace.coverage() * 100.0,
    );
    for (name, count, ns) in &rows {
        println!(
            "  {name:<16} x{count:<4} {:>12}  {:>5.1}%",
            format!("{:?}", Duration::from_nanos(*ns)),
            *ns as f64 * 100.0 / total as f64,
        );
    }
    let attempts = trace.histogram("rpc.attempt");
    if attempts.count() > 0 {
        println!("rpc.attempt latency:");
        for line in attempts.render().lines() {
            println!("  {line}");
        }
    }
}

fn cmd_workload(args: &[String]) -> ExitCode {
    let opts = match parse_run_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(query) = opts.query.clone() else {
        eprintln!("error: no query given (use -e QUERY or a query file)\n{USAGE}");
        return ExitCode::FAILURE;
    };
    if !opts.connects.is_empty() {
        // the workload engine schedules on the simulated clock
        eprintln!("error: --connect is for `xqd run`; a workload runs on the simulated federation");
        return ExitCode::FAILURE;
    }
    let strategy = opts.strategies[0];

    if opts.fault_seed.is_some() {
        hide_injected_panics();
    }

    let mut fed = match build_federation(&opts, false, false) {
        Ok(fed) => fed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // N tenants splitting the offered load evenly, all running the query;
    // weights come from --fair-weights (cycled), `off` degrades to FIFO
    let fair = !matches!(&opts.fair_weights, Some(w) if w.is_empty());
    let weights: Vec<u32> = match &opts.fair_weights {
        Some(w) if !w.is_empty() => w.clone(),
        _ => vec![1],
    };
    let per_tenant_qps = opts.offered_qps / opts.tenants as f64;
    let tenants: Vec<TenantSpec> = (0..opts.tenants)
        .map(|i| {
            TenantSpec::new(
                &format!("t{}", i + 1),
                weights[i % weights.len()],
                per_tenant_qps,
                vec![query.clone()],
            )
        })
        .collect();
    let mut config = WorkloadConfig::new(tenants);
    config.strategy = strategy;
    config.seed = opts.seed;
    config.duration = opts.duration;
    config.workers = opts.workers;
    config.queue_depth = opts.queue_depth;
    config.deadline = opts.query_deadline;
    config.fair = fair;

    let report = if let Some(path) = &opts.trace_out {
        match WorkloadEngine::run_traced(&mut fed, &config) {
            Ok((r, trace)) => {
                if let Err(e) = write_trace(&trace, path, opts.trace_chrome) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("# scheduler trace written to {path}");
                r
            }
            Err(e) => {
                eprintln!("workload error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match WorkloadEngine::run(&mut fed, &config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("workload error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    println!(
        "offered {:.0} q/s over {} tenants for {:?} -> goodput {:.0} q/s",
        report.offered_qps,
        opts.tenants,
        opts.duration,
        report.goodput_qps,
    );
    println!(
        "arrivals {}: {} completed, {} shed, {} deadline-cancelled, {} errored",
        report.arrivals, report.completed, report.shed, report.deadline_cancelled, report.errored,
    );
    println!(
        "latency p50 {:?} / p95 {:?} / p99 {:?}  (simulated clock)",
        report.p50, report.p95, report.p99,
    );
    println!(
        "completed results bit-identical to serial execution: {}; all errors typed: {}",
        report.results_identical, report.all_errors_typed,
    );
    for t in &report.per_tenant {
        println!(
            "  {:>8}: {} arrivals, {} ok, {} shed, {} cancelled, {} errored, p99 {:?}",
            t.name, t.arrivals, t.completed, t.shed, t.deadline_cancelled, t.errored, t.p99,
        );
    }
    if opts.metrics {
        let m = &report.metrics;
        eprintln!(
            "# workload: {} queued, {} shed, {} deadline_cancelled, peak queue depth {}",
            m.queued, m.shed, m.deadline_cancelled, m.peak_queue_depth,
        );
        eprintln!(
            "# workload: {} bytes ({} msg / {} doc), {} transfers, {} remote calls",
            m.transferred_bytes(),
            m.message_bytes,
            m.document_bytes,
            m.transfers,
            m.remote_calls,
        );
        if opts.fault_seed.is_some() || m.faults_injected > 0 {
            eprintln!(
                "# workload: {} faults injected, {} retries, {} fallbacks",
                m.faults_injected, m.retries, m.fallbacks,
            );
        }
    }
    if report.results_identical && report.all_errors_typed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let mut bytes = 1_000_000usize;
    let mut seed = 42u64;
    let mut people_file = None;
    let mut auctions_file = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bytes" => {
                bytes = match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(b) => b,
                    None => {
                        eprintln!("--bytes requires a number");
                        return ExitCode::FAILURE;
                    }
                };
                i += 2;
            }
            "--seed" => {
                seed = match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed requires a number");
                        return ExitCode::FAILURE;
                    }
                };
                i += 2;
            }
            "--people" => {
                people_file = args.get(i + 1).cloned();
                i += 2;
            }
            "--auctions" => {
                auctions_file = args.get(i + 1).cloned();
                i += 2;
            }
            other => {
                eprintln!("unknown option {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cfg = xqd::xmark::XmarkConfig::with_target_bytes(bytes, seed);
    let (people, auctions) = xqd::xmark::document_pair(&cfg);
    for (file, content, label) in
        [(people_file, people, "people"), (auctions_file, auctions, "auctions")]
    {
        match file {
            Some(f) => {
                if let Err(e) = std::fs::write(&f, &content) {
                    eprintln!("writing {f:?}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("# wrote {label} document: {f} ({} bytes)", content.len());
            }
            None => eprintln!("# skipping {label} (no output file given)"),
        }
    }
    ExitCode::SUCCESS
}
