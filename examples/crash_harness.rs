//! Multi-process crash harness: N `xqd serve` daemons on localhost,
//! `kill -9` mid-workload, and the dichotomy the whole robustness stack
//! promises — every query returns either a **bit-identical** result or a
//! **typed** error, never a hang, never a panic, never a wrong answer.
//!
//! Phases:
//!
//! 1. **equivalence** — a federated value join across two live daemons
//!    must return byte-identical canonical results to the in-process
//!    simulated federation, under all three strategies, both through the
//!    library coordinator and through the `xqd run --connect` CLI (which
//!    also writes its trace when the harness is given `--trace-out FILE`);
//! 2. **kill, no replica** — `kill -9` one daemon while a worker hammers
//!    the federation with queries: every outcome before, during and after
//!    the kill is identical-or-typed, and the dead peer surfaces as a
//!    typed error (never a hang — every call is deadline-bounded);
//! 3. **kill the primary, replica standing** — a third daemon serves a
//!    bit-identical replica of the primary's document; after `kill -9` of
//!    the primary the failover ladder must keep returning the identical
//!    result through the replica;
//! 4. **drain** — every surviving daemon winds down cleanly (exit 0) on a
//!    stdin `drain` line.
//!
//! Synchronization is handshake-based throughout: daemon startup is the
//! `READY peer=... addr=...` stdout line (never a sleep), kill timing is
//! driven by observed query completions, and the whole run sits under a
//! hard watchdog that exits 2 — failure — if anything wedges.
//!
//! ```sh
//! cargo build --release && cargo run --release --example crash_harness
//! ```

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use xqd::{Federation, NetworkModel, SocketFederation, Strategy};
use xqd::xrpc::RetryPolicy;

/// Absolute ceiling on the whole harness. The watchdog thread exits 2
/// when it fires: a wedged federation is exactly the failure this
/// harness exists to catch.
const HARD_TIMEOUT: Duration = Duration::from_secs(90);

const PEOPLE: &str = r#"<people><person id="p1"><age>31</age></person><person id="p2"><age>55</age></person><person id="p3"><age>24</age></person></people>"#;
const ORDERS: &str = r#"<orders><order buyer="p1"><total>10</total></order><order buyer="p2"><total>70</total></order><order buyer="p3"><total>5</total></order><order buyer="p1"><total>3</total></order></orders>"#;

const JOIN_QUERY: &str = r#"
    let $y := doc("xrpc://P1/people.xml")//person[age < 40]
    return for $o in doc("xrpc://P2/orders.xml")//order
           return if ($o/@buyer = $y/@id) then $o/total else ()
"#;

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        deadline: Duration::from_secs(2),
    }
}

/// One spawned `xqd serve` process, synchronized on its READY line.
struct Daemon {
    name: String,
    addr: String,
    child: Child,
    stdin: Option<ChildStdin>,
}

impl Daemon {
    fn spawn(bin: &Path, name: &str, docs: &[(String, String)], replicas: &[(String, String)]) -> Daemon {
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg("--name").arg(name).arg("--listen").arg("127.0.0.1:0");
        for (doc, file) in docs {
            cmd.arg("--doc").arg(format!("{doc}={file}"));
        }
        for (uri, file) in replicas {
            cmd.arg("--replica-doc").arg(format!("{uri}={file}"));
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawning daemon {name}: {e}"));
        let stdout = child.stdout.take().expect("piped stdout");
        // the READY line is the startup handshake — no sleeps
        let mut ready = String::new();
        BufReader::new(stdout)
            .read_line(&mut ready)
            .unwrap_or_else(|e| panic!("reading READY from {name}: {e}"));
        let addr = ready
            .trim()
            .strip_prefix(&format!("READY peer={name} addr="))
            .unwrap_or_else(|| panic!("daemon {name} printed {ready:?}, expected a READY line"))
            .to_string();
        let stdin = child.stdin.take();
        Daemon { name: name.to_string(), addr, child, stdin }
    }

    /// SIGKILL — no drain, no goodbye, mid-whatever-it-was-doing.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks for a graceful drain and reports whether the daemon exited 0.
    fn drain(&mut self) -> bool {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"drain\n");
            let _ = stdin.flush();
            // dropping stdin closes it: EOF is the fallback drain trigger
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => {
                    if Instant::now() >= give_up {
                        eprintln!("daemon {} ignored the drain; killing", self.name);
                        self.kill9();
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => return false,
            }
        }
    }
}

fn xqd_binary() -> PathBuf {
    // target/<profile>/examples/crash_harness -> target/<profile>/xqd
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("examples dir inside the target profile dir");
    let bin = dir.join("xqd");
    if !bin.exists() {
        eprintln!(
            "crash_harness: {} not found — build the binary first (cargo build --release)",
            bin.display()
        );
        std::process::exit(2);
    }
    bin
}

fn write_doc(dir: &Path, name: &str, xml: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, xml).expect("writing fixture document");
    path.to_string_lossy().into_owned()
}

/// Builds the coordinator federating the given daemons.
fn coordinator(daemons: &[&Daemon], replicas: &[(&str, &str)]) -> SocketFederation {
    let (mut fed, transport) = SocketFederation::over_tcp();
    for d in daemons {
        transport.register(&d.name, &d.addr);
        fed.set_peer_address(&d.name, &d.addr);
    }
    for (uri, host) in replicas {
        fed.register_replica(uri, host);
    }
    fed.set_retry_policy(retry());
    fed
}

/// One query outcome, reduced to the dichotomy under test.
enum Outcome {
    Identical,
    Divergent(Vec<String>),
    TypedError(String),
    UntypedError(String),
}

fn classify(run: Result<Vec<String>, xqd::EvalError>, expected: &[String]) -> Outcome {
    match run {
        Ok(result) if result == expected => Outcome::Identical,
        Ok(result) => Outcome::Divergent(result),
        Err(e) => match &e.code {
            Some(code) => Outcome::TypedError(code.clone()),
            None => Outcome::UntypedError(e.to_string()),
        },
    }
}

/// Hammers the federation until told to stop, reporting each outcome.
fn worker(
    mut fed: SocketFederation,
    expected: Vec<String>,
    stop: Arc<AtomicBool>,
    tx: mpsc::Sender<Outcome>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            let run = fed
                .run(JOIN_QUERY, Strategy::ByProjection)
                .map(|out| out.result);
            if tx.send(classify(run, &expected)).is_err() {
                return;
            }
        }
    })
}

/// Receives outcomes until `until` says stop (or the cap runs out);
/// returns (all_identical_or_typed, saw_typed, saw_identical).
fn observe(
    rx: &mpsc::Receiver<Outcome>,
    mut until: impl FnMut(&Outcome) -> bool,
) -> (bool, bool, bool) {
    let mut sound = true;
    let (mut saw_typed, mut saw_identical) = (false, false);
    for _ in 0..500 {
        let Ok(outcome) = rx.recv_timeout(Duration::from_secs(10)) else {
            eprintln!("  worker went quiet — treating as a hang");
            return (false, saw_typed, saw_identical);
        };
        match &outcome {
            Outcome::Identical => saw_identical = true,
            Outcome::TypedError(code) => {
                saw_typed = true;
                eprintln!("  typed error observed: {code}");
            }
            Outcome::Divergent(got) => {
                sound = false;
                eprintln!("  WRONG ANSWER: {got:?}");
            }
            Outcome::UntypedError(msg) => {
                sound = false;
                eprintln!("  UNTYPED error: {msg}");
            }
        }
        if until(&outcome) {
            return (sound, saw_typed, saw_identical);
        }
    }
    eprintln!("  outcome cap reached without the awaited state");
    (false, saw_typed, saw_identical)
}

fn main() {
    // hard watchdog: a wedged harness is a failed harness
    std::thread::spawn(|| {
        std::thread::sleep(HARD_TIMEOUT);
        eprintln!("crash_harness: watchdog fired after {HARD_TIMEOUT:?} — something hung");
        std::process::exit(2);
    });

    let args: Vec<String> = std::env::args().collect();
    let arg_after = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let out_path = arg_after("--out");
    // `--trace-out FILE` is handed to the CLI client of phase 1, which then
    // writes the trace of its run over the sockets there
    let cli_trace: Vec<String> =
        arg_after("--trace-out").map(|f| vec!["--trace-out".to_string(), f]).unwrap_or_default();

    let bin = xqd_binary();
    let dir = std::env::temp_dir().join(format!("xqd_crash_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let people_file = write_doc(&dir, "people.xml", PEOPLE);
    let orders_file = write_doc(&dir, "orders.xml", ORDERS);

    // the in-process simulated federation is the oracle
    let mut sim = Federation::new(NetworkModel::lan());
    sim.load_document("P1", "people.xml", PEOPLE).unwrap();
    sim.load_document("P2", "orders.xml", ORDERS).unwrap();

    // ---- phase 1: equivalence over the real wire -----------------------
    println!("# phase 1: TCP equivalence against the simulated oracle");
    let mut p1 = Daemon::spawn(&bin, "P1", &[("people.xml".into(), people_file.clone())], &[]);
    let mut p2 = Daemon::spawn(&bin, "P2", &[("orders.xml".into(), orders_file.clone())], &[]);
    println!("#   P1 at {}, P2 at {}", p1.addr, p2.addr);

    let mut equivalence_identical = true;
    let mut fed = coordinator(&[&p1, &p2], &[]);
    let mut expected_projection: Vec<String> = Vec::new();
    for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
        let expected = sim.run(JOIN_QUERY, strategy).expect("oracle run").result;
        match fed.run(JOIN_QUERY, strategy) {
            Ok(out) if out.result == expected => {
                println!("#   {strategy:?}: identical ({} items)", out.result.len());
            }
            Ok(out) => {
                equivalence_identical = false;
                eprintln!("#   {strategy:?}: DIVERGED {:?} vs {expected:?}", out.result);
            }
            Err(e) => {
                equivalence_identical = false;
                eprintln!("#   {strategy:?}: errored on a healthy federation: {e}");
            }
        }
        if strategy == Strategy::ByProjection {
            expected_projection = expected;
        }
    }
    // and once more through the CLI client, comparing raw stdout lines
    let cli = Command::new(&bin)
        .args([
            "run", "-e", JOIN_QUERY,
            "--connect", &format!("P1={}", p1.addr),
            "--connect", &format!("P2={}", p2.addr),
            "--strategy", "projection",
        ])
        .args(&cli_trace)
        .output()
        .expect("running the CLI client");
    let cli_lines: Vec<String> =
        String::from_utf8_lossy(&cli.stdout).lines().map(str::to_string).collect();
    if !cli.status.success() || cli_lines != expected_projection {
        equivalence_identical = false;
        eprintln!(
            "#   CLI client diverged (exit {:?}): {cli_lines:?} vs {expected_projection:?}",
            cli.status.code()
        );
    } else {
        println!("#   xqd run --connect: identical through the CLI");
    }

    // ---- phase 2: kill -9 a peer with no replica -----------------------
    println!("# phase 2: kill -9 P2 (no replica) mid-workload");
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let handle = worker(
        coordinator(&[&p1, &p2], &[]),
        expected_projection.clone(),
        Arc::clone(&stop),
        tx,
    );
    // wait for the first completed query, then pull the trigger while the
    // worker keeps firing — the kill lands mid-workload by construction
    let (sound_before, _, saw_ok) = observe(&rx, |o| matches!(o, Outcome::Identical));
    p2.kill9();
    println!("#   P2 killed");
    let (sound_after, saw_typed, _) = observe(&rx, |o| matches!(o, Outcome::TypedError(_)));
    stop.store(true, Ordering::SeqCst);
    drop(rx);
    handle.join().expect("worker must not panic");
    let killed_typed_or_identical = sound_before && sound_after && saw_ok && saw_typed;

    // ---- phase 3: kill -9 the primary with a replica standing ----------
    println!("# phase 3: kill -9 the primary while P3 serves its replica");
    let mut p1b = Daemon::spawn(&bin, "P1", &[("people.xml".into(), people_file.clone())], &[]);
    let mut p2b = Daemon::spawn(&bin, "P2", &[("orders.xml".into(), orders_file.clone())], &[]);
    let mut p3b = Daemon::spawn(
        &bin,
        "P3",
        &[],
        &[("xrpc://P1/people.xml".into(), people_file.clone())],
    );
    println!("#   P1 at {}, P2 at {}, P3 (replica) at {}", p1b.addr, p2b.addr, p3b.addr);
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let handle = worker(
        coordinator(&[&p1b, &p2b, &p3b], &[("xrpc://P1/people.xml", "P3")]),
        expected_projection.clone(),
        Arc::clone(&stop),
        tx,
    );
    let (sound_before, _, saw_ok) = observe(&rx, |o| matches!(o, Outcome::Identical));
    p1b.kill9();
    println!("#   P1 killed; the ladder must reach P3");
    // identical-after-kill is the convergence proof: the replica answered
    let (sound_after, _, saw_identical) = observe(&rx, |o| matches!(o, Outcome::Identical));
    stop.store(true, Ordering::SeqCst);
    drop(rx);
    handle.join().expect("worker must not panic");
    let replica_failover_identical = sound_before && sound_after && saw_ok && saw_identical;

    // ---- phase 4: graceful drain of every survivor ---------------------
    println!("# phase 4: drain the surviving daemons");
    let mut drain_exit_zero = true;
    for d in [&mut p1, &mut p2b, &mut p3b] {
        let clean = d.drain();
        println!("#   {} drained, exit 0: {clean}", d.name);
        drain_exit_zero &= clean;
    }

    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"equivalence_identical\": {equivalence_identical},\n  \
         \"killed_typed_or_identical\": {killed_typed_or_identical},\n  \
         \"replica_failover_identical\": {replica_failover_identical},\n  \
         \"drain_exit_zero\": {drain_exit_zero}\n}}\n"
    );
    print!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    let all_ok = equivalence_identical
        && killed_typed_or_identical
        && replica_failover_identical
        && drain_exit_zero;
    std::process::exit(if all_ok { 0 } else { 1 });
}
