//! The daemon side of a run: spawning `xqd serve` processes, the READY
//! handshake, drain, `/proc` accounting, and the watchdog that makes sure
//! no daemon outlives the benchmark.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xqd::{RetryPolicy, SocketFederation, TcpTransport, Transport};

use crate::workload::Doc;

/// Every child that has been spawned and not yet reaped, by pid. The
/// watchdog and the panic path kill through this table, so a wedged or
/// crashed run leaves no `xqd serve` behind.
static LIVE: Mutex<Option<HashMap<u32, Child>>> = Mutex::new(None);
/// Children ever spawned; `reaped` must catch up with it before exit.
static SPAWNED: AtomicU64 = AtomicU64::new(0);
static REAPED: AtomicU64 = AtomicU64::new(0);

fn live<R>(f: impl FnOnce(&mut HashMap<u32, Child>) -> R) -> R {
    // a panic while the table is locked must not stop the cleanup
    let mut guard = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(HashMap::new))
}

/// Kills and reaps child `pid` if it is still live.
fn kill(pid: u32) {
    if let Some(mut child) = live(|table| table.remove(&pid)) {
        let _ = child.kill();
        let _ = child.wait();
        REAPED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Kills and reaps every live child. Safe to call from any thread.
pub fn kill_all() {
    for pid in live(|table| table.keys().copied().collect::<Vec<_>>()) {
        kill(pid);
    }
}

/// Children spawned but never reaped — must be 0 at the end of a run.
pub fn orphans() -> u64 {
    SPAWNED.load(Ordering::SeqCst) - REAPED.load(Ordering::SeqCst)
}

/// Arms the watchdog: after `limit` the children are killed and the
/// process exits 2 without printing a result. Also routes panics on any
/// thread through the same cleanup.
pub fn arm_watchdog(limit: Duration) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        kill_all();
        std::process::exit(3);
    }));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("wirebench: watchdog fired after {limit:?}; killing daemons");
        kill_all();
        std::process::exit(2);
    });
}

/// Which core each process of a run is confined to, and what keeps those
/// cores awake.
///
/// On this virtualised sandbox a core that goes idle is given away by the
/// host: the next message wakes it through the hypervisor and finds its
/// caches cold. A plain loopback ping-pong runs at 120 k round trips a
/// second while both ends share a core and at 15 k once the scheduler has
/// moved them apart, and where it puts them changes from run to run and
/// within one. A closed loop with one caller has one runnable thread at a
/// time, so confining the driver and the daemons to a single core costs it
/// nothing, leaves that core never idle, and takes the scheduler out of
/// the measurement.
///
/// Only a workload whose daemons could work at the same time
/// (`Workload::spread_peers`) gives every daemon after the first a core of
/// its own. Its cores do idle in turn, so each gets a `nice -n 19` copy of
/// this executable spinning on it (`wirebench --spin`): it yields to any
/// real thread at once, its CPU time is not the driver's or a daemon's,
/// and it dies with its stdin.
///
/// Pinning goes through `taskset`; without it the run goes on unpinned
/// and says so (`pinned` in the detail line).
#[derive(Debug)]
pub struct Placement {
    /// The core of each daemon, in `PEERS` order; empty when unpinned.
    daemons: Vec<usize>,
    spinners: Vec<u32>,
}

impl Placement {
    /// Confines this process (every thread, and so every child it spawns
    /// from now on) to the last allowed core and plans the daemons' cores:
    /// all on that same core, or, with `spread_peers`, the first there and
    /// each further one on the next allowed core round robin.
    pub fn apply(spread_peers: bool) -> Result<Placement, String> {
        let cpus = allowed_cpus();
        let home = cpus.len() - 1;
        let mut placement = Placement {
            daemons: Vec::new(),
            spinners: Vec::new(),
        };
        let pinned = Command::new("taskset")
            .args(["-a", "-cp", &cpus[home].to_string()])
            .arg(std::process::id().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !pinned {
            eprintln!("wirebench: `taskset` is not usable here; the run is not pinned");
            return Ok(placement);
        }
        placement.daemons = (0..crate::workload::PEERS.len())
            .map(|k| {
                cpus[if spread_peers {
                    (home + k) % cpus.len()
                } else {
                    home
                }]
            })
            .collect();
        let mut cores = placement.daemons.clone();
        cores.sort_unstable();
        cores.dedup();
        if cores.len() > 1 {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            for cpu in cores {
                let child = Command::new("taskset")
                    .args(["-c", &cpu.to_string(), "nice", "-n", "19"])
                    .arg(&exe)
                    .arg("--spin")
                    .stdin(Stdio::piped())
                    .stdout(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawning a spinner through `nice`: {e}"))?;
                SPAWNED.fetch_add(1, Ordering::SeqCst);
                placement.spinners.push(child.id());
                live(|table| table.insert(child.id(), child));
            }
        }
        Ok(placement)
    }

    pub fn pinned(&self) -> bool {
        !self.daemons.is_empty()
    }

    /// The command that starts `bin` as daemon `k`.
    fn command(&self, k: usize, bin: &Path) -> Command {
        match self.daemons.get(k) {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", &cpu.to_string()]).arg(bin);
                cmd
            }
            None => Command::new(bin),
        }
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        for pid in &self.spinners {
            kill(*pid);
        }
    }
}

/// `wirebench --spin`: burn one core until stdin closes (the parent keeps
/// the other end; its death, however it comes, ends the spinner).
pub fn spin_until_stdin_closes() {
    std::thread::spawn(|| loop {
        std::hint::spin_loop();
    });
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
}

/// The CPUs this process could run on when it started
/// (`Cpus_allowed_list`), or `0..n` for the available parallelism when
/// `/proc` does not say. Never empty.
fn allowed_cpus() -> Vec<usize> {
    // asked once: `Placement::apply` narrows this process's own list
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(read_allowed_cpus).clone()
}

fn read_allowed_cpus() -> Vec<usize> {
    let listed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        });
    match listed {
        Some(cpus) if !cpus.is_empty() => cpus,
        _ => (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect(),
    }
}

/// `"0-1,4"` → `[0, 1, 4]`; anything unparsable is skipped.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// The `xqd` binary: next to this executable (`run.sh` builds both into
/// one target directory).
pub fn xqd_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.parent().map(|d| d.join("xqd")).filter(|b| b.exists());
    bin.ok_or_else(|| {
        format!(
            "no `xqd` binary next to {} — build with wirebench/run.sh",
            exe.display()
        )
    })
}

/// What the `# drained:` line of a daemon reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct Drained {
    pub exit_ok: bool,
    pub served: u64,
    pub shed: u64,
}

pub struct Daemon {
    pub name: &'static str,
    pub addr: String,
    pub pid: u32,
    /// Spawn → READY line read.
    pub ready: Duration,
    stdin: Option<ChildStdin>,
    stderr: Option<ChildStderr>,
}

impl Daemon {
    /// `cmd` is the `xqd` binary as the placement wants it started.
    fn spawn(
        mut cmd: Command,
        name: &'static str,
        docs: &[(&str, &Path)],
    ) -> Result<PendingDaemon, String> {
        cmd.arg("serve")
            .arg("--name")
            .arg(name)
            .arg("--listen")
            .arg("127.0.0.1:0");
        for (doc, file) in docs {
            cmd.arg("--doc").arg(format!("{doc}={}", file.display()));
        }
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning daemon {name}: {e}"))?;
        SPAWNED.fetch_add(1, Ordering::SeqCst);
        let pid = child.id();
        let stdout = child.stdout.take().expect("piped stdout");
        let stdin = child.stdin.take();
        let stderr = child.stderr.take();
        live(|table| table.insert(pid, child));
        Ok(PendingDaemon {
            name,
            pid,
            started,
            stdout: BufReader::new(stdout),
            stdin,
            stderr,
        })
    }

    /// Asks for a graceful drain, waits for the exit, and reads what the
    /// daemon reported about itself.
    pub fn drain(mut self) -> Drained {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"drain\n");
            let _ = stdin.flush();
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        let exit_ok = loop {
            let status = live(|table| table.get_mut(&self.pid).map(Child::try_wait));
            match status {
                Some(Ok(Some(status))) => break status.success(),
                Some(Ok(None)) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                // ignored the drain, or the table lost it: Drop kills it
                _ => break false,
            }
        };
        if exit_ok {
            live(|table| table.remove(&self.pid));
            REAPED.fetch_add(1, Ordering::SeqCst);
        }
        let mut log = String::new();
        if let Some(mut stderr) = self.stderr.take() {
            let _ = stderr.read_to_string(&mut log);
        }
        let field = |label: &str| {
            log.lines()
                .find_map(|l| l.strip_prefix("# drained: "))
                .and_then(|l| l.split(", ").find_map(|part| part.strip_suffix(label)))
                .and_then(|n| n.trim().parse().ok())
                .unwrap_or(0)
        };
        Drained {
            exit_ok,
            served: field(" served"),
            shed: field(" shed"),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // only finds a live child when a drain was skipped or failed
        kill(self.pid);
    }
}

/// A spawned daemon whose READY line has not been read yet, so several can
/// start in parallel.
struct PendingDaemon {
    name: &'static str,
    pid: u32,
    started: Instant,
    stdout: BufReader<std::process::ChildStdout>,
    stdin: Option<ChildStdin>,
    stderr: Option<ChildStderr>,
}

impl PendingDaemon {
    fn ready(mut self) -> Result<Daemon, String> {
        let mut line = String::new();
        let read = self.stdout.read_line(&mut line);
        let ready = self.started.elapsed();
        // from here the Daemon's Drop owns the cleanup
        let mut daemon = Daemon {
            name: self.name,
            addr: String::new(),
            pid: self.pid,
            ready,
            stdin: self.stdin.take(),
            stderr: self.stderr.take(),
        };
        read.map_err(|e| format!("reading READY from {}: {e}", self.name))?;
        daemon.addr = line
            .trim()
            .strip_prefix(&format!("READY peer={} addr=", self.name))
            .ok_or_else(|| {
                format!(
                    "daemon {} printed {line:?}, expected a READY line",
                    self.name
                )
            })?
            .to_string();
        Ok(daemon)
    }
}

/// The daemons of one federation, all READY.
pub struct Fleet {
    pub daemons: Vec<Daemon>,
}

impl Fleet {
    /// Spawns one daemon per peer, serving that peer's `docs` from `files`
    /// (parallel slices); all are started before the first READY line is
    /// awaited.
    pub fn start(
        bin: &Path,
        placement: &Placement,
        docs: &[Doc],
        files: &[PathBuf],
    ) -> Result<Fleet, String> {
        let mut pending = Vec::new();
        for (k, peer) in crate::workload::PEERS.into_iter().enumerate() {
            let served: Vec<(&str, &Path)> = docs
                .iter()
                .zip(files)
                .filter(|(d, _)| d.peer == peer)
                .map(|(d, f)| (d.name, f.as_path()))
                .collect();
            pending.push(Daemon::spawn(placement.command(k, bin), peer, &served)?);
        }
        // collect, do not short-circuit: every spawned child must end up in
        // a Daemon so that Drop reaps it
        let ready: Vec<Result<Daemon, String>> =
            pending.into_iter().map(PendingDaemon::ready).collect();
        let daemons = ready.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet { daemons })
    }

    /// A fresh TCP transport that dials this fleet.
    pub fn transport(&self) -> TcpTransport {
        let transport = TcpTransport::new();
        for d in &self.daemons {
            transport.register(d.name, &d.addr);
        }
        transport
    }

    /// A fresh coordinator over a fresh TCP transport.
    pub fn coordinator(&self) -> SocketFederation {
        coordinator_over(Arc::new(self.transport()))
    }

    pub fn pids(&self) -> Vec<u32> {
        self.daemons.iter().map(|d| d.pid).collect()
    }

    /// Drains every daemon; the sums of what they reported.
    pub fn drain(self) -> Drained {
        let mut total = Drained {
            exit_ok: true,
            ..Drained::default()
        };
        for d in self.daemons {
            let one = d.drain();
            total.exit_ok &= one.exit_ok;
            total.served += one.served;
            total.shed += one.shed;
        }
        total
    }
}

/// A coordinator for the two peers over any transport (the byte-count
/// prefix and the traced run hand in their wrappers here).
pub fn coordinator_over(transport: Arc<dyn Transport>) -> SocketFederation {
    let mut fed = SocketFederation::new(transport);
    // loopback daemons answer in milliseconds: a reply that needs a retry
    // is a failure to report, not something to wait out
    fed.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        deadline: Duration::from_secs(5),
    });
    fed
}

/// Writes the documents where the daemons can read them; one path per
/// document, in order.
pub fn write_docs(dir: &Path, docs: &[Doc]) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    docs.iter()
        .map(|d| {
            let path = dir.join(format!("{}-{}", d.peer, d.name));
            std::fs::write(&path, &d.xml)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// /proc accounting
// ---------------------------------------------------------------------------

/// Kernel clock ticks per second (`utime`/`stime` unit), asked once.
pub fn clock_ticks() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// `utime + stime` of a process in milliseconds, from `/proc/<pid>/stat`.
pub fn cpu_ms(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // the command name may hold spaces: fields are counted after its ")"
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 1000.0 / clock_ticks()
}

pub fn cpu_ms_of(pids: &[u32]) -> f64 {
    pids.iter().map(|p| cpu_ms(*p)).sum()
}

fn status_kb(pid: u32, key: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in MB.
pub fn rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmRSS:") / 1024.0
}

/// Voluntary plus involuntary context switches over every thread of `pid`.
pub fn ctx_switches(pid: u32) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.rsplit(':').next()?.trim().parse::<f64>().ok())
                .sum::<f64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list(" 0,2-4,7"), vec![0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert!(parse_cpu_list("").is_empty());
        assert!(parse_cpu_list("x-y").is_empty());
    }
}
