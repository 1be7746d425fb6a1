//! End-to-end tests of the `xqd` command-line binary.

use std::process::Command;

fn xqd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xqd"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xqd-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn run_inline_query_all_strategies() {
    let doc = write_temp("d1.xml", "<depts><dept name=\"sales\"/><dept name=\"dev\"/></depts>");
    let out = xqd()
        .args(["run", "-e", "count(doc(\"xrpc://org/depts.xml\")//dept)"])
        .args(["--peer", &format!("org:depts.xml={}", doc.display())])
        .args(["--strategy", "all", "--metrics"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("atom:2").count(), 4, "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pass-by-projection:"), "{stderr}");
}

#[test]
fn run_query_file() {
    let doc = write_temp("d2.xml", "<r><x>7</x></r>");
    let qf = write_temp("q.xq", "doc(\"xrpc://p/d.xml\")//x/text()");
    let out = xqd()
        .args(["run"])
        .arg(&qf)
        .args(["--peer", &format!("p:d.xml={}", doc.display())])
        .args(["--strategy", "fragment"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "7");
}

#[test]
fn explain_prints_plan() {
    let out = xqd()
        .args([
            "explain",
            "-e",
            "doc(\"xrpc://a/d.xml\")//item/v",
            "--strategy",
            "projection",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("execute at"), "{stdout}");
    assert!(stdout.contains("response projection"), "{stdout}");
}

#[test]
fn gen_xmark_writes_files() {
    let dir = std::env::temp_dir().join(format!("xqd-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("p.xml");
    let a = dir.join("a.xml");
    let out = xqd()
        .args(["gen-xmark", "--bytes", "20000", "--seed", "7"])
        .args(["--people", p.to_str().unwrap(), "--auctions", a.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let people = std::fs::read_to_string(&p).unwrap();
    assert!(people.starts_with("<site>"));
    assert!(std::fs::metadata(&a).unwrap().len() > 10_000);
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = xqd().args(["run"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no query"));

    let out = xqd().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let out = xqd()
        .args(["run", "-e", "1", "--strategy", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));

    // the interpreter toggle is gone: one engine, no flag to pick another
    let out = xqd().args(["run", "-e", "1", "--no-compile"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn query_error_reported() {
    let out = xqd().args(["run", "-e", "doc(\"xrpc://nowhere/d.xml\")"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nowhere"));
}

/// Flags that only configure the simulated federation are refused next to
/// `--connect`, by name, before anything is dialed (port 1 refuses: getting
/// that far would report a connect error instead).
#[test]
fn connect_rejects_the_flags_of_the_simulation_by_name() {
    for (flag, value) in [("--hedge-ms", "5"), ("--fault-seed", "1")] {
        let out = xqd()
            .args(["run", "-e", "count(doc(\"xrpc://P/d.xml\")//x)"])
            .args(["--connect", "P=127.0.0.1:1", flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted: {stderr}");
        assert!(stderr.contains(flag), "{flag} not named: {stderr}");
        assert!(!stderr.contains("127.0.0.1:1"), "{flag}: a connection was attempted: {stderr}");
    }
}
