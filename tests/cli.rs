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

/// A run that ends in a typed error still writes its trace, the root span
/// annotated by the error, before exiting non-zero.
#[test]
fn trace_out_writes_the_trace_of_a_failed_run() {
    let d = write_temp("t_d.xml", "<a><b><c>one</c></b><b><c>two</c></b></a>");
    let e = write_temp("t_e.xml", "<e><c>x</c><c>y</c><c>z</c></e>");
    let trace = write_temp("failed_trace.json", "");
    std::fs::remove_file(&trace).unwrap();
    let out = xqd()
        .args(["run", "-e"])
        .arg(r#"count(doc("xrpc://p/d.xml")//c) + count(doc("xrpc://q/e.xml")//c)"#)
        .args(["--peer", &format!("p:d.xml={}", d.display())])
        .args(["--peer", &format!("q:e.xml={}", e.display())])
        .args(["--strategy", "ship", "--fault-seed", "7", "--fault-rate", "0.3"])
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the fixture must fail: {stderr}");
    assert!(stderr.contains("xrpc:cancelled"), "{stderr}");
    let json =
        std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("no trace: {e}: {stderr}"));
    assert!(json.contains(r#""name": "query""#), "{json}");
    assert!(json.contains(r#""error": "call to peer q cancelled"#), "{json}");
    assert!(json.contains(r#""name": "doc.fetch""#), "{json}");
}
