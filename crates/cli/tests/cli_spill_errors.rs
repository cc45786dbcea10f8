//! End-to-end CLI acceptance of the fallible paged read path: when a
//! spill reload fails mid-analysis, the `pnut` binary must print
//! `error: …segment N…` on stderr, emit **no partial report** on
//! stdout, exit nonzero — and `--metrics-json` must still write a
//! valid snapshot (the `ObsSession` guard emits on the error path).
//!
//! Injection is armed through the binary's `PNUT_TEST_FAIL_SPILL_READ`
//! test hook (see `src/main.rs`), so each run's countdown is private
//! to its own child process — no cross-test serialization needed. A
//! spill file that cannot be created at all must name the directory it
//! was to be created in.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnut-spill-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An untimed chain whose 64-place marking outgrows a 64 KiB budget
/// (the same shape the reach crate's injection matrix uses).
fn write_wide_chain(dir: &Path) -> String {
    let mut model = String::from("net wide\nplace src = 800\nplace dst = 0\n");
    for p in 0..62 {
        model.push_str(&format!("place w{p} = 1\n"));
    }
    model.push_str("trans step\n  in src\n  out dst\nend\n");
    let path = dir.join("wide.pn");
    std::fs::write(&path, model).unwrap();
    path.to_string_lossy().into_owned()
}

/// A timed, lock-serialized token ring for `markov` with the same
/// wide-marking trick (no deadlock, so a steady state exists).
fn write_wide_ring(dir: &Path) -> String {
    let mut model = String::from("net ring\nplace src = 100\nplace dst = 0\nplace lock = 1\n");
    for p in 0..125 {
        model.push_str(&format!("place w{p} = 1\n"));
    }
    model.push_str(
        "trans step\n  in src\n  in lock\n  out dst\n  out lock\n  firing 2\nend\n\
         trans back\n  in dst\n  in lock\n  out src\n  out lock\n  firing 1\nend\n",
    );
    let path = dir.join("ring.pn");
    std::fs::write(&path, model).unwrap();
    path.to_string_lossy().into_owned()
}

struct RunResult {
    code: i32,
    stdout: String,
    stderr: String,
}

fn run(args: &[&str], fail_read: Option<u64>) -> RunResult {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pnut"));
    cmd.args(args);
    match fail_read {
        Some(n) => cmd.env("PNUT_TEST_FAIL_SPILL_READ", n.to_string()),
        None => cmd.env_remove("PNUT_TEST_FAIL_SPILL_READ"),
    };
    let out = cmd.output().expect("pnut binary runs");
    RunResult {
        code: out.status.code().expect("not killed by a signal"),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Pull `{"type":"counter","name":"<name>","value":N}` out of an
/// NDJSON metrics file.
fn counter(metrics: &str, name: &str) -> u64 {
    let needle = format!(r#""name":"{name}","value":"#);
    for line in metrics.lines() {
        if let Some(pos) = line.find(&needle) {
            let rest = &line[pos + needle.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            return digits.parse().expect("counter value parses");
        }
    }
    panic!("counter {name} not found in metrics:\n{metrics}");
}

/// The error contract, shared by both subcommand tests.
fn assert_spill_failure(r: &RunResult, metrics_path: &Path, what: &str) {
    assert_eq!(r.code, 1, "{what}: spill failures are errors: {}", r.stderr);
    assert!(
        r.stdout.is_empty(),
        "{what}: no partial report on stdout, got:\n{}",
        r.stdout
    );
    assert!(
        r.stderr.contains("error") && r.stderr.contains("segment"),
        "{what}: stderr must name the failed segment, got:\n{}",
        r.stderr
    );
    // The ObsSession guard still emitted a valid snapshot on the error
    // path, and the failed reload is visible in it.
    let metrics = std::fs::read_to_string(metrics_path)
        .unwrap_or_else(|e| panic!("{what}: metrics written despite the error: {e}"));
    assert!(
        metrics.lines().count() > 1
            && metrics
                .lines()
                .all(|l| l.starts_with('{') && l.ends_with('}')),
        "{what}: metrics snapshot must stay valid NDJSON:\n{metrics}"
    );
    assert!(
        counter(&metrics, "pager.fault_failures") >= 1,
        "{what}: the failed reload must be on the record"
    );
}

#[test]
fn reach_ctl_reload_failure_is_a_clean_error() {
    let dir = tmpdir("ctl");
    let model = write_wide_chain(&dir);
    let metrics = dir.join("m.json");
    let metrics_str = metrics.to_string_lossy().into_owned();
    let args = [
        "reach",
        model.as_str(),
        "--ctl",
        "EG (src + dst = 800)",
        "--mem-budget",
        "64KiB",
        "--metrics-json",
        metrics_str.as_str(),
    ];

    // Clean metering run: learn the total fault count, so the injected
    // run fails the *last* reload — deep inside the CTL fixpoint, the
    // final analysis the `reach` subcommand runs.
    let clean = run(&args, None);
    assert_eq!(clean.code, 0, "clean run passes: {}", clean.stderr);
    assert!(
        clean.stdout.contains("CTL"),
        "full report: {}",
        clean.stdout
    );
    let faults = counter(&std::fs::read_to_string(&metrics).unwrap(), "pager.faults");
    assert!(faults > 0, "a 64 KiB budget must page");

    let injected = run(&args, Some(faults));
    assert_spill_failure(&injected, &metrics, "reach --ctl");

    // Same invocation, fault cleared: bit-identical to the clean run.
    let retry = run(&args, None);
    assert_eq!((retry.code, retry.stdout), (0, clean.stdout), "retry");
}

#[test]
fn markov_reload_failure_is_a_clean_error() {
    let dir = tmpdir("markov");
    let model = write_wide_ring(&dir);
    let metrics = dir.join("m.json");
    let metrics_str = metrics.to_string_lossy().into_owned();
    let args = [
        "markov",
        model.as_str(),
        "--mem-budget",
        "64KiB",
        "--metrics-json",
        metrics_str.as_str(),
    ];

    let clean = run(&args, None);
    assert_eq!(clean.code, 0, "clean run passes: {}", clean.stderr);
    let faults = counter(&std::fs::read_to_string(&metrics).unwrap(), "pager.faults");
    assert!(faults > 0, "a 64 KiB budget must page");

    // Fail the last reload: the place-average sweep of the analysis.
    let injected = run(&args, Some(faults));
    assert_spill_failure(&injected, &metrics, "markov");

    let retry = run(&args, None);
    assert_eq!((retry.code, retry.stdout), (0, clean.stdout), "retry");
}

#[test]
fn an_uncreatable_spill_file_names_its_directory() {
    let dir = tmpdir("create");
    let model = write_wide_chain(&dir);
    let missing = dir.join("no-such-dir");
    let missing_str = missing.to_string_lossy().into_owned();
    let r = run(
        &[
            "reach",
            model.as_str(),
            "--mem-budget",
            "64KiB",
            "--spill-dir",
            missing_str.as_str(),
        ],
        None,
    );
    assert_eq!(
        r.code, 1,
        "a spill create failure is an error: {}",
        r.stderr
    );
    assert!(r.stdout.is_empty(), "no partial report, got:\n{}", r.stdout);
    assert!(
        r.stderr.contains("create") && r.stderr.contains(missing_str.as_str()),
        "stderr must name the spill directory {missing_str}, got:\n{}",
        r.stderr
    );
}
