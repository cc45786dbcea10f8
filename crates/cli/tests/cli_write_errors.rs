//! Output that cannot be written is an error exit, never a silent
//! success or a panic: `pnut` exits 1 with a `pnut: error:` line when
//! its stdout or its `--metrics-json` file runs out of space. Both
//! tests write to `/dev/full` and are skipped where it does not exist.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Output};

const FULL: &str = "/dev/full";
const MODEL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/sequential.pn");

fn pnut(args: &[&str], stdout: Option<File>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pnut"));
    cmd.args(args);
    if let Some(file) = stdout {
        cmd.stdout(file);
    }
    cmd.output().expect("pnut binary runs")
}

#[test]
fn a_full_metrics_file_is_an_error_exit() {
    if !Path::new(FULL).exists() {
        eprintln!("skipped: no {FULL}");
        return;
    }
    let out = pnut(&["reach", MODEL, "--metrics-json", FULL], None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("pnut: error: reach: --metrics-json: "),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no partial report");
}

#[test]
fn a_full_stdout_is_an_error_exit_not_a_panic() {
    if !Path::new(FULL).exists() {
        eprintln!("skipped: no {FULL}");
        return;
    }
    let full = File::options().write(true).open(FULL).expect("opens");
    let out = pnut(&["reach", MODEL], Some(full));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("pnut: error: cannot write stdout: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
