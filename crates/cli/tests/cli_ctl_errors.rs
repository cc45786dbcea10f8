//! `reach --ctl` must fail loudly through the real binary, with exit 1,
//! an empty stdout and the command named on stderr, never a verdict:
//!
//! * term arithmetic that leaves `i64` is a `ctl:` error naming the
//!   state, where wrapping arithmetic would print HOLDS or FAILS;
//! * a malformed formula is a `ctl:` error before the model is read;
//! * a single-value flag given twice is a usage error, instead of the
//!   first value winning silently;
//! * a flag never takes a token another flag consumed, or another
//!   `--flag`, as its value;
//! * a command rejected for its arguments or its formula prints no
//!   `--stats` summary and writes no `--metrics-json` file.

use std::path::Path;
use std::process::Command;

const SEQUENTIAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/sequential.pn");

/// Run `pnut ARGS`, returning the exit code, stdout and stderr.
fn pnut(args: &[&str]) -> (i32, String, String) {
    pnut_in(Path::new("."), args)
}

/// Run `pnut ARGS` in directory `dir`.
fn pnut_in(dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pnut"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("pnut binary runs");
    (
        out.status.code().expect("not killed by a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_error(args: &[&str], stderr_has: &str) {
    let (code, stdout, stderr) = pnut(args);
    assert_eq!(code, 1, "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    assert!(stderr.contains(stderr_has), "{args:?}: {stderr}");
}

#[test]
fn ctl_arithmetic_overflow_is_an_error() {
    for formula in [
        "AG (9223372036854775807 + 1 > 0)",
        "EF (0 - 9223372036854775807 - 2 > 0)",
    ] {
        assert_error(
            &["reach", SEQUENTIAL, "--ctl", formula],
            "ctl: arithmetic overflow at state #0",
        );
    }
}

#[test]
fn a_malformed_formula_fails_before_the_model_is_read() {
    assert_error(
        &["reach", "/nonexistent.pn", "--ctl", "AG ("],
        "ctl: expected a term at byte 4",
    );
}

#[test]
fn a_single_value_flag_given_twice_is_a_usage_error() {
    assert_error(
        &[
            "reach",
            SEQUENTIAL,
            "--ctl",
            "AG (CPU + ifetching <= 1)",
            "--ctl",
            "AG (CPU = 7)",
        ],
        "reach: --ctl may be given only once",
    );
    assert_error(
        &["sim", SEQUENTIAL, "--until", "5", "--until", "100"],
        "sim: --until may be given only once",
    );
}

#[test]
fn a_flag_never_takes_another_flag_as_its_value() {
    let dir = std::env::temp_dir().join(format!("pnut-flag-value-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // `--until 5` is parsed before `-o`, so the token after `-o` is
    // already consumed; `--stats` is a flag of its own.
    for args in [
        &["sim", SEQUENTIAL, "-o", "--until", "5"][..],
        &["sim", SEQUENTIAL, "-o", "--stats"],
    ] {
        let (code, stdout, stderr) = pnut_in(&dir, args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        assert!(
            stderr.contains("unexpected argument `-o`"),
            "{args:?}: {stderr}"
        );
    }
    for name in ["--until", "--stats"] {
        assert!(!dir.join(name).exists(), "a trace file named `{name}`");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn a_rejected_command_emits_no_telemetry() {
    let dir = std::env::temp_dir().join(format!("pnut-rejected-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // An unknown argument and a malformed formula are both rejected
    // before the model is read; the recorder must not have started.
    for (args, error) in [
        (
            &["sim", SEQUENTIAL, "--bogus"][..],
            "unexpected argument `--bogus`",
        ),
        (&["reach", SEQUENTIAL, "--ctl", "AG ("], "ctl: "),
    ] {
        let args = [args, &["--stats", "--metrics-json", "m.ndjson"]].concat();
        let (code, stdout, stderr) = pnut_in(&dir, &args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(!stderr.contains("pnut stats:"), "{args:?}: {stderr}");
        assert!(
            !dir.join("m.ndjson").exists(),
            "{args:?} wrote a metrics file"
        );
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
