//! `reach --ctl` must fail loudly through the real binary, with exit 1,
//! an empty stdout and the command named on stderr, never a verdict:
//!
//! * term arithmetic that leaves `i64` is a `ctl:` error naming the
//!   state, where wrapping arithmetic would print HOLDS or FAILS;
//! * a malformed formula is a `ctl:` error before the model is read;
//! * a single-value flag given twice is a usage error, instead of the
//!   first value winning silently.

use std::process::Command;

const SEQUENTIAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/sequential.pn");

/// Run `pnut ARGS`, returning the exit code, stdout and stderr.
fn pnut(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pnut"))
        .args(args)
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
