//! Trace verbs must refuse bad input through the real binary with a
//! clean error exit, never a panic or an abort:
//!
//! * a trace whose place counts leave `0..=u32::MAX` is not a trace:
//!   `stat` and `query` exit nonzero with "not a trace" on stderr
//!   instead of clamping or wrapping the count into a report that exits
//!   0;
//! * a `timeline` window too wide to sample exits 1 with a `timeline:`
//!   error;
//! * a `query` naming an unknown place or an unbound state variable, or
//!   whose arithmetic overflows, exits 1 with a `query:` error and an
//!   empty stdout, even where `and`/`or` or an empty set would skip the
//!   name, and a malformed query fails before the trace is read.

use std::process::Command;

/// Run `pnut ARGS`, returning the exit code and stderr.
fn pnut(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pnut"))
        .args(args)
        .output()
        .expect("pnut binary runs");
    (
        out.status.code().expect("not killed by a signal"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn stat_and_query_reject_negative_place_counts() {
    let dir = std::env::temp_dir().join(format!("pnut-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/three_stage.pn");
    let path = dir.join("t.json");
    let trace = path.to_str().unwrap();
    let (code, stderr) = pnut(&["sim", model, "--until", "20", "--seed", "1", "-o", trace]);
    assert_eq!(code, 0, "{stderr}");
    let query = "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]";
    let verbs = [vec!["stat", trace], vec!["query", trace, query]];
    for args in &verbs {
        let (code, stderr) = pnut(args);
        assert_eq!(code, 0, "{args:?} on the simulated trace: {stderr}");
    }

    // The first `"delta":-1` takes Bus_free's one token at t=0; -9
    // would leave it holding -8.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(r#""delta":-1"#), "unexpected trace layout");
    std::fs::write(&path, text.replacen(r#""delta":-1"#, r#""delta":-9"#, 1)).unwrap();
    for args in &verbs {
        let (code, stderr) = pnut(args);
        assert_ne!(code, 0, "{args:?} accepted a negative count");
        assert!(
            stderr.contains("not a trace") && stderr.contains("Bus_free"),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A window of 10^11 ticks needs 800 GB of samples per probe: `timeline`
/// must refuse it with a typed error and exit 1, not abort on the failed
/// allocation.
#[test]
fn timeline_rejects_a_window_too_wide_to_sample() {
    let dir = std::env::temp_dir().join(format!("pnut-timeline-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/three_stage.pn");
    let path = dir.join("t.json");
    let trace = path.to_str().unwrap();
    let (code, stderr) = pnut(&["sim", model, "--until", "50", "--seed", "1", "-o", trace]);
    assert_eq!(code, 0, "{stderr}");
    let (code, stderr) = pnut(&[
        "timeline",
        trace,
        "--from",
        "0",
        "--to",
        "100000000000",
        "--probe",
        "Bus_busy",
    ]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains("timeline:") && stderr.contains("too wide"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `pnut query TRACE QUERY`, returning the exit code, stdout and
/// stderr.
fn query(trace: &str, text: &str) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pnut"))
        .args(["query", trace, text])
        .output()
        .expect("pnut binary runs");
    (
        out.status.code().expect("not killed by a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn query_errors_exit_1_whatever_evaluation_would_skip() {
    let dir = std::env::temp_dir().join(format!("pnut-query-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/interpreted.pn");
    let path = dir.join("t.json");
    let trace = path.to_str().unwrap();
    let (code, stderr) = pnut(&["sim", model, "--until", "250", "--seed", "13", "-o", trace]);
    assert_eq!(code, 0, "{stderr}");
    for (text, error) in [
        (
            "exists s in {x in S | Bus_busy(x) > 99} [ Nonsense(s) > 0 ]",
            "`Nonsense` is neither a place nor a transition",
        ),
        (
            "forall s in S [ Bus_free(s) >= 0 or Bus_fre(s) > 0 ]",
            "`Bus_fre` is neither a place nor a transition",
        ),
        (
            "forall s in S [ true or Bus_free(zz) >= 0 ]",
            "unbound state variable `zz`",
        ),
        (
            "forall s in S [ 9223372036854775807 + Bus_busy(s) >= 0 ]",
            "arithmetic overflow at state #",
        ),
        (
            "exists s in S [ 0 - 9223372036854775807 - 2 > 0 ]",
            "arithmetic overflow at state #0",
        ),
    ] {
        let (code, stdout, stderr) = query(trace, text);
        assert_eq!(code, 1, "{text}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{text}: partial stdout {stdout}");
        assert!(
            stderr.contains("query: ") && stderr.contains(error),
            "{text}: {stderr}"
        );
    }
    let (code, stdout, stderr) = query(trace, "forall s in S [ Bus_free(s) >= 0 ]");
    assert_eq!((code, stdout.as_str()), (0, "HOLDS\n"), "{stderr}");

    // The query is parsed before the trace file is opened.
    let missing = dir.join("missing.json");
    let (code, _, stderr) = query(missing.to_str().unwrap(), "forall s in [ true ]");
    assert_eq!(code, 1);
    assert!(
        stderr.contains("query: ") && !stderr.contains("cannot open"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
