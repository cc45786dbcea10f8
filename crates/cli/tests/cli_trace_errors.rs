//! Trace verbs must refuse bad input through the real binary with a
//! clean error exit, never a panic or an abort:
//!
//! * a trace whose place counts leave `0..=u32::MAX` is not a trace:
//!   `stat` and `query` exit nonzero with "not a trace" on stderr
//!   instead of clamping or wrapping the count into a report that exits
//!   0;
//! * a `timeline` window too wide to sample exits 1 with a `timeline:`
//!   error.

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
