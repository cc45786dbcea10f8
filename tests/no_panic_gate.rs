//! Static gate for the fallible paged read path: the post-build
//! analysis code in `graph.rs`, `ctl.rs`, `markov.rs` and `check.rs`
//! must never reintroduce a panicking accessor — a spill fault degrades
//! the one analysis that hit it, never the process (see
//! docs/CONCURRENCY.md).
//!
//! The gate reads the sources (tier-1, no extra tooling): `panic!` is
//! banned outright outside `#[cfg(test)]`, and every `.expect(` /
//! `.unwrap(` must carry a message on the explicit allowlist below —
//! all of which sit on the *build* path (the exploration worker pool),
//! where an internal-invariant panic is still the right call. Adding a
//! new expect to these files means consciously adding its message
//! here, with a reason it cannot be on the paged read path; deleting
//! one deletes its entry. The deleted `Self::paged` helper must stay
//! deleted.

use std::path::Path;

/// Everything before the test module — the gate covers shipped code
/// only.
fn non_test_source(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| {
        panic!("gate must be able to read {path}: {e}");
    });
    match src.find("#[cfg(test)]") {
        Some(idx) => src[..idx].to_owned(),
        None => src,
    }
}

/// Build-path invariants allowed to stay panicking, by expect message.
/// Every entry must be justified: none of these can execute during a
/// post-build segment sweep.
const ALLOWED_EXPECTS: &[(&str, &str)] = &[
    // Exploration worker pool: joins exist only while the graph is
    // under construction (`&mut` exploration).
    ("worker thread panicked", "build"),
];

const GATED_FILES: &[&str] = &[
    "crates/reach/src/graph.rs",
    "crates/reach/src/ctl.rs",
    "crates/analytic/src/markov.rs",
    "crates/analysis/src/check.rs",
];

#[test]
fn paged_read_path_has_no_panics() {
    for path in GATED_FILES {
        let src = non_test_source(path);
        for (lineno, line) in src.lines().enumerate() {
            let lineno = lineno + 1;
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            assert!(
                !code.contains("panic!"),
                "{path}:{lineno}: `panic!` on the paged read/analysis path:\n  {code}\n\
                 return `Err(ReachError::Spill(..))` (or the analysis' error type) instead"
            );
            for needle in [".expect(", ".unwrap("] {
                let mut rest = code;
                while let Some(pos) = rest.find(needle) {
                    // The formula cursor's `expect(&Tok…)` is not
                    // `Option::expect`, which takes a message.
                    let is_parser_helper =
                        needle == ".expect(" && rest[pos + needle.len()..].starts_with("&Tok::");
                    let allowed = ALLOWED_EXPECTS
                        .iter()
                        .any(|(msg, _)| code.contains(&format!("\"{msg}\"")));
                    assert!(
                        is_parser_helper || allowed,
                        "{path}:{lineno}: unlisted `{needle}` in gated file:\n  {code}\n\
                         if this is genuinely unreachable from a segment sweep, add its \
                         message to ALLOWED_EXPECTS with a justification; otherwise \
                         thread a Result"
                    );
                    rest = &rest[pos + needle.len()..];
                }
            }
        }
    }
}

/// The panicking fault helper is gone for good: the fallible
/// accessors, and the `SegmentGuard` rows that `ReachabilityGraph::sweep`
/// hands out, are the only way to touch paged rows.
#[test]
fn the_infallible_paged_helper_stays_deleted() {
    for path in ["crates/reach/src/graph.rs", "crates/reach/src/store.rs"] {
        let src = non_test_source(path);
        assert!(
            !src.contains("fn paged"),
            "{path}: the `paged` panic helper was deliberately deleted; \
             do not resurrect it — use the Result-returning accessors"
        );
    }
}

/// Multi-line expect calls (message on the next line) would dodge the
/// line-based scan above; hold the whole gated surface to a fixed
/// count so any new expect/unwrap shows up in review.
#[test]
fn expect_count_is_pinned() {
    let mut total = 0usize;
    for path in GATED_FILES {
        let src = non_test_source(path);
        total += src.matches(".expect(").count() + src.matches(".unwrap(").count();
    }
    // 1 build-path expect in graph.rs, 2 formula-cursor `expect`
    // calls in ctl.rs, 1 doc example in markov.rs, none in check.rs.
    assert_eq!(
        total, 4,
        "the gated files' `.expect(`/`.unwrap(` count changed (now {total}); \
         a new one must stay off the paged read path — thread a Result or \
         justify it in tests/no_panic_gate.rs — and a removed one lowers \
         this pin"
    );
}

/// Every allowlisted message still names a live expect, so entries for
/// deleted expects cannot linger and silently re-admit a new one.
#[test]
fn allowlist_has_no_stale_entries() {
    let sources: Vec<String> = GATED_FILES.iter().map(|p| non_test_source(p)).collect();
    for (msg, why) in ALLOWED_EXPECTS {
        let quoted = format!("\"{msg}\"");
        assert!(
            sources.iter().any(|src| src.contains(&quoted)),
            "ALLOWED_EXPECTS entry {quoted} ({why}) matches no expect in the gated \
             files; delete it"
        );
    }
}
