#![forbid(unsafe_code)]

//! NDJSON lint-report validator: check a `pnut lint --json` stream
//! against the schema in `docs/STATIC_ANALYSIS.md` (the CI leg of the
//! `lint-models` step).
//!
//! ```text
//! lint_check <file.ndjson> [--deny SEVERITY]...
//! ```
//!
//! Checks, in order:
//!
//! 1. the first line is the `{"type":"meta","version":1,"tool":"lint"}`
//!    header;
//! 2. every line parses as exactly one schema record type with its
//!    required fields, and severities are drawn from
//!    `error`/`warn`/`info`;
//! 3. per model, the stream is shaped `model`, findings, bounds,
//!    `summary` — with the bound count matching the model's declared
//!    place count;
//! 4. every `summary` line's `errors`/`warnings`/`infos` counts equal
//!    the finding lines actually seen for that model;
//! 5. no finding has a `--deny`'d severity (exit 1 if one does — this
//!    is how CI holds the checked-in models error-clean).
//!
//! The format is machine-written, so a tolerant hand parser beats
//! dragging in a JSON dependency (fields are read with
//! [`pnut_bench::ndjson`], like `metrics_check`).

use std::process::ExitCode;

use pnut_bench::ndjson::{field_str, field_u64};

/// Findings and bounds seen since the current `model` line.
#[derive(Default)]
struct ModelTally {
    path: String,
    places: u64,
    errors: u64,
    warnings: u64,
    infos: u64,
    bounds: u64,
    summarized: bool,
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("lint_check: {msg}");
    ExitCode::FAILURE
}

#[allow(clippy::too_many_lines)] // one linear pass over the schema
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut deny: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => {
                let Some(s) = args.get(i + 1) else {
                    return fail("--deny needs a severity (error|warn|info)");
                };
                if !["error", "warn", "info"].contains(&s.as_str()) {
                    return fail(&format!("--deny {s}: not a severity"));
                }
                deny.push(s.clone());
                i += 2;
            }
            other => {
                if file.replace(other.to_string()).is_some() {
                    return fail("exactly one <file.ndjson> expected");
                }
                i += 1;
            }
        }
    }
    let Some(path) = file else {
        return fail("usage: lint_check <file.ndjson> [--deny SEVERITY]...");
    };
    let Ok(text) = std::fs::read_to_string(&path) else {
        return fail(&format!("cannot read {path}"));
    };

    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return fail("empty file: expected the meta header");
    };
    if field_str(header, "type") != Some("meta")
        || field_u64(header, "version") != Some(1)
        || field_str(header, "tool") != Some("lint")
    {
        return fail(&format!("bad meta header: {header}"));
    }

    let mut current: Option<ModelTally> = None;
    let mut models = 0u64;
    let mut denied = 0u64;
    for (n, line) in lines {
        let n = n + 1; // 1-based for diagnostics
        let bad = |what: &str| fail(&format!("line {n}: {what}: {line}"));
        if !line.starts_with('{') || !line.ends_with('}') {
            return bad("not a JSON object");
        }
        let Some(ty) = field_str(line, "type") else {
            return bad("missing \"type\"");
        };
        if ty != "meta" && field_str(line, "path").is_none() {
            return bad("missing \"path\"");
        }
        match ty {
            "model" => {
                if let Some(prev) = &current {
                    if !prev.summarized {
                        return bad(&format!("model `{}` has no summary line", prev.path));
                    }
                }
                let (Some(places), Some(_)) =
                    (field_u64(line, "places"), field_u64(line, "transitions"))
                else {
                    return bad("model line needs \"places\" and \"transitions\"");
                };
                if field_str(line, "net").is_none() {
                    return bad("model line needs \"net\"");
                }
                current = Some(ModelTally {
                    path: field_str(line, "path").unwrap_or_default().to_string(),
                    places,
                    ..ModelTally::default()
                });
                models += 1;
            }
            "finding" => {
                let Some(tally) = current.as_mut() else {
                    return bad("finding before any model line");
                };
                if field_str(line, "code").is_none()
                    || field_str(line, "subject").is_none()
                    || field_str(line, "why").is_none()
                {
                    return bad("finding line needs \"code\", \"subject\", \"why\"");
                }
                let severity = field_str(line, "severity");
                match severity {
                    Some("error") => tally.errors += 1,
                    Some("warn") => tally.warnings += 1,
                    Some("info") => tally.infos += 1,
                    _ => return bad("severity must be error|warn|info"),
                }
                if deny.iter().any(|d| Some(d.as_str()) == severity) {
                    eprintln!("lint_check: denied finding: {line}");
                    denied += 1;
                }
            }
            "bound" => {
                let Some(tally) = current.as_mut() else {
                    return bad("bound before any model line");
                };
                if field_str(line, "place").is_none() {
                    return bad("bound line needs \"place\"");
                }
                let known = field_u64(line, "bound").is_some();
                let unknown = line.contains("\"known\":false");
                if known == unknown {
                    return bad("bound line needs \"bound\":N xor \"known\":false");
                }
                tally.bounds += 1;
            }
            "summary" => {
                let Some(tally) = current.as_mut() else {
                    return bad("summary before any model line");
                };
                let counts = (
                    field_u64(line, "errors"),
                    field_u64(line, "warnings"),
                    field_u64(line, "infos"),
                );
                if counts != (Some(tally.errors), Some(tally.warnings), Some(tally.infos)) {
                    return bad(&format!(
                        "summary disagrees with the {} finding line(s) seen",
                        tally.errors + tally.warnings + tally.infos
                    ));
                }
                if tally.bounds != tally.places {
                    return bad(&format!(
                        "{} bound line(s) for {} declared place(s)",
                        tally.bounds, tally.places
                    ));
                }
                tally.summarized = true;
            }
            other => return bad(&format!("unknown record type \"{other}\"")),
        }
    }
    match &current {
        Some(tally) if !tally.summarized => {
            return fail(&format!("model `{}` has no summary line", tally.path));
        }
        Some(_) => {}
        None => return fail("no model records in the stream"),
    }
    if denied > 0 {
        return fail(&format!(
            "{denied} finding(s) with denied severity ({})",
            deny.join(", ")
        ));
    }
    println!("lint_check: ok ({models} model(s), schema v1)");
    ExitCode::SUCCESS
}
