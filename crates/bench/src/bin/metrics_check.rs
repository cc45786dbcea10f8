#![forbid(unsafe_code)]

//! NDJSON metrics validator: check a `--metrics-json` snapshot emitted
//! by the CLI against the `pnut_obs` registry (the CI leg of
//! `docs/OBSERVABILITY.md`).
//!
//! ```text
//! metrics_check <file.ndjson> [--tool NAME] [--require-nonzero NAME]...
//! ```
//!
//! Checks, in order:
//!
//! 1. the first line is the `{"type":"meta","version":1,...}` header
//!    (with the expected tool name when `--tool` is given);
//! 2. every line parses as exactly one schema record type with its
//!    required fields;
//! 3. every counter/gauge/hist name is in the registry, and every
//!    registry metric appears exactly once (snapshots are complete —
//!    consumers may diff two files line-by-line);
//! 4. the catalogue invariants hold: `pager.faults ==
//!    pager.fault_failures + pager.reloads`, `store.probes >=
//!    store.hits`, histogram bucket counts sum to `count`;
//! 5. every `--require-nonzero NAME` metric is > 0 (used to pin that
//!    the 64 KiB golden run really paged).
//!
//! The format is machine-written, so a tolerant hand parser beats
//! dragging in a JSON dependency (fields are read with
//! [`pnut_bench::ndjson`]).

use std::process::ExitCode;

use pnut_bench::ndjson::{field_str, field_u64};
use pnut_obs::metrics::{Metric, REGISTRY};

/// Sum the counts of a `"buckets":[[lo,n],...]` array.
fn bucket_count_sum(line: &str) -> Option<u64> {
    let start = line.find("\"buckets\":[")? + 11;
    let rest = &line[start..];
    if rest.starts_with(']') {
        return Some(0); // zero-count histograms emit "buckets":[]
    }
    // "[1,2],[256,10]]" up to the outer array's close — walk pairs by
    // splitting on "[" and reading the second number of each.
    let body = &rest[..rest.find("]]")? + 1];
    let mut sum = 0u64;
    for pair in body.split('[').filter(|p| !p.trim().is_empty()) {
        let mut nums = pair
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty());
        let _lo: u64 = nums.next()?.parse().ok()?;
        let n: u64 = nums.next()?.parse().ok()?;
        sum += n;
    }
    Some(sum)
}

struct Seen {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    hists: Vec<String>,
    spans: usize,
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("metrics_check: {msg}");
    ExitCode::FAILURE
}

#[allow(clippy::too_many_lines)] // one linear pass over the schema
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut tool = None;
    let mut require_nonzero: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tool" => {
                let Some(t) = args.get(i + 1) else {
                    return fail("--tool needs a name");
                };
                tool = Some(t.clone());
                i += 2;
            }
            "--require-nonzero" => {
                let Some(n) = args.get(i + 1) else {
                    return fail("--require-nonzero needs a metric name");
                };
                require_nonzero.push(n.clone());
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
        return fail(
            "usage: metrics_check <file.ndjson> [--tool NAME] [--require-nonzero NAME]...",
        );
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read `{path}`: {e}")),
    };

    let mut lines = text.lines().enumerate();
    let Some((_, meta)) = lines.next() else {
        return fail(&format!("`{path}` is empty"));
    };
    if field_str(meta, "type") != Some("meta") || field_u64(meta, "version") != Some(1) {
        return fail(&format!("line 1 is not a v1 meta header: {meta}"));
    }
    if let Some(expect) = &tool {
        if field_str(meta, "tool") != Some(expect.as_str()) {
            return fail(&format!("meta tool is not `{expect}`: {meta}"));
        }
    }

    let mut seen = Seen {
        counters: Vec::new(),
        gauges: Vec::new(),
        hists: Vec::new(),
        spans: 0,
    };
    let mut last_span_start = 0u64;
    for (idx, line) in lines {
        let lineno = idx + 1;
        let Some(ty) = field_str(line, "type") else {
            return fail(&format!("line {lineno}: no type field: {line}"));
        };
        match ty {
            "counter" | "gauge" => {
                let (Some(name), Some(value)) = (field_str(line, "name"), field_u64(line, "value"))
                else {
                    return fail(&format!("line {lineno}: {ty} needs name+value: {line}"));
                };
                if ty == "counter" {
                    seen.counters.push((name.to_string(), value));
                } else {
                    seen.gauges.push((name.to_string(), value));
                }
            }
            "hist" => {
                let (Some(name), Some(count), Some(_), Some(_)) = (
                    field_str(line, "name"),
                    field_u64(line, "count"),
                    field_u64(line, "sum"),
                    field_u64(line, "max"),
                ) else {
                    return fail(&format!(
                        "line {lineno}: hist needs name+count+sum+max: {line}"
                    ));
                };
                match bucket_count_sum(line) {
                    Some(s) if s == count => {}
                    Some(s) => {
                        return fail(&format!(
                            "line {lineno}: hist `{name}` buckets sum to {s}, count says {count}"
                        ));
                    }
                    None => return fail(&format!("line {lineno}: hist has no buckets: {line}")),
                }
                seen.hists.push(name.to_string());
            }
            "span" => {
                let (Some(_), Some(start), Some(_)) = (
                    field_str(line, "path"),
                    field_u64(line, "start_ns"),
                    field_u64(line, "dur_ns"),
                ) else {
                    return fail(&format!(
                        "line {lineno}: span needs path+start_ns+dur_ns: {line}"
                    ));
                };
                if start < last_span_start {
                    return fail(&format!("line {lineno}: spans not sorted by start_ns"));
                }
                last_span_start = start;
                seen.spans += 1;
            }
            other => return fail(&format!("line {lineno}: unknown type `{other}`")),
        }
    }

    // Completeness + catalogue membership, both ways, exactly once.
    for metric in REGISTRY {
        let (kind, name, found) = match *metric {
            Metric::Counter(n, _) => (
                "counter",
                n,
                seen.counters.iter().filter(|(s, _)| s == n).count(),
            ),
            Metric::Gauge(n, _) => (
                "gauge",
                n,
                seen.gauges.iter().filter(|(s, _)| s == n).count(),
            ),
            Metric::Histogram(n, _) => ("hist", n, seen.hists.iter().filter(|s| *s == n).count()),
        };
        if found != 1 {
            return fail(&format!(
                "{kind} `{name}` appears {found} times (snapshots emit every registry metric once)"
            ));
        }
    }
    let registry_has = |name: &str| {
        REGISTRY.iter().any(|m| match *m {
            Metric::Counter(n, _) | Metric::Gauge(n, _) | Metric::Histogram(n, _) => n == name,
        })
    };
    for (name, _) in seen.counters.iter().chain(&seen.gauges) {
        if !registry_has(name) {
            return fail(&format!("`{name}` is not in the pnut_obs registry"));
        }
    }

    // Catalogue invariants.
    let counter = |name: &str| {
        seen.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    if counter("pager.faults") != counter("pager.fault_failures") + counter("pager.reloads") {
        return fail("pager.faults != pager.fault_failures + pager.reloads");
    }
    if counter("store.probes") < counter("store.hits") {
        return fail("store.probes < store.hits");
    }

    for name in &require_nonzero {
        let value = seen
            .counters
            .iter()
            .chain(&seen.gauges)
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v);
        match value {
            None => return fail(&format!("--require-nonzero `{name}`: no such metric")),
            Some(0) => return fail(&format!("--require-nonzero `{name}` is zero")),
            Some(_) => {}
        }
    }

    println!(
        "metrics_check: `{path}` ok — {} counters, {} gauges, {} hists, {} spans",
        seen.counters.len(),
        seen.gauges.len(),
        seen.hists.len(),
        seen.spans
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{bucket_count_sum, field_str, field_u64};

    #[test]
    fn extracts_schema_fields() {
        let line = r#"{"type":"counter","name":"pager.faults","value":37}"#;
        assert_eq!(field_str(line, "type"), Some("counter"));
        assert_eq!(field_str(line, "name"), Some("pager.faults"));
        assert_eq!(field_u64(line, "value"), Some(37));
        assert_eq!(field_u64(line, "missing"), None);
    }

    #[test]
    fn sums_hist_buckets() {
        let line =
            r#"{"type":"hist","name":"h","count":12,"sum":99,"max":8,"buckets":[[1,2],[256,10]]}"#;
        assert_eq!(bucket_count_sum(line), Some(12));
        assert_eq!(
            bucket_count_sum(r#"{"buckets":[[0,5]]}"#),
            Some(5),
            "single bucket"
        );
        assert_eq!(
            bucket_count_sum(r#"{"count":0,"buckets":[]}"#),
            Some(0),
            "empty histogram"
        );
    }
}
