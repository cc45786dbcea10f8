//! The operations: each is what one `pnut` verb does, from the model's
//! `.pn` text to the verb's stdout, calling the same public functions in
//! the same order as the matching `cmd_*` of `pnut_cli`. Every public
//! call is wrapped in a [`Spans`] span.

use crate::spans::{Layer, Spans};
use pnut_analytic::markov::{steady_state, MarkovOptions, SteadyState};
use pnut_core::{Net, Time};
use pnut_reach::ctl::{self, Formula};
use pnut_reach::graph::{build_timed, build_untimed, ReachOptions};
use pnut_stat::{StatCollector, StatReport};
use pnut_trace::RecordedTrace;
use pnut_tracer::{measure, Query};
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;

/// A model as the user holds it: `.pn` text plus the path a `pnut`
/// command line would name it by.
#[derive(Debug)]
pub struct Model {
    pub label: String,
    pub text: String,
}

impl Model {
    pub fn new(label: impl Into<String>, text: String) -> Rc<Model> {
        Rc::new(Model {
            label: label.into(),
            text,
        })
    }
}

/// The query `pnut query` checks on every `simulate` trace.
const QUERY: &str = "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]";
/// `pnut measure --pulses PULSES --intervals INTERVALS`.
const PULSES: &str = "Bus_busy";
const INTERVALS: &str = "Issue";

#[derive(Debug, Clone)]
pub enum Op {
    /// `pnut lint MODEL`.
    Lint(Rc<Model>),
    /// `pnut reach MODEL [--timed] [--ctl F] [--check-invariants]`.
    Reach {
        model: Rc<Model>,
        timed: bool,
        ctl: Option<&'static str>,
        check_invariants: bool,
        options: ReachOptions,
    },
    /// `pnut markov MODEL`.
    Markov(Rc<Model>),
    /// `pnut sim MODEL --until U --seed S -o OUT`, into trace slot `slot`.
    Sim {
        model: Rc<Model>,
        seed: u64,
        until: u64,
        slot: usize,
        out: String,
    },
    /// `pnut stat TRACE`.
    Stat { slot: usize },
    /// `pnut query TRACE QUERY`.
    Query { slot: usize },
    /// `pnut measure TRACE --pulses Bus_busy --intervals Issue`.
    Measure { slot: usize },
    /// The Figure-5 run: simulate streamed straight into the statistics
    /// collector (`pnut sim | pnut stat` without the trace file).
    Fig5 {
        model: Rc<Model>,
        seed: u64,
        until: u64,
    },
}

/// What an operation returned: the verb's stdout and exit code, plus the
/// verdict in typed form for the oracles.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub stdout: String,
    pub code: i32,
    pub facts: Facts,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Facts {
    Lint { errors: usize },
    Reach(ReachFacts),
    Markov(SteadyState),
    Trace { deltas: usize },
    Stat(StatReport),
    Query { holds: bool },
    Text,
}

/// The verdict of one `reach` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachFacts {
    pub states: usize,
    pub edges: usize,
    pub deadlocks: Vec<usize>,
    pub bounds: Vec<u32>,
    /// Per-state satisfaction of the `--ctl` formula.
    pub satisfying: Option<Vec<bool>>,
    pub holds: Option<bool>,
    /// `(invariants, states checked, states skipped)`.
    pub invariants: Option<(usize, u64, u64)>,
}

/// Mutable state the operations share: the spans, and the trace files
/// the `sim` operations write and the trace tools read.
pub struct Ctx {
    pub spans: Spans,
    pub traces: Vec<Vec<u8>>,
}

impl Op {
    /// Short name of the operation kind, for the latency table.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Lint(_) => "lint",
            Op::Reach {
                ctl: Some(_),
                timed: true,
                ..
            } => "reach_timed_ctl",
            Op::Reach { ctl: Some(_), .. } => "reach_ctl",
            Op::Reach {
                check_invariants: true,
                ..
            } => "reach_invariants",
            Op::Reach { .. } => "reach",
            Op::Markov(_) => "markov",
            Op::Sim { .. } => "sim",
            Op::Stat { .. } => "stat",
            Op::Query { .. } => "query",
            Op::Measure { .. } => "measure",
            Op::Fig5 { .. } => "fig5",
        }
    }

    pub fn run(&self, ctx: &mut Ctx) -> Result<Outcome, String> {
        let out = self.dispatch(ctx);
        ctx.spans.end_op();
        out
    }

    fn dispatch(&self, ctx: &mut Ctx) -> Result<Outcome, String> {
        match self {
            Op::Lint(model) => lint(&mut ctx.spans, model),
            Op::Reach {
                model,
                timed,
                ctl,
                check_invariants,
                options,
            } => reach(
                &mut ctx.spans,
                model,
                *timed,
                *ctl,
                *check_invariants,
                options,
            ),
            Op::Markov(model) => markov(&mut ctx.spans, model),
            Op::Sim {
                model,
                seed,
                until,
                slot,
                out,
            } => sim(ctx, model, *seed, *until, *slot, out),
            Op::Stat { slot } => {
                let (spans, trace) = read_trace(ctx, *slot)?;
                let report = spans.time(Layer::Stat, || pnut_stat::analyze(&trace));
                Ok(Outcome {
                    stdout: report.to_string(),
                    code: 0,
                    facts: Facts::Stat(report),
                })
            }
            Op::Query { slot } => {
                let (spans, trace) = read_trace(ctx, *slot)?;
                query(spans, &trace)
            }
            Op::Measure { slot } => {
                let (spans, trace) = read_trace(ctx, *slot)?;
                measure_trace(spans, &trace)
            }
            Op::Fig5 { model, seed, until } => fig5(&mut ctx.spans, model, *seed, *until),
        }
    }

    /// This operation as a `pnut` command line, with every file it names
    /// written under `dir`, and the operation relabelled to name the same
    /// files (so its stdout can be compared byte for byte). `Fig5` has no
    /// single verb and returns `None`.
    pub fn cli_twin(&self, dir: &Path, ctx: &Ctx) -> Result<Option<(Vec<String>, Op)>, String> {
        let write = |name: &str, bytes: &[u8]| -> Result<String, String> {
            let path = dir.join(name);
            std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(path.to_string_lossy().into_owned())
        };
        let relabel = |m: &Rc<Model>| -> Result<Rc<Model>, String> {
            let name = format!("{}.pn", m.label.replace(['/', '.'], "_"));
            Ok(Model::new(write(&name, m.text.as_bytes())?, m.text.clone()))
        };
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Ok(Some(match self {
            Op::Lint(m) => {
                let m = relabel(m)?;
                (argv(&["lint", &m.label]), Op::Lint(m))
            }
            Op::Reach {
                model,
                timed,
                ctl,
                check_invariants,
                options,
            } => {
                let m = relabel(model)?;
                let mut a = argv(&["reach", &m.label]);
                if *timed {
                    a.push("--timed".into());
                }
                if let Some(f) = ctl {
                    a.extend(argv(&["--ctl", f]));
                }
                if *check_invariants {
                    a.push("--check-invariants".into());
                }
                a.extend(argv(&["--max-states", &options.max_states.to_string()]));
                a.extend(argv(&["--jobs", &options.jobs.to_string()]));
                if options.mem_budget != usize::MAX {
                    a.extend(argv(&["--mem-budget", &options.mem_budget.to_string()]));
                }
                if let Some(d) = &options.spill_dir {
                    a.extend(argv(&["--spill-dir", &d.to_string_lossy()]));
                }
                let op = Op::Reach {
                    model: m,
                    timed: *timed,
                    ctl: *ctl,
                    check_invariants: *check_invariants,
                    options: options.clone(),
                };
                (a, op)
            }
            Op::Markov(m) => {
                let m = relabel(m)?;
                (argv(&["markov", &m.label]), Op::Markov(m))
            }
            Op::Sim {
                model,
                seed,
                until,
                slot,
                ..
            } => {
                let m = relabel(model)?;
                let out = dir.join("cli_sim.json").to_string_lossy().into_owned();
                let a = argv(&[
                    "sim",
                    &m.label,
                    "--until",
                    &until.to_string(),
                    "--seed",
                    &seed.to_string(),
                    "-o",
                    &out,
                ]);
                let op = Op::Sim {
                    model: m,
                    seed: *seed,
                    until: *until,
                    slot: *slot,
                    out,
                };
                (a, op)
            }
            Op::Stat { slot } | Op::Query { slot } | Op::Measure { slot } => {
                let path = write(&format!("trace_{slot}.json"), &ctx.traces[*slot])?;
                let a = match self {
                    Op::Stat { .. } => argv(&["stat", &path]),
                    Op::Query { .. } => argv(&["query", &path, QUERY]),
                    _ => argv(&[
                        "measure",
                        &path,
                        "--pulses",
                        PULSES,
                        "--intervals",
                        INTERVALS,
                    ]),
                };
                (a, self.clone())
            }
            Op::Fig5 { .. } => return Ok(None),
        }))
    }
}

fn parse(spans: &mut Spans, model: &Model) -> Result<Net, String> {
    spans
        .time(Layer::Parse, || pnut_lang::parse(&model.text))
        .map_err(|e| format!("{}: {e}", model.label))
}

/// `cmd_lint` for one model.
fn lint(spans: &mut Spans, model: &Model) -> Result<Outcome, String> {
    let net = parse(spans, model)?;
    let report = spans.time(Layer::Lint, || pnut_analysis::lint(&net));
    let errors = report.errors();
    Ok(Outcome {
        stdout: report.render_text(&model.label),
        code: if errors > 0 { 2 } else { 0 },
        facts: Facts::Lint { errors },
    })
}

/// `cmd_reach`.
fn reach(
    spans: &mut Spans,
    model: &Model,
    timed: bool,
    ctl_text: Option<&str>,
    check_invariants: bool,
    options: &ReachOptions,
) -> Result<Outcome, String> {
    let net = parse(spans, model)?;
    let mut graph = spans
        .time(Layer::Build, || {
            if timed {
                build_timed(&net, options)
            } else {
                build_untimed(&net, options)
            }
        })
        .map_err(|e| format!("reach: {e}"))?;
    spans.states_built += graph.state_count() as u64;

    let deadlocks = spans
        .time(Layer::Analysis, || graph.deadlocks())
        .map_err(|e| format!("reach: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} states, {} edges, {} deadlock(s)",
        graph.state_count(),
        graph.edge_count(),
        deadlocks.len()
    );
    let _ = writeln!(
        out,
        "interned store: {} distinct environment(s), ~{} KiB",
        graph.store().env_count(),
        graph.approx_bytes() / 1024,
    );
    if graph.spilled_bytes() > 0 {
        let _ = writeln!(
            out,
            "paged store: ~{} KiB resident (peak ~{} KiB), ~{} KiB spilled to disk",
            graph.resident_bytes() / 1024,
            graph.peak_resident_bytes() / 1024,
            graph.spilled_bytes() / 1024,
        );
    }
    let bounds = spans
        .time(Layer::Analysis, || graph.place_bounds())
        .map_err(|e| format!("reach: {e}"))?;
    for (pid, p) in net.places() {
        let _ = writeln!(out, "  bound({}) = {}", p.name(), bounds[pid.index()]);
    }
    let mut facts = ReachFacts {
        states: graph.state_count(),
        edges: graph.edge_count(),
        deadlocks,
        bounds,
        satisfying: None,
        holds: None,
        invariants: None,
    };

    if check_invariants {
        let check = spans
            .time(Layer::CheckInvariants, || {
                pnut_analysis::check_invariants(&net, &mut graph)
            })
            .map_err(|e| format!("reach: --check-invariants: {e}"))?;
        if check.invariants == 0 {
            let _ = writeln!(
                out,
                "P-invariant check: no semi-positive P-invariants (vacuously ok)"
            );
        } else {
            let skipped = if check.states_skipped > 0 {
                format!(" ({} mid-firing state(s) skipped)", check.states_skipped)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "P-invariant check: {} state(s) x {} invariant(s) hold{skipped}",
                check.states_checked, check.invariants
            );
        }
        facts.invariants = Some((check.invariants, check.states_checked, check.states_skipped));
    }

    let mut code = 0;
    if let Some(text) = ctl_text {
        let outcome = spans.time(Layer::Ctl, || {
            let formula = Formula::parse(text).map_err(|e| format!("ctl: {e}"))?;
            ctl::check(&mut graph, &net, &formula).map_err(|e| format!("ctl: {e}"))
        })?;
        let _ = writeln!(
            out,
            "CTL `{text}`: {} ({} of {} states satisfy)",
            if outcome.holds_initially {
                "HOLDS"
            } else {
                "FAILS"
            },
            outcome.count(),
            graph.state_count()
        );
        if !outcome.holds_initially {
            code = 2;
        }
        facts.holds = Some(outcome.holds_initially);
        facts.satisfying = Some(outcome.satisfying);
    }
    Ok(Outcome {
        stdout: out,
        code,
        facts: Facts::Reach(facts),
    })
}

/// `cmd_markov`.
fn markov(spans: &mut Spans, model: &Model) -> Result<Outcome, String> {
    let net = parse(spans, model)?;
    let ss = spans
        .time(Layer::Markov, || {
            steady_state(&net, &MarkovOptions::default())
        })
        .map_err(|e| format!("markov: {e}"))?;
    spans.markov_states += ss.state_fraction.len() as u64;
    let mut out = String::new();
    let _ = writeln!(out, "ANALYTIC STEADY STATE (semi-Markov, exact semantics)");
    let _ = writeln!(out, "mean sojourn per jump: {:.4} ticks", ss.mean_sojourn);
    let _ = writeln!(out, "place average tokens:");
    for (pid, p) in net.places() {
        let _ = writeln!(out, "  {:<28} {:.6}", p.name(), ss.avg_tokens(pid));
    }
    let _ = writeln!(out, "transition throughput (firings/tick):");
    for (tid, t) in net.transitions() {
        let _ = writeln!(out, "  {:<28} {:.6}", t.name(), ss.throughput(tid));
    }
    Ok(Outcome {
        stdout: out,
        code: 0,
        facts: Facts::Markov(ss),
    })
}

/// `cmd_sim` with `-o`: the trace file is the context's slot.
fn sim(
    ctx: &mut Ctx,
    model: &Model,
    seed: u64,
    until: u64,
    slot: usize,
    out: &str,
) -> Result<Outcome, String> {
    let spans = &mut ctx.spans;
    let net = parse(spans, model)?;
    let trace = spans
        .time(Layer::Sim, || {
            pnut_sim::simulate(&net, seed, Time::from_ticks(until))
        })
        .map_err(|e| format!("simulation failed: {e}"))?;
    let buf = &mut ctx.traces[slot];
    buf.clear();
    spans
        .time(Layer::TraceWrite, || trace.write_json(&mut *buf))
        .map_err(|e| format!("serialize: {e}"))?;
    spans.trace_bytes_written += buf.len() as u64;
    let deltas = trace.deltas().len();
    Ok(Outcome {
        stdout: format!("wrote {deltas} deltas to {out}\n"),
        code: 0,
        facts: Facts::Trace { deltas },
    })
}

/// The `load_trace` every trace tool starts with.
fn read_trace(ctx: &mut Ctx, slot: usize) -> Result<(&mut Spans, RecordedTrace), String> {
    let bytes = &ctx.traces[slot];
    let spans = &mut ctx.spans;
    let trace = spans
        .time(Layer::TraceRead, || RecordedTrace::read_json(&bytes[..]))
        .map_err(|e| format!("trace {slot}: {e}"))?;
    spans.trace_bytes_read += bytes.len() as u64;
    Ok((spans, trace))
}

/// `cmd_query` after the trace is loaded.
fn query(spans: &mut Spans, trace: &RecordedTrace) -> Result<Outcome, String> {
    let outcome = spans
        .time(Layer::Query, || Query::parse(QUERY)?.check(trace))
        .map_err(|e| format!("query: {e}"))?;
    let verdict = if outcome.holds { "HOLDS" } else { "FAILS" };
    let stdout = match (outcome.holds, outcome.witness) {
        (true, Some(w)) => format!("{verdict} (witness state #{w})\n"),
        (false, Some(w)) => format!("{verdict} (counterexample state #{w})\n"),
        (_, None) => format!("{verdict}\n"),
    };
    Ok(Outcome {
        stdout,
        code: if outcome.holds { 0 } else { 2 },
        facts: Facts::Query {
            holds: outcome.holds,
        },
    })
}

/// `cmd_measure --pulses PULSES --intervals INTERVALS` after the trace
/// is loaded.
pub fn measure_trace(spans: &mut Spans, trace: &RecordedTrace) -> Result<Outcome, String> {
    let (pulses, intervals) = spans.time(Layer::Measure, || {
        (
            measure::place_pulses(trace, PULSES),
            measure::inter_start_intervals(trace, INTERVALS),
        )
    });
    let mut out = String::new();
    let stats = pulses.ok_or_else(|| format!("measure: unknown place `{PULSES}`"))?;
    let _ = writeln!(out, "pulses({PULSES}): {stats}");
    match intervals {
        Some(iv) if iv.is_empty() => {
            let _ = writeln!(out, "intervals({INTERVALS}): fewer than two firings");
        }
        Some(iv) => {
            let mean = iv.iter().sum::<u64>() as f64 / iv.len() as f64;
            let _ = writeln!(
                out,
                "intervals({INTERVALS}): {} samples, mean {mean:.2} ticks",
                iv.len()
            );
            let _ = write!(
                out,
                "{}",
                measure::Histogram::new(&iv, (mean / 4.0).max(1.0) as u64)
            );
        }
        None => return Err(format!("measure: unknown transition `{INTERVALS}`")),
    }
    Ok(Outcome {
        stdout: out,
        code: 0,
        facts: Facts::Text,
    })
}

/// Simulation streamed into the statistics collector, as the Figure-5
/// experiment runs it.
pub fn fig5(spans: &mut Spans, model: &Model, seed: u64, until: u64) -> Result<Outcome, String> {
    let net = parse(spans, model)?;
    let mut collector = StatCollector::new();
    spans
        .time(Layer::Sim, || {
            pnut_sim::Simulator::new(&net, seed)?.run(Time::from_ticks(until), &mut collector)
        })
        .map_err(|e| format!("simulation failed: {e}"))?;
    let report = spans
        .time(Layer::Stat, || collector.into_report())
        .ok_or_else(|| "statistics collector saw no run".to_string())?;
    Ok(Outcome {
        stdout: report.to_string(),
        code: 0,
        facts: Facts::Stat(report),
    })
}
