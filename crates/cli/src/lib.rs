#![forbid(unsafe_code)]

//! # pnut-cli — the P-NUT toolset as a command line
//!
//! P-NUT is "a collection of tools" (paper abstract) in the UNIX mold:
//! the simulator emits traces, and specialized tools consume them. This
//! crate packages the reproduction the same way:
//!
//! ```text
//! pnut lint model.pn                  static analysis + invariant bases
//! pnut print model.pn                 parse and pretty-print (canonicalize)
//! pnut sim model.pn --until 10000 --seed 1 -o trace.json
//! pnut stat trace.json                Figure 5 statistics report
//! pnut filter trace.json --place Bus_busy --trans Issue -o small.json
//! pnut query trace.json 'forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]'
//! pnut timeline trace.json --from 100 --to 200 --probe Bus_busy
//! pnut anim trace.json --max-frames 20
//! pnut reach model.pn --ctl 'AG (Bus_free + Bus_busy = 1)'
//! pnut cover model.pn                 Karp–Miller boundedness check
//! pnut cycle model.pn                 analytic cycle time (marked graphs)
//! ```
//!
//! Exit codes: `0` success, `1` usage or processing error, `2` a check
//! or query evaluated to *false* (so shell scripts can branch on model
//! properties, grep-style).

use pnut_core::{Net, Time};
use pnut_obs as obs;
use pnut_trace::RecordedTrace;
use std::fmt::Write as _;
use std::fs;

/// Everything that can go wrong while running a command.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        err(format!("i/o error: {e}"))
    }
}

/// Minimal argument cursor: positionals plus `--flag value` options.
struct Args<'a> {
    items: &'a [String],
    used: Vec<bool>,
}

impl<'a> Args<'a> {
    fn new(items: &'a [String]) -> Self {
        Args {
            items,
            used: vec![false; items.len()],
        }
    }

    /// All values of a repeatable `--name value` option. A value is the
    /// next token if it is unused and not a `--flag`; otherwise the
    /// option stays unused, so [`Self::finish`] reports it.
    fn values(&mut self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        for i in 1..self.items.len() {
            let (flag, v) = (&self.items[i - 1], &self.items[i]);
            if flag == name && !self.used[i - 1] && !self.used[i] && !v.starts_with("--") {
                self.used[i - 1] = true;
                self.used[i] = true;
                out.push(v.clone());
            }
        }
        out
    }

    /// The value of a single-value `--name value` option; `cmd` names
    /// the command in the error when the option is given twice.
    fn value(&mut self, name: &str, cmd: &str) -> Result<Option<String>, CliError> {
        let mut values = self.values(name);
        if values.len() > 1 {
            return Err(err(format!("{cmd}: {name} may be given only once")));
        }
        Ok(values.pop())
    }

    fn flag(&mut self, name: &str) -> bool {
        for (i, item) in self.items.iter().enumerate() {
            if !self.used[i] && item == name {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// An optional-value flag in the single-token `--name[=V]` form
    /// (used by `--progress[=N]`, whose value must not be mistaken for
    /// a positional). `None` = absent, `Some(None)` = bare flag,
    /// `Some(Some(v))` = `--name=v`.
    fn flag_opt_value(&mut self, name: &str) -> Option<Option<String>> {
        for (i, item) in self.items.iter().enumerate() {
            if self.used[i] {
                continue;
            }
            if item == name {
                self.used[i] = true;
                return Some(None);
            }
            if let Some(v) = item.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
                self.used[i] = true;
                return Some(Some(v.to_string()));
            }
        }
        None
    }

    /// Next unused positional argument.
    fn positional(&mut self) -> Option<String> {
        for (i, item) in self.items.iter().enumerate() {
            if !self.used[i] && !item.starts_with("--") {
                self.used[i] = true;
                return Some(item.clone());
            }
        }
        None
    }

    fn finish(self) -> Result<(), CliError> {
        for (i, item) in self.items.iter().enumerate() {
            if !self.used[i] {
                return Err(err(format!("unexpected argument `{item}`")));
            }
        }
        Ok(())
    }
}

/// Parse an optional `--name N` integer-like option, with a proper
/// usage error (instead of a panic or silent default) on garbage.
fn parse_opt<T: std::str::FromStr>(
    args: &mut Args<'_>,
    name: &str,
    cmd: &str,
) -> Result<Option<T>, CliError> {
    args.value(name, cmd)?
        .map(|v| {
            v.parse()
                .map_err(|_| err(format!("{cmd}: {name} must be a non-negative integer")))
        })
        .transpose()
}

/// Parse `--max-states N` where present; it must be positive.
fn parse_max_states(args: &mut Args<'_>, cmd: &str) -> Result<Option<usize>, CliError> {
    let max = parse_opt::<usize>(args, "--max-states", cmd)?;
    if max == Some(0) {
        return Err(err(format!("{cmd}: --max-states must be positive")));
    }
    Ok(max)
}

/// Parse a byte-size value like `65536`, `64KiB`, `512MB`, or `2GiB`
/// (binary multipliers throughout; `unlimited` disables the budget).
/// One shared implementation with the `--stats` output formatter, so
/// everything `format_bytes` prints parses back here.
fn parse_byte_size(value: &str) -> Option<usize> {
    obs::bytes::parse_bytes(value).and_then(|n| usize::try_from(n).ok())
}

/// Parse the shared paging options `--mem-budget BYTES` /
/// `--spill-dir DIR`, returning `(mem_budget, spill_dir)` where
/// present. The budget must be positive (use `unlimited`, or omit the
/// flag, to disable paging). Warns when `--spill-dir` is set but the
/// budget stays unlimited: nothing would ever spill, which is almost
/// certainly not what the user meant.
fn parse_pager_flags(
    args: &mut Args<'_>,
    cmd: &str,
) -> Result<(Option<usize>, Option<std::path::PathBuf>), CliError> {
    let budget = args
        .value("--mem-budget", cmd)?
        .map(|v| {
            parse_byte_size(&v).filter(|&b| b > 0).ok_or_else(|| {
                err(format!(
                    "{cmd}: --mem-budget must be a positive byte size (e.g. 64KiB, 512MB, unlimited)"
                ))
            })
        })
        .transpose()?;
    let dir = args
        .value("--spill-dir", cmd)?
        .map(std::path::PathBuf::from);
    if dir.is_some() && budget.is_none_or(|b| b == usize::MAX) {
        eprintln!(
            "{cmd}: warning: --spill-dir has no effect without a finite --mem-budget \
             (the default budget is unlimited, so nothing ever spills)"
        );
    }
    Ok((budget, dir))
}

/// The shared exploration options `--max-states N` / `--jobs N` (`0`
/// means "use all available cores") and [`parse_pager_flags`], applied
/// to [`pnut_reach::ReachOptions`].
fn parse_reach_options(
    args: &mut Args<'_>,
    cmd: &str,
    defaults: pnut_reach::ReachOptions,
) -> Result<pnut_reach::ReachOptions, CliError> {
    let max = parse_max_states(args, cmd)?;
    let jobs = parse_opt::<usize>(args, "--jobs", cmd)?;
    let (budget, spill_dir) = parse_pager_flags(args, cmd)?;
    let mut options = defaults;
    if let Some(max) = max {
        options.max_states = max;
    }
    if let Some(jobs) = jobs {
        options.jobs = jobs;
    }
    if let Some(budget) = budget {
        options.mem_budget = budget;
    }
    if spill_dir.is_some() {
        options.spill_dir = spill_dir;
    }
    Ok(options)
}

/// The shared observability options `--stats` / `--metrics-json PATH` /
/// `--progress[=N]`: if any is present the process-global
/// [`pnut_obs`] recorder is installed for the duration of the command,
/// from [`Self::start`] on. All telemetry goes to stderr or the metrics
/// file — stdout stays byte-identical with and without these flags.
struct ObsSession {
    tool: String,
    stats: bool,
    metrics_json: Option<std::path::PathBuf>,
    /// Heartbeat interval of `--progress`, if given.
    progress: Option<u64>,
    active: bool,
}

impl ObsSession {
    /// Parse the observability flags. `--progress` without a value
    /// heartbeats at every tick.
    fn from_args(args: &mut Args<'_>, cmd: &str) -> Result<Self, CliError> {
        let stats = args.flag("--stats");
        let metrics_json = args
            .value("--metrics-json", cmd)?
            .map(std::path::PathBuf::from);
        let progress =
            args.flag_opt_value("--progress")
                .map(|v| match v {
                    None => Ok(1u64),
                    Some(n) => n.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        err(format!("{cmd}: --progress=N needs a positive integer"))
                    }),
                })
                .transpose()?;
        Ok(ObsSession {
            tool: cmd.to_string(),
            stats,
            metrics_json,
            progress,
            active: false,
        })
    }

    /// Install the recorder if any flag asked for it. Call once the
    /// command line (and any formula) is accepted, so a rejected command
    /// emits no summary and writes no metrics file, and before the model
    /// is read, so the `parse` span lands in the session.
    fn start(&mut self) {
        self.active = self.stats || self.metrics_json.is_some() || self.progress.is_some();
        if self.active {
            obs::install();
            obs::set_progress_every(self.progress.unwrap_or(0));
        }
    }

    /// Stop recording and emit the session's outputs: the human summary
    /// to stderr (`--stats`) and the NDJSON file (`--metrics-json`).
    fn finish(&mut self) -> Result<(), CliError> {
        if !self.active {
            return Ok(());
        }
        self.active = false;
        obs::set_progress_every(0);
        obs::uninstall();
        let tool = &self.tool;
        let snap = obs::snapshot();
        if self.stats {
            let mut buf = Vec::new();
            snap.render_human(&mut buf)
                .map_err(|e| err(format!("{tool}: --stats: {e}")))?;
            eprint!("{}", String::from_utf8_lossy(&buf));
        }
        if let Some(path) = self.metrics_json.take() {
            let file = fs::File::create(&path)
                .map_err(|e| err(format!("{tool}: cannot write `{}`: {e}", path.display())))?;
            // Flush here: `BufWriter`'s drop would discard the error.
            let mut w = std::io::BufWriter::new(file);
            snap.write_ndjson(&mut w, tool)
                .and_then(|()| std::io::Write::flush(&mut w))
                .map_err(|e| err(format!("{tool}: --metrics-json: {e}")))?;
        }
        Ok(())
    }
}

impl Drop for ObsSession {
    // Error paths skip the explicit `finish` call; emit the session's
    // outputs best-effort anyway — a command that failed mid-analysis
    // must still leave a valid `--metrics-json` snapshot (that's where
    // `pager.fault_failures` lives, exactly the counter an operator
    // wants after a spill failure) — and in any case disable the
    // recorder so a failed command can't leave telemetry running for
    // the next `run()` call.
    fn drop(&mut self) {
        if self.active {
            let _ = self.finish();
        }
    }
}

fn load_net(path: &str) -> Result<Net, CliError> {
    let text = fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
    pnut_lang::parse(&text).map_err(|e| err(format!("{path}: {e}")))
}

/// Shared model-load plumbing (`lint`, `reach`): read, parse,
/// and build a model inside the `parse` span, with uniform
/// [`CliError`] reporting. Call after [`ObsSession::start`] so the
/// span lands in the session.
fn load_model(path: &str) -> Result<Net, CliError> {
    let _parse = obs::span("parse");
    load_net(path)
}

fn load_trace(path: &str) -> Result<RecordedTrace, CliError> {
    let file = fs::File::open(path).map_err(|e| err(format!("cannot open `{path}`: {e}")))?;
    RecordedTrace::read_json(std::io::BufReader::new(file)).map_err(|e| err(format!("{path}: {e}")))
}

fn save_trace(trace: &RecordedTrace, path: Option<&str>, out: &mut String) -> Result<(), CliError> {
    match path {
        Some(p) => {
            let file = fs::File::create(p).map_err(|e| err(format!("cannot write `{p}`: {e}")))?;
            trace
                .write_json(std::io::BufWriter::new(file))
                .map_err(|e| err(format!("serialize: {e}")))?;
            let _ = writeln!(out, "wrote {} deltas to {p}", trace.deltas().len());
        }
        None => {
            let mut buf = Vec::new();
            trace
                .write_json(&mut buf)
                .map_err(|e| err(format!("serialize: {e}")))?;
            out.push_str(&String::from_utf8_lossy(&buf));
            out.push('\n');
        }
    }
    Ok(())
}

/// Run one command. `argv` excludes the program name. Output text is
/// appended to `out`; the returned code follows the grep convention
/// (`0` ok, `2` property false).
///
/// # Errors
///
/// Returns [`CliError`] for usage errors, unreadable files, malformed
/// models/traces/queries, and tool failures.
pub fn run(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let Some(command) = argv.first() else {
        out.push_str(USAGE);
        return Ok(1);
    };
    let rest = &argv[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => {
            out.push_str(USAGE);
            Ok(0)
        }
        "lint" => cmd_lint(rest, out),
        "print" => cmd_print(rest, out),
        "dot" => cmd_dot(rest, out),
        "sim" => cmd_sim(rest, out),
        "stat" => cmd_stat(rest, out),
        "filter" => cmd_filter(rest, out),
        "query" => cmd_query(rest, out),
        "timeline" => cmd_timeline(rest, out),
        "anim" => cmd_anim(rest, out),
        "reach" => cmd_reach(rest, out),
        "cover" => cmd_cover(rest, out),
        "cycle" => cmd_cycle(rest, out),
        "markov" => cmd_markov(rest, out),
        "heatmap" => cmd_heatmap(rest, out),
        "measure" => cmd_measure(rest, out),
        other => Err(err(format!("unknown command `{other}`; try `pnut help`"))),
    }
}

const USAGE: &str = "\
pnut — Petri-Net Utility Tools (Razouk 1987/88 reproduction)

usage: pnut <command> [args]

  lint <model.pn>... [--json] [observability]  static analysis: invariant
                     bounds, dead transitions, expression lint, the
                     P-invariant basis and the T-invariant count
                     (docs/STATIC_ANALYSIS.md; exit 2 on error findings)
  print <model.pn>                     parse and pretty-print
  dot <model.pn>                       Graphviz rendering of the net
  sim <model.pn> [--until N] [--seed S] [-o trace.json] [observability]
  stat <trace.json>                    statistics report (Figure 5)
  filter <trace.json> [--place P]... [--trans T]... [--vars] [-o out.json]
  query <trace.json> <query>           forall/exists/inev over trace states
                     (names bind before the trace is read; see below)
  timeline <trace.json> [--from A] [--to B] [--probe NAME]... [--fn L=EXPR]...
  anim <trace.json> [--max-frames N]
  reach <model.pn> [--timed] [--ctl FORMULA] [--max-states N] [--jobs N]
                   [--mem-budget BYTES] [--spill-dir DIR]
                   [--check-invariants] [observability]
  cover <model.pn> [--max-states N]   Karp–Miller boundedness
  cycle <model.pn>                     analytic cycle time (marked graphs)
  markov <model.pn> [--max-states N] [--jobs N]  analytic steady state
                    [--mem-budget BYTES] [--spill-dir DIR] [observability]
  heatmap <trace.json>                 activity heatmap (bottleneck feedback)
  measure <trace.json> [--pulses PLACE] [--intervals TRANS] [--latency FROM,TO]

--timed builds the timed reachability graph: states carry in-flight
firings and enabling clocks. Both delay kinds may be constants or
deterministic expressions — firing delays resolve against the
post-action environment (the paper's table-driven idiom), enabling
delays against the environment at arm time; only irand-based delays
are rejected (determinism). markov analyzes the same timed class.
--max-states raises/lowers the state-space cap (default 100000; 20000
for markov). --jobs N explores the frontier with N worker threads
(0 = all cores, default 1); results are identical at any job count.
--mem-budget caps the resident state AND edge arenas under one shared
budget (e.g. 64KiB, 512MB; default unlimited): cold level segments
spill to a temp file in --spill-dir (default: system temp) and reload
on demand, so state spaces can exceed RAM; results are identical at
any budget. The budget is honored end to end: --ctl model checking,
--check-invariants and markov's chain extraction all sweep the graph
segment-at-a-time, evicting between segments, instead of faulting the
whole store back into memory; the deadlock/bound report reads nothing
back, since the build keeps both as it appends. (markov's *extracted*
dense chain — one entry per edge — still lives outside the budget;
its size is capped by --max-states, not --mem-budget.)

reach --ctl formulas and query bodies share one term syntax: a term
is an integer, a name, a parenthesized term, or terms joined by + - *
(* binds tighter); an atom compares two terms with = (or ==) != < <=
> >=, and a bare term T means T > 0. A name counts the tokens on the
place of that name, else the firings in progress of the transition of
that name; in a query it also names its state, as in Bus_busy(s).
Arithmetic is checked: a value outside 64 bits is an error, not a
verdict. --ctl adds not, and, or, -> (right associative), EX AX EF AF
EG AG and E [ f U g ] / A [ f U g ]; a query adds forall/exists over
S, S - {#n, ...} and {v in S | f}, and inev(v, target, guard).

reach --check-invariants re-sweeps the finished graph segment-at-a-time
and asserts every quiescent state satisfies every semi-positive
P-invariant token sum — a static-vs-dynamic cross-check that doubles
as a semantic integrity check on pager spill reloads (see
docs/STATIC_ANALYSIS.md). A violation is reported as an error (exit 1):
it means an engine bug or corrupted spill data, not a model property.

All expression evaluation (predicates, actions, delay expressions) in
sim, reach, and markov runs on register bytecode compiled once per
net at load time — semantics are bit-identical to the language
reference interpreter, including error cases and randomness draws.

observability (sim, reach, cover, markov — see docs/OBSERVABILITY.md):
  --stats            phase timings + nonzero metrics summary on stderr
  --metrics-json F   full metric snapshot as NDJSON written to file F
  --progress[=N]     deterministic heartbeat lines on stderr every N
                     ticks (levels/events/iterations; default 1)
Telemetry goes to stderr or the metrics file only: stdout is
byte-identical with and without these flags, and recorded metrics
never feed back into exploration.

exit codes: 0 ok · 1 error · 2 checked property is false

error taxonomy — every failure names which of these it is:
  your model   parse errors, unknown names, non-constant delays,
               capacity/state-cap overflows: fix the .pn file (exit 1;
               property-is-false is exit 2, not an error).
  your formula malformed --ctl text (reported before the model is
               read), a name that is neither a place nor a transition
               of the net, or arithmetic overflow at a state (exit 1;
               FAILS is exit 2).
  your flags   bad or conflicting command-line arguments, a
               single-value flag given twice, unwritable output paths
               (exit 1).
  your query   malformed query text, a name that is neither a place
               nor a transition, an unbound state variable, a #n
               beyond the trace, or arithmetic overflow (exit 1, even
               in a term that and/or would skip; FAILS is exit 2).
  your disk    spill I/O failures under --mem-budget: a cold segment
               could not be written or reloaded (message names the
               segment and spill file). The process never aborts —
               the one analysis that hit the fault returns this error,
               stdout stays empty, and --metrics-json still writes a
               valid snapshot (see pager.fault_failures). Retry with
               a healthy --spill-dir or a larger --mem-budget.
";

fn cmd_lint(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let json = args.flag("--json");
    let mut session = ObsSession::from_args(&mut args, "lint")?;
    let mut paths = Vec::new();
    while let Some(p) = args.positional() {
        paths.push(p);
    }
    if paths.is_empty() {
        return Err(err("lint: need at least one model file"));
    }
    args.finish()?;
    session.start();

    let mut errors = 0usize;
    if json {
        out.push_str(pnut_analysis::json_meta_line());
        out.push('\n');
    }
    for (i, path) in paths.iter().enumerate() {
        let net = load_model(path)?;
        // `lint` opens its own `analysis.lint` span.
        let report = pnut_analysis::lint(&net);
        errors += report.errors();
        if json {
            report.render_json(path, out);
        } else {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&report.render_text(path));
        }
    }
    session.finish()?;
    Ok(if errors > 0 { 2 } else { 0 })
}

fn cmd_print(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("print: need a model file"))?;
    args.finish()?;
    let net = load_net(&path)?;
    out.push_str(&pnut_lang::print(&net));
    Ok(0)
}

fn cmd_dot(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("dot: need a model file"))?;
    args.finish()?;
    let net = load_net(&path)?;
    out.push_str(&pnut_lang::to_dot(&net));
    Ok(0)
}

fn cmd_sim(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("sim: need a model file"))?;
    let until = parse_opt::<u64>(&mut args, "--until", "sim")?.unwrap_or(10_000);
    let seed = parse_opt::<u64>(&mut args, "--seed", "sim")?.unwrap_or(1);
    let output = args.value("-o", "sim")?;
    let mut session = ObsSession::from_args(&mut args, "sim")?;
    args.finish()?;
    session.start();

    let net = {
        let _parse = obs::span("parse");
        load_net(&path)?
    };
    let trace = pnut_sim::simulate(&net, seed, Time::from_ticks(until))
        .map_err(|e| err(format!("simulation failed: {e}")))?;
    save_trace(&trace, output.as_deref(), out)?;
    session.finish()?;
    Ok(0)
}

fn cmd_stat(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("stat: need a trace file"))?;
    args.finish()?;
    let trace = load_trace(&path)?;
    let _ = write!(out, "{}", pnut_stat::analyze(&trace));
    Ok(0)
}

fn cmd_filter(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("filter: need a trace file"))?;
    let mut spec = pnut_trace::FilterSpec::new()
        .keep_places(args.values("--place"))
        .keep_transitions(args.values("--trans"));
    if args.flag("--vars") {
        spec = spec.keep_variables();
    }
    let output = args.value("-o", "filter")?;
    args.finish()?;

    let trace = load_trace(&path)?;
    let mut filter = pnut_trace::Filter::new(spec, pnut_trace::Recorder::new());
    trace.replay(&mut filter);
    let filtered = filter.into_inner().into_trace().ok_or_else(|| {
        err(format!(
            "filter: `{path}` replayed incompletely (truncated trace file?)"
        ))
    })?;
    save_trace(&filtered, output.as_deref(), out)?;
    Ok(0)
}

fn cmd_query(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("query: need a trace file"))?;
    let text = args
        .positional()
        .ok_or_else(|| err("query: need a query string"))?;
    args.finish()?;

    let query = pnut_tracer::query::Query::parse(&text).map_err(|e| err(format!("query: {e}")))?;
    let trace = load_trace(&path)?;
    let outcome = query
        .check(&trace)
        .map_err(|e| err(format!("query: {e}")))?;
    match (outcome.holds, outcome.witness) {
        (true, Some(w)) => {
            let _ = writeln!(out, "HOLDS (witness state #{w})");
        }
        (true, None) => {
            let _ = writeln!(out, "HOLDS");
        }
        (false, Some(w)) => {
            let _ = writeln!(out, "FAILS (counterexample state #{w})");
        }
        (false, None) => {
            let _ = writeln!(out, "FAILS");
        }
    }
    Ok(if outcome.holds { 0 } else { 2 })
}

fn cmd_timeline(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("timeline: need a trace file"))?;
    let from = parse_opt::<u64>(&mut args, "--from", "timeline")?.unwrap_or(0);
    let to = parse_opt::<u64>(&mut args, "--to", "timeline")?.unwrap_or(from.saturating_add(100));
    let mut signals: Vec<pnut_tracer::Signal> = args
        .values("--probe")
        .into_iter()
        .map(pnut_tracer::Signal::place)
        .collect();
    for spec in args.values("--fn") {
        let (label, expr) = spec
            .split_once('=')
            .ok_or_else(|| err("timeline: --fn needs LABEL=EXPR"))?;
        signals.push(
            pnut_tracer::Signal::function(label, expr)
                .map_err(|e| err(format!("timeline: bad --fn expression: {e}")))?,
        );
    }
    args.finish()?;
    if signals.is_empty() {
        return Err(err("timeline: need at least one --probe or --fn"));
    }

    let trace = load_trace(&path)?;
    let tl = pnut_tracer::Timeline::sample(
        &trace,
        &signals,
        Time::from_ticks(from),
        Time::from_ticks(to),
    )
    .map_err(|e| err(format!("timeline: {e}")))?;
    let _ = write!(out, "{tl}");
    Ok(0)
}

fn cmd_anim(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("anim: need a trace file"))?;
    let max_frames = parse_opt::<usize>(&mut args, "--max-frames", "anim")?.unwrap_or(usize::MAX);
    args.finish()?;

    let trace = load_trace(&path)?;
    let mut anim = pnut_anim::Animator::new(&trace);
    let _ = write!(out, "{}", anim.initial_frame());
    let mut shown = 0;
    while shown < max_frames {
        match anim.step() {
            Some(f) => {
                let _ = write!(out, "{f}");
                shown += 1;
            }
            None => break,
        }
    }
    Ok(0)
}

fn cmd_reach(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("reach: need a model file"))?;
    let timed = args.flag("--timed");
    let ctl = args.value("--ctl", "reach")?;
    let check_invariants = args.flag("--check-invariants");
    let options = parse_reach_options(&mut args, "reach", pnut_reach::ReachOptions::default())?;
    let mut session = ObsSession::from_args(&mut args, "reach")?;
    args.finish()?;
    // A malformed formula fails before the build.
    let formula = ctl
        .as_deref()
        .map(pnut_reach::ctl::Formula::parse)
        .transpose()
        .map_err(|e| err(format!("ctl: {e}")))?;
    session.start();

    let net = load_model(&path)?;
    let mut graph = if timed {
        pnut_reach::graph::build_timed(&net, &options)
    } else {
        pnut_reach::graph::build_untimed(&net, &options)
    }
    .map_err(|e| err(format!("reach: {e}")))?;

    let deadlocks = graph.deadlocks().map_err(|e| err(format!("reach: {e}")))?;
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
    let bounds = graph
        .place_bounds()
        .map_err(|e| err(format!("reach: {e}")))?;
    for (pid, p) in net.places() {
        let _ = writeln!(out, "  bound({}) = {}", p.name(), bounds[pid.index()]);
    }

    if check_invariants {
        let check = pnut_analysis::check_invariants(&net, &mut graph)
            .map_err(|e| err(format!("reach: --check-invariants: {e}")))?;
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
    }

    let mut code = 0;
    if let (Some(formula_text), Some(formula)) = (ctl, formula) {
        let outcome = pnut_reach::ctl::check(&mut graph, &net, &formula)
            .map_err(|e| err(format!("ctl: {e}")))?;
        let _ = writeln!(
            out,
            "CTL `{formula_text}`: {} ({} of {} states satisfy)",
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
    }
    session.finish()?;
    Ok(code)
}

fn cmd_cover(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("cover: need a model file"))?;
    let mut options = pnut_reach::coverability::CoverOptions::default();
    if let Some(max) = parse_max_states(&mut args, "cover")? {
        options.max_nodes = max;
    }
    let mut session = ObsSession::from_args(&mut args, "cover")?;
    args.finish()?;
    session.start();
    let net = {
        let _parse = obs::span("parse");
        load_net(&path)?
    };
    let tree = pnut_reach::coverability::coverability_tree(&net, &options)
        .map_err(|e| err(format!("cover: {e}")))?;
    let _ = writeln!(
        out,
        "coverability tree: {} nodes; net is {}",
        tree.node_count(),
        if tree.is_unbounded() {
            "UNBOUNDED"
        } else {
            "bounded"
        }
    );
    for (pid, p) in net.places() {
        match tree.place_bound(pid) {
            Some(b) => {
                let _ = writeln!(out, "  bound({}) = {b}", p.name());
            }
            None => {
                let _ = writeln!(out, "  bound({}) = ω", p.name());
            }
        }
    }
    session.finish()?;
    Ok(if tree.is_unbounded() { 2 } else { 0 })
}

fn cmd_cycle(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("cycle: need a model file"))?;
    args.finish()?;
    let net = load_net(&path)?;
    let analysis = pnut_analytic::analyze(&net).map_err(|e| err(format!("cycle: {e}")))?;
    let _ = writeln!(out, "cycle time: {} ticks/firing", analysis.cycle_time);
    let _ = writeln!(out, "throughput: {:.6} firings/tick", analysis.throughput());
    let names: Vec<&str> = analysis
        .critical_cycle
        .iter()
        .map(|&t| net.transition(t).name())
        .collect();
    let _ = writeln!(out, "critical cycle: {}", names.join(" -> "));
    let _ = writeln!(out, "circuits examined: {}", analysis.circuits_examined);
    Ok(0)
}

fn cmd_heatmap(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("heatmap: need a trace file"))?;
    args.finish()?;
    let trace = load_trace(&path)?;
    let _ = write!(out, "{}", pnut_anim::Heatmap::from_trace(&trace));
    Ok(0)
}

fn cmd_measure(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    use pnut_tracer::measure;
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("measure: need a trace file"))?;
    let pulses = args.values("--pulses");
    let intervals = args.values("--intervals");
    let latencies = args.values("--latency");
    args.finish()?;
    if pulses.is_empty() && intervals.is_empty() && latencies.is_empty() {
        return Err(err(
            "measure: need at least one of --pulses / --intervals / --latency",
        ));
    }
    let trace = load_trace(&path)?;
    for place in pulses {
        match measure::place_pulses(&trace, &place) {
            Some(stats) => {
                let _ = writeln!(out, "pulses({place}): {stats}");
            }
            None => return Err(err(format!("measure: unknown place `{place}`"))),
        }
    }
    for trans in intervals {
        match measure::inter_start_intervals(&trace, &trans) {
            Some(iv) if iv.is_empty() => {
                let _ = writeln!(out, "intervals({trans}): fewer than two firings");
            }
            Some(iv) => {
                let mean = iv.iter().sum::<u64>() as f64 / iv.len() as f64;
                let _ = writeln!(
                    out,
                    "intervals({trans}): {} samples, mean {mean:.2} ticks",
                    iv.len()
                );
                let _ = write!(
                    out,
                    "{}",
                    measure::Histogram::new(&iv, (mean / 4.0).max(1.0) as u64)
                );
            }
            None => return Err(err(format!("measure: unknown transition `{trans}`"))),
        }
    }
    for pair in latencies {
        let (from, to) = pair
            .split_once(',')
            .ok_or_else(|| err("measure: --latency needs FROM,TO"))?;
        match measure::latencies(&trace, from, to) {
            Some(lat) if lat.is_empty() => {
                let _ = writeln!(out, "latency({from} -> {to}): no matched pairs");
            }
            Some(lat) => {
                let mean = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
                let _ = writeln!(
                    out,
                    "latency({from} -> {to}): {} pairs, mean {mean:.2} ticks",
                    lat.len()
                );
            }
            None => return Err(err("measure: unknown transition in --latency".to_string())),
        }
    }
    Ok(0)
}

fn cmd_markov(argv: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut args = Args::new(argv);
    let path = args
        .positional()
        .ok_or_else(|| err("markov: need a model file"))?;
    let mut options = pnut_analytic::markov::MarkovOptions::default();
    options.reach = parse_reach_options(&mut args, "markov", options.reach)?;
    let mut session = ObsSession::from_args(&mut args, "markov")?;
    args.finish()?;
    session.start();
    let net = {
        let _parse = obs::span("parse");
        load_net(&path)?
    };
    let ss = pnut_analytic::markov::steady_state(&net, &options)
        .map_err(|e| err(format!("markov: {e}")))?;
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
    session.finish()?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> (i32, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        let code = run(&argv, &mut out).unwrap_or_else(|e| panic!("{e}\n--- output:\n{out}"));
        (code, out)
    }

    fn write_model(dir: &std::path::Path) -> String {
        let model = dir.join("bus.pn");
        fs::write(
            &model,
            "net bus\nplace Bus_free = 1\nplace Bus_busy = 0\n\
             trans seize\n  in Bus_free\n  out Bus_busy\n  enabling 1\nend\n\
             trans release\n  in Bus_busy\n  out Bus_free\n  enabling 2\nend\n",
        )
        .unwrap();
        model.to_string_lossy().into_owned()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pnut-cli-test-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_and_unknown_command() {
        let _g = obs_serial();
        let (code, out) = run_args(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("usage"));
        let mut s = String::new();
        assert!(run(&["bogus".to_string()], &mut s).is_err());
        assert_eq!(run(&[], &mut s).unwrap(), 1);
        // `lint` lists the invariants `check` used to print.
        let e = run(&["check".to_string(), "m.pn".to_string()], &mut s).unwrap_err();
        assert!(e.to_string().contains("unknown command `check`"), "{e}");
    }

    #[test]
    fn lint_lists_the_invariant_bases() {
        let _g = obs_serial();
        let dir = tmpdir("lintinv");
        let model = write_model(&dir);
        let (code, out) = run_args(&["lint", &model]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("P-invariants (1):\n  Bus_free + Bus_busy = 1\nT-invariants (1)\n"),
            "{out}"
        );
        let (_, json) = run_args(&["lint", &model, "--json"]);
        assert!(
            !json.contains("P-invariants"),
            "--json is unchanged: {json}"
        );
    }

    #[test]
    fn sim_stat_query_pipeline() {
        let _g = obs_serial();
        let dir = tmpdir("pipeline");
        let model = write_model(&dir);
        let trace_path = dir.join("t.json").to_string_lossy().into_owned();
        let (code, _) = run_args(&[
            "sim",
            &model,
            "--until",
            "100",
            "--seed",
            "3",
            "-o",
            &trace_path,
        ]);
        assert_eq!(code, 0);

        let (code, out) = run_args(&["stat", &trace_path]);
        assert_eq!(code, 0);
        assert!(out.contains("PLACE STATISTICS"));
        assert!(out.contains("Bus_busy"));

        let (code, out) = run_args(&[
            "query",
            &trace_path,
            "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("HOLDS"));

        let (code, out) = run_args(&["query", &trace_path, "exists s in S [ Bus_free(s) = 2 ]"]);
        assert_eq!(code, 2, "false property exits 2");
        assert!(out.contains("FAILS"));
    }

    #[test]
    fn filter_and_anim_and_timeline() {
        let _g = obs_serial();
        let dir = tmpdir("tools");
        let model = write_model(&dir);
        let trace_path = dir.join("t.json").to_string_lossy().into_owned();
        run_args(&["sim", &model, "--until", "50", "-o", &trace_path]);

        let small = dir.join("small.json").to_string_lossy().into_owned();
        let (code, _) = run_args(&["filter", &trace_path, "--place", "Bus_busy", "-o", &small]);
        assert_eq!(code, 0);
        let full = load_trace(&trace_path).unwrap();
        let filtered = load_trace(&small).unwrap();
        assert!(filtered.deltas().len() < full.deltas().len());

        let (code, out) = run_args(&["anim", &trace_path, "--max-frames", "3"]);
        assert_eq!(code, 0);
        assert!(out.contains("frame 1"));
        assert!(!out.contains("frame 4"));

        let (code, out) = run_args(&[
            "timeline",
            &trace_path,
            "--from",
            "0",
            "--to",
            "20",
            "--probe",
            "Bus_busy",
            "--fn",
            "sum=Bus_busy + Bus_free",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("Bus_busy"));
        assert!(out.contains("sum"));

        // The default `--to` (`--from` + 100) saturates instead of
        // overflowing, which leaves an empty window at the end of time.
        let from = u64::MAX.to_string();
        let argv: Vec<String> = [
            "timeline",
            &trace_path,
            "--from",
            &from,
            "--probe",
            "Bus_busy",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let e = run(&argv, &mut String::new()).unwrap_err();
        assert!(e.to_string().contains("empty timeline window"), "{e}");
    }

    #[test]
    fn reach_with_ctl_and_cover_and_cycle() {
        let _g = obs_serial();
        let dir = tmpdir("verify");
        let model = write_model(&dir);

        let (code, out) = run_args(&["reach", &model, "--ctl", "AG (Bus_free + Bus_busy = 1)"]);
        assert_eq!(code, 0);
        assert!(out.contains("HOLDS"));

        let (code, out) = run_args(&["reach", &model, "--ctl", "AG (Bus_busy = 0)"]);
        assert_eq!(code, 2);
        assert!(out.contains("FAILS"));

        let (code, out) = run_args(&["cover", &model]);
        assert_eq!(code, 0);
        assert!(out.contains("bounded"));

        // cycle needs firing times; write a marked-graph model.
        let ring = dir.join("ring.pn");
        fs::write(
            &ring,
            "net ring\nplace a = 1\nplace b = 0\n\
             trans t0\n  in a\n  out b\n  firing 3\nend\n\
             trans t1\n  in b\n  out a\n  firing 2\nend\n",
        )
        .unwrap();
        let (code, out) = run_args(&["cycle", &ring.to_string_lossy()]);
        assert_eq!(code, 0);
        assert!(out.contains("cycle time: 5"));
        assert!(out.contains("t0"));
    }

    #[test]
    fn markov_subcommand_reports_steady_state() {
        let _g = obs_serial();
        let dir = tmpdir("markov");
        let ring = dir.join("ring.pn");
        fs::write(
            &ring,
            "net ring\nplace a = 1\nplace b = 0\n\
             trans t0\n  in a\n  out b\n  firing 3\nend\n\
             trans t1\n  in b\n  out a\n  firing 1\nend\n",
        )
        .unwrap();
        let (code, out) = run_args(&["markov", &ring.to_string_lossy()]);
        assert_eq!(code, 0);
        assert!(out.contains("0.250000"), "throughput 1/4: {out}");
    }

    #[test]
    fn heatmap_and_measure_subcommands() {
        let _g = obs_serial();
        let dir = tmpdir("hm");
        let model = write_model(&dir);
        let trace_path = dir.join("t.json").to_string_lossy().into_owned();
        run_args(&["sim", &model, "--until", "200", "-o", &trace_path]);

        let (code, out) = run_args(&["heatmap", &trace_path]);
        assert_eq!(code, 0);
        assert!(out.contains("ACTIVITY HEATMAP"));
        assert!(out.contains("Bus_busy"));

        let (code, out) = run_args(&[
            "measure",
            &trace_path,
            "--pulses",
            "Bus_busy",
            "--intervals",
            "seize",
            "--latency",
            "seize,release",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("pulses(Bus_busy)"));
        assert!(out.contains("intervals(seize)"));
        assert!(out.contains("latency(seize -> release)"));

        let mut s = String::new();
        assert!(run(&["measure".to_string(), trace_path], &mut s).is_err());
    }

    #[test]
    fn dot_subcommand_renders_graphviz() {
        let _g = obs_serial();
        let dir = tmpdir("dot");
        let model = write_model(&dir);
        let (code, out) = run_args(&["dot", &model]);
        assert_eq!(code, 0);
        assert!(out.starts_with("digraph"));
        assert!(out.contains("Bus_free"));
    }

    #[test]
    fn print_canonicalizes_roundtrip() {
        let _g = obs_serial();
        let dir = tmpdir("print");
        let model = write_model(&dir);
        let (code, printed) = run_args(&["print", &model]);
        assert_eq!(code, 0);
        let reparsed = pnut_lang::parse(&printed).unwrap();
        assert_eq!(reparsed.name(), "bus");
    }

    #[test]
    fn reach_honors_max_states_and_jobs() {
        let _g = obs_serial();
        let dir = tmpdir("limits");
        let model = write_model(&dir);

        // The bus model has 2 states; capping below that must surface
        // the reach error (previously impossible: the cap was hard-coded).
        let mut out = String::new();
        let e = run(
            &["reach", &model, "--max-states", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            &mut out,
        )
        .unwrap_err();
        assert!(e.to_string().contains("exceeds 1 state"), "{e}");

        // A parallel build returns the same report as the default.
        let (code, seq_out) = run_args(&["reach", &model]);
        assert_eq!(code, 0);
        let (code, par_out) = run_args(&["reach", &model, "--jobs", "4"]);
        assert_eq!(code, 0);
        assert_eq!(seq_out, par_out, "jobs must not change any output");

        // Raising the cap explicitly also works.
        let (code, out) = run_args(&["reach", &model, "--max-states", "500000"]);
        assert_eq!(code, 0);
        assert!(out.contains("2 states"));
    }

    #[test]
    fn cover_and_markov_honor_max_states_and_jobs() {
        let _g = obs_serial();
        let dir = tmpdir("limits2");
        let model = write_model(&dir);
        let (code, out) = run_args(&["cover", &model, "--max-states", "10"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("bounded"));

        let ring = dir.join("ring.pn");
        fs::write(
            &ring,
            "net ring\nplace a = 1\nplace b = 0\n\
             trans t0\n  in a\n  out b\n  firing 3\nend\n\
             trans t1\n  in b\n  out a\n  firing 1\nend\n",
        )
        .unwrap();
        let ring = ring.to_string_lossy().into_owned();
        let (code, seq_out) = run_args(&["markov", &ring]);
        let (code2, par_out) = run_args(&["markov", &ring, "--jobs", "4", "--max-states", "100"]);
        assert_eq!((code, code2), (0, 0));
        assert_eq!(seq_out, par_out);

        let mut s = String::new();
        let e = run(
            &[
                "markov".to_string(),
                ring,
                "--max-states".to_string(),
                "1".to_string(),
            ],
            &mut s,
        )
        .unwrap_err();
        assert!(e.to_string().contains("exceeds 1 state"), "{e}");
    }

    #[test]
    fn timed_reach_and_markov_cover_enabling_time_models() {
        let _g = obs_serial();
        // The checked-in bus model uses enabling times on both
        // transitions — the flagship `reach --timed` path used to
        // reject it outright (`EnablingTimesUnsupported`).
        let dir = tmpdir("timed");
        let model = write_model(&dir);
        let (code, out) = run_args(&[
            "reach",
            &model,
            "--timed",
            "--ctl",
            "AG (Bus_free + Bus_busy = 1)",
        ]);
        assert_eq!(code, 0, "{out}");
        // (free, seize armed 1) -A-> (seize expired) -Fire-> (busy,
        // release armed 2) -A-> (release expired) -Fire-> start.
        assert!(out.contains("4 states"), "{out}");
        assert!(out.contains("HOLDS"), "{out}");
        // Timed builds stay bit-identical across jobs and budgets.
        let (c1, seq) = run_args(&["reach", &model, "--timed"]);
        let (c2, par) = run_args(&[
            "reach",
            &model,
            "--timed",
            "--jobs",
            "4",
            "--mem-budget",
            "64KiB",
        ]);
        assert_eq!((c1, c2), (0, 0));
        assert_eq!(seq, par, "jobs/budget must not change the timed report");
        // markov analyzes the same class: one seize per 3-tick cycle.
        let (code, out) = run_args(&["markov", &model]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("0.333333"),
            "seize fires once per 3 ticks: {out}"
        );
    }

    // The obs recorder is process-global: while one test records, any
    // other test's command would add to its counters. So every test
    // that runs a command serializes here.
    static OBS_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn obs_serial<'a>() -> std::sync::MutexGuard<'a, ()> {
        OBS_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn stats_flags_leave_stdout_byte_identical() {
        let _g = obs_serial();
        let dir = tmpdir("obsflags");
        let model = write_model(&dir);
        let (code, plain) = run_args(&["reach", &model, "--timed"]);
        assert_eq!(code, 0);
        let metrics = dir.join("m.ndjson").to_string_lossy().into_owned();
        let (code, observed) = run_args(&[
            "reach",
            &model,
            "--timed",
            "--stats",
            "--metrics-json",
            &metrics,
            "--progress=2",
        ]);
        assert_eq!(code, 0);
        assert_eq!(plain, observed, "observability must not touch stdout");

        let text = fs::read_to_string(&metrics).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            r#"{"type":"meta","version":1,"tool":"reach"}"#
        );
        assert!(
            text.contains(r#""name":"store.misses","value":4"#),
            "4 timed states interned: {text}"
        );
        assert!(text.contains(r#""type":"span","path":"build""#), "{text}");
        assert!(text.contains(r#""path":"parse""#), "{text}");
    }

    #[test]
    fn stats_flags_cover_all_tools() {
        let _g = obs_serial();
        let dir = tmpdir("obstools");
        let model = write_model(&dir);
        for (tool, extra) in [("cover", None), ("markov", None), ("sim", Some("--until"))] {
            let metrics = dir
                .join(format!("{tool}.ndjson"))
                .to_string_lossy()
                .into_owned();
            let mut argv = vec![tool, &model, "--stats", "--metrics-json", &metrics];
            if let Some(flag) = extra {
                argv.push(flag);
                argv.push("50");
            }
            let (code, _) = run_args(&argv);
            assert_eq!(code, 0, "{tool}");
            let text = fs::read_to_string(&metrics).unwrap();
            assert!(
                text.starts_with(&format!(r#"{{"type":"meta","version":1,"tool":"{tool}"}}"#)),
                "{tool}: {text}"
            );
        }
    }

    #[test]
    fn sim_with_stats_counts_events() {
        let _g = obs_serial();
        let dir = tmpdir("obssim");
        let model = write_model(&dir);
        let metrics = dir.join("sim.ndjson").to_string_lossy().into_owned();
        let (code, _) = run_args(&["sim", &model, "--until", "30", "--metrics-json", &metrics]);
        assert_eq!(code, 0);
        let text = fs::read_to_string(&metrics).unwrap();
        let events = text
            .lines()
            .find(|l| l.contains(r#""name":"sim.events""#))
            .unwrap();
        assert!(
            !events.contains(r#""value":0"#),
            "the bus model fires in 30 ticks: {events}"
        );
    }

    #[test]
    fn bad_progress_values_are_usage_errors() {
        let _g = obs_serial();
        let dir = tmpdir("obsbad");
        let model = write_model(&dir);
        for bad in ["--progress=abc", "--progress=0", "--progress=-1"] {
            let argv: Vec<String> = ["reach", &model, bad]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut out = String::new();
            let e = run(&argv, &mut out).unwrap_err();
            assert!(e.to_string().contains("--progress"), "{bad}: {e}");
        }
    }

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_byte_size("65536"), Some(65536));
        assert_eq!(parse_byte_size("64KiB"), Some(64 * 1024));
        assert_eq!(parse_byte_size("64kb"), Some(64 * 1024));
        assert_eq!(parse_byte_size("2M"), Some(2 << 20));
        assert_eq!(parse_byte_size("1GiB"), Some(1 << 30));
        assert_eq!(parse_byte_size("512B"), Some(512));
        assert_eq!(parse_byte_size("unlimited"), Some(usize::MAX));
        assert_eq!(parse_byte_size("64 KiB"), Some(64 * 1024));
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size("1.5M"), None);
        assert_eq!(parse_byte_size(""), None);
    }

    #[test]
    fn reach_mem_budget_pages_without_changing_output() {
        let _g = obs_serial();
        let dir = tmpdir("budget");
        let model = write_model(&dir);
        // The bus model fits any budget; the flag must parse and the
        // report must match the unpaged run exactly (the paging line
        // only appears when something actually spilled).
        let (code, default_out) = run_args(&["reach", &model]);
        assert_eq!(code, 0);
        let spill = dir.join("spill").to_string_lossy().into_owned();
        fs::create_dir_all(dir.join("spill")).unwrap();
        let (code, paged_out) = run_args(&[
            "reach",
            &model,
            "--mem-budget",
            "64KiB",
            "--spill-dir",
            &spill,
        ]);
        assert_eq!(code, 0);
        assert_eq!(paged_out, default_out, "budget must not change results");

        // Garbage budgets are usage errors.
        let mut s = String::new();
        let e = run(
            &["reach", &model, "--mem-budget", "lots"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            &mut s,
        )
        .unwrap_err();
        assert!(e.to_string().contains("--mem-budget"), "{e}");

        // markov accepts the same flags.
        let ring = dir.join("ring.pn");
        fs::write(
            &ring,
            "net ring\nplace a = 1\nplace b = 0\n\
             trans t0\n  in a\n  out b\n  firing 3\nend\n\
             trans t1\n  in b\n  out a\n  firing 1\nend\n",
        )
        .unwrap();
        let ring = ring.to_string_lossy().into_owned();
        let (code, plain) = run_args(&["markov", &ring]);
        let (code2, paged) = run_args(&["markov", &ring, "--mem-budget", "1MiB"]);
        assert_eq!((code, code2), (0, 0));
        assert_eq!(plain, paged);
    }

    #[test]
    fn cover_rejects_jobs_and_pager_flags() {
        let _g = obs_serial();
        // The Karp–Miller tree is sequential and memory-resident, so
        // `cover` has no use for these and refuses them.
        let dir = tmpdir("coverflags");
        let model = write_model(&dir);
        let spill = dir.to_string_lossy().into_owned();
        for (flag, value) in [
            ("--jobs", "4"),
            ("--mem-budget", "64KiB"),
            ("--spill-dir", &spill),
        ] {
            let argv: Vec<String> = ["cover", &model, flag, value]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut out = String::new();
            let e = run(&argv, &mut out).unwrap_err();
            assert!(
                e.to_string()
                    .contains(&format!("unexpected argument `{flag}`")),
                "{flag}: {e}"
            );
            assert!(out.is_empty(), "{flag}: no partial report");
        }
    }

    #[test]
    fn bad_limit_flags_are_usage_errors_not_panics() {
        let _g = obs_serial();
        let dir = tmpdir("badflags");
        let model = write_model(&dir);
        for (argv, flag) in [
            (vec!["reach", &model, "--max-states", "abc"], "--max-states"),
            (vec!["reach", &model, "--jobs", "-3"], "--jobs"),
            (vec!["reach", &model, "--max-states", "0"], "--max-states"),
            (
                vec!["cover", &model, "--max-states", "many"],
                "--max-states",
            ),
            (vec!["markov", &model, "--jobs", "2.5"], "--jobs"),
            (vec!["sim", &model, "--until", "-1"], "--until"),
            (vec!["sim", &model, "--seed", "-1"], "--seed"),
            (vec!["timeline", "t.json", "--from", "-1"], "--from"),
            (vec!["timeline", "t.json", "--to", "-1"], "--to"),
            (vec!["anim", "t.json", "--max-frames", "-1"], "--max-frames"),
        ] {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let mut out = String::new();
            let e = run(&argv, &mut out).unwrap_err().to_string();
            assert!(e.contains(flag), "unhelpful error: {e}");
            if argv[3] == "-1" {
                let cmd = &argv[0];
                assert_eq!(e, format!("{cmd}: {flag} must be a non-negative integer"));
            }
        }
    }

    #[test]
    fn filter_reports_truncated_traces_instead_of_panicking() {
        let _g = obs_serial();
        let dir = tmpdir("trunc");
        let model = write_model(&dir);
        let trace_path = dir.join("t.json").to_string_lossy().into_owned();
        run_args(&["sim", &model, "--until", "50", "-o", &trace_path]);
        // Chop the file mid-JSON: the load fails with a diagnostic (and
        // the replay-completeness path behind it is a CliError now, not
        // an expect).
        let full = fs::read_to_string(&trace_path).unwrap();
        let cut = dir.join("cut.json");
        fs::write(&cut, &full[..full.len() / 2]).unwrap();
        let mut out = String::new();
        let e = run(
            &["filter".to_string(), cut.to_string_lossy().into_owned()],
            &mut out,
        )
        .unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn usage_errors_are_reported() {
        let _g = obs_serial();
        let mut out = String::new();
        assert!(run(&["stat".to_string()], &mut out).is_err());
        assert!(run(&["sim".to_string(), "nonexistent.pn".to_string()], &mut out).is_err());
        assert!(run(
            &[
                "sim".to_string(),
                "x.pn".to_string(),
                "--until".to_string(),
                "abc".to_string()
            ],
            &mut out
        )
        .is_err());
    }

    /// The acceptance fixture: one provably dead transition (`dead_t`
    /// starves on `z`, bound 0 by the invariant `z = 0`), one uncovered
    /// place (`mint` forges tokens into `u`), one out-of-range constant
    /// table write (`tab[5]` on a 3-entry table) — and nothing else.
    fn write_bad_model(dir: &std::path::Path) -> String {
        let model = dir.join("bad.pn");
        fs::write(
            &model,
            "net bad\ntable tab = 1 2 3\n\
             place a = 1\nplace b = 0\nplace z = 0\nplace u = 1\n\
             trans go\n  in a\n  out b\nend\n\
             trans back\n  in b\n  out a\n  act tab[5] = tab[0] + 1;\nend\n\
             trans mint\n  in a\n  out a u\nend\n\
             trans burn\n  in u*2\n  out u\nend\n\
             trans dead_t\n  in z a\n  out z a\nend\n",
        )
        .unwrap();
        model.to_string_lossy().into_owned()
    }

    #[test]
    fn lint_clean_model_exits_zero() {
        let _g = obs_serial();
        let dir = tmpdir("lintok");
        let model = write_model(&dir);
        let (code, out) = run_args(&["lint", &model]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("model `bus`"), "{out}");
        assert!(out.contains("bound(Bus_free) = 1"), "{out}");
        assert!(out.contains("summary: 0 error(s)"), "{out}");
    }

    #[test]
    fn lint_bad_model_yields_exactly_three_findings() {
        let _g = obs_serial();
        let dir = tmpdir("lintbad");
        let model = write_bad_model(&dir);

        let (code, out) = run_args(&["lint", &model]);
        assert_eq!(code, 2, "error findings exit 2: {out}");
        assert!(out.contains("error[dead-transition] dead_t"), "{out}");
        assert!(out.contains("error[const-table-index] tab[5]"), "{out}");
        assert!(out.contains("warn[unbounded-place] u"), "{out}");
        assert!(out.contains("summary: 2 error(s), 1 warning(s)"), "{out}");
        let findings = out
            .lines()
            .filter(|l| {
                let l = l.trim_start();
                l.starts_with("error[") || l.starts_with("warn[") || l.starts_with("info[")
            })
            .count();
        assert_eq!(findings, 3, "exactly three findings: {out}");

        let (code, json) = run_args(&["lint", &model, "--json"]);
        assert_eq!(code, 2, "{json}");
        let mut lines = json.lines();
        assert_eq!(
            lines.next().unwrap(),
            r#"{"type":"meta","version":1,"tool":"lint"}"#
        );
        let findings = json
            .lines()
            .filter(|l| l.starts_with(r#"{"type":"finding""#))
            .count();
        assert_eq!(findings, 3, "{json}");
        assert!(json.contains(r#""code":"dead-transition""#), "{json}");
        assert!(json.contains(r#""code":"const-table-index""#), "{json}");
        assert!(json.contains(r#""code":"unbounded-place""#), "{json}");
        assert!(
            json.contains(r#""errors":2,"warnings":1,"infos":0"#),
            "{json}"
        );
    }

    #[test]
    fn lint_takes_several_files_and_requires_one() {
        let _g = obs_serial();
        let dir = tmpdir("lintmulti");
        let ok = write_model(&dir);
        let bad = write_bad_model(&dir);
        // Worst finding across all files decides the exit code.
        let (code, out) = run_args(&["lint", &ok, &bad]);
        assert_eq!(code, 2);
        assert!(
            out.contains("model `bus`") && out.contains("model `bad`"),
            "{out}"
        );

        let mut s = String::new();
        let e = run(&["lint".to_string()], &mut s).unwrap_err();
        assert!(e.to_string().contains("model file"), "{e}");
    }

    #[test]
    fn reach_check_invariants_flag_reports_and_stays_identical() {
        let _g = obs_serial();
        let dir = tmpdir("reachinv");
        let model = write_model(&dir);
        let (code, plain) = run_args(&["reach", &model]);
        assert_eq!(code, 0);
        let (code, checked) = run_args(&["reach", &model, "--check-invariants"]);
        assert_eq!(code, 0, "{checked}");
        assert!(
            checked.contains("P-invariant check: 2 state(s) x 1 invariant(s) hold"),
            "{checked}"
        );
        // The flag only appends its verdict line; the report proper is
        // untouched.
        let stripped: String = checked
            .lines()
            .filter(|l| !l.contains("P-invariant check"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, plain);
    }
}
