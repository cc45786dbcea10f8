#![forbid(unsafe_code)]

//! End-to-end verification benchmark over the `pnut` verbs.
//!
//! ```text
//! e2ebench --workload verify|verify_paged|markov|simulate --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload: a fixed mix of operations, each what
//! one `pnut` verb does, in a closed loop on one thread with `jobs = 1`.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! operations under the benchmark's layer spans and the `pnut_obs`
//! recorder and reports the per-layer metrics. The last stdout line is
//! the result as one JSON object. See `README.md` next to this file.

mod ops;
mod oracle;
mod spans;
mod workload;

use ops::{Ctx, Op};
use spans::{ms, Layer, ObsTotals, Spans};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Kind, Plan};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;
/// Fewest cycles a measured run completes, so that every operation's
/// best latency is taken over several repetitions.
const MIN_CYCLES: usize = 3;
/// The traced run re-checks every oracle on this second seed.
const HELD_OUT: u64 = 0x00C0_FFEE_D15C_0B01;
/// Horizon of the Figure-5 CLI parity check (the full 10 000 cycles
/// would spend minutes in today's trace reader).
const FIG5_PARITY_UNTIL: u64 = 300;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload verify|verify_paged|markov|simulate --seed N --seconds S --trace 0|1";

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let value = |name: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == name)
                .ok_or_else(|| format!("missing {name}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str| -> Result<u64, String> {
            value(name)?
                .parse()
                .map_err(|_| format!("{name} must be a non-negative integer"))
        };
        let name = value("--workload")?;
        let workload = Kind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        };
        Ok(Args {
            workload,
            seed: number("--seed")?,
            seconds: number("--seconds")?.max(1),
            trace,
        })
    }
}

/// The benchmark's scratch directory in the working directory: spill
/// files and the CLI parity files. Removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = PathBuf::from(format!(".e2ebench-work-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = WorkDir::create().and_then(|work| run(&args, &work.0));
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(format!("{what}: {e}"));
            }
        }
    }
}

struct Report {
    tally: Tally,
    /// Extra conditions that make the run incorrect without being an
    /// operation (the counter fingerprint).
    broken: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for m in self.tally.messages.iter().chain(&self.broken) {
            eprintln!("e2ebench: FAILED {m}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.broken.is_empty(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let inputs = workload::setup(args.workload, args.seed, work)?;
    let plan = workload::plan(&inputs)?;

    let mut tally = Tally::default();
    for (what, result) in &plan.run_checks {
        tally.record(what, result.clone());
    }
    let mut ctx = Ctx {
        spans: Spans::new(false),
        traces: vec![Vec::new(); plan.trace_slots],
    };
    // Untimed first: one instance of each operation kind is checked
    // against the CLI.
    cli_parity(&plan, &mut ctx, work, &mut tally)?;

    if args.trace {
        return traced(args, work, &plan, ctx, tally);
    }
    // The set-up is timed once the process is warm: timed at start-up,
    // it lands in one of two modes twice apart from process to process.
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        workload::setup(args.workload, args.seed, work)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    untraced(args, &plan, ctx, tally, &setup_s)
}

/// Run the plan up to the first operation of its last kind; the first
/// operation of each kind also runs as a `pnut_cli::run` command line
/// whose stdout must match.
fn cli_parity(plan: &Plan, ctx: &mut Ctx, work: &Path, tally: &mut Tally) -> Result<(), String> {
    let dir = work.join("cli");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let kinds = plan.kinds();
    let mut seen = Vec::new();
    for step in &plan.steps {
        if seen.len() == kinds.len() {
            break;
        }
        let outcome = step.op.run(ctx);
        tally.record(step.op.kind(), step.verify(&outcome));
        let kind = step.op.kind();
        if seen.contains(&kind) {
            continue;
        }
        seen.push(kind);
        let parity = match &step.op {
            Op::Fig5 { model, seed, .. } => fig5_parity(model, *seed, &dir),
            op => match op.cli_twin(&dir, ctx)? {
                Some((argv, twin)) => same_as_cli(&argv, &twin, ctx, &dir),
                None => Ok(()),
            },
        };
        tally.record(&format!("CLI parity of {kind}"), parity);
    }
    Ok(())
}

fn run_cli(argv: &[String]) -> Result<(i32, String), String> {
    let mut out = String::new();
    let code =
        pnut_cli::run(argv, &mut out).map_err(|e| format!("pnut {}: {e}", argv.join(" ")))?;
    Ok((code, out))
}

fn same_as_cli(argv: &[String], twin: &Op, ctx: &mut Ctx, dir: &Path) -> Result<(), String> {
    let (code, out) = run_cli(argv)?;
    let outcome = twin.run(ctx)?;
    if (code, &out) != (outcome.code, &outcome.stdout) {
        return Err(format!(
            "`pnut {}` printed (exit {code}):\n{out}\nthe operation printed (exit {}):\n{}",
            argv.join(" "),
            outcome.code,
            outcome.stdout
        ));
    }
    if let Op::Sim { slot, .. } = twin {
        let file = std::fs::read(dir.join("cli_sim.json")).map_err(|e| e.to_string())?;
        if file != ctx.traces[*slot] {
            return Err("`pnut sim -o` wrote a different trace file".into());
        }
    }
    Ok(())
}

/// `pnut sim MODEL -o F && pnut stat F` against the streamed Figure-5
/// operation, at a horizon today's reader handles quickly.
fn fig5_parity(model: &ops::Model, seed: u64, dir: &Path) -> Result<(), String> {
    let pn = dir.join("fig5.pn");
    std::fs::write(&pn, &model.text).map_err(|e| e.to_string())?;
    let json = dir.join("fig5.json");
    let s = |p: &Path| p.to_string_lossy().into_owned();
    let until = FIG5_PARITY_UNTIL.to_string();
    let seed_s = seed.to_string();
    run_cli(&[
        "sim".into(),
        s(&pn),
        "--until".into(),
        until,
        "--seed".into(),
        seed_s,
        "-o".into(),
        s(&json),
    ])?;
    let (code, out) = run_cli(&["stat".into(), s(&json)])?;
    let outcome = ops::fig5(&mut Spans::new(false), model, seed, FIG5_PARITY_UNTIL)?;
    if (code, out) == (outcome.code, outcome.stdout) {
        Ok(())
    } else {
        Err("`pnut sim | pnut stat` differs from the streamed statistics".into())
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The process's peak resident set since [`reset_peak_rss`], in MiB
/// (`VmHWM`); 0 where `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset `VmHWM` to the current resident set (`clear_refs` value 5).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The end-to-end run: a closed loop over whole cycles of the mix until
/// the window has passed and at least [`MIN_CYCLES`] cycles completed.
///
/// Each operation is reported by its best latency over all its
/// repetitions in the run: the host's load drifts over seconds and
/// minutes (see `README.md`), and the best of many repetitions is the
/// estimate of an operation's cost that such drift disturbs least.
/// `ops_per_s` is the cycle's operation count over the sum of these
/// latencies, and `op_p50_ms`/`op_p90_ms` are percentiles over the
/// cycle's operations, each at its best latency.
fn untraced(
    args: &Args,
    plan: &Plan,
    mut ctx: Ctx,
    mut tally: Tally,
    setup_s: &[f64],
) -> Result<Report, String> {
    reset_peak_rss();
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut best = vec![Duration::MAX; plan.distinct()];
    let mut busy = Duration::ZERO;
    let mut cycles = 0;
    while cycles < MIN_CYCLES || start.elapsed() < window {
        for step in &plan.steps {
            let t = Instant::now();
            let outcome = step.op.run(&mut ctx);
            let d = t.elapsed();
            best[step.id] = best[step.id].min(d);
            busy += d;
            tally.record(step.op.kind(), step.verify(&outcome));
        }
        cycles += 1;
    }
    let peak = peak_rss_mib();

    let best_ms: Vec<f64> = plan.steps.iter().map(|s| ms(best[s.id])).collect();
    let raw_ops = cycles * plan.steps.len();
    let mut notes = vec![
        format!(
            "set-up: {} repeats, {:.6} s best, {:.6} s median",
            setup_s.len(),
            percentile(setup_s, 0.0),
            median(setup_s)
        ),
        format!(
            "{}: {cycles} cycles of {} operations ({} distinct): {raw_ops} timed in {:.2} s, {:.1} ops/s on average",
            args.workload.name(),
            plan.steps.len(),
            plan.distinct(),
            busy.as_secs_f64(),
            raw_ops as f64 / busy.as_secs_f64()
        ),
        format!("{:<18} {:>5} {:>12} {:>12}", "kind", "ops", "best_p50_ms", "best_p90_ms"),
    ];
    let mut rows: Vec<(&str, Vec<f64>)> = plan
        .kinds()
        .into_iter()
        .map(|kind| {
            let v = plan
                .steps
                .iter()
                .zip(&best_ms)
                .filter(|(s, _)| s.op.kind() == kind)
                .map(|(_, &m)| m)
                .collect();
            (kind, v)
        })
        .collect();
    rows.push(("all", best_ms.clone()));
    for (kind, v) in &rows {
        notes.push(format!(
            "{kind:<18} {:>5} {:>12.3} {:>12.3}",
            v.len(),
            median(v),
            percentile(v, 0.9)
        ));
    }
    let metrics = vec![
        ("setup_s", median(setup_s), "s"),
        (
            "ops_per_s",
            best_ms.len() as f64 / best_ms.iter().sum::<f64>() * 1e3,
            "1/s",
        ),
        ("op_p50_ms", median(&best_ms), "ms"),
        ("op_p90_ms", percentile(&best_ms, 0.9), "ms"),
        ("peak_rss_mib", peak, "MiB"),
    ];
    Ok(Report {
        tally,
        broken: Vec::new(),
        metrics,
        notes,
    })
}

/// One traced pass: every operation once, under the benchmark's spans and
/// a fresh `pnut_obs` recording per operation.
struct TracedPass {
    spans: Spans,
    obs: ObsTotals,
    /// Crate-opened spans of the `markov` operations, by path.
    markov_spans: BTreeMap<String, Duration>,
    markov_ops: u64,
    /// Wall time of each operation of the cycle.
    times: Vec<Duration>,
}

fn traced_pass(plan: &Plan, ctx: &mut Ctx, tally: &mut Tally) -> TracedPass {
    ctx.spans = Spans::new(true);
    let mut obs = ObsTotals::default();
    let mut markov_spans = BTreeMap::new();
    let mut markov_ops = 0;
    let mut times = Vec::new();
    for step in &plan.steps {
        pnut_obs::install();
        let t = Instant::now();
        let outcome = step.op.run(ctx);
        times.push(t.elapsed());
        pnut_obs::uninstall();
        let snap = pnut_obs::snapshot();
        obs.add(&snap);
        if matches!(step.op, Op::Markov(_)) {
            spans::add_crate_spans(&mut markov_spans, &snap);
            markov_ops += 1;
        }
        tally.record(step.op.kind(), step.verify(&outcome));
    }
    TracedPass {
        spans: std::mem::replace(&mut ctx.spans, Spans::new(false)),
        obs,
        markov_spans,
        markov_ops,
        times,
    }
}

/// Every operation once, untraced; returns each operation's wall time.
fn untraced_pass(plan: &Plan, ctx: &mut Ctx, tally: &mut Tally) -> Vec<Duration> {
    let mut times = Vec::new();
    for step in &plan.steps {
        let t = Instant::now();
        let outcome = step.op.run(ctx);
        times.push(t.elapsed());
        tally.record(step.op.kind(), step.verify(&outcome));
    }
    times
}

/// Sum over the cycle of each operation's better time of two passes.
fn best_of_two(x: &[Duration], y: &[Duration]) -> Duration {
    x.iter().zip(y).map(|(a, b)| *a.min(b)).sum()
}

/// The per-layer run: two traced cycles whose counters must agree
/// exactly, each after an untraced cycle for the overhead baseline, then
/// one cycle on the held-out seed with every oracle.
fn traced(
    args: &Args,
    work: &Path,
    plan: &Plan,
    mut ctx: Ctx,
    mut tally: Tally,
) -> Result<Report, String> {
    let u1 = untraced_pass(plan, &mut ctx, &mut tally);
    let a = traced_pass(plan, &mut ctx, &mut tally);
    let u2 = untraced_pass(plan, &mut ctx, &mut tally);
    let b = traced_pass(plan, &mut ctx, &mut tally);
    let overhead =
        best_of_two(&a.times, &b.times).as_secs_f64() / best_of_two(&u1, &u2).as_secs_f64();
    let mut broken = Vec::new();
    if a.obs != b.obs {
        broken.push(format!(
            "counter fingerprint differs between two traced passes: {:016x} vs {:016x}",
            a.obs.fingerprint(),
            b.obs.fingerprint()
        ));
    }

    let held_seed = args.seed ^ HELD_OUT;
    let held_inputs = workload::setup(args.workload, held_seed, work)?;
    let held = workload::plan(&held_inputs)?;
    for (what, result) in &held.run_checks {
        tally.record(what, result.clone());
    }
    let mut held_ctx = Ctx {
        spans: Spans::new(false),
        traces: vec![Vec::new(); held.trace_slots],
    };
    untraced_pass(&held, &mut held_ctx, &mut tally);

    let ops = plan.steps.len() as f64;
    let busy: Duration = a.times.iter().sum();
    let op_ms = ms(busy) / ops;
    let unattributed = (ms(busy) - ms(a.spans.attributed())) / ops;
    let s = &a.spans;
    let o = &a.obs;
    let per_s = |n: u64, d: Duration| {
        if d.is_zero() {
            0.0
        } else {
            n as f64 / d.as_secs_f64()
        }
    };
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let markov_ms = |path: &str| {
        a.markov_spans
            .get(path)
            .map_or(0.0, |d| ms(*d) / a.markov_ops.max(1) as f64)
    };
    let c = |name: &str| o.counter(name) as f64;
    let metrics = vec![
        ("lang.parse_ms", s.mean_ms(Layer::Parse), "ms"),
        ("reach.build_ms", s.mean_ms(Layer::Build), "ms"),
        (
            "reach.states_per_s",
            per_s(s.states_built, s.total(Layer::Build)),
            "1/s",
        ),
        ("store.probes", c("store.probes"), "count"),
        (
            "store.hit_ratio",
            ratio(o.counter("store.hits"), o.counter("store.probes")),
            "ratio",
        ),
        ("reach.levels", c("reach.levels"), "count"),
        (
            "reach.peak_frontier",
            o.gauge("reach.peak_frontier") as f64,
            "states",
        ),
        ("pager.faults", c("pager.faults"), "count"),
        ("pager.evictions", c("pager.evictions"), "count"),
        (
            "pager.spill_read_bytes",
            c("pager.spill_read_bytes"),
            "bytes",
        ),
        (
            "pager.spill_write_bytes",
            c("pager.spill_write_bytes"),
            "bytes",
        ),
        (
            "pager.read_amplification",
            ratio(
                o.counter("pager.spill_read_bytes"),
                o.counter("pager.spill_write_bytes"),
            ),
            "ratio",
        ),
        (
            "pager.peak_resident_bytes",
            o.gauge("pager.peak_resident_bytes") as f64,
            "bytes",
        ),
        ("reach.analysis_ms", s.mean_ms(Layer::Analysis), "ms"),
        ("ctl.check_ms", s.mean_ms(Layer::Ctl), "ms"),
        ("ctl.sweeps", c("ctl.sweeps"), "count"),
        (
            "ctl.fixpoint_iterations",
            c("ctl.eu_iterations") + c("ctl.eg_iterations"),
            "count",
        ),
        ("analysis.lint_ms", s.mean_ms(Layer::Lint), "ms"),
        (
            "analysis.check_invariants_ms",
            s.mean_ms(Layer::CheckInvariants),
            "ms",
        ),
        (
            "analysis.invariant_states",
            c("analysis.invariant_states"),
            "count",
        ),
        ("markov.steady_state_ms", s.mean_ms(Layer::Markov), "ms"),
        ("markov.build_ms", markov_ms("build"), "ms"),
        ("markov.extract_ms", markov_ms("markov.extract"), "ms"),
        ("markov.solve_ms", markov_ms("markov.solve"), "ms"),
        (
            "markov.solver_iterations",
            c("markov.solver_iterations"),
            "count",
        ),
        (
            "markov.extracted_edges",
            c("markov.extracted_edges"),
            "count",
        ),
        ("markov.states", s.markov_states as f64, "count"),
        ("sim.run_ms", s.mean_ms(Layer::Sim), "ms"),
        ("sim.events", c("sim.events"), "count"),
        (
            "sim.events_per_s",
            per_s(o.counter("sim.events"), s.total(Layer::Sim)),
            "1/s",
        ),
        ("trace.write_ms", s.mean_ms(Layer::TraceWrite), "ms"),
        ("trace.read_ms", s.mean_ms(Layer::TraceRead), "ms"),
        ("trace.bytes", s.trace_bytes_written as f64, "bytes"),
        (
            "trace.read_mb_per_s",
            per_s(s.trace_bytes_read, s.total(Layer::TraceRead)) / 1e6,
            "MB/s",
        ),
        ("stat.analyze_ms", s.mean_ms(Layer::Stat), "ms"),
        ("tracer.query_ms", s.mean_ms(Layer::Query), "ms"),
        ("tracer.measure_ms", s.mean_ms(Layer::Measure), "ms"),
        ("unattributed_ms", unattributed, "ms"),
        ("unattributed_share", unattributed / op_ms, "ratio"),
        ("trace_overhead", overhead, "ratio"),
        (
            "failed_ratio",
            ratio(tally.failed, tally.attempted),
            "ratio",
        ),
    ];
    let notes = vec![
        format!(
            "{} traced: {} operations per pass, {:.3} ms mean, fingerprint {:016x}",
            args.workload.name(),
            plan.steps.len(),
            op_ms,
            a.obs.fingerprint()
        ),
        format!(
            "held-out seed {held_seed}: {} operations checked",
            held.steps.len()
        ),
    ];
    Ok(Report {
        tally,
        broken,
        metrics,
        notes,
    })
}
