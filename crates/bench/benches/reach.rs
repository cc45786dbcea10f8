#![forbid(unsafe_code)]

//! Construction cost of the reachability engine: the interned
//! `StateStore` + CSR build in `pnut_reach` versus the frozen seed
//! construction ([`pnut_bench::legacy_reach`]) on the paper's state
//! spaces, plus a peak-memory comparison of the two layouts.
//!
//! Set `PNUT_BENCH_JSON=BENCH_reach.json` to append one JSON line per
//! measurement (timings from the harness, `reach/mem/...` and
//! `reach/speedup/...` lines from the summary pass).

use criterion::{criterion_group, Criterion};
use pnut_bench::{legacy_reach, workloads};
use pnut_core::expr::compile::{CompiledNet, EnvSlots, Scratch, Ticks};
use pnut_core::{Delay, Env, Net};
use pnut_reach::ctl;
use pnut_reach::graph::{build_timed, build_untimed, ReachOptions, ReachabilityGraph};
use std::io::Write as _;
use std::time::Instant;

const OPTIONS: ReachOptions = ReachOptions {
    max_states: 100_000,
    jobs: 1,
    mem_budget: usize::MAX,
    spill_dir: None,
};

/// [`OPTIONS`] with a resident-arena byte budget (cold level segments
/// spill to a temp file past it — see `pnut_reach::pager`).
fn with_budget(mem_budget: usize) -> ReachOptions {
    ReachOptions {
        mem_budget,
        ..OPTIONS
    }
}

fn untimed_workloads() -> Vec<(&'static str, Net)> {
    vec![
        ("three_stage", workloads::three_stage_net()),
        ("interpreted", workloads::interpreted_net()),
    ]
}

fn bench_untimed(c: &mut Criterion) {
    for (name, net) in untimed_workloads() {
        let mut g = c.benchmark_group(format!("reach/untimed/{name}"));
        g.bench_function("interned", |b| {
            b.iter(|| build_untimed(&net, &OPTIONS).expect("bounded"))
        });
        g.bench_function("baseline", |b| {
            b.iter(|| legacy_reach::build_untimed(&net, &OPTIONS).expect("bounded"))
        });
        g.finish();
    }
}

fn bench_timed(c: &mut Criterion) {
    let net = workloads::timed_fragment(6);
    let mut g = c.benchmark_group("reach/timed/fragment");
    g.bench_function("interned", |b| {
        b.iter(|| build_timed(&net, &OPTIONS).expect("bounded"))
    });
    g.bench_function("baseline", |b| {
        b.iter(|| legacy_reach::build_timed(&net, &OPTIONS).expect("bounded"))
    });
    g.finish();
    // The full paper pipelines became timed-checkable with the
    // enabling-clock state extension. The frozen seed rejects them
    // (no `baseline` series); their trend is gated through the
    // timed-vs-untimed ratios exported by `summary()`.
    for (name, net) in untimed_workloads() {
        let mut g = c.benchmark_group(format!("reach/timed/{name}"));
        g.bench_function("interned", |b| {
            b.iter(|| build_timed(&net, &OPTIONS).expect("bounded"))
        });
        g.finish();
    }
}

/// Worker counts measured by the parallel series: sequential, the
/// fixed jobs = 4 point, and every available core (deduplicated, so on
/// a 4-core runner this is `[1, 4]`).
fn job_series() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut series = vec![1, 4, max];
    series.sort_unstable();
    series.dedup();
    series
}

/// Parallel frontier exploration at each job count, on the paper's
/// interpreted pipeline (narrow frontiers ≤ 64 states: measures the
/// level-machinery overhead) and on the wide toggle lattice (frontiers
/// thousands of states wide: measures actual scaling).
fn bench_parallel(c: &mut Criterion) {
    for (name, net) in [
        ("interpreted", workloads::interpreted_net()),
        ("wide_toggle", workloads::wide_toggle(15)),
    ] {
        let mut g = c.benchmark_group(format!("reach/parallel/{name}"));
        for jobs in job_series() {
            let options = ReachOptions { jobs, ..OPTIONS };
            g.bench_function(format!("j{jobs}"), |b| {
                b.iter(|| build_untimed(&net, &options).expect("bounded"))
            });
        }
        g.finish();
    }
}

/// Budgets for the spill series on the 8192-state toggle lattice:
/// `resident` (unlimited — the pager in place but never evicting) and
/// two budgets that force progressively harder eviction churn.
fn spill_series() -> Vec<(&'static str, usize)> {
    vec![
        ("resident", usize::MAX),
        ("b1m", 1 << 20),
        ("b64k", 64 << 10),
    ]
}

/// Paged construction under shrinking memory budgets: `resident`
/// measures the pager's bookkeeping overhead alone; the byte-budget
/// points add segment eviction, spill-file writes, and reload faults.
fn bench_spill(c: &mut Criterion) {
    let net = workloads::wide_toggle(13);
    let mut g = c.benchmark_group("reach/spill/wide_toggle");
    for (tag, budget) in spill_series() {
        let options = with_budget(budget);
        g.bench_function(tag, |b| {
            b.iter(|| build_untimed(&net, &options).expect("bounded"))
        });
    }
    g.finish();
}

/// Segment-ordered analysis sweeps under a byte budget: a CTL `AG`
/// invariant check (whose `EU` fixpoint re-sweeps the whole graph
/// until stable) on the 8192-state toggle lattice, at `resident`
/// (pager in place, nothing evicted) and at a 64 KiB budget (every
/// sweep streams all state *and* edge segments through the window).
/// The gated number is the ratio between the two: if the analyses
/// regress to random-access fault storms, the budgeted sweep collapses
/// and the ratio with it.
fn bench_paged_analysis(c: &mut Criterion) {
    let net = workloads::wide_toggle(13);
    let formula = ctl::Formula::parse("AG (u0 + d0 = 1)").expect("parses");
    let mut g = c.benchmark_group("reach/paged_analysis/wide_toggle");
    for (tag, budget) in [("resident", usize::MAX), ("b64k", 64 << 10)] {
        let mut graph = build_untimed(&net, &with_budget(budget)).expect("bounded");
        g.bench_function(tag, |b| {
            b.iter(|| {
                let outcome = ctl::check(&mut graph, &net, &formula).expect("checks");
                assert!(outcome.holds_initially, "lattice invariant must hold");
                outcome.satisfying.len()
            })
        });
    }
    g.finish();
}

/// Every state's environment as an [`Env`], built once outside the
/// timed sweeps: one map per interned environment, and each state's
/// index into them. States share maps exactly as the store shares
/// environments, so a sweep reads the same few maps a build does rather
/// than one copy per state.
fn state_envs(g: &ReachabilityGraph) -> (Vec<Env>, Vec<usize>) {
    let mut distinct: Vec<Option<Env>> = vec![None; g.store().env_count()];
    let ids = (0..g.state_count())
        .map(|i| {
            let id = g.state(i).expect("resident bench graph").env_id as usize;
            if distinct[id].is_none() {
                distinct[id] = Some(g.env(i).expect("resident bench graph"));
            }
            id
        })
        .collect();
    let distinct = distinct.into_iter().map(|e| e.expect("env has a state"));
    (distinct.collect(), ids)
}

/// The per-state expression workload the explorer pays on every visit:
/// evaluate the predicate, apply the action to a fresh successor
/// environment, and resolve any expression delays — here run over every
/// reachable state's environment, on the tree interpreter.
fn ast_sweep(net: &Net, envs: &[&Env]) -> u64 {
    let mut acc = 0u64;
    for &env in envs {
        for (_, t) in net.transitions() {
            if let Some(p) = t.predicate() {
                acc += u64::from(matches!(
                    p.eval_pure(env).and_then(|v| v.as_bool()),
                    Ok(true)
                ));
            }
            if let Some(a) = t.action() {
                let mut next = env.clone();
                acc += u64::from(a.apply_pure(&mut next).is_ok());
            }
            for d in [t.firing_time(), t.enabling_time()] {
                if let Delay::Expr(e) = d {
                    if let Ok(v) = e.eval_pure(env).and_then(|v| v.as_int()) {
                        acc = acc.wrapping_add(v as u64);
                    }
                }
            }
        }
    }
    acc
}

/// The same workload as [`ast_sweep`], on the bytecode evaluator: slot
/// loads instead of name lookups, a slot-file copy instead of an `Env`
/// clone, flat register programs instead of tree walks.
fn bytecode_sweep(envs: &[&Env], programs: &CompiledNet) -> u64 {
    let mut acc = 0u64;
    let mut cur = EnvSlots::new();
    let mut next = EnvSlots::new();
    let mut vm = Scratch::new();
    for &env in envs {
        cur.load(&programs.map, env);
        for ct in &programs.transitions {
            if let Some(p) = &ct.predicate {
                acc += u64::from(matches!(
                    p.eval_pure(&cur, &programs.map, &mut vm)
                        .and_then(|v| v.as_bool()),
                    Ok(true)
                ));
            }
            if let Some(a) = &ct.action {
                next.copy_from(&cur);
                acc += u64::from(a.apply_pure(&mut next, &programs.map, &mut vm).is_ok());
            }
            for ticks in [&ct.firing, &ct.enabling] {
                let Ticks::Expr(p) = ticks else { continue };
                if let Ok(v) = p
                    .eval_pure(&cur, &programs.map, &mut vm)
                    .and_then(|v| v.as_int())
                {
                    acc = acc.wrapping_add(v as u64);
                }
            }
        }
    }
    acc
}

/// Compiled expression evaluation vs the tree interpreter, as the
/// explorer's per-state sweep over every state of the built graph. The
/// interpreted pipeline is the expression-heavy model (predicates,
/// actions, table lookups on most transitions) and carries the gated
/// ratio; the three-stage pipeline has *no* expressions, so its series
/// documents the no-op floor — nets without predicates or actions pay
/// nothing for the compilation layer.
fn bench_compiled(c: &mut Criterion) {
    for (name, net) in untimed_workloads() {
        let (distinct, ids) = state_envs(&build_untimed(&net, &OPTIONS).expect("bounded"));
        let envs: Vec<&Env> = ids.iter().map(|&id| &distinct[id]).collect();
        let programs = CompiledNet::compile(&net).expect("paper models compile");
        let mut group = c.benchmark_group(format!("reach/compiled/{name}"));
        group.bench_function("ast", |b| b.iter(|| ast_sweep(&net, &envs)));
        group.bench_function("bytecode", |b| b.iter(|| bytecode_sweep(&envs, &programs)));
        group.finish();
    }
}

/// Wall time of the full static-analysis pass (`pnut_analysis::lint`)
/// on the paper pipelines: invariant bounds, dead-net detection, and
/// the expression lint, end to end. Purely structural — no graph is
/// built — so this is the cost `pnut lint` adds on top of parsing.
fn bench_lint(c: &mut Criterion) {
    let mut g = c.benchmark_group("lint");
    for (name, net) in untimed_workloads() {
        g.bench_function(name, |b| b.iter(|| pnut_analysis::lint(&net)));
    }
    g.finish();
}

criterion_group!(
    reach,
    bench_untimed,
    bench_timed,
    bench_parallel,
    bench_spill,
    bench_paged_analysis,
    bench_compiled,
    bench_lint
);

fn export(name: &str, key: &str, value: f64) {
    let Ok(path) = std::env::var("PNUT_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{{\"name\":\"{name}\",\"{key}\":{value:.1}}}");
    }
}

/// Min-of-N wall clock for one builder, in nanoseconds.
fn min_ns<G>(runs: usize, mut build: impl FnMut() -> G) -> f64 {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(build());
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Head-to-head speedup and memory summary, printed after the harness
/// runs and exported alongside its JSON lines.
fn summary() {
    println!("\n-- interned vs. seed baseline (min of 10 builds) --");
    let report = |name: &str,
                  interned: &dyn Fn() -> ReachabilityGraph,
                  baseline: &dyn Fn() -> legacy_reach::LegacyGraph| {
        let fast = min_ns(10, interned);
        let slow = min_ns(10, baseline);
        let speedup = slow / fast;
        let g = interned();
        let l = baseline();
        let shrink = l.approx_bytes() as f64 / g.approx_bytes() as f64;
        println!(
            "{name:<24} {:>7} states  speedup {speedup:>5.2}x  memory {:>8} vs {:>8} B ({shrink:.2}x smaller)",
            g.state_count(),
            g.approx_bytes(),
            l.approx_bytes(),
        );
        export(&format!("reach/speedup/{name}"), "ratio", speedup);
        export(
            &format!("reach/mem/{name}/interned"),
            "bytes",
            g.approx_bytes() as f64,
        );
        export(
            &format!("reach/mem/{name}/baseline"),
            "bytes",
            l.approx_bytes() as f64,
        );
    };
    for (name, net) in untimed_workloads() {
        report(
            name,
            &|| build_untimed(&net, &OPTIONS).expect("bounded"),
            &|| legacy_reach::build_untimed(&net, &OPTIONS).expect("bounded"),
        );
    }
    let net = workloads::timed_fragment(6);
    report(
        "timed_fragment",
        &|| build_timed(&net, &OPTIONS).expect("bounded"),
        &|| legacy_reach::build_timed(&net, &OPTIONS).expect("bounded"),
    );

    // Timed pipeline series (enabling clocks; the frozen seed rejects
    // these nets, so there is no legacy baseline). The gated trend
    // number is the per-state cost of the timed build relative to the
    // untimed build of the same net, normalized by their state counts —
    // a regression in the enabling-clock successor path drags the ratio
    // down while staying immune to absolute machine speed.
    println!("\n-- timed pipelines (enabling clocks; min of 10 builds) --");
    for (name, net) in untimed_workloads() {
        let untimed_ns = min_ns(10, || build_untimed(&net, &OPTIONS).expect("bounded"));
        let timed_ns = min_ns(10, || build_timed(&net, &OPTIONS).expect("bounded"));
        let untimed_g = build_untimed(&net, &OPTIONS).expect("bounded");
        let timed_g = build_timed(&net, &OPTIONS).expect("bounded");
        let per_state_untimed = untimed_ns / untimed_g.state_count() as f64;
        let per_state_timed = timed_ns / timed_g.state_count() as f64;
        let ratio = per_state_untimed / per_state_timed;
        println!(
            "timed/{name:<17} {:>7} states  {per_state_timed:>7.0} ns/state \
             ({ratio:.2}x of untimed per-state cost)",
            timed_g.state_count(),
        );
        export(&format!("reach/speedup/timed/{name}"), "ratio", ratio);
    }

    // Compiled-evaluation series (gates the bytecode layer): the same
    // per-state expression sweep on both evaluators. Only the
    // expression-heavy interpreted pipeline is exported/gated — the
    // three-stage sweep is a no-op on both sides (no expressions) and
    // its ratio would gate nothing but loop noise.
    println!("\n-- compiled expression sweep vs AST interpreter (min of 10 sweeps) --");
    for (name, net) in untimed_workloads() {
        let (distinct, ids) = state_envs(&build_untimed(&net, &OPTIONS).expect("bounded"));
        let envs: Vec<&Env> = ids.iter().map(|&id| &distinct[id]).collect();
        let programs = CompiledNet::compile(&net).expect("paper models compile");
        let ast = min_ns(10, || ast_sweep(&net, &envs));
        let bytecode = min_ns(10, || bytecode_sweep(&envs, &programs));
        let ratio = ast / bytecode;
        println!(
            "compiled/{name:<15} {:>7} states  speedup {ratio:>5.2}x over the tree interpreter",
            envs.len(),
        );
        if name == "interpreted" {
            export("reach/speedup/compiled/interpreted", "ratio", ratio);
        }
    }

    println!("\n-- parallel frontier vs. sequential (min of 5 builds) --");
    for (name, net) in [
        ("interpreted", workloads::interpreted_net()),
        ("wide_toggle", workloads::wide_toggle(15)),
    ] {
        let seq = min_ns(5, || build_untimed(&net, &OPTIONS).expect("bounded"));
        for jobs in job_series().into_iter().filter(|&j| j > 1) {
            let options = ReachOptions { jobs, ..OPTIONS };
            let par = min_ns(5, || build_untimed(&net, &options).expect("bounded"));
            let speedup = seq / par;
            println!("{name:<24} jobs {jobs:>2}  speedup {speedup:>5.2}x vs sequential");
            export(
                &format!("reach/speedup/parallel/{name}/j{jobs}"),
                "ratio",
                speedup,
            );
        }
    }

    // Spill-budget series (gates the pager): `resident` is the paged
    // engine at unlimited budget vs the frozen unpaged seed — this is
    // the ratio that must not sag (CI holds it to ≥ 0.9× of the
    // committed trend; the pager's bookkeeping is the only thing that
    // can move it). The budgeted points are measured against the
    // resident run and price eviction + reload churn itself.
    println!("\n-- paged store: spill-budget series on wide_toggle(13) (min of 5 builds) --");
    let net = workloads::wide_toggle(13);
    let legacy = min_ns(5, || {
        legacy_reach::build_untimed(&net, &OPTIONS).expect("bounded")
    });
    let resident = min_ns(5, || {
        build_untimed(&net, &with_budget(usize::MAX)).expect("bounded")
    });
    let ratio = legacy / resident;
    println!("wide_toggle resident     speedup {ratio:>5.2}x vs unpaged seed");
    export("reach/speedup/spill/wide_toggle/resident", "ratio", ratio);
    for (tag, budget) in spill_series().into_iter().filter(|&(_, b)| b != usize::MAX) {
        let t = min_ns(5, || {
            build_untimed(&net, &with_budget(budget)).expect("bounded")
        });
        let ratio = resident / t;
        println!("wide_toggle {tag:<12} {ratio:>5.2}x of the resident-budget build");
        export(
            &format!("reach/speedup/spill/wide_toggle/{tag}"),
            "ratio",
            ratio,
        );
    }

    // Paged-analysis series (gates the segment-ordered read path): the
    // same CTL sweep on the same graph, budgeted vs resident. The
    // budgeted sweep streams every state + edge segment per fixpoint
    // iteration, so the ratio prices the seal/spill/fault machinery on
    // the *analysis* side; a regression to random-access faulting
    // (evict-everything-refault-everything churn) drags it down and
    // trips the CI `--min-frac-for` bound.
    println!("\n-- paged analyses: CTL AG sweep on wide_toggle(13) (min of 5 checks) --");
    let formula = ctl::Formula::parse("AG (u0 + d0 = 1)").expect("parses");
    let mut resident_graph = build_untimed(&net, &with_budget(usize::MAX)).expect("bounded");
    let resident_ns = min_ns(5, || {
        ctl::check(&mut resident_graph, &net, &formula).expect("checks")
    });
    let mut paged_graph = build_untimed(&net, &with_budget(64 << 10)).expect("bounded");
    let paged_ns = min_ns(5, || {
        ctl::check(&mut paged_graph, &net, &formula).expect("checks")
    });
    let ratio = resident_ns / paged_ns;
    println!("wide_toggle ctl @64KiB   {ratio:>5.2}x of the resident-budget sweep");
    export(
        "reach/speedup/paged_analysis/wide_toggle/b64k",
        "ratio",
        ratio,
    );

    // Invariant-check series (gates `--check-invariants` through the
    // pager): the same P-invariant sweep over all 8192 states, on a
    // fully resident graph vs one squeezed to a 64 KiB budget. The
    // budgeted sweep must stream state segments in order through the
    // pager window; a regression to per-state refaulting collapses the
    // ratio and trips the CI `--min-frac-for` bound.
    println!(
        "\n-- invariant cross-check: P-invariant sweep on wide_toggle(13) (min of 5 sweeps) --"
    );
    let mut resident_graph = build_untimed(&net, &with_budget(usize::MAX)).expect("bounded");
    let resident_ns = min_ns(5, || {
        pnut_analysis::check_invariants(&net, &mut resident_graph).expect("invariants hold")
    });
    let mut paged_graph = build_untimed(&net, &with_budget(64 << 10)).expect("bounded");
    let paged_ns = min_ns(5, || {
        pnut_analysis::check_invariants(&net, &mut paged_graph).expect("invariants hold")
    });
    let ratio = resident_ns / paged_ns;
    println!("wide_toggle check @64KiB {ratio:>5.2}x of the resident-budget sweep");
    export("reach/check_invariants/wide_toggle", "ratio", ratio);

    // Observability-overhead series (gates `pnut_obs`): the same
    // interpreted-pipeline build with the recorder absent vs installed.
    // Every hot-path metric mutation is behind one relaxed load, so the
    // off/on ratio should sit at ~1.0; a counter placed inside an inner
    // loop (or a gate that stops being a single load) drags it down and
    // trips the CI `--min-frac-for` bound of 0.9.
    println!("\n-- observability: interpreted build, recorder off vs on (min of 10 builds) --");
    let obs_net = workloads::interpreted_net();
    let off_ns = min_ns(10, || build_untimed(&obs_net, &OPTIONS).expect("bounded"));
    pnut_obs::install();
    let on_ns = min_ns(10, || build_untimed(&obs_net, &OPTIONS).expect("bounded"));
    pnut_obs::uninstall();
    let ratio = off_ns / on_ns;
    println!("obs_overhead interpreted {ratio:>5.2}x of the recorder-off build (1.0 = free)");
    export("reach/obs_overhead/interpreted", "ratio", ratio);
}

fn main() {
    reach();
    summary();
}
