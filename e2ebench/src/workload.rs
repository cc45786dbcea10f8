//! The four workloads: their inputs (the timed set-up) and their
//! operation plans with the oracle checks (prepared outside any timing).

use crate::ops::{self, Ctx, Facts, Model, Op, Outcome};
use crate::oracle::{self, Check};
use crate::spans::Spans;
use pnut_analytic::markov::{steady_state, MarkovOptions};
use pnut_core::Time;
use pnut_pipeline::{three_stage, CacheConfig, ThreeStageConfig};
use pnut_reach::graph::ReachOptions;
use std::path::{Path, PathBuf};
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Verify,
    VerifyPaged,
    Markov,
    Simulate,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Verify,
        Kind::VerifyPaged,
        Kind::Markov,
        Kind::Simulate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Verify => "verify",
            Kind::VerifyPaged => "verify_paged",
            Kind::Markov => "markov",
            Kind::Simulate => "simulate",
        }
    }
}

/// `verify_paged`'s resident-arena budget.
const PAGED_BUDGET: usize = 64 * 1024;
/// State cap for the generated random nets (as in `tests/bytecode_diff.rs`).
const RANDOM_CAP: usize = 2_000;
/// Bounded random nets per `verify` cycle, and the candidate pool they
/// are drawn from (about 60% of `random_net` seeds are bounded).
const RANDOM_NETS: usize = 16;
const RANDOM_POOL: u64 = 48;
/// `simulate`: seeds per cycle and the simulated horizon in ticks. The
/// horizon keeps today's trace reader under about 0.3 s per operation;
/// the trace size varies from seed to seed, and 25 seeds per cycle keep
/// the cycle's total steady across workload seeds.
const SIM_SEEDS: u64 = 25;
const SIM_UNTIL: u64 = 250;
/// The Figure-5 experiment length.
const FIG5_UNTIL: u64 = 10_000;
/// `markov`: simulated cycles behind the once-per-run agreement check
/// (`tests/paper_pipeline.rs`).
const AGREEMENT_CYCLES: u64 = 200_000;

const CHECKED_IN: [&str; 5] = [
    "three_stage",
    "interpreted_analysis",
    "sequential",
    "pager_protocol",
    "interpreted",
];

/// splitmix64 of `(seed, i)`: the workload seed fans out into
/// independent per-input seeds.
fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload's inputs: model texts, seeds and the spill directory.
pub struct Inputs {
    kind: Kind,
    seed: u64,
    models: Vec<(&'static str, Rc<Model>)>,
    wide: Option<Rc<Model>>,
    random: Vec<Rc<Model>>,
    sweep: Vec<Rc<Model>>,
    spill_dir: PathBuf,
}

impl Inputs {
    fn model(&self, stem: &str) -> Result<Rc<Model>, String> {
        self.models
            .iter()
            .find(|(s, _)| *s == stem)
            .map(|(_, m)| Rc::clone(m))
            .ok_or_else(|| format!("model `{stem}` not loaded"))
    }

    fn wide(&self) -> Result<Rc<Model>, String> {
        self.wide
            .clone()
            .ok_or_else(|| "wide_toggle not generated".into())
    }
}

/// The timed set-up: read the checked-in models, generate and print the
/// derived nets, and create the spill directory.
pub fn setup(kind: Kind, seed: u64, work: &Path) -> Result<Inputs, String> {
    let stems: &[&'static str] = match kind {
        Kind::Verify => &CHECKED_IN,
        Kind::VerifyPaged => &["three_stage", "interpreted_analysis"],
        Kind::Markov => &["interpreted_analysis"],
        Kind::Simulate => &["interpreted", "three_stage"],
    };
    let mut models = Vec::new();
    for &stem in stems {
        let label = format!("models/{stem}.pn");
        let text =
            std::fs::read_to_string(&label).map_err(|e| format!("cannot read `{label}`: {e}"))?;
        models.push((stem, Model::new(label, text)));
    }
    let print = |label: String, net: &pnut_core::Net| Model::new(label, pnut_lang::print(net));
    let wide = matches!(kind, Kind::Verify | Kind::VerifyPaged).then(|| {
        print(
            "wide_toggle(13)".into(),
            &pnut_bench::workloads::wide_toggle(13),
        )
    });
    let random = if kind == Kind::Verify {
        (0..RANDOM_POOL)
            .map(|i| {
                let s = derive(seed, i);
                print(
                    format!("random_net({s})"),
                    &pnut_bench::workloads::random_net(s),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut sweep = Vec::new();
    if kind == Kind::Markov {
        for &(mem, hit, _, _) in oracle::SWEEP {
            let config = ThreeStageConfig {
                mem_access_cycles: mem,
                cache: Some(CacheConfig {
                    hit_ratio: hit,
                    hit_cycles: 1,
                }),
                ..ThreeStageConfig::default()
            };
            let net = three_stage::build(&config).map_err(|e| format!("sweep point: {e}"))?;
            sweep.push(print(format!("three_stage(mem={mem},hit={hit})"), &net));
        }
    }
    let spill_dir = work.join("spill");
    if spill_dir.exists() {
        std::fs::remove_dir_all(&spill_dir).map_err(|e| format!("spill dir: {e}"))?;
    }
    std::fs::create_dir_all(&spill_dir).map_err(|e| format!("spill dir: {e}"))?;
    Ok(Inputs {
        kind,
        seed,
        models,
        wide,
        random,
        sweep,
        spill_dir,
    })
}

/// One operation of the mix and the checks its outcome must pass. A
/// weighted operation appears several times per cycle under one `id`.
#[derive(Clone)]
pub struct Step {
    pub id: usize,
    pub op: Op,
    pub checks: Vec<Check>,
}

impl Step {
    pub fn verify(&self, outcome: &Result<Outcome, String>) -> Result<(), String> {
        let outcome = outcome.as_ref().map_err(|e| format!("error: {e}"))?;
        self.checks.iter().try_for_each(|c| c.verify(outcome))
    }
}

/// A workload's fixed operation mix (one cycle) and the result of the
/// once-per-run oracle checks made while preparing it.
pub struct Plan {
    pub steps: Vec<Step>,
    pub trace_slots: usize,
    pub run_checks: Vec<(&'static str, Result<(), String>)>,
}

impl Plan {
    /// Number of distinct operations (the largest `id` plus one).
    pub fn distinct(&self) -> usize {
        self.steps.iter().map(|s| s.id + 1).max().unwrap_or(0)
    }

    /// The operation kinds of the mix, in order of first appearance.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        for step in &self.steps {
            if !kinds.contains(&step.op.kind()) {
                kinds.push(step.op.kind());
            }
        }
        kinds
    }
}

/// Fewest operations in a cycle, so that at least ten of them lie beyond
/// p90.
const MIN_STEPS: usize = 100;

/// Prepare the operation mix and every oracle. Nothing here is timed.
pub fn plan(inputs: &Inputs) -> Result<Plan, String> {
    let plan = match inputs.kind {
        Kind::Verify => plan_verify(inputs),
        Kind::VerifyPaged => plan_verify_paged(inputs),
        Kind::Markov => plan_markov(inputs),
        Kind::Simulate => plan_simulate(inputs),
    }?;
    if plan.steps.len() < MIN_STEPS {
        return Err(format!(
            "{} operations per cycle, fewer than {MIN_STEPS}",
            plan.steps.len()
        ));
    }
    Ok(plan)
}

fn reach_op(
    model: &Rc<Model>,
    timed: bool,
    ctl: Option<&'static str>,
    check_invariants: bool,
    options: &ReachOptions,
) -> Op {
    Op::Reach {
        model: Rc::clone(model),
        timed,
        ctl,
        check_invariants,
        options: options.clone(),
    }
}

/// The golden checks of a `reach` operation on a named model.
fn reach_goldens(op: &Op) -> Vec<Check> {
    let Op::Reach {
        model,
        timed,
        ctl,
        check_invariants,
        ..
    } = op
    else {
        return Vec::new();
    };
    let mut checks = Vec::new();
    checks.extend(oracle::graph_golden(&model.label, *timed));
    let mut code = 0;
    if let Some(f) = ctl {
        if let Some(c) = oracle::ctl_golden(&model.label, f) {
            if matches!(c, Check::Ctl { holds: false, .. }) {
                code = 2;
            }
            checks.push(c);
        }
    }
    if *check_invariants {
        checks.push(Check::Invariants(oracle::THREE_STAGE_INVARIANTS));
    }
    checks.push(Check::Code(code));
    checks
}

/// The `reach --ctl` operations: the formula sets of the tests, timed on
/// the pipelines, untimed on the toggle lattice and the pager protocol.
fn ctl_ops(inputs: &Inputs, options: &ReachOptions, with_pager: bool) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for &(label, formula, _, _) in oracle::CTL {
        let (model, timed) = match label {
            "models/three_stage.pn" => (inputs.model("three_stage")?, true),
            "models/interpreted_analysis.pn" => (inputs.model("interpreted_analysis")?, true),
            "wide_toggle(13)" => (inputs.wide()?, false),
            _ if with_pager => (inputs.model("pager_protocol")?, false),
            _ => continue,
        };
        ops.push(reach_op(&model, timed, Some(formula), false, options));
    }
    Ok(ops)
}

/// `verify`'s weights. Sorted by latency, the mix has three bands:
/// sub-0.2 ms operations (lint, the random nets, the pager protocol), the
/// 1-2 ms pipeline operations (`--timed --ctl`, `--check-invariants`),
/// and the ~6 ms `wide_toggle(13)` operations. The weights put p50 in
/// the middle of the pipeline band and p90 in the middle of the
/// wide_toggle band, away from every boundary between kinds.
const PIPELINE_WEIGHT: usize = 10;
const WIDE_WEIGHT: usize = 6;

fn plan_verify(inputs: &Inputs) -> Result<Plan, String> {
    let resident = ReachOptions::default();
    let mut weighted = Vec::new();
    for stem in CHECKED_IN {
        let step = Step {
            id: 0,
            op: Op::Lint(inputs.model(stem)?),
            checks: vec![Check::LintClean, Check::Code(0)],
        };
        weighted.push((step, 1));
    }
    for stem in [
        "three_stage",
        "interpreted_analysis",
        "sequential",
        "pager_protocol",
    ] {
        weighted.push((untimed_step(&inputs.model(stem)?, &resident)?, 1));
    }
    weighted.push((untimed_step(&inputs.wide()?, &resident)?, WIDE_WEIGHT));
    // The first RANDOM_NETS candidates the frozen seed construction
    // finds bounded under the cap.
    let capped = ReachOptions {
        max_states: RANDOM_CAP,
        ..ReachOptions::default()
    };
    let mut random = 0;
    for model in &inputs.random {
        if random == RANDOM_NETS {
            break;
        }
        if let Some(check) = legacy_check(model, &capped)? {
            let step = Step {
                id: 0,
                op: reach_op(model, false, None, false, &capped),
                checks: vec![check, Check::Code(0)],
            };
            weighted.push((step, 1));
            random += 1;
        }
    }
    if random < RANDOM_NETS {
        return Err(format!("only {random} bounded random nets in the pool"));
    }
    for op in ctl_ops(inputs, &resident, true)? {
        let weight = match &op {
            Op::Reach { timed: true, .. } => PIPELINE_WEIGHT,
            Op::Reach { model, .. } if model.label.starts_with("wide") => WIDE_WEIGHT,
            _ => 1,
        };
        weighted.push((golden_step(op), weight));
    }
    let op = reach_op(&inputs.model("three_stage")?, true, None, true, &resident);
    weighted.push((golden_step(op), PIPELINE_WEIGHT));
    Ok(Plan {
        steps: weave(weighted),
        trace_slots: 0,
        run_checks: Vec::new(),
    })
}

/// Number the operations and interleave them round by round, so
/// repeated operations are spread over the cycle instead of run back to
/// back.
fn weave(weighted: Vec<(Step, usize)>) -> Vec<Step> {
    let rounds = weighted.iter().map(|(_, w)| *w).max().unwrap_or(0);
    let weighted: Vec<(Step, usize)> = weighted
        .into_iter()
        .enumerate()
        .map(|(id, (step, w))| (Step { id, ..step }, w))
        .collect();
    (0..rounds)
        .flat_map(|round| {
            weighted
                .iter()
                .filter(move |(_, w)| round < *w)
                .map(|(step, _)| step.clone())
        })
        .collect()
}

fn golden_step(op: Op) -> Step {
    Step {
        id: 0,
        checks: reach_goldens(&op),
        op,
    }
}

/// `reach MODEL` checked against the goldens and the frozen seed
/// construction.
fn untimed_step(model: &Rc<Model>, options: &ReachOptions) -> Result<Step, String> {
    let mut step = golden_step(reach_op(model, false, None, false, options));
    step.checks.extend(legacy_check(model, options)?);
    Ok(step)
}

fn legacy_check(model: &Model, options: &ReachOptions) -> Result<Option<Check>, String> {
    let net = pnut_lang::parse(&model.text).map_err(|e| format!("{}: {e}", model.label))?;
    Ok(oracle::legacy_untimed(&net, options)?.map(Check::Legacy))
}

/// Every `verify_paged` operation runs this often per cycle, for a cycle
/// of at least [`MIN_STEPS`] operations. Sorted by latency, p50 falls in
/// the paged pipeline band and p90 in the paged `wide_toggle(13)` band.
const PAGED_WEIGHT: usize = 9;

fn plan_verify_paged(inputs: &Inputs) -> Result<Plan, String> {
    let paged = ReachOptions {
        mem_budget: PAGED_BUDGET,
        spill_dir: Some(inputs.spill_dir.clone()),
        ..ReachOptions::default()
    };
    let mut ops = Vec::new();
    for model in [
        inputs.model("three_stage")?,
        inputs.model("interpreted_analysis")?,
        inputs.wide()?,
    ] {
        ops.push(reach_op(&model, false, None, false, &paged));
    }
    ops.extend(ctl_ops(inputs, &paged, false)?);
    ops.push(reach_op(
        &inputs.model("three_stage")?,
        true,
        None,
        true,
        &paged,
    ));

    // Each paged verdict must be bit-identical to the resident one.
    let mut ctx = Ctx {
        spans: Spans::new(false),
        traces: Vec::new(),
    };
    let mut weighted = Vec::new();
    for op in ops {
        let Op::Reach {
            model,
            timed,
            ctl,
            check_invariants,
            ..
        } = &op
        else {
            unreachable!("verify_paged runs reach operations only");
        };
        let resident = reach_op(
            model,
            *timed,
            *ctl,
            *check_invariants,
            &ReachOptions::default(),
        )
        .run(&mut ctx)
        .map_err(|e| format!("resident reference for {}: {e}", model.label))?;
        let mut step = golden_step(op);
        step.checks.push(Check::Same(resident.facts));
        weighted.push((step, PAGED_WEIGHT));
    }
    Ok(Plan {
        steps: weave(weighted),
        trace_slots: 0,
        run_checks: Vec::new(),
    })
}

fn plan_markov(inputs: &Inputs) -> Result<Plan, String> {
    let issue_index = |model: &Model| -> Result<usize, String> {
        let net = pnut_lang::parse(&model.text).map_err(|e| format!("{}: {e}", model.label))?;
        net.transition_id("Issue")
            .map(|t| t.index())
            .ok_or_else(|| format!("{}: no Issue transition", model.label))
    };
    let mut steps = Vec::new();
    let references = oracle::SWEEP.iter().map(|&(_, _, i, s)| (i, s));
    let interpreted = inputs.model("interpreted_analysis")?;
    let models = inputs.sweep.iter().chain(std::iter::once(&interpreted));
    for (model, (issue, sojourn)) in models.zip(references.chain([oracle::INTERPRETED_MARKOV])) {
        steps.push(Step {
            id: 0,
            op: Op::Markov(Rc::clone(model)),
            checks: vec![
                Check::Markov {
                    index: issue_index(model)?,
                    issue,
                    sojourn,
                },
                Check::Code(0),
            ],
        });
    }
    // The seed fixes the order of the sweep, which runs twice per cycle.
    for i in (1..steps.len()).rev() {
        steps.swap(i, (derive(inputs.seed, i as u64) % (i as u64 + 1)) as usize);
    }
    Ok(Plan {
        steps: weave(steps.into_iter().map(|s| (s, 2)).collect()),
        trace_slots: 0,
        run_checks: vec![(
            "markov agrees with simulation",
            markov_agrees_with_simulation(inputs.seed),
        )],
    })
}

/// Markov vs simulation (`tests/paper_pipeline.rs`): the analytic Issue
/// throughput of the §2 model within 5% of a long simulation's.
fn markov_agrees_with_simulation(seed: u64) -> Result<(), String> {
    let config = ThreeStageConfig::default();
    let net = three_stage::build(&config).map_err(|e| e.to_string())?;
    let ss = steady_state(&net, &MarkovOptions::default()).map_err(|e| e.to_string())?;
    let issue = ss.throughput(net.transition_id("Issue").ok_or("no Issue transition")?);
    let sim = pnut_pipeline::run_experiment(&config, derive(seed, 0), AGREEMENT_CYCLES)
        .map_err(|e| e.to_string())?
        .metrics
        .instructions_per_cycle;
    if (issue - sim).abs() / sim < 0.05 {
        Ok(())
    } else {
        Err(format!("analytic Issue {issue} vs simulated {sim}"))
    }
}

fn plan_simulate(inputs: &Inputs) -> Result<Plan, String> {
    let interpreted = inputs.model("interpreted")?;
    let three_stage = inputs.model("three_stage")?;
    let net = pnut_lang::parse(&interpreted.text).map_err(|e| e.to_string())?;
    let until = Time::from_ticks(SIM_UNTIL);
    let mut steps = vec![Step {
        id: 0,
        op: Op::Fig5 {
            model: Rc::clone(&three_stage),
            seed: derive(inputs.seed, SIM_SEEDS),
            until: FIG5_UNTIL,
        },
        checks: vec![Check::Fig5Regime, Check::Code(0)],
    }];
    for slot in 0..SIM_SEEDS as usize {
        let seed = derive(inputs.seed, slot as u64);
        // The oracles work on the in-memory trace, never on JSON.
        let trace = pnut_sim::simulate(&net, seed, until).map_err(|e| e.to_string())?;
        let mut streamed = pnut_stat::StatCollector::new();
        pnut_sim::Simulator::new(&net, seed)
            .and_then(|mut s| s.run(until, &mut streamed))
            .map_err(|e| e.to_string())?;
        let streamed = streamed.into_report().ok_or("collector saw no run")?;
        let measured = ops::measure_trace(&mut Spans::new(false), &trace)?;
        steps.push(Step {
            id: 0,
            op: Op::Sim {
                model: Rc::clone(&interpreted),
                seed,
                until: SIM_UNTIL,
                slot,
                out: format!("trace_{slot}.json"),
            },
            checks: vec![
                Check::Same(Facts::Trace {
                    deltas: trace.deltas().len(),
                }),
                Check::Code(0),
            ],
        });
        steps.push(Step {
            id: 0,
            op: Op::Stat { slot },
            checks: vec![Check::Same(Facts::Stat(streamed)), Check::Code(0)],
        });
        steps.push(Step {
            id: 0,
            op: Op::Query { slot },
            checks: vec![Check::Same(Facts::Query { holds: true }), Check::Code(0)],
        });
        steps.push(Step {
            id: 0,
            op: Op::Measure { slot },
            checks: vec![Check::Stdout(measured.stdout), Check::Code(0)],
        });
    }
    Ok(Plan {
        steps: weave(steps.into_iter().map(|s| (s, 1)).collect()),
        trace_slots: SIM_SEEDS as usize,
        run_checks: Vec::new(),
    })
}
