//! Correctness oracles. Every expected value here comes from outside the
//! code under test: goldens the repository's tests pin, the frozen seed
//! construction (`pnut_bench::legacy_reach`), an independent run of the
//! same verdict under other settings, or reference values stored below.

use crate::ops::{Facts, Outcome, ReachFacts};
use pnut_bench::legacy_reach;
use pnut_core::Net;
use pnut_reach::graph::{ReachError, ReachOptions};
use pnut_stat::StatReport;

/// Golden graph sizes: `(model, timed, states, edges, deadlocks)`.
const GRAPHS: &[(&str, bool, usize, usize, usize)] = &[
    ("models/three_stage.pn", false, 614, 1988, 0),
    ("models/interpreted_analysis.pn", false, 3383, 8887, 0),
    ("models/sequential.pn", false, 19, 26, 0),
    ("models/pager_protocol.pn", false, 21, 36, 0),
    ("wide_toggle(13)", false, 8192, 53_248, 1),
    ("models/three_stage.pn", true, 3391, 4876, 0),
    ("models/interpreted_analysis.pn", true, 638, 984, 0),
];

/// Golden CTL verdicts: `(model, formula, holds, satisfying states)`.
/// The formula sets are those of `tests/paged_analysis.rs` and
/// `tests/pager_protocol_model.rs`, which pin the verdicts.
pub const CTL: &[(&str, &str, bool, usize)] = &[
    (
        "models/three_stage.pn",
        "AG (Bus_free + Bus_busy = 1)",
        true,
        3391,
    ),
    (
        "models/three_stage.pn",
        "EF (Full_I_buffers = 6)",
        true,
        3391,
    ),
    (
        "models/three_stage.pn",
        "AG (Bus_busy = 1 -> AF (Bus_free = 1))",
        true,
        3391,
    ),
    (
        "models/interpreted_analysis.pn",
        "AG (Bus_free + Bus_busy = 1)",
        true,
        638,
    ),
    (
        "models/interpreted_analysis.pn",
        "AG EF (ready_to_issue_instruction = 0)",
        true,
        638,
    ),
    ("wide_toggle(13)", "AG (u0 + d0 = 1)", true, 8192),
    ("wide_toggle(13)", "EF (d0 = 1 and d12 = 1)", true, 8192),
    ("wide_toggle(13)", "AG EF (d12 = 1)", true, 8192),
    (
        "models/pager_protocol.pn",
        "AG (lock_free + lock_held = 1)",
        true,
        21,
    ),
    ("models/pager_protocol.pn", "AG (lock_held <= 1)", true, 21),
    ("models/pager_protocol.pn", "AG (W_crit <= 1)", true, 21),
    (
        "models/pager_protocol.pn",
        "AG (seg_resident <= 1)",
        true,
        21,
    ),
    (
        "models/pager_protocol.pn",
        "AG (W_read >= 1 -> seg_resident = 1)",
        true,
        21,
    ),
    (
        "models/pager_protocol.pn",
        "AG (W_idle + W_probe + W_wait + W_crit + W_read = 2)",
        true,
        21,
    ),
    ("models/pager_protocol.pn", "EF (W_read = 2)", true, 21),
    (
        "models/pager_protocol.pn",
        "EF (W_read + W_crit = 2)",
        true,
        21,
    ),
    (
        "models/pager_protocol.pn",
        "AG EF (seg_resident = 0)",
        true,
        21,
    ),
    (
        "models/pager_protocol.pn",
        "AG (seg_resident = 0)",
        false,
        0,
    ),
    ("models/pager_protocol.pn", "EF (lock_held = 2)", false, 0),
];

/// `reach models/three_stage.pn --timed --check-invariants`:
/// `(invariants, states checked, mid-firing states skipped)`.
pub const THREE_STAGE_INVARIANTS: (usize, u64, u64) = (5, 865, 2526);

/// The §2 design sweep of `markov`: `(mem_access_cycles, cache
/// hit_ratio, Issue throughput, mean sojourn)`. Every point fits the
/// default 20 000-state cap; the values are the steady state at the
/// commit that introduced this benchmark and must hold to 1e-9.
pub const SWEEP: &[(u64, f64, f64, f64)] = &[
    (1, 0.0, 0.1766940542452859, 0.5462574200082829),
    (1, 0.25, 0.17669405424532209, 0.4938266218744992),
    (1, 0.5, 0.17669405424532217, 0.49382662187449866),
    (1, 0.75, 0.17669405424532209, 0.4938266218744989),
    (1, 0.9, 0.17669405424532214, 0.4938266218744992),
    (1, 0.99, 0.1766940542453221, 0.4938266218744991),
    (2, 0.0, 0.16049671188478928, 0.6004629149559131),
    (2, 0.25, 0.16424748301286282, 0.5305650192151254),
    (2, 0.5, 0.16818752808170342, 0.5182720591082878),
    (2, 0.75, 0.17233112815286766, 0.5060271084581506),
    (2, 0.9, 0.1749214876275354, 0.49870171568878424),
    (2, 0.99, 0.17651511305957535, 0.49431383387421685),
    (3, 0.0, 0.14374842942589838, 0.6598188330554525),
    (3, 0.25, 0.15090113046954926, 0.5714403677411041),
    (3, 0.5, 0.15871332789820985, 0.5454803550663218),
    (3, 0.75, 0.16727497758624793, 0.5196070249398604),
    (3, 0.9, 0.17281574806399286, 0.5041271869597973),
    (3, 0.99, 0.17629927580616056, 0.49485596544345617),
    (4, 0.0, 0.12947180309825043, 0.7340238219847312),
    (4, 0.25, 0.13888543637993045, 0.6219397595814775),
    (4, 0.5, 0.14967174146661766, 0.5791964444806778),
    (4, 0.75, 0.1621376998733171, 0.5364598181959731),
    (4, 0.9, 0.17058884411638686, 0.510862477134266),
    (4, 0.99, 0.176065241233389, 0.4955290062398271),
    (5, 0.0, 0.11688718483755298, 0.8087164849583846),
    (5, 0.25, 0.12772120422156705, 0.6735426102421644),
    (5, 0.5, 0.14078654115481726, 0.613878127650619),
    (5, 0.75, 0.15676729778977316, 0.5539058489304564),
    (5, 0.9, 0.16816372603881688, 0.5178621756203514),
    (5, 0.99, 0.17580360586039576, 0.49623016072898857),
    (6, 0.0, 0.10617941828985641, 0.8870581602594377),
    (6, 0.25, 0.11787677945741097, 0.7282325158612376),
    (6, 0.5, 0.132602239780516, 0.6509076108334386),
    (6, 0.75, 0.15154553321563674, 0.572627076411704),
    (6, 0.9, 0.16571222599790333, 0.5253902937410483),
    (6, 0.99, 0.1755321117550304, 0.4969850817004427),
    (8, 0.0, 0.08905136894077978, 1.0523164894607393),
    (8, 0.25, 0.10148203738495601, 0.8434063090062011),
    (8, 0.5, 0.11820836276458767, 0.7289088449774374),
    (8, 0.75, 0.14166161936510563, 0.6121046769078681),
    (8, 0.9, 0.16080075261484744, 0.5412790761251934),
    (8, 0.99, 0.17496586068939626, 0.49857936931832053),
    (10, 0.0, 0.07615495060766796, 1.229748614342397),
    (10, 0.25, 0.08859512693752886, 0.9660572465124645),
    (10, 0.5, 0.10617032729787733, 0.8116507682562849),
    (10, 0.75, 0.13262557833909974, 0.6538662358521146),
    (10, 0.9, 0.15596951905083062, 0.5580662901949486),
    (10, 0.99, 0.17437773911159804, 0.5002627819236508),
    (12, 0.0, 0.06632813049071604, 1.4096015684512961),
    (12, 0.25, 0.07840343205724308, 1.0905283814551576),
    (12, 0.5, 0.0961438345423701, 0.8957483785324698),
    (12, 0.75, 0.12449277173227795, 0.6963908302567747),
    (12, 0.9, 0.1513135602692368, 0.5751792508502369),
    (12, 0.99, 0.17377952015786882, 0.5019799665614489),
    (16, 0.0, 0.05251447112172008, 1.7768668816635425),
    (16, 0.25, 0.06353432476258448, 1.3442426227553823),
    (16, 0.5, 0.08064868836327262, 1.0671561064909858),
    (16, 0.75, 0.1106722283454908, 0.7831275527782172),
    (16, 0.9, 0.1426364527140173, 0.6101028534253766),
    (16, 0.99, 0.17257257178630753, 0.5054854001660009),
];

/// `markov models/interpreted_analysis.pn`: Issue throughput and mean
/// sojourn.
pub const INTERPRETED_MARKOV: (f64, f64) = (0.08841638556435363, 0.6903501810264239);

const MARKOV_TOLERANCE: f64 = 1e-9;

/// One expectation on an operation's [`Outcome`].
#[derive(Debug, Clone)]
pub enum Check {
    /// The verb's exit code.
    Code(i32),
    /// Golden graph size and deadlock count.
    Graph {
        states: usize,
        edges: usize,
        deadlocks: usize,
    },
    /// Golden CTL verdict and satisfying-set size.
    Ctl {
        holds: bool,
        count: usize,
    },
    Invariants((usize, u64, u64)),
    /// The untimed graph of the frozen seed construction: sizes, the
    /// deadlock states and the place bounds.
    Legacy(ReachFacts),
    /// The same typed verdict as an independent run (resident vs paged,
    /// streamed vs read back).
    Same(Facts),
    /// The same stdout as the verb run on the in-memory trace.
    Stdout(String),
    LintClean,
    /// Throughput of transition `index` (Issue) and the mean sojourn,
    /// within 1e-9.
    Markov {
        index: usize,
        issue: f64,
        sojourn: f64,
    },
    /// The Figure-5 run lands in the paper's regime
    /// (`tests/paper_pipeline.rs`).
    Fig5Regime,
}

fn reach_facts(outcome: &Outcome) -> Result<&ReachFacts, String> {
    match &outcome.facts {
        Facts::Reach(f) => Ok(f),
        other => Err(format!("expected a reach verdict, got {other:?}")),
    }
}

impl Check {
    pub fn verify(&self, outcome: &Outcome) -> Result<(), String> {
        match self {
            Check::Code(code) if outcome.code != *code => {
                Err(format!("exit code {} (expected {code})", outcome.code))
            }
            Check::Graph {
                states,
                edges,
                deadlocks,
            } => {
                let f = reach_facts(outcome)?;
                let got = (f.states, f.edges, f.deadlocks.len());
                if got == (*states, *edges, *deadlocks) {
                    Ok(())
                } else {
                    Err(format!(
                        "states/edges/deadlocks {got:?}, golden {:?}",
                        (states, edges, deadlocks)
                    ))
                }
            }
            Check::Ctl { holds, count } => {
                let f = reach_facts(outcome)?;
                let got = (
                    f.holds,
                    f.satisfying
                        .as_ref()
                        .map(|s| s.iter().filter(|&&b| b).count()),
                );
                if got == (Some(*holds), Some(*count)) {
                    Ok(())
                } else {
                    Err(format!("CTL {got:?}, golden {:?}", (holds, count)))
                }
            }
            Check::Invariants(want) => {
                let f = reach_facts(outcome)?;
                if f.invariants == Some(*want) {
                    Ok(())
                } else {
                    Err(format!("invariants {:?}, golden {want:?}", f.invariants))
                }
            }
            Check::Legacy(want) => {
                let f = reach_facts(outcome)?;
                let got = (f.states, f.edges, &f.deadlocks, &f.bounds);
                if got == (want.states, want.edges, &want.deadlocks, &want.bounds) {
                    Ok(())
                } else {
                    Err(format!("{got:?} disagrees with legacy_reach {want:?}"))
                }
            }
            Check::Same(facts) if outcome.facts != *facts => {
                Err("verdict differs from the independent run".to_string())
            }
            Check::Stdout(text) if outcome.stdout != *text => {
                Err("stdout differs from the in-memory run".to_string())
            }
            Check::LintClean if !matches!(outcome.facts, Facts::Lint { errors: 0 }) => {
                Err(format!("lint reported errors: {}", outcome.stdout))
            }
            Check::Markov {
                index,
                issue,
                sojourn,
            } => {
                let Facts::Markov(ss) = &outcome.facts else {
                    return Err("expected a markov verdict".into());
                };
                let got_issue = ss
                    .transition_throughput
                    .get(*index)
                    .copied()
                    .unwrap_or(f64::NAN);
                if (got_issue - issue).abs() <= MARKOV_TOLERANCE
                    && (ss.mean_sojourn - sojourn).abs() <= MARKOV_TOLERANCE
                {
                    Ok(())
                } else {
                    Err(format!(
                        "Issue {got_issue} / sojourn {} vs reference {issue} / {sojourn}",
                        ss.mean_sojourn
                    ))
                }
            }
            Check::Fig5Regime => {
                let Facts::Stat(r) = &outcome.facts else {
                    return Err("expected a statistics report".into());
                };
                fig5_regime(r)
            }
            _ => Ok(()),
        }
    }
}

/// `tests/paper_pipeline.rs`: IPC near the paper's 0.124, bus busy near
/// 0.66, and fewer than ten firings in flight at the horizon.
fn fig5_regime(r: &StatReport) -> Result<(), String> {
    let ipc = r.transition("Issue").map(|t| t.throughput);
    let bus = r.place("Bus_busy").map(|p| p.avg_tokens);
    match (ipc, bus) {
        (Some(ipc), Some(bus))
            if (0.08..=0.16).contains(&ipc)
                && (0.5..=0.8).contains(&bus)
                && r.events_started >= r.events_finished
                && r.events_started - r.events_finished < 10 =>
        {
            Ok(())
        }
        _ => Err(format!(
            "Figure-5 run outside the paper's regime: IPC {ipc:?}, bus {bus:?}"
        )),
    }
}

pub fn graph_golden(label: &str, timed: bool) -> Option<Check> {
    GRAPHS
        .iter()
        .find(|g| g.0 == label && g.1 == timed)
        .map(|&(_, _, states, edges, deadlocks)| Check::Graph {
            states,
            edges,
            deadlocks,
        })
}

pub fn ctl_golden(label: &str, formula: &str) -> Option<Check> {
    CTL.iter()
        .find(|c| c.0 == label && c.1 == formula)
        .map(|&(_, _, holds, count)| Check::Ctl { holds, count })
}

/// The untimed verdict of the frozen seed construction, or `None` when
/// the net outgrows the cap.
pub fn legacy_untimed(net: &Net, options: &ReachOptions) -> Result<Option<ReachFacts>, String> {
    let g = match legacy_reach::build_untimed(net, options) {
        Ok(g) => g,
        Err(ReachError::StateLimit { .. }) => return Ok(None),
        Err(e) => return Err(format!("legacy_reach on `{}`: {e}", net.name())),
    };
    let mut bounds = vec![0u32; net.place_count()];
    let mut deadlocks = Vec::new();
    for i in 0..g.state_count() {
        for (b, &t) in bounds.iter_mut().zip(g.state(i).marking.as_slice()) {
            *b = (*b).max(t);
        }
        if g.successors(i).is_empty() {
            deadlocks.push(i);
        }
    }
    Ok(Some(ReachFacts {
        states: g.state_count(),
        edges: g.edge_count(),
        deadlocks,
        bounds,
        satisfying: None,
        holds: None,
        invariants: None,
    }))
}
