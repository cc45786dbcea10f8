//! Reachability-based verification of the pipeline models: boundedness,
//! absence of deadlock, and CTL properties — the paper's §4 "other
//! tools" exercised on the §2 system.

use pnut::core::NetBuilder;
use pnut::pipeline::{three_stage, ThreeStageConfig};
use pnut::reach::{ctl, graph};

fn untimed(net: &pnut::core::Net) -> graph::ReachabilityGraph {
    graph::build_untimed(net, &graph::ReachOptions::default()).expect("bounded")
}

#[test]
fn full_pipeline_model_is_bounded_and_deadlock_free() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let mut g = untimed(&net);
    assert!(g.state_count() > 10, "nontrivial state space");
    assert!(
        g.deadlocks().expect("paged sweep").is_empty(),
        "the pipeline must never deadlock: {:?}",
        g.deadlocks()
    );
    // Boundedness facts: the bus is 1-safe, the buffer 6-bounded.
    let bounds = g.place_bounds().expect("paged sweep");
    let bound_of = |name: &str| bounds[net.place_id(name).expect("exists").index()];
    assert_eq!(bound_of("Bus_busy"), 1);
    assert_eq!(bound_of("Bus_free"), 1);
    assert_eq!(bound_of("Full_I_buffers"), 6);
    assert_eq!(bound_of("Empty_I_buffers"), 6);
    assert_eq!(bound_of("Execution_unit"), 1);
    assert_eq!(bound_of("Decoder_ready"), 1);
}

#[test]
fn every_transition_of_the_pipeline_can_fire() {
    // L1-liveness: the model contains no dead transitions.
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let mut g = untimed(&net);
    for (tid, t) in net.transitions() {
        assert!(
            pnut_bench::fires(&mut g, tid).expect("paged sweep"),
            "transition `{}` can never fire",
            t.name()
        );
    }
}

#[test]
fn ctl_invariants_of_the_pipeline() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let mut g = untimed(&net);
    for (formula, expect) in [
        // The §4.4 invariant, proved over *all* behaviours here, not
        // just one trace.
        ("AG (Bus_free + Bus_busy = 1)", true),
        ("AG (Empty_I_buffers + Full_I_buffers <= 6)", true),
        // The buffer can fill completely...
        ("EF (Full_I_buffers = 6)", true),
        // ...and the decoder can always eventually get a new instruction.
        ("AG EF (Decoded_instruction = 1)", true),
        // The bus is always eventually freed, over all behaviours
        // (AG AF would be false only with an execution starving the bus).
        ("AG (Bus_busy = 1 -> EF (Bus_free = 1))", true),
        // At most one instruction is ever in the execution unit.
        ("AG (Issued_instruction + Executed <= 1)", true),
        // Sanity: something that must be false.
        ("AG (Bus_busy = 0)", false),
        ("EF (Full_I_buffers = 7)", false),
    ] {
        let f = ctl::Formula::parse(formula).expect("parses");
        let outcome = ctl::check(&mut g, &net, &f).expect("checks");
        assert_eq!(
            outcome.holds_initially, expect,
            "CTL formula `{formula}` expected {expect}"
        );
    }
}

/// A checked-in model from `models/`.
fn model(name: &str) -> pnut::core::Net {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("models")
        .join(format!("{name}.pn"));
    let text = std::fs::read_to_string(path).expect("model file exists");
    pnut::lang::parse(&text).expect("parses")
}

/// Formula text, whether it holds initially, and how many states satisfy
/// it.
type Row = (&'static str, bool, usize);

/// Formula text → (holds initially, satisfying states) on the checked-in
/// models, untimed (`false`) or timed (`true`). The rows cover every
/// operator, the precedence of `*` over `+`/`-`, of `not` over `and`
/// over `or` over `->`, left-associative `-` and right-associative
/// `->`, parenthesized terms against parenthesized formulas, bare names
/// (`P` means `P > 0`), and transition names (in-flight firings on the
/// timed graph, always 0 on the untimed one). Pairs that group the same
/// text differently have different answers.
const CTL_TABLE: &[(&str, bool, &[Row])] = &[
    (
        "sequential",
        false,
        &[
            ("true", true, 19),
            ("false", false, 0),
            ("CPU = 1", true, 1),
            ("CPU == 1", true, 1),
            ("CPU != 1", false, 18),
            ("CPU < 1", false, 18),
            ("CPU <= 0", false, 18),
            ("CPU > 0", true, 1),
            ("CPU >= 1", true, 1),
            ("0 < CPU", true, 1),
            ("CPU", true, 1),
            ("not CPU", false, 18),
            ("not not CPU", true, 1),
            ("CPU + ifetching <= 1", true, 19),
            ("AG (CPU + ifetching <= 1)", true, 19),
            ("AG (CPU = 7)", false, 0),
            ("AG(CPU+ifetching<=1)", true, 19),
            ("1 + 2 * CPU = 1", false, 18),
            ("(1 + 2) * CPU = 1", false, 0),
            ("2 * CPU + 3 * Bus_free - Bus_busy = 5", true, 1),
            ("Bus_free - Bus_busy - CPU = 0 - 1", false, 5),
            ("Bus_free - (Bus_busy - CPU) = 1", false, 13),
            ("Bus_free - Bus_busy - CPU = 0", true, 1),
            ("Bus_free - (Bus_busy - CPU) = 0", false, 0),
            ("CPU * CPU * 3 = 3", true, 1),
            ("(CPU) = 1", true, 1),
            ("(CPU) + 1 > 1", true, 1),
            ("(CPU + ifetching) * 2 = 2", true, 2),
            ("((CPU + Bus_free)) > 1", true, 1),
            ("(CPU = 1)", true, 1),
            ("((CPU))", true, 1),
            ("(CPU) and (Bus_free)", true, 1),
            ("(CPU = 1) and (Bus_free = 1)", true, 1),
            ("((CPU = 1) or (Bus_busy = 1)) and not (ifetching)", true, 5),
            ("CPU = 1 and Bus_free = 1 or Bus_busy = 1", true, 6),
            ("CPU = 1 or Bus_free = 1 and Bus_busy = 1", true, 1),
            ("(CPU = 1 or Bus_free = 1) and Bus_busy = 1", false, 0),
            ("not CPU = 1 and Bus_free = 1", false, 13),
            ("not (CPU = 1 and Bus_free = 1)", false, 18),
            ("false or CPU = 1 -> Bus_busy = 1", false, 18),
            ("CPU = 1 -> Bus_free = 0 -> false", true, 19),
            ("(CPU = 1 -> Bus_free = 0) -> false", true, 1),
            ("CPU -> Bus_free -> Retired", false, 18),
            ("(CPU -> Bus_free) -> Retired", false, 1),
            ("EX (ifetching = 1)", true, 1),
            ("AX (ifetching = 1)", true, 1),
            ("EF (Retired = 1)", true, 19),
            ("AF (Retired = 1)", true, 19),
            ("EG (Retired = 0)", false, 0),
            ("EG CPU", false, 0),
            ("AG (Bus_free + Bus_busy = 1)", true, 19),
            ("E [ CPU = 1 U ifetching = 1 ]", true, 2),
            ("E[CPU=1 U ifetching=1]", true, 2),
            ("A [ true U Retired = 1 ]", true, 19),
            ("A [ Retired = 0 U CPU = 0 ]", true, 19),
            ("A [ CPU = 1 -> true U CPU = 0 ]", true, 19),
            ("E [ not Retired U Retired and CPU ]", false, 0),
            ("AG EF (CPU = 1)", true, 19),
            ("EF EG (CPU = 0)", false, 0),
            ("AG (ifetching = 1 -> AF (Fetched = 1))", true, 19),
            ("not EX not CPU", false, 1),
            ("EX EX EX CPU", false, 2),
            ("AX AX ifetching", false, 1),
            ("AG AX (Bus_free + Bus_busy = 1)", true, 19),
            (
                "EF (S2_calc + S3_calc > 0) and AG (S2_calc * S3_calc = 0)",
                true,
                19,
            ),
            ("AG (retire = 0)", true, 19),
            ("EF retire", false, 0),
        ],
    ),
    (
        "sequential",
        true,
        &[
            ("EF (decode = 1)", true, 32),
            ("decode", false, 1),
            ("AG (decode + Fetched + DecodedS <= 1)", true, 32),
            (
                "EF (exec_s_1 + exec_s_2 + exec_s_3 + exec_s_4 + exec_s_5 = 1)",
                true,
                32,
            ),
            ("AG (decode -> not CPU)", true, 32),
            ("AG (calc_eaddr_s2 -> AF S3_wait)", true, 32),
            ("E [ not decode U exec_s_5 ]", false, 18),
            ("A [ CPU U ifetching ]", true, 3),
        ],
    ),
    (
        "pager_protocol",
        false,
        &[
            ("AG (lock_free + lock_held = 1)", true, 21),
            ("EF (W_crit = 2)", false, 0),
            ("AG (W_crit <= 1)", true, 21),
            (
                "AG (W_idle + W_probe + W_wait + W_crit + W_read = 2)",
                true,
                21,
            ),
            ("E [ W_idle = 2 U W_crit = 1 ]", false, 6),
            ("AG (W_wait -> AF W_crit)", false, 0),
            ("AG EF seg_resident", true, 21),
        ],
    ),
    (
        "three_stage",
        false,
        &[
            ("AG (Bus_free + Bus_busy = 1)", true, 614),
            ("EF (Full_I_buffers = 6)", true, 614),
            ("AG EF (Decoded_instruction = 1)", true, 614),
            (
                "Empty_I_buffers + Full_I_buffers + 2 * pre_fetching = 6",
                true,
                614,
            ),
            (
                "AG (Empty_I_buffers + Full_I_buffers + 2 * pre_fetching <= 6)",
                true,
                614,
            ),
            ("EG (Full_I_buffers >= 2)", false, 418),
            ("AF (Issued_instruction = 1)", true, 614),
            ("A [ Executed = 0 U Issued_instruction = 1 ]", true, 478),
        ],
    ),
];

#[test]
fn ctl_formula_table_on_the_checked_in_models() {
    for &(name, timed, rows) in CTL_TABLE {
        let net = model(name);
        let options = graph::ReachOptions::default();
        let mut g = if timed {
            graph::build_timed(&net, &options)
        } else {
            graph::build_untimed(&net, &options)
        }
        .expect("bounded");
        for &(text, holds, count) in rows {
            let f = ctl::Formula::parse(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            let outcome = ctl::check(&mut g, &net, &f).expect("checks");
            assert_eq!(
                (outcome.holds_initially, outcome.count()),
                (holds, count),
                "{name} (timed: {timed}): `{text}`"
            );
        }
    }
}

#[test]
fn timed_reachability_of_a_pipeline_fragment() {
    // The decode/issue fragment with constant firing times admits a
    // timed graph; check that in-flight decoding is visible as state.
    let mut b = NetBuilder::new("fragment");
    b.place("Full_I_buffers", 2);
    b.place("Decoder_ready", 1);
    b.place("Decoded", 0);
    b.place("Done", 0);
    b.transition("Decode")
        .input("Full_I_buffers")
        .input("Decoder_ready")
        .output("Decoded")
        .firing(1)
        .add();
    b.transition("Issue")
        .input("Decoded")
        .output("Decoder_ready")
        .output("Done")
        .add();
    let net = b.build().expect("builds");
    let mut g = graph::build_timed(&net, &graph::ReachOptions::default()).expect("bounded");
    assert!(
        (4..=16).contains(&g.state_count()),
        "small timed graph, got {}",
        g.state_count()
    );
    // Some state has Decode in flight.
    let decode = net.transition_id("Decode").expect("exists");
    assert!((0..g.state_count()).any(|i| {
        g.state(i)
            .expect("resident graph")
            .in_flight
            .iter()
            .any(|&(t, _)| t == decode)
    }));
    // Terminal state: both instructions done.
    let done = net.place_id("Done").expect("exists");
    let deadlocks = g.deadlocks().expect("paged sweep");
    assert_eq!(deadlocks.len(), 1);
    assert_eq!(
        g.state(deadlocks[0])
            .expect("resident graph")
            .marking
            .tokens(done),
        2
    );
}

#[test]
fn interpreted_model_reachability_is_rejected_randomness() {
    // The §3 model uses irand in its decode action: reachability must
    // refuse it rather than silently linearize the distribution.
    let net = pnut::pipeline::interpreted::build(
        &pnut::pipeline::interpreted::InterpretedConfig::default(),
    )
    .expect("builds");
    assert_eq!(
        graph::build_untimed(&net, &graph::ReachOptions::default()).unwrap_err(),
        graph::ReachError::UsesRandom
    );
}

#[test]
fn structural_and_reachability_bounds_agree_on_the_bus() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    // Structural: the bus group is conservative.
    let group = [
        net.place_id("Bus_free").expect("exists"),
        net.place_id("Bus_busy").expect("exists"),
    ];
    assert!(pnut::core::analysis::conservation_violations(&net, &group).is_empty());
    // Reachability: therefore the group sum is the initial sum in every
    // state.
    let g = untimed(&net);
    for i in 0..g.state_count() {
        let s = g.state(i).expect("resident graph");
        assert_eq!(
            s.marking.tokens(group[0]) + s.marking.tokens(group[1]),
            1,
            "state {i}"
        );
    }
}

#[test]
fn invariant_basis_contains_the_bus_conservation_law() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let invariants = pnut::core::invariant::p_invariants(&net);
    assert!(!invariants.is_empty(), "the pipeline has conservation laws");
    for inv in &invariants {
        assert!(pnut::core::invariant::verify_p_invariant(
            &net,
            &inv.weights
        ));
    }
    // The §4.4 bus law is itself a P-invariant (every transition moves
    // the bus token between exactly these two places), provable
    // algebraically without any state exploration:
    let free = net.place_id("Bus_free").expect("exists").index();
    let busy = net.place_id("Bus_busy").expect("exists").index();
    let mut canonical = vec![0i64; net.place_count()];
    canonical[free] = 1;
    canonical[busy] = 1;
    assert!(
        pnut::core::invariant::verify_p_invariant(&net, &canonical),
        "Bus_free + Bus_busy is conserved"
    );
    // And the computed basis spans laws touching the bus.
    assert!(
        invariants
            .iter()
            .any(|i| i.weights[free] != 0 || i.weights[busy] != 0),
        "some basis law must involve the bus"
    );
    // And every invariant's token sum is conserved along a simulated run.
    let trace = pnut::sim::simulate(&net, 5, pnut::core::Time::from_ticks(500)).expect("runs");
    let states: Vec<_> = trace.states().collect();
    for inv in &invariants {
        let expect = inv.token_sum(&states[0].marking);
        // Firing times move tokens into transitions; conservation holds
        // exactly at quiescent points, so check only states where no
        // firing is in flight.
        for s in &states {
            if s.firing_counts.iter().all(|&c| c == 0) {
                assert_eq!(
                    inv.token_sum(&s.marking),
                    expect,
                    "invariant violated at quiescent state {}",
                    s.index
                );
            }
        }
    }
}

#[test]
fn coverability_agrees_with_reachability_on_a_plain_fragment() {
    // The prefetch fragment without inhibitors is a plain net: both
    // tools must agree it is bounded with the same buffer bounds.
    let mut b = NetBuilder::new("prefetch_plain");
    b.place("Bus_free", 1);
    b.place("Bus_busy", 0);
    b.place("Empty_I_buffers", 6);
    b.place("Full_I_buffers", 0);
    b.place("pre_fetching", 0);
    b.transition("Start_prefetch")
        .input("Bus_free")
        .input_weighted("Empty_I_buffers", 2)
        .output("Bus_busy")
        .output("pre_fetching")
        .add();
    b.transition("End_prefetch")
        .input("Bus_busy")
        .input("pre_fetching")
        .output("Bus_free")
        .output_weighted("Full_I_buffers", 2)
        .add();
    b.transition("Consume")
        .input("Full_I_buffers")
        .output("Empty_I_buffers")
        .add();
    let net = b.build().expect("builds");

    let mut g = untimed(&net);
    let tree = pnut::reach::coverability::coverability_tree(
        &net,
        &pnut::reach::coverability::CoverOptions::default(),
    )
    .expect("plain net");
    assert!(!tree.is_unbounded());
    let bounds = g.place_bounds().expect("paged sweep");
    for (pid, p) in net.places() {
        assert_eq!(
            tree.place_bound(pid),
            Some(bounds[pid.index()]),
            "bound mismatch on {}",
            p.name()
        );
    }
}
