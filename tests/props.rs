//! Property-based tests over randomly generated nets and expressions.

use pnut::core::{Expr, NetBuilder, Time};
use proptest::prelude::*;

/// A randomly generated (but always well-formed) net description.
#[derive(Debug, Clone)]
struct RandomNet {
    places: Vec<u32>,
    transitions: Vec<RandomTransition>,
}

#[derive(Debug, Clone)]
struct RandomTransition {
    inputs: Vec<(usize, u32)>,
    outputs: Vec<(usize, u32)>,
    inhibitors: Vec<usize>,
    firing: u64,
    enabling: u64,
    frequency: f64,
}

fn arb_net() -> impl Strategy<Value = RandomNet> {
    (1usize..5).prop_flat_map(|nplaces| {
        let place_tokens = proptest::collection::vec(0u32..4, nplaces);
        let transition = (
            proptest::collection::vec((0..nplaces, 1u32..3), 0..3),
            proptest::collection::vec((0..nplaces, 1u32..3), 0..3),
            proptest::collection::vec(0..nplaces, 0..2),
            0u64..4,
            0u64..4,
            0.25f64..4.0,
        )
            .prop_map(
                |(inputs, outputs, inhibitors, firing, enabling, frequency)| RandomTransition {
                    inputs,
                    outputs,
                    inhibitors,
                    firing,
                    enabling,
                    frequency,
                },
            );
        (place_tokens, proptest::collection::vec(transition, 1..5)).prop_map(
            |(places, transitions)| RandomNet {
                places,
                transitions,
            },
        )
    })
}

fn build(spec: &RandomNet) -> pnut::core::Net {
    let mut b = NetBuilder::new("random");
    for (i, &tokens) in spec.places.iter().enumerate() {
        b.place(format!("p{i}"), tokens);
    }
    for (i, t) in spec.transitions.iter().enumerate() {
        let mut tb = b.transition(format!("t{i}"));
        // Dedup inputs/outputs per place by accumulating weights, since
        // the builder allows duplicates but equality on round-trips is
        // cleaner without them.
        for &(p, w) in &t.inputs {
            tb = tb.input_weighted(format!("p{p}"), w);
        }
        for &(p, w) in &t.outputs {
            tb = tb.output_weighted(format!("p{p}"), w);
        }
        for &p in &t.inhibitors {
            tb = tb.inhibitor(format!("p{p}"));
        }
        // Input-free transitions are always enabled, so without an
        // enabling delay they would (correctly) trip the engine's
        // instant-livelock guard; space their starts by >= 1 tick.
        let enabling = if t.inputs.is_empty() {
            t.enabling.max(1)
        } else {
            t.enabling
        };
        tb.firing(t.firing)
            .enabling(enabling)
            .frequency(t.frequency)
            .add();
    }
    b.build().expect("generated nets are well-formed")
}

/// Simulate, treating an instant-livelock rejection (a Zeno model the
/// generator can produce: zero-delay token-gaining loops) as a skip —
/// the engine is *specified* to reject those models.
fn sim_or_skip(net: &pnut::core::Net, seed: u64, ticks: u64) -> Option<pnut::trace::RecordedTrace> {
    match pnut::sim::simulate(net, seed, Time::from_ticks(ticks)) {
        Ok(t) => Some(t),
        Err(pnut::sim::SimError::InstantLivelock { .. }) => None,
        Err(e) => panic!("unexpected simulation failure: {e}"),
    }
}

/// Net effect on the marking of one complete firing of `t`.
fn net_effect(net: &pnut::core::Net, tid: pnut::core::TransitionId, places: usize) -> Vec<i64> {
    let mut eff = vec![0i64; places];
    let t = net.transition(tid);
    for &(p, w) in t.inputs() {
        eff[p.index()] -= i64::from(w);
    }
    for &(p, w) in t.outputs() {
        eff[p.index()] += i64::from(w);
    }
    eff
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Final marking = initial + Σ effects of finished firings + pending
    /// input-removals of unfinished firings: the fundamental token
    /// conservation law of the firing rule.
    #[test]
    fn token_conservation(spec in arb_net(), seed in 0u64..1000) {
        let net = build(&spec);
        let Some(trace) = sim_or_skip(&net, seed, 60) else { return Ok(()); };
        let report = pnut::stat::analyze(&trace);
        let places = net.place_count();
        let mut expected: Vec<i64> = net
            .initial_marking()
            .as_slice()
            .iter()
            .map(|&t| i64::from(t))
            .collect();
        for (tid, t) in net.transitions() {
            let stats = report.transition(t.name()).expect("in report");
            let eff = net_effect(&net, tid, places);
            for (e, x) in expected.iter_mut().zip(&eff) {
                *e += x * stats.ends as i64;
            }
            // Unfinished firings removed inputs but produced nothing.
            let unfinished = (stats.starts - stats.ends) as i64;
            for &(p, w) in t.inputs() {
                expected[p.index()] -= i64::from(w) * unfinished;
            }
        }
        let last = trace.states().last().expect("at least initial");
        let actual: Vec<i64> = last
            .marking
            .as_slice()
            .iter()
            .map(|&t| i64::from(t))
            .collect();
        prop_assert_eq!(actual, expected);
    }

    /// Statistics are internally consistent: min <= avg <= max,
    /// std-dev finite, starts >= ends, throughput = ends / length.
    #[test]
    fn stat_identities(spec in arb_net(), seed in 0u64..1000) {
        let net = build(&spec);
        let Some(trace) = sim_or_skip(&net, seed, 80) else { return Ok(()); };
        let report = pnut::stat::analyze(&trace);
        let length = report.length.ticks() as f64;
        for p in &report.places {
            prop_assert!(f64::from(p.min_tokens) <= p.avg_tokens + 1e-9);
            prop_assert!(p.avg_tokens <= f64::from(p.max_tokens) + 1e-9);
            prop_assert!(p.std_dev.is_finite() && p.std_dev >= 0.0);
        }
        for t in &report.transitions {
            prop_assert!(t.starts >= t.ends);
            prop_assert!(f64::from(t.min_concurrent) <= t.avg_concurrent + 1e-9);
            prop_assert!(t.avg_concurrent <= f64::from(t.max_concurrent) + 1e-9);
            if length > 0.0 {
                prop_assert!((t.throughput - t.ends as f64 / length).abs() < 1e-9);
            }
        }
    }

    /// Traces survive JSON round-trips bit-for-bit.
    #[test]
    fn trace_roundtrip(spec in arb_net(), seed in 0u64..1000) {
        let net = build(&spec);
        let Some(trace) = sim_or_skip(&net, seed, 40) else { return Ok(()); };
        let mut buf = Vec::new();
        trace.write_json(&mut buf).expect("serializes");
        let back = pnut::trace::RecordedTrace::read_json(buf.as_slice()).expect("parses");
        prop_assert_eq!(trace, back);
    }

    /// The textual language round-trips every generated net.
    #[test]
    fn lang_roundtrip(spec in arb_net()) {
        let net = build(&spec);
        let text = pnut::lang::print(&net);
        let back = pnut::lang::parse(&text).expect("parses own output");
        prop_assert_eq!(net, back);
    }

    /// Simulation is a pure function of (net, seed, horizon).
    #[test]
    fn simulation_is_deterministic(spec in arb_net(), seed in 0u64..1000) {
        let net = build(&spec);
        let Some(a) = sim_or_skip(&net, seed, 50) else { return Ok(()); };
        let b = sim_or_skip(&net, seed, 50).expect("same model, same seed, same outcome");
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Paged-analysis properties
// ---------------------------------------------------------------------------

/// Build the untimed or timed reachability graph, skipping nets whose
/// state space exceeds the cap (random nets are routinely unbounded —
/// the generator's input-free transitions mint tokens forever).
fn reach_or_skip(
    net: &pnut::core::Net,
    timed: bool,
    options: &pnut::reach::ReachOptions,
) -> Option<pnut::reach::ReachabilityGraph> {
    let build = if timed {
        pnut::reach::graph::build_timed
    } else {
        pnut::reach::graph::build_untimed
    };
    match build(net, options) {
        Ok(g) => Some(g),
        Err(pnut::reach::ReachError::StateLimit { .. }) => None,
        Err(e) => panic!("unexpected reachability failure: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Paged and unpaged analyses agree on random nets: deadlocks,
    /// place bounds, and L1-liveness computed through the
    /// segment-ordered read path at a 1-byte budget (maximum eviction
    /// churn — every sealed segment is spilled the moment it is not
    /// pinned) match the fully resident run exactly. This is the
    /// analysis-path analogue of the build-determinism properties:
    /// paging may change where rows live mid-analysis, never what any
    /// analysis computes.
    #[test]
    fn paged_analyses_agree_with_unpaged(spec in arb_net(), timed in proptest::bool::ANY) {
        let net = build(&spec);
        let resident_opts = pnut::reach::ReachOptions {
            max_states: 3000,
            ..pnut::reach::ReachOptions::default()
        };
        let paged_opts = pnut::reach::ReachOptions {
            mem_budget: 1,
            ..resident_opts.clone()
        };
        let Some(mut resident) = reach_or_skip(&net, timed, &resident_opts) else {
            return Ok(());
        };
        let mut paged = reach_or_skip(&net, timed, &paged_opts)
            .expect("the budget never changes whether a net fits the state cap");
        prop_assert_eq!(&paged, &resident, "stores/edges must be bit-identical");
        prop_assert_eq!(paged.deadlocks(), resident.deadlocks());
        prop_assert_eq!(paged.place_bounds(), resident.place_bounds());
        for (tid, _) in net.transitions() {
            prop_assert_eq!(
                paged.ever_fires(tid),
                resident.ever_fires(tid),
                "liveness of transition {} diverged",
                tid.index()
            );
        }
        // And a reachability formula through the CTL fixpoints (the
        // generated places are named p0, p1, ...).
        let f = pnut::reach::Formula::parse("EF (p0 = 0)").expect("parses");
        let a = pnut::reach::ctl::check(&mut paged, &net, &f).expect("checks");
        let b = pnut::reach::ctl::check(&mut resident, &net, &f).expect("checks");
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Expression language properties
// ---------------------------------------------------------------------------

fn arb_binop() -> impl Strategy<Value = pnut::core::expr::BinOp> {
    use pnut::core::expr::BinOp;
    prop_oneof![
        Just(BinOp::Or),
        Just(BinOp::And),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    use pnut::core::expr::{Func, UnaryOp};
    let leaf = prop_oneof![
        (-100i64..100).prop_map(Expr::Int),
        any::<bool>().prop_map(Expr::Bool),
        "[a-z][a-z0-9_]{0,6}".prop_map(Expr::Var),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Binary(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner
                .clone()
                .prop_map(|a| Expr::Unary(UnaryOp::Neg, Box::new(a))),
            inner
                .clone()
                .prop_map(|a| Expr::Unary(UnaryOp::Not, Box::new(a))),
            ("[a-z][a-z0-9_]{0,6}", inner.clone()).prop_map(|(t, i)| Expr::Index(t, Box::new(i))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call(Func::Min, vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call(Func::Max, vec![a, b])),
            inner.clone().prop_map(|a| Expr::Call(Func::Abs, vec![a])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call(Func::Irand, vec![a, b])),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| Expr::If(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

/// An environment binding a subset of the short names `arb_expr` can
/// reference, so generated expressions hit bound variables, unbound
/// variables, tables, and missing tables alike.
fn arb_env() -> impl Strategy<Value = pnut::core::Env> {
    (
        proptest::collection::btree_map("[a-z]", -8i64..8, 0..4),
        proptest::collection::btree_map("[a-z]", proptest::collection::vec(-8i64..8, 0..4), 0..3),
    )
        .prop_map(|(vars, tables)| {
            let mut env = pnut::core::Env::new();
            for (name, v) in vars {
                env.set_var(name, pnut::core::expr::Value::Int(v));
            }
            for (name, t) in tables {
                env.define_table(name, t);
            }
            env
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse → print reaches a fixpoint after one step (the
    /// ASTs may differ in harmless ways like `-(1)` vs the literal `-1`,
    /// but the printed form must stabilize and stay parseable).
    #[test]
    fn expr_print_parse_print_fixpoint(e in arb_expr()) {
        let once = e.to_string();
        let parsed = Expr::parse(&once).expect("own output parses");
        let twice = parsed.to_string();
        prop_assert_eq!(&once, &twice);
        let reparsed = Expr::parse(&twice).expect("fixpoint parses");
        prop_assert_eq!(parsed, reparsed);
    }

    /// The bytecode compiler agrees with the tree interpreter on any
    /// generated expression under any generated environment — same
    /// value or same error, and the same number of randomness draws.
    #[test]
    fn compiled_expressions_match_interpreter(e in arb_expr(), env in arb_env()) {
        use pnut::core::expr::compile::{EnvSlots, Program, Scratch, SlotMap};
        let mut vars = std::collections::BTreeSet::new();
        let mut tables = std::collections::BTreeSet::new();
        collect_names(&e, &mut vars, &mut tables);
        for (name, _) in env.vars() {
            vars.insert(name.to_string());
        }
        for (name, _) in env.tables() {
            tables.insert(name.to_string());
        }
        let map = SlotMap::from_names(vars, tables);
        let program = Program::compile(&e, &map).expect("all names are mapped");
        let mut slots = EnvSlots::new();
        slots.load(&map, &env);
        let mut vm = Scratch::new();
        prop_assert_eq!(e.eval_pure(&env), program.eval_pure(&slots, &map, &mut vm));
        let mut ri = pnut::core::CyclingRandomness::new();
        let mut rc = pnut::core::CyclingRandomness::new();
        prop_assert_eq!(e.eval(&env, &mut ri), program.eval(&slots, &map, &mut vm, &mut rc));
        prop_assert_eq!(ri, rc, "randomness draw order diverged");
    }
}

/// Every variable and table name `e` references (the props-local
/// analogue of the compiler's internal collector).
fn collect_names(
    e: &Expr,
    vars: &mut std::collections::BTreeSet<String>,
    tables: &mut std::collections::BTreeSet<String>,
) {
    match e {
        Expr::Int(_) | Expr::Bool(_) => {}
        Expr::Var(v) => {
            vars.insert(v.clone());
        }
        Expr::Index(t, i) => {
            tables.insert(t.clone());
            collect_names(i, vars, tables);
        }
        Expr::Unary(_, a) => collect_names(a, vars, tables),
        Expr::Binary(_, a, b) => {
            collect_names(a, vars, tables);
            collect_names(b, vars, tables);
        }
        Expr::Call(_, args) => {
            for a in args {
                collect_names(a, vars, tables);
            }
        }
        Expr::If(c, a, b) => {
            collect_names(c, vars, tables);
            collect_names(a, vars, tables);
            collect_names(b, vars, tables);
        }
    }
}

// ---------------------------------------------------------------------------
// Analysis-tool properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every computed P-invariant verifies algebraically, and its token
    /// sum is conserved at quiescent states of any simulation.
    #[test]
    fn p_invariants_hold_on_random_nets(spec in arb_net(), seed in 0u64..100) {
        let net = build(&spec);
        let invariants = pnut::core::invariant::p_invariants(&net);
        for inv in &invariants {
            prop_assert!(pnut::core::invariant::verify_p_invariant(
                &net,
                &inv.weights
            ));
        }
        // Inhibitor arcs only *restrict* behaviour, so conservation
        // still holds along any actual run at in-flight-free states.
        let Some(trace) = sim_or_skip(&net, seed, 40) else { return Ok(()); };
        let states: Vec<_> = trace.states().collect();
        for inv in &invariants {
            let expect = inv.token_sum(&states[0].marking);
            for s in &states {
                if s.firing_counts.iter().all(|&c| c == 0) {
                    prop_assert_eq!(inv.token_sum(&s.marking), expect);
                }
            }
        }
    }

    /// Every computed T-invariant verifies algebraically.
    #[test]
    fn t_invariants_verify(spec in arb_net()) {
        let net = build(&spec);
        for inv in pnut::core::invariant::t_invariants(&net) {
            prop_assert!(pnut::core::invariant::verify_t_invariant(
                &net,
                &inv.weights
            ));
        }
    }

    /// Batch means lie between the series min and max of the tracked
    /// place's token count.
    #[test]
    fn batch_means_bounded_by_extremes(spec in arb_net(), seed in 0u64..100) {
        let net = build(&spec);
        let Some(trace) = sim_or_skip(&net, seed, 100) else { return Ok(()); };
        let name = net.place(pnut::core::PlaceId::new(0)).name().to_string();
        let mut bm = pnut::stat::BatchMeans::new(&name, 20);
        trace.replay(&mut bm);
        let report = pnut::stat::analyze(&trace);
        let stats = report.place(&name).expect("place exists");
        for b in bm.batches() {
            prop_assert!(*b >= f64::from(stats.min_tokens) - 1e-9);
            prop_assert!(*b <= f64::from(stats.max_tokens) + 1e-9);
        }
    }
}
