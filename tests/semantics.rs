//! Cross-crate semantic checks: the §1 time-semantics claims, the trace
//! pipeline composition, and tool agreement on the same run.

use pnut::core::{NetBuilder, Time};
use pnut::sim::{SimOptions, Simulator};
use pnut::stat::StatCollector;
use pnut::trace::{DeltaKind, Filter, FilterSpec, RecordedTrace, Recorder, Tee};

/// "Firing times can be easily simulated using enabling times" (§1):
/// a transition with firing time d behaves, for place occupancy of its
/// surroundings, like hold-place + enabling-d + atomic-move.
#[test]
fn firing_time_simulated_by_enabling_time() {
    // Version A: firing time 4 on `work`.
    let mut a = NetBuilder::new("firing");
    a.place("src", 1);
    a.place("dst", 0);
    a.transition("work")
        .input("src")
        .output("dst")
        .firing(4)
        .add();
    a.transition("back")
        .input("dst")
        .output("src")
        .firing(1)
        .add();
    let net_a = a.build().expect("builds");

    // Version B: explicit holding place + enabling time 4 + atomic end.
    let mut b = NetBuilder::new("enabling");
    b.place("src", 1);
    b.place("hold", 0);
    b.place("dst", 0);
    b.transition("work_start").input("src").output("hold").add();
    b.transition("work_end")
        .input("hold")
        .output("dst")
        .enabling(4)
        .add();
    b.transition("back")
        .input("dst")
        .output("src")
        .firing(1)
        .add();
    let net_b = b.build().expect("builds");

    let horizon = Time::from_ticks(1000);
    let ra = pnut::stat::analyze(&pnut::sim::simulate(&net_a, 0, horizon).expect("runs"));
    let rb = pnut::stat::analyze(&pnut::sim::simulate(&net_b, 0, horizon).expect("runs"));

    // dst occupancy identical: filled at 4, 9, 14, ... for 1 tick each.
    let da = ra.place("dst").expect("exists").avg_tokens;
    let db = rb.place("dst").expect("exists").avg_tokens;
    assert!((da - db).abs() < 1e-9, "dst occupancy: {da} vs {db}");
    // Completion counts identical.
    assert_eq!(
        ra.transition("work").expect("exists").ends,
        rb.transition("work_end").expect("exists").ends
    );
}

/// The §1 equivalence again, but cross-validated on the *timed
/// reachability graphs* rather than on simulation statistics: a
/// firing-time transition and its hand-desugared hold-place +
/// enabling-time + atomic-move encoding must produce isomorphic timed
/// graphs once the desugared atomic move is contracted (the one extra
/// instantaneous internal step the encoding introduces). This pins the
/// enabling-clock semantics of `build_timed` against the independent
/// firing-time semantics it has always had.
#[test]
fn enabling_clock_graph_matches_hold_place_desugaring() {
    use pnut::reach::graph::{build_timed, EdgeLabel, ReachOptions};
    use std::collections::BTreeMap;

    // Version A: firing time 4 on `work`, delayed return via `back`.
    let mut a = NetBuilder::new("firing");
    a.place("src", 1);
    a.place("dst", 0);
    a.transition("work")
        .input("src")
        .output("dst")
        .firing(4)
        .add();
    a.transition("back")
        .input("dst")
        .output("src")
        .firing(1)
        .add();
    let net_a = a.build().expect("builds");

    // Version B: the desugaring — an instantaneous start moves the
    // token to a hold place; an enabling-4 atomic move completes.
    let mut b = NetBuilder::new("enabling");
    b.place("src", 1);
    b.place("hold", 0);
    b.place("dst", 0);
    b.transition("work_start").input("src").output("hold").add();
    b.transition("work_end")
        .input("hold")
        .output("dst")
        .enabling(4)
        .add();
    b.transition("back")
        .input("dst")
        .output("src")
        .firing(1)
        .add();
    let net_b = b.build().expect("builds");

    let options = ReachOptions::default();
    let ga = build_timed(&net_a, &options).expect("A builds");
    let gb = build_timed(&net_b, &options).expect("B builds via enabling clocks");
    // B spends one extra state per round inside the hold hand-off.
    assert_eq!(ga.state_count(), 4);
    assert_eq!(gb.state_count(), 5);

    // Contract B's `work_end` edges (the internal atomic move) with a
    // union-find, then compare the quotient to A edge-by-edge.
    let we = net_b.transition_id("work_end").expect("exists");
    let mut rep: Vec<usize> = (0..gb.state_count()).collect();
    fn find(rep: &mut [usize], mut i: usize) -> usize {
        while rep[i] != i {
            rep[i] = rep[rep[i]];
            i = rep[i];
        }
        i
    }
    for s in 0..gb.state_count() {
        for &(l, t) in gb.successors(s).expect("resident graph") {
            if l == EdgeLabel::Fire(we) {
                let (rs, rt) = (find(&mut rep, s), find(&mut rep, t as usize));
                rep[rs] = rt;
            }
        }
    }
    let label = |name: &str, l: EdgeLabel, net: &pnut::core::Net| -> String {
        match l {
            EdgeLabel::Fire(t) => {
                let n = net.transition(t).name();
                (if n == name { "work" } else { n }).to_string()
            }
            EdgeLabel::Advance(d) => format!("+{d}"),
        }
    };
    let mut quotient: BTreeMap<usize, BTreeMap<String, usize>> = BTreeMap::new();
    for s in 0..gb.state_count() {
        for &(l, t) in gb.successors(s).expect("resident graph") {
            if l == EdgeLabel::Fire(we) {
                continue;
            }
            let (qs, qt) = (find(&mut rep, s), find(&mut rep, t as usize));
            let prev = quotient
                .entry(qs)
                .or_default()
                .insert(label("work_start", l, &net_b), qt);
            assert!(prev.is_none_or(|p| p == qt), "nondeterministic quotient");
        }
    }

    // Lock-step walk: the quotient must be isomorphic to A under the
    // work_start ↦ work renaming, advance labels included.
    let initial_b = find(&mut rep, 0);
    let mut matched: BTreeMap<usize, usize> = BTreeMap::new(); // A state -> quotient rep
    let mut queue = vec![(0usize, initial_b)];
    while let Some((sa, qb)) = queue.pop() {
        match matched.get(&sa) {
            Some(&seen) => {
                assert_eq!(seen, qb, "A state {sa} maps to two quotient states");
                continue;
            }
            None => {
                matched.insert(sa, qb);
            }
        }
        let edges_a: BTreeMap<String, usize> = ga
            .successors(sa)
            .expect("resident graph")
            .iter()
            .map(|&(l, t)| (label("work", l, &net_a), t as usize))
            .collect();
        let edges_b = quotient.get(&qb).cloned().unwrap_or_default();
        assert_eq!(
            edges_a.keys().collect::<Vec<_>>(),
            edges_b.keys().collect::<Vec<_>>(),
            "edge labels differ at A state {sa} / quotient state {qb}"
        );
        for (l, ta) in edges_a {
            queue.push((ta, edges_b[&l]));
        }
    }
    assert_eq!(matched.len(), ga.state_count(), "walk covered all of A");
}

/// An expression-valued enabling time that resolves to a constant must
/// be *indistinguishable* from writing the constant directly — the
/// constant-delay desugaring that pins the arm-time resolution
/// semantics: `build_timed` evaluates `Delay::Expr` enabling times
/// against the state's environment at the moment the clock arms
/// (mirroring the simulator's `refresh_enabling`), so a never-written
/// variable behaves exactly like its initial value.
#[test]
fn expression_enabling_time_matches_constant_desugaring() {
    use pnut::reach::graph::{build_timed, ReachOptions};

    let build = |expr: bool| {
        let mut b = NetBuilder::new(if expr { "expr" } else { "const" });
        b.place("src", 1);
        b.place("dst", 0);
        if expr {
            b.var("d", 4);
        }
        let t = b.transition("work").input("src").output("dst");
        if expr {
            t.enabling_expr(pnut::core::Expr::parse("d").unwrap()).add();
        } else {
            t.enabling(4).add();
        }
        b.transition("back")
            .input("dst")
            .output("src")
            .firing(1)
            .add();
        b.build().expect("builds")
    };

    let ge = build_timed(&build(true), &ReachOptions::default()).expect("expr builds");
    let gc = build_timed(&build(false), &ReachOptions::default()).expect("const builds");
    // The environments differ (the expr net carries `d`), so compare
    // everything *but* them: state-by-state markings, in-flight and
    // enabling multisets, and edge-by-edge successors. BFS order is
    // driven by structure alone, so the graphs must line up index by
    // index.
    assert_eq!(ge.state_count(), gc.state_count(), "state counts differ");
    assert_eq!(ge.edge_count(), gc.edge_count(), "edge counts differ");
    for i in 0..ge.state_count() {
        let (a, b) = (
            ge.state(i).expect("resident graph"),
            gc.state(i).expect("resident graph"),
        );
        assert_eq!(
            a.marking.as_slice(),
            b.marking.as_slice(),
            "marking of state {i}"
        );
        assert_eq!(a.in_flight, b.in_flight, "in-flight of state {i}");
        assert_eq!(
            a.enabling, b.enabling,
            "enabling clocks of state {i} (arm-time resolution must \
             yield the constant's countdown)"
        );
        assert_eq!(
            ge.successors(i).expect("resident graph"),
            gc.successors(i).expect("resident graph"),
            "edges of state {i}"
        );
    }
    // The clock really arms at 4 somewhere (the test is not vacuous).
    assert!(
        (0..ge.state_count()).any(|i| ge
            .state(i)
            .expect("resident graph")
            .enabling
            .contains(&(build(true).transition_id("work").unwrap(), 4))),
        "the expression delay must arm a 4-tick clock"
    );
}

/// The converse direction is impossible (§1): an enabling time reacts to
/// *disabling* by resetting, which a firing time cannot, because firing
/// removes the tokens. Demonstrate the observable difference.
#[test]
fn enabling_time_not_expressible_as_firing_time() {
    // A competitor steals the token after 2 ticks. With enabling time 4,
    // `slow` never completes; with firing time 4 it grabs the token at
    // t=0 and always completes.
    let build = |use_enabling: bool| {
        let mut b = NetBuilder::new("steal");
        b.place("tok", 1);
        b.place("slow_done", 0);
        b.place("gone", 0);
        let t = b.transition("slow").input("tok").output("slow_done");
        if use_enabling {
            t.enabling(4).add();
        } else {
            t.firing(4).add();
        }
        b.transition("thief")
            .input("tok")
            .output("gone")
            .enabling(2)
            .add();
        b.build().expect("builds")
    };

    let horizon = Time::from_ticks(100);
    let with_enabling =
        pnut::stat::analyze(&pnut::sim::simulate(&build(true), 0, horizon).expect("runs"));
    let with_firing =
        pnut::stat::analyze(&pnut::sim::simulate(&build(false), 0, horizon).expect("runs"));

    assert_eq!(
        with_enabling.transition("slow").expect("exists").ends,
        0,
        "enabling version loses the race and resets"
    );
    assert_eq!(
        with_firing.transition("slow").expect("exists").ends,
        1,
        "firing version commits at t=0 (both start-eligible, but firing \
         wins instantly while enabling must wait)"
    );
}

/// Filtered statistics agree with unfiltered statistics on the places
/// kept — filtering loses detail, never accuracy (§4.1).
#[test]
fn filter_preserves_kept_statistics() {
    let net = pnut::pipeline::three_stage::build(&pnut::pipeline::ThreeStageConfig::default())
        .expect("builds");
    let mut sim = Simulator::new(&net, 9).expect("constructs");

    let spec = FilterSpec::new()
        .keep_place("Bus_busy")
        .keep_transition("Issue");
    let mut sinks = Tee::new(
        StatCollector::new(),
        Filter::new(spec, Tee::new(StatCollector::new(), Recorder::new())),
    );
    sim.run(Time::from_ticks(5_000), &mut sinks).expect("runs");
    let (full, filtered_stack) = sinks.into_parts();
    let (filtered, recorder) = filtered_stack.into_inner().into_parts();

    let full = full.into_report().expect("complete");
    let filtered = filtered.into_report().expect("complete");

    let a = full.place("Bus_busy").expect("kept");
    let b = filtered.place("Bus_busy").expect("kept");
    assert!((a.avg_tokens - b.avg_tokens).abs() < 1e-12);
    assert_eq!(a.max_tokens, b.max_tokens);

    let ia = full.transition("Issue").expect("kept");
    let ib = filtered.transition("Issue").expect("kept");
    assert_eq!(ia.starts, ib.starts);
    assert!((ia.throughput - ib.throughput).abs() < 1e-12);

    // And the filtered trace really is significantly smaller.
    let small = recorder.into_trace().expect("complete");
    assert!(
        small.deltas().len() < 6_000,
        "filtered trace is a fraction of the full one ({} deltas kept)",
        small.deltas().len()
    );
}

/// The animator, the state iterator, and the stat tool must agree on
/// event counts for the same trace.
#[test]
fn tools_agree_on_event_counts() {
    let net = pnut::pipeline::three_stage::build(&pnut::pipeline::ThreeStageConfig::default())
        .expect("builds");
    let trace = pnut::sim::simulate(&net, 4, Time::from_ticks(2_000)).expect("runs");
    let report = pnut::stat::analyze(&trace);

    // Frames = atomic steps; states = steps + initial.
    let mut anim = pnut::anim::Animator::new(&trace);
    let mut frames = 0usize;
    while anim.step().is_some() {
        frames += 1;
    }
    assert_eq!(frames + 1, trace.states().count());

    // Start deltas == summed transition starts.
    let start_deltas = trace
        .deltas()
        .iter()
        .filter(|d| matches!(d.kind, pnut::trace::DeltaKind::Start { .. }))
        .count() as u64;
    assert_eq!(start_deltas, report.events_started);
}

/// A recorded trace replayed through the stat tool gives the same
/// report as live streaming (determinism of the trace pipeline).
#[test]
fn replay_equals_live() {
    let net = pnut::pipeline::three_stage::build(&pnut::pipeline::ThreeStageConfig::default())
        .expect("builds");
    let mut sim = Simulator::new(&net, 21).expect("constructs");
    let mut sinks = Tee::new(Recorder::new(), StatCollector::new());
    sim.run(Time::from_ticks(3_000), &mut sinks).expect("runs");
    let (rec, live) = sinks.into_parts();
    let live = live.into_report().expect("complete");
    let replayed = pnut::stat::analyze(&rec.into_trace().expect("complete"));
    assert_eq!(live, replayed);
}

/// JSON round-trip across crate boundaries with real model traces: the
/// three-stage pipeline, the interpreted pipeline (variables and tables
/// in the initial env, `var` deltas) and the 40-net `random_net` sweep.
#[test]
fn trace_json_roundtrip_full_model() {
    let roundtrip = |trace: &RecordedTrace| {
        let mut buf = Vec::new();
        trace.write_json(&mut buf).expect("serializes");
        let back = RecordedTrace::read_json(buf.as_slice()).expect("deserializes");
        assert_eq!(*trace, back);
        back
    };
    let var_sets = |trace: &RecordedTrace| {
        trace
            .deltas()
            .iter()
            .filter(|d| matches!(d.kind, DeltaKind::VarSet { .. }))
            .count()
    };

    let net = pnut::pipeline::three_stage::build(&pnut::pipeline::ThreeStageConfig::default())
        .expect("builds");
    let trace = pnut::sim::simulate(&net, 6, Time::from_ticks(500)).expect("runs");
    let back = roundtrip(&trace);
    assert_eq!(pnut::stat::analyze(&trace), pnut::stat::analyze(&back));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("models/interpreted.pn");
    let text = std::fs::read_to_string(path).expect("model file exists");
    let interpreted = pnut::lang::parse(&text).expect("parses");
    for seed in 0..5 {
        let trace = pnut::sim::simulate(&interpreted, seed, Time::from_ticks(250)).expect("runs");
        assert_eq!(trace.header().initial_env.tables().count(), 5);
        assert!(var_sets(&trace) > 0, "seed {seed}: no `var` deltas");
        roundtrip(&trace);
    }

    let mut random_var_sets = 0;
    // A low livelock cap keeps the zero-delay-cycle nets, which are
    // skipped, cheap to reject.
    let options = SimOptions {
        max_firings_per_instant: 10_000,
    };
    for seed in 0..40 {
        let net = pnut_bench::workloads::random_net(seed);
        let mut sim = Simulator::with_options(&net, seed, options).expect("constructs");
        let mut rec = Recorder::new();
        if sim.run(Time::from_ticks(100), &mut rec).is_err() {
            continue;
        }
        let trace = rec.into_trace().expect("complete");
        random_var_sets += var_sets(&trace);
        roundtrip(&trace);
    }
    assert!(
        random_var_sets > 0,
        "the random_net sweep saw no `var` deltas"
    );
}

/// The textual language round-trips the full paper model and the
/// parsed net simulates identically.
#[test]
fn lang_roundtrip_preserves_behaviour() {
    let net = pnut::pipeline::three_stage::build(&pnut::pipeline::ThreeStageConfig::default())
        .expect("builds");
    let text = pnut::lang::print(&net);
    let reparsed = pnut::lang::parse(&text).expect("parses");
    assert_eq!(net, reparsed);

    let horizon = Time::from_ticks(2_000);
    let t1 = pnut::sim::simulate(&net, 77, horizon).expect("runs");
    let t2 = pnut::sim::simulate(&reparsed, 77, horizon).expect("runs");
    assert_eq!(t1.deltas(), t2.deltas());
}
