//! Cross-crate semantic checks: the §1 time-semantics claims, the trace
//! pipeline composition, and tool agreement on the same run.

use pnut::core::expr::Env;
use pnut::core::{Net, NetBuilder, Time};
use pnut::reach::graph::{EdgeLabel, ReachabilityGraph};
use pnut::sim::{SimOptions, Simulator};
use pnut::stat::StatCollector;
use pnut::trace::{DeltaKind, Filter, FilterSpec, RecordedTrace, Recorder, Tee, TraceState};
use pnut_bench::workloads::{random_marked_graph, random_net};

/// A checked-in model from `models/`.
fn model(name: &str) -> Net {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("models")
        .join(format!("{name}.pn"));
    let text = std::fs::read_to_string(path).expect("model file exists");
    pnut::lang::parse(&text).expect("parses")
}

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
/// against the state's environment at the moment the clock arms (the
/// clock rule the simulator shares), so a never-written variable
/// behaves exactly like its initial value.
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

    // A continued run's header lists the marking but not the firings in
    // flight, so its trace finishes firings it never started. The
    // reader's count replay must still accept it.
    let mut b = NetBuilder::new("loop");
    b.place("a", 1);
    b.transition("t").input("a").output("a").firing(3).add();
    let looped = b.build().expect("builds");
    let mut sim = Simulator::new(&looped, 1).expect("constructs");
    sim.run(Time::from_ticks(1), &mut Recorder::new())
        .expect("runs");
    let mut rec = Recorder::new();
    sim.run(Time::from_ticks(10), &mut rec).expect("continues");
    let continued = rec.into_trace().expect("complete");
    assert!(
        matches!(
            continued.deltas()[0].kind,
            DeltaKind::Finish { firing: 0, .. }
        ),
        "the continued run must open with the inherited firing's finish"
    );
    roundtrip(&continued);

    let interpreted = model("interpreted");
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
        let net = random_net(seed);
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
/// `random_net(0..40)` sweep, and the parsed paper model simulates
/// identically.
#[test]
fn lang_roundtrip_preserves_behaviour() {
    for seed in 0..40 {
        let net = random_net(seed);
        let reparsed = pnut::lang::parse(&pnut::lang::print(&net)).expect("parses own output");
        assert_eq!(net, reparsed, "random_net({seed})");
    }
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

/// Walk `trace` from state 0 of `g`, the timed graph of the simulated
/// net, and return the number of edges taken. Each `Start` step follows
/// its `Fire` edge, so the simulator's conflict choice must be an edge
/// of the graph. Each time jump follows the one `Advance` edge of that
/// length, which completes every firing due at the new instant at once,
/// so it absorbs the trace's `Finish`-only steps there. After every edge
/// the graph state's marking, in-flight firings per transition and
/// scalar variables must equal the trace state's (traces record no
/// table writes).
fn replay_on_graph(g: &ReachabilityGraph, trace: &RecordedTrace) -> Result<usize, String> {
    let states: Vec<TraceState> = trace.states().collect();
    // The transition each step starts, `None` for a completion step;
    // `starts[k]` belongs to `states[k + 1]`.
    let mut starts = Vec::new();
    for (k, d) in trace.deltas().iter().enumerate() {
        if k == 0 || trace.deltas()[k - 1].step != d.step {
            starts.push(match d.kind {
                DeltaKind::Start { transition, .. } => Some(transition),
                _ => None,
            });
        }
    }
    let follow = |s: usize, label: EdgeLabel| -> Result<usize, String> {
        let row = g.successors(s).map_err(|e| e.to_string())?;
        let mut targets = row.iter().filter(|&&(l, _)| l == label);
        match (targets.next(), targets.next()) {
            (Some(&(_, t)), None) => Ok(t as usize),
            _ => Err(format!("state {s} has no single {label:?} edge: {row:?}")),
        }
    };
    let vars = |env: &Env| {
        env.vars()
            .map(|(n, v)| (n.to_string(), v))
            .collect::<Vec<_>>()
    };
    let check = |s: usize, st: &TraceState| -> Result<(), String> {
        let gs = g.state(s).map_err(|e| e.to_string())?;
        let marking: Vec<u32> = gs.marking.iter().map(|(_, t)| t).collect();
        let mut in_flight = vec![0; st.firing_counts.len()];
        for &(t, _) in gs.in_flight {
            in_flight[t.index()] += 1;
        }
        if marking != st.marking.as_slice()
            || in_flight != st.firing_counts
            || vars(&g.env(s).map_err(|e| e.to_string())?) != vars(&st.env)
        {
            return Err(format!(
                "graph state {s} differs from trace state #{} at t={}",
                st.index, st.time
            ));
        }
        Ok(())
    };

    let (mut s, mut now, mut edges) = (0, trace.header().start_time, 0);
    check(s, &states[0])?;
    let mut i = 1;
    while i < states.len() {
        if states[i].time > now {
            s = follow(s, EdgeLabel::Advance((states[i].time - now).ticks()))?;
            now = states[i].time;
            let mut absorbed = &states[i - 1];
            while i < states.len() && states[i].time == now && starts[i - 1].is_none() {
                absorbed = &states[i];
                i += 1;
            }
            check(s, absorbed)?;
        } else {
            let t = starts[i - 1].ok_or_else(|| format!("completion at t={now} without a jump"))?;
            s = follow(s, EdgeLabel::Fire(t))?;
            check(s, &states[i])?;
            i += 1;
        }
        edges += 1;
    }
    Ok(edges)
}

/// The refinement check between the two engines: every simulation of a
/// deterministic-delay net replays, state by state, as a path of
/// `build_timed`'s graph ([`replay_on_graph`]). Only conflict choices
/// may differ, and each one must be an existing edge. Nets over the
/// 5 000-state cap are skipped; `pager_protocol` is left out because it
/// is untimed, so the simulator reports an instant livelock at time 0.
#[test]
fn simulations_replay_as_paths_of_the_timed_graph() {
    use pnut::reach::graph::{build_timed, ReachError, ReachOptions};

    let options = ReachOptions {
        max_states: 5_000,
        ..ReachOptions::default()
    };
    let mut nets: Vec<(String, Net, u64)> = ["three_stage", "interpreted_analysis", "sequential"]
        .into_iter()
        .map(|m| (m.to_string(), model(m), 500))
        .collect();
    nets.extend((0..40).map(|seed| (format!("random_net({seed})"), random_net(seed), 200)));
    let mut replayed_random_nets = 0;
    for (name, net, until) in &nets {
        let g = match build_timed(net, &options) {
            Err(ReachError::StateLimit { .. }) => continue,
            g => g.expect("builds"),
        };
        let mut edges = 0;
        for seed in 0..8 {
            let trace = pnut::sim::simulate(net, seed, Time::from_ticks(*until)).expect("runs");
            edges +=
                replay_on_graph(&g, &trace).unwrap_or_else(|e| panic!("{name}, seed {seed}: {e}"));
        }
        if name.starts_with("random_net") {
            replayed_random_nets += usize::from(edges > 0);
        } else {
            assert!(edges > 0, "{name}: empty traces");
        }
    }
    assert!(
        replayed_random_nets >= 16,
        "only {replayed_random_nets} random nets replayed a non-empty trace"
    );
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Per run: `(net, seed, deltas, events started, events finished,
/// FNV-1a-64 of the JSON trace)`.
type SimRun<'a> = (&'a str, u64, usize, u64, u64, u64);

/// The simulator's output, pinned exactly: `interpreted.pn` draws
/// `irand` in actions and delays (so this pins the RNG draw order),
/// three_stage exercises enabling clocks and caps, and the random nets
/// cover weighted arcs, inhibitors, predicates, table writes and one
/// zero-delay cycle, whose livelock error leaves a closed partial
/// trace. Every delta written reads back on the trace reader's
/// canonical path.
#[test]
fn simulator_output_is_pinned() {
    let mut runs: Vec<(String, Net, u64, u64)> = Vec::new();
    for seed in 1..=4 {
        runs.push(("interpreted".into(), model("interpreted"), seed, 250));
    }
    for seed in 1..=2 {
        runs.push(("three_stage".into(), model("three_stage"), seed, 2_000));
    }
    for net in 0..40 {
        runs.push((format!("random_net({net})"), random_net(net), 1, 200));
    }
    // Keeps the zero-delay cycle's livelock short.
    let options = SimOptions {
        max_firings_per_instant: 10_000,
    };
    let mut got = Vec::new();
    for (name, net, seed, until) in &runs {
        let mut sim = Simulator::with_options(net, *seed, options).expect("constructs");
        let mut rec = Recorder::new();
        let summary = sim.run(Time::from_ticks(*until), &mut rec);
        let trace = rec.into_trace().expect("closed even on failure");
        let count =
            |f: fn(&DeltaKind) -> bool| trace.deltas().iter().filter(|d| f(&d.kind)).count();
        let started = count(|k| matches!(k, DeltaKind::Start { .. })) as u64;
        let finished = count(|k| matches!(k, DeltaKind::Finish { .. })) as u64;
        if let Ok(s) = summary {
            assert_eq!(
                (s.events_started, s.events_finished),
                (started, finished),
                "{name}"
            );
        }
        let mut bytes = Vec::new();
        trace.write_json(&mut bytes).expect("serializes");
        let back = RecordedTrace::read_json(bytes.as_slice())
            .unwrap_or_else(|e| panic!("{name}: the written trace does not read back: {e}"));
        assert_eq!(back, trace, "{name}");
        if let Some(i) = pnut::trace::first_noncanonical_delta(&trace) {
            panic!("{name}: written delta {i} is read by the general decoder");
        }
        got.push((
            name.as_str(),
            *seed,
            trace.deltas().len(),
            started,
            finished,
            fnv1a64(&bytes),
        ));
    }
    let rendered: String = got.iter().map(|r| format!("    {r:?},\n")).collect();
    assert_eq!(
        got.as_slice(),
        SIM_OUTPUT,
        "simulator output changed; the measured table is:\n{rendered}"
    );
}

const SIM_OUTPUT: &[SimRun<'static>] = &[
    ("interpreted", 1, 2159, 366, 365, 15770965534207904686),
    ("interpreted", 2, 1756, 296, 296, 12052456031355859893),
    ("interpreted", 3, 1687, 284, 284, 2744897303797885282),
    ("interpreted", 4, 1887, 318, 318, 9269661568692833246),
    ("three_stage", 1, 9804, 1903, 1902, 6817053908590405060),
    ("three_stage", 2, 11116, 2163, 2163, 3969881047265282051),
    ("random_net(0)", 1, 12, 3, 3, 657376550397489818),
    ("random_net(1)", 1, 204, 41, 41, 15558330687072871825),
    ("random_net(2)", 1, 0, 0, 0, 18094484814144630950),
    ("random_net(3)", 1, 3, 1, 1, 4755286154632082391),
    ("random_net(4)", 1, 3, 1, 1, 9721246055259134280),
    ("random_net(5)", 1, 397, 200, 197, 16056528485191981278),
    ("random_net(6)", 1, 0, 0, 0, 13947345517900489396),
    ("random_net(7)", 1, 0, 0, 0, 12166923349008436626),
    ("random_net(8)", 1, 1200, 300, 300, 2118267438156053987),
    ("random_net(9)", 1, 400, 100, 100, 2446367426921119328),
    ("random_net(10)", 1, 726, 266, 263, 6600330228106498176),
    ("random_net(11)", 1, 0, 0, 0, 5789261460970618288),
    ("random_net(12)", 1, 0, 0, 0, 4266777279877649201),
    ("random_net(13)", 1, 6, 2, 2, 5397906134313231576),
    ("random_net(14)", 1, 1589, 400, 395, 9705358565841448851),
    ("random_net(15)", 1, 8, 2, 2, 4196346797398562490),
    ("random_net(16)", 1, 997, 200, 199, 12290536822810716634),
    ("random_net(17)", 1, 264, 66, 66, 7674589580014513937),
    ("random_net(18)", 1, 655, 165, 163, 9595525256515861608),
    ("random_net(19)", 1, 0, 0, 0, 3639357780802539238),
    ("random_net(20)", 1, 0, 0, 0, 16846937560175613206),
    ("random_net(21)", 1, 11, 2, 2, 8898699005963476585),
    ("random_net(22)", 1, 4, 1, 1, 7197446386328382875),
    ("random_net(23)", 1, 20, 4, 4, 11341161963644752109),
    ("random_net(24)", 1, 5, 1, 1, 14876581488873216417),
    ("random_net(25)", 1, 8, 2, 2, 14821285147776513388),
    ("random_net(26)", 1, 0, 0, 0, 1291899934856185004),
    ("random_net(27)", 1, 4, 1, 1, 8233427379019605586),
    ("random_net(28)", 1, 694, 199, 198, 12708985947917195805),
    ("random_net(29)", 1, 264, 66, 66, 8056613447312703604),
    (
        "random_net(30)",
        1,
        81427,
        22286,
        12285,
        13608368645666292688,
    ),
    ("random_net(31)", 1, 793, 200, 197, 150208187542270510),
    ("random_net(32)", 1, 1306, 396, 391, 17494576096321319320),
    ("random_net(33)", 1, 0, 0, 0, 4011465630290009118),
    ("random_net(34)", 1, 1672, 523, 515, 14341933182514344441),
    ("random_net(35)", 1, 796, 266, 265, 6453960818238826139),
    ("random_net(36)", 1, 0, 0, 0, 6648544715031858362),
    ("random_net(37)", 1, 8, 2, 2, 5071625009170807624),
    ("random_net(38)", 1, 199, 100, 99, 8888694553064310332),
    ("random_net(39)", 1, 524, 131, 130, 10316759781586499173),
];

/// The state cursor lends exactly the states `states()` yields (index,
/// time, marking, firing counts and environment), times never decrease
/// and indices are dense; and the heatmap built on the cursor reports
/// activities in `[0, 1]`. Runs: the `simulator_output_is_pinned` runs,
/// plus the 40 `random_net` traces of the JSON round-trip sweep.
#[test]
fn state_cursor_lends_what_states_yields() {
    let mut traces: Vec<(String, RecordedTrace)> = Vec::new();
    for seed in 1..=4 {
        let trace = pnut::sim::simulate(&model("interpreted"), seed, Time::from_ticks(250));
        traces.push((format!("interpreted seed {seed}"), trace.expect("runs")));
    }
    for seed in 1..=2 {
        let trace = pnut::sim::simulate(&model("three_stage"), seed, Time::from_ticks(2_000));
        traces.push((format!("three_stage seed {seed}"), trace.expect("runs")));
    }
    let options = SimOptions {
        max_firings_per_instant: 10_000,
    };
    for n in 0..40 {
        let net = random_net(n);
        for (seed, until, must_finish) in [(1, 200, false), (n, 100, true)] {
            let mut sim = Simulator::with_options(&net, seed, options).expect("constructs");
            let mut rec = Recorder::new();
            if sim.run(Time::from_ticks(until), &mut rec).is_err() && must_finish {
                continue;
            }
            let trace = rec.into_trace().expect("closed even on failure");
            traces.push((format!("random_net({n}) seed {seed}"), trace));
        }
    }
    for (name, trace) in &traces {
        let mut cursor = trace.cursor();
        let mut states = trace.states();
        let mut seen = 0;
        let mut prev_time = trace.header().start_time;
        loop {
            let (lent, owned) = match (cursor.next(), states.next()) {
                (Some(lent), Some(owned)) => (lent, owned),
                (None, None) => break,
                (lent, owned) => panic!(
                    "{name}: after {seen} states the cursor lent {:?} but states() yielded {:?}",
                    lent.map(|s| s.index),
                    owned.map(|s| s.index)
                ),
            };
            assert_eq!(*lent, owned, "{name}: state {seen}");
            assert_eq!(lent.index, seen, "{name}: state indices are dense");
            assert!(lent.time >= prev_time, "{name}: time went back at #{seen}");
            prev_time = lent.time;
            seen += 1;
        }
        assert!(seen >= 1, "{name}: no initial state");
        let heatmap = pnut::anim::Heatmap::from_trace(trace);
        for row in heatmap.places.iter().chain(&heatmap.transitions) {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&row.activity),
                "{name}: `{}` activity {}",
                row.name,
                row.activity
            );
        }
    }
}

/// Exact oracle for the Markov solver: on a strongly connected timed
/// marked graph every transition fires once per cycle time, so each
/// steady-state throughput must equal `1 / CT` from the cycle-time
/// analysis, and the solve must meet its own residual bound.
#[test]
fn markov_throughput_is_the_inverse_cycle_time_on_marked_graphs() {
    use pnut::analytic::markov::{steady_state, MarkovOptions};

    let options = MarkovOptions::default();
    let mut in_class = 0;
    for seed in 0..200 {
        let net = random_marked_graph(seed);
        let Ok(exact) = pnut::analytic::analyze(&net) else {
            continue;
        };
        in_class += 1;
        let ss = steady_state(&net, &options)
            .unwrap_or_else(|e| panic!("random_marked_graph({seed}): {e}"));
        assert!(
            ss.residual <= options.tolerance,
            "random_marked_graph({seed}): residual {}",
            ss.residual
        );
        let want = exact.throughput();
        for (tid, t) in net.transitions() {
            let got = ss.throughput(tid);
            let error = (got - want).abs() / want;
            assert!(
                error <= 1e-12,
                "random_marked_graph({seed}) `{}`: throughput {got}, 1/CT {want} \
                 (relative error {error:e})",
                t.name()
            );
        }
    }
    assert!(
        in_class >= 150,
        "only {in_class} of 200 seeds are analyzable marked graphs"
    );
}

/// Every Markov answer on the checked-in models and `random_net(0..200)`,
/// pinned: a solve that succeeds holds `mean_sojourn` and each
/// transition throughput (transition-id order) to within 1e-9, and one
/// that fails keeps its exact error text.
#[test]
fn markov_answers_are_pinned() {
    use pnut::analytic::markov::{steady_state, MarkovOptions};

    let nets = ["three_stage", "interpreted_analysis", "sequential"]
        .map(|name| (name.to_string(), model(name)))
        .into_iter()
        .chain((0..200).map(|seed| (format!("random_net({seed})"), random_net(seed))));
    let mut mismatches = Vec::new();
    let mut measured = String::new();
    for (i, (name, net)) in nets.enumerate() {
        let got = steady_state(&net, &MarkovOptions::default())
            .map(|ss| (ss.mean_sojourn, ss.transition_throughput))
            .map_err(|e| e.to_string());
        measured += &match &got {
            Ok((sojourn, throughput)) => {
                format!("    ({name:?}, Ok(({sojourn:?}, &{throughput:?}))),\n")
            }
            Err(e) => format!("    ({name:?}, Err({e:?})),\n"),
        };
        let agrees = match (&got, MARKOV_ANSWERS.get(i)) {
            (_, Some(&(pinned, _))) if pinned != name => false,
            (Ok((sojourn, throughput)), Some((_, Ok((want_sojourn, want_throughput))))) => {
                throughput.len() == want_throughput.len()
                    && std::iter::once((sojourn, want_sojourn))
                        .chain(throughput.iter().zip(want_throughput.iter()))
                        .all(|(got, want)| (got - want).abs() <= 1e-9)
            }
            (Err(e), Some((_, Err(want)))) => e == want,
            _ => false,
        };
        if !agrees {
            mismatches.push(name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "markov answers changed on {mismatches:?}; the measured table is:\n{measured}"
    );
    assert_eq!(MARKOV_ANSWERS.len(), 203, "three models and 200 seeds");
}

/// A pinned Markov answer: `(mean_sojourn, throughput per transition)`,
/// or the error text.
type MarkovAnswer = Result<(f64, &'static [f64]), &'static str>;

/// Each net's answer, for [`markov_answers_are_pinned`].
#[rustfmt::skip]
const MARKOV_ANSWERS: &[(&str, MarkovAnswer)] = &[
    ("three_stage", Ok((0.8087164849593944, &[0.05844359241895087, 0.05844359241897305, 0.11688718483779162, 0.08182102938645568, 0.02337743696755881, 0.023377436967558934, 0.023377436967560835, 0.011688718483779404, 0.011688718483779467, 0.011688718483781606, 0.04675487393512377, 0.046754873935123904, 0.11688718483778539, 0.05844359241889281, 0.03506615545133569, 0.011688718483778563, 0.0058443592418892815, 0.0058443592418892815, 0.09350974787022416, 0.02337743696755604, 0.023377436967558902, 0.023377436967558594]))),
    ("interpreted_analysis", Ok((0.690350181030357, &[0.09121792849928245, 0.09121792849928097, 0.0884163855635243, 0.0707331084508233, 0.08841638556352065, 0.07073310845083104, 0.07073310845083147, 0.08841638556352717, 0.08841638556352714, 0.017683277112708708, 0.0707331084508184, 0.02328636298421163, 0.017683277112702192, 0.0884163855635243, 0.05304983133811141, 0.03536655422540922, 0.035366554225410886, 0.03536655422541089]))),
    ("sequential", Ok((1.133858267716536, &[0.06944444444444443, 0.06944444444444443, 0.06944444444444443, 0.048611111111111105, 0.013888888888888886, 0.01388888888888889, 0.01388888888888889, 0.006944444444444443, 0.006944444444444445, 0.006944444444444445, 0.02777777777777778, 0.02777777777777778, 0.03472222222222222, 0.02083333333333333, 0.006944444444444445, 0.0034722222222222225, 0.0034722222222222225, 0.05555555555555556, 0.01388888888888889, 0.013888888888888893, 0.013888888888888893, 0.06944444444444445]))),
    ("random_net(0)", Err("state 9 deadlocks; no steady state exists")),
    ("random_net(1)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(2)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(3)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(4)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(5)", Ok((0.5, &[1.0]))),
    ("random_net(6)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(7)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(8)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(9)", Ok((1.0, &[0.5]))),
    ("random_net(10)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(11)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(12)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(13)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(14)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(15)", Err("state 6 deadlocks; no steady state exists")),
    ("random_net(16)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(17)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(18)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(19)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(20)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(21)", Err("state 7 deadlocks; no steady state exists")),
    ("random_net(22)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(23)", Err("state 11 deadlocks; no steady state exists")),
    ("random_net(24)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(25)", Err("state 6 deadlocks; no steady state exists")),
    ("random_net(26)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(27)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(28)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(29)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(30)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(31)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(32)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(33)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(34)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(35)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(36)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(37)", Err("state 6 deadlocks; no steady state exists")),
    ("random_net(38)", Ok((0.6666666666666666, &[0.5, 0.0]))),
    ("random_net(39)", Ok((0.6000000000000001, &[0.3333333333333333, 0.3333333333333333]))),
    ("random_net(40)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(41)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(42)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(43)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(44)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(45)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(46)", Err("state 4 deadlocks; no steady state exists")),
    ("random_net(47)", Ok((0.5, &[1.0, 0.0, 0.0]))),
    ("random_net(48)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(49)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(50)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(51)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(52)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(53)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(54)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(55)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(56)", Err("state 8 deadlocks; no steady state exists")),
    ("random_net(57)", Ok((0.5, &[0.0, 0.0, 1.0]))),
    ("random_net(58)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(59)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(60)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(61)", Err("state 6 deadlocks; no steady state exists")),
    ("random_net(62)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(63)", Err("state 6 deadlocks; no steady state exists")),
    ("random_net(64)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(65)", Ok((1.0, &[0.5, 0.0]))),
    ("random_net(66)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(67)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(68)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(69)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(70)", Err("state 13 deadlocks; no steady state exists")),
    ("random_net(71)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(72)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(73)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(74)", Ok((1.0, &[0.3333333333333333]))),
    ("random_net(75)", Ok((1.5, &[0.3333333333333333, 0.0, 0.0]))),
    ("random_net(76)", Err("state 9 deadlocks; no steady state exists")),
    ("random_net(77)", Ok((1.0, &[0.0, 0.5]))),
    ("random_net(78)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(79)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(80)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(81)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(82)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(83)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(84)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(85)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(86)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(87)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(88)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(89)", Err("state 8 deadlocks; no steady state exists")),
    ("random_net(90)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(91)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(92)", Ok((0.5, &[1.0, 0.0, 0.0, 0.0]))),
    ("random_net(93)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(94)", Err("state 6 deadlocks; no steady state exists")),
    ("random_net(95)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(96)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(97)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(98)", Ok((1.5, &[0.3333333333333333]))),
    ("random_net(99)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(100)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(101)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(102)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(103)", Ok((0.3333333333333333, &[1.0, 0.0, 0.0, 1.0]))),
    ("random_net(104)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(105)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(106)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(107)", Ok((0.6666666666666665, &[0.5, 0.0, 0.5, 0.0]))),
    ("random_net(108)", Ok((0.6666666666666666, &[0.5, 0.0, 0.0, 0.0]))),
    ("random_net(109)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(110)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(111)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(112)", Ok((0.6666666666666666, &[0.0, 0.5, 0.0, 0.0]))),
    ("random_net(113)", Ok((0.5, &[1.0, 0.0, 0.0]))),
    ("random_net(114)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(115)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(116)", Err("state 7 deadlocks; no steady state exists")),
    ("random_net(117)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(118)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(119)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(120)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(121)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(122)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(123)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(124)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(125)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(126)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(127)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(128)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(129)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(130)", Err("state 7 deadlocks; no steady state exists")),
    ("random_net(131)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(132)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(133)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(134)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(135)", Err("state 8 deadlocks; no steady state exists")),
    ("random_net(136)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(137)", Err("state 6 deadlocks; no steady state exists")),
    ("random_net(138)", Ok((1.5, &[0.0, 0.3333333333333333, 0.0]))),
    ("random_net(139)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(140)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(141)", Ok((1.0, &[0.5, 0.0]))),
    ("random_net(142)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(143)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(144)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(145)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(146)", Ok((0.5, &[1.0, 0.0, 0.0]))),
    ("random_net(147)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(148)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(149)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(150)", Err("state 5 deadlocks; no steady state exists")),
    ("random_net(151)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(152)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(153)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(154)", Ok((0.75, &[0.3333333333333333, 0.0, 0.0, 0.3333333333333333]))),
    ("random_net(155)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(156)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(157)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(158)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(159)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(160)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(161)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(162)", Ok((0.6666666666666666, &[0.5]))),
    ("random_net(163)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(164)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(165)", Ok((0.5, &[0.0, 0.0, 0.0, 1.0]))),
    ("random_net(166)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(167)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(168)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(169)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(170)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(171)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(172)", Ok((0.5, &[1.0]))),
    ("random_net(173)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(174)", Ok((0.8000000000000065, &[0.0, 0.25, 0.0, 0.49999999999999]))),
    ("random_net(175)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(176)", Ok((0.5000000000000002, &[1.0]))),
    ("random_net(177)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(178)", Ok((0.31189710610932453, &[0.0, 1.0000000000000004, 0.3092783505154668, 0.8969072164948445]))),
    ("random_net(179)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(180)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(181)", Ok((1.0, &[0.0, 0.0, 0.0, 0.3333333333333333]))),
    ("random_net(182)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(183)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(184)", Err("state 4 deadlocks; no steady state exists")),
    ("random_net(185)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(186)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(187)", Err("state 1 deadlocks; no steady state exists")),
    ("random_net(188)", Err("state 2 deadlocks; no steady state exists")),
    ("random_net(189)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(190)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(191)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(192)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(193)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(194)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(195)", Err("state 0 deadlocks; no steady state exists")),
    ("random_net(196)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(197)", Err("timed reachability failed: state space exceeds 20000 states (unbounded net?)")),
    ("random_net(198)", Err("state 3 deadlocks; no steady state exists")),
    ("random_net(199)", Err("state 0 deadlocks; no steady state exists")),
];

/// The `random_net(0..40)` runs to `until`, each seeded with its net's
/// seed. A run that fails is left out: the low livelock cap rejects the
/// zero-delay cycles (`random_net(30)`) quickly.
fn random_net_runs(until: u64) -> Vec<(Net, RecordedTrace)> {
    let options = SimOptions {
        max_firings_per_instant: 10_000,
    };
    (0..40)
        .filter_map(|seed| {
            let net = random_net(seed);
            let trace = {
                let mut sim = Simulator::with_options(&net, seed, options).expect("constructs");
                let mut rec = Recorder::new();
                sim.run(Time::from_ticks(until), &mut rec).ok()?;
                rec.into_trace().expect("complete")
            };
            Some((net, trace))
        })
        .collect()
}

/// The firing rule conserves tokens: the last marking of a run is the
/// initial one, less every started firing's inputs, plus every finished
/// firing's outputs. Every P-invariant of the computed basis verifies,
/// and its token sum holds at every state with nothing in flight
/// (inhibitors and predicates only restrict runs); every T-invariant
/// verifies.
#[test]
fn random_nets_conserve_tokens_and_invariant_sums() {
    use pnut::core::invariant::{
        p_invariants, t_invariants, verify_p_invariant, verify_t_invariant,
    };

    let mut t_invariants_seen = 0;
    for seed in 0..40 {
        let net = random_net(seed);
        for inv in t_invariants(&net) {
            assert!(verify_t_invariant(&net, &inv.weights), "random_net({seed})");
            t_invariants_seen += 1;
        }
    }
    assert!(t_invariants_seen > 0, "no random net has a T-invariant");

    let runs = random_net_runs(100);
    assert!(runs.len() >= 30, "only {} random nets ran", runs.len());
    let mut sums_checked = 0;
    for (net, trace) in &runs {
        let name = net.name();
        let report = pnut::stat::analyze(trace);
        let mut expected: Vec<i64> = net
            .initial_marking()
            .as_slice()
            .iter()
            .map(|&t| i64::from(t))
            .collect();
        for (_, t) in net.transitions() {
            let stats = report.transition(t.name()).expect("in report");
            for &(p, w) in t.inputs() {
                expected[p.index()] -= i64::from(w) * stats.starts as i64;
            }
            for &(p, w) in t.outputs() {
                expected[p.index()] += i64::from(w) * stats.ends as i64;
            }
        }
        let last = trace.states().last().expect("at least the initial state");
        let actual: Vec<i64> = last
            .marking
            .as_slice()
            .iter()
            .map(|&t| i64::from(t))
            .collect();
        assert_eq!(actual, expected, "{name}: tokens not conserved");

        let invariants = p_invariants(net);
        let m0 = net.initial_marking();
        for inv in &invariants {
            assert!(verify_p_invariant(net, &inv.weights), "{name}");
        }
        for s in trace.states() {
            if s.firing_counts.iter().any(|&c| c > 0) {
                continue;
            }
            for inv in &invariants {
                assert_eq!(
                    inv.token_sum(&s.marking),
                    inv.token_sum(&m0),
                    "{name}: P-invariant {:?} at state #{}",
                    inv.weights,
                    s.index
                );
                sums_checked += 1;
            }
        }
    }
    assert!(sums_checked > 0, "no P-invariant sum was checked");
}

/// The statistics of a run agree with each other: token and
/// concurrency averages lie between their minimum and maximum, standard
/// deviations are finite and non-negative, no transition finishes more
/// firings than it starts, throughput is finishes over run length, and
/// every batch mean of the first place lies between its extremes.
#[test]
fn random_net_statistics_are_consistent() {
    let mut batches = 0;
    for (net, trace) in &random_net_runs(100) {
        let name = net.name();
        let report = pnut::stat::analyze(trace);
        let length = report.length.ticks() as f64;
        for p in &report.places {
            assert!(
                f64::from(p.min_tokens) <= p.avg_tokens + 1e-9,
                "{name} {p:?}"
            );
            assert!(
                p.avg_tokens <= f64::from(p.max_tokens) + 1e-9,
                "{name} {p:?}"
            );
            assert!(p.std_dev.is_finite() && p.std_dev >= 0.0, "{name} {p:?}");
        }
        for t in &report.transitions {
            assert!(t.starts >= t.ends, "{name} {t:?}");
            assert!(
                f64::from(t.min_concurrent) <= t.avg_concurrent + 1e-9,
                "{name} {t:?}"
            );
            assert!(
                t.avg_concurrent <= f64::from(t.max_concurrent) + 1e-9,
                "{name} {t:?}"
            );
            assert!(t.std_dev.is_finite() && t.std_dev >= 0.0, "{name} {t:?}");
            if length > 0.0 {
                assert!(
                    (t.throughput - t.ends as f64 / length).abs() < 1e-9,
                    "{name} {t:?}"
                );
            }
        }

        let place = &report.places[0];
        let mut bm = pnut::stat::BatchMeans::new(&place.name, 20);
        trace.replay(&mut bm);
        for &b in bm.batches() {
            assert!(
                f64::from(place.min_tokens) - 1e-9 <= b,
                "{name}: batch mean {b}"
            );
            assert!(
                b <= f64::from(place.max_tokens) + 1e-9,
                "{name}: batch mean {b}"
            );
            batches += 1;
        }
    }
    assert!(batches > 0, "no batch mean was checked");
}
