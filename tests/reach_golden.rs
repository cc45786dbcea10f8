//! Golden equivalence tests for the interned reachability engine.
//!
//! The zero-copy `StateStore` + CSR construction in `pnut_reach` must be
//! *semantically identical* to the seed construction it replaced — same
//! states, same discovery order, same edges. The seed implementation is
//! kept frozen in [`pnut_bench::legacy_reach`]; these tests run both on
//! the paper's models and compare state-by-state and edge-by-edge, and
//! pin the expected state/edge counts as golden numbers so a regression
//! in either implementation is caught even if both drift together.

use pnut::reach::graph::{build_timed, build_untimed, EdgeLabel, ReachOptions, ReachabilityGraph};
use pnut_bench::legacy_reach::{self, LegacyGraph};
use pnut_bench::workloads::{timed_fragment, wide_toggle};
use pnut_core::Net;
use pnut_pipeline::{interpreted, sequential, three_stage, ThreeStageConfig};

fn with_jobs(jobs: usize) -> ReachOptions {
    ReachOptions {
        jobs,
        ..ReachOptions::default()
    }
}

/// A 64 KiB resident-arena budget: far below the golden models' state
/// arenas, so the pager must seal, evict, and refault segments
/// throughout the build.
const TINY_BUDGET: usize = 64 * 1024;

fn with_budget(jobs: usize, mem_budget: usize) -> ReachOptions {
    ReachOptions {
        jobs,
        mem_budget,
        ..ReachOptions::default()
    }
}

fn assert_equivalent(g: &ReachabilityGraph, l: &LegacyGraph) {
    assert_eq!(g.state_count(), l.state_count(), "state counts differ");
    assert_eq!(g.edge_count(), l.edge_count(), "edge counts differ");
    for i in 0..g.state_count() {
        let a = g.state(i).expect("resident graph");
        let b = l.state(i);
        assert_eq!(
            a.marking.as_slice(),
            b.marking.as_slice(),
            "marking of state {i} differs"
        );
        assert_eq!(
            g.env(i).expect("resident graph"),
            b.env,
            "environment of state {i} differs"
        );
        assert_eq!(
            a.in_flight,
            &b.in_flight[..],
            "in-flight of state {i} differs"
        );
        let got: Vec<(EdgeLabel, usize)> = g
            .successors(i)
            .expect("resident graph")
            .iter()
            .map(|&(label, target)| (label, target as usize))
            .collect();
        assert_eq!(got, l.successors(i), "edges of state {i} differ");
    }
}

fn untimed_pair(net: &Net) -> (ReachabilityGraph, LegacyGraph) {
    let options = ReachOptions::default();
    (
        build_untimed(net, &options).expect("interned build"),
        legacy_reach::build_untimed(net, &options).expect("legacy build"),
    )
}

#[test]
fn three_stage_untimed_matches_seed_construction() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let (g, l) = untimed_pair(&net);
    assert_equivalent(&g, &l);
    assert_eq!((g.state_count(), g.edge_count()), (614, 1988));
}

#[test]
fn sequential_untimed_matches_seed_construction() {
    let net = sequential::build(&ThreeStageConfig::default()).expect("builds");
    let (g, l) = untimed_pair(&net);
    assert_equivalent(&g, &l);
    assert_eq!((g.state_count(), g.edge_count()), (19, 26));
}

#[test]
fn interpreted_untimed_matches_seed_construction() {
    // The analysis variant: round-robin dispatch, serialized branch
    // resolution (the simulation variant uses `irand`, which
    // reachability rejects, and has an unbounded untimed state space).
    let config = interpreted::InterpretedConfig {
        for_analysis: true,
        ..interpreted::InterpretedConfig::default()
    };
    let net = interpreted::build(&config).expect("builds");
    let (g, l) = untimed_pair(&net);
    assert_equivalent(&g, &l);
    assert_eq!((g.state_count(), g.edge_count()), (3383, 8887));
    // Round-robin decode cycles `ty` through the five types, so the
    // interner sees a bounded set of distinct environments.
    assert_eq!(g.store().env_count(), 20);
}

/// Golden timed state/edge counts for the full paper pipelines — the
/// graphs the enabling-clock state extension unlocked (the seed
/// construction rejects every one of these nets because their
/// memory-completion transitions use enabling delays). Each build is
/// also asserted bit-identical across `jobs ∈ {1, 4}` ×
/// `mem_budget ∈ {unlimited, 64 KiB}`.
#[test]
fn timed_pipelines_have_golden_counts_and_deterministic_builds() {
    let cases: [(Net, (usize, usize)); 3] = [
        (
            three_stage::build(&ThreeStageConfig::default()).expect("builds"),
            (3391, 4876),
        ),
        (
            interpreted::build(&interpreted::InterpretedConfig {
                for_analysis: true,
                ..interpreted::InterpretedConfig::default()
            })
            .expect("builds"),
            (638, 984),
        ),
        (
            sequential::build(&ThreeStageConfig::default()).expect("builds"),
            (32, 39),
        ),
    ];
    for (net, (states, edges)) in &cases {
        let reference = build_timed(net, &ReachOptions::default()).expect("timed build");
        assert_eq!(
            (reference.state_count(), reference.edge_count()),
            (*states, *edges),
            "timed golden counts of `{}`",
            net.name()
        );
        // The whole point of the extension: enabling clocks really are
        // part of the reachable state space of these models.
        assert!(
            (0..reference.state_count()).any(|i| !reference
                .state(i)
                .expect("resident graph")
                .enabling
                .is_empty()),
            "`{}` should carry enabling clocks",
            net.name()
        );
        // The frozen seed construction still rejects these nets — the
        // golden counts above cannot be cross-checked against it.
        assert!(
            legacy_reach::build_timed(net, &ReachOptions::default()).is_err(),
            "seed construction unexpectedly accepts `{}`",
            net.name()
        );
        for jobs in [1, 4] {
            for budget in [usize::MAX, TINY_BUDGET] {
                let g = build_timed(net, &with_budget(jobs, budget)).expect("timed build");
                assert_eq!(
                    g,
                    reference,
                    "timed build of `{}` diverged at jobs = {jobs}, budget = {budget:#x}",
                    net.name()
                );
            }
        }
    }
}

#[test]
fn timed_fragment_matches_seed_construction() {
    let net = timed_fragment(3);
    let options = ReachOptions::default();
    let g = build_timed(&net, &options).expect("interned build");
    let l = legacy_reach::build_timed(&net, &options).expect("legacy build");
    assert_equivalent(&g, &l);
    println!(
        "timed fragment: {} states, {} edges",
        g.state_count(),
        g.edge_count()
    );
}

#[test]
fn parallel_untimed_builds_are_bit_identical_on_the_golden_models() {
    let nets = [
        three_stage::build(&ThreeStageConfig::default()).expect("builds"),
        sequential::build(&ThreeStageConfig::default()).expect("builds"),
        interpreted::build(&interpreted::InterpretedConfig {
            for_analysis: true,
            ..interpreted::InterpretedConfig::default()
        })
        .expect("builds"),
    ];
    for net in &nets {
        let seq = build_untimed(net, &ReachOptions::default()).expect("sequential build");
        for jobs in [2, 4, 8] {
            let par = build_untimed(net, &with_jobs(jobs)).expect("parallel build");
            assert_eq!(
                par,
                seq,
                "parallel build (jobs = {jobs}) diverged on `{}`",
                net.name()
            );
        }
    }
}

#[test]
fn parallel_timed_build_is_bit_identical_on_the_fragment() {
    let net = timed_fragment(3);
    let seq = build_timed(&net, &ReachOptions::default()).expect("sequential build");
    for jobs in [2, 4, 8] {
        let par = build_timed(&net, &with_jobs(jobs)).expect("parallel build");
        assert_eq!(par, seq, "timed parallel build (jobs = {jobs}) diverged");
    }
}

#[test]
fn parallel_build_is_bit_identical_on_wide_frontiers() {
    // The paper pipelines never grow a frontier past a few dozen states,
    // so their parallel builds never spawn workers. The toggle lattice
    // has levels over a thousand states wide, so workers expand them and
    // the barrier interns their rows in source order.
    let net = wide_toggle(13); // 8192 states, max level width C(13,6) = 1716
    let seq = build_untimed(&net, &ReachOptions::default()).expect("sequential build");
    assert_eq!(seq.state_count(), 1 << 13);
    for jobs in [2, 4, 8] {
        let par = build_untimed(&net, &with_jobs(jobs)).expect("parallel build");
        assert_eq!(par, seq, "wide parallel build (jobs = {jobs}) diverged");
    }
}

#[test]
fn parallel_interpreted_stress_is_stable_across_repeats() {
    // Run the 3383-state interpreted build repeatedly at several worker
    // counts. Its levels (at most 64 states) stay under the spawn
    // threshold, so the job count alone must never change the build;
    // any state carried from one build into the next would show up as
    // a store/edge mismatch in some repetition. The worker path itself
    // is exercised by the toggle lattice above.
    let net = interpreted::build(&interpreted::InterpretedConfig {
        for_analysis: true,
        ..interpreted::InterpretedConfig::default()
    })
    .expect("builds");
    let seq = build_untimed(&net, &ReachOptions::default()).expect("sequential build");
    for round in 0..6 {
        for jobs in [2, 4, 8] {
            let par = build_untimed(&net, &with_jobs(jobs)).expect("parallel build");
            assert_eq!(par, seq, "round {round}, jobs = {jobs} diverged");
        }
    }
}

#[test]
fn paged_builds_are_bit_identical_at_any_budget_and_job_count() {
    // The disk-backed pager must never change results: (jobs ∈ {1, 4})
    // × (budget ∈ {unlimited, 64 KiB}) on the golden models and the
    // wide-toggle lattice, all equal to the plain in-memory build.
    let nets = [
        three_stage::build(&ThreeStageConfig::default()).expect("builds"),
        interpreted::build(&interpreted::InterpretedConfig {
            for_analysis: true,
            ..interpreted::InterpretedConfig::default()
        })
        .expect("builds"),
        wide_toggle(13),
    ];
    for net in &nets {
        let reference = build_untimed(net, &ReachOptions::default()).expect("reference build");
        for jobs in [1, 4] {
            for budget in [usize::MAX, TINY_BUDGET] {
                let g = build_untimed(net, &with_budget(jobs, budget)).expect("paged build");
                assert_eq!(
                    g,
                    reference,
                    "jobs = {jobs}, budget = {budget:#x} diverged on `{}`",
                    net.name()
                );
                if budget == TINY_BUDGET && net.name() == "wide_toggle" {
                    assert!(
                        g.store().spilled_bytes() > 0,
                        "64 KiB must actually force eviction on the lattice (jobs = {jobs})"
                    );
                }
            }
        }
    }
    // Timed graphs page their in-flight arenas through the same path.
    let net = timed_fragment(3);
    let reference = build_timed(&net, &ReachOptions::default()).expect("reference build");
    for jobs in [1, 4] {
        let g = build_timed(&net, &with_budget(jobs, TINY_BUDGET)).expect("paged timed build");
        assert_eq!(g, reference, "timed paged build (jobs = {jobs}) diverged");
    }
}

#[test]
fn paged_build_stays_inside_the_budget_envelope() {
    // A workload whose arenas far exceed the budget must complete with
    // peak resident arena bytes ≤ budget + one state segment + one
    // edge segment (the documented envelope of the sequential build:
    // probe hits fault at most one state segment in, and the edge
    // arena — which shares the byte ledger since the CSR rows page —
    // grows by at most one segment's rows before its own `&mut` point
    // evicts back down). The pipelines are the builds whose probes
    // reach back into old levels, so the segment the explorer keeps
    // while expanding competes with faulted ones for the budget.
    let analysis = interpreted::build(&interpreted::InterpretedConfig {
        for_analysis: true,
        ..interpreted::InterpretedConfig::default()
    })
    .expect("builds");
    let three = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let lattice = wide_toggle(13); // 8192 states × 26 places ≫ 64 KiB
    let cases: [(&str, &Net, bool); 4] = [
        ("wide_toggle(13)", &lattice, false),
        ("three_stage --timed", &three, true),
        ("interpreted_analysis", &analysis, false),
        ("interpreted_analysis --timed", &analysis, true),
    ];
    for (name, net, timed) in cases {
        let build = if timed { build_timed } else { build_untimed };
        let g = build(net, &with_budget(1, TINY_BUDGET)).expect("paged build");
        assert!(
            g.spilled_bytes() > 0,
            "{name}: the budget must force spilling"
        );
        let slack = g.max_state_segment_bytes() + g.max_edge_segment_bytes();
        assert!(
            g.resident_bytes() <= TINY_BUDGET + slack,
            "{name}: resident {} exceeds budget {} + segments {}",
            g.resident_bytes(),
            TINY_BUDGET,
            slack
        );
        assert!(
            g.peak_resident_bytes() <= TINY_BUDGET + slack,
            "{name}: peak {} exceeds budget {} + segments {}",
            g.peak_resident_bytes(),
            TINY_BUDGET,
            slack
        );
        // The edge arena really is paged: the CSR rows (~190 KiB of
        // edges on the lattice) cannot have stayed resident under a
        // 64 KiB budget.
        assert!(
            g.max_edge_segment_bytes() > 0,
            "{name}: edge segments must have sealed"
        );
    }
}

#[test]
fn state_limit_is_deterministic_and_consistent_on_a_paged_store() {
    // The cap must surface the same deterministic error whether or not
    // the store is paging (and regardless of worker count), and the
    // build must fail cleanly rather than leave a half-spilled store.
    use pnut_core::NetBuilder;
    let mut b = NetBuilder::new("unbounded");
    b.place("p", 0);
    b.transition("gen").output("p").add();
    let net = b.build().expect("builds");
    let reference = build_untimed(&net, &with_jobs(1)).expect_err("unbounded");
    for jobs in [1, 4] {
        let e = build_untimed(&net, &with_budget(jobs, 4 * 1024)).expect_err("unbounded");
        assert_eq!(e, reference, "jobs = {jobs} reported a different limit");
    }
    // A capped build that *fits* must agree with the uncapped one even
    // when the cap bites exactly at a segment boundary's worth of
    // states under a tiny budget.
    let lattice = wide_toggle(13);
    let full = build_untimed(&lattice, &ReachOptions::default()).expect("reference");
    for jobs in [1, 4] {
        let opts = ReachOptions {
            max_states: full.state_count(),
            ..with_budget(jobs, TINY_BUDGET)
        };
        let g = build_untimed(&lattice, &opts).expect("exactly at the cap");
        assert_eq!(g, full, "jobs = {jobs} diverged at the exact cap");
        let opts = ReachOptions {
            max_states: full.state_count() - 1,
            ..with_budget(jobs, TINY_BUDGET)
        };
        let e = build_untimed(&lattice, &opts).expect_err("one below the cap");
        assert_eq!(
            e,
            pnut::reach::graph::ReachError::StateLimit {
                limit: full.state_count() - 1
            },
            "jobs = {jobs}"
        );
    }
}

/// Cells of [`trap_net`]. Level 5 (five cells flipped) holds
/// C(11, 5) = 462 states, at least 8 × 48, so a parallel build spreads
/// it over workers at jobs 2, 4 and 8. Levels 0–5 hold 1024 states.
const TRAP_CELLS: u32 = 11;

/// A toggle lattice whose `flips` place counts the flipped cells, plus
/// a self-looping `trap` whose predicate divides by the variable `z`.
/// The trap is ready only where five cells are flipped and cells 0 and
/// 1 are still up, so at `z = 0` the build fails while expanding level
/// 5, and levels are discovered in lexicographic order of the flipped
/// sets: the first failing source is the 337th of the level's 462.
fn trap_net(z: i64) -> Net {
    use pnut_core::NetBuilder;
    let mut b = NetBuilder::new("trap");
    for i in 0..TRAP_CELLS {
        b.place(format!("u{i}"), 1);
        b.place(format!("d{i}"), 0);
    }
    b.place("flips", 0);
    b.var("z", z);
    for i in 0..TRAP_CELLS {
        b.transition(format!("flip{i}"))
            .input(format!("u{i}"))
            .output(format!("d{i}"))
            .output("flips")
            .add();
    }
    b.transition("trap")
        .input("u0")
        .input("u1")
        .input_weighted("flips", 5)
        .output("u0")
        .output("u1")
        .output_weighted("flips", 5)
        .predicate_str("1 / z > 0")
        .expect("predicate parses")
        .add();
    b.build().expect("builds")
}

#[test]
fn errors_inside_a_level_that_spawns_workers_match_jobs_one() {
    use pnut::reach::graph::ReachError;
    type Build = fn(&Net, &ReachOptions) -> Result<ReachabilityGraph, ReachError>;

    // The trap's first ready source lies in the second half of level 5.
    let net = trap_net(1);
    let g = build_untimed(&net, &ReachOptions::default()).expect("z = 1 builds");
    let flips = net.place_id("flips").expect("exists");
    let (u0, u1) = (
        net.place_id("u0").expect("u0"),
        net.place_id("u1").expect("u1"),
    );
    let level: Vec<usize> = (0..g.state_count())
        .filter(|&i| g.state(i).expect("resident").marking.tokens(flips) == 5)
        .collect();
    assert_eq!(level.len(), 462);
    let first = level
        .iter()
        .position(|&i| {
            let m = g.state(i).expect("resident").marking;
            m.tokens(u0) == 1 && m.tokens(u1) == 1
        })
        .expect("the trap is ready somewhere in level 5");
    assert_eq!(first, 336);
    assert!(first * 2 >= level.len(), "first trap source {first}");

    let before = 1024; // states of levels 0–5
    let div = ReachError::Eval {
        transition: "trap".to_string(),
        source: pnut_core::EvalError::DivisionByZero,
    };
    let limit = |limit| ReachError::StateLimit { limit };
    let cases = [
        // (a) the cap bites halfway through level 6's discovery;
        ("cap", 1, before + 231, limit(before + 231)),
        // (b) the division fails at source 336 of level 5;
        ("error", 0, 100_000, div.clone()),
        // (c) the cap bites at source 1, before the error;
        ("cap before error", 0, before + 10, limit(before + 10)),
        // (d) the cap would bite at source 456, after the error.
        ("error before cap", 0, before + 461, div),
    ];
    for (what, z, max_states, expected) in cases {
        let net = trap_net(z);
        for (timed, build) in [(false, build_untimed as Build), (true, build_timed)] {
            for jobs in [1, 2, 4, 8] {
                let opts = ReachOptions {
                    max_states,
                    ..with_jobs(jobs)
                };
                assert_eq!(
                    build(&net, &opts).expect_err(what),
                    expected,
                    "{what}: timed = {timed}, jobs = {jobs}"
                );
            }
        }
    }
}

#[test]
fn spill_io_failures_are_reported_not_panicked() {
    // An unusable spill directory must surface as ReachError::Spill
    // from the first forced eviction — no expect/panic on file ops.
    let mut missing = std::env::temp_dir();
    missing.push(format!("pnut-golden-no-such-dir-{}", std::process::id()));
    missing.push("nested");
    let options = ReachOptions {
        spill_dir: Some(missing),
        ..with_budget(1, TINY_BUDGET)
    };
    let err = build_untimed(&wide_toggle(13), &options).expect_err("spill dir is unusable");
    assert!(
        matches!(err, pnut::reach::graph::ReachError::Spill(_)),
        "expected a spill error, got {err:?}"
    );
}

#[test]
fn rebuilds_are_deterministic_on_the_paper_models() {
    let three = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let seq = sequential::build(&ThreeStageConfig::default()).expect("builds");
    let options = ReachOptions::default();
    for net in [&three, &seq, &timed_fragment(3)] {
        let a = build_untimed(net, &options).expect("first build");
        let b = build_untimed(net, &options).expect("second build");
        assert_eq!(a, b, "untimed rebuild of `{}` differs", net.name());
    }
    let a = build_timed(&timed_fragment(3), &options).expect("first build");
    let b = build_timed(&timed_fragment(3), &options).expect("second build");
    assert_eq!(a, b, "timed rebuild differs");
}
