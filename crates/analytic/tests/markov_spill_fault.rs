//! Spill fault injection through the markov pipeline: a reload that
//! fails during chain extraction or the place-average sweep must
//! surface as [`MarkovError::Reach`] — never a panic — and the
//! uninjected retry must match the fully resident run bit for bit.
//!
//! Lives in its own test binary: the [`pnut_reach::pager::fail`]
//! countdowns are process-global, so these tests may not share a
//! process with the reach-crate injection suite.

use std::sync::Mutex;

use pnut_analytic::markov::{steady_state, MarkovError, MarkovOptions};
use pnut_core::NetBuilder;
use pnut_reach::graph::build_timed;
use pnut_reach::pager::fail::{fail_nth_spill_read, reset_spill_failures};
use pnut_reach::ReachError;

/// Serializes the tests (the injection counters are process-global)
/// and guarantees they are disarmed afterwards even if a test panics.
static HOOKS: Mutex<()> = Mutex::new(());

struct Armed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

fn arm<'a>() -> Armed<'a> {
    Armed(HOOKS.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        reset_spill_failures();
        pnut_obs::uninstall();
    }
}

/// A timed token ring wide enough (128 places × 4 bytes per marking)
/// that its graph outgrows a 64 KiB budget: `step` moves tokens
/// `src`→`dst` in 2 ticks, `back` returns them in 1, and the shared
/// `lock` keeps at most one firing in flight so the timed state space
/// stays a manageable ~O(tokens) cycle with no deadlock.
fn wide_ring_net() -> pnut_core::Net {
    let mut b = NetBuilder::new("wide_ring");
    b.place("src", 100);
    b.place("dst", 0);
    b.place("lock", 1);
    for p in 0..125 {
        b.place(format!("w{p}"), 1);
    }
    b.transition("step")
        .input("src")
        .input("lock")
        .output("dst")
        .output("lock")
        .firing(2)
        .add();
    b.transition("back")
        .input("dst")
        .input("lock")
        .output("src")
        .output("lock")
        .firing(1)
        .add();
    b.build().expect("builds")
}

fn paged_options(jobs: usize) -> MarkovOptions {
    let mut options = MarkovOptions::default();
    options.reach.jobs = jobs;
    options.reach.mem_budget = 64 * 1024;
    options
}

fn expect_read_spill(err: MarkovError) {
    match err {
        MarkovError::Reach(ReachError::Spill(e)) => {
            assert_eq!(e.op, "read", "wrong failing op: {e}");
        }
        other => panic!("expected MarkovError::Reach(Spill), got {other:?}"),
    }
}

/// Precise phase landings at jobs=1 (fault counts are deterministic):
/// fail the first reload *after* the build — the opening fault of the
/// chain-extraction sweep — and the last reload of the whole analysis,
/// which lands in the closing place-average sweep.
#[test]
fn extraction_and_average_sweeps_survive_injected_reload_failure() {
    let _g = arm();
    let net = wide_ring_net();
    let options = paged_options(1);
    let resident = steady_state(&net, &MarkovOptions::default()).expect("resident run");

    pnut_obs::install();
    let faults = || pnut_obs::snapshot().counter("pager.faults");

    // Meter the build alone, then the whole analysis, with the same
    // graph options `steady_state` uses internally.
    let before = faults();
    let g = build_timed(&net, &options.reach).expect("bounded build");
    let build_faults = faults() - before;
    assert!(g.spilled_bytes() > 0, "the ring must outgrow 64 KiB");
    drop(g);

    let before = faults();
    let clean = steady_state(&net, &options).expect("clean paged run");
    let total_faults = faults() - before;
    assert_eq!(clean, resident, "paged run != resident run");
    assert!(
        total_faults > build_faults,
        "the analysis sweeps must fault ({total_faults} total vs {build_faults} build)"
    );

    // First post-build reload: chain extraction's opening fault.
    fail_nth_spill_read(build_faults + 1);
    expect_read_spill(steady_state(&net, &options).expect_err("extraction must fail"));
    reset_spill_failures();

    // Last reload of the analysis: the place-average sweep.
    fail_nth_spill_read(total_faults);
    expect_read_spill(steady_state(&net, &options).expect_err("average sweep must fail"));
    reset_spill_failures();

    let retry = steady_state(&net, &options).expect("uninjected retry");
    assert_eq!(retry, resident, "retry is not bit-identical to resident");
}

/// jobs=4: parallel fault ordering is not deterministic enough to pin
/// a phase, but the *first* reload of the run is — and wherever it
/// lands (parallel build or extraction), the failure must come back as
/// a typed error with the process alive and the retry bit-identical.
#[test]
fn parallel_markov_survives_injected_reload_failure() {
    let _g = arm();
    let net = wide_ring_net();
    let options = paged_options(4);
    let resident = steady_state(&net, &MarkovOptions::default()).expect("resident run");

    fail_nth_spill_read(1);
    expect_read_spill(steady_state(&net, &options).expect_err("first reload must fail"));
    reset_spill_failures();

    let retry = steady_state(&net, &options).expect("uninjected retry");
    assert_eq!(retry, resident, "retry is not bit-identical to resident");
}
