//! Spill-file fault injection: a failing reload or spill write must
//! surface as [`ReachError::Spill`] — never a panic, never a deadlock,
//! never a corrupted store — and the store must keep working once the
//! fault clears (a retryable I/O error is retryable end to end).
//!
//! The hooks ([`pnut_reach::pager::fail`]) are process-global
//! countdowns, so every test here serializes on one mutex.

use std::sync::Mutex;

use pnut_core::expr::compile::EnvSlots;
use pnut_core::{NetBuilder, TransitionId};
use pnut_reach::graph::{build_untimed, EdgeLabel, ReachOptions};
use pnut_reach::pager::fail::{fail_nth_spill_read, fail_nth_spill_write, reset_spill_failures};
use pnut_reach::{PagerConfig, ReachError, StateStore};

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

/// A store whose first two segments are spilled (grain 64, 140 states).
fn spilled_store() -> StateStore {
    let cfg = PagerConfig {
        mem_budget: 512,
        spill_dir: None,
    };
    let mut s = StateStore::with_config(2, &cfg);
    let env = s.intern_env(&EnvSlots::new()).expect("env");
    for i in 0..140u32 {
        s.intern(&[i, 0], env, &[], &[]).expect("intern");
    }
    s.maintain().expect("seal + evict");
    assert!(s.spilled_bytes() > 0, "setup must actually spill");
    s
}

fn expect_spill(err: ReachError, op: &str) {
    match err {
        ReachError::Spill(e) => assert_eq!(e.op, op, "wrong failing op: {e}"),
        other => panic!("expected ReachError::Spill({op}), got {other:?}"),
    }
}

#[test]
fn reload_failure_surfaces_as_spill_error_and_is_retryable() {
    let _g = arm();
    let store = spilled_store();
    // Install the obs recorder *after* setup so the pager counters see
    // exactly the injected fault sequence below.
    pnut_obs::install();

    fail_nth_spill_read(1);
    expect_spill(
        store.try_marking_slice(0).expect_err("injected read fails"),
        "read",
    );
    let snap = pnut_obs::snapshot();
    assert_eq!(snap.counter("pager.faults"), 1, "one reload attempted");
    assert_eq!(snap.counter("pager.fault_failures"), 1, "and it failed");
    assert_eq!(snap.counter("pager.reloads"), 0, "no successful reload");

    // The failed fault left the store consistent: the segment is still
    // spilled, nothing double-accounted, and the same probe succeeds
    // once the fault clears.
    reset_spill_failures();
    assert_eq!(store.try_marking_slice(0).expect("retry"), &[0, 0]);
    let snap = pnut_obs::snapshot();
    assert_eq!(snap.counter("pager.faults"), 2, "exactly one retry");
    assert_eq!(snap.counter("pager.fault_failures"), 1);
    assert_eq!(snap.counter("pager.reloads"), 1, "the retry reloaded");
    assert!(
        snap.counter("pager.spill_read_bytes") > 0,
        "the successful reload read the spilled image"
    );
    assert_eq!(
        store.try_marking_slice(70).expect("other segment"),
        &[70, 0]
    );
}

#[test]
fn second_read_failing_spares_the_first_fault() {
    let _g = arm();
    let store = spilled_store();

    // N-th semantics: arm the *second* read; the first fault succeeds,
    // the next one fails.
    fail_nth_spill_read(2);
    assert_eq!(store.try_marking_slice(0).expect("first fault"), &[0, 0]);
    expect_spill(
        store.try_marking_slice(70).expect_err("second fault fails"),
        "read",
    );
}

#[test]
fn spill_write_failure_surfaces_during_eviction_and_is_retryable() {
    let _g = arm();
    let cfg = PagerConfig {
        mem_budget: 512,
        spill_dir: None,
    };
    let mut s = StateStore::with_config(2, &cfg);
    let env = s.intern_env(&EnvSlots::new()).expect("env");

    // Spilling is eager: `append` seals a full tail and evicts back
    // under budget inline, so the first spill write happens mid-intern,
    // not in a later explicit `maintain()`. Arm before interning.
    fail_nth_spill_write(1);
    let mut failed_at = None;
    for i in 0..140u32 {
        match s.intern(&[i, 0], env, &[], &[]) {
            Ok(_) => {}
            Err(e) => {
                expect_spill(e, "write");
                failed_at = Some(i);
                break;
            }
        }
    }
    let failed_at = failed_at.expect("a seal-time eviction must hit the injected write failure");
    assert_eq!(s.spilled_bytes(), 0, "the failed eviction wrote nothing");

    // The aborted eviction lost no data: the whole interned prefix —
    // including the state whose append triggered the eviction — is
    // still readable (the store is merely over budget).
    for i in 0..=failed_at {
        assert_eq!(
            s.try_marking_slice(i as usize).expect("still readable"),
            &[i, 0]
        );
    }

    // Once the fault clears, an explicit maintain() retries the same
    // eviction cleanly...
    reset_spill_failures();
    s.maintain().expect("retry spills");
    assert!(s.spilled_bytes() > 0);

    // ...and the store keeps working end to end: finish interning,
    // spill, and fault the evicted segments back in.
    for i in failed_at + 1..140u32 {
        s.intern(&[i, 0], env, &[], &[]).expect("intern resumes");
    }
    s.maintain().expect("steady state");
    assert_eq!(s.try_marking_slice(0).expect("faults back in"), &[0, 0]);
    assert_eq!(s.try_marking_slice(139).expect("tail stays"), &[139, 0]);
}

/// A chain net with a marking wide enough (64 places × 4 bytes) that a
/// few hundred states outgrow a 64 KiB budget: `step` moves one token
/// at a time from `src` to `dst`, and the filler places never change, so
/// `src + dst = 800` is invariant and `dst = 800` is the single deadlock.
fn wide_chain_net() -> pnut_core::Net {
    let mut b = NetBuilder::new("wide_chain");
    b.place("src", 800);
    b.place("dst", 0);
    for p in 0..62 {
        b.place(format!("w{p}"), 1);
    }
    b.transition("step").input("src").output("dst").add();
    b.build().expect("builds")
}

/// One sweep that reads every state and its successors, returning how
/// many states it read before it ended, and how it ended.
fn read_all(g: &mut pnut_reach::ReachabilityGraph) -> (usize, Result<(), ReachError>) {
    let mut read = 0;
    let end = g.sweep(|i, guard| -> Result<(), ReachError> {
        guard.state(i)?;
        guard.successors(i)?;
        read += 1;
        Ok(())
    });
    (read, end)
}

/// Sweep every segment once so the pager's residency (and therefore
/// the fault sequence of whatever runs next) depends only on the sweep
/// order, not on build history or worker timing.
fn normalize(g: &mut pnut_reach::ReachabilityGraph) {
    read_all(g).1.expect("normalization sweep");
}

/// Whether `t` labels some edge: a sweep that reads no row after the
/// first witness, so the phase's faults end in the witness segment.
fn fires(g: &mut pnut_reach::ReachabilityGraph, t: TransitionId) -> Result<bool, ReachError> {
    let mut found = false;
    g.sweep(|i, guard| -> Result<(), ReachError> {
        found = found
            || guard
                .successors(i)?
                .iter()
                .any(|e| e.0 == EdgeLabel::Fire(t));
        Ok(())
    })?;
    Ok(found)
}

fn faults() -> u64 {
    pnut_obs::snapshot().counter("pager.faults")
}

/// One cell of the injection matrix. Runs `op` three times on two
/// identically-built graphs: a clean metering run (counts the phase's
/// faults, checks the paged answer against the resident `expected`),
/// an injected run arming the *last* of those faults — deep inside the
/// phase, e.g. a late fixpoint iteration for CTL — which must return
/// `Err`, and an uninjected retry that must again match `expected`
/// bit for bit. Returns the injected error for a typed assertion.
fn assert_phase<T, E, F>(
    label: &str,
    g_meter: &mut pnut_reach::ReachabilityGraph,
    g_inject: &mut pnut_reach::ReachabilityGraph,
    expected: &T,
    mut op: F,
) -> E
where
    T: PartialEq + std::fmt::Debug,
    E: std::fmt::Debug,
    F: FnMut(&mut pnut_reach::ReachabilityGraph) -> Result<T, E>,
{
    normalize(g_meter);
    normalize(g_inject);
    let before = faults();
    let clean = op(g_meter).expect("clean metering run");
    let n = faults() - before;
    assert!(
        n >= 1,
        "{label}: the phase must fault under a 64 KiB budget"
    );
    assert_eq!(&clean, expected, "{label}: paged result != resident");

    fail_nth_spill_read(n);
    let err = op(g_inject).expect_err("injected mid-phase read must fail");
    reset_spill_failures();

    let retry = op(g_inject).expect("uninjected retry");
    assert_eq!(
        &retry, expected,
        "{label}: retry after the fault cleared is not bit-identical"
    );
    err
}

/// The analysis-phase matrix: fail a spill read *inside* `fires`, a CTL
/// `EU` fixpoint, and a CTL `EG` fixpoint, at budget 64 KiB × jobs
/// {1, 4}. Every phase must surface a typed `Spill` error (the process
/// stays alive — this test keeps running), and the uninjected retry on
/// the very graph that faulted must match the fully resident run bit
/// for bit. `deadlocks` and `place_bounds` read nothing (the build kept
/// both answers): with the first reload armed to fail, they must still
/// return the resident answers and fault nothing.
#[test]
fn every_analysis_phase_survives_an_injected_reload_failure() {
    use pnut_reach::ctl;
    use pnut_reach::CtlError;

    let _g = arm();
    let net = wide_chain_net();
    let step = net.transition_id("step").expect("exists");
    let eu = ctl::Formula::parse("E [ src + dst = 800 U dst = 800 ]").expect("parses");
    let eg = ctl::Formula::parse("EG (src + dst = 800)").expect("parses");

    // Fully resident reference run.
    let mut resident = build_untimed(&net, &ReachOptions::default()).expect("builds");
    let ref_deadlocks = resident.deadlocks().expect("resident");
    let ref_bounds = resident.place_bounds().expect("resident");
    let ref_fires = fires(&mut resident, step).expect("resident");
    let ref_eu = ctl::check(&mut resident, &net, &eu)
        .expect("resident")
        .satisfying;
    let ref_eg = ctl::check(&mut resident, &net, &eg)
        .expect("resident")
        .satisfying;
    assert!(
        ref_fires && !ref_deadlocks.is_empty(),
        "matrix is not vacuous"
    );

    pnut_obs::install();
    for jobs in [1, 4] {
        let opts = ReachOptions {
            jobs,
            mem_budget: 64 * 1024,
            ..ReachOptions::default()
        };
        // Two identical builds: fault counts metered on one graph
        // transfer to the other (construction is deterministic and
        // `assert_phase` normalizes residency before each run).
        let mut g_meter = build_untimed(&net, &opts).expect("bounded build");
        let mut g_inject = build_untimed(&net, &opts).expect("bounded build");
        assert!(g_inject.spilled_bytes() > 0, "jobs={jobs}: must spill");

        normalize(&mut g_inject);
        fail_nth_spill_read(1);
        let before = faults();
        let kept = (g_inject.deadlocks(), g_inject.place_bounds());
        reset_spill_failures();
        assert_eq!(
            faults(),
            before,
            "jobs={jobs}: deadlocks/place_bounds faulted"
        );
        assert_eq!(
            kept,
            (Ok(ref_deadlocks.clone()), Ok(ref_bounds.clone())),
            "jobs={jobs}"
        );

        let label = format!("fires (jobs={jobs})");
        let err = assert_phase(&label, &mut g_meter, &mut g_inject, &ref_fires, |g| {
            fires(g, step)
        });
        expect_spill(err, "read");

        for (what, formula, reference) in [("EU", &eu, &ref_eu), ("EG", &eg, &ref_eg)] {
            let label = format!("CTL {what} (jobs={jobs})");
            let err = assert_phase(&label, &mut g_meter, &mut g_inject, reference, |g| {
                ctl::check(g, &net, formula).map(|o| o.satisfying)
            });
            match err {
                CtlError::Reach(e) => expect_spill(e, "read"),
                other => panic!("{label}: expected CtlError::Reach, got {other:?}"),
            }
        }
    }
}

#[test]
fn mid_sweep_reload_failure_in_a_parallel_paged_graph() {
    let _g = arm();
    // A 201-state chain, built in parallel with a budget small enough
    // that segments spill during construction and the sweep must fault
    // them back in.
    let mut b = NetBuilder::new("chain");
    b.place("src", 200);
    b.place("dst", 0);
    b.transition("step").input("src").output("dst").add();
    let net = b.build().expect("builds");
    let opts = ReachOptions {
        jobs: 4,
        mem_budget: 512,
        ..ReachOptions::default()
    };
    let mut g = build_untimed(&net, &opts).expect("bounded build");
    let total = g.state_count();
    assert_eq!(total, 201);

    // Fail a reload somewhere mid-sweep: the analysis returns the error
    // (no panic, no deadlock, no partial visit presented as complete).
    fail_nth_spill_read(2);
    let (visited, end) = read_all(&mut g);
    expect_spill(end.expect_err("injected mid-sweep read fails"), "read");
    assert!(
        visited < total,
        "sweep must stop at the failed segment, visited {visited}/{total}"
    );

    // Once the fault clears the same graph sweeps to completion.
    reset_spill_failures();
    let (revisited, end) = read_all(&mut g);
    end.expect("clean sweep");
    assert_eq!(revisited, total);
}
