//! Self-hosted closure: the pager's fault/evict/probe protocol —
//! whose implementation `pnut-reach` model-checks operationally with
//! the in-tree interleaving checker (`crates/reach/tests/race_model.rs`)
//! — encoded as a Petri net in `models/pager_protocol.pn` and verified
//! with the repo's *own* reachability and CTL tools. The toolset
//! proves the concurrency discipline of the very pager it runs on.
//!
//! The encoding (two worker tokens, one segment):
//!
//! * `W_idle → W_probe` — a worker probes a marking.
//! * `fast_path_hit` — the slot pointer is non-null (`seg_resident`
//!   read non-destructively): the worker borrows the data (`W_read`).
//! * `fast_path_miss` — the inhibitor arc on `seg_resident` is the
//!   null-pointer test: the worker heads for the fault lock.
//! * `lock_acquire` / `recheck_hit` / `reload_install` — the fault
//!   path: take the lock, re-check the slot (the inhibitor arc on
//!   `reload_install` *is* the re-check), install, release. The borrow
//!   (`W_read`) outlives the critical section, exactly as
//!   `fault()` returns its `&S` after dropping the guard.
//! * `evict` — `maintain()` under `&mut self`: the inhibitor arcs on
//!   every worker place are the borrow checker's guarantee that no
//!   probe is in flight.
//!
//! The broken variants below mirror the seeded mutants of the
//! operational checker's mutation battery, and the same invariants
//! that kill them there fail here.

use pnut::core::{Net, NetBuilder};
use pnut::reach::{ctl, graph};

fn protocol_file() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("models")
        .join("pager_protocol.pn");
    std::fs::read_to_string(path).expect("model file exists")
}

fn untimed(net: &Net) -> graph::ReachabilityGraph {
    graph::build_untimed(net, &graph::ReachOptions::default()).expect("bounded")
}

fn holds(g: &mut graph::ReachabilityGraph, net: &Net, formula: &str) -> bool {
    let f = ctl::Formula::parse(formula).expect("parses");
    ctl::check(g, net, &f).expect("checks").holds_initially
}

#[test]
fn pager_protocol_net_verifies() {
    let net = pnut::lang::parse(&protocol_file()).expect("parses");
    let mut g = untimed(&net);
    assert!(
        g.deadlocks().expect("kept by the build").is_empty(),
        "the protocol must never deadlock: {:?}",
        g.deadlocks()
    );
    for (formula, expect) in [
        // The fault lock is a real lock: conserved and held at most once.
        ("AG (lock_free + lock_held = 1)", true),
        ("AG (lock_held <= 1)", true),
        // Mutual exclusion of the fault critical section.
        ("AG (W_crit <= 1)", true),
        // Exactly-once install: the re-check (inhibitor arc) makes a
        // double residency — the ledger leak — unreachable.
        ("AG (seg_resident <= 1)", true),
        // No dangling dereference: a live borrow implies live memory.
        // This is the invariant the FREE_IN_FAULT mutant breaks.
        ("AG (W_read >= 1 -> seg_resident = 1)", true),
        // Worker conservation.
        ("AG (W_idle + W_probe + W_wait + W_crit + W_read = 2)", true),
        // The concurrency is real: both workers can read at once...
        ("EF (W_read = 2)", true),
        // ...a reader can overlap the other worker's fault...
        ("EF (W_read + W_crit = 2)", true),
        // ...and the segment can always eventually be evicted again.
        ("AG EF (seg_resident = 0)", true),
        // Sanity falsehoods.
        ("AG (seg_resident = 0)", false),
        ("EF (lock_held = 2)", false),
    ] {
        assert_eq!(
            holds(&mut g, &net, formula),
            expect,
            "CTL formula `{formula}` expected {expect}"
        );
    }
}

/// Rebuild the checked-in net programmatically, with two seams where
/// the broken variants diverge. Keeping one builder for all three nets
/// guarantees the variants differ from the verified model *only* in
/// the seeded bug.
fn build_protocol(drop_recheck: bool, free_in_fault: bool) -> Net {
    let mut b = NetBuilder::new("pager_protocol");
    b.place("W_idle", 2);
    b.place("W_probe", 0);
    b.place("W_wait", 0);
    b.place("W_crit", 0);
    b.place("W_read", 0);
    b.place("lock_free", 1);
    b.place("lock_held", 0);
    b.place("seg_resident", 0);
    b.transition("probe_start")
        .input("W_idle")
        .output("W_probe")
        .add();
    b.transition("fast_path_hit")
        .input("W_probe")
        .input("seg_resident")
        .output("W_read")
        .output("seg_resident")
        .add();
    b.transition("fast_path_miss")
        .input("W_probe")
        .output("W_wait")
        .inhibitor("seg_resident")
        .add();
    b.transition("lock_acquire")
        .input("W_wait")
        .input("lock_free")
        .output("W_crit")
        .output("lock_held")
        .add();
    if !drop_recheck {
        // DROP_FAULT_RECHECK deletes the resident short-circuit…
        b.transition("recheck_hit")
            .input("W_crit")
            .input("lock_held")
            .input("seg_resident")
            .output("W_read")
            .output("lock_free")
            .output("seg_resident")
            .add();
    }
    {
        let t = b
            .transition("reload_install")
            .input("W_crit")
            .input("lock_held")
            .output("W_read")
            .output("lock_free")
            .output("seg_resident");
        // …and the inhibitor arc that *is* the re-check, so the fault
        // path re-installs over a live installation.
        if drop_recheck {
            t.add();
        } else {
            t.inhibitor("seg_resident").add();
        }
    }
    b.transition("read_done")
        .input("W_read")
        .output("W_idle")
        .add();
    b.transition("evict")
        .input("seg_resident")
        .inhibitor("W_probe")
        .inhibitor("W_wait")
        .inhibitor("W_crit")
        .inhibitor("W_read")
        .add();
    if free_in_fault {
        // FREE_IN_FAULT: the faulter frees a resident segment under
        // `&self`, without the evict transition's inhibitor arcs.
        b.transition("free_during_fault")
            .input("W_crit")
            .input("lock_held")
            .input("seg_resident")
            .output("W_crit")
            .output("lock_held")
            .add();
    }
    b.build().expect("builds")
}

#[test]
fn checked_in_model_matches_builder() {
    assert_eq!(
        protocol_file(),
        pnut::lang::print(&build_protocol(false, false))
    );
}

#[test]
fn drop_recheck_variant_leaks_a_double_install() {
    let net = build_protocol(true, false);
    let mut g = untimed(&net);
    // The exactly-once invariant the verified model proves now fails:
    // two faulters can both install, doubling residency (the leak the
    // operational checker reports as `FailureKind::Leak`).
    assert!(!holds(&mut g, &net, "AG (seg_resident <= 1)"));
    assert!(holds(&mut g, &net, "EF (seg_resident = 2)"));
    // The lock itself is still sound — the bug is past the lock.
    assert!(holds(&mut g, &net, "AG (lock_held <= 1)"));
}

#[test]
fn free_in_fault_variant_dangles_a_borrow() {
    let net = build_protocol(false, true);
    let mut g = untimed(&net);
    // A reader's borrow can outlive the memory: the no-dangling-deref
    // invariant fails (the use-after-free the operational checker
    // reports as `Race`/`UseAfterFree`).
    assert!(!holds(&mut g, &net, "AG (W_read >= 1 -> seg_resident = 1)"));
    assert!(holds(&mut g, &net, "EF (W_read >= 1 and seg_resident = 0)"));
    // Mutual exclusion still holds — the free races readers, not the lock.
    assert!(holds(&mut g, &net, "AG (W_crit <= 1)"));
}
