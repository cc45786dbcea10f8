//! The pager fault/evict protocol under the in-tree interleaving
//! checker (`pnut_reach::race`), plus the mutation battery that proves
//! the checker actually *kills* seeded protocol bugs.
//!
//! Compiled only with `--features race-model` (the CI `soundness` job);
//! an ordinary `cargo test` sees an empty file. Every scenario builds a
//! real spilled [`StateStore`] through the public API and probes it
//! from virtual threads, so the code being explored is the production
//! fault path itself — not a model of it.
#![cfg(feature = "race-model")]

use pnut_core::expr::compile::EnvSlots;
use pnut_reach::race::{self, FailureKind, Options};
use pnut_reach::sync::mutation;
use pnut_reach::{PagerConfig, StateStore};

/// States interned per scenario store: three segments at the minimum
/// paging grain of 64 — two sealed (indices 0..64 and 64..128, both
/// evicted by the byte budget) and a resident tail.
const STATES: u32 = 140;
const SEG1_FIRST: usize = 64;

/// A store whose sealed segments are all spilled: marking of state `i`
/// is `[i, 0]`, so probes can verify bytes end to end.
fn spilled_store() -> StateStore {
    let cfg = PagerConfig {
        // Far below one segment: every sealed segment is evicted the
        // moment it seals, and faults never trigger eviction (eviction
        // needs `&mut`, which the scenarios deliberately do not hold).
        mem_budget: 512,
        spill_dir: None,
    };
    let mut s = StateStore::with_config(2, &cfg);
    let env = s.intern_env(&EnvSlots::new()).expect("env");
    for i in 0..STATES {
        s.intern(&[i, 0], env, &[], &[]).expect("intern");
    }
    s.maintain().expect("seal + evict");
    assert!(s.spilled_bytes() > 0, "setup must actually spill");
    s
}

fn expected(i: usize) -> [u32; 2] {
    [i as u32, 0]
}

/// A reusable two-prober scenario: optionally pre-fault one segment
/// single-threaded, then two virtual threads probe states `a` and `b`
/// concurrently and check the bytes they get back.
fn probe_two(a: usize, b: usize, prefault: Option<usize>) -> impl Fn() + Send + Sync {
    move || {
        let store = spilled_store();
        if let Some(p) = prefault {
            // Make this segment resident *and* imaged before the
            // threads start (it faulted once already).
            assert_eq!(
                store.state(p).expect("prefault").marking.as_slice(),
                &expected(p)
            );
        }
        race::scope(|s| {
            s.spawn(|| {
                assert_eq!(
                    store.state(a).expect("probe a").marking.as_slice(),
                    &expected(a)
                );
            });
            s.spawn(|| {
                assert_eq!(
                    store.state(b).expect("probe b").marking.as_slice(),
                    &expected(b)
                );
            });
        });
        // Post-join reads see exactly the same bytes.
        assert_eq!(
            store.state(a).expect("reread a").marking.as_slice(),
            &expected(a)
        );
        assert_eq!(
            store.state(b).expect("reread b").marking.as_slice(),
            &expected(b)
        );
    }
}

#[test]
fn double_fault_on_one_segment_is_sound() {
    // Both probers hit segment 0 (states 0 and 1): one faults, the
    // other either blocks on the fault lock or takes the fast path on
    // the freshly installed pointer — in every interleaving.
    let stats = race::check(&Options::default(), probe_two(0, 1, None))
        .expect("double fault on one segment has no defects");
    assert!(
        stats.executions > 10,
        "expected a real interleaving space, got {} executions",
        stats.executions
    );
}

#[test]
fn concurrent_faults_on_distinct_segments_are_sound() {
    race::check(&Options::default(), probe_two(0, SEG1_FIRST, None))
        .expect("concurrent faults on distinct segments have no defects");
}

#[test]
fn fault_racing_a_fast_path_probe_is_sound() {
    // Segment 1 is resident (pre-faulted); thread B reads it on the
    // fast path while thread A faults segment 0 in.
    race::check(
        &Options::default(),
        probe_two(0, SEG1_FIRST + 1, Some(SEG1_FIRST)),
    )
    .expect("fault racing a fast-path probe has no defects");
}

#[test]
fn ledger_accounts_each_fault_exactly_once() {
    race::check(&Options::default(), || {
        let store = spilled_store();
        let before = store.resident_arena_bytes();
        race::scope(|s| {
            s.spawn(|| {
                store.state(0).expect("fault seg 0");
            });
            s.spawn(|| {
                store.state(SEG1_FIRST).expect("fault seg 1");
            });
        });
        let after = store.resident_arena_bytes();
        assert!(after > before, "two faults must grow the resident ledger");
        assert!(
            store.peak_resident_arena_bytes() >= after,
            "peak envelopes resident"
        );
        // Re-probing resident segments must not account again.
        race::scope(|s| {
            s.spawn(|| {
                store.state(1).expect("fast path seg 0");
            });
            s.spawn(|| {
                store.state(SEG1_FIRST + 1).expect("fast path seg 1");
            });
        });
        assert_eq!(
            store.resident_arena_bytes(),
            after,
            "fast-path probes double-accounted the ledger"
        );
    })
    .expect("ledger contention has no defects");
}

#[test]
fn probe_seal_probe_phases_stay_sound() {
    // The protocol's phase structure: concurrent probes, then an
    // exclusive seal/evict point (`maintain` under `&mut`, which the
    // borrow checker proves cannot overlap any probe), then more
    // concurrent probes re-faulting what the eviction pushed out.
    race::check(&Options::default(), || {
        let mut store = spilled_store();
        race::scope(|s| {
            s.spawn(|| {
                store.state(0).expect("probe");
            });
            s.spawn(|| {
                store.state(1).expect("probe");
            });
        });
        store.maintain().expect("evict the faulted segment again");
        race::scope(|s| {
            s.spawn(|| {
                assert_eq!(
                    store.state(0).expect("refault").marking.as_slice(),
                    &expected(0)
                );
            });
            s.spawn(|| {
                assert_eq!(
                    store.state(SEG1_FIRST).expect("refault").marking.as_slice(),
                    &expected(SEG1_FIRST)
                );
            });
        });
    })
    .expect("probe/seal/probe phases have no defects");
}

/// The mutation battery: each seeded protocol bug (see
/// `pnut_reach::sync::mutation`) must be killed by the checker — with
/// the expected failure kind — and the recorded schedule must replay
/// to the same verdict. The unmutated protocol passing *exhaustively*
/// is the other half of the argument (the tests above).
#[test]
fn mutation_battery_kills_every_mutant() {
    struct Mutant {
        tag: &'static str,
        expect: &'static [FailureKind],
        scenario: Box<dyn Fn() + Send + Sync>,
    }
    let battery = [
        Mutant {
            // No recheck after taking the fault lock: the second
            // faulter re-installs over the first installation, leaking
            // it (and double-accounting the ledger).
            tag: mutation::DROP_FAULT_RECHECK,
            expect: &[FailureKind::Leak],
            scenario: Box::new(probe_two(0, 1, None)),
        },
        Mutant {
            // Relaxed install: a fast-path reader acquires the pointer
            // but not the deserialized bytes behind it.
            tag: mutation::RELAXED_INSTALL,
            expect: &[FailureKind::Race],
            scenario: Box::new(probe_two(0, 1, None)),
        },
        Mutant {
            // Freeing a cold segment inside `fault()` (under `&self`)
            // rips memory out from under the concurrent fast-path
            // reader of segment 1.
            tag: mutation::FREE_IN_FAULT,
            expect: &[FailureKind::Race, FailureKind::UseAfterFree],
            scenario: Box::new(probe_two(0, SEG1_FIRST + 1, Some(SEG1_FIRST))),
        },
    ];
    for m in &battery {
        eprintln!("battery: exploring mutant `{}`", m.tag);
        let opts = Options {
            tags: vec![m.tag],
            ..Options::default()
        };
        let err = match race::check(&opts, &*m.scenario) {
            Err(e) => e,
            Ok(stats) => panic!(
                "mutant `{}` survived {} explored executions",
                m.tag, stats.executions
            ),
        };
        assert!(
            m.expect.contains(&err.kind),
            "mutant `{}` was killed as {:?}, expected one of {:?}:\n{err}",
            m.tag,
            err.kind,
            m.expect
        );
        assert!(!err.schedule.is_empty() || !err.message.is_empty());
        let replayed = race::replay(&opts, &err.schedule, &*m.scenario)
            .unwrap_or_else(|| panic!("mutant `{}` schedule did not replay", m.tag));
        assert_eq!(
            replayed.kind, err.kind,
            "mutant `{}` replay diverged:\n{replayed}",
            m.tag
        );
    }
}
