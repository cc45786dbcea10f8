//! End-to-end contracts for the `pnut_obs` recorder across the real
//! engines (see `docs/OBSERVABILITY.md`):
//!
//! * **Off means off**: with no recorder installed, a full build leaves
//!   every counter at zero and records no spans.
//! * **Determinism at jobs=1**: two identical runs produce *identical*
//!   metric snapshots ([`pnut::obs::Snapshot::metrics_eq`] — spans are
//!   wall-clock and excluded).
//! * **Conservation at jobs>1**: schedule-dependent counters still obey
//!   the catalogue's invariants (probes ≥ hits, misses == states,
//!   faults == reloads on a clean run, level count matches jobs=1), and
//!   the store counters equal the jobs=1 build's.
//! * **Exact explorer work**: the store, pager and level counters of
//!   every build of the checked-in models are pinned, so a change to the
//!   explorer's work (not just its result) fails here.
//! * **Exact solver work**: the Markov chain's edge count and the
//!   solver's sweep count on the checked-in models are pinned the same
//!   way.
//! * **Exact analysis work**: the pager, CTL and invariant counters of
//!   the post-build analysis sweeps are pinned the same way.
//!
//! The recorder is process-global, so this lives in its own test
//! binary and every test serializes on one mutex.

use std::sync::{Mutex, MutexGuard};

use pnut::obs;
use pnut::reach::graph::{build_untimed, ReachOptions};
use pnut_bench::workloads::wide_toggle;

static RECORDER: Mutex<()> = Mutex::new(());

struct Installed<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

fn serial<'a>() -> Installed<'a> {
    Installed(RECORDER.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for Installed<'_> {
    fn drop(&mut self) {
        obs::uninstall();
    }
}

fn checked_in(model: &str) -> pnut::core::Net {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("models").join(format!("{model}.pn")))
        .expect("checked-in model");
    pnut::lang::parse(&src).expect("parses")
}

fn options(jobs: usize, mem_budget: usize) -> ReachOptions {
    ReachOptions {
        jobs,
        mem_budget,
        ..ReachOptions::default()
    }
}

#[test]
fn no_recorder_means_no_telemetry() {
    let _g = serial();
    obs::install(); // reset any residue from a poisoned prior test...
    obs::uninstall(); // ...then run with the recorder OFF.
    let net = wide_toggle(10);
    let g = build_untimed(&net, &options(1, 64 * 1024)).expect("builds");
    assert_eq!(g.state_count(), 1 << 10);
    let snap = obs::snapshot();
    assert!(
        snap.counters.iter().all(|&(_, v)| v == 0),
        "disabled counters must stay zero: {:?}",
        snap.counters
    );
    assert!(snap.gauges.iter().all(|&(_, v)| v == 0));
    assert!(snap.hists.iter().all(|h| h.count == 0));
    assert!(snap.spans.is_empty(), "no spans without a recorder");
}

#[test]
fn sequential_runs_snapshot_identically() {
    let _g = serial();
    let net = wide_toggle(10);
    // 16 KiB is far below the ~forty-byte-per-state arena of 1024
    // states, so the build must evict sealed segments and fault them
    // back in for duplicate probes.
    let snap = |()| {
        obs::install();
        let g = build_untimed(&net, &options(1, 16 * 1024)).expect("builds");
        assert_eq!(g.state_count(), 1 << 10);
        drop(g);
        obs::uninstall();
        obs::snapshot()
    };
    let a = snap(());
    let b = snap(());
    assert!(
        a.metrics_eq(&b),
        "jobs=1 runs must be metric-identical:\n{:?}\nvs\n{:?}",
        a.counters,
        b.counters
    );
    // Sanity: the runs actually recorded something.
    assert_eq!(a.counter("store.misses"), 1 << 10, "misses == states");
    assert!(a.counter("pager.faults") > 0, "a 64 KiB budget must page");
    assert!(!a.spans.is_empty(), "the build span was recorded");
    assert!(
        a.spans.iter().any(|s| s.path == "build"),
        "span paths: {:?}",
        a.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
}

#[test]
fn parallel_counters_obey_the_catalogue_invariants() {
    let _g = serial();
    let net = wide_toggle(10);

    obs::install();
    let g = build_untimed(&net, &options(1, 64 * 1024)).expect("builds");
    drop(g);
    obs::uninstall();
    let seq = obs::snapshot();

    obs::install();
    let g = build_untimed(&net, &options(4, 64 * 1024)).expect("builds");
    assert_eq!(g.state_count(), 1 << 10);
    drop(g);
    obs::uninstall();
    let par = obs::snapshot();

    for snap in [&seq, &par] {
        assert!(
            snap.counter("store.probes") >= snap.counter("store.hits"),
            "every hit is a probe"
        );
        assert_eq!(
            snap.counter("store.misses"),
            1 << 10,
            "misses == distinct states at any job count"
        );
        assert_eq!(
            snap.counter("pager.faults"),
            snap.counter("pager.reloads"),
            "clean runs reload every fault"
        );
        assert_eq!(snap.counter("pager.fault_failures"), 0);
        assert!(
            snap.gauge("pager.peak_resident_bytes") >= snap.gauge("pager.resident_bytes"),
            "peak ratchets"
        );
    }
    // Level barriers are bit-identical between sequential and parallel
    // builds, so the level count (and peak frontier) must agree even
    // though fault schedules differ.
    assert_eq!(seq.counter("reach.levels"), par.counter("reach.levels"));
    assert_eq!(
        seq.gauge("reach.peak_frontier"),
        par.gauge("reach.peak_frontier")
    );
    // Workers only expand; the barrier interns their rows in source
    // order, so the probes, hits and misses are the jobs = 1 build's.
    for name in ["store.probes", "store.hits", "store.misses"] {
        assert_eq!(seq.counter(name), par.counter(name), "{name}");
    }
}

/// The explorer's exact work on the checked-in models, one row per
/// `(model, timed, jobs, budget)` cell: `store.probes`, `store.hits`,
/// `store.misses`, `pager.faults`, `pager.evictions`,
/// `pager.spill_read_bytes`, `pager.spill_write_bytes`, `reach.levels`
/// and `reach.peak_frontier`. A budget of 0 means unlimited.
///
/// Every build interns the same successors in the same order at any
/// job count, so the store counters never depend on `jobs`. No level of
/// the checked-in models reaches the `jobs × 48` states at which worker
/// threads spawn, so their jobs = 4 rows equal their jobs = 1 rows.
/// `wide_toggle(13)` has levels wide enough to spawn workers, and its
/// 8192 states dwarf a 64 KiB budget, so its paged rows are where the
/// sequential build's victim choice shows. Its jobs = 4 paged row is
/// deterministic too: a worker's load only faults (each missing
/// segment once, under the fault lock), and the LRU clock does not
/// tick until the barrier, so every load of a batch stamps the same
/// touch.
#[rustfmt::skip]
const EXPLORER_WORK: &[(&str, bool, usize, usize, [u64; 9])] = &[
    ("three_stage", false, 1, 0, [1989, 1375, 614, 0, 0, 0, 0, 27, 51]),
    ("three_stage", false, 1, 64, [1989, 1375, 614, 19, 26, 107616, 56524, 27, 51]),
    ("three_stage", false, 4, 0, [1989, 1375, 614, 0, 0, 0, 0, 27, 51]),
    ("three_stage", false, 4, 64, [1989, 1375, 614, 19, 26, 107616, 56524, 27, 51]),
    ("three_stage", true, 1, 0, [4877, 1486, 3391, 0, 0, 0, 0, 54, 166]),
    ("three_stage", true, 1, 64, [4877, 1486, 3391, 556, 640, 4231584, 456084, 54, 166]),
    ("three_stage", true, 4, 0, [4877, 1486, 3391, 0, 0, 0, 0, 54, 166]),
    ("three_stage", true, 4, 64, [4877, 1486, 3391, 556, 640, 4231584, 456084, 54, 166]),
    ("interpreted_analysis", false, 1, 0, [8888, 5505, 3383, 0, 0, 0, 0, 130, 64]),
    ("interpreted_analysis", false, 1, 64, [8888, 5505, 3383, 28, 119, 137088, 378548, 130, 64]),
    ("interpreted_analysis", false, 4, 0, [8888, 5505, 3383, 0, 0, 0, 0, 130, 64]),
    ("interpreted_analysis", false, 4, 64, [8888, 5505, 3383, 28, 119, 137088, 378548, 130, 64]),
    ("interpreted_analysis", true, 1, 0, [985, 347, 638, 0, 0, 0, 0, 162, 12]),
    ("interpreted_analysis", true, 1, 64, [985, 347, 638, 3, 7, 18704, 44368, 162, 12]),
    ("interpreted_analysis", true, 4, 0, [985, 347, 638, 0, 0, 0, 0, 162, 12]),
    ("interpreted_analysis", true, 4, 64, [985, 347, 638, 3, 7, 18704, 44368, 162, 12]),
    ("sequential", false, 1, 0, [27, 8, 19, 0, 0, 0, 0, 10, 4]),
    ("sequential", false, 1, 64, [27, 8, 19, 0, 0, 0, 0, 10, 4]),
    ("sequential", false, 4, 0, [27, 8, 19, 0, 0, 0, 0, 10, 4]),
    ("sequential", false, 4, 64, [27, 8, 19, 0, 0, 0, 0, 10, 4]),
    ("sequential", true, 1, 0, [40, 8, 32, 0, 0, 0, 0, 15, 7]),
    ("sequential", true, 1, 64, [40, 8, 32, 0, 0, 0, 0, 15, 7]),
    ("sequential", true, 4, 0, [40, 8, 32, 0, 0, 0, 0, 15, 7]),
    ("sequential", true, 4, 64, [40, 8, 32, 0, 0, 0, 0, 15, 7]),
    ("pager_protocol", false, 1, 0, [37, 16, 21, 0, 0, 0, 0, 10, 3]),
    ("pager_protocol", false, 1, 64, [37, 16, 21, 0, 0, 0, 0, 10, 3]),
    ("pager_protocol", false, 4, 0, [37, 16, 21, 0, 0, 0, 0, 10, 3]),
    ("pager_protocol", false, 4, 64, [37, 16, 21, 0, 0, 0, 0, 10, 3]),
    ("pager_protocol", true, 1, 0, [37, 16, 21, 0, 0, 0, 0, 10, 3]),
    ("pager_protocol", true, 1, 64, [37, 16, 21, 0, 0, 0, 0, 10, 3]),
    ("pager_protocol", true, 4, 0, [37, 16, 21, 0, 0, 0, 0, 10, 3]),
    ("pager_protocol", true, 4, 64, [37, 16, 21, 0, 0, 0, 0, 10, 3]),
    ("wide_toggle(13)", false, 1, 0, [53249, 45057, 8192, 0, 0, 0, 0, 14, 1716]),
    ("wide_toggle(13)", false, 1, 64, [53249, 45057, 8192, 443, 689, 3189600, 1760712, 14, 1716]),
    ("wide_toggle(13)", false, 4, 0, [53249, 45057, 8192, 0, 0, 0, 0, 14, 1716]),
    ("wide_toggle(13)", false, 4, 64, [53249, 45057, 8192, 488, 734, 3513600, 1750164, 14, 1716]),
];

/// One build's [`EXPLORER_WORK`] row: the `names` counters, then the
/// peak frontier. A `budget_kib` of 0 means unlimited.
fn explorer_work(
    net: &pnut::core::Net,
    timed: bool,
    jobs: usize,
    budget_kib: usize,
    names: [&str; 8],
) -> [u64; 9] {
    use pnut::reach::graph::build_timed;

    let budget = if budget_kib == 0 {
        usize::MAX
    } else {
        budget_kib * 1024
    };
    obs::install();
    let build = if timed { build_timed } else { build_untimed };
    let g = build(net, &options(jobs, budget)).expect("builds");
    obs::uninstall();
    drop(g);
    let snap = obs::snapshot();
    let mut work = [0u64; 9];
    for (w, name) in work.iter_mut().zip(names) {
        *w = snap.counter(name);
    }
    work[8] = snap.gauge("reach.peak_frontier");
    work
}

#[test]
fn explorer_work_is_pinned_on_the_checked_in_models() {
    let _g = serial();
    let names = [
        "store.probes",
        "store.hits",
        "store.misses",
        "pager.faults",
        "pager.evictions",
        "pager.spill_read_bytes",
        "pager.spill_write_bytes",
        "reach.levels",
    ];
    let mut got = Vec::new();
    for model in [
        "three_stage",
        "interpreted_analysis",
        "sequential",
        "pager_protocol",
    ] {
        let net = checked_in(model);
        for timed in [false, true] {
            for jobs in [1, 4] {
                for budget_kib in [0, 64] {
                    let work = explorer_work(&net, timed, jobs, budget_kib, names);
                    got.push((model, timed, jobs, budget_kib, work));
                }
            }
        }
    }
    let lattice = wide_toggle(13);
    for jobs in [1, 4] {
        for budget_kib in [0, 64] {
            let work = explorer_work(&lattice, false, jobs, budget_kib, names);
            got.push(("wide_toggle(13)", false, jobs, budget_kib, work));
        }
    }
    let rendered: String = got
        .iter()
        .map(|(m, t, j, b, w)| format!("    ({m:?}, {t}, {j}, {b}, {w:?}),\n"))
        .collect();
    assert_eq!(
        got.as_slice(),
        EXPLORER_WORK,
        "explorer work changed; the measured table is:\n{rendered}"
    );
}

/// The Markov solver's exact work on the checked-in models, one row per
/// model: `markov.extracted_edges` and `markov.solver_iterations`
/// (damped Gauss–Seidel sweeps of the chain compressed to its choice
/// states) of one default `steady_state`.
#[rustfmt::skip]
const MARKOV_WORK: &[(&str, [u64; 2])] = &[
    ("three_stage", [4876, 74]),
    ("interpreted_analysis", [984, 17]),
    ("sequential", [39, 1]),
];

#[test]
fn markov_solver_work_is_pinned_on_the_checked_in_models() {
    use pnut::analytic::markov::{steady_state, MarkovOptions};

    let _g = serial();
    let mut got = Vec::new();
    for &(model, _) in MARKOV_WORK {
        let net = checked_in(model);
        obs::install();
        steady_state(&net, &MarkovOptions::default()).expect("analyzable");
        obs::uninstall();
        let snap = obs::snapshot();
        got.push((
            model,
            [
                snap.counter("markov.extracted_edges"),
                snap.counter("markov.solver_iterations"),
            ],
        ));
    }
    let rendered: String = got
        .iter()
        .map(|(m, w)| format!("    ({m:?}, {w:?}),\n"))
        .collect();
    assert_eq!(
        got.as_slice(),
        MARKOV_WORK,
        "markov solver work changed; the measured table is:\n{rendered}"
    );
}

/// The analysis sweeps' exact work on the checked-in models, one row per
/// `(model, timed, budget)` cell at jobs = 1: `pager.faults`,
/// `pager.evictions`, `pager.spill_read_bytes`, `pager.spill_write_bytes`,
/// `ctl.sweeps`, `ctl.eu_iterations`, `ctl.eg_iterations` and
/// `analysis.invariant_states`. The graph is built with the recorder
/// off, so the row counts only the analyses: `pnut_bench::fires` for
/// every transition, `check_invariants` and three CTL formulas on the
/// model's first place. `deadlocks` and `place_bounds` are called too:
/// the build kept both answers, so they must add no work. A budget of 0
/// means unlimited.
#[rustfmt::skip]
const ANALYSIS_WORK: &[(&str, bool, usize, [u64; 8])] = &[
    ("three_stage", false, 0, [0, 0, 0, 0, 33, 3, 26, 614]),
    ("three_stage", false, 64, [226, 227, 828392, 21496, 33, 3, 26, 614]),
    ("three_stage", true, 0, [0, 0, 0, 0, 42, 10, 28, 865]),
    ("three_stage", true, 64, [1559, 1571, 4291196, 32764, 42, 10, 28, 865]),
    ("interpreted_analysis", false, 0, [0, 0, 0, 0, 27, 3, 20, 3383]),
    ("interpreted_analysis", false, 64, [938, 939, 3277144, 30284, 27, 3, 20, 3383]),
    ("interpreted_analysis", true, 0, [0, 0, 0, 0, 45, 21, 20, 355]),
    ("interpreted_analysis", true, 64, [283, 287, 712788, 29492, 45, 21, 20, 355]),
    ("sequential", false, 0, [0, 0, 0, 0, 27, 10, 13, 19]),
    ("sequential", false, 64, [0, 0, 0, 0, 27, 10, 13, 19]),
    ("sequential", true, 0, [0, 0, 0, 0, 38, 14, 20, 24]),
    ("sequential", true, 64, [0, 0, 0, 0, 38, 14, 20, 24]),
    ("pager_protocol", false, 0, [0, 0, 0, 0, 17, 6, 7, 21]),
    ("pager_protocol", false, 64, [0, 0, 0, 0, 17, 6, 7, 21]),
    ("pager_protocol", true, 0, [0, 0, 0, 0, 17, 6, 7, 21]),
    ("pager_protocol", true, 64, [0, 0, 0, 0, 17, 6, 7, 21]),
];

#[test]
fn analysis_work_is_pinned_on_the_checked_in_models() {
    use pnut::reach::ctl;
    use pnut::reach::graph::build_timed;

    let _g = serial();
    let names = [
        "pager.faults",
        "pager.evictions",
        "pager.spill_read_bytes",
        "pager.spill_write_bytes",
        "ctl.sweeps",
        "ctl.eu_iterations",
        "ctl.eg_iterations",
        "analysis.invariant_states",
    ];
    let mut got = Vec::new();
    for model in [
        "three_stage",
        "interpreted_analysis",
        "sequential",
        "pager_protocol",
    ] {
        let net = checked_in(model);
        let (_, first) = net.places().next().expect("a place");
        let p = first.name();
        let formulas = [
            format!("AG ({p} >= 0)"),
            format!("E [ {p} = 0 U {p} > 0 ]"),
            format!("AF ({p} > 0)"),
        ];
        for timed in [false, true] {
            for budget_kib in [0, 64] {
                let budget = if budget_kib == 0 {
                    usize::MAX
                } else {
                    budget_kib * 1024
                };
                let build = if timed { build_timed } else { build_untimed };
                let mut g = build(&net, &options(1, budget)).expect("builds");
                obs::install();
                g.deadlocks().expect("deadlocks");
                g.place_bounds().expect("place bounds");
                for (tid, _) in net.transitions() {
                    pnut_bench::fires(&mut g, tid).expect("liveness");
                }
                pnut::analysis::check_invariants(&net, &mut g).expect("invariants hold");
                for f in &formulas {
                    let formula = ctl::Formula::parse(f).expect("parses");
                    ctl::check(&mut g, &net, &formula).expect("checks");
                }
                obs::uninstall();
                drop(g);
                let snap = obs::snapshot();
                let mut work = [0u64; 8];
                for (w, name) in work.iter_mut().zip(names) {
                    *w = snap.counter(name);
                }
                got.push((model, timed, budget_kib, work));
            }
        }
    }
    let rendered: String = got
        .iter()
        .map(|(m, t, b, w)| format!("    ({m:?}, {t}, {b}, {w:?}),\n"))
        .collect();
    assert_eq!(
        got.as_slice(),
        ANALYSIS_WORK,
        "analysis work changed; the measured table is:\n{rendered}"
    );
}

/// Satellite audit of the fault counters: every reload error path —
/// injected I/O error, short read, bad version/kind header — must tick
/// `pager.fault_failures` exactly once before propagating, the silent
/// data corruption must NOT (it reloads "successfully"; only a
/// semantic check can catch it), and `faults == fault_failures +
/// reloads` holds after every step.
#[test]
fn fault_failures_tick_on_every_reload_error_path() {
    use pnut::core::expr::compile::EnvSlots;
    use pnut::reach::pager::fail;
    use pnut::reach::{PagerConfig, StateStore};

    let _g = serial();

    // Hooks are process-global; disarm them even if an assert fires.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            fail::reset_spill_failures();
        }
    }
    let _d = Disarm;

    // A store whose sealed segments are spilled (same shape as the
    // reach crate's injection suite: grain 64, 140 two-place states).
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
    obs::install();

    let seq = || {
        let snap = obs::snapshot();
        (
            snap.counter("pager.faults"),
            snap.counter("pager.fault_failures"),
            snap.counter("pager.reloads"),
            snap.counter("pager.spill_read_bytes"),
        )
    };

    // Baseline: one clean fault to learn the image length L.
    assert_eq!(s.state(0).expect("clean fault").marking.as_slice(), &[0, 0]);
    let (f, ff, r, len) = seq();
    assert_eq!((f, ff, r), (1, 0, 1), "clean fault: one reload");
    assert!(len > 0, "the reload read the image");
    s.maintain().expect("evict the faulted segment again");

    // 1. I/O error: the read itself fails — no bytes are accounted.
    fail::fail_nth_spill_read(1);
    s.state(0).expect_err("injected I/O error");
    assert_eq!(seq(), (2, 1, 1, len), "I/O error path");

    // 2. Short read: the bytes arrive (and are counted — half of
    // them), but the format's bounds checks reject the image.
    fail::truncate_nth_spill_read(1);
    s.state(0).expect_err("truncated image rejected");
    assert_eq!(seq(), (3, 2, 1, len + len / 2), "short-read path");

    // 3. Bad version/kind header: a full-length read whose header word
    // is garbage fails validation before anything is materialized.
    fail::bad_header_nth_spill_read(1);
    s.state(0).expect_err("garbled header rejected");
    assert_eq!(seq(), (4, 3, 1, 2 * len + len / 2), "bad-header path");

    // 4. Silent marking corruption: structurally valid, so the reload
    // *succeeds* — fault_failures must NOT tick; the flipped token
    // count is visible in the reloaded data (that is what the
    // `--check-invariants` semantic sweep exists to catch).
    fail::corrupt_nth_spill_read(1);
    assert_eq!(
        s.state(0)
            .expect("silent corruption reloads")
            .marking
            .as_slice(),
        &[1, 0],
        "the low bit of the first marking byte flipped"
    );
    assert_eq!(
        seq(),
        (5, 3, 2, 3 * len + len / 2),
        "silent-corruption path"
    );
    s.maintain().expect("evict the corrupted reload");

    // 5. The corruption mangled only the in-memory reload, never the
    // spill file: a clean refault restores the true data.
    assert_eq!(
        s.state(0).expect("clean refault").marking.as_slice(),
        &[0, 0]
    );
    assert_eq!(seq(), (6, 3, 3, 4 * len + len / 2), "clean refault");
}
