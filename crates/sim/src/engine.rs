//! The discrete-event engine.
//!
//! The firing rule (readiness, predicate, delays, token movement and
//! the enabling-clock decision) comes from `pnut-core`'s lowered
//! [`bc::CompiledTransition`], the same one the timed explorer runs;
//! this module keeps only the scheduler: an event queue of completions,
//! absolute enabling deadlines, and frequency-weighted conflict choice.

use crate::error::SimError;
use crate::rng::SeededRandomness;
use pnut_core::expr::compile::{self as bc, Clock};
use pnut_core::expr::Env;
use pnut_core::{Marking, Net, PlaceId, Randomness, Time, TransitionId, Value};
use pnut_obs as obs;
use pnut_trace::{Delta, DeltaKind, TraceHeader, TraceSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tunable engine limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Abort with [`SimError::InstantLivelock`] if more than this many
    /// firings happen without simulation time advancing. Catches
    /// zero-delay cycles, a classic modeling bug.
    pub max_firings_per_instant: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_firings_per_instant: 1_000_000,
        }
    }
}

/// The paper's Figure-5 "RUN STATISTICS" block: what happened during one
/// simulation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Clock value when the run began.
    pub initial_clock: Time,
    /// Clock value when the run ended.
    pub end_time: Time,
    /// Firings started ("Events started").
    pub events_started: u64,
    /// Firings completed ("Events finished"). May trail `events_started`
    /// by the number of firings still in flight at the horizon.
    pub events_finished: u64,
    /// True if the run stopped early because no event could ever occur
    /// again (deadlock / quiescence) rather than at the time horizon.
    pub quiescent: bool,
}

/// A pending firing completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Completion {
    finish: Time,
    order: u64,
    transition: TransitionId,
    firing: u64,
}

/// The simulation engine. See the [crate documentation](crate) for the
/// semantics and an example.
#[derive(Debug)]
pub struct Simulator<'n> {
    net: &'n Net,
    rng: SeededRandomness,
    options: SimOptions,
    time: Time,
    marking: Marking,
    programs: bc::CompiledNet,
    slots: bc::EnvSlots,
    vm: bc::Scratch,
    /// Scalar assignments of the action being fired, for its trace.
    writes: Vec<(u32, Value)>,
    firing_counts: Vec<u32>,
    firing_seq: Vec<u64>,
    /// Absolute enabling deadline of every transition whose clock runs.
    deadline: Vec<Option<Time>>,
    completions: BinaryHeap<Reverse<Completion>>,
    step: u64,
    started: u64,
    finished: u64,
    completion_order: u64,
}

impl<'n> Simulator<'n> {
    /// Create a simulator over `net` seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PredicateUsesRandom`] if any transition's
    /// predicate calls `irand`.
    pub fn new(net: &'n Net, seed: u64) -> Result<Self, SimError> {
        Self::with_options(net, seed, SimOptions::default())
    }

    /// Create a simulator with explicit [`SimOptions`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::new`].
    pub fn with_options(net: &'n Net, seed: u64, options: SimOptions) -> Result<Self, SimError> {
        for (_, t) in net.transitions() {
            if t.predicate().is_some_and(|p| p.uses_random()) {
                return Err(SimError::PredicateUsesRandom {
                    transition: t.name().to_string(),
                });
            }
        }
        let programs = bc::CompiledNet::compile(net).map_err(SimError::Compile)?;
        let mut slots = bc::EnvSlots::new();
        slots.load(&programs.map, net.initial_env());
        let n = net.transition_count();
        Ok(Simulator {
            net,
            rng: SeededRandomness::new(seed),
            options,
            time: Time::ZERO,
            marking: net.initial_marking(),
            programs,
            slots,
            vm: bc::Scratch::new(),
            writes: Vec::new(),
            firing_counts: vec![0; n],
            firing_seq: vec![0; n],
            deadline: vec![None; n],
            completions: BinaryHeap::new(),
            step: 0,
            started: 0,
            finished: 0,
            completion_order: 0,
        })
    }

    /// Current simulation time.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Current marking.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// Current variable environment, built from the engine's slots.
    pub fn env(&self) -> Env {
        self.slots.to_env(&self.programs.map)
    }

    /// In-flight firings of `transition`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the net.
    pub fn in_flight(&self, transition: TransitionId) -> u32 {
        self.firing_counts[transition.index()]
    }

    /// Run until the clock reaches `until` (processing events *at*
    /// `until`), streaming the trace into `sink`. May be called again to
    /// continue the experiment; each call emits a complete trace whose
    /// header describes the state at the start of the call. A horizon
    /// before the clock runs nothing and leaves the clock where it is,
    /// so time never runs backwards.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on expression failures or instant livelock;
    /// the sink will have received `end` with the failure time, so
    /// partial traces remain well-formed.
    pub fn run<S: TraceSink>(&mut self, until: Time, sink: &mut S) -> Result<RunSummary, SimError> {
        let _span = obs::span("sim.run");
        let initial_clock = self.time;
        let started_before = self.started;
        let finished_before = self.finished;
        sink.begin(&self.header());

        let mut quiescent = false;
        if until >= self.time {
            quiescent = match self.run_inner(until, sink) {
                Ok(q) => q,
                Err(e) => {
                    sink.end(self.time);
                    return Err(e);
                }
            };
            // Even when the net goes quiescent early, the experiment ran
            // to its horizon: the final state persists and time-weighted
            // statistics must account for it (the paper's "Length of
            // Simulation" is the horizon).
            self.time = until;
        }
        sink.end(self.time);
        Ok(RunSummary {
            initial_clock,
            end_time: self.time,
            events_started: self.started - started_before,
            events_finished: self.finished - finished_before,
            quiescent,
        })
    }

    fn header(&self) -> TraceHeader {
        let mut h = TraceHeader::new(
            self.net.name(),
            self.net
                .places()
                .map(|(_, p)| p.name().to_string())
                .collect(),
            self.net
                .transitions()
                .map(|(_, t)| t.name().to_string())
                .collect(),
        )
        .with_initial_marking(self.marking.as_slice().to_vec())
        .with_initial_env(self.env());
        h.start_time = self.time;
        h
    }

    /// Returns `Ok(true)` if the run ended in quiescence before `until`.
    fn run_inner<S: TraceSink>(&mut self, until: Time, sink: &mut S) -> Result<bool, SimError> {
        self.refresh_enabling()?;
        loop {
            // Fire everything eligible at the current instant.
            let mut fired_this_instant = 0u64;
            while let Some(choice) = self.choose_eligible() {
                self.fire(choice, sink)?;
                fired_this_instant += 1;
                if fired_this_instant > self.options.max_firings_per_instant {
                    return Err(SimError::InstantLivelock {
                        time: self.time,
                        cap: self.options.max_firings_per_instant,
                    });
                }
                self.refresh_enabling()?;
            }

            // Advance to the next event.
            let next_completion = self.completions.peek().map(|Reverse(c)| c.finish);
            let next_deadline = self
                .deadline
                .iter()
                .flatten()
                .copied()
                .filter(|&d| d > self.time)
                .min();
            let next = match (next_completion, next_deadline) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return Ok(true),
            };
            if next > until {
                return Ok(false);
            }
            self.time = next;
            while let Some(Reverse(c)) = self.completions.peek().copied() {
                if c.finish > self.time {
                    break;
                }
                self.completions.pop();
                self.finish_firing(c.transition, c.firing, sink);
            }
            self.refresh_enabling()?;
        }
    }

    /// Apply the enabling-clock rule to every transition: arm a
    /// deadline when it becomes ready, drop it when readiness is lost.
    fn refresh_enabling(&mut self) -> Result<(), SimError> {
        let (map, slots) = (&self.programs.map, &self.slots);
        for (i, ct) in self.programs.transitions.iter().enumerate() {
            let eval = |source| SimError::Eval {
                transition: self.net.transition(TransitionId::new(i)).name().to_string(),
                source,
            };
            let vm = &mut self.vm;
            let ready = ct.ready(self.marking.as_slice(), || self.firing_counts[i])
                && ct.predicate_holds(slots, map, vm).map_err(eval)?;
            let clock = ct.clock(
                ready,
                || self.deadline[i],
                slots,
                map,
                vm,
                Some(&mut self.rng),
            );
            self.deadline[i] = match clock.map_err(eval)? {
                Clock::Off => None,
                Clock::Keep(deadline) => Some(deadline),
                Clock::Arm(ticks) => Some(self.time + Time::from_ticks(ticks)),
            };
        }
        Ok(())
    }

    /// Among transitions whose enabling deadline has passed, choose one
    /// with probability proportional to firing frequency.
    fn choose_eligible(&mut self) -> Option<TransitionId> {
        let eligible: Vec<(TransitionId, f64)> = (0..self.net.transition_count())
            .filter(|&i| self.deadline[i].is_some_and(|d| d <= self.time))
            .map(|i| {
                let tid = TransitionId::new(i);
                (tid, self.net.transition(tid).frequency())
            })
            .collect();
        match eligible.len() {
            0 => None,
            1 => Some(eligible[0].0),
            _ => {
                let total: f64 = eligible.iter().map(|(_, f)| f).sum();
                let mut draw = self.rng.unit_f64() * total;
                for &(tid, f) in &eligible {
                    draw -= f;
                    if draw <= 0.0 {
                        return Some(tid);
                    }
                }
                Some(eligible[eligible.len() - 1].0)
            }
        }
    }

    fn emit<S: TraceSink>(&self, sink: &mut S, kind: DeltaKind) {
        sink.delta(&Delta::new(self.time, self.step, kind));
    }

    fn fire<S: TraceSink>(&mut self, tid: TransitionId, sink: &mut S) -> Result<(), SimError> {
        let i = tid.index();
        let ct = &self.programs.transitions[i];
        let firing = self.firing_seq[i];
        self.firing_seq[i] += 1;
        self.step += 1;

        self.emit(
            sink,
            DeltaKind::Start {
                transition: tid,
                firing,
            },
        );
        move_tokens(&mut self.marking, &ct.start, sink, self.time, self.step);
        let eval = |source| SimError::Eval {
            transition: self.net.transition(tid).name().to_string(),
            source,
        };
        if let Some(prog) = &ct.action {
            self.writes.clear();
            prog.apply_logged(
                &mut self.slots,
                &self.programs.map,
                &mut self.vm,
                &mut self.rng,
                &mut self.writes,
            )
            .map_err(eval)?;
            // Scalar assignments become trace deltas, in execution order.
            for &(slot, value) in &self.writes {
                let name = self.programs.map.var_name(slot).to_string();
                self.emit(sink, DeltaKind::VarSet { name, value });
            }
        }

        // The action runs before the delay is resolved so table-driven
        // models can compute their own firing times (paper §3).
        let duration = ct
            .firing
            .resolve(
                &self.slots,
                &self.programs.map,
                &mut self.vm,
                Some(&mut self.rng),
            )
            .map_err(eval)?;

        self.started += 1;
        obs::metrics::SIM_EVENTS.inc();
        obs::heartbeat(self.started, || {
            format!(
                "sim: {} events started at t={}",
                self.started,
                self.time.ticks()
            )
        });
        if duration == 0 {
            // Atomic firing: finish within the same step so invariants
            // like Bus_free + Bus_busy = 1 hold in every observable state.
            self.deliver(tid, firing, sink);
        } else {
            self.firing_counts[i] += 1;
            self.completions.push(Reverse(Completion {
                finish: self.time + Time::from_ticks(duration),
                order: self.completion_order,
                transition: tid,
                firing,
            }));
            self.completion_order += 1;
        }

        // A firing ends the transition's current enabling interval; if it
        // is still ready the clock restarts (refresh re-arms it at the
        // current instant).
        self.deadline[i] = None;
        Ok(())
    }

    fn finish_firing<S: TraceSink>(&mut self, tid: TransitionId, firing: u64, sink: &mut S) {
        self.step += 1;
        self.deliver(tid, firing, sink);
        self.firing_counts[tid.index()] -= 1;
    }

    /// End `tid`'s `firing`: emit `Finish` and deliver its outputs.
    fn deliver<S: TraceSink>(&mut self, tid: TransitionId, firing: u64, sink: &mut S) {
        self.emit(
            sink,
            DeltaKind::Finish {
                transition: tid,
                firing,
            },
        );
        let end = &self.programs.transitions[tid.index()].end;
        move_tokens(&mut self.marking, end, sink, self.time, self.step);
        self.finished += 1;
    }
}

/// Apply one lowered token movement to `marking`, writing one
/// `PlaceDelta` per arc, in arc order.
fn move_tokens<S: TraceSink>(
    marking: &mut Marking,
    movement: &[(u32, i64)],
    sink: &mut S,
    time: Time,
    step: u64,
) {
    for &(p, delta) in movement {
        let place = PlaceId::new(p as usize);
        let tokens = u32::try_from(delta.unsigned_abs()).unwrap_or(u32::MAX);
        if delta < 0 {
            let removed = marking.try_remove(place, tokens);
            debug_assert!(removed, "eligible transition must have its input tokens");
        } else {
            marking.add(place, tokens);
        }
        sink.delta(&Delta::new(
            time,
            step,
            DeltaKind::PlaceDelta { place, delta },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;
    use pnut_trace::{CountingSink, Recorder};

    fn run_recorded(net: &Net, seed: u64, until: u64) -> pnut_trace::RecordedTrace {
        let mut sim = Simulator::new(net, seed).unwrap();
        let mut rec = Recorder::new();
        sim.run(Time::from_ticks(until), &mut rec).unwrap();
        rec.into_trace().unwrap()
    }

    #[test]
    fn firing_time_delays_outputs() {
        let mut b = NetBuilder::new("n");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("t").input("a").output("b").firing(5).add();
        let net = b.build().unwrap();
        let trace = run_recorded(&net, 0, 10);
        // Token leaves `a` at 0, arrives on `b` at 5.
        let states: Vec<_> = trace.states().collect();
        let a = trace.header().place_id("a").unwrap();
        let bb = trace.header().place_id("b").unwrap();
        assert_eq!(states[1].marking.tokens(a), 0);
        assert_eq!(states[1].marking.tokens(bb), 0, "in flight");
        assert_eq!(states[1].time, Time::ZERO);
        let last = states.last().unwrap();
        assert_eq!(last.marking.tokens(bb), 1);
        assert_eq!(last.time, Time::from_ticks(5));
    }

    #[test]
    fn enabling_time_delays_start_without_removing_tokens() {
        let mut b = NetBuilder::new("n");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("t").input("a").output("b").enabling(4).add();
        let net = b.build().unwrap();
        let trace = run_recorded(&net, 0, 10);
        let states: Vec<_> = trace.states().collect();
        let a = trace.header().place_id("a").unwrap();
        // Until time 4, token stays on `a`.
        assert_eq!(states[0].marking.tokens(a), 1);
        let fire_state = &states[1];
        assert_eq!(fire_state.time, Time::from_ticks(4));
        // Zero firing time: atomic move in one step.
        let bb = trace.header().place_id("b").unwrap();
        assert_eq!(fire_state.marking.tokens(bb), 1);
    }

    #[test]
    fn enabling_clock_resets_when_disabled() {
        // `thief` (enabling 2) steals the shared token before `slow`
        // (enabling 3) ever fires; the token returns at t=4 via firing
        // time, and slow must wait a *full* 3 ticks again (fires at 7 if
        // not stolen again — but thief re-arms earlier and keeps winning).
        let mut b = NetBuilder::new("n");
        b.place("shared", 1);
        b.place("out_slow", 0);
        b.transition("thief")
            .input("shared")
            .output("shared")
            .enabling(2)
            .firing(2)
            .add();
        b.transition("slow")
            .input("shared")
            .output("out_slow")
            .enabling(3)
            .add();
        let net = b.build().unwrap();
        let trace = run_recorded(&net, 0, 20);
        let out = trace.header().place_id("out_slow").unwrap();
        let last = trace.states().last().unwrap();
        assert_eq!(
            last.marking.tokens(out),
            0,
            "slow's enabling clock must reset each time the token is stolen"
        );
    }

    #[test]
    fn concurrent_firings_allowed_without_cap() {
        // Two tokens, server with firing time 10: both should be in
        // flight simultaneously (the paper's queueing-server pattern).
        let mut b = NetBuilder::new("n");
        b.place("q", 2);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .firing(10)
            .add();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, 0).unwrap();
        let mut rec = Recorder::new();
        sim.run(Time::from_ticks(5), &mut rec).unwrap();
        let serve = net.transition_id("serve").unwrap();
        assert_eq!(sim.in_flight(serve), 2);
    }

    #[test]
    fn max_concurrent_caps_in_flight() {
        let mut b = NetBuilder::new("n");
        b.place("q", 2);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .firing(10)
            .max_concurrent(1)
            .add();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, 0).unwrap();
        let mut rec = Recorder::new();
        sim.run(Time::from_ticks(25), &mut rec).unwrap();
        let serve = net.transition_id("serve").unwrap();
        assert_eq!(sim.in_flight(serve), 0);
        // Serialized: 0-10 and 10-20.
        assert_eq!(sim.marking().tokens(net.place_id("done").unwrap()), 2);
    }

    #[test]
    fn quiescence_detected() {
        let mut b = NetBuilder::new("n");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("t").input("a").output("b").firing(2).add();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, 0).unwrap();
        let mut sink = CountingSink::new();
        let s = sim.run(Time::from_ticks(1000), &mut sink).unwrap();
        assert!(s.quiescent);
        assert_eq!(
            s.end_time,
            Time::from_ticks(1000),
            "horizon, not last event"
        );
        assert_eq!(s.events_started, 1);
        assert_eq!(s.events_finished, 1);
    }

    #[test]
    fn zero_delay_cycle_reports_livelock() {
        let mut b = NetBuilder::new("n");
        b.place("a", 1);
        b.transition("spin").input("a").output("a").add();
        let net = b.build().unwrap();
        let mut sim = Simulator::with_options(
            &net,
            0,
            SimOptions {
                max_firings_per_instant: 100,
            },
        )
        .unwrap();
        let mut sink = CountingSink::new();
        let e = sim.run(Time::from_ticks(10), &mut sink).unwrap_err();
        assert!(matches!(e, SimError::InstantLivelock { .. }));
        assert_eq!(sink.ends, 1, "trace is closed even on failure");
    }

    #[test]
    fn random_predicate_rejected_at_construction() {
        let mut b = NetBuilder::new("n");
        b.place("a", 1);
        b.transition("t")
            .input("a")
            .predicate_str("irand(0, 1) == 1")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        assert!(matches!(
            Simulator::new(&net, 0),
            Err(SimError::PredicateUsesRandom { .. })
        ));
    }

    #[test]
    fn frequencies_bias_conflict_resolution() {
        // One token, two competitors with frequencies 0.9 / 0.1; count
        // wins over many instants.
        let mut b = NetBuilder::new("n");
        b.place("tok", 1);
        b.place("won_a", 0);
        b.place("won_b", 0);
        b.transition("a")
            .input("tok")
            .output("won_a")
            .output("tok")
            .frequency(0.9)
            .firing(1)
            .add();
        b.transition("bt")
            .input("tok")
            .output("won_b")
            .output("tok")
            .frequency(0.1)
            .firing(1)
            .add();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, 42).unwrap();
        let mut sink = CountingSink::new();
        sim.run(Time::from_ticks(2000), &mut sink).unwrap();
        let wa = sim.marking().tokens(net.place_id("won_a").unwrap()) as f64;
        let wb = sim.marking().tokens(net.place_id("won_b").unwrap()) as f64;
        let share = wa / (wa + wb);
        assert!(
            (0.85..=0.95).contains(&share),
            "expected ~0.9 share for the frequent transition, got {share}"
        );
    }

    #[test]
    fn actions_set_variables_and_drive_delays() {
        // Table-driven delay: action picks type, firing time reads table.
        let mut b = NetBuilder::new("n");
        b.place("go", 1);
        b.place("done", 0);
        b.var("ty", 0);
        b.table("delays", vec![0, 3, 7]);
        b.transition("work")
            .input("go")
            .output("done")
            .action_str("ty = 2;")
            .unwrap()
            .firing_expr(pnut_core::Expr::parse("delays[ty]").unwrap())
            .add();
        let net = b.build().unwrap();
        let trace = run_recorded(&net, 0, 100);
        let last = trace.states().last().unwrap();
        assert_eq!(last.time, Time::from_ticks(7));
        assert_eq!(last.env.int("ty").unwrap(), 2);
        // VarSet delta must appear in the trace.
        assert!(trace
            .deltas()
            .iter()
            .any(|d| matches!(&d.kind, DeltaKind::VarSet { name, .. } if name == "ty")));
    }

    #[test]
    fn predicate_gates_firing() {
        let mut b = NetBuilder::new("n");
        b.place("a", 1);
        b.place("b", 0);
        b.var("allowed", 0);
        b.transition("blocked")
            .input("a")
            .output("b")
            .predicate_str("allowed == 1")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, 0).unwrap();
        let mut sink = CountingSink::new();
        let s = sim.run(Time::from_ticks(50), &mut sink).unwrap();
        assert!(s.quiescent);
        assert_eq!(s.events_started, 0);
    }

    #[test]
    fn same_seed_reproduces_trace_exactly() {
        let mut b = NetBuilder::new("n");
        b.place("tok", 1);
        b.places_empty(["x", "y"]);
        b.transition("tx")
            .input("tok")
            .output("x")
            .output("tok")
            .frequency(0.5)
            .firing(1)
            .add();
        b.transition("ty")
            .input("tok")
            .output("y")
            .output("tok")
            .frequency(0.5)
            .firing(2)
            .add();
        let net = b.build().unwrap();
        let t1 = run_recorded(&net, 99, 500);
        let t2 = run_recorded(&net, 99, 500);
        assert_eq!(t1, t2);
        let t3 = run_recorded(&net, 100, 500);
        assert_ne!(t1, t3, "different seed should diverge");
    }

    #[test]
    fn run_can_continue_from_previous_state() {
        let mut b = NetBuilder::new("n");
        b.place("p", 1);
        b.var("n", 0);
        b.table("tab", vec![0, 0]);
        b.transition("t")
            .input("p")
            .output("p")
            .firing(3)
            .action_str("n = n + 1; tab[1] = n;")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, 0).unwrap();
        let mut rec1 = Recorder::new();
        sim.run(Time::from_ticks(4), &mut rec1).unwrap();
        let mut rec2 = Recorder::new();
        let s2 = sim.run(Time::from_ticks(10), &mut rec2).unwrap();
        assert_eq!(s2.initial_clock, Time::from_ticks(4));
        let tr2 = rec2.into_trace().unwrap();
        assert_eq!(tr2.header().start_time, Time::from_ticks(4));
        // The header carries the first run's writes (firings at 0 and 3),
        // table elements included, though traces record only scalars.
        let env = &tr2.header().initial_env;
        assert_eq!(env.int("n").unwrap(), 2);
        assert_eq!(env.table("tab").unwrap(), &[0, 2]);
        // Continuation trace carries the in-flight state implicitly:
        // first event is the completion at t=6.
        assert_eq!(tr2.deltas()[0].time, Time::from_ticks(6));
    }

    #[test]
    fn a_horizon_before_the_clock_runs_nothing() {
        let mut b = NetBuilder::new("n");
        b.place("p", 1);
        b.transition("t").input("p").output("p").firing(3).add();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, 0).unwrap();
        sim.run(Time::from_ticks(10), &mut CountingSink::new())
            .unwrap();
        let mut rec = Recorder::new();
        let s = sim.run(Time::from_ticks(5), &mut rec).unwrap();
        let ten = Time::from_ticks(10);
        assert_eq!((s.initial_clock, s.end_time, sim.time()), (ten, ten, ten));
        assert_eq!((s.events_started, s.events_finished), (0, 0));
        let tr = rec.into_trace().unwrap();
        assert_eq!((tr.header().start_time, tr.end_time()), (ten, ten));
        assert!(tr.deltas().is_empty());
    }

    #[test]
    fn weighted_arcs_consume_in_bulk() {
        let mut b = NetBuilder::new("n");
        b.place("buf", 6);
        b.place("fetched", 0);
        b.transition("prefetch")
            .input_weighted("buf", 2)
            .output_weighted("fetched", 2)
            .firing(1)
            .add();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, 0).unwrap();
        let mut sink = CountingSink::new();
        let s = sim.run(Time::from_ticks(100), &mut sink).unwrap();
        assert_eq!(s.events_started, 3, "6 tokens / 2 per firing");
        assert_eq!(sim.marking().tokens(net.place_id("fetched").unwrap()), 6);
    }

    #[test]
    fn inhibitor_blocks_until_cleared() {
        let mut b = NetBuilder::new("n");
        b.place("a", 1);
        b.place("blocker", 1);
        b.place("out", 0);
        b.place("sink_p", 0);
        b.transition("clear")
            .input("blocker")
            .output("sink_p")
            .firing(5)
            .add();
        b.transition("go")
            .input("a")
            .inhibitor("blocker")
            .output("out")
            .add();
        let net = b.build().unwrap();
        let trace = run_recorded(&net, 0, 20);
        let out = trace.header().place_id("out").unwrap();
        // `go` can only fire once `clear` started (t=0 removes blocker).
        // clear starts at 0 and removes its token then, so go fires at 0.
        let first_out = trace.states().find(|s| s.marking.tokens(out) == 1).unwrap();
        assert_eq!(first_out.time, Time::ZERO);
    }
}
