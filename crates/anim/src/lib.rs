#![forbid(unsafe_code)]

//! # pnut-anim — trace animation
//!
//! Reproduction of the P-NUT animator (paper §4.3, Figure 6): "simulation
//! traces can be processed by an animation tool which allows the user to
//! single-step through the trace or to animate the entire trace."
//!
//! The paper stresses one design point: "a common deficiency of Petri net
//! animations is that the animation consists of tokens disappearing and
//! reappearing from places. The P-NUT animator deliberately animates the
//! *flow of tokens over arcs*." Accordingly every frame here shows the
//! token movements of one atomic step — which arcs tokens travelled, from
//! where to where — followed by the marking after the step.
//!
//! This is "better referred to as a visual discrete event simulation"
//! (§4.3): frames are indexed by step, not wall-clock, and the simulation
//! clock may jump arbitrarily between frames.
//!
//! # Example
//!
//! ```
//! use pnut_core::{NetBuilder, Time};
//! use pnut_anim::Animator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetBuilder::new("n");
//! b.place("a", 1);
//! b.place("b", 0);
//! b.transition("move").input("a").output("b").firing(2).add();
//! let net = b.build()?;
//! let trace = pnut_sim::simulate(&net, 0, Time::from_ticks(5))?;
//!
//! let mut anim = Animator::new(&trace);
//! let first = anim.step().expect("at least one event");
//! assert!(first.to_string().contains("a --(1)--> [move]"));
//! # Ok(())
//! # }
//! ```

mod heatmap;

pub use heatmap::{HeatRow, Heatmap};

use pnut_core::Time;
use pnut_trace::{DeltaKind, RecordedTrace};
use std::fmt;

/// One animation frame: the token movements of one atomic step and the
/// marking afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Simulation time of the step.
    pub time: Time,
    /// Frame number (1-based; frame 0 is the initial state, produced by
    /// [`Animator::initial_frame`]).
    pub index: usize,
    /// Human-readable description of the event.
    pub caption: String,
    /// Token movements over arcs, one per line, e.g.
    /// `a --(2)--> [move]` or `[move] --(1)--> b`.
    pub movements: Vec<String>,
    /// `place: tokens` lines for places whose count changed, plus a
    /// compact total.
    pub marking_lines: Vec<String>,
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "── frame {} @ t={} ─ {}",
            self.index, self.time, self.caption
        )?;
        for m in &self.movements {
            writeln!(f, "   {m}")?;
        }
        for m in &self.marking_lines {
            writeln!(f, "   {m}")?;
        }
        Ok(())
    }
}

/// Steps through a recorded trace producing [`Frame`]s.
#[derive(Debug)]
pub struct Animator<'t> {
    trace: &'t RecordedTrace,
    pos: usize,
    index: usize,
    marking: Vec<i64>,
}

impl<'t> Animator<'t> {
    /// Create an animator positioned before the first event.
    pub fn new(trace: &'t RecordedTrace) -> Self {
        Animator {
            trace,
            pos: 0,
            index: 0,
            marking: trace
                .header()
                .initial_marking
                .iter()
                .map(|&t| i64::from(t))
                .collect(),
        }
    }

    /// The frame describing the initial state (frame 0).
    pub fn initial_frame(&self) -> Frame {
        let header = self.trace.header();
        Frame {
            time: header.start_time,
            index: 0,
            caption: format!("initial state of `{}`", header.net_name),
            movements: Vec::new(),
            marking_lines: header
                .place_names
                .iter()
                .zip(&header.initial_marking)
                .filter(|&(_, &t)| t > 0)
                .map(|(n, &t)| format!("{n}: {}", tokens(i64::from(t))))
                .collect(),
        }
    }

    /// Produce the next frame (single-step), or `None` at the end of the
    /// trace.
    pub fn step(&mut self) -> Option<Frame> {
        let deltas = self.trace.deltas();
        if self.pos >= deltas.len() {
            return None;
        }
        let header = self.trace.header();
        let step = deltas[self.pos].step;
        let time = deltas[self.pos].time;
        let mut caption = String::new();
        let mut movements = Vec::new();
        let mut touched = Vec::new();
        let mut current_transition: Option<(String, bool)> = None;

        while self.pos < deltas.len() && deltas[self.pos].step == step {
            let d = &deltas[self.pos];
            match &d.kind {
                DeltaKind::Start { transition, firing } => {
                    let name = header.transition_name(*transition).to_string();
                    caption = format!("{name} starts firing (instance {firing})");
                    current_transition = Some((name, true));
                }
                DeltaKind::Finish { transition, firing } => {
                    let name = header.transition_name(*transition).to_string();
                    if caption.is_empty() {
                        caption = format!("{name} finishes firing (instance {firing})");
                    } else {
                        caption.push_str(" and finishes instantly");
                    }
                    current_transition = Some((name, false));
                }
                DeltaKind::PlaceDelta { place, delta } => {
                    let pname = header.place_name(*place);
                    self.marking[place.index()] += delta;
                    touched.push(place.index());
                    match &current_transition {
                        Some((t, true)) if *delta < 0 => {
                            movements.push(format!("{pname} --({})--> [{t}]", -delta));
                        }
                        Some((t, _)) if *delta > 0 => {
                            movements.push(format!("[{t}] --({delta})--> {pname}"));
                        }
                        _ => {
                            movements.push(format!("{pname} {delta:+}"));
                        }
                    }
                }
                DeltaKind::VarSet { name, value } => {
                    movements.push(format!("{name} := {value}"));
                }
            }
            self.pos += 1;
        }
        self.index += 1;
        touched.sort_unstable();
        touched.dedup();
        let marking_lines = touched
            .into_iter()
            .map(|i| format!("{}: {}", header.place_names[i], tokens(self.marking[i])))
            .collect();
        Some(Frame {
            time,
            index: self.index,
            caption,
            movements,
            marking_lines,
        })
    }
}

/// Render a token count as filled circles (capped, with a numeric tail).
fn tokens(count: i64) -> String {
    const CAP: i64 = 8;
    if count <= 0 {
        "(empty)".to_string()
    } else if count <= CAP {
        "●".repeat(count as usize)
    } else {
        format!("●×{count}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;

    fn mover_trace() -> RecordedTrace {
        let mut b = NetBuilder::new("n");
        b.place("a", 2);
        b.place("b", 0);
        b.transition("move").input("a").output("b").firing(3).add();
        let net = b.build().unwrap();
        pnut_sim::simulate(&net, 0, Time::from_ticks(10)).unwrap()
    }

    #[test]
    fn initial_frame_lists_marked_places() {
        let t = mover_trace();
        let f = Animator::new(&t).initial_frame();
        assert_eq!(f.index, 0);
        assert!(f.marking_lines.iter().any(|l| l == "a: ●●"));
        assert!(
            !f.marking_lines.iter().any(|l| l.starts_with("b:")),
            "empty places are not listed initially"
        );
    }

    #[test]
    fn start_frames_show_flow_into_the_transition() {
        let t = mover_trace();
        let mut anim = Animator::new(&t);
        let f = anim.step().unwrap();
        assert!(f.caption.contains("move starts firing"));
        assert_eq!(f.movements, vec!["a --(1)--> [move]"]);
        assert!(f.marking_lines.contains(&"a: ●".to_string()));
    }

    #[test]
    fn finish_frames_show_flow_out_of_the_transition() {
        let t = mover_trace();
        let mut anim = Animator::new(&t);
        // Both tokens start (unbounded concurrency), then finish.
        let mut captions = Vec::new();
        let mut movements = Vec::new();
        while let Some(f) = anim.step() {
            assert!(f
                .to_string()
                .contains(&format!("frame {} @", captions.len() + 1)));
            captions.push(f.caption.clone());
            movements.extend(f.movements);
        }
        assert_eq!(captions.len(), 4, "2 starts + 2 finishes");
        assert!(captions.iter().any(|c| c.contains("finishes firing")));
        assert!(movements.iter().any(|m| m == "[move] --(1)--> b"));
    }

    #[test]
    fn variable_assignments_appear_in_frames() {
        let mut b = NetBuilder::new("v");
        b.place("p", 1);
        b.var("x", 0);
        b.transition("t")
            .input("p")
            .action_str("x = 42;")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let trace = pnut_sim::simulate(&net, 0, Time::from_ticks(2)).unwrap();
        let mut anim = Animator::new(&trace);
        let f = anim.step().unwrap();
        assert!(f.movements.iter().any(|m| m == "x := 42"));
    }

    #[test]
    fn weighted_movements_show_the_count() {
        let mut b = NetBuilder::new("w");
        b.place("pool", 4);
        b.place("got", 0);
        b.transition("grab")
            .input_weighted("pool", 2)
            .output_weighted("got", 2)
            .firing(1)
            .add();
        let net = b.build().unwrap();
        let trace = pnut_sim::simulate(&net, 0, Time::from_ticks(1)).unwrap();
        let mut anim = Animator::new(&trace);
        let mut all = String::new();
        while let Some(f) = anim.step() {
            all.push_str(&f.to_string());
        }
        assert!(all.contains("pool --(2)--> [grab]"), "{all}");
    }

    #[test]
    fn big_counts_render_compactly() {
        assert_eq!(tokens(0), "(empty)");
        assert_eq!(tokens(3), "●●●");
        assert_eq!(tokens(100), "●×100");
    }
}
