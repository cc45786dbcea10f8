//! Bottleneck feedback.
//!
//! §4.3 closes with the P-NUT group's future-work item: "the use of true
//! animation in giving users feedback about bottlenecks in the system."
//! This module implements the non-interactive core of that idea: an
//! activity *heatmap* computed from a trace — per-place occupancy and
//! per-transition busy fractions rendered as bars — so the hot resources
//! jump out before any detailed timeline work.

use pnut_trace::RecordedTrace;
use std::fmt;

/// One heatmap row.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatRow {
    /// Place or transition name.
    pub name: String,
    /// Activity in `[0, 1]`: time-weighted non-empty fraction for
    /// places, busy (≥1 firing in flight) fraction for transitions.
    pub activity: f64,
}

/// Activity heatmap of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Place rows, sorted by descending activity.
    pub places: Vec<HeatRow>,
    /// Transition rows, sorted by descending activity.
    pub transitions: Vec<HeatRow>,
}

impl Heatmap {
    /// Compute the heatmap from a recorded trace.
    pub fn from_trace(trace: &RecordedTrace) -> Self {
        let header = trace.header();
        let places = header.place_names.len();
        let transitions = header.transition_names.len();
        let start = header.start_time.ticks();
        let end = trace.end_time().ticks().max(start);
        let window = (end - start) as f64;

        let mut place_busy = vec![0u64; places];
        let mut trans_busy = vec![0u64; transitions];
        let mut prev_time = start;
        let mut prev_marking: Vec<u32> = header.initial_marking.clone();
        let mut prev_firing = vec![0u32; transitions];
        let mut cursor = trace.cursor();
        // State #0 is the header's, which `prev_*` already hold.
        cursor.next();
        while let Some(state) = cursor.next() {
            let dt = state.time.ticks() - prev_time;
            if dt > 0 {
                for (i, busy) in place_busy.iter_mut().enumerate() {
                    if prev_marking[i] > 0 {
                        *busy += dt;
                    }
                }
                for (i, busy) in trans_busy.iter_mut().enumerate() {
                    if prev_firing[i] > 0 {
                        *busy += dt;
                    }
                }
            }
            prev_time = state.time.ticks();
            prev_marking.copy_from_slice(state.marking.as_slice());
            prev_firing.copy_from_slice(&state.firing_counts);
        }
        // Close the window with the final state.
        let dt = end.saturating_sub(prev_time);
        if dt > 0 {
            for (i, busy) in place_busy.iter_mut().enumerate() {
                if prev_marking[i] > 0 {
                    *busy += dt;
                }
            }
            for (i, busy) in trans_busy.iter_mut().enumerate() {
                if prev_firing[i] > 0 {
                    *busy += dt;
                }
            }
        }

        let frac = |busy: u64| {
            if window > 0.0 {
                busy as f64 / window
            } else {
                0.0
            }
        };
        let mut place_rows: Vec<HeatRow> = header
            .place_names
            .iter()
            .zip(&place_busy)
            .map(|(n, &b)| HeatRow {
                name: n.clone(),
                activity: frac(b),
            })
            .collect();
        let mut trans_rows: Vec<HeatRow> = header
            .transition_names
            .iter()
            .zip(&trans_busy)
            .map(|(n, &b)| HeatRow {
                name: n.clone(),
                activity: frac(b),
            })
            .collect();
        place_rows.sort_by(|a, b| b.activity.total_cmp(&a.activity).then(a.name.cmp(&b.name)));
        trans_rows.sort_by(|a, b| b.activity.total_cmp(&a.activity).then(a.name.cmp(&b.name)));
        Heatmap {
            places: place_rows,
            transitions: trans_rows,
        }
    }
}

impl fmt::Display for Heatmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const WIDTH: usize = 30;
        let bar = |v: f64| "█".repeat((v * WIDTH as f64).round() as usize);
        writeln!(f, "ACTIVITY HEATMAP (fraction of time non-idle)")?;
        writeln!(f, "places:")?;
        for r in &self.places {
            writeln!(
                f,
                "  {:<28} {:>6.1}% {}",
                r.name,
                r.activity * 100.0,
                bar(r.activity)
            )?;
        }
        writeln!(f, "transitions:")?;
        for r in &self.transitions {
            writeln!(
                f,
                "  {:<28} {:>6.1}% {}",
                r.name,
                r.activity * 100.0,
                bar(r.activity)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::{NetBuilder, Time};

    #[test]
    fn heatmap_ranks_the_busy_stage_first() {
        // slow (firing 9) vs fast (firing 1) in a ring.
        let mut b = NetBuilder::new("ring");
        b.place("a", 1);
        b.place("bp", 0);
        b.transition("slow").input("a").output("bp").firing(9).add();
        b.transition("fast").input("bp").output("a").firing(1).add();
        let net = b.build().unwrap();
        let trace = pnut_sim::simulate(&net, 0, Time::from_ticks(100)).unwrap();
        let h = Heatmap::from_trace(&trace);
        let hottest = &h.transitions[0];
        assert_eq!(hottest.name, "slow");
        assert!(
            hottest.activity > 0.8,
            "slow is busy 90%: {}",
            hottest.activity
        );
        let fast = h.transitions.iter().find(|r| r.name == "fast").unwrap();
        assert!(fast.activity < 0.2);
    }

    #[test]
    fn place_occupancy_measured() {
        let mut b = NetBuilder::new("hold");
        b.place("idle", 1);
        b.place("held", 0);
        b.transition("take")
            .input("idle")
            .output("held")
            .enabling(2)
            .add();
        b.transition("give")
            .input("held")
            .output("idle")
            .enabling(8)
            .add();
        let net = b.build().unwrap();
        let trace = pnut_sim::simulate(&net, 0, Time::from_ticks(100)).unwrap();
        let h = Heatmap::from_trace(&trace);
        let held = h.places.iter().find(|r| r.name == "held").unwrap();
        assert!(
            (held.activity - 0.8).abs() < 0.05,
            "held 8 of 10: {}",
            held.activity
        );
    }

    #[test]
    fn display_has_bars_and_percentages() {
        let mut b = NetBuilder::new("n");
        b.place("p", 1);
        b.transition("t").input("p").output("p").firing(1).add();
        let net = b.build().unwrap();
        let trace = pnut_sim::simulate(&net, 0, Time::from_ticks(10)).unwrap();
        let shown = Heatmap::from_trace(&trace).to_string();
        assert!(shown.contains("ACTIVITY HEATMAP"));
        assert!(shown.contains('%'));
        assert!(shown.contains('█'));
    }

    #[test]
    fn empty_window_yields_zero_activity() {
        let mut b = NetBuilder::new("n");
        b.place("p", 1);
        b.transition("t").input("p").output("p").firing(1).add();
        let net = b.build().unwrap();
        let trace = pnut_sim::simulate(&net, 0, Time::ZERO).unwrap();
        let h = Heatmap::from_trace(&trace);
        assert!(h.places.iter().all(|r| r.activity == 0.0));
    }
}
