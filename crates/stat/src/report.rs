//! The report structure and its Figure-5 presentation.

use pnut_core::Time;
use std::fmt;

/// Statistics for one transition (the paper's "EVENT STATISTICS" rows).
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionStats {
    /// Transition name.
    pub name: String,
    /// Minimum concurrent firings observed.
    pub min_concurrent: u32,
    /// Maximum concurrent firings observed.
    pub max_concurrent: u32,
    /// Time-weighted average concurrent firings. For single-server
    /// transitions this is the utilization (percent of time busy, §4.2).
    pub avg_concurrent: f64,
    /// Time-weighted standard deviation of concurrent firings.
    pub std_dev: f64,
    /// Number of firings started.
    pub starts: u64,
    /// Number of firings finished.
    pub ends: u64,
    /// Finished firings per tick of simulated time.
    pub throughput: f64,
}

/// Statistics for one place (the paper's "PLACE STATISTICS" rows).
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceStats {
    /// Place name.
    pub name: String,
    /// Minimum token count observed.
    pub min_tokens: u32,
    /// Maximum token count observed.
    pub max_tokens: u32,
    /// Time-weighted average token count. For mutually-exclusive 0/1
    /// places (like `Bus_busy`) this is the resource utilization (§4.2).
    pub avg_tokens: f64,
    /// Time-weighted standard deviation of the token count.
    pub std_dev: f64,
}

/// A complete `stat` report: run, event and place statistics (Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct StatReport {
    /// Experiment number.
    pub run_number: u32,
    /// Clock value at the start of the run.
    pub initial_clock: Time,
    /// Clock value at the end of the run.
    pub end_time: Time,
    /// Run length in ticks.
    pub length: Time,
    /// Total firings started.
    pub events_started: u64,
    /// Total firings finished.
    pub events_finished: u64,
    /// Per-place statistics, in place-id order.
    pub places: Vec<PlaceStats>,
    /// Per-transition statistics, in transition-id order.
    pub transitions: Vec<TransitionStats>,
}

impl StatReport {
    /// Look up a place's statistics by name.
    pub fn place(&self, name: &str) -> Option<&PlaceStats> {
        self.places.iter().find(|p| p.name == name)
    }

    /// Look up a transition's statistics by name.
    pub fn transition(&self, name: &str) -> Option<&TransitionStats> {
        self.transitions.iter().find(|t| t.name == name)
    }
}

impl fmt::Display for StatReport {
    /// Renders in the layout of the paper's Figure 5: a RUN STATISTICS
    /// block, an EVENT STATISTICS table, and a PLACE STATISTICS table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RUN STATISTICS")?;
        writeln!(f, "Run number           {}", self.run_number)?;
        writeln!(f, "Initial clock value  {}", self.initial_clock)?;
        writeln!(f, "Length of Simulation {}", self.length)?;
        writeln!(f, "Events started       {}", self.events_started)?;
        writeln!(f, "Events finished      {}", self.events_finished)?;
        writeln!(f)?;
        writeln!(f, "EVENT STATISTICS")?;
        writeln!(f, "Run number {}", self.run_number)?;
        writeln!(
            f,
            "{:<28} {:>9} {:>10} {:>10} {:>13} {:>11}",
            "Transition", "Min/Max", "Avg", "StdDev", "Starts/Ends", "Throughput"
        )?;
        for t in &self.transitions {
            writeln!(
                f,
                "{:<28} {:>9} {:>10.4} {:>10.4} {:>13} {:>11.4}",
                t.name,
                format!("{}/{}", t.min_concurrent, t.max_concurrent),
                t.avg_concurrent,
                t.std_dev,
                format!("{}/{}", t.starts, t.ends),
                t.throughput,
            )?;
        }
        writeln!(f)?;
        writeln!(f, "PLACE STATISTICS")?;
        writeln!(f, "Run number {}", self.run_number)?;
        writeln!(
            f,
            "{:<28} {:>9} {:>10} {:>10}",
            "Place", "Min/Max", "Avg", "StdDev"
        )?;
        for p in &self.places {
            writeln!(
                f,
                "{:<28} {:>9} {:>10.4} {:>10.4}",
                p.name,
                format!("{}/{}", p.min_tokens, p.max_tokens),
                p.avg_tokens,
                p.std_dev,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatReport {
        StatReport {
            run_number: 1,
            initial_clock: Time::ZERO,
            end_time: Time::from_ticks(10000),
            length: Time::from_ticks(10000),
            events_started: 11755,
            events_finished: 11753,
            places: vec![PlaceStats {
                name: "Bus_busy".into(),
                min_tokens: 0,
                max_tokens: 1,
                avg_tokens: 0.6582,
                std_dev: 0.474313,
            }],
            transitions: vec![
                TransitionStats {
                    name: "exec_type_1".into(),
                    min_concurrent: 0,
                    max_concurrent: 1,
                    avg_concurrent: 0.0618,
                    std_dev: 0.240792,
                    starts: 618,
                    ends: 618,
                    throughput: 0.0618,
                },
                TransitionStats {
                    name: "exec_type_2".into(),
                    min_concurrent: 0,
                    max_concurrent: 1,
                    avg_concurrent: 0.0752,
                    std_dev: 0.263714,
                    starts: 376,
                    ends: 376,
                    throughput: 0.0376,
                },
            ],
        }
    }

    #[test]
    fn lookups_by_name() {
        let r = sample();
        assert!(r.place("Bus_busy").is_some());
        assert!(r.place("nope").is_none());
        assert_eq!(r.transition("exec_type_1").unwrap().starts, 618);
    }

    #[test]
    fn display_contains_figure_5_blocks() {
        let s = sample().to_string();
        assert!(s.contains("RUN STATISTICS"));
        assert!(s.contains("EVENT STATISTICS"));
        assert!(s.contains("PLACE STATISTICS"));
        assert!(s.contains("Events started       11755"));
        assert!(s.contains("Bus_busy"));
        assert!(s.contains("0.6582"));
    }
}
