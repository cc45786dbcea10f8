#![forbid(unsafe_code)]

//! A std-only stand-in for the [criterion](https://docs.rs/criterion)
//! statistics-driven benchmark harness, exposing the API subset the
//! workspace's one bench (`pnut-bench`'s `reach`, which has its own
//! `main`) uses: [`criterion_group!`], [`Criterion::benchmark_group`],
//! the group's `bench_function`/`finish`, and [`Bencher::iter`].
//!
//! The build environment for this repository has no access to a crate
//! registry, so the real criterion cannot be vendored. This shim keeps
//! the bench sources byte-for-byte compatible with upstream criterion
//! (swap the `[patch]`-style path dependency for the registry crate and
//! everything keeps compiling) while providing honest wall-clock
//! measurements: per benchmark it warms up, sizes an iteration batch to
//! a target measurement time, takes several samples, and reports
//! median / mean / min over them.
//!
//! Environment knobs:
//!
//! * `PNUT_BENCH_MEASURE_MS` — per-sample target in milliseconds
//!   (default 120).
//! * `PNUT_BENCH_SAMPLES` — number of samples (default 12).
//! * `PNUT_BENCH_JSON` — when set to a path, appends one JSON line per
//!   benchmark: `{"name": ..., "median_ns": ..., "mean_ns": ..., "min_ns": ...}`.

use std::fmt;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

fn measure_target() -> Duration {
    let ms = std::env::var("PNUT_BENCH_MEASURE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120u64);
    Duration::from_millis(ms.max(1))
}

fn sample_count() -> usize {
    std::env::var("PNUT_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12usize)
        .max(3)
}

/// Per-benchmark measurement driver handed to the closure of
/// [`BenchmarkGroup::bench_function`].
pub struct Bencher {
    /// Collected samples, in ns per iteration.
    samples: Vec<f64>,
}

impl Bencher {
    fn new() -> Self {
        Bencher {
            samples: Vec::new(),
        }
    }

    /// Measure a routine. The routine's return value is black-boxed so
    /// the optimizer cannot delete the computation.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up and batch sizing: grow the batch until it takes at
        // least ~1/10 of the per-sample target.
        let target = measure_target();
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let took = start.elapsed();
            if took >= target / 10 || batch >= 1 << 30 {
                break;
            }
            batch = if took.is_zero() {
                batch * 16
            } else {
                let scale = (target.as_nanos() / 10).max(1) / took.as_nanos().max(1);
                (batch * (scale as u64).clamp(2, 16)).max(batch + 1)
            };
        }
        for _ in 0..sample_count() {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let took = start.elapsed();
            self.samples.push(took.as_nanos() as f64 / batch as f64);
        }
    }
}

#[derive(Debug, Clone)]
struct Summary {
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
}

fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median_ns = sorted[sorted.len() / 2];
    let mean_ns = sorted.iter().sum::<f64>() / sorted.len() as f64;
    Summary {
        median_ns,
        mean_ns,
        min_ns: sorted[0],
    }
}

fn human(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn report(name: &str, samples: &[f64]) {
    if samples.is_empty() {
        println!("{name:<44} (no samples)");
        return;
    }
    let s = summarize(samples);
    println!(
        "{name:<44} median {:>12}   mean {:>12}   min {:>12}",
        human(s.median_ns),
        human(s.mean_ns),
        human(s.min_ns),
    );
    if let Ok(path) = std::env::var("PNUT_BENCH_JSON") {
        if !path.is_empty() {
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = writeln!(
                    f,
                    "{{\"name\":\"{}\",\"median_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1}}}",
                    name.replace('"', "'"),
                    s.median_ns,
                    s.mean_ns,
                    s.min_ns,
                );
            }
        }
    }
}

/// The harness entry point, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
        }
    }
}

/// A group of benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new();
        f(&mut b);
        report(&format!("{}/{}", self.name, id), &b.samples);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Declare a group function that runs each listed benchmark.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}
