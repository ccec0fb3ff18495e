//! Offline stand-in for the subset of the Criterion.rs API this workspace
//! uses: [`Criterion::benchmark_group`], `bench_function` /
//! `bench_with_input`, [`Throughput`], [`BenchmarkId`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! this minimal implementation instead (see the workspace README). It is a
//! real (if unsophisticated) harness: each benchmark runs an untimed
//! warm-up phase (a tenth of the budget, capped at 200 ms), then records
//! individual timed samples until the configured measurement time (capped
//! by `CRITERION_SHIM_MAX_SECS`, default 3) or sample budget is
//! exhausted. Samples outside the Tukey fence (1.5 × IQR past the
//! quartiles) are rejected as outliers, and the kept mean with a 95 %
//! confidence interval, the minimum, and the throughput (when configured)
//! are printed in a Criterion-like format. There are no plots or saved
//! baselines.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver, one per binary.
#[derive(Debug, Default)]
pub struct Criterion {
    /// `--test` mode: run every benchmark exactly once, unmeasured — the
    /// smoke-run semantics real criterion uses for `cargo bench -- --test`.
    test_mode: bool,
}

impl Criterion {
    /// Applies command-line configuration. The shim honours `--test`
    /// (single-iteration smoke mode) and accepts-and-ignores every other
    /// harness argument (`--bench`, filters, …).
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().any(|a| a == "--test");
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\ngroup: {name}");
        let test_mode = self.test_mode;
        BenchmarkGroup {
            _criterion: self,
            measurement_time: Duration::from_secs(3),
            sample_size: 10,
            throughput: None,
            test_mode,
        }
    }

    /// Benches a standalone function.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group(name);
        group.bench_function(name, f);
        group.finish();
        self
    }
}

/// A group of benchmarks sharing sample/measurement configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    measurement_time: Duration,
    sample_size: usize,
    throughput: Option<Throughput>,
    test_mode: bool,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of timed samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the time budget for each benchmark in the group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Reports per-iteration throughput alongside timings.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benches `f` under `id`.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher::new(self.budget(), self.sample_size);
        f(&mut bencher);
        self.report(&id, &bencher);
        self
    }

    /// Benches `f` under `id`, passing `input` through.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.budget(), self.sample_size);
        f(&mut bencher, input);
        self.report(&id, &bencher);
        self
    }

    /// Closes the group (kept for API compatibility).
    pub fn finish(self) {}

    fn budget(&self) -> Duration {
        if self.test_mode {
            return Duration::ZERO; // one warm-up call, one timed sample
        }
        let cap = std::env::var("CRITERION_SHIM_MAX_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3u64);
        self.measurement_time.min(Duration::from_secs(cap))
    }

    fn report(&self, id: &BenchmarkId, bencher: &Bencher) {
        let mut line = format!("  {:<32}", id.0);
        match bencher.stats() {
            None => line.push_str("no samples recorded (b.iter never called?)"),
            Some(stats) => {
                let _ = write!(
                    line,
                    "mean {:>12} ±{:>10} min {:>12} ({} samples, {} outliers)",
                    fmt_ns(stats.mean_ns),
                    fmt_ns(stats.ci95_ns),
                    fmt_ns(stats.min_ns),
                    stats.samples,
                    stats.outliers
                );
                if let Some(t) = &self.throughput {
                    let (count, unit) = match t {
                        Throughput::Elements(n) => (*n, "elem/s"),
                        Throughput::Bytes(n) => (*n, "B/s"),
                    };
                    let per_sec = count as f64 / (stats.mean_ns / 1e9);
                    let _ = write!(line, "  {per_sec:>12.0} {unit}");
                }
            }
        }
        println!("{line}");
    }
}

/// Robust summary of one benchmark's timed samples, after outlier
/// rejection.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    /// Timed samples recorded (before outlier rejection).
    pub samples: u64,
    /// Samples discarded by the Tukey fence (1.5 × IQR past the
    /// quartiles).
    pub outliers: u64,
    /// Mean ns/iteration over the kept samples.
    pub mean_ns: f64,
    /// Fastest kept sample, ns.
    pub min_ns: f64,
    /// Half-width of the 95 % confidence interval of the mean (normal
    /// approximation), ns. Zero with fewer than two kept samples.
    pub ci95_ns: f64,
}

/// Summarises raw per-sample timings: Tukey-fence outlier rejection
/// (1.5 × IQR, quartiles by linear interpolation), then mean / min /
/// 95 % CI over the kept samples.
fn summarize(samples_ns: &[f64]) -> Option<Stats> {
    if samples_ns.is_empty() {
        return None;
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |p: f64| -> f64 {
        let idx = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
        let frac = idx - idx.floor();
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    };
    let (q1, q3) = (quantile(0.25), quantile(0.75));
    let fence = 1.5 * (q3 - q1);
    // The quartiles themselves are always inside the fence, so `kept`
    // is never empty.
    let kept: Vec<f64> =
        sorted.iter().copied().filter(|&x| x >= q1 - fence && x <= q3 + fence).collect();
    let n = kept.len() as f64;
    let mean = kept.iter().sum::<f64>() / n;
    let ci95 = if kept.len() < 2 {
        0.0
    } else {
        let var = kept.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        1.96 * (var / n).sqrt()
    };
    Some(Stats {
        samples: samples_ns.len() as u64,
        outliers: (samples_ns.len() - kept.len()) as u64,
        mean_ns: mean,
        min_ns: kept[0],
        ci95_ns: ci95,
    })
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    budget: Duration,
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    fn new(budget: Duration, sample_size: usize) -> Self {
        Bencher { budget, sample_size, samples_ns: Vec::new() }
    }

    /// Runs `f` repeatedly — an untimed warm-up phase (a tenth of the
    /// budget, capped at 200 ms, at least one call — so caches and
    /// allocators settle before measurement), then individual timed
    /// samples until the sample or time budget runs out.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        let warmup = (self.budget / 10).min(Duration::from_millis(200));
        let warming = Instant::now();
        loop {
            black_box(f());
            if warming.elapsed() >= warmup {
                break;
            }
        }
        let started = Instant::now();
        // Always record at least one sample (a zero budget is the
        // `--test` smoke mode; a slow body must still be reported).
        while self.samples_ns.is_empty()
            || (self.samples_ns.len() < self.sample_size && started.elapsed() < self.budget)
        {
            let t0 = Instant::now();
            black_box(f());
            self.samples_ns.push(t0.elapsed().as_secs_f64() * 1e9);
        }
    }

    fn stats(&self) -> Option<Stats> {
        summarize(&self.samples_ns)
    }
}

/// Identifies one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }

    /// An id made of a parameter value only.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

/// Work performed per iteration, for events/s or bytes/s reporting.
#[derive(Clone, Debug)]
pub enum Throughput {
    /// Logical elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` from one or more [`criterion_group!`] runners.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default().configure_from_args();
        let mut g = c.benchmark_group("shim_selftest");
        g.sample_size(3).measurement_time(Duration::from_millis(50));
        g.throughput(Throughput::Elements(100));
        let mut calls = 0u32;
        g.bench_with_input(BenchmarkId::from_parameter(100), &100u64, |b, &n| {
            b.iter(|| {
                calls += 1;
                (0..n).sum::<u64>()
            });
        });
        g.bench_function("plain", |b| b.iter(|| 2 + 2));
        g.finish();
        assert!(calls >= 2, "warm-up plus at least one sample");
    }

    #[test]
    fn summarize_rejects_outliers_and_reports_a_confidence_interval() {
        // Ten tight samples around 100ns plus one wild 10µs outlier: the
        // Tukey fence drops it, so the mean stays near 100 and the CI is
        // narrow rather than outlier-dominated.
        let mut samples = vec![98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 99.5, 100.5, 101.5, 98.5];
        samples.push(10_000.0);
        let stats = summarize(&samples).unwrap();
        assert_eq!(stats.samples, 11);
        assert_eq!(stats.outliers, 1);
        assert!((stats.mean_ns - 100.0).abs() < 1.0, "{stats:?}");
        assert!((stats.min_ns - 98.0).abs() < f64::EPSILON, "{stats:?}");
        assert!(stats.ci95_ns > 0.0 && stats.ci95_ns < 5.0, "{stats:?}");

        // Degenerate inputs stay defined.
        assert_eq!(summarize(&[]), None);
        let one = summarize(&[42.0]).unwrap();
        assert_eq!((one.samples, one.outliers), (1, 0));
        assert!((one.mean_ns - 42.0).abs() < f64::EPSILON);
        assert!(one.ci95_ns.abs() < f64::EPSILON, "single sample has no CI");
    }
}
