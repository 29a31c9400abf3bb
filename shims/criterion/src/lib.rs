//! Offline shim for the subset of the `criterion` API this workspace uses:
//! `Criterion::benchmark_group`, `BenchmarkGroup::{sample_size,
//! measurement_time, warm_up_time, bench_function, bench_with_input,
//! finish}`, `BenchmarkId`, `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! The build environment has no network access to crates.io.  The shim is a
//! plain wall-clock harness: it warms each benchmark up for the configured
//! warm-up time, then measures batches until the measurement time elapses and
//! reports the mean time per iteration.  No statistics, plots, or baselines —
//! the numbers are for coarse regression tracking only (the reproducible
//! record is the repo benchmark declared in `BENCHMARK.json`).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimiser from deleting benchmark work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier of one benchmark within a group (`function_name/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter value.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// Builds an id from a parameter value only.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher<'a> {
    warm_up: Duration,
    measurement: Duration,
    result_ns: &'a mut f64,
    iters: &'a mut u64,
}

impl Bencher<'_> {
    /// Times repeated executions of `routine`.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up: run until the warm-up budget is spent.
        let start = Instant::now();
        while start.elapsed() < self.warm_up {
            black_box(routine());
        }
        // Measurement: batched timing until the measurement budget is spent.
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        while total < self.measurement {
            let t = Instant::now();
            black_box(routine());
            total += t.elapsed();
            iters += 1;
        }
        *self.result_ns = total.as_nanos() as f64 / iters.max(1) as f64;
        *self.iters = iters;
    }
}

/// A named set of related benchmarks sharing timing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    warm_up: Duration,
    measurement: Duration,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes samples by time alone.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the per-benchmark measurement budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Sets the per-benchmark warm-up budget.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    fn run<F: FnMut(&mut Bencher<'_>)>(&mut self, label: &str, mut f: F) {
        let mut ns = 0.0;
        let mut iters = 0;
        let mut b = Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            result_ns: &mut ns,
            iters: &mut iters,
        };
        f(&mut b);
        println!(
            "{}/{label}: {:>12.1} ns/iter ({iters} iterations)",
            self.name, ns
        );
    }

    /// Runs a benchmark without an explicit input.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher<'_>),
    {
        let id = id.into();
        self.run(&id.label, |b| f(b));
        self
    }

    /// Runs a benchmark parameterised by `input`.
    pub fn bench_with_input<I, T, F>(&mut self, id: I, input: &T, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        T: ?Sized,
        F: FnMut(&mut Bencher<'_>, &T),
    {
        let id = id.into();
        self.run(&id.label, |b| f(b, input));
        self
    }

    /// Ends the group (printing already happened per-benchmark).
    pub fn finish(self) {}
}

/// Top-level benchmark harness handle.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n-- bench group {name} --");
        BenchmarkGroup {
            name: name.to_string(),
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_millis(900),
            _criterion: self,
        }
    }
}

/// Bundles benchmark functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_chains() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_selftest");
        group
            .sample_size(5)
            .measurement_time(Duration::from_millis(5))
            .warm_up_time(Duration::from_millis(1));
        let mut ran = false;
        group.bench_function(BenchmarkId::new("noop", 1), |b| {
            b.iter(|| black_box(2 + 2));
            ran = true;
        });
        let input = vec![1u64, 2, 3];
        group.bench_with_input(BenchmarkId::new("sum", 3), &input, |b, v| {
            b.iter(|| v.iter().sum::<u64>())
        });
        group.finish();
        assert!(ran);
    }
}
