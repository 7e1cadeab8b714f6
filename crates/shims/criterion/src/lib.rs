//! Offline stand-in for the crates.io `criterion` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the subset of the criterion API the `rpcv-bench` microbenches use:
//! [`Criterion`], [`Criterion::benchmark_group`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BatchSize`], [`Throughput`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple — warm up briefly, then time a fixed
//! wall-clock window and report mean ns/iter (plus MB/s when a byte
//! throughput is set).  No statistics, plots, or baselines; swapping the
//! real crate back in requires no source changes.

use std::hint;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How much a batched setup product costs to hold; accepted for API
/// compatibility, ignored by the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Units processed per iteration, used to derive a rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes per iteration.
    Bytes(u64),
    /// Elements per iteration.
    Elements(u64),
}

/// Per-benchmark timing driver handed to the closure of
/// [`Criterion::bench_function`].
pub struct Bencher {
    measured: Option<Measurement>,
    measure_for: Duration,
}

/// One benchmark's result.
#[derive(Debug, Clone, Copy)]
struct Measurement {
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + calibration pass.
        let start = Instant::now();
        hint::black_box(routine());
        let mut iters: u64 = 1;
        let warm = start.elapsed();
        if warm < self.measure_for / 8 {
            // Scale the batch so the measured window has enough iterations
            // to swamp timer overhead, without running unbounded.
            let per_iter = warm.max(Duration::from_nanos(1));
            iters = (self.measure_for.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;
        }
        let start = Instant::now();
        for _ in 0..iters {
            hint::black_box(routine());
        }
        self.measured = Some(Measurement { total: start.elapsed(), iters });
    }

    /// Times `routine` over fresh `setup` products. Setup and routine run
    /// under separate timers; only the routine total is reported, so setup
    /// cost never pollutes the figure.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate on one iteration.
        let t0 = Instant::now();
        let input = setup();
        let setup_once = t0.elapsed();
        let t1 = Instant::now();
        let out = hint::black_box(routine(input));
        let routine_once = t1.elapsed();
        drop(out);

        let per_iter = (setup_once + routine_once).max(Duration::from_nanos(1));
        let iters = (self.measure_for.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut setup_total = Duration::ZERO;
        let mut routine_total = Duration::ZERO;
        for _ in 0..iters {
            let t = Instant::now();
            let input = setup();
            setup_total += t.elapsed();
            let t = Instant::now();
            let out = hint::black_box(routine(input));
            routine_total += t.elapsed();
            // Like the real crate, drop the product outside the timed
            // window: a routine that hands its (large) input back is not
            // charged for tearing it down.
            drop(out);
        }
        let _ = setup_total; // excluded from the reported figure
        self.measured = Some(Measurement { total: routine_total, iters });
    }
}

/// Entry point: owns global settings and runs benchmarks.
pub struct Criterion {
    measure_for: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep each benchmark around a tenth of a second: these shim
        // numbers guide optimisation, they are not publishable statistics.
        let ms =
            std::env::var("CRITERION_MEASURE_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(100);
        Criterion { measure_for: Duration::from_millis(ms) }
    }
}

impl Criterion {
    /// Runs one benchmark and prints its figure.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(None, &id.into(), self.measure_for, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), throughput: None, criterion: self }
    }
}

/// A group of benchmarks sharing a name prefix and optional throughput.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(Some(&self.name), &id.into(), self.criterion.measure_for, self.throughput, f);
        self
    }

    /// Ends the group (reporting is incremental, so this is a no-op).
    pub fn finish(self) {}
}

fn run_one<F: FnOnce(&mut Bencher)>(
    group: Option<&str>,
    id: &str,
    measure_for: Duration,
    throughput: Option<Throughput>,
    f: F,
) {
    let mut b = Bencher { measured: None, measure_for };
    f(&mut b);
    let label = match group {
        Some(g) => format!("{g}/{id}"),
        None => id.to_owned(),
    };
    match b.measured {
        Some(m) if m.iters > 0 => {
            let ns = m.total.as_nanos() as f64 / m.iters as f64;
            let rate = match throughput {
                Some(Throughput::Bytes(bytes)) if ns > 0.0 => {
                    format!("  ({:.1} MB/s)", bytes as f64 / ns * 1e9 / 1e6)
                }
                Some(Throughput::Elements(n)) if ns > 0.0 => {
                    format!("  ({:.0} elem/s)", n as f64 / ns * 1e9)
                }
                _ => String::new(),
            };
            println!("bench {label:<40} {ns:>12.1} ns/iter  ({} iters){rate}", m.iters);
        }
        _ => println!("bench {label:<40} (no measurement)"),
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given groups.
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
    fn iter_reports() {
        let mut c = Criterion { measure_for: Duration::from_millis(2) };
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn batched_reports() {
        let mut c = Criterion { measure_for: Duration::from_millis(2) };
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(8));
        g.bench_function("sum", |b| {
            b.iter_batched(|| vec![1u64; 8], |v| v.iter().sum::<u64>(), BatchSize::SmallInput)
        });
        g.finish();
    }
}
