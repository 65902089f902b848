//! Offline shim of the `criterion` API surface this workspace uses:
//! `Criterion::default().sample_size(n)`, `bench_function`,
//! `benchmark_group`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros. Timing is a simple calibrated wall-clock
//! median: each sample runs enough iterations to cover ~2 ms, and the
//! median ns/iter across samples is reported on stdout.

use std::sync::OnceLock;
use std::time::Instant;

/// Re-export so existing `criterion::black_box` imports keep working.
pub use std::hint::black_box;

/// Substring filter parsed from the command line by [`criterion_main!`]
/// (mirrors `cargo bench -- <filter>`).
pub static FILTER: OnceLock<String> = OnceLock::new();

fn matches_filter(name: &str) -> bool {
    FILTER
        .get()
        .is_none_or(|f| f.is_empty() || name.contains(f.as_str()))
}

/// Whether the active filter would run a benchmark named `name` — lets a
/// bench function skip expensive setup when all of its benchmarks are
/// filtered out (shim extension).
pub fn filter_allows(name: &str) -> bool {
    matches_filter(name)
}

/// Benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(3);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if !matches_filter(name) {
            return self;
        }
        let mut b = Bencher {
            sample_size: self.sample_size,
            median_ns: 0.0,
        };
        f(&mut b);
        println!("{name:<40} time: {:>12.1} ns/iter", b.median_ns);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("-- group: {name}");
        BenchmarkGroup { c: self }
    }
}

/// A named benchmark group.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.c.bench_function(name, f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; [`Bencher::iter`] times the routine.
pub struct Bencher {
    sample_size: usize,
    median_ns: f64,
}

impl Bencher {
    /// Times `routine`, storing the median ns/iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Calibrate: how many iterations cover ~2 ms?
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().as_nanos().max(1) as f64;
        let iters = ((2e6 / once).ceil() as u64).clamp(1, 1_000_000);

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        self.median_ns = samples[samples.len() / 2];
    }
}

/// Declares a group function running each target against a configured
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares `main` running each group (skipped under `cargo test`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` invokes custom-harness benches with `--test`.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            // First non-flag argument = substring filter, as in criterion.
            if let Some(filter) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
                let _ = $crate::FILTER.set(filter);
            }
            $( $group(); )+
        }
    };
}
