//! Offline, API-compatible subset of `criterion`.
//!
//! A plain timing harness: each `bench_function` runs a short warmup that
//! also calibrates how many routine calls one sample times (enough to fill
//! 1 ms), then `sample_size` timed samples, and prints the
//! min/median/mean time per call. No statistics beyond that, no plots, no
//! baselines — just enough for `cargo bench` to keep producing comparable
//! numbers in an offline environment.

pub use std::hint::black_box;

use std::time::{Duration, Instant};

/// Least wall time one sample covers: a single call of a microsecond
/// routine is dominated by timer resolution and scheduling noise, so a
/// sample times as many calls as it takes to fill this.
const SAMPLE_TARGET: Duration = Duration::from_millis(1);

/// How per-iteration setup cost is amortized in [`Bencher::iter_batched`].
/// Only the variants the workspace uses exist; all run one setup per
/// routine call here.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    PerIteration,
    SmallInput,
    LargeInput,
}

/// The benchmark driver handed to each target function.
pub struct Criterion {
    sample_size: usize,
    warmup_iters: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 20,
            warmup_iters: 3,
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Also accepted post-construction (upstream allows both orders).
    pub fn measurement_time(self, _d: Duration) -> Criterion {
        self
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            target_samples: 1,
            calls_per_sample: None,
        };
        // Warmup: run the body a few times, discarding measurements; the
        // first run also calibrates the calls per sample.
        for _ in 0..self.warmup_iters {
            f(&mut bencher);
        }
        bencher.samples.clear();
        bencher.target_samples = self.sample_size;
        f(&mut bencher);
        report(name, &mut bencher.samples, bencher.calls_per_sample);
        self
    }
}

fn report(name: &str, per_call: &mut [Duration], calls_per_sample: Option<u32>) {
    if per_call.is_empty() {
        println!("{name:<40} no samples recorded");
        return;
    }
    per_call.sort_unstable();
    let min = per_call[0];
    let median = per_call[per_call.len() / 2];
    let mean = per_call.iter().sum::<Duration>() / per_call.len() as u32;
    println!(
        "{name:<40} min {:>12?}   median {:>12?}   mean {:>12?}   ({} samples x {} calls)",
        min,
        median,
        mean,
        per_call.len(),
        calls_per_sample.unwrap_or(1)
    );
}

/// Collects timed samples of the routine under test, each the mean time
/// per call over `calls_per_sample` calls.
pub struct Bencher {
    samples: Vec<Duration>,
    target_samples: usize,
    /// Fixed by the first timing request; `None` until then.
    calls_per_sample: Option<u32>,
}

impl Bencher {
    /// Time `routine` repeatedly, calling it `calls_per_sample` times per
    /// sample.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        self.sample(|calls| {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Time `routine` on a fresh `setup()` product per call; setup time
    /// is excluded from the measurement.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        self.sample(|calls| {
            let mut busy = Duration::ZERO;
            for _ in 0..calls {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                busy += start.elapsed();
            }
            busy
        });
    }

    /// Record `target_samples` samples of `time(calls)`, the time `calls`
    /// routine calls take, as time per call. The first request calibrates
    /// `calls` by doubling it from one until the calls fill
    /// [`SAMPLE_TARGET`], after one untimed call: a first call can pay
    /// lazy set-up (a static table, a cache fill) that no later call does.
    fn sample(&mut self, mut time: impl FnMut(u32) -> Duration) {
        let calls = *self.calls_per_sample.get_or_insert_with(|| {
            time(1);
            let mut calls = 1;
            while time(calls) < SAMPLE_TARGET && calls < 1 << 30 {
                calls *= 2;
            }
            calls
        });
        for _ in 0..self.target_samples {
            self.samples.push(time(calls) / calls);
        }
    }
}

/// Upstream-compatible group macro, both forms:
/// `criterion_group!(name, target_a, target_b)` and
/// `criterion_group! { name = n; config = expr; targets = a, b }`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Runs each group from `main`.
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

    fn target(c: &mut Criterion) {
        let mut runs = 0u64;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    fn bencher(samples: usize) -> Bencher {
        Bencher {
            samples: Vec::new(),
            target_samples: samples,
            calls_per_sample: None,
        }
    }

    #[test]
    fn fast_routines_are_timed_many_calls_per_sample() {
        let mut b = bencher(3);
        let mut calls = 0u64;
        b.iter(|| calls += 1);
        // A thousand increments take far less than a millisecond.
        let per_sample = b.calls_per_sample.expect("calibrated");
        assert!(per_sample > 1000, "{per_sample} calls per sample");
        assert_eq!(b.samples.len(), 3);
        assert!(calls >= 3 * u64::from(per_sample));
    }

    #[test]
    fn slow_routines_are_timed_one_call_per_sample() {
        let mut b = bencher(2);
        b.iter_batched(
            || Duration::from_millis(2),
            std::thread::sleep,
            BatchSize::PerIteration,
        );
        assert_eq!(b.calls_per_sample, Some(1));
        assert!(b.samples.iter().all(|&d| d >= Duration::from_millis(2)));
    }

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default().sample_size(5);
        target(&mut c);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut c = Criterion::default().sample_size(4);
        let mut setups = 0u32;
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 16]
                },
                |v| v.len(),
                BatchSize::PerIteration,
            )
        });
        assert!(setups >= 4);
    }

    criterion_group!(simple_group, target);
    criterion_group! {
        name = configured_group;
        config = Criterion::default().sample_size(3);
        targets = target
    }

    #[test]
    fn macros_expand() {
        simple_group();
        configured_group();
    }
}
