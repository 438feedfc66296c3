//! RAII span timers.
//!
//! A [`Span`] measures the wall-clock time from construction to drop and
//! records it twice: as nanoseconds into a named [`Histogram`], and —
//! optionally — into a `&mut Duration` accumulator. The accumulator is how
//! the existing `Breakdown`/`DboStats` structs keep working unchanged: the
//! span replaces the hand-rolled
//! `let t = Instant::now(); ...; breakdown.ev += t.elapsed()` pairs.
//!
//! When telemetry is disabled and no accumulator is attached, a span takes
//! no clock reading at all; with an accumulator it still times the scope
//! (the breakdown structs are semantically load-bearing for the figure
//! binaries) but skips the histogram update.

use crate::metrics::Histogram;
use std::time::{Duration, Instant};

/// Guard that times a scope. Build via the [`span!`](crate::span!) macro.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    start: Option<Instant>,
    hist: &'static Histogram,
    acc: Option<&'a mut Duration>,
}

impl<'a> Span<'a> {
    /// Start a span recording into `hist`, optionally accumulating into
    /// `acc`. Prefer the [`span!`](crate::span!) macro, which resolves and
    /// caches the histogram handle.
    #[inline]
    pub fn new(hist: &'static Histogram, acc: Option<&'a mut Duration>) -> Self {
        let start = if acc.is_some() || crate::enabled() {
            Some(Instant::now())
        } else {
            None
        };
        Span { start, hist, acc }
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        if let Some(acc) = self.acc.as_deref_mut() {
            *acc += elapsed;
        }
        // `record` is itself a no-op when telemetry is disabled.
        self.hist.record(elapsed.as_nanos() as u64);
    }
}

/// Time a scope into the named global histogram (nanoseconds).
///
/// ```ignore
/// let _sv = span!("ebv.sv");                      // histogram only
/// let _sv = span!("ebv.sv", &mut breakdown.sv);   // histogram + accumulator
/// ```
///
/// The histogram handle is resolved once per call site and cached in a
/// `OnceLock`; afterwards constructing a span is a flag check plus at most
/// one clock read. Every instance of a generic function shares that call
/// site, so a name that varies with a type parameter must not go through
/// this macro: resolve its handle outside the generic code and use
/// [`Span::new`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        $crate::Span::new($crate::histogram!($name), ::std::option::Option::None)
    }};
    ($name:expr, $acc:expr) => {{
        $crate::Span::new($crate::histogram!($name), ::std::option::Option::Some($acc))
    }};
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    #[test]
    fn span_feeds_accumulator_even_when_disabled() {
        // Telemetry enabled/disabled state is process-global and other tests
        // may flip it; the accumulator path works in either state.
        let mut acc = Duration::ZERO;
        {
            let _s = crate::span!("test.span.acc", &mut acc);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(acc >= Duration::from_millis(1));
    }
}
