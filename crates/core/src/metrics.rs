//! Validation-time breakdowns.
//!
//! The paper reports block-validation and IBD time split by phase: DBO /
//! SV / others for Bitcoin (Figs. 4, 5) and EV / UV / SV / others for EBV
//! (Figs. 16b, 17b). Both node types fill the one [`Breakdown`]; each
//! leaves the buckets of the other's phases at zero. Figure binaries print
//! it.

use std::ops::AddAssign;
use std::time::Duration;

/// Validation time by phase.
///
/// `commit` was historically folded into `uv`, which skewed the Fig. 16b /
/// 17b phase split: UV is supposed to measure *probes only* (the paper's
/// point is that UV is nearly free), while committing a block mutates the
/// bit-vector set and the header chain. They are separate buckets. The
/// baseline's Delete/Insert is a database operation and stays under `dbo`,
/// as the paper's Figs. 4–5 count it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Existence Validation: Merkle-branch folding against headers (EBV).
    pub ev: Duration,
    /// Unspent Validation: bit-vector probes and duplicate detection (EBV).
    pub uv: Duration,
    /// Database-related operations: Fetch + Delete + Insert (baseline).
    pub dbo: Duration,
    /// Script Validation.
    pub sv: Duration,
    /// Post-validation state commit: header append, bit-vector insert,
    /// spend application, undo recording (EBV).
    pub commit: Duration,
    /// Everything else (structure checks, Merkle recompute, value checks
    /// and sighash midstates).
    pub others: Duration,
}

impl Breakdown {
    pub fn total(&self) -> Duration {
        self.ev + self.uv + self.dbo + self.sv + self.commit + self.others
    }

    /// Fraction of total time spent in DBO (the ratio line of Fig. 5).
    pub fn dbo_ratio(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.dbo.as_secs_f64() / total
        }
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.ev += rhs.ev;
        self.uv += rhs.uv;
        self.dbo += rhs.dbo;
        self.sv += rhs.sv;
        self.commit += rhs.commit;
        self.others += rhs.others;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_totals_and_ratio() {
        let b = Breakdown {
            dbo: Duration::from_millis(80),
            sv: Duration::from_millis(15),
            others: Duration::from_millis(5),
            ..Breakdown::default()
        };
        assert_eq!(b.total(), Duration::from_millis(100));
        assert!((b.dbo_ratio() - 0.8).abs() < 1e-9);
        assert_eq!(Breakdown::default().dbo_ratio(), 0.0);
    }

    #[test]
    fn accumulation() {
        let mut acc = Breakdown::default();
        let one = Breakdown {
            ev: Duration::from_millis(1),
            uv: Duration::from_millis(2),
            sv: Duration::from_millis(3),
            commit: Duration::from_millis(5),
            others: Duration::from_millis(4),
            ..Breakdown::default()
        };
        acc += one;
        acc += one;
        assert_eq!(acc.total(), Duration::from_millis(30));
        assert_eq!(acc.sv, Duration::from_millis(6));
        assert_eq!(acc.commit, Duration::from_millis(10));
    }
}
