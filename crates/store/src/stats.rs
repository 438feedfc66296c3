//! DBO (database-related operation) accounting.
//!
//! The paper's problem analysis (§III) breaks block-validation and IBD time
//! into DBO / SV / others; these counters and timers are what the figure
//! binaries read out.

use std::time::Duration;

/// Counters and accumulated wall-clock time for database operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct DboStats {
    /// `Fetch` operations (the EV+UV lookup of the baseline).
    pub fetches: u64,
    /// Fetches served from the in-memory cache.
    pub cache_hits: u64,
    /// Fetches that had to touch the disk log.
    pub cache_misses: u64,
    /// `Insert` operations (new outputs).
    pub inserts: u64,
    /// `Delete` operations (spent outputs).
    pub deletes: u64,
    /// Disk-log reads (misses plus flush-induced reads).
    pub disk_reads: u64,
    /// Disk-log writes (evictions, flushes and write-through deletes).
    pub disk_writes: u64,
    /// Total wall-clock time spent inside DBO calls.
    pub time: Duration,
}

impl DboStats {
    /// Cache hit ratio in `[0, 1]`; 1.0 when there were no fetches.
    ///
    /// A convenience for display call sites. Exporters and reports must use
    /// [`DboStats::hit_ratio_opt`] instead: rendering an idle cache as a
    /// perfect 1.0 is misleading in machine-read output.
    pub fn hit_ratio(&self) -> f64 {
        self.hit_ratio_opt().unwrap_or(1.0)
    }

    /// Cache hit ratio, or `None` when there were no fetches to take a
    /// ratio of. Exporters render `None` as `null`/absent.
    pub fn hit_ratio_opt(&self) -> Option<f64> {
        if self.fetches == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / self.fetches as f64)
        }
    }

    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &DboStats) -> DboStats {
        DboStats {
            fetches: self.fetches - earlier.fetches,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            inserts: self.inserts - earlier.inserts,
            deletes: self.deletes - earlier.deletes,
            disk_reads: self.disk_reads - earlier.disk_reads,
            disk_writes: self.disk_writes - earlier.disk_writes,
            time: self.time - earlier.time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_zero() {
        assert_eq!(DboStats::default().hit_ratio(), 1.0);
        let s = DboStats {
            fetches: 4,
            cache_hits: 3,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_opt_is_none_without_fetches() {
        // An idle cache has no meaningful ratio — exporters render this as
        // null/absent rather than a perfect 1.0.
        assert_eq!(DboStats::default().hit_ratio_opt(), None);
        let s = DboStats {
            fetches: 4,
            cache_hits: 3,
            ..Default::default()
        };
        assert_eq!(s.hit_ratio_opt(), Some(0.75));
    }

    #[test]
    fn since_subtracts() {
        let early = DboStats {
            fetches: 10,
            time: Duration::from_millis(5),
            ..Default::default()
        };
        let late = DboStats {
            fetches: 25,
            time: Duration::from_millis(9),
            ..Default::default()
        };
        let d = late.since(&early);
        assert_eq!(d.fetches, 15);
        assert_eq!(d.time, Duration::from_millis(4));
    }
}
