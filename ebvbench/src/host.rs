//! Host diagnostics, so a reader can tell a slow run from a slow change:
//! the share of CPU time the hypervisor stole (`/proc/stat`), this
//! process's CPU use (`/proc/self/stat`) over a timed phase, and the wall
//! of a fixed reference loop.

use std::time::Instant;

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, 100 per second on
/// every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// Counters read at one instant. Missing `/proc` files read as zero.
#[derive(Clone, Copy, Debug)]
pub struct HostSample {
    at: Instant,
    steal_ticks: u64,
    total_ticks: u64,
    process_ticks: u64,
}

/// What the host did between two samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostDelta {
    pub wall_s: f64,
    /// Steal ticks over all CPU ticks, all cores, in percent.
    pub steal_pct: f64,
    /// Process CPU seconds over wall seconds (2.0 = two busy cores).
    pub cpu_util: f64,
}

impl HostSample {
    pub fn now() -> HostSample {
        let (steal_ticks, total_ticks) = read_system_ticks().unwrap_or((0, 0));
        HostSample {
            at: Instant::now(),
            steal_ticks,
            total_ticks,
            process_ticks: read_process_ticks().unwrap_or(0),
        }
    }

    pub fn since(&self, earlier: &HostSample) -> HostDelta {
        let wall_s = self.at.duration_since(earlier.at).as_secs_f64();
        let total = self.total_ticks.saturating_sub(earlier.total_ticks);
        let steal = self.steal_ticks.saturating_sub(earlier.steal_ticks);
        let cpu_s =
            self.process_ticks.saturating_sub(earlier.process_ticks) as f64 / TICKS_PER_SECOND;
        HostDelta {
            wall_s,
            steal_pct: if total == 0 {
                0.0
            } else {
                100.0 * steal as f64 / total as f64
            },
            cpu_util: if wall_s > 0.0 { cpu_s / wall_s } else { 0.0 },
        }
    }
}

/// Iterations of the reference loop: ~50 ms on a shared 2-core Xeon.
const REFERENCE_ITERATIONS: u64 = 20_000_000;

/// Wall, in ms, of a fixed single-threaded integer loop that shares no code
/// with the program. It moves with the host's speed (clock, contention
/// from other tenants, which steal does not show), never with a change to
/// the program.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..REFERENCE_ITERATIONS {
        x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// `(steal, total)` ticks summed over all cores, from the `cpu` line:
/// user nice system idle iowait irq softirq steal (guest time is already
/// inside user).
fn read_system_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().sum()))
}

/// User plus system ticks of this process, all threads.
fn read_process_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_sane() {
        let a = HostSample::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let d = HostSample::now().since(&a);
        assert!(d.wall_s > 0.0);
        assert!((0.0..=100.0).contains(&d.steal_pct));
        assert!(d.cpu_util >= 0.0);
        assert!(reference_ms() > 0.0);
    }
}
