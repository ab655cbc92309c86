//! Small statistics helpers and outside-in readers of process state
//! (`getrusage`, `/proc`).

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted sample (`q` in `(0, 1]`).
/// Returns `None` for an empty sample.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time consumed by this process so far (all threads),
/// from `getrusage(RUSAGE_SELF)`.
pub fn self_cpu() -> Duration {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage` for the
    // 64-bit Linux ABI; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return Duration::ZERO;
    }
    let micros = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(micros(&usage.ru_utime) + micros(&usage.ru_stime))
}

/// A `kB` field (e.g. `VmHWM`) of `/proc/<pid>/status`, in MiB.
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    proc_status_field(pid, field).map(|kb| kb as f64 / 1024.0)
}

/// A numeric field of `/proc/<pid>/status` (first number on the line).
pub fn proc_status_field(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .and_then(|l| l[field.len() + 1..].split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// User + system CPU time of process `pid` from `/proc/<pid>/stat`
/// (clock-tick resolution, assumed 100 Hz).
pub fn proc_cpu(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_workspace_convention() {
        let sample: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&sample, 0.5), Some(500));
        assert_eq!(nearest_rank(&sample, 0.99), Some(990));
        assert_eq!(nearest_rank(&sample, 0.999), Some(999));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(proc_status_mb("self", "VmHWM").unwrap() > 0.0);
        assert!(proc_cpu(std::process::id()).is_some());
    }
}
