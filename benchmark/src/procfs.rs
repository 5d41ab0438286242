//! Process accounting read from `/proc` (Linux only; std has no portable
//! equivalent and the benchmark takes no dependency for it).

use std::fs;
use std::path::Path;

/// CPU seconds (user + system) used so far by every thread of this process,
/// living or ended.
///
/// Read from the kernel's per-process CPU clock, which counts on-CPU
/// nanoseconds exactly. The `utime`/`stime` fields of `/proc/self/stat` are
/// sampled at the scheduler tick, far too coarse for threads that wake for
/// tens of microseconds (a 6 s net run read ±10 %), and
/// `/proc/self/task/*/schedstat` is only brought up to date at a tick or a
/// context switch and forgets a thread when it ends. std exposes no CPU
/// clock, so this is the one foreign call of the benchmark.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library function std itself links
    // against; on 64-bit Linux `time_t` and `long` are both 64 bits, so
    // `Timespec` has the layout of `struct timespec`; `now` is a valid,
    // exclusively borrowed place for the call to write to, and the call
    // keeps no pointer to it.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if status != 0 {
        return stat_cpu_seconds();
    }
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// CPU seconds used so far by this process (tick-sampled: no CPU clock is
/// known for this target).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds()
}

/// `utime + stime` of `/proc/self/stat`, in seconds.
fn stat_cpu_seconds() -> f64 {
    // `USER_HZ` is 100 on every Linux ABI; reading it properly needs
    // `sysconf`, which std does not expose
    const USER_HZ: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name (field 2) may contain spaces: count from its ')'
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3; utime and stime are fields 14 and 15
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

/// A `kB` line of `/proc/self/status`, in megabytes.
fn status_mb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Bytes this process caused to be sent to the storage layer so far
/// (`write_bytes` of `/proc/self/io`; socket traffic is not included, and
/// the count stays 0 on a memory-backed file system).
pub fn storage_write_bytes() -> u64 {
    let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|line| line.strip_prefix("write_bytes:"))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0)
}

/// The file-system type `path` lives on, from the longest matching mount
/// point in `/proc/mounts` (`"unknown"` if it cannot be determined).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_reads_plausible_values() {
        let burn = || {
            let mut x = 0u64;
            for i in 0..30_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        };
        let before = cpu_seconds();
        let started = std::time::Instant::now();
        burn();
        // a worker that has ended still counts
        std::thread::spawn(burn).join().expect("worker");
        let used = cpu_seconds() - before;
        let wall = started.elapsed().as_secs_f64();
        assert!(
            used > 0.0 && used <= wall * 1.5 + 0.05,
            "{used} s of CPU in {wall} s"
        );
        assert!(stat_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
