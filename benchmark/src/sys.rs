//! Process and machine counters read from Linux procfs and clocks.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used by all threads of this process, in seconds. The kernel
/// leaves out time the host stole from the guest, time spent waiting in the
/// run queue and time blocked on the disk.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident memory of this process (`VmHWM`) since it started or
/// since the last `reset_peak_rss`, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Resident memory of this process now (`VmRSS`), in MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{field} missing from /proc/self/status"))?;
    Ok(kib / 1024.0)
}

/// Returns the heap memory freed so far to the system (glibc keeps it
/// otherwise), then lowers `VmHWM` to the resident memory now (Linux 4.0
/// and later).
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` only releases free heap pages; it is safe to
    // call at any time from any thread.
    unsafe { malloc_trim(0) };
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// A point-in-time reading of how much the rest of the machine took from
/// this run: CPU steal across the machine and this process's run-queue wait.
#[derive(Clone, Copy, Debug)]
pub struct Contention {
    steal_jiffies: u64,
    total_jiffies: u64,
    runqueue_wait_ns: u64,
}

impl Contention {
    pub fn now() -> Result<Contention, String> {
        let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .ok_or("/proc/stat has no aggregate cpu line")?
            .split_whitespace()
            .map(|f| {
                f.parse()
                    .map_err(|e| format!("/proc/stat field {f:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so the first eight sum to
        // the total.
        if cpu.len() < 8 {
            return Err("/proc/stat cpu line has fewer than 8 fields".into());
        }
        let schedstat = fs::read_to_string("/proc/self/schedstat")
            .map_err(|e| format!("/proc/self/schedstat: {e}"))?;
        let runqueue_wait_ns = schedstat
            .split_whitespace()
            .nth(1)
            .and_then(|f| f.parse().ok())
            .ok_or("/proc/self/schedstat has no run-queue wait field")?;
        Ok(Contention {
            steal_jiffies: cpu[7],
            total_jiffies: cpu[..8].iter().sum(),
            runqueue_wait_ns,
        })
    }

    /// `(steal share of all CPU time, run-queue wait in ms)` since `start`.
    pub fn since(&self, start: &Contention) -> (f64, f64) {
        let total = self
            .total_jiffies
            .saturating_sub(start.total_jiffies)
            .max(1);
        let steal = self.steal_jiffies.saturating_sub(start.steal_jiffies);
        let wait_ns = self.runqueue_wait_ns.saturating_sub(start.runqueue_wait_ns);
        (steal as f64 / total as f64, wait_ns as f64 / 1e6)
    }
}
