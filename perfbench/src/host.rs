//! Host provenance and process-wide counters.
//!
//! Every counter here describes the whole benchmark process, not one
//! layer; callers take deltas around a single deployment while nothing
//! else runs in the process, and label the results as process metrics.

use crate::report::Report;
use std::fs;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Size of cpu0's level-2 cache, as sysfs spells it.
    pub l2: String,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

impl Host {
    /// Probes the running host; unknown fields read `"unknown"`.
    pub fn probe() -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let l2 = (0..8)
            .find_map(|idx| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
                let level = fs::read_to_string(format!("{dir}/level")).ok()?;
                (level.trim() == "2")
                    .then(|| fs::read_to_string(format!("{dir}/size")).ok())
                    .flatten()
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cores: cores(),
            cpu_model,
            l2,
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Cores available to the process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Reads `HEAD` of a `.git` directory in the working directory without
/// running git (a checkout that is not a work tree has no commit).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

/// A snapshot of process-wide resource counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// User plus system CPU seconds of every thread, live or exited.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// `read`-family syscalls (`/proc/self/io` `syscr`).
    pub syscr: u64,
    /// `write`-family syscalls (`/proc/self/io` `syscw`).
    pub syscw: u64,
}

impl Counters {
    /// Takes a snapshot.
    pub fn now() -> Counters {
        let mut c = rusage();
        if let Ok(io) = fs::read_to_string("/proc/self/io") {
            for line in io.lines() {
                let field = |key: &str| {
                    line.strip_prefix(key)
                        .and_then(|v| v.trim().parse::<u64>().ok())
                };
                if let Some(v) = field("syscr:") {
                    c.syscr = v;
                } else if let Some(v) = field("syscw:") {
                    c.syscw = v;
                }
            }
        }
        c
    }

    /// Growth since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
        }
    }

    /// Accumulates a delta.
    pub fn add(&mut self, d: &Counters) {
        self.cpu_s += d.cpu_s;
        self.ctx_switches += d.ctx_switches;
        self.syscr += d.syscr;
        self.syscw += d.syscw;
    }
}

/// Peak resident set size of the process (KiB): `VmHWM` of
/// `/proc/self/status`, which starts afresh at exec (getrusage's
/// `ru_maxrss` would carry over the launching process's peak, e.g.
/// `cargo run`'s).
pub fn peak_rss_kb() -> Option<u64> {
    fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Records `peak_rss_mb`, the process's `VmHWM` in MB. `reset` is what
/// [`reset_peak_rss`] returned before the timed operations.
pub fn record_peak_rss(report: &mut Report, reset: bool) {
    let rss = peak_rss_kb().map(|kb| kb as f64 / 1024.0);
    report.e2e("peak_rss_mb", rss, "MB").label(if reset {
        "process-wide VmHWM over the timed operations"
    } else {
        "process-wide VmHWM since start: the reset failed"
    });
}

/// Hands freed heap pages back to the kernel, then restarts the process's
/// `VmHWM` from its current resident set (writing `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_kb`] covers only what
/// runs after this call. Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim(3) only releases free memory of glibc's own
    // arenas; it takes no pointer and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage() -> Counters {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` of the 64-bit Linux ABI: two timevals, then
    /// fourteen `long` fields.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const NVCSW: usize = 12;
    const NIVCSW: usize = 13;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the 64-bit Linux
    // layout, which is all getrusage(2) writes through the pointer.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return Counters::default();
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Counters {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        ctx_switches: (ru.longs[NVCSW] + ru.longs[NIVCSW]) as u64,
        ..Counters::default()
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage() -> Counters {
    Counters::default()
}
