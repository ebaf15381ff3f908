//! Host-side readings: scheduler accounting, peak memory, fingerprints.

/// On-CPU and run-queue-wait time of the calling thread, from
/// `/proc/thread-self/schedstat`. Zeros where the file is missing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Seconds spent running on a CPU.
    pub oncpu_s: f64,
    /// Seconds spent runnable but waiting for a CPU.
    pub runq_s: f64,
}

impl Sched {
    /// Reads the current totals.
    pub fn now() -> Sched {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let oncpu = fields.next().unwrap_or(0);
        let runq = fields.next().unwrap_or(0);
        Sched {
            oncpu_s: oncpu as f64 * 1e-9,
            runq_s: runq as f64 * 1e-9,
        }
    }

    /// The time accrued since an earlier reading.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            oncpu_s: self.oncpu_s - earlier.oncpu_s,
            runq_s: self.runq_s - earlier.runq_s,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
