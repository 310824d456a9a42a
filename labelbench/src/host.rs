//! Host indicators read from `/proc`: CPU time stolen by the hypervisor,
//! the benchmark thread's run-queue wait, and the process's peak RSS.
//! Each reads as 0 where the file is missing.

use std::fs;

/// A point-in-time reading of the host indicators.
#[derive(Clone, Copy, Default, Debug)]
pub struct Sample {
    /// `steal` column of the `cpu` line in `/proc/stat`, in clock ticks.
    steal_ticks: u64,
    /// Second field of `/proc/thread-self/schedstat`: ns spent runnable
    /// but waiting for a CPU.
    runq_wait_ns: u64,
}

/// Reads the indicators now.
pub fn sample() -> Sample {
    let steal_ticks = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0);
    let runq_wait_ns = fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0);
    Sample {
        steal_ticks,
        runq_wait_ns,
    }
}

/// Host time accumulated between samples.
#[derive(Clone, Copy, Default, Debug)]
pub struct Delta {
    /// Steal time summed over all CPUs, in ms (clock ticks of 10 ms, the
    /// Linux `USER_HZ`).
    pub steal_ms: f64,
    /// Run-queue wait of the benchmark thread, in ms.
    pub runq_wait_ms: f64,
}

impl Delta {
    /// Adds the time between `before` and `after`.
    pub fn add(&mut self, before: Sample, after: Sample) {
        self.steal_ms += after.steal_ticks.saturating_sub(before.steal_ticks) as f64 * 10.0;
        self.runq_wait_ms += after.runq_wait_ns.saturating_sub(before.runq_wait_ns) as f64 / 1e6;
    }
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}
