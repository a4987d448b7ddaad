//! What the kernel says about this process: per-thread CPU and
//! run-queue wait, grouped by thread name, and the resident high-water
//! mark. Read from the benchmark's side of the API boundary; nothing in
//! the program under test is instrumented.

use std::fs;

/// On-CPU and runnable-but-waiting nanoseconds of a group of threads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadTime {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl ThreadTime {
    pub fn since(self, earlier: ThreadTime) -> ThreadTime {
        ThreadTime {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// One snapshot of every thread of the process, by role.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSnapshot {
    /// `cameo-net-*`: the epoll serve loops (and the idle acceptor).
    pub net: ThreadTime,
    /// `cameo-worker-*`.
    pub worker: ThreadTime,
    /// Everything else: the sender (main thread) and the collector.
    pub harness: ThreadTime,
}

impl CpuSnapshot {
    pub fn take() -> CpuSnapshot {
        let mut snap = CpuSnapshot::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return snap;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            // A thread may exit between the listing and the reads.
            let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
                continue;
            };
            let Some(t) = thread_time(&dir) else {
                continue;
            };
            let slot = if comm.starts_with("cameo-net") {
                &mut snap.net
            } else if comm.starts_with("cameo-worker") {
                &mut snap.worker
            } else {
                &mut snap.harness
            };
            slot.run_ns += t.run_ns;
            slot.wait_ns += t.wait_ns;
        }
        snap
    }

    pub fn since(&self, earlier: &CpuSnapshot) -> CpuSnapshot {
        CpuSnapshot {
            net: self.net.since(earlier.net),
            worker: self.worker.since(earlier.worker),
            harness: self.harness.since(earlier.harness),
        }
    }

    /// CPU nanoseconds of the whole process (user + system, all
    /// threads).
    pub fn total_run_ns(&self) -> u64 {
        self.net.run_ns + self.worker.run_ns + self.harness.run_ns
    }
}

/// `schedstat` gives nanosecond on-CPU and run-queue-wait time; kernels
/// built without it fall back to the 10 ms ticks of `stat` (and no wait
/// time).
fn thread_time(dir: &std::path::Path) -> Option<ThreadTime> {
    if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
        let mut it = s.split_whitespace().map(|f| f.parse::<u64>().ok());
        if let (Some(Some(run_ns)), Some(Some(wait_ns))) = (it.next(), it.next()) {
            return Some(ThreadTime { run_ns, wait_ns });
        }
    }
    let stat = fs::read_to_string(dir.join("stat")).ok()?;
    // Fields after the parenthesised name; utime and stime are the 14th
    // and 15th of the whole line, in USER_HZ (100) ticks.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ThreadTime {
        run_ns: ticks * 10_000_000,
        wait_ns: 0,
    })
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_see_this_thread_burning_cpu() {
        let before = CpuSnapshot::take();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = CpuSnapshot::take().since(&before);
        assert!(
            spent.total_run_ns() >= 10_000_000,
            "expected ≥ 10 ms of CPU, saw {} ns",
            spent.total_run_ns()
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
