//! Host readings from `/proc`: process CPU time, peak resident memory and
//! hypervisor steal. All three are Linux-only; elsewhere they read as zero
//! and the benchmark says so in its output.

use std::fs;
use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it exposes to user space).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included
/// (fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis.
    let Some(tail) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = tail.split_whitespace().collect();
    // `tail` starts at field 3 (state), so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / USER_HZ,
        _ => 0.0,
    }
}

/// Seconds stolen by the hypervisor from all of the host's virtual CPUs
/// since boot (the `steal` column of the `cpu` line of `/proc/stat`), and
/// the number of virtual CPUs it sums over (the `cpuN` lines).
fn steal_reading() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0.0, 1.0);
    };
    let steal = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .map_or(0.0, |t| t as f64 / USER_HZ);
    let vcpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    (steal, vcpus.max(1) as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Hardware threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Wall, CPU and steal readings taken at the start of a timed region or a
/// set-up. Steal is read only here and in [`Region::finish`], never inside
/// an operation.
pub struct Region {
    at: Instant,
    cpu: f64,
    steal: f64,
}

/// What a timed region cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionCost {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, every thread).
    pub cpu_s: f64,
    /// Hypervisor steal seconds over the same interval, summed over all of
    /// the host's virtual CPUs.
    pub steal_s: f64,
    /// Virtual CPUs `steal_s` sums over.
    pub vcpus: f64,
}

impl RegionCost {
    /// The share of the region's wall time the host left to the guest: one
    /// minus the steal per virtual CPU over the wall time. The benchmark
    /// scales every wall time of a region by it, once per region.
    pub fn unstolen(&self) -> f64 {
        if self.wall_s > 0.0 {
            (1.0 - self.steal_s / self.vcpus / self.wall_s).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Wall-clock seconds net of steal.
    pub fn net_s(&self) -> f64 {
        self.wall_s * self.unstolen()
    }
}

impl Region {
    /// Starts a region now.
    pub fn start() -> Region {
        Region {
            cpu: cpu_seconds(),
            steal: steal_reading().0,
            at: Instant::now(),
        }
    }

    /// Wall seconds since the region started.
    pub fn elapsed_s(&self) -> f64 {
        self.at.elapsed().as_secs_f64()
    }

    /// Ends the region.
    pub fn finish(self) -> RegionCost {
        let wall_s = self.at.elapsed().as_secs_f64();
        let (steal, vcpus) = steal_reading();
        RegionCost {
            wall_s,
            cpu_s: cpu_seconds() - self.cpu,
            steal_s: steal - self.steal,
            vcpus,
        }
    }
}
