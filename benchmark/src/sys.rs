//! Process accounting from `/proc` with the standard library only, plus the
//! small statistics and hashing helpers the harness needs.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this benchmark runs on; the
/// self-test's spin loop fails loudly if that ever stops holding.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds charged to this process so far, all threads
/// included (live and exited ones).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks =
        |i: usize| -> f64 { fields[i - 3].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(14) + ticks(15)) / CLOCK_TICKS_PER_S
}

/// CPU seconds the hypervisor gave to other guests while this machine wanted
/// to run (the `steal` column of `/proc/stat`, summed over all CPUs). Runs
/// taken while it grows fast were measured on a contended host.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("aggregate cpu line");
    let steal = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    steal as f64 / CLOCK_TICKS_PER_S
}

/// Peak resident set size of this process in MiB (`VmHWM`). It never goes
/// back down within a process, which is why every measured iteration runs
/// in a fresh one.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

/// A wall-clock and CPU reading taken together.
#[derive(Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu: f64,
}

impl Mark {
    pub fn now() -> Mark {
        Mark {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// Wall seconds from `self` to `later`.
    pub fn wall_to(&self, later: &Mark) -> f64 {
        later.wall.duration_since(self.wall).as_secs_f64()
    }

    /// CPU seconds from `self` to `later`.
    pub fn cpu_to(&self, later: &Mark) -> f64 {
        later.cpu - self.cpu
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// FNV-1a over `bytes`, rendered as 16 hex digits: the digest the output
/// checks pin.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}
