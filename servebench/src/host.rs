//! Host facts and a noise probe, recorded with every result so a move
//! in a tail percentile can be told apart from host jitter.

use std::time::{Duration, Instant};

use crate::stats::{self, ns};

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux this runs on).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// CPU time (user + system) this process has used, ns; 0 where
/// `/proc` is unavailable.
pub fn process_cpu_ns() -> f64 {
    cpu_ns("/proc/self/stat")
}

/// CPU time the calling thread has used, ns.
pub fn thread_cpu_ns() -> f64 {
    cpu_ns("/proc/thread-self/stat")
}

fn cpu_ns(path: &str) -> f64 {
    let Some(stat) = read(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ * 1e9
}

/// Host-wide CPU steal ticks so far (the `steal` column of the `cpu`
/// line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .and_then(|s| s.lines().next().map(str::to_owned))
        .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Host steal ticks per fixed-width window of a phase, read at window
/// boundaries by the phase's own loop, so each window's latency can be
/// set against the host noise during it.
pub struct WindowSteal {
    start: Instant,
    width: Duration,
    last: u64,
    current: usize,
    pub ticks: Vec<u64>,
}

impl WindowSteal {
    pub fn new(start: Instant, width: Duration, windows: usize) -> Self {
        Self { start, width, last: steal_ticks(), current: 0, ticks: vec![0; windows] }
    }

    /// Closes every window that ended before `now`.
    pub fn tick(&mut self, now: Instant) {
        let elapsed = now.saturating_duration_since(self.start);
        let index =
            ((elapsed.as_nanos() / self.width.as_nanos().max(1)) as usize).min(self.ticks.len());
        if index > self.current {
            let steal = steal_ticks();
            self.ticks[self.current] += steal - self.last;
            self.last = steal;
            self.current = index;
        }
    }

    /// Books the remaining steal to the last window.
    pub fn finish(&mut self) {
        let steal = steal_ticks();
        let last = self.current.min(self.ticks.len() - 1);
        self.ticks[last] += steal - self.last;
        self.last = steal;
    }
}

/// The host-quiet half of a phase: indices of the windows (or repeats)
/// whose steal is at most the median steal, so at least half of them,
/// and all of them on a host without steal.
pub fn quiet(ticks: &[u64]) -> Vec<usize> {
    let mut sorted = ticks.to_vec();
    sorted.sort_unstable();
    let Some(&cutoff) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    (0..ticks.len()).filter(|&i| ticks[i] <= cutoff).collect()
}

/// One-minute load average.
pub fn loadavg_1m() -> f64 {
    read("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Overshoot of `n` sleeps of 500 µs beyond their request, µs
/// (p50, p99, max).
pub fn sleep_overshoot_us(n: usize) -> (f64, f64, f64) {
    let ask = Duration::from_micros(500);
    let over: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::thread::sleep(ask);
            (ns(t.elapsed()) - ns(ask)) / 1e3
        })
        .collect();
    (stats::percentile(&over, 0.5), stats::percentile(&over, 0.99), stats::percentile(&over, 1.0))
}

/// `git describe` of the checkout the benchmark runs in, looked up in
/// the working directory only (never a parent repository).
pub fn git_describe() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".to_owned();
    };
    if !cwd.join(".git").exists() {
        return "not-a-git-checkout".to_owned();
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Everything recorded about the host for one run.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub visible_cores: usize,
    pub generator_threads: usize,
    pub connections: usize,
    pub shard_workers: usize,
    pub loadavg_start: f64,
    pub loadavg_end: f64,
    pub steal_ticks: u64,
    pub sleep_overshoot_p50_us: f64,
    pub sleep_overshoot_p99_us: f64,
    pub sleep_overshoot_max_us: f64,
    pub git: String,
    pub profile: &'static str,
}

impl HostFacts {
    pub fn json(&self) -> String {
        format!(
            "{{\"host\": {{\"visible_cores\": {}, \"threads\": {{\"generator\": {}, \"shard_worker\": {}, \"connection\": {}}}, \
             \"loadavg_1m_start\": {}, \"loadavg_1m_end\": {}, \"steal_ticks_delta\": {}, \
             \"sleep_overshoot_us\": {{\"p50\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}}}, \"git\": \"{}\", \"profile\": \"{}\"}}}}",
            self.visible_cores,
            self.generator_threads,
            self.shard_workers,
            self.connections,
            self.loadavg_start,
            self.loadavg_end,
            self.steal_ticks,
            self.sleep_overshoot_p50_us,
            self.sleep_overshoot_p99_us,
            self.sleep_overshoot_max_us,
            self.git.replace('"', "'"),
            self.profile,
        )
    }
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
