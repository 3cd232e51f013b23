//! Run-validity guards: a run whose numbers could be noise, or could
//! be measuring the generator instead of the system, emits no metrics.
//! A gate that can pass on noise is a correctness bug.

/// Shortest saturation phase (summed repeats) a result may rest on.
pub const MIN_SATURATION_S: f64 = 2.0;
/// Fewest requests the saturation phase must complete.
pub const MIN_SATURATION_OPS: u64 = 200_000;
/// Shortest paced phase a result may rest on.
pub const MIN_PACED_S: f64 = 2.0;
/// Fewest latency samples (runs or frames) each paced-phase window
/// needs, so the reported p99 has at least ten samples beyond it.
pub const MIN_SAMPLES_PER_WINDOW: u64 = 1_000;
/// Largest p99 lateness of the paced generator: beyond it the schedule
/// was not kept and the latency percentiles measure the generator.
pub const MAX_LATE_P99_US: f64 = 25_000.0;

/// The facts of one run the guards judge.
#[derive(Debug, Clone)]
pub struct RunFacts {
    pub visible_cores: usize,
    pub generator_threads: usize,
    pub connections: usize,
    pub saturation_s: f64,
    pub saturation_ops: u64,
    pub saturation_shed: u64,
    /// Any forward left its fault-free tier in the saturation phase.
    pub saturation_degraded: bool,
    pub paced_s: f64,
    /// Fewest latency samples in any paced-phase window.
    pub min_window_samples: u64,
    pub late_p99_us: f64,
}

/// Every reason to refuse the run; empty when it is valid.
pub fn refusals(f: &RunFacts) -> Vec<String> {
    let mut out = Vec::new();
    if f.saturation_shed > 0 {
        out.push(format!(
            "saturation phase shed {} requests; its credit bound must make shed impossible",
            f.saturation_shed
        ));
    }
    if f.saturation_degraded {
        out.push("saturation phase degraded forwards to origin; it must run fault-free".to_owned());
    }
    if f.generator_threads > f.visible_cores {
        out.push(format!(
            "{} generator threads on {} visible cores",
            f.generator_threads, f.visible_cores
        ));
    }
    if f.connections > f.visible_cores {
        out.push(format!(
            "{} client connections on {} visible cores",
            f.connections, f.visible_cores
        ));
    }
    if f.saturation_s < MIN_SATURATION_S || f.saturation_ops < MIN_SATURATION_OPS {
        out.push(format!(
            "saturation phase of {:.3} s / {} requests is below the floor of {MIN_SATURATION_S} s / {MIN_SATURATION_OPS}",
            f.saturation_s, f.saturation_ops
        ));
    }
    if f.paced_s < MIN_PACED_S || f.min_window_samples < MIN_SAMPLES_PER_WINDOW {
        out.push(format!(
            "paced phase of {:.3} s / {} samples in its thinnest window is below the floor of {MIN_PACED_S} s / {MIN_SAMPLES_PER_WINDOW}",
            f.paced_s, f.min_window_samples
        ));
    }
    if f.late_p99_us > MAX_LATE_P99_US {
        out.push(format!(
            "paced generator ran {:.0} us late at p99, beyond the {MAX_LATE_P99_US} us bound",
            f.late_p99_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> RunFacts {
        RunFacts {
            visible_cores: 2,
            generator_threads: 2,
            connections: 2,
            saturation_s: 5.0,
            saturation_ops: 10_000_000,
            saturation_shed: 0,
            saturation_degraded: false,
            paced_s: 5.0,
            min_window_samples: 2_000,
            late_p99_us: 150.0,
        }
    }

    #[test]
    fn accepts_a_valid_run() {
        assert!(refusals(&valid()).is_empty());
    }

    #[test]
    fn refuses_a_short_run() {
        let short = RunFacts { saturation_s: 0.02, saturation_ops: 608, ..valid() };
        assert_eq!(refusals(&short).len(), 1);
        let short_paced = RunFacts { paced_s: 0.5, min_window_samples: 40, ..valid() };
        assert_eq!(refusals(&short_paced).len(), 1);
    }

    #[test]
    fn refuses_a_shedding_run() {
        // 775 068 of 801 090 shed, as an unpaced open-loop driver does.
        let shedding = RunFacts { saturation_shed: 775_068, ..valid() };
        let why = refusals(&shedding);
        assert_eq!(why.len(), 1);
        assert!(why[0].contains("shed"));
    }

    #[test]
    fn refuses_oversubscribed_load_and_a_late_generator() {
        let threads = RunFacts { generator_threads: 4, ..valid() };
        assert_eq!(refusals(&threads).len(), 1);
        let conns = RunFacts { connections: 3, ..valid() };
        assert_eq!(refusals(&conns).len(), 1);
        let late = RunFacts { late_p99_us: 40_000.0, ..valid() };
        assert_eq!(refusals(&late).len(), 1);
    }
}
