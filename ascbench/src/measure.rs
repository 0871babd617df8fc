//! The untraced load generator: set-up, verified `accelerate` calls, and
//! the end-to-end metrics computed from them.
//!
//! The generator is closed-loop and single-threaded: it issues the next
//! `accelerate` call only after the previous one returned and was verified.
//! Only the call itself is inside the wall-clock timing.

use crate::workload::{input_seeds, Kind, Oracle, Size, Workload};
use asc_core::error::AscResult;
use asc_core::runtime::{LascRuntime, RunReport};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest timed calls per run, so that the tail percentile, with ten calls
/// beyond it, is p50 or higher.
pub const MIN_CALLS: usize = 20;
/// Calls a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Calls attempted and calls that failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `accelerate` calls made, warm-ups included.
    pub attempted: u64,
    /// Calls that returned `Err`, produced a wrong result or disagreed with
    /// the oracle.
    pub failed: u64,
}

impl Tally {
    /// Counts one call.
    pub fn count(&mut self, verdict: &Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("ascbench: call {} failed: {why}", self.attempted);
        }
    }
}

/// Checks one `accelerate` result: it returned `Ok`, halted, holds the
/// reference result, and matches the sequential oracle's final state and
/// instruction count exactly.
///
/// # Errors
/// Describes the first check that failed.
pub fn verify_call(
    result: &AscResult<RunReport>,
    workload: &Workload,
    oracle: &Oracle,
) -> Result<(), String> {
    let report = result.as_ref().map_err(|e| format!("accelerate returned Err: {e}"))?;
    if !report.halted {
        return Err("the run did not halt".into());
    }
    if !workload.verify(&report.final_state) {
        return Err("final state disagrees with the reference".into());
    }
    if report.total_instructions != oracle.instructions {
        return Err(format!(
            "total_instructions {} != oracle {}",
            report.total_instructions, oracle.instructions
        ));
    }
    if report.final_state != oracle.final_state {
        return Err("final state is not bit-identical to the oracle's".into());
    }
    Ok(())
}

/// One input of a run: its program and reference, and its oracle.
#[derive(Debug)]
pub struct Case {
    /// The workload built from the input.
    pub workload: Workload,
    /// Its sequential oracle.
    pub oracle: Oracle,
}

impl Case {
    /// Builds the input's workload and runs its oracle.
    ///
    /// # Errors
    /// Returns a message when the program or the oracle fails.
    pub fn new(kind: Kind, input_seed: u64, size: Size) -> Result<Case, String> {
        let workload = Workload::build(kind, input_seed, size)?;
        let oracle = Oracle::run(&workload)?;
        Ok(Case { workload, oracle })
    }
}

/// Everything the timed calls need, built by one set-up.
#[derive(Debug)]
pub struct Prepared {
    /// The run's inputs, one per input seed.
    pub cases: Vec<Case>,
    /// The runtime under test.
    pub runtime: LascRuntime,
}

impl Prepared {
    /// One set-up: build every input's workload and reference, run their
    /// oracles, construct the runtime, and make one verified warm-up call.
    ///
    /// # Errors
    /// Returns a message when a workload, oracle or the runtime cannot be
    /// built. A failed warm-up call is counted in `tally`, not returned.
    pub fn new(kind: Kind, seed: u64, size: Size, tally: &mut Tally) -> Result<Prepared, String> {
        let cases =
            input_seeds(seed).map(|s| Case::new(kind, s, size)).collect::<Result<Vec<_>, _>>()?;
        let runtime = LascRuntime::new(kind.config()).map_err(|e| e.to_string())?;
        let prepared = Prepared { cases, runtime };
        let _ = prepared.call(0, tally);
        Ok(prepared)
    }

    /// One verified `accelerate` call on input `case`; returns its wall
    /// time and report.
    pub fn call(&self, case: usize, tally: &mut Tally) -> (Duration, AscResult<RunReport>) {
        self.call_on(&self.runtime, case, tally)
    }

    /// Like [`Prepared::call`], on another runtime.
    pub fn call_on(
        &self,
        runtime: &LascRuntime,
        case: usize,
        tally: &mut Tally,
    ) -> (Duration, AscResult<RunReport>) {
        let Case { workload, oracle } = &self.cases[case % self.cases.len()];
        let start = Instant::now();
        let result = runtime.accelerate(std::hint::black_box(&workload.program));
        let wall = start.elapsed();
        tally.count(&verify_call(&result, workload, oracle));
        (wall, result)
    }
}

/// The end-to-end metrics of one untraced run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Median wall time of one call, ms.
    pub wall_ms_p50: f64,
    /// Wall time at the tail percentile, ms.
    pub wall_ms_tail: f64,
    /// The tail percentile: the highest with [`TAIL_BEYOND`] calls beyond.
    pub tail_percentile: f64,
    /// Timed calls.
    pub calls: usize,
    /// Process CPU (all threads) summed over the timed calls, divided by
    /// the number of calls, ms. Printed on the summary line only: on a
    /// shared host it is too unsteady to gate on (see `README.md`).
    pub cpu_ms_per_call: f64,
    /// Median peak resident set of the process during one call, MiB.
    pub peak_rss_mb: f64,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Calls attempted and failed.
    pub tally: Tally,
}

impl EndToEnd {
    /// The metrics as `(name, value, unit)`, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("wall_ms_p50", self.wall_ms_p50, "ms"),
            ("wall_ms_tail", self.wall_ms_tail, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
            ("setup_s", self.setup_s, "s"),
        ]
    }

    /// Calls that failed as a share of calls attempted.
    pub fn failed_frac(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` with at least `beyond` values above
/// it, as `(percentile, value)`; the maximum when there are too few values.
pub fn tail(values: &[f64], beyond: usize) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= beyond {
        return (100.0, sorted.last().copied().unwrap_or(0.0));
    }
    let index = n - beyond - 1;
    (100.0 * (index + 1) as f64 / n as f64, sorted[index])
}

/// Runs the untraced benchmark: [`SETUP_REPS`] timed set-ups (the first one
/// timed from `entered`, when the benchmark started), then rounds of one
/// verified call per input until `seconds` have passed and at least
/// `min_calls` were made.
///
/// # Errors
/// Returns a message when a set-up fails.
pub fn run(
    kind: Kind,
    seed: u64,
    size: Size,
    seconds: f64,
    min_calls: usize,
    entered: Instant,
) -> Result<EndToEnd, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { entered } else { Instant::now() };
        let fresh = Prepared::new(kind, seed, size, &mut tally)?;
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some(fresh);
    }
    let prepared = prepared.expect("SETUP_REPS is positive");

    let (mut walls, mut cpus, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let batch = Instant::now();
    while walls.len() < min_calls || batch.elapsed().as_secs_f64() < seconds {
        for case in 0..prepared.cases.len() {
            reset_peak_rss()?;
            let cpu_before = process_cpu();
            let (wall, report) = prepared.call(case, &mut tally);
            let cpu = process_cpu().saturating_sub(cpu_before);
            drop(std::hint::black_box(report));
            walls.push(wall.as_secs_f64() * 1e3);
            cpus.push(cpu.as_secs_f64() * 1e3);
            peaks.push(peak_rss_kib()? / 1024.0);
        }
    }
    let (tail_percentile, wall_ms_tail) = tail(&walls, TAIL_BEYOND);
    Ok(EndToEnd {
        wall_ms_p50: median(&walls),
        wall_ms_tail,
        tail_percentile,
        calls: walls.len(),
        cpu_ms_per_call: cpus.iter().sum::<f64>() / cpus.len() as f64,
        peak_rss_mb: median(&peaks),
        setup_s: median(&setups),
        tally,
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process — every thread, live or
/// exited — at nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    Duration::new(now.tv_sec.unsigned_abs(), u32::try_from(now.tv_nsec).unwrap_or(0))
}

/// Resets the process's peak resident set (`VmHWM`) to its current size.
///
/// # Errors
/// Returns a message when `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// The process's peak resident set (`VmHWM`), KiB.
///
/// # Errors
/// Returns a message when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_kib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 values: the 30th leaves exactly ten beyond it.
        assert_eq!(tail(&values, 10), (75.0, 30.0));
        assert_eq!(tail(&values[..5], 10), (100.0, 5.0));
    }

    #[test]
    fn process_counters_read() {
        let before = process_cpu();
        let mut x = 1u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1));
        }
        assert!(process_cpu() > before);
        reset_peak_rss().unwrap();
        assert!(peak_rss_kib().unwrap() > 0.0);
    }

    /// One verified call on each of 64 full-size inputs (slow: run with
    /// `cargo test --release -- --ignored`).
    #[test]
    #[ignore]
    fn full_size_calls_verify_across_seeds() {
        for kind in Kind::ALL {
            let mut tally = Tally::default();
            for seed in 0..8 {
                let prepared = Prepared::new(kind, seed, Size::Full, &mut tally).unwrap();
                for case in 1..prepared.cases.len() {
                    let _ = prepared.call(case, &mut tally);
                }
            }
            assert_eq!(tally, Tally { attempted: 64, failed: 0 }, "{}", kind.name());
        }
    }

    #[test]
    fn every_workload_verifies_at_reduced_size() {
        for kind in Kind::ALL {
            let e2e = run(kind, 3, Size::Reduced, 0.0, 2, Instant::now()).unwrap();
            assert_eq!(e2e.tally.failed, 0, "{}", kind.name());
            let round = crate::workload::INPUTS_PER_RUN;
            assert_eq!(e2e.tally.attempted, SETUP_REPS as u64 + round);
            for (name, value, _) in e2e.metrics() {
                assert!(value.is_finite() && value >= 0.0, "{}: {name} = {value}", kind.name());
            }
        }
    }
}
