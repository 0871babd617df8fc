//! The traced run: per-layer metrics from spans recorded around the
//! benchmark's calls into each layer's public functions.
//!
//! The run replays the workload's real occurrence stream — the states at
//! each occurrence of the recognized IP, collected with
//! `Machine::run_until_ip` — through the predictor bank, the speculator,
//! the trajectory cache and a worker pool, times a watchdog over the
//! workload's loop length, and reads the counters of `RunReport` from
//! traced `accelerate` calls interleaved with untraced ones.

use crate::measure::{median, process_cpu, Case, Prepared, Tally};
use crate::trace::Tracer;
use crate::workload::{input_seeds, Kind, Oracle, Size, Workload};
use asc_core::cache::{LookupScratch, TrajectoryCache};
use asc_core::config::AscConfig;
use asc_core::predictor_bank::PredictorBank;
use asc_core::recognizer::{recognize, RecognizerOutcome};
use asc_core::runtime::{LascRuntime, RunReport};
use asc_core::speculator::{execute_superstep_with, SpeculationScratch};
use asc_core::supervisor::{HealthStats, Heartbeat, Supervision, Watchdog};
use asc_core::workers::{SpeculationJob, SpeculationPool};
use asc_tvm::{Machine, RunExit, StateVector};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of the cheap one-shot measurements (build, recognition,
/// unwatched calls); each reports its median.
const REPS: usize = 3;

/// One per-layer metric.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `f` `REPS` times in spans named `name` and returns the last value
/// with the median span duration in ms.
fn repeated<T>(
    tracer: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut durations = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        last = Some(tracer.span(name, |_| f())?);
        durations.push(ms(tracer
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, |s| s.duration_ns())));
    }
    Ok((last.expect("REPS is positive"), median(&durations)))
}

/// The states at successive occurrences of the recognized IP after the
/// recognizer's window, as the runtime's occurrence loop sees them. A leg
/// that spends `max_superstep` without reaching the IP is an error: the
/// state it stops in is no occurrence.
fn occurrence_states(
    outcome: &RecognizerOutcome,
    config: &AscConfig,
) -> Result<Vec<StateVector>, String> {
    let mut machine = Machine::from_state(outcome.resume_state.clone());
    let mut states = Vec::new();
    let rip = outcome.rip;
    while !machine.is_halted() {
        for _ in 0..rip.stride.max(1) {
            let (_, exit) =
                machine.run_until_ip(rip.ip, config.max_superstep).map_err(|e| e.to_string())?;
            if exit == RunExit::BudgetExhausted {
                return Err(format!(
                    "occurrence {}: no arrival at IP {:#x} within {} instructions",
                    states.len(),
                    rip.ip,
                    config.max_superstep
                ));
            }
            if machine.is_halted() {
                break;
            }
        }
        if !machine.is_halted() {
            states.push(machine.state().clone());
        }
    }
    Ok(states)
}

/// Aggregated counts of a set of run reports.
#[derive(Debug, Default)]
struct Counts {
    calls: f64,
    queries: f64,
    hits: f64,
    junk_rejected: f64,
    probes: f64,
    considered: f64,
    econ_dispatched: f64,
    econ_probes: f64,
    pool_dispatched: f64,
    pool_inserted: f64,
    pool_dropped: f64,
    confirmed: f64,
    invalidated: f64,
    replans: f64,
    planner_dropped: f64,
    tier1: f64,
    tiered: f64,
    executed: f64,
    total: f64,
    failure_events: f64,
}

fn failure_events(health: &HealthStats) -> u64 {
    health.worker_panics
        + health.deadline_kills
        + health.planner_panics
        + health.panicked_joins
        + health.spawn_failures
        + health.checksum_rejects
        + health.watchdog_stalls
}

impl Counts {
    fn add(&mut self, report: &RunReport) {
        let c = &report.cache_stats;
        self.calls += 1.0;
        self.queries += c.queries as f64;
        self.hits += c.hits as f64;
        self.junk_rejected += c.junk_rejected as f64;
        self.probes += c.probes as f64;
        if let Some(e) = &report.economics {
            self.considered += e.considered as f64;
            self.econ_dispatched += e.dispatched as f64;
            self.econ_probes += e.probes as f64;
        }
        if let Some(p) = &report.speculation {
            self.pool_dispatched += p.dispatched as f64;
            self.pool_inserted += p.inserted as f64;
            self.pool_dropped += p.dropped as f64;
        }
        if let Some(p) = &report.planner {
            self.confirmed += p.confirmed as f64;
            self.invalidated += p.invalidated as f64;
            self.replans += p.replans as f64;
            self.planner_dropped += p.dropped as f64;
        }
        self.tier1 += report.tier.tier1_instructions as f64;
        self.tiered += report.tier.instructions() as f64;
        self.executed += report.executed_instructions as f64;
        self.total += report.total_instructions as f64;
        self.failure_events += failure_events(&report.health) as f64;
    }

    fn per_call(&self, total: f64) -> f64 {
        ratio(total, self.calls)
    }
}

/// Runs the traced benchmark and returns the per-layer metrics, in
/// `BENCHMARK.json` order, with the tally of verified calls.
///
/// # Errors
/// Returns a message when set-up, recognition or the replay fails.
pub fn run(
    kind: Kind,
    seed: u64,
    size: Size,
    seconds: f64,
    min_pairs: usize,
    tracer: &mut Tracer,
) -> Result<(Vec<Metric>, Tally), String> {
    let mut tally = Tally::default();

    // Set-up, as the untraced run does it. The layer replay runs on the
    // first input; the `accelerate` calls cycle through all of them.
    let seeds: Vec<u64> = input_seeds(seed).collect();
    let (workload, build_ms) =
        repeated(tracer, "workloads.build", || Workload::build(kind, seeds[0], size))?;
    let (oracle, oracle_ms) = repeated(tracer, "tvm.run_to_halt", || Oracle::run(&workload))?;
    let mut cases = vec![Case { workload, oracle }];
    for &input_seed in &seeds[1..] {
        cases.push(tracer.span("bench.case", |_| Case::new(kind, input_seed, size))?);
    }
    let config = kind.config();
    let runtime = tracer
        .span("runtime.new", |_| LascRuntime::new(config.clone()))
        .map_err(|e| e.to_string())?;
    let prepared = Prepared { cases, runtime };
    let _ = tracer
        .span("bench.warmup", |t| t.span("runtime.accelerate", |_| prepared.call(0, &mut tally)));
    let first = &prepared.cases[0];

    // Recognizer.
    let initial = first.workload.program.initial_state().map_err(|e| e.to_string())?;
    let (outcome, recognizer_ms) = repeated(tracer, "recognizer.recognize", || {
        recognize(&initial, &config).map_err(|e| e.to_string())
    })?;
    let rip = outcome.rip;

    // The occurrence stream, and tier-1 execution of the whole program.
    let states = tracer.span("replay.occurrences", |_| occurrence_states(&outcome, &config))?;
    if states.len() < 4 {
        return Err(format!("only {} occurrences to replay", states.len()));
    }
    let (tier1_instructions, tier1_ms) = repeated(tracer, "tier.run_to_halt", || {
        let mut machine = Machine::load(&first.workload.program).map_err(|e| e.to_string())?;
        machine.enable_tier(config.tier);
        machine.seed_hot(rip.ip);
        machine.run_to_halt(u64::MAX / 2).map_err(|e| e.to_string())
    })?;

    // Predictor bank: full training path, one-step accuracy and rollouts.
    let (mut predicted, mut correct) = (0u64, 0u64);
    tracer.span("replay.predictor", |t| {
        let mut bank = PredictorBank::new(rip.ip, &config);
        let mut pending: Option<StateVector> = None;
        for state in &states {
            if let Some(prediction) = pending.take() {
                predicted += 1;
                correct += u64::from(bank.prediction_matches(&prediction, state));
            }
            t.span("predictor.observe", |_| bank.observe(state));
            if bank.is_ready() {
                pending =
                    t.span("predictor.predict_next", |_| bank.predict_next(state)).map(|p| p.state);
                let rollout =
                    t.span("predictor.rollout", |_| bank.rollout(state, config.rollout_depth));
                drop(std::hint::black_box(rollout));
            }
        }
    });
    // The incremental training path, once the ensemble is ready.
    tracer.span("replay.predictor_incremental", |t| {
        let mut bank = PredictorBank::new(rip.ip, &config);
        for state in &states {
            if bank.is_ready() {
                t.span("predictor.observe_incremental", |_| bank.observe_incremental(state));
            } else {
                bank.observe(state);
            }
        }
    });

    // Speculator: one superstep from every real occurrence state.
    let mut entries = Vec::new();
    let mut speculated_instructions = 0u64;
    tracer.span("replay.speculator", |t| -> Result<(), String> {
        let mut scratch = SpeculationScratch::with_tier(config.tier);
        for (index, state) in states.iter().enumerate() {
            let result = t
                .span("speculator.execute_superstep", |_| {
                    execute_superstep_with(
                        state,
                        rip.ip,
                        rip.stride,
                        config.max_superstep,
                        &mut scratch,
                    )
                })
                .map_err(|e| e.to_string())?;
            if let Some(outcome) = result.completed() {
                speculated_instructions += outcome.instructions;
                if outcome.reached_rip || outcome.halted {
                    entries.push((index, outcome.entry));
                }
            }
        }
        Ok(())
    })?;
    let speculate_ns: u64 = tracer.durations("speculator.execute_superstep").iter().sum();

    // Cache: insert the entries of even occurrences, then look every
    // occurrence up — even ones hit their own entry, odd ones hit only
    // where trajectories are shared.
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    tracer.span("replay.cache", |t| {
        let cache = TrajectoryCache::with_junk_threshold(
            config.cache_capacity,
            config.cache_junk_threshold,
        );
        for (_, entry) in entries.iter().filter(|(index, _)| index % 2 == 0) {
            t.span("cache.insert", |_| cache.insert(entry.clone()));
        }
        let mut scratch = LookupScratch::new();
        for state in &states {
            let hit = t
                .span("cache.lookup", |_| cache.lookup_with(rip.ip, state, &mut scratch).is_some());
            let ns = t.spans().last().map_or(0, |s| s.duration_ns());
            if hit {
                hit_ns.push(ns)
            } else {
                miss_ns.push(ns)
            }
        }
    });
    let mean_us = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64) / 1e3;

    // Workers: the stream's supersteps through a pool, as fast as it
    // retires them.
    let jobs_per_s = tracer.span("workers.replay", |t| {
        let cache = Arc::new(TrajectoryCache::with_junk_threshold(
            config.cache_capacity,
            config.cache_junk_threshold,
        ));
        let mut pool = SpeculationPool::with_supervision(
            config.workers.max(1),
            cache,
            Supervision::from_config(&config),
        );
        let start = Instant::now();
        for state in &states {
            while pool.is_saturated() {
                std::thread::yield_now();
            }
            let job = SpeculationJob {
                start: state.clone(),
                rip: rip.ip,
                stride: rip.stride,
                max_instructions: config.max_superstep,
            };
            t.span("workers.dispatch", |_| pool.dispatch(job));
        }
        let stats = t.span("workers.shutdown", |_| pool.shutdown());
        ratio(
            (stats.completed + stats.faulted + stats.exhausted) as f64,
            start.elapsed().as_secs_f64(),
        )
    });

    // Supervisor: the loop length comes from calls with the watchdog off;
    // then a watchdog is started, fed a heartbeat for that long, and
    // finished, as `accelerate` does.
    let unwatched = LascRuntime::new(AscConfig {
        watchdog: asc_core::WatchdogConfig { enabled: false, ..config.watchdog.clone() },
        ..config.clone()
    })
    .map_err(|e| e.to_string())?;
    let (_, unwatched_ms) = repeated(tracer, "runtime.accelerate_unwatched", || {
        Ok(prepared.call_on(&unwatched, 0, &mut tally))
    })?;
    let loop_length = Duration::from_secs_f64((unwatched_ms - recognizer_ms).max(0.0) / 1e3);
    tracer.span("supervisor.watchdog", |t| {
        let heartbeat = Arc::new(Heartbeat::default());
        let health = Supervision::from_config(&config).health;
        let watchdog = t.span("supervisor.watchdog_start", |_| {
            Watchdog::start(&config.watchdog, Arc::clone(&heartbeat), health, rip.ip)
        });
        t.span("supervisor.heartbeat", |_| {
            let start = Instant::now();
            while start.elapsed() < loop_length {
                heartbeat.tick();
                std::hint::spin_loop();
            }
        });
        t.span("supervisor.watchdog_finish", |_| watchdog.map(Watchdog::finish));
    });

    // Interleaved untraced and traced calls on the same input, cycling
    // through the inputs; the pair order alternates (untraced first when
    // the traced count is even).
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut untraced_cpu = Duration::ZERO;
    let mut counts = Counts::default();
    let batch = Instant::now();
    while traced.len() < min_pairs || batch.elapsed().as_secs_f64() < seconds {
        let case = traced.len();
        for traced_turn in [case % 2 == 1, case % 2 == 0] {
            if traced_turn {
                let (wall, report) =
                    tracer.span("runtime.accelerate", |_| prepared.call(case, &mut tally));
                traced.push(wall.as_secs_f64() * 1e3);
                if let Ok(report) = report {
                    counts.add(&report);
                }
            } else {
                let cpu_before = process_cpu();
                let (wall, _) = prepared.call(case, &mut tally);
                untraced_cpu += process_cpu().saturating_sub(cpu_before);
                untraced.push(wall.as_secs_f64() * 1e3);
            }
        }
    }
    let traced_ms = median(&traced);

    let c = &counts;
    let metrics = vec![
        ("trace.overhead_frac", ratio(traced_ms, median(&untraced)) - 1.0, "fraction"),
        ("supervisor.watchdog_finish_ms", ms(tracer.durations("supervisor.watchdog")[0]), "ms"),
        ("supervisor.finish_join_ms", ms(tracer.durations("supervisor.watchdog_finish")[0]), "ms"),
        ("supervisor.failure_events", c.per_call(c.failure_events), "count"),
        ("recognizer.ms", recognizer_ms, "ms"),
        ("recognizer.instructions", outcome.instructions_spent as f64, "count"),
        (
            "recognizer.ns_per_instr",
            ratio(recognizer_ms * 1e6, outcome.instructions_spent as f64),
            "ns",
        ),
        ("predictor.observe_us", tracer.mean_us("predictor.observe"), "us"),
        ("predictor.observe_incremental_us", tracer.mean_us("predictor.observe_incremental"), "us"),
        ("predictor.rollout_us", tracer.mean_us("predictor.rollout"), "us"),
        ("predictor.one_step_accuracy", ratio(correct as f64, predicted as f64), "fraction"),
        ("speculator.superstep_us", tracer.mean_us("speculator.execute_superstep"), "us"),
        (
            "speculator.ns_per_instr",
            ratio(speculate_ns as f64, speculated_instructions as f64),
            "ns",
        ),
        ("cache.insert_us", tracer.mean_us("cache.insert"), "us"),
        ("cache.lookup_hit_us", mean_us(&hit_ns), "us"),
        ("cache.lookup_miss_us", mean_us(&miss_ns), "us"),
        ("cache.hit_rate", ratio(c.hits, c.queries), "fraction"),
        ("cache.junk_rejected", c.per_call(c.junk_rejected), "count"),
        ("cache.probes_per_query", ratio(c.probes, c.queries), "count"),
        ("economics.dispatch_frac", ratio(c.econ_dispatched, c.considered), "fraction"),
        ("economics.probes", c.per_call(c.econ_probes), "count"),
        ("workers.jobs_per_s", jobs_per_s, "1/s"),
        ("workers.dispatched", c.per_call(c.pool_dispatched), "count"),
        ("workers.useful_frac", ratio(c.pool_inserted, c.pool_dispatched), "fraction"),
        ("workers.dropped", c.per_call(c.pool_dropped), "count"),
        ("planner.confirmed_frac", ratio(c.confirmed, c.confirmed + c.invalidated), "fraction"),
        ("planner.replans", c.per_call(c.replans), "count"),
        ("planner.dropped", c.per_call(c.planner_dropped), "count"),
        ("tvm.tier0_mips", ratio(first.oracle.instructions as f64, oracle_ms * 1e3), "MIPS"),
        ("tier.tier1_mips", ratio(tier1_instructions as f64, tier1_ms * 1e3), "MIPS"),
        ("tier.tier1_share", ratio(c.tier1, c.tiered), "fraction"),
        ("runtime.executed_ratio", ratio(c.executed, c.total), "fraction"),
        ("runtime.outside_recognizer_ms", traced_ms - recognizer_ms, "ms"),
        (
            "runtime.cpu_ms_per_call",
            ratio(untraced_cpu.as_secs_f64() * 1e3, untraced.len() as f64),
            "ms",
        ),
        ("workloads.build_ms", build_ms, "ms"),
    ];
    Ok((metrics, tally))
}
