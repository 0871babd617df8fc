//! The benchmark's workloads: seeded inputs, the program built from them,
//! the pure-Rust reference result and the sequential oracle.
//!
//! A workload seed picks only the *free* inputs of a kernel — the first
//! integer Collatz tests, the first seed index the logistic map iterates —
//! never its size, so every seed asks for the same amount of work and the
//! spread between seeds measures the host, not the inputs.

use asc_asm::Assembler;
use asc_bench::{config_for, small_collatz_config};
use asc_core::config::AscConfig;
use asc_tvm::{Machine, Program, StateVector};
use asc_workloads::collatz::{self, CollatzParams, CollatzResult};
use asc_workloads::logistic_map::{self, LogisticMapParams, LogisticMapResult};
use asc_workloads::registry::{logistic_map_params, Scale};

/// Instruction budget of the sequential oracle; every workload halts far
/// below it.
const ORACLE_BUDGET: u64 = 500_000_000;

/// The benchmark's workloads; see `ascbench/README.md` for why each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Collatz, 1,500 integers, `config_for(Scale::Medium)`, inline.
    CollatzInline,
    /// Collatz Small (3,000 integers), `small_collatz_config(2, true)`.
    CollatzWorkers,
    /// Logistic Tiny (600 seeds × 20 steps), `config_for(Scale::Tiny)`.
    LogisticChaotic,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::CollatzInline, Kind::CollatzWorkers, Kind::LogisticChaotic];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CollatzInline => "collatz-inline",
            Kind::CollatzWorkers => "collatz-workers",
            Kind::LogisticChaotic => "logistic-chaotic",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The runtime configuration the workload is measured under. The
    /// watchdog keeps its default: users pay for it.
    pub fn config(self) -> AscConfig {
        match self {
            Kind::CollatzInline => config_for(Scale::Medium),
            Kind::CollatzWorkers => small_collatz_config(2, true),
            Kind::LogisticChaotic => config_for(Scale::Tiny),
        }
    }
}

/// How big an instance to build: `Full` is what the benchmark measures,
/// `Reduced` is for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// Fewer integers or seeds under the same configuration.
    #[cfg_attr(not(test), allow(dead_code))]
    Reduced,
}

/// The inputs generated from a workload seed — all the program receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inputs {
    /// The Collatz range `start .. start + count`.
    Collatz(CollatzParams),
    /// Logistic-map seed indices `first .. first + params.seeds`.
    Logistic {
        /// Seed count and steps per seed.
        params: LogisticMapParams,
        /// First seed index iterated.
        first: u32,
    },
}

/// Inputs per run. A run cycles its calls through this many inputs drawn
/// from its seed, so each run averages over a sample of the input space
/// instead of a single draw: on Collatz, the speculation work of one call
/// varies by up to 2x between neighbouring starts.
pub const INPUTS_PER_RUN: u64 = 8;

/// The input seeds of a run: disjoint for distinct run seeds.
pub fn input_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..INPUTS_PER_RUN).map(move |i| seed.wrapping_mul(INPUTS_PER_RUN).wrapping_add(i))
}

/// SplitMix64: a seed-to-input mixer, so neighbouring seeds give unrelated
/// inputs.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates one input of a workload from an input seed. Collatz starts are drawn
    /// from a 256-wide window above 1,000, where the work of 1,500
    /// consecutive integers varies by about 2% between starts.
    pub fn generate(kind: Kind, input_seed: u64, size: Size) -> Inputs {
        let draw = mix(input_seed);
        match kind {
            Kind::CollatzInline | Kind::CollatzWorkers => {
                let count = match (kind, size) {
                    (Kind::CollatzInline, Size::Full) => 1_500,
                    (_, Size::Full) => 3_000,
                    (Kind::CollatzInline, Size::Reduced) => 600,
                    (_, Size::Reduced) => 1_000,
                };
                Inputs::Collatz(CollatzParams { start: 1_000 + (draw % 256) as u32, count })
            }
            Kind::LogisticChaotic => {
                let params = match size {
                    Size::Full => logistic_map_params(Scale::Tiny),
                    Size::Reduced => LogisticMapParams { seeds: 400, steps: 20 },
                };
                Inputs::Logistic { params, first: (draw % 4_096) as u32 }
            }
        }
    }
}

impl std::fmt::Display for Inputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Inputs::Collatz(p) => write!(f, "collatz integers {}..{}", p.start, p.start + p.count),
            Inputs::Logistic { params, first } => {
                write!(
                    f,
                    "logistic seeds {first}..{} x {} steps",
                    first + params.seeds,
                    params.steps
                )
            }
        }
    }
}

/// The reference result a correct final state must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    Collatz(CollatzResult),
    Logistic(LogisticMapResult),
}

/// A built workload: program and reference result.
#[derive(Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The program the runtime accelerates.
    pub program: Program,
    expected: Expected,
}

impl Workload {
    /// Builds the program from the inputs of `input_seed` and computes the
    /// reference result.
    ///
    /// # Errors
    /// Returns a message when the program fails to assemble.
    pub fn build(kind: Kind, input_seed: u64, size: Size) -> Result<Workload, String> {
        let inputs = Inputs::generate(kind, input_seed, size);
        let (program, expected) = match inputs {
            Inputs::Collatz(params) => (
                collatz::program(&params).map_err(|e| e.to_string())?,
                Expected::Collatz(collatz::reference(&params)),
            ),
            Inputs::Logistic { params, first } => (
                logistic_program(params, first)?,
                Expected::Logistic(logistic_reference(params, first)),
            ),
        };
        Ok(Workload { kind, program, expected })
    }

    /// Whether `state` holds the reference result.
    pub fn verify(&self, state: &StateVector) -> bool {
        match self.expected {
            Expected::Collatz(expected) => {
                collatz::read_result(&self.program, state).is_ok_and(|got| got == expected)
            }
            Expected::Logistic(expected) => {
                logistic_map::read_result(&self.program, state).is_ok_and(|got| got == expected)
            }
        }
    }
}

/// The logistic-map kernel over seed indices `first .. first + seeds`: the
/// crate's generator iterates from index 0, so the loop bounds of its
/// source are moved and the result assembled exactly as the crate does.
fn logistic_program(params: LogisticMapParams, first: u32) -> Result<Program, String> {
    let source = logistic_map::source(&params);
    let from = "movi r1, 0              ; i, the seed index".to_string();
    let to = format!("movi r1, {first} ; i, the seed index");
    let bound_from = format!("movi r2, {}        ; outer bound", params.seeds);
    let bound_to = format!("movi r2, {} ; outer bound", first + params.seeds);
    let source = replace_once(&source, &from, &to)?;
    let source = replace_once(&source, &bound_from, &bound_to)?;
    Assembler::new().headroom(4 * 1024).assemble(&source).map_err(|e| e.to_string())
}

fn replace_once(source: &str, from: &str, to: &str) -> Result<String, String> {
    match source.matches(from).count() {
        1 => Ok(source.replacen(from, to, 1)),
        n => Err(format!("logistic source has {n} copies of `{from}`, expected 1")),
    }
}

/// The crate's reference over `first .. first + seeds`: each seed's orbit
/// depends only on its index, so the checksum over the window is the
/// difference of two prefix checksums.
fn logistic_reference(params: LogisticMapParams, first: u32) -> LogisticMapResult {
    let prefix = |seeds| logistic_map::reference(&LogisticMapParams { seeds, ..params });
    let (upto_end, upto_first) = (prefix(first + params.seeds), prefix(first));
    LogisticMapResult {
        checksum: upto_end.checksum.wrapping_sub(upto_first.checksum),
        last_x: upto_end.last_x,
    }
}

/// Plain sequential execution of a workload: what every accelerated call
/// must reproduce bit for bit.
#[derive(Debug)]
pub struct Oracle {
    /// Instructions retired to halt.
    pub instructions: u64,
    /// The final state.
    pub final_state: StateVector,
}

impl Oracle {
    /// Runs the program to halt with `Machine::run_to_halt` and checks the
    /// result against the reference.
    ///
    /// # Errors
    /// Returns a message when the program faults, overruns the budget or
    /// halts with a wrong result.
    pub fn run(workload: &Workload) -> Result<Oracle, String> {
        let mut machine = Machine::load(&workload.program).map_err(|e| e.to_string())?;
        let instructions = machine.run_to_halt(ORACLE_BUDGET).map_err(|e| e.to_string())?;
        let final_state = machine.into_state();
        if !workload.verify(&final_state) {
            return Err(format!(
                "{}: the sequential oracle disagrees with the reference",
                workload.kind.name()
            ));
        }
        Ok(Oracle { instructions, final_state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_draw_disjoint_input_seeds() {
        let a: Vec<u64> = input_seeds(3).collect();
        let b: Vec<u64> = input_seeds(4).collect();
        assert_eq!(a.len() as u64, INPUTS_PER_RUN);
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn inputs_depend_on_the_seed_but_not_the_size_of_work() {
        for kind in Kind::ALL {
            let a = Inputs::generate(kind, 1, Size::Full);
            let b = Inputs::generate(kind, 2, Size::Full);
            assert_ne!(a, b, "{}", kind.name());
            assert_eq!(a, Inputs::generate(kind, 1, Size::Full));
            match (a, b) {
                (Inputs::Collatz(a), Inputs::Collatz(b)) => assert_eq!(a.count, b.count),
                (Inputs::Logistic { params: a, .. }, Inputs::Logistic { params: b, .. }) => {
                    assert_eq!(a, b)
                }
                _ => unreachable!("one kind, one input shape"),
            }
        }
    }

    #[test]
    fn every_workload_oracle_verifies_at_reduced_size() {
        for kind in Kind::ALL {
            for seed in [0, 7] {
                let workload = Workload::build(kind, seed, Size::Reduced).unwrap();
                let oracle = Oracle::run(&workload).unwrap();
                assert!(oracle.instructions > 0);
                let fresh = workload.program.initial_state().unwrap();
                assert!(!workload.verify(&fresh), "{}: an unrun state verified", kind.name());
            }
        }
    }

    #[test]
    fn logistic_window_reference_matches_index_zero() {
        let params = LogisticMapParams { seeds: 50, steps: 5 };
        assert_eq!(logistic_reference(params, 0), logistic_map::reference(&params));
    }
}
