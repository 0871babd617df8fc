//! `ascbench` — the repository benchmark: verified `LascRuntime::accelerate`
//! calls on three workloads, with a separate traced per-layer run.
//!
//! ```text
//! ascbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of `BENCHMARK.json`,
//! with `--trace 1` the per-layer metrics; the last line of standard output
//! is always one JSON object
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed call makes the exit code 1. See `README.md` beside this
//! package for the workloads and metrics.

mod layers;
mod measure;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Size};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} `{value}`: expected {what}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(tally: measure::Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Where the traced run writes its spans.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces").join(format!(
        "{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ))
}

fn run(args: &Args, entered: Instant) -> Result<(measure::Tally, Vec<layers::Metric>), String> {
    let inputs: Vec<String> = workload::input_seeds(args.seed)
        .map(|s| workload::Inputs::generate(args.kind, s, Size::Full).to_string())
        .collect();
    eprintln!("ascbench: {} — {}", args.kind.name(), inputs.join("; "));
    if !args.trace {
        let e2e = measure::run(
            args.kind,
            args.seed,
            Size::Full,
            args.seconds,
            measure::MIN_CALLS,
            entered,
        )?;
        println!(
            "{}: {} timed calls, wall p50 {:.1} ms, tail p{:.1} {:.1} ms, cpu {:.1} ms/call, \
             failed_frac {}",
            args.kind.name(),
            e2e.calls,
            e2e.wall_ms_p50,
            e2e.tail_percentile,
            e2e.wall_ms_tail,
            e2e.cpu_ms_per_call,
            e2e.failed_frac()
        );
        return Ok((e2e.tally, e2e.metrics()));
    }
    let mut tracer = trace::Tracer::new();
    let (metrics, tally) =
        layers::run(args.kind, args.seed, Size::Full, args.seconds, 5, &mut tracer)?;
    tracer.check_well_formed()?;
    println!("{:<34} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (name, row) in tracer.self_times() {
        println!(
            "{name:<34} {:>8} {:>12.3} {:>12.3}",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    let path = trace_path(args);
    tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let entered = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("ascbench: {why}");
            eprintln!(
                "usage: ascbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args, entered) {
        Ok((tally, metrics)) => {
            println!("{}", result_line(tally, &metrics));
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("ascbench: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names of one section of `BENCHMARK.json`, read with a
    /// plain scan: every `"name": "..."` between the section's key and the
    /// next `]`.
    fn benchmark_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    /// The metric names of a result line, in printed order: the quoted
    /// key before each `: {"value"`.
    fn printed_names(line: &str) -> Vec<String> {
        let heads: Vec<&str> = line.split(": {\"value\"").collect();
        heads[..heads.len() - 1]
            .iter()
            .map(|head| head.rsplit('"').nth(1).expect("quoted key").to_string())
            .collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let argv: Vec<String> = "--workload logistic-chaotic --seed 9 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args, Args { kind: Kind::LogisticChaotic, seed: 9, seconds: 10.0, trace: true });
        assert!(parse_args(&argv[..6]).is_err());
        let mut bad = argv.clone();
        bad[1] = "nope".into();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(benchmark_names("workloads"), names);
    }

    #[test]
    fn printed_end_to_end_names_match_benchmark_json() {
        let e2e =
            measure::run(Kind::CollatzInline, 1, Size::Reduced, 0.0, 2, Instant::now()).unwrap();
        let line = result_line(e2e.tally, &e2e.metrics());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert_eq!(printed_names(&line), benchmark_names("end_to_end"));
    }

    #[test]
    fn traced_run_names_and_span_tree_are_well_formed() {
        for kind in Kind::ALL {
            let mut tracer = trace::Tracer::new();
            let (metrics, tally) =
                layers::run(kind, 2, Size::Reduced, 0.0, 1, &mut tracer).unwrap();
            assert_eq!(tally.failed, 0, "{}", kind.name());
            tracer.check_well_formed().unwrap();
            let line = result_line(tally, &metrics);
            assert_eq!(printed_names(&line), benchmark_names("per_layer"), "{}", kind.name());
            for (name, value, _) in &metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", kind.name());
            }
        }
    }
}
