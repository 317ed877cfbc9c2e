//! `perfbench`: the privmech benchmark.
//!
//! ```text
//! perfbench --workload hot|tail|offline --seed N --seconds S --trace 0|1
//!           --bin-dir DIR
//! ```
//!
//! `--bin-dir` holds the `privmech-serve` and `privmech-router` binaries
//! (`run.sh` builds them and passes it). `BENCHMARK.json` declares `hot` and
//! `offline`; `tail` runs on its own too, and `hot`'s traced run includes it.
//!
//! The run prints a full report line and then, as the last line of standard
//! output, the summary line that benchmark runners read (see
//! `BENCHMARK.json`). Progress, failed requests and gate mismatches go to
//! standard error. A traced run also writes its spans as JSON Lines under
//! `.bench_trace/`. The exit code is 0 for a correct, valid run, 1 for a
//! correctness-gate mismatch, 2 for bad arguments or an I/O failure, and 3
//! when the load generator fell too far behind in every measurement made.
//! `METHODOLOGY.md` describes the workloads and metrics.

#![forbid(unsafe_code)]

mod frames;
mod offline;
mod procs;
mod replay;
mod report;
mod serving;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, Validity};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut bin_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::RUNNABLE.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            report::RUNNABLE
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

/// Conditions of the run, recorded with every result.
fn environment() -> BTreeMap<&'static str, String> {
    let mut env = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    env.insert("nproc", nproc.to_string());
    env.insert(
        "git_rev",
        procs::command_line("git", &["rev-parse", "HEAD"]),
    );
    env.insert("rustc", procs::command_line("rustc", &["-V"]));
    env.insert("loadavg_start", format!("{:.2}", procs::load_average()));
    env.insert("cpu_calibration_ms", format!("{:.3}", cpu_calibration_ms()));
    // One connection, driven by a sender and a receiver thread.
    env.insert("generator_threads", "2".to_string());
    env
}

/// Wall time of a fixed integer loop, median of five: read next to the
/// metrics, it tells a slower machine from a slower program.
fn cpu_calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let started = std::time::Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..5_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    match args.workload.as_str() {
        "hot" => {
            let mut outcome = serving::run(
                &serving::hot(),
                &args.bin_dir,
                args.seed,
                args.seconds,
                args.traced,
            )?;
            if args.traced {
                // `tail` is not a declared workload, so `hot`'s traced run
                // carries its fleet's per-layer numbers.
                let mut tail = serving::run(
                    &serving::tail(),
                    &args.bin_dir,
                    args.seed,
                    args.seconds,
                    true,
                )?;
                if let Some(tracer) = tail.tracer.take() {
                    write_trace("tail", args.seed, &tracer)?;
                }
                outcome.absorb_tail(tail);
            }
            Ok(outcome)
        }
        "tail" => serving::run(
            &serving::tail(),
            &args.bin_dir,
            args.seed,
            args.seconds,
            args.traced,
        ),
        _ => offline::run(args.seconds, args.traced),
    }
}

/// Write a traced run's spans to `.bench_trace/<workload>-seed<N>.jsonl`.
fn write_trace(workload: &str, seed: u64, tracer: &trace::Tracer) -> std::io::Result<()> {
    let path = PathBuf::from(format!(".bench_trace/{workload}-seed{seed}.jsonl"));
    tracer.write_jsonl(&path).map_err(|e| {
        std::io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
    })?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !report::WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: {} is not declared in BENCHMARK.json; its numbers carry no bound",
            args.workload
        );
    }
    let env = environment();
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let Some(tracer) = &outcome.tracer {
        if let Err(e) = write_trace(&args.workload, args.seed, tracer) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if let Validity::Invalid(reason) = &outcome.validity {
        eprintln!("perfbench: run invalid, not reported: {reason}");
        return ExitCode::from(3);
    }
    println!("{}", outcome.report_line(args.seed, args.traced, &env));
    println!("{}", outcome.summary_line(args.traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} correctness-gate mismatches",
            outcome.mismatches.len()
        );
        ExitCode::from(1)
    }
}
