//! The `offline` workload: exact solves, an exact α-sweep and the zoo's
//! regret panel, in process on one thread, with no server.
//!
//! A pass runs the jobs below once, in order; the run repeats passes while
//! the time allows (at least one). The end-to-end metrics treat each job as
//! one operation: `latency_ms` is the slowest job's wall time, the unbounded
//! `p50_ms`, `p90_ms`, `p95_ms`, `p99_ms` and `mean_ms` summarise all job
//! times, and `capacity_rps` is the geometric mean of the four job groups'
//! rates (one over each group's wall time).

use std::io;
use std::sync::Arc;
use std::time::Instant;

use privmech_bench::bench_consumer;
use privmech_core::loss::{AbsoluteError, ZeroOneError};
use privmech_core::{
    MinimaxConsumer, PivotStats, PrivacyEngine, PrivacyLevel, SideInformation, SolveRequest,
    SolveStrategy, ValidatedRequest,
};
use privmech_linalg::Scalar;
use privmech_numerics::{rat, Rational};
use privmech_serve::json;
use privmech_serve::proto::{ConsumerSpec, LossSpec, WireError};
use privmech_serve::zoo::ZooRequest;
use privmech_zoo::{regret_table, QueryClass, RegretTable};

use crate::procs;
use crate::replay::max_den_bits;
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;

/// The zoo panel: query classes at α = 1/2, by metric label.
const ZOO_CLASSES: &[(&str, QueryClass)] = &[
    ("count", QueryClass::Count { n: 3 }),
    (
        "sum2x2",
        QueryClass::Sum {
            rows: 2,
            per_row: 2,
        },
    ),
    (
        "sum2x3",
        QueryClass::Sum {
            rows: 2,
            per_row: 3,
        },
    ),
    ("median", QueryClass::Median { rows: 3, domain: 3 }),
];

/// Two `zoo_table` requests from the zoo population with seed 10 that the
/// f64 backend fails on (`invalid_mechanism`, and an unbounded LP). Known
/// defects: the traced run runs them once and counts them, with the f64
/// `solve` below, in `offline.known_defects`.
const ZOO_DEFECTS: &[&str] = &[
    r#"{"scalar":"f64","op":"zoo_table","query":{"kind":"sum","rows":2,"per_row":3},"alpha":0.5,"consumers":[{"loss":{"kind":"tolerance","width":4}},{"loss":{"kind":"tolerance","width":1}}]}"#,
    r#"{"scalar":"f64","op":"zoo_table","query":{"kind":"sum","rows":2,"per_row":3},"alpha":0.125,"consumers":[{"loss":"squared"},{"loss":"squared"},{"loss":{"kind":"tolerance","width":4}}]}"#,
];

/// Set-ups per set-up sample. One sample is taken before the first pass and
/// one before every job, and `setup_s` is their median: spread over the
/// whole run, the samples see the same machine as the jobs do, where a
/// block of samples at the start would see only its first moments.
const SETUP_BATCH: usize = 200;

/// The zoo's standard three-consumer panel over `{0, …, bound}`.
fn panel<T: Scalar>(bound: usize) -> Vec<MinimaxConsumer<T>> {
    let full = SideInformation::full(bound);
    let ends = SideInformation::new(bound, [0, bound]).expect("endpoints are in range");
    vec![
        MinimaxConsumer::new("abs", Arc::new(AbsoluteError), full.clone()).expect("monotone"),
        MinimaxConsumer::new("zero-one", Arc::new(ZeroOneError), full).expect("monotone"),
        MinimaxConsumer::new("abs-ends", Arc::new(AbsoluteError), ends).expect("monotone"),
    ]
}

fn direct_request(n: usize, alpha: Rational) -> ValidatedRequest<Rational> {
    ValidatedRequest::minimax(
        PrivacyLevel::new(alpha).expect("α in (0, 1)"),
        bench_consumer::<Rational>(n),
    )
    .with_strategy(SolveStrategy::DirectLp)
}

/// The inputs of every job, built during set-up.
struct Inputs {
    n12: ValidatedRequest<Rational>,
    n14: ValidatedRequest<Rational>,
    sweep: ValidatedRequest<Rational>,
    sweep_levels: Vec<PrivacyLevel<Rational>>,
    zoo_rational: Vec<(QueryClass, Vec<MinimaxConsumer<Rational>>)>,
    zoo_f64: Vec<(QueryClass, Vec<MinimaxConsumer<f64>>)>,
}

/// Set-up: build every job's inputs.
fn set_up() -> Inputs {
    Inputs {
        n12: direct_request(12, rat(1, 4)),
        n14: direct_request(14, rat(1, 4)),
        sweep: direct_request(8, rat(1, 9)),
        sweep_levels: (1..=8)
            .map(|k| PrivacyLevel::new(rat(k, 9)).expect("α in (0, 1)"))
            .collect(),
        zoo_rational: ZOO_CLASSES
            .iter()
            .map(|(_, class)| (class.clone(), panel(class.result_bound())))
            .collect(),
        zoo_f64: ZOO_CLASSES
            .iter()
            .map(|(_, class)| (class.clone(), panel(class.result_bound())))
            .collect(),
    }
}

/// The anchors the passes are checked against, solved once outside the
/// timed work: Table 1(a)'s loss is 168/415, and the n = 12 loss by the
/// Theorem 1 factorization route, which the passes' DirectLp loss must
/// equal. Returns the latter.
fn anchors(outcome: &mut Outcome) -> Option<Rational> {
    let engine = PrivacyEngine::with_threads(1);
    let table1 = SolveRequest::<Rational>::minimax()
        .name("table 1")
        .loss(Arc::new(AbsoluteError))
        .support(3, 0..=3)
        .privacy_level(rat(1, 4))
        .strategy(SolveStrategy::DirectLp)
        .validate()
        .expect("Table 1 request is valid");
    match engine.solve(&table1) {
        Ok(solve) if solve.loss == rat(168, 415) => {}
        Ok(solve) => outcome.mismatch(format!(
            "Table 1(a) loss is {}, expected 168/415",
            solve.loss
        )),
        Err(e) => outcome.mismatch(format!("Table 1(a) solve failed: {e}")),
    }
    let factorization =
        direct_request(12, rat(1, 4)).with_strategy(SolveStrategy::GeometricFactorization);
    match engine.solve(&factorization) {
        Ok(solve) => Some(solve.loss),
        Err(e) => {
            outcome.mismatch(format!("n = 12 factorization solve failed: {e}"));
            None
        }
    }
}

/// One set-up sample: the mean time of [`SETUP_BATCH`] back-to-back
/// set-ups, so a sample spans many scheduler ticks rather than a fraction of
/// one. Returns the last inputs built.
fn set_up_sample(samples: &mut Vec<f64>) -> Inputs {
    let started = Instant::now();
    let mut inputs = set_up();
    for _ in 1..SETUP_BATCH {
        inputs = std::hint::black_box(set_up());
    }
    samples.push(started.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    inputs
}

/// One pass's per-job wall times and what the gates need from it.
struct Pass {
    /// `(job label, seconds)` in run order.
    jobs: Vec<(String, f64)>,
    n12_loss: Option<Rational>,
    count_table: Option<RegretTable<Rational>>,
    pivots: PivotStats,
    engine_ns: u64,
    max_den_bits: u64,
    failed: usize,
}

fn timed<R>(
    tracer: &mut Tracer,
    job: u64,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (R, f64) {
    let started = Instant::now();
    let out = tracer.span("offline.job", job, |t| t.span(name, job, f));
    (out, started.elapsed().as_secs_f64())
}

/// Jobs shorter than this are repeated, and their time is the median.
const SHORT_JOB_S: f64 = 0.1;
const SHORT_JOB_REPEATS: usize = 9;

/// Run one zoo table; if it is short, run it [`SHORT_JOB_REPEATS`] times and
/// report the median time, so one scheduling stall cannot move it.
fn repeat_short<R>(tracer: &mut Tracer, job: &mut u64, mut f: impl FnMut() -> R) -> (R, f64) {
    let (first, secs) = timed(tracer, *job, "zoo.regret_table", |_| f());
    *job += 1;
    if secs >= SHORT_JOB_S {
        return (first, secs);
    }
    let mut times = vec![secs];
    for _ in 1..SHORT_JOB_REPEATS {
        times.push(timed(tracer, *job, "zoo.regret_table", |_| f()).1);
        *job += 1;
    }
    (first, median(&times))
}

fn run_pass(
    inputs: &Inputs,
    tracer: &mut Tracer,
    job: &mut u64,
    failures: &mut Vec<String>,
    setups: &mut Vec<f64>,
) -> Pass {
    let engine = PrivacyEngine::with_threads(1);
    let mut pass = Pass {
        jobs: Vec::new(),
        n12_loss: None,
        count_table: None,
        pivots: PivotStats::default(),
        engine_ns: 0,
        max_den_bits: 0,
        failed: 0,
    };
    for (label, request) in [("solve.n12", &inputs.n12), ("solve.n14", &inputs.n14)] {
        std::hint::black_box(set_up_sample(setups));
        let (result, secs) = timed(tracer, *job, "core.engine.solve", |_| engine.solve(request));
        *job += 1;
        pass.jobs.push((label.to_string(), secs));
        match result {
            Ok(solve) => {
                pass.pivots += &solve.stats;
                pass.engine_ns += (secs * 1e9) as u64;
                pass.max_den_bits = pass
                    .max_den_bits
                    .max(max_den_bits(solve.mechanism.matrix()));
                if label == "solve.n12" {
                    pass.n12_loss = Some(solve.loss);
                }
            }
            Err(e) => {
                pass.failed += 1;
                failures.push(format!("{label}: {e}"));
            }
        }
    }
    std::hint::black_box(set_up_sample(setups));
    let (result, secs) = timed(tracer, *job, "core.engine.sweep", |_| {
        engine.sweep(&inputs.sweep_levels, &inputs.sweep)
    });
    *job += 1;
    pass.jobs.push(("sweep.n8".to_string(), secs));
    match result {
        Ok(solves) => {
            pass.engine_ns += (secs * 1e9) as u64;
            for solve in &solves {
                pass.pivots += &solve.stats;
                pass.max_den_bits = pass
                    .max_den_bits
                    .max(max_den_bits(solve.mechanism.matrix()));
            }
        }
        Err(e) => {
            pass.failed += 1;
            failures.push(format!("sweep.n8: {e}"));
        }
    }
    let half_rational = PrivacyLevel::new(rat(1, 2)).expect("α in (0, 1)");
    for ((label, _), (class, consumers)) in ZOO_CLASSES.iter().zip(&inputs.zoo_rational) {
        std::hint::black_box(set_up_sample(setups));
        let (result, secs) = repeat_short(tracer, job, || {
            regret_table(class, &half_rational, consumers)
        });
        pass.jobs.push((format!("zoo.{label}.rational"), secs));
        match result {
            Ok(table) if *label == "count" => pass.count_table = Some(table),
            Ok(_) => {}
            Err(e) => {
                pass.failed += 1;
                failures.push(format!("zoo.{label}.rational: {e}"));
            }
        }
    }
    let half_f64 = PrivacyLevel::new(0.5f64).expect("α in (0, 1)");
    for ((label, _), (class, consumers)) in ZOO_CLASSES.iter().zip(&inputs.zoo_f64) {
        std::hint::black_box(set_up_sample(setups));
        let (result, secs) =
            repeat_short(tracer, job, || regret_table(class, &half_f64, consumers));
        pass.jobs.push((format!("zoo.{label}.f64"), secs));
        if let Err(e) = result {
            pass.failed += 1;
            failures.push(format!("zoo.{label}.f64: {e}"));
        }
    }
    pass
}

/// The known f64 defects, each run once: returns how many failed, logging
/// every failure with its error code and request.
fn known_defects() -> usize {
    let mut failed = 0;
    let solve_body = ConsumerSpec::<f64>::minimax(10, LossSpec::Squared).encode_onto(
        json::Json::obj()
            .with("op", json::Json::str("solve"))
            .with("scalar", json::Json::str("f64")),
    );
    let solve = ConsumerSpec::<f64>::minimax(10, LossSpec::Squared)
        .to_request(5.0 / 7.0)
        .and_then(|request| {
            PrivacyEngine::with_threads(1)
                .solve(&request)
                .map(|_| ())
                .map_err(WireError::from)
        });
    let alpha = json::to_string(&json::Json::num_f64(5.0 / 7.0).expect("finite"));
    if let Err(e) = solve {
        failed += 1;
        eprintln!(
            "[offline] known defect, failed with {}: {} (alpha {alpha})",
            e.code,
            json::to_string(&solve_body)
        );
    }
    for body in ZOO_DEFECTS {
        let parsed = json::parse(body).expect("defect bodies are JSON");
        let result = ZooRequest::<f64>::from_wire("zoo_table", &parsed)
            .and_then(|request| request.validate())
            .and_then(|validated| validated.evaluate());
        if let Err(e) = result {
            failed += 1;
            eprintln!("[offline] known defect, failed with {}: {body}", e.code);
        }
    }
    failed
}

/// Run the `offline` workload for about `seconds`.
pub fn run(seconds: f64, traced: bool) -> io::Result<Outcome> {
    let mut outcome = Outcome::new("offline");
    let mut setups = Vec::new();
    let inputs = set_up_sample(&mut setups);

    let mut tracer = Tracer::new(traced);
    let mut failures = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let mut job = 1;
    loop {
        let pass = run_pass(&inputs, &mut tracer, &mut job, &mut failures, &mut setups);
        let pass_s: f64 = pass.jobs.iter().map(|(_, s)| s).sum();
        passes.push(pass);
        if started.elapsed().as_secs_f64() + pass_s > seconds {
            break;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    outcome.setup_s = median(&setups);
    outcome.env.insert("setup_samples", setups.len() as f64);

    // Gates.
    let n12_factorization_loss = anchors(&mut outcome);
    for pass in &passes {
        match (&pass.n12_loss, &n12_factorization_loss) {
            (Some(loss), Some(reference)) if loss != reference => outcome.mismatch(format!(
                "n = 12: DirectLp loss {loss} differs from the factorization loss {reference} (Theorem 1)"
            )),
            _ => {}
        }
        if let Some(table) = &pass.count_table {
            let geometric = table
                .candidate_names
                .iter()
                .position(|name| name == "geometric");
            match geometric {
                Some(row) if table.regrets[row].iter().all(Rational::is_zero) => {}
                _ => outcome
                    .mismatch("count regret table: the geometric row is not all zero".to_string()),
            }
        }
    }

    let job_median = |prefix: &str| {
        let values: Vec<f64> = passes
            .iter()
            .map(|p| {
                p.jobs
                    .iter()
                    .filter(|(label, _)| label.starts_with(prefix))
                    .map(|(_, s)| s)
                    .sum()
            })
            .collect();
        median(&values)
    };

    // End-to-end metrics over the jobs, each job's time the median over
    // passes, so the number of passes the time allowed cannot change which
    // job a percentile lands on.
    let job_ms = sorted(
        &passes[0]
            .jobs
            .iter()
            .map(|(label, _)| job_median(label) * 1e3)
            .collect::<Vec<_>>(),
    );
    let ran = passes.iter().map(|p| p.jobs.len()).sum::<usize>();
    let pass_s: f64 = passes
        .iter()
        .flat_map(|p| p.jobs.iter().map(|(_, s)| s))
        .sum();
    outcome.attempted = ran;
    outcome.failed = passes.iter().map(|p| p.failed).sum();
    for (name, p) in [
        ("p50_ms", 0.50),
        ("p90_ms", 0.90),
        ("p95_ms", 0.95),
        ("p99_ms", 0.99),
    ] {
        outcome.metric(name, percentile(&job_ms, p));
        outcome.samples.insert(name, job_ms.len());
    }
    outcome.metric("mean_ms", job_ms.iter().sum::<f64>() / job_ms.len() as f64);
    outcome.samples.insert("mean_ms", job_ms.len());
    // The headline latency is the slowest job: today the n = 14 solve.
    outcome.metric("latency_ms", job_ms[job_ms.len() - 1]);
    outcome.samples.insert("latency_ms", job_ms.len());
    outcome.env.insert("jobs_per_pass_s", ran as f64 / pass_s);

    outcome.peak_rss_mb = procs::peak_rss_mb("self")?;
    outcome.env.insert("passes", passes.len() as f64);
    outcome.env.insert("wall_s", wall);

    let solve_n12 = job_median("solve.n12");
    let solve_n14 = job_median("solve.n14");
    let sweep = job_median("sweep.n8");
    let zoo = job_median("zoo.");
    // Jobs differ in cost by four orders of magnitude, so a plain jobs per
    // second of pass time would be the n = 14 solve's rate alone. The four
    // job groups (n = 12, n = 14, the sweep, the zoo panel) each take a
    // second or more; the geometric mean of their rates weighs them alike,
    // so a group twice as slow lowers it by the same share whichever it is.
    let groups = [solve_n12, solve_n14, sweep, zoo];
    let log_rate = groups.iter().map(|s| -s.ln()).sum::<f64>() / groups.len() as f64;
    outcome.metric("capacity_rps", log_rate.exp());
    outcome.samples.insert("capacity_rps", groups.len());
    outcome.extra.insert("solve_s.n12", (solve_n12, "s"));
    outcome.extra.insert("solve_s.n14", (solve_n14, "s"));
    outcome.extra.insert("sweep_s", (sweep, "s"));
    outcome.extra.insert("zoo_s", (zoo, "s"));
    outcome.layer("offline.solve_s.n12", solve_n12);
    outcome.layer("offline.solve_s.n14", solve_n14);
    outcome.layer("offline.sweep_s", sweep);
    outcome.layer("offline.zoo_s", zoo);

    if traced {
        // The known defects cost ~15 s of f64 pivoting before they fail, so
        // they run in the traced run only.
        let defects = known_defects();
        outcome
            .extra
            .insert("known_defects", (defects as f64, "count"));
        outcome.layer("offline.known_defects", defects as f64);
        let first = &passes[0];
        outcome.pivots(&first.pivots, first.engine_ns);
        outcome.layer("numerics.max_den_bits", first.max_den_bits as f64);
        for ((label, _), scalar) in ZOO_CLASSES
            .iter()
            .flat_map(|c| [(c, "rational"), (c, "f64")])
        {
            let ms = job_median(&format!("zoo.{label}.{scalar}")) * 1e3;
            outcome.layer(&format!("zoo.regret_ms.{label}.{scalar}"), ms);
        }
        let solves: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.jobs
                    .iter()
                    .filter(|(l, _)| l.starts_with("solve."))
                    .map(|(_, s)| s * 1e3)
            })
            .collect();
        outcome.layer(
            "core.engine.solve_ms.rational",
            solves.iter().sum::<f64>() / solves.len() as f64,
        );
        outcome.layer("core.engine.sweep_ms.rational", sweep * 1e3);
        outcome.self_times(&tracer.totals());
        outcome.layer("trace.overhead_pct", tracing_overhead(&inputs));
        outcome.tracer = Some(tracer);
    }
    for line in &failures {
        eprintln!("[offline] failed job: {line}");
    }
    outcome.failures = failures;
    Ok(outcome)
}

/// The smallest exact job (the count regret table), untraced then traced, 15
/// times: the median relative difference, in percent.
fn tracing_overhead(inputs: &Inputs) -> f64 {
    let level = PrivacyLevel::new(rat(1, 2)).expect("α in (0, 1)");
    let (class, consumers) = &inputs.zoo_rational[0];
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    // Alternate the two so drift in machine speed hits both sides.
    let pairs: Vec<f64> = (0..15)
        .map(|job| {
            let time = |tracer: &mut Tracer| {
                timed(tracer, job, "zoo.regret_table", |_| {
                    regret_table(class, &level, consumers)
                })
                .1
            };
            let off = time(&mut untraced);
            let on = time(&mut traced);
            (on - off) / off * 100.0
        })
        .collect();
    median(&pairs)
}
