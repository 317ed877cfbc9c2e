//! The serving workloads, `hot` and `tail`: real `privmech-serve` processes
//! (behind `privmech-router` when there is more than one), driven over one
//! connection by the load generator in [`crate::wire`].
//!
//! A run has set-up, then two measured phases: a fixed-rate open loop, whose
//! latencies give `latency_ms` (the workload's headline percentile) and the
//! unbounded `p50_ms`, `p90_ms`, `p95_ms`, `p99_ms` and `mean_ms`, and a
//! flood, whose completions per second give `capacity_rps`. The traced run
//! repeats the same phases and adds the per-layer numbers: server snapshots,
//! client spans, and the in-process replay of the fixed-rate arrival
//! sequence.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use privmech_load::{Population, WorkloadConfig, WorkloadKind};
use privmech_serve::json::Json;
use privmech_serve::proto::routing_key;
use privmech_serve::ShardRing;

use crate::procs::{self, Proc};
use crate::replay::Replay;
use crate::report::{Outcome, Validity};
use crate::stats::{median, percentile, relative_spread, sorted};
use crate::trace::Tracer;
use crate::wire::{run_phase, Disposition, FrameSet, Pace, PhaseOutcome, Record, Served};

/// One serving workload's shape.
pub struct Serving {
    /// Workload name.
    pub name: &'static str,
    /// The request population (fixed: the seed argument draws arrivals).
    pub population: WorkloadConfig,
    /// Server processes; more than one puts `privmech-router` in front.
    pub shards: usize,
    /// Request every template once during set-up, so the cache is warm.
    pub warm: bool,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// Most arrivals the traced run replays in process.
    pub replay_cap: usize,
    /// Requests the flood keeps in flight.
    pub window: u64,
    /// The fixed-rate latency percentile reported as `latency_ms`.
    pub headline: f64,
    /// End the traced run with an eviction pass (see [`eviction_pass`]).
    pub eviction_pass: bool,
}

/// `hot`: one server, a small warm population, every measured request a hit.
#[must_use]
pub fn hot() -> Serving {
    Serving {
        name: "hot",
        population: WorkloadConfig {
            seed: 10,
            kind: WorkloadKind::Compute,
            templates: 96,
            zipf_exponent: 1.1,
            max_n: 6,
            solve_weight: 6,
            sweep_weight: 3,
            interact_weight: 1,
        },
        shards: 1,
        warm: true,
        rate: 8000.0,
        replay_cap: 16_384,
        window: 1024,
        headline: 0.50,
        eviction_pass: false,
    }
}

/// `tail`: a two-shard fleet, started cold, over a working set larger than
/// one shard's cache.
#[must_use]
pub fn tail() -> Serving {
    Serving {
        name: "tail",
        population: WorkloadConfig {
            seed: 11,
            kind: WorkloadKind::Compute,
            templates: 16_384,
            zipf_exponent: 1.0,
            max_n: 8,
            solve_weight: 6,
            sweep_weight: 3,
            interact_weight: 1,
        },
        shards: 2,
        warm: false,
        rate: 200.0,
        replay_cap: usize::MAX,
        window: 256,
        headline: 0.99,
        eviction_pass: true,
    }
}

/// A population's request frames, rendered once per set-up.
struct Inputs {
    population: Population,
    bodies: Vec<Json>,
    frames: FrameSet,
    bypass_frames: FrameSet,
}

impl Inputs {
    fn new(workload: &Serving) -> Self {
        let population = Population::generate(&workload.population);
        let bodies: Vec<Json> = population
            .templates
            .iter()
            .map(|t| t.body.clone())
            .collect();
        let ops: Vec<&'static str> = population.templates.iter().map(|t| t.op).collect();
        let bypass: Vec<Json> = bodies
            .iter()
            .map(|b| b.clone().with("cache", Json::str("bypass")))
            .collect();
        Inputs {
            frames: FrameSet::new(&bodies, ops.clone()),
            bypass_frames: FrameSet::new(&bypass, ops),
            bodies,
            population,
        }
    }
}

/// Share of the run spent in the fixed-rate phase; the flood takes the rest.
const FIXED_SHARE: f64 = 0.75;

/// Set-ups before the measured phases, and after them: spread over the run,
/// the set-ups see the same machine the phases do.
const SETUP_BEFORE: usize = 6;
const SETUP_AFTER: usize = 5;
/// How long a phase may take to drain after its last send.
const DRAIN: Duration = Duration::from_secs(30);
/// The fixed-rate phase is invalid when its 99th-percentile send lag is
/// larger than this plus half the latency p99: the generator's schedule,
/// not the server, would then shape the latencies it reports.
const MAX_SEND_LAG_P99_MS: f64 = 1.0;
const MAX_SEND_LAG_SHARE: f64 = 0.5;
/// Measurements per run before an invalid one is reported as such.
const MAX_ATTEMPTS: u32 = 3;

/// The processes of one deployment.
struct Deployment {
    servers: Vec<Proc>,
    router: Option<Proc>,
}

impl Deployment {
    fn start(bin_dir: &Path, shards: usize) -> io::Result<Self> {
        let servers = (0..shards)
            .map(|_| Proc::serve(bin_dir))
            .collect::<io::Result<Vec<_>>>()?;
        let router = if shards > 1 {
            let addrs: Vec<&str> = servers.iter().map(Proc::addr).collect();
            Some(Proc::router(bin_dir, &addrs)?)
        } else {
            None
        };
        Ok(Deployment { servers, router })
    }

    /// The front door.
    fn addr(&self) -> &str {
        self.router.as_ref().unwrap_or(&self.servers[0]).addr()
    }

    fn pids(&self) -> Vec<u32> {
        self.servers
            .iter()
            .chain(&self.router)
            .map(Proc::pid)
            .collect()
    }

    fn cpu_seconds(&self, ticks: f64) -> f64 {
        self.pids()
            .iter()
            .map(|&pid| procs::cpu_seconds(pid, ticks).unwrap_or(0.0))
            .sum()
    }

    fn peak_rss_mb(&self) -> f64 {
        self.pids()
            .iter()
            .map(|pid| procs::peak_rss_mb(&pid.to_string()).unwrap_or(0.0))
            .sum()
    }

    /// Stop everything: a shutdown through the router reaches every shard.
    fn shutdown(mut self) -> io::Result<()> {
        match self.router.take() {
            Some(router) => {
                router.shutdown()?;
                for server in self.servers {
                    server.wait()?;
                }
                Ok(())
            }
            None => self.servers.remove(0).shutdown(),
        }
    }
}

/// Run a serving workload.
pub fn run(
    workload: &Serving,
    bin_dir: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> io::Result<Outcome> {
    let mut outcome = Outcome::new(workload.name);
    let mut failures: Vec<String> = Vec::new();

    // Set-up, several times before the measured phases (the last one is
    // kept) and several times after them; `setup_s` is the median of all.
    let mut setups = Vec::new();
    for _ in 1..SETUP_BEFORE {
        set_up(workload, bin_dir, &mut setups)?.1.shutdown()?;
    }
    let (inputs, mut deployment, mut warm_outcome) = set_up(workload, bin_dir, &mut setups)?;
    let Inputs {
        population,
        bodies,
        frames,
        bypass_frames,
    } = inputs;
    let every_template: Vec<usize> = (0..frames.len()).collect();
    let fixed_secs = seconds * FIXED_SHARE;
    let flood_secs = seconds - fixed_secs;
    let fixed_count = ((workload.rate * fixed_secs).round() as usize).max(1);
    let fixed_arrivals = population.sample_indices(seed, fixed_count);
    // The flood cycles through its own draw.
    let flood_arrivals = population.sample_indices(seed ^ 0x9e37_79b9_7f4a_7c15, 1 << 16);

    if let Some(warm) = &warm_outcome {
        outcome.attempted += warm.records.len();
        outcome.failed += warm.failed();
        failures.extend(warm.failures.iter().cloned());
    }

    // The served ≡ bypass gate needs bypass replies of every template; `tail`
    // checks against the in-process replay instead, after the run.
    let bypass = if workload.warm {
        let stream = procs::connect(deployment.addr())?;
        let phase = run_phase(
            &stream,
            &bypass_frames,
            &every_template,
            Pace::Flood {
                until: None,
                window: workload.window,
            },
            1,
            DRAIN,
        )?;
        outcome.attempted += phase.records.len();
        outcome.failed += phase.failed();
        failures.extend(phase.failures.iter().cloned());
        Some(phase.served)
    } else {
        None
    };

    // Measured phases. A measurement whose load generator fell behind its
    // schedule is discarded and made again on a fresh deployment.
    let fixed_ns = (fixed_secs * 1e9) as u64;
    let mut attempt = 1;
    let measured = loop {
        let measured = measure(
            workload,
            &deployment,
            &frames,
            &fixed_arrivals,
            &flood_arrivals,
            flood_secs,
        )?;
        let Some(reason) = generator_lag(&measured.fixed, fixed_ns) else {
            break measured;
        };
        if attempt == MAX_ATTEMPTS {
            outcome.validity = Validity::Invalid(reason);
            break measured;
        }
        eprintln!(
            "[{}] measurement {attempt} discarded, measuring again: {reason}",
            workload.name
        );
        attempt += 1;
        deployment.shutdown()?;
        let (_, fresh, warm) = set_up(workload, bin_dir, &mut setups)?;
        deployment = fresh;
        if let Some(warm) = warm {
            outcome.attempted += warm.records.len();
            outcome.failed += warm.failed();
            failures.extend(warm.failures.iter().cloned());
            warm_outcome = Some(warm);
        }
    };
    outcome.env.insert("attempts", f64::from(attempt));
    let Measured {
        fixed,
        flood,
        cpu_fixed,
        server_metrics,
        stats_before,
        stats_fixed,
        stats_after,
    } = measured;
    let front = deployment.addr().to_string();

    for phase in [&fixed, &flood] {
        outcome.attempted += phase.records.len();
        outcome.failed += phase.failed();
        failures.extend(phase.failures.iter().cloned());
    }
    // Each phase is cut into equal windows by due time (fixed rate) or
    // completion time (flood), and the metrics are medians over the windows,
    // so a stall on this shared machine moves one window, not the run.
    let timed: Vec<(u64, f64)> = fixed
        .records
        .iter()
        .map(|r| (r.due_ns, latency_or_timeout(r)))
        .collect();
    let p99 = windowed_percentile(&timed, fixed_ns, 0.99);
    for (name, p) in [("p50_ms", 0.50), ("p90_ms", 0.90), ("p95_ms", 0.95)] {
        outcome.metric(name, windowed_percentile(&timed, fixed_ns, p));
    }
    outcome.metric(
        "mean_ms",
        timed.iter().map(|&(_, ms)| ms).sum::<f64>() / timed.len() as f64,
    );
    outcome.metric("p99_ms", p99);
    outcome.metric(
        "latency_ms",
        windowed_percentile(&timed, fixed_ns, workload.headline),
    );
    let all = sorted(&timed.iter().map(|&(_, ms)| ms).collect::<Vec<_>>());
    outcome
        .env
        .insert("p99_whole_phase_ms", percentile(&all, 0.99));
    let flood_ns = (flood_secs * 1e9) as u64;
    let completions = windows(
        flood
            .records
            .iter()
            .filter(|r| r.done_ns > 0 && r.done_ns < flood_ns)
            .map(|r| (r.done_ns, 1.0)),
        flood_ns,
        MAX_WINDOWS,
    );
    let window_secs = flood_secs / MAX_WINDOWS as f64;
    let capacity = median(
        &completions
            .iter()
            .map(|w| w.len() as f64 / window_secs)
            .collect::<Vec<_>>(),
    );
    outcome
        .env
        .insert("send_lag_p99_ms", send_lag_p99_ms(&fixed.records));
    outcome
        .env
        .insert("send_lag_max_ms", fixed.max_send_lag_ms());
    outcome.metric("capacity_rps", capacity);
    for name in [
        "latency_ms",
        "p50_ms",
        "p90_ms",
        "p95_ms",
        "p99_ms",
        "mean_ms",
    ] {
        outcome.samples.insert(name, all.len());
    }
    outcome.samples.insert("capacity_rps", flood.records.len());

    // Per-layer numbers measured from outside the processes.
    let hit_count =
        |stats: &Json, key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    let fixed_hits = hit_count(&stats_fixed, "hits") - hit_count(&stats_before, "hits");
    let fixed_misses = hit_count(&stats_fixed, "misses") - hit_count(&stats_before, "misses");
    outcome.layer(
        "serve.cache.hit_ratio",
        ratio(fixed_hits, fixed_hits + fixed_misses),
    );
    let completed = fixed.records.iter().filter(|r| r.done_ns > 0).count();
    outcome.layer(
        "serve.server.cpu_us_per_req",
        ratio(cpu_fixed * 1e6, completed as f64),
    );
    let by_cache = |wanted: Disposition| {
        sorted(
            &fixed
                .records
                .iter()
                .filter(|r| r.succeeded() && r.cache == wanted)
                .map(Record::latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let hits = by_cache(Disposition::Hit);
    let misses = by_cache(Disposition::Miss);
    outcome.layer(
        "serve.server.hit_p99_ms",
        if hits.is_empty() {
            0.0
        } else {
            percentile(&hits, 0.99)
        },
    );
    outcome.layer(
        "serve.server.miss_p50_ms",
        if misses.is_empty() {
            0.0
        } else {
            percentile(&misses, 0.50)
        },
    );
    outcome.layer("load.send_lag_ms", fixed.max_send_lag_ms());
    for op in ["solve", "sweep", "interact"] {
        let hist = server_metrics.get("ops").and_then(|ops| ops.get(op));
        let count = hist
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let total = hist
            .and_then(|h| h.get("total_ns"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let handler_us = ratio(total as f64 / 1e3, count as f64);
        let client: Vec<f64> = fixed
            .records
            .iter()
            .filter(|r| r.succeeded() && frames.op(r.template) == op)
            .map(Record::latency_ms)
            .collect();
        let client_ms = if client.is_empty() {
            0.0
        } else {
            client.iter().sum::<f64>() / client.len() as f64
        };
        outcome.layer(&format!("serve.server.handler_us.{op}"), handler_us);
        outcome.layer(
            &format!("serve.server.queue_ms.{op}"),
            if client.is_empty() {
                0.0
            } else {
                (client_ms - handler_us / 1e3).max(0.0)
            },
        );
    }
    let ring = ShardRing::with_default_vnodes(workload.shards);
    let mut per_shard = vec![0u64; workload.shards];
    for &t in &fixed_arrivals {
        let shard = routing_key(&bodies[t]).map_or(0, |key| ring.shard_for(&key));
        per_shard[shard] += 1;
    }
    let busiest = per_shard.iter().copied().max().unwrap_or(0) as f64;
    outcome.layer(
        "serve.ring.max_share",
        ratio(
            busiest * workload.shards as f64,
            fixed_arrivals.len() as f64,
        ),
    );
    let hop_us = if traced && workload.shards > 1 {
        router_hop_us(&deployment, &frames, &fixed, &bodies, &ring)?
    } else {
        0.0
    };
    outcome.layer("serve.router.hop_us", hop_us);
    outcome.peak_rss_mb = deployment.peak_rss_mb();
    let stats_end = if traced && workload.eviction_pass {
        let pass = eviction_pass(&front, &frames, &bodies, workload.window)?;
        outcome.attempted += pass.records.len();
        outcome.failed += pass.failed();
        failures.extend(pass.failures.iter().cloned());
        procs::call(&front, Json::obj().with("op", Json::str("stats")))?
    } else {
        stats_after
    };
    outcome.layer(
        "serve.cache.evictions",
        hit_count(&stats_end, "evictions") - hit_count(&stats_before, "evictions"),
    );
    deployment.shutdown()?;

    // Correctness gate, on the measured phases' replies first: for `hot`
    // those are cache hits, so the gate checks cached ≡ fresh.
    let served = merge_served(&[Some(&fixed), Some(&flood), warm_outcome.as_ref()]);
    if let Some(bypass) = &bypass {
        for (t, (got, want)) in served.iter().zip(bypass).enumerate() {
            if let (Some(got), Some(want)) = (got, want) {
                if got != want {
                    outcome.mismatch(format!(
                        "template {t}: served result differs from its bypass reply: {}",
                        frames.text(t, 0)
                    ));
                }
            } else if got.is_some() || want.is_some() {
                outcome.mismatch(format!(
                    "template {t}: no reply to compare: {}",
                    frames.text(t, 0)
                ));
            }
        }
    }

    // The replay: the gate for `tail`, and the per-layer costs when traced.
    let needs_replay = traced || bypass.is_none();
    if needs_replay {
        let mut arrivals: Vec<usize> = Vec::new();
        if workload.warm {
            arrivals.extend(&every_template);
        }
        arrivals.extend(fixed_arrivals.iter().take(workload.replay_cap));
        let rendered: Vec<Vec<u8>> = arrivals
            .iter()
            .enumerate()
            .map(|(k, &t)| {
                let mut out = Vec::new();
                frames.push(t, k as u64 + 1, &mut out);
                out
            })
            .collect();
        let mut tracer = Tracer::new(traced);
        let mut replay = Replay::new(workload.shards);
        let started = Instant::now();
        for (k, (&t, frame)) in arrivals.iter().zip(&rendered).enumerate() {
            if let Err(e) = replay.request(&mut tracer, t, k as u64 + 1, frame) {
                outcome.mismatch(format!(
                    "replay failed with {}: {}",
                    e.code,
                    frames.text(t, k as u64 + 1)
                ));
            }
        }
        let replay_s = started.elapsed().as_secs_f64();
        if bypass.is_none() {
            check_against_replay(&mut outcome, &frames, &served, &replay);
        }
        if traced {
            let overhead = warm_replay_overhead(&mut replay, &arrivals, &rendered);
            outcome.layer("trace.overhead_pct", overhead);
            outcome.env.insert("replay_s", replay_s);
            add_client_spans(&mut tracer, &fixed);
            layer_metrics_from_replay(&mut outcome, &tracer, &replay);
            outcome.tracer = Some(tracer);
        }
    }

    for _ in 0..SETUP_AFTER {
        set_up(workload, bin_dir, &mut setups)?.1.shutdown()?;
    }
    outcome.setup_s = median(&setups);
    outcome.env.insert("setup_spread", relative_spread(&setups));

    for line in &failures {
        eprintln!("[{}] failed request: {line}", workload.name);
    }
    outcome.failures = failures;
    Ok(outcome)
}

/// One set-up: generate the population, render its frames, start the
/// deployment, and warm its cache (`hot`) or ping it (`tail`). Its wall time
/// is pushed onto `setups`.
fn set_up(
    workload: &Serving,
    bin_dir: &Path,
    setups: &mut Vec<f64>,
) -> io::Result<(Inputs, Deployment, Option<PhaseOutcome>)> {
    let started = Instant::now();
    let inputs = Inputs::new(workload);
    let deployment = Deployment::start(bin_dir, workload.shards)?;
    let warm = if workload.warm {
        let stream = procs::connect(deployment.addr())?;
        let every: Vec<usize> = (0..inputs.frames.len()).collect();
        let flood = Pace::Flood {
            until: None,
            window: workload.window,
        };
        Some(run_phase(&stream, &inputs.frames, &every, flood, 1, DRAIN)?)
    } else {
        procs::call(deployment.addr(), Json::obj().with("op", Json::str("ping")))?;
        None
    };
    setups.push(started.elapsed().as_secs_f64());
    Ok((inputs, deployment, warm))
}

/// What the measured phases of one deployment gave.
struct Measured {
    fixed: PhaseOutcome,
    flood: PhaseOutcome,
    /// Server and router CPU seconds spent in the fixed-rate phase.
    cpu_fixed: f64,
    /// The server `metrics` op over the fixed-rate phase.
    server_metrics: Json,
    /// The server `stats` op before the phases, after the fixed-rate phase
    /// and after the flood.
    stats_before: Json,
    stats_fixed: Json,
    stats_after: Json,
}

/// The measured phases, on one connection opened before the clock starts:
/// the fixed-rate open loop, then the flood.
fn measure(
    workload: &Serving,
    deployment: &Deployment,
    frames: &FrameSet,
    fixed_arrivals: &[usize],
    flood_arrivals: &[usize],
    flood_secs: f64,
) -> io::Result<Measured> {
    let ticks = procs::clock_ticks();
    let front = deployment.addr();
    procs::call(
        front,
        Json::obj()
            .with("op", Json::str("metrics"))
            .with("reset", Json::Bool(true)),
    )?;
    let stats_before = procs::call(front, Json::obj().with("op", Json::str("stats")))?;
    let cpu_before = deployment.cpu_seconds(ticks);
    let stream = procs::connect(front)?;
    let fixed = run_phase(
        &stream,
        frames,
        fixed_arrivals,
        Pace::Rate(workload.rate),
        1,
        DRAIN,
    )?;
    let cpu_fixed = deployment.cpu_seconds(ticks) - cpu_before;
    let server_metrics = procs::call(
        front,
        Json::obj()
            .with("op", Json::str("metrics"))
            .with("reset", Json::Bool(true)),
    )?;
    let stats_fixed = procs::call(front, Json::obj().with("op", Json::str("stats")))?;
    let flood_first_id = fixed_arrivals.len() as u64 + 1;
    let flood = run_phase(
        &stream,
        frames,
        flood_arrivals,
        Pace::Flood {
            until: Some(Duration::from_secs_f64(flood_secs)),
            window: workload.window,
        },
        flood_first_id,
        DRAIN,
    )?;
    drop(stream);
    let stats_after = procs::call(front, Json::obj().with("op", Json::str("stats")))?;

    Ok(Measured {
        fixed,
        flood,
        cpu_fixed,
        server_metrics,
        stats_before,
        stats_fixed,
        stats_after,
    })
}

/// Why the fixed-rate phase is invalid, if it is: its 99th-percentile send
/// lag exceeds [`MAX_SEND_LAG_P99_MS`] plus [`MAX_SEND_LAG_SHARE`] of its
/// latency p99, so the generator's schedule rather than the server shaped
/// the latencies. Both are windowed as the reported latencies are, so the
/// test asks whether the generator shaped the numbers the run reports.
fn generator_lag(fixed: &PhaseOutcome, fixed_ns: u64) -> Option<String> {
    let latencies: Vec<(u64, f64)> = fixed
        .records
        .iter()
        .map(|r| (r.due_ns, latency_or_timeout(r)))
        .collect();
    let lags: Vec<(u64, f64)> = fixed
        .records
        .iter()
        .map(|r| (r.due_ns, r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6))
        .collect();
    let p99 = windowed_percentile(&latencies, fixed_ns, 0.99);
    let lag_p99 = windowed_percentile(&lags, fixed_ns, 0.99);
    let limit = MAX_SEND_LAG_P99_MS + MAX_SEND_LAG_SHARE * p99;
    (lag_p99 > limit).then(|| {
        format!("the generator ran {lag_p99:.2} ms behind schedule at p99 (limit {limit:.2} ms)")
    })
}

/// Most windows a phase is cut into.
const MAX_WINDOWS: usize = 15;

/// `tail`'s measured phases request about 1,800 distinct templates, fewer
/// than one shard's cache holds, so nothing is evicted there. This pass
/// floods every f64 template of the population once, on a fresh connection:
/// about 8,000 distinct requests, more than the two shards' caches hold
/// together, so each shard's LRU overflows. Only f64 templates, because a
/// rational miss costs about thirty times as much and the pass would take
/// most of a minute.
fn eviction_pass(
    front: &str,
    frames: &FrameSet,
    bodies: &[Json],
    window: u64,
) -> io::Result<PhaseOutcome> {
    let f64_templates: Vec<usize> = (0..frames.len())
        .filter(|&t| bodies[t].get("scalar").and_then(Json::as_str) == Some("f64"))
        .collect();
    let stream = procs::connect(front)?;
    run_phase(
        &stream,
        frames,
        &f64_templates,
        Pace::Flood {
            until: None,
            window,
        },
        1,
        DRAIN,
    )
}

/// The `p` percentile of `(time, value)` samples over `[0, span_ns)`: the
/// median over equal windows, as many (up to [`MAX_WINDOWS`]) as leave at
/// least ten samples beyond the percentile in each.
fn windowed_percentile(samples: &[(u64, f64)], span_ns: u64, p: f64) -> f64 {
    let beyond = samples.len() as f64 * (1.0 - p);
    let count = ((beyond / 10.0) as usize).clamp(1, MAX_WINDOWS);
    let per_window = windows(samples.iter().copied(), span_ns, count);
    median(
        &per_window
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(&sorted(w), p))
            .collect::<Vec<_>>(),
    )
}

/// Split `(time, value)` pairs over `[0, span_ns)` into `count` equal windows
/// (later times go to the last window).
fn windows(samples: impl Iterator<Item = (u64, f64)>, span_ns: u64, count: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); count];
    for (at, value) in samples {
        let k = (u128::from(at) * count as u128 / u128::from(span_ns.max(1))) as usize;
        out[k.min(count - 1)].push(value);
    }
    out
}

/// Latency of a request, or the drain limit for one that never completed.
fn latency_or_timeout(record: &Record) -> f64 {
    if record.done_ns == 0 {
        DRAIN.as_secs_f64() * 1e3
    } else {
        record.latency_ms()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn send_lag_p99_ms(records: &[Record]) -> f64 {
    let lags: Vec<f64> = records
        .iter()
        .map(|r| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6)
        .collect();
    percentile(&sorted(&lags), 0.99)
}

/// The first reply seen for each template, from the first phase (in the
/// order given) that answered it.
fn merge_served(phases: &[Option<&PhaseOutcome>]) -> Vec<Option<Served>> {
    let mut merged: Vec<Option<Served>> = Vec::new();
    for phase in phases.iter().flatten() {
        if merged.is_empty() {
            merged = vec![None; phase.served.len()];
        }
        for (slot, served) in merged.iter_mut().zip(&phase.served) {
            if slot.is_none() {
                slot.clone_from(served);
            }
        }
    }
    merged
}

/// `tail`'s gate: every routed reply's result bytes equal the replay's
/// rendering of the same request.
fn check_against_replay(
    outcome: &mut Outcome,
    frames: &FrameSet,
    served: &[Option<Served>],
    replay: &Replay,
) {
    let mut compared = 0;
    for (&t, rendered) in &replay.rendered {
        let Some(got) = &served[t] else { continue };
        let matches = if frames.op(t) == "sweep" {
            got.items.len() == rendered.len()
                && got.items.iter().zip(rendered).all(|((_, a), b)| a == b)
        } else {
            rendered.len() == 1 && got.terminal == rendered[0]
        };
        compared += 1;
        if !matches {
            outcome.mismatch(format!(
                "template {t}: routed reply differs from the in-process rendering: {}",
                frames.text(t, 0)
            ));
        }
    }
    outcome.env.insert("gate_compared", compared as f64);
    if compared == 0 {
        outcome.mismatch("the replay rendered no request that was also served".to_string());
    }
}

/// The same hit requests, one at a time, through the router and straight to
/// the shard that owns them: the median difference is the router's hop.
fn router_hop_us(
    deployment: &Deployment,
    frames: &FrameSet,
    fixed: &PhaseOutcome,
    bodies: &[Json],
    ring: &ShardRing,
) -> io::Result<f64> {
    let Some(router) = &deployment.router else {
        return Ok(0.0);
    };
    let mut picked: Vec<usize> = Vec::new();
    for record in &fixed.records {
        if record.cache == Disposition::Hit
            && frames.op(record.template) != "sweep"
            && !picked.contains(&record.template)
        {
            picked.push(record.template);
            if picked.len() == 16 {
                break;
            }
        }
    }
    let mut via_router = procs::connect(router.addr())?;
    let mut direct: Vec<_> = deployment
        .servers
        .iter()
        .map(|s| procs::connect(s.addr()))
        .collect::<io::Result<_>>()?;
    let (mut routed, mut straight) = (Vec::new(), Vec::new());
    for round in 0..20u64 {
        for &t in &picked {
            let owner = routing_key(&bodies[t]).map_or(0, |key| ring.shard_for(&key));
            let mut frame = Vec::new();
            frames.push(t, round + 1, &mut frame);
            routed.push(procs::round_trip(&mut via_router, &frame)?.as_secs_f64() * 1e6);
            straight.push(procs::round_trip(&mut direct[owner], &frame)?.as_secs_f64() * 1e6);
        }
    }
    if routed.is_empty() {
        return Ok(0.0);
    }
    Ok(median(&routed) - median(&straight))
}

/// Untraced/traced pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 5;

/// Tracing overhead: the warm replay of the same arrivals, untraced and then
/// traced, as a percentage of the untraced time.
fn warm_replay_overhead(replay: &mut Replay, arrivals: &[usize], rendered: &[Vec<u8>]) -> f64 {
    let mut time = |enabled: bool| {
        let mut tracer = Tracer::new(enabled);
        let started = Instant::now();
        for (k, (&t, frame)) in arrivals.iter().zip(rendered).enumerate() {
            let _ = replay.request(&mut tracer, t, k as u64 + 1, frame);
        }
        started.elapsed().as_secs_f64()
    };
    // Alternate untraced and traced passes so drift in machine speed hits
    // both sides; report the median of the pairs.
    let pairs: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|_| {
            let untraced = time(false);
            let traced = time(true);
            ratio(traced - untraced, untraced) * 100.0
        })
        .collect();
    median(&pairs)
}

/// Client request spans of the fixed-rate phase, due time to terminal frame.
fn add_client_spans(tracer: &mut Tracer, fixed: &PhaseOutcome) {
    let origin = tracer.offset_ns(fixed.start);
    for (k, record) in fixed.records.iter().enumerate() {
        if record.done_ns > 0 {
            tracer.record(
                "load.request",
                origin + record.due_ns,
                origin + record.done_ns,
                k as u64 + 1,
            );
        }
    }
}

/// Per-call costs from the replay's spans, and its engine and LP counts.
fn layer_metrics_from_replay(outcome: &mut Outcome, tracer: &Tracer, replay: &Replay) {
    let totals = tracer.totals();
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.total_ns as f64 / 1e3, t.count as f64))
    };
    for (metric, span) in [
        ("serve.frame.read_us", "serve.frame.read"),
        ("serve.json.parse_us", "serve.json.parse"),
        ("serve.proto.decode_us", "serve.proto.decode"),
        ("core.fingerprint_us", "core.fingerprint"),
        ("serve.proto.split_us", "serve.proto.split"),
        ("serve.cache.get_us", "serve.cache.get"),
        ("serve.cache.insert_us", "serve.cache.insert"),
        ("serve.proto.render_us", "serve.proto.render"),
    ] {
        outcome.layer(metric, mean_us(span));
    }
    outcome.layer(
        "serve.frame.reply_bytes",
        ratio(replay.reply_bytes as f64, replay.requests as f64),
    );
    for op in ["solve", "sweep", "interact"] {
        for scalar in ["rational", "f64"] {
            let (calls, ns) = replay
                .engine
                .get(&format!("{op}.{scalar}"))
                .copied()
                .unwrap_or((0, 0));
            outcome.layer(
                &format!("core.engine.{op}_ms.{scalar}"),
                ratio(ns as f64 / 1e6, calls as f64),
            );
        }
    }
    outcome.pivots(&replay.pivots, replay.engine_ns);
    outcome.layer("numerics.max_den_bits", replay.max_den_bits as f64);
    outcome.self_times(&totals);
    let (hits, misses, evictions) = replay.cache_counts();
    outcome.env.insert("replay_hits", hits as f64);
    outcome.env.insert("replay_misses", misses as f64);
    outcome.env.insert("replay_evictions", evictions as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 15,000 samples over 15 s, 1 ms each, except 200 of 100 ms in one
    /// of the 15 windows, as a single stall would leave them.
    fn stalled() -> Vec<(u64, f64)> {
        (0..15_000u64)
            .map(|k| {
                (
                    k * 1_000_000,
                    if (100..300).contains(&k) { 100.0 } else { 1.0 },
                )
            })
            .collect()
    }

    #[test]
    fn windows_split_by_time() {
        let split = windows(
            [(0, 1.0), (499, 2.0), (500, 3.0), (2000, 4.0)].into_iter(),
            1000,
            2,
        );
        assert_eq!(split, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_percentile() {
        let samples = stalled();
        let pooled = percentile(
            &sorted(&samples.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
            0.99,
        );
        assert_eq!(pooled, 100.0);
        assert_eq!(windowed_percentile(&samples, 15_000_000_000, 0.99), 1.0);
    }

    #[test]
    fn a_generator_late_in_one_window_keeps_the_measurement_valid() {
        let record = |k: u64, lag_ns: u64| Record {
            template: 0,
            due_ns: k * 1_000_000,
            sent_ns: k * 1_000_000 + lag_ns,
            done_ns: k * 1_000_000 + lag_ns + 500_000,
            ok: true,
            cache: Disposition::Hit,
        };
        let phase = |late: std::ops::Range<u64>| PhaseOutcome {
            start: Instant::now(),
            records: (0..15_000)
                .map(|k| record(k, if late.contains(&k) { 20_000_000 } else { 0 }))
                .collect(),
            served: Vec::new(),
            failures: Vec::new(),
        };
        assert_eq!(generator_lag(&phase(100..300), 15_000_000_000), None);
        assert!(generator_lag(&phase(0..15_000), 15_000_000_000).is_some());
    }
}
