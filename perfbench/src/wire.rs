//! The load generator: one connection, a sender thread and a receiver
//! thread, frames rendered before the clock starts.
//!
//! At a fixed rate the sender writes arrival `k` when it is due (`k / rate`
//! seconds after the phase starts) and never waits for replies, so a stalled
//! server builds a queue instead of slowing the load (an open loop). Latency
//! is timed from when a request was due, not from when it was written, so
//! the generator's own lateness cannot hide queueing; that lateness is
//! recorded per request as send lag. In a flood the sender writes as fast as
//! the socket takes bytes, so the server's backpressure sets the pace and
//! completions per second measure capacity.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use privmech_serve::json::{self, Json};

use crate::frames::{classify, FrameDecoder, FrameKind};

/// Request frames for a template set, rendered once: each frame is the
/// envelope head `{"v":2,"id":`, the decimal id, and the template's fields.
/// The send loop only splices the id between two stored byte strings.
#[derive(Debug)]
pub struct FrameSet {
    tails: Vec<Vec<u8>>,
    ops: Vec<&'static str>,
}

const HEAD: &[u8] = b"{\"v\":2,\"id\":";

impl FrameSet {
    /// Render `bodies` (request objects without `v` and `id`), one per
    /// template; `ops` names each template's op.
    #[must_use]
    pub fn new(bodies: &[Json], ops: Vec<&'static str>) -> Self {
        let tails = bodies
            .iter()
            .map(|body| {
                let text = json::to_string(body);
                let fields = text.strip_prefix('{').expect("request bodies are objects");
                let mut tail = Vec::with_capacity(fields.len() + 1);
                if fields != "}" {
                    tail.push(b',');
                }
                tail.extend_from_slice(fields.as_bytes());
                tail
            })
            .collect();
        FrameSet { tails, ops }
    }

    /// Number of templates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tails.len()
    }

    /// The op of template `t`.
    #[must_use]
    pub fn op(&self, t: usize) -> &'static str {
        self.ops[t]
    }

    /// Append template `t`'s frame, tagged `id`, to `out`.
    pub fn push(&self, t: usize, id: u64, out: &mut Vec<u8>) {
        let tail = &self.tails[t];
        let id = id.to_string();
        let len = HEAD.len() + id.len() + tail.len();
        out.extend_from_slice(&u32::try_from(len).expect("small frame").to_be_bytes());
        out.extend_from_slice(HEAD);
        out.extend_from_slice(id.as_bytes());
        out.extend_from_slice(tail);
    }

    /// The request text of template `t` with id `id` (for failure logs).
    #[must_use]
    pub fn text(&self, t: usize, id: u64) -> String {
        let mut out = Vec::new();
        self.push(t, id, &mut out);
        String::from_utf8_lossy(&out[4..]).into_owned()
    }
}

/// How a phase paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Arrival `k` is due `k / rate` seconds after the start.
    Rate(f64),
    /// As fast as the server completes requests, with at most `window`
    /// outstanding; with `until`, the arrivals cycle until that much time
    /// has passed, otherwise each is sent once.
    Flood {
        /// Stop sending after this long.
        until: Option<Duration>,
        /// Most requests in flight; the sender waits while the server holds
        /// this many, so the server always has a queue to work on.
        window: u64,
    },
}

/// A reply's cache disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// No disposition on the reply (or no reply).
    None,
    /// Served from the response cache.
    Hit,
    /// Computed and cached.
    Miss,
    /// Computed with the cache bypassed.
    Bypass,
}

impl Disposition {
    fn parse(text: Option<&str>) -> Self {
        match text {
            Some("hit") => Disposition::Hit,
            Some("miss") => Disposition::Miss,
            Some("bypass") => Disposition::Bypass,
            _ => Disposition::None,
        }
    }
}

/// One request of a phase, as measured. Times are nanoseconds from the
/// phase start; `done_ns` is 0 when no terminal frame arrived.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Template index.
    pub template: usize,
    /// When the request was due.
    pub due_ns: u64,
    /// When its frame was written.
    pub sent_ns: u64,
    /// When its terminal frame was read (0 = never).
    pub done_ns: u64,
    /// Whether the terminal frame said `ok: true`.
    pub ok: bool,
    /// The terminal frame's cache disposition.
    pub cache: Disposition,
}

impl Record {
    /// Latency from due time to terminal frame, in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Whether the request completed successfully.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.ok && self.done_ns > 0
    }
}

/// The first complete reply observed for a template: raw `result` bytes of
/// every streamed item (by index) and of the terminal frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Served {
    /// Streamed sweep items, sorted by index.
    pub items: Vec<(usize, String)>,
    /// The terminal frame's payload.
    pub terminal: String,
}

/// What one phase measured.
#[derive(Debug)]
pub struct PhaseOutcome {
    /// Wall clock at the phase start.
    pub start: Instant,
    /// One record per request sent.
    pub records: Vec<Record>,
    /// First complete reply per template (`None` for templates not sent or
    /// not answered).
    pub served: Vec<Option<Served>>,
    /// One line per failed request: error code and request body.
    pub failures: Vec<String>,
}

impl PhaseOutcome {
    /// Requests that errored or never completed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.succeeded()).count()
    }

    /// Worst lateness of a send behind its due time, in milliseconds.
    #[must_use]
    pub fn max_send_lag_ms(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.sent_ns.saturating_sub(r.due_ns))
            .max()
            .unwrap_or(0) as f64
            / 1e6
    }
}

/// Drive one phase over `stream`: send `arrivals` (template indices) paced
/// by `pace`, tagging them with ids from `first_id`, and wait up to `drain`
/// after the last send for every terminal frame.
pub fn run_phase(
    stream: &TcpStream,
    frames: &FrameSet,
    arrivals: &[usize],
    pace: Pace,
    first_id: u64,
    drain: Duration,
) -> io::Result<PhaseOutcome> {
    assert!(!arrivals.is_empty(), "a phase needs arrivals");
    // Render the fixed-rate schedule before the clock starts.
    let mut rendered: Vec<Vec<u8>> = Vec::new();
    if let Pace::Rate(_) = pace {
        rendered = arrivals
            .iter()
            .enumerate()
            .map(|(k, &t)| {
                let mut out = Vec::new();
                frames.push(t, first_id + k as u64, &mut out);
                out
            })
            .collect();
    }
    let sent = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let progress = Progress {
        sent: &sent,
        completed: &completed,
    };
    let sender_done = AtomicBool::new(false);
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let start = Instant::now();

    let (sent_log, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let log = send_loop(
                &mut writer,
                frames,
                &rendered,
                arrivals,
                pace,
                first_id,
                start,
                &progress,
            );
            sender_done.store(true, Ordering::SeqCst);
            log
        });
        let receiver = scope.spawn(|| {
            receive_loop(
                &mut reader,
                frames,
                arrivals,
                first_id,
                start,
                &progress,
                &sender_done,
                drain,
            )
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let sent_log = sent_log?;
    let (mut done, served, mut failures) = received?;

    let mut records = Vec::with_capacity(sent_log.len());
    for (k, &(template, due_ns, sent_ns)) in sent_log.iter().enumerate() {
        let (done_ns, ok, cache) =
            done.remove(&(first_id + k as u64))
                .unwrap_or((0, false, Disposition::None));
        if done_ns == 0 {
            failures.push(format!(
                "missing reply (not drained within {drain:?}): {}",
                frames.text(template, first_id + k as u64)
            ));
        }
        records.push(Record {
            template,
            due_ns,
            sent_ns,
            done_ns,
            ok,
            cache,
        });
    }
    Ok(PhaseOutcome {
        start,
        records,
        served,
        failures,
    })
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Requests written and terminal frames read so far.
struct Progress<'a> {
    sent: &'a AtomicU64,
    completed: &'a AtomicU64,
}

/// The sender: returns `(template, due_ns, sent_ns)` per request written.
#[allow(clippy::too_many_arguments)]
fn send_loop(
    writer: &mut TcpStream,
    frames: &FrameSet,
    rendered: &[Vec<u8>],
    arrivals: &[usize],
    pace: Pace,
    first_id: u64,
    start: Instant,
    progress: &Progress<'_>,
) -> io::Result<Vec<(usize, u64, u64)>> {
    let mut log = Vec::with_capacity(arrivals.len());
    let mut batch: Vec<u8> = Vec::with_capacity(1 << 16);
    match pace {
        Pace::Rate(rate) => {
            let period_ns = 1e9 / rate;
            let due = |k: usize| (k as f64 * period_ns) as u64;
            let mut k = 0;
            while k < arrivals.len() {
                let now = nanos_since(start);
                if due(k) > now {
                    std::thread::sleep(Duration::from_nanos(due(k) - now));
                    continue;
                }
                batch.clear();
                let first = k;
                while k < arrivals.len() && due(k) <= now {
                    batch.extend_from_slice(&rendered[k]);
                    k += 1;
                }
                writer.write_all(&batch)?;
                let sent_ns = nanos_since(start);
                for (j, &template) in arrivals.iter().enumerate().take(k).skip(first) {
                    log.push((template, due(j), sent_ns));
                }
                progress.sent.store(k as u64, Ordering::SeqCst);
            }
        }
        Pace::Flood { until, window } => {
            let mut k = 0usize;
            loop {
                let now = nanos_since(start);
                let more = match until {
                    Some(limit) => now < u64::try_from(limit.as_nanos()).unwrap_or(u64::MAX),
                    None => k < arrivals.len(),
                };
                if !more {
                    break;
                }
                if k as u64 >= progress.completed.load(Ordering::SeqCst) + window {
                    std::thread::sleep(Duration::from_micros(50));
                    continue;
                }
                batch.clear();
                let first = k;
                let limit = progress.completed.load(Ordering::SeqCst) + window;
                while (k as u64) < limit
                    && batch.len() < 16 * 1024
                    && (until.is_some() || k < arrivals.len())
                {
                    frames.push(
                        arrivals[k % arrivals.len()],
                        first_id + k as u64,
                        &mut batch,
                    );
                    k += 1;
                }
                writer.write_all(&batch)?;
                let sent_ns = nanos_since(start);
                for j in first..k {
                    log.push((arrivals[j % arrivals.len()], now, sent_ns));
                }
                progress.sent.store(k as u64, Ordering::SeqCst);
            }
        }
    }
    writer.flush()?;
    Ok(log)
}

type Received = (
    HashMap<u64, (u64, bool, Disposition)>,
    Vec<Option<Served>>,
    Vec<String>,
);

/// The receiver: reads until every sent request has its terminal frame, or
/// `drain` has passed since the sender finished. Request `first_id + k`
/// carries template `arrivals[k % arrivals.len()]` under either pace.
#[allow(clippy::too_many_arguments)]
fn receive_loop(
    reader: &mut TcpStream,
    frames: &FrameSet,
    arrivals: &[usize],
    first_id: u64,
    start: Instant,
    progress: &Progress<'_>,
    sender_done: &AtomicBool,
    drain: Duration,
) -> io::Result<Received> {
    let mut done: HashMap<u64, (u64, bool, Disposition)> = HashMap::new();
    let mut served: Vec<Option<Served>> = vec![None; frames.len()];
    // Per template, the id whose reply is being recorded and its items.
    let mut recording: HashMap<usize, (u64, Vec<(usize, String)>)> = HashMap::new();
    let mut failures = Vec::new();
    let mut decoder = FrameDecoder::default();
    let mut buf = vec![0u8; 1 << 16];
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if sender_done.load(Ordering::SeqCst) {
            if done.len() as u64 >= progress.sent.load(Ordering::SeqCst) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + drain);
            if Instant::now() >= deadline {
                break;
            }
        }
        let got = match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(got) => got,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        decoder.push(&buf[..got]);
        let now = nanos_since(start);
        while let Some(frame) = decoder.next_frame() {
            let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
            let text =
                std::str::from_utf8(frame).map_err(|_| invalid("reply is not UTF-8".into()))?;
            let reply = classify(text).map_err(invalid)?;
            let offset = reply
                .id
                .checked_sub(first_id)
                .ok_or_else(|| invalid(format!("reply for unknown id {}", reply.id)))?;
            let template = arrivals[usize::try_from(offset).expect("id fits") % arrivals.len()];
            let recorder = if served[template].is_none() {
                let entry = recording.entry(template).or_insert((reply.id, Vec::new()));
                (entry.0 == reply.id).then_some(&mut entry.1)
            } else {
                None
            };
            match reply.kind {
                FrameKind::SweepItem { index } => {
                    if let Some(items) = recorder {
                        items.push((index, reply.payload.to_string()));
                    }
                }
                FrameKind::Terminal => {
                    done.insert(reply.id, (now, reply.ok, Disposition::parse(reply.cache)));
                    progress.completed.fetch_add(1, Ordering::SeqCst);
                    if let Some(items) = recorder {
                        let mut items = std::mem::take(items);
                        items.sort();
                        served[template] = Some(Served {
                            items,
                            terminal: reply.payload.to_string(),
                        });
                    }
                    if !reply.ok {
                        failures.push(format!(
                            "{}: {}",
                            reply.error_code.unwrap_or("unknown"),
                            frames.text(template, reply.id)
                        ));
                    }
                }
            }
        }
    }
    Ok((done, served, failures))
}
