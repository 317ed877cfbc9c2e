//! An in-process replay of an arrival sequence through the serve path's
//! public functions: frame → json → proto → fingerprint → cache → engine →
//! render → frame, with one span around each call.
//!
//! The replay shows what each layer costs per call. It is not the server:
//! it runs on one thread, and it skips nothing the server may skip — the
//! server's request-key memo answers repeated requests without decoding the
//! consumer or fingerprinting it, and its negative cache answers repeated
//! validation errors, so the replay's decode and fingerprint costs on hits
//! are an upper bound on the served ones.

use std::any::Any;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use privmech_core::{Mechanism, PivotStats, PrivacyEngine, PrivacyLevel, Solve, ValidatedRequest};
use privmech_linalg::Matrix;
use privmech_numerics::Rational;
use privmech_serve::frame::{read_frame, write_frame};
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{
    assemble_solves, matrix_to_wire, mechanism_from_wire, render_interaction, render_solve,
    routing_key, split_solves, ConsumerSpec, WireError, WireScalar,
};
use privmech_serve::{ServerConfig, ShardRing, ShardedCache};

use crate::trace::Tracer;

/// The replay's counterpart of the fleet: one response cache per shard,
/// sized like the server's default, and the ring that routes between them.
pub struct Replay {
    caches: Vec<ShardedCache<Arc<str>>>,
    ring: ShardRing,
    /// Engine work, keyed `op.scalar`: calls and wall nanoseconds.
    pub engine: BTreeMap<String, (u64, u64)>,
    /// Summed pivot statistics of every engine call.
    pub pivots: PivotStats,
    /// Wall nanoseconds of every engine call.
    pub engine_ns: u64,
    /// Largest denominator, in bits, of any exact mechanism entry.
    pub max_den_bits: u64,
    /// Reply frame bytes written (streamed items included).
    pub reply_bytes: u64,
    /// Requests replayed.
    pub requests: u64,
    /// The rendered `result` of each distinct request, by template: for a
    /// sweep the item renderings, otherwise one rendering.
    pub rendered: BTreeMap<usize, Vec<String>>,
}

impl Replay {
    /// A cold replay over `shards` server processes.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let server = ServerConfig::default();
        Replay {
            caches: (0..shards)
                .map(|_| ShardedCache::new(server.cache_capacity, server.cache_shards))
                .collect(),
            ring: ShardRing::with_default_vnodes(shards),
            engine: BTreeMap::new(),
            pivots: PivotStats::default(),
            engine_ns: 0,
            max_den_bits: 0,
            reply_bytes: 0,
            requests: 0,
            rendered: BTreeMap::new(),
        }
    }

    /// Hits, misses and evictions summed over the shards' caches.
    #[must_use]
    pub fn cache_counts(&self) -> (u64, u64, u64) {
        self.caches.iter().fold((0, 0, 0), |(h, m, e), cache| {
            let stats = cache.stats();
            (h + stats.hits, m + stats.misses, e + stats.evictions)
        })
    }

    /// Replay one request frame (length prefix included) of template
    /// `template`, tagged `request` in the trace.
    pub fn request(
        &mut self,
        tracer: &mut Tracer,
        template: usize,
        request: u64,
        frame: &[u8],
    ) -> Result<(), WireError> {
        self.requests += 1;
        tracer.span("replay.request", request, |t| {
            let payload = t.span("serve.frame.read", request, |_| {
                read_frame(&mut Cursor::new(frame))
                    .ok()
                    .flatten()
                    .ok_or_else(|| WireError::new("malformed_frame", "unreadable frame"))
            })?;
            let text = String::from_utf8(payload)
                .map_err(|_| WireError::new("malformed_json", "frame is not UTF-8"))?;
            let body = t
                .span("serve.json.parse", request, |_| json::parse(&text))
                .map_err(|e| WireError::new("malformed_json", e.to_string()))?;
            let shard = if self.caches.len() > 1 {
                routing_key(&body).map_or(0, |key| self.ring.shard_for(&key))
            } else {
                0
            };
            match body.get("scalar").and_then(Json::as_str) {
                Some("f64") => self.compute::<f64>(t, template, request, shard, &body),
                _ => self.compute::<Rational>(t, template, request, shard, &body),
            }
        })
    }

    fn compute<T: WireScalar + 'static>(
        &mut self,
        t: &mut Tracer,
        template: usize,
        request: u64,
        shard: usize,
        body: &Json,
    ) -> Result<(), WireError> {
        let op = body.get("op").and_then(Json::as_str).unwrap_or("");
        let decoded = t.span("serve.proto.decode", request, |_| {
            Decoded::<T>::from_wire(op, body)
        })?;
        let key = t.span("core.fingerprint", request, |_| {
            format!(
                "{op}|{}|{}{}",
                T::TAG,
                decoded.validated.fingerprint().canonical(),
                decoded.key_suffix
            )
        });
        let cached = t.span("serve.cache.get", request, |_| self.caches[shard].get(&key));
        let (result, items) = match cached {
            Some(hit) => {
                let items = if op == "sweep" {
                    let parts = t
                        .span("serve.proto.split", request, |_| split_solves(&hit))
                        .ok_or_else(|| WireError::new("internal", "malformed cached sweep"))?;
                    parts.into_iter().map(str::to_string).collect()
                } else {
                    Vec::new()
                };
                (hit, items)
            }
            None => {
                let (rendered, items) = self.solve_and_render(t, request, op, &decoded)?;
                let rendered: Arc<str> = rendered.into();
                t.span("serve.cache.insert", request, |_| {
                    self.caches[shard].insert(&key, Arc::clone(&rendered));
                });
                self.rendered.entry(template).or_insert_with(|| {
                    if op == "sweep" {
                        items.clone()
                    } else {
                        vec![rendered.to_string()]
                    }
                });
                (rendered, items)
            }
        };
        t.span("serve.frame.write", request, |_| {
            let mut out = Vec::new();
            let mut frames: Vec<String> = items
                .iter()
                .enumerate()
                .map(|(index, item)| {
                    format!("{{\"v\":2,\"id\":{request},\"ok\":true,\"stream\":\"sweep_item\",\"index\":{index},\"result\":{item}}}")
                })
                .collect();
            if items.is_empty() {
                frames.push(format!(
                    "{{\"v\":2,\"id\":{request},\"ok\":true,\"cache\":\"hit\",\"result\":{result}}}"
                ));
            } else {
                frames.push(format!(
                    "{{\"v\":2,\"id\":{request},\"ok\":true,\"stream\":\"sweep_done\",\"cache\":\"hit\",\"result\":{{\"count\":{}}}}}",
                    items.len()
                ));
            }
            for frame in &frames {
                write_frame(&mut out, frame.as_bytes()).expect("writing to memory");
            }
            self.reply_bytes += out.len() as u64;
        });
        Ok(())
    }

    fn solve_and_render<T: WireScalar + 'static>(
        &mut self,
        t: &mut Tracer,
        request: u64,
        op: &str,
        decoded: &Decoded<T>,
    ) -> Result<(String, Vec<String>), WireError> {
        let engine = PrivacyEngine::with_threads(1);
        let started = Instant::now();
        let outcome = match op {
            "solve" => t.span("core.engine.solve", request, |_| {
                engine
                    .solve(&decoded.validated)
                    .map(|s| Computed::Solves(vec![s]))
            }),
            "sweep" => t.span("core.engine.sweep", request, |_| {
                engine
                    .sweep(&decoded.levels, &decoded.validated)
                    .map(Computed::Solves)
            }),
            _ => t.span("core.engine.interact", request, |_| {
                let deployed = decoded
                    .mechanism
                    .as_ref()
                    .expect("interact decodes a mechanism");
                engine
                    .interact(deployed, &decoded.validated)
                    .map(Computed::Interaction)
            }),
        }
        .map_err(WireError::from)?;
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.engine_ns += ns;
        let entry = self.engine.entry(format!("{op}.{}", T::TAG)).or_default();
        entry.0 += 1;
        entry.1 += ns;
        t.span("serve.proto.render", request, |_| match outcome {
            Computed::Solves(solves) => {
                for solve in &solves {
                    self.pivots += &solve.stats;
                    self.max_den_bits = self
                        .max_den_bits
                        .max(max_den_bits(solve.mechanism.matrix()));
                }
                let items: Vec<String> = solves.iter().map(render_solve).collect();
                if op == "sweep" {
                    Ok((assemble_solves(items.iter().map(String::as_str)), items))
                } else {
                    Ok((items.into_iter().next().expect("one solve"), Vec::new()))
                }
            }
            Computed::Interaction(interaction) => {
                self.pivots += &interaction.lp_stats;
                self.max_den_bits = self
                    .max_den_bits
                    .max(max_den_bits(interaction.induced.matrix()));
                Ok((render_interaction(&interaction), Vec::new()))
            }
        })
    }
}

enum Computed<T: privmech_linalg::Scalar> {
    Solves(Vec<Solve<T>>),
    Interaction(privmech_core::Interaction<T>),
}

/// A decoded compute request, as the server decodes it before its cache
/// lookup.
struct Decoded<T: WireScalar> {
    validated: ValidatedRequest<T>,
    levels: Vec<PrivacyLevel<T>>,
    mechanism: Option<Mechanism<T>>,
    /// The op-specific part of the cache key after the fingerprint.
    key_suffix: String,
}

impl<T: WireScalar> Decoded<T> {
    fn from_wire(op: &str, body: &Json) -> Result<Self, WireError> {
        let spec = ConsumerSpec::<T>::from_wire(body)?;
        let scalar = |value: Option<&Json>| {
            value
                .and_then(T::from_wire)
                .ok_or_else(|| WireError::bad_request("unparsable scalar"))
        };
        match op {
            "solve" => Ok(Decoded {
                validated: spec.to_request(scalar(body.get("alpha"))?)?,
                levels: Vec::new(),
                mechanism: None,
                key_suffix: String::new(),
            }),
            "sweep" => {
                let alphas = body
                    .get("alphas")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::bad_request("sweep needs alphas"))?;
                let levels = alphas
                    .iter()
                    .map(|a| PrivacyLevel::new(scalar(Some(a))?).map_err(WireError::from))
                    .collect::<Result<Vec<_>, _>>()?;
                let first = levels
                    .first()
                    .ok_or_else(|| WireError::bad_request("empty sweep"))?
                    .alpha()
                    .clone();
                let key_suffix = format!(
                    "|levels={}",
                    json::to_string(&Json::Arr(
                        levels.iter().map(|l| l.alpha().to_wire()).collect()
                    ))
                );
                Ok(Decoded {
                    validated: spec.to_request(first)?,
                    levels,
                    mechanism: None,
                    key_suffix,
                })
            }
            "interact" => {
                let wire = body
                    .get("mechanism")
                    .ok_or_else(|| WireError::bad_request("interact needs a mechanism"))?;
                let mechanism: Mechanism<T> = mechanism_from_wire(wire)?;
                let spec = spec.with_strategy(Default::default());
                Ok(Decoded {
                    validated: spec.to_request(T::zero())?,
                    levels: Vec::new(),
                    key_suffix: format!(
                        "|mech={}",
                        json::to_string(&matrix_to_wire(mechanism.matrix()))
                    ),
                    mechanism: Some(mechanism),
                })
            }
            other => Err(WireError::new(
                "unknown_op",
                format!("replay has no op {other}"),
            )),
        }
    }
}

/// Largest denominator bit length over an exact matrix (0 for floats).
#[must_use]
pub fn max_den_bits<T: privmech_linalg::Scalar + 'static>(matrix: &Matrix<T>) -> u64 {
    let Some(exact) = (matrix as &dyn Any).downcast_ref::<Matrix<Rational>>() else {
        return 0;
    };
    let mut bits = 0;
    for row in 0..exact.rows() {
        for cell in exact.row(row) {
            bits = bits.max(cell.denom().bit_length() as u64);
        }
    }
    bits
}
