//! The traced run: per-layer numbers from this crate's own spans.
//!
//! The program has no spans of its own yet, so after each pass's
//! untraced requests the benchmark replays every timed request on the
//! same (now warm) session, calling each layer's public function in the
//! order the session's pipeline calls them, and records a span around
//! each call. Spans live in memory; [`write_spans`] writes the last
//! pass's spans out when the run ends.
//!
//! The *request span* of request `i` is its untraced `dispatch` in the
//! pass; the replay's layer spans are its children. So
//! `trace.coverage` (children ÷ request spans) falls when the pipeline
//! gains work the replay does not know about, `session.self_us` is the
//! part of a request no layer accounts for, and `trace.overhead_ratio`
//! is the replay's whole span over the untraced request.
//!
//! Two parts of the pipeline are not replayed layer by layer, because
//! only the session can run them: the inspector's audit (its cost shows
//! as lower coverage on first contacts; its counts come from the
//! `/metrics` page), and the staged executor of a `refined` verdict,
//! whose run is replayed through `Session::run_template` as one
//! `session.run` span. A `rejected` verdict runs the sequential
//! interpreter, exactly as the session does.

use crate::oracle;
use crate::workload::{Op, Request, Workload};
use crate::{median, quantile, Metric, Pass};
use pdm_runtime::template::CompiledInstance;
use pdm_runtime::{CompiledPlan, Memory};
use pdm_service::json::{self, Json};
use pdm_service::{PdmError, Session};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the pass's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same replay.
    pub parent: Option<usize>,
    /// Index of the timed request in the pass.
    pub request: usize,
}

impl Span {
    fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// The spans of one pass plus what the replay counted.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Cold `Session::plan` per distinct shape, µs.
    pub cold_plan_us: Vec<f64>,
    /// `(cells, iterations)` of each run replayed layer by layer.
    pub runs: Vec<(u64, u64)>,
    /// From the untraced `run` responses, where reported:
    /// `observed_steals`, `observed_threads`, and the latency of
    /// inspected runs split by first contact vs. seen valuation.
    pub steals: Vec<f64>,
    pub threads: Vec<f64>,
    pub first_contact_ms: Vec<f64>,
    pub cached_ms: Vec<f64>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, request, Some(parent));
        let out = f();
        self.close(span);
        out
    }
}

/// Time a cold `Session::plan` for every shape on a fresh session.
pub fn cold_plans(w: &Workload) -> Result<Vec<f64>, PdmError> {
    let session = Session::new();
    w.shapes
        .iter()
        .map(|shape| {
            let nest = session.parse_symbolic(&shape.source, &shape.params)?;
            let t = Instant::now();
            session.plan(&nest)?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// Replay every timed request of pass `p` on `session` (the pass's own
/// session), layer by layer.
pub fn replay(
    session: &Session,
    w: &Workload,
    p: &Pass,
    cold_plan_us: Vec<f64>,
) -> Result<Replay, PdmError> {
    let mut rec = Recorder {
        epoch: p.epoch,
        spans: Vec::new(),
    };
    let mut out = Replay {
        spans: Vec::new(),
        cold_plan_us,
        runs: Vec::new(),
        steals: Vec::new(),
        threads: Vec::new(),
        first_contact_ms: Vec::new(),
        cached_ms: Vec::new(),
    };
    for (i, r) in w.timed.iter().enumerate() {
        let resp = &p.responses[i];
        if resp.get("ok") != Some(&Json::Bool(true)) {
            continue;
        }
        if r.op == Op::Run {
            out.steals.extend(resp.get_num("observed_steals"));
            out.threads.extend(resp.get_num("observed_threads"));
            if resp.get("verdict").is_some() {
                // A first contact that lands in a stability interval is
                // answered without an audit, as a cached one is.
                let audited = resp.get("interval_hit") != Some(&Json::Bool(true));
                let class = if r.first_contact && audited {
                    &mut out.first_contact_ms
                } else {
                    &mut out.cached_ms
                };
                class.push(p.latency_ms(i));
            }
        }
        let start_ns = p.started_ns[i];
        let end_ns = start_ns + u64::from(p.latency_ns[i]);
        rec.spans.push(Span {
            name: "request",
            start_ns,
            end_ns,
            parent: None,
            request: i,
        });
        let request = rec.spans.len() - 1;
        let root = rec.open("replay", i, Some(request));
        out.runs
            .extend(replay_one(session, r, resp, &mut rec, i, root)?);
        rec.close(root);
    }
    out.spans = rec.spans;
    Ok(out)
}

fn replay_one(
    session: &Session,
    r: &Request,
    resp: &Json,
    rec: &mut Recorder,
    i: usize,
    root: usize,
) -> Result<Option<(u64, u64)>, PdmError> {
    let req = rec
        .time("wire.decode", i, root, || json::parse(&r.text))
        .map_err(PdmError::Protocol)?;
    let source = req.get_str("source").unwrap_or_default();
    let params: Vec<&str> = match req.get("params") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|p| match p {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    let nest = rec.time("parse", i, root, || session.parse_symbolic(source, &params))?;
    let template = rec.time("plan_cache", i, root, || session.plan(&nest))?;
    let values = &r.values;
    let mut ran = None;
    match (r.op, resp.get_str("verdict")) {
        (Op::Plan, _) => {}
        (Op::Run, Some("refined")) => {
            rec.time("session.run", i, root, || {
                session.run_template(&template, values, r.seed)
            })?;
        }
        (Op::Run, verdict) => {
            let (nest, plan) = rec.time("template.instantiate", i, root, || {
                Ok::<_, PdmError>((
                    template.instantiate_nest(values)?,
                    template.instantiate(values)?,
                ))
            })?;
            let mut memory = rec.time("memory.alloc", i, root, || Memory::for_nest(&nest))?;
            let compiled = rec.time("compile", i, root, || {
                CompiledPlan::compile(&nest, &plan, &memory)
            })?;
            rec.time("memory.init", i, root, || memory.init_deterministic(r.seed));
            let instance = CompiledInstance {
                nest,
                plan,
                memory,
                compiled,
            };
            let iterations = rec.time("execute", i, root, || match verdict {
                Some("rejected") => pdm_runtime::run_sequential(&instance.nest, &instance.memory)
                    .map_err(PdmError::from),
                _ => session.execute(&instance),
            })?;
            let sum = rec.time("checksum", i, root, || oracle::checksum(&instance.memory));
            std::hint::black_box(sum);
            let cells = instance
                .memory
                .arrays()
                .iter()
                .map(|a| a.len() as u64)
                .sum();
            ran = Some((cells, iterations));
        }
    }
    let body = rec.time("wire.encode", i, root, || json::render(resp));
    std::hint::black_box(body);
    Ok(ran)
}

/// Write `replay`'s spans as tab-separated
/// `id, parent, request, name, start_ns, end_ns` rows.
pub fn write_spans(path: &Path, replay: &Replay) -> std::io::Result<()> {
    let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (id, s) in replay.spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}",
            s.request, s.name, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn metrics(passes: &[Pass], replays: &[Replay]) -> Vec<Metric> {
    // Layer spans by name, and per-request sums, across all passes.
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut request_us, mut children_us, mut replay_us) = (0.0, 0.0, 0.0);
    let mut self_us = Vec::new();
    let (mut execute_us, mut run_replay_us) = (0.0, 0.0);
    for rep in replays {
        let mut children = vec![0.0; rep.spans.len()];
        let mut has_execute = vec![false; rep.spans.len()];
        for s in &rep.spans {
            if s.name == "request" || s.name == "replay" {
                continue;
            }
            layers.entry(s.name).or_default().push(s.us());
            let root = s.parent.expect("layer spans hang off a replay span");
            children[root] += s.us();
            if s.name == "execute" {
                has_execute[root] = true;
                execute_us += s.us();
            }
        }
        for (idx, s) in rep.spans.iter().enumerate() {
            if s.name != "replay" {
                continue;
            }
            let request = &rep.spans[s.parent.expect("a replay span hangs off its request")];
            request_us += request.us();
            children_us += children[idx];
            replay_us += s.us();
            self_us.push(request.us() - children[idx]);
            if has_execute[idx] {
                run_replay_us += s.us();
            }
        }
    }
    let mut us = |name: &'static str, span: &'static str| {
        let xs = layers.entry(span).or_default();
        let n = xs.len();
        Metric::new(name, quantile(xs, 0.5), "us", format!("p50, n={n}"))
    };

    let cold: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.cold_plan_us.iter().copied())
        .collect();
    let (cells, iterations) = replays
        .iter()
        .flat_map(|r| r.runs.iter())
        .fold((0u64, 0u64), |(c, i), &(rc, ri)| (c + rc, i + ri));

    // Read from the untraced responses and `/metrics`: absent fields and
    // series count as "not reported".
    let all = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
        replays.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (steals, threads) = (all(|r| &r.steals), all(|r| &r.threads));
    let (mut first_contact, mut cached) = (all(|r| &r.first_contact_ms), all(|r| &r.cached_ms));
    let audits: f64 = passes.iter().map(|p| p.audits).sum();
    let inspected: f64 = passes.iter().map(|p| p.inspected).sum();
    let (hits, requests) = passes
        .iter()
        .fold((0, 0), |(h, q), p| (h + p.cache.0, q + p.cache.1));
    let planned: Vec<f64> = passes.iter().map(|p| p.cache.2 as f64).collect();
    let n_passes = passes.len() as f64;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let (fc_n, c_n) = (first_contact.len(), cached.len());

    vec![
        us("wire.decode_us", "wire.decode"),
        us("wire.encode_us", "wire.encode"),
        us("parse.us", "parse"),
        us("plan_cache.us", "plan_cache"),
        Metric::new(
            "plan_cache.hit_ratio",
            hits as f64 / requests.max(1) as f64,
            "ratio",
            format!("{hits} hits of {requests} lookups"),
        ),
        Metric::new(
            "plan_cache.planned",
            median(&planned),
            "count",
            "per session",
        ),
        Metric::new(
            "template.cold_plan_us",
            median(&cold),
            "us",
            format!("p50, n={}", cold.len()),
        ),
        us("template.instantiate_us", "template.instantiate"),
        us("compile.us", "compile"),
        us("memory.alloc_us", "memory.alloc"),
        us("memory.init_us", "memory.init"),
        us("checksum.us", "checksum"),
        Metric::new(
            "memory.cells_per_iteration",
            cells as f64 / iterations.max(1) as f64,
            "count",
            format!("{cells} cells over {iterations} iterations"),
        ),
        us("execute.us", "execute"),
        Metric::new(
            "execute.iterations_per_s",
            iterations as f64 / (execute_us / 1e6),
            "1/s",
            format!(
                "{iterations} iterations in {:.1} ms of execute spans",
                execute_us / 1e3
            ),
        ),
        Metric::new(
            "execute.steals_per_run",
            mean(&steals),
            "count",
            format!("mean, n={}", steals.len()),
        ),
        Metric::new(
            "execute.threads_observed",
            mean(&threads),
            "count",
            format!("mean, n={}", threads.len()),
        ),
        Metric::new(
            "execute.kernel_share",
            execute_us / run_replay_us,
            "ratio",
            format!(
                "execute {:.1} ms of {:.1} ms replayed run spans",
                execute_us / 1e3,
                run_replay_us / 1e3
            ),
        ),
        Metric::new(
            "inspector.audits",
            audits / n_passes,
            "count",
            "per pass, /metrics",
        ),
        Metric::new(
            "inspector.skip_ratio",
            if inspected > 0.0 {
                1.0 - audits / inspected
            } else {
                0.0
            },
            "ratio",
            format!("{audits} audits over {inspected} inspected runs"),
        ),
        Metric::new(
            "inspector.first_contact_ms",
            quantile(&mut first_contact, 0.5),
            "ms",
            format!("p50 of first contacts that audited, n={fc_n}"),
        ),
        Metric::new(
            "inspector.cached_ms",
            quantile(&mut cached, 0.5),
            "ms",
            format!("p50, n={c_n}"),
        ),
        Metric::new(
            "session.self_us",
            quantile(&mut self_us, 0.5),
            "us",
            "p50 of request minus layer spans",
        ),
        Metric::new(
            "trace.overhead_ratio",
            replay_us / request_us,
            "ratio",
            format!(
                "replay {:.1} ms over untraced {:.1} ms",
                replay_us / 1e3,
                request_us / 1e3
            ),
        ),
        Metric::new(
            "trace.coverage",
            children_us / request_us,
            "ratio",
            format!(
                "layer spans {:.1} ms over requests {:.1} ms",
                children_us / 1e3,
                request_us / 1e3
            ),
        ),
    ]
}
