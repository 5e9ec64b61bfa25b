//! The end-to-end request benchmark.
//!
//! One closed-loop client thread drives a workload in-process through
//! the wire front door, `pdm_service::wire::dispatch(&Session, json)`,
//! against sessions built with default settings (execution width =
//! available CPUs). A process replays one seeded pass of requests on a
//! fresh session again and again until its time is up, so every pass
//! does the same work, and sums up what it measured in a [`Part`];
//! `main.rs` runs several processes and merges their parts
//! ([`end_to_end`]). Latency percentiles pool every timed request into
//! one fixed-size [`Histogram`]. Between passes a fixed reference
//! workload measures the machine's speed ([`reference`]); the
//! end-to-end times are reported at the reference speed.
//!
//! `--trace 1` runs the same passes, then replays each timed request
//! layer by layer from this crate (see `trace.rs`) and reports the
//! per-layer metrics instead of the end-to-end ones. Every `run`
//! response, in both modes, is checked against the sequential
//! interpreter ([`oracle`]).

pub mod oracle;
pub mod reference;
mod trace;
pub mod workload;

use oracle::{Gate, Observed};
use pdm_service::json::{self, Json};
use pdm_service::{wire, Session};
use reference::Reference;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{Scale, Workload};

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where a traced run writes its last pass's spans.
    pub spans_out: Option<std::path::PathBuf>,
}

/// Fewest passes a run makes, however short its time.
const MIN_PASSES: usize = 3;

/// Reference slices after each pass, as a share of the pass's time.
const REFERENCE_SHARE: f64 = 0.2;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, or the base of a ratio.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note: note.into(),
        }
    }
}

/// The result of one invocation.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Correctness failures; empty when every check passed.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The machine-readable last line.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        json::render(&Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }
}

/// What one process measured, in a form that the records of several
/// processes merge into. The end-to-end metrics are computed from a
/// list of these ([`end_to_end`]).
pub struct Part {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; empty when every check passed.
    pub failures: Vec<String>,
    /// Per timed pass: the wall time of its timed requests, and its
    /// set-up time.
    pub wall_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Every timed request's latency.
    pub latencies: Histogram,
    /// Reference slice times.
    pub reference: Histogram,
    /// Peak resident set of the process, less the reference buffers.
    pub rss_mb: f64,
}

impl Part {
    /// The record as one line of JSON.
    pub fn to_json(&self) -> String {
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        let strs = |xs: &[String]| Json::Arr(xs.iter().map(|x| Json::Str(x.clone())).collect());
        json::render(&Json::Obj(vec![
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("failures".into(), strs(&self.failures)),
            ("wall_s".into(), nums(&self.wall_s)),
            ("setup_s".into(), nums(&self.setup_s)),
            ("latencies".into(), nums(&self.latencies.to_pairs())),
            ("reference".into(), nums(&self.reference.to_pairs())),
            ("rss_mb".into(), Json::Num(self.rss_mb)),
        ]))
    }

    pub fn from_json(text: &str) -> Result<Part, String> {
        let doc = json::parse(text)?;
        let num = |key: &str| doc.get_num(key).ok_or(format!("part record has no {key}"));
        let arr = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => Ok(items.as_slice()),
            _ => Err(format!("part record has no {key} list")),
        };
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            arr(key)?
                .iter()
                .map(|x| match x {
                    Json::Num(n) => Ok(*n),
                    _ => Err(format!("{key} holds a non-number")),
                })
                .collect()
        };
        let failures = arr("failures")?
            .iter()
            .map(|x| match x {
                Json::Str(f) => Ok(f.clone()),
                _ => Err("failures holds a non-string".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(Part {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures,
            wall_s: nums("wall_s")?,
            setup_s: nums("setup_s")?,
            latencies: Histogram::from_pairs(&nums("latencies")?)?,
            reference: Histogram::from_pairs(&nums("reference")?)?,
            rss_mb: num("rss_mb")?,
        })
    }
}

impl Outcome {
    /// The outcome of the processes that measured `parts`.
    pub fn of(parts: &[Part], metrics: Vec<Metric>) -> Outcome {
        Outcome {
            attempted: parts.iter().map(|p| p.attempted).sum(),
            failed: parts.iter().map(|p| p.failed).sum(),
            metrics,
            failures: parts.iter().flat_map(|p| p.failures.clone()).collect(),
        }
    }
}

/// Run the benchmark in this process.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (part, layers) = measure(opts)?;
    let parts = [part];
    let metrics = if opts.trace {
        layers
    } else {
        end_to_end(&parts)
    };
    Ok(Outcome::of(&parts, metrics))
}

/// Measure in this process: the record that [`end_to_end`] reads and,
/// in a traced run, the per-layer metrics.
pub fn measure(opts: &Options) -> Result<(Part, Vec<Metric>), String> {
    let mut w = Workload::generate(&opts.workload, opts.seed, opts.scale)?;
    let hashes = discover_hashes(&w)?;
    w.render();
    let mut gate = Gate::new(w.all().count(), hashes);

    let mut reference = Reference::new();
    // Process warm-up: one pass whose numbers are dropped.
    let (_, session) = pass(&w, &mut gate)?;
    drop(session);

    let mut passes = Vec::new();
    let mut latencies = Histogram::new();
    let mut replays = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        let cold = if opts.trace {
            trace::cold_plans(&w).map_err(|e| e.to_string())?
        } else {
            Vec::new()
        };
        let t = Instant::now();
        let (mut p, session) = pass(&w, &mut gate)?;
        reference.sample(REFERENCE_SHARE * t.elapsed().as_secs_f64());
        if opts.trace {
            replays.push(trace::replay(&session, &w, &p, cold).map_err(|e| e.to_string())?);
        }
        // Keeping these for every pass would make the benchmark's own
        // share of `peak_rss_mb` grow with the number of passes.
        latencies.record(&p.latency_ns);
        p.latency_ns = Vec::new();
        p.responses = Vec::new();
        p.started_ns = Vec::new();
        passes.push(p);
    }
    // Read before the oracle allocates anything of its own, and without
    // the reference buffers, which are resident throughout.
    let rss_mb = peak_rss_mb() - reference.resident_mb();

    if let (Some(path), Some(last)) = (&opts.spans_out, replays.last()) {
        trace::write_spans(path, last).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    gate.check_runs(&w)
        .map_err(|e| format!("sequential oracle failed: {e}"))?;
    let layers = if opts.trace {
        trace::metrics(&passes, &replays)
    } else {
        Vec::new()
    };
    let part = Part {
        attempted: (passes.len() * w.timed.len()) as u64,
        failed: passes.iter().map(|p| p.failed).sum(),
        failures: gate.failures,
        wall_s: passes.iter().map(|p| p.wall_s).collect(),
        setup_s: passes.iter().map(|p| p.setup_s).collect(),
        latencies,
        reference: reference.slices,
        rss_mb,
    };
    Ok((part, layers))
}

/// Plan every shape by source on a scratch session and read back the
/// `shape_hash` the program assigns it.
fn discover_hashes(w: &Workload) -> Result<Vec<String>, String> {
    let session = Session::new();
    (0..w.shapes.len())
        .map(|s| {
            let resp = wire::dispatch(&session, &w.plan_text(s));
            Observed::parse(&resp.body)?
                .shape_hash
                .filter(|_| resp.ok)
                .ok_or_else(|| format!("planning {:?} failed: {}", w.shapes[s].source, resp.body))
        })
        .collect()
}

/// One pass: a fresh session, the setup requests (timed as `setup_s`),
/// the warm-up requests, then the timed requests.
pub(crate) struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    /// When the timed requests began.
    pub epoch: Instant,
    /// Per timed request, in order: its latency, its start (ns since
    /// `epoch`) and its parsed response; dropped once the traced replay
    /// has used them.
    pub latency_ns: Vec<u32>,
    pub started_ns: Vec<u64>,
    pub responses: Vec<Json>,
    pub failed: u64,
    /// From `/metrics`, over the timed requests: inspector audits, and
    /// inspected runs.
    pub audits: f64,
    pub inspected: f64,
    /// `cache_stats()` after the timed requests: (hits, requests, planned).
    pub cache: (u64, u64, u64),
}

impl Pass {
    pub fn latency_ms(&self, i: usize) -> f64 {
        f64::from(self.latency_ns[i]) / 1e6
    }
}

fn pass(w: &Workload, gate: &mut Gate) -> Result<(Pass, Session), String> {
    let t0 = Instant::now();
    let session = Session::builder().build();
    let setup: Vec<_> = w
        .setup
        .iter()
        .map(|r| wire::dispatch(&session, &r.text))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let warmup: Vec<_> = w
        .warmup
        .iter()
        .map(|r| wire::dispatch(&session, &r.text))
        .collect();

    let (audits_before, inspected_before) = inspector_counts(&session)?;
    let mut started_ns = Vec::with_capacity(w.timed.len());
    let mut latency_ns = Vec::with_capacity(w.timed.len());
    let mut timed = Vec::with_capacity(w.timed.len());
    let epoch = Instant::now();
    for r in &w.timed {
        let t = Instant::now();
        let resp = wire::dispatch(&session, &r.text);
        latency_ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
        started_ns.push(t.duration_since(epoch).as_nanos() as u64);
        timed.push(resp);
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let (audits_after, inspected_after) = inspector_counts(&session)?;
    let stats = session.cache_stats();

    let mut responses = Vec::with_capacity(timed.len());
    let mut failed = 0;
    let bodies = setup.iter().chain(&warmup).chain(&timed);
    for (idx, (r, resp)) in w.all().zip(bodies).enumerate() {
        let doc = json::parse(&resp.body).map_err(|e| format!("response is not JSON ({e})"))?;
        gate.observe(idx, r, Observed::from_doc(&doc));
        if idx >= w.setup.len() + w.warmup.len() {
            failed += u64::from(!resp.ok);
            responses.push(doc);
        }
    }
    let p = Pass {
        setup_s,
        wall_s,
        epoch,
        latency_ns,
        started_ns,
        responses,
        failed,
        audits: audits_after - audits_before,
        inspected: inspected_after - inspected_before,
        cache: (stats.hits, stats.requests(), stats.planned),
    };
    Ok((p, session))
}

/// Inspector audits and inspected runs so far, from the session's
/// `/metrics` page. Series are read leniently: one the program stops
/// exporting counts as 0.
fn inspector_counts(session: &Session) -> Result<(f64, f64), String> {
    let resp = wire::dispatch(session, r#"{"op":"metrics"}"#);
    let doc = json::parse(&resp.body).map_err(|e| format!("metrics response: {e}"))?;
    let series: BTreeMap<&str, f64> = doc
        .get_str("text")
        .unwrap_or("")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name, value.parse().ok()?))
        })
        .collect();
    let get = |name: &str| series.get(name).copied().unwrap_or(0.0);
    let inspected = get("pdm_inspector_certified_total")
        + get("pdm_inspector_refined_total")
        + get("pdm_inspector_rejected_total");
    Ok((get("pdm_inspector_audit_us_count"), inspected))
}

/// The end-to-end metrics over every timed pass of every process:
/// latency percentiles pool the requests of all passes, throughput is
/// their number ÷ the passes' summed wall time, set-up time the median
/// over passes and peak memory the mean over processes. Times are
/// reported at the reference speed (see [`reference`]): measured time ×
/// the time scale, throughput ÷ it; each note gives the value as
/// measured.
pub fn end_to_end(parts: &[Part]) -> Vec<Metric> {
    let mut latencies = Histogram::new();
    for p in parts {
        latencies.merge(&p.latencies);
    }
    let n = latencies.count();
    let n_passes: usize = parts.iter().map(|p| p.wall_s.len()).sum();
    let p99_at = rank(n as usize, 0.99) as u64;
    let attempted: u64 = parts.iter().map(|p| p.attempted).sum();
    let failed: u64 = parts.iter().map(|p| p.failed).sum();
    let wall_s: f64 = parts.iter().flat_map(|p| &p.wall_s).sum();
    let setup: Vec<f64> = parts.iter().flat_map(|p| p.setup_s.clone()).collect();
    let rss = parts.iter().map(|p| p.rss_mb).sum::<f64>() / parts.len() as f64;
    let mut slices = Histogram::new();
    for p in parts {
        slices.merge(&p.reference);
    }
    let speed = reference::speed(&slices);
    let scale = reference::time_scale(speed);
    let (rps, p50, p99, setup) = (
        n as f64 / wall_s,
        latencies.quantile_ms(0.5),
        latencies.quantile_ms(0.99),
        median(&setup),
    );
    let procs = parts.len();
    vec![
        Metric::new(
            "throughput_rps",
            rps / scale,
            "req/s",
            format!(
                "{n} requests in {n_passes} passes of {procs} processes; \
                 measured {rps:.1} at speed {speed:.4}, time scale {scale:.4} \
                 ({} reference slices)",
                slices.count()
            ),
        ),
        Metric::new(
            "latency_p50_ms",
            p50 * scale,
            "ms",
            format!("n={n}; measured {p50:.6}"),
        ),
        Metric::new(
            "latency_p99_ms",
            p99 * scale,
            "ms",
            format!(
                "n={n}, {} samples beyond; measured {p99:.6}",
                n - 1 - p99_at
            ),
        ),
        Metric::new(
            "ok_ratio",
            1.0 - failed as f64 / attempted as f64,
            "ratio",
            format!(
                "error_rate={} ({failed} of {attempted})",
                failed as f64 / attempted as f64
            ),
        ),
        Metric::new(
            "setup_s",
            setup * scale,
            "s",
            format!("median of {n_passes} cold sessions; measured {setup:.6}"),
        ),
        Metric::new(
            "peak_rss_mb",
            rss,
            "MB",
            format!(
                "mean over {procs} processes of VmHWM less the reference buffers, \
                 MB = 2^20 bytes"
            ),
        ),
    ]
}

/// Request latencies of a whole run in a fixed number of buckets, so
/// that the benchmark's memory does not grow with the run's length.
/// Latencies below 1024 ns are exact; above, a bucket spans 1/1024 of
/// its value (the top 10 bits below the leading one).
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    const SUB_BITS: u32 = 10;

    pub fn new() -> Histogram {
        // 22 octaves of 1024 buckets above the exact range cover u32.
        Histogram {
            counts: vec![0; (33 - Self::SUB_BITS as usize) << Self::SUB_BITS],
        }
    }

    fn bucket(ns: u32) -> usize {
        let top = 31 - ns.max(1).leading_zeros();
        if top < Self::SUB_BITS {
            return ns as usize;
        }
        let shift = top - Self::SUB_BITS;
        (((shift + 1) as usize) << Self::SUB_BITS) + (ns >> shift) as usize - (1 << Self::SUB_BITS)
    }

    /// The middle of bucket `b`, in ns.
    fn value_ns(b: usize) -> f64 {
        let (octave, sub) = (b >> Self::SUB_BITS, b & ((1 << Self::SUB_BITS) - 1));
        if octave == 0 {
            return sub as f64;
        }
        let width = (1u64 << (octave - 1)) as f64;
        (sub + (1 << Self::SUB_BITS)) as f64 * width + width / 2.0
    }

    pub fn record(&mut self, latencies_ns: &[u32]) {
        for &ns in latencies_ns {
            self.counts[Self::bucket(ns)] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// The non-empty buckets as a flat list: bucket, count, bucket, ...
    pub fn to_pairs(&self) -> Vec<f64> {
        let filled = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        filled.flat_map(|(b, &c)| [b as f64, c as f64]).collect()
    }

    pub fn from_pairs(pairs: &[f64]) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        for pair in pairs.chunks(2) {
            let (b, c) = match *pair {
                [b, c] if (b as usize) < h.counts.len() => (b as usize, c as u64),
                _ => return Err(format!("bad histogram bucket {pair:?}")),
            };
            h.counts[b] += c;
        }
        Ok(h)
    }

    /// Quantile `q` by nearest rank, in ms; 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = rank(n as usize, q) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > target {
                return Self::value_ns(b) / 1e6;
            }
        }
        0.0
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Quantile `q` by nearest rank (sorts `xs`); 0 when empty.
pub(crate) fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[rank(xs.len(), q)]
}

pub(crate) fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// Peak resident set of this process in MB (2^20 bytes): `VmHWM`, the
/// high-water mark of this program image. Not `getrusage`'s
/// `ru_maxrss`: Linux carries that over `exec` from the image it
/// replaced, so run under `cargo run` it read cargo's ~25 MB on every
/// workload.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
