//! The two traffic mixes, generated from a seed.
//!
//! Each workload keeps one cost class dominant, and where it mixes
//! classes the shares are chosen so that the p50 and p99 of a pass fall
//! inside one class, well away from a class boundary. A pass is a fixed
//! request sequence; the benchmark replays the same sequence against a
//! fresh session in every pass, so every pass does the same work.
//!
//! Sizes and shares are fixed per workload; the seed changes only the
//! order of requests, which valuations `param_valuations` draws and the
//! memory seeds. That keeps the cost mix of a pass independent of the
//! seed.

use pdm_service::json::{self, Json};

/// How big the generated passes are. `Smoke` shrinks every size so the
/// benchmark's own tests can run every workload in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["skewed_runs", "param_valuations"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Plan,
    Run,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Plan => "plan",
            Op::Run => "run",
        }
    }
}

/// One loop shape: DSL source plus the names kept symbolic.
#[derive(Debug, Clone)]
pub struct Shape {
    pub source: String,
    pub params: Vec<&'static str>,
}

/// One generated request. `text` is what the program receives; the
/// other fields are what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Request {
    pub op: Op,
    pub shape: usize,
    pub values: Vec<(&'static str, i64)>,
    /// Memory seed of a `run`.
    pub seed: u64,
    /// The valuation's first appearance in a session.
    pub first_contact: bool,
    pub text: String,
}

pub struct Workload {
    pub shapes: Vec<Shape>,
    /// The first request for each distinct shape, all by source: what
    /// `setup_s` times on a cold session.
    pub setup: Vec<Request>,
    /// Untimed requests that bring a fresh session to steady state
    /// (the valuations a long-running service has already seen).
    pub warmup: Vec<Request>,
    /// One timed pass.
    pub timed: Vec<Request>,
}

impl Workload {
    /// Generate workload `name` from `seed`.
    pub fn generate(name: &str, seed: u64, scale: Scale) -> Result<Workload, String> {
        let mut rng = SplitMix64(seed ^ 0x5eed_ba5e_c0de_0001);
        let smoke = scale == Scale::Smoke;
        match name {
            "skewed_runs" => Ok(skewed_runs(&mut rng, smoke)),
            "param_valuations" => Ok(param_valuations(&mut rng, smoke)),
            other => Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            )),
        }
    }

    /// A `plan` request for shape `s`, by source.
    pub fn plan_text(&self, s: usize) -> String {
        let plan = request(Op::Plan, s, Vec::new(), 0);
        render_request(&self.shapes[s], &plan)
    }

    /// Every request of the workload, setup first.
    pub fn all(&self) -> impl Iterator<Item = &Request> {
        self.setup.iter().chain(&self.warmup).chain(&self.timed)
    }

    /// Render every request's wire text.
    pub fn render(&mut self) {
        let shapes = &self.shapes;
        for r in self
            .setup
            .iter_mut()
            .chain(&mut self.warmup)
            .chain(&mut self.timed)
        {
            r.text = render_request(&shapes[r.shape], r);
        }
    }
}

fn render_request(shape: &Shape, r: &Request) -> String {
    let params = shape
        .params
        .iter()
        .map(|p| Json::Str((*p).into()))
        .collect();
    let mut fields = vec![
        ("op".to_string(), Json::Str(r.op.name().into())),
        ("source".into(), Json::Str(shape.source.clone())),
        ("params".into(), Json::Arr(params)),
    ];
    if r.op == Op::Run {
        let values = r
            .values
            .iter()
            .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
            .collect();
        fields.push(("values".into(), Json::Obj(values)));
        fields.push(("seed".into(), Json::Num(r.seed as f64)));
    }
    json::render(&Json::Obj(fields))
}

fn request(op: Op, shape: usize, values: Vec<(&'static str, i64)>, seed: u64) -> Request {
    Request {
        op,
        shape,
        values,
        seed,
        first_contact: false,
        text: String::new(),
    }
}

/// A memory seed that depends on the run seed and the request's key, so
/// equal requests in one run share one oracle reference.
fn memory_seed(rng_seed: u64, key: i64) -> u64 {
    SplitMix64(rng_seed ^ (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64() % 1_000_000
}

// ---------------------------------------------------------------------
// skewed_runs: one shape, N from a narrow band.
// ---------------------------------------------------------------------

/// The triangular recurrence: box ~ iteration space, skewed group cost.
const TRIANGLE: &str = "for i = 0..=N { for j = 1..=i { A[i, j] = A[i, j - 1] + 1; } }";

/// Every N of the band appears `copies` times per pass, in seeded order,
/// so the cost mix of a pass does not depend on the seed; the setup run
/// uses the band's middle N for the same reason. `tail` adds `tail.1`
/// runs at the larger `N = tail.0` to every pass: a designed class of
/// ~4.5% of requests, so the p99 sits a few points inside a class of
/// known cost instead of on whatever the machine did in the slowest 1%
/// of the run.
fn band_runs(
    rng: &mut SplitMix64,
    source: &str,
    band: (i64, i64, i64),
    copies: usize,
    tail: (i64, usize),
) -> Workload {
    let (lo, hi, step) = band;
    let run_seed = rng.next_u64();
    let run = |n: i64| request(Op::Run, 0, vec![("N", n)], memory_seed(run_seed, n));
    let mid = lo + (hi - lo) / step / 2 * step;
    let mut timed = Vec::new();
    for _ in 0..copies {
        timed.extend((lo..=hi).step_by(step as usize).map(run));
    }
    timed.extend(std::iter::repeat_with(|| run(tail.0)).take(tail.1));
    rng.shuffle(&mut timed);
    Workload {
        shapes: vec![Shape {
            source: source.into(),
            params: vec!["N"],
        }],
        setup: vec![run(mid)],
        warmup: Vec::new(),
        timed,
    }
}

/// N in 600..=700 step 5 twice per pass plus 2 runs at N = 900: 44 runs,
/// 4.5% in the tail class.
fn skewed_runs(rng: &mut SplitMix64, smoke: bool) -> Workload {
    let (band, tail) = if smoke {
        ((20, 30, 5), (40, 1))
    } else {
        ((600, 700, 5), (900, 2))
    };
    band_runs(rng, TRIANGLE, band, 2, tail)
}

// ---------------------------------------------------------------------
// param_valuations: the three inspector verdict shapes.
// ---------------------------------------------------------------------

/// One inspected shape: where its valuations come from and how many
/// requests of a pass name it.
struct Inspected {
    source: String,
    /// The valuation the setup request uses (fixed, so setup cost does
    /// not depend on the seed).
    setup_k: i64,
    /// Candidate valuations; the seed picks the pools from these.
    candidates: Vec<i64>,
    /// Requests per pass on already-seen valuations.
    cached: usize,
    /// Requests per pass on valuations new to the session.
    fresh: usize,
}

/// Shares per pass: certified 66%, refined 17%, rejected 17%; 5% of all
/// requests are first contacts (certified 1%, refined 2%, rejected 2%).
/// Measured at the defining commit: rejected cached 0.25-0.7 ms,
/// refined cached 0.5-1.2 ms, certified (interval hit) 0.8-1.7 ms,
/// rejected first contact 8-20 ms, refined first contact 30-75 ms. p50
/// falls 20 points inside the certified class; p99 in the middle of the
/// refined first-contact class.
fn param_valuations(rng: &mut SplitMix64, smoke: bool) -> Workload {
    let (side, chain, scale) = if smoke { (12, 400, 20) } else { (60, 4000, 1) };
    let shapes = [
        // Paper 4.1 shifted by K: certified at every K; after the setup
        // audit every valuation is a stability-interval hit.
        Inspected {
            source: format!(
                "for i1 = 0..={m} {{ for i2 = 0..={m} {{ \
                 A[5*i1 + i2 + K, 7*i1 + 2*i2] = A[i1 + i2 + 4 + K, i1 + 2*i2 + 6] + 1; }} }}",
                m = side - 1
            ),
            setup_k: 0,
            candidates: (-100..=400).filter(|k| *k != 0).collect(),
            cached: 260 / scale,
            fresh: 4 / scale.min(4),
        },
        // Row shift: refined (staged) for K in 21..=59 at side 60. K
        // below 31 takes three stages and a first contact costs ~1.5x
        // one at K >= 31 (two stages), so valuations come from 31..=59
        // and the seed does not move the cost of the p99 class.
        Inspected {
            source: format!(
                "for i1 = 0..={m} {{ for i2 = 0..={m} {{ A[i1 + K, i2] = A[i1, i2] \
                 + B[2*i1 + i2, i1] + C[i1 + 2*i2, i2] + D[i1 + i2, 2*i1] + 1; }} }}",
                m = side - 1
            ),
            setup_k: 40,
            candidates: (31..=59).filter(|k| *k != 40).collect(),
            cached: 60 / scale,
            fresh: 8 / scale.min(8),
        },
        // Parity chain: rejected (sequential) at every odd K.
        Inspected {
            source: format!(
                "for i = 0..={c} {{ A[i + K] = A[i - 2] + 1; }}",
                c = chain - 1
            ),
            setup_k: 51,
            candidates: (1..=101).step_by(2).filter(|k| *k != 51).collect(),
            cached: 60 / scale,
            fresh: 8 / scale.min(8),
        },
    ];
    const SEEN: usize = 4;
    let run_seed = rng.next_u64();
    let run = |s: usize, k: i64| {
        let key = k * 4 + s as i64;
        request(Op::Run, s, vec![("K", k)], memory_seed(run_seed, key))
    };
    let mut setup = Vec::new();
    let mut warmup = Vec::new();
    let mut timed = Vec::new();
    for (s, shape) in shapes.iter().enumerate() {
        setup.push(run(s, shape.setup_k));
        // One valuation per stratum of the candidate range, so every
        // seed draws the same spread of costs; the seen ones are spread
        // evenly over the strata.
        let picks = stratified(rng, &shape.candidates, SEEN - 1 + shape.fresh);
        let stride = picks.len() / (SEEN - 1);
        let (seen, fresh): (Vec<_>, Vec<_>) = picks
            .iter()
            .enumerate()
            .partition(|(i, _)| i % stride == stride / 2 && i / stride < SEEN - 1);
        let seen: Vec<i64> = std::iter::once(shape.setup_k)
            .chain(seen.into_iter().map(|(_, &k)| k))
            .collect();
        warmup.extend(seen[1..].iter().map(|&k| run(s, k)));
        timed.extend((0..shape.cached).map(|i| run(s, seen[i % seen.len()])));
        for (_, &k) in fresh {
            let mut r = run(s, k);
            r.first_contact = true;
            timed.push(r);
        }
    }
    rng.shuffle(&mut timed);
    Workload {
        shapes: shapes
            .into_iter()
            .map(|s| Shape {
                source: s.source,
                params: vec!["K"],
            })
            .collect(),
        setup,
        warmup,
        timed,
    }
}

/// One uniformly drawn element from each of `n` equal strata of
/// `candidates`, in order.
fn stratified(rng: &mut SplitMix64, candidates: &[i64], n: usize) -> Vec<i64> {
    (0..n)
        .map(|k| {
            let (lo, hi) = (k * candidates.len() / n, (k + 1) * candidates.len() / n);
            candidates[lo + rng.below(hi - lo)]
        })
        .collect()
}

// ---------------------------------------------------------------------
// Seeded randomness (no dependency: the sequence must never change
// under the benchmark).
// ---------------------------------------------------------------------

/// splitmix64.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
