//! A fixed reference workload that tells how fast the machine is
//! running right now, so the end-to-end times can be reported at one
//! reference speed.
//!
//! The benchmark's host is shared. Its speed changes by up to 2× from
//! one minute to the next, both in how fast a CPU runs (cache and
//! memory contention from other tenants) and in how much of each CPU's
//! time the host takes away (steal), so the same program reads a
//! different time in every run. Between passes the benchmark runs
//! slices of fixed work that do not call the program, one lane per CPU
//! at once, as the program's parallel regions run: a strided
//! read-modify-write sweep over a buffer twice the size of a core's L2.
//! A run's *speed* is [`NOMINAL_SLICE_S`] ÷ the median slice time of
//! the run. A program time `t` is reported as `t × speed^ELASTICITY`:
//! the time it would have taken at the speed of the machine the
//! benchmark was defined on ([`ELASTICITY`] says why the power).
//!
//! The slices never touch the program's state, so a change to the
//! program moves its reported times in full; only the machine's speed
//! divides out.

use crate::Histogram;
use std::time::{Duration, Instant};

/// Buffer length in u64 words: 4 MiB.
const WORDS: usize = 1 << 19;

/// Words updated by one slice (about 1 ms).
const SLICE_STEPS: u32 = 250_000;

/// Odd stride in words: each step lands on another cache line, and
/// `WORDS` steps visit every word.
const STRIDE: usize = 4099;

/// About the median slice time on the defining machine (a 2-CPU Xeon
/// guest), where runs read a speed of 0.85-1.2: the slice time at which
/// `speed` reads 1.
pub const NOMINAL_SLICE_S: f64 = 1.2e-3;

/// One CPU's share of the reference: its buffer and where the sweep
/// stands.
struct Lane {
    buf: Vec<u64>,
    at: usize,
}

impl Lane {
    fn slice(&mut self) {
        let mut acc = 0u64;
        let mut at = self.at;
        for _ in 0..SLICE_STEPS {
            acc = acc.wrapping_add(self.buf[at]);
            self.buf[at] = acc;
            at = (at + STRIDE) & (WORDS - 1);
        }
        self.at = std::hint::black_box(at);
    }
}

/// The reference lanes and the slice times measured so far.
pub struct Reference {
    lanes: Vec<Lane>,
    /// Slice times, ns.
    pub slices: Histogram,
}

impl Reference {
    /// One lane per available CPU. Each slice is a parallel region: one
    /// lane on the calling thread and one on a freshly spawned thread
    /// per further lane, joined at the end, as the program's pool runs
    /// its regions.
    pub fn new() -> Reference {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let lanes = (0..cpus)
            .map(|_| Lane {
                buf: (0..WORDS as u64).collect(),
                at: 0,
            })
            .collect();
        Reference {
            lanes,
            slices: Histogram::new(),
        }
    }

    fn slice(&mut self) -> Duration {
        let t = Instant::now();
        let (first, rest) = self.lanes.split_at_mut(1);
        std::thread::scope(|s| {
            for lane in rest {
                s.spawn(move || lane.slice());
            }
            first[0].slice();
        });
        t.elapsed()
    }

    /// Run slices for about `budget_s` seconds, at least two.
    pub fn sample(&mut self, budget_s: f64) {
        let t = Instant::now();
        let mut taken = 0;
        while taken < 2 || t.elapsed().as_secs_f64() < budget_s {
            let ns = self.slice().as_nanos();
            self.slices.record(&[u32::try_from(ns).unwrap_or(u32::MAX)]);
            taken += 1;
        }
    }

    /// The buffers' size in MB (2^20 bytes). They are resident from
    /// [`Reference::new`] on, so they add exactly this to the process's
    /// peak resident set.
    pub fn resident_mb(&self) -> f64 {
        (self.lanes.len() * WORDS * std::mem::size_of::<u64>()) as f64 / f64::from(1 << 20)
    }
}

/// How far program times move per move of the reference, on a log
/// scale: when the slices of a run take 2× as long, the program's times
/// are taken to be 2^1.9 = 3.7× as long. When the host's speed swings,
/// the program swings further than the sweep does. Fitted once on the
/// defining machine from three sets of runs through `BENCHMARK.json`'s
/// command (20 runs of `skewed_runs` and 18 of `param_valuations`, 30 and
/// 40 s): over every set, workload and time metric, the largest
/// quartile spread was 0.52 at an elasticity of 1, 0.34 at 1.5 and 0.20
/// at 1.9, the smallest.
pub const ELASTICITY: f64 = 1.9;

/// The machine's speed relative to the defining machine, from the
/// reference slice times of a run: above 1 when it ran faster.
pub fn speed(slices: &Histogram) -> f64 {
    NOMINAL_SLICE_S * 1e3 / slices.quantile_ms(0.5)
}

/// What a program time measured at `speed` is multiplied by to give
/// the time at the defining machine's speed.
pub fn time_scale(speed: f64) -> f64 {
    speed.powf(ELASTICITY)
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}
