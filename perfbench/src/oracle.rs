//! The correctness gate: every `run` checksum against the sequential
//! interpreter on identically seeded memory, and a stable `shape_hash`
//! on every response that carries one.

use crate::workload::{Op, Request, Workload};
use pdm_runtime::Memory;
use pdm_service::json::{self, Json};
use pdm_service::{PdmError, Session};
use std::collections::BTreeMap;

/// Wrapping sum over every array cell: the digest a `run` response
/// carries.
pub fn checksum(memory: &Memory) -> i64 {
    memory
        .snapshot()
        .iter()
        .flat_map(|a| a.iter())
        .fold(0i64, |acc, &v| acc.wrapping_add(v))
}

/// What one response said that the gate checks; a missing field is
/// `None`, never a parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub ok: bool,
    pub shape_hash: Option<String>,
    pub checksum: Option<f64>,
    pub iterations: Option<f64>,
}

impl Observed {
    pub fn parse(body: &str) -> Result<Observed, String> {
        let doc = json::parse(body).map_err(|e| format!("response is not JSON ({e}): {body}"))?;
        Ok(Observed::from_doc(&doc))
    }

    pub fn from_doc(doc: &Json) -> Observed {
        Observed {
            ok: doc.get("ok") == Some(&Json::Bool(true)),
            shape_hash: doc.get_str("shape_hash").map(str::to_string),
            checksum: doc.get_num("checksum"),
            iterations: doc.get_num("iterations"),
        }
    }

    /// The fields that must repeat exactly when the same request is
    /// replayed on a fresh session.
    fn digest(&self) -> (Option<&str>, Option<f64>, Option<f64>) {
        (self.shape_hash.as_deref(), self.checksum, self.iterations)
    }
}

type Key = (usize, Vec<(&'static str, i64)>, u64);

fn key(r: &Request) -> Key {
    (r.shape, r.values.clone(), r.seed)
}

/// Reference `(checksum, iterations)` per distinct `(shape, valuation,
/// seed)` of the workload's runs, from `pdm_runtime::run_sequential`.
pub fn references(w: &Workload) -> Result<BTreeMap<Key, (i64, u64)>, PdmError> {
    let session = Session::new();
    let mut refs = BTreeMap::new();
    for r in w.all().filter(|r| r.op == Op::Run) {
        if refs.contains_key(&key(r)) {
            continue;
        }
        let nest = session.parse_with(&w.shapes[r.shape].source, &r.values)?;
        let mut memory = Memory::for_nest(&nest)?;
        memory.init_deterministic(r.seed);
        let iterations = pdm_runtime::run_sequential(&nest, &memory)?;
        refs.insert(key(r), (checksum(&memory), iterations));
    }
    Ok(refs)
}

/// Collects correctness failures. Each request's response from the first
/// pass is kept and checked against the oracle at the end; every later
/// pass must repeat it exactly.
pub struct Gate {
    hashes: Vec<String>,
    first: Vec<Option<Observed>>,
    pub failures: Vec<String>,
}

impl Gate {
    /// `requests` is the number of requests in one pass (setup, warm-up
    /// and timed together); `hashes` the discovered shape hashes.
    pub fn new(requests: usize, hashes: Vec<String>) -> Gate {
        Gate {
            hashes,
            first: vec![None; requests],
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Record the response to request number `idx` of a pass.
    pub fn observe(&mut self, idx: usize, r: &Request, seen: Observed) {
        if let Some(hash) = &seen.shape_hash {
            if *hash != self.hashes[r.shape] {
                self.fail(format!(
                    "shape {} answered shape_hash {hash}, first seen as {}",
                    r.shape, self.hashes[r.shape]
                ));
            }
        }
        if !seen.ok {
            return;
        }
        match &self.first[idx] {
            None => self.first[idx] = Some(seen),
            Some(first) if first.digest() != seen.digest() => {
                let msg = format!("request {:?} answered {seen:?}, earlier {first:?}", r.text);
                self.fail(msg);
            }
            Some(_) => {}
        }
    }

    /// Check every recorded `run` response against the oracle.
    pub fn check_runs(&mut self, w: &Workload) -> Result<(), PdmError> {
        let refs = references(w)?;
        for (idx, r) in w.all().enumerate() {
            let Some(seen) = self.first[idx].clone() else {
                continue;
            };
            if r.op != Op::Run {
                continue;
            }
            let (sum, iters) = refs[&key(r)];
            if seen.checksum != Some(sum as f64) || seen.iterations != Some(iters as f64) {
                self.fail(format!(
                    "run {:?}: checksum {:?} iterations {:?}, sequential oracle {sum} / {iters}",
                    r.text, seen.checksum, seen.iterations
                ));
            }
        }
        Ok(())
    }
}
