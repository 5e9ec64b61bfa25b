//! The benchmark's own tests: every workload at smoke scale with the
//! oracle on, metric names and units against `BENCHMARK.json`, seeded
//! generation, and a gate that catches a wrong checksum.

use pdm_service::json::{self, Json};
use perfbench::oracle::{Gate, Observed};
use perfbench::workload::{Op, Scale, Workload, WORKLOADS};
use perfbench::{end_to_end, measure, run, Histogram, Options, Outcome, Part};

fn opts(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.into(),
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        spans_out: None,
    }
}

fn smoke(workload: &str, trace: bool) -> Outcome {
    run(&opts(workload, trace)).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let name = m.get_str("name").expect("metric name").to_string();
            (name, m.get_str("unit").expect("metric unit").to_string())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_is_correct_and_reports_its_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = smoke(workload, trace);
            assert!(outcome.correct(), "{workload}: {:?}", outcome.failures);
            assert!(outcome.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(outcome.failed, 0, "{workload}: error responses");
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(&printed, expected, "{workload} (trace {trace})");
            for m in &outcome.metrics {
                assert!(valid_name(m.name), "bad metric name {:?}", m.name);
                assert!(!m.unit.is_empty(), "{} has no unit", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }

            let line = json::parse(&outcome.json_line()).expect("the result line is JSON");
            let Json::Obj(fields) = &line else {
                panic!("the result line is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for (name, unit) in expected {
                let m = line.get("metrics").and_then(|ms| ms.get(name));
                assert_eq!(
                    m.and_then(|m| m.get_str("unit")),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    m.and_then(|m| m.get_num("value")).is_some(),
                    "{name} has no value"
                );
            }
        }
    }
}

#[test]
fn end_to_end_metrics_measure_the_run() {
    let outcome = smoke("skewed_runs", false);
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert!(value("throughput_rps") > 0.0);
    assert!(value("latency_p50_ms") > 0.0);
    assert!(value("latency_p99_ms") >= value("latency_p50_ms"));
    assert_eq!(value("ok_ratio"), 1.0);
    assert!(value("setup_s") > 0.0);
    assert!(value("peak_rss_mb") > 0.0);
}

#[test]
fn process_records_survive_the_pipe_and_merge() {
    let parts: Vec<Part> = (0..2)
        .map(|_| {
            let (part, layers) = measure(&opts("skewed_runs", false)).expect("measures");
            assert!(
                layers.is_empty(),
                "an untraced part has no per-layer metrics"
            );
            Part::from_json(&part.to_json()).expect("the record parses back")
        })
        .collect();
    let (a, b) = (&parts[0], &parts[1]);
    let (mut wall, setup) = (a.wall_s.clone(), a.setup_s.clone());
    let again = Part::from_json(&a.to_json()).expect("parses");
    assert_eq!((again.wall_s, again.setup_s), (wall.clone(), setup));
    assert_eq!(
        again.latencies.quantile_ms(0.5),
        a.latencies.quantile_ms(0.5)
    );
    assert_eq!(again.reference.count(), a.reference.count());
    assert!(a.reference.count() >= 2 * a.wall_s.len() as u64);

    let merged = Outcome::of(&parts, end_to_end(&parts));
    assert!(merged.correct(), "{:?}", merged.failures);
    assert_eq!(merged.attempted, a.attempted + b.attempted);
    let value = |name: &str| {
        let m = merged.metrics.iter().find(|m| m.name == name);
        m.unwrap_or_else(|| panic!("{name} missing")).value
    };
    // Throughput is every request over every pass's wall time, at the
    // reference speed.
    wall.extend(&b.wall_s);
    let mut slices = Histogram::new();
    slices.merge(&a.reference);
    slices.merge(&b.reference);
    let scale = perfbench::reference::time_scale(perfbench::reference::speed(&slices));
    let rps = merged.attempted as f64 / wall.iter().sum::<f64>() / scale;
    assert!((value("throughput_rps") - rps).abs() <= 1e-9 * rps);
    assert!(value("latency_p99_ms") >= value("latency_p50_ms"));
    assert!(Part::from_json(r#"{"attempted":1}"#).is_err());
}

#[test]
fn the_latency_histogram_is_exact_to_a_thousandth() {
    let mut h = Histogram::new();
    // 1..=1000 ns exactly, then 1000 latencies from 1 us to ~4.3 s.
    let small: Vec<u32> = (1..=1000).collect();
    let large: Vec<u32> = (0..1000u64)
        .map(|k| (1_000 + k * (u64::from(u32::MAX) - 1_000) / 999) as u32)
        .collect();
    h.record(&small);
    h.record(&large);
    assert_eq!(h.count(), 2000);
    let all: Vec<u32> = small.iter().chain(&large).copied().collect();
    for q in [0.0, 0.25, 0.5, 0.51, 0.75, 0.99, 1.0] {
        // Nearest rank, as the benchmark reports it.
        let exact = f64::from(all[((q * 2000.0_f64).ceil() as usize).clamp(1, 2000) - 1]) / 1e6;
        let got = h.quantile_ms(q);
        assert!(
            (got - exact).abs() <= exact / 1024.0,
            "q={q}: {got} vs {exact}"
        );
        if exact < 1024e-6 {
            assert_eq!(got, exact, "below 1024 ns the histogram is exact");
        }
    }
    assert_eq!(Histogram::new().quantile_ms(0.5), 0.0);
}

#[test]
fn generation_is_seeded() {
    for name in WORKLOADS {
        let texts = |seed| {
            let mut w = Workload::generate(name, seed, Scale::Full).expect("known workload");
            w.render();
            w.all().map(|r| r.text.clone()).collect::<Vec<_>>()
        };
        assert_eq!(texts(3), texts(3), "{name}: same seed, same requests");
        assert_ne!(texts(3), texts(4), "{name}: the seed changes the requests");
    }
    assert!(Workload::generate("nope", 1, Scale::Full).is_err());
}

#[test]
fn param_valuations_keeps_its_class_shares() {
    let w = Workload::generate("param_valuations", 11, Scale::Full).expect("known workload");
    let n = w.timed.len() as f64;
    let share = |f: &dyn Fn(&perfbench::workload::Request) -> bool| {
        w.timed.iter().filter(|r| f(r)).count() as f64 / n
    };
    assert!((share(&|r| r.first_contact) - 0.05).abs() < 1e-9);
    assert!((share(&|r| r.shape == 0) - 0.66).abs() < 1e-9);
    // A first contact is new to the session: never in setup or warm-up,
    // and only once per pass.
    let seen: Vec<_> = w
        .setup
        .iter()
        .chain(&w.warmup)
        .map(|r| (r.shape, r.values.clone()))
        .collect();
    let fresh: Vec<_> = w
        .timed
        .iter()
        .filter(|r| r.first_contact)
        .map(|r| (r.shape, r.values.clone()))
        .collect();
    for f in &fresh {
        assert!(!seen.contains(f), "{f:?} was already seen");
        assert_eq!(fresh.iter().filter(|g| *g == f).count(), 1);
    }
}

#[test]
fn the_gate_catches_a_wrong_checksum() {
    let mut w = Workload::generate("skewed_runs", 5, Scale::Smoke).expect("known workload");
    let hashes = vec!["0x0000000000000001".to_string(); w.shapes.len()];
    w.render();
    let mut gate = Gate::new(w.all().count(), hashes.clone());
    let (idx, r) = w
        .all()
        .enumerate()
        .find(|(_, r)| r.op == Op::Run)
        .expect("a run");
    let bogus = format!(
        r#"{{"ok":true,"shape_hash":"{}","iterations":1,"checksum":12345}}"#,
        hashes[0]
    );
    gate.observe(idx, r, Observed::parse(&bogus).expect("JSON"));
    gate.check_runs(&w).expect("oracle runs");
    assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);

    let mut gate = Gate::new(w.all().count(), hashes);
    let moved = r#"{"ok":true,"shape_hash":"0x00000000000000ff"}"#;
    gate.observe(0, &w.setup[0], Observed::parse(moved).expect("JSON"));
    assert_eq!(gate.failures.len(), 1, "a changed shape_hash must fail");
}
