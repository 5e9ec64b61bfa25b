//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, samples or base), then
//! as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when a response disagrees with the sequential oracle, 2 on a
//! usage or set-up error.
//!
//! An untraced run measures in [`PROCESSES`] fresh processes of this
//! program, one after the other, each for an equal share of the time,
//! and merges what they measured. The program's memory allocator
//! settles into one of two states per process: in about one process in
//! three on `param_valuations` every pass takes ~20k more page faults
//! and ~15% more time. A single process would report whichever state it
//! drew. A process started with `--part 1` measures and prints only its
//! [`Part`] record.

use perfbench::workload::Scale;
use perfbench::{Options, Outcome, Part};
use std::process::{Command, ExitCode, Stdio};

/// Processes an untraced run measures in.
const PROCESSES: usize = 6;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        spans_out: None,
    };
    let mut part = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| opts.seconds = v).is_ok(),
            "--trace" | "--part" => match value.as_str() {
                "0" | "1" => {
                    if flag == "--trace" {
                        opts.trace = value == "1";
                    } else {
                        part = value == "1";
                    }
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    if part && opts.trace {
        return usage("--part 1 measures untraced only");
    }
    if opts.trace {
        let file = format!("{}-seed{}.spans.tsv", opts.workload, opts.seed);
        opts.spans_out = Some(["perfbench", "out", &file].iter().collect());
    }

    if part {
        return match perfbench::measure(&opts) {
            Ok((p, _)) => {
                println!("{}", p.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => failed(&e),
        };
    }
    let outcome = if opts.trace {
        perfbench::run(&opts)
    } else {
        in_processes(&opts)
    };
    match outcome {
        Ok(o) => {
            report(&opts, &o);
            if o.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => failed(&e),
    }
}

fn failed(e: &str) -> ExitCode {
    eprintln!("perfbench: {e}");
    ExitCode::from(2)
}

/// Measure in [`PROCESSES`] child processes, one at a time, and merge.
fn in_processes(opts: &Options) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let seconds = (opts.seconds / PROCESSES as f64).to_string();
    let seed = opts.seed.to_string();
    let mut parts = Vec::with_capacity(PROCESSES);
    for k in 0..PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", &opts.workload, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0", "--part", "1"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting process {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("process {k} failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or_default();
        parts.push(Part::from_json(line).map_err(|e| format!("process {k}: {e}"))?);
    }
    Ok(Outcome::of(&parts, perfbench::end_to_end(&parts)))
}

fn report(opts: &Options, outcome: &Outcome) {
    let mode = if opts.trace { "traced" } else { "untraced" };
    println!("perfbench {} seed={} {mode}:", opts.workload, opts.seed);
    for m in &outcome.metrics {
        println!(
            "  {:<28} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  requests: {} attempted, {} failed; oracle: {}",
        outcome.attempted,
        outcome.failed,
        if outcome.correct() {
            "every check passed"
        } else {
            "MISMATCH"
        }
    );
    for f in &outcome.failures {
        eprintln!("perfbench: correctness: {f}");
    }
    println!("{}", outcome.json_line());
}
