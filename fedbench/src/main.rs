//! `fedbench` command line.
//!
//! ```text
//! fedbench --workload <cnn-cifar|fleet-q8|hostile-q4|all> [--seed N] [--seconds S] [--trace 0|1]
//! fedbench child --workload <name> --seed N [--traced]
//! ```
//!
//! The first form is the driver: it runs the workload's runs, each in
//! a child process of its own (the second form), prints every metric
//! with its unit, the correctness verdict and `failed_runs`, and ends
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.

use fedbench::child;
use fedbench::driver::{self, Outcome};
use fedbench::workload::{Workload, THREADS};
use fedbench::{CONVERGENCE, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use taco_trace::Value;

/// Wall-time budget of one driver invocation, from its start; runs not
/// finished by then are killed and counted as failed.
const TIME_LIMIT: Duration = Duration::from_secs(165);
/// The fewest runs of each kind a set makes, so medians have company.
const MIN_RUNS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1).peekable();
    let child = raw.next_if(|a| a == "child").is_some();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        child,
        traced: false,
    };
    while let Some(flag) = raw.next() {
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A child invocation with an explicit configuration: no ambient
/// `TACO_*` variable reaches it, and the pool size is set outright.
fn child_command(workload: Workload, seed: u64, traced: bool) -> Command {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ]);
    if traced {
        cmd.arg("--traced");
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TACO_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("TACO_THREADS", THREADS.to_string());
    cmd
}

/// Runs in a set: as many as fit `seconds` at the workload's nominal
/// run cost, and never fewer than [`MIN_RUNS`]. A fixed count, so a
/// crash never buys another attempt.
fn runs_for(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).round() as usize).max(MIN_RUNS)
}

struct SetReport {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn bench(workload: Workload, seed: u64, seconds: f64, trace: bool) -> SetReport {
    // taco-check: allow(wall-clock, the invocation's time budget, never simulated time)
    let deadline = Instant::now() + TIME_LIMIT;
    let spec = workload.spec();
    // Traced sets alternate an untraced and a traced run of the same
    // seed; the pair gives `trace.overhead_frac`.
    let (runs, kinds): (usize, &[bool]) = if trace {
        (
            runs_for(seconds, 2.0 * spec.nominal_child_s) * 2,
            &[false, true],
        )
    } else {
        (runs_for(seconds, spec.nominal_child_s), &[false])
    };
    let plan: Vec<bool> = (0..runs).map(|i| kinds[i % kinds.len()]).collect();
    // A hung run (the pool can deadlock as well as crash) is cut off
    // long before it could eat the rest of the set's time.
    let per_run = Duration::from_secs_f64((6.0 * spec.nominal_child_s).max(30.0));
    let mut outcomes = driver::run_set(
        plan.iter()
            .map(|&traced| child_command(workload, seed, traced)),
        per_run,
        deadline,
    );
    let digest = driver::enforce_one_digest(&mut outcomes);
    let pick = |traced: bool| -> Vec<&Outcome> {
        outcomes
            .iter()
            .zip(&plan)
            .filter(|(_, &t)| t == traced)
            .map(|(o, _)| o)
            .collect()
    };
    let metrics: Vec<(&str, f64, &str)> = if trace {
        let (plain, traced) = (pick(false), pick(true));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_frac" {
                    driver::median_of(&traced, "run_s") / driver::median_of(&plain, "run_s") - 1.0
                } else {
                    driver::median_of(&traced, name)
                };
                (name, value, unit)
            })
            .collect()
    } else {
        let all = pick(false);
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, driver::median_of(&all, name), unit))
            .collect()
    };
    let passed = outcomes.iter().filter(|o| o.passed()).count();
    let rejected = outcomes.iter().any(|o| matches!(o, Outcome::Rejected(..)));
    let correct = passed > 0 && !rejected;
    let failures = driver::failure_lines(&outcomes);

    println!(
        "workload {}  seed {seed}  threads {THREADS}  runs {}  tracing {}",
        workload.name(),
        outcomes.len(),
        if trace {
            "on (alternating with off)"
        } else {
            "off"
        }
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    if !trace {
        let all = pick(false);
        for (name, unit) in CONVERGENCE {
            let value = driver::median_of(&all, name);
            println!("  {name:<24} {value:>16.6} {unit}  (not gated: varies by seed)");
        }
        let runs: Vec<String> = driver::values_of(&all, "run_s")
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect();
        println!("  run_s of each run        {}", runs.join(" "));
    }
    println!(
        "  failed_runs              {} of {}",
        failures.len(),
        outcomes.len()
    );
    for line in &failures {
        println!("    {line}");
    }
    println!(
        "  trajectory digest        {}",
        digest.as_deref().unwrap_or("(no run finished)")
    );
    println!("  correct                  {correct}");
    SetReport {
        correct,
        attempted: outcomes.len(),
        failed: failures.len(),
        metrics,
    }
}

fn result_line(report: &SetReport) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Value::object(vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::from(unit)),
                ]),
            )
        })
        .collect();
    Value::object(vec![
        ("correct".to_string(), Value::Bool(report.correct)),
        ("attempted".to_string(), Value::from(report.attempted)),
        ("failed".to_string(), Value::from(report.failed)),
        ("metrics".to_string(), Value::object(metrics)),
    ])
    .to_json()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let Some(workload) = Workload::from_name(&args.workload) else {
            eprintln!("fedbench: unknown workload {}", args.workload);
            return ExitCode::from(2);
        };
        let result = child::run(workload, args.seed, args.traced);
        println!("{}{}", child::RESULT_TAG, result.to_json());
        return ExitCode::SUCCESS;
    }
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else if let Some(w) = Workload::from_name(&args.workload) {
        vec![w]
    } else {
        eprintln!(
            "fedbench: unknown workload {} (expected all, {})",
            args.workload,
            Workload::ALL.map(Workload::name).join(", ")
        );
        return ExitCode::from(2);
    };
    let mut code = ExitCode::SUCCESS;
    for workload in workloads {
        let report = bench(workload, args.seed, args.seconds, args.trace);
        if report.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
            eprintln!(
                "fedbench: {}: no run finished cleanly, so there is nothing to report",
                workload.name()
            );
            code = ExitCode::FAILURE;
            continue;
        }
        println!("{}", result_line(&report));
    }
    code
}
