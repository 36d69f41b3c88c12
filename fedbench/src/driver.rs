//! The parent process. Every run is a fresh child process with an
//! explicit configuration, so a crash, a hang or a failed check costs
//! exactly that run: it is counted in `failed_runs` and is never
//! retried, dropped or re-seeded. Metrics are medians over the runs
//! that passed.

use crate::child::RESULT_TAG;
use crate::stats::median;
use std::io::Read;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use taco_trace::Value;

/// How one child run ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Exited cleanly and passed the correctness check.
    Passed(Value),
    /// Exited cleanly but failed the check (the problems are listed).
    Rejected(Value, Vec<String>),
    /// Died by a signal, exited non-zero, timed out, printed no
    /// result, or never started because the set's deadline passed.
    Failed(String),
}

impl Outcome {
    /// `true` for [`Outcome::Passed`].
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Passed(_))
    }

    /// The result object of a child that exited cleanly.
    pub fn report(&self) -> Option<&Value> {
        match self {
            Outcome::Passed(v) | Outcome::Rejected(v, _) => Some(v),
            Outcome::Failed(_) => None,
        }
    }
}

/// A number from a child's result object.
fn number(report: &Value, key: &str) -> Option<f64> {
    report.get(key).and_then(Value::as_f64)
}

fn digest_of(report: &Value) -> Option<&str> {
    report.get("digest").and_then(Value::as_str)
}

/// Human-readable name of a terminating signal.
fn signal_name(sig: i32) -> &'static str {
    match sig {
        4 => "SIGILL",
        6 => "SIGABRT",
        7 => "SIGBUS",
        9 => "SIGKILL",
        11 => "SIGSEGV",
        _ => "signal",
    }
}

/// Runs `cmd` to completion (killing it after `timeout`) and classifies
/// how it ended. The child's stderr passes through; its stdout is
/// scanned for the result line.
fn run_child(mut cmd: Command, timeout: Duration) -> Outcome {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return Outcome::Failed(format!("could not start: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // taco-check: allow(thread-spawn, drains the child's stdout so a full pipe never blocks it; joined below and never runs simulation work)
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        out
    });
    // taco-check: allow(wall-clock, run time limit of a child process, never simulated time)
    let start = Instant::now();
    let (status, timed_out) = loop {
        match child.try_wait() {
            Ok(Some(status)) => break (Some(status), false),
            Ok(None) if start.elapsed() >= timeout => {
                let _ = child.kill();
                break (child.wait().ok(), true);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Outcome::Failed(format!("could not wait: {e}"));
            }
        }
    };
    let out = reader.join().unwrap_or_default();
    if timed_out {
        return Outcome::Failed(format!("timed out after {:.0} s", timeout.as_secs_f64()));
    }
    match status {
        Some(s) if s.success() => {}
        Some(s) => {
            return Outcome::Failed(match s.signal() {
                Some(sig) => format!("killed by signal {sig} ({})", signal_name(sig)),
                None => format!("exited with {s}"),
            })
        }
        None => return Outcome::Failed("lost its exit status".into()),
    }
    let Some(line) = out.lines().rev().find_map(|l| l.strip_prefix(RESULT_TAG)) else {
        return Outcome::Failed("printed no result".into());
    };
    let report = match taco_trace::json::parse(line) {
        Ok(v) => v,
        Err(e) => return Outcome::Failed(format!("unreadable result: {e}")),
    };
    let problems: Vec<String> = match report.get("problems") {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect(),
        _ => vec!["result lacks its check verdict".into()],
    };
    if problems.is_empty() {
        Outcome::Passed(report)
    } else {
        Outcome::Rejected(report, problems)
    }
}

/// Runs every command in order, one child at a time. A child is
/// killed after `per_run`, or at `deadline` if that comes first; one
/// not yet started by the deadline is counted as failed, never skipped.
pub fn run_set(
    commands: impl IntoIterator<Item = Command>,
    per_run: Duration,
    deadline: Instant,
) -> Vec<Outcome> {
    commands
        .into_iter()
        .map(|cmd| {
            // taco-check: allow(wall-clock, time left of the set's budget, never simulated time)
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                Outcome::Failed("not started: the run's time limit had passed".into())
            } else {
                run_child(cmd, per_run.min(left))
            }
        })
        .collect()
}

/// Rejects every clean run whose trajectory digest differs from the
/// first clean run's: one seed must give one trajectory, whatever the
/// scheduling or tracing. Returns the reference digest.
pub fn enforce_one_digest(outcomes: &mut [Outcome]) -> Option<String> {
    let reference = outcomes
        .iter()
        .find_map(|o| o.report().and_then(digest_of))?
        .to_string();
    for o in outcomes.iter_mut() {
        let differs = o
            .report()
            .and_then(digest_of)
            .is_some_and(|d| d != reference);
        if differs {
            let (report, mut problems) = match std::mem::replace(o, Outcome::Failed(String::new()))
            {
                Outcome::Passed(v) => (v, Vec::new()),
                Outcome::Rejected(v, p) => (v, p),
                Outcome::Failed(_) => unreachable!("failed runs carry no digest"),
            };
            problems.push(format!(
                "trajectory digest {} differs from {reference}",
                digest_of(&report).unwrap_or("?")
            ));
            *o = Outcome::Rejected(report, problems);
        }
    }
    Some(reference)
}

/// The values of `key` over the runs that exited cleanly, in run
/// order. A run that failed the check still measured its time; the
/// verdict, not the metric, reports the failure.
pub fn values_of(outcomes: &[&Outcome], key: &str) -> Vec<f64> {
    outcomes
        .iter()
        .filter_map(|o| o.report().and_then(|r| number(r, key)))
        .collect()
}

/// Median of `key` over the runs that exited cleanly (`NaN` when none
/// has it).
pub fn median_of(outcomes: &[&Outcome], key: &str) -> f64 {
    median(&values_of(outcomes, key))
}

/// One line per run that did not pass, for the report.
pub fn failure_lines(outcomes: &[Outcome]) -> Vec<String> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o {
            Outcome::Passed(_) => None,
            Outcome::Rejected(_, p) => Some(format!("run {i}: failed the check: {}", p.join("; "))),
            Outcome::Failed(why) => Some(format!("run {i}: {why}")),
        })
        .collect()
}
