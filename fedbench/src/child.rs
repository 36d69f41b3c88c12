//! One measured run, executed in a child process of its own: set-up,
//! `Simulation::run`, the correctness check and — for the traced run —
//! the per-layer readout. The result travels to the driver as one JSON
//! line on stdout.

use crate::workload::{Spec, Workload};
use crate::{stats, timed};
use std::sync::Arc;
use taco_sim::{History, Simulation};
use taco_trace as trace;
use taco_trace::Value;

/// Prefix of the child's result line on stdout.
pub const RESULT_TAG: &str = "FEDBENCH_CHILD ";

/// What set-up cost, phase by phase.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Data synthesis + partition.
    pub data_s: f64,
    /// Model, algorithm and config construction.
    pub parts_s: f64,
    /// `Simulation::new`.
    pub sim_new_s: f64,
    /// Worker-pool spin-up.
    pub pool_s: f64,
}

impl SetupTimes {
    /// Everything before round 0.
    pub fn total(&self) -> f64 {
        self.data_s + self.parts_s + self.sim_new_s + self.pool_s
    }
}

/// Builds the workload's simulation, timing each set-up phase.
pub fn set_up(workload: Workload, seed: u64) -> (Simulation, SetupTimes) {
    let (fed, data_s) = timed(|| workload.data(seed));
    let (parts, parts_s) = timed(|| workload.parts(fed, seed));
    let (sim, sim_new_s) =
        timed(|| Simulation::new(parts.fed, parts.model, parts.algorithm, parts.config));
    let (_, pool_s) = timed(taco_tensor::pool::global);
    let times = SetupTimes {
        data_s,
        parts_s,
        sim_new_s,
        pool_s,
    };
    (sim, times)
}

/// The per-run correctness check. Returns every problem found; an
/// empty list passes.
pub fn check(history: &History, spec: &Spec) -> Vec<String> {
    let mut problems = Vec::new();
    if history.rounds.len() != spec.rounds {
        problems.push(format!(
            "recorded {} of {} rounds",
            history.rounds.len(),
            spec.rounds
        ));
    }
    if let Some(r) = history
        .rounds
        .iter()
        .find(|r| !(r.train_loss.is_finite() && r.test_loss.is_finite()))
    {
        problems.push(format!("non-finite loss in round {}", r.round));
    }
    if history.rounds_to_accuracy(spec.target).is_none() {
        problems.push(format!(
            "never reached the {:.2} target (best {:.4})",
            spec.target,
            history.best_accuracy()
        ));
    }
    if history.final_accuracy() < spec.floor {
        problems.push(format!(
            "final accuracy {:.4} below the {:.2} floor",
            history.final_accuracy(),
            spec.floor
        ));
    }
    problems
}

/// User+system CPU seconds of this process so far, from
/// `/proc/self/stat` (clock ticks of the fixed 100 Hz `USER_HZ`).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / 100.0,
        _ => f64::NAN,
    }
}

fn num(key: &str, v: f64) -> (String, Value) {
    (key.to_string(), Value::F64(v))
}

/// Runs one child: set-up, the rounds, the check, and (when `traced`)
/// the per-layer readout; returns the result object.
pub fn run(workload: Workload, seed: u64, traced: bool) -> Value {
    let cpu_start = cpu_seconds();
    let spec = workload.spec();
    let (sim, setup) = set_up(workload, seed);
    let sink = traced.then(|| {
        let sink = Arc::new(trace::MemorySink::new());
        trace::set_sink(sink.clone());
        sink
    });
    let before = trace::snapshot();
    let run_cpu_start = cpu_seconds();
    let (history, run_s) = timed(|| sim.run());
    let run_cpu_s = cpu_seconds() - run_cpu_start;
    let after = trace::snapshot();
    if sink.is_some() {
        trace::clear_sink();
    }
    let problems = check(&history, &spec);
    let accuracy: Vec<f64> = history.rounds.iter().map(|r| r.test_accuracy).collect();
    let rounds_to_target = stats::rounds_to_target(&accuracy, spec.target);
    let mut fields = vec![
        (
            "digest".to_string(),
            Value::from(format!("{:016x}", stats::digest(&history))),
        ),
        (
            "problems".to_string(),
            Value::array(problems.iter().map(String::as_str)),
        ),
        num("setup_s", setup.total()),
        num("run_s", run_s),
        num("run_cpu_s", run_cpu_s),
        num("final_accuracy", history.final_accuracy()),
        num(
            "upload_bytes_per_round",
            history.total_upload_bytes() as f64 / history.rounds.len().max(1) as f64,
        ),
    ];
    if let Some(r) = rounds_to_target {
        fields.push(num("rounds_to_target", r));
        fields.push(num(
            "time_to_target_s",
            stats::time_to_target(r, run_s, history.rounds.len()),
        ));
    }
    if let Some(sink) = sink {
        let layers = crate::probe::layers(&crate::probe::Run {
            workload,
            seed,
            history: &history,
            rounds: &sink.events_of_kind("round"),
            setup,
            run_s,
            run_cpu_s,
            before: &before,
            after: &after,
        });
        fields.extend(layers.into_iter().map(|(k, v)| num(k, v)));
    }
    fields.push(num("cpu_s", cpu_seconds() - cpu_start));
    fields.push(num(
        "peak_rss_mib",
        trace::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0)),
    ));
    Value::object(fields)
}
