//! Tests of the benchmark's own machinery: failure accounting in the
//! driver and the stability of the trajectory digest.

use fedbench::child::{check, RESULT_TAG};
use fedbench::driver::{self, Outcome};
use fedbench::stats::digest;
use fedbench::workload::Workload;
use std::process::Command;
use std::time::{Duration, Instant};
use taco_sim::Simulation;

fn sh(script: &str) -> Command {
    let mut cmd = Command::new("sh");
    cmd.args(["-c", script]);
    cmd
}

fn clean_result(digest: &str) -> String {
    format!("echo '{RESULT_TAG}{{\"digest\":\"{digest}\",\"problems\":[],\"run_s\":1.5}}'")
}

#[test]
fn a_crashing_child_counts_as_failed_and_the_set_goes_on() {
    let deadline = Instant::now() + Duration::from_secs(60);
    let outcomes = driver::run_set(
        [
            sh(&clean_result("aa")),
            sh("kill -SEGV $$"),
            sh("exit 3"),
            sh("echo no result line"),
            sh(&clean_result("aa")),
        ],
        Duration::from_secs(60),
        deadline,
    );
    assert_eq!(outcomes.len(), 5, "every planned run is attempted");
    assert!(outcomes[0].passed());
    assert!(
        matches!(&outcomes[1], Outcome::Failed(why) if why.contains("signal 11")),
        "{:?}",
        outcomes[1]
    );
    assert!(matches!(&outcomes[2], Outcome::Failed(why) if why.contains("exit")));
    assert!(matches!(&outcomes[3], Outcome::Failed(why) if why.contains("no result")));
    assert!(outcomes[4].passed(), "the run after a crash still runs");
    assert_eq!(driver::failure_lines(&outcomes).len(), 3);
    let passed: Vec<&Outcome> = outcomes.iter().collect();
    assert_eq!(driver::median_of(&passed, "run_s"), 1.5);
}

#[test]
fn a_hung_child_is_killed_and_the_next_run_still_starts() {
    let deadline = Instant::now() + Duration::from_secs(60);
    let per_run = Duration::from_millis(300);
    let outcomes = driver::run_set(
        [sh("exec sleep 30"), sh(&clean_result("aa"))],
        per_run,
        deadline,
    );
    assert!(matches!(&outcomes[0], Outcome::Failed(why) if why.contains("timed out")));
    assert!(outcomes[1].passed());
}

#[test]
fn runs_left_at_the_deadline_are_failed_not_skipped() {
    let deadline = Instant::now() + Duration::from_millis(300);
    let outcomes = driver::run_set(
        [sh("exec sleep 30"), sh(&clean_result("aa"))],
        Duration::from_secs(60),
        deadline,
    );
    assert_eq!(outcomes.len(), 2);
    assert!(matches!(&outcomes[0], Outcome::Failed(why) if why.contains("timed out")));
    assert!(matches!(&outcomes[1], Outcome::Failed(why) if why.contains("not started")));
}

#[test]
fn a_run_with_another_digest_is_rejected() {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut outcomes = driver::run_set(
        [
            sh(&clean_result("aa")),
            sh(&clean_result("bb")),
            sh(&clean_result("aa")),
        ],
        Duration::from_secs(60),
        deadline,
    );
    assert_eq!(
        driver::enforce_one_digest(&mut outcomes).as_deref(),
        Some("aa")
    );
    assert!(outcomes[0].passed() && outcomes[2].passed());
    assert!(matches!(&outcomes[1], Outcome::Rejected(_, p) if p[0].contains("digest bb")));
}

/// A short cut of `hostile-q4` — the workload that touches every
/// server-side path — run twice in one process: the digest repeats for
/// one seed and moves with the seed.
#[test]
fn the_digest_is_stable_across_two_runs() {
    let run = |seed: u64| {
        let w = Workload::HostileQ4;
        let mut parts = w.parts(w.data(seed), seed);
        parts.config.rounds = 6;
        Simulation::new(parts.fed, parts.model, parts.algorithm, parts.config).run()
    };
    let (a, b) = (run(3), run(3));
    assert_eq!(a.rounds.len(), 6);
    assert_eq!(digest(&a), digest(&b));
    assert_ne!(digest(&a), digest(&run(4)));
}

#[test]
fn the_check_flags_a_run_that_misses_its_target() {
    let w = Workload::HostileQ4;
    let mut parts = w.parts(w.data(1), 1);
    parts.config.rounds = 1;
    let history = Simulation::new(parts.fed, parts.model, parts.algorithm, parts.config).run();
    let problems = check(&history, &w.spec());
    assert!(problems.iter().any(|p| p.starts_with("recorded 1 of")));
    assert!(problems.iter().any(|p| p.contains("target")));
}

/// The traced readout yields exactly the per-layer metrics the
/// benchmark declares, bar the one the driver derives from a pair of
/// runs.
#[test]
fn the_traced_readout_covers_every_declared_layer_metric() {
    let w = Workload::HostileQ4;
    let seed = 5;
    let mut parts = w.parts(w.data(seed), seed);
    parts.config.rounds = 3;
    let sim = Simulation::new(parts.fed, parts.model, parts.algorithm, parts.config);
    let _guard = taco_trace::test_guard();
    let sink = std::sync::Arc::new(taco_trace::MemorySink::new());
    taco_trace::set_sink(sink.clone());
    let before = taco_trace::snapshot();
    let history = sim.run();
    let after = taco_trace::snapshot();
    taco_trace::clear_sink();
    let (_, setup) = fedbench::child::set_up(w, seed);
    let layers = fedbench::probe::layers(&fedbench::probe::Run {
        workload: w,
        seed,
        history: &history,
        rounds: &sink.events_of_kind("round"),
        setup,
        run_s: 1.0,
        run_cpu_s: 1.0,
        before: &before,
        after: &after,
    });
    let got: Vec<&str> = layers.iter().map(|(k, _)| *k).collect();
    let want: Vec<&str> = fedbench::PER_LAYER
        .iter()
        .map(|(k, _)| *k)
        .filter(|&k| k != "trace.overhead_frac")
        .collect();
    assert_eq!(got, want);
    assert!(layers.iter().all(|(_, v)| v.is_finite()), "{layers:?}");
}
