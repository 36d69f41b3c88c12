//! The traced run's per-layer readout.
//!
//! Three sources, none of which adds a span inside the program:
//!
//! 1. the runner's existing `round` events, caught by the benchmark's
//!    in-memory sink (phase seconds, round times, client times);
//! 2. deltas of the process registry across `Simulation::run` (sums
//!    and counters only — never the power-of-two bucket quantiles);
//! 3. probes: the benchmark's own timed calls into each crate's public
//!    functions on inputs of the workload's real shape (one round's
//!    local updates, their encodings, the workload's backend).

use crate::child::SetupTimes;
use crate::stats::{median, percentile};
use crate::timed;
use crate::workload::Workload;
use taco_core::compress::codec_stream;
use taco_core::{update, ClientUpdate};
use taco_sim::History;
use taco_tensor::Prng;
use taco_trace::{Event, Snapshot, Span};

/// Everything the readout needs from the traced run.
pub struct Run<'a> {
    /// The workload that ran.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The run's trajectory.
    pub history: &'a History,
    /// The runner's `round` events, in order.
    pub rounds: &'a [Event],
    /// The run's set-up phases.
    pub setup: SetupTimes,
    /// Wall seconds of `Simulation::run`.
    pub run_s: f64,
    /// CPU seconds (all threads) of `Simulation::run`.
    pub run_cpu_s: f64,
    /// Registry before the run.
    pub before: &'a Snapshot,
    /// Registry after the run.
    pub after: &'a Snapshot,
}

/// Quiet spans timed for the `trace.span_ns` probe.
const SPAN_PROBE_REPS: u32 = 20_000;
/// The name the span-cost probe records under.
const SPAN_PROBE: &str = "fedbench.span_probe";

fn field(e: &Event, key: &str) -> f64 {
    e.field(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn hist_sum(s: &Snapshot, name: &str) -> f64 {
    s.histograms
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, h)| h.sum)
}

fn count(s: &Snapshot, name: &str) -> f64 {
    s.counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, c)| *c as f64)
}

/// Seconds of histogram `<name>.seconds` spent during the run.
fn secs_in(run: &Run, names: &[&str]) -> f64 {
    names
        .iter()
        .map(|n| {
            let key = format!("{n}.seconds");
            hist_sum(run.after, &key) - hist_sum(run.before, &key)
        })
        .sum()
}

/// Work items counted by kernels `names` during the run.
fn elems_in(run: &Run, names: &[&str]) -> f64 {
    names
        .iter()
        .map(|n| {
            let key = format!("{n}.elems");
            count(run.after, &key) - count(run.before, &key)
        })
        .sum()
}

/// Per-call probe timings, in milliseconds.
struct Probes {
    step_ms: f64,
    eval_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    check_ms: f64,
    accumulate_ms: f64,
    ratio: f64,
    validate_ms: f64,
    accept_ms: f64,
    finish_ms: f64,
    span_ns: f64,
    /// Whether the run encodes its uploads at all.
    uses_codec: bool,
}

/// Runs every probe on a fresh copy of the workload's inputs: one
/// round of real local updates by the clients the run sampled first.
fn probes(workload: Workload, seed: u64, history: &History) -> Probes {
    let parts = workload.parts(workload.data(seed), seed);
    let config = parts.config;
    let hyper = config.hyper;
    let mut algorithm = parts.algorithm;
    let mut model = parts.model;
    let global = model.params();
    algorithm.begin_round(0, &global);
    let clients: Vec<usize> = history
        .rounds
        .first()
        .map(|r| r.participants.clone())
        .unwrap_or_default();

    let mut step_ms = Vec::new();
    let mut uploads = Vec::new();
    for &c in &clients {
        let rule = algorithm.local_rule(c, &global);
        let data = parts.fed.client(c);
        let mut rng = Prng::seed_from_u64(seed ^ c as u64);
        model.set_params(&global);
        let (outcome, secs) = timed(|| {
            update::run_local_steps(
                &mut *model,
                data,
                &rule,
                hyper.local_steps,
                hyper.eta_l,
                hyper.batch_size,
                &mut rng,
            )
        });
        step_ms.push(secs * 1e3 / hyper.local_steps as f64);
        uploads.push(ClientUpdate::from_outcome(c, data.len(), outcome));
    }

    model.set_params(&global);
    let eval_batches = parts.fed.test().eval_batches(config.eval_batch);
    let eval_ms: Vec<f64> = (0..3)
        .map(|_| timed(|| taco_nn::evaluate(&mut *model, &eval_batches)).1 * 1e3)
        .collect();

    let codec = workload.codec();
    let (mut encode, mut decode, mut check, mut accumulate, mut ratio) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut acc = vec![0.0f64; global.len()];
    for u in &mut uploads {
        let mut stream = codec_stream(seed, 0, u.client);
        let (enc, secs) = timed(|| codec.encode(&u.delta, &mut stream));
        encode.push(secs * 1e3);
        let (decoded, secs) = timed(|| enc.decode());
        decode.push(secs * 1e3);
        let (intact, secs) = timed(|| enc.check_integrity());
        assert!(
            intact,
            "a freshly encoded upload failed its integrity check"
        );
        check.push(secs * 1e3);
        accumulate.push(timed(|| enc.accumulate_into(&mut acc, 1.0)).1 * 1e3);
        ratio.push(enc.wire_bytes() as f64 / (u.delta.len() * 4) as f64);
        // Uploads reach the backend as the run hands them over: with
        // their encoding when a codec is configured, dense otherwise.
        if config.upload_compressor.is_some() {
            u.delta = decoded;
            u.encoded = Some(enc);
        }
    }
    std::hint::black_box(&acc);

    let policy = config
        .fault_plan
        .as_ref()
        .map(|p| p.validation)
        .unwrap_or_default();
    let validate: Vec<f64> = uploads
        .iter()
        .map(|u| timed(|| policy.validate(u)).1 * 1e3)
        .collect();

    let mut backend = config.backend.build();
    let (mut accept, mut finish) = (Vec::new(), Vec::new());
    for round in 0..3 {
        algorithm.begin_round(round, &global);
        backend.begin_round(round, &global, algorithm.as_ref());
        for u in uploads.iter().cloned() {
            accept.push(timed(|| backend.accept_update(u)).1 * 1e3);
        }
        let (agg, secs) = timed(|| backend.finish_round(&global, &hyper, algorithm.as_mut()));
        std::hint::black_box(agg);
        finish.push(secs * 1e3);
    }

    let (_, secs) = timed(|| {
        for _ in 0..SPAN_PROBE_REPS {
            Span::quiet(SPAN_PROBE).finish();
        }
    });

    Probes {
        step_ms: median(&step_ms),
        eval_ms: median(&eval_ms),
        encode_ms: median(&encode),
        decode_ms: median(&decode),
        check_ms: median(&check),
        accumulate_ms: median(&accumulate),
        ratio: median(&ratio),
        validate_ms: median(&validate),
        accept_ms: median(&accept),
        finish_ms: median(&finish),
        span_ns: secs * 1e9 / f64::from(SPAN_PROBE_REPS),
        uses_codec: config.upload_compressor.is_some(),
    }
}

/// Every per-layer metric of the traced run except
/// `trace.overhead_frac`, which compares runs and is the driver's.
pub fn layers(run: &Run) -> Vec<(&'static str, f64)> {
    let phase = |key: &str| run.rounds.iter().map(|e| field(e, key)).sum::<f64>();
    let phases = [
        ("phase.participation_s", phase("participation_secs")),
        ("phase.local_s", phase("local_secs")),
        ("phase.compress_s", phase("compress_secs")),
        ("phase.aggregate_s", phase("aggregate_secs")),
        ("phase.eval_s", phase("eval_secs")),
    ];
    let attributed: f64 = phases.iter().map(|(_, s)| s).sum();
    let round_ms: Vec<f64> = run.rounds.iter().map(|e| field(e, "secs") * 1e3).collect();
    let p50 = percentile(&round_ms, 0.5);
    let p90 = percentile(&round_ms, 0.9);

    let matmul = ["kernel.matmul", "kernel.matmul_tn", "kernel.matmul_nt"];
    let matmul_s = secs_in(run, &matmul);
    let gflops = if matmul_s > 0.0 {
        2.0 * elems_in(run, &matmul) / matmul_s / 1e9
    } else {
        0.0
    };

    let straggle: Vec<f64> = run
        .rounds
        .iter()
        .filter(|e| field(e, "clients_active") > 0.0 && field(e, "total_client_secs") > 0.0)
        .map(|e| {
            field(e, "max_client_secs")
                / (field(e, "total_client_secs") / field(e, "clients_active"))
        })
        .collect();
    let straggle = if straggle.is_empty() {
        1.0
    } else {
        straggle.iter().sum::<f64>() / straggle.len() as f64
    };

    let h = run.history;
    let total =
        |f: fn(&taco_sim::RoundRecord) -> usize| h.rounds.iter().map(f).sum::<usize>() as f64;
    let quarantined = total(|r| r.fault_totals.quarantined);
    let deadline_cut = total(|r| r.fault_totals.deadline_cuts);
    let accepted: f64 = run.rounds.iter().map(|e| field(e, "clients_active")).sum();
    let received = accepted + quarantined;

    let p = probes(run.workload, run.seed, h);
    let encoded_uploads = if p.uses_codec { received } else { 0.0 };
    let codec_share = (p.encode_ms + p.decode_ms) / 1e3 * encoded_uploads / run.run_s;
    let backend_share =
        (p.accept_ms * accepted + p.finish_ms * h.rounds.len() as f64) / 1e3 / run.run_s;

    let mut out = vec![
        ("setup.data_s", run.setup.data_s),
        ("setup.sim_new_s", run.setup.sim_new_s),
    ];
    out.extend(phases);
    out.extend([
        ("phase.unattributed_s", run.run_s - attributed),
        ("round.p50_ms", p50.map_or(f64::NAN, |p| p.value)),
        ("round.p90_ms", p90.map_or(f64::NAN, |p| p.value)),
        ("round.samples", p50.map_or(0.0, |p| p.samples as f64)),
        ("local.step_ms", p.step_ms),
        ("nn.forward_s", secs_in(run, &["nn.forward"])),
        ("nn.backward_s", secs_in(run, &["nn.backward"])),
        ("kernel.matmul_s", matmul_s),
        ("kernel.matmul.gflops", gflops),
        (
            "kernel.conv_pack_s",
            secs_in(run, &["kernel.im2col", "kernel.col2im"]),
        ),
        (
            "kernel.maxpool_s",
            secs_in(run, &["kernel.maxpool2d", "kernel.maxpool2d_bwd"]),
        ),
        (
            "pool.busy_frac",
            run.run_cpu_s / (run.run_s * taco_tensor::pool::threads() as f64),
        ),
        ("client.straggle", straggle),
        ("eval.call_ms", p.eval_ms),
        ("codec.encode_ms", p.encode_ms),
        ("codec.decode_ms", p.decode_ms),
        ("codec.check_ms", p.check_ms),
        ("codec.accumulate_ms", p.accumulate_ms),
        ("codec.ratio", p.ratio),
        ("codec.share", codec_share),
        ("server.validate_ms", p.validate_ms),
        ("backend.accept_ms", p.accept_ms),
        ("backend.finish_ms", p.finish_ms),
        ("backend.share", backend_share),
        (
            "server.accept_ratio",
            if received > 0.0 {
                accepted / received
            } else {
                1.0
            },
        ),
        ("uploads.quarantined", quarantined),
        ("uploads.deadline_cut", deadline_cut),
        ("faults.injected", total(|r| r.faults_injected)),
        ("attacks.applied", total(|r| r.attacks_applied)),
        ("clients.expelled", h.expelled_clients.len() as f64),
        ("trace.span_ns", p.span_ns),
    ]);
    out
}
