//! Codec differential suite (see `taco_core::compress`).
//!
//! The upload codecs carry the same hard contract as the aggregation
//! backends: folding an encoded payload **decode-free** into the
//! sharded `f64` sum tables must be bit-identical to decoding it and
//! running the dense fold, at any shard count and any `TACO_THREADS`.
//! This suite enforces the contract three ways:
//!
//! - a raw-table differential over shards {1, 3, 8} × threads {1, 4},
//!   comparing every shard's `f64` sums bit-for-bit against a
//!   sequential decode-then-add reference;
//! - end-to-end simulations per codec, sequential vs sharded backends,
//!   with bit-identical histories;
//! - fault-pipeline runs proving corrupted *encodings* (a poisoned
//!   value, a broken index, a damaged scale header) are quarantined
//!   and counted in `updates_rejected`;
//! - a `NoCompression` run proving the codec plumbing is inert — its
//!   history is bit-identical to a codec-free run, so the committed
//!   goldens stay valid;
//! - runs of a model wide enough for the server's per-upload codec
//!   stage to go parallel, with corruption faults, bit-identical at
//!   threads {1, 2, 4}.
//!
//! CI runs this suite once per codec with `TACO_CODEC` pinned (like
//! the `TACO_BACKEND` matrix); locally, with the variable unset, every
//! codec is exercised in one pass.

mod common;

use std::sync::Arc;

use common::{assert_values_close, golden_run, golden_run_configured, history_value, tabular_fed};
use taco::core::compress::{
    codec_by_name, codec_from_env, codec_stream, Compressor, EncodedDelta, NoCompression,
};
use taco::core::taco::TacoConfig;
use taco::core::{AggWeighting, ClientUpdate, FedAvg, HyperParams, Taco};
use taco::nn::{Mlp, Model};
use taco::sim::{
    BackendChoice, FaultPlan, History, RejectReason, SimConfig, Simulation, ValidationPolicy,
};
use taco::tensor::pool::{self, Pool};
use taco::tensor::shard::{ShardSpec, StripedTable};
use taco::tensor::{Prng, Tensor};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The codecs this run exercises: the one pinned by `TACO_CODEC` when
/// CI's codec matrix sets it, otherwise the full registry.
fn codecs_under_test() -> Vec<Arc<dyn Compressor>> {
    match codec_from_env() {
        Some(c) => vec![c],
        None => ["none", "topk", "q8", "q4"]
            .iter()
            .map(|n| codec_by_name(n).expect("registry name"))
            .collect(),
    }
}

/// Encoded uploads for a synthetic cohort: normal deltas of varying
/// magnitude, encoded with the per-(round, client) rounding stream.
fn encoded_cohort(codec: &dyn Compressor, dim: usize, clients: usize) -> Vec<EncodedDelta> {
    let mut rng = Prng::seed_from_u64(17);
    (0..clients)
        .map(|client| {
            let delta = Tensor::randn([dim], 0.5 + client as f32, &mut rng).into_vec();
            codec.encode(&delta, &mut codec_stream(17, 0, client))
        })
        .collect()
}

#[test]
fn decode_free_folds_are_bit_identical_across_the_shard_thread_matrix() {
    let dim = 2003; // odd: shard boundaries cross Q4 nibble parity
    let clients = 5;
    let weights: [f32; 5] = [1.0, 0.25, 2.0, 0.125, 0.8125];
    for codec in codecs_under_test() {
        let cohort = encoded_cohort(codec.as_ref(), dim, clients);
        // Reference: decode every payload, then the sequential
        // client-order widening fold per dimension.
        let mut reference = vec![0.0f64; dim];
        for (enc, &w) in cohort.iter().zip(&weights) {
            for (a, &x) in reference.iter_mut().zip(&enc.decode()) {
                *a += w as f64 * x as f64;
            }
        }
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let pool = Pool::new(threads);
                let sums: Vec<f64> = pool::with_pool(&pool, || {
                    let spec = ShardSpec::new(dim, shards);
                    let table = StripedTable::new(spec);
                    // The sharded backend's dispatch: every shard
                    // folds the cohort in client order, decode-free.
                    pool::for_each_index(spec.num_shards(), |s| {
                        for (enc, &w) in cohort.iter().zip(&weights) {
                            table.accumulate_shard_with(s, |range, acc| {
                                enc.accumulate_range_into(range, acc, w);
                            });
                        }
                    });
                    (0..spec.num_shards())
                        .flat_map(|s| table.shard_sums(s))
                        .collect()
                });
                assert_eq!(sums.len(), dim);
                for (i, (got, want)) in sums.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} shards={shards} threads={threads} dim {i}: {got} vs {want}",
                        codec.name()
                    );
                }
            }
        }
    }
}

#[test]
fn codec_histories_agree_between_sequential_and_sharded_backends() {
    for codec in codecs_under_test() {
        let alg = || Box::new(FedAvg::new(AggWeighting::Uniform));
        let reference = golden_run_configured(alg(), false, Some(BackendChoice::Sequential), |c| {
            c.with_compressor(codec.clone())
        });
        let reference_value = history_value(&reference);
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let pool = Pool::new(threads);
                let got = pool::with_pool(&pool, || {
                    golden_run_configured(
                        alg(),
                        true,
                        Some(BackendChoice::Sharded { shards }),
                        |c| c.with_compressor(codec.clone()),
                    )
                });
                assert_values_close(
                    &reference_value,
                    &history_value(&got),
                    0.0,
                    &format!("{}.shards{shards}.t{threads}", codec.name()),
                );
            }
        }
    }
}

#[test]
fn no_compression_codec_is_inert_against_the_codec_free_run() {
    // `NoCompression` threads a Dense encoding through the whole
    // pipeline; its trajectory (accuracies, losses, *and* the byte
    // accounting) must be bit-identical to a run with no codec at all
    // — which is what keeps the committed golden fixtures valid.
    let plain = golden_run(
        Box::new(FedAvg::new(AggWeighting::Uniform)),
        false,
        Some(BackendChoice::Sequential),
    );
    let with_codec = golden_run_configured(
        Box::new(FedAvg::new(AggWeighting::Uniform)),
        false,
        Some(BackendChoice::Sequential),
        |c| c.with_compressor(Arc::new(NoCompression)),
    );
    assert_values_close(
        &history_value(&plain),
        &history_value(&with_codec),
        0.0,
        "no_compression_inert",
    );
}

#[test]
fn corrupted_encodings_are_quarantined_and_counted() {
    for codec in codecs_under_test() {
        // Corrupt every upload: the damage lands on the encoded
        // payload (value slot, index, or scale header), and validation
        // must quarantine all of it — poisoned values/headers as
        // non-finite, broken indices as malformed encodings, scaled
        // payloads as norm explosions (the 1e-4 bound is far below any
        // honest delta scaled by 1e6).
        let history = golden_run_configured(
            Box::new(FedAvg::new(AggWeighting::Uniform)),
            false,
            Some(BackendChoice::Sequential),
            |c| {
                c.with_compressor(codec.clone()).with_fault_plan(
                    FaultPlan::new()
                        .with_corruption(1.0, 1e6)
                        .with_max_delta_norm(1e-4),
                )
            },
        );
        let rejected = history.total_updates_rejected();
        let injected = history.total_faults_injected();
        assert!(injected > 0, "{}: no corruption injected", codec.name());
        assert_eq!(
            rejected,
            injected,
            "{}: every corrupted encoding must be quarantined",
            codec.name()
        );
        for r in &history.rounds {
            assert_eq!(
                r.updates_rejected,
                r.faults_injected,
                "{} round {}: rejects must be counted per round",
                codec.name(),
                r.round
            );
        }
    }
}

/// A TACO run whose model (17 410 parameters) crosses the server's
/// 16 384-dimension parallel floor, so with more than one pool thread
/// every upload's encode → corrupt → decode leg runs on the pool.
/// Corruption hits 40 % of uploads; the norm bound catches the scaled
/// payloads while honest deltas pass.
fn wide_codec_run(codec: &Arc<dyn Compressor>, threads: usize) -> History {
    let pool = Pool::new(threads);
    pool::with_pool(&pool, || {
        let clients = 4;
        let fed = tabular_fed(clients, 11, 0.3);
        let mut rng = Prng::seed_from_u64(11);
        let mut model = Mlp::new(14, &[1024], 2, &mut rng);
        assert!(model.params().len() >= 16_384, "model below the floor");
        let config = SimConfig::new(HyperParams::new(clients, 3, 0.05, 16), 4, 11)
            .with_backend(BackendChoice::Sharded { shards: 3 })
            .with_compressor(codec.clone())
            .with_fault_plan(
                FaultPlan::new()
                    .with_corruption(0.4, 1e6)
                    .with_max_delta_norm(1e3),
            );
        let alg = Taco::new(clients, TacoConfig::paper_default(4, 3));
        Simulation::new(fed, Box::new(model), Box::new(alg), config).run()
    })
}

#[test]
fn parallel_codec_stage_is_bit_identical_across_thread_counts() {
    let codecs: Vec<Arc<dyn Compressor>> = match codec_from_env() {
        Some(c) => vec![c],
        None => ["q8", "q4", "topk"]
            .iter()
            .map(|n| codec_by_name(n).expect("registry name"))
            .collect(),
    };
    // Per round: wire bytes, faults injected, uploads rejected.
    let counts = |h: &History| -> Vec<(usize, usize, usize)> {
        h.rounds
            .iter()
            .map(|r| (r.upload_bytes, r.faults_injected, r.updates_rejected))
            .collect()
    };
    for codec in &codecs {
        let reference = wide_codec_run(codec, 1);
        let rejected = reference.total_updates_rejected();
        assert!(rejected > 0, "{}: no upload was quarantined", codec.name());
        assert!(
            reference
                .rounds
                .iter()
                .any(|r| r.participants.len() > r.updates_rejected),
            "{}: every upload was quarantined",
            codec.name()
        );
        for threads in [2, 4] {
            let got = wide_codec_run(codec, threads);
            let path = format!("{}.wide.t{threads}", codec.name());
            assert_values_close(&history_value(&reference), &history_value(&got), 0.0, &path);
            assert_eq!(counts(&reference), counts(&got), "{path}: per-round counts");
        }
    }
}

#[test]
fn broken_index_is_rejected_as_malformed_before_the_floats_are_trusted() {
    // The decoded delta below is perfectly finite and small — only the
    // structural check can catch the out-of-range index.
    let update = ClientUpdate {
        client: 0,
        delta: vec![0.0, 0.5, 0.0, 0.0],
        num_samples: 1,
        final_v: None,
        mean_loss: 0.0,
        grad_evals: 1,
        steps: 1,
        compute_seconds: 0.0,
        encoded: Some(EncodedDelta::Sparse {
            dim: 4,
            indices: vec![u32::MAX],
            values: vec![0.5],
        }),
    };
    let policy = ValidationPolicy::default();
    assert_eq!(
        policy.validate(&update),
        Err(RejectReason::MalformedEncoding)
    );
    assert_eq!(
        RejectReason::MalformedEncoding.label(),
        "malformed_encoding"
    );
}
