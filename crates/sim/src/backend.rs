//! Pluggable aggregation backends for the parameter server.
//!
//! The round loop in [`crate::Simulation::run`] hands every validated
//! upload to an [`AggregationBackend`] and asks it for the next global
//! model once the round's uploads are in. Two implementations ship:
//!
//! - [`SequentialBackend`] — buffers the uploads and calls the
//!   algorithm's [`FederatedAlgorithm::aggregate`] exactly as the
//!   monolithic runner used to. It is the deterministic reference.
//! - [`ShardedBackend`] — a parameter-server-style aggregator that
//!   accumulates deltas into lock-striped gradient shards
//!   ([`taco_tensor::shard`]) as uploads arrive, with the active/frozen
//!   double-buffer idiom, and executes the algorithm's
//!   [`FederatedAlgorithm::plan_aggregation`] plan shard-wise on the
//!   shared worker pool.
//!
//! # Determinism contract
//!
//! Both backends must produce **bit-identical** trajectories at any
//! shard count and any `TACO_THREADS`. The sharded backend achieves
//! this by parallelizing only along axes where f32/f64 reduction order
//! is preserved:
//!
//! - *Per-dimension* sums (the weighted mean) are dimension-sharded:
//!   each shard task folds the round's uploads **in client order**, so
//!   every dimension sees the exact `acc += w·x` sequence of
//!   [`taco_tensor::ops::weighted_mean`]. Shards touch disjoint
//!   dimensions, so their schedule is irrelevant.
//! - *Per-upload scalars* (norms, cosines) are client-parallel: each
//!   task computes a whole-vector reduction for one upload and writes
//!   its own slot. No cross-client float fold happens in parallel.
//! - *Cross-client scalar folds* (the weight total, `Σ α`) stay
//!   sequential in client order via the order-fixed helpers in
//!   [`taco_tensor::ops`].
//!
//! `tests/backend_diff.rs` enforces the contract differentially against
//! the committed golden trajectories.

use crate::phase;
use taco_core::{ClientUpdate, FederatedAlgorithm, HyperParams, UploadStats};
use taco_tensor::shard::{DoubleBuffered, ShardSpec, StripedTable};
use taco_tensor::{ops, pool};
use taco_trace as trace;

/// What a backend returns at the end of a round: the next global model
/// (or `None` when no update survived and the round holds the current
/// model) plus the accepted uploads, handed back for metrics.
#[derive(Debug)]
pub struct RoundAggregate {
    /// The aggregated next global parameter vector; `None` for an
    /// empty round.
    pub next_global: Option<Vec<f32>>,
    /// The uploads that reached aggregation, in client order.
    pub updates: Vec<ClientUpdate>,
}

/// Server-side aggregation strategy for one simulation run.
///
/// The runner drives one round as `begin_round` → any number of
/// `accept_update` / `report_invalid_update` calls (in client order,
/// after server-side validation) → `finish_round`. Implementations may
/// start aggregating eagerly in `accept_update`; everything an
/// algorithm observes must be bit-identical to the sequential
/// reference (see the module docs).
pub trait AggregationBackend: Send {
    /// The backend's stable display name (`sequential`, `sharded`).
    fn name(&self) -> &'static str;

    /// Starts a round. Called after the algorithm's own
    /// [`FederatedAlgorithm::begin_round`], with the same global
    /// parameters.
    fn begin_round(&mut self, round: usize, global: &[f32], algorithm: &dyn FederatedAlgorithm);

    /// Accepts one validated upload. Uploads arrive in client order.
    fn accept_update(&mut self, update: ClientUpdate);

    /// Reports a quarantined upload so detection-capable algorithms
    /// can strike the offender. The default forwards to
    /// [`FederatedAlgorithm::report_invalid_update`].
    fn report_invalid_update(&mut self, client: usize, algorithm: &mut dyn FederatedAlgorithm) {
        algorithm.report_invalid_update(client);
    }

    /// Finishes the round: aggregates the accepted uploads into the
    /// next global model and returns them for metrics.
    fn finish_round(
        &mut self,
        global: &[f32],
        hyper: &HyperParams,
        algorithm: &mut dyn FederatedAlgorithm,
    ) -> RoundAggregate;
}

/// The reference backend: buffer everything, aggregate at the end of
/// the round with the algorithm's own sequential
/// [`FederatedAlgorithm::aggregate`].
#[derive(Debug, Default)]
pub struct SequentialBackend {
    updates: Vec<ClientUpdate>,
}

impl SequentialBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        SequentialBackend::default()
    }
}

impl AggregationBackend for SequentialBackend {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn begin_round(&mut self, _round: usize, _global: &[f32], _algorithm: &dyn FederatedAlgorithm) {
        self.updates.clear();
    }

    fn accept_update(&mut self, update: ClientUpdate) {
        self.updates.push(update);
    }

    fn finish_round(
        &mut self,
        global: &[f32],
        hyper: &HyperParams,
        algorithm: &mut dyn FederatedAlgorithm,
    ) -> RoundAggregate {
        let updates = std::mem::take(&mut self.updates);
        let next_global = if updates.is_empty() {
            None
        } else {
            Some(algorithm.aggregate(global, &updates, hyper))
        };
        RoundAggregate {
            next_global,
            updates,
        }
    }
}

/// Deltas shorter than this run per-upload and per-shard server work
/// inline — the shard accumulation here and the upload codec stage in
/// `server` — since the pool dispatch overhead outweighs the work on
/// tiny models.
pub(crate) const PARALLEL_DIM_FLOOR: usize = 16_384;

/// Per-model sharded state, sized lazily from the first round's global
/// parameter length.
struct ShardState {
    spec: ShardSpec,
    /// Active/frozen unweighted delta sums, fed eagerly by
    /// [`ShardedBackend::accept_update`] when the algorithm wants
    /// [`UploadStats`]; frozen at `finish_round` for the mean read-out.
    stats_sums: DoubleBuffered,
    /// Scratch accumulator for the weighted combine (weights are only
    /// known after the algorithm plans the round).
    scratch: StripedTable,
}

/// The sharded parameter-server backend (see the module docs for the
/// determinism contract).
pub struct ShardedBackend {
    shards: usize,
    state: Option<ShardState>,
    wants_stats: bool,
    /// Whether the active stats table holds accumulations that were
    /// never flipped out (an aborted round); cleared defensively at
    /// `begin_round`.
    active_dirty: bool,
    updates: Vec<ClientUpdate>,
}

impl std::fmt::Debug for ShardedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBackend")
            .field("shards", &self.shards)
            .field("spec", &self.state.as_ref().map(|s| s.spec))
            .finish()
    }
}

impl ShardedBackend {
    /// Creates a backend that partitions the model into (at most)
    /// `shards` contiguous shards.
    pub fn new(shards: usize) -> Self {
        ShardedBackend {
            shards: shards.max(1),
            state: None,
            wants_stats: false,
            active_dirty: false,
            updates: Vec::new(),
        }
    }

    /// Folds one upload's payload into shard `s` of `table` —
    /// **decode-free** when the update carries its wire encoding:
    /// quantized/sparse payloads accumulate straight into the shard's
    /// `f64` sums via `EncodedDelta::accumulate_range_into`, which is
    /// bit-identical to decoding first and running the dense
    /// `accumulate_shard` fold (each dimension performs the exact same
    /// widening multiply-add, in the same ascending order).
    fn fold_shard(table: &StripedTable, s: usize, weight: f32, update: &ClientUpdate) {
        match &update.encoded {
            Some(enc) => table.accumulate_shard_with(s, |range, acc| {
                enc.accumulate_range_into(range, acc, weight);
            }),
            None => table.accumulate_shard(s, weight, &update.delta),
        }
    }

    /// Accumulates one upload into `table` with the given weight,
    /// shard-parallel on the worker pool when the model is big enough
    /// for the dispatch to pay off. Each shard touches disjoint
    /// dimensions, so the schedule cannot reorder any per-dimension
    /// fold.
    fn accumulate(table: &StripedTable, weight: f32, update: &ClientUpdate) {
        let shards = table.spec().num_shards();
        let dim = table.spec().dim();
        if shards > 1 && dim >= PARALLEL_DIM_FLOOR && pool::effective_parallelism() > 1 {
            pool::for_each_index(shards, |s| Self::fold_shard(table, s, weight, update));
        } else {
            for s in 0..shards {
                Self::fold_shard(table, s, weight, update);
            }
        }
    }

    /// Merges a table into `(acc / total) as f32` per dimension,
    /// shard-parallel. Bit-identical to [`StripedTable::merged`]: each
    /// dimension's read-out is independent.
    fn merge(table: &StripedTable, total: f64) -> Vec<f32> {
        let spec = table.spec();
        let mut out = vec![0.0f32; spec.dim()];
        let shards = spec.num_shards();
        if shards > 1 && spec.dim() >= PARALLEL_DIM_FLOOR && pool::effective_parallelism() > 1 {
            // `for_each_chunk` with the spec's chunk length visits
            // exactly the shard ranges; the read-out arithmetic is
            // `merge_shard_into`'s `(acc / total) as f32`.
            pool::for_each_chunk(&mut out, spec.chunk_len(), |s, slot| {
                let sums = table.shard_sums(s);
                for (o, &a) in slot.iter_mut().zip(sums.iter()) {
                    *o = (a / total) as f32;
                }
            });
        } else {
            for s in 0..shards {
                table.merge_shard_into(s, total, &mut out);
            }
        }
        out
    }

    /// The round's [`UploadStats`], computed with the sharded/parallel
    /// decomposition: mean from the frozen shard sums, norms and
    /// cosines as whole-vector reductions parallelized over clients.
    fn compute_stats(state: &mut ShardState, updates: &[ClientUpdate]) -> UploadStats {
        let _span = trace::Span::quiet(phase::SHARD_MERGE);
        state.stats_sums.flip();
        // `ops::mean_of` is `weighted_mean` with unit weights, whose
        // total is the left-to-right fold of `1.0_f64`s — replicated
        // here by the order-fixed `sum_f64`.
        let ones = vec![1.0f64; updates.len()];
        let total = ops::sum_f64(&ones);
        let mean_delta = Self::merge(state.stats_sums.frozen(), total);
        let mean_norm = ops::norm(&mean_delta);
        let n = updates.len();
        let mut scalars = vec![(0.0f32, 0.0f32); n];
        let per_client = |i: usize, slot: &mut [(f32, f32)]| {
            let d = &updates[i].delta;
            let norm = ops::norm(d);
            slot[0] = (
                norm,
                ops::cosine_with_norms(d, &mean_delta, norm, mean_norm),
            );
        };
        if n > 1 && pool::effective_parallelism() > 1 {
            pool::for_each_chunk(&mut scalars, 1, per_client);
        } else {
            for (i, slot) in scalars.chunks_mut(1).enumerate() {
                per_client(i, slot);
            }
        }
        let (norms, cosines) = scalars.into_iter().unzip();
        UploadStats {
            mean_delta,
            norms,
            cosines,
        }
    }
}

impl AggregationBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn begin_round(&mut self, _round: usize, global: &[f32], algorithm: &dyn FederatedAlgorithm) {
        self.wants_stats = algorithm.wants_upload_stats();
        let stale = self
            .state
            .as_ref()
            .is_some_and(|s| s.spec.dim() != global.len());
        if (self.state.is_none() || stale) && !global.is_empty() {
            let spec = ShardSpec::new(global.len(), self.shards);
            self.state = Some(ShardState {
                spec,
                stats_sums: DoubleBuffered::new(spec),
                scratch: StripedTable::new(spec),
            });
            self.active_dirty = false;
        }
        if self.active_dirty {
            if let Some(state) = &mut self.state {
                state.stats_sums.flip();
            }
            self.active_dirty = false;
        }
        self.updates.clear();
    }

    fn accept_update(&mut self, update: ClientUpdate) {
        if self.wants_stats {
            if let Some(state) = &self.state {
                let _span = trace::Span::quiet(phase::SHARD_MERGE);
                Self::accumulate(state.stats_sums.active(), 1.0, &update);
                self.active_dirty = true;
            }
        }
        self.updates.push(update);
    }

    fn finish_round(
        &mut self,
        global: &[f32],
        hyper: &HyperParams,
        algorithm: &mut dyn FederatedAlgorithm,
    ) -> RoundAggregate {
        let updates = std::mem::take(&mut self.updates);
        if updates.is_empty() {
            return RoundAggregate {
                next_global: None,
                updates,
            };
        }
        let Some(state) = &mut self.state else {
            // `begin_round` never saw a non-empty model; use the
            // algorithm's sequential path.
            let next = algorithm.aggregate(global, &updates, hyper);
            return RoundAggregate {
                next_global: Some(next),
                updates,
            };
        };
        let stats = if self.wants_stats {
            let stats = Self::compute_stats(state, &updates);
            self.active_dirty = false;
            Some(stats)
        } else {
            None
        };
        let plan = algorithm.plan_aggregation(global, &updates, stats.as_ref(), hyper);
        let next = match plan {
            Some(plan) => {
                let _span = trace::Span::quiet(phase::SHARD_MERGE);
                // The weighted combine, shard-wise: every shard folds
                // the uploads in client order, reproducing
                // `ops::weighted_mean` per dimension; the weight total
                // is the same left-to-right widening fold.
                state.scratch.clear();
                let scratch = &state.scratch;
                let accumulate_shard = |s: usize| {
                    for (u, &w) in updates.iter().zip(&plan.weights) {
                        Self::fold_shard(scratch, s, w, u);
                    }
                };
                let shards = state.spec.num_shards();
                if shards > 1
                    && state.spec.dim() >= PARALLEL_DIM_FLOOR
                    && pool::effective_parallelism() > 1
                {
                    pool::for_each_index(shards, accumulate_shard);
                } else {
                    for s in 0..shards {
                        accumulate_shard(s);
                    }
                }
                let wf: Vec<f64> = plan.weights.iter().map(|&w| w as f64).collect();
                let total = ops::sum_f64(&wf);
                assert!(
                    total.is_finite() && total > 0.0,
                    "weights must sum to a positive finite value, got {total}"
                );
                let mut combined = Self::merge(&state.scratch, total);
                if let Some(s) = plan.pre_scale {
                    ops::scale(&mut combined, s);
                }
                let mut next = global.to_vec();
                ops::axpy(&mut next, plan.step_scale, &combined);
                algorithm.commit_aggregation(global, &combined);
                next
            }
            // Algorithms without a plan decomposition (control-variate
            // uploads, momentum servers) fall back to their sequential
            // aggregate — correctness first, sharding where supported.
            None => algorithm.aggregate(global, &updates, hyper),
        };
        RoundAggregate {
            next_global: Some(next),
            updates,
        }
    }
}

/// Which [`AggregationBackend`] a [`crate::SimConfig`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// [`SequentialBackend`] — the deterministic reference.
    Sequential,
    /// [`ShardedBackend`] with the given shard count.
    Sharded {
        /// Number of contiguous model shards (clamped to at least 1).
        shards: usize,
    },
}

impl Default for BackendChoice {
    fn default() -> Self {
        BackendChoice::from_env()
    }
}

/// Default shard count when `TACO_SHARDS` is unset.
pub const DEFAULT_SHARDS: usize = 8;

impl BackendChoice {
    /// Reads `TACO_BACKEND` (`sequential` — the default — or
    /// `sharded`) and `TACO_SHARDS` (shard count for the sharded
    /// backend, default [`DEFAULT_SHARDS`]). An unrecognized backend
    /// name warns once on stderr and falls back to sequential.
    pub fn from_env() -> Self {
        let Some(name) = trace::env::backend_name() else {
            return BackendChoice::Sequential;
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "" | "sequential" => BackendChoice::Sequential,
            "sharded" => BackendChoice::Sharded {
                shards: shards_from_env(),
            },
            other => {
                static WARN: std::sync::Once = std::sync::Once::new();
                WARN.call_once(|| {
                    eprintln!(
                        "warning: unknown TACO_BACKEND '{other}', using sequential \
                         (expected 'sequential' or 'sharded')"
                    );
                });
                BackendChoice::Sequential
            }
        }
    }

    /// The built backend's stable name.
    pub fn label(&self) -> &'static str {
        match self {
            BackendChoice::Sequential => "sequential",
            BackendChoice::Sharded { .. } => "sharded",
        }
    }

    /// Builds the backend.
    pub fn build(&self) -> Box<dyn AggregationBackend> {
        match self {
            BackendChoice::Sequential => Box::new(SequentialBackend::new()),
            BackendChoice::Sharded { shards } => Box::new(ShardedBackend::new(*shards)),
        }
    }
}

fn shards_from_env() -> usize {
    trace::env::shards().unwrap_or(DEFAULT_SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_core::{FedAvg, Scaffold, Taco};
    use taco_tensor::Prng;

    fn upd(client: usize, delta: Vec<f32>) -> ClientUpdate {
        ClientUpdate {
            client,
            delta,
            num_samples: 1,
            final_v: None,
            mean_loss: 0.0,
            grad_evals: 0,
            steps: 1,
            compute_seconds: 0.0,
            encoded: None,
        }
    }

    fn random_updates(n: usize, dim: usize, seed: u64) -> Vec<ClientUpdate> {
        let mut rng = Prng::seed_from_u64(seed);
        (0..n)
            .map(|c| upd(c, (0..dim).map(|_| rng.normal_f32()).collect()))
            .collect()
    }

    /// Runs `rounds` aggregation-only rounds of `make()`'s algorithm
    /// through the given backend and returns every next-global.
    fn drive(
        backend: &mut dyn AggregationBackend,
        algorithm: &mut dyn FederatedAlgorithm,
        rounds: usize,
        n: usize,
        dim: usize,
    ) -> Vec<Vec<f32>> {
        let hyper = HyperParams::new(n, 4, 0.05, 8);
        let mut global = vec![0.25f32; dim];
        let mut outs = Vec::new();
        for round in 0..rounds {
            algorithm.begin_round(round, &global);
            backend.begin_round(round, &global, algorithm);
            for u in random_updates(n, dim, round as u64 ^ 0xBEEF) {
                backend.accept_update(u);
            }
            let agg = backend.finish_round(&global, &hyper, algorithm);
            let next = agg.next_global.clone().unwrap_or_else(|| global.clone());
            assert_eq!(agg.updates.len(), n);
            global = next.clone();
            outs.push(next);
        }
        outs
    }

    fn assert_bits_eq(a: &[Vec<f32>], b: &[Vec<f32>], what: &str) {
        assert_eq!(a.len(), b.len());
        for (r, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.len(), y.len());
            for (i, (p, q)) in x.iter().zip(y).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "{what}: round {r} dim {i}: {p} vs {q}"
                );
            }
        }
    }

    #[test]
    fn sharded_taco_matches_sequential_bitwise_at_every_shard_count() {
        let dim = 101;
        let n = 5;
        let mut seq_alg = Taco::new(n, taco_core::taco::TacoConfig::paper_default(6, 4));
        let mut seq = SequentialBackend::new();
        let reference = drive(&mut seq, &mut seq_alg, 6, n, dim);
        for shards in [1usize, 3, 8, 64] {
            let mut alg = Taco::new(n, taco_core::taco::TacoConfig::paper_default(6, 4));
            let mut sharded = ShardedBackend::new(shards);
            let got = drive(&mut sharded, &mut alg, 6, n, dim);
            assert_bits_eq(&reference, &got, &format!("shards={shards}"));
            assert_eq!(alg.alphas(), seq_alg.alphas(), "shards={shards}");
        }
    }

    #[test]
    fn sharded_fedavg_matches_sequential_bitwise() {
        let mut seq_alg = FedAvg::default();
        let mut seq = SequentialBackend::new();
        let reference = drive(&mut seq, &mut seq_alg, 4, 3, 37);
        let mut alg = FedAvg::default();
        let mut sharded = ShardedBackend::new(5);
        let got = drive(&mut sharded, &mut alg, 4, 3, 37);
        assert_bits_eq(&reference, &got, "fedavg");
    }

    #[test]
    fn plan_less_algorithm_falls_back_to_sequential_aggregate() {
        let n = 4;
        let mut seq_alg = Scaffold::new(n, 1.0);
        let mut seq = SequentialBackend::new();
        let reference = drive(&mut seq, &mut seq_alg, 3, n, 23);
        let mut alg = Scaffold::new(n, 1.0);
        let mut sharded = ShardedBackend::new(4);
        let got = drive(&mut sharded, &mut alg, 3, n, 23);
        assert_bits_eq(&reference, &got, "scaffold-fallback");
    }

    #[test]
    fn empty_round_returns_no_next_global() {
        for backend in [
            &mut SequentialBackend::new() as &mut dyn AggregationBackend,
            &mut ShardedBackend::new(4),
        ] {
            let mut alg = FedAvg::default();
            let hyper = HyperParams::new(2, 1, 0.1, 4);
            backend.begin_round(0, &[1.0, 2.0], &alg);
            let agg = backend.finish_round(&[1.0, 2.0], &hyper, &mut alg);
            assert!(agg.next_global.is_none(), "{}", backend.name());
            assert!(agg.updates.is_empty());
        }
    }

    #[test]
    fn backend_choice_env_parsing_and_labels() {
        assert_eq!(BackendChoice::Sequential.label(), "sequential");
        assert_eq!(BackendChoice::Sharded { shards: 3 }.label(), "sharded");
        assert_eq!(
            BackendChoice::Sequential.build().name(),
            "sequential",
            "build() must honor the choice"
        );
        assert_eq!(
            BackendChoice::Sharded { shards: 3 }.build().name(),
            "sharded"
        );
    }

    #[test]
    fn invalid_update_report_strikes_through_the_backend() {
        let mut alg = Taco::new(
            2,
            taco_core::taco::TacoConfig::paper_default(4, 2).with_detection(0.6, 0),
        );
        let mut backend = SequentialBackend::new();
        backend.report_invalid_update(1, &mut alg);
        assert_eq!(alg.expelled(), vec![1]);
    }
}
