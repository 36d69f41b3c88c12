//! The server's upload pipeline: everything that happens between the
//! clients' uploads leaving the devices and the aggregation backend
//! accepting them — straggler slowdown, the synchronous deadline,
//! lossy compression with byte accounting, wire corruption, and
//! validation/quarantine.
//!
//! The pipeline runs strictly *before* the backend's `accept_update`
//! (see [`crate::AggregationBackend`]): it returns the validated
//! survivors and the runner hands them over inside the aggregate
//! phase, so backends may start accumulating eagerly — an upload that
//! reaches `accept_update` is final for the round.

use crate::backend::{AggregationBackend, PARALLEL_DIM_FLOOR};
use crate::fault::FaultKind;
use crate::runner::SimConfig;
use taco_core::compress::{codec_stream, Compressor, EncodedDelta};
use taco_core::{ClientUpdate, FederatedAlgorithm};
use taco_tensor::pool;
use taco_trace as trace;

/// What the pipeline did to a round's uploads.
pub(crate) struct UploadOutcome {
    /// The validated uploads, in client order, for the backend's
    /// `accept_update`.
    pub(crate) accepted: Vec<ClientUpdate>,
    /// Accounted wire bytes for the uploads that arrived.
    pub(crate) upload_bytes: usize,
    /// Uploads cut by the synchronous deadline.
    pub(crate) deadline_cuts: usize,
    /// Uploads quarantined by validation.
    pub(crate) quarantined: usize,
    /// Seconds spent in the compress/validate phase span.
    pub(crate) compress_secs: f64,
}

impl UploadOutcome {
    /// Deadline cuts + quarantined uploads.
    pub(crate) fn updates_rejected(&self) -> usize {
        self.deadline_cuts + self.quarantined
    }
}

/// Runs the pipeline over this round's raw uploads (already sorted in
/// client order) and returns the survivors for the backend;
/// quarantined uploads are reported through the backend instead.
pub(crate) fn process_uploads(
    config: &SimConfig,
    fault_of: &[Option<FaultKind>],
    round: usize,
    mut updates: Vec<ClientUpdate>,
    algorithm: &mut dyn FederatedAlgorithm,
    backend: &mut dyn AggregationBackend,
) -> UploadOutcome {
    // Straggler slowdown + the server's synchronous deadline. The
    // deadline compares *simulated* time (steps × seconds_per_step ×
    // slowdown) so that cuts are deterministic; the measured wall
    // clock is only inflated for the timing metrics. Late uploads
    // never arrive, so they cost no accounted bytes.
    let mut deadline_cuts = 0usize;
    let mut quarantined = 0usize;
    if let Some(plan) = &config.fault_plan {
        for u in &mut updates {
            if let Some(FaultKind::Straggler { factor }) = fault_of[u.client] {
                u.compute_seconds *= factor;
            }
        }
        if let Some(deadline) = plan.deadline {
            updates.retain(|u| {
                let slowdown = match fault_of[u.client] {
                    Some(FaultKind::Straggler { factor }) => factor,
                    _ => 1.0,
                };
                if deadline.misses(u.steps, slowdown) {
                    deadline_cuts += 1;
                    trace::counter("sim.faults.deadline_cut").incr();
                    if trace::active() {
                        trace::emit(
                            &trace::Event::new("fault")
                                .with("round", round)
                                .with("client", u.client)
                                .with("fault", "deadline_cut"),
                        );
                    }
                    false
                } else {
                    true
                }
            });
        }
    }
    // Lossy upload compression + byte accounting, then validation —
    // one phase span (compress/validate). Wire bytes are measured from
    // the actual encodings; see `encode_uploads` for the wire leg.
    let compress_span = trace::Span::quiet(crate::phase::COMPRESS);
    let upload_bytes: usize = match &config.upload_compressor {
        Some(c) => {
            encode_uploads(c.as_ref(), config, fault_of, round, &mut updates);
            updates
                .iter()
                .filter_map(|u| u.encoded.as_ref())
                .map(EncodedDelta::wire_bytes)
                .sum()
        }
        None => updates.iter().map(|u| u.delta.len() * 4).sum(),
    };
    trace::counter("sim.upload_bytes").add(upload_bytes as u64);
    // The server quarantines anything malformed, non-finite, or
    // norm-exploded before the backend sees it and reports the
    // offender to the algorithm's freeloader-detection machinery.
    // Quarantined uploads did arrive, so their bytes stay counted.
    let accepted = if let Some(plan) = &config.fault_plan {
        // Uncompressed runs corrupt the dense floats directly (there
        // is no other wire representation to damage).
        if config.upload_compressor.is_none() {
            for u in &mut updates {
                if let Some(FaultKind::Corrupt(corruption)) = fault_of[u.client] {
                    crate::fault::apply_corruption(&mut u.delta, corruption);
                }
            }
        }
        let mut accepted = Vec::with_capacity(updates.len());
        for u in updates {
            match plan.validation.validate(&u) {
                Ok(()) => accepted.push(u),
                Err(reason) => {
                    quarantined += 1;
                    trace::counter("sim.faults.rejected").incr();
                    if trace::active() {
                        trace::emit(
                            &trace::Event::new("fault")
                                .with("round", round)
                                .with("client", u.client)
                                .with("fault", "quarantine")
                                .with("reason", reason.label()),
                        );
                    }
                    backend.report_invalid_update(u.client, algorithm);
                }
            }
        }
        accepted
    } else {
        updates
    };
    let compress_secs = compress_span.finish();
    UploadOutcome {
        accepted,
        upload_bytes,
        deadline_cuts,
        quarantined,
        compress_secs,
    }
}

/// The wire leg of every upload: encode with the salted
/// per-`(round, client)` rounding stream, apply wire corruption to the
/// *encoded* payload when a fault plan is active (an index, a value
/// slot, or the scale header — that is what travels), and decode in
/// place into `delta`. The update then carries both the encoding (for
/// decode-free aggregation and integrity validation) and the decoded
/// lossy delta (for algorithms and norm checks).
///
/// Each upload's leg is a pure function of `(seed, round, client,
/// delta)`, so the uploads run in parallel on the worker pool — one
/// task each — when the model reaches [`PARALLEL_DIM_FLOOR`]; below
/// it the pool dispatch costs more than it saves and they run inline.
/// Every buffer that outlives the dispatch is allocated here, on the
/// dispatching thread: the decode reuses `delta`'s allocation and the
/// level payload is reserved up front. (Buffers allocated on workers
/// land in per-thread malloc arenas and measurably raised peak RSS.)
fn encode_uploads(
    codec: &dyn Compressor,
    config: &SimConfig,
    fault_of: &[Option<FaultKind>],
    round: usize,
    updates: &mut [ClientUpdate],
) {
    let (seed, corrupt) = (config.seed, config.fault_plan.is_some());
    let dim = updates.first().map_or(0, |u| u.delta.len());
    let mut cells: Vec<(&mut ClientUpdate, Vec<u8>)> = updates
        .iter_mut()
        .map(|u| {
            let payload = Vec::with_capacity(codec.payload_len(u.delta.len()));
            (u, payload)
        })
        .collect();
    let wire_leg = |_: usize, cells: &mut [(&mut ClientUpdate, Vec<u8>)]| {
        for (u, payload) in cells {
            let mut stream = codec_stream(seed, round, u.client);
            let mut enc = codec.encode_with(&u.delta, &mut stream, std::mem::take(payload));
            if corrupt {
                if let Some(FaultKind::Corrupt(corruption)) = fault_of[u.client] {
                    crate::fault::apply_corruption_encoded(&mut enc, corruption);
                }
            }
            enc.decode_into(&mut u.delta);
            u.encoded = Some(enc);
        }
    };
    if dim >= PARALLEL_DIM_FLOOR && pool::effective_parallelism() > 1 {
        pool::for_each_chunk(&mut cells, 1, wire_leg);
    } else {
        wire_leg(0, &mut cells);
    }
}
