//! `fedbench` — the end-to-end and per-layer benchmark of the TACO
//! simulator. See `NOTES.md` for the workloads, the metrics, and how
//! to run it.

pub mod child;
pub mod driver;
pub mod probe;
pub mod stats;
pub mod workload;

/// Runs `f` and returns its result with the wall seconds it took. The
/// one place the benchmark reads a duration off the clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // taco-check: allow(wall-clock, benchmark timing: readings are reported as measurements and never feed simulated time)
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// End-to-end metrics (`--trace 0`), with units. Measured with tracing
/// off; each is the median over the runs of a set that exited cleanly.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("final_accuracy", "fraction"),
    ("upload_bytes_per_round", "bytes"),
    ("peak_rss_mib", "MiB"),
];

/// Convergence metrics, printed after the end-to-end metrics but kept
/// out of the result line: they are fixed by the seed, and from seed to
/// seed they spread wider than any bound a gate may use (`NOTES.md`).
pub const CONVERGENCE: [(&str, &str); 2] =
    [("rounds_to_target", "rounds"), ("time_to_target_s", "s")];

/// Per-layer metrics (`--trace 1`), with units, in the order the
/// traced run reports them.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("setup.data_s", "s"),
    ("setup.sim_new_s", "s"),
    ("phase.participation_s", "s"),
    ("phase.local_s", "s"),
    ("phase.compress_s", "s"),
    ("phase.aggregate_s", "s"),
    ("phase.eval_s", "s"),
    ("phase.unattributed_s", "s"),
    ("round.p50_ms", "ms"),
    ("round.p90_ms", "ms"),
    ("round.samples", "count"),
    ("local.step_ms", "ms"),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("kernel.matmul_s", "s"),
    ("kernel.matmul.gflops", "GFLOP/s"),
    ("kernel.conv_pack_s", "s"),
    ("kernel.maxpool_s", "s"),
    ("pool.busy_frac", "fraction"),
    ("client.straggle", "ratio"),
    ("eval.call_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.check_ms", "ms"),
    ("codec.accumulate_ms", "ms"),
    ("codec.ratio", "ratio"),
    ("codec.share", "fraction"),
    ("server.validate_ms", "ms"),
    ("backend.accept_ms", "ms"),
    ("backend.finish_ms", "ms"),
    ("backend.share", "fraction"),
    ("server.accept_ratio", "fraction"),
    ("uploads.quarantined", "count"),
    ("uploads.deadline_cut", "count"),
    ("faults.injected", "count"),
    ("attacks.applied", "count"),
    ("clients.expelled", "count"),
    ("trace.span_ns", "ns"),
    ("trace.overhead_frac", "fraction"),
];
