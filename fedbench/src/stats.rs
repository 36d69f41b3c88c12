//! Small, dependency-free statistics used by the driver and the traced
//! run: medians, exact-sample percentiles, the trajectory digest, and
//! the `time_to_target_s` derivation.

use taco_sim::History;

/// A percentile read from exact samples, reported with the number of
/// samples it was taken from (a p90 of five rounds means little).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank.
    pub value: f64,
    /// How many samples the value was taken from.
    pub samples: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks, with its sample count. `None` when `values`
/// is empty or holds a non-finite number.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
    Some(Percentile {
        value,
        samples: sorted.len(),
    })
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).map_or(f64::NAN, |p| p.value)
}

/// Rounds to reach `target` test accuracy, interpolated linearly
/// between the last round below the target and the first at or above
/// it (a run at the target in round 1 reads 1.0). `None` when the run
/// never reaches it. Interpolation keeps a whole-round step out of a
/// metric whose integer form (`History::rounds_to_accuracy`) is the
/// ceiling of this value.
pub fn rounds_to_target(accuracy: &[f64], target: f64) -> Option<f64> {
    let i = accuracy.iter().position(|&a| a >= target)?;
    if i == 0 {
        return Some(1.0);
    }
    let (below, at) = (accuracy[i - 1], accuracy[i]);
    Some(i as f64 + (target - below) / (at - below))
}

/// Wall time to the accuracy target at the run's mean round cost:
/// `rounds_to_target × run_s / rounds`. Deliberately not
/// `History::time_to_accuracy`, which sums the slowest client's
/// compute seconds and ignores every server-side cost.
///
/// # Panics
///
/// Panics if `rounds` is zero or `rounds_to_target` lies outside
/// `[1, rounds]`.
pub fn time_to_target(rounds_to_target: f64, run_s: f64, rounds: usize) -> f64 {
    assert!(rounds > 0, "a run needs at least one round");
    assert!(
        (1.0..=rounds as f64).contains(&rounds_to_target),
        "target reached at round {rounds_to_target} of {rounds}"
    );
    rounds_to_target * run_s / rounds as f64
}

/// FNV-1a digest of the learning trajectory: per round, the test
/// accuracy and loss, the train loss, the accounted upload bytes, and
/// the rejected-update count. Wall-clock fields are left out, so two
/// runs of one seed must agree at any thread count.
pub fn digest(history: &History) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    for r in &history.rounds {
        feed(r.test_accuracy.to_bits());
        feed(r.test_loss.to_bits());
        feed(r.train_loss.to_bits());
        feed(r.upload_bytes as u64);
        feed(r.updates_rejected as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let p = percentile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.5).unwrap();
        assert_eq!(p.value, 3.0);
        assert_eq!(p.samples, 5);
        let p90 = percentile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 0.9).unwrap();
        assert!((p90.value - 9.1).abs() < 1e-12, "p90 {}", p90.value);
        assert_eq!(p90.samples, 10);
        assert_eq!(percentile(&[7.0], 0.9).unwrap().samples, 1);
        assert!(percentile(&[], 0.5).is_none());
        assert!(percentile(&[1.0, f64::NAN], 0.5).is_none());
    }

    #[test]
    fn time_to_target_scales_run_time_by_the_round_share() {
        assert_eq!(time_to_target(10.0, 8.0, 40), 2.0);
        assert_eq!(time_to_target(40.0, 8.0, 40), 8.0);
        assert_eq!(time_to_target(2.5, 3.0, 300), 0.025);
    }

    #[test]
    #[should_panic(expected = "target reached at round")]
    fn time_to_target_rejects_a_round_past_the_run() {
        time_to_target(41.0, 8.0, 40);
    }

    #[test]
    fn rounds_to_target_interpolates_the_crossing() {
        let acc = [0.1, 0.3, 0.5, 0.9];
        let r = rounds_to_target(&acc, 0.4).unwrap();
        assert!((r - 2.5).abs() < 1e-12, "{r}");
        assert_eq!(rounds_to_target(&acc, 0.5), Some(3.0));
        assert_eq!(rounds_to_target(&acc, 0.05), Some(1.0));
        assert_eq!(rounds_to_target(&acc, 0.95), None);
        // The integer round count is the ceiling of the interpolation.
        assert_eq!(rounds_to_target(&acc, 0.7).map(f64::ceil), Some(4.0));
    }
}
