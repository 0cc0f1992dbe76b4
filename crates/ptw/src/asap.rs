//! The ASAP address-translation prefetcher (Margaritov et al., MICRO'19),
//! the comparator of §V-H.
//!
//! ASAP observes that once the upper page-table levels are stable, the
//! physical addresses of lower-level entries can be *precomputed* and fetched
//! in parallel with (instead of after) the upper-level reads. A successful
//! prediction collapses a multi-access walk into a single serialized access;
//! a misprediction falls back to the full sequential walk (plus the wasted
//! parallel fetches, which we account as extra memory traffic).

use sim_core::{SimRng, StateDigest, Stream};

/// ASAP prefetcher model.
///
/// # Examples
///
/// ```
/// use ptw::Asap;
///
/// let mut asap = Asap::new(1.0); // always predicts correctly
/// // A 4-access walk collapses to 1 serialized access.
/// assert_eq!(asap.effective_accesses(4), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Asap {
    accuracy: f64,
    rng: SimRng,
    predictions: u64,
    correct: u64,
    extra_accesses: u64,
}

impl Asap {
    /// Default prediction accuracy used in the §V-H comparison.
    pub const DEFAULT_ACCURACY: f64 = 0.85;

    /// Creates a prefetcher with the given prediction accuracy in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` is outside `[0, 1]`.
    pub fn new(accuracy: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&accuracy),
            "accuracy must be in [0,1], got {accuracy}"
        );
        Self {
            accuracy,
            rng: SimRng::stream(0, Stream::Asap, 0),
            predictions: 0,
            correct: 0,
            extra_accesses: 0,
        }
    }

    /// Given a walk needing `serialized` sequential accesses, returns how
    /// many *serialized* accesses remain with ASAP prefetching.
    ///
    /// Walks that already need ≤ 1 access gain nothing. Mispredicted walks
    /// pay the full cost and the speculative fetches count as extra traffic.
    pub fn effective_accesses(&mut self, serialized: u32) -> u32 {
        if serialized <= 1 {
            return serialized;
        }
        self.predictions += 1;
        if self.rng.chance(self.accuracy) {
            self.correct += 1;
            // The lower-level reads overlap with the first access.
            self.extra_accesses += u64::from(serialized - 1);
            1
        } else {
            self.extra_accesses += u64::from(serialized - 1);
            serialized
        }
    }

    /// Prediction accuracy parameter.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Walks on which ASAP attempted a prediction.
    pub fn prediction_count(&self) -> u64 {
        self.predictions
    }

    /// Observed fraction of correct predictions.
    pub fn observed_accuracy(&self) -> f64 {
        sim_core::stats::ratio(self.correct, self.predictions)
    }

    /// Speculative memory accesses issued (traffic overhead).
    pub fn extra_access_count(&self) -> u64 {
        self.extra_accesses
    }

    /// A 64-bit digest of the prefetcher's full state — the configured
    /// accuracy, the coin-flip RNG position and the outcome counters — for
    /// epoch checkpoints.
    pub fn state_digest(&self) -> u64 {
        let Self {
            accuracy,
            rng,
            predictions,
            correct,
            extra_accesses,
        } = self;
        let mut d = StateDigest::new();
        d.mix(accuracy.to_bits())
            .mix(rng.state_digest())
            .mix(*predictions)
            .mix(*correct)
            .mix(*extra_accesses);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_accuracy_collapses_walks() {
        let mut a = Asap::new(1.0);
        assert_eq!(a.effective_accesses(5), 1);
        assert_eq!(a.effective_accesses(2), 1);
        assert_eq!(a.observed_accuracy(), 1.0);
    }

    #[test]
    fn zero_accuracy_never_helps() {
        let mut a = Asap::new(0.0);
        assert_eq!(a.effective_accesses(5), 5);
        assert_eq!(a.observed_accuracy(), 0.0);
    }

    #[test]
    fn single_access_walks_untouched() {
        let mut a = Asap::new(1.0);
        assert_eq!(a.effective_accesses(1), 1);
        assert_eq!(a.effective_accesses(0), 0);
        assert_eq!(a.prediction_count(), 0);
    }

    #[test]
    fn observed_accuracy_tracks_parameter() {
        let mut a = Asap::new(0.7);
        for _ in 0..20_000 {
            a.effective_accesses(4);
        }
        let obs = a.observed_accuracy();
        assert!((obs - 0.7).abs() < 0.02, "observed {obs}");
    }

    #[test]
    fn extra_traffic_accounted() {
        let mut a = Asap::new(1.0);
        a.effective_accesses(5);
        assert_eq!(a.extra_access_count(), 4);
    }

    #[test]
    #[should_panic(expected = "accuracy")]
    fn invalid_accuracy_panics() {
        let _ = Asap::new(1.5);
    }
}
