//! Epoch checkpoints for crash-restore with bit-identical replay.
//!
//! The simulator's state is deliberately not deep-cloneable (workload
//! streams and page-walk caches live behind trait objects), so a
//! checkpoint is not a snapshot of the heap: it is a *certificate* — a
//! digest of everything that determines the future of the run (cycle,
//! outstanding work, TLB/PRT/FT occupancy, directory contents, RNG
//! state). Because the whole simulator is deterministic from its seed, a
//! crashed run is restored by replaying from cycle 0 and *verifying* that
//! every epoch digest recorded before the crash is reproduced exactly.
//! Any divergence means the restore is not bit-identical and is reported
//! as a hard error instead of silently continuing from corrupt state.
//!
//! # Examples
//!
//! ```
//! use sim_core::checkpoint::{CheckpointLog, EpochCheckpoint, StateDigest};
//!
//! let mut digest = StateDigest::new();
//! digest.mix(42).mix(7);
//! let mut log = CheckpointLog::new();
//! log.record(EpochCheckpoint { epoch: 0, cycle: 1000, digest: digest.finish() });
//! assert_eq!(log.len(), 1);
//! assert!(log.verify_prefix_of(&log.clone()).is_ok());
//! ```

use crate::{Cycle, SimError};

/// Incremental, order-sensitive 64-bit state digest.
///
/// Built on the same SplitMix64 mixer as the RNG seeding path: each mixed
/// word is diffused and folded into the accumulator with a position-
/// dependent rotation, so permuted inputs produce different digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDigest {
    acc: u64,
    count: u64,
}

impl StateDigest {
    /// A fresh digest.
    pub fn new() -> Self {
        Self {
            acc: 0x7261_6E73_2D46_5721,
            count: 0,
        }
    }

    /// Folds one 64-bit word into the digest.
    pub fn mix(&mut self, word: u64) -> &mut Self {
        let mut sm = word ^ self.count.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let z = crate::rng::splitmix64(&mut sm);
        self.acc = self.acc.rotate_left(17) ^ z;
        self.count += 1;
        self
    }

    /// Folds an iterator of words.
    pub fn mix_all<I: IntoIterator<Item = u64>>(&mut self, words: I) -> &mut Self {
        for w in words {
            self.mix(w);
        }
        self
    }

    /// Folds a string (length-delimited, byte-exact) into the digest.
    pub fn mix_str(&mut self, s: &str) -> &mut Self {
        self.mix(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        self
    }

    /// Finalizes the digest, binding in the word count so that prefixes of
    /// a longer input do not collide with the full input.
    pub fn finish(&self) -> u64 {
        let mut sm = self.acc ^ self.count;
        crate::rng::splitmix64(&mut sm)
    }
}

impl Default for StateDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// One consistent snapshot point of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCheckpoint {
    /// Ordinal of this checkpoint (0-based).
    pub epoch: u64,
    /// Cycle at which the snapshot was taken.
    pub cycle: Cycle,
    /// Digest of the simulator state at that cycle (queues, TLB/PRT/FT,
    /// directory, RNG, outstanding requests).
    pub digest: u64,
}

/// The ordered sequence of epoch checkpoints a run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointLog {
    epochs: Vec<EpochCheckpoint>,
}

impl CheckpointLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a checkpoint; epochs must arrive in order.
    ///
    /// # Panics
    ///
    /// Panics if `cp.epoch` is not the next expected ordinal.
    pub fn record(&mut self, cp: EpochCheckpoint) {
        assert_eq!(
            cp.epoch,
            self.epochs.len() as u64,
            "checkpoint epochs must be recorded in order"
        );
        self.epochs.push(cp);
    }

    /// Number of checkpoints taken.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether no checkpoint has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The last consistent epoch, if any.
    pub fn last(&self) -> Option<&EpochCheckpoint> {
        self.epochs.last()
    }

    /// All recorded checkpoints in order.
    pub fn epochs(&self) -> &[EpochCheckpoint] {
        &self.epochs
    }

    /// Verifies that `self` (the log of a crashed run) is an exact prefix
    /// of `restored` (the log of the replay): same cycles, same digests,
    /// epoch by epoch. This is the bit-identical-restore certificate.
    pub fn verify_prefix_of(&self, restored: &CheckpointLog) -> Result<(), SimError> {
        if restored.epochs.len() < self.epochs.len() {
            return Err(SimError::InvariantViolation(format!(
                "restored run took {} checkpoint(s) but the crashed run had {}",
                restored.epochs.len(),
                self.epochs.len()
            )));
        }
        for (a, b) in self.epochs.iter().zip(&restored.epochs) {
            if a != b {
                return Err(SimError::InvariantViolation(format!(
                    "restore diverged at epoch {}: crashed run was (cycle {}, digest {:#018x}), \
                     replay is (cycle {}, digest {:#018x})",
                    a.epoch, a.cycle, a.digest, b.cycle, b.digest
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = StateDigest::new();
        a.mix(1).mix(2);
        let mut b = StateDigest::new();
        b.mix(2).mix(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_prefix_does_not_collide() {
        let mut a = StateDigest::new();
        a.mix(5);
        let mut b = StateDigest::new();
        b.mix(5).mix(0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_is_deterministic() {
        let run = || {
            let mut d = StateDigest::new();
            d.mix_all([3, 1, 4, 1, 5, 9, 2, 6]);
            d.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn log_records_in_order() {
        let mut log = CheckpointLog::new();
        assert!(log.is_empty());
        log.record(EpochCheckpoint {
            epoch: 0,
            cycle: 100,
            digest: 1,
        });
        log.record(EpochCheckpoint {
            epoch: 1,
            cycle: 200,
            digest: 2,
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.last().unwrap().cycle, 200);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn log_rejects_out_of_order_epochs() {
        let mut log = CheckpointLog::new();
        log.record(EpochCheckpoint {
            epoch: 3,
            cycle: 100,
            digest: 1,
        });
    }

    #[test]
    fn verify_prefix_accepts_identical_and_longer_logs() {
        let mut crashed = CheckpointLog::new();
        crashed.record(EpochCheckpoint {
            epoch: 0,
            cycle: 100,
            digest: 11,
        });
        crashed.record(EpochCheckpoint {
            epoch: 1,
            cycle: 200,
            digest: 22,
        });
        let mut restored = crashed.clone();
        assert!(crashed.verify_prefix_of(&restored).is_ok());
        restored.record(EpochCheckpoint {
            epoch: 2,
            cycle: 300,
            digest: 33,
        });
        assert!(crashed.verify_prefix_of(&restored).is_ok());
    }

    #[test]
    fn verify_prefix_rejects_divergence_and_truncation() {
        let mut crashed = CheckpointLog::new();
        crashed.record(EpochCheckpoint {
            epoch: 0,
            cycle: 100,
            digest: 11,
        });
        crashed.record(EpochCheckpoint {
            epoch: 1,
            cycle: 200,
            digest: 22,
        });

        let mut diverged = CheckpointLog::new();
        diverged.record(EpochCheckpoint {
            epoch: 0,
            cycle: 100,
            digest: 11,
        });
        diverged.record(EpochCheckpoint {
            epoch: 1,
            cycle: 200,
            digest: 99,
        });
        assert!(crashed.verify_prefix_of(&diverged).is_err());

        let mut short = CheckpointLog::new();
        short.record(EpochCheckpoint {
            epoch: 0,
            cycle: 100,
            digest: 11,
        });
        assert!(crashed.verify_prefix_of(&short).is_err());
    }
}
