//! A small, fast, deterministic PRNG.
//!
//! The simulator must be reproducible from a single seed, so we implement
//! xoshiro256** (Blackman & Vigna) seeded through SplitMix64 rather than
//! relying on ambient OS entropy.

/// The simulator's named random streams. Each discriminant is the salt
/// XORed into the seed, so two subsystems never share a stream: rustc
/// rejects a duplicated discriminant (E0081).
#[repr(u64)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The system's root stream: the run seed itself.
    Root = 0,
    /// ASAP prediction coin flips (fixed seed, independent of the run).
    Asap = 0xA5A9_0001,
    /// The fault injector's draws, seeded by the fault plan.
    Fault = 0x000F_A017_1EC7,
    /// Overload-control backoff jitter.
    Overload = 0x0E7B_10AD_5EED_CAFE,
    /// Phase-workload access streams, one lane per CTA.
    PhaseWorkload = 0x9A5E_5F17,
    /// Table III application access streams, one lane per CTA.
    AppWorkload = 0x5EC5_7811,
    /// Oversubscription-workload access streams, one lane per CTA.
    OversubWorkload = 0x05EB_F00D,
    /// Burst-workload access streams, one lane per CTA.
    BurstWorkload = 0xB0B5_7E11,
    /// ML-model access streams, one lane per CTA.
    MlWorkload = 0x31A7_EB0D,
}

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use sim_core::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding and as a standalone mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The generator for `stream` under the run seed `seed`; `lane` splits
    /// one stream further (e.g. per CTA) and is 0 where there is one.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place a simulator stream is seeded"
    )]
    pub fn stream(seed: u64, stream: Stream, lane: u64) -> Self {
        Self::new(seed ^ (stream as u64).wrapping_mul(lane.wrapping_add(1)))
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = u128::from(x).wrapping_mul(u128::from(bound));
        let mut lo = m as u64;
        if lo < bound {
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                x = self.next_u64();
                m = u128::from(x).wrapping_mul(u128::from(bound));
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Forks an independent stream, e.g. one per simulated compute unit.
    #[expect(
        clippy::disallowed_methods,
        reason = "a fork reseeds from this generator's own draws"
    )]
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// A 64-bit digest of the generator's current state, without advancing
    /// it. Two generators with equal digests will produce identical streams
    /// from here on — used by epoch checkpoints to certify that a restored
    /// run has replayed to the same random state.
    pub fn state_digest(&self) -> u64 {
        let Self { s } = self;
        let mut acc = 0xC0FF_EE00_0000_0001u64;
        for (i, &w) in s.iter().enumerate() {
            let mut sm = w ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            acc ^= splitmix64(&mut sm).rotate_left((i as u32) * 16);
        }
        acc
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "fixed-seed test streams")]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(99);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        SimRng::new(0).gen_range(0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_f64_roughly_uniform() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(21);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100-element shuffle should not be identity");
    }

    #[test]
    fn state_digest_tracks_stream_position() {
        let mut a = SimRng::new(77);
        let mut b = SimRng::new(77);
        assert_eq!(a.state_digest(), b.state_digest());
        let d0 = a.state_digest();
        a.next_u64();
        assert_ne!(a.state_digest(), d0, "advancing changes the digest");
        assert_eq!(b.state_digest(), d0, "digest does not advance the stream");
        b.next_u64();
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Each call site's stream draws exactly what its seed expression drew
    /// before the streams were named, so no simulated result moves.
    #[test]
    fn streams_match_the_salted_seeds_they_replace() {
        for seed in [0, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            for cta in [0u64, 1, 5, 63] {
                // (stream, run seed, lane, the seed the site used to pass).
                // The ASAP stream never saw the run seed.
                let per_cta = |salt: u64| seed ^ salt.wrapping_mul(cta + 1);
                let sites = [
                    (Stream::Root, seed, 0, seed),
                    (Stream::Asap, 0, 0, 0xA5A9_0001),
                    (Stream::Fault, seed, 0, seed ^ 0x000F_A017_1EC7),
                    (Stream::Overload, seed, 0, seed ^ 0x0E7B_10AD_5EED_CAFE),
                    (Stream::PhaseWorkload, seed, cta, per_cta(0x9A5E_5F17)),
                    (Stream::AppWorkload, seed, cta, per_cta(0x5EC5_7811)),
                    (Stream::OversubWorkload, seed, cta, per_cta(0x05EB_F00D)),
                    (Stream::BurstWorkload, seed, cta, per_cta(0xB0B5_7E11)),
                    (Stream::MlWorkload, seed, cta, per_cta(0x31A7_EB0D)),
                ];
                for (stream, run_seed, lane, old_seed) in sites {
                    let mut new = SimRng::stream(run_seed, stream, lane);
                    let mut old = SimRng::new(old_seed);
                    for _ in 0..4 {
                        assert_eq!(new.next_u64(), old.next_u64(), "{stream:?} lane {lane}");
                    }
                }
            }
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::new(1234);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }
}
