//! Overload-control primitives: exponential backoff with deterministic
//! jitter, integer token buckets, and watermark hysteresis gates.
//!
//! These are the building blocks the mgpu overload subsystem composes into
//! admission control, retry budgets and circuit breakers. They are kept in
//! `sim-core` because they are pure state machines over `Cycle` arithmetic
//! and the seeded [`SimRng`] — no wall-clock time, no floating-point
//! accumulation in the control path, so every decision replays bit-identically
//! from a seed.

use crate::{Cycle, SimRng};

/// Exponential backoff schedule with deterministic full-ish jitter.
///
/// Attempt `n` draws a delay uniformly from `[raw/2, raw]` where
/// `raw = min(base << n, cap)`. The half-floor keeps retries from
/// synchronising at zero while the jitter (drawn from the caller's
/// [`SimRng`]) de-correlates retry storms across requests.
///
/// # Examples
///
/// ```
/// use sim_core::{ExponentialBackoff, SimRng};
///
/// let b = ExponentialBackoff::new(1_000, 32_000);
/// let mut rng = SimRng::new(7);
/// let d0 = b.delay(0, &mut rng);
/// assert!((500..=1_000).contains(&d0));
/// let d9 = b.delay(9, &mut rng); // capped
/// assert!((16_000..=32_000).contains(&d9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExponentialBackoff {
    base: Cycle,
    cap: Cycle,
}

impl ExponentialBackoff {
    /// Creates a schedule with first-attempt delay `base` and ceiling `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero or `cap < base`.
    pub fn new(base: Cycle, cap: Cycle) -> Self {
        assert!(base > 0, "backoff base must be positive");
        assert!(cap >= base, "backoff cap must be at least the base");
        Self { base, cap }
    }

    /// The jittered delay for retry `attempt` (0-based), in `[raw/2, raw]`.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> Cycle {
        let raw = self.raw_delay(attempt);
        let floor = raw / 2;
        floor + rng.gen_range(raw - floor + 1)
    }

    /// The un-jittered ceiling for retry `attempt` (0-based).
    pub fn raw_delay(&self, attempt: u32) -> Cycle {
        1u64.checked_shl(attempt)
            .and_then(|m| self.base.checked_mul(m))
            .unwrap_or(self.cap)
            .min(self.cap)
    }
}

/// An integer token bucket metering retries against fresh traffic.
///
/// Levels are kept in milli-tokens so a refill of, say, 250‰ per fresh
/// arrival (one retry token per four fresh requests) needs no floating
/// point: `refill()` adds `refill_permille` milli-tokens, `try_take()`
/// spends 1000. The bucket starts full so a cold system can retry
/// immediately; sustained retry demand beyond the refill rate drains it
/// and further retries are denied until fresh traffic re-funds the bucket.
///
/// # Examples
///
/// ```
/// use sim_core::TokenBucket;
///
/// let mut b = TokenBucket::new(2, 500); // 2 tokens, +0.5 per refill
/// assert!(b.try_take());
/// assert!(b.try_take());
/// assert!(!b.try_take()); // empty
/// b.refill();
/// b.refill();
/// assert!(b.try_take()); // two refills = one token
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucket {
    level_milli: u64,
    capacity_milli: u64,
    refill_permille: u64,
}

impl TokenBucket {
    /// Creates a bucket holding at most `capacity` tokens, starting full,
    /// gaining `refill_permille` milli-tokens per [`TokenBucket::refill`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `refill_permille` exceeds 1000.
    pub fn new(capacity: u64, refill_permille: u64) -> Self {
        assert!(capacity > 0, "token bucket capacity must be positive");
        assert!(
            refill_permille <= 1000,
            "refill rate above one token per arrival defeats the budget"
        );
        Self {
            level_milli: capacity * 1000,
            capacity_milli: capacity * 1000,
            refill_permille,
        }
    }

    /// Credits one fresh-arrival's worth of refill, saturating at capacity.
    #[inline]
    pub fn refill(&mut self) {
        self.level_milli = (self.level_milli + self.refill_permille).min(self.capacity_milli);
    }

    /// Spends one token if available; returns whether it was.
    #[inline]
    pub fn try_take(&mut self) -> bool {
        if self.level_milli >= 1000 {
            self.level_milli -= 1000;
            true
        } else {
            false
        }
    }

    /// Current level in milli-tokens (for digests and diagnostics).
    pub fn level_milli(&self) -> u64 {
        self.level_milli
    }
}

/// A two-watermark hysteresis gate: engages at or above `high`, releases
/// only at or below `low`, so a signal oscillating between the watermarks
/// cannot flap the decision.
///
/// # Examples
///
/// ```
/// use sim_core::Hysteresis;
///
/// let mut g = Hysteresis::new(8, 2);
/// assert!(!g.observe(7)); // below high: stays released
/// assert!(g.observe(8));  // engages
/// assert!(g.observe(5));  // between the watermarks: stays engaged
/// assert!(!g.observe(2)); // at low: releases
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hysteresis {
    high: usize,
    low: usize,
    engaged: bool,
}

impl Hysteresis {
    /// Creates a released gate with the given watermarks.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn new(high: usize, low: usize) -> Self {
        assert!(low <= high, "hysteresis low watermark must not exceed high");
        Self {
            high,
            low,
            engaged: false,
        }
    }

    /// Feeds one occupancy sample; returns the gate state after it.
    #[inline]
    pub fn observe(&mut self, occupancy: usize) -> bool {
        if occupancy >= self.high {
            self.engaged = true;
        } else if occupancy <= self.low {
            self.engaged = false;
        }
        self.engaged
    }

    /// Whether the gate is currently engaged (shedding).
    pub fn engaged(&self) -> bool {
        self.engaged
    }
}

/// A sliding-window event counter over `Cycle` time: how many events were
/// recorded in the trailing `window` cycles.
///
/// The thrash detector feeds refault events (a fault on a recently evicted
/// page) into one of these and gates on the windowed count, so a burst of
/// refaults engages the gate while ancient history ages out. Events are
/// kept exactly (a deque of timestamps pruned on every operation), which
/// keeps the count deterministic and replayable; memory is bounded by the
/// number of events inside one window.
///
/// # Examples
///
/// ```
/// use sim_core::WindowedCount;
///
/// let mut w = WindowedCount::new(100);
/// w.record(10);
/// w.record(50);
/// assert_eq!(w.count(60), 2);
/// assert_eq!(w.count(111), 1); // the event at 10 aged out
/// assert_eq!(w.count(151), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedCount {
    window: Cycle,
    events: std::collections::VecDeque<Cycle>,
}

impl WindowedCount {
    /// Creates an empty counter with the given window length in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Cycle) -> Self {
        assert!(window > 0, "windowed counter needs a positive window");
        Self {
            window,
            events: std::collections::VecDeque::new(),
        }
    }

    fn prune(&mut self, now: Cycle) {
        let cutoff = now.saturating_sub(self.window);
        while self.events.front().is_some_and(|&t| t <= cutoff) {
            self.events.pop_front();
        }
    }

    /// Records one event at `now`. Events must be fed in non-decreasing
    /// time order (simulation time is monotone).
    pub fn record(&mut self, now: Cycle) {
        debug_assert!(
            self.events.back().is_none_or(|&t| t <= now),
            "windowed counter fed out of order"
        );
        self.prune(now);
        self.events.push_back(now);
    }

    /// Events recorded in `(now - window, now]`, pruning aged-out entries.
    pub fn count(&mut self, now: Cycle) -> usize {
        self.prune(now);
        self.events.len()
    }

    /// The retained event timestamps, oldest first (digests, diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = Cycle> + '_ {
        self.events.iter().copied()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "fixed-seed test streams")]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let b = ExponentialBackoff::new(100, 1_000);
        assert_eq!(b.raw_delay(0), 100);
        assert_eq!(b.raw_delay(1), 200);
        assert_eq!(b.raw_delay(3), 800);
        assert_eq!(b.raw_delay(4), 1_000);
        assert_eq!(b.raw_delay(63), 1_000);
        assert_eq!(b.raw_delay(200), 1_000);
    }

    #[test]
    fn backoff_jitter_stays_in_window_and_is_deterministic() {
        let b = ExponentialBackoff::new(1_000, 64_000);
        let mut a = SimRng::new(9);
        let mut c = SimRng::new(9);
        for attempt in 0..8 {
            let raw = b.raw_delay(attempt);
            let d = b.delay(attempt, &mut a);
            assert!(d >= raw / 2 && d <= raw, "attempt {attempt}: {d} vs {raw}");
            assert_eq!(d, b.delay(attempt, &mut c), "same seed, same jitter");
        }
    }

    #[test]
    #[should_panic(expected = "base must be positive")]
    fn backoff_rejects_zero_base() {
        let _ = ExponentialBackoff::new(0, 10);
    }

    #[test]
    fn bucket_starts_full_and_refills_fractionally() {
        let mut b = TokenBucket::new(3, 250);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take());
        for _ in 0..3 {
            b.refill();
        }
        assert!(!b.try_take(), "750 milli-tokens is not a whole token");
        b.refill();
        assert!(b.try_take(), "four refills at 250 permille fund one retry");
    }

    #[test]
    fn bucket_saturates_at_capacity() {
        let mut b = TokenBucket::new(1, 1000);
        for _ in 0..100 {
            b.refill();
        }
        assert!(b.try_take());
        assert!(!b.try_take(), "capacity caps hoarding at one token");
    }

    #[test]
    fn hysteresis_does_not_flap_between_watermarks() {
        let mut g = Hysteresis::new(10, 4);
        assert!(!g.observe(9));
        assert!(g.observe(10));
        for occ in [9, 5, 8, 6] {
            assert!(g.observe(occ), "must hold while above low ({occ})");
        }
        assert!(!g.observe(4));
        assert!(!g.observe(9), "re-engages only at high");
        assert!(g.observe(11));
    }

    #[test]
    fn hysteresis_equal_watermarks_degenerate_to_threshold() {
        let mut g = Hysteresis::new(5, 5);
        assert!(!g.observe(4));
        assert!(g.observe(5), "high wins the tie");
        assert!(!g.observe(4), "releases strictly below the watermark");
    }

    #[test]
    fn windowed_count_ages_events_out() {
        let mut w = WindowedCount::new(100);
        assert_eq!(w.count(0), 0);
        w.record(10);
        w.record(10);
        w.record(90);
        assert_eq!(w.count(90), 3);
        assert_eq!(w.count(110), 1, "events at 10 aged out at 110");
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![90]);
        assert_eq!(
            w.count(189),
            1,
            "boundary: 90 is still inside (189-100, 189]"
        );
        assert_eq!(w.count(190), 0, "boundary: 90 falls out of (190-100, 190]");
    }

    #[test]
    fn windowed_count_record_prunes_too() {
        let mut w = WindowedCount::new(10);
        for t in [0u64, 5, 20] {
            w.record(t);
        }
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            vec![20],
            "record pruned stale"
        );
    }

    #[test]
    #[should_panic(expected = "positive window")]
    fn windowed_count_rejects_zero_window() {
        let _ = WindowedCount::new(0);
    }
}
