//! Miss-status holding registers with request coalescing.

/// Outcome of registering a miss with an [`Mshr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First outstanding miss for this page: the caller must issue the fill.
    Primary,
    /// An earlier miss for the same page is in flight; this request was
    /// queued behind it and will be woken by [`Mshr::complete`].
    Merged,
    /// No free MSHR entry: the request must stall and retry.
    Full,
}

/// A miss-status holding register file keyed by virtual page number.
///
/// Requests to a page that already has an outstanding fill are *coalesced*:
/// they park in the entry's waiter list and are all released when the fill
/// completes. The paper relies on this heavily (§III-B: Conv2d's speedup
/// comes from many pending requests coalescing onto one page fault).
///
/// The file is flat: a dense array of outstanding tags searched linearly
/// (occupancy is bounded by the wavefronts that can miss at once, so the
/// scan is short) beside a parallel array of waiter lists. Completing an
/// entry swap-removes it, and [`complete_into`](Self::complete_into)
/// recycles the emptied list, so steady-state traffic allocates nothing.
///
/// # Examples
///
/// ```
/// use tlb::{Mshr, MshrOutcome};
///
/// let mut mshr: Mshr<&str> = Mshr::new(4);
/// assert_eq!(mshr.register(7, "first"), MshrOutcome::Primary);
/// assert_eq!(mshr.register(7, "second"), MshrOutcome::Merged);
/// let woken = mshr.complete(7);
/// assert_eq!(woken, vec!["first", "second"]);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<W> {
    /// Outstanding VPNs, in no particular order.
    tags: Vec<u64>,
    /// Waiters of `tags[i]`, primary first.
    waiters: Vec<Vec<W>>,
    /// Emptied waiter lists kept for reuse.
    spare: Vec<Vec<W>>,
    capacity: usize,
    merged: u64,
    primaries: u64,
    stalls: u64,
}

impl<W> Mshr<W> {
    /// Creates an MSHR file with `capacity` distinct outstanding pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            tags: Vec::new(),
            waiters: Vec::new(),
            spare: Vec::new(),
            capacity,
            merged: 0,
            primaries: 0,
            stalls: 0,
        }
    }

    #[inline]
    fn position(&self, vpn: u64) -> Option<usize> {
        self.tags.iter().position(|&t| t == vpn)
    }

    /// Registers a missing request for `vpn` carrying waiter token `waiter`.
    pub fn register(&mut self, vpn: u64, waiter: W) -> MshrOutcome {
        if let Some(list) = self.position(vpn).and_then(|i| self.waiters.get_mut(i)) {
            list.push(waiter);
            self.merged += 1;
            return MshrOutcome::Merged;
        }
        if self.tags.len() >= self.capacity {
            self.stalls += 1;
            return MshrOutcome::Full;
        }
        let mut list = self.spare.pop().unwrap_or_default();
        list.push(waiter);
        self.tags.push(vpn);
        self.waiters.push(list);
        self.primaries += 1;
        MshrOutcome::Primary
    }

    /// Removes the entry for `vpn`, returning its waiter list.
    fn take(&mut self, vpn: u64) -> Option<Vec<W>> {
        let i = self.position(vpn)?;
        self.tags.swap_remove(i);
        Some(self.waiters.swap_remove(i))
    }

    /// Completes the outstanding fill for `vpn`, returning every coalesced
    /// waiter (primary first, in arrival order). Returns an empty vector if
    /// no entry was outstanding.
    pub fn complete(&mut self, vpn: u64) -> Vec<W> {
        self.take(vpn).unwrap_or_default()
    }

    /// [`complete`](Self::complete) without allocating: appends the
    /// waiters to `out` (primary first, in arrival order) and keeps the
    /// emptied list for a later entry. Appends nothing if no entry was
    /// outstanding.
    pub fn complete_into(&mut self, vpn: u64, out: &mut Vec<W>) {
        if let Some(mut list) = self.take(vpn) {
            out.append(&mut list);
            self.spare.push(list);
        }
    }

    /// Whether a fill for `vpn` is already in flight.
    pub fn is_outstanding(&self, vpn: u64) -> bool {
        self.position(vpn).is_some()
    }

    /// Outstanding distinct pages.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether no fills are outstanding.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Requests that merged into an existing entry.
    pub fn merged_count(&self) -> u64 {
        self.merged
    }

    /// Requests that allocated a new entry.
    pub fn primary_count(&self) -> u64 {
        self.primaries
    }

    /// Requests rejected because the file was full.
    pub fn stall_count(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_merged() {
        let mut m: Mshr<u32> = Mshr::new(2);
        assert_eq!(m.register(1, 100), MshrOutcome::Primary);
        assert_eq!(m.register(1, 101), MshrOutcome::Merged);
        assert_eq!(m.register(2, 200), MshrOutcome::Primary);
        assert_eq!(m.merged_count(), 1);
        assert_eq!(m.primary_count(), 2);
    }

    #[test]
    fn full_when_capacity_reached() {
        let mut m: Mshr<u32> = Mshr::new(1);
        assert_eq!(m.register(1, 0), MshrOutcome::Primary);
        assert_eq!(m.register(2, 0), MshrOutcome::Full);
        assert_eq!(m.stall_count(), 1);
        // Same page still merges even when full.
        assert_eq!(m.register(1, 1), MshrOutcome::Merged);
    }

    #[test]
    fn complete_releases_all_waiters_in_order() {
        let mut m: Mshr<u32> = Mshr::new(4);
        m.register(9, 1);
        m.register(9, 2);
        m.register(9, 3);
        assert_eq!(m.complete(9), vec![1, 2, 3]);
        assert!(!m.is_outstanding(9));
        assert!(m.is_empty());
    }

    #[test]
    fn complete_absent_is_empty() {
        let mut m: Mshr<u32> = Mshr::new(4);
        assert!(m.complete(42).is_empty());
    }

    #[test]
    fn complete_into_appends_and_recycles_the_list() {
        let mut m: Mshr<u32> = Mshr::new(2);
        m.register(4, 1);
        m.register(4, 2);
        m.register(5, 3);
        let mut out = vec![0];
        m.complete_into(4, &mut out);
        m.complete_into(4, &mut out);
        assert_eq!(out, vec![0, 1, 2], "second completion finds nothing");
        assert_eq!(m.spare.len(), 1);
        assert_eq!(m.register(6, 7), MshrOutcome::Primary);
        assert!(m.spare.is_empty(), "the new entry reused the list");
        assert_eq!(m.complete(5), vec![3]);
        assert_eq!(m.complete(6), vec![7]);
    }

    #[test]
    fn freed_entry_is_reusable() {
        let mut m: Mshr<u32> = Mshr::new(1);
        m.register(1, 0);
        m.complete(1);
        assert_eq!(m.register(2, 0), MshrOutcome::Primary);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Mshr::<u32>::new(0);
    }
}
