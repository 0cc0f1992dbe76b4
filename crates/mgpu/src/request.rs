//! Translation-request bookkeeping.

use ptw::{GpuId, Location};
use sim_core::Cycle;

use crate::metrics::LatencyBreakdown;

/// Index of a request in the [`ReqArena`].
pub type ReqId = usize;

/// Identifies one wavefront slot (the MSHR waiter token).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WfRef {
    /// GPU index.
    pub gpu: u16,
    /// CU index within the GPU.
    pub cu: u16,
    /// Wavefront slot within the CU.
    pub wf: u16,
}

/// One outstanding translation request (a post-coalescing L2 TLB miss).
///
/// A request is uniquely identified by `(gpu, vpn)` while in flight — the
/// per-GPU L2 MSHR guarantees at most one outstanding translation per page
/// per GPU.
#[derive(Debug, Clone)]
pub struct Req {
    /// Translation-granule virtual page number.
    pub vpn: u64,
    /// Requesting GPU.
    pub gpu: GpuId,
    /// Whether the triggering access writes.
    pub is_write: bool,
    /// Creation time (L2 TLB miss).
    pub born: Cycle,
    /// Where the final local PTE points (filled during fault resolution).
    pub resolved_loc: Option<Location>,
    /// Trans-FW: the request was forwarded to a remote GPU.
    pub forwarded: bool,
    /// The peer the live forward went to, until its outcome is recorded
    /// with the overload circuit breaker (then taken back to `None`, so
    /// each forward attempt contributes at most one breaker sample).
    pub forwarded_to: Option<GpuId>,
    /// Trans-FW: the remote GPU supplied the translation.
    pub remote_supplied: bool,
    /// The host walk (or driver batch) has started and can no longer be
    /// cancelled.
    pub host_walk_started: bool,
    /// Trans-FW: the queued host walk was cancelled by a remote success.
    pub cancelled: bool,
    /// The requester received a translation; later arrivals are discarded.
    pub completed: bool,
    /// The remote-walk outcome notification was processed at the host;
    /// later copies (injected duplicates, retried forwards) are discarded.
    pub remote_outcome: bool,
    /// The watchdog's deadline fired at least once for this request.
    pub remote_timed_out: bool,
    /// Lossy retries issued by the watchdog for this request.
    pub watchdog_retries: u32,
    /// The request degraded to the reliable fallback host-walk path; all
    /// subsequent messages for it bypass the fault injector.
    pub fallback: bool,
    /// Times the request was retired (delivered a translation to its
    /// waiters). The auditor requires exactly 1 for every request.
    pub retire_count: u32,
    /// Cycle the fault reached the host/driver (for queue accounting).
    pub host_submit_time: Cycle,
    /// Per-request latency attribution.
    pub lat: LatencyBreakdown,
}

impl Req {
    fn new(vpn: u64, gpu: GpuId, is_write: bool, born: Cycle) -> Self {
        Self {
            vpn,
            gpu,
            is_write,
            born,
            resolved_loc: None,
            forwarded: false,
            forwarded_to: None,
            remote_supplied: false,
            host_walk_started: false,
            cancelled: false,
            completed: false,
            remote_outcome: false,
            remote_timed_out: false,
            watchdog_retries: 0,
            fallback: false,
            retire_count: 0,
            host_submit_time: 0,
            lat: LatencyBreakdown::default(),
        }
    }
}

/// Requests per [`ReqArena`] chunk: about 100 KiB of `Req`s, under
/// glibc's default 128 KiB mmap threshold.
const CHUNK: usize = 1024;
const _: () = assert!(CHUNK * std::mem::size_of::<Req>() < 128 << 10);

/// Append-only arena of translation requests for one run.
///
/// Requests live in fixed-size chunks, so a growing arena never copies
/// what it holds and never asks the allocator for one block the size of
/// the whole run. A single doubling `Vec` would do both, and each growth
/// step would leave a freed hole in the heap that stays resident.
///
/// # Examples
///
/// ```
/// use mgpu::request::ReqArena;
///
/// let mut arena = ReqArena::new();
/// let id = arena.create(0x42, 1, false, 100);
/// assert_eq!(arena[id].vpn, 0x42);
/// arena[id].completed = true;
/// assert_eq!(arena.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReqArena {
    /// Every chunk but the last holds exactly `CHUNK` requests; request
    /// `id` sits at `chunks[id / CHUNK][id % CHUNK]`.
    chunks: Vec<Vec<Req>>,
}

impl ReqArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new request and returns its id.
    pub fn create(&mut self, vpn: u64, gpu: GpuId, is_write: bool, born: Cycle) -> ReqId {
        let id = self.len();
        let req = Req::new(vpn, gpu, is_write, born);
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(req),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(req);
                self.chunks.push(chunk);
            }
        }
        id
    }

    /// Number of requests ever created.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Whether no requests were created.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The request with id `id`, or `None` for an id this arena never
    /// minted. Preferred over indexing on the event-handler paths: a stale
    /// id (a duplicated message surviving past the run) then degrades to a
    /// discarded event instead of a panic.
    pub fn get(&self, id: ReqId) -> Option<&Req> {
        self.chunks.get(id / CHUNK)?.get(id % CHUNK)
    }

    /// Mutable access to the request with id `id`, if it exists.
    pub fn get_mut(&mut self, id: ReqId) -> Option<&mut Req> {
        self.chunks.get_mut(id / CHUNK)?.get_mut(id % CHUNK)
    }

    /// Iterates over all requests in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Req> {
        self.chunks.iter().flatten()
    }
}

impl std::ops::Index<ReqId> for ReqArena {
    type Output = Req;

    fn index(&self, id: ReqId) -> &Req {
        &self.chunks[id / CHUNK][id % CHUNK]
    }
}

impl std::ops::IndexMut<ReqId> for ReqArena {
    fn index_mut(&mut self, id: ReqId) -> &mut Req {
        &mut self.chunks[id / CHUNK][id % CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_index() {
        let mut a = ReqArena::new();
        let r0 = a.create(1, 0, false, 10);
        let r1 = a.create(2, 3, true, 20);
        assert_eq!(a[r0].vpn, 1);
        assert_eq!(a[r1].gpu, 3);
        assert!(a[r1].is_write);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn new_requests_have_clean_state() {
        let mut a = ReqArena::new();
        let r = a.create(7, 1, false, 5);
        let req = &a[r];
        assert!(!req.forwarded);
        assert!(!req.remote_supplied);
        assert!(!req.cancelled);
        assert!(!req.completed);
        assert!(!req.fallback);
        assert!(!req.remote_timed_out);
        assert_eq!(req.retire_count, 0);
        assert_eq!(req.lat.total(), 0);
    }

    #[test]
    fn mutation_through_index() {
        let mut a = ReqArena::new();
        let r = a.create(7, 1, false, 5);
        a[r].lat.gmmu_queue += 42;
        a[r].forwarded = true;
        assert_eq!(a[r].lat.gmmu_queue, 42);
        assert!(a[r].forwarded);
    }

    #[test]
    fn ids_and_order_hold_across_chunks() {
        let mut a = ReqArena::new();
        let n = 2 * CHUNK + 3;
        for i in 0..n {
            assert_eq!(a.create(i as u64, 0, false, 0), i);
        }
        assert_eq!(a.len(), n);
        for id in [0, CHUNK - 1, CHUNK, 2 * CHUNK, n - 1] {
            assert_eq!(a[id].vpn, id as u64);
            assert_eq!(a.get(id).map(|r| r.vpn), Some(id as u64));
        }
        assert!(a.get(n).is_none());
        assert!(a.iter().map(|r| r.vpn).eq(0..n as u64));
    }

    #[test]
    fn iter_covers_all() {
        let mut a = ReqArena::new();
        for i in 0..5 {
            a.create(i, 0, false, 0);
        }
        assert_eq!(a.iter().count(), 5);
        assert!(!a.is_empty());
    }
}
