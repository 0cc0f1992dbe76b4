//! The benchmark-owned workload wrapper.
//!
//! [`Probe`] forwards every [`Workload`] call to the cell's real workload.
//! Untraced, it only stamps the first `make_stream` call: that instant
//! ends warm placement, since `System::run` places every page before it
//! builds the first CTA stream. Traced, it also times every
//! `make_stream`, `next_access` and `initial_owner` call into [`Spans`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mgpu::workload::{Access, AccessStream, Workload};

/// Host time and call counts of the workload layer, shared by every cell
/// of one traced pass. Plain statistics: `Relaxed` is enough, since no
/// other data is published through them.
#[derive(Debug, Default)]
pub struct Spans {
    /// Nanoseconds inside `make_stream` and `next_access`.
    pub stream_ns: AtomicU64,
    /// Nanoseconds inside `initial_owner`.
    pub owner_ns: AtomicU64,
    /// `next_access` calls.
    pub next_access_calls: AtomicU64,
    /// `initial_owner` calls.
    pub initial_owner_calls: AtomicU64,
}

impl Spans {
    fn add(counter: &AtomicU64, since: Instant) {
        counter.fetch_add(nanos(since), Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Nanoseconds elapsed since `since`, saturating at `u64::MAX`.
pub fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wraps one cell's workload; see the module docs.
pub struct Probe<'a> {
    inner: &'a dyn Workload,
    first_stream: OnceLock<Instant>,
    spans: Option<Arc<Spans>>,
}

impl<'a> Probe<'a> {
    /// A probe that stamps only the first stream build.
    pub fn plain(inner: &'a dyn Workload) -> Self {
        Self {
            inner,
            first_stream: OnceLock::new(),
            spans: None,
        }
    }

    /// A probe that also times every call into `spans`.
    pub fn traced(inner: &'a dyn Workload, spans: Arc<Spans>) -> Self {
        Self {
            inner,
            first_stream: OnceLock::new(),
            spans: Some(spans),
        }
    }

    /// When the first CTA stream was requested, if one was.
    pub fn first_stream(&self) -> Option<Instant> {
        self.first_stream.get().copied()
    }
}

impl Workload for Probe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn footprint_pages(&self) -> u64 {
        self.inner.footprint_pages()
    }

    fn cta_count(&self) -> usize {
        self.inner.cta_count()
    }

    fn make_stream(&self, cta: usize, seed: u64) -> Box<dyn AccessStream> {
        self.first_stream.get_or_init(Instant::now);
        let Some(spans) = &self.spans else {
            return self.inner.make_stream(cta, seed);
        };
        let start = Instant::now();
        let inner = self.inner.make_stream(cta, seed);
        Spans::add(&spans.stream_ns, start);
        Box::new(TracedStream {
            inner,
            spans: Arc::clone(spans),
        })
    }

    fn data_cache_hit_rate(&self) -> f64 {
        self.inner.data_cache_hit_rate()
    }

    fn initial_owner(&self, vpn: u64, gpus: u16) -> Option<u16> {
        let Some(spans) = &self.spans else {
            return self.inner.initial_owner(vpn, gpus);
        };
        let start = Instant::now();
        let owner = self.inner.initial_owner(vpn, gpus);
        Spans::add(&spans.owner_ns, start);
        spans.initial_owner_calls.fetch_add(1, Ordering::Relaxed);
        owner
    }
}

struct TracedStream {
    inner: Box<dyn AccessStream>,
    spans: Arc<Spans>,
}

impl AccessStream for TracedStream {
    fn next_access(&mut self) -> Option<Access> {
        let start = Instant::now();
        let access = self.inner.next_access();
        Spans::add(&self.spans.stream_ns, start);
        self.spans.next_access_calls.fetch_add(1, Ordering::Relaxed);
        access
    }
}
