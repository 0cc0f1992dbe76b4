//! Unified virtual memory (UVM) state machines.
//!
//! The UVM driver owns a *centralised page table* that always knows where
//! every page lives (§II-A). This crate models that authority and the three
//! page-placement policies the paper evaluates:
//!
//! * **on-touch migration** ([`PolicyKind::FirstTouch`], the default in
//!   modern GPUs, §V-E): the first access from a GPU migrates the page into
//!   its device memory;
//! * **read replication** ([`PolicyKind::ReadDuplicate`], §V-D): read-shared
//!   pages are replicated under an ESI coherence protocol, writes invalidate
//!   all replicas;
//! * **remote mapping** ([`PolicyKind::DelayedMigration`], §V-E): a far
//!   fault first maps the remote page without moving it, and per-GPU access
//!   counters promote hot pages to a real migration.
//!
//! It also models the **software UVM-driver far-fault path** (§II-B): a
//! fault buffer drained in 256-fault batches by driver threads, the
//! scalability bottleneck that Fig. 2 quantifies.
//!
//! Placement decisions live in the [`policy`] module: [`PolicyKind`] names
//! one of four policies (first-touch, delayed migration, read duplication,
//! neighborhood prefetch) and carries their decision logic as methods. Every
//! ownership change — a fault resolution, a prefetch or an access-counter
//! promotion — is expressed as an [`OwnershipTransaction`] that the memory
//! system mirrors atomically into page tables, TLBs, PRTs and FTs.

// A panic in sim code aborts a run mid-flight, and a wildcard arm would
// swallow a new enum variant at a protocol handler (DESIGN.md, "Static
// analysis & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::wildcard_enum_match_arm)]
#![warn(clippy::match_wildcard_for_single_variants)]

pub mod directory;
pub mod driver;
pub mod evict;
pub mod policy;

pub use directory::{DirectoryStats, EvictionReport, PageDirectory, PageState};
pub use driver::{DriverBatch, DriverConfig, UvmDriver};
pub use evict::{EvictPolicy, EvictionEngine, VictimPick};
pub use policy::{OwnershipTransaction, PolicyDecision, PolicyKind, TrafficClass, TxnKind};
