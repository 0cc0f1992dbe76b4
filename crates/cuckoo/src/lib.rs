//! Cuckoo filter: practically better than Bloom.
//!
//! Trans-FW's two hardware tables — the per-GPU *Pending Request Table* (PRT)
//! and the host-MMU *Forwarding Table* (FT) — are both Cuckoo filters
//! (Fan et al., CoNEXT '14). This crate implements the filter with the exact
//! knobs the paper exposes: bucket count, slots per bucket (2 for FT, 4 for
//! PRT), fingerprint width (11 and 13 bits), and deletion support. The
//! filter is modelled by what it answers: the multiset of (fingerprint,
//! bucket pair) entries that decides every lookup and delete, not the cell
//! layout a kick chain would leave behind.
//!
//! The paper hashes with MetroHash; [`hash`] provides a 64-bit mixer with the
//! same xor-multiply-rotate structure (only distribution quality matters for
//! the filter's false-positive rate).
//!
//! # Examples
//!
//! ```
//! use cuckoo::CuckooFilter;
//!
//! let mut f = CuckooFilter::new(128, 4, 13);
//! f.insert(42);
//! assert!(f.contains(42));
//! assert!(f.remove(42));
//! assert!(!f.contains(42));
//! ```

// A panic in sim code aborts a run mid-flight (DESIGN.md, "Static analysis
// & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod filter;
#[cfg(test)]
mod filter_tests;
pub mod hash;

pub use filter::CuckooFilter;
pub use hash::metro_mix;
