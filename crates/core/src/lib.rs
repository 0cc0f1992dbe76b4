//! **Trans-FW**: short circuiting page table walks in multi-GPU systems via
//! remote forwarding (Li et al., HPCA 2023).
//!
//! Multi-GPU systems under unified virtual memory suffer three address-
//! translation latency penalties: queuing for page-table-walk threads,
//! page-walk-cache misses, and GPU-local page faults caused by page sharing.
//! Trans-FW attacks all three with two small Cuckoo-filter tables:
//!
//! * the per-GPU [`Prt`] (*Pending Request Table*) tracks which pages are
//!   resident in local memory, so an L2 TLB miss that would fault anyway is
//!   **short-circuited past the GMMU walk** straight to the host MMU;
//! * the host-MMU [`Ft`] (*Forwarding Table*) tracks which GPU owns each
//!   page, so a contended host MMU can **forward the request to the owner
//!   GPU** and borrow its walker and page-walk cache.
//!
//! [`ForwardPolicy`] implements the "when to borrow" decision (§IV-C): only
//! forward when the host PW-queue occupancy exceeds a threshold fraction of
//! the walker count. [`area`] reproduces the §IV-E hardware-overhead math.
//!
//! This crate is simulator-independent; the `mgpu` crate wires it into the
//! full multi-GPU model.
//!
//! # Examples
//!
//! ```
//! use transfw::{Prt, Ft, ForwardPolicy, TransFwConfig};
//!
//! let cfg = TransFwConfig::default();
//! let mut prt = Prt::new(&cfg);
//! let mut ft = Ft::new(&cfg, 4);
//!
//! // Page 0x42 migrates into GPU 1.
//! prt.page_arrived(0x42);
//! ft.page_migrated(0x42, None, 1);
//!
//! // GPU-side: a miss in the PRT short-circuits the GMMU walk.
//! assert!(prt.may_be_local(0x42));
//! assert!(!prt.may_be_local(0x9999_0000));
//!
//! // Host-side: the FT names GPU 1 as a candidate owner.
//! assert_eq!(ft.lookup(0x42), vec![1]);
//!
//! // Forward only under contention.
//! let policy = ForwardPolicy::new(0.5);
//! assert!(!policy.should_forward(2, 16));
//! assert!(policy.should_forward(9, 16));
//! ```

// A panic in sim code aborts a run mid-flight (DESIGN.md, "Static analysis
// & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod area;
pub mod ft;
pub mod policy;
pub mod prt;

pub use area::AreaModel;
pub use ft::Ft;
pub use policy::ForwardPolicy;
pub use prt::Prt;

/// Sizing and policy parameters of the Trans-FW hardware (§IV-E defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct TransFwConfig {
    /// PRT fingerprints per GMMU (paper: 500 = 125 buckets × 4 slots).
    pub prt_fingerprints: usize,
    /// PRT fingerprint width in bits (paper: 13, for ε = 0.1%).
    pub prt_fp_bits: u32,
    /// PRT bucket slot count (paper: 4).
    pub prt_slots: usize,
    /// FT fingerprints in the host MMU (paper: 2000 = 1000 buckets × 2).
    pub ft_fingerprints: usize,
    /// FT fingerprint width in bits (paper: 11, for ε = 0.2%).
    pub ft_fp_bits: u32,
    /// FT bucket slot count (paper: 2).
    pub ft_slots: usize,
    /// Low VPN bits masked before fingerprinting, so 2^n consecutive pages
    /// share a fingerprint (paper: 3, "eight pages map to the same
    /// fingerprint").
    pub vpn_mask_bits: u32,
    /// Forwarding threshold as a fraction of host PT-walk threads (§IV-C:
    /// 0.5; swept in Fig. 15).
    pub forward_threshold: f64,
}

impl Default for TransFwConfig {
    fn default() -> Self {
        Self {
            prt_fingerprints: 500,
            prt_fp_bits: 13,
            prt_slots: 4,
            ft_fingerprints: 2000,
            ft_fp_bits: 11,
            ft_slots: 2,
            vpn_mask_bits: 3,
            forward_threshold: 0.5,
        }
    }
}

impl TransFwConfig {
    /// The Fig. 16 "(250, 1000)" small configuration. Halving the tables
    /// doubles the pages mapped onto each fingerprint (the paper: "more
    /// pages are mapping into the same fingerprints with smaller table
    /// sizes, which causes a higher false positive rate").
    pub fn small() -> Self {
        Self {
            prt_fingerprints: 250,
            ft_fingerprints: 1000,
            vpn_mask_bits: 4,
            ..Self::default()
        }
    }

    /// The Fig. 16 "(1000, 4000)" large configuration (finer fingerprint
    /// granularity: four pages per fingerprint).
    pub fn large() -> Self {
        Self {
            prt_fingerprints: 1000,
            ft_fingerprints: 4000,
            vpn_mask_bits: 2,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TransFwConfig::default();
        assert_eq!(c.prt_fingerprints, 500);
        assert_eq!(c.ft_fingerprints, 2000);
        assert_eq!(c.prt_fp_bits, 13);
        assert_eq!(c.ft_fp_bits, 11);
        assert_eq!(c.forward_threshold, 0.5);
    }

    #[test]
    fn size_variants_scale() {
        assert_eq!(TransFwConfig::small().prt_fingerprints, 250);
        assert_eq!(TransFwConfig::small().ft_fingerprints, 1000);
        assert_eq!(TransFwConfig::large().prt_fingerprints, 1000);
        assert_eq!(TransFwConfig::large().ft_fingerprints, 4000);
    }
}
