//! Regression tests for a digest-completeness hazard: `Ft.mask_bits`,
//! `Ft.gpu_count` and `Prt.mask_bits` were once invisible to their
//! `state_digest` functions (which now destructure `Self` exhaustively),
//! so a restored run whose filter geometry somehow drifted could replay on a
//! divergent table without the checkpoint prefix check noticing. Each
//! fixed field gets a sensitivity test (digest must move when the field
//! does), and `run_with_restore` proves replay stays bit-identical with
//! the enriched digests under non-default geometry.

use transfw_sim::prelude::*;
use transfw_sim::transfw::{Ft, Prt};

/// Two configs differing only in `vpn_mask_bits`.
fn masked(bits: u32) -> TransFwConfig {
    TransFwConfig {
        vpn_mask_bits: bits,
        ..TransFwConfig::default()
    }
}

#[test]
fn ft_digest_is_sensitive_to_mask_bits() {
    let a = Ft::new(&masked(2), 4);
    let b = Ft::new(&masked(3), 4);
    assert_ne!(
        a.state_digest(),
        b.state_digest(),
        "mask_bits must flow into the FT digest"
    );
}

#[test]
fn ft_digest_is_sensitive_to_gpu_count() {
    let cfg = TransFwConfig::default();
    let a = Ft::new(&cfg, 4);
    let b = Ft::new(&cfg, 8);
    assert_ne!(
        a.state_digest(),
        b.state_digest(),
        "gpu_count must flow into the FT digest"
    );
}

#[test]
fn ft_digest_is_sensitive_to_table_contents() {
    // Equal length and counters, different owners: only the filter's
    // contents tell the two tables apart.
    let cfg = TransFwConfig::default();
    let mut a = Ft::new(&cfg, 4);
    let mut b = Ft::new(&cfg, 4);
    a.page_migrated(0x40, None, 1);
    b.page_migrated(0x40, None, 2);
    assert_eq!(a.len(), b.len());
    assert_eq!(
        (a.lookup_count(), a.hit_count()),
        (b.lookup_count(), b.hit_count())
    );
    assert_ne!(
        a.state_digest(),
        b.state_digest(),
        "the FT's contents must flow into its digest"
    );
}

#[test]
fn prt_digest_is_sensitive_to_mask_bits() {
    let a = Prt::new(&masked(2));
    let b = Prt::new(&masked(3));
    assert_ne!(
        a.state_digest(),
        b.state_digest(),
        "mask_bits must flow into the PRT digest"
    );
}

#[test]
fn restore_is_bit_identical_with_nondefault_filter_geometry() {
    // End-to-end: crash-and-restore through checkpoints whose epoch
    // digests now mix the filter geometry, under a mask width no other
    // test exercises. Divergence anywhere in the PRT/FT digest path would
    // fail the checkpoint prefix verification inside run_with_restore.
    let app = workloads::app("MT").unwrap().scaled(0.1);
    let mut cfg = SystemConfig::with_transfw();
    if let Some(knobs) = cfg.transfw.as_mut() {
        knobs.config.vpn_mask_bits = 5;
    }
    cfg.checkpoint_interval = Some(2_000);
    let baseline = System::new(cfg.clone()).run(&app).unwrap();
    let outcome = run_with_restore(&cfg, &app, 4_000).unwrap();
    let mut restored = outcome.metrics;
    if outcome.restored {
        assert_eq!(restored.recovery.restores_performed, 1);
        restored.recovery.restores_performed = 0; // the only permitted delta
    }
    assert_eq!(
        restored, baseline,
        "restore diverged under non-default vpn_mask_bits"
    );
}
