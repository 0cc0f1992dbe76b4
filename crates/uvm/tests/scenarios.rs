//! Multi-step placement scenarios across the directory and driver.

use ptw::Location;
use uvm::{DriverConfig, PageDirectory, PolicyKind, TxnKind, UvmDriver};

#[test]
fn producer_consumer_ping_pong() {
    // GPU 0 writes, GPU 1 reads, repeatedly: on-touch keeps migrating.
    let mut dir = PageDirectory::with_policy(2, PolicyKind::FirstTouch);
    dir.resolve_fault(0, 0, true);
    for round in 0..10 {
        let out = dir.resolve_fault(0, 1, false);
        assert_eq!(out.kind, TxnKind::Migrate, "round {round}");
        assert_eq!(out.source, Location::Gpu(0));
        let out = dir.resolve_fault(0, 0, true);
        assert_eq!(out.kind, TxnKind::Migrate);
        assert_eq!(out.source, Location::Gpu(1));
    }
    assert_eq!(dir.stats().migrations, 21);
}

#[test]
fn replication_stops_read_ping_pong() {
    let mut dir = PageDirectory::with_policy(2, PolicyKind::ReadDuplicate);
    dir.resolve_fault(0, 0, false);
    dir.resolve_fault(0, 1, false); // replica
                                    // Further reads are already resident on both GPUs: no faults resolve to
                                    // data movement.
    for g in 0..2 {
        let out = dir.resolve_fault(0, g, false);
        assert_eq!(out.kind, TxnKind::AlreadyResident);
    }
    assert_eq!(dir.stats().migrations, 1, "only the first touch moved data");
}

#[test]
fn write_storm_on_replicated_page() {
    // Alternating writers under replication: every write collapses the
    // other side's copy (the Fig. 24 pathology).
    let mut dir = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
    for g in 0..4 {
        dir.resolve_fault(0, g, false);
    }
    let mut invalidations = 0;
    for round in 0..8 {
        let writer = round % 4;
        let out = dir.resolve_fault(0, writer, true);
        invalidations += out.invalidate.len();
        // After a write, only the writer holds the page.
        for g in 0..4 {
            assert_eq!(dir.is_resident(0, g), g == writer, "round {round}");
        }
        // Re-replicate for the next round.
        for g in 0..4 {
            if g != writer {
                dir.resolve_fault(0, g, false);
            }
        }
    }
    assert!(invalidations >= 8, "writes must invalidate replicas");
}

#[test]
fn remote_mapping_defers_until_threshold() {
    let mut dir = PageDirectory::with_policy(2, PolicyKind::DelayedMigration { threshold: 5 });
    dir.resolve_fault(0, 0, false);
    let out = dir.resolve_fault(0, 1, false);
    assert_eq!(out.kind, TxnKind::RemoteMap);
    for i in 0..4 {
        assert!(
            dir.record_remote_access(0, 1).is_none(),
            "access {i} below threshold"
        );
    }
    let promo = dir
        .record_remote_access(0, 1)
        .expect("fifth access promotes");
    assert_eq!(promo.kind, TxnKind::Migrate);
    assert_eq!(dir.home(0), Location::Gpu(1));
    // Counter resets after migration: home GPU accesses never promote.
    assert!(dir.record_remote_access(0, 1).is_none());
}

#[test]
fn driver_backlog_drains_in_arrival_order() {
    let mut drv: UvmDriver<u64> = UvmDriver::new(DriverConfig {
        batch_size: 3,
        batch_overhead: 10,
        per_fault_cost: 2,
        walk_threads: 1,
    });
    for f in 0..8u64 {
        drv.submit(f, 0);
    }
    let mut order = Vec::new();
    let mut now = 0;
    while let Some(batch) = drv.try_start_batch(now) {
        now = batch.done_at;
        order.extend(batch.faults);
        drv.finish_batch(now).unwrap();
    }
    assert_eq!(order, (0..8).collect::<Vec<_>>());
    assert_eq!(drv.batch_count(), 3);
    assert_eq!(drv.busy_cycle_count(), (10 + 6) + (10 + 6) + (10 + 4));
}

#[test]
fn directory_stats_partition_by_action() {
    let mut dir = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
    dir.resolve_fault(0, 0, false); // migrate (cold)
    dir.resolve_fault(0, 1, false); // replicate
    dir.resolve_fault(0, 2, true); // write: invalidate 2 + migrate
    let s = dir.stats();
    assert_eq!(s.migrations, 2);
    assert_eq!(s.replications, 1);
    assert_eq!(s.write_invalidations, 2);
}

#[test]
fn placement_survives_many_pages() {
    let mut dir = PageDirectory::with_policy(8, PolicyKind::FirstTouch);
    for vpn in 0..10_000u64 {
        dir.place(vpn, Location::Gpu((vpn % 8) as u16));
    }
    for vpn in (0..10_000u64).step_by(97) {
        assert_eq!(dir.home(vpn), Location::Gpu((vpn % 8) as u16));
        assert!(dir.is_resident(vpn, (vpn % 8) as u16));
    }
}
