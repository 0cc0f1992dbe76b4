//! The shadow sanitizer (`SystemConfig::sanitize`): the model checker's
//! safety invariants, checked continuously during full-scale runs.
//!
//! `simcheck` proves the invariants over *every* interleaving of a tiny
//! configuration; the sanitizer checks the same properties at every
//! ownership commit and every retire of an arbitrarily large run, so
//! chaos-soak and policy-sweep runs get per-event invariant coverage for
//! free. Every check is a read-only probe (no counting-filter lookups, no
//! RNG, no events), which is what keeps a sanitized run bit-identical to
//! the unsanitized one; findings are queued and reported by the post-run
//! auditor as [`sim_core::SimError::InvariantViolation`].

use ptw::Location;
use uvm::OwnershipTransaction;

use crate::request::ReqId;
use crate::system::System;

/// Findings cap: a systemic violation (e.g. a corrupted table early in a
/// long run) repeats at almost every event; keeping the first few is enough
/// to diagnose it without ballooning memory.
const MAX_FINDINGS: usize = 16;

impl System {
    fn sanitizer_report(&mut self, msg: String) {
        if self.sanitizer_violations.len() < MAX_FINDINGS {
            self.sanitizer_violations.push(msg);
        }
    }

    /// Ownership-transaction atomicity, checked immediately after a commit:
    /// every invalidated GPU's stale PTE is gone, and the host's
    /// centralised table agrees with the directory about the page's home.
    ///
    /// Both probes hold under every fault plan — local PTE removal and the
    /// host PT rewrite are never lossy. The FT probe (the committed
    /// destination is discoverable as an owner) only holds when no plan
    /// deliberately corrupts the tables, and the FT is a fingerprint filter
    /// whose deletes may collide, so that probe is gated accordingly.
    pub(crate) fn sanitize_commit(&mut self, txn: &OwnershipTransaction) {
        let vpn = txn.vpn;
        for &g in &txn.invalidate {
            let stale = self
                .gpus
                .get(g as usize)
                .is_some_and(|gpu| gpu.pt.translate(vpn).is_some());
            if stale {
                self.sanitizer_report(format!(
                    "sanitize: {:?} commit of vpn {vpn} left a stale PTE on GPU{g}",
                    txn.kind
                ));
            }
        }
        let home = self.dir.home(vpn);
        if let Some(pte) = self.host.pt.translate(vpn) {
            if pte.loc != home {
                self.sanitizer_report(format!(
                    "sanitize: after {:?} commit of vpn {vpn} host PT says {:?} but directory says {home:?}",
                    txn.kind, pte.loc
                ));
            }
        }
        if txn.moves_home() && !self.injector.plan().perturbs_tables() {
            let missing = self
                .host
                .ft
                .as_ref()
                .is_some_and(|ft| !ft.names_owner(vpn, txn.dest));
            if missing {
                self.sanitizer_report(format!(
                    "sanitize: {:?} commit of vpn {vpn} did not register GPU{} in the FT",
                    txn.kind, txn.dest
                ));
            }
        }
    }

    /// Retire-time invariants: the request retires exactly once, and a
    /// translation retired as *local* is backed by directory residency (the
    /// no-stale-translation property). The residency probe is void while a
    /// GPU is offline (eviction races the in-flight retire by design),
    /// under a table-corrupting plan, or when this request's own resolution
    /// raced a concurrent commit — an ownership invalidation may pass the
    /// in-flight install, an accepted race the model checker proved
    /// reachable (the requester briefly holds a stale mapping, repaired at
    /// its next fault on the page).
    pub(crate) fn sanitize_retire(&mut self, req: ReqId) {
        let Some(r) = self.reqs.get(req) else {
            return;
        };
        let (count, vpn, g) = (r.retire_count, r.vpn, r.gpu);
        let raced_resolution = r.resolved_loc == Some(Location::Gpu(g));
        if count != 1 {
            self.sanitizer_report(format!(
                "sanitize: req {req} (vpn {vpn}, gpu {g}) retired {count} times"
            ));
        }
        if self.offline_count == 0 && !self.injector.plan().perturbs_tables() && !raced_resolution {
            let local = self
                .gpus
                .get(g as usize)
                .and_then(|gpu| gpu.pt.translate(vpn))
                .map(|pte| pte.loc);
            if local == Some(Location::Gpu(g)) && !self.dir.is_resident(vpn, g) {
                self.sanitizer_report(format!(
                    "sanitize: req {req} retired vpn {vpn} as local to GPU{g} without directory residency"
                ));
            }
        }
    }
}
