//! Interconnect models for the multi-GPU system.
//!
//! Table II models the CPU–GPU interconnect as PCIe with a 150-cycle latency;
//! GPU–GPU transfers use a peer link whose latency is swept in Fig. 21.
//! Besides fixed latency, links serialise payloads at a configurable
//! bandwidth, so bursts of far faults and page migrations queue behind each
//! other — the congestion that motivates Trans-FW's PRT filter (§IV-B).
//!
//! # Examples
//!
//! ```
//! use interconnect::Link;
//!
//! let mut pcie = Link::new(150, 16); // 150-cycle latency, 16 B/cycle
//! let first = pcie.send(0, 4096);    // a 4 KB page
//! let second = pcie.send(0, 4096);   // queues behind the first
//! assert_eq!(first, 150 + 256);
//! assert_eq!(second, 150 + 512);
//! ```

// A panic in sim code aborts a run mid-flight (DESIGN.md, "Static analysis
// & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]

use sim_core::{Cycle, StateDigest};

/// A simplex link with fixed propagation latency and finite bandwidth.
#[derive(Debug, Clone)]
pub struct Link {
    latency: Cycle,
    bytes_per_cycle: u64,
    busy_until: Cycle,
    messages: u64,
    bytes: u64,
    busy_cycles: u64,
}

impl Link {
    /// Creates a link with the given propagation `latency` and bandwidth in
    /// bytes per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(latency: Cycle, bytes_per_cycle: u64) -> Self {
        assert!(bytes_per_cycle > 0, "bandwidth must be positive");
        Self {
            latency,
            bytes_per_cycle,
            busy_until: 0,
            messages: 0,
            bytes: 0,
            busy_cycles: 0,
        }
    }

    /// Sends `bytes` at time `now`; returns the arrival time at the far end.
    ///
    /// The payload serialises after any in-flight payloads (store-and-
    /// forward), then propagates with the fixed latency.
    pub fn send(&mut self, now: Cycle, bytes: u64) -> Cycle {
        let serialize = bytes.div_ceil(self.bytes_per_cycle);
        let start = self.busy_until.max(now);
        self.busy_until = start + serialize;
        self.messages += 1;
        self.bytes += bytes;
        self.busy_cycles += serialize;
        self.busy_until + self.latency
    }

    /// Propagation latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Reconfigures the propagation latency (Fig. 21 sweep).
    pub fn set_latency(&mut self, latency: Cycle) {
        self.latency = latency;
    }

    /// Messages sent so far.
    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// Bytes sent so far.
    pub fn byte_count(&self) -> u64 {
        self.bytes
    }

    /// Cycles the link spent serialising payloads.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Earliest time a new payload could start serialising.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Queued serialisation work ahead of a payload submitted at `now`:
    /// zero when the link is idle. Overload control reads this as its
    /// congestion signal before committing traffic to a path.
    pub fn backlog(&self, now: Cycle) -> Cycle {
        self.busy_until.saturating_sub(now)
    }

    /// A 64-bit digest of the link's full state (configuration and live
    /// serialisation front) for epoch checkpoints.
    pub fn state_digest(&self) -> u64 {
        let Self {
            latency,
            bytes_per_cycle,
            busy_until,
            messages,
            bytes,
            busy_cycles,
        } = *self;
        let mut d = StateDigest::new();
        d.mix(latency)
            .mix(bytes_per_cycle)
            .mix(busy_until)
            .mix(messages)
            .mix(bytes)
            .mix(busy_cycles);
        d.finish()
    }
}

/// Message size constants used by the simulator, in bytes.
pub mod msg {
    /// A translation request or reply (command + VPN + PPN).
    pub const CONTROL: u64 = 32;
    /// A small (4 KB) page payload.
    pub const PAGE_4K: u64 = 4096;
    /// A large (2 MB) page payload.
    pub const PAGE_2M: u64 = 2 * 1024 * 1024;
}

/// The system fabric: one duplex CPU link per GPU plus a per-GPU peer port.
///
/// # Examples
///
/// ```
/// use interconnect::Fabric;
///
/// let mut fabric = Fabric::new(4, 150, 150, 32);
/// let arrival = fabric.send_gpu_to_cpu(0, 1000, interconnect::msg::CONTROL);
/// assert!(arrival >= 1150);
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    /// Per-GPU GPU→CPU links.
    up: Vec<Link>,
    /// Per-GPU CPU→GPU links.
    down: Vec<Link>,
    /// Per-GPU peer egress ports (GPU→GPU traffic serialises at the source).
    peer: Vec<Link>,
    /// Symmetric pairwise partition state: `partitions[a]` has bit `b` set
    /// when the peer path between `a` and `b` is severed (and vice versa).
    partitions: Vec<u64>,
    /// Peer sends rerouted over the two-hop host path due to a partition.
    rerouted: u64,
}

impl Fabric {
    /// Creates a fabric for `gpus` GPUs with the given CPU-link and
    /// peer-link latencies and a common per-link bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero or `bytes_per_cycle` is zero.
    pub fn new(gpus: usize, cpu_latency: Cycle, peer_latency: Cycle, bytes_per_cycle: u64) -> Self {
        assert!(gpus > 0, "need at least one GPU");
        assert!(gpus <= 64, "partition bitmask supports at most 64 GPUs");
        Self {
            up: (0..gpus)
                .map(|_| Link::new(cpu_latency, bytes_per_cycle))
                .collect(),
            down: (0..gpus)
                .map(|_| Link::new(cpu_latency, bytes_per_cycle))
                .collect(),
            peer: (0..gpus)
                .map(|_| Link::new(peer_latency, bytes_per_cycle))
                .collect(),
            partitions: vec![0; gpus],
            rerouted: 0,
        }
    }

    /// Number of GPUs attached.
    pub fn gpu_count(&self) -> usize {
        self.up.len()
    }

    /// Sends from GPU `gpu` to the host; returns arrival time.
    pub fn send_gpu_to_cpu(&mut self, gpu: usize, now: Cycle, bytes: u64) -> Cycle {
        self.up[gpu].send(now, bytes)
    }

    /// Sends from the host to GPU `gpu`; returns arrival time.
    pub fn send_cpu_to_gpu(&mut self, gpu: usize, now: Cycle, bytes: u64) -> Cycle {
        self.down[gpu].send(now, bytes)
    }

    /// Backlog on the host→GPU link a forward to `gpu` would ride,
    /// relative to `now` — the fabric-side queue-depth signal admission
    /// control consults before forwarding a walk to a remote peer.
    pub fn down_backlog(&self, gpu: usize, now: Cycle) -> Cycle {
        self.down.get(gpu).map_or(0, |l| l.backlog(now))
    }

    /// Backlog on GPU `gpu`'s peer egress port relative to `now`.
    pub fn peer_backlog(&self, gpu: usize, now: Cycle) -> Cycle {
        self.peer.get(gpu).map_or(0, |l| l.backlog(now))
    }

    /// Sends from GPU `src` to GPU `dst`; returns arrival time.
    ///
    /// If the peer path between `src` and `dst` is partitioned (see
    /// [`set_partitioned`](Self::set_partitioned)), the payload is rerouted
    /// over the reliable two-hop host path — serialising on `src`'s uplink
    /// and then `dst`'s downlink, so it queues behind (and applies
    /// backpressure to) ordinary host traffic instead of hanging.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn send_gpu_to_gpu(&mut self, src: usize, dst: usize, now: Cycle, bytes: u64) -> Cycle {
        assert_ne!(src, dst, "GPU cannot send to itself");
        if self.is_partitioned(src, dst) {
            self.rerouted += 1;
            let at_host = self.up[src].send(now, bytes);
            return self.down[dst].send(at_host, bytes);
        }
        self.peer[src].send(now, bytes)
    }

    /// Severs (`true`) or heals (`false`) the peer path between `a` and `b`.
    /// Partition state is symmetric.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn set_partitioned(&mut self, a: usize, b: usize, severed: bool) {
        assert_ne!(a, b, "cannot partition a GPU from itself");
        if severed {
            self.partitions[a] |= 1 << b;
            self.partitions[b] |= 1 << a;
        } else {
            self.partitions[a] &= !(1 << b);
            self.partitions[b] &= !(1 << a);
        }
    }

    /// Whether the peer path between `a` and `b` is currently severed.
    pub fn is_partitioned(&self, a: usize, b: usize) -> bool {
        self.partitions[a] & (1 << b) != 0
    }

    /// Whether any peer path is currently severed.
    pub fn any_partition(&self) -> bool {
        self.partitions.iter().any(|&m| m != 0)
    }

    /// Peer sends rerouted over the host path because of a partition.
    pub fn rerouted_count(&self) -> u64 {
        self.rerouted
    }

    /// Reconfigures the peer-link latency on every port (Fig. 21 sweep).
    pub fn set_peer_latency(&mut self, latency: Cycle) {
        for l in &mut self.peer {
            l.set_latency(latency);
        }
    }

    /// Total bytes moved over CPU links (both directions).
    pub fn cpu_bytes(&self) -> u64 {
        self.up.iter().chain(&self.down).map(Link::byte_count).sum()
    }

    /// Total bytes moved over peer links.
    pub fn peer_bytes(&self) -> u64 {
        self.peer.iter().map(Link::byte_count).sum()
    }

    /// Total messages over all links.
    pub fn message_count(&self) -> u64 {
        self.up
            .iter()
            .chain(&self.down)
            .chain(&self.peer)
            .map(Link::message_count)
            .sum()
    }

    /// A 64-bit digest of the fabric's full state — every `up`/`down`/`peer`
    /// link, the partition masks and the reroute counter — for epoch
    /// checkpoints. Cross-shard traffic serialises on these links, so the
    /// fabric belongs to the epoch digest the same way the page directory
    /// does.
    pub fn state_digest(&self) -> u64 {
        let Self {
            up,
            down,
            peer,
            partitions,
            rerouted,
        } = self;
        let mut d = StateDigest::new();
        d.mix_all(up.iter().map(Link::state_digest))
            .mix_all(down.iter().map(Link::state_digest))
            .mix_all(peer.iter().map(Link::state_digest))
            .mix_all(partitions.iter().copied())
            .mix(*rerouted);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncongested_send_is_latency_plus_serialisation() {
        let mut l = Link::new(100, 32);
        assert_eq!(l.send(0, 32), 101);
        // 64 bytes at 32 B/cy = 2 cycles serialisation.
        assert_eq!(l.send(1000, 64), 1102);
    }

    #[test]
    fn back_to_back_sends_queue() {
        let mut l = Link::new(100, 32);
        let a = l.send(0, 3200); // 100 cy serialise
        let b = l.send(0, 3200);
        assert_eq!(a, 200);
        assert_eq!(b, 300);
        assert_eq!(l.busy_cycles(), 200);
    }

    #[test]
    fn idle_gap_resets_queuing() {
        let mut l = Link::new(10, 32);
        l.send(0, 320); // busy until 10
        let arrival = l.send(1000, 32);
        assert_eq!(arrival, 1011);
    }

    #[test]
    fn backlog_tracks_queued_serialisation() {
        let mut l = Link::new(100, 32);
        assert_eq!(l.backlog(0), 0);
        l.send(0, 3200); // 100 cycles of serialisation
        assert_eq!(l.backlog(0), 100);
        assert_eq!(l.backlog(60), 40);
        assert_eq!(l.backlog(500), 0, "past busy_until the backlog is gone");
    }

    #[test]
    fn fabric_backlogs_are_per_port_and_oob_safe() {
        let mut f = Fabric::new(2, 100, 50, 32);
        f.send_cpu_to_gpu(1, 0, 3200);
        assert_eq!(f.down_backlog(1, 0), 100);
        assert_eq!(f.down_backlog(0, 0), 0, "other GPU's downlink untouched");
        f.send_gpu_to_gpu(0, 1, 0, 3200);
        assert_eq!(f.peer_backlog(0, 0), 100);
        assert_eq!(f.down_backlog(99, 0), 0, "out-of-range GPU reads as idle");
    }

    #[test]
    fn sub_word_payload_rounds_up() {
        let mut l = Link::new(0, 32);
        assert_eq!(l.send(0, 1), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut l = Link::new(5, 16);
        l.send(0, 16);
        l.send(0, 32);
        assert_eq!(l.message_count(), 2);
        assert_eq!(l.byte_count(), 48);
    }

    #[test]
    fn fabric_links_are_independent() {
        let mut f = Fabric::new(2, 150, 150, 32);
        let a = f.send_gpu_to_cpu(0, 0, 3200);
        let b = f.send_gpu_to_cpu(1, 0, 3200);
        assert_eq!(a, b, "different GPUs' links do not interfere");
        let c = f.send_gpu_to_cpu(0, 0, 3200);
        assert!(c > a, "same link queues");
    }

    #[test]
    fn fabric_peer_latency_sweep() {
        let mut f = Fabric::new(2, 150, 150, 32);
        let base = f.send_gpu_to_gpu(0, 1, 0, 32);
        f.set_peer_latency(1200);
        let slow = f.send_gpu_to_gpu(0, 1, 10_000, 32);
        assert_eq!(base, 151);
        assert_eq!(slow, 10_000 + 1 + 1200);
    }

    #[test]
    #[should_panic(expected = "cannot send to itself")]
    fn self_send_panics() {
        Fabric::new(2, 1, 1, 32).send_gpu_to_gpu(1, 1, 0, 32);
    }

    #[test]
    fn partitioned_peer_path_reroutes_via_host() {
        let mut f = Fabric::new(4, 150, 40, 32);
        assert!(!f.any_partition());
        let direct = f.send_gpu_to_gpu(0, 1, 0, 32);
        assert_eq!(direct, 41, "healthy path uses the peer link");

        f.set_partitioned(0, 1, true);
        assert!(f.is_partitioned(0, 1));
        assert!(f.is_partitioned(1, 0), "partition state is symmetric");
        assert!(f.any_partition());

        // Rerouted: serialise on 0's uplink (arrive host at 151), then 1's
        // downlink (151 + 1 + 150) — two real store-and-forward hops.
        let rerouted = f.send_gpu_to_gpu(0, 1, 0, 32);
        assert_eq!(rerouted, 302);
        assert_eq!(f.rerouted_count(), 1);
        assert!(
            rerouted > direct,
            "host detour is slower than the peer link"
        );

        // The detour occupies the host links: ordinary host traffic queues
        // behind it (backpressure), and the peer port stays idle.
        let host_after = f.send_cpu_to_gpu(1, 0, 3200);
        assert!(host_after > 151 + 100, "downlink was busy with the detour");
        assert_eq!(
            f.peer[0].message_count(),
            1,
            "peer port unused while severed"
        );
    }

    #[test]
    fn partition_window_heals() {
        let mut f = Fabric::new(2, 150, 40, 32);
        f.set_partitioned(0, 1, true);
        f.send_gpu_to_gpu(0, 1, 0, 32);
        f.set_partitioned(0, 1, false);
        assert!(!f.is_partitioned(0, 1));
        assert!(!f.any_partition());
        let healed = f.send_gpu_to_gpu(0, 1, 10_000, 32);
        assert_eq!(healed, 10_041, "healed path is direct again");
        assert_eq!(
            f.rerouted_count(),
            1,
            "only the severed-window send rerouted"
        );
    }

    #[test]
    fn partition_only_affects_named_pair() {
        let mut f = Fabric::new(4, 150, 40, 32);
        f.set_partitioned(1, 2, true);
        assert!(!f.is_partitioned(0, 1));
        assert!(!f.is_partitioned(2, 3));
        let unaffected = f.send_gpu_to_gpu(0, 3, 0, 32);
        assert_eq!(unaffected, 41);
        assert_eq!(f.rerouted_count(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot partition")]
    fn self_partition_panics() {
        Fabric::new(2, 1, 1, 32).set_partitioned(1, 1, true);
    }

    #[test]
    fn fabric_byte_accounting() {
        let mut f = Fabric::new(2, 1, 1, 32);
        f.send_gpu_to_cpu(0, 0, 100);
        f.send_cpu_to_gpu(1, 0, 200);
        f.send_gpu_to_gpu(0, 1, 0, 300);
        assert_eq!(f.cpu_bytes(), 300);
        assert_eq!(f.peer_bytes(), 300);
        assert_eq!(f.message_count(), 3);
    }
}
