//! Traffic-pattern tests for the fabric.

use interconnect::{msg, Fabric, Link};

#[test]
fn page_burst_serialises_but_parallel_links_do_not() {
    let mut f = Fabric::new(4, 150, 150, 256);
    // 10 pages to GPU 0 queue up; 1 page each to GPUs 1-3 go in parallel.
    let mut last = 0;
    for _ in 0..10 {
        last = f.send_cpu_to_gpu(0, 0, msg::PAGE_4K);
    }
    let single = f.send_cpu_to_gpu(1, 0, msg::PAGE_4K);
    // Strip propagation latency: serialisation time scales with the burst.
    assert_eq!(
        last - 150,
        10 * (single - 150),
        "burst must queue: {last} vs {single}"
    );
}

#[test]
fn duplex_links_are_independent() {
    let mut f = Fabric::new(2, 100, 100, 32);
    let up = f.send_gpu_to_cpu(0, 0, msg::PAGE_4K);
    let down = f.send_cpu_to_gpu(0, 0, msg::PAGE_4K);
    assert_eq!(up, down, "up and down directions do not contend");
}

#[test]
fn large_pages_cost_proportionally_more() {
    let mut l = Link::new(0, 256);
    let small = l.send(0, msg::PAGE_4K);
    let mut l = Link::new(0, 256);
    let large = l.send(0, msg::PAGE_2M);
    assert_eq!(large, small * 512, "2 MB = 512 x 4 KB serialisation");
}

#[test]
fn bandwidth_bound_throughput() {
    // Saturate a link for 1000 sends and verify steady-state throughput
    // equals the configured bandwidth.
    let mut l = Link::new(50, 64);
    let mut last = 0;
    for i in 0..1000 {
        last = l.send(i, 4096);
    }
    let cycles = last - 50; // subtract propagation
    let bytes = 1000 * 4096;
    let achieved = f64::from(bytes) / cycles as f64;
    assert!((achieved - 64.0).abs() < 1.0, "throughput {achieved} B/cy");
}

#[test]
fn peer_latency_sweep_affects_only_peers() {
    let mut f = Fabric::new(2, 100, 100, 32);
    f.set_peer_latency(3200);
    let peer = f.send_gpu_to_gpu(0, 1, 0, msg::CONTROL);
    let cpu = f.send_gpu_to_cpu(0, 0, msg::CONTROL);
    assert!(peer > 3200);
    assert!(cpu < 200);
}
