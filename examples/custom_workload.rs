//! Bringing your own workload: implement [`Workload`] for a custom
//! application and evaluate it under every placement policy, with and
//! without Trans-FW.
//!
//! The example models a producer–consumer pipeline: GPU 0's CTAs write a
//! ring of buffer pages that the other GPUs' CTAs read — an adversarial
//! pattern for on-touch migration (the buffers ping-pong on every handoff).
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use transfw_sim::prelude::*;
use transfw_sim::uvm::PolicyKind;

/// A producer–consumer pipeline over a shared ring of buffer pages.
#[derive(Debug)]
struct Pipeline {
    ring_pages: u64,
    ctas: usize,
    accesses: usize,
}

struct PipelineStream {
    rng: transfw_sim::sim_core::SimRng,
    producer: bool,
    ring_pages: u64,
    remaining: usize,
    pos: u64,
}

impl AccessStream for PipelineStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Sweep the ring; producers write, consumers read.
        if self.rng.chance(0.25) {
            self.pos = (self.pos + 1) % self.ring_pages;
        }
        Some(Access {
            vpn: self.pos,
            is_write: self.producer,
            compute: 30 + self.rng.gen_range(40),
        })
    }
}

impl Workload for Pipeline {
    fn name(&self) -> &str {
        "pipeline"
    }

    fn footprint_pages(&self) -> u64 {
        self.ring_pages
    }

    fn cta_count(&self) -> usize {
        self.ctas
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a workload defined outside the simulator seeds its own stream"
    )]
    fn make_stream(&self, cta: usize, seed: u64) -> Box<dyn AccessStream> {
        // The first quarter of CTAs (i.e. GPU 0 under greedy placement)
        // produce; the rest consume.
        Box::new(PipelineStream {
            rng: transfw_sim::sim_core::SimRng::new(seed ^ cta as u64),
            producer: cta < self.ctas / 4,
            ring_pages: self.ring_pages,
            remaining: self.accesses,
            pos: (cta as u64 * 17) % self.ring_pages,
        })
    }

    fn initial_owner(&self, vpn: u64, gpus: u16) -> Option<u16> {
        Some((vpn % u64::from(gpus)) as u16)
    }
}

fn main() {
    let app = Pipeline {
        ring_pages: 2048,
        ctas: 512,
        accesses: 150,
    };

    println!("policy           | baseline cycles | Trans-FW cycles | speedup | faults b/t");
    println!("-----------------+-----------------+-----------------+---------+-----------");
    let policies = [
        ("on-touch", PolicyKind::FirstTouch),
        ("replication", PolicyKind::ReadDuplicate),
        (
            "remote-mapping",
            PolicyKind::DelayedMigration { threshold: 8 },
        ),
    ];
    for (label, placement) in policies {
        let base_cfg = SystemConfig {
            placement,
            ..SystemConfig::baseline()
        };
        let tfw_cfg = SystemConfig {
            placement,
            ..SystemConfig::with_transfw()
        };
        let base = System::new(base_cfg).run(&app).unwrap();
        let tfw = System::new(tfw_cfg).run(&app).unwrap();
        println!(
            "{label:16} | {:>15} | {:>15} | {:>6.3}x | {}/{}",
            base.total_cycles,
            tfw.total_cycles,
            tfw.speedup_vs(&base),
            base.local_faults,
            tfw.local_faults,
        );
    }
}
