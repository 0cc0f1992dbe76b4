//! A bursty open-loop access pattern for overload experiments.
//!
//! Each CTA's stream is a train of `bursts` dense access bursts separated by
//! long idle gaps. Inside a burst the compute spacing between memory
//! instructions is divided by the `offered_load` multiplier, so the arrival
//! rate of translation requests scales with load while the footprint and
//! access mix stay fixed — the open-loop knob the overload-control
//! experiments sweep (1x..8x). Burst `b` hammers hot window `b`, homed on
//! GPU `b mod gpus`, so every burst is a synchronized far-fault storm from
//! all the *other* GPUs onto one owner: the worst case for the host-MMU
//! queue, the owner's borrowed walkers, and the forwarding path the circuit
//! breakers guard.
//!
//! Unlike the closed-loop apps (which self-throttle: a stalled wavefront
//! stops issuing), the short intra-burst gaps keep offered load high even
//! while translations back up, which is what pushes the admission-control
//! watermarks and retry budgets into their shedding regime.

use mgpu::workload::{Access, AccessStream, Workload};
use sim_core::{Cycle, SimRng, Stream};

/// Bursty open-loop workload: dense access bursts, rotating hot owner, and
/// a tunable offered-load multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Bursts per CTA stream (also the number of hot windows).
    pub bursts: usize,
    /// Memory instructions per burst.
    pub burst_accesses: usize,
    /// Idle compute cycles inserted between consecutive bursts.
    pub idle_gap: Cycle,
    /// Pages per hot window.
    pub window_pages: u64,
    /// Private pages per CTA (sequential sweep).
    pub private_pages: u64,
    /// Number of CTAs.
    pub ctas: usize,
    /// Offered-load multiplier: intra-burst compute gaps are divided by
    /// this, so 2 doubles the arrival rate of the same access train.
    pub offered_load: u64,
    /// Probability an access targets the current burst's hot window.
    pub p_hot: f64,
    /// Write probability (hot and private alike).
    pub write_frac: f64,
    /// Mean same-page run length.
    pub run_len: u32,
    /// Mean intra-burst compute cycles between memory instructions at 1x.
    pub compute_mean: Cycle,
    /// Data-cache hit probability.
    pub cache_hit: f64,
    /// GPU count the window homing assumes.
    pub gpu_hint: usize,
}

/// The default burst spec: four 64-page windows hit by 512 CTAs in dense
/// bursts, read-mostly. The 1x spacing (`compute_mean`) is deliberately
/// large against typical translation latency so the baseline is
/// compute-bound: the load multiplier then genuinely moves the arrival
/// rate instead of compressing gaps that were already negligible.
pub fn burst() -> Burst {
    Burst {
        bursts: 4,
        burst_accesses: 64,
        idle_gap: 4_000,
        window_pages: 64,
        private_pages: 8,
        ctas: 512,
        offered_load: 1,
        p_hot: 0.7,
        write_frac: 0.2,
        run_len: 4,
        compute_mean: 2_000,
        cache_hit: 0.4,
        gpu_hint: 4,
    }
}

impl Burst {
    /// Scales work (CTAs and per-burst accesses) by `factor`; footprint and
    /// mix are unchanged — the same floors as
    /// [`AppSpec::scaled`](crate::AppSpec).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> Burst {
        assert!(factor > 0.0, "factor must be positive");
        Burst {
            ctas: ((self.ctas as f64 * factor) as usize).max(4),
            burst_accesses: ((self.burst_accesses as f64 * factor) as usize).max(8),
            ..self.clone()
        }
    }

    /// Returns the spec with the offered-load multiplier set to `mult`
    /// (clamped to at least 1): the knob the overload sweep turns.
    pub fn with_load(&self, mult: u64) -> Burst {
        Burst {
            offered_load: mult.max(1),
            ..self.clone()
        }
    }

    fn accesses_per_cta(&self) -> usize {
        self.bursts * self.burst_accesses
    }

    fn hot_pages(&self) -> u64 {
        self.bursts as u64 * self.window_pages
    }
}

impl Workload for Burst {
    fn name(&self) -> &str {
        "Burst"
    }

    fn footprint_pages(&self) -> u64 {
        self.hot_pages() + self.ctas as u64 * self.private_pages
    }

    fn cta_count(&self) -> usize {
        self.ctas
    }

    fn make_stream(&self, cta: usize, seed: u64) -> Box<dyn AccessStream> {
        Box::new(BurstStream {
            spec: self.clone(),
            cta,
            rng: SimRng::stream(seed, Stream::BurstWorkload, cta as u64),
            issued: 0,
            run_left: 0,
            run_vpn: 0,
            cursor: 0,
        })
    }

    fn data_cache_hit_rate(&self) -> f64 {
        self.cache_hit
    }

    /// Window `b` starts on GPU `b mod gpus`; private pages sit with their
    /// CTA's GPU.
    fn initial_owner(&self, vpn: u64, gpus: u16) -> Option<u16> {
        let hot = self.hot_pages();
        if vpn < hot {
            Some(((vpn / self.window_pages) % u64::from(gpus)) as u16)
        } else {
            let cta = ((vpn - hot) / self.private_pages.max(1)).min(self.ctas as u64 - 1);
            Some((cta as usize * gpus as usize / self.ctas) as u16)
        }
    }
}

/// Lazily generated access stream for one CTA of a [`Burst`].
#[derive(Debug)]
struct BurstStream {
    spec: Burst,
    cta: usize,
    rng: SimRng,
    issued: usize,
    run_left: u32,
    run_vpn: u64,
    /// Sequential sweep position within the private partition.
    cursor: u64,
}

impl BurstStream {
    fn current_burst(&self) -> usize {
        (self.issued / self.spec.burst_accesses.max(1)).min(self.spec.bursts - 1)
    }

    fn start_run(&mut self) {
        let s = &self.spec;
        self.run_vpn = if self.rng.chance(s.p_hot) {
            let window = self.current_burst() as u64 * s.window_pages;
            window + self.rng.gen_range(s.window_pages.max(1))
        } else {
            let base = s.hot_pages() + self.cta as u64 * s.private_pages;
            let vpn = base + (self.cursor % s.private_pages.max(1));
            self.cursor += 1;
            vpn
        };
        let max_run = u64::from((2 * s.run_len).max(1));
        self.run_left = (1 + self.rng.gen_range(max_run)) as u32;
    }
}

impl AccessStream for BurstStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.issued >= self.spec.accesses_per_cta() {
            return None;
        }
        if self.run_left == 0 {
            self.start_run();
        }
        self.run_left -= 1;
        // The idle gap lands on the first access of each burst after the
        // first, so a burst is dense from its very first instruction.
        let boundary =
            self.issued > 0 && self.issued.is_multiple_of(self.spec.burst_accesses.max(1));
        self.issued += 1;
        let gap = self.spec.compute_mean / 2 + self.rng.gen_range(self.spec.compute_mean.max(1));
        let mut compute = (gap / self.spec.offered_load.max(1)).max(1);
        if boundary {
            compute += self.spec.idle_gap;
        }
        Some(Access {
            vpn: self.run_vpn,
            is_write: self.rng.chance(self.spec.write_frac),
            compute,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_length_matches_spec() {
        let spec = burst().scaled(0.05);
        let mut s = spec.make_stream(0, 1);
        let mut n = 0;
        while s.next_access().is_some() {
            n += 1;
        }
        assert_eq!(n, spec.accesses_per_cta());
    }

    #[test]
    fn streams_are_deterministic() {
        let spec = burst().scaled(0.1).with_load(4);
        let collect = |seed| {
            let mut s = spec.make_stream(3, seed);
            let mut v = Vec::new();
            while let Some(x) = s.next_access() {
                v.push((x.vpn, x.is_write, x.compute));
            }
            v
        };
        assert_eq!(collect(42), collect(42));
    }

    #[test]
    fn streams_stay_in_footprint() {
        let spec = burst().scaled(0.1);
        for cta in [0, spec.ctas / 2, spec.ctas - 1] {
            let mut s = spec.make_stream(cta, 7);
            while let Some(x) = s.next_access() {
                assert!(x.vpn < spec.footprint_pages(), "cta {cta} vpn {}", x.vpn);
            }
        }
    }

    #[test]
    fn offered_load_compresses_compute_gaps() {
        // Same access train, same RNG stream: the 8x run must issue the
        // same pages strictly faster (smaller total compute) than the 1x.
        let base = burst().scaled(0.1);
        let fast = base.with_load(8);
        let total = |spec: &Burst| {
            let mut s = spec.make_stream(0, 9);
            let mut pages = Vec::new();
            let mut compute = 0u64;
            while let Some(x) = s.next_access() {
                pages.push(x.vpn);
                compute += x.compute;
            }
            (pages, compute)
        };
        let (p1, c1) = total(&base);
        let (p8, c8) = total(&fast);
        assert_eq!(p1, p8, "load multiplier must not change the access train");
        assert!(c8 < c1, "8x load should compress compute ({c8} !< {c1})");
    }

    #[test]
    fn hot_window_rotates_with_the_burst() {
        let spec = burst();
        let mut s = spec.make_stream(0, 11);
        let mut windows = vec![std::collections::BTreeSet::new(); spec.bursts];
        for i in 0..spec.accesses_per_cta() {
            let a = s.next_access().unwrap();
            if a.vpn < spec.hot_pages() {
                windows[i / spec.burst_accesses].insert(a.vpn / spec.window_pages);
            }
        }
        for (b, ws) in windows.iter().enumerate() {
            // A same-page run may bleed a few accesses across the boundary.
            assert!(
                ws.iter().all(|&w| w as usize == b || w as usize + 1 == b),
                "burst {b} touched windows {ws:?}"
            );
        }
    }

    #[test]
    fn windows_start_on_rotating_gpus() {
        let spec = burst();
        let w = spec.window_pages;
        assert_eq!(spec.initial_owner(0, 4), Some(0));
        assert_eq!(spec.initial_owner(w, 4), Some(1));
        assert_eq!(spec.initial_owner(3 * w + w / 2, 4), Some(3));
    }

    #[test]
    fn burst_runs_under_every_policy() {
        use mgpu::{System, SystemConfig};
        let spec = burst().scaled(0.01).with_load(4);
        for kind in [
            uvm::PolicyKind::FirstTouch,
            uvm::PolicyKind::DelayedMigration { threshold: 2 },
            uvm::PolicyKind::ReadDuplicate,
            uvm::PolicyKind::PrefetchNeighborhood { radius: 3 },
        ] {
            let cfg = SystemConfig::builder()
                .gpus(4)
                .cus_per_gpu(2)
                .seed(5)
                .placement(kind)
                .build();
            let m = System::new(cfg)
                .run(&spec)
                .unwrap_or_else(|e| panic!("{} failed under {:?}: {e}", spec.name(), kind));
            assert!(m.total_cycles > 0);
        }
    }
}
