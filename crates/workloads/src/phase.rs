//! A phase-shifting access pattern that moves the hot GPU mid-run.
//!
//! The footprint opens with `phases` equal hot windows, window `p` initially
//! homed on GPU `p mod gpus` (via [`Workload::initial_owner`]); the rest is
//! partitioned privately among CTAs. Each CTA's stream is cut into `phases`
//! segments and in segment `p` its non-private accesses hammer window `p`:
//! every GPU except the window's initial owner far-faults on it, and when
//! the phase flips the whole hot set goes cold and a *different* GPU's pages
//! become the contended ones.
//!
//! This is the adversarial input for the placement policies: `FirstTouch`
//! pins each window wherever the first fault lands, `DelayedMigration`
//! re-homes it once the fault count crosses the threshold (then pays again
//! at the next phase), `ReadDuplicate` fans read-mostly windows out to every
//! consumer, and `PrefetchNeighborhood` pulls the spatially-adjacent window
//! pages in on the first fault of a phase.

use mgpu::workload::{Access, AccessStream, Workload};
use sim_core::{Cycle, SimRng, Stream};

/// Phase-shifting workload: the hot window (and therefore the GPU whose
/// memory is contended) changes between phases.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseShift {
    /// Number of hot-window phases the run sweeps through.
    pub phases: usize,
    /// Pages per hot window.
    pub window_pages: u64,
    /// Private pages per CTA (sequential sweep).
    pub private_pages: u64,
    /// Number of CTAs.
    pub ctas: usize,
    /// Memory instructions per CTA.
    pub accesses_per_cta: usize,
    /// Probability an access targets the current hot window.
    pub p_hot: f64,
    /// Write probability inside the hot window.
    pub write_frac_hot: f64,
    /// Write probability in the private partition.
    pub write_frac_private: f64,
    /// Mean same-page run length.
    pub run_len: u32,
    /// Mean compute cycles between memory instructions.
    pub compute_mean: Cycle,
    /// Data-cache hit probability.
    pub cache_hit: f64,
    /// GPU count the window homing assumes.
    pub gpu_hint: usize,
}

/// The default phase-shifting spec: four phases over four 96-page windows,
/// read-mostly in the hot set so every policy has something to exploit.
pub fn phase_shift() -> PhaseShift {
    PhaseShift {
        phases: 4,
        window_pages: 96,
        private_pages: 12,
        ctas: 1024,
        accesses_per_cta: 200,
        p_hot: 0.6,
        write_frac_hot: 0.1,
        write_frac_private: 0.3,
        run_len: 6,
        compute_mean: 30,
        cache_hit: 0.45,
        gpu_hint: 4,
    }
}

impl PhaseShift {
    /// Scales work (CTAs and accesses) by `factor`; footprint and mix are
    /// unchanged — the same floors as [`AppSpec::scaled`](crate::AppSpec).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> PhaseShift {
        assert!(factor > 0.0, "factor must be positive");
        PhaseShift {
            ctas: ((self.ctas as f64 * factor) as usize).max(4),
            accesses_per_cta: ((self.accesses_per_cta as f64 * factor) as usize).max(8),
            ..self.clone()
        }
    }

    fn hot_pages(&self) -> u64 {
        self.phases as u64 * self.window_pages
    }
}

impl Workload for PhaseShift {
    fn name(&self) -> &str {
        "PhaseShift"
    }

    fn footprint_pages(&self) -> u64 {
        self.hot_pages() + self.ctas as u64 * self.private_pages
    }

    fn cta_count(&self) -> usize {
        self.ctas
    }

    fn make_stream(&self, cta: usize, seed: u64) -> Box<dyn AccessStream> {
        Box::new(PhaseStream {
            spec: self.clone(),
            cta,
            rng: SimRng::stream(seed, Stream::PhaseWorkload, cta as u64),
            issued: 0,
            run_left: 0,
            run_vpn: 0,
            run_write_p: 0.0,
            cursor: 0,
        })
    }

    fn data_cache_hit_rate(&self) -> f64 {
        self.cache_hit
    }

    /// Window `p` starts on GPU `p mod gpus` (a previous kernel produced it
    /// there); private pages sit with their CTA's GPU.
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

/// Lazily generated access stream for one CTA of a [`PhaseShift`].
#[derive(Debug)]
struct PhaseStream {
    spec: PhaseShift,
    cta: usize,
    rng: SimRng,
    issued: usize,
    run_left: u32,
    run_vpn: u64,
    run_write_p: f64,
    /// Sequential sweep position within the private partition.
    cursor: u64,
}

impl PhaseStream {
    fn current_phase(&self) -> usize {
        (self.issued * self.spec.phases / self.spec.accesses_per_cta.max(1))
            .min(self.spec.phases - 1)
    }

    fn start_run(&mut self) {
        let s = &self.spec;
        let (vpn, write_p) = if self.rng.chance(s.p_hot) {
            let window = self.current_phase() as u64 * s.window_pages;
            (
                window + self.rng.gen_range(s.window_pages.max(1)),
                s.write_frac_hot,
            )
        } else {
            let base = s.hot_pages() + self.cta as u64 * s.private_pages;
            let vpn = base + (self.cursor % s.private_pages.max(1));
            self.cursor += 1;
            (vpn, s.write_frac_private)
        };
        self.run_vpn = vpn;
        self.run_write_p = write_p;
        let max_run = u64::from((2 * s.run_len).max(1));
        self.run_left = (1 + self.rng.gen_range(max_run)) as u32;
    }
}

impl AccessStream for PhaseStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.issued >= self.spec.accesses_per_cta {
            return None;
        }
        if self.run_left == 0 {
            self.start_run();
        }
        self.run_left -= 1;
        self.issued += 1;
        let compute =
            self.spec.compute_mean / 2 + self.rng.gen_range(self.spec.compute_mean.max(1));
        Some(Access {
            vpn: self.run_vpn,
            is_write: self.rng.chance(self.run_write_p),
            compute,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_length_matches_spec() {
        let spec = phase_shift().scaled(0.05);
        let mut s = spec.make_stream(0, 1);
        let mut n = 0;
        while s.next_access().is_some() {
            n += 1;
        }
        assert_eq!(n, spec.accesses_per_cta);
    }

    #[test]
    fn streams_are_deterministic() {
        let spec = phase_shift().scaled(0.1);
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
        let spec = phase_shift().scaled(0.1);
        for cta in [0, spec.ctas / 2, spec.ctas - 1] {
            let mut s = spec.make_stream(cta, 7);
            while let Some(x) = s.next_access() {
                assert!(x.vpn < spec.footprint_pages(), "cta {cta} vpn {}", x.vpn);
            }
        }
    }

    #[test]
    fn hot_window_advances_with_the_phase() {
        // The first quarter of the stream must hit window 0, the last
        // quarter window `phases - 1`.
        let spec = phase_shift();
        let mut s = spec.make_stream(0, 11);
        let mut hot_by_quarter = vec![std::collections::BTreeSet::new(); spec.phases];
        for i in 0..spec.accesses_per_cta {
            let a = s.next_access().unwrap();
            if a.vpn < spec.hot_pages() {
                hot_by_quarter[i * spec.phases / spec.accesses_per_cta]
                    .insert(a.vpn / spec.window_pages);
            }
        }
        for (q, windows) in hot_by_quarter.iter().enumerate() {
            // A same-page run started at the end of quarter q - 1 may bleed
            // a few accesses across the boundary; anything else is a bug.
            assert!(
                windows
                    .iter()
                    .all(|&w| w as usize == q || w as usize + 1 == q),
                "quarter {q} touched windows {windows:?}"
            );
        }
    }

    #[test]
    fn windows_start_on_rotating_gpus() {
        let spec = phase_shift();
        let w = spec.window_pages;
        assert_eq!(spec.initial_owner(0, 4), Some(0));
        assert_eq!(spec.initial_owner(w, 4), Some(1));
        assert_eq!(spec.initial_owner(2 * w, 4), Some(2));
        assert_eq!(spec.initial_owner(3 * w + w / 2, 4), Some(3));
    }

    #[test]
    fn phase_shift_runs_under_every_policy() {
        use mgpu::{System, SystemConfig};
        let spec = phase_shift().scaled(0.01);
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
