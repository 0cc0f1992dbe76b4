//! An oversubscribed working-set-shift pattern for the eviction engine.
//!
//! The footprint is a long strip of pages the run slides a working set
//! across: in epoch `e` the hot window covers pages
//! `[e * stride_pages, e * stride_pages + working_set_pages)`, so
//! consecutive epochs overlap by `working_set_pages - stride_pages` pages —
//! the carried-over fraction stays hot (and must NOT be evicted by a sane
//! policy) while the trailing fraction goes cold (the natural victims). A
//! separate cold region is swept sequentially at low probability:
//! streaming traffic that pollutes an LRU stack and gives the thrash gate's
//! background shedding something to cut.
//!
//! Sized against [`OversubConfig::capacity_pages`]
//! (`mgpu::OversubConfig`), a working set larger than a GPU's capacity
//! forces steady-state eviction; the epoch shifts then turn yesterday's
//! residents into dead weight and today's window into a refault storm —
//! the input the thrash detector is built for.

use mgpu::workload::{Access, AccessStream, Workload};
use sim_core::{Cycle, SimRng, Stream};

/// Working-set-shift workload tuned for memory oversubscription: the hot
/// window slides across a strip wider than device memory.
#[derive(Debug, Clone, PartialEq)]
pub struct OversubShift {
    /// Number of working-set epochs the run slides through.
    pub epochs: usize,
    /// Pages in each epoch's working set.
    pub working_set_pages: u64,
    /// Pages the window advances per epoch (< `working_set_pages` keeps an
    /// overlapping hot core across the shift).
    pub stride_pages: u64,
    /// Cold streaming region, swept sequentially.
    pub cold_pages: u64,
    /// Number of CTAs.
    pub ctas: usize,
    /// Memory instructions per CTA.
    pub accesses_per_cta: usize,
    /// Probability an access targets the current working set (the rest
    /// stream through the cold region).
    pub p_working: f64,
    /// Write probability inside the working set.
    pub write_frac: f64,
    /// Mean same-page run length.
    pub run_len: u32,
    /// Mean compute cycles between memory instructions.
    pub compute_mean: Cycle,
    /// Data-cache hit probability.
    pub cache_hit: f64,
}

/// The default oversubscription spec: four epochs sliding a 256-page
/// working set by half its width, plus a 256-page cold stream.
pub fn oversub_shift() -> OversubShift {
    OversubShift {
        epochs: 4,
        working_set_pages: 256,
        stride_pages: 128,
        cold_pages: 256,
        ctas: 512,
        accesses_per_cta: 200,
        p_working: 0.75,
        write_frac: 0.2,
        run_len: 4,
        compute_mean: 30,
        cache_hit: 0.4,
    }
}

impl OversubShift {
    /// Scales work (CTAs and accesses) by `factor`; footprint and mix are
    /// unchanged — the same floors as [`AppSpec::scaled`](crate::AppSpec).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> OversubShift {
        assert!(factor > 0.0, "factor must be positive");
        OversubShift {
            ctas: ((self.ctas as f64 * factor) as usize).max(4),
            accesses_per_cta: ((self.accesses_per_cta as f64 * factor) as usize).max(8),
            ..self.clone()
        }
    }

    /// Pages covered by the sliding working-set strip (cold region excluded).
    pub fn strip_pages(&self) -> u64 {
        (self.epochs as u64 - 1) * self.stride_pages + self.working_set_pages
    }
}

impl Workload for OversubShift {
    fn name(&self) -> &str {
        "OversubShift"
    }

    fn footprint_pages(&self) -> u64 {
        self.strip_pages() + self.cold_pages
    }

    fn cta_count(&self) -> usize {
        self.ctas
    }

    fn make_stream(&self, cta: usize, seed: u64) -> Box<dyn AccessStream> {
        Box::new(OversubStream {
            spec: self.clone(),
            rng: SimRng::stream(seed, Stream::OversubWorkload, cta as u64),
            issued: 0,
            run_left: 0,
            run_vpn: 0,
            cursor: cta as u64,
        })
    }

    fn data_cache_hit_rate(&self) -> f64 {
        self.cache_hit
    }

    /// The first epoch's working set starts striped across the GPUs (a
    /// previous kernel left it resident); the rest of the strip and the
    /// cold stream start on the host.
    fn initial_owner(&self, vpn: u64, gpus: u16) -> Option<u16> {
        if vpn < self.working_set_pages {
            Some((vpn * u64::from(gpus) / self.working_set_pages.max(1)) as u16)
        } else {
            None
        }
    }
}

/// Lazily generated access stream for one CTA of an [`OversubShift`].
#[derive(Debug)]
struct OversubStream {
    spec: OversubShift,
    rng: SimRng,
    issued: usize,
    run_left: u32,
    run_vpn: u64,
    /// Sequential sweep position within the cold region.
    cursor: u64,
}

impl OversubStream {
    fn current_epoch(&self) -> usize {
        (self.issued * self.spec.epochs / self.spec.accesses_per_cta.max(1))
            .min(self.spec.epochs - 1)
    }

    fn start_run(&mut self) {
        let s = &self.spec;
        self.run_vpn = if self.rng.chance(s.p_working) {
            let base = self.current_epoch() as u64 * s.stride_pages;
            base + self.rng.gen_range(s.working_set_pages.max(1))
        } else {
            let vpn = s.strip_pages() + (self.cursor % s.cold_pages.max(1));
            self.cursor += 1;
            vpn
        };
        let max_run = u64::from((2 * s.run_len).max(1));
        self.run_left = (1 + self.rng.gen_range(max_run)) as u32;
    }
}

impl AccessStream for OversubStream {
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
        let spec = oversub_shift().scaled(0.05);
        let mut s = spec.make_stream(0, 1);
        let mut n = 0;
        while s.next_access().is_some() {
            n += 1;
        }
        assert_eq!(n, spec.accesses_per_cta);
    }

    #[test]
    fn streams_are_deterministic() {
        let spec = oversub_shift().scaled(0.1);
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
        let spec = oversub_shift().scaled(0.1);
        for cta in [0, spec.ctas / 2, spec.ctas - 1] {
            let mut s = spec.make_stream(cta, 7);
            while let Some(x) = s.next_access() {
                assert!(x.vpn < spec.footprint_pages(), "cta {cta} vpn {}", x.vpn);
            }
        }
    }

    #[test]
    fn working_set_slides_with_the_epoch() {
        // Strip accesses in each quarter of the stream must fall inside
        // that quarter's window (a run may bleed across the boundary from
        // the previous window).
        let spec = oversub_shift();
        let mut s = spec.make_stream(0, 11);
        for i in 0..spec.accesses_per_cta {
            let a = s.next_access().unwrap();
            if a.vpn >= spec.strip_pages() {
                continue; // cold stream
            }
            let epoch = (i * spec.epochs / spec.accesses_per_cta).min(spec.epochs - 1) as u64;
            let lo = epoch.saturating_sub(1) * spec.stride_pages;
            let hi = epoch * spec.stride_pages + spec.working_set_pages;
            assert!(
                (lo..hi).contains(&a.vpn),
                "access {i} (epoch {epoch}) hit vpn {} outside [{lo}, {hi})",
                a.vpn
            );
        }
    }

    #[test]
    fn first_working_set_starts_striped() {
        let spec = oversub_shift();
        assert_eq!(spec.initial_owner(0, 4), Some(0));
        assert_eq!(spec.initial_owner(spec.working_set_pages - 1, 4), Some(3));
        assert_eq!(spec.initial_owner(spec.working_set_pages, 4), None);
        assert_eq!(spec.initial_owner(spec.strip_pages(), 4), None);
    }

    #[test]
    fn oversub_shift_runs_with_eviction_enabled() {
        use mgpu::{OversubConfig, System, SystemConfig};
        let spec = oversub_shift().scaled(0.02);
        // Capacity below the warm stripe (128 pages/GPU): the run starts
        // over-subscribed and must evict to get under the line.
        let capacity = spec.working_set_pages as usize / 4;
        let cfg = SystemConfig::builder()
            .gpus(2)
            .cus_per_gpu(2)
            .seed(9)
            .oversub(OversubConfig::with_capacity(capacity))
            .build();
        let m = System::new(cfg)
            .run(&spec)
            .expect("oversubscribed run completes");
        assert!(m.total_cycles > 0);
        assert!(
            m.oversub.evictions > 0,
            "no evictions under 2x oversubscription"
        );
    }
}
