//! Parameterised application specifications and their stream generator.

use mgpu::workload::{Access, AccessStream, Workload};
use sim_core::{Cycle, SimRng, Stream};

/// Cross-GPU data access pattern (the Table III classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Each GPU works on its own partition (AES).
    Partition,
    /// Partitions plus neighbour halos and possibly a shared input
    /// (FIR, KM, SC, ST, Conv2d).
    Adjacent,
    /// Uniform random over the footprint (PR).
    Random,
    /// Strided/transposed accesses into a region every GPU touches
    /// (MM, MT, Im2col).
    ScatterGather,
}

/// A synthetic application: footprint layout, access mix and intensity.
///
/// The footprint is laid out as `[shared region | CTA partitions…]`; each
/// access goes to the CTA's private partition (sequential sweep), a
/// neighbour's boundary pages (halo) or the shared region, with per-region
/// write probabilities. Consecutive accesses are grouped in same-page runs
/// to model coalescing and spatial locality.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Table III abbreviation.
    pub name: String,
    /// Access-pattern class.
    pub pattern: Pattern,
    /// Total 4 KB pages.
    pub footprint: u64,
    /// Fraction of the footprint in the globally shared region.
    pub shared_frac: f64,
    /// Number of CTAs.
    pub ctas: usize,
    /// Memory instructions per CTA.
    pub accesses_per_cta: usize,
    /// Probability a run targets the shared region.
    pub p_shared: f64,
    /// Probability a run targets a neighbour's halo pages.
    pub p_halo: f64,
    /// Mean same-page run length.
    pub run_len: u32,
    /// Write probability for private/halo accesses.
    pub write_frac_private: f64,
    /// Write probability for shared-region accesses.
    pub write_frac_shared: f64,
    /// Mean compute cycles between memory instructions.
    pub compute_mean: Cycle,
    /// Data-cache hit probability.
    pub cache_hit: f64,
    /// When true, the shared region is split into per-GPU-pair ghost zones
    /// (stencil halo exchange): each zone is shared by exactly two
    /// neighbouring GPUs instead of all of them.
    pub pair_halo: bool,
    /// GPU count the pair-halo zoning assumes (the paper's baseline is 4).
    pub gpu_hint: usize,
}

impl AppSpec {
    /// Scales work (CTAs and accesses) by `factor` for quick tests and
    /// benches; footprint and mix are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> AppSpec {
        assert!(factor > 0.0, "factor must be positive");
        AppSpec {
            ctas: ((self.ctas as f64 * factor) as usize).max(4),
            accesses_per_cta: ((self.accesses_per_cta as f64 * factor) as usize).max(8),
            ..self.clone()
        }
    }

    fn shared_pages(&self) -> u64 {
        ((self.footprint as f64 * self.shared_frac) as u64).max(1)
    }

    fn partition_pages(&self) -> u64 {
        ((self.footprint - self.shared_pages()) / self.ctas as u64).max(1)
    }
}

impl Workload for AppSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn footprint_pages(&self) -> u64 {
        self.footprint
    }

    fn cta_count(&self) -> usize {
        self.ctas
    }

    fn make_stream(&self, cta: usize, seed: u64) -> Box<dyn AccessStream> {
        Box::new(SpecStream {
            spec: self.clone(),
            cta,
            rng: SimRng::stream(seed, Stream::AppWorkload, cta as u64),
            remaining: self.accesses_per_cta,
            cursor: 0,
            run_left: 0,
            run_vpn: 0,
            run_write_p: 0.0,
        })
    }

    fn data_cache_hit_rate(&self) -> f64 {
        self.cache_hit
    }

    /// Warm placement: shared-region pages are striped across the GPUs (a
    /// previous kernel left them wherever it last touched them); partition
    /// pages sit on the GPU that owns the CTA range.
    fn initial_owner(&self, vpn: u64, gpus: u16) -> Option<u16> {
        let shared = self.shared_pages();
        if vpn < shared {
            Some(((vpn / 8) % u64::from(gpus)) as u16)
        } else {
            let part = self.partition_pages();
            let cta = ((vpn - shared) / part).min(self.ctas as u64 - 1) as usize;
            Some((cta * gpus as usize / self.ctas) as u16)
        }
    }
}

/// Lazily generated access stream for one CTA of an [`AppSpec`].
#[derive(Debug)]
struct SpecStream {
    spec: AppSpec,
    cta: usize,
    rng: SimRng,
    remaining: usize,
    /// Sequential sweep position within the private partition.
    cursor: u64,
    run_left: u32,
    run_vpn: u64,
    run_write_p: f64,
}

impl SpecStream {
    fn start_run(&mut self) {
        let s = &self.spec;
        let shared = s.shared_pages();
        let part = s.partition_pages();
        let my_base = shared + self.cta as u64 * part;
        let r = self.rng.gen_f64();
        let (vpn, write_p) = if r < s.p_shared {
            let vpn = if s.pair_halo {
                // Stencil ghost zones: zone g is exchanged between GPUs g
                // and g+1 only (degree-2 sharing).
                let zones = s.gpu_hint.max(2) as u64 - 1;
                let zone_len = (shared / zones).max(1);
                let my_gpu = (self.cta * s.gpu_hint / s.ctas.max(1)) as u64;
                let zone = if my_gpu == 0 {
                    0
                } else if my_gpu >= zones {
                    zones - 1
                } else if self.rng.chance(0.5) {
                    my_gpu - 1
                } else {
                    my_gpu
                };
                (zone * zone_len + self.rng.gen_range(zone_len)).min(shared - 1)
            } else {
                match s.pattern {
                    // Adjacent apps re-read a hot shared structure (e.g. KM
                    // centroids); random graphs have power-law hot vertices.
                    Pattern::Adjacent | Pattern::Partition => {
                        self.rng.gen_range((shared / 4).max(1))
                    }
                    Pattern::Random => {
                        if self.rng.chance(0.7) {
                            self.rng.gen_range((shared / 8).max(1))
                        } else {
                            self.rng.gen_range(shared)
                        }
                    }
                    Pattern::ScatterGather => self.rng.gen_range(shared),
                }
            };
            (vpn, s.write_frac_shared)
        } else if r < s.p_shared + s.p_halo && s.ctas > 1 {
            // Neighbour halo: first pages of the next partition or last
            // pages of the previous one.
            let neighbour = if self.rng.chance(0.5) {
                (self.cta + 1) % s.ctas
            } else {
                (self.cta + s.ctas - 1) % s.ctas
            };
            let base = shared + neighbour as u64 * part;
            let width = part.min(2);
            let off = if self.rng.chance(0.5) {
                self.rng.gen_range(width)
            } else {
                part - 1 - self.rng.gen_range(width)
            };
            (base + off, s.write_frac_private)
        } else {
            // Private partition: sequential sweep with wraparound.
            let vpn = my_base + (self.cursor % part);
            self.cursor += 1;
            (vpn, s.write_frac_private)
        };
        self.run_vpn = vpn.min(s.footprint - 1);
        self.run_write_p = write_p;
        let max_run = u64::from((2 * s.run_len).max(1));
        self.run_left = (1 + self.rng.gen_range(max_run)) as u32;
    }
}

impl AccessStream for SpecStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.run_left == 0 {
            self.start_run();
        }
        self.run_left -= 1;
        let compute =
            self.spec.compute_mean / 2 + self.rng.gen_range(self.spec.compute_mean.max(1));
        Some(Access {
            vpn: self.run_vpn,
            is_write: self.rng.chance(self.run_write_p),
            compute,
        })
    }
}

// ----- the ten Table III applications ------------------------------------

/// AES-256 encryption (Hetero-Mark): pure partitioning, compute-bound,
/// PFPKI ≈ 0.016.
pub fn aes() -> AppSpec {
    AppSpec {
        name: "AES".into(),
        pattern: Pattern::Partition,
        footprint: 24000,
        shared_frac: 0.0005,
        ctas: 1024,
        accesses_per_cta: 200,
        p_shared: 0.002,
        p_halo: 0.0,
        run_len: 8,
        write_frac_private: 0.3,
        write_frac_shared: 0.0,
        compute_mean: 160,
        cache_hit: 0.6,
        pair_halo: false,
        gpu_hint: 4,
    }
}

/// Finite impulse response (Hetero-Mark): adjacent with tiny halos,
/// compute-bound, PFPKI ≈ 0.002.
pub fn fir() -> AppSpec {
    AppSpec {
        name: "FIR".into(),
        pattern: Pattern::Adjacent,
        footprint: 16000,
        shared_frac: 0.0005,
        ctas: 1024,
        accesses_per_cta: 150,
        p_shared: 0.002,
        p_halo: 0.04,
        run_len: 12,
        write_frac_private: 0.1,
        write_frac_shared: 0.0,
        compute_mean: 180,
        cache_hit: 0.7,
        pair_halo: false,
        gpu_hint: 4,
    }
}

/// KMeans (Hetero-Mark): every CTA re-reads the shared centroids,
/// PFPKI ≈ 3.6.
pub fn km() -> AppSpec {
    AppSpec {
        name: "KM".into(),
        pattern: Pattern::Adjacent,
        footprint: 20000,
        shared_frac: 0.0375,
        ctas: 1024,
        accesses_per_cta: 200,
        p_shared: 0.45,
        p_halo: 0.02,
        run_len: 8,
        write_frac_private: 0.05,
        write_frac_shared: 0.02,
        compute_mean: 40,
        cache_hit: 0.5,
        pair_halo: false,
        gpu_hint: 4,
    }
}

/// PageRank (Hetero-Mark): random neighbour chasing over the whole graph,
/// PFPKI ≈ 9.2.
pub fn pr() -> AppSpec {
    AppSpec {
        name: "PR".into(),
        pattern: Pattern::Random,
        footprint: 32000,
        shared_frac: 0.225,
        ctas: 1024,
        accesses_per_cta: 200,
        p_shared: 0.4,
        p_halo: 0.0,
        run_len: 8,
        write_frac_private: 0.2,
        write_frac_shared: 0.15,
        compute_mean: 25,
        cache_hit: 0.3,
        pair_halo: false,
        gpu_hint: 4,
    }
}

/// Matrix multiplication (AMDAPPSDK): row blocks private, the B matrix
/// streamed by every GPU, PFPKI ≈ 3.2.
pub fn mm() -> AppSpec {
    AppSpec {
        name: "MM".into(),
        pattern: Pattern::ScatterGather,
        footprint: 24000,
        shared_frac: 0.125,
        ctas: 1024,
        accesses_per_cta: 220,
        p_shared: 0.3,
        p_halo: 0.0,
        run_len: 12,
        write_frac_private: 0.1,
        write_frac_shared: 0.02,
        compute_mean: 60,
        cache_hit: 0.6,
        pair_halo: false,
        gpu_hint: 4,
    }
}

/// Matrix transpose (AMDAPPSDK): reads own rows, writes transposed columns
/// shared by all GPUs — the paper's worst case, PFPKI ≈ 34.
pub fn mt() -> AppSpec {
    AppSpec {
        name: "MT".into(),
        pattern: Pattern::ScatterGather,
        footprint: 24000,
        shared_frac: 0.125,
        ctas: 1024,
        accesses_per_cta: 200,
        p_shared: 0.3,
        p_halo: 0.0,
        run_len: 5,
        write_frac_private: 0.05,
        write_frac_shared: 0.85,
        compute_mean: 16,
        cache_hit: 0.35,
        pair_halo: false,
        gpu_hint: 4,
    }
}

/// Simple convolution (AMDAPPSDK): shared input image read by all GPUs,
/// PFPKI ≈ 9.0.
pub fn sc() -> AppSpec {
    AppSpec {
        name: "SC".into(),
        pattern: Pattern::Adjacent,
        footprint: 24000,
        shared_frac: 0.1,
        ctas: 1024,
        accesses_per_cta: 200,
        p_shared: 0.45,
        p_halo: 0.05,
        run_len: 10,
        write_frac_private: 0.2,
        write_frac_shared: 0.05,
        compute_mean: 30,
        cache_hit: 0.5,
        pair_halo: false,
        gpu_hint: 4,
    }
}

/// Stencil 2D (SHOC): iterative sweeps with written halos ping-ponging
/// between neighbouring GPUs, PFPKI ≈ 17.6.
pub fn st() -> AppSpec {
    AppSpec {
        name: "ST".into(),
        pattern: Pattern::Adjacent,
        footprint: 20000,
        shared_frac: 0.015,
        ctas: 1024,
        accesses_per_cta: 200,
        p_shared: 0.35,
        p_halo: 0.05,
        run_len: 4,
        write_frac_private: 0.4,
        write_frac_shared: 0.5,
        compute_mean: 25,
        cache_hit: 0.45,
        pair_halo: true,
        gpu_hint: 4,
    }
}

/// 2-D convolution layer (DNNMark): shared filter weights, write-heavy
/// shared output, PFPKI ≈ 1.8.
pub fn conv2d() -> AppSpec {
    AppSpec {
        name: "Conv2d".into(),
        pattern: Pattern::Adjacent,
        footprint: 28000,
        shared_frac: 0.0875,
        ctas: 1024,
        accesses_per_cta: 220,
        p_shared: 0.22,
        p_halo: 0.05,
        run_len: 12,
        write_frac_private: 0.15,
        write_frac_shared: 0.5,
        compute_mean: 50,
        cache_hit: 0.6,
        pair_halo: false,
        gpu_hint: 4,
    }
}

/// Image-to-column transform (DNNMark): scatter-gather writes into a
/// shared layout buffer, PFPKI ≈ 1.2.
pub fn im2col() -> AppSpec {
    AppSpec {
        name: "Im2col".into(),
        pattern: Pattern::ScatterGather,
        footprint: 24000,
        shared_frac: 0.1,
        ctas: 1024,
        accesses_per_cta: 180,
        p_shared: 0.25,
        p_halo: 0.0,
        run_len: 12,
        write_frac_private: 0.1,
        write_frac_shared: 0.6,
        compute_mean: 35,
        cache_hit: 0.55,
        pair_halo: false,
        gpu_hint: 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_reduces_work_not_footprint() {
        let base = mt();
        let small = base.scaled(0.1);
        assert_eq!(small.footprint, base.footprint);
        assert!(small.ctas < base.ctas);
        assert!(small.accesses_per_cta < base.accesses_per_cta);
    }

    #[test]
    fn scaled_has_floors() {
        let tiny = mt().scaled(1e-9);
        assert!(tiny.ctas >= 4);
        assert!(tiny.accesses_per_cta >= 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero() {
        let _ = mt().scaled(0.0);
    }

    #[test]
    fn stream_length_matches_spec() {
        let spec = aes().scaled(0.05);
        let mut s = spec.make_stream(0, 1);
        let mut n = 0;
        while s.next_access().is_some() {
            n += 1;
        }
        assert_eq!(n, spec.accesses_per_cta);
    }

    #[test]
    fn partition_app_ctas_touch_disjoint_private_pages() {
        let spec = aes();
        let pages = |cta: usize| {
            let mut s = spec.make_stream(cta, 9);
            let mut v = std::collections::BTreeSet::new();
            while let Some(a) = s.next_access() {
                v.insert(a.vpn);
            }
            v
        };
        let a = pages(10);
        let b = pages(900); // far-apart CTAs on different GPUs
        let shared = spec.shared_pages();
        let overlap: Vec<_> = a.intersection(&b).filter(|&&p| p >= shared).collect();
        assert!(
            overlap.is_empty(),
            "AES far-apart CTAs overlap privately: {overlap:?}"
        );
    }

    #[test]
    fn random_app_spreads_over_footprint() {
        let spec = pr();
        let mut s = spec.make_stream(0, 3);
        let mut pages = std::collections::BTreeSet::new();
        while let Some(a) = s.next_access() {
            pages.insert(a.vpn);
        }
        // ~33 runs of mean length 6 over a hot region: expect a dozen or
        // more distinct pages.
        assert!(
            pages.len() > 12,
            "PR stream too concentrated: {}",
            pages.len()
        );
    }

    #[test]
    fn halo_app_touches_neighbour_pages() {
        // ST exchanges ghost zones through the (pair-shared) shared region
        // plus direct CTA halos.
        let spec = st();
        let part = spec.partition_pages();
        let shared = spec.shared_pages();
        let cta = 100usize;
        let my = shared + cta as u64 * part..shared + (cta as u64 + 1) * part;
        let mut s = spec.make_stream(cta, 3);
        let mut exchanged = 0;
        let mut total = 0;
        while let Some(a) = s.next_access() {
            total += 1;
            if a.vpn < shared || !my.contains(&a.vpn) {
                exchanged += 1;
            }
        }
        assert!(
            exchanged > total / 10,
            "ST ghost-zone traffic too rare: {exchanged}/{total}"
        );
    }

    #[test]
    fn st_ghost_zones_are_pairwise() {
        // CTAs on GPU 0 and GPU 3 (gpu_hint = 4) must use disjoint zones.
        let spec = st();
        let shared = spec.shared_pages();
        let zone_pages = |cta: usize| {
            let mut s = spec.make_stream(cta, 3);
            let mut v = std::collections::BTreeSet::new();
            while let Some(a) = s.next_access() {
                if a.vpn < shared {
                    v.insert(a.vpn);
                }
            }
            v
        };
        let gpu0 = zone_pages(10); // zone 0 only
        let gpu3 = zone_pages(spec.ctas - 10); // zone 2 only
        assert!(
            gpu0.intersection(&gpu3).count() == 0,
            "non-adjacent GPUs must not share ghost zones"
        );
    }

    #[test]
    fn compute_intensity_ordering() {
        assert!(aes().compute_mean > mt().compute_mean);
        assert!(fir().compute_mean > pr().compute_mean);
    }
}
