//! Real-model workloads for the §V-J study: VGG16 and ResNet18 in
//! data-parallel training.
//!
//! Under data parallelism each GPU processes its own minibatch shard
//! (private activations) while *sharing the model*: every GPU reads the
//! same weight pages each layer, and the backward pass writes shared
//! gradient pages — exactly the read-shared/write-shared page traffic that
//! stresses multi-GPU UVM translation.

use mgpu::workload::{Access, AccessStream, Workload};
use sim_core::{Cycle, SimRng, Stream};

/// One layer: weight footprint, per-CTA activation footprint and compute
/// intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    /// Weight pages (shared, read in forward and backward).
    pub weight_pages: u64,
    /// Activation pages per CTA (private).
    pub act_pages: u64,
    /// Mean compute cycles between memory instructions in this layer.
    pub compute: Cycle,
}

/// A data-parallel training workload over a layered model.
///
/// # Examples
///
/// ```
/// use workloads::vgg16;
/// use mgpu::workload::Workload;
///
/// let m = vgg16();
/// assert_eq!(m.name(), "VGG16");
/// assert!(m.footprint_pages() > 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlModel {
    /// Model name.
    pub name: String,
    /// The layer stack.
    pub layers: Vec<Layer>,
    /// CTAs (shards × layer tiles).
    pub ctas: usize,
    /// Memory instructions per layer per CTA.
    pub accesses_per_layer: usize,
    /// Data-cache hit rate (GEMMs are cache-friendly).
    pub cache_hit: f64,
}

impl MlModel {
    fn weight_total(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_pages).sum()
    }

    fn act_per_cta(&self) -> u64 {
        self.layers.iter().map(|l| l.act_pages).sum::<u64>().max(1)
    }

    /// Scales per-CTA work for quick tests; model geometry is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> MlModel {
        assert!(factor > 0.0, "factor must be positive");
        MlModel {
            ctas: ((self.ctas as f64 * factor) as usize).max(4),
            accesses_per_layer: ((self.accesses_per_layer as f64 * factor) as usize).max(4),
            ..self.clone()
        }
    }
}

impl Workload for MlModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn footprint_pages(&self) -> u64 {
        // [weights | gradients | per-CTA activations…]
        2 * self.weight_total() + self.ctas as u64 * self.act_per_cta()
    }

    fn cta_count(&self) -> usize {
        self.ctas
    }

    fn make_stream(&self, cta: usize, seed: u64) -> Box<dyn AccessStream> {
        Box::new(MlStream {
            model: self.clone(),
            cta,
            rng: SimRng::stream(seed, Stream::MlWorkload, cta as u64),
            layer: 0,
            backward: false,
            issued_in_layer: 0,
            run_left: 0,
            run_vpn: 0,
            run_write: false,
        })
    }

    fn data_cache_hit_rate(&self) -> f64 {
        self.cache_hit
    }

    /// Warm placement: weights and gradients (shared) are striped across
    /// GPUs; activations sit on the GPU running their CTA.
    fn initial_owner(&self, vpn: u64, gpus: u16) -> Option<u16> {
        let shared = 2 * self.weight_total();
        if vpn < shared {
            Some(((vpn / 8) % u64::from(gpus)) as u16)
        } else {
            let cta = ((vpn - shared) / self.act_per_cta()).min(self.ctas as u64 - 1) as usize;
            Some((cta * gpus as usize / self.ctas) as u16)
        }
    }
}

#[derive(Debug)]
struct MlStream {
    model: MlModel,
    cta: usize,
    rng: SimRng,
    layer: usize,
    backward: bool,
    issued_in_layer: usize,
    run_left: u32,
    run_vpn: u64,
    run_write: bool,
}

impl MlStream {
    fn start_run(&mut self) {
        let m = &self.model;
        let l = &m.layers[if self.backward {
            m.layers.len() - 1 - self.layer
        } else {
            self.layer
        }];
        let weight_base: u64 = m.layers[..if self.backward {
            m.layers.len() - 1 - self.layer
        } else {
            self.layer
        }]
            .iter()
            .map(|x| x.weight_pages)
            .sum();
        let grad_base = m.weight_total() + weight_base;
        let act_base = 2 * m.weight_total() + self.cta as u64 * m.act_per_cta();

        let r = self.rng.gen_f64();
        let (vpn, write) = if self.backward && r < 0.12 {
            // Gradient write (shared).
            (grad_base + self.rng.gen_range(l.weight_pages.max(1)), true)
        } else if r < 0.3 {
            // Weight read (shared): GEMMs stream a tile many times.
            (
                weight_base + self.rng.gen_range(l.weight_pages.max(1)),
                false,
            )
        } else {
            // Private activation read/write.
            (
                act_base + self.rng.gen_range(l.act_pages.max(1)),
                self.rng.chance(0.4),
            )
        };
        self.run_vpn = vpn;
        self.run_write = write;
        self.run_left = 4 + self.rng.gen_range(20) as u32;
    }
}

impl AccessStream for MlStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.layer >= self.model.layers.len() {
            if self.backward {
                return None; // forward + backward complete
            }
            self.backward = true;
            self.layer = 0;
            self.issued_in_layer = 0;
        }
        if self.issued_in_layer >= self.model.accesses_per_layer {
            self.layer += 1;
            self.issued_in_layer = 0;
            self.run_left = 0;
            return self.next_access();
        }
        if self.run_left == 0 {
            self.start_run();
        }
        self.run_left -= 1;
        self.issued_in_layer += 1;
        let idx = if self.backward {
            self.model.layers.len() - 1 - self.layer
        } else {
            self.layer
        };
        let mean = self.model.layers[idx].compute;
        let compute = mean / 2 + self.rng.gen_range(mean.max(1));
        Some(Access {
            vpn: self.run_vpn,
            is_write: self.run_write,
            compute,
        })
    }
}

/// VGG16 (13 conv + 3 FC layers; FC weights dominate), scaled to a
/// simulation-friendly footprint with the real layers' proportions.
pub fn vgg16() -> MlModel {
    let conv = |w: u64| Layer {
        weight_pages: w,
        act_pages: 3,
        compute: 180,
    };
    let fc = |w: u64| Layer {
        weight_pages: w,
        act_pages: 1,
        compute: 90,
    };
    MlModel {
        name: "VGG16".into(),
        layers: vec![
            conv(2),
            conv(4),
            conv(8),
            conv(16),
            conv(32),
            conv(32),
            conv(64),
            conv(64),
            conv(64),
            conv(64),
            conv(64),
            conv(64),
            conv(64),
            fc(1600), // fc6 holds ~74% of VGG16's parameters
            fc(260),
            fc(64),
        ],
        ctas: 768,
        accesses_per_layer: 12,
        cache_hit: 0.6,
    }
}

/// ResNet18 (8 residual blocks + stem and classifier), same scaling rule.
pub fn resnet18() -> MlModel {
    let block = |w: u64| Layer {
        weight_pages: w,
        act_pages: 2,
        compute: 120,
    };
    MlModel {
        name: "ResNet18".into(),
        layers: vec![
            block(3), // stem
            block(18),
            block(18),
            block(36),
            block(72),
            block(72),
            block(144),
            block(288),
            block(288),
            block(13), // classifier
        ],
        ctas: 768,
        accesses_per_layer: 16,
        cache_hit: 0.55,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_have_sane_geometry() {
        for m in [vgg16(), resnet18()] {
            assert!(m.weight_total() > 100, "{}", m.name);
            assert!(m.footprint_pages() > m.weight_total() * 2);
            assert!(m.cta_count() > 0);
        }
    }

    #[test]
    fn stream_visits_forward_and_backward() {
        let m = vgg16().scaled(0.2);
        let mut s = m.make_stream(0, 1);
        let mut n = 0u64;
        let mut writes = 0u64;
        while let Some(a) = s.next_access() {
            n += 1;
            if a.is_write {
                writes += 1;
            }
            assert!(a.vpn < m.footprint_pages());
        }
        // forward + backward over all layers
        assert_eq!(n as usize, 2 * m.layers.len() * m.accesses_per_layer);
        assert!(writes > 0, "backward pass must write gradients");
    }

    #[test]
    fn weights_are_shared_across_ctas() {
        let m = resnet18();
        let weight_region = m.weight_total();
        let touched_weights = |cta: usize| {
            let mut s = m.make_stream(cta, 2);
            let mut v = std::collections::BTreeSet::new();
            while let Some(a) = s.next_access() {
                if a.vpn < weight_region {
                    v.insert(a.vpn);
                }
            }
            v
        };
        let a = touched_weights(0);
        let b = touched_weights(700);
        assert!(
            a.intersection(&b).count() > 0,
            "distant CTAs must share weight pages"
        );
    }

    #[test]
    fn activations_are_private() {
        let m = resnet18();
        let act_region = 2 * m.weight_total();
        let touched_acts = |cta: usize| {
            let mut s = m.make_stream(cta, 2);
            let mut v = std::collections::BTreeSet::new();
            while let Some(a) = s.next_access() {
                if a.vpn >= act_region {
                    v.insert(a.vpn);
                }
            }
            v
        };
        let a = touched_acts(0);
        let b = touched_acts(700);
        assert_eq!(
            a.intersection(&b).count(),
            0,
            "activations must not overlap"
        );
    }

    #[test]
    fn deterministic_streams() {
        let m = vgg16().scaled(0.1);
        let run = |seed| {
            let mut s = m.make_stream(5, seed);
            let mut v = Vec::new();
            while let Some(a) = s.next_access() {
                v.push((a.vpn, a.is_write));
            }
            v
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_nonpositive() {
        let _ = vgg16().scaled(-1.0);
    }
}
