//! Declarative workload selection: a plain-data description of *which*
//! workload to run, with its parameters.
//!
//! Every experiment surface in the repo — the `.scn` scenario compiler,
//! the `soak` runner and the host-time benchmark — describes a workload
//! the same way: a [`WorkloadSpec`] value. The spec is pure data
//! (`Clone + PartialEq`, no trait objects), so scenario IRs can compare and
//! digest it; [`WorkloadSpec::build`] is the single place a spec becomes a
//! runnable [`Workload`].
//!
//! # Examples
//!
//! ```
//! use workloads::WorkloadSpec;
//! use mgpu::workload::Workload;
//!
//! let spec = WorkloadSpec::app("KM", 0.1).expect("known app");
//! assert_eq!(spec.build().name(), "KM");
//! let burst = WorkloadSpec::Burst { scale: 0.1, load: 4 };
//! assert_eq!(burst.label(), "burst@4x");
//! ```

use crate::spec::Pattern;
use crate::AppSpec;
use mgpu::workload::Workload;

/// Which workload to run, with its parameters. The four families cover the
/// whole experiment surface: the Table III applications (closed-loop),
/// a uniform-random synthetic, the phase-shifting and bursty open-loop
/// generators, and the working-set-shift oversubscription stressor.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// One of the ten Table III applications, by abbreviation.
    App {
        /// Table III abbreviation (e.g. `"KM"`); must name a known app.
        name: String,
        /// Work scale factor (1.0 = full scale).
        scale: f64,
    },
    /// Uniform-random accesses over a fully shared footprint: every CTA
    /// draws pages from one global region, the worst case for placement.
    Uniform {
        /// Total 4 KB pages in the shared footprint.
        pages: u64,
        /// Number of CTAs before scaling.
        ctas: usize,
        /// Memory instructions per CTA before scaling.
        accesses_per_cta: usize,
        /// Write probability.
        write_frac: f64,
        /// Work scale factor applied to CTAs and accesses.
        scale: f64,
    },
    /// The phase-shifting workload (`workloads::phase_shift`): the hot
    /// window moves between GPUs mid-run.
    PhaseShift {
        /// Work scale factor.
        scale: f64,
    },
    /// The bursty open-loop workload (`workloads::burst`) at an offered
    /// load multiplier.
    Burst {
        /// Work scale factor.
        scale: f64,
        /// Offered-load multiplier (clamped to at least 1 when built).
        load: u64,
    },
    /// The working-set-shift oversubscription workload
    /// (`workloads::oversub_shift`).
    OversubShift {
        /// Work scale factor.
        scale: f64,
    },
}

impl WorkloadSpec {
    /// Spec for a Table III application, or `None` for an unknown name
    /// (the stored name is canonicalised to the Table III spelling).
    pub fn app(name: &str, scale: f64) -> Option<Self> {
        crate::app(name).map(|a| WorkloadSpec::App {
            name: a.name,
            scale,
        })
    }

    /// The spec's work scale factor.
    pub fn scale(&self) -> f64 {
        match *self {
            WorkloadSpec::App { scale, .. }
            | WorkloadSpec::Uniform { scale, .. }
            | WorkloadSpec::PhaseShift { scale }
            | WorkloadSpec::Burst { scale, .. }
            | WorkloadSpec::OversubShift { scale } => scale,
        }
    }

    /// The same spec at a different work scale (the CLI override knob the
    /// experiment bins expose).
    pub fn with_scale(&self, scale: f64) -> Self {
        let mut s = self.clone();
        match &mut s {
            WorkloadSpec::App { scale: x, .. }
            | WorkloadSpec::Uniform { scale: x, .. }
            | WorkloadSpec::PhaseShift { scale: x }
            | WorkloadSpec::Burst { scale: x, .. }
            | WorkloadSpec::OversubShift { scale: x } => *x = scale,
        }
        s
    }

    /// Short label for sweep-cell reports (workload name plus the knobs
    /// that distinguish cells, excluding scale).
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::App { name, .. } => name.clone(),
            WorkloadSpec::Uniform { pages, .. } => format!("uniform/{pages}p"),
            WorkloadSpec::PhaseShift { .. } => "PhaseShift".into(),
            WorkloadSpec::Burst { load, .. } => format!("burst@{load}x"),
            WorkloadSpec::OversubShift { .. } => "OversubShift".into(),
        }
    }

    /// Whether the spec is buildable: [`WorkloadSpec::App`] must name a
    /// known Table III application and every scale must be positive.
    pub fn is_valid(&self) -> bool {
        if self.scale() <= 0.0 {
            return false;
        }
        match self {
            WorkloadSpec::App { name, .. } => crate::app(name).is_some(),
            WorkloadSpec::Uniform {
                pages,
                ctas,
                accesses_per_cta,
                write_frac,
                ..
            } => {
                *pages > 0
                    && *ctas > 0
                    && *accesses_per_cta > 0
                    && (0.0..=1.0).contains(write_frac)
            }
            WorkloadSpec::PhaseShift { .. }
            | WorkloadSpec::Burst { .. }
            | WorkloadSpec::OversubShift { .. } => true,
        }
    }

    /// Builds the runnable workload.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not [valid](Self::is_valid) — the scenario
    /// compiler and the experiments `RunSpec` builder validate before
    /// building, so a panic here means a constructed-by-hand spec skipped
    /// validation.
    pub fn build(&self) -> Box<dyn Workload> {
        assert!(self.is_valid(), "invalid workload spec: {self:?}");
        match self {
            WorkloadSpec::App { name, scale } => Box::new(
                crate::app(name)
                    .unwrap_or_else(|| panic!("unknown app {name}"))
                    .scaled(*scale),
            ),
            WorkloadSpec::Uniform {
                pages,
                ctas,
                accesses_per_cta,
                write_frac,
                scale,
            } => Box::new(
                uniform_spec(*pages, *ctas, *accesses_per_cta, *write_frac).scaled(*scale),
            ),
            WorkloadSpec::PhaseShift { scale } => Box::new(crate::phase_shift().scaled(*scale)),
            WorkloadSpec::Burst { scale, load } => {
                Box::new(crate::burst().scaled(*scale).with_load(*load))
            }
            WorkloadSpec::OversubShift { scale } => {
                Box::new(crate::oversub_shift().scaled(*scale))
            }
        }
    }

    /// Pages the built workload touches (for capacity sizing without
    /// building it twice).
    pub fn footprint_pages(&self) -> u64 {
        self.build().footprint_pages()
    }
}

/// The uniform-random synthetic as an [`AppSpec`]: one fully shared region,
/// every run targets it, run length 1 (no spatial locality to exploit).
fn uniform_spec(pages: u64, ctas: usize, accesses_per_cta: usize, write_frac: f64) -> AppSpec {
    AppSpec {
        name: "Uniform".into(),
        pattern: Pattern::Random,
        footprint: pages,
        shared_frac: 1.0,
        ctas,
        accesses_per_cta,
        p_shared: 1.0,
        p_halo: 0.0,
        run_len: 1,
        write_frac_private: write_frac,
        write_frac_shared: write_frac,
        compute_mean: 30,
        cache_hit: 0.4,
        pair_halo: false,
        gpu_hint: 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_lookup_canonicalises_and_rejects_unknown() {
        let s = WorkloadSpec::app("km", 0.5).unwrap();
        assert_eq!(s.label(), "KM");
        assert!(WorkloadSpec::app("nope", 0.5).is_none());
    }

    #[test]
    fn build_matches_direct_constructors() {
        let direct = crate::app("PR").unwrap().scaled(0.25);
        let via_spec = WorkloadSpec::app("PR", 0.25).unwrap().build();
        assert_eq!(via_spec.name(), direct.name());
        assert_eq!(via_spec.footprint_pages(), direct.footprint_pages());
        assert_eq!(via_spec.cta_count(), direct.cta_count());
    }

    #[test]
    fn with_scale_replaces_every_variant() {
        let specs = [
            WorkloadSpec::app("MT", 1.0).unwrap(),
            WorkloadSpec::PhaseShift { scale: 1.0 },
            WorkloadSpec::Burst { scale: 1.0, load: 8 },
            WorkloadSpec::OversubShift { scale: 1.0 },
            WorkloadSpec::Uniform {
                pages: 128,
                ctas: 32,
                accesses_per_cta: 16,
                write_frac: 0.2,
                scale: 1.0,
            },
        ];
        for s in specs {
            assert_eq!(s.with_scale(0.05).scale(), 0.05, "{s:?}");
        }
    }

    #[test]
    fn uniform_streams_cover_the_footprint_only() {
        let spec = WorkloadSpec::Uniform {
            pages: 64,
            ctas: 8,
            accesses_per_cta: 200,
            write_frac: 0.3,
            scale: 1.0,
        };
        let w = spec.build();
        assert_eq!(w.footprint_pages(), 64);
        let mut s = w.make_stream(0, 7);
        while let Some(a) = s.next_access() {
            assert!(a.vpn < 64);
        }
    }

    #[test]
    fn validity_checks() {
        assert!(!WorkloadSpec::App { name: "nope".into(), scale: 1.0 }.is_valid());
        assert!(!WorkloadSpec::PhaseShift { scale: 0.0 }.is_valid());
        assert!(WorkloadSpec::Burst { scale: 0.1, load: 1 }.is_valid());
        assert!(!WorkloadSpec::Uniform {
            pages: 0,
            ctas: 1,
            accesses_per_cta: 1,
            write_frac: 0.5,
            scale: 1.0
        }
        .is_valid());
    }

    #[test]
    fn labels_distinguish_cells() {
        assert_eq!(WorkloadSpec::Burst { scale: 0.1, load: 2 }.label(), "burst@2x");
        assert_eq!(WorkloadSpec::PhaseShift { scale: 0.1 }.label(), "PhaseShift");
    }
}
