//! The paper's application suite as synthetic access-stream generators.
//!
//! Table III classifies the ten applications by their cross-GPU data access
//! pattern: *partition* (AES), *adjacent* (FIR, KM, SC, ST, Conv2d),
//! *random* (PR) and *scatter-gather* (MM, MT, Im2col). The translation
//! behaviour the paper studies — TLB miss rates, page-walk pressure and,
//! crucially, page sharing across GPUs (Fig. 7) and its read/write mix
//! (Fig. 24) — is fully determined by each CTA's coalesced page-access
//! stream. [`AppSpec`] captures the knobs (footprint split into a globally
//! shared region, per-CTA partitions and neighbour halos; access run
//! lengths; write fractions; compute intensity) and generates those streams
//! deterministically.
//!
//! The paper's measured PFPKI values (Table III) and sharing degrees are
//! *outputs* of the simulator, not inputs; the specs here are tuned so the
//! relative ordering matches the paper (MT ≫ ST > PR > SC > KM > MM >
//! Conv2d > Im2col > AES > FIR).
//!
//! # Examples
//!
//! ```
//! use workloads::{app, all_apps};
//! use mgpu::workload::Workload;
//!
//! let mt = app("MT").expect("known app");
//! assert_eq!(mt.name(), "MT");
//! assert_eq!(all_apps().len(), 10);
//! ```

// A panic in sim code aborts a run mid-flight (DESIGN.md, "Static analysis
// & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod burst;
pub mod ml;
pub mod oversub;
pub mod phase;
pub mod select;
pub mod spec;

pub use burst::{burst, Burst};
pub use ml::{resnet18, vgg16, MlModel};
pub use oversub::{oversub_shift, OversubShift};
pub use phase::{phase_shift, PhaseShift};
pub use select::WorkloadSpec;
pub use spec::{AppSpec, Pattern};

/// All ten Table III applications with their default (paper-shaped) specs.
pub fn all_apps() -> Vec<AppSpec> {
    vec![
        spec::aes(),
        spec::fir(),
        spec::km(),
        spec::pr(),
        spec::mm(),
        spec::mt(),
        spec::sc(),
        spec::st(),
        spec::conv2d(),
        spec::im2col(),
    ]
}

/// Looks an application up by its Table III abbreviation
/// (case-insensitive).
pub fn app(name: &str) -> Option<AppSpec> {
    all_apps()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu::workload::Workload;

    #[test]
    fn all_ten_apps_present() {
        let names: Vec<String> = all_apps().iter().map(|a| a.name.clone()).collect();
        for expect in [
            "AES", "FIR", "KM", "PR", "MM", "MT", "SC", "ST", "Conv2d", "Im2col",
        ] {
            assert!(names.contains(&expect.to_string()), "missing {expect}");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(app("mt").is_some());
        assert!(app("CONV2D").is_some());
        assert!(app("nope").is_none());
    }

    #[test]
    fn every_app_generates_nonempty_streams() {
        for a in all_apps() {
            let mut s = a.make_stream(0, 7);
            let first = s.next_access();
            assert!(first.is_some(), "{} produced an empty stream", a.name);
            let acc = first.unwrap();
            assert!(acc.vpn < a.footprint_pages(), "{} vpn out of range", a.name);
        }
    }

    #[test]
    fn streams_are_deterministic() {
        for a in all_apps() {
            let collect = |seed| {
                let mut s = a.make_stream(3, seed);
                let mut v = Vec::new();
                while let Some(x) = s.next_access() {
                    v.push((x.vpn, x.is_write, x.compute));
                }
                v
            };
            assert_eq!(collect(42), collect(42), "{} not deterministic", a.name);
        }
    }

    #[test]
    fn streams_stay_in_footprint() {
        for a in all_apps() {
            for cta in [0, a.cta_count() / 2, a.cta_count() - 1] {
                let mut s = a.make_stream(cta, 1);
                while let Some(x) = s.next_access() {
                    assert!(
                        x.vpn < a.footprint_pages(),
                        "{} cta {cta} vpn {} >= {}",
                        a.name,
                        x.vpn,
                        a.footprint_pages()
                    );
                }
            }
        }
    }

    #[test]
    fn write_heavy_apps_write_more() {
        let writes = |a: &AppSpec| {
            let mut w = 0u64;
            let mut n = 0u64;
            for cta in 0..8 {
                let mut s = a.make_stream(cta, 5);
                while let Some(x) = s.next_access() {
                    n += 1;
                    if x.is_write {
                        w += 1;
                    }
                }
            }
            w as f64 / n as f64
        };
        let mt = writes(&app("MT").unwrap());
        let fir = writes(&app("FIR").unwrap());
        assert!(mt > fir, "MT ({mt}) should write more than FIR ({fir})");
    }
}
