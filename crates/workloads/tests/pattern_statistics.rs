//! Statistical validation of the Table III workload generators: each
//! pattern class must produce the cross-GPU page-access structure its
//! classification implies.

use std::collections::{BTreeMap, BTreeSet};

use mgpu::workload::Workload;
use workloads::{all_apps, app, AppSpec};

/// Collects, per page, the set of GPUs (under 4-GPU greedy CTA placement)
/// touching it and the access counts.
fn profile(spec: &AppSpec) -> BTreeMap<u64, (u64, u64, u64)> {
    // vpn -> (gpu_mask, reads, writes)
    let mut map: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    let ctas = spec.cta_count();
    for cta in 0..ctas {
        let gpu = cta * 4 / ctas;
        let mut s = spec.make_stream(cta, 11);
        while let Some(a) = s.next_access() {
            let e = map.entry(a.vpn).or_default();
            e.0 |= 1 << gpu;
            if a.is_write {
                e.2 += 1;
            } else {
                e.1 += 1;
            }
        }
    }
    map
}

fn shared_access_fraction(spec: &AppSpec) -> f64 {
    let p = profile(spec);
    let mut shared = 0u64;
    let mut total = 0u64;
    for (mask, r, w) in p.values() {
        total += r + w;
        if mask.count_ones() >= 2 {
            shared += r + w;
        }
    }
    shared as f64 / total.max(1) as f64
}

#[test]
fn partition_apps_share_almost_nothing() {
    for name in ["AES", "FIR"] {
        let f = shared_access_fraction(&app(name).unwrap().scaled(0.5));
        assert!(f < 0.05, "{name}: shared fraction {f}");
    }
}

#[test]
fn sharing_heavy_apps_share_substantially() {
    // MT's scatter writes spread over a larger shared region, so its
    // access-weighted sharing is lower at half scale than the hot-set apps.
    for (name, floor) in [("KM", 0.15), ("PR", 0.15), ("SC", 0.15), ("MT", 0.10)] {
        let f = shared_access_fraction(&app(name).unwrap().scaled(0.5));
        assert!(f > floor, "{name}: shared fraction {f}");
    }
}

#[test]
fn st_shares_pairwise_only() {
    let p = profile(&app("ST").unwrap().scaled(0.5));
    let mut pairwise = 0;
    let mut wider = 0;
    for (mask, _, _) in p.values() {
        match mask.count_ones() {
            2 => {
                pairwise += 1;
                // Ghost zones join *adjacent* GPUs.
                let lo = mask.trailing_zeros();
                let hi = 63 - mask.leading_zeros();
                assert_eq!(hi - lo, 1, "non-adjacent pair 0b{mask:b}");
            }
            3 | 4 => wider += 1,
            _ => {}
        }
    }
    assert!(pairwise > 0, "ST must have pairwise-shared ghost pages");
    assert!(
        wider <= pairwise / 5,
        "ST sharing should be pairwise: {pairwise} pairs vs {wider} wider"
    );
}

#[test]
fn write_mix_separates_the_fig24_classes() {
    // Write-intensive-on-shared apps vs read-mostly ones.
    let shared_write_frac = |name: &str| {
        let p = profile(&app(name).unwrap().scaled(0.5));
        let (mut r, mut w) = (0u64, 0u64);
        for (mask, pr, pw) in p.values() {
            if mask.count_ones() >= 2 {
                r += pr;
                w += pw;
            }
        }
        w as f64 / (r + w).max(1) as f64
    };
    for heavy in ["MT", "Im2col"] {
        for light in ["KM", "SC", "PR"] {
            assert!(
                shared_write_frac(heavy) > shared_write_frac(light),
                "{heavy} must write shared pages more than {light}"
            );
        }
    }
}

#[test]
fn compute_intensity_separates_the_insensitive_apps() {
    // AES/FIR hide fault latency behind compute (paper §V-A).
    let mean_compute = |spec: &AppSpec| {
        let mut s = spec.make_stream(0, 5);
        let mut total = 0u64;
        let mut n = 0u64;
        while let Some(a) = s.next_access() {
            total += a.compute;
            n += 1;
        }
        total as f64 / n as f64
    };
    let insensitive = ["AES", "FIR"].map(|n| mean_compute(&app(n).unwrap()));
    let sensitive = ["MT", "PR"].map(|n| mean_compute(&app(n).unwrap()));
    let min_i = insensitive.iter().cloned().fold(f64::MAX, f64::min);
    let max_s = sensitive.iter().cloned().fold(0.0, f64::max);
    assert!(
        min_i > 3.0 * max_s,
        "compute-bound apps must be far more compute-intensive: {min_i} vs {max_s}"
    );
}

#[test]
fn footprints_are_actually_touched() {
    // Every app must touch a meaningful portion of its private footprint
    // (no dead configuration), and nothing outside it.
    for spec in all_apps() {
        let spec = spec.scaled(0.5);
        let p = profile(&spec);
        assert!(
            p.len() as u64 > spec.footprint / 100,
            "{}: only {} pages touched of {}",
            spec.name,
            p.len(),
            spec.footprint
        );
        assert!(p.keys().all(|&v| v < spec.footprint), "{}", spec.name);
    }
}

#[test]
fn cta_streams_differ_across_ctas() {
    let spec = app("PR").unwrap().scaled(0.2);
    let collect = |cta: usize| {
        let mut s = spec.make_stream(cta, 9);
        let mut v = BTreeSet::new();
        while let Some(a) = s.next_access() {
            v.insert(a.vpn);
        }
        v
    };
    let a = collect(0);
    let b = collect(1);
    assert_ne!(a, b, "different CTAs must not replay identical streams");
}

#[test]
fn ml_models_have_dominant_shared_weight_traffic() {
    for m in [
        workloads::vgg16().scaled(0.3),
        workloads::resnet18().scaled(0.3),
    ] {
        let mut shared_accesses = 0u64;
        let mut total = 0u64;
        let weight_region = 2
            * (m.footprint_pages()
                - m.cta_count() as u64 * {
                    // activations = footprint - 2*weights; recompute per model
                    (m.footprint_pages() - 2 * m.layers.iter().map(|l| l.weight_pages).sum::<u64>())
                        / m.cta_count() as u64
                })
            / 2;
        for cta in [0, m.cta_count() / 2] {
            let mut s = m.make_stream(cta, 3);
            while let Some(a) = s.next_access() {
                total += 1;
                if a.vpn < weight_region {
                    shared_accesses += 1;
                }
            }
        }
        let f = shared_accesses as f64 / total.max(1) as f64;
        assert!(
            (0.1..0.9).contains(&f),
            "{}: weight/gradient traffic fraction {f}",
            m.name
        );
    }
}
