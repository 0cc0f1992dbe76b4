//! Smoke tests for every registered figure: each report has the right
//! shape and finite, sensible values at reduced scale, and its exact bits
//! match a pinned FNV-1a 64 hash of its `{:?}` text (f64 `Debug` output
//! round-trips, so the hash pins every value).

use experiments::figures::figure;
use experiments::{Report, RunOpts};

fn opts() -> RunOpts {
    RunOpts {
        scale: 0.06,
        seeds: vec![1],
    }
}

/// The reports of the figure registered as `id`.
fn run(id: &str) -> Vec<Report> {
    figure(id).unwrap_or_else(|| panic!("{id} is not registered"))(&opts())
}

/// The single report of the figure registered as `id`.
fn one(id: &str) -> Report {
    let mut reports = run(id);
    assert_eq!(reports.len(), 1, "{id}");
    reports.remove(0)
}

/// Asserts `r`'s `{:?}` text hashes (FNV-1a 64) to `want`.
fn assert_bits(r: &Report, want: u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{r:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    assert_eq!(h, want, "{}: bits changed: {r:?}", r.title);
}

fn assert_finite(r: &Report) {
    for (label, values) in &r.rows {
        for v in values {
            assert!(v.is_finite(), "{}: row {label} has {v}", r.title);
        }
    }
}

fn assert_app_rows(r: &Report) {
    assert_eq!(r.rows.len(), 11, "{}: 10 apps + mean", r.title);
    assert!(r.rows.iter().any(|(l, _)| l == "MT"), "{}", r.title);
    assert!(r.rows.last().unwrap().0 == "mean", "{}", r.title);
    assert_finite(r);
}

#[test]
fn table3_reports_pfpki() {
    let r = one("table3");
    assert_bits(&r, 0x35f1_c177_fdef_b984);
    assert_eq!(r.rows.len(), 10);
    assert_finite(&r);
    let mt = r.value("MT", 0).unwrap();
    let aes = r.value("AES", 0).unwrap();
    assert!(mt > aes, "MT PFPKI ({mt}) must exceed AES ({aes})");
}

#[test]
fn fig02_scaling_and_per_app() {
    let reports = run("fig02");
    assert_eq!(reports.len(), 2);
    assert_bits(&reports[0], 0x9914_00c1_a9a7_6b2e);
    assert_bits(&reports[1], 0x8628_1fe9_378b_7dd5);
    let scaling = &reports[0];
    assert_eq!(scaling.rows.len(), 4, "4/8/16/32 GPUs");
    assert_finite(scaling);
    // Hardware at 4 GPUs is the normalisation point.
    assert!((scaling.value("4 GPUs", 0).unwrap() - 1.0).abs() < 1e-9);
    // Software is never faster than hardware.
    for (label, v) in &scaling.rows {
        assert!(v[1] >= v[0] * 0.95, "{label}: sw {} vs hw {}", v[1], v[0]);
    }
    assert_app_rows(&reports[1]);
    assert!(reports[1].mean(0).unwrap() >= 1.0, "hw beats sw on average");
}

#[test]
fn fig03_fractions_sum_to_one() {
    let r = one("fig03");
    assert_bits(&r, 0x8e10_b65a_f62a_773b);
    assert_app_rows(&r);
    for (label, v) in &r.rows {
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{label}: fractions sum {sum}");
    }
}

#[test]
fn fig04_ideals_do_not_slow_down() {
    let r = one("fig04");
    assert_bits(&r, 0x6a3f_5ada_7a6e_bee4);
    assert_app_rows(&r);
    // The no-faults ideal (col 3) is the paper's biggest win (2.2x avg).
    let mean = r.mean(3).unwrap();
    assert!(
        mean > 1.0,
        "eliminating faults must help on average: {mean}"
    );
}

#[test]
fn fig05_06_rates_are_probabilities() {
    let reports = run("fig05_06");
    assert_eq!(reports.len(), 2);
    let bits = [0x7ce2_665f_e307_1cf7, 0x75a7_5448_dcfe_6d15];
    for (r, bits) in reports.iter().zip(bits) {
        assert_bits(r, bits);
        assert_app_rows(r);
        for (label, v) in &r.rows {
            for &x in v {
                assert!((-1e-9..=1.0 + 1e-9).contains(&x), "{label}: {x}");
            }
        }
    }
}

#[test]
fn fig07_degrees_sum_to_one() {
    let r = one("fig07");
    assert_bits(&r, 0xacd1_4e51_b900_3eb5);
    assert_app_rows(&r);
    for (label, v) in &r.rows {
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{label}: {sum}");
    }
    // AES stays private (sharing *degrees* need full-scale access density;
    // the fig07_sharing bench shows the paper-shaped distribution).
    assert!(r.value("AES", 0).unwrap() > 0.9);
}

#[test]
fn fig08_remote_hits_high() {
    let r = one("fig08");
    assert_bits(&r, 0x08b5_04c4_6965_bd2e);
    assert_app_rows(&r);
    let mean = r.mean(0).unwrap();
    assert!(mean > 0.5, "remote PW-cache hits should be common: {mean}");
}

#[test]
fn fig11_headline_speedup() {
    let r = one("fig11");
    assert_bits(&r, 0x4eb6_3106_c812_2289);
    assert_app_rows(&r);
    let mean = r.mean(0).unwrap();
    assert!(mean > 1.0, "Trans-FW must win on average: {mean}");
}

#[test]
fn fig12_reductions_bounded() {
    let r = one("fig12");
    assert_bits(&r, 0xff5a_41ec_5209_47a9);
    assert_app_rows(&r);
    for (label, v) in &r.rows {
        for &x in v {
            assert!((0.0..=1.0).contains(&x), "{label}: reduction {x}");
        }
    }
}

#[test]
fn fig13_fig14_shapes() {
    let r = one("fig13");
    assert_bits(&r, 0xa101_aae2_b4ed_d489);
    assert_app_rows(&r);
    let r = one("fig14");
    assert_bits(&r, 0xc309_9e55_86e1_b880);
    assert_app_rows(&r);
    for (label, v) in &r.rows {
        assert!((0.0..=1.0).contains(&v[0]), "{label}: {v:?}");
    }
}

#[test]
fn fig15_fig16_sweeps() {
    let r = one("fig15");
    assert_bits(&r, 0x3d7d_9de5_5766_f333);
    assert_app_rows(&r);
    assert_eq!(r.headers.len(), 4);
    let r = one("fig16");
    assert_bits(&r, 0xaab8_01f9_b584_3e90);
    assert_app_rows(&r);
    assert_eq!(r.headers.len(), 3);
}

#[test]
fn fig17_gpu_scaling() {
    let r = one("fig17");
    assert_bits(&r, 0x8d8a_0d8b_ec5e_19a7);
    assert_app_rows(&r);
}

#[test]
fn fig18_more_walkers_help_baseline() {
    let r = one("fig18");
    assert_bits(&r, 0x1cf4_3c6d_7805_eca1);
    assert_eq!(r.rows.len(), 5);
    assert_finite(&r);
    let first = r.rows.first().unwrap().1[0];
    let last = r.rows.last().unwrap().1[0];
    assert!(
        (first - 1.0).abs() < 1e-9,
        "(4,8) baseline is the reference"
    );
    assert!(last >= first, "more walkers must not hurt the baseline");
}

#[test]
fn fig19_to_fig27_variants() {
    for (id, bits) in [
        ("fig19", 0x10cc_5490_52f1_efa7),
        ("fig20", 0xc5ca_dbb3_bddc_9513),
        ("fig22", 0x0ed7_523f_3266_c853),
        ("fig23", 0x608f_5c83_f4f9_c462),
        ("fig25", 0xfcf2_6cc3_b0b4_0888),
        ("fig26", 0x4ed5_cc2b_f354_d5b0),
        ("fig27", 0xdda8_1b3f_3752_3072),
    ] {
        let r = one(id);
        assert_bits(&r, bits);
        assert_app_rows(&r);
    }
}

#[test]
fn fig21_latency_sweep_declines() {
    let r = one("fig21");
    assert_bits(&r, 0xd2d1_c787_267c_2387);
    assert_eq!(r.rows.len(), 6);
    assert_finite(&r);
    let first = r.rows[1].1[0]; // 1x dram
    let last = r.rows.last().unwrap().1[0]; // 16x dram
    assert!(
        last <= first + 0.15,
        "speedup should not grow with remote latency: {first} -> {last}"
    );
}

#[test]
fn fig24_rw_split() {
    let r = one("fig24");
    assert_bits(&r, 0x19e5_7554_b367_cf4f);
    assert_app_rows(&r);
    let mt_writes = r.value("MT", 1).unwrap();
    let sc_writes = r.value("SC", 1).unwrap();
    assert!(
        mt_writes > sc_writes,
        "MT must be more write-intensive than SC: {mt_writes} vs {sc_writes}"
    );
}

#[test]
fn fig28_fig29_combinations() {
    let r = one("fig28");
    assert_bits(&r, 0x0216_40ed_8804_15a3);
    assert_app_rows(&r);
    let r = one("fig29");
    assert_bits(&r, 0x8ad1_6e1b_4402_e481);
    assert_app_rows(&r);
}

#[test]
fn fig30_ml_models() {
    let r = one("fig30");
    assert_bits(&r, 0x96f7_8ed8_7884_11ab);
    assert_eq!(r.rows.len(), 3, "VGG16, ResNet18, mean");
    assert_finite(&r);
}
