//! Every table and figure of the paper's evaluation, keyed by its
//! `repro --only` id.
//!
//! Almost every figure has one shape: run a few [`SystemConfig`]s on each
//! application, then report one value per column. The per-app driver is that
//! shape and [`FIGURES`] makes one driver call per figure. Only the
//! figures whose rows are sweep points (Figs. 2a, 18 and 21) are written
//! out; they reshape the driver's `mean` row into their rows.

use mgpu::workload::Workload;
use mgpu::{FarFaultMode, IdealKnobs, PwcKind, RunMetrics, SystemConfig, TransFwKnobs};
use ptw::Asap;
use transfw::TransFwConfig;
use uvm::PolicyKind;

use crate::runner::{average_cycles, parallel_map};
use crate::{Report, RunOpts};

/// One config's run of one workload, as [`average_cycles`] returns it:
/// mean cycles over the seeds and the first seed's metrics.
pub(crate) type Run = (f64, RunMetrics);

/// A figure: its reports at the given options.
pub type Figure = fn(&RunOpts) -> Vec<Report>;

/// The Fig. 3 latency components, also the columns of Fig. 12.
const BREAKDOWN: [&str; 6] = [
    "gmmu-queue",
    "gmmu-walk",
    "host-queue",
    "host-walk",
    "migration",
    "net+replay",
];

/// Every table and figure by `repro --only` id, in paper order.
pub static FIGURES: &[(&str, Figure)] = &[
    // Table III: the application suite's measured PFPKI and L2 TLB hit rate.
    ("table3", |o| {
        vec![per_app(
            "Table III: measured PFPKI and L2 TLB hit rate (baseline)",
            &["PFPKI", "L2 hit"],
            o.apps(),
            &[SystemConfig::baseline()],
            o,
            false,
            |r| vec![r[0].1.pfpki(), r[0].1.l2_hit_rate()],
        )]
    }),
    // Fig. 2: software (UVM-driver) versus hardware (host MMU) far-fault
    // handling — (a) scaling from 4 to 32 GPUs, (b) per-application
    // speedup of hardware over software at 4 GPUs.
    ("fig02", |o| {
        let cfgs = [FarFaultMode::HostMmu, FarFaultMode::UvmDriver].map(|m| fault_cfg(4, m));
        let b = apps_fig(
            o,
            "Fig. 2(b): hardware speedup over software, 4 GPUs",
            &["hw/sw speedup"],
            &cfgs,
            |r| vec![r[1].0 / r[0].0],
        );
        [vec![fig02a(o)], b].concat()
    }),
    // Fig. 3: breakdown of the L2 TLB miss latency in the baseline.
    ("fig03", |o| {
        apps_fig(
            o,
            "Fig. 3: L2 TLB miss latency breakdown (baseline)",
            &BREAKDOWN,
            &[SystemConfig::baseline()],
            |r| r[0].1.breakdown.fractions().to_vec(),
        )
    }),
    // Fig. 4: room for improvement — speedups from impractical
    // idealisations over the baseline.
    ("fig04", |o| {
        let ideal = |ideal| SystemConfig {
            ideal,
            ..SystemConfig::baseline()
        };
        let cfgs = [
            SystemConfig::baseline(),
            SystemConfig {
                pwc_kind: PwcKind::Infinite,
                ..SystemConfig::baseline()
            },
            ideal(IdealKnobs {
                infinite_walkers: true,
                ..Default::default()
            }),
            ideal(IdealKnobs {
                zero_migration_latency: true,
                ..Default::default()
            }),
            ideal(IdealKnobs {
                no_local_faults: true,
                ..Default::default()
            }),
        ];
        apps_fig(
            o,
            "Fig. 4: idealised speedups over baseline",
            &["inf-pwc", "inf-walkers", "no-mig-lat", "no-faults"],
            &cfgs,
            over_first,
        )
    }),
    // Figs. 5 and 6: PW-cache hit levels in the GMMU and the host MMU.
    ("fig05_06", |o| {
        let levels = |host: bool| {
            move |r: &[Run]| {
                let s = if host {
                    &r[0].1.host_pwc
                } else {
                    &r[0].1.gmmu_pwc
                };
                // Lower levels (L2/L3): translation within 1-2 memory accesses.
                let lower = s.hit_rate_at(2) + s.hit_rate_at(3);
                vec![lower, s.hit_rate() - lower, 1.0 - s.hit_rate()]
            }
        };
        let headers = ["L2+L3 hit", "L4+L5 hit", "miss"];
        let cfgs = [SystemConfig::baseline()];
        [
            apps_fig(
                o,
                "Fig. 5: GMMU PW-cache hit levels (baseline)",
                &headers,
                &cfgs,
                levels(false),
            ),
            apps_fig(
                o,
                "Fig. 6: host MMU PW-cache hit levels (baseline)",
                &headers,
                &cfgs,
                levels(true),
            ),
        ]
        .concat()
    }),
    // Fig. 7: the fraction of page accesses going to pages shared by
    // 1, 2, 3 or 4 GPUs.
    ("fig07", |o| {
        apps_fig(
            o,
            "Fig. 7: page sharing among GPUs (fraction of accesses)",
            &["1 GPU", "2 GPUs", "3 GPUs", "4 GPUs"],
            &[SystemConfig::baseline()],
            |r| r[0].1.sharing.access_fraction_by_degree(4),
        )
    }),
    // Fig. 8: could another GPU's PW-cache have supplied (part of) a local
    // page fault's translation?
    ("fig08", |o| {
        apps_fig(
            o,
            "Fig. 8: remote PW-cache hit rate of local page faults (baseline)",
            &["any level", "L2+L3"],
            &[SystemConfig::baseline()],
            |r| {
                vec![
                    r[0].1.remote_probe.hit_rate(),
                    r[0].1.remote_probe.lower_hit_rate(),
                ]
            },
        )
    }),
    // Fig. 11: the headline Trans-FW speedup, with the PRT-only and
    // FT-only ablations.
    ("fig11", |o| {
        let ablate = |gmmu_short_circuit, host_forwarding| SystemConfig {
            transfw: Some(TransFwKnobs {
                gmmu_short_circuit,
                host_forwarding,
                ..TransFwKnobs::full()
            }),
            ..SystemConfig::baseline()
        };
        apps_fig(
            o,
            "Fig. 11: Trans-FW speedup over baseline (with ablations)",
            &["Trans-FW", "PRT only", "FT only"],
            &[
                SystemConfig::baseline(),
                ablate(true, true),
                ablate(true, false),
                ablate(false, true),
            ],
            over_first,
        )
    }),
    // Fig. 12: the fraction by which Trans-FW shrinks each Fig. 3 latency
    // component (1.0 = eliminated).
    ("fig12", |o| {
        apps_fig(
            o,
            "Fig. 12: latency component reduction by Trans-FW",
            &BREAKDOWN,
            &and_transfw(SystemConfig::baseline()),
            |r| r[1].1.breakdown.reduction_vs(&r[0].1.breakdown).to_vec(),
        )
    }),
    // Fig. 13: lower-level PW-cache hit rates under Trans-FW (compare
    // Figs. 5/6).
    ("fig13", |o| {
        apps_fig(
            o,
            "Fig. 13: lower-level (L2+L3) PW-cache hit rates under Trans-FW",
            &["GMMU", "host MMU"],
            &[SystemConfig::with_transfw()],
            |r| {
                let (g, h) = (&r[0].1.gmmu_pwc, &r[0].1.host_pwc);
                vec![
                    g.hit_rate_at(2) + g.hit_rate_at(3),
                    h.hit_rate_at(2) + h.hit_rate_at(3),
                ]
            },
        )
    }),
    // Fig. 14: requests that ran both a host walk and a borrowed remote
    // walk, as a fraction of all host PT-walks.
    ("fig14", |o| {
        apps_fig(
            o,
            "Fig. 14: replicated PT-walks / all host PT-walks (Trans-FW)",
            &["replicated"],
            &[SystemConfig::with_transfw()],
            |r| {
                vec![sim_core::stats::ratio(
                    r[0].1.transfw.replicated_walks,
                    r[0].1.host_walks,
                )]
            },
        )
    }),
    // Fig. 15: forwarding threshold of 0, 0.5, 1 and 2 x the host PT-walk
    // thread count.
    ("fig15", |o| {
        let mut cfgs = vec![SystemConfig::baseline()];
        cfgs.extend([0.0, 0.5, 1.0, 2.0].map(|forward_threshold| {
            with_tables(TransFwConfig {
                forward_threshold,
                ..TransFwConfig::default()
            })
        }));
        apps_fig(
            o,
            "Fig. 15: Trans-FW speedup vs forwarding threshold",
            &["t=0", "t=0.5", "t=1", "t=2"],
            &cfgs,
            over_first,
        )
    }),
    // Fig. 16: (PRT, FT) sizes of (250, 1000), (500, 2000) and (1000, 4000)
    // fingerprints.
    ("fig16", |o| {
        apps_fig(
            o,
            "Fig. 16: Trans-FW speedup vs (PRT, FT) fingerprint counts",
            &["(250,1k)", "(500,2k)", "(1k,4k)"],
            &[
                SystemConfig::baseline(),
                with_tables(TransFwConfig::small()),
                with_tables(TransFwConfig::default()),
                with_tables(TransFwConfig::large()),
            ],
            over_first,
        )
    }),
    // Fig. 17: Trans-FW at 8 and 16 GPUs, each over the baseline with the
    // same GPU count.
    ("fig17", |o| {
        let gpus = |g| and_transfw(SystemConfig::builder().gpus(g).build());
        apps_fig(
            o,
            "Fig. 17: Trans-FW speedup with 8 and 16 GPUs",
            &["8 GPUs", "16 GPUs"],
            &[gpus(8), gpus(16)].concat(),
            pairwise,
        )
    }),
    ("fig18", |o| vec![fig18(o)]),
    // Fig. 19: both systems with a 4-level page table.
    ("fig19", |o| {
        transfw_speedup(
            o,
            "Fig. 19: Trans-FW speedup with a 4-level page table",
            SystemConfig::builder().page_table_levels(4).build(),
        )
    }),
    // Fig. 20: a 4096-entry host TLB, a 256-entry and a 512-entry host
    // PW-cache, each over its own baseline.
    ("fig20", |o| {
        let variants = [
            SystemConfig::builder().host_tlb_entries(4096).build(),
            SystemConfig::builder().host_pwc_entries(256).build(),
            SystemConfig::builder().host_pwc_entries(512).build(),
        ];
        apps_fig(
            o,
            "Fig. 20: Trans-FW speedup under host MMU variants",
            &["TLB 4096", "PWC 256", "PWC 512"],
            &variants
                .into_iter()
                .flat_map(and_transfw)
                .collect::<Vec<_>>(),
            pairwise,
        )
    }),
    ("fig21", |o| vec![fig21(o)]),
    // Fig. 22: both systems with the Split Translation Cache.
    ("fig22", |o| {
        transfw_speedup(
            o,
            "Fig. 22: Trans-FW speedup with STC PW-caches",
            SystemConfig::builder().pwc_kind(PwcKind::Stc).build(),
        )
    }),
    // Fig. 23: both systems with read replication.
    ("fig23", |o| {
        transfw_speedup(
            o,
            "Fig. 23: Trans-FW speedup under read replication",
            SystemConfig::builder()
                .placement(PolicyKind::ReadDuplicate)
                .build(),
        )
    }),
    // Fig. 24: reads versus writes to cross-GPU shared pages — why read
    // replication cannot help write-intensive applications.
    ("fig24", |o| {
        apps_fig(
            o,
            "Fig. 24: read/write split of shared-page accesses",
            &["reads", "writes"],
            &[SystemConfig::baseline()],
            |r| {
                let (reads, writes) = r[0].1.sharing.shared_rw();
                let total = (reads + writes).max(1) as f64;
                vec![reads as f64 / total, writes as f64 / total]
            },
        )
    }),
    // Fig. 25: both systems with remote mapping and access-counter
    // migration (threshold 8).
    ("fig25", |o| {
        transfw_speedup(
            o,
            "Fig. 25: Trans-FW speedup under remote mapping",
            SystemConfig::builder()
                .placement(PolicyKind::DelayedMigration { threshold: 8 })
                .build(),
        )
    }),
    // Fig. 26: both systems with UVM-driver far faults; the Forwarding
    // Table sits in CPU memory and the driver consults it.
    ("fig26", |o| {
        transfw_speedup(
            o,
            "Fig. 26: Trans-FW speedup on UVM-driver handled far faults",
            SystemConfig::builder()
                .fault_mode(FarFaultMode::UvmDriver)
                .build(),
        )
    }),
    // Fig. 27: both systems with 2 MB pages.
    ("fig27", |o| {
        transfw_speedup(
            o,
            "Fig. 27: Trans-FW speedup with 2 MB pages",
            SystemConfig::builder().page_size_bits(21).build(),
        )
    }),
    // Fig. 28: Trans-FW and Trans-FW+ASAP over ASAP PW-cache prefetching.
    ("fig28", |o| {
        let asap = Some(Asap::DEFAULT_ACCURACY);
        let cfgs = [
            SystemConfig::builder().asap(asap).build(),
            SystemConfig::with_transfw(),
            SystemConfig {
                asap,
                ..SystemConfig::with_transfw()
            },
        ];
        apps_fig(
            o,
            "Fig. 28: speedup over ASAP prefetching",
            &["Trans-FW", "Trans-FW+ASAP"],
            &cfgs,
            over_first,
        )
    }),
    // Fig. 29: Trans-FW + least-TLB over least-TLB alone.
    ("fig29", |o| {
        transfw_speedup(
            o,
            "Fig. 29: Trans-FW + least-TLB speedup over least-TLB",
            SystemConfig::builder().least_tlb(true).build(),
        )
    }),
    // Fig. 30: VGG16 and ResNet18 in data-parallel training.
    ("fig30", |o| {
        let models = vec![
            workloads::vgg16().scaled(o.scale),
            workloads::resnet18().scaled(o.scale),
        ];
        vec![per_app(
            "Fig. 30: Trans-FW speedup on ML training",
            &["speedup"],
            models,
            &and_transfw(SystemConfig::baseline()),
            o,
            true,
            over_first,
        )]
    }),
];

/// The figure registered under exactly `id`.
pub fn figure(id: &str) -> Option<Figure> {
    FIGURES
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, f)| f)
}

/// The per-app driver: runs each of `cfgs` once per workload in `apps`
/// (workloads in parallel) and pushes one row per workload, valued by
/// `cols` over that workload's runs in `cfgs` order. Adds the `mean` row
/// when `mean` is set.
pub(crate) fn per_app<W: Workload + Send>(
    title: &str,
    headers: &[&str],
    apps: Vec<W>,
    cfgs: &[SystemConfig],
    opts: &RunOpts,
    mean: bool,
    cols: impl Fn(&[Run]) -> Vec<f64> + Sync,
) -> Report {
    let rows = parallel_map(apps, |app| {
        let runs: Vec<Run> = cfgs.iter().map(|c| average_cycles(c, &app, opts)).collect();
        (app.name().to_string(), cols(&runs))
    });
    let mut report = Report::new(title, headers);
    for (name, v) in rows {
        report.push(&name, v);
    }
    if mean {
        report.push_mean();
    }
    report
}

/// [`per_app`] over the Table III apps, with the `mean` row.
fn apps_fig(
    opts: &RunOpts,
    title: &str,
    headers: &[&str],
    cfgs: &[SystemConfig],
    cols: impl Fn(&[Run]) -> Vec<f64> + Sync,
) -> Vec<Report> {
    vec![per_app(title, headers, opts.apps(), cfgs, opts, true, cols)]
}

/// Trans-FW's speedup over `base`, both built on the same variant.
fn transfw_speedup(opts: &RunOpts, title: &str, base: SystemConfig) -> Vec<Report> {
    apps_fig(opts, title, &["speedup"], &and_transfw(base), over_first)
}

/// The speedup of every later config over the first.
fn over_first(r: &[Run]) -> Vec<f64> {
    let b = r[0].0;
    r[1..].iter().map(|(t, _)| b / t).collect()
}

/// The speedup within each `(baseline, variant)` pair of configs.
fn pairwise(r: &[Run]) -> Vec<f64> {
    r.chunks(2).map(|p| p[0].0 / p[1].0).collect()
}

/// The `mean` row of a [`per_app`] report: each column's mean over apps.
fn app_means(mut report: Report) -> Vec<f64> {
    report.rows.pop().expect("per_app pushed a mean row").1
}

/// `base`, then `base` with Trans-FW fully enabled.
fn and_transfw(base: SystemConfig) -> [SystemConfig; 2] {
    let tfw = SystemConfig {
        transfw: Some(TransFwKnobs::full()),
        ..base.clone()
    };
    [base, tfw]
}

/// The baseline with Trans-FW fully enabled on `config`'s tables.
fn with_tables(config: TransFwConfig) -> SystemConfig {
    SystemConfig {
        transfw: Some(TransFwKnobs {
            config,
            ..TransFwKnobs::full()
        }),
        ..SystemConfig::baseline()
    }
}

fn fault_cfg(gpus: u16, mode: FarFaultMode) -> SystemConfig {
    SystemConfig::builder().gpus(gpus).fault_mode(mode).build()
}

/// Fig. 2(a): mean execution time of both far-fault modes at 4/8/16/32
/// GPUs, normalized to the hardware approach with 4 GPUs (lower is better).
fn fig02a(opts: &RunOpts) -> Report {
    let headers = ["hardware", "software"];
    let mut report = Report::new(
        "Fig. 2(a): SW vs HW far-fault handling, normalized to HW @ 4 GPUs",
        &headers,
    );
    let mut hw4 = None;
    for g in [4u16, 8, 16, 32] {
        let cfgs = [FarFaultMode::HostMmu, FarFaultMode::UvmDriver].map(|m| fault_cfg(g, m));
        let times = per_app("", &headers, opts.apps(), &cfgs, opts, true, |r| {
            r.iter().map(|(t, _)| *t).collect()
        });
        let times = app_means(times);
        let hw4 = *hw4.get_or_insert(times[0]);
        report.push(
            &format!("{g} GPUs"),
            times.iter().map(|t| t / hw4).collect(),
        );
    }
    report
}

/// Fig. 18: mean speedup over the baseline with (4, 8) GMMU and host
/// PT-walk threads, for the baseline and Trans-FW at each thread pair up
/// to (64, 128). Rows are the thread pairs.
fn fig18(opts: &RunOpts) -> Report {
    const PAIRS: [(usize, usize); 5] = [(4, 8), (8, 16), (16, 32), (32, 64), (64, 128)];
    let cfgs: Vec<SystemConfig> = PAIRS
        .iter()
        .flat_map(|&(g, h)| {
            and_transfw(
                SystemConfig::builder()
                    .gmmu_walkers(g)
                    .host_walkers(h)
                    .build(),
            )
        })
        .collect();
    let labels: Vec<String> = PAIRS
        .iter()
        .flat_map(|(g, h)| [format!("({g},{h}) baseline"), format!("({g},{h}) Trans-FW")])
        .collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    // The first config, the (4, 8) baseline, is the reference.
    let means = app_means(per_app("", &labels, opts.apps(), &cfgs, opts, true, |r| {
        r.iter().map(|(t, _)| r[0].0 / t).collect()
    }));
    let mut report = Report::new(
        "Fig. 18: speedup vs PT-walk threads, normalized to baseline (4,8)",
        &["baseline", "Trans-FW"],
    );
    for ((g, h), pair) in PAIRS.iter().zip(means.chunks(2)) {
        report.push(&format!("({g},{h})"), pair.to_vec());
    }
    report
}

/// Fig. 21: mean Trans-FW speedup for peer-link latencies of 150 cycles
/// (the default) and 1x to 16x the GPU local DRAM latency.
fn fig21(opts: &RunOpts) -> Report {
    let dram = SystemConfig::baseline().dram_latency;
    let sweeps = [("150cy".to_string(), 150)]
        .into_iter()
        .chain([1u64, 2, 4, 8, 16].map(|m| (format!("{m}x dram"), m * dram)));
    let mut report = Report::new(
        "Fig. 21: mean Trans-FW speedup vs remote access latency",
        &["speedup"],
    );
    for (label, lat) in sweeps {
        let cfgs = and_transfw(SystemConfig::builder().peer_link_latency(lat).build());
        let speedup = per_app("", &["speedup"], opts.apps(), &cfgs, opts, true, over_first);
        report.push(&label, app_means(speedup));
    }
    report
}
