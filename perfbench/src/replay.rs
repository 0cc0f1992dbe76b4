//! Layer replays: each structure's public API fed with inputs built from
//! the workload's own cells — the footprint, the `initial_owner`
//! placement, a sample of the CTA access streams, and the cell's
//! `SystemConfig` geometry.
//!
//! Per-operation figures are the median over [`REPS`] repetitions of
//! (host time summed over cells) / (operations summed over cells). The
//! PRT/FT fills replay warm placement exactly as `System::run` performs
//! it, so on `fig11` their sum sits beside `mgpu.warm_s`. A structure the
//! cell's configuration leaves out (the PRT/FT on the baseline, the
//! eviction engine without oversubscription) reports 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use experiments::spec::RunSpec;
use interconnect::Fabric;
use mgpu::SystemConfig;
use ptw::{Location, PageTable, Pte, PwCache, PwQueue, Utc};
use sim_core::{DetSet, EventQueue};
use tlb::{Mshr, Tlb};
use transfw::{Ft, Prt};
use uvm::{EvictionEngine, PageDirectory};

use crate::median;

/// Repetitions per per-operation replay.
const REPS: usize = 5;
/// Repetitions of the PRT/FT warm fills, which cost far more.
const FILL_REPS: usize = 3;
/// Accesses sampled per cell, spread evenly over its CTAs.
const SAMPLE: usize = 8192;
/// FT/PRT lookups timed per cell: an overflowing FT scans its stash on
/// every probe, so its lookups are slow.
const TABLE_LOOKUPS: usize = 512;
/// Victim selections timed per oversubscribed cell.
const EVICT_PICKS: usize = 256;

/// One sampled memory instruction.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// GPU the issuing CTA runs on (greedy contiguous CTA placement).
    gpu: u16,
    /// Translation-granule virtual page number.
    vpn: u64,
    is_write: bool,
    compute: u64,
}

/// The inputs of one cell.
#[derive(Debug)]
pub struct CellInputs {
    cfg: SystemConfig,
    /// Warm placement in translation-VPN space, as `System::run` walks it.
    placement: Vec<(u64, Option<u16>)>,
    samples: Vec<Sample>,
}

impl CellInputs {
    /// Builds one cell's inputs from its spec.
    pub fn new(spec: &RunSpec) -> Self {
        let cfg = spec.cfg.clone();
        let workload = spec.workload.build();
        let pages = cfg.translation_vpn(workload.footprint_pages().saturating_sub(1)) + 1;
        let shift = cfg.page_size_bits - 12;
        let placement = (0..pages)
            .map(|vpn| (vpn, workload.initial_owner(vpn << shift, cfg.gpus)))
            .collect();
        let ctas = workload.cta_count().max(1);
        let per_cta = SAMPLE.div_ceil(ctas);
        let mut samples = Vec::with_capacity(SAMPLE);
        for cta in 0..ctas {
            let gpu = u16::try_from(cta * usize::from(cfg.gpus) / ctas).unwrap_or(0);
            let mut stream = workload.make_stream(cta, cfg.seed ^ (cta as u64) << 1);
            for _ in 0..per_cta.min(SAMPLE - samples.len()) {
                let Some(a) = stream.next_access() else { break };
                samples.push(Sample {
                    gpu,
                    vpn: cfg.translation_vpn(a.vpn),
                    is_write: a.is_write,
                    compute: a.compute,
                });
            }
        }
        Self {
            cfg,
            placement,
            samples,
        }
    }

    fn owned(&self) -> impl Iterator<Item = (u64, u16)> + '_ {
        self.placement
            .iter()
            .filter_map(|&(vpn, owner)| owner.map(|g| (vpn, g)))
    }

    fn location(owner: Option<u16>) -> Location {
        owner.map_or(Location::Cpu, Location::Gpu)
    }

    /// The host's centralised table after warm placement.
    fn host_table(&self) -> PageTable {
        let mut pt = PageTable::new(self.cfg.page_table_levels);
        for &(vpn, owner) in &self.placement {
            pt.insert(vpn, Pte::new(vpn, Self::location(owner)));
        }
        pt
    }

    /// The page directory after warm placement.
    fn directory(&self) -> PageDirectory {
        let mut dir = PageDirectory::with_policy(self.cfg.gpus, self.cfg.placement_kind());
        for (vpn, g) in self.owned() {
            dir.place(vpn, Location::Gpu(g));
        }
        dir
    }

    fn n(&self) -> u64 {
        self.samples.len() as u64
    }
}

/// Median over [`REPS`] of nanoseconds per operation, where `op` sets a
/// cell up untimed and returns the timed span and its operation count.
fn per_op_ns(cells: &[CellInputs], mut op: impl FnMut(&CellInputs) -> (Duration, u64)) -> f64 {
    let reps = (0..REPS)
        .map(|_| {
            let (mut secs, mut ops) = (0.0, 0u64);
            for cell in cells {
                let (d, n) = op(cell);
                secs += d.as_secs_f64();
                ops += n;
            }
            if ops == 0 {
                0.0
            } else {
                secs * 1e9 / ops as f64
            }
        })
        .collect();
    median(reps)
}

/// Times `body` and returns the span with `ops`.
fn timed(ops: u64, body: impl FnOnce()) -> (Duration, u64) {
    let start = Instant::now();
    body();
    (start.elapsed(), ops)
}

/// Runs every replay over `cells` and returns the per-layer metrics it
/// measures, by name.
pub fn run(cells: &[CellInputs]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    out.insert("simcore.queue_push_pop_ns", per_op_ns(cells, event_queue));
    out.insert(
        "tlb.l1_lookup_ns",
        per_op_ns(cells, |c| {
            let cfg = &c.cfg;
            tlb_lookups(
                c,
                cfg.l1_tlb_entries,
                cfg.l1_tlb_entries,
                cfg.l1_tlb_latency,
            )
        }),
    );
    out.insert(
        "tlb.l2_lookup_ns",
        per_op_ns(cells, |c| {
            let cfg = &c.cfg;
            tlb_lookups(c, cfg.l2_tlb_entries, cfg.l2_tlb_assoc, cfg.l2_tlb_latency)
        }),
    );
    out.insert("tlb.l2_fill_ns", per_op_ns(cells, l2_fills));
    out.insert("tlb.mshr_register_complete_ns", per_op_ns(cells, mshr));
    out.insert("ptw.pt_insert_ns", per_op_ns(cells, pt_inserts));
    out.insert("ptw.pt_walk_ns", per_op_ns(cells, pt_walks));
    out.insert("ptw.utc_lookup_ns", per_op_ns(cells, utc_lookups));
    out.insert("ptw.utc_insert_ns", per_op_ns(cells, utc_inserts));
    out.insert("ptw.pwqueue_push_pop_ns", per_op_ns(cells, pw_queue));
    out.insert("uvm.resolve_fault_ns", per_op_ns(cells, resolve_faults));
    out.insert("uvm.evict_select_ns", per_op_ns(cells, evict_selects));
    out.insert("interconnect.send_ns", per_op_ns(cells, fabric_sends));
    tables(cells, &mut out);
    out
}

/// The event calendar at the cell's in-flight depth (one pending event per
/// wavefront slot): each sampled access pops the earliest event and
/// reschedules it after the access's compute delay.
fn event_queue(c: &CellInputs) -> (Duration, u64) {
    let cfg = &c.cfg;
    let depth =
        usize::from(cfg.gpus) * usize::from(cfg.cus_per_gpu) * usize::from(cfg.wavefronts_per_cu);
    let mut q = EventQueue::with_capacity(depth);
    for i in 0..depth {
        q.push(i as u64, i);
    }
    timed(c.n(), || {
        for s in &c.samples {
            if let Some((at, ev)) = q.pop() {
                q.push(at + s.compute + 1, black_box(ev));
            }
        }
    })
}

/// Lookups on a TLB already warmed by the same access sequence.
fn tlb_lookups(c: &CellInputs, entries: usize, assoc: usize, latency: u64) -> (Duration, u64) {
    let mut tlb = Tlb::new(entries, assoc, latency);
    for s in &c.samples {
        if tlb.lookup(s.vpn).is_none() {
            tlb.fill(s.vpn, s.vpn);
        }
    }
    timed(c.n(), || {
        for s in &c.samples {
            black_box(tlb.lookup(black_box(s.vpn)));
        }
    })
}

fn l2_fills(c: &CellInputs) -> (Duration, u64) {
    let cfg = &c.cfg;
    let mut tlb = Tlb::new(cfg.l2_tlb_entries, cfg.l2_tlb_assoc, cfg.l2_tlb_latency);
    timed(c.n(), || {
        for s in &c.samples {
            black_box(tlb.fill(black_box(s.vpn), s.vpn));
        }
    })
}

fn mshr(c: &CellInputs) -> (Duration, u64) {
    let mut m = Mshr::new(256);
    timed(c.n(), || {
        for (i, s) in c.samples.iter().enumerate() {
            black_box(m.register(black_box(s.vpn), i));
            black_box(m.complete(s.vpn));
        }
    })
}

/// Warm placement's inserts into the host's centralised table.
fn pt_inserts(c: &CellInputs) -> (Duration, u64) {
    let mut pt = PageTable::new(c.cfg.page_table_levels);
    timed(c.placement.len() as u64, || {
        for &(vpn, owner) in &c.placement {
            black_box(pt.insert(vpn, Pte::new(vpn, CellInputs::location(owner))));
        }
    })
}

fn pt_walks(c: &CellInputs) -> (Duration, u64) {
    let pt = c.host_table();
    timed(c.n(), || {
        for s in &c.samples {
            black_box(pt.walk(black_box(s.vpn), None));
        }
    })
}

/// Refills one walked VPN's upper levels, as the GMMU does after a walk.
fn utc_refill(utc: &mut Utc, vpn: u64, levels: u32) {
    for k in 2..=levels {
        utc.insert(vpn, k);
    }
}

fn utc_lookups(c: &CellInputs) -> (Duration, u64) {
    let levels = c.cfg.page_table_levels;
    let mut utc = Utc::new(c.cfg.gmmu_pwc_entries, levels);
    for s in &c.samples {
        if utc.lookup(s.vpn).is_none() {
            utc_refill(&mut utc, s.vpn, levels);
        }
    }
    timed(c.n(), || {
        for s in &c.samples {
            black_box(utc.lookup(black_box(s.vpn)));
        }
    })
}

fn utc_inserts(c: &CellInputs) -> (Duration, u64) {
    let levels = c.cfg.page_table_levels;
    let mut utc = Utc::new(c.cfg.gmmu_pwc_entries, levels);
    timed(c.n() * u64::from(levels - 1), || {
        for s in &c.samples {
            utc_refill(&mut utc, black_box(s.vpn), levels);
        }
    })
}

/// Push/pop pairs on a half-full PW-queue.
fn pw_queue(c: &CellInputs) -> (Duration, u64) {
    let cap = c.cfg.pw_queue_entries;
    let mut q = PwQueue::new(cap);
    for i in 0..cap / 2 {
        let _ = q.push(i as u64, 0);
    }
    timed(c.n(), || {
        for (i, s) in c.samples.iter().enumerate() {
            let now = i as u64;
            black_box(q.push(black_box(s.vpn), now)).ok();
            black_box(q.pop(now));
        }
    })
}

fn resolve_faults(c: &CellInputs) -> (Duration, u64) {
    let mut dir = c.directory();
    timed(c.n(), || {
        for s in &c.samples {
            black_box(dir.resolve_fault(black_box(s.vpn), s.gpu, s.is_write));
        }
    })
}

/// Victim selection over the warm residency, on oversubscribed cells only.
fn evict_selects(c: &CellInputs) -> (Duration, u64) {
    let cfg = &c.cfg;
    if !cfg.oversub.enabled {
        return (Duration::ZERO, 0);
    }
    let dir = c.directory();
    let mut engine = EvictionEngine::new(cfg.oversub.policy, cfg.gpus);
    for g in 0..cfg.gpus {
        engine.sync_residency(g, &dir.resident_vpns_on(g), 0);
    }
    let pins = DetSet::new();
    timed(EVICT_PICKS as u64, || {
        for i in 0..EVICT_PICKS {
            let g = u16::try_from(i % usize::from(cfg.gpus)).unwrap_or(0);
            black_box(engine.select_victim(g, &dir, &pins, cfg.oversub.hot_protect));
        }
    })
}

/// Peer sends from each sample's GPU to its neighbour.
fn fabric_sends(c: &CellInputs) -> (Duration, u64) {
    let cfg = &c.cfg;
    let gpus = usize::from(cfg.gpus);
    if gpus < 2 {
        return (Duration::ZERO, 0);
    }
    let mut fabric = Fabric::new(
        gpus,
        cfg.cpu_link_latency,
        cfg.peer_link_latency,
        cfg.link_bytes_per_cycle,
    );
    timed(c.n(), || {
        for (i, s) in c.samples.iter().enumerate() {
            let src = usize::from(s.gpu);
            black_box(fabric.send_gpu_to_gpu(src, (src + 1) % gpus, i as u64 * 4, 64));
        }
    })
}

/// The PRT/FT warm fills, their stash sizes after the fill, and lookups at
/// that fill.
fn tables(cells: &[CellInputs], out: &mut BTreeMap<&'static str, f64>) {
    let mut ft_fill = Vec::new();
    let mut prt_fill = Vec::new();
    let mut ft_lookup = Vec::new();
    let mut prt_lookup = Vec::new();
    let (mut ft_stash, mut prt_stash) = (0u64, 0u64);
    for _ in 0..FILL_REPS {
        let (mut ft_s, mut prt_s) = (0.0, 0.0);
        let (mut ft_l, mut ft_n, mut prt_l, mut prt_n) = (0.0, 0u64, 0.0, 0u64);
        (ft_stash, prt_stash) = (0, 0);
        for c in cells {
            let Some(k) = &c.cfg.transfw else { continue };
            let lookups = &c.samples[..c.samples.len().min(TABLE_LOOKUPS)];
            if k.host_forwarding {
                let mut ft = Ft::new(&k.config, c.cfg.gpus);
                let (d, _) = timed(0, || {
                    for (vpn, g) in c.owned() {
                        ft.page_migrated(black_box(vpn), None, g);
                    }
                });
                ft_s += d.as_secs_f64();
                ft_stash += ft.overflow_count();
                let (d, n) = timed(lookups.len() as u64, || {
                    for s in lookups {
                        black_box(ft.lookup(black_box(s.vpn)));
                    }
                });
                ft_l += d.as_secs_f64();
                ft_n += n;
            }
            if k.gmmu_short_circuit {
                let mut prts: Vec<Prt> = (0..c.cfg.gpus).map(|_| Prt::new(&k.config)).collect();
                let (d, _) = timed(0, || {
                    for (vpn, g) in c.owned() {
                        prts[usize::from(g)].page_arrived(black_box(vpn));
                    }
                });
                prt_s += d.as_secs_f64();
                prt_stash += prts.iter().map(Prt::overflow_count).sum::<u64>();
                let (d, n) = timed(lookups.len() as u64, || {
                    for s in lookups {
                        black_box(prts[usize::from(s.gpu)].may_be_local(black_box(s.vpn)));
                    }
                });
                prt_l += d.as_secs_f64();
                prt_n += n;
            }
        }
        ft_fill.push(ft_s);
        prt_fill.push(prt_s);
        ft_lookup.push(if ft_n == 0 {
            0.0
        } else {
            ft_l * 1e9 / ft_n as f64
        });
        prt_lookup.push(if prt_n == 0 {
            0.0
        } else {
            prt_l * 1e9 / prt_n as f64
        });
    }
    out.insert("transfw.ft_fill_s", median(ft_fill));
    out.insert("transfw.prt_fill_s", median(prt_fill));
    out.insert("transfw.ft_lookup_ns", median(ft_lookup));
    out.insert("transfw.prt_lookup_ns", median(prt_lookup));
    // An insert-only fill never drains the stash, so every overflow is
    // still stashed when the fill ends.
    out.insert("cuckoo.ft_stash_len", ft_stash as f64);
    out.insert("cuckoo.prt_stash_len", prt_stash as f64);
}
