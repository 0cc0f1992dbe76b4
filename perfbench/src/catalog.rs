//! The metric catalog: every metric the benchmark reports, with its unit,
//! better direction, source, the end-to-end metric it should move, and
//! the workloads that exercise and bypass its layer. `BENCHMARK.json`
//! lists the same names, units and directions; a self-test keeps the two
//! in step. `perfbench --catalog` prints this table as JSON.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host time of untraced passes: the fastest pass's wall time, the
    /// median set-up time.
    Pass,
    /// A simulated count from `RunMetrics`, or a call count made by the
    /// workload wrapper: exact, repeats bit for bit.
    Count,
    /// Host time of a traced span around calls into the layer (median
    /// over traced passes).
    Span,
    /// Host time of the layer's public API fed with the workload's inputs
    /// (median over repetitions).
    Replay,
    /// Computed by the harness from the values above.
    Derived,
}

impl Source {
    /// The catalog spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Pass => "pass",
            Source::Count => "count",
            Source::Span => "span",
            Source::Replay => "replay",
            Source::Derived => "derived",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Where the value comes from.
    pub source: Source,
    /// The end-to-end metric a change to this layer should move (`none`
    /// for harness figures).
    pub moves: &'static str,
    /// Workloads that exercise the layer.
    pub exercised_by: &'static str,
    /// Workloads that bypass it (`-` for none).
    pub bypassed_by: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
    exercised_by: &'static str,
    bypassed_by: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
        moves,
        exercised_by,
        bypassed_by,
    }
}

use Better::{Higher, Lower};
use Source::{Count, Derived, Pass, Replay, Span};

const ALL: &str = "fig11 tlb_local soak";

/// Metrics printed with `--trace 0`: what a user of the simulator sees.
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", Lower, Pass, "wall_s", ALL, "-"),
    m("mem_instr_per_s", "1/s", Higher, Derived, "mem_instr_per_s", ALL, "-"),
    m("setup_s", "s", Lower, Pass, "setup_s", ALL, "-"),
    m("peak_rss_mb", "MB", Lower, Pass, "peak_rss_mb", ALL, "-"),
];

/// Metrics printed with `--trace 1`, layer by layer.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    // mgpu: the system model and its event loop.
    m("mgpu.new_s", "s", Lower, Span, "setup_s", ALL, "-"),
    m("mgpu.warm_s", "s", Lower, Span, "setup_s", "fig11 tlb_local", "-"),
    m("mgpu.loop_s", "s", Lower, Span, "mem_instr_per_s", ALL, "-"),
    m("mgpu.loop_ns_per_mem_instr", "ns", Lower, Derived, "mem_instr_per_s", ALL, "-"),
    m("mgpu.mem_instructions", "count", Higher, Count, "mem_instr_per_s", ALL, "-"),
    m("mgpu.translation_requests", "count", Lower, Count, "mem_instr_per_s", ALL, "-"),
    m("mgpu.local_faults", "count", Lower, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("mgpu.sim_cycles", "cycles", Lower, Count, "wall_s", ALL, "-"),
    // workloads: access-stream generation and warm placement queries.
    m("workloads.stream_s", "s", Lower, Span, "mem_instr_per_s", "tlb_local", "-"),
    m("workloads.initial_owner_s", "s", Lower, Span, "setup_s", "fig11", "-"),
    m("workloads.next_access_calls", "count", Higher, Count, "mem_instr_per_s", ALL, "-"),
    m("workloads.initial_owner_calls", "count", Lower, Count, "setup_s", ALL, "-"),
    // scn: the scenario compiler.
    m("scn.compile_s", "s", Lower, Span, "setup_s", ALL, "-"),
    // sim-core: event calendar, checkpoints, fault injection.
    m("simcore.queue_push_pop_ns", "ns", Lower, Replay, "wall_s", "tlb_local", "-"),
    m("simcore.checkpoints", "count", Lower, Count, "wall_s", "soak", "fig11"),
    m("simcore.faults_injected", "count", Lower, Count, "wall_s", "soak", "fig11"),
    // tlb: L1/L2/host TLBs and the MSHR.
    m("tlb.l1_hit_ratio", "ratio", Higher, Count, "mem_instr_per_s", "tlb_local", "-"),
    m("tlb.l2_hit_ratio", "ratio", Higher, Count, "mem_instr_per_s", "tlb_local", "-"),
    m("tlb.host_hit_ratio", "ratio", Higher, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("tlb.l1_lookup_ns", "ns", Lower, Replay, "mem_instr_per_s", "tlb_local", "-"),
    m("tlb.l2_lookup_ns", "ns", Lower, Replay, "mem_instr_per_s", "tlb_local", "-"),
    m("tlb.l2_fill_ns", "ns", Lower, Replay, "mem_instr_per_s", "tlb_local", "-"),
    m("tlb.mshr_register_complete_ns", "ns", Lower, Replay, "mem_instr_per_s", "tlb_local", "-"),
    // ptw: page tables, PW-caches, PW-queues.
    m("ptw.gmmu_pwc_hit_ratio", "ratio", Higher, Count, "mem_instr_per_s", "tlb_local fig11", "-"),
    m("ptw.host_pwc_hit_ratio", "ratio", Higher, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("ptw.gmmu_walk_accesses", "count", Lower, Count, "mem_instr_per_s", "tlb_local fig11", "-"),
    m("ptw.host_walk_accesses", "count", Lower, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("ptw.gmmu_queue_cycles", "cycles", Lower, Count, "wall_s", "tlb_local fig11", "-"),
    m("ptw.host_queue_cycles", "cycles", Lower, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("ptw.pt_insert_ns", "ns", Lower, Replay, "setup_s", "fig11 tlb_local", "-"),
    m("ptw.pt_walk_ns", "ns", Lower, Replay, "mem_instr_per_s", "tlb_local fig11", "-"),
    m("ptw.utc_lookup_ns", "ns", Lower, Replay, "mem_instr_per_s", "tlb_local fig11", "-"),
    m("ptw.utc_insert_ns", "ns", Lower, Replay, "mem_instr_per_s", "tlb_local fig11", "-"),
    m("ptw.pwqueue_push_pop_ns", "ns", Lower, Replay, "mem_instr_per_s", "tlb_local fig11", "-"),
    // cuckoo / transfw: the PRT and FT filters and the forwarding datapath.
    m("transfw.ft_fill_s", "s", Lower, Replay, "setup_s", "fig11", "tlb_local"),
    m("transfw.prt_fill_s", "s", Lower, Replay, "setup_s", "fig11", "tlb_local"),
    m("cuckoo.ft_stash_len", "count", Lower, Replay, "setup_s", "fig11", "tlb_local"),
    m("cuckoo.prt_stash_len", "count", Lower, Replay, "setup_s", "fig11", "tlb_local"),
    m("transfw.ft_lookup_ns", "ns", Lower, Replay, "wall_s", "fig11 soak", "tlb_local"),
    m("transfw.prt_lookup_ns", "ns", Lower, Replay, "wall_s", "fig11 soak", "tlb_local"),
    m("transfw.gmmu_bypassed", "count", Higher, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("transfw.prt_false_positives", "count", Lower, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("transfw.forwarded", "count", Higher, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("transfw.remote_supplied_ratio", "ratio", Higher, Count, "wall_s", "fig11 soak", "tlb_local"),
    m("transfw.cancelled_host_walks", "count", Higher, Count, "wall_s", "fig11 soak", "tlb_local"),
    // uvm: page directory, eviction engine, fault driver.
    m("uvm.migrations", "count", Lower, Count, "wall_s", "soak fig11", "tlb_local"),
    m("uvm.replications", "count", Lower, Count, "wall_s", "soak fig11", "tlb_local"),
    m("uvm.write_invalidations", "count", Lower, Count, "wall_s", "soak fig11", "tlb_local"),
    m("uvm.evictions", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("uvm.refaults", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("uvm.driver_batches", "count", Lower, Count, "wall_s", "-", ALL),
    m("uvm.migration_cycles", "cycles", Lower, Count, "wall_s", "soak fig11", "tlb_local"),
    m("uvm.resolve_fault_ns", "ns", Lower, Replay, "wall_s", "soak fig11", "tlb_local"),
    m("uvm.evict_select_ns", "ns", Lower, Replay, "wall_s", "soak", "tlb_local"),
    // interconnect: the CPU/peer fabric.
    m("interconnect.network_cycles", "cycles", Lower, Count, "wall_s", "soak fig11", "tlb_local"),
    m("interconnect.rerouted", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("interconnect.send_ns", "ns", Lower, Replay, "wall_s", "soak fig11", "tlb_local"),
    // mgpu control planes: overload, resilience, oversubscription, recovery.
    m("overload.shed", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("overload.demand_deferred", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("overload.breaker_opens", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("overload.demand_p99_cycles", "cycles", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("resilience.retries", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("resilience.remote_timeouts", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("resilience.fallback_walks", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("oversub.thrash_trips", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    m("recovery.reissued_walks", "count", Lower, Count, "wall_s", "soak", "tlb_local"),
    // harness and model accuracy.
    m("trace.overhead_ratio", "ratio", Lower, Derived, "none", ALL, "-"),
    m("model.mean_speedup", "ratio", Higher, Count, "none", "fig11", "tlb_local soak"),
    m("model.speedup_err", "ratio", Lower, Derived, "none", "fig11", "tlb_local soak"),
    m("bench.fail_ratio", "ratio", Lower, Derived, "none", ALL, "-"),
];

/// Prints the catalog as one JSON object per line.
pub fn print() {
    for (kind, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for m in list {
            println!(
                "{{\"kind\":\"{kind}\",\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\
                 \"source\":\"{}\",\"moves\":\"{}\",\"exercised_by\":\"{}\",\"bypassed_by\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.source.as_str(),
                m.moves,
                m.exercised_by,
                m.bypassed_by
            );
        }
    }
}
