//! Shared simulation-run machinery: seed averaging and app-parallel sweeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mgpu::workload::Workload;
use mgpu::{RunMetrics, System, SystemConfig};
use workloads::AppSpec;

/// How an experiment is executed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Work scale factor applied to every application (1.0 = full scale;
    /// tests use small values).
    pub scale: f64,
    /// Seeds to average execution time over (simulations are noisy at the
    /// ±few-percent level; the paper's bars are averages too).
    pub seeds: Vec<u64>,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seeds: vec![1, 2],
        }
    }
}

impl RunOpts {
    /// Fast options for unit/integration tests.
    pub fn test() -> Self {
        Self {
            scale: 0.12,
            seeds: vec![1],
        }
    }

    /// The ten Table III applications at this scale.
    pub fn apps(&self) -> Vec<AppSpec> {
        workloads::all_apps()
            .iter()
            .map(|a| a.scaled(self.scale))
            .collect()
    }
}

/// Runs one workload once with the given configuration and seed.
pub fn run_one(mut cfg: SystemConfig, workload: &dyn Workload, seed: u64) -> RunMetrics {
    cfg.seed = seed;
    System::new(cfg)
        .run(workload)
        .expect("experiment run failed a liveness or invariant check")
}

/// Mean end-to-end cycles over the option's seeds, plus the metrics of the
/// first run (for the non-timing statistics, which are seed-stable).
pub fn average_cycles(
    cfg: &SystemConfig,
    workload: &dyn Workload,
    opts: &RunOpts,
) -> (f64, RunMetrics) {
    assert!(!opts.seeds.is_empty(), "need at least one seed");
    let mut cycles = 0.0;
    let mut first: Option<RunMetrics> = None;
    for &seed in &opts.seeds {
        let m = run_one(cfg.clone(), workload, seed);
        cycles += m.total_cycles as f64;
        if first.is_none() {
            first = Some(m);
        }
    }
    (cycles / opts.seeds.len() as f64, first.expect("ran"))
}

/// Serializes one run's complete metrics as a JSON object (hand-rolled:
/// the workspace deliberately has no serialization dependency). This is
/// what the `soak` runner embeds in `BENCH_*.json`: the timing numbers,
/// translation counters, Trans-FW datapath and placement-policy counters,
/// and the robustness trajectory (watchdog activity, component-failure
/// recovery counters, overload control and oversubscription/eviction
/// counters) are captured next to each other, not printed and lost.
///
/// Every field of [`RunMetrics`] and its nested statistics structs is
/// destructured exhaustively (no `..`), so adding a counter without
/// serializing it here is a compile error rather than a silently thinner
/// JSON file.
///
/// # Examples
///
/// ```
/// use mgpu::RunMetrics;
///
/// let m = RunMetrics { app: "MT".into(), total_cycles: 42, ..Default::default() };
/// let json = experiments::run_json(&m, 7);
/// assert!(json.contains("\"app\":\"MT\""));
/// assert!(json.contains("\"remote_timeouts\":0"));
/// assert!(json.contains("\"prefetched_pages\":0"));
/// ```
pub fn run_json(m: &RunMetrics, seed: u64) -> String {
    let RunMetrics {
        app,
        total_cycles,
        mem_instructions,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        translation_requests,
        local_faults,
        host_tlb_hits,
        host_tlb_misses,
        host_walks,
        gmmu_walk_accesses,
        host_walk_accesses,
        breakdown,
        gmmu_pwc,
        host_pwc,
        sharing,
        transfw,
        remote_probe,
        directory,
        placement,
        driver_batches,
        host_queue_peak,
        resilience,
        recovery,
        overload,
        oversub,
    } = m;
    let mgpu::LatencyBreakdown {
        gmmu_queue,
        gmmu_walk,
        host_queue,
        host_walk,
        migration,
        network,
    } = breakdown;
    let mgpu::metrics::TransFwStats {
        gmmu_bypassed,
        prt_false_positives,
        forwarded,
        remote_supplied,
        remote_failed,
        cancelled_host_walks,
        replicated_walks,
    } = transfw;
    let mgpu::metrics::RemoteProbeStats {
        faults: probe_faults,
        hits: probe_hits,
        lower_hits: probe_lower_hits,
    } = remote_probe;
    let uvm::DirectoryStats {
        migrations,
        replications,
        write_invalidations,
        remote_maps,
        promotions,
        prefetches,
    } = directory;
    let mgpu::PlacementStats {
        transactions,
        prefetched_pages,
        prefetch_skipped_pending,
        collapses,
        migration_latency,
    } = placement;
    let mgpu::ResilienceStats {
        remote_timeouts,
        retries,
        fallback_walks,
        duplicates_suppressed,
        requests_retired,
        faults_injected,
    } = resilience;
    let sim_core::InjectStats {
        messages_dropped,
        messages_delayed,
        messages_duplicated,
        walker_stalls,
        table_updates_dropped,
        host_burst_walks,
    } = faults_injected;
    let mgpu::RecoveryStats {
        gpu_offline_events,
        gpu_rejoins,
        link_partition_events,
        host_failover_events,
        ft_invalidations,
        prt_rebuilds,
        ownership_migrations,
        reissued_walks,
        deferred_events,
        deferred_evictions,
        rerouted_messages,
        checkpoints_taken,
        restores_performed,
    } = recovery;
    let mgpu::OverloadStats {
        prefetch_shed,
        migration_shed,
        remote_walks_shed,
        demand_deferred,
        demand_rejected,
        retries_budgeted,
        retry_tokens_denied,
        backoff_delay_total,
        breaker_opens,
        breaker_half_opens,
        breaker_closes,
        breaker_probes,
        breaker_short_circuits,
        probe_drains,
        forward_skipped_congested,
        demand_lat,
    } = overload;
    let mgpu::OversubStats {
        evictions,
        refaults,
        thrash_trips,
        pinned_skips,
        no_victim,
        direct_fallbacks,
        background_shed,
    } = oversub;
    // SharingProfile and PwCacheStats keep private/derived state; their
    // published summaries go in instead of raw internals.
    let (shared_reads, shared_writes) = sharing.shared_rw();
    let pwc_json = |p: &ptw::PwCacheStats| {
        let hits: Vec<String> = p.hits_at.iter().map(u64::to_string).collect();
        format!(
            "{{\"hits_at\":[{}],\"misses\":{},\"lookups\":{}}}",
            hits.join(","),
            p.misses,
            p.lookups
        )
    };
    format!(
        concat!(
            "{{\"app\":\"{}\",\"seed\":{},\"total_cycles\":{},",
            "\"mem_instructions\":{},\"l1_hits\":{},\"l1_misses\":{},",
            "\"l2_hits\":{},\"l2_misses\":{},\"translation_requests\":{},",
            "\"local_faults\":{},\"host_tlb_hits\":{},\"host_tlb_misses\":{},",
            "\"host_walks\":{},\"gmmu_walk_accesses\":{},\"host_walk_accesses\":{},",
            "\"breakdown\":{{\"gmmu_queue\":{},\"gmmu_walk\":{},\"host_queue\":{},",
            "\"host_walk\":{},\"migration\":{},\"network\":{}}},",
            "\"gmmu_pwc\":{},\"host_pwc\":{},",
            "\"sharing\":{{\"pages\":{},\"shared_reads\":{},\"shared_writes\":{}}},",
            "\"transfw\":{{\"gmmu_bypassed\":{},\"prt_false_positives\":{},",
            "\"forwarded\":{},\"remote_supplied\":{},\"remote_failed\":{},",
            "\"cancelled_host_walks\":{},\"replicated_walks\":{}}},",
            "\"remote_probe\":{{\"faults\":{},\"hits\":{},\"lower_hits\":{}}},",
            "\"directory\":{{\"migrations\":{},\"replications\":{},",
            "\"write_invalidations\":{},\"remote_maps\":{},\"promotions\":{},",
            "\"prefetches\":{}}},",
            "\"placement\":{{\"transactions\":{},\"prefetched_pages\":{},",
            "\"prefetch_skipped_pending\":{},\"collapses\":{},",
            "\"migration_latency\":{{\"count\":{},\"total\":{},\"max\":{},",
            "\"mean\":{:.3}}}}},",
            "\"driver_batches\":{},\"host_queue_peak\":{},",
            "\"resilience\":{{\"remote_timeouts\":{},\"retries\":{},",
            "\"fallback_walks\":{},\"duplicates_suppressed\":{},",
            "\"requests_retired\":{},",
            "\"faults_injected\":{{\"messages_dropped\":{},\"messages_delayed\":{},",
            "\"messages_duplicated\":{},\"walker_stalls\":{},",
            "\"table_updates_dropped\":{},\"host_burst_walks\":{}}}}},",
            "\"recovery\":{{\"gpu_offline_events\":{},\"gpu_rejoins\":{},",
            "\"link_partition_events\":{},\"host_failover_events\":{},",
            "\"ft_invalidations\":{},\"prt_rebuilds\":{},",
            "\"ownership_migrations\":{},\"reissued_walks\":{},",
            "\"deferred_events\":{},\"deferred_evictions\":{},",
            "\"rerouted_messages\":{},",
            "\"checkpoints_taken\":{},\"restores_performed\":{}}},",
            "\"overload\":{{\"prefetch_shed\":{},\"migration_shed\":{},",
            "\"remote_walks_shed\":{},\"demand_deferred\":{},",
            "\"demand_rejected\":{},\"retries_budgeted\":{},",
            "\"retry_tokens_denied\":{},\"backoff_delay_total\":{},",
            "\"breaker_opens\":{},\"breaker_half_opens\":{},",
            "\"breaker_closes\":{},\"breaker_probes\":{},",
            "\"breaker_short_circuits\":{},\"probe_drains\":{},",
            "\"forward_skipped_congested\":{},",
            "\"demand_lat\":{{\"count\":{},\"mean\":{:.3},\"p99_bound\":{}}}}},",
            "\"oversub\":{{\"evictions\":{},\"refaults\":{},",
            "\"thrash_trips\":{},\"pinned_skips\":{},\"no_victim\":{},",
            "\"direct_fallbacks\":{},\"background_shed\":{}}}}}"
        ),
        json_escape(app),
        seed,
        total_cycles,
        mem_instructions,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        translation_requests,
        local_faults,
        host_tlb_hits,
        host_tlb_misses,
        host_walks,
        gmmu_walk_accesses,
        host_walk_accesses,
        gmmu_queue,
        gmmu_walk,
        host_queue,
        host_walk,
        migration,
        network,
        pwc_json(gmmu_pwc),
        pwc_json(host_pwc),
        sharing.page_count(),
        shared_reads,
        shared_writes,
        gmmu_bypassed,
        prt_false_positives,
        forwarded,
        remote_supplied,
        remote_failed,
        cancelled_host_walks,
        replicated_walks,
        probe_faults,
        probe_hits,
        probe_lower_hits,
        migrations,
        replications,
        write_invalidations,
        remote_maps,
        promotions,
        prefetches,
        transactions,
        prefetched_pages,
        prefetch_skipped_pending,
        collapses,
        migration_latency.count(),
        migration_latency.total(),
        migration_latency.max(),
        migration_latency.mean(),
        driver_batches,
        host_queue_peak,
        remote_timeouts,
        retries,
        fallback_walks,
        duplicates_suppressed,
        requests_retired,
        messages_dropped,
        messages_delayed,
        messages_duplicated,
        walker_stalls,
        table_updates_dropped,
        host_burst_walks,
        gpu_offline_events,
        gpu_rejoins,
        link_partition_events,
        host_failover_events,
        ft_invalidations,
        prt_rebuilds,
        ownership_migrations,
        reissued_walks,
        deferred_events,
        deferred_evictions,
        rerouted_messages,
        checkpoints_taken,
        restores_performed,
        prefetch_shed,
        migration_shed,
        remote_walks_shed,
        demand_deferred,
        demand_rejected,
        retries_budgeted,
        retry_tokens_denied,
        backoff_delay_total,
        breaker_opens,
        breaker_half_opens,
        breaker_closes,
        breaker_probes,
        breaker_short_circuits,
        probe_drains,
        forward_skipped_congested,
        demand_lat.count(),
        demand_lat.mean(),
        demand_lat.percentile_bound(0.99),
        evictions,
        refaults,
        thrash_trips,
        pinned_skips,
        no_victim,
        direct_fallbacks,
        background_shed,
    )
}

/// Minimal JSON string escaping for app names and cell labels (quotes,
/// backslashes and control characters; names are ASCII in practice).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Maps `f` over `items` on one worker per available core (simulation runs
/// are independent and CPU-bound), returning the results in input order.
/// Workers pull the next index from a shared counter, so at most that many
/// items run at once however many there are.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..worker_count().min(slots.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break done };
                        let item = slot.lock().expect("slot").take().expect("taken once");
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Worker threads [`parallel_map`] starts: one per available core.
fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..16).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_runs_at_most_one_item_per_worker() {
        let workers = worker_count().min(64);
        // Each worker blocks on its first item until all of them hold one,
        // so the peak is exactly the worker count unless more items run.
        let barrier = std::sync::Barrier::new(workers);
        let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let out = parallel_map((0..64).collect::<Vec<usize>>(), |x| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            if x < workers {
                barrier.wait();
            }
            in_flight.fetch_sub(1, Ordering::SeqCst);
            x * 3
        });
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(peak.load(Ordering::SeqCst), workers);
    }

    #[test]
    fn run_opts_apps_scale() {
        let full = RunOpts::default().apps();
        let small = RunOpts::test().apps();
        assert_eq!(full.len(), 10);
        assert_eq!(small.len(), 10);
        assert!(small[0].ctas < full[0].ctas);
    }

    #[test]
    fn average_cycles_is_deterministic_per_seed() {
        let opts = RunOpts {
            scale: 0.05,
            seeds: vec![7],
        };
        let app = workloads::app("FIR").unwrap().scaled(opts.scale);
        let cfg = SystemConfig::baseline();
        let (a, _) = average_cycles(&cfg, &app, &opts);
        let (b, _) = average_cycles(&cfg, &app, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn run_json_includes_every_robustness_counter() {
        let app = workloads::app("KM").unwrap().scaled(0.05);
        let m = run_one(SystemConfig::with_transfw(), &app, 3);
        let json = run_json(&m, 3);
        for key in [
            "remote_timeouts",
            "retries",
            "fallback_walks",
            "duplicates_suppressed",
            "requests_retired",
            "gpu_offline_events",
            "ft_invalidations",
            "prt_rebuilds",
            "ownership_migrations",
            "reissued_walks",
            "checkpoints_taken",
            "restores_performed",
            "prefetch_shed",
            "retries_budgeted",
            "breaker_opens",
            "demand_lat",
            "deferred_evictions",
            "evictions",
            "refaults",
            "thrash_trips",
            "direct_fallbacks",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "missing {key}: {json}"
            );
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Balanced braces: a cheap well-formedness check without a parser.
        let open = json.matches('{').count();
        assert_eq!(open, json.matches('}').count());
    }

    /// Satellite guard: every scalar counter reachable from `RunMetrics`
    /// must appear as a key in `run_json`'s output. The destructuring in
    /// `run_json` already makes a *forgotten struct field* a compile error;
    /// this test additionally catches a field that was destructured but
    /// never formatted (bound then dropped), which the compiler only
    /// reports as an unused-variable lint.
    #[test]
    fn run_json_serializes_every_metrics_field() {
        let m = RunMetrics {
            app: "guard".into(),
            ..Default::default()
        };
        let json = run_json(&m, 1);
        for key in [
            // top level
            "app",
            "seed",
            "total_cycles",
            "mem_instructions",
            "l1_hits",
            "l1_misses",
            "l2_hits",
            "l2_misses",
            "translation_requests",
            "local_faults",
            "host_tlb_hits",
            "host_tlb_misses",
            "host_walks",
            "gmmu_walk_accesses",
            "host_walk_accesses",
            "driver_batches",
            "host_queue_peak",
            // breakdown
            "gmmu_queue",
            "gmmu_walk",
            "host_queue",
            "host_walk",
            "migration",
            "network",
            // pw-caches and sharing summary
            "gmmu_pwc",
            "host_pwc",
            "hits_at",
            "lookups",
            "pages",
            "shared_reads",
            "shared_writes",
            // transfw
            "gmmu_bypassed",
            "prt_false_positives",
            "forwarded",
            "remote_supplied",
            "remote_failed",
            "cancelled_host_walks",
            "replicated_walks",
            // remote probe
            "lower_hits",
            // directory
            "migrations",
            "replications",
            "write_invalidations",
            "remote_maps",
            "promotions",
            "prefetches",
            // placement
            "transactions",
            "prefetched_pages",
            "prefetch_skipped_pending",
            "collapses",
            "migration_latency",
            // resilience + injected faults
            "remote_timeouts",
            "retries",
            "fallback_walks",
            "duplicates_suppressed",
            "requests_retired",
            "messages_dropped",
            "messages_delayed",
            "messages_duplicated",
            "walker_stalls",
            "table_updates_dropped",
            "host_burst_walks",
            // recovery
            "gpu_offline_events",
            "gpu_rejoins",
            "link_partition_events",
            "host_failover_events",
            "ft_invalidations",
            "prt_rebuilds",
            "ownership_migrations",
            "reissued_walks",
            "deferred_events",
            "deferred_evictions",
            "rerouted_messages",
            "checkpoints_taken",
            "restores_performed",
            // overload control
            "prefetch_shed",
            "migration_shed",
            "remote_walks_shed",
            "demand_deferred",
            "demand_rejected",
            "retries_budgeted",
            "retry_tokens_denied",
            "backoff_delay_total",
            "breaker_opens",
            "breaker_half_opens",
            "breaker_closes",
            "breaker_probes",
            "breaker_short_circuits",
            "probe_drains",
            "forward_skipped_congested",
            "demand_lat",
            "p99_bound",
            // oversubscription / eviction
            "oversub",
            "evictions",
            "refaults",
            "thrash_trips",
            "pinned_skips",
            "no_victim",
            "direct_fallbacks",
            "background_shed",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
        let open = json.matches('{').count();
        assert_eq!(open, json.matches('}').count(), "unbalanced braces");
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "unbalanced brackets"
        );
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(super::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_panics() {
        let opts = RunOpts {
            scale: 0.05,
            seeds: vec![],
        };
        let app = workloads::app("FIR").unwrap();
        average_cycles(&SystemConfig::baseline(), &app, &opts);
    }
}
