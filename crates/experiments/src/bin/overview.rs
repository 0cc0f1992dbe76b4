//! Quick-look CLI: characterisation and headline numbers for every
//! application on one page.
//!
//! ```sh
//! cargo run --release -p experiments --bin overview [SCALE] [SEEDS]
//! ```

use experiments::runner::{average_cycles, parallel_map};
use experiments::RunOpts;
use mgpu::SystemConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let seeds: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let opts = RunOpts {
        scale,
        seeds: (1..=seeds.max(1)).collect(),
    };

    let base = SystemConfig::baseline();
    let tfw = SystemConfig::with_transfw();

    println!(
        "{:7} {:>8} {:>7} {:>7} | {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} | {:>7} {:>6} {:>6} | {:>7}",
        "app",
        "PFPKI",
        "l2hit",
        "deg4",
        "gq",
        "gw",
        "hq",
        "hw",
        "mig",
        "net",
        "fwd",
        "sup%",
        "probe",
        "speedup"
    );
    let rows = parallel_map(opts.apps(), |app| {
        let (bc, m) = average_cycles(&base, &app, &opts);
        let (tc, t) = average_cycles(&tfw, &app, &opts);
        (app.name.clone(), bc, m, tc, t)
    });
    let mut speedups = Vec::new();
    for (name, bc, m, tc, t) in rows {
        let f = m.breakdown.fractions();
        let deg = m.sharing.access_fraction_by_degree(4);
        let sup_rate = sim_core::stats::ratio(
            t.transfw.remote_supplied,
            t.transfw.remote_supplied + t.transfw.remote_failed,
        );
        let speedup = bc / tc;
        speedups.push(speedup);
        println!(
            "{:7} {:>8.2} {:>7.3} {:>7.2} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>5.2} | {:>7} {:>6.2} {:>6.2} | {:>7.3}",
            name,
            m.pfpki(),
            m.l2_hit_rate(),
            deg[3],
            f[0], f[1], f[2], f[3], f[4], f[5],
            t.transfw.forwarded,
            sup_rate,
            m.remote_probe.hit_rate(),
            speedup,
        );
    }
    println!("mean speedup: {:.3}", sim_core::stats::mean(&speedups));
}
