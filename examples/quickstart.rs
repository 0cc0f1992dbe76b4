//! Quickstart: run one application on the 4-GPU baseline and on Trans-FW,
//! and print the headline comparison.
//!
//! ```sh
//! cargo run --release --example quickstart [APP] [SCALE]
//! ```
//!
//! `APP` is a Table III abbreviation (default `MT`); `SCALE` scales the
//! amount of work (default 1.0).

use transfw_sim::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app_name = args.get(1).map(String::as_str).unwrap_or("MT");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let app = workloads::app(app_name)
        .unwrap_or_else(|| panic!("unknown app {app_name}; try MT, PR, KM, …"))
        .scaled(scale);

    println!(
        "running {} at scale {scale} on the Table II 4-GPU system…",
        app.name
    );

    let baseline = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let transfw = System::new(SystemConfig::with_transfw()).run(&app).unwrap();

    println!();
    println!("                        baseline      Trans-FW");
    println!(
        "execution cycles    {:>12}  {:>12}",
        baseline.total_cycles, transfw.total_cycles
    );
    println!(
        "memory instructions {:>12}  {:>12}",
        baseline.mem_instructions, transfw.mem_instructions
    );
    println!(
        "local page faults   {:>12}  {:>12}",
        baseline.local_faults, transfw.local_faults
    );
    println!(
        "PFPKI               {:>12.3}  {:>12.3}",
        baseline.pfpki(),
        transfw.pfpki()
    );
    println!(
        "L2 TLB hit rate     {:>12.3}  {:>12.3}",
        baseline.l2_hit_rate(),
        transfw.l2_hit_rate()
    );
    println!();
    println!("Trans-FW mechanisms:");
    println!(
        "  GMMU walks short-circuited : {}",
        transfw.transfw.gmmu_bypassed
    );
    println!(
        "  host walks forwarded       : {}",
        transfw.transfw.forwarded
    );
    println!(
        "  supplied by remote GPUs    : {}",
        transfw.transfw.remote_supplied
    );
    println!(
        "  host walks cancelled       : {}",
        transfw.transfw.cancelled_host_walks
    );
    println!();
    println!("speedup: {:.3}x", transfw.speedup_vs(&baseline));
}
