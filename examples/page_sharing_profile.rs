//! Page-sharing analysis across the whole application suite: the
//! motivational study of §III (Figs. 3 and 7) as a runnable tool.
//!
//! For every Table III application this prints the access-weighted sharing
//! degree, the measured PFPKI, and where the L2-TLB-miss latency goes —
//! the data that motivates Trans-FW's short-circuiting design.
//!
//! ```sh
//! cargo run --release --example page_sharing_profile [SCALE]
//! ```

use transfw_sim::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);

    println!(
        "app     | shared by 1/2/3/4 GPUs (% accesses) | PFPKI  | fault share of L2-miss latency"
    );
    println!(
        "--------+-------------------------------------+--------+-------------------------------"
    );
    for spec in workloads::all_apps() {
        let app = spec.scaled(scale);
        let m = System::new(SystemConfig::baseline()).run(&app).unwrap();
        let deg = m.sharing.access_fraction_by_degree(4);
        let fault_share = sim_core::stats::ratio(m.breakdown.fault_total(), m.breakdown.total());
        println!(
            "{:7} |        {:>4.0} /{:>4.0} /{:>4.0} /{:>4.0}      | {:>6.2} | {:>5.1}%",
            app.name,
            deg[0] * 100.0,
            deg[1] * 100.0,
            deg[2] * 100.0,
            deg[3] * 100.0,
            m.pfpki(),
            fault_share * 100.0,
        );
    }
    println!();
    println!("High sharing degrees + high PFPKI mark the applications where");
    println!("translation forwarding pays off (compare Fig. 11 of the paper).");
}
