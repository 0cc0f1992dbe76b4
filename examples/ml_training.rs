//! Multi-GPU ML training under UVM (§V-J): VGG16 and ResNet18 in data
//! parallelism, comparing the baseline, Trans-FW, and Trans-FW combined
//! with read replication (weights are read-shared, so replication and
//! forwarding compose).
//!
//! ```sh
//! cargo run --release --example ml_training [SCALE]
//! ```

use transfw_sim::prelude::*;
use transfw_sim::uvm::PolicyKind;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    for model in [
        workloads::vgg16().scaled(scale),
        workloads::resnet18().scaled(scale),
    ] {
        println!("=== {} (data-parallel, 4 GPUs) ===", model.name);
        let base = System::new(SystemConfig::baseline()).run(&model).unwrap();
        let tfw = System::new(SystemConfig::with_transfw())
            .run(&model)
            .unwrap();
        let repl_cfg = SystemConfig {
            placement: PolicyKind::ReadDuplicate,
            ..SystemConfig::with_transfw()
        };
        let tfw_repl = System::new(repl_cfg).run(&model).unwrap();

        println!(
            "  baseline          : {:>12} cycles ({} faults)",
            base.total_cycles, base.local_faults
        );
        println!(
            "  Trans-FW          : {:>12} cycles ({:.3}x)",
            tfw.total_cycles,
            tfw.speedup_vs(&base)
        );
        println!(
            "  Trans-FW + replic.: {:>12} cycles ({:.3}x)",
            tfw_repl.total_cycles,
            tfw_repl.speedup_vs(&base)
        );
        let (r, w) = base.sharing.shared_rw();
        println!(
            "  shared-page traffic: {:.0}% reads / {:.0}% writes",
            100.0 * r as f64 / (r + w).max(1) as f64,
            100.0 * w as f64 / (r + w).max(1) as f64
        );
        println!();
    }
}
