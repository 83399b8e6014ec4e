//! Table I — cost-efficiency of the distributed system vs a centralized
//! system (CS): header search-space size and uploaded data volume for
//! N ∈ {10, 20, 30, 40} devices.
//!
//! Search space: the CS must search header *and* backbone jointly per
//! device in the cloud; ACME searches only the block-structured header
//! (Eq. 14) on each edge, after the backbone is fixed analytically by the
//! Pareto grid. Upload: the CS ships every device's raw training data;
//! ACME ships attribute statistics and importance sets (metered by the
//! actual protocol run).

use acme_bench::{f1, print_table, RunScale};
use acme_distsys::protocol::{centralized_transfers, ProtocolConfig, ProtocolRun};
use acme_distsys::LinkModel;
use acme_energy::Fleet;
use acme_nas::{search_space_size, OpKind};

fn main() {
    let scale = RunScale::from_args();
    let device_counts: Vec<usize> = scale.pick(vec![10, 20, 30, 40], vec![10, 20]);
    let devices_per_cluster = 5;

    // Search-space accounting. Per edge, ACME explores the B-block header
    // space; the CS explores header x backbone (width-depth grid) per
    // *device*, mirroring the paper's ~100x gap.
    let ops = OpKind::all().len();
    let header_space = search_space_size(2, ops); // B = 2 blocks per edge
    let backbone_grid = 4 * 24; // widths x depths the CS would sweep jointly
    let cs_per_device = header_space * backbone_grid as u128;

    // Transfer accounting at CIFAR scale: 500 images x 3072 B per device;
    // models of 1M parameters; importance sets of 4k floats over T = 3
    // rounds.
    let proto = ProtocolConfig {
        loop_rounds: 3,
        backbone_params: 1_000_000,
        header_params: 4_000,
        header_tokens: 8,
        importance_len: 4_000,
        ..ProtocolConfig::default()
    };

    let links = LinkModel::default();
    let mut rows = Vec::new();
    for &n in &device_counts {
        let clusters = n / devices_per_cluster;
        let fleet = Fleet::paper_default(clusters, devices_per_cluster);
        let acme = ProtocolRun::new(&fleet)
            .config(proto.clone())
            .execute()
            .expect("protocol run");
        let cs = centralized_transfers(&fleet, 500, 3072, proto.backbone_params);
        let ours_space = header_space * clusters as u128;
        let cs_space = cs_per_device * n as u128;
        rows.push(vec![
            n.to_string(),
            f1(cs_space as f64 / 1e3),
            f1(ours_space as f64 / 1e3),
            f1(cs.uplink_megabytes()),
            f1(acme.report.uplink_megabytes()),
            format!(
                "{:.1}%",
                100.0 * acme.report.uplink_bytes as f64 / cs.uplink_bytes as f64
            ),
            f1(links.sequential_seconds(&cs)),
            f1(links.sequential_seconds(&acme.report)),
        ]);
    }
    print_table(
        "Table I: cost-efficiency, CS vs ACME",
        &[
            "N",
            "CS space (10^3)",
            "Ours space (10^3)",
            "CS upload (MB)",
            "Ours upload (MB)",
            "upload ratio",
            "CS xfer (s)",
            "Ours xfer (s)",
        ],
        &rows,
    );
    println!("\npaper: search space reduced to ~1% of CS; upload reduced to ~6% of CS on average");
    println!(
        "ours:  search-space ratio {:.2}%, per-row upload ratios above",
        100.0 * (header_space as f64 / devices_per_cluster as f64) / cs_per_device as f64
    );
}
