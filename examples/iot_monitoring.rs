//! IoT monitoring scenario from the paper's introduction (§1.2): a business
//! complex has already deployed simple radio devices; only a central monitor
//! knows their positions and transmission ranges. One gateway node must
//! broadcast **many consecutive firmware/configuration messages**, and must
//! know when each one has reached everyone before sending the next.
//!
//! The monitor assigns the 3-bit λ_ack labels once — building the session
//! constructs the labeling a single time — and afterwards the devices, which
//! have only a few bits of configuration memory and no topology knowledge,
//! repeatedly run the acknowledged broadcast B_ack: one `run_with` per
//! update against the same cached labeling and shared graph.
//!
//! ```text
//! cargo run --example iot_monitoring
//! ```

use radio_labeling::broadcast::session::{RunSpec, Scheme, Session};
use radio_labeling::graph::{algorithms, generators, Graph};

/// Builds the deployment: a warehouse floor modelled as a grid of shelving
/// aisles plus a few long-range links back to the gateway.
fn deployment() -> (Graph, usize) {
    let floor = generators::grid(6, 8);
    // The gateway sits at node 0; add a couple of long-range links the site
    // survey discovered (metal shelving creates odd propagation paths).
    let g = floor
        .with_extra_edges(&[(0, 21), (0, 37)])
        .expect("extra links are new");
    (g, 0)
}

fn main() {
    let (network, gateway) = deployment();
    println!(
        "deployment: {} devices, {} radio links, max degree {}, diameter {:?}",
        network.node_count(),
        network.edge_count(),
        network.max_degree(),
        algorithms::diameter(&network)
    );
    let n = network.node_count() as u64;

    // One-time labeling by the central monitor: build the session once.
    let session = Session::builder(Scheme::LambdaAck, network)
        .source(gateway)
        .build()
        .expect("deployment is connected");
    let labeling = session.labeling();
    let ack_initiator = session
        .graph()
        .nodes()
        .find(|&v| labeling.get(v).x3())
        .expect("lambda_ack marks one initiator");
    println!(
        "monitor assigned {}-bit labels ({} distinct values); acknowledgement initiator is device {}",
        labeling.length(),
        labeling.distinct_count(),
        ack_initiator
    );

    // The gateway pushes a sequence of configuration messages; each one is
    // only sent after the previous one was acknowledged. Every push reuses
    // the cached labeling — no per-update scheme reconstruction.
    let updates: Vec<u64> = (1..=5).map(|i| 0x1000 + i).collect();
    let mut total_rounds = 0u64;
    let mut last_report = None;
    for (i, &update) in updates.iter().enumerate() {
        let result = session
            .run_with(RunSpec::new(gateway, update))
            .expect("broadcast runs");
        let completion = result.completion_round.expect("B_ack informs every device");
        let ack = result.ack_round.expect("the gateway hears the ack");
        total_rounds += ack;
        println!(
            "update {:#06x} ({} of {}): every device informed by round {completion}, gateway \
             acknowledged at round {ack} ({} transmissions, largest message {} bits)",
            update,
            i + 1,
            updates.len(),
            result.stats.transmissions,
            result.stats.max_message_bits,
        );
        last_report = Some(result);
    }
    // The per-run paragraph an operator would log, via the report's Display.
    println!("\nlast update in short: {}", last_report.expect("ran"));
    println!(
        "\npushed {} updates in {} radio rounds total; per-update worst-case bound is 2n-3 + n-1 = {}",
        updates.len(),
        total_rounds,
        3 * n - 4
    );
}
