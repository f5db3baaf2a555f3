//! Quickstart: simulate 10 NewReno flows on an EdgeScale (100 Mbps)
//! bottleneck and print per-flow throughput, fairness, and loss.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, Scenario};
use ccsim::sim::SimDuration;

fn main() {
    // 10 NewReno flows, 20 ms base RTT, on the paper's EdgeScale setting:
    // 100 Mbps bottleneck with a 3 MB drop-tail buffer.
    let scenario = Scenario::edge_scale()
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            10,
            SimDuration::from_millis(20),
        )])
        .seed(42)
        .named("quickstart");

    println!(
        "running: {} flows on {} (buffer {} MB)...",
        scenario.flow_count(),
        scenario.bottleneck,
        scenario.buffer_bytes / 1_000_000
    );
    let outcome = scenario.run();

    println!(
        "\nper-flow throughput (measured over {}):",
        outcome.measured_for
    );
    for f in &outcome.flows {
        println!(
            "  flow {:>2} [{}]: {:>7.2} Mbps  ({} congestion events, {} retransmits)",
            f.flow,
            f.cca,
            f.throughput_mbps(),
            f.congestion_events,
            f.retransmits
        );
    }
    println!(
        "\naggregate: {:.1} Mbps",
        outcome.aggregate_throughput_mbps()
    );
    println!("utilization: {:.1}%", outcome.utilization() * 100.0);
    println!(
        "Jain's fairness index: {:.4}",
        outcome.jain_index().unwrap()
    );
    println!(
        "queue loss rate: {:.3}%  (max backlog {:.2} MB)",
        outcome.aggregate_loss_rate * 100.0,
        outcome.max_queue_bytes as f64 / 1e6
    );
    println!(
        "simulated {} in {} engine events",
        outcome.ended_at, outcome.events_processed
    );
}
