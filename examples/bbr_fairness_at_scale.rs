//! The paper's headline surprise (Finding 5): BBR flows are fair to each
//! other at the edge but collapse to JFIs far below past work's 0.99 once
//! hundreds-to-thousands of flows share a fat pipe.
//!
//! This example sweeps all-BBR runs from 4 flows on EdgeScale up to a
//! scaled-down CoreScale population and prints the JFI trend. (The full
//! Figure 4 grid — 1000–5000 flows × three RTTs — is regenerated by
//! `cargo run --release -p ccsim-bench --bin fig4`.)
//!
//! ```sh
//! cargo run --release --example bbr_fairness_at_scale
//! ```

use ccsim::analysis::Summary;
use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, Scenario};
use ccsim::sim::SimDuration;

fn main() {
    let rtt = SimDuration::from_millis(20);

    println!("all-BBR intra-CCA fairness, 20 ms RTT\n");
    println!(
        "{:<11} {:>6} {:>8} {:>7} {:>7}",
        "setting", "flows", "JFI", "util", "loss"
    );

    for &count in &[4u32, 10, 30, 50] {
        let s = Scenario::edge_scale()
            .flows(vec![FlowGroup::new(CcaKind::Bbr, count, rtt)])
            .seed(1)
            .named("edge-bbr");
        report("EdgeScale", count, &s.run());
    }

    for &count in &[200u32, 500] {
        let mut s = Scenario::core_scale()
            .flows(vec![FlowGroup::new(CcaKind::Bbr, count, rtt)])
            .seed(1)
            .named("core-bbr");
        // Keep the example snappy: a shorter horizon than the bench grid.
        s.duration = SimDuration::from_secs(15);
        report("CoreScale", count, &s.run());
    }

    println!("\npast work reports JFI ~= 0.99 for BBR-only experiments with");
    println!("<= 10 flows; watch the index fall as the flow count grows.");
}

fn report(setting: &str, count: u32, outcome: &ccsim::experiments::RunOutcome) {
    let jfi = outcome.jain_index().unwrap_or(f64::NAN);
    println!(
        "{:<11} {:>6} {:>8.3} {:>6.1}% {:>6.2}%",
        setting,
        count,
        jfi,
        outcome.utilization() * 100.0,
        outcome.aggregate_loss_rate * 100.0
    );
    if let Some(s) = Summary::of(&outcome.throughputs()) {
        let spread = if s.median > 0.0 {
            s.max / s.median
        } else {
            f64::NAN
        };
        if spread > 3.0 {
            println!(
                "            └ luckiest flow gets {spread:.1}x the median ({:.2} vs {:.2} Mbps)",
                s.max * 8.0 / 1e6,
                s.median * 8.0 / 1e6
            );
        }
    }
}
