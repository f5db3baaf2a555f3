//! The paper's motivating story (§2): Netflix streams use NewReno, bulk
//! downloads use Cubic, YouTube uses BBR — what happens when they share a
//! congested link?
//!
//! Three head-to-head matchups on one EdgeScale bottleneck:
//!   1. equal Cubic vs NewReno        (paper: Cubic takes ~70-80%)
//!   2. one BBR vs many NewReno       (paper: BBR takes ~40% alone)
//!   3. equal BBR vs Cubic            (paper: BBR takes ~99%)
//!
//! ```sh
//! cargo run --release --example streaming_vs_downloads
//! ```

use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, RunOutcome, Scenario};
use ccsim::sim::SimDuration;

fn run(name: &str, flows: Vec<FlowGroup>) -> RunOutcome {
    let scenario = Scenario::edge_scale().flows(flows).seed(11).named(name);
    scenario.run()
}

fn main() {
    let rtt = SimDuration::from_millis(20);

    println!("matchup 1: 10 Cubic downloads vs 10 NewReno streams");
    let o = run(
        "cubic-vs-reno",
        vec![
            FlowGroup::new(CcaKind::Cubic, 10, rtt),
            FlowGroup::new(CcaKind::Reno, 10, rtt),
        ],
    );
    print_shares(&o, &[CcaKind::Cubic, CcaKind::Reno]);

    println!("\nmatchup 2: 1 BBR video vs 20 NewReno streams");
    let o = run(
        "bbr-vs-many-reno",
        vec![
            FlowGroup::new(CcaKind::Bbr, 1, rtt),
            FlowGroup::new(CcaKind::Reno, 20, rtt),
        ],
    );
    print_shares(&o, &[CcaKind::Bbr, CcaKind::Reno]);
    println!(
        "  (fair share for 1 of 21 flows would be {:.1}%)",
        100.0 / 21.0
    );

    println!("\nmatchup 3: 10 BBR vs 10 Cubic");
    let o = run(
        "bbr-vs-cubic",
        vec![
            FlowGroup::new(CcaKind::Bbr, 10, rtt),
            FlowGroup::new(CcaKind::Cubic, 10, rtt),
        ],
    );
    print_shares(&o, &[CcaKind::Bbr, CcaKind::Cubic]);

    println!(
        "\nthe paper shows all three patterns persist — and sharpen — with\n\
         thousands of flows on a 10 Gbps core link (Figures 5-8; regenerate\n\
         with `cargo run --release -p ccsim-bench --bin fig5` etc.)."
    );
}

fn print_shares(o: &RunOutcome, kinds: &[CcaKind]) {
    for &k in kinds {
        let share = o.share_of(k).unwrap_or(0.0);
        let count = o.count_of(k);
        println!(
            "  {:>5} x{:<3} -> {:>5.1}% of throughput ({:.1} Mbps total)",
            k.name(),
            count,
            share * 100.0,
            share * o.aggregate_throughput_mbps()
        );
    }
    println!("  utilization: {:.1}%", o.utilization() * 100.0);
}
