//! Reproduce the paper's Mathis-model methodology (§4) end to end on one
//! scenario: run all-NewReno flows, then fit the Mathis constant `C` with
//! `p` interpreted as (a) the packet-loss rate at the queue and (b) the
//! CWND-halving rate from end-host state, and compare prediction errors.
//!
//! ```sh
//! cargo run --release --example mathis_model_check -- [flow_count]
//! ```

use ccsim::analysis::mathis::fit_constant;
use ccsim::analysis::median;
use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, PInterpretation, Scenario};
use ccsim::sim::SimDuration;

fn main() {
    let flow_count: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);

    let scenario = Scenario::edge_scale()
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            flow_count,
            SimDuration::from_millis(20),
        )])
        .seed(3)
        .named("mathis-check");

    println!(
        "running {flow_count} NewReno flows @ 20 ms on {}...\n",
        scenario.bottleneck
    );
    let outcome = scenario.run();

    let thr: Vec<f64> = outcome.throughputs();
    println!(
        "median measured throughput: {:.2} Mbps  (loss rate {:.3}%)",
        median(&thr).unwrap() * 8.0 / 1e6,
        outcome.aggregate_loss_rate * 100.0
    );
    if let Some(ratio) = outcome.loss_to_halving_ratio() {
        println!("packet-loss to CWND-halving ratio: {ratio:.2}");
    }
    if let Some(b) = outcome.drop_burstiness {
        println!("queue-drop burstiness (Goh–Barabási): {b:.2}");
    }
    println!();

    for (label, p) in [
        ("p = packet loss rate ", PInterpretation::PacketLoss),
        ("p = CWND halving rate", PInterpretation::CwndHalving),
    ] {
        let obs = outcome.mathis_observations(CcaKind::Reno, p);
        match fit_constant(&obs) {
            Some(fit) => println!(
                "{label}: best-fit C = {:.2}, median prediction error = {:.1}%  ({} flows usable)",
                fit.c,
                fit.median_error * 100.0,
                obs.len() - fit.skipped
            ),
            None => println!("{label}: no usable observations (no losses in window?)"),
        }
    }

    println!(
        "\nMathis 1997 derived C = 0.94 for NewReno with delayed + selective\n\
         ACKs; the paper's point is that at CoreScale only the halving-rate\n\
         interpretation keeps C stable and errors low (cf. `--bin table1`)."
    );
}
