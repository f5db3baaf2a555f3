//! Whole-system determinism and seed-sensitivity: the reproducibility
//! guarantees everything else (EXPERIMENTS.md, regression baselines)
//! rests on.

use ccsim::cca::CcaKind;
use ccsim::experiments::{FlowGroup, Scenario};
use ccsim::sim::{Bandwidth, SimDuration};

fn scenario(seed: u64, cca: CcaKind) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("determinism")
        .flows(vec![FlowGroup::new(cca, 6, SimDuration::from_millis(20))])
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(25);
    s.buffer_bytes = 625_000;
    s.warmup = SimDuration::from_secs(2);
    s.duration = SimDuration::from_secs(6);
    s.start_jitter = SimDuration::from_millis(500);
    s.convergence = None;
    s
}

#[test]
fn identical_seeds_give_bit_identical_outcomes() {
    for cca in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr] {
        let a = Scenario::run(&scenario(11, cca));
        let b = Scenario::run(&scenario(11, cca));
        assert_eq!(a.events_processed, b.events_processed, "{cca}");
        assert_eq!(a.throughputs(), b.throughputs(), "{cca}");
        assert_eq!(a.aggregate_loss_rate, b.aggregate_loss_rate, "{cca}");
        assert_eq!(a.drop_burstiness, b.drop_burstiness, "{cca}");
        let ev_a: Vec<u64> = a.flows.iter().map(|f| f.congestion_events).collect();
        let ev_b: Vec<u64> = b.flows.iter().map(|f| f.congestion_events).collect();
        assert_eq!(ev_a, ev_b, "{cca}");
    }
}

#[test]
fn different_seeds_perturb_the_microstate() {
    let a = Scenario::run(&scenario(1, CcaKind::Reno));
    let b = Scenario::run(&scenario(2, CcaKind::Reno));
    // Different start jitter => different event interleavings.
    assert_ne!(a.events_processed, b.events_processed);
}

#[test]
fn physical_aggregates_are_seed_insensitive() {
    let outcomes: Vec<_> = (1..=4)
        .map(|seed| Scenario::run(&scenario(seed, CcaKind::Reno)))
        .collect();
    let utils: Vec<f64> = outcomes.iter().map(|o| o.utilization()).collect();
    let spread =
        utils.iter().cloned().fold(0.0f64, f64::max) - utils.iter().cloned().fold(1.0f64, f64::min);
    assert!(
        spread < 0.05,
        "utilization spread {spread} across seeds: {utils:?}"
    );
}
