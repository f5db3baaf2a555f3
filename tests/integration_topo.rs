//! Whole-system tests of the topology subsystem: multi-bottleneck
//! shapes, AQM disciplines, and ECN, exercised through the public
//! scenario API exactly as the CLI and campaign layers drive it.
//!
//! The most important test here is the differential one: a
//! single-bottleneck drop-tail scenario now runs through the
//! `ccsim-topo` instantiation path and the `AqmQueue` seam, and must
//! produce byte-identical digests, Debug output, and JSON to what the
//! dedicated single-link wiring produced before the subsystem existed.

use ccsim::cca::CcaKind;
use ccsim::experiments::observe::scenario_digest;
use ccsim::experiments::{FlowGroup, Scenario};
use ccsim::net::AqmKind;
use ccsim::sim::{Bandwidth, SimDuration};
use ccsim::topo::TopologyKind;
use ccsim::trace::TraceConfig;

fn base(seed: u64) -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("topo")
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            6,
            SimDuration::from_millis(20),
        )])
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
fn single_bottleneck_droptail_is_byte_identical_to_the_legacy_wiring() {
    // The defaulted scenario and one with every topology knob set to its
    // explicit default must be indistinguishable end to end: same config
    // digest, same outcome digest, same rendered forms. This is the
    // pay-only-for-divergence contract that keeps every pre-topology
    // baseline ledger valid.
    let implicit = base(11);
    let explicit = base(11)
        .topology(TopologyKind::SingleBottleneck)
        .aqm(AqmKind::DropTail)
        .ecn(false);
    assert_eq!(scenario_digest(&implicit), scenario_digest(&explicit));
    assert_eq!(format!("{implicit:?}"), format!("{explicit:?}"));

    let a = Scenario::run(&implicit);
    let b = Scenario::run(&explicit);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_json(), b.to_json());

    // No topology artifacts leak into the legacy surfaces.
    let debug = format!("{implicit:?}");
    for key in ["topology", "aqm", "ecn"] {
        assert!(!debug.contains(key), "{key} leaked into Debug: {debug}");
    }
    assert!(!a.to_json().contains("bottlenecks"));
    assert!(a.bottlenecks.is_empty());
}

#[test]
fn dumbbell_outcomes_are_digest_deterministic_across_seeds() {
    for seed in [1, 7, 42] {
        let s = base(seed).topology(TopologyKind::Dumbbell);
        let a = Scenario::run(&s);
        let b = Scenario::run(&s);
        assert_eq!(a.digest(), b.digest(), "seed {seed}");
        assert_eq!(a.to_json(), b.to_json(), "seed {seed}");
        // The access link is 4x the bottleneck, so the dumbbell still
        // saturates the true bottleneck.
        let bn = a
            .bottlenecks
            .iter()
            .find(|b| b.label == "bottleneck")
            .expect("dumbbell reports its bottleneck link");
        assert!(bn.utilization > 0.8, "seed {seed}: {}", bn.utilization);
    }
    // Different seeds still perturb the microstate.
    let a = Scenario::run(&base(1).topology(TopologyKind::Dumbbell));
    let b = Scenario::run(&base(2).topology(TopologyKind::Dumbbell));
    assert_ne!(a.digest(), b.digest());
}

#[test]
fn parking_lot_reports_per_bottleneck_utilization_and_jfi() {
    let s = base(5).topology(TopologyKind::ParkingLot(3));
    let o = Scenario::run(&s);
    assert_eq!(o.bottlenecks.len(), 3, "one record per bottleneck link");
    for (i, b) in o.bottlenecks.iter().enumerate() {
        assert_eq!(b.link, i as u32);
        assert_eq!(b.label, format!("bn{i}"));
        assert!(
            b.utilization > 0.5 && b.utilization < 1.05,
            "link {i} utilization {}",
            b.utilization
        );
        // Flow 0 crosses every hop, the short flows one each: every
        // bottleneck carries at least two flows, so a subset JFI exists.
        let jfi = b.jfi.expect("per-bottleneck JFI present");
        assert!(jfi > 0.3 && jfi <= 1.0, "link {i} JFI {jfi}");
    }
    // The per-bottleneck records round-trip through the outcome JSON.
    assert!(o.to_json().contains("\"bottlenecks\":[{\"link\":0,"));
}

#[test]
fn red_desynchronizes_drops_relative_to_droptail() {
    // The classic AQM result the subsystem exists to reproduce (paper
    // §5: drop-tail tail-drop synchronizes loss events across flows;
    // RED's randomized early drops break the synchronization). Any one
    // seed is noisy, so compare the trace-derived loss-synchronization
    // index averaged over seeds — the runs are deterministic, so the
    // comparison is too.
    let traced = |aqm: AqmKind, seed: u64| {
        let mut s = Scenario::edge_scale()
            .named("topo-sync")
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                4,
                SimDuration::from_millis(40),
            )])
            .seed(seed)
            .aqm(aqm)
            .traced(TraceConfig::standard());
        s.bottleneck = Bandwidth::from_mbps(25);
        s.buffer_bytes = 250_000; // 2x BDP: tail drops hit a full queue
        s.warmup = SimDuration::from_secs(2);
        s.duration = SimDuration::from_secs(20);
        s.start_jitter = SimDuration::from_secs(1);
        s.convergence = None;
        s
    };
    let bin = SimDuration::from_millis(10);
    let mean_sync = |aqm: AqmKind| {
        let seeds = [1u64, 2, 3, 4, 5];
        let total: f64 = seeds
            .iter()
            .map(|&seed| {
                Scenario::run(&traced(aqm, seed))
                    .trace_synchronization_index(bin)
                    .expect("run has congestion events")
            })
            .sum();
        total / seeds.len() as f64
    };
    let sync_droptail = mean_sync(AqmKind::DropTail);
    let sync_red = mean_sync(AqmKind::Red);
    assert!(
        sync_red < sync_droptail,
        "RED should desynchronize: red {sync_red} vs droptail {sync_droptail}"
    );
}

#[test]
fn ecn_marks_replace_drops_under_codel() {
    let s = base(9).aqm(AqmKind::Codel).ecn(true);
    let o = Scenario::run(&s);
    let marks: u64 = o.bottlenecks.iter().map(|b| b.ce_marked_pkts).sum();
    assert!(marks > 0, "CoDel with ECN should CE-mark");
    let losses: f64 = o.bottlenecks.iter().map(|b| b.loss_rate).sum();
    assert!(
        losses < 0.001,
        "marking should displace drops, loss {losses}"
    );
    // ECN-capable senders still converge to a fair, saturated link.
    assert!(o.utilization() > 0.8, "utilization {}", o.utilization());
    assert!(o.jain_index().unwrap() > 0.8);
}
