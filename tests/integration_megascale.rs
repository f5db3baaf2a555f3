//! Megascale flow-state overhaul: the digest-preservation contract and
//! the batching/slab machinery, end to end.
//!
//! The overhaul touched every hot layer (slab-backed flow state, pooled
//! snapshot buffers, wheel slot trimming, scoreboard deflation, batched
//! ACK/transmit paths), all of which must be byte-inert for every
//! pre-existing configuration. The differential tests here replay the
//! committed baseline ledgers' shapes (ci-smoke, topo-smoke,
//! perf-corescale) and compare digests, and run the slab attached vs
//! detached over a high-flow-count scenario.

use ccsim::campaign::{CampaignSpec, Ledger};
use ccsim::cca::CcaKind;
use ccsim::experiments::observe::scenario_digest;
use ccsim::experiments::{BuiltNetwork, FlowGroup, Scenario, Tuning};
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::tcp::sender::Sender;
use std::path::Path;

/// Replay a committed spec/ledger pair: every job's config digest must
/// match the baseline entry, and (for up to `rerun` jobs) so must the
/// outcome digest of a fresh run through today's tree.
fn replay_baseline(name: &str, rerun: usize) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec_text =
        std::fs::read_to_string(root.join(format!("examples/campaigns/{name}.json"))).unwrap();
    let spec = CampaignSpec::from_json(&spec_text).unwrap();
    let ledger = Ledger::load(&root.join(format!("baselines/{name}.ledger.jsonl"))).unwrap();
    let baseline = ledger.by_config();

    let jobs = spec.jobs().unwrap();
    assert_eq!(
        jobs.len(),
        ledger.entries.len(),
        "{name}: job count drifted"
    );
    for (i, job) in jobs.iter().enumerate() {
        let config = format!("{:016x}", scenario_digest(&job.scenario));
        let entry = baseline.get(config.as_str()).unwrap_or_else(|| {
            panic!(
                "{name}/{}: config digest {config} not in the baseline",
                job.name
            )
        });
        assert_eq!(entry.job, job.name);
        if i < rerun {
            let outcome = Scenario::run(&job.scenario);
            assert_eq!(
                format!("{:016x}", outcome.digest()),
                entry.outcome_digest.clone().unwrap(),
                "{name}/{}: outcome digest diverged from the committed baseline",
                job.name
            );
        }
    }
}

/// In release every baseline job is re-run; debug builds replay one job
/// per campaign (the full sweep is minutes of debug-mode simulation) and
/// still config-digest-check the rest.
fn rerun_budget(jobs: usize) -> usize {
    if cfg!(debug_assertions) {
        1
    } else {
        jobs
    }
}

#[test]
fn ci_smoke_baseline_digests_are_preserved() {
    replay_baseline("ci-smoke", rerun_budget(4));
}

#[test]
fn topo_smoke_baseline_digests_are_preserved() {
    replay_baseline("topo-smoke", rerun_budget(8));
}

#[test]
fn perf_corescale_baseline_digests_are_preserved() {
    // The CoreScale job is heavyweight even in release; config digests
    // are always checked, the outcome replay runs in release only.
    replay_baseline(
        "perf-corescale",
        rerun_budget(0).max(usize::from(!cfg!(debug_assertions))),
    );
}

/// A high-flow-count scenario kept cheap enough for debug CI: 10k flows
/// share 500 Mbps for a sub-second horizon, deep enough into the run
/// that every flow has started and the slab columns are hot.
fn dense_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::mega_scale()
        .named("slab-dense")
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 5_000, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Cubic, 5_000, SimDuration::from_millis(40)),
        ])
        .tuned(Tuning::default())
        .seed(seed);
    s.bottleneck = Bandwidth::from_mbps(500);
    s.buffer_bytes = 12_500_000;
    s.start_jitter = SimDuration::from_millis(300);
    s.warmup = SimDuration::from_millis(400);
    s.duration = SimDuration::from_millis(300);
    s.snapshot_interval = SimDuration::from_millis(100);
    s
}

#[test]
fn slab_attachment_is_event_inert_at_10k_flows() {
    // Same scenario, slab attached (the runner's configuration) vs
    // detached: the slab is derived state, so the event sequence, the
    // delivered column, and every sender's hot fields must be identical.
    let s = dense_scenario(5);
    let horizon = SimTime::ZERO + s.warmup + s.duration;

    let mut with = BuiltNetwork::try_build(&s).unwrap();
    let mut without = BuiltNetwork::try_build_detached(&s).unwrap();
    assert!(with.slab.is_some());
    assert!(without.slab.is_none());
    with.sim.try_run_until(horizon).unwrap();
    without.sim.try_run_until(horizon).unwrap();

    assert_eq!(with.sim.events_processed(), without.sim.events_processed());
    assert_eq!(with.per_flow_delivered(), without.per_flow_delivered());
    assert!(with.per_flow_delivered().iter().sum::<u64>() > 0);

    // The slab columns hold exactly what a component walk reads.
    let slab = with.slab.as_ref().unwrap().borrow();
    assert_eq!(slab.len(), with.flow_count());
    for (i, (&a, &b)) in with.senders.iter().zip(&without.senders).enumerate() {
        let sa = with.sim.component::<Sender>(a);
        let sb = without.sim.component::<Sender>(b);
        let (cwnd, inflight, srtt_nanos, retransmits) = slab.sender_row(i);
        assert_eq!(cwnd, sa.cca().cwnd(), "flow {i} cwnd");
        assert_eq!(cwnd, sb.cca().cwnd(), "flow {i} cwnd detached");
        assert_eq!(inflight, sa.in_flight(), "flow {i} inflight");
        assert_eq!(srtt_nanos, sa.srtt().as_nanos(), "flow {i} srtt");
        assert_eq!(retransmits, sa.stats().retransmits, "flow {i} retransmits");
        assert_eq!(sb.stats().retransmits, retransmits);
    }
}

#[test]
fn dense_runs_are_digest_deterministic() {
    let a = Scenario::run(&dense_scenario(9));
    let b = Scenario::run(&dense_scenario(9));
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn batching_coalesces_events_without_distorting_the_physics() {
    // The megascale knobs (delayed-ACK stride, link transmit batching)
    // legitimately change event counts — that is their purpose — so they
    // are scenario-gated. Against the same shape with legacy tuning, the
    // batched run must process strictly fewer events while delivering
    // the same aggregate within a few percent.
    let legacy = dense_scenario(3);
    let batched = dense_scenario(3).tuned(Tuning {
        delack_segments: 4,
        tx_burst: 8,
    });
    let a = Scenario::run(&legacy);
    let b = Scenario::run(&batched);
    assert!(
        b.events_processed < a.events_processed,
        "batched {} !< legacy {}",
        b.events_processed,
        a.events_processed
    );
    let (ta, tb) = (a.aggregate_throughput_mbps(), b.aggregate_throughput_mbps());
    assert!(
        (ta - tb).abs() / ta < 0.05,
        "batched throughput drifted: {ta} vs {tb} Mbps"
    );
}
