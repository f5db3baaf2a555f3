//! Timeline-layer integration: digest-inertness of the windowed sampler
//! across the committed baseline campaigns, the live HTTP endpoint, and
//! the convergence-time plumbing into ledger entries.

use ccsim::campaign::{run_campaign, CampaignSpec, ExecutorOptions, LedgerEntry};
use ccsim::experiments::{serve, LiveState, ObserveOptions, TimelineConfig};
use ccsim::sim::json::Json;
use ccsim::sim::SimDuration;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Parse one of the committed baseline campaign specs.
fn baseline_spec(name: &str) -> CampaignSpec {
    let path = format!(
        "{}/examples/campaigns/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn run_first_job(spec: &CampaignSpec, timeline: Option<TimelineConfig>) -> LedgerEntry {
    let mut jobs = spec.jobs().expect("spec expands");
    jobs.truncate(1);
    let opts = ExecutorOptions {
        workers: 1,
        timeline,
        ..ExecutorOptions::default()
    };
    let results = run_campaign(jobs, &opts, |_| {});
    LedgerEntry::from_result(&results[0])
}

/// The sampler must never perturb the simulation: for each baseline
/// campaign shape, the first job's outcome digest is byte-identical with
/// the timeline on and off, while the timelined entry gains the manifest
/// section. The CI `timeline` job repeats this at full campaign scale in
/// release mode; here each shape is thinned (shorter horizon, CoreScale
/// also in flow count and rate) to keep single-core debug runtime sane.
#[test]
fn timeline_is_digest_inert_across_baseline_campaign_shapes() {
    use ccsim::sim::Bandwidth;
    for name in ["ci-smoke", "topo-smoke", "perf-corescale"] {
        let mut spec = baseline_spec(name);
        spec.base.warmup = SimDuration::from_secs(1);
        spec.base.duration = SimDuration::from_secs(5);
        spec.base.start_jitter = SimDuration::from_millis(200);
        if name == "perf-corescale" {
            spec.base.bottleneck = Bandwidth::from_mbps(400);
            spec.base.duration = SimDuration::from_secs(3);
            for g in &mut spec.base.flows {
                g.count = g.count.min(100);
            }
        }
        let plain = run_first_job(&spec, None);
        let timed = run_first_job(&spec, Some(TimelineConfig::default()));
        assert!(plain.ok(), "{name}: {:?}", plain.error);
        assert!(timed.ok(), "{name}: {:?}", timed.error);
        assert_eq!(plain.outcome_digest, timed.outcome_digest, "{name}");
        assert_eq!(plain.config_digest, timed.config_digest, "{name}");
        assert_eq!(plain.events_processed, timed.events_processed, "{name}");

        let plain_tl = plain.manifest.as_ref().and_then(|m| m.timeline.as_ref());
        let timed_tl = timed.manifest.as_ref().and_then(|m| m.timeline.as_ref());
        assert!(plain_tl.is_none(), "{name}: untimed run grew a timeline");
        let s = timed_tl.unwrap_or_else(|| panic!("{name}: no timeline summary"));
        assert!(s.rows > 0, "{name}: empty capture");
        assert!(s.flows_sampled > 0, "{name}");
        // convergence_time in the rollup mirrors the manifest summary.
        assert_eq!(
            timed.metrics.as_ref().unwrap().convergence_time,
            s.time_to_alpha_fair,
            "{name}"
        );
        assert_eq!(plain.metrics.as_ref().unwrap().convergence_time, None);
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect live endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("full response");
    (head.to_string(), body.to_string())
}

/// End-to-end over real sockets: a served run publishes the exposition
/// and the rolling timeline, and the final publish leaves the completed
/// run visible until shutdown.
#[test]
fn live_endpoint_serves_metrics_and_timeline_over_http() {
    use ccsim::cca::CcaKind;
    use ccsim::experiments::{run, FlowGroup, RunOptions, Scenario};
    use ccsim::sim::Bandwidth;

    let mut scenario = Scenario::edge_scale()
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            2,
            SimDuration::from_millis(20),
        )])
        .seed(5);
    scenario.bottleneck = Bandwidth::from_mbps(10);
    scenario.buffer_bytes = 100_000;
    scenario.warmup = SimDuration::from_secs(1);
    scenario.duration = SimDuration::from_secs(4);
    scenario.start_jitter = SimDuration::from_millis(100);
    scenario.convergence = None;

    let state = Arc::new(LiveState::new());
    let handle = serve(0, Arc::clone(&state)).expect("bind ephemeral port");
    let addr = handle.addr();

    let opts = RunOptions {
        observe: Some(ObserveOptions::timelined()),
        live: Some(Arc::clone(&state)),
        ..RunOptions::default()
    };
    let report = run(&scenario, opts).expect("run succeeds");

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert_eq!(
        Some(body),
        report.prometheus,
        "final publish shows the full run"
    );

    let (head, body) = http_get(addr, "/timeline.jsonl");
    assert!(head.contains("application/x-ndjson"), "{head}");
    assert!(body.starts_with("{\"timeline\":"), "{body}");
    let rows = report.timeline.as_ref().expect("timeline captured").rows();
    assert_eq!(body.lines().count() as u64, 1 + rows.len() as u64);

    assert!(state.hits() >= 2);
    handle.stop();
}

/// A timelined job's ledger line round-trips — including the
/// convergence_time metric and the embedded manifest timeline section —
/// while an untimed line never mentions either.
#[test]
fn timelined_ledger_entries_round_trip() {
    let mut spec = baseline_spec("ci-smoke");
    spec.base.duration = SimDuration::from_secs(6);
    spec.base.warmup = SimDuration::from_secs(1);

    let entry = run_first_job(&spec, Some(TimelineConfig::default()));
    assert!(entry.ok(), "{:?}", entry.error);
    let line = entry.to_json();
    assert!(line.contains("\"timeline\": {"), "{line}");

    let v = Json::parse(&line).expect("valid JSON line");
    let back = LedgerEntry::from_value(&v).expect("round-trip");
    assert_eq!(back, entry);

    let plain = run_first_job(&spec, None).to_json();
    assert!(!plain.contains("convergence_time"), "{plain}");
    assert!(!plain.contains("\"timeline\""), "{plain}");
}
