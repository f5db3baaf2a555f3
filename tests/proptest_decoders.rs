//! Never-panic property for every JSON decoder in the workspace.
//!
//! Documents are the committed ones (each `examples/campaigns/*.json`
//! spec and each `baselines/*.ledger.jsonl` line) and the writers' own
//! output for every document kind. Every prefix truncation of every
//! document, random single-byte flips of those documents and of a few
//! hostile inputs (deep nesting, out-of-range numbers), and random bytes
//! go through every decoder: each must return a value or a typed error,
//! never panic or overflow the stack.

use ccsim::campaign::{CampaignSpec, Ledger};
use ccsim::cca::CcaKind;
use ccsim::experiments::{scenario_from_json, scenario_to_json, FlowGroup, Scenario, Tuning};
use ccsim::fault::{FaultPlan, WatchdogConfig};
use ccsim::net::AqmKind;
use ccsim::prof::{EventCells, MemGauge, Profile, WheelProfile};
use ccsim::sim::json::Json;
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::telemetry::manifest::{ManifestBottleneck, ManifestTimeline, RunManifest};
use ccsim::topo::{Topology, TopologyKind};
use ccsim::trace::{
    read_jsonl, write_jsonl, CongestionKind, PhaseLabel, RunTrace, TraceMeta, TraceRecord,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// Prepended so a mutated entry line reaches `LedgerEntry` decoding.
const LEDGER_HEADER: &str = r#"{"ledger":"ccsim-ledger/1","campaign":"decoders"}"#;
/// Prepended so a mutated record line reaches trace record decoding.
const TRACE_HEADER: &str = r#"{"meta":{"scenario":"decoders","seed":1,"flows":2}}"#;

/// Feed `text` to every decoder, and use what decodes the way callers do.
fn decode_all(text: &str) {
    let _ = Json::parse(text);
    let _ = scenario_from_json(text);
    let _ = FaultPlan::from_json(text);
    let _ = Topology::from_json(text);
    if let Ok(spec) = CampaignSpec::from_json(text) {
        let _ = spec.jobs();
    }
    let _ = Ledger::from_text(text);
    let _ = Ledger::from_text(&format!("{LEDGER_HEADER}\n{text}"));
    let _ = RunManifest::from_json(text);
    if let Ok(profile) = Profile::from_json(text) {
        let _ = profile.to_folded();
    }
    let _ = read_jsonl(text.as_bytes());
    let _ = read_jsonl(format!("{TRACE_HEADER}\n{text}").as_bytes());
}

/// Raw bytes: the line readers see them as-is, the `&str` decoders see
/// their lossy UTF-8 form.
fn decode_bytes(bytes: &[u8]) {
    let _ = read_jsonl(bytes);
    decode_all(&String::from_utf8_lossy(bytes));
}

fn repo_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn files_in(dir: &str, suffix: &str) -> Vec<String> {
    let mut paths: Vec<_> = std::fs::read_dir(repo_path(dir))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

fn spec_texts() -> Vec<String> {
    files_in("examples/campaigns", ".json")
}

fn ledger_texts() -> Vec<String> {
    files_in("baselines", ".ledger.jsonl")
}

fn committed() -> Vec<String> {
    let mut out = spec_texts();
    for ledger in ledger_texts() {
        out.extend(ledger.lines().map(str::to_string));
    }
    out
}

fn plan() -> FaultPlan {
    FaultPlan::none()
        .blackout(SimTime::from_secs(2), SimDuration::from_millis(300))
        .set_bandwidth(SimTime::from_secs(3), Bandwidth::from_mbps(5))
        .set_extra_delay(SimTime::from_secs(4), SimDuration::from_millis(7))
        .iid_loss(SimTime::from_secs(5), 0.01)
        .burst_loss(SimTime::from_secs(6), 0.001, 0.25)
        .clear_loss(SimTime::from_secs(7))
        .reorder(SimTime::from_secs(8), 0.02, SimDuration::from_millis(3))
        .duplicate(SimTime::from_secs(9), 0.005)
}

fn scenario() -> Scenario {
    Scenario::edge_scale()
        .named("decoders \"quoted\" \\ ✓")
        .flows(vec![
            FlowGroup::new(CcaKind::Reno, 3, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Bbr, 2, SimDuration::from_micros(12_345)),
        ])
        .seed(u64::MAX - 7)
        .faulted(plan())
        .watched(WatchdogConfig::every_n(4))
        .topology(TopologyKind::ParkingLot(2))
        .aqm(AqmKind::Codel)
        .ecn(true)
        .tuned(Tuning {
            delack_segments: 2,
            tx_burst: 4,
        })
}

fn profile() -> Profile {
    Profile {
        events: EventCells {
            classes: vec!["link".into(), "sender".into()],
            kinds: vec!["data".into(), "ack".into()],
            stride: 1024,
            counts: vec![100, 0, 5, 40],
            nanos: vec![900, 0, 10, 300],
            samples: vec![9, 0, 1, 3],
        },
        wheel: WheelProfile {
            level_high_water: vec![10, 4, 0, 1],
            cascades: 12,
            cascaded_entries: 34,
            batch_hist: vec![50, 20, 3],
            cancels: 8,
            cancel_misses: 2,
            cancellable_scheduled: 15,
        },
        memory: vec![MemGauge {
            name: "tcp/senders".into(),
            bytes: 8192,
        }],
        dispatch_nanos: 2_000_000,
        flows: 4,
    }
}

fn manifest() -> RunManifest {
    RunManifest {
        scenario: "decoders \"quoted\"".into(),
        seed: u64::MAX,
        flows: 5,
        config_digest: "00000000deadbeef".into(),
        outcome_digest: "feedface00000000".into(),
        sim_secs: 10.0,
        wall_secs: 0.123_456_789,
        dispatch_secs: 0.1,
        sim_wall_ratio: 81.0,
        events_processed: 123_456,
        events_per_sec: 1.2e6,
        peak_queue_bytes: 100_000,
        peak_pending_events: 321,
        trace_bytes: 0,
        metric_bytes: 4096,
        metric_series: 12,
        converged: false,
        checkpoint_bytes: 2048,
        events_by_kind: vec![("data".into(), 60_000), ("ack".into(), 63_456)],
        bottlenecks: vec![ManifestBottleneck {
            link: 1,
            label: "hop \"1\"".into(),
            utilization: 0.9,
            jfi: None,
            loss_rate: 0.01,
            max_queue_bytes: 99_000,
            ce_marked_pkts: 7,
        }],
        profile: Some(profile()),
        timeline: Some(ManifestTimeline {
            window_secs: 1.0,
            rows: 10,
            retained: 8,
            evicted: 2,
            flows_sampled: 5,
            series: 40,
            alpha: 0.9,
            time_to_alpha_fair: Some(4.0),
            final_jfi: None,
        }),
    }
}

fn trace_jsonl() -> String {
    let t = SimTime::from_millis;
    let trace = RunTrace {
        meta: TraceMeta {
            scenario: "decoders \"quoted\"".into(),
            seed: 42,
            flows: 2,
        },
        records: vec![
            TraceRecord::cwnd(t(1), 0, 14_480, u64::MAX),
            TraceRecord::srtt(t(2), 0, SimDuration::from_micros(20_500)),
            TraceRecord::pacing(t(3), 1, 1_250_000),
            TraceRecord::phase(t(4), 1, PhaseLabel::new("probe_bw")),
            TraceRecord::congestion(t(5), 0, CongestionKind::FastRecovery),
            TraceRecord::queue_depth(t(6), 123_456, 83),
            TraceRecord::drop(t(7), 1, 99_000),
            TraceRecord::ecn_mark(t(8), 0, 64_000, 2),
            TraceRecord::hop_depth(t(9), 1, 32_000, 21),
        ],
        evicted: 3,
        thinned: 17,
    };
    let mut buf = Vec::new();
    write_jsonl(&trace, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn written() -> Vec<String> {
    let fig4 =
        std::fs::read_to_string(repo_path("examples/campaigns/fig4-intra-fairness.json")).unwrap();
    let m = manifest();
    // A blackout that never ends overflowed the plan's validation.
    let endless_blackout = scenario().faulted(
        FaultPlan::none().blackout(SimTime::from_secs(1), SimDuration::from_nanos(u64::MAX)),
    );
    vec![
        scenario_to_json(&scenario()),
        plan().to_json(),
        Topology::generate(
            TopologyKind::ParkingLot(2),
            Bandwidth::from_mbps(100),
            100_000,
            3,
        )
        .to_json(),
        CampaignSpec::from_json(&fig4).unwrap().to_json(),
        m.to_json(),
        m.to_json_inline(),
        profile().to_json(),
        trace_jsonl(),
        format!(
            r#"{{"name":"h","base":{}}}"#,
            scenario_to_json(&endless_blackout)
        ),
    ]
}

/// Inputs that panicked or overflowed the stack before the decoders
/// rejected them.
fn hostile() -> Vec<String> {
    let preset = |field: &str| {
        format!(
            r#"{{"name":"h","base":{{"preset":"edge","fidelity":"quick",
               "flows":[{{"cca":"reno","count":2,"rtt_ms":20}}],{field}}}}}"#
        )
    };
    vec![
        "[".repeat(50_000),
        "{\"k\":".repeat(10_000),
        preset(r#""jitter_s":-1.0"#),
        preset(r#""snapshot_ms":18446744073709551615"#),
        preset(r#""warmup_s":1e300"#),
        preset(r#""warmup_s":1e10,"duration_s":1e10"#),
        preset(r#""bw_mbps":18446744073709551615"#),
        preset(r#""tx_burst":4294967297"#),
        preset(r#""topology":"parking_lot:4294967295""#),
        preset(r#""convergence":false"#)
            .replace(r#""rtt_ms":20"#, r#""rtt_ms":18446744073709551615"#),
        preset(r#""convergence":false"#)
            .replace(r#""count":2"#, r#""count":4294967295"#)
            .replace(
                "}],",
                r#"},{"cca":"cubic","count":4294967295,"rtt_ms":20}],"#,
            ),
        profile()
            .to_json()
            .replacen("\"prof_counts\":[100,", "\"prof_counts\":[", 1),
    ]
}

fn documents() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let mut all = committed();
        all.extend(written());
        all
    })
}

/// What the flips mutate: the documents plus the hostile inputs.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mut all = documents().to_vec();
        all.extend(hostile());
        all
    })
}

#[test]
fn committed_and_written_seeds_decode_cleanly() {
    // The mutations below start from valid documents.
    for text in spec_texts() {
        let spec = CampaignSpec::from_json(&text).unwrap();
        assert!(!spec.jobs().unwrap().is_empty());
    }
    for text in ledger_texts() {
        let ledger = Ledger::from_text(&text).unwrap();
        assert!(!ledger.truncated && !ledger.entries.is_empty());
    }
    let w = written();
    scenario_from_json(&w[0]).unwrap();
    FaultPlan::from_json(&w[1]).unwrap();
    Topology::from_json(&w[2]).unwrap();
    CampaignSpec::from_json(&w[3]).unwrap().jobs().unwrap();
    assert_eq!(RunManifest::from_json(&w[4]).unwrap(), manifest());
    assert_eq!(RunManifest::from_json(&w[5]).unwrap(), manifest());
    assert_eq!(Profile::from_json(&w[6]).unwrap(), profile());
    assert_eq!(read_jsonl(w[7].as_bytes()).unwrap().records.len(), 9);
    CampaignSpec::from_json(&w[8]).unwrap().jobs().unwrap();
    // Each hostile input is rejected.
    for text in hostile() {
        decode_all(&text);
        let rejected = Json::parse(&text).is_err()
            || CampaignSpec::from_json(&text)
                .and_then(|s| s.jobs())
                .is_err()
                && Profile::from_json(&text).is_err();
        assert!(rejected, "accepted: {text}");
    }
}

#[test]
fn every_prefix_truncation_is_a_value_or_an_error() {
    for doc in documents() {
        for end in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            decode_all(&doc[..end]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn single_byte_flips_are_values_or_errors(
        which in 0usize..1 << 16,
        at in 0usize..1 << 20,
        byte in 0u8..=255,
    ) {
        let seed = seeds()[which % seeds().len()].as_bytes();
        let mut bytes = seed.to_vec();
        bytes[at % seed.len()] = byte;
        decode_bytes(&bytes);
    }

    #[test]
    fn random_bytes_are_values_or_errors(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        decode_bytes(&bytes);
    }

    /// Random strings over the JSON token alphabet get past the lexer far
    /// more often than uniform bytes do.
    #[test]
    fn random_json_tokens_are_values_or_errors(
        picks in prop::collection::vec(0usize..18, 0..256),
    ) {
        const TOKENS: [&str; 18] = [
            "{", "}", "[", "]", ":", ",", "\"", "\"a\"", "0", "-1", "1e400", "18446744073709551616",
            "0.5", "true", "null", "\\u0000", "\"actions\"", "\"flows\"",
        ];
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        decode_all(&text);
    }
}
