//! Scenario serialization: a hand-rolled, dependency-free JSON codec.
//!
//! Crash bundles must embed the *complete* scenario so a run can be
//! replayed from the bundle alone (`ccsim replay`). Like every wire format
//! in the workspace, the scenario document is written by hand and read
//! back with [`ccsim_sim::json`]'s recursive-descent parser. Numbers are
//! emitted in their exact integer form (nanoseconds, bits/sec, bytes), so
//! a decode–encode cycle is byte-identical and a replayed scenario is
//! bit-for-bit the one that crashed.

use crate::scenario::{ConvergenceRule, FlowGroup, Scenario, Tuning};
use ccsim_fault::{FaultPlan, WatchdogConfig};
use ccsim_net::AqmKind;
use ccsim_sim::json::{escape, json_f64, Json, JsonError};
use ccsim_sim::{Bandwidth, SimDuration};
use ccsim_topo::TopologyKind;
use ccsim_trace::{RetentionPolicy, TraceConfig};
use std::fmt::Write as _;

/// Serialize a scenario to a single-line JSON document.
pub fn scenario_to_json(s: &Scenario) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"bottleneck_bps\":{},\"buffer_bytes\":{},\"mss\":{}",
        escape(&s.name),
        s.bottleneck.as_bps(),
        s.buffer_bytes,
        s.mss
    );
    out.push_str(",\"flows\":[");
    for (i, g) in s.flows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cca\":\"{}\",\"count\":{},\"base_rtt_ns\":{}}}",
            g.cca.name(),
            g.count,
            g.base_rtt.as_nanos()
        );
    }
    let _ = write!(
        out,
        "],\"seed\":{},\"start_jitter_ns\":{},\"warmup_ns\":{},\"duration_ns\":{},\
         \"snapshot_interval_ns\":{}",
        s.seed,
        s.start_jitter.as_nanos(),
        s.warmup.as_nanos(),
        s.duration.as_nanos(),
        s.snapshot_interval.as_nanos()
    );
    match &s.convergence {
        None => out.push_str(",\"convergence\":null"),
        Some(c) => {
            let _ = write!(
                out,
                ",\"convergence\":{{\"window_snapshots\":{},\"tolerance\":{}}}",
                c.window_snapshots,
                json_f64(c.tolerance)
            );
        }
    }
    let policy = match s.trace.policy {
        RetentionPolicy::KeepAll => "keepall".to_string(),
        RetentionPolicy::Decimate(n) => format!("decimate:{n}"),
        RetentionPolicy::Reservoir(k) => format!("reservoir:{k}"),
    };
    let _ = write!(
        out,
        ",\"trace\":{{\"enabled\":{},\"policy\":\"{policy}\",\"max_bytes\":{},\
         \"queue_sample_every\":{}}}",
        s.trace.enabled, s.trace.max_bytes, s.trace.queue_sample_every
    );
    let _ = write!(out, ",\"fault\":{}", s.fault.to_json());
    let _ = write!(
        out,
        ",\"watchdog\":{{\"enabled\":{},\"every\":{}}}",
        s.watchdog.enabled, s.watchdog.every
    );
    // Topology / AQM / ECN: emitted only when non-default, so documents
    // written before these fields existed re-encode byte-identically.
    if s.topology != TopologyKind::SingleBottleneck {
        let _ = write!(out, ",\"topology\":\"{}\"", s.topology.as_str());
    }
    if s.aqm != AqmKind::DropTail {
        let _ = write!(out, ",\"aqm\":\"{}\"", s.aqm.as_str());
    }
    if s.ecn {
        out.push_str(",\"ecn\":true");
    }
    if !s.tuning.is_default() {
        let _ = write!(
            out,
            ",\"tuning\":{{\"delack_segments\":{},\"tx_burst\":{}}}",
            s.tuning.delack_segments, s.tuning.tx_burst
        );
    }
    out.push('}');
    out
}

fn bad(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, JsonError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer \"{key}\"")))
}

fn get_u32(doc: &Json, key: &str) -> Result<u32, JsonError> {
    u32::try_from(get_u64(doc, key)?).map_err(|_| bad(format!("\"{key}\" exceeds u32")))
}

fn get_duration(doc: &Json, key: &str) -> Result<SimDuration, JsonError> {
    Ok(SimDuration::from_nanos(get_u64(doc, key)?))
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, JsonError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing or non-string \"{key}\"")))
}

fn get_bool(doc: &Json, key: &str) -> Result<bool, JsonError> {
    doc.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| bad(format!("missing or non-boolean \"{key}\"")))
}

fn parse_policy(text: &str) -> Result<RetentionPolicy, JsonError> {
    if text == "keepall" {
        return Ok(RetentionPolicy::KeepAll);
    }
    if let Some(n) = text.strip_prefix("decimate:") {
        let n = n.parse().map_err(|_| bad("bad decimate stride"))?;
        return Ok(RetentionPolicy::Decimate(n));
    }
    if let Some(k) = text.strip_prefix("reservoir:") {
        let k = k.parse().map_err(|_| bad("bad reservoir size"))?;
        return Ok(RetentionPolicy::Reservoir(k));
    }
    Err(bad(format!("unknown retention policy \"{text}\"")))
}

/// Parse a document produced by [`scenario_to_json`].
pub fn scenario_from_json(text: &str) -> Result<Scenario, JsonError> {
    scenario_from_value(&Json::parse(text)?)
}

/// Decode a parsed scenario document (see [`scenario_from_json`]).
pub fn scenario_from_value(doc: &Json) -> Result<Scenario, JsonError> {
    let flows_json = doc
        .get("flows")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing \"flows\" array"))?;
    let mut flows = Vec::with_capacity(flows_json.len());
    for g in flows_json {
        let cca = get_str(g, "cca")?
            .parse()
            .map_err(|_| bad("unknown CCA kind"))?;
        flows.push(FlowGroup {
            cca,
            count: get_u32(g, "count")?,
            base_rtt: get_duration(g, "base_rtt_ns")?,
        });
    }

    let convergence = match doc.get("convergence") {
        None => return Err(bad("missing \"convergence\"")),
        Some(v) if v.is_null() => None,
        Some(v) => Some(ConvergenceRule {
            window_snapshots: get_u64(v, "window_snapshots")? as usize,
            tolerance: v
                .get("tolerance")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("missing convergence tolerance"))?,
        }),
    };

    let trace_json = doc.get("trace").ok_or_else(|| bad("missing \"trace\""))?;
    let trace = TraceConfig {
        enabled: get_bool(trace_json, "enabled")?,
        policy: parse_policy(get_str(trace_json, "policy")?)?,
        max_bytes: get_u64(trace_json, "max_bytes")?,
        queue_sample_every: get_u32(trace_json, "queue_sample_every")?,
    };

    let fault = match doc.get("fault") {
        Some(v) => FaultPlan::from_value(v)?,
        None => FaultPlan::none(),
    };

    let watchdog = match doc.get("watchdog") {
        Some(v) => WatchdogConfig {
            enabled: get_bool(v, "enabled")?,
            every: get_u32(v, "every")?,
        },
        None => WatchdogConfig::disabled(),
    };

    let topology = match doc.get("topology") {
        None => TopologyKind::SingleBottleneck,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| bad("non-string \"topology\""))?;
            TopologyKind::parse(name).map_err(|e| bad(e.to_string()))?
        }
    };
    let aqm = match doc.get("aqm") {
        None => AqmKind::DropTail,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| bad("non-string \"aqm\""))?;
            AqmKind::parse(name).ok_or_else(|| bad(format!("unknown AQM \"{name}\"")))?
        }
    };
    let ecn = match doc.get("ecn") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| bad("non-boolean \"ecn\""))?,
    };
    let tuning = match doc.get("tuning") {
        None => Tuning::default(),
        Some(v) => Tuning {
            delack_segments: get_u32(v, "delack_segments")?,
            tx_burst: get_u32(v, "tx_burst")?,
        },
    };

    Ok(Scenario {
        name: get_str(doc, "name")?.to_string(),
        bottleneck: Bandwidth::from_bps(get_u64(doc, "bottleneck_bps")?),
        buffer_bytes: get_u64(doc, "buffer_bytes")?,
        mss: get_u32(doc, "mss")?,
        flows,
        seed: get_u64(doc, "seed")?,
        start_jitter: get_duration(doc, "start_jitter_ns")?,
        warmup: get_duration(doc, "warmup_ns")?,
        duration: get_duration(doc, "duration_ns")?,
        snapshot_interval: get_duration(doc, "snapshot_interval_ns")?,
        convergence,
        trace,
        fault,
        watchdog,
        topology,
        aqm,
        ecn,
        tuning,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_cca::CcaKind;
    use ccsim_sim::SimTime;

    fn full_scenario() -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("codec \"quoted\" ✓")
            .flows(vec![
                FlowGroup::new(CcaKind::Reno, 3, SimDuration::from_millis(20)),
                FlowGroup::new(CcaKind::Bbr, 2, SimDuration::from_micros(12_345)),
            ])
            .seed(u64::MAX - 7)
            .faulted(
                FaultPlan::none()
                    .blackout(SimTime::from_secs(40), SimDuration::from_secs(2))
                    .iid_loss(SimTime::from_secs(60), 0.015),
            )
            .watched(WatchdogConfig::every_n(4));
        s.trace = TraceConfig {
            enabled: true,
            policy: RetentionPolicy::Reservoir(512),
            max_bytes: 1 << 20,
            queue_sample_every: 16,
        };
        s
    }

    #[test]
    fn round_trips_every_field() {
        let s = full_scenario();
        let json = scenario_to_json(&s);
        let back = scenario_from_json(&json).unwrap();
        // The Debug form covers every field at full precision.
        assert_eq!(format!("{s:?}"), format!("{back:?}"));
        // Decode → encode is byte-identical.
        assert_eq!(scenario_to_json(&back), json);
    }

    #[test]
    fn topology_fields_round_trip_and_stay_silent_at_defaults() {
        // Default: the three new keys are absent, so documents predating
        // them re-encode byte-identically.
        let s = full_scenario();
        let json = scenario_to_json(&s);
        assert!(!json.contains("\"topology\""));
        assert!(!json.contains("\"aqm\""));
        assert!(!json.contains("\"ecn\""));
        let back = scenario_from_json(&json).unwrap();
        assert_eq!(back.topology, TopologyKind::SingleBottleneck);
        assert_eq!(back.aqm, AqmKind::DropTail);
        assert!(!back.ecn);

        // Non-default: all three round-trip exactly.
        let s = full_scenario()
            .topology(TopologyKind::ParkingLot(3))
            .aqm(AqmKind::Codel)
            .ecn(true);
        let json = scenario_to_json(&s);
        assert!(json.contains("\"topology\":\"parking_lot:3\""));
        assert!(json.contains("\"aqm\":\"codel\""));
        assert!(json.contains("\"ecn\":true"));
        let back = scenario_from_json(&json).unwrap();
        assert_eq!(back.topology, TopologyKind::ParkingLot(3));
        assert_eq!(back.aqm, AqmKind::Codel);
        assert!(back.ecn);
        assert_eq!(scenario_to_json(&back), json);
    }

    #[test]
    fn tuning_round_trips_and_stays_silent_at_default() {
        // Default tuning emits no key, so pre-tuning documents re-encode
        // byte-identically.
        let s = full_scenario();
        let json = scenario_to_json(&s);
        assert!(!json.contains("\"tuning\""));
        let back = scenario_from_json(&json).unwrap();
        assert!(back.tuning.is_default());

        let s = full_scenario().tuned(Tuning {
            delack_segments: 4,
            tx_burst: 8,
        });
        let json = scenario_to_json(&s);
        assert!(json.contains("\"tuning\":{\"delack_segments\":4,\"tx_burst\":8}"));
        let back = scenario_from_json(&json).unwrap();
        assert_eq!(back.tuning, s.tuning);
        assert_eq!(scenario_to_json(&back), json);
    }

    #[test]
    fn big_seed_survives_exactly() {
        let s = full_scenario().seed((1 << 63) + 3);
        let back = scenario_from_json(&scenario_to_json(&s)).unwrap();
        assert_eq!(back.seed, (1 << 63) + 3);
    }

    #[test]
    fn null_convergence_round_trips() {
        let mut s = full_scenario();
        s.convergence = None;
        let back = scenario_from_json(&scenario_to_json(&s)).unwrap();
        assert_eq!(back.convergence, None);
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = scenario_from_json("{\"name\":\"x\"}").unwrap_err();
        assert!(err.message.contains("bottleneck_bps") || err.message.contains("flows"));
        assert!(scenario_from_json("not json").is_err());
    }

    #[test]
    fn policies_round_trip() {
        for policy in [
            RetentionPolicy::KeepAll,
            RetentionPolicy::Decimate(7),
            RetentionPolicy::Reservoir(33),
        ] {
            let mut s = full_scenario();
            s.trace.policy = policy;
            let back = scenario_from_json(&scenario_to_json(&s)).unwrap();
            assert_eq!(back.trace.policy, policy);
        }
    }
}
