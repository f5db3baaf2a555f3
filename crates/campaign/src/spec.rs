//! Campaign specifications: a scenario template × override axes × seeds.
//!
//! A [`CampaignSpec`] is the campaign layer's unit of configuration — the
//! simulator-side analogue of the paper's testbed orchestration scripts
//! (§3): one scenario template, a set of parameter axes to sweep, and a
//! seed list. Expansion is a plain cartesian product, so a spec with a
//! 3-value RTT axis, a 2-value CCA axis, and 2 seeds yields 12 jobs, each
//! a fully validated [`Scenario`] with a stable, human-readable name.
//!
//! Specs are JSON documents (hand-rolled on both sides against
//! `ccsim_sim::json`, like every wire format in the workspace) and
//! round-trip exactly: [`CampaignSpec::to_json`] → [`CampaignSpec::from_json`]
//! reproduces every field, including the embedded base scenario via
//! `ccsim_core::codec`. For hand-written specs the `base` object also
//! accepts a compact preset form (`{"preset": "edge", ...overrides}`) —
//! see [`CampaignSpec::from_json`].

use ccsim_cca::CcaKind;
use ccsim_core::{scenario_from_value, scenario_to_json, FlowGroup, Scenario};
use ccsim_net::AqmKind;
use ccsim_sim::json::{escape, json_f64, json_opt_f64, Json, JsonError};
use ccsim_sim::{Bandwidth, SimDuration};
use ccsim_topo::TopologyKind;
use std::fmt::Write as _;

/// A swept parameter: which scenario knob an axis overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisParam {
    /// Replace the CCA of every flow group (values: CCA names).
    Cca,
    /// Set the flow count of every group (values: u32 per group).
    FlowCount,
    /// Set the base RTT of every group (values: milliseconds).
    RttMs,
    /// Set the bottleneck bandwidth (values: Mbps).
    BwMbps,
    /// Set the drop-tail buffer (values: bytes).
    BufferBytes,
    /// Set the topology shape (values: [`TopologyKind`] names, e.g.
    /// "single", "dumbbell", "parking_lot:3").
    Topology,
    /// Set the default AQM discipline (values: [`AqmKind`] names).
    Aqm,
    /// Enable or disable ECN (values: "on"/"off" or "true"/"false").
    Ecn,
}

impl AxisParam {
    /// The spec-file name of this parameter.
    pub fn name(self) -> &'static str {
        match self {
            AxisParam::Cca => "cca",
            AxisParam::FlowCount => "flow_count",
            AxisParam::RttMs => "rtt_ms",
            AxisParam::BwMbps => "bw_mbps",
            AxisParam::BufferBytes => "buffer_bytes",
            AxisParam::Topology => "topology",
            AxisParam::Aqm => "aqm",
            AxisParam::Ecn => "ecn",
        }
    }

    fn parse(name: &str) -> Option<AxisParam> {
        Some(match name {
            "cca" => AxisParam::Cca,
            "flow_count" => AxisParam::FlowCount,
            "rtt_ms" => AxisParam::RttMs,
            "bw_mbps" => AxisParam::BwMbps,
            "buffer_bytes" => AxisParam::BufferBytes,
            "topology" => AxisParam::Topology,
            "aqm" => AxisParam::Aqm,
            "ecn" => AxisParam::Ecn,
            _ => return None,
        })
    }

    /// Apply one axis value to a scenario.
    fn apply(self, scenario: &mut Scenario, value: &str) -> Result<(), JsonError> {
        match self {
            AxisParam::Cca => {
                let cca: CcaKind = value
                    .parse()
                    .map_err(|_| bad(format!("axis cca: unknown CCA \"{value}\"")))?;
                for g in &mut scenario.flows {
                    g.cca = cca;
                }
            }
            AxisParam::FlowCount => {
                let count: u32 = value
                    .parse()
                    .map_err(|_| bad(format!("axis flow_count: bad count \"{value}\"")))?;
                for g in &mut scenario.flows {
                    g.count = count;
                }
            }
            AxisParam::RttMs => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| bad(format!("axis rtt_ms: bad value \"{value}\"")))?;
                let rtt = millis(ms, "axis rtt_ms")?;
                for g in &mut scenario.flows {
                    g.base_rtt = rtt;
                }
            }
            AxisParam::BwMbps => {
                let mbps: u64 = value
                    .parse()
                    .map_err(|_| bad(format!("axis bw_mbps: bad value \"{value}\"")))?;
                scenario.bottleneck = megabits(mbps, "axis bw_mbps")?;
            }
            AxisParam::BufferBytes => {
                scenario.buffer_bytes = value
                    .parse()
                    .map_err(|_| bad(format!("axis buffer_bytes: bad value \"{value}\"")))?;
            }
            AxisParam::Topology => {
                scenario.topology =
                    TopologyKind::parse(value).map_err(|e| bad(format!("axis topology: {e}")))?;
            }
            AxisParam::Aqm => {
                scenario.aqm = AqmKind::parse(value)
                    .ok_or_else(|| bad(format!("axis aqm: unknown discipline \"{value}\"")))?;
            }
            AxisParam::Ecn => {
                scenario.ecn = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    _ => return Err(bad(format!("axis ecn: bad value \"{value}\""))),
                };
            }
        }
        Ok(())
    }
}

/// One sweep axis: a parameter and the values it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    pub param: AxisParam,
    /// Values as strings (the JSON form; numbers keep their raw text).
    pub values: Vec<String>,
}

/// A fidelity expectation for a campaign metric, checked by the reporter
/// against the mean over all successful runs. `source` names the paper
/// artifact the range comes from (e.g. "Figure 4").
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Rollup metric name (see `Rollup::get`): "jfi", "utilization",
    /// "loss_rate", "mathis_err", "sync_index", "drop_burstiness",
    /// "share_a", "events_per_sec".
    pub metric: String,
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub source: String,
}

/// Drift tolerances the regression sentinel (`campaign diff`) applies
/// when comparing two ledgers of the same campaign. Stored in the ledger
/// header so a baseline carries its own thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Maximum absolute JFI drift between runs of the same config.
    pub jfi: f64,
    /// Maximum absolute Mathis median-error drift.
    pub mathis_err: f64,
    /// Maximum absolute synchronization-index drift.
    pub sync_index: f64,
    /// Maximum fractional events/sec regression (0.10 = 10% slower).
    pub events_per_sec_frac: f64,
    /// Maximum absolute time-to-α-fair drift, seconds of sim time
    /// (compared only when both ledgers carried timeline captures).
    pub convergence_secs: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            jfi: 0.05,
            mathis_err: 0.10,
            sync_index: 0.10,
            events_per_sec_frac: 0.10,
            convergence_secs: 1.0,
        }
    }
}

/// A complete campaign description. See the module docs.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (prefixes every job name and the ledger header).
    pub name: String,
    /// The scenario template every job starts from.
    pub base: Scenario,
    /// Sweep axes, expanded as a cartesian product in order.
    pub axes: Vec<Axis>,
    /// Master seeds; every axis combination runs once per seed.
    pub seeds: Vec<u64>,
    /// Fidelity expectations for the reporter.
    pub expectations: Vec<Expectation>,
    /// Sentinel tolerances for `campaign diff`.
    pub tolerances: Tolerances,
}

/// One expanded job: a named, validated scenario plus the axis values
/// that produced it.
#[derive(Debug, Clone)]
pub struct CampaignJob {
    /// Stable job name: `{campaign}/{param}={value}/.../seed={seed}`.
    pub name: String,
    /// The (param, value) pairs this job was expanded from.
    pub axis: Vec<(String, String)>,
    /// Master seed.
    pub seed: u64,
    /// The fully built scenario (named after the job, seeded).
    pub scenario: Scenario,
}

fn bad(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

/// `ms` milliseconds, or an error when that overflows the nanosecond clock.
fn millis(ms: u64, what: &str) -> Result<SimDuration, JsonError> {
    ms.checked_mul(1_000_000)
        .map(SimDuration::from_nanos)
        .ok_or_else(|| bad(format!("{what}: {ms} ms overflows the clock")))
}

/// `mbps` megabits per second, or an error when that overflows bits/s.
fn megabits(mbps: u64, what: &str) -> Result<Bandwidth, JsonError> {
    mbps.checked_mul(1_000_000)
        .map(Bandwidth::from_bps)
        .ok_or_else(|| bad(format!("{what}: {mbps} Mbps overflows bits/s")))
}

fn to_u32(n: u64, what: &str) -> Result<u32, JsonError> {
    u32::try_from(n).map_err(|_| bad(format!("{what}: {n} exceeds u32")))
}

/// The optional duration `key` in fractional seconds: finite, non-negative
/// and within the nanosecond clock, or an error.
fn seconds(v: &Json, key: &str) -> Result<Option<SimDuration>, JsonError> {
    match v.get(key).and_then(Json::as_f64) {
        None => Ok(None),
        Some(secs) if secs >= 0.0 && secs * 1e9 < u64::MAX as f64 => {
            Ok(Some(SimDuration::from_secs_f64(secs)))
        }
        Some(secs) => Err(bad(format!("\"{key}\": {secs} s is not a valid duration"))),
    }
}

impl CampaignSpec {
    /// Expand the spec into its full job list (cartesian product of axes
    /// × seeds), validating every resulting scenario.
    pub fn jobs(&self) -> Result<Vec<CampaignJob>, JsonError> {
        if self.seeds.is_empty() {
            return Err(bad("campaign has no seeds"));
        }
        let mut combos: Vec<Vec<(String, String)>> = vec![Vec::new()];
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(bad(format!("axis {} has no values", axis.param.name())));
            }
            let mut next = Vec::with_capacity(combos.len() * axis.values.len());
            for combo in &combos {
                for value in &axis.values {
                    let mut c = combo.clone();
                    c.push((axis.param.name().to_string(), value.clone()));
                    next.push(c);
                }
            }
            combos = next;
        }
        let mut jobs = Vec::with_capacity(combos.len() * self.seeds.len());
        for combo in &combos {
            for &seed in &self.seeds {
                let mut name = self.name.clone();
                let mut scenario = self.base.clone();
                for (param, value) in combo {
                    let _ = write!(name, "/{param}={value}");
                    AxisParam::parse(param)
                        .expect("combo params come from AxisParam::name")
                        .apply(&mut scenario, value)?;
                }
                let _ = write!(name, "/seed={seed}");
                scenario = scenario.named(name.clone()).seed(seed);
                scenario
                    .validate()
                    .map_err(|e| bad(format!("job {name}: invalid scenario: {e}")))?;
                jobs.push(CampaignJob {
                    name,
                    axis: combo.clone(),
                    seed,
                    scenario,
                });
            }
        }
        Ok(jobs)
    }

    /// Serialize to the canonical single-line JSON form (base scenario in
    /// its full `ccsim_core::codec` form). Round-trips through
    /// [`CampaignSpec::from_json`] exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"base\":{},\"axes\":[",
            escape(&self.name),
            scenario_to_json(&self.base)
        );
        for (i, axis) in self.axes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let values: Vec<String> = axis
                .values
                .iter()
                .map(|v| format!("\"{}\"", escape(v)))
                .collect();
            let _ = write!(
                out,
                "{{\"param\":\"{}\",\"values\":[{}]}}",
                axis.param.name(),
                values.join(",")
            );
        }
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = write!(out, "],\"seeds\":[{}],\"expectations\":[", seeds.join(","));
        for (i, e) in self.expectations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"metric\":\"{}\",\"min\":{},\"max\":{},\"source\":\"{}\"}}",
                escape(&e.metric),
                json_opt_f64(e.min),
                json_opt_f64(e.max),
                escape(&e.source)
            );
        }
        let t = &self.tolerances;
        let _ = write!(
            out,
            "],\"tolerances\":{{\"jfi\":{},\"mathis_err\":{},\"sync_index\":{},\
             \"events_per_sec_frac\":{},\"convergence_secs\":{}}}}}",
            json_f64(t.jfi),
            json_f64(t.mathis_err),
            json_f64(t.sync_index),
            json_f64(t.events_per_sec_frac),
            json_f64(t.convergence_secs)
        );
        out
    }

    /// Parse a spec document.
    ///
    /// The `base` object is either a full scenario document (recognized
    /// by its `bottleneck_bps` field — the `ccsim_core::codec` form) or
    /// the compact preset form for hand-written specs:
    ///
    /// ```json
    /// {
    ///   "preset": "edge",
    ///   "bw_mbps": 10, "buffer_bytes": 100000,
    ///   "flows": [{"cca": "reno", "count": 2, "rtt_ms": 20}],
    ///   "fidelity": "quick",
    ///   "warmup_s": 1.0, "duration_s": 4.0, "jitter_s": 0.1,
    ///   "convergence": false
    /// }
    /// ```
    pub fn from_json(text: &str) -> Result<CampaignSpec, JsonError> {
        let doc = Json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing campaign \"name\""))?
            .to_string();
        let base_json = doc.get("base").ok_or_else(|| bad("missing \"base\""))?;
        let base = if base_json.get("bottleneck_bps").is_some() {
            scenario_from_value(base_json)?
        } else {
            base_from_preset(base_json)?
        };

        let mut axes = Vec::new();
        if let Some(list) = doc.get("axes").and_then(Json::as_arr) {
            for a in list {
                let pname = a
                    .get("param")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("axis missing \"param\""))?;
                let param = AxisParam::parse(pname)
                    .ok_or_else(|| bad(format!("unknown axis param \"{pname}\"")))?;
                let values = a
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad(format!("axis {pname} missing \"values\"")))?
                    .iter()
                    .map(|v| match v {
                        Json::Str(s) => Ok(s.clone()),
                        Json::Num(raw) => Ok(raw.clone()),
                        _ => Err(bad(format!("axis {pname}: bad value"))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                axes.push(Axis { param, values });
            }
        }

        let seeds = match doc.get("seeds").and_then(Json::as_arr) {
            Some(list) => list
                .iter()
                .map(|v| v.as_u64().ok_or_else(|| bad("bad seed")))
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![base.seed],
        };

        let mut expectations = Vec::new();
        if let Some(list) = doc.get("expectations").and_then(Json::as_arr) {
            for e in list {
                expectations.push(Expectation {
                    metric: e
                        .get("metric")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("expectation missing \"metric\""))?
                        .to_string(),
                    min: e.get("min").and_then(Json::as_f64),
                    max: e.get("max").and_then(Json::as_f64),
                    source: e
                        .get("source")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                });
            }
        }

        let tolerances = parse_tolerances(doc.get("tolerances"));
        Ok(CampaignSpec {
            name,
            base,
            axes,
            seeds,
            expectations,
            tolerances,
        })
    }
}

/// Parse a tolerances object, falling back to defaults per field.
pub fn parse_tolerances(v: Option<&Json>) -> Tolerances {
    let d = Tolerances::default();
    let Some(v) = v else { return d };
    let get = |key: &str, fallback: f64| v.get(key).and_then(Json::as_f64).unwrap_or(fallback);
    Tolerances {
        jfi: get("jfi", d.jfi),
        mathis_err: get("mathis_err", d.mathis_err),
        sync_index: get("sync_index", d.sync_index),
        events_per_sec_frac: get("events_per_sec_frac", d.events_per_sec_frac),
        convergence_secs: get("convergence_secs", d.convergence_secs),
    }
}

fn base_from_preset(v: &Json) -> Result<Scenario, JsonError> {
    let mut s = match v.get("preset").and_then(Json::as_str).unwrap_or("edge") {
        "edge" => Scenario::edge_scale(),
        "core" => Scenario::core_scale(),
        "mega" => Scenario::mega_scale(),
        other => return Err(bad(format!("unknown preset \"{other}\""))),
    };
    if let Some(f) = v.get("fidelity").and_then(Json::as_str) {
        s = s.fidelity(match f {
            "quick" => ccsim_core::Fidelity::Quick,
            "standard" => ccsim_core::Fidelity::Standard,
            "paper" => ccsim_core::Fidelity::Paper,
            other => return Err(bad(format!("unknown fidelity \"{other}\""))),
        });
    }
    if let Some(mbps) = v.get("bw_mbps").and_then(Json::as_u64) {
        s.bottleneck = megabits(mbps, "bw_mbps")?;
    }
    if let Some(bytes) = v.get("buffer_bytes").and_then(Json::as_u64) {
        s.buffer_bytes = bytes;
    }
    if let Some(d) = seconds(v, "warmup_s")? {
        s.warmup = d;
    }
    if let Some(d) = seconds(v, "duration_s")? {
        s.duration = d;
    }
    if let Some(d) = seconds(v, "jitter_s")? {
        s.start_jitter = d;
    }
    if let Some(ms) = v.get("snapshot_ms").and_then(Json::as_u64) {
        s.snapshot_interval = millis(ms, "snapshot_ms")?;
    }
    if v.get("convergence").and_then(Json::as_bool) == Some(false) {
        s.convergence = None;
    }
    if let Some(n) = v.get("delack_segments").and_then(Json::as_u64) {
        s.tuning.delack_segments = to_u32(n, "delack_segments")?;
    }
    if let Some(n) = v.get("tx_burst").and_then(Json::as_u64) {
        s.tuning.tx_burst = to_u32(n, "tx_burst")?;
    }
    if let Some(name) = v.get("topology").and_then(Json::as_str) {
        s.topology = TopologyKind::parse(name).map_err(|e| bad(e.to_string()))?;
    }
    if let Some(name) = v.get("aqm").and_then(Json::as_str) {
        s.aqm = AqmKind::parse(name).ok_or_else(|| bad(format!("unknown aqm \"{name}\"")))?;
    }
    if let Some(on) = v.get("ecn").and_then(Json::as_bool) {
        s.ecn = on;
    }
    if let Some(groups) = v.get("flows").and_then(Json::as_arr) {
        let mut flows = Vec::with_capacity(groups.len());
        for g in groups {
            let cca: CcaKind = g
                .get("cca")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("flow group missing \"cca\""))?
                .parse()
                .map_err(|_| bad("unknown CCA in flow group"))?;
            let count = g
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("flow group missing \"count\""))?;
            let rtt_ms = g
                .get("rtt_ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("flow group missing \"rtt_ms\""))?;
            flows.push(FlowGroup::new(
                cca,
                to_u32(count, "flow group count")?,
                millis(rtt_ms, "flow group rtt_ms")?,
            ));
        }
        s = s.flows(flows);
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CampaignSpec {
        let mut base = Scenario::edge_scale()
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .fidelity(ccsim_core::Fidelity::Quick);
        base.bottleneck = Bandwidth::from_mbps(10);
        base.buffer_bytes = 100_000;
        CampaignSpec {
            name: "smoke".into(),
            base,
            axes: vec![
                Axis {
                    param: AxisParam::Cca,
                    values: vec!["reno".into(), "cubic".into()],
                },
                Axis {
                    param: AxisParam::RttMs,
                    values: vec!["20".into(), "100".into()],
                },
            ],
            seeds: vec![1, 2],
            expectations: vec![Expectation {
                metric: "jfi".into(),
                min: Some(0.8),
                max: None,
                source: "Figure 4".into(),
            }],
            tolerances: Tolerances::default(),
        }
    }

    #[test]
    fn expansion_is_the_cartesian_product() {
        let jobs = sample_spec().jobs().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2);
        // First job: first value of each axis, first seed; names are stable.
        assert_eq!(jobs[0].name, "smoke/cca=reno/rtt_ms=20/seed=1");
        assert_eq!(jobs[0].scenario.seed, 1);
        assert_eq!(jobs[0].scenario.flows[0].cca, CcaKind::Reno);
        let last = jobs.last().unwrap();
        assert_eq!(last.name, "smoke/cca=cubic/rtt_ms=100/seed=2");
        assert_eq!(last.scenario.flows[0].cca, CcaKind::Cubic);
        assert_eq!(
            last.scenario.flows[0].base_rtt,
            SimDuration::from_millis(100)
        );
        // All job names are unique.
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), jobs.len());
    }

    #[test]
    fn json_round_trips() {
        let spec = sample_spec();
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(format!("{spec:?}"), format!("{back:?}"));
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn preset_base_form_parses() {
        let doc = r#"{
            "name": "preset-test",
            "base": {
                "preset": "edge", "bw_mbps": 10, "buffer_bytes": 100000,
                "flows": [{"cca": "reno", "count": 2, "rtt_ms": 20}],
                "fidelity": "quick", "warmup_s": 1.0, "duration_s": 4.0,
                "jitter_s": 0.1, "convergence": false
            },
            "axes": [{"param": "cca", "values": ["reno", "cubic"]}],
            "seeds": [7]
        }"#;
        let spec = CampaignSpec::from_json(doc).unwrap();
        assert_eq!(spec.base.bottleneck, Bandwidth::from_mbps(10));
        assert_eq!(spec.base.duration, SimDuration::from_secs(4));
        assert_eq!(spec.base.convergence, None);
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].seed, 7);
    }

    #[test]
    fn mega_preset_parses_with_tuning_overrides() {
        let doc = r#"{
            "name": "mega-test",
            "base": {
                "preset": "mega",
                "flows": [{"cca": "reno", "count": 1000, "rtt_ms": 20}],
                "delack_segments": 8, "tx_burst": 16
            }
        }"#;
        let spec = CampaignSpec::from_json(doc).unwrap();
        assert_eq!(spec.base.bottleneck, Bandwidth::from_gbps(100));
        assert_eq!(spec.base.tuning.delack_segments, 8);
        assert_eq!(spec.base.tuning.tx_burst, 16);
        // The batching knobs survive the spec's own JSON round trip
        // (the base re-encodes through the scenario codec).
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.base.tuning, spec.base.tuning);
    }

    #[test]
    fn topology_aqm_and_ecn_axes_expand_onto_the_scenario() {
        let mut spec = sample_spec();
        spec.axes = vec![
            Axis {
                param: AxisParam::Topology,
                values: vec!["single".into(), "parking_lot:3".into()],
            },
            Axis {
                param: AxisParam::Aqm,
                values: vec!["droptail".into(), "codel".into()],
            },
            Axis {
                param: AxisParam::Ecn,
                values: vec!["off".into(), "on".into()],
            },
        ];
        spec.seeds = vec![1];
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2);
        let last = jobs.last().unwrap();
        assert_eq!(
            last.name,
            "smoke/topology=parking_lot:3/aqm=codel/ecn=on/seed=1"
        );
        assert_eq!(last.scenario.topology, TopologyKind::ParkingLot(3));
        assert_eq!(last.scenario.aqm, AqmKind::Codel);
        assert!(last.scenario.ecn);
        assert_eq!(jobs[0].scenario.topology, TopologyKind::SingleBottleneck);
        assert!(!jobs[0].scenario.ecn);
        // The names round-trip through the spec JSON form.
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.axes, spec.axes);
        // Bad values are rejected with the axis name.
        let err = AxisParam::Topology
            .apply(&mut spec.base.clone(), "torus")
            .unwrap_err();
        assert!(err.message.contains("topology"), "{err}");
    }

    #[test]
    fn invalid_jobs_are_rejected_with_their_name() {
        let mut spec = sample_spec();
        spec.axes.push(Axis {
            param: AxisParam::FlowCount,
            values: vec!["0".into()],
        });
        let err = spec.jobs().unwrap_err();
        assert!(err.message.contains("no flows"), "{err}");
        assert!(err.message.contains("flow_count=0"), "{err}");
    }

    /// A preset spec whose base carries `field` (raw JSON) on top of one
    /// valid flow group.
    fn preset_spec(field: &str) -> String {
        format!(
            r#"{{"name": "t", "base": {{"preset": "edge", "fidelity": "quick",
                "flows": [{{"cca": "reno", "count": 2, "rtt_ms": 20}}], {field}}}}}"#
        )
    }

    fn decode_error(field: &str) -> String {
        match CampaignSpec::from_json(&preset_spec(field)).and_then(|s| s.jobs()) {
            Ok(_) => panic!("{field} was accepted"),
            Err(e) => e.message,
        }
    }

    #[test]
    fn negative_jitter_is_a_typed_error() {
        assert!(decode_error(r#""jitter_s": -1.0"#).contains("jitter_s"));
    }

    #[test]
    fn snapshot_interval_overflow_is_a_typed_error() {
        let err = decode_error(r#""snapshot_ms": 18446744073709551615"#);
        assert!(err.contains("snapshot_ms"), "{err}");
    }

    #[test]
    fn unrepresentable_warmup_is_a_typed_error() {
        assert!(decode_error(r#""warmup_s": 1e300"#).contains("warmup_s"));
        // Each half fits the clock, but the horizon does not.
        let err = decode_error(r#""warmup_s": 1e10, "duration_s": 1e10"#);
        assert!(err.contains("overflows the simulation clock"), "{err}");
    }

    #[test]
    fn flow_counts_past_u32_are_typed_errors_not_truncations() {
        let doc =
            preset_spec(r#""convergence": false"#).replace("\"count\": 2", "\"count\": 4294967297");
        let err = CampaignSpec::from_json(&doc).unwrap_err();
        assert!(err.message.contains("count"), "{err}");
        for knob in ["delack_segments", "tx_burst"] {
            let err = decode_error(&format!(r#""{knob}": 4294967297"#));
            assert!(err.contains(knob), "{err}");
        }
    }

    #[test]
    fn overflowing_axis_values_are_typed_errors() {
        let mut spec = sample_spec();
        spec.axes = vec![Axis {
            param: AxisParam::BwMbps,
            values: vec!["18446744073709551615".into()],
        }];
        assert!(spec.jobs().unwrap_err().message.contains("bw_mbps"));
        spec.axes[0].param = AxisParam::RttMs;
        assert!(spec.jobs().unwrap_err().message.contains("rtt_ms"));
    }

    #[test]
    fn empty_seed_list_is_an_error() {
        let mut spec = sample_spec();
        spec.seeds.clear();
        assert!(spec.jobs().is_err());
    }
}
