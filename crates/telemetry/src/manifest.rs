//! Per-run provenance manifests.
//!
//! The paper's pipeline kept per-experiment bookkeeping across thousands
//! of runs (§3); CoCo-Beholder makes the same point for any CC evaluation
//! harness. The [`RunManifest`] is ccsim's version: one small JSON file
//! written next to a run's outputs that answers, months later, *what ran,
//! from which configuration, how fast, and what it produced* — without
//! re-opening multi-megabyte traces.
//!
//! The JSON is hand-rolled against `ccsim_sim::json`: [`RunManifest::to_json`]
//! writes it, [`RunManifest::from_value`] decodes a parsed document. `f64`
//! fields print with the shortest-round-trip form and parse back
//! bit-exact, so `to_json` → [`RunManifest::from_json`] is lossless
//! (asserted in tests and in CI's self-observability smoke job).

use ccsim_sim::json::{escape_into, json_f64, Json};
use std::io;

/// 64-bit FNV-1a hash — the workspace's canonical digest for scenario
/// configurations and run outcomes (stable across platforms, trivially
/// reimplementable by external tooling).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Per-bottleneck metrics embedded in the manifest. A manifest-local
/// mirror of `ccsim-core`'s `BottleneckMetrics` (this crate sits below
/// core in the dependency DAG, so it cannot name that type directly);
/// absent entirely for single-bottleneck legacy runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestBottleneck {
    /// Link index in the built topology.
    pub link: u32,
    /// Topology label for the link.
    pub label: String,
    /// Delivered-bytes utilization of the link's rate over the window.
    pub utilization: f64,
    /// Jain fairness across the flows crossing this link, when >1 flow.
    pub jfi: Option<f64>,
    /// Fraction of arrivals dropped at this link.
    pub loss_rate: f64,
    /// Peak queue occupancy, bytes.
    pub max_queue_bytes: u64,
    /// ECN CE marks applied at this link.
    pub ce_marked_pkts: u64,
}

/// Timeline capture summary embedded in the manifest — the sim-
/// deterministic facts about a run's windowed time-series capture. A
/// manifest-local mirror of `ccsim-timeline`'s `TimelineSummary` (same
/// layering rule as [`ManifestBottleneck`]); absent entirely for runs
/// that did not sample a timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestTimeline {
    /// Configured window width, seconds.
    pub window_secs: f64,
    /// Rows ever closed by the sampler.
    pub rows: u64,
    /// Rows still retained under the byte budget.
    pub retained: u64,
    /// Rows evicted to stay under budget.
    pub evicted: u64,
    /// Flows with per-flow series (aggregates always cover all flows).
    pub flows_sampled: u32,
    /// Total series columns captured.
    pub series: u32,
    /// α used for time-to-α-fair.
    pub alpha: f64,
    /// End time (seconds) of the first measurement window after which the
    /// JFI trajectory stayed ≥ α; `null`/`None` when the run never
    /// converged to α-fairness.
    pub time_to_alpha_fair: Option<f64>,
    /// JFI of the last retained window.
    pub final_jfi: Option<f64>,
}

/// Machine-readable provenance record for one simulator run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Scenario label.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Number of flows.
    pub flows: u32,
    /// FNV-1a digest (hex) of the full scenario configuration.
    pub config_digest: String,
    /// FNV-1a digest (hex) of the canonical `RunOutcome` export. Two runs
    /// with equal digests produced identical results — the metrics
    /// inertness check compares exactly this field.
    pub outcome_digest: String,
    /// Simulated seconds covered (warm-up + measurement).
    pub sim_secs: f64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Wall-clock seconds spent inside engine dispatch (`advance` calls)
    /// only — excludes build, warm-up bookkeeping, snapshot collection,
    /// and trace drain. `0.0` in legacy manifests that predate the field.
    pub dispatch_secs: f64,
    /// Sim-time / wall-time ratio (how much faster than real time).
    pub sim_wall_ratio: f64,
    /// Engine events processed.
    pub events_processed: u64,
    /// Engine events per *dispatch* second (events_processed /
    /// dispatch_secs): the engine's own throughput, not diluted by
    /// harness phases. Legacy manifests divided by total wall time.
    pub events_per_sec: f64,
    /// Peak bottleneck queue occupancy, bytes.
    pub peak_queue_bytes: u64,
    /// Peak pending events in the engine's queue.
    pub peak_pending_events: u64,
    /// Wire bytes of the recorded flight-recorder trace (0 when tracing
    /// was off).
    pub trace_bytes: u64,
    /// Bytes of the Prometheus metrics dump for this run.
    pub metric_bytes: u64,
    /// Number of metric series registered for this run.
    pub metric_series: u64,
    /// Whether the convergence rule stopped the run early.
    pub converged: bool,
    /// Encoded size of the checkpoint this run captured, bytes. Zero (and
    /// absent from the JSON) for runs that took no checkpoint, so legacy
    /// manifests re-serialize byte-identically.
    pub checkpoint_bytes: u64,
    /// Engine events by classified kind (`data`/`ack`/`timer`), in
    /// classifier order. Empty for unobserved or legacy runs; the key is
    /// then absent from the JSON so old manifests re-serialize
    /// byte-identically.
    pub events_by_kind: Vec<(String, u64)>,
    /// Per-bottleneck metrics for multi-bottleneck topologies. Empty (and
    /// absent from the JSON) for legacy single-bottleneck runs.
    pub bottlenecks: Vec<ManifestBottleneck>,
    /// Profiler output when the run was profiled (absent otherwise). The
    /// profile's own JSON is single-line and integers-only, so it embeds
    /// in both the pretty and inline manifest forms without float drift.
    pub profile: Option<ccsim_prof::Profile>,
    /// Timeline capture summary when the run sampled a windowed timeline
    /// (absent otherwise, so legacy manifests re-serialize byte-identically).
    pub timeline: Option<ManifestTimeline>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn missing(key: &str) -> io::Error {
    bad(format!("manifest missing/invalid \"{key}\""))
}

fn u64_field(v: &Json, key: &str) -> io::Result<u64> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| missing(key))
}

fn u32_field(v: &Json, key: &str) -> io::Result<u32> {
    u32::try_from(u64_field(v, key)?).map_err(|_| missing(key))
}

fn f64_field(v: &Json, key: &str) -> io::Result<f64> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| missing(key))
}

/// An optional float: absent or `null` is `None`.
fn opt_f64_field(v: &Json, key: &str) -> io::Result<Option<f64>> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n.as_f64().map(Some).ok_or_else(|| missing(key)),
    }
}

fn str_field(v: &Json, key: &str) -> io::Result<String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(key))
}

fn bool_field(v: &Json, key: &str) -> io::Result<bool> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| missing(key))
}

/// A structured section: absent or `null` is `None`.
fn section<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    v.get(key).filter(|s| !s.is_null())
}

impl RunManifest {
    /// Serialize to a single pretty-enough JSON object (one field per
    /// line, so diffs between runs read naturally).
    pub fn to_json(&self) -> String {
        let mut scenario = String::new();
        escape_into(&self.scenario, &mut scenario);
        let mut s = String::with_capacity(512);
        s.push_str("{\n");
        s.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"flows\": {},\n", self.flows));
        s.push_str(&format!(
            "  \"config_digest\": \"{}\",\n",
            self.config_digest
        ));
        s.push_str(&format!(
            "  \"outcome_digest\": \"{}\",\n",
            self.outcome_digest
        ));
        s.push_str(&format!("  \"sim_secs\": {},\n", json_f64(self.sim_secs)));
        s.push_str(&format!("  \"wall_secs\": {},\n", json_f64(self.wall_secs)));
        s.push_str(&format!(
            "  \"dispatch_secs\": {},\n",
            json_f64(self.dispatch_secs)
        ));
        s.push_str(&format!(
            "  \"sim_wall_ratio\": {},\n",
            json_f64(self.sim_wall_ratio)
        ));
        s.push_str(&format!(
            "  \"events_processed\": {},\n",
            self.events_processed
        ));
        s.push_str(&format!(
            "  \"events_per_sec\": {},\n",
            json_f64(self.events_per_sec)
        ));
        s.push_str(&format!(
            "  \"peak_queue_bytes\": {},\n",
            self.peak_queue_bytes
        ));
        s.push_str(&format!(
            "  \"peak_pending_events\": {},\n",
            self.peak_pending_events
        ));
        s.push_str(&format!("  \"trace_bytes\": {},\n", self.trace_bytes));
        s.push_str(&format!("  \"metric_bytes\": {},\n", self.metric_bytes));
        s.push_str(&format!("  \"metric_series\": {},\n", self.metric_series));
        s.push_str(&format!("  \"converged\": {}", self.converged));
        // Structured sections go last, each absent when empty so legacy
        // manifests (and their ledger lines) re-serialize byte-identically.
        if self.checkpoint_bytes > 0 {
            s.push_str(&format!(
                ",\n  \"checkpoint_bytes\": {}",
                self.checkpoint_bytes
            ));
        }
        if !self.events_by_kind.is_empty() {
            s.push_str(",\n  \"events_by_kind\": {");
            for (i, (kind, count)) in self.events_by_kind.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let mut k = String::new();
                escape_into(kind, &mut k);
                s.push_str(&format!("\"{k}\": {count}"));
            }
            s.push('}');
        }
        if !self.bottlenecks.is_empty() {
            s.push_str(",\n  \"bottlenecks\": [");
            for (i, b) in self.bottlenecks.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let mut label = String::new();
                escape_into(&b.label, &mut label);
                s.push_str(&format!(
                    "{{\"link\": {}, \"label\": \"{label}\", \"utilization\": {}, \
                     \"jfi\": {}, \"loss_rate\": {}, \"max_queue_bytes\": {}, \
                     \"ce_marked\": {}}}",
                    b.link,
                    json_f64(b.utilization),
                    match b.jfi {
                        Some(j) => json_f64(j),
                        None => "null".into(),
                    },
                    json_f64(b.loss_rate),
                    b.max_queue_bytes,
                    b.ce_marked_pkts,
                ));
            }
            s.push(']');
        }
        if let Some(p) = &self.profile {
            s.push_str(",\n  \"profile\": ");
            s.push_str(&p.to_json());
        }
        if let Some(t) = &self.timeline {
            s.push_str(&format!(
                ",\n  \"timeline\": {{\"window_secs\": {}, \"rows\": {}, \
                 \"retained\": {}, \"evicted\": {}, \"flows_sampled\": {}, \
                 \"series\": {}, \"alpha\": {}, \"time_to_alpha_fair\": {}, \
                 \"final_jfi\": {}}}",
                json_f64(t.window_secs),
                t.rows,
                t.retained,
                t.evicted,
                t.flows_sampled,
                t.series,
                json_f64(t.alpha),
                match t.time_to_alpha_fair {
                    Some(v) => json_f64(v),
                    None => "null".into(),
                },
                match t.final_jfi {
                    Some(v) => json_f64(v),
                    None => "null".into(),
                },
            ));
        }
        s.push_str("\n}");
        s
    }

    /// Single-line variant of [`RunManifest::to_json`], for embedding the
    /// manifest inside line-oriented formats (the campaign run ledger is
    /// one manifest-bearing JSON object per line). Parses back with
    /// [`RunManifest::from_json`] exactly like the pretty form.
    pub fn to_json_inline(&self) -> String {
        let mut out = String::with_capacity(512);
        for (i, line) in self.to_json().lines().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(line.trim_start());
        }
        out
    }

    /// Parse a manifest produced by [`RunManifest::to_json`] or
    /// [`RunManifest::to_json_inline`].
    pub fn from_json(json: &str) -> io::Result<RunManifest> {
        let doc = Json::parse(json).map_err(|e| bad(format!("manifest: {e}")))?;
        RunManifest::from_value(&doc)
    }

    /// Decode a parsed manifest object (field order is not required;
    /// unknown fields are ignored). The structured sections added after
    /// the format's first release — `events_by_kind`, `bottlenecks`,
    /// `profile`, `timeline`, and the `dispatch_secs` and
    /// `checkpoint_bytes` scalars — default to empty/zero when absent, so
    /// legacy manifests still parse.
    pub fn from_value(v: &Json) -> io::Result<RunManifest> {
        let events_by_kind = match section(v, "events_by_kind") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(kind, n)| Ok((kind.clone(), n.as_u64().ok_or_else(|| missing(kind))?)))
                .collect::<io::Result<_>>()?,
            Some(_) => return Err(missing("events_by_kind")),
            None => Vec::new(),
        };
        let bottlenecks = match section(v, "bottlenecks") {
            Some(list) => list
                .as_arr()
                .ok_or_else(|| missing("bottlenecks"))?
                .iter()
                .map(|b| {
                    Ok(ManifestBottleneck {
                        link: u32_field(b, "link")?,
                        label: str_field(b, "label")?,
                        utilization: f64_field(b, "utilization")?,
                        jfi: opt_f64_field(b, "jfi")?,
                        loss_rate: f64_field(b, "loss_rate")?,
                        max_queue_bytes: u64_field(b, "max_queue_bytes")?,
                        ce_marked_pkts: u64_field(b, "ce_marked")?,
                    })
                })
                .collect::<io::Result<_>>()?,
            None => Vec::new(),
        };
        let profile = match section(v, "profile") {
            Some(p) => Some(
                ccsim_prof::Profile::from_value(p)
                    .map_err(|e| bad(format!("bad embedded profile: {e}")))?,
            ),
            None => None,
        };
        let timeline = match section(v, "timeline") {
            Some(t) => Some(ManifestTimeline {
                window_secs: f64_field(t, "window_secs")?,
                rows: u64_field(t, "rows")?,
                retained: u64_field(t, "retained")?,
                evicted: u64_field(t, "evicted")?,
                flows_sampled: u32_field(t, "flows_sampled")?,
                series: u32_field(t, "series")?,
                alpha: f64_field(t, "alpha")?,
                time_to_alpha_fair: opt_f64_field(t, "time_to_alpha_fair")?,
                final_jfi: opt_f64_field(t, "final_jfi")?,
            }),
            None => None,
        };
        Ok(RunManifest {
            scenario: str_field(v, "scenario")?,
            seed: u64_field(v, "seed")?,
            flows: u32_field(v, "flows")?,
            config_digest: str_field(v, "config_digest")?,
            outcome_digest: str_field(v, "outcome_digest")?,
            sim_secs: f64_field(v, "sim_secs")?,
            wall_secs: f64_field(v, "wall_secs")?,
            dispatch_secs: f64_field(v, "dispatch_secs").unwrap_or(0.0),
            sim_wall_ratio: f64_field(v, "sim_wall_ratio")?,
            events_processed: u64_field(v, "events_processed")?,
            events_per_sec: f64_field(v, "events_per_sec")?,
            peak_queue_bytes: u64_field(v, "peak_queue_bytes")?,
            peak_pending_events: u64_field(v, "peak_pending_events")?,
            trace_bytes: u64_field(v, "trace_bytes")?,
            metric_bytes: u64_field(v, "metric_bytes")?,
            metric_series: u64_field(v, "metric_series")?,
            converged: bool_field(v, "converged")?,
            checkpoint_bytes: u64_field(v, "checkpoint_bytes").unwrap_or(0),
            events_by_kind,
            bottlenecks,
            profile,
            timeline,
        })
    }

    /// Engine events per dispatch second, split by classified kind: the
    /// quantity the campaign sentinel gates per-kind regressions on.
    /// Empty when the run recorded no kind counts or no dispatch time.
    pub fn eps_by_kind(&self) -> Vec<(String, f64)> {
        if self.dispatch_secs <= 0.0 {
            return Vec::new();
        }
        self.events_by_kind
            .iter()
            .map(|(kind, count)| {
                let eps = ccsim_sim::json::safe_rate(*count as f64, self.dispatch_secs);
                (kind.clone(), eps)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            scenario: "Core \"quoted\" \\ name".into(),
            seed: 42,
            flows: 1000,
            config_digest: format!("{:016x}", fnv1a_64(b"config")),
            outcome_digest: format!("{:016x}", fnv1a_64(b"outcome")),
            sim_secs: 160.0,
            wall_secs: 12.345678901234567,
            dispatch_secs: 10.5000000001,
            sim_wall_ratio: 12.960001,
            events_processed: 987_654_321,
            events_per_sec: 8.0000001e7,
            peak_queue_bytes: 250_000_000,
            peak_pending_events: 12_345,
            trace_bytes: 0,
            metric_bytes: 4096,
            metric_series: 23,
            converged: true,
            checkpoint_bytes: 0,
            events_by_kind: Vec::new(),
            bottlenecks: Vec::new(),
            profile: None,
            timeline: None,
        }
    }

    /// `sample()` with every structured section populated.
    fn sample_full() -> RunManifest {
        let mut m = sample();
        m.events_by_kind = vec![
            ("data".into(), 600_000_000),
            ("ack".into(), 300_000_000),
            ("timer".into(), 87_654_321),
        ];
        m.bottlenecks = vec![
            ManifestBottleneck {
                link: 0,
                label: "core \"bn\"".into(),
                utilization: 0.912345,
                jfi: Some(0.87654321),
                loss_rate: 0.00123,
                max_queue_bytes: 250_000,
                ce_marked_pkts: 0,
            },
            ManifestBottleneck {
                link: 3,
                label: "edge".into(),
                utilization: 0.5,
                jfi: None,
                loss_rate: 0.0,
                max_queue_bytes: 1_200,
                ce_marked_pkts: 42,
            },
        ];
        m.profile = Some(
            ccsim_prof::Profile::from_json(
                "{\"prof_classes\":[\"link\",\"sender\"],\"prof_kinds\":[\"data\",\"ack\"],\
             \"prof_stride\":1024,\"prof_counts\":[5,6,7,8],\"prof_nanos\":[1,2,3,4],\
             \"prof_samples\":[1,1,1,1],\"wheel_high_water\":[9,0,0,0,0,0,0,0,0],\
             \"wheel_cascades\":2,\"wheel_cascaded\":3,\
             \"wheel_batch_hist\":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"wheel_cancels\":4,\
             \"wheel_cancel_misses\":5,\"wheel_cancellable\":6,\
             \"mem_accounts\":[{\"pool\":\"tcp/senders\",\"pool_bytes\":4096}],\
             \"dispatch_nanos\":1000000,\"prof_flows\":2}",
            )
            .unwrap(),
        );
        m.timeline = Some(ManifestTimeline {
            window_secs: 2.0,
            rows: 80,
            retained: 64,
            evicted: 16,
            flows_sampled: 64,
            series: 326,
            alpha: 0.9,
            time_to_alpha_fair: Some(41.5000000003),
            final_jfi: Some(0.98765),
        });
        m
    }

    #[test]
    fn zero_dispatch_manifests_stay_finite_end_to_end() {
        // Regression: a zero-event (or sub-microsecond) run must never put
        // inf/NaN into the manifest, its eps split, or the rendered JSON.
        let mut m = sample_full();
        m.dispatch_secs = 0.0;
        m.wall_secs = 0.0;
        m.events_per_sec = ccsim_sim::json::safe_rate(m.events_processed as f64, 0.0);
        m.sim_wall_ratio = ccsim_sim::json::safe_rate(m.sim_secs, 0.0);
        assert_eq!(m.events_per_sec, 0.0);
        assert_eq!(m.sim_wall_ratio, 0.0);
        assert!(m.eps_by_kind().is_empty(), "no rate without a denominator");
        let json = m.to_json();
        // Field *names* legitimately contain "nanos"; only value-position
        // tokens (`:inf`, `:NaN`, ...) would mean a non-finite leaked out.
        for tok in [":inf", ":-inf", ":NaN", ":-NaN", ":nan"] {
            assert!(!json.contains(tok), "non-finite value in manifest JSON");
        }
        let back = RunManifest::from_json(&json).unwrap();
        assert_eq!(back.events_per_sec, 0.0);
        assert!(back.eps_by_kind().is_empty());
    }

    #[test]
    fn json_round_trips_bit_exact() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // Floats survive exactly (shortest-round-trip Display).
        assert_eq!(back.wall_secs.to_bits(), m.wall_secs.to_bits());
        assert_eq!(back.events_per_sec.to_bits(), m.events_per_sec.to_bits());
    }

    #[test]
    fn inline_form_is_one_line_and_round_trips() {
        let m = sample();
        let inline = m.to_json_inline();
        assert!(!inline.contains('\n'));
        assert_eq!(RunManifest::from_json(&inline).unwrap(), m);
    }

    #[test]
    fn structured_sections_are_absent_when_empty() {
        let json = sample().to_json();
        assert!(!json.contains("events_by_kind"));
        assert!(!json.contains("bottlenecks"));
        assert!(!json.contains("\"profile\""));
        assert!(!json.contains("\"timeline\""));
        // dispatch_secs is a scalar and always present.
        assert!(json.contains("\"dispatch_secs\""));
    }

    #[test]
    fn structured_sections_round_trip_in_both_forms() {
        let m = sample_full();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        let inline = m.to_json_inline();
        assert!(!inline.contains('\n'));
        assert_eq!(RunManifest::from_json(&inline).unwrap(), m);
        // Floats inside bottleneck records survive bit-exactly.
        assert_eq!(
            back.bottlenecks[0].utilization.to_bits(),
            m.bottlenecks[0].utilization.to_bits()
        );
    }

    #[test]
    fn legacy_manifests_without_new_fields_still_parse() {
        let mut m = sample_full();
        let json = m.to_json();
        // Strip the new sections and scalar the way a pre-profiler
        // manifest would simply not have them.
        let legacy: String = json
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                !(t.starts_with("\"dispatch_secs\"")
                    || t.starts_with("\"events_by_kind\"")
                    || t.starts_with("\"bottlenecks\"")
                    || t.starts_with("\"profile\"")
                    || t.starts_with("\"timeline\""))
            })
            .collect::<Vec<_>>()
            .join("\n");
        // `converged` is now the last field again; drop its trailing comma.
        let legacy = legacy.replace(
            &format!("\"converged\": {},", m.converged),
            &format!("\"converged\": {}", m.converged),
        );
        let back = RunManifest::from_json(&legacy).unwrap();
        m.dispatch_secs = 0.0;
        m.events_by_kind.clear();
        m.bottlenecks.clear();
        m.profile = None;
        m.timeline = None;
        assert_eq!(back, m);
    }

    #[test]
    fn unconverged_timeline_round_trips_its_nulls() {
        let mut m = sample();
        m.timeline = Some(ManifestTimeline {
            window_secs: 1.0,
            rows: 3,
            retained: 3,
            evicted: 0,
            flows_sampled: 2,
            series: 12,
            alpha: 0.95,
            time_to_alpha_fair: None,
            final_jfi: None,
        });
        let json = m.to_json();
        assert!(json.contains("\"time_to_alpha_fair\": null"));
        assert_eq!(RunManifest::from_json(&json).unwrap(), m);
        assert_eq!(RunManifest::from_json(&m.to_json_inline()).unwrap(), m);
    }

    #[test]
    fn eps_by_kind_divides_by_dispatch_time() {
        let mut m = sample_full();
        m.dispatch_secs = 2.0;
        m.events_by_kind = vec![("data".into(), 100), ("ack".into(), 50)];
        let eps = m.eps_by_kind();
        assert_eq!(eps[0], ("data".to_string(), 50.0));
        assert_eq!(eps[1], ("ack".to_string(), 25.0));
        m.dispatch_secs = 0.0;
        assert!(m.eps_by_kind().is_empty());
    }

    #[test]
    fn non_finite_floats_degrade_to_zero() {
        let mut m = sample();
        m.sim_wall_ratio = f64::INFINITY;
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.sim_wall_ratio, 0.0);
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(RunManifest::from_json("{}").is_err());
        assert!(RunManifest::from_json("{\"scenario\":\"x\"}").is_err());
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for the canonical 64-bit FNV-1a.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"));
    }
}
