//! The assembled per-run [`Profile`]: event attribution cells, scheduler
//! internals, and memory gauges, with JSON round-trip, folded-stack
//! flamegraph export, and a human-readable table.
//!
//! The JSON document is a single line of **integers only** (no floats),
//! so it survives every serialization path in the workspace bit-exactly:
//! the manifest's hand-rolled pretty printer, the ledger's JSONL
//! inlining, and a parse → [`Json::render`] → re-parse round trip. Key
//! names are prefixed `prof_` / `wheel_` / `pool` so they read
//! unambiguously inside a run manifest.

use ccsim_sim::json::{escape_into, Json};
use ccsim_sim::WheelStats;
use std::fmt::Write as _;

/// Event-attribution cells: exact counts and strided wall samples per
/// (component class × event kind), row-major `class × kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventCells {
    /// Component class names (row labels).
    pub classes: Vec<String>,
    /// Event kind names (column labels).
    pub kinds: Vec<String>,
    /// Sampling stride in events (one `Instant` per `stride` dispatches).
    pub stride: u64,
    /// Exact events dispatched per cell.
    pub counts: Vec<u64>,
    /// Sampled wall nanoseconds charged per cell (non-deterministic).
    pub nanos: Vec<u64>,
    /// Samples charged per cell (deterministic given the event stream).
    pub samples: Vec<u64>,
}

impl EventCells {
    /// The cell index for (class, kind).
    fn cell(&self, class: usize, kind: usize) -> usize {
        class * self.kinds.len() + kind
    }

    /// Exact event count of one cell.
    pub fn count(&self, class: usize, kind: usize) -> u64 {
        self.counts[self.cell(class, kind)]
    }

    /// Total events across all cells (saturating: a decoded profile may
    /// carry any counts).
    pub fn total(&self) -> u64 {
        saturating_sum(self.counts.iter().copied())
    }

    /// Event counts per kind, summed over classes, in kind order.
    pub fn per_kind_counts(&self) -> Vec<(String, u64)> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let n = saturating_sum((0..self.classes.len()).map(|c| self.count(c, k)));
                (name.clone(), n)
            })
            .collect()
    }

    /// Sampled nanoseconds per class, summed over kinds, in class order.
    pub fn per_class_nanos(&self) -> Vec<(String, u64)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let n = saturating_sum((0..self.kinds.len()).map(|k| self.nanos[self.cell(c, k)]));
                (name.clone(), n)
            })
            .collect()
    }
}

/// Owned, serializable mirror of the engine's [`WheelStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WheelProfile {
    /// Per-level occupancy high-water marks.
    pub level_high_water: Vec<u64>,
    /// Higher-level slot drains (entries re-routed downward).
    pub cascades: u64,
    /// Live entries moved by those cascades.
    pub cascaded_entries: u64,
    /// log2 histogram of same-timestamp dispatch batch sizes.
    pub batch_hist: Vec<u64>,
    /// Cancellations that hit a live event.
    pub cancels: u64,
    /// Cancel calls on stale tokens.
    pub cancel_misses: u64,
    /// Events scheduled cancellable (rearmable timers).
    pub cancellable_scheduled: u64,
}

impl From<&WheelStats> for WheelProfile {
    fn from(s: &WheelStats) -> WheelProfile {
        WheelProfile {
            level_high_water: s.level_high_water.to_vec(),
            cascades: s.cascades,
            cascaded_entries: s.cascaded_entries,
            batch_hist: s.batch_hist.to_vec(),
            cancels: s.cancels,
            cancel_misses: s.cancel_misses,
            cancellable_scheduled: s.cancellable_scheduled,
        }
    }
}

/// One named memory gauge, as snapshotted from [`crate::MemAccounts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemGauge {
    /// Pool name (`subsystem/pool`).
    pub name: String,
    /// Bytes held.
    pub bytes: u64,
}

/// The complete per-run profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Event attribution cells.
    pub events: EventCells,
    /// Timer-wheel scheduler counters.
    pub wheel: WheelProfile,
    /// Subsystem memory gauges, sorted by name.
    pub memory: Vec<MemGauge>,
    /// Engine dispatch wall time for the whole run, nanoseconds
    /// (non-deterministic; the denominator of per-kind events/s).
    pub dispatch_nanos: u64,
    /// Flow count (the denominator of memory-per-flow).
    pub flows: u32,
}

impl Profile {
    /// Per-kind events per second of engine dispatch time. Empty when no
    /// dispatch time was recorded.
    pub fn per_kind_events_per_sec(&self) -> Vec<(String, f64)> {
        if self.dispatch_nanos == 0 {
            return Vec::new();
        }
        let secs = self.dispatch_nanos as f64 / 1e9;
        self.events
            .per_kind_counts()
            .into_iter()
            .map(|(k, n)| (k, ccsim_sim::json::safe_rate(n as f64, secs)))
            .collect()
    }

    /// Total accounted bytes across all memory gauges.
    pub fn memory_total_bytes(&self) -> u64 {
        saturating_sum(self.memory.iter().map(|g| g.bytes))
    }

    /// Accounted bytes per flow (`None` with zero flows).
    pub fn memory_per_flow(&self) -> Option<f64> {
        if self.flows == 0 {
            None
        } else {
            Some(self.memory_total_bytes() as f64 / self.flows as f64)
        }
    }

    /// A copy with every wall-clock nanosecond zeroed. Two same-seed runs
    /// produce byte-identical `normalized().to_json()` output — the
    /// profiler-determinism contract tested in `tests/integration_prof.rs`.
    pub fn normalized(&self) -> Profile {
        let mut p = self.clone();
        p.events.nanos.iter_mut().for_each(|n| *n = 0);
        p.dispatch_nanos = 0;
        p
    }

    /// Single-line JSON document (integers only; see module docs).
    pub fn to_json(&self) -> String {
        fn str_arr(out: &mut String, items: &[String]) {
            out.push('[');
            for (i, s) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            out.push(']');
        }
        fn u64_arr(out: &mut String, items: &[u64]) {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        let mut out = String::with_capacity(512);
        out.push_str("{\"prof_classes\":");
        str_arr(&mut out, &self.events.classes);
        out.push_str(",\"prof_kinds\":");
        str_arr(&mut out, &self.events.kinds);
        let _ = write!(out, ",\"prof_stride\":{}", self.events.stride);
        out.push_str(",\"prof_counts\":");
        u64_arr(&mut out, &self.events.counts);
        out.push_str(",\"prof_nanos\":");
        u64_arr(&mut out, &self.events.nanos);
        out.push_str(",\"prof_samples\":");
        u64_arr(&mut out, &self.events.samples);
        out.push_str(",\"wheel_high_water\":");
        u64_arr(&mut out, &self.wheel.level_high_water);
        let _ = write!(
            out,
            ",\"wheel_cascades\":{},\"wheel_cascaded\":{}",
            self.wheel.cascades, self.wheel.cascaded_entries
        );
        out.push_str(",\"wheel_batch_hist\":");
        u64_arr(&mut out, &self.wheel.batch_hist);
        let _ = write!(
            out,
            ",\"wheel_cancels\":{},\"wheel_cancel_misses\":{},\"wheel_cancellable\":{}",
            self.wheel.cancels, self.wheel.cancel_misses, self.wheel.cancellable_scheduled
        );
        out.push_str(",\"mem_accounts\":[");
        for (i, g) in self.memory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"pool\":\"");
            escape_into(&g.name, &mut out);
            let _ = write!(out, "\",\"pool_bytes\":{}}}", g.bytes);
        }
        let _ = write!(
            out,
            "],\"dispatch_nanos\":{},\"prof_flows\":{}}}",
            self.dispatch_nanos, self.flows
        );
        out
    }

    /// Parse a document produced by [`Profile::to_json`] (or the same
    /// object re-rendered through [`Json::render`]).
    pub fn from_json(text: &str) -> Result<Profile, String> {
        let v = Json::parse(text).map_err(|e| format!("profile: {e:?}"))?;
        Profile::from_value(&v)
    }

    /// Parse from an already-parsed JSON object.
    pub fn from_value(v: &Json) -> Result<Profile, String> {
        fn u64s(v: &Json, key: &str) -> Result<Vec<u64>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("profile: missing array {key}"))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("profile: {key}: not a u64"))
                })
                .collect()
        }
        fn strs(v: &Json, key: &str) -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("profile: missing array {key}"))?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("profile: {key}: not a string"))
                })
                .collect()
        }
        fn u64f(v: &Json, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("profile: missing field {key}"))
        }
        let memory = v
            .get("mem_accounts")
            .and_then(Json::as_arr)
            .ok_or("profile: missing array mem_accounts")?
            .iter()
            .map(|g| {
                Ok(MemGauge {
                    name: g
                        .get("pool")
                        .and_then(Json::as_str)
                        .ok_or("profile: mem account without pool")?
                        .to_string(),
                    bytes: u64f(g, "pool_bytes")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let events = EventCells {
            classes: strs(v, "prof_classes")?,
            kinds: strs(v, "prof_kinds")?,
            stride: u64f(v, "prof_stride")?,
            counts: u64s(v, "prof_counts")?,
            nanos: u64s(v, "prof_nanos")?,
            samples: u64s(v, "prof_samples")?,
        };
        // Every cell accessor indexes `class * kinds + kind`.
        let cells = events.classes.len().checked_mul(events.kinds.len());
        for (key, len) in [
            ("prof_counts", events.counts.len()),
            ("prof_nanos", events.nanos.len()),
            ("prof_samples", events.samples.len()),
        ] {
            if Some(len) != cells {
                return Err(format!(
                    "profile: {key} has {len} cells, not classes x kinds"
                ));
            }
        }
        Ok(Profile {
            events,
            wheel: WheelProfile {
                level_high_water: u64s(v, "wheel_high_water")?,
                cascades: u64f(v, "wheel_cascades")?,
                cascaded_entries: u64f(v, "wheel_cascaded")?,
                batch_hist: u64s(v, "wheel_batch_hist")?,
                cancels: u64f(v, "wheel_cancels")?,
                cancel_misses: u64f(v, "wheel_cancel_misses")?,
                cancellable_scheduled: u64f(v, "wheel_cancellable")?,
            },
            memory,
            dispatch_nanos: u64f(v, "dispatch_nanos")?,
            flows: u32::try_from(u64f(v, "prof_flows")?)
                .map_err(|_| "profile: prof_flows exceeds u32".to_string())?,
        })
    }

    /// Folded-stack export for flamegraph tooling: one
    /// `ccsim;<class>;<kind> <weight>` line per nonzero cell. Weights are
    /// sampled nanoseconds when any were collected, otherwise exact event
    /// counts (so a zero-duration smoke run still renders).
    pub fn to_folded(&self) -> String {
        let use_nanos = self.events.nanos.iter().any(|&n| n > 0);
        let mut out = String::new();
        for (c, class) in self.events.classes.iter().enumerate() {
            for (k, kind) in self.events.kinds.iter().enumerate() {
                let cell = c * self.events.kinds.len() + k;
                let w = if use_nanos {
                    self.events.nanos[cell]
                } else {
                    self.events.counts[cell]
                };
                if w > 0 {
                    let _ = writeln!(out, "ccsim;{class};{kind} {w}");
                }
            }
        }
        out
    }

    /// Human-readable summary: the attribution matrix, the scheduler
    /// counters, and the memory accounts (the `ccsim perf` output).
    pub fn render_table(&self) -> String {
        let mut out = String::with_capacity(1024);
        let total_events = self.events.total().max(1);
        let total_nanos = saturating_sum(self.events.nanos.iter().copied());
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>14} {:>8} {:>12} {:>8}",
            "class", "kind", "events", "ev%", "sampled ms", "time%"
        );
        for (c, class) in self.events.classes.iter().enumerate() {
            for (k, kind) in self.events.kinds.iter().enumerate() {
                let cell = c * self.events.kinds.len() + k;
                let n = self.events.counts[cell];
                if n == 0 {
                    continue;
                }
                let ns = self.events.nanos[cell];
                let _ = writeln!(
                    out,
                    "{:<10} {:>6} {:>14} {:>7.2}% {:>12.2} {:>7.2}%",
                    class,
                    kind,
                    n,
                    100.0 * n as f64 / total_events as f64,
                    ns as f64 / 1e6,
                    100.0 * ns as f64 / total_nanos.max(1) as f64,
                );
            }
        }
        let _ = writeln!(
            out,
            "total events {} in {:.3} s dispatch ({:.0} events/s)",
            self.events.total(),
            self.dispatch_nanos as f64 / 1e9,
            if self.dispatch_nanos > 0 {
                self.events.total() as f64 / (self.dispatch_nanos as f64 / 1e9)
            } else {
                0.0
            }
        );
        for (kind, eps) in self.per_kind_events_per_sec() {
            let _ = writeln!(out, "  {kind}: {eps:.0} events/s");
        }
        let _ = writeln!(
            out,
            "wheel: cascades {} ({} entries), cancels {} (misses {}), cancellable {}",
            self.wheel.cascades,
            self.wheel.cascaded_entries,
            self.wheel.cancels,
            self.wheel.cancel_misses,
            self.wheel.cancellable_scheduled
        );
        let hw: Vec<String> = self
            .wheel
            .level_high_water
            .iter()
            .map(u64::to_string)
            .collect();
        let _ = writeln!(out, "wheel level high-water: [{}]", hw.join(", "));
        let bh: Vec<String> = self.wheel.batch_hist.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "batch-size log2 hist:   [{}]", bh.join(", "));
        if !self.memory.is_empty() {
            let _ = writeln!(out, "memory accounts:");
            for g in &self.memory {
                let _ = writeln!(out, "  {:<20} {:>12} bytes", g.name, g.bytes);
            }
            let _ = write!(
                out,
                "  {:<20} {:>12} bytes",
                "total",
                self.memory_total_bytes()
            );
            match self.memory_per_flow() {
                Some(per) => {
                    let _ = writeln!(out, " ({per:.0} per flow, {} flows)", self.flows);
                }
                None => {
                    let _ = writeln!(out);
                }
            }
        }
        out
    }
}

/// Sum that pins at `u64::MAX` instead of overflowing.
fn saturating_sum(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Profile {
        Profile {
            events: EventCells {
                classes: vec!["link".into(), "sender".into()],
                kinds: vec!["data".into(), "ack".into(), "timer".into()],
                stride: 1024,
                counts: vec![100, 0, 5, 40, 60, 7],
                nanos: vec![900, 0, 10, 300, 500, 20],
                samples: vec![9, 0, 1, 3, 5, 1],
            },
            wheel: WheelProfile {
                level_high_water: vec![10, 4, 0, 1, 0, 0, 0, 0, 2],
                cascades: 12,
                cascaded_entries: 34,
                batch_hist: vec![50, 20, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                cancels: 8,
                cancel_misses: 2,
                cancellable_scheduled: 15,
            },
            memory: vec![
                MemGauge {
                    name: "net/link_queues".into(),
                    bytes: 4096,
                },
                MemGauge {
                    name: "tcp/senders".into(),
                    bytes: 8192,
                },
            ],
            dispatch_nanos: 2_000_000,
            flows: 4,
        }
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let p = sample();
        let json = p.to_json();
        let back = Profile::from_json(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json);
        // And through a parse → render → re-parse cycle (the ledger path).
        let rendered = Json::parse(&json).unwrap().render();
        assert_eq!(Profile::from_json(&rendered).unwrap(), p);
    }

    #[test]
    fn cell_arrays_must_match_classes_times_kinds() {
        let json = sample().to_json();
        for (key, short) in [
            ("\"prof_counts\":[100,", "\"prof_counts\":["),
            ("\"prof_nanos\":[900,", "\"prof_nanos\":["),
            ("\"prof_samples\":[9,", "\"prof_samples\":["),
        ] {
            assert!(json.contains(key), "{json}");
            let err = Profile::from_json(&json.replacen(key, short, 1)).unwrap_err();
            assert!(err.contains("classes x kinds"), "{err}");
        }
    }

    #[test]
    fn normalized_zeroes_only_wall_time() {
        let p = sample();
        let n = p.normalized();
        assert!(n.events.nanos.iter().all(|&x| x == 0));
        assert_eq!(n.dispatch_nanos, 0);
        assert_eq!(n.events.counts, p.events.counts);
        assert_eq!(n.events.samples, p.events.samples);
        assert_eq!(n.wheel, p.wheel);
        assert_eq!(n.memory, p.memory);
    }

    #[test]
    fn per_kind_rollups() {
        let p = sample();
        let counts = p.events.per_kind_counts();
        assert_eq!(
            counts,
            vec![
                ("data".to_string(), 140),
                ("ack".to_string(), 60),
                ("timer".to_string(), 12)
            ]
        );
        let eps = p.per_kind_events_per_sec();
        // 140 events over 2 ms of dispatch = 70 000 events/s.
        assert!((eps[0].1 - 70_000.0).abs() < 1e-9);
        assert_eq!(p.events.total(), 212);
    }

    #[test]
    fn memory_rollups() {
        let p = sample();
        assert_eq!(p.memory_total_bytes(), 12_288);
        assert!((p.memory_per_flow().unwrap() - 3072.0).abs() < 1e-12);
    }

    #[test]
    fn folded_stacks_weight_by_nanos_with_count_fallback() {
        let p = sample();
        let folded = p.to_folded();
        assert!(folded.contains("ccsim;link;data 900\n"));
        assert!(folded.contains("ccsim;sender;ack 500\n"));
        // Zero-count cell stays out.
        assert!(!folded.contains("ccsim;link;ack"));

        let cold = p.normalized();
        let folded = cold.to_folded();
        assert!(folded.contains("ccsim;link;data 100\n"));
    }

    #[test]
    fn table_renders_all_sections() {
        let t = sample().render_table();
        assert!(t.contains("class"));
        assert!(t.contains("link"));
        assert!(t.contains("wheel: cascades 12"));
        assert!(t.contains("tcp/senders"));
        assert!(t.contains("3072 per flow"));
        assert!(t.contains("106000 events/s") || t.contains("events/s"));
    }

    #[test]
    fn saturated_foreign_profile_renders_without_overflow() {
        let mut p = sample();
        p.events.counts.fill(u64::MAX);
        p.events.nanos.fill(u64::MAX);
        for g in &mut p.memory {
            g.bytes = u64::MAX;
        }
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back.events.total(), u64::MAX);
        assert_eq!(back.memory_total_bytes(), u64::MAX);
        assert!(back
            .events
            .per_kind_counts()
            .iter()
            .all(|&(_, n)| n == u64::MAX));
        assert!(back
            .events
            .per_class_nanos()
            .iter()
            .all(|&(_, n)| n == u64::MAX));
        assert!(back
            .render_table()
            .contains("total events 18446744073709551615"));
    }
}
