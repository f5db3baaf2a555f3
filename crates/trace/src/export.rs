//! JSONL export — one self-describing JSON object per line.
//!
//! The first line carries the run metadata; every following line is one
//! record with kind-specific field names (`cwnd`, `ssthresh`, `bps`, …),
//! so the file greps and `jq`s naturally. [`write_jsonl`] hand-rolls each
//! line with `ccsim_sim::json`'s escaping; [`read_jsonl`] parses each line
//! with [`Json::parse`] and reads back exactly what the writer emits
//! (strict field order is *not* required; unknown fields are ignored).

use crate::event::{CongestionKind, PhaseLabel, TraceKind, TraceRecord, QUEUE_FLOW};
use crate::recorder::{RunTrace, TraceMeta};
use ccsim_sim::json::{escape_into, Json};
use ccsim_sim::{SimDuration, SimTime};
use std::io::{self, BufRead, Write};

/// Write a trace as JSONL.
pub fn write_jsonl<W: Write>(trace: &RunTrace, mut w: W) -> io::Result<()> {
    let mut name = String::new();
    escape_into(&trace.meta.scenario, &mut name);
    writeln!(
        w,
        "{{\"meta\":{{\"scenario\":\"{}\",\"seed\":{},\"flows\":{},\"records\":{},\"evicted\":{},\"thinned\":{}}}}}",
        name,
        trace.meta.seed,
        trace.meta.flows,
        trace.records.len(),
        trace.evicted,
        trace.thinned
    )?;
    let mut line = String::with_capacity(128);
    for r in &trace.records {
        line.clear();
        let t = r.time.as_nanos();
        match r.kind {
            TraceKind::Cwnd => {
                line.push_str(&format!(
                    "{{\"t\":{t},\"flow\":{},\"kind\":\"cwnd\",\"cwnd\":{},\"ssthresh\":{}}}",
                    r.flow, r.a, r.b
                ));
            }
            TraceKind::Srtt => {
                line.push_str(&format!(
                    "{{\"t\":{t},\"flow\":{},\"kind\":\"srtt\",\"ns\":{}}}",
                    r.flow, r.a
                ));
            }
            TraceKind::Pacing => {
                line.push_str(&format!(
                    "{{\"t\":{t},\"flow\":{},\"kind\":\"pacing\",\"bps\":{}}}",
                    r.flow, r.a
                ));
            }
            TraceKind::Phase => {
                let label = r.phase_label().unwrap_or_default();
                line.push_str(&format!(
                    "{{\"t\":{t},\"flow\":{},\"kind\":\"phase\",\"label\":\"{}\"}}",
                    r.flow,
                    label.as_str()
                ));
            }
            TraceKind::Congestion => {
                let ev = r
                    .congestion_kind()
                    .map(CongestionKind::as_str)
                    .unwrap_or("unknown");
                line.push_str(&format!(
                    "{{\"t\":{t},\"flow\":{},\"kind\":\"congestion\",\"event\":\"{ev}\"}}",
                    r.flow
                ));
            }
            TraceKind::QueueDepth => {
                line.push_str(&format!(
                    "{{\"t\":{t},\"kind\":\"queue\",\"bytes\":{},\"pkts\":{}}}",
                    r.a, r.b
                ));
            }
            TraceKind::Drop => {
                line.push_str(&format!(
                    "{{\"t\":{t},\"flow\":{},\"kind\":\"drop\",\"queue_bytes\":{}}}",
                    r.flow, r.a
                ));
            }
            TraceKind::EcnMark => {
                line.push_str(&format!(
                    "{{\"t\":{t},\"flow\":{},\"kind\":\"ecn_mark\",\"queue_bytes\":{},\"hop\":{}}}",
                    r.flow, r.a, r.b
                ));
            }
            TraceKind::HopDepth => {
                line.push_str(&format!(
                    "{{\"t\":{t},\"kind\":\"hop_queue\",\"hop\":{},\"bytes\":{},\"pkts\":{}}}",
                    r.flow, r.a, r.b
                ));
            }
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn parse_line(line: &str) -> io::Result<Json> {
    Json::parse(line).map_err(|e| bad(e.to_string()))
}

fn field_u64(v: &Json, key: &str) -> io::Result<u64> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer \"{key}\"")))
}

fn field_u32(v: &Json, key: &str) -> io::Result<u32> {
    u32::try_from(field_u64(v, key)?).map_err(|_| bad(format!("\"{key}\" exceeds u32")))
}

fn field_str<'a>(v: &'a Json, key: &str) -> io::Result<&'a str> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing or non-string \"{key}\"")))
}

/// Parse one record line (as produced by [`write_jsonl`]).
fn parse_record(line: &str) -> io::Result<TraceRecord> {
    let v = parse_line(line)?;
    let u64_of = |key: &str| field_u64(&v, key);
    let t = SimTime::from_nanos(u64_of("t")?);
    let kind_name = field_str(&v, "kind")?;
    let kind = TraceKind::from_str_name(kind_name)
        .ok_or_else(|| bad(format!("unknown kind {kind_name:?}")))?;
    let flow = match kind {
        TraceKind::QueueDepth => QUEUE_FLOW,
        TraceKind::HopDepth => field_u32(&v, "hop")?,
        _ => field_u32(&v, "flow")?,
    };
    let rec = match kind {
        TraceKind::Cwnd => TraceRecord::cwnd(t, flow, u64_of("cwnd")?, u64_of("ssthresh")?),
        TraceKind::Srtt => TraceRecord::srtt(t, flow, SimDuration::from_nanos(u64_of("ns")?)),
        TraceKind::Pacing => TraceRecord::pacing(t, flow, u64_of("bps")?),
        TraceKind::Phase => TraceRecord::phase(t, flow, PhaseLabel::new(field_str(&v, "label")?)),
        TraceKind::Congestion => {
            let ev = field_str(&v, "event")?;
            let ck = CongestionKind::from_str_name(ev)
                .ok_or_else(|| bad(format!("unknown congestion event {ev:?}")))?;
            TraceRecord::congestion(t, flow, ck)
        }
        TraceKind::QueueDepth => TraceRecord::queue_depth(t, u64_of("bytes")?, u64_of("pkts")?),
        TraceKind::Drop => TraceRecord::drop(t, flow, u64_of("queue_bytes")?),
        TraceKind::EcnMark => {
            TraceRecord::ecn_mark(t, flow, u64_of("queue_bytes")?, u64_of("hop")?)
        }
        TraceKind::HopDepth => TraceRecord::hop_depth(t, flow, u64_of("bytes")?, u64_of("pkts")?),
    };
    Ok(rec)
}

/// Read a trace from JSONL (the inverse of [`write_jsonl`]).
pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<RunTrace> {
    let mut lines = r.lines();
    let header = lines.next().ok_or_else(|| bad("empty trace file"))??;
    let header = parse_line(&header)?;
    let meta = header
        .get("meta")
        .ok_or_else(|| bad("first line is not a meta header"))?;
    let trace_meta = TraceMeta {
        scenario: field_str(meta, "scenario")?.to_string(),
        seed: field_u64(meta, "seed")?,
        flows: field_u32(meta, "flows")?,
    };
    let evicted = field_u64(meta, "evicted").unwrap_or(0);
    let thinned = field_u64(meta, "thinned").unwrap_or(0);
    let mut records = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        records.push(parse_record(&line)?);
    }
    Ok(RunTrace {
        meta: trace_meta,
        records,
        evicted,
        thinned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CongestionKind;

    fn sample_trace() -> RunTrace {
        let t = SimTime::from_millis;
        RunTrace {
            meta: TraceMeta {
                scenario: "edge \"quoted\" \\ name".into(),
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
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&trace, &mut buf).unwrap();
        let back = read_jsonl(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn jsonl_lines_are_self_describing() {
        let mut buf = Vec::new();
        write_jsonl(&sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().count() == 10); // header + 9 records
        assert!(text.contains("\"kind\":\"cwnd\""));
        assert!(text.contains("\"event\":\"fast_recovery\""));
        assert!(text.contains("\"label\":\"probe_bw\""));
        // Every line is brace-delimited.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_jsonl(io::BufReader::new(&b""[..])).is_err());
        assert!(read_jsonl(io::BufReader::new(&b"{\"t\":1}\n"[..])).is_err());
        let noheader = b"{\"t\":1,\"flow\":0,\"kind\":\"cwnd\",\"cwnd\":1,\"ssthresh\":2}\n";
        assert!(read_jsonl(io::BufReader::new(&noheader[..])).is_err());
    }
}
