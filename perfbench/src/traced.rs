//! The traced run: every job of a workload driven slice by slice from
//! here, with spans around each call into a layer and counts read at the
//! same boundaries, then checked against its untraced twin.
//!
//! Per job: `try_build_with_factory` (with [`TimedCca`] decorators), then
//! `try_run_until_classified` one snapshot slice at a time with the
//! [`KindClock`] classifier and the engine profiler on (stride 1), a
//! `per_flow_delivered_into` gather after every slice, the engine, wheel,
//! link, sender and receiver counters at the end, and finally analysis,
//! outcome encoding and a ledger append on the twin's untraced outcome.
//!
//! [`TimedCca`]: crate::layers::TimedCca

use crate::alloc::HeapDelta;
use crate::layers::{CcaTable, KindClock, ACK, DATA, KINDS, TIMER};
use crate::ALLOC;
use ccsim_campaign::{CampaignJob, JobResult, LedgerEntry, LedgerWriter, Rollup};
use ccsim_core::BuiltNetwork;
use ccsim_net::Link;
use ccsim_sim::{ComponentId, SimTime};
use ccsim_tcp::{Receiver, Sender};
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Component classes of the engine profiler's rows, in class-table order.
const CLASSES: [&str; 4] = ["link", "router", "sender", "receiver"];
const LINK: usize = 0;
const SENDER: usize = 2;
const RECEIVER: usize = 3;

/// One recorded span: a call into a layer, timed from the benchmark.
struct Span {
    name: &'static str,
    job: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
    bytes: u64,
}

/// In-memory span log, written out once the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, job: usize) {
        let start_ns = self.ns();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            bytes: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost span; returns its duration in seconds.
    fn close(&mut self, heap: HeapDelta) -> f64 {
        let i = self.open.pop().expect("close matches an open span");
        let end_ns = self.ns();
        let s = &mut self.spans[i];
        s.end_ns = end_ns;
        s.allocs = heap.allocs;
        s.bytes = heap.bytes;
        (end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span; returns its result, seconds and heap delta.
    fn span<R>(
        &mut self,
        name: &'static str,
        job: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64, HeapDelta) {
        self.open(name, job);
        let heap_span = ALLOC.begin();
        let r = f();
        let heap = ALLOC.end(heap_span);
        let secs = self.close(heap);
        (r, secs, heap)
    }

    fn to_json(&self, jobs: &[String]) -> String {
        let mut out = String::from("{\"jobs\":[");
        for (i, j) in jobs.iter().enumerate() {
            let _ = write!(out, "{}\"{j}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"bytes\":{}}}{}",
                s.name,
                s.job,
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.bytes,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Totals over every traced job.
#[derive(Default)]
struct Totals {
    flows: u64,
    sim_s: f64,
    traced_wall_s: f64,
    twin_wall_s: f64,
    build_s: f64,
    build_allocs: u64,
    build_retained: i64,
    dispatch_s: f64,
    dispatch_allocs: u64,
    events: u64,
    events_by_kind: [u64; 3],
    cell_counts: [u64; 12],
    cell_nanos: [u64; 12],
    cell_samples: [u64; 12],
    cascaded: u64,
    cancels: u64,
    cancel_misses: u64,
    pending_peak: u64,
    queue_bytes: u64,
    link_arrived: u64,
    link_dropped: u64,
    link_tx_pkts: u64,
    link_peak_queue: u64,
    data_sent: u64,
    retransmits: u64,
    rtos: u64,
    rcv_data: u64,
    acks_sent: u64,
    slab_bytes: u64,
    sample_s: f64,
    sample_allocs: u64,
    analysis_s: f64,
    encode_s: f64,
    ledger_s: f64,
}

/// The result of a traced run: per-layer metrics plus the twin-check
/// tally.
pub struct TracedRun {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Component-id → class row table, as the harness's profiler builds it.
fn class_table(net: &BuiltNetwork) -> Vec<u8> {
    let groups: [&[ComponentId]; 4] = [&net.links, &net.routers, &net.senders, &net.receivers];
    let max = groups
        .iter()
        .flat_map(|g| g.iter())
        .map(|id| id.as_usize())
        .max();
    let mut table = vec![0u8; max.map_or(0, |m| m + 1)];
    for (class, group) in groups.iter().enumerate() {
        for id in group.iter() {
            table[id.as_usize()] = class as u8;
        }
    }
    table
}

/// Split each kind's exact handler seconds across component classes in
/// proportion to the engine profiler's per-cell estimates (sampled nanos
/// scaled by count ÷ samples; plain counts where a kind has no samples).
/// Returns seconds per cell, row-major `class × kind`.
fn split_by_class(kind_s: [f64; 3], counts: &[u64], nanos: &[u64], samples: &[u64]) -> Vec<f64> {
    let n_kinds = kind_s.len();
    let weight = |cell: usize| -> f64 {
        if samples[cell] == 0 {
            0.0
        } else {
            nanos[cell] as f64 * counts[cell] as f64 / samples[cell] as f64
        }
    };
    let mut out = vec![0.0; counts.len()];
    for (k, &total) in kind_s.iter().enumerate() {
        let cells: Vec<usize> = (k..counts.len()).step_by(n_kinds).collect();
        let mut w: Vec<f64> = cells.iter().map(|&c| weight(c)).collect();
        if w.iter().sum::<f64>() <= 0.0 {
            w = cells.iter().map(|&c| counts[c] as f64).collect();
        }
        let sum: f64 = w.iter().sum();
        if sum > 0.0 {
            for (&c, wc) in cells.iter().zip(w) {
                out[c] = total * wc / sum;
            }
        }
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Trace every job of a workload. `twins[i]` is job `i`'s untraced run;
/// `makespan_s` is that untraced campaign's wall time on `workers`
/// workers. Spans and the ledger lines go under `out_dir`.
pub fn run(
    jobs: &[CampaignJob],
    twins: &[JobResult],
    makespan_s: f64,
    workers: usize,
    out_dir: &Path,
    tag: &str,
) -> Result<TracedRun, String> {
    let clock = Rc::new(KindClock::default());
    let ccas = CcaTable::default();
    let mut tracer = Tracer::new();
    let mut t = Totals::default();
    let mut failures = Vec::new();
    let ledger_path = out_dir.join(format!("ledger-{tag}.jsonl"));
    let mut ledger = LedgerWriter::create(&ledger_path, tag, &Default::default(), &[])
        .map_err(|e| format!("{}: {e}", ledger_path.display()))?;

    for (j, (job, twin)) in jobs.iter().zip(twins).enumerate() {
        let scenario = &job.scenario;
        if scenario.convergence.is_some() {
            return Err(format!(
                "{}: the traced run needs a fixed horizon",
                job.name
            ));
        }
        let twin_obs = twin
            .run
            .as_ref()
            .map_err(|e| format!("{}: untraced twin failed: {e}", job.name))?;
        let outcome = &twin_obs.outcome;
        let job_t0 = Instant::now();
        tracer.open("job", j);
        let job_heap = ALLOC.begin();

        let factory = |_flow: u32, kind, mss, seed| ccas.make(&clock, kind, mss, seed);
        let (net, secs, heap) = tracer.span("core.build", j, || {
            BuiltNetwork::try_build_with_factory(scenario, &factory)
        });
        let mut net = net.map_err(|e| format!("{}: build: {e}", job.name))?;
        t.build_s += secs;
        t.build_allocs += heap.allocs;
        t.build_retained += heap.retained;
        t.flows += net.flow_count() as u64;

        net.sim.set_event_classes(KINDS.len());
        net.sim
            .enable_profiling(class_table(&net), CLASSES.len(), KINDS.len(), 1);

        let warmup_end = SimTime::ZERO + scenario.warmup;
        let horizon = warmup_end + scenario.duration;
        let mut delivered = Vec::new();
        let mut base = Vec::new();
        if warmup_end == SimTime::ZERO {
            net.per_flow_delivered_into(&mut base);
        }
        let mut now = SimTime::ZERO;
        while now < horizon {
            let next = if now < warmup_end {
                (now + scenario.snapshot_interval).min(warmup_end)
            } else {
                (now + scenario.snapshot_interval).min(horizon)
            };
            let (r, secs, heap) = tracer.span("sim.dispatch", j, || {
                let r = net
                    .sim
                    .try_run_until_classified(next, |m| clock.classify(m));
                clock.close();
                r
            });
            r.map_err(|e| format!("{}: dispatch: {e}", job.name))?;
            t.dispatch_s += secs;
            t.dispatch_allocs += heap.allocs;
            now = next;
            if now < warmup_end {
                continue;
            }
            let ((), secs, heap) = tracer.span("core.sample", j, || {
                net.per_flow_delivered_into(&mut delivered);
            });
            t.sample_s += secs;
            t.sample_allocs += heap.allocs;
            if now == warmup_end {
                base.clone_from(&delivered);
            }
        }

        // Counters, read where the work happened.
        let sim = &net.sim;
        t.events += sim.events_processed();
        for (acc, &n) in t.events_by_kind.iter_mut().zip(sim.event_class_counts()) {
            *acc += n;
        }
        if let Some((counts, nanos, samples)) = sim.profile_cells() {
            for c in 0..counts.len() {
                t.cell_counts[c] += counts[c];
                t.cell_nanos[c] += nanos[c];
                t.cell_samples[c] += samples[c];
            }
        }
        let wheel = sim.wheel_stats();
        t.cascaded += wheel.cascaded_entries;
        t.cancels += wheel.cancels;
        t.cancel_misses += wheel.cancel_misses;
        t.pending_peak = t.pending_peak.max(sim.max_pending());
        t.queue_bytes = t.queue_bytes.max(sim.queue_memory_bytes());
        for &id in &net.links {
            let s = sim.component::<Link>(id).stats();
            t.link_arrived += s.arrived_pkts;
            t.link_dropped += s.dropped_pkts;
            t.link_tx_pkts += s.transmitted_pkts;
            t.link_peak_queue = t.link_peak_queue.max(s.max_queue_bytes);
        }
        for &id in &net.senders {
            let s = sim.component::<Sender>(id).stats();
            t.data_sent += s.data_pkts_sent;
            t.retransmits += s.retransmits;
            t.rtos += s.rtos;
        }
        for &id in &net.receivers {
            let s = sim.component::<Receiver>(id).stats();
            t.rcv_data += s.data_pkts_received;
            t.acks_sent += s.acks_sent;
        }
        if let Some(slab) = &net.slab {
            t.slab_bytes = t.slab_bytes.max(slab.borrow().memory_bytes());
        }
        let traced_events = sim.events_processed();
        t.traced_wall_s += job_t0.elapsed().as_secs_f64();
        drop(net);
        t.twin_wall_s += twin_obs.manifest.wall_secs;
        t.sim_s += outcome.ended_at.as_secs_f64();

        // The twin check: same event count, same per-flow window bytes.
        if traced_events != outcome.events_processed {
            failures.push(format!(
                "{}: traced run processed {traced_events} events, untraced {}",
                job.name, outcome.events_processed
            ));
        }
        let window: Vec<u64> = delivered.iter().zip(&base).map(|(d, b)| d - b).collect();
        let untraced: Vec<u64> = outcome.flows.iter().map(|f| f.delivered_bytes).collect();
        if window != untraced {
            failures.push(format!(
                "{}: traced per-flow window bytes differ from the untraced run",
                job.name
            ));
        }

        let (_, secs, _) = tracer.span("analysis", j, || Rollup::of(outcome));
        t.analysis_s += secs;
        let (_, secs, _) = tracer.span("core.outcome.encode", j, || {
            (outcome.to_json(), outcome.digest())
        });
        t.encode_s += secs;
        let (appended, secs, _) = tracer.span("campaign.ledger.append", j, || {
            ledger.append(&LedgerEntry::from_result(twin))
        });
        appended.map_err(|e| format!("{}: {e}", ledger_path.display()))?;
        t.ledger_s += secs;
        tracer.close(ALLOC.end(job_heap));
    }

    let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
    let spans_path = out_dir.join(format!("spans-{tag}.json"));
    std::fs::write(&spans_path, tracer.to_json(&names))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let kind_s = [
        clock.handler_s(DATA),
        clock.handler_s(ACK),
        clock.handler_s(TIMER),
    ];
    let cell_s = split_by_class(kind_s, &t.cell_counts, &t.cell_nanos, &t.cell_samples);
    let cell = |class: usize, kind: usize| cell_s[class * KINDS.len() + kind];
    let count = |class: usize, kind: usize| t.cell_counts[class * KINDS.len() + kind];
    let (cca_calls, cca_s) = ccas.totals();
    let on_ack_ns = |algo: &str| {
        ccas.get(algo).map_or(0.0, |s| {
            ratio(s.on_ack_nanos.get() as f64, s.on_ack_calls.get() as f64)
        })
    };
    let idle = ratio(
        makespan_s * workers as f64 - t.twin_wall_s,
        makespan_s * workers as f64,
    );
    let events = t.events as f64;
    let traced_rate = ratio(t.traced_wall_s, t.sim_s);
    let untraced_rate = ratio(t.twin_wall_s, t.sim_s);

    let metrics: Vec<(String, f64, &'static str)> = vec![
        ("core.build.s".into(), t.build_s, "s"),
        ("core.build.allocs".into(), t.build_allocs as f64, "count"),
        (
            "core.build.bytes_per_flow".into(),
            ratio(t.build_retained as f64, t.flows as f64),
            "B/flow",
        ),
        ("sim.dispatch.s".into(), t.dispatch_s, "s"),
        ("sim.events".into(), events, "count"),
        (
            "sim.events.data".into(),
            t.events_by_kind[DATA] as f64,
            "count",
        ),
        (
            "sim.events.ack".into(),
            t.events_by_kind[ACK] as f64,
            "count",
        ),
        (
            "sim.events.timer".into(),
            t.events_by_kind[TIMER] as f64,
            "count",
        ),
        (
            "sim.dispatch.ns_per_event".into(),
            ratio(t.dispatch_s * 1e9, events),
            "ns/event",
        ),
        (
            "sim.dispatch.allocs_per_event".into(),
            ratio(t.dispatch_allocs as f64, events),
            "allocs/event",
        ),
        (
            "sim.wheel.cascaded_per_event".into(),
            ratio(t.cascaded as f64, events),
            "entries/event",
        ),
        (
            "sim.wheel.cancel_miss_ratio".into(),
            ratio(t.cancel_misses as f64, (t.cancels + t.cancel_misses) as f64),
            "ratio",
        ),
        (
            "sim.wheel.pending_peak".into(),
            t.pending_peak as f64,
            "count",
        ),
        ("sim.wheel.queue_bytes".into(), t.queue_bytes as f64, "B"),
        ("net.link.data_s".into(), cell(LINK, DATA), "s"),
        ("net.link.timer_s".into(), cell(LINK, TIMER), "s"),
        (
            "net.link.timer_events_per_tx_pkt".into(),
            ratio(count(LINK, TIMER) as f64, t.link_tx_pkts as f64),
            "events/pkt",
        ),
        (
            "net.link.drop_ratio".into(),
            ratio(t.link_dropped as f64, t.link_arrived as f64),
            "ratio",
        ),
        (
            "net.link.peak_queue_bytes".into(),
            t.link_peak_queue as f64,
            "B",
        ),
        (
            "tcp.sender.ack_self_s".into(),
            (cell(SENDER, ACK) - clock.cca_s(ACK)).max(0.0),
            "s",
        ),
        ("tcp.sender.timer_s".into(), cell(SENDER, TIMER), "s"),
        (
            "tcp.sender.retx_ratio".into(),
            ratio(t.retransmits as f64, t.data_sent as f64),
            "ratio",
        ),
        ("tcp.sender.rtos".into(), t.rtos as f64, "count"),
        ("tcp.slab.bytes".into(), t.slab_bytes as f64, "B"),
        ("tcp.receiver.data_s".into(), cell(RECEIVER, DATA), "s"),
        (
            "tcp.receiver.acks_per_data".into(),
            ratio(t.acks_sent as f64, t.rcv_data as f64),
            "ratio",
        ),
        ("cca.s".into(), cca_s, "s"),
        ("cca.calls".into(), cca_calls as f64, "count"),
        ("cca.reno.on_ack_ns".into(), on_ack_ns("reno"), "ns"),
        ("cca.cubic.on_ack_ns".into(), on_ack_ns("cubic"), "ns"),
        ("cca.bbr.on_ack_ns".into(), on_ack_ns("bbr"), "ns"),
        ("core.sample.s".into(), t.sample_s, "s"),
        ("core.sample.allocs".into(), t.sample_allocs as f64, "count"),
        ("analysis.s".into(), t.analysis_s, "s"),
        ("core.outcome.encode_s".into(), t.encode_s, "s"),
        ("campaign.ledger.append_s".into(), t.ledger_s, "s"),
        ("campaign.executor.idle_frac".into(), idle, "ratio"),
        (
            "trace.overhead_frac".into(),
            ratio(traced_rate, untraced_rate) - 1.0,
            "ratio",
        ),
    ];
    Ok(TracedRun {
        metrics,
        attempted: jobs.len() as u64,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_each_kind_total() {
        // 2 classes × 3 kinds. Data: class 0 sampled twice as dear per
        // event as class 1; ack: only class 1; timer: unsampled, so the
        // split falls back to counts.
        let counts = [10, 0, 3, 10, 5, 1];
        let nanos = [400, 0, 0, 200, 50, 0];
        let samples = [10, 0, 0, 10, 5, 0];
        let s = split_by_class([3.0, 1.0, 4.0], &counts, &nanos, &samples);
        assert!((s[0] - 2.0).abs() < 1e-12 && (s[3] - 1.0).abs() < 1e-12);
        assert_eq!((s[1], s[4]), (0.0, 1.0));
        assert!((s[2] - 3.0).abs() < 1e-12 && (s[5] - 1.0).abs() < 1e-12);
        for k in 0..3 {
            assert!((s[k] + s[3 + k] - [3.0, 1.0, 4.0][k]).abs() < 1e-12);
        }
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
