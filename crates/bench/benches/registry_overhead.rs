//! Observability-overhead benchmarks: the cost of running with metrics
//! attached, and the raw per-operation cost of the registry primitives.
//!
//! `observed_run/plain` vs `observed_run/observed` is the headline: the
//! same quickstart-sized scenario through `run` without and with
//! `RunOptions::observe`. The
//! observed run adds an inlined per-event class count, a histogram sample
//! per packet arrival, and a handful of counters on the TCP slow paths —
//! the two times should agree to well under 2%.

use ccsim_cca::CcaKind;
use ccsim_core::{run, FlowGroup, ObserveOptions, RunOptions, Scenario};
use ccsim_sim::SimDuration;
use ccsim_telemetry::{Counter, Histogram};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// The README quickstart scenario, shortened: 10 Reno flows, 3 s simulated.
fn quickstart() -> Scenario {
    let mut s = Scenario::edge_scale()
        .named("quickstart")
        .flows(vec![FlowGroup::new(
            CcaKind::Reno,
            10,
            SimDuration::from_millis(20),
        )])
        .seed(1);
    s.start_jitter = SimDuration::from_millis(200);
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(2);
    s.convergence = None;
    s
}

fn bench_observed_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("observed_run");
    g.sample_size(10);
    let s = quickstart();
    let observed = || RunOptions {
        observe: Some(ObserveOptions::default()),
        ..RunOptions::default()
    };
    g.bench_function("plain", |b| b.iter(|| black_box(&s).run()));
    g.bench_function("observed", |b| b.iter(|| run(black_box(&s), observed())));
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("registry_primitives");
    const N: u64 = 10_000;
    g.throughput(Throughput::Elements(N));
    let counter = Counter::new();
    g.bench_function("counter_inc_10k", |b| {
        b.iter(|| {
            for _ in 0..N {
                counter.inc();
            }
            black_box(counter.get())
        })
    });
    let hist = Histogram::new();
    g.bench_function("histogram_record_10k", |b| {
        b.iter(|| {
            for v in 0..N {
                hist.record(black_box(v * 131));
            }
            black_box(hist.count())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_observed_run, bench_primitives);
criterion_main!(benches);
