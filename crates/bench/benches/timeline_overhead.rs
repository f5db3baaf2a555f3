//! Timeline-sampler overhead benchmark: the cost of running with the
//! `ccsim-timeline` windowed sampler attached versus without.
//!
//! `timeline_run/off` vs `timeline_run/on` is the headline pair: the
//! same quickstart-sized observed run bare and with the default sampler
//! (1 s windows). The sampler only reads the runner's slice snapshots —
//! it never touches the event loop — so the cost is one fold per flow
//! and link per slice boundary, and the two times must agree to under
//! 2%, the budget the CI `timeline` job gates on. `timeline_run/w100ms`
//! bounds an aggressive 100 ms window (10× the fold rate).

use ccsim_cca::CcaKind;
use ccsim_core::{run, FlowGroup, ObserveOptions, RunOptions, Scenario};
use ccsim_sim::SimDuration;
use ccsim_timeline::TimelineConfig;
use criterion::{criterion_group, criterion_main, Criterion};
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

fn observed(scenario: &Scenario, options: ObserveOptions) -> u64 {
    let opts = RunOptions {
        observe: Some(options),
        ..RunOptions::default()
    };
    run(scenario, opts)
        .expect("quickstart scenario runs clean")
        .outcome
        .map_or(0, |o| o.events_processed)
}

fn bench_timeline_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeline_run");
    g.sample_size(10);
    let s = quickstart();
    g.bench_function("off", |b| {
        b.iter(|| observed(black_box(&s), ObserveOptions::default()))
    });
    g.bench_function("on", |b| {
        b.iter(|| observed(black_box(&s), ObserveOptions::timelined()))
    });
    g.bench_function("w100ms", |b| {
        b.iter(|| {
            observed(
                black_box(&s),
                ObserveOptions {
                    timeline: Some(TimelineConfig {
                        window: SimDuration::from_millis(100),
                        ..TimelineConfig::default()
                    }),
                    ..ObserveOptions::default()
                },
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_timeline_run);
criterion_main!(benches);
