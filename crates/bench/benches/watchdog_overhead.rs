//! Watchdog-overhead benchmark: the cost of running with every-slice
//! invariant checks versus none.
//!
//! `watchdog_run/off` vs `watchdog_run/on` is the headline pair: the
//! same quickstart-sized scenario with the watchdog disabled and with
//! every-slice checks. A check pass reads a handful of link counters and
//! two fields per sender — O(flows) work once per simulated second
//! against millions of engine events — so the two times should agree to
//! well under 2%. `watchdog_run/strided` (every 5th slice) bounds the
//! marginal cost of the stride knob.

use ccsim_cca::CcaKind;
use ccsim_core::{FlowGroup, Scenario};
use ccsim_fault::WatchdogConfig;
use ccsim_sim::SimDuration;
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

fn bench_watchdog_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("watchdog_run");
    g.sample_size(10);
    let off = quickstart();
    let on = quickstart().watched(WatchdogConfig::every_slice());
    let strided = quickstart().watched(WatchdogConfig::every_n(5));
    g.bench_function("off", |b| b.iter(|| black_box(&off).run()));
    g.bench_function("on", |b| b.iter(|| black_box(&on).run()));
    g.bench_function("strided", |b| b.iter(|| black_box(&strided).run()));
    g.finish();
}

criterion_group!(benches, bench_watchdog_run);
criterion_main!(benches);
