//! End-to-end scenario benchmarks: complete (scaled-down) experiment runs
//! through the public harness API. These are the numbers that predict how
//! long the full figure grids take.

use ccsim_cca::CcaKind;
use ccsim_core::{FlowGroup, Scenario};
use ccsim_sim::{Bandwidth, SimDuration};
use criterion::{criterion_group, criterion_main, Criterion};

/// A short EdgeScale run: N reno flows, 3 s simulated.
fn edge(cca: CcaKind, n: u32) -> Scenario {
    let mut s = Scenario::edge_scale()
        .flows(vec![FlowGroup::new(cca, n, SimDuration::from_millis(20))])
        .seed(1);
    s.start_jitter = SimDuration::from_millis(200);
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(2);
    s.convergence = None;
    s
}

fn bench_scenarios(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for (label, cca) in [
        ("reno", CcaKind::Reno),
        ("cubic", CcaKind::Cubic),
        ("bbr", CcaKind::Bbr),
    ] {
        g.bench_function(format!("edge_{label}_10flows_3s"), |b| {
            b.iter(|| Scenario::run(&edge(cca, 10)))
        });
    }
    // A mini-CoreScale: 1 Gbps shared by 100 flows, same per-flow share as
    // 10 Gbps / 1000.
    g.bench_function("mini_core_reno_100flows_3s", |b| {
        let mut s = edge(CcaKind::Reno, 100);
        s.bottleneck = Bandwidth::from_gbps(1);
        s.buffer_bytes = 25_000_000;
        b.iter(|| Scenario::run(&s))
    });
    g.finish();
}

criterion_group!(benches, bench_scenarios);
criterion_main!(benches);
