//! Ablation/extension: router buffer sizing at scale.
//!
//! The paper sizes its buffers by the classic 1-BDP rule but cites
//! Appenzeller et al. (SIGCOMM 2004): when N flows desynchronize, a buffer
//! of `BDP/√N` suffices for high utilization. This sweep reproduces that
//! claim inside ccsim — an extension beyond the paper's own figures and a
//! check that the simulator captures flow (de)synchronization.

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_cca::CcaKind;
use ccsim_core::report::render_table;
use ccsim_core::FlowGroup;
use ccsim_sim::SimDuration;

fn main() {
    let opts = parse_args();
    let sw = StageTimer::new("ablation buffer");
    let rtt = SimDuration::from_millis(100);
    let mut rows = Vec::new();

    let count = *opts.config.core_counts.first().unwrap_or(&200);
    let skeleton = opts.config.core();
    // BDP at the base RTT (queueing excluded), the sizing rule's reference.
    let bdp = (skeleton.bottleneck.as_bytes_per_sec() * rtt.as_secs_f64()) as u64;
    let sqrt_n = (count as f64).sqrt();

    for (label, buffer) in [
        ("2.0 BDP", 2 * bdp),
        ("1.0 BDP", bdp),
        ("BDP/2", bdp / 2),
        ("BDP/sqrt(N)", (bdp as f64 / sqrt_n) as u64),
        ("BDP/(2 sqrt(N))", (bdp as f64 / (2.0 * sqrt_n)) as u64),
    ] {
        let mut s = skeleton
            .clone()
            .flows(vec![FlowGroup::new(CcaKind::Reno, count, rtt)]);
        s.buffer_bytes = buffer.max(10 * 1500);
        s.name = format!("buffer-{label}");
        let o = s.run();
        rows.push(vec![
            label.to_string(),
            format!("{:.2} MB", s.buffer_bytes as f64 / 1e6),
            format!("{:.1}%", o.utilization() * 100.0),
            format!("{:.3}%", o.aggregate_loss_rate * 100.0),
            format!("{:.3}", o.jain_index().unwrap_or(0.0)),
            format!("{:.2}", o.drop_burstiness.unwrap_or(f64::NAN)),
        ]);
    }

    section(
        &format!(
            "Ablation — buffer sizing, {} NewReno flows @100 ms on {}",
            count, skeleton.bottleneck
        ),
        &render_table(
            &["buffer rule", "bytes", "util", "loss", "JFI", "burstiness"],
            &rows,
        ),
    );
    println!(
        "\nAppenzeller et al.: with many desynchronized flows, BDP/sqrt(N)\n\
         retains near-full utilization.",
    );
    sw.finish();
}
