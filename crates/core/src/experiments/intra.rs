//! §5.1 — Intra-CCA fairness.
//!
//! * **Figure 4** — JFI of all-BBR runs across flow counts and RTTs, in
//!   both settings: the paper's surprise finding is JFIs as low as 0.4 in
//!   CoreScale (vs the 0.99 of past work), with milder unfairness beyond
//!   10 flows in EdgeScale.
//! * **Finding 4** — all-NewReno and all-Cubic runs keep JFI > 0.99 at
//!   scale ("figure not shown" in the paper).

use crate::experiments::grid::ExperimentConfig;
use crate::outcome::RunOutcome;
use crate::report::render_table;
use crate::scenario::{FlowGroup, Scenario};
use ccsim_cca::CcaKind;
use ccsim_sim::SimDuration;

/// One intra-CCA fairness cell.
#[derive(Debug, Clone)]
pub struct IntraRow {
    /// "EdgeScale" or "CoreScale".
    pub setting: String,
    /// The CCA all flows run.
    pub cca: CcaKind,
    /// Number of flows.
    pub flow_count: u32,
    /// Base RTT (all flows identical) in ms.
    pub rtt_ms: u64,
    /// Jain's Fairness Index across all flows.
    pub jfi: f64,
    /// Link utilization in the window.
    pub utilization: f64,
    /// Aggregate queue loss rate.
    pub loss_rate: f64,
}

/// Scenario for one cell: `count` flows of `cca` at `rtt`.
pub fn cell_scenario(skeleton: Scenario, cca: CcaKind, count: u32, rtt_ms: u64) -> Scenario {
    let name = format!("{}/{} x{} @{}ms", skeleton.name, cca, count, rtt_ms);
    skeleton
        .flows(vec![FlowGroup::new(
            cca,
            count,
            SimDuration::from_millis(rtt_ms),
        )])
        .named(name)
}

/// Run the intra-CCA grid for `cca` over both settings.
pub fn run_grid(cfg: &ExperimentConfig, cca: CcaKind) -> Vec<IntraRow> {
    run_grid_with(cfg, cca, super::grid::run_parallel)
}

/// [`run_grid`] with a caller-supplied executor (e.g. the campaign
/// worker pool). `runner` must return one outcome per scenario, in
/// input order.
pub fn run_grid_with(
    cfg: &ExperimentConfig,
    cca: CcaKind,
    runner: impl FnOnce(&[Scenario]) -> Vec<RunOutcome>,
) -> Vec<IntraRow> {
    let mut scenarios = Vec::new();
    let mut labels = Vec::new();
    for &rtt in &cfg.rtts_ms {
        for &count in &cfg.edge_counts {
            scenarios.push(cell_scenario(cfg.edge(), cca, count, rtt));
            labels.push(("EdgeScale", count, rtt));
        }
        for &count in &cfg.core_counts {
            scenarios.push(cell_scenario(cfg.core(), cca, count, rtt));
            labels.push(("CoreScale", count, rtt));
        }
    }
    let outcomes = runner(&scenarios);
    labels
        .iter()
        .zip(&outcomes)
        .map(|(&(setting, count, rtt), o)| IntraRow {
            setting: setting.to_string(),
            cca,
            flow_count: count,
            rtt_ms: rtt,
            jfi: o.jain_index().unwrap_or(0.0),
            utilization: o.utilization(),
            loss_rate: o.aggregate_loss_rate,
        })
        .collect()
}

/// Render rows as the Figure 4 / Finding 4 report table.
pub fn render(rows: &[IntraRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setting.clone(),
                r.cca.to_string(),
                r.flow_count.to_string(),
                r.rtt_ms.to_string(),
                format!("{:.3}", r.jfi),
                format!("{:.1}%", r.utilization * 100.0),
                format!("{:.3}%", r.loss_rate * 100.0),
            ]
        })
        .collect();
    render_table(
        &["setting", "cca", "flows", "rtt(ms)", "JFI", "util", "loss"],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn reno_smoke_grid_is_fair() {
        let cfg = ExperimentConfig::smoke();
        let rows = run_grid(&cfg, CcaKind::Reno);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.utilization > 0.5, "util = {}", r.utilization);
        }
        // AIMD fairness needs several ~20 s sawtooth periods to converge;
        // the smoke horizon only checks the machinery end-to-end. The JFI
        // must at least be in a sane range and rising horizons are covered
        // by the figure binaries (see EXPERIMENTS.md).
        let core = rows.iter().find(|r| r.setting == "CoreScale").unwrap();
        assert!(
            core.jfi > 0.1 && core.jfi <= 1.0,
            "core reno JFI = {}",
            core.jfi
        );
        let report = render(&rows);
        assert!(report.contains("JFI"));
    }
}
