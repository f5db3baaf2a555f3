//! Shared experiment parameter grids.

use crate::outcome::RunOutcome;
use crate::pool::{default_workers, map_ordered};
use crate::scenario::{Fidelity, Scenario};
use ccsim_sim::SimDuration;

/// The default grid executor: every cell on the worker pool, one worker
/// per core, outcomes in input order.
pub fn run_parallel(scenarios: &[Scenario]) -> Vec<RunOutcome> {
    map_ordered(scenarios.iter().collect(), default_workers(), Scenario::run)
}

/// Parameters shared by every experiment: which flow counts and RTTs to
/// sweep, at what fidelity, and under which seed.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// CoreScale flow counts (paper: 1000, 3000, 5000).
    pub core_counts: Vec<u32>,
    /// EdgeScale flow counts (paper: 10, 30, 50; 2–50 in §3.1).
    pub edge_counts: Vec<u32>,
    /// Base RTTs in milliseconds (paper: 20, 100, 200).
    pub rtts_ms: Vec<u64>,
    /// Time-parameter preset.
    pub fidelity: Fidelity,
    /// Master seed.
    pub seed: u64,
    /// Divide the CoreScale bandwidth and buffer by this factor. Used with
    /// proportionally reduced flow counts, this preserves every per-flow
    /// quantity (share, BDP, cwnd) of the paper's setting while cutting the
    /// event count linearly — e.g. divisor 5 with 200/600/1000 flows
    /// reproduces 10 Gbps with 1000/3000/5000 exactly per-flow. Divisor 1 =
    /// the paper's literal 10 Gbps.
    pub core_divisor: u64,
}

impl ExperimentConfig {
    /// The paper's full grid at standard fidelity.
    pub fn paper_grid() -> ExperimentConfig {
        ExperimentConfig {
            core_counts: vec![1000, 3000, 5000],
            edge_counts: vec![10, 30, 50],
            rtts_ms: vec![20, 100, 200],
            fidelity: Fidelity::Standard,
            seed: 1,
            core_divisor: 1,
        }
    }

    /// A reduced grid for tests and CI smoke runs: a 1 Gbps "mini-core"
    /// with 100 flows — the same per-flow share as 10 Gbps with 1000.
    pub fn smoke() -> ExperimentConfig {
        ExperimentConfig {
            core_counts: vec![100],
            edge_counts: vec![10],
            rtts_ms: vec![20],
            fidelity: Fidelity::Quick,
            seed: 1,
            core_divisor: 10,
        }
    }

    /// The RTT grid as durations.
    pub fn rtts(&self) -> Vec<SimDuration> {
        self.rtts_ms
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .collect()
    }

    /// An EdgeScale scenario skeleton at this config's fidelity.
    pub fn edge(&self) -> Scenario {
        Scenario::edge_scale()
            .fidelity(self.fidelity)
            .seed(self.seed)
    }

    /// A CoreScale scenario skeleton at this config's fidelity, with the
    /// bandwidth/buffer scaled down by [`ExperimentConfig::core_divisor`].
    pub fn core(&self) -> Scenario {
        let mut s = Scenario::core_scale()
            .fidelity(self.fidelity)
            .seed(self.seed);
        if self.core_divisor > 1 {
            s.bottleneck =
                ccsim_sim::Bandwidth::from_bps(s.bottleneck.as_bps() / self.core_divisor);
            s.buffer_bytes /= self.core_divisor;
            s.name = format!("CoreScale/{}", self.core_divisor);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_matches_the_paper() {
        let g = ExperimentConfig::paper_grid();
        assert_eq!(g.core_counts, vec![1000, 3000, 5000]);
        assert_eq!(g.edge_counts, vec![10, 30, 50]);
        assert_eq!(g.rtts_ms, vec![20, 100, 200]);
        assert_eq!(g.rtts()[0], SimDuration::from_millis(20));
    }

    #[test]
    fn skeletons_carry_fidelity_and_seed() {
        let mut g = ExperimentConfig::smoke();
        g.seed = 9;
        assert_eq!(g.edge().seed, 9);
        assert_eq!(g.core().seed, 9);
        assert_eq!(g.edge().duration, SimDuration::from_secs(20));
    }
}
