//! # ccsim-core — the at-scale CCA measurement harness
//!
//! The paper's experimental apparatus as a library:
//!
//! * [`scenario`] — EdgeScale/CoreScale settings and flow-group builders.
//! * [`build`] — dumbbell topology wiring.
//! * [`runner`] — the one entry point, [`run`]`(&Scenario, RunOptions)`:
//!   warm-up, snapshotting, the convergence stopping rule, and
//!   window-scoped metric collection, with progress, observation,
//!   checkpoint/resume, the crash guard and live serving as options.
//! * [`observe`] — self-observability: metric attachment, Prometheus
//!   dumps, and per-run provenance manifests.
//! * [`checkpoint`] — the versioned, digest-stamped checkpoint container,
//!   whole-run capture/restore, and the divergence bisector.
//! * [`crash`] — crash bundles: capture on failure, load, replay.
//! * [`pool`] — the ordered worker pool experiment grids and campaigns
//!   run on.
//! * [`outcome`] — run results with the paper's derived quantities (JFI,
//!   group shares, Mathis observations, loss-to-halving ratios).
//! * [`experiments`] — one function per table/figure of the paper, plus
//!   the parameter grids they sweep.
//! * [`report`] — plain-text table rendering for the bench binaries and
//!   EXPERIMENTS.md.

pub mod build;
pub mod checkpoint;
pub mod codec;
pub mod crash;
pub mod error;
pub mod experiments;
pub mod observe;
pub mod outcome;
pub mod pool;
pub mod report;
pub mod runner;
pub mod scenario;
mod watchdog;

pub use build::BuiltNetwork;
pub use ccsim_timeline::serve::{serve, LiveState, ServeHandle};
pub use ccsim_timeline::{Timeline, TimelineConfig, TimelineSummary};
pub use checkpoint::{
    bisect_divergence, slice_boundaries, BisectOutcome, Checkpoint, DivergencePoint, ResumeError,
};
pub use codec::{scenario_from_json, scenario_from_value, scenario_to_json};
pub use crash::{BundleError, CrashBundle, GuardOptions};
pub use error::SimError;
pub use observe::ObserveOptions;
pub use outcome::{BottleneckMetrics, PInterpretation, RunOutcome};
pub use runner::{run, Progress, RunOptions, RunReport};
pub use scenario::{
    ConvergenceRule, Fidelity, FlowGroup, Scenario, ScenarioError, Tuning, DEFAULT_MSS,
};
