//! The typed run-failure hierarchy.
//!
//! [`SimError`] is what [`crate::run`] returns instead of panicking: every
//! way a run can fail — invalid configuration, an engine dispatch error, a
//! watchdog invariant violation, a caught panic, or a checkpoint problem —
//! is a variant with enough structure for crash-bundle capture and for
//! callers to branch on. The panicking convenience [`Scenario::run`]
//! formats the same error.
//!
//! [`Scenario::run`]: crate::Scenario::run

use crate::checkpoint::ResumeError;
use crate::scenario::ScenarioError;
use ccsim_fault::WatchdogReport;
use ccsim_sim::EngineError;
use ccsim_trace::RunTrace;
use std::fmt;

/// A failed simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The scenario failed validation before the network was built.
    Scenario(ScenarioError),
    /// The engine rejected an event (e.g. dispatch to an unknown
    /// component).
    Engine(EngineError),
    /// The runtime invariant watchdog detected a violation and aborted
    /// the run. Carries the full report and, when the scenario had
    /// tracing enabled, the flight-recorder contents up to the abort —
    /// the trace tail that goes into a crash bundle.
    Invariant {
        report: WatchdogReport,
        trace: Option<RunTrace>,
    },
    /// A panic caught inside [`crate::run`].
    Panic { message: String },
    /// A checkpoint could not be taken, loaded, or applied (bad magic,
    /// version skew, truncation, digest mismatch, or a run that ended
    /// before the requested checkpoint instant).
    Resume(ResumeError),
    /// The run failed with `error` and its crash bundle could not be
    /// written.
    Bundle {
        error: Box<SimError>,
        io: std::io::Error,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            SimError::Engine(e) => write!(f, "engine error: {e}"),
            SimError::Invariant { report, .. } => {
                write!(f, "invariant violation — {report}")
            }
            SimError::Panic { message } => write!(f, "run panicked: {message}"),
            SimError::Resume(e) => write!(f, "checkpoint error: {e}"),
            SimError::Bundle { error, io } => {
                write!(f, "{error} (crash-bundle write failed: {io})")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Scenario(e) => Some(e),
            SimError::Engine(e) => Some(e),
            SimError::Resume(e) => Some(e),
            SimError::Bundle { error, .. } => Some(error.as_ref()),
            _ => None,
        }
    }
}

impl From<ScenarioError> for SimError {
    fn from(e: ScenarioError) -> Self {
        SimError::Scenario(e)
    }
}

impl From<EngineError> for SimError {
    fn from(e: EngineError) -> Self {
        SimError::Engine(e)
    }
}

impl From<ResumeError> for SimError {
    fn from(e: ResumeError) -> Self {
        SimError::Resume(e)
    }
}

impl SimError {
    /// Short machine-readable class tag, used by crash-bundle manifests.
    pub fn class(&self) -> &'static str {
        match self {
            SimError::Scenario(_) => "scenario",
            SimError::Engine(_) => "engine",
            SimError::Invariant { .. } => "invariant",
            SimError::Panic { .. } => "panic",
            SimError::Resume(_) => "resume",
            SimError::Bundle { error, .. } => error.class(),
        }
    }

    /// The watchdog report, when this error carries one.
    pub fn watchdog_report(&self) -> Option<&WatchdogReport> {
        match self {
            SimError::Invariant { report, .. } => Some(report),
            SimError::Bundle { error, .. } => error.watchdog_report(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_fault::{InvariantKind, InvariantViolation};
    use ccsim_sim::SimTime;

    #[test]
    fn displays_are_informative() {
        let e = SimError::from(ScenarioError::NoFlows);
        assert_eq!(e.to_string(), "invalid scenario: scenario has no flows");
        assert_eq!(e.class(), "scenario");

        let report = WatchdogReport {
            checks_run: 2,
            violations: vec![InvariantViolation {
                at: SimTime::from_secs(3),
                kind: InvariantKind::QueueBound,
                detail: "backlog 10 > buffer 5".into(),
            }],
        };
        let e = SimError::Invariant {
            report,
            trace: None,
        };
        assert!(e.to_string().contains("queue_bound"));
        assert_eq!(e.class(), "invariant");
        assert_eq!(e.watchdog_report().unwrap().violations.len(), 1);

        let e = SimError::Panic {
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "run panicked: boom");
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let e = SimError::from(ScenarioError::ZeroMss);
        assert_eq!(e.source().unwrap().to_string(), "zero MSS");
    }
}
