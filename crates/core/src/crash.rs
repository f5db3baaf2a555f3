//! Crash-bundle capture and replay.
//!
//! When a run fails — a typed [`SimError`] or an outright panic, which
//! [`run`] catches — and [`GuardOptions::bundle_dir`] is set, the run
//! captures everything needed to reproduce the failure into a
//! self-contained directory:
//!
//! ```text
//! crash-<config-digest>/
//!   scenario.json      complete scenario (flows, seed, fault plan, …)
//!   fault_plan.json    the fault plan alone, for quick inspection
//!   crash.json         manifest: error class, message, watchdog report
//!   trace_tail.jsonl   flight-recorder contents up to the abort, when
//!                      the scenario had tracing enabled
//! ```
//!
//! Because the simulator is deterministic, `scenario.json` plus the seed
//! *is* the reproduction: `ccsim replay <dir>` re-runs it and reports
//! whether the failure recurs (and, for clean replays, the outcome
//! digest). The bundle directory name is the scenario's config digest, so
//! re-crashing the same configuration overwrites rather than accumulates.

use crate::codec::{scenario_from_json, scenario_to_json};
use crate::error::SimError;
use crate::observe::scenario_digest;
use crate::outcome::RunOutcome;
use crate::runner::{run, RunOptions};
use crate::scenario::Scenario;
use ccsim_sim::json::{escape, Json, JsonError};
use ccsim_sim::SimTime;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How [`run`](crate::run) behaves around a failure.
#[derive(Debug, Clone, Default)]
pub struct GuardOptions {
    /// Directory to write crash bundles under (created on demand). When
    /// `None`, failures are reported but nothing is written.
    pub bundle_dir: Option<PathBuf>,
    /// Test hook: panic from inside the run once the simulated clock
    /// reaches this instant — how CI proves a forced panic really turns
    /// into a loadable, replayable bundle without planting a bug.
    pub force_panic_at: Option<SimTime>,
}

/// Best-effort text of a panic payload (the common `&str`/`String` cases).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The directory a failure of `scenario` bundles into under `base`.
pub fn bundle_dir(base: &Path, scenario: &Scenario) -> PathBuf {
    base.join(format!("crash-{:016x}", scenario_digest(scenario)))
}

/// Write a bundle for `error` under `base`, returning the bundle path.
pub fn write_bundle(base: &Path, scenario: &Scenario, error: &SimError) -> io::Result<PathBuf> {
    let dir = bundle_dir(base, scenario);
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("scenario.json"), scenario_to_json(scenario))?;
    fs::write(dir.join("fault_plan.json"), scenario.fault.to_json())?;

    let mut manifest = String::with_capacity(256);
    let _ = write!(
        manifest,
        "{{\"schema\":\"ccsim-crash/1\",\"scenario\":\"{}\",\"seed\":{},\
         \"config_digest\":\"{:016x}\",\"error_class\":\"{}\",\"error\":\"{}\"",
        escape(&scenario.name),
        scenario.seed,
        scenario_digest(scenario),
        error.class(),
        escape(&error.to_string())
    );
    if let Some(report) = error.watchdog_report() {
        let _ = write!(
            manifest,
            ",\"checks_run\":{},\"violations\":[",
            report.checks_run
        );
        for (i, v) in report.violations.iter().enumerate() {
            if i > 0 {
                manifest.push(',');
            }
            let _ = write!(
                manifest,
                "{{\"at_ns\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                v.at.as_nanos(),
                v.kind.name(),
                escape(&v.detail)
            );
        }
        manifest.push(']');
    }
    let trace = match error {
        SimError::Invariant { trace, .. } => trace.as_ref(),
        _ => None,
    };
    let _ = write!(
        manifest,
        ",\"trace_records\":{}}}",
        trace.map_or(0, |t| t.records.len())
    );
    fs::write(dir.join("crash.json"), manifest)?;

    if let Some(trace) = trace {
        let mut f = fs::File::create(dir.join("trace_tail.jsonl"))?;
        ccsim_trace::write_jsonl(trace, &mut f)?;
    }
    Ok(dir)
}

/// A loaded crash bundle, ready to replay.
#[derive(Debug)]
pub struct CrashBundle {
    pub dir: PathBuf,
    /// The exact scenario that failed (fault plan and seed included).
    pub scenario: Scenario,
    /// Error class recorded at capture time ("panic", "invariant", …).
    pub error_class: String,
    /// The captured error message.
    pub error: String,
}

/// Why a bundle failed to load.
#[derive(Debug)]
pub enum BundleError {
    Io(io::Error),
    Parse(JsonError),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "cannot read bundle: {e}"),
            BundleError::Parse(e) => write!(f, "malformed bundle: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<io::Error> for BundleError {
    fn from(e: io::Error) -> Self {
        BundleError::Io(e)
    }
}

impl From<JsonError> for BundleError {
    fn from(e: JsonError) -> Self {
        BundleError::Parse(e)
    }
}

impl CrashBundle {
    /// Load a bundle directory written by [`write_bundle`].
    pub fn load(dir: &Path) -> Result<CrashBundle, BundleError> {
        let scenario = scenario_from_json(&fs::read_to_string(dir.join("scenario.json"))?)?;
        let manifest = Json::parse(&fs::read_to_string(dir.join("crash.json"))?)?;
        let field = |key: &str| -> Result<String, BundleError> {
            manifest
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    BundleError::Parse(JsonError {
                        offset: 0,
                        message: format!("crash.json missing \"{key}\""),
                    })
                })
        };
        Ok(CrashBundle {
            dir: dir.to_path_buf(),
            scenario,
            error_class: field("error_class")?,
            error: field("error")?,
        })
    }

    /// Re-run the captured scenario. Deterministic failures recur with
    /// the same typed error; externally-injected ones (a forced panic)
    /// replay clean and yield the outcome the crashed run never produced.
    pub fn replay(&self) -> Result<RunOutcome, SimError> {
        let report = run(&self.scenario, RunOptions::default())?;
        Ok(report
            .outcome
            .expect("a run without stop_at_checkpoint finishes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FlowGroup;
    use ccsim_cca::CcaKind;
    use ccsim_sim::{Bandwidth, SimDuration};

    fn tiny(seed: u64) -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("crash-tiny")
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .seed(seed);
        s.bottleneck = Bandwidth::from_mbps(10);
        s.buffer_bytes = 100_000;
        s.start_jitter = SimDuration::from_millis(100);
        s.warmup = SimDuration::from_secs(1);
        s.duration = SimDuration::from_secs(3);
        s.convergence = None;
        s
    }

    /// Run `s` under `guard`, returning the error and the bundle (if any).
    fn guarded(s: &Scenario, guard: GuardOptions) -> (SimError, Option<PathBuf>) {
        let dir = guard.bundle_dir.as_ref().map(|base| bundle_dir(base, s));
        let opts = RunOptions {
            guard,
            ..RunOptions::default()
        };
        let error = run(s, opts).unwrap_err();
        (error, dir.filter(|d| d.is_dir()))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccsim-crash-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn clean_run_passes_through() {
        let opts = RunOptions::default();
        let out = run(&tiny(1), opts).unwrap().outcome.unwrap();
        assert!(out.events_processed > 0);
    }

    #[test]
    fn forced_panic_is_caught_and_bundled() {
        let base = temp_dir("panic");
        let opts = GuardOptions {
            bundle_dir: Some(base.clone()),
            force_panic_at: Some(SimTime::from_secs(2)),
        };
        let (error, bundle) = guarded(&tiny(2), opts);
        assert!(matches!(error, SimError::Panic { .. }));
        let bundle_dir = bundle.unwrap();
        assert!(bundle_dir.join("scenario.json").is_file());
        assert!(bundle_dir.join("fault_plan.json").is_file());
        assert!(bundle_dir.join("crash.json").is_file());

        let bundle = CrashBundle::load(&bundle_dir).unwrap();
        assert_eq!(bundle.error_class, "panic");
        assert!(bundle.error.contains("forced panic"));
        assert_eq!(bundle.scenario.seed, 2);

        // The panic was injected from outside: the replay runs clean and
        // is deterministic.
        let a = bundle.replay().unwrap();
        let b = bundle.replay().unwrap();
        assert_eq!(a.digest(), b.digest());
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn scenario_error_needs_no_unwind() {
        let base = temp_dir("scenario");
        let opts = GuardOptions {
            bundle_dir: Some(base.clone()),
            force_panic_at: None,
        };
        let bad = Scenario::edge_scale().named("empty"); // no flows
        let (error, bundle) = guarded(&bad, opts);
        assert!(matches!(error, SimError::Scenario(_)));
        let bundle = CrashBundle::load(&bundle.unwrap()).unwrap();
        assert_eq!(bundle.error_class, "scenario");
        // Deterministic failure: the replay reproduces it.
        assert!(bundle.replay().is_err());
        let _ = fs::remove_dir_all(&base);
    }
}
