//! `ccsim` — run ad-hoc congestion-control experiments from the shell.
//!
//! ```text
//! ccsim run   [--setting edge|core] [--bw <mbps>] [--buffer <bytes>]
//!             [--flows <cca>:<count>:<rtt_ms> ...] [--seed N]
//!             [--topology single|dumbbell|parking_lot:<n>|dumbbell_asym]
//!             [--aqm droptail|red|codel|pie] [--ecn]
//!             [--warmup <s>] [--duration <s>] [--jitter <s>]
//!             [--fidelity quick|standard|paper] [--json]
//!             [--metrics <path>] [--quiet]
//!             [--timeline] [--timeline-window <ms>] [--timeline-out <path>]
//!             [--serve <port>]
//! ccsim trace <run flags> [--out <prefix>] [--format jsonl|bin|both]
//!             [--policy keepall|decimate:N|reservoir:K]
//!             [--trace-budget <bytes>] [--queue-every <n>]
//!             [--sync-bin <ms>]
//! ccsim perf  <run flags> [--folded <path>] [--stride <events>]
//! ccsim timeline <run flags> [--window <ms>] [--budget <bytes>]
//!             [--max-flows <n>] [--out <path>] [--format jsonl|cctl]
//!             [--serve <port>]
//! ccsim replay <bundle-dir> [--json] [--quiet]
//! ccsim bisect <a.json> <b.json> [--out <dir>]
//! ccsim campaign run <spec.json> [--workers N] [--ledger <path>] ...
//! ccsim campaign report <ledger.jsonl> [--out <path>] [--html]
//! ccsim campaign diff <baseline.jsonl> <current.jsonl> [--skip-eps]
//! ```
//!
//! `trace` runs the same experiment with the flight recorder enabled,
//! writes `<prefix>.jsonl` / `<prefix>.cctr`, and reports the
//! trace-derived loss-synchronization index and drop burstiness.
//!
//! `perf` runs the same experiment with the digest-inert `ccsim-prof`
//! profiler attached and prints the per-(component class × event kind)
//! attribution matrix, timer-wheel scheduler counters, and subsystem
//! memory accounts; `--folded <path>` writes a folded-stack file for
//! flamegraph tooling and `--stride` tunes the wall-clock sampling
//! stride. The simulated outcome is bit-identical with or without it.
//!
//! `--metrics <path>` additionally observes the run: a Prometheus
//! text-exposition dump is written to `<path>` and a provenance manifest
//! to `<path with extension .manifest.json>`. Observation is inert — the
//! simulated outcome is bit-identical with or without it.
//!
//! `timeline` runs the experiment with the windowed time-series sampler
//! attached (also digest-inert) and prints the capture summary — rows,
//! eviction, time-to-α-fair — plus a unicode JFI trajectory; `--out`
//! exports the retained rows as JSONL or columnar `.cctl`. The same
//! sampler rides along on a plain `run` via `--timeline`
//! (`--timeline-window` tunes the window, `--timeline-out` exports; a
//! `.cctl` extension selects the binary form). `--serve <port>` binds
//! `127.0.0.1:<port>` for the duration of the run and serves the live
//! Prometheus exposition at `/metrics` and the rolling timeline at
//! `/timeline.jsonl`, refreshed at every progress slice.
//!
//! Robustness flags (shared by `run` and `trace`):
//!
//! * `--fault <spec>` (repeatable) schedules a timed link impairment;
//!   specs are `blackout:<at_s>:<dur_s>`, `bw:<at_s>:<mbps>`,
//!   `delay:<at_s>:<ms>`, `loss:<at_s>:<rate>` (rate 0 clears),
//!   `burstloss:<at_s>:<enter>:<exit>`, `reorder:<at_s>:<rate>:<ms>`,
//!   `dup:<at_s>:<rate>`. Fault plans are deterministic for a seed.
//! * `--watchdog` checks runtime invariants (packet conservation, queue
//!   bounds, cwnd sanity, clock monotonicity) at every snapshot slice.
//! * `--crash-dir <dir>` catches failures — typed errors, watchdog
//!   violations, panics — and writes a replayable crash bundle there.
//! * `--force-panic <s>` (testing) panics mid-run at the given simulated
//!   time to exercise the crash path; combine with `--crash-dir`.
//!
//! `replay` loads a crash bundle and re-runs its exact scenario (same
//! seed, same fault plan), reporting whether the failure reproduces.
//!
//! Every run flag composes with every other (metrics, perf, timeline,
//! serve, crash guard, checkpoint, resume), except where a flag would be
//! ignored: `--resume-from` takes no `--flows` and no `trace`, and
//! `--checkpoint-at` does not work with `trace`.
//!
//! Checkpoint/restore (`run` and `perf`): `--checkpoint-at <s>` captures
//! a versioned, digest-stamped snapshot of the full engine state at the
//! first snapshot-slice boundary at or after `<s>` simulated seconds and
//! writes it to `--checkpoint-out` (default `ccsim.ckpt`); the run then
//! continues to its normal end. `ccsim run --resume-from <ckpt>`
//! restores the snapshot (scenario included — no other flags needed) and
//! runs to the horizon, producing an outcome byte-identical to the
//! uninterrupted run. `ccsim bisect a.json b.json` binary-searches two
//! scenarios' checkpoint slices for the first divergent slice.
//!
//! `campaign` drives whole parameter sweeps: `run` expands a JSON spec
//! (scenario template × axes × seeds) onto a worker pool and appends
//! every result to a JSONL ledger, `report` renders a ledger as a
//! Markdown/HTML fidelity report, and `diff` is the regression sentinel
//! comparing two ledgers (determinism breaks, paper-metric drift,
//! events/sec regressions). See `ccsim campaign --help`.
//!
//! Examples:
//!
//! ```sh
//! # The paper's Figure 5 in one line: 25 cubic vs 25 reno on EdgeScale.
//! ccsim run --setting edge --flows cubic:25:20 --flows reno:25:20
//!
//! # A mini-CoreScale BBR fairness probe with self-observability.
//! ccsim run --setting core --bw 1000 --flows bbr:100:20 --duration 20 \
//!     --metrics out.prom
//!
//! # Record a traced run, thinned to a 16 MB budget.
//! ccsim trace --flows reno:10:20 --fidelity quick \
//!     --policy decimate:4 --trace-budget 16000000 --out /tmp/reno10
//! ```

use ccsim::cca::CcaKind;
use ccsim::experiments::crash::bundle_dir;
use ccsim::experiments::{
    run, Checkpoint, CrashBundle, Fidelity, FlowGroup, GuardOptions, LiveState, ObserveOptions,
    Progress, RunOptions, RunOutcome, Scenario, SimError, Timeline, TimelineConfig,
};
use ccsim::fault::{FaultPlan, WatchdogConfig};
use ccsim::net::AqmKind;
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::telemetry::{validate_exposition, RunProgress};
use ccsim::topo::TopologyKind;
use ccsim::trace::{RetentionPolicy, TraceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str = "usage: ccsim run [--setting edge|core] [--bw <mbps>] \
    [--buffer <bytes>] --flows <cca>:<count>:<rtt_ms> [--flows ...] \
    [--topology single|dumbbell|parking_lot:<n>|dumbbell_asym] \
    [--aqm droptail|red|codel|pie] [--ecn] \
    [--seed N] [--warmup <s>] [--duration <s>] [--jitter <s>] \
    [--fidelity quick|standard|paper] [--json] [--metrics <path>] [--quiet] \
    [--timeline] [--timeline-window <ms>] [--timeline-out <path>] \
    [--serve <port>] \
    [--fault <spec> ...] [--watchdog] [--crash-dir <dir>] [--force-panic <s>] \
    [--checkpoint-at <s>] [--checkpoint-out <path>] [--resume-from <ckpt>]\n\
    \x20      ccsim trace <run flags> [--out <prefix>] \
    [--format jsonl|bin|both] [--policy keepall|decimate:N|reservoir:K] \
    [--trace-budget <bytes>] [--queue-every <n>] [--sync-bin <ms>]\n\
    \x20      ccsim perf <run flags> [--folded <path>] [--stride <events>]\n\
    \x20      ccsim timeline <run flags> [--window <ms>] [--budget <bytes>] \
    [--max-flows <n>] [--out <path>] [--format jsonl|cctl] [--serve <port>]\n\
    \x20      ccsim replay <bundle-dir> [--json] [--quiet]\n\
    \x20      ccsim bisect <a.json> <b.json> [--out <dir>]\n\
    \x20      ccsim campaign run|report|diff ... (ccsim campaign --help)\n\
    ccas: reno, cubic, bbr, vegas\n\
    fault specs: blackout:<at_s>:<dur_s>  bw:<at_s>:<mbps>  delay:<at_s>:<ms>\n\
    \x20            loss:<at_s>:<rate>  burstloss:<at_s>:<enter>:<exit>\n\
    \x20            reorder:<at_s>:<rate>:<ms>  dup:<at_s>:<rate>";

/// Bad invocation: complaint + usage to stderr, exit 2.
fn usage(err: &str) -> ! {
    eprintln!("{err}\n\n{USAGE}");
    std::process::exit(2);
}

/// Requested help: usage to stdout, exit 0.
fn help() -> ! {
    println!("{USAGE}");
    println!(
        "\n--metrics <path> writes a Prometheus metrics dump to <path> and a\n\
         run manifest to <path>.manifest.json; the simulated outcome is\n\
         unchanged. --quiet suppresses the live progress line.\n\
         timeline attaches the windowed time-series sampler (digest-inert)\n\
         and prints the capture summary plus a unicode JFI trajectory;\n\
         --out exports the retained rows (--format jsonl|cctl). The same\n\
         sampler rides on run via --timeline/--timeline-window/--timeline-out\n\
         (a .cctl extension selects the binary form). --serve <port> serves\n\
         the live run at http://127.0.0.1:<port>/metrics and\n\
         /timeline.jsonl until the run completes.\n\
         perf runs the same experiment with the ccsim-prof event-attribution\n\
         profiler attached (digest-inert) and prints the per-(class x kind)\n\
         wall-time/event matrix, timer-wheel counters, and memory accounts;\n\
         --folded <path> additionally writes a folded-stack file for\n\
         flamegraph tooling, --stride <events> sets the wall-clock sampling\n\
         stride (default {}).",
        ccsim::prof::DEFAULT_STRIDE
    );
    std::process::exit(0);
}

fn parse_policy(spec: &str) -> RetentionPolicy {
    if spec == "keepall" {
        return RetentionPolicy::KeepAll;
    }
    if let Some(n) = spec.strip_prefix("decimate:") {
        let n: u32 = n.parse().unwrap_or_else(|_| usage("bad decimate factor"));
        return RetentionPolicy::Decimate(n.max(1));
    }
    if let Some(k) = spec.strip_prefix("reservoir:") {
        let k: u32 = k.parse().unwrap_or_else(|_| usage("bad reservoir size"));
        return RetentionPolicy::Reservoir(k.max(1));
    }
    usage(&format!("bad --policy '{spec}'"));
}

fn parse_flows(spec: &str) -> FlowGroup {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        usage(&format!(
            "bad --flows spec '{spec}' (want cca:count:rtt_ms)"
        ));
    }
    let cca: CcaKind = parts[0]
        .parse()
        .unwrap_or_else(|e| usage(&format!("bad CCA in '{spec}': {e}")));
    let count: u32 = parts[1]
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad count in '{spec}'")));
    let rtt_ms: u64 = parts[2]
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad rtt in '{spec}'")));
    FlowGroup::new(cca, count, SimDuration::from_millis(rtt_ms))
}

/// Parse one `--fault` spec onto the plan (times are seconds, possibly
/// fractional).
fn parse_fault(plan: FaultPlan, spec: &str) -> FaultPlan {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> f64 {
        s.parse()
            .unwrap_or_else(|_| usage(&format!("bad number '{s}' in --fault '{spec}'")))
    };
    let at = |parts: &[&str]| SimTime::from_secs_f64(num(parts[1]));
    match (parts[0], parts.len()) {
        ("blackout", 3) => plan.blackout(at(&parts), SimDuration::from_secs_f64(num(parts[2]))),
        ("bw", 3) => plan.set_bandwidth(at(&parts), Bandwidth::from_mbps(num(parts[2]) as u64)),
        ("delay", 3) => {
            plan.set_extra_delay(at(&parts), SimDuration::from_secs_f64(num(parts[2]) / 1e3))
        }
        ("loss", 3) => {
            let rate = num(parts[2]);
            if rate == 0.0 {
                plan.clear_loss(at(&parts))
            } else {
                plan.iid_loss(at(&parts), rate)
            }
        }
        ("burstloss", 4) => plan.burst_loss(at(&parts), num(parts[2]), num(parts[3])),
        ("reorder", 4) => plan.reorder(
            at(&parts),
            num(parts[2]),
            SimDuration::from_secs_f64(num(parts[3]) / 1e3),
        ),
        ("dup", 3) => plan.duplicate(at(&parts), num(parts[2])),
        _ => usage(&format!("bad --fault spec '{spec}' (see fault specs)")),
    }
}

/// Everything the flag parser produces. The `run`, `trace`, `perf`, and
/// `timeline` subcommands share one parser: `trace` is `run` plus the
/// trace-only flags, `perf` is `run` plus the profiler flags, `timeline`
/// is `run` plus the sampler flags; mode-specific flags are rejected
/// under the other modes.
struct Cli {
    tracing: bool,
    perf: bool,
    timeline_cmd: bool,
    scenario: Scenario,
    json: bool,
    quiet: bool,
    metrics_out: Option<String>,
    out: String,
    format: String,
    sync_bin: SimDuration,
    crash_dir: Option<PathBuf>,
    force_panic: Option<SimTime>,
    folded_out: Option<String>,
    stride: u64,
    checkpoint_at: Option<SimTime>,
    checkpoint_out: PathBuf,
    resume_from: Option<PathBuf>,
    timeline: Option<TimelineConfig>,
    timeline_out: Option<String>,
    timeline_format: String,
    serve_port: Option<u16>,
}

fn parse_cli(args: &[String]) -> Cli {
    if args
        .iter()
        .any(|a| matches!(a.as_str(), "--help" | "-h" | "help"))
    {
        help();
    }
    let (tracing, perf, timeline_cmd) = match args.first().map(String::as_str) {
        Some("run") => (false, false, false),
        Some("trace") => (true, false, false),
        Some("perf") => (false, true, false),
        Some("timeline") => (false, false, true),
        _ => usage("expected subcommand 'run', 'trace', 'perf', or 'timeline'"),
    };
    let mut scenario = Scenario::edge_scale().named("cli");
    let mut flows = Vec::new();
    let mut json = false;
    let mut quiet = false;
    let mut metrics_out = None;
    let mut fidelity = None;
    let mut out = String::from("trace");
    let mut format = String::from("both");
    let mut trace_cfg = TraceConfig::standard();
    let mut sync_bin = SimDuration::from_millis(10);
    let mut fault = FaultPlan::none();
    let mut watchdog = false;
    let mut crash_dir = None;
    let mut force_panic = None;
    let mut folded_out = None;
    let mut stride = ccsim::prof::DEFAULT_STRIDE;
    let mut checkpoint_at = None;
    let mut checkpoint_out = PathBuf::from("ccsim.ckpt");
    let mut resume_from = None;
    // The sampler is always on under the timeline subcommand; `run` opts
    // in with --timeline (or any --timeline-* flag).
    let mut timeline = timeline_cmd.then(TimelineConfig::default);
    let mut timeline_out = None;
    let mut timeline_format = String::from("jsonl");
    let mut serve_port = None;
    let mut i = 1;
    while i < args.len() {
        let take = |i: &mut usize| -> &String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| usage("missing value"))
        };
        match args[i].as_str() {
            // ----- flags shared by `run` and `trace` ---------------------
            "--setting" => {
                scenario = match take(&mut i).as_str() {
                    "edge" => Scenario::edge_scale(),
                    "core" => Scenario::core_scale(),
                    other => usage(&format!("bad --setting {other}")),
                }
                .named("cli");
            }
            "--bw" => {
                let mbps: u64 = take(&mut i).parse().unwrap_or_else(|_| usage("bad --bw"));
                scenario.bottleneck = Bandwidth::from_mbps(mbps);
            }
            "--buffer" => {
                scenario.buffer_bytes = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --buffer"));
            }
            "--topology" => {
                let name = take(&mut i);
                scenario.topology = TopologyKind::parse(name)
                    .unwrap_or_else(|e| usage(&format!("bad --topology {name}: {e}")));
            }
            "--aqm" => {
                let name = take(&mut i);
                scenario.aqm =
                    AqmKind::parse(name).unwrap_or_else(|| usage(&format!("bad --aqm {name}")));
            }
            "--ecn" => scenario.ecn = true,
            "--flows" => flows.push(parse_flows(take(&mut i))),
            "--seed" => {
                scenario.seed = take(&mut i).parse().unwrap_or_else(|_| usage("bad --seed"));
            }
            "--warmup" => {
                scenario.warmup = SimDuration::from_secs(
                    take(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("bad --warmup")),
                );
            }
            "--duration" => {
                scenario.duration = SimDuration::from_secs(
                    take(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("bad --duration")),
                );
            }
            "--jitter" => {
                scenario.start_jitter = SimDuration::from_secs(
                    take(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("bad --jitter")),
                );
            }
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--metrics" => metrics_out = Some(take(&mut i).clone()),
            "--timeline" => {
                timeline.get_or_insert_with(TimelineConfig::default);
            }
            "--timeline-window" => {
                let ms: u64 = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --timeline-window"));
                if ms == 0 {
                    usage("--timeline-window must be at least 1 ms");
                }
                timeline.get_or_insert_with(TimelineConfig::default).window =
                    SimDuration::from_millis(ms);
            }
            "--timeline-out" => {
                let path = take(&mut i).clone();
                if path.ends_with(".cctl") {
                    timeline_format = String::from("cctl");
                }
                timeline_out = Some(path);
                timeline.get_or_insert_with(TimelineConfig::default);
            }
            "--serve" => {
                serve_port = Some(
                    take(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("bad --serve port")),
                );
            }
            "--fault" => fault = parse_fault(fault, take(&mut i)),
            "--watchdog" => watchdog = true,
            "--crash-dir" => crash_dir = Some(PathBuf::from(take(&mut i))),
            "--force-panic" => {
                let secs: f64 = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --force-panic"));
                force_panic = Some(SimTime::from_secs_f64(secs));
            }
            "--checkpoint-at" => {
                let secs: f64 = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --checkpoint-at"));
                checkpoint_at = Some(SimTime::from_secs_f64(secs));
            }
            "--checkpoint-out" => checkpoint_out = PathBuf::from(take(&mut i)),
            "--resume-from" => resume_from = Some(PathBuf::from(take(&mut i))),
            "--fidelity" => {
                fidelity = Some(match take(&mut i).as_str() {
                    "quick" => Fidelity::Quick,
                    "standard" => Fidelity::Standard,
                    "paper" => Fidelity::Paper,
                    other => usage(&format!("bad --fidelity {other}")),
                });
            }
            // ----- perf-only flags ---------------------------------------
            "--folded" if perf => folded_out = Some(take(&mut i).clone()),
            "--stride" if perf => {
                stride = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --stride"));
                if stride == 0 {
                    usage("--stride must be at least 1");
                }
            }
            other if matches!(other, "--folded" | "--stride") => {
                usage(&format!("{other} is only valid with the perf subcommand"))
            }
            // ----- timeline-only flags -----------------------------------
            "--window" if timeline_cmd => {
                let ms: u64 = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --window"));
                if ms == 0 {
                    usage("--window must be at least 1 ms");
                }
                timeline.get_or_insert_with(TimelineConfig::default).window =
                    SimDuration::from_millis(ms);
            }
            "--budget" if timeline_cmd => {
                timeline
                    .get_or_insert_with(TimelineConfig::default)
                    .budget_bytes = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --budget"));
            }
            "--max-flows" if timeline_cmd => {
                timeline
                    .get_or_insert_with(TimelineConfig::default)
                    .max_flows = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --max-flows"));
            }
            "--out" if timeline_cmd => {
                let path = take(&mut i).clone();
                if path.ends_with(".cctl") {
                    timeline_format = String::from("cctl");
                }
                timeline_out = Some(path);
            }
            "--format" if timeline_cmd => {
                timeline_format = take(&mut i).clone();
                if !matches!(timeline_format.as_str(), "jsonl" | "cctl") {
                    usage(&format!("bad --format {timeline_format} (want jsonl|cctl)"));
                }
            }
            other if matches!(other, "--window" | "--budget" | "--max-flows") => usage(&format!(
                "{other} is only valid with the timeline subcommand"
            )),
            // ----- trace-only flags --------------------------------------
            "--out" if tracing => out = take(&mut i).clone(),
            "--format" if tracing => {
                format = take(&mut i).clone();
                if !matches!(format.as_str(), "jsonl" | "bin" | "both") {
                    usage(&format!("bad --format {format}"));
                }
            }
            "--policy" if tracing => trace_cfg.policy = parse_policy(take(&mut i)),
            "--trace-budget" if tracing => {
                trace_cfg.max_bytes = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --trace-budget"));
            }
            "--queue-every" if tracing => {
                trace_cfg.queue_sample_every = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --queue-every"));
            }
            "--sync-bin" if tracing => {
                sync_bin = SimDuration::from_millis(
                    take(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("bad --sync-bin")),
                );
            }
            other
                if matches!(
                    other,
                    "--out"
                        | "--format"
                        | "--policy"
                        | "--trace-budget"
                        | "--queue-every"
                        | "--sync-bin"
                ) =>
            {
                usage(&format!(
                    "{other} is only valid with the trace (or timeline) subcommand"
                ))
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if resume_from.is_some() {
        // The checkpoint carries its own scenario; re-specifying one would
        // silently be ignored.
        if !flows.is_empty() || tracing {
            usage("--resume-from runs the checkpoint's own scenario (no --flows, not with trace)");
        }
    } else {
        if flows.is_empty() {
            usage("at least one --flows group required");
        }
        scenario = scenario.flows(flows);
        if let Some(f) = fidelity {
            scenario = scenario.fidelity(f);
        }
        if tracing {
            scenario = scenario.traced(trace_cfg);
        }
        if scenario.warmup < scenario.start_jitter {
            scenario.start_jitter = scenario.warmup;
        }
        scenario = scenario.faulted(fault);
        if watchdog {
            scenario = scenario.watched(WatchdogConfig::every_slice());
        }
        if let Err(e) = scenario.validate() {
            usage(&format!("invalid scenario: {e}"));
        }
    }
    if checkpoint_at.is_some() && tracing {
        usage("--checkpoint-at cannot be combined with trace (flight-recorder rings are not checkpointed)");
    }
    Cli {
        tracing,
        perf,
        timeline_cmd,
        scenario,
        json,
        quiet,
        metrics_out,
        out,
        format,
        sync_bin,
        crash_dir,
        force_panic,
        folded_out,
        stride,
        checkpoint_at,
        checkpoint_out,
        resume_from,
        timeline,
        timeline_out,
        timeline_format,
        serve_port,
    }
}

const CAMPAIGN_USAGE: &str = "usage: ccsim campaign run <spec.json> [--workers N] \
    [--ledger <path>] [--report <path>] [--html] [--crash-dir <dir>] \
    [--bench <path>] [--profile] [--quiet] [--resume <ledger>] \
    [--timeline] [--timeline-window <ms>] [--serve <port>] \
    [--job-budget <s>] [--heartbeat-timeout <s>] [--retries N] \
    [--backoff <ms>] [--force-panic-job <substr>] [--force-hang-job <substr>]\n\
    \x20      ccsim campaign report <ledger.jsonl> [--out <path>] [--html]\n\
    \x20      ccsim campaign diff <baseline.jsonl> <current.jsonl> \
    [--eps-tol <frac>] [--skip-eps]";

/// Bad campaign invocation: complaint + usage to stderr, exit 2.
fn campaign_usage(err: &str) -> ! {
    eprintln!("{err}\n\n{CAMPAIGN_USAGE}");
    std::process::exit(2);
}

/// Requested campaign help: usage to stdout, exit 0.
fn campaign_help() -> ! {
    println!("{CAMPAIGN_USAGE}");
    println!(
        "\nrun expands the spec (scenario template x axes x seeds) on a worker\n\
         pool and appends every result to an append-only JSONL ledger\n\
         (default <campaign-name>.ledger.jsonl). Exit 0 when every job\n\
         succeeded, 1 otherwise. --report also renders the fidelity report;\n\
         --bench writes a machine-readable run summary. --profile attaches\n\
         the digest-inert ccsim-prof profiler to every job, embedding a\n\
         Profile section and per-event-kind events/s in each ledger entry\n\
         (what the sentinel's per-kind eps gate compares). --timeline\n\
         attaches the digest-inert windowed sampler to every job, filling\n\
         each entry's convergence_time (time-to-α-fair) — what the\n\
         sentinel's convergence gate and the report's convergence columns\n\
         read; --timeline-window tunes the window. --serve <port> serves\n\
         the campaign live at http://127.0.0.1:<port>/metrics and\n\
         /timeline.jsonl (the most recently progressing job wins).\n\
         report renders a ledger as Markdown (or --html) to --out or stdout.\n\
         diff is the regression sentinel: it compares two ledgers of the\n\
         same campaign and exits 1 on any finding — outcome-digest change\n\
         (determinism break), paper-metric drift beyond the baseline's\n\
         stored tolerances, or an events/sec regression beyond --eps-tol\n\
         (default from the baseline header, 10%). --skip-eps disables the\n\
         throughput gate for cross-machine comparisons.\n\
         Supervision: --job-budget caps each attempt's wall-clock seconds;\n\
         --heartbeat-timeout declares an attempt hung after that many\n\
         seconds without a progress heartbeat; failed attempts retry up to\n\
         --retries times (linear --backoff ms between attempts) before the\n\
         job is quarantined. The campaign always runs to completion and\n\
         reports quarantined jobs at the end.\n\
         --resume <ledger> reloads a prior (possibly killed) campaign's\n\
         ledger, truncates a torn final line, skips every job whose config\n\
         digest already has a successful entry, and appends the rest to\n\
         the same file. --force-panic-job/--force-hang-job are testing\n\
         hooks: jobs whose name contains the substring panic or hang at\n\
         their first progress report."
    );
    std::process::exit(0);
}

/// Exit 1 with a message — runtime (not usage) failures.
fn fail(msg: impl AsRef<str>) -> ! {
    eprintln!("{}", msg.as_ref());
    std::process::exit(1);
}

fn load_ledger(path: &str) -> ccsim::campaign::Ledger {
    ccsim::campaign::Ledger::load(Path::new(path))
        .unwrap_or_else(|e| fail(format!("cannot load ledger {path}: {e}")))
}

/// The `campaign run` subcommand.
fn campaign_run(args: &[String]) -> ! {
    use ccsim::campaign::{
        run_campaign_supervised, CampaignSpec, ExecutorOptions, Ledger, LedgerEntry, LedgerWriter,
        SupervisorOptions,
    };
    use ccsim::telemetry::CampaignProgress;

    let mut spec_path = None;
    let mut opts = ExecutorOptions::default();
    let mut sup = SupervisorOptions::default();
    let mut ledger_path = None;
    let mut report_path = None;
    let mut bench_path = None;
    let mut resume_path: Option<String> = None;
    let mut serve_port: Option<u16> = None;
    let mut html = false;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> &String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| campaign_usage("missing value"))
        };
        match args[i].as_str() {
            "--workers" => {
                opts.workers = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| campaign_usage("bad --workers"));
            }
            "--ledger" => ledger_path = Some(take(&mut i).clone()),
            "--report" => report_path = Some(take(&mut i).clone()),
            "--bench" => bench_path = Some(take(&mut i).clone()),
            "--crash-dir" => opts.crash_dir = Some(PathBuf::from(take(&mut i))),
            "--profile" => opts.profile = true,
            "--timeline" => {
                opts.timeline.get_or_insert_with(TimelineConfig::default);
            }
            "--timeline-window" => {
                let ms: u64 = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| campaign_usage("bad --timeline-window"));
                if ms == 0 {
                    campaign_usage("--timeline-window must be at least 1 ms");
                }
                opts.timeline
                    .get_or_insert_with(TimelineConfig::default)
                    .window = SimDuration::from_millis(ms);
            }
            "--serve" => {
                serve_port = Some(
                    take(&mut i)
                        .parse()
                        .unwrap_or_else(|_| campaign_usage("bad --serve port")),
                );
            }
            "--resume" => resume_path = Some(take(&mut i).clone()),
            "--job-budget" => {
                let secs: f64 = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| campaign_usage("bad --job-budget"));
                sup.job_budget = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--heartbeat-timeout" => {
                let secs: f64 = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| campaign_usage("bad --heartbeat-timeout"));
                sup.heartbeat_timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--retries" => {
                sup.max_retries = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| campaign_usage("bad --retries"));
            }
            "--backoff" => {
                let ms: u64 = take(&mut i)
                    .parse()
                    .unwrap_or_else(|_| campaign_usage("bad --backoff"));
                sup.backoff = std::time::Duration::from_millis(ms);
            }
            "--force-panic-job" => sup.force_panic_jobs = Some(take(&mut i).clone()),
            "--force-hang-job" => sup.force_hang_jobs = Some(take(&mut i).clone()),
            "--html" => html = true,
            "--quiet" => quiet = true,
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other.to_string());
            }
            other => campaign_usage(&format!("unknown campaign run argument {other}")),
        }
        i += 1;
    }
    let spec_path = spec_path.unwrap_or_else(|| campaign_usage("campaign run needs a spec file"));
    if resume_path.is_some() && ledger_path.is_some() {
        campaign_usage("--resume appends to the given ledger; --ledger would name a second one");
    }
    let text = std::fs::read_to_string(&spec_path)
        .unwrap_or_else(|e| fail(format!("cannot read spec {spec_path}: {e}")));
    let spec = CampaignSpec::from_json(&text)
        .unwrap_or_else(|e| fail(format!("bad campaign spec {spec_path}: {e}")));
    let mut jobs = spec
        .jobs()
        .unwrap_or_else(|e| fail(format!("cannot expand campaign: {e}")));
    let total_jobs = jobs.len();
    let (ledger_path, writer) = match &resume_path {
        Some(path) => {
            // Skip every job whose config digest already has a successful
            // entry, then append the remainder to the same file (torn
            // final line truncated first).
            let prior = Ledger::load(Path::new(path))
                .unwrap_or_else(|e| fail(format!("cannot load resume ledger {path}: {e}")));
            if prior.campaign != spec.name {
                fail(format!(
                    "resume ledger {path} is for campaign \"{}\", spec is \"{}\"",
                    prior.campaign, spec.name
                ));
            }
            let done = prior.completed_digests();
            jobs.retain(|j| {
                let digest = format!(
                    "{:016x}",
                    ccsim::experiments::observe::scenario_digest(&j.scenario)
                );
                !done.contains(&digest)
            });
            eprintln!(
                "resuming campaign {}: {} of {total_jobs} jobs already complete, {} to run",
                spec.name,
                total_jobs - jobs.len(),
                jobs.len()
            );
            let writer = LedgerWriter::resume(Path::new(path))
                .unwrap_or_else(|e| fail(format!("cannot reopen ledger {path}: {e}")));
            (path.clone(), writer)
        }
        None => {
            let path = ledger_path.unwrap_or_else(|| format!("{}.ledger.jsonl", spec.name));
            let writer = LedgerWriter::create(
                Path::new(&path),
                &spec.name,
                &spec.tolerances,
                &spec.expectations,
            )
            .unwrap_or_else(|e| fail(format!("cannot create ledger {path}: {e}")));
            (path, writer)
        }
    };

    eprintln!(
        "campaign {}: {} jobs on {} workers -> {ledger_path}",
        spec.name,
        jobs.len(),
        opts.workers
    );
    // Bind before dispatching jobs so the endpoint is up for the whole
    // campaign; every worker publishes through the shared state.
    let serve_handle = serve_port.map(|port| {
        let state = std::sync::Arc::new(LiveState::new());
        opts.live = Some(std::sync::Arc::clone(&state));
        let handle = ccsim::experiments::serve(port, std::sync::Arc::clone(&state))
            .unwrap_or_else(|e| fail(format!("cannot bind --serve port {port}: {e}")));
        eprintln!(
            "serving http://{0}/metrics and http://{0}/timeline.jsonl for the campaign",
            handle.addr()
        );
        (state, handle)
    });
    let progress = (!quiet).then(|| CampaignProgress::new(&spec.name, jobs.len()));
    // The ledger is appended in completion order from worker threads; a
    // write failure is recorded and reported once at the end.
    let sink = std::sync::Mutex::new((writer, None::<std::io::Error>));
    let results = run_campaign_supervised(jobs, &opts, &sup, |r| {
        let entry = LedgerEntry::from_result(r);
        let mut sink = sink.lock().unwrap();
        if sink.1.is_none() {
            if let Err(e) = sink.0.append(&entry) {
                sink.1 = Some(e);
            }
        }
        if let Some(p) = &progress {
            p.job_done(&entry.job, entry.events_processed, entry.ok());
        }
    });
    if let Some(p) = &progress {
        p.finish();
    }
    if let Some((state, handle)) = serve_handle {
        eprintln!(
            "live endpoint served {} request(s); shutting down",
            state.hits()
        );
        handle.stop();
    }
    if let Some(e) = sink.into_inner().unwrap().1 {
        fail(format!("ledger write failed: {e}"));
    }

    let failed: Vec<_> = results.iter().filter(|r| r.run.is_err()).collect();
    for r in &failed {
        eprintln!(
            "{} {} after {} attempt{}: {}{}",
            if r.quarantined {
                "QUARANTINED"
            } else {
                "FAILED"
            },
            r.job.name,
            r.attempts,
            if r.attempts == 1 { "" } else { "s" },
            r.run.as_ref().err().unwrap(),
            r.crash_bundle
                .as_ref()
                .map(|p| format!(" (replay with: ccsim replay {})", p.display()))
                .unwrap_or_default()
        );
    }
    if let Some(path) = &bench_path {
        let ledger = load_ledger(&ledger_path);
        // events_per_sec divides by engine dispatch time only (scenario
        // build, warmup slicing, and export wall time excluded) so the
        // number is comparable with the sentinel's eps gate; wall_secs
        // stays in the summary as the end-to-end record.
        let (events, wall, dispatch): (u64, f64, f64) = ledger
            .ok_entries()
            .map(|e| {
                (
                    e.events_processed,
                    e.wall_secs,
                    e.manifest.as_ref().map_or(0.0, |m| m.dispatch_secs),
                )
            })
            .fold((0, 0.0, 0.0), |(ev, w, d), (e, ws, ds)| {
                (ev + e, w + ws, d + ds)
            });
        // With --profile attached, also record the worst memory-per-flow
        // across the campaign's jobs — the megascale headline number and
        // the input to CI's per-flow memory ceiling.
        let peak_mem = ledger
            .ok_entries()
            .filter_map(|e| {
                let p = e.manifest.as_ref()?.profile.as_ref()?;
                (p.flows > 0).then(|| (p.memory_total_bytes(), p.flows))
            })
            .max_by(|a, b| {
                let pf = |(bytes, flows): &(u64, u32)| *bytes as f64 / f64::from(*flows);
                pf(a).total_cmp(&pf(b))
            });
        let mem_fields = peak_mem.map_or_else(String::new, |(bytes, flows)| {
            format!(
                ",\"memory_bytes_peak\":{bytes},\"memory_peak_flows\":{flows},\
                 \"memory_per_flow_bytes\":{}",
                ccsim::sim::json::json_f64(bytes as f64 / f64::from(flows))
            )
        });
        let summary = format!(
            "{{\"campaign\":\"{}\",\"jobs\":{},\"failed\":{},\"events\":{events},\
             \"wall_secs\":{},\"dispatch_secs\":{},\"events_per_sec\":{}{mem_fields}}}",
            spec.name,
            results.len(),
            failed.len(),
            ccsim::sim::json::json_f64(wall),
            ccsim::sim::json::json_f64(dispatch),
            ccsim::sim::json::json_f64(ccsim::sim::json::safe_rate(events as f64, dispatch)),
        );
        std::fs::write(path, summary).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &report_path {
        write_campaign_report(&load_ledger(&ledger_path), path, html);
    }
    std::process::exit(if failed.is_empty() { 0 } else { 1 });
}

fn write_campaign_report(ledger: &ccsim::campaign::Ledger, path: &str, html: bool) {
    let rendered = if html {
        ccsim::campaign::report::html(ledger)
    } else {
        ccsim::campaign::report::markdown(ledger)
    };
    if path == "-" {
        print!("{rendered}");
    } else {
        std::fs::write(path, rendered)
            .unwrap_or_else(|e| fail(format!("cannot write report {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// The `campaign report` subcommand.
fn campaign_report(args: &[String]) -> ! {
    let mut ledger_path = None;
    let mut out = String::from("-");
    let mut html = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args
                    .get(i)
                    .unwrap_or_else(|| campaign_usage("missing value"))
                    .clone();
            }
            "--html" => html = true,
            other if ledger_path.is_none() && !other.starts_with('-') => {
                ledger_path = Some(other.to_string());
            }
            other => campaign_usage(&format!("unknown campaign report argument {other}")),
        }
        i += 1;
    }
    let ledger_path =
        ledger_path.unwrap_or_else(|| campaign_usage("campaign report needs a ledger file"));
    write_campaign_report(&load_ledger(&ledger_path), &out, html);
    std::process::exit(0);
}

/// The `campaign diff` subcommand — the regression sentinel.
fn campaign_diff(args: &[String]) -> ! {
    let mut paths = Vec::new();
    let mut opts = ccsim::campaign::DiffOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--eps-tol" => {
                i += 1;
                opts.eps_tol = Some(
                    args.get(i)
                        .unwrap_or_else(|| campaign_usage("missing value"))
                        .parse()
                        .unwrap_or_else(|_| campaign_usage("bad --eps-tol")),
                );
            }
            "--skip-eps" => opts.check_eps = false,
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => campaign_usage(&format!("unknown campaign diff argument {other}")),
        }
        i += 1;
    }
    if paths.len() != 2 {
        campaign_usage("campaign diff needs exactly two ledger files");
    }
    let baseline = load_ledger(&paths[0]);
    let current = load_ledger(&paths[1]);
    let report = ccsim::campaign::diff(&baseline, &current, &opts);
    print!("{}", report.render());
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// The `campaign` subcommand family: run, report, diff.
fn campaign(args: &[String]) -> ! {
    if args.iter().any(|a| matches!(a.as_str(), "--help" | "-h")) {
        campaign_help();
    }
    match args.get(1).map(String::as_str) {
        Some("run") => campaign_run(&args[2..]),
        Some("report") => campaign_report(&args[2..]),
        Some("diff") => campaign_diff(&args[2..]),
        Some(other) => campaign_usage(&format!(
            "unknown campaign subcommand '{other}' (want run, report, or diff)"
        )),
        None => campaign_usage("campaign needs a subcommand: run, report, or diff"),
    }
}

/// Report a captured checkpoint (or its absence) after a
/// `--checkpoint-at` run.
fn write_checkpoint(cp: &Option<Checkpoint>, out: &Path, requested: SimTime) {
    match cp {
        Some(cp) => {
            cp.write_file(out).unwrap_or_else(|e| {
                fail(format!("cannot write checkpoint {}: {e}", out.display()))
            });
            eprintln!(
                "wrote {} ({} bytes, t={}, state digest {:016x})",
                out.display(),
                cp.encoded_len(),
                SimTime::from_nanos(cp.taken_at_nanos),
                cp.state_digest(),
            );
        }
        None => eprintln!("no checkpoint written: the run ended before t={requested}"),
    }
}

/// The `bisect` subcommand: binary-search two scenarios' checkpoint
/// slices for the first divergent engine state.
fn bisect(args: &[String]) -> ! {
    use ccsim::experiments::{bisect_divergence, scenario_from_json};
    let mut paths = Vec::new();
    let mut out_dir: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| usage("missing value")),
                ));
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => usage(&format!("unknown bisect argument {other}")),
        }
        i += 1;
    }
    if paths.len() != 2 {
        usage("bisect needs exactly two scenario JSON files");
    }
    let load = |p: &str| -> Scenario {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| fail(format!("cannot read {p}: {e}")));
        scenario_from_json(&text).unwrap_or_else(|e| fail(format!("bad scenario {p}: {e}")))
    };
    let a = load(&paths[0]);
    let b = load(&paths[1]);
    eprintln!("bisecting '{}' vs '{}'...", a.name, b.name);
    let mut probes = 0usize;
    let outcome = bisect_divergence(&a, &b, &mut |slice, at, diverged| {
        probes += 1;
        eprintln!(
            "  probe {probes}: slice {slice} (t={at}) -> {}",
            if diverged { "diverges" } else { "identical" }
        );
    })
    .unwrap_or_else(|e| fail(format!("bisect failed: {e}")));
    match outcome.first_divergence {
        None => {
            println!(
                "identical: engine states agree at all {} checkpoint slices",
                outcome.boundaries.len()
            );
            std::process::exit(0);
        }
        Some(d) => {
            println!(
                "first divergent slice: {} of {} (t={})",
                d.slice,
                outcome.boundaries.len(),
                d.at
            );
            println!(
                "state digests   : {:016x} vs {:016x}",
                d.digest_a, d.digest_b
            );
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
                for (name, cp) in [
                    ("diverge-a.ckpt", &d.checkpoint_a),
                    ("diverge-b.ckpt", &d.checkpoint_b),
                ] {
                    let path = dir.join(name);
                    cp.write_file(&path)
                        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
                    println!("wrote {}", path.display());
                }
            }
            std::process::exit(1);
        }
    }
}

/// The `replay` subcommand: load a crash bundle, re-run its scenario.
fn replay(args: &[String]) -> ! {
    let mut dir = None;
    let mut json = false;
    let mut quiet = false;
    for a in &args[1..] {
        match a.as_str() {
            "--json" => json = true,
            "--quiet" => quiet = true,
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => usage(&format!("unknown replay argument {other}")),
        }
    }
    let dir = dir.unwrap_or_else(|| usage("replay needs a bundle directory"));
    let bundle = CrashBundle::load(&dir).unwrap_or_else(|e| {
        eprintln!("cannot load crash bundle {}: {e}", dir.display());
        std::process::exit(1);
    });
    eprintln!(
        "replaying {} (seed {}, {} fault actions; captured failure: [{}] {})",
        bundle.scenario.name,
        bundle.scenario.seed,
        bundle.scenario.fault.sorted_actions().len(),
        bundle.error_class,
        bundle.error
    );
    let mut progress = (!quiet).then(|| RunProgress::new("replay"));
    let mut on_progress = |p: &Progress| {
        if let Some(prog) = &mut progress {
            prog.update(p.fraction, p.events_processed);
        }
    };
    let opts = RunOptions {
        progress: Some(&mut on_progress),
        ..RunOptions::default()
    };
    match run(&bundle.scenario, opts) {
        Ok(report) => {
            let outcome = report
                .outcome
                .expect("a run without stop_at_checkpoint finishes");
            if let Some(prog) = &mut progress {
                prog.finish(outcome.events_processed);
            }
            if json {
                println!("{}", outcome.to_json());
            } else {
                print_human(&outcome);
            }
            println!("outcome digest  : {:016x}", outcome.digest());
            println!("replay clean    : captured failure did not reproduce");
            std::process::exit(0);
        }
        Err(e) => {
            println!("failure reproduced: {e}");
            std::process::exit(3);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        if args.iter().any(|a| matches!(a.as_str(), "--help" | "-h")) {
            help();
        }
        replay(&args);
    }
    if args.first().map(String::as_str) == Some("campaign") {
        campaign(&args);
    }
    if args.first().map(String::as_str) == Some("bisect") {
        if args.iter().any(|a| matches!(a.as_str(), "--help" | "-h")) {
            help();
        }
        bisect(&args);
    }
    let cli = parse_cli(&args);
    // `--resume-from` runs the checkpoint's own scenario.
    let resume = cli.resume_from.as_ref().map(|path| {
        let cp = Checkpoint::read_file(path)
            .unwrap_or_else(|e| fail(format!("cannot load checkpoint {}: {e}", path.display())));
        let scenario = cp
            .scenario()
            .unwrap_or_else(|e| fail(format!("bad checkpoint {}: {e}", path.display())));
        eprintln!(
            "resuming {} at t={} ({} snapshot bytes, state digest {:016x})...",
            scenario.name,
            SimTime::from_nanos(cp.taken_at_nanos),
            cp.encoded_len(),
            cp.state_digest(),
        );
        (cp, scenario)
    });
    let scenario = resume.as_ref().map_or(&cli.scenario, |(_, s)| s);
    if resume.is_none() {
        eprintln!(
            "running {} flows on {} (buffer {:.2} MB, warmup {}, duration {})...",
            scenario.flow_count(),
            scenario.bottleneck,
            scenario.buffer_bytes as f64 / 1e6,
            scenario.warmup,
            scenario.duration
        );
    }
    let label = if resume.is_some() { "resume" } else { "ccsim" };
    let mut progress = (!cli.quiet).then(|| RunProgress::new(label));
    let mut on_progress = |p: &Progress| {
        if let Some(prog) = &mut progress {
            prog.update(p.fraction, p.events_processed);
        }
    };
    // The endpoint binds before the run and serves the snapshots the run
    // publishes; it never touches simulator state.
    let live = cli.serve_port.map(|port| {
        let state = Arc::new(LiveState::new());
        let handle = ccsim::experiments::serve(port, Arc::clone(&state))
            .unwrap_or_else(|e| fail(format!("cannot bind --serve port {port}: {e}")));
        eprintln!(
            "serving http://{0}/metrics and http://{0}/timeline.jsonl for the run",
            handle.addr()
        );
        (state, handle)
    });
    let observed = cli.perf || cli.metrics_out.is_some() || cli.timeline.is_some();
    let opts = RunOptions {
        progress: Some(&mut on_progress),
        observe: observed.then_some(ObserveOptions {
            profile: cli.perf,
            profile_stride: cli.stride,
            timeline: cli.timeline,
        }),
        guard: GuardOptions {
            bundle_dir: cli.crash_dir.clone(),
            force_panic_at: cli.force_panic,
        },
        checkpoint_at: cli.checkpoint_at,
        resume_from: resume.as_ref().map(|(cp, _)| cp),
        live: live.as_ref().map(|(state, _)| Arc::clone(state)),
        ..RunOptions::default()
    };
    let result = run(scenario, opts);
    if let Some((state, handle)) = live {
        eprintln!(
            "live endpoint served {} request(s); shutting down",
            state.hits()
        );
        handle.stop();
    }
    let report = result.unwrap_or_else(|e| {
        // A `Bundle` error means the write failed: there is nothing to replay.
        let bundle = cli
            .crash_dir
            .as_ref()
            .filter(|_| !matches!(e, SimError::Bundle { .. }));
        match bundle.map(|base| bundle_dir(base, scenario)) {
            Some(dir) => {
                eprintln!("\nrun failed: {e} (crash bundle: {})", dir.display());
                eprintln!("replay with: ccsim replay {}", dir.display());
            }
            None => eprintln!("\nrun failed: {e}"),
        }
        std::process::exit(1);
    });
    let outcome = report
        .outcome
        .expect("a run without stop_at_checkpoint finishes");
    if let Some(prog) = &mut progress {
        prog.finish(outcome.events_processed);
    }
    if let Some(at) = cli.checkpoint_at {
        write_checkpoint(&report.checkpoint, &cli.checkpoint_out, at);
    }
    if let (Some(metrics_path), Some(prometheus), Some(manifest)) =
        (&cli.metrics_out, &report.prometheus, &report.manifest)
    {
        if let Err(e) = validate_exposition(prometheus) {
            eprintln!("internal error: metrics dump failed validation: {e}");
            std::process::exit(1);
        }
        let manifest_path = Path::new(metrics_path).with_extension("manifest.json");
        let write = |path: &Path, contents: &str| {
            std::fs::write(path, contents).unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            });
        };
        write(Path::new(metrics_path), prometheus);
        write(&manifest_path, &manifest.to_json());
        eprintln!(
            "wrote {metrics_path} ({} series) and {} (outcome digest {})",
            manifest.metric_series,
            manifest_path.display(),
            manifest.outcome_digest
        );
    }
    let mut perf_table = None;
    if cli.perf {
        let profile = report
            .manifest
            .as_ref()
            .and_then(|m| m.profile.as_ref())
            .unwrap_or_else(|| fail("internal error: profiled run produced no profile"));
        if let Some(path) = &cli.folded_out {
            std::fs::write(path, profile.to_folded())
                .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        perf_table = Some(profile.render_table());
    }
    let timeline_capture = report.timeline;

    if cli.json {
        println!("{}", outcome.to_json());
    } else {
        print_human(&outcome);
    }
    if let Some(table) = &perf_table {
        println!();
        print!("{table}");
    }
    if resume.is_some() {
        eprintln!("outcome digest  : {:016x}", outcome.digest());
    }
    if let Some(tl) = &timeline_capture {
        if cli.timeline_cmd {
            println!();
            print_timeline_summary(tl);
        }
        if let Some(path) = &cli.timeline_out {
            let bytes = if cli.timeline_format == "cctl" {
                ccsim::timeline::export::to_binary(tl)
            } else {
                ccsim::timeline::export::to_jsonl(tl).into_bytes()
            };
            std::fs::write(path, bytes)
                .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
            eprintln!("wrote {path} ({})", cli.timeline_format);
        }
    }

    if cli.tracing {
        let written = outcome
            .export_trace(
                Path::new(&cli.out),
                matches!(cli.format.as_str(), "jsonl" | "both"),
                matches!(cli.format.as_str(), "bin" | "both"),
            )
            .unwrap_or_else(|e| {
                eprintln!("trace export failed: {e}");
                std::process::exit(1);
            });
        print_trace_summary(&outcome, cli.sync_bin);
        for path in written {
            println!("wrote {}", path.display());
        }
    }
}

/// The `ccsim timeline` capture summary: row accounting, convergence,
/// and a unicode JFI trajectory over the retained measurement windows.
fn print_timeline_summary(tl: &Timeline) {
    let s = tl.summary();
    println!(
        "timeline        : {} rows ({} retained, {} evicted), window {} s",
        s.rows, s.retained, s.evicted, s.window_secs
    );
    println!(
        "  flows sampled : {} of the run's flows ({} series, {:.1} KB retained)",
        s.flows_sampled,
        s.series,
        tl.memory_bytes() as f64 / 1e3
    );
    match s.time_to_alpha_fair {
        Some(t) => println!("  {}-fair after : {t:.2} s of measurement", s.alpha),
        None => println!("  {}-fair after : never (JFI never reached α)", s.alpha),
    }
    if let Some(j) = s.final_jfi {
        println!("  final JFI     : {j:.4}");
    }
    let (times, jfi) = tl.jfi_series();
    if !jfi.is_empty() {
        println!(
            "  JFI trajectory: `{}` ({} windows from t={:.1} s)",
            jfi_sparkline(&jfi),
            jfi.len(),
            times.first().copied().unwrap_or(0.0)
        );
    }
}

/// Scale the per-window JFI series onto eight block glyphs; idle windows
/// (no delivery, JFI undefined) render as `·`.
fn jfi_sparkline(jfi: &[Option<f64>]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let vals: Vec<f64> = jfi.iter().copied().flatten().collect();
    let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    jfi.iter()
        .map(|v| match v {
            None => '·',
            Some(x) => {
                let f = if span > 0.0 { (x - lo) / span } else { 1.0 };
                GLYPHS[((f * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn print_trace_summary(o: &RunOutcome, sync_bin: SimDuration) {
    let Some(trace) = &o.trace else {
        return;
    };
    println!(
        "trace           : {} records ({:.2} MB wire), {} evicted, {} thinned",
        trace.records.len(),
        trace.wire_bytes() as f64 / 1e6,
        trace.evicted,
        trace.thinned
    );
    match o.trace_synchronization_index(sync_bin) {
        Some(s) => println!("sync index      : {s:.4} (bin {sync_bin})"),
        None => println!("sync index      : n/a (no congestion events in window)"),
    }
    match o.trace_drop_burstiness() {
        Some(b) => println!("drop burstiness : {b:.4} (from trace)"),
        None => println!("drop burstiness : n/a (too few recorded drops)"),
    }
}

fn print_human(o: &RunOutcome) {
    println!("measured window : {}", o.measured_for);
    println!(
        "aggregate       : {:.2} Mbps",
        o.aggregate_throughput_mbps()
    );
    println!("utilization     : {:.1}%", o.utilization() * 100.0);
    println!("loss rate       : {:.4}%", o.aggregate_loss_rate * 100.0);
    println!(
        "JFI (all flows) : {:.4}",
        o.jain_index().unwrap_or(f64::NAN)
    );
    if let Some(b) = o.drop_burstiness {
        println!("drop burstiness : {b:.3}");
    }
    for b in &o.bottlenecks {
        let jfi = match b.jfi {
            Some(j) => format!("{j:.4}"),
            None => "n/a".to_string(),
        };
        println!(
            "  bottleneck {:<2} {:<11} util {:>5.1}%  JFI {jfi}  loss {:.4}%  CE {}",
            b.link,
            b.label,
            b.utilization * 100.0,
            b.loss_rate * 100.0,
            b.ce_marked_pkts
        );
    }
    // Per-CCA aggregates.
    let mut kinds: Vec<CcaKind> = o.flow_cca.clone();
    kinds.sort_by_key(|k| k.name());
    kinds.dedup();
    for k in kinds {
        let share = o.share_of(k).unwrap_or(0.0);
        let jfi = o.jain_index_for(k).unwrap_or(f64::NAN);
        println!(
            "  {:<5} x{:<5} share {:>5.1}%   intra-JFI {:.4}",
            k.name(),
            o.count_of(k),
            share * 100.0,
            jfi
        );
    }
}
