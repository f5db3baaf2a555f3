//! Run every table and figure of the paper in one pass and emit an
//! EXPERIMENTS.md-ready report on stdout.
//!
//! ```sh
//! cargo run --release -p ccsim-bench --bin all_experiments            # scaled grid
//! cargo run --release -p ccsim-bench --bin all_experiments -- --scale paper
//! ```
//!
//! Every grid executes on the campaign worker pool
//! ([`ccsim_campaign::executor`]), so cells run in parallel with a live
//! aggregate progress line. Outcomes are identical to the old serial
//! path — results depend only on (configuration, seed). Set
//! `CCSIM_LEDGER=<path>` to additionally append every run to a campaign
//! ledger (then `ccsim campaign report`/`diff` work on the result).

use ccsim_bench::{parse_args, section, StageTimer};
use ccsim_campaign::executor::{run_scenarios, ExecutorOptions};
use ccsim_campaign::ledger::{LedgerEntry, LedgerWriter};
use ccsim_campaign::spec::Tolerances;
use ccsim_cca::CcaKind;
use ccsim_core::experiments::{inter, intra, mathis, single_bbr};
use ccsim_core::{RunOutcome, Scenario};
use ccsim_telemetry::CampaignProgress;
use std::path::Path;
use std::sync::Mutex;

/// Shared grid executor: campaign worker pool + optional ledger sink.
struct GridExec {
    opts: ExecutorOptions,
    ledger: Option<Mutex<LedgerWriter>>,
}

impl GridExec {
    fn new() -> GridExec {
        let ledger = std::env::var("CCSIM_LEDGER").ok().map(|path| {
            let w = LedgerWriter::create(
                Path::new(&path),
                "all_experiments",
                &Tolerances::default(),
                &[],
            )
            .unwrap_or_else(|e| panic!("cannot create ledger {path}: {e}"));
            eprintln!("[ledger: {path}]");
            Mutex::new(w)
        });
        GridExec {
            opts: ExecutorOptions::default(),
            ledger,
        }
    }

    /// Run one grid's scenarios on the pool; panic on any failed cell
    /// (matching `Scenario::run`).
    fn run(&self, label: &str, scenarios: &[Scenario]) -> Vec<RunOutcome> {
        let progress = CampaignProgress::new(label, scenarios.len());
        let results = run_scenarios(scenarios, &self.opts, |r| {
            let entry = LedgerEntry::from_result(r);
            if let Some(l) = &self.ledger {
                l.lock()
                    .unwrap()
                    .append(&entry)
                    .unwrap_or_else(|e| panic!("ledger write failed: {e}"));
            }
            progress.job_done(&entry.job, entry.events_processed, entry.ok());
        });
        progress.finish();
        results
            .into_iter()
            .map(|r| match r.run {
                Ok(obs) => obs.outcome,
                Err(e) => panic!("{} failed: {e}", r.job.name),
            })
            .collect()
    }
}

fn main() {
    let opts = parse_args();
    let exec = GridExec::new();
    let total = StageTimer::new("all experiments");
    println!("# ccsim experiment report");
    println!(
        "\ngrid: core {:?}, edge {:?}, rtts {:?} ms, fidelity {:?}, seed {}{}",
        opts.config.core_counts,
        opts.config.edge_counts,
        opts.config.rtts_ms,
        opts.config.fidelity,
        opts.config.seed,
        if opts.paper_scale {
            " (paper scale)"
        } else {
            " (scaled-down counts; pass --scale paper for 1000/3000/5000)"
        }
    );

    let sw = StageTimer::new("mathis grid");
    let mathis_rows = mathis::run_grid_with(&opts.config, |s| exec.run("mathis", s));
    section(
        "Table 1 + Figures 2 & 3 + burstiness — the Mathis model at scale",
        &mathis::render(&mathis_rows),
    );
    sw.finish();

    let sw = StageTimer::new("fig4");
    let bbr_intra = intra::run_grid_with(&opts.config, CcaKind::Bbr, |s| exec.run("fig4", s));
    section(
        "Figure 4 — BBR intra-CCA fairness",
        &intra::render(&bbr_intra),
    );
    sw.finish();

    let sw = StageTimer::new("finding4");
    let reno_intra = intra::run_grid_with(&opts.config, CcaKind::Reno, |s| {
        exec.run("finding4/reno", s)
    });
    section(
        "Finding 4 — NewReno intra-CCA fairness",
        &intra::render(&reno_intra),
    );
    let cubic_intra = intra::run_grid_with(&opts.config, CcaKind::Cubic, |s| {
        exec.run("finding4/cubic", s)
    });
    section(
        "Finding 4 — Cubic intra-CCA fairness",
        &intra::render(&cubic_intra),
    );
    sw.finish();

    let sw = StageTimer::new("fig5");
    let fig5 = inter::run_grid_with(&opts.config, CcaKind::Cubic, CcaKind::Reno, |s| {
        exec.run("fig5", s)
    });
    section("Figure 5 — Cubic vs NewReno", &inter::render(&fig5));
    sw.finish();

    let sw = StageTimer::new("fig6+fig7");
    let fig6 = single_bbr::run_grid_with(&opts.config, CcaKind::Reno, |s| exec.run("fig6", s));
    section("Figure 6 — 1 BBR vs N NewReno", &single_bbr::render(&fig6));
    let fig7 = single_bbr::run_grid_with(&opts.config, CcaKind::Cubic, |s| exec.run("fig7", s));
    section("Figure 7 — 1 BBR vs N Cubic", &single_bbr::render(&fig7));
    sw.finish();

    let sw = StageTimer::new("fig8");
    let fig8a = inter::run_grid_with(&opts.config, CcaKind::Bbr, CcaKind::Reno, |s| {
        exec.run("fig8a", s)
    });
    section("Figure 8a — BBR vs NewReno", &inter::render(&fig8a));
    let fig8b = inter::run_grid_with(&opts.config, CcaKind::Bbr, CcaKind::Cubic, |s| {
        exec.run("fig8b", s)
    });
    section("Figure 8b — BBR vs Cubic", &inter::render(&fig8b));
    sw.finish();

    total.finish();
}
