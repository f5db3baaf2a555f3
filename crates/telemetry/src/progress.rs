//! Live progress reporting for runs and sweeps.
//!
//! Long CoreScale runs used to go silent for minutes between ad-hoc
//! `eprintln!` lines scattered over the bench binaries; this module is
//! the uniform replacement. Everything writes to **stderr** (stdout is
//! reserved for reports and machine-readable output) and is wall-clock
//! rate-limited, so callers can invoke `update` as often as they like —
//! e.g. once per runner snapshot slice — without flooding terminals or
//! CI logs.
//!
//! * [`RunProgress`] — one in-flight run: percent of sim-time, ETA, and
//!   current events/sec, rewritten in place on TTYs.
//! * [`SweepProgress`] — N-of-M completion for scenario sweeps, driven
//!   from worker-pool threads (thread-safe).
//! * [`StageTimer`] — a labeled wall-clock stage that prints one
//!   `[label: 12.3s]` line when finished; the uniform replacement for
//!   the `Stopwatch` + `eprintln!` pattern.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Render a duration as a compact human figure (`850ms`, `12s`, `3m40s`,
/// `2h05m`).
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1e3)
    } else if secs < 100.0 {
        format!("{secs:.1}s")
    } else if secs < 3600.0 {
        format!("{}m{:02}s", d.as_secs() / 60, d.as_secs() % 60)
    } else {
        format!("{}h{:02}m", d.as_secs() / 3600, (d.as_secs() % 3600) / 60)
    }
}

/// Render a rate or count with an SI suffix (`953`, `80.5 k`, `3.2 M`).
pub fn fmt_si(v: f64) -> String {
    let (scaled, suffix) = if v >= 1e9 {
        (v / 1e9, " G")
    } else if v >= 1e6 {
        (v / 1e6, " M")
    } else if v >= 1e3 {
        (v / 1e3, " k")
    } else {
        (v, "")
    };
    if suffix.is_empty() {
        format!("{scaled:.0}")
    } else {
        format!("{scaled:.1}{suffix}")
    }
}

/// Live progress for a single simulator run.
///
/// Call [`RunProgress::update`] from the runner's progress callback; the
/// reporter decides when to actually draw. On a TTY the line is redrawn
/// in place (`\r`); otherwise one line is printed per ~10% step so CI
/// logs stay bounded.
pub struct RunProgress {
    label: String,
    started: Instant,
    tty: bool,
    last_draw: Option<Instant>,
    last_events: u64,
    last_events_at: Instant,
    last_sim_secs: f64,
    last_fraction_drawn: f64,
    needs_clear: bool,
}

impl RunProgress {
    /// A reporter labeled `label` (shown in every line).
    pub fn new(label: impl Into<String>) -> RunProgress {
        let now = Instant::now();
        RunProgress {
            label: label.into(),
            started: now,
            tty: std::io::stderr().is_terminal(),
            last_draw: None,
            last_events: 0,
            last_events_at: now,
            last_sim_secs: 0.0,
            last_fraction_drawn: -1.0,
            needs_clear: false,
        }
    }

    /// Report progress: `fraction` of sim-time covered (0..=1) and total
    /// engine events processed so far. Draws at most ~4×/sec on a TTY,
    /// once per 10% otherwise.
    pub fn update(&mut self, fraction: f64, events_processed: u64) {
        self.draw(fraction, events_processed, None);
    }

    /// Like [`RunProgress::update`], additionally reporting the current
    /// sim-time position (seconds) so the line shows the *instantaneous*
    /// sim-time/wall-time ratio — how much faster than real time the
    /// engine is moving right now, not averaged over the whole run.
    pub fn update_sim(&mut self, fraction: f64, events_processed: u64, sim_secs: f64) {
        self.draw(fraction, events_processed, Some(sim_secs));
    }

    fn draw(&mut self, fraction: f64, events_processed: u64, sim_secs: Option<f64>) {
        let now = Instant::now();
        let due = if self.tty {
            self.last_draw
                .is_none_or(|t| now - t >= Duration::from_millis(250))
        } else {
            fraction - self.last_fraction_drawn >= 0.10
        };
        if !due || fraction >= 1.0 {
            return;
        }
        let dt = (now - self.last_events_at).as_secs_f64();
        let rate = if dt > 0.0 {
            (events_processed.saturating_sub(self.last_events)) as f64 / dt
        } else {
            0.0
        };
        // Instantaneous Δsim/Δwall over the same interval as the rate.
        let ratio = sim_secs.map(|sim| {
            if dt > 0.0 {
                (sim - self.last_sim_secs).max(0.0) / dt
            } else {
                0.0
            }
        });
        if let Some(sim) = sim_secs {
            self.last_sim_secs = sim;
        }
        self.last_events = events_processed;
        self.last_events_at = now;
        self.last_draw = Some(now);
        self.last_fraction_drawn = fraction;

        let elapsed = now - self.started;
        let eta = if fraction > 1e-6 {
            let total = elapsed.as_secs_f64() / fraction;
            fmt_duration(Duration::from_secs_f64(
                (total - elapsed.as_secs_f64()).max(0.0),
            ))
        } else {
            "?".to_string()
        };
        let mut line = format!(
            "[{}] {:5.1}% | ETA {} | {} ev/s",
            self.label,
            fraction * 100.0,
            eta,
            fmt_si(rate)
        );
        if let Some(r) = ratio {
            line.push_str(&format!(" | {r:.1}x rt"));
        }
        let mut err = std::io::stderr().lock();
        if self.tty {
            // Pad to clear any longer previous line.
            let _ = write!(err, "\r{line:<60}");
            let _ = err.flush();
            self.needs_clear = true;
        } else {
            let _ = writeln!(err, "{line}");
        }
    }

    /// Finish: clear the live line and print one summary line with total
    /// wall time, events, and overall events/sec.
    pub fn finish(&mut self, events_processed: u64) {
        let elapsed = self.started.elapsed();
        let rate = if elapsed.as_secs_f64() > 0.0 {
            events_processed as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let mut err = std::io::stderr().lock();
        if self.needs_clear {
            let _ = write!(err, "\r{:<60}\r", "");
        }
        let _ = writeln!(
            err,
            "[{}] done in {} | {} events | {} ev/s",
            self.label,
            fmt_duration(elapsed),
            fmt_si(events_processed as f64),
            fmt_si(rate)
        );
    }
}

/// Thread-safe N-of-M progress for scenario sweeps.
///
/// Designed to be the completion callback of a parallel sweep:
/// every completion prints one line with the running count, percent, ETA
/// extrapolated from the mean per-item wall time, and the item's label.
pub struct SweepProgress {
    label: String,
    total: usize,
    done: AtomicUsize,
    started: Instant,
    // Serializes the line assembly so concurrent completions don't
    // interleave; the atomic alone orders the counts.
    print_lock: Mutex<()>,
}

impl SweepProgress {
    /// A sweep of `total` items labeled `label`.
    pub fn new(label: impl Into<String>, total: usize) -> SweepProgress {
        SweepProgress {
            label: label.into(),
            total,
            done: AtomicUsize::new(0),
            started: Instant::now(),
            print_lock: Mutex::new(()),
        }
    }

    /// Record one completed item and print a progress line.
    pub fn item_done(&self, item: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let _guard = self.print_lock.lock().unwrap();
        let elapsed = self.started.elapsed();
        let eta = if done > 0 && done < self.total {
            let per_item = elapsed.as_secs_f64() / done as f64;
            fmt_duration(Duration::from_secs_f64(
                per_item * (self.total - done) as f64,
            ))
        } else {
            "0s".to_string()
        };
        eprintln!(
            "[{}] {}/{} ({:.0}%) | ETA {} | {}",
            self.label,
            done,
            self.total,
            done as f64 / self.total.max(1) as f64 * 100.0,
            eta,
            item
        );
    }

    /// Number of completed items so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Print the closing summary line.
    pub fn finish(&self) {
        eprintln!(
            "[{}] {} items in {}",
            self.label,
            self.done.load(Ordering::Relaxed),
            fmt_duration(self.started.elapsed())
        );
    }
}

/// Thread-safe live aggregate for campaign runs: jobs done/failed, ETA
/// from the mean per-job wall time, and the pooled events/sec rollup.
///
/// This is the campaign executor's `on_done` counterpart to
/// [`SweepProgress`]: one line per completed job plus a closing summary,
/// safe to call from any worker thread.
pub struct CampaignProgress {
    label: String,
    total: usize,
    done: AtomicUsize,
    failed: AtomicUsize,
    events: AtomicU64,
    started: Instant,
    print_lock: Mutex<()>,
}

impl CampaignProgress {
    /// A campaign of `total` jobs labeled `label`.
    pub fn new(label: impl Into<String>, total: usize) -> CampaignProgress {
        CampaignProgress {
            label: label.into(),
            total,
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            events: AtomicU64::new(0),
            started: Instant::now(),
            print_lock: Mutex::new(()),
        }
    }

    /// Record one completed job (`ok` false for failures) with the engine
    /// events it processed, and print the aggregate line.
    pub fn job_done(&self, job: &str, events: u64, ok: bool) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let total_events = self.events.fetch_add(events, Ordering::Relaxed) + events;
        let _guard = self.print_lock.lock().unwrap();
        let failed = self.failed.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed();
        let eta = if done < self.total {
            let per_job = elapsed.as_secs_f64() / done as f64;
            fmt_duration(Duration::from_secs_f64(
                per_job * (self.total - done) as f64,
            ))
        } else {
            "0s".to_string()
        };
        let rate = if elapsed.as_secs_f64() > 0.0 {
            total_events as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        eprintln!(
            "[{}] {}/{} done ({} failed) | ETA {} | {} ev/s | {} {}",
            self.label,
            done,
            self.total,
            failed,
            eta,
            fmt_si(rate),
            if ok { "ok" } else { "FAILED" },
            job
        );
    }

    /// Jobs completed so far (including failures).
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Failed jobs so far.
    pub fn failures(&self) -> usize {
        self.failed.load(Ordering::Relaxed)
    }

    /// Print the closing summary line.
    pub fn finish(&self) {
        let elapsed = self.started.elapsed();
        let events = self.events.load(Ordering::Relaxed);
        let rate = if elapsed.as_secs_f64() > 0.0 {
            events as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        eprintln!(
            "[{}] {} jobs ({} failed) in {} | {} events | {} ev/s",
            self.label,
            self.done.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            fmt_duration(elapsed),
            fmt_si(events as f64),
            fmt_si(rate)
        );
    }
}

/// A labeled wall-clock stage: prints `[label: 12.3s]` to stderr when
/// finished (or dropped). The uniform replacement for ad-hoc
/// `Stopwatch` + `eprintln!` timing lines.
pub struct StageTimer {
    label: String,
    started: Instant,
    reported: bool,
}

impl StageTimer {
    /// Start timing `label`.
    pub fn new(label: impl Into<String>) -> StageTimer {
        StageTimer {
            label: label.into(),
            started: Instant::now(),
            reported: false,
        }
    }

    /// Elapsed seconds so far.
    pub fn secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Stop and print the stage line now.
    pub fn finish(mut self) {
        self.report();
    }

    fn report(&mut self) {
        if !self.reported {
            self.reported = true;
            eprintln!("[{}: {}]", self.label, fmt_duration(self.started.elapsed()));
        }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        self.report();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_compactly() {
        assert_eq!(fmt_duration(Duration::from_millis(850)), "850ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(12.34)), "12.3s");
        assert_eq!(fmt_duration(Duration::from_secs(220)), "3m40s");
        assert_eq!(fmt_duration(Duration::from_secs(7500)), "2h05m");
    }

    #[test]
    fn si_suffixes() {
        assert_eq!(fmt_si(953.0), "953");
        assert_eq!(fmt_si(80_500.0), "80.5 k");
        assert_eq!(fmt_si(3_200_000.0), "3.2 M");
        assert_eq!(fmt_si(1.5e9), "1.5 G");
    }

    #[test]
    fn sweep_counts_thread_safely() {
        let sweep = SweepProgress::new("test", 8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| sweep.item_done("item"));
            }
        });
        assert_eq!(sweep.completed(), 8);
        sweep.finish();
    }

    #[test]
    fn campaign_counts_thread_safely() {
        let progress = CampaignProgress::new("camp", 8);
        std::thread::scope(|s| {
            let progress = &progress;
            for i in 0..8 {
                s.spawn(move || progress.job_done("job", 1000, i % 4 != 0));
            }
        });
        assert_eq!(progress.completed(), 8);
        assert_eq!(progress.failures(), 2);
        progress.finish();
    }

    #[test]
    fn run_progress_smoke() {
        // Exercise the state machine; output goes to stderr and is not
        // asserted (rate limiting makes it timing-dependent).
        let mut p = RunProgress::new("test");
        p.update(0.0, 0);
        p.update(0.5, 1000);
        p.update(1.0, 2000);
        p.finish(2000);
    }

    #[test]
    fn run_progress_with_sim_ratio_smoke() {
        let mut p = RunProgress::new("test");
        p.update_sim(0.0, 0, 0.0);
        p.update_sim(0.3, 1000, 21.0);
        // Mixing the plain form in keeps working (ratio just disappears).
        p.update(0.6, 2000);
        p.update_sim(0.9, 3000, 63.0);
        p.finish(3000);
    }
}
