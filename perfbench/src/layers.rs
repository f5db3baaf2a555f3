//! The traced run's probes: a `Msg` classifier that doubles as a
//! per-kind handler clock, and a timed `CongestionControl` decorator.
//!
//! The engine calls the classifier right before each handler, so the
//! interval between two calls is the earlier event's handler plus the
//! engine's work to fetch the next event. Charging it to the earlier
//! event's kind gives exact wall time per kind. The decorator times every CCA hook and
//! charges it both to its algorithm and to the kind of the event being
//! dispatched; the hook runs inside that event's handler, so the kind's
//! time minus its CCA time (its self time) cannot be negative.

use ccsim_cca::{make_cca, CcaKind};
use ccsim_net::Msg;
use ccsim_sim::{Bandwidth, SnapError, SnapReader, SnapWriter};
use ccsim_tcp::{AckSample, CongestionControl};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Event kinds, in classifier index order.
pub const KINDS: [&str; 3] = ["data", "ack", "timer"];
pub const DATA: usize = 0;
pub const ACK: usize = 1;
pub const TIMER: usize = 2;

/// The kind index of an engine message.
pub fn kind_of(m: &Msg) -> usize {
    match m {
        Msg::Packet(p) if p.is_data() => DATA,
        Msg::Packet(_) => ACK,
        Msg::Timer(_) => TIMER,
    }
}

fn nanos_since(t0: Instant, now: Instant) -> u64 {
    u64::try_from(now.duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Handler wall time per event kind, and the CCA time spent inside each
/// kind's handlers.
#[derive(Debug, Default)]
pub struct KindClock {
    current: Cell<Option<(usize, Instant)>>,
    handler_nanos: [Cell<u64>; 3],
    cca_nanos: [Cell<u64>; 3],
}

impl KindClock {
    /// The classifier to pass to `Simulator::try_run_until_classified`:
    /// closes the previous event's interval and opens this one's.
    pub fn classify(&self, m: &Msg) -> usize {
        let now = Instant::now();
        self.charge_until(now);
        let kind = kind_of(m);
        self.current.set(Some((kind, now)));
        kind
    }

    /// Close the last event's interval; call when a dispatch call returns.
    pub fn close(&self) {
        self.charge_until(Instant::now());
        self.current.set(None);
    }

    fn charge_until(&self, now: Instant) {
        if let Some((kind, t0)) = self.current.get() {
            let cell = &self.handler_nanos[kind];
            cell.set(cell.get() + nanos_since(t0, now));
        }
    }

    /// Charge CCA time to the kind being dispatched (dropped outside
    /// dispatch, where no handler encloses it).
    fn charge_cca(&self, nanos: u64) {
        if let Some((kind, _)) = self.current.get() {
            let cell = &self.cca_nanos[kind];
            cell.set(cell.get() + nanos);
        }
    }

    /// Handler wall seconds of one kind.
    pub fn handler_s(&self, kind: usize) -> f64 {
        self.handler_nanos[kind].get() as f64 * 1e-9
    }

    /// Seconds of CCA hooks inside one kind's handlers.
    pub fn cca_s(&self, kind: usize) -> f64 {
        self.cca_nanos[kind].get() as f64 * 1e-9
    }
}

/// Call counts and wall time of one algorithm's CCA hooks.
#[derive(Debug, Default)]
pub struct HookStats {
    pub calls: Cell<u64>,
    pub nanos: Cell<u64>,
    pub on_ack_calls: Cell<u64>,
    pub on_ack_nanos: Cell<u64>,
}

impl HookStats {
    fn record(&self, on_ack: bool, nanos: u64) {
        self.calls.set(self.calls.get() + 1);
        self.nanos.set(self.nanos.get() + nanos);
        if on_ack {
            self.on_ack_calls.set(self.on_ack_calls.get() + 1);
            self.on_ack_nanos.set(self.on_ack_nanos.get() + nanos);
        }
    }
}

/// Per-algorithm hook statistics, keyed by `CcaKind::name`.
#[derive(Debug, Default)]
pub struct CcaTable {
    by_algo: RefCell<Vec<(&'static str, Rc<HookStats>)>>,
}

impl CcaTable {
    fn stats_for(&self, kind: CcaKind) -> Rc<HookStats> {
        let mut rows = self.by_algo.borrow_mut();
        if let Some((_, s)) = rows.iter().find(|(name, _)| *name == kind.name()) {
            return s.clone();
        }
        let s = Rc::new(HookStats::default());
        rows.push((kind.name(), s.clone()));
        s
    }

    /// The stats of one algorithm, if any flow ran it.
    pub fn get(&self, algo: &str) -> Option<Rc<HookStats>> {
        let rows = self.by_algo.borrow();
        rows.iter()
            .find(|(n, _)| *n == algo)
            .map(|(_, s)| s.clone())
    }

    /// Sum of `(calls, seconds)` over every algorithm.
    pub fn totals(&self) -> (u64, f64) {
        let rows = self.by_algo.borrow();
        let calls = rows.iter().map(|(_, s)| s.calls.get()).sum();
        let nanos: u64 = rows.iter().map(|(_, s)| s.nanos.get()).sum();
        (calls, nanos as f64 * 1e-9)
    }

    /// The stock algorithm for `kind`, wrapped in a [`TimedCca`] — the
    /// body of the CCA factory handed to `try_build_with_factory`.
    pub fn make(
        &self,
        clock: &Rc<KindClock>,
        kind: CcaKind,
        mss: u32,
        seed: u64,
    ) -> Box<dyn CongestionControl> {
        Box::new(TimedCca {
            inner: make_cca(kind, mss, seed),
            clock: clock.clone(),
            stats: self.stats_for(kind),
        })
    }
}

/// Forwards every `CongestionControl` method to the wrapped algorithm and
/// times the event hooks (`on_ack`, recovery entry/exit, `on_rto`,
/// `on_ecn`). Accessors are forwarded untimed: they read a field, and a
/// clock pair would cost more than the call it measures.
pub struct TimedCca {
    inner: Box<dyn CongestionControl>,
    clock: Rc<KindClock>,
    stats: Rc<HookStats>,
}

impl TimedCca {
    fn timed(&mut self, on_ack: bool, hook: impl FnOnce(&mut dyn CongestionControl)) {
        let t0 = Instant::now();
        hook(self.inner.as_mut());
        let nanos = nanos_since(t0, Instant::now());
        self.stats.record(on_ack, nanos);
        self.clock.charge_cca(nanos);
    }
}

impl CongestionControl for TimedCca {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }
    fn ssthresh(&self) -> u64 {
        self.inner.ssthresh()
    }
    fn pacing_rate(&self) -> Option<Bandwidth> {
        self.inner.pacing_rate()
    }
    fn on_ack(&mut self, s: &AckSample) {
        self.timed(true, |c| c.on_ack(s));
    }
    fn on_enter_recovery(&mut self, s: &AckSample) {
        self.timed(false, |c| c.on_enter_recovery(s));
    }
    fn on_exit_recovery(&mut self, s: &AckSample, after_rto: bool) {
        self.timed(false, |c| c.on_exit_recovery(s, after_rto));
    }
    fn on_rto(&mut self, s: &AckSample) {
        self.timed(false, |c| c.on_rto(s));
    }
    fn on_ecn(&mut self, s: &AckSample) {
        self.timed(false, |c| c.on_ecn(s));
    }
    fn uses_prr(&self) -> bool {
        self.inner.uses_prr()
    }
    fn phase(&self) -> &'static str {
        self.inner.phase()
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_net::packet::{FlowId, Packet, SackBlocks};
    use ccsim_net::TimerToken;
    use ccsim_sim::{ComponentId, SimDuration, SimTime};
    use std::time::Duration;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {}
    }

    #[test]
    fn classifier_covers_every_msg_variant() {
        let dst = ComponentId::from_raw(1);
        let data = Msg::Packet(Packet::data(FlowId(0), dst, 0, 1448, SimTime::ZERO));
        let ack = Msg::Packet(Packet::ack(
            FlowId(0),
            dst,
            1448,
            SackBlocks::EMPTY,
            SimTime::ZERO,
        ));
        let timer = Msg::Timer(TimerToken::pack(1, 0));
        let kinds = [data, ack, timer].map(|m| kind_of(&m));
        assert_eq!(kinds, [DATA, ACK, TIMER]);
        assert_eq!(KINDS[DATA], "data");
        assert_eq!(KINDS[ACK], "ack");
        assert_eq!(KINDS[TIMER], "timer");
    }

    /// Logs every method called on it; the accessors return distinct
    /// values so forwarding of results shows too.
    struct Recorder(Rc<RefCell<Vec<&'static str>>>);

    impl Recorder {
        fn log(&self, m: &'static str) {
            self.0.borrow_mut().push(m);
        }
    }

    impl CongestionControl for Recorder {
        fn name(&self) -> &'static str {
            self.log("name");
            "recorder"
        }
        fn cwnd(&self) -> u64 {
            self.log("cwnd");
            11
        }
        fn ssthresh(&self) -> u64 {
            self.log("ssthresh");
            22
        }
        fn pacing_rate(&self) -> Option<Bandwidth> {
            self.log("pacing_rate");
            Some(Bandwidth::from_mbps(33))
        }
        fn on_ack(&mut self, _: &AckSample) {
            self.log("on_ack");
        }
        fn on_enter_recovery(&mut self, _: &AckSample) {
            self.log("on_enter_recovery");
        }
        fn on_exit_recovery(&mut self, _: &AckSample, after_rto: bool) {
            assert!(after_rto);
            self.log("on_exit_recovery");
        }
        fn on_rto(&mut self, _: &AckSample) {
            self.log("on_rto");
        }
        fn on_ecn(&mut self, _: &AckSample) {
            self.log("on_ecn");
        }
        fn uses_prr(&self) -> bool {
            self.log("uses_prr");
            false
        }
        fn phase(&self) -> &'static str {
            self.log("phase");
            "probe"
        }
        fn save_state(&self, w: &mut SnapWriter) {
            self.log("save_state");
            w.u64(44);
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.log("load_state");
            assert_eq!(r.u64()?, 44);
            Ok(())
        }
    }

    fn sample() -> AckSample {
        AckSample {
            now: SimTime::ZERO,
            rtt: None,
            srtt: SimDuration::from_millis(20),
            min_rtt: SimDuration::from_millis(20),
            newly_acked: 1448,
            newly_lost: 0,
            delivered: 1448,
            prior_delivered: 0,
            prior_in_flight: 1448,
            in_flight: 0,
            delivery_rate: None,
            interval: SimDuration::from_millis(20),
            is_app_limited: false,
            in_recovery: false,
            mss: 1448,
            cumulative_ack: 1448,
        }
    }

    #[test]
    fn decorator_forwards_every_method() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let clock = Rc::new(KindClock::default());
        let stats = Rc::new(HookStats::default());
        let mut cca = TimedCca {
            inner: Box::new(Recorder(log.clone())),
            clock,
            stats: stats.clone(),
        };
        let s = sample();
        assert_eq!(cca.name(), "recorder");
        assert_eq!(cca.cwnd(), 11);
        assert_eq!(cca.ssthresh(), 22);
        assert_eq!(cca.pacing_rate(), Some(Bandwidth::from_mbps(33)));
        cca.on_ack(&s);
        cca.on_enter_recovery(&s);
        cca.on_exit_recovery(&s, true);
        cca.on_rto(&s);
        cca.on_ecn(&s);
        assert!(!cca.uses_prr());
        assert_eq!(cca.phase(), "probe");
        let mut w = SnapWriter::new();
        cca.save_state(&mut w);
        let bytes = w.into_bytes();
        cca.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            *log.borrow(),
            [
                "name",
                "cwnd",
                "ssthresh",
                "pacing_rate",
                "on_ack",
                "on_enter_recovery",
                "on_exit_recovery",
                "on_rto",
                "on_ecn",
                "uses_prr",
                "phase",
                "save_state",
                "load_state",
            ]
        );
        // The five hooks are timed; on_ack is also counted on its own.
        assert_eq!(stats.calls.get(), 5);
        assert_eq!(stats.on_ack_calls.get(), 1);
    }

    #[test]
    fn self_time_is_handler_time_minus_nested_cca_time() {
        let clock = Rc::new(KindClock::default());
        let table = CcaTable::default();
        let mut cca = TimedCca {
            inner: Box::new(Recorder(Rc::default())),
            clock: clock.clone(),
            stats: table.stats_for(CcaKind::Reno),
        };
        let ack = Msg::Packet(Packet::ack(
            FlowId(0),
            ComponentId::from_raw(1),
            1448,
            SackBlocks::EMPTY,
            SimTime::ZERO,
        ));
        // One ACK event: 2 ms of handler work around a 3 ms CCA hook...
        assert_eq!(clock.classify(&ack), ACK);
        spin(Duration::from_millis(1));
        cca.timed(true, |_| spin(Duration::from_millis(3)));
        spin(Duration::from_millis(1));
        // ...then a timer event, whose interval must not leak into ACK.
        clock.classify(&Msg::Timer(TimerToken::pack(2, 0)));
        spin(Duration::from_millis(1));
        clock.close();
        // CCA time outside any dispatch is not charged to a kind.
        cca.timed(false, |_| spin(Duration::from_millis(1)));

        let handler = clock.handler_s(ACK);
        let nested = clock.cca_s(ACK);
        assert!(nested >= 0.003, "cca {nested}");
        assert!(handler >= nested + 0.002, "handler {handler} cca {nested}");
        assert_eq!(clock.cca_s(TIMER), 0.0);
        assert!(clock.handler_s(TIMER) >= 0.001);
        assert_eq!(clock.handler_s(DATA), 0.0);
        let (calls, total_s) = table.totals();
        assert_eq!(calls, 2);
        assert!(total_s >= nested + 0.001);
        assert_eq!(table.get("reno").unwrap().on_ack_calls.get(), 1);
        assert!(table.get("bbr").is_none());
    }
}
