//! Endpoint counters exposed to the experiment harness and telemetry.
//!
//! These are the simulator's equivalent of `ss -i` / `tcpprobe` state: the
//! sender side counts transmissions, retransmissions, and — crucially for
//! the paper — *congestion events* (CWND reductions), split into fast
//! recoveries and RTOs. The harness derives the "CWND halving rate" from
//! these and the packet counts.

use ccsim_sim::{SimTime, SnapError, SnapReader, SnapWriter};
use ccsim_trace::BoundedLog;

/// Sender-side counters.
#[derive(Debug, Clone, Default)]
pub struct SenderStats {
    /// Data segments transmitted (including retransmissions).
    pub data_pkts_sent: u64,
    /// Data bytes transmitted (including retransmissions).
    pub bytes_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// ACK packets processed.
    pub acks_received: u64,
    /// Entries into fast recovery (multiplicative-decrease events).
    pub fast_recoveries: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// Timestamps of congestion events (fast-recovery entries + RTOs) —
    /// the tcpprobe-equivalent CWND-halving log. Bounded drop-oldest
    /// (64 Ki entries × 8 bytes = 0.5 MiB/flow worst case); the
    /// `fast_recoveries`/`rtos` counters above remain exact regardless.
    pub congestion_event_log: BoundedLog<SimTime>,
    /// Total bytes delivered (cumulatively or selectively ACKed).
    pub delivered_bytes: u64,
    /// Segments declared lost by loss detection or RTO.
    pub segments_marked_lost: u64,
    /// ECE-triggered congestion responses (RFC 3168: at most one per
    /// window of data). Zero when ECN is off.
    pub ecn_reductions: u64,
}

impl SenderStats {
    /// Total congestion events: fast recoveries + RTOs. This is the event
    /// count whose per-packet rate feeds the Mathis model's
    /// "CWND halving rate" interpretation of `p`.
    pub fn congestion_events(&self) -> u64 {
        self.fast_recoveries + self.rtos
    }

    /// Serialize for a checkpoint.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.data_pkts_sent);
        w.u64(self.bytes_sent);
        w.u64(self.retransmits);
        w.u64(self.acks_received);
        w.u64(self.fast_recoveries);
        w.u64(self.rtos);
        self.congestion_event_log.save_state(w, |w, t| w.time(*t));
        w.u64(self.delivered_bytes);
        w.u64(self.segments_marked_lost);
        w.u64(self.ecn_reductions);
    }

    /// Overlay checkpointed state.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.data_pkts_sent = r.u64()?;
        self.bytes_sent = r.u64()?;
        self.retransmits = r.u64()?;
        self.acks_received = r.u64()?;
        self.fast_recoveries = r.u64()?;
        self.rtos = r.u64()?;
        self.congestion_event_log.load_state(r, |r| r.time())?;
        self.delivered_bytes = r.u64()?;
        self.segments_marked_lost = r.u64()?;
        self.ecn_reductions = r.u64()?;
        Ok(())
    }
}

/// Receiver-side counters.
#[derive(Debug, Clone, Default)]
pub struct ReceiverStats {
    /// Data segments received (any order, including duplicates).
    pub data_pkts_received: u64,
    /// Payload bytes received (including duplicates).
    pub bytes_received: u64,
    /// Out-of-order arrivals buffered.
    pub ooo_pkts: u64,
    /// Entirely duplicate segments (spurious retransmissions).
    pub duplicate_pkts: u64,
    /// Segments observed with the retransmit flag.
    pub retransmits_received: u64,
    /// ACKs emitted.
    pub acks_sent: u64,
    /// ACKs emitted carrying SACK blocks.
    pub sack_acks_sent: u64,
    /// Data segments that arrived CE-marked.
    pub ce_pkts_received: u64,
    /// ACKs emitted with the ECE echo set.
    pub ece_acks_sent: u64,
}

impl ReceiverStats {
    /// Serialize for a checkpoint.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.data_pkts_received);
        w.u64(self.bytes_received);
        w.u64(self.ooo_pkts);
        w.u64(self.duplicate_pkts);
        w.u64(self.retransmits_received);
        w.u64(self.acks_sent);
        w.u64(self.sack_acks_sent);
        w.u64(self.ce_pkts_received);
        w.u64(self.ece_acks_sent);
    }

    /// Overlay checkpointed state.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.data_pkts_received = r.u64()?;
        self.bytes_received = r.u64()?;
        self.ooo_pkts = r.u64()?;
        self.duplicate_pkts = r.u64()?;
        self.retransmits_received = r.u64()?;
        self.acks_sent = r.u64()?;
        self.sack_acks_sent = r.u64()?;
        self.ce_pkts_received = r.u64()?;
        self.ece_acks_sent = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_events_sum_recoveries_and_rtos() {
        let s = SenderStats {
            fast_recoveries: 7,
            rtos: 2,
            ..SenderStats::default()
        };
        assert_eq!(s.congestion_events(), 9);
    }

    #[test]
    fn defaults_are_zero() {
        let s = SenderStats::default();
        assert_eq!(s.congestion_events(), 0);
        assert!(s.congestion_event_log.is_empty());
        let r = ReceiverStats::default();
        assert_eq!(r.acks_sent, 0);
    }
}
