//! Topology descriptions and the built-in generators.
//!
//! A [`Topology`] is a static description of the network a scenario runs
//! on: named nodes, directed [`LinkSpec`]s (rate / propagation delay /
//! buffer / optional per-link AQM override), and per-flow route tables —
//! the ordered link indices a flow's data packets traverse
//! (`forward_paths`) and, when the scenario models the reverse direction
//! explicitly, the links its ACKs traverse (`reverse_paths`; empty means
//! the netem substitution delivers ACKs directly, as the single-bottleneck
//! configuration always has).
//!
//! Descriptions are value types: generated by [`Topology::generate`] from
//! a [`TopologyKind`], serializable to single-line JSON ([`Topology::to_json`] /
//! [`Topology::from_json`], hand-rolled like every wire format in the
//! workspace), and validated structurally before instantiation.
//!
//! The generators mirror the shapes the related work sweeps:
//!
//! * [`TopologyKind::SingleBottleneck`] — the paper's network: one shared
//!   drop-tail link, access links elided (DESIGN.md D5). Instantiates to
//!   **byte-identical** component layout and event sequence as the
//!   pre-topology engine.
//! * [`TopologyKind::Dumbbell`] — an explicit aggregation hop at 4× the
//!   bottleneck rate feeding the bottleneck; the aggregation link never
//!   congests but adds real per-hop queueing/serialization.
//! * [`TopologyKind::ParkingLot`]`(n)` — the classic multi-bottleneck
//!   fairness ladder: flow 0 crosses all `n` bottlenecks, every other
//!   flow crosses exactly one (round-robin), so the long flow competes
//!   at each hop.
//! * [`TopologyKind::DumbbellAsym`] — dumbbell plus an explicit reverse
//!   ACK link at 1/10 the bottleneck rate (ACK-path congestion).

use ccsim_net::AqmKind;
use ccsim_sim::json::{escape, Json, JsonError};
use ccsim_sim::{Bandwidth, SimDuration};
use std::fmt;
use std::fmt::Write as _;

/// The built-in topology shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// One shared bottleneck link, ACKs delivered directly (the paper's
    /// network; the default).
    SingleBottleneck,
    /// Aggregation link at 4× feeding the bottleneck.
    Dumbbell,
    /// `n` chained bottlenecks; flow 0 crosses all, others one each.
    ParkingLot(u32),
    /// Dumbbell with an explicit reverse ACK link at rate/10.
    DumbbellAsym,
}

impl TopologyKind {
    /// Canonical spec-file name: `single`, `dumbbell`, `parking_lot:N`,
    /// `dumbbell_asym`.
    pub fn as_str(self) -> String {
        match self {
            TopologyKind::SingleBottleneck => "single".to_string(),
            TopologyKind::Dumbbell => "dumbbell".to_string(),
            TopologyKind::ParkingLot(n) => format!("parking_lot:{n}"),
            TopologyKind::DumbbellAsym => "dumbbell_asym".to_string(),
        }
    }

    /// Parse a canonical name (see [`TopologyKind::as_str`]).
    pub fn parse(s: &str) -> Result<TopologyKind, TopologyError> {
        let kind = match s {
            "single" | "single_bottleneck" => TopologyKind::SingleBottleneck,
            "dumbbell" => TopologyKind::Dumbbell,
            "dumbbell_asym" => TopologyKind::DumbbellAsym,
            other => TopologyKind::ParkingLot(
                other
                    .strip_prefix("parking_lot:")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| TopologyError::UnknownKind(other.to_string()))?,
            ),
        };
        kind.check()?;
        Ok(kind)
    }

    /// Reject a shape too large (or degenerate) to generate. Runs before
    /// [`Topology::generate`] allocates anything, so a hostile
    /// `parking_lot:N` is an error value rather than an allocation abort.
    pub fn check(self) -> Result<(), TopologyError> {
        match self {
            TopologyKind::ParkingLot(n) if !(1..=MAX_PARKING_LOT_HOPS).contains(&n) => {
                Err(TopologyError::HopCount(n))
            }
            _ => Ok(()),
        }
    }
}

/// The most chained bottlenecks a `parking_lot:N` topology may have.
pub const MAX_PARKING_LOT_HOPS: u32 = 4096;

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

/// One directed link of a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSpec {
    /// Human-readable label used in reports ("bottleneck", "agg", "bn1"…).
    pub label: String,
    /// Link rate.
    pub rate: Bandwidth,
    /// One-way propagation delay (the generators use zero: base RTT is
    /// applied at the receiver, the netem substitution).
    pub prop_delay: SimDuration,
    /// Queue capacity in bytes.
    pub buffer_bytes: u64,
    /// Whether this link is a measured bottleneck (participates in
    /// per-bottleneck utilization/JFI reporting).
    pub bottleneck: bool,
    /// Per-link AQM override; `None` inherits the scenario-wide setting.
    pub aqm: Option<AqmKind>,
}

/// Structured topology-validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    NoLinks,
    NoFlows,
    /// `forward_paths` and `reverse_paths` must both have one entry per
    /// flow.
    PathTableMismatch,
    /// A flow's forward path is empty.
    EmptyForwardPath(u32),
    /// A path references a link index out of range.
    BadLinkIndex(u32, u32),
    /// The same link appears twice in one flow's combined paths — the
    /// per-flow route tables could not disambiguate the next hop.
    DuplicateHop(u32, u32),
    ZeroRate(u32),
    /// A topology name no shape answers to.
    UnknownKind(String),
    /// `parking_lot:N` with `N` outside `1..=`[`MAX_PARKING_LOT_HOPS`].
    HopCount(u32),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoLinks => f.write_str("topology has no links"),
            TopologyError::NoFlows => f.write_str("topology has no flows"),
            TopologyError::PathTableMismatch => {
                f.write_str("forward/reverse path tables differ in length")
            }
            TopologyError::EmptyForwardPath(flow) => {
                write!(f, "flow {flow} has an empty forward path")
            }
            TopologyError::BadLinkIndex(flow, idx) => {
                write!(f, "flow {flow} references link {idx} out of range")
            }
            TopologyError::DuplicateHop(flow, idx) => {
                write!(f, "flow {flow} traverses link {idx} more than once")
            }
            TopologyError::ZeroRate(idx) => write!(f, "link {idx} has zero rate"),
            TopologyError::UnknownKind(name) => write!(f, "unknown topology \"{name}\""),
            TopologyError::HopCount(n) => write!(
                f,
                "parking_lot:{n} is out of range (1..={MAX_PARKING_LOT_HOPS} hops)"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A complete topology description. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// The generator shape this description came from.
    pub kind: TopologyKind,
    /// Node labels (documentation/diagnostics only; links are the wired
    /// entities).
    pub nodes: Vec<String>,
    /// Directed links, indexed by the route tables.
    pub links: Vec<LinkSpec>,
    /// `forward_paths[flow]` — ordered link indices the flow's data
    /// packets traverse, sender → receiver.
    pub forward_paths: Vec<Vec<u32>>,
    /// `reverse_paths[flow]` — ordered link indices the flow's ACKs
    /// traverse; empty = ACKs delivered directly (netem substitution).
    pub reverse_paths: Vec<Vec<u32>>,
}

impl Topology {
    /// Generate the topology for `kind` with `flows` flows over a
    /// bottleneck of `rate` and `buffer_bytes`.
    pub fn generate(
        kind: TopologyKind,
        rate: Bandwidth,
        buffer_bytes: u64,
        flows: u32,
    ) -> Topology {
        match kind {
            TopologyKind::SingleBottleneck => {
                Topology::single_bottleneck(rate, buffer_bytes, flows)
            }
            TopologyKind::Dumbbell => Topology::dumbbell(rate, buffer_bytes, flows),
            TopologyKind::ParkingLot(n) => Topology::parking_lot(n, rate, buffer_bytes, flows),
            TopologyKind::DumbbellAsym => Topology::dumbbell_asym(rate, buffer_bytes, flows),
        }
    }

    /// The paper's network: one shared bottleneck, ACKs direct.
    pub fn single_bottleneck(rate: Bandwidth, buffer_bytes: u64, flows: u32) -> Topology {
        Topology {
            kind: TopologyKind::SingleBottleneck,
            nodes: vec!["senders".into(), "switch".into(), "receivers".into()],
            links: vec![LinkSpec {
                label: "bottleneck".into(),
                rate,
                prop_delay: SimDuration::ZERO,
                buffer_bytes,
                bottleneck: true,
                aqm: None,
            }],
            forward_paths: vec![vec![0]; flows as usize],
            reverse_paths: vec![Vec::new(); flows as usize],
        }
    }

    /// Aggregation hop at 4× the bottleneck rate, then the bottleneck.
    pub fn dumbbell(rate: Bandwidth, buffer_bytes: u64, flows: u32) -> Topology {
        Topology {
            kind: TopologyKind::Dumbbell,
            nodes: vec![
                "senders".into(),
                "agg-switch".into(),
                "core-switch".into(),
                "receivers".into(),
            ],
            links: vec![
                LinkSpec {
                    label: "agg".into(),
                    rate: Bandwidth::from_bps(rate.as_bps().saturating_mul(4)),
                    prop_delay: SimDuration::ZERO,
                    buffer_bytes,
                    bottleneck: false,
                    aqm: None,
                },
                LinkSpec {
                    label: "bottleneck".into(),
                    rate,
                    prop_delay: SimDuration::ZERO,
                    buffer_bytes,
                    bottleneck: true,
                    aqm: None,
                },
            ],
            forward_paths: vec![vec![0, 1]; flows as usize],
            reverse_paths: vec![Vec::new(); flows as usize],
        }
    }

    /// The parking-lot ladder: `n` chained bottlenecks, flow 0 crossing
    /// all of them, flow `f ≥ 1` crossing link `(f − 1) mod n` only.
    pub fn parking_lot(n: u32, rate: Bandwidth, buffer_bytes: u64, flows: u32) -> Topology {
        let n = n.max(1);
        let mut nodes = Vec::with_capacity(n as usize + 1);
        for i in 0..=n {
            nodes.push(format!("hop{i}"));
        }
        let links = (0..n)
            .map(|i| LinkSpec {
                label: format!("bn{i}"),
                rate,
                prop_delay: SimDuration::ZERO,
                buffer_bytes,
                bottleneck: true,
                aqm: None,
            })
            .collect();
        let mut forward_paths = Vec::with_capacity(flows as usize);
        for f in 0..flows {
            if f == 0 {
                forward_paths.push((0..n).collect());
            } else {
                forward_paths.push(vec![(f - 1) % n]);
            }
        }
        Topology {
            kind: TopologyKind::ParkingLot(n),
            nodes,
            links,
            forward_paths,
            reverse_paths: vec![Vec::new(); flows as usize],
        }
    }

    /// Dumbbell plus an explicit reverse ACK link at rate/10.
    pub fn dumbbell_asym(rate: Bandwidth, buffer_bytes: u64, flows: u32) -> Topology {
        let mut t = Topology::dumbbell(rate, buffer_bytes, flows);
        t.kind = TopologyKind::DumbbellAsym;
        t.links.push(LinkSpec {
            label: "ack-return".into(),
            rate: Bandwidth::from_bps((rate.as_bps() / 10).max(1)),
            prop_delay: SimDuration::ZERO,
            buffer_bytes,
            bottleneck: false,
            aqm: None,
        });
        t.reverse_paths = vec![vec![2]; t.forward_paths.len()];
        t
    }

    /// Number of flows the route tables cover.
    pub fn flow_count(&self) -> u32 {
        self.forward_paths.len() as u32
    }

    /// Indices of links marked as measured bottlenecks.
    pub fn bottleneck_indices(&self) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.bottleneck)
            .map(|(i, _)| i)
            .collect()
    }

    /// The primary bottleneck: the first link marked `bottleneck` (falls
    /// back to link 0). Legacy single-link reporting (aggregate loss
    /// rate, drop burstiness, queue-depth trace hop 0) anchors here.
    pub fn primary_bottleneck(&self) -> usize {
        self.links.iter().position(|l| l.bottleneck).unwrap_or(0)
    }

    /// Flow indices whose forward path traverses link `link`.
    pub fn flows_on_link(&self, link: usize) -> Vec<usize> {
        self.forward_paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().any(|&i| i as usize == link))
            .map(|(f, _)| f)
            .collect()
    }

    /// Validate structural consistency.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.links.is_empty() {
            return Err(TopologyError::NoLinks);
        }
        if self.forward_paths.is_empty() {
            return Err(TopologyError::NoFlows);
        }
        if self.forward_paths.len() != self.reverse_paths.len() {
            return Err(TopologyError::PathTableMismatch);
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.rate.as_bps() == 0 {
                return Err(TopologyError::ZeroRate(i as u32));
            }
        }
        let n = self.links.len() as u32;
        for (f, (fwd, rev)) in self
            .forward_paths
            .iter()
            .zip(&self.reverse_paths)
            .enumerate()
        {
            let f = f as u32;
            if fwd.is_empty() {
                return Err(TopologyError::EmptyForwardPath(f));
            }
            let mut seen = vec![false; n as usize];
            for &idx in fwd.iter().chain(rev.iter()) {
                if idx >= n {
                    return Err(TopologyError::BadLinkIndex(f, idx));
                }
                if seen[idx as usize] {
                    return Err(TopologyError::DuplicateHop(f, idx));
                }
                seen[idx as usize] = true;
            }
        }
        Ok(())
    }

    /// Serialize to a single-line JSON document. Numbers stay in exact
    /// integer form (bits/sec, nanoseconds, bytes), so decode → encode
    /// is byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"kind\":\"{}\",\"nodes\":[", self.kind.as_str());
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(n));
        }
        out.push_str("],\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":\"{}\",\"rate_bps\":{},\"prop_delay_ns\":{},\"buffer_bytes\":{},\
                 \"bottleneck\":{},\"aqm\":{}}}",
                escape(&l.label),
                l.rate.as_bps(),
                l.prop_delay.as_nanos(),
                l.buffer_bytes,
                l.bottleneck,
                match l.aqm {
                    Some(kind) => format!("\"{}\"", kind.as_str()),
                    None => "null".into(),
                }
            );
        }
        let paths = |table: &[Vec<u32>]| {
            let rows: Vec<String> = table
                .iter()
                .map(|p| {
                    let hops: Vec<String> = p.iter().map(u32::to_string).collect();
                    format!("[{}]", hops.join(","))
                })
                .collect();
            rows.join(",")
        };
        let _ = write!(
            out,
            "],\"forward_paths\":[{}],\"reverse_paths\":[{}]}}",
            paths(&self.forward_paths),
            paths(&self.reverse_paths)
        );
        out
    }

    /// Parse a document produced by [`Topology::to_json`].
    pub fn from_json(text: &str) -> Result<Topology, JsonError> {
        let doc = Json::parse(text)?;
        let kind_str = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing topology \"kind\""))?;
        let kind = TopologyKind::parse(kind_str).map_err(|e| bad(e.to_string()))?;
        let nodes = doc
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing \"nodes\""))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("non-string node"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let links_json = doc
            .get("links")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing \"links\""))?;
        let mut links = Vec::with_capacity(links_json.len());
        for l in links_json {
            let aqm = match l.get("aqm") {
                None => None,
                Some(v) if v.is_null() => None,
                Some(v) => {
                    let name = v.as_str().ok_or_else(|| bad("non-string link aqm"))?;
                    Some(
                        AqmKind::parse(name)
                            .ok_or_else(|| bad(format!("unknown AQM \"{name}\"")))?,
                    )
                }
            };
            links.push(LinkSpec {
                label: l
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("link missing \"label\""))?
                    .to_string(),
                rate: Bandwidth::from_bps(
                    l.get("rate_bps")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("link missing \"rate_bps\""))?,
                ),
                prop_delay: SimDuration::from_nanos(
                    l.get("prop_delay_ns")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("link missing \"prop_delay_ns\""))?,
                ),
                buffer_bytes: l
                    .get("buffer_bytes")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("link missing \"buffer_bytes\""))?,
                bottleneck: l
                    .get("bottleneck")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("link missing \"bottleneck\""))?,
                aqm,
            });
        }
        let paths = |key: &str| -> Result<Vec<Vec<u32>>, JsonError> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| bad(format!("missing \"{key}\"")))?
                .iter()
                .map(|row| {
                    row.as_arr()
                        .ok_or_else(|| bad(format!("non-array row in \"{key}\"")))?
                        .iter()
                        .map(|v| {
                            v.as_u64()
                                .and_then(|n| u32::try_from(n).ok())
                                .ok_or_else(|| bad(format!("bad link index in \"{key}\"")))
                        })
                        .collect()
                })
                .collect()
        };
        Ok(Topology {
            kind,
            nodes,
            links,
            forward_paths: paths("forward_paths")?,
            reverse_paths: paths("reverse_paths")?,
        })
    }
}

fn bad(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: Bandwidth = Bandwidth::from_mbps(100);

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            TopologyKind::SingleBottleneck,
            TopologyKind::Dumbbell,
            TopologyKind::ParkingLot(3),
            TopologyKind::ParkingLot(17),
            TopologyKind::DumbbellAsym,
        ] {
            assert_eq!(TopologyKind::parse(&kind.as_str()), Ok(kind));
        }
        assert_eq!(
            TopologyKind::parse("parking_lot:0"),
            Err(TopologyError::HopCount(0))
        );
        assert_eq!(
            TopologyKind::parse("parking_lot:4294967295"),
            Err(TopologyError::HopCount(u32::MAX))
        );
        assert!(TopologyKind::parse(&format!("parking_lot:{MAX_PARKING_LOT_HOPS}")).is_ok());
        assert_eq!(
            TopologyKind::parse("ring"),
            Err(TopologyError::UnknownKind("ring".into()))
        );
    }

    #[test]
    fn single_bottleneck_matches_the_legacy_shape() {
        let t = Topology::single_bottleneck(RATE, 3_000_000, 5);
        t.validate().unwrap();
        assert_eq!(t.links.len(), 1);
        assert!(t.links[0].bottleneck);
        assert_eq!(t.forward_paths, vec![vec![0]; 5]);
        assert!(t.reverse_paths.iter().all(Vec::is_empty));
        assert_eq!(t.primary_bottleneck(), 0);
        assert_eq!(t.flows_on_link(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dumbbell_aggregation_is_four_times_and_not_a_bottleneck() {
        let t = Topology::dumbbell(RATE, 3_000_000, 2);
        t.validate().unwrap();
        assert_eq!(t.links.len(), 2);
        assert_eq!(t.links[0].rate.as_bps(), RATE.as_bps() * 4);
        assert!(!t.links[0].bottleneck);
        assert!(t.links[1].bottleneck);
        assert_eq!(t.bottleneck_indices(), vec![1]);
        assert_eq!(t.primary_bottleneck(), 1);
        assert_eq!(t.forward_paths[1], vec![0, 1]);
    }

    #[test]
    fn parking_lot_routes_the_long_flow_through_every_hop() {
        let t = Topology::parking_lot(3, RATE, 1_000_000, 7);
        t.validate().unwrap();
        assert_eq!(t.links.len(), 3);
        assert_eq!(t.forward_paths[0], vec![0, 1, 2]);
        // Short flows round-robin: flows 1..=6 → links 0,1,2,0,1,2.
        assert_eq!(t.forward_paths[1], vec![0]);
        assert_eq!(t.forward_paths[4], vec![0]);
        assert_eq!(t.forward_paths[6], vec![2]);
        // Every bottleneck sees the long flow plus its short flows.
        assert_eq!(t.flows_on_link(1), vec![0, 2, 5]);
    }

    #[test]
    fn asymmetric_dumbbell_has_a_slow_reverse_path() {
        let t = Topology::dumbbell_asym(RATE, 3_000_000, 2);
        t.validate().unwrap();
        assert_eq!(t.links.len(), 3);
        assert_eq!(t.links[2].rate.as_bps(), RATE.as_bps() / 10);
        assert!(!t.links[2].bottleneck);
        assert_eq!(t.reverse_paths, vec![vec![2], vec![2]]);
    }

    #[test]
    fn json_round_trips_byte_identically() {
        for kind in [
            TopologyKind::SingleBottleneck,
            TopologyKind::Dumbbell,
            TopologyKind::ParkingLot(4),
            TopologyKind::DumbbellAsym,
        ] {
            let mut t = Topology::generate(kind, RATE, 3_000_000, 6);
            t.links[0].aqm = Some(AqmKind::Codel);
            let json = t.to_json();
            let back = Topology::from_json(&json).unwrap();
            assert_eq!(back, t);
            assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn validation_rejects_broken_tables() {
        let mut t = Topology::single_bottleneck(RATE, 1_000, 2);
        t.forward_paths[1] = vec![9];
        assert_eq!(t.validate(), Err(TopologyError::BadLinkIndex(1, 9)));

        let mut t = Topology::single_bottleneck(RATE, 1_000, 2);
        t.forward_paths[0].clear();
        assert_eq!(t.validate(), Err(TopologyError::EmptyForwardPath(0)));

        let mut t = Topology::dumbbell(RATE, 1_000, 1);
        t.reverse_paths[0] = vec![1]; // bottleneck reused by the ACK path
        assert_eq!(t.validate(), Err(TopologyError::DuplicateHop(0, 1)));

        let mut t = Topology::single_bottleneck(RATE, 1_000, 2);
        t.reverse_paths.pop();
        assert_eq!(t.validate(), Err(TopologyError::PathTableMismatch));

        assert!(Topology::from_json("{\"kind\":\"ring\"}").is_err());
    }
}
