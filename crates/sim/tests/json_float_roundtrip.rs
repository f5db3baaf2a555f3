//! Shared float round-trip property: every float the workspace's
//! hand-rolled writers emit (via `ccsim_sim::json::json_f64`) must be
//! (a) accepted by the in-workspace parser (`ccsim_sim::json`),
//! (b) bit-exact after parsing, and (c) a byte-level fixpoint under
//! format → parse → format. Exercised over arbitrary bit patterns so
//! -0.0, subnormals, and huge-magnitude values are all covered.

use ccsim_fault::FaultPlan;
use ccsim_sim::json::{json_f64, Json};
use ccsim_sim::SimTime;
use proptest::prelude::*;

/// Interpret arbitrary bits as f64, folding non-finite patterns onto
/// finite edge cases so every generated case exercises the real path.
fn finite_from_bits(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else if v.is_nan() {
        f64::MIN_POSITIVE // a normal-boundary value
    } else {
        f64::MAX.copysign(v)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// format → parse → format is a byte-level fixpoint, and the parsed
    /// value is bit-exact, for arbitrary finite floats.
    #[test]
    fn format_parse_format_is_fixpoint(bits in 0u64..u64::MAX) {
        let x = finite_from_bits(bits);
        let s1 = json_f64(x);
        let doc = Json::parse(&format!("{{\"v\": {s1}}}"))
            .expect("json_f64 output must be parseable");
        let y = doc.get("v").and_then(Json::as_f64).expect("numeric field");
        prop_assert_eq!(y.to_bits(), x.to_bits(), "parse must be bit-exact");
        prop_assert_eq!(json_f64(y), s1, "reformat must be a fixpoint");
    }

    /// A fault plan whose loss/reorder/duplicate rates are arbitrary
    /// finite floats survives to_json → from_json bit-for-bit, and a
    /// second encode is byte-identical to the first.
    #[test]
    fn fault_plan_rates_round_trip(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let enter = finite_from_bits(a).abs();
        let exit = finite_from_bits(b).abs();
        let plan = FaultPlan::none()
            .burst_loss(SimTime::from_secs(1), enter, exit)
            .iid_loss(SimTime::from_secs(2), exit);
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("plan JSON must parse");
        prop_assert_eq!(back.to_json(), json, "decode -> encode must be byte-identical");
    }
}

#[test]
fn parser_accepts_edge_case_literals() {
    // The exact spellings json_f64 now emits for the historical trouble
    // spots: negative zero, the smallest subnormal, and a magnitude whose
    // positional expansion would be 300+ digits.
    for (text, bits) in [
        ("-0.0", (-0.0f64).to_bits()),
        ("5e-324", 5e-324f64.to_bits()),
        ("1e300", 1e300f64.to_bits()),
        ("2.2250738585072014e-308", f64::MIN_POSITIVE.to_bits()),
    ] {
        let doc = Json::parse(&format!("[{text}]")).unwrap();
        let v = doc.as_arr().unwrap()[0].as_f64().unwrap();
        assert_eq!(v.to_bits(), bits, "{text} must parse bit-exact");
    }
}

#[test]
fn non_finite_rates_degrade_to_valid_json() {
    // Non-finite floats must never corrupt a document: json_f64 degrades
    // them to 0 and the plan still parses.
    let plan = FaultPlan::none().iid_loss(SimTime::from_secs(1), f64::NAN);
    let json = plan.to_json();
    assert!(FaultPlan::from_json(&json).is_ok(), "emitted: {json}");
}
