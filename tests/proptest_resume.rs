//! Checkpoint container properties: canonical encode/decode fixpoint,
//! and typed — never panicking — failure on malformed bytes. The
//! container is exactly the thing a kill-mid-write tears, so every
//! corruption class must come back as a `ResumeError` value.

use ccsim::experiments::{Checkpoint, ResumeError};
use proptest::prelude::*;

/// A deterministic pseudo-random checkpoint (xorshift body bytes).
fn synthetic(seed: u64, nanos: u64, len: usize) -> Checkpoint {
    let mut x = seed | 1;
    let mut body = Vec::with_capacity(len);
    for _ in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        body.push(x as u8);
    }
    Checkpoint {
        scenario_json: format!("{{\"name\":\"prop/{seed}\"}}"),
        taken_at_nanos: nanos,
        body,
    }
}

proptest! {
    /// encode → decode → encode is a fixpoint: decode returns exactly
    /// what was encoded, and re-encoding is byte-identical (canonical
    /// encoding — no hidden nondeterminism in the container).
    #[test]
    fn encode_decode_encode_fixpoint(
        seed in 0u64..u64::MAX,
        nanos in 0u64..u64::MAX,
        len in 0usize..2048,
    ) {
        let cp = synthetic(seed, nanos, len);
        let bytes = cp.encode();
        let decoded = Checkpoint::decode(&bytes).expect("valid container decodes");
        prop_assert_eq!(&decoded, &cp);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Every truncation of a valid container is a typed error.
    #[test]
    fn truncated_containers_are_typed_errors(
        seed in 0u64..u64::MAX,
        len in 0usize..512,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = synthetic(seed, 7, len).encode();
        let cut = ((bytes.len() as f64 - 1.0) * cut_frac) as usize;
        let err = Checkpoint::decode(&bytes[..cut]).expect_err("truncated container");
        prop_assert!(
            matches!(
                err,
                ResumeError::Truncated { .. }
                    | ResumeError::BadMagic
                    | ResumeError::DigestMismatch { .. }
            ),
            "unexpected error class: {err}"
        );
    }

    /// Flipping any single byte of a valid container is caught — as a
    /// magic, version, or digest failure — never accepted, never a panic.
    #[test]
    fn corrupted_containers_are_typed_errors(
        seed in 0u64..u64::MAX,
        len in 0usize..512,
        pos_frac in 0.0f64..1.0,
    ) {
        let mut bytes = synthetic(seed, 7, len).encode();
        let pos = ((bytes.len() as f64 - 1.0) * pos_frac) as usize;
        bytes[pos] ^= 0xFF;
        prop_assert!(Checkpoint::decode(&bytes).is_err());
    }
}

#[test]
fn version_mismatch_is_a_typed_error() {
    // The version field is the 4 LE bytes right after the 8-byte magic.
    let mut bytes = synthetic(3, 11, 64).encode();
    bytes[8] ^= 0x40;
    match Checkpoint::decode(&bytes) {
        Err(ResumeError::Version { found, expected }) => {
            assert_ne!(found, expected);
        }
        other => panic!("want ResumeError::Version, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_a_typed_error() {
    let mut bytes = synthetic(3, 11, 64).encode();
    bytes[0] ^= 0xFF;
    assert_eq!(Checkpoint::decode(&bytes), Err(ResumeError::BadMagic));
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let err = Checkpoint::read_file(std::path::Path::new("/nonexistent/missing.ckpt"))
        .expect_err("missing file");
    assert!(matches!(err, ResumeError::Io(_)), "{err}");
}
