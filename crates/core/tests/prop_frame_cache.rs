//! Property tests for the wire-facing core pieces: `MessageFrame`
//! encode/decode (including the truncated, code-elided form the caching
//! protocol transmits) and `SenderCache` hit/miss and endpoint-eviction behaviour.
//!
//! No crates.io access in the build environment, so these run on a small
//! deterministic generator (splitmix64) instead of `proptest`; every
//! assertion carries its case index for reproduction.

use std::collections::HashSet;
use tc_core::{CodeRepr, MessageFrame, SendDecision, SenderCache};
use tc_ucx::{Bytes, WorkerAddr};

const CASES: u64 = 128;

/// One send of `name` to `ep`, decided by the name's row.
fn send(cache: &mut SenderCache, name: &str, ep: WorkerAddr) -> SendDecision {
    let row = cache.row_of(name);
    cache.decide(row, ep)
}

/// Deterministic case generator over the shared splitmix64 stream.
struct Gen(tc_simnet::SplitMix64);

impl Gen {
    fn for_case(case: u64) -> Self {
        Gen(tc_simnet::SplitMix64::new(
            0xF0A1_0000u64.wrapping_add(case.wrapping_mul(0x9e37_79b9)),
        ))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.0.range(lo, hi)
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        self.0.bytes(max_len)
    }

    fn ident(&mut self, max_len: usize) -> String {
        let len = self.range(1, max_len as u64 + 1) as usize;
        (0..len)
            .map(|_| (b'a' + (self.range(0, 26) as u8)) as char)
            .collect()
    }

    fn frame(&mut self) -> MessageFrame {
        let repr = if self.next_u64() & 1 == 0 {
            CodeRepr::Bitcode
        } else {
            CodeRepr::Binary
        };
        let deps = (0..self.range(0, 4))
            .map(|_| format!("lib{}.so", self.ident(8)))
            .collect();
        MessageFrame::new(
            self.ident(24),
            repr,
            self.bytes(256),
            self.bytes(4096),
            deps,
        )
    }
}

// --- MessageFrame ----------------------------------------------------------

#[test]
fn full_and_truncated_encodings_roundtrip() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let frame = g.frame();

        let full = MessageFrame::decode(&frame.encode_full()).unwrap();
        assert!(full.code.is_some(), "case {case}");
        assert_eq!(full.ifunc_name, frame.ifunc_name, "case {case}");
        assert_eq!(full.repr, frame.repr, "case {case}");
        assert_eq!(full.payload, frame.payload, "case {case}");
        assert_eq!(full.code.as_ref(), Some(&frame.code), "case {case}");
        assert_eq!(full.deps, frame.deps, "case {case}");

        let truncated = MessageFrame::decode(&frame.encode_truncated()).unwrap();
        assert!(truncated.code.is_none(), "case {case}");
        assert_eq!(truncated.ifunc_name, frame.ifunc_name, "case {case}");
        assert_eq!(truncated.repr, frame.repr, "case {case}");
        assert_eq!(truncated.payload, frame.payload, "case {case}");
        assert!(truncated.deps.is_empty(), "case {case}");
    }
}

#[test]
fn truncated_encoding_is_a_strict_prefix_of_the_full_encoding() {
    // "We control what to send by simply passing different message size
    // arguments to the UCP PUT interface" — the truncated frame must be
    // byte-identical to the head of the full frame, not a separate encoding.
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let frame = g.frame();
        let full = frame.encode_full();
        let truncated = frame.encode_truncated();
        assert!(truncated.len() < full.len(), "case {case}");
        assert_eq!(&full[..truncated.len()], &truncated[..], "case {case}");
    }
}

#[test]
fn decode_never_panics_on_mutated_or_clipped_frames() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let frame = g.frame();
        let mut bytes = frame.encode_full().to_vec();

        // The copying and the zero-copy decoder give the same frame or the
        // same typed error, whatever the input.
        let decode = |b: &[u8]| {
            let decoded = MessageFrame::decode(b);
            assert_eq!(
                decoded,
                MessageFrame::decode_view(&Bytes::copy_from_slice(b)),
                "case {case}"
            );
            decoded
        };

        // Clip at an arbitrary boundary: either an error or (exactly at the
        // truncation point) a truncated decode — never a panic.
        let cut = g.range(0, bytes.len() as u64 + 1) as usize;
        let _ = decode(&bytes[..cut]);

        // Flip one byte anywhere: must not panic.
        let idx = g.range(0, bytes.len() as u64) as usize;
        bytes[idx] ^= 1 + (g.next_u64() as u8 & 0x7f);
        let _ = decode(&bytes);
    }
}

// --- SenderCache -----------------------------------------------------------

#[test]
fn cache_ships_code_exactly_once_per_pair_under_random_interleaving() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let mut cache = SenderCache::new();
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        let mut fulls = 0usize;
        for _ in 0..g.range(1, 128) {
            let ifunc = g.range(0, 5);
            let ep = g.range(0, 7);
            let decision = send(&mut cache, &format!("f{ifunc}"), WorkerAddr(ep as u32));
            if seen.insert((ifunc, ep)) {
                assert_eq!(decision, SendDecision::SendFull, "case {case}");
            } else {
                assert_eq!(decision, SendDecision::SendTruncated, "case {case}");
            }
            fulls += (decision == SendDecision::SendFull) as usize;
        }
        assert_eq!(cache.len(), seen.len(), "case {case}");
        assert_eq!(fulls, seen.len(), "case {case}: code shipped once per pair");
    }
}

#[test]
fn endpoint_eviction_forces_code_resend_only_for_that_endpoint() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let mut cache = SenderCache::new();
        let endpoints: Vec<u32> = (0..g.range(2, 6)).map(|e| e as u32).collect();
        let ifuncs: Vec<String> = (0..g.range(1, 5)).map(|i| format!("f{i}")).collect();
        for ep in &endpoints {
            for name in &ifuncs {
                let _ = send(&mut cache, name, WorkerAddr(*ep));
            }
        }
        let victim = endpoints[g.range(0, endpoints.len() as u64) as usize];
        cache.forget_endpoint(WorkerAddr(victim));

        // The victim's next sends ship code again, exactly once each; every
        // other endpoint still has what it was sent.
        for ep in &endpoints {
            for name in &ifuncs {
                let first = if *ep == victim {
                    SendDecision::SendFull
                } else {
                    SendDecision::SendTruncated
                };
                assert_eq!(
                    send(&mut cache, name, WorkerAddr(*ep)),
                    first,
                    "case {case}, ep {ep}, ifunc {name}"
                );
                assert_eq!(
                    send(&mut cache, name, WorkerAddr(*ep)),
                    SendDecision::SendTruncated
                );
            }
        }
    }
}
