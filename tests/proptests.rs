//! Property-based tests over the reproduction's core invariants.
//!
//! The build environment has no access to crates.io, so instead of `proptest`
//! these use a small deterministic generator (splitmix64) and run each
//! property over many seeded cases.  Failures print the case seed so a run
//! can be reproduced by fixing `CASE_SEED_BASE`.

use tc_core::{CodeRepr, MessageFrame, SendDecision, SenderCache};
use tc_ucx::WorkerAddr;
use tc_workloads::PointerTable;

const CASES: u64 = 64;
const CASE_SEED_BASE: u64 = 0x3C3C_0001;

/// Deterministic case generator over the shared splitmix64 stream.
struct Gen(tc_simnet::SplitMix64);

impl Gen {
    fn for_case(case: u64) -> Self {
        Gen(tc_simnet::SplitMix64::new(
            CASE_SEED_BASE.wrapping_add(case.wrapping_mul(0x9e37_79b9)),
        ))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `lo..hi` (hi > lo).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.0.range(lo, hi)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        self.0.bytes(max_len)
    }

    /// A lowercase identifier of 1..=max_len characters.
    fn ident(&mut self, max_len: usize) -> String {
        let len = self.range(1, max_len as u64 + 1) as usize;
        (0..len)
            .map(|i| {
                let alphabet = if i == 0 {
                    b"abcdefghijklmnopqrstuvwxyz".as_slice()
                } else {
                    b"abcdefghijklmnopqrstuvwxyz0123456789_".as_slice()
                };
                alphabet[self.range(0, alphabet.len() as u64) as usize] as char
            })
            .collect()
    }
}

/// Full frames roundtrip for arbitrary names, payloads, code and deps.
#[test]
fn frame_full_roundtrip() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let name = g.ident(25);
        let payload = g.bytes(512);
        let code = g.bytes(4096);
        let deps: Vec<String> = (0..g.range(0, 4))
            .map(|_| format!("{}.so", g.ident(12)))
            .collect();
        let repr = if g.bool() {
            CodeRepr::Binary
        } else {
            CodeRepr::Bitcode
        };
        let frame = MessageFrame::new(
            name.clone(),
            repr,
            payload.clone(),
            code.clone(),
            deps.clone(),
        );
        let decoded = MessageFrame::decode(&frame.encode_full()).unwrap();
        assert_eq!(decoded.ifunc_name, name, "case {case}");
        assert_eq!(decoded.repr, repr, "case {case}");
        assert_eq!(decoded.payload, payload, "case {case}");
        assert_eq!(decoded.code.as_deref(), Some(&code[..]), "case {case}");
        assert_eq!(decoded.deps, deps, "case {case}");
    }
}

/// Truncated frames always decode as truncated, carry the payload, and are
/// never larger than the full frame.
#[test]
fn frame_truncation_invariants() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let payload = g.bytes(256);
        let mut code = g.bytes(2047);
        code.push(g.next_u64() as u8); // at least one code byte
        let frame = MessageFrame::new("f", CodeRepr::Bitcode, payload.clone(), code, vec![]);
        let truncated = frame.encode_truncated();
        let full = frame.encode_full();
        assert!(truncated.len() < full.len(), "case {case}");
        let decoded = MessageFrame::decode(&truncated).unwrap();
        assert!(decoded.code.is_none(), "case {case}");
        assert_eq!(decoded.payload, payload, "case {case}");
    }
}

/// Decoding never panics on arbitrary bytes.
#[test]
fn frame_decode_never_panics() {
    for case in 0..CASES * 4 {
        let mut g = Gen::for_case(case);
        let bytes = g.bytes(512);
        let _ = MessageFrame::decode(&bytes);
    }
}

/// The sender cache sends the full frame exactly once per (ifunc, endpoint)
/// pair regardless of the send order.
#[test]
fn sender_cache_full_once_per_pair() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let mut cache = SenderCache::new();
        let mut seen = std::collections::HashSet::new();
        let mut fulls = 0;
        for _ in 0..g.range(1, 64) {
            let ifunc = g.range(0, 4) as u32;
            let ep = g.range(0, 6) as u32;
            let name = format!("ifunc{ifunc}");
            let row = cache.row_of(&name);
            let decision = cache.decide(row, WorkerAddr(ep));
            let first_time = seen.insert((ifunc, ep));
            if first_time {
                assert_eq!(decision, SendDecision::SendFull, "case {case}");
            } else {
                assert_eq!(decision, SendDecision::SendTruncated, "case {case}");
            }
            fulls += (decision == SendDecision::SendFull) as usize;
        }
        assert_eq!(cache.len(), seen.len(), "case {case}");
        assert_eq!(fulls, seen.len(), "case {case}");
    }
}

/// Generated pointer tables are always a single cycle covering every entry,
/// whatever the shape and seed.
#[test]
fn pointer_table_is_single_cycle() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let servers = g.range(1, 9) as usize;
        let shard = g.range(1, 65) as usize;
        let seed = g.next_u64();
        let table = PointerTable::generate(servers, shard, seed);
        let total = table.total_entries();
        let mut visited = vec![false; total];
        let mut idx = 0u64;
        for _ in 0..total {
            assert!(!visited[idx as usize], "case {case}");
            visited[idx as usize] = true;
            idx = table.next(idx);
            assert!((idx as usize) < total, "case {case}");
        }
        assert_eq!(idx, 0, "case {case}");
        assert!(visited.into_iter().all(|v| v), "case {case}");
    }
}

/// Ownership maps every index to a valid server rank and chase ground truth
/// is consistent with repeated single steps.
#[test]
fn pointer_table_ownership_and_chase() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let servers = g.range(1, 6) as usize;
        let shard = g.range(1, 33) as usize;
        let table = PointerTable::generate(servers, shard, 7);
        let total = table.total_entries() as u64;
        let start = g.next_u64() % total;
        let depth = g.range(0, 64);
        let owner = table.owner_rank(start);
        assert!(owner >= 1 && owner <= servers, "case {case}");
        let mut idx = start;
        for _ in 0..depth {
            idx = table.next(idx);
        }
        assert_eq!(idx, table.chase(start, depth), "case {case}");
    }
}

/// Bitcode encode/decode roundtrips for modules with arbitrary payload
/// constants (structural fuzz of the encoder's varint paths).
#[test]
fn bitcode_roundtrip_with_arbitrary_constants() {
    use tc_bitir::{BinOp, ModuleBuilder, ScalarType};
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let consts: Vec<u64> = (0..g.range(1, 32)).map(|_| g.next_u64()).collect();
        let mut mb = ModuleBuilder::new("fuzzed");
        {
            let mut f = mb.entry_function();
            let target = f.param(2);
            let mut acc = f.const_u64(0);
            for &c in &consts {
                let k = f.const_u64(c);
                acc = f.bin(BinOp::Add, ScalarType::U64, acc, k);
            }
            f.store(ScalarType::U64, acc, target, 0);
            let z = f.const_i64(0);
            f.ret(z);
            f.finish();
        }
        let module = mb.build();
        let bytes = tc_bitir::encode_module(&module);
        let decoded = tc_bitir::decode_module(&bytes).unwrap();
        assert_eq!(module, decoded, "case {case}");
    }
}

/// The interpreter computes the same wrapping sum the host would.
#[test]
fn interpreter_matches_host_arithmetic() {
    use tc_bitir::{BinOp, ModuleBuilder, ScalarType};
    use tc_jit::{CompileOptions, Engine, MemoryExt, NoExternals, VecMemory};
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let values: Vec<u64> = (0..g.range(1, 16)).map(|_| g.next_u64()).collect();
        let mut mb = ModuleBuilder::new("sum");
        {
            let mut f = mb.function("sum", vec![], Some(ScalarType::U64));
            let mut acc = f.const_u64(0);
            for &v in &values {
                let k = f.const_u64(v);
                acc = f.bin(BinOp::Add, ScalarType::U64, acc, k);
            }
            f.ret(acc);
            f.finish();
        }
        let compiled = tc_jit::compile_module(&mb.build(), CompileOptions::default()).unwrap();
        let mut mem = VecMemory::new(0, 8);
        let out = Engine::new()
            .run(
                &compiled.module,
                "sum",
                &[],
                &[],
                &mut mem,
                &mut NoExternals,
            )
            .unwrap();
        let expected = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        assert_eq!(out.return_value, expected, "case {case}");
        let _ = mem.read_u64(0);
    }
}
