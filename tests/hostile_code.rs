//! Hostile shipped code, generated.
//!
//! Code reaches a target process as bytes a remote peer chose: a fat-bitcode
//! archive, one bitcode slice of it, or a binary ifunc's `.text`.  This suite
//! mutates the shipped forms of every `tc-workloads` kernel with a seeded
//! generator — a byte set, a bit flipped, the tail cut off, one to four of
//! them per case — and drives each case through every stage a target runs:
//! archive decode, bitcode decode, verification, compilation and execution
//! (under a small fuel limit), or `.text` decode and execution.  Any stage may
//! refuse the input with an error; none may panic.  A failing case prints
//! its seed, and `case(seed)` replays it.
//!
//! Beside it, the shipped bytes themselves are pinned: a refactor of a codec
//! must not change what travels.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tc_bitir::{decode_module, encode_module, verify_module, FatBitcode, Module, TargetTriple};
use tc_core::layout::{DATA_REGION_BASE, PAYLOAD_STAGING_BASE, TARGET_REGION_BASE};
use tc_core::{build_ifunc_library, ToolchainOptions};
use tc_jit::{
    compile_module, lower_and_compile, CompileOptions, Engine, ExecLimits, ExternalHost,
    MachModule, Memory, MemoryExt, SparseMemory,
};
use tc_workloads::{
    chaser_module, chaser_module_chainlang, chaser_payload, tsi_module, tsi_module_chainlang,
    tsi_reporting_module,
};

/// The kernels the workloads ship, by the name their pins use.
fn kernels() -> Vec<(&'static str, Module)> {
    vec![
        ("tsi", tsi_module()),
        ("tsi_chainlang", tsi_module_chainlang()),
        ("tsi_reporting", tsi_reporting_module("tsi_reporting")),
        ("chaser", chaser_module("chaser")),
        (
            "chaser_chainlang",
            chaser_module_chainlang("chaser_chainlang"),
        ),
    ]
}

/// FNV-1a, 64 bits.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a of each kernel's fat archive, then of the binary object of each
/// default toolchain target, in `default_toolchain_targets` order.
const SHIPPED_BYTES: [(&str, [u64; 6]); 5] = [
    (
        "tsi",
        [
            0x3f2f_390d_66b7_acb6,
            0xb684_0147_92c3_87c2,
            0x60fa_b43a_8ca9_8caf,
            0x6a85_aa68_ec04_d024,
            0x8c97_32ea_81c8_75de,
            0xf0dc_9904_3c5a_f5a9,
        ],
    ),
    (
        "tsi_chainlang",
        [
            0x3f93_9606_a9fe_9e29,
            0x4bc2_11c1_d015_bdd5,
            0x5195_c28e_bf24_07b4,
            0x7f50_f529_f26c_c295,
            0x5c00_ce22_d3b2_dfa5,
            0x726b_f5b6_69a6_69f6,
        ],
    ),
    (
        "tsi_reporting",
        [
            0x2a64_f8fb_d31a_4265,
            0x1335_447b_6834_0791,
            0x4ef6_5175_e97e_f2bd,
            0x6874_b521_f743_393b,
            0xf5ba_09b5_54cf_7515,
            0xa816_c7e1_3642_29dd,
        ],
    ),
    (
        "chaser",
        [
            0xaf3b_adc2_6008_92ec,
            0x5de1_5cb1_0305_d227,
            0x2868_df76_ce1d_bec1,
            0x0064_885f_da7b_1cc7,
            0x996c_6f2f_be80_e59f,
            0x496b_7153_4583_3a71,
        ],
    ),
    (
        "chaser_chainlang",
        [
            0x1021_0044_d8d8_ca66,
            0xe939_13e1_cece_38ea,
            0x2f97_82bd_d1fe_0440,
            0x3802_d49e_10ad_b80e,
            0x64b8_788f_4129_d4be,
            0x81be_4a63_80c7_6f08,
        ],
    ),
];

/// Every shipped encoding — each kernel's fat-bitcode archive and each of
/// its per-target binary objects, under the default toolchain — hashes to
/// what it did when these values were taken.  A codec change that moves a
/// byte fails here, not in the simulated tables it would shift.
#[test]
fn every_shipped_encoding_is_byte_identical() {
    let targets = TargetTriple::default_toolchain_targets();
    let mut seen = Vec::new();
    for (name, module) in kernels() {
        let library = build_ifunc_library(&module, &ToolchainOptions::default()).unwrap();
        let mut hashes = [fnv1a(&library.fat_bitcode_bytes); 6];
        for (slot, t) in hashes[1..].iter_mut().zip(&targets) {
            *slot = fnv1a(library.binary_for(&t.name()).unwrap());
        }
        seen.push((name, hashes));
    }
    let printed: Vec<String> = seen
        .iter()
        .map(|(n, h)| format!("(\"{n}\", {h:#x?})"))
        .collect();
    assert_eq!(seen, SHIPPED_BYTES, "now:\n{}", printed.join(",\n"));
}

/// splitmix64: a seed is a whole case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A shipped input, and the positions worth mutating: every byte outside
/// the runs of zeros that model bitcode's metadata padding, which no decoder
/// reads.
struct Input {
    bytes: Vec<u8>,
    hot: Vec<usize>,
}

impl Input {
    fn new(bytes: Vec<u8>) -> Self {
        let (mut hot, mut i) = (Vec::new(), 0);
        while i < bytes.len() {
            let run = bytes[i..].iter().take_while(|&&b| b == 0).count().max(1);
            if run < 64 {
                hot.extend(i..i + run);
            }
            i += run;
        }
        Input { bytes, hot }
    }
}

/// One to four mutations — flip a bit, set a byte, or (one in eight) cut
/// the tail — seven in eight of them at a hot position.
fn mutate(rng: &mut Rng, input: &Input) -> Vec<u8> {
    let mut out = input.bytes.clone();
    for _ in 0..1 + rng.below(4) {
        if out.is_empty() {
            break;
        }
        let mut at = input.hot[rng.below(input.hot.len())];
        if at >= out.len() || rng.below(8) == 0 {
            at = rng.below(out.len());
        }
        match rng.below(8) {
            0 => out.truncate(at),
            1..=3 => out[at] = rng.next() as u8,
            _ => out[at] ^= 1 << rng.below(8),
        }
    }
    out
}

/// The shipped forms of every kernel: its fat archive, its bitcode slices,
/// and the `.text` compiled from each slice.
fn inputs() -> [Vec<Input>; 3] {
    let [mut archives, mut slices, mut texts] = [Vec::new(), Vec::new(), Vec::new()];
    for (_, module) in kernels() {
        let fat = FatBitcode::from_module_default_targets(&module).unwrap();
        archives.push(Input::new(fat.encode()));
        for entry in &fat.entries {
            slices.push(Input::new(entry.bitcode.clone()));
            let compiled = lower_and_compile(&module, entry.triple, CompileOptions::default());
            texts.push(Input::new(compiled.unwrap().module.encode()));
        }
    }
    [archives, slices, texts]
}

/// Answers every external call with 0.
struct AnyHost;

impl ExternalHost for AnyHost {
    fn call_external(&mut self, _: &str, _: &[u64], _: &mut dyn Memory) -> tc_jit::Result<u64> {
        Ok(0)
    }
}

/// Run a module's entry, if it has one, the way a target does: a staged
/// chaser payload, a target region, globals at the data region.
fn execute(module: &MachModule) {
    let Some(entry) = module.function_index("main") else {
        return;
    };
    let mut mem = SparseMemory::new();
    let payload = chaser_payload::encode(0, 0, 3, 2, 1, 16);
    let mut data_addrs = Vec::new();
    let mut at = DATA_REGION_BASE;
    for d in &module.data {
        if mem.write(at, &d.init).is_err() {
            return;
        }
        data_addrs.push(at);
        at += (d.init.len() as u64).div_ceil(8) * 8 + 8;
    }
    if mem.write(PAYLOAD_STAGING_BASE, &payload).is_err()
        || mem.write_u64(TARGET_REGION_BASE, 7).is_err()
    {
        return;
    }
    let engine = Engine {
        limits: ExecLimits {
            fuel: 5_000,
            ..ExecLimits::default()
        },
    };
    let args = [
        PAYLOAD_STAGING_BASE,
        payload.len() as u64,
        TARGET_REGION_BASE,
    ];
    let _ = engine.run_index(module, entry, &args, &data_addrs, &mut mem, &mut AnyHost);
}

/// A bitcode slice: decode, verify, compile, run.
fn run_bitcode(bytes: &[u8]) {
    let Ok(module) = decode_module(bytes) else {
        return;
    };
    if verify_module(&module).is_err() {
        return;
    }
    if let Ok(compiled) = compile_module(&module, CompileOptions { verify: false }) {
        execute(&compiled.module);
    }
}

/// One case: pick a shipped input, mutate it, drive it through every stage.
fn case(inputs: &[Vec<Input>; 3], seed: u64) {
    let mut rng = Rng(seed);
    let form = rng.below(3);
    let pool = &inputs[form];
    let original = &pool[rng.below(pool.len())];
    let bytes = mutate(&mut rng, original);
    match form {
        0 => {
            if let Ok(fat) = FatBitcode::decode(&bytes) {
                for entry in &fat.entries {
                    run_bitcode(&entry.bitcode);
                }
            }
        }
        1 => run_bitcode(&bytes),
        _ => {
            if let Ok(module) = MachModule::decode(&bytes) {
                execute(&module);
            }
        }
    }
}

const CASES: u64 = 20_000;

#[test]
fn mutated_shipped_code_is_refused_or_run_never_panics() {
    let inputs = inputs();
    let mut panicked = Vec::new();
    for seed in 0..CASES {
        if catch_unwind(AssertUnwindSafe(|| case(&inputs, seed))).is_err() {
            panicked.push(seed);
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {CASES} cases panicked; replay with case(seed) for seeds {:?}",
        panicked.len(),
        &panicked[..panicked.len().min(20)]
    );
}

/// A register is a `u32`: a register varint of 2³² is refused, not read as
/// register 0.
#[test]
fn a_register_varint_of_two_to_the_32_is_refused() {
    let mut module = tsi_module();
    let reg = 0x7777_7777u32;
    module.functions[0].num_regs = reg + 1;
    let last = module.functions[0].blocks[0].insts.len() - 1;
    module.functions[0].blocks[0].insts[last] = tc_bitir::Inst::Ret {
        value: Some(tc_bitir::Reg(reg)),
    };
    let bytes = encode_module(&module);
    let varint = |mut v: u64| {
        let mut out = Vec::new();
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
        out
    };
    let (old, new) = (varint(u64::from(reg)), varint(1 << 32));
    assert_eq!(old.len(), new.len());
    let at = bytes.windows(old.len()).rposition(|w| w == old).unwrap();
    let mut hostile = bytes.clone();
    hostile[at..at + old.len()].copy_from_slice(&new);
    assert!(decode_module(&bytes).is_ok());
    assert!(decode_module(&hostile).is_err());
}

/// A flag byte is 0 or 1: a `.text` `Option` whose flag reads 2 is refused,
/// not read as `Some`.
#[test]
fn a_text_option_flag_of_two_is_refused() {
    let mut mb = tc_bitir::ModuleBuilder::new("flag");
    {
        let mut f = mb.entry_function();
        let z = f.const_i64(5);
        f.ret(z);
        f.finish();
    }
    let compiled = lower_and_compile(
        &mb.build(),
        TargetTriple::THOR_XEON,
        CompileOptions::default(),
    );
    let bytes = compiled.unwrap().module.encode();
    // The module ends in its one function's `Ret { value: Some(r) }`:
    // opcode 14, flag 1, then a one-byte register.
    let n = bytes.len();
    assert_eq!(bytes[n - 3..n - 1], [14, 1]);
    let mut hostile = bytes.clone();
    hostile[n - 2] = 2;
    assert!(MachModule::decode(&bytes).is_ok());
    assert!(MachModule::decode(&hostile).is_err());
}
