//! Hostile shipped code, generated.
//!
//! Code reaches a target process as bytes a remote peer chose: a fat-bitcode
//! archive, one bitcode slice of it, a binary ifunc's `.text`, or the whole
//! binary object.  This suite mutates the shipped forms of every
//! `tc-workloads` kernel with a seeded generator — a byte set, a bit flipped,
//! the tail cut off, one to four of them per case — and drives each case
//! through every stage a target runs: archive decode, bitcode decode,
//! verification, compilation and execution (under a small fuel limit),
//! `.text` decode and execution, or the runtime's binary intake — object
//! decode, GOT patching, module recovery, the JIT session's link step and
//! execution.  Any stage may refuse the input with an error; none may panic.
//! A failing case prints its seed, and `case(seed)` (`binary_case(seed)`)
//! replays it.  Every mutated archive is also read by the runtime's
//! in-place selector, which must pick the slice and dependencies that
//! decode + select pick, or refuse with the same error.
//!
//! Beside it, the shipped bytes themselves are pinned: a refactor of a codec
//! must not change what travels.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tc_binfmt::{load_object, LoadOptions, ObjectFile};
use tc_bitir::{
    decode_module, encode_module, verify_module, BinOp, FatBitcode, FunctionBuilder, Module,
    ModuleBuilder, Reg, ScalarType, TargetTriple, VecOp,
};
use tc_core::layout::{DATA_REGION_BASE, PAYLOAD_STAGING_BASE, TARGET_REGION_BASE};
use tc_core::{
    build_ifunc_library, CodeRepr, CoreError, MessageFrame, NodeRuntime, ToolchainOptions,
};
use tc_jit::{
    build_object, compile_module, lower_and_compile, module_from_image, CompileOptions, Engine,
    ExecLimits, ExecOutcome, ExternalHost, JitError, LoadedLibs, MachModule, Memory, MemoryExt,
    NoExternals, OrcJit, SparseMemory, GROWTH_BYTES,
};
use tc_ucx::{Bytes, OutgoingMessage, RequestId, UcpOp, WorkerAddr};
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
        let fat =
            FatBitcode::from_module(&module, &TargetTriple::default_toolchain_targets()).unwrap();
        archives.push(Input::new(fat.encode()));
        for entry in &fat.entries {
            slices.push(Input::new(entry.bitcode.clone()));
            let compiled = lower_and_compile(&module, entry.triple, CompileOptions::default());
            let compiled = compiled.unwrap();
            let text = compiled.module.encode(&entry.triple.name(), &compiled.code);
            texts.push(Input::new(text));
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

/// The engine a case runs on: 5 000 instructions of fuel.
fn engine() -> Engine {
    Engine {
        limits: ExecLimits {
            fuel: 5_000,
            ..ExecLimits::default()
        },
    }
}

/// Stage a target's memory for one arrival — a chaser payload and a target
/// word — and return the entry's arguments.
fn stage(mem: &mut SparseMemory) -> Option<[u64; 3]> {
    let payload = chaser_payload::encode(0, 0, 3, 2, 1, 16);
    mem.write(PAYLOAD_STAGING_BASE, &payload).ok()?;
    mem.write_u64(TARGET_REGION_BASE, 7).ok()?;
    Some([
        PAYLOAD_STAGING_BASE,
        payload.len() as u64,
        TARGET_REGION_BASE,
    ])
}

/// Run a module's entry, if it has one, the way a target does: a staged
/// chaser payload, a target region, globals at the data region.
fn execute(module: &MachModule) {
    let Some(entry) = module.function_index("main") else {
        return;
    };
    let mut mem = SparseMemory::new();
    let mut data_addrs = Vec::new();
    let mut at = DATA_REGION_BASE;
    for d in &module.data {
        if mem.write(at, &d.init).is_err() {
            return;
        }
        data_addrs.push(at);
        at += (d.init.len() as u64).div_ceil(8) * 8 + 8;
    }
    let Some(args) = stage(&mut mem) else {
        return;
    };
    let _ = engine().run_index(module, entry, &args, &data_addrs, &mut mem, &mut AnyHost);
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
            let decoded = FatBitcode::decode(&bytes);
            // The runtime's in-place selector agrees with decode + select on
            // every host: the same slice and dependencies, or the same error.
            for host in TargetTriple::default_toolchain_targets() {
                let picked = decoded.clone().and_then(|fat| {
                    let entry = fat.select(host)?;
                    Ok((entry.bitcode.clone(), fat.deps.clone()))
                });
                let in_place = FatBitcode::select_encoded(&bytes, host).map(|(slice, deps)| {
                    let deps = deps.iter().map(|d| d.to_string()).collect();
                    (bytes[slice].to_vec(), deps)
                });
                assert_eq!(in_place, picked, "seed {seed}, host {host:?}");
            }
            if let Ok(fat) = decoded {
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

/// A binary object through the runtime's binary intake, on a node of
/// `target`: decode, load the declared libraries, GOT-patch against them,
/// recover the module, link it (globals placed) and run its entry.
fn run_binary(bytes: &[u8], target: TargetTriple) {
    let Ok(object) = ObjectFile::decode(bytes) else {
        return;
    };
    let Ok(libs) = LoadedLibs::load(&object.deps) else {
        return;
    };
    let Ok(image) = load_object(&object, &target.name(), &libs, LoadOptions::default()) else {
        return;
    };
    let Ok(mut module) = module_from_image(&image) else {
        return;
    };
    module.deps = object.deps;
    let mut mem = SparseMemory::new();
    let Ok(linked) = OrcJit::new(target).link(module, &mut mem) else {
        return;
    };
    let (Some(entry), Some(args)) = (linked.module.function_index("main"), stage(&mut mem)) else {
        return;
    };
    let _ = linked.execute(&engine(), entry, &args, &mut mem, &mut AnyHost);
}

/// Every kernel's binary object for each default toolchain target, with
/// the target it was built for.
fn binary_inputs() -> Vec<(Input, TargetTriple)> {
    let mut objects = Vec::new();
    for (_, module) in kernels() {
        for target in TargetTriple::default_toolchain_targets() {
            let object = build_object(&module, target, CompileOptions::default()).unwrap();
            objects.push((Input::new(object.encode()), target));
        }
    }
    objects
}

/// One binary case: the objects are taken in turn, each mutated and taken
/// in on its target.
fn binary_case(inputs: &[(Input, TargetTriple)], seed: u64) {
    let (original, target) = &inputs[seed as usize % inputs.len()];
    run_binary(&mutate(&mut Rng(seed), original), *target);
}

const CASES: u64 = 20_000;
/// 5 000 per kernel: five kernels, five objects each, taken in turn.
const BINARY_CASES: u64 = 25_000;

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
    let compiled = compiled.unwrap();
    let bytes = (compiled.module).encode(&TargetTriple::THOR_XEON.name(), &compiled.code);
    // The module ends in its one function's `Ret { value: Some(r) }`:
    // opcode 14, flag 1, then a one-byte register.
    let n = bytes.len();
    assert_eq!(bytes[n - 3..n - 1], [14, 1]);
    let mut hostile = bytes.clone();
    hostile[n - 2] = 2;
    assert!(MachModule::decode(&bytes).is_ok());
    assert!(MachModule::decode(&hostile).is_err());
}

#[test]
fn mutated_binary_objects_are_refused_or_run_never_panic() {
    let inputs = binary_inputs();
    let mut panicked = Vec::new();
    for seed in 0..BINARY_CASES {
        if catch_unwind(AssertUnwindSafe(|| binary_case(&inputs, seed))).is_err() {
            panicked.push(seed);
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {BINARY_CASES} binary cases panicked; replay with binary_case(seed) for seeds {:?}",
        panicked.len(),
        &panicked[..panicked.len().min(20)]
    );
}

// A bounded guest: fuel counts every unit of work a guest makes its host do,
// not just its instructions, and a run may add only so many bytes to its
// node's memory.  Each path below once ran unbounded in one instruction or
// one library call.

/// `module`, linked into `mem` on an x86-64 node, run with `args` under
/// `fuel` and the default byte budget.
fn run_guest(
    module: Module,
    args: [u64; 3],
    fuel: u64,
    mem: &mut SparseMemory,
) -> tc_jit::Result<ExecOutcome> {
    let linked = OrcJit::new(TargetTriple::X86_64_GENERIC).materialize(module, mem)?;
    let entry = linked.module.function_index(Module::ENTRY_NAME).unwrap();
    let limits = ExecLimits {
        fuel,
        ..ExecLimits::default()
    };
    linked.execute(&Engine { limits }, entry, &args, mem, &mut NoExternals)
}

/// `main(payload, len, target)` declaring `libc.so`, whose body `body`
/// builds from those three registers.
fn guest(body: impl FnOnce(&mut FunctionBuilder<'_>, [Reg; 3]) -> Reg) -> Module {
    let mut mb = ModuleBuilder::new("guest");
    mb.add_dep("libc.so");
    let mut f = mb.entry_function();
    let params = [f.param(0), f.param(1), f.param(2)];
    let value = body(&mut f, params);
    f.ret(value);
    f.finish();
    mb.build()
}

#[test]
fn a_vector_loop_of_two_to_the_forty_elements_is_refused_before_it_touches_one() {
    let module = || {
        guest(|f, [a, n, dst]| {
            f.push(tc_bitir::Inst::Vec {
                op: VecOp::Add,
                ty: ScalarType::U64,
                dst_addr: dst,
                a_addr: a,
                b_addr: a,
                count: n,
            });
            f.const_i64(0)
        })
    };
    let mut mem = SparseMemory::new();
    mem.write_u64(0x100, 21).unwrap();
    let args = |n| [0x100, n, TARGET_REGION_BASE];
    let refused = run_guest(module(), args(1 << 40), 1_000_000, &mut mem);
    assert!(
        matches!(refused, Err(JitError::OutOfFuel { executed }) if executed < 8),
        "{refused:?}"
    );
    assert_eq!(mem.read_u64(TARGET_REGION_BASE).unwrap(), 0);
    // A loop the fuel pays for runs.
    let done = run_guest(module(), args(1), 1_000_000, &mut mem).unwrap();
    assert_eq!(mem.read_u64(TARGET_REGION_BASE).unwrap(), 42);
    // Each element pays for its three accesses, as scalar loads and a store
    // would: 1 000 elements run on their instructions' fuel and 3 000 more,
    // and not on one unit less.
    let fuel = done.insts_retired + 3_000;
    run_guest(module(), args(1_000), fuel, &mut mem).unwrap();
    let short = run_guest(module(), args(1_000), fuel - 1, &mut mem);
    assert!(
        matches!(short, Err(JitError::OutOfFuel { .. })),
        "{short:?}"
    );
}

#[test]
fn a_run_that_touches_a_new_page_at_every_step_is_refused_past_its_byte_budget() {
    let module = guest(|f, [_, _, target]| {
        let (at, page) = (f.copy(target), f.const_u64(SparseMemory::PAGE_SIZE as u64));
        let body = f.new_block();
        f.br(body);
        f.switch_to(body);
        f.store(ScalarType::U64, page, at, 0);
        let next = f.bin(BinOp::Add, ScalarType::U64, at, page);
        f.assign(at, next);
        f.br(body);
        // Never reached: the return `guest` adds needs a block of its own.
        let exit = f.new_block();
        f.switch_to(exit);
        f.const_i64(0)
    });
    let mut mem = SparseMemory::new();
    let refused = run_guest(module, [0, 0, TARGET_REGION_BASE], 60_000, &mut mem);
    let max = GROWTH_BYTES;
    let len = max + SparseMemory::PAGE_SIZE as u64;
    let what = "memory growth".to_string();
    assert_eq!(refused.unwrap_err(), JitError::TooLarge { what, len, max });
    // The budget is the run's: the node's memory grows again afterwards.
    mem.write_u64(TARGET_REGION_BASE + len, 1).unwrap();
}

/// The gap the byte budget leaves open, pinned so that it stays in sight:
/// pages are never unmapped and each run's budget starts afresh, so runs one
/// after another, each within its budget, grow a memory past it.
#[test]
fn runs_each_within_the_byte_budget_grow_one_memory_past_it_together() {
    let module = || {
        guest(|f, [byte, len, target]| f.call_ext("memset", vec![target, byte, len], true).unwrap())
    };
    let mut mem = SparseMemory::new();
    let regions = [TARGET_REGION_BASE, TARGET_REGION_BASE + GROWTH_BYTES];
    for target in regions {
        run_guest(module(), [7, GROWTH_BYTES, target], 50_000_000, &mut mem).unwrap();
    }
    for target in regions {
        assert_eq!(
            mem.read_u64(target + GROWTH_BYTES - 8).unwrap(),
            0x0707_0707_0707_0707
        );
    }
    // A single run past the budget is still refused.
    let past = [7, GROWTH_BYTES + 1, TARGET_REGION_BASE + 2 * GROWTH_BYTES];
    let refused = run_guest(module(), past, 50_000_000, &mut mem);
    assert!(
        matches!(refused, Err(JitError::TooLarge { .. })),
        "{refused:?}"
    );
}

#[test]
fn memcpy_and_memset_of_two_to_the_forty_bytes_run_out_of_fuel_before_any_is_done() {
    for symbol in ["memcpy", "memset"] {
        let module = || {
            guest(|f, [payload, len, target]| {
                f.call_ext(symbol, vec![target, payload, len], true)
                    .unwrap()
            })
        };
        let mut mem = SparseMemory::new();
        mem.write_u64(0x100, 0x0101_0101_0101_0101).unwrap();
        let refused = run_guest(
            module(),
            [0x100, 1 << 40, TARGET_REGION_BASE],
            1_000_000,
            &mut mem,
        );
        // `executed` counts the call and what ran before it, not the return
        // behind it: a library call ends its charge segment.
        let done = run_guest(
            module(),
            [0x100, 8, TARGET_REGION_BASE],
            1_000,
            &mut mem.clone(),
        );
        let executed = done.unwrap().insts_retired - 1;
        assert_eq!(refused, Err(JitError::OutOfFuel { executed }), "{symbol}");
        assert_eq!(mem.read_u64(TARGET_REGION_BASE).unwrap(), 0, "{symbol}");
    }
}

#[test]
fn strlen_u64_is_charged_per_byte_it_reads() {
    let module = || guest(|f, [s, _, _]| f.call_ext("strlen_u64", vec![s], true).unwrap());
    let mut mem = SparseMemory::new();
    mem.write(0x1000, &[b'a'; 65_536]).unwrap();
    let refused = run_guest(module(), [0x1000, 0, 0], 10_000, &mut mem);
    assert!(
        matches!(refused, Err(JitError::OutOfFuel { .. })),
        "{refused:?}"
    );
    let read = run_guest(module(), [0x1000, 0, 0], 100_000, &mut mem).unwrap();
    assert_eq!(read.return_value, 65_536);
}

/// A kernel declaring `libc.so` copies, fills and measures with lengths
/// and addresses from its payload, which a seeded generator draws from the
/// edges (2^40 and `u64::MAX` among them), then returns a result.  It runs
/// through a target's real runtime — its framework host, default limits,
/// node memory — and every arrival either completes or fails with a typed
/// error, each within its fuel and byte budget; none aborts or panics.
#[test]
fn a_libc_kernel_with_generated_lengths_stays_within_its_budget() {
    use tc_core::{CoreError, NodeRuntime};
    use tc_ucx::WorkerAddr;
    let module = guest(|f, [p, _, _]| {
        let field = |f: &mut FunctionBuilder<'_>, i: i64| f.load(ScalarType::U64, p, 8 * i);
        let (dst, src, len) = (field(f, 0), field(f, 1), field(f, 2));
        f.call_ext("memcpy", vec![dst, src, len], true);
        let (byte, len) = (field(f, 3), field(f, 4));
        f.call_ext("memset", vec![dst, byte, len], true);
        let s = field(f, 5);
        let n = f.call_ext("strlen_u64", vec![s], true).unwrap();
        let (client, slot) = (f.const_u64(0), f.const_u64(3));
        f.call_ext("tc_return_result", vec![client, slot, n], true);
        f.const_i64(0)
    });
    let triple = TargetTriple::X86_64_GENERIC;
    let mut client = NodeRuntime::new(WorkerAddr(0), 2, triple);
    let mut server = NodeRuntime::new(WorkerAddr(1), 2, triple);
    let library = build_ifunc_library(&module, &ToolchainOptions::default()).unwrap();
    let handle = client.register_library(library);
    server
        .memory
        .write(DATA_REGION_BASE, &[b'z'; 8192])
        .unwrap();
    let lengths = [
        0,
        1,
        4095,
        4096,
        1 << 20,
        1 << 24,
        1 << 32,
        1 << 40,
        u64::MAX,
    ];
    let (mut completed, mut refused) = (0, 0);
    for seed in 0..100u64 {
        let mut rng = Rng(seed);
        let mut draw = |from: &[u64]| from[rng.below(from.len())];
        // Destinations stay in a window, so the node's memory does not grow
        // past it from one arrival to the next.
        let dst = TARGET_REGION_BASE + draw(&[0, 8, 4090, 1 << 20]);
        let src = draw(&[0, DATA_REGION_BASE, PAYLOAD_STAGING_BASE, u64::MAX - 8]);
        let payload = [
            dst,
            src,
            draw(&lengths),
            draw(&[0, 0xAB, u64::MAX]),
            draw(&lengths),
            draw(&[DATA_REGION_BASE, DATA_REGION_BASE + 8000, dst]),
        ];
        let payload: Vec<u8> = payload.iter().flat_map(|v| v.to_le_bytes()).collect();
        let msg = client.create_bitcode_message(handle, payload).unwrap();
        client.send_ifunc(&msg, WorkerAddr(1));
        for msg in client.take_outgoing() {
            server.deliver(msg);
        }
        for outcome in server.poll(usize::MAX) {
            match outcome {
                Ok(_) => completed += 1,
                Err(CoreError::TooLarge { what, max, .. }) => {
                    assert_eq!(
                        (what.as_str(), max),
                        ("memory growth", GROWTH_BYTES),
                        "seed {seed}"
                    );
                    refused += 1;
                }
                Err(CoreError::Jit(e)) if e.contains("fuel budget") => refused += 1,
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
        server.take_outgoing();
    }
    assert!(
        completed > 20 && refused > 20,
        "{completed} completed, {refused} refused"
    );
}

/// A frame may name up to 65 535 dependencies (its count is a `u16`), and
/// an archive's own list has no cap.  Lists of distinct names no library
/// answers to are refused at the first unknown name — the module's, then
/// the archive's, then the frame's — with the link step's
/// `MissingDependency`, in one pass, for bitcode and binary frames alike.
/// Merging them by a scan of the merged list per name held the receiving
/// node for seconds before the same refusal.
#[test]
fn a_frame_naming_sixty_five_thousand_unknown_libraries_is_refused_in_one_pass() {
    const XEON: TargetTriple = TargetTriple::THOR_XEON;
    let names = |prefix: &str, n: u32| -> Vec<String> {
        let known = ["libc.so", "libm.so"].map(String::from);
        known
            .into_iter()
            .chain((0..n).map(|i| format!("{prefix}{i}")))
            .collect()
    };
    let frame_deps = names("f", u32::from(u16::MAX) - 2);
    let module = |deps: Vec<String>| Module {
        deps,
        ..tsi_module()
    };
    let archive = |module: Module, deps: Vec<String>| {
        let targets = TargetTriple::default_toolchain_targets();
        let fat = FatBitcode::from_module(&module, &targets).unwrap();
        FatBitcode { deps, ..fat }.encode()
    };
    let object = |deps: Vec<String>| {
        let object = build_object(&tsi_module(), XEON, CompileOptions::default()).unwrap();
        ObjectFile { deps, ..object }.encode()
    };
    let cases = [
        (
            CodeRepr::Bitcode,
            archive(module(names("m", 3)), names("a", 100_000)),
            "m0",
        ),
        (
            CodeRepr::Bitcode,
            archive(module(names("", 0)), names("a", 100_000)),
            "a0",
        ),
        (
            CodeRepr::Bitcode,
            archive(module(names("", 0)), names("", 0)),
            "f0",
        ),
        (CodeRepr::Binary, object(names("", 0)), "f0"),
    ];
    for (repr, code, first) in cases {
        let frame = MessageFrame {
            ifunc_name: tsi_module().name,
            repr,
            payload: Bytes::from(vec![1u8]),
            code: Bytes::from(code),
            deps: frame_deps.clone(),
        };
        let mut node = NodeRuntime::new(WorkerAddr(1), 2, XEON);
        node.deliver(OutgoingMessage {
            src: WorkerAddr(0),
            dst: WorkerAddr(1),
            request: RequestId(0),
            op: UcpOp::IfuncFrame {
                bytes: frame.encode_full(),
                code: Bytes::new(),
            },
        });
        let started = Instant::now();
        let refused = node.poll(usize::MAX).remove(0).unwrap_err();
        let took = started.elapsed();
        let missing = JitError::MissingDependency {
            library: first.into(),
        };
        assert_eq!(refused.to_string(), CoreError::from(missing).to_string());
        assert!(
            took < Duration::from_millis(500),
            "{repr:?} {first}: {took:?}"
        );
    }
}
