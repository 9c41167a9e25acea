//! Cost-model parity of the execution engine.
//!
//! The discrete-event simulation charges virtual time from the engine's
//! `ExecOutcome` — instructions retired and cycles — so every table and
//! figure in EXPERIMENTS.md depends on those counts.  A change that makes
//! the interpreter faster in wall-clock terms must leave them exactly where
//! they were; this suite pins them for the kernels the paper's workloads
//! run, through both the by-name API and the resolved entry point.

use tc_bitir::{lower_for_target, FuncId, Module, ModuleBuilder, TargetTriple};
use tc_core::layout::{DATA_REGION_BASE, PAYLOAD_STAGING_BASE, TARGET_REGION_BASE};
use tc_core::{
    build_ifunc_library, CoreError, NodeRuntime, OutcomeKind, ProcessOutcome, ToolchainOptions,
};
use tc_jit::{
    compile_module, lower_and_compile, CompileOptions, Engine, ExecLimits, ExecOutcome,
    ExternalHost, JitError, MaterializedModule, Memory, MemoryExt, NoExternals, OrcJit,
    SparseMemory, VecMemory,
};
use tc_ucx::{Bytes, OutgoingMessage, RequestId, UcpOp, WorkerAddr};
use tc_workloads::{
    chaser_module, chaser_module_chainlang, chaser_payload, tsi_module, tsi_module_chainlang,
    tsi_reporting_module,
};

const XEON: TargetTriple = TargetTriple::THOR_XEON;

/// Answers the chaser's externals as server rank 1 would, and swallows its
/// sends.
struct HopHost;

impl ExternalHost for HopHost {
    fn call_external(
        &mut self,
        symbol: &str,
        _args: &[u64],
        _mem: &mut dyn Memory,
    ) -> tc_jit::Result<u64> {
        Ok(u64::from(symbol == "tc_node_id"))
    }
}

/// One chaser hop on the bare engine — a local lookup and a result return —
/// is 111 cycles: the figure `tc-benchmark` reports as `jit.exec_cycles_hop`.
#[test]
fn a_chaser_hop_costs_what_it_cost() {
    let lowered = lower_for_target(&chaser_module("parity_chaser"), XEON).unwrap();
    let compiled = compile_module(&lowered, CompileOptions::default()).unwrap();
    let payload = chaser_payload::encode(0, 0, 0, 1, 1, 4096);
    let mut mem = SparseMemory::new();
    mem.write_u64(DATA_REGION_BASE, 17).unwrap();
    mem.write(PAYLOAD_STAGING_BASE, &payload).unwrap();
    let args = [
        PAYLOAD_STAGING_BASE,
        payload.len() as u64,
        TARGET_REGION_BASE,
    ];
    let expected = ExecOutcome {
        return_value: 0,
        insts_retired: 31,
        cycles: 111,
    };

    let engine = Engine::new();
    let module = &compiled.module;
    let by_name = engine
        .run(module, "main", &args, &[], &mut mem, &mut HopHost)
        .unwrap();
    assert_eq!(by_name, expected);
    let entry = module.function_index("main").unwrap();
    let resolved = engine
        .run_index(module, entry, &args, &[], &mut mem, &mut HopHost)
        .unwrap();
    assert_eq!(resolved, expected);
}

/// The chaser with its `main` renamed `chase` and called from a new `main`:
/// one local call around the hop.
fn chaser_behind_a_call() -> Module {
    let mut module = chaser_module("called_chaser");
    module.functions[0].name = "chase".into();
    let mut mb = ModuleBuilder::new("wrapper");
    {
        let mut f = mb.entry_function();
        let args = (0..3).map(|i| f.param(i)).collect();
        let chased = f.call(FuncId(0), args, true).unwrap();
        f.ret(chased);
        f.finish();
    }
    module.functions.extend(mb.build().functions);
    module
}

/// Fuel that runs out inside a block, inside a callee, and at the caller's
/// return after it stops the chaser exactly where one instruction at a time
/// stops it: a block is charged on entry only when the fuel left covers it,
/// and its charge is split at a local call.
#[test]
fn the_chaser_runs_out_of_fuel_where_it_did() {
    let compile = |module: &Module| {
        let lowered = lower_for_target(module, XEON).unwrap();
        compile_module(&lowered, CompileOptions::default()).unwrap()
    };
    let (direct, called) = (
        compile(&chaser_module("c")),
        compile(&chaser_behind_a_call()),
    );
    let payload = chaser_payload::encode(0, 0, 0, 1, 1, 4096);
    let mut mem = SparseMemory::new();
    mem.write_u64(DATA_REGION_BASE, 17).unwrap();
    mem.write(PAYLOAD_STAGING_BASE, &payload).unwrap();
    let args = [
        PAYLOAD_STAGING_BASE,
        payload.len() as u64,
        TARGET_REGION_BASE,
    ];
    let run = |module: &tc_jit::Compiled, fuel: u64, mem: &mut SparseMemory| {
        let limits = ExecLimits {
            fuel,
            ..ExecLimits::default()
        };
        Engine { limits }.run(&module.module, "main", &args, &[], mem, &mut HopHost)
    };
    // Inside the chaser's first block, which holds 13 instructions.
    let mid_block = run(&direct, 5, &mut mem);
    assert_eq!(mid_block, Err(JitError::OutOfFuel { executed: 5 }));
    // The call, then 9 of the callee's first block.
    let in_callee = run(&called, 10, &mut mem);
    assert_eq!(in_callee, Err(JitError::OutOfFuel { executed: 10 }));
    // The call and the whole hop, but not the caller's return.
    let at_return = run(&called, 32, &mut mem);
    assert_eq!(at_return, Err(JitError::OutOfFuel { executed: 32 }));
    let whole = run(&called, 33, &mut mem).unwrap();
    let expected = ExecOutcome {
        return_value: 0,
        insts_retired: 33,
        cycles: 111 + 4 + 2,
    };
    assert_eq!(whole, expected);
}

#[test]
fn the_tsi_kernel_costs_what_it_cost() {
    let tsi = lower_and_compile(&tsi_module(), XEON, CompileOptions::default()).unwrap();
    let mut mem = VecMemory::new(0, 4096);
    mem.write_u64(0, 3).unwrap();
    let out = Engine::new()
        .run(
            &tsi.module,
            "main",
            &[0, 1, 2048],
            &[],
            &mut mem,
            &mut NoExternals,
        )
        .unwrap();
    assert_eq!(
        out,
        ExecOutcome {
            return_value: 0,
            insts_retired: 6,
            cycles: 16,
        }
    );
    assert_eq!(mem.read_u64(2048).unwrap(), 3);
}

/// `main` copies 8 bytes from a module global to the target with `symbol`.
fn copying_module(name: &str, symbol: &str) -> Module {
    let mut mb = ModuleBuilder::new(name);
    mb.add_dep("libc.so");
    let g = tc_bitir::GlobalId(0);
    {
        let mut f = mb.entry_function();
        let target = f.param(2);
        let lut = f.new_reg();
        f.push(tc_bitir::Inst::GlobalAddr {
            dst: lut,
            global: g,
        });
        let n = f.const_u64(8);
        f.call_ext(symbol, vec![target, lut, n], true);
        let z = f.const_i64(0);
        f.ret(z);
        f.finish();
    }
    let mut module = mb.build();
    module.globals.push(tc_bitir::Global {
        name: "lut".into(),
        init: vec![10, 0, 0, 0, 0, 0, 0, 0],
        mutable: false,
    });
    module
}

/// Run `main(0, 0, 0x500)` of a materialised module.
fn run_main(module: &MaterializedModule, mem: &mut dyn Memory) -> tc_jit::Result<ExecOutcome> {
    let entry = module.module.function_index("main").unwrap();
    module.execute(&Engine::new(), entry, &[0, 0, 0x500], mem, &mut NoExternals)
}

/// A call into a loaded dylib is charged the dylib rate, and a symbol nobody
/// exports is an error where it is called — the module around it still
/// compiles, links and materialises.
#[test]
fn external_calls_cost_and_fail_where_they_did() {
    let mut jit = OrcJit::new(XEON);
    let mut mem = SparseMemory::new();
    let copies = jit
        .materialize(copying_module("copies", "memcpy"), &mut mem)
        .unwrap();
    let out = run_main(&copies, &mut mem).unwrap();
    assert_eq!(
        out,
        ExecOutcome {
            return_value: 0,
            insts_retired: 5,
            cycles: 35,
        }
    );
    assert_eq!(mem.read_u64(0x500).unwrap(), 10);

    let dangling = jit
        .materialize(copying_module("dangling", "memcopy"), &mut mem)
        .expect("an unresolved symbol is not a registration error");
    assert_eq!(
        run_main(&dangling, &mut mem),
        Err(JitError::UnresolvedSymbol {
            symbol: "memcopy".into()
        })
    );
}

/// Deliver an ifunc frame from rank 0 to `server` and poll it.
fn arrive(server: &mut NodeRuntime, bytes: Bytes) -> tc_core::Result<ProcessOutcome> {
    server.deliver(OutgoingMessage {
        src: WorkerAddr(0),
        dst: server.node_id(),
        request: RequestId(0),
        op: UcpOp::IfuncFrame {
            bytes,
            code: Bytes::new(),
        },
    });
    server.poll(usize::MAX).remove(0)
}

/// The same through a node's receive path: the first arrival registers the
/// ifunc and fails at the call; a truncated frame afterwards finds the
/// registration and fails the same way.
#[test]
fn an_unresolved_symbol_fails_each_arrival_not_the_registration() {
    let toolchain = ToolchainOptions {
        build_binaries: false,
        ..ToolchainOptions::default()
    };
    let library = build_ifunc_library(&copying_module("dangling", "memcopy"), &toolchain).unwrap();
    let mut client = NodeRuntime::new(WorkerAddr(0), 2, XEON);
    let mut server = NodeRuntime::new(WorkerAddr(1), 2, XEON);
    let handle = client.register_library(library);
    let frame = client
        .create_bitcode_message(handle, vec![0])
        .unwrap()
        .frame;
    for bytes in [frame.encode_full(), frame.encode_truncated()] {
        let outcome = arrive(&mut server, bytes);
        assert!(
            matches!(&outcome, Err(CoreError::Jit(msg)) if msg.contains("memcopy")),
            "{outcome:?}"
        );
        assert_eq!(server.stats.full_frames_received, 1);
        assert_eq!(server.stats.jit_compilations, 1);
    }

    // A resolvable library on the same node still runs as a first arrival.
    let library = build_ifunc_library(&copying_module("copies", "memcpy"), &toolchain).unwrap();
    let handle = client.register_library(library);
    let frame = client
        .create_bitcode_message(handle, vec![0])
        .unwrap()
        .frame;
    let outcome = arrive(&mut server, frame.encode_full()).unwrap();
    assert_eq!(outcome.kind, OutcomeKind::IfuncExecutedFirstArrival);
    assert_eq!(server.memory.read_u64(TARGET_REGION_BASE).unwrap(), 10);
}

/// Every workload kernel, lowered for each toolchain target, through both
/// compiler entries — `compile_module`, lent the module, and
/// `OrcJit::materialize`, handed it — links to the same module, its program
/// included, and runs to the same `ExecOutcome` over the same memory.
#[test]
fn both_compiler_entries_give_every_kernel_the_same_program_and_outcome() {
    let kernels = [
        tsi_module(),
        tsi_module_chainlang(),
        tsi_reporting_module("tsi_reporting"),
        chaser_module("chaser"),
        chaser_module_chainlang("chaser_chainlang"),
    ];
    let payload = chaser_payload::encode(0, 0, 0, 1, 1, 4096);
    let args = [
        PAYLOAD_STAGING_BASE,
        payload.len() as u64,
        TARGET_REGION_BASE,
    ];
    let staged = || {
        let mut mem = SparseMemory::new();
        mem.write_u64(DATA_REGION_BASE, 17).unwrap();
        mem.write(PAYLOAD_STAGING_BASE, &payload).unwrap();
        mem
    };
    for module in kernels {
        for target in TargetTriple::default_toolchain_targets() {
            let lowered = lower_for_target(&module, target).unwrap();
            let (mut lent_mem, mut handed_mem) = (staged(), staged());
            let lent = compile_module(&lowered, CompileOptions::default()).unwrap();
            let lent = OrcJit::new(target)
                .link(lent.module, &mut lent_mem)
                .unwrap();
            let handed = OrcJit::new(target)
                .materialize(lowered, &mut handed_mem)
                .unwrap();
            let what = format!("{} on {target}", module.name);
            assert_eq!(format!("{lent:?}"), format!("{handed:?}"), "{what}");
            let entry = lent.module.function_index("main").unwrap();
            let run = |m: &MaterializedModule, mem: &mut SparseMemory| {
                let out = m.execute(&Engine::new(), entry, &args, mem, &mut HopHost);
                (out, mem.read_u64(TARGET_REGION_BASE).unwrap())
            };
            let want = run(&lent, &mut lent_mem);
            assert!(want.0.is_ok(), "{what}: {want:?}");
            assert_eq!(run(&handed, &mut handed_mem), want, "{what}");
        }
    }
}
