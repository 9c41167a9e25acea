//! One link step for received code, whatever its representation.
//!
//! A kernel sent as bitcode and the same kernel sent as its binary object
//! are linked alike on the target: the libraries it declares are loaded (a
//! missing one refuses it before anything is registered), its globals are
//! placed, and its library calls reach those libraries.  So the two agree —
//! on the value the kernel stores, or on the error the target reports — on
//! the simulator and on threads.  Where they differ is by design: bitcode
//! resolves its external symbols at the call, a binary object's GOT at load.

use tc_bitir::{Module, ModuleBuilder, ScalarType};
use tc_core::layout::TARGET_REGION_BASE;
use tc_core::{
    build_ifunc_library, Cluster, ClusterBuilder, CoreError, IfuncHandle, SimTransport,
    ThreadTransport, Transport,
};
use tc_simnet::Platform;
use tc_workloads::platform_toolchain;

/// `main` stores `sqrt(4.0)` at its target, declaring `libm.so` when
/// `declares`.
fn sqrt_kernel(name: &str, declares: bool) -> Module {
    let mut mb = ModuleBuilder::new(name);
    if declares {
        mb.add_dep("libm.so");
    }
    {
        let mut f = mb.entry_function();
        let target = f.param(2);
        let four = f.const_f64(4.0);
        let root = f.call_ext("sqrt", vec![four], true).unwrap();
        f.store(ScalarType::F64, root, target, 0);
        let z = f.const_i64(0);
        f.ret(z);
        f.finish();
    }
    mb.build()
}

/// `main` copies its module global, 7, to its target.
fn global_kernel() -> Module {
    let mut mb = ModuleBuilder::new("reads_a_global");
    let seven = mb.add_global("seven", 7u64.to_le_bytes().to_vec(), false);
    {
        let mut f = mb.entry_function();
        let target = f.param(2);
        let at = f.global_addr(seven);
        let v = f.load(ScalarType::U64, at, 0);
        f.store(ScalarType::U64, v, target, 0);
        let z = f.const_i64(0);
        f.ret(z);
        f.finish();
    }
    mb.build()
}

/// `main` stores 1 at its target, and declares a library no target has.
fn missing_dep_kernel() -> Module {
    let mut mb = ModuleBuilder::new("needs_libomp");
    mb.add_dep("libomp.so");
    {
        let mut f = mb.entry_function();
        let target = f.param(2);
        let one = f.const_u64(1);
        f.store(ScalarType::U64, one, target, 0);
        let z = f.const_i64(0);
        f.ret(z);
        f.finish();
    }
    mb.build()
}

const BITCODE: usize = 1;
const BINARY: usize = 2;

/// What one send left on its server: the target word and the errors the
/// transport collected meanwhile.
#[derive(Debug, PartialEq)]
struct Arrival {
    target: u64,
    errors: Vec<CoreError>,
}

/// A two-server Ookami cluster, and how to read its backend's error list.
struct Bench<T: Transport> {
    cluster: Cluster<T>,
    errors: fn(&Cluster<T>) -> &[CoreError],
    seen: usize,
}

impl<T: Transport> Bench<T> {
    fn register(&mut self, module: &Module) -> IfuncHandle {
        let toolchain = platform_toolchain(&Platform::ookami());
        let library = build_ifunc_library(module, &toolchain).unwrap();
        self.cluster.register_ifunc(library)
    }

    /// Send `handle` as bitcode to server 1, or as the server's binary
    /// object to server 2, and settle.
    fn send(&mut self, handle: IfuncHandle, server: usize) -> Arrival {
        let msg = if server == BITCODE {
            self.cluster.bitcode_message(handle, vec![0]).unwrap()
        } else {
            let triple = Platform::ookami().server_triple;
            self.cluster
                .binary_message(handle, triple, vec![0])
                .unwrap()
        };
        self.cluster.send_ifunc(&msg, server).unwrap();
        self.cluster.run_until_idle(100_000).unwrap();
        // A control round trip: the server has handled the frame, and its
        // error report (FIFO ahead of the reply) has been collected.
        self.cluster.stats(server).unwrap();
        let target = self.cluster.read_u64(server, TARGET_REGION_BASE).unwrap();
        self.cluster
            .write_memory(server, TARGET_REGION_BASE, &[0; 8])
            .unwrap();
        let all = (self.errors)(&self.cluster);
        let errors = all[self.seen..].to_vec();
        self.seen = all.len();
        Arrival { target, errors }
    }

    /// Send `module` both ways; the two arrivals must agree.
    fn agree(&mut self, module: &Module) -> (IfuncHandle, Arrival) {
        let handle = self.register(module);
        let bitcode = self.send(handle, BITCODE);
        let binary = self.send(handle, BINARY);
        assert_eq!(
            bitcode, binary,
            "{}: bitcode and binary disagree",
            module.name
        );
        (handle, bitcode)
    }
}

/// The whole scenario on one backend.  `typed` says whether the backend
/// reports a node's error as the node's own `CoreError` (the simulator) or
/// as its text inside `CoreError::Transport` (threads).
fn scenario<T: Transport>(mut bench: Bench<T>, typed: bool) {
    let text = |errors: &[CoreError]| -> Vec<String> {
        errors
            .iter()
            .map(|e| match e {
                CoreError::Transport(msg) if !typed => msg.clone(),
                other => other.to_string(),
            })
            .collect()
    };

    let (_, sqrt) = bench.agree(&sqrt_kernel("calls_libm", true));
    assert_eq!((sqrt.target, &sqrt.errors[..]), (2.0f64.to_bits(), &[][..]));

    let (_, global) = bench.agree(&global_kernel());
    assert_eq!((global.target, &global.errors[..]), (7, &[][..]));

    // A missing library refuses either representation at first arrival, and
    // nothing is registered: the truncated frame that follows finds no code.
    let (handle, refused) = bench.agree(&missing_dep_kernel());
    assert_eq!(refused.target, 0);
    assert_eq!(
        text(&refused.errors),
        ["target-side JIT error: missing shared-library dependency `libomp.so`"]
    );
    if typed {
        assert!(matches!(&refused.errors[..], [CoreError::Jit(_)]));
    }
    for server in [BITCODE, BINARY] {
        let again = bench.send(handle, server);
        assert_eq!(
            text(&again.errors),
            [
                "received a code-elided frame for ifunc `needs_libomp` which was never registered \
                 here"
            ]
        );
        if typed {
            assert!(matches!(
                &again.errors[..],
                [CoreError::TruncatedWithoutRegistration { .. }]
            ));
        }
        let stats = bench.cluster.stats(server).unwrap();
        let registered = stats.jit_compilations + stats.binary_loads;
        assert_eq!(registered, 2, "the two kernels before it, not this one");
    }

    // Calling a library it does not declare: bitcode registers and fails at
    // the call; a binary object's GOT does not resolve, so it is refused at
    // load.
    let undeclared = bench.register(&sqrt_kernel("calls_libm_undeclared", false));
    let bitcode = bench.send(undeclared, BITCODE);
    assert_eq!(
        text(&bitcode.errors),
        ["target-side JIT error: unresolved symbol `sqrt`"]
    );
    let binary = bench.send(undeclared, BINARY);
    assert_eq!(
        text(&binary.errors),
        ["binary ifunc load error: undefined symbol `sqrt` during remote dynamic linking"]
    );
    if typed {
        assert!(matches!(&binary.errors[..], [CoreError::BinaryLoad(_)]));
    }
    let stats = bench.cluster.stats(BINARY).unwrap();
    assert_eq!(stats.binary_loads, 2, "the refused object is not counted");
}

#[test]
fn bitcode_and_binary_link_alike_on_the_simulator() {
    let cluster = ClusterBuilder::new()
        .platform(Platform::ookami())
        .servers(2)
        .build_sim();
    fn errors(c: &Cluster<SimTransport>) -> &[CoreError] {
        c.transport().errors()
    }
    scenario(
        Bench {
            cluster,
            errors,
            seen: 0,
        },
        true,
    );
}

#[test]
fn bitcode_and_binary_link_alike_on_threads() {
    let cluster = ClusterBuilder::new()
        .platform(Platform::ookami())
        .servers(2)
        .build_threaded();
    fn errors(c: &Cluster<ThreadTransport>) -> &[CoreError] {
        c.transport().errors()
    }
    scenario(
        Bench {
            cluster,
            errors,
            seen: 0,
        },
        false,
    );
}
