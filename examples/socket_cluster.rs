//! Socket cluster: the same unified cluster API, but every server rank is a
//! *separate OS process* talking to the driver over Unix-domain sockets —
//! the deployment model described in README.md's "Deployment model" section.
//!
//! ```text
//! cargo build            # builds the tc-socket-server binary the driver spawns
//! cargo run --example socket_cluster
//! ```
//!
//! The driver binds a listener, spawns one `tc-socket-server` process per
//! rank (found next to this example in `target/<profile>/`), handshakes, and
//! then the exact scenario from the quickstart runs across real process
//! boundaries: bitcode ships over the socket, each server JIT-compiles it in
//! its own address space, and the sender cache still truncates the second
//! frame.  Flip `Backend::Socket` to `Backend::Threads` or use
//! `build_sim()` and nothing else changes.

use tc_bitir::{BinOp, ModuleBuilder, ScalarType};
use tc_core::layout::{DATA_REGION_BASE, TARGET_REGION_BASE};
use tc_core::{build_ifunc_library, Cluster, ClusterBuilder, ToolchainOptions, Transport};
use tc_simnet::Platform;

/// The quickstart counter ifunc: add the payload's first byte to a counter
/// behind the target pointer.
fn counter_module() -> tc_bitir::Module {
    let mut mb = ModuleBuilder::new("socket_counter");
    {
        let mut f = mb.entry_function();
        let payload = f.param(0);
        let target = f.param(2);
        let delta = f.load(ScalarType::U8, payload, 0);
        let counter = f.load(ScalarType::U64, target, 0);
        let sum = f.bin(BinOp::Add, ScalarType::U64, counter, delta);
        f.store(ScalarType::U64, sum, target, 0);
        let zero = f.const_i64(0);
        f.ret(zero);
        f.finish();
    }
    mb.build()
}

fn run<T: Transport>(cluster: &mut Cluster<T>) -> (usize, usize, u64) {
    let library =
        build_ifunc_library(&counter_module(), &ToolchainOptions::default()).expect("toolchain");
    let handle = cluster.register_ifunc(library);
    let message = cluster.bitcode_message(handle, vec![5]).expect("message");

    let first = cluster.send_ifunc(&message, 1).unwrap();
    cluster.run_until_idle(10_000).unwrap();
    let cached = cluster.send_ifunc(&message, 1).unwrap();
    cluster.run_until_idle(10_000).unwrap();

    let counter = cluster.read_u64(1, TARGET_REGION_BASE).unwrap();
    (first, cached, counter)
}

fn main() {
    // Spawns one tc-socket-server process per server rank; the binary is
    // resolved from the directory next to this example (or set it with
    // `.server_bin(path)`).
    let mut cluster = ClusterBuilder::new()
        .platform(Platform::thor_bf2())
        .servers(2)
        .build_socket()
        .expect("socket cluster starts");

    println!(
        "driver listening on {}",
        cluster
            .transport()
            .local_spec()
            .map(|s| s.to_string())
            .unwrap_or_default()
    );

    let (first, cached, counter) = run(&mut cluster);
    println!("socket  : first send {first} B, cached send {cached} B, counter {counter}");
    assert_eq!(counter, 10, "both deltas landed, exactly once");
    assert!(
        cached < first,
        "the sender cache truncates across process boundaries too"
    );

    // The data plane works the same: bulk PUT/GET against a server process.
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    cluster.put(2, DATA_REGION_BASE, payload.clone()).unwrap();
    let h = cluster
        .get(2, DATA_REGION_BASE, payload.len() as u64)
        .unwrap();
    let echoed = cluster.wait(&h).unwrap();
    assert_eq!(&echoed[..], &payload[..]);
    println!("socket  : 4 KiB PUT/GET round trip through a server process ok");

    // Clean teardown: SHUTDOWN to every server, children reaped.
    let mut transport = cluster.shutdown();
    assert_eq!(transport.live_children(), 0);
    println!("socket  : all server processes exited cleanly");
}
