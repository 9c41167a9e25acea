//! Allocations of a threaded cluster's pointer chase, per forward.
//!
//! A cached chaser hop on the threaded backend — a server receives the
//! truncated frame, runs the ifunc and forwards it to the next server — is
//! the paper's X-RDMA hop, and it should cost what an Active Message hop
//! costs.  This suite counts every allocation of every thread of the process
//! while one chase runs and pins what a *longer* chase adds: nothing.  So
//! neither the runtime (lookup, framework calls, the forwarded frame) nor the
//! carrier (the poll loop, the posted operations, the fabric's batches)
//! allocates per forward.
//!
//! Its own test binary, because it installs a counting `#[global_allocator]`
//! that counts across threads; its one test runs alone in this process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tc_core::layout::DATA_REGION_BASE;
use tc_core::{build_ifunc_library, ClusterBuilder, ResultHandle, ToolchainOptions};
use tc_workloads::{chaser_module, chaser_payload};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Entries per shard: shard 0 on the first server, shard 1 on the second.
const SHARD: u64 = 8;

/// What a chase of depth 128 allocates beyond one of depth 64, per added
/// forward.  (The parent of the change that added this suite allocated
/// about five times per forward: the framework call's payload, the frame's
/// dependency list, the runtime's outcome and outgoing lists and the
/// fabric's batch.)
const PER_FORWARD: u64 = 0;

#[test]
fn a_longer_threaded_chase_allocates_nothing_more() {
    let mut cluster = ClusterBuilder::new().servers(2).build_threaded();
    let (a, b) = (cluster.server_rank(0), cluster.server_rank(1));
    // Every entry points into the other server's shard, so every hop but
    // the first forwards.
    for i in 0..SHARD {
        let at = DATA_REGION_BASE + i * 8;
        cluster.write_u64(a, at, SHARD + i).unwrap();
        cluster.write_u64(b, at, i).unwrap();
    }
    let toolchain = ToolchainOptions {
        build_binaries: false,
        ..ToolchainOptions::default()
    };
    let library = build_ifunc_library(&chaser_module("dapc_chaser"), &toolchain).unwrap();
    let handle = cluster.register_ifunc(library);
    let first = cluster.first_server_rank() as u64;
    let mut slot = 0;
    let mut chase = |depth: u64| {
        let result = ResultHandle::for_slot(slot);
        slot += 1;
        let payload = chaser_payload::encode(0, result.slot(), 0, depth, first, SHARD);
        let msg = cluster.bitcode_message(handle, payload).unwrap();
        let before = ALLOCS.load(Ordering::SeqCst);
        cluster.send_ifunc(&msg, a).unwrap();
        let value = cluster.wait(&result).unwrap();
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        // Depth d from index 0 alternates shards and ends in A's.
        assert_eq!(value, if depth.is_multiple_of(2) { 0 } else { SHARD });
        allocs
    };

    // Warm-up: the code reaches both servers, every later frame is
    // truncated, and pools, queues and batch buffers reach their size.
    for _ in 0..8 {
        chase(128);
    }
    // The least of a few runs of each, so that a stray park of the caller
    // does not count as the chase's.
    let least = |chase: &mut dyn FnMut(u64) -> u64, depth| (0..5).map(|_| chase(depth)).min();
    let (short, long) = (least(&mut chase, 64), least(&mut chase, 128));
    let (short, long) = (short.unwrap(), long.unwrap());
    assert_eq!(
        long.saturating_sub(short),
        64 * PER_FORWARD,
        "depth 64 allocated {short} times and depth 128 {long} times"
    );
    cluster.shutdown();
}
