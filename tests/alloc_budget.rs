//! Allocation budget of the cached-ifunc hit path, and the count of the
//! first arrival.
//!
//! A cached chaser arrival that forwards — `deliver` of a truncated frame →
//! `poll_each` → `next_outgoing` — is the unit of work the paper's X-RDMA
//! pointer chase repeats per hop, and §III-D's claim is that it costs what an
//! Active Message costs.  This suite holds the line on the part of that cost
//! an allocator can count: after warm-up one such arrival allocates nothing
//! ([`BUDGET`]), whatever the length of the ifunc's name or the number of
//! dependencies it names (both were cloned per message before the
//! registration record carried them).  A bitcode first arrival —
//! archive walk, slice decode, compile, registration — is pinned at the
//! count it has, so that a change to the receive path states what it moved.
//!
//! The same counter holds the driver plane's idle and observation paths to
//! zero: checking a completion set against a healthy cluster and taking a
//! snapshot allocate nothing but the snapshot's own vectors, and a `step`
//! that carries traffic allocates what it did before the snapshot existed;
//! and a `step` that carries nothing — a silent park of a cluster under a
//! fault plan, which happens once per retransmission cadence of every
//! blocked wait — allocates nothing at all.
//!
//! Its own test binary, because it installs a counting `#[global_allocator]`;
//! the count is per thread, so the tests here may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tc_bitir::TargetTriple;
use tc_core::frame::MessageFrame;
use tc_core::layout::DATA_REGION_BASE;
use tc_core::{
    build_ifunc_library, ClusterBuilder, CompletionSet, NodeRuntime, OutcomeKind, ToolchainOptions,
    Transport,
};
use tc_jit::MemoryExt;
use tc_ucx::{BufPool, Bytes, OutgoingMessage, UcpOp, WorkerAddr};
use tc_workloads::{chaser_module, chaser_payload, reporting_tsi_payload, tsi_reporting_module};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated less bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One allocation (or reallocation) that adds `bytes` to the live count.
fn note(bytes: i64) {
    // A thread being torn down has no counter left; nothing is measured there.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

/// Allocations (and reallocations) `f` performs on this thread.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// What one forwarding arrival may allocate: nothing.  The frame it forwards
/// is encoded from the ifunc's memory into a pooled buffer, and the carrier
/// takes outcomes and posted operations one at a time.  (The parent commit
/// of the change that added this suite measured 15 with an 11-byte name and
/// no dependencies, and 18 with a 280-byte name and two; the budget was 3 —
/// the outcome list of `poll`, the payload handed to `tc_forward_self` and
/// the list `take_outgoing` returns — until those three went.)
const BUDGET: u64 = 0;

const CLIENT: WorkerAddr = WorkerAddr(0);
const SERVER_A: WorkerAddr = WorkerAddr(1);
const SERVER_B: WorkerAddr = WorkerAddr(2);
/// Entries per shard: shard 0 on `SERVER_A`, shard 1 on `SERVER_B`.
const SHARD: u64 = 8;

struct Nodes {
    client: NodeRuntime,
    a: NodeRuntime,
    b: NodeRuntime,
}

impl Nodes {
    /// Three runtimes and a pointer table in which every entry points into
    /// the other server's shard, so every hop of a chase forwards.
    fn new() -> Nodes {
        let node = |rank| NodeRuntime::new(rank, 3, TargetTriple::THOR_XEON);
        let mut nodes = Nodes {
            client: node(CLIENT),
            a: node(SERVER_A),
            b: node(SERVER_B),
        };
        for i in 0..SHARD {
            let at = DATA_REGION_BASE + i * 8;
            nodes.a.memory.write_u64(at, SHARD + i).unwrap();
            nodes.b.memory.write_u64(at, i).unwrap();
        }
        nodes
    }

    fn node(&mut self, rank: WorkerAddr) -> &mut NodeRuntime {
        match rank {
            CLIENT => &mut self.client,
            SERVER_A => &mut self.a,
            _ => &mut self.b,
        }
    }

    /// Move messages between the three runtimes until nothing is in flight.
    fn settle(&mut self) {
        loop {
            let mut progressed = false;
            for rank in [CLIENT, SERVER_A, SERVER_B] {
                for msg in self.node(rank).take_outgoing() {
                    progressed = true;
                    let dst = msg.dst;
                    self.node(dst).deliver(msg);
                }
                for outcome in self.node(rank).poll(usize::MAX) {
                    progressed = true;
                    outcome.expect("every message is handled");
                }
            }
            if !progressed {
                return;
            }
        }
    }
}

/// Allocations of one warmed-up forwarding arrival of a chaser named `name`
/// that lists `deps`.
fn forwarding_arrival_allocs(name: &str, deps: &[&str]) -> u64 {
    let mut module = chaser_module(name);
    module.deps = deps.iter().map(|d| d.to_string()).collect();
    let toolchain = ToolchainOptions {
        build_binaries: false,
        ..ToolchainOptions::default()
    };
    let library = build_ifunc_library(&module, &toolchain).unwrap();

    let mut nodes = Nodes::new();
    let handle = nodes.client.register_library(library);
    let chase = |nodes: &mut Nodes, depth: u64| {
        let payload = chaser_payload::encode(u64::from(CLIENT.0), 0, 0, depth, 1, SHARD);
        let msg = nodes
            .client
            .create_bitcode_message(handle, payload)
            .unwrap();
        nodes.client.send_ifunc(&msg, SERVER_A);
    };

    // Warm-up: code reaches both servers (the client ships it to A, A to B,
    // B back to A), every later frame is truncated, pools and queues grow to
    // their steady-state capacity.
    for _ in 0..4 {
        chase(&mut nodes, 6);
        nodes.settle();
        assert_eq!(nodes.client.take_completions().len(), 1);
    }

    // The measured arrival: a truncated frame at A, one local lookup, a
    // truncated forward to B.
    chase(&mut nodes, 2);
    let mut arrival: Vec<OutgoingMessage> = nodes.client.take_outgoing();
    let arrival = arrival.pop().expect("the client posted one frame");
    assert!(matches!(&arrival.op, UcpOp::IfuncFrame { bytes, code }
        if MessageFrame::decode_views(bytes, code).unwrap().code.is_none()));

    let jit_before = nodes.a.stats.jit_compilations;
    let mut outcome = None;
    let ((handled, forwarded, more), allocs) = count(|| {
        nodes.a.deliver(arrival);
        let handled = nodes.a.poll_each(usize::MAX, |o| outcome = Some(o));
        let forwarded = nodes.a.next_outgoing();
        (handled, forwarded, nodes.a.next_outgoing())
    });

    assert_eq!((handled, more), (1, None));
    let outcome = outcome.unwrap().unwrap();
    assert_eq!(outcome.kind, OutcomeKind::IfuncExecutedCached);
    assert_eq!(nodes.a.stats.jit_compilations, jit_before);
    let forwarded = forwarded.expect("one forward");
    assert_eq!(forwarded.dst, SERVER_B);
    assert!(matches!(&forwarded.op, UcpOp::IfuncFrame { bytes, code }
        if MessageFrame::decode_views(bytes, code).unwrap().code.is_none()));
    allocs
}

#[test]
fn a_cached_forwarding_arrival_stays_within_its_allocation_budget() {
    let allocs = forwarding_arrival_allocs("dapc_chaser", &[]);
    assert_eq!(
        allocs, BUDGET,
        "one cached forwarding arrival allocated {allocs} times (budget {BUDGET})"
    );
}

#[test]
fn the_allocation_count_does_not_grow_with_name_length_or_dependency_count() {
    let short = forwarding_arrival_allocs("c", &[]);
    let long = forwarding_arrival_allocs(&"chaser_".repeat(40), &["libc.so", "libm.so"]);
    assert_eq!(
        short, long,
        "a 1-byte name without dependencies and a 280-byte name with two must cost the same"
    );
}

/// What one bitcode first arrival allocates at a warm server: deliver of a
/// full frame of a five-target archive → `poll` (find the server's slice
/// of the archive in place, decode it, compile, register, run) →
/// `take_outgoing` (the result's PUT back to the client).  It was 63 while the JIT session kept its own
/// name-keyed copy of every module beside the registration table, and 61
/// until the verifier stopped collecting each instruction's operands into a
/// vector of their own (19 fewer) and the compiler began emitting the
/// engine's executable form with the machine code (3 more: its code,
/// function entries and call arguments), 45 until the bitcode decoder
/// skipped the function and module metadata padding instead of copying it
/// (2 fewer), 43 until the result record the ifunc returns was written
/// into a pooled buffer (1 fewer), 42 until intake read the server's
/// slice of the archive in place instead of decoding every entry (7 fewer:
/// the archive's name, dependency list, entry list and the five entries),
/// and 35 until the compiler took the module it compiles instead of copying
/// its parts (9 fewer: the module's name, its symbol list and symbol, the
/// function's name and the call's argument list move; no triple string, no
/// name set in the verifier, and no sender-cache row for an ifunc that has
/// not forwarded).
const FIRST_ARRIVAL: u64 = 26;

/// What one bitcode first arrival leaves live: the registration record with
/// its program, function signature and name, less the head buffer of the
/// arrival it freed.  It was 2 338 bytes while the module kept the machine
/// blocks its program was emitted from and every arrival took a
/// sender-cache row.
const FIRST_ARRIVAL_KEEPS: i64 = 1_121;

#[test]
fn a_bitcode_first_arrival_allocates_what_it_did() {
    let toolchain = ToolchainOptions {
        build_binaries: false,
        ..ToolchainOptions::default()
    };
    let library =
        |name: &str| build_ifunc_library(&tsi_reporting_module(name), &toolchain).unwrap();
    let mut nodes = Nodes::new();
    let send = |nodes: &mut Nodes, name: &str, slot: u64| {
        let handle = nodes.client.register_library(library(name));
        let payload = reporting_tsi_payload::encode(u64::from(CLIENT.0), slot, 1, 0);
        let msg = nodes
            .client
            .create_bitcode_message(handle, payload)
            .unwrap();
        nodes.client.send_ifunc(&msg, SERVER_A);
    };

    // Warm-up: another library's first arrival sizes the server's
    // registration table, pools and staging pages.
    send(&mut nodes, "cold_warm_up", 0);
    nodes.settle();
    assert_eq!(nodes.client.take_completions().len(), 1);

    send(&mut nodes, "cold_measured", 1);
    let arrival = nodes.client.take_outgoing().pop().expect("one full frame");
    let compiled = nodes.a.stats.jit_compilations;
    let live = LIVE.with(Cell::get);
    let ((outcomes, replies), allocs) = count(|| {
        nodes.a.deliver(arrival);
        let outcomes = nodes.a.poll(usize::MAX);
        (outcomes, nodes.a.take_outgoing())
    });

    let outcome = outcomes.into_iter().next().unwrap().unwrap();
    assert_eq!(outcome.kind, OutcomeKind::IfuncExecutedFirstArrival);
    assert_eq!(nodes.a.stats.jit_compilations, compiled + 1);
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].dst, CLIENT);
    assert_eq!(
        allocs, FIRST_ARRIVAL,
        "allocations of one bitcode first arrival"
    );
    drop(replies);
    assert_eq!(
        LIVE.with(Cell::get) - live,
        FIRST_ARRIVAL_KEEPS,
        "bytes one bitcode first arrival leaves live"
    );
}

/// What one encode-pool fill allocates when every retained slot
/// is pinned — by a registration table holding received code, say: the
/// missed buffer, once.  The parent of the change that bounded the pool's
/// probe scanned every slot and then allocated twice, a zeroed `Vec` and the
/// `Arc<[u8]>` it was copied into.
const PINNED_POOL_MISS: u64 = 1;

#[test]
fn an_acquire_on_a_pool_of_pinned_slots_allocates_once() {
    let mut pool = BufPool::new();
    // More than the pool's cap of 64 slots, every one of them held here.
    let pinned: Vec<Bytes> = (0..80)
        .map(|_| pool.fill(8 * 1024, |_| Ok::<_, ()>(())).unwrap())
        .collect();
    let reused = pool.stats.reused;
    let (frame, allocs) = count(|| {
        let write = |out: &mut [u8]| {
            out.copy_from_slice(&7u64.to_le_bytes());
            Ok::<_, ()>(())
        };
        pool.fill(8, write).unwrap()
    });
    assert_eq!(pool.stats.reused, reused, "no pinned slot can be reused");
    assert_eq!(frame, 7u64.to_le_bytes());
    assert_eq!(
        allocs, PINNED_POOL_MISS,
        "allocations of one fill of a pinned pool"
    );
    drop(pinned);
}

/// What one `step` of a healthy threaded cluster allocates on the caller's
/// thread when it carries one GET reply from the fabric to the client — the
/// count `Transport::observe` was put beside, less the event vector
/// `NodeRuntime::poll` no longer builds before its vector of outcomes, less
/// that vector of outcomes (the client host polls with `poll_each`).
const STEP_WITH_ONE_REPLY: u64 = 2;

#[test]
fn polling_and_observing_a_healthy_cluster_allocate_nothing_of_their_own() {
    let mut cluster = ClusterBuilder::new().servers(1).build_threaded();
    cluster.write_u64(1, DATA_REGION_BASE, 7).unwrap();
    let mut set = CompletionSet::new();
    let mut round_trip = |measure: bool| {
        let token = set.add_get(cluster.post_get(1, DATA_REGION_BASE, 8));
        cluster.flush().unwrap();
        // Nothing has been stepped, so nothing can be ready: the check asks
        // `failed_ranks` and allocates nothing.
        let (ready, polled) = count(|| cluster.poll_any(&mut set));
        assert_eq!((ready, polled), (None, 0));
        let (progressed, stepped) = count(|| cluster.transport_mut().step().unwrap());
        assert!(progressed, "the reply is the only traffic");
        if measure {
            assert_eq!(
                stepped, STEP_WITH_ONE_REPLY,
                "allocations of one traffic step"
            );
        }
        let (resolved, _) = cluster.poll_any(&mut set).expect("the reply arrived");
        assert_eq!(resolved, token);
    };
    // Warm-up: pools, queues and the claim table reach their steady size.
    for _ in 0..8 {
        round_trip(false);
    }
    round_trip(true);

    // Without a fault plan a snapshot holds one vector, its ranks: there is
    // no link row, no event, and nothing else is allocated to take it.
    let (snapshot, observed) = count(|| cluster.transport().observe());
    assert_eq!((snapshot.ranks.len(), snapshot.events.len()), (2, 0));
    assert!(snapshot.ranks.iter().all(|r| r.links.is_empty()));
    assert_eq!(observed, 1, "{snapshot}");
    let (failed, asked) = count(|| cluster.transport().failed_ranks());
    assert_eq!((failed, asked), (Vec::new(), 0));
}

/// Under a fault plan the wait path asks "is anything unacked?" after every
/// silent park.  That is a sum over the hosts and the servers' published
/// digests, taken in place — not a `Snapshot` (two rank vectors, the link
/// rows, the chaos session's lock and a copy of the event ring) built to be
/// reduced to one number.
#[test]
fn a_silent_park_of_a_reliable_threaded_cluster_allocates_nothing() {
    let mut cluster = ClusterBuilder::new()
        .servers(2)
        .fault_plan(tc_core::FaultPlan::seeded(5))
        .build_threaded();
    // Traffic first, so that every link exists and has something to report.
    for server in 1..=2 {
        cluster.write_u64(server, DATA_REGION_BASE, 7).unwrap();
        let handle = cluster.get(server, DATA_REGION_BASE, 8).unwrap();
        assert_eq!(cluster.wait(&handle).unwrap()[0], 7);
    }
    cluster.run_until_idle(1_000).unwrap();
    // The first park also sets up this thread's channel context.
    assert!(!cluster.transport_mut().step().unwrap());
    for _ in 0..3 {
        let (progressed, allocs) = count(|| cluster.transport_mut().step().unwrap());
        assert_eq!((progressed, allocs), (false, 0), "a silent, idle park");
    }
    assert_eq!(cluster.transport().unacked_total(), 0);
}
