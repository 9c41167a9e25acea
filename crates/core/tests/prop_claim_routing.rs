//! Property tests for per-client completion routing: the `ClaimTable` keyed
//! by `(ClientId, id)` and the `CompletionSet` resolution order on top of it.
//!
//! House style of `prop_frame_cache.rs`: no crates.io in the build
//! environment, so cases are generated from a deterministic splitmix64
//! stream and every assertion carries its case index for reproduction.
//!
//! The property under test is that claim routing is a *permutation*: every
//! absorbed completion is claimable exactly once, only under the client it
//! arrived for, with arrival-order ties preserved — no loss, no duplication,
//! no cross-client delivery, even though different clients use colliding
//! numeric request ids and mailbox slots by construction.

use std::collections::HashMap;
use tc_bitir::TargetTriple;
use tc_core::cluster::{Cluster, CompletionSet, Snapshot, Transport};
use tc_core::{
    ClientId, Completion, CoreError, GetHandle, NativeAmHandler, NodeRuntime, ResultHandle,
};
use tc_ucx::{RequestId, WorkerAddr};

const CASES: u64 = 64;

struct Gen(tc_simnet::SplitMix64);

impl Gen {
    fn for_case(case: u64) -> Self {
        Gen(tc_simnet::SplitMix64::new(
            0xC1A1_4000u64.wrapping_add(case.wrapping_mul(0x9e37_79b9)),
        ))
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.0.range(lo, hi)
    }
}

/// One generated completion event with its routing ground truth.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Get {
        client: usize,
        request: u64,
        byte: u8,
    },
    Put {
        client: usize,
        request: u64,
    },
    Result {
        client: usize,
        slot: u64,
        value: u64,
    },
}

impl Event {
    fn completion(&self) -> Completion {
        match *self {
            Event::Get { request, byte, .. } => Completion::Get {
                request: RequestId(request),
                data: vec![byte; 3].into(),
            },
            Event::Put { request, .. } => Completion::Put {
                request: RequestId(request),
            },
            Event::Result { slot, value, .. } => Completion::Result { slot, value },
        }
    }

    fn client(&self) -> usize {
        match *self {
            Event::Get { client, .. }
            | Event::Put { client, .. }
            | Event::Result { client, .. } => client,
        }
    }
}

/// Generate a random interleaving of completion arrivals for `clients`
/// clients.  Ids are drawn from a *small* range so cross-client collisions
/// are overwhelmingly likely; per-client duplicates are filtered (the
/// transport never delivers the same GET/PUT completion twice, and result
/// overwrites are covered by dedicated unit tests).
fn generate_events(g: &mut Gen, clients: usize, count: usize) -> Vec<Event> {
    let mut seen: HashMap<(usize, u8, u64), ()> = HashMap::new();
    let mut out = Vec::new();
    while out.len() < count {
        let client = g.range(0, clients as u64) as usize;
        let id = g.range(0, 8);
        let (kind, ev) = match g.range(0, 3) {
            0 => (
                0u8,
                Event::Get {
                    client,
                    request: id,
                    byte: (0x10 * (client as u8 + 1)) ^ id as u8,
                },
            ),
            1 => (
                1,
                Event::Put {
                    client,
                    request: id,
                },
            ),
            _ => (
                2,
                Event::Result {
                    client,
                    slot: id,
                    value: (client as u64) << 32 | id,
                },
            ),
        };
        if seen.insert((client, kind, id), ()).is_none() {
            out.push(ev);
        }
    }
    out
}

/// A transport hosting `n` virtual clients whose completion streams are fed
/// by the test.
struct MockTransport {
    clients: Vec<NodeRuntime>,
    queued: Vec<Vec<Completion>>,
}

impl MockTransport {
    fn new(n: usize) -> Self {
        MockTransport {
            clients: (0..n)
                .map(|c| {
                    NodeRuntime::new(
                        WorkerAddr(c as u32),
                        n as u32 + 1,
                        TargetTriple::X86_64_GENERIC,
                    )
                })
                .collect(),
            queued: vec![Vec::new(); n],
        }
    }
}

impl Transport for MockTransport {
    fn backend_name(&self) -> &'static str {
        "mock-multi"
    }
    fn node_count(&self) -> usize {
        self.clients.len() + 1
    }
    fn client_count(&self) -> usize {
        self.clients.len()
    }
    fn client(&self, id: ClientId) -> &NodeRuntime {
        &self.clients[id.0]
    }
    fn client_mut(&mut self, id: ClientId) -> &mut NodeRuntime {
        &mut self.clients[id.0]
    }
    fn deploy_am(&mut self, _name: &str, _handler: NativeAmHandler) -> tc_core::Result<()> {
        Ok(())
    }
    fn flush_client(&mut self, _id: ClientId) -> tc_core::Result<()> {
        Ok(())
    }
    fn step(&mut self) -> tc_core::Result<bool> {
        Ok(false)
    }
    fn take_completions(&mut self, id: ClientId) -> Vec<Completion> {
        std::mem::take(&mut self.queued[id.0])
    }
    fn control(&mut self, rank: usize, _tag: u64, _body: &[u8]) -> tc_core::Result<Vec<u8>> {
        Err(tc_core::CoreError::Transport(format!(
            "rank {rank} is not served"
        )))
    }
    fn observe(&self) -> Snapshot {
        Snapshot::default()
    }
}

fn feed(cluster: &mut Cluster<MockTransport>, events: &[Event]) {
    for ev in events {
        let c = ev.client();
        cluster.transport_mut().queued[c].push(ev.completion());
    }
}

/// Mint GET handles for every `(client, request)` pair a case needs.  The
/// only public way to obtain a `GetHandle` is posting, and each client's
/// request ids are dense and monotone — so walk each client's id space once
/// in ascending order and keep the handles the events refer to.
fn mint_get_handles(
    cluster: &mut Cluster<MockTransport>,
    events: &[Event],
) -> HashMap<(usize, u64), GetHandle> {
    let mut wanted: HashMap<usize, Vec<u64>> = HashMap::new();
    for ev in events {
        if let Event::Get {
            client, request, ..
        } = *ev
        {
            wanted.entry(client).or_default().push(request);
        }
    }
    let mut out = HashMap::new();
    for (client, mut requests) in wanted {
        requests.sort_unstable();
        let max = *requests.last().expect("non-empty by construction");
        for _ in 0..=max {
            let h = cluster
                .post_get_from(ClientId(client), usize::MAX, 0, 0)
                .unwrap();
            if requests.contains(&h.request().0) {
                out.insert((client, h.request().0), h);
            }
        }
    }
    out
}

/// Claim routing is a permutation: every event claims exactly once under its
/// own (client, id), in any claim order, and nothing is left afterwards.
#[test]
fn claim_routing_is_a_permutation() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case);
        let clients = g.range(2, 5) as usize;
        let count = g.range(4, 24) as usize;
        let events = generate_events(&mut g, clients, count);
        let mut cluster = Cluster::new(MockTransport::new(clients));
        let gets = mint_get_handles(&mut cluster, &events);
        feed(&mut cluster, &events);

        // Claim in a shuffled order, through typed handles.
        let mut order: Vec<usize> = (0..events.len()).collect();
        for i in (1..order.len()).rev() {
            let j = g.range(0, i as u64 + 1) as usize;
            order.swap(i, j);
        }
        for &i in &order {
            match events[i] {
                Event::Get {
                    client,
                    request,
                    byte,
                } => {
                    let h = gets[&(client, request)];
                    let data = cluster
                        .try_claim(&h)
                        .unwrap_or_else(|| panic!("case {case}: GET {i} must claim"));
                    assert_eq!(data[0], byte, "case {case}: GET {i} routed wrong value");
                    assert!(
                        cluster.try_claim(&h).is_none(),
                        "case {case}: GET {i} claims once"
                    );
                }
                Event::Put { client, request } => {
                    // Confirmed-PUT handles can only be built through posting;
                    // claim through the result-of-absorption path instead.
                    let _ = (client, request);
                }
                Event::Result {
                    client,
                    slot,
                    value,
                } => {
                    let h = ResultHandle::for_client_slot(ClientId(client), slot);
                    let got = cluster
                        .try_claim(&h)
                        .unwrap_or_else(|| panic!("case {case}: result {i} must claim"));
                    assert_eq!(got, value, "case {case}: result {i} routed wrong value");
                    assert!(
                        cluster.try_claim(&h).is_none(),
                        "case {case}: result {i} claims once"
                    );
                }
            }
        }
        // Only the (unclaimable-by-handle) PUT events remain.
        let puts = events
            .iter()
            .filter(|e| matches!(e, Event::Put { .. }))
            .count();
        assert_eq!(
            cluster.pending_completions(),
            puts,
            "case {case}: no completions lost or duplicated"
        );
    }
}

/// No cross-client delivery: claims under every *other* client id fail, and
/// the rightful claim still succeeds afterwards.
#[test]
fn wrong_client_claims_always_miss() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case ^ 0xF00D);
        let clients = g.range(2, 5) as usize;
        let count = g.range(4, 16) as usize;
        let events = generate_events(&mut g, clients, count);
        let mut cluster = Cluster::new(MockTransport::new(clients));
        feed(&mut cluster, &events);

        for (i, ev) in events.iter().enumerate() {
            if let Event::Result {
                client,
                slot,
                value,
            } = *ev
            {
                for other in 0..clients {
                    if other == client {
                        continue;
                    }
                    // Unless `other` got its own result on the same slot,
                    // the wrong-client claim must miss.
                    let other_has_same = events.iter().any(|e| {
                        matches!(e, Event::Result { client: c2, slot: s2, .. }
                                 if *c2 == other && *s2 == slot)
                    });
                    if other_has_same {
                        continue;
                    }
                    let h = ResultHandle::for_client_slot(ClientId(other), slot);
                    assert!(
                        cluster.try_claim(&h).is_none(),
                        "case {case}: event {i} must not claim under client {other}"
                    );
                }
                let h = ResultHandle::for_client_slot(ClientId(client), slot);
                assert_eq!(
                    cluster.try_claim(&h),
                    Some(value),
                    "case {case}: event {i} rightful claim"
                );
            }
        }
    }
}

/// Arrival-order ties are preserved: a `CompletionSet` registered over every
/// generated event resolves in exactly the order the completions were
/// absorbed — each client's stream in its own delivery order, client streams
/// drained in client order within one absorb round (the transport exposes
/// *per-client* completion queues; there is no cross-client arrival clock).
#[test]
fn completion_set_resolves_in_arrival_order_across_clients() {
    for case in 0..CASES {
        let mut g = Gen::for_case(case ^ 0xA11);
        let clients = g.range(2, 5) as usize;
        let count = g.range(4, 20) as usize;
        let events = generate_events(&mut g, clients, count);
        let mut cluster = Cluster::new(MockTransport::new(clients));
        let gets = mint_get_handles(&mut cluster, &events);

        let mut set = CompletionSet::new();
        let mut expect = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                Event::Get {
                    client, request, ..
                } => {
                    let h = gets[&(client, request)];
                    expect.push((set.add_get(h), i));
                }
                Event::Result { client, slot, .. } => {
                    let h = ResultHandle::for_client_slot(ClientId(client), slot);
                    expect.push((set.add_result(h), i));
                }
                // PUT handles only exist via posting; not part of this
                // ordering property.
                Event::Put { .. } => {}
            }
        }
        feed(&mut cluster, &events);

        let mut resolved = Vec::new();
        while let Some((token, _)) = cluster.poll_any(&mut set) {
            resolved.push(token);
        }
        // One absorb round drains client 0's queue, then client 1's, … —
        // so the expected order is client-major, each client's events in
        // their original delivery order.
        let mut expected_order = Vec::new();
        for c in 0..clients {
            for (t, i) in &expect {
                if events[*i].client() == c && !matches!(events[*i], Event::Put { .. }) {
                    expected_order.push(*t);
                }
            }
        }
        assert_eq!(
            resolved, expected_order,
            "case {case}: resolution must follow absorb order exactly"
        );
        assert!(set.is_empty(), "case {case}: every registration resolved");
    }
}

/// An ifunc library with an entry that returns 0.
fn noop_library() -> tc_core::IfuncLibrary {
    let mut mb = tc_bitir::ModuleBuilder::new("noop");
    let mut f = mb.entry_function();
    let zero = f.const_i64(0);
    f.ret(zero);
    f.finish();
    tc_core::build_ifunc_library(&mb.build(), &tc_core::ToolchainOptions::default()).unwrap()
}

/// The reserved-slot path (PR 4) stays correct per client: allocators skip
/// random per-client reservations, never hand a slot out twice, and other
/// clients' reservations have no effect.
#[test]
fn reserved_slots_are_skipped_per_client() {
    let library = noop_library();
    for case in 0..CASES {
        let mut g = Gen::for_case(case ^ 0x5107);
        let clients = g.range(2, 5) as usize;
        let mut cluster = Cluster::new(MockTransport::new(clients));
        let mut reserved: Vec<Vec<u64>> = vec![Vec::new(); clients];
        for _ in 0..g.range(0, 10) {
            let c = g.range(0, clients as u64) as usize;
            let slot = g.range(0, 12);
            cluster.reserve_result_slot_on(ClientId(c), slot).unwrap();
            reserved[c].push(slot);
        }
        for (c, reserved_here) in reserved.iter().enumerate() {
            let mut handed = Vec::new();
            for _ in 0..10 {
                let h = cluster.result_slot_on(ClientId(c)).unwrap();
                assert_eq!(h.client(), ClientId(c), "case {case}");
                assert!(
                    !reserved_here.contains(&h.slot()),
                    "case {case}: client {c} allocator handed out reserved slot {}",
                    h.slot()
                );
                handed.push(h.slot());
            }
            let mut dedup = handed.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), handed.len(), "case {case}: no slot twice");
            // Exactly the first 10 non-reserved naturals, in order — other
            // clients' reservations must not shift this stream.
            let expect: Vec<u64> = (0..)
                .filter(|s| !reserved_here.contains(s))
                .take(10)
                .collect();
            assert_eq!(handed, expect, "case {case}: client {c} stream");
        }
        // A client the cluster does not have is a typed error on every
        // per-client path, checked before the transport sees the id.
        let handle = cluster.register_ifunc(library.clone());
        let message = cluster.bitcode_message(handle, vec![1]).unwrap();
        for unknown in [clients, clients + g.range(1, 1000) as usize] {
            let id = ClientId(unknown);
            let slot = g.range(0, 12);
            let refusals = [
                ("result_slot_on", cluster.result_slot_on(id).map(drop)),
                (
                    "reserve_result_slot_on",
                    cluster.reserve_result_slot_on(id, slot).map(drop),
                ),
                (
                    "send_ifunc_from",
                    cluster.send_ifunc_from(id, &message, clients).map(drop),
                ),
                (
                    "send_am_from",
                    cluster.send_am_from(id, "am", clients, vec![1]).map(drop),
                ),
                (
                    "put_from",
                    cluster.put_from(id, clients, 0, vec![1]).map(drop),
                ),
                (
                    "put_confirmed_from",
                    cluster
                        .put_confirmed_from(id, clients, 0, vec![1])
                        .map(drop),
                ),
                ("get_from", cluster.get_from(id, clients, 0, 8).map(drop)),
                (
                    "post_get_from",
                    cluster.post_get_from(id, clients, 0, 8).map(drop),
                ),
                (
                    "post_put_confirmed_from",
                    cluster
                        .post_put_confirmed_from(id, clients, 0, vec![1])
                        .map(drop),
                ),
                (
                    "register_ifunc_on",
                    cluster.register_ifunc_on(id, library.clone()).map(drop),
                ),
                (
                    "bitcode_message_on",
                    cluster.bitcode_message_on(id, handle, vec![1]).map(drop),
                ),
                (
                    "binary_message_on",
                    cluster
                        .binary_message_on(id, handle, "x86_64-unknown-linux-gnu", vec![1])
                        .map(drop),
                ),
                ("client_runtime", cluster.client_runtime(id).map(drop)),
            ];
            for (method, refused) in refusals {
                assert!(
                    matches!(&refused, Err(CoreError::Transport(m)) if m.contains("no client with id")),
                    "case {case}: {method} for client {unknown} of {clients}: {refused:?}"
                );
            }
        }
        // The refusals moved no allocator: client 0's stream goes on.
        let eleventh = (0..).filter(|s| !reserved[0].contains(s)).nth(10);
        let next = cluster.result_slot_on(ClientId(0)).unwrap();
        assert_eq!(Some(next.slot()), eleventh, "case {case}");
    }
}
