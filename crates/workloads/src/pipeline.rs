//! Pipelined drivers over the async completion plane.
//!
//! The paper's X-RDMA argument is that a client should keep *many* one-sided
//! operations and result mailboxes in flight at once instead of
//! send-one-wait-one.  This module ports the evaluation workloads to that
//! driving style on top of [`CompletionSet`] / `wait_any`:
//!
//! * [`gather_entries`] — the pointer-table / GBPC data plane: GET every
//!   table entry with a bounded window of outstanding requests, assembling
//!   a byte-exact image (identical for any window size, on any backend,
//!   with or without a fault plan);
//! * [`run_reporting_tsi`] — the TSI workload with per-increment X-RDMA
//!   results: a window of increments in flight, every completion verified;
//! * [`run_pipelined_chases`] — DAPC with many independent chases in
//!   flight, each hopping server-side and reporting through its own result
//!   slot;
//! * [`multi_client_get_burst`] — the aggregate GET message-rate stream.
//!
//! Every driver runs on any set of clients: each client in the slice drives
//! its own stream, all streams multiplexed through the one window loop
//! (`drive`) and its one merged completion set.  The clients' request-id
//! and slot spaces collide numerically on every operation, which is exactly
//! what the per-client completion routing exists for.  All drivers are
//! generic over [`Transport`], so the same pipelined code runs on every
//! backend.

use crate::kernels::{chaser_payload, reporting_tsi_payload};
use crate::pointer_table::PointerTable;
use std::collections::HashMap;
use tc_core::cluster::{ClientId, Cluster, CompletionSet, CompletionToken, Ready, Transport};
use tc_core::{CoreError, IfuncMessage, Result};

/// Callback that materialises an [`IfuncMessage`] for one operation's
/// payload on the client that sends it (typically
/// `|c, client, payload| c.on(client)?.bitcode_message(handle, payload)`).
pub type MessageMaker<'a, T> =
    &'a mut dyn FnMut(&mut Cluster<T>, ClientId, Vec<u8>) -> Result<IfuncMessage>;

/// How a pipelined driver bounds its outstanding operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Maximum operations in flight at once per client (1 = fully
    /// sequential).
    pub inflight: usize,
}

impl Window {
    /// A window of `inflight` outstanding operations (at least 1).
    pub fn new(inflight: usize) -> Self {
        Window {
            inflight: inflight.max(1),
        }
    }
}

/// The window loop every driver runs: client `clients[c]` issues `ops[c]`
/// operations, `post(cluster, set, c, op)` posting operation `op` of stream
/// `c` and registering its completion in `set`, `complete(c, op, &ready)`
/// consuming it (false: the stream did not ask for that readiness).
///
/// Each refill tops the clients up in index order to `window.inflight`
/// operations in flight each and flushes every client that posted once;
/// each completion is one `wait_any`.
fn drive<T: Transport>(
    cluster: &mut Cluster<T>,
    clients: &[ClientId],
    ops: &[usize],
    window: Window,
    mut post: impl FnMut(&mut Cluster<T>, &mut CompletionSet, usize, usize) -> Result<CompletionToken>,
    mut complete: impl FnMut(usize, usize, &Ready) -> bool,
) -> Result<()> {
    if ops.len() != clients.len() {
        return Err(CoreError::Sim(format!(
            "{} operation streams for {} clients",
            ops.len(),
            clients.len()
        )));
    }
    let mut set = CompletionSet::new();
    let mut owner: HashMap<CompletionToken, (usize, usize)> = HashMap::new();
    let mut next = vec![0usize; clients.len()];
    let mut inflight = vec![0usize; clients.len()];
    for _ in 0..ops.iter().sum::<usize>() {
        for (c, &client) in clients.iter().enumerate() {
            let first = next[c];
            while next[c] < ops[c] && inflight[c] < window.inflight {
                owner.insert(post(cluster, &mut set, c, next[c])?, (c, next[c]));
                next[c] += 1;
                inflight[c] += 1;
            }
            if next[c] > first {
                cluster.on(client)?.flush()?;
            }
        }
        let (token, ready) = cluster.wait_any(&mut set)?;
        let Some((c, op)) = owner.remove(&token) else {
            return Err(CoreError::Transport(format!(
                "wait_any resolved {token:?}, which no stream registered"
            )));
        };
        inflight[c] -= 1;
        if !complete(c, op, &ready) {
            return Err(CoreError::Transport(format!(
                "{} op {op} resolved as {ready:?}",
                clients[c]
            )));
        }
    }
    Ok(())
}

/// GET every entry of `table` from each of `clients` through a window of
/// `window.inflight` outstanding GETs per client, returning each client's
/// image in global index order — byte-identical to a sequential gather
/// regardless of window size, client, backend or fault plan.  GETs address
/// the owning *server rank* (`cluster.server_rank(owner_index)` — never
/// `owner + 1`, which targets another client on a multi-client cluster).
pub fn gather_entries<T: Transport>(
    cluster: &mut Cluster<T>,
    clients: &[ClientId],
    table: &PointerTable,
    window: Window,
) -> Result<Vec<Vec<u8>>> {
    let total = table.total_entries();
    let mut images = vec![vec![0u8; total * 8]; clients.len()];
    drive(
        cluster,
        clients,
        &vec![total; clients.len()],
        window,
        |cluster, set, c, index| {
            let g = index as u64;
            let rank = cluster.server_rank(table.owner_index(g));
            let handle = cluster
                .on(clients[c])?
                .post_get(rank, table.entry_addr(g), 8);
            Ok(set.add_get(handle))
        },
        |c, index, ready| match ready {
            Ready::Get(data) if data.len() == 8 => {
                images[c][index * 8..index * 8 + 8].copy_from_slice(data);
                true
            }
            _ => false,
        },
    )?;
    Ok(images)
}

/// Outcome of a pipelined reporting-TSI run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportingTsiOutcome {
    /// Final counter value per server rank (index 0 = the first server).
    pub counters: Vec<u64>,
    /// Per client, every per-increment result value returned through its
    /// mailbox, in send order.
    pub reported: Vec<Vec<u64>>,
}

/// Drive `total` TSI increments (delta = 1 + op index mod 7) from each of
/// `clients`, round-robin across all servers with `window.inflight`
/// operations outstanding per client, each increment confirmed through its
/// own X-RDMA result slot and burning `work` spin iterations of target-side
/// compute.  The payload carries the sending client's rank, so every result
/// returns to that client's mailbox.
///
/// `make_message` must build from [`crate::kernels::tsi_reporting_module`];
/// the payload is rewritten per operation.  Per-link in-order delivery makes
/// a single client's reported prefix sums deterministic, so its outcome is
/// identical across window sizes and backends.
pub fn run_reporting_tsi<T: Transport>(
    cluster: &mut Cluster<T>,
    clients: &[ClientId],
    make_message: MessageMaker<'_, T>,
    total: usize,
    window: Window,
    work: u64,
) -> Result<ReportingTsiOutcome> {
    let servers = cluster.server_count();
    let mut reported = vec![vec![0u64; total]; clients.len()];
    drive(
        cluster,
        clients,
        &vec![total; clients.len()],
        window,
        |cluster, set, c, op| {
            let client = clients[c];
            let slot = cluster.on(client)?.result_slot();
            let delta = 1 + (op as u64 % 7);
            let payload =
                reporting_tsi_payload::encode(client.rank() as u64, slot.slot(), delta, work);
            let msg = make_message(cluster, client, payload)?;
            let rank = cluster.server_rank(op % servers);
            cluster.on(client)?.send_ifunc(&msg, rank)?;
            Ok(set.add_result(slot))
        },
        |c, op, ready| match *ready {
            Ready::Result(value) => {
                reported[c][op] = value;
                true
            }
            _ => false,
        },
    )?;
    let mut counters = Vec::with_capacity(servers);
    for server in 0..servers {
        counters.push(cluster.read_u64(
            cluster.server_rank(server),
            tc_core::layout::TARGET_REGION_BASE,
        )?);
    }
    Ok(ReportingTsiOutcome { counters, reported })
}

/// Run, for each of `clients`, the independent DAPC chases of `depth` steps
/// listed in its entry of `starts`, with up to `window.inflight` chases in
/// flight per client, returning each client's final values in its `starts`
/// order.  Each chase ships the chaser ifunc to the first owner and then
/// hops server-side; its result arrives through a dedicated mailbox slot of
/// the client that sent it.  The payload carries that client's rank and the
/// cluster's first-server rank (the chaser computes hop owners as
/// `idx / shard + base`, so forwarding stays correct whatever the
/// client-rank layout is).
pub fn run_pipelined_chases<T: Transport>(
    cluster: &mut Cluster<T>,
    clients: &[ClientId],
    make_message: MessageMaker<'_, T>,
    table: &PointerTable,
    starts: &[Vec<u64>],
    depth: u64,
    window: Window,
) -> Result<Vec<Vec<u64>>> {
    let base = cluster.first_server_rank() as u64;
    let ops: Vec<usize> = starts.iter().map(Vec::len).collect();
    let mut values: Vec<Vec<u64>> = ops.iter().map(|&n| vec![0u64; n]).collect();
    drive(
        cluster,
        clients,
        &ops,
        window,
        |cluster, set, c, chase| {
            let (client, start) = (clients[c], starts[c][chase]);
            let slot = cluster.on(client)?.result_slot();
            let payload = chaser_payload::encode(
                client.rank() as u64,
                slot.slot(),
                start,
                depth,
                base,
                table.shard_size as u64,
            );
            let msg = make_message(cluster, client, payload)?;
            let rank = cluster.server_rank(table.owner_index(start));
            cluster.on(client)?.send_ifunc(&msg, rank)?;
            Ok(set.add_result(slot))
        },
        |c, chase, ready| match *ready {
            Ready::Result(value) => {
                values[c][chase] = value;
                true
            }
            _ => false,
        },
    )?;
    Ok(values)
}

/// Aggregate GET message-rate driver: each of `clients` issues
/// `ops_per_client` windowed GETs of `len` bytes round-robin over the
/// servers, all streams in flight concurrently.  Returns the total number of
/// completed operations (`ops_per_client × clients.len()`).
pub fn multi_client_get_burst<T: Transport>(
    cluster: &mut Cluster<T>,
    clients: &[ClientId],
    ops_per_client: usize,
    addr: u64,
    len: u64,
    window: Window,
) -> Result<usize> {
    let servers = cluster.server_count();
    drive(
        cluster,
        clients,
        &vec![ops_per_client; clients.len()],
        window,
        |cluster, set, c, op| {
            let rank = cluster.server_rank((op + c) % servers);
            Ok(set.add_get(cluster.on(clients[c])?.post_get(rank, addr, len)))
        },
        |_, _, ready| matches!(ready, Ready::Get(data) if data.len() == len as usize),
    )?;
    Ok(ops_per_client * clients.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{chaser_module, tsi_reporting_module};
    use crate::tsi::platform_toolchain;
    use tc_core::{build_ifunc_library, ClusterBuilder};
    use tc_simnet::Platform;

    const PRIMARY: &[ClientId] = &[ClientId::PRIMARY];

    fn message_maker<T: Transport>(
        library: tc_core::IfuncLibrary,
        cluster: &mut Cluster<T>,
    ) -> impl FnMut(&mut Cluster<T>, ClientId, Vec<u8>) -> Result<IfuncMessage> {
        let handle = cluster.register_ifunc(library);
        move |c: &mut Cluster<T>, _: ClientId, payload: Vec<u8>| c.bitcode_message(handle, payload)
    }

    #[test]
    fn gather_is_window_invariant_on_sim() {
        let table = PointerTable::generate(4, 64, 3);
        let expected: Vec<u8> = (0..4).flat_map(|s| table.shard_image(s)).collect();
        for inflight in [1usize, 16, 256] {
            let mut cluster = ClusterBuilder::new()
                .platform(Platform::thor_xeon())
                .servers(4)
                .build_sim();
            table.install_cluster(&mut cluster).unwrap();
            let window = Window::new(inflight);
            let image = gather_entries(&mut cluster, PRIMARY, &table, window).unwrap();
            assert_eq!(image[0], expected, "inflight {inflight}");
        }
    }

    #[test]
    fn reporting_tsi_counts_and_prefix_sums_agree() {
        let platform = Platform::thor_xeon();
        let mut cluster = ClusterBuilder::new()
            .platform(platform)
            .servers(2)
            .build_sim();
        let lib = build_ifunc_library(
            &tsi_reporting_module("rtsi"),
            &platform_toolchain(&platform),
        )
        .unwrap();
        let mut mk = message_maker(lib, &mut cluster);
        let out = run_reporting_tsi(&mut cluster, PRIMARY, &mut mk, 40, Window::new(8), 4).unwrap();
        // Each server's counter equals the sum of the deltas it received.
        let mut expect = vec![0u64; 2];
        for op in 0..40usize {
            expect[op % 2] += 1 + (op as u64 % 7);
        }
        assert_eq!(out.counters, expect);
        // Per-link in-order delivery: the last report per server equals the
        // final counter.
        assert_eq!(out.reported[0][38], expect[0]);
        assert_eq!(out.reported[0][39], expect[1]);
    }

    #[test]
    fn pipelined_chases_match_ground_truth() {
        let platform = Platform::thor_xeon();
        let table = PointerTable::generate(3, 32, 9);
        let mut cluster = ClusterBuilder::new()
            .platform(platform)
            .servers(3)
            .build_sim();
        table.install_cluster(&mut cluster).unwrap();
        let lib = build_ifunc_library(
            &chaser_module("pipe_chaser"),
            &platform_toolchain(&platform),
        )
        .unwrap();
        let mut mk = message_maker(lib, &mut cluster);
        let starts: Vec<u64> = (0..24).map(|i| (i * 5) % 96).collect();
        let values = run_pipelined_chases(
            &mut cluster,
            PRIMARY,
            &mut mk,
            &table,
            std::slice::from_ref(&starts),
            16,
            Window::new(12),
        )
        .unwrap();
        for (i, &start) in starts.iter().enumerate() {
            assert_eq!(values[0][i], table.chase(start, 16), "chase from {start}");
        }
    }

    /// A token the loop did not register, a `Ready` the stream did not ask
    /// for and a clients / streams mismatch are typed errors, not panics.
    #[test]
    fn unregistered_tokens_and_unasked_readiness_are_typed_errors() {
        let mut cluster = ClusterBuilder::new()
            .platform(Platform::thor_xeon())
            .servers(1)
            .build_sim();
        let addr = tc_core::layout::DATA_REGION_BASE;
        // `stray` also registers a GET posted just before the stream's own,
        // whose token the loop never hears of; it completes first.
        let mut run = |stray: bool| {
            drive(
                &mut cluster,
                PRIMARY,
                &[1],
                Window::new(1),
                |cluster, set, _, _| {
                    let rank = cluster.server_rank(0);
                    if stray {
                        set.add_get(cluster.post_get(rank, addr, 8));
                    }
                    let handle = cluster.post_get(rank, addr, 8);
                    Ok(set.add_get(handle))
                },
                |_, _, ready| matches!(ready, Ready::Result(_)),
            )
            .unwrap_err()
            .to_string()
        };
        assert!(run(true).contains("which no stream registered"));
        assert!(run(false).contains("client 0 op 0 resolved as Get"));
        let table = PointerTable::generate(1, 4, 1);
        let mut mk = |_: &mut Cluster<_>, _: ClientId, _: Vec<u8>| -> Result<IfuncMessage> {
            unreachable!("no stream runs")
        };
        let err = run_pipelined_chases(
            &mut cluster,
            PRIMARY,
            &mut mk,
            &table,
            &[],
            1,
            Window::new(1),
        );
        assert!(matches!(err, Err(CoreError::Sim(m)) if m.contains("0 operation streams for 1")));
    }
}
