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
//!   slot.
//!
//! All drivers are generic over [`Transport`], so the same pipelined code
//! runs on the simulated and the threaded backend.

use crate::kernels::{chaser_payload, reporting_tsi_payload};
use crate::pointer_table::PointerTable;
use std::collections::HashMap;
use tc_core::cluster::{ClientId, Cluster, CompletionSet, CompletionToken, Ready, Transport};
use tc_core::{CoreError, IfuncMessage, Result};

/// Callback that materialises an [`IfuncMessage`] for one operation's
/// payload (typically `|c, payload| c.bitcode_message(handle, payload)`).
pub type MessageMaker<'a, T> = &'a mut dyn FnMut(&mut Cluster<T>, Vec<u8>) -> Result<IfuncMessage>;

/// How a pipelined driver bounds its outstanding operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Maximum operations in flight at once (1 = fully sequential).
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

/// GET every entry of `table` through a window of `window.inflight`
/// outstanding GETs, returning the gathered image in global index order —
/// byte-identical to a sequential gather regardless of window size, backend
/// or fault plan.  Drives the primary client; see [`gather_entries_from`].
pub fn gather_entries<T: Transport>(
    cluster: &mut Cluster<T>,
    table: &PointerTable,
    window: Window,
) -> Result<Vec<u8>> {
    gather_entries_from(cluster, ClientId::PRIMARY, table, window)
}

/// [`gather_entries`] issued from a specific client: GETs address the
/// owning *server rank* (`cluster.server_rank(owner_index)` — never
/// `owner + 1`, which silently targets another client on a multi-client
/// cluster) and the completion stream is `client`'s own.
pub fn gather_entries_from<T: Transport>(
    cluster: &mut Cluster<T>,
    client: ClientId,
    table: &PointerTable,
    window: Window,
) -> Result<Vec<u8>> {
    let total = table.total_entries();
    let mut image = vec![0u8; total * 8];
    let mut set = CompletionSet::new();
    let mut owners: HashMap<CompletionToken, usize> = HashMap::new();
    let mut next = 0usize;
    let mut done = 0usize;
    while done < total {
        // Post the whole window refill, then flush the burst once.
        let mut posted = false;
        while next < total && set.len() < window.inflight {
            let g = next as u64;
            let rank = cluster.server_rank(table.owner_index(g));
            let handle = cluster.post_get_from(client, rank, table.entry_addr(g), 8)?;
            owners.insert(set.add_get(handle), next);
            next += 1;
            posted = true;
        }
        if posted {
            cluster.flush_from(client)?;
        }
        let (token, ready) = cluster.wait_any(&mut set)?;
        let index = owners.remove(&token).expect("token was registered");
        match ready {
            Ready::Get(data) if data.len() == 8 => {
                image[index * 8..index * 8 + 8].copy_from_slice(&data);
                done += 1;
            }
            Ready::Get(data) => {
                return Err(CoreError::ShortRead {
                    rank: cluster.server_rank(table.owner_index(index as u64)),
                    addr: table.entry_addr(index as u64),
                    wanted: 8,
                    got: data.len(),
                })
            }
            other => {
                return Err(CoreError::Transport(format!(
                    "gather GET for entry {index} resolved as {other:?}"
                )))
            }
        }
    }
    Ok(image)
}

/// Outcome of a pipelined reporting-TSI run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportingTsiOutcome {
    /// Final counter value per server rank (index 0 = rank 1).
    pub counters: Vec<u64>,
    /// Every per-increment result value returned through the mailbox, in
    /// send order.
    pub reported: Vec<u64>,
}

/// Drive `total` TSI increments (delta = 1 + op index mod 7) round-robin
/// across all servers with `window.inflight` operations outstanding, each
/// increment confirmed through its own X-RDMA result slot and burning
/// `work` spin iterations of target-side compute.
///
/// `message` must be built from [`crate::kernels::tsi_reporting_module`];
/// the payload is rewritten per operation.  Per-link in-order delivery makes
/// every reported prefix sum deterministic, so the outcome is identical
/// across window sizes and backends.
pub fn run_reporting_tsi<T: Transport>(
    cluster: &mut Cluster<T>,
    make_message: MessageMaker<'_, T>,
    total: usize,
    window: Window,
    work: u64,
) -> Result<ReportingTsiOutcome> {
    run_reporting_tsi_from(
        cluster,
        ClientId::PRIMARY,
        make_message,
        total,
        window,
        work,
    )
}

/// [`run_reporting_tsi`] issued from a specific client: the kernel returns
/// each result to `client`'s rank and mailbox (the payload encodes the
/// client's fabric rank — a hardcoded 0 would deliver every result to the
/// primary client), and destinations are true server ranks.
pub fn run_reporting_tsi_from<T: Transport>(
    cluster: &mut Cluster<T>,
    client: ClientId,
    make_message: MessageMaker<'_, T>,
    total: usize,
    window: Window,
    work: u64,
) -> Result<ReportingTsiOutcome> {
    let servers = cluster.server_count();
    let mut set = CompletionSet::new();
    let mut op_of: HashMap<CompletionToken, usize> = HashMap::new();
    let mut reported = vec![0u64; total];
    let mut next = 0usize;
    let mut done = 0usize;
    while done < total {
        while next < total && set.len() < window.inflight {
            let slot = cluster.result_slot_on(client)?;
            let dst = cluster.server_rank(next % servers);
            let delta = 1 + (next as u64 % 7);
            let payload =
                reporting_tsi_payload::encode(client.rank() as u64, slot.slot(), delta, work);
            let msg = make_message(cluster, payload)?;
            cluster.send_ifunc_from(client, &msg, dst)?;
            op_of.insert(set.add_result(slot), next);
            next += 1;
        }
        let (token, ready) = cluster.wait_any(&mut set)?;
        let op = op_of.remove(&token).expect("token was registered");
        match ready {
            Ready::Result(value) => {
                reported[op] = value;
                done += 1;
            }
            other => {
                return Err(CoreError::Transport(format!(
                    "reporting TSI op {op} resolved as {other:?}"
                )))
            }
        }
    }
    let mut counters = Vec::with_capacity(servers);
    for server in 0..servers {
        counters.push(cluster.read_u64(
            cluster.server_rank(server),
            tc_core::layout::TARGET_REGION_BASE,
        )?);
    }
    Ok(ReportingTsiOutcome { counters, reported })
}

/// Run `starts.len()` independent DAPC chases of `depth` steps with up to
/// `window.inflight` chases in flight at once, returning the final value of
/// each chase in `starts` order.  Each chase ships the chaser ifunc to the
/// first owner and then hops server-side; its result arrives through a
/// dedicated mailbox slot.
pub fn run_pipelined_chases<T: Transport>(
    cluster: &mut Cluster<T>,
    make_message: MessageMaker<'_, T>,
    table: &PointerTable,
    starts: &[u64],
    depth: u64,
    window: Window,
) -> Result<Vec<u64>> {
    run_pipelined_chases_from(
        cluster,
        ClientId::PRIMARY,
        make_message,
        table,
        starts,
        depth,
        window,
    )
}

/// [`run_pipelined_chases`] issued from a specific client: the payload
/// carries `client`'s rank (results come back to *its* mailbox) and the
/// cluster's first-server rank (the chaser computes hop owners as
/// `idx / shard + base`, so server-side forwarding stays correct whatever
/// the client-rank layout is).
pub fn run_pipelined_chases_from<T: Transport>(
    cluster: &mut Cluster<T>,
    client: ClientId,
    make_message: MessageMaker<'_, T>,
    table: &PointerTable,
    starts: &[u64],
    depth: u64,
    window: Window,
) -> Result<Vec<u64>> {
    let base = cluster.first_server_rank() as u64;
    let mut set = CompletionSet::new();
    let mut chase_of: HashMap<CompletionToken, usize> = HashMap::new();
    let mut values = vec![0u64; starts.len()];
    let mut next = 0usize;
    let mut done = 0usize;
    while done < starts.len() {
        while next < starts.len() && set.len() < window.inflight {
            let start = starts[next];
            let slot = cluster.result_slot_on(client)?;
            let payload = chaser_payload::encode(
                client.rank() as u64,
                slot.slot(),
                start,
                depth,
                base,
                table.shard_size as u64,
            );
            let msg = make_message(cluster, payload)?;
            cluster.send_ifunc_from(client, &msg, cluster.server_rank(table.owner_index(start)))?;
            chase_of.insert(set.add_result(slot), next);
            next += 1;
        }
        let (token, ready) = cluster.wait_any(&mut set)?;
        let chase = chase_of.remove(&token).expect("token was registered");
        match ready {
            Ready::Result(value) => {
                values[chase] = value;
                done += 1;
            }
            other => {
                return Err(CoreError::Transport(format!(
                    "chase {chase} resolved as {other:?}"
                )))
            }
        }
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{chaser_module, tsi_reporting_module};
    use crate::tsi::platform_toolchain;
    use tc_core::{build_ifunc_library, ClusterBuilder};
    use tc_simnet::Platform;

    fn message_maker<T: Transport>(
        library: tc_core::IfuncLibrary,
        cluster: &mut Cluster<T>,
    ) -> impl FnMut(&mut Cluster<T>, Vec<u8>) -> Result<IfuncMessage> {
        let handle = cluster.register_ifunc(library);
        move |c: &mut Cluster<T>, payload: Vec<u8>| c.bitcode_message(handle, payload)
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
            let image = gather_entries(&mut cluster, &table, Window::new(inflight)).unwrap();
            assert_eq!(image, expected, "inflight {inflight}");
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
        let out = run_reporting_tsi(&mut cluster, &mut mk, 40, Window::new(8), 4).unwrap();
        // Each server's counter equals the sum of the deltas it received.
        let mut expect = vec![0u64; 2];
        for op in 0..40usize {
            expect[op % 2] += 1 + (op as u64 % 7);
        }
        assert_eq!(out.counters, expect);
        // Per-link in-order delivery: the last report per server equals the
        // final counter.
        assert_eq!(out.reported[38], expect[0]);
        assert_eq!(out.reported[39], expect[1]);
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
        let values =
            run_pipelined_chases(&mut cluster, &mut mk, &table, &starts, 16, Window::new(12))
                .unwrap();
        for (i, &start) in starts.iter().enumerate() {
            assert_eq!(values[i], table.chase(start, 16), "chase from {start}");
        }
    }
}
