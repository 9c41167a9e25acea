//! Multi-client injection drivers: `C` driver-side runtimes pipelining
//! independent operation streams against the same servers.
//!
//! The paper's cluster serves requests from many independent initiators;
//! these drivers reproduce that shape on the unified cluster API.  Every
//! stream is keyed by its [`ClientId`]: GETs are posted *from* a client and
//! complete into that client's claim stream, pointer chases return through
//! that client's own result mailbox, and a single merged [`CompletionSet`]
//! multiplexes all streams through one `wait_any` loop — which is exactly
//! the situation the per-client completion routing exists for (the clients'
//! request-id and slot spaces collide numerically on every operation).
//!
//! Two drivers:
//!
//! * [`run_multi_client_streams`] — each client gathers the full pointer
//!   table by windowed GETs *and* runs an independent pointer-chase stream;
//!   returns every per-client artifact for byte-exact comparison across
//!   backends and against ground truth;
//! * [`multi_client_get_burst`] — the aggregate message-rate driver: all
//!   clients issue windowed GET streams concurrently, round-robin over the
//!   servers.

use crate::kernels::{chaser_module, chaser_payload};
use crate::pipeline::Window;
use crate::pointer_table::PointerTable;
use crate::tsi::platform_toolchain;
use std::collections::HashMap;
use tc_core::cluster::{ClientId, Cluster, CompletionSet, CompletionToken, Ready, Transport};
use tc_core::{build_ifunc_library, CoreError, IfuncHandle, Result};
use tc_simnet::SplitMix64;

/// Everything one multi-client run observed, per client — the comparable
/// artifact of the cross-backend parity suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiClientReport {
    /// Per-client gathered table image (byte-exact, global index order).
    pub gathered: Vec<Vec<u8>>,
    /// Per-client chase results, in each client's start order.
    pub chased: Vec<Vec<u64>>,
}

/// Deterministic chase starts for one client: every client draws from its
/// own seeded stream, so streams are distinct but reproducible.
pub fn chase_starts(table: &PointerTable, client: ClientId, chases: usize, seed: u64) -> Vec<u64> {
    let mut rng =
        SplitMix64::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client.0 as u64 + 1)));
    (0..chases)
        .map(|_| rng.below(table.total_entries() as u64))
        .collect()
}

/// Run `C = cluster.client_count()` independent streams: each client gathers
/// the entire `table` through a window of `window.inflight` outstanding GETs
/// and then runs `chases_per_client` pointer chases of `depth` steps, all
/// clients interleaved through one merged completion set.  `platform` must
/// be the platform the cluster was built on (the chaser kernel is compiled
/// with its toolchain).  Returns the per-client artifacts; on the simulated
/// backend the whole report is a pure function of
/// `(platform, table, chases_per_client, depth, window, seed)`.
pub fn run_multi_client_streams<T: Transport>(
    cluster: &mut Cluster<T>,
    platform: &tc_simnet::Platform,
    table: &PointerTable,
    chases_per_client: usize,
    depth: u64,
    window: Window,
    seed: u64,
) -> Result<MultiClientReport> {
    let clients = cluster.client_count();
    let gathered = gather_all_clients(cluster, table, window)?;
    let handles = register_chaser_everywhere(cluster, platform)?;
    let starts: Vec<Vec<u64>> = (0..clients)
        .map(|c| chase_starts(table, ClientId(c), chases_per_client, seed))
        .collect();
    let chased = chase_all_clients(cluster, table, &handles, &starts, depth, window)?;
    Ok(MultiClientReport { gathered, chased })
}

/// Phase 1: every client gathers the full table concurrently.
fn gather_all_clients<T: Transport>(
    cluster: &mut Cluster<T>,
    table: &PointerTable,
    window: Window,
) -> Result<Vec<Vec<u8>>> {
    let clients = cluster.client_count();
    let total = table.total_entries();
    let mut images = vec![vec![0u8; total * 8]; clients];
    let mut set = CompletionSet::new();
    let mut owner: HashMap<CompletionToken, (usize, usize)> = HashMap::new();
    let mut next = vec![0usize; clients];
    let mut inflight = vec![0usize; clients];
    let mut done = 0usize;
    while done < clients * total {
        for c in 0..clients {
            let mut posted = false;
            while next[c] < total && inflight[c] < window.inflight {
                let g = next[c] as u64;
                let rank = cluster.server_rank(table.owner_index(g));
                let handle = cluster.post_get_from(ClientId(c), rank, table.entry_addr(g), 8)?;
                owner.insert(set.add_get(handle), (c, next[c]));
                next[c] += 1;
                inflight[c] += 1;
                posted = true;
            }
            if posted {
                cluster.flush_from(ClientId(c))?;
            }
        }
        let (token, ready) = cluster.wait_any(&mut set)?;
        let (c, index) = owner.remove(&token).expect("token was registered");
        match ready {
            Ready::Get(data) if data.len() == 8 => {
                images[c][index * 8..index * 8 + 8].copy_from_slice(&data);
                inflight[c] -= 1;
                done += 1;
            }
            other => {
                return Err(CoreError::Transport(format!(
                    "client {c} gather GET for entry {index} resolved as {other:?}"
                )))
            }
        }
    }
    Ok(images)
}

/// Register the chaser kernel on every client (handles are per-runtime).
fn register_chaser_everywhere<T: Transport>(
    cluster: &mut Cluster<T>,
    platform: &tc_simnet::Platform,
) -> Result<Vec<IfuncHandle>> {
    let library = build_ifunc_library(&chaser_module("mc_chaser"), &platform_toolchain(platform))?;
    (0..cluster.client_count())
        .map(|c| cluster.register_ifunc_on(ClientId(c), library.clone()))
        .collect()
}

/// Phase 2: every client runs its chase stream concurrently.
fn chase_all_clients<T: Transport>(
    cluster: &mut Cluster<T>,
    table: &PointerTable,
    handles: &[IfuncHandle],
    starts: &[Vec<u64>],
    depth: u64,
    window: Window,
) -> Result<Vec<Vec<u64>>> {
    let clients = cluster.client_count();
    let base = cluster.first_server_rank() as u64;
    let total: usize = starts.iter().map(|s| s.len()).sum();
    let mut values: Vec<Vec<u64>> = starts.iter().map(|s| vec![0u64; s.len()]).collect();
    let mut set = CompletionSet::new();
    let mut owner: HashMap<CompletionToken, (usize, usize)> = HashMap::new();
    let mut next = vec![0usize; clients];
    let mut inflight = vec![0usize; clients];
    let mut done = 0usize;
    while done < total {
        for c in 0..clients {
            while next[c] < starts[c].len() && inflight[c] < window.inflight {
                let id = ClientId(c);
                let start = starts[c][next[c]];
                let slot = cluster.result_slot_on(id)?;
                let payload = chaser_payload::encode(
                    c as u64,
                    slot.slot(),
                    start,
                    depth,
                    base,
                    table.shard_size as u64,
                );
                let msg = cluster.bitcode_message_on(id, handles[c], payload)?;
                cluster.send_ifunc_from(id, &msg, cluster.server_rank(table.owner_index(start)))?;
                owner.insert(set.add_result(slot), (c, next[c]));
                next[c] += 1;
                inflight[c] += 1;
            }
        }
        let (token, ready) = cluster.wait_any(&mut set)?;
        let (c, chase) = owner.remove(&token).expect("token was registered");
        match ready {
            Ready::Result(value) => {
                values[c][chase] = value;
                inflight[c] -= 1;
                done += 1;
            }
            other => {
                return Err(CoreError::Transport(format!(
                    "client {c} chase {chase} resolved as {other:?}"
                )))
            }
        }
    }
    Ok(values)
}

/// Aggregate GET message-rate driver: every client issues `ops_per_client`
/// windowed GETs of `len` bytes round-robin over the servers, all streams in
/// flight concurrently through one merged completion set.  Returns the total
/// number of completed operations (`ops_per_client × client_count`).
pub fn multi_client_get_burst<T: Transport>(
    cluster: &mut Cluster<T>,
    ops_per_client: usize,
    addr: u64,
    len: u64,
    window: Window,
) -> Result<usize> {
    let clients = cluster.client_count();
    let servers = cluster.server_count();
    let mut set = CompletionSet::new();
    let mut next = vec![0usize; clients];
    let mut inflight = vec![0usize; clients];
    let mut owner: HashMap<CompletionToken, usize> = HashMap::new();
    let mut done = 0usize;
    let total = clients * ops_per_client;
    while done < total {
        for c in 0..clients {
            let mut posted = false;
            while next[c] < ops_per_client && inflight[c] < window.inflight {
                let rank = cluster.server_rank((next[c] + c) % servers);
                let handle = cluster.post_get_from(ClientId(c), rank, addr, len)?;
                owner.insert(set.add_get(handle), c);
                next[c] += 1;
                inflight[c] += 1;
                posted = true;
            }
            if posted {
                cluster.flush_from(ClientId(c))?;
            }
        }
        let (token, ready) = cluster.wait_any(&mut set)?;
        let c = owner.remove(&token).expect("token was registered");
        match ready {
            Ready::Get(data) if data.len() == len as usize => {
                inflight[c] -= 1;
                done += 1;
            }
            other => {
                return Err(CoreError::Transport(format!(
                    "client {c} burst GET resolved as {other:?}"
                )))
            }
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::ClusterBuilder;
    use tc_simnet::Platform;

    #[test]
    fn multi_client_streams_match_ground_truth_on_sim() {
        let table = PointerTable::generate(2, 32, 11);
        let expected: Vec<u8> = (0..2).flat_map(|s| table.shard_image(s)).collect();
        let mut cluster = ClusterBuilder::new()
            .platform(Platform::thor_xeon())
            .clients(2)
            .servers(2)
            .build_sim();
        table.install_cluster(&mut cluster).unwrap();
        let report = run_multi_client_streams(
            &mut cluster,
            &Platform::thor_xeon(),
            &table,
            6,
            8,
            Window::new(4),
            7,
        )
        .unwrap();
        assert_eq!(report.gathered.len(), 2);
        assert_eq!(report.chased.len(), 2);
        for c in 0..2 {
            assert_eq!(report.gathered[c], expected, "client {c} image");
            let starts = chase_starts(&table, ClientId(c), 6, 7);
            for (i, &start) in starts.iter().enumerate() {
                assert_eq!(
                    report.chased[c][i],
                    table.chase(start, 8),
                    "client {c} chase {i}"
                );
            }
        }
    }

    #[test]
    fn chase_starts_are_per_client_and_deterministic() {
        let table = PointerTable::generate(2, 64, 3);
        let a = chase_starts(&table, ClientId(0), 16, 42);
        let b = chase_starts(&table, ClientId(1), 16, 42);
        assert_ne!(a, b, "clients draw distinct streams");
        assert_eq!(a, chase_starts(&table, ClientId(0), 16, 42));
        assert!(a.iter().all(|&s| s < table.total_entries() as u64));
    }

    #[test]
    fn get_burst_completes_every_operation() {
        let mut cluster = ClusterBuilder::new()
            .platform(Platform::thor_xeon())
            .clients(2)
            .servers(2)
            .build_sim();
        let addr = tc_core::layout::DATA_REGION_BASE;
        for s in 0..2 {
            cluster
                .write_memory(cluster.server_rank(s), addr, &[0xAB; 64])
                .unwrap();
        }
        let done = multi_client_get_burst(&mut cluster, 20, addr, 64, Window::new(8)).unwrap();
        assert_eq!(done, 40);
    }
}
