//! Multi-client injection: `C` driver-side runtimes pipelining independent
//! operation streams against the same servers.
//!
//! The paper's cluster serves requests from many independent initiators;
//! [`run_multi_client_streams`] reproduces that shape on the unified cluster
//! API by running the [`crate::pipeline`] drivers with every client of the
//! cluster: each client gathers the full pointer table by windowed GETs
//! *and* runs an independent pointer-chase stream, and the report holds every
//! per-client artifact for byte-exact comparison across backends and against
//! ground truth.

use crate::kernels::chaser_module;
use crate::pipeline::{gather_entries, run_pipelined_chases, Window};
use crate::pointer_table::PointerTable;
use crate::tsi::platform_toolchain;
use tc_core::cluster::{ClientId, Cluster, Transport};
use tc_core::{build_ifunc_library, Result};
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

/// Run `C = cluster.client_count()` independent streams: every client
/// gathers the entire `table` through a window of `window.inflight`
/// outstanding GETs, then runs `chases_per_client` pointer chases of `depth`
/// steps, all clients interleaved through one merged completion set.
/// `platform` must be the platform the cluster was built on (the chaser
/// kernel is compiled with its toolchain and registered on every client —
/// handles are per-runtime).  On the simulated backend the whole report is a
/// pure function of `(platform, table, chases_per_client, depth, window,
/// seed)`.
pub fn run_multi_client_streams<T: Transport>(
    cluster: &mut Cluster<T>,
    platform: &tc_simnet::Platform,
    table: &PointerTable,
    chases_per_client: usize,
    depth: u64,
    window: Window,
    seed: u64,
) -> Result<MultiClientReport> {
    let clients: Vec<ClientId> = (0..cluster.client_count()).map(ClientId).collect();
    let gathered = gather_entries(cluster, &clients, table, window)?;
    let library = build_ifunc_library(&chaser_module("mc_chaser"), &platform_toolchain(platform))?;
    let handles = clients
        .iter()
        .map(|&c| Ok(cluster.on(c)?.register_ifunc(library.clone())))
        .collect::<Result<Vec<_>>>()?;
    let starts: Vec<Vec<u64>> = clients
        .iter()
        .map(|&c| chase_starts(table, c, chases_per_client, seed))
        .collect();
    let mut mk = |cluster: &mut Cluster<T>, client: ClientId, payload| {
        cluster
            .on(client)?
            .bitcode_message(handles[client.0], payload)
    };
    let chased = run_pipelined_chases(cluster, &clients, &mut mk, table, &starts, depth, window)?;
    Ok(MultiClientReport { gathered, chased })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::multi_client_get_burst;
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
        let clients = [ClientId(0), ClientId(1)];
        let done =
            multi_client_get_burst(&mut cluster, &clients, 20, addr, 64, Window::new(8)).unwrap();
        assert_eq!(done, 40);
    }
}
