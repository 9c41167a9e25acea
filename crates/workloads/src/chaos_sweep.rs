//! Chaos sweeps: the TSI workload under increasing fault pressure.
//!
//! One sweep point runs the TSI scenario on a chosen backend under a seeded
//! [`FaultPlan`] with a given drop rate (plus light duplication and
//! reordering, so the reliability layer's dedup and ordering machinery is
//! always exercised), then verifies exact delivery and collects the fault
//! statistics — injected faults, retransmissions, dedup drops, per-node
//! reliability counters — alongside the wall-clock timing.  `tc-bench`'s
//! `chaos_sweep` binary renders the rows with
//! [`crate::report::render_chaos_table`].

use crate::kernels::tsi_module;
use crate::tsi::platform_toolchain;
use std::time::Instant;
use tc_core::layout::TARGET_REGION_BASE;
use tc_core::{build_ifunc_library, Backend, ClusterBuilder, FaultPlan, RelMetrics, Transport};

/// Shape of one chaos sweep.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSweepConfig {
    /// Number of server nodes.
    pub servers: usize,
    /// TSI increments sent to each server.
    pub sends_per_server: u64,
    /// Payload delta of each increment.
    pub delta: u8,
    /// Fault-plan seed (fixed seeds keep sweeps reproducible).
    pub seed: u64,
}

impl Default for ChaosSweepConfig {
    fn default() -> Self {
        ChaosSweepConfig {
            servers: 4,
            sends_per_server: 25,
            delta: 3,
            seed: 7,
        }
    }
}

/// Per-node fault statistics of one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct NodeFaultStats {
    /// Cluster rank (0 = client).
    pub rank: usize,
    /// Reliability counters of the rank (zeros when unavailable).
    pub rel: RelMetrics,
    /// Ifunc executions observed on the rank (0 for the client).
    pub ifuncs_executed: u64,
}

/// One row of a chaos sweep: a `(backend, drop rate)` point.
#[derive(Debug, Clone)]
pub struct ChaosSweepRow {
    /// Backend name ("simnet", "threads").
    pub backend: String,
    /// Probabilistic drop rate of the plan (fraction, not percent).
    pub drop_rate: f64,
    /// True when every server counter matched the exact expectation.
    pub exact: bool,
    /// Fabric deliveries.
    pub messages_delivered: u64,
    /// Faults the chaos engine injected.
    pub faults_injected: u64,
    /// Messages re-sent by the reliability layer.
    pub retransmits: u64,
    /// The retransmits that left on a gap signal instead of a timeout.
    pub fast_retransmits: u64,
    /// Duplicate arrivals dropped by receiver-side dedup.
    pub dup_drops: u64,
    /// Wall-clock time of the run in milliseconds.
    pub elapsed_ms: f64,
    /// Per-node fault statistics (client first).
    pub per_node: Vec<NodeFaultStats>,
}

/// The plan a sweep point installs: the given drop rate plus light
/// duplication and reordering so dedup and ordering always have work.
pub fn sweep_plan(seed: u64, drop_rate: f64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .drop_rate(drop_rate)
        .duplicate_rate(drop_rate / 2.0)
        .reorder_rate(drop_rate)
}

/// Run one `(backend, drop rate)` sweep point.
pub fn run_chaos_point(backend: Backend, drop_rate: f64, cfg: &ChaosSweepConfig) -> ChaosSweepRow {
    let platform = tc_simnet::Platform::thor_bf2();
    let mut cluster = ClusterBuilder::new()
        .platform(platform)
        .servers(cfg.servers)
        .fault_plan(sweep_plan(cfg.seed, drop_rate))
        .build(backend);

    let start = Instant::now();
    let library = build_ifunc_library(&tsi_module(), &platform_toolchain(&platform))
        .expect("TSI library builds");
    let handle = cluster.register_ifunc(library);
    let msg = cluster
        .bitcode_message(handle, vec![cfg.delta])
        .expect("TSI message");
    for _ in 0..cfg.sends_per_server {
        for server in 1..=cfg.servers {
            cluster.send_ifunc(&msg, server).expect("send");
        }
    }
    cluster.run_until_idle(50_000_000).expect("drive to idle");

    let expected = u64::from(cfg.delta) * cfg.sends_per_server;
    let mut exact = true;
    let mut per_node = Vec::with_capacity(cfg.servers + 1);
    per_node.push(NodeFaultStats {
        rank: 0,
        rel: cluster.transport().node_reliability(0).unwrap_or_default(),
        ifuncs_executed: 0,
    });
    for rank in 1..=cfg.servers {
        let counter = cluster.read_u64(rank, TARGET_REGION_BASE).unwrap_or(0);
        exact &= counter == expected;
        let stats = cluster.stats(rank).expect("node stats");
        exact &= stats.ifuncs_executed == cfg.sends_per_server;
        per_node.push(NodeFaultStats {
            rank,
            rel: cluster
                .transport()
                .node_reliability(rank)
                .unwrap_or_default(),
            ifuncs_executed: stats.ifuncs_executed,
        });
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let metrics = cluster.metrics();
    let backend_name = cluster.backend_name().to_string();
    cluster.shutdown();

    ChaosSweepRow {
        backend: backend_name,
        drop_rate,
        exact,
        messages_delivered: metrics.messages_delivered,
        faults_injected: metrics.faults_injected,
        retransmits: metrics.retransmits,
        fast_retransmits: metrics.fast_retransmits,
        dup_drops: metrics.dup_drops,
        elapsed_ms,
        per_node,
    }
}

/// Run the full grid: every backend × every drop rate.
pub fn chaos_sweep(
    backends: &[Backend],
    drop_rates: &[f64],
    cfg: &ChaosSweepConfig,
) -> Vec<ChaosSweepRow> {
    let mut rows = Vec::new();
    for &backend in backends {
        for &rate in drop_rates {
            rows.push(run_chaos_point(backend, rate, cfg));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_sweep_point_is_exact_and_counts_faults() {
        let cfg = ChaosSweepConfig {
            servers: 2,
            sends_per_server: 20,
            delta: 2,
            seed: 3,
        };
        let row = run_chaos_point(Backend::Simnet, 0.15, &cfg);
        assert!(row.exact, "reliability must keep the sweep exact: {row:?}");
        assert!(row.faults_injected > 0);
        assert!(row.retransmits >= row.fast_retransmits && row.fast_retransmits > 0);
        assert_eq!(row.per_node.len(), 3);
        assert!(row.per_node[1..].iter().all(|n| n.ifuncs_executed == 20));
    }

    #[test]
    fn zero_drop_point_injects_nothing() {
        let cfg = ChaosSweepConfig {
            servers: 2,
            sends_per_server: 5,
            delta: 1,
            seed: 3,
        };
        let row = run_chaos_point(Backend::Simnet, 0.0, &cfg);
        assert!(row.exact);
        assert_eq!(row.faults_injected, 0);
        assert_eq!(row.retransmits, 0);
        assert_eq!(row.dup_drops, 0);
    }
}
