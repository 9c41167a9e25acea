//! # tc-workloads — the paper's evaluation workloads
//!
//! Everything Section IV of the paper describes, runnable on the simulated
//! testbed:
//!
//! * [`kernels`] — the TSI and DAPC-chaser ifuncs, in builder-API ("C") and
//!   Chainlang ("Julia") form;
//! * [`pointer_table`] — sharded single-cycle random pointer tables;
//! * [`tsi`] — the Target-Side Increment microbenchmark: overhead breakdown,
//!   latency and message rate (Tables I–VI);
//! * [`dapc`] — Distributed Adaptive Pointer Chasing and the Get-Based
//!   baseline, with depth sweeps and server-count scaling (Figures 5–12);
//! * [`pipeline`] — the same workloads as pipelined drivers over the async
//!   completion plane (`CompletionSet` / `wait_any`, hundreds of operations
//!   in flight), generic over both backends;
//! * [`multi_client`] — N concurrent driver runtimes each injecting an
//!   independent stream (per-client completion routing, client-scaling
//!   message-rate driver);
//! * [`report`] — text/CSV rendering of tables and figures.
//!
//! The `tc-bench` crate wraps these in the `repro_tables` / `repro_figures`
//! binaries that regenerate every table and figure of the paper, and in
//! `chaos_sweep`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos_sweep;
pub mod dapc;
pub mod kernels;
pub mod multi_client;
pub mod pipeline;
pub mod pointer_table;
pub mod report;
pub mod tsi;

pub use chaos_sweep::{
    chaos_sweep, run_chaos_point, sweep_plan, ChaosSweepConfig, ChaosSweepRow, NodeFaultStats,
};
pub use dapc::{
    dapc_am_handler, depth_sweep, scaling_sweep, ChaseConfig, ChaseMode, ChaseResult,
    DapcExperiment, SweepPoint,
};
pub use kernels::{
    chaser_module, chaser_module_chainlang, chaser_payload, reporting_tsi_payload, tsi_module,
    tsi_module_chainlang, tsi_reporting_module, CHASER_CHAINLANG_SRC, TSI_CHAINLANG_SRC,
};
pub use multi_client::{
    chase_starts, multi_client_get_burst, run_multi_client_streams, MultiClientReport,
};
pub use pipeline::{
    gather_entries, gather_entries_from, run_pipelined_chases, run_pipelined_chases_from,
    run_reporting_tsi, run_reporting_tsi_from, ReportingTsiOutcome, Window,
};
pub use pointer_table::PointerTable;
pub use report::{
    render_chaos_nodes, render_chaos_table, render_figure, render_figure_csv, render_link_health,
    render_overhead_table, render_rate_table,
};
pub use tsi::{platform_toolchain, run_tsi, tsi_am_handler, TsiBreakdown, TsiRate, TsiResults};

/// The named Active-Message catalog a socket-backend server binary compiles
/// in.  AM handlers are native closures and cannot cross a process boundary,
/// so the driver's `deploy_am` ships only the *name*; a server process
/// deploys the same-named entry from this catalog.  Names cover every
/// handler the workloads and the repo's test suite deploy.
pub fn am_catalog() -> Vec<(String, tc_core::NativeAmHandler)> {
    vec![
        ("tsi_am".to_string(), tsi_am_handler()),
        ("parity_tsi_am".to_string(), tsi_am_handler()),
        ("chaos_tsi_am".to_string(), tsi_am_handler()),
        ("dapc_chase".to_string(), dapc_am_handler()),
    ]
}
