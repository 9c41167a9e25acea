//! Chaos sweep: the TSI workload under a seeded fault plan at increasing
//! drop rates, on both cluster backends, with fault statistics alongside
//! timings.  This regenerates the chaos table in `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p tc-bench --release --bin chaos_sweep
//! cargo run -p tc-bench --release --bin chaos_sweep -- --nodes
//! ```
//!
//! `--nodes` additionally prints the per-node reliability counters of every
//! sweep point.

use tc_core::Backend;
use tc_workloads::{chaos_sweep, render_chaos_nodes, render_chaos_table, ChaosSweepConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let show_nodes = args.iter().any(|a| a == "--nodes");

    let cfg = ChaosSweepConfig::default();
    let drops = [0.0, 0.01, 0.05];
    let backends = [Backend::Simnet, Backend::Threads];

    println!(
        "=== Chaos sweep: TSI x {} servers x {} sends/server, seed {} ===\n",
        cfg.servers, cfg.sends_per_server, cfg.seed
    );
    let rows = chaos_sweep(&backends, &drops, &cfg);
    println!(
        "{}",
        render_chaos_table(
            "drop rate sweep (plus drop/2 duplication, drop reordering)",
            &rows
        )
    );
    if show_nodes {
        for row in &rows {
            println!("{}", render_chaos_nodes(row));
        }
    }
    if rows.iter().any(|r| !r.exact) {
        eprintln!("FAILURE: at least one sweep point lost or duplicated a message");
        std::process::exit(1);
    }
    // A gap-signalled repair costs one frame per loss; only a timeout
    // re-sends a whole window.
    if rows.iter().any(|r| r.retransmits > 2 * r.faults_injected) {
        eprintln!("FAILURE: a sweep point retransmitted more than twice per injected fault");
        std::process::exit(1);
    }
}
