//! # tc-bench — deterministic paper-reproduction binaries
//!
//! The figure and table specifications below, and three binaries over them
//! and `tc-workloads`:
//!
//! ```text
//! cargo run -p tc-bench --release --bin repro_tables  -- all
//! cargo run -p tc-bench --release --bin repro_figures -- all
//! cargo run -p tc-bench --release --bin repro_figures -- fig5 --fast
//! cargo run -p tc-bench --release --bin chaos_sweep   -- --nodes
//! ```
//!
//! `repro_tables` and `repro_figures` regenerate every table and figure of
//! the paper in *virtual* time on the calibrated simulated testbed, byte for
//! byte; `chaos_sweep` runs the TSI workload under a seeded fault plan on
//! the simulated and threaded backends and exits 1 if delivery is not exact.
//! `EXPERIMENTS.md` at the repository root holds the paper-vs-reproduction
//! comparison they produce.
//!
//! No timing harness lives here: wall-clock measurement of the live
//! backends is `tc-benchmark/` (declared by `BENCHMARK.json`), a package of
//! its own.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use tc_simnet::Platform;
use tc_workloads::ChaseMode;

/// The depth axis used by the paper's depth-sweep figures (Figures 5–8).
pub const PAPER_DEPTHS: [u64; 7] = [1, 4, 16, 64, 256, 1024, 4096];

/// A figure specification: which platform, servers, modes and axis a figure
/// uses.  `repro_figures` iterates these.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure identifier, e.g. `"fig5"`.
    pub id: &'static str,
    /// Human-readable caption (matches the paper's).
    pub caption: &'static str,
    /// Platform the figure was measured on.
    pub platform: Platform,
    /// Server counts: one entry for depth sweeps, several for scaling plots.
    pub server_counts: Vec<usize>,
    /// Chase depths: several for depth sweeps, one (4096) for scaling plots.
    pub depths: Vec<u64>,
    /// Modes (series) shown in the figure.
    pub modes: Vec<ChaseMode>,
}

/// Specifications for Figures 5–12.
pub fn figure_specs() -> Vec<FigureSpec> {
    let depth_axis: Vec<u64> = PAPER_DEPTHS.to_vec();
    vec![
        FigureSpec {
            id: "fig5",
            caption: "Thor 32-Server; C/C++ (Xeon Client and BF2 Servers): DAPC depth sweep",
            platform: Platform::thor_bf2(),
            server_counts: vec![32],
            depths: depth_axis.clone(),
            modes: vec![
                ChaseMode::ActiveMessage,
                ChaseMode::Get,
                ChaseMode::CachedBitcode,
            ],
        },
        FigureSpec {
            id: "fig6",
            caption: "Ookami 64-Server; C/C++: DAPC depth sweep",
            platform: Platform::ookami(),
            server_counts: vec![64],
            depths: depth_axis.clone(),
            modes: vec![
                ChaseMode::ActiveMessage,
                ChaseMode::Get,
                ChaseMode::CachedBinary,
                ChaseMode::CachedBitcode,
            ],
        },
        FigureSpec {
            id: "fig7",
            caption: "Thor 16-Server; C/C++ (Xeon Client and Servers): DAPC depth sweep",
            platform: Platform::thor_xeon(),
            server_counts: vec![16],
            depths: depth_axis.clone(),
            modes: vec![
                ChaseMode::ActiveMessage,
                ChaseMode::Get,
                ChaseMode::CachedBitcode,
            ],
        },
        FigureSpec {
            id: "fig8",
            caption: "Thor 32-Server; Julia (Xeon Client and BF2 Servers): DAPC depth sweep",
            platform: Platform::thor_bf2(),
            server_counts: vec![32],
            depths: depth_axis,
            modes: vec![
                ChaseMode::ActiveMessage,
                ChaseMode::Get,
                ChaseMode::CachedBitcodeChainlang,
                ChaseMode::CachedBitcode,
            ],
        },
        FigureSpec {
            id: "fig9",
            caption: "Thor 4096-Chase-Depth; C/C++ (Xeon Client and BF2 Servers): scaling",
            platform: Platform::thor_bf2(),
            server_counts: vec![2, 4, 8, 16, 32],
            depths: vec![4096],
            modes: vec![
                ChaseMode::ActiveMessage,
                ChaseMode::Get,
                ChaseMode::CachedBitcode,
            ],
        },
        FigureSpec {
            id: "fig10",
            caption: "Ookami 4096-Chase-Depth; C/C++: scaling",
            platform: Platform::ookami(),
            server_counts: vec![2, 4, 8, 16, 32, 64],
            depths: vec![4096],
            modes: vec![
                ChaseMode::ActiveMessage,
                ChaseMode::Get,
                ChaseMode::CachedBinary,
                ChaseMode::CachedBitcode,
            ],
        },
        FigureSpec {
            id: "fig11",
            caption: "Thor 4096-Chase-Depth; C/C++ (Xeon Client and Servers): scaling",
            platform: Platform::thor_xeon(),
            server_counts: vec![2, 4, 8, 16],
            depths: vec![4096],
            modes: vec![
                ChaseMode::ActiveMessage,
                ChaseMode::Get,
                ChaseMode::CachedBitcode,
            ],
        },
        FigureSpec {
            id: "fig12",
            caption: "Thor 4096-Chase-Depth; Julia (Xeon Client and BF2 Servers): scaling",
            platform: Platform::thor_bf2(),
            server_counts: vec![2, 4, 8, 16, 32],
            depths: vec![4096],
            modes: vec![
                ChaseMode::ActiveMessage,
                ChaseMode::Get,
                ChaseMode::CachedBitcodeChainlang,
                ChaseMode::CachedBitcode,
            ],
        },
    ]
}

/// Table specifications (platform per TSI table pair).
pub fn table_platforms() -> Vec<(&'static str, &'static str, Platform)> {
    vec![
        ("table1", "Table I / IV — Ookami TSI", Platform::ookami()),
        (
            "table2",
            "Table II / V — Thor BF2 TSI",
            Platform::thor_bf2(),
        ),
        (
            "table3",
            "Table III / VI — Thor Xeon TSI",
            Platform::thor_xeon(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_specs_cover_figures_5_to_12() {
        let specs = figure_specs();
        assert_eq!(specs.len(), 8);
        let ids: Vec<_> = specs.iter().map(|s| s.id).collect();
        for i in 5..=12 {
            assert!(ids.contains(&format!("fig{i}").as_str()), "missing fig{i}");
        }
        // Depth sweeps use the paper's depth axis; scaling plots pin 4096.
        for s in &specs {
            if s.server_counts.len() == 1 {
                assert_eq!(s.depths, PAPER_DEPTHS.to_vec());
            } else {
                assert_eq!(s.depths, vec![4096]);
            }
        }
    }

    #[test]
    fn table_specs_cover_all_three_platforms() {
        let t = table_platforms();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].2.sweep_servers, 64);
    }
}
