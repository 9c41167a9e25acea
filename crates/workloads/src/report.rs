//! Text rendering of the paper's tables and figures from measured results,
//! plus fault-statistics tables for chaos sweeps.

use crate::chaos_sweep::ChaosSweepRow;
use crate::dapc::{ChaseMode, SweepPoint};
use crate::tsi::TsiResults;

/// Render a TSI overhead-breakdown table (the format of Tables I–III).
pub fn render_overhead_table(title: &str, r: &TsiResults) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<16} {:>16} {:>22} {:>16}\n",
        "Stage", "Active Message", "Uncached Bitcode", "Cached Bitcode"
    ));
    out.push_str(&format!(
        "{:<16} {:>13.2} µs {:>19.2} µs {:>13.2} µs\n",
        "Lookup+Exec",
        r.active_message.lookup_exec_us,
        r.uncached_bitcode.lookup_exec_us,
        r.cached_bitcode.lookup_exec_us
    ));
    out.push_str(&format!(
        "{:<16} {:>16} {:>16} ms) {:>16}\n",
        "JIT",
        "N/A",
        format!("({:.2}", r.uncached_bitcode.jit_ms.unwrap_or(0.0)),
        "N/A"
    ));
    out.push_str(&format!(
        "{:<16} {:>13.2} µs {:>19.2} µs {:>13.2} µs\n",
        "Transmission",
        r.active_message.transmission_us,
        r.uncached_bitcode.transmission_us,
        r.cached_bitcode.transmission_us
    ));
    out.push_str(&format!(
        "{:<16} {:>13.2} µs {:>19.2} µs {:>13.2} µs\n",
        "Total", r.active_message.total_us, r.uncached_bitcode.total_us, r.cached_bitcode.total_us
    ));
    out.push_str(&format!(
        "message sizes: AM {} B, uncached {} B, cached {} B\n",
        r.active_message.message_bytes,
        r.uncached_bitcode.message_bytes,
        r.cached_bitcode.message_bytes
    ));
    out
}

/// Render a TSI latency / message-rate table (the format of Tables IV–VI).
pub fn render_rate_table(title: &str, r: &TsiResults) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<18} {:>12} {:>10} {:>18} {:>10}\n",
        "Method", "Latency", "Speedup", "Message Rate", "Speedup"
    ));
    let row = |name: &str, lat: f64, rate: f64| {
        format!(
            "{:<18} {:>9.2} µs {:>10} {:>14.0} msg/s {:>10}\n",
            name, lat, "", rate, ""
        )
    };
    out.push_str(&row(
        "Active Message",
        r.am_rate.latency_us,
        r.am_rate.message_rate,
    ));
    out.push_str(&format!(
        "{:<18} {:>9.2} µs {:>9.2}% {:>14.0} msg/s {:>9.2}%\n",
        "Cached Bitcode",
        r.cached_rate.latency_us,
        r.am_vs_cached_latency_pct(),
        r.cached_rate.message_rate,
        r.cached_vs_am_rate_pct()
    ));
    out.push_str(&row(
        "Uncached Bitcode",
        r.uncached_rate.latency_us,
        r.uncached_rate.message_rate,
    ));
    out.push_str(&format!(
        "{:<18} {:>9} {:>9.2}% {:>14} {:>9.2}%\n",
        "Cached vs Uncached",
        "",
        r.uncached_vs_cached_latency_pct(),
        "",
        r.cached_vs_uncached_rate_pct()
    ));
    out
}

/// Render a depth-sweep or scaling figure as an aligned text series table
/// (one row per x value, one column per mode, plus the Get−Bitcode %-diff).
pub fn render_figure(
    title: &str,
    x_label: &str,
    xs: &[u64],
    points: &[SweepPoint],
    modes: &[ChaseMode],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{:<16}", x_label));
    for mode in modes {
        out.push_str(&format!(" {:>26}", mode.label()));
    }
    out.push_str(&format!(" {:>22}\n", "Get - Bitcode % Diff"));
    for (x, point) in xs.iter().zip(points) {
        out.push_str(&format!("{:<16}", x));
        for mode in modes {
            match point.rate(*mode) {
                Some(rate) => out.push_str(&format!(" {:>19.1} ch/s", rate)),
                None => out.push_str(&format!(" {:>26}", "-")),
            }
        }
        match point.get_vs_bitcode_pct() {
            Some(pct) => out.push_str(&format!(" {:>20.1}%\n", pct)),
            None => out.push_str(&format!(" {:>22}\n", "-")),
        }
    }
    out
}

/// Render results as CSV (one line per x value) for plotting.
pub fn render_figure_csv(xs: &[u64], points: &[SweepPoint], modes: &[ChaseMode]) -> String {
    let mut out = String::new();
    out.push('x');
    for m in modes {
        out.push_str(&format!(",{}", m.label().replace(' ', "_")));
    }
    out.push_str(",get_vs_bitcode_pct\n");
    for (x, p) in xs.iter().zip(points) {
        out.push_str(&x.to_string());
        for m in modes {
            out.push_str(&format!(
                ",{}",
                p.rate(*m).map(|r| format!("{r:.2}")).unwrap_or_default()
            ));
        }
        out.push_str(&format!(
            ",{}\n",
            p.get_vs_bitcode_pct()
                .map(|v| format!("{v:.2}"))
                .unwrap_or_default()
        ));
    }
    out
}

/// Render a chaos sweep as an aligned table: one row per `(backend, drop
/// rate)` point, fault statistics alongside the timing.
pub fn render_chaos_table(title: &str, rows: &[ChaosSweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<10} {:>7} {:>11} {:>8} {:>12} {:>9} {:>10} {:>10} {:>8}\n",
        "Backend",
        "Drop",
        "Delivered",
        "Faults",
        "Retransmits",
        "FastRetx",
        "DupDrops",
        "Elapsed",
        "Result"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>6.1}% {:>11} {:>8} {:>12} {:>9} {:>10} {:>7.1}ms {:>8}\n",
            r.backend,
            r.drop_rate * 100.0,
            r.messages_delivered,
            r.faults_injected,
            r.retransmits,
            r.fast_retransmits,
            r.dup_drops,
            r.elapsed_ms,
            if r.exact { "exact" } else { "LOST" },
        ));
    }
    out
}

/// Render per-link reliability health rows ([`tc_core::Transport::
/// link_health`]) as an aligned table: one row per `(reporting rank, peer)`
/// link with the RTT-estimator state and outstanding-frame count.  Times
/// print in microseconds (the estimator works in nanoseconds); `srtt` shows
/// `-` before the link's first RTT sample.
pub fn render_link_health(title: &str, rows: &[(u32, tc_core::LinkHealth)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<6} {:>6} {:>12} {:>12} {:>12} {:>9} {:>8}\n",
        "Rank", "Peer", "SRTT", "RTTVAR", "RTO", "Unacked", "Silent"
    ));
    for (rank, h) in rows {
        let us = |v: u64| format!("{:.1}µs", v as f64 / 1_000.0);
        out.push_str(&format!(
            "{:<6} {:>6} {:>12} {:>12} {:>12} {:>9} {:>8}\n",
            rank,
            h.peer,
            if h.srtt == 0 {
                "-".to_string()
            } else {
                us(h.srtt)
            },
            if h.srtt == 0 {
                "-".to_string()
            } else {
                us(h.rttvar)
            },
            us(h.rto),
            h.unacked,
            h.silent_rounds,
        ));
    }
    out
}

/// Render the per-node fault statistics of one sweep point: drop-recovery
/// and dedup counters per rank next to its execution count.
pub fn render_chaos_nodes(row: &ChaosSweepRow) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "per-node fault statistics ({} @ {:.1}% drop)\n",
        row.backend,
        row.drop_rate * 100.0
    ));
    out.push_str(&format!(
        "{:<8} {:>12} {:>9} {:>10} {:>12} {:>10} {:>8}\n",
        "Rank", "Retransmits", "FastRetx", "DupDrops", "OutOfOrder", "AcksSent", "Ifuncs"
    ));
    for n in &row.per_node {
        let name = if n.rank == 0 {
            "client".to_string()
        } else {
            format!("srv {}", n.rank)
        };
        out.push_str(&format!(
            "{:<8} {:>12} {:>9} {:>10} {:>12} {:>10} {:>8}\n",
            name,
            n.rel.retransmits,
            n.rel.fast_retransmits,
            n.rel.dup_drops,
            n.rel.out_of_order,
            n.rel.acks_sent,
            n.ifuncs_executed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos_sweep::NodeFaultStats;
    use crate::dapc::ChaseResult;

    fn fake_point(depth: u64, get: f64, bitcode: f64) -> SweepPoint {
        SweepPoint {
            depth,
            results: vec![
                ChaseResult {
                    mode: ChaseMode::Get,
                    depth,
                    servers: 4,
                    chases_per_second: get,
                    chase_latency_us: 1.0e6 / get,
                },
                ChaseResult {
                    mode: ChaseMode::CachedBitcode,
                    depth,
                    servers: 4,
                    chases_per_second: bitcode,
                    chase_latency_us: 1.0e6 / bitcode,
                },
            ],
        }
    }

    #[test]
    fn figure_rendering_includes_all_series() {
        let points = vec![fake_point(1, 1000.0, 1300.0), fake_point(4, 250.0, 310.0)];
        let text = render_figure(
            "Fig test",
            "Pointer Chase Depth",
            &[1, 4],
            &points,
            &[ChaseMode::Get, ChaseMode::CachedBitcode],
        );
        assert!(text.contains("Fig test"));
        assert!(text.contains("Cached Bitcode"));
        assert!(text.contains("1300.0"));
        assert!(text.contains('%'));

        let csv = render_figure_csv(
            &[1, 4],
            &points,
            &[ChaseMode::Get, ChaseMode::CachedBitcode],
        );
        assert!(csv.starts_with("x,Get,Cached_Bitcode"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn pct_diff_matches_definition() {
        let p = fake_point(1, 1000.0, 1300.0);
        assert!((p.get_vs_bitcode_pct().unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn link_health_table_renders_estimator_state() {
        let rows = vec![
            (
                0u32,
                tc_core::LinkHealth {
                    peer: 2,
                    srtt: 1_500,
                    rttvar: 250,
                    rto: 2_500,
                    unacked: 3,
                    silent_rounds: 1,
                },
            ),
            (
                2u32,
                tc_core::LinkHealth {
                    peer: 0,
                    srtt: 0, // no sample yet
                    rttvar: 0,
                    rto: 100_000,
                    unacked: 0,
                    silent_rounds: 0,
                },
            ),
        ];
        let table = render_link_health("link health", &rows);
        assert!(table.contains("link health"));
        assert!(table.contains("SRTT"));
        assert!(table.contains("1.5µs"));
        assert!(table.contains("2.5µs"));
        assert!(table.contains("100.0µs"));
        assert!(table.contains('-'), "unsampled links print a dash");
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn chaos_tables_render_fault_statistics() {
        let row = ChaosSweepRow {
            backend: "simnet".into(),
            drop_rate: 0.05,
            exact: true,
            messages_delivered: 123,
            faults_injected: 17,
            retransmits: 9,
            fast_retransmits: 6,
            dup_drops: 4,
            elapsed_ms: 2.5,
            per_node: vec![
                NodeFaultStats {
                    rank: 0,
                    rel: tc_core::RelMetrics {
                        retransmits: 9,
                        fast_retransmits: 6,
                        dup_drops: 0,
                        out_of_order: 2,
                        acks_sent: 0,
                    },
                    ifuncs_executed: 0,
                },
                NodeFaultStats {
                    rank: 1,
                    rel: tc_core::RelMetrics {
                        retransmits: 0,
                        fast_retransmits: 0,
                        dup_drops: 4,
                        out_of_order: 1,
                        acks_sent: 40,
                    },
                    ifuncs_executed: 25,
                },
            ],
        };
        let table = render_chaos_table("chaos", std::slice::from_ref(&row));
        assert!(table.contains("simnet"));
        assert!(table.contains("5.0%"));
        assert!(table.contains("exact"));
        assert!(table.contains("17"));
        assert!(table.contains("FastRetx") && table.contains(" 6 "));
        let nodes = render_chaos_nodes(&row);
        assert!(nodes.contains("client"));
        assert!(nodes.contains("srv 1"));
        assert!(nodes.contains("25"));
        assert!(nodes.contains("40"));
        assert!(nodes.contains("FastRetx") && nodes.contains(" 6 "));
    }
}
