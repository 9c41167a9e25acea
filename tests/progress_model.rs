//! One progress model on three backends: nothing moves on a client rank
//! unless the caller is inside a flush, a step, a wait or a control call.
//! The simulator and the socket driver were always like that; the threaded
//! backend is since its caller carries the client ranks.

use std::time::Duration;
use tc_core::layout::DATA_REGION_BASE;
use tc_core::{Backend, ClusterBuilder, CompletionSet, FaultPlan, Ready, RelConfig, Transport};

fn builder() -> ClusterBuilder {
    ClusterBuilder::new()
        .platform(tc_simnet::Platform::thor_xeon())
        .servers(2)
        .server_bin(env!("CARGO_BIN_EXE_tc-socket-server"))
}

#[test]
fn a_flushed_get_completes_in_the_first_wait_not_before() {
    for backend in [Backend::Simnet, Backend::Threads, Backend::Socket] {
        let mut cluster = builder().build(backend);
        cluster.write_u64(1, DATA_REGION_BASE, 0xFEED).unwrap();
        let handle = cluster.post_get(1, DATA_REGION_BASE, 8);
        cluster.flush().unwrap();
        // Long enough for the reply to be sitting in the driver's queue (or
        // socket buffer): with a background carrier it would be claimable.
        // Virtual time does not pass while a simulated caller sleeps.
        if backend != Backend::Simnet {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(cluster.try_claim(&handle).is_none(), "{backend}");
        assert_eq!(cluster.pending_completions(), 0, "{backend}");
        let data = cluster.wait(&handle).unwrap();
        assert_eq!(data.as_slice(), 0xFEEDu64.to_le_bytes(), "{backend}");
        assert_eq!(cluster.pending_completions(), 0, "{backend}");
        cluster.shutdown();
    }
}

/// The documented cost of a client that does not progress: the servers'
/// replies stay unacked past their RTO and are sent again; the client drops
/// the duplicates, and no operation is served or completed twice.
#[test]
fn a_caller_that_sleeps_past_the_rto_sees_retransmissions_deduplicated() {
    const GETS: u64 = 16;
    let rel = RelConfig {
        rto: 2_000_000,
        rto_max: 16_000_000,
        adaptive: true,
    };
    for backend in [Backend::Threads, Backend::Socket] {
        let mut cluster = builder()
            .fault_plan(FaultPlan::seeded(0xD0_2E))
            .rel_config(rel)
            .build(backend);
        for server in 1..=2 {
            for i in 0..GETS {
                cluster
                    .write_u64(server, DATA_REGION_BASE + 8 * i, 100 * server as u64 + i)
                    .unwrap();
            }
        }
        let mut set = CompletionSet::new();
        let mut expected = std::collections::HashMap::new();
        for i in 0..GETS {
            let server = 1 + (i % 2) as usize;
            let handle = cluster.post_get(server, DATA_REGION_BASE + 8 * i, 8);
            expected.insert(set.add_get(handle), 100 * server as u64 + i);
        }
        cluster.flush().unwrap();
        std::thread::sleep(Duration::from_nanos(3 * rel.rto));
        for (token, ready) in cluster.wait_all(&mut set).unwrap() {
            let want = expected.remove(&token).expect("a token resolved twice");
            match ready {
                Ready::Get(data) => assert_eq!(data.as_slice(), want.to_le_bytes(), "{backend}"),
                other => panic!("{backend}: unexpected readiness {other:?}"),
            }
        }
        assert!(expected.is_empty(), "{backend}");
        cluster.run_until_idle(100_000).unwrap();
        assert_eq!(cluster.pending_completions(), 0, "{backend}");
        let client = cluster.transport().node_reliability(0).unwrap();
        assert!(client.dup_drops >= 1, "{backend}: {client:?}");
        let mut retransmits = 0;
        let mut served = 0;
        for server in 1..=2 {
            retransmits += cluster
                .transport()
                .node_reliability(server)
                .unwrap()
                .retransmits;
            served += cluster.stats(server).unwrap().gets_served;
        }
        assert!(
            retransmits >= 1,
            "{backend}: the servers' replies timed out"
        );
        assert_eq!(served, GETS, "{backend}: no GET was served twice");
        cluster.shutdown();
    }
}
