//! Regression tests for cluster-API bugs fixed alongside the async
//! completion plane, exercised against a minimal mock transport so the
//! failure modes are reachable deterministically.

use tc_bitir::TargetTriple;
use tc_core::cluster::{Cluster, Snapshot, Transport};
use tc_core::{ClientId, Completion, CoreError, NativeAmHandler, NodeRuntime};
use tc_ucx::WorkerAddr;

/// A transport that serves short memory reads.
struct MockTransport {
    client: NodeRuntime,
    /// Bytes returned per `read_memory`, regardless of the requested length.
    short_by: usize,
}

impl MockTransport {
    fn new(short_by: usize) -> Self {
        MockTransport {
            client: NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::X86_64_GENERIC),
            short_by,
        }
    }
}

impl Transport for MockTransport {
    fn backend_name(&self) -> &'static str {
        "mock"
    }
    fn node_count(&self) -> usize {
        2
    }
    fn client(&self, _id: ClientId) -> &NodeRuntime {
        &self.client
    }
    fn client_mut(&mut self, _id: ClientId) -> &mut NodeRuntime {
        &mut self.client
    }
    fn deploy_am(&mut self, _name: &str, _handler: NativeAmHandler) -> tc_core::Result<()> {
        Ok(())
    }
    fn flush_client(&mut self, _id: ClientId) -> tc_core::Result<()> {
        Ok(())
    }
    fn step(&mut self) -> tc_core::Result<bool> {
        Ok(false)
    }
    fn take_completions(&mut self, _id: ClientId) -> Vec<Completion> {
        Vec::new()
    }
    fn read_memory(&mut self, _rank: usize, _addr: u64, len: usize) -> tc_core::Result<Vec<u8>> {
        Ok(vec![0xAA; len.saturating_sub(self.short_by)])
    }
    fn control(&mut self, rank: usize, _tag: u64, _body: &[u8]) -> tc_core::Result<Vec<u8>> {
        Err(CoreError::Transport(format!("rank {rank} is not served")))
    }
    fn observe(&self) -> Snapshot {
        Snapshot::default()
    }
}

/// REGRESSION: `Cluster::read_u64` used to slice `bytes[..8]` and panic on a
/// transport that returns fewer than 8 bytes; it must surface a typed
/// `CoreError::ShortRead` instead.
#[test]
fn read_u64_returns_typed_error_on_short_read() {
    let mut cluster = Cluster::new(MockTransport::new(3));
    let err = cluster.read_u64(1, 0x40).unwrap_err();
    match err {
        CoreError::ShortRead {
            rank,
            addr,
            wanted,
            got,
        } => {
            assert_eq!((rank, addr, wanted, got), (1, 0x40, 8, 5));
        }
        other => panic!("expected ShortRead, got {other:?}"),
    }
    // A full-width read still works.
    let mut cluster = Cluster::new(MockTransport::new(0));
    assert_eq!(
        cluster.read_u64(1, 0x40).unwrap(),
        u64::from_le_bytes([0xAA; 8])
    );
}
