//! Regression tests for cluster-API bugs fixed alongside the async
//! completion plane, exercised against a minimal mock transport so the
//! failure modes are reachable deterministically.

use tc_bitir::TargetTriple;
use tc_core::cluster::{Cluster, Snapshot, Transport};
use tc_core::{ClientId, Completion, CoreError, NativeAmHandler, NodeRuntime};
use tc_ucx::{RequestId, WorkerAddr};

/// A transport that serves short memory reads and hand-fed completions.
struct MockTransport {
    client: NodeRuntime,
    /// Bytes returned per `read_memory`, regardless of the requested length.
    short_by: usize,
    /// Completions handed to the next `take_completions` call.
    queued: Vec<Completion>,
}

impl MockTransport {
    fn new(short_by: usize) -> Self {
        MockTransport {
            client: NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::X86_64_GENERIC),
            short_by,
            queued: Vec::new(),
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
        std::mem::take(&mut self.queued)
    }
    fn read_memory(&mut self, _rank: usize, _addr: u64, len: usize) -> tc_core::Result<Vec<u8>> {
        Ok(vec![0xAA; len.saturating_sub(self.short_by)])
    }
    fn control(
        &mut self,
        rank: usize,
        _request_tag: u64,
        _reply_tag: u64,
        _body: &[u8],
    ) -> tc_core::Result<Vec<u8>> {
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

/// REGRESSION: completions returned by `run_until_completions` must stay
/// claimable by a later typed `wait`/`try_claim` (the old implementation
/// `mem::take`-drained them, making the wait time out).
#[test]
fn drained_completions_stay_claimable_through_the_claim_table() {
    let mut transport = MockTransport::new(0);
    transport.queued = vec![
        Completion::Get {
            request: RequestId(5),
            data: vec![1, 2, 3].into(),
        },
        Completion::Result { slot: 9, value: 77 },
    ];
    let mut cluster = Cluster::new(transport);
    // Handle for the queued GET: post nothing, claim through the table.
    let drained = cluster.run_until_completions(2, 10).unwrap();
    assert_eq!(drained.len(), 2);
    // Both completions were "drained" — and both still claim.
    let result = cluster.try_claim(&tc_core::ResultHandle::for_slot(9));
    assert_eq!(result, Some(77));
    assert_eq!(
        cluster.pending_completions(),
        1,
        "the GET is still buffered"
    );
}
