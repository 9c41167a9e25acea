//! The one wait loop under `Cluster::{wait, wait_any, run_until_idle}`,
//! against a transport whose `step` answers from a script: an idle step is
//! the only quiescence signal, and all three waits count steps the same way.

use tc_bitir::TargetTriple;
use tc_core::cluster::{Cluster, LinkDigest, RankSnapshot, RankState, Snapshot, Transport};
use tc_core::{
    ClientId, Completion, CompletionSet, CoreError, NativeAmHandler, NodeRuntime, Ready,
    ResultHandle,
};
use tc_ucx::WorkerAddr;

/// `step` answers from `script` (then `false` forever) and counts its calls;
/// every rank claims to hold an unacked frame.
struct ScriptedTransport {
    client: NodeRuntime,
    script: Vec<bool>,
    steps: usize,
    /// Delivered to the client once `steps` reaches the paired count.
    arrivals: Vec<(usize, Completion)>,
}

impl ScriptedTransport {
    fn new(script: &[bool]) -> Self {
        ScriptedTransport {
            client: NodeRuntime::new(WorkerAddr(0), 2, TargetTriple::X86_64_GENERIC),
            script: script.to_vec(),
            steps: 0,
            arrivals: Vec::new(),
        }
    }
}

impl Transport for ScriptedTransport {
    fn backend_name(&self) -> &'static str {
        "scripted"
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
        self.steps += 1;
        Ok(self.script.get(self.steps - 1).copied().unwrap_or(false))
    }
    fn take_completions(&mut self, _id: ClientId) -> Vec<Completion> {
        let steps = self.steps;
        let (due, later) = std::mem::take(&mut self.arrivals)
            .into_iter()
            .partition(|(at, _)| *at <= steps);
        self.arrivals = later;
        due.into_iter().map(|(_, c)| c).collect()
    }
    fn control(&mut self, rank: usize, _tag: u64, _body: &[u8]) -> tc_core::Result<Vec<u8>> {
        Err(CoreError::Transport(format!("rank {rank} is not served")))
    }
    fn observe(&self) -> Snapshot {
        let digest = LinkDigest {
            unacked: 1,
            ..LinkDigest::default()
        };
        Snapshot {
            ranks: (0..2)
                .map(|rank| RankSnapshot::server(rank, RankState::Live, Some(digest)))
                .collect(),
            ..Snapshot::default()
        }
    }
}

type Wait<'a> = &'a dyn Fn(&mut Cluster<ScriptedTransport>);

/// How long unacked frames keep a wait alive is the backend's decision,
/// expressed through `step`'s answer (both wall-clock backends report
/// progress up to their stall horizon, the simulator's retransmission tick
/// is an event).  The loop above must not keep a second rule: two idle
/// steps in a row end every wait, on every backend, whatever the digests
/// say.
#[test]
fn an_idle_step_is_the_only_quiescence_signal() {
    let ghost = ResultHandle::for_slot(7);
    let steps_of = |script: &[bool], wait: Wait| {
        let mut cluster = Cluster::new(ScriptedTransport::new(script));
        assert!(cluster.transport().unacked_total() > 0);
        wait(&mut cluster);
        cluster.transport().steps
    };
    let waits: [(&str, Wait); 3] = [
        ("wait", &|c| {
            assert!(matches!(c.wait(&ghost), Err(CoreError::WaitTimeout { .. })));
        }),
        ("wait_any", &|c| {
            let mut set = CompletionSet::new();
            set.add_result(ghost);
            assert!(matches!(
                c.wait_any(&mut set),
                Err(CoreError::WaitTimeout { .. })
            ));
        }),
        ("run_until_idle", &|c| {
            c.run_until_idle(u64::MAX).unwrap();
        }),
    ];
    for (name, wait) in waits {
        assert_eq!(steps_of(&[], wait), 2, "{name}: two idle steps, no more");
        // Progress resets the count; a single idle step between two busy
        // ones does not end the wait.
        let script = [true, false, true, true, false, false, true];
        assert_eq!(steps_of(&script, wait), 6, "{name}");
    }
}

/// `max_steps` counts steps that made progress, and a completion that is
/// already there needs no step at all.
#[test]
fn progress_steps_are_counted_once_for_every_bounded_wait() {
    let script = [true, false, true, true, true];
    let mut cluster = Cluster::new(ScriptedTransport::new(&script));
    assert_eq!(cluster.run_until_idle(0).unwrap(), 0);
    assert_eq!(cluster.transport().steps, 0);
    assert_eq!(cluster.run_until_idle(3).unwrap(), 3);
    assert_eq!(cluster.transport().steps, 4, "the idle step is not counted");

    // Two results land with the third step: `wait_any` resolves the one it
    // holds after three steps, `wait` then finds the other without one.
    let mut transport = ScriptedTransport::new(&[true; 8]);
    transport.arrivals = vec![
        (3, Completion::Result { slot: 7, value: 70 }),
        (3, Completion::Result { slot: 8, value: 80 }),
    ];
    let mut cluster = Cluster::new(transport);
    let mut set = CompletionSet::new();
    let token = set.add_result(ResultHandle::for_slot(7));
    assert_eq!(
        cluster.wait_any(&mut set).unwrap(),
        (token, Ready::Result(70))
    );
    assert_eq!(cluster.transport().steps, 3);
    assert_eq!(cluster.wait(&ResultHandle::for_slot(8)).unwrap(), 80);
    assert_eq!(cluster.transport().steps, 3);
    assert!(cluster.wait(&ResultHandle::for_slot(7)).is_err(), "claimed");
}
