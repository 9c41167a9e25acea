//! The one server rank under the two wall-clock backends.
//!
//! A threaded server node and a socket server process are the same machine:
//! a [`NodeRuntime`] behind a [`Link`], fed frames by a carrier and answering
//! through the carrier's `emit(to, tag, data, payload)` closure.  A
//! [`ServerHost`] owns the four rules both must keep:
//!
//! * **Control is a FIFO barrier.**  A control request (peek/poke/stats, or
//!   a carrier's own through [`ServerHost::barrier`]) is served only after
//!   every data frame that arrived before it has been polled and answered.
//! * **Replies leave behind the poll.**  Whatever the runtime posts is
//!   emitted after `poll(usize::MAX)`, so no cumulative ack — pure or
//!   piggybacked — ever covers an operation whose effects do not exist yet.
//!   On the FIFO socket that is what makes a kill between two flushes
//!   recoverable by frame replay.
//! * **A duplicate's immediate ack goes out behind that poll too** — it is
//!   cumulative like any other.
//! * **One pass, one close.**  [`ServerHost::end_pass`] polls what is still
//!   pending, emits the one pure ack per peer nothing piggybacked, runs the
//!   retransmission timer and returns the [`Digest`] to publish.
//!
//! The carrier supplies what differs: how frames arrive, what `emit` does
//! with a rank (and with [`DRIVER_PORT`], where errors and control replies
//! go), where the digest is published, and whether a send to this very rank
//! is looped back here (the socket rank: its only wire leads to the driver)
//! or emitted like any other (the thread rank: the fabric delivers it).

use super::link::{Digest, Link};
use super::socket::DRIVER_PORT;
use super::wire;
use crate::runtime::NodeRuntime;
use tc_ucx::Bytes;

/// See the module docs.
pub(crate) struct ServerHost {
    runtime: NodeRuntime,
    link: Link,
    /// Deliver sends to this rank locally instead of emitting them.
    loopback: bool,
    /// Operations were delivered to the runtime and not polled yet.
    pending: bool,
}

impl ServerHost {
    pub(crate) fn new(runtime: NodeRuntime, link: Link, loopback: bool) -> Self {
        ServerHost {
            runtime,
            link,
            loopback,
            pending: false,
        }
    }

    pub(crate) fn runtime(&self) -> &NodeRuntime {
        &self.runtime
    }

    /// Poll every delivered operation and emit what the runtime posted.
    fn flush(&mut self, emit: &mut impl FnMut(u32, u64, Bytes, Bytes)) {
        let rank = self.runtime.node_id().0;
        while std::mem::take(&mut self.pending) {
            for outcome in self.runtime.poll(usize::MAX) {
                if let Err(e) = outcome {
                    report(emit, e.to_string());
                }
            }
            for msg in self.runtime.take_outgoing() {
                if self.loopback && msg.dst.0 == rank {
                    // The fault model excludes self-sends on every backend:
                    // deliver directly and poll again.
                    self.runtime.deliver(msg);
                    self.pending = true;
                    continue;
                }
                let (tag, data, payload) = self.link.outbound(&msg);
                emit(msg.dst.0, tag, data, payload);
            }
        }
    }

    /// Everything that arrived before this point has taken effect and been
    /// answered: the runtime, for a control request of the carrier's own.
    pub(crate) fn barrier(
        &mut self,
        mut emit: impl FnMut(u32, u64, Bytes, Bytes),
    ) -> &mut NodeRuntime {
        self.flush(&mut emit);
        &mut self.runtime
    }

    /// Terminate one frame `from` sent to this rank: a data-plane frame goes
    /// through the link into the runtime; anything else is a control request
    /// served behind a [`ServerHost::barrier`] (unknown tags are dropped).
    pub(crate) fn on_frame(
        &mut self,
        from: u32,
        tag: u64,
        data: Bytes,
        payload: Bytes,
        mut emit: impl FnMut(u32, u64, Bytes, Bytes),
    ) {
        if !matches!(tag, wire::TAG_OP | wire::TAG_ROP | wire::TAG_ACK) {
            self.flush(&mut emit);
            if let Some((tag, reply)) = wire::serve_control(&mut self.runtime, tag, &data) {
                emit(DRIVER_PORT, tag, reply.into(), Bytes::new());
            }
            return;
        }
        let (runtime, pending) = (&mut self.runtime, &mut self.pending);
        let arrival = self.link.inbound(from, tag, data, payload, |op| {
            runtime.deliver(op);
            *pending = true;
        });
        match arrival {
            Ok(None) => {}
            Ok(Some(ack)) => {
                self.flush(&mut emit);
                emit(from, wire::TAG_ACK, ack, Bytes::new());
            }
            Err(e) => report(&mut emit, e.to_string()),
        }
    }

    /// Close one pass over the carrier's inbound frames (or one idle tick).
    pub(crate) fn end_pass(&mut self, mut emit: impl FnMut(u32, u64, Bytes, Bytes)) -> Digest {
        self.flush(&mut emit);
        self.link.finish_batch(&mut emit);
        self.link.tick(&mut emit);
        self.link.digest()
    }

    /// Peer rank `peer` was reborn with a fresh sequence space: renumber and
    /// re-send what this rank retained for it.
    pub(crate) fn replay(&mut self, peer: u32, emit: impl FnMut(u32, u64, Bytes, Bytes)) -> Digest {
        self.link.replay(peer, emit);
        self.link.digest()
    }
}

/// Report a node-side failure to the driver.  Errors ride the same wire as
/// control replies, so one emitted before a stats reply is collected before
/// it.
fn report(emit: &mut impl FnMut(u32, u64, Bytes, Bytes), text: String) {
    emit(
        DRIVER_PORT,
        wire::TAG_ERROR,
        text.into_bytes().into(),
        Bytes::new(),
    );
}

#[cfg(test)]
mod tests {
    use super::super::reliable::RelConfig;
    use super::*;
    use tc_bitir::TargetTriple;
    use tc_jit::OptLevel;
    use tc_ucx::{OutgoingMessage, RequestId, UcpOp, WorkerAddr};

    const SERVER: u32 = 1;
    const CFG: RelConfig = RelConfig {
        rto: 1_000_000_000,
        rto_max: 8_000_000_000,
        adaptive: true,
    };

    /// One emitted frame: `(to, tag, data, payload)`.
    type Emitted = (u32, u64, Bytes, Bytes);

    fn host(rel: Option<RelConfig>, loopback: bool) -> ServerHost {
        let runtime = NodeRuntime::with_opt_level(
            WorkerAddr(SERVER),
            2,
            TargetTriple::X86_64_GENERIC,
            OptLevel::O2,
        );
        ServerHost::new(runtime, Link::new(SERVER, 2, rel), loopback)
    }

    fn get(src: u32, request: u64) -> OutgoingMessage {
        OutgoingMessage {
            src: WorkerAddr(src),
            dst: WorkerAddr(SERVER),
            request: RequestId(request),
            op: UcpOp::Get {
                remote_addr: crate::layout::DATA_REGION_BASE,
                len: 8,
            },
        }
    }

    /// The GET request a reply frame answers.
    fn replied(frame: &Emitted) -> u64 {
        let head = match frame.1 {
            wire::TAG_OP => frame.2.clone(),
            wire::TAG_ROP => wire::decode_rel_head(&frame.2).unwrap().2,
            other => panic!("tag {other} is not a reply"),
        };
        match wire::decode_op_vectored(&head, &frame.3).unwrap().op {
            UcpOp::GetReply { request, .. } => request.0,
            other => panic!("{other:?} is not a GET reply"),
        }
    }

    /// The cumulative ack a reliable frame carries, pure or piggybacked.
    fn ack_of(frame: &Emitted) -> u64 {
        match frame.1 {
            wire::TAG_ACK => wire::decode_ack(&frame.2).unwrap(),
            wire::TAG_ROP => wire::decode_rel_head(&frame.2).unwrap().1,
            other => panic!("tag {other} carries no ack"),
        }
    }

    #[test]
    fn control_is_answered_between_the_replies_of_its_neighbours() {
        for loopback in [false, true] {
            let mut host = host(None, loopback);
            let mut out: Vec<Emitted> = Vec::new();
            let mut emit = |to, tag, data, payload| out.push((to, tag, data, payload));
            for (tag, request) in [(wire::TAG_OP, 1), (wire::TAG_STATS, 7), (wire::TAG_OP, 2)] {
                let (data, payload) = match tag {
                    wire::TAG_OP => wire::encode_op_vectored(&get(0, request)),
                    _ => (wire::encode_control(request, &[]).into(), Bytes::new()),
                };
                host.on_frame(0, tag, data, payload, &mut emit);
            }
            assert_eq!(host.end_pass(&mut emit), Digest::default());
            let tags: Vec<(u32, u64)> = out.iter().map(|f| (f.0, f.1)).collect();
            assert_eq!(
                tags,
                [
                    (0, wire::TAG_OP),
                    (DRIVER_PORT, wire::TAG_STATS_REPLY),
                    (0, wire::TAG_OP)
                ],
                "loopback {loopback}"
            );
            assert_eq!((replied(&out[0]), replied(&out[2])), (1, 2));
            // The barrier held: the stats were sampled with exactly the
            // first GET served.
            let (token, body) = wire::decode_control(&out[1].2).unwrap();
            assert_eq!(token, 7);
            assert_eq!(wire::decode_stats(body).unwrap().gets_served, 1);
        }
    }

    #[test]
    fn self_sends_loop_back_or_leave_as_the_carrier_asked() {
        for loopback in [false, true] {
            let mut host = host(Some(CFG), loopback);
            let mut out: Vec<Emitted> = Vec::new();
            let mut emit = |to, tag, data, payload| out.push((to, tag, data, payload));
            // A GET this rank posted against itself: the reply is a
            // self-send, raw on every backend.
            let (data, payload) = wire::encode_op_vectored(&get(SERVER, 5));
            host.on_frame(SERVER, wire::TAG_OP, data, payload, &mut emit);
            host.end_pass(&mut emit);
            if loopback {
                assert!(out.is_empty(), "{out:?}");
                assert_eq!(host.runtime().completions_pending(), 1);
            } else {
                assert_eq!(out.len(), 1);
                assert_eq!(
                    (out[0].0, out[0].1, replied(&out[0])),
                    (SERVER, wire::TAG_OP, 5)
                );
                assert_eq!(host.runtime().completions_pending(), 0);
            }
        }
    }

    #[test]
    fn no_ack_covers_an_unpolled_op_and_a_duplicates_ack_follows_the_poll() {
        let mut client = Link::new(0, 2, Some(CFG));
        let frames: Vec<(Bytes, Bytes)> = (1..=5)
            .map(|request| {
                let (tag, data, payload) = client.outbound(&get(0, request));
                assert_eq!(tag, wire::TAG_ROP);
                (data, payload)
            })
            .collect();
        let mut host = host(Some(CFG), true);
        let mut out: Vec<Emitted> = Vec::new();
        // Every ack a host call emitted covers only operations polled by the
        // time the call returned.
        let check = |host: &ServerHost, out: &[Emitted], from: usize| {
            let served = host.runtime().stats.gets_served;
            for frame in &out[from..] {
                assert!(ack_of(frame) <= served, "ack {} > {served}", ack_of(frame));
            }
        };

        // Two in-order frames stay pending; the duplicate of the first must
        // be acked at once — behind the poll of both and their replies,
        // which already carry the ack.
        for i in [0, 1, 0] {
            let (data, payload) = frames[i].clone();
            let before = out.len();
            let emit = |to, tag, data, payload| out.push((to, tag, data, payload));
            host.on_frame(0, wire::TAG_ROP, data, payload, emit);
            check(&host, &out, before);
        }
        let tags: Vec<u64> = out.iter().map(|f| f.1).collect();
        assert_eq!(tags, [wire::TAG_ROP, wire::TAG_ROP, wire::TAG_ACK]);
        assert_eq!((replied(&out[0]), replied(&out[1])), (1, 2));
        assert_eq!(ack_of(&out[2]), 2);
        let digest = host.end_pass(|to, tag, data, payload| out.push((to, tag, data, payload)));
        assert_eq!(out.len(), 3, "the replies piggybacked the owed ack");
        assert_eq!((digest.unacked, digest.metrics.dup_drops), (2, 1));

        // An out-of-order arrival parks and is acked at once, with nothing
        // new polled; the gap-filling frame then delivers both.
        for (i, emitted, served) in [(3, 1, 2), (2, 0, 2)] {
            let (data, payload) = frames[i].clone();
            let before = out.len();
            let emit = |to, tag, data, payload| out.push((to, tag, data, payload));
            host.on_frame(0, wire::TAG_ROP, data, payload, emit);
            assert_eq!(out.len() - before, emitted);
            assert_eq!(host.runtime().stats.gets_served, served);
            check(&host, &out, before);
        }
        let before = out.len();
        host.end_pass(|to, tag, data, payload| out.push((to, tag, data, payload)));
        check(&host, &out, before);
        assert_eq!((replied(&out[before]), replied(&out[before + 1])), (3, 4));
        assert_eq!(ack_of(&out[before + 1]), 4);
    }
}
