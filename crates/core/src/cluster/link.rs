//! The one reliable link endpoint under every wall-clock rank.
//!
//! A server rank and a client rank of the threaded and socket backends both
//! sit between a [`crate::runtime::NodeRuntime`] and a wire that carries
//! `(tag, data, payload)` frames.  A [`Link`] is everything that is the same
//! among them:
//!
//! * [`Link::outbound`] — pick [`wire::TAG_ROP`] (sequence, retain, piggyback
//!   the owed ack) or [`wire::TAG_OP`] (no fault plan, or a destination the
//!   fault model excludes) and encode the frame once;
//! * [`Link::inbound`] — bound the sender's rank, then decode, sequence,
//!   dedup and deliver whatever became in-order, or settle an ack;
//! * [`Link::finish_batch`], [`Link::replay`] — the batch-end gap repairs,
//!   pure acks and retransmission timer, and the renumbered re-send after a
//!   peer was reborn;
//! * [`Link::digest`] — what quiescence detection and operators read.
//!
//! What a rank does around its link — when pending operations are polled,
//! what an ack may cover, where control frames sit, which sends are loopback
//! — is [`super::host`]'s `ServerHost` and `ClientHost`, the only callers of
//! this module; they pass on the carrier's `emit(to_rank, tag, data,
//! payload)` closure, which reaches its fabric, socket or chaos router.
//!
//! [`super::SimTransport`] stays a separate implementation: it is the
//! reference the parity and chaos suites compare this module against (on
//! `Link` that would be the code against itself) and charges per-frame cost.
//!
//! Every scheduling constant of the wall-clock backends lives here too.  None
//! is settable from outside the crate: `host`'s `Driver` copies the two
//! timeouts into fields, which only this crate's own tests shorten.

use super::reliable::{LinkHealth, RelConfig, RelFrame, RelMetrics, ReliableSet};
use super::socket::most_stressed;
use super::wire::{self, StoredEnv};
use crate::error::{CoreError, Result};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tc_ucx::{Bytes, OutgoingMessage};

/// How long one driver `step` waits for traffic (threads: parks on the
/// fabric's external queue, ended silent by its clock every half base RTO
/// under a fault plan; socket: polls its connections) before running its
/// idleness checks.  Bounds *idle-detection* latency only.
pub(crate) const STEP_TIMEOUT: Duration = Duration::from_millis(20);
/// Consecutive idle steps before a wait gives up, on every backend.  A
/// wall-clock step only reports idle after a silent park (a whole one from
/// the second on) with nothing queued or mid-processing, so two suffice: the
/// second covers the one-step race where work finished right as the first
/// wait timed out.  A simulator step that found its queue empty finds it
/// empty again.
pub(crate) const IDLE_GRACE: u32 = 2;
/// How long a control-plane round trip (peek/poke/stats/AM deploy) may take.
pub(crate) const CONTROL_TIMEOUT: Duration = Duration::from_secs(10);
/// How long one `step` of a wall-clock backend keeps waiting while messages
/// are verifiably queued or mid-processing without reporting progress.
/// Guards against a runaway ifunc wedging the driver forever.
pub(crate) const BUSY_STEP_TIMEOUT: Duration = Duration::from_secs(1);
/// Socket poll loops (the driver's, a server's handshake): sleep per quiet pass.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_micros(500);
/// Socket driver: how long a poll loop busy-yields before it starts sleeping
/// [`POLL_INTERVAL`] per iteration — a socket round trip is tens of
/// microseconds, far below any sleep quantum.
pub(crate) const SPIN_WINDOW: Duration = Duration::from_micros(300);
/// Socket server: how long its loop yields after traffic before it sleeps.
pub(crate) const SERVER_YIELD_WINDOW: Duration = Duration::from_millis(1);
/// Socket server: its sleep per loop once quiet for [`SERVER_YIELD_WINDOW`].
pub(crate) const SERVER_IDLE_SLEEP: Duration = Duration::from_micros(200);
/// Socket backend: how long every server process has to dial in and complete
/// the HELLO/WELCOME handshake at startup (a server process retries its
/// connect for as long).
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// Socket driver: how long one WELCOME may take to drain into the socket
/// (a peer that connects and never reads must not wedge admission).
pub(crate) const WELCOME_DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
/// Socket driver: how long `shutdown` waits for a server process to exit
/// voluntarily after the SHUTDOWN frame before killing it.
pub(crate) const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket recovery: how long a link may be silent before the driver sends a
/// liveness PING.
pub(crate) const PING_INTERVAL: Duration = Duration::from_millis(250);
/// Socket recovery: how long an unanswered PING may ride before the rank is
/// declared dead.
pub(crate) const PING_TIMEOUT: Duration = Duration::from_secs(1);
/// Socket recovery: delay before the first respawn attempt; doubles per
/// failed attempt up to [`RECOVERY_BACKOFF_MAX`].
pub(crate) const RECOVERY_BACKOFF: Duration = Duration::from_millis(30);
/// Socket recovery: ceiling of the respawn backoff.
pub(crate) const RECOVERY_BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Nanoseconds on the wall clock shared by everything in this process that
/// keeps wall-clock time (origin: first use) — every [`Link`]'s reliable
/// layer, and [`super::Snapshot::now_nanos`] on the wall-clock backends.  One origin means a deadline a link arms and the time a driver
/// reads are directly comparable, with no epoch to hand around.
pub(crate) fn wall_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The one clock reading a carrier takes per pass, for every call that wants
/// a `now`: nothing over plain links, which never ask the time.
pub(crate) fn pass_now(reliable: bool) -> u64 {
    reliable.then(wall_nanos).unwrap_or(0)
}

/// A carrier's way out for a frame: `emit(to_rank, tag, data, payload)`.
pub(crate) trait Emit: FnMut(u32, u64, Bytes, Bytes) {}
impl<F: FnMut(u32, u64, Bytes, Bytes)> Emit for F {}

/// What one rank's reliable endpoint publishes about itself: enough for
/// quiescence detection (`unacked`) and for operators (the counters and the
/// most-stressed link's RTT estimator state).  A server rank on another
/// thread or in another process publishes exactly this; it is the per-rank
/// `digest` of a [`super::Snapshot`], and everything the driver reads about
/// reliability is derived from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Frames sent but not yet cumulatively acked.
    pub unacked: u64,
    /// Cumulative reliability counters.
    pub metrics: RelMetrics,
    /// Health of the rank's most-stressed link (`None` before any traffic).
    pub health: Option<LinkHealth>,
}

impl Digest {
    /// The digest of one rank's reliability state.
    pub(crate) fn of<M: Clone>(rel: &ReliableSet<M>) -> Digest {
        Digest {
            unacked: rel.unacked_total(),
            metrics: rel.metrics,
            health: most_stressed(rel.health_rows()),
        }
    }
}

/// One rank's end of every link it has: see the module docs.
pub(crate) struct Link {
    rank: u32,
    /// Cluster size; valid peer ranks are `0..ranks`.
    ranks: u32,
    /// `None` without a fault plan: every frame is a raw [`wire::TAG_OP`].
    rel: Option<ReliableSet<StoredEnv>>,
    /// Reused delivery buffer of [`ReliableSet::on_data_into`].
    scratch: Vec<StoredEnv>,
    /// Gap repairs ([`ReliableSet::on_gap`]) awaiting [`Link::finish_batch`].
    repairs: Vec<RelFrame<StoredEnv>>,
}

impl Link {
    /// The endpoint of `rank` in a cluster of `ranks`; reliable when `rel`
    /// carries the tunables of an installed fault plan.
    pub(crate) fn new(rank: u32, ranks: u32, rel: Option<RelConfig>) -> Self {
        Link {
            rank,
            ranks,
            rel: rel.map(ReliableSet::new),
            scratch: Vec::new(),
            repairs: Vec::new(),
        }
    }

    /// Encode `msg` for the wire as `(tag, data, payload)`.  Two cases skip
    /// the reliable layer even under a fault plan and leave as raw
    /// [`wire::TAG_OP`], never retained: misaddressed sends (rank beyond the
    /// cluster — they would retransmit forever; raw, the carrier counts the
    /// drop) and self-sends (the simulated backend excludes loopback from
    /// the fault model, so every backend must or the chaos schedules
    /// diverge).
    pub(crate) fn outbound(&mut self, msg: &OutgoingMessage, now: u64) -> (u64, Bytes, Bytes) {
        let dst = msg.dst.0;
        match &mut self.rel {
            Some(rel) if dst < self.ranks && dst != self.rank => {
                let (data, payload) = wire::send_reliable(rel, dst, msg, now);
                (wire::TAG_ROP, data, payload)
            }
            _ => {
                let (head, payload) = wire::encode_op_vectored(msg);
                (wire::TAG_OP, head, payload)
            }
        }
    }

    /// Terminate one data-plane frame ([`wire::TAG_OP`], [`wire::TAG_ROP`]
    /// or [`wire::TAG_ACK`]) that `from` sent to this rank, handing every
    /// operation that became deliverable to `deliver` in order.
    ///
    /// `Ok(Some(ack))` is the body of a pure [`wire::TAG_ACK`] the host must
    /// send to `from` right away (a duplicate, or an arrival that leaves
    /// frames parked behind the gap the ack names) — on servers behind a
    /// poll of whatever this and earlier frames delivered, because the ack
    /// is cumulative.  Other in-order arrivals return `Ok(None)`: their ack
    /// rides the next frame to the peer or [`Link::finish_batch`], which
    /// also re-sends what an arriving ack named missing.
    ///
    /// `from` indexes the dense per-peer link table, so it is bounded here,
    /// once, for every tag.  A frame rejected before sequencing (bad rank,
    /// truncated header, reliable tag without a fault plan) leaves the link
    /// untouched.  An operation that fails to decode *after* sequencing is
    /// consumed — the same bytes could never succeed on retransmission — and
    /// the first such error is returned once the rest has been delivered.
    pub(crate) fn inbound(
        &mut self,
        from: u32,
        tag: u64,
        data: Bytes,
        payload: Bytes,
        now: u64,
        mut deliver: impl FnMut(OutgoingMessage),
    ) -> Result<Option<Bytes>> {
        if from >= self.ranks {
            return Err(CoreError::Transport(format!(
                "frame (tag {tag}) from invalid rank {from} at rank {} of {}",
                self.rank, self.ranks
            )));
        }
        if tag == wire::TAG_OP {
            deliver(wire::decode_op_vectored(&data, &payload)?);
            return Ok(None);
        }
        let Some(rel) = &mut self.rel else {
            return Err(CoreError::Transport(format!(
                "reliable frame (tag {tag}) at rank {} without a fault plan",
                self.rank
            )));
        };
        match tag {
            wire::TAG_ACK => {
                let (cum, gap) = wire::decode_ack(&data)?;
                rel.on_gap(from, cum, gap, now, &mut self.repairs);
                Ok(None)
            }
            wire::TAG_ROP => {
                let (seq, ack, head) = wire::decode_rel_head(&data)?;
                let arrival =
                    rel.on_data_into(from, seq, ack, (head, payload), now, &mut self.scratch);
                let mut failed = None;
                for (h, p) in self.scratch.drain(..) {
                    match wire::decode_op_vectored(&h, &p) {
                        Ok(op) => deliver(op),
                        Err(e) => failed = failed.or(Some(e)),
                    }
                }
                match failed {
                    Some(e) => Err(e),
                    None => Ok(arrival
                        .ack_now
                        .then(|| wire::encode_ack(arrival.ack, arrival.gap))),
                }
            }
            other => Err(CoreError::Transport(format!(
                "tag {other} is not a data-plane tag"
            ))),
        }
    }

    /// End of the host's natural batch: the frames its acks named missing,
    /// then one pure cumulative ack per peer whose in-order frames nothing
    /// sent since (those repairs included) has piggybacked on.  Servers call
    /// this after polling, so it too only covers polled operations.  Last,
    /// the retransmission timer: every frame of every link whose RTO expired
    /// by `now` leaves again, with a fresh piggybacked ack.
    pub(crate) fn finish_batch(&mut self, now: u64, mut emit: impl Emit) {
        if let Some(rel) = &mut self.rel {
            retransmit(self.repairs.drain(..), &mut emit);
            rel.acks_due(|peer, ack| {
                let ack = wire::encode_ack(ack, None);
                emit(peer, wire::TAG_ACK, ack, Bytes::new())
            });
            retransmit(rel.tick(now), emit);
        }
    }

    /// `peer` was reborn with a fresh sequence space: tear the link to it
    /// down (send and receive state both) and re-send the retained unacked
    /// frames, oldest first, renumbered from seq 1.
    pub(crate) fn replay(&mut self, peer: u32, mut emit: impl Emit) {
        let Some(rel) = &mut self.rel else {
            return;
        };
        let now = wall_nanos();
        // A repair queued for the old incarnation carries its numbering.
        self.repairs.retain(|f| f.peer != peer);
        for (head, payload) in rel.reset_peer(peer) {
            let (seq, ack) = rel.send(peer, (head.clone(), payload.clone()), now);
            emit(
                peer,
                wire::TAG_ROP,
                wire::encode_rel_head(seq, ack, &head),
                payload,
            );
        }
    }

    /// See [`Digest`]: `None` on a link without a fault plan.
    pub(crate) fn digest(&self) -> Option<Digest> {
        self.rel().map(Digest::of)
    }

    /// The reliable layer under this link (`None` without a fault plan).
    pub(crate) fn rel(&self) -> Option<&ReliableSet<StoredEnv>> {
        self.rel.as_ref()
    }
}

/// Put retained frames back on the wire under fresh reliability prefixes.
fn retransmit(frames: impl IntoIterator<Item = RelFrame<StoredEnv>>, mut emit: impl Emit) {
    for f in frames {
        let data = wire::encode_rel_head(f.seq, f.ack, &f.m.0);
        emit(f.peer, wire::TAG_ROP, data, f.m.1);
    }
}

#[cfg(test)]
mod tests {
    use super::super::reliable::tests::Net;
    use super::*;
    use std::collections::VecDeque;
    use tc_simnet::SplitMix64;
    use tc_ucx::{AmHandlerId, RequestId, UcpOp, WorkerAddr};

    /// An RTO long enough on the wall clock that a loss with traffic behind
    /// it is repaired by the gap signal, and short enough that a test loop
    /// can spin through the timeouts its tail losses need.
    const CFG: RelConfig = RelConfig {
        rto: 100_000,
        rto_max: 800_000,
        adaptive: true,
    };

    /// One frame on the in-memory carrier: `(from, tag, data, payload)`.
    type Wire = (u32, u64, Bytes, Bytes);

    fn link(rank: u32, ranks: u32, rel: Option<RelConfig>) -> Link {
        Link::new(rank, ranks, rel)
    }

    /// Every `OutgoingMessage` kind from `src` to `dst`; those with a bulk
    /// payload once inline and once detached (at least the scatter
    /// threshold).
    fn messages(src: u32, dst: u32) -> Vec<OutgoingMessage> {
        let mut ops = vec![
            UcpOp::Get {
                remote_addr: 0x80,
                len: 16,
            },
            UcpOp::PutAck {
                acked: RequestId(31),
            },
        ];
        for len in [3, wire::SCATTER_THRESHOLD + 88] {
            let bulk = || Bytes::from(vec![len as u8; len]);
            ops.extend([
                UcpOp::Put {
                    remote_addr: 0x40,
                    data: bulk(),
                },
                UcpOp::PutConfirm {
                    remote_addr: 0x48,
                    data: bulk(),
                },
                UcpOp::GetReply {
                    request: RequestId(9),
                    data: bulk(),
                },
                UcpOp::ActiveMessage {
                    handler: AmHandlerId(3),
                    payload: bulk(),
                },
                UcpOp::IfuncFrame {
                    bytes: bulk(),
                    code: Bytes::new(),
                },
            ]);
        }
        let msg = |(i, op)| OutgoingMessage {
            src: WorkerAddr(src),
            dst: WorkerAddr(dst),
            request: RequestId(i as u64),
            op,
        };
        ops.into_iter().enumerate().map(msg).collect()
    }

    /// One end of the two-link loop.
    struct Side {
        link: Link,
        /// The faulty wire toward this side.
        inbox: VecDeque<Wire>,
        to_post: VecDeque<OutgoingMessage>,
        got: Vec<OutgoingMessage>,
        /// Pure acks this side put on the wire.
        pure_acks: u64,
    }

    impl Side {
        fn new(rank: u32, peer: u32) -> Side {
            let mut to_post = VecDeque::new();
            for _ in 0..3 {
                to_post.extend(messages(rank, peer));
            }
            Side {
                link: link(rank, 2, Some(CFG)),
                inbox: VecDeque::new(),
                to_post,
                got: Vec::new(),
                pure_acks: 0,
            }
        }

        fn rank(&self) -> u32 {
            self.link.rank
        }

        /// Put one frame this side produced on the wire toward its peer —
        /// after checking that the cumulative ack it carries, pure or
        /// piggybacked, covers nothing this side has not delivered.  (The
        /// peer numbers its frames 1.. in posting order and nothing here
        /// resets a link, so "delivered" is `got.len()`.)
        fn ship(
            &mut self,
            net: &mut Net,
            out: &mut VecDeque<Wire>,
            tag: u64,
            data: Bytes,
            p: Bytes,
        ) {
            self.pure_acks += u64::from(tag == wire::TAG_ACK);
            let ack = match tag {
                wire::TAG_ACK => wire::decode_ack(&data).unwrap().0,
                wire::TAG_ROP => wire::decode_rel_head(&data).unwrap().1,
                other => panic!("a reliable link emitted tag {other}"),
            };
            assert!(
                ack <= self.got.len() as u64,
                "ack {ack} covers an undelivered frame ({} delivered)",
                self.got.len()
            );
            net.ship(out, (self.rank(), tag, data, p));
        }

        fn post(&mut self, now: u64, net: &mut Net, out: &mut VecDeque<Wire>) {
            if let Some(msg) = self.to_post.pop_front() {
                let (tag, data, payload) = self.link.outbound(&msg, now);
                assert_eq!(tag, wire::TAG_ROP);
                self.ship(net, out, tag, data, payload);
            }
        }

        /// Sends the fault model excludes — to this rank itself and beyond
        /// the cluster — leave raw and are never retained.
        fn post_excluded(&mut self, now: u64) {
            for dst in [self.rank(), 9] {
                let msg = messages(self.rank(), dst).pop().unwrap();
                let before = self.link.digest();
                let (tag, data, payload) = self.link.outbound(&msg, now);
                assert_eq!(tag, wire::TAG_OP);
                assert_eq!(wire::decode_op_vectored(&data, &payload).unwrap(), msg);
                assert_eq!(
                    self.link.digest(),
                    before,
                    "a raw send must not be retained"
                );
            }
        }

        /// One turn the way a host drives its link — on one reading of the
        /// clock, as a pass is: everything inbound in
        /// randomly sized batches (`finish_batch` at each boundary — gap
        /// repairs, at most one pure ack, what the timer re-sends —,
        /// immediate acks when told to, an occasional mid-batch post for the
        /// piggyback path), then a few fresh posts and one more batch end.
        fn turn(&mut self, net: &mut Net, out: &mut VecDeque<Wire>) {
            let now = wall_nanos();
            while !self.inbox.is_empty() {
                for _ in 0..net.rng.range(1, self.inbox.len() as u64 + 1) {
                    let (from, tag, data, payload) = self.inbox.pop_front().unwrap();
                    let got = &mut self.got;
                    let arrival = self
                        .link
                        .inbound(from, tag, data, payload, now, |m| got.push(m));
                    if let Some(ack) = arrival.unwrap() {
                        self.ship(net, out, wire::TAG_ACK, ack, Bytes::new());
                    }
                    if net.rng.below(3) == 0 {
                        self.post(now, net, out);
                    }
                }
                self.finish_batch(now, net, out);
            }
            self.post_excluded(now);
            for _ in 0..net.rng.below(4) {
                self.post(now, net, out);
            }
            self.finish_batch(now, net, out);
        }

        /// Close a batch and ship what that emits: reliable frames (repairs
        /// and timer re-sends) around at most one pure ack.
        fn finish_batch(&mut self, now: u64, net: &mut Net, out: &mut VecDeque<Wire>) {
            let mut closing = Vec::new();
            self.link
                .finish_batch(now, |to, tag, data, p| closing.push((to, tag, data, p)));
            let acks = closing.iter().filter(|f| f.1 == wire::TAG_ACK).count();
            assert!(acks <= 1, "one pure ack per peer per batch");
            for (to, tag, data, p) in closing {
                assert_eq!(to, 1 - self.rank());
                self.ship(net, out, tag, data, p);
            }
        }

        fn busy(&self) -> bool {
            !self.to_post.is_empty() || self.link.digest().unwrap().unacked > 0
        }
    }

    /// Two links over a seeded carrier that drops, duplicates and reorders:
    /// every message kind arrives exactly once, in order, and no ack ever
    /// runs ahead of delivery (checked in `Side::ship`).
    #[test]
    fn two_links_deliver_exactly_once_in_order_over_a_faulty_carrier() {
        let mut rng = SplitMix64::new(0x11CC);
        let (mut retransmits, mut fast_retransmits, mut dup_drops, mut out_of_order) = (0, 0, 0, 0);
        for schedule in 0..48u64 {
            let faults = Net::schedule(&mut rng, schedule);
            let mut net = Net::new(rng.next_u64(), faults);
            let mut sides = [Side::new(0, 1), Side::new(1, 0)];
            let deadline = Instant::now() + Duration::from_secs(60);
            while sides.iter().any(Side::busy) {
                assert!(
                    Instant::now() < deadline,
                    "schedule {schedule} {faults:?} never drained"
                );
                let [a, b] = &mut sides;
                a.turn(&mut net, &mut b.inbox);
                b.turn(&mut net, &mut a.inbox);
            }
            let [a, b] = &sides;
            for (side, peer) in [(a, b), (b, a)] {
                let mut want = Vec::new();
                for _ in 0..3 {
                    want.extend(messages(peer.rank(), side.rank()));
                }
                assert_eq!(
                    side.got, want,
                    "schedule {schedule}: exactly once, in order"
                );
                let digest = side.link.digest().unwrap();
                assert_eq!(digest.unacked, 0);
                let health = digest.health.expect("the link carried traffic");
                assert_eq!((health.peer, health.unacked), (peer.rank(), 0));
                assert_eq!(digest.metrics.acks_sent, side.pure_acks);
                retransmits += digest.metrics.retransmits;
                dup_drops += digest.metrics.dup_drops;
                out_of_order += digest.metrics.out_of_order;
            }
            // As in `reliable.rs`: a gap repair is never spurious without
            // reordering and never repeated — whatever the wall clock did.
            let fast_of = |s: &Side| s.link.digest().unwrap().metrics.fast_retransmits;
            let fast = fast_of(a) + fast_of(b);
            assert!(
                fast <= net.dropped + net.overtaken,
                "schedule {schedule} {faults:?}: {fast} fast retransmits for {} drops, {} overtaken",
                net.dropped,
                net.overtaken
            );
            fast_retransmits += fast;
        }
        assert!(
            retransmits > fast_retransmits
                && fast_retransmits > 0
                && dup_drops > 0
                && out_of_order > 0,
            "the lossy schedules must exercise recovery: {retransmits} retransmits \
             ({fast_retransmits} on a gap signal), {dup_drops} duplicates, \
             {out_of_order} out of order"
        );
    }

    /// Frames a link must reject — before they touch its state.
    #[test]
    fn hostile_frames_are_typed_errors_and_leave_the_link_untouched() {
        let msg = messages(1, 0).pop().unwrap();
        let (head, payload) = wire::encode_op_vectored(&msg);
        let rop = wire::encode_rel_head(1, 0, &head);
        let ack = wire::encode_ack(1, Some(3));
        let refuse = |link: &mut Link, from, tag, data: &Bytes| {
            let before = link.digest();
            let arrival = link.inbound(from, tag, data.clone(), payload.clone(), 0, |m| {
                panic!("a rejected frame delivered {m:?}")
            });
            assert!(
                matches!(arrival, Err(CoreError::Transport(_))),
                "from {from} tag {tag}: {arrival:?}"
            );
            assert_eq!(link.digest(), before, "from {from} tag {tag}");
        };

        // A reliable link with something outstanding, so the digest has
        // something to lose.
        let mut reliable = link(0, 3, Some(CFG));
        let _ = reliable.outbound(&messages(0, 1).pop().unwrap(), 0);
        assert_eq!(reliable.digest().unwrap().unacked, 1);
        // `from` indexes the dense per-peer table: one corrupt frame naming
        // rank 0xFFFF_FFFE must not size it.
        for from in [3, 0xFFFF_FFFE] {
            refuse(&mut reliable, from, wire::TAG_OP, &head);
            refuse(&mut reliable, from, wire::TAG_ROP, &rop);
            refuse(&mut reliable, from, wire::TAG_ACK, &ack);
        }
        refuse(&mut reliable, 1, wire::TAG_ROP, &rop.slice(..15));
        for len in [7, 9, 15] {
            refuse(&mut reliable, 1, wire::TAG_ACK, &ack.slice(..len));
        }
        refuse(&mut reliable, 1, wire::TAG_PEEK, &head);

        // Without a fault plan there is no reliable plane to address.
        let mut plain = link(0, 3, None);
        refuse(&mut plain, 1, wire::TAG_ROP, &rop);
        refuse(&mut plain, 1, wire::TAG_ACK, &ack);
        assert_eq!(plain.digest(), None);
        // ...while its raw plane works.
        let mut got = Vec::new();
        let arrival = plain.inbound(1, wire::TAG_OP, head, payload.clone(), 0, |m| got.push(m));
        assert_eq!((arrival.unwrap(), got), (None, vec![msg]));
    }

    /// `replay(peer)` restarts the link to a reborn peer: the retained
    /// frames go out again oldest first, renumbered from seq 1 with a reset
    /// receive cursor, and other links keep their state.
    #[test]
    fn replay_renumbers_from_one_and_preserves_order() {
        let mut a = link(0, 3, Some(CFG));
        let mut b = link(1, 3, Some(CFG));
        let msgs = messages(0, 1);
        let mut acks = Vec::new();
        for (i, msg) in msgs.iter().enumerate() {
            let (tag, data, payload) = a.outbound(msg, 0);
            // The old peer only ever saw — and acked — the first two.
            if i < 2 {
                let arrival = b.inbound(0, tag, data, payload, 0, |_| {});
                assert_eq!(arrival.unwrap(), None);
            }
        }
        b.finish_batch(0, |_, tag, data, payload| acks.push((tag, data, payload)));
        // The ack travels on a frame from b, so a's receive cursor moves too.
        let (tag, data, payload) = b.outbound(&messages(1, 0)[0], 0);
        assert_eq!(a.inbound(1, tag, data, payload, 0, |_| {}).unwrap(), None);
        for (tag, data, payload) in acks {
            assert_eq!(a.inbound(1, tag, data, payload, 0, |_| {}).unwrap(), None);
        }
        let _ = a.outbound(&messages(0, 2)[0], 0);
        let retained = msgs.len() as u64 - 2;
        assert_eq!(a.digest().unwrap().unacked, retained + 1);

        let mut reborn = link(1, 3, Some(CFG));
        let mut got = Vec::new();
        let mut seqs = Vec::new();
        a.replay(1, |to, tag, data, payload| {
            assert_eq!((to, tag), (1, wire::TAG_ROP));
            let (seq, ack, _) = wire::decode_rel_head(&data).unwrap();
            assert_eq!(ack, 0, "the receive cursor toward a reborn peer restarts");
            seqs.push(seq);
            let arrival = reborn.inbound(0, tag, data, payload, 0, |m| got.push(m));
            assert_eq!(arrival.unwrap(), None, "seq {seq} must arrive in order");
        });
        assert_eq!(seqs, (1..=retained).collect::<Vec<_>>());
        assert_eq!(got, msgs[2..]);
        assert_eq!(
            a.digest().unwrap().unacked,
            retained + 1,
            "still retained until acked"
        );

        // The reborn peer's fresh seq 1 is accepted, not dropped as a
        // duplicate of the old incarnation's.
        let (tag, data, payload) = reborn.outbound(&messages(1, 0)[1], 0);
        let mut fresh = Vec::new();
        let arrival = a.inbound(1, tag, data, payload, 0, |m| fresh.push(m));
        assert_eq!((arrival.unwrap(), fresh.len()), (None, 1));
        assert_eq!(
            a.digest().unwrap().unacked,
            1,
            "its piggybacked ack settled the replay"
        );
    }
}
