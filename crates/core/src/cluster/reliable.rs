//! The reliable-delivery sublayer: exactly-once, in-order links over a
//! lossy fabric.
//!
//! The paper's transports assume a lossless RDMA fabric; under a
//! [`tc_chaos::FaultPlan`] that assumption is gone — envelopes drop,
//! duplicate and reorder.  This module implements the classic fix at the
//! framework level, once, for every backend:
//!
//! * **per-link sequence numbers** — every data message on a directed link
//!   carries a monotonically increasing sequence number;
//! * **cumulative acks, piggybacked and batch-coalesced** — an in-order
//!   arrival only marks its link *ack-owed*.  Every data frame sent to that
//!   peer afterwards ([`ReliableSet::send`], retransmits from
//!   [`ReliableSet::tick`]) carries the cumulative ack and clears the mark;
//!   at the end of its natural batch the backend calls
//!   [`ReliableSet::acks_due`] once, which emits **one** pure cumulative ack
//!   per peer still owed.  A duplicate arrival, and any arrival that leaves
//!   frames parked behind a gap, is acked **immediately**
//!   ([`Arrival::ack_now`]): a sender whose ack was lost stops
//!   retransmitting, and an open gap is named at once ([`Arrival::gap`]).
//!   Server-side callers keep one more invariant: an ack — pure or
//!   piggybacked — never covers a frame whose operation has not been polled,
//!   so "observed ack ⇒ effects durable" holds and kill-anywhere recovery
//!   stays sound;
//! * **gap-signalled fast retransmit** — the stand-in for an RC fabric's
//!   out-of-sequence NAK.  While frames sit parked, the immediate ack also
//!   carries the lowest parked sequence number, so the open interval
//!   `(cum, gap)` is exactly what is missing; [`ReliableSet::on_gap`]
//!   re-sends each of those frames **once**, a round trip after the loss
//!   instead of a timeout after it.  There is no duplicate-ack threshold:
//!   the signal is explicit, so reordering costs at most one spurious copy
//!   per frame (dropped and acked *without* a gap: copies provoke no copies);
//! * **timeout-based retransmission with bounded backoff** — the fallback
//!   for what no gap can signal (a lost repair, a lost tail frame, a
//!   partition): unacked messages are re-sent after an RTO that doubles per
//!   silent round up to a cap (the retries themselves are unbounded: a
//!   partition heals *because* retransmissions keep probing it);
//! * **adaptive per-link RTO** — the base timeout is estimated per link
//!   from ack round-trip samples (Jacobson's SRTT/RTTVAR with Karn's rule:
//!   retransmitted frames never feed the estimator), clamped to
//!   `[cfg.rto, cfg.rto_max]`; fixed-RTO operation remains available as
//!   the comparison arm ([`RelConfig::adaptive`] = false);
//! * **receiver-side dedup and reordering** — duplicates are dropped,
//!   out-of-order arrivals are buffered until the gap fills.
//!
//! The state machine is transport-agnostic: it never touches clocks,
//! channels or event queues.  Callers feed it their own notion of "now" in
//! nanoseconds — virtual time for [`super::SimTransport`], wall-clock time
//! for [`super::ThreadTransport`] — and transmit whatever frames it hands
//! back (wall-clock ranks read the clock once per pass, so their RTT samples
//! are per-pass granular: microseconds against a 2 ms RTO floor).  `M` is
//! the caller's message representation (a decoded
//! [`tc_ucx::OutgoingMessage`] in the simulator, an encoded envelope pair in
//! the threaded backend).

use std::collections::{BTreeMap, VecDeque};

/// Reliability tunables.  Times are in nanoseconds of the caller's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelConfig {
    /// Initial retransmission timeout; when [`RelConfig::adaptive`] is set
    /// it is also the floor the estimated RTO never drops below.
    pub rto: u64,
    /// Backoff cap: the RTO doubles each silent round but never exceeds
    /// this.  Also the ceiling of the adaptive estimate.
    pub rto_max: u64,
    /// Estimate the per-link RTO from ack RTT samples (Jacobson SRTT/RTTVAR
    /// with Karn's rule).  When false the RTO stays pinned at `rto`.
    pub adaptive: bool,
}

impl RelConfig {
    /// Defaults for the discrete-event backend (virtual microseconds).
    pub fn sim_default() -> Self {
        RelConfig {
            rto: 100_000,       // 100 µs
            rto_max: 2_000_000, // 2 ms
            adaptive: true,
        }
    }

    /// Defaults for the threaded backend (wall-clock milliseconds).
    pub fn threads_default() -> Self {
        RelConfig {
            rto: 30_000_000,      // 30 ms
            rto_max: 480_000_000, // 480 ms
            adaptive: true,
        }
    }

    /// The same tunables with the estimator disabled (the fixed-RTO
    /// comparison arm of the chaos suite).
    pub fn fixed(self) -> Self {
        RelConfig {
            adaptive: false,
            ..self
        }
    }
}

/// Cumulative reliability counters of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelMetrics {
    /// Messages re-sent, whether an RTO expired ([`ReliableSet::tick`]) or
    /// the peer named them missing ([`ReliableSet::on_gap`]).
    pub retransmits: u64,
    /// The subset of `retransmits` that left on a gap signal — losses
    /// repaired in a round trip instead of after a timeout.
    pub fast_retransmits: u64,
    /// Duplicate arrivals dropped by the receiver.
    pub dup_drops: u64,
    /// Out-of-order arrivals parked until their gap filled.
    pub out_of_order: u64,
    /// Pure acks emitted: one per immediate ack ([`Arrival::ack_now`]) and
    /// one per peer drained by [`ReliableSet::acks_due`].  Piggybacked acks
    /// are not counted — they cost no message.
    pub acks_sent: u64,
}

/// Operator-facing snapshot of one link's reliability state
/// ([`ReliableSet::health_rows`]); `srtt`/`rttvar` are zero until the first
/// RTT sample arrives, at which point `rto` starts tracking the estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkHealth {
    /// Peer rank of the link.
    pub peer: u32,
    /// Smoothed round-trip time (ns); 0 before the first sample.
    pub srtt: u64,
    /// Round-trip time variance (ns); 0 before the first sample.
    pub rttvar: u64,
    /// Current base retransmission timeout of the link (ns).
    pub rto: u64,
    /// Messages awaiting acknowledgement on the link.
    pub unacked: u64,
    /// Consecutive silent RTO rounds (the backoff exponent; resets on ack
    /// progress).
    pub silent_rounds: u32,
}

/// One buffered-for-retransmission message with the state the RTT estimator
/// needs: when its *first* transmission left, and whether it has been
/// retransmitted since (Karn's rule disqualifies it from sampling then —
/// an ack for a retransmitted frame is ambiguous about which copy it
/// acknowledges).
#[derive(Debug, Clone)]
struct SentEntry<M> {
    m: M,
    sent_at: u64,
    retransmitted: bool,
}

/// A frame the caller must (re)transmit: message `m` to `peer` with
/// reliability header `(seq, ack)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelFrame<M> {
    /// Destination peer rank.
    pub peer: u32,
    /// The frame's sequence number on the `(local, peer)` link.
    pub seq: u64,
    /// Cumulative ack to piggyback (highest in-order seq received *from*
    /// `peer`).
    pub ack: u64,
    /// The message payload.
    pub m: M,
}

/// What [`ReliableSet::on_data_into`] decided about one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The link's cumulative ack after this arrival.
    pub ack: u64,
    /// True when the arrival was a duplicate and was dropped.
    pub dup: bool,
    /// True when the arrival was a duplicate or left frames parked behind a
    /// gap: the caller must send `ack` (and `gap`) to the peer as a pure ack
    /// **now** (it has been counted in [`RelMetrics::acks_sent`]).  Other
    /// in-order arrivals leave this false — their ack rides the next data
    /// frame to the peer or the batch's [`ReliableSet::acks_due`].
    pub ack_now: bool,
    /// The lowest sequence number still parked after this arrival: every
    /// frame in the open interval `(ack, gap)` is missing, and the peer
    /// feeds the pair to [`ReliableSet::on_gap`].  `None` when nothing is
    /// parked — and for a duplicate, which says nothing new about the gap.
    pub gap: Option<u64>,
}

/// [`ReliableSet::on_data`]'s result: an [`Arrival`] plus the messages it
/// made deliverable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataOutcome<M> {
    /// Messages now deliverable in order (possibly several, when this
    /// arrival filled a gap; empty for duplicates and parked arrivals).
    pub deliver: Vec<M>,
    /// See [`Arrival::ack`].
    pub ack: u64,
    /// See [`Arrival::dup`].
    pub dup: bool,
    /// See [`Arrival::ack_now`].
    pub ack_now: bool,
    /// See [`Arrival::gap`].
    pub gap: Option<u64>,
}

#[derive(Debug)]
struct PeerLink<M> {
    /// Next sequence number to assign (first message is 1).
    next_seq: u64,
    /// Sent but not yet cumulatively acked, oldest first.  Sequence numbers
    /// are contiguous, so entry `i` carries `next_seq - unacked.len() + i`.
    unacked: VecDeque<SentEntry<M>>,
    /// Consecutive silent RTO rounds (resets on ack progress).
    backoff: u32,
    /// Caller-clock deadline of the next retransmission round.
    next_retx_at: u64,
    /// Highest in-order sequence received from the peer.
    recv_cum: u64,
    /// True while `recv_cum` has advanced past what any frame sent to the
    /// peer has carried.
    ack_owed: bool,
    /// Out-of-order arrivals parked until the gap fills.
    parked: BTreeMap<u64, M>,
    /// Smoothed RTT estimate (ns); meaningless until `has_sample`.
    srtt: u64,
    /// RTT variance estimate (ns); meaningless until `has_sample`.
    rttvar: u64,
    /// Current base RTO: `cfg.rto` until the estimator has a sample, then
    /// `clamp(srtt + 4·rttvar, cfg.rto, cfg.rto_max)`.
    cur_rto: u64,
    /// True once the estimator has consumed its first RTT sample.
    has_sample: bool,
}

impl<M: Clone> PeerLink<M> {
    fn new(initial_rto: u64) -> Self {
        PeerLink {
            next_seq: 1,
            unacked: VecDeque::new(),
            backoff: 0,
            next_retx_at: u64::MAX,
            recv_cum: 0,
            ack_owed: false,
            parked: BTreeMap::new(),
            srtt: 0,
            rttvar: 0,
            cur_rto: initial_rto,
            has_sample: false,
        }
    }

    /// Feed one RTT sample through Jacobson's estimator and refresh the
    /// link RTO.  Integer arithmetic, RFC 6298 gains: first sample sets
    /// `srtt = R`, `rttvar = R/2`; afterwards
    /// `rttvar = 3/4·rttvar + 1/4·|srtt − R|`, `srtt = 7/8·srtt + 1/8·R`.
    fn sample_rtt(&mut self, r: u64, cfg: &RelConfig) {
        if self.has_sample {
            self.rttvar = (3 * self.rttvar) / 4 + self.srtt.abs_diff(r) / 4;
            self.srtt = (7 * self.srtt) / 8 + r / 8;
        } else {
            self.srtt = r;
            self.rttvar = r / 2;
            self.has_sample = true;
        }
        self.cur_rto = self
            .srtt
            .saturating_add(4u64.saturating_mul(self.rttvar))
            .clamp(cfg.rto, cfg.rto_max);
    }

    /// Process a cumulative ack: see [`ReliableSet::on_ack`].
    fn on_ack(&mut self, ack: u64, now: u64, cfg: &RelConfig) {
        let base = self.next_seq - self.unacked.len() as u64;
        let covered = (ack.saturating_add(1).saturating_sub(base)).min(self.unacked.len() as u64);
        if covered == 0 {
            return;
        }
        // The most recently sent eligible frame this ack covers is the
        // freshest measurement of the link as it is now.
        let mut sample = None;
        for e in self.unacked.drain(..covered as usize) {
            if !e.retransmitted {
                sample = Some(now.saturating_sub(e.sent_at));
            }
        }
        if let (true, Some(r)) = (cfg.adaptive, sample) {
            self.sample_rtt(r, cfg);
        }
        self.backoff = 0;
        self.next_retx_at = if self.unacked.is_empty() {
            u64::MAX
        } else {
            now.saturating_add(self.cur_rto)
        };
    }

    fn health(&self, peer: u32) -> LinkHealth {
        LinkHealth {
            peer,
            srtt: if self.has_sample { self.srtt } else { 0 },
            rttvar: if self.has_sample { self.rttvar } else { 0 },
            rto: self.cur_rto,
            unacked: self.unacked.len() as u64,
            silent_rounds: self.backoff,
        }
    }

    /// Hand back the frames numbered `seqs` that are still retained (`seqs`
    /// ends at or below `next_seq`) for retransmission, oldest first, with a
    /// fresh cumulative ack — which settles what the link owed — and return
    /// how many.  Each is marked retransmitted so Karn's rule keeps it out
    /// of the RTT estimator for good; `once` skips the frames that already
    /// are.
    fn resend(
        &mut self,
        peer: u32,
        seqs: std::ops::Range<u64>,
        once: bool,
        out: &mut Vec<RelFrame<M>>,
    ) -> u64 {
        let base = self.next_seq - self.unacked.len() as u64;
        let before = out.len();
        for seq in seqs.start.max(base)..seqs.end {
            let entry = &mut self.unacked[(seq - base) as usize];
            if once && entry.retransmitted {
                continue;
            }
            entry.retransmitted = true;
            let (ack, m) = (self.recv_cum, entry.m.clone());
            out.push(RelFrame { peer, seq, ack, m });
        }
        self.ack_owed &= out.len() == before;
        (out.len() - before) as u64
    }
}

/// One node's reliability state across all of its links.
#[derive(Debug)]
pub struct ReliableSet<M> {
    cfg: RelConfig,
    /// Indexed by peer rank; `None` until traffic touches the link.  Rank
    /// order is what [`ReliableSet::tick`] and [`ReliableSet::acks_due`]
    /// visit links in — both feed the chaos engine, whose crash windows
    /// count *global* traffic, so iteration order is part of the
    /// same-seed-same-faults contract.  Callers bound `peer` by the cluster
    /// size before it gets here (the table grows to the largest rank seen).
    peers: Vec<Option<PeerLink<M>>>,
    /// Cumulative counters (public: transports export them).
    pub metrics: RelMetrics,
}

impl<M: Clone> ReliableSet<M> {
    /// Fresh state under the given tunables.
    pub fn new(cfg: RelConfig) -> Self {
        ReliableSet {
            cfg,
            peers: Vec::new(),
            metrics: RelMetrics::default(),
        }
    }

    fn link(&mut self, peer: u32) -> &mut PeerLink<M> {
        let i = peer as usize;
        if i >= self.peers.len() {
            self.peers.resize_with(i + 1, || None);
        }
        let initial_rto = self.cfg.rto;
        self.peers[i].get_or_insert_with(|| PeerLink::new(initial_rto))
    }

    /// Links that have carried traffic, in peer-rank order.
    fn links(&self) -> impl Iterator<Item = (u32, &PeerLink<M>)> {
        self.peers
            .iter()
            .enumerate()
            .filter_map(|(peer, l)| Some((peer as u32, l.as_ref()?)))
    }

    /// Register an outgoing message on the `(local, peer)` link: assigns its
    /// sequence number, buffers it for retransmission and arms the RTO.
    /// Returns the reliability header `(seq, ack)` to attach; the ack is
    /// the piggyback that settles whatever the link owed.
    pub fn send(&mut self, peer: u32, m: M, now: u64) -> (u64, u64) {
        self.send_with(peer, now, |seq, ack| (m, (seq, ack)))
    }

    /// [`ReliableSet::send`] for callers that encode the header into the
    /// message itself: `build(seq, ack)` returns the message to retain and
    /// whatever the caller wants back (typically the frame to transmit).
    pub fn send_with<T>(
        &mut self,
        peer: u32,
        now: u64,
        build: impl FnOnce(u64, u64) -> (M, T),
    ) -> T {
        let link = self.link(peer);
        let (m, out) = build(link.next_seq, link.recv_cum);
        link.next_seq += 1;
        link.ack_owed = false;
        link.unacked.push_back(SentEntry {
            m,
            sent_at: now,
            retransmitted: false,
        });
        if link.next_retx_at == u64::MAX {
            link.next_retx_at = now.saturating_add(link.cur_rto);
        }
        out
    }

    /// Process an arriving data frame from `peer` carrying `(seq, ack)`;
    /// messages that became deliverable are appended to `deliver` in order
    /// (several when this arrival filled a gap, none for duplicates and
    /// parked arrivals).
    pub fn on_data_into(
        &mut self,
        peer: u32,
        seq: u64,
        ack: u64,
        m: M,
        now: u64,
        deliver: &mut Vec<M>,
    ) -> Arrival {
        let cfg = self.cfg;
        let link = self.link(peer);
        link.on_ack(ack, now, &cfg);
        let dup = seq <= link.recv_cum || link.parked.contains_key(&seq);
        let in_order = seq == link.recv_cum + 1;
        if in_order {
            link.recv_cum = seq;
            link.ack_owed = true;
            deliver.push(m);
            while let Some(next) = link.parked.remove(&(link.recv_cum + 1)) {
                link.recv_cum += 1;
                deliver.push(next);
            }
        } else if !dup {
            link.parked.insert(seq, m);
        }
        // A duplicate names no gap, or every spurious copy would provoke
        // another.
        let gap = link.parked.keys().next().copied().filter(|_| !dup);
        let ack_now = dup || gap.is_some();
        if ack_now {
            // The ack leaves now and carries everything owed.
            link.ack_owed = false;
        }
        let ack = link.recv_cum;
        self.metrics.acks_sent += u64::from(ack_now);
        self.metrics.dup_drops += u64::from(dup);
        self.metrics.out_of_order += u64::from(!dup && !in_order);
        Arrival {
            ack,
            dup,
            ack_now,
            gap,
        }
    }

    /// [`ReliableSet::on_data_into`] with a freshly allocated delivery
    /// buffer.
    pub fn on_data(&mut self, peer: u32, seq: u64, ack: u64, m: M, now: u64) -> DataOutcome<M> {
        let mut deliver = Vec::new();
        let a = self.on_data_into(peer, seq, ack, m, now, &mut deliver);
        DataOutcome {
            deliver,
            ack: a.ack,
            dup: a.dup,
            ack_now: a.ack_now,
            gap: a.gap,
        }
    }

    /// End-of-batch ack flush: for every link that still owes its peer an
    /// ack (in-order arrivals since the last frame sent to it), `emit(peer,
    /// cumulative ack)` — one pure ack per peer, in rank order.
    pub fn acks_due(&mut self, mut emit: impl FnMut(u32, u64)) {
        for (peer, link) in self.peers.iter_mut().enumerate() {
            let Some(link) = link else { continue };
            if std::mem::take(&mut link.ack_owed) {
                self.metrics.acks_sent += 1;
                emit(peer as u32, link.recv_cum);
            }
        }
    }

    /// Process a cumulative ack from `peer`: everything at or below `ack`
    /// leaves the retransmission buffer.  Progress resets the backoff *and*
    /// re-arms the RTO from `now` — the link is demonstrably live, so any
    /// surviving gap should be probed at the base timeout instead of
    /// waiting out a stale backed-off deadline.
    ///
    /// When [`RelConfig::adaptive`] is set, the newest newly-acked frame
    /// that was never retransmitted (Karn's rule) contributes one RTT
    /// sample to the link's Jacobson estimator.
    pub fn on_ack(&mut self, peer: u32, ack: u64, now: u64) {
        let cfg = self.cfg;
        self.link(peer).on_ack(ack, now, &cfg);
    }

    /// Process a pure ack from `peer`: `cum` as in [`ReliableSet::on_ack`],
    /// then the gap signal ([`Arrival::gap`]) — every retained frame with
    /// `cum < seq < gap` that has never been retransmitted is appended to
    /// `out` for the caller to re-send, oldest first, so a repeated signal
    /// re-sends nothing.  A lost repair is the RTO's to recover: the timer
    /// restarts at `now` plus the base RTO (backoff untouched) instead of
    /// firing right behind the repair and re-sending the whole window.  A
    /// `gap` the link has not sent (a stale incarnation's, a hostile peer's)
    /// is ignored; one at or below `cum + 1` names nothing.
    pub fn on_gap(
        &mut self,
        peer: u32,
        cum: u64,
        gap: Option<u64>,
        now: u64,
        out: &mut Vec<RelFrame<M>>,
    ) {
        let cfg = self.cfg;
        let link = self.link(peer);
        link.on_ack(cum, now, &cfg);
        let Some(gap) = gap.filter(|&gap| gap < link.next_seq) else {
            return;
        };
        let resent = link.resend(peer, cum.saturating_add(1)..gap, true, out);
        if resent > 0 {
            link.next_retx_at = now.saturating_add(link.cur_rto);
            self.metrics.retransmits += resent;
            self.metrics.fast_retransmits += resent;
        }
    }

    /// Retransmission timer: returns every frame whose link's RTO expired
    /// (all unacked messages of that link, oldest first, with a fresh
    /// cumulative ack), doubling that link's RTO up to the cap.
    pub fn tick(&mut self, now: u64) -> Vec<RelFrame<M>> {
        let mut out = Vec::new();
        let rto_max = self.cfg.rto_max;
        for (peer, link) in self.peers.iter_mut().enumerate() {
            let Some(link) = link else { continue };
            if link.unacked.is_empty() || now < link.next_retx_at {
                continue;
            }
            let base = link.next_seq - link.unacked.len() as u64;
            link.resend(peer as u32, base..link.next_seq, false, &mut out);
            link.backoff = link.backoff.saturating_add(1);
            let delay = link
                .cur_rto
                .saturating_mul(1u64 << link.backoff.min(24))
                .min(rto_max);
            link.next_retx_at = now.saturating_add(delay);
        }
        self.metrics.retransmits += out.len() as u64;
        out
    }

    /// Tear down the link to `peer` as if it had never carried traffic,
    /// returning the unacked messages oldest-first so the caller can
    /// re-register them with [`ReliableSet::send`].
    ///
    /// This is the crash-recovery primitive: a respawned peer starts a
    /// *fresh* sequence space (its receiver expects seq 1, its sender emits
    /// seq 1), so the surviving side must renumber its retained frames and
    /// reset its receive cursor — replaying seq 5..9 at a newborn peer
    /// would park forever behind a gap that no longer exists.  The RTT
    /// estimator resets too: the new process is a new RTT regime.
    pub fn reset_peer(&mut self, peer: u32) -> Vec<M> {
        match self.peers.get_mut(peer as usize).and_then(Option::take) {
            Some(link) => link.unacked.into_iter().map(|e| e.m).collect(),
            None => Vec::new(),
        }
    }

    /// Total messages awaiting acknowledgement across all links.
    pub fn unacked_total(&self) -> u64 {
        self.links().map(|(_, l)| l.unacked.len() as u64).sum()
    }

    /// Per-link reliability health, in peer-rank order, without allocating.
    /// Links exist once traffic has touched them; a never-used peer has no
    /// row.
    pub fn health_rows(&self) -> impl Iterator<Item = LinkHealth> + '_ {
        self.links().map(|(peer, l)| l.health(peer))
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use tc_simnet::SplitMix64;

    /// What only these tests ask of a set: when its next timer fires, and
    /// one link's health.
    impl<M: Clone> ReliableSet<M> {
        /// Caller-clock instant of the earliest armed RTO (`None` when
        /// nothing is outstanding).
        fn next_deadline(&self) -> Option<u64> {
            self.links()
                .filter(|(_, l)| !l.unacked.is_empty())
                .map(|(_, l)| l.next_retx_at)
                .min()
        }

        fn peer_health(&self, peer: u32) -> Option<LinkHealth> {
            self.health_rows().find(|h| h.peer == peer)
        }
    }

    const CFG: RelConfig = RelConfig {
        rto: 100,
        rto_max: 1_000,
        adaptive: true,
    };

    /// A wide adaptive window so estimator trajectories are visible: the
    /// floor is 10 ns, the cap 1 s.
    const ADAPTIVE: RelConfig = RelConfig {
        rto: 10,
        rto_max: 1_000_000_000,
        adaptive: true,
    };

    #[test]
    fn in_order_delivery_and_ack_clears_buffer() {
        let mut a: ReliableSet<&'static str> = ReliableSet::new(CFG);
        let mut b: ReliableSet<&'static str> = ReliableSet::new(CFG);
        let (s1, _) = a.send(1, "x", 0);
        let (s2, _) = a.send(1, "y", 0);
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(a.unacked_total(), 2);

        let o1 = b.on_data(0, s1, 0, "x", 0);
        assert_eq!(o1.deliver, vec!["x"]);
        assert_eq!(o1.ack, 1);
        let o2 = b.on_data(0, s2, 0, "y", 0);
        assert_eq!(o2.deliver, vec!["y"]);
        assert_eq!(o2.ack, 2);

        a.on_ack(1, 2, 0);
        assert_eq!(a.unacked_total(), 0);
        assert_eq!(a.next_deadline(), None);
    }

    #[test]
    fn reorder_is_parked_then_released_in_order() {
        let mut b: ReliableSet<u32> = ReliableSet::new(CFG);
        let late = b.on_data(0, 2, 0, 22, 0);
        assert!(late.deliver.is_empty());
        assert_eq!(late.ack, 0, "cumulative ack cannot pass the gap");
        assert!(!late.dup);
        let first = b.on_data(0, 1, 0, 11, 0);
        assert_eq!(first.deliver, vec![11, 22], "gap fill releases both");
        assert_eq!(first.ack, 2);
        assert_eq!(b.metrics.out_of_order, 1);
    }

    #[test]
    fn duplicates_are_dropped_but_reacked() {
        let mut b: ReliableSet<u32> = ReliableSet::new(CFG);
        assert_eq!(b.on_data(0, 1, 0, 5, 0).deliver, vec![5]);
        let dup = b.on_data(0, 1, 0, 5, 0);
        assert!(dup.dup);
        assert!(dup.deliver.is_empty());
        assert_eq!(dup.ack, 1, "the ack still travels so the sender stops");
        assert_eq!(b.metrics.dup_drops, 1);
        // A parked message re-arriving is also a duplicate.
        assert!(!b.on_data(0, 3, 0, 7, 0).dup);
        assert!(b.on_data(0, 3, 0, 7, 0).dup);
    }

    #[test]
    fn tick_retransmits_with_bounded_backoff() {
        let mut a: ReliableSet<&'static str> = ReliableSet::new(CFG);
        let _ = a.send(1, "m", 0);
        assert!(a.tick(50).is_empty(), "RTO not expired yet");
        let r1 = a.tick(100);
        assert_eq!(r1.len(), 1);
        assert_eq!((r1[0].peer, r1[0].seq), (1, 1));
        // Backoff doubles: next at 100 + 200.
        assert!(a.tick(250).is_empty());
        assert_eq!(a.tick(300).len(), 1);
        // Cap: after enough rounds the inter-retransmit delay pins to
        // rto_max.
        let mut last_now = 0;
        for _ in 0..10 {
            let now = a.next_deadline().unwrap();
            assert!(!a.tick(now).is_empty());
            last_now = now;
        }
        assert_eq!(a.next_deadline().unwrap(), last_now + CFG.rto_max);
        assert_eq!(a.metrics.retransmits, 12);
    }

    /// `n` frames posted at time 0 on `a`'s link to rank 1.
    fn burst(a: &mut ReliableSet<u64>, n: u64) {
        for m in 1..=n {
            assert_eq!(a.send(1, m, 0).0, m);
        }
    }

    /// Feed `b` the frame `seq` of [`burst`] and, when it acks at once, hand
    /// that ack to `a`: the frames `a` re-sends on it.
    fn arrive(a: &mut ReliableSet<u64>, b: &mut ReliableSet<u64>, seq: u64, now: u64) -> Vec<u64> {
        let mut got = Vec::new();
        let arrival = b.on_data_into(0, seq, 0, seq, now, &mut got);
        let mut out = Vec::new();
        if arrival.ack_now {
            a.on_gap(1, arrival.ack, arrival.gap, now, &mut out);
        }
        assert!(out.iter().all(|f| f.peer == 1 && f.m == f.seq));
        out.iter().map(|f| f.seq).collect()
    }

    #[test]
    fn a_gap_signal_resends_the_lost_frame_once_and_no_parked_one() {
        let mut a: ReliableSet<u64> = ReliableSet::new(CFG);
        let mut b: ReliableSet<u64> = ReliableSet::new(CFG);
        burst(&mut a, 8);
        // Frame 1 is lost.  The first arrival behind it names the gap and
        // gets the repair; the next six name the same gap and get nothing —
        // least of all a frame the receiver already holds.
        assert_eq!(arrive(&mut a, &mut b, 2, 10), [1]);
        for seq in 3..=8 {
            assert_eq!(arrive(&mut a, &mut b, seq, 10 + seq), [], "seq {seq}");
        }
        assert_eq!(a.metrics.retransmits, 1);
        assert_eq!(a.metrics.fast_retransmits, 1);
        assert_eq!((b.metrics.out_of_order, b.metrics.acks_sent), (7, 7));
        // The repair fills the gap: everything is delivered and nothing is
        // parked, so the ack waits for the batch like any in-order one.
        let mut got = Vec::new();
        let arrival = b.on_data_into(0, 1, 0, 1, 30, &mut got);
        assert_eq!(got, (1..=8).collect::<Vec<_>>());
        assert_eq!(
            (arrival.ack, arrival.ack_now, arrival.gap),
            (8, false, None)
        );
    }

    #[test]
    fn two_losses_in_one_window_are_repaired_without_the_timer() {
        let mut a: ReliableSet<u64> = ReliableSet::new(CFG);
        let mut b: ReliableSet<u64> = ReliableSet::new(CFG);
        burst(&mut a, 8);
        // Frames 3 and 6 are lost.
        for (seq, repaired) in [(1, vec![]), (2, vec![]), (4, vec![3]), (5, vec![])] {
            assert_eq!(arrive(&mut a, &mut b, seq, 10), repaired, "seq {seq}");
        }
        for seq in [7, 8] {
            assert_eq!(arrive(&mut a, &mut b, seq, 11), [], "6 is not below gap 4");
        }
        // The repair of 3 arrives in order and releases 4 and 5 — but 7 and
        // 8 stay parked, so it is acked at once and names the second gap.
        let mut got = Vec::new();
        let arrival = b.on_data_into(0, 3, 0, 3, 20, &mut got);
        assert_eq!(got, [3, 4, 5]);
        assert_eq!(
            (arrival.ack, arrival.ack_now, arrival.gap),
            (5, true, Some(7))
        );
        // One pure ack per arrival: the immediate one settled the link.
        b.acks_due(|_, _| panic!("the gap ack was the arrival's ack"));
        assert_eq!(b.metrics.acks_sent, 5);
        let mut out = Vec::new();
        a.on_gap(1, arrival.ack, arrival.gap, 21, &mut out);
        assert_eq!(out.iter().map(|f| f.seq).collect::<Vec<_>>(), [6]);
        assert_eq!(arrive(&mut a, &mut b, 6, 30), []);
        b.acks_due(|_, ack| a.on_ack(1, ack, 31));
        assert_eq!(a.unacked_total(), 0);
        assert_eq!((a.metrics.retransmits, a.metrics.fast_retransmits), (2, 2));
        assert_eq!(b.metrics.dup_drops, 0);
    }

    #[test]
    fn a_duplicates_ack_names_no_gap_and_resends_nothing() {
        let mut a: ReliableSet<u64> = ReliableSet::new(CFG);
        let mut b: ReliableSet<u64> = ReliableSet::new(CFG);
        burst(&mut a, 4);
        let mut got = Vec::new();
        // 3 is missing and 4 parked — its gap ack never reaches the sender.
        for seq in [1, 2, 4] {
            b.on_data_into(0, seq, 0, seq, 10, &mut got);
        }
        // Spurious copies, of a delivered frame and of the parked one, are
        // acked at once but say nothing about the gap.
        for seq in [2, 4] {
            let arrival = b.on_data_into(0, seq, 0, seq, 11, &mut got);
            assert_eq!(
                (arrival.dup, arrival.ack, arrival.ack_now, arrival.gap),
                (true, 2, true, None)
            );
            let mut out = Vec::new();
            a.on_gap(1, arrival.ack, arrival.gap, 12, &mut out);
            assert!(out.is_empty(), "a copy provoked a copy");
        }
        assert_eq!((a.unacked_total(), a.metrics.retransmits), (2, 0));
    }

    #[test]
    fn a_fast_retransmitted_frame_never_feeds_the_estimator() {
        let mut a: ReliableSet<u64> = ReliableSet::new(ADAPTIVE);
        let mut now = 0u64;
        let h0 = round_trip(&mut a, &mut now, 1_000);
        let _ = a.send(1, 2, now); // seq 2: lost
        let _ = a.send(1, 3, now); // seq 3: arrives, parks, names the gap
        let mut out = Vec::new();
        a.on_gap(1, 1, Some(3), now + 1_000, &mut out);
        assert_eq!(out.len(), 1);
        // The ack for the repair is ambiguous about which copy it answers.
        a.on_ack(1, 2, now + 1_000_000);
        let h1 = a.peer_health(1).unwrap();
        assert_eq!(
            (h1.srtt, h1.rttvar, h1.rto, h1.unacked),
            (h0.srtt, h0.rttvar, h0.rto, 1)
        );
    }

    #[test]
    fn a_lost_repair_is_the_timers_one_rto_after_the_repair() {
        let mut a: ReliableSet<u64> = ReliableSet::new(CFG);
        burst(&mut a, 2);
        assert_eq!(a.next_deadline(), Some(100));
        // The repair carries whatever ack the link owes, like any data frame.
        assert_eq!(a.on_data(1, 1, 0, 9, 50).deliver, [9]);
        let mut out = Vec::new();
        a.on_gap(1, 0, Some(2), 60, &mut out);
        assert_eq!((out.len(), out[0].ack), (1, 1));
        a.acks_due(|_, _| panic!("the repair carried the ack"));
        // The timer that was about to fire does not re-send the window right
        // behind the repair...
        assert_eq!(a.next_deadline(), Some(160));
        // ...a repeated signal does not push it out again...
        a.on_gap(1, 0, Some(2), 90, &mut out);
        assert_eq!((out.len(), a.next_deadline()), (1, Some(160)));
        assert!(a.tick(100).is_empty());
        // ...and it is what recovers the repair if that is lost too.
        let seqs: Vec<u64> = a.tick(160).iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [1, 2]);
        assert_eq!((a.metrics.retransmits, a.metrics.fast_retransmits), (3, 1));

        // The restart uses the base RTO and leaves the backoff alone: one
        // silent round on the books stays on the books.
        let _ = a.send(1, 3, 170); // 1 and 2 are marked, 3 is fresh
        let _ = a.send(1, 4, 170);
        assert_eq!(a.peer_health(1).unwrap().silent_rounds, 1);
        assert_eq!(a.next_deadline(), Some(160 + 200));
        out.clear();
        a.on_gap(1, 0, Some(4), 200, &mut out);
        assert_eq!(out.iter().map(|f| f.seq).collect::<Vec<_>>(), [3]);
        assert_eq!(a.next_deadline(), Some(200 + CFG.rto));
        assert_eq!(a.peer_health(1).unwrap().silent_rounds, 1);
    }

    #[test]
    fn stale_and_out_of_range_gaps_are_ignored_after_the_ack_is_applied() {
        let mut a: ReliableSet<u64> = ReliableSet::new(CFG);
        burst(&mut a, 4);
        a.on_ack(1, 1, 5); // retained: 2, 3, 4
        let mut out = Vec::new();
        // Beyond what the link has sent; at or below `cum + 1`.
        for (cum, gap) in [(1, 5), (1, u64::MAX), (1, 2), (1, 1), (1, 0)] {
            a.on_gap(1, cum, Some(gap), 10, &mut out);
            assert!(out.is_empty(), "({cum}, {gap}) re-sent {out:?}");
            assert_eq!(a.unacked_total(), 3);
        }
        // A link that never carried traffic, and one torn down since.
        a.on_gap(7, 0, Some(3), 10, &mut out);
        let mut c: ReliableSet<u64> = ReliableSet::new(CFG);
        burst(&mut c, 4);
        assert_eq!(c.reset_peer(1).len(), 4);
        c.on_gap(1, 1, Some(4), 10, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // A cumulative ack older than the link's: only what is still
        // retained is in range.
        a.on_gap(1, 0, Some(3), 10, &mut out);
        assert_eq!(out.iter().map(|f| f.seq).collect::<Vec<_>>(), [2]);
        // The ack part is applied even when the gap part is nonsense.
        a.on_gap(1, 3, Some(2), 11, &mut out);
        assert_eq!((out.len(), a.unacked_total()), (1, 1));
        a.on_gap(1, u64::MAX, Some(u64::MAX), 12, &mut out);
        assert_eq!((out.len(), a.unacked_total()), (1, 0));
        assert_eq!(a.metrics.retransmits, 1);
    }

    #[test]
    fn ack_progress_resets_backoff() {
        let mut a: ReliableSet<u32> = ReliableSet::new(CFG);
        let _ = a.send(1, 1, 0);
        let _ = a.send(1, 2, 0);
        let _ = a.tick(100); // round 1: backoff 1
        let _ = a.tick(300); // round 2: backoff 2
        a.on_ack(1, 1, 500); // partial progress
        assert_eq!(a.unacked_total(), 1);
        // Next tick retransmits only the survivor...
        let r = a.tick(u64::MAX / 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].seq, 2);
    }

    #[derive(Clone)]
    enum Pkt {
        Data { seq: u64, ack: u64, m: u64 },
        Ack(u64, Option<u64>),
    }

    /// The faulty medium of the property tests (here and in `link.rs`):
    /// `(drop, duplicate, reorder)` rates in percent, and how many packets
    /// it has dropped and how many it has let a later one overtake so far.
    pub(in crate::cluster) struct Net {
        pub rng: SplitMix64,
        pub faults: (u64, u64, u64),
        pub dropped: u64,
        pub overtaken: u64,
    }

    impl Net {
        pub fn new(seed: u64, faults: (u64, u64, u64)) -> Net {
            Net {
                rng: SplitMix64::new(seed),
                faults,
                dropped: 0,
                overtaken: 0,
            }
        }

        /// The fault rates of generated schedule `n`: every third lossless,
        /// every third drop-only, every third mixed.
        pub fn schedule(rng: &mut SplitMix64, n: u64) -> (u64, u64, u64) {
            match n % 3 {
                0 => (0, 0, 0),
                1 => (1 + rng.below(29), 0, 0),
                _ => (rng.below(30), rng.below(30), rng.below(30)),
            }
        }

        pub fn ship<P: Clone>(&mut self, wire: &mut VecDeque<P>, p: P) {
            let (drop, dup, reorder) = self.faults;
            if self.rng.below(100) < drop {
                self.dropped += 1;
                return;
            }
            for _ in 0..1 + u64::from(self.rng.below(100) < dup) {
                let at = if self.rng.below(100) < reorder {
                    self.rng.below(wire.len() as u64 + 1) as usize
                } else {
                    wire.len()
                };
                self.overtaken += (wire.len() - at) as u64;
                wire.insert(at, p.clone());
            }
        }
    }

    /// One side of the two-node link the property test drives.
    struct Side {
        set: ReliableSet<u64>,
        /// The wire toward this side.
        inbox: VecDeque<Pkt>,
        got: Vec<u64>,
        posted: u64,
        pure_acks: u64,
        batches: u64,
    }

    const TOTAL: u64 = 40; // messages each side posts

    impl Side {
        /// Post the next application message.
        fn post(&mut self, peer: u32, now: u64, net: &mut Net, out: &mut VecDeque<Pkt>) {
            let (seq, ack) = self.set.send(peer, self.posted, now);
            net.ship(
                out,
                Pkt::Data {
                    seq,
                    ack,
                    m: self.posted,
                },
            );
            self.posted += 1;
        }

        /// One turn the way a backend drives its set: everything inbound in
        /// randomly sized batches (`acks_due` at each boundary, immediate
        /// acks when told to, an occasional mid-batch answer for the
        /// piggyback path), then a few fresh posts and the timer.
        fn turn(&mut self, peer: u32, now: u64, net: &mut Net, out: &mut VecDeque<Pkt>) {
            while !self.inbox.is_empty() {
                self.batches += 1;
                for _ in 0..net.rng.range(1, self.inbox.len() as u64 + 1) {
                    match self.inbox.pop_front().unwrap() {
                        Pkt::Ack(ack, gap) => {
                            let mut repairs = Vec::new();
                            self.set.on_gap(peer, ack, gap, now, &mut repairs);
                            for f in repairs {
                                assert!(ack < f.seq && f.seq < gap.unwrap(), "named missing");
                                let (seq, ack, m) = (f.seq, f.ack, f.m);
                                net.ship(out, Pkt::Data { seq, ack, m });
                            }
                        }
                        Pkt::Data { seq, ack, m } => {
                            let before = self.got.len();
                            let got = &mut self.got;
                            let arr = self.set.on_data_into(peer, seq, ack, m, now, got);
                            assert_eq!(arr.ack, self.got.len() as u64);
                            assert_eq!(arr.dup, self.got.len() == before && arr.gap.is_none());
                            assert_eq!(arr.ack_now, arr.dup || arr.gap.is_some());
                            assert!(arr.gap.is_none_or(|gap| gap > arr.ack + 1));
                            if arr.ack_now {
                                self.pure_acks += 1;
                                net.ship(out, Pkt::Ack(arr.ack, arr.gap));
                            }
                        }
                    }
                    if self.posted < TOTAL && net.rng.below(3) == 0 {
                        self.post(peer, now, net, out);
                    }
                }
                let mut due = 0;
                self.set.acks_due(|to, ack| {
                    assert_eq!(to, peer);
                    due += 1;
                    net.ship(out, Pkt::Ack(ack, None));
                });
                assert!(due <= 1, "one pure ack per peer per batch");
                self.pure_acks += due;
            }
            for _ in 0..net.rng.below(4).min(TOTAL - self.posted) {
                self.post(peer, now, net, out);
            }
            for f in self.set.tick(now) {
                let (seq, ack, m) = (f.seq, f.ack, f.m);
                net.ship(out, Pkt::Data { seq, ack, m });
            }
        }
    }

    /// The ack rule under 240 generated drop/duplicate/reorder/batch-boundary
    /// schedules between two `ReliableSet`s.
    #[test]
    fn ack_rule_holds_under_generated_schedules() {
        let mut rng = SplitMix64::new(0xACED);
        let (mut lossy_retx, mut lossy_fast, mut lossy_dups) = (0, 0, 0);
        for schedule in 0..240u64 {
            let faults = Net::schedule(&mut rng, schedule);
            let mut net = Net::new(rng.next_u64(), faults);
            let mut sides = [0, 1].map(|_| Side {
                set: ReliableSet::new(CFG),
                inbox: VecDeque::new(),
                got: Vec::new(),
                posted: 0,
                pure_acks: 0,
                batches: 0,
            });
            let (mut now, mut turns) = (0u64, 0);
            let busy = |s: &Side| s.posted < TOTAL || s.set.unacked_total() > 0;
            while sides.iter().any(busy) {
                turns += 1;
                assert!(
                    turns < 20_000,
                    "schedule {schedule} {faults:?} never drained"
                );
                let [a, b] = &mut sides;
                a.turn(1, now, &mut net, &mut b.inbox);
                b.turn(0, now, &mut net, &mut a.inbox);
                now += 1;
                // Nothing in flight: jump to the next retransmission.
                if sides.iter().all(|s| s.inbox.is_empty()) {
                    let next = sides.iter().filter_map(|s| s.set.next_deadline()).min();
                    now = now.max(next.unwrap_or(now));
                }
            }
            for s in &sides {
                let m = s.set.metrics;
                assert_eq!(
                    s.got,
                    (0..TOTAL).collect::<Vec<_>>(),
                    "exactly once, in order"
                );
                assert_eq!(s.set.unacked_total(), 0);
                assert_eq!(m.acks_sent, s.pure_acks, "counts the pure acks emitted");
                if faults == (0, 0, 0) {
                    assert_eq!(m.retransmits, 0, "schedule {schedule}");
                    assert_eq!(m.dup_drops + m.out_of_order, 0);
                    assert!(s.pure_acks <= s.batches);
                } else {
                    lossy_retx += m.retransmits;
                    lossy_dups += m.dup_drops;
                }
            }
            // Every gap-signalled copy answers a frame the medium really
            // dropped or let a later one overtake: without reordering no
            // fast retransmit is spurious, and none is ever repeated.
            let fast: u64 = sides.iter().map(|s| s.set.metrics.fast_retransmits).sum();
            assert!(
                fast <= net.dropped + net.overtaken,
                "schedule {schedule} {faults:?}: {fast} fast retransmits for {} drops, {} overtaken",
                net.dropped,
                net.overtaken
            );
            lossy_fast += fast;
        }
        assert!(
            lossy_retx > lossy_fast && lossy_fast > 0 && lossy_dups > 0,
            "the faults must bite, and both recovery paths must run"
        );
    }

    /// Drive one send/ack round trip with the given RTT and return the
    /// link's health afterwards.
    fn round_trip(a: &mut ReliableSet<u64>, now: &mut u64, rtt: u64) -> LinkHealth {
        let (seq, _) = a.send(1, *now, *now);
        *now += rtt;
        a.on_ack(1, seq, *now);
        a.peer_health(1).unwrap()
    }

    #[test]
    fn srtt_converges_within_16_acks_on_a_stable_link() {
        let mut a: ReliableSet<u64> = ReliableSet::new(ADAPTIVE);
        let mut now = 0u64;
        let mut h = LinkHealth::default();
        for _ in 0..16 {
            h = round_trip(&mut a, &mut now, 5_000);
        }
        assert_eq!(h.srtt, 5_000, "constant RTT converges exactly");
        assert!(
            h.rttvar <= 5_000 / 64,
            "variance must decay below 2% of the initial R/2 within 16 acks \
             (got {})",
            h.rttvar
        );
        assert_eq!(h.rto, 5_000 + 4 * h.rttvar, "RTO tracks srtt + 4·rttvar");
        assert_eq!(h.unacked, 0);
        assert_eq!(h.silent_rounds, 0);
        // The integer 3/4 decay reaches exactly zero a few dozen rounds in.
        for _ in 0..48 {
            h = round_trip(&mut a, &mut now, 5_000);
        }
        assert_eq!(h.rttvar, 0, "variance fully decays on a stable link");
        assert_eq!(h.rto, 5_000);
    }

    #[test]
    fn karn_rule_retransmitted_frames_never_feed_the_estimator() {
        let mut a: ReliableSet<u64> = ReliableSet::new(ADAPTIVE);
        // Establish a baseline estimate from one clean sample.
        let mut now = 0u64;
        let h0 = round_trip(&mut a, &mut now, 1_000);
        assert_eq!(h0.srtt, 1_000);
        // Next frame goes silent long enough to be retransmitted; the ack
        // then arrives absurdly late.  Karn's rule must ignore that sample —
        // the ack is ambiguous about which transmission it answers.
        let (seq, _) = a.send(1, 7, now);
        let deadline = a.next_deadline().unwrap();
        assert_eq!(a.tick(deadline).len(), 1);
        now = deadline + 1_000_000;
        a.on_ack(1, seq, now);
        let h1 = a.peer_health(1).unwrap();
        assert_eq!(h1.srtt, h0.srtt, "retransmitted frame sampled the RTT");
        assert_eq!(h1.rttvar, h0.rttvar);
        assert_eq!(h1.rto, h0.rto);
        // A clean round trip afterwards samples again.
        let h2 = round_trip(&mut a, &mut now, 1_000);
        assert_eq!(h2.srtt, 1_000);
    }

    #[test]
    fn cumulative_ack_samples_newest_unretransmitted_frame() {
        let mut a: ReliableSet<u64> = ReliableSet::new(ADAPTIVE);
        let _ = a.send(1, 1, 0); // seq 1, sent at 0
        let _ = a.send(1, 2, 400); // seq 2, sent at 400
        a.on_ack(1, 2, 500);
        let h = a.peer_health(1).unwrap();
        assert_eq!(
            h.srtt, 100,
            "the freshest covered frame (seq 2, RTT 100) is the sample, \
             not the older seq 1 (RTT 500)"
        );
    }

    #[test]
    fn delay_spike_widens_then_retightens_the_rto() {
        let mut a: ReliableSet<u64> = ReliableSet::new(ADAPTIVE);
        let mut now = 0u64;
        for _ in 0..16 {
            round_trip(&mut a, &mut now, 1_000);
        }
        let calm = a.peer_health(1).unwrap().rto;
        assert!(
            calm < 1_100,
            "16 constant rounds settle the RTO near srtt (got {calm})"
        );
        // A burst of 10× RTTs: the variance term must push the RTO well
        // above the old estimate.
        let mut spiked = 0;
        for _ in 0..4 {
            spiked = round_trip(&mut a, &mut now, 10_000).rto;
        }
        assert!(
            spiked > 4 * calm,
            "spike must widen the RTO (calm {calm}, spiked {spiked})"
        );
        // Back to calm RTTs: the estimator re-tightens toward the base.
        let mut settled = spiked;
        for _ in 0..64 {
            settled = round_trip(&mut a, &mut now, 1_000).rto;
        }
        assert!(
            settled < spiked / 2,
            "RTO must re-tighten after the spike (spiked {spiked}, settled {settled})"
        );
    }

    #[test]
    fn fixed_mode_never_moves_the_rto() {
        let mut a: ReliableSet<u64> = ReliableSet::new(ADAPTIVE.fixed());
        let mut now = 0u64;
        for rtt in [5_000u64, 50_000, 500] {
            let h = round_trip(&mut a, &mut now, rtt);
            assert_eq!(h.rto, ADAPTIVE.rto, "fixed mode pins the RTO");
            assert_eq!(h.srtt, 0, "fixed mode takes no samples");
        }
    }

    #[test]
    fn adaptive_rto_arms_retransmission_from_the_estimate() {
        let mut a: ReliableSet<u64> = ReliableSet::new(ADAPTIVE);
        let mut now = 0u64;
        round_trip(&mut a, &mut now, 2_000);
        // srtt = 2000, rttvar = 1000 → rto = 6000.
        let (_, _) = a.send(1, 9, now);
        assert_eq!(a.next_deadline().unwrap(), now + 6_000);
    }

    #[test]
    fn reset_peer_renumbers_retained_frames_for_a_reborn_peer() {
        let mut a: ReliableSet<u64> = ReliableSet::new(CFG);
        let mut b: ReliableSet<u64> = ReliableSet::new(CFG);
        // Deliver 1..=3, then leave 4 and 5 unacked when the peer "dies".
        for i in 1..=5u64 {
            let (seq, _) = a.send(1, i * 10, 0);
            if i <= 3 {
                let out = b.on_data(0, seq, 0, i * 10, 0);
                a.on_ack(1, out.ack, 0);
            }
        }
        assert_eq!(a.unacked_total(), 2);
        // The peer restarts with fresh state; replay through a reset link.
        let mut b2: ReliableSet<u64> = ReliableSet::new(CFG);
        let retained = a.reset_peer(1);
        assert_eq!(retained, vec![40, 50], "unacked survive oldest-first");
        let mut delivered = Vec::new();
        for m in retained {
            let (seq, _) = a.send(1, m, 0);
            delivered.extend(b2.on_data(0, seq, 0, m, 0).deliver);
        }
        assert_eq!(delivered, vec![40, 50], "renumbered from seq 1");
        assert_eq!(b2.peer_health(0).unwrap().unacked, 0);
    }
}
