//! What a running cluster knows about itself, in one plain, dumpable shape.
//!
//! A [`Snapshot`] is filled by one non-blocking [`super::Transport::observe`]
//! per backend from state the driver already holds — nothing here crosses
//! the control plane, so it answers while a server rank is dead or mid-heal —
//! and is surfaced as [`super::Cluster::snapshot`].  Its `Display` is the one
//! dump; [`super::TransportMetrics`] is [`Snapshot::totals`].

use super::link::Digest;
use super::reliable::{LinkHealth, ReliableSet};
use super::TransportMetrics;
use crate::metrics::RuntimeStats;
use std::collections::VecDeque;
use std::fmt;
use tc_chaos::ChaosStats;

/// Everything the driver can say about its cluster without asking anyone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// [`super::Transport::backend_name`].
    pub backend: &'static str,
    /// When it was taken, in nanoseconds: virtual time on the simulated
    /// backend, the wall clock [`Event::at`] reads on the others.
    pub now_nanos: u64,
    /// Messages the fabric delivered to a destination node.
    pub delivered: u64,
    /// Messages the fabric dropped (misaddressed rank, stopped node).
    pub dropped: u64,
    /// Injected-fault counters (`None` without a fault plan).
    pub chaos: Option<ChaosStats>,
    /// Arrived-but-unclaimed completions (the [`super::Cluster`] fills it).
    pub pending_claims: usize,
    /// One entry per rank, in rank order: clients first, then servers.
    pub ranks: Vec<RankSnapshot>,
    /// Non-fatal errors collected so far (the backend's `errors()` has them).
    pub errors: usize,
    /// Server ranks brought back into service after a death.
    pub heals: u64,
    /// The last (at most 256) driver-side state transitions, oldest first.
    pub events: Vec<Event>,
}

/// One rank of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSnapshot {
    /// The rank's fabric address.
    pub rank: u32,
    /// Whether the driver can reach it.
    pub state: RankState,
    /// The rank's reliability digest — a client's own, a server's as last
    /// published (`None` without a fault plan).
    pub digest: Option<Digest>,
    /// Every per-link health row the driver holds: all of a client's links;
    /// of a rank elsewhere, the most-stressed one its digest carries.
    pub links: Vec<LinkHealth>,
    /// Runtime counters, of a client rank (ranks `0..client_count`, carried
    /// by the driver) only: a server's are a barrier read behind its data
    /// plane, [`super::Cluster::stats`], never taken here.
    pub stats: Option<RuntimeStats>,
}

impl RankSnapshot {
    /// A rank whose reliable layer the driver holds itself: every link row.
    pub(crate) fn local<M: Clone>(
        rank: u32,
        stats: Option<RuntimeStats>,
        rel: Option<&ReliableSet<M>>,
    ) -> Self {
        RankSnapshot {
            rank,
            state: RankState::Live,
            digest: rel.map(Digest::of),
            links: rel.map_or_else(Vec::new, |rel| rel.health_rows().collect()),
            stats,
        }
    }

    /// A server rank elsewhere: the driver holds the digest it last published.
    pub fn server(rank: usize, state: RankState, digest: Option<Digest>) -> Self {
        RankSnapshot {
            rank: rank as u32,
            state,
            digest,
            links: digest.and_then(|d| d.health).into_iter().collect(),
            stats: None,
        }
    }
}

/// Whether the driver can reach a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankState {
    /// In service.
    Live,
    /// Lost, with a respawn or rejoin still pending.
    Recovering,
    /// Lost for good: it is in [`super::Transport::failed_ranks`].
    Failed,
}

/// One driver-side state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When, on the wall-clock backends' [`Snapshot::now_nanos`] clock.
    pub at: u64,
    /// The rank it concerns (`None`: the cluster as a whole).
    pub rank: Option<u32>,
    /// What happened.
    pub kind: EventKind,
}

/// The vocabulary of [`Snapshot::events`]: decisions no counter records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The link to a server rank failed with this error; it is dead until healed.
    PeerLost(String),
    /// A liveness PING went unanswered (a `PeerLost` follows).
    PingTimeout,
    /// The rank's process is respawned: attempt `n` since its last heal.
    Respawn(u32),
    /// A dialing server passed HELLO / WELCOME and was given the rank.
    Admit,
    /// Recovery of an admitted rank began (AM catalog, memory writes).
    HealStart,
    /// The rank is back in service; the clients re-sent this many frames.
    HealDone(u64),
    /// No respawn attempts are left: the rank is terminally failed.
    RespawnBudgetExhausted,
    /// A full step of silence with frames unacked: waits are kept alive.
    StallEntered,
    /// The stall horizon passed without an ack: waits may time out.
    StallGivenUp,
}

impl Snapshot {
    /// The cluster-wide sums [`super::Transport::metrics`] reports.
    pub fn totals(&self) -> TransportMetrics {
        let mut m = TransportMetrics {
            messages_delivered: self.delivered,
            messages_dropped: self.dropped,
            faults_injected: self.chaos.map_or(0, |c| c.total_injected()),
            ..TransportMetrics::default()
        };
        for rank in &self.ranks {
            m.bytes_sent += rank.stats.map_or(0, |s| s.bytes_sent);
            let rel = rank.digest.unwrap_or_default().metrics;
            m.retransmits += rel.retransmits;
            m.fast_retransmits += rel.fast_retransmits;
            m.dup_drops += rel.dup_drops;
        }
        m
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        let now = ms(self.now_nanos);
        writeln!(f, "{} cluster at {now:.3} ms", self.backend)?;
        write!(f, "  delivered {} dropped {}", self.delivered, self.dropped)?;
        write!(f, " pending claims {}", self.pending_claims)?;
        writeln!(f, " errors {} heals {}", self.errors, self.heals)?;
        if let Some(chaos) = &self.chaos {
            writeln!(f, "  chaos: {chaos:?}")?;
        }
        for r in &self.ranks {
            let role = r.stats.map_or("server", |_| "client");
            writeln!(f, "  rank {} {role} {:?}", r.rank, r.state)?;
            if let Some(d) = &r.digest {
                writeln!(f, "    unacked {}, {:?}", d.unacked, d.metrics)?;
            }
            for link in &r.links {
                writeln!(f, "    {link:?}")?;
            }
            if let Some(stats) = &r.stats {
                writeln!(f, "    {stats:?}")?;
            }
        }
        for e in &self.events {
            let rank = e.rank.map_or("cluster".into(), |r| format!("rank {r}"));
            writeln!(f, "  [{:.3} ms] {rank}: {:?}", ms(e.at), e.kind)?;
        }
        Ok(())
    }
}

/// The bounded, always-on log behind [`Snapshot::events`].
#[derive(Debug, Default)]
pub(crate) struct EventRing(VecDeque<Event>);

impl EventRing {
    const CAPACITY: usize = 256;

    /// Record a transition, stamped on the wall-clock backends' clock.  A
    /// repeat of the latest entry is no transition and is not recorded twice.
    pub(crate) fn push(&mut self, rank: Option<u32>, kind: EventKind) {
        if matches!(self.0.back(), Some(last) if last.rank == rank && last.kind == kind) {
            return;
        }
        if self.0.len() == Self::CAPACITY {
            self.0.pop_front();
        }
        let at = super::link::wall_nanos();
        self.0.push_back(Event { at, rank, kind });
    }

    pub(crate) fn to_vec(&self) -> Vec<Event> {
        self.0.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_keeps_the_newest_256_transitions_and_no_repeats() {
        let mut ring = EventRing::default();
        for attempt in 1..=300 {
            for _ in 0..2 {
                ring.push(Some(3), EventKind::Respawn(attempt));
            }
        }
        let events = ring.to_vec();
        assert_eq!(events.len(), EventRing::CAPACITY);
        assert_eq!(events[0].kind, EventKind::Respawn(45));
        assert_eq!(events[255].kind, EventKind::Respawn(300));
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn totals_sum_the_ranks_and_the_dump_names_every_part() {
        let digest = Digest {
            unacked: 2,
            metrics: super::super::reliable::RelMetrics {
                retransmits: 5,
                fast_retransmits: 3,
                dup_drops: 1,
                ..Default::default()
            },
            health: Some(LinkHealth {
                peer: 0,
                rto: 900,
                ..Default::default()
            }),
        };
        let client = RankSnapshot {
            rank: 0,
            state: RankState::Live,
            digest: Some(digest),
            links: Vec::new(),
            stats: Some(RuntimeStats {
                bytes_sent: 640,
                ..Default::default()
            }),
        };
        let snapshot = Snapshot {
            backend: "socket",
            delivered: 9,
            dropped: 1,
            chaos: Some(ChaosStats {
                drops: 4,
                ..Default::default()
            }),
            ranks: vec![
                client,
                RankSnapshot::server(1, RankState::Recovering, Some(digest)),
            ],
            events: vec![Event {
                at: 1_500_000,
                rank: Some(1),
                kind: EventKind::HealDone(7),
            }],
            ..Snapshot::default()
        };
        assert_eq!(
            snapshot.totals(),
            TransportMetrics {
                messages_delivered: 9,
                messages_dropped: 1,
                bytes_sent: 640,
                retransmits: 10,
                fast_retransmits: 6,
                dup_drops: 2,
                faults_injected: 4,
            }
        );
        assert_eq!(snapshot.ranks[1].links, [digest.health.unwrap()]);
        let dump = snapshot.to_string();
        for part in [
            "socket cluster",
            "rank 1 server Recovering",
            "rto: 900",
            "[1.500 ms] rank 1: HealDone(7)",
        ] {
            assert!(dump.contains(part), "{part:?} missing from:\n{dump}");
        }
    }
}
