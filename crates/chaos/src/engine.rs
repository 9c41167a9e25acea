//! The deterministic fault-decision machine.
//!
//! [`ChaosEngine::decide`] is the single choke point every backend consults
//! for every link traversal.  Each directed link owns an independent
//! splitmix64 stream seeded from `(plan.seed, src, dst)` and a traversal
//! counter; a decision always draws the same number of values from the
//! stream regardless of outcome, so the fault schedule of one link never
//! depends on what happened on another.

use crate::plan::FaultPlan;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use tc_simnet::SplitMix64;

/// What kind of fault a decision injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Probabilistic drop.
    Drop,
    /// Probabilistic duplication.
    Duplicate,
    /// Probabilistic delay.
    Delay,
    /// Probabilistic reorder.
    Reorder,
    /// Drop because a scheduled partition is active on the link.
    PartitionDrop,
    /// Drop because an endpoint is inside a crash window.
    CrashDrop,
}

/// The fate of one message on one link traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// False when the message is dropped (see `dropped_by` for why).
    pub deliver: bool,
    /// Why the message was dropped, when it was.
    pub dropped_by: Option<FaultKind>,
    /// Deliver a second copy (only meaningful when `deliver`).
    pub duplicate: bool,
    /// Extra delay in abstract latency units (0 = none).
    pub delay_units: u32,
    /// Reorder this message behind the link's next traffic.
    pub reorder: bool,
}

impl Decision {
    /// The boring decision: deliver exactly once, on time, in order.
    pub const CLEAN: Decision = Decision {
        deliver: true,
        dropped_by: None,
        duplicate: false,
        delay_units: 0,
        reorder: false,
    };
}

/// Cumulative counters of injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Total decisions made (= link traversals observed).
    pub decisions: u64,
    /// Probabilistic drops.
    pub drops: u64,
    /// Duplicated deliveries.
    pub duplicates: u64,
    /// Delayed deliveries.
    pub delays: u64,
    /// Reordered deliveries.
    pub reorders: u64,
    /// Drops caused by an active partition.
    pub partition_drops: u64,
    /// Drops caused by a crash window.
    pub crash_drops: u64,
}

impl ChaosStats {
    /// Total faults injected, of any kind.
    pub fn total_injected(&self) -> u64 {
        self.drops
            + self.duplicates
            + self.delays
            + self.reorders
            + self.partition_drops
            + self.crash_drops
    }
}

struct LinkState {
    rng: SplitMix64,
    traversals: u64,
}

/// The deterministic decision machine for one [`FaultPlan`].
///
/// Per-link and per-node state lives in dense tables indexed by rank (they
/// grow to the largest rank seen), so callers bound the ranks they pass by
/// the cluster size.
#[derive(Debug)]
pub struct ChaosEngine {
    plan: FaultPlan,
    /// `links[src][dst]`; `None` until the link's first traversal.
    links: Vec<Vec<Option<LinkState>>>,
    /// Traversals touching each node (inbound + outbound), for crash
    /// windows.
    node_traffic: Vec<u64>,
    stats: ChaosStats,
}

impl std::fmt::Debug for LinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkState")
            .field("traversals", &self.traversals)
            .finish()
    }
}

fn mix_link_seed(seed: u64, src: usize, dst: usize) -> u64 {
    // One splitmix step over a src/dst tag keeps per-link streams disjoint.
    let mut s = SplitMix64::new(
        seed ^ ((src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ ((dst as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)),
    );
    s.next_u64()
}

impl ChaosEngine {
    /// Build the engine for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosEngine {
            plan,
            links: Vec::new(),
            node_traffic: Vec::new(),
            stats: ChaosStats::default(),
        }
    }

    /// The plan this engine executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Decide the fate of the next message crossing the directed link
    /// `(src, dst)`.  Advances the link's traversal counter and both
    /// endpoints' traffic counters.
    pub fn decide(&mut self, src: usize, dst: usize) -> Decision {
        self.stats.decisions += 1;
        let faults = self.plan.faults_for(src, dst);
        if self.links.len() <= src {
            self.links.resize_with(src + 1, Vec::new);
        }
        let row = &mut self.links[src];
        if row.len() <= dst {
            row.resize_with(dst + 1, || None);
        }
        let state = row[dst].get_or_insert_with(|| LinkState {
            rng: SplitMix64::new(mix_link_seed(self.plan.seed, src, dst)),
            traversals: 0,
        });
        let n = state.traversals;
        state.traversals += 1;
        // Always draw the same number of values so one fault never shifts
        // the schedule of the others.
        let draw_drop = state.rng.next_u64();
        let draw_dup = state.rng.next_u64();
        let draw_delay = state.rng.next_u64();
        let draw_reorder = state.rng.next_u64();
        let draw_units = state.rng.next_u64();

        if self.node_traffic.len() <= src.max(dst) {
            self.node_traffic.resize(src.max(dst) + 1, 0);
        }
        let src_traffic = self.node_traffic[src];
        self.node_traffic[src] += 1;
        let dst_traffic = self.node_traffic[dst];
        self.node_traffic[dst] += 1;

        // Scheduled faults first: a partitioned or crashed endpoint drops
        // the message regardless of the probabilistic draws.
        for crash in &self.plan.crashes {
            let touched = if crash.node == src {
                Some(src_traffic)
            } else if crash.node == dst {
                Some(dst_traffic)
            } else {
                None
            };
            if let Some(t) = touched {
                if t >= crash.from && t < crash.to {
                    self.stats.crash_drops += 1;
                    return Decision {
                        deliver: false,
                        dropped_by: Some(FaultKind::CrashDrop),
                        ..Decision::CLEAN
                    };
                }
            }
        }
        for p in &self.plan.partitions {
            if p.crosses(src, dst) && n >= p.from && n < p.to {
                self.stats.partition_drops += 1;
                return Decision {
                    deliver: false,
                    dropped_by: Some(FaultKind::PartitionDrop),
                    ..Decision::CLEAN
                };
            }
        }

        let hit = |draw: u64, p: f64| -> bool { p > 0.0 && (draw as f64) < p * (u64::MAX as f64) };
        if hit(draw_drop, faults.drop) {
            self.stats.drops += 1;
            return Decision {
                deliver: false,
                dropped_by: Some(FaultKind::Drop),
                ..Decision::CLEAN
            };
        }
        let duplicate = hit(draw_dup, faults.duplicate);
        let delayed = faults.max_delay_units > 0 && hit(draw_delay, faults.delay);
        let reorder = hit(draw_reorder, faults.reorder);
        let delay_units = if delayed {
            1 + (draw_units % faults.max_delay_units as u64) as u32
        } else {
            0
        };
        if duplicate {
            self.stats.duplicates += 1;
        }
        if delayed {
            self.stats.delays += 1;
        }
        if reorder {
            self.stats.reorders += 1;
        }
        Decision {
            deliver: true,
            dropped_by: None,
            duplicate,
            delay_units,
            reorder,
        }
    }
}

/// A clonable, thread-safe handle to a shared [`ChaosEngine`].
///
/// One session per cluster: every emitting host's [`HoldBack`] holds a
/// clone, and the threaded backend's hosts run on many node threads at once,
/// so the per-link streams and the counters live behind one lock.  The
/// simulated backend is single-threaded but decides through the same
/// interface.  All methods lock internally.
#[derive(Clone, Debug)]
pub struct ChaosSession {
    engine: Arc<Mutex<ChaosEngine>>,
}

impl ChaosSession {
    /// Lock the engine, recovering from poison: every update `decide` makes
    /// is a counter or RNG step that leaves the tables valid, so a panic
    /// elsewhere on a thread holding the guard must not take fault
    /// injection (and with it the whole send path) down.
    fn engine(&self) -> MutexGuard<'_, ChaosEngine> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Start a session executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosSession {
            engine: Arc::new(Mutex::new(ChaosEngine::new(plan))),
        }
    }

    /// Decide the fate of the next `(src, dst)` traversal.
    pub fn decide(&self, src: usize, dst: usize) -> Decision {
        self.engine().decide(src, dst)
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> ChaosStats {
        self.engine().stats()
    }

    /// Clone of the underlying plan.
    pub fn plan(&self) -> FaultPlan {
        self.engine().plan().clone()
    }
}

/// The fault gate of one emitting host: every reliable frame the host sends
/// meets one [`ChaosSession`] decision here, and the gate carries it out.
/// Carriers that cannot delay a message in time (threads, sockets) realise
/// delay and reorder by one mechanism — the message is *held back*, one slot
/// per directed link, and released behind the link's next traffic.  A held
/// message that is never overtaken is recovered by the sender's
/// retransmission timer, whose re-send also flushes it.
///
/// One owner, no lock: the table is keyed by `(src, dst)` and every link's
/// frames pass exactly one gate (their sender's, or one that stands in for
/// senders that carry no plan), so each gate holds exactly what one table
/// shared by every sender would hold for its links.
#[derive(Debug)]
pub struct HoldBack<T> {
    session: ChaosSession,
    held: HashMap<(usize, usize), T>,
}

impl<T: Clone> HoldBack<T> {
    /// A gate drawing its decisions from `session` (a clone of the
    /// cluster's one session, so the per-link streams and the counters stay
    /// shared).
    pub fn new(session: ChaosSession) -> Self {
        HoldBack {
            session,
            held: HashMap::new(),
        }
    }

    /// Decide the fate of `item` crossing `(src, dst)` and carry it out:
    /// whatever travels now goes to `out`, in order — the duplicate, the
    /// item itself unless it is dropped or held back, then what the link had
    /// parked (it has now been overtaken at least once).
    pub fn apply(&mut self, src: usize, dst: usize, item: T, mut out: impl FnMut(T)) {
        let decision = self.session.decide(src, dst);
        if !decision.deliver {
            return;
        }
        if decision.duplicate {
            out(item.clone());
        }
        let prev = if decision.reorder || decision.delay_units > 0 {
            self.held.insert((src, dst), item)
        } else {
            out(item);
            if self.held.is_empty() {
                return;
            }
            self.held.remove(&(src, dst))
        };
        if let Some(prev) = prev {
            out(prev);
        }
    }

    /// Discard everything parked on links touching `node` (it restarted:
    /// frames of its old sequence space must not be released at it).
    pub fn forget_node(&mut self, node: usize) {
        self.held
            .retain(|&(src, dst), _| src != node && dst != node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, LinkFaults};

    fn decisions(engine: &mut ChaosEngine, src: usize, dst: usize, n: usize) -> Vec<Decision> {
        (0..n).map(|_| engine.decide(src, dst)).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::seeded(42).drop_rate(0.2).duplicate_rate(0.1);
        let mut a = ChaosEngine::new(plan.clone());
        let mut b = ChaosEngine::new(plan);
        assert_eq!(decisions(&mut a, 0, 1, 256), decisions(&mut b, 0, 1, 256));
    }

    #[test]
    fn different_links_have_independent_streams() {
        let plan = FaultPlan::seeded(42).drop_rate(0.5);
        let mut a = ChaosEngine::new(plan.clone());
        let mut b = ChaosEngine::new(plan);
        // Interleaving traffic on another link must not shift link (0, 1).
        let solo = decisions(&mut a, 0, 1, 64);
        let mut interleaved = Vec::new();
        for _ in 0..64 {
            let _ = b.decide(0, 2);
            interleaved.push(b.decide(0, 1));
            let _ = b.decide(2, 0);
        }
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn empty_plan_is_always_clean() {
        let mut e = ChaosEngine::new(FaultPlan::seeded(1));
        for d in decisions(&mut e, 0, 3, 128) {
            assert_eq!(d, Decision::CLEAN);
        }
        assert_eq!(e.stats().total_injected(), 0);
        assert_eq!(e.stats().decisions, 128);
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let mut e = ChaosEngine::new(FaultPlan::seeded(7).drop_rate(0.1));
        let ds = decisions(&mut e, 0, 1, 20_000);
        let drops = ds.iter().filter(|d| !d.deliver).count();
        assert!(
            (1_400..2_600).contains(&drops),
            "10% of 20k traversals should drop ~2000, got {drops}"
        );
        assert_eq!(e.stats().drops as usize, drops);
    }

    #[test]
    fn partition_window_opens_and_heals() {
        let plan = FaultPlan::seeded(5).partition(&[1], 3, 6);
        let mut e = ChaosEngine::new(plan);
        let ds = decisions(&mut e, 0, 1, 10);
        for (i, d) in ds.iter().enumerate() {
            let partitioned = (3..6).contains(&(i as u64));
            assert_eq!(!d.deliver, partitioned, "traversal {i}");
            if partitioned {
                assert_eq!(d.dropped_by, Some(FaultKind::PartitionDrop));
            }
        }
        // A link inside group_a's side is unaffected.
        assert!(e.decide(0, 2).deliver);
        assert_eq!(e.stats().partition_drops, 3);
    }

    #[test]
    fn crash_window_blackholes_all_node_traffic() {
        let plan = FaultPlan::seeded(5).crash(2, 0, 4);
        let mut e = ChaosEngine::new(plan);
        // Traffic *touching* node 2 is dropped until 4 traversals passed.
        assert!(!e.decide(0, 2).deliver); // node 2 traffic: 1
        assert!(!e.decide(2, 1).deliver); // 2
        assert!(e.decide(0, 1).deliver); // does not touch node 2
        assert!(!e.decide(1, 2).deliver); // 3
        assert!(!e.decide(0, 2).deliver); // 4 — last dropped
        assert!(e.decide(0, 2).deliver, "restarted after the window");
        assert_eq!(e.stats().crash_drops, 4);
    }

    #[test]
    fn delay_units_respect_bound() {
        let mut plan = FaultPlan::seeded(11);
        plan.default_link.delay = 1.0;
        let mut e = ChaosEngine::new(plan);
        for d in decisions(&mut e, 0, 1, 200) {
            assert!(d.delay_units >= 1 && d.delay_units <= 4, "{d:?}");
        }
        assert_eq!(e.stats().delays, 200);
    }

    #[test]
    fn session_is_shareable_and_counts() {
        let session = ChaosSession::new(FaultPlan::seeded(3).drop_rate(1.0));
        let s2 = session.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..10 {
                assert!(!s2.decide(0, 1).deliver);
            }
        });
        h.join().unwrap();
        for _ in 0..5 {
            let _ = session.decide(1, 0);
        }
        assert_eq!(session.stats().decisions, 15);
        assert_eq!(session.stats().drops, 15);
        assert_eq!(session.plan().default_link.drop, 1.0);
    }

    #[test]
    fn link_override_changes_one_direction_only() {
        let loud = LinkFaults {
            drop: 1.0,
            ..LinkFaults::default()
        };
        let mut e = ChaosEngine::new(FaultPlan::seeded(1).link(0, 1, loud));
        assert!(!e.decide(0, 1).deliver);
        assert!(e.decide(1, 0).deliver);
    }

    #[test]
    fn hold_back_releases_behind_the_links_next_traffic() {
        let plan = FaultPlan::seeded(1)
            .link(
                0,
                1,
                LinkFaults {
                    reorder: 1.0,
                    ..LinkFaults::default()
                },
            )
            .link(
                0,
                2,
                LinkFaults {
                    duplicate: 1.0,
                    ..LinkFaults::default()
                },
            )
            .link(
                0,
                3,
                LinkFaults {
                    drop: 1.0,
                    ..LinkFaults::default()
                },
            );
        let session = ChaosSession::new(plan);
        let mut gate = HoldBack::new(session.clone());
        let mut seen = Vec::new();
        gate.apply(0, 1, 'a', |x| seen.push(x)); // parked
        gate.apply(0, 2, 'b', |x| seen.push(x)); // other link, duplicated
        gate.apply(0, 3, 'c', |x| seen.push(x)); // dropped, releases nothing
        gate.apply(1, 0, 'd', |x| seen.push(x)); // clean, other direction
        gate.apply(0, 1, 'e', |x| seen.push(x)); // parked, overtakes 'a'
        assert_eq!(seen, vec!['b', 'b', 'd', 'a']);
        gate.forget_node(1);
        gate.apply(0, 1, 'f', |x| seen.push(x));
        assert_eq!(seen.len(), 4, "'e' was forgotten with its node");
        // Every traversal met exactly one decision of the shared session.
        let stats = session.stats();
        assert_eq!(stats.decisions, 6);
        assert_eq!((stats.reorders, stats.duplicates, stats.drops), (3, 1, 1));
    }

    /// A clean traversal releases what its link parked, behind itself and
    /// behind its own duplicate: checked against the session's own
    /// decisions on a mixed plan.
    #[test]
    fn hold_back_carries_out_each_decision_of_its_session() {
        let plan = FaultPlan::seeded(9)
            .drop_rate(0.1)
            .duplicate_rate(0.3)
            .reorder_rate(0.4);
        let mut oracle = ChaosEngine::new(plan.clone());
        let mut gate = HoldBack::new(ChaosSession::new(plan));
        let mut parked = None;
        for i in 0..256u32 {
            let d = oracle.decide(0, 1);
            let mut want = Vec::new();
            if d.deliver {
                if d.duplicate {
                    want.push(i);
                }
                if d.reorder || d.delay_units > 0 {
                    want.extend(parked.replace(i));
                } else {
                    want.push(i);
                    want.extend(parked.take());
                }
            }
            let mut seen = Vec::new();
            gate.apply(0, 1, i, |x| seen.push(x));
            assert_eq!(seen, want, "traversal {i}: {d:?}");
        }
    }
}
