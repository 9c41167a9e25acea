//! Declarative fault plans.
//!
//! A [`FaultPlan`] is configuration, not machinery: it says *what* should go
//! wrong on which links and when, in backend-neutral units.  Probabilities
//! apply per link traversal; scheduled windows ([`Partition`],
//! [`CrashWindow`]) are expressed in **traversal counts** rather than
//! seconds, because the two cluster backends disagree about what a second is
//! (virtual vs. wall-clock time) but agree exactly on how many messages have
//! crossed a link.

/// Per-link fault probabilities (each in `0.0..=1.0`, applied per traversal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability the message is silently dropped.
    pub drop: f64,
    /// Probability the message is delivered twice.
    pub duplicate: f64,
    /// Probability the message is delayed (simulated backend: extra fabric
    /// latency; threaded backend: held back behind later traffic).
    pub delay: f64,
    /// Probability the message is reordered behind the link's next message.
    pub reorder: f64,
    /// Maximum delay, in abstract units of roughly one fabric latency each
    /// (the backend scales it; `0` disables delay even if `delay > 0`).
    pub max_delay_units: u32,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            reorder: 0.0,
            max_delay_units: 4,
        }
    }
}

/// A scheduled network partition: while active, messages between `group_a`
/// and the rest of the cluster are dropped.  The window is per-link: link
/// `(a, b)` is partitioned while its traversal count is in `from..to`, and
/// heals once `to` traversals have been attempted (retransmissions burn
/// through the window, which is what makes healing deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Ranks on one side of the partition (everything else is the other
    /// side).
    pub group_a: Vec<usize>,
    /// First affected traversal (inclusive) of each crossing link.
    pub from: u64,
    /// First unaffected traversal (exclusive) — the heal point.
    pub to: u64,
}

impl Partition {
    /// True when the link `(src, dst)` crosses this partition.
    pub fn crosses(&self, src: usize, dst: usize) -> bool {
        self.group_a.contains(&src) != self.group_a.contains(&dst)
    }
}

/// A node crash-and-restart window: while "down", the node neither receives
/// nor emits messages (they are dropped at the fabric).  The window is
/// counted in traversals touching the node (inbound or outbound), so the
/// restart is reached deterministically as traffic — including
/// retransmissions — keeps arriving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashing rank.
    pub node: usize,
    /// First dropped traversal touching the node (inclusive).
    pub from: u64,
    /// First surviving traversal (exclusive) — the restart point.
    pub to: u64,
}

/// A seeded, declarative fault plan for a whole cluster run.
///
/// ```
/// use tc_chaos::FaultPlan;
/// let plan = FaultPlan::seeded(7)
///     .drop_rate(0.01)
///     .reorder_rate(0.05)
///     .partition(&[2], 4, 12);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every per-link decision stream.
    pub seed: u64,
    /// Fault probabilities applied to links without an override.
    pub default_link: LinkFaults,
    /// Per-link `(src, dst)` overrides (directed).
    pub link_overrides: Vec<((usize, usize), LinkFaults)>,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled node crash windows.
    pub crashes: Vec<CrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::seeded(0)
    }
}

impl FaultPlan {
    /// An empty (fault-free) plan with the given seed.  Installing an empty
    /// plan still routes traffic through the reliability layer — useful for
    /// exercising the protocol itself — but injects nothing.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_link: LinkFaults::default(),
            link_overrides: Vec::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Set the default per-traversal drop probability.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.default_link.drop = p;
        self
    }

    /// Set the default per-traversal duplication probability.
    pub fn duplicate_rate(mut self, p: f64) -> Self {
        self.default_link.duplicate = p;
        self
    }

    /// Set the default per-traversal reorder probability.
    pub fn reorder_rate(mut self, p: f64) -> Self {
        self.default_link.reorder = p;
        self
    }

    /// Override the fault profile of one directed link.
    pub fn link(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        self.link_overrides.push(((src, dst), faults));
        self
    }

    /// Schedule a partition separating `group_a` from the rest for the
    /// traversal window `from..to` of every crossing link.
    pub fn partition(mut self, group_a: &[usize], from: u64, to: u64) -> Self {
        self.partitions.push(Partition {
            group_a: group_a.to_vec(),
            from,
            to,
        });
        self
    }

    /// Schedule a crash-and-restart window for `node` covering the traversal
    /// window `from..to` of traffic touching it.
    pub fn crash(mut self, node: usize, from: u64, to: u64) -> Self {
        self.crashes.push(CrashWindow { node, from, to });
        self
    }

    /// The fault profile of a directed link (override or default).
    pub fn faults_for(&self, src: usize, dst: usize) -> LinkFaults {
        self.link_overrides
            .iter()
            .rev()
            .find(|((s, d), _)| *s == src && *d == dst)
            .map(|(_, f)| *f)
            .unwrap_or(self.default_link)
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        let fault_free = |f: &LinkFaults| {
            f.drop == 0.0 && f.duplicate == 0.0 && f.delay == 0.0 && f.reorder == 0.0
        };
        fault_free(&self.default_link)
            && self.link_overrides.iter().all(|(_, f)| fault_free(f))
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_and_overrides_win() {
        let noisy = LinkFaults {
            drop: 0.5,
            ..LinkFaults::default()
        };
        let plan = FaultPlan::seeded(3)
            .drop_rate(0.01)
            .link(0, 2, noisy)
            .partition(&[1], 5, 9)
            .crash(2, 0, 4);
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.faults_for(0, 1).drop, 0.01);
        assert_eq!(plan.faults_for(0, 2).drop, 0.5);
        assert!(plan.partitions[0].crosses(0, 1));
        assert!(!plan.partitions[0].crosses(0, 2));
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::seeded(9).is_empty());
        let quiet_override = FaultPlan::seeded(9).link(0, 1, LinkFaults::default());
        assert!(quiet_override.is_empty());
    }

    #[test]
    fn later_link_override_wins() {
        let a = LinkFaults {
            drop: 0.1,
            ..LinkFaults::default()
        };
        let b = LinkFaults {
            drop: 0.9,
            ..LinkFaults::default()
        };
        let plan = FaultPlan::seeded(0).link(1, 2, a).link(1, 2, b);
        assert_eq!(plan.faults_for(1, 2).drop, 0.9);
    }
}
