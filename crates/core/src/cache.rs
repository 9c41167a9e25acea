//! The sender-side code cache.
//!
//! Section III-D: "When the source process sends an ifunc message, the
//! Three-Chains runtime first checks a hash table to see if it has sent an
//! ifunc message of this particular type to the specified UCP endpoint
//! before.  If not, then the endpoint is added to the hash table and the
//! entire message is sent.  If the UCP endpoint is already in the hash table
//! […] the runtime will only send the message up to the second last signal
//! byte, skipping the code section."
//!
//! The cache is keyed by `(ifunc name, destination endpoint)`.  It is purely
//! a sender-side optimisation: correctness never depends on it because the
//! receiver auto-registers on the first full frame it sees and can always ask
//! for retransmission by reporting [`crate::error::CoreError::TruncatedWithoutRegistration`].

use std::collections::{HashMap, HashSet};
use tc_ucx::WorkerAddr;

/// Decision made for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendDecision {
    /// First send of this ifunc type to this endpoint: ship the full frame.
    SendFull,
    /// The endpoint has seen this type before: ship the truncated frame.
    SendTruncated,
}

/// Sender-side cache of which endpoints have seen which ifunc types.
///
/// Stored as ifunc name → endpoints, so a send is answered from the borrowed
/// name: one probe, and no key is built unless the name is new.
#[derive(Debug, Default, Clone)]
pub struct SenderCache {
    seen: HashMap<String, HashSet<WorkerAddr>>,
}

impl SenderCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a send of `ifunc_name` to `endpoint` and return what should be
    /// transmitted.  The runtime counts the decisions
    /// ([`crate::RuntimeStats::ifunc_full_sends`] and
    /// [`crate::RuntimeStats::ifunc_truncated_sends`]); the cache keeps no
    /// second count.
    pub fn on_send(&mut self, ifunc_name: &str, endpoint: WorkerAddr) -> SendDecision {
        let first = match self.seen.get_mut(ifunc_name) {
            Some(endpoints) => endpoints.insert(endpoint),
            None => {
                self.seen
                    .insert(ifunc_name.to_string(), HashSet::from([endpoint]));
                true
            }
        };
        if first {
            SendDecision::SendFull
        } else {
            SendDecision::SendTruncated
        }
    }

    /// Forget an endpoint entirely (connection teardown).
    pub fn forget_endpoint(&mut self, endpoint: WorkerAddr) {
        self.seen.retain(|_, endpoints| {
            endpoints.remove(&endpoint);
            !endpoints.is_empty()
        });
    }

    /// Forget one ifunc type everywhere (ifunc de-registration on the source:
    /// the next send must ship code again because targets may also have
    /// dropped it).
    pub fn forget_ifunc(&mut self, ifunc_name: &str) {
        self.seen.remove(ifunc_name);
    }

    /// Number of `(ifunc, endpoint)` pairs currently cached.
    pub fn len(&self) -> usize {
        self.seen.values().map(HashSet::len).sum()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_send_full_then_truncated() {
        let mut c = SenderCache::new();
        let ep = WorkerAddr(3);
        assert_eq!(c.on_send("tsi", ep), SendDecision::SendFull);
        assert_eq!(c.on_send("tsi", ep), SendDecision::SendTruncated);
        assert_eq!(c.on_send("tsi", ep), SendDecision::SendTruncated);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cache_is_per_endpoint_and_per_type() {
        let mut c = SenderCache::new();
        assert_eq!(c.on_send("tsi", WorkerAddr(1)), SendDecision::SendFull);
        assert_eq!(c.on_send("tsi", WorkerAddr(2)), SendDecision::SendFull);
        assert_eq!(c.on_send("chaser", WorkerAddr(1)), SendDecision::SendFull);
        assert_eq!(c.on_send("tsi", WorkerAddr(1)), SendDecision::SendTruncated);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn forgetting_endpoint_resends_code() {
        let mut c = SenderCache::new();
        c.on_send("tsi", WorkerAddr(1));
        c.on_send("chaser", WorkerAddr(1));
        c.on_send("tsi", WorkerAddr(2));
        c.forget_endpoint(WorkerAddr(1));
        assert_eq!(c.on_send("tsi", WorkerAddr(1)), SendDecision::SendFull);
        assert_eq!(c.on_send("tsi", WorkerAddr(2)), SendDecision::SendTruncated);
    }

    #[test]
    fn forgetting_ifunc_resends_everywhere() {
        let mut c = SenderCache::new();
        c.on_send("tsi", WorkerAddr(1));
        c.on_send("tsi", WorkerAddr(2));
        c.on_send("chaser", WorkerAddr(1));
        c.forget_ifunc("tsi");
        assert_eq!(c.on_send("tsi", WorkerAddr(1)), SendDecision::SendFull);
        assert_eq!(c.on_send("tsi", WorkerAddr(2)), SendDecision::SendFull);
        assert_eq!(
            c.on_send("chaser", WorkerAddr(1)),
            SendDecision::SendTruncated
        );
    }
}
