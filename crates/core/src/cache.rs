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
//! The cache is a table of rows, one per ifunc type a node sends: the
//! type's name and the endpoints that have its code, found by a binary
//! search of the names.  A received ifunc's registration record takes its
//! [`CacheRow`] on its first forward and keeps it, so an ifunc that never
//! forwards adds no row and a later forward is decided without looking a
//! name up.  A full
//! send ships the frame as two views, the message's head and the library's
//! (or the arrival's) CODE | DEPS | MAGIC tail, with a wire image unchanged
//! from one buffer ([`crate::frame`]).  The cache is purely a sender-side
//! optimisation:
//! correctness never depends on it because the receiver auto-registers on
//! the first full frame it sees and can always ask for retransmission by
//! reporting [`crate::error::CoreError::TruncatedWithoutRegistration`].

use tc_ucx::WorkerAddr;

/// Decision made for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendDecision {
    /// First send of this ifunc type to this endpoint: ship the full frame.
    SendFull,
    /// The endpoint has seen this type before: ship the truncated frame.
    SendTruncated,
}

/// One row of a [`SenderCache`]: the ifunc type it names, by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheRow(u32);

/// Sender-side cache of which endpoints have seen which ifunc types.
#[derive(Debug, Default, Clone)]
pub struct SenderCache {
    /// Per row: the ifunc name and the endpoints that have its code, sorted.
    rows: Vec<(Box<str>, Vec<WorkerAddr>)>,
    /// The rows in name order, so a name is found by a binary search.
    by_name: Vec<CacheRow>,
}

impl SenderCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row of `ifunc_name`, added on its first send: one row per name.
    pub fn row_of(&mut self, ifunc_name: &str) -> CacheRow {
        let rows = &self.rows;
        let at = self
            .by_name
            .binary_search_by(|r| (*rows[r.0 as usize].0).cmp(ifunc_name));
        at.map(|i| self.by_name[i]).unwrap_or_else(|i| {
            let row = CacheRow(self.rows.len() as u32);
            self.rows.push((ifunc_name.into(), Vec::new()));
            self.by_name.insert(i, row);
            row
        })
    }

    /// Whether `endpoint` has the code of `row`'s ifunc.
    pub fn has(&self, row: CacheRow, endpoint: WorkerAddr) -> bool {
        self.rows[row.0 as usize].1.binary_search(&endpoint).is_ok()
    }

    /// Record a send of `row`'s ifunc to `endpoint` and return what should
    /// be transmitted.  The runtime counts the decisions
    /// ([`crate::RuntimeStats::ifunc_full_sends`] and
    /// [`crate::RuntimeStats::ifunc_truncated_sends`]); the cache keeps no
    /// second count.
    pub fn decide(&mut self, row: CacheRow, endpoint: WorkerAddr) -> SendDecision {
        let seen = &mut self.rows[row.0 as usize].1;
        match seen.binary_search(&endpoint) {
            Ok(_) => SendDecision::SendTruncated,
            Err(at) => {
                seen.insert(at, endpoint);
                SendDecision::SendFull
            }
        }
    }

    /// Forget an endpoint entirely (connection teardown).
    pub fn forget_endpoint(&mut self, endpoint: WorkerAddr) {
        for (_, seen) in &mut self.rows {
            seen.retain(|&e| e != endpoint);
        }
    }

    /// Number of `(ifunc, endpoint)` pairs currently cached.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|(_, seen)| seen.len()).sum()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One send of `name` to `ep`, decided by the name's row.
    fn send(c: &mut SenderCache, name: &str, ep: WorkerAddr) -> SendDecision {
        let row = c.row_of(name);
        c.decide(row, ep)
    }

    #[test]
    fn first_send_full_then_truncated() {
        let mut c = SenderCache::new();
        let ep = WorkerAddr(3);
        assert_eq!(send(&mut c, "tsi", ep), SendDecision::SendFull);
        assert_eq!(send(&mut c, "tsi", ep), SendDecision::SendTruncated);
        assert_eq!(send(&mut c, "tsi", ep), SendDecision::SendTruncated);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cache_is_per_endpoint_and_per_type() {
        let mut c = SenderCache::new();
        assert_eq!(send(&mut c, "tsi", WorkerAddr(1)), SendDecision::SendFull);
        assert_eq!(send(&mut c, "tsi", WorkerAddr(2)), SendDecision::SendFull);
        assert_eq!(
            send(&mut c, "chaser", WorkerAddr(1)),
            SendDecision::SendFull
        );
        assert_eq!(
            send(&mut c, "tsi", WorkerAddr(1)),
            SendDecision::SendTruncated
        );
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn forgetting_endpoint_resends_code() {
        let mut c = SenderCache::new();
        send(&mut c, "tsi", WorkerAddr(1));
        send(&mut c, "chaser", WorkerAddr(1));
        send(&mut c, "tsi", WorkerAddr(2));
        c.forget_endpoint(WorkerAddr(1));
        assert_eq!(send(&mut c, "tsi", WorkerAddr(1)), SendDecision::SendFull);
        assert_eq!(
            send(&mut c, "tsi", WorkerAddr(2)),
            SendDecision::SendTruncated
        );
    }

    #[test]
    fn a_row_is_decided_by_index_and_forgotten_by_endpoint() {
        let mut c = SenderCache::new();
        // One row per name, however often it is asked for.
        let (a, b) = (c.row_of("tsi"), c.row_of("chaser"));
        assert_eq!((c.row_of("tsi"), c.row_of("chaser")), (a, b));
        assert_eq!(c.decide(a, WorkerAddr(1)), SendDecision::SendFull);
        assert_eq!(c.decide(a, WorkerAddr(1)), SendDecision::SendTruncated);
        assert_eq!(c.decide(b, WorkerAddr(1)), SendDecision::SendFull);
        assert_eq!(c.len(), 2);
        c.forget_endpoint(WorkerAddr(1));
        assert!(c.is_empty());
        c.decide(b, WorkerAddr(2));
        assert!(!c.has(a, WorkerAddr(2)) && c.has(b, WorkerAddr(2)));
    }

    /// Names asked for in any order each get one row, found again by name
    /// however many rows there are.
    #[test]
    fn every_name_keeps_one_row_among_many() {
        let mut c = SenderCache::new();
        let names: Vec<String> = (0..512u32)
            .map(|i| format!("cold_{:03}", (i * 389) % 512))
            .collect();
        let rows: Vec<CacheRow> = names.iter().map(|n| c.row_of(n)).collect();
        for (i, (name, row)) in names.iter().zip(&rows).enumerate() {
            assert_eq!(c.row_of(name), *row, "{name}");
            assert_eq!(row.0 as usize, i, "rows are handed out in first-send order");
        }
        assert_eq!((c.rows.len(), c.by_name.len()), (512, 512));
    }
}
