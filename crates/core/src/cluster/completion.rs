//! The async completion plane: indexed completion claiming and
//! poll/select-style multiplexing over heterogeneous handles.
//!
//! The paper's X-RDMA story depends on keeping many one-sided operations and
//! result mailboxes in flight at once.  Three pieces make that scale:
//!
//! * [`ClaimTable`] — the driver-side buffer of arrived-but-unclaimed
//!   completions: one map keyed by `(kind, client, id)` threaded on one
//!   arrival queue, so claiming one of hundreds of outstanding operations
//!   is a hash lookup plus an O(1) amortized queue pop — not the linear
//!   `Vec<Completion>` scan (quadratic across a pipelined run) it replaces;
//! * [`CompletionSet`] — a registration set of heterogeneous handles
//!   ([`GetHandle`], [`ResultHandle`], [`PutHandle`]), each with an optional
//!   per-handle deadline, indexed by completion key so readiness checks
//!   never scan the registrations; driven by
//!   [`Cluster::wait_any`](super::Cluster::wait_any) /
//!   [`wait_all`](super::Cluster::wait_all) /
//!   [`poll_any`](super::Cluster::poll_any);
//! * [`Ready`] — the typed outcome `wait_any` hands back together with the
//!   registering [`CompletionToken`].
//!
//! The table has one owner, its [`Cluster`](super::Cluster), and is fed and
//! claimed from on the thread that drives the cluster — as in the paper,
//! where an initiator reaps its own completions on the thread that
//! progresses its worker.  Nothing here is shared, so nothing here locks.
//! A completion leaves the table one way: a typed handle claims it, directly
//! ([`Cluster::wait`](super::Cluster::wait) /
//! [`try_claim`](super::Cluster::try_claim)) or through a [`CompletionSet`].

use super::{ClientId, CompletionHandle, GetHandle, ResultHandle};
use crate::runtime::Completion;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use tc_ucx::{Bytes, RequestId};

/// What a pending completion is keyed by — the join point between the claim
/// table's arrivals and a [`CompletionSet`]'s registrations.  Every key
/// carries the owning [`ClientId`]: request ids and mailbox slots are
/// per-client spaces (each client runtime allocates its own), so two clients
/// posting concurrently produce *colliding* numeric ids that must never
/// claim each other's completions.  The key is the only thing that keeps
/// clients apart: they share one table and one arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum ClaimKey {
    Get(ClientId, u64),
    Put(ClientId, u64),
    Result(ClientId, u64),
}

impl ClaimKey {
    /// Human-readable description for timeout errors.
    pub(super) fn describe(&self) -> String {
        match self {
            ClaimKey::Get(c, r) => format!("GET completion (client {}, request {r})", c.0),
            ClaimKey::Put(c, r) => format!("confirmed PUT (client {}, request {r})", c.0),
            ClaimKey::Result(c, s) => format!("X-RDMA result (client {}, mailbox slot {s})", c.0),
        }
    }
}

/// One arrived-but-unclaimed completion.
#[derive(Debug)]
struct Arrived {
    /// Arrival number: the order `wait_any` and the arrival queue follow.
    seq: u64,
    /// What the claimer receives: `Ready::Get`, `Ready::Put` or
    /// `Ready::Result`, matching the kind of the key it is stored under.
    value: Ready,
}

/// Indexed buffer of completions that reached a client but have not been
/// claimed by a typed handle yet.
///
/// Keys are what handles wait on: `(client, GET request id)`,
/// `(client, confirmed-PUT request id)`, `(client, result-mailbox slot)` —
/// always qualified by the owning [`ClientId`], so completions of different
/// clients are routed independently even when their numeric ids collide.
/// Claiming is one hash removal, and one arrival queue shared across all
/// clients keeps first-arrived fairness O(1) amortized; with hundreds of
/// operations outstanding this is the difference between linear and
/// quadratic completion draining.
///
/// There is one arrival order.  Every deposit takes the next arrival number
/// and queues a `(number, key)` record; a record is *live* only while the
/// table's entry for its key still carries that number.  Claiming an entry
/// or overwriting it kills its record, so a key never has two live records;
/// the queue has one reader, [`CompletionSet::claim_earliest`] (`wait_any`).
#[derive(Debug, Default)]
pub struct ClaimTable {
    pending: HashMap<ClaimKey, Arrived>,
    /// Arrival records, oldest first (dead ones are pruned lazily).
    arrivals: VecDeque<(u64, ClaimKey)>,
    next_seq: u64,
}

impl ClaimTable {
    /// Fold a batch of one client's transport completions into the table.
    ///
    /// A result slot holds at most one unclaimed value per client (the
    /// mailbox slot is a single 16-byte record): a second arrival before
    /// the first claim is an overwrite — the entry takes the new value and
    /// moves to the back of the arrival order, which is where a new
    /// completion belongs.  A duplicate GET or confirmed-PUT completion
    /// collapses onto the first.
    pub fn absorb(&mut self, client: ClientId, completions: Vec<Completion>) {
        // Before depositing: a driver that claims what it waits for arrives
        // here with an empty map, where checking a record costs no hashing.
        self.sweep_arrivals(32);
        for c in completions {
            let (key, value) = match c {
                Completion::Get { request, data } => {
                    (ClaimKey::Get(client, request.0), Ready::Get(data))
                }
                Completion::Put { request } => (ClaimKey::Put(client, request.0), Ready::Put),
                Completion::Result { slot, value } => {
                    (ClaimKey::Result(client, slot), Ready::Result(value))
                }
            };
            let seq = self.next_seq;
            let arrived = Arrived { seq, value };
            match self.pending.entry(key) {
                Entry::Occupied(_) if !matches!(key, ClaimKey::Result(..)) => continue,
                entry => entry.insert_entry(arrived),
            };
            self.next_seq += 1;
            self.arrivals.push_back((seq, key));
        }
        // A batch that overwrites slots leaves dead records of its own.
        self.sweep_arrivals(64);
    }

    fn is_live(&self, (seq, key): (u64, ClaimKey)) -> bool {
        self.pending.get(&key).is_some_and(|a| a.seq == seq)
    }

    /// Sweep dead arrival records once the queue is longer than `floor` and
    /// than twice the pending completions.  Claims through typed
    /// `wait`/`try_claim` never walk the queue, so without this a wait-only
    /// driver would grow `arrivals` without bound; amortised over `absorb`,
    /// the queue stays within 2× the pending completions.
    fn sweep_arrivals(&mut self, floor: usize) {
        if self.arrivals.len() > floor.max(2 * self.len()) {
            let mut arrivals = std::mem::take(&mut self.arrivals);
            arrivals.retain(|&record| self.is_live(record));
            self.arrivals = arrivals;
        }
    }

    /// The earliest-arrived pending key accepted by `wanted`.  Dead records
    /// are popped eagerly at the front and swept from the interior by
    /// [`ClaimTable::sweep_arrivals`]; entries that are pending but not
    /// wanted (completions no registered handle waits on) are skipped
    /// without being dropped.
    pub(super) fn earliest_pending(
        &mut self,
        mut wanted: impl FnMut(ClaimKey) -> bool,
    ) -> Option<ClaimKey> {
        while let Some(&record) = self.arrivals.front() {
            if self.is_live(record) {
                break;
            }
            self.arrivals.pop_front();
        }
        self.arrivals
            .iter()
            .find(|&&record| self.is_live(record) && wanted(record.1))
            .map(|&(_, key)| key)
    }

    /// Remove and return the completion pending under `key`.
    pub(super) fn claim(&mut self, key: ClaimKey) -> Option<Ready> {
        Some(self.pending.remove(&key)?.value)
    }

    /// Remove and return one client's GET completion.
    pub fn claim_get(&mut self, client: ClientId, request: RequestId) -> Option<Bytes> {
        match self.claim(ClaimKey::Get(client, request.0))? {
            Ready::Get(data) => Some(data),
            _ => None,
        }
    }

    /// Remove and return one client's confirmed-PUT completion.
    pub fn claim_put(&mut self, client: ClientId, request: RequestId) -> Option<()> {
        self.claim(ClaimKey::Put(client, request.0)).map(|_| ())
    }

    /// Remove and return one client's X-RDMA result completion.
    pub fn claim_result(&mut self, client: ClientId, slot: u64) -> Option<u64> {
        match self.claim(ClaimKey::Result(client, slot))? {
            Ready::Result(value) => Some(value),
            _ => None,
        }
    }

    /// Number of unclaimed completions.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no completion is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Typed handle for a *confirmed* one-sided PUT
/// ([`Cluster::put_confirmed`](super::Cluster::put_confirmed)): the
/// destination applies the write and acknowledges it through the transport,
/// so waiting on this handle means the bytes are durably in remote memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutHandle {
    pub(super) client: ClientId,
    pub(super) request: RequestId,
    /// The server rank the PUT targets — the ack can only ever come from
    /// there, so a crashed target resolves the handle as
    /// [`Ready::PeerLost`].
    pub(super) target: usize,
}

impl PutHandle {
    /// The underlying request id.
    pub fn request(&self) -> RequestId {
        self.request
    }

    /// The client the confirmed PUT was posted from.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The server rank the confirmed PUT targets.
    pub fn target(&self) -> usize {
        self.target
    }
}

impl CompletionHandle for PutHandle {
    type Output = ();

    fn try_claim(&self, claims: &mut ClaimTable) -> Option<()> {
        claims.claim_put(self.client, self.request)
    }

    fn describe(&self) -> String {
        ClaimKey::Put(self.client, self.request.0).describe()
    }
}

/// Opaque identifier of one registration in a [`CompletionSet`], returned by
/// the `add_*` methods and echoed by `wait_any`/`wait_all` so the driver can
/// map readiness back to whatever it associated with the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompletionToken(pub u64);

/// What a registered handle resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum Ready {
    /// A GET completed; the fetched bytes.
    Get(Bytes),
    /// An X-RDMA result arrived; the returned value.
    Result(u64),
    /// A confirmed PUT was applied remotely and acknowledged.
    Put,
    /// The handle's deadline expired (or the transport went quiescent with
    /// the deadline armed) before the completion arrived.  The registration
    /// is removed; the completion, should it still arrive, stays claimable
    /// through the claim table.
    Deadline,
    /// The server rank the operation was pinned to failed terminally (dead
    /// with no recovery pending), so the completion can never arrive.  The
    /// registration is removed; carries the lost rank.  Only GETs and
    /// confirmed PUTs are pinned to a rank — result mailboxes can be filled
    /// from anywhere and resolve through deadlines instead.
    PeerLost(u32),
}

/// Deadline state of one registration.  Relative deadlines are resolved to
/// absolute transport-clock instants the first time the set is driven (the
/// set itself holds no clock — virtual nanoseconds on the simulated backend,
/// wall-clock nanoseconds on the threaded one).
#[derive(Debug, Clone, Copy)]
enum DeadlineState {
    Relative(u64),
    Absolute(u64),
}

#[derive(Debug)]
struct SetEntry {
    key: ClaimKey,
    /// The server rank the operation is pinned to (GETs and confirmed PUTs;
    /// a result can be delivered from anywhere).
    target: Option<usize>,
    deadline: Option<DeadlineState>,
}

/// Tokens registered for one completion key.  Almost every key has exactly
/// one registration; the single-token representation avoids a heap
/// allocation per outstanding operation on the hot path.
#[derive(Debug)]
enum Tokens {
    One(u64),
    /// Two or more (never empty: it collapses back to `One`).
    Many(BTreeSet<u64>),
}

impl Tokens {
    fn insert(&mut self, token: u64) {
        match self {
            Tokens::One(existing) => *self = Tokens::Many(BTreeSet::from([*existing, token])),
            Tokens::Many(set) => {
                set.insert(token);
            }
        }
    }

    /// Lowest registered token (duplicates resolve earliest-token-first).
    fn first(&self) -> u64 {
        match self {
            Tokens::One(t) => *t,
            Tokens::Many(set) => *set.first().expect("Many is never empty"),
        }
    }

    /// Remove `token`; true when the key has no registrations left.
    fn remove(&mut self, token: u64) -> bool {
        match self {
            Tokens::One(t) => *t == token,
            Tokens::Many(set) => {
                set.remove(&token);
                if set.len() == 1 {
                    *self = Tokens::One(*set.first().expect("len is 1"));
                }
                false
            }
        }
    }
}

/// A poll/select-style registration set of heterogeneous completion handles.
///
/// Register handles with [`CompletionSet::add_get`] /
/// [`add_result`](CompletionSet::add_result) /
/// [`add_put`](CompletionSet::add_put) (optionally arming a per-handle
/// deadline with [`deadline`](CompletionSet::deadline)), then drive the set
/// with [`Cluster::wait_any`](super::Cluster::wait_any) — first ready wins,
/// ties broken by completion arrival order — or
/// [`Cluster::wait_all`](super::Cluster::wait_all).
///
/// Registrations are indexed by completion key, so resolving one of
/// hundreds of outstanding operations costs a queue pop and two hash
/// operations, independent of the set size.
///
/// Registering the *same* underlying handle twice is allowed but the
/// completion is claimed exactly once: the earliest registration receives
/// it, the duplicate only resolves through its deadline or the final
/// timeout.
#[derive(Debug, Default)]
pub struct CompletionSet {
    entries: HashMap<u64, SetEntry>,
    /// Registration index: completion key → tokens waiting on it (ordered,
    /// so duplicate registrations resolve earliest-token-first).
    index: HashMap<ClaimKey, Tokens>,
    /// Registrations with an armed deadline (resolve/expiry scans touch
    /// only these).
    deadlined: BTreeSet<u64>,
    next_token: u64,
}

impl CompletionSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registrations still waiting.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn push(&mut self, key: ClaimKey, target: Option<usize>) -> CompletionToken {
        let token = self.next_token;
        self.next_token += 1;
        match self.index.entry(key) {
            Entry::Vacant(v) => {
                v.insert(Tokens::One(token));
            }
            Entry::Occupied(mut o) => o.get_mut().insert(token),
        }
        self.entries.insert(
            token,
            SetEntry {
                key,
                target,
                deadline: None,
            },
        );
        CompletionToken(token)
    }

    /// Register a GET handle.
    pub fn add_get(&mut self, handle: GetHandle) -> CompletionToken {
        let key = ClaimKey::Get(handle.client(), handle.request().0);
        self.push(key, Some(handle.target()))
    }

    /// Register an X-RDMA result handle.
    pub fn add_result(&mut self, handle: ResultHandle) -> CompletionToken {
        self.push(ClaimKey::Result(handle.client(), handle.slot()), None)
    }

    /// Register a confirmed-PUT handle.
    pub fn add_put(&mut self, handle: PutHandle) -> CompletionToken {
        let key = ClaimKey::Put(handle.client, handle.request.0);
        self.push(key, Some(handle.target))
    }

    /// Arm (or re-arm) a per-handle deadline, `nanos` transport-clock
    /// nanoseconds from the moment the set is next driven.  On the simulated
    /// backend the clock is virtual time; on the threaded backend it is
    /// wall-clock time.  Returns false when the token is no longer
    /// registered.
    pub fn deadline(&mut self, token: CompletionToken, nanos: u64) -> bool {
        match self.entries.get_mut(&token.0) {
            Some(e) => {
                e.deadline = Some(DeadlineState::Relative(nanos));
                self.deadlined.insert(token.0);
                true
            }
            None => false,
        }
    }

    /// Deregister a token without resolving it.  Returns false when it was
    /// not registered.
    pub fn remove(&mut self, token: CompletionToken) -> bool {
        let Some(entry) = self.entries.remove(&token.0) else {
            return false;
        };
        if let Entry::Occupied(mut tokens) = self.index.entry(entry.key) {
            if tokens.get_mut().remove(token.0) {
                tokens.remove();
            }
        }
        self.deadlined.remove(&token.0);
        true
    }

    /// Resolve relative deadlines against the transport clock.  Called by
    /// the cluster before checking expiry; touches only deadline-armed
    /// registrations.
    pub(super) fn resolve_deadlines(&mut self, now: u64) {
        for token in &self.deadlined {
            if let Some(e) = self.entries.get_mut(token) {
                if let Some(DeadlineState::Relative(d)) = e.deadline {
                    e.deadline = Some(DeadlineState::Absolute(now.saturating_add(d)));
                }
            }
        }
    }

    /// True when any registration has an armed deadline.
    pub(super) fn has_deadlines(&self) -> bool {
        !self.deadlined.is_empty()
    }

    /// Claim the ready entry whose completion arrived earliest, if any: the
    /// first live record of the table's arrival queue whose key is
    /// registered here, handed to that key's earliest registration.
    pub(super) fn claim_earliest(
        &mut self,
        claims: &mut ClaimTable,
    ) -> Option<(CompletionToken, Ready)> {
        let index = &self.index;
        let key = claims.earliest_pending(|k| index.contains_key(&k))?;
        let token = CompletionToken(index.get(&key)?.first());
        let ready = claims.claim(key)?;
        self.remove(token);
        Some((token, ready))
    }

    /// Remove and return the earliest-registered entry pinned to one of the
    /// `failed` ranks, together with that rank.  Pinned registrations (GETs
    /// and confirmed PUTs) can only complete from their target server, so a
    /// terminally failed target means the wait can never succeed; result
    /// registrations are not pinned and never resolve this way.
    pub(super) fn take_peer_lost(&mut self, failed: &[usize]) -> Option<(CompletionToken, usize)> {
        let (token, rank) = self
            .entries
            .iter()
            .filter_map(|(&token, e)| Some((token, e.target?)))
            .filter(|(_, target)| failed.contains(target))
            .min()?;
        self.remove(CompletionToken(token));
        Some((CompletionToken(token), rank))
    }

    /// Remove and return the entry with the earliest expired deadline, if
    /// any is at or past `now`.
    pub(super) fn take_expired(&mut self, now: u64) -> Option<CompletionToken> {
        let mut best: Option<(u64, u64)> = None;
        for &token in &self.deadlined {
            if let Some(DeadlineState::Absolute(at)) =
                self.entries.get(&token).and_then(|e| e.deadline)
            {
                if at <= now && best.map(|(b, _)| at < b).unwrap_or(true) {
                    best = Some((at, token));
                }
            }
        }
        let token = CompletionToken(best?.1);
        self.remove(token);
        Some(token)
    }

    /// Remove and return the deadline-armed entry whose deadline is
    /// earliest, regardless of the clock — used when the transport goes
    /// quiescent, at which point an armed deadline can never be beaten by a
    /// completion.  (Unresolved relative deadlines sort after resolved
    /// absolute ones; ties break on the lower token.)
    pub(super) fn take_any_deadlined(&mut self) -> Option<CompletionToken> {
        let mut best: Option<(u64, u64)> = None;
        for &token in &self.deadlined {
            let at = match self.entries.get(&token).and_then(|e| e.deadline) {
                Some(DeadlineState::Absolute(at)) => at,
                Some(DeadlineState::Relative(_)) | None => u64::MAX,
            };
            if best.map(|(b, _)| at < b).unwrap_or(true) {
                best = Some((at, token));
            }
        }
        let token = CompletionToken(best?.1);
        self.remove(token);
        Some(token)
    }

    /// Description of the still-registered handles, for timeout errors.
    pub(super) fn describe(&self) -> String {
        let mut waiting: Vec<(&u64, &SetEntry)> = self.entries.iter().collect();
        waiting.sort_unstable_by_key(|(token, _)| **token);
        let mut parts: Vec<String> = waiting
            .iter()
            .take(4)
            .map(|(_, e)| e.key.describe())
            .collect();
        if waiting.len() > 4 {
            parts.push(format!("… {} more", waiting.len() - 4));
        }
        format!("any of [{}]", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_simnet::SplitMix64;

    const C0: ClientId = ClientId::PRIMARY;
    const C1: ClientId = ClientId(1);

    fn get_completion(id: u64, byte: u8) -> Completion {
        Completion::Get {
            request: RequestId(id),
            data: vec![byte; 4].into(),
        }
    }

    fn result(slot: u64, value: u64) -> Completion {
        Completion::Result { slot, value }
    }

    /// Register the handle that waits on `key`.
    fn register(set: &mut CompletionSet, key: ClaimKey) -> CompletionToken {
        match key {
            ClaimKey::Get(client, r) => set.add_get(GetHandle {
                client,
                request: RequestId(r),
                target: 1,
            }),
            ClaimKey::Put(client, r) => set.add_put(PutHandle {
                client,
                request: RequestId(r),
                target: 1,
            }),
            ClaimKey::Result(client, slot) => {
                set.add_result(ResultHandle::for_client_slot(client, slot))
            }
        }
    }

    /// The keys of the live arrival records, oldest first.
    fn live_records(t: &ClaimTable) -> Vec<ClaimKey> {
        let live = t.arrivals.iter().filter(|&&record| t.is_live(record));
        live.map(|&(_, key)| key).collect()
    }

    /// Claim everything through `earliest_pending`, in the order it offers.
    fn drain_by_queue(t: &mut ClaimTable) -> Vec<ClaimKey> {
        std::iter::from_fn(|| {
            let key = t.earliest_pending(|_| true)?;
            t.claim(key).map(|_| key)
        })
        .collect()
    }

    /// Claim everything through a set holding `keys`, in resolution order.
    fn drain_by_set(t: &mut ClaimTable, keys: &[ClaimKey]) -> Vec<ClaimKey> {
        let mut set = CompletionSet::new();
        let tokens: Vec<CompletionToken> = keys.iter().map(|&k| register(&mut set, k)).collect();
        std::iter::from_fn(|| set.claim_earliest(t))
            .filter_map(|(token, _)| Some(keys[tokens.iter().position(|&t| t == token)?]))
            .collect()
    }

    #[test]
    fn claim_table_indexes_by_request_and_slot() {
        let mut t = ClaimTable::default();
        t.absorb(
            C0,
            vec![
                get_completion(7, 1),
                Completion::Result { slot: 3, value: 30 },
                Completion::Put {
                    request: RequestId(9),
                },
            ],
        );
        assert_eq!(t.len(), 3);
        assert!(t.claim_get(C0, RequestId(8)).is_none());
        assert_eq!(t.claim_get(C0, RequestId(7)).unwrap()[0], 1);
        assert!(
            t.claim_get(C0, RequestId(7)).is_none(),
            "claims are one-shot"
        );
        assert_eq!(t.claim_result(C0, 3), Some(30));
        assert_eq!(t.claim_put(C0, RequestId(9)), Some(()));
        assert!(t.is_empty());
    }

    #[test]
    fn claims_never_cross_clients_even_on_colliding_ids() {
        // Each client runtime allocates its own request ids and mailbox
        // slots, so numeric collisions across clients are the *normal* case
        // — the table must treat (client, id) as the key.
        let mut t = ClaimTable::default();
        t.absorb(C0, vec![get_completion(7, 1)]);
        t.absorb(C1, vec![get_completion(7, 2)]);
        t.absorb(C0, vec![Completion::Result { slot: 4, value: 40 }]);
        t.absorb(C1, vec![Completion::Result { slot: 4, value: 41 }]);
        assert_eq!(t.len(), 4, "colliding ids coexist across clients");
        assert_eq!(t.claim_get(C1, RequestId(7)).unwrap()[0], 2);
        assert_eq!(t.claim_get(C0, RequestId(7)).unwrap()[0], 1);
        assert_eq!(t.claim_result(C0, 4), Some(40));
        assert!(t.claim_result(C0, 4).is_none(), "no double delivery");
        assert_eq!(t.claim_result(C1, 4), Some(41));
        assert!(t.is_empty());
    }

    #[test]
    fn arrival_order_is_preserved_across_kinds() {
        let mut t = ClaimTable::default();
        t.absorb(
            C0,
            vec![
                Completion::Result { slot: 0, value: 1 },
                get_completion(1, 2),
            ],
        );
        t.absorb(
            C0,
            vec![Completion::Put {
                request: RequestId(2),
            }],
        );
        assert_eq!(
            live_records(&t),
            [
                ClaimKey::Result(C0, 0),
                ClaimKey::Get(C0, 1),
                ClaimKey::Put(C0, 2)
            ]
        );
        // The arrival queue yields pending keys oldest-first.
        assert_eq!(t.earliest_pending(|_| true), Some(ClaimKey::Result(C0, 0)));
        t.claim_result(C0, 0);
        assert_eq!(t.earliest_pending(|_| true), Some(ClaimKey::Get(C0, 1)));
        // Selective matching skips (but keeps) non-matching pending keys.
        assert_eq!(
            t.earliest_pending(|k| matches!(k, ClaimKey::Put(..))),
            Some(ClaimKey::Put(C0, 2))
        );
        assert_eq!(t.earliest_pending(|_| true), Some(ClaimKey::Get(C0, 1)));
    }

    #[test]
    fn result_slot_overwrite_keeps_latest_value() {
        let mut t = ClaimTable::default();
        t.absorb(C0, vec![Completion::Result { slot: 5, value: 1 }]);
        t.absorb(C0, vec![Completion::Result { slot: 5, value: 2 }]);
        assert_eq!(t.len(), 1, "a mailbox slot holds one record");
        assert_eq!(t.claim_result(C0, 5), Some(2));
        assert!(t.is_empty());
    }

    /// A slot claimed and then filled again is a *new* arrival: it must not
    /// inherit the queue position its dead record still occupies.
    #[test]
    fn a_reused_result_slot_does_not_jump_the_arrival_queue() {
        let scenario = || {
            let mut t = ClaimTable::default();
            t.absorb(C0, vec![result(5, 1), get_completion(1, 0)]);
            assert_eq!(t.claim_result(C0, 5), Some(1));
            t.absorb(C0, vec![get_completion(2, 0)]);
            t.absorb(C0, vec![result(5, 2)]);
            t
        };
        let want = [
            ClaimKey::Get(C0, 1),
            ClaimKey::Get(C0, 2),
            ClaimKey::Result(C0, 5),
        ];
        let mut t = scenario();
        assert_eq!(live_records(&t), want, "one live record per pending key");
        assert_eq!(drain_by_queue(&mut t), want);
        // Registration order disagrees with arrival order on purpose.
        assert_eq!(
            drain_by_set(&mut scenario(), &[want[2], want[1], want[0]]),
            want
        );
    }

    /// An unclaimed slot that is overwritten is the newer completion from
    /// then on, to the queue and to a set alike.
    #[test]
    fn an_overwritten_result_slot_requeues_behind_earlier_arrivals() {
        let scenario = || {
            let mut t = ClaimTable::default();
            t.absorb(C0, vec![result(5, 1)]);
            t.absorb(C0, vec![get_completion(1, 0)]);
            t.absorb(C0, vec![result(5, 2)]);
            t
        };
        let want = [ClaimKey::Get(C0, 1), ClaimKey::Result(C0, 5)];
        let mut t = scenario();
        assert_eq!(t.len(), 2, "the slot counts once");
        assert_eq!(live_records(&t), want);
        assert_eq!(drain_by_set(&mut scenario(), &[want[1], want[0]]), want);
        assert_eq!(t.earliest_pending(|_| true), Some(want[0]));
        assert_eq!(t.claim_result(C0, 5), Some(2), "the latest value wins");
        assert_eq!(drain_by_queue(&mut t), want[..1]);
    }

    #[test]
    fn arrivals_queue_is_bounded_under_wait_only_claims() {
        // Typed `wait`-style claims never walk the arrival queue; the
        // compaction in `absorb` must still keep it proportional to the
        // pending completions, not to the lifetime op count.
        let mut t = ClaimTable::default();
        for id in 0..10_000u64 {
            t.absorb(C0, vec![get_completion(id, 0)]);
            assert!(t.claim_get(C0, RequestId(id)).is_some());
        }
        assert!(t.is_empty());
        assert!(
            t.arrivals.len() <= 64,
            "stale arrival records must be swept, got {}",
            t.arrivals.len()
        );
    }

    #[test]
    fn set_claims_in_arrival_order_and_duplicates_wait() {
        let mut claims = ClaimTable::default();
        let mut set = CompletionSet::new();
        let g = GetHandle {
            client: C0,
            request: RequestId(4),
            target: 1,
        };
        let t1 = set.add_get(g);
        let t2 = set.add_get(g); // duplicate registration of the same handle
        let t3 = set.add_result(ResultHandle::for_slot(1));
        claims.absorb(
            C0,
            vec![
                Completion::Result { slot: 1, value: 11 },
                get_completion(4, 5),
            ],
        );
        // The result arrived first, so it wins even though the GET is also
        // ready and registered earlier.
        let (tok, ready) = set.claim_earliest(&mut claims).unwrap();
        assert_eq!(tok, t3);
        assert_eq!(ready, Ready::Result(11));
        // The first GET registration claims the data…
        let (tok, ready) = set.claim_earliest(&mut claims).unwrap();
        assert_eq!(tok, t1);
        assert!(matches!(ready, Ready::Get(d) if d[0] == 5));
        // …and the duplicate stays unresolved.
        assert!(set.claim_earliest(&mut claims).is_none());
        assert_eq!(set.len(), 1);
        assert!(set.remove(t2));
        assert!(set.is_empty());
    }

    // --- the table against a naive model -----------------------------------

    /// One step of the model test.
    #[derive(Debug)]
    enum Op {
        /// One client's batch; values are stamped by the runner.
        Absorb(ClientId, Vec<ClaimKey>),
        /// A typed claim (`claim_get` / `claim_put` / `claim_result`).
        Claim(ClaimKey),
        /// Register the keys in this order, resolve up to this many.
        ClaimEarliest(Vec<ClaimKey>, usize),
    }

    /// What the table must behave like: every pending completion in one
    /// `Vec`, every question answered by scanning it.
    #[derive(Default)]
    struct Model {
        /// `(arrival number, key, stamp)`.
        pending: Vec<(u64, ClaimKey, u64)>,
        arrived: u64,
    }

    impl Model {
        fn absorb(&mut self, key: ClaimKey, stamp: u64) {
            let held = self.pending.iter().position(|e| e.1 == key);
            match (held, key) {
                (Some(i), ClaimKey::Result(..)) => drop(self.pending.remove(i)),
                (Some(_), _) => return,
                (None, _) => {}
            }
            self.pending.push((self.arrived, key, stamp));
            self.arrived += 1;
        }

        fn claim(&mut self, key: ClaimKey) -> Option<Ready> {
            let i = self.pending.iter().position(|e| e.1 == key)?;
            let (_, key, stamp) = self.pending.remove(i);
            Some(ready_of(key, stamp))
        }

        /// Earliest-arrived pending key among `wanted`.
        fn earliest(&self, wanted: &[ClaimKey]) -> Option<ClaimKey> {
            let ready = self.pending.iter().filter(|e| wanted.contains(&e.1));
            ready.min_by_key(|e| e.0).map(|e| e.1)
        }
    }

    /// A stamp is unique per deposited completion, so a value that comes
    /// back names exactly which deposit (of which client) it was.
    fn completion_of(key: ClaimKey, stamp: u64) -> Completion {
        match key {
            ClaimKey::Get(_, r) => Completion::Get {
                request: RequestId(r),
                data: stamp.to_le_bytes().to_vec().into(),
            },
            ClaimKey::Put(_, r) => Completion::Put {
                request: RequestId(r),
            },
            ClaimKey::Result(_, slot) => result(slot, stamp),
        }
    }

    fn ready_of(key: ClaimKey, stamp: u64) -> Ready {
        match key {
            ClaimKey::Get(..) => Ready::Get(stamp.to_le_bytes().to_vec().into()),
            ClaimKey::Put(..) => Ready::Put,
            ClaimKey::Result(..) => Ready::Result(stamp),
        }
    }

    fn typed_claim(t: &mut ClaimTable, key: ClaimKey) -> Option<Ready> {
        match key {
            ClaimKey::Get(c, r) => t.claim_get(c, RequestId(r)).map(Ready::Get),
            ClaimKey::Put(c, r) => t.claim_put(c, RequestId(r)).map(|()| Ready::Put),
            ClaimKey::Result(c, s) => t.claim_result(c, s).map(Ready::Result),
        }
    }

    /// Run `ops` on a fresh table and a fresh model in lock step.
    fn check_against_model(label: &str, ops: impl IntoIterator<Item = Op>) {
        let (mut t, mut m) = (ClaimTable::default(), Model::default());
        let mut stamp = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            let at = || format!("{label}, step {step}: {op:?}");
            match &op {
                Op::Absorb(client, keys) => {
                    let mut batch = Vec::new();
                    for &key in keys {
                        stamp += 1;
                        batch.push(completion_of(key, stamp));
                        m.absorb(key, stamp);
                    }
                    t.absorb(*client, batch);
                    let (queued, bound) = (t.arrivals.len(), 64.max(2 * t.len() + 1));
                    assert!(queued <= bound, "{}: {queued} records queued", at());
                }
                Op::Claim(key) => {
                    assert_eq!(typed_claim(&mut t, *key), m.claim(*key), "{}", at())
                }
                Op::ClaimEarliest(keys, rounds) => {
                    let mut set = CompletionSet::new();
                    let tokens: Vec<_> = keys.iter().map(|&k| register(&mut set, k)).collect();
                    for _ in 0..*rounds {
                        let want = m.earliest(keys).and_then(|key| {
                            let token = tokens[keys.iter().position(|&k| k == key)?];
                            Some((token, m.claim(key)?))
                        });
                        assert_eq!(set.claim_earliest(&mut t), want, "{}", at());
                    }
                }
            }
            let mut by_arrival = m.pending.clone();
            by_arrival.sort_by_key(|e| e.0);
            let by_arrival: Vec<ClaimKey> = by_arrival.iter().map(|e| e.1).collect();
            assert_eq!(live_records(&t), by_arrival, "{}", at());
            assert_eq!(t.len(), m.pending.len(), "{}", at());
        }
        // Whatever is left comes out once, in arrival order, as deposited.
        let left: Vec<ClaimKey> = m.pending.iter().map(|e| e.1).collect();
        while let Some(key) = t.earliest_pending(|_| true) {
            assert_eq!(Some(key), m.earliest(&left), "{label}: drain");
            assert_eq!(t.claim(key), m.claim(key), "{label}: drain");
        }
        assert!(t.is_empty() && m.pending.is_empty(), "{label}: drained");
    }

    #[test]
    fn the_table_agrees_with_a_naive_model_on_generated_schedules() {
        const CLIENTS: u64 = 3;
        const IDS: u64 = 8; // collisions across clients and slot reuse are the norm
        let key = |rng: &mut SplitMix64, client: ClientId| {
            let id = rng.below(IDS);
            match rng.below(3) {
                0 => ClaimKey::Get(client, id),
                1 => ClaimKey::Put(client, id),
                _ => ClaimKey::Result(client, id),
            }
        };
        let any_key = |rng: &mut SplitMix64| {
            let client = ClientId(rng.below(CLIENTS) as usize);
            key(rng, client)
        };

        // Three clients absorb interleaved; registration order and client
        // index both disagree with arrival order, which alone decides.
        let gets: Vec<ClaimKey> = (0..3).map(|c| ClaimKey::Get(ClientId(c), 1)).collect();
        check_against_model(
            "interleaved clients",
            [
                Op::Absorb(ClientId(1), vec![gets[1]]),
                Op::Absorb(ClientId(2), vec![gets[2]]),
                Op::Absorb(ClientId(0), vec![gets[0]]),
                Op::ClaimEarliest(vec![gets[2], gets[0], gets[1]], 4),
            ],
        );

        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(0xC1A1_0000 + seed);
            let ops = (0..400).map(|_| match rng.below(7) {
                0..=3 => {
                    let client = ClientId(rng.below(CLIENTS) as usize);
                    let batch = 1 + rng.below(4);
                    Op::Absorb(client, (0..batch).map(|_| key(&mut rng, client)).collect())
                }
                4 | 5 => Op::Claim(any_key(&mut rng)),
                _ => {
                    let registered = rng.below(12);
                    let keys = (0..registered).map(|_| any_key(&mut rng)).collect();
                    Op::ClaimEarliest(keys, 1 + rng.below(3) as usize)
                }
            });
            check_against_model(&format!("seed {seed}"), ops);
        }
    }

    #[test]
    fn peer_lost_takes_pinned_registrations_only() {
        let mut set = CompletionSet::new();
        let t_get = set.add_get(GetHandle {
            client: C0,
            request: RequestId(1),
            target: 2,
        });
        let t_put = set.add_put(PutHandle {
            client: C0,
            request: RequestId(2),
            target: 3,
        });
        let t_res = set.add_result(ResultHandle::for_slot(7));
        // Rank 1 lost nothing registered; result registrations are never
        // pinned, so losing every rank still leaves the result waiting.
        assert_eq!(set.take_peer_lost(&[1]), None);
        assert_eq!(set.take_peer_lost(&[3]), Some((t_put, 3)));
        assert_eq!(set.take_peer_lost(&[2, 3]), Some((t_get, 2)));
        assert_eq!(set.take_peer_lost(&[1, 2, 3]), None);
        assert!(set.remove(t_res));
        assert!(set.is_empty());
    }

    #[test]
    fn quiescence_resolves_the_earliest_deadline_first() {
        let mut set = CompletionSet::new();
        let t_late = set.add_result(ResultHandle::for_slot(1));
        let t_early = set.add_result(ResultHandle::for_slot(2));
        set.deadline(t_late, 10_000);
        set.deadline(t_early, 100);
        set.resolve_deadlines(0);
        // The lower token has the *later* deadline; quiescence must still
        // resolve the earlier deadline first.
        assert_eq!(set.take_any_deadlined(), Some(t_early));
        assert_eq!(set.take_any_deadlined(), Some(t_late));
        assert_eq!(set.take_any_deadlined(), None);
    }

    #[test]
    fn deadlines_resolve_relative_to_first_drive() {
        let mut set = CompletionSet::new();
        let t = set.add_result(ResultHandle::for_slot(9));
        assert!(set.deadline(t, 100));
        assert!(set.has_deadlines());
        set.resolve_deadlines(1_000);
        assert!(set.take_expired(1_099).is_none());
        assert_eq!(set.take_expired(1_100), Some(t));
        assert!(set.take_expired(u64::MAX).is_none());
        assert!(!set.has_deadlines());
    }
}
