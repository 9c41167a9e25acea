//! The async completion plane: indexed completion claiming and
//! poll/select-style multiplexing over heterogeneous handles.
//!
//! The paper's X-RDMA story depends on keeping many one-sided operations and
//! result mailboxes in flight at once.  Three pieces make that scale:
//!
//! * [`ClaimTable`] — the client-side buffer of arrived-but-unclaimed
//!   completions, indexed by request id / mailbox slot *and* threaded on an
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
//! The table also powers the fixed
//! [`Cluster::run_until_completions`](super::Cluster::run_until_completions)
//! contract: completions returned from that call stay *claimable* by later
//! typed waits until something actually claims them.

use super::{ClientId, CompletionHandle, GetHandle, ResultHandle};
use crate::runtime::Completion;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tc_ucx::{Bytes, RequestId};

/// What a pending completion is keyed by — the join point between the claim
/// table's arrivals and a [`CompletionSet`]'s registrations.  Every key
/// carries the owning [`ClientId`]: request ids and mailbox slots are
/// per-client spaces (each client runtime allocates its own), so two clients
/// posting concurrently produce *colliding* numeric ids that must never
/// claim each other's completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum ClaimKey {
    Get(ClientId, u64),
    Put(ClientId, u64),
    Result(ClientId, u64),
}

/// One arrived-but-unclaimed completion value.
#[derive(Debug, Clone)]
struct Arrived<V> {
    /// Global arrival order (used for fairness in `wait_any`).
    seq: u64,
    /// True once the completion was handed out by `run_until_completions`
    /// (it stays claimable, but is not returned or counted again).
    observed: bool,
    value: V,
}

/// Indexed buffer of completions that reached a client but have not been
/// claimed by a typed handle yet.
///
/// Keys are what handles wait on: `(client, GET request id)`,
/// `(client, confirmed-PUT request id)`, `(client, result-mailbox slot)` —
/// always qualified by the owning [`ClientId`], so completions of different
/// clients are routed independently even when their numeric ids collide.
/// Claiming is O(1), and one arrival queue shared across all clients keeps
/// first-arrived fairness O(1) amortized; with hundreds of operations
/// outstanding this is the difference between linear and quadratic
/// completion draining.
#[derive(Debug, Default)]
pub struct ClaimTable {
    gets: HashMap<(ClientId, u64), Arrived<Bytes>>,
    puts: HashMap<(ClientId, u64), Arrived<()>>,
    results: HashMap<(ClientId, u64), Arrived<u64>>,
    /// Pending keys in arrival order (entries whose completion was since
    /// claimed are pruned lazily).
    arrivals: VecDeque<ClaimKey>,
    /// Unclaimed completions not yet handed out by `run_until_completions`
    /// (maintained incrementally so the wait loops check it in O(1)).
    fresh: usize,
    seq: SeqSource,
}

/// Where a table draws its arrival-order numbers from.  A standalone table
/// numbers arrivals locally; a shard of a [`ClaimShards`] draws from the
/// counter shared by every shard, so arrival order stays globally comparable
/// even when different client threads absorb concurrently.
#[derive(Debug)]
enum SeqSource {
    Local(u64),
    Shared(Arc<AtomicU64>),
}

impl Default for SeqSource {
    fn default() -> Self {
        SeqSource::Local(0)
    }
}

impl SeqSource {
    fn next(&mut self) -> u64 {
        match self {
            SeqSource::Local(n) => {
                let seq = *n;
                *n += 1;
                seq
            }
            SeqSource::Shared(counter) => counter.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl ClaimTable {
    /// A table that numbers arrivals from a counter shared with other
    /// tables — the shard constructor used by [`ClaimShards`].
    fn sharing_seq(counter: &Arc<AtomicU64>) -> Self {
        ClaimTable {
            seq: SeqSource::Shared(Arc::clone(counter)),
            ..ClaimTable::default()
        }
    }

    /// Fold a batch of one client's transport completions into the table.
    ///
    /// A result slot holds at most one unclaimed value per client (the
    /// mailbox slot is a single 16-byte record; a second arrival before the
    /// first claim is an overwrite: the entry takes the new value and counts
    /// as a *fresh* arrival again, though it keeps its original position in
    /// the arrival queue).  Duplicate confirmed-PUT acks collapse onto the
    /// first.
    pub fn absorb(&mut self, client: ClientId, completions: Vec<Completion>) {
        self.compact_arrivals();
        for c in completions {
            let seq = self.seq.next();
            match c {
                Completion::Get { request, data } => {
                    if let std::collections::hash_map::Entry::Vacant(v) =
                        self.gets.entry((client, request.0))
                    {
                        v.insert(Arrived {
                            seq,
                            observed: false,
                            value: data,
                        });
                        self.arrivals.push_back(ClaimKey::Get(client, request.0));
                        self.fresh += 1;
                    }
                }
                Completion::Put { request } => {
                    if let std::collections::hash_map::Entry::Vacant(v) =
                        self.puts.entry((client, request.0))
                    {
                        v.insert(Arrived {
                            seq,
                            observed: false,
                            value: (),
                        });
                        self.arrivals.push_back(ClaimKey::Put(client, request.0));
                        self.fresh += 1;
                    }
                }
                Completion::Result { slot, value } => match self.results.get_mut(&(client, slot)) {
                    Some(existing) => {
                        // A reused slot delivered a new record: it is a new
                        // completion, even if the previous one was already
                        // handed out by `run_until_completions`.
                        existing.value = value;
                        existing.seq = seq;
                        if existing.observed {
                            existing.observed = false;
                            self.fresh += 1;
                        }
                    }
                    None => {
                        self.results.insert(
                            (client, slot),
                            Arrived {
                                seq,
                                observed: false,
                                value,
                            },
                        );
                        self.arrivals.push_back(ClaimKey::Result(client, slot));
                        self.fresh += 1;
                    }
                },
            }
        }
    }

    fn is_pending(&self, key: ClaimKey) -> bool {
        match key {
            ClaimKey::Get(c, r) => self.gets.contains_key(&(c, r)),
            ClaimKey::Put(c, r) => self.puts.contains_key(&(c, r)),
            ClaimKey::Result(c, s) => self.results.contains_key(&(c, s)),
        }
    }

    /// Sweep stale (already-claimed) arrival records once the queue holds
    /// more stale entries than live ones.  Claims through typed
    /// `wait`/`try_claim` never walk the queue, so without this a
    /// wait-only driver would grow `arrivals` without bound; amortised over
    /// `absorb`, the queue stays within 2× the pending completions.
    fn compact_arrivals(&mut self) {
        if self.arrivals.len() > 32 && self.arrivals.len() > 2 * self.len() {
            let arrivals = std::mem::take(&mut self.arrivals);
            self.arrivals = arrivals
                .into_iter()
                .filter(|&k| self.is_pending(k))
                .collect();
        }
    }

    /// The earliest-arrived pending key accepted by `wanted`.  Stale
    /// (claimed) records are popped eagerly at the front and swept from the
    /// interior by [`ClaimTable::compact_arrivals`]; entries that are
    /// pending but not wanted (e.g. observed completions no handle waits on
    /// yet) are skipped without being dropped.
    pub(super) fn earliest_pending(
        &mut self,
        mut wanted: impl FnMut(ClaimKey) -> bool,
    ) -> Option<ClaimKey> {
        // Pop claimed records off the front (O(1)); interior stale entries
        // are just skipped — `compact_arrivals` reclaims them in bulk.
        while let Some(&key) = self.arrivals.front() {
            if self.is_pending(key) {
                break;
            }
            self.arrivals.pop_front();
        }
        let mut i = 0;
        while i < self.arrivals.len() {
            let key = self.arrivals[i];
            if self.is_pending(key) && wanted(key) {
                return Some(key);
            }
            i += 1;
        }
        None
    }

    /// Arrival-order number of a pending key, if present.
    fn seq_of(&self, key: ClaimKey) -> Option<u64> {
        match key {
            ClaimKey::Get(c, r) => self.gets.get(&(c, r)).map(|a| a.seq),
            ClaimKey::Put(c, r) => self.puts.get(&(c, r)).map(|a| a.seq),
            ClaimKey::Result(c, s) => self.results.get(&(c, s)).map(|a| a.seq),
        }
    }

    /// Like [`ClaimTable::earliest_pending`] but paired with the key's
    /// arrival-order number, so shards can compare candidates globally.
    pub(super) fn earliest_pending_seq(
        &mut self,
        wanted: impl FnMut(ClaimKey) -> bool,
    ) -> Option<(u64, ClaimKey)> {
        let key = self.earliest_pending(wanted)?;
        let seq = self.seq_of(key).expect("earliest_pending keys are pending");
        Some((seq, key))
    }

    fn note_claimed(fresh: &mut usize, observed: bool) {
        if !observed {
            *fresh -= 1;
        }
    }

    /// Remove and return one client's GET completion.
    pub fn claim_get(&mut self, client: ClientId, request: RequestId) -> Option<Bytes> {
        self.gets.remove(&(client, request.0)).map(|a| {
            Self::note_claimed(&mut self.fresh, a.observed);
            a.value
        })
    }

    /// Remove and return one client's confirmed-PUT completion.
    pub fn claim_put(&mut self, client: ClientId, request: RequestId) -> Option<()> {
        self.puts.remove(&(client, request.0)).map(|a| {
            Self::note_claimed(&mut self.fresh, a.observed);
            a.value
        })
    }

    /// Remove and return one client's X-RDMA result completion.
    pub fn claim_result(&mut self, client: ClientId, slot: u64) -> Option<u64> {
        self.results.remove(&(client, slot)).map(|a| {
            Self::note_claimed(&mut self.fresh, a.observed);
            a.value
        })
    }

    /// Arrival order of a pending GET completion, if present.
    pub fn get_arrival(&self, client: ClientId, request: RequestId) -> Option<u64> {
        self.gets.get(&(client, request.0)).map(|a| a.seq)
    }

    /// Arrival order of a pending confirmed-PUT completion, if present.
    pub fn put_arrival(&self, client: ClientId, request: RequestId) -> Option<u64> {
        self.puts.get(&(client, request.0)).map(|a| a.seq)
    }

    /// Arrival order of a pending result completion, if present.
    pub fn result_arrival(&self, client: ClientId, slot: u64) -> Option<u64> {
        self.results.get(&(client, slot)).map(|a| a.seq)
    }

    /// Number of unclaimed completions (observed or not).
    pub fn len(&self) -> usize {
        self.gets.len() + self.puts.len() + self.results.len()
    }

    /// True when no completion is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of unclaimed completions that have not yet been handed out by
    /// `run_until_completions` (O(1): the wait loops check it per step).
    pub fn fresh_len(&self) -> usize {
        self.fresh
    }

    /// Snapshot the not-yet-observed completions in arrival order, marking
    /// them observed.  They remain claimable by typed handles.  (The
    /// returned [`Completion`] values carry the per-client numeric ids; on a
    /// multi-client cluster use typed handles to keep the client attribution.)
    pub fn take_fresh(&mut self) -> Vec<Completion> {
        let mut out = self.take_fresh_seq();
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, c)| c).collect()
    }

    /// [`ClaimTable::take_fresh`] with arrival-order numbers attached and no
    /// sorting — shards merge-sort across tables instead.
    fn take_fresh_seq(&mut self) -> Vec<(u64, Completion)> {
        let mut out: Vec<(u64, Completion)> = Vec::new();
        for (&(_, request), a) in self.gets.iter_mut().filter(|(_, a)| !a.observed) {
            a.observed = true;
            out.push((
                a.seq,
                Completion::Get {
                    request: RequestId(request),
                    data: a.value.clone(),
                },
            ));
        }
        for (&(_, request), a) in self.puts.iter_mut().filter(|(_, a)| !a.observed) {
            a.observed = true;
            out.push((
                a.seq,
                Completion::Put {
                    request: RequestId(request),
                },
            ));
        }
        for (&(_, slot), a) in self.results.iter_mut().filter(|(_, a)| !a.observed) {
            a.observed = true;
            out.push((
                a.seq,
                Completion::Result {
                    slot,
                    value: a.value,
                },
            ));
        }
        self.fresh = 0;
        out
    }
}

/// The sharded claim table: one [`ClaimTable`] per client behind its own
/// mutex, numbering arrivals from one shared counter.
///
/// Sharding by [`ClientId`] is exact, not probabilistic — every claim key is
/// qualified by its owning client, so a completion's shard is a direct index
/// and cross-shard claims cannot exist.  The per-shard mutexes mean a
/// thread depositing completions contends only with waiters touching
/// *that* client, never with another client's hot claim path (every in-tree
/// backend now deposits from the driving thread; the table stays safe to
/// share); the shared
/// arrival counter keeps `wait_any` first-arrived fairness globally
/// meaningful even though different shards absorb concurrently.
///
/// Locking discipline: at most one shard lock is held at a time, always
/// acquired and released within a single method — so there is no lock-order
/// hazard between shards, and a producer on another thread can never
/// deadlock against consumers (the user thread driving the wait loops).
#[derive(Debug)]
pub struct ClaimShards {
    shards: Vec<Mutex<ClaimTable>>,
}

impl ClaimShards {
    /// A sharded table with one shard per client (at least one).
    pub fn new(clients: usize) -> Self {
        let counter = Arc::new(AtomicU64::new(0));
        ClaimShards {
            shards: (0..clients.max(1))
                .map(|_| Mutex::new(ClaimTable::sharing_seq(&counter)))
                .collect(),
        }
    }

    /// Number of shards (clients the table was sized for).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, ClaimTable> {
        // A shard is only poisoned if a thread panicked mid-`absorb`; the
        // table's invariants are per-entry, so recover rather than cascade.
        self.shards[shard]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Lock and return one client's shard.
    pub fn shard(&self, client: ClientId) -> MutexGuard<'_, ClaimTable> {
        self.lock(client.0)
    }

    /// Fold a batch of one client's transport completions into its shard.
    /// Callable from any thread; blocks only on that client's shard lock.
    pub fn absorb(&self, client: ClientId, completions: Vec<Completion>) {
        if completions.is_empty() {
            return;
        }
        self.shard(client).absorb(client, completions);
    }

    /// Total unclaimed completions across all shards (observed or not).
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock(i).len()).sum()
    }

    /// True when no completion is pending in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total not-yet-observed completions across all shards.
    pub fn fresh_len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock(i).fresh_len())
            .sum()
    }

    /// Snapshot the not-yet-observed completions of every shard in global
    /// arrival order, marking them observed (they stay claimable).
    pub fn take_fresh(&self) -> Vec<Completion> {
        let mut out: Vec<(u64, Completion)> = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(self.lock(i).take_fresh_seq());
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, c)| c).collect()
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

    fn try_claim(&self, claims: &ClaimShards) -> Option<()> {
        claims
            .shard(self.client)
            .claim_put(self.client, self.request)
    }

    fn ready_at(&self, claims: &ClaimShards) -> Option<u64> {
        claims
            .shard(self.client)
            .put_arrival(self.client, self.request)
    }

    fn describe(&self) -> String {
        format!(
            "confirmed PUT (client {}, request {})",
            self.client.0, self.request.0
        )
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

#[derive(Debug, Clone, Copy)]
enum Registered {
    Get(GetHandle),
    Result(ResultHandle),
    Put(PutHandle),
}

impl Registered {
    fn key(&self) -> ClaimKey {
        match self {
            Registered::Get(h) => ClaimKey::Get(h.client(), h.request().0),
            Registered::Result(h) => ClaimKey::Result(h.client(), h.slot()),
            Registered::Put(h) => ClaimKey::Put(h.client(), h.request().0),
        }
    }

    fn describe(&self) -> String {
        match self {
            Registered::Get(h) => h.describe(),
            Registered::Result(h) => h.describe(),
            Registered::Put(h) => h.describe(),
        }
    }
}

#[derive(Debug)]
struct SetEntry {
    target: Registered,
    deadline: Option<DeadlineState>,
}

/// Tokens registered for one completion key.  Almost every key has exactly
/// one registration; the single-token representation avoids a heap
/// allocation per outstanding operation on the hot path.
#[derive(Debug)]
enum Tokens {
    One(u64),
    Many(BTreeSet<u64>),
}

impl Tokens {
    fn insert(&mut self, token: u64) {
        match self {
            Tokens::One(existing) => {
                let mut set = BTreeSet::new();
                set.insert(*existing);
                set.insert(token);
                *self = Tokens::Many(set);
            }
            Tokens::Many(set) => {
                set.insert(token);
            }
        }
    }

    /// Lowest registered token (duplicates resolve earliest-token-first).
    fn first(&self) -> u64 {
        match self {
            Tokens::One(t) => *t,
            Tokens::Many(set) => *set.iter().next().expect("Many is never empty"),
        }
    }

    /// Remove `token`; true when the key has no registrations left.
    fn remove(&mut self, token: u64) -> bool {
        match self {
            Tokens::One(t) => *t == token,
            Tokens::Many(set) => {
                set.remove(&token);
                if set.len() == 1 {
                    *self = Tokens::One(*set.iter().next().unwrap());
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

    fn push(&mut self, target: Registered) -> CompletionToken {
        let token = self.next_token;
        self.next_token += 1;
        match self.index.entry(target.key()) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Tokens::One(token));
            }
            std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().insert(token),
        }
        self.entries.insert(
            token,
            SetEntry {
                target,
                deadline: None,
            },
        );
        CompletionToken(token)
    }

    /// Register a GET handle.
    pub fn add_get(&mut self, handle: GetHandle) -> CompletionToken {
        self.push(Registered::Get(handle))
    }

    /// Register an X-RDMA result handle.
    pub fn add_result(&mut self, handle: ResultHandle) -> CompletionToken {
        self.push(Registered::Result(handle))
    }

    /// Register a confirmed-PUT handle.
    pub fn add_put(&mut self, handle: PutHandle) -> CompletionToken {
        self.push(Registered::Put(handle))
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
        self.unindex(token.0, &entry);
        true
    }

    fn unindex(&mut self, token: u64, entry: &SetEntry) {
        let key = entry.target.key();
        if let Some(tokens) = self.index.get_mut(&key) {
            if tokens.remove(token) {
                self.index.remove(&key);
            }
        }
        self.deadlined.remove(&token);
    }

    fn take_entry(&mut self, token: u64) -> SetEntry {
        let entry = self.entries.remove(&token).expect("token is registered");
        self.unindex(token, &entry);
        entry
    }

    /// Resolve relative deadlines against the transport clock.  Called by
    /// the cluster's wait loops before checking expiry; touches only
    /// deadline-armed registrations.
    pub(super) fn resolve_deadlines(&mut self, now: u64) {
        for &token in &self.deadlined {
            let e = self.entries.get_mut(&token).expect("deadlined ⊆ entries");
            if let Some(DeadlineState::Relative(d)) = e.deadline {
                e.deadline = Some(DeadlineState::Absolute(now.saturating_add(d)));
            }
        }
    }

    /// True when any registration has an armed deadline.
    pub(super) fn has_deadlines(&self) -> bool {
        !self.deadlined.is_empty()
    }

    /// Claim the ready entry whose completion arrived earliest, if any.
    ///
    /// Scans every shard for its earliest wanted pending key (one shard
    /// lock at a time) and picks the global minimum by the shared arrival
    /// counter — so first-arrived fairness is preserved across shards
    /// exactly as it was on the unsharded table.  The set itself is owned
    /// by the waiting thread; only the shard locks are contended.
    pub(super) fn claim_earliest(
        &mut self,
        claims: &ClaimShards,
    ) -> Option<(CompletionToken, Ready)> {
        let index = &self.index;
        let mut best: Option<(u64, ClaimKey)> = None;
        for shard in 0..claims.shard_count() {
            let candidate = claims
                .lock(shard)
                .earliest_pending_seq(|k| index.contains_key(&k));
            if let Some((seq, key)) = candidate {
                if best.map(|(b, _)| seq < b).unwrap_or(true) {
                    best = Some((seq, key));
                }
            }
        }
        let (_, key) = best?;
        let token = self.index[&key].first();
        let entry = self.take_entry(token);
        let ready = match entry.target {
            Registered::Get(h) => Ready::Get(h.try_claim(claims).expect("ready GET claims")),
            Registered::Result(h) => {
                Ready::Result(h.try_claim(claims).expect("ready result claims"))
            }
            Registered::Put(h) => {
                h.try_claim(claims).expect("ready PUT claims");
                Ready::Put
            }
        };
        Some((CompletionToken(token), ready))
    }

    /// Remove and return the earliest-registered entry pinned to one of the
    /// `failed` ranks, together with that rank.  Pinned registrations (GETs
    /// and confirmed PUTs) can only complete from their target server, so a
    /// terminally failed target means the wait can never succeed; result
    /// registrations are not pinned and never resolve this way.
    pub(super) fn take_peer_lost(&mut self, failed: &[usize]) -> Option<(CompletionToken, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for (&token, e) in &self.entries {
            let target = match &e.target {
                Registered::Get(h) => h.target,
                Registered::Put(h) => h.target,
                Registered::Result(_) => continue,
            };
            if failed.contains(&target) && best.map(|(b, _)| token < b).unwrap_or(true) {
                best = Some((token, target));
            }
        }
        let (token, rank) = best?;
        self.take_entry(token);
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
        let (_, token) = best?;
        self.take_entry(token);
        Some(CompletionToken(token))
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
        let (_, token) = best?;
        self.take_entry(token);
        Some(CompletionToken(token))
    }

    /// Description of the still-registered handles, for timeout errors.
    pub(super) fn describe(&self) -> String {
        let mut tokens: Vec<u64> = self.entries.keys().copied().collect();
        tokens.sort_unstable();
        let mut parts: Vec<String> = tokens
            .iter()
            .take(4)
            .map(|t| self.entries[t].target.describe())
            .collect();
        if self.entries.len() > 4 {
            parts.push(format!("… {} more", self.entries.len() - 4));
        }
        format!("any of [{}]", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: ClientId = ClientId::PRIMARY;
    const C1: ClientId = ClientId(1);

    fn get_completion(id: u64, byte: u8) -> Completion {
        Completion::Get {
            request: RequestId(id),
            data: vec![byte; 4].into(),
        }
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
        assert!(t.result_arrival(C0, 0).unwrap() < t.get_arrival(C0, RequestId(1)).unwrap());
        assert!(
            t.get_arrival(C0, RequestId(1)).unwrap() < t.put_arrival(C0, RequestId(2)).unwrap()
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
        assert_eq!(t.fresh_len(), 1);
        assert_eq!(t.claim_result(C0, 5), Some(2));
        assert_eq!(t.fresh_len(), 0);
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
    fn reused_slot_counts_as_fresh_again_after_take_fresh() {
        // A second result on a reused slot must be returned by the next
        // `run_until_completions` even though the first was already handed
        // out (and never claimed).
        let mut t = ClaimTable::default();
        t.absorb(C0, vec![Completion::Result { slot: 5, value: 1 }]);
        assert_eq!(t.take_fresh().len(), 1);
        assert_eq!(t.fresh_len(), 0);
        t.absorb(C0, vec![Completion::Result { slot: 5, value: 2 }]);
        assert_eq!(t.fresh_len(), 1, "the overwrite is a new completion");
        let fresh = t.take_fresh();
        assert_eq!(fresh, vec![Completion::Result { slot: 5, value: 2 }]);
        assert_eq!(t.claim_result(C0, 5), Some(2), "still claimable afterwards");
    }

    #[test]
    fn take_fresh_marks_observed_but_keeps_claimable() {
        let mut t = ClaimTable::default();
        t.absorb(C0, vec![get_completion(1, 9), get_completion(2, 8)]);
        let fresh = t.take_fresh();
        assert_eq!(fresh.len(), 2);
        assert!(matches!(&fresh[0], Completion::Get { request, .. } if request.0 == 1));
        assert_eq!(t.fresh_len(), 0, "observed completions are not re-counted");
        assert_eq!(t.len(), 2, "…but they stay claimable");
        assert!(t.take_fresh().is_empty());
        assert!(t.claim_get(C0, RequestId(2)).is_some());
    }

    #[test]
    fn set_claims_in_arrival_order_and_duplicates_wait() {
        let claims = ClaimShards::new(1);
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
        let (tok, ready) = set.claim_earliest(&claims).unwrap();
        assert_eq!(tok, t3);
        assert_eq!(ready, Ready::Result(11));
        // The first GET registration claims the data…
        let (tok, ready) = set.claim_earliest(&claims).unwrap();
        assert_eq!(tok, t1);
        assert!(matches!(ready, Ready::Get(d) if d[0] == 5));
        // …and the duplicate stays unresolved.
        assert!(set.claim_earliest(&claims).is_none());
        assert_eq!(set.len(), 1);
        assert!(set.remove(t2));
        assert!(set.is_empty());
    }

    #[test]
    fn wait_any_fairness_survives_sharding() {
        // Registration order and shard index both disagree with arrival
        // order; the shared arrival counter must be the only tiebreak, so
        // the sharded table resolves exactly like the unsharded one did.
        let claims = ClaimShards::new(3);
        let mut set = CompletionSet::new();
        let handle = |c: usize| GetHandle {
            client: ClientId(c),
            request: RequestId(1),
            target: 1,
        };
        let t2 = set.add_get(handle(2));
        let t0 = set.add_get(handle(0));
        let t1 = set.add_get(handle(1));
        claims.absorb(ClientId(1), vec![get_completion(1, 0)]);
        claims.absorb(ClientId(2), vec![get_completion(1, 0)]);
        claims.absorb(ClientId(0), vec![get_completion(1, 0)]);
        let order: Vec<CompletionToken> =
            std::iter::from_fn(|| set.claim_earliest(&claims).map(|(tok, _)| tok)).collect();
        assert_eq!(
            order,
            vec![t1, t2, t0],
            "global arrival order wins, not shard index or token order"
        );
        assert!(claims.is_empty());
    }

    #[test]
    fn sharded_claims_survive_concurrent_producers_and_racing_waiters() {
        // N producer threads absorb colliding per-client id spaces while
        // 2×N waiter threads race to claim them: every completion must be
        // observed exactly once (the claim count reaching the absorb count
        // with empty shards proves no loss; a double-observe would overshoot
        // the target and trip the final assertions).
        const CLIENTS: usize = 4;
        const PER_CLIENT: u64 = 500;
        const TARGET: u64 = (CLIENTS as u64) * PER_CLIENT;
        let shards = Arc::new(ClaimShards::new(CLIENTS));
        let claimed = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for c in 0..CLIENTS {
            let shards = Arc::clone(&shards);
            threads.push(std::thread::spawn(move || {
                // Ids 0..PER_CLIENT collide numerically across every client.
                for id in 0..PER_CLIENT {
                    shards.absorb(
                        ClientId(c),
                        vec![Completion::Get {
                            request: RequestId(id),
                            data: vec![c as u8; 2].into(),
                        }],
                    );
                }
            }));
        }
        for c in 0..CLIENTS {
            for _ in 0..2 {
                // Two waiters per client race for the same id space.
                let shards = Arc::clone(&shards);
                let claimed = Arc::clone(&claimed);
                threads.push(std::thread::spawn(move || {
                    let mut passes = 0u64;
                    while claimed.load(Ordering::Relaxed) < TARGET {
                        for id in 0..PER_CLIENT {
                            let got = shards
                                .shard(ClientId(c))
                                .claim_get(ClientId(c), RequestId(id));
                            if let Some(data) = got {
                                assert_eq!(data[0], c as u8, "cross-client claim leak");
                                claimed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        passes += 1;
                        assert!(passes < 1_000_000, "lost completion: waiters spinning dry");
                        std::thread::yield_now();
                    }
                }));
            }
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            claimed.load(Ordering::Relaxed),
            TARGET,
            "every completion observed exactly once"
        );
        assert!(shards.is_empty(), "no completion left behind");
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
