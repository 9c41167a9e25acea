//! Shared, cheaply-cloneable payload buffers and a recycling buffer pool.
//!
//! Every hop of the data plane used to own its payload as a `Vec<u8>`,
//! so a PUT travelling client → wire → node memory was reallocated and
//! memcpy'd several times.  [`Bytes`] replaces those owned vectors with a
//! reference-counted slice view: cloning is a refcount bump, and
//! [`Bytes::slice`] produces sub-views of the same allocation — the receive
//! path can hand the payload of a decoded wire envelope straight to the
//! runtime without copying a byte.
//!
//! [`BufPool`] complements it on the *send* side: encode scratch buffers are
//! `Arc<[u8]>` allocations the pool keeps a reference to.  While a message is
//! in flight the pool's slot is shared (refcount ≥ 2) and untouchable; once
//! the last `Bytes` view drops, the slot becomes unique again and a later
//! [`BufPool::fill`] reuses it in place — steady-state sends allocate
//! nothing.  The pool counts allocations vs. reuses, which doubles as the
//! copy/allocation instrumentation the wire-parity tests assert on.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::iter;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply-cloneable, immutable view into reference-counted bytes.
///
/// `Bytes` dereferences to `[u8]`, compares by content, and clones by
/// refcount.  Sub-views created with [`Bytes::slice`] / [`Bytes::split_to`]
/// share the backing allocation with their parent (checkable through
/// [`Bytes::shares_storage`]).
#[derive(Clone)]
pub struct Bytes {
    /// `None` for an empty view that never had storage: making, cloning and
    /// dropping one touches no reference count.
    data: Option<Arc<[u8]>>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer, backed by nothing: making one allocates nothing.
    #[inline]
    pub fn new() -> Self {
        Bytes {
            data: None,
            start: 0,
            len: 0,
        }
    }

    /// Copy a slice into a fresh allocation.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes {
            data: Some(Arc::from(src)),
            start: 0,
            len: src.len(),
        }
    }

    /// Length of this view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.start + self.len],
            None => &[],
        }
    }

    /// A sub-view of this view (zero-copy; shares the backing allocation).
    ///
    /// # Panics
    /// Panics when the range is out of bounds, mirroring slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            begin <= end && end <= self.len,
            "Bytes::slice range {begin}..{end} out of bounds for length {}",
            self.len
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            len: end - begin,
        }
    }

    /// Split off and return the first `at` bytes, leaving the rest in `self`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        self.len -= at;
        head
    }

    /// True when both views are backed by the same allocation — the
    /// zero-copy property tests' witness that no bytes were copied.
    pub fn shares_storage(&self, other: &Bytes) -> bool {
        match (&self.data, &other.data) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Copy the viewed bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} B)", self.len)?;
        if self.len <= 16 {
            write!(f, " {:02x?}", self.as_slice())?;
        }
        Ok(())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Some(Arc::from(v)),
            start: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Bytes::copy_from_slice(&a)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// Allocation/reuse counters of a [`BufPool`] — the "copy-counting" hooks the
/// zero-copy tests assert on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers newly allocated because no free slot was large enough.
    pub allocated: u64,
    /// Buffers recycled from a previously released slot.
    pub reused: u64,
    /// Total bytes handed out across all fills.
    pub bytes_acquired: u64,
}

/// A recycling pool of `Arc<[u8]>` encode-scratch buffers.
///
/// The pool retains a reference to every buffer it has handed out, in a ring
/// ordered oldest first: buffers come back in roughly the order they left,
/// so the slot at the front is the one most likely free.  A slot whose
/// refcount has dropped back to one (every [`Bytes`] view of it is gone) is
/// writable again and gets reused by a later [`BufPool::fill`] that
/// fits, so the steady-state send path performs **zero allocations**: the
/// same few buffers rotate through the fabric.
///
/// A fill looks at no more than `PROBE` slots, and at the cap the slot
/// held longest is evicted (the pool drops its reference; live views keep
/// the memory).  A slot pinned for good — by the registration of an ifunc
/// whose frame arrived in one buffer — is looked at only while it is near
/// the front and leaves the ring once it is the front slot at the cap: no
/// fill scans every slot.
#[derive(Debug, Default)]
pub struct BufPool {
    /// Retained slots, the one held longest at the front.
    slots: VecDeque<Arc<[u8]>>,
    /// Allocation/reuse counters.
    pub stats: PoolStats,
}

/// Smallest buffer the pool allocates; tiny envelopes share slots.
const MIN_BUF: usize = 256;
/// Cap on retained slots; retaining one more evicts the front slot.
const DEFAULT_MAX_SLOTS: usize = 64;
/// Slots one [`BufPool::fill`] looks at before it allocates.
const PROBE: usize = 4;

impl BufPool {
    /// An empty pool retaining up to `DEFAULT_MAX_SLOTS` slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write `len` bytes into a pool buffer with `write` and freeze them
    /// into a view; the slot returns to the pool for reuse once every view
    /// of it drops.  A retained slot is free when the pool holds its only
    /// reference: the slots a hit passes over go to the back of the ring; a
    /// miss moves nothing, so the front stays the slot held longest and is
    /// the one evicted at the cap.  Free slots are found by reading
    /// reference counts, and the one taken is made writable by one
    /// uniqueness check.  A `write` that fails hands its slot back.
    pub fn fill<E>(
        &mut self,
        len: usize,
        write: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Bytes, E> {
        self.stats.bytes_acquired += len as u64;
        let free = |s: &Arc<[u8]>| s.len() >= len && Arc::strong_count(s) == 1;
        let hit = self.slots.iter().take(PROBE).position(free);
        let reused = hit.and_then(|i| {
            self.slots.rotate_left(i);
            self.slots.pop_front()
        });
        let mut buf = match reused {
            Some(buf) => {
                self.stats.reused += 1;
                buf
            }
            None => {
                self.stats.allocated += 1;
                iter::repeat_n(0, len.next_power_of_two().max(MIN_BUF)).collect()
            }
        };
        // Unique unless a weak reference appeared: then this copies.
        let written = write(&mut Arc::make_mut(&mut buf)[..len]);
        if self.slots.len() >= DEFAULT_MAX_SLOTS {
            self.slots.pop_front();
        }
        self.slots.push_back(Arc::clone(&buf));
        let view = Bytes {
            data: Some(buf),
            start: 0,
            len,
        };
        written.map(|()| view)
    }
}

/// Copy `src` to the front of `*out` and advance `*out` past it.
///
/// The append step for encoders that write a [`BufPool::fill`] region
/// field by field.
///
/// # Panics
/// Panics when `src` is longer than what is left of `*out`, mirroring slice
/// indexing.
#[inline]
pub fn put(out: &mut &mut [u8], src: &[u8]) {
    let (head, rest) = std::mem::take(out).split_at_mut(src.len());
    head.copy_from_slice(src);
    *out = rest;
}

thread_local! {
    static TLS_POOL: RefCell<BufPool> = RefCell::new(BufPool::new());
}

/// `len` bytes written by `write` into a buffer of this thread's encode
/// pool: [`BufPool::fill`] for a write that cannot fail.
pub fn pooled(len: usize, write: impl FnOnce(&mut [u8])) -> Bytes {
    let write = |out: &mut [u8]| {
        write(out);
        Ok::<_, Infallible>(())
    };
    let Ok(bytes) = with_pool(|pool| pool.fill(len, write));
    bytes
}

/// Run `f` with this thread's encode pool.  The wire codecs use this so hot
/// send paths need no pool plumbing; each transport thread recycles its own
/// buffers.
pub fn with_pool<R>(f: impl FnOnce(&mut BufPool) -> R) -> R {
    TLS_POOL.with(|p| f(&mut p.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_split_share_storage_and_preserve_content() {
        let b = Bytes::from((0u8..64).collect::<Vec<u8>>());
        let mid = b.slice(16..48);
        assert_eq!(mid.len(), 32);
        assert_eq!(mid[0], 16);
        assert!(mid.shares_storage(&b));

        let sub = mid.slice(4..8);
        assert_eq!(sub, [20, 21, 22, 23]);
        assert!(sub.shares_storage(&b));

        let mut rest = b.clone();
        let head = rest.split_to(10);
        assert_eq!(head.len(), 10);
        assert_eq!(rest.len(), 54);
        assert_eq!(rest[0], 10);
        assert!(head.shares_storage(&rest));
    }

    /// Seeded property test (no external crates): arbitrary chains of
    /// slice/split operations must agree with the same operations on a plain
    /// `Vec` model, and every derived view must alias the root allocation.
    #[test]
    fn random_slice_chains_match_vec_model_and_alias_storage() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // SplitMix64, same generator family as tc_simnet's.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..64 {
            let len = (next() % 512 + 1) as usize;
            let model: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let root = Bytes::from(model.clone());
            let mut view = root.clone();
            let mut window = 0..model.len();
            for _ in 0..16 {
                match next() % 2 {
                    0 => {
                        let a = (next() as usize) % (view.len() + 1);
                        let b = a + (next() as usize) % (view.len() - a + 1);
                        view = view.slice(a..b);
                        window = window.start + a..window.start + b;
                    }
                    _ => {
                        let at = (next() as usize) % (view.len() + 1);
                        let head = view.split_to(at);
                        assert_eq!(head, model[window.start..window.start + at]);
                        assert!(head.shares_storage(&root));
                        window.start += at;
                    }
                }
                assert_eq!(view, model[window.clone()], "window {window:?}");
                assert!(view.shares_storage(&root), "views must not reallocate");
                assert_eq!(view.to_vec(), model[window.clone()].to_vec());
            }
        }
    }

    #[test]
    fn equality_is_by_content_not_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert!(!a.shares_storage(&b));
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a, [1u8, 2, 3]);
        assert_eq!(a.slice(1..), [2u8, 3]);
    }

    /// A view of `len` zero bytes from `pool`.
    fn take(pool: &mut BufPool, len: usize) -> Bytes {
        let zeroed = pool.fill(len, |out| {
            out.fill(0);
            Ok::<_, ()>(())
        });
        zeroed.unwrap()
    }

    #[test]
    fn pool_reuses_buffer_after_views_drop() {
        let mut pool = BufPool::new();
        let bytes = pool.fill(100, |out| {
            out.fill(7);
            Ok::<_, ()>(())
        });
        let bytes = bytes.unwrap();
        assert_eq!(bytes, [7; 100]);
        assert_eq!(pool.stats.allocated, 1);
        assert_eq!(pool.slots.len(), 1);

        // In flight: the slot is shared, a second fill must allocate.
        let bytes2 = take(&mut pool, 100);
        assert_eq!(pool.stats.allocated, 2);

        drop(bytes);
        drop(bytes2);
        // Both slots free again: the next two fills allocate nothing.
        let w3 = take(&mut pool, 64);
        let w4 = take(&mut pool, 128);
        assert_eq!(pool.stats.allocated, 2);
        assert_eq!(pool.stats.reused, 2);
        drop((w3, w4));
    }

    #[test]
    fn pool_respects_slot_cap_and_min_size() {
        let mut pool = BufPool::new();
        let held: Vec<Bytes> = (0..DEFAULT_MAX_SLOTS + 1)
            .map(|_| take(&mut pool, 10))
            .collect();
        assert_eq!(pool.slots.len(), DEFAULT_MAX_SLOTS, "the cap holds");
        assert!(
            !pool.slots.iter().any(|s| s.as_ptr() == held[0].as_ptr()),
            "the slot held longest was evicted"
        );
        drop(held);
        let w = take(&mut pool, 1);
        assert!(w.data.as_ref().is_some_and(|buf| buf.len() >= MIN_BUF));
    }

    /// Every slot pinned by a view that outlives the loop (a registration
    /// table holding received code): each miss evicts the slot held longest,
    /// so within one cap's worth of rounds the ring holds free slots again
    /// and a fill → drop loop stops allocating.
    #[test]
    fn a_pool_whose_every_slot_is_pinned_recovers() {
        let mut pool = BufPool::new();
        let pinned: Vec<Bytes> = (0..DEFAULT_MAX_SLOTS)
            .map(|_| take(&mut pool, 100))
            .collect();
        let round = |pool: &mut BufPool| drop(take(pool, 100));
        for _ in 0..DEFAULT_MAX_SLOTS {
            round(&mut pool);
        }
        let settled = pool.stats.allocated;
        for _ in 0..4 * DEFAULT_MAX_SLOTS {
            round(&mut pool);
        }
        assert_eq!(pool.stats.allocated, settled, "{:?}", pool.stats);
        assert!(settled <= 2 * DEFAULT_MAX_SLOTS as u64, "{:?}", pool.stats);
        drop(pinned);
    }

    /// A window of 16 buffers in flight, released oldest first — the order
    /// replies come back in: the slot at the front is the free one, and the
    /// window is served without allocating.
    #[test]
    fn a_window_released_in_fifo_order_is_served_without_allocating() {
        const WINDOW: usize = 16;
        let mut pool = BufPool::new();
        let mut in_flight: VecDeque<Bytes> = (0..WINDOW).map(|_| take(&mut pool, 1024)).collect();
        let warm = pool.stats;
        assert_eq!(warm.allocated, WINDOW as u64);
        for _ in 0..10 * DEFAULT_MAX_SLOTS {
            in_flight.pop_front();
            in_flight.push_back(take(&mut pool, 1024));
        }
        assert_eq!(pool.stats.allocated, warm.allocated, "{:?}", pool.stats);
        assert_eq!(
            pool.stats.reused,
            warm.reused + 10 * DEFAULT_MAX_SLOTS as u64
        );
    }

    /// The writer gets exactly the bytes asked for; a failed write keeps
    /// its slot for the next fill.
    #[test]
    fn writer_cursor_and_reserve() {
        let mut pool = BufPool::new();
        let b = pool.fill(11, |mut out| {
            put(&mut out, &[0xAB]);
            put(&mut out, &0x1234u16.to_le_bytes());
            put(&mut out, &42u64.to_le_bytes());
            Ok::<_, ()>(())
        });
        let b = b.unwrap();
        assert_eq!(b.len(), 11);
        assert_eq!(u16::from_le_bytes(b[1..3].try_into().unwrap()), 0x1234);
        drop(b);
        assert_eq!(pool.fill(8, |_| Err("refused")), Err("refused"));
        take(&mut pool, 8);
        assert_eq!((pool.stats.allocated, pool.stats.reused), (1, 2));
    }

    #[test]
    fn put_fills_a_reserved_region_field_by_field() {
        let mut pool = BufPool::new();
        let filled = pool.fill(8, |mut region| {
            put(&mut region, &[0xAB]);
            put(&mut region, &0x1234u16.to_le_bytes());
            put(&mut region, &[]);
            put(&mut region, &[1, 2, 3, 4, 5]);
            assert!(region.is_empty(), "the cursor ends where the region does");
            Ok::<_, ()>(())
        });
        assert_eq!(filled.unwrap(), [0xAB, 0x34, 0x12, 1, 2, 3, 4, 5]);
    }
}
