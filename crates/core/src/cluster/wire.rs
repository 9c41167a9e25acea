//! Wire conventions of the wall-clock cluster backends.
//!
//! The threaded and socket transports move [`tc_ucx::OutgoingMessage`]s
//! between threads and processes as tagged byte envelopes.
//!
//! Envelope tags:
//!
//! * [`TAG_OP`] — an encoded fabric operation (the segments of
//!   [`encode_op_vectored`]); this is the data plane.
//! * [`TAG_PEEK`], [`TAG_POKE`], [`TAG_STATS`], [`TAG_AM_DEPLOY`] — the
//!   driver reads or writes a server's memory, samples its [`RuntimeStats`],
//!   or deploys an AM handler on it (the control plane).
//! * [`TAG_REPLY`] — a server answers a control request; the request's token
//!   pairs the two, whatever the request was.
//! * [`TAG_ERROR`] — a node reports a runtime error to the driver.
//!
//! The bodies of the socket backend's session frames — HELLO, WELCOME and the
//! reliability digest a server process publishes — are encoded here too,
//! beside the other codecs; their tags are [`super::socket`]'s.

use super::link::Digest;
use super::reliable::{LinkHealth, RelConfig, RelMetrics, ReliableSet};
use crate::error::{CoreError, Result};
use crate::metrics::RuntimeStats;
use crate::runtime::NodeRuntime;
use tc_bitir::TargetTriple;
use tc_jit::Memory;
use tc_ucx::bytes::{pooled, put};
use tc_ucx::{AmHandlerId, Bytes, OutgoingMessage, RequestId, UcpOp, WorkerAddr};

/// Envelope tag: encoded fabric operation (data plane).
pub const TAG_OP: u64 = 1;
/// Envelope tag: driver asks a node to read memory.
pub const TAG_PEEK: u64 = 2;
/// Envelope tag: node answers a control request, under the request's token.
pub const TAG_REPLY: u64 = 3;
/// Envelope tag: driver asks a node to write memory.
pub const TAG_POKE: u64 = 4;
/// Envelope tag: driver asks a server to deploy the AM handler its catalog
/// holds under the name in the body (`[1]` deployed, `[0]` unknown name).
pub const TAG_AM_DEPLOY: u64 = 5;
/// Envelope tag: driver asks a node for its runtime counters.
pub const TAG_STATS: u64 = 6;
/// Envelope tag: node reports a processing error to the driver.
pub const TAG_ERROR: u64 = 8;
/// Envelope tag: a *reliable* data-plane operation — a 16-byte reliability
/// header (`[seq u64][cumulative ack u64]`) followed by the same head bytes
/// a [`TAG_OP`] envelope carries.  Used instead of [`TAG_OP`] when a fault
/// plan is installed.
pub const TAG_ROP: u64 = 9;
/// Envelope tag: a pure cumulative ack for the reliable delivery layer —
/// `[ack u64]`, or `[ack u64][gap u64]` when frames are parked behind a gap
/// (see [`super::reliable::Arrival::gap`]).
pub const TAG_ACK: u64 = 10;

/// Size of the `[seq][ack]` reliability prefix of a [`TAG_ROP`] data
/// segment.
pub const REL_HEAD_LEN: usize = 16;

/// The one checked little-endian reader under every decoder of this module.
/// Each `take*` answers `None` instead of reading past the end, so a decoder
/// maps that to its own error text and writes no length check by hand; `.0`
/// is what has not been read yet.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk()?;
        self.0 = rest;
        Some(*head)
    }

    fn take_u16(&mut self) -> Option<u16> {
        self.take().map(u16::from_le_bytes)
    }

    fn take_u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn take_u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// `N` consecutive words: the whole body of a fixed-size counter reply.
    fn take_u64s<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut words = [0; N];
        for w in &mut words {
            *w = self.take_u64()?;
        }
        Some(words)
    }
}

/// Inverse of [`Cursor::take_u64s`].
fn put_u64s(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Prefix an already-encoded op head with the reliability header,
/// producing the data segment of a [`TAG_ROP`] envelope.  This copies the
/// head: it is the retransmission path (a retained frame needs a fresh
/// cumulative ack).  First transmissions use [`encode_rel_op_vectored`],
/// which writes the prefix and the head into one buffer.
pub fn encode_rel_head(seq: u64, ack: u64, head: &[u8]) -> Bytes {
    pooled(REL_HEAD_LEN + head.len(), |mut out| {
        put(&mut out, &seq.to_le_bytes());
        put(&mut out, &ack.to_le_bytes());
        put(&mut out, head);
    })
}

/// Split a [`TAG_ROP`] data segment into `(seq, ack, op head)`.  The head is
/// a zero-copy sub-view.
pub fn decode_rel_head(bytes: &Bytes) -> Result<(u64, u64, Bytes)> {
    let mut c = Cursor(bytes);
    let (Some(seq), Some(ack)) = (c.take_u64(), c.take_u64()) else {
        return Err(CoreError::Transport(
            "reliable envelope shorter than its header".into(),
        ));
    };
    Ok((seq, ack, bytes.slice(REL_HEAD_LEN..)))
}

/// Encode a pure cumulative ack, and the gap it names if any, for a
/// [`TAG_ACK`] envelope (a pooled buffer: steady-state acks allocate
/// nothing).
pub fn encode_ack(ack: u64, gap: Option<u64>) -> Bytes {
    pooled(if gap.is_some() { 16 } else { 8 }, |mut out| {
        put(&mut out, &ack.to_le_bytes());
        if let Some(gap) = gap {
            put(&mut out, &gap.to_le_bytes());
        }
    })
}

/// Decode a [`TAG_ACK`] payload into `(ack, gap)`.
pub fn decode_ack(bytes: &[u8]) -> Result<(u64, Option<u64>)> {
    let mut c = Cursor(bytes);
    match (bytes.len(), c.take_u64(), c.take_u64()) {
        (8 | 16, Some(ack), gap) => Ok((ack, gap)),
        (other, ..) => Err(CoreError::Transport(format!(
            "ack envelope must be 8 or 16 bytes, got {other}"
        ))),
    }
}

const OP_PUT: u8 = 0;
const OP_GET: u8 = 1;
const OP_GET_REPLY: u8 = 2;
const OP_AM: u8 = 3;
const OP_IFUNC: u8 = 4;
const OP_PUT_CONFIRM: u8 = 5;
const OP_PUT_ACK: u8 = 6;

/// A GET, PUT, confirmed PUT or ifunc frame: one-sided, it never blocks, and
/// an ifunc's work is bounded by its `ExecLimits`.  The op code follows `[src
/// u32][dst u32][request u64]`, behind `(seq, ack)` in a [`TAG_ROP`] frame.
pub fn one_sided(tag: u64, data: &[u8]) -> bool {
    let at = match tag {
        TAG_OP => 16,
        TAG_ROP => REL_HEAD_LEN + 16,
        _ => return false,
    };
    let code = data.get(at).copied();
    matches!(code, Some(OP_GET | OP_PUT | OP_PUT_CONFIRM | OP_IFUNC))
}

/// The bulk payload of an operation: what follows its fixed fields on the
/// wire, and what a scatter-gather encode may detach.
fn bulk(op: &UcpOp) -> Option<&Bytes> {
    match op {
        UcpOp::Put { data, .. } | UcpOp::PutConfirm { data, .. } | UcpOp::GetReply { data, .. } => {
            Some(data)
        }
        UcpOp::ActiveMessage { payload, .. } => Some(payload),
        UcpOp::IfuncFrame { bytes, .. } => Some(bytes),
        UcpOp::Get { .. } | UcpOp::PutAck { .. } => None,
    }
}

/// An op's code, and the bytes of its fixed fields behind the 17-byte
/// `[src u32][dst u32][request u64][code u8]` header.
fn op_code(op: &UcpOp) -> (u8, usize) {
    match op {
        UcpOp::Put { .. } => (OP_PUT, 8),
        UcpOp::PutConfirm { .. } => (OP_PUT_CONFIRM, 8),
        UcpOp::PutAck { .. } => (OP_PUT_ACK, 8),
        UcpOp::Get { .. } => (OP_GET, 16),
        UcpOp::GetReply { .. } => (OP_GET_REPLY, 8),
        UcpOp::ActiveMessage { .. } => (OP_AM, 2),
        UcpOp::IfuncFrame { .. } => (OP_IFUNC, 0),
    }
}

/// Write `msg`'s envelope header and fixed op fields — everything but the
/// bulk payload — to the front of `out`.
fn put_op_head(out: &mut &mut [u8], msg: &OutgoingMessage) {
    put(out, &msg.src.0.to_le_bytes());
    put(out, &msg.dst.0.to_le_bytes());
    put(out, &msg.request.0.to_le_bytes());
    put(out, &[op_code(&msg.op).0]);
    match &msg.op {
        UcpOp::Put { remote_addr, .. } | UcpOp::PutConfirm { remote_addr, .. } => {
            put(out, &remote_addr.to_le_bytes())
        }
        UcpOp::PutAck { acked: id } | UcpOp::GetReply { request: id, .. } => {
            put(out, &id.0.to_le_bytes())
        }
        UcpOp::Get { remote_addr, len } => {
            put(out, &remote_addr.to_le_bytes());
            put(out, &len.to_le_bytes());
        }
        UcpOp::ActiveMessage { handler, .. } => put(out, &handler.0.to_le_bytes()),
        UcpOp::IfuncFrame { .. } => {}
    }
}

/// Payloads at or above this many bytes travel as a detached scatter-gather
/// envelope segment instead of being copied into the encoded head buffer.
/// Below it, the copy is cheaper than handling a second segment.
pub const SCATTER_THRESHOLD: usize = 512;

/// The one encoder: an optional `(seq, ack)` reliability prefix, then the op
/// head, in **one** pool buffer; a bulk payload of at least
/// [`SCATTER_THRESHOLD`] bytes is detached as a shared view instead of
/// copied behind the head.  A full ifunc frame sent as two views detaches its
/// CODE | DEPS | MAGIC tail instead, and its HEADER | PAYLOAD | MAGIC head is
/// copied behind the op header whatever its size (an envelope has one
/// detached segment), so that copy grows with the ifunc's payload.  Other
/// ops copy at most one small payload.  Steady-state sends reuse released
/// pool slots, so the encode path performs zero allocations.
fn encode(msg: &OutgoingMessage, rel: Option<(u64, u64)>) -> (Bytes, Bytes) {
    let bulk = bulk(&msg.op);
    let (bulk, detached) = match (&msg.op, bulk) {
        (UcpOp::IfuncFrame { code, .. }, _) if !code.is_empty() => (bulk, code.clone()),
        (_, Some(b)) if b.len() >= SCATTER_THRESHOLD => (None, b.clone()),
        _ => (bulk, Bytes::new()),
    };
    let prefix = if rel.is_some() { REL_HEAD_LEN } else { 0 };
    let size = prefix + 17 + op_code(&msg.op).1 + bulk.map_or(0, Bytes::len);
    // The whole envelope is one region of the pool buffer: one uniqueness
    // check, however many fields.
    let head = pooled(size, |mut out| {
        if let Some((seq, ack)) = rel {
            put(&mut out, &seq.to_le_bytes());
            put(&mut out, &ack.to_le_bytes());
        }
        put_op_head(&mut out, msg);
        if let Some(bulk) = bulk {
            put(&mut out, bulk);
        }
    });
    (head, detached)
}

/// Scatter-gather encode with this thread's encode pool: returns
/// `(head, payload)` where `head` is the encoded envelope minus the bulk
/// payload and `payload` is a shared view of the operation's payload bytes
/// (empty when the operation is small or has no payload).  Together with
/// [`decode_op_vectored`] this makes large sends **zero-copy**: the payload
/// crosses the transport as a refcount, never as a memcpy.  The logical wire
/// image is `head ‖ payload`, which decodes to the same operation from one
/// buffer.
pub fn encode_op_vectored(msg: &OutgoingMessage) -> (Bytes, Bytes) {
    encode(msg, None)
}

/// First transmission of a reliable frame: `(data, payload)` where `data` is
/// the complete [`TAG_ROP`] data segment — the `(seq, ack)` prefix and the
/// op head written into one pool buffer, no intermediate copy — and
/// `payload` the detached bulk segment as in [`encode_op_vectored`].
/// `data.slice(REL_HEAD_LEN..)` is the bare op head to retain for
/// retransmission ([`encode_rel_head`] re-prefixes it).
pub fn encode_rel_op_vectored(msg: &OutgoingMessage, seq: u64, ack: u64) -> (Bytes, Bytes) {
    encode(msg, Some((seq, ack)))
}

/// An encoded data-plane message as the threaded and socket backends retain
/// it for retransmission: the bare op head (every transmission gets a fresh
/// reliability prefix) and the detached payload segment.
pub type StoredEnv = (Bytes, Bytes);

/// Register `msg` on `rel`'s link to `peer` and encode its first
/// transmission: returns the [`TAG_ROP`] `(data, payload)` to put on the
/// wire.  The retained head is a sub-view of `data`, so the frame is encoded
/// exactly once.
pub fn send_reliable(
    rel: &mut ReliableSet<StoredEnv>,
    peer: u32,
    msg: &OutgoingMessage,
    now: u64,
) -> (Bytes, Bytes) {
    rel.send_with(peer, now, |seq, ack| {
        let (data, payload) = encode_rel_op_vectored(msg, seq, ack);
        (
            (data.slice(REL_HEAD_LEN..), payload.clone()),
            (data, payload),
        )
    })
}

/// Inverse of [`encode_op_vectored`]: decode `(head, payload)` back into a
/// fabric operation.
///
/// Zero-copy: the payload of the returned operation (`Put` data, `GetReply`
/// data, AM payload, ifunc frame bytes) is the detached segment when there
/// is one, else a sub-view of `head`'s shared allocation — a refcount
/// clone, never a memcpy.  An ifunc head with a detached segment behind it
/// is a full frame sent as two views, and decodes to both.
pub fn decode_op_vectored(head: &Bytes, payload: &Bytes) -> Result<OutgoingMessage> {
    let err = |msg: &str| CoreError::Transport(format!("bad op envelope: {msg}"));
    let mut c = Cursor(head);
    let (Some(src), Some(dst), Some(request), Some([tag])) =
        (c.take_u32(), c.take_u32(), c.take_u64(), c.take())
    else {
        return Err(err("shorter than the fixed header"));
    };
    let body = c.0;
    // Bytes of fixed fields behind the header, and whether a bulk payload
    // follows them.
    let (fixed, has_bulk) = match tag {
        OP_PUT | OP_PUT_CONFIRM | OP_GET_REPLY => (8, true),
        OP_PUT_ACK => (8, false),
        OP_GET => (16, false),
        OP_AM => (2, true),
        OP_IFUNC => (0, true),
        other => return Err(err(&format!("unknown op tag {other}"))),
    };
    if !has_bulk && !payload.is_empty() {
        return Err(err("op tag cannot carry a payload segment"));
    }
    // The bulk is the rest of the head — or the detached segment, behind a
    // head that ends with the fixed fields, or behind an ifunc frame's head.
    let inline_bulk = has_bulk && payload.is_empty();
    let short = || err("wrong length for its op tag");
    if body.len() < fixed || (!inline_bulk && body.len() != fixed && tag != OP_IFUNC) {
        return Err(short());
    }
    let bulk = || {
        if inline_bulk {
            head.slice(17 + fixed..)
        } else {
            payload.clone()
        }
    };
    // The fixed fields; the length check above covers every one of them.
    let mut word = || c.take_u64().ok_or_else(short);
    let op = match tag {
        OP_PUT => UcpOp::Put {
            remote_addr: word()?,
            data: bulk(),
        },
        OP_PUT_CONFIRM => UcpOp::PutConfirm {
            remote_addr: word()?,
            data: bulk(),
        },
        OP_PUT_ACK => UcpOp::PutAck {
            acked: RequestId(word()?),
        },
        OP_GET => UcpOp::Get {
            remote_addr: word()?,
            len: word()?,
        },
        OP_GET_REPLY => UcpOp::GetReply {
            request: RequestId(word()?),
            data: bulk(),
        },
        OP_AM => UcpOp::ActiveMessage {
            handler: AmHandlerId(c.take_u16().ok_or_else(short)?),
            payload: bulk(),
        },
        _ => {
            let (bytes, code) = match body.is_empty() {
                true => (bulk(), Bytes::new()),
                false => (head.slice(17..), payload.clone()),
            };
            UcpOp::IfuncFrame { bytes, code }
        }
    };
    Ok(OutgoingMessage {
        src: WorkerAddr(src),
        dst: WorkerAddr(dst),
        request: RequestId(request),
        op,
    })
}

/// Encode a control request carrying a matching token and a body.
pub fn encode_control(token: u64, body: &[u8]) -> Vec<u8> {
    [&token.to_le_bytes()[..], body].concat()
}

/// Split a control envelope into `(token, body)`.
pub fn decode_control(bytes: &[u8]) -> Result<(u64, &[u8])> {
    split_poke(bytes)
        .ok_or_else(|| CoreError::Transport("control envelope shorter than its token".into()))
}

/// Read `len` bytes at `addr` of a node's memory; `None` when the read
/// fails.  `len` may come straight off the wire, so it is bounded before
/// anything is allocated for it: no reply above [`tc_net::MAX_FRAME_BYTES`]
/// could be framed anyway.
pub(crate) fn peek(runtime: &NodeRuntime, addr: u64, len: u64) -> Option<Vec<u8>> {
    let len = usize::try_from(len)
        .ok()
        .filter(|&len| len <= tc_net::MAX_FRAME_BYTES)?;
    let mut buf = vec![0u8; len];
    runtime.memory.read(addr, &mut buf).ok()?;
    Some(buf)
}

/// Split a [`TAG_POKE`] body into `(addr, data)` (a control envelope splits
/// into `(token, body)` the same way).
pub(crate) fn split_poke(body: &[u8]) -> Option<(u64, &[u8])> {
    let mut c = Cursor(body);
    Some((c.take_u64()?, c.0))
}

/// Serve one peek, poke or stats request body against a node's runtime: the
/// reply body, or `None` for a malformed request or a tag that is not one of
/// the three.  A peek that fails — unreadable range, or a length no reply
/// could carry — answers with an empty body.
pub(crate) fn serve_control(runtime: &mut NodeRuntime, tag: u64, body: &[u8]) -> Option<Vec<u8>> {
    match tag {
        TAG_PEEK => {
            let mut c = Cursor(body);
            let (addr, len) = (c.take_u64()?, c.take_u64()?);
            if !c.0.is_empty() {
                return None;
            }
            Some(peek(runtime, addr, len).unwrap_or_default())
        }
        TAG_POKE => {
            let (addr, data) = split_poke(body)?;
            Some(vec![runtime.memory.write(addr, data).is_ok() as u8])
        }
        TAG_STATS => Some(encode_stats(&runtime.stats)),
        _ => None,
    }
}

/// Serialize runtime counters for a [`TAG_STATS`] reply.
pub fn encode_stats(stats: &RuntimeStats) -> Vec<u8> {
    put_u64s(&[
        stats.full_frames_received,
        stats.truncated_frames_received,
        stats.ifuncs_executed,
        stats.jit_compilations,
        stats.binary_loads,
        stats.ams_executed,
        stats.gets_served,
        stats.puts_applied,
        stats.ifunc_full_sends,
        stats.ifunc_truncated_sends,
        stats.bytes_sent,
    ])
}

/// Inverse of [`encode_stats`].
pub fn decode_stats(bytes: &[u8]) -> Result<RuntimeStats> {
    let mut c = Cursor(bytes);
    let (Some(fields), []) = (c.take_u64s::<11>(), c.0) else {
        return Err(CoreError::Transport(format!(
            "stats reply must be 88 bytes, got {}",
            bytes.len()
        )));
    };
    Ok(RuntimeStats {
        full_frames_received: fields[0],
        truncated_frames_received: fields[1],
        ifuncs_executed: fields[2],
        jit_compilations: fields[3],
        binary_loads: fields[4],
        ams_executed: fields[5],
        gets_served: fields[6],
        puts_applied: fields[7],
        ifunc_full_sends: fields[8],
        ifunc_truncated_sends: fields[9],
        bytes_sent: fields[10],
    })
}

/// HELLO magic ("TCN1").
pub const HELLO_MAGIC: u32 = 0x5443_4E31;
/// Session protocol version.  5: every control request is answered under one
/// [`TAG_REPLY`], and AM deployment is the control request [`TAG_AM_DEPLOY`]
/// — an older server must be refused at HELLO, not left unanswered request
/// by request.
pub const PROTO_VERSION: u32 = 5;
/// HELLO rank value meaning "assign me one".
pub const RANK_ANY: u32 = u32::MAX;

/// Encode a HELLO body (`[magic][version][rank]`).
pub fn encode_hello(rank: u32) -> Vec<u8> {
    let words = [HELLO_MAGIC, PROTO_VERSION, rank];
    words.into_iter().flat_map(u32::to_le_bytes).collect()
}

/// Decode a HELLO body into the requested rank.
pub fn decode_hello(body: &[u8]) -> Result<u32> {
    let mut c = Cursor(body);
    let (Some(magic), Some(version), Some(rank), []) =
        (c.take_u32(), c.take_u32(), c.take_u32(), c.0)
    else {
        return Err(CoreError::Transport(format!(
            "HELLO must be 12 bytes, got {}",
            body.len()
        )));
    };
    if magic != HELLO_MAGIC {
        return Err(CoreError::Transport(format!(
            "HELLO magic {magic:#x} is not {HELLO_MAGIC:#x}"
        )));
    }
    if version != PROTO_VERSION {
        return Err(CoreError::Transport(format!(
            "peer speaks protocol version {version}, this driver speaks {PROTO_VERSION}"
        )));
    }
    Ok(rank)
}

/// Everything a server process needs to build its runtime, carried by the
/// WELCOME frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// Driver-side client count (clients occupy ranks `0..clients`).
    pub clients: u32,
    /// Server count (servers occupy ranks `clients..clients+servers`).
    pub servers: u32,
    /// The rank assigned to this server.
    pub rank: u32,
    /// The reliability tunables when a fault plan is installed (reliable
    /// delivery on); `None` without one.
    pub rel: Option<RelConfig>,
    /// The server target triple.
    pub triple: TargetTriple,
}

/// Encode a WELCOME body.
pub fn encode_welcome(w: &Welcome) -> Vec<u8> {
    let triple = w.triple.to_string();
    // Without a fault plan the tunables are carried, and ignored.
    let rel = w.rel.unwrap_or_else(RelConfig::threads_default);
    let mut out = Vec::with_capacity(32 + triple.len());
    out.extend_from_slice(&w.clients.to_le_bytes());
    out.extend_from_slice(&w.servers.to_le_bytes());
    out.extend_from_slice(&w.rank.to_le_bytes());
    out.push(w.rel.is_some() as u8);
    out.push(rel.adaptive as u8);
    out.extend_from_slice(&rel.rto.to_le_bytes());
    out.extend_from_slice(&rel.rto_max.to_le_bytes());
    out.extend_from_slice(&(triple.len() as u16).to_le_bytes());
    out.extend_from_slice(triple.as_bytes());
    out
}

/// Decode a WELCOME body.
pub fn decode_welcome(body: &[u8]) -> Result<Welcome> {
    let err = |m: &str| CoreError::Transport(format!("bad WELCOME: {m}"));
    let mut c = Cursor(body);
    let fixed = (|| {
        let ranks = (c.take_u32()?, c.take_u32()?, c.take_u32()?);
        let [reliable, adaptive] = c.take()?.map(|flag: u8| flag != 0);
        let (rto, rto_max) = (c.take_u64()?, c.take_u64()?);
        let rel = RelConfig {
            rto,
            rto_max,
            adaptive,
        };
        Some((ranks, reliable.then_some(rel), c.take_u16()?))
    })();
    let Some(((clients, servers, rank), rel, triple_len)) = fixed else {
        return Err(err("shorter than the fixed header"));
    };
    // The server sizes its runtime and its per-peer link table from these:
    // the layout must add up and the assigned rank must be a server's.
    if !clients
        .checked_add(servers)
        .is_some_and(|total| (clients..total).contains(&rank))
    {
        return Err(err(&format!(
            "rank {rank} is not a server of {clients} clients + {servers} servers"
        )));
    }
    if c.0.len() != usize::from(triple_len) {
        return Err(err("triple length disagrees with the body"));
    }
    let triple_str = std::str::from_utf8(c.0).map_err(|_| err("triple is not UTF-8"))?;
    let triple = TargetTriple::parse(triple_str)
        .ok_or_else(|| err(&format!("unknown triple `{triple_str}`")))?;
    Ok(Welcome {
        clients,
        servers,
        rank,
        rel,
        triple,
    })
}

/// Encode the [`Digest`] a server process publishes about its links (the
/// body of [`super::socket::TAG_REL_INFO`]: 13 little-endian words).
pub fn encode_digest(digest: &Digest) -> Vec<u8> {
    let (m, h) = (digest.metrics, digest.health.unwrap_or_default());
    put_u64s(&[
        digest.unacked,
        m.retransmits,
        m.fast_retransmits,
        m.dup_drops,
        m.out_of_order,
        m.acks_sent,
        digest.health.is_some() as u64,
        h.peer as u64,
        h.srtt,
        h.rttvar,
        h.rto,
        h.unacked,
        h.silent_rounds as u64,
    ])
}

/// Inverse of [`encode_digest`].
pub fn decode_digest(body: &[u8]) -> Result<Digest> {
    let mut c = Cursor(body);
    let (Some(f), []) = (c.take_u64s::<13>(), c.0) else {
        return Err(CoreError::Transport(format!(
            "REL_INFO must be 104 bytes, got {}",
            body.len()
        )));
    };
    Ok(Digest {
        unacked: f[0],
        metrics: RelMetrics {
            retransmits: f[1],
            fast_retransmits: f[2],
            dup_drops: f[3],
            out_of_order: f[4],
            acks_sent: f[5],
        },
        health: (f[6] != 0).then_some(LinkHealth {
            peer: f[7] as u32,
            srtt: f[8],
            rttvar: f[9],
            rto: f[10],
            unacked: f[11],
            silent_rounds: f[12] as u32,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<UcpOp> {
        vec![
            UcpOp::Put {
                remote_addr: 0x40,
                data: vec![1, 2, 3].into(),
            },
            UcpOp::Get {
                remote_addr: 0x80,
                len: 16,
            },
            UcpOp::GetReply {
                request: RequestId(9),
                data: vec![7; 8].into(),
            },
            UcpOp::ActiveMessage {
                handler: AmHandlerId(3),
                payload: vec![5].into(),
            },
            UcpOp::IfuncFrame {
                bytes: vec![0xAB; 64].into(),
                code: Bytes::new(),
            },
            UcpOp::PutConfirm {
                remote_addr: 0x48,
                data: vec![4, 5].into(),
            },
            UcpOp::PutAck {
                acked: RequestId(31),
            },
        ]
    }

    /// Decode a single-buffer envelope: no detached segment.
    fn decode_inline(bytes: &Bytes) -> Result<OutgoingMessage> {
        decode_op_vectored(bytes, &Bytes::new())
    }

    /// The single-buffer envelope of an operation below the scatter
    /// threshold.
    fn encode_inline(msg: &OutgoingMessage) -> Bytes {
        let (head, payload) = encode_op_vectored(msg);
        assert!(payload.is_empty(), "small operations stay single-buffer");
        head
    }

    #[test]
    fn op_codec_roundtrips_every_variant() {
        for op in sample_ops() {
            let msg = OutgoingMessage {
                src: WorkerAddr(2),
                dst: WorkerAddr(5),
                request: RequestId(77),
                op,
            };
            let decoded = decode_inline(&encode_inline(&msg)).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn op_decode_is_zero_copy_and_pool_reuses_buffers() {
        // This thread's copy-counting pool: every allocation is visible in
        // `stats.allocated`, every recycled buffer in `stats.reused`.
        let pool_stats = || tc_ucx::bytes::with_pool(|pool| pool.stats);
        let before = pool_stats();
        for (i, op) in sample_ops().into_iter().enumerate() {
            let msg = OutgoingMessage {
                src: WorkerAddr(1),
                dst: WorkerAddr(2),
                request: RequestId(i as u64),
                op,
            };
            let encoded = encode_inline(&msg);
            let decoded = decode_inline(&encoded).unwrap();
            assert_eq!(decoded, msg);
            // Decode must alias the envelope buffer, not copy out of it.
            match &decoded.op {
                UcpOp::Put { data, .. } => assert!(data.shares_storage(&encoded)),
                UcpOp::PutConfirm { data, .. } => assert!(data.shares_storage(&encoded)),
                UcpOp::GetReply { data, .. } => assert!(data.shares_storage(&encoded)),
                UcpOp::ActiveMessage { payload, .. } => {
                    assert!(payload.shares_storage(&encoded))
                }
                UcpOp::IfuncFrame { bytes, .. } => assert!(bytes.shares_storage(&encoded)),
                UcpOp::Get { .. } | UcpOp::PutAck { .. } => {}
            }
            drop(decoded);
            drop(encoded);
        }
        // Every envelope fits the first slot, and each is released before
        // the next encode: at most one allocation (none when an earlier test
        // on this thread left a slot behind), the rest reuses.
        let after = pool_stats();
        let allocated = after.allocated - before.allocated;
        assert!(allocated <= 1, "{before:?} -> {after:?}");
        assert_eq!(allocated + after.reused - before.reused, 7);
    }

    #[test]
    fn vectored_codec_roundtrips_and_never_copies_large_payloads() {
        let large = Bytes::from(vec![0x42u8; 8 * 1024]);
        let ops = vec![
            UcpOp::Put {
                remote_addr: 0x40,
                data: large.clone(),
            },
            UcpOp::PutConfirm {
                remote_addr: 0x40,
                data: large.clone(),
            },
            UcpOp::GetReply {
                request: RequestId(9),
                data: large.clone(),
            },
            UcpOp::ActiveMessage {
                handler: AmHandlerId(3),
                payload: large.clone(),
            },
            UcpOp::IfuncFrame {
                bytes: large.clone(),
                code: Bytes::new(),
            },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let msg = OutgoingMessage {
                src: WorkerAddr(1),
                dst: WorkerAddr(2),
                request: RequestId(i as u64),
                op,
            };
            let (head, payload) = encode_op_vectored(&msg);
            // The payload segment IS the original buffer — no copy at all.
            assert!(payload.shares_storage(&large));
            assert!(head.len() <= 25, "head must be tiny, got {}", head.len());
            let decoded = decode_op_vectored(&head, &payload).unwrap();
            assert_eq!(decoded, msg);
            // The logical wire image, received as one buffer, is the same
            // operation.
            let mut joined = head.to_vec();
            joined.extend_from_slice(&payload);
            assert_eq!(decode_inline(&Bytes::from(joined)).unwrap(), msg);
        }
        // Small operations stay single-buffer.
        let small = OutgoingMessage {
            src: WorkerAddr(0),
            dst: WorkerAddr(1),
            request: RequestId(0),
            op: UcpOp::Put {
                remote_addr: 8,
                data: vec![1, 2, 3].into(),
            },
        };
        let (head, payload) = encode_op_vectored(&small);
        assert!(payload.is_empty());
        assert_eq!(decode_op_vectored(&head, &payload).unwrap(), small);
    }

    /// A full ifunc frame sent as two views detaches its tail and copies its
    /// head behind the op header, however large its payload makes the head;
    /// both framings, received split or in one buffer, carry the frame's one
    /// wire image.
    #[test]
    fn a_full_ifunc_frame_detaches_its_tail_and_copies_a_large_head() {
        use crate::frame::{CodeRepr, MessageFrame};
        let payload = vec![7u8; 64 * 1024];
        let deps = vec!["libm".to_string()];
        let frame = MessageFrame::new("big", CodeRepr::Bitcode, payload, vec![0xC0; 4096], deps);
        let (full, head) = (frame.encode_full(), frame.encode_truncated());
        let tail = full.slice(head.len()..);
        let msg = OutgoingMessage {
            src: WorkerAddr(1),
            dst: WorkerAddr(2),
            request: RequestId(3),
            op: UcpOp::IfuncFrame {
                bytes: head.clone(),
                code: tail.clone(),
            },
        };
        let framings = [
            (0, encode_op_vectored(&msg)),
            (REL_HEAD_LEN, encode_rel_op_vectored(&msg, 7, 3)),
        ];
        for (prefix, (data, detached)) in framings {
            assert!(detached.shares_storage(&tail), "the tail is never copied");
            assert_eq!(data.len(), prefix + 17 + head.len(), "the head is");
            let data = data.slice(prefix..);
            assert_eq!(decode_op_vectored(&data, &detached).unwrap(), msg);
            let joined = Bytes::from([&data[..], &detached[..]].concat());
            match decode_inline(&joined).unwrap().op {
                UcpOp::IfuncFrame { bytes, code } => {
                    assert_eq!((bytes, code.len()), (full.clone(), 0));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn vectored_decode_rejects_malformed_heads() {
        let payload = Bytes::from(vec![0u8; 600]);
        assert!(decode_op_vectored(&Bytes::new(), &payload).is_err());
        // A GET head cannot carry a payload segment.
        let get = encode_inline(&OutgoingMessage {
            src: WorkerAddr(0),
            dst: WorkerAddr(1),
            request: RequestId(0),
            op: UcpOp::Get {
                remote_addr: 0,
                len: 8,
            },
        });
        assert!(decode_op_vectored(&get, &payload).is_err());
    }

    #[test]
    fn op_decode_rejects_garbage() {
        assert!(decode_inline(&Bytes::new()).is_err());
        assert!(decode_inline(&Bytes::from(vec![0u8; 16])).is_err());
        let mut bad = encode_inline(&OutgoingMessage {
            src: WorkerAddr(0),
            dst: WorkerAddr(1),
            request: RequestId(0),
            op: UcpOp::Get {
                remote_addr: 0,
                len: 8,
            },
        })
        .to_vec();
        bad[16] = 99; // unknown op tag
        assert!(decode_inline(&Bytes::from(bad)).is_err());
    }

    #[test]
    fn rel_header_roundtrips_and_aliases_the_head() {
        let head = encode_inline(&OutgoingMessage {
            src: WorkerAddr(0),
            dst: WorkerAddr(1),
            request: RequestId(4),
            op: UcpOp::Put {
                remote_addr: 0x20,
                data: vec![9, 9].into(),
            },
        });
        let wrapped = encode_rel_head(7, 3, &head);
        // The first-transmission encoder writes the same image in one go.
        let (direct, payload) = encode_rel_op_vectored(&decode_inline(&head).unwrap(), 7, 3);
        assert_eq!((direct, payload), (wrapped.clone(), Bytes::new()));
        let (seq, ack, inner) = decode_rel_head(&wrapped).unwrap();
        assert_eq!((seq, ack), (7, 3));
        assert_eq!(inner, head);
        assert!(inner.shares_storage(&wrapped), "head must be a sub-view");
        assert!(decode_rel_head(&Bytes::from(vec![0u8; 15])).is_err());
    }

    #[test]
    fn gets_puts_and_ifuncs_are_one_sided_in_either_framing_and_whatever_the_length() {
        let expected = |op: &UcpOp| {
            matches!(
                op,
                UcpOp::Get { .. }
                    | UcpOp::Put { .. }
                    | UcpOp::PutConfirm { .. }
                    | UcpOp::IfuncFrame { .. }
            )
        };
        let large = UcpOp::Put {
            remote_addr: 0x40,
            data: vec![9; SCATTER_THRESHOLD].into(),
        };
        let large_ifunc = UcpOp::IfuncFrame {
            bytes: vec![0xCD; SCATTER_THRESHOLD].into(),
            code: Bytes::new(),
        };
        let ops: Vec<UcpOp> = sample_ops()
            .into_iter()
            .chain([large, large_ifunc])
            .collect();
        // The set, pinned: a GET, a PUT, a confirmed PUT and an ifunc frame,
        // each large and small; never an AM, a GET reply or a PUT ack.
        assert_eq!(ops.iter().filter(|op| expected(op)).count(), 6);
        for op in ops {
            let msg = OutgoingMessage {
                src: WorkerAddr(2),
                dst: WorkerAddr(5),
                request: RequestId(77),
                op,
            };
            let frames = [
                (TAG_OP, encode_op_vectored(&msg).0),
                (TAG_ROP, encode_rel_op_vectored(&msg, 7, 3).0),
            ];
            for (tag, data) in frames {
                let at = if tag == TAG_ROP {
                    REL_HEAD_LEN + 16
                } else {
                    16
                };
                assert_eq!(one_sided(tag, &data), expected(&msg.op), "{:?}", msg.op);
                // Every truncation: no panic, and never one-sided once the
                // op code is cut off.
                for len in 0..data.len() {
                    let cut = one_sided(tag, &data[..len]);
                    assert_eq!(cut, len > at && expected(&msg.op), "{len} of {tag}");
                }
                // The same bytes under any other tag are never one-sided.
                for other in [
                    TAG_ACK,
                    TAG_PEEK,
                    TAG_POKE,
                    TAG_STATS,
                    TAG_AM_DEPLOY,
                    TAG_REPLY,
                    TAG_ERROR,
                ] {
                    assert!(!one_sided(other, &data), "tag {other}");
                }
            }
        }
        // A pure ack, with and without a gap, and control bodies.
        for ack in [encode_ack(42, None), encode_ack(42, Some(45))] {
            assert!(!one_sided(TAG_ACK, &ack));
        }
        let request = encode_control(9, &[0; 32]);
        for tag in [
            TAG_PEEK,
            TAG_POKE,
            TAG_STATS,
            TAG_AM_DEPLOY,
            TAG_REPLY,
            TAG_ERROR,
        ] {
            assert!(!one_sided(tag, &request));
        }
    }

    #[test]
    fn ack_codec_roundtrips() {
        assert_eq!(decode_ack(&encode_ack(42, None)).unwrap(), (42, None));
        assert_eq!(encode_ack(42, None).len(), 8);
        assert_eq!(
            decode_ack(&encode_ack(42, Some(45))).unwrap(),
            (42, Some(45))
        );
        for len in [0, 3, 7, 9, 15, 17, 24] {
            assert!(decode_ack(&vec![0; len]).is_err(), "{len} bytes");
        }
    }

    #[test]
    fn stats_codec_roundtrips() {
        let stats = RuntimeStats {
            full_frames_received: 1,
            truncated_frames_received: 2,
            ifuncs_executed: 3,
            jit_compilations: 4,
            binary_loads: 5,
            ams_executed: 6,
            gets_served: 7,
            puts_applied: 8,
            ifunc_full_sends: 9,
            ifunc_truncated_sends: 10,
            bytes_sent: 11,
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);
        assert!(decode_stats(&[0; 3]).is_err());
    }

    #[test]
    fn a_peek_length_off_the_wire_is_bounded_before_it_is_allocated() {
        let mut runtime =
            NodeRuntime::new(WorkerAddr(1), 2, tc_bitir::TargetTriple::X86_64_GENERIC);
        let addr = crate::layout::DATA_REGION_BASE;
        let peek_reply = |runtime: &mut NodeRuntime, len: u64| {
            let mut body = addr.to_le_bytes().to_vec();
            body.extend_from_slice(&len.to_le_bytes());
            serve_control(runtime, TAG_PEEK, &body).expect("well-formed")
        };
        assert_eq!(peek_reply(&mut runtime, 8), [0u8; 8]);
        // Lengths that would abort the process if allocated answer with the
        // empty failure reply instead.
        for len in [tc_net::MAX_FRAME_BYTES as u64 + 1, 1 << 60, u64::MAX] {
            assert!(peek_reply(&mut runtime, len).is_empty(), "len {len}");
        }
    }

    #[test]
    fn control_codec_matches_tokens() {
        let enc = encode_control(42, &[1, 2, 3]);
        let (token, body) = decode_control(&enc).unwrap();
        assert_eq!(token, 42);
        assert_eq!(body, &[1, 2, 3]);
        assert!(decode_control(&[0; 4]).is_err());
    }

    #[test]
    fn hello_welcome_round_trip() {
        assert_eq!(decode_hello(&encode_hello(7)).unwrap(), 7);
        assert_eq!(decode_hello(&encode_hello(RANK_ANY)).unwrap(), RANK_ANY);
        assert!(decode_hello(&[0u8; 11]).is_err());
        let mut bad = encode_hello(1);
        bad[0] ^= 0xFF;
        assert!(decode_hello(&bad).is_err());
        // A server binary of an earlier protocol (1: an optimisation-level
        // byte in the WELCOME; 2: 8-byte acks only; 3: a 112-byte REL_INFO)
        // is refused here, not fed bodies it misparses.
        for version in [1u32, 2, 3] {
            let mut stale = encode_hello(1);
            stale[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_hello(&stale),
                Err(CoreError::Transport(m)) if m.contains(&format!("protocol version {version},"))
            ));
        }

        let w = Welcome {
            clients: 2,
            servers: 4,
            rank: 3,
            rel: Some(RelConfig {
                rto: 30_000_000,
                rto_max: 480_000_000,
                adaptive: true,
            }),
            triple: TargetTriple::X86_64_GENERIC,
        };
        assert_eq!(decode_welcome(&encode_welcome(&w)).unwrap(), w);
        let plain = Welcome { rel: None, ..w };
        assert_eq!(decode_welcome(&encode_welcome(&plain)).unwrap(), plain);
        assert!(decode_welcome(&[0u8; 10]).is_err());
    }

    /// A server sizes its runtime and link table from the WELCOME: a layout
    /// that overflows, or a rank that is not one of its servers, is refused
    /// before `serve` builds anything from it.
    #[test]
    fn welcome_with_an_impossible_layout_is_rejected() {
        let welcome = |clients, servers, rank| Welcome {
            clients,
            servers,
            rank,
            rel: None,
            triple: TargetTriple::X86_64_GENERIC,
        };
        for (clients, servers, rank) in [(1, 2, 1), (1, 2, 2), (3, 1, 3)] {
            let w = welcome(clients, servers, rank);
            assert_eq!(decode_welcome(&encode_welcome(&w)).unwrap(), w);
        }
        for (clients, servers, rank) in [
            (u32::MAX, 2, 0),     // clients + servers overflows
            (2, u32::MAX - 1, 5), // likewise
            (1, 2, 0),            // a client's rank
            (1, 2, 3),            // one past the last server
            (1, 0, 1),            // no servers at all
            (1, 2, RANK_ANY),     // the wildcard is not an assignment
        ] {
            let body = encode_welcome(&welcome(clients, servers, rank));
            let refused = decode_welcome(&body);
            assert!(
                matches!(refused, Err(CoreError::Transport(_))),
                "{clients} + {servers}, rank {rank}: {refused:?}"
            );
        }
    }

    #[test]
    fn rel_info_round_trip() {
        let mut digest = Digest {
            unacked: 3,
            metrics: RelMetrics {
                retransmits: 5,
                fast_retransmits: 4,
                dup_drops: 2,
                out_of_order: 1,
                acks_sent: 9,
            },
            health: None,
        };
        assert_eq!(decode_digest(&encode_digest(&digest)).unwrap(), digest);
        digest.health = Some(LinkHealth {
            peer: 6,
            srtt: 120_000,
            rttvar: 40_000,
            rto: 280_000,
            unacked: 2,
            silent_rounds: 1,
        });
        let body = encode_digest(&digest);
        assert_eq!(decode_digest(&body).unwrap(), digest);
        // The body protocol 3 carried (one more word, the retransmission
        // deadline nothing read) is refused, as is anything else off-size.
        for len in [0, 47, 103, 105, 112] {
            let mut resized = body.clone();
            resized.resize(len, 0);
            assert!(
                matches!(decode_digest(&resized), Err(CoreError::Transport(m)) if m.contains("104 bytes")),
                "{len} bytes"
            );
        }
    }
}
