//! Wire conventions of the threaded cluster backend.
//!
//! The threaded transport moves [`tc_ucx::OutgoingMessage`]s between OS
//! threads as tagged byte envelopes.  Earlier versions of the repository left
//! these conventions to each integration test (ad-hoc tag constants and
//! hand-rolled framing); they are now part of the transport layer so every
//! user of the cluster API shares one protocol.
//!
//! Envelope tags:
//!
//! * [`TAG_OP`] — an encoded fabric operation (the payload of
//!   [`encode_op`]); this is the data plane.
//! * [`TAG_PEEK`] / [`TAG_PEEK_REPLY`] — driver reads a node's memory
//!   (control plane; token-matched).
//! * [`TAG_POKE`] / [`TAG_POKE_ACK`] — driver writes a node's memory.
//! * [`TAG_STATS`] / [`TAG_STATS_REPLY`] — driver samples a node's
//!   [`RuntimeStats`].
//! * [`TAG_ERROR`] — a node reports a runtime error to the driver.

use super::reliable::ReliableSet;
use crate::error::{CoreError, Result};
use crate::metrics::RuntimeStats;
use crate::runtime::NodeRuntime;
use tc_jit::Memory;
use tc_ucx::bytes::put;
use tc_ucx::{AmHandlerId, BufPool, Bytes, OutgoingMessage, RequestId, UcpOp, WorkerAddr};

/// Envelope tag: encoded fabric operation (data plane).
pub const TAG_OP: u64 = 1;
/// Envelope tag: driver asks a node to read memory.
pub const TAG_PEEK: u64 = 2;
/// Envelope tag: node answers a [`TAG_PEEK`].
pub const TAG_PEEK_REPLY: u64 = 3;
/// Envelope tag: driver asks a node to write memory.
pub const TAG_POKE: u64 = 4;
/// Envelope tag: node acknowledges a [`TAG_POKE`].
pub const TAG_POKE_ACK: u64 = 5;
/// Envelope tag: driver asks a node for its runtime counters.
pub const TAG_STATS: u64 = 6;
/// Envelope tag: node answers a [`TAG_STATS`].
pub const TAG_STATS_REPLY: u64 = 7;
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

/// Prefix an already-encoded op head with the reliability header,
/// producing the data segment of a [`TAG_ROP`] envelope.  This copies the
/// head: it is the retransmission path (a retained frame needs a fresh
/// cumulative ack).  First transmissions use [`encode_rel_op_vectored`],
/// which writes the prefix and the head into one buffer.
pub fn encode_rel_head(seq: u64, ack: u64, head: &[u8]) -> Bytes {
    tc_ucx::bytes::with_pool(|pool| {
        let mut out = pool.acquire(REL_HEAD_LEN + head.len());
        out.put_u64_le(seq);
        out.put_u64_le(ack);
        out.put_slice(head);
        out.freeze(pool)
    })
}

/// Split a [`TAG_ROP`] data segment into `(seq, ack, op head)`.  The head is
/// a zero-copy sub-view.
pub fn decode_rel_head(bytes: &Bytes) -> Result<(u64, u64, Bytes)> {
    if bytes.len() < REL_HEAD_LEN {
        return Err(CoreError::Transport(
            "reliable envelope shorter than its header".into(),
        ));
    }
    let seq = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let ack = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    Ok((seq, ack, bytes.slice(REL_HEAD_LEN..)))
}

/// Encode a pure cumulative ack, and the gap it names if any, for a
/// [`TAG_ACK`] envelope (a pooled buffer: steady-state acks allocate
/// nothing).
pub fn encode_ack(ack: u64, gap: Option<u64>) -> Bytes {
    tc_ucx::bytes::with_pool(|pool| {
        let mut out = pool.acquire(if gap.is_some() { 16 } else { 8 });
        out.put_u64_le(ack);
        if let Some(gap) = gap {
            out.put_u64_le(gap);
        }
        out.freeze(pool)
    })
}

/// Decode a [`TAG_ACK`] payload into `(ack, gap)`.
pub fn decode_ack(bytes: &[u8]) -> Result<(u64, Option<u64>)> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    match bytes.len() {
        8 => Ok((word(0), None)),
        16 => Ok((word(0), Some(word(8)))),
        other => Err(CoreError::Transport(format!(
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

/// The bulk payload of an operation: what follows its fixed fields on the
/// wire, and what a scatter-gather encode may detach.
fn bulk(op: &UcpOp) -> Option<&Bytes> {
    match op {
        UcpOp::Put { data, .. } | UcpOp::PutConfirm { data, .. } | UcpOp::GetReply { data, .. } => {
            Some(data)
        }
        UcpOp::ActiveMessage { payload, .. } => Some(payload),
        UcpOp::IfuncFrame { bytes } => Some(bytes),
        UcpOp::Get { .. } | UcpOp::PutAck { .. } => None,
    }
}

/// Exact encoded size of a [`TAG_OP`] envelope for `msg`.
fn encoded_op_size(op: &UcpOp) -> usize {
    let fixed = match op {
        UcpOp::Put { .. }
        | UcpOp::PutConfirm { .. }
        | UcpOp::PutAck { .. }
        | UcpOp::GetReply { .. } => 8,
        UcpOp::Get { .. } => 16,
        UcpOp::ActiveMessage { .. } => 2,
        UcpOp::IfuncFrame { .. } => 0,
    };
    17 + fixed + bulk(op).map_or(0, |b| b.len())
}

/// Write `msg`'s envelope header and fixed op fields — everything but the
/// bulk payload — to the front of `out`.
fn put_op_head(out: &mut &mut [u8], msg: &OutgoingMessage) {
    put(out, &msg.src.0.to_le_bytes());
    put(out, &msg.dst.0.to_le_bytes());
    put(out, &msg.request.0.to_le_bytes());
    match &msg.op {
        UcpOp::Put { remote_addr, .. } => {
            put(out, &[OP_PUT]);
            put(out, &remote_addr.to_le_bytes());
        }
        UcpOp::PutConfirm { remote_addr, .. } => {
            put(out, &[OP_PUT_CONFIRM]);
            put(out, &remote_addr.to_le_bytes());
        }
        UcpOp::PutAck { acked } => {
            put(out, &[OP_PUT_ACK]);
            put(out, &acked.0.to_le_bytes());
        }
        UcpOp::Get { remote_addr, len } => {
            put(out, &[OP_GET]);
            put(out, &remote_addr.to_le_bytes());
            put(out, &len.to_le_bytes());
        }
        UcpOp::GetReply { request, .. } => {
            put(out, &[OP_GET_REPLY]);
            put(out, &request.0.to_le_bytes());
        }
        UcpOp::ActiveMessage { handler, .. } => {
            put(out, &[OP_AM]);
            put(out, &handler.0.to_le_bytes());
        }
        UcpOp::IfuncFrame { .. } => put(out, &[OP_IFUNC]),
    }
}

/// Payloads at or above this many bytes travel as a detached scatter-gather
/// envelope segment instead of being copied into the encoded head buffer.
/// Below it, the copy is cheaper than handling a second segment.
pub const SCATTER_THRESHOLD: usize = 512;

/// The one encoder: an optional `(seq, ack)` reliability prefix, then the op
/// head, in **one** pool buffer; with `scatter`, a bulk payload of at least
/// [`SCATTER_THRESHOLD`] bytes is detached as a shared view instead of
/// copied behind the head.
fn encode(
    msg: &OutgoingMessage,
    rel: Option<(u64, u64)>,
    scatter: bool,
    pool: &mut BufPool,
) -> (Bytes, Bytes) {
    let bulk = bulk(&msg.op);
    let detached = bulk
        .filter(|b| scatter && b.len() >= SCATTER_THRESHOLD)
        .cloned()
        .unwrap_or_default();
    let prefix = if rel.is_some() { REL_HEAD_LEN } else { 0 };
    let size = prefix + encoded_op_size(&msg.op) - detached.len();
    let mut writer = pool.acquire(size);
    // The whole envelope is one region of the pool buffer: one uniqueness
    // check, however many fields.
    let mut out = writer.reserve(size);
    if let Some((seq, ack)) = rel {
        put(&mut out, &seq.to_le_bytes());
        put(&mut out, &ack.to_le_bytes());
    }
    put_op_head(&mut out, msg);
    if let (Some(bulk), true) = (bulk, detached.is_empty()) {
        put(&mut out, bulk);
    }
    (writer.freeze(pool), detached)
}

/// Encode a fabric operation for a [`TAG_OP`] envelope into a buffer from
/// `pool`.  Steady-state sends reuse released pool slots, so the encode path
/// performs one payload copy and zero allocations.
pub fn encode_op_with(msg: &OutgoingMessage, pool: &mut BufPool) -> Bytes {
    encode(msg, None, false, pool).0
}

/// Encode a fabric operation with this thread's encode pool.
pub fn encode_op(msg: &OutgoingMessage) -> Bytes {
    tc_ucx::bytes::with_pool(|pool| encode_op_with(msg, pool))
}

/// Scatter-gather encode: returns `(head, payload)` where `head` is the
/// encoded envelope minus the bulk payload and `payload` is a shared view of
/// the operation's payload bytes (empty when the operation is small or has
/// no payload).  Together with [`decode_op_vectored`] this makes large sends
/// **zero-copy**: the payload crosses the transport as a refcount, never as
/// a memcpy.  The logical wire image is `head ‖ payload`, identical to what
/// [`encode_op`] produces in one buffer.
pub fn encode_op_vectored_with(msg: &OutgoingMessage, pool: &mut BufPool) -> (Bytes, Bytes) {
    encode(msg, None, true, pool)
}

/// Scatter-gather encode with this thread's encode pool.
pub fn encode_op_vectored(msg: &OutgoingMessage) -> (Bytes, Bytes) {
    tc_ucx::bytes::with_pool(|pool| encode(msg, None, true, pool))
}

/// First transmission of a reliable frame: `(data, payload)` where `data` is
/// the complete [`TAG_ROP`] data segment — the `(seq, ack)` prefix and the
/// op head written into one pool buffer, no intermediate copy — and
/// `payload` the detached bulk segment as in [`encode_op_vectored`].
/// `data.slice(REL_HEAD_LEN..)` is the bare op head to retain for
/// retransmission ([`encode_rel_head`] re-prefixes it).
pub fn encode_rel_op_vectored(msg: &OutgoingMessage, seq: u64, ack: u64) -> (Bytes, Bytes) {
    tc_ucx::bytes::with_pool(|pool| encode(msg, Some((seq, ack)), true, pool))
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
/// clone, never a memcpy.
pub fn decode_op_vectored(head: &Bytes, payload: &Bytes) -> Result<OutgoingMessage> {
    let err = |msg: &str| CoreError::Transport(format!("bad op envelope: {msg}"));
    if head.len() < 17 {
        return Err(err("shorter than the fixed header"));
    }
    let src = WorkerAddr(u32::from_le_bytes(head[0..4].try_into().unwrap()));
    let dst = WorkerAddr(u32::from_le_bytes(head[4..8].try_into().unwrap()));
    let request = RequestId(u64::from_le_bytes(head[8..16].try_into().unwrap()));
    let tag = head[16];
    let body = &head[17..];
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
    // head that ends with the fixed fields.
    let inline_bulk = has_bulk && payload.is_empty();
    if body.len() < fixed || (!inline_bulk && body.len() != fixed) {
        return Err(err("wrong length for its op tag"));
    }
    let bulk = || {
        if inline_bulk {
            head.slice(17 + fixed..)
        } else {
            payload.clone()
        }
    };
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    let op = match tag {
        OP_PUT => UcpOp::Put {
            remote_addr: u64_at(0),
            data: bulk(),
        },
        OP_PUT_CONFIRM => UcpOp::PutConfirm {
            remote_addr: u64_at(0),
            data: bulk(),
        },
        OP_PUT_ACK => UcpOp::PutAck {
            acked: RequestId(u64_at(0)),
        },
        OP_GET => UcpOp::Get {
            remote_addr: u64_at(0),
            len: u64_at(8),
        },
        OP_GET_REPLY => UcpOp::GetReply {
            request: RequestId(u64_at(0)),
            data: bulk(),
        },
        OP_AM => UcpOp::ActiveMessage {
            handler: AmHandlerId(u16::from_le_bytes(body[0..2].try_into().unwrap())),
            payload: bulk(),
        },
        _ => UcpOp::IfuncFrame { bytes: bulk() },
    };
    Ok(OutgoingMessage {
        src,
        dst,
        request,
        op,
    })
}

/// Decode a single-buffer [`TAG_OP`] envelope ([`decode_op_vectored`] with
/// no detached segment).
pub fn decode_op(bytes: &Bytes) -> Result<OutgoingMessage> {
    decode_op_vectored(bytes, &Bytes::new())
}

/// Encode a control request carrying a matching token and a body.
pub fn encode_control(token: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&token.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Split a control envelope into `(token, body)`.
pub fn decode_control(bytes: &[u8]) -> Result<(u64, &[u8])> {
    if bytes.len() < 8 {
        return Err(CoreError::Transport(
            "control envelope shorter than its token".into(),
        ));
    }
    Ok((
        u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
        &bytes[8..],
    ))
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

/// Split a [`TAG_POKE`] body into `(addr, data)`.
pub(crate) fn split_poke(body: &[u8]) -> Option<(u64, &[u8])> {
    let (addr, data) = body.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*addr), data))
}

/// Serve one control-plane request (peek/poke/stats) against a node's
/// runtime: the reply's tag and body, or `None` for a malformed request or a
/// tag that is not one of the three.  A peek that fails — unreadable range,
/// or a length no reply could carry — answers with an empty body.
pub(crate) fn serve_control(
    runtime: &mut NodeRuntime,
    tag: u64,
    data: &[u8],
) -> Option<(u64, Vec<u8>)> {
    let (token, body) = decode_control(data).ok()?;
    match tag {
        TAG_PEEK if body.len() == 16 => {
            let addr = u64::from_le_bytes(body[0..8].try_into().unwrap());
            let len = u64::from_le_bytes(body[8..16].try_into().unwrap());
            let read = peek(runtime, addr, len).unwrap_or_default();
            Some((TAG_PEEK_REPLY, encode_control(token, &read)))
        }
        TAG_POKE => {
            let (addr, data) = split_poke(body)?;
            let ok = runtime.memory.write(addr, data).is_ok();
            Some((TAG_POKE_ACK, encode_control(token, &[ok as u8])))
        }
        TAG_STATS => Some((
            TAG_STATS_REPLY,
            encode_control(token, &encode_stats(&runtime.stats)),
        )),
        _ => None,
    }
}

/// Serialize runtime counters for a [`TAG_STATS_REPLY`].
pub fn encode_stats(stats: &RuntimeStats) -> Vec<u8> {
    let fields = [
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
    ];
    let mut out = Vec::with_capacity(fields.len() * 8);
    for f in fields {
        out.extend_from_slice(&f.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_stats`].
pub fn decode_stats(bytes: &[u8]) -> Result<RuntimeStats> {
    if bytes.len() != 11 * 8 {
        return Err(CoreError::Transport(format!(
            "stats reply must be 88 bytes, got {}",
            bytes.len()
        )));
    }
    let mut fields = [0u64; 11];
    for (i, f) in fields.iter_mut().enumerate() {
        *f = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
    }
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

    #[test]
    fn op_codec_roundtrips_every_variant() {
        for op in sample_ops() {
            let msg = OutgoingMessage {
                src: WorkerAddr(2),
                dst: WorkerAddr(5),
                request: RequestId(77),
                op,
            };
            let decoded = decode_op(&encode_op(&msg)).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn op_decode_is_zero_copy_and_pool_reuses_buffers() {
        // A dedicated copy-counting pool: every allocation is visible in
        // `stats.allocated`, every recycled buffer in `stats.reused`.
        let mut pool = BufPool::new();
        for (i, op) in sample_ops().into_iter().enumerate() {
            let msg = OutgoingMessage {
                src: WorkerAddr(1),
                dst: WorkerAddr(2),
                request: RequestId(i as u64),
                op,
            };
            let encoded = encode_op_with(&msg, &mut pool);
            let decoded = decode_op(&encoded).unwrap();
            assert_eq!(decoded, msg);
            // Decode must alias the envelope buffer, not copy out of it.
            match &decoded.op {
                UcpOp::Put { data, .. } => assert!(data.shares_storage(&encoded)),
                UcpOp::PutConfirm { data, .. } => assert!(data.shares_storage(&encoded)),
                UcpOp::GetReply { data, .. } => assert!(data.shares_storage(&encoded)),
                UcpOp::ActiveMessage { payload, .. } => {
                    assert!(payload.shares_storage(&encoded))
                }
                UcpOp::IfuncFrame { bytes } => assert!(bytes.shares_storage(&encoded)),
                UcpOp::Get { .. } | UcpOp::PutAck { .. } => {}
            }
            drop(decoded);
            drop(encoded);
        }
        // Every envelope fits the first slot, and each is released before
        // the next encode: exactly one allocation, the rest reuses.
        assert_eq!(pool.stats.allocated, 1, "{:?}", pool.stats);
        assert_eq!(pool.stats.reused, 6);
    }

    #[test]
    fn vectored_codec_roundtrips_and_never_copies_large_payloads() {
        let mut pool = BufPool::new();
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
            },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let msg = OutgoingMessage {
                src: WorkerAddr(1),
                dst: WorkerAddr(2),
                request: RequestId(i as u64),
                op,
            };
            let (head, payload) = encode_op_vectored_with(&msg, &mut pool);
            // The payload segment IS the original buffer — no copy at all.
            assert!(payload.shares_storage(&large));
            assert!(head.len() <= 25, "head must be tiny, got {}", head.len());
            let decoded = decode_op_vectored(&head, &payload).unwrap();
            assert_eq!(decoded, msg);
            // The logical wire image equals the single-buffer encoding.
            let mut joined = head.to_vec();
            joined.extend_from_slice(&payload);
            assert_eq!(joined, encode_op_with(&msg, &mut pool).to_vec());
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
        let (head, payload) = encode_op_vectored_with(&small, &mut pool);
        assert!(payload.is_empty());
        assert_eq!(decode_op_vectored(&head, &payload).unwrap(), small);
    }

    #[test]
    fn vectored_decode_rejects_malformed_heads() {
        let payload = Bytes::from(vec![0u8; 600]);
        assert!(decode_op_vectored(&Bytes::new(), &payload).is_err());
        // A GET head cannot carry a payload segment.
        let get = encode_op(&OutgoingMessage {
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
        assert!(decode_op(&Bytes::new()).is_err());
        assert!(decode_op(&Bytes::from(vec![0u8; 16])).is_err());
        let mut bad = encode_op(&OutgoingMessage {
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
        assert!(decode_op(&Bytes::from(bad)).is_err());
    }

    #[test]
    fn rel_header_roundtrips_and_aliases_the_head() {
        let head = encode_op(&OutgoingMessage {
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
        let (direct, payload) = encode_rel_op_vectored(&decode_op(&head).unwrap(), 7, 3);
        assert_eq!((direct, payload), (wrapped.clone(), Bytes::new()));
        let (seq, ack, inner) = decode_rel_head(&wrapped).unwrap();
        assert_eq!((seq, ack), (7, 3));
        assert_eq!(inner, head);
        assert!(inner.shares_storage(&wrapped), "head must be a sub-view");
        assert!(decode_rel_head(&Bytes::from(vec![0u8; 15])).is_err());
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
            let (tag, reply) =
                serve_control(runtime, TAG_PEEK, &encode_control(9, &body)).expect("well-formed");
            assert_eq!(tag, TAG_PEEK_REPLY);
            let (token, read) = decode_control(&reply).unwrap();
            assert_eq!(token, 9);
            read.to_vec()
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
}
