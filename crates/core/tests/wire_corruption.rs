//! Wire-format robustness: seeded corruption of encoded envelopes and
//! frames.
//!
//! The chaos plane injects *fabric* faults (drop/dup/reorder); this suite
//! covers the next failure class down — corrupted bytes.  Every decoder on
//! the receive path (`wire::decode_op_vectored`,
//! `wire::decode_rel_head`, `wire::decode_ack`, `wire::decode_control`,
//! `wire::decode_stats`, `MessageFrame::decode_view` and `decode_views` (a
//! full frame sent as two views), the socket session's
//! `wire::decode_{hello,welcome,digest}`, and the peek / poke / stats
//! requests a server rank serves) must return an error for malformed input —
//! never panic, never misindex — because a production fabric will
//! eventually hand it garbage.

use tc_core::cluster::wire;
use tc_core::frame::{CodeRepr, MessageFrame};
use tc_simnet::SplitMix64;
use tc_ucx::{AmHandlerId, Bytes, OutgoingMessage, RequestId, UcpOp, WorkerAddr};

fn sample_messages() -> Vec<OutgoingMessage> {
    let ops = vec![
        UcpOp::Put {
            remote_addr: 0x4000,
            data: vec![7; 48].into(),
        },
        UcpOp::Get {
            remote_addr: 0x80,
            len: 64,
        },
        UcpOp::GetReply {
            request: RequestId(3),
            data: vec![1, 2, 3, 4].into(),
        },
        UcpOp::ActiveMessage {
            handler: AmHandlerId(2),
            payload: vec![9; 16].into(),
        },
        UcpOp::IfuncFrame {
            bytes: vec![0xCD; 96].into(),
            code: Bytes::new(),
        },
    ];
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| OutgoingMessage {
            src: WorkerAddr(0),
            dst: WorkerAddr(1),
            request: RequestId(i as u64),
            op,
        })
        .collect()
}

/// Decode a single-buffer envelope: no detached segment.
fn decode_inline(bytes: &Bytes) -> tc_core::Result<OutgoingMessage> {
    wire::decode_op_vectored(bytes, &Bytes::new())
}

/// The single-buffer envelope of an operation below the scatter threshold
/// (every sample message is).
fn encode_inline(msg: &OutgoingMessage) -> Bytes {
    let (head, payload) = wire::encode_op_vectored(msg);
    assert!(payload.is_empty());
    head
}

fn sample_frame() -> MessageFrame {
    MessageFrame::new(
        "corruption_probe",
        CodeRepr::Bitcode,
        vec![1, 2, 3, 4, 5],
        vec![0xAB; 256],
        vec!["libtc.so".to_string(), "libm.so".to_string()],
    )
}

/// Truncate `bytes` to every possible prefix length: each must decode to
/// `Ok` or `Err`, never panic.  Returns how many prefixes decoded `Ok`.
fn truncation_sweep(bytes: &[u8], mut decode: impl FnMut(&[u8]) -> bool) -> usize {
    (0..bytes.len()).filter(|&n| decode(&bytes[..n])).count()
}

#[test]
fn op_decode_survives_every_truncation() {
    for msg in sample_messages() {
        let enc = encode_inline(&msg);
        let ok = truncation_sweep(&enc, |b| decode_inline(&Bytes::copy_from_slice(b)).is_ok());
        // Some truncations of payload-carrying ops are still structurally
        // valid (a shorter payload); what matters is that none panicked and
        // the full encoding round-trips.
        assert!(decode_inline(&enc).is_ok());
        let _ = ok;
    }
}

#[test]
fn op_decode_survives_seeded_bit_flips() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for msg in sample_messages() {
        let enc = encode_inline(&msg).to_vec();
        for _ in 0..200 {
            let mut bad = enc.clone();
            let byte = rng.below(bad.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            bad[byte] ^= 1 << bit;
            // Must not panic; on success the decoded op may simply differ.
            let _ = decode_inline(&Bytes::from(bad));
        }
    }
}

#[test]
fn op_decode_rejects_structurally_broken_bodies() {
    // GET body must be exactly 16 bytes.
    let get = encode_inline(&OutgoingMessage {
        src: WorkerAddr(0),
        dst: WorkerAddr(1),
        request: RequestId(0),
        op: UcpOp::Get {
            remote_addr: 0,
            len: 8,
        },
    })
    .to_vec();
    assert!(decode_inline(&Bytes::from(get[..get.len() - 1].to_vec())).is_err());
    let mut long = get.clone();
    long.push(0);
    assert!(decode_inline(&Bytes::from(long)).is_err());
    // Unknown op tag.
    let mut bad_tag = get;
    bad_tag[16] = 0xEE;
    assert!(decode_inline(&Bytes::from(bad_tag)).is_err());
    // Shorter than any header.
    for n in 0..17 {
        assert!(decode_inline(&Bytes::from(vec![0u8; n])).is_err());
    }
}

/// A GET is served as well as decoded, and the length it asks for came off
/// the wire: one no frame could carry back is refused with a typed error
/// before a reply buffer is allocated, and nothing is posted.
#[test]
fn a_served_get_longer_than_a_frame_is_refused_before_anything_is_allocated() {
    let mut server = tc_core::NodeRuntime::new(WorkerAddr(1), 2, tc_bitir::TargetTriple::THOR_XEON);
    let max = tc_net::MAX_FRAME_BYTES as u64;
    for len in [max + 1, 1 << 40, u64::MAX] {
        let get = encode_inline(&OutgoingMessage {
            src: WorkerAddr(0),
            dst: WorkerAddr(1),
            request: RequestId(0),
            op: UcpOp::Get {
                remote_addr: 0x80,
                len,
            },
        });
        server.deliver(decode_inline(&get).unwrap());
        let served = server.poll(1);
        assert!(
            matches!(&served[..], [Err(tc_core::CoreError::TooLarge { what, len: l, max: m })]
                if what == "GET" && *l == len && *m == max),
            "{len}: {served:?}"
        );
        assert!(server.take_outgoing().is_empty());
    }
    assert_eq!(server.stats.gets_served, 0);
}

#[test]
fn vectored_decode_survives_corrupt_heads() {
    let mut rng = SplitMix64::new(0xBEEF);
    let payload = Bytes::from(vec![0x55u8; 1024]);
    for msg in sample_messages() {
        let (head, _) = wire::encode_op_vectored(&msg);
        for _ in 0..200 {
            let mut bad = head.to_vec();
            if bad.is_empty() {
                continue;
            }
            let byte = rng.below(bad.len() as u64) as usize;
            bad[byte] = rng.next_u64() as u8;
            let _ = wire::decode_op_vectored(&Bytes::from(bad), &payload);
        }
        for n in 0..head.len() {
            let _ = wire::decode_op_vectored(&Bytes::copy_from_slice(&head[..n]), &payload);
        }
    }
}

#[test]
fn frame_decode_view_survives_truncation_and_flips() {
    let frame = sample_frame();
    for enc in [frame.encode_full(), frame.encode_truncated()] {
        // Every truncation: error or ok, never a panic.  The intact
        // encodings must round-trip.
        truncation_sweep(&enc, |b| {
            MessageFrame::decode_view(&Bytes::copy_from_slice(b)).is_ok()
        });
        assert!(MessageFrame::decode_view(&enc).is_ok());

        let mut rng = SplitMix64::new(0xF00D);
        let bytes = enc.to_vec();
        for _ in 0..500 {
            let mut bad = bytes.clone();
            let byte = rng.below(bad.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            bad[byte] ^= 1 << bit;
            let _ = MessageFrame::decode_view(&Bytes::from(bad));
        }
    }
}

/// A full frame sent as two views — its head behind the op header, its tail
/// the detached segment — decodes to the frame it carries.  Every
/// truncation of either segment is a typed error or that same frame, and
/// seeded flips in either are a typed error or some frame; none panics.
#[test]
fn a_split_full_frame_survives_truncation_and_flips_of_either_view() {
    let frame = sample_frame();
    let full = frame.encode_full();
    let head = frame.encode_truncated();
    let tail = Bytes::copy_from_slice(&full[head.len()..]);
    let msg = OutgoingMessage {
        src: WorkerAddr(0),
        dst: WorkerAddr(1),
        request: RequestId(7),
        op: UcpOp::IfuncFrame {
            bytes: head,
            code: tail.clone(),
        },
    };
    let (env, seg) = wire::encode_op_vectored(&msg);
    assert!(seg.shares_storage(&tail), "the tail travels as it is held");
    assert_eq!([&env[17..], &seg[..]].concat(), full, "the wire image");
    let want = MessageFrame::decode(&full).unwrap();
    // The frame the two segments carry, if the envelope and the frame decode.
    let carried = |env: &[u8], seg: &[u8]| {
        let (env, seg) = (Bytes::copy_from_slice(env), Bytes::copy_from_slice(seg));
        match wire::decode_op_vectored(&env, &seg) {
            Ok(OutgoingMessage {
                op: UcpOp::IfuncFrame { bytes, code },
                ..
            }) => match MessageFrame::decode_views(&bytes, &code) {
                Ok(frame) => Some(frame),
                Err(tc_core::CoreError::Frame(_)) => None,
                Err(other) => panic!("untyped frame error {other:?}"),
            },
            Ok(_) | Err(tc_core::CoreError::Transport(_)) => None,
            Err(other) => panic!("untyped envelope error {other:?}"),
        }
    };
    assert_eq!(carried(&env, &seg), Some(want.clone()));
    for n in 0..env.len() {
        let cut = carried(&env[..n], &seg);
        assert!(
            cut.is_none() || cut == Some(want.clone()),
            "head cut at {n}"
        );
    }
    // Without its tail the head is the truncated frame, which is what a
    // cached send posts: the receiver decides by its registration table.
    let truncated = MessageFrame::decode(&frame.encode_truncated()).unwrap();
    assert_eq!(carried(&env, &[]), Some(truncated));
    for n in 1..seg.len() {
        let cut = carried(&env, &seg[..n]);
        assert!(
            cut.is_none() || cut == Some(want.clone()),
            "tail cut at {n}"
        );
    }
    let mut rng = SplitMix64::new(0x5B11);
    for _ in 0..2_000 {
        let (mut env, mut seg) = (env.to_vec(), seg.to_vec());
        let bad = if rng.below(2) == 0 {
            &mut env
        } else {
            &mut seg
        };
        let at = rng.below(bad.len() as u64) as usize;
        bad[at] ^= 1 << rng.below(8);
        carried(&env, &seg);
    }
}

#[test]
fn frame_decode_rejects_specific_corruptions() {
    let frame = sample_frame();
    let full = frame.encode_full().to_vec();

    // Bad version byte.
    let mut bad = full.clone();
    bad[0] = 0x7F;
    assert!(MessageFrame::decode_view(&Bytes::from(bad)).is_err());

    // Bad representation tag.
    let mut bad = full.clone();
    bad[1] = 9;
    assert!(MessageFrame::decode_view(&Bytes::from(bad)).is_err());

    // Non-UTF-8 ifunc name (name starts after version+repr+len = 4 bytes).
    let mut bad = full.clone();
    bad[4] = 0xFF;
    bad[5] = 0xFE;
    assert!(MessageFrame::decode_view(&Bytes::from(bad)).is_err());

    // Broken MAGIC delimiter after the payload.
    let name_len = frame.ifunc_name.len();
    let payload_len = 5;
    let magic_at = 1 + 1 + 2 + name_len + 4 + 4 + 2 + payload_len;
    let mut bad = full.clone();
    bad[magic_at] = b'X';
    assert!(MessageFrame::decode_view(&Bytes::from(bad)).is_err());

    // Trailing garbage after the trailer MAGIC.
    let mut bad = full.clone();
    bad.push(0);
    assert!(MessageFrame::decode_view(&Bytes::from(bad)).is_err());

    // Broken trailer MAGIC.
    let mut bad = full;
    let last = bad.len() - 1;
    bad[last] = b'!';
    assert!(MessageFrame::decode_view(&Bytes::from(bad)).is_err());
}

#[test]
fn control_plane_codecs_reject_garbage() {
    let mut rng = SplitMix64::new(0xD00D);
    for _ in 0..500 {
        let junk = rng.bytes(64);
        let _ = wire::decode_control(&junk);
        let _ = wire::decode_stats(&junk);
        let _ = wire::decode_ack(&junk);
        let _ = wire::decode_rel_head(&Bytes::copy_from_slice(&junk));
    }
    assert!(wire::decode_control(&[0; 7]).is_err());
    assert!(wire::decode_stats(&[0; 87]).is_err());
    assert!(wire::decode_ack(&[0; 7]).is_err());
    assert!(wire::decode_rel_head(&Bytes::from(vec![0u8; 15])).is_err());

    // An ack body is 8 bytes, or 16 when it names a gap: every other
    // truncation is an error, and a flipped bit is at worst another ack.
    let ack = wire::encode_ack(0x0102_0304_0506_0708, Some(0x1112_1314_1516_1718));
    assert_eq!(ack.len(), 16);
    let ok = truncation_sweep(&ack, |b| wire::decode_ack(b).is_ok());
    assert_eq!(ok, 1, "only the 8-byte prefix is an ack");
    assert_eq!(
        wire::decode_ack(&ack[..8]).unwrap(),
        (0x0102_0304_0506_0708, None)
    );
    // ...which the reliable layer bounds before it indexes anything: a
    // corrupt `(cum, gap)` re-sends at most the four frames retained, once.
    let cfg = tc_core::RelConfig::sim_default();
    let mut rel: tc_core::cluster::reliable::ReliableSet<u8> =
        tc_core::cluster::reliable::ReliableSet::new(cfg);
    for m in 0..4 {
        rel.send(1, m, 0);
    }
    let mut resent = Vec::new();
    for _ in 0..200 {
        let mut bad = ack.to_vec();
        bad[rng.below(16) as usize] = rng.next_u64() as u8;
        let (cum, gap) = wire::decode_ack(&bad).expect("only the length can be wrong");
        assert!(gap.is_some());
        rel.on_gap(1, cum, gap, 1, &mut resent);
        rel.on_gap(1, rng.below(6), Some(rng.below(8)), 1, &mut resent);
    }
    assert!(resent.len() <= 4, "{resent:?}");
}

/// Mutated copies of `body`, `cases` of them from `seed`: a truncation, one
/// to three bit flips, or a truncation with junk appended.
fn corruptions(seed: u64, body: &[u8], cases: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut rng = SplitMix64::new(seed);
    (0..cases).map(move |_| {
        let mut bad = body.to_vec();
        let len = bad.len() as u64;
        match rng.below(3) {
            0 => bad.truncate(rng.below(len) as usize),
            1 => {
                for _ in 0..=rng.below(3) {
                    bad[rng.below(len) as usize] ^= 1 << rng.below(8);
                }
            }
            _ => {
                bad.truncate(rng.below(len + 1) as usize);
                bad.extend(rng.bytes(8));
            }
        }
        bad
    })
}

/// Mutations of each socket-session codec, and of each control request a
/// server rank serves: every case is `Ok` or a typed `Err`, never a panic.
mod session_codecs {
    use super::*;
    use tc_bitir::TargetTriple;
    use tc_core::cluster::reliable::{LinkHealth, RelMetrics};
    use tc_core::cluster::{Cluster, ClusterBuilder, LinkDigest, SimTransport, Transport};
    use tc_core::layout::DATA_REGION_BASE;
    use tc_core::{CoreError, RelConfig};

    const CASES: usize = 2_000;

    /// Every strict prefix of a session body is refused, and the intact
    /// body decodes to `want`.
    fn check_prefixes_and_round_trip<T: PartialEq + std::fmt::Debug>(
        body: &[u8],
        want: T,
        decode: impl Fn(&[u8]) -> tc_core::Result<T>,
    ) {
        assert_eq!(truncation_sweep(body, |b| decode(b).is_ok()), 0);
        assert_eq!(decode(body).unwrap(), want);
    }

    fn typed<T>(result: tc_core::Result<T>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(CoreError::Transport(_)) => None,
            Err(other) => panic!("untyped session error {other:?}"),
        }
    }

    #[test]
    fn hello_welcome_and_rel_info_survive_seeded_mutations() {
        let hello = wire::encode_hello(3);
        check_prefixes_and_round_trip(&hello, 3, wire::decode_hello);
        for bad in corruptions(0x4E11, &hello, CASES) {
            let rank = typed(wire::decode_hello(&bad));
            // Magic and version guard the first eight bytes.
            if bad.len() == hello.len() && bad[..8] != hello[..8] {
                assert_eq!(rank, None, "{bad:?}");
            }
        }

        let welcome = wire::Welcome {
            clients: 2,
            servers: 3,
            rank: 3,
            rel: Some(RelConfig::sim_default()),
            triple: TargetTriple::THOR_BF2,
        };
        let body = wire::encode_welcome(&welcome);
        check_prefixes_and_round_trip(&body, welcome, wire::decode_welcome);
        for bad in corruptions(0x3E1C, &body, CASES) {
            // Whatever decodes names a server rank of its own layout.
            if let Some(w) = typed(wire::decode_welcome(&bad)) {
                assert!(
                    w.clients <= w.rank && w.rank - w.clients < w.servers,
                    "{w:?}"
                );
            }
        }

        let digest = LinkDigest {
            unacked: 7,
            metrics: RelMetrics {
                retransmits: 5,
                fast_retransmits: 4,
                dup_drops: 3,
                out_of_order: 2,
                acks_sent: 1,
            },
            health: Some(LinkHealth {
                peer: 2,
                srtt: 9_000,
                rttvar: 1_000,
                rto: 50_000,
                unacked: 7,
                silent_rounds: 1,
            }),
        };
        let body = wire::encode_digest(&digest);
        check_prefixes_and_round_trip(&body, digest, wire::decode_digest);
        for bad in corruptions(0xD16E, &body, CASES) {
            // Every 104-byte body is a digest; no other length is.
            let decoded = typed(wire::decode_digest(&bad));
            assert_eq!(decoded.is_some(), bad.len() == body.len(), "{bad:?}");
        }
    }

    #[test]
    fn mutated_peek_poke_and_stats_requests_get_typed_answers() {
        let mut cluster = ClusterBuilder::new().servers(1).build_sim();
        let rank = cluster.server_rank(0);
        let control = |cluster: &mut Cluster<SimTransport>, tag: u64, body: &[u8]| {
            typed(cluster.transport_mut().control(rank, tag, body))
        };

        let mut peek = DATA_REGION_BASE.to_le_bytes().to_vec();
        peek.extend_from_slice(&64u64.to_le_bytes());
        assert_eq!(
            control(&mut cluster, wire::TAG_PEEK, &peek).unwrap().len(),
            64
        );
        for bad in corruptions(0x9EE4, &peek, CASES) {
            let reply = control(&mut cluster, wire::TAG_PEEK, &bad);
            // A request of any other shape is refused; a failed read is an
            // empty reply; a read answers exactly the bytes it asked for.
            match (bad.len(), reply) {
                (16, Some(read)) => {
                    let len = u64::from_le_bytes(bad[8..].try_into().unwrap());
                    assert!(read.is_empty() || read.len() as u64 == len, "{bad:?}");
                }
                (_, reply) => assert_eq!(reply, None, "{bad:?}"),
            }
        }

        let mut poke = DATA_REGION_BASE.to_le_bytes().to_vec();
        poke.extend_from_slice(&[0xA5; 32]);
        assert_eq!(control(&mut cluster, wire::TAG_POKE, &poke).unwrap(), [1]);
        for bad in corruptions(0x90CE, &poke, CASES) {
            let reply = control(&mut cluster, wire::TAG_POKE, &bad);
            if bad.len() < 8 {
                assert_eq!(reply, None, "{bad:?}");
            } else {
                assert!(matches!(reply.as_deref(), Some([0] | [1])), "{bad:?}");
            }
        }

        // A stats request has no body of its own: whatever it carries, the
        // reply is one stats record, and mutated records decode or refuse.
        let record = control(&mut cluster, wire::TAG_STATS, &[]).unwrap();
        let stats = wire::decode_stats(&record).unwrap();
        assert!(stats.puts_applied == 0 && stats.gets_served == 0);
        let mut rng = SplitMix64::new(0x57A7);
        for bad in corruptions(0x57A7, &record, CASES) {
            let junk = rng.bytes(24);
            let reply = control(&mut cluster, wire::TAG_STATS, &junk).unwrap();
            assert!(wire::decode_stats(&reply).is_ok());
            let decoded = typed(wire::decode_stats(&bad));
            assert_eq!(decoded.is_some(), bad.len() == record.len(), "{bad:?}");
        }
    }
}

/// The socket backend adds one more decode layer beneath everything above:
/// length-prefixed stream framing.  The same rules apply — truncation,
/// bit-flips and hostile length headers must come back as typed errors (or
/// silent resynchronization-is-impossible `Err`s), never a panic and never
/// an attacker-sized allocation.
mod stream_framing {
    use super::*;
    use std::io::Write as _;
    use std::time::{Duration, Instant};
    use tc_net::{Frame, FrameDecoder, Listener, NetError, SocketSpec, MAX_FRAME_BYTES};

    fn sample_stream() -> Vec<u8> {
        let frames = [
            Frame::new(0, 1, 9, vec![0x11; 32]),
            Frame::with_payload(1, 0, 10, vec![0x22; 40], vec![0x33; 700]),
            Frame::new(2, 3, 104, Vec::new()),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        stream
    }

    #[test]
    fn stream_truncated_at_every_byte_never_panics() {
        let stream = sample_stream();
        for cut in 0..stream.len() {
            let mut dec = FrameDecoder::new();
            dec.extend(&stream[..cut]);
            // Drain everything decodable; the final state is either "waiting
            // for more bytes" (Ok(None)) or a typed error — never a panic.
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => {
                        // A truncation that is not on a frame boundary must
                        // be visible as a mid-frame condition with a byte
                        // count, so a peer close here can be classified.
                        if dec.pending() > 0 {
                            assert!(dec.mid_frame(), "cut at {cut}");
                        }
                        break;
                    }
                    Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn stream_survives_seeded_bit_flips() {
        let stream = sample_stream();
        let mut rng = SplitMix64::new(0x57EA);
        for _ in 0..500 {
            let mut bad = stream.clone();
            let byte = rng.below(bad.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            bad[byte] ^= 1 << bit;
            let mut dec = FrameDecoder::new();
            dec.extend(&bad);
            // Flips in the length prefix shift framing; flips in the body
            // change content.  Either way: frames, Ok(None), or a typed
            // error.  Decoded garbage frames must still hold their invariant
            // (data + payload fit the advertised length).
            loop {
                match dec.next_frame() {
                    Ok(Some(f)) => {
                        assert!(f.data.len() + f.payload.len() <= MAX_FRAME_BYTES);
                    }
                    Ok(None) => break,
                    Err(NetError::FrameTooLarge { len, max }) => {
                        assert!(len > max);
                        break;
                    }
                    Err(NetError::Malformed(_)) => break,
                    Err(other) => panic!("unexpected stream error {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hostile_length_header_is_rejected_without_allocation() {
        // A 4 GiB length claim must cost the decoder nothing beyond the four
        // bytes already buffered: the bound check happens before any
        // frame-sized allocation.
        let mut dec = FrameDecoder::new();
        dec.extend(&u32::MAX.to_le_bytes());
        assert_eq!(dec.pending(), 4, "only the prefix is buffered");
        match dec.next_frame() {
            Err(NetError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Just over the limit is equally dead; just under parses the prefix.
        let mut dec = FrameDecoder::new();
        dec.extend(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(NetError::FrameTooLarge { .. })
        ));
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME_BYTES as u32).to_le_bytes());
        assert!(
            dec.next_frame().unwrap().is_none(),
            "at the limit: wait for bytes"
        );
    }

    #[test]
    fn inconsistent_inner_lengths_are_malformed() {
        // data_len claiming more than the body holds.
        let f = Frame::new(1, 2, 3, vec![0u8; 16]);
        let mut wire = f.encode();
        wire[20..24].copy_from_slice(&(10_000u32).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert!(matches!(dec.next_frame(), Err(NetError::Malformed(_))));

        // Length prefix smaller than the fixed header.
        let mut dec = FrameDecoder::new();
        dec.extend(&7u32.to_le_bytes());
        dec.extend(&[0u8; 7]);
        assert!(matches!(dec.next_frame(), Err(NetError::Malformed(_))));
    }

    /// The failure mode the socket backend maps to `CoreError::ShortRead`:
    /// a peer writes part of a frame onto a real socket and dies.  The
    /// reader must classify the close as mid-frame with exact byte counts.
    #[test]
    fn peer_death_mid_frame_on_a_live_socket_is_classified() {
        let path = std::env::temp_dir().join(format!("tc-corrupt-{}.sock", std::process::id()));
        let listener = Listener::bind(&SocketSpec::Unix(path.clone())).unwrap();
        let writer = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let mut reader = loop {
            if let Some(c) = listener.accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_millis(1));
        };

        let frame = Frame::with_payload(0, 1, 9, vec![4u8; 24], vec![0x5Au8; 512]);
        let wire = frame.encode();
        let cut = wire.len() - 100;
        let mut writer = writer;
        writer.write_all(&wire[..cut]).unwrap();
        drop(writer); // SIGKILL's socket-level signature: EOF mid-frame.

        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match reader.pump_read(&mut got) {
                Ok(()) => {
                    assert!(Instant::now() < deadline, "EOF never surfaced");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => break e,
            }
        };
        match err {
            NetError::PeerClosed {
                mid_frame: true,
                wanted,
                got: have,
            } => {
                assert_eq!(wanted, 100, "bytes the unfinished frame still needs");
                assert_eq!(have, cut, "bytes that did arrive");
            }
            other => panic!("expected mid-frame PeerClosed, got {other:?}"),
        }
        assert!(got.is_empty(), "no partial frame may be delivered");

        // A clean close on a frame boundary, by contrast, is not mid-frame.
        let writer2 = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let mut reader2 = loop {
            if let Some(c) = listener.accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut writer2 = writer2;
        writer2.write_all(&wire).unwrap();
        drop(writer2);
        let mut got2 = Vec::new();
        let err2 = loop {
            match reader2.pump_read(&mut got2) {
                Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => break e,
            }
        };
        assert_eq!(got2.len(), 1, "the whole frame arrived before the close");
        assert!(
            matches!(
                err2,
                NetError::PeerClosed {
                    mid_frame: false,
                    ..
                }
            ),
            "boundary close must be clean, got {err2:?}"
        );
    }
}

#[test]
fn reliable_envelope_corruption_is_contained() {
    // Corrupting the reliability prefix yields garbage seq/ack values (the
    // protocol tolerates those — dedup and retransmission are defensive) or
    // an error; corrupting the inner head must surface as a decode error,
    // not a panic.
    let msg = &sample_messages()[0];
    let head = encode_inline(msg);
    let wrapped = wire::encode_rel_head(9, 4, &head).to_vec();
    let mut rng = SplitMix64::new(0xACE);
    for _ in 0..500 {
        let mut bad = wrapped.clone();
        let byte = rng.below(bad.len() as u64) as usize;
        bad[byte] = rng.next_u64() as u8;
        if let Ok((_seq, _ack, inner)) = wire::decode_rel_head(&Bytes::from(bad)) {
            let _ = decode_inline(&inner);
        }
    }
}
