//! Ifunc message frames.
//!
//! The wire layout follows Figures 2 and 3 of the paper: a fixed HEADER, the
//! user PAYLOAD, a MAGIC delimiter, then the code section (BINARY for binary
//! ifuncs, BITCODE + DEPS for bitcode ifuncs) and a trailing MAGIC.  The
//! caching protocol exploits the layout: the frame is always *constructed* in
//! full, but when the sender knows the target has already registered this
//! ifunc type it simply transmits a prefix of the frame that stops after the
//! first MAGIC — "we control what to send by simply passing different message
//! size arguments to the UCP PUT interface".  The receiver decides how to
//! interpret what arrived by checking its own registration table, not by
//! trusting the sender.
//!
//! A full frame is sent as two views with an unchanged wire image: the
//! message's HEADER | PAYLOAD | MAGIC head, and the CODE | DEPS | MAGIC tail
//! that the toolchain built once per library ([`encode_tail`]), so no send
//! copies code.  `head ‖ tail` is byte for byte the one-buffer
//! [`MessageFrame::encode_full`], and the receiver parses either form.

use crate::error::{CoreError, Result};
use std::convert::Infallible;
use std::ops::Range;
use tc_ucx::bytes::put;
use tc_ucx::Bytes;

/// The MAGIC delimiter bytes (one before the code section, one after it).
pub const FRAME_MAGIC: [u8; 4] = *b"3CMG";
/// Frame format version.
pub const FRAME_VERSION: u8 = 2;

/// Code representation carried by a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRepr {
    /// LLVM-bitcode-analogue (fat-bitcode archive).
    Bitcode,
    /// Pre-compiled machine code (ELF-like object).
    Binary,
}

impl CodeRepr {
    /// Stable tag for serialization: its position in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`CodeRepr::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::Bitcode, Self::Binary].get(usize::from(tag)).copied()
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CodeRepr::Bitcode => "bitcode",
            CodeRepr::Binary => "binary",
        }
    }
}

/// A fully materialised ifunc message frame.
///
/// The user creates one per logical message; it is never modified by sending
/// (so it can be re-sent to other endpoints), and the caching layer chooses
/// how much of its encoding actually travels.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageFrame {
    /// Ifunc library name (the registration key).
    pub ifunc_name: String,
    /// Code representation of the code section.
    pub repr: CodeRepr,
    /// User payload handed to the ifunc entry function on the target.
    pub payload: Bytes,
    /// Encoded code section (fat-bitcode archive or binary object bytes).
    /// A shared view: constructing frames from a library or a received
    /// frame copies nothing.
    pub code: Bytes,
    /// Shared-library dependency names (bitcode frames only; binary objects
    /// embed their own dependency list).
    pub deps: Vec<String>,
}

impl MessageFrame {
    /// Construct a frame.
    pub fn new(
        ifunc_name: impl Into<String>,
        repr: CodeRepr,
        payload: impl Into<Bytes>,
        code: impl Into<Bytes>,
        deps: Vec<String>,
    ) -> Self {
        MessageFrame {
            ifunc_name: ifunc_name.into(),
            repr,
            payload: payload.into(),
            code: code.into(),
            deps,
        }
    }

    /// Encode the *full* frame into a buffer of this thread's encode pool:
    /// HEADER | PAYLOAD | MAGIC | CODE | DEPS | MAGIC.
    pub fn encode_full(&self) -> Bytes {
        self.encode(true)
    }

    /// Encode the *truncated* frame into a buffer of this thread's encode
    /// pool: everything up to and including the first MAGIC — sent when the
    /// target has already cached this ifunc type, so the code section and
    /// trailer are elided.
    pub fn encode_truncated(&self) -> Bytes {
        self.encode(false)
    }

    fn encode(&self, full: bool) -> Bytes {
        let payload = &self.payload;
        let copy = |out: &mut [u8]| {
            out.copy_from_slice(payload);
            Ok::<_, Infallible>(())
        };
        let (name, code, deps) = (&*self.ifunc_name, &self.code[..], &self.deps[..]);
        let head = (name, self.repr, code.len(), deps.len());
        let tail = full.then_some((code, deps));
        let Ok(bytes) = encode_frame(head, payload.len(), copy, tail);
        bytes
    }

    /// Size in bytes of the full encoding (computed, not materialised).
    pub fn full_size(&self) -> usize {
        self.truncated_size() + self.code.len() + deps_size(&self.deps)
    }

    /// Size in bytes of the truncated encoding (computed, not materialised).
    pub fn truncated_size(&self) -> usize {
        truncated_size(&self.ifunc_name, &self.payload)
    }

    /// Decode a frame from a borrowed slice.  The payload and code of the
    /// returned [`DecodedFrame`] are views of one copy of `bytes`; prefer
    /// [`MessageFrame::decode_view`] on the receive path, which borrows
    /// sub-views of the shared buffer and copies nothing.
    pub fn decode(bytes: &[u8]) -> Result<DecodedFrame> {
        Self::decode_view(&Bytes::copy_from_slice(bytes))
    }

    /// Decode a frame as zero-copy views into a shared receive buffer: the
    /// payload and code sections of the result alias `bytes`' allocation.
    pub fn decode_view(bytes: &Bytes) -> Result<DecodedFrame> {
        Self::decode_views(bytes, &Bytes::new())
    }

    /// [`MessageFrame::decode_view`] of a frame that arrived as its head and,
    /// for a full frame sent as two views, its tail (empty when the frame
    /// arrived in one buffer).
    pub fn decode_views(head: &Bytes, tail: &Bytes) -> Result<DecodedFrame> {
        let view = FrameView::parse(head, tail)?;
        Ok(DecodedFrame {
            ifunc_name: view.ifunc_name.to_string(),
            repr: view.repr,
            payload: head.slice(view.payload.clone()),
            code: view.code.clone().map(|r| view.tail(head, tail).slice(r)),
            deps: view.deps.iter().map(|d| d.to_string()).collect(),
        })
    }
}

/// Size of a truncated frame: version + repr + name len + name + payload
/// len + code len + deps count, the payload, the MAGIC.
fn truncated_size(name: &str, payload: &[u8]) -> usize {
    header_size(name) + payload.len() + FRAME_MAGIC.len()
}

fn header_size(name: &str) -> usize {
    1 + 1 + 2 + name.len() + 4 + 4 + 2
}

/// Bytes of a tail behind its code: each dependency's length and name, the
/// trailing MAGIC.
fn deps_size(deps: &[String]) -> usize {
    deps.iter().map(|d| 2 + d.len()).sum::<usize>() + FRAME_MAGIC.len()
}

/// Write DEPS | MAGIC, the end of a tail, to the front of `out`.
fn put_deps(out: &mut &mut [u8], deps: &[String]) {
    for d in deps {
        put(out, &(d.len() as u16).to_le_bytes());
        put(out, d.as_bytes());
    }
    put(out, &FRAME_MAGIC);
}

/// A full frame's tail, CODE | DEPS | MAGIC, written behind `code` in a
/// buffer of its own: built once per library and code representation, and
/// shared by every full send of it.  The code section is its first
/// `code.len()` bytes.
pub(crate) fn encode_tail(mut code: Vec<u8>, deps: &[String]) -> Bytes {
    let at = code.len();
    code.resize(at + deps_size(deps), 0);
    put_deps(&mut &mut code[at..], deps);
    Bytes::from(code)
}

/// What a frame's head says besides its payload: the ifunc's name, the
/// representation of its code, the code section's length and the number of
/// dependencies.
pub(crate) type FrameHead<'a> = (&'a str, CodeRepr, usize, usize);

/// The one frame encoder, into a buffer of this thread's encode pool:
/// HEADER | PAYLOAD | MAGIC, and CODE | DEPS | MAGIC behind it when `tail`
/// gives the code and the dependencies.  `payload` writes the frame's
/// `payload_len` payload bytes into the slice it is handed — copied from a
/// message, or read straight out of an executing ifunc's memory by a
/// forward.  The length fields are as wide as the wire format makes them;
/// the toolchain refuses names and dependency lists that do not fit
/// ([`crate::ifunc::build_ifunc_library`]), and a forward refuses a payload
/// that does not.
pub(crate) fn encode_frame<E>(
    (name, repr, code_len, deps_count): FrameHead<'_>,
    payload_len: usize,
    payload: impl FnOnce(&mut [u8]) -> std::result::Result<(), E>,
    tail: Option<(&[u8], &[String])>,
) -> std::result::Result<Bytes, E> {
    let tail_size = tail.map_or(0, |(code, deps)| code.len() + deps_size(deps));
    let size = header_size(name) + payload_len + FRAME_MAGIC.len() + tail_size;
    tc_ucx::bytes::with_pool(|pool| {
        pool.fill(size, |mut out| {
            put(&mut out, &[FRAME_VERSION, repr.tag()]);
            put(&mut out, &(name.len() as u16).to_le_bytes());
            put(&mut out, name.as_bytes());
            put(&mut out, &(payload_len as u32).to_le_bytes());
            put(&mut out, &(code_len as u32).to_le_bytes());
            put(&mut out, &(deps_count as u16).to_le_bytes());
            let (body, mut rest) = out.split_at_mut(payload_len);
            payload(body)?;
            put(&mut rest, &FRAME_MAGIC);
            if let Some((code, deps)) = tail {
                put(&mut rest, code);
                put_deps(&mut rest, deps);
            }
            Ok(())
        })
    })
}

/// One encoded frame parsed in place: names borrowed from the buffers, byte
/// ranges for the bulk sections.  Parsing allocates nothing for a truncated
/// frame; [`MessageFrame::decode`] and [`MessageFrame::decode_views`] are
/// thin wrappers over it.
#[derive(Debug)]
pub(crate) struct FrameView<'a> {
    pub(crate) ifunc_name: &'a str,
    pub(crate) repr: CodeRepr,
    /// The payload's range in the head.
    pub(crate) payload: Range<usize>,
    /// Where the head ends: a frame in one buffer has its tail behind it.
    head_len: usize,
    /// The code section's range in the tail; `None` when the sender elided
    /// the tail (cached path).
    pub(crate) code: Option<Range<usize>>,
    pub(crate) deps: Vec<&'a str>,
}

/// A checked cursor over one buffer of a frame; `base` is where the buffer
/// starts in the frame, so an error names the same offset in either form.
struct Cut<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Cut<'a> {
    fn at(buf: &'a [u8], base: usize) -> Self {
        Cut { buf, pos: 0, base }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end));
        let at = self.base + self.pos;
        let s = s.ok_or_else(|| {
            CoreError::Frame(format!("truncated header: need {n} bytes at offset {at}"))
        })?;
        self.pos += n;
        Ok(s)
    }

    /// A little-endian length field of `n` bytes.
    fn uint(&mut self, n: usize) -> Result<usize> {
        Ok(self
            .take(n)?
            .iter()
            .rev()
            .fold(0, |v, &b| v << 8 | usize::from(b)))
    }
}

impl<'a> FrameView<'a> {
    /// Parse a frame that arrived in one buffer (`tail` empty), or as a head
    /// and the tail of a full frame sent as two views.
    pub(crate) fn parse(bytes: &'a [u8], tail: &'a [u8]) -> Result<FrameView<'a>> {
        let r = &mut Cut::at(bytes, 0);
        let version = r.take(1)?[0];
        if version != FRAME_VERSION {
            return Err(CoreError::Frame(format!(
                "unsupported frame version {version}"
            )));
        }
        let repr_tag = r.take(1)?[0];
        let repr = CodeRepr::from_tag(repr_tag)
            .ok_or_else(|| CoreError::Frame(format!("bad code representation tag {repr_tag}")))?;
        let name_len = r.uint(2)?;
        let ifunc_name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| CoreError::Frame("ifunc name is not UTF-8".into()))?;
        let (payload_len, code_len, deps_count) = (r.uint(4)?, r.uint(4)?, r.uint(2)?);
        let payload_start = r.pos;
        r.take(payload_len)?;
        let payload = payload_start..r.pos;
        if r.take(4)? != FRAME_MAGIC {
            return Err(CoreError::Frame(
                "missing payload/code MAGIC delimiter".into(),
            ));
        }
        let head_len = r.pos;
        let mut view = FrameView {
            ifunc_name,
            repr,
            payload,
            head_len,
            code: None,
            deps: Vec::new(),
        };
        let tail = match tail.is_empty() {
            true => &bytes[head_len..],
            false if head_len == bytes.len() => tail,
            false => return Err(CoreError::Frame("a split frame's head is too long".into())),
        };
        if tail.is_empty() {
            // Truncated frame: code section elided by the sender-side cache.
            return Ok(view);
        }

        let r = &mut Cut::at(tail, head_len);
        r.take(code_len)?;
        view.code = Some(0..code_len);
        view.deps.reserve_exact(deps_count);
        for _ in 0..deps_count {
            let dlen = r.uint(2)?;
            let dep = std::str::from_utf8(r.take(dlen)?)
                .map_err(|_| CoreError::Frame("dependency name is not UTF-8".into()))?;
            view.deps.push(dep);
        }
        if r.take(4)? != FRAME_MAGIC {
            return Err(CoreError::Frame("missing trailer MAGIC delimiter".into()));
        }
        if r.pos != tail.len() {
            return Err(CoreError::Frame(format!(
                "{} trailing bytes after trailer MAGIC",
                tail.len() - r.pos
            )));
        }
        Ok(view)
    }

    /// The frame's tail as a shared view: the rest of `bytes` for a frame in
    /// one buffer, else `tail` itself.
    pub(crate) fn tail(&self, bytes: &Bytes, tail: &Bytes) -> Bytes {
        match tail.is_empty() {
            true => bytes.slice(self.head_len..),
            false => tail.clone(),
        }
    }
}

/// A decoded frame as seen by the receiver.  Produced by
/// [`MessageFrame::decode_view`] its bulk sections are zero-copy views of
/// the receive buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// Ifunc library name.
    pub ifunc_name: String,
    /// Code representation.
    pub repr: CodeRepr,
    /// User payload.
    pub payload: Bytes,
    /// Code section bytes; `None` when the sender elided them (cached path).
    pub code: Option<Bytes>,
    /// Dependency names (empty for truncated frames).
    pub deps: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> MessageFrame {
        MessageFrame::new(
            "tsi",
            CodeRepr::Bitcode,
            vec![1],
            vec![0xAB; 5000],
            vec!["libc.so".to_string(), "libm.so".to_string()],
        )
    }

    #[test]
    fn full_roundtrip() {
        let f = frame();
        let decoded = MessageFrame::decode(&f.encode_full()).unwrap();
        assert_eq!(decoded.ifunc_name, "tsi");
        assert_eq!(decoded.repr, CodeRepr::Bitcode);
        assert_eq!(decoded.payload, vec![1]);
        assert_eq!(decoded.code.as_deref(), Some(&[0xABu8; 5000][..]));
        assert_eq!(decoded.deps.len(), 2);
        assert!(decoded.code.is_some());
    }

    #[test]
    fn truncated_roundtrip() {
        let f = frame();
        let decoded = MessageFrame::decode(&f.encode_truncated()).unwrap();
        assert!(decoded.code.is_none());
        assert_eq!(decoded.payload, vec![1]);
        assert!(decoded.deps.is_empty());
    }

    #[test]
    fn truncated_is_dramatically_smaller() {
        // Paper: 26 bytes cached vs 5185 bytes uncached for the TSI ifunc.
        let f = frame();
        assert!(f.truncated_size() < 64);
        assert!(f.full_size() > 5000);
        assert!(f.full_size() > f.truncated_size() * 50);
    }

    #[test]
    fn truncated_size_close_to_paper_for_one_byte_payload() {
        // Header (1+1+2+3 name) + lens (4+4+2) + payload (1) + magic (4) = 22
        // for a 3-character name — the same order as the paper's 26 bytes.
        let f = MessageFrame::new("tsi", CodeRepr::Bitcode, vec![7], vec![0; 5159], vec![]);
        let sz = f.truncated_size();
        assert!((20..=34).contains(&sz), "truncated size {sz}");
    }

    #[test]
    fn corrupt_magic_rejected() {
        let f = frame();
        let mut bytes = f.encode_full().to_vec();
        // Find and damage the first MAGIC (right after header+payload).
        let hdr = f.truncated_size();
        bytes[hdr - 1] ^= 0xff;
        assert!(MessageFrame::decode(&bytes).is_err());
    }

    #[test]
    fn bad_version_and_repr_rejected() {
        let f = frame();
        let mut bytes = f.encode_full().to_vec();
        bytes[0] = 99;
        assert!(MessageFrame::decode(&bytes).is_err());

        let mut bytes = f.encode_full().to_vec();
        bytes[1] = 9;
        assert!(MessageFrame::decode(&bytes).is_err());
    }

    #[test]
    fn truncation_in_the_middle_rejected() {
        let f = frame();
        let bytes = f.encode_full();
        // Anything between the truncated length and the full length is a
        // malformed frame (decode must not panic and must error).
        for cut in [
            f.truncated_size() + 1,
            f.truncated_size() + 100,
            bytes.len() - 1,
        ] {
            assert!(MessageFrame::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let f = frame();
        let mut bytes = f.encode_full().to_vec();
        bytes.push(0);
        assert!(MessageFrame::decode(&bytes).is_err());
    }

    #[test]
    fn decode_view_borrows_payload_and_code_zero_copy() {
        let f = frame();
        let encoded = f.encode_full();
        let decoded = MessageFrame::decode_view(&encoded).unwrap();
        assert!(decoded.payload.shares_storage(&encoded));
        assert!(decoded.code.as_ref().unwrap().shares_storage(&encoded));
        assert_eq!(decoded.payload, f.payload);
        assert_eq!(decoded.code.as_ref().unwrap(), &f.code);

        let truncated = f.encode_truncated();
        let decoded = MessageFrame::decode_view(&truncated).unwrap();
        assert!(decoded.code.is_none());
        assert!(decoded.payload.shares_storage(&truncated));
    }

    #[test]
    fn computed_sizes_match_encodings() {
        let f = frame();
        assert_eq!(f.full_size(), f.encode_full().len());
        assert_eq!(f.truncated_size(), f.encode_truncated().len());
    }

    #[test]
    fn binary_repr_frames_work_too() {
        let f = MessageFrame::new(
            "two_chains",
            CodeRepr::Binary,
            vec![9; 16],
            vec![1; 75],
            vec![],
        );
        let decoded = MessageFrame::decode(&f.encode_full()).unwrap();
        assert_eq!(decoded.repr, CodeRepr::Binary);
        assert_eq!(decoded.code.unwrap().len(), 75);
    }

    #[test]
    fn empty_payload_and_empty_code_frames() {
        let f = MessageFrame::new("noop", CodeRepr::Bitcode, vec![], vec![], vec![]);
        let full = MessageFrame::decode(&f.encode_full()).unwrap();
        assert!(full.code.is_some());
        assert_eq!(full.code.unwrap().len(), 0);
        let trunc = MessageFrame::decode(&f.encode_truncated()).unwrap();
        assert!(trunc.code.is_none());
    }

    /// The wire format written out longhand, as Figures 2 and 3 give it:
    /// what every encoder here must reproduce byte for byte.
    fn reference_encoding(f: &MessageFrame, full: bool) -> Vec<u8> {
        let mut out = vec![FRAME_VERSION, f.repr.tag()];
        out.extend_from_slice(&(f.ifunc_name.len() as u16).to_le_bytes());
        out.extend_from_slice(f.ifunc_name.as_bytes());
        out.extend_from_slice(&(f.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&(f.code.len() as u32).to_le_bytes());
        out.extend_from_slice(&(f.deps.len() as u16).to_le_bytes());
        out.extend_from_slice(&f.payload);
        out.extend_from_slice(&FRAME_MAGIC);
        if full {
            out.extend_from_slice(&f.code);
            for d in &f.deps {
                out.extend_from_slice(&(d.len() as u16).to_le_bytes());
                out.extend_from_slice(d.as_bytes());
            }
            out.extend_from_slice(&FRAME_MAGIC);
        }
        out
    }

    fn seeded_frame(rng: &mut tc_simnet::SplitMix64) -> MessageFrame {
        let mut ident = |max: u64| -> String {
            (0..rng.below(max + 1))
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect()
        };
        let name = ident(40);
        let deps = (0..ident(3).len()).map(|_| ident(12)).collect();
        let mut bytes = |max: u64| -> Vec<u8> {
            (0..rng.below(max + 1))
                .map(|_| rng.next_u64() as u8)
                .collect()
        };
        let (payload, code) = (bytes(96), bytes(600));
        let repr = [CodeRepr::Bitcode, CodeRepr::Binary][rng.below(2) as usize];
        MessageFrame::new(name, repr, payload, code, deps)
    }

    /// Over 256 seeded frames: the by-value encoders and the encoder that
    /// writes a frame straight from its parts all produce the
    /// reference bytes, and the borrowed parse agrees with the owned decoders
    /// field for field.
    #[test]
    fn encoders_and_borrowed_parse_agree_with_the_reference_over_seeded_frames() {
        let mut rng = tc_simnet::SplitMix64::new(0xF4A3_E5ED);
        for case in 0..256 {
            let f = seeded_frame(&mut rng);
            let full = f.encode_full();
            let truncated = f.encode_truncated();
            assert_eq!(full, reference_encoding(&f, true), "case {case}");
            assert_eq!(truncated, reference_encoding(&f, false), "case {case}");
            for (whole, expected) in [(true, &full), (false, &truncated)] {
                let head = (&*f.ifunc_name, f.repr, f.code.len(), f.deps.len());
                let read = |out: &mut [u8]| {
                    out.copy_from_slice(&f.payload);
                    Ok::<_, ()>(())
                };
                let tail = whole.then_some((&f.code[..], &f.deps[..]));
                let direct = encode_frame(head, f.payload.len(), read, tail).unwrap();
                assert_eq!(direct, *expected, "case {case}");
            }
            // The two views of a full frame: the truncated encoding and the
            // tail, whose concatenation is the full encoding, decode to it.
            let tail = encode_tail(f.code.to_vec(), &f.deps);
            assert_eq!(full[truncated.len()..], tail[..], "case {case}");
            let split = MessageFrame::decode_views(&truncated, &tail).unwrap();
            assert_eq!(split, MessageFrame::decode(&full).unwrap(), "case {case}");
            assert!(split.code.as_ref().unwrap().shares_storage(&tail));

            for (bytes, has_code) in [(&full, true), (&truncated, false)] {
                let view = FrameView::parse(bytes, &[]).unwrap();
                let owned = MessageFrame::decode(bytes).unwrap();
                assert_eq!(owned, MessageFrame::decode_view(bytes).unwrap());
                assert_eq!(view.ifunc_name, owned.ifunc_name);
                assert_eq!(view.ifunc_name, f.ifunc_name);
                assert_eq!(view.repr, owned.repr);
                assert_eq!(bytes[view.payload.clone()], *owned.payload);
                assert_eq!(owned.payload, f.payload);
                assert_eq!(view.code.is_some(), has_code);
                let tail = &bytes[truncated.len()..];
                assert_eq!(
                    view.code.clone().map(|r| &tail[r]),
                    owned.code.as_deref(),
                    "case {case}"
                );
                assert_eq!(view.deps, owned.deps);
                if has_code {
                    assert_eq!(owned.code.as_ref(), Some(&f.code));
                    assert_eq!(owned.deps, f.deps);
                }
            }
        }
    }

    /// Every class of hostile input gets the same typed error from the
    /// borrowed parse and from both owned decoders — the checks of the
    /// receive path, each pinned by its message.
    #[test]
    fn hostile_frames_get_the_same_typed_error_from_every_decoder() {
        let f = frame();
        let full = f.encode_full().to_vec();
        let name_at = 4;
        let edit = |at: usize, byte: u8| {
            let mut bad = full.clone();
            bad[at] = byte;
            bad
        };
        let mut trailing = full.clone();
        trailing.extend_from_slice(&[0, 0, 0]);
        let cases: [(&str, Vec<u8>, &str); 8] = [
            ("version", edit(0, 99), "unsupported frame version 99"),
            ("repr tag", edit(1, 9), "bad code representation tag 9"),
            (
                "short header",
                full[..3].to_vec(),
                "truncated header: need 2 bytes at offset 2",
            ),
            (
                "empty",
                Vec::new(),
                "truncated header: need 1 bytes at offset 0",
            ),
            (
                "missing MAGIC",
                edit(f.truncated_size() - 1, 0),
                "missing payload/code MAGIC delimiter",
            ),
            (
                "non-UTF-8 name",
                edit(name_at, 0xFF),
                "ifunc name is not UTF-8",
            ),
            (
                "missing trailer",
                edit(full.len() - 1, 0),
                "missing trailer MAGIC delimiter",
            ),
            (
                "trailing bytes",
                trailing,
                "3 trailing bytes after trailer MAGIC",
            ),
        ];
        for (what, bad, message) in cases {
            let expected = CoreError::Frame(message.to_string());
            assert_eq!(FrameView::parse(&bad, &[]).unwrap_err(), expected, "{what}");
            assert_eq!(MessageFrame::decode(&bad).unwrap_err(), expected, "{what}");
            assert_eq!(
                MessageFrame::decode_view(&Bytes::from(bad)).unwrap_err(),
                expected,
                "{what}"
            );
        }
    }
}
