//! Length-prefixed stream framing for the socket plane.
//!
//! A frame on the wire is
//!
//! ```text
//! [len u32][from u32][to u32][tag u64][data_len u32]  data..  payload..
//!  \------ 4 bytes, not counted in `len` ------/
//! ```
//!
//! where `len = 20 + data_len + payload_len` covers everything after the
//! prefix.  `data` carries the wire-codec head (control body, rel head + op
//! head); `payload` carries the detached scatter-gather payload of the
//! vectored encode path, kept as its own segment so the send side can write
//! it with vectored I/O straight from the refcounted buffer.
//!
//! The decoder enforces [`MAX_FRAME_BYTES`] on the prefix *before* any
//! frame-sized allocation happens, so a corrupt or hostile length header can
//! cost at most the 24 bytes already buffered, never an OOM.

use crate::{NetError, Result};
use tc_ucx::Bytes;

/// Bytes of framing before the variable regions: 4-byte length prefix plus
/// the 20-byte fixed header it counts (`from`, `to`, `tag`, `data_len`).
pub const FRAME_OVERHEAD: usize = 24;

/// Fixed header bytes covered by the length prefix.
const HEAD_BYTES: usize = 20;

/// Upper bound on `len` (everything after the prefix).  Generous next to the
/// largest real frame (an ifunc library of a few hundred KiB) while keeping a
/// corrupted prefix harmless.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// One routed message on a socket link.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Source rank.
    pub from: u32,
    /// Destination rank.
    pub to: u32,
    /// Session-layer tag (the cluster layer defines the namespace).
    pub tag: u64,
    /// Wire-codec head bytes.
    pub data: Bytes,
    /// Detached scatter-gather payload (empty for small frames).
    pub payload: Bytes,
}

impl Frame {
    /// Build a frame with no detached payload.
    pub fn new(from: u32, to: u32, tag: u64, data: impl Into<Bytes>) -> Frame {
        Frame {
            from,
            to,
            tag,
            data: data.into(),
            payload: Bytes::new(),
        }
    }

    /// Build a frame with a detached payload segment.
    pub fn with_payload(
        from: u32,
        to: u32,
        tag: u64,
        data: impl Into<Bytes>,
        payload: impl Into<Bytes>,
    ) -> Frame {
        Frame {
            from,
            to,
            tag,
            data: data.into(),
            payload: payload.into(),
        }
    }

    /// The 24-byte framing header for this frame.
    pub fn header(&self) -> [u8; FRAME_OVERHEAD] {
        let len = (HEAD_BYTES + self.data.len() + self.payload.len()) as u32;
        let mut h = [0u8; FRAME_OVERHEAD];
        h[0..4].copy_from_slice(&len.to_le_bytes());
        h[4..8].copy_from_slice(&self.from.to_le_bytes());
        h[8..12].copy_from_slice(&self.to.to_le_bytes());
        h[12..20].copy_from_slice(&self.tag.to_le_bytes());
        h[20..24].copy_from_slice(&(self.data.len() as u32).to_le_bytes());
        h
    }

    /// Encode to a flat byte vector (tests and small control paths; the hot
    /// path writes header/data/payload as separate vectored segments).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + self.data.len() + self.payload.len());
        out.extend_from_slice(&self.header());
        out.extend_from_slice(self.data.as_slice());
        out.extend_from_slice(self.payload.as_slice());
        out
    }
}

/// Incremental decoder over a byte stream: feed arbitrary chunks with
/// [`extend`](FrameDecoder::extend), pull whole frames with
/// [`next_frame`](FrameDecoder::next_frame).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// A decoder with empty buffers.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw stream bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        // Compact before the buffer grows past the consumed prefix.
        if self.pos > 0 && (self.pos >= 64 * 1024 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed as a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the buffer holds a partial frame (the stream ending here
    /// would be a mid-frame truncation, not a clean close).
    pub fn mid_frame(&self) -> bool {
        self.pending() > 0
    }

    /// How many more bytes the in-progress frame needs, if its length prefix
    /// has arrived.
    pub fn wanted(&self) -> usize {
        let avail = &self.buf[self.pos..];
        if avail.is_empty() {
            return 0;
        }
        if avail.len() < 4 {
            return 4 - avail.len();
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        (4 + len).saturating_sub(avail.len())
    }

    /// Decode the next complete frame, if one is buffered.
    ///
    /// Errors are sticky in practice: a stream that produced `FrameTooLarge`
    /// or `Malformed` has lost sync and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(NetError::FrameTooLarge {
                len,
                max: MAX_FRAME_BYTES,
            });
        }
        if len < HEAD_BYTES {
            return Err(NetError::Malformed(format!(
                "length prefix {len} below the {HEAD_BYTES}-byte fixed header"
            )));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        let from = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
        let to = u32::from_le_bytes([body[4], body[5], body[6], body[7]]);
        let tag = u64::from_le_bytes([
            body[8], body[9], body[10], body[11], body[12], body[13], body[14], body[15],
        ]);
        let data_len = u32::from_le_bytes([body[16], body[17], body[18], body[19]]) as usize;
        if HEAD_BYTES + data_len > len {
            return Err(NetError::Malformed(format!(
                "data_len {data_len} exceeds the frame body ({} bytes)",
                len - HEAD_BYTES
            )));
        }
        // One refcounted copy of the variable region, sliced zero-copy into
        // the two segments.
        let region = Bytes::copy_from_slice(&body[HEAD_BYTES..]);
        let data = region.slice(..data_len);
        let payload = region.slice(data_len..);
        self.pos += 4 + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(Frame {
            from,
            to,
            tag,
            data,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frames: &[Frame], chunk: usize) -> Vec<Frame> {
        let mut stream = Vec::new();
        for f in frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk.max(1)) {
            dec.extend(piece);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert!(!dec.mid_frame(), "stream must end on a frame boundary");
        out
    }

    #[test]
    fn frames_round_trip_across_chunk_sizes() {
        let frames = vec![
            Frame::new(0, 5, 9, vec![1, 2, 3]),
            Frame::with_payload(5, 0, 10, vec![4; 25], vec![7u8; 600]),
            Frame::new(2, 3, 1, Vec::new()),
        ];
        for chunk in [1, 3, 7, 24, 100, 4096] {
            let got = round_trip(&frames, chunk);
            assert_eq!(got.len(), frames.len(), "chunk {chunk}");
            for (a, b) in frames.iter().zip(&got) {
                assert_eq!(a.from, b.from);
                assert_eq!(a.to, b.to);
                assert_eq!(a.tag, b.tag);
                assert_eq!(a.data.as_slice(), b.data.as_slice());
                assert_eq!(a.payload.as_slice(), b.payload.as_slice());
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(u32::MAX).to_le_bytes());
        match dec.next_frame() {
            Err(NetError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn undersized_length_prefix_is_malformed() {
        let mut dec = FrameDecoder::new();
        dec.extend(&4u32.to_le_bytes());
        dec.extend(&[0u8; 4]);
        assert!(matches!(dec.next_frame(), Err(NetError::Malformed(_))));
    }

    #[test]
    fn inconsistent_data_len_is_malformed() {
        let f = Frame::new(1, 2, 3, vec![0u8; 8]);
        let mut wire = f.encode();
        // Claim more data bytes than the frame body holds.
        wire[20..24].copy_from_slice(&1000u32.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert!(matches!(dec.next_frame(), Err(NetError::Malformed(_))));
    }

    #[test]
    fn partial_frames_report_wanted_bytes() {
        let f = Frame::new(1, 2, 3, vec![9u8; 10]);
        let wire = f.encode();
        let mut dec = FrameDecoder::new();
        dec.extend(&wire[..wire.len() - 4]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.mid_frame());
        assert_eq!(dec.wanted(), 4);
        dec.extend(&wire[wire.len() - 4..]);
        assert!(dec.next_frame().unwrap().is_some());
        assert!(!dec.mid_frame());
    }
}
