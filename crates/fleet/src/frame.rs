//! The fleet wire framing: `[kind u8][len u32 LE][payload]`.
//!
//! Deliberately minimal — the interesting structure lives in the
//! payloads ([`crate::msg`]) and the telemetry lines riding
//! [`FrameKind::Snap`] frames, which are verbatim `tn-telemetry/1`
//! snapshot lines (the fleet reuses the existing snapshot schema as its
//! heartbeat rather than inventing a second health wire format). The
//! framing layer only answers "where does one message end?" over a byte
//! stream (TCP socket or in-memory pipe).

use std::io::{self, Read, Write};

/// Refuse frames larger than this (16 MiB): a corrupt or hostile length
/// prefix must not trigger an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// What a frame's payload means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Shard → router, once at connection start: the shard's identity
    /// and serving shape (`tn-fleet/2` handshake).
    Hello = 1,
    /// Router → shard: one classify request.
    Req = 2,
    /// Shard → router: a served answer.
    Resp = 3,
    /// Shard → router: a request-level error.
    Err = 4,
    /// Shard → router: one `tn-telemetry/1` snapshot line, verbatim.
    /// Doubles as the fleet heartbeat.
    Snap = 5,
    /// Router → shard: a control action (rescale, shutdown).
    Ctrl = 6,
    /// Shard → router: acknowledgement of a [`FrameKind::Ctrl`] frame.
    Ack = 7,
}

impl FrameKind {
    /// Decode a wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => Self::Hello,
            2 => Self::Req,
            3 => Self::Resp,
            4 => Self::Err,
            5 => Self::Snap,
            6 => Self::Ctrl,
            7 => Self::Ack,
            _ => return None,
        })
    }
}

/// Write one frame. The 5-byte header and the payload go out together
/// in one `write_all`, so a blocked reader wakes once per frame rather
/// than once for the header and again for the payload; callers serialize
/// whole-frame writes (the fleet holds a per-connection write lock) so
/// frames never interleave.
pub fn write_frame(
    w: &mut (impl Write + ?Sized),
    kind: FrameKind,
    payload: &[u8],
) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds {MAX_FRAME_LEN}", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(kind as u8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// `UnexpectedEof` for a connection cut mid-frame, `InvalidData` for an
/// unknown kind byte or an over-limit length prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(FrameKind, Vec<u8>)>> {
    let mut header = [0u8; 5];
    // Distinguish EOF-before-any-byte (clean close) from EOF mid-header.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame-header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let kind = FrameKind::from_byte(header[0]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame kind byte {}", header[0]),
        )
    })?;
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some((kind, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Hello, b"{\"a\":1}").expect("write");
        write_frame(&mut buf, FrameKind::Snap, b"").expect("write empty payload");
        write_frame(&mut buf, FrameKind::Resp, &[0xFF; 300]).expect("write binary");
        let mut r = &buf[..];
        let (k, p) = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!((k, p.as_slice()), (FrameKind::Hello, &b"{\"a\":1}"[..]));
        let (k, p) = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!((k, p.len()), (FrameKind::Snap, 0));
        let (k, p) = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!((k, p.len()), (FrameKind::Resp, 300));
        assert!(read_frame(&mut r).expect("clean eof").is_none());
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Req, b"0123456789").expect("write");
        // Cut inside the header, then inside the payload.
        for cut in [3, 8] {
            let mut r = &buf[..cut];
            let err = read_frame(&mut r).expect_err("truncated frame");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn hostile_lengths_and_kinds_are_rejected() {
        // Unknown kind byte.
        let mut r = &[99u8, 0, 0, 0, 0][..];
        assert_eq!(
            read_frame(&mut r).expect_err("bad kind").kind(),
            io::ErrorKind::InvalidData
        );
        // Length prefix claiming 4 GiB must fail before allocating.
        let mut r = &[1u8, 0xFF, 0xFF, 0xFF, 0xFF][..];
        assert_eq!(
            read_frame(&mut r).expect_err("oversized").kind(),
            io::ErrorKind::InvalidData
        );
        // Writer enforces the same cap.
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(&mut Vec::new(), FrameKind::Req, &big).is_err());
    }
}
