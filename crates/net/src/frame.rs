//! Length-prefixed frame codec — the **only** sanctioned socket I/O path.
//!
//! Every message on the wire is one frame: a 4-byte big-endian length
//! prefix followed by exactly that many payload bytes. The codec is where
//! the trust boundary's hardening lives:
//!
//! * the length prefix is bounds-checked against [`MAX_FRAME`] **before**
//!   any allocation, so an adversarial or corrupted prefix is a typed
//!   [`ProtocolError::LengthOverflow`], never an allocation bomb;
//! * a short read (peer reset mid-frame, truncated stream) is a typed
//!   transport error recognised by [`tdsql_core::service::is_transport_error`],
//!   so the driver folds it into the fault taxonomy instead of aborting;
//! * encoding refuses payloads over [`MAX_FRAME`] symmetrically, so a
//!   conforming sender can never emit a frame a conforming receiver drops.
//!
//! The `no-raw-socket-write` srclint rule enforces the "only path" part:
//! outside this module, nothing in `tdsql-net` may call `write`/`write_all`
//! on a socket — payloads must pass through [`write_frame`], which is also
//! where byte-level accounting for the obs layer hooks in.

use std::io::{Read, Write};

use tdsql_core::error::{ProtocolError, Result};
use tdsql_core::service::transport_error;

/// Hard cap on one frame's payload length. Generous for the protocols'
/// working sets (a 100k-TDS collection wave ships ~10 MB of 96-byte
/// envelopes) while keeping a hostile length prefix harmless.
pub const MAX_FRAME: usize = 1 << 24; // 16 MiB

/// Length of the frame header (the big-endian `u32` payload length).
pub const HEADER_LEN: usize = 4;

/// Write one frame: length prefix + payload. Refuses oversized payloads
/// with [`ProtocolError::LengthOverflow`] before touching the socket.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(ProtocolError::LengthOverflow {
            what: "net frame",
            len: payload.len(),
            max: MAX_FRAME,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| ProtocolError::LengthOverflow {
        what: "net frame",
        len: payload.len(),
        max: MAX_FRAME,
    })?;
    w.write_all(&len.to_be_bytes()).map_err(transport_error)?;
    w.write_all(payload).map_err(transport_error)?;
    w.flush().map_err(transport_error)?;
    Ok(())
}

/// Read one frame's payload. The length prefix is validated against
/// [`MAX_FRAME`] **before** the payload buffer is allocated; truncated
/// streams surface as transport errors, a cleanly closed connection (EOF
/// at a frame boundary) as `transport: connection closed`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    read_exact(r, &mut header, "frame header")?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::LengthOverflow {
            what: "net frame",
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    read_exact(r, &mut payload, "frame payload")?;
    Ok(payload)
}

/// `Read::read_exact` with transport-typed errors naming the frame part
/// that was cut short.
fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<()> {
    r.read_exact(buf)
        .map_err(|e| transport_error(format!("short read of {what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello frames").unwrap();
        assert_eq!(wire.len(), HEADER_LEN + 12);
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), b"hello frames");
        // Stream exhausted: the next read reports a truncated header.
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating() {
        // A hostile prefix claims u32::MAX bytes; the codec must reject it
        // as a typed LengthOverflow before reserving any buffer.
        let mut wire = Vec::from(u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"junk");
        let mut r = wire.as_slice();
        match read_frame(&mut r) {
            Err(ProtocolError::LengthOverflow { what, len, max }) => {
                assert_eq!(what, "net frame");
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected LengthOverflow, got {other:?}"),
        }
    }

    #[test]
    fn oversized_payload_refused_at_encode() {
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut wire = Vec::new();
        match write_frame(&mut wire, &huge) {
            Err(ProtocolError::LengthOverflow { what, .. }) => assert_eq!(what, "net frame"),
            other => panic!("expected LengthOverflow, got {other:?}"),
        }
        // Nothing reached the wire.
        assert!(wire.is_empty());
    }

    #[test]
    fn fault_plan_corrupted_frames_never_panic() {
        use tdsql_core::bytes::Bytes;
        use tdsql_core::connectivity::FaultPlan;
        use tdsql_core::stats::Phase;

        // Reuse the fault plan's deterministic corruption on the raw
        // framed bytes (header included): every corruption must surface
        // as a typed error or a clean (shorter/garbled) payload — never a
        // panic, hang or allocation bomb.
        let plan = FaultPlan::seeded(11).with_corruption(1.0);
        let mut wire = Vec::new();
        write_frame(&mut wire, b"a modest payload for corruption").unwrap();
        for item in 0..64u64 {
            let corrupted =
                plan.corrupt_blob(&Bytes::from(wire.clone()), Phase::Collection, item, 0);
            let mut r = &corrupted[..];
            match read_frame(&mut r) {
                Ok(payload) => assert!(payload.len() <= MAX_FRAME),
                Err(ProtocolError::LengthOverflow { .. }) => {}
                Err(e) => assert!(
                    tdsql_core::service::is_transport_error(&e),
                    "corrupted frame {item}: unexpected error class: {e:?}"
                ),
            }
        }
    }

    #[test]
    fn truncated_payload_is_a_transport_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"0123456789").unwrap();
        wire.truncate(HEADER_LEN + 4); // cut the payload short
        let mut r = wire.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Transport(m) if m.contains("short read of frame payload")),
            "expected transport error, got {err:?}"
        );
    }
}
