//! Byte-level adversaries for the TCP transport.
//!
//! Where [`super::fault::FaultyPeer`] corrupts *content* (blocks, heights,
//! tips), these adversaries attack the *wire itself*: trickled bytes,
//! absurd length claims, mid-frame disconnects, raw garbage, truncated
//! headers, bad checksums, and pure connection churn. Each maps to exactly
//! one [`WireError`](super::wire::WireError) class on the client, and thus
//! to one reason slug in the ban trace — the fault matrix asserts that
//! mapping end to end.
//!
//! An adversary is a transform of the honest server's reply frames:
//! [`serve_adversary`] runs the one serving loop of
//! [`serve_blocks`](super::tcp_peer::serve_blocks) and hands it each
//! frame to send. Every adversary except [`WireAdversary::Churn`]
//! therefore completes the honest handshake first (real attackers do —
//! the handshake is cheap), then misbehaves on the first data exchange;
//! `Churn` drops each connection before the handshake.

use super::peer::BlockSource;
use super::tcp_peer::{serve, TcpServer, WireConfig};
use super::wire::FRAME_HEADER_LEN;
use ebv_primitives::hash::Hash256;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// One class of byte-level misbehavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireAdversary {
    /// Answers requests with honest bytes at one byte per `interval` —
    /// the frame never completes before the deadline. Client sees
    /// `slow-read`.
    SlowLoris { interval: Duration },
    /// Answers with a header claiming a near-4 GiB payload. Client
    /// rejects at header parse: `frame-too-large`, with no allocation.
    OversizedFrame,
    /// Sends the header and half the payload of an honest reply, then
    /// drops the connection. Client sees `truncated-frame`.
    MidFrameDisconnect,
    /// Completes the handshake, then answers with bytes that are not a
    /// frame at all. Client sees `bad-magic`.
    GarbageAfterHandshake,
    /// Sends only a prefix of the 16-byte frame header, then drops.
    /// Client sees `truncated-frame` at the header boundary.
    FrameTruncation,
    /// Honest frames with the checksum field inverted. Client sees
    /// `checksum-mismatch`.
    BadChecksum,
    /// Accepts and instantly drops every connection. Client sees
    /// `truncated-frame` (or `handshake-timeout`) during the handshake,
    /// every time it re-dials.
    Churn,
}

impl WireAdversary {
    /// Stable label for benches and trace assertions.
    pub fn label(&self) -> &'static str {
        match self {
            WireAdversary::SlowLoris { .. } => "slow-loris",
            WireAdversary::OversizedFrame => "oversized-frame",
            WireAdversary::MidFrameDisconnect => "mid-frame-disconnect",
            WireAdversary::GarbageAfterHandshake => "garbage-after-handshake",
            WireAdversary::FrameTruncation => "frame-truncation",
            WireAdversary::BadChecksum => "bad-checksum",
            WireAdversary::Churn => "churn",
        }
    }

    /// The whole roster, for matrix tests and benches.
    pub fn all(loris_interval: Duration) -> Vec<WireAdversary> {
        vec![
            WireAdversary::SlowLoris {
                interval: loris_interval,
            },
            WireAdversary::OversizedFrame,
            WireAdversary::MidFrameDisconnect,
            WireAdversary::GarbageAfterHandshake,
            WireAdversary::FrameTruncation,
            WireAdversary::BadChecksum,
            WireAdversary::Churn,
        ]
    }

    /// The reason slug the client's ban trace should end with for this
    /// adversary (the error class its bytes produce).
    pub fn expected_slug(&self) -> &'static str {
        match self {
            WireAdversary::SlowLoris { .. } => "slow-read",
            WireAdversary::OversizedFrame => "frame-too-large",
            WireAdversary::MidFrameDisconnect => "truncated-frame",
            WireAdversary::GarbageAfterHandshake => "bad-magic",
            WireAdversary::FrameTruncation => "truncated-frame",
            WireAdversary::BadChecksum => "checksum-mismatch",
            WireAdversary::Churn => "truncated-frame",
        }
    }
}

/// Serve `source` over localhost TCP, playing `adversary` against every
/// connection. `source` supplies the honest replies the adversary
/// corrupts (so its frames are plausible, not trivially absurd).
pub fn serve_adversary<S: BlockSource + 'static>(
    source: S,
    network: Hash256,
    adversary: WireAdversary,
    cfg: WireConfig,
) -> std::io::Result<TcpServer> {
    serve(source, network, cfg, Some(adversary))
}

impl WireAdversary {
    /// Send `frame`, the honest reply to a request, the way this
    /// adversary does. Returns whether the connection stays open.
    pub(crate) fn send(
        self,
        stream: &mut TcpStream,
        mut frame: Vec<u8>,
        stop: &AtomicBool,
    ) -> bool {
        match self {
            WireAdversary::SlowLoris { interval } => drip(stream, &frame, interval, stop),
            WireAdversary::OversizedFrame => {
                frame.truncate(FRAME_HEADER_LEN);
                frame[8..12].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
                write_raw(stream, &frame)
            }
            WireAdversary::MidFrameDisconnect => {
                let payload_len = frame.len() - FRAME_HEADER_LEN;
                let _ = write_raw(stream, &frame[..FRAME_HEADER_LEN + payload_len / 2]);
                false
            }
            WireAdversary::GarbageAfterHandshake => write_raw(stream, &[0xA5; 64]),
            WireAdversary::FrameTruncation => {
                let _ = write_raw(stream, &frame[..7]);
                false
            }
            WireAdversary::BadChecksum => {
                for b in &mut frame[12..16] {
                    *b ^= 0xFF;
                }
                write_raw(stream, &frame)
            }
            // Never handshakes, so it never has a request to answer.
            WireAdversary::Churn => false,
        }
    }
}

/// Write bytes with a bounded budget; `false` means the connection died.
fn write_raw(stream: &mut TcpStream, bytes: &[u8]) -> bool {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    stream.write_all(bytes).and_then(|_| stream.flush()).is_ok()
}

/// One byte per `interval`. Capped at 1 KiB: the client's deadline fires
/// (and penalizes `slow-read`) long before, and an unbounded drip would
/// only stall server shutdown.
fn drip(stream: &mut TcpStream, bytes: &[u8], interval: Duration, stop: &AtomicBool) -> bool {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    for &b in bytes.iter().take(1024) {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        if stream.write_all(&[b]).and_then(|_| stream.flush()).is_err() {
            return false;
        }
        thread::sleep(interval);
    }
    false
}
