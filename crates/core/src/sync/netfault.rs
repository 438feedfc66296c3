//! Byte-level adversary servers for the TCP transport.
//!
//! Where [`super::fault::FaultyPeer`] corrupts *content* (blocks, heights,
//! tips), these servers attack the *wire itself*: trickled bytes, absurd
//! length claims, mid-frame disconnects, raw garbage, truncated headers,
//! bad checksums, and pure connection churn. Each maps to exactly one
//! [`WireError`](super::wire::WireError) class on the client, and thus to
//! one reason slug in the ban trace — the fault matrix asserts that
//! mapping end to end.
//!
//! Every adversary except [`WireAdversary::Churn`] completes an honest
//! handshake first (real attackers do — the handshake is cheap), then
//! misbehaves on the first data exchange. Clock use is deadline/pacing
//! only.

use super::peer::BlockSource;
use super::tcp_peer::{bind_localhost, fit_frame, next_conn, FramedStream, Recv, WireConfig};
use super::wire::{encode_frame, WireMessage, FRAME_HEADER_LEN};
use ebv_primitives::hash::Hash256;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

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

/// Handle for an adversarial listener; dropping it stops the thread.
pub struct AdversarialServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AdversarialServer {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdversarialServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Spawn a server that plays `adversary` against every connection.
/// `source` supplies the honest bytes the adversary corrupts (so its
/// frames are plausible, not trivially absurd).
pub fn serve_adversary<S: BlockSource + 'static>(
    source: S,
    network: Hash256,
    adversary: WireAdversary,
    cfg: WireConfig,
) -> std::io::Result<AdversarialServer> {
    let (listener, addr, stop) = bind_localhost()?;
    let stop2 = Arc::clone(&stop);
    let thread = thread::Builder::new()
        .name(format!("wire-adv-{}", adversary.label()))
        .spawn(move || {
            let mut source = source;
            while let Some(stream) = next_conn(&listener, &stop2) {
                adversarial_conn(stream, &mut source, network, adversary, &cfg, &stop2);
            }
        })?;
    Ok(AdversarialServer {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn adversarial_conn<S: BlockSource>(
    stream: TcpStream,
    source: &mut S,
    network: Hash256,
    adversary: WireAdversary,
    cfg: &WireConfig,
    stop: &AtomicBool,
) {
    if adversary == WireAdversary::Churn {
        // Drop on the floor; the client pays a dial + handshake each time.
        return;
    }
    let mut fs = FramedStream::new(stream, *cfg);
    match fs.recv(Instant::now() + cfg.handshake_timeout) {
        Ok(Recv::Msg(WireMessage::Hello { .. })) => {}
        _ => return,
    }
    if fs
        .send(&WireMessage::Hello {
            network,
            start_height: 0,
        })
        .is_err()
    {
        return;
    }
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let (id, start_height, count) = match fs.recv_request(Instant::now() + cfg.idle_step) {
            Ok(Recv::Idle) => continue,
            Ok(Recv::Msg(WireMessage::GetBlocks {
                id,
                start_height,
                count,
            })) => (id, start_height, count),
            _ => return,
        };
        // The honest reply this request deserved, as raw frame bytes.
        let blocks = fit_frame(source.serve(start_height, count), cfg.max_frame);
        let reply = if blocks.is_empty() {
            WireMessage::Exhausted { id }
        } else {
            WireMessage::Blocks { id, blocks }
        };
        let frame = encode_frame(&reply);
        let keep_conn = match adversary {
            WireAdversary::SlowLoris { interval } => drip(fs.stream_mut(), &frame, interval, stop),
            WireAdversary::OversizedFrame => {
                let mut f = frame;
                f.truncate(FRAME_HEADER_LEN);
                f[8..12].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
                write_raw(fs.stream_mut(), &f)
            }
            WireAdversary::MidFrameDisconnect => {
                let payload_len = frame.len() - FRAME_HEADER_LEN;
                let cut = FRAME_HEADER_LEN + payload_len / 2;
                let _ = write_raw(fs.stream_mut(), &frame[..cut]);
                false
            }
            WireAdversary::GarbageAfterHandshake => write_raw(fs.stream_mut(), &[0xA5; 64]),
            WireAdversary::FrameTruncation => {
                let _ = write_raw(fs.stream_mut(), &frame[..7]);
                false
            }
            WireAdversary::BadChecksum => {
                let mut f = frame;
                for b in &mut f[12..16] {
                    *b ^= 0xFF;
                }
                write_raw(fs.stream_mut(), &f)
            }
            WireAdversary::Churn => unreachable!("handled before the handshake"),
        };
        if !keep_conn {
            return;
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
