//! Peer plumbing: the serving side's [`BlockSource`], the driver's
//! [`Transport`], and the in-process [`PeerHandle`].
//!
//! A [`BlockSource`] serves blocks (the Bitcoin `getheaders`/`getdata`
//! pattern, reduced to its essentials); the driver talks to each peer
//! through a [`Transport`]. The in-process [`PeerHandle`] carries the
//! codec's [`WireMessage`]s over a pair of channels to a serving thread,
//! which answers with `reply_to`, as the TCP server does. Source and
//! destination run on separate threads, so measured sync time includes
//! real hand-off, as in the paper's two-machine setup.
//!
//! Every request carries an id that the source echoes back. The driver
//! discards responses whose id does not match its outstanding request —
//! that is how a reply from a stalled peer, arriving long after the driver
//! gave up on it, is prevented from being mistaken for the answer to a
//! newer request.

use super::wire::{WireError, WireMessage, DEFAULT_MAX_FRAME, MAX_BLOCKS_PER_FRAME};
use ebv_chain::Block;
use ebv_primitives::encode::{varint_len, Encodable};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A source that can serve a contiguous range of blocks.
///
/// `serve` takes `&mut self` so that sources may keep per-request state —
/// the fault-injection wrapper advances its schedule on every call.
pub trait BlockSource: Send {
    /// Serialized blocks for heights `[start, start + count)`, fewer if
    /// the chain ends first, empty if `start` is past the tip.
    fn serve(&mut self, start_height: u32, count: u32) -> Vec<Vec<u8>>;
}

impl BlockSource for Vec<crate::tidy::EbvBlock> {
    fn serve(&mut self, start_height: u32, count: u32) -> Vec<Vec<u8>> {
        self.iter()
            .skip(start_height as usize)
            .take(count as usize)
            .map(Encodable::to_bytes)
            .collect()
    }
}

impl BlockSource for Vec<Block> {
    fn serve(&mut self, start_height: u32, count: u32) -> Vec<Vec<u8>> {
        self.iter()
            .skip(start_height as usize)
            .take(count as usize)
            .map(Encodable::to_bytes)
            .collect()
    }
}

/// A serving peer's answer to `GetBlocks { id, start_height, count }`: at
/// most [`MAX_BLOCKS_PER_FRAME`] of `source`'s blocks, cut to the longest
/// prefix whose payload fits `max_frame`, or `Exhausted` if none remain.
/// (With default caps and our block sizes the cut keeps the whole batch;
/// it exists so an honest server never emits a frame its peer must
/// reject.)
pub(crate) fn reply_to<S: BlockSource + ?Sized>(
    source: &mut S,
    id: u64,
    start_height: u32,
    count: u32,
    max_frame: u32,
) -> WireMessage {
    let mut blocks = source.serve(start_height, count.min(MAX_BLOCKS_PER_FRAME as u32));
    let mut size = 8 + varint_len(blocks.len() as u64);
    let keep = blocks
        .iter()
        .take_while(|b| {
            size += varint_len(b.len() as u64) + b.len();
            size <= max_frame as usize
        })
        .count();
    blocks.truncate(keep);
    if blocks.is_empty() {
        WireMessage::Exhausted { id }
    } else {
        WireMessage::Blocks { id, blocks }
    }
}

/// Outcome of one request round-trip against a peer.
#[derive(Debug)]
pub enum RequestOutcome {
    /// The peer served at least one serialized block.
    Blocks(Vec<Vec<u8>>),
    /// The peer has nothing at or above the requested height.
    Exhausted,
    /// No matching response arrived within the timeout.
    TimedOut,
    /// The peer's channel is gone (thread exited or crashed), or the
    /// remote end said goodbye / became undialable.
    Closed,
    /// The peer violated the wire protocol at the byte level — only TCP
    /// transports produce this; in-process channels cannot.
    Wire(WireError),
}

impl RequestOutcome {
    /// What `msg` answers to request `id`; `None` for a stale reply to a
    /// request the driver already gave up on.
    pub(crate) fn of_reply(msg: WireMessage, id: u64) -> Option<RequestOutcome> {
        match msg {
            WireMessage::Blocks { id: rid, blocks } => {
                (rid == id).then_some(RequestOutcome::Blocks(blocks))
            }
            WireMessage::Exhausted { id: rid } => (rid == id).then_some(RequestOutcome::Exhausted),
            // The server is leaving; not a violation.
            WireMessage::Bye => Some(RequestOutcome::Closed),
            other => Some(RequestOutcome::Wire(WireError::UnexpectedMessage {
                expected: "blocks or exhausted",
                got: other.name(),
            })),
        }
    }
}

/// One peer the sync driver can talk to, whatever carries the bytes.
///
/// [`PeerHandle`] implements it over in-process channels;
/// [`TcpPeer`](super::tcp_peer::TcpPeer) over localhost TCP with the
/// framed wire protocol. `sync_multi` is generic over this trait, so the
/// whole scoring/ban/backoff/fork machinery applies to both unchanged.
pub trait Transport {
    /// Peer id (unique per driver run; appears in errors and stats).
    fn id(&self) -> usize;
    /// Issue one block request and wait up to `timeout` for the matching
    /// response (stale replies must be discarded, not surfaced).
    fn request(&mut self, start_height: u32, count: u32, timeout: Duration) -> RequestOutcome;
    /// Politely end the conversation (idempotent).
    fn finish(&mut self);
}

/// The driver's endpoint for one in-process serving peer: the channel
/// pair to its thread plus the peer id used in scoring and error reports.
/// Dropping it ends and joins the thread.
pub struct PeerHandle {
    /// Peer id (unique per driver run; appears in errors and stats).
    pub id: usize,
    req: Sender<WireMessage>,
    resp: Receiver<WireMessage>,
    /// Next request id to stamp.
    next_id: u64,
    thread: Option<JoinHandle<()>>,
}

impl PeerHandle {
    /// Spawn a serving thread for `source` and return the driver-side
    /// handle. The thread exits on `Bye`.
    pub fn spawn<S: BlockSource + 'static>(id: usize, mut source: S) -> PeerHandle {
        let (req_tx, req_rx) = channel::<WireMessage>();
        let (resp_tx, resp_rx) = channel::<WireMessage>();
        let thread = thread::spawn(move || {
            while let Ok(WireMessage::GetBlocks {
                id,
                start_height,
                count,
            }) = req_rx.recv()
            {
                let reply = reply_to(&mut source, id, start_height, count, DEFAULT_MAX_FRAME);
                if resp_tx.send(reply).is_err() {
                    return;
                }
            }
        });
        PeerHandle {
            id,
            req: req_tx,
            resp: resp_rx,
            next_id: 0,
            thread: Some(thread),
        }
    }
}

impl Drop for PeerHandle {
    fn drop(&mut self) {
        self.finish();
        if let Some(thread) = self.thread.take() {
            // A source that panicked has nothing left to serve.
            let _ = thread.join();
        }
    }
}

impl Transport for PeerHandle {
    fn id(&self) -> usize {
        self.id
    }

    /// Issue one `GetBlocks` and wait up to `timeout` for the matching
    /// response, draining any stale replies from earlier timed-out
    /// requests along the way.
    fn request(&mut self, start_height: u32, count: u32, timeout: Duration) -> RequestOutcome {
        let id = self.next_id;
        self.next_id += 1;
        let sent = self.req.send(WireMessage::GetBlocks {
            id,
            start_height,
            count,
        });
        if sent.is_err() {
            return RequestOutcome::Closed;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return RequestOutcome::TimedOut;
            };
            match self.resp.recv_timeout(remaining) {
                Ok(msg) => {
                    if let Some(outcome) = RequestOutcome::of_reply(msg, id) {
                        return outcome;
                    }
                }
                Err(RecvTimeoutError::Timeout) => return RequestOutcome::TimedOut,
                Err(RecvTimeoutError::Disconnected) => return RequestOutcome::Closed,
            }
        }
    }

    /// Politely tell the serving thread to exit.
    fn finish(&mut self) {
        let _ = self.req.send(WireMessage::Bye);
    }
}
