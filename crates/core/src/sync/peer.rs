//! The wire protocol and peer plumbing.
//!
//! A [`BlockSource`] serves inventories and blocks (the Bitcoin
//! `getheaders`/`getdata` pattern, reduced to its essentials); the driver
//! talks to each peer over a pair of channels wrapped in a [`PeerHandle`].
//! Source and destination run on separate threads, so measured sync time
//! includes real hand-off, as in the paper's two-machine setup.
//!
//! Every request carries an id that the source echoes back. The driver
//! discards responses whose id does not match its outstanding request —
//! that is how a reply from a stalled peer, arriving long after the driver
//! gave up on it, is prevented from being mistaken for the answer to a
//! newer request.

use super::wire::WireError;
use ebv_chain::Block;
use ebv_primitives::encode::Encodable;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// Messages from the destination to a source peer.
#[derive(Debug)]
pub enum Request {
    /// Ask for up to `count` blocks starting at `start_height`.
    GetBlocks {
        /// Echoed back in the response; stale replies are dropped by id.
        id: u64,
        start_height: u32,
        count: u32,
    },
    /// Sync finished (or the peer was abandoned); the source may exit.
    Done,
}

/// Messages from a source peer to the destination. Blocks travel
/// serialized, as they would on a wire; the destination pays the decode
/// cost.
#[derive(Debug)]
pub enum Response {
    /// Serialized blocks, in height order.
    Blocks { id: u64, blocks: Vec<Vec<u8>> },
    /// The source has nothing at or above the requested height.
    Exhausted { id: u64 },
}

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

/// The driver's endpoint for one serving peer: the request/response
/// channel pair plus the peer id used in scoring and error reports.
pub struct PeerHandle {
    /// Peer id (unique per driver run; appears in errors and stats).
    pub id: usize,
    req: Sender<Request>,
    resp: Receiver<Response>,
    /// Next request id to stamp.
    next_id: u64,
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

impl PeerHandle {
    /// Spawn a serving thread for `source` and return the driver-side
    /// handle. The thread exits on [`Request::Done`] or when the request
    /// channel closes (the handle is dropped).
    pub fn spawn<S: BlockSource + 'static>(id: usize, mut source: S) -> PeerHandle {
        let (req_tx, req_rx) = channel::<Request>();
        let (resp_tx, resp_rx) = channel::<Response>();
        thread::spawn(move || {
            while let Ok(req) = req_rx.recv() {
                match req {
                    Request::GetBlocks {
                        id,
                        start_height,
                        count,
                    } => {
                        let blocks = source.serve(start_height, count);
                        let msg = if blocks.is_empty() {
                            Response::Exhausted { id }
                        } else {
                            Response::Blocks { id, blocks }
                        };
                        if resp_tx.send(msg).is_err() {
                            return;
                        }
                    }
                    Request::Done => return,
                }
            }
        });
        PeerHandle {
            id,
            req: req_tx,
            resp: resp_rx,
            next_id: 0,
        }
    }

    /// Issue one `GetBlocks` and wait up to `timeout` for the matching
    /// response, draining any stale replies from earlier timed-out
    /// requests along the way.
    pub fn request(&mut self, start_height: u32, count: u32, timeout: Duration) -> RequestOutcome {
        let id = self.next_id;
        self.next_id += 1;
        if self
            .req
            .send(Request::GetBlocks {
                id,
                start_height,
                count,
            })
            .is_err()
        {
            return RequestOutcome::Closed;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return RequestOutcome::TimedOut;
            };
            match self.resp.recv_timeout(remaining) {
                Ok(Response::Blocks { id: rid, blocks }) if rid == id => {
                    return RequestOutcome::Blocks(blocks)
                }
                Ok(Response::Exhausted { id: rid }) if rid == id => {
                    return RequestOutcome::Exhausted
                }
                // Stale reply to a request we already gave up on: drop it.
                Ok(_) => continue,
                Err(RecvTimeoutError::Timeout) => return RequestOutcome::TimedOut,
                Err(RecvTimeoutError::Disconnected) => return RequestOutcome::Closed,
            }
        }
    }

    /// Politely tell the serving thread to exit.
    pub fn finish(&self) {
        let _ = self.req.send(Request::Done);
    }
}

impl Transport for PeerHandle {
    fn id(&self) -> usize {
        self.id
    }

    fn request(&mut self, start_height: u32, count: u32, timeout: Duration) -> RequestOutcome {
        PeerHandle::request(self, start_height, count, timeout)
    }

    fn finish(&mut self) {
        PeerHandle::finish(self);
    }
}

/// Spawn a serving thread for `source` with peer id 0 — the single-peer
/// convenience used with [`sync_single`](super::sync_single).
pub fn spawn_source<S: BlockSource + 'static>(source: S) -> PeerHandle {
    PeerHandle::spawn(0, source)
}
