//! Localhost TCP transport for the sync subsystem.
//!
//! Three pieces:
//!
//! * [`FramedStream`] — a `TcpStream` wrapped in the frame codec from
//!   [`super::wire`], with per-read deadlines: every socket read gets a
//!   budget, a frame that trickles past its deadline is a
//!   [`WireError::SlowRead`], and payload buffers grow only as bytes
//!   actually arrive (see [`PayloadBuf`]);
//! * [`TcpPeer`] — the driver-side [`Transport`]: lazy dial + versioned
//!   `Hello` handshake (network = genesis hash), request/response with
//!   stale-reply rejection by id, and automatic reconnect after a
//!   connection is poisoned by a protocol violation — so a misbehaving
//!   peer keeps accumulating score until the driver bans it, exactly like
//!   an address-level ban in a real node;
//! * [`serve_blocks`] / [`TcpServer`] — the serving side: one listener
//!   thread per peer, sequential connections, honest framing over any
//!   [`BlockSource`] (wrap the source in
//!   [`FaultyPeer`](super::fault::FaultyPeer) for content-level faults
//!   over a real wire). The same loop serves the byte-level adversaries
//!   of [`super::netfault`], which only change how a reply frame is
//!   sent.
//!
//! Clock use here is for *deadlines* (scheduling), not measurement;
//! latency histograms go through `telemetry::Stopwatch`.

use super::netfault::WireAdversary;
use super::peer::{reply_to, BlockSource, RequestOutcome, Transport};
use super::wire::{
    encode_frame, FrameHeader, PayloadBuf, WireError, WireMessage, DEFAULT_MAX_FRAME,
    FRAME_HEADER_LEN,
};
use ebv_primitives::hash::Hash256;
use ebv_telemetry::{counter, histogram, Stopwatch};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Transport tuning knobs, shared by both endpoints of a connection.
#[derive(Clone, Copy, Debug)]
pub struct WireConfig {
    /// Hard cap on a frame's payload length; a header claiming more is
    /// rejected before any payload byte is read.
    pub max_frame: u32,
    /// Deadline for the whole dial + `Hello` exchange.
    pub handshake_timeout: Duration,
    /// Per-write socket budget, and the serving side's budget for the rest
    /// of a request frame once its first byte has arrived.
    pub io_timeout: Duration,
    /// How often the serving side wakes from an idle read to check for
    /// shutdown.
    pub idle_step: Duration,
    /// Consecutive failed dials before the peer reports itself closed.
    pub max_dial_attempts: u32,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame: DEFAULT_MAX_FRAME,
            handshake_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_millis(500),
            idle_step: Duration::from_millis(50),
            max_dial_attempts: 3,
        }
    }
}

impl WireConfig {
    /// Tight timings for unit tests, matched to `SyncConfig::fast_test()`.
    pub fn fast_test() -> WireConfig {
        WireConfig {
            handshake_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_millis(100),
            idle_step: Duration::from_millis(10),
            ..WireConfig::default()
        }
    }
}

/// Labeled `net.frame.errors{class=...}` bump. The label makes the metric
/// name dynamic, so the caching `counter!` macro does not apply.
fn frame_error(slug: &str) {
    if ebv_telemetry::enabled() {
        ebv_telemetry::registry::counter(&format!("net.frame.errors{{class={slug}}}")).inc();
    }
}

/// What one deadline-bounded receive produced.
enum Recv {
    /// A complete, checksum-verified, decoded message.
    Msg(WireMessage),
    /// The deadline passed with *zero* bytes received — quiet, not slow.
    Idle,
}

/// A `TcpStream` speaking the frame protocol.
struct FramedStream {
    stream: TcpStream,
    cfg: WireConfig,
}

impl FramedStream {
    fn new(stream: TcpStream, cfg: WireConfig) -> FramedStream {
        let _ = stream.set_nodelay(true);
        FramedStream { stream, cfg }
    }

    /// Send one message as a frame, bounded by the write budget.
    fn send(&mut self, msg: &WireMessage) -> Result<(), WireError> {
        let frame = encode_frame(msg);
        self.stream
            .set_write_timeout(Some(self.cfg.io_timeout))
            .map_err(|e| WireError::Io(e.kind()))?;
        self.stream.write_all(&frame).map_err(|e| match e.kind() {
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
                WireError::TruncatedFrame
            }
            kind => WireError::Io(kind),
        })?;
        counter!("net.frame.tx").inc();
        counter!("net.frame.tx_bytes").add(frame.len() as u64);
        Ok(())
    }

    /// Receive one frame before `deadline`.
    ///
    /// * zero bytes by the deadline → [`Recv::Idle`] (the peer is quiet,
    ///   which may be legitimate);
    /// * *some* bytes but an incomplete frame by the deadline →
    ///   [`WireError::SlowRead`] (the slow-loris signature);
    /// * EOF/reset while bytes are owed → [`WireError::TruncatedFrame`];
    /// * every header/checksum/payload violation → its [`WireError`].
    fn recv(&mut self, deadline: Instant) -> Result<Recv, WireError> {
        self.recv_frame(deadline, None)
    }

    /// The serving side's receive: wait until `idle_deadline` for a
    /// request's first byte, then give the rest of its frame `io_timeout`
    /// from that byte. A request that starts late in an idle window is no
    /// slow read; one that trickles past `io_timeout` still is.
    fn recv_request(&mut self, idle_deadline: Instant) -> Result<Recv, WireError> {
        self.recv_frame(idle_deadline, Some(self.cfg.io_timeout))
    }

    /// Receive one frame; with a `frame_budget`, the deadline moves to
    /// that long after the frame's first byte.
    fn recv_frame(
        &mut self,
        mut deadline: Instant,
        frame_budget: Option<Duration>,
    ) -> Result<Recv, WireError> {
        let mut hdr = [0u8; FRAME_HEADER_LEN];
        let mut filled = 0usize;
        let mut clock: Option<Stopwatch> = None;
        while filled < FRAME_HEADER_LEN {
            match read_step(&mut self.stream, &mut hdr[filled..], deadline, filled > 0)? {
                ReadStep::Bytes(n) => {
                    if clock.is_none() {
                        clock = Some(Stopwatch::start());
                        if let Some(budget) = frame_budget {
                            deadline = Instant::now() + budget;
                        }
                    }
                    filled += n;
                }
                ReadStep::DeadlineQuiet => return Ok(Recv::Idle),
            }
        }
        let header = FrameHeader::parse(&hdr, self.cfg.max_frame)?;
        // The claimed length is now known ≤ max_frame, but allocation
        // still tracks received bytes, not the claim.
        let mut payload = PayloadBuf::new(header.len as usize);
        while !payload.is_complete() {
            let window = payload.window();
            let window_len = window.len();
            match read_step(&mut self.stream, window, deadline, true)? {
                ReadStep::Bytes(n) => payload.advance(window_len, n),
                ReadStep::DeadlineQuiet => unreachable!("mid-frame deadline is SlowRead"),
            }
        }
        let payload = payload.into_inner();
        if super::wire::checksum(&payload) != header.checksum {
            return Err(WireError::ChecksumMismatch);
        }
        let msg = WireMessage::decode_payload(header.kind, &payload)?;
        counter!("net.frame.rx").inc();
        counter!("net.frame.rx_bytes").add((FRAME_HEADER_LEN + payload.len()) as u64);
        if let Some(clock) = clock {
            histogram!("net.frame.latency_us").record(clock.elapsed().as_micros() as u64);
        }
        Ok(Recv::Msg(msg))
    }

    /// Best-effort polite close.
    fn bye(&mut self) {
        let _ = self.send(&WireMessage::Bye);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

enum ReadStep {
    Bytes(usize),
    /// Deadline hit with nothing read and nothing mid-frame.
    DeadlineQuiet,
}

/// One deadline-bounded read. `mid_frame` decides whether a deadline is
/// quiet-idle or a slow-read violation.
fn read_step(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    mid_frame: bool,
) -> Result<ReadStep, WireError> {
    loop {
        let Some(remaining) = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
        else {
            return if mid_frame {
                Err(WireError::SlowRead)
            } else {
                Ok(ReadStep::DeadlineQuiet)
            };
        };
        stream
            .set_read_timeout(Some(remaining))
            .map_err(|e| WireError::Io(e.kind()))?;
        match stream.read(buf) {
            // EOF while a response (or the rest of a frame) is owed.
            Ok(0) => return Err(WireError::TruncatedFrame),
            Ok(n) => return Ok(ReadStep::Bytes(n)),
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => continue,
                ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::UnexpectedEof => return Err(WireError::TruncatedFrame),
                kind => return Err(WireError::Io(kind)),
            },
        }
    }
}

/// Client half of the `Hello` exchange.
fn client_handshake(
    stream: TcpStream,
    network: Hash256,
    cfg: WireConfig,
) -> Result<FramedStream, WireError> {
    let mut fs = FramedStream::new(stream, cfg);
    fs.send(&WireMessage::Hello {
        network,
        start_height: 0,
    })?;
    let deadline = Instant::now() + cfg.handshake_timeout;
    match fs.recv(deadline) {
        Ok(Recv::Msg(WireMessage::Hello {
            network: theirs, ..
        })) => {
            if theirs != network {
                return Err(WireError::WrongNetwork);
            }
            counter!("net.conn.handshakes").inc();
            Ok(fs)
        }
        Ok(Recv::Msg(other)) => Err(WireError::UnexpectedMessage {
            expected: "hello",
            got: other.name(),
        }),
        // Quiet or trickling during the handshake both read as a peer
        // that cannot complete the protocol preamble in time.
        Ok(Recv::Idle) | Err(WireError::SlowRead) => Err(WireError::HandshakeTimeout),
        Err(e) => Err(e),
    }
}

/// Driver-side TCP peer: dial-on-demand, reconnect-after-violation.
pub struct TcpPeer {
    id: usize,
    addr: SocketAddr,
    network: Hash256,
    cfg: WireConfig,
    conn: Option<FramedStream>,
    next_id: u64,
    dial_failures: u32,
    ever_connected: bool,
    /// Set when the remote said `Bye` or dialing is hopeless.
    closed: bool,
}

impl TcpPeer {
    /// A peer for the server at `addr` on network `network` (the genesis
    /// header hash). No connection is made until the first request.
    pub fn new(id: usize, addr: SocketAddr, network: Hash256, cfg: WireConfig) -> TcpPeer {
        TcpPeer {
            id,
            addr,
            network,
            cfg,
            conn: None,
            next_id: 0,
            dial_failures: 0,
            ever_connected: false,
            closed: false,
        }
    }

    /// Dial + handshake. `Ok(())` leaves a live connection behind.
    fn ensure_connected(&mut self) -> Result<(), RequestOutcome> {
        if self.conn.is_some() {
            return Ok(());
        }
        counter!("net.conn.dials").inc();
        if self.ever_connected {
            counter!("net.conn.reconnects").inc();
        }
        let stream = match TcpStream::connect_timeout(&self.addr, self.cfg.handshake_timeout) {
            Ok(s) => s,
            Err(e) => {
                counter!("net.conn.dial_failures").inc();
                self.dial_failures += 1;
                if self.dial_failures >= self.cfg.max_dial_attempts {
                    self.closed = true;
                    return Err(RequestOutcome::Closed);
                }
                return Err(RequestOutcome::Wire(WireError::Io(e.kind())));
            }
        };
        match client_handshake(stream, self.network, self.cfg) {
            Ok(fs) => {
                self.conn = Some(fs);
                self.dial_failures = 0;
                self.ever_connected = true;
                Ok(())
            }
            Err(e) => {
                counter!("net.conn.handshake_failures").inc();
                frame_error(e.slug());
                Err(RequestOutcome::Wire(e))
            }
        }
    }
}

/// Wait for the reply to request `id`, dropping stale replies by id.
fn await_reply(conn: &mut FramedStream, id: u64, deadline: Instant) -> RequestOutcome {
    loop {
        match conn.recv(deadline) {
            Ok(Recv::Idle) => return RequestOutcome::TimedOut,
            Ok(Recv::Msg(msg)) => {
                if let Some(outcome) = RequestOutcome::of_reply(msg, id) {
                    return outcome;
                }
            }
            Err(e) => return RequestOutcome::Wire(e),
        }
    }
}

impl Transport for TcpPeer {
    fn id(&self) -> usize {
        self.id
    }

    fn request(&mut self, start_height: u32, count: u32, timeout: Duration) -> RequestOutcome {
        if self.closed {
            return RequestOutcome::Closed;
        }
        if let Err(outcome) = self.ensure_connected() {
            return outcome;
        }
        let deadline = Instant::now() + timeout;
        let id = self.next_id;
        self.next_id += 1;
        let Some(conn) = self.conn.as_mut() else {
            return RequestOutcome::Closed;
        };
        let sent = conn.send(&WireMessage::GetBlocks {
            id,
            start_height,
            count,
        });
        if let Err(e) = sent {
            frame_error(e.slug());
            self.conn = None;
            return RequestOutcome::Wire(e);
        }
        match await_reply(conn, id, deadline) {
            RequestOutcome::Closed => {
                counter!("net.conn.closed").inc();
                self.conn = None;
                self.closed = true;
                RequestOutcome::Closed
            }
            RequestOutcome::Wire(e) => {
                // The connection is desynchronized (or dead) after any
                // wire violation; drop it and let the next request
                // re-dial. The driver's scoring decides when to stop
                // bothering.
                frame_error(e.slug());
                counter!("net.conn.closed").inc();
                self.conn = None;
                RequestOutcome::Wire(e)
            }
            outcome => outcome,
        }
    }

    fn finish(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            conn.bye();
            counter!("net.conn.closed").inc();
        }
        self.closed = true;
    }
}

/// Handle for a serving listener; dropping it stops the thread.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// The bound address (always `127.0.0.1:<ephemeral>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the serving thread.
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

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serve `source` over localhost TCP with honest framing. Connections are
/// handled one at a time (each driver owns one connection per peer); a
/// dropped connection loops back to `accept`, so reconnects just work.
pub fn serve_blocks<S: BlockSource + 'static>(
    source: S,
    network: Hash256,
    cfg: WireConfig,
) -> std::io::Result<TcpServer> {
    serve(source, network, cfg, None)
}

/// The one serving loop: [`serve_blocks`] without an adversary,
/// [`serve_adversary`](super::netfault::serve_adversary) with one, which
/// sends each honest reply frame its own way.
pub(crate) fn serve<S: BlockSource + 'static>(
    source: S,
    network: Hash256,
    cfg: WireConfig,
    adversary: Option<WireAdversary>,
) -> std::io::Result<TcpServer> {
    let (listener, addr, stop) = bind_localhost()?;
    let stop2 = Arc::clone(&stop);
    let name = match adversary {
        Some(adversary) => format!("wire-adv-{}", adversary.label()),
        None => format!("wire-serve-{}", addr.port()),
    };
    let thread = thread::Builder::new().name(name).spawn(move || {
        let mut source = source;
        while let Some(stream) = next_conn(&listener, &stop2) {
            serve_conn(stream, &mut source, network, &cfg, adversary, &stop2);
        }
    })?;
    Ok(TcpServer {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Bind an ephemeral localhost listener in non-blocking accept mode.
fn bind_localhost() -> std::io::Result<(TcpListener, SocketAddr, Arc<AtomicBool>)> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    Ok((listener, addr, Arc::new(AtomicBool::new(false))))
}

/// Poll `accept` until a connection arrives or `stop` is set. The
/// accepted stream is switched back to blocking mode (per-read deadlines
/// come from `read_step`'s socket timeouts).
fn next_conn(listener: &TcpListener, stop: &AtomicBool) -> Option<TcpStream> {
    loop {
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                counter!("net.conn.accepted").inc();
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                return Some(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return None,
        }
    }
}

/// Serve one established connection until it closes or `stop` is set.
fn serve_conn<S: BlockSource>(
    stream: TcpStream,
    source: &mut S,
    network: Hash256,
    cfg: &WireConfig,
    adversary: Option<WireAdversary>,
    stop: &AtomicBool,
) {
    if adversary == Some(WireAdversary::Churn) {
        // Drop on the floor; the client pays a dial + handshake each time.
        return;
    }
    let mut fs = FramedStream::new(stream, *cfg);
    // Handshake: exactly one Hello, right network, in time.
    match fs.recv(Instant::now() + cfg.handshake_timeout) {
        Ok(Recv::Msg(WireMessage::Hello {
            network: theirs, ..
        })) if theirs == network => {}
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
            fs.bye();
            return;
        }
        match fs.recv_request(Instant::now() + cfg.idle_step) {
            Ok(Recv::Idle) => continue,
            Ok(Recv::Msg(WireMessage::GetBlocks {
                id,
                start_height,
                count,
            })) => {
                let reply = reply_to(source, id, start_height, count, cfg.max_frame);
                let kept = match adversary {
                    None => fs.send(&reply).is_ok(),
                    Some(adversary) => adversary.send(&mut fs.stream, encode_frame(&reply), stop),
                };
                if !kept {
                    return;
                }
            }
            // A `Bye`, any other message, a protocol violation or a dead
            // socket ends the connection; the client may reconnect.
            Ok(Recv::Msg(_)) | Err(_) => return,
        }
    }
}
