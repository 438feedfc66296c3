//! The traced run's span recorder, and the wrappers that feed it.
//!
//! Spans wrap calls into each module's public surface from outside the
//! program: a [`Transport`] around the client peer, a [`BlockSource`]
//! around the served chain, and a [`ValidatingNode`] around each node that
//! calls `process_block` itself so it keeps the returned phase breakdown.
//! The relay opens its spans directly around its calls.
//!
//! Each span records its name, start, end and parent; spans of one block
//! share the block's height as their key. Spans stay in memory until the
//! run writes them out. A layer's self time is its span minus the part of
//! that interval its child spans cover, so the self times of every span
//! under a root add up to the root's wall.

use ebv_core::sync::{BlockSource, RequestOutcome, Transport, ValidatingNode};
use ebv_core::{BaselineNode, EbvNode};
use ebv_primitives::encode::DecodeError;
use ebv_primitives::hash::Hash256;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Block height (request spans: the first height requested).
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// What the call handled, where that applies: bytes for `decode` and
    /// `sync.serve`, non-coinbase inputs for a block connection and for
    /// `mempool.accept`.
    pub amount: u64,
    /// Phase split the call itself reported (a validator's breakdown).
    pub phases: Vec<(&'static str, u64)>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// The client's open `sync.request` span: the parent of the `sync.serve`
/// span the serving thread records while that request is outstanding.
static OPEN_REQUEST: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Height of the next block the sync driver will decode: set from each
    /// request's start height, advanced per decoded block.
    static NEXT_DECODE: Cell<u64> = const { Cell::new(0) };
}

/// Start recording (dropping anything recorded before).
pub fn start() {
    *RECORDER.lock().expect("recorder lock") = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    });
}

/// Stop recording and hand back every closed span.
pub fn finish() -> Vec<Span> {
    RECORDER
        .lock()
        .expect("recorder lock")
        .take()
        .map(|r| r.spans)
        .unwrap_or_default()
}

/// A span that has started and not yet ended.
#[must_use = "a span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    key: u64,
    start: Instant,
}

/// Open a span under the innermost span open on this thread.
pub fn open(name: &'static str, key: u64) -> Open {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open_under(name, key, parent)
}

/// Open a span under an explicit parent (one open on another thread).
pub fn open_under(name: &'static str, key: u64, parent: u64) -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Open {
        id,
        parent,
        name,
        key,
        start: Instant::now(),
    }
}

impl Open {
    pub fn close(self) {
        self.close_with(0, &[]);
    }

    pub fn close_with(self, amount: u64, phases: &[(&'static str, Duration)]) {
        let end = Instant::now();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close innermost first");
        });
        let mut guard = RECORDER.lock().expect("recorder lock");
        let Some(rec) = guard.as_mut() else { return };
        let ns = |t: Instant| t.saturating_duration_since(rec.epoch).as_nanos() as u64;
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            key: self.key,
            start_ns: ns(self.start),
            end_ns: ns(end),
            amount,
            phases: phases
                .iter()
                .map(|&(p, d)| (p, d.as_nanos() as u64))
                .collect(),
        };
        rec.spans.push(span);
    }
}

/// Span count, self time, wall and amount per span name: the per-layer
/// ledger.
#[derive(Debug, Default)]
pub struct LayerLedger {
    pub count: BTreeMap<&'static str, u64>,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub total_ns: BTreeMap<&'static str, u64>,
    pub amount: BTreeMap<&'static str, u64>,
    /// `(span name, phase)` → summed phase time.
    pub phases: BTreeMap<(&'static str, &'static str), u64>,
}

impl LayerLedger {
    pub fn of(spans: &[Span]) -> LayerLedger {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut ledger = LayerLedger::default();
        for s in spans {
            let wall = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *ledger.count.entry(s.name).or_default() += 1;
            *ledger.self_ns.entry(s.name).or_default() += wall - covered.min(wall);
            *ledger.total_ns.entry(s.name).or_default() += wall;
            *ledger.amount.entry(s.name).or_default() += s.amount;
            for &(phase, ns) in &s.phases {
                *ledger.phases.entry((s.name, phase)).or_default() += ns;
            }
        }
        ledger
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        ms(self.self_ns.get(name).copied().unwrap_or(0))
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        ms(self.total_ns.get(name).copied().unwrap_or(0))
    }

    pub fn phase_ms(&self, name: &'static str, phase: &'static str) -> f64 {
        ms(self.phases.get(&(name, phase)).copied().unwrap_or(0))
    }

    pub fn count(&self, name: &str) -> f64 {
        self.count.get(name).copied().unwrap_or(0) as f64
    }

    pub fn amount(&self, name: &str) -> f64 {
        self.amount.get(name).copied().unwrap_or(0) as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let phases: Vec<String> = s
            .phases
            .iter()
            .map(|(p, ns)| format!("\"{p}\":{ns}"))
            .collect();
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\
             \"end_ns\":{},\"amount\":{},\"phases\":{{{}}}}}",
            s.id,
            s.parent,
            s.name,
            s.key,
            s.start_ns,
            s.end_ns,
            s.amount,
            phases.join(",")
        )?;
    }
    out.flush()
}

/// The client peer, with a `sync.request` span around every request.
pub struct TracedTransport<T>(pub T);

impl<T: Transport> Transport for TracedTransport<T> {
    fn id(&self) -> usize {
        self.0.id()
    }

    fn request(&mut self, start_height: u32, count: u32, timeout: Duration) -> RequestOutcome {
        let span = open("sync.request", start_height.into());
        OPEN_REQUEST.store(span.id, Ordering::SeqCst);
        let outcome = self.0.request(start_height, count, timeout);
        OPEN_REQUEST.store(0, Ordering::SeqCst);
        if matches!(outcome, RequestOutcome::Blocks(_)) {
            NEXT_DECODE.with(|h| h.set(start_height.into()));
        }
        span.close();
        outcome
    }

    fn finish(&mut self) {
        self.0.finish();
    }
}

/// The served chain, with a `sync.serve` span around every serve call,
/// parented to the client request it answers.
pub struct TracedSource<S>(pub S);

impl<S: BlockSource> BlockSource for TracedSource<S> {
    fn serve(&mut self, start_height: u32, count: u32) -> Vec<Vec<u8>> {
        let span = open_under(
            "sync.serve",
            start_height.into(),
            OPEN_REQUEST.load(Ordering::SeqCst),
        );
        let blocks = self.0.serve(start_height, count);
        span.close_with(blocks.iter().map(|b| b.len() as u64).sum(), &[]);
        blocks
    }
}

/// A node whose block connection reports its phase split.
pub trait PhasedNode: ValidatingNode {
    /// Span name of one block connection.
    const CONNECT: &'static str;
    /// Non-coinbase inputs in `block`.
    fn inputs(block: &Self::Block) -> u64;
    /// Connect `block` through the node's own `process_block`, returning the
    /// breakdown it measured.
    fn connect_phased(
        &mut self,
        block: &Self::Block,
    ) -> Result<Vec<(&'static str, Duration)>, Self::Error>;
}

impl PhasedNode for EbvNode {
    const CONNECT: &'static str = "ebv_node.connect";

    fn inputs(block: &Self::Block) -> u64 {
        block.input_count() as u64
    }

    fn connect_phased(
        &mut self,
        block: &Self::Block,
    ) -> Result<Vec<(&'static str, Duration)>, Self::Error> {
        let b = self.process_block(block)?;
        Ok(vec![
            ("others", b.others),
            ("ev", b.ev),
            ("uv", b.uv),
            ("sv", b.sv),
            ("commit", b.commit),
        ])
    }
}

impl PhasedNode for BaselineNode {
    const CONNECT: &'static str = "baseline_node.connect";

    fn inputs(block: &Self::Block) -> u64 {
        block.input_count() as u64
    }

    fn connect_phased(
        &mut self,
        block: &Self::Block,
    ) -> Result<Vec<(&'static str, Duration)>, Self::Error> {
        let b = self.process_block(block)?;
        Ok(vec![("dbo", b.dbo), ("sv", b.sv), ("others", b.others)])
    }
}

/// Connect one block inside its span.
pub fn connect<N: PhasedNode>(node: &mut N, block: &N::Block) -> Result<(), N::Error> {
    let span = open(N::CONNECT, u64::from(node.tip_height()) + 1);
    match node.connect_phased(block) {
        Ok(phases) => {
            span.close_with(N::inputs(block), &phases);
            Ok(())
        }
        Err(e) => {
            span.close();
            Err(e)
        }
    }
}

/// Decode one block inside a `decode` span.
pub fn decode<T>(
    key: u64,
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let span = open("decode", key);
    let decoded = decode(bytes);
    span.close_with(bytes.len() as u64, &[]);
    decoded
}

/// A node the sync driver pushes blocks into, with `decode` and connect
/// spans around the calls it makes.
pub struct TracedNode<N>(pub N);

impl<N: PhasedNode> ValidatingNode for TracedNode<N> {
    type Block = N::Block;
    type Error = N::Error;

    fn decode_block(bytes: &[u8]) -> Result<N::Block, DecodeError> {
        let height = NEXT_DECODE.with(|h| h.replace(h.get() + 1));
        decode(height, bytes, N::decode_block)
    }

    fn block_hash(block: &N::Block) -> Hash256 {
        N::block_hash(block)
    }

    fn block_prev_hash(block: &N::Block) -> Hash256 {
        N::block_prev_hash(block)
    }

    fn tip_height(&self) -> u32 {
        self.0.tip_height()
    }

    fn tip_hash(&self) -> Hash256 {
        self.0.tip_hash()
    }

    fn header_hash_at(&self, height: u32) -> Option<Hash256> {
        self.0.header_hash_at(height)
    }

    fn connect_block(&mut self, block: &N::Block) -> Result<(), N::Error> {
        connect(&mut self.0, block)
    }

    fn disconnect_tip_block(&mut self) -> Result<Option<u32>, N::Error> {
        self.0.disconnect_tip_block()
    }

    fn is_not_on_tip(err: &N::Error) -> bool {
        N::is_not_on_tip(err)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.0.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            key: 0,
            start_ns,
            end_ns,
            amount: 0,
            phases: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            // Overlaps `a`: counted once.
            span(3, 1, "b", 30, 50),
            // Runs past the parent's end: clipped.
            span(4, 1, "b", 90, 120),
            span(5, 2, "inner", 15, 20),
        ];
        let l = LayerLedger::of(&spans);
        assert_eq!(l.self_ns["root"], 100 - 40 - 10);
        assert_eq!(l.self_ns["a"], 30 - 5);
        assert_eq!(l.self_ns["b"], 20 + 30);
        assert_eq!(l.total_ns["b"], 20 + 30);
        assert_eq!(l.count("b"), 2.0);
    }
}
