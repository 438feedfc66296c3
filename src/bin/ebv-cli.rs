//! `ebv-cli` — generate, convert, inspect and validate chains from the
//! command line.
//!
//! ```text
//! ebv-cli generate --blocks 200 --seed 7 --out chain.bin
//! ebv-cli convert  --in chain.bin --out chain.ebv
//! ebv-cli info     --in chain.bin
//! ebv-cli validate --in chain.ebv [--budget BYTES] [--latency-us US]
//! ebv-cli metrics  --in chain.ebv [--out PROM] [--json-out JSON] [--trace-out JSONL]
//! ebv-cli trace-tree --in trace.jsonl
//! ebv-cli postmortem bundle.json
//! ebv-cli health   --slo slo.json (--metrics snap.json | --in chain.ebv) [--gate]
//! ```
//!
//! `metrics` validates the chain with telemetry enabled and emits the
//! metric registry in Prometheus text format (stdout, or `--out`), and
//! optionally as a JSON snapshot (`--json-out`) plus the structured event
//! trace as JSONL (`--trace-out`).
//!
//! `trace-tree` reconstructs the causal span trees from a JSONL event
//! trace (one tree per trace id, children indented under parents, wall
//! times and attributed-event counts per span). `postmortem` pretty-prints
//! a flight-recorder bundle as its causal chain. `health` evaluates an SLO
//! document against a metrics snapshot (from `--metrics`, or freshly
//! produced by validating `--in`) and, with `--gate`, exits nonzero on any
//! breach — the CI gate mode.
//!
//! Chain files are a 8-byte magic (`EBVCHN1\n` baseline / `EBVCHN2\n`
//! EBV), a varint block count, then serialized blocks.

use ebv::chain::Block;
use ebv::core::sync::{ValidatingNode, SYNC_BATCH};
use ebv::core::{BaselineConfig, BaselineNode, EbvBlock, EbvConfig, EbvNode, Intermediary};
use ebv::primitives::encode::{write_varint, Decodable, Encodable, Reader};
use ebv::store::{KvStore, LatencyModel, StoreConfig, UtxoSet};
use ebv::workload::{ChainGenerator, ChainProfile, GeneratorParams};
use std::collections::HashMap;
use std::process::exit;

const MAGIC_BASELINE: &[u8; 8] = b"EBVCHN1\n";
const MAGIC_EBV: &[u8; 8] = b"EBVCHN2\n";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
    };
    // `postmortem` takes a positional file; `health` has a boolean flag.
    // Both need handling before the pair-based flag parser.
    match command.as_str() {
        "postmortem" => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: ebv-cli postmortem <bundle.json>");
                exit(2);
            };
            return postmortem(path);
        }
        "health" => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let gate = match rest.iter().position(|a| a == "--gate") {
                Some(i) => {
                    rest.remove(i);
                    true
                }
                None => false,
            };
            return health(&parse_flags(&rest), gate);
        }
        _ => {}
    }
    let flags = parse_flags(&args[1..]);
    match command.as_str() {
        "generate" => generate(&flags),
        "convert" => convert(&flags),
        "info" => info(&flags),
        "validate" => validate(&flags),
        "metrics" => metrics(&flags),
        "trace-tree" => trace_tree(&flags),
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ebv-cli <command> [flags]\n\
         \x20 generate --blocks N [--seed S] --out FILE\n\
         \x20 convert  --in FILE --out FILE\n\
         \x20 info     --in FILE\n\
         \x20 validate --in FILE [--budget BYTES] [--latency-us US]\n\
         \x20 metrics  --in FILE [--budget BYTES] [--latency-us US]\n\
         \x20          [--out PROM] [--json-out JSON] [--trace-out JSONL]\n\
         \x20 trace-tree --in JSONL\n\
         \x20 postmortem FILE\n\
         \x20 health   --slo FILE (--metrics JSON | --in CHAIN) [--gate]"
    );
    exit(2);
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--").unwrap_or_else(|| {
            eprintln!("expected flag, got {:?}", args[i]);
            exit(2);
        });
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for --{key}");
            exit(2);
        };
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    flags
}

fn flag_num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value {v:?} for --{key}");
            exit(2);
        }),
    }
}

fn flag_path<'a>(flags: &'a HashMap<String, String>, key: &str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing required --{key}");
        exit(2);
    })
}

fn generate(flags: &HashMap<String, String>) {
    let blocks = flag_num(flags, "blocks", 100u32);
    let seed = flag_num(flags, "seed", 1u64);
    let out = flag_path(flags, "out");
    let chain = ChainGenerator::new(GeneratorParams::mainnet_like(blocks, seed)).generate();
    let mut bytes = MAGIC_BASELINE.to_vec();
    write_varint(&mut bytes, chain.len() as u64);
    for block in &chain {
        block.encode(&mut bytes);
    }
    std::fs::write(out, &bytes).unwrap_or_else(die("writing output"));
    let stats = ChainGenerator::stats(&chain);
    println!(
        "wrote {} blocks ({} txs, {} inputs, {} outputs) to {out}",
        stats.blocks, stats.transactions, stats.inputs, stats.outputs
    );
}

fn load(path: &str) -> (bool, Vec<u8>) {
    let bytes = std::fs::read(path).unwrap_or_else(die("reading input"));
    if bytes.len() < 8 {
        eprintln!("{path}: not a chain file");
        exit(1);
    }
    match &bytes[..8] {
        m if m == MAGIC_BASELINE => (false, bytes),
        m if m == MAGIC_EBV => (true, bytes),
        _ => {
            eprintln!("{path}: unknown magic");
            exit(1);
        }
    }
}

fn read_chain<T: Decodable>(bytes: &[u8]) -> Vec<T> {
    let mut r = Reader::new(&bytes[8..]);
    let n = r.read_len().unwrap_or_else(die("reading count"));
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(T::decode(&mut r).unwrap_or_else(die(&format!("decoding block {i}"))));
    }
    out
}

fn convert(flags: &HashMap<String, String>) {
    let (is_ebv, bytes) = load(flag_path(flags, "in"));
    if is_ebv {
        eprintln!("input is already EBV-format");
        exit(1);
    }
    let chain: Vec<Block> = read_chain(&bytes);
    let mut intermediary = Intermediary::new(0);
    let ebv_chain = intermediary
        .convert_chain(&chain)
        .unwrap_or_else(die("converting"));
    let mut out_bytes = MAGIC_EBV.to_vec();
    write_varint(&mut out_bytes, ebv_chain.len() as u64);
    for block in &ebv_chain {
        block.encode(&mut out_bytes);
    }
    let out = flag_path(flags, "out");
    std::fs::write(out, &out_bytes).unwrap_or_else(die("writing output"));
    println!(
        "converted {} blocks ({} → {} bytes, {:.2}× proof overhead) to {out}",
        ebv_chain.len(),
        bytes.len(),
        out_bytes.len(),
        out_bytes.len() as f64 / bytes.len() as f64
    );
}

fn info(flags: &HashMap<String, String>) {
    let (is_ebv, bytes) = load(flag_path(flags, "in"));
    if is_ebv {
        let chain: Vec<EbvBlock> = read_chain(&bytes);
        let inputs: usize = chain.iter().map(EbvBlock::input_count).sum();
        let outputs: u32 = chain.iter().map(EbvBlock::output_count).sum();
        println!(
            "EBV chain: {} blocks, {} inputs, {} outputs, tip {}",
            chain.len(),
            inputs,
            outputs,
            chain.last().expect("nonempty").header.hash()
        );
    } else {
        let chain: Vec<Block> = read_chain(&bytes);
        let profile = ChainProfile::measure(&chain);
        println!(
            "baseline chain: {} blocks, mean {:.1} inputs/block, mean {:.1} outputs/block, tip {}",
            chain.len(),
            profile.mean_inputs(),
            profile.mean_outputs(),
            chain.last().expect("nonempty").header.hash()
        );
    }
}

fn validate(flags: &HashMap<String, String>) {
    validate_chain(flags, true);
}

fn validate_chain(flags: &HashMap<String, String>, report: bool) {
    let (is_ebv, bytes) = load(flag_path(flags, "in"));
    // Root of the validation trace: the per-block spans inside the nodes
    // nest under this, so `metrics --trace-out` + `trace-tree` shows the
    // whole run as one tree. Inert when telemetry is disabled.
    let _run_span = ebv::telemetry::SpanGuard::enter_root("cli.validate", 0xc11);
    let started = ebv::telemetry::Stopwatch::start();
    if is_ebv {
        let chain: Vec<EbvBlock> = read_chain(&bytes);
        let mut node = EbvNode::new(&chain[0], EbvConfig::default());
        connect_chain(&mut node, &chain);
        if !report {
            return;
        }
        let b = node.cumulative_breakdown();
        println!(
            "valid EBV chain: height {}, {} unspent, status memory {} bytes",
            node.tip_height(),
            node.total_unspent(),
            node.status_memory().optimized
        );
        println!(
            "validation {:.2}s (ev {:.3}s, uv {:.3}s, sv {:.2}s, commit {:.3}s, others {:.3}s); wall {:.2}s",
            b.total().as_secs_f64(),
            b.ev.as_secs_f64(),
            b.uv.as_secs_f64(),
            b.sv.as_secs_f64(),
            b.commit.as_secs_f64(),
            b.others.as_secs_f64(),
            started.elapsed().as_secs_f64()
        );
    } else {
        let chain: Vec<Block> = read_chain(&bytes);
        let store = KvStore::open(StoreConfig {
            cache_budget: flag_num(flags, "budget", 24usize << 10),
            latency: LatencyModel::scaled_hdd(flag_num(flags, "latency-us", 0u64), 0),
            path: None,
        })
        .unwrap_or_else(die("opening store"));
        let mut node = BaselineNode::new(&chain[0], UtxoSet::new(store), BaselineConfig::default())
            .unwrap_or_else(die("booting node"));
        connect_chain(&mut node, &chain);
        if !report {
            return;
        }
        let b = node.cumulative_breakdown();
        println!(
            "valid baseline chain: height {}, {} UTXOs, set {} bytes, cache hits {:.1}%",
            node.tip_height(),
            node.utxos().size().count,
            node.utxos().size().bytes,
            node.utxos().stats().hit_ratio() * 100.0
        );
        println!(
            "validation {:.2}s (dbo {:.2}s, sv {:.2}s, others {:.3}s); wall {:.2}s",
            b.total().as_secs_f64(),
            b.dbo.as_secs_f64(),
            b.sv.as_secs_f64(),
            b.others.as_secs_f64(),
            started.elapsed().as_secs_f64()
        );
    }
}

/// Connect `chain` after its genesis in windows of one sync batch, as
/// `sync_multi` validates a download; exit on the first invalid block.
fn connect_chain<N: ValidatingNode>(node: &mut N, chain: &[N::Block]) {
    for window in chain[1..].chunks(SYNC_BATCH as usize) {
        if let (_, Err(err)) = node.connect_blocks(window) {
            die(&format!("block {} invalid", node.tip_height() + 1))(err)
        }
    }
}

/// Validate the chain with telemetry enabled, then export the metric
/// registry. Prometheus text goes to stdout (or `--out`); `--json-out`
/// writes the JSON snapshot and `--trace-out` tees the event trace as
/// JSONL while the run happens.
fn metrics(flags: &HashMap<String, String>) {
    ebv::telemetry::set_enabled(true);
    if let Some(path) = flags.get("trace-out") {
        ebv::telemetry::trace_tee_to_file(std::path::Path::new(path))
            .unwrap_or_else(die("opening trace output"));
    }
    validate_chain(flags, false);
    ebv::telemetry::trace_untee();

    let snap = ebv::telemetry::global().snapshot();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, ebv::telemetry::prometheus_text(&snap))
                .unwrap_or_else(die("writing metrics"));
            eprintln!("wrote {path}");
        }
        None => print!("{}", ebv::telemetry::prometheus_text(&snap)),
    }
    if let Some(path) = flags.get("json-out") {
        std::fs::write(path, ebv::telemetry::json_snapshot(&snap))
            .unwrap_or_else(die("writing json metrics"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = flags.get("trace-out") {
        eprintln!("wrote {path}");
    }
}

/// One span reconstructed from paired `span.begin`/`span.end` lines.
struct SpanInfo {
    name: String,
    parent: Option<String>,
    seq: f64,
    wall_us: Option<f64>,
    /// Trace lines attributed to this span (excluding begin/end markers).
    events: u32,
}

/// Rebuild the causal span trees from a JSONL event trace and print one
/// indented tree per trace id, in first-appearance order.
fn trace_tree(flags: &HashMap<String, String>) {
    use ebv::telemetry::json::{parse, Value};
    let path = flag_path(flags, "in");
    let text = std::fs::read_to_string(path).unwrap_or_else(die("reading trace"));
    // trace hex -> span hex -> info, traces kept in first-seen order.
    let mut traces: Vec<(String, HashMap<String, SpanInfo>, u32)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for line in text.lines() {
        let Ok(v) = parse(line) else { continue };
        let Some(trace) = v.get("trace").and_then(Value::as_str) else {
            continue;
        };
        let slot = *index.entry(trace.to_string()).or_insert_with(|| {
            traces.push((trace.to_string(), HashMap::new(), 0));
            traces.len() - 1
        });
        let spans = &mut traces[slot].1;
        let span = v.get("span").and_then(Value::as_str).unwrap_or("");
        match v.get("event").and_then(Value::as_str) {
            Some("span.begin") => {
                spans.insert(
                    span.to_string(),
                    SpanInfo {
                        name: v
                            .get("name")
                            .and_then(Value::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        parent: v.get("parent").and_then(Value::as_str).map(str::to_string),
                        seq: v.get("seq").and_then(Value::as_f64).unwrap_or(0.0),
                        wall_us: None,
                        events: 0,
                    },
                );
            }
            Some("span.end") => {
                if let Some(info) = spans.get_mut(span) {
                    info.wall_us = v.get("wall_us").and_then(Value::as_f64);
                }
            }
            _ => match spans.get_mut(span) {
                Some(info) => info.events += 1,
                None => traces[slot].2 += 1, // event outside any known span
            },
        }
    }
    if traces.is_empty() {
        println!("no traced events in {path}");
        return;
    }
    for (trace, spans, loose) in &traces {
        println!("trace {trace}");
        // Children grouped under parents; roots are spans whose parent is
        // absent or never began inside this trace.
        let mut children: HashMap<&str, Vec<&str>> = HashMap::new();
        let mut roots: Vec<&str> = Vec::new();
        for (id, info) in spans {
            match info.parent.as_deref().filter(|p| spans.contains_key(*p)) {
                Some(p) => children.entry(p).or_default().push(id),
                None => roots.push(id),
            }
        }
        let by_seq = |ids: &mut Vec<&str>| {
            ids.sort_by(|a, b| {
                spans[*a]
                    .seq
                    .partial_cmp(&spans[*b].seq)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        };
        by_seq(&mut roots);
        for ids in children.values_mut() {
            by_seq(ids);
        }
        let mut stack: Vec<(&str, usize)> = roots.iter().rev().map(|&id| (id, 1)).collect();
        while let Some((id, depth)) = stack.pop() {
            let info = &spans[id];
            let wall = match info.wall_us {
                Some(us) => format!("{us:.0}µs"),
                None => "unfinished".to_string(),
            };
            let tail = if info.events > 0 {
                format!("  ({} events)", info.events)
            } else {
                String::new()
            };
            let short = id.get(8..).unwrap_or(id); // low half of the 16-hex id
            println!(
                "{:indent$}{} [{short}]  {wall}{tail}",
                "",
                info.name,
                indent = depth * 2
            );
            if let Some(kids) = children.get(id) {
                for &kid in kids.iter().rev() {
                    stack.push((kid, depth + 1));
                }
            }
        }
        if *loose > 0 {
            println!("  ({loose} events outside any span)");
        }
    }
}

/// Pretty-print a flight-recorder post-mortem bundle as its causal chain.
fn postmortem(path: &str) {
    use ebv::telemetry::json::{parse, serialize, Value};
    let text = std::fs::read_to_string(path).unwrap_or_else(die("reading bundle"));
    let bundle = parse(&text).unwrap_or_else(die("parsing bundle"));
    let schema = bundle.get("schema").and_then(Value::as_str).unwrap_or("?");
    let trigger = bundle.get("trigger").and_then(Value::as_str).unwrap_or("?");
    let trace = bundle
        .get("trace")
        .and_then(Value::as_str)
        .unwrap_or("(none)");
    let seq = bundle.get("seq").and_then(Value::as_f64).unwrap_or(0.0);
    println!("post-mortem bundle #{seq:.0} ({schema})");
    println!("trigger: {trigger}");
    println!("trace:   {trace}");
    if let Some(Value::Object(dropped)) = bundle.get("dropped") {
        let lost: Vec<String> = dropped
            .iter()
            .filter(|(_, v)| v.as_f64().unwrap_or(0.0) > 0.0)
            .map(|(k, v)| format!("{k}={:.0}", v.as_f64().unwrap_or(0.0)))
            .collect();
        if !lost.is_empty() {
            println!(
                "dropped: {} (ring overflow; chain is incomplete)",
                lost.join(" ")
            );
        }
    }
    if let Some(n) = bundle.get("trace_dropped").and_then(Value::as_f64) {
        if n > 0.0 {
            println!("trace_dropped: {n:.0}");
        }
    }
    let Some(Value::Array(events)) = bundle.get("events") else {
        eprintln!("bundle has no events array");
        exit(1);
    };
    println!("causal chain ({} events):", events.len());
    for ev in events {
        let seq = ev.get("seq").and_then(Value::as_f64).unwrap_or(0.0);
        let name = ev.get("event").and_then(Value::as_str).unwrap_or("?");
        let mut fields = String::new();
        if let Value::Object(m) = ev {
            for (k, val) in m {
                if matches!(k.as_str(), "seq" | "ts_us" | "event" | "trace") {
                    continue;
                }
                fields.push_str("  ");
                fields.push_str(k);
                fields.push('=');
                match val {
                    Value::String(s) => fields.push_str(s),
                    other => fields.push_str(&serialize(other)),
                }
            }
        }
        println!("  [{seq:>6.0}] {name}{fields}");
    }
    // Anything beyond the fixed schema keys is trigger-specific context
    // (peer stats, reorg shape, ...).
    if let Value::Object(m) = &bundle {
        for (k, v) in m {
            if matches!(
                k.as_str(),
                "schema"
                    | "seq"
                    | "trigger"
                    | "trace"
                    | "events"
                    | "dropped"
                    | "trace_dropped"
                    | "metrics"
            ) {
                continue;
            }
            println!("{k}: {}", serialize(v));
        }
    }
}

/// Evaluate an SLO document against a metrics snapshot. The snapshot comes
/// from `--metrics` (a `json_snapshot` file) or is produced fresh by
/// validating `--in` with telemetry on. With `gate`, any breach (or a
/// malformed document) exits nonzero so CI can use this as a quality gate.
fn health(flags: &HashMap<String, String>, gate: bool) {
    use ebv::telemetry::json::parse;
    let slo_text =
        std::fs::read_to_string(flag_path(flags, "slo")).unwrap_or_else(die("reading SLO file"));
    let slo = parse(&slo_text).unwrap_or_else(die("parsing SLO file"));
    let metrics_text = if let Some(path) = flags.get("metrics") {
        std::fs::read_to_string(path).unwrap_or_else(die("reading metrics snapshot"))
    } else if flags.contains_key("in") {
        ebv::telemetry::set_enabled(true);
        validate_chain(flags, false);
        ebv::telemetry::json_snapshot(&ebv::telemetry::global().snapshot())
    } else {
        eprintln!("health needs --metrics SNAPSHOT or --in CHAIN");
        exit(2);
    };
    let metrics = parse(&metrics_text).unwrap_or_else(die("parsing metrics snapshot"));
    match ebv::telemetry::evaluate_slo(&metrics, &slo) {
        Err(e) => {
            eprintln!("bad SLO document: {e}");
            exit(2);
        }
        Ok(violations) if violations.is_empty() => {
            println!("health: all SLOs pass");
        }
        Ok(violations) => {
            for v in &violations {
                println!("SLO breach [{}]: {}", v.rule, v.detail);
            }
            if gate {
                exit(1);
            }
        }
    }
}

fn die<E: std::fmt::Debug, T>(what: &str) -> impl FnOnce(E) -> T + '_ {
    move |e| {
        eprintln!("error {what}: {e:?}");
        exit(1)
    }
}
