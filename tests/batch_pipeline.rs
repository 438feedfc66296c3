//! Worker-count differential at the node level, against a strict oracle.
//! Block SV settles each chunk's signatures through one batch equation and
//! fans the chunks out to `workers` threads. On every block of a tampered
//! chain, both validators at every worker count must return the decision
//! and the error of a strict reference that runs each input's script on
//! its own, in `(tx, input)` order — so the minimum-`(tx, input)` error
//! survives chunking and threads. The reference is built here from public
//! API only: `spend_sighash`, `InputProof::spent_output`, and `verify_spend`
//! with the strict `DigestChecker`.
//! A node whose mempool already ran the honest transactions' scripts skips
//! them in the block and must still report every error a cold node does.
//! Every node keeps one pubkey cache for life: a signature tampered under a
//! key it already holds is refused at admission and in the block with the
//! same error, and each node prepares each signer key once.

mod common;

use common::{
    build_chains, fresh_utxos, inflate_baseline_output, inflate_output, strict_oracle,
    tamper_baseline_signature, tamper_signature,
};
use ebv_core::tidy::EbvBlock;
use ebv_core::{
    BaselineConfig, BaselineError, BaselineNode, EbvConfig, EbvError, EbvNode, Mempool,
    MempoolError,
};
use ebv_script::{Script, ScriptError};
use ebv_workload::GeneratorParams;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every worker count under test: inline, two and three threads (so even
/// small blocks split their inputs across chunks), and the default.
const WORKERS: [Option<usize>; 4] = [Some(1), Some(2), Some(3), None];

fn ebv_nodes(genesis: &EbvBlock) -> Vec<EbvNode> {
    WORKERS
        .iter()
        .map(|&workers| {
            let config = EbvConfig {
                workers,
                ..EbvConfig::default()
            };
            EbvNode::new(genesis, config)
        })
        .collect()
}

fn baseline_nodes(genesis: &ebv_chain::Block) -> Vec<BaselineNode> {
    WORKERS
        .iter()
        .map(|&workers| {
            let config = BaselineConfig {
                workers,
                ..BaselineConfig::default()
            };
            BaselineNode::new(genesis, fresh_utxos(), config).expect("genesis")
        })
        .collect()
}

#[test]
fn ebv_batch_and_strict_report_identical_errors() {
    let _serial = serial();
    let (_, chain) = build_chains(GeneratorParams::tiny(400, 0xba7c));
    let mut nodes = ebv_nodes(&chain[0]);
    let mut tampered = 0;
    for (h, block) in chain.iter().enumerate().skip(1) {
        // Every 5th block: tamper a signature (two on every 10th, to
        // exercise minimum-(tx, input) selection) and demand the oracle's
        // rejection from every worker count.
        if h % 5 == 0 && block.transactions.len() > 1 {
            let mut bad = tamper_signature(block, 1, 0);
            if h % 10 == 0 && bad.transactions.len() > 2 {
                bad = tamper_signature(&bad, 2, 0);
            }
            let (tx, input, err) = strict_oracle(&bad).expect("oracle rejects a tampered sig");
            for node in &mut nodes {
                let e = node.process_block(&bad).expect_err("tampered sig");
                assert_eq!(e, EbvError::SvFailed { tx, input, err }, "height {h}");
            }
            tampered += 1;
        }
        assert_eq!(strict_oracle(block), None, "height {h}");
        for node in &mut nodes {
            node.process_block(block)
                .unwrap_or_else(|e| panic!("height {h}: generated block rejected: {e:?}"));
        }
    }
    assert!(tampered >= 40, "too few tampered blocks: {tampered}");
    for node in &nodes {
        assert_eq!(node.tip_hash(), nodes[0].tip_hash());
        assert_eq!(node.state_digest(), nodes[0].state_digest());
    }
}

#[test]
fn baseline_batch_and_strict_agree() {
    let _serial = serial();
    let (blocks, chain) = build_chains(GeneratorParams::tiny(120, 0x5eed));
    let mut nodes = baseline_nodes(&blocks[0]);
    let mut tampered = 0;
    for (h, (block, ebv_block)) in blocks.iter().zip(&chain).enumerate().skip(1) {
        let last = block.transactions.len() - 1;
        if h % 6 == 0 && last > 0 {
            // One tampered signature, and on every 12th block a second in
            // the last transaction, so the minimum `(tx, input)` is selected
            // across chunks. The oracle reads spent outputs from proofs, so
            // it judges the EBV twin of the block, tampered identically.
            let mut pair = (
                tamper_signature(ebv_block, 1, 0),
                tamper_baseline_signature(block, 1, 0),
            );
            if h % 12 == 0 && last > 1 {
                pair = (
                    tamper_signature(&pair.0, last, 0),
                    tamper_baseline_signature(&pair.1, last, 0),
                );
            }
            let (ebv_bad, bad) = pair;
            let (tx, input, err) = strict_oracle(&ebv_bad).expect("oracle rejects");
            for node in &mut nodes {
                let e = node.process_block(&bad).expect_err("tampered sig");
                assert_eq!(baseline_verdict(&e), (tx, Some((input, err))), "height {h}");
            }
            tampered += 1;
        }
        for node in &mut nodes {
            node.process_block(block)
                .unwrap_or_else(|e| panic!("height {h}: generated block rejected: {e:?}"));
        }
    }
    assert!(tampered >= 10, "too few tampered blocks: {tampered}");
    for node in &nodes {
        assert_eq!(node.tip_hash(), nodes[0].tip_hash());
        assert_eq!(node.utxos().size().count, nodes[0].utxos().size().count);
    }
}

/// A rejection as both node types report it: `(tx, Some((input, err)))`
/// for SV, `(tx, None)` for a value imbalance.
type Verdict = (usize, Option<(usize, ScriptError)>);

fn ebv_verdict(e: &EbvError) -> Verdict {
    match *e {
        EbvError::SvFailed { tx, input, err } => (tx, Some((input, err))),
        EbvError::ValueImbalance { tx } => (tx, None),
        ref other => panic!("unexpected EBV rejection {other:?}"),
    }
}

fn baseline_verdict(e: &BaselineError) -> Verdict {
    match *e {
        BaselineError::SvFailed { tx, input, err } => (tx, Some((input, err))),
        BaselineError::ValueImbalance { tx } => (tx, None),
        ref other => panic!("unexpected baseline rejection {other:?}"),
    }
}

#[test]
fn both_node_types_agree_in_every_sv_mode() {
    let _serial = serial();
    let (blocks, chain) = build_chains(GeneratorParams::tiny(90, 0xc0de));
    let mut ebv = ebv_nodes(&chain[0]);
    let mut baseline = baseline_nodes(&blocks[0]);

    // Blocks rejected for one bad signature, for two, for an inflated output.
    let mut rejected = [0; 3];
    for (h, (block, ebv_block)) in blocks.iter().zip(&chain).enumerate().skip(1) {
        let last = block.transactions.len() - 1;
        // Every third block: tamper the first spending transaction's last
        // input, and on every sixth also the last transaction's first input,
        // so the minimum `(tx, input)` is selected across chunks. The block
        // after: inflate an output of the last transaction.
        let tampered = match h % 3 {
            _ if last == 0 => None,
            0 => {
                let input = block.transactions[1].inputs.len() - 1;
                let mut bad = (
                    tamper_signature(ebv_block, 1, input),
                    tamper_baseline_signature(block, 1, input),
                );
                if h % 6 == 0 && last > 1 {
                    bad = (
                        tamper_signature(&bad.0, last, 0),
                        tamper_baseline_signature(&bad.1, last, 0),
                    );
                    rejected[1] += 1;
                } else {
                    rejected[0] += 1;
                }
                Some((bad, (1, Some(input))))
            }
            1 => {
                rejected[2] += 1;
                let bad = (
                    inflate_output(ebv_block, last),
                    inflate_baseline_output(block, last),
                );
                Some((bad, (last, None)))
            }
            _ => None,
        };
        if let Some(((ebv_bad, baseline_bad), expected)) = tampered {
            let ebv_errors: Vec<EbvError> = ebv
                .iter_mut()
                .map(|n| n.process_block(&ebv_bad).expect_err("tampered block"))
                .collect();
            let baseline_errors: Vec<BaselineError> = baseline
                .iter_mut()
                .map(|n| n.process_block(&baseline_bad).expect_err("tampered block"))
                .collect();
            // BaselineError wraps io::Error and so cannot derive PartialEq;
            // the Debug rendering carries every field.
            let debug: Vec<String> = baseline_errors.iter().map(|e| format!("{e:?}")).collect();
            assert!(
                ebv_errors.iter().all(|e| e == &ebv_errors[0]),
                "height {h}: {ebv_errors:?}"
            );
            assert!(
                debug.iter().all(|e| e == &debug[0]),
                "height {h}: {debug:?}"
            );
            let verdict = ebv_verdict(&ebv_errors[0]);
            assert_eq!(verdict, baseline_verdict(&baseline_errors[0]), "height {h}");
            assert_eq!((verdict.0, verdict.1.map(|(input, _)| input)), expected);
            if let (tx, Some((input, err))) = verdict {
                assert_eq!(
                    strict_oracle(&ebv_bad),
                    Some((tx, input, err)),
                    "height {h}"
                );
            }
        }
        for node in &mut ebv {
            node.process_block(ebv_block)
                .expect("generated block validates");
        }
        for node in &mut baseline {
            node.process_block(block)
                .expect("generated block validates");
        }
    }
    assert!(
        rejected.iter().all(|&n| n >= 3),
        "too few tampered blocks: {rejected:?}"
    );
    for (e, b) in ebv.iter().zip(&baseline) {
        assert_eq!(e.state_digest(), ebv[0].state_digest());
        assert_eq!(b.tip_hash(), baseline[0].tip_hash());
        assert_eq!(e.total_unspent(), b.utxos().size().count);
    }
}

/// The signer key of a P2PKH unlocking script: its last push.
fn signer_key(us: &Script) -> [u8; 33] {
    let bytes = us.as_bytes();
    bytes[bytes.len() - 33..]
        .try_into()
        .expect("P2PKH unlocking script")
}

#[test]
fn script_cache_changes_no_verdict() {
    let _serial = serial();
    let (blocks, chain) = build_chains(GeneratorParams::tiny(90, 0xcac4e));
    // Per worker count: a cold node, a warm one whose mempool admits each
    // honest block's transactions before any version of the block arrives,
    // and a baseline node. All three keep their pubkey caches across
    // blocks.
    let mut nodes: Vec<(EbvNode, EbvNode, Mempool, BaselineNode)> = ebv_nodes(&chain[0])
        .into_iter()
        .zip(ebv_nodes(&chain[0]))
        .zip(baseline_nodes(&blocks[0]))
        .map(|((cold, warm), baseline)| (cold, warm, Mempool::new(), baseline))
        .collect();
    let arms = nodes.len() as u64;
    let node_count = 3 * arms;

    // Only this test fills a script cache, so within this binary it alone
    // moves the cache's counters; the pubkey cache's counters move with
    // every test's SV, which `serial` keeps out of this window.
    let hits = ebv_telemetry::counter("sv.script_cache.hits");
    let misses = ebv_telemetry::counter("sv.script_cache.misses");
    let key_misses = ebv_telemetry::counter("ebv.pubkey_cache.misses");
    ebv_telemetry::set_enabled(true);
    let before = (hits.get(), misses.get(), key_misses.get());
    let (mut expected_hits, mut expected_misses) = (0, 0);
    let mut rejected = [0; 2];
    // Signer keys of every block connected so far, and how many tampered
    // signatures were under a key some earlier block had already put in
    // every node's cache.
    let mut keys = std::collections::HashSet::new();
    let mut tampered_under_known_key = 0;
    for (h, (block, baseline_block)) in chain.iter().zip(&blocks).enumerate().skip(1) {
        for (_, warm, pool, _) in &mut nodes {
            for tx in &block.transactions[1..] {
                pool.accept(warm, tx.clone())
                    .expect("honest transaction admits");
            }
        }
        let inputs: u64 = block.transactions[1..]
            .iter()
            .map(|tx| tx.bodies.len() as u64)
            .sum();
        // As in `both_node_types_agree_in_every_sv_mode`: one or two
        // tampered signatures (which miss the script cache) every third
        // block, an inflated output (rejected before SV) on the block
        // after.
        let last = block.transactions.len() - 1;
        let tampered = match h % 3 {
            _ if last == 0 => None,
            0 => {
                rejected[0] += 1;
                let input = block.transactions[1].bodies.len() - 1;
                let mut bad = (
                    tamper_signature(block, 1, input),
                    tamper_baseline_signature(baseline_block, 1, input),
                );
                let mut tampered_inputs = 1;
                if h % 6 == 0 && last > 1 {
                    bad = (
                        tamper_signature(&bad.0, last, 0),
                        tamper_baseline_signature(&bad.1, last, 0),
                    );
                    tampered_inputs = 2;
                }
                let key = signer_key(&block.transactions[1].bodies[input].us);
                tampered_under_known_key += usize::from(keys.contains(&key));
                Some((bad, tampered_inputs))
            }
            1 => {
                rejected[1] += 1;
                let bad = (
                    inflate_output(block, last),
                    inflate_baseline_output(baseline_block, last),
                );
                Some((bad, 0))
            }
            _ => None,
        };
        if let Some(((bad, baseline_bad), tampered_inputs)) = tampered {
            for (cold, warm, _, baseline) in &mut nodes {
                let e_cold = cold.process_block(&bad).expect_err("tampered block");
                let e_warm = warm.process_block(&bad).expect_err("tampered block");
                let e_baseline = baseline
                    .process_block(&baseline_bad)
                    .expect_err("tampered block");
                assert_eq!(e_warm, e_cold, "height {h}");
                let verdict = ebv_verdict(&e_cold);
                assert_eq!(verdict, baseline_verdict(&e_baseline), "height {h}");
                // Admission refuses the tampered transaction with the
                // block's error, whichever cache already holds its key.
                if let (1, Some((input, err))) = verdict {
                    let expected = Err(MempoolError::SvFailed { input, err });
                    for node in [&*cold, &*warm] {
                        let admitted = Mempool::new().accept(node, bad.transactions[1].clone());
                        assert_eq!(admitted.map(|_| ()), expected, "height {h}");
                    }
                }
            }
            if tampered_inputs > 0 {
                expected_misses += arms * tampered_inputs;
                expected_hits += arms * (inputs - tampered_inputs);
            }
        }
        for (cold, warm, pool, baseline) in &mut nodes {
            cold.process_block(block)
                .expect("generated block validates");
            warm.process_block(block)
                .expect("generated block validates");
            baseline
                .process_block(baseline_block)
                .expect("generated block validates");
            pool.remove_confirmed(block);
            assert!(pool.is_empty(), "height {h}");
            assert_eq!(warm.state_digest(), cold.state_digest(), "height {h}");
        }
        expected_hits += arms * inputs;
        keys.extend(
            block.transactions[1..]
                .iter()
                .flat_map(|tx| &tx.bodies)
                .map(|body| signer_key(&body.us)),
        );
        // Each node prepares a key at most once.
        let prepared = key_misses.get() - before.2;
        assert!(prepared <= node_count * keys.len() as u64, "height {h}");
    }
    ebv_telemetry::set_enabled(false);
    assert!(
        rejected.iter().all(|&n| n >= 3),
        "too few tampered blocks: {rejected:?}"
    );
    assert!(
        tampered_under_known_key >= 3,
        "too few tampers under a cached key: {tampered_under_known_key}"
    );
    // Every honest input skipped SV; every tampered one ran it.
    assert_eq!(
        (hits.get() - before.0, misses.get() - before.1),
        (expected_hits, expected_misses)
    );
    // And each node prepared every signer key exactly once.
    assert_eq!(key_misses.get() - before.2, node_count * keys.len() as u64);
}

/// Serializes this file's tests: `script_cache_changes_no_verdict` counts
/// pubkey-cache misses on process-global counters that every test's SV
/// moves.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}
