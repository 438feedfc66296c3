//! Chains, tampers and the strict SV oracle shared by the pipeline
//! differential suites. Each suite uses a subset.
#![allow(dead_code)]

use ebv_chain::transaction::spend_sighash;
use ebv_chain::{build_block, coinbase_tx, Block, TxOut};
use ebv_core::tidy::{EbvBlock, InputBody};
use ebv_core::{
    BaselineConfig, BaselineNode, BitVectorSnapshot, DigestChecker, EbvNode, Intermediary,
    PubkeyCache,
};
use ebv_primitives::hash::sha256d;
use ebv_script::{verify_spend, Script, ScriptError};
use ebv_store::{KvStore, StoreConfig, UtxoSet};
use ebv_workload::{ChainGenerator, GeneratorParams};

/// A generated chain in both formats, genesis included.
pub fn build_chains(params: GeneratorParams) -> (Vec<ebv_chain::Block>, Vec<EbvBlock>) {
    let blocks = ChainGenerator::new(params).generate();
    let ebv_blocks = Intermediary::new(0)
        .convert_chain(&blocks)
        .expect("generated chains always convert");
    (blocks, ebv_blocks)
}

/// A tiny generated chain in both formats.
pub fn chain_pair(n: u32, seed: u64) -> (Vec<Block>, Vec<EbvBlock>) {
    build_chains(GeneratorParams::tiny(n, seed))
}

/// A tiny generated chain in EBV format.
pub fn ebv_chain(n: u32, seed: u64) -> Vec<EbvBlock> {
    chain_pair(n, seed).1
}

/// `base[..=fork]` plus `ext` fresh empty blocks (distinct `time` keeps the
/// branch's hashes off the main chain).
pub fn fork_chain(base: &[Block], fork: u32, ext: usize, time: u32) -> Vec<Block> {
    let mut chain: Vec<Block> = base[..=fork as usize].to_vec();
    for h in fork + 1..=fork + ext as u32 {
        let prev = chain.last().expect("prefix nonempty").header.hash();
        let coinbase = coinbase_tx(h, Script::new(), Vec::new());
        chain.push(build_block(prev, coinbase, Vec::new(), time, 0));
    }
    chain
}

pub fn fresh_utxos() -> UtxoSet {
    UtxoSet::new(KvStore::open(StoreConfig::with_budget(1 << 20)).expect("temp store opens"))
}

/// A baseline node on `genesis` whose cache holds 8 MiB.
pub fn fresh_baseline(genesis: &Block) -> BaselineNode {
    let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(8 << 20)).expect("store"));
    BaselineNode::new(genesis, utxos, BaselineConfig::default()).expect("boot")
}

/// `checkpoint` with one more output spent: one that is still unspent at
/// `tip`'s height, so every later block still replays cleanly and only the
/// stitch can notice.
pub fn corrupt_checkpoint(checkpoint: &BitVectorSnapshot, tip: &EbvNode) -> BitVectorSnapshot {
    let (h, pos) = (0..=checkpoint.height())
        .find_map(|h| {
            let v = tip.bitvecs().vector(h)?;
            (0..v.len())
                .find(|&p| v.is_unspent(p) == Some(true))
                .map(|p| (h, p))
        })
        .expect("some output survives the whole chain");
    let mut set = checkpoint.restore();
    set.spend(h, pos).expect("picked an unspent bit");
    set.snapshot(checkpoint.height(), checkpoint.tip_hash())
}

/// Recompute the hash links after mutating transaction `tx`'s bodies.
pub fn relink(block: &mut EbvBlock, tx: usize) {
    let hashes: Vec<_> = block.transactions[tx]
        .bodies
        .iter()
        .map(InputBody::hash)
        .collect();
    block.transactions[tx].tidy.input_hashes = hashes;
    block.header.merkle_root = block.compute_merkle_root();
}

/// A deterministically corrupted copy of `block`; `mode` selects which
/// validation phase the corruption targets: EV (a nonexistent height, a
/// forged `ELs`), value (an inflated output, outputs whose sum passes 2⁶⁴,
/// a coinbase of `u64::MAX`), SV (an emptied unlocking script), the stake
/// position, or the Merkle root.
pub fn tamper(block: &EbvBlock, mode: usize) -> EbvBlock {
    let mut b = block.clone();
    let has_spend = b.transactions.len() > 1 && b.transactions[1].bodies[0].proof.is_some();
    match if has_spend { mode % 8 } else { 5 } {
        0 => {
            // Proof claims a nonexistent height → BadHeight (EV).
            b.transactions[1].bodies[0].proof.as_mut().unwrap().height = 1_000_000;
            relink(&mut b, 1);
        }
        1 => {
            // Forged ELs value → the leaf no longer folds to the stored
            // root → EvFailed.
            let p = b.transactions[1].bodies[0].proof.as_mut().unwrap();
            let rel = p.relative_position as usize;
            p.els.outputs[rel].value += 1;
            relink(&mut b, 1);
        }
        2 => {
            // Outputs worth more than the inputs → ValueImbalance.
            b = inflate_output(&b, 1);
        }
        3 => {
            // Unlocking script emptied → SvFailed.
            b.transactions[1].bodies[0].us = Script::new();
            relink(&mut b, 1);
        }
        4 => {
            // Lying stake position → StakeMismatch.
            b.transactions[1].tidy.stake_position += 1;
            b.header.merkle_root = b.compute_merkle_root();
        }
        6 => {
            // Outputs summing past 2⁶⁴ → ValueImbalance; with no spend of
            // two outputs, the Merkle tamper.
            return overflow_outputs(block).unwrap_or_else(|| tamper(block, 5));
        }
        // A coinbase of u64::MAX → ExcessiveCoinbase.
        7 => return max_coinbase(block),
        _ => {
            // Bogus Merkle root → MerkleMismatch.
            b.header.merkle_root = sha256d(b"bogus root");
        }
    }
    b
}

/// Corrupt one byte inside the signature push of input `(tx, input)`'s
/// unlocking script — the tamper lands in the ECDSA check itself, which is
/// exactly the work the batch settles differently from the strict path.
pub fn tamper_signature(block: &EbvBlock, tx: usize, input: usize) -> EbvBlock {
    let mut b = block.clone();
    let mut bytes = b.transactions[tx].bodies[input].us.as_bytes().to_vec();
    // Byte 0 is the push-length opcode; byte 1 starts the 64-byte compact
    // signature. Flip mid-signature so both components stay in range and
    // the failure is a clean equation mismatch, not a parse error.
    bytes[20] ^= 0x01;
    b.transactions[tx].bodies[input].us = Script::from_bytes(bytes);
    relink(&mut b, tx);
    b
}

/// Same corruption for a baseline block.
pub fn tamper_baseline_signature(
    block: &ebv_chain::Block,
    tx: usize,
    input: usize,
) -> ebv_chain::Block {
    let mut b = block.clone();
    let mut bytes = b.transactions[tx].inputs[input]
        .unlocking_script
        .as_bytes()
        .to_vec();
    bytes[20] ^= 0x01;
    b.transactions[tx].inputs[input].unlocking_script = Script::from_bytes(bytes);
    b.header.merkle_root = b.compute_merkle_root();
    b
}

/// Raise output 0 of transaction `tx` far above any input value: the
/// value phase must reject it before SV sees the (now stale) signatures.
pub fn inflate_output(block: &EbvBlock, tx: usize) -> EbvBlock {
    let mut b = block.clone();
    b.transactions[tx].tidy.outputs[0].value = u64::MAX / 2;
    b.header.merkle_root = b.compute_merkle_root();
    b
}

pub fn inflate_baseline_output(block: &ebv_chain::Block, tx: usize) -> ebv_chain::Block {
    let mut b = block.clone();
    b.transactions[tx].outputs[0].value = u64::MAX / 2;
    b.header.merkle_root = b.compute_merkle_root();
    b
}

/// Set the first two outputs to `u64::MAX` and 1. Value sums saturate and
/// there is no MoneyRange rule, so an output sum past 2⁶⁴ must still read
/// as more than the inputs. These tampers change output values only, never
/// an output count: EBV derives stake positions from output counts.
pub fn overflow(outputs: &mut [TxOut]) {
    outputs[0].value = u64::MAX;
    outputs[1].value = 1;
}

/// The first spending transaction with two outputs or more, if any.
fn two_output_spend<'t>(mut outputs: impl Iterator<Item = &'t Vec<TxOut>>) -> Option<usize> {
    outputs.position(|o| o.len() >= 2).map(|i| i + 1)
}

/// The first spending transaction with two outputs or more, its first two
/// set to `u64::MAX` and 1 (→ ValueImbalance); `None` if there is none.
pub fn overflow_outputs(block: &EbvBlock) -> Option<EbvBlock> {
    let mut b = block.clone();
    let tx = two_output_spend(b.transactions[1..].iter().map(|t| &t.tidy.outputs))?;
    overflow(&mut b.transactions[tx].tidy.outputs);
    b.header.merkle_root = b.compute_merkle_root();
    Some(b)
}

pub fn overflow_baseline_outputs(block: &ebv_chain::Block) -> Option<ebv_chain::Block> {
    let mut b = block.clone();
    let tx = two_output_spend(b.transactions[1..].iter().map(|t| &t.outputs))?;
    overflow(&mut b.transactions[tx].outputs);
    b.header.merkle_root = b.compute_merkle_root();
    Some(b)
}

/// A coinbase that claims `u64::MAX` (→ ExcessiveCoinbase).
pub fn max_coinbase(block: &EbvBlock) -> EbvBlock {
    let mut b = block.clone();
    b.transactions[0].tidy.outputs[0].value = u64::MAX;
    b.header.merkle_root = b.compute_merkle_root();
    b
}

pub fn max_baseline_coinbase(block: &ebv_chain::Block) -> ebv_chain::Block {
    let mut b = block.clone();
    b.transactions[0].outputs[0].value = u64::MAX;
    b.header.merkle_root = b.compute_merkle_root();
    b
}

/// The strict reference: each input's script run on its own through
/// `verify_spend` with the strict `DigestChecker`, in `(tx, input)` order,
/// reading the spent output from the input's proof. Returns the first
/// failure as `(tx, input, err)`.
pub fn strict_oracle(block: &EbvBlock) -> Option<(usize, usize, ScriptError)> {
    let cache = PubkeyCache::new();
    for (tx, t) in block.transactions.iter().enumerate().skip(1) {
        let proofs: Vec<_> = t
            .bodies
            .iter()
            .map(|body| body.proof.as_ref().expect("spending input carries a proof"))
            .collect();
        let coords: Vec<(u32, u32)> = proofs
            .iter()
            .map(|p| (p.height, p.absolute_position()))
            .collect();
        for (input, (body, proof)) in t.bodies.iter().zip(&proofs).enumerate() {
            let spent = proof.spent_output().expect("honest proof inside ELs");
            let digest = spend_sighash(
                t.tidy.version,
                &coords,
                &t.tidy.outputs,
                t.tidy.lock_time,
                input as u32,
            );
            let checker = DigestChecker::with_context(digest, t.tidy.lock_time, &cache);
            if let Err(err) = verify_spend(&body.us, &spent.locking_script, &checker) {
                return Some((tx, input, err));
            }
        }
    }
    None
}
