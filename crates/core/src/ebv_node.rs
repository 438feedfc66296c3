//! The EBV node (paper §IV): the bit-vector set as the input state of the
//! shared validation pipeline ([`crate::validate`]).
//!
//! State kept in memory: the header chain (80 bytes/block) and the
//! bit-vector set. Block validation never touches a database. The
//! bit-vector set resolves a block's inputs in two phases:
//!
//! * **EV** — fold each input's Merkle branch from its `ELs` leaf and
//!   compare against the stored header of the claimed height; inline,
//!   because a thread scope per block costs more than splitting the folds
//!   saves;
//! * **UV** — probe the bit at `(height, stake + relative)`; sequential,
//!   because intra-block duplicate detection is order-dependent.
//!
//! Its structure checks recompute the stake positions of the incoming
//! block and compare, defeating fake-position attacks at packaging time.
//! Value, midstates and SV are the pipeline's, shared with the baseline.

use crate::bitvec::{BitVectorSet, BitVectorSetSize, UvError};
use crate::metrics::Breakdown;
use crate::tidy::{EbvBlock, EbvTransaction, InputProof, TxIntegrityError};
use crate::validate::{InputState, Node, Probes, Rejection, Spend, TxFields};
use ebv_chain::transaction::TxOut;
use ebv_chain::BlockHeader;
use ebv_primitives::hash::Hash256;
use ebv_script::ScriptError;
use ebv_telemetry::{counter, gauge, histogram, span, trace_event};

/// Why an EBV block was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EbvError {
    /// `prev_block_hash` does not extend the tip.
    NotOnTip,
    /// Header fails its own PoW claim.
    InsufficientWork,
    /// Merkle root does not match the tidy leaves.
    MerkleMismatch,
    /// Block has no transactions or a malformed coinbase position.
    BadCoinbase,
    /// A transaction's stake position differs from the recomputed value.
    StakeMismatch { tx: usize, expected: u32, got: u32 },
    /// Body/hash integrity failure.
    Integrity { tx: usize, err: TxIntegrityError },
    /// An input spends an output from a non-existent or future block.
    BadHeight {
        tx: usize,
        input: usize,
        height: u32,
    },
    /// Existence Validation failed: branch does not fold to the header
    /// root.
    EvFailed { tx: usize, input: usize },
    /// The claimed relative position is outside `ELs`'s outputs.
    PositionOutOfEls { tx: usize, input: usize },
    /// Unspent Validation failed.
    UvFailed {
        tx: usize,
        input: usize,
        err: UvError,
    },
    /// Two inputs of this block spend the same output.
    DuplicateSpend { height: u32, position: u32 },
    /// Script Validation failed.
    SvFailed {
        tx: usize,
        input: usize,
        err: ScriptError,
    },
    /// Inputs are worth less than outputs.
    ValueImbalance { tx: usize },
    /// Coinbase claims more than subsidy + fees.
    ExcessiveCoinbase,
    /// Internal consistency failure in the commit or disconnect path —
    /// state that earlier phases guaranteed was absent. Formerly a panic;
    /// typed so sync and reorg callers can abort cleanly.
    Internal(&'static str),
}

impl std::fmt::Display for EbvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for EbvError {}

/// Tuning knobs (ablations).
#[derive(Clone, Copy, Debug)]
pub struct EbvConfig {
    /// Threads SV's batch chunks settle on, the validating thread
    /// included; `None` uses every available core, 1 runs SV inline.
    /// Every count returns identical verdicts.
    pub workers: Option<usize>,
    /// Check the header PoW (disabled in some microbenches).
    pub check_pow: bool,
}

impl Default for EbvConfig {
    fn default() -> Self {
        EbvConfig {
            workers: None,
            check_pow: true,
        }
    }
}

impl From<Rejection> for EbvError {
    fn from(rejection: Rejection) -> EbvError {
        match rejection {
            Rejection::NotOnTip => EbvError::NotOnTip,
            Rejection::ValueImbalance { tx } => EbvError::ValueImbalance { tx },
            Rejection::ExcessiveCoinbase => EbvError::ExcessiveCoinbase,
            Rejection::SvFailed { tx, input, err } => EbvError::SvFailed { tx, input, err },
        }
    }
}

/// Undo data for one connected block: everything needed to disconnect it
/// again (the EBV analogue of Bitcoin's undo files, kept in memory here).
#[derive(Clone, Debug, Default)]
pub struct BlockUndo {
    /// Coordinates this block spent, in application order.
    spends: Vec<(u32, u32)>,
    /// Vectors deleted because this block's spends emptied them:
    /// `(height, output count)`.
    deleted_vectors: Vec<(u32, u32)>,
    /// Output count of the block itself (its own vector's width).
    outputs: u32,
}

/// EV for input `(tx, input)`: its proof's branch must fold from the
/// `ELs` leaf to the Merkle root of the header at the claimed height, and
/// the claimed position must lie inside `ELs`. Returns the spent output.
/// Blocks and the mempool run this same check.
///
/// `headers` holds exactly the blocks below the one being validated, so a
/// same-block or future reference fails with `BadHeight`.
pub(crate) fn existence<'p>(
    headers: &[BlockHeader],
    proof: &'p InputProof,
    tx: usize,
    input: usize,
) -> Result<&'p TxOut, EbvError> {
    let Some(header) = headers.get(proof.height as usize) else {
        let height = proof.height;
        return Err(EbvError::BadHeight { tx, input, height });
    };
    // The leaf hash is computed once here and folded straight into the
    // branch; no other phase rehashes `ELs`.
    if !proof
        .mbr
        .verify(&proof.els.leaf_hash(), &header.merkle_root)
    {
        return Err(EbvError::EvFailed { tx, input });
    }
    proof
        .spent_output()
        .ok_or(EbvError::PositionOutOfEls { tx, input })
}

/// Why [`EbvNode::from_snapshot`] refused to boot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Header chain length does not cover `0..=snapshot.height()`.
    HeaderCount { expected: usize, got: usize },
    /// `headers[height]` does not link to its predecessor's hash.
    BrokenHeaderLink { height: u32 },
    /// A header fails its own PoW claim (only with `check_pow`).
    InsufficientWork { height: u32 },
    /// The snapshot's tip hash is not the hash of the last header.
    TipHashMismatch,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for SnapshotError {}

/// Record a snapshot rejection before returning it: the event goes into
/// the trace (carrying the caller's trace context — e.g. the parallel-IBD
/// interval that tried to boot) and the flight recorder bundles the
/// causal chain. A refused checkpoint is a trust decision worth evidence.
fn reject_snapshot(snapshot_height: u32, err: SnapshotError) -> SnapshotError {
    if ebv_telemetry::enabled() {
        trace_event!(
            "ebv.snapshot_rejected",
            snapshot_height = snapshot_height,
            reason = format!("{err:?}"),
        );
        ebv_telemetry::flight::dump(
            "ebv.snapshot_rejected",
            ebv_telemetry::context::current_trace(),
            &[(
                "snapshot",
                format!("{{\"height\":{snapshot_height},\"reason\":\"{err:?}\"}}"),
            )],
        );
    }
    err
}

/// The EBV node: headers + bit-vector set, nothing else.
pub type EbvNode = Node<BitVectorSet>;

impl EbvNode {
    /// Boot from a genesis block (validated structurally only).
    pub fn new(genesis: &EbvBlock, config: EbvConfig) -> EbvNode {
        let mut bitvecs = BitVectorSet::new();
        bitvecs.insert_block(0, genesis.output_count());
        Node::boot(vec![genesis.header], bitvecs, config, 0)
    }

    /// Boot from a state checkpoint instead of replaying from genesis.
    ///
    /// `headers` must be the full header chain `0..=snapshot.height()` —
    /// EV needs every historical Merkle root, so snapshot boot trades only
    /// the *replay*, not the (cheap, 80 bytes/block) header download. The
    /// chain is verified here: linkage, PoW (under `check_pow`), and that
    /// its tip hashes to the snapshot's claimed tip. The bit-vector set
    /// itself is taken on trust — snapshot-parallel IBD discharges that
    /// trust at the stitch, where a predecessor interval must reproduce
    /// these exact bytes.
    pub fn from_snapshot(
        snapshot: &crate::bitvec::BitVectorSnapshot,
        headers: Vec<BlockHeader>,
        config: EbvConfig,
    ) -> Result<EbvNode, SnapshotError> {
        let expected = snapshot.height() as usize + 1;
        if headers.len() != expected {
            return Err(reject_snapshot(
                snapshot.height(),
                SnapshotError::HeaderCount {
                    expected,
                    got: headers.len(),
                },
            ));
        }
        let mut prev_hash = None;
        for (h, header) in headers.iter().enumerate() {
            if let Some(prev) = prev_hash {
                if header.prev_block_hash != prev {
                    return Err(reject_snapshot(
                        snapshot.height(),
                        SnapshotError::BrokenHeaderLink { height: h as u32 },
                    ));
                }
            }
            if config.check_pow && !header.meets_target() {
                return Err(reject_snapshot(
                    snapshot.height(),
                    SnapshotError::InsufficientWork { height: h as u32 },
                ));
            }
            prev_hash = Some(header.hash());
        }
        if prev_hash != Some(snapshot.tip_hash()) {
            return Err(reject_snapshot(
                snapshot.height(),
                SnapshotError::TipHashMismatch,
            ));
        }
        Ok(Node::boot(
            headers,
            snapshot.restore(),
            config,
            snapshot.height(),
        ))
    }

    /// Serialize the node's full validation state at the current tip.
    pub fn snapshot(&self) -> crate::bitvec::BitVectorSnapshot {
        self.bitvecs().snapshot(self.tip_height(), self.tip_hash())
    }

    /// Digest of the canonical snapshot encoding: two nodes at the same
    /// state — however they got there — produce the same digest.
    pub fn state_digest(&self) -> Hash256 {
        self.snapshot().digest()
    }

    /// Memory requirement of the status data (bit-vector set).
    pub fn status_memory(&self) -> BitVectorSetSize {
        self.bitvecs().memory()
    }

    /// Outputs still unspent across all blocks.
    pub fn total_unspent(&self) -> u64 {
        self.bitvecs().total_unspent()
    }

    /// Direct bit-vector access (tests, figures).
    pub fn bitvecs(&self) -> &BitVectorSet {
        self.state()
    }
}

impl InputState for BitVectorSet {
    type Block = EbvBlock;
    type Error = EbvError;
    type Config = EbvConfig;
    /// The coordinates UV probed unspent, which the commit spends.
    type Resolved = Vec<(u32, u32)>;
    type Undo = BlockUndo;

    fn probes() -> Probes {
        Probes {
            block: "ebv.block",
            structure: histogram!("ebv.structure"),
            value: histogram!("ebv.value_midstate"),
            sv: histogram!("ebv.sv"),
            block_total: histogram!("ebv.block_total"),
            blocks_connected: counter!("ebv.blocks_connected"),
            window_blocks: histogram!("ebv.window_blocks"),
            window_rollbacks: counter!("ebv.window_rollbacks"),
            block_disconnected: "ebv.block_disconnected",
            blocks_disconnected: counter!("ebv.blocks_disconnected"),
        }
    }

    fn header(block: &EbvBlock) -> &BlockHeader {
        &block.header
    }

    fn tx_fields(block: &EbvBlock) -> Vec<TxFields<'_>> {
        block
            .transactions
            .iter()
            .map(|tx| TxFields {
                version: tx.tidy.version,
                outputs: &tx.tidy.outputs,
                lock_time: tx.tidy.lock_time,
            })
            .collect()
    }

    fn workers(config: &EbvConfig) -> Option<usize> {
        config.workers
    }

    fn is_not_on_tip(err: &EbvError) -> bool {
        matches!(err, EbvError::NotOnTip)
    }

    fn check_structure(block: &EbvBlock, config: &EbvConfig) -> Result<(), EbvError> {
        if config.check_pow && !block.header.meets_target() {
            return Err(EbvError::InsufficientWork);
        }
        if block.transactions.is_empty() || !block.transactions[0].is_coinbase() {
            return Err(EbvError::BadCoinbase);
        }
        if block.transactions[1..]
            .iter()
            .any(EbvTransaction::is_coinbase)
        {
            return Err(EbvError::BadCoinbase);
        }
        let stakes = block.expected_stake_positions();
        for (i, tx) in block.transactions.iter().enumerate() {
            if tx.tidy.stake_position != stakes[i] {
                return Err(EbvError::StakeMismatch {
                    tx: i,
                    expected: stakes[i],
                    got: tx.tidy.stake_position,
                });
            }
            tx.check_integrity()
                .map_err(|err| EbvError::Integrity { tx: i, err })?;
        }
        if block.compute_merkle_root() != block.header.merkle_root {
            return Err(EbvError::MerkleMismatch);
        }
        Ok(())
    }

    fn resolve<'b>(
        &mut self,
        headers: &[BlockHeader],
        block: &'b EbvBlock,
        spent: &'b mut Vec<(u32, u32)>,
        breakdown: &mut Breakdown,
    ) -> Result<Vec<Spend<'b>>, EbvError> {
        // ---- EV: Merkle branches against stored headers ----------------
        let span_ev = span!("ebv.ev", &mut breakdown.ev);
        let spends = block
            .transactions
            .iter()
            .enumerate()
            .skip(1)
            .flat_map(|(tx, t)| t.bodies.iter().enumerate().map(move |(j, b)| (tx, j, b)))
            .map(|(tx, input, body)| {
                let proof = body.proof.as_ref().expect("non-coinbase checked");
                existence(headers, proof, tx, input).map(|output| Spend {
                    tx,
                    input,
                    unlocking: &body.us,
                    value: output.value,
                    locking: &output.locking_script,
                    coord: (proof.height, proof.absolute_position()),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        drop(span_ev);

        // ---- UV: bit probes + intra-block duplicate detection ----------
        // Sequential by design: duplicate detection must see spends in
        // `(tx, input)` order for the first-duplicate error to be
        // deterministic, and a bit probe is orders of magnitude cheaper
        // than a branch fold.
        let _span_uv = span!("ebv.uv", &mut breakdown.uv);
        let mut seen = std::collections::HashSet::with_capacity(spends.len());
        for s in &spends {
            let (height, position) = s.coord;
            self.check_unspent(height, position)
                .map_err(|err| EbvError::UvFailed {
                    tx: s.tx,
                    input: s.input,
                    err,
                })?;
            if !seen.insert(s.coord) {
                return Err(EbvError::DuplicateSpend { height, position });
            }
            spent.push(s.coord);
        }
        Ok(spends)
    }

    fn commit(
        &mut self,
        block: &EbvBlock,
        height: u32,
        spent: Vec<(u32, u32)>,
        breakdown: &mut Breakdown,
    ) -> Result<BlockUndo, EbvError> {
        let _span_commit = span!("ebv.commit", &mut breakdown.commit);
        let outputs = block.output_count();
        self.insert_block(height, outputs);
        let mut deleted_vectors = Vec::new();
        for &(height, position) in &spent {
            // UV probed each coordinate unspent and rejected duplicates, so
            // a failure here means the bit-vector set itself is corrupt.
            let deleted = self.spend(height, position).map_err(|_| {
                EbvError::Internal("commit: spend failed for a coordinate UV probed unspent")
            })?;
            if let Some(len) = deleted {
                deleted_vectors.push((height, len));
            }
        }
        Ok(BlockUndo {
            spends: spent,
            deleted_vectors,
            outputs,
        })
    }

    fn connected(&self, first: u32, blocks: &[EbvBlock]) {
        if ebv_telemetry::enabled() {
            // `memory()` walks every vector; only refresh the gauges when
            // someone is collecting them, once per window.
            let size = self.memory();
            gauge!("ebv.bitvec.resident_bytes").set(size.optimized);
            gauge!("ebv.bitvec.vectors").set(size.vectors);
            gauge!("ebv.bitvec.sparse_vectors").set(size.sparse_vectors);
            gauge!("ebv.bitvec.dense_vectors").set(size.dense_vectors);
            for (height, block) in (first..).zip(blocks) {
                trace_event!(
                    "ebv.block_connected",
                    height = height,
                    txs = block.transactions.len(),
                );
            }
        }
    }

    fn disconnect(&mut self, height: u32, undo: BlockUndo) -> Result<(), EbvError> {
        // The tip's own vector always exists: no later block can have
        // spent from it, and it has at least the coinbase output.
        debug_assert_eq!(
            self.vector(height).map(|v| v.len()),
            Some(undo.outputs),
            "tip vector must be intact at disconnect"
        );
        self.remove_block(height);
        // Restore fully-spent vectors this block deleted, then re-set all
        // of its spends (reverse order for symmetry; operations commute).
        for &(height, len) in &undo.deleted_vectors {
            self.insert_all_spent(height, len);
        }
        for &(height, position) in undo.spends.iter().rev() {
            self.unspend(height, position).map_err(|_| {
                EbvError::Internal("disconnect: undo data does not mirror applied spends")
            })?;
        }
        Ok(())
    }

    fn check_invariants(&self, tip: u32) -> Result<(), String> {
        // Every bit vector must sit at a height the header chain covers.
        if let Some(bad) = self.heights().find(|&h| h > tip) {
            return Err(format!(
                "bit vector exists at height {bad} above the tip {tip}"
            ));
        }
        // The tip's own vector must exist: nothing above it could have
        // spent it empty.
        if self.vector(tip).is_none() {
            return Err(format!("tip vector missing at height {tip}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{ebv_coinbase, pack_ebv_block};
    use crate::proofs::ProofArchive;
    use crate::tidy::InputBody;
    use ebv_chain::transaction::spend_sighash;
    use ebv_chain::BLOCK_SUBSIDY;
    use ebv_primitives::ec::PrivateKey;
    use ebv_script::standard::{p2pkh_lock, p2pkh_unlock};
    use ebv_script::Script;

    /// Build a 2-block chain: genesis pays the miner, block 1 spends the
    /// genesis coinbase output. Returns (node pre-block-1, block 1).
    fn two_block_fixture() -> (EbvNode, EbvBlock, ProofArchive) {
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let genesis_cb = ebv_coinbase(0, p2pkh_lock(&pk.address_hash()));
        let genesis = pack_ebv_block(Hash256::ZERO, vec![genesis_cb], 0, 0);
        let mut archive = ProofArchive::new();
        archive.add_block(0, &genesis);

        let node = EbvNode::new(&genesis, EbvConfig::default());

        // Spend genesis coinbase output (height 0, abs position 0).
        let proof = archive.make_proof(0, 0).expect("genesis output exists");
        let recipient = PrivateKey::from_seed(101).public_key();
        let outputs = vec![TxOut::new(
            BLOCK_SUBSIDY - 1000,
            p2pkh_lock(&recipient.address_hash()),
        )];
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        let us = p2pkh_unlock(
            &crate::sighash::sign_input(&sk, &digest),
            &pk.to_compressed(),
        );
        let spend = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us,
                proof: Some(proof),
            }],
            outputs,
            0,
        );
        let cb1 = ebv_coinbase(1, p2pkh_lock(&pk.address_hash()));
        let block1 = pack_ebv_block(genesis.header.hash(), vec![cb1, spend], 1, 0);
        (node, block1, archive)
    }

    #[test]
    fn valid_block_accepted_and_state_updated() {
        let (mut node, block1, _) = two_block_fixture();
        let breakdown = node.process_block(&block1).expect("valid block");
        assert!(breakdown.total() > std::time::Duration::ZERO);
        assert_eq!(node.tip_height(), 1);
        // Genesis had 1 output, now spent → its vector is gone; block 1 has
        // 2 outputs (coinbase + spend change).
        assert_eq!(node.bitvecs().len(), 1);
        assert_eq!(node.total_unspent(), 2);
    }

    #[test]
    fn rejects_double_spend_across_blocks() {
        let (mut node, block1, archive) = two_block_fixture();
        node.process_block(&block1).unwrap();

        // A second spend of the same genesis output.
        let sk = PrivateKey::from_seed(100);
        let proof = archive.make_proof(0, 0).unwrap();
        let outputs = vec![TxOut::new(1000, Script::new())];
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        let us = p2pkh_unlock(
            &crate::sighash::sign_input(&sk, &digest),
            &sk.public_key().to_compressed(),
        );
        let double = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us,
                proof: Some(proof),
            }],
            outputs,
            0,
        );
        let cb2 = ebv_coinbase(2, Script::new());
        let block2 = pack_ebv_block(block1.header.hash(), vec![cb2, double], 2, 0);
        match node.process_block(&block2) {
            Err(EbvError::UvFailed {
                err: UvError::UnknownHeight(0),
                ..
            }) => {}
            other => panic!("expected UV failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_spend_within_block() {
        let (mut node, block1, archive) = two_block_fixture();
        // Two copies of the same spending tx in one block (distinct outputs
        // so the txs differ, same spent coordinate).
        let sk = PrivateKey::from_seed(100);
        let mk_spend = |amount: u64| {
            let proof = archive.make_proof(0, 0).unwrap();
            let outputs = vec![TxOut::new(amount, Script::new())];
            let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
            let us = p2pkh_unlock(
                &crate::sighash::sign_input(&sk, &digest),
                &sk.public_key().to_compressed(),
            );
            EbvTransaction::from_parts(
                1,
                vec![InputBody {
                    us,
                    proof: Some(proof),
                }],
                outputs,
                0,
            )
        };
        let cb1 = ebv_coinbase(1, Script::new());
        let block = pack_ebv_block(
            block1.header.prev_block_hash,
            vec![cb1, mk_spend(100), mk_spend(200)],
            1,
            0,
        );
        match node.process_block(&block) {
            Err(EbvError::DuplicateSpend {
                height: 0,
                position: 0,
            }) => {}
            other => panic!("expected duplicate-spend rejection, got {other:?}"),
        }
    }

    #[test]
    fn rejects_fake_stake_position() {
        let (mut node, mut block1, _) = two_block_fixture();
        // Tamper with the spend tx's stake position (as a lying miner
        // would); Merkle root is recomputed so only the stake check fires.
        block1.transactions[1].tidy.stake_position += 1;
        block1.header.merkle_root = block1.compute_merkle_root();
        // Re-mine not needed at bits=0.
        match node.process_block(&block1) {
            Err(EbvError::StakeMismatch { tx: 1, .. }) => {}
            other => panic!("expected stake mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_forged_els() {
        let (mut node, mut block1, _) = two_block_fixture();
        // Inflate the spent output's value inside ELs: EV must catch the
        // forged leaf.
        {
            let body = &mut block1.transactions[1].bodies[0];
            let proof = body.proof.as_mut().unwrap();
            proof.els.outputs[0].value *= 2;
        }
        // Re-link body hashes + merkle so only EV can catch it.
        let bodies = block1.transactions[1].bodies.clone();
        block1.transactions[1].tidy.input_hashes = bodies.iter().map(InputBody::hash).collect();
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(EbvError::EvFailed { tx: 1, input: 0 }) => {}
            other => panic!("expected EV failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_future_height_reference() {
        let (mut node, mut block1, _) = two_block_fixture();
        {
            let body = &mut block1.transactions[1].bodies[0];
            body.proof.as_mut().unwrap().height = 999;
        }
        let bodies = block1.transactions[1].bodies.clone();
        block1.transactions[1].tidy.input_hashes = bodies.iter().map(InputBody::hash).collect();
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(EbvError::BadHeight { height: 999, .. }) => {}
            other => panic!("expected bad-height rejection, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_signature() {
        let (mut node, mut block1, _) = two_block_fixture();
        // Replace the unlocking script with one signed by the wrong key.
        let wrong = PrivateKey::from_seed(999);
        let outputs = block1.transactions[1].tidy.outputs.clone();
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        block1.transactions[1].bodies[0].us = p2pkh_unlock(
            &crate::sighash::sign_input(&wrong, &digest),
            &wrong.public_key().to_compressed(),
        );
        let bodies = block1.transactions[1].bodies.clone();
        block1.transactions[1].tidy.input_hashes = bodies.iter().map(InputBody::hash).collect();
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(EbvError::SvFailed {
                tx: 1, input: 0, ..
            }) => {}
            other => panic!("expected SV failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_value_inflation() {
        let (mut node, mut block1, _) = two_block_fixture();
        // Outputs exceed the spent input's value.
        block1.transactions[1].tidy.outputs[0].value = BLOCK_SUBSIDY * 2;
        block1.header.merkle_root = block1.compute_merkle_root();
        // Signature is now stale too, but value check runs before SV.
        match node.process_block(&block1) {
            Err(EbvError::ValueImbalance { tx: 1 }) => {}
            other => panic!("expected value imbalance, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_prev_hash_and_merkle() {
        let (mut node, block1, _) = two_block_fixture();
        let mut wrong_prev = block1.clone();
        wrong_prev.header.prev_block_hash = Hash256::ZERO;
        assert_eq!(node.process_block(&wrong_prev), Err(EbvError::NotOnTip));

        let mut wrong_merkle = block1.clone();
        wrong_merkle.header.merkle_root = Hash256::ZERO;
        assert_eq!(
            node.process_block(&wrong_merkle),
            Err(EbvError::MerkleMismatch)
        );
    }

    #[test]
    fn rejects_same_block_height_reference() {
        // A proof claiming the spent output was created *in this very
        // block* (height == new tip height) must be rejected: the header
        // chain only holds blocks strictly below the one being validated.
        // Regression test for a removed redundant `height >= new_height`
        // guard — `header_at` alone must catch this.
        let (mut node, mut block1, _) = two_block_fixture();
        {
            let body = &mut block1.transactions[1].bodies[0];
            body.proof.as_mut().unwrap().height = 1; // block1's own height
        }
        let bodies = block1.transactions[1].bodies.clone();
        block1.transactions[1].tidy.input_hashes = bodies.iter().map(InputBody::hash).collect();
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(EbvError::BadHeight {
                tx: 1,
                input: 0,
                height: 1,
            }) => {}
            other => panic!("expected same-block height rejection, got {other:?}"),
        }
    }

    #[test]
    fn sequential_sv_matches_parallel() {
        let (_, block1, _) = two_block_fixture();
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let genesis_cb = ebv_coinbase(0, p2pkh_lock(&pk.address_hash()));
        let genesis = pack_ebv_block(Hash256::ZERO, vec![genesis_cb], 0, 0);
        let config = EbvConfig {
            workers: Some(1),
            ..EbvConfig::default()
        };
        let mut seq_node = EbvNode::new(&genesis, config);
        seq_node
            .process_block(&block1)
            .expect("sequential pipeline accepts the same block");
        assert_eq!(seq_node.tip_height(), 1);
    }

    #[test]
    fn worker_override_accepts_block() {
        let (_, block1, _) = two_block_fixture();
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let genesis_cb = ebv_coinbase(0, p2pkh_lock(&pk.address_hash()));
        let genesis = pack_ebv_block(Hash256::ZERO, vec![genesis_cb], 0, 0);
        let config = EbvConfig {
            workers: Some(2),
            ..EbvConfig::default()
        };
        let mut node = EbvNode::new(&genesis, config);
        node.process_block(&block1)
            .expect("worker override accepts the same block");
        assert_eq!(node.tip_height(), 1);
        let breakdown = node.cumulative_breakdown();
        assert!(breakdown.commit > std::time::Duration::ZERO);
    }

    #[test]
    fn snapshot_boot_matches_genesis_boot() {
        let (mut node, block1, _) = two_block_fixture();
        node.process_block(&block1).expect("valid block");

        // Boot a second node from the first node's snapshot.
        let snap = node.snapshot();
        let headers = vec![*node.header_at(0).unwrap(), *node.header_at(1).unwrap()];
        let booted = EbvNode::from_snapshot(&snap, headers, EbvConfig::default())
            .expect("snapshot boot succeeds");
        assert_eq!(booted.tip_height(), 1);
        assert_eq!(booted.tip_hash(), node.tip_hash());
        assert_eq!(booted.base_height(), 1);
        assert_eq!(booted.total_unspent(), node.total_unspent());
        assert_eq!(booted.state_digest(), node.state_digest());
        booted.check_invariants().expect("invariants hold at boot");
        // Nothing above the boot height has been connected yet, so there
        // is nothing to disconnect.
        let mut booted = booted;
        assert_eq!(booted.disconnect_tip(), Ok(None));
    }

    #[test]
    fn snapshot_boot_rejects_bad_headers() {
        let (mut node, block1, _) = two_block_fixture();
        node.process_block(&block1).expect("valid block");
        let snap = node.snapshot();
        let h0 = *node.header_at(0).unwrap();
        let h1 = *node.header_at(1).unwrap();

        // Too few headers.
        assert_eq!(
            EbvNode::from_snapshot(&snap, vec![h0], EbvConfig::default()),
            Err(SnapshotError::HeaderCount {
                expected: 2,
                got: 1
            })
        );
        // Broken linkage.
        let mut unlinked = h1;
        unlinked.prev_block_hash = Hash256::ZERO;
        assert_eq!(
            EbvNode::from_snapshot(&snap, vec![h0, unlinked], EbvConfig::default()),
            Err(SnapshotError::BrokenHeaderLink { height: 1 })
        );
        // Right chain, wrong snapshot tip: mutate the tip header's nonce so
        // linkage still holds but the tip hash differs.
        let mut wrong_tip = h1;
        wrong_tip.nonce ^= 1;
        assert_eq!(
            EbvNode::from_snapshot(&snap, vec![h0, wrong_tip], EbvConfig::default()),
            Err(SnapshotError::TipHashMismatch)
        );
    }

    impl PartialEq for EbvNode {
        fn eq(&self, other: &EbvNode) -> bool {
            self.tip_hash() == other.tip_hash() && self.state_digest() == other.state_digest()
        }
    }

    impl std::fmt::Debug for EbvNode {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("EbvNode")
                .field("tip_height", &self.tip_height())
                .field("tip_hash", &self.tip_hash())
                .finish()
        }
    }
}
