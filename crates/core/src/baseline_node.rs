//! The Bitcoin-baseline validator node (paper §II-B, Fig. 3): the UTXO
//! set as the input state of the shared validation pipeline
//! ([`crate::validate`]).
//!
//! Input checking fetches each input's outpoint from the UTXO set (EV+UV
//! in one database probe), the pipeline runs SV with the fetched locking
//! script, then the commit deletes spent entries and inserts the new
//! outputs — the Fetch / Delete / Insert DBO cycle whose cost dominates
//! Figs. 4 and 5 once the set outgrows the cache budget.

use crate::metrics::Breakdown;
use crate::validate::{InputState, Node, NodeConfig, Probes, Rejection, Spend, TxFields};
use ebv_chain::{Block, BlockHeader, BlockStructureError, OutPoint, TxIn};
use ebv_script::ScriptError;
use ebv_store::{UtxoEntry, UtxoError, UtxoSet};
use ebv_telemetry::{counter, histogram, span, trace_event};

/// Why a baseline block was rejected.
#[derive(Debug)]
pub enum BaselineError {
    /// `prev_block_hash` does not extend the tip.
    NotOnTip,
    /// Context-free structure failure.
    Structure(BlockStructureError),
    /// An input's outpoint is not in the UTXO set (nonexistent or spent —
    /// indistinguishable here, as the paper notes).
    MissingUtxo {
        tx: usize,
        input: usize,
        outpoint: OutPoint,
    },
    /// Two inputs of the block spend the same outpoint.
    DuplicateSpend(OutPoint),
    /// Script Validation failed.
    SvFailed {
        tx: usize,
        input: usize,
        err: ScriptError,
    },
    /// Inputs worth less than outputs.
    ValueImbalance { tx: usize },
    /// Coinbase claims more than subsidy + fees.
    ExcessiveCoinbase,
    /// Database failure.
    Store(UtxoError),
}

impl From<UtxoError> for BaselineError {
    fn from(e: UtxoError) -> Self {
        BaselineError::Store(e)
    }
}

impl From<Rejection> for BaselineError {
    fn from(rejection: Rejection) -> BaselineError {
        match rejection {
            Rejection::NotOnTip => BaselineError::NotOnTip,
            Rejection::ValueImbalance { tx } => BaselineError::ValueImbalance { tx },
            Rejection::ExcessiveCoinbase => BaselineError::ExcessiveCoinbase,
            Rejection::SvFailed { tx, input, err } => BaselineError::SvFailed { tx, input, err },
        }
    }
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for BaselineError {}

/// The baseline node's tuning knobs: the one [`NodeConfig`].
pub type BaselineConfig = NodeConfig;

/// Undo data for one connected baseline block — the in-memory analogue of
/// Bitcoin's undo (`rev*.dat`) files.
#[derive(Clone, Debug, Default)]
pub struct BaselineUndo {
    /// Entries this block deleted (spent), with their outpoints.
    spent: Vec<(OutPoint, UtxoEntry)>,
    /// Outpoints (and entries) this block created.
    created: Vec<(OutPoint, UtxoEntry)>,
}

/// The baseline node: headers in memory, UTXO set in the status database.
pub type BaselineNode = Node<UtxoSet>;

impl BaselineNode {
    /// Boot from a genesis block, inserting its outputs into the UTXO set.
    pub fn new(
        genesis: &Block,
        mut utxos: UtxoSet,
        config: BaselineConfig,
    ) -> Result<BaselineNode, BaselineError> {
        insert_outputs(&mut utxos, genesis, 0)?;
        Ok(Node::boot(vec![genesis.header], utxos, config, 0))
    }

    /// The UTXO set (size and DBO statistics).
    pub fn utxos(&self) -> &UtxoSet {
        self.state()
    }
}

/// Insert every output of `block` (created at `height`), returning what
/// was inserted.
fn insert_outputs(
    utxos: &mut UtxoSet,
    block: &Block,
    height: u32,
) -> Result<Vec<(OutPoint, UtxoEntry)>, UtxoError> {
    let mut created = Vec::with_capacity(block.output_count());
    let mut position = 0u32;
    for tx in &block.transactions {
        let txid = tx.txid();
        let coinbase = tx.is_coinbase();
        for (vout, output) in tx.outputs.iter().enumerate() {
            let entry = UtxoEntry {
                value: output.value,
                locking_script: output.locking_script.clone(),
                height,
                position,
                coinbase,
            };
            let outpoint = OutPoint::new(txid, vout as u32);
            utxos.insert(&outpoint, &entry)?;
            created.push((outpoint, entry));
            position += 1;
        }
    }
    Ok(created)
}

/// Every non-coinbase input of `block` with its coordinates, in
/// `(tx, input)` order.
fn spending_inputs(block: &Block) -> impl Iterator<Item = (usize, usize, &TxIn)> {
    block
        .transactions
        .iter()
        .enumerate()
        .skip(1)
        .flat_map(|(tx, t)| t.inputs.iter().enumerate().map(move |(j, i)| (tx, j, i)))
}

impl InputState for UtxoSet {
    type Block = Block;
    type Error = BaselineError;
    /// The entries the fetch found, in input order; the commit deletes
    /// them and keeps them as undo data.
    type Resolved = Vec<UtxoEntry>;
    type Undo = BaselineUndo;

    fn probes() -> Probes {
        Probes {
            block: "baseline.block",
            structure: histogram!("baseline.structure"),
            value: histogram!("baseline.value"),
            sv: histogram!("baseline.sv"),
            block_total: histogram!("baseline.block_total"),
            blocks_connected: counter!("baseline.blocks_connected"),
            window_blocks: histogram!("baseline.window_blocks"),
            window_rollbacks: counter!("baseline.window_rollbacks"),
            block_disconnected: "baseline.block_disconnected",
            blocks_disconnected: counter!("baseline.blocks_disconnected"),
        }
    }

    fn header(block: &Block) -> &BlockHeader {
        &block.header
    }

    fn tx_fields(block: &Block) -> Vec<TxFields<'_>> {
        block
            .transactions
            .iter()
            .map(|tx| TxFields {
                version: tx.version,
                outputs: &tx.outputs,
                lock_time: tx.lock_time,
            })
            .collect()
    }

    fn is_not_on_tip(err: &BaselineError) -> bool {
        matches!(err, BaselineError::NotOnTip)
    }

    fn check_structure(block: &Block) -> Result<(), BaselineError> {
        block.check_structure().map_err(BaselineError::Structure)
    }

    fn resolve<'b>(
        &mut self,
        _headers: &[BlockHeader],
        block: &'b Block,
        fetched: &'b mut Vec<UtxoEntry>,
        breakdown: &mut Breakdown,
    ) -> Result<Vec<Spend<'b>>, BaselineError> {
        // ---- DBO: fetch every input's UTXO entry (EV+UV) ----------------
        let _span_fetch = span!("baseline.dbo_fetch", &mut breakdown.dbo);
        let mut seen = std::collections::HashSet::with_capacity(block.input_count());
        for (tx, input, txin) in spending_inputs(block) {
            if !seen.insert(txin.prevout) {
                return Err(BaselineError::DuplicateSpend(txin.prevout));
            }
            match self.fetch(&txin.prevout)? {
                Some(entry) => fetched.push(entry),
                None => {
                    return Err(BaselineError::MissingUtxo {
                        tx,
                        input,
                        outpoint: txin.prevout,
                    })
                }
            }
        }
        let fetched: &'b [UtxoEntry] = fetched;
        Ok(spending_inputs(block)
            .zip(fetched)
            .map(|((tx, input, txin), entry)| Spend {
                tx,
                input,
                unlocking: &txin.unlocking_script,
                value: entry.value,
                locking: &entry.locking_script,
                coord: (entry.height, entry.position),
            })
            .collect())
    }

    fn commit(
        &mut self,
        block: &Block,
        height: u32,
        fetched: Vec<UtxoEntry>,
        breakdown: &mut Breakdown,
    ) -> Result<BaselineUndo, BaselineError> {
        // ---- DBO: delete spent entries, insert new outputs --------------
        let _span_commit = span!("baseline.dbo_commit", &mut breakdown.dbo);
        let mut spent = Vec::with_capacity(fetched.len());
        for ((_, _, txin), entry) in spending_inputs(block).zip(fetched) {
            self.delete(&txin.prevout, &entry)?;
            spent.push((txin.prevout, entry));
        }
        let created = insert_outputs(self, block, height)?;
        Ok(BaselineUndo { spent, created })
    }

    fn connected(&self, first: u32, blocks: &[Block]) {
        for (height, block) in (first..).zip(blocks) {
            trace_event!(
                "baseline.block_connected",
                height = height,
                txs = block.transactions.len(),
            );
        }
    }

    fn disconnect(&mut self, _height: u32, undo: BaselineUndo) -> Result<(), BaselineError> {
        for (outpoint, entry) in &undo.created {
            self.delete(outpoint, entry)?;
        }
        for (outpoint, entry) in undo.spent.iter().rev() {
            self.insert(outpoint, entry)?;
        }
        Ok(())
    }

    fn check_invariants(&self, _tip: u32) -> Result<(), String> {
        // Genesis outputs can never be spent out from under us — nothing
        // below genesis exists to spend them.
        if self.size().count == 0 {
            return Err("UTXO set is empty below a live tip".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_chain::transaction::{spend_sighash, Transaction, TxIn, TxOut};
    use ebv_chain::{build_block, coinbase_tx, genesis_block, BLOCK_SUBSIDY};
    use ebv_primitives::ec::PrivateKey;
    use ebv_primitives::hash::Hash256;
    use ebv_script::standard::{p2pkh_lock, p2pkh_unlock};
    use ebv_script::Script;
    use ebv_store::{KvStore, StoreConfig};

    fn fresh_utxos() -> UtxoSet {
        UtxoSet::new(KvStore::open(StoreConfig::with_budget(4 << 20)).unwrap())
    }

    /// Genesis pays sk(100); block 1 spends that coinbase output.
    fn fixture() -> (BaselineNode, Block) {
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let genesis = build_block(
            Hash256::ZERO,
            coinbase_tx(0, p2pkh_lock(&pk.address_hash()), Vec::new()),
            Vec::new(),
            0,
            0,
        );
        let node = BaselineNode::new(&genesis, fresh_utxos(), BaselineConfig::default()).unwrap();

        let genesis_cb_txid = genesis.transactions[0].txid();
        let recipient = PrivateKey::from_seed(101).public_key();
        let outputs = vec![TxOut::new(
            BLOCK_SUBSIDY - 500,
            p2pkh_lock(&recipient.address_hash()),
        )];
        // Genesis coinbase output is at (height 0, position 0).
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        let us = p2pkh_unlock(
            &crate::sighash::sign_input(&sk, &digest),
            &pk.to_compressed(),
        );
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::new(OutPoint::new(genesis_cb_txid, 0), us)],
            outputs,
            lock_time: 0,
        };
        let block1 = build_block(
            genesis.header.hash(),
            coinbase_tx(1, p2pkh_lock(&pk.address_hash()), Vec::new()),
            vec![spend],
            1,
            0,
        );
        (node, block1)
    }

    #[test]
    fn valid_block_accepted() {
        let (mut node, block1) = fixture();
        let breakdown = node.process_block(&block1).expect("valid block");
        assert!(breakdown.total() > std::time::Duration::ZERO);
        assert_eq!(node.tip_height(), 1);
        // Genesis coinbase spent; block 1 added 2 outputs.
        assert_eq!(node.utxos().size().count, 2);
    }

    #[test]
    fn rejects_double_spend() {
        let (mut node, block1) = fixture();
        node.process_block(&block1).unwrap();
        // Same spend again on top.
        let sk = PrivateKey::from_seed(100);
        let pk = sk.public_key();
        let spend = block1.transactions[1].clone();
        let block2 = build_block(
            block1.header.hash(),
            coinbase_tx(2, p2pkh_lock(&pk.address_hash()), Vec::new()),
            vec![spend],
            2,
            0,
        );
        match node.process_block(&block2) {
            Err(BaselineError::MissingUtxo {
                tx: 1, input: 0, ..
            }) => {}
            other => panic!("expected missing UTXO, got {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_spend_within_block() {
        let (mut node, block1) = fixture();
        let spend_a = block1.transactions[1].clone();
        let mut spend_b = spend_a.clone();
        spend_b.outputs[0].value -= 1; // distinct txid, same prevout
        let block = build_block(
            block1.header.prev_block_hash,
            coinbase_tx(1, Script::new(), Vec::new()),
            vec![spend_a, spend_b],
            1,
            0,
        );
        match node.process_block(&block) {
            Err(BaselineError::DuplicateSpend(_)) => {}
            other => panic!("expected duplicate spend, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_signature() {
        let (mut node, mut block1) = fixture();
        let wrong = PrivateKey::from_seed(999);
        let outputs = block1.transactions[1].outputs.clone();
        let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
        block1.transactions[1].inputs[0].unlocking_script = p2pkh_unlock(
            &crate::sighash::sign_input(&wrong, &digest),
            &wrong.public_key().to_compressed(),
        );
        // Fix the merkle root after mutating the tx.
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(BaselineError::SvFailed {
                tx: 1, input: 0, ..
            }) => {}
            other => panic!("expected SV failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_value_inflation() {
        let (mut node, mut block1) = fixture();
        block1.transactions[1].outputs[0].value = BLOCK_SUBSIDY * 3;
        block1.header.merkle_root = block1.compute_merkle_root();
        match node.process_block(&block1) {
            Err(BaselineError::ValueImbalance { tx: 1 }) => {}
            other => panic!("expected value imbalance, got {other:?}"),
        }
    }

    #[test]
    fn rejects_excessive_coinbase() {
        let (mut node, block1) = fixture();
        let spend = block1.transactions[1].clone();
        // Coinbase pays itself more than subsidy + fee (fee = 500).
        let cb = coinbase_tx(1, Script::new(), vec![TxOut::new(501, Script::new())]);
        let block = build_block(block1.header.prev_block_hash, cb, vec![spend], 1, 0);
        match node.process_block(&block) {
            Err(BaselineError::ExcessiveCoinbase) => {}
            other => panic!("expected excessive coinbase, got {other:?}"),
        }
    }

    #[test]
    fn fee_exactly_claimable() {
        let (mut node, block1) = fixture();
        let spend = block1.transactions[1].clone();
        // Claim exactly the 500 fee: allowed.
        let cb = coinbase_tx(1, Script::new(), vec![TxOut::new(500, Script::new())]);
        let block = build_block(block1.header.prev_block_hash, cb, vec![spend], 1, 0);
        node.process_block(&block)
            .expect("fee-inclusive coinbase is valid");
    }

    #[test]
    fn rejects_not_on_tip_and_bad_structure() {
        let (mut node, block1) = fixture();
        let mut off_tip = block1.clone();
        off_tip.header.prev_block_hash = Hash256::ZERO;
        assert!(matches!(
            node.process_block(&off_tip),
            Err(BaselineError::NotOnTip)
        ));

        let mut bad_merkle = block1.clone();
        bad_merkle.header.merkle_root = Hash256::ZERO;
        assert!(matches!(
            node.process_block(&bad_merkle),
            Err(BaselineError::Structure(
                BlockStructureError::MerkleMismatch
            ))
        ));
    }

    #[test]
    fn genesis_outputs_enter_utxo_set() {
        let genesis = genesis_block();
        let node = BaselineNode::new(&genesis, fresh_utxos(), BaselineConfig::default()).unwrap();
        assert_eq!(node.utxos().size().count, 1);
        assert_eq!(node.tip_height(), 0);
    }
}
