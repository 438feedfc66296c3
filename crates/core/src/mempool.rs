//! Transaction validation outside blocks — the mempool.
//!
//! The paper's §IV-D describes validating a *transaction* on receipt:
//! EV against stored headers, UV against the bit-vector set, SV against
//! the scripts in `ELs`. This module applies exactly those checks to
//! unconfirmed transactions, through the block pipeline's own EV check and
//! per-transaction value + midstate phase; tracks which coordinates
//! pending transactions consume (so conflicting spends are rejected at
//! admission); and hands miners a ready-to-package batch. SV prepares
//! signer keys through the node's pubkey cache, which block SV shares. Each
//! admitted input's scripts go into the node's script-execution cache, so
//! the block that confirms the transaction does not run them again.

use crate::ebv_node::{existence, EbvError, EbvNode};
use crate::sighash::{DigestChecker, SvJob};
use crate::tidy::{EbvBlock, EbvTransaction, TxIntegrityError};
use crate::validate::{script_key, tx_digest, Spend, TxFields};
use ebv_primitives::hash::Hash256;
use ebv_script::{verify_spend, ScriptError};
use std::collections::HashMap;

/// Why a transaction was refused admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MempoolError {
    /// Already pooled (same tidy leaf hash).
    Duplicate,
    /// Coinbase transactions cannot be relayed.
    Coinbase,
    /// Body/hash integrity failure.
    Integrity(TxIntegrityError),
    /// Input references an unknown or future block.
    BadHeight { input: usize, height: u32 },
    /// Merkle branch does not fold to the stored header root.
    EvFailed { input: usize },
    /// Claimed position outside `ELs`.
    PositionOutOfEls { input: usize },
    /// The output is spent on-chain.
    SpentOnChain { input: usize },
    /// Another pooled transaction already spends this output.
    ConflictsWithPool { input: usize, other: Hash256 },
    /// Script validation failed.
    SvFailed { input: usize, err: ScriptError },
    /// Outputs exceed inputs.
    ValueImbalance,
}

impl std::fmt::Display for MempoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for MempoolError {}

/// A pool of validated, unconfirmed EBV transactions.
#[derive(Default)]
pub struct Mempool {
    /// tidy leaf hash → transaction.
    txs: HashMap<Hash256, EbvTransaction>,
    /// Coordinates consumed by pooled transactions → consuming tx.
    spent: HashMap<(u32, u32), Hash256>,
    /// Admission order (miners package FIFO).
    order: Vec<Hash256>,
}

impl Mempool {
    pub fn new() -> Mempool {
        Mempool::default()
    }

    pub fn len(&self) -> usize {
        self.txs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Whether the pool holds a transaction with this tidy leaf hash.
    pub fn contains(&self, id: &Hash256) -> bool {
        self.txs.contains_key(id)
    }

    /// Validate `tx` against the node's current state and admit it.
    /// Returns the pool id (tidy leaf hash).
    ///
    /// Note: admission uses the transaction's *current* tidy form (stake
    /// position as proposed, normally 0); miners re-stamp stake positions
    /// at packaging, which changes the leaf hash — ids are pool-local.
    pub fn accept(&mut self, node: &EbvNode, tx: EbvTransaction) -> Result<Hash256, MempoolError> {
        if tx.is_coinbase() {
            return Err(MempoolError::Coinbase);
        }
        tx.check_integrity().map_err(MempoolError::Integrity)?;
        let id = tx.tidy.leaf_hash();
        if self.txs.contains_key(&id) {
            return Err(MempoolError::Duplicate);
        }

        let mut spends = Vec::with_capacity(tx.bodies.len());
        for (j, body) in tx.bodies.iter().enumerate() {
            let proof = body.proof.as_ref().expect("non-coinbase integrity checked");
            // EV, exactly as a block's inputs get it.
            let output = existence(node.headers(), proof, 0, j).map_err(|e| match e {
                EbvError::BadHeight { height, .. } => MempoolError::BadHeight { input: j, height },
                EbvError::EvFailed { .. } => MempoolError::EvFailed { input: j },
                _ => MempoolError::PositionOutOfEls { input: j },
            })?;
            // UV against chain state…
            let coord = (proof.height, proof.absolute_position());
            if node.bitvecs().check_unspent(coord.0, coord.1).is_err() {
                return Err(MempoolError::SpentOnChain { input: j });
            }
            // …and against other pooled transactions.
            if let Some(other) = self.spent.get(&coord) {
                return Err(MempoolError::ConflictsWithPool {
                    input: j,
                    other: *other,
                });
            }
            // A lone transaction: no block position to report.
            spends.push(Spend {
                tx: 0,
                input: j,
                unlocking: &body.us,
                value: output.value,
                locking: &output.locking_script,
                coord,
            });
        }
        let fields = TxFields {
            version: tx.tidy.version,
            outputs: &tx.tidy.outputs,
            lock_time: tx.tidy.lock_time,
        };
        let (midstate, _fee) = tx_digest(&fields, &spends).ok_or(MempoolError::ValueImbalance)?;

        // SV, every input's digest finished from the one midstate and every
        // key prepared once per node.
        let jobs: Vec<SvJob<'_>> = spends
            .iter()
            .map(|s| SvJob {
                digest: midstate.input_digest(s.input as u32),
                lock_time: fields.lock_time,
                unlocking: s.unlocking,
                locking: s.locking,
            })
            .collect();
        for (input, job) in jobs.iter().enumerate() {
            let checker =
                DigestChecker::with_context(job.digest, job.lock_time, node.pubkey_cache());
            verify_spend(job.unlocking, job.locking, &checker)
                .map_err(|err| MempoolError::SvFailed { input, err })?;
        }
        // Every input passed: the block confirming this transaction skips
        // their scripts.
        node.remember_passed_scripts(jobs.iter().map(script_key));

        for s in &spends {
            self.spent.insert(s.coord, id);
        }
        self.order.push(id);
        self.txs.insert(id, tx);
        Ok(id)
    }

    /// Pop up to `max` transactions in admission order for packaging.
    pub fn take_for_block(&mut self, max: usize) -> Vec<EbvTransaction> {
        let ids: Vec<Hash256> = self.order.drain(..max.min(self.order.len())).collect();
        ids.iter().filter_map(|id| self.remove(id)).collect()
    }

    /// Drop pooled transactions that conflict with (or are included in) a
    /// newly connected block.
    pub fn remove_confirmed(&mut self, block: &EbvBlock) {
        let block_coords: Vec<(u32, u32)> = block
            .transactions
            .iter()
            .skip(1)
            .flat_map(|tx| {
                tx.bodies
                    .iter()
                    .filter_map(|b| b.proof.as_ref().map(|p| (p.height, p.absolute_position())))
            })
            .collect();
        let victims: Vec<Hash256> = block_coords
            .iter()
            .filter_map(|c| self.spent.get(c).copied())
            .collect();
        for id in victims {
            self.remove(&id);
        }
        self.order.retain(|id| self.txs.contains_key(id));
    }

    /// Drop `id` and the coordinates it consumes; callers rebuild `order`
    /// once per batch of removals.
    fn remove(&mut self, id: &Hash256) -> Option<EbvTransaction> {
        let tx = self.txs.remove(id)?;
        for coord in tx.spent_coords().into_iter().flatten() {
            self.spent.remove(&coord);
        }
        Some(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebv_node::EbvConfig;
    use crate::pack::{ebv_coinbase, pack_ebv_block};
    use crate::proofs::ProofArchive;
    use crate::sighash::sign_input;
    use crate::tidy::InputBody;
    use ebv_chain::transaction::{spend_sighash, TxOut};
    use ebv_chain::BLOCK_SUBSIDY;
    use ebv_primitives::ec::PrivateKey;
    use ebv_script::standard::{p2pkh_lock, p2pkh_unlock};

    fn world() -> (EbvNode, ProofArchive, PrivateKey) {
        let alice = PrivateKey::from_seed(5);
        let genesis = pack_ebv_block(
            Hash256::ZERO,
            vec![ebv_coinbase(
                0,
                p2pkh_lock(&alice.public_key().address_hash()),
            )],
            0,
            0,
        );
        let node = EbvNode::new(&genesis, EbvConfig::default());
        let mut archive = ProofArchive::new();
        archive.add_block(0, &genesis);
        (node, archive, alice)
    }

    fn spend(archive: &ProofArchive, signer: &PrivateKey, value: u64) -> EbvTransaction {
        spend_coinbase(archive, signer, 0, value)
    }

    /// A spend of the coinbase output of block `height`.
    fn spend_coinbase(
        archive: &ProofArchive,
        signer: &PrivateKey,
        height: u32,
        value: u64,
    ) -> EbvTransaction {
        let proof = archive.make_proof(height, 0).expect("coin");
        let outputs = vec![TxOut::new(
            value,
            p2pkh_lock(&signer.public_key().address_hash()),
        )];
        let digest = spend_sighash(1, &[(height, 0)], &outputs, 0, 0);
        let us = p2pkh_unlock(
            &sign_input(signer, &digest),
            &signer.public_key().to_compressed(),
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
    }

    #[test]
    fn accepts_valid_transaction() {
        let (node, archive, alice) = world();
        let mut pool = Mempool::new();
        let id = pool
            .accept(&node, spend(&archive, &alice, 1000))
            .expect("valid");
        assert!(pool.contains(&id));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn rejects_duplicate_and_conflict() {
        let (node, archive, alice) = world();
        let mut pool = Mempool::new();
        let tx = spend(&archive, &alice, 1000);
        pool.accept(&node, tx.clone()).expect("valid");
        assert_eq!(pool.accept(&node, tx), Err(MempoolError::Duplicate));
        // Different outputs, same coin → conflict.
        let other = spend(&archive, &alice, 2000);
        assert!(matches!(
            pool.accept(&node, other),
            Err(MempoolError::ConflictsWithPool { input: 0, .. })
        ));
    }

    #[test]
    fn rejects_bad_signature_and_value() {
        let (node, archive, alice) = world();
        let mallory = PrivateKey::from_seed(99);
        let mut pool = Mempool::new();
        assert!(matches!(
            pool.accept(&node, spend(&archive, &mallory, 1000)),
            Err(MempoolError::SvFailed { .. })
        ));
        assert_eq!(
            pool.accept(&node, spend(&archive, &alice, BLOCK_SUBSIDY + 1)),
            Err(MempoolError::ValueImbalance)
        );
    }

    #[test]
    fn rejects_coinbase_and_spent_on_chain() {
        let (mut node, mut archive, alice) = world();
        let mut pool = Mempool::new();
        assert_eq!(
            pool.accept(
                &node,
                ebv_coinbase(1, p2pkh_lock(&alice.public_key().address_hash()))
            ),
            Err(MempoolError::Coinbase)
        );
        // Confirm a spend of (0,0) on-chain, then try pooling another.
        let tx = spend(&archive, &alice, BLOCK_SUBSIDY);
        let b1 = pack_ebv_block(
            node.tip_hash(),
            vec![
                ebv_coinbase(1, p2pkh_lock(&alice.public_key().address_hash())),
                tx,
            ],
            1,
            0,
        );
        node.process_block(&b1).expect("valid");
        archive.add_block(1, &b1);
        assert!(matches!(
            pool.accept(&node, spend(&archive, &alice, 500)),
            Err(MempoolError::SpentOnChain { input: 0 })
        ));
    }

    #[test]
    fn packaged_pool_transactions_form_a_valid_block() {
        let (mut node, archive, alice) = world();
        let mut pool = Mempool::new();
        pool.accept(&node, spend(&archive, &alice, BLOCK_SUBSIDY))
            .expect("valid");
        let txs = pool.take_for_block(10);
        assert_eq!(txs.len(), 1);
        assert!(pool.is_empty());

        let mut block_txs = vec![ebv_coinbase(
            1,
            p2pkh_lock(&alice.public_key().address_hash()),
        )];
        block_txs.extend(txs);
        let b1 = pack_ebv_block(node.tip_hash(), block_txs, 1, 0);
        node.process_block(&b1)
            .expect("pool transaction packages cleanly");
    }

    #[test]
    fn remove_confirmed_evicts_conflicts() {
        let (mut node, archive, alice) = world();
        let mut pool = Mempool::new();
        let id = pool
            .accept(&node, spend(&archive, &alice, 1234))
            .expect("valid");

        // A different spend of the same coin is confirmed in a block.
        let confirmed = spend(&archive, &alice, BLOCK_SUBSIDY);
        let b1 = pack_ebv_block(
            node.tip_hash(),
            vec![
                ebv_coinbase(1, p2pkh_lock(&alice.public_key().address_hash())),
                confirmed,
            ],
            1,
            0,
        );
        node.process_block(&b1).expect("valid");
        pool.remove_confirmed(&b1);
        assert!(!pool.contains(&id));
        assert!(pool.is_empty());
    }

    #[test]
    fn removal_keeps_other_transactions_coordinates() {
        let (mut node, mut archive, alice) = world();
        let lock = p2pkh_lock(&alice.public_key().address_hash());
        let b1 = pack_ebv_block(node.tip_hash(), vec![ebv_coinbase(1, lock)], 1, 0);
        node.process_block(&b1).expect("valid");
        archive.add_block(1, &b1);

        let mut pool = Mempool::new();
        pool.accept(&node, spend(&archive, &alice, 1000))
            .expect("valid");
        let kept = pool
            .accept(&node, spend_coinbase(&archive, &alice, 1, 1000))
            .expect("valid");
        assert_eq!(pool.take_for_block(1).len(), 1);
        assert!(pool.contains(&kept));
        // The taken transaction's coin is free again; the kept one's is not.
        assert_eq!(
            pool.accept(&node, spend_coinbase(&archive, &alice, 1, 2000)),
            Err(MempoolError::ConflictsWithPool {
                input: 0,
                other: kept
            })
        );
        pool.accept(&node, spend(&archive, &alice, 2000))
            .expect("the taken transaction's coin is free");
    }
}
