//! Proof construction — the transaction-proposer side of EBV (§IV-C).
//!
//! A proposer (or the intermediary node) needs, for each output it wants
//! to spend, the previous tidy transaction (*ELs*) and a Merkle branch
//! (*MBr*) into the block that packaged it. [`ProofArchive`] keeps exactly
//! the data needed to serve those: per block, the tidy transactions and
//! every level of their Merkle tree, built once when the block is archived,
//! so a proof copies its branch out of the stored levels and hashes nothing.

use crate::tidy::{EbvBlock, InputProof, TidyTransaction};
use ebv_chain::merkle::{merkle_levels, MerkleBranch};
use ebv_primitives::hash::Hash256;

struct ArchiveBlock {
    tidies: Vec<TidyTransaction>,
    /// The block's Merkle tree, leaves first (see [`merkle_levels`]).
    levels: Vec<Vec<Hash256>>,
    /// `stakes[k]` = stake position of transaction `k` (ascending).
    stakes: Vec<u32>,
    total_outputs: u32,
}

/// Per-block proof material, indexed by height.
#[derive(Default)]
pub struct ProofArchive {
    blocks: Vec<ArchiveBlock>,
}

impl ProofArchive {
    pub fn new() -> ProofArchive {
        ProofArchive::default()
    }

    /// Number of archived blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Archive `block`, which must be the next height in order.
    ///
    /// # Panics
    /// If blocks are added out of order.
    pub fn add_block(&mut self, height: u32, block: &EbvBlock) {
        assert_eq!(
            height as usize,
            self.blocks.len(),
            "blocks must be archived in order"
        );
        let tidies: Vec<TidyTransaction> = block
            .transactions
            .iter()
            .map(|tx| tx.tidy.clone())
            .collect();
        let leaves: Vec<Hash256> = tidies.iter().map(TidyTransaction::leaf_hash).collect();
        let stakes: Vec<u32> = tidies.iter().map(|t| t.stake_position).collect();
        let total_outputs = block.output_count();
        self.blocks.push(ArchiveBlock {
            tidies,
            levels: merkle_levels(&leaves),
            stakes,
            total_outputs,
        });
    }

    /// Build the [`InputProof`] for the output at `(height,
    /// absolute_position)`, or `None` if the coordinates don't exist.
    pub fn make_proof(&self, height: u32, absolute_position: u32) -> Option<InputProof> {
        let block = self.blocks.get(height as usize)?;
        if absolute_position >= block.total_outputs {
            return None;
        }
        // Largest stake ≤ absolute_position locates the owning transaction.
        let tx_index = match block.stakes.binary_search(&absolute_position) {
            Ok(i) => i,
            Err(0) => return None, // before the first stake — impossible if stakes[0]=0
            Err(i) => i - 1,
        };
        let els = &block.tidies[tx_index];
        let relative = absolute_position - els.stake_position;
        if relative as usize >= els.outputs.len() {
            return None; // gap: position belongs to no transaction
        }
        let mbr = MerkleBranch::from_levels(&block.levels, tx_index);
        Some(InputProof {
            mbr,
            els: els.clone(),
            height,
            relative_position: relative as u16,
        })
    }

    /// Total archive footprint in bytes: the serialized tidy transactions
    /// plus 32 bytes per stored Merkle node, every level of every tree
    /// (about `2n` nodes for a block of `n` transactions). This is
    /// proposer-side state, not validator status data (contrast with Edrax,
    /// §VII-B).
    pub fn archive_size(&self) -> usize {
        use ebv_primitives::encode::Encodable;
        self.blocks
            .iter()
            .map(|b| {
                let nodes: usize = b.levels.iter().map(Vec::len).sum();
                b.tidies.iter().map(Encodable::encoded_len).sum::<usize>() + nodes * 32
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intermediary::Intermediary;
    use crate::pack::{ebv_coinbase, pack_ebv_block};
    use crate::tidy::{EbvTransaction, InputBody};
    use ebv_chain::transaction::TxOut;
    use ebv_primitives::encode::Encodable;
    use ebv_script::Script;
    use ebv_workload::{ChainGenerator, GeneratorParams, Ramp};

    /// The reference branch builder: rebuild the tree from the leaves for
    /// one proof (O(n) hashes), keeping the sibling at each level.
    fn reference_branch(leaves: &[Hash256], leaf_index: usize) -> MerkleBranch {
        let mut siblings = Vec::new();
        let mut level = leaves.to_vec();
        let mut idx = leaf_index;
        while level.len() > 1 {
            siblings.push(*level.get(idx ^ 1).unwrap_or(&level[idx]));
            level = level
                .chunks(2)
                .map(|pair| Hash256::merkle_parent(&pair[0], pair.get(1).unwrap_or(&pair[0])))
                .collect();
            idx /= 2;
        }
        MerkleBranch {
            leaf_index: leaf_index as u32,
            siblings,
        }
    }

    fn mk_tx(n_outputs: usize, tag: u8) -> EbvTransaction {
        EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us: ebv_script::Builder::new().push_data(&[tag]).into_script(),
                proof: None,
            }],
            (0..n_outputs)
                .map(|i| TxOut::new(100 + i as u64, Script::new()))
                .collect(),
            0,
        )
    }

    fn archive_with_block() -> (ProofArchive, EbvBlock) {
        // Block 0: coinbase (1 out), tx (2 outs), tx (3 outs).
        let block = pack_ebv_block(
            Hash256::ZERO,
            vec![ebv_coinbase(0, Script::new()), mk_tx(2, 1), mk_tx(3, 2)],
            0,
            0,
        );
        let mut archive = ProofArchive::new();
        archive.add_block(0, &block);
        (archive, block)
    }

    #[test]
    fn proofs_verify_against_header() {
        let (archive, block) = archive_with_block();
        for pos in 0..6u32 {
            let proof = archive
                .make_proof(0, pos)
                .unwrap_or_else(|| panic!("pos {pos}"));
            assert_eq!(proof.absolute_position(), pos);
            assert!(
                proof
                    .mbr
                    .verify(&proof.els.leaf_hash(), &block.header.merkle_root),
                "pos {pos}"
            );
            assert!(proof.spent_output().is_some());
        }
    }

    #[test]
    fn proof_locates_correct_transaction() {
        let (archive, _) = archive_with_block();
        // pos 0 → coinbase, 1..=2 → tx1, 3..=5 → tx2.
        assert_eq!(archive.make_proof(0, 0).unwrap().els.stake_position, 0);
        assert_eq!(archive.make_proof(0, 1).unwrap().els.stake_position, 1);
        assert_eq!(archive.make_proof(0, 2).unwrap().els.stake_position, 1);
        assert_eq!(archive.make_proof(0, 3).unwrap().els.stake_position, 3);
        assert_eq!(archive.make_proof(0, 5).unwrap().els.stake_position, 3);
        // Values confirm the relative indexing.
        assert_eq!(
            archive
                .make_proof(0, 2)
                .unwrap()
                .spent_output()
                .unwrap()
                .value,
            101
        );
        assert_eq!(
            archive
                .make_proof(0, 4)
                .unwrap()
                .spent_output()
                .unwrap()
                .value,
            101
        );
    }

    #[test]
    fn out_of_range_positions_rejected() {
        let (archive, _) = archive_with_block();
        assert!(archive.make_proof(0, 6).is_none());
        assert!(archive.make_proof(1, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "archived in order")]
    fn out_of_order_add_panics() {
        let (_, block) = archive_with_block();
        let mut archive = ProofArchive::new();
        archive.add_block(5, &block);
    }

    #[test]
    fn archive_size_grows() {
        // Three transactions keep 3 + 2 + 1 tree nodes; a one-transaction
        // block keeps its leaf, which is its root.
        let (archive, block) = archive_with_block();
        let tidy_bytes =
            |b: &EbvBlock| -> usize { b.transactions.iter().map(|tx| tx.tidy.encoded_len()).sum() };
        let s1 = archive.archive_size();
        assert_eq!(s1, tidy_bytes(&block) + 6 * 32);
        let mut archive2 = ProofArchive::new();
        archive2.add_block(0, &block);
        let block1 = pack_ebv_block(
            block.header.hash(),
            vec![ebv_coinbase(1, Script::new())],
            1,
            0,
        );
        archive2.add_block(1, &block1);
        assert_eq!(archive2.archive_size(), s1 + tidy_bytes(&block1) + 32);
    }

    #[test]
    fn every_proof_of_a_converted_chain_matches_a_from_scratch_branch() {
        // Blocks of 1 to ~13 transactions, so the trees have odd levels at
        // every height on the way up.
        let params = GeneratorParams {
            txs_per_block: Ramp {
                start: 0.0,
                end: 12.0,
            },
            max_outputs_per_tx: 4,
            mean_spend_age: 2.0,
            ..GeneratorParams::tiny(60, 5)
        };
        let blocks = ChainGenerator::new(params).generate();
        let mut intermediary = Intermediary::new(0);
        let converted = intermediary
            .convert_chain(&blocks)
            .expect("generated chains convert");
        let archive = intermediary.archive();
        let mut proofs = 0;
        for (height, block) in converted.iter().enumerate() {
            let height = height as u32;
            let leaves = block.leaves();
            for position in 0..block.output_count() {
                let at = format!("({height}, {position})");
                let proof = archive.make_proof(height, position).expect(&at);
                assert_eq!(proof.absolute_position(), position, "{at}");
                let k = block
                    .transactions
                    .iter()
                    .rposition(|tx| tx.tidy.stake_position <= position)
                    .expect("stake 0 is the coinbase");
                assert_eq!(proof.els, block.transactions[k].tidy, "{at}");
                assert!(
                    proof.mbr.verify(&leaves[k], &block.header.merkle_root),
                    "{at}"
                );
                assert_eq!(proof.mbr, reference_branch(&leaves, k), "{at}");
                proofs += 1;
            }
            assert!(archive.make_proof(height, block.output_count()).is_none());
        }
        assert!(proofs > 500, "{proofs} proofs");
    }
}
