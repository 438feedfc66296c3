//! EBV transaction and block formats.
//!
//! The paper's §IV-C: a transaction's Merkle leaf covers only *input
//! hashes* and outputs (the "tidy transaction"), while the input *bodies*
//! — unlocking script plus proof (`MBr`, `ELs`, `height`, `position`) —
//! travel alongside. Embedding a previous transaction as `ELs` therefore
//! embeds only its tidy form, which contains no proofs of its own: the
//! *transaction inflation* problem (Fig. 8) cannot arise because nesting
//! stops at depth one (Fig. 9b).
//!
//! The *stake position* field (§IV-D2, Fig. 11) is stamped into each tidy
//! transaction by the miner at packaging time; because it is inside the
//! Merkle leaf it is covered by the block's root, so a proposer cannot lie
//! about absolute output positions derived from it.

use ebv_chain::merkle::MerkleBranch;
use ebv_chain::transaction::TxOut;
use ebv_chain::BlockHeader;
use ebv_primitives::encode::{Decodable, DecodeError, Encodable, Reader};
use ebv_primitives::hash::{sha256d, Hash256};
use ebv_script::Script;

/// The Merkle-committed part of an EBV transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TidyTransaction {
    pub version: u32,
    /// One hash per input, `sha256d` of the corresponding [`InputBody`].
    pub input_hashes: Vec<Hash256>,
    pub outputs: Vec<TxOut>,
    /// Absolute position of this transaction's first output within its
    /// block; assigned by the miner when packaging.
    pub stake_position: u32,
    pub lock_time: u32,
}

impl TidyTransaction {
    /// The Merkle leaf hash: `sha256d` of the tidy serialization.
    pub fn leaf_hash(&self) -> Hash256 {
        sha256d(&self.to_bytes())
    }

    /// Absolute position of output `relative` (the paper's
    /// `absolute = stake + relative`).
    pub fn absolute_position(&self, relative: u16) -> u32 {
        self.stake_position + relative as u32
    }
}

impl Encodable for TidyTransaction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.version.encode(out);
        self.input_hashes.encode(out);
        self.outputs.encode(out);
        self.stake_position.encode(out);
        self.lock_time.encode(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.input_hashes.encoded_len() + self.outputs.encoded_len() + 4 + 4
    }
}

impl Decodable for TidyTransaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TidyTransaction {
            version: u32::decode(r)?,
            input_hashes: Vec::decode(r)?,
            outputs: Vec::decode(r)?,
            stake_position: u32::decode(r)?,
            lock_time: u32::decode(r)?,
        })
    }
}

/// The proof attached to a (non-coinbase) input: everything the validator
/// needs for EV, UV positioning and SV without touching a database.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InputProof {
    /// Merkle branch from the `els` leaf to the root of block `height`.
    pub mbr: MerkleBranch,
    /// Enhanced locking script: the previous tidy transaction containing
    /// the spent output.
    pub els: TidyTransaction,
    /// Height of the block containing the spent output.
    pub height: u32,
    /// Index of the spent output within `els`.
    pub relative_position: u16,
}

impl InputProof {
    /// The spent output's absolute position in its block.
    pub fn absolute_position(&self) -> u32 {
        self.els.absolute_position(self.relative_position)
    }

    /// The spent output itself, if `relative_position` is in range.
    pub fn spent_output(&self) -> Option<&TxOut> {
        self.els.outputs.get(self.relative_position as usize)
    }

    /// Serialized proof size in bytes (network/storage overhead of EBV).
    pub fn proof_size(&self) -> usize {
        self.encoded_len()
    }
}

impl Encodable for InputProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mbr.encode(out);
        self.els.encode(out);
        self.height.encode(out);
        self.relative_position.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.mbr.encoded_len() + self.els.encoded_len() + 4 + 2
    }
}

impl Decodable for InputProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(InputProof {
            mbr: MerkleBranch::decode(r)?,
            els: TidyTransaction::decode(r)?,
            height: u32::decode(r)?,
            relative_position: u16::decode(r)?,
        })
    }
}

/// An input body: the data referenced by a tidy transaction's input hash.
/// The coinbase input carries no proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InputBody {
    /// The unlocking script (*Us*), same as Bitcoin.
    pub us: Script,
    /// The proof; `None` only for the coinbase input.
    pub proof: Option<InputProof>,
}

impl InputBody {
    /// The hash stored in the tidy transaction.
    pub fn hash(&self) -> Hash256 {
        sha256d(&self.to_bytes())
    }
}

impl Encodable for InputBody {
    fn encode(&self, out: &mut Vec<u8>) {
        self.us.encode(out);
        match &self.proof {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                p.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        self.us.encoded_len() + 1 + self.proof.as_ref().map_or(0, Encodable::encoded_len)
    }
}

impl Decodable for InputBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let us = Script::decode(r)?;
        let proof = match r.read_u8()? {
            0 => None,
            1 => Some(InputProof::decode(r)?),
            _ => return Err(DecodeError::Invalid("input proof flag")),
        };
        Ok(InputBody { us, proof })
    }
}

/// A full EBV transaction: the tidy part plus its input bodies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EbvTransaction {
    pub tidy: TidyTransaction,
    /// `bodies[i]` hashes to `tidy.input_hashes[i]`.
    pub bodies: Vec<InputBody>,
}

/// Structural failures of an EBV transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxIntegrityError {
    /// Body count differs from input-hash count.
    BodyCountMismatch,
    /// `bodies[i]` does not hash to `input_hashes[i]`.
    BodyHashMismatch(usize),
    /// No inputs at all.
    NoInputs,
    /// No outputs.
    NoOutputs,
}

impl std::fmt::Display for TxIntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for TxIntegrityError {}

impl EbvTransaction {
    /// Construct, computing input hashes from the bodies.
    pub fn from_parts(
        version: u32,
        bodies: Vec<InputBody>,
        outputs: Vec<TxOut>,
        lock_time: u32,
    ) -> EbvTransaction {
        let input_hashes = bodies.iter().map(InputBody::hash).collect();
        EbvTransaction {
            tidy: TidyTransaction {
                version,
                input_hashes,
                outputs,
                stake_position: 0,
                lock_time,
            },
            bodies,
        }
    }

    /// Whether this is a coinbase (single proof-less input).
    pub fn is_coinbase(&self) -> bool {
        self.bodies.len() == 1 && self.bodies[0].proof.is_none()
    }

    /// Check body/hash correspondence and basic shape.
    pub fn check_integrity(&self) -> Result<(), TxIntegrityError> {
        if self.tidy.input_hashes.is_empty() || self.bodies.is_empty() {
            return Err(TxIntegrityError::NoInputs);
        }
        if self.tidy.outputs.is_empty() {
            return Err(TxIntegrityError::NoOutputs);
        }
        if self.bodies.len() != self.tidy.input_hashes.len() {
            return Err(TxIntegrityError::BodyCountMismatch);
        }
        for (i, body) in self.bodies.iter().enumerate() {
            if body.hash() != self.tidy.input_hashes[i] {
                return Err(TxIntegrityError::BodyHashMismatch(i));
            }
        }
        Ok(())
    }

    /// Coordinates `(height, absolute position)` of every spent output, in
    /// input order — the data the shared signing digest commits to.
    /// `None` if any input lacks a proof (coinbase inputs have no coords).
    pub fn spent_coords(&self) -> Option<Vec<(u32, u32)>> {
        self.bodies
            .iter()
            .map(|b| b.proof.as_ref().map(|p| (p.height, p.absolute_position())))
            .collect()
    }

    /// Serialized size of the whole transaction (tidy + bodies) — what the
    /// transaction-inflation discussion is about.
    pub fn total_size(&self) -> usize {
        self.tidy.encoded_len() + self.bodies.encoded_len()
    }
}

impl Encodable for EbvTransaction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tidy.encode(out);
        self.bodies.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.total_size()
    }
}

impl Decodable for EbvTransaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EbvTransaction {
            tidy: TidyTransaction::decode(r)?,
            bodies: Vec::decode(r)?,
        })
    }
}

/// An EBV-format block: the header's Merkle root is over tidy leaf hashes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EbvBlock {
    pub header: BlockHeader,
    pub transactions: Vec<EbvTransaction>,
}

impl EbvBlock {
    /// The Merkle leaves (tidy leaf hashes) in transaction order.
    pub fn leaves(&self) -> Vec<Hash256> {
        self.transactions
            .iter()
            .map(|tx| tx.tidy.leaf_hash())
            .collect()
    }

    /// Recompute the Merkle root from the tidy transactions.
    pub fn compute_merkle_root(&self) -> Hash256 {
        ebv_chain::merkle::merkle_root(&self.leaves())
    }

    /// The stake position each transaction must carry: cumulative output
    /// count of all preceding transactions.
    pub fn expected_stake_positions(&self) -> Vec<u32> {
        let mut stakes = Vec::with_capacity(self.transactions.len());
        let mut acc = 0u32;
        for tx in &self.transactions {
            stakes.push(acc);
            acc += tx.tidy.outputs.len() as u32;
        }
        stakes
    }

    /// Total outputs in the block (the new bit-vector's width).
    pub fn output_count(&self) -> u32 {
        self.transactions
            .iter()
            .map(|tx| tx.tidy.outputs.len() as u32)
            .sum()
    }

    /// Total non-coinbase inputs.
    pub fn input_count(&self) -> usize {
        self.transactions
            .iter()
            .skip(1)
            .map(|tx| tx.bodies.len())
            .sum()
    }

    /// Serialized block size.
    pub fn total_size(&self) -> usize {
        self.encoded_len()
    }
}

impl Encodable for EbvBlock {
    fn encode(&self, out: &mut Vec<u8>) {
        self.header.encode(out);
        self.transactions.encode(out);
    }
    fn encoded_len(&self) -> usize {
        80 + self.transactions.encoded_len()
    }
}

impl Decodable for EbvBlock {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EbvBlock {
            header: BlockHeader::decode(r)?,
            transactions: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_script::Builder;

    fn output(v: u64) -> TxOut {
        TxOut::new(v, Builder::new().push_data(&[0xaa; 25]).into_script())
    }

    fn tidy(n_outputs: usize, stake: u32) -> TidyTransaction {
        TidyTransaction {
            version: 1,
            input_hashes: vec![sha256d(b"body")],
            outputs: (0..n_outputs).map(|i| output(i as u64 + 1)).collect(),
            stake_position: stake,
            lock_time: 0,
        }
    }

    fn proof() -> InputProof {
        InputProof {
            mbr: MerkleBranch {
                leaf_index: 2,
                siblings: vec![sha256d(b"s0"), sha256d(b"s1")],
            },
            els: tidy(3, 7),
            height: 42,
            relative_position: 1,
        }
    }

    #[test]
    fn absolute_position_is_stake_plus_relative() {
        // The paper's Fig. 11 example: stake 3, relative 1 → absolute 4.
        let t = tidy(2, 3);
        assert_eq!(t.absolute_position(1), 4);
        let p = proof();
        assert_eq!(p.absolute_position(), 8);
        assert_eq!(p.spent_output().unwrap().value, 2);
    }

    #[test]
    fn leaf_hash_covers_stake_position() {
        let a = tidy(2, 0);
        let mut b = a.clone();
        b.stake_position = 5;
        assert_ne!(
            a.leaf_hash(),
            b.leaf_hash(),
            "stake must be Merkle-committed"
        );
    }

    #[test]
    fn tidy_round_trip() {
        let t = tidy(3, 9);
        assert_eq!(TidyTransaction::from_bytes(&t.to_bytes()).unwrap(), t);
        assert_eq!(t.to_bytes().len(), t.encoded_len());
    }

    #[test]
    fn proof_round_trip() {
        let p = proof();
        assert_eq!(InputProof::from_bytes(&p.to_bytes()).unwrap(), p);
        assert_eq!(p.proof_size(), p.to_bytes().len());
    }

    #[test]
    fn body_round_trip_with_and_without_proof() {
        let with = InputBody {
            us: Builder::new().push_data(b"sig").into_script(),
            proof: Some(proof()),
        };
        assert_eq!(InputBody::from_bytes(&with.to_bytes()).unwrap(), with);
        let without = InputBody {
            us: Builder::new().push_int(1).into_script(),
            proof: None,
        };
        assert_eq!(InputBody::from_bytes(&without.to_bytes()).unwrap(), without);
        assert_ne!(with.hash(), without.hash());
    }

    #[test]
    fn from_parts_links_hashes() {
        let body = InputBody {
            us: Builder::new().push_data(b"sig").into_script(),
            proof: Some(proof()),
        };
        let tx = EbvTransaction::from_parts(1, vec![body.clone()], vec![output(5)], 0);
        assert_eq!(tx.tidy.input_hashes, vec![body.hash()]);
        tx.check_integrity().unwrap();
    }

    #[test]
    fn integrity_detects_tampered_body() {
        let body = InputBody {
            us: Builder::new().push_data(b"sig").into_script(),
            proof: Some(proof()),
        };
        let mut tx = EbvTransaction::from_parts(1, vec![body], vec![output(5)], 0);
        tx.bodies[0].us = Builder::new().push_data(b"forged").into_script();
        assert_eq!(
            tx.check_integrity(),
            Err(TxIntegrityError::BodyHashMismatch(0))
        );
    }

    #[test]
    fn integrity_detects_count_mismatch() {
        let body = InputBody {
            us: Builder::new().push_data(b"sig").into_script(),
            proof: Some(proof()),
        };
        let mut tx = EbvTransaction::from_parts(1, vec![body.clone()], vec![output(5)], 0);
        tx.bodies.push(body);
        assert_eq!(
            tx.check_integrity(),
            Err(TxIntegrityError::BodyCountMismatch)
        );
        tx.bodies.clear();
        assert_eq!(tx.check_integrity(), Err(TxIntegrityError::NoInputs));
    }

    #[test]
    fn spent_coords_in_input_order() {
        let mut p1 = proof();
        p1.height = 10;
        p1.relative_position = 0;
        let mut p2 = proof();
        p2.height = 20;
        p2.relative_position = 2;
        let tx = EbvTransaction::from_parts(
            1,
            vec![
                InputBody {
                    us: Script::new(),
                    proof: Some(p1),
                },
                InputBody {
                    us: Script::new(),
                    proof: Some(p2),
                },
            ],
            vec![output(1)],
            0,
        );
        assert_eq!(tx.spent_coords().unwrap(), vec![(10, 7), (20, 9)]);
        // Coinbase-style body yields None.
        let cb = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us: Script::new(),
                proof: None,
            }],
            vec![output(1)],
            0,
        );
        assert!(cb.spent_coords().is_none());
        assert!(cb.is_coinbase());
    }

    #[test]
    fn no_inflation_els_carries_no_bodies() {
        // Embedding a previous transaction as ELs embeds only its tidy
        // form. A chain of K spends therefore grows by one tidy size per
        // level — not exponentially.
        let tx_k = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us: Builder::new().push_data(&[1; 64]).into_script(),
                proof: Some(proof()),
            }],
            vec![output(1)],
            0,
        );
        // tx_j spends tx_k's output: its proof embeds tx_k.tidy only.
        let p_j = InputProof {
            mbr: MerkleBranch {
                leaf_index: 0,
                siblings: vec![],
            },
            els: tx_k.tidy.clone(),
            height: 50,
            relative_position: 0,
        };
        let tx_j = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us: Builder::new().push_data(&[2; 64]).into_script(),
                proof: Some(p_j),
            }],
            vec![output(1)],
            0,
        );
        let p_i = InputProof {
            mbr: MerkleBranch {
                leaf_index: 0,
                siblings: vec![],
            },
            els: tx_j.tidy.clone(),
            height: 51,
            relative_position: 0,
        };
        let tx_i = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us: Builder::new().push_data(&[3; 64]).into_script(),
                proof: Some(p_i),
            }],
            vec![output(1)],
            0,
        );
        // tx_i's size does not include tx_k at all: tidy sizes are equal,
        // so total sizes stay flat across the chain.
        assert_eq!(tx_i.tidy.encoded_len(), tx_j.tidy.encoded_len());
        assert!(
            tx_i.total_size() <= tx_j.total_size() + 8,
            "no inflation across nesting"
        );
    }

    #[test]
    fn block_stake_positions_and_counts() {
        let mk_tx = |n_out: usize| {
            EbvTransaction::from_parts(
                1,
                vec![InputBody {
                    us: Script::new(),
                    proof: Some(proof()),
                }],
                (0..n_out).map(|i| output(i as u64 + 1)).collect(),
                0,
            )
        };
        let cb = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us: Builder::new().push_int(1).into_script(),
                proof: None,
            }],
            vec![output(50)],
            0,
        );
        let block = EbvBlock {
            header: BlockHeader {
                version: 1,
                prev_block_hash: Hash256::ZERO,
                merkle_root: Hash256::ZERO,
                time: 0,
                bits: 0,
                nonce: 0,
            },
            transactions: vec![cb, mk_tx(2), mk_tx(3)],
        };
        assert_eq!(block.expected_stake_positions(), vec![0, 1, 3]);
        assert_eq!(block.output_count(), 6);
        assert_eq!(block.input_count(), 2);
    }

    #[test]
    fn ebv_block_round_trip() {
        let cb = EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us: Builder::new().push_int(1).into_script(),
                proof: None,
            }],
            vec![output(50)],
            0,
        );
        let block = EbvBlock {
            header: BlockHeader {
                version: 1,
                prev_block_hash: sha256d(b"prev"),
                merkle_root: sha256d(b"root"),
                time: 5,
                bits: 0,
                nonce: 9,
            },
            transactions: vec![cb],
        };
        assert_eq!(EbvBlock::from_bytes(&block.to_bytes()).unwrap(), block);
    }
}
