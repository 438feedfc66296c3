//! Ledger substrate: transactions, blocks and Merkle trees.
//!
//! This crate defines the *baseline* (Bitcoin-format) data model the paper
//! compares against. The EBV-format structures (tidy transactions, input
//! proofs) live in `ebv-core` and are built on the same blocks, Merkle
//! machinery and script types defined here.

pub mod block;
pub mod builder;
pub mod merkle;
pub mod transaction;

pub use block::{Block, BlockHeader, BlockStructureError};
pub use builder::{build_block, coinbase_tx, genesis_block, BLOCK_SUBSIDY};
pub use merkle::{merkle_root, MerkleBranch};
pub use transaction::{OutPoint, Transaction, TxIn, TxOut, SIGHASH_ALL};
