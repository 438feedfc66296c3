//! The [`ValidatingNode`] abstraction the sync drivers operate over.
//!
//! `EbvNode` and `BaselineNode` expose the same chain-manipulation surface
//! — connect a batch of blocks to the tip, disconnect the tip, look up a
//! header hash — differing only in block format and error type. The trait
//! captures exactly that surface, so the multi-peer driver and the reorg
//! engine have a single implementation. Both node types are one [`Node`],
//! so one impl covers them.

use crate::validate::{InputState, Node};
use ebv_primitives::encode::{Decodable, DecodeError};
use ebv_primitives::hash::Hash256;

/// A chain-state machine the sync drivers can push blocks into and, when a
/// better fork appears, unwind.
pub trait ValidatingNode {
    /// The block format this node validates.
    type Block;
    /// The node's validation error type.
    type Error: std::fmt::Debug;

    /// Decode one block from its wire bytes.
    fn decode_block(bytes: &[u8]) -> Result<Self::Block, DecodeError>;
    /// The block's header hash.
    fn block_hash(block: &Self::Block) -> Hash256;
    /// The block's `prev_block_hash` link.
    fn block_prev_hash(block: &Self::Block) -> Hash256;

    /// Height of the best block.
    fn tip_height(&self) -> u32;
    /// Hash of the best block's header.
    fn tip_hash(&self) -> Hash256;
    /// Header hash at `height`, if within the chain.
    fn header_hash_at(&self, height: u32) -> Option<Hash256>;

    /// Validate `block` and, if valid, connect it to the tip.
    ///
    /// Every caller in the workspace connects through [`connect_blocks`]
    /// (a relay's block is a window of one), which runs this per block by
    /// default. The method stays because a node that validates one block
    /// at a time, such as the benchmark's span-tracing wrapper or netsim's
    /// modeled node, implements this and inherits the window.
    ///
    /// [`connect_blocks`]: ValidatingNode::connect_blocks
    fn connect_block(&mut self, block: &Self::Block) -> Result<(), Self::Error>;
    /// Validate `blocks` in order and connect the longest valid prefix.
    /// Returns how many connected and the first rejected block's error,
    /// exactly as `connect_block` on each block in turn would. That is the
    /// default; a [`Node`] validates the batch as one window.
    fn connect_blocks(&mut self, blocks: &[Self::Block]) -> (usize, Result<(), Self::Error>) {
        for (connected, block) in blocks.iter().enumerate() {
            if let Err(err) = self.connect_block(block) {
                return (connected, Err(err));
            }
        }
        (blocks.len(), Ok(()))
    }
    /// Disconnect the tip block, restoring the previous state. `Ok(None)`
    /// means only genesis remains; `Err` is an internal-consistency
    /// failure (corrupt undo data, store I/O).
    fn disconnect_tip_block(&mut self) -> Result<Option<u32>, Self::Error>;
    /// Whether `err` means "the block does not extend the tip" — the
    /// signal the driver uses to tell a competing fork from an invalid
    /// block.
    fn is_not_on_tip(err: &Self::Error) -> bool;
    /// Cheap internal-consistency check, asserted by the reorg engine
    /// after every unwind step.
    fn check_invariants(&self) -> Result<(), String>;
}

impl<S: InputState> ValidatingNode for Node<S> {
    type Block = S::Block;
    type Error = S::Error;

    fn decode_block(bytes: &[u8]) -> Result<S::Block, DecodeError> {
        S::Block::from_bytes(bytes)
    }

    fn block_hash(block: &S::Block) -> Hash256 {
        S::header(block).hash()
    }

    fn block_prev_hash(block: &S::Block) -> Hash256 {
        S::header(block).prev_block_hash
    }

    fn tip_height(&self) -> u32 {
        Node::tip_height(self)
    }

    fn tip_hash(&self) -> Hash256 {
        Node::tip_hash(self)
    }

    fn header_hash_at(&self, height: u32) -> Option<Hash256> {
        self.header_at(height).map(|h| h.hash())
    }

    fn connect_block(&mut self, block: &S::Block) -> Result<(), S::Error> {
        self.process_block(block).map(|_| ())
    }

    fn connect_blocks(&mut self, blocks: &[S::Block]) -> (usize, Result<(), S::Error>) {
        Node::connect_blocks(self, blocks)
    }

    fn disconnect_tip_block(&mut self) -> Result<Option<u32>, S::Error> {
        self.disconnect_tip()
    }

    fn is_not_on_tip(err: &S::Error) -> bool {
        S::is_not_on_tip(err)
    }

    fn check_invariants(&self) -> Result<(), String> {
        Node::check_invariants(self)
    }
}
