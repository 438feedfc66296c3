//! EBV core — the paper's contribution.
//!
//! *An Efficient Block Validation Mechanism for UTXO-based Blockchains*
//! (IPDPS 2022) disassembles input checking into Existence Validation
//! (EV), Unspent Validation (UV) and Script Validation (SV), then:
//!
//! * replaces the disk-bound UTXO set with an in-memory **bit-vector set**
//!   ([`bitvec`]) — one vector per block, one bit per output, sparse
//!   vectors stored as 16-bit index arrays;
//! * attaches a **proof** to every input ([`tidy`]): a Merkle branch
//!   (*MBr*), the previous tidy transaction (*ELs*), the block *height*
//!   and the output *position*, so EV and SV need no database;
//! * avoids **transaction inflation** by hashing input bodies out of the
//!   Merkle leaves ("tidy transactions");
//! * defeats **fake positions** with miner-stamped stake positions.
//!
//! Modules: [`validate`] is the validation pipeline both node types share,
//! over an input state: [`ebv_node`] for EBV (headers + bit vectors),
//! [`baseline_node`] for the Bitcoin-style comparator (the UTXO set);
//! [`par`] settles its SV on scoped helper threads while the caller
//! validates the next blocks;
//! [`intermediary`] converts baseline chains to EBV format (the paper's
//! §VI-A testbed component); [`proofs`] builds input proofs (the
//! transaction-proposer side); [`pack`] packages and mines EBV blocks;
//! [`ibd`] replays chains for the IBD experiments; [`metrics`] carries the
//! per-phase timing breakdown; [`sync`] is the fault-tolerant multi-peer
//! block-sync subsystem (peer scoring, capped backoff, bans, reorg
//! handling, deterministic fault injection).

pub mod baseline_node;
pub mod bitvec;
pub mod ebv_node;
pub mod ibd;
pub mod intermediary;
pub mod mempool;
pub mod metrics;
pub mod pack;
pub mod par;
pub mod proofs;
pub mod sighash;
pub mod sync;
pub mod tidy;
pub mod validate;

pub use baseline_node::{BaselineConfig, BaselineError, BaselineNode};
pub use bitvec::{BitVectorSet, BitVectorSetSize, BitVectorSnapshot, BlockBitVector, UvError};
pub use ebv_node::{EbvConfig, EbvError, EbvNode, SnapshotError};
pub use ibd::{
    build_checkpoints, parallel_ibd, replay_ibd, synced_ibd, CheckpointError, IbdFailure,
    IntervalStat, ParallelIbd, ParallelIbdError, Period, SyncedIbd,
};
pub use intermediary::{ConvertError, Intermediary};
pub use mempool::{Mempool, MempoolError};
pub use metrics::Breakdown;
pub use pack::{ebv_coinbase, pack_ebv_block};
pub use proofs::ProofArchive;
pub use sighash::{sign_input, sv_chunk_batched, DigestChecker, PubkeyCache, SvJob, SV_BATCH_MAX};
pub use sync::{
    reorg_to, serve_adversary, serve_blocks, spawn_source, sync_managed, sync_multi, sync_single,
    AdversarialServer, BlockSource, DefensePolicy, Fault, FaultSchedule, FaultyPeer,
    InboundDecision, ManagedConfig, ManagedReport, PeerAddr, PeerFactory, PeerHandle, PeerManager,
    PeerManagerConfig, PeerStats, ReorgError, SyncConfig, SyncError, SyncReport, TcpPeer,
    TcpServer, Transport, ValidatingNode, WireAdversary, WireConfig, WireError,
};
pub use tidy::{EbvBlock, EbvTransaction, InputBody, InputProof, TidyTransaction};
