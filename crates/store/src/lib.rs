//! Status-database substrate: the memory-limited store behind the
//! baseline's UTXO set.
//!
//! Layering (bottom up):
//!
//! * [`disk`] — an append-only log with offset index and an injectable
//!   latency model, standing in for LevelDB-on-HDD;
//! * [`cache`] — a byte-budgeted LRU cache, standing in for Btcd's
//!   memory-limited UTXO cache;
//! * [`kv`] — the combined store: cache-first reads, write-back puts,
//!   deletes that leave the cache at once (writing a record only for a
//!   key the log holds); DBO statistics throughout;
//! * [`utxo`] — the baseline UTXO set (outpoint → amount/script/height),
//!   with exact logical-size accounting for the growth experiments.
//!
//! The EBV node replaces [`utxo::UtxoSet`] with the bit-vector set in
//! `ebv-core`; both are measured by the same experiments.

pub mod cache;
pub mod disk;
pub mod kv;
pub mod stats;
pub mod utxo;

pub use disk::{DiskError, LatencyModel};
pub use kv::{KvStore, StoreConfig};
pub use stats::DboStats;
pub use utxo::{UtxoEntry, UtxoError, UtxoSet, UtxoSetSize};
