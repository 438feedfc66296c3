//! The deterministic chain generator.
//!
//! Produces a baseline-format chain whose per-block statistics follow the
//! configured profile. Spend timing is scheduled at output creation: each
//! output either joins the dormant set (never spent — UTXO growth) or is
//! assigned a death height drawn from a geometric distribution; when its
//! block arrives, it is consumed by a spending transaction. A
//! consolidation epoch, if configured, additionally sweeps dormant coins.
//!
//! All signatures are real ECDSA over the shared spend digest, so the
//! generated chain validates on both the baseline node and (after
//! conversion by the intermediary) the EBV node.

use crate::keys::KeyPool;
use crate::params::GeneratorParams;
use ebv_chain::transaction::{spend_sighash, Transaction, TxIn, TxOut};
use ebv_chain::{build_block, coinbase_tx, Block, OutPoint};
use ebv_primitives::hash::Hash256;
use ebv_script::standard::p2pkh_unlock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A coin the generator can spend later.
#[derive(Clone, Debug)]
struct Coin {
    outpoint: OutPoint,
    /// Coordinates the shared sighash commits to.
    height: u32,
    position: u32,
    value: u64,
    key_index: usize,
}

/// Chain generator state.
pub struct ChainGenerator {
    params: GeneratorParams,
    keys: KeyPool,
    rng: SmallRng,
    /// Coins scheduled to be spent, keyed by death height.
    scheduled: BTreeMap<u32, Vec<Coin>>,
    /// Never-spent coins (consumable only by consolidation).
    dormant: Vec<Coin>,
}

/// Summary statistics of a generated chain (used by tests and figures).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChainStats {
    pub blocks: u32,
    pub transactions: u64,
    pub inputs: u64,
    pub outputs: u64,
}

impl ChainGenerator {
    pub fn new(params: GeneratorParams) -> ChainGenerator {
        let keys = KeyPool::new(params.seed, params.key_pool);
        let rng = SmallRng::seed_from_u64(params.seed ^ 0x9e37_79b9_7f4a_7c15);
        ChainGenerator {
            params,
            keys,
            rng,
            scheduled: BTreeMap::new(),
            dormant: Vec::new(),
        }
    }

    /// Generate the full chain, genesis included (height = index).
    pub fn generate(&mut self) -> Vec<Block> {
        let n = self.params.n_blocks;
        let mut blocks = Vec::with_capacity(n as usize + 1);

        // Genesis: coinbase pays key 0; its output is registered like any
        // other so early blocks have something to spend.
        let genesis = build_block(
            Hash256::ZERO,
            coinbase_tx(0, self.keys.entry(0).lock.clone(), Vec::new()),
            Vec::new(),
            0,
            self.params.bits,
        );
        self.register_block_outputs(&genesis, 0);
        blocks.push(genesis);

        for height in 1..=n {
            let prev_hash = blocks.last().expect("genesis present").header.hash();
            let block = self.generate_block(height, prev_hash);
            self.register_block_outputs(&block, height);
            blocks.push(block);
        }
        blocks
    }

    /// Statistics over an already generated chain.
    pub fn stats(blocks: &[Block]) -> ChainStats {
        ChainStats {
            blocks: blocks.len() as u32,
            transactions: blocks.iter().map(|b| b.transactions.len() as u64).sum(),
            inputs: blocks.iter().map(|b| b.input_count() as u64).sum(),
            outputs: blocks.iter().map(|b| b.output_count() as u64).sum(),
        }
    }

    fn generate_block(&mut self, height: u32, prev_hash: Hash256) -> Block {
        // Coins whose death height has arrived.
        let mut due: Vec<Coin> = Vec::new();
        let due_heights: Vec<u32> = self.scheduled.range(..=height).map(|(&h, _)| h).collect();
        for h in due_heights {
            due.extend(self.scheduled.remove(&h).expect("key from range"));
        }

        let target_txs = self
            .params
            .txs_per_block
            .at(height, self.params.n_blocks + 1);
        let target_txs = target_txs.round().max(0.0) as usize;

        let mut txs = Vec::new();
        // Regular spends: group due coins into transactions.
        let mut cursor = 0usize;
        while cursor < due.len() && txs.len() < target_txs {
            let take = self.rng.gen_range(1..=self.params.max_inputs_per_tx);
            let take = take.min(due.len() - cursor);
            let coins = &due[cursor..cursor + take];
            cursor += take;
            txs.push(self.build_spend(coins, height, false));
        }
        // Any leftover due coins get rescheduled a bit later rather than
        // dropped, so spend pressure is conserved.
        for coin in due.drain(cursor..) {
            let delay = 1 + self.rng.gen_range(0..4);
            self.scheduled.entry(height + delay).or_default().push(coin);
        }

        // Consolidation epoch: sweep dormant coins.
        if let Some(c) = self.params.consolidation {
            if (c.start..=c.end).contains(&height) {
                for _ in 0..c.txs_per_block {
                    if self.dormant.len() < 2 {
                        break;
                    }
                    let take = c.inputs_per_tx.min(self.dormant.len());
                    // Oldest first: consolidation targets long-dormant coins.
                    let coins: Vec<Coin> = self.dormant.drain(..take).collect();
                    txs.push(self.build_spend(&coins, height, true));
                }
            }
        }

        let miner_key = self.rng.gen_range(0..self.keys.len());
        let coinbase = coinbase_tx(height, self.keys.entry(miner_key).lock.clone(), Vec::new());
        build_block(prev_hash, coinbase, txs, height, self.params.bits)
    }

    /// Build one signed spending transaction consuming `coins`.
    fn build_spend(&mut self, coins: &[Coin], _height: u32, consolidation: bool) -> Transaction {
        let total: u64 = coins.iter().map(|c| c.value).sum();
        let n_outputs = if consolidation {
            1
        } else {
            self.rng.gen_range(1..=self.params.max_outputs_per_tx)
        };
        // Split the value evenly; remainder goes to the first output. No
        // explicit fees — fee dynamics are irrelevant to every figure.
        let share = total / n_outputs as u64;
        let outputs: Vec<TxOut> = (0..n_outputs)
            .map(|i| {
                let value = if i == 0 {
                    total - share * (n_outputs as u64 - 1)
                } else {
                    share
                };
                let key = self.rng.gen_range(0..self.keys.len());
                TxOut::new(value, self.keys.entry(key).lock.clone())
            })
            .collect();

        let coords: Vec<(u32, u32)> = coins.iter().map(|c| (c.height, c.position)).collect();
        let inputs: Vec<TxIn> = coins
            .iter()
            .enumerate()
            .map(|(idx, coin)| {
                let digest = spend_sighash(1, &coords, &outputs, 0, idx as u32);
                let entry = self.keys.entry(coin.key_index);
                let sig = {
                    let mut s = entry.sk.sign(digest.as_bytes()).to_compact().to_vec();
                    s.push(ebv_chain::SIGHASH_ALL);
                    s
                };
                TxIn::new(coin.outpoint, p2pkh_unlock(&sig, &entry.pk_bytes))
            })
            .collect();

        Transaction {
            version: 1,
            inputs,
            outputs,
            lock_time: 0,
        }
    }

    /// Register every output of a freshly built block: schedule its death
    /// or park it in the dormant set.
    fn register_block_outputs(&mut self, block: &Block, height: u32) {
        let mut position = 0u32;
        for tx in &block.transactions {
            let txid = tx.txid();
            for (vout, output) in tx.outputs.iter().enumerate() {
                // Recover the paying key by matching the locking script.
                // The generator only ever emits pool locks, so scan is
                // bounded by the (small) pool; cache via map would be
                // overkill at pool sizes used here.
                let key_index = self.key_index_of(&output.locking_script);
                let coin = Coin {
                    outpoint: OutPoint::new(txid, vout as u32),
                    height,
                    position,
                    value: output.value,
                    key_index,
                };
                position += 1;
                if self.rng.gen_bool(self.params.p_never_spent) {
                    self.dormant.push(coin);
                } else if self.rng.gen_bool(self.params.p_old_spend) {
                    // Old money: a uniformly distant future spend. These
                    // defeat an LRU cache the way mainnet's long-dormant
                    // coins do.
                    let (lo, hi) = self.params.old_age_range;
                    let age = self.rng.gen_range(lo.max(1)..=hi.max(lo.max(1)));
                    self.scheduled.entry(height + age).or_default().push(coin);
                } else {
                    // Geometric age with the configured mean, minimum 1
                    // (same-block spends are excluded by design — see
                    // DESIGN.md).
                    let p = 1.0 / self.params.mean_spend_age.max(1.0);
                    let mut age = 1u32;
                    while !self.rng.gen_bool(p) && age < 10_000 {
                        age += 1;
                    }
                    self.scheduled.entry(height + age).or_default().push(coin);
                }
            }
        }
    }

    fn key_index_of(&self, lock: &ebv_script::Script) -> usize {
        for i in 0..self.keys.len() {
            if &self.keys.entry(i).lock == lock {
                return i;
            }
        }
        unreachable!("generator only pays pool keys");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GeneratorParams;

    #[test]
    fn deterministic_generation() {
        let a = ChainGenerator::new(GeneratorParams::tiny(8, 42)).generate();
        let b = ChainGenerator::new(GeneratorParams::tiny(8, 42)).generate();
        assert_eq!(a.len(), 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.header.hash(), y.header.hash());
        }
        // Different seed → different chain.
        let c = ChainGenerator::new(GeneratorParams::tiny(8, 43)).generate();
        assert_ne!(a[8].header.hash(), c[8].header.hash());
    }

    #[test]
    fn chain_links_and_structure() {
        let blocks = ChainGenerator::new(GeneratorParams::tiny(10, 7)).generate();
        for (h, block) in blocks.iter().enumerate() {
            block.check_structure().expect("structurally valid");
            if h > 0 {
                assert_eq!(block.header.prev_block_hash, blocks[h - 1].header.hash());
            }
        }
    }

    #[test]
    fn spends_eventually_happen() {
        let blocks = ChainGenerator::new(GeneratorParams::tiny(20, 3)).generate();
        let stats = ChainGenerator::stats(&blocks);
        assert!(stats.inputs > 0, "chain must contain real spends");
        assert!(stats.outputs > stats.inputs, "UTXO set must grow");
    }

    #[test]
    fn consolidation_adds_many_input_txs() {
        let params = GeneratorParams::tiny(30, 9).with_consolidation(20, 25);
        let with = ChainGenerator::new(params).generate();
        let max_inputs_per_tx_seen = with
            .iter()
            .flat_map(|b| b.transactions.iter().skip(1))
            .map(|tx| tx.inputs.len())
            .max()
            .unwrap_or(0);
        // tiny() caps regular txs at 2 inputs; consolidation goes beyond.
        assert!(
            max_inputs_per_tx_seen > 2,
            "expected a consolidation tx, max seen {max_inputs_per_tx_seen}"
        );
    }

    #[test]
    fn no_same_block_spends() {
        let blocks = ChainGenerator::new(GeneratorParams::tiny(15, 5)).generate();
        for block in &blocks {
            let own_txids: std::collections::HashSet<_> =
                block.transactions.iter().map(|t| t.txid()).collect();
            for tx in block.transactions.iter().skip(1) {
                for input in &tx.inputs {
                    assert!(
                        !own_txids.contains(&input.prevout.txid),
                        "same-block spend generated"
                    );
                }
            }
        }
    }
}
