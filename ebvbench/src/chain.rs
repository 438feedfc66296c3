//! The benchmark's input: one mainnet-like ledger per seed.
//!
//! Generating a ledger signs every input and takes seconds, so it belongs
//! to the harness, not to the system under test: it counts toward no
//! metric, and each seed's ledger is generated once and cached under the
//! work directory for later runs. The cache file records the generator
//! parameters it was made from and is regenerated when they change; a
//! change to the generator's code needs the cache cleared by hand.

use ebv_chain::Block;
use ebv_primitives::encode::{Decodable, Encodable, Reader};
use ebv_primitives::hash::Hash256;
use ebv_workload::{ChainGenerator, GeneratorParams};
use std::path::Path;

/// Blocks generated after genesis for a benchmark ledger.
pub const BLOCKS: u32 = 1040;

/// Blocks `relay-ebv` relays after its snapshot boot: enough that at least
/// ten per-block samples lie beyond the 99th percentile.
pub const RELAY_BLOCKS: u32 = 1000;

/// Cache-file magic; bump the digit when the encoding changes.
const MAGIC: &str = "EBVBNC1\n";

/// One generated ledger plus the facts the output checks compare against.
pub struct Ledger {
    /// Baseline-format blocks, genesis first (height = index).
    pub blocks: Vec<Block>,
    /// Non-coinbase inputs across the chain.
    pub inputs: u64,
    /// Outputs across the chain, genesis included.
    pub outputs: u64,
}

impl Ledger {
    /// The ledger `Scenario::mainnet_like` builds for the figure binaries.
    pub fn mainnet_like(blocks: u32, seed: u64) -> Ledger {
        Ledger::generate(params(blocks, seed))
    }

    fn generate(params: GeneratorParams) -> Ledger {
        Ledger::from_blocks(ChainGenerator::new(params).generate())
    }

    /// Wrap an existing chain (tests use this to corrupt one).
    pub fn from_blocks(blocks: Vec<Block>) -> Ledger {
        let inputs = blocks.iter().map(|b| b.input_count() as u64).sum();
        let outputs = blocks.iter().map(|b| b.output_count() as u64).sum();
        Ledger {
            blocks,
            inputs,
            outputs,
        }
    }

    /// The mainnet-like ledger for `seed`, read from `dir` when an earlier
    /// run cached it, else generated and cached there.
    pub fn cached(dir: &Path, blocks: u32, seed: u64) -> std::io::Result<Ledger> {
        let path = dir.join(format!("mainnet_like-{blocks}-{seed}.chain"));
        let params = params(blocks, seed);
        let header = format!("{MAGIC}{params:?}\n");
        if let Ok(bytes) = std::fs::read(&path) {
            if let Some(chain) = decode_cache(&bytes, header.as_bytes()) {
                if chain.len() == blocks as usize + 1 {
                    return Ok(Ledger::from_blocks(chain));
                }
            }
        }
        let ledger = Ledger::generate(params);
        let mut bytes = header.into_bytes();
        ledger.blocks.encode(&mut bytes);
        std::fs::create_dir_all(dir)?;
        // Write-then-rename, so a run killed mid-write never leaves a
        // truncated cache behind.
        let tmp = dir.join(format!(
            ".mainnet_like-{blocks}-{seed}.{}",
            std::process::id()
        ));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(ledger)
    }

    /// Height of the last block.
    pub fn tip_height(&self) -> u32 {
        self.blocks.len() as u32 - 1
    }

    /// Header hash of the baseline chain's last block.
    pub fn tip_hash(&self) -> Hash256 {
        self.blocks
            .last()
            .expect("a ledger has a genesis")
            .header
            .hash()
    }

    /// Outputs still unspent at the tip.
    pub fn unspent(&self) -> u64 {
        self.outputs - self.inputs
    }
}

/// The profile `Scenario::mainnet_like` uses: mainnet-like plus its
/// consolidation epoch at 10/13 to 11/13 of the chain.
fn params(blocks: u32, seed: u64) -> GeneratorParams {
    GeneratorParams::mainnet_like(blocks, seed)
        .with_consolidation(blocks * 10 / 13, blocks * 11 / 13)
}

fn decode_cache(bytes: &[u8], header: &[u8]) -> Option<Vec<Block>> {
    let body = bytes.strip_prefix(header)?;
    let mut r = Reader::new(body);
    let chain = Vec::<Block>::decode(&mut r).ok()?;
    (r.remaining() == 0).then_some(chain)
}
