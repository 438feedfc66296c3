//! IBD race: the same logical ledger synced by a Bitcoin-style node and
//! an EBV node under an identical memory budget (paper Figs. 5 and 17 in
//! miniature).
//!
//! ```sh
//! cargo run --release --example ibd_comparison
//! ```

use ebv::core::{replay_ibd, BaselineConfig, BaselineNode, Intermediary};
use ebv::store::{KvStore, LatencyModel, StoreConfig, UtxoSet};
use ebv::workload::{ChainGenerator, GeneratorParams};
use ebv_core::{EbvConfig, EbvNode};

fn main() {
    let n_blocks = 200;
    let budget = 48 << 10; // deliberately tight, like the paper's 500 MB vs 4.3 GB
    let latency = LatencyModel::scaled_hdd(60, 15);

    println!("generating {n_blocks}-block chain…");
    let blocks = ChainGenerator::new(GeneratorParams::mainnet_like(n_blocks, 11)).generate();
    let mut intermediary = Intermediary::new(0);
    let ebv_blocks = intermediary.convert_chain(&blocks).expect("conversion");

    // Baseline IBD.
    let store = KvStore::open(StoreConfig {
        cache_budget: budget,
        latency,
        path: None,
    })
    .expect("store");
    let mut baseline =
        BaselineNode::new(&blocks[0], UtxoSet::new(store), BaselineConfig::default())
            .expect("genesis");
    let periods = replay_ibd(&mut baseline, &blocks[1..], 50).expect("ibd");
    let base_total: f64 = periods.iter().map(|p| p.wall.as_secs_f64()).sum();
    let bb = baseline.cumulative_breakdown();
    println!(
        "bitcoin-style IBD: {base_total:.2} s (dbo {:.2} s, sv {:.2} s, others {:.2} s; \
         cache hit ratio {:.1}%)",
        bb.dbo.as_secs_f64(),
        bb.sv.as_secs_f64(),
        bb.others.as_secs_f64(),
        baseline.utxos().stats().hit_ratio() * 100.0,
    );

    // EBV IBD.
    let mut ebv = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let periods = replay_ibd(&mut ebv, &ebv_blocks[1..], 50).expect("ibd");
    let ebv_total: f64 = periods.iter().map(|p| p.wall.as_secs_f64()).sum();
    let eb = ebv.cumulative_breakdown();
    println!(
        "EBV IBD:           {ebv_total:.2} s (ev {:.2} s, uv {:.2} s, sv {:.2} s, commit {:.2} s, others {:.2} s)",
        eb.ev.as_secs_f64(),
        eb.uv.as_secs_f64(),
        eb.sv.as_secs_f64(),
        eb.commit.as_secs_f64(),
        eb.others.as_secs_f64(),
    );

    println!(
        "reduction: {:.1}%  (paper: 38.5% at its scale)",
        (1.0 - ebv_total / base_total) * 100.0
    );
    assert_eq!(baseline.tip_height(), ebv.tip_height());
    assert_eq!(baseline.utxos().size().count, ebv.total_unspent());
    println!(
        "both nodes at height {} with {} unspent outputs — consistent",
        ebv.tip_height(),
        ebv.total_unspent()
    );
}
