//! Security test suite — the attacks of the paper's §V, mounted across
//! crate boundaries against a running EBV node.

use ebv::chain::transaction::{spend_sighash, TxOut};
use ebv::core::{
    ebv_coinbase, pack_ebv_block, sign_input, EbvConfig, EbvError, EbvNode, EbvTransaction,
    InputBody, ProofArchive, UvError,
};
use ebv::primitives::ec::PrivateKey;
use ebv::primitives::hash::{sha256d, Hash256};
use ebv::script::standard::{p2pkh_lock, p2pkh_unlock};
use ebv_chain::merkle::{merkle_levels, MerkleBranch};
use ebv_chain::BLOCK_SUBSIDY;
use ebv_core::{EbvBlock, InputProof};

/// World: genesis coinbase pays `alice`; returns node + archive + alice.
fn world() -> (EbvNode, ProofArchive, PrivateKey, EbvBlock) {
    let alice = PrivateKey::from_seed(50);
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
    (node, archive, alice, genesis)
}

fn spend_with(proof: InputProof, signer: &PrivateKey, out_value: u64) -> EbvTransaction {
    let outputs = vec![TxOut::new(
        out_value,
        p2pkh_lock(&signer.public_key().address_hash()),
    )];
    let digest = spend_sighash(
        1,
        &[(proof.height, proof.absolute_position())],
        &outputs,
        0,
        0,
    );
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

fn block_with(node: &EbvNode, height: u32, tx: EbvTransaction) -> EbvBlock {
    pack_ebv_block(
        node.tip_hash(),
        vec![ebv_coinbase(height, ebv::script::Script::new()), tx],
        height,
        0,
    )
}

#[test]
fn spending_a_nonexistent_output_fails_ev() {
    let (mut node, archive, alice, _) = world();
    // Fabricate a proof for an output that was never created: real ELs but
    // a hand-built Merkle branch over fake leaves.
    let real = archive.make_proof(0, 0).expect("exists");
    let fake_leaves = vec![sha256d(b"fake0"), sha256d(b"fake1")];
    let forged = InputProof {
        mbr: MerkleBranch::from_levels(&merkle_levels(&fake_leaves), 0),
        els: real.els.clone(),
        height: 0,
        relative_position: 0,
    };
    let tx = spend_with(forged, &alice, 1000);
    let err = node.process_block(&block_with(&node, 1, tx)).unwrap_err();
    assert!(matches!(err, EbvError::EvFailed { .. }), "got {err:?}");
}

#[test]
fn spending_an_already_spent_output_fails_uv() {
    let (mut node, mut archive, alice, _) = world();
    // Legitimate spend first.
    let proof = archive.make_proof(0, 0).expect("exists");
    let b1 = block_with(&node, 1, spend_with(proof, &alice, BLOCK_SUBSIDY));
    node.process_block(&b1).expect("first spend ok");
    archive.add_block(1, &b1);

    // Second spend of the same coordinates.
    let proof = archive
        .make_proof(0, 0)
        .expect("coordinates still derivable");
    let tx = spend_with(proof, &alice, 500);
    let err = node.process_block(&block_with(&node, 2, tx)).unwrap_err();
    assert!(
        matches!(
            err,
            EbvError::UvFailed {
                err: UvError::UnknownHeight(0),
                ..
            }
        ),
        "fully-spent block's vector was deleted, so UV reports unknown height: {err:?}"
    );
}

#[test]
fn fake_position_is_caught() {
    let (mut node, archive, alice, _) = world();
    // The proposer lies about the relative position (the §IV-D2 attack):
    // the coinbase has a single output, so position 1 does not exist.
    let mut proof = archive.make_proof(0, 0).expect("exists");
    proof.relative_position = 1;
    let tx = spend_with(proof, &alice, 1000);
    let err = node.process_block(&block_with(&node, 1, tx)).unwrap_err();
    assert!(
        matches!(err, EbvError::PositionOutOfEls { .. }),
        "got {err:?}"
    );
}

#[test]
fn fake_stake_position_in_els_is_caught_by_ev() {
    let (mut node, archive, alice, _) = world();
    // The proposer doctors the *stake position inside ELs* to shift the
    // absolute position: the leaf hash changes, so EV fails.
    let mut proof = archive.make_proof(0, 0).expect("exists");
    proof.els.stake_position = 7;
    let tx = spend_with(proof, &alice, 1000);
    let err = node.process_block(&block_with(&node, 1, tx)).unwrap_err();
    assert!(matches!(err, EbvError::EvFailed { .. }), "got {err:?}");
}

#[test]
fn stealing_with_wrong_key_fails_sv() {
    let (mut node, archive, _alice, _) = world();
    let mallory = PrivateKey::from_seed(666);
    let proof = archive.make_proof(0, 0).expect("exists");
    // Mallory signs with her own key for an output locked to alice.
    let tx = spend_with(proof, &mallory, 1000);
    let err = node.process_block(&block_with(&node, 1, tx)).unwrap_err();
    // P2PKH pubkey-hash mismatch surfaces as a script VerifyFailed.
    assert!(matches!(err, EbvError::SvFailed { .. }), "got {err:?}");
}

#[test]
fn replayed_signature_on_different_outputs_fails_sv() {
    let (mut node, archive, alice, _) = world();
    let proof = archive.make_proof(0, 0).expect("exists");
    // Build a legit tx, then swap the outputs while keeping the signature:
    // the spend digest commits to outputs, so SV must fail.
    let mut tx = spend_with(proof, &alice, 1000);
    tx.tidy.outputs[0].value = 999_999;
    let err = node.process_block(&block_with(&node, 1, tx)).unwrap_err();
    assert!(matches!(err, EbvError::SvFailed { .. }), "got {err:?}");
}

#[test]
fn inflating_value_beyond_inputs_fails() {
    let (mut node, archive, alice, _) = world();
    let proof = archive.make_proof(0, 0).expect("exists");
    let outputs = vec![TxOut::new(
        BLOCK_SUBSIDY * 2,
        p2pkh_lock(&alice.public_key().address_hash()),
    )];
    let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
    let us = p2pkh_unlock(
        &sign_input(&alice, &digest),
        &alice.public_key().to_compressed(),
    );
    let tx = EbvTransaction::from_parts(
        1,
        vec![InputBody {
            us,
            proof: Some(proof),
        }],
        outputs,
        0,
    );
    let err = node.process_block(&block_with(&node, 1, tx)).unwrap_err();
    assert!(
        matches!(err, EbvError::ValueImbalance { .. }),
        "got {err:?}"
    );
}

#[test]
fn truncated_merkle_branch_fails_ev() {
    let (mut node, mut archive, alice, _) = world();
    // Grow the chain so branches are non-trivial: block 1 has 2 txs.
    let proof = archive.make_proof(0, 0).expect("exists");
    let b1 = block_with(&node, 1, spend_with(proof, &alice, BLOCK_SUBSIDY));
    node.process_block(&b1).expect("ok");
    archive.add_block(1, &b1);

    // Spend alice's change output at block 1 with a truncated branch.
    let mut proof = archive.make_proof(1, 1).expect("change exists");
    assert!(!proof.mbr.siblings.is_empty());
    proof.mbr.siblings.pop();
    let tx = spend_with(proof, &alice, 1000);
    let err = node.process_block(&block_with(&node, 2, tx)).unwrap_err();
    assert!(matches!(err, EbvError::EvFailed { .. }), "got {err:?}");
}

#[test]
fn miner_cannot_misassign_stake_positions() {
    let (mut node, archive, alice, _) = world();
    let proof = archive.make_proof(0, 0).expect("exists");
    let mut block = block_with(&node, 1, spend_with(proof, &alice, BLOCK_SUBSIDY));
    // A lying miner shifts the second transaction's stake position and
    // re-commits the Merkle root (so the root check passes).
    block.transactions[1].tidy.stake_position = 5;
    block.header.merkle_root = block.compute_merkle_root();
    let err = node.process_block(&block).unwrap_err();
    assert!(matches!(err, EbvError::StakeMismatch { .. }), "got {err:?}");
}

#[test]
fn timelocked_output_respects_cltv() {
    use ebv::script::opcodes::{OP_CHECKLOCKTIMEVERIFY, OP_DROP};
    use ebv::script::Builder;

    let (mut node, mut archive, alice, _) = world();
    // Block 1 pays alice through a CLTV-guarded script requiring
    // lock_time ≥ 700.
    let timelock = Builder::new()
        .push_int(700)
        .push_op(OP_CHECKLOCKTIMEVERIFY)
        .push_op(OP_DROP)
        .into_script();
    // Prefix the standard P2PKH with the timelock: the full lock is
    // "700 CLTV DROP DUP HASH160 <h> EQUALVERIFY CHECKSIG".
    let mut lock_bytes = timelock.as_bytes().to_vec();
    lock_bytes.extend_from_slice(p2pkh_lock(&alice.public_key().address_hash()).as_bytes());
    let lock = ebv::script::Script::from_bytes(lock_bytes);

    let proof = archive.make_proof(0, 0).expect("genesis coin");
    let outputs = vec![TxOut::new(BLOCK_SUBSIDY, lock)];
    let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
    let us = p2pkh_unlock(
        &sign_input(&alice, &digest),
        &alice.public_key().to_compressed(),
    );
    let fund = EbvTransaction::from_parts(
        1,
        vec![InputBody {
            us,
            proof: Some(proof),
        }],
        outputs,
        0,
    );
    let b1 = block_with(&node, 1, fund);
    node.process_block(&b1).expect("funding block valid");
    archive.add_block(1, &b1);

    // Spend attempt with lock_time 0: CLTV fails.
    let build_spend = |archive: &ProofArchive, lock_time: u32| {
        let proof = archive.make_proof(1, 1).expect("timelocked coin");
        let outputs = vec![TxOut::new(
            1000,
            p2pkh_lock(&alice.public_key().address_hash()),
        )];
        let digest = spend_sighash(1, &[(1, 1)], &outputs, lock_time, 0);
        let us = p2pkh_unlock(
            &sign_input(&alice, &digest),
            &alice.public_key().to_compressed(),
        );
        EbvTransaction::from_parts(
            1,
            vec![InputBody {
                us,
                proof: Some(proof),
            }],
            outputs,
            lock_time,
        )
    };
    let early = build_spend(&archive, 0);
    let b_early = block_with(&node, 2, early);
    match node.process_block(&b_early) {
        Err(EbvError::SvFailed { .. }) => {}
        other => panic!("expected CLTV failure, got {other:?}"),
    }

    // With lock_time 700 the same coin spends fine.
    let late = build_spend(&archive, 700);
    let b_late = block_with(&node, 2, late);
    node.process_block(&b_late).expect("CLTV satisfied");
}

#[test]
fn baseline_rejects_the_same_attacks() {
    // The baseline comparator must also be sound: nonexistent outpoint.
    use ebv::core::{BaselineConfig, BaselineError, BaselineNode};
    use ebv::store::{KvStore, StoreConfig, UtxoSet};
    use ebv_chain::transaction::{Transaction, TxIn};
    use ebv_chain::{build_block, coinbase_tx, OutPoint};

    let alice = PrivateKey::from_seed(50);
    let genesis = build_block(
        Hash256::ZERO,
        coinbase_tx(
            0,
            p2pkh_lock(&alice.public_key().address_hash()),
            Vec::new(),
        ),
        Vec::new(),
        0,
        0,
    );
    let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(1 << 20)).expect("store"));
    let mut node = BaselineNode::new(&genesis, utxos, BaselineConfig::default()).expect("boot");

    let outputs = vec![TxOut::new(1, ebv::script::Script::new())];
    let digest = spend_sighash(1, &[(0, 0)], &outputs, 0, 0);
    let us = p2pkh_unlock(
        &sign_input(&alice, &digest),
        &alice.public_key().to_compressed(),
    );
    let ghost = Transaction {
        version: 1,
        inputs: vec![TxIn::new(OutPoint::new(sha256d(b"ghost"), 0), us)],
        outputs,
        lock_time: 0,
    };
    let block = build_block(
        genesis.header.hash(),
        coinbase_tx(1, ebv::script::Script::new(), Vec::new()),
        vec![ghost],
        1,
        0,
    );
    let err = node.process_block(&block).unwrap_err();
    assert!(
        matches!(err, BaselineError::MissingUtxo { .. }),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Wire-codec hardening: the framing layer is the first untrusted-input
// surface a networked node exposes, so its decoder must never panic, never
// let a claimed length drive an allocation, and never accept a tampered
// header. These tests fuzz the frame format structurally — every
// truncation point, every header bit — rather than randomly.

use ebv::core::sync::wire::{
    checksum, decode_frame, encode_frame, FrameHeader, PayloadBuf, WireError, WireMessage,
    DEFAULT_MAX_FRAME, FRAME_HEADER_LEN, PAYLOAD_CHUNK,
};
use ebv::core::BitVectorSnapshot;
use ebv::primitives::encode::{write_varint, Decodable, Encodable, MAX_COLLECTION_LEN};

/// One of every wire message kind, with representative payloads.
fn every_wire_message() -> Vec<WireMessage> {
    vec![
        WireMessage::Hello {
            network: sha256d(b"testnet"),
            start_height: 7,
        },
        WireMessage::GetBlocks {
            id: 42,
            start_height: 100,
            count: 16,
        },
        WireMessage::Blocks {
            id: 42,
            blocks: vec![vec![1, 2, 3], Vec::new(), vec![0xFF; 300]],
        },
        WireMessage::Exhausted { id: 42 },
        WireMessage::Bye,
    ]
}

#[test]
fn wire_frames_round_trip_every_message_type() {
    for msg in every_wire_message() {
        let frame = encode_frame(&msg);
        let (decoded, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME)
            .unwrap_or_else(|e| panic!("{}: {e}", msg.name()));
        assert_eq!(consumed, frame.len(), "{}: full frame consumed", msg.name());
        assert_eq!(decoded, msg, "{}: round trip", msg.name());
    }
}

#[test]
fn wire_decode_survives_truncation_at_every_byte_boundary() {
    // Every proper prefix of every frame must decode to TruncatedFrame —
    // never a panic, never a partial message, with one principled
    // exception: a prefix that cuts inside the header may instead report
    // the header defect it can already see (there is none here, the
    // header is honest, so header prefixes shorter than 16 bytes are all
    // TruncatedFrame too).
    for msg in every_wire_message() {
        let frame = encode_frame(&msg);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut], DEFAULT_MAX_FRAME) {
                Err(WireError::TruncatedFrame) => {}
                other => panic!(
                    "{} cut at {cut}/{}: expected TruncatedFrame, got {other:?}",
                    msg.name(),
                    frame.len()
                ),
            }
        }
    }
}

#[test]
fn wire_decode_survives_every_header_bit_flip() {
    // Flip each of the 128 header bits in turn. The decoder must never
    // panic and must never return the original message: either the header
    // check, the checksum, or the payload decode catches the tamper. (A
    // kind-byte flip can land on another valid kind, and a length flip
    // can shorten the frame into a valid shorter one — so "always an
    // error" is not the invariant; "never the original bytes' meaning"
    // is.)
    for msg in every_wire_message() {
        let frame = encode_frame(&msg);
        for byte in 0..FRAME_HEADER_LEN {
            for bit in 0..8u8 {
                let mut tampered = frame.clone();
                tampered[byte] ^= 1 << bit;
                if let Ok((decoded, _)) = decode_frame(&tampered, DEFAULT_MAX_FRAME) {
                    assert_ne!(
                        decoded,
                        msg,
                        "{}: flipping header byte {byte} bit {bit} went unnoticed",
                        msg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn wire_decode_survives_payload_corruption() {
    // Any single-byte payload corruption must be caught by the checksum.
    for msg in every_wire_message() {
        let frame = encode_frame(&msg);
        for byte in FRAME_HEADER_LEN..frame.len() {
            let mut tampered = frame.clone();
            tampered[byte] ^= 0x01;
            match decode_frame(&tampered, DEFAULT_MAX_FRAME) {
                Err(WireError::ChecksumMismatch) => {}
                other => panic!(
                    "{}: payload byte {byte} corruption yielded {other:?}",
                    msg.name()
                ),
            }
        }
    }
}

#[test]
fn wire_header_rejects_oversized_claim_before_any_allocation() {
    // A header claiming a frame larger than the cap is rejected from the
    // 16 header bytes alone.
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(b"EBW1");
    header[4..6].copy_from_slice(&1u16.to_le_bytes());
    header[6] = 0x05; // Bye
    header[8..12].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
    match FrameHeader::parse(&header, DEFAULT_MAX_FRAME) {
        Err(WireError::FrameTooLarge { claimed, max }) => {
            assert_eq!(claimed, u32::MAX - 1);
            assert_eq!(max, DEFAULT_MAX_FRAME);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }

    // And even an *accepted* maximal claim must not drive the payload
    // buffer's allocation: capacity tracks received bytes in bounded
    // chunks, never the attacker's number.
    let mut buf = PayloadBuf::new(DEFAULT_MAX_FRAME as usize);
    assert!(
        buf.capacity() <= PAYLOAD_CHUNK,
        "claim drove the allocation"
    );
    let mut received = 0;
    for _ in 0..3 {
        let window = buf.window();
        let n = window.len();
        buf.advance(n, n);
        received += n;
        // Capacity tracks bytes actually received (one chunk of lookahead,
        // doubled at worst by Vec growth) — never the 8 MiB claim.
        assert!(
            buf.capacity() <= 2 * (received + PAYLOAD_CHUNK),
            "payload buffer exceeded its chunked-growth bound: {} after {received} bytes",
            buf.capacity()
        );
    }
    assert!(
        buf.capacity() < DEFAULT_MAX_FRAME as usize / 16,
        "payload buffer approached the claimed size: {}",
        buf.capacity()
    );
}

#[test]
fn wire_checksum_is_the_declared_hash() {
    // The checksum is pinned to sha256d's first four bytes — a frame
    // written by any correct implementation of the spec verifies here.
    let payload = b"frame payload";
    assert_eq!(checksum(payload), sha256d(payload).as_bytes()[..4]);
}

#[test]
fn huge_claimed_tx_count_in_a_tiny_block_fails_cleanly() {
    // A block whose header is honest but whose transaction-count varint
    // claims 2^25 entries followed by nothing: the decoder must fail with
    // a clean decode error (no panic, no count-sized allocation).
    let genesis = world().3;
    let mut bytes = genesis.header.to_bytes();
    assert_eq!(bytes.len(), 80, "header prefix");
    write_varint(&mut bytes, MAX_COLLECTION_LEN);
    let err = EbvBlock::from_bytes(&bytes).expect_err("truncated body must not decode");
    let _ = err; // any DecodeError is acceptable; not panicking is the point
}

#[test]
fn huge_claimed_vector_count_in_a_tiny_snapshot_fails_cleanly() {
    // Same attack at the snapshot layer: height + tip hash + unspent
    // count, then a vector-count varint claiming 2^25 with an empty body.
    let mut bytes = Vec::new();
    0u32.encode(&mut bytes);
    sha256d(b"tip").encode(&mut bytes);
    0u64.encode(&mut bytes);
    write_varint(&mut bytes, MAX_COLLECTION_LEN);
    let err = BitVectorSnapshot::from_bytes(&bytes).expect_err("empty body must not decode");
    let _ = err;
}
