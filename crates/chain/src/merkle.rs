//! Merkle trees with branch extraction — the *MBr* machinery of EBV.
//!
//! The tree follows Bitcoin's construction: leaves are 32-byte hashes,
//! parents are `sha256d(left || right)`, and an odd node at any level is
//! paired with itself. [`MerkleBranch`] is the authentication path EBV
//! attaches to each input; folding it from a leaf reproduces the root
//! (Existence Validation).
//!
//! Per the paper's model the miner builds the tree once per block while
//! every validator folds 10-ish-hash branches, so tree construction stays
//! a plain sequential loop. A proof server keeps the levels
//! ([`merkle_levels`]) and reads each branch out of them
//! ([`MerkleBranch::from_levels`]) without hashing.

use ebv_primitives::encode::{Decodable, DecodeError, Encodable, Reader};
use ebv_primitives::hash::Hash256;

/// Every level of the Merkle tree over `leaves`: `levels[0]` is the leaves,
/// each next level pairs up the one below (an odd last node pairs with
/// itself), and the last level is the root alone.
///
/// # Panics
/// If `leaves` is empty — blocks always contain a coinbase.
pub fn merkle_levels(leaves: &[Hash256]) -> Vec<Vec<Hash256>> {
    assert!(!leaves.is_empty(), "merkle tree of zero leaves");
    let mut levels = vec![leaves.to_vec()];
    while let Some(level) = levels.last().filter(|level| level.len() > 1) {
        let next = level
            .chunks(2)
            .map(|pair| Hash256::merkle_parent(&pair[0], pair.get(1).unwrap_or(&pair[0])))
            .collect();
        levels.push(next);
    }
    levels
}

/// Compute the Merkle root of `leaves` (Bitcoin rule: empty list is
/// disallowed; a single leaf is its own root; odd levels duplicate the last
/// node).
///
/// # Panics
/// If `leaves` is empty — blocks always contain a coinbase.
pub fn merkle_root(leaves: &[Hash256]) -> Hash256 {
    merkle_levels(leaves)
        .last()
        .expect("a tree has at least the leaf level")[0]
}

/// An authentication path from a leaf to the root.
///
/// `siblings[0]` is the sibling at the leaf level; bit `k` of `leaf_index`
/// says whether the path node at level `k` is a right child (bit set) or a
/// left child.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MerkleBranch {
    pub leaf_index: u32,
    pub siblings: Vec<Hash256>,
}

impl MerkleBranch {
    /// Read the branch for `leaf_index` out of a tree's stored levels (as
    /// [`merkle_levels`] returns them): one sibling per level below the
    /// root, no hashing.
    ///
    /// # Panics
    /// If `levels` is empty or `leaf_index` is out of range.
    pub fn from_levels(levels: &[Vec<Hash256>], leaf_index: usize) -> MerkleBranch {
        assert!(leaf_index < levels[0].len(), "leaf index in range");
        let below_root = &levels[..levels.len() - 1];
        let siblings = below_root
            .iter()
            .enumerate()
            .map(|(k, level)| {
                let idx = leaf_index >> k;
                *level.get(idx ^ 1).unwrap_or(&level[idx])
            })
            .collect();
        MerkleBranch {
            leaf_index: leaf_index as u32,
            siblings,
        }
    }

    /// Fold the branch upward from `leaf`, producing the root it implies.
    pub fn fold(&self, leaf: &Hash256) -> Hash256 {
        let mut acc = *leaf;
        let mut idx = self.leaf_index;
        for sibling in &self.siblings {
            acc = if idx & 1 == 1 {
                Hash256::merkle_parent(sibling, &acc)
            } else {
                Hash256::merkle_parent(&acc, sibling)
            };
            idx >>= 1;
        }
        acc
    }

    /// Verify that `leaf` is committed to by `root`.
    pub fn verify(&self, leaf: &Hash256, root: &Hash256) -> bool {
        self.fold(leaf) == *root
    }

    /// Serialized size in bytes (what the paper's proof-overhead concern is
    /// about: ~`32·log2(n)` per input).
    pub fn proof_size(&self) -> usize {
        self.encoded_len()
    }
}

impl Encodable for MerkleBranch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.leaf_index.encode(out);
        self.siblings.encode(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.siblings.encoded_len()
    }
}

impl Decodable for MerkleBranch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MerkleBranch {
            leaf_index: u32::decode(r)?,
            siblings: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_primitives::hash::sha256d;

    fn leaves(n: usize) -> Vec<Hash256> {
        (0..n).map(|i| sha256d(&(i as u64).to_le_bytes())).collect()
    }

    fn branch(leaves: &[Hash256], leaf_index: usize) -> MerkleBranch {
        MerkleBranch::from_levels(&merkle_levels(leaves), leaf_index)
    }

    #[test]
    fn single_leaf_is_root() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), l[0]);
        let b = branch(&l, 0);
        assert!(b.siblings.is_empty());
        assert!(b.verify(&l[0], &l[0]));
    }

    #[test]
    fn two_leaves() {
        let l = leaves(2);
        let root = merkle_root(&l);
        assert_eq!(root, Hash256::merkle_parent(&l[0], &l[1]));
    }

    #[test]
    fn odd_level_duplicates_last() {
        let l = leaves(3);
        let root = merkle_root(&l);
        let h01 = Hash256::merkle_parent(&l[0], &l[1]);
        let h22 = Hash256::merkle_parent(&l[2], &l[2]);
        assert_eq!(root, Hash256::merkle_parent(&h01, &h22));
    }

    #[test]
    fn branches_verify_for_all_sizes_and_positions() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100] {
            let l = leaves(n);
            let levels = merkle_levels(&l);
            let root = merkle_root(&l);
            assert_eq!(levels.len(), tree_height(n) + 1, "n={n}");
            assert_eq!(levels.last().unwrap(), &vec![root], "n={n}");
            for (i, leaf) in l.iter().enumerate() {
                let b = MerkleBranch::from_levels(&levels, i);
                assert!(b.verify(leaf, &root), "n={n} i={i}");
                assert_eq!(b.siblings.len(), tree_height(n), "n={n} i={i}");
            }
        }
    }

    fn tree_height(n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            (n - 1).ilog2() as usize + 1
        }
    }

    #[test]
    fn branch_rejects_wrong_leaf() {
        let l = leaves(8);
        let root = merkle_root(&l);
        let b = branch(&l, 3);
        assert!(!b.verify(&l[4], &root));
        assert!(!b.verify(&sha256d(b"forged"), &root));
    }

    #[test]
    fn branch_rejects_wrong_root() {
        let l = leaves(8);
        let b = branch(&l, 3);
        assert!(!b.verify(&l[3], &sha256d(b"other root")));
    }

    #[test]
    fn branch_rejects_tampered_sibling() {
        let l = leaves(16);
        let root = merkle_root(&l);
        let mut b = branch(&l, 5);
        b.siblings[2] = sha256d(b"tampered");
        assert!(!b.verify(&l[5], &root));
    }

    #[test]
    fn branch_rejects_wrong_index() {
        // Moving the leaf to a different claimed position must fail (this is
        // what makes fake `position` values detectable via the MBr).
        let l = leaves(8);
        let root = merkle_root(&l);
        let mut b = branch(&l, 3);
        b.leaf_index = 2;
        assert!(!b.verify(&l[3], &root));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // A 1000-leaf tree (odd-length levels on the way up) against a
        // from-scratch fold, level by level.
        let l = leaves(1000);
        let root = merkle_root(&l);
        let mut level = l.clone();
        let mut folded = vec![level.clone()];
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let right = pair.get(1).unwrap_or(&pair[0]);
                next.push(Hash256::merkle_parent(&pair[0], right));
            }
            level = next;
            folded.push(level.clone());
        }
        assert_eq!(root, level[0]);
        assert_eq!(merkle_levels(&l), folded);
    }

    #[test]
    fn encode_round_trip() {
        let l = leaves(20);
        let b = branch(&l, 11);
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.proof_size());
        assert_eq!(MerkleBranch::from_bytes(&bytes).unwrap(), b);
    }
}
