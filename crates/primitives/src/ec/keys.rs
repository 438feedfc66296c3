//! Key types: private scalars and SEC1-compressed public keys.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use super::ecdsa::{self, SigError, Signature};
use super::field::Fe;
use super::point::{Affine, PointTable};
use super::scalar::Scalar;
use crate::hash::{hash160, Hash160};

/// A private key — a nonzero scalar.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PrivateKey(Scalar);

impl PrivateKey {
    /// Construct from a scalar; `None` if zero.
    pub fn from_scalar(s: Scalar) -> Option<PrivateKey> {
        if s.is_zero() {
            None
        } else {
            Some(PrivateKey(s))
        }
    }

    /// Construct from 32 big-endian bytes; `None` if zero or ≥ n.
    pub fn from_be_bytes(b: &[u8; 32]) -> Option<PrivateKey> {
        Scalar::from_be_bytes(b).and_then(PrivateKey::from_scalar)
    }

    /// Deterministic key for tests and the workload generator: hashes the
    /// seed until it lands in `[1, n)`.
    pub fn from_seed(seed: u64) -> PrivateKey {
        let mut digest = crate::hash::sha256(&seed.to_le_bytes());
        loop {
            if let Some(k) = PrivateKey::from_be_bytes(&digest) {
                return k;
            }
            digest = crate::hash::sha256(&digest);
        }
    }

    /// The corresponding public key (`sk · G`, via the fixed-base comb).
    pub fn public_key(&self) -> PublicKey {
        PublicKey(Affine::mul_gen(&self.0).to_affine())
    }

    /// Sign a 32-byte digest.
    ///
    /// Uses the even-R convention ([`ecdsa::sign_even_r`]) so signatures
    /// produced through the key API batch-verify on the fast path; the
    /// result is a perfectly ordinary low-S ECDSA signature either way.
    pub fn sign(&self, digest: &[u8; 32]) -> Signature {
        ecdsa::sign_even_r(digest, &self.0)
    }

    /// The underlying scalar (for tests).
    pub fn scalar(&self) -> &Scalar {
        &self.0
    }
}

impl std::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret.
        write!(f, "PrivateKey(..)")
    }
}

/// A public key — a finite curve point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(Affine);

/// Error decoding a compressed public key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PubKeyError {
    /// Encoding is not 33 bytes with a 0x02/0x03 prefix.
    BadEncoding,
    /// The x-coordinate is not on the curve (or ≥ p).
    NotOnCurve,
}

impl std::fmt::Display for PubKeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PubKeyError::BadEncoding => write!(f, "bad compressed public key encoding"),
            PubKeyError::NotOnCurve => write!(f, "x-coordinate not on curve"),
        }
    }
}

impl std::error::Error for PubKeyError {}

impl PublicKey {
    /// SEC1 compressed encoding: parity prefix (0x02 even / 0x03 odd) plus
    /// the 32-byte x-coordinate.
    pub fn to_compressed(&self) -> [u8; 33] {
        let (x, y) = self.0.coords().expect("public keys are finite");
        let mut out = [0u8; 33];
        out[0] = if y.is_odd() { 0x03 } else { 0x02 };
        out[1..].copy_from_slice(&x.to_be_bytes());
        out
    }

    /// Decode a SEC1 compressed public key.
    pub fn from_compressed(bytes: &[u8]) -> Result<PublicKey, PubKeyError> {
        if bytes.len() != 33 || (bytes[0] != 0x02 && bytes[0] != 0x03) {
            return Err(PubKeyError::BadEncoding);
        }
        let x = Fe::from_be_bytes(bytes[1..].try_into().expect("32 bytes"))
            .ok_or(PubKeyError::NotOnCurve)?;
        let point = Affine::lift_x(x, bytes[0] == 0x03).ok_or(PubKeyError::NotOnCurve)?;
        Ok(PublicKey(point))
    }

    /// `HASH160` of the compressed encoding — the pay-to-pubkey-hash
    /// address.
    pub fn address_hash(&self) -> Hash160 {
        hash160(&self.to_compressed())
    }

    /// Verify a signature over `digest`.
    pub fn verify(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        ecdsa::verify(digest, sig, &self.0)
    }

    /// Verify a compact-encoded signature over `digest`.
    pub fn verify_compact(&self, digest: &[u8; 32], sig_bytes: &[u8]) -> Result<bool, SigError> {
        let sig = Signature::from_compact(sig_bytes)?;
        Ok(ecdsa::verify(digest, &sig, &self.0))
    }

    /// The underlying curve point.
    pub fn point(&self) -> &Affine {
        &self.0
    }

    /// Precompute the odd-multiples table for repeated verification under
    /// this key.
    pub fn prepare(&self) -> PreparedPublicKey {
        PreparedPublicKey {
            key: *self,
            table: PointTable::new(&self.0),
            verified: AtomicBool::new(false),
            shifted: OnceLock::new(),
        }
    }
}

/// A public key bundled with its precomputed [`PointTable`].
///
/// Building the table costs one doubling, seven additions and a batch
/// normalization — about a sixth of a verification — so it pays for itself
/// as soon as a key verifies more than one signature. Nodes keep these for
/// their whole life because workloads reuse signer keys heavily.
///
/// A key that verifies single signatures repeatedly also gets the table of
/// `2^64·Q` ([`PointTable::shifted`], 64 doublings plus a table build): its
/// second single-signature verify builds it, and that verify and every
/// later one run on the half-depth ladder
/// ([`lincomb_gen_half_depth`](super::point::lincomb_gen_half_depth)).
/// The first runs on the full-depth one, and a batch equation reads only
/// the plain table, so a key verified once, or only in batches, costs what
/// it did before the shifted table existed.
#[derive(Debug)]
pub struct PreparedPublicKey {
    key: PublicKey,
    table: PointTable,
    /// Set by the first single-signature verify.
    verified: AtomicBool,
    /// Odd multiples of `2^64·Q`, built by the second.
    shifted: OnceLock<PointTable>,
}

impl PreparedPublicKey {
    /// The plain public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.key
    }

    /// The precomputed odd-multiples table (batch verification feeds it
    /// straight into the shared multi-scalar ladder).
    pub(crate) fn table(&self) -> &PointTable {
        &self.table
    }

    /// The table of `2^64·Q`, once a second single-signature verify has
    /// built it.
    pub fn shifted_table(&self) -> Option<&PointTable> {
        self.shifted.get()
    }

    /// Verify a signature over `digest` using the cached tables: on the
    /// full-depth ladder the first time, on the half-depth one from the
    /// second time on.
    pub fn verify(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        let shifted = self.shifted.get().or_else(|| {
            // `verified` guards no data (the `OnceLock` publishes the
            // table), so it needs no ordering beyond its own.
            self.verified.swap(true, Ordering::Relaxed).then(|| {
                self.shifted
                    .get_or_init(|| PointTable::shifted(self.key.point()))
            })
        });
        match shifted {
            Some(shifted) => ecdsa::verify_prepared_half_depth(digest, sig, &self.table, shifted),
            None => ecdsa::verify_prepared(digest, sig, &self.table),
        }
    }

    /// Verify a compact-encoded signature over `digest`.
    pub fn verify_compact(&self, digest: &[u8; 32], sig_bytes: &[u8]) -> Result<bool, SigError> {
        let sig = Signature::from_compact(sig_bytes)?;
        Ok(self.verify(digest, &sig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256;
    use crate::hex;

    #[test]
    fn pubkey_of_one_is_generator() {
        let pk = PrivateKey::from_seed(0); // arbitrary
        assert!(pk.public_key().point().is_on_curve());

        let one = PrivateKey::from_scalar(Scalar::from_u64(1)).unwrap();
        assert_eq!(
            hex::encode(&one.public_key().to_compressed()),
            "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
        );
    }

    #[test]
    fn compressed_round_trip() {
        for seed in 0..10u64 {
            let pk = PrivateKey::from_seed(seed).public_key();
            let parsed = PublicKey::from_compressed(&pk.to_compressed()).unwrap();
            assert_eq!(parsed, pk, "seed {seed}");
        }
    }

    #[test]
    fn from_compressed_rejects_garbage() {
        assert_eq!(
            PublicKey::from_compressed(&[0u8; 33]),
            Err(PubKeyError::BadEncoding)
        );
        assert_eq!(
            PublicKey::from_compressed(&[2u8; 10]),
            Err(PubKeyError::BadEncoding)
        );
        // 0x02 prefix but x ≥ p.
        let mut bad = [0xffu8; 33];
        bad[0] = 0x02;
        assert_eq!(
            PublicKey::from_compressed(&bad),
            Err(PubKeyError::NotOnCurve)
        );
    }

    #[test]
    fn zero_private_key_rejected() {
        assert!(PrivateKey::from_scalar(Scalar::ZERO).is_none());
        assert!(PrivateKey::from_be_bytes(&[0u8; 32]).is_none());
    }

    #[test]
    fn sign_verify_through_key_api() {
        let sk = PrivateKey::from_seed(77);
        let pk = sk.public_key();
        let z = sha256(b"spend output 3");
        let sig = sk.sign(&z);
        assert!(pk.verify(&z, &sig));
        assert!(pk.verify_compact(&z, &sig.to_compact()).unwrap());
        assert!(!pk.verify(&sha256(b"other"), &sig));
    }

    #[test]
    fn prepared_key_verifies_like_plain_key() {
        let sk = PrivateKey::from_seed(8);
        let pk = sk.public_key();
        let prepared = pk.prepare();
        assert_eq!(prepared.public_key(), &pk);
        let z = sha256(b"prepared");
        let sig = sk.sign(&z);
        assert!(prepared.verify(&z, &sig));
        assert!(prepared.verify_compact(&z, &sig.to_compact()).unwrap());
        assert!(!prepared.verify(&sha256(b"other"), &sig));
        assert!(prepared.verify_compact(&z, &[0u8; 64]).is_err());
    }

    #[test]
    fn address_hash_is_stable() {
        let pk = PrivateKey::from_seed(1).public_key();
        assert_eq!(pk.address_hash(), hash160(&pk.to_compressed()));
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let sk = PrivateKey::from_seed(3);
        assert_eq!(format!("{sk:?}"), "PrivateKey(..)");
    }
}
