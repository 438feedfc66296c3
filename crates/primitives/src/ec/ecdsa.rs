//! ECDSA signing and verification over secp256k1.
//!
//! Signatures use the 64-byte compact encoding (`r || s`, both 32-byte
//! big-endian) with low-S canonicalization, matching what the script
//! engine's `OP_CHECKSIG` consumes.

use super::point::{lincomb_gen, lincomb_gen_half_depth, Affine, PointTable};
use super::rfc6979;
use super::scalar::Scalar;

/// A compact ECDSA signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    pub r: Scalar,
    pub s: Scalar,
}

/// Why a signature failed to parse or verify.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SigError {
    /// r or s is zero or ≥ n.
    ComponentOutOfRange,
    /// s is in the upper half of the range (non-canonical encoding).
    HighS,
    /// The compact encoding has the wrong length.
    BadLength,
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigError::ComponentOutOfRange => write!(f, "signature component out of range"),
            SigError::HighS => write!(f, "non-canonical high-S signature"),
            SigError::BadLength => write!(f, "compact signature must be 64 bytes"),
        }
    }
}

impl std::error::Error for SigError {}

impl Signature {
    /// Serialize as `r || s`, 64 bytes.
    pub fn to_compact(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parse a compact signature, enforcing canonical (low-S) form.
    ///
    /// Both components must lie in `[1, n-1]`: `from_be_bytes` rejects
    /// values ≥ n and the zero check below rejects the rest. This range
    /// gate is load-bearing for batch verification ([`super::batch`]),
    /// which divides by `s` and multiplies by `r` — a parsed [`Signature`]
    /// can never hand the batch a zero scalar.
    pub fn from_compact(bytes: &[u8]) -> Result<Signature, SigError> {
        if bytes.len() != 64 {
            return Err(SigError::BadLength);
        }
        let r = Scalar::from_be_bytes(bytes[..32].try_into().expect("32 bytes"))
            .ok_or(SigError::ComponentOutOfRange)?;
        let s = Scalar::from_be_bytes(bytes[32..].try_into().expect("32 bytes"))
            .ok_or(SigError::ComponentOutOfRange)?;
        if r.is_zero() || s.is_zero() {
            return Err(SigError::ComponentOutOfRange);
        }
        if s.is_high() {
            return Err(SigError::HighS);
        }
        Ok(Signature { r, s })
    }
}

/// Sign digest `z` with private scalar `sk` using an RFC 6979 nonce.
///
/// The returned signature is low-S canonical. `sk` must be nonzero (enforced
/// by [`super::keys::PrivateKey`] construction).
pub fn sign(z: &[u8; 32], sk: &Scalar) -> Signature {
    sign_impl(z, sk, false)
}

/// Like [`sign`], but grind the nonce until the low-S-normalized
/// signature's effective nonce point has **even** y-parity.
///
/// Low-S normalization replaces `s` by `n − s` when `s` is high, which
/// negates the nonce point the verification equation reconstructs — so
/// the effective `R` is `k·G` when `s` stays, `−k·G` when it flips, and
/// the signer (who sees both `k·G`'s parity and the flip) is the only
/// party that knows the result's parity for free. Retrying until it is
/// even (two expected attempts, each one cheap fixed-base comb
/// multiplication — the analogue of Bitcoin Core's low-R grinding) lets
/// the batch verifier ([`super::batch`]) lift `R` from `r` without a
/// parity hint. Verification is completely unaffected: an even-R
/// signature is an ordinary ECDSA signature, and odd-R signatures from
/// other signers still verify — they just take the batch's slow path.
pub fn sign_even_r(z: &[u8; 32], sk: &Scalar) -> Signature {
    sign_impl(z, sk, true)
}

fn sign_impl(z: &[u8; 32], sk: &Scalar, even_r: bool) -> Signature {
    debug_assert!(!sk.is_zero());
    let z_scalar = Scalar::from_be_bytes_reduced(z);
    let mut h1 = *z;
    loop {
        let k = rfc6979::generate_k(sk, &h1);
        let point = Affine::mul_gen(&k).to_affine();
        let (x, y) = point.coords().expect("k in [1,n) cannot give infinity");
        let r = Scalar::from_be_bytes_reduced(&x.to_be_bytes());
        if r.is_zero() {
            // Astronomically unlikely; retry with a perturbed digest as the
            // RFC's "try again" step.
            h1 = crate::hash::sha256(&h1);
            continue;
        }
        let kinv = k.invert().expect("k nonzero");
        let s = kinv.mul(&z_scalar.add(&r.mul(sk)));
        if s.is_zero() {
            h1 = crate::hash::sha256(&h1);
            continue;
        }
        // Effective-R parity after low-S normalization: `k·G`'s parity,
        // flipped iff the normalization below negates s.
        if even_r && (y.is_odd() ^ s.is_high()) {
            h1 = crate::hash::sha256(&h1);
            continue;
        }
        return Signature {
            r,
            s: s.normalize_s(),
        };
    }
}

/// Verify signature `sig` on digest `z` against public key point `q`.
///
/// Fast path: builds a one-shot odd-multiples table for `q` and runs the
/// interleaved-wNAF pass. Callers verifying many signatures under the same
/// key should build the [`PointTable`] once (see
/// [`super::keys::PreparedPublicKey`]) and call [`verify_prepared`].
///
/// `r`/`s` range checks are [`Signature::from_compact`]'s job; a
/// [`Signature`] carries scalars already known to be in `[0, n)`, and a
/// zero component simply fails the final x-coordinate equation.
pub fn verify(z: &[u8; 32], sig: &Signature, q: &Affine) -> bool {
    if q.is_infinity() || !q.is_on_curve() {
        return false;
    }
    verify_prepared(z, sig, &PointTable::new(q))
}

/// Verify against a precomputed table of the public key's odd multiples.
///
/// Contract: `q_table` must be built from a finite on-curve point — which
/// every key that survives [`super::keys::PublicKey::from_compressed`]
/// parsing is. The final comparison is done in projective form
/// ([`super::point::Jacobian::x_equals_scalar_mod_n`]), eliminating the
/// field inversion the reference implementation spends on `to_affine`.
pub fn verify_prepared(z: &[u8; 32], sig: &Signature, q_table: &PointTable) -> bool {
    verify_scalars(z, sig)
        .is_some_and(|(u1, u2)| lincomb_gen(&u1, q_table, &u2).x_equals_scalar_mod_n(&sig.r))
}

/// [`verify_prepared`] on the half-depth ladder
/// ([`super::point::lincomb_gen_half_depth`]), which also reads the table
/// of `2^64·Q` ([`PointTable::shifted`]). Same verdicts, about half the
/// doublings.
pub(crate) fn verify_prepared_half_depth(
    z: &[u8; 32],
    sig: &Signature,
    q_table: &PointTable,
    q_shifted: &PointTable,
) -> bool {
    verify_scalars(z, sig).is_some_and(|(u1, u2)| {
        lincomb_gen_half_depth(&u1, q_table, q_shifted, &u2).x_equals_scalar_mod_n(&sig.r)
    })
}

/// `(u1, u2) = (z·s⁻¹, r·s⁻¹)`, or `None` when `s` is zero.
fn verify_scalars(z: &[u8; 32], sig: &Signature) -> Option<(Scalar, Scalar)> {
    let w = sig.s.invert()?;
    Some((Scalar::from_be_bytes_reduced(z).mul(&w), sig.r.mul(&w)))
}

/// Reference verifier: the pre-fast-path double-and-add implementation,
/// kept verbatim as the differential-testing oracle for [`verify`].
pub fn verify_reference(z: &[u8; 32], sig: &Signature, q: &Affine) -> bool {
    if q.is_infinity() || !q.is_on_curve() {
        return false;
    }
    if sig.r.is_zero() || sig.s.is_zero() {
        return false;
    }
    let z_scalar = Scalar::from_be_bytes_reduced(z);
    let w = match sig.s.invert() {
        Some(w) => w,
        None => return false,
    };
    let u1 = z_scalar.mul(&w);
    let u2 = sig.r.mul(&w);
    // Shamir's trick halves the doubling work of u1·G + u2·Q.
    let point = Affine::generator()
        .to_jacobian()
        .shamir_mul(&u1, &q.to_jacobian(), &u2)
        .to_affine();
    match point.coords() {
        None => false,
        Some((x, _)) => Scalar::from_be_bytes_reduced(&x.to_be_bytes()) == sig.r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256;
    use crate::hex;

    fn keypair(v: u64) -> (Scalar, Affine) {
        let sk = Scalar::from_u64(v);
        (sk, Affine::generator().mul(&sk))
    }

    #[test]
    fn sign_verify_round_trip() {
        let (sk, pk) = keypair(42);
        let z = sha256(b"pay alice 5 coins");
        let sig = sign(&z, &sk);
        assert!(verify(&z, &sig, &pk));
    }

    #[test]
    fn rejects_wrong_message() {
        let (sk, pk) = keypair(42);
        let sig = sign(&sha256(b"pay alice 5 coins"), &sk);
        assert!(!verify(&sha256(b"pay alice 500 coins"), &sig, &pk));
    }

    #[test]
    fn rejects_wrong_key() {
        let (sk, _) = keypair(42);
        let (_, other_pk) = keypair(43);
        let z = sha256(b"msg");
        let sig = sign(&z, &sk);
        assert!(!verify(&z, &sig, &other_pk));
    }

    #[test]
    fn rejects_tampered_signature() {
        let (sk, pk) = keypair(7);
        let z = sha256(b"msg");
        let sig = sign(&z, &sk);
        let mut bad = sig;
        bad.s = bad.s.add(&Scalar::ONE);
        assert!(!verify(&z, &bad, &pk));
        let mut bad_r = sig;
        bad_r.r = bad_r.r.add(&Scalar::ONE);
        assert!(!verify(&z, &bad_r, &pk));
    }

    #[test]
    fn rejects_infinity_key() {
        let (sk, _) = keypair(7);
        let z = sha256(b"msg");
        let sig = sign(&z, &sk);
        assert!(!verify(&z, &sig, &Affine::Infinity));
    }

    #[test]
    fn signature_is_low_s() {
        for i in 1..20u64 {
            let (sk, _) = keypair(i);
            let sig = sign(&sha256(&i.to_le_bytes()), &sk);
            assert!(!sig.s.is_high(), "key {i} produced high-S");
        }
    }

    #[test]
    fn deterministic_signatures() {
        let (sk, _) = keypair(99);
        let z = sha256(b"same message");
        assert_eq!(sign(&z, &sk), sign(&z, &sk));
    }

    #[test]
    fn compact_round_trip() {
        let (sk, pk) = keypair(5);
        let z = sha256(b"compact");
        let sig = sign(&z, &sk);
        let parsed = Signature::from_compact(&sig.to_compact()).unwrap();
        assert_eq!(parsed, sig);
        assert!(verify(&z, &parsed, &pk));
    }

    #[test]
    fn compact_rejects_bad_encodings() {
        assert_eq!(
            Signature::from_compact(&[0u8; 63]),
            Err(SigError::BadLength)
        );
        // All zero: r = s = 0.
        assert_eq!(
            Signature::from_compact(&[0u8; 64]),
            Err(SigError::ComponentOutOfRange)
        );
        // High-S: take a valid signature and flip s to n - s.
        let (sk, _) = keypair(5);
        let sig = sign(&sha256(b"x"), &sk);
        let mut bytes = sig.to_compact();
        bytes[32..].copy_from_slice(&sig.s.neg().to_be_bytes());
        assert_eq!(Signature::from_compact(&bytes), Err(SigError::HighS));
    }

    #[test]
    fn compact_rejects_out_of_range_components() {
        use super::super::scalar::N;
        use crate::u256::U256;
        let (sk, pk) = keypair(5);
        let z = sha256(b"range");
        let sig = sign(&z, &sk);

        // r = n and s = n: exactly the order, one past the valid range.
        let mut r_eq_n = sig.to_compact();
        r_eq_n[..32].copy_from_slice(&N.to_be_bytes());
        assert_eq!(
            Signature::from_compact(&r_eq_n),
            Err(SigError::ComponentOutOfRange)
        );
        let mut s_eq_n = sig.to_compact();
        s_eq_n[32..].copy_from_slice(&N.to_be_bytes());
        assert_eq!(
            Signature::from_compact(&s_eq_n),
            Err(SigError::ComponentOutOfRange)
        );
        // r all-ones (≫ n) and zero-in-one-component variants.
        let mut r_max = sig.to_compact();
        r_max[..32].copy_from_slice(&[0xff; 32]);
        assert_eq!(
            Signature::from_compact(&r_max),
            Err(SigError::ComponentOutOfRange)
        );
        let mut r_zero = sig.to_compact();
        r_zero[..32].copy_from_slice(&[0; 32]);
        assert_eq!(
            Signature::from_compact(&r_zero),
            Err(SigError::ComponentOutOfRange)
        );
        let mut s_zero = sig.to_compact();
        s_zero[32..].copy_from_slice(&[0; 32]);
        assert_eq!(
            Signature::from_compact(&s_zero),
            Err(SigError::ComponentOutOfRange)
        );
        // r = n − 1 is in range: the parse must accept it (the signature
        // is then simply invalid for this digest).
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        let mut r_edge = sig.to_compact();
        r_edge[..32].copy_from_slice(&n_minus_1.to_be_bytes());
        let parsed = Signature::from_compact(&r_edge).expect("n-1 is in range");
        assert!(!verify(&z, &parsed, &pk));
    }

    #[test]
    fn even_r_signatures_verify_and_have_even_nonce_point() {
        use super::super::field::Fe;
        for i in 1..30u64 {
            let (sk, pk) = keypair(i);
            let z = sha256(&i.to_be_bytes());
            let sig = sign_even_r(&z, &sk);
            assert!(verify(&z, &sig, &pk), "key {i}");
            assert!(!sig.s.is_high(), "key {i} produced high-S");
            // The effective nonce point must lift from r at even parity
            // and satisfy R = u·G + v·Q.
            let r_point = Affine::lift_x(Fe(sig.r.0), false).expect("r lifts");
            let w = sig.s.invert().unwrap();
            let u = Scalar::from_be_bytes_reduced(&z).mul(&w);
            let v = sig.r.mul(&w);
            let rhs = Affine::mul_gen(&u)
                .add_jacobian(&pk.to_jacobian().mul(&v))
                .to_affine();
            assert_eq!(r_point, rhs, "key {i}: even-parity lift is not R");
        }
    }

    #[test]
    fn even_r_does_not_change_plain_sign() {
        // `sign` must stay byte-identical (the Satoshi Nakamoto vector
        // below pins it); `sign_even_r` may differ only by nonce choice.
        let (sk, pk) = keypair(17);
        let z = sha256(b"two signing modes");
        let plain = sign(&z, &sk);
        let even = sign_even_r(&z, &sk);
        assert!(verify(&z, &plain, &pk));
        assert!(verify(&z, &even, &pk));
    }

    #[test]
    fn fast_and_reference_verify_agree() {
        let (sk, pk) = keypair(42);
        let z = sha256(b"parity");
        let sig = sign(&z, &sk);
        assert!(verify(&z, &sig, &pk));
        assert!(verify_reference(&z, &sig, &pk));
        let mut bad = sig;
        bad.s = bad.s.add(&Scalar::ONE);
        assert_eq!(verify(&z, &bad, &pk), verify_reference(&z, &bad, &pk));
        assert!(!verify(&z, &bad, &pk));
    }

    #[test]
    fn known_vector_satoshi_nakamoto() {
        // secp256k1 + RFC 6979 vector reproduced across many bitcoin
        // libraries: sk = 1, message "Satoshi Nakamoto".
        let sk = Scalar::from_u64(1);
        let sig = sign(&sha256(b"Satoshi Nakamoto"), &sk);
        assert_eq!(
            hex::encode(&sig.r.to_be_bytes()),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        );
        assert_eq!(
            hex::encode(&sig.s.to_be_bytes()),
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
        );
    }
}
