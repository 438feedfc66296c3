//! secp256k1 elliptic-curve cryptography, implemented from scratch.
//!
//! Layered as: [`field`] (arithmetic mod the base prime) and [`scalar`]
//! (arithmetic mod the group order) over [`crate::u256::U256`]; [`point`]
//! (Jacobian group law, scalar multiplication); [`ecdsa`] (sign/verify with
//! low-S canonical signatures); [`rfc6979`] (deterministic nonces); and
//! [`keys`] (the `PrivateKey`/`PublicKey` API the rest of the workspace
//! uses).

pub mod batch;
pub mod ecdsa;
pub mod field;
mod glv;
pub mod keys;
pub mod point;
pub mod rfc6979;
pub mod scalar;

pub use batch::{BatchOutcome, BatchStats, BatchVerifier};
pub use ecdsa::{SigError, Signature};
pub use keys::{PreparedPublicKey, PrivateKey, PubKeyError, PublicKey};
pub use point::{
    lincomb_gen, lincomb_gen_half_depth, multi_scalar_mul, Affine, Jacobian, MsmTerm, PointTable,
};
pub use scalar::Scalar;
