//! The SHA-NI compression kernel: the x86-64 SHA extensions run four
//! SHA-256 rounds per `sha256rnds2` pair and the message schedule in
//! `sha256msg1`/`sha256msg2`.
//!
//! This module holds the workspace's only `unsafe` code. A [`ShaNi`] value
//! exists only once the CPU has been seen to support every instruction the
//! kernel uses, so [`ShaNi::compress`] is safe to call.

use super::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Proof that this CPU supports SHA, SSE2, SSSE3 and SSE4.1.
#[derive(Clone, Copy)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// `Some` when the CPU supports the kernel. std caches the CPUID
    /// probe, so each call costs a few loads.
    pub(super) fn detect() -> Option<ShaNi> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }

    /// Compress one 64-byte block into `state`.
    pub(super) fn compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        // SAFETY: a `ShaNi` is only built by `detect`, after the CPU reported
        // every feature `compress_sha_ni` enables; its loads and stores stay
        // inside `state` and `block`.
        unsafe { compress_sha_ni(state, block) }
    }
}

/// Four rounds on message words `w` (already in schedule order).
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let k = _mm_set_epi32(
            K[4 * $i + 3] as i32,
            K[4 * $i + 2] as i32,
            K[4 * $i + 1] as i32,
            K[4 * $i] as i32,
        );
        let wk = _mm_add_epi32($w, k);
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }};
}

/// The next four schedule words from the previous sixteen, then four
/// rounds on them.
macro_rules! schedule_rounds4 {
    ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $out:ident, $i:expr) => {{
        let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
        $out = _mm_sha256msg2_epu32(t, $w3);
        rounds4!($abef, $cdgh, $out, $i);
    }};
}

/// # Safety
/// The CPU must support SHA, SSE2, SSSE3 and SSE4.1.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    // Memory is touched only by the unaligned 16-byte loads and stores
    // below: lanes 0 and 1 of `state` (32 bytes) and lanes 0..4 of `block`
    // (64 bytes), all inside the borrowed arrays.
    //
    // The round instructions keep the state as (A, B, E, F) and
    // (C, D, G, H), highest lane first.
    let dcba = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // Big-endian message words: reverse the bytes of each 32-bit lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let words = block.as_ptr().cast::<__m128i>();
    let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(words), bswap);
    let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), bswap);
    let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), bswap);
    let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), bswap);
    let mut w4;
    rounds4!(abef, cdgh, w0, 0);
    rounds4!(abef, cdgh, w1, 1);
    rounds4!(abef, cdgh, w2, 2);
    rounds4!(abef, cdgh, w3, 3);
    schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
    schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
    schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
    schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
    schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
    schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
    schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
    schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
    schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
    schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
    schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
    schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), dcba);
    _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), hgfe);
}
