//! SHA-256, implemented from FIPS 180-4.
//!
//! An incremental [`Sha256`] hasher plus the one-shot helpers used across the
//! workspace. The compression function processes one 64-byte block at a
//! time, on the kernel this CPU supports: the SHA-NI instructions on x86-64
//! hosts that have them, else the portable scalar kernel, which is also the
//! reference the tests hold the hardware kernel to.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni;

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Unprocessed bytes (always < 64).
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.absorb(data, Kernel::detect())
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(Kernel::detect())
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    fn absorb(&mut self, data: &[u8], kernel: Kernel) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // Buffer still not full — all input consumed.
                return self;
            }
            kernel.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            kernel.compress(
                &mut self.state,
                block.try_into().expect("chunk is 64 bytes"),
            );
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
        self
    }

    fn finish(mut self, kernel: Kernel) -> [u8; 32] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length, which
        // spills into a second block when fewer than 8 bytes remain after
        // the 0x80.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            kernel.compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel.compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// A compression kernel this host can run.
#[derive(Clone, Copy)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(sha_ni::ShaNi),
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(_) => "SHA-NI",
        })
    }
}

impl Kernel {
    /// The fastest kernel this CPU supports.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = sha_ni::ShaNi::detect() {
            return Kernel::ShaNi(ni);
        }
        Kernel::Portable
    }

    fn compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        match self {
            Kernel::Portable => compress_portable(state, block),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(ni) => ni.compress(state, block),
        }
    }
}

fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The portable kernel, plus the dispatcher's pick when that differs:
    /// every known-answer test runs each kernel explicitly.
    fn kernels() -> Vec<Kernel> {
        let picked = Kernel::detect();
        eprintln!("sha256 dispatcher picked the {picked:?} kernel");
        match picked {
            Kernel::Portable => vec![Kernel::Portable],
            #[cfg(target_arch = "x86_64")]
            ni @ Kernel::ShaNi(_) => vec![Kernel::Portable, ni],
        }
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.absorb(data, kernel);
        h.finish(kernel)
    }

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST CAVP known-answer tests.
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for kernel in kernels() {
            for (msg, want) in vectors {
                assert_eq!(hex::encode(&digest_with(kernel, msg)), want, "{kernel:?}");
            }
        }
        assert_eq!(
            hex::encode(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        for kernel in kernels() {
            let mut h = Sha256::new();
            for _ in 0..1000 {
                h.absorb(&chunk, kernel);
            }
            assert_eq!(
                hex::encode(&h.finish(kernel)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn padding_boundaries() {
        // One block holds at most 55 message bytes plus the 0x80 and the
        // length; at 56..=63 the length spills into a second block, at 64 a
        // whole padding block follows, and 119/120 repeat the edge one block
        // later. Answers from an independent SHA-256.
        let vectors = [
            (
                55,
                "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            ),
            (
                56,
                "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            ),
            (
                63,
                "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            ),
            (
                64,
                "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            ),
            (
                119,
                "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            ),
            (
                120,
                "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            ),
        ];
        for kernel in kernels() {
            for (len, want) in vectors {
                let msg: Vec<u8> = (0..len).map(|i: usize| (i * 7 + 3) as u8).collect();
                assert_eq!(
                    hex::encode(&digest_with(kernel, &msg)),
                    want,
                    "{kernel:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_on_random_blocks() {
        let mut rng = SmallRng::seed_from_u64(0x5a256);
        let kernels = kernels();
        for _ in 0..100_000 {
            let mut state = [0u32; 8];
            state.iter_mut().for_each(|w| *w = rng.gen());
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let mut want = state;
            compress_portable(&mut want, &block);
            for &kernel in &kernels {
                let mut got = state;
                kernel.compress(&mut got, &block);
                assert_eq!(
                    got, want,
                    "{kernel:?} state {state:08x?} block {block:02x?}"
                );
            }
        }
    }

    #[test]
    fn dispatcher_matches_portable_on_split_messages() {
        // Every length 0..=4096, each absorbed at its own seeded random
        // split points by a portable-only hasher and by the dispatching one.
        let mut rng = SmallRng::seed_from_u64(4096);
        let mut data = vec![0u8; 4096];
        rng.fill_bytes(&mut data);
        let mut absorb_split = |h: &mut Sha256, msg: &[u8], kernel: Option<Kernel>| {
            let mut rest = msg;
            while !rest.is_empty() {
                let take = rng.gen_range(0..=rest.len().min(200));
                match kernel {
                    Some(k) => h.absorb(&rest[..take], k),
                    None => h.update(&rest[..take]),
                };
                rest = &rest[take..];
            }
        };
        for len in 0..=data.len() {
            let msg = &data[..len];
            let mut portable = Sha256::new();
            absorb_split(&mut portable, msg, Some(Kernel::Portable));
            let mut dispatched = Sha256::new();
            absorb_split(&mut dispatched, msg, None);
            let want = portable.finish(Kernel::Portable);
            assert_eq!(dispatched.finalize(), want, "len {len}");
            assert_eq!(Sha256::digest(msg), want, "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}
