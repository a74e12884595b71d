//! Seeded inputs. Everything a workload feeds the program — keys,
//! messages, the verify pool and its tamper positions — is derived here
//! from `--seed` before any timed window starts, so the same seed gives
//! byte-identical inputs on every commit.

use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds_with_alg;
use hero_sphincs::{Signature, SigningKey, VerifyingKey};

/// Bytes per generated message (a digest-sized payload, as relying
/// parties usually sign).
pub const MSG_LEN: usize = 48;

/// Size of the pre-signed pool `verify-beside-sign` draws from.
pub const VERIFY_POOL: usize = 48;

/// Items per `verify_batch` request.
pub const VERIFY_BATCH: usize = 16;

/// One in this many verify items is corrupted (tampered or mismatched).
pub const CORRUPT_ONE_IN: u64 = 8;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent input stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is irrelevant
    /// at these bounds).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Stream identifiers, so each kind of input stays independent of how
/// many items another kind draws.
pub mod stream {
    pub const KEYS: u64 = 1;
    pub const MESSAGES: u64 = 2;
    pub const POOL: u64 = 3;
    pub const ORACLE: u64 = 4;
    pub const SETUP: u64 = 5;
    pub const REPLAY: u64 = 6;
}

/// A key pair derived from three seeded `n`-byte seeds.
pub fn key(params: Params, alg: HashAlg, rng: &mut Rng) -> (SigningKey, VerifyingKey) {
    let n = params.n;
    keygen_from_seeds_with_alg(params, alg, rng.bytes(n), rng.bytes(n), rng.bytes(n))
}

pub fn messages(rng: &mut Rng, count: usize) -> Vec<Vec<u8>> {
    (0..count).map(|_| rng.bytes(MSG_LEN)).collect()
}

/// One item of a `verify_batch` request and the verdict it must get.
#[derive(Clone, Copy, Debug)]
pub enum VerifyItem {
    /// Pool entry `i` as signed: must verify.
    Valid(usize),
    /// Pool entry `i`'s message with its tampered signature: must fail.
    Tampered(usize),
    /// Pool message `msg` with pool signature `sig` (`msg != sig`): must
    /// fail.
    Mismatched { msg: usize, sig: usize },
}

impl VerifyItem {
    pub fn expect_valid(self) -> bool {
        matches!(self, VerifyItem::Valid(_))
    }
}

/// The pre-signed pool and the seeded request schedule of
/// `verify-beside-sign`.
pub struct VerifyPool {
    pub msgs: Vec<Vec<u8>>,
    pub sigs: Vec<Vec<u8>>,
    /// `tampered[i]` is `sigs[i]` with one seeded bit flipped.
    pub tampered: Vec<Vec<u8>>,
    pub requests: Vec<Vec<VerifyItem>>,
}

impl VerifyPool {
    /// Builds the pool from `sign` (the program's own signer) and draws
    /// `requests` batches of [`VERIFY_BATCH`] items from `rng`.
    pub fn build(
        rng: &mut Rng,
        requests: usize,
        sign: impl FnOnce(&[Vec<u8>]) -> Vec<Vec<u8>>,
    ) -> Self {
        let msgs = messages(rng, VERIFY_POOL);
        let sigs = sign(&msgs);
        assert_eq!(sigs.len(), msgs.len(), "one signature per pool message");
        let tampered = sigs
            .iter()
            .map(|sig| {
                let mut bad = sig.clone();
                let bit = rng.below(bad.len() as u64 * 8) as usize;
                bad[bit / 8] ^= 1 << (bit % 8);
                bad
            })
            .collect();
        let pool = VERIFY_POOL as u64;
        let requests = (0..requests)
            .map(|_| {
                (0..VERIFY_BATCH)
                    .map(|_| {
                        let i = rng.below(pool) as usize;
                        if rng.below(CORRUPT_ONE_IN) != 0 {
                            VerifyItem::Valid(i)
                        } else if rng.below(2) == 0 {
                            VerifyItem::Tampered(i)
                        } else {
                            let sig = (i + 1 + rng.below(pool - 1) as usize) % VERIFY_POOL;
                            VerifyItem::Mismatched { msg: i, sig }
                        }
                    })
                    .collect()
            })
            .collect();
        VerifyPool {
            msgs,
            sigs,
            tampered,
            requests,
        }
    }

    /// The `(message, signature)` bytes of one item.
    pub fn pair(&self, item: VerifyItem) -> (&[u8], &[u8]) {
        match item {
            VerifyItem::Valid(i) => (&self.msgs[i], &self.sigs[i]),
            VerifyItem::Tampered(i) => (&self.msgs[i], &self.tampered[i]),
            VerifyItem::Mismatched { msg, sig } => (&self.msgs[msg], &self.sigs[sig]),
        }
    }
}

/// Decodes a signature and checks it under `vk`; any decode error or
/// rejection counts as a failed operation.
pub fn verifies(vk: &VerifyingKey, msg: &[u8], sig: &[u8]) -> bool {
    Signature::from_bytes(vk.params(), sig).is_ok_and(|sig| vk.verify(msg, &sig).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = Rng::new(7, stream::MESSAGES).bytes(100);
        let b = Rng::new(7, stream::MESSAGES).bytes(100);
        let c = Rng::new(8, stream::MESSAGES).bytes(100);
        let d = Rng::new(7, stream::KEYS).bytes(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn schedule_labels_and_mismatches_are_consistent() {
        let mut rng = Rng::new(3, stream::POOL);
        let pool = VerifyPool::build(&mut rng, 200, |msgs| {
            msgs.iter().map(|m| m.repeat(2)).collect()
        });
        let mut corrupt = 0;
        for item in pool.requests.iter().flatten() {
            match *item {
                VerifyItem::Valid(_) => {}
                VerifyItem::Tampered(i) => {
                    corrupt += 1;
                    assert_ne!(pool.tampered[i], pool.sigs[i]);
                }
                VerifyItem::Mismatched { msg, sig } => {
                    corrupt += 1;
                    assert_ne!(msg, sig);
                }
            }
        }
        let total = 200 * VERIFY_BATCH;
        assert!(
            corrupt > total / 12 && corrupt < total / 5,
            "{corrupt} of {total}"
        );
    }
}
