//! Seeded input generation. Everything a workload feeds the program is made
//! here, before any clock starts, as a pure function of `--seed`: the
//! program under test only ever sees the generated commands.
//!
//! The generator is the benchmark's own (SplitMix64 + an integer zipf CDF),
//! not `ec_core::workload`, so a later change to the repository's workload
//! helpers cannot silently change what is measured.

use ec_replication::{KvStore, ReplicaCommand};

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is irrelevant at these
    /// ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent generator for a sub-stream (episode, repetition).
    pub fn fork(&mut self, stream: u64) -> Rng {
        Rng(self.next_u64() ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }
}

/// How keys are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyMix {
    /// Rank `r` with weight `1 / (r + 1)` — zipf with exponent 1.0.
    Zipf,
    /// Every key equally likely.
    Uniform,
}

/// The shape of one workload's put stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PutMix {
    /// Size of the keyspace (`k0`, `k1`, …).
    pub keys: usize,
    /// Length of every value in bytes.
    pub value_len: usize,
    /// Key popularity.
    pub mix: KeyMix,
}

/// Cumulative integer weights for inverse-CDF sampling.
fn cumulative_weights(mix: PutMix) -> Vec<u64> {
    const SCALE: u64 = 1 << 24;
    let mut total = 0u64;
    (0..mix.keys as u64)
        .map(|rank| {
            total += match mix.mix {
                KeyMix::Zipf => (SCALE / (rank + 1)).max(1),
                KeyMix::Uniform => 1,
            };
            total
        })
        .collect()
}

/// A value of exactly `len` bytes from an alphabet that keeps `KvStore`
/// snapshots unambiguous (no space, `=` or `;`).
fn value(rng: &mut Rng, len: usize) -> String {
    const ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz012345";
    let mut out = String::with_capacity(len);
    let mut bits = 0u64;
    for i in 0..len {
        if i % 12 == 0 {
            bits = rng.next_u64();
        }
        out.push(ALPHABET[(bits & 31) as usize] as char);
        bits >>= 5;
    }
    out
}

/// `count` seeded `put` commands drawn from `mix`.
pub fn puts(rng: &mut Rng, count: usize, mix: PutMix) -> Vec<ReplicaCommand> {
    assert!(mix.keys > 0, "a keyspace needs at least one key");
    let cumulative = cumulative_weights(mix);
    let total = cumulative.last().copied().unwrap_or(1);
    (0..count)
        .map(|_| {
            let r = rng.below(total);
            let rank = cumulative.partition_point(|&c| c <= r);
            let v = value(rng, mix.value_len);
            ReplicaCommand::new(KvStore::put(&format!("k{rank}"), &v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: PutMix = PutMix {
        keys: 64,
        value_len: 8,
        mix: KeyMix::Zipf,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = puts(&mut Rng::new(7), 500, MIX);
        let b = puts(&mut Rng::new(7), 500, MIX);
        let c = puts(&mut Rng::new(8), 500, MIX);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_values_have_the_stated_length() {
        let ops = puts(&mut Rng::new(1), 4_000, MIX);
        let hits = |key: &str| {
            ops.iter()
                .filter(|op| {
                    let text = std::str::from_utf8(&op.command).expect("utf-8");
                    text.split(' ').nth(1) == Some(key)
                })
                .count()
        };
        assert!(hits("k0") > 4 * hits("k31").max(1));
        for op in &ops {
            let text = std::str::from_utf8(&op.command).expect("utf-8");
            let v = text.split(' ').nth(2).expect("value");
            assert_eq!(v.len(), 8);
            assert!(!v.contains(['=', ';', ' ']));
        }
    }
}
