//! Deterministic state machines replicated by the service layer.
//!
//! A replicated service is a deterministic state machine whose commands are
//! delivered through (eventual) total order broadcast. Replicas replay the
//! delivered command sequence; two replicas whose delivered sequences are
//! equal therefore hold identical states, so sequence convergence (the ETOB
//! guarantees) translates directly into state convergence.

use std::collections::BTreeMap;
use std::fmt;

/// A deterministic state machine driven by opaque byte-string commands.
///
/// Implementations must be deterministic: the state after applying a command
/// sequence is a pure function of the sequence. [`StateMachine::snapshot`]
/// returns a canonical encoding — what final-agreement checks compare and
/// durable checkpoints store — and [`StateMachine::digest`] the 64-bit
/// fingerprint every [`crate::ReplicaOutput`] carries.
pub trait StateMachine: Clone + fmt::Debug + Default {
    /// Applies one command. Unrecognized commands must be ignored (not
    /// panic), so that replicas never diverge by crashing on garbage.
    fn apply(&mut self, command: &[u8]);

    /// A canonical encoding of the current state.
    fn snapshot(&self) -> Vec<u8>;

    /// A fingerprint of the current state: equal states must give equal
    /// digests, and unequal ones should collide with probability ≈ 2⁻⁶⁴.
    /// The replica computes one for every output, so a machine whose state
    /// grows should keep it up to date in [`StateMachine::apply`] rather
    /// than encode the state for it ([`KvStore`] does). The default is
    /// [`snapshot_digest`] of [`StateMachine::snapshot`]: O(|state|) per
    /// call.
    fn digest(&self) -> u64 {
        snapshot_digest(&self.snapshot())
    }

    /// Reconstructs a state machine from a [`StateMachine::snapshot`]
    /// encoding, if the implementation supports it.
    ///
    /// Durable recovery rebuilds the checkpointed base state through this,
    /// and so can any caller that holds snapshot bytes; no engine reads a
    /// replica through it (typed reads ask the replica). The default returns
    /// `None`: a durable replica of such a machine cannot recover a folded
    /// base and restarts blank. The built-in state machines all round-trip.
    fn from_snapshot(snapshot: &[u8]) -> Option<Self> {
        let _ = snapshot;
        None
    }

    /// Replays a full command sequence from the initial state.
    fn replay<'a, I: IntoIterator<Item = &'a [u8]>>(commands: I) -> Self {
        let mut sm = Self::default();
        for c in commands {
            sm.apply(c);
        }
        sm
    }
}

/// The 64-bit fingerprint of a canonical snapshot: the default
/// [`StateMachine::digest`], so that replicas can be compared without
/// shipping or keeping their states. One multiply
/// per eight bytes (the length goes in first, so zero-padding the last word
/// is unambiguous); equal snapshots always give equal digests, unequal ones
/// collide with probability ≈ 2⁻⁶⁴.
pub fn snapshot_digest(snapshot: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let (words, rest) = snapshot.as_chunks::<8>();
    let h = (snapshot.len() as u64).wrapping_mul(K);
    let h = words
        .iter()
        .fold(h, |h, word| mix(h, u64::from_le_bytes(*word)));
    let last = rest.iter().rev().fold(0, |w, b| (w << 8) | u64::from(*b));
    let h = mix(h, last);
    h ^ (h >> 29)
}

/// SplitMix64's finaliser: every input bit moves every output bit.
fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one `(key, value)` entry adds to a [`KvStore`]'s entry sum: both
/// halves fingerprinted with their lengths (so the split point counts),
/// combined asymmetrically, then fully mixed, so that a sum of entry hashes
/// behaves like a sum of independent random words.
fn entry_hash(key: &str, value: &str) -> u64 {
    mix64(snapshot_digest(key.as_bytes()).rotate_left(32) ^ snapshot_digest(value.as_bytes()))
}

/// A key–value store. Commands: `put <key> <value>` and `del <key>`
/// (whitespace separated, UTF-8).
///
/// The store keeps its [`StateMachine::digest`] up to date instead of
/// encoding itself for it: a wrapping sum of one mixed hash per entry, to
/// which a command adds the entry it writes and from which it subtracts the
/// one it replaces or deletes — O(|command|) whatever the size of the store.
/// The sum is a function of the entries alone, so equal stores compare,
/// clone and digest equal. A `put` to an existing key rewrites the value in
/// place and allocates nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    entries: BTreeMap<String, String>,
    /// Wrapping sum of [`entry_hash`] over `entries`.
    entry_sum: u64,
}

impl KvStore {
    /// Encodes a `put` command.
    pub fn put(key: &str, value: &str) -> Vec<u8> {
        format!("put {key} {value}").into_bytes()
    }

    /// Encodes a `del` command.
    pub fn del(key: &str) -> Vec<u8> {
        format!("del {key}").into_bytes()
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|s| s.as_str())
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets `key` to `value`, keeping the entry sum in step.
    fn write(&mut self, key: &str, value: &str) {
        self.entry_sum = self.entry_sum.wrapping_add(entry_hash(key, value));
        match self.entries.get_mut(key) {
            Some(old) => {
                self.entry_sum = self.entry_sum.wrapping_sub(entry_hash(key, old));
                old.clear();
                old.push_str(value);
            }
            None => {
                self.entries.insert(key.to_string(), value.to_string());
            }
        }
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, command: &[u8]) {
        let Ok(text) = std::str::from_utf8(command) else {
            return;
        };
        let mut parts = text.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("put"), Some(key), Some(value)) => self.write(key, value),
            (Some("del"), Some(key), _) => {
                if let Some(old) = self.entries.remove(key) {
                    self.entry_sum = self.entry_sum.wrapping_sub(entry_hash(key, &old));
                }
            }
            _ => {}
        }
    }

    /// The entry sum combined with the entry count: O(1).
    fn digest(&self) -> u64 {
        let count = (self.entries.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mix64(self.entry_sum ^ count)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in &self.entries {
            out.extend_from_slice(k.as_bytes());
            out.push(b'=');
            out.extend_from_slice(v.as_bytes());
            out.push(b';');
        }
        out
    }

    /// Exact for every state reachable through [`KvStore::put`] /
    /// [`KvStore::del`] commands whose keys avoid `=` and whose keys and
    /// values avoid `;` (commands are whitespace-delimited, so such bytes
    /// are representable but make the `k=v;` encoding ambiguous).
    fn from_snapshot(snapshot: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(snapshot).ok()?;
        let mut store = KvStore::default();
        for segment in text.split(';').filter(|s| !s.is_empty()) {
            let (key, value) = segment.split_once('=')?;
            store.write(key, value);
        }
        Some(store)
    }
}

/// A signed counter. Commands: `+<n>` and `-<n>`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    value: i64,
}

impl Counter {
    /// Encodes an increment command.
    pub fn add(n: i64) -> Vec<u8> {
        format!("+{n}").into_bytes()
    }

    /// Encodes a decrement command.
    pub fn sub(n: i64) -> Vec<u8> {
        format!("-{n}").into_bytes()
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value
    }
}

impl StateMachine for Counter {
    fn apply(&mut self, command: &[u8]) {
        let Ok(text) = std::str::from_utf8(command) else {
            return;
        };
        let Some(rest) = text.get(1..) else { return };
        let Ok(n) = rest.parse::<i64>() else { return };
        match text.as_bytes().first() {
            Some(b'+') => self.value = self.value.saturating_add(n),
            Some(b'-') => self.value = self.value.saturating_sub(n),
            _ => {}
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.value.to_le_bytes().to_vec()
    }

    fn from_snapshot(snapshot: &[u8]) -> Option<Self> {
        let bytes: [u8; 8] = snapshot.try_into().ok()?;
        Some(Counter {
            value: i64::from_le_bytes(bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_store_applies_puts_and_dels() {
        let mut kv = KvStore::default();
        kv.apply(&KvStore::put("a", "1"));
        kv.apply(&KvStore::put("b", "2 with spaces"));
        assert_eq!(kv.get("a"), Some("1"));
        assert_eq!(kv.get("b"), Some("2 with spaces"));
        kv.apply(&KvStore::del("a"));
        assert_eq!(kv.get("a"), None);
        assert_eq!(kv.len(), 1);
        assert!(!kv.is_empty());
    }

    #[test]
    fn kv_store_ignores_garbage() {
        let mut kv = KvStore::default();
        kv.apply(b"nonsense");
        kv.apply(&[0xff, 0xfe]);
        kv.apply(b"put onlykey");
        assert!(kv.is_empty());
    }

    #[test]
    fn kv_snapshot_is_canonical() {
        let mut a = KvStore::default();
        a.apply(&KvStore::put("x", "1"));
        a.apply(&KvStore::put("y", "2"));
        let mut b = KvStore::default();
        b.apply(&KvStore::put("y", "2"));
        b.apply(&KvStore::put("x", "1"));
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn counter_saturates_and_ignores_garbage() {
        let mut c = Counter::default();
        c.apply(&Counter::add(5));
        c.apply(&Counter::sub(2));
        c.apply(b"junk");
        assert_eq!(c.value(), 3);
        c.apply(&Counter::add(i64::MAX));
        assert_eq!(c.value(), i64::MAX);
    }

    #[test]
    fn snapshots_round_trip_through_from_snapshot() {
        let mut kv = KvStore::default();
        kv.apply(&KvStore::put("x", "1"));
        kv.apply(&KvStore::put("y", "two words"));
        assert_eq!(KvStore::from_snapshot(&kv.snapshot()), Some(kv.clone()));
        assert_eq!(KvStore::from_snapshot(b""), Some(KvStore::default()));
        assert_eq!(KvStore::from_snapshot(b"corrupt"), None);

        let mut c = Counter::default();
        c.apply(&Counter::add(-12));
        assert_eq!(Counter::from_snapshot(&c.snapshot()), Some(c));
        assert_eq!(Counter::from_snapshot(b"short"), None);
    }

    #[test]
    fn digests_tell_snapshots_apart_by_content_length_and_padding() {
        let mut kv = KvStore::default();
        kv.apply(&KvStore::put("x", "1"));
        let one = kv.snapshot();
        kv.apply(&KvStore::put("y", "two words"));
        let two = kv.snapshot();
        assert_eq!(snapshot_digest(&one), snapshot_digest(&one.clone()));
        assert_ne!(snapshot_digest(&one), snapshot_digest(&two));
        // a trailing zero byte, a whole zero word and nothing all differ
        let digests = [&b""[..], &[0], &[0; 8], &[0; 9], &[1], &[0, 1]].map(snapshot_digest);
        for (i, a) in digests.iter().enumerate() {
            assert!(digests[i + 1..].iter().all(|b| a != b), "{digests:?}");
        }
    }

    fn kv(commands: &[Vec<u8>]) -> KvStore {
        KvStore::replay(commands.iter().map(Vec::as_slice))
    }

    #[test]
    fn kv_digest_depends_on_the_state_not_on_the_path_to_it() {
        let one = kv(&[
            KvStore::put("a", "1"),
            KvStore::put("b", "2"),
            KvStore::del("a"),
            KvStore::put("c", "3"),
            KvStore::put("b", "two"),
        ]);
        let other = kv(&[
            KvStore::put("c", "old"),
            KvStore::put("b", "two"),
            KvStore::del("nothing"),
            KvStore::put("c", "3"),
        ]);
        assert_eq!(one.snapshot(), other.snapshot());
        assert_eq!(one.digest(), other.digest());
        assert_eq!(one, other, "the entry sum is a function of the entries");
    }

    #[test]
    fn kv_put_del_and_put_back_restores_the_digest() {
        let mut store = kv(&[KvStore::put("x", "1"), KvStore::put("y", "2")]);
        let before = store.digest();
        store.apply(&KvStore::put("z", "3"));
        assert_ne!(store.digest(), before);
        store.apply(&KvStore::del("z"));
        assert_eq!(store.digest(), before);
        store.apply(&KvStore::put("x", "changed"));
        assert_ne!(store.digest(), before);
        store.apply(&KvStore::put("x", "1"));
        assert_eq!(store.digest(), before);
        assert_eq!(
            KvStore::default().digest(),
            kv(&[KvStore::del("x")]).digest()
        );
    }

    /// A seeded corpus of small stores over few keys and short values, so
    /// that many reach the same state by different paths: the digest is
    /// kept incrementally, equals the digest of the state read back from
    /// its snapshot, and tells every two distinct states apart.
    #[test]
    fn kv_digests_match_snapshots_over_a_seeded_corpus() {
        let mut seed = 0x5EED_u64;
        let mut next = |n: u64| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(seed) % n
        };
        let mut by_snapshot: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for _ in 0..3_000 {
            let mut store = KvStore::default();
            for _ in 0..next(12) {
                let key = format!("k{}", next(6));
                match next(4) {
                    0 => store.apply(&KvStore::del(&key)),
                    _ => store.apply(&KvStore::put(&key, &"v".repeat(next(4) as usize + 1))),
                }
                let snapshot = store.snapshot();
                let read_back = KvStore::from_snapshot(&snapshot).expect("round trip");
                assert_eq!(read_back.digest(), store.digest());
                let digest = *by_snapshot.entry(snapshot).or_insert(store.digest());
                assert_eq!(digest, store.digest(), "equal states, different digests");
            }
        }
        let distinct: std::collections::BTreeSet<u64> = by_snapshot.values().copied().collect();
        assert!(by_snapshot.len() > 1_000, "{} states", by_snapshot.len());
        assert_eq!(distinct.len(), by_snapshot.len(), "two states collided");
    }

    #[test]
    fn machines_without_their_own_digest_hash_their_snapshot() {
        let mut c = Counter::default();
        c.apply(&Counter::add(3));
        assert_eq!(c.digest(), snapshot_digest(&c.snapshot()));
    }
}
