//! Broadcast workload generators shared by tests, examples and benches.
//!
//! A workload is a schedule of `broadcastETOB(m, C(m))` invocations together
//! with the [`BroadcastRecord`]s the specification checkers need. Keeping the
//! two in one place guarantees that what the checker believes was broadcast
//! is exactly what the run was fed.
//!
//! For the replicated key–value service there is additionally [`KvWorkload`],
//! a zipf-skewed multi-key client mix: operations over a fixed keyspace whose
//! key popularity follows a zipf distribution, the canonical model of the
//! Dynamo/PNUTS-style traffic that motivates the paper. The sharded service
//! layer routes each operation to the ETOB group owning its key.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ec_sim::{Algorithm, FailureDetector, ProcessId, Time, World};

use crate::spec::BroadcastRecord;
use crate::types::{EtobBroadcast, MsgId};

/// A scheduled broadcast workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastWorkload {
    entries: Vec<(ProcessId, u64, EtobBroadcast)>,
}

impl BroadcastWorkload {
    /// An empty workload to extend manually.
    pub fn new() -> Self {
        BroadcastWorkload {
            entries: Vec::new(),
        }
    }

    /// `count` broadcasts with round-robin origins `p_0, p_1, …`, submitted at
    /// times `start, start + spacing, start + 2·spacing, …`, with payloads
    /// `b"m<k>"` and no causal dependencies.
    pub fn uniform(n: usize, count: usize, start: u64, spacing: u64) -> Self {
        let mut w = Self::new();
        for k in 0..count {
            let origin = ProcessId::new(k % n);
            let at = start + spacing * k as u64;
            w.push(origin, at, format!("m{k}").into_bytes(), vec![]);
        }
        w
    }

    /// `chains` causal chains of `chain_len` messages each. Message `j` of
    /// chain `i` originates at process `(i + j) % n` and causally depends on
    /// message `j - 1` of the same chain, so causality crosses processes.
    pub fn causal_chains(
        n: usize,
        chains: usize,
        chain_len: usize,
        start: u64,
        spacing: u64,
    ) -> Self {
        let mut w = Self::new();
        let mut at = start;
        for i in 0..chains {
            let mut prev: Option<MsgId> = None;
            for j in 0..chain_len {
                let origin = ProcessId::new((i + j) % n);
                let deps = prev.into_iter().collect();
                let id = w.push(origin, at, format!("c{i}-{j}").into_bytes(), deps);
                prev = Some(id);
                at += spacing;
            }
        }
        w
    }

    /// Appends one broadcast and returns the identifier assigned to it.
    pub fn push(
        &mut self,
        origin: ProcessId,
        at: u64,
        payload: Vec<u8>,
        deps: Vec<MsgId>,
    ) -> MsgId {
        let seq = self.entries.iter().filter(|(p, _, _)| *p == origin).count() as u64 + 1;
        let broadcast = EtobBroadcast::with_deps(origin, seq, payload, deps);
        let id = broadcast.message.id;
        self.entries.push((origin, at, broadcast));
        id
    }

    /// Number of scheduled broadcasts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The identifiers of all scheduled broadcasts, in schedule order.
    pub fn ids(&self) -> Vec<MsgId> {
        self.entries.iter().map(|(_, _, b)| b.message.id).collect()
    }

    /// The scheduled `(origin, time, broadcast)` entries.
    pub fn entries(&self) -> &[(ProcessId, u64, EtobBroadcast)] {
        &self.entries
    }

    /// The [`BroadcastRecord`]s the specification checkers need.
    pub fn records(&self) -> Vec<BroadcastRecord> {
        self.entries
            .iter()
            .map(|(origin, at, b)| BroadcastRecord {
                id: b.message.id,
                by: *origin,
                at: Time::new(*at),
                deps: b.message.deps.to_vec(),
            })
            .collect()
    }

    /// Schedules every broadcast of the workload into the world.
    pub fn submit_to<A, D>(&self, world: &mut World<A, D>)
    where
        A: Algorithm<Input = EtobBroadcast>,
        D: FailureDetector<Output = A::Fd>,
    {
        for (origin, at, broadcast) in &self.entries {
            world.schedule_input(*origin, broadcast.clone(), *at);
        }
    }

    /// The time of the last scheduled broadcast (0 for an empty workload).
    pub fn last_submission_time(&self) -> u64 {
        self.entries.iter().map(|(_, at, _)| *at).max().unwrap_or(0)
    }
}

impl Default for BroadcastWorkload {
    fn default() -> Self {
        Self::new()
    }
}

/// One key–value operation of a [`KvWorkload`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvOp {
    /// Index of the client submitting the operation. Service layers map this
    /// to an entry replica (e.g. round-robin within the owning shard).
    pub client: usize,
    /// Submission time in ticks.
    pub at: u64,
    /// The key operated on.
    pub key: String,
    /// `Some(value)` for a put, `None` for a delete.
    pub value: Option<String>,
}

/// Parameters of the zipf-skewed client mix generated by [`KvWorkload::zipf`].
#[derive(Clone, Debug, PartialEq)]
pub struct ZipfMix {
    /// Size of the keyspace (`k0`, `k1`, …). Key ranks follow declaration
    /// order: `k0` is the most popular key.
    pub keys: usize,
    /// Number of operations to generate.
    pub ops: usize,
    /// Zipf exponent `s`: key `r` (0-based rank) is drawn with weight
    /// `1 / (r + 1)^s`. `s = 0` is a uniform mix; `s ≈ 1` is the classic
    /// web-caching skew; larger values concentrate traffic on hot keys.
    pub skew: f64,
    /// Number of distinct clients; operations round-robin over them.
    pub clients: usize,
    /// Submission time of the first operation.
    pub start: u64,
    /// Ticks between consecutive operations.
    pub spacing: u64,
    /// Seed of the deterministic generator.
    pub seed: u64,
    /// One in `del_every` operations is a delete of the drawn key instead of
    /// a put (0 disables deletes).
    pub del_every: usize,
}

impl Default for ZipfMix {
    fn default() -> Self {
        ZipfMix {
            keys: 64,
            ops: 128,
            skew: 1.0,
            clients: 4,
            start: 10,
            spacing: 5,
            seed: 1,
            del_every: 10,
        }
    }
}

/// A zipf-skewed multi-key client mix for the replicated key–value service.
///
/// # Example
///
/// ```
/// use ec_core::workload::{KvWorkload, ZipfMix};
/// let w = KvWorkload::zipf(ZipfMix { keys: 16, ops: 64, ..Default::default() });
/// assert_eq!(w.len(), 64);
/// // the hottest key receives more traffic than the coldest one
/// let hits = |k: &str| w.ops().iter().filter(|op| op.key == k).count();
/// assert!(hits("k0") > hits("k15"));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct KvWorkload {
    ops: Vec<KvOp>,
    keys: usize,
}

impl KvWorkload {
    /// Generates a deterministic zipf-skewed operation mix.
    ///
    /// Key popularity follows `P(rank r) ∝ 1 / (r + 1)^s` realized by
    /// integer cumulative weights and inverse-CDF sampling, so the mix is a
    /// pure function of the parameters (including across platforms).
    ///
    /// # Panics
    ///
    /// Panics if `keys == 0` or `clients == 0`.
    pub fn zipf(params: ZipfMix) -> Self {
        assert!(params.keys > 0, "a keyspace needs at least one key");
        assert!(params.clients > 0, "the mix needs at least one client");
        // Integer cumulative weights: scale 1/(r+1)^s to keep at least one
        // unit of weight per key.
        const SCALE: f64 = (1u64 << 24) as f64;
        let mut cumulative: Vec<u64> = Vec::with_capacity(params.keys);
        let mut total = 0u64;
        for rank in 0..params.keys {
            let w = (SCALE / ((rank + 1) as f64).powf(params.skew)).max(1.0) as u64;
            total += w;
            cumulative.push(total);
        }
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut ops = Vec::with_capacity(params.ops);
        for i in 0..params.ops {
            let r = rng.gen_range(0..total);
            let rank = cumulative.partition_point(|&c| c <= r);
            let key = format!("k{rank}");
            let is_del =
                params.del_every > 0 && rng.gen_range(0..params.del_every as u64) == 0 && i > 0;
            ops.push(KvOp {
                client: i % params.clients,
                at: params.start + params.spacing * i as u64,
                key,
                value: (!is_del).then(|| format!("v{i}")),
            });
        }
        KvWorkload {
            ops,
            keys: params.keys,
        }
    }

    /// The generated operations, in submission order.
    pub fn ops(&self) -> &[KvOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Size of the keyspace the mix was drawn from.
    pub fn keyspace(&self) -> usize {
        self.keys
    }

    /// The submission time of the last operation (0 for an empty workload).
    pub fn last_submission_time(&self) -> u64 {
        self.ops.iter().map(|op| op.at).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-key operation counts, indexed by key rank.
    fn key_histogram(w: &KvWorkload) -> Vec<usize> {
        let mut hist = vec![0usize; w.keys];
        for op in &w.ops {
            if let Some(rank) = op.key[1..].parse::<usize>().ok().filter(|r| *r < w.keys) {
                hist[rank] += 1;
            }
        }
        hist
    }

    #[test]
    fn uniform_workload_round_robins_origins_and_spaces_times() {
        let w = BroadcastWorkload::uniform(3, 7, 10, 5);
        assert_eq!(w.len(), 7);
        assert!(!w.is_empty());
        let origins: Vec<usize> = w.entries().iter().map(|(p, _, _)| p.index()).collect();
        assert_eq!(origins, vec![0, 1, 2, 0, 1, 2, 0]);
        let times: Vec<u64> = w.entries().iter().map(|(_, t, _)| *t).collect();
        assert_eq!(times, vec![10, 15, 20, 25, 30, 35, 40]);
        assert_eq!(w.last_submission_time(), 40);
        // ids are unique
        let mut ids = w.ids();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn causal_chains_declare_cross_process_dependencies() {
        let w = BroadcastWorkload::causal_chains(3, 2, 3, 0, 1);
        assert_eq!(w.len(), 6);
        let records = w.records();
        // first message of each chain has no deps, later ones depend on the
        // previous message of the same chain
        let chain0: Vec<_> = records.iter().take(3).collect();
        assert!(chain0[0].deps.is_empty());
        assert_eq!(chain0[1].deps, vec![chain0[0].id]);
        assert_eq!(chain0[2].deps, vec![chain0[1].id]);
        // origins rotate across processes within a chain
        assert_ne!(chain0[0].by, chain0[1].by);
    }

    #[test]
    fn zipf_mix_is_deterministic_and_skewed() {
        let params = ZipfMix {
            keys: 32,
            ops: 400,
            skew: 1.2,
            ..Default::default()
        };
        let a = KvWorkload::zipf(params.clone());
        let b = KvWorkload::zipf(params);
        assert_eq!(a, b, "same parameters must give the same mix");
        assert_eq!(a.len(), 400);
        assert!(!a.is_empty());
        assert_eq!(a.keyspace(), 32);
        let hist = key_histogram(&a);
        assert_eq!(hist.iter().sum::<usize>(), 400);
        // rank 0 is the hottest key; the cold tail gets much less traffic
        assert!(hist[0] > hist[31] * 2, "hist = {hist:?}");
        // a higher skew concentrates more mass on the head
        let sharp = KvWorkload::zipf(ZipfMix {
            keys: 32,
            ops: 400,
            skew: 2.0,
            ..Default::default()
        });
        assert!(key_histogram(&sharp)[0] > hist[0]);
    }

    #[test]
    fn zipf_mix_round_robins_clients_and_spaces_times() {
        let w = KvWorkload::zipf(ZipfMix {
            keys: 8,
            ops: 10,
            clients: 3,
            start: 100,
            spacing: 7,
            del_every: 0,
            ..Default::default()
        });
        let clients: Vec<usize> = w.ops().iter().map(|op| op.client).collect();
        assert_eq!(clients, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(w.ops()[0].at, 100);
        assert_eq!(w.ops()[9].at, 100 + 7 * 9);
        assert_eq!(w.last_submission_time(), 163);
        // del_every = 0 disables deletes entirely
        assert!(w.ops().iter().all(|op| op.value.is_some()));
    }

    #[test]
    fn zipf_mix_uniform_skew_spreads_traffic() {
        let w = KvWorkload::zipf(ZipfMix {
            keys: 4,
            ops: 800,
            skew: 0.0,
            del_every: 0,
            ..Default::default()
        });
        let hist = key_histogram(&w);
        // uniform: every key within a loose factor of the mean (200)
        assert!(hist.iter().all(|&h| h > 100 && h < 300), "hist = {hist:?}");
        // deletes disabled ⇒ all ops carry values; with them enabled some don't
        let with_dels = KvWorkload::zipf(ZipfMix {
            keys: 4,
            ops: 800,
            skew: 0.0,
            del_every: 5,
            ..Default::default()
        });
        assert!(with_dels.ops().iter().any(|op| op.value.is_none()));
    }

    /// Determinism is part of the workload contract: the sharded service
    /// experiments, the determinism CI job and the cross-engine conformance
    /// suite all assume that the same parameters reproduce the same op
    /// stream on every run and every platform. Known-answer snapshot.
    #[test]
    fn zipf_mix_op_stream_is_pinned() {
        let w = KvWorkload::zipf(ZipfMix {
            keys: 4,
            ops: 10,
            skew: 1.0,
            clients: 2,
            start: 5,
            spacing: 3,
            seed: 42,
            del_every: 3,
        });
        let rendered: Vec<String> = w
            .ops()
            .iter()
            .map(|op| {
                format!(
                    "c{}@{} {}={}",
                    op.client,
                    op.at,
                    op.key,
                    op.value.as_deref().unwrap_or("<del>")
                )
            })
            .collect();
        let expected = [
            "c0@5 k0=v0",
            "c1@8 k1=v1",
            "c0@11 k3=v2",
            "c1@14 k1=v3",
            "c0@17 k2=v4",
            "c1@20 k1=<del>",
            "c0@23 k2=<del>",
            "c1@26 k1=v7",
            "c0@29 k1=v8",
            "c1@32 k1=v9",
        ];
        assert_eq!(
            rendered, expected,
            "the zipf generator drifted from its pinned op stream"
        );
    }

    #[test]
    fn same_seed_gives_identical_streams_different_seeds_differ() {
        let params = ZipfMix {
            keys: 16,
            ops: 120,
            seed: 9,
            ..Default::default()
        };
        let a = KvWorkload::zipf(params.clone());
        let b = KvWorkload::zipf(params.clone());
        assert_eq!(a.ops(), b.ops(), "same seed must give an identical stream");
        let c = KvWorkload::zipf(ZipfMix { seed: 10, ..params });
        assert_ne!(a.ops(), c.ops(), "a different seed must perturb the mix");
    }

    /// Skew sanity: under a zipf mix the hottest key is the lowest rank, and
    /// head ranks dominate the tail in frequency order.
    #[test]
    fn zipf_mix_orders_key_frequencies_by_rank() {
        let w = KvWorkload::zipf(ZipfMix {
            keys: 16,
            ops: 2_000,
            skew: 1.2,
            del_every: 0,
            ..Default::default()
        });
        let hist = key_histogram(&w);
        let hottest = hist
            .iter()
            .enumerate()
            .max_by_key(|(_, &h)| h)
            .map(|(r, _)| r);
        assert_eq!(hottest, Some(0), "rank 0 must be the hottest key: {hist:?}");
        // the head of the distribution dominates every tail rank
        for (rank, &h) in hist.iter().enumerate().skip(4) {
            assert!(
                hist[0] > h,
                "rank 0 ({}) must out-draw tail rank {rank} ({h}): {hist:?}",
                hist[0]
            );
        }
        // and frequencies of the first few ranks are non-increasing in
        // aggregate: rank 0 ≥ rank 1 ≥ … over a big enough sample
        assert!(hist[0] >= hist[1] && hist[1] >= hist[3], "hist = {hist:?}");
    }

    #[test]
    fn per_origin_sequence_numbers_are_dense() {
        let mut w = BroadcastWorkload::new();
        let a = w.push(ProcessId::new(0), 0, vec![], vec![]);
        let b = w.push(ProcessId::new(0), 1, vec![], vec![]);
        let c = w.push(ProcessId::new(1), 2, vec![], vec![]);
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert_eq!(c.seq, 1);
        assert_eq!(w.records().len(), 3);
    }
}
