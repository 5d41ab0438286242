//! Horizontal scale: a sharded replicated service over independent replica
//! groups.
//!
//! The paper's motivating systems (Dynamo, PNUTS, Bigtable) scale
//! horizontally: the keyspace is hash-partitioned across many independent
//! replica groups, each internally replicated. This module provides that
//! layer on top of the [`Cluster`] facade:
//!
//! * [`Router`] — the pluggable key → shard mapping, with the FNV-1a
//!   [`HashRouter`] (the function [`shard_of`]) as the default;
//! * [`ShardedCluster`] — `shards` independent [`Cluster`]s of any state
//!   machine at any consistency level, on any engine. Client operations are
//!   routed to the owning shard and enter through a round-robin entry
//!   replica;
//! * [`ShardedKv`] — the key–value instantiation
//!   (`ShardedCluster<KvStore>`), with `put`/`del`/`get` conveniences and
//!   [`ec_core::workload::KvWorkload`] intake.
//!
//! Because shards are fully independent groups, each pays only the
//! two-communication-step stable-leader latency the paper proves for a
//! *single* group, regardless of cluster size — and a partition inside one
//! shard delays convergence of that shard only (experiment E10 and the
//! `tests/sharding.rs` suite demonstrate both properties). Combined with the
//! [`EtobConfig::batch`](ec_core::etob_omega::EtobConfig) flush knob, the
//! per-shard hot path scales with operations per flush rather than per
//! message (experiment E11).

use std::fmt;

use ec_core::etob_omega::EtobConfig;
use ec_core::workload::{KvOp, KvWorkload};
use ec_sim::{Metrics, NetworkModel, ProcessId};

use crate::cluster::{Cluster, ClusterBuilder, Consistency};
pub use crate::cluster::{ClusterReport, ShardReport};
use crate::engine::{Engine, SimEngine};
use crate::state_machine::{KvStore, StateMachine};

/// Maps a key to the shard that owns it: FNV-1a over the key bytes, reduced
/// modulo the shard count. Deterministic and stable across runs *and
/// platforms* — the key → shard mapping is a wire-format guarantee, pinned
/// by known-answer tests, so routers, tests and clients always agree on
/// ownership.
///
/// # Panics
///
/// Panics if `shards == 0`.
///
/// # Example
///
/// ```
/// use ec_replication::shard::shard_of;
/// let s = shard_of("user:42", 8);
/// assert!(s < 8);
/// assert_eq!(s, shard_of("user:42", 8), "routing is deterministic");
/// ```
pub fn shard_of(key: &str, shards: usize) -> usize {
    assert!(shards > 0, "a cluster needs at least one shard");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A pluggable key → shard mapping. Implementations must be deterministic:
/// every client and every test must agree on which shard owns a key.
pub trait Router: fmt::Debug {
    /// The shard (in `0..shards`) owning `key`.
    fn route(&self, key: &str, shards: usize) -> usize;
}

/// The default router: FNV-1a hash partitioning via [`shard_of`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HashRouter;

impl Router for HashRouter {
    fn route(&self, key: &str, shards: usize) -> usize {
        shard_of(key, shards)
    }
}

/// Configuration of a [`ShardedCluster`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of independent replica groups the keyspace is partitioned
    /// across.
    pub shards: usize,
    /// Replicas per shard (each shard is its own `n`-process group).
    pub replicas_per_shard: usize,
    /// ETOB configuration shared by all shards (promote period, eager
    /// promotion, and the batching flush interval).
    pub etob: EtobConfig,
    /// Network model shared by all shards (simulation engine); override a
    /// single shard's network (e.g. to script a partition) via
    /// [`ShardedClusterBuilder::shard_network`].
    pub network: NetworkModel,
    /// Base seed; shard `s` runs with `seed + s` so the shard worlds are
    /// deterministic but not lock-stepped copies of each other.
    pub seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            replicas_per_shard: 3,
            etob: EtobConfig::default(),
            network: NetworkModel::fixed_delay(2),
            seed: 7,
        }
    }
}

/// Builder for a [`ShardedCluster`], allowing per-shard network overrides, a
/// custom [`Router`], a consistency level, and custom engines.
#[derive(Clone, Debug)]
pub struct ShardedClusterBuilder<S, R = HashRouter> {
    config: ShardConfig,
    consistency: Consistency,
    router: R,
    shard_networks: Vec<Option<NetworkModel>>,
    _state: std::marker::PhantomData<fn() -> S>,
}

/// Builder alias for the key–value instantiation (kept as the name the
/// sharded-KV experiments and examples use).
pub type ShardedKvBuilder = ShardedClusterBuilder<KvStore>;

impl<S: StateMachine + Send + 'static> ShardedClusterBuilder<S> {
    /// Starts building a cluster from a base configuration, with the
    /// default FNV-1a [`HashRouter`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration names zero shards or fewer than two
    /// replicas per shard (each shard is a group, and groups need `n ≥ 2`).
    pub fn new(config: ShardConfig) -> Self {
        assert!(config.shards > 0, "a cluster needs at least one shard");
        assert!(
            config.replicas_per_shard >= 2,
            "each shard runs a group of at least two replicas"
        );
        let shard_networks = vec![None; config.shards];
        ShardedClusterBuilder {
            config,
            consistency: Consistency::Eventual,
            router: HashRouter,
            shard_networks,
            _state: std::marker::PhantomData,
        }
    }
}

impl<S: StateMachine + Send + 'static, R: Router> ShardedClusterBuilder<S, R> {
    /// Replaces the router.
    pub fn router<R2: Router>(self, router: R2) -> ShardedClusterBuilder<S, R2> {
        ShardedClusterBuilder {
            config: self.config,
            consistency: self.consistency,
            router,
            shard_networks: self.shard_networks,
            _state: std::marker::PhantomData,
        }
    }

    /// Sets the consistency level of every shard (eventual by default).
    pub fn consistency(mut self, consistency: Consistency) -> Self {
        self.consistency = consistency;
        self
    }

    /// Overrides the network model of one shard — the hook the partition
    /// experiments use to isolate replicas of a single shard while the rest
    /// of the cluster keeps its base network. Applies to the default
    /// simulation engines of [`ShardedClusterBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_network(mut self, shard: usize, network: NetworkModel) -> Self {
        assert!(shard < self.config.shards, "no such shard: {shard}");
        self.shard_networks[shard] = Some(network);
        self
    }

    /// Builds the cluster on per-shard deterministic simulation engines
    /// (shard `s` seeded with `seed + s`, honoring
    /// [`ShardedClusterBuilder::shard_network`] overrides).
    pub fn build(mut self) -> ShardedCluster<S, R> {
        let config = self.config.clone();
        let networks = std::mem::replace(&mut self.shard_networks, vec![None; config.shards]);
        self.build_with(|s| {
            SimEngine::new()
                .network(
                    networks
                        .get(s)
                        .and_then(Clone::clone)
                        .unwrap_or_else(|| config.network.clone()),
                )
                .seed(config.seed + s as u64)
        })
    }

    /// Builds the cluster with one engine per shard produced by
    /// `make_engine` — how a sharded service is deployed on the thread
    /// runtime (or any custom [`Engine`]).
    ///
    /// # Panics
    ///
    /// Panics if [`ShardedClusterBuilder::shard_network`] overrides were
    /// set: those configure the default simulation engines of
    /// [`ShardedClusterBuilder::build`] and would be silently ignored here —
    /// bake per-shard differences into `make_engine` instead.
    pub fn build_with<E: Engine>(
        self,
        mut make_engine: impl FnMut(usize) -> E,
    ) -> ShardedCluster<S, R> {
        assert!(
            self.shard_networks.iter().all(Option::is_none),
            "shard_network overrides apply only to build(); configure custom engines directly"
        );
        let ShardedClusterBuilder {
            config,
            consistency,
            router,
            ..
        } = self;
        let clusters = (0..config.shards)
            .map(|s| {
                ClusterBuilder::<S>::new(config.replicas_per_shard)
                    .consistency(consistency)
                    .etob(config.etob)
                    .deploy(&make_engine(s))
            })
            .collect();
        ShardedCluster {
            next_entry: vec![0; config.shards],
            config,
            router,
            clusters,
        }
    }
}

/// A sharded replicated service: `shards` independent [`Cluster`]s behind a
/// [`Router`].
///
/// # Example
///
/// ```
/// use ec_replication::shard::{ShardConfig, ShardedKv};
///
/// let mut cluster = ShardedKv::new(ShardConfig::default());
/// cluster.put("alice", "1", 10);
/// cluster.put("bob", "2", 12);
/// cluster.run_until(2_000);
/// assert_eq!(cluster.get("alice").as_deref(), Some("1"));
/// assert_eq!(cluster.get("bob").as_deref(), Some("2"));
/// let report = cluster.report();
/// assert!(report.all_converged());
/// assert_eq!(report.total_ops_routed(), 2);
/// ```
#[derive(Debug)]
pub struct ShardedCluster<S, R = HashRouter>
where
    S: StateMachine + Send + 'static,
    R: Router,
{
    config: ShardConfig,
    router: R,
    clusters: Vec<Cluster<S>>,
    /// Round-robin entry replica per shard (simulating clients contacting
    /// different front-end replicas).
    next_entry: Vec<usize>,
}

/// The sharded eventually consistent key–value service: the
/// [`ShardedCluster`] instantiation the KV experiments (E10/E11) use.
pub type ShardedKv = ShardedCluster<KvStore>;

impl ShardedKv {
    /// Builds a KV cluster with a uniform network across shards. Use
    /// [`ShardedKv::builder`] to override single shards.
    pub fn new(config: ShardConfig) -> Self {
        ShardedClusterBuilder::new(config).build()
    }

    /// Starts a builder (for per-shard network overrides, consistency or
    /// engine choice).
    pub fn builder(config: ShardConfig) -> ShardedKvBuilder {
        ShardedClusterBuilder::new(config)
    }
}

impl<S, R> ShardedCluster<S, R>
where
    S: StateMachine + Send + 'static,
    R: Router,
{
    /// Replicas per shard.
    pub fn replicas_per_shard(&self) -> usize {
        self.config.replicas_per_shard
    }

    /// The shard owning `key`, per the configured [`Router`].
    pub fn shard_of_key(&self, key: &str) -> usize {
        self.router.route(key, self.config.shards)
    }

    /// The [`Cluster`] of one shard (for inspection in tests and
    /// experiments).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn cluster(&self, shard: usize) -> &Cluster<S> {
        &self.clusters[shard]
    }

    /// Routes a raw state-machine command to the shard owning `key` at time
    /// `at`; returns the shard it was routed to. The entry replica is the
    /// client index modulo the shard size if given, else round-robin.
    pub fn submit_keyed(
        &mut self,
        key: &str,
        command: impl Into<crate::replica::ReplicaCommand>,
        at: u64,
        client: Option<usize>,
    ) -> usize {
        let shard = self.shard_of_key(key);
        let n = self.config.replicas_per_shard;
        let entry = match client {
            Some(c) => c % n,
            None => self.next_entry[shard],
        };
        // Fairness: the rotation pointer always moves past the replica just
        // used, explicit or not — otherwise interleaved explicit-entry
        // submissions leave the pointer parked and round-robin traffic
        // piles onto whichever replica it happens to point at.
        self.next_entry[shard] = (entry + 1) % n;
        self.clusters[shard].submit_at(ProcessId::new(entry), command, at);
        shard
    }

    /// Advances every shard to time `t` (shards are independent, so this is
    /// a per-shard run).
    pub fn run_until(&mut self, t: u64) {
        for cluster in &mut self.clusters {
            cluster.run_until(t);
        }
    }

    /// Advances every shard in small time steps until each correct replica
    /// of shard `s` has applied at least `targets[s]` commands, or facade
    /// time `max_t` is reached. Returns `true` if every shard reached its
    /// target — the uniform way to wait for cluster-wide convergence
    /// without guessing a horizon. Shards that already met their target are
    /// not stepped further.
    ///
    /// # Panics
    ///
    /// Panics if `targets` does not name one target per shard.
    pub fn run_until_applied(&mut self, targets: &[usize], max_t: u64) -> bool {
        assert_eq!(
            targets.len(),
            self.clusters.len(),
            "one applied-target per shard"
        );
        let mut all = true;
        for (cluster, &target) in self.clusters.iter_mut().zip(targets) {
            all &= cluster.run_until_applied(target, max_t);
        }
        all
    }

    /// Per-replica applied-command counts of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn applied(&self, shard: usize) -> Vec<usize> {
        // analysis:allow(panic-safety::index, reason = "the shard number comes from the local caller, never from a peer, and the panic is the documented API contract; the telemetry recorder's same-named applied() event is what put this name on a message path")
        let cluster = &self.clusters[shard];
        cluster.replica_ids().map(|p| cluster.applied(p)).collect()
    }

    /// Operations routed to `shard` so far.
    pub fn ops_routed(&self, shard: usize) -> u64 {
        self.clusters[shard].submitted()
    }

    /// Aggregates the per-shard reports into a cluster-level report.
    pub fn report(&self) -> ClusterReport {
        Self::aggregate(self.clusters.iter().map(Cluster::report))
    }

    /// Stops every shard and aggregates the final per-shard reports (joins
    /// replica threads on thread engines).
    pub fn finish(self) -> ClusterReport {
        Self::aggregate(self.clusters.into_iter().map(Cluster::finish))
    }

    fn aggregate(reports: impl Iterator<Item = ClusterReport>) -> ClusterReport {
        let mut shards = Vec::new();
        let mut totals = Metrics::new(0);
        let mut engine = None;
        let mut consistency = None;
        for report in reports {
            totals.merge(&report.totals);
            engine.get_or_insert(report.engine);
            consistency.get_or_insert(report.consistency);
            for mut shard in report.shards {
                shard.shard = shards.len();
                shards.push(shard);
            }
        }
        ClusterReport {
            engine: engine.expect("a sharded cluster has at least one shard"),
            consistency: consistency.expect("a sharded cluster has at least one shard"),
            shards,
            totals,
        }
    }
}

impl<R: Router> ShardedCluster<KvStore, R> {
    /// Routes a `put key value` to the owning shard at time `at`; returns
    /// the shard it was routed to.
    pub fn put(&mut self, key: &str, value: &str, at: u64) -> usize {
        self.submit_keyed(key, KvStore::put(key, value), at, None)
    }

    /// Routes a `del key` to the owning shard at time `at`; returns the
    /// shard it was routed to.
    pub fn del(&mut self, key: &str, at: u64) -> usize {
        self.submit_keyed(key, KvStore::del(key), at, None)
    }

    /// Routes one operation of a [`KvWorkload`] client mix. The client index
    /// picks the entry replica inside the owning shard, so distinct clients
    /// exercise distinct front ends.
    pub fn submit(&mut self, op: &KvOp) -> usize {
        let command = match &op.value {
            Some(value) => KvStore::put(&op.key, value),
            None => KvStore::del(&op.key),
        };
        self.submit_keyed(&op.key, command, op.at, Some(op.client))
    }

    /// Routes a slice of operations ([`ShardedCluster::submit`] per
    /// operation); returns the owning shard of each, in input order.
    pub fn submit_batch(&mut self, ops: &[KvOp]) -> Vec<usize> {
        ops.iter().map(|op| self.submit(op)).collect()
    }

    /// Routes an entire client mix (one [`ShardedCluster::submit_batch`]
    /// pass).
    pub fn submit_workload(&mut self, workload: &KvWorkload) {
        self.submit_batch(workload.ops());
    }

    /// Reads `key` from replica 0 of the owning shard (a local, eventually
    /// consistent read, as in the Dynamo-style systems the paper cites).
    pub fn get(&self, key: &str) -> Option<String> {
        let shard = self.shard_of_key(key);
        self.clusters
            .get(shard)?
            .state(ProcessId::new(0))
            .and_then(|s| s.get(key).map(str::to_owned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::workload::ZipfMix;
    use ec_sim::{PartitionSpec, ProcessSet, Time};

    #[test]
    fn router_is_deterministic_and_covers_all_shards() {
        let keys: Vec<String> = (0..200).map(|k| format!("key{k}")).collect();
        let shards = 8;
        let mut hits = vec![0usize; shards];
        for key in &keys {
            let s = shard_of(key, shards);
            assert_eq!(s, shard_of(key, shards));
            assert_eq!(s, HashRouter.route(key, shards));
            hits[s] += 1;
        }
        // FNV spreads 200 keys over 8 shards without leaving any empty
        assert!(hits.iter().all(|&h| h > 0), "hits = {hits:?}");
    }

    /// The key → shard mapping is a wire-format guarantee: clients persist
    /// and exchange shard assignments, so the FNV-1a reduction must never
    /// change across versions or platforms. Known-answer vectors, verified
    /// against an independent FNV-1a implementation.
    #[test]
    fn shard_of_matches_pinned_fnv1a_test_vectors() {
        // (key, shards, expected shard); FNV-1a 64-bit offset basis
        // 0xcbf29ce484222325, prime 0x100000001b3.
        let vectors: &[(&str, usize, usize)] = &[
            ("", 8, 5),        // hash = 0xcbf29ce484222325
            ("a", 8, 4),       // hash = 0xaf63dc4c8601ec8c
            ("b", 8, 5),       // hash = 0xaf63df4c8601f1a5
            ("foobar", 8, 0),  // hash = 0x85944171f73967e8
            ("user:42", 8, 2), // hash = 0x6c151ea4dcd221c2
            ("user:42", 4, 2),
            ("user:42", 16, 2),
            ("alice", 4, 3),               // hash = 0x508b2abb65a03907
            ("bob", 4, 0),                 // hash = 0x004d4419134a0a54
            ("k0", 8, 6),                  // hash = 0x08be0e07b562230e
            ("k1", 8, 1),                  // hash = 0x08be0f07b56224c1
            ("the quick brown fox", 8, 2), // hash = 0x59aeb7b40bd8c122
        ];
        for &(key, shards, expected) in vectors {
            assert_eq!(
                shard_of(key, shards),
                expected,
                "shard_of({key:?}, {shards}) drifted from the pinned wire format"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = shard_of("k", 0);
    }

    #[test]
    fn cluster_routes_runs_and_converges() {
        let mut cluster = ShardedKv::new(ShardConfig {
            shards: 3,
            replicas_per_shard: 3,
            ..Default::default()
        });
        assert_eq!(cluster.config.shards, 3);
        assert_eq!(cluster.replicas_per_shard(), 3);
        let mut routed = [0u64; 3];
        for k in 0..12u64 {
            let key = format!("k{k}");
            let shard = cluster.put(&key, &format!("v{k}"), 10 + 5 * k);
            assert_eq!(shard, cluster.shard_of_key(&key));
            routed[shard] += 1;
        }
        cluster.run_until(3_000);
        for k in 0..12u64 {
            let key = format!("k{k}");
            assert_eq!(cluster.get(&key).as_deref(), Some(&*format!("v{k}")));
        }
        let report = cluster.report();
        assert!(report.all_converged());
        assert_eq!(report.total_ops_routed(), 12);
        for (s, shard_report) in report.shards.iter().enumerate() {
            assert_eq!(shard_report.shard, s);
            assert_eq!(shard_report.ops_routed, routed[s]);
            // every replica of the shard applied every op routed to it
            assert!(shard_report.applied.iter().all(|&a| a as u64 == routed[s]));
            assert!(shard_report.snapshots_agree());
        }
        // the aggregate counters cover all shards
        assert!(report.totals.messages_sent > 0);
        assert_eq!(report.totals.sends_per_process.len(), 9);
    }

    #[test]
    fn deletes_are_routed_to_the_owning_shard() {
        let mut cluster = ShardedKv::new(ShardConfig {
            shards: 2,
            replicas_per_shard: 2,
            ..Default::default()
        });
        cluster.put("gone", "soon", 10);
        cluster.del("gone", 50);
        cluster.run_until(2_000);
        assert_eq!(cluster.get("gone"), None);
        assert_eq!(cluster.report().total_ops_routed(), 2);
    }

    #[test]
    fn zipf_workload_runs_end_to_end_with_batching() {
        let workload = KvWorkload::zipf(ZipfMix {
            keys: 24,
            ops: 60,
            clients: 6,
            ..Default::default()
        });
        let mut cluster = ShardedKv::new(ShardConfig {
            shards: 4,
            replicas_per_shard: 3,
            etob: EtobConfig::batched(8),
            ..Default::default()
        });
        cluster.submit_workload(&workload);
        cluster.run_until(workload.last_submission_time() + 2_000);
        let report = cluster.report();
        assert!(report.all_converged());
        let finished = report.converged_at().expect("all shards converged");
        assert!(finished.as_u64() >= workload.ops()[0].at);
        assert_eq!(report.total_ops_routed(), 60);
        // every shard applied exactly what was routed to it, on every replica
        for s in report.shards {
            assert!(s.applied.iter().all(|&a| a as u64 == s.ops_routed));
        }
    }

    #[test]
    fn partitioning_one_shard_delays_only_that_shard() {
        let base = ShardConfig {
            shards: 3,
            replicas_per_shard: 3,
            ..Default::default()
        };
        let isolated: ProcessSet = [0].into_iter().collect();
        let partitioned_net = NetworkModel::fixed_delay(2).with_partition(
            Time::new(5),
            Time::new(1_500),
            PartitionSpec::isolate(isolated, 3),
        );
        let mut cluster = ShardedKv::builder(base)
            .shard_network(1, partitioned_net)
            .build();
        // ops entering through replica 1 (connected side)
        for shard in 0..3 {
            for k in 0..20u64 {
                let key = format!("s{shard}-{k}");
                if cluster.shard_of_key(&key) == shard {
                    cluster.submit(&KvOp {
                        client: 1,
                        at: 20 + 10 * k,
                        key,
                        value: Some("v".into()),
                    });
                }
            }
        }
        cluster.run_until(1_000); // probe while shard 1 is partitioned
        let report = cluster.report();
        for s in [0usize, 2] {
            assert!(
                report.shards[s].is_converged(),
                "unaffected shard {s} must be converged: {:?}",
                report.shards[s]
            );
        }
        // the isolated replica of shard 1 lags behind its shard's routed ops
        let lagging = cluster.applied(1)[0];
        assert!(
            (lagging as u64) < cluster.ops_routed(1),
            "isolated replica should lag"
        );
        // after the heal the affected shard converges too
        cluster.run_until(4_000);
        assert!(cluster.report().all_converged());
    }

    #[test]
    fn custom_routers_and_state_machines_plug_in() {
        /// Routes by key length instead of hash.
        #[derive(Debug)]
        struct LengthRouter;
        impl Router for LengthRouter {
            fn route(&self, key: &str, shards: usize) -> usize {
                key.len() % shards
            }
        }

        use crate::state_machine::Counter;
        let mut cluster: ShardedCluster<Counter, LengthRouter> =
            ShardedClusterBuilder::<Counter>::new(ShardConfig {
                shards: 2,
                replicas_per_shard: 2,
                ..Default::default()
            })
            .router(LengthRouter)
            .build();
        assert_eq!(cluster.shard_of_key("ab"), 0);
        assert_eq!(cluster.shard_of_key("abc"), 1);
        cluster.submit_keyed("ab", Counter::add(2), 10, None);
        cluster.submit_keyed("abc", Counter::add(3), 10, None);
        cluster.run_until(2_000);
        let even = cluster.cluster(0).state(ProcessId::new(0)).unwrap();
        let odd = cluster.cluster(1).state(ProcessId::new(0)).unwrap();
        assert_eq!(even.value(), 2);
        assert_eq!(odd.value(), 3);
        assert_eq!(cluster.report().total_applied(), 4);
    }

    /// Entry-replica fairness: the round-robin pointer moves past every
    /// replica actually used, including explicitly chosen ones. The full
    /// dispatch sequence is pinned — under the old behavior (pointer
    /// advanced only on the round-robin arm) the same script dispatched
    /// [0, 2, 1, 2, 0, 0], double-loading replica 0 after each explicit
    /// entry.
    #[test]
    fn round_robin_entry_interleaves_fairly_with_explicit_clients() {
        let mut cluster = ShardedKv::new(ShardConfig {
            shards: 1,
            replicas_per_shard: 3,
            ..Default::default()
        });
        let script: [Option<usize>; 6] = [None, Some(2), None, None, Some(0), None];
        for (k, client) in script.iter().enumerate() {
            cluster.submit_keyed(
                "k",
                KvStore::put("k", &format!("v{k}")),
                10 + 10 * k as u64,
                *client,
            );
        }
        cluster.run_until(2_000);
        let delivered = cluster
            .cluster(0)
            .delivered(ProcessId::new(0))
            .expect("sim replicas expose the delivered sequence");
        let entries: Vec<usize> = delivered.iter().map(|m| m.id.origin.index()).collect();
        assert_eq!(entries, vec![0, 2, 0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "no such shard")]
    fn shard_network_override_checks_bounds() {
        let _ = ShardedKv::builder(ShardConfig::default())
            .shard_network(99, NetworkModel::fixed_delay(1));
    }

    #[test]
    #[should_panic(expected = "apply only to build()")]
    fn build_with_rejects_silently_dropped_network_overrides() {
        let _ = ShardedKv::builder(ShardConfig::default())
            .shard_network(0, NetworkModel::fixed_delay(9))
            .build_with(|_| SimEngine::new());
    }

    #[test]
    fn build_with_plugs_in_custom_engines_per_shard() {
        let mut cluster = ShardedKv::builder(ShardConfig {
            shards: 2,
            replicas_per_shard: 2,
            ..Default::default()
        })
        .build_with(|s| SimEngine::new().seed(100 + s as u64));
        cluster.put("a", "1", 10);
        cluster.put("b", "2", 10);
        cluster.run_until(2_000);
        assert_eq!(cluster.get("a").as_deref(), Some("1"));
        assert_eq!(cluster.get("b").as_deref(), Some("2"));
        assert!(cluster.report().all_converged());
    }
}
