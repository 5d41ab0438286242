//! The real-time node loop keeps its tick under load, and needs no tick at
//! idle — on both engines.
//!
//! Everything Algorithm 5 does on a clock (promote, batch flush, resend,
//! the heartbeat Ω) counts `on_timer` calls, so a tick that stretches when
//! the inbox is busy stretches delivery latency and failover with it. The
//! loop used to fire only when a receive *timed out*: at 800 op/s a node
//! fired ≈ 35 times a second instead of 200. With the deadline-driven
//! [`ec_runtime::Pacer`] the tick is due on schedule whatever arrives — and
//! since there is one loop, one body checks it over channels and over TCP.
//!
//! The other half: what a node holds back to coalesce leaves when its inbox
//! runs dry, not at the next deadline, so an operation on a quiet cluster
//! is delivered in Algorithm 5's two communication steps with every
//! protocol timer seconds away.

use std::time::{Duration, Instant};

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, Engine, KvStore, NetEngine, ThreadEngine};
use ec_runtime::RuntimeConfig;

fn nodes_keep_their_tick_under_sustained_submit_load<E: Engine>(engine: &E) {
    const N: usize = 3;
    const OPS: u64 = 1_000;
    let deployed = Instant::now();
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(N)
        .etob(EtobConfig::batched(5).with_resend(20))
        .deploy(engine);
    let mut sessions: Vec<_> = (0..N).map(|_| cluster.session()).collect();
    // the facade paces `at` against the wall clock at 1 ms per facade tick:
    // one put per millisecond, round-robin over the entry replicas, is
    // 1000 op/s for a second — an event every ~0.3 ms at each node, far
    // below the 5 ms tick
    for k in 0..OPS {
        let session = &mut sessions[(k % N as u64) as usize];
        cluster.submit(session, KvStore::put(&format!("k{}", k % 64), "v"), k);
    }
    // read the counter first: the wall clock has reached at least OPS ms
    // by now, so `nominal` is a lower bound on the ticks that came due
    let fires_per_node = cluster.metrics().timer_fires as f64 / N as f64;
    let elapsed_ms = deployed.elapsed().as_millis() as f64;
    assert!(
        elapsed_ms < 1.25 * OPS as f64,
        "the generator itself fell behind: {OPS} ops took {elapsed_ms} ms"
    );
    let tick_ms = RuntimeConfig::default().tick.as_millis() as f64;
    let nominal = OPS as f64 / tick_ms;
    assert!(
        cluster.run_until_applied(OPS as usize, 30_000),
        "the load itself was not applied"
    );
    let report = cluster.finish();
    assert!(report.shards[0].snapshots_agree());
    // before the pacer: < 0.2 of nominal; the floor leaves a busy CI box
    // its slack
    assert!(
        fires_per_node >= 0.6 * nominal,
        "{fires_per_node} fires per node in {OPS} ms, nominal {nominal}"
    );
    // missed ticks are skipped, never replayed in a burst
    assert!(
        fires_per_node <= elapsed_ms / tick_ms + 1.0,
        "{fires_per_node} fires per node in {elapsed_ms} ms: ticks replayed in a burst"
    );
}

#[test]
fn thread_nodes_keep_their_tick_under_sustained_submit_load() {
    nodes_keep_their_tick_under_sustained_submit_load(&ThreadEngine::new());
}

#[test]
fn net_nodes_keep_their_tick_under_sustained_submit_load() {
    nodes_keep_their_tick_under_sustained_submit_load(&NetEngine::new());
}

fn delivery_needs_no_tick<E: Engine>(engine: &E) {
    // every protocol deadline — flush, promote — is 1000 ticks (5 s of
    // wall clock) away; before flush-on-drain the put waited for both
    let etob = EtobConfig {
        batch: 1_000,
        promote_period: 1_000,
        ..EtobConfig::batched(1_000)
    };
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(3).etob(etob).deploy(engine);
    let mut session = cluster.session();
    let submitted = Instant::now();
    cluster.submit(&mut session, KvStore::put("k", "v"), 0);
    // facade time is milliseconds since launch, which came first
    let applied = cluster.run_until_applied(1, 1_000);
    let took = submitted.elapsed();
    assert!(applied, "not applied everywhere within 1 s");
    assert!(took < Duration::from_secs(1), "{took:?}");
    assert!(cluster.finish().shards[0].snapshots_agree());
}

#[test]
fn thread_delivery_needs_no_tick() {
    delivery_needs_no_tick(&ThreadEngine::new());
}

#[test]
fn net_delivery_needs_no_tick() {
    delivery_needs_no_tick(&NetEngine::new());
}
