//! Deterministic allocation and memory budgets for the per-operation path.
//!
//! A counting global allocator (this test binary only) tallies, per thread,
//! the allocations made, the bytes they request and the bytes still live
//! (allocated minus freed) while a sim cluster runs on the test's own
//! thread. The simulator is deterministic, so every count is too.
//!
//! * **Steady state:** three replicas, `batched(5).with_compaction(64)`, one
//!   client session per replica, puts over 64 keys with 8-byte values, one
//!   per tick — 2 000 operations of warm-up, then 10 000 measured. It fails
//!   above [`BUDGET`] allocations or [`BYTES_BUDGET`] bytes requested per
//!   measured operation. What the count covers is everything an operation
//!   costs the program: submit, broadcast, promotion, delivery, apply,
//!   outputs and telemetry. The shape measures ≈ 9.3 allocations and
//!   ≈ 1.4 KB requested per operation. An overwrite of an existing key
//!   allocates nothing in the store, and no output encodes the state; a
//!   change that brings either back (≈ 12 and ≈ 4.4 allocations per
//!   operation) fails here, and so does a digest that allocates per origin
//!   again (≈ +5.9), a send that allocates its delivery times (≈ +1.7), or
//!   the causal graph and candidate set as ordered maps again, with a set
//!   per promote check (≈ 10.6 allocations and ≈ 1.8 KB). A second copy of
//!   every message's causal edges (≈ +1.3 KB requested per operation)
//!   fails the byte budget.
//! * **Retained history:** the same cluster with the default, uncompacted
//!   configuration keeps every operation it delivered; after
//!   [`HISTORY`] puts it may hold at most [`RETAINED_BUDGET`] live bytes
//!   per operation (≈ 1.16 KB; ≈ 1.3 KB with the graph as an ordered map,
//!   ≈ 2.6 KB with a second copy of the edges).
//!
//! CI's `perf-smoke` job runs this file with `--nocapture` and prints the
//! measured numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, KvStore, ReplicaCommand, Session, SimEngine};

/// Allocations per measured operation the steady-state shape may make.
const BUDGET: f64 = 10.0;
/// Bytes requested per measured operation the steady-state shape may make.
const BYTES_BUDGET: f64 = 1_500.0;
/// Live bytes per operation an uncompacted cluster may retain.
const RETAINED_BUDGET: f64 = 1_250.0;

const REPLICAS: usize = 3;
const KEYS: u64 = 64;
const WARMUP: usize = 2_000;
const MEASURED: usize = 10_000;
const SLICE: usize = 1_000;
const HISTORY: usize = 8_000;

/// What this thread's allocator calls have done so far.
#[derive(Clone, Copy)]
struct Tally {
    /// Allocation and reallocation calls.
    calls: u64,
    /// Bytes those calls requested.
    requested: u64,
    /// Bytes allocated minus bytes freed; negative if the thread freed
    /// memory another thread allocated.
    live: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            calls: 0,
            requested: 0,
            live: 0,
        })
    };
}

fn note(calls: u64, requested: usize, live: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down
    let _ = TALLY.try_with(|t| {
        let old = t.get();
        t.set(Tally {
            calls: old.calls + calls,
            requested: old.requested + requested as u64,
            live: old.live + live,
        });
    });
}

/// The system allocator, counting every allocation, reallocation and free.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; counting
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), layout.size() as i64);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), layout.size() as i64);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// Puts with seeded keys and 8-byte values (SplitMix64), generated lazily.
fn puts() -> impl Iterator<Item = ReplicaCommand> {
    let mut state = 7u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    std::iter::repeat_with(move || {
        let key = format!("k{}", next() % KEYS);
        let value = format!("{:08x}", next() as u32);
        ReplicaCommand::new(KvStore::put(&key, &value))
    })
}

/// A sim cluster of [`REPLICAS`] with one client session per replica.
fn cluster_with_sessions(etob: EtobConfig) -> (Cluster<KvStore>, Vec<Session>) {
    let cluster: Cluster<KvStore> = ClusterBuilder::new(REPLICAS)
        .etob(etob)
        .deploy(&SimEngine::new());
    let sessions = cluster
        .replica_ids()
        .map(|p| cluster.session_at(p))
        .collect();
    (cluster, sessions)
}

#[test]
fn steady_state_operations_stay_within_the_allocation_budget() {
    // generated up front: building the commands is the client's cost
    let commands: Vec<ReplicaCommand> = puts().take(WARMUP + MEASURED).collect();
    let mut ops = commands.into_iter();
    let (mut cluster, mut sessions) =
        cluster_with_sessions(EtobConfig::batched(5).with_compaction(64));
    let mut tick = 10;
    let mut index = 0;
    let mut submit = |cluster: &mut Cluster<KvStore>, command: ReplicaCommand, tick: u64| {
        cluster.submit(&mut sessions[index % REPLICAS], command, tick);
        index += 1;
    };
    for command in ops.by_ref().take(WARMUP) {
        submit(&mut cluster, command, tick);
        tick += 1;
    }
    assert!(cluster.run_until_applied(WARMUP, tick + 100_000));
    tick = tick.max(cluster.clock() + 1);

    let before = tally();
    for _ in 0..MEASURED / SLICE {
        for command in ops.by_ref().take(SLICE) {
            submit(&mut cluster, command, tick);
            tick += 1;
        }
        cluster.run_until(tick);
    }
    let total = WARMUP + MEASURED;
    assert!(cluster.run_until_applied(total, tick + 100_000));
    let after = tally();

    let per_op = (after.calls - before.calls) as f64 / MEASURED as f64;
    let bytes_per_op = (after.requested - before.requested) as f64 / MEASURED as f64;
    println!(
        "allocations per operation: {per_op:.2} (budget {BUDGET}), \
         {bytes_per_op:.0} B requested (budget {BYTES_BUDGET})"
    );
    assert!(
        per_op <= BUDGET,
        "{per_op:.2} allocations per operation, budget {BUDGET}"
    );
    assert!(
        bytes_per_op <= BYTES_BUDGET,
        "{bytes_per_op:.0} B requested per operation, budget {BYTES_BUDGET}"
    );
}

#[test]
fn an_uncompacted_history_retains_at_most_its_memory_budget() {
    let before = tally();
    let (mut cluster, mut sessions) = cluster_with_sessions(EtobConfig::default());
    for (index, command) in puts().take(HISTORY).enumerate() {
        let tick = 10 + index as u64;
        cluster.submit(&mut sessions[index % REPLICAS], command, tick);
    }
    assert!(cluster.run_until_applied(HISTORY, 10 + HISTORY as u64 + 100_000));
    let after = tally();
    let retained_per_op = (after.live - before.live) as f64 / HISTORY as f64;
    println!("live bytes retained per operation: {retained_per_op:.0}, budget {RETAINED_BUDGET}");
    assert!(
        retained_per_op <= RETAINED_BUDGET,
        "{retained_per_op:.0} live bytes per operation, budget {RETAINED_BUDGET}"
    );
}
