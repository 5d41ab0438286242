//! A deterministic allocation budget for the per-operation path.
//!
//! A counting global allocator (this test binary only) tallies the
//! allocations made on the test's own thread while a steady-state sim
//! cluster runs: three replicas, `batched(5).with_compaction(64)`, one
//! client session per replica, puts over 64 keys with 8-byte values, one
//! per tick — 2 000 operations of warm-up, then 10 000 measured. The
//! simulator is deterministic, so the count is too; it fails above
//! [`BUDGET`] allocations per measured operation.
//!
//! What the count covers is everything an operation costs the program:
//! submit, broadcast, promotion, delivery, apply, outputs and telemetry.
//! An overwrite of an existing key allocates nothing in the store, and no
//! output encodes the state; a change that brings either back (≈ 12 and
//! ≈ 4.4 allocations per operation on this shape, over ≈ 18.8) fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, KvStore, ReplicaCommand, Session, SimEngine};

/// Allocations per measured operation this shape may make.
const BUDGET: f64 = 22.0;

const REPLICAS: usize = 3;
const KEYS: u64 = 64;
const WARMUP: usize = 2_000;
const MEASURED: usize = 10_000;
const SLICE: usize = 1_000;

thread_local! {
    /// Allocation calls and bytes requested on this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down
    let _ = ALLOCATED.try_with(|a| {
        let (calls, total) = a.get();
        a.set((calls + 1, total + bytes as u64));
    });
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; counting
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocated() -> (u64, u64) {
    ALLOCATED.with(Cell::get)
}

/// `count` puts with seeded keys and 8-byte values (SplitMix64).
fn puts(count: usize) -> Vec<ReplicaCommand> {
    let mut state = 7u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let key = format!("k{}", next() % KEYS);
            let value = format!("{:08x}", next() as u32);
            ReplicaCommand::new(KvStore::put(&key, &value))
        })
        .collect()
}

#[test]
fn steady_state_operations_stay_within_the_allocation_budget() {
    let mut ops = puts(WARMUP + MEASURED).into_iter();
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(REPLICAS)
        .etob(EtobConfig::batched(5).with_compaction(64))
        .deploy(&SimEngine::new());
    let mut sessions: Vec<Session> = cluster
        .replica_ids()
        .map(|p| cluster.session_at(p))
        .collect();
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

    let before = allocated();
    for _ in 0..MEASURED / SLICE {
        for command in ops.by_ref().take(SLICE) {
            submit(&mut cluster, command, tick);
            tick += 1;
        }
        cluster.run_until(tick);
    }
    let total = WARMUP + MEASURED;
    assert!(cluster.run_until_applied(total, tick + 100_000));
    let after = allocated();

    let per_op = (after.0 - before.0) as f64 / MEASURED as f64;
    let bytes_per_op = (after.1 - before.1) as f64 / MEASURED as f64;
    println!(
        "allocations per operation: {per_op:.2} ({bytes_per_op:.0} B requested), budget {BUDGET}"
    );
    assert!(
        per_op <= BUDGET,
        "{per_op:.2} allocations per operation, budget {BUDGET}"
    );
}
