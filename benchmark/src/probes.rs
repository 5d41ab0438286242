//! Outside-in layer probes: each drives one layer's public functions in
//! isolation, with inputs taken from the workload (its operations, its final
//! state, its record sizes), and reports the median time per call. They run
//! in the traced invocation only and never feed an end-to-end metric.

use std::path::Path;
use std::time::Instant;

use ec_replication::{DurableOptions, DurableStore, KvStore, ReplicaCommand, StateMachine};
use ec_storage::{RecordLog, SnapshotStore};
use ec_telemetry::{Recorder, TimeSource, FLIGHT_CAPACITY};

use crate::lockstep::{self, Config};
use crate::report::RunResult;
use crate::spans::Tracer;
use crate::stats::median;
use crate::Options;

/// Spans written to a trace file at most (the summary covers all of them).
const MAX_SPANS_WRITTEN: usize = 20_000;

/// Median nanoseconds per call of `batch` back-to-back calls, over
/// `repeats` batches. Batching keeps the clock reads (≈ 25 ns each) out of
/// sub-microsecond calls.
fn ns_per_call(repeats: usize, batch: usize, mut call: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|r| {
            let started = Instant::now();
            for i in 0..batch {
                call(r * batch + i);
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// What the replays hand back to the workload.
#[derive(Clone, Copy, Debug)]
pub struct Replayed {
    /// Time inside `Replica` handlers per operation, untraced-equivalent
    /// (span time of the traced run).
    pub handler_ns_per_op: f64,
}

/// Runs the lock-step replay of `ops` twice — untraced, then traced — and
/// fills the `core.`, `codec.`, `durable.record_tail/checkpoint` and
/// `trace.` metrics; writes the trace file; gates on replica agreement.
pub fn replay_layers(
    workload: &str,
    ops: &[ReplicaCommand],
    config: &Config,
    options: &Options,
    result: &mut RunResult,
) -> Replayed {
    let plain = lockstep::replay(ops, config, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = lockstep::replay(ops, config, &mut tracer);
    let same = (
        plain.msgs,
        plain.encoded_bytes,
        plain.ticks,
        &plain.delivered_hash,
    ) == (
        traced.msgs,
        traced.encoded_bytes,
        traced.ticks,
        &traced.delivered_hash,
    );
    result
        .verdict
        .expect(plain.agrees() && traced.agrees() && same, || {
            "lock-step replay: replicas disagree, or tracing changed the run".to_string()
        });

    let layers = tracer.layer_times();
    let n = ops.len().max(1) as f64;
    let time = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let median_ns = |name: &str| median(&time(name).durations_ns);
    result.layer("core.on_input_ns", median_ns("core.on_input"));
    result.layer("core.on_message_ns", median_ns("core.on_message"));
    result.layer("core.on_timer_ns", median_ns("core.on_timer"));
    let handlers = [
        "core.on_start",
        "core.on_input",
        "core.on_message",
        "core.on_timer",
    ];
    let handler_self: u64 = handlers.iter().map(|h| time(h).self_ns).sum();
    result.layer("core.self_ns_per_op", handler_self as f64 / n);
    result.layer("core.handler_calls_per_op", traced.handler_calls as f64 / n);
    result.layer("core.msgs_per_op", traced.msgs as f64 / n);
    result.layer("core.updates_per_op", traced.updates as f64 / n);
    result.layer("core.wire_bytes_per_op", traced.modelled_bytes as f64 / n);
    result.layer("core.compactions", traced.compactions as f64);
    result.layer("core.sync_pulls", traced.sync_pulls as f64);
    result.layer("core.resident_entries_peak", traced.resident_peak as f64);

    let msgs = traced.msgs.max(1) as f64;
    let encode = time("codec.encode");
    let decode = time("codec.decode");
    result.layer(
        "codec.encode_ns_per_msg",
        encode.busy_ns as f64 / encode.calls.max(1) as f64,
    );
    result.layer(
        "codec.decode_ns_per_msg",
        decode.busy_ns as f64 / decode.calls.max(1) as f64,
    );
    result.layer("codec.bytes_per_msg", traced.encoded_bytes as f64 / msgs);

    // logical ticks of a deterministic replay: these repeat exactly
    let t = &traced.telemetry;
    result.layer(
        "telemetry.submit_deliver_p50_ticks",
        t.submit_deliver.quantile(500) as f64,
    );
    result.layer(
        "telemetry.submit_deliver_p99_ticks",
        t.submit_deliver.quantile(990) as f64,
    );
    result.layer(
        "telemetry.stability_lag_p50_ticks",
        t.stability_lag.quantile(500) as f64,
    );
    result.layer("telemetry.events_per_op", t.events_recorded as f64 / n);

    if config.durable_dir.is_some() {
        result.layer("durable.record_tail_ns", median_ns("durable.record_tail"));
        result.layer("durable.checkpoint_ns", median_ns("durable.checkpoint"));
    }

    let overhead = (traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0;
    result.layer("trace.overhead_pct", overhead);
    result.layer("trace.spans", tracer.spans().len() as f64);
    let path = options.out_dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload, MAX_SPANS_WRITTEN).encode()));
    match written {
        Ok(()) => result.notes.push(format!(
            "trace: {} spans over {} replayed ops ({} written to {})",
            tracer.spans().len(),
            ops.len(),
            tracer.spans().len().min(MAX_SPANS_WRITTEN),
            path.display()
        )),
        Err(e) => result.notes.push(format!("trace file not written: {e}")),
    }
    result.notes.push(format!(
        "lock-step replay: {} ops, untraced {:.3} s, traced {:.3} s",
        ops.len(),
        plain.wall.as_secs_f64(),
        traced.wall.as_secs_f64()
    ));
    Replayed {
        handler_ns_per_op: handler_self as f64 / n,
    }
}

/// `StateMachine::apply` / `snapshot` on the workload's final state, with
/// the workload's own commands.
pub fn state_machine(final_snapshot: &[u8], ops: &[ReplicaCommand], result: &mut RunResult) {
    let Some(mut store) = KvStore::from_snapshot(final_snapshot) else {
        return;
    };
    if ops.is_empty() {
        return;
    }
    let apply = ns_per_call(21, 2_000, |i| {
        store.apply(&ops[i % ops.len()].command);
    });
    let mut bytes = 0usize;
    let snapshot = ns_per_call(21, 50, |_| {
        bytes = std::hint::black_box(store.snapshot()).len();
    });
    result.layer("replication.apply_ns", apply);
    result.layer("replication.snapshot_ns", snapshot);
    result.layer("replication.snapshot_bytes", bytes as f64);
}

/// The recorder's cost per lifecycle event: one message walked through
/// submit → admit → promote → deliver → applied, as the automaton does.
pub fn telemetry_record(result: &mut RunResult) {
    let mut recorder = Recorder::new(0, TimeSource::Logical, FLIGHT_CAPACITY);
    let per_message = ns_per_call(21, 2_000, |i| {
        let seq = i as u64 + 1;
        recorder.set_tick(seq);
        recorder.submitted(0, seq);
        recorder.admitted(0, seq);
        recorder.promoted(0, seq);
        recorder.set_tick(seq + 7);
        recorder.delivered(0, seq);
        recorder.applied(0, seq);
    });
    std::hint::black_box(recorder.report());
    result.layer("telemetry.record_ns", per_message / 5.0);
}

/// `RecordLog` and `SnapshotStore` driven directly in `dir`, with records
/// of `record_len` bytes and snapshots of `snapshot_len` bytes.
pub fn storage(dir: &Path, record_len: usize, snapshot_len: usize, result: &mut RunResult) {
    let _ = std::fs::remove_dir_all(dir);
    if std::fs::create_dir_all(dir).is_err() {
        result.notes.push(format!(
            "storage probes skipped: cannot create {}",
            dir.display()
        ));
        return;
    }
    let record = vec![0x5au8; record_len.max(1)];
    let log_path = dir.join("probe.eclog");
    let Ok((mut log, _)) = RecordLog::open(&log_path) else {
        result
            .notes
            .push("storage probes skipped: cannot open a record log".into());
        return;
    };
    let append = ns_per_call(15, 64, |_| {
        let _ = log.append(&record);
    });
    // a sync is only meaningful with something to flush: append first,
    // time the sync alone
    let sync_samples: Vec<f64> = (0..15)
        .map(|_| {
            let _ = log.append(&record);
            let started = Instant::now();
            let _ = log.sync();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    drop(log);
    // the rewrite a checkpoint does: Base + an 8-entry tail
    let bodies: Vec<&[u8]> = std::iter::repeat_n(record.as_slice(), 9).collect();
    let rewrite = ns_per_call(15, 1, |_| {
        let _ = RecordLog::rewrite(&log_path, bodies.iter().copied());
    });
    let body = vec![0xa5u8; snapshot_len.max(1)];
    let mut next_id = 1u64;
    let publish = match SnapshotStore::open(dir.join("snapshots"), 3) {
        Ok(mut store) => ns_per_call(15, 1, |_| {
            let _ = store.publish(next_id, &body);
            next_id += 1;
        }),
        Err(_) => 0.0,
    };
    result.layer("storage.append_ns", append);
    result.layer("storage.sync_ns", median(&sync_samples));
    result.layer("storage.rewrite_ns", rewrite);
    result.layer("storage.snapshot_publish_ns", publish);
    let _ = std::fs::remove_dir_all(dir);
}

/// Re-opens the replica directory a durable workload left behind:
/// `DurableStore::open` = scan + hash-linkage check + canonical rewrite (the
/// workload's own gate has already compared what it recovers).
pub fn durable_recover(replica_dir: &Path, result: &mut RunResult) {
    let options = DurableOptions::new(replica_dir);
    let open = ns_per_call(5, 1, |_| {
        let _ = std::hint::black_box(DurableStore::open(&options));
    });
    result.layer("durable.open_recover_ns", open);
}

/// The heartbeat Ω module on its own: how many `on_timer` activations a
/// survivor needs, after the leader's last heartbeat, before it stops
/// trusting the leader. The node loop fires one per timer tick, so this
/// count times the *effective* tick length is the floor of the failover
/// stall.
pub fn detector(result: &mut RunResult) {
    use ec_detectors::{HeartbeatMsg, HeartbeatOmega};
    use ec_sim::{Actions, Algorithm, Context, ProcessId, Time};
    let config = ec_runtime::RuntimeConfig::default().heartbeat;
    let (me, n) = (ProcessId::new(1), 3);
    let mut omega = HeartbeatOmega::new(me, n, config);
    let mut tick = 0u64;
    let mut activate = |omega: &mut HeartbeatOmega, heard: &[usize]| {
        let mut actions = Actions::<HeartbeatOmega>::new();
        let mut ctx = Context::new(me, Time::new(tick), n, (), &mut actions);
        for from in heard {
            omega.on_message(ProcessId::new(*from), HeartbeatMsg::Heartbeat, &mut ctx);
        }
        omega.on_timer(&mut ctx);
        tick += 1;
    };
    for _ in 0..20 {
        activate(&mut omega, &[0, 2]);
    }
    let mut timers = 0u64;
    while omega.leader() == ProcessId::new(0) && timers < 10_000 {
        activate(&mut omega, &[2]);
        timers += 1;
    }
    result.layer("detectors.suspect_after_timers", timers as f64);
}
