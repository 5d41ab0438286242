//! Durable replica state: a per-replica record log plus snapshot store
//! ([`ec_storage`]) under a typed facade, so a crashed node rejoins from
//! disk and uses anti-entropy only for the suffix it missed.
//!
//! ## On-disk layout
//!
//! Each replica owns one directory (`<cluster dir>/<replica index>/`):
//!
//! ```text
//! replica.eclog       append-only record log (ec-storage RecordLog)
//! snapshots/          atomic checkpoint store (ec-storage SnapshotStore)
//! ```
//!
//! ## Log records
//!
//! Every log record body is one tagged structure (total decoding — corrupt
//! bodies end replay, they never panic):
//!
//! ```text
//! Base     := 0 base:u64 hash:u64     the absolute index the entries that
//!                                     follow extend, plus the rolling
//!                                     identifier hash of everything below it
//! Entry    := 1 AppMessage            one delivered entry, in order
//! Truncate := 2 to:u64                the delivered suffix from absolute
//!                                     index `to` was reordered; discard it
//! OwnSeq   := 3 seq:u64               high-water mark of locally assigned
//!                                     sequence numbers (id-reuse guard)
//! ```
//!
//! `Truncate` exists because an *eventual* total order may reorder its
//! uncommitted suffix: the log mirrors the current delivered sequence, not
//! a grow-only history.
//!
//! ## Checkpoints
//!
//! A checkpoint costs what changed since the last one. While the log's
//! `Base` is one recovery already links — the newest snapshot on disk is at
//! exactly that `(base, hash)`, or there is none and the base is 0, which
//! is every checkpoint of an uncompacted replica — it appends an `OwnSeq`
//! mark if the high-water mark grew and `fdatasync`s the log: one sync,
//! no snapshot, no rewrite.
//!
//! Otherwise — a fold moved the base, or a re-anchor wrote a `Base` no
//! snapshot vouches for — it publishes one snapshot (`base`, `hash`, the
//! compacted identifier frontier, the state-machine snapshot at `base`, and
//! the own-sequence high-water mark), then atomically rewrites the log down
//! to `Base` + the resident tail. The same rewrite runs when the log holds
//! more than twice the records a rewrite would write (dead `Truncate`d
//! entries, superseded `OwnSeq` marks), so the log stays within a constant
//! factor of its live size, the way `Vec` doubling bounds its slack.
//!
//! Recovery composes the newest valid snapshot with the log tail, verifying
//! the **hash linkage** between them: log entries below the snapshot's base
//! must hash (from the log's base hash) to exactly the snapshot's hash,
//! otherwise the log is distrusted and recovery falls back to the snapshot
//! alone.
//!
//! ## Failure policy
//!
//! Appends are plain `write(2)` calls (they survive a process kill); every
//! checkpoint forces them to the platter, so a power loss costs at most the
//! entries logged since the last one. Any I/O error flips the store into a
//! **degraded** mode that stops persisting but never panics and never
//! disturbs the in-memory replica — durability is best-effort by design,
//! correctness never depends on it.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ec_core::types::{seq_hash_step, AppMessage, MsgId, SEQ_HASH_SEED};
use ec_core::VersionVector;
use ec_storage::codec::{push_bytes, push_u64};
use ec_storage::{
    DecodeError, LogError, Reader, RecordLog, SnapshotError, SnapshotStore, WireCodec,
};

/// Durability configuration for one replica group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableOptions {
    /// Root directory; each replica persists under `<dir>/<replica index>/`.
    pub dir: PathBuf,
    /// Checkpoint after this many newly logged entries (clamped to ≥ 1).
    /// A checkpoint is one `fdatasync` of the log, plus a snapshot and a
    /// log rewrite only when the base moved (see the module docs).
    pub checkpoint_every: usize,
}

/// Snapshots retained per replica: the newest, and two to fall back on if it
/// does not read back.
const KEEP_SNAPSHOTS: usize = 3;

impl DurableOptions {
    /// Options rooted at `dir` with the default cadence (checkpoint every 8
    /// entries).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            checkpoint_every: 8,
        }
    }

    /// Sets the checkpoint cadence (entries between checkpoints).
    pub fn checkpoint_every(mut self, entries: usize) -> Self {
        self.checkpoint_every = entries;
        self
    }

    /// The same options scoped to one replica's subdirectory.
    pub fn for_replica(&self, index: usize) -> DurableOptions {
        DurableOptions {
            dir: self.dir.join(index.to_string()),
            checkpoint_every: self.checkpoint_every,
        }
    }
}

/// Why a durable store could not be opened.
#[derive(Debug)]
pub enum DurableError {
    /// The record log failed to open or rewrite.
    Log(LogError),
    /// The snapshot store failed to open or read.
    Snapshot(SnapshotError),
    /// The replica directory could not be created.
    Io(io::Error),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Log(e) => write!(f, "durable log error: {e}"),
            DurableError::Snapshot(e) => write!(f, "durable snapshot error: {e}"),
            DurableError::Io(e) => write!(f, "durable directory error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Log(e) => Some(e),
            DurableError::Snapshot(e) => Some(e),
            DurableError::Io(e) => Some(e),
        }
    }
}

impl From<LogError> for DurableError {
    fn from(e: LogError) -> Self {
        DurableError::Log(e)
    }
}

impl From<SnapshotError> for DurableError {
    fn from(e: SnapshotError) -> Self {
        DurableError::Snapshot(e)
    }
}

/// Everything recovered from disk when a durable store opens: the checkpoint
/// triple (`base`, `hash`, `frontier`), the state-machine snapshot bytes at
/// `base`, the delivered tail beyond it, and the own-sequence high-water
/// mark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovered {
    /// Absolute number of delivered entries folded below the checkpoint.
    pub base: u64,
    /// Rolling identifier hash of those `base` entries
    /// ([`SEQ_HASH_SEED`]-seeded).
    pub hash: u64,
    /// Exact identifier digest of the folded prefix.
    pub frontier: VersionVector,
    /// State-machine snapshot at `base` (empty when `base == 0`).
    pub state: Vec<u8>,
    /// Delivered entries beyond `base`, in order.
    pub tail: Vec<AppMessage>,
    /// Highest locally assigned sequence number ever recorded.
    pub own_seq: u64,
}

/// File name of the per-replica record log.
pub const LOG_FILE: &str = "replica.eclog";
/// Subdirectory holding the per-replica snapshots.
pub const SNAPSHOT_DIR: &str = "snapshots";

const REC_BASE: u8 = 0;
const REC_ENTRY: u8 = 1;
const REC_TRUNCATE: u8 = 2;
const REC_OWN_SEQ: u8 = 3;

/// One decoded log record.
#[derive(Clone, Debug, PartialEq, Eq)]
enum LogRecord {
    Base { base: u64, hash: u64 },
    Entry(AppMessage),
    Truncate { to: u64 },
    OwnSeq(u64),
}

fn encode_base(base: u64, hash: u64) -> Vec<u8> {
    let mut out = vec![REC_BASE];
    push_u64(&mut out, base);
    push_u64(&mut out, hash);
    out
}

fn encode_entry(message: &AppMessage) -> Vec<u8> {
    let mut out = vec![REC_ENTRY];
    message.encode(&mut out);
    out
}

fn encode_truncate(to: u64) -> Vec<u8> {
    let mut out = vec![REC_TRUNCATE];
    push_u64(&mut out, to);
    out
}

fn encode_own_seq(seq: u64) -> Vec<u8> {
    let mut out = vec![REC_OWN_SEQ];
    push_u64(&mut out, seq);
    out
}

/// The canonical log image: `Base` + `tail` + the own-seq mark (if any).
fn canonical_log(base: u64, hash: u64, tail: &[AppMessage], own_seq: u64) -> Vec<Vec<u8>> {
    let mut bodies = Vec::with_capacity(tail.len() + 2);
    bodies.push(encode_base(base, hash));
    bodies.extend(tail.iter().map(encode_entry));
    if own_seq > 0 {
        bodies.push(encode_own_seq(own_seq));
    }
    bodies
}

fn decode_record(body: &[u8]) -> Result<LogRecord, DecodeError> {
    let mut r = Reader::new(body);
    let record = match r.read_u8()? {
        REC_BASE => LogRecord::Base {
            base: r.read_u64()?,
            hash: r.read_u64()?,
        },
        REC_ENTRY => LogRecord::Entry(AppMessage::decode(&mut r)?),
        REC_TRUNCATE => LogRecord::Truncate { to: r.read_u64()? },
        REC_OWN_SEQ => LogRecord::OwnSeq(r.read_u64()?),
        tag => {
            return Err(DecodeError::BadTag {
                context: "durable log record",
                tag,
            })
        }
    };
    r.ensure_consumed()?;
    Ok(record)
}

fn encode_snapshot_body(
    base: u64,
    hash: u64,
    frontier: &VersionVector,
    state: &[u8],
    own_seq: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, base);
    push_u64(&mut out, hash);
    frontier.encode(&mut out);
    push_bytes(&mut out, state);
    push_u64(&mut out, own_seq);
    out
}

fn decode_snapshot_body(
    body: &[u8],
) -> Result<(u64, u64, VersionVector, Vec<u8>, u64), DecodeError> {
    let mut r = Reader::new(body);
    let base = r.read_u64()?;
    let hash = r.read_u64()?;
    let frontier = VersionVector::decode(&mut r)?;
    let state = r.read_bytes()?.to_vec();
    let own_seq = r.read_u64()?;
    r.ensure_consumed()?;
    Ok((base, hash, frontier, state, own_seq))
}

/// The durable store for one replica: a [`RecordLog`] mirroring the current
/// delivered tail plus a [`SnapshotStore`] of periodic checkpoints.
#[derive(Debug)]
pub struct DurableStore {
    log: RecordLog,
    snapshots: SnapshotStore,
    /// Absolute base the logged entries extend (the last `Base` record).
    log_base: u64,
    /// The `(base, hash)` of the log's `Base` record while recovery links
    /// it as it stands — the newest snapshot on disk is at exactly that
    /// point, or there is none and the base is 0. `None` after a re-anchor
    /// wrote a `Base` no snapshot vouches for.
    anchor: Option<(u64, u64)>,
    /// Records in the log since its last rewrite, the `Base` included.
    log_records: usize,
    /// Identifier mirror of the `Entry` records currently live in the log
    /// (post-`Truncate`), so tail updates append only the changed suffix.
    logged: Vec<MsgId>,
    /// Own-sequence high-water mark already on disk.
    own_seq: u64,
    /// Entries appended since the last checkpoint.
    since_checkpoint: usize,
    checkpoint_every: usize,
    next_snapshot_id: u64,
    degraded: bool,
}

impl DurableStore {
    /// Opens (creating if absent) the store in `options.dir`, recovering
    /// whatever the directory holds. The log is rewritten into canonical
    /// `Base` + tail form on the way out, so a recovery-of-a-recovery is
    /// exact.
    pub fn open(
        options: &DurableOptions,
    ) -> Result<(DurableStore, Option<Recovered>), DurableError> {
        fs::create_dir_all(&options.dir).map_err(DurableError::Io)?;
        let snapshots = SnapshotStore::open(options.dir.join(SNAPSHOT_DIR), KEEP_SNAPSHOTS)?;
        let (_, log_recovery) = RecordLog::open(options.dir.join(LOG_FILE))?;

        // Replay the log into (base, hash, entries, own_seq). A record body
        // that fails to decode ends the replay — everything before it is
        // intact (the CRC layer already dropped torn tails).
        let mut log_base = 0u64;
        let mut log_hash = SEQ_HASH_SEED;
        let mut entries: Vec<AppMessage> = Vec::new();
        let mut own_seq = 0u64;
        for body in &log_recovery.records {
            match decode_record(body) {
                Ok(LogRecord::Base { base, hash }) => {
                    entries.clear();
                    log_base = base;
                    log_hash = hash;
                }
                Ok(LogRecord::Entry(message)) => entries.push(message),
                Ok(LogRecord::Truncate { to }) => {
                    let keep = usize::try_from(to.saturating_sub(log_base)).unwrap_or(0);
                    entries.truncate(keep);
                }
                Ok(LogRecord::OwnSeq(seq)) => own_seq = own_seq.max(seq),
                Err(_) => break,
            }
        }

        // Compose with the newest structurally valid snapshot.
        let snapshot = snapshots
            .latest()?
            .and_then(|s| decode_snapshot_body(&s.body).ok());
        let (base, hash, frontier, state, tail) = match snapshot {
            Some((base, hash, frontier, state, snap_own_seq)) => {
                own_seq = own_seq.max(snap_own_seq);
                let tail = if base >= log_base {
                    let skip = usize::try_from(base - log_base).unwrap_or(usize::MAX);
                    if skip <= entries.len() {
                        // Hash linkage: the logged entries the snapshot
                        // subsumes must reproduce exactly its prefix hash,
                        // or the log belongs to a different history.
                        let linked = entries
                            .iter()
                            .take(skip)
                            .fold(log_hash, |h, m| seq_hash_step(h, m.id));
                        if linked == hash {
                            entries.split_off(skip)
                        } else {
                            Vec::new()
                        }
                    } else {
                        // The log ends below the snapshot's base (crash
                        // between snapshot publish and log rewrite with a
                        // short log): the snapshot alone is authoritative.
                        Vec::new()
                    }
                } else {
                    // The log's base outruns the best surviving snapshot
                    // (the newer snapshot rotted): the gap below the log is
                    // unreachable, so trust only the snapshot.
                    Vec::new()
                };
                (base, hash, frontier, state, tail)
            }
            None if log_base == 0 => {
                // Log-only recovery: full tail from the beginning.
                (0, SEQ_HASH_SEED, VersionVector::new(), Vec::new(), entries)
            }
            None => {
                // A folded log with no snapshot cannot reconstruct its base
                // state; keep only the id-reuse guard.
                (
                    0,
                    SEQ_HASH_SEED,
                    VersionVector::new(),
                    Vec::new(),
                    Vec::new(),
                )
            }
        };

        // Canonical rewrite: Base + tail + own-seq high-water mark. Its
        // `Base` is the adopted snapshot's point (or 0 with none usable), so
        // recovery links it as it stands.
        let bodies = canonical_log(base, hash, &tail, own_seq);
        let log = RecordLog::rewrite(options.dir.join(LOG_FILE), bodies.iter().map(Vec::as_slice))?;

        let next_snapshot_id = snapshots.ids()?.last().map_or(1, |newest| newest + 1);
        let recovered = if base > 0 || !tail.is_empty() || own_seq > 0 {
            Some(Recovered {
                base,
                hash,
                frontier,
                state,
                tail: tail.clone(),
                own_seq,
            })
        } else {
            None
        };
        Ok((
            DurableStore {
                log,
                snapshots,
                log_base: base,
                anchor: Some((base, hash)),
                log_records: bodies.len(),
                logged: tail.iter().map(|m| m.id).collect(),
                own_seq,
                since_checkpoint: 0,
                checkpoint_every: options.checkpoint_every.max(1),
                next_snapshot_id,
                degraded: false,
            },
            recovered,
        ))
    }

    /// Mirrors the current delivered tail (`tail`, starting at absolute
    /// index `base` with prefix hash `hash`) into the log, appending only
    /// the changed suffix: finds where log and tail first disagree and
    /// records the change from there (`record_change`, the one
    /// truncate/append path).
    pub fn record_tail(&mut self, base: u64, hash: u64, tail: &[AppMessage]) {
        let agree = self.logged_from(base).map_or(0, |lived| {
            lived
                .iter()
                .zip(tail)
                .take_while(|(logged, new)| **logged == new.id)
                .count()
        });
        self.record_change(base, hash, tail, base.saturating_add(agree as u64));
    }

    /// Mirrors one change of the delivered tail into the log: everything
    /// below absolute index `keep` is as logged, everything from `keep` on
    /// is `tail[keep - base..]` — a `Truncate` if the log holds entries
    /// there (the delivered suffix was reordered, or shrank), then the new
    /// entries. O(change), so a replica that knows what changed (it applied
    /// a [`DeliveryDelta`](ec_core::types::DeliveryDelta)) pays nothing for
    /// the history below it.
    ///
    /// A `keep` the log cannot place — beyond everything logged, or below
    /// the log's base — is an invariant breach (folds only cover logged
    /// entries): the whole log is re-anchored at `base` rather than
    /// persisting a gapped history.
    pub(crate) fn record_change(&mut self, base: u64, hash: u64, tail: &[AppMessage], keep: u64) {
        if self.degraded {
            return;
        }
        let stale = self.logged_from(keep).map(<[MsgId]>::len);
        let fresh = keep
            .checked_sub(base)
            .and_then(|rel| usize::try_from(rel).ok())
            .and_then(|rel| tail.get(rel..));
        let (Some(stale), Some(fresh)) = (stale, fresh) else {
            self.rewrite_to(base, hash, tail);
            return;
        };
        if stale > 0 {
            if self.append(&encode_truncate(keep)).is_err() {
                return;
            }
            self.logged
                .truncate(self.logged.len().saturating_sub(stale));
        }
        for message in fresh {
            if self.append(&encode_entry(message)).is_err() {
                return;
            }
            self.logged.push(message.id);
            self.since_checkpoint += 1;
        }
    }

    /// The logged identifiers from absolute index `at` on, or `None` if
    /// `at` lies outside what the log covers.
    fn logged_from(&self, at: u64) -> Option<&[MsgId]> {
        let rel = usize::try_from(at.checked_sub(self.log_base)?).ok()?;
        self.logged.get(rel..)
    }

    /// Records a new own-sequence high-water mark (no-op unless it grew).
    pub fn record_own_seq(&mut self, seq: u64) {
        if self.degraded || seq <= self.own_seq {
            return;
        }
        if self.append(&encode_own_seq(seq)).is_ok() {
            self.own_seq = seq;
        }
    }

    /// Whether enough entries accumulated since the last checkpoint.
    pub fn checkpoint_due(&self) -> bool {
        !self.degraded && self.since_checkpoint >= self.checkpoint_every
    }

    /// Makes everything logged durable, anchored at `base` (prefix hash
    /// `hash`, identifier `frontier`, state-machine snapshot `state`) with
    /// `tail` beyond it — the tail the last
    /// [`record_tail`](Self::record_tail) mirrored. When it returns, every
    /// logged entry and the own-sequence mark are on the platter.
    ///
    /// If the log's `Base` is already at `(base, hash)` with a snapshot (or
    /// base 0) behind it, and the log holds at most twice the records a
    /// rewrite would write, that is one `fdatasync`, after an `OwnSeq` mark
    /// if `own_seq` grew. Otherwise a snapshot is published (atomic) and the
    /// log is rewritten down to `Base` + `tail`, both fsynced.
    pub fn checkpoint(
        &mut self,
        base: u64,
        hash: u64,
        frontier: &VersionVector,
        state: &[u8],
        tail: &[AppMessage],
        own_seq: u64,
    ) {
        if self.degraded {
            return;
        }
        let rewrite_records = tail.len() + 1 + usize::from(own_seq.max(self.own_seq) > 0);
        if self.anchor == Some((base, hash)) && self.log_records <= 2 * rewrite_records {
            self.record_own_seq(own_seq);
            if !self.degraded && self.log.sync().is_err() {
                self.degraded = true;
            }
        } else {
            let own_seq = own_seq.max(self.own_seq);
            let body = encode_snapshot_body(base, hash, frontier, state, own_seq);
            if self
                .snapshots
                .publish(self.next_snapshot_id, &body)
                .is_err()
            {
                self.degraded = true;
                return;
            }
            self.next_snapshot_id += 1;
            self.own_seq = own_seq;
            self.rewrite_to(base, hash, tail);
            self.anchor = Some((base, hash));
        }
        self.since_checkpoint = 0;
    }

    /// Whether an I/O error has disabled persistence (the replica keeps
    /// running purely in memory).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The record log's file path.
    pub fn log_path(&self) -> &Path {
        self.log.path()
    }

    fn append(&mut self, body: &[u8]) -> Result<(), ()> {
        match self.log.append(body) {
            Ok(()) => {
                self.log_records += 1;
                Ok(())
            }
            Err(_) => {
                self.degraded = true;
                Err(())
            }
        }
    }

    /// Atomically replaces the log with `Base` + `tail` (+ own-seq mark).
    /// No snapshot vouches for the new `Base` until the caller publishes
    /// one.
    fn rewrite_to(&mut self, base: u64, hash: u64, tail: &[AppMessage]) {
        let bodies = canonical_log(base, hash, tail, self.own_seq);
        match RecordLog::rewrite(
            self.log.path().to_path_buf(),
            bodies.iter().map(Vec::as_slice),
        ) {
            Ok(log) => {
                self.log = log;
                self.log_base = base;
                self.anchor = None;
                self.log_records = bodies.len();
                self.logged = tail.iter().map(|m| m.id).collect();
            }
            Err(_) => self.degraded = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::types::Payload;
    use ec_sim::ProcessId;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("ec-durable-{}-{tag}-{n}", std::process::id()))
    }

    fn msg(origin: usize, seq: u64) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId::new(origin), seq),
            Payload::from(format!("m{origin}.{seq}").into_bytes()),
        )
    }

    fn roll(h0: u64, tail: &[AppMessage]) -> u64 {
        tail.iter().fold(h0, |h, m| seq_hash_step(h, m.id))
    }

    fn frontier_of(prefix: &[AppMessage]) -> VersionVector {
        let mut frontier = VersionVector::new();
        for m in prefix {
            frontier.insert(m.id);
        }
        frontier
    }

    #[test]
    fn fresh_store_recovers_nothing_and_roundtrips_a_tail() {
        let dir = tmp_dir("fresh");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, recovered) = DurableStore::open(&opts).expect("open");
        assert!(recovered.is_none());
        assert!(!store.degraded());
        let tail = vec![msg(0, 1), msg(1, 1), msg(0, 2)];
        store.record_tail(0, SEQ_HASH_SEED, &tail);
        store.record_own_seq(2);
        drop(store);
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        let recovered = recovered.expect("recovered");
        assert_eq!(recovered.base, 0);
        assert_eq!(recovered.hash, SEQ_HASH_SEED);
        assert_eq!(recovered.tail, tail);
        assert_eq!(recovered.own_seq, 2);
        assert!(recovered.state.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reordered_suffixes_are_truncated_not_duplicated() {
        let dir = tmp_dir("reorder");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let first = vec![msg(0, 1), msg(1, 1), msg(1, 2)];
        store.record_tail(0, SEQ_HASH_SEED, &first);
        // the eventual order reshuffles everything after the first entry
        let second = vec![msg(0, 1), msg(1, 2), msg(1, 1), msg(2, 1)];
        store.record_tail(0, SEQ_HASH_SEED, &second);
        drop(store);
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        assert_eq!(recovered.expect("recovered").tail, second);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_change_is_logged_exactly_as_the_whole_tail_would_be() {
        // the same history — extend, reorder from index 1, truncate, extend —
        // mirrored once as whole tails and once as (tail, keep) changes
        let steps: Vec<(Vec<AppMessage>, u64)> = vec![
            (vec![msg(0, 1), msg(1, 1), msg(1, 2)], 0),
            (vec![msg(0, 1), msg(1, 1), msg(1, 2), msg(2, 1)], 3),
            (vec![msg(0, 1), msg(1, 2), msg(1, 1)], 1),
            (vec![msg(0, 1), msg(1, 2)], 2),
            (vec![msg(0, 1), msg(1, 2), msg(2, 1), msg(2, 2)], 2),
        ];
        let (whole_dir, change_dir) = (tmp_dir("whole"), tmp_dir("change"));
        let opts = |dir: &PathBuf| DurableOptions::new(dir).checkpoint_every(100);
        let (mut whole, _) = DurableStore::open(&opts(&whole_dir)).expect("open");
        let (mut change, _) = DurableStore::open(&opts(&change_dir)).expect("open");
        for (tail, keep) in &steps {
            whole.record_tail(0, SEQ_HASH_SEED, tail);
            change.record_change(0, SEQ_HASH_SEED, tail, *keep);
            assert_eq!(whole.logged, change.logged);
            assert_eq!(whole.since_checkpoint, change.since_checkpoint);
        }
        let bytes = |store: &DurableStore| fs::read(store.log_path()).expect("read log");
        assert_eq!(bytes(&whole), bytes(&change), "the logs differ on disk");
        // an unchanged tail writes nothing
        let before = bytes(&change);
        change.record_change(0, SEQ_HASH_SEED, &steps[4].0, 4);
        assert_eq!(bytes(&change), before);
        drop((whole, change));
        let (_, recovered) = DurableStore::open(&opts(&change_dir)).expect("reopen");
        assert_eq!(recovered.expect("recovered").tail, steps[4].0);
        let _ = fs::remove_dir_all(&whole_dir);
        let _ = fs::remove_dir_all(&change_dir);
    }

    #[test]
    fn a_change_the_log_cannot_place_re_anchors_it() {
        let dir = tmp_dir("reanchor");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let all: Vec<AppMessage> = (1..=6).map(|s| msg(0, s)).collect();
        store.record_tail(0, SEQ_HASH_SEED, &all[..2]);
        // beyond everything logged: entries 2..4 never reached the store
        let fold_hash = roll(SEQ_HASH_SEED, &all[..4]);
        store.record_change(4, fold_hash, &all[4..], 5);
        assert_eq!(store.log_base, 4);
        assert_eq!(store.logged, vec![all[4].id, all[5].id]);
        // below the log's base (a replica that restarted blank): the same
        let blank = vec![msg(1, 1)];
        store.record_tail(0, SEQ_HASH_SEED, &blank);
        assert_eq!(store.log_base, 0);
        assert!(!store.degraded());
        drop(store);
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        let recovered = recovered.expect("recovered");
        assert_eq!((recovered.base, recovered.tail), (0, blank));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_plus_log_tail_compose_with_hash_linkage() {
        let dir = tmp_dir("checkpoint");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let all: Vec<AppMessage> = (1..=6).map(|s| msg(0, s)).collect();
        store.record_tail(0, SEQ_HASH_SEED, &all);
        // fold the first four entries into a checkpoint
        let fold_hash = roll(SEQ_HASH_SEED, &all[..4]);
        let frontier = frontier_of(&all[..4]);
        store.checkpoint(4, fold_hash, &frontier, b"state@4", &all[4..], 6);
        // more entries arrive after the checkpoint
        let late = msg(1, 1);
        let tail: Vec<AppMessage> = all[4..].iter().cloned().chain([late]).collect();
        store.record_tail(4, fold_hash, &tail);
        drop(store);
        let (store, recovered) = DurableStore::open(&opts).expect("reopen");
        let recovered = recovered.expect("recovered");
        assert_eq!(recovered.base, 4);
        assert_eq!(recovered.hash, fold_hash);
        assert_eq!(recovered.frontier, frontier);
        assert_eq!(recovered.state, b"state@4".to_vec());
        assert_eq!(recovered.tail, tail);
        assert_eq!(recovered.own_seq, 6);
        assert!(!store.degraded());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unmoved_base_checkpoints_with_one_sync_and_keeps_the_own_seq() {
        let dir = tmp_dir("short");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let tail = vec![msg(0, 1), msg(1, 1)];
        store.record_tail(0, SEQ_HASH_SEED, &tail);
        store.checkpoint(0, SEQ_HASH_SEED, &VersionVector::new(), &[], &tail, 9);
        assert!(
            store.snapshots.ids().expect("ids").is_empty(),
            "no snapshot"
        );
        // Base, two entries, the own-seq mark: appended, not rewritten
        assert_eq!(store.log_records, 4);
        drop(store);
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        let recovered = recovered.expect("recovered");
        assert_eq!((recovered.tail, recovered.own_seq), (tail, 9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_re_anchored_log_checkpoints_the_full_way() {
        // the re-anchor writes `Base` 4 with no snapshot behind it: a sync
        // alone would leave `open` a log whose base outruns every snapshot,
        // and it would drop the tail
        let dir = tmp_dir("reanchor-checkpoint");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let all: Vec<AppMessage> = (1..=6).map(|s| msg(0, s)).collect();
        store.record_tail(0, SEQ_HASH_SEED, &all[..2]);
        let fold_hash = roll(SEQ_HASH_SEED, &all[..4]);
        store.record_change(4, fold_hash, &all[4..], 5);
        assert_eq!((store.log_base, store.anchor), (4, None));
        let frontier = frontier_of(&all[..4]);
        store.checkpoint(4, fold_hash, &frontier, b"state@4", &all[4..], 0);
        assert_eq!(store.snapshots.ids().expect("ids").len(), 1, "published");
        drop(store);
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        let recovered = recovered.expect("recovered");
        assert_eq!((recovered.base, recovered.hash), (4, fold_hash));
        assert_eq!(recovered.state, b"state@4".to_vec());
        assert_eq!(recovered.tail, all[4..].to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reorder_churn_past_twice_the_live_size_is_rewritten_once() {
        let dir = tmp_dir("churn");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let (head, a, b) = ([msg(0, 1), msg(0, 2)], msg(1, 1), msg(2, 1));
        let ab: Vec<AppMessage> = head.iter().cloned().chain([a.clone(), b.clone()]).collect();
        let ba: Vec<AppMessage> = head.iter().cloned().chain([b, a]).collect();
        store.record_tail(0, SEQ_HASH_SEED, &ab);
        // Base + four entries: what a rewrite would write
        assert_eq!(store.log_records, 5);
        let mut rewrites = 0;
        for tail in [&ba, &ab, &ba] {
            // each reorder logs a Truncate and two entries
            store.record_tail(0, SEQ_HASH_SEED, tail);
            let before = store.log_records;
            store.checkpoint(0, SEQ_HASH_SEED, &VersionVector::new(), &[], tail, 0);
            if store.log_records < before {
                rewrites += 1;
                assert_eq!(store.log_records, 5, "back to the live size");
            }
        }
        // 8 records sync, 11 > 2 × 5 rewrite, then 8 sync again
        assert_eq!(rewrites, 1);
        assert_eq!(store.log_records, 8);
        drop(store);
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        assert_eq!(recovered.expect("recovered").tail, ba);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_cut_anywhere_after_a_short_checkpoint_opens_to_a_linked_prefix() {
        let dir = tmp_dir("cut");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let all: Vec<AppMessage> = (1..=7).map(|s| msg(0, s)).collect();
        let fold_hash = roll(SEQ_HASH_SEED, &all[..4]);
        let frontier = frontier_of(&all[..4]);
        store.record_tail(0, SEQ_HASH_SEED, &all[..5]);
        // the base moved: snapshot at 4, log rewritten to Base 4 + one entry
        store.checkpoint(4, fold_hash, &frontier, b"state@4", &all[4..5], 3);
        store.record_tail(4, fold_hash, &all[4..]);
        // the base did not move: two entries and an own-seq mark, synced
        store.checkpoint(4, fold_hash, &frontier, b"state@4", &all[4..], 7);
        assert_eq!(store.snapshots.ids().expect("ids").len(), 1);
        let log_path = store.log_path().to_path_buf();
        drop(store);
        let image = fs::read(&log_path).expect("read log");
        for cut in 0..=image.len() {
            fs::write(&log_path, &image[..cut]).expect("cut log");
            let (_, recovered) = DurableStore::open(&opts).expect("open a cut log");
            let recovered = recovered.expect("the snapshot survives any cut");
            assert_eq!(
                (recovered.base, recovered.hash),
                (4, fold_hash),
                "cut {cut}"
            );
            assert_eq!(recovered.state, b"state@4".to_vec(), "cut {cut}");
            let kept = recovered.tail.len();
            assert_eq!(recovered.tail, all[4..4 + kept].to_vec(), "cut {cut}");
            // the short path's mark is the last record; the snapshot holds 3
            let whole = cut == image.len();
            assert_eq!(recovered.own_seq, if whole { 7 } else { 3 }, "cut {cut}");
            assert!(!whole || kept == 3);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_ahead_of_log_wins_and_verifies_linkage() {
        let dir = tmp_dir("linkage");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let all: Vec<AppMessage> = (1..=3).map(|s| msg(0, s)).collect();
        store.record_tail(0, SEQ_HASH_SEED, &all);
        drop(store);
        // simulate a crash between snapshot publish and log rewrite: publish
        // a snapshot at base 2 by hand, leaving the log at base 0.
        let fold_hash = roll(SEQ_HASH_SEED, &all[..2]);
        let body = encode_snapshot_body(2, fold_hash, &frontier_of(&all[..2]), b"state@2", 3);
        let mut snaps = SnapshotStore::open(dir.join(SNAPSHOT_DIR), 3).expect("snaps");
        snaps.publish(1, &body).expect("publish");
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        let recovered = recovered.expect("recovered");
        assert_eq!(recovered.base, 2);
        assert_eq!(recovered.state, b"state@2".to_vec());
        // entries 1..=2 were subsumed (linkage verified), entry 3 survives
        assert_eq!(recovered.tail, vec![all[2].clone()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn divergent_log_is_distrusted_on_linkage_mismatch() {
        let dir = tmp_dir("divergent");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let all: Vec<AppMessage> = (1..=3).map(|s| msg(0, s)).collect();
        store.record_tail(0, SEQ_HASH_SEED, &all);
        drop(store);
        // a snapshot whose hash does NOT match the logged prefix
        let body = encode_snapshot_body(2, 0xDEAD_BEEF, &VersionVector::new(), b"state@2", 0);
        let mut snaps = SnapshotStore::open(dir.join(SNAPSHOT_DIR), 3).expect("snaps");
        snaps.publish(1, &body).expect("publish");
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        let recovered = recovered.expect("recovered");
        assert_eq!(recovered.base, 2);
        assert!(recovered.tail.is_empty(), "divergent log must be dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tail_recovers_the_intact_prefix() {
        let dir = tmp_dir("torn");
        let opts = DurableOptions::new(&dir).checkpoint_every(100);
        let (mut store, _) = DurableStore::open(&opts).expect("open");
        let all: Vec<AppMessage> = (1..=4).map(|s| msg(0, s)).collect();
        store.record_tail(0, SEQ_HASH_SEED, &all);
        let log_path = store.log_path().to_path_buf();
        drop(store);
        // chop bytes off the log tail: the last record is torn
        let bytes = fs::read(&log_path).expect("read");
        fs::write(&log_path, &bytes[..bytes.len() - 7]).expect("write");
        let (_, recovered) = DurableStore::open(&opts).expect("reopen");
        let tail = recovered.expect("recovered").tail;
        assert_eq!(tail, all[..3].to_vec(), "intact prefix survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_codec_is_total_on_corrupt_bodies() {
        let good = encode_entry(&msg(3, 9));
        assert!(matches!(decode_record(&good), Ok(LogRecord::Entry(_))));
        for cut in 0..good.len() {
            assert!(decode_record(&good[..cut]).is_err(), "prefix {cut}");
        }
        let mut long = good.clone();
        long.push(0);
        assert!(decode_record(&long).is_err());
        assert!(matches!(
            decode_record(&[9, 0, 0]),
            Err(DecodeError::BadTag { .. })
        ));
        let base = encode_base(7, 42);
        assert_eq!(
            decode_record(&base),
            Ok(LogRecord::Base { base: 7, hash: 42 })
        );
        let tr = encode_truncate(5);
        assert_eq!(decode_record(&tr), Ok(LogRecord::Truncate { to: 5 }));
    }
}
