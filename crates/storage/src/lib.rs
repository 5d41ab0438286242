//! # `ec-storage` — durable log + snapshot store
//!
//! The dependency-free persistence layer under the replication facade:
//!
//! * [`codec`] — the byte-level codec core ([`Reader`], [`DecodeError`],
//!   [`WireCodec`]) shared with the socket engine's wire format. It moved
//!   here from `ec-replication::net::codec` so record bodies on disk and
//!   frame bodies on the wire decode through the same total, panic-free
//!   machinery.
//! * [`log`] — the append-only, CRC-guarded, length-prefixed
//!   [`RecordLog`]: records are `len:u32be crc:u32be body`, and opening a
//!   log scans from the front and truncates a torn tail back to the last
//!   intact record boundary (a crash mid-`write` costs the suffix, never a
//!   panic and never silent corruption).
//! * [`snapshot`] — the atomic [`SnapshotStore`]: write-temp + `rename`,
//!   monotonic snapshot ids, newest-valid-wins reads that skip corrupt
//!   files.
//!
//! Everything here is deterministic and wall-clock free: fsync pacing is
//! the *caller's* policy (the replication layer checkpoints by record
//! count, not by timer), so the crate satisfies the workspace's strict
//! determinism and panic-safety analysis rules without exemptions.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod crc;
pub mod log;
pub mod snapshot;

pub use codec::{DecodeError, Reader, Sink, WireCodec};
pub use crc::crc32;
pub use log::{LogError, LogRecovery, RecordLog, MAX_RECORD_BODY};
pub use snapshot::{Snapshot, SnapshotError, SnapshotStore, MAX_SNAPSHOT_BODY};
