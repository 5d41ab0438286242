//! The atomic snapshot store: one file per snapshot, written temp-first and
//! `rename`d into place, identified by a strictly increasing snapshot id.
//!
//! ## File format
//!
//! ```text
//! file := magic id:u64be crc:u32be len:u32be body[len]
//! magic := "ECSNAP" 0x00 0x01                   (8 bytes)
//! ```
//!
//! Files are named `snap-<id, zero-padded to 20>.ecsnap` so lexicographic
//! and numeric order coincide. [`SnapshotStore::publish`] enforces monotonic
//! ids, fsyncs the temp file before the rename and the directory after it,
//! then prunes old snapshots beyond the configured retention.
//! [`SnapshotStore::latest`] walks snapshots newest-first and **skips**
//! corrupt ones (bad magic, id mismatch, short body, CRC failure) — a torn
//! snapshot publish degrades to the previous snapshot, never to a panic.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::PathBuf;

use crate::codec::{DecodeError, Reader};
use crate::crc::crc32;
use crate::log::sync_parent_dir;

/// The 8-byte preamble identifying a snapshot file (format version 1).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ECSNAP\x00\x01";

/// Upper bound on a snapshot body (64 MiB).
pub const MAX_SNAPSHOT_BODY: usize = 64 << 20;

/// Why a snapshot operation failed.
#[derive(Debug)]
pub enum SnapshotError {
    /// An operating-system I/O failure.
    Io(io::Error),
    /// A published id was not strictly greater than the newest on disk.
    NotMonotonic {
        /// The id being published.
        id: u64,
        /// The newest id already present.
        newest: u64,
    },
    /// The body exceeded [`MAX_SNAPSHOT_BODY`].
    TooLarge {
        /// The offending body length.
        len: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::NotMonotonic { id, newest } => {
                write!(
                    f,
                    "snapshot id {id} is not above the newest on disk ({newest})"
                )
            }
            SnapshotError::TooLarge { len } => {
                write!(
                    f,
                    "snapshot body of {len} bytes exceeds the {MAX_SNAPSHOT_BODY}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// A snapshot read back from disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The snapshot's monotonic id.
    pub id: u64,
    /// The opaque snapshot body.
    pub body: Vec<u8>,
}

/// A directory of atomic snapshots with bounded retention.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    keep: usize,
}

impl SnapshotStore {
    /// Opens (creating if absent) the snapshot directory, retaining at most
    /// `keep` snapshots after each publish (`keep` is clamped to ≥ 1).
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<SnapshotStore, SnapshotError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore {
            dir,
            keep: keep.max(1),
        })
    }

    /// Atomically publishes snapshot `id`: temp write + fsync + rename +
    /// directory fsync, then prunes beyond the retention bound. `id` must be
    /// strictly greater than every id already on disk.
    pub fn publish(&mut self, id: u64, body: &[u8]) -> Result<(), SnapshotError> {
        if body.len() > MAX_SNAPSHOT_BODY {
            return Err(SnapshotError::TooLarge { len: body.len() });
        }
        if let Some(newest) = self.ids()?.last().copied() {
            if id <= newest {
                return Err(SnapshotError::NotMonotonic { id, newest });
            }
        }
        let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 16 + body.len());
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&id.to_be_bytes());
        bytes.extend_from_slice(&crc32(body).to_be_bytes());
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(body);
        let tmp = self.dir.join(format!("snap-{id:020}.tmp"));
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        let final_path = self.dir.join(file_name(id));
        fs::rename(&tmp, &final_path)?;
        sync_parent_dir(&final_path)?;
        self.prune()?;
        Ok(())
    }

    /// The newest snapshot that validates, skipping corrupt files. `None`
    /// when the directory holds no intact snapshot.
    pub fn latest(&self) -> Result<Option<Snapshot>, SnapshotError> {
        for id in self.ids()?.into_iter().rev() {
            let bytes = match fs::read(self.dir.join(file_name(id))) {
                Ok(bytes) => bytes,
                // racing a prune, or vanished: fall back to an older one
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(SnapshotError::Io(e)),
            };
            if let Ok(snapshot) = decode_snapshot(&bytes) {
                if snapshot.id == id {
                    return Ok(Some(snapshot));
                }
            }
        }
        Ok(None)
    }

    /// The snapshot ids currently on disk, ascending (including files that
    /// may later fail validation).
    pub fn ids(&self) -> Result<Vec<u64>, SnapshotError> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(id) = parse_file_name(&entry.file_name().to_string_lossy()) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn prune(&self) -> Result<(), SnapshotError> {
        let ids = self.ids()?;
        if ids.len() > self.keep {
            for id in &ids[..ids.len() - self.keep] {
                let _ = fs::remove_file(self.dir.join(file_name(*id)));
            }
        }
        Ok(())
    }
}

fn file_name(id: u64) -> String {
    format!("snap-{id:020}.ecsnap")
}

fn parse_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".ecsnap")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Decodes and validates one snapshot file image.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, DecodeError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(SNAPSHOT_MAGIC.len())?;
    if magic != SNAPSHOT_MAGIC {
        return Err(DecodeError::Invalid {
            context: "snapshot magic",
        });
    }
    let id = r.read_u64()?;
    let declared_crc = r.read_u32()?;
    let len = r.read_u32()? as usize;
    if len > MAX_SNAPSHOT_BODY {
        return Err(DecodeError::Oversized {
            declared: len as u64,
        });
    }
    let body = r.take(len)?;
    r.ensure_consumed()?;
    if crc32(body) != declared_crc {
        return Err(DecodeError::Invalid {
            context: "snapshot checksum mismatch",
        });
    }
    Ok(Snapshot {
        id,
        body: body.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("ec-storage-snap-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn publish_latest_roundtrip_and_retention() {
        let dir = tmp_dir("basic");
        let mut store = SnapshotStore::open(&dir, 2).expect("open");
        assert_eq!(store.latest().expect("latest"), None);
        store.publish(1, b"one").expect("publish");
        store.publish(5, b"five").expect("publish");
        store.publish(9, b"nine").expect("publish");
        let latest = store.latest().expect("latest").expect("some");
        assert_eq!(
            latest,
            Snapshot {
                id: 9,
                body: b"nine".to_vec()
            }
        );
        // retention: only the newest two remain
        assert_eq!(store.ids().expect("ids"), vec![5, 9]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_must_be_monotonic() {
        let dir = tmp_dir("monotonic");
        let mut store = SnapshotStore::open(&dir, 3).expect("open");
        store.publish(7, b"x").expect("publish");
        assert!(matches!(
            store.publish(7, b"y"),
            Err(SnapshotError::NotMonotonic { id: 7, newest: 7 })
        ));
        assert!(matches!(
            store.publish(3, b"y"),
            Err(SnapshotError::NotMonotonic { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_latest_falls_back_to_older() {
        let dir = tmp_dir("corrupt");
        let mut store = SnapshotStore::open(&dir, 3).expect("open");
        store.publish(1, b"good-old").expect("publish");
        store.publish(2, b"about-to-rot").expect("publish");
        // flip a body bit in the newest file
        let path = dir.join(file_name(2));
        let mut bytes = fs::read(&path).expect("read");
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x80;
        }
        fs::write(&path, &bytes).expect("write");
        let latest = store.latest().expect("latest").expect("some");
        assert_eq!(latest.id, 1);
        assert_eq!(latest.body, b"good-old".to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_and_tmp_files_are_ignored() {
        let dir = tmp_dir("stray");
        let mut store = SnapshotStore::open(&dir, 3).expect("open");
        fs::write(dir.join("snap-00000000000000000001.tmp"), b"half").expect("write");
        fs::write(dir.join("README"), b"not a snapshot").expect("write");
        fs::write(dir.join("snap-xyz.ecsnap"), b"bad name").expect("write");
        assert_eq!(store.latest().expect("latest"), None);
        store.publish(1, b"real").expect("publish");
        assert_eq!(store.latest().expect("latest").expect("some").id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_every_malformed_shape() {
        let mut good = Vec::new();
        good.extend_from_slice(&SNAPSHOT_MAGIC);
        good.extend_from_slice(&3u64.to_be_bytes());
        good.extend_from_slice(&crc32(b"abc").to_be_bytes());
        good.extend_from_slice(&3u32.to_be_bytes());
        good.extend_from_slice(b"abc");
        assert_eq!(
            decode_snapshot(&good),
            Ok(Snapshot {
                id: 3,
                body: b"abc".to_vec()
            })
        );
        // every strict prefix fails with a typed error
        for cut in 0..good.len() {
            assert!(decode_snapshot(&good[..cut]).is_err(), "prefix {cut}");
        }
        // trailing garbage
        let mut long = good.clone();
        long.push(0);
        assert_eq!(
            decode_snapshot(&long),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
        // wrong magic
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            decode_snapshot(&bad),
            Err(DecodeError::Invalid {
                context: "snapshot magic"
            })
        );
    }
}
