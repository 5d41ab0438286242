//! The append-only record log: `LOG_MAGIC`, then zero or more CRC-guarded,
//! length-prefixed records.
//!
//! ## Record format
//!
//! ```text
//! file   := magic record*
//! magic  := "ECLOG" 0x00 0x00 0x01              (8 bytes)
//! record := len:u32be crc:u32be body[len]       (crc = CRC-32 of body)
//! ```
//!
//! A record body is opaque bytes — callers encode their own structures
//! through [`crate::WireCodec`]. Bodies are capped at [`MAX_RECORD_BODY`] so
//! a corrupted length prefix can never drive an allocation.
//!
//! ## Torn-tail truncation
//!
//! A crash can land mid-`write`: the file then ends in a partial record
//! (short length field, short body, or a body whose CRC no longer matches).
//! [`RecordLog::open`] scans from the start and **truncates the file back to
//! the last record boundary that checks out** — the scan is total (every
//! corrupt shape maps to a typed [`DecodeError`], never a panic) and
//! recovery reports exactly what was dropped. Corruption is detected at the
//! *first* bad record; everything after it is discarded, which is the right
//! semantics for a log whose only writer appends.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::DecodeError;
use crate::crc::crc32;

/// The 8-byte preamble identifying a record log file (format version 1).
pub const LOG_MAGIC: [u8; 8] = *b"ECLOG\x00\x00\x01";

/// Upper bound on a single record body (16 MiB). A length prefix above this
/// is rejected before any allocation happens.
pub const MAX_RECORD_BODY: usize = 16 << 20;

/// Why a log file could not be opened or written.
#[derive(Debug)]
pub enum LogError {
    /// An operating-system I/O failure.
    Io(io::Error),
    /// The file exists but does not start with [`LOG_MAGIC`] (nor a torn
    /// prefix of it) — refusing to truncate what is probably not ours.
    BadMagic {
        /// The bytes actually found at the start of the file.
        found: Vec<u8>,
    },
    /// An appended record body exceeded [`MAX_RECORD_BODY`].
    RecordTooLarge {
        /// The offending body length.
        len: usize,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log I/O error: {e}"),
            LogError::BadMagic { found } => {
                write!(f, "not a record log (starts with {found:02X?})")
            }
            LogError::RecordTooLarge { len } => {
                write!(
                    f,
                    "record body of {len} bytes exceeds the {MAX_RECORD_BODY}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Appends the framing of one record (`len crc body`) to `out`. The caller
/// is responsible for the [`MAX_RECORD_BODY`] cap ([`RecordLog::append`]
/// enforces it); an oversized body would scan back as a torn tail.
pub fn encode_record(body: &[u8], out: &mut Vec<u8>) {
    crate::codec::push_u32(out, body.len() as u32);
    crate::codec::push_u32(out, crc32(body));
    out.extend_from_slice(body);
}

/// How the byte region after the magic ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailState {
    /// The region ends exactly on a record boundary.
    Clean,
    /// The region ends in a torn or corrupt record; the error says how the
    /// first bad record failed to decode.
    Torn(DecodeError),
}

/// The result of scanning a record region: every intact record in order,
/// how many bytes of the region they cover, and how the region ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogScan {
    /// The decoded record bodies, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of the region covered by intact records (the truncation point,
    /// relative to the start of the region).
    pub valid_len: usize,
    /// Whether the region ended cleanly or in a torn record.
    pub tail: TailState,
}

/// Scans the record region of a log (the bytes *after* [`LOG_MAGIC`]).
/// Total: corrupt input of any shape yields a [`TailState::Torn`], never a
/// panic, and `records`/`valid_len` always describe the longest intact
/// prefix.
pub fn scan_records(region: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    let mut r = crate::codec::Reader::new(region);
    loop {
        if r.remaining() == 0 {
            return LogScan {
                records,
                valid_len,
                tail: TailState::Clean,
            };
        }
        let torn = |err| LogScan {
            records: records.clone(),
            valid_len,
            tail: TailState::Torn(err),
        };
        let len = match r.read_u32() {
            Ok(len) => len as usize,
            Err(err) => return torn(err),
        };
        if len > MAX_RECORD_BODY {
            return torn(DecodeError::Oversized {
                declared: len as u64,
            });
        }
        let declared_crc = match r.read_u32() {
            Ok(crc) => crc,
            Err(err) => return torn(err),
        };
        let body = match r.take(len) {
            Ok(body) => body,
            Err(err) => return torn(err),
        };
        if crc32(body) != declared_crc {
            return torn(DecodeError::Invalid {
                context: "record checksum mismatch",
            });
        }
        records.push(body.to_vec());
        valid_len = region.len() - r.remaining();
    }
}

/// What [`RecordLog::open`] found on disk.
#[derive(Debug)]
pub struct LogRecovery {
    /// Every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes discarded from the tail (0 for a cleanly closed log).
    pub truncated_bytes: u64,
    /// Why the tail was discarded, when it was.
    pub torn: Option<DecodeError>,
}

/// An open append-only record log. One writer per file; readers go through
/// [`RecordLog::open`]'s recovery scan.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    path: PathBuf,
}

impl RecordLog {
    /// Opens (creating if absent) the log at `path`, scanning and truncating
    /// a torn tail. Returns the log positioned for appending plus everything
    /// recovered from it.
    pub fn open(path: impl Into<PathBuf>) -> Result<(RecordLog, LogRecovery), LogError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // A crash between create and the magic write leaves a short or empty
        // preamble; rewrite it. Anything else that is not our magic is a
        // foreign file and must not be clobbered.
        if bytes.len() < LOG_MAGIC.len() {
            if !LOG_MAGIC.starts_with(&bytes) {
                return Err(LogError::BadMagic { found: bytes });
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&LOG_MAGIC)?;
            file.sync_data()?;
            let truncated = bytes.len() as u64;
            return Ok((
                RecordLog { file, path },
                LogRecovery {
                    records: Vec::new(),
                    truncated_bytes: truncated,
                    torn: if truncated == 0 {
                        None
                    } else {
                        Some(DecodeError::Truncated {
                            needed: LOG_MAGIC.len(),
                            available: truncated as usize,
                        })
                    },
                },
            ));
        }
        let (magic, region) = bytes.split_at(LOG_MAGIC.len());
        if magic != LOG_MAGIC {
            return Err(LogError::BadMagic {
                found: magic.to_vec(),
            });
        }
        let scan = scan_records(region);
        let keep = (LOG_MAGIC.len() + scan.valid_len) as u64;
        let truncated_bytes = bytes.len() as u64 - keep;
        if truncated_bytes > 0 {
            file.set_len(keep)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(keep))?;
        Ok((
            RecordLog { file, path },
            LogRecovery {
                records: scan.records,
                truncated_bytes,
                torn: match scan.tail {
                    TailState::Clean => None,
                    TailState::Torn(err) => Some(err),
                },
            },
        ))
    }

    /// Atomically replaces the log at `path` with one containing exactly
    /// `bodies` (write temp + fsync + rename + fsync dir) — used to rotate a
    /// pruned log after a checkpoint. Returns the new open log.
    pub fn rewrite<'b>(
        path: impl Into<PathBuf>,
        bodies: impl IntoIterator<Item = &'b [u8]>,
    ) -> Result<RecordLog, LogError> {
        let path = path.into();
        let mut out = Vec::from(LOG_MAGIC);
        for body in bodies {
            if body.len() > MAX_RECORD_BODY {
                return Err(LogError::RecordTooLarge { len: body.len() });
            }
            encode_record(body, &mut out);
        }
        let tmp = sibling_tmp(&path);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&out)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        sync_parent_dir(&path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(RecordLog { file, path })
    }

    /// Appends one record. Buffered by the OS — call [`RecordLog::sync`] to
    /// force it to the platter.
    pub fn append(&mut self, body: &[u8]) -> Result<(), LogError> {
        if body.len() > MAX_RECORD_BODY {
            return Err(LogError::RecordTooLarge { len: body.len() });
        }
        let mut record = Vec::with_capacity(8 + body.len());
        encode_record(body, &mut record);
        self.file.write_all(&record)?;
        Ok(())
    }

    /// Forces appended records to durable storage.
    pub fn sync(&mut self) -> Result<(), LogError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// The file this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ec-storage-log-{}-{tag}-{n}.eclog",
            std::process::id()
        ))
    }

    #[test]
    fn fresh_log_appends_and_reopens() {
        let path = tmp_path("fresh");
        let _ = std::fs::remove_file(&path);
        let (mut log, rec) = RecordLog::open(&path).expect("open");
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
        log.append(b"alpha").expect("append");
        log.append(b"").expect("append empty");
        log.append(b"beta").expect("append");
        log.sync().expect("sync");
        drop(log);
        let (_, rec) = RecordLog::open(&path).expect("reopen");
        assert_eq!(
            rec.records,
            vec![b"alpha".to_vec(), Vec::new(), b"beta".to_vec()]
        );
        assert_eq!(rec.truncated_bytes, 0);
        assert!(rec.torn.is_none());
        let framed: usize = rec.records.iter().map(|body| 8 + body.len()).sum();
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            (LOG_MAGIC.len() + framed) as u64
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = RecordLog::open(&path).expect("open");
        log.append(b"keep-me").expect("append");
        drop(log);
        // simulate a crash mid-append: half a record at the tail
        let mut bytes = std::fs::read(&path).expect("read");
        let clean_len = bytes.len() as u64;
        let mut partial = Vec::new();
        encode_record(b"lost-to-the-crash", &mut partial);
        partial.truncate(partial.len() / 2);
        bytes.extend_from_slice(&partial);
        std::fs::write(&path, &bytes).expect("write");
        let (mut log, rec) = RecordLog::open(&path).expect("recover");
        assert_eq!(rec.records, vec![b"keep-me".to_vec()]);
        assert!(rec.truncated_bytes > 0);
        assert!(matches!(rec.torn, Some(DecodeError::Truncated { .. })));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), clean_len);
        // the recovered log keeps working
        log.append(b"after-recovery").expect("append");
        drop(log);
        let (_, rec) = RecordLog::open(&path).expect("reopen");
        assert_eq!(
            rec.records,
            vec![b"keep-me".to_vec(), b"after-recovery".to_vec()]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_mismatch_drops_the_suffix() {
        let path = tmp_path("crc");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = RecordLog::open(&path).expect("open");
        log.append(b"first").expect("append");
        log.append(b"second").expect("append");
        drop(log);
        let mut bytes = std::fs::read(&path).expect("read");
        // flip one bit inside the second record's body (the last byte)
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x01;
        }
        std::fs::write(&path, &bytes).expect("write");
        let (_, rec) = RecordLog::open(&path).expect("recover");
        assert_eq!(rec.records, vec![b"first".to_vec()]);
        assert_eq!(
            rec.torn,
            Some(DecodeError::Invalid {
                context: "record checksum mismatch"
            })
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_files_are_not_clobbered() {
        let path = tmp_path("foreign");
        std::fs::write(&path, b"definitely not a log").expect("write");
        match RecordLog::open(&path) {
            Err(LogError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"definitely not a log".to_vec()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = tmp_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = RecordLog::open(&path).expect("open");
        log.append(b"old-1").expect("append");
        log.append(b"old-2").expect("append");
        drop(log);
        let bodies: Vec<&[u8]> = vec![b"new-tail"];
        let mut log = RecordLog::rewrite(&path, bodies).expect("rewrite");
        log.append(b"appended-after").expect("append");
        drop(log);
        let (_, rec) = RecordLog::open(&path).expect("reopen");
        assert_eq!(
            rec.records,
            vec![b"new-tail".to_vec(), b"appended-after".to_vec()]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_bodies_are_rejected_and_scanned_as_torn() {
        let path = tmp_path("oversized");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = RecordLog::open(&path).expect("open");
        let huge = vec![0u8; MAX_RECORD_BODY + 1];
        assert!(matches!(
            log.append(&huge),
            Err(LogError::RecordTooLarge { .. })
        ));
        // craft a region whose length prefix declares more than the cap
        let mut region = Vec::new();
        crate::codec::push_u32(&mut region, (MAX_RECORD_BODY + 1) as u32);
        crate::codec::push_u32(&mut region, 0);
        let scan = scan_records(&region);
        assert!(scan.records.is_empty());
        assert!(matches!(
            scan.tail,
            TailState::Torn(DecodeError::Oversized { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
