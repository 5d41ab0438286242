//! The byte-level codec core shared by every durable and wire format in the
//! workspace: a bounds-checked [`Reader`] cursor, the typed [`DecodeError`],
//! and the [`WireCodec`] trait value types implement in matched
//! encode/decode pairs.
//!
//! This module used to live inside the socket engine
//! (`ec-replication::net::codec`); it moved here so the storage layer's
//! record bodies and the network layer's frame bodies are decoded by the
//! *same* total, panic-free machinery. `ec-replication` re-exports these
//! items under their old paths.
//!
//! Decoding is *total*: malformed input of any shape yields a typed
//! [`DecodeError`], never a panic, never an unbounded allocation (list
//! counts are validated against the bytes actually present, and callers cap
//! declared lengths before allocating). Non-canonical encodings are rejected
//! rather than repaired, so `decode(encode(x)) == x` and *only* encodings
//! produced by [`WireCodec::encode`] are accepted.

use std::fmt;

/// Why a byte sequence failed to decode. Every malformed input maps to one
/// of these — the decoding path has no panicking branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a field was complete.
    Truncated {
        /// Bytes the current field still needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The input continued past the end of a complete value.
    TrailingBytes {
        /// Unconsumed byte count.
        remaining: usize,
    },
    /// An enum tag byte matched no variant.
    BadTag {
        /// Which enum was being decoded.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length or count field was impossible: a list count larger than the
    /// remaining bytes could hold, or a value overflowing `usize`.
    BadLength {
        /// Which field was being decoded.
        context: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A body length prefix exceeded the decoder's cap (a frame's
    /// `MAX_FRAME_BODY`, a log record's `MAX_RECORD_BODY`), so a hostile or
    /// corrupted prefix cannot make a reader reserve gigabytes.
    Oversized {
        /// The declared body length.
        declared: u64,
    },
    /// A structurally well-formed but non-canonical encoding: digest runs
    /// out of order or non-maximal, duplicate graph nodes, duplicate digest
    /// origins, a record checksum that does not match its body.
    Invalid {
        /// Which invariant was violated.
        context: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            DecodeError::BadTag { context, tag } => {
                write!(f, "unknown tag {tag} for {context}")
            }
            DecodeError::BadLength { context, value } => {
                write!(f, "impossible length {value} for {context}")
            }
            DecodeError::Oversized { declared } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the decoder's cap"
                )
            }
            DecodeError::Invalid { context } => {
                write!(f, "non-canonical encoding: {context}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over an input buffer. All reads narrow the
/// remaining slice; none of them can panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.buf.len() {
            return Err(DecodeError::Truncated {
                needed: n,
                available: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn be_uint(&mut self, width: usize) -> Result<u64, DecodeError> {
        let bytes = self.take(width)?;
        Ok(bytes.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b)))
    }

    /// Consumes one byte.
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.be_uint(1)? as u8)
    }

    /// Consumes a big-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(self.be_uint(4)? as u32)
    }

    /// Consumes a big-endian u64.
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        self.be_uint(8)
    }

    /// Consumes a u32 length prefix followed by that many raw bytes.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.read_u32()? as usize;
        self.take(len)
    }

    /// Consumes a u32 element count and validates it against the bytes
    /// still present: each element needs at least `min_elem` bytes, so a
    /// count the remaining input cannot possibly hold is rejected before
    /// any allocation.
    pub fn read_count(
        &mut self,
        min_elem: usize,
        context: &'static str,
    ) -> Result<usize, DecodeError> {
        let count = self.read_u32()? as usize;
        if count > self.remaining() / min_elem.max(1) {
            return Err(DecodeError::BadLength {
                context,
                value: count as u64,
            });
        }
        Ok(count)
    }

    /// Asserts that the input was consumed completely.
    pub fn ensure_consumed(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: self.buf.len(),
            })
        }
    }
}

/// Where [`WireCodec::encode`] writes: a byte buffer, or the counter behind
/// [`encoded_len`] that keeps only the length. Each type's one `encode`
/// therefore yields both its bytes and their count; there is no second
/// description of a layout that could drift from the first.
pub trait Sink {
    /// Appends raw bytes.
    fn write_raw(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn write_raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that counts the bytes written and stores none of them.
struct ByteCount(u64);

impl Sink for ByteCount {
    #[inline]
    fn write_raw(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// Appends one byte (an enum tag).
pub fn push_u8<S: Sink>(out: &mut S, v: u8) {
    out.write_raw(&[v]);
}

/// Appends a big-endian u32.
pub fn push_u32<S: Sink>(out: &mut S, v: u32) {
    out.write_raw(&v.to_be_bytes());
}

/// Appends a big-endian u64.
pub fn push_u64<S: Sink>(out: &mut S, v: u64) {
    out.write_raw(&v.to_be_bytes());
}

/// Appends a u32 length prefix followed by the raw bytes.
pub fn push_bytes<S: Sink>(out: &mut S, bytes: &[u8]) {
    push_u32(out, bytes.len() as u32);
    out.write_raw(bytes);
}

/// Reads a u64 and narrows it to `usize`, rejecting values that overflow.
pub fn read_usize(r: &mut Reader<'_>, context: &'static str) -> Result<usize, DecodeError> {
    let v = r.read_u64()?;
    usize::try_from(v).map_err(|_| DecodeError::BadLength { context, value: v })
}

/// A value with a self-contained binary encoding (on a socket engine frame,
/// or in a durable log/snapshot record). Implementations come in matched
/// pairs: `decode` accepts exactly the encodings `encode` produces
/// (canonical round-trip), and rejects everything else with a typed
/// [`DecodeError`].
pub trait WireCodec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode<S: Sink>(&self, out: &mut S);

    /// Decodes one value, consuming exactly its encoding from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Length in bytes of `value`'s canonical encoding: its `encode` run over a
/// counting [`Sink`], so nothing is allocated and no payload byte is copied.
/// This is what the sim and thread engines charge per message
/// (`Algorithm::wire_size`) — the same bytes the socket engine frames.
pub fn encoded_len<T: WireCodec>(value: &T) -> u64 {
    let mut count = ByteCount(0);
    value.encode(&mut count);
    count.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_narrows_and_rejects_overreads() {
        let mut r = Reader::new(&[0, 0, 0, 2, 0xAB, 0xCD, 7]);
        assert_eq!(r.remaining(), 7);
        assert_eq!(r.read_bytes(), Ok(&[0xAB, 0xCD][..]));
        assert_eq!(r.read_u8(), Ok(7));
        assert_eq!(
            r.read_u64(),
            Err(DecodeError::Truncated {
                needed: 8,
                available: 0
            })
        );
    }

    #[test]
    fn counts_are_validated_before_allocation() {
        let mut body = Vec::new();
        push_u32(&mut body, u32::MAX);
        let mut r = Reader::new(&body);
        assert_eq!(
            r.read_count(12, "list"),
            Err(DecodeError::BadLength {
                context: "list",
                value: u64::from(u32::MAX),
            })
        );
    }

    #[test]
    fn errors_render() {
        for err in [
            DecodeError::Truncated {
                needed: 4,
                available: 1,
            },
            DecodeError::TrailingBytes { remaining: 2 },
            DecodeError::BadTag {
                context: "Frame",
                tag: 7,
            },
            DecodeError::BadLength {
                context: "list",
                value: 9,
            },
            DecodeError::Oversized { declared: 1 << 40 },
            DecodeError::Invalid { context: "runs" },
        ] {
            assert!(!format!("{err}").is_empty());
            assert!(!format!("{err:?}").is_empty());
        }
    }

    #[test]
    fn ensure_consumed_flags_trailing_bytes() {
        let r = Reader::new(&[1]);
        assert_eq!(
            r.ensure_consumed(),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
        let mut r = Reader::new(&[1]);
        let _ = r.read_u8();
        assert_eq!(r.ensure_consumed(), Ok(()));
    }
}
