//! Reading, writing and replaying reference traces.
//!
//! The synthetic generators in [`crate::workload`] stand in for the
//! paper's benchmark suites, but users with real traces (e.g. from a
//! full-system simulator) can feed them through the same pipeline. The
//! format is one reference per line, `R` or `W` followed by a hex or
//! decimal byte address:
//!
//! ```text
//! R 0x7fff0040
//! W 0x1000
//! R 4096
//! ```
//!
//! Blank lines and lines starting with `#` are ignored.

use crate::access::{Access, AccessKind};
use crate::workload::Workload;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Errors from trace parsing.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A malformed line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A corrupt binary trace: bad magic, unsupported version, bad kind
    /// byte, or a truncated record.
    Corrupt {
        /// Byte offset of the corruption within the input.
        offset: u64,
        /// What was wrong at that offset.
        detail: &'static str,
    },
    /// A binary trace declared more records than the reader's cap —
    /// either a corrupt length or an input too large to replay.
    TooLarge {
        /// Records read before giving up.
        records: u64,
        /// The configured record cap.
        limit: u64,
    },
    /// A trace with no references where at least one is required.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
            TraceError::Parse { line, text } => {
                write!(f, "trace line {line} is malformed: {text:?}")
            }
            TraceError::Corrupt { offset, detail } => {
                write!(f, "binary trace corrupt at byte offset {offset}: {detail}")
            }
            TraceError::TooLarge { records, limit } => write!(
                f,
                "binary trace exceeds the record cap ({records} read, limit {limit})"
            ),
            TraceError::Empty => write!(f, "trace must contain at least one access"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Parses one trace line (without comment/blank filtering).
fn parse_line(line: &str, number: usize) -> Result<Access, TraceError> {
    let malformed = || TraceError::Parse {
        line: number,
        text: line.to_owned(),
    };
    let mut parts = line.split_whitespace();
    let kind = match parts.next().ok_or_else(malformed)? {
        "R" | "r" => AccessKind::Read,
        "W" | "w" => AccessKind::Write,
        _ => return Err(malformed()),
    };
    let addr_text = parts.next().ok_or_else(malformed)?;
    if parts.next().is_some() {
        return Err(malformed());
    }
    let addr = if let Some(hex) = addr_text
        .strip_prefix("0x")
        .or_else(|| addr_text.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).map_err(|_| malformed())?
    } else {
        addr_text.parse().map_err(|_| malformed())?
    };
    Ok(Access { addr, kind })
}

/// Reads a whole trace from any reader (note a `&mut R` also works, per
/// the usual `Read` blanket impl).
///
/// # Errors
///
/// [`TraceError::Io`] on read failure, [`TraceError::Parse`] on a
/// malformed line.
pub fn read_trace<R: Read>(reader: R) -> Result<Vec<Access>, TraceError> {
    let _span = nm_telemetry::span(crate::names::TRACE_READ);
    let mut out = Vec::new();
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        out.push(parse_line(trimmed, i + 1)?);
    }
    nm_telemetry::counter_add(crate::names::TRACE_RECORDS, out.len() as u64);
    Ok(out)
}

/// Writes a trace to any writer in the canonical hex format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write, I: IntoIterator<Item = Access>>(
    mut writer: W,
    accesses: I,
) -> io::Result<()> {
    for a in accesses {
        writeln!(writer, "{} {:#x}", a.kind, a.addr)?;
    }
    Ok(())
}

/// Magic bytes opening a binary trace file.
pub const BINARY_MAGIC: [u8; 4] = *b"NMTR";

/// Binary trace format version.
pub const BINARY_VERSION: u8 = 1;

/// Writes a trace in the compact binary format: the magic, a version
/// byte, then 9 bytes per record (1 kind byte: `0` read / `1` write, then
/// the address little-endian).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace_binary<W: Write, I: IntoIterator<Item = Access>>(
    mut writer: W,
    accesses: I,
) -> io::Result<()> {
    writer.write_all(&BINARY_MAGIC)?;
    writer.write_all(&[BINARY_VERSION])?;
    for a in accesses {
        let kind = match a.kind {
            AccessKind::Read => 0u8,
            AccessKind::Write => 1u8,
        };
        writer.write_all(&[kind])?;
        writer.write_all(&a.addr.to_le_bytes())?;
    }
    Ok(())
}

/// Size of the binary header (magic + version byte).
const BINARY_HEADER_BYTES: u64 = 5;

/// Size of one binary record (kind byte + little-endian address).
const BINARY_RECORD_BYTES: u64 = 9;

/// Default record cap for [`read_trace_binary`]: ~2.4 GB of records —
/// far beyond any real workload, close enough to stop a corrupt or
/// hostile length from exhausting memory.
pub const MAX_BINARY_RECORDS: u64 = 1 << 28;

/// Reads a binary trace written by [`write_trace_binary`], capped at
/// [`MAX_BINARY_RECORDS`] records.
///
/// # Errors
///
/// [`TraceError::Io`] on read failure; [`TraceError::Corrupt`] with the
/// byte offset of the damage on a bad magic, unsupported version, bad
/// kind byte, or truncated record; [`TraceError::TooLarge`] past the
/// record cap.
pub fn read_trace_binary<R: Read>(reader: R) -> Result<Vec<Access>, TraceError> {
    read_trace_binary_limited(reader, MAX_BINARY_RECORDS)
}

/// [`read_trace_binary`] with an explicit record cap.
///
/// Record `n` (1-based) starts at byte offset `5 + 9·(n − 1)`; every
/// corruption error names the exact offset so a damaged capture can be
/// inspected with a hex dump.
///
/// # Errors
///
/// As [`read_trace_binary`], with `limit` as the cap.
pub fn read_trace_binary_limited<R: Read>(
    mut reader: R,
    limit: u64,
) -> Result<Vec<Access>, TraceError> {
    let _span = nm_telemetry::span(crate::names::TRACE_READ_BINARY);
    let corrupt = |offset: u64, detail: &'static str| TraceError::Corrupt { offset, detail };
    let mut header = [0u8; BINARY_HEADER_BYTES as usize];
    reader
        .read_exact(&mut header)
        .map_err(|_| corrupt(0, "missing or truncated header"))?;
    if header[..4] != BINARY_MAGIC {
        return Err(corrupt(0, "bad magic (not an nmcache binary trace)"));
    }
    if header[4] != BINARY_VERSION {
        return Err(corrupt(4, "unsupported binary trace version"));
    }
    let mut out = Vec::new();
    let mut record = [0u8; BINARY_RECORD_BYTES as usize];
    let mut n = 0u64;
    loop {
        let record_offset = BINARY_HEADER_BYTES + BINARY_RECORD_BYTES * n;
        // Peek one byte to distinguish clean EOF from truncation.
        let mut first = [0u8; 1];
        match reader.read(&mut first) {
            Ok(0) => {
                nm_telemetry::counter_add(crate::names::TRACE_RECORDS, out.len() as u64);
                return Ok(out);
            }
            Ok(_) => {}
            Err(e) => return Err(TraceError::Io(e)),
        }
        n += 1;
        if n > limit {
            return Err(TraceError::TooLarge {
                records: n - 1,
                limit,
            });
        }
        record[0] = first[0];
        reader
            .read_exact(&mut record[1..])
            .map_err(|_| corrupt(record_offset, "truncated record"))?;
        let kind = match record[0] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => return Err(corrupt(record_offset, "bad kind byte")),
        };
        let mut addr_bytes = [0u8; 8];
        addr_bytes.copy_from_slice(&record[1..]);
        let addr = u64::from_le_bytes(addr_bytes);
        out.push(Access { addr, kind });
    }
}

/// A [`Workload`] that replays a recorded trace, cycling when exhausted.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    accesses: Vec<Access>,
    position: usize,
}

impl TraceWorkload {
    /// Wraps a recorded trace, rejecting an empty one with a typed error.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when `accesses` holds no references.
    pub fn try_new(accesses: Vec<Access>) -> Result<Self, TraceError> {
        if accesses.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(TraceWorkload {
            accesses,
            position: 0,
        })
    }

    /// Number of recorded references.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Always `false` (construction rejects empty traces).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Workload for TraceWorkload {
    fn next_access(&mut self) -> Access {
        let a = self.accesses[self.position];
        self.position = (self.position + 1) % self.accesses.len();
        a
    }

    fn name(&self) -> &'static str {
        "trace-replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = vec![
            Access::read(0x1000),
            Access::write(0x2040),
            Access::read(64),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, trace.clone()).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn parses_hex_and_decimal_and_case() {
        let text = "R 0x40\nw 0X80\nR 4096\n";
        let t = read_trace(text.as_bytes()).unwrap();
        assert_eq!(t[0], Access::read(0x40));
        assert_eq!(t[1], Access::write(0x80));
        assert_eq!(t[2], Access::read(4096));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\nR 0x40\n   \n# tail\nW 0x80\n";
        let t = read_trace(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reports_malformed_line_numbers() {
        let text = "R 0x40\nX 0x80\n";
        match read_trace(text.as_bytes()) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(read_trace("R\n".as_bytes()).is_err());
        assert!(read_trace("R 0x40 extra\n".as_bytes()).is_err());
        assert!(read_trace("R zz\n".as_bytes()).is_err());
    }

    #[test]
    fn replay_cycles() {
        let mut w =
            TraceWorkload::try_new(vec![Access::read(1), Access::read(2)]).expect("non-empty");
        assert_eq!(w.next_access().addr, 1);
        assert_eq!(w.next_access().addr, 2);
        assert_eq!(w.next_access().addr, 1);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.name(), "trace-replay");
    }

    #[test]
    fn binary_roundtrip() {
        let trace = vec![
            Access::read(0),
            Access::write(u64::MAX),
            Access::read(0xdead_beef),
        ];
        let mut buf = Vec::new();
        write_trace_binary(&mut buf, trace.clone()).unwrap();
        assert_eq!(buf.len(), 5 + 9 * trace.len());
        let back = read_trace_binary(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn binary_rejects_bad_headers_with_offsets() {
        match read_trace_binary(&b"XXXX\x01"[..]) {
            Err(TraceError::Corrupt { offset: 0, detail }) => {
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected corrupt magic, got {other:?}"),
        }
        match read_trace_binary(&b"NMTR\x09"[..]) {
            Err(TraceError::Corrupt { offset: 4, detail }) => {
                assert!(detail.contains("version"), "{detail}");
            }
            other => panic!("expected corrupt version, got {other:?}"),
        }
        match read_trace_binary(&b"NMT"[..]) {
            Err(TraceError::Corrupt { offset: 0, detail }) => {
                assert!(detail.contains("header"), "{detail}");
            }
            other => panic!("expected truncated header, got {other:?}"),
        }
    }

    #[test]
    fn binary_truncation_reports_the_record_offset() {
        let mut buf = Vec::new();
        write_trace_binary(&mut buf, vec![Access::read(7), Access::write(8)]).unwrap();
        buf.truncate(buf.len() - 3); // truncate record 2 mid-address
        match read_trace_binary(buf.as_slice()) {
            // Record 2 starts at 5 + 9·1 = 14.
            Err(TraceError::Corrupt { offset: 14, detail }) => {
                assert!(detail.contains("truncated"), "{detail}");
            }
            other => panic!("expected truncation at offset 14, got {other:?}"),
        }
    }

    #[test]
    fn binary_bad_kind_reports_the_record_offset() {
        let mut bad_kind = Vec::new();
        write_trace_binary(&mut bad_kind, vec![Access::read(7), Access::read(9)]).unwrap();
        bad_kind[14] = 9; // corrupt record 2's kind byte
        match read_trace_binary(bad_kind.as_slice()) {
            Err(TraceError::Corrupt { offset: 14, detail }) => {
                assert!(detail.contains("kind"), "{detail}");
            }
            other => panic!("expected bad kind at offset 14, got {other:?}"),
        }
    }

    #[test]
    fn binary_record_cap_rejects_oversized_inputs() {
        let trace: Vec<Access> = (0..10).map(Access::read).collect();
        let mut buf = Vec::new();
        write_trace_binary(&mut buf, trace.clone()).unwrap();
        // Under the cap: fine.
        assert_eq!(
            read_trace_binary_limited(buf.as_slice(), 10).unwrap(),
            trace
        );
        // One over: typed error, not unbounded allocation.
        match read_trace_binary_limited(buf.as_slice(), 9) {
            Err(TraceError::TooLarge {
                records: 9,
                limit: 9,
            }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn corruption_errors_display_the_offset() {
        let e = TraceError::Corrupt {
            offset: 14,
            detail: "truncated record",
        };
        let text = e.to_string();
        assert!(text.contains("offset 14"), "{text}");
        assert!(TraceError::Empty.to_string().contains("at least one"));
    }

    #[test]
    fn try_new_rejects_empty_traces_with_a_typed_error() {
        assert!(matches!(
            TraceWorkload::try_new(vec![]),
            Err(TraceError::Empty)
        ));
        let w = TraceWorkload::try_new(vec![Access::read(1)]).unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn empty_binary_trace_is_legal() {
        let mut buf = Vec::new();
        write_trace_binary(&mut buf, Vec::<Access>::new()).unwrap();
        assert!(read_trace_binary(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn replay_feeds_simulator() {
        use crate::cache::{CacheParams, CacheSim, Replacement};
        let mut w =
            TraceWorkload::try_new(vec![Access::read(0), Access::read(0x40)]).expect("non-empty");
        let mut sim = CacheSim::new(CacheParams::new(1024, 64, 2).unwrap(), Replacement::Lru);
        for _ in 0..10 {
            sim.access(w.next_access());
        }
        // Two compulsory misses then pure hits.
        assert_eq!(sim.stats().misses, 2);
    }
}
