//! The linearized APT intermediate files.
//!
//! "The evaluation strategy calls for storing a linearized version of the
//! APT in an intermediate file … Two intermediate files are used per pass;
//! APT nodes are read from one intermediate file and written to the other"
//! (§II). The key trick is directional: "if the output file of a
//! left-to-right pass is read backwards it can be the input file for a
//! right-to-left pass". To make a byte file readable in both directions,
//! every record is framed with its length on *both* sides; format v2 also
//! stamps each record with a CRC-32 of its payload:
//!
//! ```text
//! [len: u32][payload: len bytes][crc32: u32][len: u32]
//! ```
//!
//! A forward reader consumes the leading length; a backward reader starts
//! at the end and consumes the trailing one. Either way a file is read
//! through one fixed window that refills towards the read direction, so
//! a pass costs one read per 64 KiB, not several per record, and a
//! reader holds at most the window plus its largest frame. Records carry
//! either a symbol node (leaf or interior) or a production node (the
//! paper's limb record, which also tells the visiting procedure *which*
//! production applies — "to synchronize the identification of
//! productions with the parser").
//!
//! Because the APT lives on secondary storage between passes, each
//! boundary file is also a *checkpoint*: the per-record CRCs plus a
//! checksummed header mean corruption surfaces as a typed
//! [`AptError::Checksum`]/[`AptError::Frame`]/[`AptError::Header`] at the
//! offending record — never as silently wrong attribute values — and an
//! intact boundary file can seed a resumed evaluation (see
//! [`manifest`](crate::manifest) and
//! [`evaluate_resumable`](crate::machine::evaluate_resumable)).

use crate::crc;
use crate::value::{DecodeError, Value};
use linguist_ag::ids::{AttrId, ProdId, SymbolId};
use std::cell::Cell;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic bytes opening every intermediate APT file.
const MAGIC: [u8; 4] = *b"APT1";
/// Format version stamped after the magic (v2 added record and header
/// CRCs; v1 files are rejected with [`HeaderError::UnsupportedVersion`]).
const VERSION: u16 = 2;
/// Fixed header size: magic (4) + version (2) + reserved (2) +
/// total records (8) + total framed record bytes (8) + header CRC (4).
pub(crate) const HEADER_LEN: u64 = 28;
/// Bytes of the header covered by its CRC (everything before the CRC).
const HEADER_CRC_AT: usize = 24;
/// Frame overhead around a payload: lead length (4) + CRC (4) + trail
/// length (4).
const FRAME_OVERHEAD: u64 = 12;
/// Smallest possible framed record: the frame overhead around the
/// minimal payload (1-byte tag + 4-byte id + 2-byte value count).
const MIN_FRAMED_RECORD: u64 = FRAME_OVERHEAD + 7;

fn encode_header(records: u64, bytes: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&records.to_le_bytes());
    h[16..24].copy_from_slice(&bytes.to_le_bytes());
    let crc = crc::crc32(&h[..HEADER_CRC_AT]);
    h[24..28].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Why an APT file header was rejected at open time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeaderError {
    /// The file is shorter than a header.
    Truncated {
        /// Actual file length.
        len: u64,
    },
    /// The magic bytes are wrong — not an APT file, or a corrupted one.
    BadMagic,
    /// The version field names a format this reader does not speak.
    UnsupportedVersion {
        /// The version found in the file.
        found: u16,
    },
    /// The header CRC does not match its fields — some header byte was
    /// flipped after the writer sealed it.
    Checksum {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC recomputed over the header fields.
        found: u32,
    },
    /// The header's recorded body length disagrees with the file size
    /// (truncated mid-write, or bytes flipped in the header totals).
    LengthMismatch {
        /// Body bytes the header promises.
        expected: u64,
        /// Body bytes actually present.
        actual: u64,
    },
    /// The header's record count cannot fit in the body it describes
    /// (every framed record occupies at least 19 bytes).
    ImplausibleRecordCount {
        /// Records the header promises.
        records: u64,
        /// Body bytes available to hold them.
        bytes: u64,
    },
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::Truncated { len } => {
                write!(f, "file of {} bytes is shorter than the header", len)
            }
            HeaderError::BadMagic => write!(f, "bad magic (not an APT file)"),
            HeaderError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {}", found)
            }
            HeaderError::Checksum { expected, found } => write!(
                f,
                "header checksum mismatch (recorded {:08x}, computed {:08x})",
                expected, found
            ),
            HeaderError::LengthMismatch { expected, actual } => write!(
                f,
                "header promises {} body bytes but the file holds {}",
                expected, actual
            ),
            HeaderError::ImplausibleRecordCount { records, bytes } => write!(
                f,
                "header promises {} records but only {} body bytes hold them",
                records, bytes
            ),
        }
    }
}

/// A deliberately injected I/O failure, for fault testing.
///
/// A spec is armed with a number of shots (`fires`); each reader or
/// writer crossing `after_records` records on the targeted side consumes
/// one shot and fails, until the shots run out. The counter is an
/// `Arc<AtomicU32>` shared across every clone, so in a batch run the
/// faults are distributed over at most `fires` observations total.
///
/// A one-shot spec ([`FaultSpec::new`]) models a *permanent* fault for
/// the job that hits it; a multi-shot spec ([`FaultSpec::transient`])
/// models a *transient* fault that heals after `fires` failures — the
/// deterministic test fixture for
/// [`RetryPolicy`](crate::machine::RetryPolicy) recovery paths.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The pass whose reader/writer carries the fault (0 targets the
    /// parser-built initial emission).
    pub pass: u16,
    /// Inject on the read or the write side.
    pub target: FaultTarget,
    /// Fire when this many records have already been transferred.
    pub after_records: u64,
    remaining: Arc<AtomicU32>,
}

/// Which side of a pass a [`FaultSpec`] poisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// Fail an [`AptReader::next`] call.
    Read,
    /// Fail an [`AptWriter::write`] call.
    Write,
}

impl FaultSpec {
    /// An armed one-shot fault on `target` of `pass`, firing after
    /// `after_records` successful records.
    pub fn new(pass: u16, target: FaultTarget, after_records: u64) -> FaultSpec {
        FaultSpec::transient(pass, target, after_records, 1)
    }

    /// A transient N-shot fault: fails the first `fires` qualifying
    /// operations, then heals. With `fires` smaller than a retry
    /// policy's attempt budget, the evaluation recovers deterministically.
    pub fn transient(pass: u16, target: FaultTarget, after_records: u64, fires: u32) -> FaultSpec {
        FaultSpec {
            pass,
            target,
            after_records,
            remaining: Arc::new(AtomicU32::new(fires)),
        }
    }

    /// True while the fault has shots left to fire.
    pub fn is_armed(&self) -> bool {
        self.remaining.load(Ordering::Relaxed) > 0
    }

    /// Shots not yet fired.
    pub fn shots_left(&self) -> u32 {
        self.remaining.load(Ordering::Relaxed)
    }

    fn fire(&self, records_so_far: u64) -> Result<(), AptError> {
        if records_so_far < self.after_records {
            return Ok(());
        }
        let took_shot = self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
            .is_ok();
        if took_shot {
            return Err(AptError::Io(io::Error::other(format!(
                "injected fault after {} records",
                records_so_far
            ))));
        }
        Ok(())
    }
}

/// What a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordBody {
    /// A node labelled with a grammar symbol (terminal leaf or
    /// nonterminal interior node).
    Sym(SymbolId),
    /// A production/limb record: identifies the production applying at an
    /// interior node and carries limb-attribute instances.
    Prod(ProdId),
}

/// One record of an intermediate APT file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Node or production tag.
    pub body: RecordBody,
    /// Attribute instances travelling with the record, sorted by attribute
    /// id (self-describing layout).
    pub values: Vec<(AttrId, Value)>,
}

impl Record {
    /// Serialized payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the serialized payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_head(out, self.body, self.values.len());
        for (a, v) in &self.values {
            out.extend_from_slice(&a.0.to_le_bytes());
            v.encode(out);
        }
    }

    /// Decode a payload produced by [`Record::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`AptError::Decode`] on malformed payloads.
    pub fn decode(buf: &[u8]) -> Result<Record, AptError> {
        let mut pos = 0usize;
        let err = |at| AptError::Decode(DecodeError { at });
        let tag = *buf.first().ok_or(err(0))?;
        pos += 1;
        let id_bytes: [u8; 4] = buf
            .get(pos..pos + 4)
            .ok_or(err(pos))?
            .try_into()
            .expect("sized");
        pos += 4;
        let id = u32::from_le_bytes(id_bytes);
        let body = match tag {
            0 => RecordBody::Sym(SymbolId(id)),
            1 => RecordBody::Prod(ProdId(id)),
            _ => return Err(err(0)),
        };
        let n_bytes: [u8; 2] = buf
            .get(pos..pos + 2)
            .ok_or(err(pos))?
            .try_into()
            .expect("sized");
        pos += 2;
        let n = u16::from_le_bytes(n_bytes) as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let a_bytes: [u8; 4] = buf
                .get(pos..pos + 4)
                .ok_or(err(pos))?
                .try_into()
                .expect("sized");
            pos += 4;
            let v = Value::decode(buf, &mut pos).map_err(AptError::Decode)?;
            values.push((AttrId(u32::from_le_bytes(a_bytes)), v));
        }
        if pos != buf.len() {
            return Err(err(pos));
        }
        Ok(Record { body, values })
    }

    /// Look up an attribute instance in the record.
    pub fn value_of(&self, a: AttrId) -> Option<&Value> {
        self.values
            .iter()
            .find(|(attr, _)| *attr == a)
            .map(|(_, v)| v)
    }
}

/// Append a payload's head: the body tag and id, then the value count.
fn encode_head(out: &mut Vec<u8>, body: RecordBody, values: usize) {
    let (tag, id) = match body {
        RecordBody::Sym(s) => (0u8, s.0),
        RecordBody::Prod(p) => (1u8, p.0),
    };
    out.push(tag);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(values as u16).to_le_bytes());
}

/// Append the payload of a record whose values are the present slots of
/// `layout` (`(attr, slot)` pairs sorted by attribute id): the bytes
/// [`Record::encode_into`] gives for the record `collect_alive` builds,
/// without building it.
///
/// [`collect_alive`]: crate::compiled::collect_alive
fn encode_slots(
    out: &mut Vec<u8>,
    body: RecordBody,
    slots: &[Option<Value>],
    layout: &[(u32, usize)],
) {
    let present = layout.iter().filter(|&&(_, s)| slots[s].is_some()).count();
    encode_head(out, body, present);
    for &(a, s) in layout {
        if let Some(v) = &slots[s] {
            out.extend_from_slice(&a.to_le_bytes());
            v.encode(out);
        }
    }
}

/// I/O or format failure on an APT file.
#[derive(Debug)]
pub enum AptError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Malformed record payload.
    Decode(DecodeError),
    /// A record frame is inconsistent (leading/trailing length mismatch or
    /// truncated file).
    Frame {
        /// Byte offset of the bad frame.
        at: u64,
    },
    /// A record's payload does not match its recorded CRC-32 — the bytes
    /// were corrupted after the writer framed them. Detected *before*
    /// decoding, so a flipped byte can never surface as a silently wrong
    /// attribute value.
    Checksum {
        /// Byte offset of the corrupt record's frame.
        at: u64,
        /// CRC recorded in the frame.
        expected: u32,
        /// CRC recomputed over the payload.
        found: u32,
    },
    /// The file header is missing, corrupt, or inconsistent with the file
    /// size — detected at [`AptReader::open`] time, before any record is
    /// served.
    Header(HeaderError),
    /// An error with the offending file (and, once the evaluation machine
    /// has attributed it, the pass) attached — so a batch failure report
    /// can say *which* boundary file failed, not just that something did.
    File {
        /// Path of the boundary file the error occurred on.
        path: PathBuf,
        /// Evaluation pass that was running, when known.
        pass: Option<u16>,
        /// The underlying failure.
        source: Box<AptError>,
    },
}

impl AptError {
    /// Attach a file path, unless one is already attached.
    pub fn in_file(self, path: &Path) -> AptError {
        match self {
            AptError::File { .. } => self,
            other => AptError::File {
                path: path.to_path_buf(),
                pass: None,
                source: Box::new(other),
            },
        }
    }

    /// Attach the running pass to an error that already carries a file
    /// (memory-backed errors, having no file, pass through unchanged).
    pub fn at_pass(self, pass: u16) -> AptError {
        match self {
            AptError::File {
                path,
                pass: None,
                source,
            } => AptError::File {
                path,
                pass: Some(pass),
                source,
            },
            other => other,
        }
    }

    /// The underlying error with any [`File`](AptError::File) context
    /// stripped — what [`FailureKind`](crate::batch::FailureKind)
    /// classification looks at.
    pub fn root(&self) -> &AptError {
        match self {
            AptError::File { source, .. } => source.root(),
            other => other,
        }
    }
}

impl fmt::Display for AptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AptError::Io(e) => write!(f, "APT file I/O error: {}", e),
            AptError::Decode(e) => write!(f, "APT record: {}", e),
            AptError::Frame { at } => write!(f, "APT file frame corrupt at byte {}", at),
            AptError::Checksum {
                at,
                expected,
                found,
            } => write!(
                f,
                "APT record checksum mismatch at byte {} (recorded {:08x}, computed {:08x})",
                at, expected, found
            ),
            AptError::Header(e) => write!(f, "APT file header: {}", e),
            AptError::File { path, pass, source } => match pass {
                Some(k) => write!(f, "pass {} on {}: {}", k, path.display(), source),
                None => write!(f, "{}: {}", path.display(), source),
            },
        }
    }
}

impl std::error::Error for AptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AptError::Io(e) => Some(e),
            AptError::Decode(e) => Some(e),
            AptError::File { source, .. } => Some(source),
            AptError::Frame { .. } | AptError::Checksum { .. } | AptError::Header(_) => None,
        }
    }
}

impl From<io::Error> for AptError {
    fn from(e: io::Error) -> AptError {
        AptError::Io(e)
    }
}

/// Totals of one finished APT file: what the manifest records per
/// completed pass boundary, and what resume-time validation recomputes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FileSummary {
    /// Records in the body.
    pub records: u64,
    /// Framed body bytes (excluding the header).
    pub bytes: u64,
    /// CRC-32 over every framed body byte, in order. Only a durable
    /// writer ([`AptWriter::set_sync`]), whose summary a checkpoint
    /// manifest records, computes it; every other writer leaves `None`.
    pub crc: Option<u32>,
}

/// Sequential writer of an intermediate APT file (disk- or RAM-backed).
///
/// Every file opens with a fixed header whose totals are patched in by
/// [`AptWriter::finish`]; a file abandoned before `finish` (or truncated
/// afterwards) is rejected by [`AptReader::open`] with a typed
/// [`HeaderError`] instead of being served as silently empty.
#[derive(Debug)]
pub struct AptWriter {
    sink: Sink,
    /// Frame under construction for a file sink (an owned sink frames in
    /// place), reused across records.
    frame: Vec<u8>,
    path: Option<PathBuf>,
    bytes: u64,
    records: u64,
    /// Running CRC-32 of the framed body, kept by durable writers only:
    /// `Some` exactly when [`finish`](Self::finish) must fsync.
    crc: Option<u32>,
    fault: Option<FaultSpec>,
}

#[derive(Debug)]
enum Sink {
    File(BufWriter<File>),
    /// Job-owned buffer: no `Arc`, no `Mutex` — the shared-nothing hot
    /// path. Sealed into an immutable `Arc<Vec<u8>>` by
    /// [`AptWriter::finish_owned`].
    Owned(Vec<u8>),
}

impl AptWriter {
    /// Create (truncate) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, tagged with `path`.
    pub fn create(path: &Path) -> Result<AptWriter, AptError> {
        let inner = || -> Result<AptWriter, AptError> {
            let mut f = BufWriter::new(File::create(path)?);
            // Placeholder header; `finish` seeks back and patches the totals.
            f.write_all(&encode_header(0, 0))?;
            Ok(AptWriter {
                sink: Sink::File(f),
                frame: Vec::new(),
                path: Some(path.to_path_buf()),
                bytes: 0,
                records: 0,
                crc: None,
                fault: None,
            })
        };
        inner().map_err(|e| e.in_file(path))
    }

    /// Create a writer over a freshly owned memory buffer.
    ///
    /// This is the shared-nothing hot path: the buffer is plain
    /// `Vec<u8>` owned by the writer, so appends take no lock and bump no
    /// refcount. Retrieve the sealed buffer with
    /// [`finish_owned`](Self::finish_owned).
    pub fn create_owned() -> AptWriter {
        let mut b = Vec::new();
        b.extend_from_slice(&encode_header(0, 0));
        AptWriter {
            sink: Sink::Owned(b),
            frame: Vec::new(),
            path: None,
            bytes: 0,
            records: 0,
            crc: None,
            fault: None,
        }
    }

    /// Attach an injected fault (test support): writes crossing
    /// `spec.after_records` fail with an I/O error while the spec has
    /// shots left.
    pub fn set_fault(&mut self, spec: FaultSpec) {
        self.fault = Some(spec);
    }

    /// Make the writer durable: [`finish`](Self::finish) fsyncs the
    /// file before returning, and the writer keeps the whole-body CRC
    /// its [`FileSummary`] reports — both required before a checkpoint
    /// manifest may claim the boundary. Set it before the first record.
    /// The fsync has no effect on memory-backed writers.
    pub fn set_sync(&mut self, sync: bool) {
        assert_eq!(self.records, 0, "set_sync after a record was written");
        self.crc = sync.then_some(0);
    }

    /// Append one record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (memory writers only fail through an
    /// injected [`FaultSpec`]); disk errors carry the file path.
    pub fn write(&mut self, rec: &Record) -> Result<(), AptError> {
        let r = self.emit(|out| rec.encode_into(out));
        self.with_path(r)
    }

    /// Append one record whose values are the present slots of a frame
    /// in a boundary layout (`(attr, slot)` pairs sorted by attribute
    /// id): the same bytes as [`write`](Self::write) of the record
    /// [`collect_alive`](crate::compiled::collect_alive) builds, encoded
    /// straight from the frame with no value cloned.
    ///
    /// # Errors
    ///
    /// As [`write`](Self::write).
    pub fn write_slots(
        &mut self,
        body: RecordBody,
        slots: &[Option<Value>],
        layout: &[(u32, usize)],
    ) -> Result<(), AptError> {
        let r = self.emit(|out| encode_slots(out, body, slots, layout));
        self.with_path(r)
    }

    fn with_path<T>(&self, r: Result<T, AptError>) -> Result<T, AptError> {
        r.map_err(|e| match &self.path {
            Some(p) => e.in_file(p),
            None => e,
        })
    }

    /// Frame the payload `encode` appends and emit it.
    fn emit(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), AptError> {
        if let Some(fault) = &self.fault {
            fault.fire(self.records)?;
        }
        // `[len][payload][crc32][len]`, built where it will live: at the
        // end of an owned buffer, or in the reused frame for a file.
        let buf = match &mut self.sink {
            Sink::Owned(b) => b,
            Sink::File(_) => {
                self.frame.clear();
                &mut self.frame
            }
        };
        let start = buf.len();
        buf.extend_from_slice(&[0; 4]);
        encode(buf);
        let len = ((buf.len() - start - 4) as u32).to_le_bytes();
        buf[start..start + 4].copy_from_slice(&len);
        let rec_crc = crc::crc32(&buf[start + 4..]);
        buf.extend_from_slice(&rec_crc.to_le_bytes());
        buf.extend_from_slice(&len);
        // Running whole-body CRC, framed bytes in file order.
        if let Some(body_crc) = &mut self.crc {
            *body_crc = crc::update(*body_crc, &buf[start..]);
        }
        let framed = (buf.len() - start) as u64;
        if let Sink::File(f) = &mut self.sink {
            f.write_all(&self.frame)?;
        }
        self.bytes += framed;
        self.records += 1;
        Ok(())
    }

    /// Patch the header totals, flush, and report `(bytes, records)`
    /// written (framed record bytes, excluding the header).
    ///
    /// # Errors
    ///
    /// Propagates the final flush failure.
    pub fn finish(self) -> Result<(u64, u64), AptError> {
        self.finish_summary().map(|s| (s.bytes, s.records))
    }

    /// Like [`finish`](Self::finish), but returns the full
    /// [`FileSummary`], with the whole-body CRC when the writer is
    /// durable — what a checkpoint manifest records for the completed
    /// boundary.
    ///
    /// # Errors
    ///
    /// Propagates the final flush (and, with [`set_sync`](Self::set_sync),
    /// fsync) failure.
    pub fn finish_summary(self) -> Result<FileSummary, AptError> {
        let header = encode_header(self.records, self.bytes);
        let summary = FileSummary {
            records: self.records,
            bytes: self.bytes,
            crc: self.crc,
        };
        let path = self.path;
        let sync = self.crc.is_some();
        let inner = || -> Result<(), AptError> {
            match self.sink {
                Sink::File(f) => {
                    let mut file = f
                        .into_inner()
                        .map_err(|e| AptError::Io(io::Error::other(e.to_string())))?;
                    file.seek(SeekFrom::Start(0))?;
                    file.write_all(&header)?;
                    file.flush()?;
                    if sync {
                        file.sync_all()?;
                    }
                }
                Sink::Owned(mut b) => {
                    b[..HEADER_LEN as usize].copy_from_slice(&header);
                }
            }
            Ok(())
        };
        match inner() {
            Ok(()) => Ok(summary),
            Err(e) => Err(match &path {
                Some(p) => e.in_file(p),
                None => e,
            }),
        }
    }

    /// Like [`finish_summary`](Self::finish_summary), but for a writer
    /// created with [`create_owned`](Self::create_owned): patches the
    /// header in place and hands the sealed buffer back so the caller can
    /// install it (typically as an immutable `Arc<Vec<u8>>`) into its
    /// job-owned store.
    ///
    /// # Errors
    ///
    /// Returns [`AptError::Io`] if the writer was not created with
    /// [`create_owned`](Self::create_owned).
    pub fn finish_owned(self) -> Result<(FileSummary, Vec<u8>), AptError> {
        let header = encode_header(self.records, self.bytes);
        let summary = FileSummary {
            records: self.records,
            bytes: self.bytes,
            crc: self.crc,
        };
        match self.sink {
            Sink::Owned(mut b) => {
                b[..HEADER_LEN as usize].copy_from_slice(&header);
                Ok((summary, b))
            }
            Sink::File(_) => Err(AptError::Io(io::Error::other(
                "finish_owned on a writer without an owned sink",
            ))),
        }
    }
}

/// Read direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadDir {
    /// First record first.
    Forward,
    /// Last record first — "the output file of a left-to-right pass …
    /// read backwards".
    Backward,
}

/// Sequential (possibly backwards) reader of an intermediate APT file
/// (disk- or RAM-backed).
#[derive(Debug)]
pub struct AptReader {
    src: Source,
    path: Option<PathBuf>,
    pos: u64,
    end: u64,
    dir: ReadDir,
    bytes: u64,
    records: u64,
    /// Framed size of the record [`next`](AptReader::next) last returned.
    last: u64,
    total_records: u64,
    total_bytes: u64,
    fault: Option<FaultSpec>,
}

/// Bytes a file-backed reader reads per refill, and so the most it holds
/// at once apart from a single frame larger than this.
const WINDOW: usize = 64 * 1024;

/// A window of a file's bytes that frames decode from in place.
///
/// A file source refills its window towards the read direction, so a
/// sequential pass costs one read per [`WINDOW`] bytes rather than
/// several per record. A sealed shared buffer is a window that already
/// covers the whole file and never refills: records decode straight from
/// it with no lock and no copy (the `Arc` is cloned once per pass, when
/// the store hands out the reader, never per record).
#[derive(Debug)]
struct Source {
    /// Where refills come from; `None` for a shared buffer.
    file: Option<File>,
    /// The bytes held: `window[i]` is file byte `base + i`. Owned solely
    /// by this source when `file` is set.
    window: Arc<Vec<u8>>,
    base: u64,
    /// File length.
    len: u64,
}

impl Source {
    fn file(file: File) -> Result<Source, AptError> {
        let len = file.metadata()?.len();
        Ok(Source {
            file: Some(file),
            window: Arc::default(),
            base: 0,
            len,
        })
    }

    fn shared(buf: Arc<Vec<u8>>) -> Source {
        Source {
            file: None,
            len: buf.len() as u64,
            window: buf,
            base: 0,
        }
    }

    /// The `len` bytes at `pos`, refilling the window if it does not hold
    /// them: forwards the new window starts at `pos`, backwards it ends
    /// at `pos + len`. It spans [`WINDOW`] bytes, or the whole range when
    /// that is longer, clipped to the file.
    fn bytes_at(&mut self, pos: u64, len: usize, dir: ReadDir) -> Result<&[u8], AptError> {
        let end = pos + len as u64;
        if end > self.len {
            return Err(AptError::Frame { at: pos });
        }
        if pos < self.base || end > self.base + self.window.len() as u64 {
            let span = len.max(WINDOW) as u64;
            let (from, to) = match dir {
                ReadDir::Forward => (pos, (pos + span).min(self.len)),
                ReadDir::Backward => (end.saturating_sub(span), end),
            };
            let file = self
                .file
                .as_mut()
                .expect("a shared window covers the whole file");
            let buf = Arc::get_mut(&mut self.window).expect("a file window is never shared");
            let n = (to - from) as usize;
            // Exact, so capacity stays within the largest span ever read.
            buf.reserve_exact(n.saturating_sub(buf.len()));
            buf.resize(n, 0);
            let read = file
                .seek(SeekFrom::Start(from))
                .and_then(|_| file.read_exact(buf));
            if let Err(e) = read {
                buf.clear();
                return Err(e.into());
            }
            self.base = from;
        }
        let at = (pos - self.base) as usize;
        Ok(&self.window[at..at + len])
    }

    /// The little-endian `u32` at `pos`.
    fn u32_at(&mut self, pos: u64, dir: ReadDir) -> Result<u32, AptError> {
        let b = self.bytes_at(pos, 4, dir)?;
        Ok(u32::from_le_bytes(b.try_into().expect("sized")))
    }

    /// Read and validate the header, returning `(body end offset, total
    /// records, total bytes)`. The first window then also holds the first
    /// records, or the whole file when it is smaller than the window.
    fn header(&mut self) -> Result<(u64, u64, u64), AptError> {
        if self.len < HEADER_LEN {
            return Err(AptError::Header(HeaderError::Truncated { len: self.len }));
        }
        let len = self.len;
        let head = self.bytes_at(0, HEADER_LEN as usize, ReadDir::Forward)?;
        check_header(head, len)
    }
}

/// Parse and validate a header read into `head` from a file `len` bytes
/// long, returning `(body end offset, total records, total bytes)`.
fn check_header(head: &[u8], len: u64) -> Result<(u64, u64, u64), AptError> {
    if head[0..4] != MAGIC {
        return Err(AptError::Header(HeaderError::BadMagic));
    }
    let version = u16::from_le_bytes(head[4..6].try_into().expect("sized"));
    if version != VERSION {
        return Err(AptError::Header(HeaderError::UnsupportedVersion {
            found: version,
        }));
    }
    let expected = u32::from_le_bytes(head[24..28].try_into().expect("sized"));
    let found = crc::crc32(&head[..HEADER_CRC_AT]);
    if expected != found {
        return Err(AptError::Header(HeaderError::Checksum { expected, found }));
    }
    let total_bytes = u64::from_le_bytes(head[16..24].try_into().expect("sized"));
    let actual = len - HEADER_LEN;
    if total_bytes != actual {
        return Err(AptError::Header(HeaderError::LengthMismatch {
            expected: total_bytes,
            actual,
        }));
    }
    // A framed record is at least 19 bytes (the frame overhead around a
    // node payload of tag + id + value count), so the promised record
    // count bounds the body size from below; a non-empty body likewise
    // needs at least one record.
    let total_records = u64::from_le_bytes(head[8..16].try_into().expect("sized"));
    let plausible = match total_records.checked_mul(MIN_FRAMED_RECORD) {
        Some(min) => min <= total_bytes && (total_records > 0 || total_bytes == 0),
        None => false,
    };
    if !plausible {
        return Err(AptError::Header(HeaderError::ImplausibleRecordCount {
            records: total_records,
            bytes: total_bytes,
        }));
    }
    Ok((len, total_records, total_bytes))
}

impl AptReader {
    /// Open `path` for reading in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; returns [`AptError::Header`] if the
    /// file is shorter than a header, carries the wrong magic, version or
    /// header CRC, or its recorded body length disagrees with the file
    /// size (a file truncated mid-write — e.g. never
    /// [`finish`](AptWriter::finish)ed — is rejected here rather than
    /// read as empty). Every error carries `path`.
    pub fn open(path: &Path, dir: ReadDir) -> Result<AptReader, AptError> {
        let inner = || AptReader::with_source(Source::file(File::open(path)?)?, dir);
        let mut reader = inner().map_err(|e| e.in_file(path))?;
        reader.path = Some(path.to_path_buf());
        Ok(reader)
    }

    /// Open a sealed, immutably shared boundary buffer for reading in
    /// `dir` — the shared-nothing hot path. The contents are never
    /// mutated after [`AptWriter::finish_owned`] seals them, so records
    /// decode straight from the buffer without a lock; the `Arc` clone
    /// happens once here, not per record.
    ///
    /// # Errors
    ///
    /// Returns [`AptError::Header`] under the same conditions as
    /// [`open`](Self::open).
    pub fn open_shared(buf: Arc<Vec<u8>>, dir: ReadDir) -> Result<AptReader, AptError> {
        AptReader::with_source(Source::shared(buf), dir)
    }

    fn with_source(mut src: Source, dir: ReadDir) -> Result<AptReader, AptError> {
        let (end, total_records, total_bytes) = src.header()?;
        Ok(AptReader {
            src,
            path: None,
            pos: match dir {
                ReadDir::Forward => HEADER_LEN,
                ReadDir::Backward => end,
            },
            end,
            dir,
            bytes: 0,
            records: 0,
            last: 0,
            total_records,
            total_bytes,
            fault: None,
        })
    }

    /// Attach an injected fault (test support): reads crossing
    /// `spec.after_records` fail with an I/O error while the spec has
    /// shots left.
    pub fn set_fault(&mut self, spec: FaultSpec) {
        self.fault = Some(spec);
    }

    /// Read the next record, or `None` at the end (beginning, for
    /// backward readers).
    ///
    /// # Errors
    ///
    /// Returns [`AptError::Frame`] on corrupt framing,
    /// [`AptError::Checksum`] when a payload fails its CRC, and
    /// propagates I/O and decode failures. Disk-backed errors carry the
    /// file path.
    #[allow(clippy::should_implement_trait)] // fallible, not an Iterator
    pub fn next(&mut self) -> Result<Option<Record>, AptError> {
        match self.next_inner() {
            Ok(r) => Ok(r),
            Err(e) => Err(match &self.path {
                Some(p) => e.in_file(p),
                None => e,
            }),
        }
    }

    fn next_inner(&mut self) -> Result<Option<Record>, AptError> {
        if let Some(fault) = &self.fault {
            fault.fire(self.records)?;
        }
        let dir = self.dir;
        // The frame's start and payload length, from the length field on
        // the reading side.
        let (start, len) = match dir {
            ReadDir::Forward => {
                if self.pos >= self.end {
                    return Ok(None);
                }
                let len = self.src.u32_at(self.pos, dir)? as u64;
                if self.pos + FRAME_OVERHEAD + len > self.end {
                    return Err(AptError::Frame { at: self.pos });
                }
                (self.pos, len)
            }
            ReadDir::Backward => {
                if self.pos == HEADER_LEN {
                    return Ok(None);
                }
                if self.pos < HEADER_LEN + FRAME_OVERHEAD {
                    return Err(AptError::Frame { at: self.pos });
                }
                let len = self.src.u32_at(self.pos - 4, dir)? as u64;
                if self.pos < HEADER_LEN + FRAME_OVERHEAD + len {
                    return Err(AptError::Frame { at: self.pos });
                }
                (self.pos - FRAME_OVERHEAD - len, len)
            }
        };
        // `[len][payload][crc32][len]`, decoded in place.
        let framed = FRAME_OVERHEAD + len;
        let frame = self.src.bytes_at(start, framed as usize, dir)?;
        let (lead, rest) = frame.split_at(4);
        let (payload, rest) = rest.split_at(len as usize);
        let (crc4, trail) = rest.split_at(4);
        if lead != trail {
            return Err(AptError::Frame { at: self.pos });
        }
        let expected = u32::from_le_bytes(crc4.try_into().expect("sized"));
        let found = crc::crc32(payload);
        if expected != found {
            return Err(AptError::Checksum {
                at: start,
                expected,
                found,
            });
        }
        self.bytes += framed;
        self.records += 1;
        let rec = Record::decode(payload)?;
        self.last = framed;
        self.pos = match dir {
            ReadDir::Forward => start + framed,
            ReadDir::Backward => start,
        };
        Ok(Some(rec))
    }

    /// Capacity of the buffer a file-backed reader holds (0 for a shared
    /// buffer, which the store owns): at most the window plus the largest
    /// frame read.
    #[doc(hidden)]
    pub fn buffer_capacity(&self) -> usize {
        match self.src.file {
            Some(_) => self.src.window.capacity(),
            None => 0,
        }
    }

    /// Framed size (payload plus lengths and CRC) of the record the
    /// last successful [`next`](Self::next) returned: what the record
    /// occupies in the file, known from its frame without re-encoding.
    pub fn last_frame_bytes(&self) -> u64 {
        self.last
    }

    /// Bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }

    /// Records consumed so far.
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// Total records the (validated) header promises.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Total framed body bytes the (validated) header promises.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// Validate a finished APT file end to end and return its
/// [`FileSummary`]: header checks as in [`AptReader::open`], then a
/// single sequential read of the body computing the whole-body CRC.
///
/// This is the resume-time integrity check: a boundary file whose
/// summary matches its manifest entry is bit-identical to what the
/// writer produced, so an evaluation may safely restart from it.
///
/// # Errors
///
/// Propagates filesystem errors and typed [`AptError::Header`] failures,
/// tagged with `path`.
pub fn file_summary(path: &Path) -> Result<FileSummary, AptError> {
    let inner = || -> Result<FileSummary, AptError> {
        let mut src = Source::file(File::open(path)?)?;
        let (end, records, bytes) = src.header()?;
        let mut crc = 0u32;
        let mut pos = HEADER_LEN;
        while pos < end {
            let n = (end - pos).min(WINDOW as u64);
            crc = crc::update(crc, src.bytes_at(pos, n as usize, ReadDir::Forward)?);
            pos += n;
        }
        Ok(FileSummary {
            records,
            bytes,
            crc: Some(crc),
        })
    };
    inner().map_err(|e| e.in_file(path))
}

/// Path of the boundary-`k` file inside `dir` — the shared layout of
/// [`TempAptDir`]s and persistent checkpoint directories, so a resumed
/// evaluation finds the files a killed one left behind.
pub fn boundary_path(dir: &Path, k: u16) -> PathBuf {
    dir.join(format!("boundary_{}.apt", k))
}

/// A self-cleaning directory for one evaluation's intermediate files.
#[derive(Debug)]
pub struct TempAptDir {
    dir: PathBuf,
    /// When [`LOCK_FILE`] was last written.
    locked_at: Cell<Instant>,
}

/// Prefix of every [`TempAptDir`] under the system temp directory; the
/// process id follows, then a per-process counter.
const TEMP_DIR_PREFIX: &str = "linguist86-apt-";

/// Name of the liveness lock file inside every [`TempAptDir`]. It holds
/// the owning pid; its *mtime* is the owner's heartbeat.
const LOCK_FILE: &str = "LOCK";

/// How old the last [`LOCK_FILE`] write must be before
/// [`TempAptDir::refresh_lock`] writes it again: far below the sweeper's
/// `max_age` (24 h in the CLI), far above a typical evaluation.
const LOCK_HEARTBEAT: Duration = Duration::from_secs(60);

fn write_lock(dir: &Path) -> io::Result<()> {
    std::fs::write(dir.join(LOCK_FILE), format!("{}\n", std::process::id()))
}

impl TempAptDir {
    /// Create a fresh private directory under the system temp dir,
    /// guarded by a [`LOCK_FILE`] so a concurrent
    /// [`sweep_stale`](TempAptDir::sweep_stale) in another process never
    /// deletes it out from under an in-flight evaluation.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn new() -> Result<TempAptDir, AptError> {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("{}{}-{}", TEMP_DIR_PREFIX, std::process::id(), n));
        std::fs::create_dir_all(&dir)?;
        write_lock(&dir)?;
        Ok(TempAptDir {
            dir,
            locked_at: Cell::new(Instant::now()),
        })
    }

    /// Refresh the lock file's heartbeat once its last write is older
    /// than [`LOCK_HEARTBEAT`]. The evaluation machine calls this at
    /// every pass boundary, so a long-running evaluation keeps an mtime
    /// at most a minute plus one pass old, and a sweeping daemon (whose
    /// `max_age` far exceeds that) leaves the directory alone even on
    /// platforms where pid liveness cannot be checked; an evaluation
    /// shorter than the interval never rewrites the lock. Best-effort: a
    /// failure to touch the lock never fails the evaluation, and the next
    /// call tries again.
    pub fn refresh_lock(&self) {
        if self.locked_at.get().elapsed() >= LOCK_HEARTBEAT && write_lock(&self.dir).is_ok() {
            self.locked_at.set(Instant::now());
        }
    }

    /// Path of the file holding the boundary-`k` snapshot (boundary 0 is
    /// the parser-built initial file).
    pub fn boundary(&self, k: u16) -> PathBuf {
        boundary_path(&self.dir, k)
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Remove leaked temp directories of *dead* LINGUIST processes.
    ///
    /// `Drop` cleans up on orderly shutdown, but a process killed
    /// mid-evaluation leaks its directory. This sweeps the system temp
    /// dir for `linguist86-apt-<pid>-<n>` entries whose owning process
    /// is gone (or, where liveness cannot be checked, whose modification
    /// time is older than `max_age`), and returns how many were removed.
    /// Directories of the calling process are never touched, and neither
    /// is any directory with a *live* [`LOCK_FILE`] — one whose recorded
    /// pid is still running, or whose heartbeat mtime is younger than
    /// `max_age`. That lock guard is what lets a resident daemon sweep
    /// on its own schedule without deleting the scratch directory of a
    /// request that is still in flight (the dir-name pid check alone is
    /// defeated by pid recycling, and the mtime fallback alone would
    /// reap a slow evaluation's directory mid-pass).
    ///
    /// # Errors
    ///
    /// Propagates the temp-directory listing failure; per-entry removal
    /// failures (a concurrent sweep, say) are skipped, not fatal.
    pub fn sweep_stale(max_age: Duration) -> Result<usize, AptError> {
        let me = std::process::id();
        let mut swept = 0usize;
        for entry in std::fs::read_dir(std::env::temp_dir())? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name();
            let Some(rest) = name.to_str().and_then(|n| n.strip_prefix(TEMP_DIR_PREFIX)) else {
                continue;
            };
            let Some(pid) = rest.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
                continue;
            };
            if pid == me {
                continue;
            }
            let stale = if cfg!(target_os = "linux") {
                // Liveness is authoritative where /proc exists.
                !Path::new("/proc").join(pid.to_string()).exists()
            } else {
                entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age >= max_age)
            };
            if stale
                && !lock_is_live(&entry.path(), max_age)
                && std::fs::remove_dir_all(entry.path()).is_ok()
            {
                swept += 1;
            }
        }
        Ok(swept)
    }
}

/// Whether `dir`'s [`LOCK_FILE`] proves an owner that may still be using
/// it: a heartbeat mtime younger than `max_age`, or (on Linux) a
/// recorded pid that is still running. A missing or unreadable lock is
/// not live — pre-lock-era directories stay sweepable.
fn lock_is_live(dir: &Path, max_age: Duration) -> bool {
    let lock = dir.join(LOCK_FILE);
    let Ok(meta) = std::fs::metadata(&lock) else {
        return false;
    };
    let fresh = meta
        .modified()
        .ok()
        .and_then(|t| t.elapsed().ok())
        // An unreadable mtime cannot prove staleness; err on the side
        // of keeping the directory.
        .is_none_or(|age| age < max_age);
    if fresh {
        return true;
    }
    if cfg!(target_os = "linux") {
        if let Some(pid) = std::fs::read_to_string(&lock)
            .ok()
            .and_then(|text| text.trim().parse::<u32>().ok())
        {
            return Path::new("/proc").join(pid.to_string()).exists();
        }
    }
    false
}

impl Drop for TempAptDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u32) -> Record {
        Record {
            body: if i.is_multiple_of(2) {
                RecordBody::Sym(SymbolId(i))
            } else {
                RecordBody::Prod(ProdId(i))
            },
            values: vec![
                (AttrId(0), Value::Int(i as i64)),
                (AttrId(7), Value::str(&format!("v{}", i))),
            ],
        }
    }

    #[test]
    fn record_encoding_round_trips() {
        for i in 0..5 {
            let r = rec(i);
            assert_eq!(Record::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn forward_read_returns_written_order() {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(0);
        let mut w = AptWriter::create(&path).unwrap();
        for i in 0..10 {
            w.write(&rec(i)).unwrap();
        }
        let (bytes, records) = w.finish().unwrap();
        assert_eq!(records, 10);
        assert!(bytes > 0);

        let mut r = AptReader::open(&path, ReadDir::Forward).unwrap();
        assert_eq!(r.total_records(), 10);
        assert_eq!(r.total_bytes(), bytes);
        for i in 0..10 {
            assert_eq!(r.next().unwrap().unwrap(), rec(i));
        }
        assert!(r.next().unwrap().is_none());
        assert_eq!(r.records_read(), 10);
        assert_eq!(r.bytes_read(), bytes);
    }

    #[test]
    fn backward_read_reverses_order() {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(1);
        let mut w = AptWriter::create(&path).unwrap();
        for i in 0..7 {
            w.write(&rec(i)).unwrap();
        }
        w.finish().unwrap();

        let mut r = AptReader::open(&path, ReadDir::Backward).unwrap();
        for i in (0..7).rev() {
            assert_eq!(r.next().unwrap().unwrap(), rec(i));
        }
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn empty_file_reads_none_both_ways() {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(2);
        AptWriter::create(&path).unwrap().finish().unwrap();
        for d in [ReadDir::Forward, ReadDir::Backward] {
            let mut r = AptReader::open(&path, d).unwrap();
            assert!(r.next().unwrap().is_none());
        }
    }

    #[test]
    fn truncated_file_rejected_at_open() {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(3);
        let mut w = AptWriter::create(&path).unwrap();
        w.write(&rec(0)).unwrap();
        w.finish().unwrap();
        // Truncate one byte off the end: the header's recorded body
        // length no longer matches, so open() itself must reject it.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 1]).unwrap();
        for d in [ReadDir::Forward, ReadDir::Backward] {
            match AptReader::open(&path, d).map_err(|e| e.root().to_string()) {
                Err(msg) if msg.contains("body bytes") => {}
                other => panic!("truncated file not rejected: {:?}", other),
            }
        }
    }

    #[test]
    fn unfinished_file_rejected_at_open() {
        // A writer dropped without finish() leaves the placeholder header
        // (zero totals); the reader must not serve it as silently empty.
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(4);
        let mut w = AptWriter::create(&path).unwrap();
        w.write(&rec(1)).unwrap();
        drop(w);
        match AptReader::open(&path, ReadDir::Forward) {
            Err(e)
                if matches!(
                    e.root(),
                    AptError::Header(HeaderError::LengthMismatch { expected: 0, .. })
                ) => {}
            other => panic!("unfinished file not rejected: {:?}", other),
        }
    }

    #[test]
    fn header_too_short_rejected_at_open() {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(5);
        std::fs::write(&path, b"APT").unwrap();
        match AptReader::open(&path, ReadDir::Forward) {
            Err(e)
                if matches!(
                    e.root(),
                    AptError::Header(HeaderError::Truncated { len: 3 })
                ) => {}
            other => panic!("short file not rejected: {:?}", other),
        }
    }

    #[test]
    fn every_header_byte_flip_is_rejected_at_open() {
        // The corruption regression: flip each header byte of a valid
        // file in turn; open() must return a typed error every time —
        // with the header CRC, even the formerly unvalidated reserved
        // bytes are covered — and must never panic or serve an empty
        // read.
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(6);
        let mut w = AptWriter::create(&path).unwrap();
        for i in 0..4 {
            w.write(&rec(i)).unwrap();
        }
        w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for at in 0..HEADER_LEN as usize {
            let mut data = pristine.clone();
            data[at] ^= 0xFF;
            std::fs::write(&path, &data).unwrap();
            match AptReader::open(&path, ReadDir::Forward) {
                Err(e) if matches!(e.root(), AptError::Header(_)) => {}
                other => panic!("flip at byte {} not rejected: {:?}", at, other),
            }
        }
    }

    #[test]
    fn body_byte_flips_are_typed_errors_never_wrong_records() {
        // With per-record CRCs, *every* body flip must surface as a
        // typed Frame or Checksum error from next() — never decode to a
        // silently wrong record, and never panic. Records before the
        // corruption must still read back exactly.
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(7);
        let mut w = AptWriter::create(&path).unwrap();
        for i in 0..4 {
            w.write(&rec(i)).unwrap();
        }
        w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for at in HEADER_LEN as usize..pristine.len() {
            let mut data = pristine.clone();
            data[at] ^= 0xFF;
            std::fs::write(&path, &data).unwrap();
            for d in [ReadDir::Forward, ReadDir::Backward] {
                let mut r = AptReader::open(&path, d).unwrap();
                let mut seen = 0u32;
                let err = loop {
                    match r.next() {
                        Ok(Some(record)) => {
                            // Anything served intact must be a pristine
                            // record (prefix from the reading end).
                            let expect = match d {
                                ReadDir::Forward => seen,
                                ReadDir::Backward => 3 - seen,
                            };
                            assert_eq!(record, rec(expect), "flip at {} leaked garbage", at);
                            seen += 1;
                        }
                        Ok(None) => break None,
                        Err(e) => break Some(e),
                    }
                };
                let err = err.unwrap_or_else(|| {
                    panic!("flip at byte {} read clean in {:?}", at, d);
                });
                assert!(
                    matches!(
                        err.root(),
                        AptError::Frame { .. } | AptError::Checksum { .. }
                    ),
                    "flip at {} gave untyped {:?}",
                    at,
                    err
                );
            }
        }
    }

    #[test]
    fn payload_flip_is_a_checksum_error_with_offsets() {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(8);
        let mut w = AptWriter::create(&path).unwrap();
        w.write(&rec(0)).unwrap();
        w.finish().unwrap();
        let mut data = std::fs::read(&path).unwrap();
        // First payload byte lives right after the header + lead length.
        let at = HEADER_LEN as usize + 4;
        data[at] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let mut r = AptReader::open(&path, ReadDir::Forward).unwrap();
        match r.next() {
            Err(e) => match e.root() {
                AptError::Checksum {
                    at,
                    expected,
                    found,
                } => {
                    assert_eq!(*at, HEADER_LEN);
                    assert_ne!(expected, found);
                }
                other => panic!("expected Checksum, got {:?}", other),
            },
            other => panic!("corrupt payload served: {:?}", other),
        }
    }

    #[test]
    fn disk_errors_carry_the_file_path() {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(9);
        std::fs::write(&path, b"not an apt file at all, but long enough....").unwrap();
        let err = AptReader::open(&path, ReadDir::Forward).unwrap_err();
        assert!(
            err.to_string().contains("boundary_9.apt"),
            "path missing from: {}",
            err
        );
        assert!(matches!(
            err.root(),
            AptError::Header(HeaderError::BadMagic)
        ));
    }

    #[test]
    fn injected_write_fault_fires_exactly_once() {
        let dir = TempAptDir::new().unwrap();
        let fault = FaultSpec::new(0, FaultTarget::Write, 2);
        let mut w = AptWriter::create(&dir.boundary(10)).unwrap();
        w.set_fault(fault.clone());
        w.write(&rec(0)).unwrap();
        w.write(&rec(1)).unwrap();
        match w.write(&rec(2)) {
            Err(e) if matches!(e.root(), AptError::Io(_)) => {}
            other => panic!("fault did not fire: {:?}", other),
        }
        assert!(!fault.is_armed());
        // Disarmed: the same spec never fires again.
        w.write(&rec(2)).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn transient_fault_fires_n_times_then_heals() {
        let dir = TempAptDir::new().unwrap();
        let fault = FaultSpec::transient(0, FaultTarget::Write, 1, 2);
        let mut w = AptWriter::create(&dir.boundary(11)).unwrap();
        w.set_fault(fault.clone());
        w.write(&rec(0)).unwrap();
        assert!(w.write(&rec(1)).is_err(), "first shot");
        assert_eq!(fault.shots_left(), 1);
        assert!(w.write(&rec(1)).is_err(), "second shot");
        assert!(!fault.is_armed(), "out of shots");
        w.write(&rec(1)).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn finish_summary_matches_file_summary() {
        let dir = TempAptDir::new().unwrap();
        let path = dir.boundary(12);
        let mut w = AptWriter::create(&path).unwrap();
        w.set_sync(true);
        for i in 0..9 {
            w.write(&rec(i)).unwrap();
        }
        let written = w.finish_summary().unwrap();
        assert_eq!(written.records, 9);
        let validated = file_summary(&path).unwrap();
        assert_eq!(written, validated, "writer CRC must equal re-read CRC");
        // Any body flip must break the whole-file CRC.
        let mut data = std::fs::read(&path).unwrap();
        let at = data.len() - 1;
        data[at] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let corrupt = file_summary(&path).unwrap();
        assert_ne!(corrupt.crc, written.crc);
    }

    #[test]
    fn only_durable_writers_keep_the_body_crc() {
        let mut w = AptWriter::create_owned();
        w.write(&rec(1)).unwrap();
        assert_eq!(w.finish_owned().unwrap().0.crc, None);
        let mut w = AptWriter::create_owned();
        w.set_sync(true);
        w.write(&rec(1)).unwrap();
        let (summary, buf) = w.finish_owned().unwrap();
        assert_eq!(
            summary.crc,
            Some(crc::crc32(&buf[HEADER_LEN as usize..])),
            "the body CRC covers every framed byte after the header"
        );
    }

    #[test]
    fn write_slots_matches_write_of_the_collected_record() {
        // Slots 0..3 of a frame; the layout lists attrs 4, 6 and 9 at
        // slots 2, 0 and 1, and slot 1 is empty.
        let slots = vec![
            Some(Value::str("six")),
            None,
            Some(Value::Int(4)),
            Some(Value::Bool(true)),
        ];
        let layout = [(4, 2), (6, 0), (9, 1)];
        for body in [RecordBody::Sym(SymbolId(3)), RecordBody::Prod(ProdId(8))] {
            let mut by_record = AptWriter::create_owned();
            let values = crate::compiled::collect_alive(&slots, &layout);
            by_record.write(&Record { body, values }).unwrap();
            let mut by_slots = AptWriter::create_owned();
            by_slots.write_slots(body, &slots, &layout).unwrap();
            assert_eq!(
                by_record.finish_owned().unwrap().1,
                by_slots.finish_owned().unwrap().1,
                "{:?}",
                body
            );
        }
        // An empty layout is a record with no values.
        let mut w = AptWriter::create_owned();
        w.write_slots(RecordBody::Prod(ProdId(2)), &[], &[])
            .unwrap();
        let (_, buf) = w.finish_owned().unwrap();
        let mut r = AptReader::open_shared(Arc::new(buf), ReadDir::Forward).unwrap();
        let got = r.next().unwrap().unwrap();
        assert_eq!(got.values, vec![]);
        assert_eq!(r.last_frame_bytes(), FRAME_OVERHEAD + 7);
    }

    #[test]
    fn temp_dir_cleans_up() {
        let path;
        {
            let dir = TempAptDir::new().unwrap();
            path = dir.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn lock_heartbeat_writes_once_per_interval() {
        let dir = TempAptDir::new().unwrap();
        let lock = dir.path().join(LOCK_FILE);
        std::fs::write(&lock, "marker\n").unwrap();
        dir.refresh_lock();
        assert_eq!(
            std::fs::read_to_string(&lock).unwrap(),
            "marker\n",
            "a lock written under an interval ago was rewritten"
        );
        // Age the last write past the interval: the next call rewrites.
        let Some(earlier) = Instant::now().checked_sub(LOCK_HEARTBEAT) else {
            return;
        };
        dir.locked_at.set(earlier);
        dir.refresh_lock();
        assert_eq!(
            std::fs::read_to_string(&lock).unwrap(),
            format!("{}\n", std::process::id())
        );
        assert!(dir.locked_at.get().elapsed() < LOCK_HEARTBEAT);
    }

    #[test]
    fn sweep_stale_removes_dead_process_dirs_only() {
        // A directory stamped with a pid that cannot be alive (u32::MAX
        // is far above any real pid ceiling) must be swept; the calling
        // process's own directories must survive.
        let dead = std::env::temp_dir().join(format!("{}{}-0", TEMP_DIR_PREFIX, u32::MAX));
        std::fs::create_dir_all(&dead).unwrap();
        std::fs::write(dead.join("boundary_0.apt"), b"leak").unwrap();
        let live = TempAptDir::new().unwrap();

        // A second dead-pid directory, this one carrying a fresh LOCK
        // heartbeat — the situation after pid recycling, or a request in
        // flight on a host where liveness cannot be checked. A sweeping
        // daemon must leave it alone; once the lock goes stale
        // (simulated by removing it), the sweep may reclaim it.
        let guarded = std::env::temp_dir().join(format!("{}{}-1", TEMP_DIR_PREFIX, u32::MAX));
        std::fs::create_dir_all(&guarded).unwrap();
        std::fs::write(guarded.join("boundary_0.apt"), b"in flight").unwrap();
        std::fs::write(guarded.join(LOCK_FILE), format!("{}\n", u32::MAX)).unwrap();

        let swept = TempAptDir::sweep_stale(Duration::from_secs(3600)).unwrap();
        assert!(swept >= 1, "dead dir not counted");
        assert!(!dead.exists(), "dead dir survived the sweep");
        assert!(live.path().exists(), "live dir was swept");
        assert!(guarded.exists(), "sweep deleted a dir with a live lock");

        std::fs::remove_file(guarded.join(LOCK_FILE)).unwrap();
        TempAptDir::sweep_stale(Duration::from_secs(3600)).unwrap();
        assert!(!guarded.exists(), "unlocked dead dir survived the sweep");
    }

    #[test]
    fn value_of_finds_attrs() {
        let r = rec(4);
        assert_eq!(r.value_of(AttrId(0)), Some(&Value::Int(4)));
        assert!(r.value_of(AttrId(99)).is_none());
    }
}
