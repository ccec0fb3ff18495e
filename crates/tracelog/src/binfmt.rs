//! The `.rbt` binary trace format — compact on-disk encoding with
//! mmap-backed zero-copy ingest.
//!
//! The `.std` text format is the *interchange* format; parsing it is a
//! per-line split, a per-field name lookup and an interner probe per
//! event, and at a million events that parse dominates the end-to-end
//! checking pipeline. This module defines the on-*disk* counterpart of
//! the [`crate::wire`] service codec: the same fixed-width 9-byte event
//! records ([`crate::wire::EVENT_RECORD_BYTES`]) and the same
//! variable-width name records, arranged for random access:
//!
//! ```text
//! ┌────────────────┐ offset 0
//! │ header (16 B)  │ magic "RBT1\r\n\x1a\n" · version u32 LE ·
//! │                │ chunk_events u32 LE
//! ├────────────────┤ offset 16
//! │ event records  │ event_count × 9 B wire records, trace order
//! ├────────────────┤ names_offset
//! │ name records   │ wire name records: threads, locks, vars
//! │                │ (dense index order per id space)
//! ├────────────────┤ index_offset
//! │ chunk index    │ chunk_count × 24 B entries
//! ├────────────────┤ file_len − 48
//! │ footer (48 B)  │ index_offset u64 · names_offset u64 ·
//! │                │ names_len u64 · event_count u64 ·
//! │                │ chunk_count u64 · end magic "RBT1END\n"
//! └────────────────┘
//! ```
//!
//! Each chunk-index entry records `{first_event u64, events u32,
//! threads u32, locks u32, vars u32}` — the half-open event range
//! `[first_event, first_event + events)` plus the *cumulative* interner
//! sizes once the chunk has been read. Because records are fixed-width,
//! a chunk boundary can never split a record, and a reader can start
//! decoding at any chunk boundary without touching the bytes before it:
//! that is what makes chunk-parallel ingest of a single file possible
//! (N readers claim chunks and feed the parallel runtime's bounded
//! channels). The name tables live *after* the events so the writer is a
//! single forward pass — no seeking, so the format can be written to a
//! pipe.
//!
//! Reading goes through [`BinTrace`] (open + validate + name preload)
//! and [`MmapSource`], an [`EventSource`] that decodes records straight
//! out of an `mmap`'d region — no line parse, no interner probe, no
//! copy of the event region. Where `mmap` is unavailable (or fails),
//! the same type transparently falls back to positioned `pread`-style
//! reads into a scratch buffer, and non-Unix builds read the file into
//! memory once; semantics are identical across the three backings.
//!
//! [`AnySource`] sniffs the 8-byte magic and serves either encoding
//! behind one type, which is how every ingesting `rapid` subcommand
//! auto-detects the format.
//!
//! # Examples
//!
//! ```no_run
//! use tracelog::binfmt::{write_binary, AnySource, DEFAULT_CHUNK_EVENTS};
//! use tracelog::stream::EventSource;
//!
//! let mut source = tracelog::StdReader::new("t1|begin|0\nt1|end|1\n".as_bytes());
//! let mut out = std::io::BufWriter::new(std::fs::File::create("trace.rbt")?);
//! write_binary(&mut source, &mut out, DEFAULT_CHUNK_EVENTS)?;
//! drop(out);
//!
//! let mut back = AnySource::open(std::path::Path::new("trace.rbt"))?;
//! while let Some(event) = back.next_event()? {
//!     let _ = back.names().display_event(&event);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::ids::Interner;
use crate::stream::{EventBatch, EventSource, SourceError, SourceNames, StdReader};
use crate::trace::Event;
use crate::wire::{self, NameKind, WireError, EVENT_RECORD_BYTES};
use crate::EventId;

/// The 8-byte file magic opening every `.rbt` file. Modeled on the PNG
/// signature: the CR-LF and lone-LF bytes catch line-ending translation,
/// `\x1a` stops accidental `type` on DOS-descended shells.
pub const MAGIC: [u8; 8] = *b"RBT1\x0D\x0A\x1A\x0A";

/// The 8-byte end magic closing every `.rbt` file — a cheap whole-file
/// truncation check before any offset in the footer is trusted.
pub const END_MAGIC: [u8; 8] = *b"RBT1END\x0A";

/// The only format version this build reads and writes. Versioning rule
/// (shared with [`crate::wire`]): record layouts are append-only; any
/// change to existing field widths or the region order bumps this.
pub const FORMAT_VERSION: u32 = 1;

/// Header size: magic + version + chunk_events.
pub const HEADER_BYTES: usize = 16;

/// Footer size: five u64 fields + end magic.
pub const FOOTER_BYTES: usize = 48;

/// Size of one chunk-index entry: `first_event u64 · events u32 ·
/// threads u32 · locks u32 · vars u32`.
pub const CHUNK_ENTRY_BYTES: usize = 24;

/// Default events per chunk for the writer: big enough that per-chunk
/// overhead (an index entry, a claim in the parallel reader) is noise,
/// small enough that a 1M-event file still splits into ~16 chunks for
/// chunk-parallel ingest. 65 536 events ≈ 576 KiB of records.
pub const DEFAULT_CHUNK_EVENTS: u32 = 1 << 16;

/// A structurally invalid `.rbt` file, with chunk + record attribution
/// where the failure is inside the event region (mirroring the 1-based
/// line numbers [`StdReader`] errors carry; records are 0-based because
/// the record index *is* the event's trace offset).
#[derive(Debug)]
pub enum BinfmtError {
    /// The underlying file could not be read.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — it is not a `.rbt` file.
    NotBinary,
    /// The file declares a format version this build does not read.
    Version(u32),
    /// A structural invariant of the container failed (truncation,
    /// inconsistent region offsets, bad end magic).
    Corrupt {
        /// Which invariant failed.
        what: &'static str,
    },
    /// A chunk-index entry is inconsistent with its neighbours or the
    /// footer totals.
    Index {
        /// The 0-based index of the offending entry.
        chunk: usize,
        /// Which invariant failed.
        what: &'static str,
    },
    /// The name region did not decode as dense wire name records.
    Names(WireError),
    /// An event record inside a chunk did not decode.
    Record {
        /// The 0-based chunk holding the record.
        chunk: usize,
        /// The 0-based record index — equal to the event's trace offset.
        record: u64,
        /// The wire-level decode failure.
        error: WireError,
    },
}

impl fmt::Display for BinfmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "{e}"),
            Self::NotBinary => write!(f, "not a .rbt binary trace (bad magic)"),
            Self::Version(v) => {
                write!(f, "unsupported .rbt format version {v} (this build reads {FORMAT_VERSION})")
            }
            Self::Corrupt { what } => write!(f, "corrupt .rbt file: {what}"),
            Self::Index { chunk, what } => {
                write!(f, "corrupt .rbt chunk index entry {chunk}: {what}")
            }
            Self::Names(e) => write!(f, "corrupt .rbt name table: {e}"),
            Self::Record { chunk, record, error } => {
                write!(f, "record {record} (chunk {chunk}): {error}")
            }
        }
    }
}

impl std::error::Error for BinfmtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Names(e) | Self::Record { error: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BinfmtError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Streams a source into the `.rbt` binary format in one forward pass,
/// cutting a chunk-index entry every `chunk_events` events; returns the
/// number of events written. The inverse of binary ingest is
/// [`crate::stream::copy_events`]; for a trace whose `<loc>` fields are
/// the running 0-based offsets (everything this workspace emits), the
/// `.std → .rbt → .std` round trip is byte-exact.
///
/// # Panics
///
/// Panics if `chunk_events == 0` (a chunk could never make progress).
///
/// # Errors
///
/// Propagates source errors and write failures.
pub fn write_binary<S, W>(
    source: &mut S,
    out: &mut W,
    chunk_events: u32,
) -> Result<u64, SourceError>
where
    S: EventSource + ?Sized,
    W: Write,
{
    assert!(chunk_events > 0, "chunk_events must be positive");
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&chunk_events.to_le_bytes());
    out.write_all(&header)?;

    let mut batch = EventBatch::with_target(chunk_events as usize);
    let mut buf = Vec::new();
    let mut chunks: Vec<ChunkMeta> = Vec::new();
    let mut event_count = 0u64;
    loop {
        let n = source.next_batch(&mut batch)?;
        if n == 0 {
            break;
        }
        buf.clear();
        wire::encode_events(batch.events(), &mut buf);
        out.write_all(&buf)?;
        let names = source.names();
        chunks.push(ChunkMeta {
            first_event: event_count,
            events: u32::try_from(n).expect("batch target fits u32"),
            threads: names.threads.len() as u32,
            locks: names.locks.len() as u32,
            vars: names.vars.len() as u32,
        });
        event_count += n as u64;
    }

    buf.clear();
    let names = source.names();
    wire::encode_new_names(NameKind::Thread, names.threads, 0, &mut buf);
    wire::encode_new_names(NameKind::Lock, names.locks, 0, &mut buf);
    wire::encode_new_names(NameKind::Var, names.vars, 0, &mut buf);
    out.write_all(&buf)?;
    let names_offset = HEADER_BYTES as u64 + event_count * EVENT_RECORD_BYTES as u64;
    let names_len = buf.len() as u64;

    buf.clear();
    for chunk in &chunks {
        buf.extend_from_slice(&chunk.first_event.to_le_bytes());
        buf.extend_from_slice(&chunk.events.to_le_bytes());
        buf.extend_from_slice(&chunk.threads.to_le_bytes());
        buf.extend_from_slice(&chunk.locks.to_le_bytes());
        buf.extend_from_slice(&chunk.vars.to_le_bytes());
    }
    out.write_all(&buf)?;
    let index_offset = names_offset + names_len;

    buf.clear();
    buf.extend_from_slice(&index_offset.to_le_bytes());
    buf.extend_from_slice(&names_offset.to_le_bytes());
    buf.extend_from_slice(&names_len.to_le_bytes());
    buf.extend_from_slice(&event_count.to_le_bytes());
    buf.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
    buf.extend_from_slice(&END_MAGIC);
    out.write_all(&buf)?;
    out.flush()?;
    Ok(event_count)
}

/// One chunk-index entry: the event range a reader can decode
/// independently, plus the cumulative name-table sizes once every event
/// up to and including this chunk has been read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Trace offset of the chunk's first event.
    pub first_event: u64,
    /// Number of events in the chunk.
    pub events: u32,
    /// Thread-table size after this chunk.
    pub threads: u32,
    /// Lock-table size after this chunk.
    pub locks: u32,
    /// Variable-table size after this chunk.
    pub vars: u32,
}

/// The read side of an `.rbt` file: validated container metadata, the
/// preloaded name tables, the chunk index, and the (mapped or seekable)
/// event region. Cheap to share behind an [`Arc`]: every [`MmapSource`]
/// — the whole-file reader and each chunk-parallel reader — borrows the
/// same mapping.
#[derive(Debug)]
pub struct BinTrace {
    backing: Backing,
    chunk_events: u32,
    event_count: u64,
    chunks: Vec<ChunkMeta>,
    threads: Interner,
    locks: Interner,
    vars: Interner,
}

impl BinTrace {
    /// Opens and fully validates an `.rbt` file: both magics, the format
    /// version, region bounds, chunk-index consistency (contiguous
    /// ranges, monotone name counts, totals matching the footer) and the
    /// name region (decoded eagerly — the tables are small). The event
    /// region is *not* decoded here; records are bounds-checked lazily
    /// as sources read them.
    ///
    /// # Errors
    ///
    /// Any structural violation yields a typed [`BinfmtError`]; I/O
    /// failures are wrapped in [`BinfmtError::Io`].
    pub fn open(path: &Path) -> Result<Self, BinfmtError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < (HEADER_BYTES + FOOTER_BYTES) as u64 {
            return Err(BinfmtError::Corrupt { what: "file shorter than header + footer" });
        }
        let backing = Backing::new(file, file_len)?;
        let mut scratch = Vec::new();

        let header = backing.read(0, HEADER_BYTES, &mut scratch)?;
        if header[..8] != MAGIC {
            return Err(BinfmtError::NotBinary);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
        if version != FORMAT_VERSION {
            return Err(BinfmtError::Version(version));
        }
        let chunk_events = u32::from_le_bytes(header[12..16].try_into().expect("4-byte slice"));
        if chunk_events == 0 {
            return Err(BinfmtError::Corrupt { what: "chunk_events is zero" });
        }

        let footer = backing.read(file_len - FOOTER_BYTES as u64, FOOTER_BYTES, &mut scratch)?;
        if footer[40..48] != END_MAGIC {
            return Err(BinfmtError::Corrupt { what: "bad end magic (truncated file?)" });
        }
        let word = |i: usize| u64::from_le_bytes(footer[i * 8..i * 8 + 8].try_into().expect("8 B"));
        let (index_offset, names_offset, names_len, event_count, chunk_count) =
            (word(0), word(1), word(2), word(3), word(4));

        // The footer words are untrusted: every offset is derived with
        // checked arithmetic, and an overflow is as corrupt as a mismatch.
        let events_end = event_count
            .checked_mul(EVENT_RECORD_BYTES as u64)
            .and_then(|len| len.checked_add(HEADER_BYTES as u64));
        if events_end != Some(names_offset) {
            return Err(BinfmtError::Corrupt { what: "name region does not follow event region" });
        }
        if names_offset.checked_add(names_len) != Some(index_offset) {
            return Err(BinfmtError::Corrupt { what: "chunk index does not follow name region" });
        }
        let index_end = chunk_count
            .checked_mul(CHUNK_ENTRY_BYTES as u64)
            .and_then(|len| len.checked_add(index_offset));
        if index_end != Some(file_len - FOOTER_BYTES as u64) {
            return Err(BinfmtError::Corrupt { what: "chunk index does not end at the footer" });
        }
        // Both regions now lie inside the file (the product above did not
        // overflow); only a host narrower than the file can refuse them.
        let too_large = |_| BinfmtError::Corrupt { what: "region larger than addressable memory" };
        let names_len = usize::try_from(names_len).map_err(too_large)?;
        let index_len =
            usize::try_from(chunk_count * CHUNK_ENTRY_BYTES as u64).map_err(too_large)?;

        let mut threads = Interner::new();
        let mut locks = Interner::new();
        let mut vars = Interner::new();
        let names = backing.read(names_offset, names_len, &mut scratch)?;
        wire::decode_names(names, &mut threads, &mut locks, &mut vars)
            .map_err(BinfmtError::Names)?;

        let mut chunks = Vec::with_capacity(index_len / CHUNK_ENTRY_BYTES);
        let index = backing.read(index_offset, index_len, &mut scratch)?;
        let mut next_event = 0u64;
        let (mut t, mut l, mut v) = (0u32, 0u32, 0u32);
        for (i, entry) in index.chunks_exact(CHUNK_ENTRY_BYTES).enumerate() {
            let meta = ChunkMeta {
                first_event: u64::from_le_bytes(entry[0..8].try_into().expect("8 B")),
                events: u32::from_le_bytes(entry[8..12].try_into().expect("4 B")),
                threads: u32::from_le_bytes(entry[12..16].try_into().expect("4 B")),
                locks: u32::from_le_bytes(entry[16..20].try_into().expect("4 B")),
                vars: u32::from_le_bytes(entry[20..24].try_into().expect("4 B")),
            };
            if meta.first_event != next_event {
                return Err(BinfmtError::Index { chunk: i, what: "event range is not contiguous" });
            }
            if meta.events == 0 {
                return Err(BinfmtError::Index { chunk: i, what: "chunk holds no events" });
            }
            if meta.events > chunk_events {
                return Err(BinfmtError::Index { chunk: i, what: "chunk exceeds chunk_events" });
            }
            if meta.threads < t || meta.locks < l || meta.vars < v {
                return Err(BinfmtError::Index { chunk: i, what: "name counts decreased" });
            }
            (t, l, v) = (meta.threads, meta.locks, meta.vars);
            next_event = meta.first_event + u64::from(meta.events);
            chunks.push(meta);
        }
        if next_event != event_count {
            return Err(BinfmtError::Corrupt { what: "chunk events do not sum to event_count" });
        }
        if let Some(last) = chunks.last() {
            if (last.threads as usize, last.locks as usize, last.vars as usize)
                != (threads.len(), locks.len(), vars.len())
            {
                return Err(BinfmtError::Corrupt {
                    what: "final chunk name counts disagree with the name region",
                });
            }
        }

        Ok(Self { backing, chunk_events, event_count, chunks, threads, locks, vars })
    }

    /// Total number of events in the trace.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// The writer's events-per-chunk setting (the last chunk may be
    /// shorter).
    #[must_use]
    pub fn chunk_events(&self) -> u32 {
        self.chunk_events
    }

    /// The validated chunk index.
    #[must_use]
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// The preloaded name tables.
    #[must_use]
    pub fn names(&self) -> SourceNames<'_> {
        SourceNames { threads: &self.threads, locks: &self.locks, vars: &self.vars }
    }

    /// The 0-based chunk holding trace offset `record` (which must be
    /// `< event_count`).
    #[must_use]
    pub fn chunk_of(&self, record: u64) -> usize {
        debug_assert!(record < self.event_count, "record out of range");
        self.chunks.partition_point(|c| c.first_event <= record).saturating_sub(1)
    }

    /// Whether the event region is memory-mapped (`false` means the
    /// positioned-read or in-memory fallback is serving reads).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }
}

/// The bytes behind a [`BinTrace`], in preference order.
#[derive(Debug)]
enum Backing {
    /// A read-only private `mmap` of the whole file (Unix): reads are
    /// zero-copy slices of the mapping.
    #[cfg_attr(not(unix), allow(dead_code))]
    Mapped(map::Mmap),
    /// Positioned reads (`pread`) into a caller scratch buffer — the
    /// fallback when mapping fails; no shared cursor, so chunk-parallel
    /// readers stay independent.
    #[cfg(unix)]
    File(File),
    /// The whole file read into memory once (non-Unix builds; on Unix
    /// the positioned-read fallback covers every case, including empty
    /// files — `mmap` of length 0 is an error).
    #[cfg_attr(unix, allow(dead_code))]
    Owned(Vec<u8>),
}

impl Backing {
    fn new(file: File, file_len: u64) -> io::Result<Self> {
        #[cfg(unix)]
        {
            let len = usize::try_from(file_len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
            if len > 0 {
                if let Ok(m) = map::Mmap::new(&file, len) {
                    return Ok(Self::Mapped(m));
                }
            }
            Ok(Self::File(file))
        }
        #[cfg(not(unix))]
        {
            let _ = file_len;
            let mut bytes = Vec::new();
            let mut file = file;
            file.read_to_end(&mut bytes)?;
            Ok(Self::Owned(bytes))
        }
    }

    /// Serves `len` bytes at `offset`: a borrowed slice of the mapping
    /// (or owned bytes), or a `pread` into `scratch`. Short regions are
    /// an I/O error (`UnexpectedEof`), never a panic — the offsets come
    /// from disk.
    fn read<'a>(
        &'a self,
        offset: u64,
        len: usize,
        scratch: &'a mut Vec<u8>,
    ) -> io::Result<&'a [u8]> {
        match self {
            Self::Mapped(m) => slice_region(m.bytes(), offset, len),
            #[cfg(unix)]
            Self::File(file) => {
                use std::os::unix::fs::FileExt;
                scratch.resize(len, 0);
                file.read_exact_at(scratch, offset)?;
                Ok(scratch)
            }
            Self::Owned(bytes) => slice_region(bytes, offset, len),
        }
    }
}

fn slice_region(bytes: &[u8], offset: u64, len: usize) -> io::Result<&[u8]> {
    usize::try_from(offset)
        .ok()
        .and_then(|o| o.checked_add(len).map(|end| (o, end)))
        .and_then(|(o, end)| bytes.get(o..end))
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "region beyond end of file"))
}

/// The raw `mmap` FFI, quarantined: the only unsafe code in the crate.
/// No `libc` crate — `std` already links the platform libc, so the two
/// syscall wrappers are declared directly with the POSIX-mandated
/// constants (`PROT_READ = 1`, `MAP_PRIVATE = 2` on every Unix this
/// workspace targets).
#[cfg(unix)]
mod map {
    #![allow(unsafe_code)]

    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private mapping of a whole file, unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mmap {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only (PROT_READ) and private, so
    // concurrent reads from any thread are safe; the pointer is never
    // exposed mutably.
    unsafe impl Send for Mmap {}
    // SAFETY: as above — shared &self access only ever reads.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub(super) fn new(file: &File, len: usize) -> io::Result<Self> {
            assert!(len > 0, "empty files use the owned backing");
            // SAFETY: a fresh anonymous-address PROT_READ|MAP_PRIVATE
            // mapping over an open fd; the kernel validates fd and
            // length, and failure is reported as MAP_FAILED.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr.is_null() || ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr: NonNull::new(ptr.cast()).expect("checked non-null"), len })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes for the lifetime of `self` (unmapped only in Drop).
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are exactly the mapping returned by
            // `mmap` in `new`; after this the struct is gone, so no
            // dangling reads are possible.
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

/// An [`EventSource`] decoding events straight out of an open
/// [`BinTrace`] — the binary counterpart of [`StdReader`]. The name is
/// the *preferred* backing; when mapping is unavailable the same type
/// serves positioned reads with identical semantics (see the backing
/// preference order on [`BinTrace`]).
///
/// A source covers either the whole trace ([`MmapSource::new`] /
/// [`MmapSource::open`]) or a single chunk ([`MmapSource::for_chunk`]) —
/// the unit the chunk-parallel ingest mode hands to each reader thread.
/// Decode errors are **fatal** (the latch mirrors [`StdReader`]) and
/// carry chunk + record attribution via [`BinfmtError::Record`].
#[derive(Debug)]
pub struct MmapSource {
    trace: Arc<BinTrace>,
    start: u64,
    next: u64,
    end: u64,
    scratch: Vec<u8>,
    done: bool,
}

impl MmapSource {
    /// Opens `path` and serves the whole trace.
    ///
    /// # Errors
    ///
    /// Propagates [`BinTrace::open`] failures.
    pub fn open(path: &Path) -> Result<Self, BinfmtError> {
        Ok(Self::new(Arc::new(BinTrace::open(path)?)))
    }

    /// A source over the whole of an already-open trace.
    #[must_use]
    pub fn new(trace: Arc<BinTrace>) -> Self {
        let end = trace.event_count;
        Self { trace, start: 0, next: 0, end, scratch: Vec::new(), done: false }
    }

    /// A source over a single chunk of an already-open trace — the unit
    /// of chunk-parallel ingest. Each reader thread holds one of these
    /// per claimed chunk; they share the mapping through the [`Arc`] and
    /// have no mutable state in common.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    #[must_use]
    pub fn for_chunk(trace: Arc<BinTrace>, chunk: usize) -> Self {
        let meta = trace.chunks[chunk];
        let (start, end) = (meta.first_event, meta.first_event + u64::from(meta.events));
        Self { trace, start, next: start, end, scratch: Vec::new(), done: false }
    }

    /// Re-aims an existing source at another chunk, keeping the scratch
    /// buffer warm — how a chunk-parallel reader thread walks its
    /// claimed chunks without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn reset_to_chunk(&mut self, chunk: usize) {
        let meta = self.trace.chunks[chunk];
        self.start = meta.first_event;
        self.next = meta.first_event;
        self.end = meta.first_event + u64::from(meta.events);
        self.done = false;
    }

    /// The shared trace this source reads.
    #[must_use]
    pub fn trace(&self) -> &Arc<BinTrace> {
        &self.trace
    }

    fn record_error(&mut self, record: u64, error: WireError) -> SourceError {
        self.done = true;
        let chunk = self.trace.chunk_of(record);
        SourceError::Binary(BinfmtError::Record { chunk, record, error })
    }
}

impl EventSource for MmapSource {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        if self.done || self.next >= self.end {
            return Ok(None);
        }
        let offset = HEADER_BYTES as u64 + self.next * EVENT_RECORD_BYTES as u64;
        let bytes = self
            .trace
            .backing
            .read(offset, EVENT_RECORD_BYTES, &mut self.scratch)
            .map_err(SourceError::Io)?;
        match wire::decode_record(bytes) {
            Ok(event) => {
                self.next += 1;
                Ok(Some(event))
            }
            Err(e) => Err(self.record_error(self.next, e)),
        }
    }

    /// Native batch decode: one bounds check and one fixed-width decode
    /// loop per refill, straight from the mapping — no copy of the
    /// record bytes on the mmap and in-memory backings.
    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        batch.clear();
        if self.done || self.next >= self.end {
            return Ok(0);
        }
        let n = (self.end - self.next).min(batch.target() as u64);
        let n = usize::try_from(n).expect("batch-sized count");
        let len = n * EVENT_RECORD_BYTES;
        // A batch refill covers whole records by construction — the
        // satellite invariant that chunk/batch boundaries never split a
        // record mid-way.
        debug_assert!(len.is_multiple_of(EVENT_RECORD_BYTES));
        let offset = HEADER_BYTES as u64 + self.next * EVENT_RECORD_BYTES as u64;
        let bytes =
            self.trace.backing.read(offset, len, &mut self.scratch).map_err(SourceError::Io)?;
        match wire::decode_events(bytes, batch) {
            Ok(decoded) => {
                debug_assert_eq!(decoded, n);
                self.next += decoded as u64;
                Ok(decoded)
            }
            // The decoded prefix stays in `batch`, mirroring the
            // StdReader contract; the failing record's trace offset is
            // the cursor plus that prefix.
            Err(e) => {
                let record = self.next + batch.len() as u64;
                Err(self.record_error(record, e))
            }
        }
    }

    fn names(&self) -> SourceNames<'_> {
        self.trace.names()
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.end - self.start)
    }

    fn position_of(&self, event: EventId) -> Option<String> {
        let record = event.index() as u64;
        (record < self.trace.event_count)
            .then(|| format!("record {record} (chunk {})", self.trace.chunk_of(record)))
    }
}

/// A source over either trace encoding, selected by sniffing the file
/// magic — how every ingesting subcommand accepts `.std` and `.rbt`
/// interchangeably. Text errors carry line numbers, binary errors carry
/// chunk + record indices; both surface through
/// [`EventSource::position_of`].
#[derive(Debug)]
pub enum AnySource {
    /// The text `.std` parser (boxed: the buffered reader dwarfs the
    /// mmap handle, and one allocation per opened file is nothing).
    Std(Box<StdReader<BufReader<File>>>),
    /// The binary `.rbt` reader.
    Bin(MmapSource),
}

impl AnySource {
    /// Opens `path`, sniffing the first 8 bytes for [`MAGIC`]: a match
    /// opens the validated binary reader, anything else (including files
    /// shorter than the magic) streams through the text parser.
    ///
    /// # Errors
    ///
    /// I/O failures, and [`SourceError::Binary`] when the magic matches
    /// but the container is structurally invalid.
    pub fn open(path: &Path) -> Result<Self, SourceError> {
        let mut file = File::open(path)?;
        let mut magic = [0u8; 8];
        let mut filled = 0;
        while filled < magic.len() {
            let n = file.read(&mut magic[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        if filled == magic.len() && magic == MAGIC {
            drop(file);
            return Ok(Self::Bin(MmapSource::open(path).map_err(SourceError::Binary)?));
        }
        file.seek(SeekFrom::Start(0))?;
        Ok(Self::Std(Box::new(StdReader::new(BufReader::new(file)))))
    }

    /// Whether the binary reader is serving this source.
    #[must_use]
    pub fn is_binary(&self) -> bool {
        matches!(self, Self::Bin(_))
    }
}

impl EventSource for AnySource {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        match self {
            Self::Std(s) => s.next_event(),
            Self::Bin(s) => s.next_event(),
        }
    }

    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        match self {
            Self::Std(s) => s.next_batch(batch),
            Self::Bin(s) => s.next_batch(batch),
        }
    }

    fn names(&self) -> SourceNames<'_> {
        match self {
            Self::Std(s) => s.names(),
            Self::Bin(s) => s.names(),
        }
    }

    fn size_hint(&self) -> Option<u64> {
        match self {
            Self::Std(s) => s.size_hint(),
            Self::Bin(s) => s.size_hint(),
        }
    }

    fn position_of(&self, event: EventId) -> Option<String> {
        match self {
            Self::Std(s) => s.position_of(event),
            Self::Bin(s) => s.position_of(event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{collect_trace, copy_events};
    use crate::trace::TraceBuilder;
    use std::fs;
    use std::path::PathBuf;

    fn sample() -> crate::Trace {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("x");
        tb.fork(t1, t2)
            .begin(t1)
            .acquire(t1, l)
            .write(t1, x)
            .release(t1, l)
            .end(t1)
            .begin(t2)
            .read(t2, x)
            .end(t2)
            .join(t1, t2);
        tb.finish()
    }

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tracelog-binfmt-test");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_sample(name: &str, chunk_events: u32) -> PathBuf {
        let path = temp(name);
        let mut bytes = Vec::new();
        write_binary(&mut sample().stream(), &mut bytes, chunk_events).unwrap();
        fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn binary_roundtrip_is_bit_identical() {
        let trace = sample();
        let path = write_sample("roundtrip.rbt", DEFAULT_CHUNK_EVENTS);
        let mut source = MmapSource::open(&path).unwrap();
        assert_eq!(source.size_hint(), Some(trace.len() as u64));
        let back = collect_trace(&mut source).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.thread_names(), trace.thread_names());
        assert_eq!(back.lock_names(), trace.lock_names());
        assert_eq!(back.var_names(), trace.var_names());
    }

    #[test]
    fn std_text_roundtrips_through_binary_byte_exactly() {
        let trace = sample();
        let mut std_text = Vec::new();
        copy_events(&mut trace.stream(), &mut std_text).unwrap();

        let path = temp("fixpoint.rbt");
        let mut bytes = Vec::new();
        write_binary(&mut StdReader::new(std_text.as_slice()), &mut bytes, DEFAULT_CHUNK_EVENTS)
            .unwrap();
        fs::write(&path, bytes).unwrap();

        let mut back = Vec::new();
        copy_events(&mut MmapSource::open(&path).unwrap(), &mut back).unwrap();
        assert_eq!(back, std_text, ".std → .rbt → .std must be byte-exact");
    }

    #[test]
    fn small_chunks_build_a_consistent_index() {
        let trace = sample();
        let path = write_sample("chunky.rbt", 4);
        let bin = BinTrace::open(&path).unwrap();
        assert_eq!(bin.event_count(), trace.len() as u64);
        assert_eq!(bin.chunk_events(), 4);
        assert_eq!(bin.chunks().len(), 3, "10 events at 4 per chunk");
        assert_eq!(bin.chunks()[2].events, 2);
        assert_eq!(bin.chunk_of(0), 0);
        assert_eq!(bin.chunk_of(3), 0);
        assert_eq!(bin.chunk_of(4), 1);
        assert_eq!(bin.chunk_of(9), 2);

        // Per-chunk readers cover exactly the chunk ranges, and their
        // concatenation equals the whole trace.
        let bin = Arc::new(bin);
        let mut streamed = Vec::new();
        for chunk in 0..bin.chunks().len() {
            let collected =
                collect_trace(&mut MmapSource::for_chunk(Arc::clone(&bin), chunk)).unwrap();
            streamed.extend_from_slice(collected.events());
        }
        assert_eq!(streamed.as_slice(), trace.events());

        // reset_to_chunk walks the same ranges through one source.
        let mut source = MmapSource::for_chunk(Arc::clone(&bin), 0);
        let mut replay = Vec::new();
        for chunk in 0..bin.chunks().len() {
            source.reset_to_chunk(chunk);
            while let Some(e) = source.next_event().unwrap() {
                replay.push(e);
            }
        }
        assert_eq!(replay.as_slice(), trace.events());
    }

    #[test]
    fn empty_traces_roundtrip() {
        let path = temp("empty.rbt");
        let mut bytes = Vec::new();
        let n = write_binary(&mut StdReader::new(&b""[..]), &mut bytes, 8).unwrap();
        assert_eq!(n, 0);
        fs::write(&path, bytes).unwrap();
        let mut source = MmapSource::open(&path).unwrap();
        assert_eq!(source.size_hint(), Some(0));
        assert!(source.next_event().unwrap().is_none());
        let mut batch = EventBatch::new();
        assert_eq!(source.next_batch(&mut batch).unwrap(), 0);
    }

    #[test]
    fn truncation_and_corruption_are_attributed() {
        let path = write_sample("corrupt.rbt", 4);
        let bytes = fs::read(&path).unwrap();

        // Chopping the tail invalidates the end magic.
        let cut = temp("cut.rbt");
        fs::write(&cut, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            BinTrace::open(&cut).unwrap_err(),
            BinfmtError::Corrupt { what } if what.contains("end magic")
        ));

        // Too short for even header + footer.
        fs::write(&cut, &bytes[..10]).unwrap();
        assert!(matches!(BinTrace::open(&cut).unwrap_err(), BinfmtError::Corrupt { .. }));

        // Wrong leading magic is NotBinary.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        fs::write(&cut, &wrong).unwrap();
        assert!(matches!(BinTrace::open(&cut).unwrap_err(), BinfmtError::NotBinary));

        // Future version is rejected with the version number.
        let mut future = bytes.clone();
        future[8] = 9;
        fs::write(&cut, &future).unwrap();
        assert!(matches!(BinTrace::open(&cut).unwrap_err(), BinfmtError::Version(9)));

        // A bad op tag inside chunk 1 is attributed to its record and
        // chunk, with the decoded prefix preserved — mirroring the
        // StdReader line-number contract.
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + 5 * EVENT_RECORD_BYTES] = 0xEE;
        fs::write(&cut, &bad).unwrap();
        let mut source = MmapSource::open(&cut).unwrap();
        let mut batch = EventBatch::new();
        let err = source.next_batch(&mut batch).unwrap_err();
        assert_eq!(batch.len(), 5, "decoded prefix stays in the batch");
        assert_eq!(format!("{err}"), "record 5 (chunk 1): unknown event op tag 0xee");
        match err {
            SourceError::Binary(BinfmtError::Record { chunk, record, error }) => {
                assert_eq!((chunk, record), (1, 5));
                assert_eq!(error, WireError::BadOpTag(0xEE));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Errors are fatal, as in StdReader.
        assert_eq!(source.next_batch(&mut batch).unwrap(), 0);
    }

    #[test]
    fn hostile_footer_words_are_corrupt_never_a_panic() {
        let path = write_sample("footer.rbt", 4);
        let bytes = fs::read(&path).unwrap();
        let footer = bytes.len() - FOOTER_BYTES;
        let cut = temp("footer-bad.rbt");
        // Words: index_offset, names_offset, names_len, event_count,
        // chunk_count. `+ 2^61` makes `chunk_count × 24` wrap back to
        // the true index length; on the other words it overflows or
        // mismatches the derived offsets.
        for word in 0..5 {
            let at = footer + word * 8;
            let original = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            for value in [0, 1, u64::MAX, original.wrapping_add(1 << 61)] {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
                fs::write(&cut, &bad).unwrap();
                match BinTrace::open(&cut) {
                    Err(BinfmtError::Corrupt { .. } | BinfmtError::Index { .. }) => {}
                    other => panic!("footer word {word} = {value:#x}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn doctored_chunk_index_is_rejected() {
        let path = write_sample("index.rbt", 4);
        let bytes = fs::read(&path).unwrap();
        let index_offset = {
            let at = bytes.len() - FOOTER_BYTES;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
        };
        // Second entry's first_event broken: ranges stop being contiguous.
        let mut bad = bytes.clone();
        bad[index_offset + CHUNK_ENTRY_BYTES] ^= 0xFF;
        let cut = temp("index-bad.rbt");
        fs::write(&cut, &bad).unwrap();
        assert!(matches!(
            BinTrace::open(&cut).unwrap_err(),
            BinfmtError::Index { chunk: 1, what: "event range is not contiguous" }
        ));
    }

    #[test]
    fn any_source_sniffs_both_encodings() {
        let trace = sample();
        let bin_path = write_sample("any.rbt", DEFAULT_CHUNK_EVENTS);
        let std_path = temp("any.std");
        let mut text = Vec::new();
        copy_events(&mut trace.stream(), &mut text).unwrap();
        fs::write(&std_path, &text).unwrap();

        let mut bin = AnySource::open(&bin_path).unwrap();
        assert!(bin.is_binary());
        let mut std = AnySource::open(&std_path).unwrap();
        assert!(!std.is_binary());
        let a = collect_trace(&mut bin).unwrap();
        let b = collect_trace(&mut std).unwrap();
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events(), trace.events());

        // Binary attribution names records and chunks; text names lines.
        assert_eq!(bin.position_of(EventId(0)).unwrap(), "record 0 (chunk 0)");
        assert!(std.position_of(EventId(trace.len() as u64 - 1)).unwrap().starts_with("line "));
    }

    #[test]
    fn mmap_backing_serves_linux_reads() {
        let path = write_sample("mapped.rbt", DEFAULT_CHUNK_EVENTS);
        let bin = BinTrace::open(&path).unwrap();
        assert!(cfg!(not(unix)) || bin.is_mapped(), "unix builds should map the file");
    }
}
