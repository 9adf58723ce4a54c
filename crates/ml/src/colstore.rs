//! An on-disk columnar feature store for out-of-core training.
//!
//! The corpus scale-out path featurizes 10k–20k authors; one in-RAM
//! [`Dataset`] of every row is exactly what it must avoid. A
//! [`ColumnStoreWriter`] streams rows straight to disk while holding
//! at most one chunk in memory, and the finished [`ColumnStore`] hands
//! row ranges back as small in-RAM `Dataset`s through the
//! [`DatasetSource`](crate::source::DatasetSource) abstraction, so
//! sharded forest training never sees the whole matrix at once.
//!
//! # Layout
//!
//! Fixed-width little-endian binary, no compression, no mmap — plain
//! sequential reads with `seek` between chunks:
//!
//! ```text
//! header (40 bytes):
//!   0..8   magic  "SYNCOLS1"
//!   8..12  dim         u32   feature columns per row
//!   12..16 n_classes   u32   label space size
//!   16..20 chunk_rows  u32   rows per chunk (last chunk may be short)
//!   20..24 reserved    u32   zero
//!   24..32 n_rows      u64   total rows
//!   32..40 checksum    u64   FNV-1a over bytes 0..32
//! data: chunks back to back; chunk k holds rows
//!   [k·chunk_rows, min(n_rows, (k+1)·chunk_rows)) as
//!   column-major f64 feature columns (dim × r values), then r u32
//!   labels.
//! ```
//!
//! Column-major chunks keep the writer's staging buffer at
//! `chunk_rows × dim` floats and make per-column scans cheap, while
//! `chunk_rows` bounds reader memory; every chunk before the last has
//! the same byte length, so chunk offsets are pure arithmetic.
//!
//! The header checksum plus an exact file-length check at
//! [`ColumnStore::open`] catch the two realistic corruption modes for
//! a local artifact — truncated writes and stale/garbled headers —
//! without paying for per-chunk hashing on the hot path. The checksum
//! does not stop a forged header (anyone can recompute it), so the
//! length check runs in checked arithmetic: once it passes, every
//! read is bounded by the file size. Values are validated on *read*
//! (finite features, in-range labels), so a corrupt body surfaces as
//! a typed error instead of a downstream assertion panic.
//!
//! # Replacing a store
//!
//! [`ColumnStoreWriter::create`] never truncates or renames over an
//! existing file: it removes the path, then creates a fresh file that
//! must not exist. On ext4 (`auto_da_alloc`), truncating a file that
//! was itself truncated and rewritten, or renaming a new file over it,
//! waits for the kernel to write the old contents to disk, on every
//! rebuild at the same path: for a 20 MB store, 8–21 ms on one 2-vCPU
//! ext4 VM and 200–280 ms on another. A removed inode that nobody
//! holds open is simply freed, and a new inode removed soon after is
//! never written out at all.

use crate::dataset::Dataset;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use synthattr_util::hash::fnv1a;

const MAGIC: &[u8; 8] = b"SYNCOLS1";
const HEADER_LEN: u64 = 40;

/// Everything that can go wrong creating, writing, or opening a store.
#[derive(Debug)]
pub enum ColStoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the `SYNCOLS1` magic.
    BadMagic,
    /// The header checksum does not match its fields.
    BadChecksum { stored: u64, computed: u64 },
    /// The file length disagrees with the header (truncation or
    /// trailing garbage).
    BadLength { expected: u64, actual: u64 },
    /// A row failed validation (non-finite feature, out-of-range
    /// label, wrong dimension) — on write or on read-back.
    BadRow { row: u64, message: String },
    /// A structurally invalid header field (zero dim or chunk size, or
    /// a row count whose byte length overflows).
    BadHeader(&'static str),
}

impl fmt::Display for ColStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColStoreError::Io(e) => write!(f, "colstore io error: {e}"),
            ColStoreError::BadMagic => write!(f, "colstore: bad magic (not a SYNCOLS1 file)"),
            ColStoreError::BadChecksum { stored, computed } => write!(
                f,
                "colstore: header checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            ColStoreError::BadLength { expected, actual } => write!(
                f,
                "colstore: file length {actual} does not match header (expected {expected})"
            ),
            ColStoreError::BadRow { row, message } => {
                write!(f, "colstore: invalid row {row}: {message}")
            }
            ColStoreError::BadHeader(what) => write!(f, "colstore: invalid header: {what}"),
        }
    }
}

impl std::error::Error for ColStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColStoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ColStoreError {
    fn from(e: io::Error) -> Self {
        ColStoreError::Io(e)
    }
}

impl From<ColStoreError> for io::Error {
    fn from(e: ColStoreError) -> Self {
        match e {
            ColStoreError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Serialized header minus the checksum (bytes 0..32).
fn header_prefix(dim: u32, n_classes: u32, chunk_rows: u32, n_rows: u64) -> [u8; 32] {
    let mut buf = [0u8; 32];
    buf[0..8].copy_from_slice(MAGIC);
    buf[8..12].copy_from_slice(&dim.to_le_bytes());
    buf[12..16].copy_from_slice(&n_classes.to_le_bytes());
    buf[16..20].copy_from_slice(&chunk_rows.to_le_bytes());
    // bytes 20..24 reserved, zero
    buf[24..32].copy_from_slice(&n_rows.to_le_bytes());
    buf
}

/// Streams rows into a column store without ever holding more than one
/// chunk in memory.
///
/// Rows are staged column-major; each time `chunk_rows` accumulate the
/// chunk is flushed to disk and the staging buffers rewind. Call
/// [`finish`](Self::finish) to flush the tail chunk, patch the header
/// (row count + checksum), and reopen the file as a validated
/// [`ColumnStore`].
pub struct ColumnStoreWriter {
    file: BufWriter<File>,
    path: PathBuf,
    dim: usize,
    n_classes: usize,
    chunk_rows: usize,
    n_rows: u64,
    cols: Vec<Vec<f64>>,
    labels: Vec<u32>,
}

impl ColumnStoreWriter {
    /// Creates `path` for a store of `dim`-wide rows with labels in
    /// `[0, n_classes)`, `chunk_rows` rows per chunk.
    ///
    /// A file already at `path` is replaced, never truncated: the path
    /// is removed (a missing file is fine), then a new file is created
    /// there, failing if one appeared in between (see the module docs
    /// for why). So a symlink at `path` is replaced, not followed; a
    /// hard link elsewhere keeps the old contents; and a read-only
    /// file is replaced whenever its directory is writable.
    ///
    /// # Errors
    ///
    /// [`ColStoreError::BadHeader`] for a zero or oversized shape, and
    /// [`ColStoreError::Io`] if the old file cannot be removed (for
    /// example, `path` is a directory) or the new one cannot be
    /// created or written.
    pub fn create(
        path: impl AsRef<Path>,
        dim: usize,
        n_classes: usize,
        chunk_rows: usize,
    ) -> Result<Self, ColStoreError> {
        if dim == 0 || dim > u32::MAX as usize {
            return Err(ColStoreError::BadHeader("dim must be in 1..=u32::MAX"));
        }
        if n_classes == 0 || n_classes > u32::MAX as usize {
            return Err(ColStoreError::BadHeader(
                "n_classes must be in 1..=u32::MAX",
            ));
        }
        if chunk_rows == 0 || chunk_rows > u32::MAX as usize {
            return Err(ColStoreError::BadHeader(
                "chunk_rows must be in 1..=u32::MAX",
            ));
        }
        let path = path.as_ref().to_path_buf();
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        let mut file = BufWriter::new(file);
        // Placeholder header; finish() rewrites it with the real row
        // count and checksum. An unfinished file fails open() on the
        // zero checksum, which is the behavior we want for a crashed
        // writer.
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(ColumnStoreWriter {
            file,
            path,
            dim,
            n_classes,
            chunk_rows,
            n_rows: 0,
            cols: vec![Vec::with_capacity(chunk_rows); dim],
            labels: Vec::with_capacity(chunk_rows),
        })
    }

    /// Rows written so far.
    pub fn len(&self) -> usize {
        self.n_rows as usize
    }

    /// Whether no rows have been written yet.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Appends one row. Validates exactly what [`Dataset::push`]
    /// asserts — dimension, label range, finiteness — but as a typed
    /// error, since a streaming build must be able to reject one bad
    /// sample without tearing down the run.
    pub fn push_row(&mut self, features: &[f64], label: usize) -> Result<(), ColStoreError> {
        if features.len() != self.dim {
            return Err(ColStoreError::BadRow {
                row: self.n_rows,
                message: format!("dimension {} != store dim {}", features.len(), self.dim),
            });
        }
        if label >= self.n_classes {
            return Err(ColStoreError::BadRow {
                row: self.n_rows,
                message: format!("label {label} out of range (n_classes {})", self.n_classes),
            });
        }
        if let Some(pos) = features.iter().position(|v| !v.is_finite()) {
            return Err(ColStoreError::BadRow {
                row: self.n_rows,
                message: format!("non-finite feature value at column {pos}"),
            });
        }
        for (col, &v) in self.cols.iter_mut().zip(features) {
            col.push(v);
        }
        self.labels.push(label as u32);
        self.n_rows += 1;
        if self.labels.len() == self.chunk_rows {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), ColStoreError> {
        for col in &mut self.cols {
            for v in col.iter() {
                self.file.write_all(&v.to_bits().to_le_bytes())?;
            }
            col.clear();
        }
        for l in &self.labels {
            self.file.write_all(&l.to_le_bytes())?;
        }
        self.labels.clear();
        Ok(())
    }

    /// Flushes the tail chunk, writes the final header, and reopens
    /// the store read-side (which re-validates the header round-trip).
    pub fn finish(mut self) -> Result<ColumnStore, ColStoreError> {
        if !self.labels.is_empty() {
            self.flush_chunk()?;
        }
        let prefix = header_prefix(
            self.dim as u32,
            self.n_classes as u32,
            self.chunk_rows as u32,
            self.n_rows,
        );
        let checksum = fnv1a(&prefix);
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&prefix)?;
        self.file.write_all(&checksum.to_le_bytes())?;
        self.file.flush()?;
        drop(self.file);
        ColumnStore::open(&self.path)
    }
}

/// A validated, read-only handle to an on-disk column store.
///
/// The handle holds only the header — every read opens the file
/// fresh, so `&ColumnStore` is freely shareable across the worker
/// pool during sharded training.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    path: PathBuf,
    dim: usize,
    n_classes: usize,
    chunk_rows: usize,
    n_rows: u64,
}

impl ColumnStore {
    /// Opens and validates a store: magic, header checksum, and exact
    /// expected file length.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ColStoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ColStoreError::BadLength {
                    expected: HEADER_LEN,
                    actual: file.metadata().map(|m| m.len()).unwrap_or(0),
                }
            } else {
                ColStoreError::Io(e)
            }
        })?;
        if &header[0..8] != MAGIC {
            return Err(ColStoreError::BadMagic);
        }
        let stored = u64::from_le_bytes(header[32..40].try_into().unwrap());
        let computed = fnv1a(&header[0..32]);
        if stored != computed {
            return Err(ColStoreError::BadChecksum { stored, computed });
        }
        let dim = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let n_classes = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let chunk_rows = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
        let n_rows = u64::from_le_bytes(header[24..32].try_into().unwrap());
        if dim == 0 {
            return Err(ColStoreError::BadHeader("dim is zero"));
        }
        if n_classes == 0 {
            return Err(ColStoreError::BadHeader("n_classes is zero"));
        }
        if chunk_rows == 0 {
            return Err(ColStoreError::BadHeader("chunk_rows is zero"));
        }
        let store = ColumnStore {
            path,
            dim,
            n_classes,
            chunk_rows,
            n_rows,
        };
        let expected = store
            .expected_len()
            .ok_or(ColStoreError::BadHeader("n_rows x row size overflows u64"))?;
        let actual = file.metadata()?.len();
        if actual != expected {
            return Err(ColStoreError::BadLength { expected, actual });
        }
        Ok(store)
    }

    fn chunk_byte_len(&self, rows: usize) -> u64 {
        rows as u64 * (8 * self.dim as u64 + 4)
    }

    /// Header plus `n_rows` rows, or `None` if a forged header makes
    /// that overflow.
    fn expected_len(&self) -> Option<u64> {
        self.n_rows
            .checked_mul(8 * self.dim as u64 + 4)
            .and_then(|body| body.checked_add(HEADER_LEN))
    }

    /// Total rows.
    pub fn len(&self) -> usize {
        self.n_rows as usize
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Feature columns per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Label space size.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Rows per chunk (reader memory granularity).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Materializes rows `[start, start + count)` as an in-RAM
    /// [`Dataset`], reading only the chunks that overlap the range.
    /// Values are validated here (finite features, in-range labels),
    /// so body corruption surfaces as [`ColStoreError::BadRow`].
    pub fn read_rows(&self, start: usize, count: usize) -> Result<Dataset, ColStoreError> {
        let n = self.n_rows as usize;
        if start.checked_add(count).is_none_or(|end| end > n) {
            return Err(ColStoreError::BadRow {
                row: start as u64,
                message: format!("range {start}+{count} out of bounds (n_rows {n})"),
            });
        }
        let mut ds = Dataset::new(self.n_classes);
        if count == 0 {
            return Ok(ds);
        }
        let mut file = File::open(&self.path)?;
        let mut rows: Vec<Vec<f64>> = vec![vec![0.0; self.dim]; count];
        let mut labels: Vec<usize> = vec![0; count];
        let first_chunk = start / self.chunk_rows;
        let last_chunk = (start + count - 1) / self.chunk_rows;
        let mut buf: Vec<u8> = Vec::new();
        for chunk in first_chunk..=last_chunk {
            let chunk_start = chunk * self.chunk_rows;
            let chunk_len = self.chunk_rows.min(n - chunk_start);
            let offset = HEADER_LEN + self.chunk_byte_len(chunk_start);
            file.seek(SeekFrom::Start(offset))?;
            buf.resize(self.chunk_byte_len(chunk_len) as usize, 0);
            file.read_exact(&mut buf)?;
            // Rows of this chunk that fall inside the request.
            let lo = start.max(chunk_start) - chunk_start;
            let hi = (start + count).min(chunk_start + chunk_len) - chunk_start;
            for r in lo..hi {
                let row = &mut rows[chunk_start + r - start];
                for (col, slot) in row.iter_mut().enumerate().take(self.dim) {
                    let at = col * chunk_len * 8 + r * 8;
                    let bits = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
                    let v = f64::from_bits(bits);
                    if !v.is_finite() {
                        return Err(ColStoreError::BadRow {
                            row: (chunk_start + r) as u64,
                            message: format!("non-finite feature value at column {col}"),
                        });
                    }
                    *slot = v;
                }
            }
            let labels_base = self.dim * chunk_len * 8;
            for r in lo..hi {
                let at = labels_base + r * 4;
                let label = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
                if label >= self.n_classes {
                    return Err(ColStoreError::BadRow {
                        row: (chunk_start + r) as u64,
                        message: format!(
                            "label {label} out of range (n_classes {})",
                            self.n_classes
                        ),
                    });
                }
                labels[chunk_start + r - start] = label;
            }
        }
        for (row, label) in rows.into_iter().zip(labels) {
            ds.push(row, label);
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_util::Pcg64;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("synthattr_colstore_{}_{name}", std::process::id()));
        p
    }

    fn seeded_rows(
        seed: u64,
        n: usize,
        dim: usize,
        n_classes: usize,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = Pcg64::new(seed);
        let rows = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.next_gaussian(0.0, 10.0))
                    .collect::<Vec<f64>>()
            })
            .collect();
        let labels = (0..n).map(|_| rng.next_below(n_classes)).collect();
        (rows, labels)
    }

    fn write_store(
        path: &Path,
        rows: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
        chunk_rows: usize,
    ) -> ColumnStore {
        let dim = rows[0].len();
        let mut w = ColumnStoreWriter::create(path, dim, n_classes, chunk_rows).unwrap();
        for (row, &label) in rows.iter().zip(labels) {
            w.push_row(row, label).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        // Chunk sizes straddling the row count: exact divisor, ragged
        // tail, single chunk, chunk-per-row.
        for (n, chunk_rows) in [(96usize, 32usize), (97, 32), (10, 1024), (7, 1)] {
            let path = tmp_path(&format!("roundtrip_{n}_{chunk_rows}"));
            let (rows, labels) = seeded_rows(n as u64, n, 5, 11);
            let store = write_store(&path, &rows, &labels, 11, chunk_rows);
            assert_eq!(store.len(), n);
            assert_eq!(store.dim(), 5);
            assert_eq!(store.n_classes(), 11);
            let ds = store.read_rows(0, n).unwrap();
            assert_eq!(ds.len(), n);
            for i in 0..n {
                // Bit-exact: compare the raw f64 bits, not approximate
                // values.
                for (a, b) in ds.row(i).iter().zip(&rows[i]) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
                }
                assert_eq!(ds.label(i), labels[i], "row {i}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// Property: any seeded (shape, chunk size) round-trips bit-exact
    /// through the store, including ragged tail chunks.
    #[test]
    fn round_trip_property() {
        use synthattr_util::prop::Runner;
        use synthattr_util::prop_assert_eq;
        let case = std::sync::atomic::AtomicUsize::new(0);
        Runner::new("colstore_round_trip").cases(24).run(
            |rng| {
                let n = 1 + rng.next_below(60);
                let dim = 1 + rng.next_below(6);
                let chunk_rows = 1 + rng.next_below(24);
                let n_classes = 1 + rng.next_below(9);
                (n as u32, dim as u8, chunk_rows as u8, n_classes as u8)
            },
            |&(n, dim, chunk_rows, n_classes)| {
                let (n, dim, chunk_rows, n_classes) = (
                    (n as usize).max(1),
                    (dim as usize).max(1),
                    (chunk_rows as usize).max(1),
                    (n_classes as usize).max(1),
                );
                let id = case.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let path = tmp_path(&format!("prop_{id}"));
                let (rows, labels) = seeded_rows(id as u64 + 100, n, dim, n_classes);
                let store = write_store(&path, &rows, &labels, n_classes, chunk_rows);
                let ds = store.read_rows(0, n).unwrap();
                for i in 0..n {
                    for (a, b) in ds.row(i).iter().zip(&rows[i]) {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "feature bits diverged");
                    }
                    prop_assert_eq!(ds.label(i), labels[i], "label diverged");
                }
                std::fs::remove_file(&path).ok();
                Ok(())
            },
        );
    }

    #[test]
    fn partial_ranges_match_full_read() {
        let path = tmp_path("ranges");
        let (rows, labels) = seeded_rows(3, 50, 4, 6);
        let store = write_store(&path, &rows, &labels, 6, 16);
        let full = store.read_rows(0, 50).unwrap();
        for (start, count) in [
            (0usize, 1usize),
            (15, 2),
            (16, 16),
            (13, 20),
            (49, 1),
            (20, 0),
        ] {
            let part = store.read_rows(start, count).unwrap();
            assert_eq!(part.len(), count, "range {start}+{count}");
            for i in 0..count {
                assert_eq!(
                    part.row(i),
                    full.row(start + i),
                    "range {start}+{count} row {i}"
                );
                assert_eq!(part.label(i), full.label(start + i));
            }
        }
        assert!(store.read_rows(40, 11).is_err(), "out of bounds");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_fails_open() {
        let path = tmp_path("truncated");
        let (rows, labels) = seeded_rows(9, 40, 3, 4);
        let store = write_store(&path, &rows, &labels, 4, 8);
        let full_len = std::fs::metadata(&path).unwrap().len();
        drop(store);
        // Chop the last label off.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full_len - 4).unwrap();
        drop(f);
        match ColumnStore::open(&path) {
            Err(ColStoreError::BadLength { expected, actual }) => {
                assert_eq!(expected, full_len);
                assert_eq!(actual, full_len - 4);
            }
            other => panic!("expected BadLength, got {other:?}"),
        }
        // A file shorter than the header is also a length error, not a
        // panic.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(10).unwrap();
        drop(f);
        assert!(matches!(
            ColumnStore::open(&path),
            Err(ColStoreError::BadLength { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_header_fails_checksum() {
        let path = tmp_path("checksum");
        let (rows, labels) = seeded_rows(11, 20, 3, 4);
        write_store(&path, &rows, &labels, 4, 8);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24] ^= 0xff; // flip a bit inside n_rows
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ColumnStore::open(&path),
            Err(ColStoreError::BadChecksum { .. })
        ));
        // Wrong magic is reported as such, before the checksum.
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ColumnStore::open(&path),
            Err(ColStoreError::BadMagic)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overflowing_header_is_rejected_without_panicking() {
        // A forged 40-byte file with a valid checksum whose declared
        // length, 40 + 2^62 x 12 bytes, overflows u64: open must
        // return an error, never panic or accept 2^62 rows.
        let path = tmp_path("overflow");
        let prefix = header_prefix(1, 1, 1, 1 << 62);
        let mut bytes = prefix.to_vec();
        bytes.extend_from_slice(&fnv1a(&prefix).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let opened = ColumnStore::open(&path);
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(opened, Err(ColStoreError::BadHeader(_))),
            "{opened:?}"
        );
    }

    #[test]
    fn unfinished_writer_leaves_an_unopenable_file() {
        let path = tmp_path("unfinished");
        {
            let mut w = ColumnStoreWriter::create(&path, 3, 4, 8).unwrap();
            w.push_row(&[1.0, 2.0, 3.0], 1).unwrap();
            // Dropped without finish(): header stays zeroed.
        }
        assert!(ColumnStore::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_body_is_a_typed_read_error() {
        let path = tmp_path("body");
        let (rows, labels) = seeded_rows(13, 16, 2, 4);
        write_store(&path, &rows, &labels, 4, 8);
        let mut bytes = std::fs::read(&path).unwrap();
        // First f64 of the first column: all-ones exponent = NaN.
        for b in bytes.iter_mut().take(48).skip(40) {
            *b = 0xff;
        }
        std::fs::write(&path, &bytes).unwrap();
        let store = ColumnStore::open(&path).unwrap(); // header is intact
        match store.read_rows(0, 16) {
            Err(ColStoreError::BadRow { row, .. }) => assert_eq!(row, 0),
            other => panic!("expected BadRow, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_bad_rows() {
        let path = tmp_path("badrows");
        let mut w = ColumnStoreWriter::create(&path, 2, 3, 8).unwrap();
        assert!(matches!(
            w.push_row(&[1.0], 0),
            Err(ColStoreError::BadRow { .. })
        ));
        assert!(matches!(
            w.push_row(&[1.0, 2.0], 3),
            Err(ColStoreError::BadRow { .. })
        ));
        assert!(matches!(
            w.push_row(&[1.0, f64::NAN], 0),
            Err(ColStoreError::BadRow { .. })
        ));
        // Rejected rows must not advance the row counter.
        assert!(w.is_empty());
        w.push_row(&[1.0, 2.0], 2).unwrap();
        assert_eq!(w.len(), 1);
        let store = w.finish().unwrap();
        assert_eq!(store.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_rejects_degenerate_shapes() {
        let path = tmp_path("shapes");
        assert!(matches!(
            ColumnStoreWriter::create(&path, 0, 3, 8),
            Err(ColStoreError::BadHeader(_))
        ));
        assert!(matches!(
            ColumnStoreWriter::create(&path, 2, 0, 8),
            Err(ColStoreError::BadHeader(_))
        ));
        assert!(matches!(
            ColumnStoreWriter::create(&path, 2, 3, 0),
            Err(ColStoreError::BadHeader(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// Feature bits and labels of every row of `store`.
    fn contents(store: &ColumnStore) -> (Vec<Vec<u64>>, Vec<usize>) {
        let ds = store.read_rows(0, store.len()).unwrap();
        let rows = (0..ds.len())
            .map(|i| ds.row(i).iter().map(|v| v.to_bits()).collect())
            .collect();
        (rows, ds.labels().to_vec())
    }

    #[test]
    fn rewriting_a_path_replaces_the_old_store() {
        for (name, new_rows) in [("fewer", 9usize), ("more", 61)] {
            let path = tmp_path(&format!("rewrite_{name}"));
            let link = tmp_path(&format!("rewrite_{name}_link"));
            let (rows, labels) = seeded_rows(17, 30, 3, 5);
            let old = write_store(&path, &rows, &labels, 5, 8);
            let old_contents = contents(&old);
            let _ = std::fs::remove_file(&link);
            std::fs::hard_link(&path, &link).unwrap();

            let (rows, labels) = seeded_rows(18, new_rows, 3, 5);
            write_store(&path, &rows, &labels, 5, 8);
            let reopened = ColumnStore::open(&path).unwrap();
            assert_eq!(reopened.len(), new_rows, "{name}");
            let want: Vec<Vec<u64>> = rows
                .iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect();
            assert_eq!(contents(&reopened), (want, labels), "{name}");
            // The old file was replaced, not truncated: a second name
            // for it still opens the old store.
            let linked = ColumnStore::open(&link).unwrap();
            assert_eq!(contents(&linked), old_contents, "{name}");
            std::fs::remove_file(&path).unwrap();
            std::fs::remove_file(&link).unwrap();
        }
    }

    #[test]
    fn create_on_a_directory_is_an_error() {
        let dir = tmp_path("a_directory");
        std::fs::create_dir_all(&dir).unwrap();
        let created = ColumnStoreWriter::create(&dir, 2, 3, 8);
        let still_a_dir = dir.is_dir();
        std::fs::remove_dir(&dir).unwrap();
        assert!(matches!(created, Err(ColStoreError::Io(_))));
        assert!(still_a_dir);
    }

    #[test]
    fn empty_store_round_trips() {
        let path = tmp_path("empty");
        let w = ColumnStoreWriter::create(&path, 2, 3, 8).unwrap();
        let store = w.finish().unwrap();
        assert!(store.is_empty());
        assert_eq!(store.read_rows(0, 0).unwrap().len(), 0);
        assert!(store.read_rows(0, 1).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
