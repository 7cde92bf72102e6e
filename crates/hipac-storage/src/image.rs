//! The image: the store's contents as of the last checkpoint, one
//! immutable file with its pairs in key order.
//!
//! Only the checkpoint writes an image, and it writes a whole new one
//! next to the old (see [`crate::store`]); nothing is written in place.
//! The file, all integers little-endian:
//!
//! ```text
//! record*     [key_len u32][val_len u32][key][value][crc32]
//! directory   ([key_len u32][key][record offset u64])* [crc32]
//! trailer     [directory offset u64][count u64]["HIPACIMG"]
//! ```
//!
//! A record's CRC covers its lengths, key and value; the directory's
//! covers all of its entries. Open reads the trailer and the directory
//! into one sorted in-memory array of every key and its record's
//! offset. So a key probe is a binary search with no I/O, a value is
//! one positioned read whose CRC is checked, and a range is a directory
//! search plus reads in key order. Every image key is also resident in
//! the Object Manager, so holding the keys costs little.
//!
//! A missing file is the empty image. The paged format that preceded
//! this one (`HIPACDB1`) is refused with a [`HipacError::Corruption`]
//! that names the format break: there is no converter.

use crate::crc::{crc32, crc32_extend};
use crate::fault::{FaultPoint, FaultPolicy};
use crate::memtable::Live;
use hipac_common::{HipacError, Result};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::ops::Bound;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// The trailer's last eight bytes.
const MAGIC: [u8; 8] = *b"HIPACIMG";
/// The first eight bytes of a data file in the paged format (its meta
/// page's `u64` magic), which this version no longer reads.
const PAGED_MAGIC: [u8; 8] = 0x4849_5041_4344_4231u64.to_le_bytes();
/// Directory offset, count, magic.
const TRAILER: usize = 24;
/// A record's two lengths, before its key.
const RECORD_HEAD: usize = 8;
/// A record's CRC, after its value.
const RECORD_CRC: usize = 4;
/// The writer's buffer, and the most a scan reads ahead.
const CHUNK: usize = 64 * 1024;

/// Flush the directory entry metadata for `dir` to stable storage.
///
/// `fsync` of a newly created or renamed file does not make its
/// *directory entry* durable; a crash can leave the file's contents on
/// disk but the name missing. Called after file creation and after
/// every rename.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Every key of an image and where its record starts, in key order.
#[derive(Default)]
struct Directory {
    /// The keys, end to end.
    keys: Vec<u8>,
    /// Where key `i` ends in `keys`.
    ends: Vec<usize>,
    /// Where record `i` starts in the file, and one more entry: the
    /// directory's own offset, where the last record ends.
    offsets: Vec<u64>,
}

impl Directory {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.keys[start..self.ends[i]]
    }

    fn push(&mut self, key: &[u8], offset: u64) {
        self.keys.extend_from_slice(key);
        self.ends.push(self.keys.len());
        self.offsets.push(offset);
    }

    /// `Ok(i)` when key `i` is `key`, otherwise `Err` of where it would go.
    fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// The first index inside a start bound.
    fn first(&self, start: Bound<&[u8]>) -> usize {
        match start {
            Bound::Unbounded => 0,
            Bound::Included(key) => self.search(key).unwrap_or_else(|i| i),
            Bound::Excluded(key) => self.search(key).map_or_else(|i| i, |i| i + 1),
        }
    }

    /// The first index past an end bound.
    fn past(&self, end: Bound<&[u8]>) -> usize {
        match end {
            Bound::Unbounded => self.len(),
            Bound::Included(key) => self.search(key).map_or_else(|i| i, |i| i + 1),
            Bound::Excluded(key) => self.search(key).unwrap_or_else(|i| i),
        }
    }
}

/// An open image: its file and its directory.
#[derive(Default)]
pub(crate) struct Image {
    /// `None` for the empty image no checkpoint has written yet.
    file: Option<File>,
    dir: Directory,
}

impl Image {
    /// Open the image at `path`; a missing file is the empty image.
    /// Reads the trailer and the directory, and no record.
    pub(crate) fn open(path: &Path) -> Result<Image> {
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Image::default()),
            Err(e) => return Err(e.into()),
        };
        let bad = |what: &str| HipacError::Corruption(format!("{}: {what}", path.display()));
        let len = file.metadata()?.len();
        let mut trailer = [0u8; TRAILER];
        if len >= TRAILER as u64 {
            file.read_exact_at(&mut trailer, len - TRAILER as u64)?;
        }
        if len < TRAILER as u64 || trailer[16..] != MAGIC {
            let mut head = [0u8; 8];
            if len >= 8 && file.read_exact_at(&mut head, 0).is_ok() && head == PAGED_MAGIC {
                return Err(bad(
                    "data file in the paged format (HIPACDB1), which this version no longer \
                     reads; the image format changed and no converter exists",
                ));
            }
            return Err(bad("no image trailer (truncated, or not an image file)"));
        }
        let word = |at: usize| u64::from_le_bytes(trailer[at..at + 8].try_into().expect("eight"));
        let (dir_offset, count) = (word(0), word(8));
        let dir_len = (len - TRAILER as u64)
            .checked_sub(dir_offset)
            .filter(|&n| n >= RECORD_CRC as u64)
            .ok_or_else(|| bad("directory offset past the trailer"))?;
        let mut bytes = vec![0u8; dir_len as usize];
        file.read_exact_at(&mut bytes, dir_offset)?;
        let (entries, crc) = bytes.split_at(bytes.len() - RECORD_CRC);
        if crc32(entries) != u32::from_le_bytes(crc.try_into().expect("four")) {
            return Err(bad("directory fails its checksum"));
        }
        let mut dir = Directory::default();
        let mut rest = entries;
        while !rest.is_empty() {
            let key_len = rest
                .get(..4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("four")) as usize)
                .ok_or_else(|| bad("torn directory entry"))?;
            let (key, offset) = rest
                .get(4..4 + key_len + 8)
                .map(|entry| entry.split_at(key_len))
                .ok_or_else(|| bad("torn directory entry"))?;
            let offset = u64::from_le_bytes(offset.try_into().expect("eight"));
            if offset < dir.offsets.last().copied().unwrap_or(0) || offset > dir_offset {
                return Err(bad("directory offsets out of order"));
            }
            dir.push(key, offset);
            rest = &rest[4 + key_len + 8..];
        }
        if dir.len() as u64 != count {
            return Err(bad("directory and trailer disagree on the key count"));
        }
        dir.offsets.push(dir_offset);
        Ok(Image {
            file: Some(file),
            dir,
        })
    }

    /// Write `pairs`, in ascending key order, as a new image at `path`
    /// (replacing any file there), fsync it and return it open. The
    /// bytes go out through one fixed buffer, and the directory is
    /// built as the records are written, so nothing is read back.
    pub(crate) fn write<'a>(
        path: &Path,
        pairs: impl Iterator<Item = Result<Live<'a>>>,
        faults: &FaultPolicy,
    ) -> Result<Image> {
        let _ = std::fs::remove_file(path);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        let mut out = Writer {
            file,
            buf: Vec::with_capacity(CHUNK),
            flushed: 0,
            faults,
        };
        let mut dir = Directory::default();
        for live in pairs {
            let live = live?;
            let (key, value) = live.pair();
            debug_assert!(dir.len() == 0 || dir.key(dir.len() - 1) < key);
            dir.push(key, out.offset());
            let mut head = [0u8; RECORD_HEAD];
            head[..4].copy_from_slice(&len_u32(key)?.to_le_bytes());
            head[4..].copy_from_slice(&len_u32(value)?.to_le_bytes());
            let crc = crc32_extend(crc32_extend(crc32(&head), key), value);
            for part in [&head[..], key, value, &crc.to_le_bytes()] {
                out.put(part)?;
            }
        }
        let dir_offset = out.offset();
        let mut crc = 0;
        for i in 0..dir.len() {
            let key = dir.key(i);
            let (len, offset) = (len_u32(key)?.to_le_bytes(), dir.offsets[i].to_le_bytes());
            for part in [&len[..], key, &offset] {
                crc = crc32_extend(crc, part);
                out.put(part)?;
            }
        }
        out.put(&crc.to_le_bytes())?;
        out.put(&dir_offset.to_le_bytes())?;
        out.put(&(dir.len() as u64).to_le_bytes())?;
        out.put(&MAGIC)?;
        out.flush()?;
        faults.hit(FaultPoint::ImageSync)?;
        out.file.sync_all()?;
        dir.offsets.push(dir_offset);
        Ok(Image {
            file: Some(out.file),
            dir,
        })
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.dir.len()
    }

    /// Whether the image holds `key` (no I/O).
    pub(crate) fn contains(&self, key: &[u8]) -> bool {
        self.dir.search(key).is_ok()
    }

    /// Every key, in order (no I/O).
    pub(crate) fn keys(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.dir.len()).map(|i| self.dir.key(i))
    }

    /// The value of `key`: one read, checked against its CRC.
    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let Ok(i) = self.dir.search(key) else {
            return Ok(None);
        };
        let start = self.dir.offsets[i];
        let mut record = vec![0u8; (self.dir.offsets[i + 1] - start) as usize];
        self.file()?.read_exact_at(&mut record, start)?;
        Ok(Some(self.value(i, &record)?.to_vec()))
    }

    /// The pairs with keys in the bounds, in key order, read
    /// sequentially and no further than the last of them.
    pub(crate) fn range(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Scan<'_> {
        Scan {
            image: self,
            next: self.dir.first(start),
            end: self.dir.past(end),
            buf: Vec::new(),
            buf_at: 0,
        }
    }

    fn file(&self) -> Result<&File> {
        self.file
            .as_ref()
            .ok_or_else(|| HipacError::Internal("a record read from the empty image".into()))
    }

    /// Record `i`'s value, from its bytes `record`, once its CRC and its
    /// key (against the directory's) check out.
    fn value<'r>(&self, i: usize, record: &'r [u8]) -> Result<&'r [u8]> {
        let bad = || HipacError::Corruption(format!("image record {i} fails its checksum"));
        let body_len = record
            .len()
            .checked_sub(RECORD_CRC)
            .filter(|&n| n >= RECORD_HEAD)
            .ok_or_else(bad)?;
        let (body, crc) = record.split_at(body_len);
        if crc32(body) != u32::from_le_bytes(crc.try_into().expect("four")) {
            return Err(bad());
        }
        let len = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().expect("four"));
        let (key_len, value_len) = (len(0) as usize, len(4) as usize);
        let key_end = RECORD_HEAD + key_len;
        if key_end + value_len != body.len() || &body[RECORD_HEAD..key_end] != self.dir.key(i) {
            return Err(bad());
        }
        Ok(&body[key_end..])
    }
}

fn len_u32(bytes: &[u8]) -> Result<u32> {
    u32::try_from(bytes.len())
        .map_err(|_| HipacError::Internal("an image key or value of 4 GiB or more".into()))
}

/// The image file being written: its bytes go out through `buf`, a
/// full buffer per write (the last one excepted), one
/// [`FaultPoint::ImageWrite`] per write.
struct Writer<'f> {
    file: File,
    buf: Vec<u8>,
    /// Bytes already written to the file.
    flushed: u64,
    faults: &'f FaultPolicy,
}

impl Writer<'_> {
    /// Where the next byte put lands in the file.
    fn offset(&self) -> u64 {
        self.flushed + self.buf.len() as u64
    }

    /// Buffer `bytes`, writing the buffer out each time it fills.
    fn put(&mut self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            let n = (CHUNK - self.buf.len()).min(bytes.len());
            self.buf.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if self.buf.len() == CHUNK {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.faults.hit(FaultPoint::ImageWrite)?;
            self.file.write_all(&self.buf)?;
            self.flushed += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }
}

/// A key-ordered read of an image's records `next..end`, a chunk at a
/// time. It stops after its first error.
pub(crate) struct Scan<'a> {
    image: &'a Image,
    next: usize,
    end: usize,
    /// Bytes of the file from `buf_at` on.
    buf: Vec<u8>,
    buf_at: u64,
}

impl Scan<'_> {
    fn read(&mut self, i: usize) -> Result<Vec<u8>> {
        let offsets = &self.image.dir.offsets;
        let (start, stop) = (offsets[i], offsets[i + 1]);
        if stop > self.buf_at + self.buf.len() as u64 {
            // From this record on: a chunk, or the whole record, but
            // nothing past the scan's last record.
            let fill_end = offsets[self.end].min(start + CHUNK as u64).max(stop);
            self.buf.resize((fill_end - start) as usize, 0);
            self.image.file()?.read_exact_at(&mut self.buf, start)?;
            self.buf_at = start;
        }
        let record = &self.buf[(start - self.buf_at) as usize..(stop - self.buf_at) as usize];
        Ok(self.image.value(i, record)?.to_vec())
    }
}

impl Iterator for Scan<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some(match self.read(i) {
            Ok(value) => Ok((self.image.dir.key(i).to_vec(), value)),
            Err(e) => {
                self.next = self.end;
                Err(e)
            }
        })
    }
}
