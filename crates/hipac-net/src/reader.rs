//! [`FrameReader`]: the incremental frame reader behind every socket
//! read in the workspace. One `read` takes whatever the kernel holds —
//! a burst of frames — into a reused buffer, complete frames decode in
//! place, and a partial frame waits for the rest. A server worker
//! serves every connection it owns in turn with one reader: it
//! [`unpark`](FrameReader::unpark)s a connection's leftover bytes
//! before reading it and [`park`](FrameReader::park)s them after, so an
//! idle connection holds no read buffer. [`Frame::read_from`] stays the
//! one-shot blocking helper.

use crate::proto::{Frame, WireError, MAX_FRAME};
use std::io::{ErrorKind, Read};

/// Read buffer a reader starts with (and shrinks back to once an
/// oversized frame has been consumed).
const READ_BUF: usize = 64 * 1024;

/// Buffered, incremental frame reader over any [`Read`].
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the bytes not yet decoded.
    start: usize,
    /// End of the bytes read so far.
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// An empty reader with a 64 KiB buffer.
    pub fn new() -> FrameReader {
        FrameReader {
            buf: vec![0u8; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Length prefix of the frame at the head of the buffer, once its
    /// four bytes are in. `Err` on a prefix beyond [`MAX_FRAME`],
    /// before any of the payload is read.
    fn head_len(&self) -> Result<Option<usize>, WireError> {
        let Some(prefix) = self.buf[self.start..self.end].get(..4) else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(prefix.try_into().expect("a 4-byte slice")) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Protocol(format!(
                "frame of {len} bytes exceeds cap {MAX_FRAME}"
            )));
        }
        Ok(Some(len))
    }

    /// The next complete frame already in the buffer, if any. `Err` on
    /// an oversize or undecodable frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some(len) = self.head_len()? else {
            return Ok(None);
        };
        if self.end - self.start < 4 + len {
            return Ok(None);
        }
        let frame = Frame::decode(&self.buf[self.start + 4..self.start + 4 + len])?;
        self.start += 4 + len;
        Ok(Some(frame))
    }

    /// One `read` from `r` into the buffer. `Ok(false)` when the read
    /// would block (a read-timeout tick, or a non-blocking socket with
    /// nothing to read). EOF is an error: [`WireError::Io`] at a frame
    /// boundary, [`WireError::Protocol`] with a partial frame buffered.
    pub fn fill(&mut self, r: &mut impl Read) -> Result<bool, WireError> {
        // Move what is left undecoded to the front so the read has the
        // rest of the buffer.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == 0 && self.buf.len() > READ_BUF {
            self.buf = vec![0u8; READ_BUF];
        }
        if self.end == self.buf.len() {
            // A frame larger than the buffer: grow to hold it.
            let need = 4 + self.head_len()?.unwrap_or(0);
            self.buf.resize(need.max(self.buf.len() + READ_BUF), 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Err(WireError::Io("connection closed".into())),
                Ok(0) => {
                    return Err(WireError::Protocol(format!(
                        "eof inside a frame ({} bytes buffered)",
                        self.end
                    )))
                }
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(false)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Free buffer space after the bytes read so far. Right after a
    /// [`fill`](FrameReader::fill) that read something, a non-zero room
    /// means the read was short: the source held no more just then.
    pub fn room(&self) -> usize {
        self.buf.len() - self.end
    }

    /// The next frame, reading `r` once if none is buffered. `Ok(None)`
    /// when no complete frame arrived within that read.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Frame>, WireError> {
        if let Some(frame) = self.next_frame()? {
            return Ok(Some(frame));
        }
        if !self.fill(r)? {
            return Ok(None);
        }
        self.next_frame()
    }

    /// Take the undecoded bytes out, leaving the reader empty for the
    /// next connection. Nothing buffered parks as an empty `Vec`, which
    /// allocates nothing; more than a buffer's worth (an oversized
    /// frame in flight) parks the grown buffer whole instead of a copy.
    pub fn park(&mut self) -> Vec<u8> {
        let (start, end) = (self.start, self.end);
        self.start = 0;
        self.end = 0;
        if start == end {
            return Vec::new();
        }
        if end - start > READ_BUF {
            self.buf.copy_within(start..end, 0);
            self.buf.truncate(end - start);
            return std::mem::replace(&mut self.buf, vec![0u8; READ_BUF]);
        }
        self.buf[start..end].to_vec()
    }

    /// Load bytes a [`park`](FrameReader::park) took out. The reader
    /// must be empty (parked).
    pub fn unpark(&mut self, rest: Vec<u8>) {
        debug_assert_eq!(self.start, self.end, "unpark into a reader holding bytes");
        self.start = 0;
        self.end = rest.len();
        if rest.len() > self.buf.len() {
            self.buf = rest;
        } else {
            self.buf[..rest.len()].copy_from_slice(&rest);
        }
    }
}
