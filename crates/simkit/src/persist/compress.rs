//! Streaming LZ77 compression for run artifacts.
//!
//! The build environment is fully offline, so — like the stand-ins under
//! `crates/compat/` — this is a small, self-contained codec rather than a
//! binding to a real compression crate: an LZSS byte format (literals and
//! back-references into a 64 KiB window) with independently compressed
//! blocks, a self-describing magic header and an FNV-1a checksum trailer.
//! On the workspace's JSONL artifacts, whose records repeat almost
//! verbatim line after line, it shrinks files 3–6×; swapping it for a
//! real DEFLATE implementation when a networked build exists only changes
//! this module.
//!
//! ## Stream format
//!
//! ```text
//! magic  b"AOZ1"
//! block* [raw_len: u32 LE][payload_len: u32 LE][payload]
//! end    [0: u32 LE][0: u32 LE][fnv1a(all raw bytes): u64 LE]
//! ```
//!
//! Each block holds up to 64 KiB of input, compressed independently
//! (`payload_len < raw_len`: LZSS tokens) or stored verbatim when the
//! tokens would not shrink it (`payload_len == raw_len`). Token groups are
//! a control byte (LSB first; `1` = match, `0` = literal) followed by
//! eight tokens: a literal is one byte, a match is `[distance−1: u16 LE]
//! [length−4: u8]` covering lengths 4..=259 anywhere earlier in the same
//! block.
//!
//! A stream that ends before the end marker reads as
//! [`io::ErrorKind::UnexpectedEof`]; a corrupt token, impossible
//! back-reference or checksum mismatch reads as
//! [`io::ErrorKind::InvalidData`] — [`read_artifact`](super::read_artifact)
//! maps these to [`PersistError::Truncated`](super::PersistError::Truncated)
//! and [`PersistError::Corrupt`](super::PersistError::Corrupt).
//!
//! ## Streaming use
//!
//! [`CompressWriter`] implements [`io::Write`] over any sink and performs
//! **no heap allocation after construction** — all window, hash-chain and
//! block buffers are sized up front — which keeps the artifact writer's
//! per-sample hot path allocation-free with compression enabled.
//! [`DecompressReader`] implements [`io::Read`] and [`io::BufRead`]. It
//! is what [`read_artifact`](super::read_artifact) reads compressed files
//! through (detected by the magic bytes, regardless of file name), and
//! what an unchanged-artifact check compares an existing file through
//! ([`write_if_changed`](super::write_if_changed)).
//!
//! ```
//! use simkit::persist::compress::{compress, decompress};
//!
//! let text = b"abcabcabcabcabcabc--abcabcabcabcabcabc".repeat(50);
//! let packed = compress(&text);
//! assert!(packed.len() < text.len() / 3);
//! assert_eq!(decompress(&packed).unwrap(), text);
//! ```

use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};

/// The stream's self-describing prefix: readers detect a compressed
/// artifact by these bytes, never by file name.
pub const MAGIC: [u8; 4] = *b"AOZ1";

/// File-name suffix conventionally appended to compressed artifacts
/// (`run.trace.jsonl` → `run.trace.jsonl.z`). Informational only — see
/// [`MAGIC`].
pub const SUFFIX: &str = ".z";

/// Maximum raw bytes per independently compressed block (also the match
/// window: back-references never cross a block boundary).
const BLOCK: usize = 1 << 16;
/// Shortest back-reference worth a 3-byte token.
const MIN_MATCH: usize = 4;
/// Longest back-reference a token can express.
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Hash-table size for the match finder.
const HASH_BITS: u32 = 15;
/// How many chain candidates the match finder tries per position.
const CHAIN_LIMIT: usize = 64;

/// Whether an artifact file is written plain or compressed.
///
/// The knob every artifact-producing API accepts; `Deflate` names the
/// compression *role* (the hand-rolled LZSS stream of this module stands
/// in for a real DEFLATE until a networked build environment exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Compression {
    /// Plain JSONL, byte-for-byte readable.
    #[default]
    None,
    /// The streaming LZSS format of [`persist::compress`](self).
    Deflate,
}

impl Compression {
    /// The file-name suffix this encoding conventionally appends.
    pub fn suffix(self) -> &'static str {
        match self {
            Compression::None => "",
            Compression::Deflate => SUFFIX,
        }
    }

    /// `path` with this encoding's suffix appended.
    pub fn apply_to(self, path: &Path) -> PathBuf {
        match self {
            Compression::None => path.to_path_buf(),
            Compression::Deflate => {
                let mut s = path.as_os_str().to_os_string();
                s.push(SUFFIX);
                PathBuf::from(s)
            }
        }
    }
}

/// FNV-1a over a byte slice, continuing from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable match-finder state (sized once, reset per block).
struct Matcher {
    head: Vec<i32>,
    prev: Vec<i32>,
}

impl Matcher {
    fn new() -> Self {
        Matcher {
            head: vec![-1; 1 << HASH_BITS],
            prev: vec![-1; BLOCK],
        }
    }

    fn reset(&mut self) {
        self.head.fill(-1);
    }

    fn insert(&mut self, data: &[u8], pos: usize) {
        if pos + MIN_MATCH <= data.len() {
            let h = hash4(&data[pos..]);
            self.prev[pos] = self.head[h];
            self.head[h] = pos as i32;
        }
    }

    /// Longest match for `pos` among chained earlier positions; returns
    /// `(distance, length)` when at least [`MIN_MATCH`] bytes match.
    fn find(&self, data: &[u8], pos: usize) -> Option<(usize, usize)> {
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut candidate = self.head[hash4(&data[pos..])];
        let mut tries = CHAIN_LIMIT;
        while candidate >= 0 && tries > 0 {
            let cand = candidate as usize;
            debug_assert!(cand < pos);
            // Cheap rejection: the byte that would extend the best match.
            if data[cand + best_len] == data[pos + best_len] {
                let mut len = 0;
                while len < max_len && data[cand + len] == data[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand;
                    if len == max_len {
                        break;
                    }
                }
            }
            candidate = self.prev[cand];
            tries -= 1;
        }
        (best_len >= MIN_MATCH).then_some((best_dist, best_len))
    }
}

/// Compresses one block into `out` (cleared first). Returns `false` when
/// the tokens would not shrink the block (caller stores it verbatim).
fn compress_block(data: &[u8], matcher: &mut Matcher, out: &mut Vec<u8>) -> bool {
    debug_assert!(data.len() <= BLOCK);
    out.clear();
    matcher.reset();
    let mut control_at = usize::MAX;
    let mut control_bit = 8u8; // forces a fresh control byte first
    let mut emit = |out: &mut Vec<u8>, is_match: bool| {
        if control_bit == 8 {
            control_at = out.len();
            out.push(0);
            control_bit = 0;
        }
        if is_match {
            out[control_at] |= 1 << control_bit;
        }
        control_bit += 1;
    };
    let mut pos = 0usize;
    while pos < data.len() {
        let found = matcher.find(data, pos);
        let take = match found {
            Some((dist, len)) => {
                // One-step lazy matching: prefer a strictly longer match
                // starting one byte later.
                matcher.insert(data, pos);
                let defer = matcher
                    .find(data, pos + 1)
                    .is_some_and(|(_, next_len)| next_len > len);
                if defer {
                    None
                } else {
                    Some((dist, len))
                }
            }
            None => {
                matcher.insert(data, pos);
                None
            }
        };
        match take {
            Some((dist, len)) => {
                emit(out, true);
                let d = (dist - 1) as u16;
                out.extend_from_slice(&d.to_le_bytes());
                out.push((len - MIN_MATCH) as u8);
                // Index every covered position so later matches can start
                // inside this one (pos itself is already inserted).
                for p in pos + 1..pos + len {
                    matcher.insert(data, p);
                }
                pos += len;
            }
            None => {
                emit(out, false);
                out.push(data[pos]);
                pos += 1;
            }
        }
        if out.len() >= data.len() {
            return false; // incompressible — store verbatim
        }
    }
    true
}

/// Decodes one LZ block of `raw_len` bytes into `out` (cleared first).
fn decompress_block(payload: &[u8], raw_len: usize, out: &mut Vec<u8>) -> io::Result<()> {
    let corrupt = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    out.clear();
    let mut pos = 0usize;
    let mut control = 0u8;
    let mut control_bit = 8u8;
    while out.len() < raw_len {
        if control_bit == 8 {
            control = *payload
                .get(pos)
                .ok_or_else(|| corrupt("token stream ended early"))?;
            pos += 1;
            control_bit = 0;
        }
        let is_match = control & (1 << control_bit) != 0;
        control_bit += 1;
        if is_match {
            let bytes = payload
                .get(pos..pos + 3)
                .ok_or_else(|| corrupt("match token ended early"))?;
            pos += 3;
            let dist = u16::from_le_bytes([bytes[0], bytes[1]]) as usize + 1;
            let len = bytes[2] as usize + MIN_MATCH;
            if dist > out.len() {
                return Err(corrupt("back-reference before block start"));
            }
            if out.len() + len > raw_len {
                return Err(corrupt("match overruns the declared block length"));
            }
            // An overlapping copy (dist < len, run-length encoding) repeats
            // every `dist` bytes, so copying the `dist`-byte window at
            // `start` over and over covers both cases.
            let start = out.len() - dist;
            let mut left = len;
            while left > 0 {
                let n = left.min(dist);
                out.extend_from_within(start..start + n);
                left -= n;
            }
        } else {
            let b = *payload
                .get(pos)
                .ok_or_else(|| corrupt("literal ended early"))?;
            pos += 1;
            out.push(b);
        }
    }
    if pos != payload.len() {
        return Err(corrupt("trailing bytes after the block's tokens"));
    }
    Ok(())
}

/// Streaming compressor: [`io::Write`] adaptor that packs its input into
/// the block stream described in the [module docs](self).
///
/// All buffers are allocated in [`new`](CompressWriter::new); `write` and
/// block emission never touch the heap. The stream is only valid once
/// [`finish`](CompressWriter::finish) has written the end marker and
/// checksum — dropping the writer without finishing leaves a truncated
/// stream that readers reject.
#[derive(Debug)]
pub struct CompressWriter<W: Write> {
    inner: W,
    block: Vec<u8>,
    out: Vec<u8>,
    matcher: MatcherBox,
    checksum: u64,
    wrote_magic: bool,
}

// Matcher has no Debug and is an implementation detail; box it behind a
// newtype so CompressWriter can derive Debug.
struct MatcherBox(Matcher);

impl std::fmt::Debug for MatcherBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Matcher")
    }
}

impl<W: Write> CompressWriter<W> {
    /// Wraps `inner`; the magic header is emitted with the first byte
    /// written (an empty finished stream still carries magic + end marker).
    pub fn new(inner: W) -> Self {
        CompressWriter {
            inner,
            block: Vec::with_capacity(BLOCK),
            // Worst case: 1 control byte per 8 literals, plus slack for the
            // incompressibility check to trip before overflowing.
            out: Vec::with_capacity(BLOCK + BLOCK / 8 + 16),
            matcher: MatcherBox(Matcher::new()),
            checksum: FNV_SEED,
            wrote_magic: false,
        }
    }

    fn ensure_magic(&mut self) -> io::Result<()> {
        if !self.wrote_magic {
            self.inner.write_all(&MAGIC)?;
            self.wrote_magic = true;
        }
        Ok(())
    }

    fn emit_block(&mut self) -> io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        self.ensure_magic()?;
        self.checksum = fnv1a(self.checksum, &self.block);
        let raw_len = self.block.len() as u32;
        let compressed = compress_block(&self.block, &mut self.matcher.0, &mut self.out);
        let payload: &[u8] = if compressed { &self.out } else { &self.block };
        self.inner.write_all(&raw_len.to_le_bytes())?;
        self.inner
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.inner.write_all(payload)?;
        self.block.clear();
        Ok(())
    }

    /// Compresses any buffered input, writes the end marker and checksum,
    /// flushes, and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the final writes.
    pub fn finish(mut self) -> io::Result<W> {
        self.emit_block()?;
        self.ensure_magic()?;
        self.inner.write_all(&0u32.to_le_bytes())?;
        self.inner.write_all(&0u32.to_le_bytes())?;
        self.inner.write_all(&self.checksum.to_le_bytes())?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for CompressWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while !rest.is_empty() {
            let room = BLOCK - self.block.len();
            let take = room.min(rest.len());
            self.block.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.block.len() == BLOCK {
                self.emit_block()?;
            }
        }
        Ok(buf.len())
    }

    /// Flushes the *inner* writer only. Buffered input stays buffered —
    /// emitting partial blocks on every flush would fragment the stream —
    /// and is written by [`finish`](CompressWriter::finish).
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Streaming decompressor: [`io::Read`] adaptor over a compressed stream.
///
/// Construction consumes and verifies the magic header; reads then serve
/// decoded bytes block by block. Reaching the end marker verifies the
/// checksum; a stream that ends early yields
/// [`io::ErrorKind::UnexpectedEof`].
#[derive(Debug)]
pub struct DecompressReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    payload: Vec<u8>,
    pos: usize,
    checksum: u64,
    done: bool,
}

impl<R: Read> DecompressReader<R> {
    /// Wraps `inner`, reading and checking the magic header immediately.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the magic bytes do not match,
    /// [`io::ErrorKind::UnexpectedEof`] when the stream is shorter than
    /// the header.
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        inner.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a compressed artifact stream (bad magic)",
            ));
        }
        Ok(DecompressReader {
            inner,
            buf: Vec::new(),
            payload: Vec::new(),
            pos: 0,
            checksum: FNV_SEED,
            done: false,
        })
    }

    /// The underlying reader, positioned just past the end marker and
    /// checksum once the stream has been read to its end.
    pub(crate) fn into_inner(self) -> R {
        self.inner
    }

    fn next_block(&mut self) -> io::Result<()> {
        let corrupt = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
        let mut header = [0u8; 8];
        self.inner.read_exact(&mut header).map_err(truncated)?;
        // lint:allow(panic-hygiene): both slices are constant 4-byte ranges of
        // the fixed 8-byte block header.
        let raw_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        // lint:allow(panic-hygiene): constant 4-byte range, as above.
        let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        if raw_len == 0 {
            // End marker: the checksum trailer must follow and match.
            if payload_len != 0 {
                return Err(corrupt("end marker with a payload"));
            }
            let mut trailer = [0u8; 8];
            self.inner.read_exact(&mut trailer).map_err(truncated)?;
            if u64::from_le_bytes(trailer) != self.checksum {
                return Err(corrupt("checksum mismatch — stream corrupted"));
            }
            self.done = true;
            return Ok(());
        }
        if raw_len > BLOCK || payload_len > raw_len {
            return Err(corrupt("implausible block header"));
        }
        self.payload.resize(payload_len, 0);
        self.inner
            .read_exact(&mut self.payload)
            .map_err(truncated)?;
        if payload_len == raw_len {
            std::mem::swap(&mut self.buf, &mut self.payload); // stored block
        } else {
            decompress_block(&self.payload, raw_len, &mut self.buf)?;
        }
        self.checksum = fnv1a(self.checksum, &self.buf);
        self.pos = 0;
        Ok(())
    }
}

/// An EOF inside a block or header means the writer died mid-stream.
fn truncated(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "compressed stream ended before its end marker",
        )
    } else {
        e
    }
}

impl<R: Read> Read for DecompressReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Serves the decoded block in place, so a line reader or a comparing
/// sink needs no second buffer on top of the decoder's own.
impl<R: Read> BufRead for DecompressReader<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.pos == self.buf.len() {
            if self.done {
                return Ok(&[]);
            }
            self.next_block()?;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// One-shot convenience: compresses `data` into a complete stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut writer = CompressWriter::new(Vec::new());
    // lint:allow(panic-hygiene): io::Write for Vec<u8> is infallible.
    writer.write_all(data).expect("Vec never fails");
    // lint:allow(panic-hygiene): io::Write for Vec<u8> is infallible.
    writer.finish().expect("Vec never fails")
}

/// One-shot convenience: decodes a complete stream produced by
/// [`compress`] or [`CompressWriter`].
///
/// # Errors
///
/// Same conditions as [`DecompressReader`].
pub fn decompress(data: &[u8]) -> io::Result<Vec<u8>> {
    let mut reader = DecompressReader::new(data)?;
    let mut out = Vec::new();
    reader.read_to_end(&mut out)?;
    Ok(out)
}

/// Whether `prefix` (the first bytes of a file) announces a compressed
/// stream.
pub fn is_compressed(prefix: &[u8]) -> bool {
    prefix.starts_with(&MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let packed = compress(data);
        assert_eq!(decompress(&packed).unwrap(), data, "round trip");
        packed
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(round_trip(b"").len(), 4 + 8 + 8); // magic + end + checksum
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_text_shrinks_hard() {
        let line = b"{\"kind\":\"sample\",\"ch\":3,\"slot\":417,\"value\":6}\n";
        let data: Vec<u8> = line.iter().copied().cycle().take(64 * 1024).collect();
        let packed = round_trip(&data);
        assert!(
            packed.len() * 10 < data.len(),
            "highly repetitive input must shrink >10x, got {} / {}",
            packed.len(),
            data.len()
        );
    }

    #[test]
    fn incompressible_input_is_stored_with_bounded_overhead() {
        // A cheap deterministic byte scrambler (no patterns of length >= 4).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let packed = round_trip(&data);
        // Stored blocks cost 8 header bytes per 64 KiB plus the envelope.
        assert!(packed.len() < data.len() + 64);
    }

    #[test]
    fn multi_block_streams_round_trip() {
        // Spans three blocks with long-range structure inside each.
        let data: Vec<u8> = (0..3 * BLOCK + 1234)
            .map(|i| ((i / 7) % 251) as u8)
            .collect();
        round_trip(&data);
    }

    #[test]
    fn overlapping_matches_round_trip() {
        // Classic RLE-via-LZ: distance 1, long length.
        round_trip(&vec![b'x'; 10_000]);
        let mut data = b"start".to_vec();
        data.extend(std::iter::repeat_n(*b"ab", 5000).flatten());
        round_trip(&data);
    }

    #[test]
    fn write_granularity_does_not_matter() {
        let data: Vec<u8> = (0u64..50_000).map(|i| ((i * i) % 253) as u8).collect();
        let whole = compress(&data);
        let mut writer = CompressWriter::new(Vec::new());
        for chunk in data.chunks(7) {
            writer.write_all(chunk).unwrap();
        }
        let dribbled = writer.finish().unwrap();
        assert_eq!(whole, dribbled, "output must not depend on write sizes");
    }

    #[test]
    fn truncation_is_unexpected_eof() {
        let packed = compress(b"some compressible payload, repeated, repeated, repeated");
        for cut in [3, 5, packed.len() - 1] {
            let err = decompress(&packed[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn corruption_is_invalid_data() {
        // Bad magic.
        let err = decompress(b"NOPE....").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Flipped checksum byte.
        let mut packed = compress(b"checksummed payload");
        let last = packed.len() - 1;
        packed[last] ^= 0xFF;
        let err = decompress(&packed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Corrupt token stream inside an LZ block.
        let data: Vec<u8> = b"abcdefgh".repeat(100);
        let mut packed = compress(&data);
        packed[13] ^= 0x55;
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn magic_detection() {
        assert!(is_compressed(&compress(b"x")));
        assert!(!is_compressed(b"{\"kind\":\"manifest\"}"));
        assert!(!is_compressed(b"AO"));
    }

    #[test]
    fn compression_suffix_and_paths() {
        assert_eq!(Compression::None.suffix(), "");
        assert_eq!(Compression::Deflate.suffix(), ".z");
        let p = Path::new("/tmp/run.trace.jsonl");
        assert_eq!(Compression::None.apply_to(p), p);
        assert_eq!(
            Compression::Deflate.apply_to(p),
            Path::new("/tmp/run.trace.jsonl.z")
        );
    }
}
