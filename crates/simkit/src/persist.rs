//! Streaming run-artifact persistence: traces, summaries and ensemble
//! curves written to disk as they are produced.
//!
//! A run that keeps its [`RecordingMode::Full`] traces in memory costs
//! `O(horizon × channels)` per cell; this module moves that bulk to disk
//! **slot by slot** — an [`ArtifactWriter`] accepts samples as the
//! simulation records them (see
//! [`TraceRecorder::to_artifact`](crate::TraceRecorder::to_artifact)), so a
//! spilling run's resident trace memory is O(1) per channel in every
//! recording mode while the on-disk artifact still holds the complete
//! retained trace.
//!
//! ## Format (version 1)
//!
//! The full wire-level specification (record grammar, compression
//! framing, integrity classification, directory naming) lives in
//! `docs/artifact-format.md` at the repository root; the summary below
//! covers what a user of this API needs.
//!
//! An artifact is a JSONL file: one self-describing JSON record per line.
//! The first record is always the manifest; the last is a footer whose
//! record counts let a reader detect truncation.
//!
//! | record | fields |
//! |---|---|
//! | `manifest` | `format` (version), `artifact` (`"trace"`/`"ensemble"`), `scenario`, `policy`, `seed` (or `null`), `recording`, `config_hash` |
//! | `channel`  | `id` (sequential), `name`, `mode` |
//! | `sample`   | `ch` (channel id), `slot`, `value` |
//! | `summary`  | `ch`, `count`, `mean`, `std_dev`, `min`/`max` (or `null`), `sum` |
//! | `curve`    | `label`, `scenario`, `policy`, `replicates`, `mean`/`lo`/`hi` (channel ids) |
//! | `footer`   | `channels`, `curves`, `samples` |
//!
//! **Versioning rule:** additions within format 1 come as new record
//! kinds or new fields — readers ignore both, so older readers keep
//! working. Any change that alters the meaning of an existing field bumps
//! `format`, and readers reject versions they do not know.
//!
//! ## Compression
//!
//! The JSONL text is highly repetitive (~1 MB per `Full`-mode figure
//! cell), so artifacts can be written through the streaming codec of
//! [`compress`]: [`ArtifactWriter::create_with`] takes a
//! [`Compression`] knob, compressed files conventionally carry a `.z`
//! suffix (`run.trace.jsonl.z`), and [`read_artifact`] detects the
//! encoding from the file's first bytes — both encodings re-read
//! bit-identically through the same API. The per-sample write path stays
//! allocation-free with compression enabled (the codec's buffers are
//! sized at creation).
//!
//! ## Unchanged artifacts
//!
//! [`write_if_changed`] writes an artifact only when its bytes would
//! change: it first compares what it would write with the file already at
//! the path (decoding it block by block, never buffering a whole file)
//! and leaves the file in place when it holds the same content (for a
//! compressed file: the same decoded stream, end marker and checksum).
//! The experiment engine writes its ensemble artifacts this way, so a
//! resumed grid whose cells all verify recompresses nothing.
//!
//! Floats are written with Rust's shortest-round-trip `Display`, so a
//! re-read [`TimeSeries`]/[`CurveSummary`] is **bit-identical** to the
//! value that was written (`-0.0` included). Non-finite values are not
//! representable in JSON and are rejected by the writer; optional
//! statistics of empty channels are `null`, never `NaN`.
//!
//! ```no_run
//! use simkit::persist::{read_artifact, ArtifactKind, ArtifactWriter, Manifest};
//! use simkit::{RecordingMode, TimeSeries, TimeSlot};
//!
//! let manifest = Manifest {
//!     artifact: ArtifactKind::Trace,
//!     scenario: "demo".to_string(),
//!     policy: "myopic".to_string(),
//!     seed: Some(7),
//!     recording: RecordingMode::Full,
//!     config_hash: 0,
//! };
//! let mut writer = ArtifactWriter::create("demo.trace.jsonl".as_ref(), &manifest)?;
//! let ch = writer.channel("aoi", RecordingMode::Full)?;
//! for t in 0..1000 {
//!     writer.sample(ch, TimeSlot::new(t), (t % 7) as f64)?;
//! }
//! writer.finish()?;
//!
//! let artifact = read_artifact("demo.trace.jsonl".as_ref())?;
//! assert_eq!(artifact.channels[0].series.len(), 1000);
//! # Ok::<(), simkit::persist::PersistError>(())
//! ```

pub mod compress;

use crate::recorder::RecordingMode;
use crate::series::TimeSeries;
use crate::stats::{CurveSummary, Summary};
use crate::time::TimeSlot;
pub use compress::Compression;
use compress::{CompressWriter, DecompressReader};
use std::cell::RefCell;
use std::fmt;
use std::fs;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// The artifact format version this module writes and reads.
pub const FORMAT_VERSION: u64 = 1;

/// Errors produced while writing or reading run artifacts.
///
/// I/O failures are captured as plain data (operation, path, message) so
/// the error stays `Clone + PartialEq` like every other error in the
/// workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the writer/reader was doing.
        op: &'static str,
        /// The artifact path involved.
        path: String,
        /// The I/O error's message.
        message: String,
    },
    /// A value that must be representable in JSON was NaN or infinite.
    NonFinite {
        /// Name of the offending quantity.
        what: &'static str,
    },
    /// A record could not be parsed or referenced inconsistent state.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        why: String,
    },
    /// The file declares a format version this reader does not know.
    Version {
        /// The version found in the manifest.
        found: u64,
    },
    /// The file ended before its footer — the writing process died or the
    /// file was cut short.
    Truncated,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, path, message } => {
                write!(f, "artifact {op} failed for {path}: {message}")
            }
            PersistError::NonFinite { what } => {
                write!(f, "{what} must be finite to be persisted")
            }
            PersistError::Corrupt { line, why } => {
                write!(f, "corrupt artifact at line {line}: {why}")
            }
            PersistError::Version { found } => {
                write!(
                    f,
                    "unsupported artifact format {found} (this reader knows {FORMAT_VERSION})"
                )
            }
            PersistError::Truncated => write!(f, "truncated artifact (no footer record)"),
        }
    }
}

impl std::error::Error for PersistError {}

/// What kind of data an artifact holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Per-slot trace channels of one simulation run.
    Trace,
    /// Mean/CI ensemble curves of one experiment group.
    Ensemble,
}

impl ArtifactKind {
    fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "trace",
            ArtifactKind::Ensemble => "ensemble",
        }
    }
}

/// The self-describing header of an artifact: what produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Whether the artifact holds run traces or ensemble curves.
    pub artifact: ArtifactKind,
    /// Which scenario family produced it (e.g. `"cache"`, `"joint"`).
    pub scenario: String,
    /// Display label of the policy (or policy pair) that ran.
    pub policy: String,
    /// The seed the run derived everything from; `None` for aggregate
    /// artifacts that span several seeds.
    pub seed: Option<u64>,
    /// The trace-retention mode the run used.
    pub recording: RecordingMode,
    /// Hash of the producing configuration (see [`config_hash`]), so an
    /// artifact can be matched to the exact scenario that produced it.
    pub config_hash: u64,
}

/// FNV-1a hash of a configuration's `Debug` representation — a cheap,
/// deterministic fingerprint for [`Manifest::config_hash`].
pub fn config_hash(config: &impl fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for byte in s.bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut hasher = Fnv(0xcbf2_9ce4_8422_2325);
    // lint:allow(panic-hygiene): fmt::Write into the local FNV hasher is
    // infallible (write_str never errors).
    fmt::Write::write_fmt(&mut hasher, format_args!("{config:?}")).expect("Fnv never fails");
    hasher.0
}

/// Handle of one channel within an [`ArtifactWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelId(usize);

impl ChannelId {
    /// The sequential index of this channel within its artifact.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An [`ArtifactWriter`] shared by several [`TraceRecorder`] sinks of one
/// run (single-threaded: each run writes its own artifact from its own
/// worker).
///
/// [`TraceRecorder`]: crate::TraceRecorder
pub type SharedArtifactWriter = Rc<RefCell<ArtifactWriter>>;

/// Streaming JSONL writer for one artifact file.
///
/// Samples are appended **slot by slot** with no per-sample heap
/// allocation (the buffered writer and all channel state are set up
/// front), which is what lets a `Full`-mode run spill its traces while
/// retaining nothing in memory.
///
/// The first write error is latched: every later call (and
/// [`finish`](ArtifactWriter::finish)) reports it, so infallible
/// recording loops may ignore intermediate results and surface the error
/// once at the end.
#[derive(Debug)]
pub struct ArtifactWriter {
    out: ArtifactSink,
    path: String,
    tmp: PathBuf,
    dest: PathBuf,
    channels: usize,
    curves: usize,
    samples: u64,
    error: Option<PersistError>,
}

/// Where an [`ArtifactWriter`]'s bytes go: straight to the buffered file,
/// through the streaming compressor first, or into a byte-for-byte
/// comparison with the file already at the artifact path.
#[derive(Debug)]
enum ArtifactSink {
    Plain(io::BufWriter<fs::File>),
    Deflate(CompressWriter<io::BufWriter<fs::File>>),
    Compare(CompareSink),
    /// Placeholder left behind by [`ArtifactSink::finish`]; never written.
    Finished,
}

impl Write for ArtifactSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ArtifactSink::Plain(w) => w.write(buf),
            ArtifactSink::Deflate(w) => w.write(buf),
            ArtifactSink::Compare(w) => w.write(buf),
            ArtifactSink::Finished => unreachable!("write after finish"),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ArtifactSink::Plain(w) => w.flush(),
            ArtifactSink::Deflate(w) => w.flush(),
            ArtifactSink::Compare(w) => w.flush(),
            ArtifactSink::Finished => unreachable!("flush after finish"),
        }
    }
}

impl ArtifactSink {
    /// Whether the bytes go to a file (a temporary renamed into place on
    /// finish), rather than into a comparison.
    fn writes_file(&self) -> bool {
        matches!(self, ArtifactSink::Plain(_) | ArtifactSink::Deflate(_))
    }

    /// Completes the stream (end marker + checksum for the compressed
    /// encoding) and flushes everything to the file.
    fn finish(&mut self) -> io::Result<()> {
        match std::mem::replace(self, ArtifactSink::Finished) {
            ArtifactSink::Plain(mut w) => w.flush(),
            // CompressWriter::finish flushes the inner writer itself.
            ArtifactSink::Deflate(w) => w.finish().map(|_| ()),
            ArtifactSink::Compare(_) | ArtifactSink::Finished => Ok(()),
        }
    }
}

/// An artifact file read in its encoding: plain, or decoded block by
/// block through [`DecompressReader`]. [`read_artifact`] and the compare
/// sink of [`write_if_changed`] both read through it.
#[derive(Debug)]
enum FileReader {
    Plain(io::BufReader<fs::File>),
    Deflate(DecompressReader<io::BufReader<fs::File>>),
}

impl FileReader {
    fn reader(&mut self) -> &mut dyn BufRead {
        match self {
            FileReader::Plain(r) => r,
            FileReader::Deflate(r) => r,
        }
    }

    /// Whether the file ends where the reader stands: no content byte is
    /// left and, for the compressed encoding, no byte follows the stream
    /// in the file. Reading a compressed stream to its end verifies its end
    /// marker and checksum; a read error counts as not at the end.
    fn at_file_end(mut self) -> bool {
        let at_end = |r: &mut dyn BufRead| r.fill_buf().is_ok_and(|rest| rest.is_empty());
        at_end(self.reader())
            && match self {
                FileReader::Plain(_) => true,
                FileReader::Deflate(r) => at_end(&mut r.into_inner()),
            }
    }
}

/// The sink of a comparing [`ArtifactWriter`] (see [`write_if_changed`]):
/// every byte written is checked against the next byte of the existing
/// file instead of being written. It holds one read buffer, or one decoded
/// block, at a time, never a whole file. The first difference or read
/// error clears `same` for good and later bytes are ignored, so the sink
/// itself never fails.
#[derive(Debug)]
struct CompareSink {
    existing: FileReader,
    same: bool,
}

impl CompareSink {
    /// Opens the file at `path` for comparison under `compression`.
    /// `None` when it cannot be opened or, for the compressed encoding,
    /// does not start with the codec's magic bytes.
    fn open(path: &Path, compression: Compression) -> Option<Self> {
        let file = io::BufReader::new(fs::File::open(path).ok()?);
        let existing = match compression {
            Compression::None => FileReader::Plain(file),
            Compression::Deflate => FileReader::Deflate(DecompressReader::new(file).ok()?),
        };
        Some(CompareSink {
            existing,
            same: true,
        })
    }

    /// Whether every byte written so far matched and the existing file
    /// ends exactly there (see [`FileReader::at_file_end`]).
    fn matches_whole_file(self) -> bool {
        self.same && self.existing.at_file_end()
    }
}

impl Write for CompareSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while self.same && !rest.is_empty() {
            let reader = self.existing.reader();
            let step = match reader.fill_buf() {
                Ok(have) if !have.is_empty() => {
                    let n = have.len().min(rest.len());
                    Some((n, have[..n] == rest[..n]))
                }
                // The file ended early, or could not be read or decoded.
                _ => None,
            };
            match step {
                Some((n, equal)) => {
                    reader.consume(n);
                    rest = &rest[n..];
                    self.same = equal;
                }
                None => self.same = false,
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What [`write_if_changed`] did with an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The file at the path already held exactly the bytes that would be
    /// written, and was left in place untouched.
    Unchanged,
    /// The artifact was written: to a temporary, renamed into place.
    Written,
}

/// Writes the artifact that `records` emits at `path`, unless the file
/// already there holds exactly that content.
///
/// When a file exists at `path`, `records` first runs against a
/// *comparing* writer: the manifest, every record and the footer are
/// formatted exactly as [`ArtifactWriter`] writes them, and checked byte
/// for byte against the file, read in `compression`'s encoding (plain, or
/// through [`DecompressReader`]). The file is left alone only when every
/// byte matches and the file ends at the footer; for the compressed
/// encoding that includes a valid end marker and checksum, with no byte
/// after it. For a compressed file this checks the *decoded* content, not
/// the stored bytes: any valid stream of the same content is kept, stored
/// blocks or another block split included. Such a file is byte-identical
/// to a fresh write only if this encoder wrote it;
/// `crates/simkit/tests/codec_pin.rs` holds that across versions, as long
/// as a change to the encoder's output bytes also changes
/// [`compress::MAGIC`]. Any difference, read or decode error, or an error
/// from `records` (such as a non-finite value) falls through to the write
/// path: `records` runs again on a writer from
/// [`ArtifactWriter::create_with`], exactly as if no file had been there.
///
/// The comparison writes nothing, so it consults no fault-injection hook:
/// [`faults::on_sample`](crate::faults::on_sample) counts only samples
/// written to a file, and [`faults::on_finalize`](crate::faults::on_finalize)
/// runs only when a file is renamed into place.
///
/// # Errors
///
/// Those of the write path: [`ArtifactWriter::create_with`], the
/// writer's record methods and [`ArtifactWriter::finish`].
pub fn write_if_changed(
    path: &Path,
    manifest: &Manifest,
    compression: Compression,
    mut records: impl FnMut(&mut ArtifactWriter) -> Result<(), PersistError>,
) -> Result<WriteOutcome, PersistError> {
    if let Some(mut compare) = ArtifactWriter::compare_with(path, manifest, compression) {
        if records(&mut compare).is_ok() && compare.finish_compare() {
            return Ok(WriteOutcome::Unchanged);
        }
    }
    let mut writer = ArtifactWriter::create_with(path, manifest, compression)?;
    records(&mut writer)?;
    writer.finish()?;
    Ok(WriteOutcome::Written)
}

impl ArtifactWriter {
    /// Creates the artifact file (plain JSONL) and writes its manifest
    /// record. Equivalent to [`create_with`](ArtifactWriter::create_with)
    /// under [`Compression::None`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the file cannot be created or
    /// written.
    pub fn create(path: &Path, manifest: &Manifest) -> Result<Self, PersistError> {
        Self::create_with(path, manifest, Compression::None)
    }

    /// Creates the artifact file under the chosen encoding and writes its
    /// manifest record. The caller picks the path — compressed artifacts
    /// conventionally append [`compress::SUFFIX`] (see
    /// [`Compression::apply_to`]) but readers go by content, not name.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the file cannot be created or
    /// written.
    pub fn create_with(
        path: &Path,
        manifest: &Manifest,
        compression: Compression,
    ) -> Result<Self, PersistError> {
        let display = path.display().to_string();
        // Stream to a writer-unique temporary and rename into place on
        // [`finish`](ArtifactWriter::finish), so a crash can never leave a
        // half-written file under the final name (and racing duplicate
        // computations of a deterministic cell cannot interleave bytes).
        let tmp = tmp_path(path);
        let file = fs::File::create(&tmp).map_err(|e| PersistError::Io {
            op: "create",
            path: display.clone(),
            message: e.to_string(),
        })?;
        let buffered = io::BufWriter::new(file);
        let mut writer = ArtifactWriter {
            out: match compression {
                Compression::None => ArtifactSink::Plain(buffered),
                Compression::Deflate => ArtifactSink::Deflate(CompressWriter::new(buffered)),
            },
            path: display,
            tmp,
            dest: path.to_path_buf(),
            channels: 0,
            curves: 0,
            samples: 0,
            error: None,
        };
        writer.write_manifest(manifest)?;
        Ok(writer)
    }

    /// A writer whose bytes are compared with the file at `path` instead
    /// of written (see [`write_if_changed`]); `None` when there is no file
    /// to compare with in `compression`'s encoding.
    fn compare_with(path: &Path, manifest: &Manifest, compression: Compression) -> Option<Self> {
        let mut writer = ArtifactWriter {
            out: ArtifactSink::Compare(CompareSink::open(path, compression)?),
            path: path.display().to_string(),
            tmp: PathBuf::new(),
            dest: path.to_path_buf(),
            channels: 0,
            curves: 0,
            samples: 0,
            error: None,
        };
        writer.write_manifest(manifest).ok()?;
        Some(writer)
    }

    /// Ends a comparing writer: writes the footer into the comparison and
    /// reports whether the file held exactly this artifact.
    fn finish_compare(mut self) -> bool {
        if self.write_footer().is_err() {
            return false;
        }
        match std::mem::replace(&mut self.out, ArtifactSink::Finished) {
            ArtifactSink::Compare(sink) => sink.matches_whole_file(),
            _ => false,
        }
    }

    /// Wraps this writer for sharing across the [`TraceRecorder`] sinks
    /// of one run.
    ///
    /// [`TraceRecorder`]: crate::TraceRecorder
    pub fn shared(self) -> SharedArtifactWriter {
        Rc::new(RefCell::new(self))
    }

    /// Unwraps a [`SharedArtifactWriter`] and finishes the artifact.
    ///
    /// # Panics
    ///
    /// Panics if any other handle (a recorder sink) is still alive.
    ///
    /// # Errors
    ///
    /// Same conditions as [`finish`](ArtifactWriter::finish).
    pub fn finish_shared(writer: SharedArtifactWriter) -> Result<(), PersistError> {
        Rc::try_unwrap(writer)
            // lint:allow(panic-hygiene): documented API-misuse panic — finishing
            // with live sinks is a caller bug, not a runtime failure.
            .expect("all recorder sinks must be dropped before finishing the artifact")
            .into_inner()
            .finish()
    }

    fn fail(&mut self, error: PersistError) -> PersistError {
        self.error = Some(error.clone());
        error
    }

    fn guard(&self) -> Result<(), PersistError> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn io(&mut self, op: &'static str, result: io::Result<()>) -> Result<(), PersistError> {
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                let error = PersistError::Io {
                    op,
                    path: self.path.clone(),
                    message: e.to_string(),
                };
                Err(self.fail(error))
            }
        }
    }

    fn write_manifest(&mut self, manifest: &Manifest) -> Result<(), PersistError> {
        let result = (|out: &mut ArtifactSink| -> io::Result<()> {
            write!(
                out,
                "{{\"kind\":\"manifest\",\"format\":{FORMAT_VERSION},\"artifact\":\"{}\",\"scenario\":",
                manifest.artifact.as_str()
            )?;
            write_json_str(out, &manifest.scenario)?;
            write!(out, ",\"policy\":")?;
            write_json_str(out, &manifest.policy)?;
            match manifest.seed {
                Some(seed) => write!(out, ",\"seed\":{seed}")?,
                None => write!(out, ",\"seed\":null")?,
            }
            write!(out, ",\"recording\":")?;
            write_mode(out, manifest.recording)?;
            writeln!(out, ",\"config_hash\":\"{:016x}\"}}", manifest.config_hash)
        })(&mut self.out);
        self.io("write manifest", result)
    }

    /// Declares a new trace channel and returns its handle.
    ///
    /// # Errors
    ///
    /// Returns the latched error or an I/O failure.
    pub fn channel(&mut self, name: &str, mode: RecordingMode) -> Result<ChannelId, PersistError> {
        self.guard()?;
        let id = self.channels;
        let result = (|out: &mut ArtifactSink| -> io::Result<()> {
            write!(out, "{{\"kind\":\"channel\",\"id\":{id},\"name\":")?;
            write_json_str(out, name)?;
            write!(out, ",\"mode\":")?;
            write_mode(out, mode)?;
            writeln!(out, "}}")
        })(&mut self.out);
        self.io("write channel", result)?;
        self.channels += 1;
        Ok(ChannelId(id))
    }

    /// Appends one sample to a channel. This is the streaming hot path:
    /// it performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `ch` was not returned by this writer.
    ///
    /// # Errors
    ///
    /// Returns the latched error, [`PersistError::NonFinite`] for a value
    /// JSON cannot represent, or an I/O failure.
    pub fn sample(
        &mut self,
        ch: ChannelId,
        slot: TimeSlot,
        value: f64,
    ) -> Result<(), PersistError> {
        self.guard()?;
        // A comparing writer writes nothing, so there is no write to fail.
        let hook = if self.out.writes_file() {
            crate::faults::on_sample()
        } else {
            Ok(())
        };
        if let Err(e) = hook {
            let error = PersistError::Io {
                op: "write sample",
                path: self.path.clone(),
                message: e.to_string(),
            };
            return Err(self.fail(error));
        }
        assert!(ch.0 < self.channels, "unknown artifact channel");
        if !value.is_finite() {
            let error = PersistError::NonFinite {
                what: "sample value",
            };
            return Err(self.fail(error));
        }
        let result = writeln!(
            self.out,
            "{{\"kind\":\"sample\",\"ch\":{},\"slot\":{},\"value\":{}}}",
            ch.0,
            slot.index(),
            value
        );
        self.io("write sample", result)?;
        self.samples += 1;
        Ok(())
    }

    /// Writes a channel's exact summary statistics.
    ///
    /// # Panics
    ///
    /// Panics if `ch` was not returned by this writer.
    ///
    /// # Errors
    ///
    /// Returns the latched error, [`PersistError::NonFinite`] for
    /// non-finite statistics, or an I/O failure.
    pub fn summary(&mut self, ch: ChannelId, summary: &Summary) -> Result<(), PersistError> {
        self.guard()?;
        assert!(ch.0 < self.channels, "unknown artifact channel");
        for (what, value) in [
            ("summary mean", summary.mean),
            ("summary std_dev", summary.std_dev),
            ("summary sum", summary.sum),
            ("summary min", summary.min.unwrap_or(0.0)),
            ("summary max", summary.max.unwrap_or(0.0)),
        ] {
            if !value.is_finite() {
                let error = PersistError::NonFinite { what };
                return Err(self.fail(error));
            }
        }
        let result = (|out: &mut ArtifactSink| -> io::Result<()> {
            write!(
                out,
                "{{\"kind\":\"summary\",\"ch\":{},\"count\":{},\"mean\":{},\"std_dev\":{}",
                ch.0, summary.count, summary.mean, summary.std_dev
            )?;
            match summary.min {
                Some(min) => write!(out, ",\"min\":{min}")?,
                None => write!(out, ",\"min\":null")?,
            }
            match summary.max {
                Some(max) => write!(out, ",\"max\":{max}")?,
                None => write!(out, ",\"max\":null")?,
            }
            writeln!(out, ",\"sum\":{}}}", summary.sum)
        })(&mut self.out);
        self.io("write summary", result)
    }

    /// Declares a channel named after `series` and bulk-writes all its
    /// samples (for series a run already holds in memory, e.g. a headline
    /// reward curve).
    ///
    /// # Errors
    ///
    /// Same conditions as [`channel`](ArtifactWriter::channel) and
    /// [`sample`](ArtifactWriter::sample).
    pub fn series(&mut self, series: &TimeSeries) -> Result<ChannelId, PersistError> {
        let ch = self.channel(series.name(), RecordingMode::Full)?;
        for point in series.iter() {
            self.sample(ch, point.slot, point.value)?;
        }
        Ok(ch)
    }

    /// Writes one ensemble curve: its three band series (mean, CI lo, CI
    /// hi) as channels plus the curve record tying them together.
    ///
    /// # Errors
    ///
    /// Same conditions as [`series`](ArtifactWriter::series).
    pub fn curve(
        &mut self,
        label: &str,
        scenario: usize,
        policy: usize,
        curve: &CurveSummary,
    ) -> Result<(), PersistError> {
        let mean = self.series(&curve.mean)?;
        let lo = self.series(&curve.lo)?;
        let hi = self.series(&curve.hi)?;
        self.curve_ref(label, scenario, policy, curve.replicates, [mean, lo, hi])
    }

    /// Writes the curve record alone, tying together three **already
    /// written** band channels (mean, CI lo, CI hi) — what
    /// [`curve`](ArtifactWriter::curve) emits after writing the bands
    /// itself. Lets a reader-side tool re-serialize an [`Artifact`] with
    /// its original channel layout (see [`ArtifactCurve::bands`]).
    ///
    /// # Panics
    ///
    /// Panics if any band channel was not returned by this writer.
    ///
    /// # Errors
    ///
    /// Returns the latched error or an I/O failure.
    pub fn curve_ref(
        &mut self,
        label: &str,
        scenario: usize,
        policy: usize,
        replicates: usize,
        bands: [ChannelId; 3],
    ) -> Result<(), PersistError> {
        self.guard()?;
        let [mean, lo, hi] = bands;
        for band in bands {
            assert!(band.0 < self.channels, "unknown artifact channel");
        }
        let result = (|out: &mut ArtifactSink| -> io::Result<()> {
            write!(out, "{{\"kind\":\"curve\",\"label\":")?;
            write_json_str(out, label)?;
            writeln!(
                out,
                ",\"scenario\":{scenario},\"policy\":{policy},\"replicates\":{replicates},\
                 \"mean\":{},\"lo\":{},\"hi\":{}}}",
                mean.0, lo.0, hi.0
            )
        })(&mut self.out);
        self.io("write curve", result)?;
        self.curves += 1;
        Ok(())
    }

    fn write_footer(&mut self) -> Result<(), PersistError> {
        self.guard()?;
        let result = writeln!(
            self.out,
            "{{\"kind\":\"footer\",\"channels\":{},\"curves\":{},\"samples\":{}}}",
            self.channels, self.curves, self.samples
        );
        self.io("write footer", result)
    }

    /// Writes the footer record, flushes the temporary file and renames
    /// it into place under the final path — the artifact appears under
    /// its final name only when complete. An artifact without a footer is
    /// reported as [`PersistError::Truncated`] by the reader.
    ///
    /// # Errors
    ///
    /// Returns the latched error (the first failure of any earlier write)
    /// or an I/O failure of the footer/flush/rename itself.
    pub fn finish(mut self) -> Result<(), PersistError> {
        self.write_footer()?;
        let finish = self.out.finish();
        self.io("finish", finish)?;
        if let Err(e) = fs::rename(&self.tmp, &self.dest) {
            let error = PersistError::Io {
                op: "finalize",
                path: self.path.clone(),
                message: e.to_string(),
            };
            return Err(self.fail(error));
        }
        crate::faults::on_finalize(&self.dest);
        Ok(())
    }
}

impl Drop for ArtifactWriter {
    /// Removes the in-flight temporary when the writer is abandoned
    /// without finishing (error paths), so failed runs leave no debris.
    /// Temporaries orphaned by a hard crash (no destructors) are swept by
    /// the resume pass instead.
    fn drop(&mut self) {
        if self.out.writes_file() {
            // Close the file handle before unlinking.
            self.out = ArtifactSink::Finished;
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// The writer-unique temporary path an [`ArtifactWriter`] streams to
/// before renaming into place at `path` (same directory, so the final
/// rename is atomic). The name carries the pid *and* a process-wide
/// sequence number, so two writers racing on the same artifact — whether
/// separate worker processes or threads sharing one process — never
/// stream to the same temporary.
pub fn tmp_path(path: &Path) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    path.with_file_name(format!("{name}.tmp-{}-{seq}", std::process::id()))
}

/// Whether `file_name` is an in-flight temporary for `final_name`,
/// written by any process (crashed workers leave these behind). Accepts
/// both the current `.tmp-<pid>-<seq>` shape and the older `.tmp-<pid>`.
pub fn is_tmp_for(file_name: &str, final_name: &str) -> bool {
    file_name
        .strip_prefix(final_name)
        .and_then(|rest| rest.strip_prefix(".tmp-"))
        .map(|tag| {
            !tag.is_empty()
                && !tag.starts_with('-')
                && !tag.ends_with('-')
                && tag.bytes().all(|b| b.is_ascii_digit() || b == b'-')
                && tag.bytes().filter(|&b| b == b'-').count() <= 1
        })
        .unwrap_or(false)
}

/// One reconstructed trace channel of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelData {
    /// The channel name (also the name of `series`).
    pub name: String,
    /// The recording mode the channel was written under.
    pub mode: RecordingMode,
    /// The channel's samples, bit-identical to what was written.
    pub series: TimeSeries,
    /// The channel's exact summary statistics, if one was written.
    pub summary: Option<Summary>,
}

/// One reconstructed ensemble curve of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactCurve {
    /// Display label of the group's policy.
    pub label: String,
    /// Scenario index within the producing experiment grid.
    pub scenario: usize,
    /// Policy index within the producing experiment grid.
    pub policy: usize,
    /// Channel indices of the mean / CI-lo / CI-hi band series within
    /// [`Artifact::channels`] — lets a tool re-serialize the artifact with
    /// its original layout ([`ArtifactWriter::curve_ref`]).
    pub bands: [usize; 3],
    /// The mean/CI band curves, bit-identical to what was written.
    pub curve: CurveSummary,
}

/// A fully reconstructed artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The manifest the artifact was written under.
    pub manifest: Manifest,
    /// Every channel, in declaration (id) order.
    pub channels: Vec<ChannelData>,
    /// Every ensemble curve, in declaration order.
    pub curves: Vec<ArtifactCurve>,
}

impl Artifact {
    /// Looks a channel up by name (first match).
    pub fn channel(&self, name: &str) -> Option<&ChannelData> {
        self.channels.iter().find(|c| c.name == name)
    }
}

/// Reads an artifact back, reconstructing every series and curve
/// bit-identically.
///
/// Works transparently on both encodings: a file that starts with the
/// magic bytes of [`compress`] is streamed through the decompressor, any
/// other file is read as plain JSONL — the file name plays no part.
///
/// Unknown record kinds and unknown fields are ignored (see the module
/// docs' versioning rule); unknown *format versions* are rejected.
///
/// [`ArtifactWriter`] emits every `sample` record in one canonical byte
/// form, and the reader parses that form on a fast path that builds no
/// JSON tree (samples are ~99% of an artifact's bytes). Any other valid
/// JSON spelling of a record — whitespace, field order, escapes,
/// exponents — goes through the general parser and reads identically, so
/// foreign or hand-edited artifacts stay compatible.
///
/// # Errors
///
/// Returns [`PersistError::Io`] for filesystem failures,
/// [`PersistError::Version`] for unknown formats,
/// [`PersistError::Truncated`] when the footer is missing or a compressed
/// stream was cut short, and [`PersistError::Corrupt`] for unparseable or
/// inconsistent records (a failed checksum included).
pub fn read_artifact(path: &Path) -> Result<Artifact, PersistError> {
    let display = path.display().to_string();
    let io_error = |op: &'static str, path: &str, e: &io::Error| PersistError::Io {
        op,
        path: path.to_string(),
        message: e.to_string(),
    };
    let file = fs::File::open(path).map_err(|e| io_error("open", &display, &e))?;
    let mut plain = io::BufReader::new(file);
    let head = plain
        .fill_buf()
        .map_err(|e| io_error("read", &display, &e))?;
    let mut file = if compress::is_compressed(head) {
        let decoder = DecompressReader::new(plain).map_err(|e| io_error("read", &display, &e))?;
        FileReader::Deflate(decoder)
    } else {
        FileReader::Plain(plain)
    };
    let reader = file.reader();

    struct PendingCurve {
        label: String,
        scenario: usize,
        policy: usize,
        replicates: usize,
        mean: usize,
        lo: usize,
        hi: usize,
    }

    let corrupt = |line: usize, why: String| PersistError::Corrupt { line, why };
    let mut manifest: Option<Manifest> = None;
    let mut channels: Vec<ChannelData> = Vec::new();
    let mut curves: Vec<PendingCurve> = Vec::new();
    let mut samples = 0u64;
    let mut footer: Option<(usize, usize, u64)> = None;

    // One line buffer for the whole file; `lines()` would allocate a new
    // `String` per record.
    let mut buf = String::new();
    let mut number = 0;
    loop {
        number += 1;
        buf.clear();
        let read = reader.read_line(&mut buf).map_err(|e| match e.kind() {
            // The compressed stream ended before its end marker — the
            // writer died mid-file, the same condition a missing footer
            // signals for plain artifacts.
            io::ErrorKind::UnexpectedEof => PersistError::Truncated,
            // Corrupt tokens / checksum mismatch inside the codec.
            io::ErrorKind::InvalidData => PersistError::Corrupt {
                line: number,
                why: e.to_string(),
            },
            _ => io_error("read", &display, &e),
        })?;
        if read == 0 {
            break;
        }
        // Strip the terminator exactly as `BufRead::lines` does.
        let mut line = buf.as_str();
        if let Some(rest) = line.strip_suffix('\n') {
            line = rest.strip_suffix('\r').unwrap_or(rest);
        }
        if line.trim().is_empty() {
            continue;
        }
        if footer.is_some() {
            return Err(corrupt(number, "records after the footer".to_string()));
        }
        if manifest.is_some() {
            if let Some(sample) = canonical_sample(line) {
                push_sample(&mut channels, &mut samples, sample)
                    .map_err(|why| corrupt(number, why))?;
                continue;
            }
        }
        let record = parse_json(line).map_err(|why| corrupt(number, why))?;
        let kind = record
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt(number, "record without a \"kind\"".to_string()))?;
        if manifest.is_none() && kind != "manifest" {
            return Err(corrupt(
                number,
                "first record must be the manifest".to_string(),
            ));
        }
        match kind {
            "manifest" => {
                if manifest.is_some() {
                    return Err(corrupt(number, "duplicate manifest".to_string()));
                }
                let format = record
                    .get("format")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| corrupt(number, "manifest without a format".to_string()))?;
                if format != FORMAT_VERSION {
                    return Err(PersistError::Version { found: format });
                }
                manifest = Some(parse_manifest(&record).map_err(|why| corrupt(number, why))?);
            }
            "channel" => {
                let id = req_usize(&record, "id").map_err(|why| corrupt(number, why))?;
                if id != channels.len() {
                    return Err(corrupt(number, format!("channel id {id} out of order")));
                }
                let name = record
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| corrupt(number, "channel without a name".to_string()))?
                    .to_string();
                let mode = record
                    .get("mode")
                    .and_then(Json::as_str)
                    .and_then(parse_mode)
                    .ok_or_else(|| corrupt(number, "channel without a valid mode".to_string()))?;
                channels.push(ChannelData {
                    series: TimeSeries::new(name.clone()),
                    name,
                    mode,
                    summary: None,
                });
            }
            "sample" => {
                let ch = req_usize(&record, "ch").map_err(|why| corrupt(number, why))?;
                let slot = record
                    .get("slot")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| corrupt(number, "sample without a slot".to_string()))?;
                let value = req_f64(&record, "value").map_err(|why| corrupt(number, why))?;
                push_sample(&mut channels, &mut samples, (ch, slot, value))
                    .map_err(|why| corrupt(number, why))?;
            }
            "summary" => {
                let ch = req_usize(&record, "ch").map_err(|why| corrupt(number, why))?;
                let channel = channels
                    .get_mut(ch)
                    .ok_or_else(|| corrupt(number, format!("summary for unknown channel {ch}")))?;
                if channel.summary.is_some() {
                    return Err(corrupt(
                        number,
                        format!("duplicate summary for channel {ch}"),
                    ));
                }
                channel.summary = Some(Summary {
                    count: record
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| corrupt(number, "summary without a count".to_string()))?,
                    mean: req_f64(&record, "mean").map_err(|why| corrupt(number, why))?,
                    std_dev: req_f64(&record, "std_dev").map_err(|why| corrupt(number, why))?,
                    min: opt_f64(&record, "min").map_err(|why| corrupt(number, why))?,
                    max: opt_f64(&record, "max").map_err(|why| corrupt(number, why))?,
                    sum: req_f64(&record, "sum").map_err(|why| corrupt(number, why))?,
                });
            }
            "curve" => {
                let label = record
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or_else(|| corrupt(number, "curve without a label".to_string()))?
                    .to_string();
                let scenario =
                    req_usize(&record, "scenario").map_err(|why| corrupt(number, why))?;
                let policy = req_usize(&record, "policy").map_err(|why| corrupt(number, why))?;
                let replicates =
                    req_usize(&record, "replicates").map_err(|why| corrupt(number, why))?;
                let mean = req_usize(&record, "mean").map_err(|why| corrupt(number, why))?;
                let lo = req_usize(&record, "lo").map_err(|why| corrupt(number, why))?;
                let hi = req_usize(&record, "hi").map_err(|why| corrupt(number, why))?;
                for band in [mean, lo, hi] {
                    if band >= channels.len() {
                        return Err(corrupt(
                            number,
                            format!("curve band channel {band} unknown"),
                        ));
                    }
                }
                curves.push(PendingCurve {
                    label,
                    scenario,
                    policy,
                    replicates,
                    mean,
                    lo,
                    hi,
                });
            }
            "footer" => {
                footer = Some((
                    req_usize(&record, "channels").map_err(|why| corrupt(number, why))?,
                    req_usize(&record, "curves").map_err(|why| corrupt(number, why))?,
                    record
                        .get("samples")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| corrupt(number, "footer without samples".to_string()))?,
                ));
                // lint:allow(panic-hygiene): `footer` was assigned Some(..) in the
                // statement directly above.
                let (want_channels, want_curves, want_samples) = footer.expect("just set");
                if want_channels != channels.len()
                    || want_curves != curves.len()
                    || want_samples != samples
                {
                    return Err(corrupt(
                        number,
                        format!(
                            "footer counts ({want_channels} channels, {want_curves} curves, \
                             {want_samples} samples) do not match the records read \
                             ({} channels, {} curves, {samples} samples)",
                            channels.len(),
                            curves.len()
                        ),
                    ));
                }
            }
            // Versioning rule: unknown record kinds within a known format
            // are forward-compatible additions — skip them.
            _ => {}
        }
    }

    // A compressed stream read to its end marker must also end the file.
    if !file.at_file_end() {
        return Err(corrupt(
            number,
            "bytes after the compressed stream".to_string(),
        ));
    }
    let manifest = manifest.ok_or(PersistError::Truncated)?;
    if footer.is_none() {
        return Err(PersistError::Truncated);
    }
    // The series grew by doubling; callers keep them (resume moves a
    // cell's headline series out), so hand them over without the slack.
    for channel in &mut channels {
        channel.series.shrink_to_fit();
    }
    let curves = curves
        .into_iter()
        .map(|pending| ArtifactCurve {
            label: pending.label,
            scenario: pending.scenario,
            policy: pending.policy,
            bands: [pending.mean, pending.lo, pending.hi],
            curve: CurveSummary {
                replicates: pending.replicates,
                mean: channels[pending.mean].series.clone(),
                lo: channels[pending.lo].series.clone(),
                hi: channels[pending.hi].series.clone(),
            },
        })
        .collect();
    Ok(Artifact {
        manifest,
        channels,
        curves,
    })
}

/// The fast path for `sample` records: parses `line` only if it is the
/// exact byte form [`ArtifactWriter::sample`] emits,
/// `{"kind":"sample","ch":<digits>,"slot":<digits>,"value":<decimal>}`
/// with `<decimal>` = `-?<digits>(.<digits>)?`, and returns its
/// `(ch, slot, value)`. Any other spelling returns `None` and goes through
/// [`parse_json`]. The tokens are parsed with the same `str::parse` calls
/// as [`req_usize`], [`Json::as_u64`] and [`req_f64`], so an accepted line
/// reads bit for bit as the general path reads it.
fn canonical_sample(line: &str) -> Option<(usize, u64, f64)> {
    fn digits(token: &str) -> bool {
        !token.is_empty() && token.bytes().all(|b| b.is_ascii_digit())
    }
    let rest = line.strip_prefix("{\"kind\":\"sample\",\"ch\":")?;
    let (ch, rest) = rest.split_once(",\"slot\":")?;
    let (slot, rest) = rest.split_once(",\"value\":")?;
    let value = rest.strip_suffix('}')?;
    let unsigned = value.strip_prefix('-').unwrap_or(value);
    let decimal = match unsigned.split_once('.') {
        Some((int, frac)) => digits(int) && digits(frac),
        None => digits(unsigned),
    };
    if !(digits(ch) && digits(slot) && decimal) {
        return None;
    }
    let ch = usize::try_from(ch.parse::<u64>().ok()?).ok()?;
    Some((ch, slot.parse().ok()?, value.parse().ok()?))
}

/// The `sample` arm shared by both parse paths of [`read_artifact`]: the
/// channel must be declared and its slots must not go backwards; the
/// sample is then appended and counted.
fn push_sample(
    channels: &mut [ChannelData],
    samples: &mut u64,
    (ch, slot, value): (usize, u64, f64),
) -> Result<(), String> {
    let channel = channels
        .get_mut(ch)
        .ok_or_else(|| format!("sample for unknown channel {ch}"))?;
    if channel.series.last().is_some_and(|p| p.slot.index() > slot) {
        return Err("samples out of slot order".to_string());
    }
    channel.series.push(TimeSlot::new(slot), value);
    *samples += 1;
    Ok(())
}

fn parse_manifest(record: &Json) -> Result<Manifest, String> {
    let artifact = match record.get("artifact").and_then(Json::as_str) {
        Some("trace") => ArtifactKind::Trace,
        Some("ensemble") => ArtifactKind::Ensemble,
        other => return Err(format!("unknown artifact kind {other:?}")),
    };
    let seed = match record.get("seed") {
        Some(Json::Null) | None => None,
        Some(value) => Some(value.as_u64().ok_or("seed must be an integer or null")?),
    };
    let recording = record
        .get("recording")
        .and_then(Json::as_str)
        .and_then(parse_mode)
        .ok_or("manifest without a valid recording mode")?;
    let config_hash = record
        .get("config_hash")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("manifest without a valid config_hash")?;
    Ok(Manifest {
        artifact,
        scenario: record
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("manifest without a scenario")?
            .to_string(),
        policy: record
            .get("policy")
            .and_then(Json::as_str)
            .ok_or("manifest without a policy")?
            .to_string(),
        seed,
        recording,
        config_hash,
    })
}

fn req_f64(record: &Json, key: &str) -> Result<f64, String> {
    record
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or invalid number \"{key}\""))
}

fn opt_f64(record: &Json, key: &str) -> Result<Option<f64>, String> {
    match record.get(key) {
        Some(Json::Null) | None => Ok(None),
        Some(value) => value
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("invalid number \"{key}\"")),
    }
}

fn req_usize(record: &Json, key: &str) -> Result<usize, String> {
    record
        .get(key)
        .and_then(Json::as_u64)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| format!("missing or invalid integer \"{key}\""))
}

fn write_mode(out: &mut impl Write, mode: RecordingMode) -> io::Result<()> {
    match mode {
        RecordingMode::Full => write!(out, "\"full\""),
        RecordingMode::Decimate(k) => write!(out, "\"decimate:{k}\""),
        RecordingMode::SummaryOnly => write!(out, "\"summary-only\""),
    }
}

fn parse_mode(text: &str) -> Option<RecordingMode> {
    match text {
        "full" => Some(RecordingMode::Full),
        "summary-only" => Some(RecordingMode::SummaryOnly),
        _ => {
            let k = text.strip_prefix("decimate:")?.parse().ok()?;
            Some(RecordingMode::Decimate(k))
        }
    }
}

pub(crate) fn write_json_str(out: &mut impl Write, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_all(b"\"")
}

/// Minimal JSON value for the reader. Numbers keep their raw token so
/// `u64` fields (seeds, slots) round-trip exactly even beyond 2^53.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Hand-rolled JSON parser (the workspace's `serde` is an offline no-op
/// stand-in); strict enough for artifact validation, tiny enough to audit.
pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err("trailing characters after the record".to_string());
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("unexpected {other:?} in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("unexpected {other:?} in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!("loop stops only on quote or backslash"),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let unit = self.hex4()?;
                if (0xd800..0xdc00).contains(&unit) {
                    // High surrogate: a low surrogate must follow.
                    if !self.literal("\\u") {
                        return Err("unpaired surrogate".to_string());
                    }
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err("unpaired surrogate".to_string());
                    }
                    let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    char::from_u32(code).ok_or("invalid surrogate pair")?
                } else {
                    char::from_u32(unit).ok_or("invalid \\u escape")?
                }
            }
            other => return Err(format!("unknown escape '\\{}'", other as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or("truncated \\u escape")?;
        self.pos = end;
        u32::from_str_radix(digits, 16).map_err(|_| "invalid \\u escape".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // lint:allow(panic-hygiene): the scan loop above only advanced over
        // ASCII digit/sign/exponent bytes, which are valid UTF-8.
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number token");
        raw.parse::<f64>()
            .map_err(|_| format!("invalid number token {raw:?}"))?;
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_round_trips_records() {
        let record = parse_json(
            "{\"kind\":\"sample\",\"ch\":3,\"slot\":18446744073709551615,\"value\":-0.25}",
        )
        .unwrap();
        assert_eq!(record.get("kind").and_then(Json::as_str), Some("sample"));
        assert_eq!(record.get("ch").and_then(Json::as_u64), Some(3));
        // u64 fields survive beyond 2^53.
        assert_eq!(record.get("slot").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(record.get("value").and_then(Json::as_f64), Some(-0.25));
    }

    #[test]
    fn json_parser_handles_strings_and_nesting() {
        let v = parse_json("{\"a\":[1,null,true,false],\"b\":\"q\\\"\\u0041\\n\"}").unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("q\"A\n"));
        match v.get("a") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 4),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("not json").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":\"unterminated").is_err());
        assert!(parse_json("{\"a\":+-.}").is_err());
    }

    #[test]
    fn escaped_strings_round_trip() {
        let mut buf = Vec::new();
        write_json_str(&mut buf, "a\"b\\c\nd\u{1}é").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_json(&text).unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c\nd\u{1}é"));
    }

    #[test]
    fn mode_strings_round_trip() {
        for mode in [
            RecordingMode::Full,
            RecordingMode::Decimate(7),
            RecordingMode::SummaryOnly,
        ] {
            let mut buf = Vec::new();
            write_mode(&mut buf, mode).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let inner = text.trim_matches('"');
            assert_eq!(parse_mode(inner), Some(mode), "{text}");
        }
        assert_eq!(parse_mode("decimate:nope"), None);
        assert_eq!(parse_mode("whatever"), None);
    }

    /// `(ch, slot, value)` of a `sample` line as the general path reads
    /// it: [`parse_json`], then `req_usize` / `Json::as_u64` / `req_f64`.
    fn general_sample(line: &str) -> Option<(usize, u64, f64)> {
        let record = parse_json(line).ok()?;
        if record.get("kind").and_then(Json::as_str) != Some("sample") {
            return None;
        }
        let ch = req_usize(&record, "ch").ok()?;
        let slot = record.get("slot").and_then(Json::as_u64)?;
        Some((ch, slot, req_f64(&record, "value").ok()?))
    }

    /// Whether the fast path accepts `line`; if it does, its reading must
    /// equal the general path's bit for bit.
    fn fast_path_agrees(line: &str) -> bool {
        let Some((ch, slot, value)) = canonical_sample(line) else {
            return false;
        };
        let general = general_sample(line)
            .unwrap_or_else(|| panic!("fast path accepted {line:?}, general path rejects it"));
        assert_eq!(
            (general.0, general.1, general.2.to_bits()),
            (ch, slot, value.to_bits()),
            "{line:?}"
        );
        true
    }

    #[test]
    fn fast_path_reads_every_written_sample_like_the_general_path() {
        let mut values = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0, // subnormal
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0 / 3.0,
            -1e21,
            1e-7,
            123_456_789.0,
        ];
        // Finite values spread over every exponent (SplitMix64 bits).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        while values.len() < 2_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let v = f64::from_bits(z ^ (z >> 31));
            if v.is_finite() {
                values.push(v);
            }
        }
        let path = std::env::temp_dir().join(format!(
            "simkit-persist-fast-path-{}.jsonl",
            std::process::id()
        ));
        let manifest = Manifest {
            artifact: ArtifactKind::Trace,
            scenario: "fast-path".to_string(),
            policy: "test".to_string(),
            seed: None,
            recording: RecordingMode::Full,
            config_hash: 0,
        };
        let mut writer = ArtifactWriter::create(&path, &manifest).unwrap();
        let chs: Vec<ChannelId> = (0..12)
            .map(|i| {
                writer
                    .channel(&format!("c{i}"), RecordingMode::Full)
                    .unwrap()
            })
            .collect();
        for (i, &v) in values.iter().enumerate() {
            let slot = if i + 1 == values.len() {
                u64::MAX
            } else {
                i as u64 * 997
            };
            writer
                .sample(chs[i % chs.len()], TimeSlot::new(slot), v)
                .unwrap();
        }
        writer.finish().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("\"sample\"")).collect();
        assert_eq!(lines.len(), values.len());
        for line in lines {
            assert!(
                fast_path_agrees(line),
                "writer emitted a non-canonical {line:?}"
            );
        }
    }

    #[test]
    fn fast_path_declines_or_agrees_on_other_spellings() {
        let sample = |ch: &str, slot: &str, value: &str| {
            format!("{{\"kind\":\"sample\",\"ch\":{ch},\"slot\":{slot},\"value\":{value}}}")
        };
        // Accepted (and checked against the general path).
        for line in [
            sample("01", "007", "-0"),
            sample("0", "0", "00.50"),
            sample("3", "18446744073709551615", "-0.0"),
        ] {
            assert!(fast_path_agrees(&line), "{line:?}");
        }
        // Declined: these go through `parse_json`.
        for line in [
            sample("1", "2", "+1"),
            sample("1", "2", "1E3"),
            sample("1", "2", "1e999"),
            sample("1", "2", "1e-7"),
            sample("1", "2", ".5"),
            sample("1", "2", "5."),
            sample("1", "2", "-"),
            sample("1", "2", "inf"),
            sample("1", "2", "NaN"),
            sample("1", "2", "\"1\""),
            sample("1", "2", "1,\"value\":2"),
            sample("-1", "2", "1"),
            sample("1", "-2", "1"),
            sample("1", "18446744073709551616", "1"),
            sample("18446744073709551616", "2", "1"),
            sample("", "2", "1"),
            format!("{}x", sample("1", "2", "1")),
            format!("{}\r", sample("1", "2", "1")),
            format!("{}}}", sample("1", "2", "1")),
            format!(" {}", sample("1", "2", "1")),
            "{\"kind\":\"sample\", \"ch\":1,\"slot\":2,\"value\":1}".to_string(),
            "{\"kind\":\"sample\",\"ch\":1,\"slot\":2,\"value\": 1}".to_string(),
            "{\"kind\":\"\\u0073ample\",\"ch\":1,\"slot\":2,\"value\":1}".to_string(),
            "{\"kind\":\"sample\",\"slot\":2,\"ch\":1,\"value\":1}".to_string(),
            "{\"ch\":1,\"kind\":\"sample\",\"slot\":2,\"value\":1}".to_string(),
            "{\"kind\":\"summary\",\"ch\":1,\"slot\":2,\"value\":1}".to_string(),
        ] {
            assert!(!fast_path_agrees(&line), "fast path accepted {line:?}");
        }
        // The declined escaped-kind spelling still reads as a sample.
        assert_eq!(
            general_sample("{\"kind\":\"\\u0073ample\",\"ch\":1,\"slot\":2,\"value\":1E3}"),
            Some((1, 2, 1000.0))
        );
    }

    #[test]
    fn config_hash_is_deterministic_and_discriminating() {
        #[derive(Debug)]
        struct Cfg(#[allow(dead_code)] u32); // read via the Debug derive
        assert_eq!(config_hash(&Cfg(7)), config_hash(&Cfg(7)));
        assert_ne!(config_hash(&Cfg(7)), config_hash(&Cfg(8)));
    }
}
