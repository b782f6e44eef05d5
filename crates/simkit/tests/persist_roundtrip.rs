//! Round-trip suite for `simkit::persist`: artifacts written slot-by-slot
//! must re-read **bit-identically** in every recording mode, ensemble
//! curves included, and damaged files must fail loudly instead of
//! reconstructing silently wrong data.

use simkit::persist::{
    config_hash, read_artifact, ArtifactKind, ArtifactWriter, Compression, Manifest, PersistError,
};
use simkit::{CurveAccumulator, RecordingMode, RunningStats, TimeSeries, TimeSlot, TraceRecorder};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch path per call (no tempfile crate in the offline
/// workspace); files are removed by each test on success.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "simkit-persist-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

fn manifest(kind: ArtifactKind, recording: RecordingMode) -> Manifest {
    Manifest {
        artifact: kind,
        scenario: "roundtrip".to_string(),
        policy: "test".to_string(),
        seed: Some(u64::MAX - 1),
        recording,
        config_hash: config_hash(&("roundtrip", 42u32)),
    }
}

/// Values that stress the float encoding: negative zero, subnormals,
/// huge/tiny magnitudes and "ugly" decimals.
fn awkward_values() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0 / 3.0,
        -1234.5678e-9,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 8.0, // subnormal
        // Large enough to stress the decimal encoding, small enough that
        // the running variance stays finite.
        1.7976931348623157e150,
        -2.2250738585072014e-150,
        std::f64::consts::PI,
        (0.1f64 + 0.2).sin() * 1e17,
    ]
}

#[test]
fn trace_artifacts_roundtrip_bitwise_in_every_mode() {
    for mode in [
        RecordingMode::Full,
        RecordingMode::Decimate(3),
        RecordingMode::SummaryOnly,
    ] {
        let path = scratch("trace");
        let want_manifest = manifest(ArtifactKind::Trace, mode);
        let writer = ArtifactWriter::create(&path, &want_manifest)
            .unwrap()
            .shared();

        // Two channels recorded through the File sink, one bulk series.
        let mut recorders: Vec<TraceRecorder> = (0..2)
            .map(|k| TraceRecorder::to_artifact(format!("ch{k}"), mode, &writer).unwrap())
            .collect();
        let values = awkward_values();
        let mut in_memory: Vec<TraceRecorder> = (0..2)
            .map(|k| TraceRecorder::new(format!("ch{k}"), mode, values.len()))
            .collect();
        for (i, v) in values.iter().enumerate() {
            for k in 0..2 {
                let sample = v / (k + 1) as f64;
                recorders[k].record(TimeSlot::new(i as u64), sample);
                in_memory[k].record(TimeSlot::new(i as u64), sample);
            }
        }
        let mut bulk = TimeSeries::new("bulk");
        for (i, v) in values.iter().enumerate() {
            bulk.push(TimeSlot::new(i as u64), *v);
        }
        writer.borrow_mut().series(&bulk).unwrap();
        let summaries: Vec<_> = recorders
            .drain(..)
            .map(|r| {
                let (series, summary) = r.into_parts();
                assert!(series.is_empty(), "File sink must retain nothing in memory");
                summary
            })
            .collect();
        ArtifactWriter::finish_shared(writer).unwrap();

        let artifact = read_artifact(&path).unwrap();
        assert_eq!(artifact.manifest, want_manifest, "{mode:?}");
        assert_eq!(artifact.channels.len(), 3, "{mode:?}");
        for (k, reference) in in_memory.drain(..).enumerate() {
            let (want_series, want_summary) = reference.into_parts();
            let channel = &artifact.channels[k];
            assert_eq!(channel.mode, mode);
            assert_eq!(channel.series, want_series, "{mode:?} ch{k} bit-identical");
            assert_eq!(channel.summary, Some(want_summary), "{mode:?} ch{k}");
            assert_eq!(channel.summary, Some(summaries[k]), "{mode:?} ch{k}");
        }
        assert_eq!(artifact.channels[2].series, bulk, "bulk series roundtrip");
        assert_eq!(artifact.channel("bulk").unwrap().series, bulk);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn ensemble_curves_roundtrip_bitwise() {
    let path = scratch("ensemble");
    let want_manifest = manifest(ArtifactKind::Ensemble, RecordingMode::SummaryOnly);
    let mut writer = ArtifactWriter::create(&path, &want_manifest).unwrap();

    let mut acc = CurveAccumulator::new("s0/test");
    for k in 0..4 {
        let mut curve = TimeSeries::new("replicate");
        for (i, v) in awkward_values().iter().enumerate() {
            curve.push(TimeSlot::new(i as u64), v * (k + 1) as f64);
        }
        acc.push_curve(&curve);
    }
    let summary = acc.finish().unwrap();
    writer.curve("test", 0, 3, &summary).unwrap();
    writer.finish().unwrap();

    let artifact = read_artifact(&path).unwrap();
    assert_eq!(artifact.manifest, want_manifest);
    assert_eq!(artifact.curves.len(), 1);
    let got = &artifact.curves[0];
    assert_eq!(got.label, "test");
    assert_eq!(got.scenario, 0);
    assert_eq!(got.policy, 3);
    assert_eq!(got.curve, summary, "CurveSummary must roundtrip bitwise");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn empty_channel_summary_is_null_not_nan() {
    let path = scratch("empty");
    let writer = ArtifactWriter::create(&path, &manifest(ArtifactKind::Trace, RecordingMode::Full))
        .unwrap()
        .shared();
    let rec = TraceRecorder::to_artifact("empty", RecordingMode::Full, &writer).unwrap();
    let (_, summary) = rec.into_parts();
    assert_eq!(summary.min, None);
    ArtifactWriter::finish_shared(writer).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        !text.contains("NaN"),
        "artifacts must stay valid JSON: {text}"
    );
    let artifact = read_artifact(&path).unwrap();
    let got = artifact.channels[0].summary.unwrap();
    assert_eq!(got, summary);
    assert_eq!(got.min, None);
    assert_eq!(got.max, None);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn writer_rejects_non_finite_samples() {
    let path = scratch("nonfinite");
    let mut writer =
        ArtifactWriter::create(&path, &manifest(ArtifactKind::Trace, RecordingMode::Full)).unwrap();
    let ch = writer.channel("x", RecordingMode::Full).unwrap();
    assert_eq!(
        writer.sample(ch, TimeSlot::new(0), f64::NAN),
        Err(PersistError::NonFinite {
            what: "sample value"
        })
    );
    // The error is latched: the artifact cannot be finished as if intact —
    // and the failed artifact never appears under its final name (the
    // writer streams to a temporary and only finish() renames it).
    assert!(writer.finish().is_err());
    assert!(!path.exists());
}

fn write_small_artifact(path: &Path) {
    let mut writer =
        ArtifactWriter::create(path, &manifest(ArtifactKind::Trace, RecordingMode::Full)).unwrap();
    let ch = writer.channel("x", RecordingMode::Full).unwrap();
    for i in 0..50 {
        writer.sample(ch, TimeSlot::new(i), i as f64 * 0.5).unwrap();
    }
    let stats: RunningStats = (0..50).map(|i| i as f64 * 0.5).collect();
    writer.summary(ch, &stats.summary()).unwrap();
    writer.finish().unwrap();
}

#[test]
fn truncated_artifact_is_rejected() {
    let path = scratch("truncated");
    write_small_artifact(&path);
    let text = std::fs::read_to_string(&path).unwrap();

    // Drop the footer (and a few records): whole-line truncation.
    let lines: Vec<&str> = text.lines().collect();
    let cut = lines[..lines.len() - 3].join("\n");
    std::fs::write(&path, &cut).unwrap();
    assert_eq!(read_artifact(&path), Err(PersistError::Truncated));

    // Cut mid-record: the partial line is corrupt, not silently dropped.
    let half = &text[..text.len() - 17];
    std::fs::write(&path, half).unwrap();
    assert!(matches!(
        read_artifact(&path),
        Err(PersistError::Corrupt { line, .. }) if line == lines.len()
    ));

    // An empty file is truncated too (no manifest).
    std::fs::write(&path, "").unwrap();
    assert_eq!(read_artifact(&path), Err(PersistError::Truncated));
    std::fs::remove_file(&path).unwrap();
}

/// Bytes after a compressed stream's end marker and checksum are damage,
/// not padding: a cell (trace) and an ensemble artifact with a trailing
/// `garbage` both fail to read, while the same files without it read.
#[test]
fn bytes_after_a_compressed_stream_are_rejected() {
    let trace = scratch("trailing-trace");
    let mut writer = ArtifactWriter::create_with(
        &trace,
        &manifest(ArtifactKind::Trace, RecordingMode::Full),
        Compression::Deflate,
    )
    .unwrap();
    let ch = writer.channel("x", RecordingMode::Full).unwrap();
    for i in 0..50 {
        writer.sample(ch, TimeSlot::new(i), i as f64 * 0.5).unwrap();
    }
    writer.finish().unwrap();

    let ensemble = scratch("trailing-ensemble");
    let mut writer = ArtifactWriter::create_with(
        &ensemble,
        &manifest(ArtifactKind::Ensemble, RecordingMode::SummaryOnly),
        Compression::Deflate,
    )
    .unwrap();
    let mut acc = CurveAccumulator::new("s0/test");
    let mut curve = TimeSeries::new("replicate");
    for (i, v) in awkward_values().iter().enumerate() {
        curve.push(TimeSlot::new(i as u64), *v);
    }
    acc.push_curve(&curve);
    writer.curve("test", 0, 1, &acc.finish().unwrap()).unwrap();
    writer.finish().unwrap();

    for path in [&trace, &ensemble] {
        assert!(read_artifact(path).is_ok(), "{}", path.display());
        let mut bytes = std::fs::read(path).unwrap();
        bytes.extend_from_slice(b"garbage");
        std::fs::write(path, &bytes).unwrap();
        assert!(
            matches!(read_artifact(path), Err(PersistError::Corrupt { .. })),
            "{}: {:?}",
            path.display(),
            read_artifact(path)
        );
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn corrupted_records_are_rejected_with_line_numbers() {
    let path = scratch("corrupt");
    write_small_artifact(&path);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[3] = "{\"kind\":\"sample\",\"ch\":".to_string(); // garbage mid-file
    std::fs::write(&path, lines.join("\n")).unwrap();
    match read_artifact(&path) {
        Err(PersistError::Corrupt { line, .. }) => assert_eq!(line, 4),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A sample for a channel that was never declared.
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[3] = "{\"kind\":\"sample\",\"ch\":9,\"slot\":3,\"value\":1.0}".to_string();
    std::fs::write(&path, lines.join("\n")).unwrap();
    assert!(matches!(
        read_artifact(&path),
        Err(PersistError::Corrupt { line: 4, .. })
    ));

    // Footer counts that disagree with the records actually present.
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let last = lines.len() - 1;
    lines[last] = "{\"kind\":\"footer\",\"channels\":1,\"curves\":0,\"samples\":49}".to_string();
    std::fs::write(&path, lines.join("\n")).unwrap();
    assert!(matches!(
        read_artifact(&path),
        Err(PersistError::Corrupt { line, .. }) if line == last + 1
    ));
    std::fs::remove_file(&path).unwrap();
}

/// `line` spelled as valid JSON the writer never emits (a space after the
/// brace), so the reader parses it through its general path.
fn respell(line: &str) -> String {
    line.replacen('{', "{ ", 1)
}

#[test]
fn sample_errors_are_identical_on_both_parse_paths() {
    let path = scratch("sample-errors");
    write_small_artifact(&path);
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    // Lines: 0 manifest, 1 channel, 2..52 samples of slots 0..50.
    let sample = |ch: usize, slot: u64| {
        format!("{{\"kind\":\"sample\",\"ch\":{ch},\"slot\":{slot},\"value\":1.5}}")
    };
    let corrupt = |line: usize, why: &str| PersistError::Corrupt {
        line,
        why: why.to_string(),
    };
    let cases: Vec<(usize, String, PersistError)> = vec![
        (
            0,
            sample(0, 0),
            corrupt(1, "first record must be the manifest"),
        ),
        (1, sample(0, 0), corrupt(2, "sample for unknown channel 0")),
        (3, sample(9, 1), corrupt(4, "sample for unknown channel 9")),
        (4, sample(0, 0), corrupt(5, "samples out of slot order")),
        (
            6,
            sample(0, u64::MAX),
            corrupt(8, "samples out of slot order"),
        ),
    ];
    for (at, line, want) in cases {
        for spelled in [line.clone(), respell(&line)] {
            let mut damaged = lines.clone();
            // Inserted before the manifest or the channel; replacing a
            // sample otherwise.
            if at <= 1 {
                damaged.insert(at, spelled.clone());
            } else {
                damaged[at] = spelled.clone();
            }
            std::fs::write(&path, damaged.join("\n")).unwrap();
            assert_eq!(read_artifact(&path), Err(want.clone()), "{spelled}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn respelled_samples_read_identically() {
    for compression in [Compression::None, Compression::Deflate] {
        let path = compression.apply_to(&scratch("respelled"));
        let mut writer = ArtifactWriter::create_with(
            &path,
            &manifest(ArtifactKind::Trace, RecordingMode::Full),
            compression,
        )
        .unwrap();
        let chs = [
            writer.channel("a", RecordingMode::Full).unwrap(),
            writer.channel("b", RecordingMode::Full).unwrap(),
        ];
        for (i, v) in awkward_values().into_iter().cycle().take(400).enumerate() {
            writer
                .sample(chs[i % 2], TimeSlot::new(i as u64), v)
                .unwrap();
        }
        writer.finish().unwrap();
        let canonical = read_artifact(&path).unwrap();
        // Every sample through the general path instead of the fast one.
        let plain = scratch("respelled-plain");
        let text = if compression == Compression::None {
            std::fs::read_to_string(&path).unwrap()
        } else {
            let bytes = std::fs::read(&path).unwrap();
            String::from_utf8(simkit::persist::compress::decompress(&bytes).unwrap()).unwrap()
        };
        let respelled: Vec<String> = text
            .lines()
            .map(|l| {
                if l.contains("\"sample\"") {
                    respell(l)
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(&plain, respelled.join("\n")).unwrap();
        assert_eq!(read_artifact(&plain).unwrap(), canonical);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&plain).unwrap();
    }
}

#[test]
fn unknown_format_versions_are_rejected_and_unknown_records_skipped() {
    let path = scratch("version");
    write_small_artifact(&path);
    let text = std::fs::read_to_string(&path).unwrap();

    // A future format version must be refused outright...
    let bumped = text.replacen("\"format\":1", "\"format\":2", 1);
    std::fs::write(&path, &bumped).unwrap();
    assert_eq!(
        read_artifact(&path),
        Err(PersistError::Version { found: 2 })
    );

    // ...while unknown record *kinds* within format 1 are skipped (the
    // versioning rule: additions are new kinds, breaking changes bump the
    // format).
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.insert(
        2,
        "{\"kind\":\"annotation\",\"note\":\"future field\"}".to_string(),
    );
    std::fs::write(&path, lines.join("\n")).unwrap();
    let artifact = read_artifact(&path).unwrap();
    assert_eq!(artifact.channels[0].series.len(), 50);
    std::fs::remove_file(&path).unwrap();
}

/// The in-flight temporary (if any) for `path`, found the same way the
/// recompute sweep finds crashed writers' orphans: by scanning the
/// directory with `is_tmp_for` (each writer's temporary name is unique,
/// so it cannot be predicted from the path alone).
fn in_flight_tmp(path: &std::path::Path) -> Option<std::path::PathBuf> {
    let final_name = path.file_name()?.to_string_lossy().into_owned();
    let parent = path.parent()?;
    std::fs::read_dir(parent).ok()?.find_map(|entry| {
        let entry = entry.ok()?;
        let name = entry.file_name().to_string_lossy().into_owned();
        simkit::persist::is_tmp_for(&name, &final_name).then(|| entry.path())
    })
}

/// An artifact must appear under its final name only when complete: the
/// writer streams to a writer-unique `*.tmp-<pid>-<seq>` sibling and
/// renames on finish, in both encodings.
#[test]
fn artifacts_finalize_atomically_via_tmp_rename() {
    use simkit::persist::Compression;
    for compression in [Compression::None, Compression::Deflate] {
        let path = compression.apply_to(&scratch("atomic"));
        let mut writer = ArtifactWriter::create_with(
            &path,
            &manifest(ArtifactKind::Trace, RecordingMode::Full),
            compression,
        )
        .unwrap();
        let ch = writer.channel("x", RecordingMode::Full).unwrap();
        for i in 0..10u64 {
            writer
                .sample(ch, simkit::TimeSlot::new(i), i as f64)
                .unwrap();
        }
        // Mid-write: all bytes live under the temporary name.
        let tmp = in_flight_tmp(&path).expect("tmp file while writing");
        assert!(
            !path.exists(),
            "{compression:?}: no final file while writing"
        );

        writer.finish().unwrap();
        assert!(path.exists(), "{compression:?}: final file after finish");
        assert!(!tmp.exists(), "{compression:?}: tmp renamed away by finish");
        read_artifact(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}

/// Abandoning a writer without finishing (error paths with live
/// destructors) removes the in-flight temporary and never creates the
/// final file.
#[test]
fn abandoned_writer_cleans_up_its_temporary() {
    let path = scratch("abandoned");
    let mut writer =
        ArtifactWriter::create(&path, &manifest(ArtifactKind::Trace, RecordingMode::Full)).unwrap();
    let ch = writer.channel("x", RecordingMode::Full).unwrap();
    writer.sample(ch, simkit::TimeSlot::new(0), 1.0).unwrap();
    let tmp = in_flight_tmp(&path).expect("tmp file while writing");
    drop(writer);
    assert!(!tmp.exists(), "drop must remove the temporary");
    assert!(!path.exists(), "an unfinished artifact must never appear");
}

/// `is_tmp_for` recognizes exactly the writer's temporary naming scheme —
/// for any pid, but never for unrelated siblings.
#[test]
fn tmp_naming_roundtrips_through_is_tmp_for() {
    use simkit::persist::{is_tmp_for, tmp_path};
    let path = std::path::Path::new("cell-s0-r1-p2.trace.jsonl");
    let tmp = tmp_path(path);
    let tmp_name = tmp.file_name().unwrap().to_string_lossy();
    assert!(is_tmp_for(&tmp_name, "cell-s0-r1-p2.trace.jsonl"));
    assert!(is_tmp_for("x.jsonl.tmp-999", "x.jsonl"), "pid-only shape");
    assert!(is_tmp_for("x.jsonl.tmp-999-7", "x.jsonl"), "pid-seq shape");
    assert!(is_tmp_for("x.jsonl.z.tmp-1", "x.jsonl.z"));
    assert!(!is_tmp_for("x.jsonl.tmp-", "x.jsonl"), "pid required");
    assert!(!is_tmp_for("x.jsonl.tmp-12a", "x.jsonl"), "digits only");
    assert!(!is_tmp_for("x.jsonl.tmp-12-", "x.jsonl"), "seq required");
    assert!(!is_tmp_for("x.jsonl.tmp-1-2-3", "x.jsonl"), "one seq only");
    assert!(!is_tmp_for("x.jsonl", "x.jsonl"), "the final file itself");
    assert!(!is_tmp_for("y.jsonl.tmp-1", "x.jsonl"), "other artifacts");
    assert!(!is_tmp_for("x.jsonl.lease", "x.jsonl"), "lease siblings");
}

#[test]
fn memory_and_file_sinks_agree_on_summaries() {
    let path = scratch("sink-parity");
    let writer = ArtifactWriter::create(&path, &manifest(ArtifactKind::Trace, RecordingMode::Full))
        .unwrap()
        .shared();
    let mut file_rec =
        TraceRecorder::to_artifact("q", RecordingMode::Decimate(4), &writer).unwrap();
    let mut mem_rec = TraceRecorder::new("q", RecordingMode::Decimate(4), 100);
    for i in 0..100u64 {
        let v = (i as f64 * 0.7).cos() * 3.0;
        file_rec.record(TimeSlot::new(i), v);
        mem_rec.record(TimeSlot::new(i), v);
    }
    assert_eq!(file_rec.seen(), mem_rec.seen());
    assert_eq!(file_rec.stats(), mem_rec.stats());
    let (_, file_summary) = file_rec.into_parts();
    ArtifactWriter::finish_shared(writer).unwrap();
    let (mem_series, mem_summary) = mem_rec.into_parts();
    assert_eq!(file_summary, mem_summary);
    let artifact = read_artifact(&path).unwrap();
    assert_eq!(artifact.channels[0].series, mem_series);
    std::fs::remove_file(&path).unwrap();
}
