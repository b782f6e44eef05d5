//! Pins the bytes the artifact codec writes.
//!
//! An ensemble artifact is left in place when a run would write the same
//! bytes (`simkit::persist::write_if_changed`). For a compressed artifact
//! that check compares the *decoded* stream, which is only the same as
//! comparing the file if the file was written by this encoder and the
//! encoder turns equal input into equal output, every time and in every
//! version. This suite guards the second half: it compresses a committed
//! fixture and asserts a pinned digest of the output. A change to the
//! encoder that moves these bytes also changes the files that resumed runs
//! leave in place, so it must come with a new stream version (a new
//! `MAGIC`), not a new pin.
//!
//! The fixture is a real artifact, not a tuned one: the `mdp-avg` cell
//! trace of `ensemble 1 --horizon 80 --out DIR` (fig1a, seed 1). At 86 KB
//! it spans two codec blocks.

use simkit::persist::compress::{compress, decompress, CompressWriter};
use std::io::Write;

const FIXTURE: &[u8] = include_bytes!("fixtures/cell-s0-r0-p1.trace.jsonl");

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fixture_is_the_committed_artifact() {
    assert_eq!(FIXTURE.len(), 86_404);
    assert_eq!(fnv1a(FIXTURE), 0xaaf0_5129_8348_2776);
}

#[test]
fn compressed_fixture_bytes_are_pinned() {
    let packed = compress(FIXTURE);
    assert_eq!(packed.len(), 12_342);
    assert_eq!(fnv1a(&packed), 0x8e7d_685f_310e_e7a8);
}

#[test]
fn record_sized_writes_give_the_pinned_bytes_and_round_trip() {
    // The artifact writer feeds the codec a few bytes at a time; the
    // output must not depend on how the input was split.
    let mut writer = CompressWriter::new(Vec::new());
    for line in FIXTURE.split_inclusive(|&b| b == b'\n') {
        writer.write_all(line).unwrap();
    }
    let packed = writer.finish().unwrap();
    assert_eq!(packed, compress(FIXTURE));
    assert_eq!(decompress(&packed).unwrap(), FIXTURE);
}
