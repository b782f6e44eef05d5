//! `persist::read_artifact` must not allocate per record: reading an
//! artifact with 10× more samples may add only the few allocations of the
//! growing series `Vec`s, in either encoding. A counting wrapper around
//! the system allocator tallies every allocation per thread.

use simkit::persist::{read_artifact, ArtifactKind, ArtifactWriter, Compression, Manifest};
use simkit::{RecordingMode, TimeSlot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread, so tests the harness runs
    /// in parallel never see each other's allocations.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread in teardown has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: a pure pass-through to the System allocator; the only addition is
// a thread-local counter bump, which neither allocates nor affects
// GlobalAlloc's contract.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards `System.alloc`'s own contract unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds GlobalAlloc's layout contract, which is
        // forwarded verbatim to the System allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards `System.dealloc`'s own contract unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the matching alloc/realloc below,
        // which delegate to System, so System may free it.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards `System.realloc`'s own contract unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr`/`layout` obey the caller's GlobalAlloc contract and
        // came from System via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const CHANNELS: usize = 3;

/// Writes a `CHANNELS`-channel artifact of `slots` samples per channel
/// and returns its path.
fn write_artifact(slots: u64, compression: Compression) -> PathBuf {
    let path = compression.apply_to(&std::env::temp_dir().join(format!(
        "simkit-read-alloc-{}-{slots}.trace.jsonl",
        std::process::id()
    )));
    let manifest = Manifest {
        artifact: ArtifactKind::Trace,
        scenario: "read-alloc".to_string(),
        policy: "test".to_string(),
        seed: Some(1),
        recording: RecordingMode::Full,
        config_hash: 0,
    };
    let mut writer = ArtifactWriter::create_with(&path, &manifest, compression).unwrap();
    let chs: Vec<_> = (0..CHANNELS)
        .map(|i| {
            writer
                .channel(&format!("c{i}"), RecordingMode::Full)
                .unwrap()
        })
        .collect();
    for t in 0..slots {
        for (i, &ch) in chs.iter().enumerate() {
            writer
                .sample(ch, TimeSlot::new(t), (t % 97) as f64 * 0.25 - i as f64)
                .unwrap();
        }
    }
    writer.finish().unwrap();
    path
}

/// Allocations the calling thread makes reading `path`.
fn read_allocations(path: &Path) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let artifact = read_artifact(path).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(artifact);
    after - before
}

#[test]
fn reading_does_not_allocate_per_record() {
    for compression in [Compression::None, Compression::Deflate] {
        let small = write_artifact(1_000, compression);
        let large = write_artifact(10_000, compression);
        let (a, b) = (read_allocations(&small), read_allocations(&large));
        std::fs::remove_file(&small).unwrap();
        std::fs::remove_file(&large).unwrap();
        // 10× the samples: each series `Vec` doubles ~4 more times; the
        // line and block buffers may grow once or twice. Anything per
        // record would add tens of thousands.
        assert!(
            b <= a + 5 * CHANNELS + 4,
            "{compression:?}: {a} allocations for 3,000 samples, {b} for 30,000"
        );
    }
}
