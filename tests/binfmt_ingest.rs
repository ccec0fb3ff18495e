//! Ingest tests for the binary trace format (`tracelog::binfmt`): a
//! truncated or stomped file must fail with an error that names the
//! chunk and record, mirroring the text reader's line numbers.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

use aerodrome_suite::pipeline::par::{check_all, standard_checkers, ParConfig};
use tracelog::binfmt::{self, BinTrace, MmapSource};
use tracelog::SourceError;
use workloads::{shapes, GenConfig};

/// Writes a convoy of `cfg`'s size as `.rbt` with deliberately small
/// chunks so even tiny traces split.
fn write_rbt(name: &str, cfg: &GenConfig, chunk_events: u32) -> PathBuf {
    let dir = std::env::temp_dir().join("rapid-binfmt-ingest-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.rbt"));
    let mut source = shapes::source("convoy", cfg).expect("known shape");
    let mut out = BufWriter::new(File::create(&path).unwrap());
    binfmt::write_binary(source.as_mut(), &mut out, chunk_events).unwrap();
    out.flush().unwrap();
    path
}

/// A stomped record fails ingest with `record N (chunk C)` attribution,
/// mirroring the text reader's line numbers.
#[test]
fn corrupted_chunk_fails_with_record_attribution() {
    let cfg = GenConfig { events: 4_000, ..GenConfig::default() };
    let path = write_rbt("stomped", &cfg, 256);
    // Stomp the opcode of record 700 (chunk 2 at 256 events/chunk).
    let mut bytes = std::fs::read(&path).unwrap();
    let offset = binfmt::HEADER_BYTES + 700 * tracelog::wire::EVENT_RECORD_BYTES;
    bytes[offset] = 0xEE;
    std::fs::write(&path, &bytes).unwrap();

    let mut source = MmapSource::open(&path).unwrap();
    let config = ParConfig { jobs: 2, ..ParConfig::default() };
    let err = check_all(&mut source, standard_checkers(), &config)
        .expect_err("stomped record must fail ingest");
    let SourceError::Binary(inner) = &err else {
        panic!("expected a binary decode error, got {err}");
    };
    let text = inner.to_string();
    assert!(text.contains("record 700 (chunk 2)"), "attribution lost: {text}");
}

/// A file truncated mid-events is rejected at open — the footer (and
/// with it the chunk index) is gone, so the failure is structural, not
/// a silent partial read.
#[test]
fn truncated_file_is_rejected_at_open() {
    let cfg = GenConfig { events: 2_000, ..GenConfig::default() };
    let path = write_rbt("truncated", &cfg, 256);
    let bytes = std::fs::read(&path).unwrap();
    let cut = binfmt::HEADER_BYTES + 1_000 * tracelog::wire::EVENT_RECORD_BYTES;
    std::fs::write(&path, &bytes[..cut]).unwrap();
    let err = BinTrace::open(&path).expect_err("truncated file must not open");
    let text = err.to_string();
    assert!(
        text.contains("end magic") || text.contains("footer") || text.contains("truncated"),
        "unhelpful truncation error: {text}"
    );
}
