//! Differential and acceptance tests for the binary trace format and
//! chunk-parallel ingest (`tracelog::binfmt` + `pipeline::chunkpar`):
//! chunked multi-reader decoding must be *bit-identical* to the
//! single-reader mmap path and to the text `.std` path — same verdicts,
//! same violation coordinates, same checker counters, same validator
//! residue — and a truncated or stomped file must fail with an error
//! that names the chunk and record, mirroring the text reader's line
//! numbers.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

use aerodrome_suite::pipeline::chunkpar::ChunkParSource;
use aerodrome_suite::pipeline::par::{check_all, standard_checkers, ParConfig};
use tracelog::binfmt::{self, BinTrace, MmapSource};
use tracelog::stream::EventSource;
use tracelog::SourceError;
use workloads::{shapes, GenConfig};

/// Writes `cfg`'s shape (or the mixed generator for `None`) as `.rbt`
/// with deliberately small chunks so even tiny traces split.
fn write_rbt(name: &str, shape: Option<&str>, cfg: &GenConfig, chunk_events: u32) -> PathBuf {
    let dir = std::env::temp_dir().join("rapid-binfmt-ingest-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.rbt"));
    let mut source: Box<dyn EventSource> = match shape {
        Some(s) => shapes::source(s, cfg).expect("known shape"),
        None => Box::new(workloads::GenSource::new(cfg)),
    };
    let mut out = BufWriter::new(File::create(&path).unwrap());
    binfmt::write_binary(source.as_mut(), &mut out, chunk_events).unwrap();
    out.flush().unwrap();
    path
}

/// Chunk-parallel ingest at 2 and 4 readers is bit-identical to the
/// single-reader mmap run on the same mapping, across shapes, the mixed
/// generator and both verdicts.
#[test]
fn chunked_ingest_is_bit_identical_to_single_reader() {
    let mut cases: Vec<(String, GenConfig, Option<&str>)> = Vec::new();
    for name in shapes::SHAPE_NAMES {
        let cfg = GenConfig {
            events: 6_000,
            threads: if name == "fanout" { 17 } else { 6 },
            ..GenConfig::default()
        };
        cases.push((format!("shape:{name}"), cfg, Some(name)));
    }
    for violation_at in [None, Some(0.5)] {
        let cfg = GenConfig { events: 6_000, violation_at, ..GenConfig::default() };
        cases.push((format!("gen:violation={violation_at:?}"), cfg, None));
    }

    for (label, cfg, shape) in &cases {
        let path = write_rbt(&label.replace([':', '='], "-"), *shape, cfg, 512);
        let trace = Arc::new(BinTrace::open(&path).unwrap());
        let config = ParConfig { jobs: 2, ..ParConfig::default() };

        let mut single = MmapSource::new(Arc::clone(&trace));
        let reference = check_all(&mut single, standard_checkers(), &config).unwrap();

        for ingest_jobs in [2usize, 4] {
            let mut source =
                ChunkParSource::new(Arc::clone(&trace), ingest_jobs, config.batch_events);
            let report = check_all(&mut source, standard_checkers(), &config).unwrap();
            assert_eq!(report.events, reference.events, "{label}@{ingest_jobs}: events");
            assert_eq!(report.summary, reference.summary, "{label}@{ingest_jobs}: validator");
            assert!(source.readers() >= 2, "{label}@{ingest_jobs}: readers");
            for (run, reference_run) in report.runs.iter().zip(&reference.runs) {
                assert_eq!(
                    run.outcome, reference_run.outcome,
                    "{label}@{ingest_jobs}/{}: verdict",
                    run.name
                );
                assert_eq!(
                    run.report, reference_run.report,
                    "{label}@{ingest_jobs}/{}: checker report",
                    run.name
                );
            }
        }
    }
}

/// A stomped record fails chunked ingest with the same `record N
/// (chunk C)` attribution the single reader gives — the first error in
/// trace order wins regardless of which reader hits it.
#[test]
fn corrupted_chunk_fails_with_record_attribution_under_every_reader_count() {
    let cfg = GenConfig { events: 4_000, ..GenConfig::default() };
    let path = write_rbt("stomped", Some("convoy"), &cfg, 256);
    // Stomp the opcode of record 700 (chunk 2 at 256 events/chunk).
    let mut bytes = std::fs::read(&path).unwrap();
    let offset = binfmt::HEADER_BYTES + 700 * tracelog::wire::EVENT_RECORD_BYTES;
    bytes[offset] = 0xEE;
    std::fs::write(&path, &bytes).unwrap();

    let trace = Arc::new(BinTrace::open(&path).unwrap());
    let config = ParConfig { jobs: 2, ..ParConfig::default() };
    for ingest_jobs in [1usize, 2, 4] {
        let mut source = ChunkParSource::new(Arc::clone(&trace), ingest_jobs, config.batch_events);
        let err = check_all(&mut source, standard_checkers(), &config)
            .expect_err("stomped record must fail ingest");
        let SourceError::Binary(inner) = &err else {
            panic!("@{ingest_jobs}: expected a binary decode error, got {err}");
        };
        let text = inner.to_string();
        assert!(text.contains("record 700 (chunk 2)"), "@{ingest_jobs}: attribution lost: {text}");
    }
}

/// A file truncated mid-events is rejected at open — the footer (and
/// with it the chunk index) is gone, so the failure is structural, not
/// a silent partial read.
#[test]
fn truncated_file_is_rejected_at_open() {
    let cfg = GenConfig { events: 2_000, ..GenConfig::default() };
    let path = write_rbt("truncated", Some("convoy"), &cfg, 256);
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

/// Scheduled-CI acceptance: a 5M-event convoy written as `.rbt` checks
/// through chunk-parallel ingest with verdicts identical to the
/// single-reader run, and the run reports its ingest throughput.
///
/// ```console
/// cargo test --release --test binfmt_ingest -- --ignored
/// ```
#[test]
#[ignore = "multi-minute in debug builds; run with --release -- --ignored"]
fn five_million_event_binary_ingest_acceptance() {
    use std::time::Instant;

    let cfg = GenConfig { seed: 42, events: 5_000_000, threads: 8, ..GenConfig::default() };
    let path = write_rbt("acceptance-5m", Some("convoy"), &cfg, binfmt::DEFAULT_CHUNK_EVENTS);
    let trace = Arc::new(BinTrace::open(&path).unwrap());
    assert!(trace.event_count() >= 5_000_000);

    let jobs = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get).min(4);
    let config = ParConfig::default().jobs(jobs);

    let mut single = MmapSource::new(Arc::clone(&trace));
    let started = Instant::now();
    let reference = check_all(&mut single, standard_checkers(), &config).unwrap();
    let single_wall = started.elapsed();

    let started = Instant::now();
    let mut source = ChunkParSource::new(Arc::clone(&trace), jobs.max(2), config.batch_events);
    let report = check_all(&mut source, standard_checkers(), &config).unwrap();
    let chunked_wall = started.elapsed();

    assert_eq!(report.events, reference.events);
    assert_eq!(report.summary, reference.summary);
    for (run, reference_run) in report.runs.iter().zip(&reference.runs) {
        assert_eq!(run.outcome, reference_run.outcome, "{}", run.name);
        assert_eq!(run.report, reference_run.report, "{}", run.name);
    }
    let events = report.events as f64;
    println!(
        "5M acceptance: single {:.3}s ({:.0} events/s)  chunked×{} {:.3}s ({:.0} events/s)",
        single_wall.as_secs_f64(),
        events / single_wall.as_secs_f64(),
        source.readers(),
        chunked_wall.as_secs_f64(),
        events / chunked_wall.as_secs_f64(),
    );
}
