//! Ingest bench: text parsing vs binary mmap vs chunk-parallel reading.
//!
//! Three questions, one trace. First, what does the `.rbt` container buy
//! over `.std` text on a pure drain (no checkers) — this isolates the
//! parse cost the binary format was designed to delete: fixed-width
//! 9-byte records decoded straight out of the mapping instead of
//! `split('|')` + integer parsing per line. Second, what does that buy
//! end-to-end under `rapid compare`'s single-ingest runtime
//! ([`par::check_all`]). Third, what does chunk-parallel ingest
//! ([`ChunkParSource`] feeding the same runtime) add on top once the
//! readers outnumber one. The `CRITERION_SHIM_JSON` dump of this bench is the source of
//! `BENCH_ingest.json`, the checked-in last-known-good that the
//! scheduled CI job diffs fresh runs against with `rapid benchdiff`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use aerodrome_suite::pipeline::chunkpar::ChunkParSource;
use aerodrome_suite::pipeline::par::{self, ParConfig};
use tracelog::binfmt::{self, BinTrace, MmapSource};
use tracelog::stream::{copy_events, EventBatch, EventSource, StdReader};
use workloads::shapes;
use workloads::GenConfig;

const EVENTS: usize = 200_000;

/// Writes the bench trace once in both encodings; returns the paths.
fn materialize(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let std_path = dir.join("convoy.std");
    let rbt_path = dir.join("convoy.rbt");
    let cfg = GenConfig { events: EVENTS, threads: 8, ..GenConfig::default() };
    let mut source = shapes::source("convoy", &cfg).unwrap();
    let mut out = BufWriter::new(File::create(&std_path).unwrap());
    copy_events(source.as_mut(), &mut out).unwrap();
    std::io::Write::flush(&mut out).unwrap();
    let mut source = shapes::source("convoy", &cfg).unwrap();
    let mut out = BufWriter::new(File::create(&rbt_path).unwrap());
    binfmt::write_binary(source.as_mut(), &mut out, binfmt::DEFAULT_CHUNK_EVENTS).unwrap();
    std::io::Write::flush(&mut out).unwrap();
    (std_path, rbt_path)
}

/// Drains a source to exhaustion, returning the event count.
fn drain<S: EventSource + ?Sized>(source: &mut S) -> u64 {
    let mut batch = EventBatch::new();
    let mut total = 0u64;
    loop {
        let n = source.next_batch(&mut batch).unwrap();
        if n == 0 {
            break;
        }
        total += n as u64;
    }
    total
}

fn bench_ingest(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("rapid-bench-ingest");
    let (std_path, rbt_path) = materialize(&dir);
    let trace = Arc::new(BinTrace::open(&rbt_path).unwrap());
    let events = trace.event_count();

    let mut g = c.benchmark_group("ingest");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Elements(events));

    // Pure ingest: the parse-vs-decode gap with no checking attached.
    g.bench_function("drain/std-parse", |b| {
        b.iter(|| {
            let mut source = StdReader::new(BufReader::new(File::open(&std_path).unwrap()));
            assert_eq!(drain(&mut source), events);
        });
    });
    g.bench_function("drain/rbt-mmap", |b| {
        b.iter(|| {
            let mut source = MmapSource::new(Arc::clone(&trace));
            assert_eq!(drain(&mut source), events);
        });
    });

    // End-to-end `rapid compare` shape: full checker panel, single
    // ingest thread over either encoding, then chunk-parallel readers.
    let config = ParConfig { jobs: 2, ..ParConfig::default() };
    g.bench_function("compare/std", |b| {
        b.iter(|| {
            let mut source = StdReader::new(BufReader::new(File::open(&std_path).unwrap()));
            let report = par::check_all(&mut source, par::standard_checkers(), &config).unwrap();
            assert_eq!(report.events, events);
        });
    });
    g.bench_function("compare/rbt-mmap", |b| {
        b.iter(|| {
            let mut source = MmapSource::new(Arc::clone(&trace));
            let report = par::check_all(&mut source, par::standard_checkers(), &config).unwrap();
            assert_eq!(report.events, events);
        });
    });
    for ingest_jobs in [2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("compare/rbt-chunked", ingest_jobs),
            &ingest_jobs,
            |b, &ingest_jobs| {
                b.iter(|| {
                    let mut source =
                        ChunkParSource::new(Arc::clone(&trace), ingest_jobs, config.batch_events);
                    let report =
                        par::check_all(&mut source, par::standard_checkers(), &config).unwrap();
                    assert_eq!(report.events, events);
                });
            },
        );
    }
    g.finish();
}

criterion_group!(ingest_benches, bench_ingest);
criterion_main!(ingest_benches);
