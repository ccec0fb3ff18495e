//! The traced layer ladders of the three offline workloads.
//!
//! Each ladder does the work of the workload's `rapid` command in this
//! process, one layer at a time, with a span around every call into a
//! layer's public API: decode or parse a batch, validate it, feed it to
//! each checker. A checker's spans are its standalone, single-threaded
//! busy time. The parallel workloads then also run the real runtime
//! (`pipeline::par::check_all`, `pipeline::multi::check_corpus`) with
//! spans only at its boundary, and set its wall against the critical path
//! the standalone times predict.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aerodrome_suite::pipeline::multi::{self, MultiConfig};
use aerodrome_suite::pipeline::par::{self, ParConfig};
use aerodrome_suite::pipeline::validate_batch;
use tracelog::binfmt::{BinTrace, MmapSource};
use tracelog::stream::{EventBatch, EventSource, StdReader, DEFAULT_BATCH_EVENTS};
use tracelog::Validator;

use crate::inputs::{read_expect, Expect};
use crate::timed::{verdict_faults, Json, Panel, TimedSource, Totals, ALL, OPTIMIZED};

/// Worker threads of the parallel runtimes (the benchmark host has 2
/// cores).
pub const JOBS: usize = 2;

/// A traced pass's metrics and the ground-truth rules it saw broken.
type Pass = (Json, Vec<String>);

pub fn run(workload: &str, dir: &Path) -> Result<String, String> {
    let expect = read_expect(dir)?;
    let (mut out, faults) = match workload {
        "check-rbt" => check_rbt(dir, &expect[0])?,
        "compare-std" => compare_std(dir, &expect[0])?,
        "batch-corpus" => batch_corpus(dir, &expect)?,
        other => return Err(format!("no ladder for workload `{other}`")),
    };
    out.strings("faults", &faults);
    Ok(out.render())
}

/// Decodes, validates and checks one trace through `panel`, accumulating
/// the decode and validate spans. One checker is fed batch by batch as
/// `rapid check` does; several are each run alone over the decoded trace
/// in turn, so every checker's span is its standalone time. Returns the
/// events seen.
fn ladder_trace(
    source: &mut dyn EventSource,
    panel: &mut Panel,
    which: &[usize],
    validator: &mut Validator,
    decode: &mut Duration,
    validate: &mut Duration,
) -> Result<u64, String> {
    let mut decoded = Vec::new();
    let mut batch = EventBatch::with_target(DEFAULT_BATCH_EVENTS);
    let mut events = 0;
    loop {
        let start = Instant::now();
        let n = source.next_batch(&mut batch).map_err(|e| e.to_string())?;
        *decode += start.elapsed();
        if n == 0 {
            break;
        }
        let start = Instant::now();
        if let Some(e) = validate_batch(validator, &mut batch) {
            return Err(format!("not well-formed: {e}"));
        }
        *validate += start.elapsed();
        events += n as u64;
        if which.len() == 1 {
            panel.feed(&batch, which);
        } else {
            decoded
                .push(std::mem::replace(&mut batch, EventBatch::with_target(DEFAULT_BATCH_EVENTS)));
        }
    }
    for &i in which {
        for batch in &decoded {
            panel.feed(batch, &[i]);
        }
    }
    Ok(events)
}

/// `rapid check <trace.rbt>`: open, decode, validate, Algorithm 3 — one
/// thread, so the self times sum to the wall.
fn check_rbt(dir: &Path, expect: &Expect) -> Result<Pass, String> {
    let path = dir.join(&expect.path);
    let started = Instant::now();
    let trace = Arc::new(BinTrace::open(&path).map_err(|e| e.to_string())?);
    let open = started.elapsed();
    let (mut decode, mut validate) = (Duration::ZERO, Duration::ZERO);
    let mut panel = Panel::new();
    let which = [OPTIMIZED];
    let events = ladder_trace(
        &mut MmapSource::new(trace),
        &mut panel,
        &which,
        &mut Validator::new(),
        &mut decode,
        &mut validate,
    )?;
    let wall = started.elapsed();

    let mut faults = verdict_faults(&panel.violations, &which, expect.violating);
    if events != expect.events {
        faults.push(format!("decoded {events} events, expected {}", expect.events));
    }
    let mut totals = Totals::default();
    panel.finish_trace(&mut totals, &which, 1);
    let path_s = open + decode + validate + totals.busy[OPTIMIZED];

    let mut out = Json::default();
    out.secs("tracelog.binfmt.open_s", open);
    out.secs("tracelog.binfmt.decode.busy_s", decode);
    out.secs("tracelog.validate.busy_s", validate);
    totals.emit(&mut out);
    out.secs("traced_wall_s", wall);
    out.secs("path_s", path_s);
    out.int("events", events);
    Ok((out, faults))
}

/// `rapid compare <trace.std> --jobs 2`: a standalone ladder (parse,
/// validate, each checker in turn, one thread), then the real
/// `check_all` with its source timed at the boundary.
fn compare_std(dir: &Path, expect: &Expect) -> Result<Pass, String> {
    let path = dir.join(&expect.path);
    let open = |p: &Path| -> Result<_, String> {
        let file = File::open(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(TimedSource::new(StdReader::new(BufReader::new(file))))
    };

    let (mut parse, mut validate) = (Duration::ZERO, Duration::ZERO);
    let mut panel = Panel::new();
    let mut source = open(&path)?;
    let events = ladder_trace(
        &mut source,
        &mut panel,
        &ALL,
        &mut Validator::new(),
        &mut parse,
        &mut validate,
    )?;
    let standalone = panel.violations;
    let mut faults = verdict_faults(&standalone, &ALL, expect.violating);
    if events != expect.events {
        faults.push(format!("parsed {events} events, expected {}", expect.events));
    }
    let mut totals = Totals::default();
    panel.finish_trace(&mut totals, &ALL, 1);

    let mut source = open(&path)?;
    let config = ParConfig::default().jobs(JOBS);
    let started = Instant::now();
    let report = par::check_all(&mut source, par::standard_checkers(), &config)
        .map_err(|e| format!("check_all: {e}"))?;
    let wall = started.elapsed();
    for (i, run) in report.runs.iter().enumerate() {
        let got = run.outcome.violation().map(|v| v.event.index() as u64);
        if got != standalone[i] {
            faults
                .push(format!("check_all {} {got:?} != standalone {:?}", run.name, standalone[i]));
        }
    }

    // The ingest thread parses (timed inside check_all) and validates
    // (standalone span); worker k owns the checkers with index ≡ k mod
    // workers, as check_all deals them out.
    let workers = report.stats.workers;
    let ingest = source.busy + validate;
    let mut path_s = ingest;
    for k in 0..workers {
        let busy: Duration =
            ALL.iter().filter(|&&i| i % workers == k).map(|&i| totals.busy[i]).sum();
        path_s = path_s.max(busy);
    }

    let mut out = Json::default();
    out.secs("tracelog.parser.busy_s", parse);
    out.secs("tracelog.validate.busy_s", validate);
    totals.emit(&mut out);
    out.int("pipeline.par.batches", report.stats.batches);
    out.int("pipeline.par.batch_buffers", report.stats.batch_buffers as u64);
    out.secs("pipeline.par.critical_path_s", path_s);
    out.num("pipeline.par.overhead_s", wall.as_secs_f64() - path_s.as_secs_f64());
    out.secs("ingest_in_check_all_s", source.busy);
    out.secs("traced_wall_s", wall);
    out.secs("path_s", path_s);
    out.int("events", events);
    Ok((out, faults))
}

/// `rapid batch <dir> --jobs 2`: discover, then a standalone ladder over
/// every trace through one resident panel reset between traces, then the
/// real `check_corpus`.
fn batch_corpus(dir: &Path, expect: &[Expect]) -> Result<Pass, String> {
    let started = Instant::now();
    let paths = multi::discover(&dir.join("corpus"))?;
    let discover = started.elapsed();
    if paths.len() != expect.len() {
        return Err(format!("discovered {} traces, expected {}", paths.len(), expect.len()));
    }

    let (mut open, mut decode, mut validate, mut reset) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut panel = Panel::new();
    let mut validator = Validator::new();
    let mut totals = Totals::default();
    let mut faults = Vec::new();
    let mut verdicts = Vec::with_capacity(paths.len());
    let (mut busy_sum, mut busy_max) = (Duration::ZERO, Duration::ZERO);
    // discover sorts by path, as expect.tsv lists the entries.
    for (path, want) in paths.iter().zip(expect) {
        let before = open + decode + validate + reset + totals.busy.iter().sum::<Duration>();
        let start = Instant::now();
        let trace = Arc::new(BinTrace::open(path).map_err(|e| format!("{}: {e}", path.display()))?);
        open += start.elapsed();
        validator.reset();
        let events = ladder_trace(
            &mut MmapSource::new(trace),
            &mut panel,
            &ALL,
            &mut validator,
            &mut decode,
            &mut validate,
        )?;
        for f in verdict_faults(&panel.violations, &ALL, want.violating) {
            faults.push(format!("{}: {f}", want.path));
        }
        if events != want.events {
            faults.push(format!("{}: {events} events, expected {}", want.path, want.events));
        }
        verdicts.push(panel.violations);
        reset += panel.finish_trace(&mut totals, &ALL, 1);
        let busy = open + decode + validate + reset + totals.busy.iter().sum::<Duration>() - before;
        busy_sum += busy;
        busy_max = busy_max.max(busy);
    }

    let config = MultiConfig::default().jobs(JOBS);
    let started = Instant::now();
    let report = multi::check_corpus(&paths, par::standard_checkers, &config);
    let wall = started.elapsed();
    for (trace, want) in report.traces.iter().zip(&verdicts) {
        let got: Vec<Option<u64>> = trace
            .runs
            .iter()
            .map(|r| r.outcome.violation().map(|v| v.event.index() as u64))
            .collect();
        if got != want.to_vec() || trace.error.is_some() {
            faults.push(format!(
                "check_corpus {}: {got:?} != standalone {want:?}",
                trace.path.display()
            ));
        }
    }
    let workers = report.workers as u32;
    let trace_walls: Duration = report.traces.iter().map(|t| t.wall).sum();
    // Dynamic claiming: no schedule beats the even split of the summed
    // per-trace work, nor the longest single trace.
    let path_s = discover + (busy_sum / workers).max(busy_max);

    let mut out = Json::default();
    out.secs("tracelog.binfmt.open_s", open);
    out.secs("tracelog.binfmt.decode.busy_s", decode);
    out.secs("tracelog.validate.busy_s", validate);
    totals.emit(&mut out);
    out.secs("pipeline.multi.discover_s", discover);
    out.secs("pipeline.multi.reset.busy_s", reset);
    out.num("pipeline.multi.idle_s", (wall * workers).as_secs_f64() - trace_walls.as_secs_f64());
    out.secs("pipeline.multi.critical_path_s", path_s);
    out.secs("traced_wall_s", discover + wall);
    out.secs("path_s", path_s);
    out.int("events", expect.iter().map(|e| e.events).sum());
    Ok((out, faults))
}
