//! The workloads' inputs, generated from the seed, and the ground truth
//! the benchmark checks every verdict against.
//!
//! Setup writes the inputs under a work directory together with
//! `expect.tsv`, one line per trace: `path<TAB>kind<TAB>events<TAB>role`,
//! where `kind` is `violation` or `serializable` by construction (the
//! shapes are serializable, the generator's injected ρ2 pattern is not)
//! and `role` says which phase of the workload streams the trace. The
//! service pool additionally gets a `<path>.seal` file: the offline seal
//! of the trace that every SUMMARY the server sends must equal.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

use tracelog::binfmt::{self, DEFAULT_CHUNK_EVENTS};
use tracelog::stream::{copy_events, EventSource};
use workloads::corpus::{self, CorpusConfig};
use workloads::shapes::{self, ConvoySource};
use workloads::{GenConfig, GenSource};

use crate::timed::{Json, TimedSource};

/// `check-rbt`: one convoy trace, 8 threads.
pub const CHECK_EVENTS: usize = 4_000_000;
/// `compare-std`: one general-generator trace with a ρ2 violation at 90%.
pub const COMPARE_EVENTS: usize = 750_000;
/// `batch-corpus`: the corpus rotation, one generator trace in four
/// carrying an injected violation.
pub const CORPUS_TRACES: usize = 200;
pub const CORPUS_EVENTS: usize = 20_000;
/// `serve-online`: distinct convoy traces of the saturating phase.
pub const SAT_POOL: usize = 4;
pub const SAT_EVENTS: usize = 100_000;
/// `serve-online`: distinct nesting and violating generator traces of
/// the paced phase.
pub const NESTING_POOL: usize = 6;
pub const VIOLATING_POOL: usize = 2;
pub const PACED_EVENTS: usize = 50_000;

/// One line of `expect.tsv`.
pub struct Expect {
    pub path: String,
    pub violating: bool,
    pub events: u64,
    pub role: String,
}

/// A seed-derived sub-seed, so every trace of a workload differs.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams `source` into `path` (`.rbt` or `.std` by extension), timing
/// the generator's refills. Returns the events written.
fn write_trace(
    source: impl EventSource,
    path: &Path,
    gen_busy: &mut Duration,
) -> Result<u64, String> {
    let mut timed = TimedSource::new(source);
    let mut out =
        BufWriter::new(File::create(path).map_err(|e| format!("{}: {e}", path.display()))?);
    let written = if path.extension().is_some_and(|e| e == "rbt") {
        binfmt::write_binary(&mut timed, &mut out, DEFAULT_CHUNK_EVENTS)
    } else {
        copy_events(&mut timed, &mut out)
    };
    let n = written.map_err(|e| format!("{}: {e}", path.display()))?;
    out.flush().map_err(|e| format!("{}: {e}", path.display()))?;
    *gen_busy += timed.busy;
    Ok(n)
}

/// Generates `workload`'s inputs from `seed` into `dir` and records the
/// ground truth. Prints what it made as one JSON line.
pub fn setup(workload: &str, seed: u64, dir: &Path) -> Result<String, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut gen_busy = Duration::ZERO;
    let mut expect = Vec::new();
    let mut add = |rel: String, source: Box<dyn EventSource>, violating: bool, role: &str| {
        let events = write_trace(source, &dir.join(&rel), &mut gen_busy)?;
        expect.push(Expect { path: rel, violating, events, role: role.to_owned() });
        Ok::<(), String>(())
    };
    match workload {
        "check-rbt" => {
            let cfg = GenConfig {
                seed: mix(seed, 1),
                threads: 8,
                events: CHECK_EVENTS,
                ..GenConfig::default()
            };
            add("convoy.rbt".into(), Box::new(ConvoySource::new(&cfg)), false, "check")?;
        }
        "compare-std" => {
            let cfg = GenConfig {
                seed: mix(seed, 2),
                events: COMPARE_EVENTS,
                violation_at: Some(0.9),
                ..GenConfig::default()
            };
            add("gen.std".into(), Box::new(GenSource::new(&cfg)), true, "compare")?;
        }
        "batch-corpus" => {
            fs::create_dir_all(dir.join("corpus")).map_err(|e| e.to_string())?;
            let cfg = CorpusConfig {
                traces: CORPUS_TRACES,
                seed: mix(seed, 3),
                events: CORPUS_EVENTS,
                violation_every: 1,
                binary: true,
            };
            for entry in corpus::entries(&cfg) {
                let rel = format!("corpus/{}.rbt", entry.name);
                add(rel, entry.source(), entry.cfg.violation_at.is_some(), "batch")?;
            }
        }
        "serve-online" => {
            fs::create_dir_all(dir.join("pool")).map_err(|e| e.to_string())?;
            for i in 0..SAT_POOL {
                let cfg = GenConfig {
                    seed: mix(seed, 10 + i as u64),
                    threads: 8,
                    events: SAT_EVENTS,
                    ..GenConfig::default()
                };
                add(
                    format!("pool/convoy-{i}.rbt"),
                    Box::new(ConvoySource::new(&cfg)),
                    false,
                    "sat",
                )?;
            }
            for i in 0..NESTING_POOL {
                let cfg = GenConfig {
                    seed: mix(seed, 20 + i as u64),
                    threads: 8,
                    events: PACED_EVENTS,
                    ..GenConfig::default()
                };
                let source = shapes::source("nesting", &cfg).expect("nesting is a known shape");
                add(format!("pool/nesting-{i}.rbt"), source, false, "paced")?;
            }
            for i in 0..VIOLATING_POOL {
                // As `rapid loadgen` does: the violation a third of the way
                // in, so an online push has room to arrive before END.
                let cfg = GenConfig {
                    seed: mix(seed, 30 + i as u64),
                    events: PACED_EVENTS,
                    violation_at: Some(1.0 / 3.0),
                    ..GenConfig::default()
                };
                add(format!("pool/gen-{i}.rbt"), Box::new(GenSource::new(&cfg)), true, "paced")?;
            }
            for e in &expect {
                let path = dir.join(&e.path);
                let path = path.to_string_lossy();
                let seal = rapid_cli::compute_seal(&path, 2)?;
                let faults = crate::timed::verdict_faults(
                    &parse_seal(&seal)?,
                    &crate::timed::ALL,
                    e.violating,
                );
                if !faults.is_empty() {
                    return Err(format!(
                        "{path}: offline seal breaks the ground truth: {}",
                        faults.join("; ")
                    ));
                }
                fs::write(format!("{path}.seal"), seal).map_err(|e| format!("{path}.seal: {e}"))?;
            }
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    let mut tsv = String::new();
    for e in &expect {
        let kind = if e.violating { "violation" } else { "serializable" };
        tsv.push_str(&format!("{}\t{kind}\t{}\t{}\n", e.path, e.events, e.role));
    }
    fs::write(dir.join("expect.tsv"), tsv).map_err(|e| format!("expect.tsv: {e}"))?;

    let mut out = Json::default();
    out.secs("gen_busy_s", gen_busy);
    out.int("traces", expect.len() as u64);
    out.int("events", expect.iter().map(|e| e.events).sum());
    Ok(out.render())
}

/// Reads `expect.tsv` back.
pub fn read_expect(dir: &Path) -> Result<Vec<Expect>, String> {
    let path = dir.join("expect.tsv");
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                [path, kind, events, role] => Ok(Expect {
                    path: (*path).to_owned(),
                    violating: *kind == "violation",
                    events: events.parse().map_err(|e| format!("expect.tsv: {e}"))?,
                    role: (*role).to_owned(),
                }),
                _ => Err(format!("expect.tsv: bad line `{line}`")),
            }
        })
        .collect()
}

/// The per-checker verdicts of a `# rapid seal v1` text, in panel order.
pub fn parse_seal(seal: &str) -> Result<[Option<u64>; 4], String> {
    let mut out = [None; 4];
    let runs: Vec<&str> = seal.lines().skip(5).collect();
    if runs.len() != 4 {
        return Err(format!("seal has {} checker lines, expected 4", runs.len()));
    }
    for (slot, line) in out.iter_mut().zip(runs) {
        if let Some((_, at)) = line.split_once(": violation@") {
            *slot = Some(at.parse().map_err(|e| format!("seal line `{line}`: {e}"))?);
        }
    }
    Ok(out)
}
