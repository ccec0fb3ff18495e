//! Library backing the `rapid` binary — the command-line front end of
//! this reproduction, mirroring the workflow of the paper's Rapid
//! artifact (Appendix D): `metainfo`, `aerodrome` and `velodrome`
//! analyses over `.std` trace logs, plus workload generation and the
//! one-command reproduction of Tables 1 and 2.
//!
//! Every analysis runs on the streaming pipeline (`aerodrome_suite::
//! pipeline`): trace logs are parsed incrementally and fed through the
//! online well-formedness validator straight into the checker. The
//! single-pass analyses (`aerodrome`/`check`, `velodrome`) and
//! `metainfo`/`validate` run in constant memory even on
//! multi-million-event logs; `causal` inherently replays and therefore
//! materialises the trace, up to a fixed size limit. Validation is on
//! by default (ill-formed traces make verdicts meaningless) and can be
//! skipped with `--no-validate`; `rapid validate` runs the validator
//! alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::{Duration, Instant};

use aerodrome::basic::BasicChecker;
use aerodrome::optimized::OptimizedChecker;
use aerodrome::readopt::ReadOptChecker;
use aerodrome::{Checker, Outcome};
use aerodrome_suite::pipeline::multi::{self, MultiConfig};
use aerodrome_suite::pipeline::par::{self, CheckerRun, ParConfig, SendChecker};
use aerodrome_suite::pipeline::Pipeline;
use tracelog::binfmt::{self, AnySource, DEFAULT_CHUNK_EVENTS};
use tracelog::stream::{copy_events, EventBatch, EventSource, SourceNames, DEFAULT_BATCH_EVENTS};
use tracelog::{MetaInfo, SourceError, Trace, Validator, ValiditySummary};
use velodrome::{Config, VelodromeChecker};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `rapid metainfo <trace.std> [--batch N]` — trace statistics
    /// (Tables 1–2 columns 2–6).
    MetaInfo {
        /// Path of the trace log.
        path: String,
        /// Events per ingest batch; `None` uses the default (~4096).
        batch: Option<usize>,
    },
    /// `rapid aerodrome <trace.std> [--algorithm basic|readopt|optimized]
    /// [--batch N] [--no-validate]` (alias: `rapid check`).
    Aerodrome {
        /// Path of the trace log.
        path: String,
        /// Which AeroDrome variant to run.
        algorithm: Algorithm,
        /// Run the streaming well-formedness pre-pass (default true).
        validate: bool,
        /// Events per ingest batch; `None` uses the default (~4096).
        batch: Option<usize>,
    },
    /// `rapid velodrome <trace.std> [--no-gc] [--batch N]
    /// [--no-validate]`.
    Velodrome {
        /// Path of the trace log.
        path: String,
        /// Baseline configuration.
        config: Config,
        /// Run the streaming well-formedness pre-pass (default true).
        validate: bool,
        /// Events per ingest batch; `None` uses the default (~4096).
        batch: Option<usize>,
    },
    /// `rapid compare <trace> [--jobs N] [--batch N] [--no-validate]` —
    /// one parse pass fanned out to every checker variant in parallel.
    Compare {
        /// Path of the trace log (`.std` or `.rbt`, sniffed by magic).
        path: String,
        /// Worker threads (`0` = one per available CPU).
        jobs: usize,
        /// Events per batch; `None` uses the default (~4096).
        batch: Option<usize>,
        /// Run the streaming well-formedness pre-pass (default true).
        validate: bool,
    },
    /// `rapid validate <trace.std> [--batch N]` — the streaming
    /// well-formedness check alone (exit 1 on the first ill-formed
    /// event).
    Validate {
        /// Path of the trace log.
        path: String,
        /// Events per ingest batch; `None` uses the default (~4096).
        batch: Option<usize>,
    },
    /// `rapid batch <dir|manifest|trace.std> [--jobs N] [--batch N]
    /// [--checker NAME] [--seal-verify] [--no-validate]` — the resident
    /// multi-trace runtime: every discovered trace checked through
    /// reusable worker sessions.
    Batch {
        /// Corpus root: a directory (walked for `*.std`), a manifest
        /// file (one trace path per line) or a single trace log.
        path: String,
        /// Resident workers (`0` = one per available CPU).
        jobs: usize,
        /// Events per ingest batch; `None` uses the default (~4096).
        batch: Option<usize>,
        /// Which checkers each worker runs (default: the full panel).
        checker: CheckerChoice,
        /// Verify each trace's verdicts against its `.expect` sidecar;
        /// sealed violations are then *expected*, and only mismatches
        /// (or missing sidecars) fail the run.
        seal_verify: bool,
        /// Run the streaming well-formedness pre-pass (default true).
        validate: bool,
    },
    /// `rapid generate <out.std> [--events N] [--threads N] [--seed N]
    /// [--violation-at F] [--retention] [--profile NAME] [--seal]
    /// [--corpus N] [--batch N]` where NAME is a Table 1/2 row or one of
    /// the shapes `convoy`/`fanout`/`nesting`. With `--corpus N` the
    /// path is a directory receiving N varied traces plus a manifest.
    Generate {
        /// Output path (a directory with `--corpus`).
        path: String,
        /// Generator configuration (defaults merged with the flags).
        cfg: Box<workloads::GenConfig>,
        /// Profile name: a Table 1/2 row (its config is the base, with
        /// explicitly given flags applied on top) or a shape
        /// (`convoy`/`fanout`/`nesting`, which read `cfg` directly).
        profile: Option<String>,
        /// Which flags were given explicitly on the command line.
        overrides: GenOverrides,
        /// Write a `<out>.expect` sidecar with the reference verdicts
        /// of every checker (one extra parallel pass over the log).
        seal: bool,
        /// Worker threads for the `--seal` pass (`0` = auto).
        jobs: usize,
        /// Emit a whole corpus of this many varied traces instead of one
        /// log (honours `--events` per trace and `--seed`).
        corpus: Option<usize>,
        /// Events per ingest batch for the `--seal` re-read pass.
        batch: Option<usize>,
        /// On-disk encoding of the written log(s) (`--out-format`).
        out_format: OutFormat,
    },
    /// `rapid convert <in> <out> [--chunk-events N]` — transcode a trace
    /// between the text `.std` and binary `.rbt` encodings. The input
    /// encoding is sniffed by magic; the output encoding follows the
    /// output path's extension (`.rbt` = binary, anything else = text).
    /// `.std` → `.rbt` → `.std` round-trips byte-exactly.
    Convert {
        /// Input trace (either encoding).
        input: String,
        /// Output path; its extension selects the encoding.
        output: String,
        /// Events per binary chunk (default 65536); ignored for text
        /// output.
        chunk_events: Option<u32>,
    },
    /// `rapid table1 [--budget SECS]` / `rapid table2 [--budget SECS]`.
    Table {
        /// 1 or 2.
        which: u8,
        /// Per-run wall-clock budget.
        budget: Duration,
    },
    /// `rapid causal <trace.std> [--batch N] [--no-validate]` —
    /// per-transaction causal atomicity (oracle-based; quadratic, for
    /// small traces).
    Causal {
        /// Path of the trace log.
        path: String,
        /// Run the streaming well-formedness pre-pass (default true).
        validate: bool,
        /// Events per ingest batch; `None` uses the default (~4096).
        batch: Option<usize>,
    },
    /// `rapid explore <builtin|program> [--max-schedules N] [--samples N]
    /// [--seed N] [--out DIR] [--jobs N]` — deterministic schedule
    /// exploration of a thread program, every schedule refereed
    /// differentially; violating schedules are minimised to reproducers.
    Explore {
        /// Builtin scenario name (see `rapid help`) or path of a
        /// program file in the scenario DSL.
        program: String,
        /// DFS schedule budget (sampling kicks in past it).
        max_schedules: usize,
        /// Seeded random schedules drawn when the budget truncates.
        samples: usize,
        /// Seed of the sampling walk.
        seed: u64,
        /// Write reproducers (`*.std` + sealed `.expect` sidecars) here.
        out: Option<String>,
        /// Worker threads for the sealing pass (`0` = auto).
        jobs: usize,
    },
    /// `rapid fuzz <trace.std> [--mutants N] [--seed N] [--out DIR]
    /// [--jobs N]` — seeded trace-mutation differential fuzzing: every
    /// well-formed mutant must keep the whole checker panel (pooled,
    /// cloned twins, Velodrome, oracle) in agreement.
    Fuzz {
        /// Path of the trace log to mutate.
        path: String,
        /// Mutation attempts.
        mutants: usize,
        /// Seed of the mutation stream.
        seed: u64,
        /// Write a sample mutant (and any minimised mismatch) here.
        out: Option<String>,
        /// Worker threads for the sealing pass (`0` = auto).
        jobs: usize,
    },
    /// `rapid serve [--addr HOST:PORT] [--jobs N] [--batch N]
    /// [--max-retained-bytes B] [--no-validate]` — the long-lived
    /// checking service: each TCP connection is a live trace session
    /// with verdicts pushed mid-stream.
    Serve {
        /// Bind address (default `127.0.0.1:7447`; port 0 = ephemeral).
        addr: String,
        /// Server configuration assembled from the flags.
        config: serve::ServeConfig,
    },
    /// `rapid loadgen [--addr HOST:PORT] [--connections N]
    /// [--events-per-sec R] [--shape convoy|fanout|nesting]
    /// [--events N] [--traces N] [--seed N] [--batch N]` — the
    /// closed-loop load generator for a running `rapid serve`.
    Loadgen {
        /// Load parameters assembled from the flags.
        config: Box<serve::LoadConfig>,
    },
    /// `rapid help`.
    Help,
}

/// On-disk trace encoding selector (`rapid generate --out-format`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OutFormat {
    /// The line-based RAPID `.std` text format (default).
    #[default]
    Std,
    /// The compact binary `.rbt` format (`docs/TRACE_FORMAT.md`).
    Rbt,
}

impl OutFormat {
    /// Parses an `--out-format` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "std" => Some(Self::Std),
            "rbt" => Some(Self::Rbt),
            _ => None,
        }
    }
}

/// AeroDrome variant selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Algorithm 1.
    Basic,
    /// Algorithm 2.
    ReadOpt,
    /// Algorithm 3 (default; the variant the paper evaluates).
    #[default]
    Optimized,
}

/// Which checkers a `rapid batch` worker session runs per trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CheckerChoice {
    /// The full panel: all three AeroDrome variants plus Velodrome —
    /// what `rapid compare` runs, and what seal sidecars record.
    #[default]
    All,
    /// Algorithm 1 only.
    Basic,
    /// Algorithm 2 only.
    ReadOpt,
    /// Algorithm 3 only.
    Optimized,
    /// The Velodrome baseline only.
    Velodrome,
}

impl CheckerChoice {
    /// Parses a `--checker` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "all" => Some(Self::All),
            "basic" => Some(Self::Basic),
            "readopt" => Some(Self::ReadOpt),
            "optimized" | "aerodrome" => Some(Self::Optimized),
            "velodrome" => Some(Self::Velodrome),
            _ => None,
        }
    }

    /// Constructs one resident worker's checker panel.
    #[must_use]
    pub fn panel(self) -> Vec<SendChecker> {
        match self {
            Self::All => par::standard_checkers(),
            Self::Basic => vec![Box::new(BasicChecker::new())],
            Self::ReadOpt => vec![Box::new(ReadOptChecker::new())],
            Self::Optimized => vec![Box::new(OptimizedChecker::new())],
            Self::Velodrome => vec![Box::new(VelodromeChecker::new())],
        }
    }
}

/// Generator flags given explicitly on the `rapid generate` command
/// line. When `--profile` names a Table 1/2 row, the profile's config is
/// the base and these are applied on top, so `--events`/`--seed`/… mean
/// the same thing with and without a profile.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct GenOverrides {
    /// `--events N`.
    pub events: Option<usize>,
    /// `--threads N`.
    pub threads: Option<usize>,
    /// `--vars N`.
    pub vars: Option<usize>,
    /// `--locks N`.
    pub locks: Option<usize>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--violation-at F`.
    pub violation_at: Option<f64>,
    /// `--retention`.
    pub retention: bool,
}

impl GenOverrides {
    /// Applies the explicitly given flags on top of `cfg`.
    #[must_use]
    pub fn apply(&self, mut cfg: workloads::GenConfig) -> workloads::GenConfig {
        if let Some(events) = self.events {
            cfg.events = events;
        }
        if let Some(threads) = self.threads {
            cfg.threads = threads;
        }
        if let Some(vars) = self.vars {
            cfg.vars = vars;
        }
        if let Some(locks) = self.locks {
            cfg.locks = locks;
        }
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(at) = self.violation_at {
            cfg.violation_at = Some(at);
        }
        if self.retention {
            cfg.retention = true;
        }
        cfg
    }
}

/// Largest trace `rapid causal` accepts: its oracle is quadratic in the
/// events, and the trace is held in memory.
const CAUSAL_EVENT_LIMIT: usize = 20_000;

/// Usage text.
pub const USAGE: &str = "\
rapid — atomicity checking on trace logs (AeroDrome reproduction)

USAGE:
    rapid metainfo  <trace.std> [--batch N]
    rapid aerodrome <trace.std> [--algorithm basic|readopt|optimized]
                    [--batch N] [--no-validate]   (alias: rapid check)
    rapid velodrome <trace.std> [--no-gc] [--batch N] [--no-validate]
    rapid compare   <trace.std> [--jobs N] [--batch N] [--no-validate]
    rapid batch     <dir|manifest|trace.std> [--jobs N] [--batch N]
                    [--checker all|basic|readopt|optimized|velodrome]
                    [--seal-verify] [--no-validate]
    rapid validate  <trace.std> [--batch N]
    rapid convert   <in> <out> [--chunk-events N]
    rapid generate  <out.std> [--profile NAME|convoy|fanout|nesting]
                    [--events N]
                    [--threads N] [--vars N] [--locks N] [--seed N]
                    [--violation-at F] [--retention]
                    [--seal] [--jobs N] [--batch N] [--out-format std|rbt]
    rapid generate  <dir> --corpus N [--events N] [--seed N]
                    [--seal] [--jobs N] [--out-format std|rbt]
    rapid table1    [--budget SECS]
    rapid table2    [--budget SECS]
    rapid causal    <trace.std> [--batch N] [--no-validate]
    rapid explore   <builtin|program> [--max-schedules N] [--samples N]
                    [--seed N] [--out DIR] [--jobs N]
    rapid fuzz      <trace.std> [--mutants N] [--seed N] [--out DIR]
                    [--jobs N]
    rapid serve     [--addr HOST:PORT] [--jobs N] [--batch N]
                    [--max-retained-bytes B] [--no-validate]
    rapid loadgen   [--addr HOST:PORT] [--connections N]
                    [--events-per-sec R] [--shape convoy|fanout|nesting]
                    [--events N] [--traces N] [--seed N] [--batch N]
    rapid help

Trace logs use the RAPID .std format: `<thread>|<op>|<loc>` per line with
op ∈ r(x) w(x) acq(l) rel(l) fork(t) join(t) begin end — or the compact
binary .rbt format (docs/TRACE_FORMAT.md): fixed-width 9-byte records
with interned ids, mmap-ingested zero-copy. EVERY ingesting subcommand
accepts either encoding, sniffed by file magic (the extension is only a
convention); `rapid convert` transcodes between them both ways, and the
`.std` -> `.rbt` -> `.std` round-trip is byte-exact. `.expect` seal
sidecars record identical text for both encodings of a trace.

`--batch N` is uniform across every event-ingesting subcommand: events
pulled per parser refill (default ~4096). It never changes verdicts,
only call granularity.

Checker analyses (aerodrome/check, velodrome, compare, batch, causal)
stream the log through an incremental parser and, by default,
the Section 2 well-formedness validator (`--no-validate` skips it);
`metainfo` is pure statistics and never validates. aerodrome/check,
velodrome, compare and batch run in constant memory regardless of trace
size; causal replays and so holds the whole trace in memory, refusing
traces over 20000 events.
`compare` parses the log ONCE and fans the events out to all three
AeroDrome variants plus Velodrome on `--jobs` worker threads (default:
one per CPU), printing a per-checker verdict table. `batch` checks a
whole CORPUS — a directory walked for *.std, a manifest listing one
trace per line, or a single log — through resident worker sessions
(checkers, parser and validator constructed once per worker, reused
trace to trace); exit is non-zero on any violation, ingest error or
seal mismatch. With `--seal-verify`, each trace's verdicts are diffed
against its `<trace>.std.expect` sidecar instead: sealed violations are
expected, and only mismatches or missing sidecars fail. `generate`
streams events straight to the output file and accepts any Table 1/2
profile name plus the extra shapes `convoy`, `fanout` and `nesting`
(explicit flags override a profile's config; the shapes reject the
flags they cannot honour); `--seal` re-reads the written log and
records every checker's verdict in an `<out>.std.expect` sidecar for
use as a persisted reference log. `generate <dir> --corpus N` writes N
varied traces (generator + all shapes, violations injected into some)
plus a manifest.txt — the input `rapid batch` expects.

`explore` enumerates the interleavings of a small thread program with a
deterministic cooperative scheduler — exhaustively with sleep-set
(DPOR-style) pruning within `--max-schedules`, then `--samples` seeded
random schedules past the budget — and referees every schedule against
the full differential panel (pooled + cloned AeroDrome engines,
Velodrome, the quadratic oracle). The program is a builtin scenario —
racy-pair, guarded-pair, rho2-hidden, deadlock, fork-chain — or a DSL
file (`thread NAME: r(x) w(x) acq(l) rel(l) begin end spawn(t)
join(t)`, `#` comments). The first violating schedule is minimised to
a small reproducer; with `--out DIR` the reproducers (serial schedule,
minimised violation, deadlock prefix — whichever exist) are written as
`.std` logs with sealed `.expect` sidecars, ready for `rapid batch
--seal-verify`. Exit is non-zero only on a differential mismatch —
finding violations is the point. `fuzz` applies `--mutants` seeded
structural mutations (swap, splice, drop, duplicate) to a recorded
trace; well-formed mutants must keep the whole panel in agreement,
ill-formed ones must be rejected by the validator. Any disagreement is
minimised, written under `--out`, and fails the run.

`serve` turns the resident runtime into a long-lived TCP service: each
connection is one live trace session streaming the wire protocol of
docs/SERVICE.md, checked by a resident worker panel with verdicts
PUSHED mid-stream (not at end of trace) and bit-identical to `rapid
check` on the same events. `--jobs` bounds the resident workers,
`--max-retained-bytes` caps warm clock memory across all sessions (LRU
eviction; 0 disables). `loadgen` is its closed-loop benchmark driver:
`--connections` concurrent sessions each stream `--traces` traces of
`--events` events (shape `convoy|fanout|nesting`; every 4th trace
carries an injected violation so pushes are exercised), optionally
paced at `--events-per-sec` per connection, reporting throughput and
p50/p99 verdict latency.

`--jobs N` is uniform across every parallel subcommand: worker threads,
defaulting to one per available CPU when omitted; an explicit `--jobs
0` is rejected.";

/// Errors from command-line parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

fn flag_value<'a>(args: &'a [String], i: &mut usize, name: &str) -> Result<&'a str, UsageError> {
    *i += 1;
    args.get(*i).map(String::as_str).ok_or_else(|| UsageError(format!("{name} requires a value")))
}

/// Parses a flag's numeric value (`--flag N`).
fn num_flag<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    name: &str,
) -> Result<T, UsageError>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, i, name)?.parse().map_err(|e| UsageError(format!("{name}: {e}")))
}

/// The **uniform** `--batch <events>` flag: events per ingest batch,
/// shared by every subcommand that ingests events (one parser, one
/// default — [`tracelog::stream::DEFAULT_BATCH_EVENTS`] when absent).
fn batch_flag(args: &[String], i: &mut usize) -> Result<usize, UsageError> {
    positive_flag(args, i, "--batch")
}

/// The **uniform** `--jobs <workers>` flag: worker threads, shared by
/// every parallel subcommand. Omitting the flag means one worker per
/// available CPU (`0` internally); an *explicit* `--jobs 0` is a
/// contradiction and is rejected rather than silently remapped.
fn jobs_flag(args: &[String], i: &mut usize) -> Result<usize, UsageError> {
    let n: usize = num_flag(args, i, "--jobs")?;
    if n == 0 {
        return Err(UsageError(
            "--jobs must be positive (omit the flag for one worker per CPU)".into(),
        ));
    }
    Ok(n)
}

/// Parses a flag that takes a positive count (`--flag N`, `N ≥ 1`).
fn positive_flag(args: &[String], i: &mut usize, name: &str) -> Result<usize, UsageError> {
    let n: usize = num_flag(args, i, name)?;
    if n == 0 {
        return Err(UsageError(format!("{name} must be positive")));
    }
    Ok(n)
}

/// Parses `args` (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "metainfo" => {
            let path = args
                .get(1)
                .ok_or_else(|| UsageError("metainfo requires a trace path".into()))?
                .clone();
            let mut batch = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--batch" => batch = Some(batch_flag(args, &mut i)?),
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::MetaInfo { path, batch })
        }
        "aerodrome" | "check" => {
            let path = args
                .get(1)
                .ok_or_else(|| UsageError(format!("{cmd} requires a trace path")))?
                .clone();
            let mut algorithm = Algorithm::default();
            let mut validate = true;
            let mut batch = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--algorithm" => {
                        algorithm = match flag_value(args, &mut i, "--algorithm")? {
                            "basic" => Algorithm::Basic,
                            "readopt" => Algorithm::ReadOpt,
                            "optimized" => Algorithm::Optimized,
                            other => {
                                return Err(UsageError(format!("unknown algorithm `{other}`")))
                            }
                        };
                    }
                    "--batch" => batch = Some(batch_flag(args, &mut i)?),
                    "--no-validate" => validate = false,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Aerodrome { path, algorithm, validate, batch })
        }
        "velodrome" => {
            let path = args
                .get(1)
                .ok_or_else(|| UsageError("velodrome requires a trace path".into()))?
                .clone();
            let mut config = Config::default();
            let mut validate = true;
            let mut batch = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--no-gc" => config.gc = false,
                    "--batch" => batch = Some(batch_flag(args, &mut i)?),
                    "--no-validate" => validate = false,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Velodrome { path, config, validate, batch })
        }
        "compare" => {
            let path = args
                .get(1)
                .ok_or_else(|| UsageError("compare requires a trace path".into()))?
                .clone();
            let mut jobs = 0usize;
            let mut batch = None;
            let mut validate = true;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--jobs" => jobs = jobs_flag(args, &mut i)?,
                    "--batch" => batch = Some(batch_flag(args, &mut i)?),
                    "--no-validate" => validate = false,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Compare { path, jobs, batch, validate })
        }
        "convert" => {
            let input = args
                .get(1)
                .ok_or_else(|| UsageError("convert requires an input trace path".into()))?
                .clone();
            let output = args
                .get(2)
                .ok_or_else(|| UsageError("convert requires an output path".into()))?
                .clone();
            let mut chunk_events = None;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--chunk-events" => {
                        let n: u32 = num_flag(args, &mut i, "--chunk-events")?;
                        if n == 0 {
                            return Err(UsageError("--chunk-events must be positive".into()));
                        }
                        chunk_events = Some(n);
                    }
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Convert { input, output, chunk_events })
        }
        "validate" => {
            let path = args
                .get(1)
                .ok_or_else(|| UsageError("validate requires a trace path".into()))?
                .clone();
            let mut batch = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--batch" => batch = Some(batch_flag(args, &mut i)?),
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Validate { path, batch })
        }
        "batch" => {
            let path = args
                .get(1)
                .ok_or_else(|| {
                    UsageError("batch requires a corpus path (directory, manifest or trace)".into())
                })?
                .clone();
            let mut jobs = 0usize;
            let mut batch = None;
            let mut checker = CheckerChoice::default();
            let mut seal_verify = false;
            let mut validate = true;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--jobs" => jobs = jobs_flag(args, &mut i)?,
                    "--batch" => batch = Some(batch_flag(args, &mut i)?),
                    "--checker" => {
                        let name = flag_value(args, &mut i, "--checker")?;
                        checker = CheckerChoice::parse(name)
                            .ok_or_else(|| UsageError(format!("unknown checker `{name}`")))?;
                    }
                    "--seal-verify" => seal_verify = true,
                    "--no-validate" => validate = false,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            if seal_verify && checker != CheckerChoice::All {
                return Err(UsageError(
                    "--seal-verify needs the sealed panel: drop --checker (or use --checker all)"
                        .into(),
                ));
            }
            Ok(Command::Batch { path, jobs, batch, checker, seal_verify, validate })
        }
        "generate" => {
            let path = args
                .get(1)
                .ok_or_else(|| UsageError("generate requires an output path".into()))?
                .clone();
            let mut overrides = GenOverrides::default();
            let mut profile = None;
            let mut seal = false;
            let mut jobs = 0usize;
            let mut corpus = None;
            let mut batch = None;
            let mut out_format = OutFormat::default();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--seal" => seal = true,
                    "--jobs" => jobs = jobs_flag(args, &mut i)?,
                    "--batch" => batch = Some(batch_flag(args, &mut i)?),
                    "--corpus" => corpus = Some(positive_flag(args, &mut i, "--corpus")?),
                    "--out-format" => {
                        let name = flag_value(args, &mut i, "--out-format")?;
                        out_format = OutFormat::parse(name)
                            .ok_or_else(|| UsageError(format!("unknown out-format `{name}`")))?;
                    }
                    "--profile" => {
                        profile = Some(flag_value(args, &mut i, "--profile")?.to_owned())
                    }
                    "--events" => overrides.events = Some(positive_flag(args, &mut i, "--events")?),
                    "--threads" => {
                        overrides.threads = Some(positive_flag(args, &mut i, "--threads")?);
                    }
                    "--vars" => overrides.vars = Some(num_flag(args, &mut i, "--vars")?),
                    "--locks" => overrides.locks = Some(positive_flag(args, &mut i, "--locks")?),
                    "--seed" => overrides.seed = Some(num_flag(args, &mut i, "--seed")?),
                    "--violation-at" => {
                        overrides.violation_at = Some(num_flag(args, &mut i, "--violation-at")?);
                    }
                    "--retention" => overrides.retention = true,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            if corpus.is_some() {
                // The corpus generator varies shapes and knobs itself.
                for (given, flag) in [
                    (profile.is_some(), "--profile"),
                    (overrides.threads.is_some(), "--threads"),
                    (overrides.vars.is_some(), "--vars"),
                    (overrides.locks.is_some(), "--locks"),
                    (overrides.violation_at.is_some(), "--violation-at"),
                    (overrides.retention, "--retention"),
                ] {
                    if given {
                        return Err(UsageError(format!("{flag} cannot be combined with --corpus")));
                    }
                }
            }
            let cfg = overrides.apply(workloads::GenConfig::default());
            Ok(Command::Generate {
                path,
                cfg: Box::new(cfg),
                profile,
                overrides,
                seal,
                jobs,
                corpus,
                batch,
                out_format,
            })
        }
        "table1" | "table2" => {
            let which = if cmd == "table1" { 1 } else { 2 };
            let mut budget = Duration::from_secs(5);
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--budget" => {
                        budget = Duration::from_secs(num_flag(args, &mut i, "--budget")?);
                    }
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Table { which, budget })
        }
        "causal" => {
            let path = args
                .get(1)
                .ok_or_else(|| UsageError("causal requires a trace path".into()))?
                .clone();
            let mut validate = true;
            let mut batch = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--batch" => batch = Some(batch_flag(args, &mut i)?),
                    "--no-validate" => validate = false,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Causal { path, validate, batch })
        }
        "explore" => {
            let program = args
                .get(1)
                .ok_or_else(|| {
                    UsageError("explore requires a builtin name or program file".into())
                })?
                .clone();
            let mut max_schedules = 1_000usize;
            let mut samples = 256usize;
            let mut seed = 0u64;
            let mut out = None;
            let mut jobs = 0usize;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--max-schedules" => {
                        max_schedules = positive_flag(args, &mut i, "--max-schedules")?;
                    }
                    "--samples" => samples = num_flag(args, &mut i, "--samples")?,
                    "--seed" => seed = num_flag(args, &mut i, "--seed")?,
                    "--out" => out = Some(flag_value(args, &mut i, "--out")?.to_owned()),
                    "--jobs" => jobs = jobs_flag(args, &mut i)?,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Explore { program, max_schedules, samples, seed, out, jobs })
        }
        "fuzz" => {
            let path =
                args.get(1).ok_or_else(|| UsageError("fuzz requires a trace path".into()))?.clone();
            let mut mutants = 1_000usize;
            let mut seed = 0u64;
            let mut out = None;
            let mut jobs = 0usize;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--mutants" => mutants = positive_flag(args, &mut i, "--mutants")?,
                    "--seed" => seed = num_flag(args, &mut i, "--seed")?,
                    "--out" => out = Some(flag_value(args, &mut i, "--out")?.to_owned()),
                    "--jobs" => jobs = jobs_flag(args, &mut i)?,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Fuzz { path, mutants, seed, out, jobs })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7447".to_owned();
            let mut config = serve::ServeConfig::default();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--addr" => addr = flag_value(args, &mut i, "--addr")?.to_owned(),
                    "--jobs" => config.jobs = jobs_flag(args, &mut i)?,
                    "--batch" => config.batch_events = batch_flag(args, &mut i)?,
                    "--max-retained-bytes" => {
                        // 0 is meaningful here: it disables eviction.
                        config.max_retained_bytes = num_flag(args, &mut i, "--max-retained-bytes")?;
                    }
                    "--no-validate" => config.validate = false,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Serve { addr, config })
        }
        "loadgen" => {
            let mut config =
                serve::LoadConfig { addr: "127.0.0.1:7447".to_owned(), ..Default::default() };
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--addr" => config.addr = flag_value(args, &mut i, "--addr")?.to_owned(),
                    "--connections" => {
                        config.connections = positive_flag(args, &mut i, "--connections")?;
                    }
                    "--events-per-sec" => {
                        let rate: f64 = num_flag(args, &mut i, "--events-per-sec")?;
                        if !rate.is_finite() || rate < 0.0 {
                            return Err(UsageError(
                                "--events-per-sec must be finite and non-negative \
                                 (0 = unpaced)"
                                    .into(),
                            ));
                        }
                        config.events_per_sec = rate;
                    }
                    "--shape" => config.shape = flag_value(args, &mut i, "--shape")?.to_owned(),
                    "--events" => {
                        config.events_per_trace = positive_flag(args, &mut i, "--events")?;
                    }
                    "--traces" => {
                        config.traces_per_connection = positive_flag(args, &mut i, "--traces")?;
                    }
                    "--seed" => config.seed = num_flag(args, &mut i, "--seed")?,
                    "--batch" => config.batch_events = batch_flag(args, &mut i)?,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Loadgen { config: Box::new(config) })
        }
        other => Err(UsageError(format!("unknown command `{other}` (try `rapid help`)"))),
    }
}

/// Opens a trace log as a streaming source, sniffing the on-disk
/// encoding by file magic: the binary `.rbt` container opens the
/// mmap-backed reader, anything else streams through the `.std` text
/// parser. Every ingesting subcommand goes through here, so both
/// encodings work everywhere.
pub fn open_source(path: &str) -> Result<AnySource, String> {
    AnySource::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// Loads and parses a trace log into memory (the analyses that
/// need random access; everything else streams).
pub fn load_trace(path: &str) -> Result<Trace, String> {
    let mut source = open_source(path)?;
    tracelog::stream::collect_trace(&mut source).map_err(|e| format!("{path}: {e}"))
}

/// Formats a pipeline error with the offending position in the source.
/// The pipelines batch ahead of validation, so the source's *current*
/// position may be past the ill-formed event; `position_of` recovers the
/// event's own line (text) or record + chunk (binary) from the
/// attribution window.
fn source_err<S: EventSource + ?Sized>(path: &str, source: &S, e: &SourceError) -> String {
    match e {
        SourceError::Malformed(err) => {
            let position =
                source.position_of(err.event()).map_or_else(String::new, |p| format!("{p}: "));
            format!(
                "{path}: {position}not well-formed: {err} (use --no-validate to analyse anyway)"
            )
        }
        other => format!("{path}: {other}"),
    }
}

/// Renders a checker outcome the way the artifact's scripts do, plus the
/// validator's residue when one ran.
#[must_use]
pub fn report_outcome(
    name: &str,
    outcome: &Outcome,
    names: &SourceNames<'_>,
    events: u64,
    summary: Option<&ValiditySummary>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "analysis: {name}");
    let _ = writeln!(out, "events processed: {events}");
    match outcome {
        Outcome::Serializable => {
            let _ = writeln!(out, "verdict: ✓ no conflict-serializability violation detected");
        }
        Outcome::Violation(v) => {
            let _ = writeln!(out, "verdict: ✗ {}", v.display_with_names(names));
        }
    }
    if let Some(s) = summary {
        if !s.is_closed() && !outcome.is_violation() {
            let _ = writeln!(
                out,
                "note: trace is a prefix ({} open transaction(s), {} held lock(s))",
                s.open_transactions.len(),
                s.held_locks.len()
            );
        }
    }
    out
}

/// Path of the reference-verdict sidecar sealed next to `path`.
#[must_use]
pub fn seal_sidecar_path(path: &str) -> String {
    format!("{path}.expect")
}

/// Renders the canonical sealed-reference text from a finished run's
/// ingredients — shared by [`compute_seal`] (one `rapid compare`-style
/// pass) and the `rapid batch --seal-verify` path (which reuses the
/// verdicts the resident run already produced instead of re-checking).
#[must_use]
pub fn seal_text(
    events: u64,
    threads: usize,
    locks: usize,
    vars: usize,
    runs: &[CheckerRun],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# rapid seal v1");
    let _ = writeln!(out, "events: {events}");
    let _ = writeln!(out, "threads: {threads}");
    let _ = writeln!(out, "locks: {locks}");
    let _ = writeln!(out, "vars: {vars}");
    for run in runs {
        match run.outcome.violation() {
            None => {
                let _ = writeln!(out, "{}: serializable", run.name);
            }
            Some(v) => {
                let _ = writeln!(out, "{}: violation@{}", run.name, v.event.index());
            }
        }
    }
    out
}

/// Computes the canonical sealed-reference text for a `.std` log: one
/// parallel pass of every checker, rendered as stable `key: value`
/// lines. `rapid generate --seal` writes this next to the log; the
/// sealed-log tests recompute it and diff.
///
/// # Errors
///
/// Propagates open/parse/validation failures as display strings.
pub fn compute_seal(path: &str, jobs: usize) -> Result<String, String> {
    compute_seal_with(path, jobs, None)
}

/// [`compute_seal`] with an explicit ingest batch size (the uniform
/// `--batch` knob; `None` = default).
///
/// # Errors
///
/// Propagates open/parse/validation failures as display strings.
pub fn compute_seal_with(path: &str, jobs: usize, batch: Option<usize>) -> Result<String, String> {
    let mut source = open_source(path)?;
    let mut config = ParConfig::default().jobs(jobs);
    if let Some(b) = batch {
        config = config.batch_events(b);
    }
    let report = par::check_all(&mut source, par::standard_checkers(), &config)
        .map_err(|e| source_err(path, &source, &e))?;
    let names = source.names();
    Ok(seal_text(
        report.events,
        names.threads.len(),
        names.locks.len(),
        names.vars.len(),
        &report.runs,
    ))
}

/// Seals `path`: writes the [`compute_seal`] text to the sidecar.
///
/// # Errors
///
/// Propagates checking and write failures as display strings.
pub fn write_seal(path: &str, jobs: usize) -> Result<String, String> {
    write_seal_with(path, jobs, None)
}

/// [`write_seal`] with an explicit ingest batch size.
///
/// # Errors
///
/// Propagates checking and write failures as display strings.
pub fn write_seal_with(path: &str, jobs: usize, batch: Option<usize>) -> Result<String, String> {
    let text = compute_seal_with(path, jobs, batch)?;
    let sidecar = seal_sidecar_path(path);
    std::fs::write(&sidecar, &text).map_err(|e| format!("{sidecar}: {e}"))?;
    Ok(text)
}

/// Resolves `rapid explore`'s program argument: a builtin scenario name
/// first, then a DSL program file.
fn resolve_program(arg: &str) -> Result<scenarios::Program, String> {
    if let Some(program) = scenarios::builtin(arg) {
        return Ok(program);
    }
    let builtins: Vec<&str> = scenarios::BUILTINS.iter().map(|(n, _, _)| *n).collect();
    let text = std::fs::read_to_string(arg).map_err(|e| {
        format!(
            "{arg}: not a builtin scenario ({}) and not a readable file: {e}",
            builtins.join(", ")
        )
    })?;
    let name = Path::new(arg)
        .file_stem()
        .map_or_else(|| "program".to_owned(), |s| s.to_string_lossy().into_owned());
    scenarios::parse_program(&name, &text).map_err(|e| format!("{arg}: {e}"))
}

/// Writes `trace` as `dir/file` in `.std` format and seals a reference
/// sidecar next to it (the seal pass re-reads the file through the
/// production parser, so the artefact is verified end to end).
fn write_sealed_std(dir: &str, file: &str, trace: &Trace, jobs: usize) -> Result<String, String> {
    let path = Path::new(dir).join(file).to_string_lossy().into_owned();
    std::fs::write(&path, tracelog::write_trace(trace)).map_err(|e| format!("{path}: {e}"))?;
    write_seal_with(&path, jobs, None)?;
    Ok(path)
}

/// Verifies a sealed log: recomputes the reference text and diffs it
/// against the sidecar.
///
/// # Errors
///
/// Reports a missing sidecar, a checking failure, or a mismatch (with
/// both texts inline) as a display string.
pub fn verify_seal(path: &str, jobs: usize) -> Result<(), String> {
    let sidecar = seal_sidecar_path(path);
    let sealed = std::fs::read_to_string(&sidecar).map_err(|e| format!("{sidecar}: {e}"))?;
    let fresh = compute_seal(path, jobs)?;
    if sealed == fresh {
        Ok(())
    } else {
        Err(format!("{path}: sealed verdicts diverge\n--- sealed\n{sealed}--- fresh\n{fresh}"))
    }
}

/// Executes a parsed command, returning the text to print.
pub fn run(command: Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(USAGE.to_owned()),
        Command::MetaInfo { path, batch } => {
            // Pure statistics, computed in one streaming (batched) pass.
            let batch_events = batch.unwrap_or(DEFAULT_BATCH_EVENTS);
            let mut source = open_source(&path)?;
            let info = MetaInfo::collect_batched(&mut source, batch_events)
                .map_err(|e| source_err(&path, &source, &e))?;
            Ok(info.to_string())
        }
        Command::Aerodrome { path, algorithm, validate, batch } => {
            let mut pipeline = Pipeline::new(open_source(&path)?)
                .validate(validate)
                .batch_events(batch.unwrap_or(DEFAULT_BATCH_EVENTS));
            let (name, mut checker): (_, SendChecker) = match algorithm {
                Algorithm::Basic => ("aerodrome (Algorithm 1)", Box::new(BasicChecker::new())),
                Algorithm::ReadOpt => ("aerodrome (Algorithm 2)", Box::new(ReadOptChecker::new())),
                Algorithm::Optimized => {
                    ("aerodrome (Algorithm 3)", Box::new(OptimizedChecker::new()))
                }
            };
            let report = pipeline
                .run(checker.as_mut())
                .map_err(|e| source_err(&path, pipeline.source(), &e))?;
            let mut out = report_outcome(
                name,
                &report.outcome,
                &pipeline.source().names(),
                checker.events_processed(),
                report.summary.as_ref(),
            );
            let cr = checker.report();
            let _ = writeln!(
                out,
                "clocks: joins={} heap_allocs={} (buffers={} grows={}) cow_copies={} shares={}",
                cr.clock_joins,
                cr.clocks.heap_allocs(),
                cr.clocks.buffers_allocated,
                cr.clocks.buffer_grows,
                cr.clocks.cow_copies,
                cr.clocks.shares
            );
            Ok(out)
        }
        Command::Velodrome { path, config, validate, batch } => {
            let mut pipeline = Pipeline::new(open_source(&path)?)
                .validate(validate)
                .batch_events(batch.unwrap_or(DEFAULT_BATCH_EVENTS));
            let mut c = VelodromeChecker::with_config(config);
            let report =
                pipeline.run(&mut c).map_err(|e| source_err(&path, pipeline.source(), &e))?;
            let mut out = report_outcome(
                "velodrome",
                &report.outcome,
                &pipeline.source().names(),
                c.events_processed(),
                report.summary.as_ref(),
            );
            let s = c.stats();
            let _ = writeln!(
                out,
                "graph: nodes_created={} peak_live={} cycle_checks={}",
                s.nodes_created, s.peak_live_nodes, s.cycle_checks
            );
            if let Some(w) = c.witness() {
                let _ = writeln!(out, "witness cycle: {} transactions", w.len());
            }
            Ok(out)
        }
        Command::Compare { path, jobs, batch, validate } => {
            let mut config = ParConfig::default().jobs(jobs).validate(validate);
            if let Some(b) = batch {
                config = config.batch_events(b);
            }
            let mut source = open_source(&path)?;
            let start = Instant::now();
            let report = par::check_all(&mut source, par::standard_checkers(), &config)
                .map_err(|e| source_err(&path, &source, &e))?;
            let wall = start.elapsed();
            let names = source.names();
            let mut out = String::new();
            let _ = writeln!(out, "single-pass comparison: {path}");
            let _ = writeln!(
                out,
                "events: {}  workers: {}  batches: {}  wall: {:.3}s",
                report.events,
                report.stats.workers,
                report.stats.batches,
                wall.as_secs_f64()
            );
            let _ = writeln!(
                out,
                "{:<18} {:>7} {:>10} {:>12} {:>12}  first violation",
                "checker", "verdict", "events", "clock joins", "heap allocs"
            );
            for run in &report.runs {
                let (verdict, first) = match run.outcome.violation() {
                    None => ("✓", "-".to_owned()),
                    Some(v) => {
                        ("✗", format!("e{}: {}", v.event.index(), v.display_with_names(&names)))
                    }
                };
                let _ = writeln!(
                    out,
                    "{:<18} {:>7} {:>10} {:>12} {:>12}  {first}",
                    run.name,
                    verdict,
                    run.events(),
                    run.report.clock_joins,
                    run.report.clocks.heap_allocs()
                );
            }
            let violations = report.runs.iter().filter(|r| r.outcome.is_violation()).count();
            let _ = match violations {
                0 => writeln!(out, "consensus: ✓ serializable under every checker"),
                n if n == report.runs.len() => {
                    writeln!(out, "consensus: ✗ violation under every checker")
                }
                // The variants provably agree on closed traces; a split
                // verdict means the input is a prefix (open transactions).
                n => writeln!(
                    out,
                    "split verdict: {n}/{} checkers report a violation (trace is a prefix?)",
                    report.runs.len()
                ),
            };
            if let Some(s) = &report.summary {
                if !s.is_closed() {
                    let _ = writeln!(
                        out,
                        "note: trace is a prefix ({} open transaction(s), {} held lock(s))",
                        s.open_transactions.len(),
                        s.held_locks.len()
                    );
                }
            }
            Ok(out)
        }
        Command::Batch { path, jobs, batch, checker, seal_verify, validate } => {
            let paths = multi::discover(Path::new(&path))?;
            let mut config = MultiConfig::default().jobs(jobs).validate(validate);
            if let Some(b) = batch {
                config = config.batch_events(b);
            }
            let report = multi::check_corpus(&paths, || checker.panel(), &config);

            // Sidecar verification reuses the verdicts the resident run
            // already produced — no second pass over any trace.
            let seals: Vec<Option<Result<(), String>>> = report
                .traces
                .iter()
                .map(|t| {
                    if !seal_verify || t.error.is_some() {
                        return None;
                    }
                    let sidecar = seal_sidecar_path(&t.path.to_string_lossy());
                    let sealed = match std::fs::read_to_string(&sidecar) {
                        Ok(s) => s,
                        Err(e) => return Some(Err(format!("{sidecar}: {e}"))),
                    };
                    let fresh = seal_text(t.events, t.threads, t.locks, t.vars, &t.runs);
                    if sealed == fresh {
                        Some(Ok(()))
                    } else {
                        Some(Err(format!(
                            "sealed verdicts diverge\n--- sealed\n{sealed}--- fresh\n{fresh}"
                        )))
                    }
                })
                .collect();

            let panel: Vec<&str> = report
                .traces
                .first()
                .map(|t| t.runs.iter().map(|r| r.name).collect())
                .unwrap_or_default();
            let mut out = String::new();
            let _ = writeln!(out, "resident batch: {path}");
            let _ = writeln!(
                out,
                "traces: {}  workers: {}  events: {}  wall: {:.3}s  checkers: {}",
                report.traces.len(),
                report.workers,
                report.events(),
                report.wall.as_secs_f64(),
                panel.join(",")
            );
            let _ =
                writeln!(out, "{:>5} {:>10} {:<8} {:>9}  trace", "#", "events", "verdicts", "wall");
            let mut mismatches = 0usize;
            for (trace, seal) in report.traces.iter().zip(&seals) {
                let verdicts: String = trace
                    .runs
                    .iter()
                    .map(|r| if r.outcome.is_violation() { '✗' } else { '✓' })
                    .collect();
                let note = match (&trace.error, seal) {
                    (Some(e), _) => format!("  ERROR {e}"),
                    (None, Some(Err(e))) => {
                        mismatches += 1;
                        format!("  SEAL MISMATCH {}", e.lines().next().unwrap_or_default())
                    }
                    (None, Some(Ok(()))) => "  seal ✓".to_owned(),
                    (None, None) => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{:>5} {:>10} {:<8} {:>8.3}s  {}{note}",
                    trace.index,
                    trace.events,
                    verdicts,
                    trace.wall.as_secs_f64(),
                    trace.path.display()
                );
            }
            let _ = writeln!(out, "corpus totals per checker:");
            for total in report.checker_totals() {
                let _ = writeln!(
                    out,
                    "  {:<18} events={:<12} clock joins={:<12} heap allocs={} (retained {} B peak)",
                    total.name,
                    total.events,
                    total.clock_joins,
                    total.clocks.heap_allocs(),
                    total.clocks.retained_bytes
                );
            }
            let violations = report.violations();
            let errors = report.errors();
            let _ = writeln!(
                out,
                "summary: {violations} violating trace(s), {errors} ingest error(s){}",
                if seal_verify {
                    format!(", {mismatches} seal mismatch(es)")
                } else {
                    String::new()
                }
            );
            // Non-zero exit on any violation/mismatch: plain runs fail on
            // violations; --seal-verify runs treat sealed violations as
            // expected and fail only on mismatch/missing sidecars.
            let failed = errors > 0 || mismatches > 0 || (!seal_verify && violations > 0);
            if failed {
                Err(out)
            } else {
                Ok(out)
            }
        }
        Command::Validate { path, batch } => {
            let batch_events = batch.unwrap_or(DEFAULT_BATCH_EVENTS);
            let mut source = open_source(&path)?;
            let mut validator = Validator::new();
            let mut arena = EventBatch::with_target(batch_events);
            'ingest: loop {
                let refill = source.next_batch(&mut arena);
                for &event in arena.events() {
                    if let Err(e) = validator.observe(event) {
                        // Batched-ahead parsing: the source's current
                        // position is past the offending event; attribute
                        // via the batch window (line or record + chunk).
                        return Err(format!(
                            "{path}: {}not well-formed: {e}",
                            source
                                .position_of(e.event())
                                .map_or_else(String::new, |p| format!("{p}: "))
                        ));
                    }
                }
                match refill {
                    Err(e) => return Err(source_err(&path, &source, &e)),
                    Ok(0) => break 'ingest,
                    Ok(_) => {}
                }
            }
            let events = validator.events_observed();
            let summary = validator.finish();
            let mut out = format!("✓ well-formed ({events} events)\n");
            if summary.is_closed() {
                let _ = writeln!(out, "closed: every transaction ended, every lock released");
            } else {
                let _ = writeln!(
                    out,
                    "open at end of trace: {} transaction(s), {} held lock(s)",
                    summary.open_transactions.len(),
                    summary.held_locks.len()
                );
            }
            Ok(out)
        }
        Command::Generate {
            path,
            cfg,
            profile,
            overrides,
            seal,
            jobs,
            corpus,
            batch,
            out_format,
        } => {
            if let Some(traces) = corpus {
                // A whole corpus: N varied traces plus a manifest, the
                // input `rapid batch` expects. Defaults come from the
                // library's CorpusConfig so CLI-generated corpora stay
                // byte-identical to test/bench/CI ones.
                let defaults = workloads::corpus::CorpusConfig::default();
                let spec = workloads::corpus::CorpusConfig {
                    traces,
                    seed: overrides.seed.unwrap_or(defaults.seed),
                    events: overrides.events.unwrap_or(defaults.events),
                    binary: out_format == OutFormat::Rbt,
                    ..defaults
                };
                let dir = Path::new(&path);
                let paths = workloads::corpus::write_corpus(dir, &spec)
                    .map_err(|e| format!("{path}: {e}"))?;
                let mut msg = format!(
                    "wrote {traces} traces + manifest.txt to {path} (seed {})\n",
                    spec.seed
                );
                if seal {
                    for p in &paths {
                        let p = p.to_string_lossy();
                        write_seal_with(&p, jobs, batch)?;
                    }
                    let _ = writeln!(msg, "sealed {} .expect sidecar(s)", paths.len());
                }
                return Ok(msg);
            }
            // Streamed straight to disk: no Trace is materialised, so
            // `--events 10000000` works in constant memory.
            let mut source: Box<dyn EventSource> = match profile {
                Some(name) => match workloads::shapes::source(&name, &cfg) {
                    Some(shape) => {
                        // The shapes are serializable by construction and
                        // fix their own lock layout; rejecting the flags
                        // they cannot honour beats silently writing a
                        // trace the user did not ask for.
                        for (given, flag) in [
                            (overrides.violation_at.is_some(), "--violation-at"),
                            (overrides.retention, "--retention"),
                            (overrides.locks.is_some(), "--locks"),
                            // fanout derives one private variable per
                            // worker; convoy honours --vars (clamped to
                            // its documented pool of 64).
                            (name == "fanout" && overrides.vars.is_some(), "--vars"),
                        ] {
                            if given {
                                return Err(format!(
                                    "{flag} is not supported by the `{name}` shape"
                                ));
                            }
                        }
                        shape
                    }
                    None => workloads::table1()
                        .into_iter()
                        .chain(workloads::table2())
                        .find(|p| p.name == name)
                        // Explicit flags win over the profile's config,
                        // same as for the shapes above.
                        .map(|p| {
                            Box::new(workloads::GenSource::new(&overrides.apply(p.cfg)))
                                as Box<dyn EventSource>
                        })
                        .ok_or_else(|| format!("unknown profile `{name}`"))?,
                },
                None => Box::new(workloads::GenSource::new(&cfg)),
            };
            let file = File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut out = BufWriter::new(file);
            let n = match out_format {
                OutFormat::Std => {
                    copy_events(source.as_mut(), &mut out).map_err(|e| format!("{path}: {e}"))?
                }
                OutFormat::Rbt => {
                    binfmt::write_binary(source.as_mut(), &mut out, DEFAULT_CHUNK_EVENTS)
                        .map_err(|e| format!("{path}: {e}"))?
                }
            };
            std::io::Write::flush(&mut out).map_err(|e| format!("{path}: {e}"))?;
            let names = source.names();
            let mut msg = format!(
                "wrote {n} events ({} threads, {} vars, {} locks) to {path}\n",
                names.threads.len(),
                names.vars.len(),
                names.locks.len()
            );
            if seal {
                // Reference verdicts come from re-reading the written
                // log (not the generator), so the sidecar certifies the
                // bytes on disk.
                let text = write_seal_with(&path, jobs, batch)?;
                let verdicts = text
                    .lines()
                    .filter(|l| l.contains(": violation@") || l.ends_with(": serializable"))
                    .count();
                let _ = writeln!(
                    msg,
                    "sealed {} verdict line(s) to {}",
                    verdicts,
                    seal_sidecar_path(&path)
                );
            }
            Ok(msg)
        }
        Command::Convert { input, output, chunk_events } => {
            let mut source = open_source(&input)?;
            let from = if source.is_binary() { "rbt" } else { "std" };
            let to_binary = Path::new(&output).extension().is_some_and(|e| e == "rbt");
            let file = File::create(&output).map_err(|e| format!("{output}: {e}"))?;
            let mut out = BufWriter::new(file);
            let events = if to_binary {
                binfmt::write_binary(
                    &mut source,
                    &mut out,
                    chunk_events.unwrap_or(DEFAULT_CHUNK_EVENTS),
                )
            } else {
                copy_events(&mut source, &mut out)
            }
            .map_err(|e| source_err(&input, &source, &e))?;
            std::io::Write::flush(&mut out).map_err(|e| format!("{output}: {e}"))?;
            let names = source.names();
            Ok(format!(
                "converted {input} ({from}) -> {output} ({}): {events} events \
                 ({} threads, {} locks, {} vars)\n",
                if to_binary { "rbt" } else { "std" },
                names.threads.len(),
                names.locks.len(),
                names.vars.len()
            ))
        }
        Command::Causal { path, validate, batch } => {
            let mut pipeline = Pipeline::new(open_source(&path)?)
                .validate(validate)
                .batch_events(batch.unwrap_or(DEFAULT_BATCH_EVENTS));
            let Some((trace, _summary)) = pipeline
                .collect(CAUSAL_EVENT_LIMIT)
                .map_err(|e| source_err(&path, pipeline.source(), &e))?
            else {
                return Err(format!(
                    "causal analysis is quadratic; the trace exceeds the limit of \
                     {CAUSAL_EVENT_LIMIT} events"
                ));
            };
            let report = oracle::causal::analyze(&trace);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "transactions: {} ({} unary)",
                report.transactions.len(),
                report.transactions.len() - report.transactions.non_unary_count()
            );
            if report.all_atomic() {
                let _ = writeln!(out, "verdict: ✓ every transaction is causally atomic");
            } else {
                let _ = writeln!(
                    out,
                    "verdict: ✗ {} transaction(s) lie on a ⋖-cycle:",
                    report.on_cycle.len()
                );
                for t in &report.on_cycle {
                    let txn = &report.transactions[*t];
                    let _ = writeln!(
                        out,
                        "  {} of thread {} ({} events{})",
                        t,
                        trace.thread_name(txn.thread),
                        txn.num_events,
                        if txn.is_unary() { ", unary" } else { "" }
                    );
                }
            }
            Ok(out)
        }
        Command::Explore { program, max_schedules, samples, seed, out, jobs } => {
            let prog = resolve_program(&program)?;
            let config = scenarios::ExploreConfig {
                max_schedules,
                samples,
                seed,
                ..scenarios::ExploreConfig::default()
            };
            let start = Instant::now();
            let report = scenarios::explore(&prog, &config);
            let wall = start.elapsed();
            let refereed = report.schedules + report.sampled;

            let mut text = String::new();
            let _ = writeln!(
                text,
                "schedule exploration: {} ({} threads, {} statements)",
                prog.name,
                prog.threads().len(),
                prog.len()
            );
            let _ = writeln!(
                text,
                "schedules: {} dfs ({}) + {} sampled  deadlocks: {}  sleep-set pruned: {}  \
                 wall: {:.3}s",
                report.schedules,
                if report.exhaustive { "exhaustive" } else { "budget hit" },
                report.sampled,
                report.deadlocks,
                report.sleep_pruned,
                wall.as_secs_f64()
            );
            let _ = writeln!(
                text,
                "verdicts: {} violating / {} serializable / {} mismatching",
                report.violating,
                refereed - report.violating,
                report.mismatching
            );

            // Minimise the first violating schedule to a reproducer.
            let minimized = report.violations.first().map(|found| {
                let full = scenarios::schedule_trace(&prog, &found.schedule);
                let closed = found.end == scenarios::RunEnd::Complete;
                let min = scenarios::minimize(&full, closed, |t| {
                    aerodrome::run_checker(&mut BasicChecker::new(), t).is_violation()
                });
                let _ = writeln!(
                    text,
                    "minimized reproducer: {} events (from a {}-event violating schedule):",
                    min.len(),
                    full.len()
                );
                text.push_str(&tracelog::write_trace(&min));
                min
            });

            if let Some(dir) = &out {
                std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                let mut artifacts: Vec<(String, Trace)> = Vec::new();
                let mut serial = Vec::new();
                if scenarios::Interp::new(&prog).run_with(&mut serial, |_| 0)
                    == scenarios::RunEnd::Complete
                {
                    artifacts.push((
                        format!("{}-serial.std", prog.name),
                        scenarios::schedule_trace(&prog, &serial),
                    ));
                }
                if let Some(min) = minimized {
                    artifacts.push((format!("{}-min.std", prog.name), min));
                }
                let mut deadlock: Option<Vec<usize>> = None;
                scenarios::enumerate(&prog, &config, |schedule, end| {
                    if end == scenarios::RunEnd::Deadlock && deadlock.is_none() {
                        deadlock = Some(schedule.to_vec());
                    }
                });
                if let Some(schedule) = deadlock {
                    artifacts.push((
                        format!("{}-deadlock.std", prog.name),
                        scenarios::schedule_trace(&prog, &schedule),
                    ));
                }
                for (file, trace) in &artifacts {
                    let path = write_sealed_std(dir, file, trace, jobs)?;
                    let _ = writeln!(text, "sealed: {path} ({} events)", trace.len());
                }
            }

            if report.mismatching > 0 {
                let _ =
                    writeln!(text, "DIFFERENTIAL MISMATCH on {} schedule(s):", report.mismatching);
                for (found, mismatches) in &report.mismatches {
                    for m in mismatches {
                        let _ = writeln!(text, "  schedule {:?}: {m}", found.schedule);
                    }
                }
                return Err(text);
            }
            Ok(text)
        }
        Command::Fuzz { path, mutants, seed, out, jobs } => {
            let trace = load_trace(&path)?;
            tracelog::validate(&trace).map_err(|e| format!("{path}: not well-formed: {e}"))?;
            let config =
                scenarios::FuzzConfig { mutants, seed, ..scenarios::FuzzConfig::default() };
            let start = Instant::now();
            let report = scenarios::fuzz(&trace, &config);
            let wall = start.elapsed();
            let stem = Path::new(&path)
                .file_stem()
                .map_or_else(|| "trace".to_owned(), |s| s.to_string_lossy().into_owned());

            let mut text = String::new();
            let _ = writeln!(
                text,
                "trace-mutation fuzzing: {path} ({} events, seed {seed})",
                trace.len()
            );
            let _ = writeln!(
                text,
                "mutants: {} attempted = {} valid + {} ill-formed + {} inapplicable  \
                 wall: {:.3}s",
                report.attempted,
                report.valid,
                report.invalid,
                report.skipped,
                wall.as_secs_f64()
            );
            let _ = writeln!(
                text,
                "verdicts: {} violating / {} mismatching (ill-formed mutants are rejected, \
                 never checked)",
                report.violating, report.mismatching
            );

            if let Some(dir) = &out {
                std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                // A deterministic sample artefact: the seed's first
                // well-formed mutant, sealed for corpus use.
                let mut mutator = scenarios::Mutator::new(seed);
                let sample =
                    (0..report.attempted).find_map(|_| mutator.mutate(&trace).filter(|m| m.valid));
                if let Some(mutant) = sample {
                    let file = format!("{stem}-mutant.std");
                    let sealed = write_sealed_std(dir, &file, &mutant.trace, jobs)?;
                    let _ = writeln!(
                        text,
                        "sealed: {sealed} ({} events, {} mutation)",
                        mutant.trace.len(),
                        mutant.kind.name()
                    );
                }
            }

            if let Some((kind, bad, mismatches)) = report.mismatches.first() {
                let min = scenarios::minimize(bad, false, |t| {
                    let closed = tracelog::validate(t).map(|s| s.is_closed()).unwrap_or(false);
                    !scenarios::referee(t, closed, &config.referee).clean()
                });
                let _ = writeln!(
                    text,
                    "DIFFERENTIAL MISMATCH ({} operator), minimized to {} events:",
                    kind.name(),
                    min.len()
                );
                text.push_str(&tracelog::write_trace(&min));
                for m in mismatches {
                    let _ = writeln!(text, "  {m}");
                }
                if let Some(dir) = &out {
                    let file = format!("{stem}-mismatch.std");
                    let mpath = Path::new(dir).join(&file).to_string_lossy().into_owned();
                    std::fs::write(&mpath, tracelog::write_trace(&min))
                        .map_err(|e| format!("{mpath}: {e}"))?;
                    let _ = writeln!(text, "written (unsealed — the panel disagrees): {mpath}");
                }
                return Err(text);
            }
            Ok(text)
        }
        Command::Serve { addr, config } => {
            let server =
                serve::Server::bind(addr.as_str(), config).map_err(|e| format!("{addr}: {e}"))?;
            let local = server.local_addr().map_err(|e| format!("{addr}: {e}"))?;
            // The "listening" line must be visible before the accept
            // loop blocks — scripts (and the smoke test) parse it to
            // learn the ephemeral port.
            println!("rapid serve: listening on {local}");
            let _ = std::io::Write::flush(&mut std::io::stdout());
            server.run().map_err(|e| format!("{local}: {e}"))?;
            Ok(format!("rapid serve: {local} shut down\n"))
        }
        Command::Loadgen { config } => Ok(serve::loadgen::run(&config)?.render()),
        Command::Table { which, budget } => {
            let profiles = if which == 1 { workloads::table1() } else { workloads::table2() };
            let rows: Vec<_> = profiles.iter().map(|p| bench::run_profile(p, budget)).collect();
            let mut out = bench::format_table(
                &format!("Table {which} (scaled traces; budget {budget:?})"),
                &rows,
            );
            let problems = bench::check_shape(&rows);
            if problems.is_empty() {
                let _ = writeln!(out, "shape check: all qualitative claims hold ✓");
            } else {
                for p in &problems {
                    let _ = writeln!(out, "shape check ✗ {p}");
                }
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_help_and_empty() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parses_metainfo() {
        assert_eq!(
            parse_args(&args(&["metainfo", "t.std"])).unwrap(),
            Command::MetaInfo { path: "t.std".into(), batch: None }
        );
        assert!(parse_args(&args(&["metainfo"])).is_err());
    }

    #[test]
    fn parses_aerodrome_algorithms() {
        let cmd = parse_args(&args(&["aerodrome", "t.std", "--algorithm", "basic"])).unwrap();
        assert_eq!(
            cmd,
            Command::Aerodrome {
                path: "t.std".into(),
                algorithm: Algorithm::Basic,
                validate: true,
                batch: None,
            }
        );
        assert!(parse_args(&args(&["aerodrome", "t.std", "--algorithm", "bogus"])).is_err());
        let cmd = parse_args(&args(&["aerodrome", "t.std"])).unwrap();
        assert_eq!(
            cmd,
            Command::Aerodrome {
                path: "t.std".into(),
                algorithm: Algorithm::Optimized,
                validate: true,
                batch: None,
            }
        );
        // `check` is an alias, and `--no-validate` opts out of the
        // streaming pre-pass.
        let cmd = parse_args(&args(&["check", "t.std", "--no-validate"])).unwrap();
        assert_eq!(
            cmd,
            Command::Aerodrome {
                path: "t.std".into(),
                algorithm: Algorithm::Optimized,
                validate: false,
                batch: None,
            }
        );
    }

    #[test]
    fn parses_validate_subcommand() {
        assert_eq!(
            parse_args(&args(&["validate", "t.std"])).unwrap(),
            Command::Validate { path: "t.std".into(), batch: None }
        );
        assert!(parse_args(&args(&["validate"])).is_err());
    }

    #[test]
    fn parses_velodrome_flags() {
        let cmd = parse_args(&args(&["velodrome", "t.std", "--no-gc"])).unwrap();
        match cmd {
            Command::Velodrome { config, validate, .. } => {
                assert!(!config.gc);
                assert!(validate);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_generate_options() {
        let cmd = parse_args(&args(&[
            "generate",
            "o.std",
            "--events",
            "500",
            "--threads",
            "3",
            "--seed",
            "9",
            "--violation-at",
            "0.5",
            "--retention",
        ]))
        .unwrap();
        match cmd {
            Command::Generate { cfg, path, profile, overrides, .. } => {
                assert_eq!(path, "o.std");
                assert_eq!(profile, None);
                assert_eq!(cfg.events, 500);
                assert_eq!(cfg.threads, 3);
                assert_eq!(cfg.seed, 9);
                assert_eq!(cfg.violation_at, Some(0.5));
                assert!(cfg.retention);
                assert_eq!(overrides.events, Some(500));
                assert_eq!(overrides.vars, None, "flags not given stay unset");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_convert_and_benchdiff() {
        assert_eq!(
            parse_args(&args(&["convert", "t.std", "t.rbt"])).unwrap(),
            Command::Convert { input: "t.std".into(), output: "t.rbt".into(), chunk_events: None }
        );
        assert_eq!(
            parse_args(&args(&["convert", "t.rbt", "t.std", "--chunk-events", "1024"])).unwrap(),
            Command::Convert {
                input: "t.rbt".into(),
                output: "t.std".into(),
                chunk_events: Some(1024)
            }
        );
        assert!(parse_args(&args(&["convert", "t.std"])).is_err());
        assert!(parse_args(&args(&["convert"])).is_err());
        let err = parse_args(&args(&["convert", "a", "b", "--chunk-events", "0"])).unwrap_err();
        assert!(err.0.contains("--chunk-events must be positive"), "{err}");
    }

    #[test]
    fn parses_generate_out_format() {
        let cmd = parse_args(&args(&["generate", "o.rbt", "--out-format", "rbt"])).unwrap();
        match cmd {
            Command::Generate { out_format, .. } => assert_eq!(out_format, OutFormat::Rbt),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["generate", "o", "--out-format", "bogus"])).is_err());
    }

    #[test]
    fn parses_table_budget() {
        let cmd = parse_args(&args(&["table1", "--budget", "3"])).unwrap();
        assert_eq!(cmd, Command::Table { which: 1, budget: Duration::from_secs(3) });
    }

    #[test]
    fn rejects_unknown_commands_and_flags() {
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["table1", "--bogus"])).is_err());
        assert!(parse_args(&args(&["generate", "o", "--events"])).is_err());
        // The removed per-trace sharding, second-benchmark,
        // chunk-parallel ingest, two-phase and Pearce–Kelly surfaces are
        // usage errors, never silently ignored.
        for argv in [
            &["check", "t.rbt", "--shards", "2"][..],
            &["check", "t.rbt", "--ingest-jobs", "2"],
            &["compare", "t.rbt", "--ingest-jobs", "2"],
            &["metainfo", "t.rbt", "--ingest-jobs", "2"],
            &["validate", "t.rbt", "--ingest-jobs", "2"],
            &["compare", "t.std", "--partition", "auto"],
            &["partition", "t.rbt"],
            &["benchdiff", "a.json", "b.json"],
            &["loadgen", "--bench-json", "x.json"],
            &["twophase", "t.std"],
            &["velodrome", "t.std", "--pearce-kelly"],
            &["twophase", "t.std", "--phase-batch", "64"],
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(err.0.starts_with("unknown"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn end_to_end_generate_metainfo_analyze() {
        let dir = std::env::temp_dir().join("rapid-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.std").to_string_lossy().into_owned();
        let out = run(Command::Generate {
            path: path.clone(),
            cfg: Box::new(workloads::GenConfig {
                events: 800,
                violation_at: Some(0.5),
                ..workloads::GenConfig::default()
            }),
            profile: None,
            overrides: GenOverrides::default(),
            seal: false,
            jobs: 0,
            corpus: None,
            batch: None,
            out_format: OutFormat::default(),
        })
        .unwrap();
        assert!(out.contains("wrote"));

        let info = run(Command::MetaInfo { path: path.clone(), batch: None }).unwrap();
        assert!(info.contains("events:"));

        for algorithm in [Algorithm::Basic, Algorithm::ReadOpt, Algorithm::Optimized] {
            let report = run(Command::Aerodrome {
                path: path.clone(),
                algorithm,
                validate: true,
                batch: None,
            })
            .unwrap();
            assert!(report.contains('✗'), "expected violation: {report}");
            assert!(report.contains("clocks: joins="), "clock-core counters missing: {report}");
        }
        let report = run(Command::Velodrome {
            path: path.clone(),
            config: Config::default(),
            validate: true,
            batch: None,
        })
        .unwrap();
        assert!(report.contains('✗'));
        assert!(report.contains("graph:"));

        let report = run(Command::Validate { path: path.clone(), batch: None }).unwrap();
        assert!(report.contains("well-formed"), "{report}");
    }

    #[test]
    fn generate_with_profile_name() {
        let dir = std::env::temp_dir().join("rapid-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hedc.std").to_string_lossy().into_owned();
        let out = run(Command::Generate {
            path,
            cfg: Box::new(workloads::GenConfig::default()),
            profile: Some("hedc".into()),
            overrides: GenOverrides::default(),
            seal: false,
            jobs: 0,
            corpus: None,
            batch: None,
            out_format: OutFormat::default(),
        })
        .unwrap();
        assert!(out.contains("wrote"));
        assert!(run(Command::Generate {
            path: "x".into(),
            cfg: Box::new(workloads::GenConfig::default()),
            profile: Some("nonexistent".into()),
            overrides: GenOverrides::default(),
            seal: false,
            jobs: 0,
            corpus: None,
            batch: None,
            out_format: OutFormat::default(),
        })
        .is_err());
    }

    #[test]
    fn explicit_flags_override_table_profile_configs() {
        // hedc's profile generates ~9.8K events; --events must win for
        // table profiles exactly as it does for the shapes.
        let dir = std::env::temp_dir().join("rapid-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hedc_small.std").to_string_lossy().into_owned();
        let cmd = parse_args(&args(&[
            "generate",
            &path,
            "--profile",
            "hedc",
            "--events",
            "700",
            "--seed",
            "5",
        ]))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let events: usize =
            out.split_whitespace().nth(1).and_then(|n| n.parse().ok()).expect("wrote <n> events");
        assert!((700..1_000).contains(&events), "profile size must be overridden: {out}");
    }
}

#[cfg(test)]
mod twophase_causal_tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("rapid-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn parses_twophase_and_causal() {
        let cmd =
            parse_args(&["causal".into(), "t.std".into(), "--batch".into(), "512".into()]).unwrap();
        assert_eq!(cmd, Command::Causal { path: "t.std".into(), validate: true, batch: Some(512) });
        assert!(parse_args(&["causal".into()]).is_err());
    }

    #[test]
    fn twophase_and_causal_run_end_to_end() {
        let path = tmp("tp.std");
        std::fs::write(&path, tracelog::write_trace(&tracelog::paper_traces::rho2())).unwrap();
        let out = run(Command::Causal { path, validate: true, batch: None }).unwrap();
        assert!(out.contains("⋖-cycle"), "{out}");

        let path = tmp("tp_ok.std");
        std::fs::write(&path, tracelog::write_trace(&tracelog::paper_traces::rho1())).unwrap();
        let out = run(Command::Causal { path, validate: true, batch: None }).unwrap();
        assert!(out.contains("causally atomic"));
    }

    #[test]
    fn causal_rejects_oversized_traces() {
        let path = tmp("big.std");
        let trace = workloads::generate(&workloads::GenConfig {
            events: 25_000,
            ..workloads::GenConfig::default()
        });
        std::fs::write(&path, tracelog::write_trace(&trace)).unwrap();
        let err = run(Command::Causal { path, validate: true, batch: None }).unwrap_err();
        assert!(err.contains("limit of 20000 events"), "{err}");
    }

    #[test]
    fn ill_formed_trace_is_rejected_unless_opted_out() {
        let path = tmp("bad.std");
        // Release of a lock that was never acquired: syntactically fine,
        // semantically ill-formed.
        std::fs::write(&path, "t1|begin|0\nt1|rel(m)|1\nt1|end|2\n").unwrap();
        let err = run(Command::Aerodrome {
            path: path.clone(),
            algorithm: Algorithm::Optimized,
            validate: true,
            batch: None,
        })
        .unwrap_err();
        assert!(err.contains("not well-formed"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        assert!(run(Command::Validate { path: path.clone(), batch: None }).is_err());

        // The opt-out analyses the trace anyway (verdict meaningless but
        // the paper's algorithms do not crash).
        let out = run(Command::Aerodrome {
            path: path.clone(),
            algorithm: Algorithm::Optimized,
            validate: false,
            batch: None,
        })
        .unwrap();
        assert!(out.contains("analysis:"), "{out}");
    }

    #[test]
    fn generates_shapes_streamed_to_disk() {
        for name in workloads::shapes::SHAPE_NAMES {
            let path = tmp(&format!("{name}.std"));
            let out = run(Command::Generate {
                path: path.clone(),
                cfg: Box::new(workloads::GenConfig { events: 1_000, ..Default::default() }),
                profile: Some(name.into()),
                overrides: GenOverrides::default(),
                seal: false,
                jobs: 0,
                corpus: None,
                batch: None,
                out_format: OutFormat::default(),
            })
            .unwrap();
            assert!(out.contains("wrote"), "{out}");
            let report = run(Command::Validate { path: path.clone(), batch: None }).unwrap();
            assert!(report.contains("closed"), "{name}: {report}");
            let report = run(Command::Aerodrome {
                path,
                algorithm: Algorithm::Optimized,
                validate: true,
                batch: None,
            })
            .unwrap();
            assert!(report.contains('✓'), "{name} shapes are serializable: {report}");
        }
    }
}

#[cfg(test)]
mod explore_fuzz_tests {
    use super::*;

    fn tmp_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join("rapid-cli-test").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn parses_explore_and_fuzz() {
        assert_eq!(
            parse_args(&["explore".into(), "racy-pair".into()]).unwrap(),
            Command::Explore {
                program: "racy-pair".into(),
                max_schedules: 1_000,
                samples: 256,
                seed: 0,
                out: None,
                jobs: 0
            }
        );
        assert_eq!(
            parse_args(&[
                "explore".into(),
                "p.dsl".into(),
                "--max-schedules".into(),
                "50".into(),
                "--samples".into(),
                "8".into(),
                "--seed".into(),
                "7".into(),
                "--out".into(),
                "d".into(),
                "--jobs".into(),
                "2".into(),
            ])
            .unwrap(),
            Command::Explore {
                program: "p.dsl".into(),
                max_schedules: 50,
                samples: 8,
                seed: 7,
                out: Some("d".into()),
                jobs: 2
            }
        );
        assert_eq!(
            parse_args(&["fuzz".into(), "t.std".into(), "--mutants".into(), "64".into()]).unwrap(),
            Command::Fuzz { path: "t.std".into(), mutants: 64, seed: 0, out: None, jobs: 0 }
        );
        assert!(parse_args(&["explore".into()]).is_err());
        assert!(parse_args(&["explore".into(), "x".into(), "--max-schedules".into(), "0".into()])
            .is_err());
        assert!(
            parse_args(&["fuzz".into(), "t.std".into(), "--mutants".into(), "0".into()]).is_err()
        );
        assert!(parse_args(&["fuzz".into(), "t.std".into(), "--bogus".into()]).is_err());
    }

    /// Every builtin the engine exposes must be named in the usage text,
    /// so `rapid help` stays the discovery surface.
    #[test]
    fn usage_names_every_builtin() {
        for (name, _, _) in scenarios::BUILTINS {
            assert!(USAGE.contains(name), "usage text must mention builtin `{name}`");
        }
        assert!(USAGE.contains("rapid explore"));
        assert!(USAGE.contains("rapid fuzz"));
    }

    #[test]
    fn explore_finds_and_seals_the_racy_builtin() {
        let dir = tmp_dir("explore-racy");
        let out = run(Command::Explore {
            program: "racy-pair".into(),
            max_schedules: 1_000,
            samples: 0,
            seed: 0,
            out: Some(dir.clone()),
            jobs: 1,
        })
        .unwrap();
        assert!(out.contains("1 violating"), "{out}");
        assert!(out.contains("minimized reproducer: 8 events"), "{out}");
        // The sealed artefacts round-trip through batch --seal-verify.
        let verify = run(Command::Batch {
            path: dir,
            jobs: 1,
            batch: None,
            checker: CheckerChoice::All,
            seal_verify: true,
            validate: true,
        })
        .unwrap();
        assert!(verify.contains("0 seal mismatch(es)"), "{verify}");
    }

    #[test]
    fn explore_accepts_program_files_and_rejects_junk() {
        let dir = tmp_dir("explore-dsl");
        let path = format!("{dir}/two.dsl");
        std::fs::write(&path, "thread a: begin w(x) r(x) end\nthread b: w(x)\n").unwrap();
        let out = run(Command::Explore {
            program: path,
            max_schedules: 1_000,
            samples: 0,
            seed: 0,
            out: None,
            jobs: 1,
        })
        .unwrap();
        assert!(out.contains("schedule exploration: two"), "{out}");

        let err = run(Command::Explore {
            program: "no-such-builtin".into(),
            max_schedules: 10,
            samples: 0,
            seed: 0,
            out: None,
            jobs: 1,
        })
        .unwrap_err();
        assert!(err.contains("racy-pair"), "error must list builtins: {err}");
    }

    #[test]
    fn fuzz_paper_trace_is_clean_and_seals_a_mutant() {
        let dir = tmp_dir("fuzz-rho1");
        let path = format!("{dir}/rho1.std");
        std::fs::write(&path, tracelog::write_trace(&tracelog::paper_traces::rho1())).unwrap();
        let out =
            run(Command::Fuzz { path, mutants: 300, seed: 11, out: Some(dir.clone()), jobs: 1 })
                .unwrap();
        assert!(
            out.contains("0 violating / 0 mismatching")
                || out.contains("violating / 0 mismatching"),
            "{out}"
        );
        assert!(out.contains("sealed:"), "{out}");
        assert!(std::path::Path::new(&format!("{dir}/rho1-mutant.std.expect")).exists());
    }

    #[test]
    fn fuzz_rejects_ill_formed_input() {
        let dir = tmp_dir("fuzz-bad");
        let path = format!("{dir}/bad.std");
        std::fs::write(&path, "t1|rel(m)|0\n").unwrap();
        let err =
            run(Command::Fuzz { path, mutants: 10, seed: 0, out: None, jobs: 1 }).unwrap_err();
        assert!(err.contains("not well-formed"), "{err}");
    }
}

#[cfg(test)]
mod binfmt_cli_tests {
    use super::*;

    fn tmp_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join("rapid-cli-binfmt").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_string_lossy().into_owned()
    }

    fn generate_std(dir: &str, name: &str, events: usize) -> String {
        let path = format!("{dir}/{name}");
        run(Command::Generate {
            path: path.clone(),
            cfg: Box::new(workloads::GenConfig {
                events,
                violation_at: Some(0.5),
                ..workloads::GenConfig::default()
            }),
            profile: None,
            overrides: GenOverrides::default(),
            seal: false,
            jobs: 0,
            corpus: None,
            batch: None,
            out_format: OutFormat::default(),
        })
        .unwrap();
        path
    }

    fn convert(input: &str, output: &str) {
        run(Command::Convert {
            input: input.to_owned(),
            output: output.to_owned(),
            chunk_events: Some(256),
        })
        .unwrap();
    }

    #[test]
    fn convert_round_trip_is_byte_exact() {
        let dir = tmp_dir("roundtrip");
        let std_path = generate_std(&dir, "t.std", 2_000);
        let rbt_path = format!("{dir}/t.rbt");
        let back_path = format!("{dir}/t-back.std");
        convert(&std_path, &rbt_path);
        convert(&rbt_path, &back_path);
        let original = std::fs::read(&std_path).unwrap();
        let back = std::fs::read(&back_path).unwrap();
        assert_eq!(original, back, ".std -> .rbt -> .std must round-trip byte-exactly");
        // The binary file is the compact one.
        let rbt = std::fs::read(&rbt_path).unwrap();
        assert!(rbt.len() < original.len(), "binary ({}) >= text ({})", rbt.len(), original.len());
    }

    #[test]
    fn every_ingesting_subcommand_sniffs_the_binary_format() {
        let dir = tmp_dir("sniff");
        let std_path = generate_std(&dir, "t.std", 1_200);
        let rbt_path = format!("{dir}/t.rbt");
        convert(&std_path, &rbt_path);

        // metainfo, validate, aerodrome, velodrome agree across encodings.
        let info_std = run(Command::MetaInfo { path: std_path.clone(), batch: None }).unwrap();
        let info_rbt = run(Command::MetaInfo { path: rbt_path.clone(), batch: None }).unwrap();
        assert_eq!(info_std, info_rbt, "metainfo must not depend on the encoding");
        for path in [&std_path, &rbt_path] {
            let out = run(Command::Validate { path: path.clone(), batch: None }).unwrap();
            assert!(out.contains("well-formed"), "{path}: {out}");
            let out = run(Command::Aerodrome {
                path: path.clone(),
                algorithm: Algorithm::Optimized,
                validate: true,
                batch: None,
            })
            .unwrap();
            assert!(out.contains('✗'), "{path}: {out}");
        }
    }

    #[test]
    fn compare_verdicts_are_identical_across_encodings() {
        let dir = tmp_dir("compare");
        let std_path = generate_std(&dir, "t.std", 3_000);
        let rbt_path = format!("{dir}/t.rbt");
        convert(&std_path, &rbt_path);
        let verdicts = |out: &str| -> Vec<String> {
            out.lines().filter(|l| l.contains('✗') || l.contains('✓')).map(str::to_owned).collect()
        };
        let compare = |path: String| {
            run(Command::Compare { path, jobs: 2, batch: Some(257), validate: true }).unwrap()
        };
        let reference = compare(std_path);
        let out = compare(rbt_path);
        assert_eq!(verdicts(&out), verdicts(&reference), "{out}\nvs\n{reference}");
    }

    #[test]
    fn seals_verify_against_both_encodings() {
        let dir = tmp_dir("seals");
        let std_path = generate_std(&dir, "t.std", 1_000);
        let rbt_path = format!("{dir}/t.rbt");
        convert(&std_path, &rbt_path);
        // Seal both encodings: the seal text is encoding-independent, so
        // the sidecars must be identical.
        let std_seal = write_seal(&std_path, 1).unwrap();
        let rbt_seal = write_seal(&rbt_path, 1).unwrap();
        assert_eq!(std_seal, rbt_seal, "seal text must not depend on the encoding");
        verify_seal(&std_path, 1).unwrap();
        verify_seal(&rbt_path, 1).unwrap();
        // batch --seal-verify walks the directory and sees BOTH files.
        let out = run(Command::Batch {
            path: dir,
            jobs: 2,
            batch: None,
            checker: CheckerChoice::All,
            seal_verify: true,
            validate: true,
        })
        .unwrap();
        assert!(out.contains("0 seal mismatch(es)"), "{out}");
        assert!(out.contains("t.rbt"), "binary trace discovered: {out}");
    }

    #[test]
    fn generate_writes_binary_directly_and_seals_it() {
        let dir = tmp_dir("gen-rbt");
        let path = format!("{dir}/g.rbt");
        let out = run(Command::Generate {
            path: path.clone(),
            cfg: Box::new(workloads::GenConfig {
                events: 900,
                violation_at: Some(0.5),
                ..workloads::GenConfig::default()
            }),
            profile: None,
            overrides: GenOverrides::default(),
            seal: true,
            jobs: 1,
            corpus: None,
            batch: None,
            out_format: OutFormat::Rbt,
        })
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("sealed"), "{out}");
        let head = std::fs::read(&path).unwrap();
        assert_eq!(&head[..8], &tracelog::binfmt::MAGIC);
        verify_seal(&path, 1).unwrap();
    }

    #[test]
    fn generate_writes_binary_corpora() {
        let dir = tmp_dir("gen-corpus-rbt");
        let cmd = parse_args(
            &["generate", &dir, "--corpus", "4", "--events", "300", "--out-format", "rbt"]
                .iter()
                .map(|s| (*s).to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("wrote 4 traces"), "{out}");
        let manifest = std::fs::read_to_string(format!("{dir}/manifest.txt")).unwrap();
        assert!(manifest.contains(".rbt"), "{manifest}");
        // The binary corpus checks clean through the resident runtime.
        let report = run(Command::Batch {
            path: dir,
            jobs: 2,
            batch: None,
            checker: CheckerChoice::All,
            seal_verify: false,
            validate: true,
        });
        // Violating corpus entries make the run "fail" by design; either
        // way every trace must ingest without error.
        let text = report.unwrap_or_else(|e| e);
        assert!(text.contains("0 ingest error(s)"), "{text}");
    }

    /// Corrupted binary containers are attributed to chunk + record, the
    /// way text errors are attributed to lines.
    #[test]
    fn corrupt_binary_attribution_names_chunk_and_record() {
        let dir = tmp_dir("corrupt");
        let std_path = generate_std(&dir, "t.std", 600);
        let rbt_path = format!("{dir}/t.rbt");
        convert(&std_path, &rbt_path);
        let mut bytes = std::fs::read(&rbt_path).unwrap();
        // Record 300 lives in chunk 1 (256-event chunks); stomp its tag.
        let offset = tracelog::binfmt::HEADER_BYTES + 300 * 9;
        bytes[offset] = 0xEE;
        std::fs::write(&rbt_path, &bytes).unwrap();
        let err = run(Command::MetaInfo { path: rbt_path, batch: None }).unwrap_err();
        assert!(err.contains("record 300 (chunk 1)"), "{err}");
    }
}

#[cfg(test)]
mod serve_cli_tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_serve_and_loadgen() {
        assert_eq!(
            parse_args(&args(&["serve"])).unwrap(),
            Command::Serve { addr: "127.0.0.1:7447".into(), config: serve::ServeConfig::default() }
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--addr",
                "0.0.0.0:0",
                "--jobs",
                "4",
                "--batch",
                "512",
                "--max-retained-bytes",
                "1048576",
                "--no-validate",
            ]))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:0".into(),
                config: serve::ServeConfig {
                    jobs: 4,
                    batch_events: 512,
                    validate: false,
                    max_retained_bytes: 1 << 20,
                },
            }
        );
        // 0 here means "disable eviction", not a contradiction.
        assert!(parse_args(&args(&["serve", "--max-retained-bytes", "0"])).is_ok());

        let parsed = parse_args(&args(&[
            "loadgen",
            "--addr",
            "127.0.0.1:9000",
            "--connections",
            "8",
            "--events-per-sec",
            "50000",
            "--shape",
            "fanout",
            "--events",
            "10000",
            "--traces",
            "3",
            "--seed",
            "7",
            "--batch",
            "1024",
        ]))
        .unwrap();
        let Command::Loadgen { config } = parsed else {
            panic!("expected loadgen, got {parsed:?}")
        };
        assert_eq!(
            *config,
            serve::LoadConfig {
                addr: "127.0.0.1:9000".into(),
                connections: 8,
                events_per_sec: 50_000.0,
                shape: "fanout".into(),
                events_per_trace: 10_000,
                traces_per_connection: 3,
                batch_events: 1024,
                seed: 7,
            }
        );

        assert!(parse_args(&args(&["loadgen", "--connections", "0"])).is_err());
        assert!(parse_args(&args(&["loadgen", "--events", "0"])).is_err());
        assert!(parse_args(&args(&["loadgen", "--traces", "0"])).is_err());
        assert!(parse_args(&args(&["loadgen", "--events-per-sec", "-1"])).is_err());
        assert!(parse_args(&args(&["serve", "--bogus"])).is_err());
    }

    /// `--jobs 0` and `--batch 0` are rejected with a clear message on
    /// EVERY subcommand that accepts the flag — one shared parser
    /// helper, one behaviour.
    #[test]
    fn zero_jobs_and_zero_batch_are_rejected_everywhere() {
        let jobs_takers: &[&[&str]] = &[
            &["compare", "t.std"],
            &["batch", "dir"],
            &["generate", "o.std"],
            &["explore", "racy-pair"],
            &["fuzz", "t.std"],
            &["serve"],
        ];
        for base in jobs_takers {
            let mut argv = args(base);
            argv.extend(args(&["--jobs", "0"]));
            let err = parse_args(&argv).unwrap_err();
            assert!(err.0.contains("--jobs must be positive"), "{base:?}: wrong error: {err}");
            // A positive value still parses on the same subcommand.
            let mut argv = args(base);
            argv.extend(args(&["--jobs", "2"]));
            parse_args(&argv).unwrap_or_else(|e| panic!("{base:?} --jobs 2: {e}"));
        }
        let batch_takers: &[&[&str]] = &[
            &["metainfo", "t.std"],
            &["aerodrome", "t.std"],
            &["velodrome", "t.std"],
            &["compare", "t.std"],
            &["batch", "dir"],
            &["validate", "t.std"],
            &["generate", "o.std"],
            &["causal", "t.std"],
            &["serve"],
            &["loadgen"],
        ];
        for base in batch_takers {
            let mut argv = args(base);
            argv.extend(args(&["--batch", "0"]));
            let err = parse_args(&argv).unwrap_err();
            assert!(err.0.contains("--batch must be positive"), "{base:?}: wrong error: {err}");
        }
        // The generators need a positive event budget, thread and lock
        // count: a zero is a usage error, not a panic at generation time.
        let zero_counts: &[(&[&str], &str)] = &[
            (&["generate", "o.std", "--events", "0"], "--events"),
            (&["generate", "o.std", "--threads", "0"], "--threads"),
            (&["generate", "o.std", "--locks", "0"], "--locks"),
            (&["generate", "o.std", "--profile", "convoy", "--events", "0"], "--events"),
            (&["generate", "o.std", "--profile", "nesting", "--events", "0"], "--events"),
            (&["generate", "o.std", "--profile", "xalan", "--events", "0"], "--events"),
            (&["generate", "dir", "--corpus", "2", "--events", "0"], "--events"),
        ];
        for (argv, flag) in zero_counts {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(err.0.contains(&format!("{flag} must be positive")), "{argv:?}: {err}");
        }
    }
}
