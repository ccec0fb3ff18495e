//! In-process half of the `rapid` benchmark; `run.py` drives it.
//!
//! ```text
//! rapidbench setup  --workload W --seed N --dir D   generate inputs + ground truth
//! rapidbench ladder --workload W --dir D            traced layer ladder (offline workloads)
//! rapidbench warm   --addr A --dir D                warm a running `rapid serve`
//! rapidbench serve  --addr A --dir D --sat-seconds S --paced-seconds P [--traced]
//! ```
//!
//! Each subcommand prints one JSON object on stdout and exits non-zero
//! with a message on stderr when it fails.

mod inputs;
mod ladder;
mod online;
mod timed;

use std::path::PathBuf;

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?.parse().map_err(|_| format!("{name} needs a number"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| {
        let dir = PathBuf::from(flag(&args, "--dir")?);
        match args.first().map(String::as_str) {
            Some("setup") => {
                inputs::setup(flag(&args, "--workload")?, number(&args, "--seed")?, &dir)
            }
            Some("ladder") => ladder::run(flag(&args, "--workload")?, &dir),
            Some("warm") => online::warm(flag(&args, "--addr")?, &dir),
            Some("serve") => online::run(
                flag(&args, "--addr")?,
                &dir,
                number(&args, "--sat-seconds")?,
                number(&args, "--paced-seconds")?,
                args.iter().any(|a| a == "--traced"),
            ),
            _ => Err("usage: rapidbench setup|ladder|warm|serve …".to_owned()),
        }
    })();
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("rapidbench: {e}");
            std::process::exit(1);
        }
    }
}
