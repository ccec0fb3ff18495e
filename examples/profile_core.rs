//! Internal profiling driver: runs one clock core over one shape many
//! times. Usage: `profile_core [pooled|cloned] [shape] [reps]`.

use aerodrome::optimized::{ClonedOptimizedChecker, OptimizedChecker};
use aerodrome::run_checker;
use workloads::GenConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let core = args.get(1).map_or("pooled", String::as_str).to_owned();
    let shape = args.get(2).map_or("fanout", String::as_str).to_owned();
    let reps: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(50);
    let cfg = GenConfig {
        seed: 11,
        threads: if shape == "fanout" { 33 } else { 8 },
        events: std::env::var("EVENTS").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000),
        ..GenConfig::default()
    };
    let trace =
        workloads::shapes::collect(&shape, &cfg).unwrap_or_else(|| workloads::generate(&cfg));
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let outcome = match core.as_str() {
            "cloned" => run_checker(&mut ClonedOptimizedChecker::new(), &trace),
            _ => run_checker(&mut OptimizedChecker::new(), &trace),
        };
        assert!(!outcome.is_violation());
    }
    println!("{core}/{shape}: {:?} for {reps} reps", t0.elapsed());
}
