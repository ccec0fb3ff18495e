//! Differential tests for the batch seam: `next_batch` must be
//! indistinguishable from per-event `next_event` on every source —
//! byte-identical event sequences, identical name tables, and identical
//! error positions (parse-error line numbers included) — across
//! `StdReader`, `GenSource` and all workload shapes, at awkward batch
//! sizes.

use aerodrome_suite::pipeline::validate_batch;
use aerodrome_suite::prelude::*;
use proptest::prelude::*;
use tracelog::stream::EventBatch;
use workloads::shapes;

/// Drains a source per-event.
fn collect_per_event(source: &mut dyn EventSource) -> Vec<Event> {
    let mut events = Vec::new();
    while let Some(e) = source.next_event().expect("source cannot fail") {
        events.push(e);
    }
    events
}

/// Drains a source through batches of the given target size.
fn collect_batched(source: &mut dyn EventSource, target: usize) -> Vec<Event> {
    let mut batch = EventBatch::with_target(target);
    let mut events = Vec::new();
    while source.next_batch(&mut batch).expect("source cannot fail") > 0 {
        events.extend_from_slice(batch.events());
    }
    events
}

#[test]
fn generator_batches_equal_per_event_streaming() {
    for cfg in [
        GenConfig { events: 4_000, ..GenConfig::default() },
        GenConfig { events: 4_000, violation_at: Some(0.4), ..GenConfig::default() },
        GenConfig { events: 6_000, retention: true, probe_period: 50, ..GenConfig::default() },
        GenConfig { events: 700, threads: 1, ..GenConfig::default() },
    ] {
        for target in [1, 7, 4096] {
            let per_event = collect_per_event(&mut GenSource::new(&cfg));
            let batched = collect_batched(&mut GenSource::new(&cfg), target);
            assert_eq!(per_event, batched, "target {target}");
        }
    }
}

#[test]
fn shape_batches_equal_per_event_streaming() {
    for name in shapes::SHAPE_NAMES {
        let cfg = GenConfig {
            events: 3_000,
            threads: if name == "fanout" { 17 } else { 5 },
            ..GenConfig::default()
        };
        for target in [1, 5, 113, 4096] {
            let mut a = shapes::source(name, &cfg).expect("known shape");
            let mut b = shapes::source(name, &cfg).expect("known shape");
            let per_event = collect_per_event(a.as_mut());
            let batched = collect_batched(b.as_mut(), target);
            assert_eq!(per_event, batched, "{name} target {target}");
            assert!(per_event.len() >= 3_000, "{name}");
        }
    }
}

/// A malformed line must surface with the same line number and after
/// the same event prefix in both iteration modes.
#[test]
fn parse_errors_are_identical_across_modes() {
    let trace = generate(&GenConfig { events: 600, ..GenConfig::default() });
    let mut text = write_trace(&trace);
    let insert_at = text.lines().take(123).map(|l| l.len() + 1).sum::<usize>();
    text.insert_str(insert_at, "t1|frobnicate|999\n");

    let mut per_event = StdReader::new(text.as_bytes());
    let mut events_a = Vec::new();
    let err_a = loop {
        match per_event.next_event() {
            Ok(Some(e)) => events_a.push(e),
            Ok(None) => panic!("must hit the malformed line"),
            Err(e) => break e,
        }
    };

    let mut batched = StdReader::new(text.as_bytes());
    let mut batch = EventBatch::with_target(64);
    let mut events_b = Vec::new();
    let err_b = loop {
        match batched.next_batch(&mut batch) {
            Ok(0) => panic!("must hit the malformed line"),
            Ok(_) => events_b.extend_from_slice(batch.events()),
            Err(e) => {
                // On error the batch holds the valid prefix.
                events_b.extend_from_slice(batch.events());
                break e;
            }
        }
    };

    assert_eq!(events_a, events_b);
    match (err_a, err_b) {
        (SourceError::Parse(a), SourceError::Parse(b)) => {
            assert_eq!(a.line, b.line, "error line numbers must match");
            assert_eq!(a.line, 124);
        }
        other => panic!("unexpected error pair {other:?}"),
    }
}

/// The validator rejects the same event per event (`Validator::observe`)
/// and per batch (`validate_batch`), the batch keeps exactly the
/// well-formed prefix, and the reader can still attribute that event to
/// its input line even though the batch read ahead.
#[test]
fn validation_errors_are_identical_across_modes() {
    let log = "t1|begin|0\nt1|w(x)|1\nt2|r(x)|2\nt1|rel(m)|3\nt1|end|4\n";

    let mut per_event = StdReader::new(log.as_bytes());
    let mut validator = Validator::new();
    let mut events_a = Vec::new();
    let err_a = loop {
        let event = per_event.next_event().unwrap().expect("must hit the ill-formed event");
        match validator.observe(event) {
            Ok(()) => events_a.push(event),
            Err(e) => break e,
        }
    };

    let mut batched = StdReader::new(log.as_bytes());
    let mut batch = EventBatch::new();
    batched.next_batch(&mut batch).unwrap();
    let err_b = validate_batch(&mut Validator::new(), &mut batch)
        .expect("the ill-formed event must fail the batch");
    assert_eq!(events_a.as_slice(), batch.events(), "well-formed prefix must match");
    assert_eq!(err_a, err_b);
    assert_eq!(batched.line_of(err_b.event()), Some(4), "event attributed to its own line");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random workloads and batch sizes: the generator, the `.std`
    /// round-trip through `StdReader`, and every shape agree between
    /// modes; `StdReader` name tables match too.
    #[test]
    fn batched_iteration_is_equivalent_on_random_workloads(
        seed in 0u64..1_000,
        threads in 1usize..8,
        events in 200usize..2_000,
        target in 1usize..600,
        shape in 0usize..4,
    ) {
        let cfg = GenConfig { seed, threads, events, ..GenConfig::default() };
        let (per_event, batched) = match shape {
            0 => (
                collect_per_event(&mut GenSource::new(&cfg)),
                collect_batched(&mut GenSource::new(&cfg), target),
            ),
            _ => {
                let name = shapes::SHAPE_NAMES[shape - 1];
                let mut a = shapes::source(name, &cfg).expect("known shape");
                let mut b = shapes::source(name, &cfg).expect("known shape");
                (collect_per_event(a.as_mut()), collect_batched(b.as_mut(), target))
            }
        };
        prop_assert_eq!(&per_event, &batched);

        // Round-trip the events through the text format and compare the
        // reader's two modes, names included.
        let mut text = Vec::new();
        let mut replay = GenSource::new(&cfg); // names only matter for mode parity
        let _ = tracelog::stream::copy_events(&mut replay, &mut text).unwrap();
        let mut a = StdReader::new(text.as_slice());
        let mut b = StdReader::new(text.as_slice());
        let ea = collect_per_event(&mut a);
        let eb = collect_batched(&mut b, target);
        prop_assert_eq!(ea, eb);
        prop_assert_eq!(a.names().threads, b.names().threads);
        prop_assert_eq!(a.names().locks, b.names().locks);
        prop_assert_eq!(a.names().vars, b.names().vars);
    }
}
