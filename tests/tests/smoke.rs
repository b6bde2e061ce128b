//! Deterministic end-to-end smoke test: the speculative simulation runtime
//! must reproduce the sequential reference output exactly on a small seeded
//! NYSE stream, for several instance counts. This is the fastest full pass
//! through ingestion → windowing → matching → speculation → output, and the
//! first test to look at when the engine regresses wholesale.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_integration::{assert_same_output, assert_sim_matches_sequential};
use spectre_query::queries::{self, Direction};

#[test]
fn sim_matches_sequential_on_small_nyse() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2_000, 42), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 120, Direction::Rising));

    // The reference output must be non-trivial, otherwise the equality
    // below would pass vacuously on an engine that drops everything.
    let expected = run_sequential(&query, &events).complex_events;
    assert!(
        !expected.is_empty(),
        "seeded NYSE stream should produce complex events"
    );

    assert_sim_matches_sequential(&query, &events, &[1, 2, 4, 8]);
}

#[test]
fn sim_matches_sequential_across_batch_sizes_shard_counts_and_lazy_modes() {
    // The batched splitter hand-off, the sharded window store and the lazy
    // dependency tree are pure mechanics: k ∈ {1,2,4,8} × batch ∈
    // {1,64,1024} × shards ∈ {1,8} all reproduce the sequential reference
    // exactly (batch 1 / shards 1 is the original event-at-a-time,
    // single-lock engine).
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2_000, 42), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 120, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());

    for k in [1usize, 2, 4, 8] {
        for batch in [1usize, 64, 1024] {
            for shards in [1usize, 8] {
                let config = SpectreConfig::with_batching(k, batch, shards);
                let report = SpectreEngine::builder(&query)
                    .config(config)
                    .simulated()
                    .build()
                    .run(events.clone());
                assert_same_output(
                    &format!("sim k={k} batch={batch} shards={shards}"),
                    &report.complex_events,
                    &expected,
                );
            }
        }
    }
}

#[test]
fn lazy_tree_clones_only_scheduled_branches() {
    // The O(1)-creation claim, observed end to end on an
    // abandonment-dominant workload (q/ws = 0.5, the paper's high-ratio
    // regime where most partial matches fail): the engine accounts every
    // skipped clone in `lazy_versions_dropped`.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2_000, 42), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 60, 120, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;

    // k = 1: only the root is ever scheduled, so no branch materializes
    // through scheduling — abandoned groups drop their thunks for free and
    // only completed groups force a clone. This is where the O(1) claim
    // is sharpest.
    let report = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(1))
        .simulated()
        .build()
        .run(events);
    assert_same_output("sim k=1", &report.complex_events, &expected);

    let lm = &report.metrics;
    assert!(
        lm.lazy_versions_dropped > 0,
        "abandoned groups must drop their unscheduled branches for free"
    );
    assert!(
        lm.versions_materialized <= lm.versions_created,
        "materializations are a subset of creations"
    );
}

#[test]
fn splitter_feeds_identical_event_runs_for_every_batch_size() {
    // Beyond output equality: the per-window event sequences the splitter
    // hands to the instances are byte-identical for every batch size, so
    // a processed-events metric over a consumption-free query (nothing
    // suppressed, no speculation) must agree exactly with the stream.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1_500, 7), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 100, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;

    let mut baseline: Option<Vec<String>> = None;
    for batch in [1usize, 7, 64, 1024] {
        let config = SpectreConfig::with_batching(2, batch, 8);
        let report = SpectreEngine::builder(&query)
            .config(config)
            .simulated()
            .build()
            .run(events.clone());
        assert_same_output(&format!("batch={batch}"), &report.complex_events, &expected);
        let rendered = spectre_integration::fmt_all(&report.complex_events);
        match &baseline {
            None => baseline = Some(rendered),
            Some(b) => assert_eq!(&rendered, b, "batch={batch} diverged from batch=1"),
        }
    }
}
