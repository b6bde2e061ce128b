//! Threaded-runtime integration: real OS threads (1 splitter + k operator
//! instances over shared memory) must deliver the sequential output under
//! arbitrary interleavings. Streams are kept small — this suite also runs on
//! single-core machines where the threads time-slice.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::Schema;
use spectre_integration::assert_same_output;
use spectre_query::queries::{self, Direction};

#[test]
fn threaded_q1_matches_sequential() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1000, 61), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 3] {
        let report = SpectreEngine::builder(&query)
            .config(SpectreConfig::with_instances(k))
            .threaded()
            .build()
            .run(events.clone());
        assert_same_output(
            &format!("threaded q1 k={k}"),
            &report.complex_events,
            &expected,
        );
        assert_eq!(report.input_events, 1000);
    }
}

#[test]
fn threaded_q3_matches_sequential() {
    let mut schema = Schema::new();
    let gen = RandGenerator::new(RandConfig::small(800, 67), &mut schema);
    let symbols = gen.symbols().to_vec();
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::q3(
        &mut schema,
        symbols[0],
        &symbols[1..4],
        200,
        40,
    ));
    let expected = run_sequential(&query, &events).complex_events;
    let report = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(2))
        .threaded()
        .build()
        .run(events);
    assert_same_output("threaded q3", &report.complex_events, &expected);
}

#[test]
fn threaded_repeated_runs_are_deterministic_in_output() {
    // Thread schedules differ between runs; outputs must not.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(700, 71), &mut schema).collect();
    let query = Arc::new(queries::q2(&mut schema, 60.0, 140.0, 200, 40));
    let expected = run_sequential(&query, &events).complex_events;
    for run in 0..3 {
        let report = SpectreEngine::builder(&query)
            .config(SpectreConfig::with_instances(2))
            .threaded()
            .build()
            .run(events.clone());
        eprintln!("run {run}: metrics = {:?}", report.metrics);
        assert_same_output(&format!("run {run}"), &report.complex_events, &expected);
    }
}

#[test]
fn threaded_matches_sequential_across_batch_sizes_shard_counts_and_lazy_modes() {
    // Deterministic-equivalence matrix for the batched/sharded data path
    // and the lazy dependency tree under real threads: k ∈ {1,2,4,8} ×
    // batch ∈ {1,64,1024} × shards ∈ {1,8} all deliver the sequential
    // output, on any machine and any interleaving. Lazy materialization is
    // racy by nature (clones and pending-attach versions are taken from
    // *live* source state that instances mutate concurrently), which is
    // exactly why it runs under real threads here.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1000, 83), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 4, 8] {
        for batch in [1usize, 64, 1024] {
            for shards in [1usize, 8] {
                let config = SpectreConfig::with_batching(k, batch, shards);
                let report = SpectreEngine::builder(&query)
                    .config(config)
                    .threaded()
                    .build()
                    .run(events.clone());
                assert_same_output(
                    &format!("threaded k={k} batch={batch} shards={shards}"),
                    &report.complex_events,
                    &expected,
                );
            }
        }
    }
}

#[test]
fn threaded_aggregate_metrics_equal_the_sum_of_per_worker_blocks() {
    // Each instance owns a cache-padded counter block for the hot metrics
    // (events processed/suppressed, idle and stalled steps) so k workers
    // never contend on one cache line. The decomposition must stay exact
    // at every instance count: instances route every increment through
    // their own block, so the aggregate snapshot — base residual plus the
    // block sums — equals the plain block sums here, and the per-query
    // share of a single-query session equals the aggregate. Runs under
    // real threads, where a lost or double-counted increment would be a
    // race, not an arithmetic slip.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1000, 83), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 4, 8] {
        let config = SpectreConfig::with_batching(k, 64, 8);
        let mut engine = SpectreEngine::builder(&query)
            .config(config)
            .threaded()
            .build();
        engine.ingest(events.iter().cloned());
        let report = engine.try_finish().expect("fresh session finishes once");
        assert_same_output(&format!("engine k={k}"), &report.complex_events, &expected);
        // Workers are joined after finish, so the block snapshots are
        // final and race-free.
        let workers = engine.worker_metrics();
        assert_eq!(workers.len(), k, "one counter block per instance");
        let m = &report.metrics;
        let sums = workers.iter().fold([0u64; 4], |acc, w| {
            [
                acc[0] + w.events_processed,
                acc[1] + w.events_suppressed,
                acc[2] + w.idle_steps,
                acc[3] + w.stalled_steps,
            ]
        });
        let label = format!("k={k}");
        assert_eq!(sums[0], m.events_processed, "events_processed {label}");
        assert_eq!(sums[1], m.events_suppressed, "events_suppressed {label}");
        assert_eq!(sums[2], m.idle_steps, "idle_steps {label}");
        assert_eq!(sums[3], m.stalled_steps, "stalled_steps {label}");
        assert!(m.events_processed >= events.len() as u64);
        // Single-query session: the query's share of the summable hot
        // counters is the whole aggregate.
        let (_, qm) = report
            .queries
            .iter()
            .map(|(qid, qr)| (*qid, &qr.metrics))
            .next()
            .expect("one deployed query");
        assert_eq!(qm.events_processed, m.events_processed, "{label}");
        assert_eq!(qm.events_suppressed, m.events_suppressed, "{label}");
    }
}

#[test]
fn threaded_reports_plausible_metrics() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(500, 73), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    let report = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(2))
        .threaded()
        .build()
        .run(events);
    let m = &report.metrics;
    assert!(
        m.events_processed >= 500,
        "each event processed at least once"
    );
    assert!(m.windows_retired > 0);
    assert!(m.sched_cycles > 0);
    assert!(report.throughput() > 0.0);
}
