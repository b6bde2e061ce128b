//! Differential tests: the SPECTRE simulation runtime must produce exactly
//! the sequential-reference output (paper §2.3: "deliver exactly those
//! complex events that would be produced in sequential processing; in
//! particular, no false-positive and false-negatives shall occur") for all
//! of the paper's queries, both datasets and a sweep of parallelism
//! degrees, predictors and configuration corner cases.

use std::sync::Arc;

use spectre_core::{PredictorKind, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::Schema;
use spectre_integration::{assert_same_output, assert_sim_matches_sequential};
use spectre_query::queries::{self, Direction};

#[test]
fn q1_on_nyse_matches_sequential_for_all_k() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(3000, 7), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 200, Direction::Rising));
    assert_sim_matches_sequential(&query, &events, &[1, 2, 4, 8]);
}

#[test]
fn q1_falling_on_nyse_matches_sequential() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2000, 11), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 150, Direction::Falling));
    assert_sim_matches_sequential(&query, &events, &[1, 4]);
}

#[test]
fn q1_large_pattern_low_completion_matches_sequential() {
    // Large q / small window → most consumption groups abandon.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2500, 3), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 30, 100, Direction::Rising));
    assert_sim_matches_sequential(&query, &events, &[1, 8]);
}

#[test]
fn q2_on_nyse_matches_sequential_for_all_k() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2500, 21), &mut schema).collect();
    let query = Arc::new(queries::q2(&mut schema, 60.0, 140.0, 400, 80));
    assert_sim_matches_sequential(&query, &events, &[1, 2, 4, 8]);
}

#[test]
fn q2_tight_limits_matches_sequential() {
    // Narrow band → patterns almost never complete ("0 cplx" column of
    // Fig. 10(b)).
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1500, 5), &mut schema).collect();
    let query = Arc::new(queries::q2(&mut schema, 99.0, 101.0, 300, 50));
    assert_sim_matches_sequential(&query, &events, &[1, 4]);
}

#[test]
fn q3_on_rand_matches_sequential_for_all_k() {
    let mut schema = Schema::new();
    let gen = RandGenerator::new(RandConfig::small(2000, 17), &mut schema);
    let symbols = gen.symbols().to_vec();
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::q3(
        &mut schema,
        symbols[0],
        &symbols[1..4],
        250,
        50,
    ));
    assert_sim_matches_sequential(&query, &events, &[1, 2, 4, 8]);
}

#[test]
fn q3_large_set_matches_sequential() {
    let mut schema = Schema::new();
    let gen = RandGenerator::new(RandConfig::small(1500, 29), &mut schema);
    let symbols = gen.symbols().to_vec();
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::q3(
        &mut schema,
        symbols[0],
        &symbols[1..11],
        400,
        100,
    ));
    assert_sim_matches_sequential(&query, &events, &[1, 8]);
}

#[test]
fn qe_on_rand_matches_sequential() {
    let mut schema = Schema::new();
    // QE needs symbols literally named "A"/"B": reuse the RAND generator's
    // vocabulary by querying two of its symbols instead.
    let gen = RandGenerator::new(RandConfig::small(1200, 31), &mut schema);
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::qe(&mut schema, 10_000));
    // The generated stream has no "A"/"B" symbols; windows never open.
    // Still a valid differential case (must be empty on both sides).
    assert_sim_matches_sequential(&query, &events, &[1, 4]);
}

#[test]
fn fixed_predictors_do_not_change_output() {
    // Wrong probability predictions cost throughput, never correctness
    // (paper §4.2.2).
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1500, 41), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for p in [0.0, 0.2, 0.5, 0.8, 1.0] {
        let config = SpectreConfig {
            instances: 4,
            predictor: PredictorKind::Fixed(p),
            ..Default::default()
        };
        let report = SpectreEngine::builder(&query)
            .config(config)
            .simulated()
            .build()
            .run(events.clone());
        assert_same_output(&format!("fixed p={p}"), &report.complex_events, &expected);
    }
}

#[test]
fn aggressive_consistency_check_frequency_is_transparent() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1200, 43), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 120, Direction::Rising));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for freq in [1u32, 7, 1024] {
        let config = SpectreConfig {
            instances: 4,
            consistency_check_freq: freq,
            ..Default::default()
        };
        let report = SpectreEngine::builder(&query)
            .config(config)
            .simulated()
            .build()
            .run(events.clone());
        assert_same_output(
            &format!("check_freq={freq}"),
            &report.complex_events,
            &expected,
        );
    }
}

#[test]
fn tiny_tree_budget_is_transparent() {
    // Back-pressure on the speculative fan-out must not change the output.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1200, 47), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 120, Direction::Rising));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for budget in [2usize, 8, 64] {
        let config = SpectreConfig {
            instances: 4,
            max_tree_versions: budget,
            ..Default::default()
        };
        let report = SpectreEngine::builder(&query)
            .config(config)
            .simulated()
            .build()
            .run(events.clone());
        assert_same_output(
            &format!("max_tree_versions={budget}"),
            &report.complex_events,
            &expected,
        );
    }
}

#[test]
fn slow_ingestion_is_transparent() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(800, 53), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for ingest in [1usize, 3, 1000] {
        let config = SpectreConfig {
            instances: 3,
            ingest_per_cycle: ingest,
            ..Default::default()
        };
        let report = SpectreEngine::builder(&query)
            .config(config)
            .simulated()
            .build()
            .run(events.clone());
        assert_same_output(
            &format!("ingest_per_cycle={ingest}"),
            &report.complex_events,
            &expected,
        );
    }
}

#[test]
fn checkpointing_is_transparent() {
    // §3.3 ablation: recovering from checkpoints instead of the window
    // start must never change the output, whatever the interval.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1500, 59), &mut schema).collect();
    let query = Arc::new(queries::q2(&mut schema, 60.0, 140.0, 300, 60));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for freq in [Some(8u32), Some(64), Some(1024), None] {
        let config = SpectreConfig {
            instances: 4,
            checkpoint_freq: freq,
            ..Default::default()
        };
        let report = SpectreEngine::builder(&query)
            .config(config)
            .simulated()
            .build()
            .run(events.clone());
        assert_same_output(
            &format!("checkpoint_freq={freq:?}"),
            &report.complex_events,
            &expected,
        );
    }
}

#[test]
fn empty_stream_produces_empty_output() {
    let mut schema = Schema::new();
    let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    let report = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(4))
        .simulated()
        .build()
        .run(vec![]);
    assert!(report.complex_events.is_empty());
}

#[test]
fn single_event_stream_terminates() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1, 1), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    assert_sim_matches_sequential(&query, &events, &[1, 4]);
}
