//! Checkpointing ablation (paper §3.3): "Instead of reprocessing a window
//! version from the start in case of an inconsistency, it could also be
//! recovered from an intermediate checkpoint. However, when implementing
//! that approach, we realized that the overhead in periodically
//! checkpointing all window versions is much higher than the gain from
//! recovering from checkpoints."
//!
//! This binary makes the claim measurable: it runs a rollback-prone
//! workload (Q2's Kleene pattern with overlapping windows at high k) under
//! rollback-to-start and under several checkpoint intervals, reporting
//! virtual rounds (work), wall time, rollbacks, snapshots taken and
//! restores served.

use std::sync::Arc;
use std::time::Instant;

use spectre_bench::{bench_events, env_knob, nyse_stream, print_row};
use spectre_core::{SpectreConfig, SpectreEngine};
use spectre_query::queries;

fn main() {
    let ws: u64 = env_knob("SPECTRE_BENCH_WS", 800);
    let events_n = bench_events();
    let k: usize = env_knob("SPECTRE_BENCH_K", 16);

    println!("# §3.3 ablation: rollback-to-start vs checkpoint recovery");
    println!("# NYSE, ws = {ws}, k = {k}, events = {events_n}");
    println!(
        "# Q1 (short matches → frequent clean cuts) and Q2 (Kleene keeps \
         matches open → rare cuts)"
    );
    let header: Vec<String> = [
        "query",
        "variant",
        "rounds",
        "wall_ms",
        "rollbacks",
        "snapshots",
        "restores",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(12)).collect();
    print_row(&header, &widths);

    let variants: Vec<(String, Option<u32>)> = std::iter::once(("restart".into(), None))
        .chain(
            [16u32, 64, 256]
                .into_iter()
                .map(|f| (format!("cp-{f}"), Some(f))),
        )
        .collect();

    for query_name in ["Q1", "Q2"] {
        for (name, freq) in &variants {
            let (mut schema, events) = nyse_stream(events_n, 42);
            let q = ((0.01 * ws as f64) as usize).max(1);
            let query = match query_name {
                "Q1" => Arc::new(queries::q1(&mut schema, q, ws, Default::default())),
                _ => Arc::new(queries::q2(&mut schema, 60.0, 140.0, ws, ws / 8)),
            };
            let config = SpectreConfig {
                instances: k,
                checkpoint_freq: *freq,
                ..Default::default()
            };
            let t = Instant::now();
            let report = SpectreEngine::builder(&query)
                .config(config)
                .simulated()
                .build()
                .run(events);
            let wall = t.elapsed().as_secs_f64() * 1e3;
            let m = &report.metrics;
            print_row(
                &[
                    query_name.to_string(),
                    name.clone(),
                    format!("{}", report.rounds.unwrap_or(0)),
                    format!("{wall:.0}"),
                    format!("{}", m.rollbacks),
                    format!("{}", m.checkpoints_taken),
                    format!("{}", m.checkpoint_restores),
                ],
                &widths,
            );
        }
    }
}
