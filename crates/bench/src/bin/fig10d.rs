//! Figure 10(d): ground-truth consumption-group completion probability of Q1
//! vs. pattern-size/window-size ratio.
//!
//! Computed exactly as in the paper (§4.2.1): a sequential pass without
//! speculation; completed consumption groups divided by created consumption
//! groups.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_bench::{bench_events, env_knob, nyse_stream, print_row};
use spectre_query::queries::{self, Direction};

fn main() {
    let ws: u64 = env_knob("SPECTRE_BENCH_WS", 800);
    let events_n = bench_events();
    println!("# Figure 10(d): Q1 ground-truth completion probability vs ratio");
    println!("# ws = {ws}, events = {events_n}");
    let widths = vec![8usize, 8, 16, 12, 12];
    print_row(
        &[
            "ratio".into(),
            "q".into(),
            "completion_%".into(),
            "cgs".into(),
            "complex".into(),
        ],
        &widths,
    );
    // This figure *is* the sequential ground-truth pass, which computes
    // window ranges over the full slice — the stream is materialized once
    // and reused for every ratio row (the throughput figures stream off
    // the generator instead).
    let (mut schema, events) = nyse_stream(events_n, 42);
    for ratio in [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32] {
        let q = ((ratio * ws as f64).round() as usize).max(1);
        let query = Arc::new(queries::q1(&mut schema, q, ws, Direction::Rising));
        let r = run_sequential(&query, &events);
        print_row(
            &[
                format!("{ratio}"),
                format!("{q}"),
                format!("{:.1}", r.completion_probability() * 100.0),
                format!("{}", r.cgs_created),
                format!("{}", r.cgs_completed),
            ],
            &widths,
        );
    }
}
