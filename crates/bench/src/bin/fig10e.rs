//! Figure 10(e): ground-truth consumption-group completion probability of Q2
//! vs. average-pattern-size/window-size ratio (sequential pass, as in the
//! paper §4.2.1; band construction as in `fig10b`).

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_bench::{bench_events, env_knob, nyse_stream, print_row};
use spectre_query::queries::{self, StockVocab};

fn quantile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let ws: u64 = env_knob("SPECTRE_BENCH_WS", 800);
    let slide = (ws / 8).max(1);
    let events_n = bench_events();

    // This figure *is* the sequential ground-truth pass over the full
    // slice — the one stream is materialized once and reused for the
    // quantile bands and every band row (the throughput figures stream
    // off the generator instead).
    let (mut schema0, stream0) = nyse_stream(events_n, 42);
    let vocab = StockVocab::install(&mut schema0);
    let mut closes: Vec<f64> = stream0
        .iter()
        .filter_map(|e| e.f64(vocab.close_price))
        .collect();
    closes.sort_by(f64::total_cmp);

    println!("# Figure 10(e): Q2 ground-truth completion probability vs ratio");
    println!("# ws = {ws}, slide = {slide}, events = {events_n}");
    let widths = vec![10usize, 10, 10, 16, 12, 12];
    print_row(
        &[
            "band".into(),
            "avg_len".into(),
            "ratio".into(),
            "completion_%".into(),
            "cgs".into(),
            "complex".into(),
        ],
        &widths,
    );
    let mut bands: Vec<(String, f64, f64)> = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.45]
        .iter()
        .map(|&half| {
            (
                format!(
                    "q{:02.0}-q{:02.0}",
                    (0.5 - half) * 100.0,
                    (0.5 + half) * 100.0
                ),
                quantile(&closes, 0.5 - half),
                quantile(&closes, 0.5 + half),
            )
        })
        .collect();
    bands.reverse(); // widest (largest patterns) last, like the paper's x-axis
    bands.push((
        "0cplx".into(),
        quantile(&closes, 0.0) - 1.0,
        quantile(&closes, 1.0) + 1.0,
    ));

    for (name, lower, upper) in bands {
        let query = Arc::new(queries::q2(&mut schema0, lower, upper, ws, slide));
        let r = run_sequential(&query, &stream0);
        let avg = if r.complex_events.is_empty() {
            f64::NAN
        } else {
            r.complex_events.iter().map(|c| c.len() as f64).sum::<f64>()
                / r.complex_events.len() as f64
        };
        print_row(
            &[
                name,
                format!("{avg:.0}"),
                format!("{:.3}", avg / ws as f64),
                format!("{:.1}", r.completion_probability() * 100.0),
                format!("{}", r.cgs_created),
                format!("{}", r.cgs_completed),
            ],
            &widths,
        );
    }
}
