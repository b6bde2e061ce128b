//! SPECTRE end-to-end benchmark.
//!
//! ```text
//! spectre-perfbench --workload <datapath|speculate|server|disorder> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one NYSE stream from the seed, computes the sequential
//! reference output on it, then measures the named workload for the given
//! number of seconds in repeated passes over the stream. Every pass is
//! checked against the reference. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! Per-pass counter records go to standard output before it and to
//! `.bench_out/`. `perfbench/README.md` lists every metric and the
//! end-to-end metric each per-layer one should move.

mod inproc;
mod server;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spectre_baselines::run_sequential;
use spectre_core::{MetricsSnapshot, SpectreConfig, WorkerSnapshot};
use spectre_datasets::{bounded_shuffle, NyseConfig, NyseGenerator};
use spectre_events::{Event, Schema};
use spectre_query::queries::{self, Direction};
use spectre_query::{ComplexEvent, ConsumptionPolicy, Query};

use trace::{SpanId, Tracer};

/// Events per offered chunk: the unit of open-loop scheduling, of
/// `drain_outputs` calls and of traced push spans.
pub const CHUNK: usize = 1024;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A pass that has not finished this long after it started is stalled.
/// (The longest healthy pass, an open-loop `speculate` one, takes 1.4 s.)
pub const PASS_DEADLINE: Duration = Duration::from_secs(5);
/// Timestamp ticks per symbol slot of the NYSE stream (60 000 / 300).
const SLOT_TICKS: u64 = 200;
/// Disorder bound of the `disorder` workload, in symbol slots.
const DISORDER_SLOTS: u64 = 1024;

/// End-to-end metrics, printed with `--trace 0`. Detection latency is
/// reported with the per-layer metrics: on `speculate` its run-to-run
/// spread (0.3 to 0.5 of the median over ten seeds on a 2-core virtual
/// machine) exceeds the largest bound an end-to-end metric may have.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_eps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`; a layer the workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_s", "s"),
    ("server.start_s", "s"),
    ("baselines.sequential_eps", "1/s"),
    ("engine.push_s", "s"),
    ("engine.push_full", "count"),
    ("engine.drain_s", "s"),
    ("engine.drain_calls", "count"),
    ("engine.finish_s", "s"),
    ("splitter.sched_cycles", "count"),
    ("splitter.windows_retired", "count"),
    ("store.windows_opened", "count"),
    ("store.windows_skipped", "count"),
    ("instance.events_processed", "count"),
    ("instance.work_amplification", "ratio"),
    ("instance.events_suppressed", "count"),
    ("instance.idle_steps", "count"),
    ("instance.stalled_steps", "count"),
    ("instance.worker_skew", "ratio"),
    ("tree.versions_created", "count"),
    ("tree.versions_materialized", "count"),
    ("tree.lazy_versions_dropped", "count"),
    ("tree.versions_dropped", "count"),
    ("tree.peak_versions", "count"),
    ("tree.materialized_ratio", "ratio"),
    ("cg.completion_ratio", "ratio"),
    ("version.rollbacks", "count"),
    ("predictor.refreshes", "count"),
    ("predictor.refresh_s", "s"),
    ("reorder.events_reordered", "count"),
    ("reorder.late_dropped", "count"),
    ("reorder.late_admitted", "count"),
    ("reorder.watermarks", "count"),
    ("client.send_s", "s"),
    ("client.finish_s", "s"),
    ("codec.encode_ns_per_event", "ns"),
    ("codec.decode_ns_per_event", "ns"),
    ("server.frames", "count"),
    ("server.credits_granted", "count"),
    ("server.events_per_credit", "ratio"),
    ("server.drain_s", "s"),
    ("server.closed_abnormal", "count"),
    ("server.decode_errors", "count"),
    ("feed.seq_gaps_skipped", "count"),
    ("feed.seq_stale_dropped", "count"),
    ("http.metrics_scrape_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
    ("latency.p50_ms", "ms"),
    ("latency.p90_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("latency.samples", "count"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.uncovered_share", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Datapath,
    Speculate,
    Server,
    Disorder,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "datapath" => Workload::Datapath,
            "speculate" => Workload::Speculate,
            "server" => Workload::Server,
            "disorder" => Workload::Disorder,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Datapath => "datapath",
            Workload::Speculate => "speculate",
            Workload::Server => "server",
            Workload::Disorder => "disorder",
        }
    }

    /// Events per pass.
    fn events(self) -> usize {
        match self {
            Workload::Speculate => 100_000,
            _ => 200_000,
        }
    }

    /// Distinct streams per run, each from its own seed derived from the
    /// run's seed; passes cycle through them. How much speculation a
    /// stream triggers varies strongly between streams, so `speculate`
    /// averages over several.
    fn streams(self) -> u64 {
        match self {
            Workload::Speculate => 8,
            _ => 1,
        }
    }

    /// Open-loop offered rate in events/s (`None`: closed-loop only).
    pub fn open_rate(self) -> Option<f64> {
        match self {
            Workload::Datapath | Workload::Disorder => Some(300_000.0),
            Workload::Speculate => Some(75_000.0),
            Workload::Server => None,
        }
    }

    /// Engine configuration of every session this workload builds.
    pub fn config(self) -> SpectreConfig {
        let config = SpectreConfig::with_batching(2, 64, 8);
        match self {
            Workload::Disorder => config.with_reorder(DISORDER_SLOTS * SLOT_TICKS),
            _ => config,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// One workload's inputs: the query, the stream as offered to the engine
/// and the sequential reference output on the in-order stream.
pub struct Fixture {
    pub schema: Schema,
    pub query: Arc<Query>,
    /// The stream in offer order (shuffled for `disorder`).
    pub offered: Vec<Event>,
    /// Offer position of each event, indexed by sequence number.
    pub position: Vec<usize>,
    pub reference: Vec<ComplexEvent>,
}

/// Generates the workload's query and one stream from `seed`; returns the
/// fixture (its reference output still empty) and, when the offer order
/// differs from it, the in-order stream.
fn generate(workload: Workload, seed: u64) -> (Fixture, Option<Vec<Event>>) {
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: 300,
        leaders: 16,
        events: workload.events(),
        seed,
        ..NyseConfig::default()
    };
    let ordered: Vec<Event> = NyseGenerator::new(config, &mut schema).collect();
    let q1 = |schema: &mut Schema, q| queries::q1(schema, q, 200, Direction::Rising);
    let query = match workload {
        Workload::Speculate => Arc::new(q1(&mut schema, 110)),
        _ => {
            let base = q1(&mut schema, 3);
            Arc::new(
                Query::builder("Q1-NC")
                    .pattern_arc(Arc::clone(base.pattern()))
                    .window(base.window().clone())
                    .selection(base.selection())
                    .consumption(ConsumptionPolicy::None)
                    .build()
                    .expect("Q1 without consumption is a valid query"),
            )
        }
    };
    let (offered, ordered) = match workload {
        Workload::Disorder => (
            bounded_shuffle(&ordered, DISORDER_SLOTS * SLOT_TICKS, seed),
            Some(ordered),
        ),
        _ => (ordered, None),
    };
    let mut position = vec![usize::MAX; offered.len()];
    for (pos, event) in offered.iter().enumerate() {
        let seq = usize::try_from(event.seq()).expect("sequence number fits usize");
        position[seq] = pos;
    }
    assert!(
        position.iter().all(|&p| p != usize::MAX),
        "the generator numbers events densely from 0"
    );
    let fixture = Fixture {
        schema,
        query,
        offered,
        position,
        reference: Vec::new(),
    };
    (fixture, ordered)
}

/// Counts and outcome of one run, shared by every workload.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatched_passes: u64,
    /// `(pass label, stalled call)` of every pass that missed its deadline.
    pub stalls: Vec<(String, &'static str)>,
}

impl Tally {
    /// Scores one pass against the reference: every offered event and
    /// reference output is attempted; missing, extra and never-ingested
    /// items fail.
    pub fn score(
        &mut self,
        reference: &[ComplexEvent],
        got: &[ComplexEvent],
        offered: u64,
        ingested: u64,
    ) {
        self.attempted += offered + reference.len() as u64;
        self.failed += offered.saturating_sub(ingested);
        if got != reference {
            self.mismatched_passes += 1;
            self.failed += mismatch_count(reference, got).max(1);
        }
    }

    /// Scores a pass that missed its deadline: events not yet accepted
    /// and reference outputs not yet delivered fail; what was delivered
    /// must be a prefix of the reference.
    pub fn stall(
        &mut self,
        reference: &[ComplexEvent],
        got: &[ComplexEvent],
        offered: usize,
        accepted: usize,
    ) {
        self.attempted += (offered + reference.len()) as u64;
        self.failed += (offered - accepted + reference.len().saturating_sub(got.len())) as u64;
        if !reference.starts_with(got) {
            self.mismatched_passes += 1;
        }
    }
}

/// Complex events missing from or extra to `reference` (as multisets).
fn mismatch_count(reference: &[ComplexEvent], got: &[ComplexEvent]) -> u64 {
    let mut counts: BTreeMap<&ComplexEvent, i64> = BTreeMap::new();
    for ce in reference {
        *counts.entry(ce).or_default() += 1;
    }
    for ce in got {
        *counts.entry(ce).or_default() -= 1;
    }
    counts.values().map(|c| c.unsigned_abs()).sum()
}

/// Engine counters of one finished pass.
pub struct PassCounters {
    pub metrics: MetricsSnapshot,
    pub workers: Vec<WorkerSnapshot>,
    pub input_events: u64,
}

impl PassCounters {
    /// The per-layer view of the engine counters.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let m = &self.metrics;
        let processed: Vec<u64> = self.workers.iter().map(|w| w.events_processed).collect();
        let skew = match (processed.iter().max(), processed.iter().min()) {
            (Some(&max), Some(&min)) => max as f64 / min.max(1) as f64,
            _ => 0.0,
        };
        vec![
            ("splitter.sched_cycles", m.sched_cycles as f64),
            ("splitter.windows_retired", m.windows_retired as f64),
            ("store.windows_opened", m.store_windows_opened as f64),
            ("store.windows_skipped", m.windows_skipped as f64),
            ("instance.events_processed", m.events_processed as f64),
            (
                "instance.work_amplification",
                ratio(m.events_processed, self.input_events),
            ),
            ("instance.events_suppressed", m.events_suppressed as f64),
            ("instance.idle_steps", m.idle_steps as f64),
            ("instance.stalled_steps", m.stalled_steps as f64),
            ("instance.worker_skew", skew),
            ("tree.versions_created", m.versions_created as f64),
            ("tree.versions_materialized", m.versions_materialized as f64),
            ("tree.lazy_versions_dropped", m.lazy_versions_dropped as f64),
            ("tree.versions_dropped", m.versions_dropped as f64),
            ("tree.peak_versions", m.max_tree_versions as f64),
            (
                "tree.materialized_ratio",
                ratio(
                    m.versions_materialized,
                    m.versions_materialized + m.lazy_versions_dropped,
                ),
            ),
            ("cg.completion_ratio", m.cg_completion_ratio()),
            ("version.rollbacks", m.rollbacks as f64),
            ("predictor.refreshes", m.predictor_refreshes as f64),
            (
                "predictor.refresh_s",
                m.predictor_refresh_nanos as f64 / 1e9,
            ),
            ("reorder.events_reordered", m.events_reordered as f64),
            ("reorder.late_dropped", m.late_events_dropped as f64),
            ("reorder.late_admitted", m.late_events_admitted as f64),
            ("reorder.watermarks", m.watermarks_advanced as f64),
        ]
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    ratio_f(num as f64, den as f64)
}

/// `num / den`, 0 when `den` is 0 (e.g. a run whose every pass stalled).
fn ratio_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p ∈ [0, 1]` of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Collects per-pass values of named metrics; reports their medians.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.push(name, value);
        }
    }

    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(k, v)| (*k, median(v))).collect()
    }
}

/// Everything a workload's run hands back for printing.
pub struct RunResult {
    pub tally: Tally,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// `throughput_eps` is events ÷ seconds over all timed closed-loop
    /// passes (`sums` holds the untraced and the traced passes'
    /// `(events, seconds)`); latencies are pooled over passes; every other
    /// metric is the median of its per-pass samples.
    pub fn new(tally: Tally, samples: &Samples, sums: [(f64, f64); 2], latencies: &[f64]) -> Self {
        let mut layers = samples.medians();
        let [untraced, traced] = sums;
        let end_to_end = BTreeMap::from([
            (
                "throughput_eps",
                ratio_f(untraced.0 + traced.0, untraced.1 + traced.1),
            ),
            ("setup_s", layers["setup_s"]),
        ]);
        layers.insert("latency.p50_ms", percentile(latencies, 0.50));
        layers.insert("latency.p90_ms", percentile(latencies, 0.90));
        layers.insert("latency.p99_ms", percentile(latencies, 0.99));
        layers.insert("latency.samples", latencies.len() as f64);
        if untraced.1 > 0.0 && traced.1 > 0.0 {
            let overhead = ratio_f(untraced.0, untraced.1) / ratio_f(traced.0, traced.1) - 1.0;
            layers.insert("trace.overhead_pct", 100.0 * overhead);
        }
        RunResult {
            tally,
            end_to_end,
            layers,
        }
    }
}

/// Shared run context for the workloads.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Per-pass record lines, written to `.bench_out/` at exit.
    pub records: Vec<String>,
}

impl Bench {
    /// Generates the run's streams [`SETUP_REPS`] times, each followed
    /// by `build` on the first (the session build or server start, which
    /// it also tears down untimed), then computes each stream's reference
    /// output. Returns the fixtures and the set-up time samples.
    pub fn set_up(
        &self,
        parent: SpanId,
        mut build: impl FnMut(&Fixture, SpanId) -> Duration,
    ) -> (Vec<Fixture>, Samples) {
        let mut samples = Samples::default();
        let mut streams = Vec::new();
        for _ in 0..SETUP_REPS {
            streams.clear();
            let start = Instant::now();
            let k = self.workload.streams();
            streams = (0..k)
                .map(|i| {
                    self.tracer.span(parent, "datasets.generate", || {
                        generate(self.workload, self.seed.wrapping_mul(k).wrapping_add(i))
                    })
                })
                .collect();
            let generate_s = start.elapsed().as_secs_f64();
            let build_s = build(&streams[0].0, parent).as_secs_f64();
            samples.push("setup_s", generate_s + build_s);
            samples.push("datasets.generate_s", generate_s);
        }
        let start = Instant::now();
        let mut events = 0;
        let fixtures = streams
            .into_iter()
            .map(|(mut fixture, ordered)| {
                let ordered = ordered.as_ref().unwrap_or(&fixture.offered);
                let reference = self.tracer.span(parent, "baselines.sequential", || {
                    run_sequential(&fixture.query, ordered).complex_events
                });
                events += ordered.len();
                fixture.reference = reference;
                fixture
            })
            .collect();
        samples.push(
            "baselines.sequential_eps",
            events as f64 / start.elapsed().as_secs_f64(),
        );
        (fixtures, samples)
    }

    /// Keeps one per-pass record line and echoes it to standard output.
    pub fn record(&mut self, line: String) {
        println!("{line}");
        self.records.push(line);
    }
}

/// Renders `fields` as a flat JSON object.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: spectre-perfbench --workload <datapath|speculate|server|disorder> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            std::process::exit(2);
        }
    };
    let mut bench = Bench {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        tracer: Tracer::new(args.trace),
        records: Vec::new(),
    };
    let run_start = Instant::now();
    let root = bench.tracer.open();
    let mut result = match args.workload {
        Workload::Server => server::run(&mut bench, root),
        _ => inproc::run(&mut bench, root),
    };
    bench.tracer.close(root, trace::ROOT, "bench", run_start);
    let wall = run_start.elapsed().as_secs_f64();
    result.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    let tally = &result.tally;
    result
        .layers
        .insert("error_rate", ratio(tally.failed, tally.attempted));

    if bench.tracer.enabled() {
        let self_times = bench.tracer.self_times(root);
        let uncovered: f64 = self_times
            .iter()
            .filter(|(layer, _)| layer.starts_with("bench"))
            .map(|(_, s)| s)
            .sum();
        result
            .layers
            .insert("trace.uncovered_share", uncovered / wall);
        println!("self time by layer over the {wall:.3} s run:");
        for (layer, secs) in &self_times {
            println!(
                "  {layer:<22} {secs:>9.4} s  {:>6.2} %",
                100.0 * secs / wall
            );
        }
        println!(
            "  uncovered remainder {uncovered:.4} s ({:.2} %); tracing overhead {:.2} %",
            100.0 * uncovered / wall,
            result
                .layers
                .get("trace.overhead_pct")
                .copied()
                .unwrap_or(0.0)
        );
    }
    for (call_site, call) in &tally.stalls {
        println!("STALL: {call_site} missed its deadline inside {call}");
    }
    write_records(&bench, args.trace);

    let (names, values) = if args.trace {
        (PER_LAYER, &result.layers)
    } else {
        (END_TO_END, &result.end_to_end)
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = tally.mismatched_passes == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    let _ = std::io::stdout().flush();
    if !correct {
        eprintln!(
            "output mismatch against the sequential reference in {} pass(es)",
            tally.mismatched_passes
        );
    }
    // A stalled call may still be spinning on another thread; exiting the
    // process ends it.
    std::process::exit(if correct { 0 } else { 1 });
}

/// Writes the per-pass records and, when traced, the spans under
/// `.bench_out/`.
fn write_records(bench: &Bench, traced: bool) {
    let dir = std::path::Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        bench.workload.name(),
        bench.seed,
        u8::from(traced)
    );
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut body = bench.records.join("\n");
        body.push('\n');
        std::fs::write(dir.join(format!("{stem}.passes.jsonl")), body)?;
        if traced {
            bench
                .tracer
                .write(&dir.join(format!("{stem}.spans.jsonl")))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write records to {}: {e}", dir.display());
    }
}
