//! The in-process workloads (`datapath`, `speculate`, `disorder`): the
//! benchmark feeds a threaded `SpectreEngine` session itself, in a
//! closed-loop phase (as fast as `push` accepts) and then an open-loop
//! phase (chunks offered on a fixed schedule).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use spectre_core::{PushResult, QueryId, Report, SpectreEngine, WorkerSnapshot};
use spectre_events::Event;
use spectre_query::ComplexEvent;

use crate::trace::{SpanId, Tracer};
use crate::{
    json_object, percentile, Bench, Fixture, PassCounters, RunResult, Tally, Workload, CHUNK,
    PASS_DEADLINE,
};

/// Share of the measured seconds spent in the closed-loop phase; the open
/// loop gets the rest, the larger share because `speculate` yields only
/// about 35 latency samples per 100 k events.
const CLOSED_SHARE: f64 = 0.4;

#[derive(Debug, Clone, Copy)]
enum Load {
    Closed,
    Open { rate: f64 },
}

/// What one pass over the stream measured.
#[derive(Default)]
struct Pass {
    /// Session build to `finish` return.
    wall_s: f64,
    accepted: usize,
    push_full: u64,
    drain_calls: u64,
    outputs: Vec<ComplexEvent>,
    latencies_ms: Vec<f64>,
    lag_max_ms: f64,
    counters: Option<PassCounters>,
    /// The call the pass was inside when it missed its deadline.
    stall: Option<&'static str>,
    /// A stalled call is still running on a helper thread.
    abandoned: bool,
}

impl Pass {
    /// Takes delivered outputs; with a send schedule (open loop), records
    /// each one's detection latency: from the scheduled send of the chunk
    /// holding its last constituent to now.
    fn deliver(
        &mut self,
        outputs: Vec<(QueryId, ComplexEvent)>,
        due: Option<&[Instant]>,
        position: &[usize],
    ) {
        let delivered = Instant::now();
        for (_, ce) in outputs {
            if let Some(due) = due {
                let sent = ce
                    .constituents
                    .iter()
                    .map(|&seq| due[position[seq as usize] / CHUNK])
                    .max()
                    .expect("complex events have constituents");
                let latency = delivered.saturating_duration_since(sent);
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
            }
            self.outputs.push(ce);
        }
    }
}

fn build(fixture: &Fixture, workload: Workload) -> SpectreEngine {
    SpectreEngine::builder(&fixture.query)
        .config(workload.config())
        .threaded()
        .build()
}

pub fn run(bench: &mut Bench, root: SpanId) -> RunResult {
    let workload = bench.workload;
    let (fixtures, mut samples) = bench.set_up(root, |fixture, parent| {
        let start = Instant::now();
        let engine = bench
            .tracer
            .span(parent, "engine.build", || build(fixture, workload));
        let built = start.elapsed();
        bench
            .tracer
            .span(parent, "engine.teardown", || drop(engine));
        built
    });
    let mut tally = Tally::default();
    let untraced = Tracer::new(false);
    let rate = workload
        .open_rate()
        .expect("in-process workloads have an open-loop rate");
    let open_pass_s = workload.events() as f64 / rate;
    let phase_start = Instant::now();
    let closed_end = phase_start + Duration::from_secs_f64(bench.seconds * CLOSED_SHARE);
    let run_end = phase_start + Duration::from_secs_f64(bench.seconds);

    // Closed-loop (events, seconds) summed over untraced and traced passes.
    let mut closed_sum = [(0.0, 0.0); 2];
    let mut latencies = Vec::new();
    let mut lag_max_ms: f64 = 0.0;
    let mut index = 0;
    let mut open_passes = 0;
    loop {
        // Pass 0 warms caches and allocator up; it is checked, not timed.
        let warmup = index == 0;
        let closed = index <= 1 || (open_passes == 0 && Instant::now() < closed_end);
        let load = if closed {
            Load::Closed
        } else {
            let room = run_end.saturating_duration_since(Instant::now());
            if open_passes > 0 && room.as_secs_f64() < open_pass_s {
                break;
            }
            open_passes += 1;
            Load::Open { rate }
        };
        // A traced run alternates traced and untraced closed-loop passes:
        // their throughput ratio is the tracing overhead.
        let traced = bench.tracer.enabled() && !warmup && !(closed && index % 2 == 0);
        let tracer = if traced { &bench.tracer } else { &untraced };
        let span = bench.tracer.open();
        let start = Instant::now();
        let fixture = &fixtures[index % fixtures.len()];
        let pass = drive(fixture, workload, load, tracer, span);
        let label = match load {
            _ if warmup => "warmup",
            Load::Closed => "closed",
            Load::Open { .. } => "open",
        };
        let layer = if traced {
            "bench.pass"
        } else {
            "untraced.pass"
        };
        bench.tracer.close(span, root, layer, start);

        let n = fixture.offered.len();
        match pass.stall {
            None => tally.score(
                &fixture.reference,
                &pass.outputs,
                n as u64,
                pass.counters.as_ref().map_or(0, |c| c.input_events),
            ),
            Some(call) => {
                tally.stall(&fixture.reference, &pass.outputs, n, pass.accepted);
                tally.stalls.push((format!("{label} pass {index}"), call));
            }
        }
        let pass_eps = pass.stall.is_none().then(|| n as f64 / pass.wall_s);
        if pass.stall.is_none() && !warmup {
            if closed {
                let sum = &mut closed_sum[usize::from(traced)];
                sum.0 += n as f64;
                sum.1 += pass.wall_s;
                samples.push("engine.push_full", pass.push_full as f64);
                samples.push("engine.drain_calls", pass.drain_calls as f64);
                if traced {
                    let self_times = bench.tracer.self_times(span);
                    for (layer, name) in [
                        ("engine.push", "engine.push_s"),
                        ("engine.drain", "engine.drain_s"),
                        ("engine.finish", "engine.finish_s"),
                    ] {
                        samples.push(name, self_times.get(layer).copied().unwrap_or(0.0));
                    }
                }
            } else {
                latencies.extend_from_slice(&pass.latencies_ms);
                lag_max_ms = lag_max_ms.max(pass.lag_max_ms);
            }
        }
        // Engine counters are taken from the closed loop, as throughput is:
        // open-loop passes add the idle drains' maintenance cycles.
        if closed && !warmup && pass.stall.is_none() {
            if let Some(counters) = &pass.counters {
                samples.extend(counters.layers());
            }
        }
        let mut fields = vec![
            ("workload", format!("\"{}\"", workload.name())),
            ("seed", bench.seed.to_string()),
            ("pass", index.to_string()),
            ("load", format!("\"{label}\"")),
            ("traced", traced.to_string()),
            (
                "stall",
                pass.stall.map_or("null".into(), |c| format!("\"{c}\"")),
            ),
            ("wall_s", pass.wall_s.to_string()),
            (
                "throughput_eps",
                pass_eps.map_or("null".into(), |e| e.to_string()),
            ),
            ("outputs", pass.outputs.len().to_string()),
            ("push_full", pass.push_full.to_string()),
            ("lag_max_ms", pass.lag_max_ms.to_string()),
            (
                "latency_p50_ms",
                percentile(&pass.latencies_ms, 0.5).to_string(),
            ),
            (
                "latency_p90_ms",
                percentile(&pass.latencies_ms, 0.9).to_string(),
            ),
        ];
        if let Some(counters) = &pass.counters {
            fields.extend(
                counters
                    .layers()
                    .into_iter()
                    .map(|(k, v)| (k, v.to_string())),
            );
        }
        bench.record(json_object(&fields));
        index += 1;
        if pass.abandoned {
            break;
        }
    }

    let mut result = RunResult::new(tally, &samples, closed_sum, &latencies);
    result.layers.insert("loadgen.lag_max_ms", lag_max_ms);
    result
}

/// One pass: build a session, offer the whole stream chunk by chunk
/// (draining outputs after every chunk, and while waiting for the next
/// one in the open loop), finish.
fn drive(fixture: &Fixture, workload: Workload, load: Load, tracer: &Tracer, span: SpanId) -> Pass {
    let input: Vec<Event> = fixture.offered.clone();
    let n = input.len();
    let mut pass = Pass {
        outputs: Vec::with_capacity(fixture.reference.len()),
        ..Pass::default()
    };
    let start = Instant::now();
    let deadline = start + PASS_DEADLINE;
    let mut engine = tracer.span(span, "engine.build", || build(fixture, workload));
    let schedule_start = Instant::now();
    // Scheduled send time of each offered chunk (open loop only).
    let mut due: Vec<Instant> = Vec::new();
    let mut events = input.into_iter();
    while pass.accepted < n {
        let chunk_end = (pass.accepted + CHUNK).min(n);
        if let Load::Open { rate } = load {
            let at = schedule_start + Duration::from_secs_f64(chunk_end as f64 / rate);
            due.push(at);
            // Until the chunk is due, keep the session progressing and take
            // what commits, as a dedicated feed thread would. Busy: a loop
            // that sleeps between drains lets a virtualized 2-core host
            // drift into a slower state after a few seconds, and latency
            // then jumps from under 1 ms to about 50 ms.
            while Instant::now() < at {
                let drained = tracer.span(span, "engine.drain", || engine.drain_outputs());
                pass.drain_calls += 1;
                pass.deliver(drained, Some(&due), &fixture.position);
            }
            let lag = Instant::now().saturating_duration_since(at);
            pass.lag_max_ms = pass.lag_max_ms.max(lag.as_secs_f64() * 1e3);
        }
        let stalled = tracer.span(span, "engine.push", || {
            for mut event in events.by_ref().take(chunk_end - pass.accepted) {
                loop {
                    match engine.push(event) {
                        PushResult::Accepted => break,
                        PushResult::Full(back) => {
                            pass.push_full += 1;
                            if pass.push_full.is_multiple_of(1024) && Instant::now() > deadline {
                                return true;
                            }
                            event = back;
                        }
                    }
                }
                pass.accepted += 1;
            }
            false
        });
        if stalled || Instant::now() > deadline {
            pass.stall = Some("push");
            // The engine's own view of the stall, for the pass record.
            pass.counters = Some(PassCounters {
                metrics: engine.metrics(),
                workers: engine.worker_metrics(),
                input_events: engine.events_ingested(),
            });
            return pass;
        }
        let drained = tracer.span(span, "engine.drain", || engine.drain_outputs());
        pass.drain_calls += 1;
        let open = matches!(load, Load::Open { .. });
        pass.deliver(drained, open.then_some(&due[..]), &fixture.position);
    }
    let finished = tracer.span(span, "engine.finish", || finish_within(engine, deadline));
    let Some((report, workers)) = finished else {
        pass.stall = Some("finish");
        pass.abandoned = true;
        return pass;
    };
    pass.wall_s = start.elapsed().as_secs_f64();
    let open = matches!(load, Load::Open { .. });
    let tagged = report.complex_events.into_iter().map(|ce| (QueryId(0), ce));
    pass.deliver(
        tagged.collect(),
        open.then_some(&due[..]),
        &fixture.position,
    );
    pass.counters = Some(PassCounters {
        metrics: report.metrics,
        workers,
        input_events: report.input_events,
    });
    pass
}

/// `finish` on a helper thread, given up at `deadline`: `None` means the
/// call is still running (the thread is left behind; the process exit
/// ends it).
fn finish_within(
    mut engine: SpectreEngine,
    deadline: Instant,
) -> Option<(Report, Vec<WorkerSnapshot>)> {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let report = engine.try_finish().expect("the session is finished once");
        let _ = tx.send((report, engine.worker_metrics()));
    });
    let left = deadline.saturating_duration_since(Instant::now());
    let finished = rx.recv_timeout(left).ok()?;
    helper
        .join()
        .expect("the finish helper returned its report");
    Some(finished)
}
