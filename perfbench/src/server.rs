//! The `server` workload: the `datapath` query and stream sent through
//! `spectre-server` by two `FeedClient` connections (strided halves, seq
//! merge order), closed-loop, while the benchmark scrapes `GET /metrics`
//! about once a second.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spectre_core::{QueryId, TenantId};
use spectre_events::codec::{encode_all, Decoder};
use spectre_events::Event;
use spectre_query::ComplexEvent;
use spectre_server::{
    FeedClient, IngestOrder, Server, ServerConfig, ServerCounters, ServerHandle, ServerOutcome,
};

use crate::trace::{SpanId, Tracer};
use crate::{
    json_object, ratio, Bench, Fixture, PassCounters, RunResult, Samples, Tally, CHUNK,
    PASS_DEADLINE,
};

/// Load-generating connections (no more than the box's 2 cores).
const CLIENTS: u64 = 2;
/// Bytes per decoder feed in the codec timing (a connection's read size).
const READ_CHUNK: usize = 64 * 1024;
/// Interval between `/metrics` scrapes.
const SCRAPE_EVERY: Duration = Duration::from_secs(1);

fn start(fixture: &Fixture) -> ServerHandle {
    let config = ServerConfig {
        engine: crate::Workload::Server.config(),
        threaded: true,
        order: IngestOrder::Seq,
        ..ServerConfig::default()
    };
    Server::start(
        config,
        fixture.schema.clone(),
        vec![(TenantId::DEFAULT, Arc::clone(&fixture.query))],
    )
    .expect("the server binds loopback ports and starts")
}

/// What one client thread measured: the end of each sent chunk, its
/// spans, and how its connection ended.
struct ClientRun {
    chunk_sent: Vec<Instant>,
    spans: Vec<(&'static str, Instant, Instant)>,
    result: Result<(), String>,
}

/// Sends the client's half of the stream once the barrier opens.
fn client(addr: SocketAddr, events: Vec<Event>, go: Arc<Barrier>) -> ClientRun {
    let mut run = ClientRun {
        chunk_sent: Vec::with_capacity(events.len() / CHUNK + 1),
        spans: Vec::new(),
        result: Ok(()),
    };
    let connected = FeedClient::connect(addr, 0);
    go.wait();
    let mut client = match connected {
        Ok(client) => client,
        Err(e) => {
            run.result = Err(format!("connect: {e}"));
            return run;
        }
    };
    for chunk in events.chunks(CHUNK) {
        let start = Instant::now();
        let sent = chunk.iter().try_for_each(|e| client.send_event(e));
        let end = Instant::now();
        run.spans.push(("client.send", start, end));
        run.chunk_sent.push(end);
        if let Err(e) = sent {
            run.result = Err(format!("send: {e}"));
            return run;
        }
    }
    let start = Instant::now();
    let finished = client.finish();
    run.spans.push(("client.finish", start, Instant::now()));
    run.result = finished.map_err(|e| format!("finish: {e}"));
    run
}

/// One `GET /metrics`; returns its wall time in ms, `None` if it failed.
fn scrape(addr: SocketAddr) -> Option<f64> {
    let start = Instant::now();
    let mut body = Vec::new();
    let fetched = TcpStream::connect(addr).and_then(|mut stream| {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
        stream.read_to_end(&mut body)
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (fetched.is_ok() && body.starts_with(b"HTTP/1.0 200")).then_some(ms)
}

/// `join` on a helper thread, given up at `deadline` (`None`: still
/// running, and the process exit ends it; or the drain failed).
fn join_within(handle: ServerHandle, deadline: Instant) -> Option<ServerOutcome> {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    let left = deadline.saturating_duration_since(Instant::now());
    let outcome = rx.recv_timeout(left).ok()?;
    helper.join().expect("the join helper returned");
    outcome.ok()
}

pub fn run(bench: &mut Bench, root: SpanId) -> RunResult {
    let tracer = &bench.tracer;
    let mut start_s = Vec::new();
    let (fixtures, mut samples) = bench.set_up(root, |fixture, parent| {
        let begin = Instant::now();
        let handle = tracer.span(parent, "server.start", || start(fixture));
        let started = begin.elapsed();
        start_s.push(started.as_secs_f64());
        tracer.span(parent, "server.teardown", || {
            handle.drain();
            handle.join().expect("an idle server drains cleanly");
        });
        started
    });
    let fixture = &fixtures[0];
    for s in start_s {
        samples.push("server.start_s", s);
    }
    let mut tally = Tally::default();
    if bench.tracer.enabled() {
        codec_costs(bench, root, fixture, &mut samples);
    }
    let halves: Vec<Vec<Event>> = (0..CLIENTS)
        .map(|i| {
            let half = fixture.offered.iter().filter(|e| e.seq() % CLIENTS == i);
            half.cloned().collect()
        })
        .collect();
    let run_end = Instant::now() + Duration::from_secs_f64(bench.seconds);
    let mut last_scrape = Instant::now();
    let mut latencies = Vec::new();
    let mut index = 0;
    let untraced = Tracer::new(false);
    // (events, seconds) summed over untraced and traced passes.
    let mut sums = [(0.0, 0.0); 2];
    // Pass 0 warms up (checked, not timed); 1 and 2 are the fewest timed.
    while index <= 2 || Instant::now() < run_end {
        let warmup = index == 0;
        // A traced run alternates traced and untraced passes: their
        // throughput ratio is the tracing overhead.
        let traced = bench.tracer.enabled() && index % 2 == 1;
        let tracer = if traced { &bench.tracer } else { &untraced };
        let span = bench.tracer.open();
        let begin = Instant::now();
        let pass = pass(
            tracer,
            span,
            fixture,
            &halves,
            &mut last_scrape,
            &mut samples,
            &mut tally,
        );
        let layer = if traced {
            "bench.pass"
        } else {
            "untraced.pass"
        };
        bench.tracer.close(span, root, layer, begin);
        let label = format!("pass {index}");
        let n = fixture.offered.len();
        let mut fields = vec![
            ("workload", "\"server\"".to_string()),
            ("seed", bench.seed.to_string()),
            ("pass", index.to_string()),
            (
                "load",
                format!("\"{}\"", if warmup { "warmup" } else { "closed" }),
            ),
            ("traced", traced.to_string()),
        ];
        match pass {
            Err(Stall {
                call,
                delivered,
                ingested,
            }) => {
                tally.stall(&fixture.reference, &delivered, n, ingested);
                tally.stalls.push((label, call));
                fields.push(("stall", format!("\"{call}\"")));
                bench.record(json_object(&fields));
                break;
            }
            Ok(pass) => {
                tally.score(
                    &fixture.reference,
                    &pass.outputs,
                    n as u64,
                    pass.counters.input_events,
                );
                let pass_eps = n as f64 / pass.wall_s;
                let layers = pass.counters.layers();
                fields.extend([
                    ("stall", "null".to_string()),
                    ("wall_s", pass.wall_s.to_string()),
                    ("throughput_eps", pass_eps.to_string()),
                    ("outputs", pass.outputs.len().to_string()),
                ]);
                fields.extend(layers.iter().map(|(k, v)| (*k, v.to_string())));
                fields.extend(pass.server.iter().map(|(k, v)| (*k, v.to_string())));
                if !warmup {
                    let sum = &mut sums[usize::from(traced)];
                    sum.0 += n as f64;
                    sum.1 += pass.wall_s;
                    latencies.extend(pass.latencies_ms);
                    samples.extend(layers);
                    samples.extend(pass.server);
                }
                bench.record(json_object(&fields));
            }
        }
        index += 1;
    }
    RunResult::new(tally, &samples, sums, &latencies)
}

/// Times the public codec over the workload stream: `encode_all`, then a
/// `Decoder` reading every event back.
fn codec_costs(bench: &Bench, root: SpanId, fixture: &Fixture, samples: &mut Samples) {
    let n = fixture.offered.len() as f64;
    let begin = Instant::now();
    let bytes = bench
        .tracer
        .span(root, "codec.encode", || encode_all(&fixture.offered));
    samples.push(
        "codec.encode_ns_per_event",
        begin.elapsed().as_secs_f64() * 1e9 / n,
    );
    let begin = Instant::now();
    let decoded = bench.tracer.span(root, "codec.decode", || {
        // Fed in socket-read-sized pieces, as a server connection feeds it.
        let mut decoder = Decoder::new();
        let mut count = 0usize;
        for piece in bytes.chunks(READ_CHUNK) {
            decoder.extend(piece);
            while let Some(event) = decoder.next_event().expect("the encoder's frames decode") {
                std::hint::black_box(event);
                count += 1;
            }
        }
        count
    });
    samples.push(
        "codec.decode_ns_per_event",
        begin.elapsed().as_secs_f64() * 1e9 / n,
    );
    assert_eq!(
        decoded,
        fixture.offered.len(),
        "every encoded event decodes"
    );
}

struct ServerPass {
    /// First send to `join` return.
    wall_s: f64,
    outputs: Vec<ComplexEvent>,
    latencies_ms: Vec<f64>,
    counters: PassCounters,
    server: Vec<(&'static str, f64)>,
}

/// A pass that missed its deadline or whose client or drain failed.
struct Stall {
    call: &'static str,
    /// Outputs delivered by then (the server delivers only at `join`).
    delivered: Vec<ComplexEvent>,
    ingested: usize,
}

impl Stall {
    fn at(call: &'static str) -> Self {
        Stall {
            call,
            delivered: Vec::new(),
            ingested: 0,
        }
    }
}

/// One pass through a fresh server; scrapes are scored into `tally`.
fn pass(
    tracer: &Tracer,
    span: SpanId,
    fixture: &Fixture,
    halves: &[Vec<Event>],
    last_scrape: &mut Instant,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Result<ServerPass, Stall> {
    let handle = tracer.span(span, "server.start", || start(fixture));
    let counters: Arc<ServerCounters> = handle.counters();
    let go = Arc::new(Barrier::new(halves.len() + 1));
    let addr = handle.ingest_addr();
    let clients: Vec<JoinHandle<ClientRun>> = halves
        .iter()
        .map(|half| {
            let (half, go) = (half.clone(), Arc::clone(&go));
            std::thread::spawn(move || client(addr, half, go))
        })
        .collect();
    go.wait();
    let first_send = Instant::now();
    let deadline = first_send + PASS_DEADLINE;
    while !clients.iter().all(JoinHandle::is_finished) {
        if Instant::now() > deadline {
            return Err(Stall::at("client send"));
        }
        if last_scrape.elapsed() >= SCRAPE_EVERY {
            *last_scrape = Instant::now();
            tally.attempted += 1;
            match tracer.span(span, "http.scrape", || scrape(handle.http_addr())) {
                Some(ms) => samples.push("http.metrics_scrape_ms", ms),
                None => tally.failed += 1,
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let runs: Vec<ClientRun> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let drain_begin = Instant::now();
    handle.drain();
    let outcome = join_within(handle, deadline);
    let delivered = Instant::now();
    tracer.record(span, "server.drain", drain_begin, delivered);
    let Some(mut outcome) = outcome else {
        return Err(Stall::at("join"));
    };
    let outputs = outcome.outputs.remove(&QueryId(0)).unwrap_or_default();
    for (i, run) in runs.iter().enumerate() {
        if let Err(e) = &run.result {
            eprintln!("client {i} failed: {e}");
            return Err(Stall {
                call: "client send",
                delivered: outputs,
                ingested: usize::try_from(outcome.report.input_events).unwrap_or(usize::MAX),
            });
        }
    }
    let (mut send_s, mut finish_s) = (0.0, 0.0);
    for run in &runs {
        for &(layer, s, e) in &run.spans {
            tracer.record(span, layer, s, e);
            let secs = (e - s).as_secs_f64();
            match layer {
                "client.send" => send_s += secs,
                _ => finish_s += secs,
            }
        }
    }
    let latencies_ms = outputs
        .iter()
        .map(|ce| {
            let sent = ce
                .constituents
                .iter()
                .map(|&seq| {
                    runs[(seq % CLIENTS) as usize].chunk_sent[(seq / CLIENTS) as usize / CHUNK]
                })
                .max()
                .expect("complex events have constituents");
            delivered.saturating_duration_since(sent).as_secs_f64() * 1e3
        })
        .collect();
    let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let server = vec![
        ("client.send_s", send_s),
        ("client.finish_s", finish_s),
        ("server.drain_s", (delivered - drain_begin).as_secs_f64()),
        ("server.frames", get(&counters.frames)),
        ("server.credits_granted", get(&counters.credits_granted)),
        (
            "server.events_per_credit",
            ratio(
                counters.events.load(Ordering::Relaxed),
                counters.credits_granted.load(Ordering::Relaxed),
            ),
        ),
        ("server.closed_abnormal", get(&counters.closed_abnormal)),
        ("server.decode_errors", get(&counters.decode_errors)),
        ("feed.seq_gaps_skipped", get(&counters.seq_gaps_skipped)),
        ("feed.seq_stale_dropped", get(&counters.seq_stale_dropped)),
    ];
    Ok(ServerPass {
        wall_s: (delivered - first_send).as_secs_f64(),
        outputs,
        latencies_ms,
        counters: PassCounters {
            metrics: outcome.report.metrics,
            workers: Vec::new(),
            input_events: outcome.report.input_events,
        },
        server,
    })
}
