//! Dataset, CSV and framed-source integration: generators are
//! deterministic, CSV round-trips losslessly, and the framed (codec)
//! ingestion path feeds engines identically to direct replay.

use std::io::{Cursor, Read};
use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{SpectreConfig, SpectreEngine};
use spectre_datasets::{csv, FramedSource, NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::codec::encode_all;
use spectre_events::{Event, Schema};
use spectre_integration::fmt_all;
use spectre_query::queries::{self, Direction};

#[test]
fn nyse_generator_is_deterministic_per_seed() {
    let mut s1 = Schema::new();
    let mut s2 = Schema::new();
    let a: Vec<_> = NyseGenerator::new(NyseConfig::small(500, 9), &mut s1).collect();
    let b: Vec<_> = NyseGenerator::new(NyseConfig::small(500, 9), &mut s2).collect();
    assert_eq!(a, b);
    let c: Vec<_> = NyseGenerator::new(NyseConfig::small(500, 10), &mut s1).collect();
    assert_ne!(a, c, "different seeds produce different streams");
}

#[test]
fn rand_generator_is_deterministic_per_seed() {
    let mut s1 = Schema::new();
    let mut s2 = Schema::new();
    let a: Vec<_> = RandGenerator::new(RandConfig::small(500, 9), &mut s1).collect();
    let b: Vec<_> = RandGenerator::new(RandConfig::small(500, 9), &mut s2).collect();
    assert_eq!(a, b);
}

#[test]
fn nyse_symbols_are_roughly_round_robin() {
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: 10,
        leaders: 2,
        events: 100,
        ..NyseConfig::default()
    };
    let gen = NyseGenerator::new(config, &mut schema);
    let vocab = gen.vocab();
    let events: Vec<_> = gen.collect();
    // Every symbol appears exactly events/symbols times.
    let mut counts = std::collections::HashMap::new();
    for ev in &events {
        *counts
            .entry(ev.symbol(vocab.symbol).unwrap())
            .or_insert(0u32) += 1;
    }
    assert_eq!(counts.len(), 10);
    assert!(counts.values().all(|&c| c == 10));
    // Timestamps are non-decreasing.
    assert!(events.windows(2).all(|w| w[0].ts() <= w[1].ts()));
}

#[test]
fn csv_roundtrip_preserves_stream_and_output() {
    let dir = std::env::temp_dir().join("spectre-csv-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("quotes.csv");

    let mut schema = Schema::new();
    let gen = NyseGenerator::new(NyseConfig::small(800, 13), &mut schema);
    let vocab = gen.vocab();
    let events: Vec<_> = gen.collect();
    csv::write_quotes(&path, &events, &schema, vocab).unwrap();

    let mut schema2 = Schema::new();
    let restored = csv::read_quotes(&path, &mut schema2).unwrap();
    assert_eq!(restored.len(), events.len());

    // Same query over original and restored stream gives the same output
    // (symbol ids may differ between schemas; outputs are seq-based).
    let q1 = Arc::new(queries::q1(&mut schema, 3, 100, Direction::Rising));
    let q2 = Arc::new(queries::q1(&mut schema2, 3, 100, Direction::Rising));
    let out1 = run_sequential(&q1, &events);
    let out2 = run_sequential(&q2, &restored);
    assert_eq!(fmt_all(&out1.complex_events), fmt_all(&out2.complex_events));
    std::fs::remove_file(&path).ok();
}

#[test]
fn csv_read_rejects_malformed_lines() {
    let dir = std::env::temp_dir().join("spectre-csv-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.csv");
    std::fs::write(&path, "0,0,SYM,1.0\n").unwrap(); // too few fields
    let mut schema = Schema::new();
    let err = csv::read_quotes(&path, &mut schema);
    assert!(err.is_err());
    std::fs::remove_file(&path).ok();
}

/// A reader over encoded frames that hands out at most `limit` bytes per
/// `read`, so frames straddle reads the way they do on a socket.
struct Trickle {
    wire: Cursor<Vec<u8>>,
    limit: usize,
}

impl Trickle {
    fn new(events: &[Event], limit: usize) -> Trickle {
        Trickle {
            wire: Cursor::new(encode_all(events).to_vec()),
            limit,
        }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.limit);
        self.wire.read(&mut buf[..n])
    }
}

#[test]
fn framed_replay_equals_direct_replay() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(600, 15), &mut schema).collect();
    for chunk in [1usize, 7, 64, 1024] {
        let mut source = FramedSource::new(Trickle::new(&events, chunk));
        let framed: Vec<_> = source.by_ref().collect();
        assert_eq!(framed, events, "chunk = {chunk}");
        assert!(source.error().is_none(), "chunk = {chunk}");
    }
}

#[test]
fn engine_output_identical_through_codec_path() {
    // End-to-end: NYSE stream → binary frames → decoder → SPECTRE, as the
    // paper's TCP client would feed it.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1200, 19), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    let report = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(4))
        .simulated()
        .build()
        .run(FramedSource::new(Trickle::new(&events, 128)));
    assert_eq!(fmt_all(&report.complex_events), fmt_all(&expected));
}
